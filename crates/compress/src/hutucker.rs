//! Hu-Tucker optimal alphabetical (order-preserving) binary codes
//! (Hu & Tucker, SIAM J. Appl. Math 1971).
//!
//! The paper cites Hu-Tucker as the bit-level alternative to ALM for
//! order-preserving compression (ALM was chosen because it decodes faster
//! and compresses better on strings; see §2.1 and [19]). We implement it as
//! the ablation baseline: codeword order equals symbol order, so comparing
//! two encoded values *bitwise* (shorter-exhausted = smaller) reproduces the
//! source order, and inequality predicates can run in the compressed domain.
//!
//! The classic three phases:
//! 1. *combination*: repeatedly merge the minimum-weight *compatible pair*
//!    (no leaf strictly between the two nodes in the working sequence);
//! 2. *level assignment*: each symbol's code length is its leaf depth in the
//!    combination tree;
//! 3. *recombination*: the canonical alphabetical code is rebuilt from the
//!    length sequence alone.

use crate::bitio::{cmp_bits, read_varint, write_varint, BitReader, BitWriter};
use crate::error::{corrupt, CodecError};
use crate::huffman::MAX_CODE_LEN;
use std::cmp::Ordering;

const SYMBOLS: usize = 256;

/// A trained Hu-Tucker code over byte symbols.
#[derive(Debug, Clone)]
pub struct HuTucker {
    codes: Vec<(u64, u8)>,
    /// Flat decode tree as (left, right); leaves flagged with the high bit.
    tree: Vec<(u32, u32)>,
}

const LEAF_FLAG: u32 = 1 << 31;

impl HuTucker {
    /// Train on a corpus (add-one smoothing keeps every byte encodable).
    pub fn train<'a, I: IntoIterator<Item = &'a [u8]>>(corpus: I) -> Self {
        let mut freq = [1u64; SYMBOLS];
        for v in corpus {
            for &b in v {
                freq[b as usize] += 1;
            }
        }
        Self::from_frequencies(&freq)
    }

    /// Build the optimal alphabetical code for the given frequencies.
    pub fn from_frequencies(freq: &[u64; SYMBOLS]) -> Self {
        let lengths = hu_tucker_lengths(freq);
        Self::from_lengths(&lengths)
    }

    /// Reconstruct the code from per-symbol lengths (the serialized model).
    pub fn from_lengths(lengths: &[u8; SYMBOLS]) -> Self {
        let codes = alphabetical_codes(lengths);
        let tree = build_decode_tree(&codes).expect("trained code is prefix-free");
        HuTucker { codes, tree }
    }

    /// [`HuTucker::from_lengths`] for *untrusted* length tables: rejects a
    /// zero or oversized length, which no trained model contains and which
    /// would overflow the `u64` codeword arithmetic.
    pub fn from_lengths_checked(lengths: &[u8; SYMBOLS]) -> Result<Self, CodecError> {
        if let Some(s) = lengths.iter().position(|&l| l == 0 || l > MAX_CODE_LEN) {
            return Err(corrupt(
                "hutucker",
                format!("invalid code length {} for symbol {s}", lengths[s]),
            ));
        }
        let codes = alphabetical_codes(lengths);
        let tree = build_decode_tree(&codes)
            .ok_or_else(|| corrupt("hutucker", "length table yields non-prefix-free code"))?;
        Ok(HuTucker { codes, tree })
    }

    /// Per-symbol code lengths (the serializable model).
    pub fn lengths(&self) -> [u8; SYMBOLS] {
        let mut out = [0u8; SYMBOLS];
        for (s, slot) in out.iter_mut().enumerate() {
            *slot = self.codes[s].1;
        }
        out
    }

    /// Serialized model size (one length byte per symbol).
    pub fn model_size(&self) -> usize {
        SYMBOLS
    }

    /// Compress a value: varint bit count, then packed code bits.
    pub fn compress(&self, value: &[u8]) -> Vec<u8> {
        let mut w = BitWriter::new();
        for &b in value {
            let (code, len) = self.codes[b as usize];
            w.push_bits(code, len);
        }
        let (bits, bit_len) = w.finish();
        let mut out = Vec::with_capacity(bits.len() + 2);
        write_varint(&mut out, bit_len);
        out.extend_from_slice(&bits);
        out
    }

    /// Decompress a value produced by [`HuTucker::compress`].
    ///
    /// Fails (never panics) on a truncated header, a bit count exceeding the
    /// bytes present, or a codeword walking into a dead tree branch.
    pub fn decompress(&self, data: &[u8]) -> Result<Vec<u8>, CodecError> {
        let mut out = Vec::new();
        self.decompress_into(data, &mut out)?;
        Ok(out)
    }

    /// [`HuTucker::decompress`], appending the value to `out`.
    pub(crate) fn decompress_into(&self, data: &[u8], out: &mut Vec<u8>) -> Result<(), CodecError> {
        let (bit_len, used) =
            read_varint(data).ok_or_else(|| corrupt("hutucker", "truncated length header"))?;
        let body = &data[used..];
        if !BitReader::fits(body, bit_len) {
            return Err(corrupt(
                "hutucker",
                format!("claims {bit_len} bits but only {} bytes follow", body.len()),
            ));
        }
        let mut r = BitReader::new(body, bit_len);
        out.reserve(bit_len / 4);
        while r.remaining() > 0 {
            let mut node = 0u32;
            while node & LEAF_FLAG == 0 {
                let (l, rgt) = self.tree[node as usize];
                let bit = r
                    .next_bit()
                    .ok_or_else(|| corrupt("hutucker", "stream ends mid-codeword"))?;
                node = if bit { rgt } else { l };
                if node == u32::MAX {
                    return Err(corrupt("hutucker", "codeword reaches dead tree branch"));
                }
            }
            out.push((node & 0xff) as u8);
        }
        Ok(())
    }

    /// Compare two compressed values in the compressed domain. Because the
    /// code is alphabetical, this equals the ordering of the source strings.
    /// Fails if either stream's header is truncated or claims more bits than
    /// are present.
    pub fn cmp_compressed(&self, a: &[u8], b: &[u8]) -> Result<Ordering, CodecError> {
        let (abits, aused) =
            read_varint(a).ok_or_else(|| corrupt("hutucker", "truncated length header"))?;
        let (bbits, bused) =
            read_varint(b).ok_or_else(|| corrupt("hutucker", "truncated length header"))?;
        if !BitReader::fits(&a[aused..], abits) || !BitReader::fits(&b[bused..], bbits) {
            return Err(corrupt("hutucker", "compared stream shorter than its bit count"));
        }
        Ok(cmp_bits(&a[aused..], abits, &b[bused..], bbits))
    }
}

/// Phase 1 + 2: compute optimal alphabetical code lengths.
fn hu_tucker_lengths(freq: &[u64; SYMBOLS]) -> [u8; SYMBOLS] {
    let n = SYMBOLS;
    // Working sequence of node slots; `None` = removed.
    #[derive(Clone, Copy)]
    struct Slot {
        weight: u64,
        node: u32,
        is_leaf: bool,
    }
    let mut seq: Vec<Option<Slot>> =
        (0..n).map(|s| Some(Slot { weight: freq[s], node: s as u32, is_leaf: true })).collect();
    let mut parent: Vec<u32> = vec![u32::MAX; 2 * n - 1];

    for round in 0..n - 1 {
        let next_node = (n + round) as u32;
        // Find the minimal compatible pair (w_i + w_j, i, j).
        let mut best: Option<(u64, usize, usize)> = None;
        let live: Vec<usize> =
            (0..seq.len()).filter(|&k| seq[k].is_some()).collect();
        for (li, &i) in live.iter().enumerate() {
            let si = seq[i].expect("live");
            for &j in &live[li + 1..] {
                let sj = seq[j].expect("live");
                let cand = (si.weight + sj.weight, i, j);
                if best.is_none_or(|b| cand < b) {
                    best = Some(cand);
                }
                if sj.is_leaf {
                    break; // nothing beyond this leaf is compatible with i
                }
            }
        }
        let (w, i, j) = best.expect("n>=2 guarantees a pair");
        let (ni, nj) = (seq[i].expect("live").node, seq[j].expect("live").node);
        parent[ni as usize] = next_node;
        parent[nj as usize] = next_node;
        seq[i] = Some(Slot { weight: w, node: next_node, is_leaf: false });
        seq[j] = None;
    }

    let mut lengths = [0u8; SYMBOLS];
    for (s, len) in lengths.iter_mut().enumerate().take(n) {
        let mut d = 0u8;
        let mut v = s as u32;
        while parent[v as usize] != u32::MAX {
            v = parent[v as usize];
            d += 1;
        }
        *len = d.max(1);
    }
    lengths
}

/// Phase 3: canonical alphabetical code from a feasible length sequence.
fn alphabetical_codes(lengths: &[u8; SYMBOLS]) -> Vec<(u64, u8)> {
    let mut codes = vec![(0u64, 0u8); SYMBOLS];
    let mut prev_code = 0u64;
    let mut prev_len = 0u8;
    for s in 0..SYMBOLS {
        let len = lengths[s];
        let code = if s == 0 {
            0
        } else if len >= prev_len {
            (prev_code + 1) << (len - prev_len)
        } else {
            (prev_code + 1) >> (prev_len - len)
        };
        codes[s] = (code, len);
        prev_code = code;
        prev_len = len;
    }
    codes
}

/// Build the flat decode tree; `None` when the codes are not prefix-free
/// (only possible for a corrupt deserialized length table).
fn build_decode_tree(codes: &[(u64, u8)]) -> Option<Vec<(u32, u32)>> {
    let mut tree: Vec<(u32, u32)> = vec![(u32::MAX, u32::MAX)];
    for (sym, &(code, len)) in codes.iter().enumerate() {
        let mut node = 0usize;
        for i in (0..len).rev() {
            let bit = (code >> i) & 1 == 1;
            if i == 0 {
                let slot = if bit { &mut tree[node].1 } else { &mut tree[node].0 };
                if *slot != u32::MAX {
                    return None; // duplicate code or prefix of a longer one
                }
                *slot = LEAF_FLAG | sym as u32;
            } else {
                let cur = if bit { tree[node].1 } else { tree[node].0 };
                if cur != u32::MAX && cur & LEAF_FLAG != 0 {
                    return None; // an existing shorter code prefixes this one
                }
                let next = if cur == u32::MAX {
                    let nx = tree.len() as u32;
                    tree.push((u32::MAX, u32::MAX));
                    let slot = if bit { &mut tree[node].1 } else { &mut tree[node].0 };
                    *slot = nx;
                    nx
                } else {
                    cur
                };
                node = next as usize;
            }
        }
    }
    Some(tree)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> HuTucker {
        let corpus: Vec<&[u8]> = vec![b"banana band bandana", b"apple apricot", b"cherry chard"];
        HuTucker::train(corpus)
    }

    #[test]
    fn roundtrip() {
        let h = model();
        for s in ["", "banana", "unseen bytes \u{00ff}", "zzz"] {
            let c = h.compress(s.as_bytes());
            assert_eq!(h.decompress(&c).unwrap(), s.as_bytes(), "for {s:?}");
        }
    }

    #[test]
    fn codewords_are_alphabetical_and_prefix_free() {
        let h = model();
        for a in 0..SYMBOLS - 1 {
            let (ca, la) = h.codes[a];
            let (cb, lb) = h.codes[a + 1];
            // Alphabetical: code_a padded comparison < code_b.
            let m = la.max(lb);
            assert!((ca << (m - la)) <= (cb << (m - lb)), "codes not monotone at {a}");
        }
        for a in 0..SYMBOLS {
            for b in 0..SYMBOLS {
                if a == b {
                    continue;
                }
                let (ca, la) = h.codes[a];
                let (cb, lb) = h.codes[b];
                if la <= lb {
                    assert_ne!(cb >> (lb - la), ca, "code {a} prefixes {b}");
                }
            }
        }
    }

    #[test]
    fn order_preserved_on_strings() {
        let h = model();
        let mut strings: Vec<&str> =
            vec!["", "a", "aa", "ab", "apple", "b", "banana", "bananb", "z", "zz"];
        strings.sort();
        let comp: Vec<Vec<u8>> = strings.iter().map(|s| h.compress(s.as_bytes())).collect();
        for i in 1..strings.len() {
            assert_eq!(
                h.cmp_compressed(&comp[i - 1], &comp[i]).unwrap(),
                Ordering::Less,
                "{} vs {}",
                strings[i - 1],
                strings[i]
            );
        }
    }

    #[test]
    fn compresses_skewed_input() {
        let text = "aaaaaaaaaaaaaaaabbbbbbbbccc".repeat(100);
        let h = HuTucker::train([text.as_bytes()]);
        let c = h.compress(text.as_bytes());
        assert!(c.len() < text.len() / 2, "{} vs {}", c.len(), text.len());
    }

    #[test]
    fn equality_deterministic() {
        let h = model();
        assert_eq!(h.compress(b"same"), h.compress(b"same"));
        assert_eq!(
            h.cmp_compressed(&h.compress(b"x"), &h.compress(b"x")).unwrap(),
            Ordering::Equal
        );
    }
}
