//! ALM order-preserving dictionary compression (Antoshenkov, VLDB J. 1997),
//! the codec XQueC uses for string containers queried with inequality
//! predicates.
//!
//! The source string space is partitioned into disjoint *partitioning
//! intervals*, each owned by a dictionary token; codes are assigned to the
//! intervals in lexicographic order, so comparing two compressed values with
//! plain `memcmp` reproduces the order of the original strings:
//! `comp(x) < comp(y)` iff `x < y`. Unlike plain order-preserving dictionary
//! schemes, a token may own *several* intervals ("the" in the paper's Fig. 2
//! owns `[theaa,therd]` and `[therf,thezz]`, split around the longer token
//! "there") — this is exactly how ALM escapes the prefix-property problem.
//!
//! Construction here:
//! 1. tokens = every byte present in the training corpus (guaranteeing
//!    encodability) plus frequent multi-byte substrings mined from it;
//! 2. a DFS over the token prefix-trie enumerates the partitioning intervals
//!    in lexicographic order: for a token `t` with immediate extensions
//!    `c1 < … < ck`, the gaps `[t, c1)`, `(c1-subtree, c2)`, …,
//!    `(ck-subtree, t·max]` are `t`'s intervals, interleaved with the
//!    recursively enumerated intervals of each `ci`;
//! 3. interval `i` (in that global order) receives code `i` on a fixed
//!    width of 1 or 2 bytes — fixed width keeps concatenated codes
//!    `memcmp`-comparable.
//!
//! Encoding is greedy longest-prefix: the deepest token matching the
//! remaining input owns it; the interval within that token is found by
//! counting its child tokens that order below the remaining input.
//!
//! Decompression is a flat table kernel — several output bytes per code,
//! which is why ALM decodes faster than bit-by-bit Huffman (§2.1). Every
//! token lives in one byte arena padded with 16 zero bytes, and one
//! packed `u32` per code holds its token's arena offset and length. Each
//! code copies a fixed 16-byte chunk from its token's offset into the
//! output and advances by the token's length, so the copy needs no
//! length-dependent branch; a token longer than the chunk takes a slice
//! copy.

use crate::error::{corrupt, CodecError};
use std::collections::HashMap;

/// Bytes the decoder copies per code, and the zero padding after the last
/// token that keeps every such copy inside the arena.
const CHUNK: usize = 16;

/// Low bits of a decode-table entry: the token length, [`LONG`] when the
/// token is too long for the field.
const LEN_BITS: u32 = 8;
const LONG: u32 = (1 << LEN_BITS) - 1;

/// Token bytes a model may hold: every arena offset fits the entry's high
/// bits, the chunk padding included.
const MAX_ARENA: usize = (1 << (32 - LEN_BITS)) - CHUNK;

/// A trained ALM model (dictionary + interval codes).
///
/// Tokens, their prefix tree and the interval table are flat arrays: a
/// model makes a handful of allocations however many tokens it has.
#[derive(Debug, Clone)]
pub struct Alm {
    /// The dictionary tokens, sorted and distinct, back to back, followed by
    /// [`CHUNK`] zero bytes.
    arena: Box<[u8]>,
    /// Token `t` is `arena[starts[t]..starts[t + 1]]`.
    starts: Box<[u32]>,
    /// The immediate token-extensions of token `t` are
    /// `kids[kid_start[t]..kid_start[t + 1]]`, in token order.
    kid_start: Box<[u32]>,
    kids: Box<[u32]>,
    /// Token `t` owns one interval more than it has extensions: the global
    /// code of its `j`-th interval is `gaps[kid_start[t] + t + j]`.
    gaps: Box<[u32]>,
    /// Decode table: code -> the arena offset of its token, shifted left by
    /// [`LEN_BITS`], or'ed with the token's length ([`LONG`] when it does
    /// not fit).
    decode: Box<[u32]>,
    /// Code width in bytes (1 or 2).
    width: u8,
    /// Trie for longest-prefix matching.
    trie: Trie,
}

/// Tunables for dictionary construction.
#[derive(Debug, Clone)]
pub struct AlmConfig {
    /// Maximum number of dictionary tokens (singles + substrings).
    pub max_tokens: usize,
    /// Minimum occurrences for a substring to be considered.
    pub min_freq: u32,
    /// Cap on corpus bytes sampled for substring mining.
    pub sample_bytes: usize,
}

impl Default for AlmConfig {
    fn default() -> Self {
        AlmConfig { max_tokens: 8192, min_freq: 4, sample_bytes: 1 << 21 }
    }
}

impl Alm {
    /// Train a model on a corpus of values with default configuration.
    pub fn train<'a, I: IntoIterator<Item = &'a [u8]>>(corpus: I) -> Self {
        Self::train_with(corpus, &AlmConfig::default())
    }

    /// Train with explicit configuration.
    ///
    /// Two models are built — one whose interval table fits single-byte
    /// codes, and one with the full dictionary budget (two-byte codes) —
    /// and the one producing the smaller output (including its dictionary)
    /// on a corpus sample wins. This mirrors ALM's practical deployment,
    /// where dictionary size is tuned to the data.
    pub fn train_with<'a, I: IntoIterator<Item = &'a [u8]>>(corpus: I, cfg: &AlmConfig) -> Self {
        let (narrow, wide, corpus_bytes, sample) = Self::train_variants(corpus, cfg);
        match narrow {
            None => wide,
            Some(narrow) => {
                // Compare projected whole-corpus sizes: the sample ratio is
                // extrapolated to the full corpus so the dictionary cost is
                // weighed against what it will actually amortize over.
                let sample_bytes: usize = sample.iter().map(|v| v.len()).sum();
                let mut buf = Vec::new();
                let mut cost = |m: &Alm| -> f64 {
                    let mut comp = 0usize;
                    for v in &sample {
                        buf.clear();
                        comp += if m.compress_into(v, &mut buf) { buf.len() } else { v.len() };
                    }
                    let ratio = comp as f64 / sample_bytes.max(1) as f64;
                    m.model_size() as f64 + ratio * corpus_bytes as f64
                };
                if cost(&narrow) <= cost(&wide) {
                    narrow
                } else {
                    wide
                }
            }
        }
    }

    /// Train both dictionary widths, returning `(narrow-if-distinct, wide,
    /// corpus bytes, sample)`. Exposed for the codec ablation harness.
    pub fn train_variants<'a, I: IntoIterator<Item = &'a [u8]>>(
        corpus: I,
        cfg: &AlmConfig,
    ) -> (Option<Self>, Self, usize, Vec<&'a [u8]>) {
        let mut singles = [false; 256];
        let mut mined = Mined::new();
        let mut sampled = 0usize;
        let mut corpus_bytes = 0usize;
        let mut sample: Vec<&[u8]> = Vec::new();
        for value in corpus {
            corpus_bytes += value.len();
            for &b in value {
                singles[b as usize] = true;
            }
            if sampled < cfg.sample_bytes {
                sampled += value.len();
                mined.mine(value);
                if sample.len() < 512 {
                    sample.push(value);
                }
            }
        }
        // Score candidates by bytes saved: freq * (len - 1).
        let pair_keys: Vec<[u8; 2]> = (0..=u16::MAX)
            .filter(|&k| mined.pairs[usize::from(k)] >= cfg.min_freq)
            .map(u16::to_be_bytes)
            .collect();
        let triple_keys: Vec<([u8; 3], u32)> = mined
            .triples
            .iter()
            .filter(|&(_, &f)| f >= cfg.min_freq)
            .map(|(&k, &f)| {
                let [_, a, b, c] = k.to_be_bytes();
                ([a, b, c], f)
            })
            .collect();
        let mut cands: Vec<(&[u8], u64)> = pair_keys
            .iter()
            .map(|k| (&k[..], u64::from(mined.pairs[usize::from(u16::from_be_bytes(*k))])))
            .chain(triple_keys.iter().map(|(k, f)| (&k[..], 2 * u64::from(*f))))
            .chain(
                mined
                    .longer
                    .iter()
                    .filter(|&(_, &f)| f >= cfg.min_freq)
                    .map(|(&s, &f)| (s, u64::from(f) * (s.len() as u64 - 1))),
            )
            .collect();
        cands.sort_unstable_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(b.0)));

        let mut single_tokens: Vec<[u8; 1]> =
            (0..=u8::MAX).filter(|&b| singles[b as usize]).map(|b| [b]).collect();
        if single_tokens.is_empty() {
            // All-empty corpus: any placeholder token keeps the model valid
            // (empty strings encode to empty byte sequences regardless).
            single_tokens.push([0]);
        }
        let tokens = |extra: usize| -> Vec<&[u8]> {
            let singles = single_tokens.iter().map(|t| &t[..]);
            singles.chain(cands[..extra].iter().map(|&(s, _)| s)).collect()
        };
        let build = |extra: usize| Self::from_tokens(&tokens(extra));

        // Wide model: full budget.
        let budget = cfg.max_tokens.saturating_sub(single_tokens.len()).min(cands.len());
        let wide = build(budget);

        // Narrow model: the largest candidate prefix whose interval table
        // still fits one-byte codes, found on interval counts alone.
        let narrow = if wide.code_width() == 1 {
            None
        } else {
            let mut lo = 0usize;
            let mut hi = budget.min(256usize.saturating_sub(single_tokens.len()));
            while lo < hi {
                let mid = (lo + hi).div_ceil(2);
                if interval_count_of(tokens(mid)) <= 256 {
                    lo = mid;
                } else {
                    hi = mid - 1;
                }
            }
            Some(build(lo))
        };

        (narrow, wide, corpus_bytes, sample)
    }

    /// [`Alm::from_tokens`] for *untrusted* token sets (deserialized models):
    /// rejects sets that would trip the construction asserts — no usable
    /// token at all, enough tokens to overflow the 2-byte interval table
    /// (each token adds at most two intervals), or more token bytes than
    /// the decode table can address.
    pub fn try_from_tokens<T: AsRef<[u8]>>(tokens: &[T]) -> Result<Self, CodecError> {
        let (count, bytes) = tokens
            .iter()
            .map(AsRef::as_ref)
            .filter(|t| !t.is_empty())
            .fold((0usize, 0usize), |(n, b), t| (n + 1, b + t.len()));
        if count == 0 {
            return Err(corrupt("alm", "model has no non-empty tokens"));
        }
        if count > 32_768 {
            return Err(corrupt("alm", format!("{count} tokens overflow interval table")));
        }
        if bytes > MAX_ARENA {
            return Err(corrupt("alm", format!("{bytes} token bytes overflow decode table")));
        }
        Ok(Self::from_tokens(tokens))
    }

    /// Build the interval structure from an explicit token set. Every byte
    /// that can appear in an encodable value must be present as a single-byte
    /// token (unknown bytes make [`Alm::compress`] return `None`).
    pub fn from_tokens<T: AsRef<[u8]>>(tokens: &[T]) -> Self {
        let mut tokens: Vec<&[u8]> =
            tokens.iter().map(AsRef::as_ref).filter(|t| !t.is_empty()).collect();
        tokens.sort_unstable();
        tokens.dedup();
        assert!(!tokens.is_empty(), "ALM requires at least one token");
        let n = tokens.len();

        let total: usize = tokens.iter().map(|t| t.len()).sum();
        assert!(total <= MAX_ARENA, "ALM token arena overflow");
        let mut arena = Vec::with_capacity(total + CHUNK);
        let mut starts = Vec::with_capacity(n + 1);
        for t in &tokens {
            starts.push(arena.len() as u32);
            arena.extend_from_slice(t);
        }
        starts.push(total as u32);
        arena.resize(total + CHUNK, 0);

        // Immediate-parent relation: walking the sorted list with a stack of
        // open prefixes yields each token's nearest proper prefix ancestor.
        let mut parent: Vec<u32> = vec![NO_NODE; n];
        let mut stack: Vec<u32> = Vec::new();
        for i in 0..n {
            while stack.last().is_some_and(|&top| !tokens[i].starts_with(tokens[top as usize])) {
                stack.pop();
            }
            if let Some(&p) = stack.last() {
                parent[i] = p;
            }
            stack.push(i as u32);
        }
        let mut kid_start = vec![0u32; n + 1];
        for &p in parent.iter().filter(|&&p| p != NO_NODE) {
            kid_start[p as usize + 1] += 1;
        }
        for t in 0..n {
            kid_start[t + 1] += kid_start[t];
        }
        // `fill[t]`: the next free slot of token `t`, first among the kids,
        // then among the gaps.
        let mut fill: Vec<u32> = kid_start[..n].to_vec();
        let mut kids = vec![0u32; kid_start[n] as usize];
        for (i, &p) in parent.iter().enumerate().filter(|&(_, &p)| p != NO_NODE) {
            kids[fill[p as usize] as usize] = i as u32;
            fill[p as usize] += 1;
        }

        // DFS enumeration of intervals in lexicographic order; `code_token`
        // collects each code's token. Iterative, to avoid recursion-depth
        // issues on long token chains. Frame: (token, next kid slot).
        for (t, f) in fill.iter_mut().enumerate() {
            *f = kid_start[t] + t as u32;
        }
        let mut gaps = vec![0u32; kids.len() + n];
        let mut code_token: Vec<u32> = Vec::with_capacity(gaps.len());
        let mut open = |t: u32, code_token: &mut Vec<u32>| {
            gaps[fill[t as usize] as usize] = code_token.len() as u32;
            fill[t as usize] += 1;
            code_token.push(t);
        };
        let mut frames: Vec<(u32, u32)> = Vec::new();
        for root in (0..n as u32).filter(|&t| parent[t as usize] == NO_NODE) {
            // Opening a token: its first gap [t, c1) gets the next code.
            frames.push((root, kid_start[root as usize]));
            open(root, &mut code_token);
            while let Some(&mut (t, ref mut slot)) = frames.last_mut() {
                if *slot < kid_start[t as usize + 1] {
                    let c = kids[*slot as usize];
                    *slot += 1;
                    frames.push((c, kid_start[c as usize]));
                    open(c, &mut code_token);
                } else {
                    frames.pop();
                    // Returning to the parent: the gap after this child.
                    if let Some(&(p, _)) = frames.last() {
                        open(p, &mut code_token);
                    }
                }
            }
        }
        debug_assert_eq!(code_token.len(), gaps.len());

        let width: u8 = if code_token.len() <= 256 { 1 } else { 2 };
        assert!(code_token.len() <= 65_536, "ALM piece table overflow");
        let decode = code_token
            .into_iter()
            .map(|t| {
                let (start, end) = (starts[t as usize], starts[t as usize + 1]);
                start << LEN_BITS | (end - start).min(LONG)
            })
            .collect();

        let trie = Trie::new(&tokens);
        Alm {
            arena: arena.into(),
            starts: starts.into(),
            kid_start: kid_start.into(),
            kids: kids.into(),
            gaps: gaps.into(),
            decode,
            width,
            trie,
        }
    }

    /// Code width in bytes (1 or 2).
    pub fn code_width(&self) -> u8 {
        self.width
    }

    /// Token `t`'s bytes.
    fn token(&self, t: u32) -> &[u8] {
        &self.arena[self.starts[t as usize] as usize..self.starts[t as usize + 1] as usize]
    }

    /// The sorted dictionary tokens (the serializable model: the interval
    /// table is recomputed deterministically from these by `from_tokens`).
    pub fn tokens(&self) -> impl ExactSizeIterator<Item = &[u8]> + '_ {
        (0..self.starts.len() as u32 - 1).map(|t| self.token(t))
    }

    /// Number of partitioning intervals.
    pub fn interval_count(&self) -> usize {
        self.decode.len()
    }

    /// Serialized dictionary size estimate in bytes (source model cost).
    ///
    /// The interval table is fully determined by the token set (codes are a
    /// deterministic DFS enumeration), so only the sorted dictionary needs
    /// storing — front-coded: a shared-prefix length, a suffix length, and
    /// the suffix bytes per token.
    pub fn model_size(&self) -> usize {
        let mut total = 0usize;
        let mut prev: &[u8] = &[];
        for t in self.tokens() {
            let common = prev.iter().zip(t.iter()).take_while(|(a, b)| a == b).count();
            total += 2 + (t.len() - common);
            prev = t;
        }
        total
    }

    /// Compress a value; `None` if it contains a byte absent from the model.
    pub fn compress(&self, value: &[u8]) -> Option<Vec<u8>> {
        let mut out = Vec::with_capacity(value.len() / 2 + 1);
        self.compress_into(value, &mut out).then_some(out)
    }

    /// [`Alm::compress`], appending the codes to `out`; `false` (with
    /// `out` holding a partial encoding) if a byte is absent from the model.
    fn compress_into(&self, value: &[u8], out: &mut Vec<u8>) -> bool {
        let mut i = 0usize;
        while i < value.len() {
            let rest = &value[i..];
            let Some((tok, len)) = self.trie.longest_prefix(rest) else {
                return false;
            };
            // Interval within the token: count children ordering below the
            // remaining input. The remaining input starts with `tok` but with
            // no child token as prefix, so plain comparison is unambiguous.
            let t = tok as usize;
            let (first, end) = (self.kid_start[t] as usize, self.kid_start[t + 1] as usize);
            let gap = self.kids[first..end].partition_point(|&c| self.token(c) < rest);
            let code = self.gaps[first + t + gap];
            match self.width {
                1 => out.push(code as u8),
                _ => out.extend_from_slice(&(code as u16).to_be_bytes()),
            }
            i += len;
        }
        true
    }

    /// Decompress a value produced by [`Alm::compress`].
    ///
    /// Fails (never panics) when a code falls outside the interval table or
    /// a 2-byte-width payload has odd length — both impossible for
    /// `compress` output and therefore symptoms of corruption.
    pub fn decompress(&self, data: &[u8]) -> Result<Vec<u8>, CodecError> {
        let mut out = Vec::new();
        self.decompress_into(data, &mut out)?;
        Ok(out)
    }

    /// [`Alm::decompress`], appending the value to `out`, so a caller
    /// decoding many values can reuse one buffer. On error `out` is left
    /// as it was.
    pub(crate) fn decompress_into(&self, data: &[u8], out: &mut Vec<u8>) -> Result<(), CodecError> {
        match self.width {
            1 => self.decode(data.iter().map(|&b| usize::from(b)), out),
            _ => {
                if !data.len().is_multiple_of(2) {
                    return Err(corrupt("alm", "odd payload length for 2-byte codes"));
                }
                let codes =
                    data.chunks_exact(2).map(|p| usize::from(u16::from_be_bytes([p[0], p[1]])));
                self.decode(codes, out)
            }
        }
    }

    /// The decode kernel: append the token of every code to `out`.
    ///
    /// `out` first grows by [`CHUNK`] bytes per code, an upper bound while
    /// every token fits the chunk; each code then copies a whole chunk from
    /// its token's arena offset and advances by the token's length, and the
    /// bytes past the last token are cut off at the end. Before each code,
    /// `out` holds at least a chunk per code still to come; a longer token
    /// grows it to keep that so.
    #[inline]
    fn decode(
        &self,
        codes: impl ExactSizeIterator<Item = usize>,
        out: &mut Vec<u8>,
    ) -> Result<(), CodecError> {
        let start = out.len();
        let mut left = codes.len();
        out.resize(start + left * CHUNK, 0);
        let mut pos = start;
        for code in codes {
            left -= 1;
            let Some(&entry) = self.decode.get(code) else {
                out.truncate(start);
                return Err(corrupt("alm", format!("code {code} beyond interval table")));
            };
            let off = (entry >> LEN_BITS) as usize;
            let len = (entry & LONG) as usize;
            if len <= CHUNK {
                out[pos..pos + CHUNK].copy_from_slice(&self.arena[off..off + CHUNK]);
                pos += len;
            } else {
                let len = if len < LONG as usize { len } else { self.long_token_len(off) };
                let need = pos + len + left * CHUNK;
                if out.len() < need {
                    out.resize(need, 0);
                }
                out[pos..pos + len].copy_from_slice(&self.arena[off..off + len]);
                pos += len;
            }
        }
        out.truncate(pos);
        Ok(())
    }

    /// The length of the token at arena offset `off`, for a token too long
    /// for its decode-table entry's length field.
    #[cold]
    fn long_token_len(&self, off: usize) -> usize {
        let t = self.starts.partition_point(|&s| s as usize <= off) - 1;
        (self.starts[t + 1] - self.starts[t]) as usize
    }
}

/// Number of intervals [`Alm::from_tokens`] builds from `tokens` (distinct
/// and non-empty): each token owns one interval more than it has immediate
/// extensions, and every token but a root is one token's extension, so the
/// count is 2 * tokens - roots. Roots are the tokens with no proper prefix
/// among the others, found with the same stack walk over the sorted list.
fn interval_count_of(mut tokens: Vec<&[u8]>) -> usize {
    tokens.sort_unstable();
    let mut roots = 0usize;
    let mut stack: Vec<&[u8]> = Vec::new();
    for &t in &tokens {
        while stack.last().is_some_and(|top| !t.starts_with(top)) {
            stack.pop();
        }
        roots += usize::from(stack.is_empty());
        stack.push(t);
    }
    2 * tokens.len() - roots
}

/// Substring counts of the sampled corpus, with no allocation per
/// occurrence: 2-grams in a flat table indexed by their two bytes, 3-grams
/// in a map keyed by their three bytes, longer substrings in a map of
/// slices borrowed from the corpus. Strings shorter than two bytes are
/// never candidates and are not counted.
struct Mined<'a> {
    pairs: Box<[u32]>,
    triples: HashMap<u32, u32>,
    longer: HashMap<&'a [u8], u32>,
}

impl<'a> Mined<'a> {
    fn new() -> Self {
        Mined {
            pairs: vec![0; 1 << 16].into_boxed_slice(),
            triples: HashMap::new(),
            longer: HashMap::new(),
        }
    }

    fn count(&mut self, s: &'a [u8]) {
        match *s {
            [] | [_] => {}
            [a, b] => self.pairs[usize::from(a) << 8 | usize::from(b)] += 1,
            [a, b, c] => *self.triples.entry(u32::from_be_bytes([0, a, b, c])).or_insert(0) += 1,
            _ => *self.longer.entry(s).or_insert(0) += 1,
        }
    }

    /// Count candidate substrings of a value: word-aligned tokens (with
    /// leading separator attached, which is where prose redundancy lives),
    /// adjacent word *pairs* (high-value dictionary entries under Zipfian
    /// text), and low-order n-grams (covering digits and punctuation runs).
    fn mine(&mut self, value: &'a [u8]) {
        // Words with their leading separator, e.g. " the", plus word bigrams
        // like " of the".
        let mut prev_word: Option<usize> = None;
        let mut start = 0usize;
        for i in 0..=value.len() {
            if i < value.len() && value[i].is_ascii_alphanumeric() {
                continue;
            }
            if i > start {
                let from = start.saturating_sub(1);
                if i - from <= 24 {
                    self.count(&value[from..i]);
                }
                // Bigram: previous word through the end of this one.
                if let Some(prev) = prev_word.filter(|&prev| i - prev <= 28) {
                    self.count(&value[prev..i]);
                }
                prev_word = Some(from);
            }
            start = i + 1;
        }
        // 2-grams and 3-grams everywhere.
        for w in value.windows(2) {
            self.count(w);
        }
        for w in value.windows(3) {
            self.count(w);
        }
    }
}

/// Longest-prefix matcher over a sorted token list: a trie in flat arrays.
/// The root's children sit in a direct 256-entry table; every other
/// node's children are one contiguous range of edges sorted by byte, so a
/// step is a table load or a binary search over a few bytes.
#[derive(Debug, Clone)]
struct Trie {
    /// Child of the root for each byte, [`NO_NODE`] when absent.
    root: Box<[u32]>,
    /// Node `v`'s edges are `edge_start[v]..edge_start[v + 1]`.
    edge_start: Vec<u32>,
    edge_byte: Vec<u8>,
    edge_node: Vec<u32>,
    /// Token each node spells, [`NO_NODE`] when none.
    token: Vec<u32>,
}

/// An absent child or token in a [`Trie`].
const NO_NODE: u32 = u32::MAX;

impl Trie {
    /// Build over `tokens`, sorted and distinct. Nodes are numbered in
    /// preorder, the root 0: a sorted token shares its longest common
    /// prefix with the token before it, so it only adds nodes past that
    /// prefix, and every node's children appear in byte order.
    fn new<T: AsRef<[u8]>>(tokens: &[T]) -> Self {
        let mut parent_byte: Vec<(u32, u8)> = vec![(NO_NODE, 0)];
        let mut token = vec![NO_NODE];
        // path[d]: the node spelling the previous token's first d bytes.
        let mut path: Vec<u32> = vec![0];
        let mut prev: &[u8] = &[];
        for (i, tok) in tokens.iter().map(AsRef::as_ref).enumerate() {
            let common = prev.iter().zip(tok).take_while(|(a, b)| a == b).count();
            path.truncate(common + 1);
            for &b in &tok[common..] {
                let node = parent_byte.len() as u32;
                parent_byte.push((path[path.len() - 1], b));
                token.push(NO_NODE);
                path.push(node);
            }
            token[path[path.len() - 1] as usize] = i as u32;
            prev = tok;
        }
        let nodes = parent_byte.len();
        let mut edge_start = vec![0u32; nodes + 1];
        for &(p, _) in &parent_byte[1..] {
            edge_start[p as usize + 1] += 1;
        }
        for v in 0..nodes {
            edge_start[v + 1] += edge_start[v];
        }
        let mut fill = edge_start.clone();
        let mut root = vec![NO_NODE; 256].into_boxed_slice();
        let mut edge_byte = vec![0u8; nodes - 1];
        let mut edge_node = vec![0u32; nodes - 1];
        for (v, &(p, b)) in parent_byte.iter().enumerate().skip(1) {
            if p == 0 {
                root[usize::from(b)] = v as u32;
            }
            let e = fill[p as usize] as usize;
            fill[p as usize] += 1;
            edge_byte[e] = b;
            edge_node[e] = v as u32;
        }
        Trie { root, edge_start, edge_byte, edge_node, token }
    }

    /// The longest token that prefixes `input`, as (token, length).
    fn longest_prefix(&self, input: &[u8]) -> Option<(u32, usize)> {
        let mut best = None;
        let mut node = self.root[usize::from(*input.first()?)];
        let mut depth = 1;
        while node != NO_NODE {
            let tok = self.token[node as usize];
            if tok != NO_NODE {
                best = Some((tok, depth));
            }
            let Some(&b) = input.get(depth) else { break };
            let edges = self.edge_start[node as usize] as usize
                ..self.edge_start[node as usize + 1] as usize;
            node = match self.edge_byte[edges.clone()].binary_search(&b) {
                Ok(k) => self.edge_node[edges.start + k],
                Err(_) => NO_NODE,
            };
            depth += 1;
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fig2_model() -> Alm {
        // Tokens inspired by the paper's Fig. 2 plus the singles needed.
        let toks: Vec<Vec<u8>> = ["the", "there", "ir", "se", "t", "h", "e", "i", "r", "s"]
            .iter()
            .map(|s| s.as_bytes().to_vec())
            .collect();
        Alm::from_tokens(&toks)
    }

    #[test]
    fn fig2_example_order() {
        let alm = fig2_model();
        let their = alm.compress(b"their").unwrap();
        let there = alm.compress(b"there").unwrap();
        let these = alm.compress(b"these").unwrap();
        assert!(their < there, "{their:?} vs {there:?}");
        assert!(there < these, "{there:?} vs {these:?}");
        assert_eq!(alm.decompress(&their).unwrap(), b"their");
        assert_eq!(alm.decompress(&there).unwrap(), b"there");
        assert_eq!(alm.decompress(&these).unwrap(), b"these");
    }

    #[test]
    fn fig2_multi_interval_token() {
        let alm = fig2_model();
        // "the" must own more than one interval (split around "there").
        let the = alm.tokens().position(|t| t == b"the").unwrap();
        assert_eq!(alm.kid_start[the + 1] - alm.kid_start[the] + 1, 2);
    }

    #[test]
    fn roundtrip_trained() {
        let corpus: Vec<&[u8]> = vec![
            b"the quick brown fox",
            b"the quick red fox",
            b"their lazy dog sleeps",
            b"there goes the neighborhood",
        ];
        let alm = Alm::train(corpus.clone());
        for v in corpus {
            let c = alm.compress(v).unwrap();
            assert_eq!(alm.decompress(&c).unwrap(), v);
        }
    }

    #[test]
    fn unknown_byte_rejected() {
        let alm = Alm::train([&b"abc"[..]]);
        assert!(alm.compress(b"abz").is_none());
        assert!(alm.compress(b"abc").is_some());
    }

    #[test]
    fn empty_string() {
        let alm = Alm::train([&b"ab"[..]]);
        let c = alm.compress(b"").unwrap();
        assert!(c.is_empty());
        assert_eq!(alm.decompress(&c).unwrap(), b"");
    }

    #[test]
    fn order_preserved_exhaustively() {
        // All strings of length <= 3 over a tiny alphabet, with a dictionary
        // engineered to have nested tokens.
        let toks: Vec<Vec<u8>> =
            ["a", "b", "c", "ab", "abc", "ba", "bc", "ca"].iter().map(|s| s.as_bytes().to_vec()).collect();
        let alm = Alm::from_tokens(&toks);
        let alphabet = [b'a', b'b', b'c'];
        let mut strings: Vec<Vec<u8>> = vec![vec![]];
        for _ in 0..3 {
            let mut next = strings.clone();
            for s in &strings {
                for &c in &alphabet {
                    let mut t = s.clone();
                    t.push(c);
                    next.push(t);
                }
            }
            strings = next;
        }
        strings.sort();
        strings.dedup();
        let comp: Vec<Vec<u8>> = strings.iter().map(|s| alm.compress(s).unwrap()).collect();
        for i in 1..strings.len() {
            assert!(
                comp[i - 1] < comp[i],
                "order violated: {:?} -> {:?}, {:?} -> {:?}",
                strings[i - 1],
                comp[i - 1],
                strings[i],
                comp[i]
            );
        }
        // Round-trips too.
        for (s, c) in strings.iter().zip(&comp) {
            assert_eq!(&alm.decompress(c).unwrap(), s);
        }
    }

    #[test]
    fn compresses_prose() {
        let text: Vec<String> = (0..200)
            .map(|i| format!("the quick brown fox number {} jumps over the lazy dog", i % 10))
            .collect();
        let alm = Alm::train(text.iter().map(|s| s.as_bytes()));
        let total_in: usize = text.iter().map(|s| s.len()).sum();
        let total_out: usize =
            text.iter().map(|s| alm.compress(s.as_bytes()).unwrap().len()).sum();
        assert!(
            total_out * 2 < total_in,
            "ALM should compress prose >2x: {total_out} vs {total_in}"
        );
    }

    /// Random distinct token sets over a small alphabet, so that tokens
    /// nest often: 1-5 bytes, with and without every single byte present.
    fn random_token_sets() -> Vec<Vec<Vec<u8>>> {
        let mut x = 0x243F_6A88_85A3_08D3u64;
        let mut next = move |m: u64| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x % m
        };
        (0..24)
            .map(|round| {
                let mut toks: Vec<Vec<u8>> = if round % 2 == 0 {
                    (b'a'..=b'e').map(|b| vec![b]).collect()
                } else {
                    Vec::new()
                };
                for _ in 0..next(200) + 1 {
                    let len = next(5) as usize + 1;
                    toks.push((0..len).map(|_| b'a' + next(5) as u8).collect());
                }
                toks.sort();
                toks.dedup();
                toks
            })
            .collect()
    }

    #[test]
    fn interval_count_needs_no_model() {
        for toks in random_token_sets() {
            let refs: Vec<&[u8]> = toks.iter().rev().map(Vec::as_slice).collect();
            assert_eq!(interval_count_of(refs), Alm::from_tokens(&toks).interval_count());
        }
    }

    #[test]
    fn trie_finds_the_longest_token_prefix() {
        for toks in random_token_sets() {
            let trie = Trie::new(&toks);
            for len in 0..=5 {
                for k in 0..6u32.pow(len as u32) {
                    // Every string over {a..e, z} of this length.
                    let input: Vec<u8> = (0..len)
                        .map(|d| b"abcdez"[(k / 6u32.pow(d as u32) % 6) as usize])
                        .collect();
                    let naive = toks
                        .iter()
                        .enumerate()
                        .filter(|(_, t)| input.starts_with(t))
                        .max_by_key(|(_, t)| t.len())
                        .map(|(i, t)| (i as u32, t.len()));
                    assert_eq!(trie.longest_prefix(&input), naive, "{input:?} over {toks:?}");
                }
            }
        }
    }

    /// Each code's token, read off the interval structure rather than the
    /// decode table.
    fn code_tokens(alm: &Alm) -> Vec<Vec<u8>> {
        let mut by_code = vec![Vec::new(); alm.interval_count()];
        for t in 0..alm.starts.len() - 1 {
            let (first, end) = (alm.kid_start[t] as usize, alm.kid_start[t + 1] as usize);
            for &code in &alm.gaps[first + t..=end + t] {
                by_code[code as usize] = alm.token(t as u32).to_vec();
            }
        }
        by_code
    }

    /// Token sets the decode kernel must handle: the random sets, each also
    /// with tokens longer than its 16-byte chunk (one too long for the
    /// length field), and a set large enough for 2-byte codes.
    fn decode_token_sets() -> Vec<Vec<Vec<u8>>> {
        let mut sets = random_token_sets();
        for toks in sets.clone() {
            let mut toks = toks;
            for len in [17, 31, 255, 300] {
                toks.push((0..len).map(|i| b'a' + (i % 5) as u8).collect());
            }
            sets.push(toks);
        }
        let mut wide: Vec<Vec<u8>> = (0u16..=255).map(|b| vec![b as u8]).collect();
        for a in b'a'..=b'z' {
            for b in b'a'..=b'l' {
                wide.push(vec![a, b]);
                wide.push(vec![b' ', a, b, b'e', b's', b't', b'i', b'm', b'a', b't', b'e', b'd']);
            }
        }
        sets.push(wide);
        sets
    }

    #[test]
    fn decoder_equals_the_concatenated_tokens() {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move |m: usize| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x % m as u64) as usize
        };
        let mut widths = [0usize; 3];
        for toks in decode_token_sets() {
            let alm = Alm::from_tokens(&toks);
            widths[usize::from(alm.code_width())] += 1;
            let by_code = code_tokens(&alm);
            let mut out = b"kept".to_vec();
            for round in 0..50 {
                let codes: Vec<usize> =
                    (0..next(40) + usize::from(round == 0)).map(|_| next(by_code.len())).collect();
                let data: Vec<u8> = match alm.code_width() {
                    1 => codes.iter().map(|&c| c as u8).collect(),
                    _ => codes.iter().flat_map(|&c| (c as u16).to_be_bytes()).collect(),
                };
                let want: Vec<u8> =
                    codes.iter().flat_map(|&c| by_code[c].iter().copied()).collect();
                assert_eq!(alm.decompress(&data).unwrap(), want, "{codes:?} over {toks:?}");
                // Appending into a reused buffer keeps what it held.
                out.truncate(4);
                alm.decompress_into(&data, &mut out).unwrap();
                assert_eq!(&out[..4], b"kept");
                assert_eq!(out[4..], want);
            }
        }
        assert!(widths[1] > 0 && widths[2] > 0, "both code widths covered: {widths:?}");
    }

    #[test]
    fn corrupt_codes_are_errors_and_leave_the_buffer_alone() {
        for toks in decode_token_sets() {
            let alm = Alm::from_tokens(&toks);
            let beyond = alm.interval_count();
            let mut out = b"kept".to_vec();
            let bad: Vec<u8> = match alm.code_width() {
                1 if beyond > 255 => continue,
                1 => vec![0, beyond as u8],
                _ => {
                    // An odd payload, then a code past the table.
                    assert!(alm.decompress_into(&[0, 0, 0], &mut out).is_err());
                    assert_eq!(out, b"kept");
                    if beyond > 0xFFFF {
                        continue;
                    }
                    [0u16, beyond as u16].iter().flat_map(|c| c.to_be_bytes()).collect()
                }
            };
            assert!(alm.decompress(&bad).is_err(), "{bad:?} over {toks:?}");
            assert!(alm.decompress_into(&bad, &mut out).is_err());
            assert_eq!(out, b"kept");
        }
    }

    #[test]
    fn long_tokens_round_trip() {
        let long: Vec<u8> = (0..300).map(|i| b'a' + (i % 7) as u8).collect();
        let mut toks: Vec<Vec<u8>> = (b'a'..=b'g').map(|b| vec![b]).collect();
        toks.push(long[..17].to_vec());
        toks.push(long.clone());
        let alm = Alm::from_tokens(&toks);
        for value in [&long[..], &long[..17], &long[..40], b"gab"] {
            let mut v = value.to_vec();
            v.extend_from_slice(&long);
            let c = alm.compress(&v).unwrap();
            assert_eq!(alm.decompress(&c).unwrap(), v);
        }
    }

    #[test]
    fn two_byte_width_when_dictionary_large() {
        // 300+ distinct tokens force 2-byte codes.
        let mut toks: Vec<Vec<u8>> = (0u16..=255).map(|b| vec![b as u8]).collect();
        for a in b'a'..=b'z' {
            for b in b'a'..=b'e' {
                toks.push(vec![a, b]);
            }
        }
        let alm = Alm::from_tokens(&toks);
        assert_eq!(alm.code_width(), 2);
        let c = alm.compress(b"hello world").unwrap();
        assert_eq!(alm.decompress(&c).unwrap(), b"hello world");
        // Order still holds across the width.
        let x = alm.compress(b"aa").unwrap();
        let y = alm.compress(b"ab").unwrap();
        let z = alm.compress(b"b").unwrap();
        assert!(x < y && y < z);
    }
}
