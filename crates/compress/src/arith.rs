//! Static order-0 arithmetic coding (Witten, Neal & Cleary, CACM 1987) —
//! the third candidate §2.1 weighs for string compression ("we had initially
//! three choices ...: the Arithmetic \[16\], Hu-Tucker \[17\] and ALM \[12\]
//! algorithms").
//!
//! Arithmetic coding reaches the entropy bound more tightly than Huffman
//! (fractional bits per symbol) but is order-agnostic and decodes a bit at a
//! time; the paper passes on it for those reasons, and the A1 codec ablation
//! lets the trade-off be measured. The implementation is the classic 32-bit
//! integer coder with underflow handling and an explicit end-of-stream
//! symbol, which makes each value's encoding self-terminating, deterministic
//! and injective — equality predicates work on the compressed bytes.

use crate::bitio::{BitReader, BitWriter};
use crate::error::{corrupt, CodecError, MAX_DECODE_OUTPUT};

const SYMBOLS: usize = 257; // 256 bytes + EOS
const EOS: usize = 256;

const TOP: u64 = 0xFFFF_FFFF;
const HALF: u64 = 0x8000_0000;
const QUARTER: u64 = 0x4000_0000;
const THREE_QUARTERS: u64 = 0xC000_0000;
/// Maximum total frequency so `range * cum` fits comfortably in u64.
const MAX_TOTAL: u64 = 1 << 24;

/// A trained static arithmetic-coding model.
#[derive(Debug, Clone)]
pub struct Arith {
    /// Cumulative frequencies: `cum[s]..cum[s+1]` is symbol `s`'s interval.
    cum: Vec<u64>,
}

impl Arith {
    /// Train on a corpus (add-one smoothing keeps every byte encodable).
    pub fn train<'a, I: IntoIterator<Item = &'a [u8]>>(corpus: I) -> Self {
        let mut freq = [1u64; SYMBOLS];
        for v in corpus {
            for &b in v {
                freq[b as usize] += 1;
            }
            freq[EOS] += 1;
        }
        Self::from_frequencies(&freq)
    }

    /// Build from explicit symbol frequencies (all non-zero; index 256 is
    /// the end-of-stream symbol).
    pub fn from_frequencies(freq: &[u64; SYMBOLS]) -> Self {
        // Scale down so the total stays below MAX_TOTAL.
        let total: u64 = freq.iter().sum();
        let scale = (total / MAX_TOTAL) + 1;
        let mut cum = Vec::with_capacity(SYMBOLS + 1);
        let mut acc = 0u64;
        cum.push(0);
        for &f in freq {
            acc += (f / scale).max(1);
            cum.push(acc);
        }
        Arith { cum }
    }

    fn total(&self) -> u64 {
        *self.cum.last().expect("non-empty")
    }

    /// Per-symbol quantized frequencies (the serializable model).
    pub fn deltas(&self) -> Vec<u32> {
        self.cum.windows(2).map(|w| (w[1] - w[0]) as u32).collect()
    }

    /// Rebuild from serialized per-symbol frequencies.
    pub fn from_deltas(deltas: &[u32]) -> Option<Self> {
        if deltas.len() != SYMBOLS {
            return None;
        }
        let mut cum = Vec::with_capacity(SYMBOLS + 1);
        let mut acc = 0u64;
        cum.push(0);
        for &d in deltas {
            if d == 0 {
                return None;
            }
            acc += d as u64;
            cum.push(acc);
        }
        (acc <= MAX_TOTAL * 2).then_some(Arith { cum })
    }

    /// Serialized model size (u32 frequency per symbol).
    pub fn model_size(&self) -> usize {
        SYMBOLS * 4
    }

    /// Compress a value. The output is self-terminating (EOS symbol).
    pub fn compress(&self, value: &[u8]) -> Vec<u8> {
        let mut w = BitWriter::new();
        let mut low = 0u64;
        let mut high = TOP;
        let mut pending = 0usize;
        let total = self.total();
        let emit = |w: &mut BitWriter, bit: bool, pending: &mut usize| {
            w.push_bit(bit);
            for _ in 0..*pending {
                w.push_bit(!bit);
            }
            *pending = 0;
        };
        let encode_symbol = |w: &mut BitWriter, s: usize, low: &mut u64, high: &mut u64, pending: &mut usize| {
            let range = *high - *low + 1;
            *high = *low + range * self.cum[s + 1] / total - 1;
            *low += range * self.cum[s] / total;
            loop {
                if *high < HALF {
                    emit(w, false, pending);
                } else if *low >= HALF {
                    emit(w, true, pending);
                    *low -= HALF;
                    *high -= HALF;
                } else if *low >= QUARTER && *high < THREE_QUARTERS {
                    *pending += 1;
                    *low -= QUARTER;
                    *high -= QUARTER;
                } else {
                    break;
                }
                *low <<= 1;
                *high = (*high << 1) | 1;
            }
        };
        for &b in value {
            encode_symbol(&mut w, b as usize, &mut low, &mut high, &mut pending);
        }
        encode_symbol(&mut w, EOS, &mut low, &mut high, &mut pending);
        // Flush: one disambiguating bit plus pending underflow bits.
        pending += 1;
        if low < QUARTER {
            emit(&mut w, false, &mut pending);
        } else {
            emit(&mut w, true, &mut pending);
        }
        let (bytes, _bits) = w.finish();
        bytes
    }

    /// Decompress a value produced by [`Arith::compress`].
    ///
    /// A legitimate stream is self-terminating via EOS. A corrupt stream can
    /// instead keep yielding symbols; since every loop iteration either
    /// returns or pushes one output byte, capping the output length bounds
    /// the loop — no hang and no unbounded allocation.
    pub fn decompress(&self, data: &[u8]) -> Result<Vec<u8>, CodecError> {
        let mut out = Vec::new();
        self.decompress_into(data, &mut out)?;
        Ok(out)
    }

    /// [`Arith::decompress`], appending the value to `out`.
    pub(crate) fn decompress_into(&self, data: &[u8], out: &mut Vec<u8>) -> Result<(), CodecError> {
        let total = self.total();
        let mut r = BitReader::new(data, data.len() * 8);
        // Past the written bits the decoder sees an infinite tail of zeros,
        // exactly as the encoder assumed when it flushed.
        let mut next_bit = move || -> u64 { r.next_bit().map_or(0, u64::from) };
        let mut value = 0u64;
        for _ in 0..32 {
            value = (value << 1) | next_bit();
        }
        let mut low = 0u64;
        let mut high = TOP;
        let start = out.len();
        loop {
            if value < low || value > high {
                // The window invariant low <= value <= high holds for any
                // decode of a well-formed stream; a violation means the
                // bits are corrupt (and would otherwise underflow below).
                return Err(corrupt("arith", "decoder window invariant violated"));
            }
            let range = high - low + 1;
            let scaled = ((value - low + 1) * total - 1) / range;
            // Binary search the symbol whose interval holds `scaled`.
            let s = match self.cum.binary_search(&scaled) {
                Ok(i) => {
                    // `scaled` equals cum[i]: it belongs to symbol i.
                    i
                }
                Err(i) => i - 1,
            };
            if s >= SYMBOLS {
                return Err(corrupt("arith", "scaled value beyond symbol table"));
            }
            if s == EOS {
                return Ok(());
            }
            if out.len() - start >= MAX_DECODE_OUTPUT {
                return Err(corrupt("arith", "no end-of-stream within output bound"));
            }
            out.push(s as u8);
            high = low + range * self.cum[s + 1] / total - 1;
            low += range * self.cum[s] / total;
            loop {
                if high < HALF {
                    // nothing
                } else if low >= HALF {
                    value -= HALF;
                    low -= HALF;
                    high -= HALF;
                } else if low >= QUARTER && high < THREE_QUARTERS {
                    value -= QUARTER;
                    low -= QUARTER;
                    high -= QUARTER;
                } else {
                    break;
                }
                low <<= 1;
                high = (high << 1) | 1;
                value = (value << 1) | next_bit();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> Arith {
        let corpus: Vec<&[u8]> =
            vec![b"the quick brown fox jumps", b"the lazy dog sleeps", b"the end"];
        Arith::train(corpus)
    }

    #[test]
    fn roundtrip() {
        let a = model();
        for s in ["", "the", "the quick brown fox jumps over the lazy dog", "unseen! 123", "\u{00e9}"] {
            let c = a.compress(s.as_bytes());
            assert_eq!(a.decompress(&c).unwrap(), s.as_bytes(), "for {s:?}");
        }
    }

    #[test]
    fn deterministic_equality() {
        let a = model();
        assert_eq!(a.compress(b"same value"), a.compress(b"same value"));
        assert_ne!(a.compress(b"value a"), a.compress(b"value b"));
    }

    #[test]
    fn beats_or_matches_huffman_on_skewed_text() {
        let text: Vec<Vec<u8>> = (0..200)
            .map(|i| format!("aaaaaaaaabbbbbccc value {}", i % 5).into_bytes())
            .collect();
        let refs: Vec<&[u8]> = text.iter().map(|v| v.as_slice()).collect();
        let a = Arith::train(refs.clone());
        let h = crate::huffman::Huffman::train(refs);
        let total_a: usize = text.iter().map(|v| a.compress(v).len()).sum();
        let total_h: usize = text.iter().map(|v| h.compress(v).len()).sum();
        // Arithmetic coding reaches fractional bits/symbol; allow a small
        // per-value termination overhead.
        assert!(
            total_a as f64 <= total_h as f64 * 1.10,
            "arith {total_a} vs huffman {total_h}"
        );
    }

    #[test]
    fn roundtrip_random_bytes() {
        let mut x = 0x243F_6A88u32;
        let mut vals: Vec<Vec<u8>> = Vec::new();
        for len in [0usize, 1, 2, 7, 63, 400] {
            let v: Vec<u8> = (0..len)
                .map(|_| {
                    x ^= x << 13;
                    x ^= x >> 17;
                    x ^= x << 5;
                    (x & 0xff) as u8
                })
                .collect();
            vals.push(v);
        }
        let a = Arith::train(vals.iter().map(|v| v.as_slice()));
        for v in &vals {
            assert_eq!(a.decompress(&a.compress(v)).unwrap(), *v);
        }
    }
}
