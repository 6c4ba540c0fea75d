//! Unified per-value codec interface over the algorithm pool.
//!
//! §3.2 characterizes each algorithm `a` in the pool `A` by a tuple
//! `<d_c, c_s(F), c_a(F), eq, ineq, wild>`: decompression cost, storage cost,
//! source-model cost, and the three *algorithmic properties* saying which
//! predicates the algorithm supports in the compressed domain. [`CodecKind`]
//! carries the static part of that tuple; a trained [`ValueCodec`] provides
//! the operations plus measured sizes.

use crate::alm::Alm;
use crate::arith::Arith;
use crate::error::CodecError;
use crate::huffman::Huffman;
use crate::hutucker::HuTucker;
use crate::numeric::NumericCodec;
use std::cmp::Ordering;

/// The algorithm pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CodecKind {
    /// Identity coding (values stored verbatim).
    Raw,
    /// Classical Huffman (order-agnostic; §2.1).
    Huffman,
    /// ALM order-preserving dictionary compression (§2.1).
    Alm,
    /// Hu-Tucker order-preserving bit codes (ablation alternative to ALM).
    HuTucker,
    /// Static arithmetic coding (the third §2.1 candidate; order-agnostic).
    Arith,
    /// Order-preserving numeric encoding for numeric containers.
    Numeric,
    /// bzip2-family block compression — container-level only, no individual
    /// value access (assigned to containers outside the workload, §3.3).
    Blz,
}

/// The paper's algorithmic-property triple: which predicate classes the
/// algorithm evaluates in the compressed domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AlgoProperties {
    /// Equality predicates without prefix matching.
    pub eq: bool,
    /// Inequality (`<`, `<=`, `>`, `>=`) predicates.
    pub ineq: bool,
    /// Prefix-matching ("wildcard") equality predicates.
    pub wild: bool,
}

impl CodecKind {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            CodecKind::Raw => "raw",
            CodecKind::Huffman => "huffman",
            CodecKind::Alm => "alm",
            CodecKind::HuTucker => "hu-tucker",
            CodecKind::Arith => "arith",
            CodecKind::Numeric => "numeric",
            CodecKind::Blz => "blz",
        }
    }

    /// The `eq`/`ineq`/`wild` triple of §3.2. Matches the paper's table:
    /// Huffman `<eq=T, ineq=F, wild=T>`, ALM `<eq=T, ineq=T, wild=F>`.
    pub fn properties(self) -> AlgoProperties {
        match self {
            CodecKind::Raw => AlgoProperties { eq: true, ineq: true, wild: true },
            CodecKind::Huffman => AlgoProperties { eq: true, ineq: false, wild: true },
            CodecKind::Alm => AlgoProperties { eq: true, ineq: true, wild: false },
            CodecKind::HuTucker => AlgoProperties { eq: true, ineq: true, wild: true },
            CodecKind::Arith => AlgoProperties { eq: true, ineq: false, wild: false },
            CodecKind::Numeric => AlgoProperties { eq: true, ineq: true, wild: false },
            CodecKind::Blz => AlgoProperties { eq: false, ineq: false, wild: false },
        }
    }

    /// Relative per-byte decompression cost `d_c` (§3.2), calibrated from
    /// the `codec` criterion bench: dictionary decoding emits whole tokens
    /// per step, bit-tree decoding walks one bit at a time.
    pub fn decompression_cost(self) -> f64 {
        match self {
            CodecKind::Raw => 0.1,
            CodecKind::Numeric => 0.5,
            CodecKind::Alm => 1.0,
            CodecKind::Blz => 2.0,
            CodecKind::Huffman => 3.0,
            CodecKind::HuTucker => 3.0,
            CodecKind::Arith => 4.0,
        }
    }

    /// Number of algorithmic properties that hold (the greedy search of §3.3
    /// prefers algorithms "with the greatest number of algorithmic
    /// properties holding true").
    pub fn property_count(self) -> usize {
        let p = self.properties();
        usize::from(p.eq) + usize::from(p.ineq) + usize::from(p.wild)
    }
}

/// A trained codec instance for one container partition (one source model).
#[derive(Debug, Clone)]
pub enum ValueCodec {
    /// Identity.
    Raw,
    /// Trained Huffman model.
    Huffman(Huffman),
    /// Trained ALM dictionary.
    Alm(Alm),
    /// Trained Hu-Tucker code.
    HuTucker(HuTucker),
    /// Trained arithmetic-coding model.
    Arith(Arith),
    /// Detected numeric scale.
    Numeric(NumericCodec),
}

impl ValueCodec {
    /// Train a codec of the given kind on a corpus.
    ///
    /// `Numeric` falls back to `Raw` when the corpus is not uniformly
    /// numeric; `Blz` is a container-level codec and cannot be trained as a
    /// per-value codec (falls back to `Raw` as documented in §3.3 — such
    /// containers are stored block-compressed by the repository instead).
    pub fn train(kind: CodecKind, corpus: &[impl AsRef<[u8]>]) -> ValueCodec {
        match kind {
            CodecKind::Raw | CodecKind::Blz => ValueCodec::Raw,
            CodecKind::Huffman => {
                ValueCodec::Huffman(Huffman::train(corpus.iter().map(|v| v.as_ref())))
            }
            CodecKind::Alm => ValueCodec::Alm(Alm::train(corpus.iter().map(|v| v.as_ref()))),
            CodecKind::HuTucker => {
                ValueCodec::HuTucker(HuTucker::train(corpus.iter().map(|v| v.as_ref())))
            }
            CodecKind::Arith => ValueCodec::Arith(Arith::train(corpus.iter().map(|v| v.as_ref()))),
            CodecKind::Numeric => match NumericCodec::detect(corpus.iter().map(|v| v.as_ref())) {
                Some(c) => ValueCodec::Numeric(c),
                None => ValueCodec::Raw,
            },
        }
    }

    /// Which algorithm this is.
    pub fn kind(&self) -> CodecKind {
        match self {
            ValueCodec::Raw => CodecKind::Raw,
            ValueCodec::Huffman(_) => CodecKind::Huffman,
            ValueCodec::Alm(_) => CodecKind::Alm,
            ValueCodec::HuTucker(_) => CodecKind::HuTucker,
            ValueCodec::Arith(_) => CodecKind::Arith,
            ValueCodec::Numeric(_) => CodecKind::Numeric,
        }
    }

    /// Algorithmic properties of this instance.
    pub fn properties(&self) -> AlgoProperties {
        self.kind().properties()
    }

    /// Whether byte comparison of compressed values reproduces source order.
    pub fn order_preserving(&self) -> bool {
        self.kind().properties().ineq
    }

    /// Compress one value. `None` when the value cannot be represented under
    /// this source model (e.g. a query constant with bytes unseen by ALM, or
    /// a non-numeric string under a numeric codec).
    pub fn compress(&self, value: &[u8]) -> Option<Vec<u8>> {
        match self {
            ValueCodec::Raw => Some(value.to_vec()),
            ValueCodec::Huffman(h) => Some(h.compress(value)),
            ValueCodec::Alm(a) => a.compress(value),
            ValueCodec::HuTucker(h) => Some(h.compress(value)),
            ValueCodec::Arith(a) => Some(a.compress(value)),
            ValueCodec::Numeric(n) => n.compress(value),
        }
    }

    /// Decompress one value. Fails with a typed [`CodecError`] (never
    /// panics) when the stream is malformed or truncated.
    pub fn decompress(&self, data: &[u8]) -> Result<Vec<u8>, CodecError> {
        let mut out = Vec::new();
        self.decompress_into(data, &mut out)?;
        Ok(out)
    }

    /// [`ValueCodec::decompress`], appending the value to `out`, so a
    /// caller decoding many values can reuse one buffer.
    pub fn decompress_into(&self, data: &[u8], out: &mut Vec<u8>) -> Result<(), CodecError> {
        match self {
            ValueCodec::Raw => {
                out.extend_from_slice(data);
                Ok(())
            }
            ValueCodec::Huffman(h) => h.decompress_into(data, out),
            ValueCodec::Alm(a) => a.decompress_into(data, out),
            ValueCodec::HuTucker(h) => h.decompress_into(data, out),
            ValueCodec::Arith(a) => a.decompress_into(data, out),
            ValueCodec::Numeric(n) => n.decompress_into(data, out),
        }
    }

    /// Equality test in the compressed domain. Valid for every deterministic
    /// codec in the pool (all of them).
    pub fn eq_compressed(&self, a: &[u8], b: &[u8]) -> bool {
        a == b
    }

    /// Ordering in the compressed domain; `Ok(None)` when this codec does
    /// not support inequality predicates compressed (then the caller must
    /// decompress — exactly the cost the §3.2 matrices charge), `Err` when
    /// an operand is corrupt (Hu-Tucker streams carry a length header that
    /// must be validated before the bitwise comparison).
    pub fn cmp_compressed(&self, a: &[u8], b: &[u8]) -> Result<Option<Ordering>, CodecError> {
        match self {
            ValueCodec::Raw => Ok(Some(a.cmp(b))),
            ValueCodec::Alm(_) => Ok(Some(a.cmp(b))),
            ValueCodec::Numeric(_) => Ok(Some(NumericCodec::cmp_compressed(a, b))),
            ValueCodec::HuTucker(h) => h.cmp_compressed(a, b).map(Some),
            ValueCodec::Huffman(_) | ValueCodec::Arith(_) => Ok(None),
        }
    }

    /// Prefix match in the compressed domain; `None` when unsupported.
    pub fn prefix_match(&self, data: &[u8], prefix: &[u8]) -> Option<bool> {
        match self {
            ValueCodec::Raw => Some(data.starts_with(prefix)),
            ValueCodec::Huffman(h) => Some(h.prefix_match(data, prefix)),
            ValueCodec::Alm(_) | ValueCodec::Numeric(_) | ValueCodec::Arith(_) => None,
            ValueCodec::HuTucker(_) => None, // bit-level prefix ≠ byte prefix across header
        }
    }

    /// Size of the serialized source model in bytes (`c_a` input).
    pub fn model_size(&self) -> usize {
        match self {
            ValueCodec::Raw => 0,
            ValueCodec::Huffman(h) => h.model_size(),
            ValueCodec::Alm(a) => a.model_size(),
            ValueCodec::HuTucker(h) => h.model_size(),
            ValueCodec::Arith(a) => a.model_size(),
            ValueCodec::Numeric(n) => n.model_size(),
        }
    }

    /// Measured compression ratio (compressed/original) over a sample —
    /// the empirical `c_s` the cost model consumes.
    pub fn estimate_ratio(&self, sample: &[impl AsRef<[u8]>]) -> f64 {
        let mut orig = 0usize;
        let mut comp = 0usize;
        for v in sample {
            let v = v.as_ref();
            orig += v.len();
            comp += self.compress(v).map_or(v.len(), |c| c.len());
        }
        if orig == 0 {
            1.0
        } else {
            comp as f64 / orig as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn corpus() -> Vec<Vec<u8>> {
        (0..50)
            .map(|i| format!("the value number {} of the corpus", i % 7).into_bytes())
            .collect()
    }

    #[test]
    fn properties_match_paper_table() {
        let h = CodecKind::Huffman.properties();
        assert!(h.eq && !h.ineq && h.wild);
        let a = CodecKind::Alm.properties();
        assert!(a.eq && a.ineq && !a.wild);
    }

    #[test]
    fn all_kinds_roundtrip() {
        let c = corpus();
        for kind in [CodecKind::Raw, CodecKind::Huffman, CodecKind::Alm, CodecKind::HuTucker] {
            let codec = ValueCodec::train(kind, &c);
            assert_eq!(codec.kind(), kind);
            for v in &c {
                let comp = codec.compress(v).expect("corpus value must encode");
                assert_eq!(codec.decompress(&comp).unwrap(), *v, "{}", kind.name());
            }
        }
    }

    #[test]
    fn numeric_fallback_to_raw() {
        let codec = ValueCodec::train(CodecKind::Numeric, &corpus());
        assert_eq!(codec.kind(), CodecKind::Raw);
        let nums: Vec<Vec<u8>> = vec![b"1".to_vec(), b"22".to_vec(), b"-3".to_vec()];
        let codec = ValueCodec::train(CodecKind::Numeric, &nums);
        assert_eq!(codec.kind(), CodecKind::Numeric);
    }

    #[test]
    fn cmp_support_matches_properties() {
        let c = corpus();
        for kind in [CodecKind::Raw, CodecKind::Huffman, CodecKind::Alm, CodecKind::HuTucker] {
            let codec = ValueCodec::train(kind, &c);
            let a = codec.compress(b"the value number 1 of the corpus").unwrap();
            let b = codec.compress(b"the value number 2 of the corpus").unwrap();
            match codec.cmp_compressed(&a, &b).unwrap() {
                Some(ord) => {
                    assert!(kind.properties().ineq);
                    assert_eq!(ord, Ordering::Less, "{}", kind.name());
                }
                None => assert!(!kind.properties().ineq, "{}", kind.name()),
            }
        }
    }

    #[test]
    fn estimate_ratio_sane() {
        let c = corpus();
        let alm = ValueCodec::train(CodecKind::Alm, &c);
        let r = alm.estimate_ratio(&c);
        assert!(r > 0.0 && r < 0.8, "alm ratio {r}");
        let raw = ValueCodec::train(CodecKind::Raw, &c);
        assert!((raw.estimate_ratio(&c) - 1.0).abs() < 1e-9);
    }
}

// ---- serialization ---------------------------------------------------------

impl ValueCodec {
    /// Serialize the source model (tag byte + model payload).
    pub fn serialize(&self) -> Vec<u8> {
        use crate::bitio::write_varint;
        let mut out = Vec::new();
        match self {
            ValueCodec::Raw => out.push(0),
            ValueCodec::Huffman(h) => {
                out.push(1);
                out.extend_from_slice(&h.lengths());
            }
            ValueCodec::Alm(a) => {
                out.push(2);
                write_varint(&mut out, a.tokens().len());
                for t in a.tokens() {
                    write_varint(&mut out, t.len());
                    out.extend_from_slice(t);
                }
            }
            ValueCodec::HuTucker(h) => {
                out.push(3);
                out.extend_from_slice(&h.lengths());
            }
            ValueCodec::Numeric(n) => {
                out.push(4);
                out.push(n.scale);
            }
            ValueCodec::Arith(a) => {
                out.push(5);
                for d in a.deltas() {
                    out.extend_from_slice(&d.to_le_bytes());
                }
            }
        }
        out
    }

    /// Reconstruct a codec serialized by [`ValueCodec::serialize`].
    ///
    /// The blob is untrusted (it was read from disk): every length field is
    /// bounds-checked against the bytes actually present, and the model
    /// parameters themselves are validated (`from_lengths_checked`,
    /// `try_from_tokens`, `from_deltas`, numeric scale range) so a corrupt
    /// model can neither panic during reconstruction nor later during use.
    pub fn deserialize(data: &[u8]) -> Option<ValueCodec> {
        use crate::bitio::read_varint;
        match *data.first()? {
            0 => Some(ValueCodec::Raw),
            1 => {
                let mut lengths = [0u8; 256];
                lengths.copy_from_slice(data.get(1..257)?);
                Some(ValueCodec::Huffman(Huffman::from_lengths_checked(&lengths).ok()?))
            }
            2 => {
                let mut pos = 1usize;
                let (n, used) = read_varint(data.get(pos..)?)?;
                pos += used;
                // Each token needs at least one length byte, so more tokens
                // than remaining bytes is corrupt — checked before the
                // allocation so a hostile count cannot OOM.
                if n > data.len() - pos {
                    return None;
                }
                let mut tokens = Vec::with_capacity(n);
                for _ in 0..n {
                    let (len, used) = read_varint(data.get(pos..)?)?;
                    pos += used;
                    tokens.push(data.get(pos..pos + len)?);
                    pos += len;
                }
                Some(ValueCodec::Alm(Alm::try_from_tokens(&tokens).ok()?))
            }
            3 => {
                let mut lengths = [0u8; 256];
                lengths.copy_from_slice(data.get(1..257)?);
                Some(ValueCodec::HuTucker(HuTucker::from_lengths_checked(&lengths).ok()?))
            }
            4 => {
                let scale = *data.get(1)?;
                if scale > crate::numeric::MAX_SCALE {
                    return None;
                }
                Some(ValueCodec::Numeric(NumericCodec { scale }))
            }
            5 => {
                let body = data.get(1..)?;
                if body.len() % 4 != 0 {
                    return None;
                }
                let deltas: Vec<u32> = body
                    .chunks_exact(4)
                    .map(|c| u32::from_le_bytes(c.try_into().expect("chunk of 4")))
                    .collect();
                Some(ValueCodec::Arith(Arith::from_deltas(&deltas)?))
            }
            _ => None,
        }
    }
}

#[cfg(test)]
mod serde_tests {
    use super::*;

    #[test]
    fn codec_roundtrip_through_serialization() {
        let corpus: Vec<Vec<u8>> =
            (0..40).map(|i| format!("value number {} of corpus", i % 7).into_bytes()).collect();
        for kind in [CodecKind::Raw, CodecKind::Huffman, CodecKind::Alm, CodecKind::HuTucker] {
            let codec = ValueCodec::train(kind, &corpus);
            let blob = codec.serialize();
            let back = ValueCodec::deserialize(&blob).expect("deserializes");
            assert_eq!(back.kind(), codec.kind());
            for v in &corpus {
                let c = codec.compress(v).unwrap();
                // Identical compressed form and round-trip under the revived model.
                assert_eq!(back.compress(v).unwrap(), c, "{}", kind.name());
                assert_eq!(back.decompress(&c).unwrap(), *v);
            }
        }
        let nums: Vec<Vec<u8>> = vec![b"1.50".to_vec(), b"22.00".to_vec()];
        let codec = ValueCodec::train(CodecKind::Numeric, &nums);
        let back = ValueCodec::deserialize(&codec.serialize()).unwrap();
        assert_eq!(back.compress(b"3.25"), codec.compress(b"3.25"));
    }

    #[test]
    fn deserialize_survives_mutation() {
        // Bit-flipped / truncated model blobs must deserialize to None or a
        // usable codec — never panic (during reconstruction or later use).
        let corpus: Vec<Vec<u8>> =
            (0..40).map(|i| format!("value number {} of corpus", i % 7).into_bytes()).collect();
        for kind in
            [CodecKind::Raw, CodecKind::Huffman, CodecKind::Alm, CodecKind::HuTucker, CodecKind::Arith]
        {
            let blob = ValueCodec::train(kind, &corpus).serialize();
            for cut in 0..blob.len() {
                let _ = ValueCodec::deserialize(&blob[..cut]);
            }
            let mut x = 0x1234_5678u32;
            for _ in 0..300 {
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                let mut m = blob.clone();
                let idx = x as usize % m.len();
                m[idx] ^= 1 << ((x >> 16) & 7);
                if let Some(codec) = ValueCodec::deserialize(&m) {
                    // A revived (possibly garbage) model must still be safe
                    // to run against arbitrary compressed bytes.
                    let _ = codec.decompress(&m[..m.len().min(16)]);
                }
            }
        }
    }
}
