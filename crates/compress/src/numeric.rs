//! Order-preserving codec for numeric leaf values.
//!
//! XPRESS-style type inference (§1.2) detects containers whose values are
//! all canonical integers or fixed-scale decimals (XMark prices are `%.2f`),
//! and encodes them as variable-length order-preserving binary: `memcmp` on
//! the encoded form equals numeric order, so both equality and inequality
//! predicates run in the compressed domain. Decoding reproduces the exact
//! original string (canonical-form detection guarantees round-tripping).

use crate::error::{corrupt, CodecError};
use std::cmp::Ordering;

/// Largest scale `detect` can produce (`parse_canonical` caps fractional
/// digits at 18); deserialized codecs claiming more are corrupt, and
/// rejecting them keeps `10^scale` from overflowing in `write_scaled`.
pub const MAX_SCALE: u8 = 18;

/// A numeric container codec: all values are integers scaled by `10^scale`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NumericCodec {
    /// Number of fractional decimal digits (0 = integers).
    pub scale: u8,
}

impl NumericCodec {
    /// Detect whether every value in the corpus is a canonical number of a
    /// single scale; returns the codec if so.
    pub fn detect<'a, I: IntoIterator<Item = &'a [u8]>>(corpus: I) -> Option<Self> {
        let mut scale: Option<u8> = None;
        let mut any = false;
        for v in corpus {
            any = true;
            let s = parse_canonical(v)?;
            match scale {
                None => scale = Some(s.1),
                Some(prev) if prev == s.1 => {}
                _ => return None,
            }
        }
        if !any {
            return None;
        }
        Some(NumericCodec { scale: scale.unwrap_or(0) })
    }

    /// Encode a value; `None` if it is not a canonical number of this scale.
    pub fn compress(&self, value: &[u8]) -> Option<Vec<u8>> {
        let (scaled, scale) = parse_canonical(value)?;
        if scale != self.scale {
            return None;
        }
        Some(encode_i128(scaled))
    }

    /// Decode back to the exact original string. Fails on a truncated or
    /// malformed encoding (never panics).
    pub fn decompress(&self, data: &[u8]) -> Result<Vec<u8>, CodecError> {
        let mut out = Vec::new();
        self.decompress_into(data, &mut out)?;
        Ok(out)
    }

    /// [`NumericCodec::decompress`], appending the value to `out`.
    pub(crate) fn decompress_into(&self, data: &[u8], out: &mut Vec<u8>) -> Result<(), CodecError> {
        if self.scale > MAX_SCALE {
            return Err(corrupt("numeric", format!("scale {} out of range", self.scale)));
        }
        let v = decode_i128(data)?;
        write_scaled(out, v, self.scale);
        Ok(())
    }

    /// Compare two encoded values (numeric order).
    pub fn cmp_compressed(a: &[u8], b: &[u8]) -> Ordering {
        a.cmp(b)
    }

    /// Size of the codec's "source model" (just the scale byte).
    pub fn model_size(&self) -> usize {
        1
    }
}

/// Parse a canonical integer or fixed-point decimal; returns the value scaled
/// to an integer and the number of fractional digits. Rejects forms that
/// would not round-trip ("07", "1.", "+5", "-0", "1.5" vs scale-2 "1.50" is
/// fine — scale is per-value here, uniformity is checked by `detect`).
fn parse_canonical(v: &[u8]) -> Option<(i128, u8)> {
    let s = std::str::from_utf8(v).ok()?;
    let (neg, digits) = match s.strip_prefix('-') {
        Some(rest) => (true, rest),
        None => (false, s),
    };
    let (int_part, frac_part) = match digits.split_once('.') {
        Some((i, f)) => (i, f),
        None => (digits, ""),
    };
    if int_part.is_empty() || !int_part.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    if int_part.len() > 1 && int_part.starts_with('0') {
        return None; // leading zero would not round-trip
    }
    if digits.contains('.') && frac_part.is_empty() {
        return None; // "1."
    }
    if !frac_part.bytes().all(|b| b.is_ascii_digit()) || frac_part.len() > 18 {
        return None;
    }
    if int_part.len() > 30 {
        return None;
    }
    let mut value: i128 = int_part.parse().ok()?;
    for d in frac_part.bytes() {
        value = value.checked_mul(10)?.checked_add((d - b'0') as i128)?;
    }
    if neg {
        if value == 0 {
            return None; // "-0" would not round-trip
        }
        value = -value;
    }
    Some((value, frac_part.len() as u8))
}

/// Append `v / 10^scale` to `out` as the canonical decimal string.
fn write_scaled(out: &mut Vec<u8>, v: i128, scale: u8) {
    use std::io::Write;
    // Writing to a Vec cannot fail.
    let _ = if scale == 0 {
        write!(out, "{v}")
    } else {
        let neg = v < 0;
        let mag = v.unsigned_abs();
        let pow = 10u128.pow(scale as u32);
        let int = mag / pow;
        let frac = mag % pow;
        write!(
            out,
            "{}{}.{:0width$}",
            if neg { "-" } else { "" },
            int,
            frac,
            width = scale as usize
        )
    };
}

/// Variable-length order-preserving integer encoding.
///
/// Layout: a prefix byte encoding sign and magnitude byte-count, then the
/// magnitude big-endian (ones-complemented for negatives). For `v >= 0` the
/// prefix is `0x80 + len`; for `v < 0` it is `0x80 - len`. Longer positive
/// magnitudes sort above shorter ones and vice versa for negatives, so plain
/// byte comparison is numeric comparison.
pub fn encode_i128(v: i128) -> Vec<u8> {
    let mag = v.unsigned_abs();
    let len = (128 - mag.leading_zeros() as usize).div_ceil(8); // 0 for v == 0
    let be = mag.to_be_bytes();
    let mut out = Vec::with_capacity(len + 1);
    if v >= 0 {
        out.push(0x80 + len as u8);
        out.extend_from_slice(&be[16 - len..]);
    } else {
        out.push(0x80 - len as u8);
        out.extend(be[16 - len..].iter().map(|b| !b));
    }
    out
}

/// Inverse of [`encode_i128`]. Fails on empty input, a magnitude length the
/// prefix byte cannot legally claim (>16 bytes), or a payload shorter than
/// the claimed length — all of which indicate a corrupt record.
pub fn decode_i128(data: &[u8]) -> Result<i128, CodecError> {
    let (&prefix, rest) =
        data.split_first().ok_or_else(|| corrupt("numeric", "empty encoding"))?;
    let (len, neg) = if prefix >= 0x80 {
        ((prefix - 0x80) as usize, false)
    } else {
        ((0x80 - prefix) as usize, true)
    };
    if len > 16 {
        return Err(corrupt("numeric", format!("magnitude length {len} exceeds 16 bytes")));
    }
    if rest.len() != len {
        return Err(corrupt(
            "numeric",
            format!("magnitude claims {len} bytes but {} present", rest.len()),
        ));
    }
    let mut be = [0u8; 16];
    if neg {
        for (slot, &b) in be[16 - len..].iter_mut().zip(rest) {
            *slot = !b;
        }
    } else {
        be[16 - len..].copy_from_slice(rest);
    }
    // Work in u128 so a hostile 16-byte magnitude cannot overflow negation.
    let mag = u128::from_be_bytes(be);
    if neg {
        if mag > i128::MAX as u128 + 1 {
            return Err(corrupt("numeric", "negative magnitude overflows i128"));
        }
        Ok((mag as i128).wrapping_neg())
    } else {
        if mag > i128::MAX as u128 {
            return Err(corrupt("numeric", "magnitude overflows i128"));
        }
        Ok(mag as i128)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_order_preserving() {
        let vals: Vec<i128> = vec![
            i64::MIN as i128,
            -1_000_000,
            -65_536,
            -256,
            -255,
            -2,
            -1,
            0,
            1,
            2,
            9,
            10,
            255,
            256,
            65_535,
            1_000_000,
            i64::MAX as i128,
        ];
        let enc: Vec<Vec<u8>> = vals.iter().map(|&v| encode_i128(v)).collect();
        for i in 1..vals.len() {
            assert!(enc[i - 1] < enc[i], "{} !< {}", vals[i - 1], vals[i]);
        }
        for (v, e) in vals.iter().zip(&enc) {
            assert_eq!(decode_i128(e).unwrap(), *v);
        }
    }

    #[test]
    fn detect_integers() {
        let c = NumericCodec::detect([&b"0"[..], b"42", b"-7", b"123456"]).unwrap();
        assert_eq!(c.scale, 0);
        for v in [&b"0"[..], b"42", b"-7"] {
            let e = c.compress(v).unwrap();
            assert_eq!(c.decompress(&e).unwrap(), v);
        }
    }

    #[test]
    fn detect_decimals() {
        let c = NumericCodec::detect([&b"19.99"[..], b"5.00", b"1234.50"]).unwrap();
        assert_eq!(c.scale, 2);
        let e1 = c.compress(b"5.00").unwrap();
        let e2 = c.compress(b"19.99").unwrap();
        assert!(e1 < e2);
        assert_eq!(c.decompress(&e1).unwrap(), b"5.00");
        assert_eq!(c.decompress(&e2).unwrap(), b"19.99");
    }

    #[test]
    fn detect_rejects_mixed_or_noncanonical() {
        assert!(NumericCodec::detect([&b"1"[..], b"2.5"]).is_none()); // mixed scale
        assert!(NumericCodec::detect([&b"07"[..]]).is_none()); // leading zero
        assert!(NumericCodec::detect([&b"1."[..]]).is_none());
        assert!(NumericCodec::detect([&b"-0"[..]]).is_none());
        assert!(NumericCodec::detect([&b"abc"[..]]).is_none());
        assert!(NumericCodec::detect([&b"+5"[..]]).is_none());
        assert!(NumericCodec::detect(std::iter::empty::<&[u8]>()).is_none());
    }

    #[test]
    fn numeric_order_not_string_order() {
        let c = NumericCodec::detect([&b"9"[..], b"10"]).unwrap();
        let e9 = c.compress(b"9").unwrap();
        let e10 = c.compress(b"10").unwrap();
        assert!(e9 < e10, "numeric 9 < 10 even though \"9\" > \"10\" as strings");
    }

    #[test]
    fn decode_rejects_truncated_and_malformed() {
        let e = encode_i128(1_000_000);
        for cut in 0..e.len() {
            assert!(decode_i128(&e[..cut]).is_err(), "prefix of {cut} bytes must not decode");
        }
        assert!(decode_i128(&[0x80 + 17]).is_err(), "length > 16 rejected");
        assert!(decode_i128(&[0x82, 1]).is_err(), "claims 2 magnitude bytes, 1 present");
        assert!(decode_i128(&[0x81, 1, 1]).is_err(), "trailing garbage rejected");
        let c = NumericCodec { scale: 2 };
        assert!(c.decompress(&[0x85, 1]).is_err());
        assert!(NumericCodec { scale: 200 }.decompress(&encode_i128(5)).is_err());
    }

    #[test]
    fn compact_for_small_values() {
        assert_eq!(encode_i128(0).len(), 1);
        assert_eq!(encode_i128(255).len(), 2);
        assert_eq!(encode_i128(-255).len(), 2);
    }
}
