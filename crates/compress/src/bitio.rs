//! Bit-level I/O used by the entropy coders.
//!
//! Bits are written MSB-first so that the bitwise lexicographic order of the
//! emitted stream matches the order of codeword sequences — a property the
//! order-preserving Hu-Tucker codec relies on.

/// Append-only bit sink backed by a byte vector.
///
/// Bits gather in a 64-bit accumulator and reach the buffer eight bytes at
/// a time, so a codeword of any length costs a shift and an or.
#[derive(Debug, Clone)]
pub struct BitWriter {
    buf: Vec<u8>,
    /// Pending bits, right-aligned; `64 - free` of them.
    acc: u64,
    /// Unused bits of `acc`, in `1..=64`.
    free: u32,
}

impl Default for BitWriter {
    fn default() -> Self {
        BitWriter { buf: Vec::new(), acc: 0, free: 64 }
    }
}

impl BitWriter {
    /// New empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of bits written so far.
    pub fn bit_len(&self) -> usize {
        self.buf.len() * 8 + (64 - self.free) as usize
    }

    /// Write a single bit.
    pub fn push_bit(&mut self, bit: bool) {
        self.push_bits(u64::from(bit), 1);
    }

    /// Write the lowest `len` bits of `code`, MSB of that slice first.
    pub fn push_bits(&mut self, code: u64, len: u8) {
        debug_assert!(len <= 64);
        let len = u32::from(len);
        let code = if len < 64 { code & ((1 << len) - 1) } else { code };
        if len < self.free {
            self.acc = self.acc << len | code;
            self.free -= len;
        } else {
            // Fill the accumulator, flush it whole, and keep the `spill`
            // low bits of `code` that did not fit.
            let spill = len - self.free;
            let head = if self.free == 64 { 0 } else { self.acc << self.free };
            self.buf.extend_from_slice(&(head | code >> spill).to_be_bytes());
            self.acc = if spill == 0 { 0 } else { code & ((1 << spill) - 1) };
            self.free = 64 - spill;
        }
    }

    /// Finish writing, returning the packed bytes and total bit count.
    /// Unused trailing bits in the last byte are zero.
    pub fn finish(mut self) -> (Vec<u8>, usize) {
        let bits = self.bit_len();
        let pending = 64 - self.free;
        if pending > 0 {
            let aligned = self.acc << self.free;
            self.buf.extend_from_slice(&aligned.to_be_bytes()[..pending.div_ceil(8) as usize]);
        }
        (self.buf, bits)
    }
}

/// Sequential bit reader over a byte slice.
#[derive(Debug, Clone)]
pub struct BitReader<'a> {
    buf: &'a [u8],
    pos: usize,
    limit: usize,
}

impl<'a> BitReader<'a> {
    /// Read up to `bit_len` bits from `buf`. The limit is clamped to the
    /// bits actually present, so a corrupt length field can never make the
    /// reader index past the buffer; callers that must *detect* a short
    /// buffer should check [`BitReader::fits`] first.
    pub fn new(buf: &'a [u8], bit_len: usize) -> Self {
        BitReader { buf, pos: 0, limit: bit_len.min(buf.len() * 8) }
    }

    /// Would a stream claiming `bit_len` bits fit inside `buf`?
    pub fn fits(buf: &[u8], bit_len: usize) -> bool {
        bit_len <= buf.len().saturating_mul(8)
    }

    /// Bits remaining.
    pub fn remaining(&self) -> usize {
        self.limit - self.pos
    }

    /// Read one bit; `None` when exhausted.
    pub fn next_bit(&mut self) -> Option<bool> {
        if self.pos >= self.limit {
            return None;
        }
        let byte = self.buf[self.pos / 8];
        let bit = (byte >> (7 - (self.pos % 8))) & 1 == 1;
        self.pos += 1;
        Some(bit)
    }

    /// Read `len` bits into the low bits of a u64. `None` if not enough.
    pub fn next_bits(&mut self, len: u8) -> Option<u64> {
        if self.remaining() < len as usize {
            return None;
        }
        let mut out = 0u64;
        for _ in 0..len {
            out = (out << 1) | self.next_bit()? as u64;
        }
        Some(out)
    }
}

/// Compare two bit streams lexicographically, treating an exhausted stream
/// as smaller than any continuation (so a code sequence that is a strict
/// prefix of another orders before it, as its source string does under
/// alphabetical codes).
pub fn cmp_bits(a: &[u8], a_bits: usize, b: &[u8], b_bits: usize) -> std::cmp::Ordering {
    use std::cmp::Ordering;
    // Clamp claimed bit counts to the bits actually present so corrupt
    // headers cannot drive the byte-wise fast path out of bounds.
    let a_bits = a_bits.min(a.len() * 8);
    let b_bits = b_bits.min(b.len() * 8);
    let common_bytes = (a_bits.min(b_bits)) / 8;
    // Fast path: whole-byte comparison over the shared full bytes.
    match a[..common_bytes].cmp(&b[..common_bytes]) {
        Ordering::Equal => {}
        other => return other,
    }
    let mut ra = BitReader::new(a, a_bits);
    let mut rb = BitReader::new(b, b_bits);
    ra.pos = common_bytes * 8;
    rb.pos = common_bytes * 8;
    loop {
        match (ra.next_bit(), rb.next_bit()) {
            (Some(x), Some(y)) if x == y => continue,
            (Some(x), Some(_)) => return if x { Ordering::Greater } else { Ordering::Less },
            (None, Some(_)) => return Ordering::Less,
            (Some(_), None) => return Ordering::Greater,
            (None, None) => return Ordering::Equal,
        }
    }
}

/// Write a `usize` as a LEB128-style varint.
pub fn write_varint(out: &mut Vec<u8>, mut v: usize) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Read a varint written by [`write_varint`]; returns (value, bytes read).
pub fn read_varint(buf: &[u8]) -> Option<(usize, usize)> {
    let mut v = 0usize;
    let mut shift = 0u32;
    for (i, &b) in buf.iter().enumerate() {
        v |= ((b & 0x7f) as usize) << shift;
        if b & 0x80 == 0 {
            return Some((v, i + 1));
        }
        shift += 7;
        if shift > 63 {
            return None;
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cmp::Ordering;

    #[test]
    fn roundtrip_bits() {
        let mut w = BitWriter::new();
        w.push_bits(0b1011, 4);
        w.push_bits(0b0, 1);
        w.push_bits(0xABCD, 16);
        let (bytes, bits) = w.finish();
        assert_eq!(bits, 21);
        let mut r = BitReader::new(&bytes, bits);
        assert_eq!(r.next_bits(4), Some(0b1011));
        assert_eq!(r.next_bits(1), Some(0));
        assert_eq!(r.next_bits(16), Some(0xABCD));
        assert_eq!(r.next_bit(), None);
    }

    #[test]
    fn bit_len_accounting() {
        let mut w = BitWriter::new();
        assert_eq!(w.bit_len(), 0);
        for i in 0..17 {
            w.push_bit(i % 2 == 0);
            assert_eq!(w.bit_len(), i + 1);
        }
    }

    /// The bit-at-a-time writer the accumulator replaced, kept as the
    /// reference: one byte pushed per eight bits, MSB first.
    #[derive(Default)]
    struct RefWriter {
        buf: Vec<u8>,
        bits: usize,
    }

    impl RefWriter {
        fn push_bit(&mut self, bit: bool) {
            if self.bits.is_multiple_of(8) {
                self.buf.push(0);
            }
            if bit {
                *self.buf.last_mut().unwrap() |= 1 << (7 - self.bits % 8);
            }
            self.bits += 1;
        }

        fn push_bits(&mut self, code: u64, len: u8) {
            for i in (0..len).rev() {
                self.push_bit((code >> i) & 1 == 1);
            }
        }
    }

    #[test]
    fn push_bits_matches_bit_at_a_time_reference() {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for round in 0..200 {
            let mut w = BitWriter::new();
            let mut r = RefWriter::default();
            for _ in 0..round % 37 {
                // Codes carry garbage above their length: only the low
                // `len` bits may be written.
                let code = next();
                if next() % 4 == 0 {
                    let bit = code & 1 == 1;
                    w.push_bit(bit);
                    r.push_bit(bit);
                } else {
                    let len = (next() % 64 + 1) as u8;
                    w.push_bits(code, len);
                    r.push_bits(code, len);
                }
                assert_eq!(w.bit_len(), r.bits);
            }
            let (bytes, bits) = w.finish();
            assert_eq!((bytes, bits), (r.buf, r.bits), "round {round}");
        }
    }

    #[test]
    fn push_bits_of_zero_and_full_width() {
        let mut w = BitWriter::new();
        w.push_bits(u64::MAX, 0);
        assert_eq!(w.bit_len(), 0);
        w.push_bits(0x8000_0000_0000_0001, 64);
        w.push_bit(true);
        w.push_bits(u64::MAX, 64);
        let (bytes, bits) = w.finish();
        assert_eq!(bits, 129);
        let mut want = vec![0x80, 0, 0, 0, 0, 0, 0, 1];
        want.extend_from_slice(&[0xff; 8]);
        want.push(0x80);
        assert_eq!(bytes, want);
    }

    #[test]
    fn cmp_bit_streams() {
        // 101 vs 1011: prefix orders first.
        let a = [0b1010_0000];
        let b = [0b1011_0000];
        assert_eq!(cmp_bits(&a, 3, &b, 4), Ordering::Less);
        assert_eq!(cmp_bits(&b, 4, &a, 3), Ordering::Greater);
        assert_eq!(cmp_bits(&a, 3, &b, 3), Ordering::Equal);
        // 100 vs 11
        let c = [0b1000_0000];
        let d = [0b1100_0000];
        assert_eq!(cmp_bits(&c, 3, &d, 2), Ordering::Less);
    }

    #[test]
    fn varint_roundtrip() {
        for v in [0usize, 1, 127, 128, 300, 65_535, 1 << 20, usize::MAX / 2] {
            let mut buf = Vec::new();
            write_varint(&mut buf, v);
            let (got, used) = read_varint(&buf).unwrap();
            assert_eq!(got, v);
            assert_eq!(used, buf.len());
        }
    }

    #[test]
    fn varint_truncated() {
        let mut buf = Vec::new();
        write_varint(&mut buf, 1 << 20);
        assert!(read_varint(&buf[..1]).is_none());
    }
}
