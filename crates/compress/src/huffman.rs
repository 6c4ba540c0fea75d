//! Classical Huffman coding over bytes (Huffman 1952), as XQueC's
//! order-agnostic value codec.
//!
//! Codes are *canonical*, so encoding is deterministic: two equal strings
//! compressed with the same source model yield identical bytes, which is what
//! enables equality predicates in the compressed domain. Because the code is
//! prefix-free and values are encoded left-to-right, a compressed prefix is a
//! bit-prefix of the compressed value — enabling prefix-match ("wildcard")
//! predicates too. Inequality comparisons are *not* order-preserving (that is
//! ALM's job, see [`crate::alm`]).

use crate::bitio::{read_varint, write_varint, BitReader, BitWriter};
use crate::error::{corrupt, CodecError};

/// Number of byte symbols.
const SYMBOLS: usize = 256;

/// Longest code length a serialized model may claim. Codewords are stored in
/// a `u64`, so anything longer cannot have been produced by `compress`.
pub(crate) const MAX_CODE_LEN: u8 = 63;

/// Entries of a per-code-length array: lengths `0..=MAX_CODE_LEN`.
const LENGTHS: usize = MAX_CODE_LEN as usize + 1;

/// Codes up to this many bits decode with one lookup in [`Decoder::table`].
const TABLE_BITS: u32 = 10;

/// Codeword for each byte symbol: (code bits right-aligned, length).
pub(crate) type Codes = [(u64, u8); SYMBOLS];

/// A trained Huffman source model: its canonical codewords and the tables
/// that decode them.
#[derive(Debug, Clone)]
pub struct Huffman {
    codes: Box<Codes>,
    decoder: Box<Decoder>,
}

impl Huffman {
    /// Train a model on a corpus of values.
    ///
    /// Every byte symbol receives an add-one smoothing count so that *any*
    /// string (e.g. a query constant never seen at load time) remains
    /// encodable with this model.
    pub fn train<'a, I: IntoIterator<Item = &'a [u8]>>(corpus: I) -> Self {
        let mut freq = [1u64; SYMBOLS];
        for value in corpus {
            for &b in value {
                freq[b as usize] += 1;
            }
        }
        Self::from_frequencies(&freq)
    }

    /// Build from explicit symbol frequencies (all must be non-zero).
    pub fn from_frequencies(freq: &[u64; SYMBOLS]) -> Self {
        let lengths = code_lengths(freq);
        let decoder = Decoder::new(&lengths).expect("a trained code is complete and prefix-free");
        Huffman { codes: Box::new(canonical_codes(&lengths)), decoder: Box::new(decoder) }
    }

    /// Rebuild a model from an *untrusted* per-symbol length table (a
    /// deserialized model): rejects a zero or oversized length, which
    /// `compress` can never emit, and a table no prefix-free code has.
    pub fn from_lengths_checked(lengths: &[u8; SYMBOLS]) -> Result<Self, CodecError> {
        let decoder = Decoder::new(lengths)?;
        Ok(Huffman { codes: Box::new(canonical_codes(lengths)), decoder: Box::new(decoder) })
    }

    /// Per-symbol code lengths (the serializable model).
    pub fn lengths(&self) -> [u8; SYMBOLS] {
        self.codes.map(|(_, len)| len)
    }

    /// Size in bytes of the serialized source model (one length byte per
    /// symbol — what a canonical code needs to be reconstructed).
    pub fn model_size(&self) -> usize {
        SYMBOLS
    }

    /// Compress a value. Output layout: varint bit-count, then packed bits.
    pub fn compress(&self, value: &[u8]) -> Vec<u8> {
        encode(&self.codes, value)
    }

    /// Decompress a value produced by [`Huffman::compress`].
    ///
    /// Fails (never panics) on a truncated header, a bit count exceeding the
    /// bytes present, a stream that ends mid-codeword, or a codeword no
    /// symbol owns. Every codeword takes at least one bit, so the output is
    /// bounded by the input bit count.
    pub fn decompress(&self, data: &[u8]) -> Result<Vec<u8>, CodecError> {
        let mut out = Vec::new();
        self.decompress_into(data, &mut out)?;
        Ok(out)
    }

    /// [`Huffman::decompress`], appending the value to `out`.
    pub(crate) fn decompress_into(&self, data: &[u8], out: &mut Vec<u8>) -> Result<(), CodecError> {
        self.decoder.symbols(data)?.read_to_end(out)
    }

    /// Does the compressed `data` (as produced by [`Huffman::compress`])
    /// represent a string starting with `prefix`? Evaluated entirely in the
    /// compressed domain.
    pub fn prefix_match(&self, data: &[u8], prefix: &[u8]) -> bool {
        let (pbits, plen) = raw_bits(&self.codes, prefix);
        let (bit_len, used) = match read_varint(data) {
            Some(x) => x,
            None => return false,
        };
        if bit_len < plen {
            return false;
        }
        let body = &data[used..];
        if !BitReader::fits(body, bit_len) {
            return false; // corrupt: claims more bits than are present
        }
        // Compare full bytes then the tail bits.
        let full = plen / 8;
        if body[..full] != pbits[..full] {
            return false;
        }
        let rem = plen % 8;
        if rem == 0 {
            return true;
        }
        let mask = 0xffu8 << (8 - rem);
        (body[full] & mask) == (pbits[full] & mask)
    }
}

/// Compute Huffman code lengths from frequencies with the two-queue build:
/// leaves sorted by (weight, symbol) in one queue, merged nodes in creation
/// order in the other, whose weights never decrease. Each step merges the
/// two lightest fronts, a leaf before a merged node of equal weight. That
/// is the order a min-heap of (weight, node id) pops in, leaves holding
/// ids `0..256` and merged nodes the ids after, so the lengths match it.
pub(crate) fn code_lengths(freq: &[u64; SYMBOLS]) -> [u8; SYMBOLS] {
    let mut leaves: [u8; SYMBOLS] = std::array::from_fn(|s| s as u8);
    leaves.sort_by_key(|&s| (freq[s as usize], s));
    // Node ids: leaves are their symbols, merged node `j` is `SYMBOLS + j`.
    let mut merged: Vec<(u64, [u16; 2])> = Vec::with_capacity(SYMBOLS - 1);
    let (mut leaf, mut front) = (0usize, 0usize);
    while merged.len() < SYMBOLS - 1 {
        let mut pick = || -> (u64, u16) {
            let leaf_weight = leaves.get(leaf).map(|&s| freq[s as usize]);
            match (leaf_weight, merged.get(front)) {
                (Some(w), Some(&(m, _))) if m < w => {
                    front += 1;
                    (m, (SYMBOLS + front - 1) as u16)
                }
                (Some(w), _) => {
                    leaf += 1;
                    (w, u16::from(leaves[leaf - 1]))
                }
                (None, _) => {
                    front += 1;
                    (merged[front - 1].0, (SYMBOLS + front - 1) as u16)
                }
            }
        };
        let (w1, n1) = pick();
        let (w2, n2) = pick();
        merged.push((w1 + w2, [n1, n2]));
    }
    // The last merged node is the root; every child was created before
    // its parent, so one backward pass sets each depth from its parent's.
    let mut depth = [0u8; SYMBOLS * 2 - 1];
    for (j, &(_, kids)) in merged.iter().enumerate().rev() {
        let d = depth[SYMBOLS + j] + 1;
        for kid in kids {
            depth[kid as usize] = d;
        }
    }
    let mut lengths = [0u8; SYMBOLS];
    lengths.copy_from_slice(&depth[..SYMBOLS]);
    lengths
}

/// How many symbols have each code length.
fn length_counts(lengths: &[u8; SYMBOLS]) -> [u16; LENGTHS] {
    let mut count = [0u16; LENGTHS];
    for &l in lengths {
        count[l as usize] += 1;
    }
    count
}

/// First canonical code of each length: symbols sorted by (length, symbol)
/// receive consecutive code values, shifted left at each longer length.
fn first_codes(count: &[u16; LENGTHS]) -> [u64; LENGTHS] {
    let mut first = [0u64; LENGTHS];
    for l in 1..first.len() {
        first[l] = (first[l - 1] + u64::from(count[l - 1])) << 1;
    }
    first
}

/// Assign canonical codes given per-symbol lengths (every length in
/// `1..=MAX_CODE_LEN`, and a prefix-free table).
pub(crate) fn canonical_codes(lengths: &[u8; SYMBOLS]) -> Codes {
    let mut next = first_codes(&length_counts(lengths));
    let mut codes = [(0u64, 0u8); SYMBOLS];
    for (slot, &l) in codes.iter_mut().zip(lengths) {
        *slot = (next[l as usize], l);
        next[l as usize] += 1;
    }
    codes
}

/// The codewords of `value`, packed MSB-first, and their bit count.
pub(crate) fn raw_bits(codes: &Codes, value: &[u8]) -> (Vec<u8>, usize) {
    let mut w = BitWriter::new();
    for &b in value {
        let (code, len) = codes[b as usize];
        w.push_bits(code, len);
    }
    w.finish()
}

/// Encode `value` under `codes`: varint bit count, then the packed bits.
pub(crate) fn encode(codes: &Codes, value: &[u8]) -> Vec<u8> {
    let (bits, bit_len) = raw_bits(codes, value);
    let mut out = Vec::with_capacity(bits.len() + 10);
    write_varint(&mut out, bit_len);
    out.extend_from_slice(&bits);
    out
}

/// Canonical decoding tables for one length table.
///
/// Codes of up to [`TABLE_BITS`] bits resolve with one lookup of the next
/// `TABLE_BITS` bits. A longer code is found by the canonical rule: the
/// codes of length `l` are the values `first[l] .. first[l] + count[l]`,
/// owned by the symbols `sorted[offset[l]..]` in symbol order.
#[derive(Debug, Clone)]
pub(crate) struct Decoder {
    /// `symbol << 8 | length` for each `TABLE_BITS`-bit prefix that starts
    /// with a code of at most `TABLE_BITS` bits; 0 otherwise.
    table: [u16; 1 << TABLE_BITS],
    first: [u64; LENGTHS],
    count: [u16; LENGTHS],
    offset: [u16; LENGTHS],
    /// Symbols sorted by (code length, symbol).
    sorted: [u8; SYMBOLS],
    /// Longest code length in use.
    max_len: u8,
}

impl Decoder {
    /// Tables for an *untrusted* length table: every length must lie in
    /// `1..=MAX_CODE_LEN` and the lengths must satisfy Kraft's inequality
    /// (the canonical code is then prefix-free). An incomplete code is
    /// accepted; decoding fails on a codeword it leaves unassigned.
    pub(crate) fn new(lengths: &[u8; SYMBOLS]) -> Result<Self, CodecError> {
        if let Some(s) = lengths.iter().position(|&l| l == 0 || l > MAX_CODE_LEN) {
            return Err(corrupt(
                "huffman",
                format!("invalid code length {} for symbol {s}", lengths[s]),
            ));
        }
        let count = length_counts(lengths);
        // Kraft sum in units of 2^-MAX_CODE_LEN; at most 256 * 2^62.
        let kraft: u128 =
            (1..=MAX_CODE_LEN).map(|l| u128::from(count[l as usize]) << (MAX_CODE_LEN - l)).sum();
        if kraft > 1u128 << MAX_CODE_LEN {
            return Err(corrupt("huffman", "length table yields non-prefix-free code"));
        }
        let first = first_codes(&count);
        let mut offset = [0u16; LENGTHS];
        for l in 1..offset.len() {
            offset[l] = offset[l - 1] + count[l - 1];
        }
        let mut next = offset;
        let mut sorted = [0u8; SYMBOLS];
        for (s, &l) in lengths.iter().enumerate() {
            sorted[next[l as usize] as usize] = s as u8;
            next[l as usize] += 1;
        }
        let mut table = [0u16; 1 << TABLE_BITS];
        for l in 1..=TABLE_BITS as usize {
            let shift = TABLE_BITS as usize - l;
            let syms = &sorted[offset[l] as usize..][..count[l] as usize];
            for (k, &s) in syms.iter().enumerate() {
                let code = first[l] as usize + k;
                table[code << shift..(code + 1) << shift].fill(u16::from(s) << 8 | l as u16);
            }
        }
        let max_len = lengths.iter().copied().max().unwrap_or(1);
        Ok(Decoder { table, first, count, offset, sorted, max_len })
    }

    /// A reader of the stream written by [`encode`] (varint bit count,
    /// then the packed bits) at the start of `data`. Fails on a truncated
    /// header or a bit count exceeding the bytes present.
    pub(crate) fn symbols<'a>(&'a self, data: &'a [u8]) -> Result<Symbols<'a>, CodecError> {
        let (bit_len, header) =
            read_varint(data).ok_or_else(|| corrupt("huffman", "truncated length header"))?;
        let body = &data[header..];
        if !BitReader::fits(body, bit_len) {
            return Err(corrupt(
                "huffman",
                format!("claims {bit_len} bits but only {} bytes follow", body.len()),
            ));
        }
        Ok(self.reader(body, bit_len))
    }

    /// A reader of the packed codes, as [`raw_bits`] writes them, that
    /// fill `body` up to its end. It ends at no bit count: the caller
    /// knows how many symbols to read.
    pub(crate) fn codes<'a>(&'a self, body: &'a [u8]) -> Symbols<'a> {
        self.reader(body, body.len().saturating_mul(8))
    }

    /// A reader of the first `bit_len` bits of `body`, which it holds.
    fn reader<'a>(&'a self, body: &'a [u8], bit_len: usize) -> Symbols<'a> {
        let window = bits_at(body, 0);
        Symbols { decoder: self, body, bit_len, pos: 0, window, used: 0, avail: bit_len.min(57) }
    }

    /// The code longer than `TABLE_BITS` that starts at bit `pos`, by the
    /// canonical rule, as (symbol, length).
    fn long_code(&self, body: &[u8], pos: usize) -> Result<(u8, usize), CodecError> {
        for l in TABLE_BITS as usize + 1..=self.max_len as usize {
            let code = code_at(body, pos, l);
            let k = code.wrapping_sub(self.first[l]);
            if k < u64::from(self.count[l]) {
                return Ok((self.sorted[self.offset[l] as usize + k as usize], l));
            }
        }
        Err(corrupt("huffman", "codeword is not assigned to any symbol"))
    }
}

/// The symbols of one Huffman stream, read one at a time: table codes
/// straight from a window of the stream's bits while each lies wholly
/// inside both the window's 57 sure bits and the stream; longer codes by
/// the canonical rule.
pub(crate) struct Symbols<'a> {
    decoder: &'a Decoder,
    body: &'a [u8],
    bit_len: usize,
    /// Where the window starts.
    pos: usize,
    /// The bits from `pos + used` on.
    window: u64,
    /// Bits of the window read.
    used: usize,
    /// Bits of the window that may be read.
    avail: usize,
}

impl Symbols<'_> {
    /// The next symbol, or `None` at the end of the stream. Fails on a
    /// stream that ends mid-codeword or a codeword no symbol owns.
    #[inline(always)]
    pub(crate) fn next(&mut self) -> Result<Option<u8>, CodecError> {
        match self.table_code() {
            Some(s) => Ok(Some(s)),
            None => self.next_window(),
        }
    }

    /// Append every symbol left to `out`. It moves the window inline: a
    /// loop over [`Symbols::next`], which moves it out of line, measured
    /// about 5% slower in criterion `codec_decompress/huffman`.
    pub(crate) fn read_to_end(&mut self, out: &mut Vec<u8>) -> Result<(), CodecError> {
        // Every codeword takes at least one bit; text takes about four.
        out.reserve((self.bit_len - self.pos) / 4);
        loop {
            while let Some(s) = self.table_code() {
                out.push(s);
            }
            if self.used > 0 {
                self.seek(self.pos + self.used);
                continue;
            }
            match self.window_start()? {
                Some(s) => out.push(s),
                None => return Ok(()),
            }
        }
    }

    /// Bytes the symbols read so far take, the last one's padding
    /// included.
    pub(crate) fn bytes_read(&self) -> usize {
        (self.pos + self.used).div_ceil(8)
    }

    /// The table code at the window's next bit, if it lies in the window.
    #[inline(always)]
    fn table_code(&mut self) -> Option<u8> {
        let entry = self.decoder.table[(self.window >> (64 - TABLE_BITS)) as usize];
        let len = usize::from(entry as u8);
        if entry == 0 || self.used + len > self.avail {
            return None;
        }
        self.used += len;
        self.window <<= len;
        Some((entry >> 8) as u8)
    }

    /// The next symbol once the window has none: from the window moved
    /// past the bits read, else as [`Symbols::window_start`] finds it.
    #[inline(never)]
    fn next_window(&mut self) -> Result<Option<u8>, CodecError> {
        if self.used > 0 {
            self.seek(self.pos + self.used);
            if let Some(s) = self.table_code() {
                return Ok(Some(s));
            }
        }
        self.window_start()
    }

    /// At the window's start, with no table code in it: the end of the
    /// stream, a code longer than the table's, or one the stream cuts.
    fn window_start(&mut self) -> Result<Option<u8>, CodecError> {
        let mid_codeword = || corrupt("huffman", "stream ends mid-codeword");
        if self.pos == self.bit_len {
            return Ok(None);
        }
        if self.decoder.table[(self.window >> (64 - TABLE_BITS)) as usize] != 0 {
            return Err(mid_codeword());
        }
        let (sym, len) = self.decoder.long_code(self.body, self.pos)?;
        if len > self.bit_len - self.pos {
            return Err(mid_codeword());
        }
        self.seek(self.pos + len);
        Ok(Some(sym))
    }

    /// Start the window at bit `pos`.
    fn seek(&mut self, pos: usize) {
        self.pos = pos;
        self.window = bits_at(self.body, pos);
        self.used = 0;
        self.avail = (self.bit_len - pos).min(57);
    }
}

/// The 64 bits of `body` from bit `pos` on, MSB-first; at least 57 of them
/// come from `body`, and bits past its end read as zero.
#[inline]
fn bits_at(body: &[u8], pos: usize) -> u64 {
    let i = pos / 8;
    let word = match body.get(i..i + 8) {
        Some(b) => u64::from_be_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]),
        None => {
            let mut buf = [0u8; 8];
            let tail = body.get(i..).unwrap_or(&[]);
            buf[..tail.len()].copy_from_slice(tail);
            u64::from_be_bytes(buf)
        }
    };
    word << (pos % 8)
}

/// The `len`-bit value (`len` in `1..=63`) at bit `pos` of `body`.
fn code_at(body: &[u8], pos: usize, len: usize) -> u64 {
    if len <= 57 {
        bits_at(body, pos) >> (64 - len)
    } else {
        (bits_at(body, pos) >> 32) << (len - 32) | bits_at(body, pos + 32) >> (96 - len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_model() -> Huffman {
        let corpus: Vec<&[u8]> =
            vec![b"the quick brown fox", b"the lazy dog", b"there and back again"];
        Huffman::train(corpus)
    }

    /// The min-heap build the two-queue one replaced, kept as the
    /// reference: pop the two least (weight, node id), push their merge.
    fn heap_code_lengths(freq: &[u64; SYMBOLS]) -> [u8; SYMBOLS] {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;
        let mut parent = vec![usize::MAX; SYMBOLS];
        let mut heap: BinaryHeap<Reverse<(u64, usize)>> =
            (0..SYMBOLS).map(|s| Reverse((freq[s], s))).collect();
        while heap.len() > 1 {
            let Reverse((w1, n1)) = heap.pop().unwrap();
            let Reverse((w2, n2)) = heap.pop().unwrap();
            let id = parent.len();
            parent.push(usize::MAX);
            parent[n1] = id;
            parent[n2] = id;
            heap.push(Reverse((w1 + w2, id)));
        }
        std::array::from_fn(|s| {
            let (mut n, mut depth) = (s, 0u8);
            while parent[n] != usize::MAX {
                n = parent[n];
                depth += 1;
            }
            depth
        })
    }

    #[test]
    fn code_lengths_match_the_min_heap() {
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let mut tables: Vec<[u64; SYMBOLS]> = vec![[1; SYMBOLS], [7; SYMBOLS]];
        // Powers of two and Fibonacci-like weights make many equal sums.
        tables.push(std::array::from_fn(|s| 1 << (s % 20)));
        tables.push(std::array::from_fn(|s| [1, 1, 2, 3, 5, 8, 13][s % 7]));
        tables.push(std::array::from_fn(|s| if s < 128 { 1 } else { 2 }));
        tables.push(std::array::from_fn(|s| (SYMBOLS - s) as u64));
        for round in 0..200 {
            // Random tables, from wide ranges down to tie-heavy ones drawn
            // from a handful of values.
            let modulus = [1 << 40, 1 << 20, 1000, 16, 4, 2][round % 6];
            tables.push(std::array::from_fn(|_| 1 + next() % modulus));
        }
        // Skewed: one symbol dominating, the rest add-one counts.
        let mut skewed = [1u64; SYMBOLS];
        skewed[b'e' as usize] = 1_000_000;
        skewed[0] = 500_000;
        tables.push(skewed);
        for (i, freq) in tables.iter().enumerate() {
            assert_eq!(code_lengths(freq), heap_code_lengths(freq), "table {i}");
        }
    }

    #[test]
    fn roundtrip() {
        let h = sample_model();
        for s in ["", "the", "completely unseen string! 123", "\u{00e9}\u{00e9}"] {
            let c = h.compress(s.as_bytes());
            assert_eq!(h.decompress(&c).unwrap(), s.as_bytes());
        }
    }

    #[test]
    fn equality_in_compressed_domain() {
        let h = sample_model();
        assert_eq!(h.compress(b"the dog"), h.compress(b"the dog"));
        assert_ne!(h.compress(b"the dog"), h.compress(b"the fox"));
    }

    #[test]
    fn compresses_skewed_text() {
        let text = "the the the the quick quick brown fox and the lazy dog ".repeat(50);
        let h = Huffman::train([text.as_bytes()]);
        let c = h.compress(text.as_bytes());
        assert!(
            c.len() < text.len() * 7 / 10,
            "expected <70% of {}, got {}",
            text.len(),
            c.len()
        );
    }

    #[test]
    fn prefix_match_compressed() {
        let h = sample_model();
        let c = h.compress(b"the quick brown fox");
        assert!(h.prefix_match(&c, b"the q"));
        assert!(h.prefix_match(&c, b""));
        assert!(h.prefix_match(&c, b"the quick brown fox"));
        assert!(!h.prefix_match(&c, b"the z"));
        assert!(!h.prefix_match(&c, b"the quick brown fox!"));
    }

    #[test]
    fn canonical_codes_are_prefix_free() {
        let h = sample_model();
        for a in 0..SYMBOLS {
            for b in (a + 1)..SYMBOLS {
                let (ca, la) = h.codes[a];
                let (cb, lb) = h.codes[b];
                let (short, slen, long, llen) =
                    if la <= lb { (ca, la, cb, lb) } else { (cb, lb, ca, la) };
                assert_ne!(long >> (llen - slen), short, "symbol {a} prefixes {b}");
            }
        }
    }

    /// A stream of `bits` bits (varint header, then `body`).
    fn stream(bits: usize, body: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        write_varint(&mut out, bits);
        out.extend_from_slice(body);
        out
    }

    #[test]
    fn code_with_a_63_bit_codeword_roundtrips() {
        // Symbols 0..=54 take lengths 1..=55; of the 201 others, 55 take 62
        // bits and 146 take 63, which fills the code space exactly.
        let mut lengths = [63u8; SYMBOLS];
        for (s, l) in lengths.iter_mut().enumerate() {
            *l = match s {
                0..=54 => s as u8 + 1,
                55..=109 => 62,
                _ => 63,
            };
        }
        let h = Huffman::from_lengths_checked(&lengths).unwrap();
        assert_eq!(h.lengths(), lengths);
        let mut value: Vec<u8> = (0..=255u8).collect();
        value.extend((0..=255u8).rev());
        value.extend([255, 0, 255, 128, 1, 255]);
        assert_eq!(h.decompress(&h.compress(&value)).unwrap(), value);
        for s in 0..=255u8 {
            assert_eq!(h.decompress(&h.compress(&[s])).unwrap(), [s], "symbol {s}");
        }
    }

    #[test]
    fn unassigned_codeword_is_an_error() {
        // 256 codes of 9 bits fill half the code space: all start with 0.
        let h = Huffman::from_lengths_checked(&[9; SYMBOLS]).unwrap();
        assert_eq!(h.decompress(&stream(9, &[0x00, 0x00])).unwrap(), [0]);
        assert!(h.decompress(&stream(9, &[0xff, 0x80])).is_err());
        assert!(h.decompress(&stream(18, &[0x00, 0x7f, 0xc0])).is_err());
        // The same past the lookup table: 256 codes of 63 bits.
        let h = Huffman::from_lengths_checked(&[63; SYMBOLS]).unwrap();
        let c = h.compress(&[7, 255]);
        assert_eq!(h.decompress(&c).unwrap(), [7, 255]);
        assert!(h.decompress(&stream(63, &[0x80, 0, 0, 0, 0, 0, 0, 0])).is_err());
        assert!(h.decompress(&stream(63, &[0x01, 0, 0, 0, 0, 0, 0, 0])).is_err());
    }

    #[test]
    fn oversubscribed_length_table_is_an_error() {
        assert!(Huffman::from_lengths_checked(&[7; SYMBOLS]).is_err());
        assert!(Huffman::from_lengths_checked(&[1; SYMBOLS]).is_err());
        // One code too many at the longest length.
        let mut lengths = [8u8; SYMBOLS];
        lengths[0] = 7;
        assert!(Huffman::from_lengths_checked(&lengths).is_err());
        assert!(Huffman::from_lengths_checked(&[8; SYMBOLS]).is_ok());
        let mut zero = [8u8; SYMBOLS];
        zero[3] = 0;
        assert!(Huffman::from_lengths_checked(&zero).is_err());
        assert!(Huffman::from_lengths_checked(&[64; SYMBOLS]).is_err());
    }

    #[test]
    fn stream_ending_mid_codeword_is_an_error() {
        let h = sample_model();
        let value = b"the quick brown fox, unseen: QXZ!";
        let c = h.compress(value);
        let (bits, used) = read_varint(&c).unwrap();
        let body = &c[used..];
        assert_eq!(h.decompress(&stream(bits, body)).unwrap(), value);
        for cut in 1..=3 {
            assert!(h.decompress(&stream(bits - cut, body)).is_err(), "{cut} bits short");
        }
        assert!(h.decompress(&stream(bits + 8, body)).is_err(), "more bits than bytes");
        assert!(h.decompress(&c[..used - 1]).is_err(), "truncated header");
    }

    #[test]
    fn symbols_end_with_their_stream() {
        let h = sample_model();
        let data = h.compress(b"abcabc");
        let mut symbols = h.decoder.symbols(&data).unwrap();
        let mut out = Vec::new();
        while let Some(s) = symbols.next().unwrap() {
            out.push(s);
        }
        let header = read_varint(&data).unwrap().1;
        assert_eq!((out.as_slice(), header + symbols.bytes_read()), (&b"abcabc"[..], data.len()));
        assert_eq!(symbols.next().unwrap(), None, "the end stays the end");
    }

    #[test]
    fn codes_read_as_many_symbols_as_asked() {
        let h = sample_model();
        let (mut bits, _) = raw_bits(&h.codes, b"the dog");
        let len = bits.len();
        bits.extend_from_slice(b"next");
        let mut codes = h.decoder.codes(&bits);
        let read: Vec<u8> = (0..7).map(|_| codes.next().unwrap().unwrap()).collect();
        assert_eq!((read.as_slice(), codes.bytes_read()), (&b"the dog"[..], len));
        // Cut inside a codeword of the next value.
        let mut codes = h.decoder.codes(&bits[..len - 1]);
        assert!((0..7).any(|_| !matches!(codes.next(), Ok(Some(_)))));
    }

    #[test]
    fn single_symbol_corpus() {
        let h = Huffman::train([&b"aaaaaaaa"[..]]);
        let c = h.compress(b"aaaa");
        assert_eq!(h.decompress(&c).unwrap(), b"aaaa");
    }
}
