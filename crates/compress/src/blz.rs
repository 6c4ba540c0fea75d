//! `blz`: a self-contained bzip2-family block compressor
//! (BWT → move-to-front → zero-run-length → Huffman).
//!
//! This is the "generic compression algorithm offering good compression
//! ratios, e.g. bzip2" that §3.3 of the paper assigns to containers not
//! touched by the workload, and the back-end our XMill baseline compresses
//! whole containers with. It is *not* individually-accessible: a block must
//! be fully decompressed before any value inside it can be read — exactly
//! the property that distinguishes XMill-style from XQueC-style storage.
//!
//! ```text
//! blob  := varint total, block*
//! block := varint len, varint primary, entry rows, varint rle len,
//!          u8 code length x 256, huffman codes
//! entry rows := (walks(len) - 1) rows, each in as many bits as len takes,
//!          MSB first, the last byte padded with zeros
//! huffman codes := the rle len symbols' codewords, MSB first, the last
//!          byte padded with zeros
//! ```
//!
//! A block is at most [`BLOCK_SIZE`] bytes of the input. `primary` is the
//! BWT row that holds the sentinel; the entry rows are the rows at which
//! the inverse's walks start (see [`crate::bwt::walks`]: one per full
//! 8 KiB, at most 7), so a block under 8 KiB stores none. The Huffman
//! codes carry no length of their own: the block ends with the byte that
//! holds the last of its `rle len` codes. Decoding a block is one pass
//! from the Huffman bits through zero-run-length and move-to-front
//! decoding into the BWT's last column, then one loop that advances every
//! walk.

use crate::bitio::{read_varint, write_varint, BitReader, BitWriter};
use crate::bwt::{bwt, invert, walks, Column, MAX_WALKS};
use crate::error::{corrupt, CodecError, MAX_DECODE_OUTPUT};
use crate::huffman::{canonical_codes, code_lengths, raw_bits, Decoder};

/// Maximum bytes per BWT block.
pub const BLOCK_SIZE: usize = 256 * 1024;

/// Compress a buffer. Output is self-contained (models embedded per block).
pub fn compress(data: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(data.len() / 3 + 64);
    write_varint(&mut out, data.len());
    for block in data.chunks(BLOCK_SIZE) {
        compress_block(block, &mut out);
    }
    out
}

/// Decompress a buffer produced by [`compress`].
///
/// Fails (never panics) on truncated headers, inconsistent per-block length
/// fields, or an inverse-BWT that does not resolve. Every block must make
/// forward progress, so a corrupt stream cannot loop; allocation is bounded
/// by the validated per-block lengths rather than the claimed total.
pub fn decompress(data: &[u8]) -> Result<Vec<u8>, CodecError> {
    let (total, mut pos) = read_varint(data).ok_or_else(|| corrupt("blz", "truncated header"))?;
    if total > MAX_DECODE_OUTPUT {
        return Err(corrupt("blz", format!("claimed size {total} exceeds decode bound")));
    }
    let mut out = Vec::with_capacity(total.min(data.len().saturating_mul(8)));
    while out.len() < total {
        pos = decompress_block(data, pos, &mut out)?;
    }
    if out.len() != total {
        return Err(corrupt("blz", format!("decoded {} bytes, header says {total}", out.len())));
    }
    Ok(out)
}

fn compress_block(block: &[u8], out: &mut Vec<u8>) {
    let (l, rows) = bwt(block);
    let rle = mtf_rle0_encode(&l);

    // Train a per-block Huffman model and serialize its length table.
    let mut freq = [1u64; 256];
    for &b in &rle {
        freq[b as usize] += 1;
    }
    let lengths = code_lengths(&freq);

    let mut header = BlockHeader { len: block.len(), rows: [0; MAX_WALKS], rle_len: rle.len() };
    header.rows[..rows.len()].copy_from_slice(&rows);
    header.write(out);
    out.extend_from_slice(&lengths);
    out.extend_from_slice(&raw_bits(&canonical_codes(&lengths), &rle).0);
}

/// The header of one block: the fields before its Huffman code lengths.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockHeader {
    /// Input bytes in the block.
    pub len: usize,
    /// The rows at which the inverse BWT's walks start, `primary` first;
    /// only the first `walks(len)` are part of the block.
    pub rows: [usize; MAX_WALKS],
    /// Symbols in the zero-run-length stream.
    pub rle_len: usize,
}

impl BlockHeader {
    /// Append the header to `out`. Each entry row is written in the bits
    /// `len` takes, which hold every row in `0..=len`; higher bits are
    /// dropped.
    pub fn write(&self, out: &mut Vec<u8>) {
        write_varint(out, self.len);
        write_varint(out, self.rows[0]);
        let mut entries = BitWriter::new();
        let width = row_bits(self.len);
        for &row in &self.rows[1..walks(self.len)] {
            entries.push_bits(row as u64, width);
        }
        out.extend_from_slice(&entries.finish().0);
        write_varint(out, self.rle_len);
    }

    /// The header at `*pos`, which moves past it. Fails on a truncated
    /// header, a block length outside `1..=BLOCK_SIZE`, or an rle length
    /// no block of that size can have; the rows are checked by the
    /// inverse BWT.
    pub fn read(data: &[u8], pos: &mut usize) -> Result<Self, CodecError> {
        let len = field(data, pos, "length")?;
        if len == 0 {
            return Err(corrupt("blz", "empty block makes no progress"));
        }
        if len > BLOCK_SIZE {
            return Err(corrupt("blz", format!("block length {len} exceeds {BLOCK_SIZE}")));
        }
        let mut rows = [0usize; MAX_WALKS];
        rows[0] = field(data, pos, "primary index")?;
        let width = row_bits(len);
        let bits = (walks(len) - 1) * usize::from(width);
        let truncated = || corrupt("blz", "truncated block entry rows");
        let entries = data.get(*pos..*pos + bits.div_ceil(8)).ok_or_else(truncated)?;
        *pos += entries.len();
        let mut entries = BitReader::new(entries, bits);
        for row in &mut rows[1..walks(len)] {
            *row = entries.next_bits(width).ok_or_else(truncated)? as usize;
        }
        let rle_len = field(data, pos, "rle length")?;
        // RLE0 output is at most 2 bytes per input byte (a 0x00 escape plus
        // a one-byte run varint), so anything larger cannot decode to this
        // block.
        if rle_len > 2 * BLOCK_SIZE {
            return Err(corrupt("blz", format!("rle length {rle_len} implausible for one block")));
        }
        Ok(BlockHeader { len, rows, rle_len })
    }
}

/// Bits that hold every entry row of the BWT of `n` bytes (`1..=n`).
fn row_bits(n: usize) -> u8 {
    (usize::BITS - n.leading_zeros()) as u8
}

/// The varint header field at `*pos`, which moves past it.
fn field(data: &[u8], pos: &mut usize, what: &str) -> Result<usize, CodecError> {
    let (v, used) = read_varint(data.get(*pos..).unwrap_or(&[]))
        .ok_or_else(|| corrupt("blz", format!("truncated block {what}")))?;
    *pos += used;
    Ok(v)
}

fn decompress_block(
    data: &[u8],
    mut pos: usize,
    out: &mut Vec<u8>,
) -> Result<usize, CodecError> {
    let BlockHeader { len: block_len, rows, rle_len } = BlockHeader::read(data, &mut pos)?;
    let rows = &rows[..walks(block_len)];
    let primary = rows[0];
    let mut lengths = [0u8; 256];
    lengths.copy_from_slice(
        data.get(pos..pos + 256)
            .ok_or_else(|| corrupt("blz", "truncated block huffman length table"))?,
    );
    pos += 256;
    let decoder = Decoder::new(&lengths)?;
    let column = Column::new(block_len, primary)
        .ok_or_else(|| corrupt("blz", format!("primary index {primary} outside the block")))?;
    // The Huffman codes go straight into the column.
    let mut codes = decoder.codes(&data[pos..]);
    let column = undo_rle0_mtf(|| codes.next(), rle_len, column, block_len)?;
    pos += codes.bytes_read();
    if !invert(column, &rows[1..], out) {
        return Err(corrupt(
            "blz",
            format!("inverse BWT rejects primary index {primary} with entry rows {:?}", &rows[1..]),
        ));
    }
    Ok(pos)
}

/// Move-to-front, then zero-run-length encoding, in one pass. Move-to-front
/// turns BWT's symbol clustering into small values: each byte becomes its
/// index in a recency table and moves to the table's front. The output is
/// dominated by zeros, so every run of zeros (length >= 1) is written as a
/// `0x00` escape followed by the run length as a varint; non-zero indices
/// pass through literally. The table shifts while it is searched.
fn mtf_rle0_encode(data: &[u8]) -> Vec<u8> {
    let mut table: [u8; 256] = std::array::from_fn(|i| i as u8);
    let mut out = Vec::with_capacity(data.len() / 2 + 16);
    let mut run = 0usize;
    for &b in data {
        if table[0] == b {
            run += 1;
            continue;
        }
        if run > 0 {
            out.push(0);
            write_varint(&mut out, run);
            run = 0;
        }
        let mut moving = table[0];
        table[0] = b;
        let mut idx = 1;
        while moving != b {
            std::mem::swap(&mut moving, &mut table[idx]);
            idx += 1;
        }
        out.push((idx - 1) as u8);
    }
    if run > 0 {
        out.push(0);
        write_varint(&mut out, run);
    }
    out
}

/// Undo [`mtf_rle0_encode`] on the first `rle_len` symbols `next`
/// yields, one at a time, straight into `column`, the BWT's last column,
/// which must come to exactly `block_len` bytes and never grows past it.
/// A zero run repeats the byte at the front of the move-to-front table.
fn undo_rle0_mtf(
    mut next: impl FnMut() -> Result<Option<u8>, CodecError>,
    rle_len: usize,
    mut column: Column,
    block_len: usize,
) -> Result<Column, CodecError> {
    let mut taken = 0usize;
    let mut next = || {
        if taken == rle_len {
            return Ok(None);
        }
        taken += 1;
        next()?.map(Some).ok_or_else(|| {
            corrupt("blz", format!("rle ends after {} of {rle_len} symbols", taken - 1))
        })
    };
    let mut table = Mtf::new();
    let mut left = block_len;
    while let Some(idx) = next()? {
        if idx == 0 {
            // The run's length, a varint of at most ten bytes as
            // `read_varint` reads it.
            let (mut run, mut shift) = (0usize, 0u32);
            loop {
                let b = next()?.ok_or_else(|| corrupt("rle0", "truncated run length"))?;
                run |= usize::from(b & 0x7f) << shift;
                if b & 0x80 == 0 {
                    break;
                }
                shift += 7;
                if shift > 63 {
                    return Err(corrupt("rle0", "truncated run length"));
                }
            }
            if run > left {
                return Err(corrupt("rle0", format!("run of {run} zeros exceeds output bound")));
            }
            left -= run;
            column.push_run(table.front(), run);
        } else {
            if left == 0 {
                return Err(corrupt("rle0", "output exceeds bound"));
            }
            left -= 1;
            column.push(table.move_to_front(idx));
        }
    }
    if left > 0 {
        return Err(corrupt("blz", format!("mtf ends {left} bytes short of the block")));
    }
    Ok(column)
}

/// The move-to-front table of [`undo_rle0_mtf`].
struct Mtf {
    /// The first 16 bytes, byte `i` in bits `8 * i..8 * i + 8`.
    front: u128,
    /// The rest.
    rest: [u8; 240],
}

impl Mtf {
    fn new() -> Self {
        Mtf {
            front: u128::from_le_bytes(std::array::from_fn(|i| i as u8)),
            rest: std::array::from_fn(|i| (i + 16) as u8),
        }
    }

    fn front(&self) -> u8 {
        self.front as u8
    }

    /// The byte at index `idx` (at least 1), moved to the front. Below 16
    /// the move is a shift of the front bytes, blended in by a mask.
    #[inline]
    fn move_to_front(&mut self, idx: u8) -> u8 {
        let i = u32::from(idx);
        if i < 16 {
            let b = (self.front >> (8 * i)) as u8;
            let moved = u128::MAX >> (8 * (15 - i));
            self.front = self.front & !moved | (self.front << 8) & moved | u128::from(b);
            b
        } else {
            let i = i as usize - 16;
            let b = self.rest[i];
            self.rest.copy_within(0..i, 1);
            self.rest[0] = (self.front >> 120) as u8;
            self.front = self.front << 8 | u128::from(b);
            b
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `rle` through [`undo_rle0_mtf`] for a block of `block_len` bytes
    /// whose sentinel sits in the last row.
    fn undo_rle(rle: &[u8], block_len: usize) -> Result<Column, CodecError> {
        let mut symbols = rle.iter().copied();
        let column = Column::new(block_len, block_len).unwrap();
        undo_rle0_mtf(|| Ok(symbols.next()), rle.len(), column, block_len)
    }

    /// The last column `undo_rle0_mtf` rebuilds from `mtf_rle0_encode(data)`.
    fn undo(data: &[u8]) -> Result<Vec<u8>, CodecError> {
        Ok(undo_rle(&mtf_rle0_encode(data), data.len())?.bytes())
    }

    #[test]
    fn move_to_front_matches_a_shifted_table() {
        let mut table: [u8; 256] = std::array::from_fn(|i| i as u8);
        let mut mtf = Mtf::new();
        let mut x = 0x2545_F491u32;
        for step in 0..5000 {
            x ^= x << 13;
            x ^= x >> 17;
            x ^= x << 5;
            // Mostly the branchless front, every index at least once.
            let idx = if step < 255 { step as u8 + 1 } else { 1 + (x % [15, 255][step % 2]) as u8 };
            let b = table[idx as usize];
            table.copy_within(0..idx as usize, 1);
            table[0] = b;
            assert_eq!(mtf.move_to_front(idx), b, "step {step}");
            let mut now = mtf.front.to_le_bytes().to_vec();
            now.extend_from_slice(&mtf.rest);
            assert_eq!(now, table, "step {step}");
        }
    }

    #[test]
    fn mtf_and_rle0_undo_in_one_pass() {
        let cases: Vec<Vec<u8>> = vec![
            vec![],
            vec![0, 0, 0, 0, 0],
            vec![1, 2, 3],
            vec![0, 1, 0, 0, 2, 0, 0, 0],
            vec![0; 1000],
            b"abcabcabc\x00\xff\xfezzz".to_vec(),
            (0..=255u8).rev().cycle().take(2000).collect(),
        ];
        for c in cases {
            assert_eq!(undo(&c).unwrap(), c);
        }
    }

    #[test]
    fn mtf_clusters_become_zero_runs() {
        // 'a' sits at index 97, then repeats as a run of four zeros; 'b'
        // is still at 98, then a run of four; 'a' is now second.
        let enc = mtf_rle0_encode(b"aaaaabbbbbaaaaa");
        assert_eq!(enc, [97, 0, 4, 98, 0, 4, 1, 0, 4]);
        assert_eq!(mtf_rle0_encode(b"\0\0\0"), [0, 3], "a leading run of the front byte");
        assert_eq!(mtf_rle0_encode(&[255]), [255], "the last table slot");
    }

    #[test]
    fn rle0_lengths_are_checked() {
        let rle = mtf_rle0_encode(b"aaaabbbb");
        assert!(undo_rle(&rle, 8).is_ok());
        assert!(undo_rle(&rle, 7).is_err(), "a run past the block");
        assert!(undo_rle(&rle, 9).is_err(), "short of the block");
        assert!(undo_rle(&[5, 0], 10).is_err(), "truncated run length");
        assert!(undo_rle(&[5, 0, 0x80], 10).is_err(), "run length cut mid-varint");
        assert!(
            undo_rle(&[5, 0, 0x81, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0], 10)
                .is_err(),
            "an eleven-byte run length"
        );
        assert!(undo_rle(&[5, 6], 1).is_err(), "a literal past the block");
    }

    #[test]
    fn blz_roundtrip_text() {
        let text = "the quick brown fox jumps over the lazy dog. ".repeat(500);
        let c = compress(text.as_bytes());
        assert_eq!(decompress(&c).unwrap(), text.as_bytes());
        assert!(c.len() < text.len() / 4, "blz on repetitive text: {} vs {}", c.len(), text.len());
    }

    #[test]
    fn blz_roundtrip_empty_and_tiny() {
        for data in [&b""[..], b"x", b"ab"] {
            assert_eq!(decompress(&compress(data)).unwrap(), data);
        }
    }

    #[test]
    fn blz_multi_block() {
        let data: Vec<u8> = (0..BLOCK_SIZE * 2 + 77).map(|i| (i % 251) as u8).collect();
        assert_eq!(decompress(&compress(&data)).unwrap(), data);
    }

    #[test]
    fn blz_corrupt_inputs_error_not_panic() {
        let text = "the quick brown fox jumps over the lazy dog. ".repeat(200);
        let c = compress(text.as_bytes());
        for cut in 0..c.len() {
            let _ = decompress(&c[..cut]); // must return, Ok or Err — never panic
        }
        for seed in crate::bwt::tests::fuzz_seeds() {
            let mut x = 0x9E37_79B9u32 ^ seed;
            let mut flip = |c: &[u8], bits: std::ops::Range<usize>| {
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                let bit = bits.start + x as usize % bits.len();
                let mut m = c.to_vec();
                m[bit / 8] ^= 0x80 >> (bit % 8);
                m
            };
            for _ in 0..500 {
                let _ = decompress(&flip(&c, 0..c.len() * 8));
            }
            // Over 64 KiB, one block with seven entry rows. A flip of any
            // bit of a row must be caught; any other flip, Ok or Err, must
            // not panic.
            let big = xml_like(70_000, seed);
            let c = compress(&big);
            // Past the total, the block length and the primary index: the
            // seven entry rows, 17 bits each.
            let rows = (0..3).fold(0, |pos, _| pos + read_varint(&c[pos..]).unwrap().1);
            for _ in 0..200 {
                let m = flip(&c, rows * 8..rows * 8 + 7 * 17);
                assert!(decompress(&m).is_err(), "a row bit flipped");
                let _ = decompress(&flip(&c, 0..c.len() * 8));
            }
        }
    }

    /// `len` bytes of markup-like text with seeded names and numbers.
    fn xml_like(len: usize, seed: u32) -> Vec<u8> {
        let mut x = seed.wrapping_mul(0x9E37_79B9) | 1;
        let mut text = Vec::with_capacity(len + 64);
        while text.len() < len {
            x ^= x << 13;
            x ^= x >> 17;
            x ^= x << 5;
            let item = format!("<item id=\"i{}\"><price>{}</price></item>", x % 997, x % 10_007);
            text.extend_from_slice(item.as_bytes());
        }
        text.truncate(len);
        text
    }

    #[test]
    fn blz_beats_huffman_on_structured_text() {
        // BWT pipeline should beat order-0 Huffman on structured input.
        let text = "person0 person1 person2 person3 person4 ".repeat(300);
        let blz_size = compress(text.as_bytes()).len();
        let h = crate::huffman::Huffman::train([text.as_bytes()]);
        let h_size = h.compress(text.as_bytes()).len();
        assert!(blz_size < h_size, "blz {blz_size} vs huffman {h_size}");
    }
}
