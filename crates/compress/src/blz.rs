//! `blz`: a self-contained bzip2-family block compressor
//! (BWT → move-to-front → zero-run-length → Huffman).
//!
//! This is the "generic compression algorithm offering good compression
//! ratios, e.g. bzip2" that §3.3 of the paper assigns to containers not
//! touched by the workload, and the back-end our XMill baseline compresses
//! whole containers with. It is *not* individually-accessible: a block must
//! be fully decompressed before any value inside it can be read — exactly
//! the property that distinguishes XMill-style from XQueC-style storage.

use crate::bitio::{read_varint, write_varint};
use crate::bwt::{bwt, invert, Column};
use crate::error::{corrupt, CodecError, MAX_DECODE_OUTPUT};
use crate::huffman::{canonical_codes, code_lengths, encode, Decoder};

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
        let before = out.len();
        pos = decompress_block(data, pos, &mut out)?;
        if out.len() == before {
            return Err(corrupt("blz", "empty block makes no progress"));
        }
    }
    if out.len() != total {
        return Err(corrupt("blz", format!("decoded {} bytes, header says {total}", out.len())));
    }
    Ok(out)
}

fn compress_block(block: &[u8], out: &mut Vec<u8>) {
    let (l, primary) = bwt(block);
    let rle = mtf_rle0_encode(&l);

    // Train a per-block Huffman model and serialize its length table.
    let mut freq = [1u64; 256];
    for &b in &rle {
        freq[b as usize] += 1;
    }
    let lengths = code_lengths(&freq);

    write_varint(out, block.len());
    write_varint(out, primary);
    write_varint(out, rle.len());
    out.extend_from_slice(&lengths);
    let payload = encode(&canonical_codes(&lengths), &rle);
    write_varint(out, payload.len());
    out.extend_from_slice(&payload);
}

fn decompress_block(
    data: &[u8],
    mut pos: usize,
    out: &mut Vec<u8>,
) -> Result<usize, CodecError> {
    let header = |field: &str| corrupt("blz", format!("truncated block {field}"));
    let (block_len, used) =
        read_varint(data.get(pos..).unwrap_or(&[])).ok_or_else(|| header("length"))?;
    pos += used;
    if block_len > BLOCK_SIZE {
        return Err(corrupt("blz", format!("block length {block_len} exceeds {BLOCK_SIZE}")));
    }
    let (primary, used) =
        read_varint(data.get(pos..).unwrap_or(&[])).ok_or_else(|| header("primary index"))?;
    pos += used;
    let (rle_len, used) =
        read_varint(data.get(pos..).unwrap_or(&[])).ok_or_else(|| header("rle length"))?;
    pos += used;
    // RLE0 output is at most 2 bytes per input byte (a 0x00 escape plus a
    // one-byte run varint), so anything larger cannot decode to this block.
    if rle_len > 2 * BLOCK_SIZE {
        return Err(corrupt("blz", format!("rle length {rle_len} implausible for one block")));
    }
    let mut lengths = [0u8; 256];
    lengths.copy_from_slice(
        data.get(pos..pos + 256).ok_or_else(|| header("huffman length table"))?,
    );
    pos += 256;
    let decoder = Decoder::new(&lengths)?;
    let (payload_len, used) =
        read_varint(data.get(pos..).unwrap_or(&[])).ok_or_else(|| header("payload length"))?;
    pos += used;
    let payload = data.get(pos..pos + payload_len).ok_or_else(|| header("payload"))?;
    pos += payload_len;
    // Every symbol takes at least one bit, so the payload bounds the
    // reservation as well as the header does.
    let mut rle = Vec::with_capacity(rle_len.min(payload.len().saturating_mul(8)));
    decoder.decode(payload, rle_len, &mut rle)?;
    if rle.len() != rle_len {
        return Err(corrupt("blz", format!("rle decoded {} bytes, header says {rle_len}", rle.len())));
    }

    let column = undo_rle0_mtf(&rle, block_len)?;
    if !invert(column, primary, out) {
        return Err(corrupt("blz", format!("inverse BWT rejects primary index {primary}")));
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

/// Undo [`mtf_rle0_encode`] in one pass, straight into the BWT's last
/// column, which must come to exactly `block_len` bytes. A zero run repeats
/// the byte at the front of the move-to-front table. The column never grows
/// past `block_len`.
fn undo_rle0_mtf(rle: &[u8], block_len: usize) -> Result<Column, CodecError> {
    let mut table: [u8; 256] = std::array::from_fn(|i| i as u8);
    let mut column = Column::with_capacity(block_len);
    let mut i = 0usize;
    while i < rle.len() {
        let idx = rle[i] as usize;
        i += 1;
        if idx == 0 {
            let (run, used) = read_varint(&rle[i..])
                .ok_or_else(|| corrupt("rle0", "truncated run length"))?;
            i += used;
            if run > block_len - column.rows.len() {
                return Err(corrupt("rle0", format!("run of {run} zeros exceeds output bound")));
            }
            column.push_run(table[0], run);
        } else {
            if column.rows.len() == block_len {
                return Err(corrupt("rle0", "output exceeds bound"));
            }
            let b = table[idx];
            table.copy_within(0..idx, 1);
            table[0] = b;
            column.push(b);
        }
    }
    if column.rows.len() != block_len {
        return Err(corrupt(
            "blz",
            format!("mtf has {} bytes, header says {block_len}", column.rows.len()),
        ));
    }
    Ok(column)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The last column `undo_rle0_mtf` rebuilds from `mtf_rle0_encode(data)`.
    fn undo(data: &[u8]) -> Result<Vec<u8>, CodecError> {
        let column = undo_rle0_mtf(&mtf_rle0_encode(data), data.len())?;
        Ok(column.rows.into_iter().map(|e| e as u8).collect())
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
        assert!(undo_rle0_mtf(&rle, 8).is_ok());
        assert!(undo_rle0_mtf(&rle, 7).is_err(), "a run past the block");
        assert!(undo_rle0_mtf(&rle, 9).is_err(), "short of the block");
        assert!(undo_rle0_mtf(&[5, 0], 10).is_err(), "truncated run length");
        assert!(undo_rle0_mtf(&[5, 6], 1).is_err(), "a literal past the block");
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
        let mut x = 0x9E37_79B9u32;
        for _ in 0..500 {
            x ^= x << 13;
            x ^= x >> 17;
            x ^= x << 5;
            let mut m = c.clone();
            m[x as usize % c.len()] ^= 1 << ((x >> 16) & 7);
            let _ = decompress(&m);
        }
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
