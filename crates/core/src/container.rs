//! Value containers (§2.2).
//!
//! All data values found under the same root-to-leaf path are stored
//! together in a homogeneous container; each record is a compressed value
//! plus a pointer to its parent element in the structure tree. Records are
//! kept in *value* order ("not placed in the document order, but in a
//! lexicographic order, to enable fast binary search"), which is what powers
//! `ContAccess` range lookups and the sort-free merge joins of §4.
//!
//! Two storage modes exist:
//! * **individual** — each value compressed on its own and individually
//!   accessible (the XQueC innovation over XMill). The compressed records
//!   lie back to back in one byte arena with a `u32` end offset each, so a
//!   container holds two heap blocks however many records it has;
//! * **block** — the whole container compressed as one `blz` chunk, chosen
//!   for containers outside the query workload (§3.3); reading any value
//!   requires decompressing the block, as in XMill.
//!
//! A record's parent element is its entry in the container's parent list;
//! the structure tree's value refs are the inverse of these lists.

use crate::ids::{ContainerId, ElemId, PathId, TagCode};
use std::cmp::Ordering;
use std::sync::Arc;
use xquec_compress::{blz, CodecError, CodecKind, ValueCodec};

/// A container whose stored bytes cannot be decoded — corrupt compressed
/// records, a blz blob that does not parse, or a record index that the
/// container does not hold.
#[derive(Debug)]
pub struct ContainerError {
    /// Container the failure occurred in.
    pub container: ContainerId,
    /// What went wrong.
    pub detail: String,
}

impl std::fmt::Display for ContainerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "container {}: {}", self.container.0, self.detail)
    }
}

impl std::error::Error for ContainerError {}

/// What kind of leaf a container stores.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ContainerLeaf {
    /// Attribute values for the given attribute name.
    Attribute(TagCode),
    /// Element text content.
    Text,
}

/// Elementary type of a container's values (the `type` in `<type, pe>`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ValueType {
    /// Free-form string.
    Str,
    /// Canonical integers.
    Int,
    /// Fixed-scale decimals.
    Decimal(u8),
}

/// The compressed records of an individual container, back to back in one
/// byte arena: record `i` ends at `ends[i]` and starts where record `i - 1`
/// ends.
#[derive(Debug, Default)]
pub(crate) struct RecordArena {
    bytes: Vec<u8>,
    ends: Vec<u32>,
}

impl RecordArena {
    /// An empty arena with room for `records` records of `bytes` bytes in
    /// all.
    pub fn with_capacity(records: usize, bytes: usize) -> Self {
        RecordArena { bytes: Vec::with_capacity(bytes), ends: Vec::with_capacity(records) }
    }

    /// Append a record. The arena holds under 4 GiB.
    pub fn push(&mut self, record: &[u8]) {
        self.bytes.extend_from_slice(record);
        self.ends.push(u32::try_from(self.bytes.len()).expect("a record arena holds under 4 GiB"));
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// Record `i`.
    pub fn get(&self, i: usize) -> Option<&[u8]> {
        let end = *self.ends.get(i)? as usize;
        let start = i.checked_sub(1).map_or(0, |p| self.ends[p] as usize);
        Some(&self.bytes[start..end])
    }

    /// Every record, in order.
    pub fn iter(&self) -> impl Iterator<Item = &[u8]> + '_ {
        (0..self.len()).map(|i| self.get(i).expect("index in range"))
    }

    /// Total bytes of all records.
    pub fn byte_len(&self) -> usize {
        self.bytes.len()
    }
}

enum Store {
    Individual(RecordArena),
    Block { data: Vec<u8> },
}

/// A value container.
pub struct Container {
    /// Container id.
    pub id: ContainerId,
    /// The value-leaf summary path this container materializes.
    pub path: PathId,
    /// Leaf kind.
    pub leaf: ContainerLeaf,
    /// Elementary value type.
    pub vtype: ValueType,
    /// Codec (source model possibly shared with other containers).
    codec: Arc<ValueCodec>,
    /// Parent element of each record, aligned with record order.
    parents: Vec<ElemId>,
    store: Store,
    /// Total plaintext bytes (for compression accounting).
    plain_bytes: usize,
}

impl Container {
    /// Build an individually-compressed container from `(value, parent)`
    /// pairs. Record `i`'s parent is [`Container::parent_of`]`(i)`.
    ///
    /// Records are sorted by value: by compressed bytes when the codec is
    /// order-preserving (identical order, cheaper comparisons later), by
    /// plaintext otherwise.
    pub fn build(
        id: ContainerId,
        path: PathId,
        leaf: ContainerLeaf,
        vtype: ValueType,
        codec: Arc<ValueCodec>,
        values: Vec<(String, ElemId)>,
    ) -> Container {
        let plain_bytes = values.iter().map(|(v, _)| v.len()).sum();
        // Compress first, into one scratch arena, then sort in *value*
        // order: for order-preserving codecs the compressed bytes carry that
        // order directly (numeric containers thereby sort numerically);
        // otherwise plaintext order is the container order and searches
        // probe via decompression.
        let mut scratch = Vec::new();
        let mut entries: Vec<(std::ops::Range<usize>, String, ElemId)> = values
            .into_iter()
            .map(|(v, parent)| {
                let comp = codec
                    .compress(v.as_bytes())
                    .expect("loader trains the codec on this corpus; every value encodes");
                let start = scratch.len();
                scratch.extend_from_slice(&comp);
                (start..scratch.len(), v, parent)
            })
            .collect();
        if codec.order_preserving() {
            entries.sort_by(|a, b| {
                scratch[a.0.clone()].cmp(&scratch[b.0.clone()]).then(a.2.cmp(&b.2))
            });
        } else {
            entries.sort_by(|a, b| a.1.cmp(&b.1).then(a.2.cmp(&b.2)));
        }
        let mut records = RecordArena::with_capacity(entries.len(), scratch.len());
        let mut parents = Vec::with_capacity(entries.len());
        for (range, _, parent) in entries {
            records.push(&scratch[range]);
            parents.push(parent);
        }
        Container {
            id,
            path,
            leaf,
            vtype,
            codec,
            parents,
            store: Store::Individual(records),
            plain_bytes,
        }
    }

    /// Build a block-compressed container (XMill-style; for containers the
    /// workload never touches).
    pub fn build_block(
        id: ContainerId,
        path: PathId,
        leaf: ContainerLeaf,
        vtype: ValueType,
        mut values: Vec<(String, ElemId)>,
    ) -> Container {
        values.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.cmp(&b.1)));
        let plain_bytes = values.iter().map(|(v, _)| v.len()).sum();
        let mut concat = Vec::with_capacity(plain_bytes + values.len() * 2);
        let mut parents = Vec::with_capacity(values.len());
        for (v, parent) in values {
            xquec_compress::bitio::write_varint(&mut concat, v.len());
            concat.extend_from_slice(v.as_bytes());
            parents.push(parent);
        }
        // `blz::compress` grows its output by doubling; keep only its bytes.
        let mut data = blz::compress(&concat);
        data.shrink_to_fit();
        Container {
            id,
            path,
            leaf,
            vtype,
            codec: Arc::new(ValueCodec::Raw),
            parents,
            store: Store::Block { data },
            plain_bytes,
        }
    }

    /// Rebuild an individually-compressed container from persisted parts
    /// (records must already be in value order). Every record is decoded
    /// once up front, so a container that constructs successfully can be
    /// decompressed later without surprises.
    pub(crate) fn from_parts(
        id: ContainerId,
        path: PathId,
        leaf: ContainerLeaf,
        vtype: ValueType,
        codec: Arc<ValueCodec>,
        records: RecordArena,
        parents: Vec<ElemId>,
    ) -> Result<Container, ContainerError> {
        if records.len() != parents.len() {
            return Err(ContainerError {
                container: id,
                detail: format!("{} records but {} parents", records.len(), parents.len()),
            });
        }
        let mut plain_bytes = 0usize;
        let mut plain = Vec::new();
        for (i, c) in records.iter().enumerate() {
            plain.clear();
            codec.decompress_into(c, &mut plain).map_err(|e| ContainerError {
                container: id,
                detail: format!("record {i}: {e}"),
            })?;
            plain_bytes += plain.len();
        }
        Ok(Container {
            id,
            path,
            leaf,
            vtype,
            codec,
            parents,
            store: Store::Individual(records),
            plain_bytes,
        })
    }

    /// Rebuild a block container from its persisted blz blob and the plain
    /// byte total saved with it. The blob is kept as it is: it is first
    /// inflated when it is read ([`Container::decompress_all_with`]), and
    /// that read checks its value frames against the parent list and
    /// `plain_bytes`.
    pub fn from_block_parts(
        id: ContainerId,
        path: PathId,
        leaf: ContainerLeaf,
        vtype: ValueType,
        data: Vec<u8>,
        plain_bytes: usize,
        parents: Vec<ElemId>,
    ) -> Container {
        Container {
            id,
            path,
            leaf,
            vtype,
            codec: Arc::new(ValueCodec::Raw),
            parents,
            store: Store::Block { data },
            plain_bytes,
        }
    }

    fn err(&self, detail: impl Into<String>) -> ContainerError {
        ContainerError { container: self.id, detail: detail.into() }
    }

    fn codec_err(&self, e: CodecError) -> ContainerError {
        self.err(e.to_string())
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.parents.len()
    }

    /// True when the container has no records.
    pub fn is_empty(&self) -> bool {
        self.parents.is_empty()
    }

    /// The codec in use.
    pub fn codec(&self) -> &Arc<ValueCodec> {
        &self.codec
    }

    /// Whether records are individually accessible.
    pub fn is_individual(&self) -> bool {
        matches!(self.store, Store::Individual(_))
    }

    /// The codec that produced the stored bytes, the one load reports and
    /// metrics name: blz for a block container (whose value codec is only a
    /// placeholder), the value codec's kind otherwise.
    pub fn stored_codec(&self) -> CodecKind {
        match self.store {
            Store::Block { .. } => CodecKind::Blz,
            Store::Individual(_) => self.codec.kind(),
        }
    }

    /// The stored blz blob of a block container: `blz::compress` of every
    /// value in record order, each behind its varint length. `None` for an
    /// individual container.
    pub fn block_blob(&self) -> Option<&[u8]> {
        match &self.store {
            Store::Block { data } => Some(data),
            Store::Individual(_) => None,
        }
    }

    /// Parent element of record `idx`.
    pub fn parent_of(&self, idx: u32) -> ElemId {
        self.parents[idx as usize]
    }

    /// Compressed bytes of record `idx` (individual mode only).
    pub fn compressed(&self, idx: u32) -> Result<&[u8], ContainerError> {
        match &self.store {
            Store::Individual(records) => records
                .get(idx as usize)
                .ok_or_else(|| self.err(format!("record {idx} out of range ({})", records.len()))),
            Store::Block { .. } => Err(self.err("block container has no per-record access")),
        }
    }

    /// Decompress record `idx`.
    pub fn decompress(&self, idx: u32) -> Result<String, ContainerError> {
        match &self.store {
            Store::Individual(_) => {
                let comp = self.compressed(idx)?;
                let plain = self.codec.decompress(comp).map_err(|e| self.codec_err(e))?;
                Ok(String::from_utf8_lossy(&plain).into_owned())
            }
            Store::Block { .. } => self
                .decompress_all()?
                .into_iter()
                .nth(idx as usize)
                .ok_or_else(|| self.err(format!("record {idx} out of range"))),
        }
    }

    /// Decompress the whole container in record order (the only way to read
    /// a block container — deliberately expensive, as in XMill).
    pub fn decompress_all(&self) -> Result<Vec<String>, ContainerError> {
        self.decompress_all_with(str::to_owned)
    }

    /// [`Container::decompress_all`], handing each value to `make` as it is
    /// decoded, so callers build the form they keep (`Rc<str>`, say) with
    /// no intermediate `String`. A block container's values must number its
    /// parents and sum to its plain byte total; a blob that does not is a
    /// [`ContainerError`], raised before a value past the parent list is
    /// built.
    pub fn decompress_all_with<T>(
        &self,
        mut make: impl FnMut(&str) -> T,
    ) -> Result<Vec<T>, ContainerError> {
        match &self.store {
            Store::Individual(records) => records
                .iter()
                .map(|c| {
                    self.codec
                        .decompress(c)
                        .map(|p| make(&String::from_utf8_lossy(&p)))
                        .map_err(|e| self.codec_err(e))
                })
                .collect(),
            Store::Block { .. } => {
                let concat = self.block_plain()?;
                let n = self.parents.len();
                let mut out = Vec::with_capacity(n);
                let (mut pos, mut plain_bytes) = (0usize, 0usize);
                while pos < concat.len() {
                    // Zero-length frames cost one byte each, so a small blob
                    // can frame far more values than parents: stop at n + 1.
                    if out.len() == n {
                        let detail = format!("block holds more values than its {n} parents");
                        return Err(self.err(detail));
                    }
                    let (len, used) = xquec_compress::bitio::read_varint(&concat[pos..])
                        .ok_or_else(|| self.err("block value header truncated"))?;
                    pos += used;
                    let end = pos
                        .checked_add(len)
                        .filter(|&e| e <= concat.len())
                        .ok_or_else(|| self.err("block value leaves the blob"))?;
                    plain_bytes += len;
                    out.push(make(&String::from_utf8_lossy(&concat[pos..end])));
                    pos = end;
                }
                if out.len() != n {
                    let detail = format!("block holds {} values but {n} parents", out.len());
                    return Err(self.err(detail));
                }
                if plain_bytes != self.plain_bytes {
                    return Err(self.err(format!(
                        "block values hold {plain_bytes} plain bytes but its total says {}",
                        self.plain_bytes
                    )));
                }
                Ok(out)
            }
        }
    }

    /// The decoded blz blob of a block container: every value behind its
    /// varint length.
    fn block_plain(&self) -> Result<Vec<u8>, ContainerError> {
        match &self.store {
            Store::Block { data } => blz::decompress(data).map_err(|e| self.codec_err(e)),
            Store::Individual(_) => Err(self.err("individual container has no block blob")),
        }
    }

    /// Iterate `(record index, parent)` in value order (`ContScan`).
    pub fn scan(&self) -> impl Iterator<Item = (u32, ElemId)> + '_ {
        self.parents.iter().enumerate().map(|(i, &p)| (i as u32, p))
    }

    /// Compare record `idx` against a plaintext bound, in the compressed
    /// domain when the codec supports it.
    pub fn cmp_record(&self, idx: u32, plain: &[u8]) -> Result<Ordering, ContainerError> {
        match &self.store {
            Store::Individual(_) => {
                let comp = self.compressed(idx)?;
                if self.codec.order_preserving() {
                    if let Some(cb) = self.codec.compress(plain) {
                        if let Some(ord) = self
                            .codec
                            .cmp_compressed(comp, &cb)
                            .map_err(|e| self.codec_err(e))?
                        {
                            return Ok(ord);
                        }
                    }
                }
                let plain_rec = self.codec.decompress(comp).map_err(|e| self.codec_err(e))?;
                Ok(plain_rec.as_slice().cmp(plain))
            }
            Store::Block { .. } => Ok(self.decompress(idx)?.as_bytes().cmp(plain)),
        }
    }

    /// First record index whose value is `>= plain` (binary search over the
    /// value-ordered records; `ContAccess` lower bound).
    pub fn lower_bound(&self, plain: &[u8]) -> Result<u32, ContainerError> {
        self.bound(plain, false)
    }

    /// First record index whose value is `> plain` (`ContAccess` upper bound).
    pub fn upper_bound(&self, plain: &[u8]) -> Result<u32, ContainerError> {
        self.bound(plain, true)
    }

    fn bound(&self, plain: &[u8], upper: bool) -> Result<u32, ContainerError> {
        // For numeric containers the sort order is numeric, so the bound must
        // be compared numerically — cmp_record handles that through the
        // codec; plaintext fallback only happens for string containers.
        let mut lo = 0u32;
        let mut hi = self.len() as u32;
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            let ord = self.cmp_record(mid, plain)?;
            let go_right = if upper { ord != Ordering::Greater } else { ord == Ordering::Less };
            if go_right {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        Ok(lo)
    }

    /// Record index range holding exactly `plain` (`ContAccess` equality).
    pub fn equal_range(&self, plain: &[u8]) -> Result<std::ops::Range<u32>, ContainerError> {
        Ok(self.lower_bound(plain)?..self.upper_bound(plain)?)
    }

    /// Total compressed payload bytes.
    pub fn compressed_size(&self) -> usize {
        match &self.store {
            Store::Individual(records) => records.byte_len(),
            Store::Block { data } => data.len(),
        }
    }

    /// Total plaintext bytes the container represents.
    pub fn plain_size(&self) -> usize {
        self.plain_bytes
    }

    /// Bytes for the parent pointers (part of the §2.2 record layout).
    pub fn pointer_size(&self) -> usize {
        4 * self.parents.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xquec_compress::CodecKind;

    fn strings() -> Vec<(String, ElemId)> {
        vec![
            ("delta".into(), ElemId(4)),
            ("alpha".into(), ElemId(1)),
            ("charlie".into(), ElemId(3)),
            ("bravo".into(), ElemId(2)),
            ("bravo".into(), ElemId(5)),
        ]
    }

    fn build_with(kind: CodecKind) -> Container {
        let vals = strings();
        let corpus: Vec<&[u8]> = vals.iter().map(|(v, _)| v.as_bytes()).collect();
        let codec = Arc::new(ValueCodec::train(kind, &corpus));
        Container::build(
            ContainerId(0),
            PathId(1),
            ContainerLeaf::Text,
            ValueType::Str,
            codec,
            vals,
        )
    }

    #[test]
    fn records_sorted_by_value() {
        let c = build_with(CodecKind::Alm);
        let vals: Vec<String> = (0..c.len() as u32).map(|i| c.decompress(i).unwrap()).collect();
        assert_eq!(vals, vec!["alpha", "bravo", "bravo", "charlie", "delta"]);
        // Parents travel with their values.
        assert_eq!(c.parent_of(0), ElemId(1));
        assert_eq!(c.parent_of(4), ElemId(4));
    }

    #[test]
    fn records_lie_back_to_back_in_one_arena() {
        let c = build_with(CodecKind::Huffman);
        let mut total = 0;
        for i in 0..c.len() as u32 {
            let rec = c.compressed(i).unwrap();
            let plain = c.decompress(i).unwrap();
            assert_eq!(Some(rec.to_vec()), c.codec().compress(plain.as_bytes()));
            total += rec.len();
        }
        assert_eq!(c.compressed_size(), total);
        assert!(c.compressed(c.len() as u32).is_err());

        let mut arena = RecordArena::default();
        for r in [&b"ab"[..], b"", b"cde"] {
            arena.push(r);
        }
        let got: Vec<&[u8]> = arena.iter().collect();
        assert_eq!(got, vec![&b"ab"[..], b"", b"cde"]);
        assert_eq!((arena.len(), arena.byte_len(), arena.get(3)), (3, 5, None));
    }

    #[test]
    fn binary_search_compressed_and_probing() {
        for kind in [CodecKind::Alm, CodecKind::Huffman, CodecKind::Raw] {
            let c = build_with(kind);
            assert_eq!(c.equal_range(b"bravo").unwrap(), 1..3, "{}", kind.name());
            assert_eq!(c.equal_range(b"aaaa").unwrap(), 0..0);
            assert_eq!(c.equal_range(b"zzz").unwrap(), 5..5);
            assert_eq!(c.lower_bound(b"b").unwrap(), 1);
            assert_eq!(c.upper_bound(b"charlie").unwrap(), 4);
        }
    }

    #[test]
    fn numeric_container_sorts_numerically() {
        let vals: Vec<(String, ElemId)> =
            [("9", 1u32), ("10", 2), ("2", 3), ("100", 4)]
                .iter()
                .map(|&(v, e)| (v.to_string(), ElemId(e)))
                .collect();
        let corpus: Vec<&[u8]> = vals.iter().map(|(v, _)| v.as_bytes()).collect();
        let codec = Arc::new(ValueCodec::train(CodecKind::Numeric, &corpus));
        let c = Container::build(
            ContainerId(0),
            PathId(0),
            ContainerLeaf::Text,
            ValueType::Int,
            codec,
            vals,
        );
        // Range 2..=10 numerically.
        let lo = c.lower_bound(b"2").unwrap();
        let hi = c.upper_bound(b"10").unwrap();
        let got: Vec<String> = (lo..hi).map(|i| c.decompress(i).unwrap()).collect();
        assert_eq!(got, vec!["2", "9", "10"]);
    }

    #[test]
    fn block_container_roundtrips() {
        let vals = strings();
        let c = Container::build_block(
            ContainerId(0),
            PathId(0),
            ContainerLeaf::Text,
            ValueType::Str,
            vals,
        );
        assert!(!c.is_individual());
        let all = c.decompress_all().unwrap();
        assert_eq!(all, vec!["alpha", "bravo", "bravo", "charlie", "delta"]);
        // Parents travel with their values.
        let parents: Vec<u32> = c.scan().map(|(_, p)| p.0).collect();
        assert_eq!(parents, vec![1, 2, 5, 3, 4]);
    }

    /// A built block container holds its blob at its exact size, as open
    /// does: no spare capacity from the encoder's output buffer.
    #[test]
    fn block_blob_is_held_at_its_exact_size() {
        let values = (0..2_000).map(|i| (format!("value {i}"), ElemId(i))).collect();
        let c = Container::build_block(
            ContainerId(0),
            PathId(0),
            ContainerLeaf::Text,
            ValueType::Str,
            values,
        );
        match &c.store {
            Store::Block { data } => assert_eq!(data.capacity(), data.len()),
            Store::Individual(_) => panic!("a block container"),
        }
    }

    /// A small blob of zero bytes frames a million empty values. A read
    /// fails at the value past the parent list and builds no more values
    /// than there are parents.
    #[test]
    fn block_with_more_values_than_parents_fails_at_the_first_extra_value() {
        let data = blz::compress(&vec![0u8; 1 << 20]);
        assert!(data.len() < 4096, "the blob is small: {} bytes", data.len());
        let c = Container::from_block_parts(
            ContainerId(7),
            PathId(0),
            ContainerLeaf::Text,
            ValueType::Str,
            data,
            0,
            vec![ElemId(1)],
        );
        let mut made = 0usize;
        let e = c.decompress_all_with(|_| made += 1).unwrap_err();
        assert!(e.to_string().contains("more values than its 1 parents"), "{e}");
        assert_eq!(made, 1, "one value per parent, then the error");
    }
}
