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
//!   accessible (the XQueC innovation over XMill);
//! * **block** — the whole container compressed as one `blz` chunk, chosen
//!   for containers outside the query workload (§3.3); reading any value
//!   requires decompressing the block, as in XMill.

use crate::ids::{ContainerId, ElemId, PathId, TagCode};
use std::cmp::Ordering;
use std::sync::Arc;
use xquec_compress::{blz, CodecError, ValueCodec};

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

enum Store {
    Individual { comps: Vec<Box<[u8]>> },
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
    /// pairs. Returns the container plus `(parent, record-index)` pairs for
    /// registering [`crate::structure::ValueRef`]s.
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
    ) -> (Container, Vec<(ElemId, u32)>) {
        let plain_bytes = values.iter().map(|(v, _)| v.len()).sum();
        // Compress first, then sort in *value* order: for order-preserving
        // codecs the compressed bytes carry that order directly (numeric
        // containers thereby sort numerically); otherwise plaintext order is
        // the container order and searches probe via decompression.
        let mut entries: Vec<(Box<[u8]>, String, ElemId)> = values
            .into_iter()
            .map(|(v, parent)| {
                let comp = codec
                    .compress(v.as_bytes())
                    .expect("loader trains the codec on this corpus; every value encodes");
                (comp.into_boxed_slice(), v, parent)
            })
            .collect();
        if codec.order_preserving() {
            entries.sort_by(|a, b| a.0.cmp(&b.0).then(a.2.cmp(&b.2)));
        } else {
            entries.sort_by(|a, b| a.1.cmp(&b.1).then(a.2.cmp(&b.2)));
        }
        let mut comps = Vec::with_capacity(entries.len());
        let mut parents = Vec::with_capacity(entries.len());
        let mut refs = Vec::with_capacity(entries.len());
        for (i, (comp, _, parent)) in entries.into_iter().enumerate() {
            comps.push(comp);
            parents.push(parent);
            refs.push((parent, i as u32));
        }
        (
            Container {
                id,
                path,
                leaf,
                vtype,
                codec,
                parents,
                store: Store::Individual { comps },
                plain_bytes,
            },
            refs,
        )
    }

    /// Build a block-compressed container (XMill-style; for containers the
    /// workload never touches).
    pub fn build_block(
        id: ContainerId,
        path: PathId,
        leaf: ContainerLeaf,
        vtype: ValueType,
        mut values: Vec<(String, ElemId)>,
    ) -> (Container, Vec<(ElemId, u32)>) {
        values.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.cmp(&b.1)));
        let plain_bytes = values.iter().map(|(v, _)| v.len()).sum();
        let mut concat = Vec::with_capacity(plain_bytes + values.len() * 2);
        let mut parents = Vec::with_capacity(values.len());
        let mut refs = Vec::with_capacity(values.len());
        for (i, (v, parent)) in values.into_iter().enumerate() {
            xquec_compress::bitio::write_varint(&mut concat, v.len());
            concat.extend_from_slice(v.as_bytes());
            parents.push(parent);
            refs.push((parent, i as u32));
        }
        let data = blz::compress(&concat);
        (
            Container {
                id,
                path,
                leaf,
                vtype,
                codec: Arc::new(ValueCodec::Raw),
                parents,
                store: Store::Block { data },
                plain_bytes,
            },
            refs,
        )
    }

    /// Rebuild an individually-compressed container from persisted parts
    /// (records must already be in value order). Every record is decoded
    /// once up front, so a container that constructs successfully can be
    /// decompressed later without surprises.
    pub fn from_parts(
        id: ContainerId,
        path: PathId,
        leaf: ContainerLeaf,
        vtype: ValueType,
        codec: Arc<ValueCodec>,
        comps: Vec<Box<[u8]>>,
        parents: Vec<ElemId>,
    ) -> Result<Container, ContainerError> {
        if comps.len() != parents.len() {
            return Err(ContainerError {
                container: id,
                detail: format!("{} records but {} parents", comps.len(), parents.len()),
            });
        }
        let mut plain_bytes = 0usize;
        let mut plain = Vec::new();
        for (i, c) in comps.iter().enumerate() {
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
            store: Store::Individual { comps },
            plain_bytes,
        })
    }

    /// Rebuild a block container from its persisted blz blob. The blob is
    /// fully decoded and its value frames walked once up front; a record
    /// count that does not match the parent list is corruption.
    pub fn from_block_parts(
        id: ContainerId,
        path: PathId,
        leaf: ContainerLeaf,
        vtype: ValueType,
        data: Vec<u8>,
        parents: Vec<ElemId>,
    ) -> Result<Container, ContainerError> {
        let mut c = Container {
            id,
            path,
            leaf,
            vtype,
            codec: Arc::new(ValueCodec::Raw),
            parents,
            store: Store::Block { data },
            plain_bytes: 0,
        };
        let concat = c.block_plain()?;
        let mut count = 0usize;
        let mut plain_bytes = 0usize;
        c.for_each_frame(&concat, |v| {
            count += 1;
            plain_bytes += v.len();
        })?;
        if count != c.parents.len() {
            return Err(c.err(format!(
                "block holds {count} values but {} parents",
                c.parents.len()
            )));
        }
        c.plain_bytes = plain_bytes;
        Ok(c)
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
        matches!(self.store, Store::Individual { .. })
    }

    /// The stored blz blob of a block container: `blz::compress` of every
    /// value in record order, each behind its varint length. `None` for an
    /// individual container.
    pub fn block_blob(&self) -> Option<&[u8]> {
        match &self.store {
            Store::Block { data } => Some(data),
            Store::Individual { .. } => None,
        }
    }

    /// Parent element of record `idx`.
    pub fn parent_of(&self, idx: u32) -> ElemId {
        self.parents[idx as usize]
    }

    /// Compressed bytes of record `idx` (individual mode only).
    pub fn compressed(&self, idx: u32) -> Result<&[u8], ContainerError> {
        match &self.store {
            Store::Individual { comps } => comps
                .get(idx as usize)
                .map(|c| c.as_ref())
                .ok_or_else(|| self.err(format!("record {idx} out of range ({})", comps.len()))),
            Store::Block { .. } => Err(self.err("block container has no per-record access")),
        }
    }

    /// Decompress record `idx`.
    pub fn decompress(&self, idx: u32) -> Result<String, ContainerError> {
        match &self.store {
            Store::Individual { comps } => {
                let comp = comps.get(idx as usize).ok_or_else(|| {
                    self.err(format!("record {idx} out of range ({})", comps.len()))
                })?;
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
    /// no intermediate `String`.
    pub fn decompress_all_with<T>(
        &self,
        mut make: impl FnMut(&str) -> T,
    ) -> Result<Vec<T>, ContainerError> {
        match &self.store {
            Store::Individual { comps } => comps
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
                let mut out = Vec::with_capacity(self.parents.len());
                self.for_each_frame(&concat, |v| out.push(make(&String::from_utf8_lossy(v))))?;
                Ok(out)
            }
        }
    }

    /// The decoded blz blob of a block container: every value behind its
    /// varint length.
    fn block_plain(&self) -> Result<Vec<u8>, ContainerError> {
        match &self.store {
            Store::Block { data } => blz::decompress(data).map_err(|e| self.codec_err(e)),
            Store::Individual { .. } => Err(self.err("individual container has no block blob")),
        }
    }

    /// Hand each value framed in `concat` to `f`, in record order.
    fn for_each_frame(&self, concat: &[u8], mut f: impl FnMut(&[u8])) -> Result<(), ContainerError> {
        let mut pos = 0usize;
        while pos < concat.len() {
            let (len, used) = xquec_compress::bitio::read_varint(&concat[pos..])
                .ok_or_else(|| self.err("block value header truncated"))?;
            pos += used;
            let end = pos
                .checked_add(len)
                .filter(|&e| e <= concat.len())
                .ok_or_else(|| self.err("block value leaves the blob"))?;
            f(&concat[pos..end]);
            pos = end;
        }
        Ok(())
    }

    /// Iterate `(record index, parent)` in value order (`ContScan`).
    pub fn scan(&self) -> impl Iterator<Item = (u32, ElemId)> + '_ {
        self.parents.iter().enumerate().map(|(i, &p)| (i as u32, p))
    }

    /// Compare record `idx` against a plaintext bound, in the compressed
    /// domain when the codec supports it.
    pub fn cmp_record(&self, idx: u32, plain: &[u8]) -> Result<Ordering, ContainerError> {
        match &self.store {
            Store::Individual { comps } => {
                let comp = comps.get(idx as usize).ok_or_else(|| {
                    self.err(format!("record {idx} out of range ({})", comps.len()))
                })?;
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
            Store::Individual { comps } => comps.iter().map(|c| c.len()).sum(),
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

    fn build_with(kind: CodecKind) -> (Container, Vec<(ElemId, u32)>) {
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
        let (c, _) = build_with(CodecKind::Alm);
        let vals: Vec<String> = (0..c.len() as u32).map(|i| c.decompress(i).unwrap()).collect();
        assert_eq!(vals, vec!["alpha", "bravo", "bravo", "charlie", "delta"]);
        // Parents travel with their values.
        assert_eq!(c.parent_of(0), ElemId(1));
        assert_eq!(c.parent_of(4), ElemId(4));
    }

    #[test]
    fn value_refs_point_at_sorted_positions() {
        let (c, refs) = build_with(CodecKind::Huffman);
        for (elem, idx) in refs {
            assert_eq!(c.parent_of(idx), elem);
        }
    }

    #[test]
    fn binary_search_compressed_and_probing() {
        for kind in [CodecKind::Alm, CodecKind::Huffman, CodecKind::Raw] {
            let (c, _) = build_with(kind);
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
        let (c, _) = Container::build(
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
        let (c, refs) = Container::build_block(
            ContainerId(0),
            PathId(0),
            ContainerLeaf::Text,
            ValueType::Str,
            vals,
        );
        assert!(!c.is_individual());
        let all = c.decompress_all().unwrap();
        assert_eq!(all, vec!["alpha", "bravo", "bravo", "charlie", "delta"]);
        for (elem, idx) in refs {
            assert_eq!(c.parent_of(idx), elem);
        }
    }
}
