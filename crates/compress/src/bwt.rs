//! Burrows-Wheeler transform over an SA-IS suffix array.
//!
//! Substrate for [`crate::blz`], the bzip2-family block compressor the paper
//! uses as its generic fallback codec (§3.3) and that our XMill baseline
//! uses as its container back-end.
//!
//! The suffix array is built by induced sorting (SA-IS: Nong, Zhang & Chan,
//! "Two Efficient Algorithms for Linear Time Suffix Array Construction",
//! 2009) in time linear in the block. The reduced problem of each recursion
//! level lives inside the caller's suffix-array buffer, so the transient
//! memory is the `u32` array itself plus, on each level, a `u32` per LMS
//! position (at most half the level's symbols) and two `u32`s per alphabet
//! symbol: its bucket size, counted once per level, and a moving bucket
//! bound. No suffix type is stored: the induced passes tell types apart by
//! comparing symbols, the first induction marks the LMS suffixes it places
//! in their slots' top bit, and two LMS substrings are compared by length
//! and symbols. A suffix array is unique, so the BWT does not depend on how
//! it was sorted.

/// Marks a suffix-array slot that holds no suffix yet.
const EMPTY: u32 = u32::MAX;

/// Flags an LMS suffix in a suffix-array slot while LMS substrings are
/// sorted; positions stay below it.
const MARK: u32 = 1 << 31;

/// A symbol of a text to be suffix-sorted: bytes at the top level, names of
/// LMS substrings on the recursion levels.
trait Symbol: Copy + PartialEq {
    fn rank(self) -> usize;
}

impl Symbol for u8 {
    fn rank(self) -> usize {
        self as usize
    }
}

impl Symbol for u32 {
    fn rank(self) -> usize {
        self as usize
    }
}

/// Suffix array of `data` (standard order: a suffix that is a proper prefix
/// of another sorts first). Linear-time SA-IS; `data` must be shorter than
/// 2^31 bytes (blz blocks are at most [`crate::blz::BLOCK_SIZE`]).
pub fn suffix_array(data: &[u8]) -> Vec<u32> {
    assert!(data.len() < MARK as usize, "suffix_array: input of {} bytes", data.len());
    let mut sa = vec![0u32; data.len()];
    sais(data, 256, &mut sa);
    sa
}

/// Fill `sa` with the suffix array of `s`, whose symbols rank below `k`.
/// Every text carries a virtual sentinel after its last symbol that is
/// smaller than any symbol.
fn sais<T: Symbol>(s: &[T], k: usize, sa: &mut [u32]) {
    let n = s.len();
    debug_assert_eq!(sa.len(), n);
    if n <= 1 {
        sa.fill(0);
        return;
    }
    // Suffix i is S-type when it is smaller than suffix i + 1, L-type
    // otherwise; the last suffix is L-type, as the sentinel follows it. A
    // leftmost-S (LMS) position holds an S-type suffix after an L-type one.
    // One backward pass counts the bucket sizes and lists the LMS
    // positions, once for the whole level; no type is stored. No two LMS
    // positions are adjacent, so there are at most n / 2: each position is
    // written unconditionally and kept by advancing `m`.
    let mut counts = vec![0u32; k];
    let mut lms = vec![0u32; n / 2 + 1];
    let mut m = 0;
    let (mut next, mut next_s) = (s[n - 1].rank(), false);
    counts[next] += 1;
    for i in (0..n - 1).rev() {
        let a = s[i].rank();
        counts[a] += 1;
        let t = (a < next) | ((a == next) & next_s);
        lms[m] = i as u32 + 1;
        m += usize::from(next_s & !t);
        (next, next_s) = (a, t);
    }
    lms.truncate(m);
    lms.reverse();
    let mut bkt = vec![0u32; k];

    // Step 1: sort the LMS substrings by inducing from the LMS positions
    // dropped, in any order, at the tails of their buckets. The induction
    // marks the LMS suffixes it places.
    sa.fill(EMPTY);
    bucket_ends(&counts, &mut bkt);
    for &p in &lms {
        let c = s[p as usize].rank();
        bkt[c] -= 1;
        sa[bkt[c] as usize] = p;
    }
    induce::<T, true>(s, &counts, &mut bkt, sa);

    // Step 2: name each LMS substring by its rank among the distinct ones.
    // The sorted LMS positions move to sa[..m]; since m <= n / 2, the slot
    // sa[m + p / 2] is free for position p: it first holds the length of
    // p's LMS substring (through the next LMS position; one more for the
    // last, which runs into the sentinel and so equals no other), then its
    // name. Two LMS substrings of one length are equal when their symbols
    // are: the types follow from the symbols and the S-type last one.
    let mut j = 0;
    for i in 0..n {
        let e = sa[i];
        if e != EMPTY && e & MARK != 0 {
            sa[j] = e & !MARK;
            j += 1;
        }
    }
    debug_assert_eq!(j, m);
    sa[m..].fill(EMPTY);
    for w in lms.windows(2) {
        sa[m + w[0] as usize / 2] = w[1] - w[0] + 1;
    }
    if let Some(&last) = lms.last() {
        sa[m + last as usize / 2] = (n - last as usize + 1) as u32;
    }
    let mut names = 0u32;
    let mut prev = (0usize, 0usize);
    for i in 0..m {
        let p = sa[i] as usize;
        let len = sa[m + p / 2] as usize;
        let (q, q_len) = prev;
        if i == 0 || len != q_len || p + len > n || q + len > n || s[p..p + len] != s[q..q + len] {
            names += 1;
        }
        sa[m + p / 2] = names - 1;
        prev = (p, len);
    }
    // The reduced text, names in text order, goes to the tail sa[n - m..].
    let mut j = n;
    for i in (m..n).rev() {
        if sa[i] != EMPTY {
            j -= 1;
            sa[j] = sa[i];
        }
    }

    // Step 3: sort the LMS suffixes by the suffix array of the reduced text,
    // computed in sa[..m], recursively unless every name is distinct; then
    // map each reduced suffix to its LMS position.
    {
        let (head, reduced) = sa.split_at_mut(n - m);
        let head = &mut head[..m];
        if (names as usize) < m {
            sais(&*reduced, names as usize, head);
        } else {
            for (i, &c) in reduced.iter().enumerate() {
                head[c as usize] = i as u32;
            }
        }
        for r in head.iter_mut() {
            *r = lms[*r as usize];
        }
    }
    drop(lms);

    // Step 4: drop the sorted LMS suffixes at their bucket tails, keeping
    // their order, and induce every other suffix from them.
    sa[m..].fill(EMPTY);
    bucket_ends(&counts, &mut bkt);
    for i in (0..m).rev() {
        let p = sa[i];
        sa[i] = EMPTY;
        let c = s[p as usize].rank();
        bkt[c] -= 1;
        sa[bkt[c] as usize] = p;
    }
    induce::<T, false>(s, &counts, &mut bkt, sa);
}

/// Set `bkt[c]` to the first slot of bucket `c`.
fn bucket_starts(counts: &[u32], bkt: &mut [u32]) {
    let mut sum = 0u32;
    for (b, &count) in bkt.iter_mut().zip(counts) {
        *b = sum;
        sum += count;
    }
}

/// Set `bkt[c]` to one past the last slot of bucket `c`.
fn bucket_ends(counts: &[u32], bkt: &mut [u32]) {
    let mut sum = 0u32;
    for (b, &count) in bkt.iter_mut().zip(counts) {
        sum += count;
        *b = sum;
    }
}

/// Induce the L-type suffixes left to right from the LMS suffixes already in
/// `sa`, then the S-type suffixes right to left from the L-type ones. With
/// `MARK_LMS`, the LMS suffixes the second pass places carry [`MARK`].
///
/// Types come from comparing symbols. Left to right, every suffix `p`
/// met is L-type or LMS, so `p - 1` is L-type exactly when its symbol is
/// not smaller. Right to left, a bucket's S-type suffixes fill its tail
/// down from the end before the scan reaches them, so `p` is S-type
/// exactly when it sits at or past its bucket's current tail; `p - 1` is
/// then S-type when its symbol is smaller, or equal and `p` is S-type. An
/// S-type `p - 1` is an LMS position when the symbol before it is larger.
fn induce<T: Symbol, const MARK_LMS: bool>(
    s: &[T],
    counts: &[u32],
    bkt: &mut [u32],
    sa: &mut [u32],
) {
    let n = s.len();
    bucket_starts(counts, bkt);
    // The sentinel sorts first, so the suffix just before it, the last one,
    // heads its bucket.
    let c = s[n - 1].rank();
    sa[bkt[c] as usize] = (n - 1) as u32;
    bkt[c] += 1;
    for i in 0..n {
        let p = sa[i];
        if p != EMPTY && p > 0 {
            let c = s[p as usize - 1].rank();
            if c >= s[p as usize].rank() {
                sa[bkt[c] as usize] = p - 1;
                bkt[c] += 1;
            }
        }
    }
    bucket_ends(counts, bkt);
    for i in (0..n).rev() {
        let e = sa[i];
        let p = (e & !MARK) as usize;
        if e != EMPTY && p > 0 {
            let (c, d) = (s[p - 1].rank(), s[p].rank());
            if c < d || (c == d && i >= bkt[d] as usize) {
                bkt[c] -= 1;
                let lms = MARK_LMS && p > 1 && s[p - 2].rank() > c;
                sa[bkt[c] as usize] = (p - 1) as u32 | if lms { MARK } else { 0 };
            }
        }
    }
}

/// Forward BWT with an implicit end-of-block sentinel.
///
/// Returns the last column with the sentinel *omitted* plus the row index
/// (`primary`) where the sentinel sat, which the inverse transform needs.
pub fn bwt(data: &[u8]) -> (Vec<u8>, usize) {
    let n = data.len();
    if n == 0 {
        return (Vec::new(), 0);
    }
    let sa = suffix_array(data);
    let mut out = Vec::with_capacity(n);
    // Row 0 is the rotation starting at the sentinel; its last column entry
    // is the final character of the data.
    out.push(data[n - 1]);
    let mut primary = 0usize;
    for (key, &s) in sa.iter().enumerate() {
        if s == 0 {
            primary = key + 1;
        } else {
            out.push(data[s as usize - 1]);
        }
    }
    (out, primary)
}

/// Rows the packed walk of [`invert`] can index: 24 bits of LF per entry.
const MAX_ROWS: usize = 1 << 24;

/// The last column of a BWT (sentinel omitted, as [`bwt`] returns it), as
/// [`invert`] takes it: entry `i` is `rank << 8 | byte`, where `rank`
/// counts the earlier entries holding the same byte. Fewer than
/// [`MAX_ROWS`] entries.
pub(crate) struct Column {
    pub(crate) rows: Vec<u32>,
    /// Entries per byte value so far.
    counts: [u32; 256],
}

impl Column {
    pub(crate) fn with_capacity(n: usize) -> Self {
        Column { rows: Vec::with_capacity(n + 1), counts: [0; 256] }
    }

    pub(crate) fn push(&mut self, b: u8) {
        let rank = &mut self.counts[b as usize];
        self.rows.push(*rank << 8 | u32::from(b));
        *rank += 1;
    }

    /// Append `run` copies of `b`.
    pub(crate) fn push_run(&mut self, b: u8, run: usize) {
        let first = self.counts[b as usize];
        let end = first + run as u32;
        self.rows.extend((first..end).map(|rank| rank << 8 | u32::from(b)));
        self.counts[b as usize] = end;
    }
}

/// Invert the BWT whose last column is `column`, appending the text to
/// `out`.
///
/// The column becomes the walk table: the sentinel's row is inserted at
/// `primary`, and every other row `r` holds `LF(r) << 8 | byte`, so each
/// output byte costs one random access. Returns `false`, leaving `out` as
/// it was, when `primary` is out of range or the walk meets the sentinel's
/// row before the end.
pub(crate) fn invert(column: Column, primary: usize, out: &mut Vec<u8>) -> bool {
    let Column { mut rows, counts } = column;
    let n = rows.len();
    if n == 0 {
        return primary == 0;
    }
    if primary < 1 || primary > n || n >= MAX_ROWS {
        return false;
    }
    // first[b]: the first row of F holding byte b, shifted to the LF field;
    // the sentinel sorts first, in row 0.
    let mut first = [0u32; 256];
    let mut row = 1u32;
    for (f, &count) in first.iter_mut().zip(&counts) {
        *f = row << 8;
        row += count;
    }
    rows.insert(primary, 0);
    let (before, after) = rows.split_at_mut(primary);
    for e in before.iter_mut().chain(&mut after[1..]) {
        *e += first[(*e & 0xff) as usize];
    }
    // Walk backwards from row 0, whose last-column byte ends the text.
    let start = out.len();
    out.resize(start + n, 0);
    let mut r = 0usize;
    for slot in out[start..].iter_mut().rev() {
        if r == primary {
            out.truncate(start);
            return false; // corrupt: sentinel row reached mid-walk
        }
        let e = rows[r];
        *slot = e as u8;
        r = (e >> 8) as usize;
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Invert through [`invert`]: `None` when `primary` is out of range or
    /// the walk meets the sentinel row early.
    fn ibwt_checked(l: &[u8], primary: usize) -> Option<Vec<u8>> {
        let mut column = Column::with_capacity(l.len());
        for &b in l {
            column.push(b);
        }
        let mut out = Vec::new();
        invert(column, primary, &mut out).then_some(out)
    }

    fn naive_suffix_array(data: &[u8]) -> Vec<u32> {
        let mut sa: Vec<u32> = (0..data.len() as u32).collect();
        sa.sort_by(|&a, &b| data[a as usize..].cmp(&data[b as usize..]));
        sa
    }

    /// Linear check that `sa` is the suffix array of `data`: a permutation
    /// in which each adjacent pair compares by first byte, then by the rank
    /// of the suffixes one byte on (the empty suffix ranks lowest).
    fn is_suffix_array(data: &[u8], sa: &[u32]) -> bool {
        let n = data.len();
        let mut rank = vec![u32::MAX; n];
        for (r, &p) in sa.iter().enumerate() {
            match rank.get_mut(p as usize) {
                Some(slot) if *slot == u32::MAX => *slot = r as u32,
                _ => return false,
            }
        }
        let key = |p: u32| {
            let next = rank.get(p as usize + 1).map_or(-1, |&r| i64::from(r));
            (data[p as usize], next)
        };
        sa.len() == n && sa.windows(2).all(|w| key(w[0]) < key(w[1]))
    }

    fn xorshift_bytes(len: usize, seed: u32, modulus: u32) -> Vec<u8> {
        let mut x = seed;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                (x % modulus) as u8
            })
            .collect()
    }

    #[test]
    fn suffix_array_matches_naive_sort_on_every_short_input() {
        // Every string of length 0..=3 over {0, 1, 2, 255}.
        let alphabet = [0u8, 1, 2, 255];
        let mut inputs: Vec<Vec<u8>> = vec![Vec::new()];
        for len in 1..=3 {
            let mut strings = vec![Vec::new()];
            for _ in 0..len {
                strings = strings
                    .into_iter()
                    .flat_map(|p: Vec<u8>| {
                        alphabet.iter().map(move |&c| [p.clone(), vec![c]].concat())
                    })
                    .collect();
            }
            inputs.extend(strings);
        }
        assert_eq!(inputs.len(), 1 + 4 + 16 + 64);
        for data in &inputs {
            assert_eq!(suffix_array(data), naive_suffix_array(data), "for {data:?}");
        }
    }

    #[test]
    fn suffix_array_matches_naive_sort_on_shaped_inputs() {
        let cat = "the cat sat on the mat ".repeat(40);
        let inputs: Vec<Vec<u8>> = vec![
            vec![b'a'; 1000],
            vec![0; 257],
            vec![255; 64],
            b"ab".repeat(300),
            b"aab".repeat(211),
            b"abcabcabd".repeat(50),
            b"mississippi".to_vec(),
            cat.into_bytes(),
            xorshift_bytes(5000, 0x1234_5678, 2),
            xorshift_bytes(5000, 0x9e37_79b9, 3),
            xorshift_bytes(5000, 0xdead_beef, 256),
            (0..=255u8).cycle().take(3000).collect(),
        ];
        for data in &inputs {
            assert_eq!(suffix_array(data), naive_suffix_array(data), "len {}", data.len());
        }
    }

    #[test]
    fn suffix_array_of_block_size_inputs() {
        let n = crate::blz::BLOCK_SIZE;
        let sa = suffix_array(&vec![b'z'; n]);
        assert!(sa.iter().rev().copied().eq(0..n as u32), "all-equal sorts by length");
        let mut text = Vec::with_capacity(n);
        let mut i = 0u32;
        while text.len() < n {
            let item = format!("<item id=\"item{}\"><name>x{}</name></item>", i % 977, i % 13);
            text.extend_from_slice(item.as_bytes());
            i += 1;
        }
        text.truncate(n);
        let inputs = [
            xorshift_bytes(n, 0x0bad_cafe, 2),
            xorshift_bytes(n, 0x0bad_f00d, 256),
            b"abaabaaab".iter().copied().cycle().take(n).collect(),
            text,
        ];
        for data in &inputs {
            assert!(is_suffix_array(data, &suffix_array(data)), "len {}", data.len());
        }
        // The checker itself rejects a wrong order and a repeated suffix.
        let data = &inputs[1][..2000];
        let mut sa = suffix_array(data);
        assert!(is_suffix_array(data, &sa));
        sa.swap(10, 11);
        assert!(!is_suffix_array(data, &sa));
        sa[10] = sa[11];
        assert!(!is_suffix_array(data, &sa));
    }

    #[test]
    fn suffix_array_banana() {
        let sa = suffix_array(b"banana");
        // suffixes sorted: a(5) ana(3) anana(1) banana(0) na(4) nana(2)
        assert_eq!(sa, vec![5, 3, 1, 0, 4, 2]);
    }

    #[test]
    fn bwt_roundtrip_simple() {
        for s in ["banana", "", "a", "abracadabra", "mississippi", "zzzzzz"] {
            let (l, p) = bwt(s.as_bytes());
            assert_eq!(ibwt_checked(&l, p).unwrap(), s.as_bytes(), "for {s:?}");
        }
    }

    #[test]
    fn ibwt_checked_rejects_bad_primary() {
        let (l, p) = bwt(b"banana");
        assert!(ibwt_checked(&l, 0).is_none());
        assert!(ibwt_checked(&l, l.len() + 1).is_none());
        assert!(ibwt_checked(&l, p).is_some());
        assert!(ibwt_checked(&[], 3).is_none());
    }

    #[test]
    fn ibwt_checked_accepts_exactly_the_genuine_transforms() {
        // Every column over {a, b} of 1..=6 bytes, under every in-range
        // primary: the inverse either names a text whose BWT it is, or
        // meets the sentinel row mid-walk and fails.
        let mut rejected = 0;
        for n in 1..=6usize {
            for bits in 0..1u32 << n {
                let l: Vec<u8> = (0..n).map(|i| b'a' + (bits >> i & 1) as u8).collect();
                for p in 1..=n {
                    match ibwt_checked(&l, p) {
                        Some(text) => assert_eq!(bwt(&text), (l.clone(), p)),
                        None => rejected += 1,
                    }
                }
            }
        }
        assert!(rejected > 0);
    }

    #[test]
    fn bwt_roundtrip_binary() {
        let data: Vec<u8> = (0..=255u8).cycle().take(3000).collect();
        let (l, p) = bwt(&data);
        assert_eq!(ibwt_checked(&l, p).unwrap(), data);
    }

    #[test]
    fn bwt_roundtrip_random() {
        // Deterministic xorshift so the test needs no rand dependency here.
        let mut x = 0x12345678u32;
        let data: Vec<u8> = (0..10_000)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                (x & 0xff) as u8
            })
            .collect();
        let (l, p) = bwt(&data);
        assert_eq!(ibwt_checked(&l, p).unwrap(), data);
    }

    #[test]
    fn bwt_groups_symbols() {
        // BWT of repetitive text has long runs, the property MTF+RLE exploit.
        let text = "the cat sat on the mat the cat sat on the mat ".repeat(20);
        let (l, _) = bwt(text.as_bytes());
        let mut runs = 0usize;
        for w in l.windows(2) {
            if w[0] == w[1] {
                runs += 1;
            }
        }
        // More than a third of adjacent pairs are equal in BWT output.
        assert!(runs * 3 > l.len(), "runs={} len={}", runs, l.len());
    }
}
