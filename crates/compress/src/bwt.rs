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

/// Text bytes per inverse-BWT walk before a block gets one more walk.
pub const SEGMENT: usize = 8 * 1024;

/// Most walks the inverse of one BWT runs at once.
pub const MAX_WALKS: usize = 8;

/// Walks that invert the BWT of `n` bytes: one, plus one per full
/// [`SEGMENT`], at most [`MAX_WALKS`]. Walk `w` writes segment `w`, the
/// text from byte `w * (n / walks(n))` up to the next segment (the last
/// segment runs to the end).
pub fn walks(n: usize) -> usize {
    (n / SEGMENT).min(MAX_WALKS - 1) + 1
}

/// Forward BWT with an implicit end-of-block sentinel.
///
/// Returns the last column with the sentinel *omitted*, and for each of
/// the [`walks`] segments the row of the rotation that starts at the
/// segment's first byte. The first of these rows is `primary`, where the
/// sentinel sits in the last column; the others are the *entry rows* at
/// which the inverse's walks start. They are read off the suffix array
/// the column is built from.
pub fn bwt(data: &[u8]) -> (Vec<u8>, Vec<usize>) {
    let n = data.len();
    if n == 0 {
        return (Vec::new(), vec![0]);
    }
    let sa = suffix_array(data);
    let walks = walks(n);
    let seg = (n / walks) as u32;
    let mut out = Vec::with_capacity(n);
    let mut rows = vec![0; walks];
    // Row 0 is the rotation starting at the sentinel; its last column entry
    // is the final character of the data.
    out.push(data[n - 1]);
    for (key, &s) in sa.iter().enumerate() {
        let w = (s / seg) as usize;
        if s % seg == 0 && w < walks {
            rows[w] = key + 1;
        }
        let s = s as usize;
        if s != 0 {
            out.push(data[s - 1]);
        }
    }
    (out, rows)
}

/// Rows the walk of [`invert`] can index: 24 bits of rank per entry.
const MAX_ROWS: usize = 1 << 24;

/// The last column of a BWT as [`invert`] takes it, one entry per row:
/// `rank << 8 | byte`, where `rank` counts the earlier entries holding the
/// same byte. The sentinel's row is left empty as the column fills, so no
/// entry moves to make room for it.
pub(crate) struct Column {
    rows: Vec<u32>,
    /// Entries per byte value so far.
    counts: [u32; 256],
    /// The sentinel's row.
    primary: usize,
}

impl Column {
    /// An empty column for a text of `n` bytes whose sentinel sits in row
    /// `primary`; `None` unless `primary` lies in `1..=n` (is 0 for an
    /// empty text) and `n` is below [`MAX_ROWS`].
    pub(crate) fn new(n: usize, primary: usize) -> Option<Self> {
        let valid = if n == 0 { primary == 0 } else { (1..=n).contains(&primary) };
        (valid && n < MAX_ROWS).then(|| Column {
            rows: Vec::with_capacity(n + 1),
            counts: [0; 256],
            primary,
        })
    }

    #[inline]
    pub(crate) fn push(&mut self, b: u8) {
        if self.rows.len() == self.primary {
            self.rows.push(0);
        }
        let rank = &mut self.counts[b as usize];
        self.rows.push(*rank << 8 | u32::from(b));
        *rank += 1;
    }

    /// Append `run` copies of `b`.
    #[inline]
    pub(crate) fn push_run(&mut self, b: u8, run: usize) {
        // Entries before the sentinel's row, when it falls inside the run.
        let head = self.primary.wrapping_sub(self.rows.len());
        if head < run {
            self.extend(b, head);
            self.rows.push(0);
            self.extend(b, run - head);
        } else {
            self.extend(b, run);
        }
    }

    /// The entries' bytes, the sentinel's row included once placed.
    #[cfg(test)]
    pub(crate) fn bytes(&self) -> Vec<u8> {
        self.rows.iter().map(|&e| e as u8).collect()
    }

    fn extend(&mut self, b: u8, run: usize) {
        let first = self.counts[b as usize];
        let end = first + run as u32;
        self.rows.extend((first..end).map(|rank| rank << 8 | u32::from(b)));
        self.counts[b as usize] = end;
    }
}

/// Invert the BWT whose last column is `column`, appending the text to
/// `out`. `entries` are the entry rows [`bwt`] returns after `primary`.
///
/// One pass adds to each entry's rank its byte's first row in the sorted
/// first column, which makes the entry `LF << 8 | byte`. Then one walk per
/// segment runs backwards from the row where the next segment starts (the
/// last from row 0, the sentinel's rotation), all of them advanced in one
/// loop, each output byte one random access into the column. Returns `false`,
/// leaving `out` as it was, unless every walk ends on the row where the
/// walk of the segment before it starts, the first on `primary`, and no
/// walk meets the sentinel's row before its end: exactly the texts one
/// walk from row 0 over the whole column accepts, with entry rows that
/// are its rows at the segment starts.
pub(crate) fn invert(column: Column, entries: &[usize], out: &mut Vec<u8>) -> bool {
    let Column { mut rows, counts, primary } = column;
    if rows.len() == primary {
        rows.push(0);
    }
    let n = rows.len() - 1;
    let walks = entries.len() + 1;
    if walks > MAX_WALKS || entries.iter().any(|&r| r > n) {
        return false;
    }
    // first[b]: the first row of F holding byte b; the sentinel sorts
    // first, in row 0.
    let mut first = [0u32; 256];
    let mut row = 1u32;
    for (f, &count) in first.iter_mut().zip(&counts) {
        *f = row << 8;
        row += count;
    }
    for e in rows.iter_mut() {
        *e += first[(*e & 0xff) as usize];
    }
    // Walk w's current row: it starts where segment w + 1 does.
    let mut at = [0usize; MAX_WALKS];
    at[..walks - 1].copy_from_slice(entries);
    let start = out.len();
    out.resize(start + n, 0);
    let text = &mut out[start..];
    let at = &mut at[..walks];
    let met = match walks {
        1 => walk::<1>(&rows, primary, at, text),
        2 => walk::<2>(&rows, primary, at, text),
        3 => walk::<3>(&rows, primary, at, text),
        4 => walk::<4>(&rows, primary, at, text),
        5 => walk::<5>(&rows, primary, at, text),
        6 => walk::<6>(&rows, primary, at, text),
        7 => walk::<7>(&rows, primary, at, text),
        _ => walk::<MAX_WALKS>(&rows, primary, at, text),
    };
    if met || at[0] != primary || at[1..] != entries[..] {
        out.truncate(start);
        return false;
    }
    true
}

/// Advance `W` walks from the rows `at` over `W` segments of `text`, each
/// walk writing its segment backwards; leave in `at` the rows where they
/// end. Returns whether any walk read the sentinel's row, `primary`.
fn walk<const W: usize>(rows: &[u32], primary: usize, at: &mut [usize], text: &mut [u8]) -> bool {
    let mut r: [usize; W] = at.try_into().expect("one row per walk");
    let seg = text.len() / W;
    let mut met = false;
    let mut step = |r: &mut usize| {
        met |= *r == primary;
        let e = rows[*r];
        *r = (e >> 8) as usize;
        e as u8
    };
    // The last segment is longest: its walk runs its extra bytes alone.
    for p in (W * seg..text.len()).rev() {
        text[p] = step(&mut r[W - 1]);
    }
    for k in (0..seg).rev() {
        for (w, r) in r.iter_mut().enumerate() {
            text[w * seg + k] = step(r);
        }
    }
    at.copy_from_slice(&r);
    met
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// The seeds of `XQUEC_FUZZ_SEEDS` (`lo..hi` or one seed; `0..2` when
    /// unset).
    pub(crate) fn fuzz_seeds() -> std::ops::Range<u32> {
        let spec = std::env::var("XQUEC_FUZZ_SEEDS").unwrap_or_else(|_| "0..2".to_owned());
        match spec.split_once("..") {
            Some((lo, hi)) => lo.trim().parse().unwrap()..hi.trim().parse().unwrap(),
            None => {
                let seed: u32 = spec.trim().parse().unwrap();
                seed..seed + 1
            }
        }
    }

    /// Invert through [`invert`], given `primary` and then the entry rows
    /// as [`bwt`] returns them: `None` when it rejects them.
    fn ibwt_checked(l: &[u8], rows: &[usize]) -> Option<Vec<u8>> {
        let mut column = Column::new(l.len(), rows[0])?;
        for &b in l {
            column.push(b);
        }
        let mut out = Vec::new();
        invert(column, &rows[1..], &mut out).then_some(out)
    }

    /// The textbook inverse, kept as the reference for [`invert`]: one
    /// walk from row 0 over the whole column, with LF from a stable sort
    /// of the rows by byte, stopping at the sentinel's row. Returns the
    /// text and the row of the rotation starting at each text position
    /// (`primary` at 0), or `None` when the walk meets the sentinel's row
    /// early or `primary` is out of range.
    fn single_walk(l: &[u8], primary: usize) -> Option<(Vec<u8>, Vec<usize>)> {
        let n = l.len();
        if !(n == 0 && primary == 0 || (1..=n).contains(&primary)) {
            return None;
        }
        let column: Vec<Option<u8>> = (0..=n)
            .map(|r| match r.cmp(&primary) {
                std::cmp::Ordering::Less => Some(l[r]),
                std::cmp::Ordering::Equal => None,
                std::cmp::Ordering::Greater => Some(l[r - 1]),
            })
            .collect();
        let mut by_byte: Vec<usize> = (0..=n).filter(|&r| r != primary).collect();
        by_byte.sort_by_key(|&r| column[r]);
        let mut lf = vec![0; n + 1];
        for (f, &r) in by_byte.iter().enumerate() {
            lf[r] = f + 1;
        }
        let mut text = vec![0; n];
        let mut at = vec![0; n + 1];
        for p in (0..n).rev() {
            let r = at[p + 1];
            text[p] = column[r]?;
            at[p] = lf[r];
        }
        Some((text, at))
    }

    /// [`single_walk`]'s answer for `rows` (`primary`, then entry rows):
    /// its text when the entry rows are its rows at the segment starts.
    fn reference(l: &[u8], rows: &[usize]) -> Option<Vec<u8>> {
        let (text, at) = single_walk(l, rows[0])?;
        let seg = l.len() / rows.len();
        (rows.len() <= MAX_WALKS && (1..rows.len()).all(|w| at[w * seg] == rows[w])).then_some(text)
    }

    /// The rows [`single_walk`] passes at the starts of `walks` segments.
    fn rows_of(l: &[u8], primary: usize, walks: usize) -> Vec<usize> {
        let at = single_walk(l, primary).map_or_else(|| vec![0; l.len() + 1], |(_, at)| at);
        (0..walks).map(|w| if w == 0 { primary } else { at[w * (l.len() / walks)] }).collect()
    }

    #[test]
    fn interleaved_walks_match_the_single_walk_reference() {
        for seed in fuzz_seeds() {
            let mut x = 0x2545_F491u32 ^ seed.wrapping_mul(0x9E37_79B9);
            let mut next = move |m: usize| {
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                x as usize % m
            };
            let check = |l: &[u8], rows: &[usize]| {
                let n = l.len();
                assert_eq!(ibwt_checked(l, rows), reference(l, rows), "n {n} rows {rows:?}");
            };
            // Genuine transforms, each segment start of every walk count
            // from the reference, then with one row damaged.
            let lens = [1, 2, 7, 100, 4095, SEGMENT - 1, SEGMENT, SEGMENT + 1, 3 * SEGMENT + 5];
            for n in lens.into_iter().chain([70_000]) {
                let alphabet = [2, 4, 26, 256][next(4)];
                let text: Vec<u8> = (0..n).map(|_| next(alphabet) as u8).collect();
                let (l, rows) = bwt(&text);
                assert_eq!(rows.len(), walks(n));
                assert_eq!(rows, rows_of(&l, rows[0], rows.len()));
                assert_eq!(ibwt_checked(&l, &rows).as_deref(), Some(&text[..]));
                for walks in 1..=MAX_WALKS + 1 {
                    let rows = rows_of(&l, rows[0], walks);
                    check(&l, &rows);
                    for _ in 0..4 {
                        let mut bad = rows.clone();
                        let w = next(walks);
                        bad[w] = match next(4) {
                            0 => bad[w] + 1,
                            1 => bad[w].wrapping_sub(1),
                            2 => next(n + 2),
                            _ => bad[next(walks)],
                        };
                        check(&l, &bad);
                    }
                }
            }
            // Random columns over small alphabets: most have no text.
            for _ in 0..400 {
                let n = 1 + next(300);
                let alphabet = 2 + next(3);
                let l: Vec<u8> = (0..n).map(|_| b'a' + next(alphabet) as u8).collect();
                let primary = next(n + 2);
                let walks = 1 + next(MAX_WALKS);
                let mut rows = rows_of(&l, primary, walks);
                if next(3) == 0 {
                    let w = next(walks);
                    rows[w] = next(n + 2);
                }
                check(&l, &rows);
            }
        }
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
            let (l, rows) = bwt(s.as_bytes());
            assert_eq!(ibwt_checked(&l, &rows).unwrap(), s.as_bytes(), "for {s:?}");
        }
    }

    #[test]
    fn ibwt_checked_rejects_bad_primary() {
        let (l, rows) = bwt(b"banana");
        assert!(ibwt_checked(&l, &[0]).is_none());
        assert!(ibwt_checked(&l, &[l.len() + 1]).is_none());
        assert!(ibwt_checked(&l, &rows).is_some());
        assert!(ibwt_checked(&[], &[3]).is_none());
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
                    match ibwt_checked(&l, &[p]) {
                        Some(text) => assert_eq!(bwt(&text), (l.clone(), vec![p])),
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
        let (l, rows) = bwt(&data);
        assert_eq!(ibwt_checked(&l, &rows).unwrap(), data);
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
        let (l, rows) = bwt(&data);
        assert_eq!(ibwt_checked(&l, &rows).unwrap(), data);
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
