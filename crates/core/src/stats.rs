//! Per-container statistics and the similarity matrix `F` (§3.2).
//!
//! `F[i][j]` captures the normalized similarity between two containers,
//! "built on the basis of data statistics, such as the number of overlapping
//! values \[and\] the character distribution within the container entries".
//! We combine exactly those two signals: cosine similarity of byte-frequency
//! vectors and Jaccard overlap of sampled value sets.

use std::collections::HashSet;

/// Cap on values kept for the overlap sample.
const SAMPLE_CAP: usize = 256;

/// Statistics of one container's plaintext values.
#[derive(Debug, Clone)]
pub struct ContainerStats {
    /// Number of values.
    pub count: usize,
    /// Total plaintext bytes.
    pub plain_bytes: usize,
    /// Exact distinct-value count.
    pub distinct: usize,
    /// Byte-frequency histogram.
    pub char_freq: [u64; 256],
    /// Up to `SAMPLE_CAP` (256) sampled values for overlap estimation.
    pub sample: Vec<String>,
}

impl ContainerStats {
    /// Gather statistics over a container's values.
    pub fn from_values<'a, I: IntoIterator<Item = &'a str>>(values: I) -> Self {
        let mut count = 0usize;
        let mut plain_bytes = 0usize;
        let mut char_freq = [0u64; 256];
        let mut distinct: HashSet<&str> = HashSet::new();
        let mut sample = Vec::new();
        for v in values {
            count += 1;
            plain_bytes += v.len();
            for &b in v.as_bytes() {
                char_freq[b as usize] += 1;
            }
            distinct.insert(v);
            if sample.len() < SAMPLE_CAP {
                sample.push(v.to_owned());
            }
        }
        ContainerStats { count, plain_bytes, distinct: distinct.len(), char_freq, sample }
    }

    /// Order-0 byte entropy in bits/byte — a cheap compressibility signal.
    pub fn entropy(&self) -> f64 {
        let total: u64 = self.char_freq.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let mut h = 0.0f64;
        for &f in &self.char_freq {
            if f > 0 {
                let p = f as f64 / total as f64;
                h -= p * p.log2();
            }
        }
        h
    }

    /// Average value length in bytes.
    pub fn avg_len(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.plain_bytes as f64 / self.count as f64
        }
    }
}

/// Normalized similarity between two containers in `[0, 1]`.
pub fn similarity(a: &ContainerStats, b: &ContainerStats) -> f64 {
    0.5 * char_cosine(a, b) + 0.5 * sample_jaccard(a, b)
}

fn char_cosine(a: &ContainerStats, b: &ContainerStats) -> f64 {
    let mut dot = 0.0f64;
    let mut na = 0.0f64;
    let mut nb = 0.0f64;
    for i in 0..256 {
        let x = a.char_freq[i] as f64;
        let y = b.char_freq[i] as f64;
        dot += x * y;
        na += x * x;
        nb += y * y;
    }
    if na == 0.0 || nb == 0.0 {
        return 0.0;
    }
    dot / (na.sqrt() * nb.sqrt())
}

fn sample_jaccard(a: &ContainerStats, b: &ContainerStats) -> f64 {
    if a.sample.is_empty() || b.sample.is_empty() {
        return 0.0;
    }
    let sa: HashSet<&str> = a.sample.iter().map(|s| s.as_str()).collect();
    let sb: HashSet<&str> = b.sample.iter().map(|s| s.as_str()).collect();
    let inter = sa.intersection(&sb).count();
    let union = sa.union(&sb).count();
    inter as f64 / union as f64
}

/// The full symmetric similarity matrix over a set of containers.
pub fn similarity_matrix(stats: &[ContainerStats]) -> Vec<Vec<f64>> {
    let n = stats.len();
    let mut f = vec![vec![0.0f64; n]; n];
    for i in 0..n {
        f[i][i] = 1.0;
        for j in i + 1..n {
            let s = similarity(&stats[i], &stats[j]);
            f[i][j] = s;
            f[j][i] = s;
        }
    }
    f
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_stats() {
        let s = ContainerStats::from_values(["aa", "ab", "aa"]);
        assert_eq!(s.count, 3);
        assert_eq!(s.plain_bytes, 6);
        assert_eq!(s.distinct, 2);
        assert_eq!(s.char_freq[b'a' as usize], 5);
        assert!((s.avg_len() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn entropy_bounds() {
        let uniform = ContainerStats::from_values(["abcdefgh"]);
        assert!((uniform.entropy() - 3.0).abs() < 1e-9); // 8 equiprobable symbols
        let constant = ContainerStats::from_values(["aaaaaaa"]);
        assert!(constant.entropy() < 1e-9);
    }

    #[test]
    fn similarity_reflexive_and_discriminating() {
        // The §3 example: one container over {a,b}, one over {c,d}.
        let ab = ContainerStats::from_values(["abab", "baba", "aabb"]);
        let cd = ContainerStats::from_values(["cdcd", "dcdc", "ccdd"]);
        let ab2 = ContainerStats::from_values(["abba", "baab"]);
        assert!(similarity(&ab, &ab) > 0.99);
        assert!(similarity(&ab, &cd) < 0.01, "disjoint alphabets are dissimilar");
        assert!(similarity(&ab, &ab2) > similarity(&ab, &cd));
    }

    #[test]
    fn matrix_symmetric_unit_diagonal() {
        let stats = vec![
            ContainerStats::from_values(["one", "two"]),
            ContainerStats::from_values(["three", "four"]),
            ContainerStats::from_values(["one", "five"]),
        ];
        let f = similarity_matrix(&stats);
        for (i, row) in f.iter().enumerate() {
            assert!((row[i] - 1.0).abs() < 1e-12);
            for (j, &v) in row.iter().enumerate() {
                assert!((v - f[j][i]).abs() < 1e-12);
                assert!((0.0..=1.0).contains(&v));
            }
        }
    }
}
