//! The compression cost model (§3.2).
//!
//! A *compression configuration* `s = <P, alg>` partitions the textual
//! containers and assigns each set one algorithm and one shared source
//! model. Its cost is the sum of storage costs (container payloads
//! under the chosen codecs, `c_s`, plus source-model structures, `c_a`) and
//! decompression costs charged by the workload matrices `E`, `I`, `D`:
//! a comparison is free exactly when both containers share a source model
//! whose algorithm supports that predicate class in the compressed domain;
//! otherwise the involved containers are charged `|ct| * d_c`.
//!
//! `c_s`/`c_a` are *measured*, not guessed: a codec is trained on the union
//! of the group's value samples and its ratio and model size are taken from
//! that instance. Sharing a model across dissimilar containers therefore
//! shows up as a worse measured ratio — the effect the similarity matrix
//! `F` models in the paper (the `ab`/`cd` example of §3).

use crate::ids::ContainerId;
use crate::stats::ContainerStats;
use crate::workload::Matrices;
use std::collections::HashMap;
use std::sync::Mutex;
use xquec_compress::{CodecKind, ValueCodec};

/// One set of the partition `P` with its assigned algorithm.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Group {
    /// Containers sharing one source model.
    pub containers: Vec<ContainerId>,
    /// Algorithm compressing every container in the set.
    pub alg: CodecKind,
}

/// A compression configuration `s = <P, alg>`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Configuration {
    /// The partition; every textual container appears in exactly one group.
    pub groups: Vec<Group>,
}

impl Configuration {
    /// Singleton partition with a uniform algorithm (the search's `s_0`).
    pub fn singletons(containers: &[ContainerId], alg: CodecKind) -> Self {
        Configuration {
            groups: containers
                .iter()
                .map(|&c| Group { containers: vec![c], alg })
                .collect(),
        }
    }

    /// Index of the group holding `c`.
    pub fn group_of(&self, c: ContainerId) -> usize {
        self.groups
            .iter()
            .position(|g| g.containers.contains(&c))
            .expect("every container is in some group")
    }
}

/// One container's predicted compression outcome under a configuration.
///
/// These are the sample-based estimates the greedy search optimizes — the
/// same cached numbers [`CostModel::storage_cost`] sums. The calibration
/// report ([`crate::calibration`]) compares them against the sizes the
/// loader measured after compressing the full data.
#[derive(Debug, Clone, PartialEq)]
pub struct Prediction {
    /// The predicted container.
    pub container: ContainerId,
    /// Algorithm the configuration assigns to its group.
    pub alg: CodecKind,
    /// Predicted compressed/plain payload ratio (estimated on the sample).
    pub ratio: f64,
    /// Values in the container's sample the ratio was estimated on (at
    /// most the statistics' sample cap).
    pub sample: usize,
    /// Index of the configuration group holding the container.
    pub group: usize,
    /// Bytes of the group's shared source model (0 for block storage).
    pub group_model_bytes: usize,
}

/// Cost evaluator, caching trained group codecs across configurations.
///
/// The trained-codec cache sits behind a mutex so configuration candidates
/// can be costed concurrently (`&self`) from the parallel greedy search —
/// profiles are pure functions of `(group, algorithm)`, so results are
/// identical whatever order threads fill the cache in.
pub struct CostModel<'a> {
    stats: &'a [ContainerStats],
    matrices: &'a Matrices,
    /// Cache: (sorted group containers, alg) -> (per-container ratios, model size).
    cache: Mutex<HashMap<(Vec<ContainerId>, CodecKind), GroupProfile>>,
}

/// Per-container compression ratios plus the shared source-model size.
type GroupProfile = (Vec<f64>, usize);

impl<'a> CostModel<'a> {
    /// Create a cost model over container statistics and workload matrices.
    pub fn new(stats: &'a [ContainerStats], matrices: &'a Matrices) -> Self {
        CostModel { stats, matrices, cache: Mutex::new(HashMap::new()) }
    }

    /// Total cost of a configuration: storage plus decompression.
    pub fn cost(&self, cfg: &Configuration) -> f64 {
        self.storage_cost(cfg) + self.decompression_cost(cfg)
    }

    /// Storage component: `Σ_p (Σ_{c∈p} ratio_c(p) * |c|) + model(p)`.
    pub fn storage_cost(&self, cfg: &Configuration) -> f64 {
        let mut total = 0.0f64;
        for g in &cfg.groups {
            let (ratios, model) = self.group_profile(&g.containers, g.alg);
            for (k, &c) in g.containers.iter().enumerate() {
                total += ratios[k] * self.stats[c.0 as usize].plain_bytes as f64;
            }
            total += model as f64;
        }
        total
    }

    /// Decompression component per the §3.2 case analysis.
    pub fn decompression_cost(&self, cfg: &Configuration) -> f64 {
        let n = self.matrices.n;
        let mut total = 0.0f64;
        type SupportsFn = fn(CodecKind) -> bool;
        let classes: [(&Vec<Vec<u32>>, SupportsFn); 3] = [
            (&self.matrices.e, |a| a.properties().eq),
            (&self.matrices.i, |a| a.properties().ineq),
            (&self.matrices.d, |a| a.properties().wild),
        ];
        for (m, supports) in classes {
            // Walk the upper triangle including the constant column.
            for (i, row) in m.iter().enumerate().take(n + 1) {
                for (j, &count) in row.iter().enumerate().take(n + 1).skip(i) {
                    if count == 0 || (i == n && j == n) {
                        continue;
                    }
                    total += count as f64 * self.pair_cost(cfg, i, j, n, supports);
                }
            }
        }
        total
    }

    /// Cost of a single comparison between matrix rows `i` and `j`
    /// (`n` = constant pseudo-container).
    fn pair_cost(
        &self,
        cfg: &Configuration,
        i: usize,
        j: usize,
        n: usize,
        supports: fn(CodecKind) -> bool,
    ) -> f64 {
        let vol = |c: usize| -> f64 { self.stats[c].plain_bytes as f64 };
        let dc = |c: usize| -> f64 {
            let g = &cfg.groups[cfg.group_of(ContainerId(c as u32))];
            g.alg.decompression_cost()
        };
        match (i == n, j == n) {
            // Constant vs constant is filtered out by the caller.
            (true, true) => 0.0,
            // Container vs constant: decompress the container side unless
            // its algorithm supports the predicate (a constant can always be
            // compressed into the container's model or compared after
            // compressing it).
            (false, true) | (true, false) => {
                let c = if i == n { j } else { i };
                let g = &cfg.groups[cfg.group_of(ContainerId(c as u32))];
                if supports(g.alg) {
                    0.0
                } else {
                    vol(c) * dc(c)
                }
            }
            (false, false) => {
                let gi = cfg.group_of(ContainerId(i as u32));
                let gj = cfg.group_of(ContainerId(j as u32));
                if gi == gj && supports(cfg.groups[gi].alg) {
                    // Same source model, predicate supported: free.
                    0.0
                } else if i == j {
                    // Self-comparison: the container is decompressed once.
                    vol(i) * dc(i)
                } else {
                    // Cases (i)-(iii) of §3.2 all charge both sides.
                    vol(i) * dc(i) + vol(j) * dc(j)
                }
            }
        }
    }

    /// Per-container predictions for a configuration, in container-id order.
    ///
    /// Reuses the cached group profiles, so calling this after a search is
    /// free of extra codec training for any group the search already costed.
    pub fn predict(&self, cfg: &Configuration) -> Vec<Prediction> {
        let mut out = Vec::new();
        for (gi, g) in cfg.groups.iter().enumerate() {
            let (ratios, model) = self.group_profile(&g.containers, g.alg);
            for (k, &c) in g.containers.iter().enumerate() {
                out.push(Prediction {
                    container: c,
                    alg: g.alg,
                    ratio: ratios[k],
                    sample: self.stats[c.0 as usize].sample.len(),
                    group: gi,
                    group_model_bytes: model,
                });
            }
        }
        out.sort_by_key(|p| p.container);
        out
    }

    /// Measured `(per-container compression ratios, model size)` for a group
    /// under an algorithm, with the ratios in `containers`' order. Profiles
    /// are measured and cached in sorted container order, so every order of
    /// one group gets the same numbers, each paired with its own container.
    fn group_profile(&self, containers: &[ContainerId], alg: CodecKind) -> GroupProfile {
        let mut key: Vec<ContainerId> = containers.to_vec();
        key.sort();
        let cached = self.cache.lock().expect("cost cache lock").get(&(key.clone(), alg)).cloned();
        let (sorted_ratios, model) = match cached {
            Some(profile) => profile,
            None => {
                let profile = self.measure_group(&key, alg);
                self.cache.lock().expect("cost cache lock").insert((key.clone(), alg), profile.clone());
                profile
            }
        };
        let ratios = containers
            .iter()
            .map(|c| sorted_ratios[key.binary_search(c).expect("container is in its group key")])
            .collect();
        (ratios, model)
    }

    /// Train `alg` on the union of the containers' samples and estimate each
    /// container's ratio, in the given order.
    fn measure_group(&self, containers: &[ContainerId], alg: CodecKind) -> GroupProfile {
        let corpus: Vec<&[u8]> = containers
            .iter()
            .flat_map(|&c| self.stats[c.0 as usize].sample.iter().map(|s| s.as_bytes()))
            .collect();
        let codec = ValueCodec::train(alg, &corpus);
        let ratios: Vec<f64> = containers
            .iter()
            .map(|&c| codec.estimate_ratio(&self.stats[c.0 as usize].sample))
            .collect();
        // Block compression has no per-value model; approximate its ratio by
        // compressing the concatenated sample.
        let (ratios, model) = if alg == CodecKind::Blz {
            let ratios = containers
                .iter()
                .map(|&c| {
                    let joined: Vec<u8> = self.stats[c.0 as usize]
                        .sample
                        .iter()
                        .flat_map(|s| s.as_bytes().iter().copied())
                        .collect();
                    if joined.is_empty() {
                        1.0
                    } else {
                        xquec_compress::blz::compress(&joined).len() as f64 / joined.len() as f64
                    }
                })
                .collect();
            (ratios, 0usize)
        } else {
            (ratios, codec.model_size())
        };
        (ratios, model)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{PredOp, Workload};

    fn stats3() -> Vec<ContainerStats> {
        let mk = |seed: &str| {
            let vals: Vec<String> =
                (0..60).map(|i| format!("{seed} value {}", i % 9)).collect();
            ContainerStats::from_values(vals.iter().map(|s| s.as_str()))
        };
        vec![mk("the brown fox"), mk("the lazy dog"), mk("zz11##qq@@")]
    }

    #[test]
    fn shared_model_makes_supported_predicates_free() {
        let stats = stats3();
        let mut w = Workload::new();
        w.push(ContainerId(0), Some(ContainerId(1)), PredOp::Ineq);
        let m = w.matrices(3);
        let cm = CostModel::new(&stats, &m);

        // Separate groups with ALM: both sides charged.
        let separate = Configuration::singletons(
            &[ContainerId(0), ContainerId(1), ContainerId(2)],
            CodecKind::Alm,
        );
        let d_sep = cm.decompression_cost(&separate);
        assert!(d_sep > 0.0);

        // Shared group with ALM (supports ineq): free.
        let shared = Configuration {
            groups: vec![
                Group { containers: vec![ContainerId(0), ContainerId(1)], alg: CodecKind::Alm },
                Group { containers: vec![ContainerId(2)], alg: CodecKind::Alm },
            ],
        };
        assert_eq!(cm.decompression_cost(&shared), 0.0);

        // Shared group with Huffman (no ineq support): still charged.
        let shared_huff = Configuration {
            groups: vec![
                Group {
                    containers: vec![ContainerId(0), ContainerId(1)],
                    alg: CodecKind::Huffman,
                },
                Group { containers: vec![ContainerId(2)], alg: CodecKind::Huffman },
            ],
        };
        assert!(cm.decompression_cost(&shared_huff) > 0.0);
    }

    #[test]
    fn constant_comparison_free_when_supported() {
        let stats = stats3();
        let mut w = Workload::new();
        w.push(ContainerId(0), None, PredOp::Eq);
        let m = w.matrices(3);
        let cm = CostModel::new(&stats, &m);
        let huff = Configuration::singletons(
            &[ContainerId(0), ContainerId(1), ContainerId(2)],
            CodecKind::Huffman,
        );
        assert_eq!(cm.decompression_cost(&huff), 0.0);
        let blz =
            Configuration::singletons(&[ContainerId(0), ContainerId(1), ContainerId(2)], CodecKind::Blz);
        assert!(cm.decompression_cost(&blz) > 0.0);
    }

    #[test]
    fn predictions_reconstruct_storage_cost() {
        let stats = stats3();
        let w = Workload::new();
        let m = w.matrices(3);
        let cm = CostModel::new(&stats, &m);
        let cfg = Configuration {
            groups: vec![
                Group { containers: vec![ContainerId(1), ContainerId(0)], alg: CodecKind::Alm },
                Group { containers: vec![ContainerId(2)], alg: CodecKind::Huffman },
            ],
        };
        let preds = cm.predict(&cfg);
        assert_eq!(preds.len(), 3);
        assert!(preds.windows(2).all(|w| w[0].container < w[1].container));
        assert!(preds.iter().all(|p| p.ratio.is_finite() && p.ratio > 0.0));
        // Summing ratio * plain_bytes per container plus one model per group
        // reproduces the model's own storage cost exactly.
        let mut total = 0.0;
        let mut models: HashMap<usize, usize> = HashMap::new();
        for p in &preds {
            total += p.ratio * stats[p.container.0 as usize].plain_bytes as f64;
            models.insert(p.group, p.group_model_bytes);
        }
        total += models.values().map(|&m| m as f64).sum::<f64>();
        let direct = cm.storage_cost(&cfg);
        assert!((total - direct).abs() < 1e-9, "{total} vs {direct}");
    }

    /// A group costed in two container orders gets each container's own
    /// ratio both times, whichever order filled the cache.
    #[test]
    fn group_profile_follows_caller_order() {
        let stats = stats3();
        let w = Workload::new();
        let m = w.matrices(3);
        let cm = CostModel::new(&stats, &m);
        let forward = [ContainerId(2), ContainerId(0), ContainerId(1)];
        let backward = [ContainerId(1), ContainerId(0), ContainerId(2)];
        let (a, model_a) = cm.group_profile(&forward, CodecKind::Huffman);
        let (b, model_b) = cm.group_profile(&backward, CodecKind::Huffman);
        assert_eq!(model_a, model_b);
        assert_eq!(a, [b[2], b[1], b[0]]);
        // The numbers are those of a fresh model asked in sorted order.
        let fresh = CostModel::new(&stats, &m);
        let (sorted, _) = fresh.group_profile(&[ContainerId(0), ContainerId(1), ContainerId(2)], CodecKind::Huffman);
        assert_eq!(a, [sorted[2], sorted[0], sorted[1]]);
        // Distinct containers really have distinct ratios here, so a
        // misordered cache entry could not pass the checks above.
        assert!(sorted[0] != sorted[2] && sorted[1] != sorted[2], "{sorted:?}");
    }

    #[test]
    fn storage_cost_reflects_compressibility() {
        let stats = stats3();
        let w = Workload::new();
        let m = w.matrices(3);
        let cm = CostModel::new(&stats, &m);
        let raw = Configuration::singletons(
            &[ContainerId(0), ContainerId(1), ContainerId(2)],
            CodecKind::Raw,
        );
        let alm = Configuration::singletons(
            &[ContainerId(0), ContainerId(1), ContainerId(2)],
            CodecKind::Alm,
        );
        let s_raw = cm.storage_cost(&raw);
        let s_alm = cm.storage_cost(&alm);
        assert!(s_alm < s_raw, "alm {s_alm} vs raw {s_raw}");
    }
}
