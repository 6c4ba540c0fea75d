//! Greedy search for a compression configuration (§3.3).
//!
//! The search space — all partitions of the container set crossed with all
//! algorithm assignments — is exponential (a Bell number times `|A|^|P|`),
//! so XQueC walks it greedily: starting from singleton sets under a generic
//! algorithm (bzip-family), it draws workload predicates and, for each,
//! considers (a) re-assigning the involved set an algorithm that evaluates
//! the predicate compressed, (b) extracting the two containers into a fresh
//! shared set, or (c) merging their two sets; the cheapest of the candidate
//! configurations (per [`CostModel`]) survives. Complexity is linear in
//! `|Pred|`; like the paper's strategy it yields a locally optimal solution.

use crate::cost::{Configuration, CostModel, Group};
use crate::par::par_map;
use crate::workload::{PredOp, Workload};
use xquec_compress::CodecKind;

/// The default algorithm pool `A` (the paper's Huffman/ALM/bzip, plus the
/// order-preserving alternatives our ablations exercise).
pub const DEFAULT_POOL: &[CodecKind] =
    &[CodecKind::Huffman, CodecKind::Alm, CodecKind::Blz];

/// Does `alg` evaluate predicates of class `op` in the compressed domain?
fn supports(alg: CodecKind, op: PredOp) -> bool {
    let p = alg.properties();
    match op {
        PredOp::Eq => p.eq,
        PredOp::Ineq => p.ineq,
        PredOp::Wild => p.wild,
    }
}

/// Algorithms of [`DEFAULT_POOL`] that enable `op`, "having the greatest
/// number of algorithmic properties holding true" first.
fn candidates(op: PredOp) -> Vec<CodecKind> {
    let mut c: Vec<CodecKind> = DEFAULT_POOL.iter().copied().filter(|&a| supports(a, op)).collect();
    c.sort_by(|a, b| {
        b.property_count()
            .cmp(&a.property_count())
            .then(a.decompression_cost().partial_cmp(&b.decompression_cost()).expect("finite"))
    });
    c
}

/// Run the greedy search over the textual containers touched by `workload`,
/// drawing algorithms from [`DEFAULT_POOL`].
///
/// Returns the chosen configuration. Containers not referenced by any
/// predicate are *not* in the result; §3.3 prescribes compressing them with
/// an order-unaware algorithm with good ratios (bzip2) — the loader stores
/// them block-compressed.
///
/// The candidate configurations of each greedy step are costed on up to
/// `threads` worker threads (`0` = machine width). Costing a candidate
/// trains codecs on group samples, which dominates the search; the
/// candidates of one step are independent, so they fan out while the
/// winner selection stays sequential in move order — the chosen
/// configuration is the same for every thread count.
pub fn choose_configuration(
    cost_model: &CostModel<'_>,
    workload: &Workload,
    threads: usize,
) -> Configuration {
    let touched = workload.touched();
    let mut current = Configuration::singletons(&touched, CodecKind::Blz);
    if touched.is_empty() {
        return current;
    }
    let mut current_cost = cost_model.cost(&current);

    // "Randomly extracting a predicate from Pred": a fixed xorshift shuffle
    // keeps runs reproducible while matching the random-draw exploration.
    let mut order: Vec<usize> = (0..workload.predicates.len()).collect();
    let mut x = 0x9E37_79B9u32;
    for i in (1..order.len()).rev() {
        x ^= x << 13;
        x ^= x >> 17;
        x ^= x << 5;
        order.swap(i, (x as usize) % (i + 1));
    }

    for &pi in &order {
        let pred = workload.predicates[pi];
        let ct_i = pred.left;
        let ct_j = pred.right.unwrap_or(pred.left);
        let algs = candidates(pred.op);
        if algs.is_empty() {
            continue;
        }
        let gi = current.group_of(ct_i);
        let gj = current.group_of(ct_j);
        let mut moves: Vec<Configuration> = Vec::new();
        if gi == gj {
            // Re-assign the shared set an enabling algorithm.
            for &alg in &algs {
                let mut s = current.clone();
                s.groups[gi].alg = alg;
                moves.push(s);
            }
        } else {
            for &alg in &algs {
                // s': extract {ct_i, ct_j} into a fresh shared set.
                let mut s1 = current.clone();
                s1.groups[gi].containers.retain(|&c| c != ct_i);
                let gj1 = s1.group_of(ct_j);
                s1.groups[gj1].containers.retain(|&c| c != ct_j);
                s1.groups.retain(|g| !g.containers.is_empty());
                s1.groups.push(Group { containers: vec![ct_i, ct_j], alg });
                moves.push(s1);

                // s'': merge the two sets.
                let mut s2 = current.clone();
                let (a, b) = (gi.min(gj), gi.max(gj));
                let moved = s2.groups.remove(b).containers;
                s2.groups[a].containers.extend(moved);
                s2.groups[a].alg = alg;
                moves.push(s2);
            }
        }
        // Cost every candidate in parallel, then pick the winner with the
        // exact sequential rule (first strict improvement in move order, each
        // later move compared against the improved bound).
        let costs = par_map(threads, &moves, |_, m| cost_model.cost(m));
        for (m, c) in moves.into_iter().zip(costs) {
            if c < current_cost {
                current = m;
                current_cost = c;
            }
        }
    }
    current
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::ContainerId;
    use crate::stats::ContainerStats;

    fn mk_stats(corpora: &[Vec<String>]) -> Vec<ContainerStats> {
        corpora
            .iter()
            .map(|c| ContainerStats::from_values(c.iter().map(|s| s.as_str())))
            .collect()
    }

    /// The §3.3 flavour: similar prose containers under an inequality
    /// workload should end up sharing an order-preserving model, while a
    /// dissimilar numeric-ish container stays apart.
    #[test]
    fn greedy_groups_similar_containers_for_inequality() {
        let prose1: Vec<String> =
            (0..80).map(|i| format!("to be or not to be question {}", i % 11)).collect();
        let prose2: Vec<String> =
            (0..80).map(|i| format!("all the world is a stage act {}", i % 11)).collect();
        let dates: Vec<String> = (0..80).map(|i| format!("12/{:02}/1999", (i % 28) + 1)).collect();
        let stats = mk_stats(&[prose1, prose2, dates]);

        let mut w = Workload::new();
        // Inequalities joining the two prose containers, and on dates alone.
        for _ in 0..4 {
            w.push(ContainerId(0), Some(ContainerId(1)), PredOp::Ineq);
        }
        w.push(ContainerId(2), None, PredOp::Ineq);
        let m = w.matrices(3);
        let cm = CostModel::new(&stats, &m);
        let cfg = choose_configuration(&cm, &w, 1);

        // Both prose containers share a group with an ineq-capable codec.
        let g0 = cfg.group_of(ContainerId(0));
        assert_eq!(g0, cfg.group_of(ContainerId(1)), "{cfg:?}");
        assert!(cfg.groups[g0].alg.properties().ineq, "{cfg:?}");
        // Dates are ineq-queried too, so their codec is also order-capable.
        let g2 = cfg.group_of(ContainerId(2));
        assert!(cfg.groups[g2].alg.properties().ineq, "{cfg:?}");
    }

    #[test]
    fn equality_only_workload_picks_eq_codec() {
        let ids: Vec<String> = (0..100).map(|i| format!("person{i}")).collect();
        let refs: Vec<String> = (0..100).map(|i| format!("person{}", i % 50)).collect();
        let stats = mk_stats(&[ids, refs]);
        let mut w = Workload::new();
        for _ in 0..3 {
            w.push(ContainerId(0), Some(ContainerId(1)), PredOp::Eq);
        }
        let m = w.matrices(2);
        let cm = CostModel::new(&stats, &m);
        let cfg = choose_configuration(&cm, &w, 1);
        let g = cfg.group_of(ContainerId(0));
        assert_eq!(g, cfg.group_of(ContainerId(1)), "join sides share a model: {cfg:?}");
        assert!(cfg.groups[g].alg.properties().eq, "{cfg:?}");
    }

    #[test]
    fn untouched_containers_not_in_configuration() {
        let stats = mk_stats(&[
            (0..10).map(|i| format!("v{i}")).collect(),
            (0..10).map(|i| format!("w{i}")).collect(),
        ]);
        let mut w = Workload::new();
        w.push(ContainerId(0), None, PredOp::Eq);
        let m = w.matrices(2);
        let cm = CostModel::new(&stats, &m);
        let cfg = choose_configuration(&cm, &w, 1);
        assert!(cfg.groups.iter().all(|g| !g.containers.contains(&ContainerId(1))));
    }

    #[test]
    fn empty_workload_is_empty_configuration() {
        let stats = mk_stats(&[]);
        let w = Workload::new();
        let m = w.matrices(0);
        let cm = CostModel::new(&stats, &m);
        let cfg = choose_configuration(&cm, &w, 1);
        assert!(cfg.groups.is_empty());
    }
}
