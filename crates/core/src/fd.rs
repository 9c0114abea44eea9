//! RECEIPT FD — Fine-grained Decomposition (Algorithm 4).
//!
//! Each coarse subset `U_i` is peeled *independently*: a worker induces the
//! subgraph `G_i = G[U_i ∪ V]`, initializes supports from the `⋈init`
//! snapshot, and runs sequential bottom-up peeling with a k-way min-heap.
//! Workers pull subset ids from a shared queue (dynamic allocation) that is
//! pre-sorted by descending induced-wedge count (workload-aware scheduling,
//! §3.2.1 — the LPT heuristic of Figure 3). The only synchronization is the
//! final join: FD contributes zero peeling rounds to ρ.
//!
//! The per-subset peel is [`crate::bup::peel_live`]. It drops each peeled
//! vertex from the subgraph's adjacency as it goes, which is the paper's
//! DGM (§4.2) done eagerly, and probes hub lists instead of scanning them.
//! So FD has no HUC or DGM of its own: [`Config::huc`] and [`Config::dgm`]
//! govern CD only.

use crate::bup::peel_live;
use crate::cd::CoarseResult;
use crate::config::Config;
use crate::TipDecomposition;
use bigraph::{InducedGraph, SideGraph, VertexId};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Instant;

/// Peels every coarse subset and assembles the final tip numbers.
pub fn fine_decompose(
    view: SideGraph<'_>,
    coarse: CoarseResult,
    config: &Config,
) -> TipDecomposition {
    let t0 = Instant::now();
    let n = view.num_primary();
    let CoarseResult {
        side,
        bounds: _bounds,
        subsets,
        init_support,
        mut metrics,
    } = coarse;

    // Workload-aware scheduling: order subsets by descending induced-wedge
    // estimate so the heaviest tasks start first.
    let weights = induced_wedge_estimates(view, &subsets);
    let mut order: Vec<usize> = (0..subsets.len()).collect();
    order.sort_unstable_by(|&a, &b| weights[b].cmp(&weights[a]).then(a.cmp(&b)));

    let threads = config.effective_threads().max(1).min(subsets.len().max(1));
    let next = AtomicUsize::new(0);
    let wedges_fd = AtomicU64::new(0);
    let results: Mutex<Vec<(VertexId, u64)>> = Mutex::new(Vec::with_capacity(n));
    let arity = config.heap_arity;

    // rayon::scope (not std::thread::scope) for two reasons: the workers
    // run as pool jobs — reused threads, no per-call spawning — and they
    // inherit the ambient pool budget, so nested parallel work inside a
    // subset splits by the configured thread count instead of falling
    // back to all cores. Scheduling is two-level: this scope's worker
    // tasks are external submissions (they enter the pool's shared
    // injector once, then the `next` counter hands out subset ids
    // dynamically, heaviest first), while any parallel work *inside* a
    // subset forks adaptively on the executing worker — jobs land on its
    // own deque and idle workers steal them, which is what rebalances the
    // skewed per-subset workloads the coarse ordering can't predict.
    rayon::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|_| {
                let mut local: Vec<(VertexId, u64)> = Vec::new();
                let mut local_wedges = 0u64;
                loop {
                    let slot = next.fetch_add(1, Ordering::Relaxed);
                    if slot >= order.len() {
                        break;
                    }
                    let subset = &subsets[order[slot]];
                    if subset.is_empty() {
                        continue;
                    }
                    let induced = InducedGraph::new(view, subset);
                    let sup: Vec<u64> = subset.iter().map(|&u| init_support[u as usize]).collect();
                    let (tips_local, wedges) = peel_live(induced.view(), &sup, arity);
                    local_wedges += wedges;
                    for (local_id, &theta) in tips_local.iter().enumerate() {
                        local.push((induced.primary_global(local_id as VertexId), theta));
                    }
                }
                wedges_fd.fetch_add(local_wedges, Ordering::Relaxed);
                results.lock().append(&mut local);
            });
        }
    });

    let mut tip = vec![0u64; n];
    let mut assigned = vec![false; n];
    for (u, theta) in results.into_inner() {
        debug_assert!(!assigned[u as usize], "vertex {u} peeled twice");
        assigned[u as usize] = true;
        tip[u as usize] = theta;
    }
    debug_assert!(assigned.iter().all(|&a| a), "every vertex must be peeled");

    metrics.wedges_fd = wedges_fd.into_inner();
    metrics.time_fd = t0.elapsed();

    TipDecomposition { side, tip, metrics }
}

/// Estimated wedges inside each induced subgraph: `Σ_s d_s(d_s − 1)` where
/// `d_s` is a secondary vertex's degree restricted to the subset. One O(m)
/// sweep total, reusing a dense per-secondary counter.
fn induced_wedge_estimates(view: SideGraph<'_>, subsets: &[Vec<VertexId>]) -> Vec<u64> {
    let mut deg = vec![0u64; view.num_secondary()];
    let mut touched: Vec<VertexId> = Vec::new();
    subsets
        .iter()
        .map(|subset| {
            for &u in subset {
                for &s in view.neighbors_primary(u) {
                    if deg[s as usize] == 0 {
                        touched.push(s);
                    }
                    deg[s as usize] += 1;
                }
            }
            let mut total = 0u64;
            for &s in &touched {
                let d = deg[s as usize];
                deg[s as usize] = 0;
                total += d * (d - 1);
            }
            touched.clear();
            total
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cd::coarse_decompose;
    use bigraph::builder::from_edges;
    use bigraph::{gen, Side};

    #[test]
    fn fd_respects_coarse_bounds() {
        let g = gen::zipf(80, 40, 500, 0.5, 0.9, 5);
        let cfg = Config::default().with_partitions(8);
        let coarse = coarse_decompose(&g, Side::U, &cfg);
        let bounds = coarse.bounds.clone();
        let subsets = coarse.subsets.clone();
        let d = fine_decompose(g.view(Side::U), coarse, &cfg);
        for (i, subset) in subsets.iter().enumerate() {
            for &u in subset {
                let t = d.tip[u as usize];
                assert!(
                    bounds[i] <= t && t < bounds[i + 1],
                    "θ_{u}={t} outside [{}, {})",
                    bounds[i],
                    bounds[i + 1]
                );
            }
        }
    }

    #[test]
    fn induced_wedge_estimates_match_definition() {
        let g = from_edges(4, 3, &[(0, 0), (1, 0), (1, 1), (2, 1), (3, 2)]).unwrap();
        let view = g.view(Side::U);
        let est = induced_wedge_estimates(view, &[vec![0, 1, 2], vec![3]]);
        // Subset {0,1,2}: v0 degree 2 (u0,u1) -> 2 wedges; v1 degree 2 -> 2.
        assert_eq!(est, vec![4, 0]);
    }

    #[test]
    fn single_thread_matches_many_threads() {
        let g = gen::zipf(100, 50, 700, 0.5, 0.8, 9);
        let mk = |threads| {
            let cfg = Config::default().with_partitions(10).with_threads(threads);
            let coarse = coarse_decompose(&g, Side::U, &cfg);
            fine_decompose(g.view(Side::U), coarse, &cfg).tip
        };
        assert_eq!(mk(1), mk(4));
    }

    #[test]
    fn fd_wedges_do_not_exceed_cd_peel_wedges() {
        // Induced subgraphs only contain a subset of the original wedges;
        // FD traversal must be at most the no-DGM CD traversal (§3).
        let g = gen::zipf(90, 45, 600, 0.5, 0.9, 13);
        let cfg = Config::default().with_partitions(6).baseline_variant();
        let coarse = coarse_decompose(&g, Side::U, &cfg);
        let cd_wedges = coarse.metrics.wedges_cd;
        let d = fine_decompose(g.view(Side::U), coarse, &cfg);
        assert!(
            d.metrics.wedges_fd <= cd_wedges,
            "FD {} > CD {}",
            d.metrics.wedges_fd,
            cd_wedges
        );
    }
}
