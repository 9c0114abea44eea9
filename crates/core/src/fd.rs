//! RECEIPT FD — Fine-grained Decomposition (Algorithm 4).
//!
//! Each coarse subset `U_i` is peeled *independently*: a worker induces the
//! subgraph `G_i = G[U_i ∪ V]`, initializes supports from the `⋈init`
//! snapshot, and runs sequential bottom-up peeling with a k-way min-heap.
//! The only synchronization is the final join: FD contributes zero peeling
//! rounds to ρ.
//!
//! The scheduler, `schedule_subsets`, exists once and also runs wing FD
//! (`crate::wing_parallel`, §7): workers pull subset ids from one shared
//! counter (dynamic allocation) over an order pre-sorted by descending
//! weight — here each subset's induced-wedge count (workload-aware
//! scheduling, §3.2.1 — the LPT heuristic of Figure 3).
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
        subsets,
        init_support,
        mut metrics,
        ..
    } = coarse;

    let weights = induced_wedge_estimates(view, &subsets);
    let (results, wedges_fd) = schedule_subsets(&weights, config.effective_threads(), |i, out| {
        let subset = &subsets[i];
        let induced = InducedGraph::new(view, subset);
        let sup: Vec<u64> = subset.iter().map(|&u| init_support[u as usize]).collect();
        let (tips_local, wedges) = peel_live(induced.view(), &sup, config.heap_arity);
        for (local_id, &theta) in tips_local.iter().enumerate() {
            out.push((induced.primary_global(local_id as VertexId), theta));
        }
        wedges
    });

    let mut tip = vec![0u64; n];
    let mut assigned = vec![false; n];
    for (u, theta) in results.into_iter().flatten() {
        debug_assert!(!assigned[u as usize], "vertex {u} peeled twice");
        assigned[u as usize] = true;
        tip[u as usize] = theta;
    }
    debug_assert!(assigned.iter().all(|&a| a), "every vertex must be peeled");

    metrics.wedges_fd = wedges_fd;
    metrics.time_fd = t0.elapsed();

    TipDecomposition { side, tip, metrics }
}

/// Runs `task(i, out)` once for every subset `i`, heaviest `weights[i]`
/// first, ties by index, on `threads.min(weights.len())` workers that pull
/// subset ids from one counter. A task pushes its results to `out`, the
/// worker's own buffer, and returns its work; each worker hands its
/// buffer over once. Returns the workers' buffers, in no set order, and
/// the summed work.
pub(crate) fn schedule_subsets<T: Send>(
    weights: &[u64],
    threads: usize,
    task: impl Fn(usize, &mut Vec<T>) -> u64 + Sync,
) -> (Vec<Vec<T>>, u64) {
    let mut order: Vec<usize> = (0..weights.len()).collect();
    order.sort_unstable_by(|&a, &b| weights[b].cmp(&weights[a]).then(a.cmp(&b)));
    let next = AtomicUsize::new(0);
    let work = AtomicU64::new(0);
    let results: Mutex<Vec<Vec<T>>> = Mutex::new(Vec::new());

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
        for _ in 0..threads.min(order.len()) {
            scope.spawn(|_| {
                let mut local: Vec<T> = Vec::new();
                let mut local_work = 0u64;
                while let Some(&i) = order.get(next.fetch_add(1, Ordering::Relaxed)) {
                    local_work += task(i, &mut local);
                }
                work.fetch_add(local_work, Ordering::Relaxed);
                results.lock().push(local);
            });
        }
    });
    (results.into_inner(), work.into_inner())
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
    fn scheduler_dispatches_heaviest_first_at_one_thread() {
        let weights = [3u64, 9, 3, 0, 9, 1];
        let (order, work) = parutil::with_pool(1, || {
            schedule_subsets(&weights, 1, |i, out| {
                out.push(i);
                weights[i]
            })
        });
        assert_eq!(order, vec![vec![1, 4, 0, 2, 5, 3]]);
        assert_eq!(work, 25);
    }

    #[test]
    fn scheduler_runs_every_subset_once_and_collects_every_worker() {
        let weights: Vec<u64> = (0..40).map(|i| (i * 7 % 11) as u64).collect();
        for threads in [1, 2, 3, 8, 64] {
            let runs: Vec<AtomicUsize> = weights.iter().map(|_| AtomicUsize::new(0)).collect();
            let (buffers, work) = parutil::with_pool(4, || {
                schedule_subsets(&weights, threads, |i, out| {
                    runs[i].fetch_add(1, Ordering::Relaxed);
                    out.extend([2 * i, 2 * i + 1]);
                    1
                })
            });
            assert!(
                runs.iter().all(|r| r.load(Ordering::Relaxed) == 1),
                "{threads} threads"
            );
            assert!(buffers.len() <= threads, "{threads} threads");
            let mut out = buffers.concat();
            out.sort_unstable();
            assert_eq!(
                out,
                (0..2 * weights.len()).collect::<Vec<_>>(),
                "{threads} threads"
            );
            assert_eq!(work, weights.len() as u64);
        }
        let (none, work) = schedule_subsets::<u32>(&[], 4, |_, _| unreachable!());
        assert!(none.is_empty());
        assert_eq!(work, 0);
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
