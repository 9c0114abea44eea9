//! RECEIPT-style parallel wing decomposition — the §7 extension, fully
//! worked out.
//!
//! The vertex machinery carries over with one extra care point the paper
//! calls out: *"there could be conflicts during parallel edge peeling as
//! multiple edges in a butterfly could get deleted in the same iteration.
//! Only one of the peeled edges should update the support of other edges
//! in the butterfly, which can be achieved by imposing a priority ordering
//! of edges."* We use the edge id (primary-CSR position) as that priority:
//! within one coarse iteration, a dying butterfly is propagated only by
//! its minimum-id peeled edge.
//!
//! The fine phase differs from vertex FD in one structural way: a
//! butterfly has **four** edges, so induced "subgraphs" on an edge subset
//! would lose butterflies that straddle subsets. Instead, each fine task
//! peels its subset on the *full* graph, treating a butterfly as live iff
//! every edge of it belongs to a subset with an equal-or-higher range
//! (same-range edges must additionally still be unpeeled). Tasks read only
//! the immutable subset labels plus their own heap, so they stay
//! independent and lock-free.

use crate::heap::IndexedMinHeap;
use crate::wing::{EdgeIndex, WingDecomposition};
use bigraph::{SideGraph, VertexId};
use parking_lot::Mutex;
use parutil::saturating_sub_floor;
use rayon::prelude::*;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Metrics for a parallel wing decomposition run.
#[derive(Debug, Clone, Default, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct WingMetrics {
    /// Butterfly-enumeration work (merge steps) in the coarse phase.
    pub work_cd: u64,
    /// Same, fine phase.
    pub work_fd: u64,
    /// Coarse peeling iterations (synchronization rounds).
    pub sync_rounds: u64,
    /// Edge subsets produced.
    pub partitions_used: usize,
}

/// Parallel wing decomposition of the primary-side edges.
///
/// Produces exactly the wing numbers of [`crate::wing::wing_decompose`]
/// (sequential bottom-up edge peeling), computed with RECEIPT's two-phase
/// structure. `partitions` plays the role of `P`.
pub fn receipt_wing_decompose(
    view: SideGraph<'_>,
    partitions: usize,
    heap_arity: usize,
) -> (WingDecomposition, WingMetrics) {
    let m = view.num_edges();
    let p_target = partitions.max(1);
    let index = EdgeIndex::new(view);
    let edges: Vec<(VertexId, VertexId)> = (0..view.num_primary() as VertexId)
        .flat_map(|u| view.neighbors_primary(u).iter().map(move |&v| (u, v)))
        .collect();

    // ---- Support initialization: parallel per-edge butterfly counts ----
    let counts = butterfly::per_edge::par_per_edge_counts(view);
    let support: Vec<AtomicU64> = counts.iter().map(|&c| AtomicU64::new(c)).collect();
    // Subset label per edge; u32::MAX = still unassigned (alive).
    const UNASSIGNED: u32 = u32::MAX;
    let subset_of: Vec<AtomicU64> = (0..m).map(|_| AtomicU64::new(UNASSIGNED as u64)).collect();
    // Iteration stamp: edges peeled in the *current* coarse iteration.
    let stamp: Vec<AtomicU64> = (0..m).map(|_| AtomicU64::new(u64::MAX)).collect();

    // Work proxy per edge for range balancing: its wedge-enumeration cost.
    let w: Vec<u64> = edges
        .par_iter()
        .map(|&(u, v)| (view.deg_primary(u) + view.deg_secondary(v)) as u64)
        .collect();
    let mut remaining_w: u64 = w.iter().sum();

    let mut init_support = vec![0u64; m];
    let mut subsets: Vec<Vec<u32>> = Vec::new();
    let mut bounds: Vec<u64> = vec![0];
    let mut live = m;
    // The unassigned edges, ascending, pruned at the top of each subset;
    // and findHi's `(support, work)` pairs, one per unassigned edge.
    let mut live_edges: Vec<u32> = (0..m as u32).collect();
    let mut pairs: Vec<(u64, u64)> = Vec::with_capacity(m);
    let work_cd = AtomicU64::new(0);
    let mut rounds = 0u64;
    let mut scale = 1.0f64;

    let is_alive =
        |e: u32| -> bool { subset_of[e as usize].load(Ordering::Relaxed) == UNASSIGNED as u64 };

    // ---- Coarse phase ----
    for i in 0..p_target {
        if live == 0 {
            break;
        }
        let theta_lo = *bounds.last().expect("non-empty");
        // Snapshot ⋈init for alive edges.
        live_edges.retain(|&e| is_alive(e));
        pairs.clear();
        for &e in &live_edges {
            let s = support[e as usize].load(Ordering::Relaxed);
            init_support[e as usize] = s;
            pairs.push((s, w[e as usize]));
        }
        // Range bound.
        let parts_left = (p_target - i) as u64;
        let tgt = (((remaining_w.div_ceil(parts_left)).max(1) as f64) * scale).max(1.0) as u64;
        let hi = crate::cd::find_hi(&mut pairs, tgt, theta_lo);

        let mut active: Vec<u32> = live_edges
            .iter()
            .copied()
            .filter(|&e| support[e as usize].load(Ordering::Relaxed) < hi)
            .collect();
        let mut subset: Vec<u32> = Vec::new();
        let mut iter_id = 0u64;
        while !active.is_empty() {
            rounds += 1;
            let cur_stamp = (i as u64) << 32 | iter_id;
            iter_id += 1;
            for &e in &active {
                subset_of[e as usize].store(i as u64, Ordering::Relaxed);
                stamp[e as usize].store(cur_stamp, Ordering::Relaxed);
            }
            live -= active.len();
            subset.extend_from_slice(&active);

            // Propagate dying butterflies, min-peeled-edge as representative.
            let updated: Vec<u32> = active
                .par_iter()
                .fold(Vec::new, |mut acc, &e| {
                    let wk = propagate_edge_peel(
                        view,
                        &index,
                        &edges,
                        e,
                        theta_lo,
                        &support,
                        |f| subset_of[f as usize].load(Ordering::Relaxed),
                        |f| stamp[f as usize].load(Ordering::Relaxed),
                        cur_stamp,
                        i as u64,
                        UNASSIGNED as u64,
                        &mut acc,
                    );
                    work_cd.fetch_add(wk, Ordering::Relaxed);
                    acc
                })
                .reduce(Vec::new, |mut a, mut b| {
                    a.append(&mut b);
                    a
                });

            let mut next: Vec<u32> = updated
                .into_iter()
                .filter(|&f| is_alive(f) && support[f as usize].load(Ordering::Relaxed) < hi)
                .collect();
            next.sort_unstable();
            next.dedup();
            active = next;
        }

        let subset_w: u64 = subset.iter().map(|&e| w[e as usize]).sum();
        remaining_w = remaining_w.saturating_sub(subset_w);
        scale = if subset_w > 0 {
            (tgt as f64 / subset_w as f64).min(1.0)
        } else {
            1.0
        };
        bounds.push(hi);
        subsets.push(subset);
    }
    if live > 0 {
        live_edges.retain(|&e| is_alive(e));
        let last = subsets.len() as u64;
        for &e in &live_edges {
            init_support[e as usize] = support[e as usize].load(Ordering::Relaxed);
            subset_of[e as usize].store(last, Ordering::Relaxed);
        }
        subsets.push(live_edges);
        bounds.push(u64::MAX);
    }

    // ---- Fine phase: independent per-subset refinement ----
    let subset_label: Vec<u64> = subset_of
        .iter()
        .map(|s| s.load(Ordering::Relaxed))
        .collect();
    let next_task = AtomicUsize::new(0);
    let work_fd = AtomicU64::new(0);
    let results: Mutex<Vec<(u32, u64)>> = Mutex::new(Vec::with_capacity(m));
    // Workload-aware ordering: heaviest subsets first.
    let mut order: Vec<usize> = (0..subsets.len()).collect();
    let weight = |i: usize| -> u64 { subsets[i].iter().map(|&e| w[e as usize]).sum() };
    let weights: Vec<u64> = (0..subsets.len()).map(weight).collect();
    order.sort_unstable_by(|&a, &b| weights[b].cmp(&weights[a]).then(a.cmp(&b)));

    let threads = rayon::current_num_threads().min(subsets.len().max(1));
    // rayon::scope: workers run as pool jobs and inherit the ambient pool
    // budget; subset refinement inside a worker forks adaptively onto the
    // worker's own deque, where idle workers steal it (see fd.rs).
    rayon::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|_| {
                let mut local: Vec<(u32, u64)> = Vec::new();
                let mut local_work = 0u64;
                loop {
                    let slot = next_task.fetch_add(1, Ordering::Relaxed);
                    if slot >= order.len() {
                        break;
                    }
                    let sid = order[slot];
                    let subset = &subsets[sid];
                    if subset.is_empty() {
                        continue;
                    }
                    local_work += refine_wing_subset(
                        view,
                        &index,
                        &edges,
                        subset,
                        sid as u64,
                        &subset_label,
                        &init_support,
                        heap_arity,
                        &mut local,
                    );
                }
                work_fd.fetch_add(local_work, Ordering::Relaxed);
                results.lock().append(&mut local);
            });
        }
    });

    let mut wing = vec![0u64; m];
    for (e, theta) in results.into_inner() {
        wing[e as usize] = theta;
    }

    let metrics = WingMetrics {
        work_cd: work_cd.into_inner(),
        work_fd: work_fd.into_inner(),
        sync_rounds: rounds,
        partitions_used: subsets.len(),
    };
    (
        WingDecomposition {
            edges,
            wing,
            work: metrics.work_cd + metrics.work_fd,
        },
        metrics,
    )
}

/// Coarse-phase butterfly propagation for one peeled edge `e = (u, v)`:
/// enumerates live butterflies through `e`, skips butterflies already
/// destroyed in earlier iterations, and — when several current-iteration
/// edges share the butterfly — lets only the minimum-id one apply the
/// decrements. Collects updated alive edges into `acc`; returns the
/// enumeration work.
#[allow(clippy::too_many_arguments)]
fn propagate_edge_peel(
    view: SideGraph<'_>,
    index: &EdgeIndex,
    edges: &[(VertexId, VertexId)],
    e: u32,
    floor: u64,
    support: &[AtomicU64],
    subset_of: impl Fn(u32) -> u64,
    stamp_of: impl Fn(u32) -> u64,
    cur_stamp: u64,
    cur_subset: u64,
    unassigned: u64,
    acc: &mut Vec<u32>,
) -> u64 {
    let (u, v) = edges[e as usize];
    let mut work = 0u64;
    // Edge state: alive, peeled-now (this iteration), or dead-prior.
    let state = |f: u32| -> EdgeState {
        let s = subset_of(f);
        if s == unassigned {
            EdgeState::Alive
        } else if s == cur_subset && stamp_of(f) == cur_stamp {
            EdgeState::PeeledNow
        } else {
            EdgeState::DeadPrior
        }
    };
    for &v2 in view.neighbors_primary(u) {
        if v2 == v {
            continue;
        }
        let Some(e_uv2) = index.id(view, u, v2) else {
            continue;
        };
        let e_uv2 = e_uv2 as u32;
        let s_uv2 = state(e_uv2);
        if s_uv2 == EdgeState::DeadPrior {
            continue;
        }
        let (nv, nv2) = (view.neighbors_secondary(v), view.neighbors_secondary(v2));
        let (mut i, mut j) = (0, 0);
        while i < nv.len() && j < nv2.len() {
            work += 1;
            match nv[i].cmp(&nv2[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    let u2 = nv[i];
                    i += 1;
                    j += 1;
                    if u2 == u {
                        continue;
                    }
                    let (Some(e3), Some(e4)) = (index.id(view, u2, v), index.id(view, u2, v2))
                    else {
                        continue;
                    };
                    let (e3, e4) = (e3 as u32, e4 as u32);
                    let (s3, s4) = (state(e3), state(e4));
                    if s3 == EdgeState::DeadPrior || s4 == EdgeState::DeadPrior {
                        continue; // butterfly already gone
                    }
                    // Representative: minimum id among this iteration's
                    // peeled edges of the butterfly.
                    let mut min_peeled = e;
                    for (f, s) in [(e_uv2, s_uv2), (e3, s3), (e4, s4)] {
                        if s == EdgeState::PeeledNow && f < min_peeled {
                            min_peeled = f;
                        }
                    }
                    if min_peeled != e {
                        continue;
                    }
                    for (f, s) in [(e_uv2, s_uv2), (e3, s3), (e4, s4)] {
                        if s == EdgeState::Alive {
                            let prev = saturating_sub_floor(&support[f as usize], 1, floor);
                            if prev > floor {
                                acc.push(f);
                            }
                        }
                    }
                }
            }
        }
    }
    work
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EdgeState {
    Alive,
    PeeledNow,
    DeadPrior,
}

/// Fine-phase refinement of one edge subset: sequential bottom-up peeling
/// where a butterfly is live iff all its edges carry a subset label
/// `≥ sid`, same-label ones still in the heap.
#[allow(clippy::too_many_arguments)]
fn refine_wing_subset(
    view: SideGraph<'_>,
    index: &EdgeIndex,
    edges: &[(VertexId, VertexId)],
    subset: &[u32],
    sid: u64,
    subset_label: &[u64],
    init_support: &[u64],
    heap_arity: usize,
    out: &mut Vec<(u32, u64)>,
) -> u64 {
    // Local dense ids for the heap.
    let mut local_of: std::collections::HashMap<u32, u32> = std::collections::HashMap::new();
    for (l, &e) in subset.iter().enumerate() {
        local_of.insert(e, l as u32);
    }
    let keys: Vec<u64> = subset.iter().map(|&e| init_support[e as usize]).collect();
    let mut heap = IndexedMinHeap::new(heap_arity, &keys);
    let mut work = 0u64;

    while let Some((l, theta)) = heap.pop_min() {
        let e = subset[l as usize];
        out.push((e, theta));
        let (u, v) = edges[e as usize];
        // A partner edge is live if its subset is > sid, or == sid and
        // still in the heap. (Partners never equal `e` itself: they differ
        // from it in at least one endpoint.)
        // Some(Some(local)) = live same-subset; Some(None) = live higher
        // subset; None = dead.
        fn live(
            heap: &IndexedMinHeap,
            local_of: &std::collections::HashMap<u32, u32>,
            subset_label: &[u64],
            sid: u64,
            f: u32,
        ) -> Option<Option<u32>> {
            let s = subset_label[f as usize];
            if s > sid {
                Some(None)
            } else if s == sid {
                let lf = *local_of.get(&f).expect("same-subset edge is local");
                heap.contains(lf).then_some(Some(lf))
            } else {
                None
            }
        }
        for &v2 in view.neighbors_primary(u) {
            if v2 == v {
                continue;
            }
            let Some(e2) = index.id(view, u, v2) else {
                continue;
            };
            let Some(l2) = live(&heap, &local_of, subset_label, sid, e2 as u32) else {
                continue;
            };
            let (nv, nv2) = (view.neighbors_secondary(v), view.neighbors_secondary(v2));
            let (mut i, mut j) = (0, 0);
            while i < nv.len() && j < nv2.len() {
                work += 1;
                match nv[i].cmp(&nv2[j]) {
                    std::cmp::Ordering::Less => i += 1,
                    std::cmp::Ordering::Greater => j += 1,
                    std::cmp::Ordering::Equal => {
                        let u2 = nv[i];
                        i += 1;
                        j += 1;
                        if u2 == u {
                            continue;
                        }
                        let (Some(e3), Some(e4)) = (index.id(view, u2, v), index.id(view, u2, v2))
                        else {
                            continue;
                        };
                        let (Some(l3), Some(l4)) = (
                            live(&heap, &local_of, subset_label, sid, e3 as u32),
                            live(&heap, &local_of, subset_label, sid, e4 as u32),
                        ) else {
                            continue;
                        };
                        // Butterfly is live: decrement the same-subset
                        // partners (higher-subset edges are handled by
                        // their own task via ⋈init).
                        for lf in [l2, l3, l4].into_iter().flatten() {
                            if let Some(cur) = heap.key(lf) {
                                heap.decrease_key(lf, cur.saturating_sub(1).max(theta));
                            }
                        }
                    }
                }
            }
        }
    }
    work
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wing::wing_decompose;
    use bigraph::{gen, Side};

    fn check_matches_sequential(g: &bigraph::BipartiteCsr, p: usize) {
        let seq = wing_decompose(g.view(Side::U), 4);
        let (par, metrics) = receipt_wing_decompose(g.view(Side::U), p, 4);
        assert_eq!(seq.wing, par.wing, "P = {p}");
        assert!(metrics.partitions_used >= 1);
    }

    #[test]
    fn single_butterfly() {
        let g = bigraph::builder::from_edges(2, 2, &[(0, 0), (0, 1), (1, 0), (1, 1)]).unwrap();
        let (d, m) = receipt_wing_decompose(g.view(Side::U), 3, 4);
        assert_eq!(d.wing, vec![1, 1, 1, 1]);
        assert!(m.sync_rounds >= 1);
    }

    #[test]
    fn k33_all_four() {
        let mut e = Vec::new();
        for u in 0..3 {
            for v in 0..3 {
                e.push((u, v));
            }
        }
        let g = bigraph::builder::from_edges(3, 3, &e).unwrap();
        check_matches_sequential(&g, 1);
        check_matches_sequential(&g, 4);
    }

    #[test]
    fn matches_sequential_on_random_graphs() {
        for seed in 0..6 {
            let g = gen::uniform(14, 14, 70, seed);
            for p in [1usize, 2, 5, 50] {
                check_matches_sequential(&g, p);
            }
        }
    }

    #[test]
    fn matches_sequential_on_skewed_and_blocks() {
        check_matches_sequential(&gen::zipf(25, 15, 120, 0.4, 1.0, 3), 6);
        check_matches_sequential(&gen::planted_bicliques(16, 16, 2, 4, 4, 30, 5), 6);
    }

    #[test]
    fn deterministic_across_pool_sizes() {
        let g = gen::uniform(20, 20, 110, 9);
        let a = parutil::with_pool(1, || receipt_wing_decompose(g.view(Side::U), 5, 4));
        let b = parutil::with_pool(4, || receipt_wing_decompose(g.view(Side::U), 5, 4));
        assert_eq!(a.0.wing, b.0.wing);
        assert_eq!(a.1.sync_rounds, b.1.sync_rounds);
    }

    #[test]
    fn empty_graph() {
        let g = bigraph::BipartiteCsr::empty(3, 3);
        let (d, _) = receipt_wing_decompose(g.view(Side::U), 4, 4);
        assert!(d.wing.is_empty());
    }

    #[test]
    fn coarse_rounds_do_not_exceed_edge_count() {
        let g = gen::uniform(20, 20, 100, 1);
        let (_, m) = receipt_wing_decompose(g.view(Side::U), 8, 4);
        assert!(m.sync_rounds <= 100);
    }
}
