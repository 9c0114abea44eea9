//! RECEIPT-style parallel wing decomposition — the §7 extension, built
//! from the tip path's pieces.
//!
//! The coarse phase is CD's own outer loop, `cd::coarse_ranges`:
//! the same ⋈init snapshot, adaptive target and findHi over edges instead
//! of vertices. This module supplies only the peel round, with the one
//! extra care point the paper calls out: *"there could be conflicts during
//! parallel edge peeling as multiple edges in a butterfly could get
//! deleted in the same iteration. Only one of the peeled edges should
//! update the support of other edges in the butterfly, which can be
//! achieved by imposing a priority ordering of edges."* We use the edge id
//! ([`bigraph::SideGraph::edge_index`]) as that priority: within one
//! round, a dying butterfly is propagated only by its minimum-id peeled
//! edge.
//!
//! The fine phase runs on FD's scheduler, `fd::schedule_subsets`,
//! and differs from vertex FD in one structural way: a butterfly has
//! **four** edges, so induced "subgraphs" on an edge subset would lose
//! butterflies that straddle subsets. Instead, each fine task peels its
//! subset on the *full* graph, treating a butterfly as live iff every edge
//! of it belongs to a subset with an equal-or-higher range (same-range
//! edges must additionally still be unpeeled). Tasks read only the
//! immutable subset labels plus their own heap, so they stay independent
//! and lock-free. Both phases reach butterflies through
//! `wing::walk_butterflies`.

use crate::cd::{coarse_ranges, PeelRound};
use crate::fd::schedule_subsets;
use crate::heap::IndexedMinHeap;
use crate::support::SupportVec;
use crate::wing::{drop_butterfly, walk_butterflies, WingDecomposition};
use bigraph::{SideGraph, VertexId};
use rayon::prelude::*;

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
    let edges: Vec<(VertexId, VertexId)> = view.edges().collect();

    // ---- Coarse phase: CD's loop over parallel per-edge counts ----
    let support = SupportVec::from_counts(&butterfly::per_edge::par_per_edge_counts(view));
    // Work proxy per edge for range balancing: its wedge-enumeration cost.
    let w: Vec<u64> = edges
        .par_iter()
        .map(|&(u, v)| (view.deg_primary(u) + view.deg_secondary(v)) as u64)
        .collect();
    let mut round = WingRound {
        view,
        edges: &edges,
        peeled_in: vec![LIVE; m],
        round: 0,
        work: 0,
    };
    let coarse = coarse_ranges(&mut round, &support, &w, partitions.max(1));

    // ---- Fine phase: independent per-subset refinement ----
    // Each edge's subset and its position there, the fine heaps' ids.
    let (mut label, mut local) = (vec![0u32; m], vec![0u32; m]);
    for (sid, subset) in coarse.subsets.iter().enumerate() {
        for (l, &e) in subset.iter().enumerate() {
            label[e as usize] = sid as u32;
            local[e as usize] = l as u32;
        }
    }
    let fine = FineWing {
        view,
        edges: &edges,
        label: &label,
        local: &local,
        init_support: &coarse.init_support,
        heap_arity,
    };
    // Workload-aware ordering: heaviest subsets first.
    let weights: Vec<u64> = coarse
        .subsets
        .iter()
        .map(|subset| subset.iter().map(|&e| w[e as usize]).sum())
        .collect();
    let (results, work_fd) =
        schedule_subsets(&weights, rayon::current_num_threads(), |sid, out| {
            fine.refine(&coarse.subsets[sid], sid as u32, out)
        });

    let mut wing = vec![0u64; m];
    for (e, theta) in results.into_iter().flatten() {
        wing[e as usize] = theta;
    }

    let metrics = WingMetrics {
        work_cd: round.work,
        work_fd,
        sync_rounds: coarse.rounds,
        partitions_used: coarse.subsets.len(),
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

/// [`WingRound::peeled_in`] of an edge not yet peeled.
const LIVE: u64 = u64::MAX;

/// Wing CD's peel round: each peeled edge propagates the butterflies that
/// die with it, in parallel over the active set.
struct WingRound<'a> {
    view: SideGraph<'a>,
    edges: &'a [(VertexId, VertexId)],
    /// The round that peeled each edge, [`LIVE`] until then. Rounds count
    /// up from 1, so an edge peeled before the current round has a smaller
    /// value and a live one a larger.
    peeled_in: Vec<u64>,
    round: u64,
    /// Merge steps so far.
    work: u64,
}

impl PeelRound for WingRound<'_> {
    fn is_alive(&self, e: u32) -> bool {
        self.peeled_in[e as usize] == LIVE
    }

    fn peel_round(
        &mut self,
        active: &[u32],
        _live: &[u32],
        support: &SupportVec,
        theta_lo: u64,
        _hi: u64,
    ) -> Vec<u32> {
        self.round += 1;
        let round = self.round;
        for &e in active {
            self.peeled_in[e as usize] = round;
        }
        let (view, edges, peeled_in) = (self.view, self.edges, &self.peeled_in);
        let (updated, work) = active
            .par_iter()
            .fold(
                || (Vec::new(), 0u64),
                |(mut acc, work), &e| {
                    // A butterfly through `e` died earlier when one of its
                    // edges was peeled in an earlier round. Of this
                    // round's peeled edges in it, the minimum id
                    // propagates.
                    let steps = walk_butterflies(
                        view,
                        edges[e as usize],
                        &mut acc,
                        |_, _, e2| peeled_in[e2 as usize] >= round,
                        |acc, _, e2, e3, e4| {
                            let partners = [e2, e3, e4].map(|f| (f, peeled_in[f as usize]));
                            if partners
                                .iter()
                                .any(|&(f, r)| r < round || (r == round && f < e))
                            {
                                return;
                            }
                            for (f, r) in partners {
                                if r == LIVE && support.decrement(f, 1, theta_lo) > theta_lo {
                                    acc.push(f);
                                }
                            }
                        },
                    );
                    (acc, work + steps)
                },
            )
            .reduce(
                || (Vec::new(), 0),
                |(mut a, wa), (mut b, wb)| {
                    a.append(&mut b);
                    (a, wa + wb)
                },
            );
        self.work += work;
        updated
    }
}

/// What every fine wing task reads: the graph, the subset labels, and
/// ⋈init.
struct FineWing<'a> {
    view: SideGraph<'a>,
    edges: &'a [(VertexId, VertexId)],
    /// Each edge's subset.
    label: &'a [u32],
    /// Each edge's position in its subset: its id in that subset's heap.
    local: &'a [u32],
    init_support: &'a [u64],
    heap_arity: usize,
}

impl FineWing<'_> {
    /// Sequential bottom-up peeling of subset `sid`, where a butterfly is
    /// live iff all its edges carry a subset label `≥ sid`, same-label ones
    /// still in the heap. Pushes `(edge, wing number)` to `out`; returns
    /// the merge steps.
    fn refine(&self, subset: &[u32], sid: u32, out: &mut Vec<(u32, u64)>) -> u64 {
        let keys: Vec<u64> = subset
            .iter()
            .map(|&e| self.init_support[e as usize])
            .collect();
        let mut heap = IndexedMinHeap::new(self.heap_arity, &keys);
        // Partner edges never equal the peeled edge: they differ from it
        // in at least one endpoint.
        let live = |heap: &IndexedMinHeap, f: u32| match self.label[f as usize].cmp(&sid) {
            std::cmp::Ordering::Greater => true,
            std::cmp::Ordering::Equal => heap.contains(self.local[f as usize]),
            std::cmp::Ordering::Less => false,
        };
        let mut work = 0u64;
        while let Some((l, theta)) = heap.pop_min() {
            let e = subset[l as usize];
            out.push((e, theta));
            work += walk_butterflies(
                self.view,
                self.edges[e as usize],
                &mut heap,
                |heap, _, e2| live(heap, e2),
                |heap, _, e2, e3, e4| {
                    if live(heap, e3) && live(heap, e4) {
                        // Higher-subset edges are their own task's, via
                        // ⋈init.
                        for f in [e2, e3, e4] {
                            if self.label[f as usize] == sid {
                                drop_butterfly(heap, self.local[f as usize], theta);
                            }
                        }
                    }
                },
            );
        }
        work
    }
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
        assert_eq!(a.1, b.1);
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
