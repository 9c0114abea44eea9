//! Sequential vertex-priority per-vertex butterfly counting (Algorithm 1).
//!
//! Every wedge `(sp, mp, ep)` is traversed only when the endpoint `ep`
//! ranks below both the start `sp` and the middle `mp`, that is, when it
//! has *higher* priority than both (rank 0 is the highest-degree vertex
//! and the highest priority). This charges each butterfly to its
//! highest-priority vertex exactly once and bounds traversal by
//! `O(Σ_{(u,v)∈E} min(d_u, d_v)) = O(α·m)`.
//!
//! Vertices are the global ids of [`RankedGraph`] (U-vertex `u` is `u`,
//! V-vertex `v` is `num_u + v`), so one loop over `W = U ∪ V` counts both
//! sides.

use crate::VertexCounts;
use bigraph::{RankedGraph, VertexId};

/// The wedge scratch of one task, reused across its start vertices.
pub(crate) struct Scratch {
    /// Wedges per endpoint, indexed by global id; all zero between calls.
    wdg: Vec<u32>,
    /// Endpoints whose `wdg` entry is nonzero.
    nze: Vec<VertexId>,
    /// `(middle, endpoint)` of every live wedge.
    nzw: Vec<(VertexId, VertexId)>,
}

impl Scratch {
    /// Scratch for a graph of `n = |W|` vertices.
    pub(crate) fn new(n: usize) -> Self {
        Scratch {
            wdg: vec![0; n],
            nze: Vec::new(),
            nzw: Vec::new(),
        }
    }
}

/// One start-vertex pass of Algorithm 1, shared by the sequential and
/// parallel drivers. Calls `emit(w, b)` to add `b` butterflies to vertex
/// `w`'s count and returns the number of wedges traversed.
///
/// `live` supports HUC re-counts on a graph whose peeled vertices have not
/// been compacted away: a dead start vertex starts no wedge, wedges
/// through a dead middle are skipped, and wedges to a dead endpoint are
/// skipped but still reported (the work is really done). Pass `|_| true`
/// for plain counting; the closure monomorphizes away.
pub(crate) fn process_start_vertex(
    g: &RankedGraph,
    sp: VertexId,
    live: impl Fn(VertexId) -> bool,
    scratch: &mut Scratch,
    mut emit: impl FnMut(VertexId, u64),
) -> u64 {
    if !live(sp) {
        return 0;
    }
    let Scratch { wdg, nze, nzw } = scratch;
    nze.clear();
    nzw.clear();
    let rank_sp = g.rank(sp);
    let mut skipped = 0u64;
    for &mp in g.neighbors(sp) {
        if !live(mp) {
            continue;
        }
        let cap = g.rank(mp).min(rank_sp);
        // Endpoints are rank-sorted ascending, so the wedges to traverse
        // are exactly the prefix with rank below `cap`. Galloping
        // (exponential + binary search) finds that boundary in
        // O(log prefix) rank lookups instead of one per endpoint, and the
        // prefix walk below then needs no rank checks at all.
        let neigh = g.neighbors(mp);
        let prefix = crate::intersect::gallop_partition_point(neigh, |&ep| g.rank(ep) < cap);
        for &ep in &neigh[..prefix] {
            if !live(ep) {
                skipped += 1;
                continue;
            }
            if wdg[ep as usize] == 0 {
                nze.push(ep);
            }
            wdg[ep as usize] += 1;
            nzw.push((mp, ep));
        }
    }
    let wedges = nzw.len() as u64 + skipped;

    // Same-side contribution: every pair of wedges ending at `ep` closes a
    // butterfly containing both `sp` and `ep`.
    let mut sp_total = 0u64;
    for &ep in nze.iter() {
        let c = wdg[ep as usize] as u64;
        let bcnt = c * (c - 1) / 2;
        if bcnt > 0 {
            emit(ep, bcnt);
            sp_total += bcnt;
        }
    }
    if sp_total > 0 {
        emit(sp, sp_total);
    }

    // Opposite-side contribution: the wedge (sp, mp, ep) pairs with the
    // `wdg[ep] - 1` other wedges ending at `ep`, all through `mp`.
    for &(mp, ep) in nzw.iter() {
        let bcnt = (wdg[ep as usize] - 1) as u64;
        if bcnt > 0 {
            emit(mp, bcnt);
        }
    }

    for &ep in nze.iter() {
        wdg[ep as usize] = 0;
    }
    wedges
}

/// Sequential Algorithm 1: per-vertex butterfly counts for both sides.
pub fn vertex_priority_counts(g: &RankedGraph) -> VertexCounts {
    let n = g.num_vertices();
    let mut counts = vec![0u64; n];
    let mut scratch = Scratch::new(n);
    let wedges = (0..n as VertexId)
        .map(|sp| {
            process_start_vertex(
                g,
                sp,
                |_| true,
                &mut scratch,
                |w, b| counts[w as usize] += b,
            )
        })
        .sum();
    VertexCounts::from_global(counts, g.num_u(), wedges)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::naive_counts;
    use bigraph::builder::from_edges;
    use bigraph::gen;
    use bigraph::RankedGraph;

    fn check_matches_naive(g: &bigraph::BipartiteCsr) {
        let fast = vertex_priority_counts(&RankedGraph::from_csr(g));
        let slow = naive_counts(g);
        assert_eq!(fast.u, slow.u, "U-side counts diverge");
        assert_eq!(fast.v, slow.v, "V-side counts diverge");
    }

    #[test]
    fn matches_naive_on_small_fixtures() {
        check_matches_naive(&from_edges(2, 2, &[(0, 0), (0, 1), (1, 0), (1, 1)]).unwrap());
        check_matches_naive(
            &from_edges(
                4,
                4,
                &[
                    (0, 0),
                    (0, 1),
                    (1, 0),
                    (1, 1),
                    (1, 2),
                    (2, 0),
                    (2, 1),
                    (2, 2),
                    (2, 3),
                    (3, 2),
                    (3, 3),
                ],
            )
            .unwrap(),
        );
    }

    #[test]
    fn matches_naive_on_complete_graphs() {
        for (a, b) in [(3, 3), (4, 2), (5, 5), (1, 6)] {
            let mut edges = Vec::new();
            for u in 0..a {
                for v in 0..b {
                    edges.push((u, v));
                }
            }
            check_matches_naive(&from_edges(a as usize, b as usize, &edges).unwrap());
        }
    }

    /// `g` with one isolated vertex added at the last U id and one at the
    /// first V id, where the global numbering switches sides.
    fn isolate_side_boundary(g: &bigraph::BipartiteCsr) -> bigraph::BipartiteCsr {
        let edges: Vec<(u32, u32)> = g.edges().map(|(u, v)| (u, v + 1)).collect();
        from_edges(g.num_u() + 1, g.num_v() + 1, &edges).unwrap()
    }

    #[test]
    fn matches_naive_on_random_graphs() {
        for seed in 0..8 {
            for g in [
                gen::uniform(40, 30, 200, seed),
                gen::zipf(60, 25, 300, 0.4, 1.0, seed),
            ] {
                let h = isolate_side_boundary(&g);
                assert_eq!(h.deg_u(g.num_u() as u32), 0);
                assert_eq!(h.deg_v(0), 0);
                check_matches_naive(&g);
                check_matches_naive(&h);
            }
        }
    }

    #[test]
    fn matches_naive_on_planted_blocks() {
        check_matches_naive(&gen::planted_bicliques(30, 30, 3, 4, 4, 60, 2));
    }

    #[test]
    fn wedge_traversal_is_bounded_by_recount_cost() {
        // The traversal bound Σ min(d_u, d_v) from §2.1.
        let g = gen::zipf(80, 40, 500, 0.5, 0.9, 3);
        let fast = vertex_priority_counts(&RankedGraph::from_csr(&g));
        let bound = bigraph::stats::recount_cost(g.view(bigraph::Side::U));
        assert!(
            fast.wedges_traversed <= bound,
            "{} wedges > bound {}",
            fast.wedges_traversed,
            bound
        );
    }

    #[test]
    fn empty_graph_counts() {
        let g = bigraph::BipartiteCsr::empty(4, 4);
        let c = vertex_priority_counts(&RankedGraph::from_csr(&g));
        assert!(c.u.iter().all(|&x| x == 0));
        assert_eq!(c.wedges_traversed, 0);
        assert_eq!(c.total(), 0);
    }

    #[test]
    fn total_is_consistent_across_sides() {
        let g = gen::zipf(50, 50, 400, 0.6, 0.6, 9);
        let c = vertex_priority_counts(&RankedGraph::from_csr(&g));
        assert_eq!(
            c.u.iter().sum::<u64>(),
            c.v.iter().sum::<u64>(),
            "each butterfly has two vertices on each side"
        );
    }
}
