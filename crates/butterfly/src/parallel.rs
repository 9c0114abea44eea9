//! Parallel per-vertex butterfly counting.
//!
//! Start vertices are processed concurrently (the `do in parallel` of
//! Algorithm 1), one fold over all of `W = U ∪ V`. Each task — one part of
//! the parallel split — checks a dense wedge array out of a
//! [`parutil::ScratchPool`] once and reuses it for every start vertex of
//! the part (the paper gives each OpenMP thread a `θ(|W|)` private array —
//! "batch" aggregation mode of ParButterfly); contributions are published
//! with relaxed atomic adds. The per-wedge inner loop is
//! `crate::count::process_start_vertex` (crate-private), shared with the
//! sequential driver, so both report the same `wedges_traversed`.

use crate::count::{process_start_vertex, Scratch};
use crate::VertexCounts;
use bigraph::{RankedGraph, Side, VertexId};
use parutil::ScratchPool;
use rayon::prelude::*;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Parallel Algorithm 1 on the ambient rayon pool.
pub fn par_vertex_priority_counts(g: &RankedGraph) -> VertexCounts {
    par_counts(g, |_| true)
}

/// Parallel counting restricted to the *live* subgraph, without compacting
/// first: vertices of `filtered_side` whose `alive` flag is false
/// contribute no wedges and receive no counts. Used by HUC re-counts
/// (§4.1), which run on the graph as first counted: the dead vertices'
/// edges are still scanned (and reported in `wedges_traversed`), but their
/// butterflies are excluded exactly as if the graph had been compacted.
pub fn par_counts_with_filter(
    g: &RankedGraph,
    filtered_side: Side,
    alive: &[AtomicBool],
) -> VertexCounts {
    // The filtered side's global ids are `first..first + len`.
    let (first, len) = match filtered_side {
        Side::U => (0, g.num_u()),
        Side::V => (g.num_u(), g.num_v()),
    };
    assert_eq!(alive.len(), len);
    let ids = first..first + len;
    par_counts(g, |w: VertexId| {
        !ids.contains(&(w as usize)) || alive[w as usize - first].load(Ordering::Relaxed)
    })
}

/// Algorithm 1 over every start vertex of `W` that `live` accepts: a dead
/// vertex starts no wedge, and wedges through a dead middle or to a dead
/// endpoint are skipped.
fn par_counts(g: &RankedGraph, live: impl Fn(VertexId) -> bool + Sync) -> VertexCounts {
    let n = g.num_vertices();
    let counts: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
    let pool = ScratchPool::new(move || Scratch::new(n));
    let wedges = (0..n as VertexId)
        .into_par_iter()
        .fold(
            || (pool.acquire(), 0u64),
            |(mut s, wedges), sp| {
                let w = process_start_vertex(g, sp, &live, &mut s, |w, b| {
                    counts[w as usize].fetch_add(b, Ordering::Relaxed);
                });
                (s, wedges + w)
            },
        )
        .map(|(_, wedges)| wedges)
        .sum();
    let counts = counts.into_iter().map(AtomicU64::into_inner).collect();
    VertexCounts::from_global(counts, g.num_u(), wedges)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::count::vertex_priority_counts;
    use bigraph::gen;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn filtered_count_matches_compacted_count() {
        // Random graphs, alive flags and sides; the reference physically
        // removes the dead vertices' edges and counts what is left.
        let mut rng = SmallRng::seed_from_u64(21);
        for case in 0..64 {
            let (nu, nv) = (rng.random_range(1..70usize), rng.random_range(1..50usize));
            let m = rng.random_range(0..8 * (nu + nv));
            let g = gen::zipf(nu, nv, m, rng.random(), rng.random(), case);
            let side = if rng.random() { Side::U } else { Side::V };
            let n = match side {
                Side::U => nu,
                Side::V => nv,
            };
            let dead_share: f64 = rng.random();
            let flags: Vec<bool> = (0..n).map(|_| rng.random::<f64>() >= dead_share).collect();
            let alive: Vec<AtomicBool> = flags.iter().map(|&f| AtomicBool::new(f)).collect();
            let filtered = par_counts_with_filter(&RankedGraph::from_csr(&g), side, &alive);

            let (au, av) = match side {
                Side::U => (flags, vec![true; nv]),
                Side::V => (vec![true; nu], flags),
            };
            let reference = crate::count_graph(&bigraph::compact::compact(&g, &au, &av));
            assert_eq!(filtered.u, reference.u, "case {case}, {side}");
            assert_eq!(filtered.v, reference.v, "case {case}, {side}");
        }
    }

    #[test]
    fn filtered_count_with_all_alive_equals_plain() {
        let g = gen::uniform(40, 40, 300, 2);
        let ranked = RankedGraph::from_csr(&g);
        let alive: Vec<AtomicBool> = (0..40).map(|_| AtomicBool::new(true)).collect();
        let filtered = par_counts_with_filter(&ranked, bigraph::Side::U, &alive);
        let plain = par_vertex_priority_counts(&ranked);
        assert_eq!(filtered.u, plain.u);
        assert_eq!(filtered.v, plain.v);
        assert_eq!(filtered.wedges_traversed, plain.wedges_traversed);
    }

    #[test]
    fn parallel_matches_sequential() {
        for seed in 0..5 {
            let g = gen::zipf(120, 60, 800, 0.5, 0.9, seed);
            let ranked = RankedGraph::from_csr(&g);
            let seq = vertex_priority_counts(&ranked);
            let par = par_vertex_priority_counts(&ranked);
            assert_eq!(seq.u, par.u);
            assert_eq!(seq.v, par.v);
            assert_eq!(seq.wedges_traversed, par.wedges_traversed);
        }
    }

    #[test]
    fn parallel_deterministic_across_pool_sizes() {
        let g = gen::uniform(100, 100, 900, 4);
        let ranked = RankedGraph::from_csr(&g);
        let a = parutil::with_pool(1, || par_vertex_priority_counts(&ranked));
        let b = parutil::with_pool(4, || par_vertex_priority_counts(&ranked));
        assert_eq!(a.u, b.u);
        assert_eq!(a.v, b.v);
        assert_eq!(a.total(), b.total());
    }

    #[test]
    fn empty_graph() {
        let g = bigraph::BipartiteCsr::empty(2, 2);
        let c = par_vertex_priority_counts(&RankedGraph::from_csr(&g));
        assert_eq!(c.total(), 0);
    }
}
