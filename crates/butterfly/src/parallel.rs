//! Parallel per-vertex butterfly counting.
//!
//! Start vertices are processed concurrently (the `do in parallel` of
//! Algorithm 1); every task checks a dense wedge array out of a
//! [`parutil::ScratchPool`] (the paper gives each OpenMP thread a `θ(|W|)`
//! private array — "batch" aggregation mode of ParButterfly) and publishes
//! its contributions with relaxed atomic adds. The per-wedge inner loop is
//! `crate::count::process_start_vertex` (crate-private), shared with the
//! sequential driver, so the rank-boundary galloping there (exponential search for
//! the live-rank prefix instead of a per-endpoint break-scan) accelerates
//! both drivers identically — including the `wedges_traversed` metric,
//! which is unchanged by construction.

use crate::VertexCounts;
use bigraph::{RankedGraph, VertexId};
use parutil::ScratchPool;
use rayon::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};

struct Scratch {
    wdg: Vec<u32>,
    nze: Vec<VertexId>,
    nzw: Vec<(VertexId, VertexId)>,
}

/// Parallel Algorithm 1 on the ambient rayon pool.
pub fn par_vertex_priority_counts(g: &RankedGraph) -> VertexCounts {
    let nu = g.num_u();
    let nv = g.num_v();
    let cnt_u: Vec<AtomicU64> = (0..nu).map(|_| AtomicU64::new(0)).collect();
    let cnt_v: Vec<AtomicU64> = (0..nv).map(|_| AtomicU64::new(0)).collect();
    let wedges = AtomicU64::new(0);
    let scratch_len = nu.max(nv);
    let pool = ScratchPool::new(move || Scratch {
        wdg: vec![0u32; scratch_len],
        nze: Vec::new(),
        nzw: Vec::new(),
    });

    // U-side start vertices.
    (0..nu as VertexId).into_par_iter().for_each(|sp| {
        let mut s = pool.acquire();
        let Scratch { wdg, nze, nzw } = &mut *s;
        let w = crate::count::process_start_vertex(
            sp,
            g.rank_u(sp),
            g.neighbors_u(sp),
            |mp| g.rank_v(mp),
            |mp| g.neighbors_v(mp),
            |ep| g.rank_u(ep),
            |_| true,
            |_| true,
            wdg,
            nze,
            nzw,
            |ep, b| {
                cnt_u[ep as usize].fetch_add(b, Ordering::Relaxed);
            },
            |mp, b| {
                cnt_v[mp as usize].fetch_add(b, Ordering::Relaxed);
            },
        );
        wedges.fetch_add(w, Ordering::Relaxed);
    });
    // V-side start vertices.
    (0..nv as VertexId).into_par_iter().for_each(|sp| {
        let mut s = pool.acquire();
        let Scratch { wdg, nze, nzw } = &mut *s;
        let w = crate::count::process_start_vertex(
            sp,
            g.rank_v(sp),
            g.neighbors_v(sp),
            |mp| g.rank_u(mp),
            |mp| g.neighbors_u(mp),
            |ep| g.rank_v(ep),
            |_| true,
            |_| true,
            wdg,
            nze,
            nzw,
            |ep, b| {
                cnt_v[ep as usize].fetch_add(b, Ordering::Relaxed);
            },
            |mp, b| {
                cnt_u[mp as usize].fetch_add(b, Ordering::Relaxed);
            },
        );
        wedges.fetch_add(w, Ordering::Relaxed);
    });

    VertexCounts {
        u: cnt_u.into_iter().map(AtomicU64::into_inner).collect(),
        v: cnt_v.into_iter().map(AtomicU64::into_inner).collect(),
        wedges_traversed: wedges.into_inner(),
    }
}

/// Parallel counting restricted to the *live* subgraph, without compacting
/// first: vertices of `filtered_side` whose `alive` flag is false
/// contribute no wedges and receive no counts. Used by HUC re-counts
/// (§4.1), which run on the graph as first counted: the dead vertices'
/// edges are still scanned (and reported in `wedges_traversed`), but their
/// butterflies are excluded exactly as if the graph had been compacted.
pub fn par_counts_with_filter(
    g: &RankedGraph,
    filtered_side: bigraph::Side,
    alive: &[std::sync::atomic::AtomicBool],
) -> VertexCounts {
    use bigraph::Side;
    let nu = g.num_u();
    let nv = g.num_v();
    match filtered_side {
        Side::U => assert_eq!(alive.len(), nu),
        Side::V => assert_eq!(alive.len(), nv),
    }
    let live = |x: VertexId| -> bool { alive[x as usize].load(Ordering::Relaxed) };

    let cnt_u: Vec<AtomicU64> = (0..nu).map(|_| AtomicU64::new(0)).collect();
    let cnt_v: Vec<AtomicU64> = (0..nv).map(|_| AtomicU64::new(0)).collect();
    let wedges = AtomicU64::new(0);
    let scratch_len = nu.max(nv);
    let pool = ScratchPool::new(move || Scratch {
        wdg: vec![0u32; scratch_len],
        nze: Vec::new(),
        nzw: Vec::new(),
    });

    // U-side start vertices (middles on V, endpoints on U).
    (0..nu as VertexId).into_par_iter().for_each(|sp| {
        if filtered_side == Side::U && !live(sp) {
            return;
        }
        let mut s = pool.acquire();
        let Scratch { wdg, nze, nzw } = &mut *s;
        let w = crate::count::process_start_vertex(
            sp,
            g.rank_u(sp),
            g.neighbors_u(sp),
            |mp| g.rank_v(mp),
            |mp| g.neighbors_v(mp),
            |ep| g.rank_u(ep),
            |mp| filtered_side != Side::V || live(mp),
            |ep| filtered_side != Side::U || live(ep),
            wdg,
            nze,
            nzw,
            |ep, b| {
                cnt_u[ep as usize].fetch_add(b, Ordering::Relaxed);
            },
            |mp, b| {
                cnt_v[mp as usize].fetch_add(b, Ordering::Relaxed);
            },
        );
        wedges.fetch_add(w, Ordering::Relaxed);
    });
    // V-side start vertices (middles on U, endpoints on V).
    (0..nv as VertexId).into_par_iter().for_each(|sp| {
        if filtered_side == Side::V && !live(sp) {
            return;
        }
        let mut s = pool.acquire();
        let Scratch { wdg, nze, nzw } = &mut *s;
        let w = crate::count::process_start_vertex(
            sp,
            g.rank_v(sp),
            g.neighbors_v(sp),
            |mp| g.rank_u(mp),
            |mp| g.neighbors_u(mp),
            |ep| g.rank_v(ep),
            |mp| filtered_side != Side::U || live(mp),
            |ep| filtered_side != Side::V || live(ep),
            wdg,
            nze,
            nzw,
            |ep, b| {
                cnt_v[ep as usize].fetch_add(b, Ordering::Relaxed);
            },
            |mp, b| {
                cnt_u[mp as usize].fetch_add(b, Ordering::Relaxed);
            },
        );
        wedges.fetch_add(w, Ordering::Relaxed);
    });

    VertexCounts {
        u: cnt_u.into_iter().map(AtomicU64::into_inner).collect(),
        v: cnt_v.into_iter().map(AtomicU64::into_inner).collect(),
        wedges_traversed: wedges.into_inner(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::count::vertex_priority_counts;
    use bigraph::gen;
    use bigraph::RankedGraph;
    use std::sync::atomic::AtomicBool;

    #[test]
    fn filtered_count_matches_compacted_count() {
        for side in [bigraph::Side::U, bigraph::Side::V] {
            let g = gen::zipf(60, 40, 380, 0.5, 0.9, 21);
            let ranked = RankedGraph::from_csr(&g);
            let n = match side {
                bigraph::Side::U => 60,
                bigraph::Side::V => 40,
            };
            let alive: Vec<AtomicBool> = (0..n).map(|i| AtomicBool::new(i % 4 != 1)).collect();
            let filtered = par_counts_with_filter(&ranked, side, &alive);

            // Reference: physically remove the dead vertices' edges.
            let flags: Vec<bool> = (0..n).map(|i| i % 4 != 1).collect();
            let (au, av) = match side {
                bigraph::Side::U => (flags.clone(), vec![true; 40]),
                bigraph::Side::V => (vec![true; 60], flags.clone()),
            };
            let compacted = bigraph::compact::compact(&g, &au, &av);
            let reference = crate::count_graph(&compacted);
            assert_eq!(filtered.u, reference.u, "{side}");
            assert_eq!(filtered.v, reference.v, "{side}");
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
