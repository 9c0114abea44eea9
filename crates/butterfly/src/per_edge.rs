//! Per-edge butterfly counting — the support function for wing (edge)
//! decomposition (§7 of the paper).
//!
//! The butterfly count of edge `(u, v)` is
//! `⋈_{(u,v)} = Σ_{u'∈N(v)\{u}} (|N(u) ∩ N(u')| − 1)`:
//! every other endpoint `u'` seen through `v` pairs with each of the other
//! common neighbours of `u` and `u'` to close a quadrangle containing
//! `(u, v)`.
//!
//! Counts are indexed by edge id, [`SideGraph::edge_index`]: the edge's
//! position in the primary side's CSR. Wing decomposition
//! (`receipt::wing`) peels in the same id space, walking the butterflies
//! through one edge with one merge walk, so it needs no table of its own.

use bigraph::{SideGraph, VertexId};

/// Per-edge butterfly counts, indexed by primary-CSR edge position. Runs in
/// `O(Σ_u Σ_{v∈N_u} d_v)` with a dense common-neighbour scratch.
pub fn per_edge_counts(view: SideGraph<'_>) -> Vec<u64> {
    let np = view.num_primary();
    let m = view.num_edges();
    let mut counts = vec![0u64; m];
    let mut common = vec![0u32; np];
    let mut touched: Vec<VertexId> = Vec::new();

    let mut base = 0usize;
    for u in 0..np as VertexId {
        // Pass 1: common-neighbour counts of u with all 2-hop neighbours.
        for &v in view.neighbors_primary(u) {
            for &u2 in view.neighbors_secondary(v) {
                if u2 != u {
                    if common[u2 as usize] == 0 {
                        touched.push(u2);
                    }
                    common[u2 as usize] += 1;
                }
            }
        }
        // Pass 2: each wedge (u, v, u') contributes common(u,u') − 1
        // butterflies to edge (u, v).
        for (pos, &v) in view.neighbors_primary(u).iter().enumerate() {
            let mut b = 0u64;
            for &u2 in view.neighbors_secondary(v) {
                if u2 != u {
                    b += (common[u2 as usize] - 1) as u64;
                }
            }
            counts[base + pos] = b;
        }
        base += view.deg_primary(u);
        for &u2 in &touched {
            common[u2 as usize] = 0;
        }
        touched.clear();
    }
    counts
}

/// Parallel per-edge counting: each primary vertex owns a disjoint,
/// contiguous output range in the counts vector (its CSR positions), so
/// vertices parallelize with no atomics; each task checks its dense
/// scratch out once and reuses it for all of its vertices.
pub fn par_per_edge_counts(view: SideGraph<'_>) -> Vec<u64> {
    use parutil::ScratchPool;
    use rayon::prelude::*;

    let np = view.num_primary();
    let m = view.num_edges();
    let mut counts = vec![0u64; m];
    let pool = ScratchPool::new(move || (vec![0u32; np], Vec::<VertexId>::new()));

    // Pre-split the output into per-vertex slices.
    let mut slices: Vec<&mut [u64]> = Vec::with_capacity(np);
    {
        let mut rest: &mut [u64] = &mut counts;
        for u in 0..np as VertexId {
            let (head, tail) = rest.split_at_mut(view.deg_primary(u));
            slices.push(head);
            rest = tail;
        }
    }
    slices.into_par_iter().enumerate().for_each_init(
        || pool.acquire(),
        |guard, (u, out)| {
            let u = u as VertexId;
            if out.is_empty() {
                return;
            }
            let (common, touched) = &mut **guard;
            for &v in view.neighbors_primary(u) {
                for &u2 in view.neighbors_secondary(v) {
                    if u2 != u {
                        if common[u2 as usize] == 0 {
                            touched.push(u2);
                        }
                        common[u2 as usize] += 1;
                    }
                }
            }
            for (pos, &v) in view.neighbors_primary(u).iter().enumerate() {
                let mut b = 0u64;
                for &u2 in view.neighbors_secondary(v) {
                    if u2 != u {
                        b += (common[u2 as usize] - 1) as u64;
                    }
                }
                out[pos] = b;
            }
            for &u2 in touched.iter() {
                common[u2 as usize] = 0;
            }
            touched.clear();
        },
    );
    counts
}

/// Total butterflies from edge counts: each butterfly contains 4 edges.
pub fn total_from_edges(counts: &[u64]) -> u64 {
    counts.iter().sum::<u64>() / 4
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::naive_total;
    use bigraph::builder::from_edges;
    use bigraph::{gen, Side};

    #[test]
    fn single_butterfly_edges() {
        let g = from_edges(2, 2, &[(0, 0), (0, 1), (1, 0), (1, 1)]).unwrap();
        let c = per_edge_counts(g.view(Side::U));
        assert_eq!(c, vec![1, 1, 1, 1]);
        assert_eq!(total_from_edges(&c), 1);
    }

    #[test]
    fn k33_edges() {
        let mut edges = Vec::new();
        for u in 0..3 {
            for v in 0..3 {
                edges.push((u, v));
            }
        }
        let g = from_edges(3, 3, &edges).unwrap();
        let c = per_edge_counts(g.view(Side::U));
        // Every edge of K(3,3) is in (3-1)*(3-1) = 4 butterflies.
        assert!(c.iter().all(|&x| x == 4), "{c:?}");
        assert_eq!(total_from_edges(&c), 9);
    }

    #[test]
    fn totals_match_naive_on_random_graphs() {
        for seed in 0..6 {
            let g = gen::uniform(30, 30, 220, seed);
            let c = per_edge_counts(g.view(Side::U));
            assert_eq!(total_from_edges(&c), naive_total(&g), "seed {seed}");
        }
    }

    #[test]
    fn u_and_v_views_agree_on_total() {
        let g = gen::zipf(40, 30, 260, 0.5, 0.8, 7);
        let cu = per_edge_counts(g.view(Side::U));
        let cv = per_edge_counts(g.view(Side::V));
        assert_eq!(total_from_edges(&cu), total_from_edges(&cv));
    }

    #[test]
    fn parallel_matches_sequential_per_edge() {
        for seed in 0..4 {
            let g = gen::zipf(50, 30, 300, 0.5, 0.9, seed);
            for side in [Side::U, Side::V] {
                let seq = per_edge_counts(g.view(side));
                let par = par_per_edge_counts(g.view(side));
                assert_eq!(seq, par, "seed {seed} side {side}");
            }
        }
    }

    #[test]
    fn parallel_per_edge_deterministic_across_pools() {
        let g = gen::uniform(40, 40, 280, 6);
        let a = parutil::with_pool(1, || par_per_edge_counts(g.view(Side::U)));
        let b = parutil::with_pool(4, || par_per_edge_counts(g.view(Side::U)));
        assert_eq!(a, b);
    }

    #[test]
    fn edge_without_butterflies() {
        // Path graph: every edge count is 0.
        let g = from_edges(3, 2, &[(0, 0), (1, 0), (1, 1), (2, 1)]).unwrap();
        let c = per_edge_counts(g.view(Side::U));
        assert!(c.iter().all(|&x| x == 0));
    }
}
