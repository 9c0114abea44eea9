//! Wedge counts and the peel/re-count cost model.
//!
//! Tip decomposition is wedge-bound, so every planning decision in RECEIPT
//! is driven by wedge counts:
//! * `w[u] = Σ_{v∈N_u} (d_v − 1)` — wedges with *endpoint* `u` (used by
//!   `findHi` range determination, Algorithm 3 lines 16–21, and by
//!   workload-aware FD scheduling);
//! * `C_rcnt = Σ_{(u,v)∈E} min(d_u, d_v)` — the vertex-priority counting
//!   bound (§2.1), which HUC compares against the traversal cost of
//!   peeling the active set, `C_peel(S) = Σ_{u∈S} Σ_{v∈N_u} d_v` (§4.1).
//!   `C_peel` reads the lists as the peel sees them, so RECEIPT CD prices
//!   it on its own peel graph.

use crate::csr::SideGraph;
use crate::VertexId;
use rayon::prelude::*;

/// `w[u]` for every primary vertex: the number of wedges with endpoint `u`
/// (middle vertex on the secondary side), counting each 2-hop walk once.
pub fn wedges_per_primary(view: SideGraph<'_>) -> Vec<u64> {
    (0..view.num_primary() as VertexId)
        .into_par_iter()
        .map(|p| {
            view.neighbors_primary(p)
                .iter()
                .map(|&s| (view.deg_secondary(s) as u64).saturating_sub(1))
                .sum()
        })
        .collect()
}

/// `∧_U`: total wedges with both endpoints on the primary side. Each wedge
/// `(u, v, u')` is counted from both endpoints, so this equals
/// `Σ_v d_v (d_v − 1)` and `Σ_u w[u]`.
pub fn total_primary_wedges(view: SideGraph<'_>) -> u64 {
    (0..view.num_secondary() as VertexId)
        .into_par_iter()
        .map(|s| {
            let d = view.deg_secondary(s) as u64;
            d * d.saturating_sub(1)
        })
        .sum()
}

/// The vertex-priority counting bound `C_rcnt = Σ_{(u,v)∈E} min(d_u, d_v)`.
pub fn recount_cost(view: SideGraph<'_>) -> u64 {
    (0..view.num_primary() as VertexId)
        .into_par_iter()
        .map(|p| {
            let dp = view.deg_primary(p) as u64;
            view.neighbors_primary(p)
                .iter()
                .map(|&s| dp.min(view.deg_secondary(s) as u64))
                .sum::<u64>()
        })
        .sum()
}

/// Average degree of the primary side.
pub fn avg_primary_degree(view: SideGraph<'_>) -> f64 {
    if view.num_primary() == 0 {
        return 0.0;
    }
    view.num_edges() as f64 / view.num_primary() as f64
}

/// Maximum degree on the primary side.
pub fn max_primary_degree(view: SideGraph<'_>) -> usize {
    (0..view.num_primary() as VertexId)
        .into_par_iter()
        .map(|p| view.deg_primary(p))
        .max()
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::from_edges;
    use crate::csr::Side;

    /// K(2,3): u0,u1 each adjacent to v0,v1,v2.
    fn k23() -> crate::csr::BipartiteCsr {
        from_edges(2, 3, &[(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)]).unwrap()
    }

    #[test]
    fn wedge_counts_on_k23() {
        let g = k23();
        let vu = g.view(Side::U);
        // Each v has degree 2 -> each contributes d(d-1) = 2 wedges.
        assert_eq!(total_primary_wedges(vu), 6);
        // w[u0] = Σ (d_v - 1) = 3.
        assert_eq!(wedges_per_primary(vu), vec![3, 3]);
        let vv = g.view(Side::V);
        // Each u has degree 3 -> 3*2 = 6 per u, total 12.
        assert_eq!(total_primary_wedges(vv), 12);
        assert_eq!(wedges_per_primary(vv), vec![4, 4, 4]);
    }

    #[test]
    fn sum_of_endpoint_wedges_equals_total() {
        let g = from_edges(
            4,
            4,
            &[(0, 0), (0, 1), (1, 1), (1, 2), (2, 2), (3, 0), (3, 3)],
        )
        .unwrap();
        for side in [Side::U, Side::V] {
            let v = g.view(side);
            let per: u64 = wedges_per_primary(v).iter().sum();
            assert_eq!(per, total_primary_wedges(v));
        }
    }

    #[test]
    fn recount_cost_on_k23() {
        let g = k23();
        // Every edge has min(2, 3)... d_u = 3, d_v = 2 -> min = 2; 6 edges.
        assert_eq!(recount_cost(g.view(Side::U)), 12);
        // Symmetric from the V view.
        assert_eq!(recount_cost(g.view(Side::V)), 12);
    }

    #[test]
    fn degree_stats() {
        let g = k23();
        assert_eq!(avg_primary_degree(g.view(Side::U)), 3.0);
        assert_eq!(avg_primary_degree(g.view(Side::V)), 2.0);
        assert_eq!(max_primary_degree(g.view(Side::U)), 3);
        let empty = crate::csr::BipartiteCsr::empty(0, 0);
        assert_eq!(avg_primary_degree(empty.view(Side::U)), 0.0);
        assert_eq!(max_primary_degree(empty.view(Side::U)), 0);
    }

    #[test]
    fn star_has_no_primary_wedges_from_leaves() {
        // Star: v0 connects to u0..u3. From V view, w[v0] = 0 (all leaves
        // degree 1). From U view each pair of u's forms wedges through v0.
        let g = from_edges(4, 1, &[(0, 0), (1, 0), (2, 0), (3, 0)]).unwrap();
        assert_eq!(total_primary_wedges(g.view(Side::U)), 12); // 4*3
        assert_eq!(total_primary_wedges(g.view(Side::V)), 0);
    }
}
