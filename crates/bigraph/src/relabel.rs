//! Degree-descending global ranking (the vertex-priority order used by
//! butterfly counting, Algorithm 1 lines 1–3).
//!
//! Chiba–Nishizeki's quadrangle counting bounds work by always charging a
//! wedge to its lowest-priority endpoint; Wang et al. show that relabeling
//! vertices in decreasing-degree order and sorting adjacency by the new
//! labels makes the inner-loop `break` cache-friendly. We keep side-local
//! ids but materialize a *global rank* over `W = U ∪ V` (rank 0 = highest
//! degree) and adjacency copies sorted by neighbour rank.

use crate::csr::BipartiteCsr;
use crate::VertexId;

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
    /// Ranks all of `W` by descending degree, ties broken by global id (U
    /// before V, then side-local id, so the result is deterministic), and
    /// lays every adjacency list out in ascending neighbour rank. Runs in
    /// `O(n + m)`: a counting sort by degree over ascending global ids
    /// gives the rank order, and walking `W` in that order while appending
    /// each vertex to its neighbours' lists leaves every list rank-sorted.
    pub fn from_csr(g: &BipartiteCsr) -> Self {
        let nu = g.num_u();
        let nv = g.num_v();
        let n = nu + nv;

        // Global ids: U-vertex u -> u, V-vertex v -> nu + v.
        let deg = |w: usize| -> usize {
            if w < nu {
                g.deg_u(w as VertexId)
            } else {
                g.deg_v((w - nu) as VertexId)
            }
        };
        // Bucket key 0 is the highest degree; `start[k]` becomes the first
        // rank of bucket `k`, and filling buckets in id order breaks ties.
        let max_deg = (0..n).map(deg).max().unwrap_or(0);
        let mut start = vec![0usize; max_deg + 2];
        for w in 0..n {
            start[max_deg - deg(w) + 1] += 1;
        }
        for k in 1..start.len() {
            start[k] += start[k - 1];
        }
        let mut order = vec![0u32; n];
        for w in 0..n {
            let slot = &mut start[max_deg - deg(w)];
            order[*slot] = w as u32;
            *slot += 1;
        }

        let mut rank_u = vec![0u32; nu];
        let mut rank_v = vec![0u32; nv];
        for (rank, &w) in order.iter().enumerate() {
            if (w as usize) < nu {
                rank_u[w as usize] = rank as u32;
            } else {
                rank_v[(w as usize) - nu] = rank as u32;
            }
        }

        // Offsets match the source CSR (same degree sequence, re-sorted
        // within each list).
        let mut u_offsets = vec![0usize; nu + 1];
        for u in 0..nu {
            u_offsets[u + 1] = u_offsets[u] + g.deg_u(u as VertexId);
        }
        let mut v_offsets = vec![0usize; nv + 1];
        for v in 0..nv {
            v_offsets[v + 1] = v_offsets[v] + g.deg_v(v as VertexId);
        }
        // Scatter each vertex, in rank order, onto its neighbours' lists.
        let mut u_adj = vec![0 as VertexId; g.num_edges()];
        let mut v_adj = vec![0 as VertexId; g.num_edges()];
        let mut u_next = u_offsets[..nu].to_vec();
        let mut v_next = v_offsets[..nv].to_vec();
        for &w in &order {
            if (w as usize) < nu {
                for &v in g.neighbors_u(w) {
                    v_adj[v_next[v as usize]] = w;
                    v_next[v as usize] += 1;
                }
            } else {
                let v = w - nu as u32;
                for &u in g.neighbors_v(v) {
                    u_adj[u_next[u as usize]] = v;
                    u_next[u as usize] += 1;
                }
            }
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

    /// The ranking by comparison sorts: `W` by (degree descending, global
    /// id ascending), then every list by neighbour rank.
    fn sorted_reference(g: &BipartiteCsr) -> RankedGraph {
        let (nu, nv) = (g.num_u(), g.num_v());
        let deg = |w: u32| {
            if (w as usize) < nu {
                g.deg_u(w)
            } else {
                g.deg_v(w - nu as u32)
            }
        };
        let mut order: Vec<u32> = (0..(nu + nv) as u32).collect();
        order.sort_by(|&a, &b| deg(b).cmp(&deg(a)).then(a.cmp(&b)));
        let (mut rank_u, mut rank_v) = (vec![0u32; nu], vec![0u32; nv]);
        for (rank, &w) in order.iter().enumerate() {
            match (w as usize).checked_sub(nu) {
                None => rank_u[w as usize] = rank as u32,
                Some(v) => rank_v[v] = rank as u32,
            }
        }
        let mut u_adj = Vec::new();
        for u in 0..nu as u32 {
            let mut list = g.neighbors_u(u).to_vec();
            list.sort_by_key(|&v| rank_v[v as usize]);
            u_adj.extend(list);
        }
        let mut v_adj = Vec::new();
        for v in 0..nv as u32 {
            let mut list = g.neighbors_v(v).to_vec();
            list.sort_by_key(|&u| rank_u[u as usize]);
            v_adj.extend(list);
        }
        let offsets = |n: usize, d: &dyn Fn(u32) -> usize| -> Vec<usize> {
            std::iter::once(0)
                .chain((0..n as u32).scan(0, |at, x| {
                    *at += d(x);
                    Some(*at)
                }))
                .collect()
        };
        RankedGraph {
            nu,
            nv,
            rank_u,
            rank_v,
            u_offsets: offsets(nu, &|u| g.deg_u(u)),
            u_adj,
            v_offsets: offsets(nv, &|v| g.deg_v(v)),
            v_adj,
        }
    }

    #[test]
    fn counting_sort_ranking_matches_comparison_sorts() {
        let mut graphs = Vec::new();
        for seed in 0..4 {
            // Zipf stubs leave many vertices isolated; uniform graphs tie
            // degrees across the two sides.
            graphs.push(crate::gen::zipf(300, 120, 900, 0.5, 1.1, seed));
            graphs.push(crate::gen::uniform(80, 80, 400, seed));
        }
        graphs.push(from_edges(5, 4, &[(0, 0), (1, 1), (2, 1), (3, 2)]).unwrap());
        graphs.push(BipartiteCsr::empty(3, 2));
        let mut cross_side_ties = 0;
        for g in &graphs {
            let got = RankedGraph::from_csr(g);
            let want = sorted_reference(g);
            assert_eq!(got.rank_u, want.rank_u);
            assert_eq!(got.rank_v, want.rank_v);
            assert_eq!(got.u_offsets, want.u_offsets);
            assert_eq!(got.u_adj, want.u_adj);
            assert_eq!(got.v_offsets, want.v_offsets);
            assert_eq!(got.v_adj, want.v_adj);
            let du: std::collections::HashSet<usize> =
                (0..g.num_u() as u32).map(|u| g.deg_u(u)).collect();
            cross_side_ties += (0..g.num_v() as u32)
                .filter(|&v| du.contains(&g.deg_v(v)))
                .count();
        }
        assert!(cross_side_ties > 0, "the graphs tie degrees across sides");
        assert!(
            graphs
                .iter()
                .any(|g| (0..g.num_u() as u32).any(|u| g.deg_u(u) == 0)),
            "the graphs have isolated vertices"
        );
    }

    #[test]
    fn empty_and_isolated() {
        let r = ranked(2, 2, &[]);
        assert_eq!(r.num_edges(), 0);
        assert!(r.neighbors_u(1).is_empty());
    }
}
