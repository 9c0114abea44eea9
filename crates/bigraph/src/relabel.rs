//! Degree-descending global ranking (the vertex-priority order used by
//! butterfly counting, Algorithm 1 lines 1–3).
//!
//! Chiba–Nishizeki's quadrangle counting bounds work by charging each
//! butterfly to its highest-priority vertex, the one of lowest rank: a
//! wedge is walked only from a start vertex to an endpoint ranked below
//! both the start and the middle. Wang et al. show that relabeling
//! vertices in decreasing-degree order and sorting adjacency by the new
//! labels makes the inner-loop cut-off cache-friendly. We keep ids but
//! number `W = U ∪ V` globally (U-vertex `u` is `u`, V-vertex `v` is
//! `num_u + v`), rank all of `W` at once (rank 0 = highest degree) and
//! store one adjacency over `W` with every list sorted by neighbour rank.

use crate::csr::BipartiteCsr;
use crate::VertexId;

/// A [`BipartiteCsr`] companion: one rank-sorted adjacency over the global
/// ids of `W = U ∪ V`.
#[derive(Debug, Clone)]
pub struct RankedGraph {
    nu: usize,
    /// Global rank (0 = highest degree in `W`) per global id.
    rank: Vec<u32>,
    offsets: Vec<usize>,
    /// Neighbours of each vertex as global ids, ascending by `rank`.
    adj: Vec<VertexId>,
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
        let n = nu + g.num_v();

        // Each list keeps its CSR length, so the offsets come first and
        // every degree is read from them.
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0);
        let mut at = 0;
        for u in 0..nu {
            at += g.deg_u(u as VertexId);
            offsets.push(at);
        }
        for v in 0..g.num_v() {
            at += g.deg_v(v as VertexId);
            offsets.push(at);
        }
        let deg = |w: usize| offsets[w + 1] - offsets[w];

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
        let mut order = vec![0 as VertexId; n];
        for w in 0..n {
            let slot = &mut start[max_deg - deg(w)];
            order[*slot] = w as VertexId;
            *slot += 1;
        }
        let mut rank = vec![0u32; n];
        for (r, &w) in order.iter().enumerate() {
            rank[w as usize] = r as u32;
        }

        // Scatter each vertex, in rank order, onto its neighbours' lists.
        let mut adj = vec![0 as VertexId; at];
        let mut next = offsets[..n].to_vec();
        for &w in &order {
            let (side_ids, shift) = match (w as usize).checked_sub(nu) {
                None => (g.neighbors_u(w), nu),
                Some(v) => (g.neighbors_v(v as VertexId), 0),
            };
            for &x in side_ids {
                let x = x as usize + shift;
                adj[next[x]] = w;
                next[x] += 1;
            }
        }

        RankedGraph {
            nu,
            rank,
            offsets,
            adj,
        }
    }

    pub fn num_u(&self) -> usize {
        self.nu
    }

    pub fn num_v(&self) -> usize {
        self.rank.len() - self.nu
    }

    /// `|W| = |U| + |V|`, the bound of the global ids.
    pub fn num_vertices(&self) -> usize {
        self.rank.len()
    }

    pub fn num_edges(&self) -> usize {
        self.adj.len() / 2
    }

    /// Global rank of global id `w` (0 = highest degree).
    #[inline]
    pub fn rank(&self, w: VertexId) -> u32 {
        self.rank[w as usize]
    }

    /// Neighbours of global id `w` as global ids, ascending by rank
    /// (highest degree first).
    #[inline]
    pub fn neighbors(&self, w: VertexId) -> &[VertexId] {
        &self.adj[self.offsets[w as usize]..self.offsets[w as usize + 1]]
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
        let mut all: Vec<u32> = (0..6).map(|w| r.rank(w)).collect();
        all.sort_unstable();
        assert_eq!(all, (0..6).collect::<Vec<_>>());
    }

    #[test]
    fn higher_degree_gets_lower_rank() {
        // u0 has degree 3, everything else lower.
        let r = ranked(2, 3, &[(0, 0), (0, 1), (0, 2), (1, 0)]);
        assert_eq!(r.rank(0), 0);
        // v0 (global id 2) has degree 2, the unique second-highest.
        assert_eq!(r.rank(2), 1);
    }

    #[test]
    fn adjacency_sorted_by_rank() {
        let r = ranked(3, 3, &[(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (2, 0)]);
        for w in 0..6u32 {
            let ranks: Vec<u32> = r.neighbors(w).iter().map(|&x| r.rank(x)).collect();
            assert!(ranks.windows(2).all(|p| p[0] < p[1]), "w{w}: {ranks:?}");
        }
    }

    #[test]
    fn degrees_preserved() {
        let g = from_edges(4, 2, &[(0, 0), (1, 0), (1, 1), (3, 1)]).unwrap();
        let r = RankedGraph::from_csr(&g);
        assert_eq!((r.num_u(), r.num_v(), r.num_vertices()), (4, 2, 6));
        for u in 0..4u32 {
            assert_eq!(r.neighbors(u).len(), g.deg_u(u));
            // U-vertices' neighbours are V-vertices.
            assert!(r.neighbors(u).iter().all(|&x| x >= 4));
        }
        for v in 0..2u32 {
            assert_eq!(r.neighbors(4 + v).len(), g.deg_v(v));
            assert!(r.neighbors(4 + v).iter().all(|&x| x < 4));
        }
        assert_eq!(r.num_edges(), g.num_edges());
    }

    #[test]
    fn deterministic_tie_breaking() {
        let edges = [(0, 0), (1, 1), (2, 2)];
        let a = ranked(3, 3, &edges);
        let b = ranked(3, 3, &edges);
        assert_eq!(a.rank, b.rank);
        // All degree-1: U vertices rank before V by tie-break (global id).
        assert!(a.rank(2) < a.rank(3));
    }

    /// The ranking by comparison sorts: `W` by (degree descending, global
    /// id ascending), then every list by neighbour rank.
    fn sorted_reference(g: &BipartiteCsr) -> RankedGraph {
        let nu = g.num_u();
        let lists: Vec<Vec<u32>> = (0..nu as u32)
            .map(|u| g.neighbors_u(u).iter().map(|&v| nu as u32 + v).collect())
            .chain((0..g.num_v() as u32).map(|v| g.neighbors_v(v).to_vec()))
            .collect();
        let mut order: Vec<u32> = (0..lists.len() as u32).collect();
        order.sort_by(|&a, &b| {
            let deg = |w: u32| lists[w as usize].len();
            deg(b).cmp(&deg(a)).then(a.cmp(&b))
        });
        let mut rank = vec![0u32; lists.len()];
        for (r, &w) in order.iter().enumerate() {
            rank[w as usize] = r as u32;
        }
        let mut offsets = vec![0];
        let mut adj = Vec::new();
        for mut list in lists {
            list.sort_by_key(|&x| rank[x as usize]);
            adj.extend(list);
            offsets.push(adj.len());
        }
        RankedGraph {
            nu,
            rank,
            offsets,
            adj,
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
            assert_eq!(got.nu, want.nu);
            assert_eq!(got.rank, want.rank);
            assert_eq!(got.offsets, want.offsets);
            assert_eq!(got.adj, want.adj);
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
        assert_eq!(r.num_vertices(), 4);
        assert!(r.neighbors(1).is_empty());
        assert!(r.neighbors(3).is_empty());
    }
}
