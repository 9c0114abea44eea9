//! Compressed-sparse-row storage for bipartite graphs.

use crate::VertexId;
use serde::{Deserialize, Serialize};

/// Which side of the bipartition is being decomposed (the paper's `U` — the
/// *primary* set whose tip numbers are computed).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Side {
    U,
    V,
}

impl Side {
    /// The other side.
    pub fn opposite(self) -> Side {
        match self {
            Side::U => Side::V,
            Side::V => Side::U,
        }
    }

    /// Suffix used by the paper's dataset naming convention (`TrU`, `TrV`).
    pub fn suffix(self) -> &'static str {
        match self {
            Side::U => "U",
            Side::V => "V",
        }
    }
}

impl std::fmt::Display for Side {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.suffix())
    }
}

/// An undirected bipartite graph in dual-CSR form: adjacency is materialized
/// from both sides so wedge traversal (`u → v → u'`) is two sequential scans.
///
/// Invariants (enforced by [`crate::builder::GraphBuilder`]):
/// * no duplicate edges, no out-of-range endpoints;
/// * `u_adj`/`v_adj` are consistent transposes of each other;
/// * adjacency lists are sorted ascending by neighbour id.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BipartiteCsr {
    u_offsets: Vec<usize>,
    u_adj: Vec<VertexId>,
    v_offsets: Vec<usize>,
    v_adj: Vec<VertexId>,
}

impl BipartiteCsr {
    /// Builds from raw parts. Callers outside `builder`/`compact` should
    /// prefer [`crate::builder::GraphBuilder`]. Debug builds assert CSR
    /// well-formedness.
    pub(crate) fn from_parts(
        u_offsets: Vec<usize>,
        u_adj: Vec<VertexId>,
        v_offsets: Vec<usize>,
        v_adj: Vec<VertexId>,
    ) -> Self {
        debug_assert_eq!(*u_offsets.last().unwrap_or(&0), u_adj.len());
        debug_assert_eq!(*v_offsets.last().unwrap_or(&0), v_adj.len());
        debug_assert_eq!(u_adj.len(), v_adj.len());
        BipartiteCsr {
            u_offsets,
            u_adj,
            v_offsets,
            v_adj,
        }
    }

    /// Builds from the U rows alone: row `u` is `u_adj[u_offsets[u]..
    /// u_offsets[u + 1]]`, ascending and duplicate-free, every id `< nv`.
    /// The V rows come from one counting scatter, sorted because the U
    /// rows are scanned in ascending `u`.
    pub(crate) fn from_u_rows(nv: usize, u_offsets: Vec<usize>, u_adj: Vec<VertexId>) -> Self {
        let mut v_offsets = vec![0usize; nv + 1];
        for &v in &u_adj {
            v_offsets[v as usize + 1] += 1;
        }
        let mut end = 0;
        for offset in &mut v_offsets {
            end += *offset;
            *offset = end;
        }
        let mut cursor = v_offsets[..nv].to_vec();
        let mut v_adj = vec![0 as VertexId; u_adj.len()];
        for (u, row) in u_offsets.windows(2).enumerate() {
            for &v in &u_adj[row[0]..row[1]] {
                let slot = &mut cursor[v as usize];
                v_adj[*slot] = u as VertexId;
                *slot += 1;
            }
        }
        Self::from_parts(u_offsets, u_adj, v_offsets, v_adj)
    }

    /// An empty graph with `nu` isolated U-vertices and `nv` isolated
    /// V-vertices.
    pub fn empty(nu: usize, nv: usize) -> Self {
        BipartiteCsr {
            u_offsets: vec![0; nu + 1],
            u_adj: Vec::new(),
            v_offsets: vec![0; nv + 1],
            v_adj: Vec::new(),
        }
    }

    pub fn num_u(&self) -> usize {
        self.u_offsets.len() - 1
    }

    pub fn num_v(&self) -> usize {
        self.v_offsets.len() - 1
    }

    /// Total vertices `n = |W| = |U| + |V|`.
    pub fn num_vertices(&self) -> usize {
        self.num_u() + self.num_v()
    }

    pub fn num_edges(&self) -> usize {
        self.u_adj.len()
    }

    #[inline]
    pub fn deg_u(&self, u: VertexId) -> usize {
        self.u_offsets[u as usize + 1] - self.u_offsets[u as usize]
    }

    #[inline]
    pub fn deg_v(&self, v: VertexId) -> usize {
        self.v_offsets[v as usize + 1] - self.v_offsets[v as usize]
    }

    #[inline]
    pub fn neighbors_u(&self, u: VertexId) -> &[VertexId] {
        &self.u_adj[self.u_offsets[u as usize]..self.u_offsets[u as usize + 1]]
    }

    #[inline]
    pub fn neighbors_v(&self, v: VertexId) -> &[VertexId] {
        &self.v_adj[self.v_offsets[v as usize]..self.v_offsets[v as usize + 1]]
    }

    /// Iterates all edges as `(u, v)` pairs in CSR order.
    pub fn edges(&self) -> impl Iterator<Item = (VertexId, VertexId)> + '_ {
        self.view(Side::U).edges()
    }

    /// Checks membership via binary search (adjacency is sorted).
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        self.neighbors_u(u).binary_search(&v).is_ok()
    }

    /// Edge id of `(u, v)` in U-side CSR order: [`SideGraph::edge_index`]
    /// of the U view.
    pub fn edge_index(&self, u: VertexId, v: VertexId) -> Option<usize> {
        self.view(Side::U).edge_index(u, v)
    }

    /// The view that peels `side` (treats it as the paper's `U`).
    pub fn view(&self, side: Side) -> SideGraph<'_> {
        SideGraph { csr: self, side }
    }

    /// Returns a new graph with the two sides exchanged (`U ↔ V`).
    pub fn transposed(&self) -> BipartiteCsr {
        BipartiteCsr {
            u_offsets: self.v_offsets.clone(),
            u_adj: self.v_adj.clone(),
            v_offsets: self.u_offsets.clone(),
            v_adj: self.u_adj.clone(),
        }
    }
}

/// Zero-copy view of a [`BipartiteCsr`] with a chosen *primary* side.
///
/// Throughout the workspace, "primary" plays the role of the paper's `U`
/// (the set being tip-decomposed) and "secondary" the role of `V`.
#[derive(Debug, Clone, Copy)]
pub struct SideGraph<'a> {
    csr: &'a BipartiteCsr,
    side: Side,
}

impl<'a> SideGraph<'a> {
    pub fn csr(&self) -> &'a BipartiteCsr {
        self.csr
    }

    pub fn side(&self) -> Side {
        self.side
    }

    /// `|U|` of the view.
    #[inline]
    pub fn num_primary(&self) -> usize {
        match self.side {
            Side::U => self.csr.num_u(),
            Side::V => self.csr.num_v(),
        }
    }

    /// `|V|` of the view.
    #[inline]
    pub fn num_secondary(&self) -> usize {
        match self.side {
            Side::U => self.csr.num_v(),
            Side::V => self.csr.num_u(),
        }
    }

    pub fn num_edges(&self) -> usize {
        self.csr.num_edges()
    }

    #[inline]
    pub fn deg_primary(&self, p: VertexId) -> usize {
        match self.side {
            Side::U => self.csr.deg_u(p),
            Side::V => self.csr.deg_v(p),
        }
    }

    #[inline]
    pub fn deg_secondary(&self, s: VertexId) -> usize {
        match self.side {
            Side::U => self.csr.deg_v(s),
            Side::V => self.csr.deg_u(s),
        }
    }

    /// Secondary neighbours of a primary vertex.
    #[inline]
    pub fn neighbors_primary(&self, p: VertexId) -> &'a [VertexId] {
        match self.side {
            Side::U => self.csr.neighbors_u(p),
            Side::V => self.csr.neighbors_v(p),
        }
    }

    /// Primary neighbours of a secondary vertex.
    #[inline]
    pub fn neighbors_secondary(&self, s: VertexId) -> &'a [VertexId] {
        match self.side {
            Side::U => self.csr.neighbors_v(s),
            Side::V => self.csr.neighbors_u(s),
        }
    }

    /// Edge id of `(p, s)` in the primary side's CSR order: `p`'s CSR
    /// offset plus the position of `s` in the sorted `N(p)`. `None` when
    /// the edge is absent or `p` is out of range. Ids run `0..num_edges()`
    /// in [`Self::edges`] order, the order of the per-edge counting
    /// kernels, so flat per-edge arrays indexed by them need no hashing.
    #[inline]
    pub fn edge_index(&self, p: VertexId, s: VertexId) -> Option<usize> {
        let (offsets, adj) = self.primary_csr();
        let (&start, &end) = (offsets.get(p as usize)?, offsets.get(p as usize + 1)?);
        adj[start..end]
            .binary_search(&s)
            .ok()
            .map(|pos| start + pos)
    }

    /// Iterates all edges as `(primary, secondary)` pairs, in edge-id
    /// order.
    pub fn edges(&self) -> impl Iterator<Item = (VertexId, VertexId)> + 'a {
        let (offsets, adj) = self.primary_csr();
        (0..self.num_primary() as VertexId).flat_map(move |p| {
            adj[offsets[p as usize]..offsets[p as usize + 1]]
                .iter()
                .map(move |&s| (p, s))
        })
    }

    /// The primary side's CSR offsets and adjacency.
    #[inline]
    fn primary_csr(&self) -> (&'a [usize], &'a [VertexId]) {
        match self.side {
            Side::U => (&self.csr.u_offsets, &self.csr.u_adj),
            Side::V => (&self.csr.v_offsets, &self.csr.v_adj),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    fn diamond() -> BipartiteCsr {
        // u0-v0, u0-v1, u1-v0, u1-v1: one butterfly.
        GraphBuilder::new(2, 2)
            .add_edges([(0, 0), (0, 1), (1, 0), (1, 1)])
            .build()
            .unwrap()
    }

    #[test]
    fn basic_accessors() {
        let g = diamond();
        assert_eq!(g.num_u(), 2);
        assert_eq!(g.num_v(), 2);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.deg_u(0), 2);
        assert_eq!(g.neighbors_u(1), &[0, 1]);
        assert_eq!(g.neighbors_v(0), &[0, 1]);
        assert!(g.has_edge(0, 1));
        assert!(!BipartiteCsr::empty(3, 3).has_edge(0, 1));
    }

    #[test]
    fn edges_iterator_yields_all() {
        let g = diamond();
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges, vec![(0, 0), (0, 1), (1, 0), (1, 1)]);
    }

    #[test]
    fn empty_graph() {
        let g = BipartiteCsr::empty(3, 5);
        assert_eq!(g.num_u(), 3);
        assert_eq!(g.num_v(), 5);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.deg_u(2), 0);
        assert!(g.neighbors_v(4).is_empty());
    }

    #[test]
    fn view_u_matches_direct_access() {
        let g = GraphBuilder::new(2, 3)
            .add_edges([(0, 0), (0, 2), (1, 1)])
            .build()
            .unwrap();
        let vu = g.view(Side::U);
        assert_eq!(vu.num_primary(), 2);
        assert_eq!(vu.num_secondary(), 3);
        assert_eq!(vu.neighbors_primary(0), &[0, 2]);
        assert_eq!(vu.neighbors_secondary(1), &[1]);
        assert_eq!(vu.deg_primary(0), 2);
        assert_eq!(vu.deg_secondary(2), 1);
    }

    #[test]
    fn view_v_swaps_roles() {
        let g = GraphBuilder::new(2, 3)
            .add_edges([(0, 0), (0, 2), (1, 1)])
            .build()
            .unwrap();
        let vv = g.view(Side::V);
        assert_eq!(vv.num_primary(), 3);
        assert_eq!(vv.num_secondary(), 2);
        assert_eq!(vv.neighbors_primary(2), &[0]);
        assert_eq!(vv.neighbors_secondary(0), &[0, 2]);
    }

    #[test]
    fn side_edge_ids_are_positions_in_edges() {
        // Fewer edges than vertices on either side: both keep isolated
        // vertices.
        let g = crate::gen::zipf(80, 60, 50, 0.5, 1.0, 3);
        for side in [Side::U, Side::V] {
            let view = g.view(side);
            let isolated =
                (0..view.num_primary() as VertexId).filter(|&p| view.deg_primary(p) == 0);
            assert!(isolated.count() > 0, "side {side} has no isolated vertex");
            let edges: Vec<_> = view.edges().collect();
            assert_eq!(edges.len(), g.num_edges());
            for (e, &(p, s)) in edges.iter().enumerate() {
                assert_eq!(
                    view.edge_index(p, s),
                    Some(e),
                    "side {side}, edge ({p}, {s})"
                );
                let (u, v) = if side == Side::U { (p, s) } else { (s, p) };
                assert!(g.has_edge(u, v));
            }
            for p in 0..view.num_primary() as VertexId {
                for s in 0..view.num_secondary() as VertexId {
                    if !view.neighbors_primary(p).contains(&s) {
                        assert_eq!(view.edge_index(p, s), None, "side {side}, ({p}, {s})");
                    }
                }
            }
            let past_end = view.num_primary() as VertexId;
            assert_eq!(view.edge_index(past_end, 0), None);
            assert_eq!(view.edge_index(VertexId::MAX, 0), None);
        }
        let u = g.view(Side::U);
        assert!(g.edges().eq(u.edges()));
        for (u_id, v_id) in g.edges() {
            assert_eq!(g.edge_index(u_id, v_id), u.edge_index(u_id, v_id));
        }
        assert_eq!(g.edge_index(g.num_u() as VertexId, 0), None);
    }

    #[test]
    fn transpose_round_trips() {
        let g = GraphBuilder::new(2, 3)
            .add_edges([(0, 0), (0, 2), (1, 1)])
            .build()
            .unwrap();
        let t = g.transposed();
        assert_eq!(t.num_u(), 3);
        assert_eq!(t.num_v(), 2);
        assert_eq!(t.neighbors_u(2), &[0]);
        assert_eq!(t.transposed(), g);
    }

    #[test]
    fn side_helpers() {
        assert_eq!(Side::U.opposite(), Side::V);
        assert_eq!(Side::V.opposite(), Side::U);
        assert_eq!(Side::U.to_string(), "U");
        assert_eq!(format!("Tr{}", Side::V), "TrV");
    }
}
