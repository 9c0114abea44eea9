//! Edge-list ingestion.

use crate::csr::BipartiteCsr;
use crate::VertexId;
use rayon::prelude::*;

/// Errors raised while assembling a graph from an edge list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildError {
    /// An endpoint referenced a vertex id `>= side size`.
    VertexOutOfRange {
        u: VertexId,
        v: VertexId,
        nu: usize,
        nv: usize,
    },
    /// The requested side sizes do not fit `VertexId`.
    SideTooLarge(usize),
}

impl std::fmt::Display for BuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BuildError::VertexOutOfRange { u, v, nu, nv } => {
                write!(f, "edge ({u}, {v}) out of range for |U|={nu}, |V|={nv}")
            }
            BuildError::SideTooLarge(n) => write!(f, "side size {n} exceeds u32 vertex ids"),
        }
    }
}

impl std::error::Error for BuildError {}

/// Accumulates edges and produces a validated, deduplicated
/// [`BipartiteCsr`]. Duplicate edges are silently merged (the KONECT
/// datasets the paper uses contain repeated interactions; tip decomposition
/// is defined on simple graphs).
#[derive(Debug, Clone)]
pub struct GraphBuilder {
    nu: usize,
    nv: usize,
    edges: Vec<(VertexId, VertexId)>,
}

impl GraphBuilder {
    pub fn new(nu: usize, nv: usize) -> Self {
        GraphBuilder {
            nu,
            nv,
            edges: Vec::new(),
        }
    }

    pub fn add_edge(mut self, u: VertexId, v: VertexId) -> Self {
        self.edges.push((u, v));
        self
    }

    pub fn add_edges(mut self, edges: impl IntoIterator<Item = (VertexId, VertexId)>) -> Self {
        self.edges.extend(edges);
        self
    }

    /// Builds the dual-CSR graph: validates endpoints, sorts, dedups, then
    /// lays out the U rows and scatters them into the V rows.
    pub fn build(self) -> Result<BipartiteCsr, BuildError> {
        let GraphBuilder { nu, nv, mut edges } = self;
        if nu > VertexId::MAX as usize {
            return Err(BuildError::SideTooLarge(nu));
        }
        if nv > VertexId::MAX as usize {
            return Err(BuildError::SideTooLarge(nv));
        }
        if let Some(&(u, v)) = edges
            .iter()
            .find(|&&(u, v)| u as usize >= nu || v as usize >= nv)
        {
            return Err(BuildError::VertexOutOfRange { u, v, nu, nv });
        }

        edges.par_sort_unstable();
        edges.dedup();

        // U-side CSR straight from the sorted edge list.
        let mut u_counts = vec![0u64; nu + 1];
        for &(u, _) in &edges {
            u_counts[u as usize + 1] += 1;
        }
        parutil::inclusive_prefix_sum(&mut u_counts);
        let u_offsets: Vec<usize> = u_counts.iter().map(|&c| c as usize).collect();
        let u_adj: Vec<VertexId> = edges.iter().map(|&(_, v)| v).collect();
        Ok(BipartiteCsr::from_u_rows(nv, u_offsets, u_adj))
    }
}

/// Convenience: build directly from a slice of edges.
pub fn from_edges(
    nu: usize,
    nv: usize,
    edges: &[(VertexId, VertexId)],
) -> Result<BipartiteCsr, BuildError> {
    GraphBuilder::new(nu, nv)
        .add_edges(edges.iter().copied())
        .build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_sorted_dedup_csr() {
        let g = GraphBuilder::new(3, 2)
            .add_edges([(2, 1), (0, 0), (2, 0), (0, 0), (1, 1)])
            .build()
            .unwrap();
        assert_eq!(g.num_edges(), 4); // duplicate (0,0) merged
        assert_eq!(g.neighbors_u(0), &[0]);
        assert_eq!(g.neighbors_u(2), &[0, 1]);
        assert_eq!(g.neighbors_v(0), &[0, 2]);
        assert_eq!(g.neighbors_v(1), &[1, 2]);
    }

    #[test]
    fn rejects_out_of_range() {
        let err = GraphBuilder::new(2, 2).add_edge(2, 0).build().unwrap_err();
        assert!(matches!(err, BuildError::VertexOutOfRange { u: 2, .. }));
        let err = GraphBuilder::new(2, 2).add_edge(0, 5).build().unwrap_err();
        assert!(matches!(err, BuildError::VertexOutOfRange { v: 5, .. }));
        assert!(err.to_string().contains("out of range"));
    }

    #[test]
    fn empty_build() {
        let g = GraphBuilder::new(0, 0).build().unwrap();
        assert_eq!(g.num_u(), 0);
        assert_eq!(g.num_edges(), 0);
        let g = GraphBuilder::new(4, 4).build().unwrap();
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.deg_u(3), 0);
    }

    #[test]
    fn transpose_consistency() {
        // Sum of V-side degrees must equal edge count and the adjacency must
        // be a true transpose.
        let g = from_edges(4, 3, &[(0, 0), (1, 0), (1, 2), (3, 1), (3, 2)]).unwrap();
        let mut rebuilt: Vec<(u32, u32)> = Vec::new();
        for v in 0..g.num_v() as u32 {
            for &u in g.neighbors_v(v) {
                rebuilt.push((u, v));
            }
        }
        rebuilt.sort_unstable();
        let direct: Vec<_> = g.edges().collect();
        assert_eq!(rebuilt, direct);
    }

    #[test]
    fn v_adjacency_is_sorted() {
        let g = from_edges(5, 2, &[(4, 0), (2, 0), (0, 0), (3, 1), (1, 1)]).unwrap();
        assert_eq!(g.neighbors_v(0), &[0, 2, 4]);
        assert_eq!(g.neighbors_v(1), &[1, 3]);
    }
}
