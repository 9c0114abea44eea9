//! Butterfly ((2,2)-biclique) counting.
//!
//! Counting initializes vertex supports for tip decomposition (Algorithm 2
//! line 1) and doubles as RECEIPT's HUC re-count primitive (§4.1), so both
//! its cost model and its exact per-vertex semantics matter:
//! `⋈_u` = the number of butterflies vertex `u` participates in.
//!
//! * [`naive`] — `O(Σ d²)` wedge-hashing oracle, used to validate the fast
//!   counters and for tiny graphs.
//! * [`count`] — the vertex-priority algorithm of Chiba–Nishizeki with the
//!   degree-descending relabeling of Wang et al. (paper Algorithm 1),
//!   sequential.
//! * [`parallel`] — the parallel variant (per-thread wedge arrays, batch
//!   aggregation) adopted by RECEIPT from ParButterfly.
//! * [`per_edge`] — per-edge butterfly counts, the support function for
//!   wing (edge) decomposition (§7).
//! * [`dynamic`] — incremental maintenance of per-vertex and per-edge
//!   counts across batched edge insertions/deletions.
//! * [`intersect`] — the sorted-set intersection kernels (scalar merge,
//!   galloping search, hub bitset) and the degree-ratio heuristic that
//!   picks between them in the wedge loops.

#![forbid(unsafe_code)]

pub mod count;
pub mod dynamic;
pub mod intersect;
pub mod naive;
pub mod parallel;
pub mod per_edge;

pub use dynamic::{BatchDelta, DynamicButterflyIndex};

use bigraph::{BipartiteCsr, Side};

/// Per-vertex butterfly counts for both sides, plus the number of wedges
/// the counter traversed (the paper's `∧_pvBcnt` metric in Table 3).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VertexCounts {
    pub u: Vec<u64>,
    pub v: Vec<u64>,
    pub wedges_traversed: u64,
}

impl VertexCounts {
    /// Counts for the chosen side.
    pub fn side(&self, side: Side) -> &[u64] {
        match side {
            Side::U => &self.u,
            Side::V => &self.v,
        }
    }

    /// Total butterflies in the graph. Each butterfly touches exactly two
    /// `U`-vertices, so the U-side counts sum to `2 ⋈_G`.
    pub fn total(&self) -> u64 {
        self.u.iter().sum::<u64>() / 2
    }

    /// Splits counts indexed by [`bigraph::RankedGraph`]'s global ids (the
    /// `nu` U-vertices first, then V) into the two sides.
    pub(crate) fn from_global(mut counts: Vec<u64>, nu: usize, wedges_traversed: u64) -> Self {
        let v = counts.split_off(nu);
        VertexCounts {
            u: counts,
            v,
            wedges_traversed,
        }
    }
}

/// Convenience: count per-vertex butterflies on `g` with the sequential
/// vertex-priority algorithm (rank construction included).
///
/// ```
/// // One butterfly: u0,u1 x v0,v1.
/// let g = bigraph::builder::from_edges(2, 2, &[(0, 0), (0, 1), (1, 0), (1, 1)]).unwrap();
/// let counts = butterfly::count_graph(&g);
/// assert_eq!(counts.total(), 1);
/// assert_eq!(counts.u, vec![1, 1]);
/// ```
pub fn count_graph(g: &BipartiteCsr) -> VertexCounts {
    let ranked = bigraph::RankedGraph::from_csr(g);
    count::vertex_priority_counts(&ranked)
}

/// Convenience: parallel counting (uses the ambient rayon pool).
pub fn par_count_graph(g: &BipartiteCsr) -> VertexCounts {
    let ranked = bigraph::RankedGraph::from_csr(g);
    parallel::par_vertex_priority_counts(&ranked)
}
