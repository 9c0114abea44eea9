//! The engine's published read path: immutable epoch snapshots.
//!
//! Everything a reader can ask of a [`StreamEngine`] is answered from an
//! [`EngineSnapshot`] — an immutable view published once per batch and
//! shared by `Arc`. The whole point of the update/read split is that
//! these answers never synchronize: once a reader holds the `Arc`, every
//! query below is plain slice indexing over data no writer will ever
//! touch again. That invariant is machine-checked — `receipt-lint`'s
//! `no-lock-in-read-path` rule forbids any `.lock()`/`.read()`/
//! `.write()` call in this module, so a blocking query cannot sneak into
//! the read path unnoticed.
//!
//! [`StreamEngine`]: crate::engine::StreamEngine

use bigraph::{BipartiteCsr, Side, VertexId};
use std::sync::Arc;

/// A vertex of a top-k densest query: ranked by tip number, ties broken by
/// butterfly count then ascending id, so the ordering is deterministic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DenseVertex {
    /// Side-local vertex id.
    pub id: VertexId,
    /// The vertex's tip number.
    pub tip: u64,
    /// The vertex's butterfly count.
    pub butterflies: u64,
}

/// An immutable, internally consistent view of the decomposition after a
/// given batch. Cheap to share (`Arc`), never mutated after publication.
/// The graph and the per-edge counts are the butterfly index's own `Arc`s,
/// so consecutive snapshots of a batch that changed no edge share them.
#[derive(Debug, Clone)]
pub struct EngineSnapshot {
    pub(crate) epoch: u64,
    pub(crate) graph: Arc<BipartiteCsr>,
    pub(crate) counts_u: Vec<u64>,
    pub(crate) counts_v: Vec<u64>,
    /// Per-edge butterfly counts aligned with `graph`'s CSR edge ids
    /// ([`BipartiteCsr::edge_index`]).
    pub(crate) edge_counts: Arc<Vec<u64>>,
    pub(crate) total_butterflies: u64,
    pub(crate) tip_u: Vec<u64>,
    pub(crate) tip_v: Vec<u64>,
}

impl EngineSnapshot {
    /// 0 for the freshly loaded graph; +1 per applied batch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The materialized graph this snapshot's answers refer to.
    pub fn graph(&self) -> &BipartiteCsr {
        &self.graph
    }

    /// Number of vertices on `side` at this epoch.
    pub fn num_side(&self, side: Side) -> usize {
        match side {
            Side::U => self.graph.num_u(),
            Side::V => self.graph.num_v(),
        }
    }

    /// Total butterflies in the graph at this epoch.
    pub fn total_butterflies(&self) -> u64 {
        self.total_butterflies
    }

    /// Tip numbers of one side, indexed by side-local vertex id.
    pub fn tip_side(&self, side: Side) -> &[u64] {
        match side {
            Side::U => &self.tip_u,
            Side::V => &self.tip_v,
        }
    }

    /// Per-vertex butterfly counts of one side.
    pub fn counts_side(&self, side: Side) -> &[u64] {
        match side {
            Side::U => &self.counts_u,
            Side::V => &self.counts_v,
        }
    }

    /// Per-edge butterfly counts in `graph().edges()` order.
    pub fn edge_counts(&self) -> &[u64] {
        &self.edge_counts
    }

    /// Tip number of a vertex; `None` if the id is out of range.
    pub fn tip(&self, side: Side, v: VertexId) -> Option<u64> {
        self.tip_side(side).get(v as usize).copied()
    }

    /// Butterfly count of a vertex; `None` if the id is out of range.
    pub fn vertex_butterflies(&self, side: Side, v: VertexId) -> Option<u64> {
        self.counts_side(side).get(v as usize).copied()
    }

    /// Butterfly count of edge `(u, v)`; `None` if the edge is absent.
    pub fn edge_butterflies(&self, u: VertexId, v: VertexId) -> Option<u64> {
        self.graph.edge_index(u, v).map(|eid| self.edge_counts[eid])
    }

    /// Largest tip number on `side` (0 on an empty side).
    pub fn theta_max(&self, side: Side) -> u64 {
        self.tip_side(side).iter().copied().max().unwrap_or(0)
    }

    /// FNV-1a digest of one side's tip numbers in id order.
    pub fn tip_checksum(&self, side: Side) -> u64 {
        crate::dynamic::fnv1a_u64(self.tip_side(side))
    }

    /// The `k` densest vertices of one side: highest tip number first,
    /// ties broken by butterfly count then ascending id.
    pub fn top_k_densest(&self, side: Side, k: usize) -> Vec<DenseVertex> {
        let tips = self.tip_side(side);
        let counts = self.counts_side(side);
        let mut ranked: Vec<DenseVertex> = tips
            .iter()
            .zip(counts)
            .enumerate()
            .map(|(id, (&tip, &butterflies))| DenseVertex {
                id: id as VertexId,
                tip,
                butterflies,
            })
            .collect();
        ranked.sort_by(|a, b| {
            b.tip
                .cmp(&a.tip)
                .then(b.butterflies.cmp(&a.butterflies))
                .then(a.id.cmp(&b.id))
        });
        ranked.truncate(k);
        ranked
    }
}
