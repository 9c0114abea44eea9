//! Bipartite graph engine for the RECEIPT reproduction.
//!
//! A bipartite graph `G(W = (U, V), E)` is stored as a pair of CSR adjacency
//! structures (one per side). All decomposition algorithms are written
//! against [`SideGraph`], a zero-copy view that designates one side as the
//! *primary* (peeled) vertex set — the paper decomposes either `U` or `V` of
//! every dataset, and so do we.
//!
//! Modules:
//! * [`csr`] — the core [`BipartiteCsr`] storage and [`SideGraph`] view.
//! * [`builder`] — edge-list ingestion with deduplication and validation.
//! * [`relabel`] — one degree-descending ranking of all of `W = U ∪ V`
//!   and one rank-sorted adjacency over its global ids (U-vertex `u` is
//!   `u`, V-vertex `v` is `num_u + v`): the cache-efficient reordering of
//!   Wang et al. that Algorithm 1 of the paper runs one loop over.
//! * [`induced`] — subgraphs induced on a subset of the primary side
//!   (RECEIPT FD peels each `G_i = G[U_i ∪ V]` independently).
//! * [`compact`] — parallel edge compaction: builds the live subgraph
//!   from scratch, the oracle that RECEIPT's Dynamic Graph Maintenance
//!   (§4.2), which drops peeled vertices in place, is tested against.
//! * [`dynamic`] — batch-dynamic graphs: a delta overlay over the CSR
//!   that answers membership, materializes the current graph by one
//!   ordered merge in `O(|E| + overlay)` (the butterfly index does so once
//!   per batch that changes an edge), reports when it has outgrown its
//!   compaction threshold and takes that materialized CSR as its new
//!   base, plus the `tipdecomp stream` batch file format and seeded
//!   insert/delete schedules.
//! * [`gen`] — seeded synthetic generators (uniform, Zipf configuration
//!   model, planted bicliques, affiliation model).
//! * [`datasets`] — six named generator presets standing in for the KONECT
//!   datasets of the paper's evaluation (their statistics are the Table 2
//!   analog in `EXPERIMENTS.md`).
//! * [`io`] — KONECT-style whitespace edge-list reader/writer.
//! * [`binfmt`] — the checksummed fixed-width binary graph image
//!   (`.bgr`) specified in `FORMATS.md` §1.
//! * [`bytes`] — fail-closed little-endian reads shared by every durable
//!   decoder (`FORMATS.md` §2: corrupt input errors, never panics), and
//!   the one FNV-1a checksum every durable format and tip digest uses.
//! * [`mod@derive`] — set-algebraic union/difference over whole graphs
//!   (`VERSIONING.md` §6), the non-induced half of `tipdecomp derive`.
//! * [`stats`] — wedge counts and the peel/re-count cost model behind the
//!   HUC optimization (§4.1).

#![forbid(unsafe_code)]

pub mod binfmt;
pub mod builder;
pub mod bytes;
pub mod compact;
pub mod csr;
pub mod datasets;
pub mod derive;
pub mod dynamic;
pub mod gen;
pub mod induced;
pub mod io;
pub mod projection;
pub mod relabel;
pub mod stats;

pub use builder::GraphBuilder;
pub use csr::{BipartiteCsr, Side, SideGraph};
pub use dynamic::{DynamicBigraph, EdgeOp};
pub use induced::InducedGraph;
pub use relabel::RankedGraph;

/// Side-local vertex identifier. Graphs in this workspace are bounded by
/// `u32` per side (the paper's largest dataset has 27.7M primary vertices).
pub type VertexId = u32;
