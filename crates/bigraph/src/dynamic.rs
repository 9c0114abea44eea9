//! Batch-dynamic bipartite graphs: a delta overlay over [`BipartiteCsr`].
//!
//! Real bipartite streams (user–item, author–paper) arrive as batches of
//! edge insertions and deletions. Rebuilding the CSR per batch would cost
//! `O(m log m)` regardless of batch size, so [`DynamicBigraph`] keeps the
//! last compacted CSR as an immutable *base* plus two sorted overlays —
//! edges added since, edges removed since — and answers adjacency queries
//! through a sorted merge of base and overlay. Once the overlay grows past
//! a configurable fraction of the base (the same traversed-work-vs-rebuild
//! trade DGM makes in §4.2), [`DynamicBigraph::needs_compaction`] says so,
//! and the owner folds the overlay into the CSR it materialized
//! ([`DynamicBigraph::compact`]): the butterfly index does, after it has
//! patched its base-aligned per-edge counts.
//!
//! Sides only grow (ops may reference vertices beyond the current sizes);
//! vertex ids are stable for the lifetime of the graph, which is what lets
//! the incremental butterfly/tip layers keep per-vertex state across
//! batches.
//!
//! The module also owns the stream *file format* consumed by
//! `tipdecomp stream`: one op per line (`+ u v` inserts, `- u v` deletes,
//! the sign may be glued to `u`), `%`/`#` comments ignored, batches
//! separated by blank lines.

use crate::builder::GraphBuilder;
use crate::csr::BipartiteCsr;
use crate::io::IoError;
use crate::VertexId;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;
use std::io::{BufRead, BufReader, Read};

/// One streamed edge operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EdgeOp {
    /// Insert the edge `(u, v)`.
    Insert(VertexId, VertexId),
    /// Delete the edge `(u, v)`.
    Delete(VertexId, VertexId),
}

impl EdgeOp {
    /// The `(u, v)` endpoint pair of the op.
    pub fn edge(self) -> (VertexId, VertexId) {
        match self {
            EdgeOp::Insert(u, v) | EdgeOp::Delete(u, v) => (u, v),
        }
    }
}

/// What a batch did to the graph, classified against the pre-batch state.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct BatchApplication {
    /// Effective insertions (edge was absent), in op order.
    pub inserted: Vec<(VertexId, VertexId)>,
    /// Effective deletions (edge was present), in op order.
    pub deleted: Vec<(VertexId, VertexId)>,
    /// No-op count: inserts of present edges, deletes of absent edges, and
    /// earlier ops on an edge that a later op in the same batch overrode.
    pub skipped: usize,
    /// The batch pushed the overlay past the threshold and the owner
    /// rebuilt the base CSR ([`DynamicBigraph::apply_batch`] itself never
    /// compacts, so it leaves this `false`).
    pub compacted: bool,
}

/// A bipartite graph that absorbs batched edge insertions/deletions.
#[derive(Debug, Clone)]
pub struct DynamicBigraph {
    base: BipartiteCsr,
    /// Edges present but not in `base`, keyed `(u, v)`.
    added: BTreeSet<(VertexId, VertexId)>,
    /// Mirror of `added` keyed `(v, u)` for V-side adjacency.
    added_t: BTreeSet<(VertexId, VertexId)>,
    /// Edges in `base` that have been deleted, keyed `(u, v)`.
    removed: BTreeSet<(VertexId, VertexId)>,
    removed_t: BTreeSet<(VertexId, VertexId)>,
    /// Logical side sizes (≥ the base's — sides grow, never shrink).
    num_u: usize,
    num_v: usize,
    /// Recompact once `added + removed > threshold · base edges`.
    compact_threshold: f64,
    compactions: u64,
}

/// Default overlay fraction that triggers recompaction.
pub const DEFAULT_COMPACT_THRESHOLD: f64 = 0.25;

impl DynamicBigraph {
    /// Wraps a static graph with an empty overlay.
    pub fn new(base: BipartiteCsr) -> Self {
        Self::with_threshold(base, DEFAULT_COMPACT_THRESHOLD)
    }

    /// `threshold` is the overlay-to-base edge ratio that triggers
    /// recompaction; values ≤ 0 recompact after every mutating batch.
    pub fn with_threshold(base: BipartiteCsr, threshold: f64) -> Self {
        DynamicBigraph {
            num_u: base.num_u(),
            num_v: base.num_v(),
            base,
            added: BTreeSet::new(),
            added_t: BTreeSet::new(),
            removed: BTreeSet::new(),
            removed_t: BTreeSet::new(),
            compact_threshold: threshold,
            compactions: 0,
        }
    }

    /// The last compacted CSR the overlay is relative to. Incremental
    /// layers align flat per-edge state with this graph's edge ids
    /// ([`BipartiteCsr::edge_index`]); the alignment stays valid exactly
    /// until the next [`Self::compact`].
    pub fn base(&self) -> &BipartiteCsr {
        &self.base
    }

    /// Current U-side size (base plus on-demand growth).
    pub fn num_u(&self) -> usize {
        self.num_u
    }

    /// Current V-side size (base plus on-demand growth).
    pub fn num_v(&self) -> usize {
        self.num_v
    }

    /// Live edge count: base edges plus the overlay's net effect.
    pub fn num_edges(&self) -> usize {
        self.base.num_edges() + self.added.len() - self.removed.len()
    }

    /// Entries in the delta overlay (diagnostics; 0 right after compaction).
    pub fn overlay_len(&self) -> usize {
        self.added.len() + self.removed.len()
    }

    /// Times the overlay was folded into the base CSR.
    pub fn compactions(&self) -> u64 {
        self.compactions
    }

    /// Whether `(u, v)` is a live edge, overlay included.
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        if self.added.contains(&(u, v)) {
            return true;
        }
        (u as usize) < self.base.num_u()
            && (v as usize) < self.base.num_v()
            && self.base.has_edge(u, v)
            && !self.removed.contains(&(u, v))
    }

    /// Secondary neighbours of `u`, ascending: the base adjacency minus
    /// removed edges, merged with the added overlay.
    pub fn neighbors_u(&self, u: VertexId) -> impl Iterator<Item = VertexId> + '_ {
        let base = if (u as usize) < self.base.num_u() {
            self.base.neighbors_u(u)
        } else {
            &[]
        };
        merge_overlay(
            base.iter()
                .copied()
                .filter(move |&v| !self.removed.contains(&(u, v))),
            self.added
                .range((u, 0)..=(u, VertexId::MAX))
                .map(|&(_, v)| v),
        )
    }

    /// Degree of `u` (base minus removed plus added overlay edges),
    /// without materializing the merge. O(log overlay) — the kernel-
    /// selection heuristics in the butterfly layer call this per wedge
    /// to size intersections before choosing a kernel.
    pub fn degree_u(&self, u: VertexId) -> usize {
        let base = if (u as usize) < self.base.num_u() {
            self.base.neighbors_u(u).len()
        } else {
            0
        };
        let removed = self.removed.range((u, 0)..=(u, VertexId::MAX)).count();
        let added = self.added.range((u, 0)..=(u, VertexId::MAX)).count();
        base - removed + added
    }

    /// The base CSR's adjacency slice for `u`, available only when the
    /// overlay holds no entry for `u` (so the slice *is* the current
    /// adjacency). Galloping intersection needs random access; callers
    /// fall back to the [`Self::neighbors_u`] merge iterator on `None`.
    pub fn base_only_neighbors_u(&self, u: VertexId) -> Option<&[VertexId]> {
        let touched = self
            .added
            .range((u, 0)..=(u, VertexId::MAX))
            .next()
            .is_some()
            || self
                .removed
                .range((u, 0)..=(u, VertexId::MAX))
                .next()
                .is_some();
        if touched {
            return None;
        }
        Some(if (u as usize) < self.base.num_u() {
            self.base.neighbors_u(u)
        } else {
            &[]
        })
    }

    /// Primary neighbours of `v`, ascending.
    pub fn neighbors_v(&self, v: VertexId) -> impl Iterator<Item = VertexId> + '_ {
        let base = if (v as usize) < self.base.num_v() {
            self.base.neighbors_v(v)
        } else {
            &[]
        };
        merge_overlay(
            base.iter()
                .copied()
                .filter(move |&u| !self.removed_t.contains(&(v, u))),
            self.added_t
                .range((v, 0)..=(v, VertexId::MAX))
                .map(|&(_, u)| u),
        )
    }

    /// All current edges in `(u, v)` lexicographic order.
    pub fn edges(&self) -> impl Iterator<Item = (VertexId, VertexId)> + '_ {
        (0..self.num_u as VertexId).flat_map(move |u| self.neighbors_u(u).map(move |v| (u, v)))
    }

    /// Classifies a batch against the current graph *without applying it*.
    /// Within a batch the *last* op on an edge wins; ops that do not
    /// change the graph (inserting a present edge, deleting an absent one)
    /// are counted in `skipped`. This is the single classification used by
    /// [`Self::apply_batch`] — incremental layers call it first to price
    /// deletions on the pre-batch graph, then apply, and both views of the
    /// batch agree by construction.
    pub fn classify_batch(&self, ops: &[EdgeOp]) -> BatchApplication {
        let mut result = BatchApplication::default();
        // Last op per edge wins; earlier ops on the same edge are no-ops.
        let mut last: Vec<(usize, EdgeOp)> = Vec::with_capacity(ops.len());
        let mut seen: BTreeSet<(VertexId, VertexId)> = BTreeSet::new();
        for (idx, &op) in ops.iter().enumerate().rev() {
            if seen.insert(op.edge()) {
                last.push((idx, op));
            } else {
                result.skipped += 1;
            }
        }
        last.sort_unstable_by_key(|&(idx, _)| idx);

        for (_, op) in last {
            let (u, v) = op.edge();
            match op {
                EdgeOp::Insert(..) if !self.has_edge(u, v) => result.inserted.push((u, v)),
                EdgeOp::Delete(..) if self.has_edge(u, v) => result.deleted.push((u, v)),
                _ => result.skipped += 1,
            }
        }
        result
    }

    /// Classifies a batch via [`Self::classify_batch`] and applies it to
    /// the overlay. Side sizes grow to cover every effectively-inserted
    /// id. The base CSR, and with it every [`BipartiteCsr::edge_index`]
    /// alignment, is left untouched: incremental layers that keep
    /// base-aligned flat state patch it, then check
    /// [`Self::needs_compaction`] and realign across [`Self::compact`].
    pub fn apply_batch(&mut self, ops: &[EdgeOp]) -> BatchApplication {
        let result = self.classify_batch(ops);
        for &(u, v) in &result.inserted {
            self.num_u = self.num_u.max(u as usize + 1);
            self.num_v = self.num_v.max(v as usize + 1);
            self.insert_edge(u, v);
        }
        for &(u, v) in &result.deleted {
            self.delete_edge(u, v);
        }
        result
    }

    /// The overlay has outgrown the compaction budget
    /// (`threshold · base edges`).
    pub fn needs_compaction(&self) -> bool {
        let budget = self.compact_threshold * self.base.num_edges() as f64;
        self.overlay_len() > 0 && self.overlay_len() as f64 > budget
    }

    fn insert_edge(&mut self, u: VertexId, v: VertexId) {
        // Re-inserting a base edge that was deleted cancels the removal.
        if self.removed.remove(&(u, v)) {
            self.removed_t.remove(&(v, u));
        } else {
            self.added.insert((u, v));
            self.added_t.insert((v, u));
        }
    }

    fn delete_edge(&mut self, u: VertexId, v: VertexId) {
        if self.added.remove(&(u, v)) {
            self.added_t.remove(&(v, u));
        } else {
            self.removed.insert((u, v));
            self.removed_t.insert((v, u));
        }
    }

    /// Materializes the current graph as a standalone CSR.
    pub fn materialize(&self) -> BipartiteCsr {
        GraphBuilder::new(self.num_u, self.num_v)
            .add_edges(self.edges())
            .build()
            .expect("dynamic overlay edges are in range by construction")
    }

    /// Folds the overlay into a fresh base CSR (the DGM-style rebuild).
    /// `materialized` is [`Self::materialize`]'s graph for the current
    /// state, which the caller usually needs anyway.
    pub fn compact(&mut self, materialized: BipartiteCsr) {
        assert_eq!(
            (
                materialized.num_u(),
                materialized.num_v(),
                materialized.num_edges()
            ),
            (self.num_u, self.num_v, self.num_edges()),
            "compact takes the current graph's materialization"
        );
        self.base = materialized;
        self.added.clear();
        self.added_t.clear();
        self.removed.clear();
        self.removed_t.clear();
        self.compactions += 1;
    }
}

/// Merges two ascending, duplicate-free streams into one. The overlay is
/// disjoint from the filtered base by construction (an added edge is never
/// also a base edge), so equal heads cannot occur — but the merge keeps
/// both if they ever did, preserving sortedness.
fn merge_overlay(
    base: impl Iterator<Item = VertexId>,
    overlay: impl Iterator<Item = VertexId>,
) -> impl Iterator<Item = VertexId> {
    let mut base = base.peekable();
    let mut overlay = overlay.peekable();
    std::iter::from_fn(move || match (base.peek(), overlay.peek()) {
        (Some(&a), Some(&b)) => {
            if a <= b {
                base.next()
            } else {
                overlay.next()
            }
        }
        (Some(_), None) => base.next(),
        (None, _) => overlay.next(),
    })
}

// ---------------------------------------------------------------------------
// Stream file format
// ---------------------------------------------------------------------------

/// Parses a stream-of-batches file: `+ u v` inserts, `- u v` deletes (the
/// sign may be glued to the first id), `%`/`#` comment lines are skipped,
/// and a blank line ends the current batch. Empty batches are dropped.
pub fn read_batches<R: Read>(reader: R) -> Result<Vec<Vec<EdgeOp>>, IoError> {
    let mut batches: Vec<Vec<EdgeOp>> = Vec::new();
    let mut current: Vec<EdgeOp> = Vec::new();
    for (idx, line) in BufReader::new(reader).lines().enumerate() {
        let line = line?;
        let t = line.trim();
        if t.is_empty() {
            if !current.is_empty() {
                batches.push(std::mem::take(&mut current));
            }
            continue;
        }
        if t.starts_with('%') || t.starts_with('#') {
            continue;
        }
        let err = || IoError::Parse {
            line: idx + 1,
            content: t.to_string(),
        };
        let (sign, rest) = match t.as_bytes()[0] {
            b'+' => ('+', &t[1..]),
            b'-' => ('-', &t[1..]),
            _ => return Err(err()),
        };
        let mut cols = rest.split_whitespace();
        let u: VertexId = cols.next().and_then(|s| s.parse().ok()).ok_or_else(err)?;
        let v: VertexId = cols.next().and_then(|s| s.parse().ok()).ok_or_else(err)?;
        if cols.next().is_some() {
            return Err(err());
        }
        current.push(match sign {
            '+' => EdgeOp::Insert(u, v),
            _ => EdgeOp::Delete(u, v),
        });
    }
    if !current.is_empty() {
        batches.push(current);
    }
    Ok(batches)
}

/// Generates a seeded insert/delete schedule against `g`: `batches` batches
/// of `ops_per_batch` ops, roughly 60% insertions of uniformly random
/// pairs (duplicates possible — they exercise the no-op path) and 40%
/// deletions of currently-present edges. Deterministic in `seed`.
pub fn seeded_schedule(
    g: &BipartiteCsr,
    batches: usize,
    ops_per_batch: usize,
    seed: u64,
) -> Vec<Vec<EdgeOp>> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let nu = g.num_u().max(1) as VertexId;
    let nv = g.num_v().max(1) as VertexId;
    // Track the evolving edge set so deletions target present edges.
    let mut present: Vec<(VertexId, VertexId)> = g.edges().collect();
    let mut member: BTreeSet<(VertexId, VertexId)> = present.iter().copied().collect();
    let mut schedule = Vec::with_capacity(batches);
    for _ in 0..batches {
        let mut batch = Vec::with_capacity(ops_per_batch);
        for _ in 0..ops_per_batch {
            let delete = !present.is_empty() && rng.random_range(0..10u32) < 4;
            if delete {
                let i = rng.random_range(0..present.len());
                let e = present.swap_remove(i);
                member.remove(&e);
                batch.push(EdgeOp::Delete(e.0, e.1));
            } else {
                let e = (rng.random_range(0..nu), rng.random_range(0..nv));
                batch.push(EdgeOp::Insert(e.0, e.1));
                if member.insert(e) {
                    present.push(e);
                }
            }
        }
        schedule.push(batch);
    }
    schedule
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::from_edges;

    fn sample() -> BipartiteCsr {
        from_edges(3, 3, &[(0, 0), (0, 1), (1, 0), (1, 1), (2, 2)]).unwrap()
    }

    fn adj_u(g: &DynamicBigraph, u: VertexId) -> Vec<VertexId> {
        g.neighbors_u(u).collect()
    }

    fn adj_v(g: &DynamicBigraph, v: VertexId) -> Vec<VertexId> {
        g.neighbors_v(v).collect()
    }

    #[test]
    fn fresh_graph_mirrors_base() {
        let g = DynamicBigraph::new(sample());
        assert_eq!(g.num_edges(), 5);
        assert_eq!(adj_u(&g, 0), vec![0, 1]);
        assert_eq!(adj_v(&g, 0), vec![0, 1]);
        assert!(g.has_edge(2, 2));
        assert!(!g.has_edge(2, 0));
        assert_eq!(g.materialize(), sample());
    }

    #[test]
    fn insert_and_delete_through_overlay() {
        let mut g = DynamicBigraph::with_threshold(sample(), 100.0);
        let r = g.apply_batch(&[EdgeOp::Insert(2, 0), EdgeOp::Delete(0, 1)]);
        assert_eq!(r.inserted, vec![(2, 0)]);
        assert_eq!(r.deleted, vec![(0, 1)]);
        assert_eq!(r.skipped, 0);
        assert!(!r.compacted);
        assert_eq!(g.num_edges(), 5);
        assert_eq!(adj_u(&g, 0), vec![0]);
        assert_eq!(adj_u(&g, 2), vec![0, 2]);
        assert_eq!(adj_v(&g, 0), vec![0, 1, 2]);
        assert_eq!(adj_v(&g, 1), vec![1]);
        assert!(g.has_edge(2, 0) && !g.has_edge(0, 1));
        // Materialized CSR agrees with the overlay view.
        let m = g.materialize();
        assert_eq!(m.neighbors_u(2), &[0, 2]);
        assert_eq!(m.neighbors_v(0), &[0, 1, 2]);
    }

    #[test]
    fn noop_ops_are_skipped() {
        let mut g = DynamicBigraph::with_threshold(sample(), 100.0);
        let r = g.apply_batch(&[EdgeOp::Insert(0, 0), EdgeOp::Delete(2, 0)]);
        assert_eq!(r.skipped, 2);
        assert!(r.inserted.is_empty() && r.deleted.is_empty());
        assert_eq!(g.num_edges(), 5);
    }

    #[test]
    fn last_op_per_edge_wins_within_a_batch() {
        let mut g = DynamicBigraph::with_threshold(sample(), 100.0);
        // Insert then delete the same absent edge: net no-op, 2 skipped
        // (the overridden insert plus the delete of an absent edge).
        let r = g.apply_batch(&[EdgeOp::Insert(2, 0), EdgeOp::Delete(2, 0)]);
        assert!(r.inserted.is_empty() && r.deleted.is_empty());
        assert_eq!(r.skipped, 2);
        // Delete then re-insert a present edge: also a net no-op.
        let r = g.apply_batch(&[EdgeOp::Delete(0, 0), EdgeOp::Insert(0, 0)]);
        assert!(r.inserted.is_empty() && r.deleted.is_empty());
        assert_eq!(r.skipped, 2);
        assert_eq!(g.materialize(), sample());
    }

    #[test]
    fn delete_then_reinsert_across_batches_cancels() {
        let mut g = DynamicBigraph::with_threshold(sample(), 100.0);
        g.apply_batch(&[EdgeOp::Delete(0, 0)]);
        assert_eq!(g.overlay_len(), 1);
        g.apply_batch(&[EdgeOp::Insert(0, 0)]);
        assert_eq!(g.overlay_len(), 0, "removal cancelled, not double-tracked");
        assert_eq!(g.materialize(), sample());
    }

    #[test]
    fn sides_grow_to_cover_new_ids() {
        let mut g = DynamicBigraph::with_threshold(sample(), 100.0);
        let r = g.apply_batch(&[EdgeOp::Insert(5, 7)]);
        assert_eq!(r.inserted, vec![(5, 7)]);
        assert_eq!((g.num_u(), g.num_v()), (6, 8));
        assert_eq!(adj_u(&g, 5), vec![7]);
        assert_eq!(adj_v(&g, 7), vec![5]);
        let m = g.materialize();
        assert_eq!((m.num_u(), m.num_v()), (6, 8));
    }

    #[test]
    fn threshold_triggers_compaction() {
        // Base has 5 edges; threshold 0.2 → overlay of 2 exceeds 1.0.
        let mut g = DynamicBigraph::with_threshold(sample(), 0.2);
        g.apply_batch(&[EdgeOp::Insert(2, 0)]);
        assert!(!g.needs_compaction(), "1 overlay entry ≤ 0.2·5");
        let r = g.apply_batch(&[EdgeOp::Insert(2, 1)]);
        assert!(!r.compacted, "applying never compacts");
        assert!(g.needs_compaction());
        g.compact(g.materialize());
        assert!(!g.needs_compaction());
        assert_eq!(g.overlay_len(), 0);
        assert_eq!(g.compactions(), 1);
        assert_eq!(g.num_edges(), 7);
        assert!(g.has_edge(2, 0) && g.has_edge(2, 1));
    }

    #[test]
    fn edges_iterator_is_sorted_and_complete() {
        let mut g = DynamicBigraph::with_threshold(sample(), 100.0);
        g.apply_batch(&[
            EdgeOp::Insert(1, 2),
            EdgeOp::Delete(1, 0),
            EdgeOp::Insert(3, 0),
        ]);
        let edges: Vec<_> = g.edges().collect();
        let mut sorted = edges.clone();
        sorted.sort_unstable();
        assert_eq!(edges, sorted);
        assert_eq!(edges, vec![(0, 0), (0, 1), (1, 1), (1, 2), (2, 2), (3, 0)]);
    }

    #[test]
    fn materialize_matches_overlay_under_random_schedule() {
        let base = crate::gen::uniform(20, 15, 60, 3);
        let mut dynamic = DynamicBigraph::with_threshold(base.clone(), 0.3);
        let mut reference: BTreeSet<(VertexId, VertexId)> = base.edges().collect();
        for batch in seeded_schedule(&base, 6, 25, 42) {
            let r = dynamic.apply_batch(&batch);
            for &e in &r.inserted {
                assert!(reference.insert(e), "{e:?} reported inserted twice");
            }
            for &e in &r.deleted {
                assert!(reference.remove(&e), "{e:?} reported deleted twice");
            }
            let m = dynamic.materialize();
            let materialized: BTreeSet<_> = m.edges().collect();
            assert_eq!(materialized, reference);
            assert_eq!(dynamic.num_edges(), reference.len());
            if dynamic.needs_compaction() {
                dynamic.compact(m);
            }
        }
        assert!(dynamic.compactions() > 0, "the schedule must compact");
    }

    #[test]
    fn degree_and_base_slice_accessors_agree_with_merge() {
        let base = crate::gen::uniform(20, 15, 60, 3);
        let mut g = DynamicBigraph::with_threshold(base.clone(), 100.0);
        for batch in seeded_schedule(&base, 4, 20, 11) {
            g.apply_batch(&batch);
        }
        assert!(g.overlay_len() > 0, "schedule must leave overlay entries");
        let mut base_only_seen = 0;
        for u in 0..g.num_u() as VertexId {
            let merged: Vec<_> = g.neighbors_u(u).collect();
            assert_eq!(g.degree_u(u), merged.len(), "degree_u({u})");
            if let Some(slice) = g.base_only_neighbors_u(u) {
                assert_eq!(slice, &merged[..], "base_only_neighbors_u({u})");
                base_only_seen += 1;
            }
        }
        assert!(base_only_seen > 0, "some vertices must be overlay-free");
        // An overlay-touched vertex must refuse the fast slice.
        let (u, v) = (0, g.num_v() as VertexId + 1);
        g.apply_batch(&[EdgeOp::Insert(u, v)]);
        assert!(g.base_only_neighbors_u(u).is_none());
    }

    #[test]
    fn parse_batches_happy_path() {
        let text = "% stream\n+0 1\n- 2 3\n\n# next batch\n+ 4 5\n\n\n";
        let batches = read_batches(text.as_bytes()).unwrap();
        assert_eq!(
            batches,
            vec![
                vec![EdgeOp::Insert(0, 1), EdgeOp::Delete(2, 3)],
                vec![EdgeOp::Insert(4, 5)],
            ]
        );
    }

    #[test]
    fn parse_batches_final_batch_without_trailing_blank() {
        let batches = read_batches("+1 1\n+2 2".as_bytes()).unwrap();
        assert_eq!(batches.len(), 1);
        assert_eq!(batches[0].len(), 2);
    }

    #[test]
    fn parse_batches_rejects_malformed_lines() {
        for bad in ["1 2\n", "+1\n", "+1 2 3\n", "+x y\n"] {
            let err = read_batches(bad.as_bytes()).unwrap_err();
            assert!(matches!(err, IoError::Parse { line: 1, .. }), "{bad:?}");
        }
    }

    #[test]
    fn seeded_schedule_is_deterministic_and_consistent() {
        let g = crate::gen::uniform(30, 30, 80, 9);
        let a = seeded_schedule(&g, 4, 20, 7);
        let b = seeded_schedule(&g, 4, 20, 7);
        assert_eq!(a, b);
        assert_eq!(a.len(), 4);
        assert!(a.iter().all(|batch| batch.len() == 20));
        // Deletions must always name an edge present at that point.
        let mut g = DynamicBigraph::with_threshold(g, 100.0);
        for batch in &a {
            for op in batch {
                if let EdgeOp::Delete(u, v) = *op {
                    // Present unless an earlier op in this same batch
                    // already touched it; apply ops one by one to check.
                    assert!(g.has_edge(u, v), "delete of absent edge ({u}, {v})");
                }
                g.apply_batch(std::slice::from_ref(op));
            }
        }
    }
}
