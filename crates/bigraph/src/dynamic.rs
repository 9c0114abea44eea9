//! Batch-dynamic bipartite graphs: a delta overlay over [`BipartiteCsr`].
//!
//! Real bipartite streams (user–item, author–paper) arrive as batches of
//! edge insertions and deletions. [`DynamicBigraph`] keeps the last
//! compacted CSR as an immutable, shared *base* plus two sorted overlays —
//! edges added since, edges removed since. The overlay answers membership
//! only; adjacency is read from [`DynamicBigraph::materialize`], one
//! ordered merge of base and overlay in `O(|E| + overlay)`, which the
//! butterfly index runs once per batch that changes an edge. The overlay
//! remains so that state aligned with the base's edge ids (the index's
//! per-edge counts) stays valid between compactions: once the overlay
//! grows past a configurable fraction of the base (the same
//! traversed-work-vs-rebuild trade DGM makes in §4.2),
//! [`DynamicBigraph::needs_compaction`] says so, and the owner installs the
//! CSR it materialized as the new base ([`DynamicBigraph::compact`]) after
//! it has realigned its per-edge counts.
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

use crate::csr::BipartiteCsr;
use crate::io::IoError;
use crate::VertexId;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;
use std::io::{BufRead, BufReader, Read};
use std::sync::Arc;

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
    base: Arc<BipartiteCsr>,
    /// Edges present but not in `base`, keyed `(u, v)`.
    added: BTreeSet<(VertexId, VertexId)>,
    /// Edges in `base` that have been deleted, keyed `(u, v)`.
    removed: BTreeSet<(VertexId, VertexId)>,
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
    /// Wraps a static graph with an empty overlay. `threshold` is the
    /// overlay-to-base edge ratio that triggers recompaction; values ≤ 0
    /// recompact after every mutating batch.
    pub fn with_threshold(base: Arc<BipartiteCsr>, threshold: f64) -> Self {
        DynamicBigraph {
            num_u: base.num_u(),
            num_v: base.num_v(),
            base,
            added: BTreeSet::new(),
            removed: BTreeSet::new(),
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
            // Re-inserting a base edge that was deleted cancels the removal.
            if !self.removed.remove(&(u, v)) {
                self.added.insert((u, v));
            }
        }
        for &(u, v) in &result.deleted {
            if !self.added.remove(&(u, v)) {
                self.removed.insert((u, v));
            }
        }
        result
    }

    /// The overlay has outgrown the compaction budget
    /// (`threshold · base edges`).
    pub fn needs_compaction(&self) -> bool {
        let budget = self.compact_threshold * self.base.num_edges() as f64;
        self.overlay_len() > 0 && self.overlay_len() as f64 > budget
    }

    /// Materializes the current graph as a standalone CSR: one ordered
    /// merge that walks the base rows in `(u, v)` order and reads
    /// `removed` and `added` in the same order, skipping or splicing.
    /// `O(|E| + overlay)`, with no sort and no per-edge probe.
    pub fn materialize(&self) -> BipartiteCsr {
        let mut u_offsets = Vec::with_capacity(self.num_u + 1);
        let mut u_adj = Vec::with_capacity(self.num_edges());
        u_offsets.push(0);
        let mut added = self.added.iter().peekable();
        let mut removed = self.removed.iter().peekable();
        for u in 0..self.num_u as VertexId {
            let base_row = if (u as usize) < self.base.num_u() {
                self.base.neighbors_u(u)
            } else {
                &[]
            };
            for &v in base_row {
                while let Some(&(_, a)) = added.next_if(|&&e| e < (u, v)) {
                    u_adj.push(a);
                }
                if removed.next_if_eq(&&(u, v)).is_none() {
                    u_adj.push(v);
                }
            }
            while let Some(&(_, a)) = added.next_if(|&&(au, _)| au == u) {
                u_adj.push(a);
            }
            u_offsets.push(u_adj.len());
        }
        BipartiteCsr::from_u_rows(self.num_v, u_offsets, u_adj)
    }

    /// Folds the overlay into a fresh base CSR (the DGM-style rebuild).
    /// `materialized` is [`Self::materialize`]'s graph for the current
    /// state, which the caller already holds.
    pub fn compact(&mut self, materialized: Arc<BipartiteCsr>) {
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
        self.removed.clear();
        self.compactions += 1;
    }
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

    fn overlay(threshold: f64) -> DynamicBigraph {
        DynamicBigraph::with_threshold(Arc::new(sample()), threshold)
    }

    #[test]
    fn fresh_graph_mirrors_base() {
        let g = overlay(DEFAULT_COMPACT_THRESHOLD);
        assert_eq!(g.num_edges(), 5);
        assert!(g.has_edge(2, 2));
        assert!(!g.has_edge(2, 0));
        assert_eq!(g.materialize(), sample());
    }

    #[test]
    fn insert_and_delete_through_overlay() {
        let mut g = overlay(100.0);
        let r = g.apply_batch(&[EdgeOp::Insert(2, 0), EdgeOp::Delete(0, 1)]);
        assert_eq!(r.inserted, vec![(2, 0)]);
        assert_eq!(r.deleted, vec![(0, 1)]);
        assert_eq!(r.skipped, 0);
        assert!(!r.compacted);
        assert_eq!(g.num_edges(), 5);
        assert!(g.has_edge(2, 0) && !g.has_edge(0, 1));
        let m = g.materialize();
        assert_eq!(m.neighbors_u(0), &[0]);
        assert_eq!(m.neighbors_u(2), &[0, 2]);
        assert_eq!(m.neighbors_v(0), &[0, 1, 2]);
        assert_eq!(m.neighbors_v(1), &[1]);
    }

    #[test]
    fn noop_ops_are_skipped() {
        let mut g = overlay(100.0);
        let r = g.apply_batch(&[EdgeOp::Insert(0, 0), EdgeOp::Delete(2, 0)]);
        assert_eq!(r.skipped, 2);
        assert!(r.inserted.is_empty() && r.deleted.is_empty());
        assert_eq!(g.num_edges(), 5);
    }

    #[test]
    fn last_op_per_edge_wins_within_a_batch() {
        let mut g = overlay(100.0);
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
        let mut g = overlay(100.0);
        g.apply_batch(&[EdgeOp::Delete(0, 0)]);
        assert_eq!(g.overlay_len(), 1);
        g.apply_batch(&[EdgeOp::Insert(0, 0)]);
        assert_eq!(g.overlay_len(), 0, "removal cancelled, not double-tracked");
        assert_eq!(g.materialize(), sample());
    }

    #[test]
    fn sides_grow_to_cover_new_ids() {
        let mut g = overlay(100.0);
        let r = g.apply_batch(&[EdgeOp::Insert(5, 7)]);
        assert_eq!(r.inserted, vec![(5, 7)]);
        assert_eq!((g.num_u(), g.num_v()), (6, 8));
        let m = g.materialize();
        assert_eq!((m.num_u(), m.num_v()), (6, 8));
        assert_eq!(m.neighbors_u(5), &[7]);
        assert_eq!(m.neighbors_v(7), &[5]);
    }

    #[test]
    fn threshold_triggers_compaction() {
        // Base has 5 edges; threshold 0.2 → overlay of 2 exceeds 1.0.
        let mut g = overlay(0.2);
        g.apply_batch(&[EdgeOp::Insert(2, 0)]);
        assert!(!g.needs_compaction(), "1 overlay entry ≤ 0.2·5");
        let r = g.apply_batch(&[EdgeOp::Insert(2, 1)]);
        assert!(!r.compacted, "applying never compacts");
        assert!(g.needs_compaction());
        g.compact(Arc::new(g.materialize()));
        assert!(!g.needs_compaction());
        assert_eq!(g.overlay_len(), 0);
        assert_eq!(g.compactions(), 1);
        assert_eq!(g.num_edges(), 7);
        assert!(g.has_edge(2, 0) && g.has_edge(2, 1));
    }

    #[test]
    fn edges_iterator_is_sorted_and_complete() {
        let mut g = overlay(100.0);
        g.apply_batch(&[
            EdgeOp::Insert(1, 2),
            EdgeOp::Delete(1, 0),
            EdgeOp::Insert(3, 0),
        ]);
        let edges: Vec<_> = g.materialize().edges().collect();
        let mut sorted = edges.clone();
        sorted.sort_unstable();
        assert_eq!(edges, sorted);
        assert_eq!(edges, vec![(0, 0), (0, 1), (1, 1), (1, 2), (2, 2), (3, 0)]);
    }

    #[test]
    fn materialize_matches_overlay_under_random_schedule() {
        let base = crate::gen::uniform(20, 15, 60, 3);
        let mut dynamic = DynamicBigraph::with_threshold(Arc::new(base.clone()), 0.3);
        let mut reference: BTreeSet<(VertexId, VertexId)> = base.edges().collect();
        let (mut nu, mut nv) = (base.num_u(), base.num_v());
        let mut schedule = seeded_schedule(&base, 6, 25, 42);
        // One batch that grows both sides past the base.
        schedule.insert(2, vec![EdgeOp::Insert(23, 2), EdgeOp::Insert(4, 17)]);
        for batch in schedule {
            let r = dynamic.apply_batch(&batch);
            for &e in &r.inserted {
                assert!(reference.insert(e), "{e:?} reported inserted twice");
                nu = nu.max(e.0 as usize + 1);
                nv = nv.max(e.1 as usize + 1);
            }
            for &e in &r.deleted {
                assert!(reference.remove(&e), "{e:?} reported deleted twice");
            }
            // Both sides' rows and sizes, not only the U edge set.
            let edges: Vec<_> = reference.iter().copied().collect();
            let m = dynamic.materialize();
            assert_eq!(m, from_edges(nu, nv, &edges).unwrap());
            assert_eq!(dynamic.num_edges(), reference.len());
            if dynamic.needs_compaction() {
                dynamic.compact(Arc::new(m));
            }
        }
        assert!(dynamic.compactions() > 0, "the schedule must compact");
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
        let mut g = DynamicBigraph::with_threshold(Arc::new(g), 100.0);
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
