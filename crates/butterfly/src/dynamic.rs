//! Incremental butterfly-count maintenance over a [`DynamicBigraph`].
//!
//! A batch of edge insertions/deletions changes only the butterflies that
//! *gain or lose an edge*, so instead of re-running Algorithm 1 the index
//! enumerates exactly those butterflies by wedge expansion around each
//! batch edge and patches the per-vertex counts, the per-edge counts, and
//! the global total in place.
//!
//! Exactness without double counting comes from *min-index charging*: the
//! batch's effective deletions (then insertions) are indexed in op order,
//! and a butterfly is credited to the lowest-indexed batch edge it
//! contains — every changed butterfly is enumerated exactly once even when
//! several of its edges arrived in the same batch. Losses are enumerated
//! on the pre-batch graph (a lost butterfly has all four edges there),
//! gains on the post-batch graph; a butterfly mixing a deleted and an
//! inserted edge exists in neither and is correctly ignored.
//!
//! Enumeration is embarrassingly parallel over the batch (each batch edge
//! scans read-only adjacency), so it fans out on the vendored rayon pool;
//! the per-edge butterfly lists are then applied sequentially in batch
//! order, keeping every maintained counter deterministic regardless of
//! thread count.

use crate::intersect::{
    intersect_bitset, intersect_gallop, intersect_merge, should_gallop, VertexBitset, BITSET_MIN,
};
use crate::VertexCounts;
use bigraph::dynamic::{BatchApplication, DynamicBigraph, EdgeOp};
use bigraph::{BipartiteCsr, Side, VertexId};
use rayon::prelude::*;
use std::collections::HashMap;

/// A butterfly `{u, u2} × {v, v2}` touched by a batch edge `(u, v)`.
type Butterfly = (VertexId, VertexId, VertexId, VertexId);

/// What one batch did to the maintained counts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchDelta {
    /// Structural classification from [`DynamicBigraph::apply_batch`];
    /// `compacted` says whether the index compacted after the batch.
    pub application: BatchApplication,
    /// Butterflies created by the batch's insertions.
    pub gained: u64,
    /// Butterflies destroyed by the batch's deletions.
    pub lost: u64,
    /// Intersection work spent enumerating the changed butterflies — the
    /// incremental analog of the counter's wedge-traversal metric, and the
    /// quantity to compare against a from-scratch recount's work. Counted
    /// in comparable per-element units whichever kernel the degree-ratio
    /// heuristic picked (merge steps, gallop probes, or bitset membership
    /// tests plus the one-time bitset build; see [`crate::intersect`]).
    pub work: u64,
    /// U-side vertices on a changed butterfly (sorted, deduplicated).
    pub dirty_u: Vec<VertexId>,
    /// V-side vertices on a changed butterfly (sorted, deduplicated).
    pub dirty_v: Vec<VertexId>,
}

impl BatchDelta {
    /// Dirty vertices on the chosen side.
    pub fn dirty_side(&self, side: Side) -> &[VertexId] {
        match side {
            Side::U => &self.dirty_u,
            Side::V => &self.dirty_v,
        }
    }
}

/// Butterfly counts (per vertex, per edge, and total) maintained across
/// batched updates of the underlying graph.
///
/// Per-edge counts live in a flat array aligned with the base CSR's edge
/// ids ([`BipartiteCsr::edge_index`]) — hub-heavy batches touch the same
/// edges over and over, and the flat array turns that hash traffic into
/// indexed stores. Only edges the overlay added since the last compaction
/// fall back to a (small, overlay-bounded) hash map; each compaction folds
/// them into a freshly aligned array.
#[derive(Debug, Clone)]
pub struct DynamicButterflyIndex {
    graph: DynamicBigraph,
    counts_u: Vec<u64>,
    counts_v: Vec<u64>,
    /// Butterfly count per base-CSR edge, indexed by
    /// `graph.base().edge_index(u, v)`. Entries for overlay-removed edges
    /// are 0 by the maintenance invariant (a deleted edge keeps no
    /// butterflies).
    base_edge_counts: Vec<u64>,
    /// Nonzero entries of `base_edge_counts`, maintained across patches so
    /// [`Self::tracked_edges`] needs no scan.
    nonzero_base: usize,
    /// Butterfly counts of overlay-added edges (not in the base CSR);
    /// edges in no butterfly are absent (reads default to 0).
    overlay_edge_counts: HashMap<(VertexId, VertexId), u64>,
    total: u64,
    /// Cumulative enumeration work across all batches.
    work: u64,
}

impl DynamicButterflyIndex {
    /// Builds the index with one full parallel count (Algorithm 1 + the
    /// per-edge counter); every later batch is maintained incrementally.
    pub fn new(base: BipartiteCsr) -> Self {
        Self::with_threshold(base, bigraph::dynamic::DEFAULT_COMPACT_THRESHOLD)
    }

    /// `threshold` is the overlay compaction knob of [`DynamicBigraph`].
    pub fn with_threshold(base: BipartiteCsr, threshold: f64) -> Self {
        let counts = crate::par_count_graph(&base);
        // Already CSR-edge-id-aligned — the kernel's output order is the
        // flat array's index space.
        let base_edge_counts = crate::per_edge::par_per_edge_counts(base.view(Side::U));
        DynamicButterflyIndex {
            total: counts.total(),
            counts_u: counts.u,
            counts_v: counts.v,
            nonzero_base: base_edge_counts.iter().filter(|&&c| c > 0).count(),
            base_edge_counts,
            overlay_edge_counts: HashMap::new(),
            graph: DynamicBigraph::with_threshold(base, threshold),
            work: 0,
        }
    }

    pub fn graph(&self) -> &DynamicBigraph {
        &self.graph
    }

    /// Materializes the current graph (for oracles and full recomputes).
    pub fn materialize(&self) -> BipartiteCsr {
        self.graph.materialize()
    }

    pub fn total_butterflies(&self) -> u64 {
        self.total
    }

    /// Maintained per-vertex counts for one side.
    pub fn counts_side(&self, side: Side) -> &[u64] {
        match side {
            Side::U => &self.counts_u,
            Side::V => &self.counts_v,
        }
    }

    /// Maintained counts in the static counter's shape. The
    /// `wedges_traversed` field carries the cumulative incremental
    /// enumeration work (initial build not included).
    pub fn counts(&self) -> VertexCounts {
        VertexCounts {
            u: self.counts_u.clone(),
            v: self.counts_v.clone(),
            wedges_traversed: self.work,
        }
    }

    /// [`Self::materialize`], plus every edge's butterfly count in the
    /// materialized graph's edge order. One pass beside the base CSR's
    /// edges: each materialized row is merged with the base's row, so a
    /// base edge's count is read by position and only edges the base lacks
    /// probe the overlay map.
    pub fn materialize_with_edge_counts(&self) -> (BipartiteCsr, Vec<u64>) {
        let graph = self.materialize();
        let base = self.graph.base();
        // Grown, not pre-sized: pre-sizing it raised the peak RSS of 300
        // butterfly-neutral batches on the It analog by ~1 MiB.
        let mut counts = Vec::new();
        // The base's row `u` holds edge ids `row_start..row_start + len`.
        let mut row_start = 0;
        for u in 0..graph.num_u() as VertexId {
            let base_row = if (u as usize) < base.num_u() {
                base.neighbors_u(u)
            } else {
                &[]
            };
            let base_counts = &self.base_edge_counts[row_start..row_start + base_row.len()];
            row_start += base_row.len();
            let mut j = 0;
            for &v in graph.neighbors_u(u) {
                while j < base_row.len() && base_row[j] < v {
                    j += 1;
                }
                counts.push(if base_row.get(j) == Some(&v) {
                    base_counts[j]
                } else {
                    self.overlay_edge_counts.get(&(u, v)).copied().unwrap_or(0)
                });
            }
        }
        (graph, counts)
    }

    /// Butterfly count of edge `(u, v)`; 0 if absent or butterfly-free.
    /// Base edges are an indexed load; only overlay-added edges hash.
    pub fn edge_count(&self, u: VertexId, v: VertexId) -> u64 {
        if let Some(&c) = self.overlay_edge_counts.get(&(u, v)) {
            return c;
        }
        self.graph
            .base()
            .edge_index(u, v)
            .map_or(0, |eid| self.base_edge_counts[eid])
    }

    /// Number of edges currently holding a nonzero maintained count.
    /// Differential checkers compare this against the oracle's nonzero
    /// count so a stale entry for a deleted edge cannot hide (the
    /// per-present-edge comparison alone would never visit it).
    pub fn tracked_edges(&self) -> usize {
        self.nonzero_base + self.overlay_edge_counts.len()
    }

    /// Applies one batch and patches all maintained counts.
    pub fn apply_batch(&mut self, ops: &[EdgeOp]) -> BatchDelta {
        // The graph's own classification (last op per edge wins), taken
        // against the pre-batch state so losses can be enumerated before
        // the graph mutates. `DynamicBigraph::apply_batch` re-runs the
        // same `classify_batch`, so both views agree by construction.
        let pre = self.graph.classify_batch(ops);

        // Losses: butterflies of the pre-batch graph through each deleted
        // edge, charged to the lowest-indexed deleted edge they contain.
        let (lost_lists, lost_work) = enumerate_changed(&self.graph, &pre.deleted);

        // Compaction is deferred until after patching: the flat per-edge
        // array is indexed by *current* base edge ids, and `apply_batch`
        // leaves the base untouched.
        let mut application = self.graph.apply_batch(ops);
        debug_assert_eq!(application.inserted, pre.inserted);
        debug_assert_eq!(application.deleted, pre.deleted);
        // Sides may have grown; new vertices start butterfly-free.
        self.counts_u.resize(self.graph.num_u(), 0);
        self.counts_v.resize(self.graph.num_v(), 0);

        // Gains: butterflies of the post-batch graph through each inserted
        // edge, charged to the lowest-indexed inserted edge they contain.
        let (gained_lists, gained_work) = enumerate_changed(&self.graph, &pre.inserted);

        let mut dirty_u: Vec<VertexId> = Vec::new();
        let mut dirty_v: Vec<VertexId> = Vec::new();
        let mut lost = 0u64;
        for bf in lost_lists.iter().flatten() {
            self.patch(*bf, -1, &mut dirty_u, &mut dirty_v);
            lost += 1;
        }
        for &(u, v) in &application.deleted {
            debug_assert_eq!(
                self.edge_count(u, v),
                0,
                "deleted edge ({u}, {v}) kept butterflies"
            );
        }
        let mut gained = 0u64;
        for bf in gained_lists.iter().flatten() {
            self.patch(*bf, 1, &mut dirty_u, &mut dirty_v);
            gained += 1;
        }
        self.total = self.total + gained - lost;
        let work = lost_work + gained_work;
        self.work += work;

        if self.graph.needs_compaction() {
            self.compact_and_realign();
            application.compacted = true;
        }

        dirty_u.sort_unstable();
        dirty_u.dedup();
        dirty_v.sort_unstable();
        dirty_v.dedup();
        BatchDelta {
            application,
            gained,
            lost,
            work,
            dirty_u,
            dirty_v,
        }
    }

    /// Applies one butterfly's delta to the vertex and edge counts.
    fn patch(
        &mut self,
        (u, u2, v, v2): Butterfly,
        sign: i64,
        dirty_u: &mut Vec<VertexId>,
        dirty_v: &mut Vec<VertexId>,
    ) {
        for x in [u, u2] {
            self.counts_u[x as usize] = self.counts_u[x as usize].wrapping_add_signed(sign);
            dirty_u.push(x);
        }
        for y in [v, v2] {
            self.counts_v[y as usize] = self.counts_v[y as usize].wrapping_add_signed(sign);
            dirty_v.push(y);
        }
        for e in [(u, v), (u, v2), (u2, v), (u2, v2)] {
            match self.graph.base().edge_index(e.0, e.1) {
                Some(eid) => {
                    let before = self.base_edge_counts[eid];
                    let after = before.wrapping_add_signed(sign);
                    self.base_edge_counts[eid] = after;
                    if before == 0 && after != 0 {
                        self.nonzero_base += 1;
                    } else if before != 0 && after == 0 {
                        self.nonzero_base -= 1;
                    }
                }
                None => {
                    let entry = self.overlay_edge_counts.entry(e).or_insert(0);
                    *entry = entry.wrapping_add_signed(sign);
                    if *entry == 0 {
                        self.overlay_edge_counts.remove(&e);
                    }
                }
            }
        }
    }

    /// Folds the overlay into a new base CSR and realigns the flat
    /// per-edge array with the rebuilt edge-id space; one
    /// [`Self::materialize_with_edge_counts`] merge yields both. Every
    /// nonzero count belongs to a present edge, so all of them land in
    /// the new base.
    fn compact_and_realign(&mut self) {
        let (graph, counts) = self.materialize_with_edge_counts();
        self.nonzero_base = self.tracked_edges();
        self.base_edge_counts = counts;
        self.overlay_edge_counts.clear();
        self.graph.compact(graph);
    }
}

/// Enumerates, in parallel over the batch, every butterfly of `g` that
/// contains batch edge `i` and no lower-indexed batch edge. Returns the
/// per-batch-edge butterfly lists (in batch order — applying them in that
/// order keeps the maintained counts thread-count-independent) plus the
/// total intersection work.
fn enumerate_changed(
    g: &DynamicBigraph,
    batch: &[(VertexId, VertexId)],
) -> (Vec<Vec<Butterfly>>, u64) {
    if batch.is_empty() {
        return (Vec::new(), 0);
    }
    let index: HashMap<(VertexId, VertexId), usize> =
        batch.iter().enumerate().map(|(i, &e)| (e, i)).collect();
    let results: Vec<(Vec<Butterfly>, u64)> = batch
        .par_iter()
        .enumerate()
        .map(|(i, &(u, v))| {
            let lower = |a: VertexId, b: VertexId| index.get(&(a, b)).is_some_and(|&j| j < i);
            let mut found: Vec<Butterfly> = Vec::new();
            let mut work = 0u64;
            // N(u) is re-scanned once per wedge middle; materialize the
            // base-plus-overlay merge once instead of re-running the
            // BTreeSet-range merge (and its per-element `removed` lookups)
            // for every u2.
            let nu_adj: Vec<VertexId> = g.neighbors_u(u).collect();
            // Hub path: when the batch edge hangs off a high-degree u,
            // build the N(u) membership bitset once and stream every
            // N(u2) against it — O(deg u2) per wedge middle instead of a
            // merge over the hub's whole list. The build is charged once,
            // in the same element-visit units all kernels report.
            let bitset = (nu_adj.len() >= BITSET_MIN).then(|| {
                work += nu_adj.len() as u64;
                VertexBitset::from_iter(g.num_v(), nu_adj.iter().copied())
            });
            for u2 in g.neighbors_v(v) {
                if u2 == u || lower(u2, v) {
                    continue;
                }
                let hit = |v2: VertexId| {
                    if v2 != v && !lower(u, v2) && !lower(u2, v2) {
                        found.push((u, u2, v, v2));
                    }
                };
                // All kernels emit common neighbours in ascending order,
                // so `found` is kernel-independent and the maintained
                // counts stay deterministic across heuristic decisions.
                work += if let Some(bits) = &bitset {
                    intersect_bitset(bits, g.neighbors_u(u2), hit)
                } else {
                    let d2 = g.degree_u(u2);
                    if should_gallop(nu_adj.len(), d2) {
                        // Gallop the small materialized N(u) into N(u2) —
                        // needs random access, so only when u2's adjacency
                        // is a pure base-CSR slice (no overlay entries).
                        match g.base_only_neighbors_u(u2) {
                            Some(big) => intersect_gallop(nu_adj.iter().copied(), big, hit),
                            None => intersect_merge(nu_adj.iter().copied(), g.neighbors_u(u2), hit),
                        }
                    } else if should_gallop(d2, nu_adj.len()) {
                        // N(u) is the big side and is already a slice.
                        intersect_gallop(g.neighbors_u(u2), &nu_adj, hit)
                    } else {
                        intersect_merge(nu_adj.iter().copied(), g.neighbors_u(u2), hit)
                    }
                };
            }
            (found, work)
        })
        .collect();
    let work = results.iter().map(|(_, w)| w).sum();
    (results.into_iter().map(|(b, _)| b).collect(), work)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bigraph::builder::from_edges;
    use bigraph::gen;

    /// Recounts from scratch and compares every maintained quantity.
    fn assert_matches_recount(index: &DynamicButterflyIndex) {
        let g = index.materialize();
        let fresh = crate::count_graph(&g);
        assert_eq!(index.counts_side(Side::U), &fresh.u[..], "U counts");
        assert_eq!(index.counts_side(Side::V), &fresh.v[..], "V counts");
        assert_eq!(index.total_butterflies(), fresh.total(), "total");
        let per_edge = crate::per_edge::per_edge_counts(g.view(Side::U));
        assert_eq!(
            index.tracked_edges(),
            per_edge.iter().filter(|&&c| c > 0).count(),
            "stale per-edge entries for absent or butterfly-free edges"
        );
        for ((u, v), expect) in g.edges().zip(per_edge) {
            assert_eq!(
                index.edge_count(u, v),
                expect,
                "edge ({u}, {v}) count diverged"
            );
        }
    }

    #[test]
    fn insertion_completing_a_butterfly() {
        let g = from_edges(2, 2, &[(0, 0), (0, 1), (1, 0)]).unwrap();
        let mut index = DynamicButterflyIndex::new(g);
        assert_eq!(index.total_butterflies(), 0);
        let delta = index.apply_batch(&[EdgeOp::Insert(1, 1)]);
        assert_eq!(delta.gained, 1);
        assert_eq!(delta.lost, 0);
        assert_eq!(delta.dirty_u, vec![0, 1]);
        assert_eq!(delta.dirty_v, vec![0, 1]);
        assert_eq!(index.total_butterflies(), 1);
        assert_eq!(index.edge_count(0, 0), 1);
        assert_eq!(index.edge_count(1, 1), 1);
        assert_matches_recount(&index);
    }

    #[test]
    fn deletion_breaking_a_butterfly() {
        let g = from_edges(2, 2, &[(0, 0), (0, 1), (1, 0), (1, 1)]).unwrap();
        let mut index = DynamicButterflyIndex::new(g);
        assert_eq!(index.total_butterflies(), 1);
        let delta = index.apply_batch(&[EdgeOp::Delete(0, 1)]);
        assert_eq!(delta.lost, 1);
        assert_eq!(index.total_butterflies(), 0);
        assert_eq!(index.edge_count(0, 0), 0);
        assert_eq!(index.edge_count(0, 1), 0, "deleted edge reads 0");
        assert_matches_recount(&index);
    }

    #[test]
    fn batch_with_shared_butterflies_counts_once() {
        // Inserting two edges of the same butterfly in one batch: the
        // butterfly contains both, so min-index charging must count it
        // exactly once.
        let g = from_edges(2, 2, &[(0, 0), (0, 1)]).unwrap();
        let mut index = DynamicButterflyIndex::new(g);
        let delta = index.apply_batch(&[EdgeOp::Insert(1, 0), EdgeOp::Insert(1, 1)]);
        assert_eq!(delta.gained, 1);
        assert_eq!(index.total_butterflies(), 1);
        assert_matches_recount(&index);
    }

    #[test]
    fn batch_deleting_two_edges_of_one_butterfly() {
        let g = from_edges(2, 2, &[(0, 0), (0, 1), (1, 0), (1, 1)]).unwrap();
        let mut index = DynamicButterflyIndex::new(g);
        let delta = index.apply_batch(&[EdgeOp::Delete(0, 0), EdgeOp::Delete(1, 1)]);
        assert_eq!(delta.lost, 1);
        assert_eq!(index.total_butterflies(), 0);
        assert_matches_recount(&index);
    }

    #[test]
    fn mixed_insert_delete_batch() {
        // K(2,2) plus a pendant; delete one butterfly edge and insert an
        // edge forming a different butterfly in the same batch.
        let g = from_edges(3, 3, &[(0, 0), (0, 1), (1, 0), (1, 1), (2, 2)]).unwrap();
        let mut index = DynamicButterflyIndex::new(g);
        let delta = index.apply_batch(&[
            EdgeOp::Delete(0, 1),
            EdgeOp::Insert(2, 0),
            EdgeOp::Insert(0, 2),
        ]);
        // Lost: {0,1}×{0,1}. Gained: inspect via recount equality.
        assert_eq!(delta.lost, 1);
        assert_matches_recount(&index);
    }

    #[test]
    fn growth_batches_extend_counts() {
        let g = from_edges(2, 2, &[(0, 0), (0, 1), (1, 0), (1, 1)]).unwrap();
        let mut index = DynamicButterflyIndex::new(g);
        index.apply_batch(&[EdgeOp::Insert(4, 3), EdgeOp::Insert(4, 0)]);
        assert_eq!(index.counts_side(Side::U).len(), 5);
        assert_eq!(index.counts_side(Side::V).len(), 4);
        assert_matches_recount(&index);
    }

    #[test]
    fn random_schedules_match_recount_after_every_batch() {
        for seed in 0..3u64 {
            let g = gen::zipf(50, 40, 250, 0.5, 0.9, seed);
            let schedule = bigraph::dynamic::seeded_schedule(&g, 5, 30, seed + 100);
            let mut index = DynamicButterflyIndex::with_threshold(g, 0.2);
            for batch in &schedule {
                index.apply_batch(batch);
                assert_matches_recount(&index);
            }
            assert!(index.graph().compactions() > 0 || index.graph().overlay_len() > 0);
        }
    }

    #[test]
    fn materialized_edge_counts_match_point_queries_after_every_batch() {
        // The default threshold compacts along the way; 100 never does, so
        // every added edge's count stays in the overlay map.
        for threshold in [bigraph::dynamic::DEFAULT_COMPACT_THRESHOLD, 100.0] {
            let g = gen::zipf(50, 40, 250, 0.5, 0.9, 4);
            let schedule = bigraph::dynamic::seeded_schedule(&g, 6, 30, 104);
            let mut index = DynamicButterflyIndex::with_threshold(g, threshold);
            let mut overlay_counted = false;
            for batch in &schedule {
                index.apply_batch(batch);
                overlay_counted |= !index.overlay_edge_counts.is_empty();
                let (graph, counts) = index.materialize_with_edge_counts();
                let queried: Vec<u64> =
                    graph.edges().map(|(u, v)| index.edge_count(u, v)).collect();
                assert_eq!(counts, queried, "threshold {threshold}");
                let fresh = crate::per_edge::per_edge_counts(graph.view(Side::U));
                assert_eq!(counts, fresh, "threshold {threshold}");
            }
            let compacted = index.graph().compactions() > 0;
            assert_eq!(compacted, threshold < 100.0, "threshold {threshold}");
            assert!(compacted || overlay_counted, "threshold {threshold}");
        }
    }

    #[test]
    fn hub_batches_engage_fast_kernels_and_stay_exact() {
        // A hub u=0 whose degree clears BITSET_MIN, plus leaf vertices
        // with tiny degrees: batch edges on the hub take the bitset path,
        // wedges pairing leaves against the hub satisfy the gallop
        // ratio, and everything else falls back to the merge. Exactness
        // is pinned by full recount; work must be positive and counted.
        let hub_deg = (BITSET_MIN * 3) as VertexId;
        let mut edges: Vec<(VertexId, VertexId)> = (0..hub_deg).map(|v| (0, v)).collect();
        for i in 0..40u32 {
            // Leaves sharing a couple of the hub's neighbours.
            edges.push((1 + i, (i * 7) % hub_deg));
            edges.push((1 + i, (i * 7 + 1) % hub_deg));
        }
        let g = from_edges(41, hub_deg as usize, &edges).unwrap();
        let mut index = DynamicButterflyIndex::with_threshold(g, 100.0);
        // Batch edges incident to the hub (bitset path) and to leaves
        // (gallop/merge paths), inserts and deletes mixed.
        let delta = index.apply_batch(&[
            EdgeOp::Insert(0, hub_deg),
            EdgeOp::Insert(3, 5),
            EdgeOp::Delete(0, 0),
            EdgeOp::Insert(40, 2),
        ]);
        assert!(delta.work > 0);
        assert_matches_recount(&index);
        // And once more after the overlay grew (base-only slices now
        // unavailable for touched vertices — the fallbacks must agree).
        index.apply_batch(&[EdgeOp::Insert(0, 0), EdgeOp::Delete(3, 5)]);
        assert_matches_recount(&index);
    }

    #[test]
    fn deltas_are_identical_across_pool_sizes() {
        let g = gen::uniform(40, 40, 200, 21);
        let schedule = bigraph::dynamic::seeded_schedule(&g, 4, 25, 77);
        let run = |threads: usize| {
            parutil::with_pool(threads, || {
                let mut index = DynamicButterflyIndex::new(g.clone());
                schedule
                    .iter()
                    .map(|b| index.apply_batch(b))
                    .collect::<Vec<_>>()
            })
        };
        assert_eq!(run(1), run(4));
    }
}
