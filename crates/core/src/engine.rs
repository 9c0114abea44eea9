//! The epoch-snapshot engine: one owner for the dynamic triple.
//!
//! Every earlier surface (`tipdecomp stream`, `repro dynamic`, the
//! differential suites) hand-wired a [`DynamicBigraph`] +
//! [`DynamicButterflyIndex`] + two [`DynamicTipState`]s and called their
//! update methods in the right order. [`StreamEngine`] owns that triple
//! behind a single `apply_batch` entry point and, after every batch,
//! publishes an immutable [`EngineSnapshot`] — the index's current CSR
//! and per-edge butterfly counts (shared, not copied), per-vertex counts,
//! both sides' tip numbers — stamped with a monotonically increasing
//! epoch.
//!
//! The publication discipline is the Polynesia-style update/read split:
//! writers serialize on a `Mutex` around the mutable triple; the snapshot
//! swap is a short `RwLock<Arc<_>>` write. Readers clone the `Arc` under
//! the read lock and then query entirely lock-free — a reader never blocks
//! on a running batch, and every answer it computes from one snapshot is
//! internally consistent with that snapshot's epoch.
//!
//! [`DynamicBigraph`]: bigraph::dynamic::DynamicBigraph

use crate::dynamic::{verify_against_scratch, DynamicTipState, ScratchArtifacts, TipUpdate};
use crate::wal::{DurableLog, Store, TailRepair};
use crate::Config;
use bigraph::dynamic::EdgeOp;
use bigraph::{BipartiteCsr, Side};
use butterfly::{BatchDelta, DynamicButterflyIndex};
use parking_lot::{Mutex, RwLock};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Construction knobs for a [`StreamEngine`].
#[derive(Debug, Clone, PartialEq)]
pub struct EngineOptions {
    /// Decomposition configuration used by the tip updates (partitions,
    /// heap arity, pinned thread count, HUC/DGM toggles).
    pub config: Config,
    /// Dirty fraction beyond which a batch falls back to full recompute.
    pub dirty_threshold: f64,
    /// Overlay compaction threshold of the underlying [`bigraph::dynamic::DynamicBigraph`].
    pub compact_threshold: f64,
    /// Differentially check every batch against the from-scratch oracles;
    /// [`StreamEngine::apply_batch`] then fails loudly on divergence and
    /// each [`BatchOutcome`] carries the priced [`ScratchArtifacts`].
    pub verify: bool,
}

impl Default for EngineOptions {
    fn default() -> Self {
        EngineOptions {
            config: Config::default(),
            dirty_threshold: crate::dynamic::DEFAULT_DIRTY_THRESHOLD,
            compact_threshold: bigraph::dynamic::DEFAULT_COMPACT_THRESHOLD,
            verify: false,
        }
    }
}

// The read path itself — `EngineSnapshot` and its query methods — lives
// in [`crate::snapshot`], where the lint's `no-lock-in-read-path` rule
// watches it. Re-exported here so `engine::EngineSnapshot` keeps working.
pub use crate::snapshot::{DenseVertex, EngineSnapshot};

/// What one `apply_batch` did, including the snapshot it published.
#[derive(Debug, Clone)]
pub struct BatchOutcome {
    /// Epoch of the published snapshot.
    pub epoch: u64,
    /// Structural + butterfly delta from the incremental index.
    pub delta: BatchDelta,
    /// U-side tip-update telemetry.
    pub update_u: TipUpdate,
    /// V-side tip-update telemetry.
    pub update_v: TipUpdate,
    /// Wall-clock of the incremental update (index + both tip updates +
    /// snapshot build), excluding verification.
    pub time: Duration,
    /// From-scratch oracle artifacts and the time they cost — present iff
    /// the engine runs with `verify` on.
    pub scratch: Option<ScratchArtifacts>,
    /// Wall-clock of the oracle check, when `verify` is on.
    pub time_verify: Option<Duration>,
    /// WAL sequence number the batch was committed under — present iff
    /// the engine is durable ([`StreamEngine::open_durable`]).
    pub lsn: Option<u64>,
    /// Why the post-publish checkpoint fold failed, if it did. Non-fatal:
    /// the batch itself is committed and applied, the previous WAL and
    /// checkpoint stay in effect, and the next due boundary retries.
    pub checkpoint_error: Option<String>,
    /// The snapshot published for this epoch.
    pub snapshot: Arc<EngineSnapshot>,
}

impl BatchOutcome {
    /// The tip update of the chosen side.
    pub fn update(&self, side: Side) -> &TipUpdate {
        match side {
            Side::U => &self.update_u,
            Side::V => &self.update_v,
        }
    }
}

/// Mutable state behind the writer lock: the triple plus the epoch
/// counter and (for durable engines) the WAL sink, so append → apply →
/// publish is atomic with respect to other writers.
struct EngineCore {
    index: DynamicButterflyIndex,
    tip_u: DynamicTipState,
    tip_v: DynamicTipState,
    epoch: u64,
    log: Option<DurableLog>,
}

impl EngineCore {
    /// Shares the index's graph and per-edge counts and copies the rest.
    fn snapshot(&self) -> EngineSnapshot {
        EngineSnapshot {
            epoch: self.epoch,
            graph: Arc::clone(self.index.csr()),
            counts_u: self.index.counts_side(Side::U).to_vec(),
            counts_v: self.index.counts_side(Side::V).to_vec(),
            edge_counts: Arc::clone(self.index.edge_counts()),
            total_butterflies: self.index.total_butterflies(),
            tip_u: self.tip_u.tip().to_vec(),
            tip_v: self.tip_v.tip().to_vec(),
        }
    }
}

/// The resident owner of the dynamic triple. Writers funnel through
/// [`Self::apply_batch`]; readers grab [`Self::snapshot`] and query it
/// without ever blocking on a batch.
pub struct StreamEngine {
    inner: Mutex<EngineCore>,
    published: RwLock<Arc<EngineSnapshot>>,
    options: EngineOptions,
}

impl StreamEngine {
    /// Builds the triple from a loaded graph (one full parallel count +
    /// both sides' initial peels) and publishes the epoch-0 snapshot.
    pub fn new(graph: BipartiteCsr, options: EngineOptions) -> Self {
        let index = DynamicButterflyIndex::with_threshold(graph, options.compact_threshold);
        let tip_u = DynamicTipState::with_threshold(
            &index,
            Side::U,
            options.config.clone(),
            options.dirty_threshold,
        );
        let tip_v = DynamicTipState::with_threshold(
            &index,
            Side::V,
            options.config.clone(),
            options.dirty_threshold,
        );
        let core = EngineCore {
            index,
            tip_u,
            tip_v,
            epoch: 0,
            log: None,
        };
        let snapshot = Arc::new(core.snapshot());
        StreamEngine {
            inner: Mutex::new(core),
            published: RwLock::new(snapshot),
            options,
        }
    }

    /// The options the engine was constructed with.
    pub fn options(&self) -> &EngineOptions {
        &self.options
    }

    /// Epoch of the currently published snapshot.
    pub fn epoch(&self) -> u64 {
        self.published.read().epoch
    }

    /// The currently published snapshot. Readers clone the `Arc` under a
    /// short read lock and then query entirely without synchronization.
    pub fn snapshot(&self) -> Arc<EngineSnapshot> {
        Arc::clone(&self.published.read())
    }

    /// Applies one batch through the whole triple — incremental butterfly
    /// maintenance, then both sides' tip updates — and publishes the next
    /// epoch's snapshot. Concurrent writers serialize; readers keep
    /// serving the previous snapshot until the swap.
    ///
    /// With `verify` on, the batch is differentially checked against the
    /// from-scratch oracles before publication; a divergence returns
    /// `Err` and publishes nothing.
    ///
    /// For durable engines, a checkpoint fold that fails *after* the
    /// batch is committed and published is never an `Err` (retrying the
    /// batch would double-apply it) — it rides the outcome as
    /// [`BatchOutcome::checkpoint_error`] and the fold is retried at the
    /// next due boundary.
    pub fn apply_batch(&self, ops: &[EdgeOp]) -> Result<BatchOutcome, String> {
        self.apply_batch_inner(ops, true)
    }

    /// The shared batch path. With `durable` off the WAL is bypassed —
    /// used by recovery and time travel (`receipt::version`) to re-apply
    /// records that are already committed.
    pub(crate) fn apply_batch_inner(
        &self,
        ops: &[EdgeOp],
        durable: bool,
    ) -> Result<BatchOutcome, String> {
        let mut guard = self.inner.lock();
        // Reborrow through the guard so the field borrows split.
        let core = &mut *guard;
        // Append-then-apply: the record is durable (written + fsynced)
        // before any in-memory state moves, so the WAL is never behind
        // the published state.
        let lsn = match (durable, core.log.as_mut()) {
            (true, Some(log)) => Some(
                log.append(ops)
                    .map_err(|e| format!("wal append failed: {e}"))?,
            ),
            _ => None,
        };
        let t0 = Instant::now();
        let delta = core.index.apply_batch(ops);
        let update_u = core.tip_u.update(&core.index, &delta);
        let update_v = core.tip_v.update(&core.index, &delta);
        core.epoch += 1;
        let snapshot = Arc::new(core.snapshot());
        let time = t0.elapsed();

        let (scratch, time_verify) = if self.options.verify {
            let tv = Instant::now();
            let artifacts = verify_against_scratch(&core.index, &[&core.tip_u, &core.tip_v])
                .map_err(|e| format!("epoch {}: {e}", core.epoch))?;
            (Some(artifacts), Some(tv.elapsed()))
        } else {
            (None, None)
        };

        *self.published.write() = Arc::clone(&snapshot);

        // Checkpoint after publish: fold the fully applied base into a
        // fresh binary snapshot when the cadence says one is due. The
        // snapshot's materialized graph *is* the state at this LSN. A
        // failed fold is NOT a batch failure — by now the batch is
        // WAL-committed, applied, and published, and an `Err` here would
        // invite a retry that double-applies the ops — so the error rides
        // the outcome and the old WAL/cadence retry at the next boundary.
        let checkpoint_error = match (lsn, core.log.as_mut()) {
            (Some(lsn), Some(log)) => log
                .maybe_checkpoint(snapshot.graph(), lsn)
                .err()
                .map(|e| format!("checkpoint at lsn {lsn} failed: {e}")),
            _ => None,
        };

        Ok(BatchOutcome {
            epoch: core.epoch,
            delta,
            update_u,
            update_v,
            time,
            scratch,
            time_verify,
            lsn,
            checkpoint_error,
            snapshot,
        })
    }

    /// Runs the shared differential gate against the current state,
    /// regardless of the `verify` option.
    pub fn verify_against_scratch(&self) -> Result<ScratchArtifacts, String> {
        let core = self.inner.lock();
        verify_against_scratch(&core.index, &[&core.tip_u, &core.tip_v])
    }

    /// LSN of the last committed batch, for durable engines.
    pub fn end_lsn(&self) -> Option<u64> {
        self.inner.lock().log.as_ref().map(|log| log.end_lsn())
    }

    /// LSN of the last checkpoint, for durable engines.
    pub fn checkpoint_lsn(&self) -> Option<u64> {
        self.inner
            .lock()
            .log
            .as_ref()
            .map(|log| log.checkpoint_lsn())
    }

    /// Directory of the attached durable store, for durable engines.
    /// Versioning surfaces (serve-mode `tag`/`at`) use this to reach the
    /// store's `versions.meta` next to the WAL.
    pub fn store_dir(&self) -> Option<std::path::PathBuf> {
        self.inner
            .lock()
            .log
            .as_ref()
            .map(|log| log.dir().to_path_buf())
    }

    fn attach_log(&self, log: DurableLog) {
        self.inner.lock().log = Some(log);
    }

    /// Opens (or initializes) a durable engine over the store directory
    /// `dir` (`FORMATS.md` §4).
    ///
    /// * No store at `dir`: one is initialized from `init_graph` (an
    ///   error if `None`) — snapshot at LSN 0, empty WAL.
    /// * Existing store: the base snapshot is loaded, the WAL is
    ///   recovered (torn tail repaired and reported), and every committed
    ///   record past the checkpoint is replayed through the full triple
    ///   before the engine is handed back. `init_graph` is ignored — the
    ///   store is the durable truth.
    ///
    /// Subsequent [`Self::apply_batch`] calls append to the WAL before
    /// applying, and fold a fresh checkpoint every `checkpoint_every`
    /// batches (`0` = never).
    pub fn open_durable(
        dir: &Path,
        init_graph: Option<BipartiteCsr>,
        options: EngineOptions,
        checkpoint_every: u64,
    ) -> Result<(StreamEngine, RecoveryInfo), String> {
        if !Store::exists(dir) {
            let graph = init_graph.ok_or_else(|| {
                format!(
                    "no store at {} and no initial graph to create one from",
                    dir.display()
                )
            })?;
            let (store, wal) = Store::init(dir, &graph).map_err(|e| e.to_string())?;
            let engine = StreamEngine::new(graph, options);
            engine.attach_log(DurableLog::new(store, wal, 0, checkpoint_every));
            return Ok((
                engine,
                RecoveryInfo {
                    created: true,
                    checkpoint_lsn: 0,
                    wal_records: 0,
                    replayed: 0,
                    skipped: 0,
                    end_lsn: 0,
                    repaired: None,
                },
            ));
        }
        let rec = Store::recover(dir).map_err(|e| e.to_string())?;
        let engine = StreamEngine::new(rec.graph, options);
        for record in &rec.batches {
            engine
                .apply_batch_inner(&record.ops, false)
                .map_err(|e| format!("replaying lsn {}: {e}", record.lsn))?;
        }
        let info = RecoveryInfo {
            created: false,
            checkpoint_lsn: rec.checkpoint_lsn,
            wal_records: rec.skipped + rec.batches.len(),
            replayed: rec.batches.len(),
            skipped: rec.skipped,
            end_lsn: rec.wal.end_lsn(),
            repaired: rec.repair,
        };
        engine.attach_log(DurableLog::new(
            rec.store,
            rec.wal,
            rec.checkpoint_lsn,
            checkpoint_every,
        ));
        Ok((engine, info))
    }
}

/// What [`StreamEngine::open_durable`] found on disk and did about it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryInfo {
    /// `true` if no store existed and a fresh one was initialized.
    pub created: bool,
    /// The checkpoint pointer's LSN.
    pub checkpoint_lsn: u64,
    /// Committed records found in the WAL.
    pub wal_records: usize,
    /// Records past the checkpoint, replayed through the engine.
    pub replayed: usize,
    /// Records at or below the checkpoint, already folded into the base.
    pub skipped: usize,
    /// Last committed LSN — new appends continue from here.
    pub end_lsn: u64,
    /// The torn-tail repair performed on the WAL, if any.
    pub repaired: Option<TailRepair>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use bigraph::builder::from_edges;
    use bigraph::dynamic::seeded_schedule;
    use bigraph::gen;

    fn verifying(graph: BipartiteCsr) -> StreamEngine {
        StreamEngine::new(
            graph,
            EngineOptions {
                verify: true,
                ..EngineOptions::default()
            },
        )
    }

    #[test]
    fn epoch_zero_snapshot_answers_match_oracles() {
        let g = gen::planted_bicliques(20, 20, 2, 4, 4, 30, 3);
        let engine = verifying(g.clone());
        let snap = engine.snapshot();
        assert_eq!(snap.epoch(), 0);
        let counts = butterfly::count_graph(&g);
        assert_eq!(snap.counts_side(Side::U), &counts.u[..]);
        assert_eq!(snap.total_butterflies(), counts.total());
        let oracle = crate::bup::bup_decompose(&g, Side::U, 4);
        assert_eq!(snap.tip_side(Side::U), &oracle.tip[..]);
        assert_eq!(
            snap.theta_max(Side::U),
            oracle.tip.iter().copied().max().unwrap()
        );
        engine.verify_against_scratch().unwrap();
    }

    #[test]
    fn apply_batch_publishes_next_epoch() {
        let g = from_edges(2, 2, &[(0, 0), (0, 1), (1, 0)]).unwrap();
        let engine = verifying(g);
        let before = engine.snapshot();
        let outcome = engine.apply_batch(&[EdgeOp::Insert(1, 1)]).unwrap();
        assert_eq!(outcome.epoch, 1);
        assert_eq!(outcome.delta.gained, 1);
        assert_eq!(engine.epoch(), 1);
        // The pre-batch snapshot is untouched (readers holding it keep a
        // consistent view).
        assert_eq!(before.epoch(), 0);
        assert_eq!(before.total_butterflies(), 0);
        assert_eq!(engine.snapshot().total_butterflies(), 1);
        assert!(outcome.scratch.is_some());
    }

    #[test]
    fn no_op_batch_publishes_the_previous_graph() {
        let g = from_edges(3, 2, &[(0, 0), (0, 1), (1, 0), (1, 1), (2, 0)]).unwrap();
        let engine = verifying(g);
        let before = engine.snapshot();
        // An insert of a present edge and a delete of an absent one.
        let outcome = engine
            .apply_batch(&[EdgeOp::Insert(0, 0), EdgeOp::Delete(2, 1)])
            .unwrap();
        assert_eq!(outcome.delta.application.skipped, 2);
        let after = engine.snapshot();
        assert_eq!(after.epoch(), 1);
        assert!(std::ptr::eq(after.graph(), before.graph()));
        assert!(std::ptr::eq(after.edge_counts(), before.edge_counts()));
        let outcome = engine.apply_batch(&[EdgeOp::Insert(2, 1)]).unwrap();
        assert_eq!(outcome.delta.gained, 2);
        let changed = engine.snapshot();
        assert!(!std::ptr::eq(changed.graph(), after.graph()));
        assert_eq!(changed.graph().num_edges(), 6);
    }

    #[test]
    fn point_queries_answer_from_the_snapshot() {
        let g = from_edges(2, 2, &[(0, 0), (0, 1), (1, 0), (1, 1)]).unwrap();
        let engine = verifying(g);
        let snap = engine.snapshot();
        assert_eq!(snap.tip(Side::U, 0), Some(1));
        assert_eq!(snap.tip(Side::U, 7), None, "out of range");
        assert_eq!(snap.vertex_butterflies(Side::V, 1), Some(1));
        assert_eq!(snap.edge_butterflies(0, 1), Some(1));
        assert_eq!(snap.edge_butterflies(1, 7), None, "absent edge");
    }

    #[test]
    fn top_k_ranking_is_deterministic() {
        // u0/u1 share the butterfly (tip 1); u2 is a pendant (tip 0).
        let g = from_edges(3, 2, &[(0, 0), (0, 1), (1, 0), (1, 1), (2, 0)]).unwrap();
        let engine = verifying(g);
        let snap = engine.snapshot();
        let top = snap.top_k_densest(Side::U, 2);
        assert_eq!(top.len(), 2);
        assert_eq!((top[0].id, top[0].tip), (0, 1), "ties break by id");
        assert_eq!((top[1].id, top[1].tip), (1, 1));
        assert!(snap.top_k_densest(Side::U, 10).len() == 3, "k capped");
    }

    fn temp_store(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("engine_store_{tag}_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    #[test]
    fn durable_engine_survives_restart() {
        let dir = temp_store("restart");
        let g = gen::zipf(40, 30, 180, 0.5, 0.9, 71);
        let schedule = seeded_schedule(&g, 3, 30, 73);
        let (engine, info) =
            StreamEngine::open_durable(&dir, Some(g), EngineOptions::default(), 0).unwrap();
        assert!(info.created);
        for batch in &schedule {
            let outcome = engine.apply_batch(batch).unwrap();
            assert_eq!(
                outcome.lsn,
                Some(outcome.epoch),
                "fresh store: lsn == epoch"
            );
        }
        let snap = engine.snapshot();
        let (cu, cv) = (snap.tip_checksum(Side::U), snap.tip_checksum(Side::V));
        drop(engine);

        let (engine, info) =
            StreamEngine::open_durable(&dir, None, EngineOptions::default(), 0).unwrap();
        assert!(!info.created);
        assert_eq!(info.replayed, schedule.len());
        assert_eq!(info.end_lsn, schedule.len() as u64);
        let snap = engine.snapshot();
        assert_eq!(snap.tip_checksum(Side::U), cu);
        assert_eq!(snap.tip_checksum(Side::V), cv);
        engine.verify_against_scratch().unwrap();
        // The recovered engine keeps appending at the right LSN.
        let outcome = engine.apply_batch(&schedule[0]).unwrap();
        assert_eq!(outcome.lsn, Some(schedule.len() as u64 + 1));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn durable_engine_checkpoints_and_recovers_from_the_fold() {
        let dir = temp_store("ckpt");
        let g = gen::zipf(40, 30, 160, 0.5, 0.9, 81);
        let schedule = seeded_schedule(&g, 5, 25, 83);
        let (engine, _) =
            StreamEngine::open_durable(&dir, Some(g), EngineOptions::default(), 2).unwrap();
        for batch in &schedule {
            engine.apply_batch(batch).unwrap();
        }
        // 5 batches, cadence 2: checkpoints at 2 and 4, one record left.
        assert_eq!(engine.checkpoint_lsn(), Some(4));
        assert_eq!(engine.end_lsn(), Some(5));
        let snap = engine.snapshot();
        let (cu, cv) = (snap.tip_checksum(Side::U), snap.tip_checksum(Side::V));
        drop(engine);

        let (engine, info) =
            StreamEngine::open_durable(&dir, None, EngineOptions::default(), 2).unwrap();
        assert_eq!(info.checkpoint_lsn, 4);
        assert_eq!(info.replayed, 1);
        let snap = engine.snapshot();
        assert_eq!(snap.tip_checksum(Side::U), cu);
        assert_eq!(snap.tip_checksum(Side::V), cv);
        engine.verify_against_scratch().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checkpoint_failure_is_nonfatal_and_retried_at_the_next_boundary() {
        let dir = temp_store("ckpt_fail");
        let g = from_edges(2, 2, &[(0, 0), (0, 1), (1, 0)]).unwrap();
        let (engine, _) =
            StreamEngine::open_durable(&dir, Some(g), EngineOptions::default(), 1).unwrap();
        // Sabotage the fold: with the store directory gone the snapshot
        // temp file cannot be created, but the WAL append still reaches
        // the already-open file handle — the batch commits fine.
        std::fs::remove_dir_all(&dir).unwrap();
        let outcome = engine.apply_batch(&[EdgeOp::Insert(1, 1)]).unwrap();
        assert_eq!(outcome.lsn, Some(1), "batch committed despite the fold");
        let err = outcome
            .checkpoint_error
            .as_deref()
            .expect("fold must fail with the directory gone");
        assert!(err.contains("checkpoint at lsn 1 failed"), "{err}");
        // Applied and published; the old checkpoint/cadence stay put.
        assert_eq!(engine.epoch(), 1);
        assert_eq!(engine.checkpoint_lsn(), Some(0), "old checkpoint kept");
        assert_eq!(engine.end_lsn(), Some(1));
        // Restore the directory: the next boundary retries and succeeds.
        std::fs::create_dir_all(&dir).unwrap();
        let outcome = engine.apply_batch(&[EdgeOp::Delete(0, 1)]).unwrap();
        assert_eq!(outcome.checkpoint_error, None);
        assert_eq!(engine.checkpoint_lsn(), Some(2));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn open_durable_without_store_or_graph_is_an_error() {
        let dir = temp_store("nograph");
        let err = match StreamEngine::open_durable(&dir, None, EngineOptions::default(), 0) {
            Ok(_) => panic!("expected an error"),
            Err(e) => e,
        };
        assert!(err.contains("no store at"), "{err}");
        assert!(err.contains(dir.to_str().unwrap()), "pathful: {err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn verified_schedule_tracks_oracles_every_epoch() {
        let g = gen::zipf(40, 30, 180, 0.5, 0.9, 61);
        let schedule = seeded_schedule(&g, 4, 25, 67);
        let engine = StreamEngine::new(
            g,
            EngineOptions {
                verify: true,
                dirty_threshold: 0.1,
                compact_threshold: 0.15,
                config: Config::default().with_partitions(6),
            },
        );
        for (i, batch) in schedule.iter().enumerate() {
            let outcome = engine.apply_batch(batch).unwrap();
            assert_eq!(outcome.epoch, i as u64 + 1);
            assert_eq!(outcome.snapshot.epoch(), outcome.epoch);
            // Snapshot-internal consistency: each butterfly carries 2
            // vertices per side and 4 edges.
            let snap = &outcome.snapshot;
            let total = snap.total_butterflies();
            assert_eq!(snap.counts_side(Side::U).iter().sum::<u64>(), 2 * total);
            assert_eq!(snap.counts_side(Side::V).iter().sum::<u64>(), 2 * total);
            assert_eq!(snap.edge_counts().iter().sum::<u64>(), 4 * total);
        }
        engine.verify_against_scratch().unwrap();
    }
}
