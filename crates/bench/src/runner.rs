//! Shared experiment plumbing: dataset instantiation, algorithm runners,
//! structured row builders, and row formatting for the `repro` harness.

use crate::report::{
    CheckpointFoldRow, CrashRow, DeriveChecksRow, DiffLawRow, LoadCostRow, RecoverExperimentReport,
    SchedulerReport, ServeBatchRow, ServeExperimentReport, ServeTelemetry, SmokeReport,
    SmokeTipRun, SmokeWingRun, Table2Row, Table3Row, TimeTravelRow, VersionTagRow,
    VersionsExperimentReport, WingRow,
};
use bigraph::{datasets::AnalogSpec, stats, BipartiteCsr, Side};
use rayon::prelude::*;
use receipt::engine::{EngineOptions, StreamEngine};
use receipt::{bup::BaselineResult, Config, TipDecomposition};
use std::time::{Duration, Instant};

/// A dataset instantiated for one peeled side (the paper's `ItU`, `ItV`, …
/// naming).
pub struct Workload {
    pub spec: AnalogSpec,
    pub side: Side,
    pub graph: BipartiteCsr,
}

impl Workload {
    pub fn label(&self) -> String {
        format!("{}{}", self.spec.name, self.side.suffix())
    }
}

/// Instantiates every analog × side pair, in Table 2/3 order.
pub fn all_workloads() -> Vec<Workload> {
    let mut out = Vec::new();
    for spec in bigraph::datasets::all() {
        let graph = spec.generate();
        for side in [Side::U, Side::V] {
            out.push(Workload {
                spec,
                side,
                graph: graph.clone(),
            });
        }
    }
    out
}

/// Instantiates a single named workload, e.g. `TrU` or `it v`.
pub fn workload_by_label(label: &str) -> Option<Workload> {
    let label = label.trim();
    if label.len() < 3 {
        return None;
    }
    let (name, side) = label.split_at(label.len() - 1);
    let side = match side.chars().next()?.to_ascii_uppercase() {
        'U' => Side::U,
        'V' => Side::V,
        _ => return None,
    };
    let spec = bigraph::datasets::by_name(name.trim())?;
    Some(Workload {
        spec,
        side,
        graph: spec.generate(),
    })
}

/// One Table 3 style measurement of RECEIPT on a workload.
pub fn run_receipt(w: &Workload, config: &Config) -> TipDecomposition {
    receipt::tip_decompose(&w.graph, w.side, config)
}

pub fn run_bup(w: &Workload) -> BaselineResult {
    receipt::bup::bup_decompose(&w.graph, w.side, 4)
}

pub fn run_parb(w: &Workload) -> BaselineResult {
    receipt::parb::parb_decompose(&w.graph, w.side)
}

/// `peel_live` from the counts BUP starts from: `(tips, peel wedges, peel
/// time)`. Counting is not timed; BUP's own run reports it.
pub fn run_peel_live(w: &Workload) -> (Vec<u64>, u64, Duration) {
    let counts =
        butterfly::count::vertex_priority_counts(&bigraph::RankedGraph::from_csr(&w.graph));
    let t0 = Instant::now();
    let (tip, wedges) = receipt::bup::peel_live(w.graph.view(w.side), counts.side(w.side), 4);
    (tip, wedges, t0.elapsed())
}

/// FNV-1a over little-endian `u64` words — the digest behind
/// `WingRow::wing_checksum` and `DynamicRow::tip_checksum`
/// (thread-count-invariant decomposition id). Canonical implementation
/// lives with the dynamic-maintenance layer.
pub use receipt::dynamic::fnv1a_u64;

/// Snapshot of the vendored pool's work-stealing counters, shaped for the
/// JSON report. Taken after an experiment ran, so it covers the whole
/// process's scheduling activity.
pub fn scheduler_report() -> SchedulerReport {
    let stats = rayon::scheduler_stats();
    SchedulerReport {
        schema_version: receipt::report::SCHEMA_VERSION,
        threads: rayon::current_num_threads(),
        workers_spawned: stats.workers_spawned,
        jobs_submitted: stats.jobs_submitted,
        tasks_executed: stats.tasks_executed,
        helper_executed: stats.helper_executed,
        per_worker_executed: stats.per_worker_executed,
        injector_pushes: stats.injector_pushes,
        injector_pops: stats.injector_pops,
        steals_attempted: stats.steals_attempted,
        steals_succeeded: stats.steals_succeeded,
        idle_timeouts: stats.idle_timeouts,
    }
}

/// Drives a deterministic fork-join-plus-sort workload through the pool so
/// a following [`scheduler_report`] reflects real nested-parallel
/// scheduling even when an experiment's graphs are small (the smoke
/// workload is seconds-scale by design). At budget 1 every construct here
/// takes the inline fast path — no jobs are submitted, so the `t=1`
/// zero-steal CI gate still observes a quiet scheduler.
pub fn scheduler_exercise() {
    fn mix(x: u64) -> u64 {
        let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
    // ~50µs of hashing per leaf keeps owners busy long enough for thieves
    // to wake and steal the siblings off their deques.
    fn leaf(x: u64) -> u64 {
        (0..20_000u64).fold(x, |acc, i| mix(acc ^ i))
    }
    fn tree(depth: u32, x: u64) -> u64 {
        if depth == 0 {
            return leaf(x);
        }
        let (a, b) = rayon::join(|| tree(depth - 1, 2 * x), || tree(depth - 1, 2 * x + 1));
        a ^ b
    }
    let mut v: Vec<u64> = (0..200_000u64).map(mix).collect();
    v.par_sort_unstable();
    std::hint::black_box(tree(8, 1));
    std::hint::black_box(v);
}

/// Seconds with 3 decimals, matching the paper's `t(s)` column.
pub fn secs(d: Duration) -> String {
    format!("{:.3}", d.as_secs_f64())
}

/// Billions (the paper reports wedges in billions); here workloads are
/// laptop-scale so we print millions.
pub fn millions(x: u64) -> String {
    format!("{:.2}", x as f64 / 1e6)
}

// ---------------------------------------------------------------------------
// Structured row builders — the single execution path behind both the text
// tables and `repro <exp> --json`.
// ---------------------------------------------------------------------------

/// Table 2 rows: dataset statistics, including θ_max for both sides.
pub fn table2_rows() -> Vec<Table2Row> {
    bigraph::datasets::all()
        .iter()
        .map(|spec| {
            let g = spec.generate();
            let vu = g.view(Side::U);
            let vv = g.view(Side::V);
            let counts = butterfly::par_count_graph(&g);
            let wedges = stats::total_primary_wedges(vu) + stats::total_primary_wedges(vv);
            let cfg = Config::default();
            let tu = receipt::tip_decompose(&g, Side::U, &cfg);
            let tv = receipt::tip_decompose(&g, Side::V, &cfg);
            Table2Row {
                name: spec.name.to_string(),
                num_u: g.num_u(),
                num_v: g.num_v(),
                num_edges: g.num_edges(),
                avg_degree_u: stats::avg_primary_degree(vu),
                avg_degree_v: stats::avg_primary_degree(vv),
                butterflies: counts.total(),
                wedges,
                theta_max_u: tu.theta_max(),
                theta_max_v: tv.theta_max(),
            }
        })
        .collect()
}

/// Table 3 rows. Panics if any algorithm diverges from BUP — the
/// equivalence is the experiment's premise.
pub fn table3_rows() -> Vec<Table3Row> {
    all_workloads()
        .iter()
        .map(|w| {
            let bup = run_bup(w);
            let parb = run_parb(w);
            let rcpt = run_receipt(w, &Config::default());
            let (live_tip, live_wedges, live_time) = run_peel_live(w);
            assert_eq!(bup.tip, parb.tip, "{}: ParB diverged", w.label());
            assert_eq!(bup.tip, rcpt.tip, "{}: RECEIPT diverged", w.label());
            assert_eq!(bup.tip, live_tip, "{}: peel_live diverged", w.label());
            Table3Row {
                workload: w.label(),
                time_pvbcnt_secs: bup.time_count.as_secs_f64(),
                time_bup_secs: bup.time_peel.as_secs_f64(),
                time_parb_secs: parb.time_peel.as_secs_f64(),
                time_receipt_secs: rcpt.metrics.time_total().as_secs_f64(),
                time_peel_live_secs: live_time.as_secs_f64(),
                wedges_bup: bup.wedges_count + bup.wedges_peel,
                wedges_receipt: rcpt.metrics.wedges_total(),
                wedges_peel_live: bup.wedges_count + live_wedges,
                wedges_pvbcnt: bup.wedges_count,
                rounds_parb: parb.rounds,
                rounds_receipt: rcpt.metrics.sync_rounds,
                peel_to_count_ratio: bup.wedges_peel as f64 / bup.wedges_count.max(1) as f64,
                tips_match: true,
            }
        })
        .collect()
}

/// The §7 wing-extension workloads (downscaled: edge peeling is an order
/// of magnitude costlier than vertex peeling).
pub fn wing_workloads() -> Vec<(&'static str, BipartiteCsr)> {
    vec![
        (
            "zipf-40k",
            bigraph::gen::zipf(6_000, 2_500, 40_000, 0.5, 1.0, 5),
        ),
        (
            "blocks",
            bigraph::gen::planted_bicliques(3_000, 3_000, 30, 8, 8, 15_000, 6),
        ),
        (
            "pa-30k",
            bigraph::gen::preferential_attachment(10_000, 4_000, 3, 7),
        ),
    ]
}

/// Wing-extension rows. Panics if the parallel wing numbers diverge from
/// the sequential peel.
pub fn wing_rows() -> Vec<WingRow> {
    wing_workloads()
        .iter()
        .map(|(name, g)| {
            let view = g.view(Side::U);
            let t0 = std::time::Instant::now();
            let seq = receipt::wing::wing_decompose(view, 4);
            let time_seq = t0.elapsed();
            let t1 = std::time::Instant::now();
            let (par, metrics) = receipt::wing_parallel::receipt_wing_decompose(view, 50, 4);
            let time_par = t1.elapsed();
            assert_eq!(seq.wing, par.wing, "{name}: parallel wing diverged");
            WingRow {
                graph: name.to_string(),
                num_edges: g.num_edges(),
                time_seq_secs: time_seq.as_secs_f64(),
                time_par_secs: time_par.as_secs_f64(),
                work_seq: seq.work,
                work_par: par.work,
                sync_rounds: metrics.sync_rounds,
                max_wing: par.max_wing(),
                wings_match: true,
                wing_checksum: fnv1a_u64(&par.wing),
            }
        })
        .collect()
}

/// The `repro dynamic` workloads: downscaled graph families with a seeded
/// insert/delete schedule each. `(family, graph, batches, ops_per_batch,
/// schedule seed, dirty threshold)` — thresholds are chosen so the rows
/// exercise both the seeded re-peel and the full-recompute fallback.
pub fn dynamic_workloads() -> Vec<(&'static str, BipartiteCsr, usize, usize, u64, f64)> {
    vec![
        (
            "zipf-2k",
            bigraph::gen::zipf(700, 400, 2_000, 0.5, 0.9, 31),
            4,
            120,
            131,
            0.2,
        ),
        (
            "blocks-1k",
            bigraph::gen::planted_bicliques(400, 400, 8, 5, 5, 800, 33),
            4,
            100,
            133,
            0.01,
        ),
        (
            "pa-2k",
            bigraph::gen::preferential_attachment(800, 500, 3, 35),
            4,
            120,
            135,
            0.2,
        ),
    ]
}

/// `repro dynamic` rows: drive each family's schedule through a verifying
/// [`StreamEngine`] — the same epoch-snapshot layer behind `tipdecomp
/// stream`/`serve` — and price every batch against the from-scratch
/// pipeline (parallel recount + BUP re-peel on both sides) that the
/// engine's `verify` mode already runs. Panics if the incremental state
/// diverges from the from-scratch oracles — the differential equality is
/// the experiment's premise, exactly like `table3_rows`.
pub fn dynamic_rows() -> Vec<crate::report::DynamicRow> {
    let mut rows = Vec::new();
    for (family, graph, batches, ops, seed, dirty_threshold) in dynamic_workloads() {
        let schedule = bigraph::dynamic::seeded_schedule(&graph, batches, ops, seed);
        let engine = StreamEngine::new(
            graph,
            EngineOptions {
                config: Config::default().with_partitions(8),
                dirty_threshold,
                verify: true,
                ..EngineOptions::default()
            },
        );
        for (batch_idx, batch) in schedule.iter().enumerate() {
            let outcome = engine
                .apply_batch(batch)
                .unwrap_or_else(|e| panic!("{family} batch {batch_idx}: {e}"));
            let scratch = outcome.scratch.as_ref().expect("verifying engine");
            let update = outcome.update(Side::U);
            let snap = &outcome.snapshot;
            rows.push(crate::report::DynamicRow {
                family: family.to_string(),
                batch: batch_idx,
                inserted: outcome.delta.application.inserted.len(),
                deleted: outcome.delta.application.deleted.len(),
                butterflies_gained: outcome.delta.gained,
                butterflies_lost: outcome.delta.lost,
                total_butterflies: snap.total_butterflies(),
                update_work: outcome.delta.work,
                recount_work: scratch.counts.wedges_traversed + scratch.peel_wedges,
                policy: update.policy,
                dirty_fraction: update.dirty_fraction,
                theta_max: snap.theta_max(Side::U),
                tip_checksum: snap.tip_checksum(Side::U),
                counts_match_recount: true,
                tips_match_bup: true,
                time_update_secs: outcome.time.as_secs_f64(),
                time_recount_secs: outcome.time_verify.expect("verifying engine").as_secs_f64(),
            });
        }
    }
    rows
}

/// `repro serve`: mixed read/update throughput against one in-process
/// [`StreamEngine`]. A writer thread applies the zipf family's seeded
/// schedule (every batch differentially verified before publication)
/// while `readers` threads loop grabbing the published snapshot and
/// answering point queries from it, each round checked for internal
/// consistency with that snapshot's epoch. Panics on any divergence.
pub fn serve_report(readers: usize) -> ServeExperimentReport {
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

    let (family, graph, batches, ops, seed, dirty_threshold) = dynamic_workloads().remove(0);
    let schedule = bigraph::dynamic::seeded_schedule(&graph, batches, ops, seed);
    let engine = StreamEngine::new(
        graph,
        EngineOptions {
            config: Config::default().with_partitions(8),
            dirty_threshold,
            verify: true,
            ..EngineOptions::default()
        },
    );

    let stop = AtomicBool::new(false);
    let inconsistencies = AtomicU64::new(0);
    let t0 = std::time::Instant::now();
    let mut rows: Vec<ServeBatchRow> = Vec::with_capacity(schedule.len());
    let mut reads_per_reader: Vec<u64> = vec![0; readers];
    let mut epochs_observed = std::collections::BTreeSet::new();

    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..readers)
            .map(|r| {
                let engine = &engine;
                let stop = &stop;
                let inconsistencies = &inconsistencies;
                scope.spawn(move || {
                    let mut reads = 0u64;
                    let mut seen = std::collections::BTreeSet::new();
                    let mut probe = r as u32;
                    while !stop.load(Ordering::Relaxed) {
                        let snap = engine.snapshot();
                        seen.insert(snap.epoch());
                        // Each round answers the serve-mode point-query mix
                        // from ONE snapshot; the invariants tie every
                        // answer to that snapshot's single epoch.
                        let total = snap.total_butterflies();
                        let nu = snap.num_side(Side::U) as u32;
                        let sum_u: u64 = snap.counts_side(Side::U).iter().sum();
                        let tip_ok = snap.tip(Side::U, probe % nu).is_some();
                        let top = snap.top_k_densest(Side::U, 4);
                        let top_ok = top.first().is_none_or(|d| d.tip == snap.theta_max(Side::U));
                        if sum_u != 2 * total || !tip_ok || !top_ok {
                            inconsistencies.fetch_add(1, Ordering::Relaxed);
                        }
                        probe = probe.wrapping_add(7);
                        reads += 1;
                    }
                    (reads, seen)
                })
            })
            .collect();

        for (batch_idx, batch) in schedule.iter().enumerate() {
            let outcome = engine
                .apply_batch(batch)
                .unwrap_or_else(|e| panic!("{family} batch {batch_idx}: {e}"));
            let snap = &outcome.snapshot;
            rows.push(ServeBatchRow {
                epoch: outcome.epoch,
                inserted: outcome.delta.application.inserted.len(),
                deleted: outcome.delta.application.deleted.len(),
                butterflies_gained: outcome.delta.gained,
                butterflies_lost: outcome.delta.lost,
                total_butterflies: snap.total_butterflies(),
                theta_max_u: snap.theta_max(Side::U),
                theta_max_v: snap.theta_max(Side::V),
                tip_checksum_u: snap.tip_checksum(Side::U),
                tip_checksum_v: snap.tip_checksum(Side::V),
                time_update_secs: outcome.time.as_secs_f64(),
                time_verify_secs: outcome.time_verify.expect("verifying engine").as_secs_f64(),
            });
        }
        stop.store(true, Ordering::Relaxed);
        for (r, handle) in handles.into_iter().enumerate() {
            let (reads, seen) = handle.join().expect("reader thread");
            reads_per_reader[r] = reads;
            epochs_observed.extend(seen);
        }
    });
    let time_session = t0.elapsed().as_secs_f64();

    let final_verified = engine
        .verify_against_scratch()
        .map(|_| true)
        .unwrap_or_else(|e| panic!("{family} final verify: {e}"));
    let bad = inconsistencies.load(std::sync::atomic::Ordering::Relaxed);
    assert_eq!(bad, 0, "{family}: {bad} inconsistent reader round(s)");
    let reads_total: u64 = reads_per_reader.iter().sum();
    ServeExperimentReport {
        family: family.to_string(),
        readers,
        batches: rows,
        final_verified,
        final_epoch: engine.epoch(),
        final_total_butterflies: engine.snapshot().total_butterflies(),
        serve_telemetry: Some(ServeTelemetry {
            reads_total,
            reads_per_reader,
            epochs_observed: epochs_observed.len(),
            inconsistencies: bad,
            time_session_secs: time_session,
            reads_per_sec: reads_total as f64 / time_session.max(1e-9),
        }),
    }
}

/// A unique scratch directory for the recover experiment (wiped first so a
/// rerun starts clean).
fn recover_scratch(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("repro_recover_{}_{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap_or_else(|e| panic!("mkdir {}: {e}", dir.display()));
    dir
}

/// Clones the reference store into `dir` with its WAL truncated to
/// `wal_len` bytes — the on-disk picture a crash at that point leaves.
fn clone_store_cut(reference: &std::path::Path, dir: &std::path::Path, wal_len: u64) {
    use receipt::wal::Store;
    for path in [
        Store::snapshot_path(reference, 0),
        Store::meta_path(reference),
    ] {
        let name = path.file_name().unwrap();
        std::fs::copy(&path, dir.join(name)).unwrap_or_else(|e| panic!("copy {name:?}: {e}"));
    }
    let wal = std::fs::read(Store::wal_path(reference)).expect("reference wal");
    assert!(wal_len as usize <= wal.len(), "cut past end of wal");
    std::fs::write(Store::wal_path(dir), &wal[..wal_len as usize]).expect("write cut wal");
}

/// `repro recover`: the durability crash matrix (`FORMATS.md` §4). An
/// uninterrupted durable run over a seeded schedule yields the reference
/// trajectory and a WAL with one record per batch; for every batch
/// boundary the store is cloned with the WAL cut there — at the exact
/// record end for the two kill kinds (identical bytes; the post-batch
/// state must come back) and mid-record for `torn-append` (the tail must
/// be repaired and the previous batch's state come back). Every recovery
/// is oracle-verified. Panics on any mismatch.
pub fn recover_report() -> RecoverExperimentReport {
    use receipt::wal::{Store, Wal};

    let (family, graph, batches, ops, seed, dirty_threshold) = dynamic_workloads().remove(0);
    let schedule = bigraph::dynamic::seeded_schedule(&graph, batches, ops, seed);
    let options = || EngineOptions {
        config: Config::default().with_partitions(8),
        dirty_threshold,
        verify: false,
        ..EngineOptions::default()
    };

    // Reference run: no checkpoint folding, so the WAL keeps every record.
    let ref_dir = recover_scratch("reference");
    let (engine, info) = StreamEngine::open_durable(&ref_dir, Some(graph.clone()), options(), 0)
        .unwrap_or_else(|e| panic!("{family} reference init: {e}"));
    assert!(info.created);
    // reference[b] = (total butterflies, tip checksums) after batch b.
    let state_of = |snap: &receipt::engine::EngineSnapshot| {
        (
            snap.total_butterflies(),
            snap.tip_checksum(Side::U),
            snap.tip_checksum(Side::V),
        )
    };
    let mut reference = vec![state_of(&engine.snapshot())];
    for (batch_idx, batch) in schedule.iter().enumerate() {
        let outcome = engine
            .apply_batch(batch)
            .unwrap_or_else(|e| panic!("{family} batch {batch_idx}: {e}"));
        reference.push(state_of(&outcome.snapshot));
    }
    let spans = Wal::scan(Store::wal_path(&ref_dir)).expect("reference wal scans clean");
    assert_eq!(spans.len(), schedule.len(), "one record per batch");

    let mut crash_matrix = Vec::new();
    let recover_into =
        |dir: &std::path::Path| -> (StreamEngine, receipt::engine::RecoveryInfo, f64) {
            let t0 = std::time::Instant::now();
            let (engine, info) = StreamEngine::open_durable(dir, None, options(), 0)
                .unwrap_or_else(|e| panic!("recovery in {} failed: {e}", dir.display()));
            let secs = t0.elapsed().as_secs_f64();
            engine
                .verify_against_scratch()
                .unwrap_or_else(|e| panic!("oracle after recovery in {}: {e}", dir.display()));
            (engine, info, secs)
        };
    for (b, span) in spans.iter().enumerate() {
        let boundary = b + 1; // = span.lsn
        let record_end = span.offset + span.len;
        // The two kill kinds leave identical bytes (the record is fully
        // durable); both must land on the post-batch state.
        for kind in ["kill-after-append", "kill-after-apply"] {
            let dir = recover_scratch(&format!("{kind}-{boundary}"));
            clone_store_cut(&ref_dir, &dir, record_end);
            let (engine, info, secs) = recover_into(&dir);
            let got = state_of(&engine.snapshot());
            assert_eq!(got, reference[boundary], "{kind} @ {boundary}");
            crash_matrix.push(CrashRow {
                kind: kind.to_string(),
                boundary,
                wal_records: info.wal_records,
                replayed: info.replayed,
                repaired: info.repaired.is_some(),
                discarded_bytes: 0,
                total_butterflies: got.0,
                tip_checksum_u: got.1,
                tip_checksum_v: got.2,
                matches_reference: true,
                oracle_verified: true,
                time_recover_secs: secs,
            });
            let _ = std::fs::remove_dir_all(&dir);
        }
        // Torn append: the crash hit mid-write, leaving a partial record.
        // Recovery truncates it and lands on the previous batch's state.
        let torn = span.len - 5;
        let dir = recover_scratch(&format!("torn-append-{boundary}"));
        clone_store_cut(&ref_dir, &dir, span.offset + torn);
        let (engine, info, secs) = recover_into(&dir);
        let got = state_of(&engine.snapshot());
        assert_eq!(got, reference[boundary - 1], "torn-append @ {boundary}");
        let repair = info.repaired.expect("torn tail must be repaired");
        assert_eq!(repair.discarded_bytes, torn, "torn bytes discarded");
        crash_matrix.push(CrashRow {
            kind: "torn-append".to_string(),
            boundary,
            wal_records: info.wal_records,
            replayed: info.replayed,
            repaired: true,
            discarded_bytes: repair.discarded_bytes,
            total_butterflies: got.0,
            tip_checksum_u: got.1,
            tip_checksum_v: got.2,
            matches_reference: true,
            oracle_verified: true,
            time_recover_secs: secs,
        });
        let _ = std::fs::remove_dir_all(&dir);
    }
    let _ = std::fs::remove_dir_all(&ref_dir);

    // Checkpoint folding: same schedule with a fold every 2 batches; only
    // the post-fold tail replays, and the final state still matches.
    let fold_every = 2u64;
    let fold_dir = recover_scratch("fold");
    let (engine, _) =
        StreamEngine::open_durable(&fold_dir, Some(graph.clone()), options(), fold_every)
            .unwrap_or_else(|e| panic!("{family} fold init: {e}"));
    for (batch_idx, batch) in schedule.iter().enumerate() {
        engine
            .apply_batch(batch)
            .unwrap_or_else(|e| panic!("{family} fold batch {batch_idx}: {e}"));
    }
    drop(engine);
    let (engine, info, fold_secs) = recover_into(&fold_dir);
    let got = state_of(&engine.snapshot());
    assert_eq!(got, reference[schedule.len()], "fold recovery");
    let expected_ckpt = (schedule.len() as u64 / fold_every) * fold_every;
    assert_eq!(info.checkpoint_lsn, expected_ckpt);
    let checkpoint_fold = CheckpointFoldRow {
        checkpoint_every: fold_every,
        batches: schedule.len(),
        checkpoint_lsn: info.checkpoint_lsn,
        replayed: info.replayed,
        skipped: info.skipped,
        matches_reference: true,
        oracle_verified: true,
        time_recover_secs: fold_secs,
    };
    let _ = std::fs::remove_dir_all(&fold_dir);

    // Load cost: the same graphs on disk as text vs binary image.
    let mut load_cost = Vec::new();
    let io_dir = recover_scratch("loadcost");
    for (name, g, ..) in dynamic_workloads() {
        let text_path = io_dir.join(format!("{name}.tsv"));
        let bin_path = io_dir.join(format!("{name}.bgr"));
        bigraph::io::write_graph_path(&g, &text_path).expect("write text");
        bigraph::binfmt::write_binary_graph_path(&bin_path, &g).expect("write binary");
        let t0 = std::time::Instant::now();
        let from_text = bigraph::io::read_graph_path(&text_path).expect("read text");
        let time_text = t0.elapsed().as_secs_f64();
        let t0 = std::time::Instant::now();
        let from_bin = bigraph::binfmt::read_binary_graph_path(&bin_path).expect("read binary");
        let time_bin = t0.elapsed().as_secs_f64();
        let identical = from_text.edges().eq(g.edges()) && from_bin.graph.edges().eq(g.edges());
        assert!(identical, "{name}: load round trip diverged");
        load_cost.push(LoadCostRow {
            graph: name.to_string(),
            num_edges: g.num_edges(),
            text_bytes: std::fs::metadata(&text_path).unwrap().len(),
            binary_bytes: std::fs::metadata(&bin_path).unwrap().len(),
            round_trip_identical: identical,
            time_text_load_secs: time_text,
            time_binary_load_secs: time_bin,
        });
    }
    let _ = std::fs::remove_dir_all(&io_dir);

    RecoverExperimentReport {
        family: family.to_string(),
        batches: schedule.len(),
        crash_matrix,
        checkpoint_fold,
        load_cost,
        all_recoveries_verified: true,
    }
}

/// `repro versions`: the graph-versioning experiment (`VERSIONING.md`).
/// The zipf dynamic schedule streams through a durable store with
/// checkpoint folding disabled (every tag stays serviceable, §3.4); a
/// version is tagged at every batch boundary including the `v0` base.
/// Every tag is then time-travelled to with `open_at` and the state is
/// required to equal the reference trajectory AND pass the from-scratch
/// oracle; the diff law `apply(at(a), diff(a, b)) = at(b)` (§5.3) is
/// checked on every adjacent pair plus the full span; and the derive
/// operators are compared against brute-force set algebra (§6). Panics
/// on any mismatch.
pub fn versions_report() -> VersionsExperimentReport {
    use receipt::version::VersionStore;
    use std::collections::BTreeSet;

    let (family, graph, batches, ops, seed, dirty_threshold) = dynamic_workloads().remove(0);
    let schedule = bigraph::dynamic::seeded_schedule(&graph, batches, ops, seed);
    let options = || EngineOptions {
        config: Config::default().with_partitions(8),
        dirty_threshold,
        verify: false,
        ..EngineOptions::default()
    };

    // Streaming run: checkpoint_every = 0 so the WAL keeps every record
    // and every tag stays inside the §3.4 serviceability window.
    let dir = recover_scratch("versions");
    let (engine, info) = StreamEngine::open_durable(&dir, Some(graph.clone()), options(), 0)
        .unwrap_or_else(|e| panic!("{family} versions init: {e}"));
    assert!(info.created);
    let state_of = |snap: &receipt::engine::EngineSnapshot| {
        (
            snap.total_butterflies(),
            snap.tip_checksum(Side::U),
            snap.tip_checksum(Side::V),
        )
    };
    // Tag v0 at the base, then v{b} after batch b; keep the reference
    // trajectory (state + materialized edge set) alongside.
    let mut store = VersionStore::open(&dir).expect("version store opens");
    let mut reference = Vec::new();
    let mut tag_at_boundary = |engine: &StreamEngine, boundary: usize| {
        let snapshot = engine.snapshot();
        let name = format!("v{boundary}");
        store
            .tag_snapshot(&name, engine.end_lsn().unwrap_or(0), &snapshot)
            .unwrap_or_else(|e| panic!("tag {name}: {e}"));
        let edges: BTreeSet<(u32, u32)> = snapshot.graph().edges().collect();
        reference.push((state_of(&snapshot), edges));
    };
    tag_at_boundary(&engine, 0);
    for (batch_idx, batch) in schedule.iter().enumerate() {
        engine
            .apply_batch(batch)
            .unwrap_or_else(|e| panic!("{family} batch {batch_idx}: {e}"));
        tag_at_boundary(&engine, batch_idx + 1);
    }
    drop(engine);

    // Reload the metadata strictly — what the rows report is what a fresh
    // process would read back, not the in-memory builder.
    let store = VersionStore::open(&dir).expect("versions.meta round trips");
    let tags: Vec<VersionTagRow> = store
        .list()
        .iter()
        .map(|r| VersionTagRow {
            name: r.name.clone(),
            lsn: r.lsn,
            total_butterflies: r.total_butterflies,
            tip_checksum_u: r.tip_checksum_u,
            tip_checksum_v: r.tip_checksum_v,
        })
        .collect();
    assert_eq!(tags.len(), schedule.len() + 1, "one tag per boundary");

    // Time travel: open every tag and hold the engines for the diff-law
    // and derive checks below. Each state must match the trajectory and
    // pass the from-scratch oracle — the experiment's acceptance bar.
    let mut time_travel = Vec::new();
    let mut states = Vec::new();
    for (boundary, row) in tags.iter().enumerate() {
        let t0 = std::time::Instant::now();
        let (historic, tt) = StreamEngine::open_at(&dir, &row.name, options())
            .unwrap_or_else(|e| panic!("open_at {}: {e}", row.name));
        let secs = t0.elapsed().as_secs_f64();
        let got = state_of(&historic.snapshot());
        assert_eq!(got, reference[boundary].0, "time travel to {}", row.name);
        let edges: BTreeSet<(u32, u32)> = historic.snapshot().graph().edges().collect();
        assert_eq!(edges, reference[boundary].1, "{} edge set", row.name);
        historic
            .verify_against_scratch()
            .unwrap_or_else(|e| panic!("oracle at {}: {e}", row.name));
        time_travel.push(TimeTravelRow {
            name: row.name.clone(),
            lsn: row.lsn,
            checkpoint_lsn: tt.checkpoint_lsn,
            replayed: tt.replayed,
            skipped_above: tt.skipped_above,
            matches_reference: true,
            oracle_verified: true,
            time_open_secs: secs,
        });
        states.push(historic);
    }

    // Diff law (§5.3): every adjacent pair, plus the full span v0 → vN.
    let mut pairs: Vec<(usize, usize)> = (1..tags.len()).map(|b| (b - 1, b)).collect();
    pairs.push((0, tags.len() - 1));
    let mut diff_law = Vec::new();
    for (ia, ib) in pairs {
        let (a, b) = (&tags[ia].name, &tags[ib].name);
        let diff = store
            .diff(a, b)
            .unwrap_or_else(|e| panic!("diff({a}, {b}): {e}"));
        let inserts = diff
            .iter()
            .filter(|op| matches!(op, bigraph::EdgeOp::Insert(..)))
            .count();
        let replay = StreamEngine::new(states[ia].snapshot().graph().clone(), options());
        if !diff.is_empty() {
            replay
                .apply_batch(&diff)
                .unwrap_or_else(|e| panic!("apply diff({a}, {b}): {e}"));
        }
        let got = state_of(&replay.snapshot());
        assert_eq!(got, reference[ib].0, "diff law {a} -> {b}");
        let edges: BTreeSet<(u32, u32)> = replay.snapshot().graph().edges().collect();
        assert_eq!(edges, reference[ib].1, "diff law {a} -> {b} edge set");
        diff_law.push(DiffLawRow {
            from: a.clone(),
            to: b.clone(),
            ops: diff.len(),
            inserts,
            deletes: diff.len() - inserts,
            law_holds: true,
        });
    }

    // Derive operators (§6) on the first and last tagged states, checked
    // against brute-force set algebra.
    let ga = states[0].snapshot().graph().clone();
    let gb = states[tags.len() - 1].snapshot().graph().clone();
    let ea: BTreeSet<(u32, u32)> = ga.edges().collect();
    let eb: BTreeSet<(u32, u32)> = gb.edges().collect();

    // Compare the induced subgraph in *global* coordinates: induction
    // reindexes both sides, so map its edges back through the id maps.
    let subset: Vec<u32> = (0..ga.num_u() as u32).step_by(3).collect();
    let keep: BTreeSet<u32> = subset.iter().copied().collect();
    let induced = bigraph::InducedGraph::new(ga.view(Side::U), &subset);
    let brute_subgraph: BTreeSet<(u32, u32)> = ea
        .iter()
        .copied()
        .filter(|&(u, _)| keep.contains(&u))
        .collect();
    let got_subgraph: BTreeSet<(u32, u32)> = induced
        .csr()
        .edges()
        .map(|(u, v)| (induced.primary_global(u), induced.secondary_global(v)))
        .collect();
    assert_eq!(
        got_subgraph, brute_subgraph,
        "induced subgraph vs brute force"
    );

    let union = bigraph::derive::union(&ga, &gb);
    let brute_union: BTreeSet<(u32, u32)> = ea.union(&eb).copied().collect();
    let got_union: BTreeSet<(u32, u32)> = union.edges().collect();
    assert_eq!(got_union, brute_union, "union vs brute force");

    let difference = bigraph::derive::difference(&ga, &gb);
    let brute_difference: BTreeSet<(u32, u32)> = ea.difference(&eb).copied().collect();
    let got_difference: BTreeSet<(u32, u32)> = difference.edges().collect();
    assert_eq!(
        got_difference, brute_difference,
        "difference vs brute force"
    );

    let derive_checks = DeriveChecksRow {
        subgraph_edges: got_subgraph.len(),
        union_edges: got_union.len(),
        difference_edges: got_difference.len(),
        subgraph_matches: true,
        union_matches: true,
        difference_matches: true,
    };

    drop(states);
    let _ = std::fs::remove_dir_all(&dir);

    VersionsExperimentReport {
        family: family.to_string(),
        batches: schedule.len(),
        tags,
        time_travel,
        diff_law,
        derive_checks,
        all_time_travels_verified: true,
    }
}

/// `repro smoke`: seconds-scale deterministic runs on small generated
/// graphs, cross-checked against the sequential (BUP) and naive
/// (wedge-hashing) oracles. This is the workload behind the committed
/// golden snapshot `tests/golden/repro_smoke.json`.
pub fn smoke_report() -> SmokeReport {
    let zipf = bigraph::gen::zipf(400, 200, 1_500, 0.6, 0.9, 11);
    let tip_graphs: Vec<(&str, BipartiteCsr, Side)> = vec![
        (
            "blocks-30x30",
            bigraph::gen::planted_bicliques(30, 30, 2, 4, 4, 60, 5),
            Side::U,
        ),
        ("zipf-400x200", zipf.clone(), Side::U),
        ("zipf-400x200", zipf, Side::V),
    ];
    let cfg = Config::default().with_partitions(8);
    let tip_runs = tip_graphs
        .iter()
        .map(|(name, g, side)| {
            let d = receipt::tip_decompose(g, *side, &cfg);
            let oracle = receipt::bup::bup_decompose(g, *side, cfg.heap_arity);
            SmokeTipRun {
                graph: name.to_string(),
                side: *side,
                config: cfg.clone(),
                num_vertices: d.tip.len(),
                theta_max: d.theta_max(),
                tip: d.tip.clone(),
                butterflies: butterfly::naive::naive_total(g),
                matches_bup: d.tip == oracle.tip,
                metrics: d.metrics.clone(),
            }
        })
        .collect();
    let wing_graphs: Vec<(&str, BipartiteCsr)> = vec![
        (
            "blocks-60x60",
            bigraph::gen::planted_bicliques(60, 60, 3, 4, 4, 120, 9),
        ),
        (
            "zipf-300x150",
            bigraph::gen::zipf(300, 150, 900, 0.5, 0.8, 3),
        ),
    ];
    let wing_runs = wing_graphs
        .iter()
        .map(|(name, g)| {
            let view = g.view(Side::U);
            let seq = receipt::wing::wing_decompose(view, 4);
            let (par, metrics) = receipt::wing_parallel::receipt_wing_decompose(view, 6, 4);
            SmokeWingRun {
                graph: name.to_string(),
                num_edges: g.num_edges(),
                max_wing: par.max_wing(),
                wing: par.wing.clone(),
                matches_sequential: par.wing == seq.wing,
                wing_metrics: metrics,
            }
        })
        .collect();
    SmokeReport {
        tip_runs,
        wing_runs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_labels() {
        let w = workload_by_label("ItU").unwrap();
        assert_eq!(w.label(), "ItU");
        assert_eq!(w.side, Side::U);
        assert!(workload_by_label("XxU").is_none());
        assert!(workload_by_label("U").is_none());
        let w = workload_by_label("tr v").unwrap();
        assert_eq!(w.label(), "TrV");
    }

    #[test]
    fn formatting() {
        assert_eq!(secs(Duration::from_millis(1500)), "1.500");
        assert_eq!(millions(2_500_000), "2.50");
    }

    #[test]
    fn wing_checksum_is_order_and_value_sensitive() {
        assert_eq!(fnv1a_u64(&[]), 0xcbf2_9ce4_8422_2325);
        assert_ne!(fnv1a_u64(&[1, 2, 3]), fnv1a_u64(&[3, 2, 1]));
        assert_ne!(fnv1a_u64(&[1, 2, 3]), fnv1a_u64(&[1, 2, 4]));
        assert_eq!(fnv1a_u64(&[7, 8]), fnv1a_u64(&[7, 8]));
    }

    #[test]
    fn scheduler_report_is_internally_consistent() {
        scheduler_exercise();
        let report = scheduler_report();
        assert_eq!(report.threads, rayon::current_num_threads());
        assert_eq!(report.per_worker_executed.len(), report.workers_spawned);
        assert!(report.steals_succeeded <= report.steals_attempted);
        assert_eq!(
            report.tasks_executed,
            report.helper_executed + report.per_worker_executed.iter().sum::<u64>()
        );
    }
}
