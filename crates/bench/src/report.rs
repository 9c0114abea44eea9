//! Structured result documents for the `repro` harness (`repro <exp>
//! --json`).
//!
//! Same conventions as [`receipt::report`]: a `schema_version`/`kind`
//! envelope, timing fields named `time_*` so
//! [`receipt::report::scrub_timings`] canonicalizes them, and everything
//! else machine-independent so two runs of the same binary diff clean.

use bigraph::Side;
use receipt::wing_parallel::WingMetrics;
use receipt::{Config, Metrics};
use serde::{Deserialize, Serialize};

/// One `repro` invocation. Exactly one experiment section is populated;
/// the others stay `null`. Every JSON experiment additionally carries a
/// [`SchedulerReport`] snapshot taken after the experiment ran.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReproReport {
    pub schema_version: u32,
    /// Always `"repro"`.
    pub kind: String,
    /// The experiment argument (`table2`, `table3`, `wing`, `smoke`).
    pub experiment: String,
    pub table2: Option<Vec<Table2Row>>,
    pub table3: Option<Vec<Table3Row>>,
    pub wing: Option<Vec<WingRow>>,
    pub dynamic: Option<Vec<DynamicRow>>,
    pub serve: Option<ServeExperimentReport>,
    pub recover: Option<RecoverExperimentReport>,
    pub versions: Option<VersionsExperimentReport>,
    pub smoke: Option<SmokeReport>,
    /// Cumulative work-stealing scheduler counters at the end of the run.
    /// Nondeterministic (OS-scheduling-dependent), so snapshot/diff
    /// consumers scrub it via `receipt::report::scrub_scheduler`; the CI
    /// scheduler gate (`repro check-sched`) asserts on it instead.
    pub scheduler: Option<SchedulerReport>,
}

impl ReproReport {
    pub fn new(experiment: impl Into<String>) -> Self {
        ReproReport {
            schema_version: receipt::report::SCHEMA_VERSION,
            kind: "repro".to_string(),
            experiment: experiment.into(),
            table2: None,
            table3: None,
            wing: None,
            dynamic: None,
            serve: None,
            recover: None,
            versions: None,
            smoke: None,
            scheduler: None,
        }
    }
}

/// Snapshot of the vendored rayon pool's work-stealing scheduler counters
/// (`rayon::scheduler_stats()`), cumulative over the process. This is what
/// makes thread-scaling runs machine-checkable: CI parses it from
/// `repro smoke --json` and gates on steal activity instead of eyeballing
/// `time` output.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SchedulerReport {
    pub schema_version: u32,
    /// Ambient parallelism budget of the run (`RAYON_NUM_THREADS` or the
    /// machine default) — what the CI gate keys its expectations on.
    pub threads: usize,
    /// OS worker threads the pool spawned (`total_workers_spawned()`).
    pub workers_spawned: usize,
    /// Jobs handed to the scheduler (inline fast-path work not included).
    pub jobs_submitted: u64,
    /// Jobs finished; equals `jobs_submitted` at exit (the process is
    /// quiescent when the report is built) — `check-sched` asserts it.
    pub tasks_executed: u64,
    /// Jobs executed by non-worker threads helping while blocked.
    pub helper_executed: u64,
    /// Jobs executed by each pool worker, indexed by worker id.
    pub per_worker_executed: Vec<u64>,
    /// External submissions pushed to the shared injector queue.
    pub injector_pushes: u64,
    /// Jobs checked out of the injector.
    pub injector_pops: u64,
    /// Victim deques probed during steal scans.
    pub steals_attempted: u64,
    /// Jobs actually taken from another worker's deque.
    pub steals_succeeded: u64,
    /// Park-timeout wakeups that found no pending work and re-parked
    /// without scanning. Wall-clock-dependent (a function of how long the
    /// pool sat idle), so scrubbed alongside the other scheduler fields;
    /// `check-sched` only sanity-checks it, never pins a value.
    pub idle_timeouts: u64,
}

/// Table 2: per-dataset statistics.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Table2Row {
    pub name: String,
    pub num_u: usize,
    pub num_v: usize,
    pub num_edges: usize,
    pub avg_degree_u: f64,
    pub avg_degree_v: f64,
    pub butterflies: u64,
    /// Wedges with endpoints on either side, summed.
    pub wedges: u64,
    pub theta_max_u: u64,
    pub theta_max_v: u64,
}

/// Table 3: one workload × all algorithms.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Table3Row {
    pub workload: String,
    pub time_pvbcnt_secs: f64,
    pub time_bup_secs: f64,
    pub time_parb_secs: f64,
    pub time_receipt_secs: f64,
    /// `peel_live` from BUP's counts; like `time_bup_secs`, the peel only.
    pub time_peel_live_secs: f64,
    pub wedges_bup: u64,
    pub wedges_receipt: u64,
    /// `peel_live`'s wedges; like `wedges_bup`, counting plus peel.
    pub wedges_peel_live: u64,
    pub wedges_pvbcnt: u64,
    pub rounds_parb: u64,
    pub rounds_receipt: u64,
    /// `r = ∧_peel / ∧_cnt` (§5.2.2).
    pub peel_to_count_ratio: f64,
    /// RECEIPT, ParB and `peel_live` agreed with BUP (asserted during the
    /// run; recorded for differential consumers).
    pub tips_match: bool,
}

/// §7 wing extension: sequential vs RECEIPT-style parallel.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WingRow {
    pub graph: String,
    pub num_edges: usize,
    pub time_seq_secs: f64,
    pub time_par_secs: f64,
    pub work_seq: u64,
    pub work_par: u64,
    pub sync_rounds: u64,
    pub max_wing: u64,
    pub wings_match: bool,
    /// FNV-1a digest of the parallel run's wing numbers, in edge order.
    /// Lets `repro check-threads` compare the full decomposition across
    /// thread counts without embedding tens of thousands of values.
    pub wing_checksum: u64,
}

/// One batch of the `repro dynamic` experiment: incremental maintenance
/// cost vs the cost of recounting + re-peeling from scratch, with the
/// differential equalities recorded (and asserted during the run).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DynamicRow {
    pub family: String,
    /// 0-based batch index within the family's schedule.
    pub batch: usize,
    pub inserted: usize,
    pub deleted: usize,
    pub butterflies_gained: u64,
    pub butterflies_lost: u64,
    pub total_butterflies: u64,
    /// Intersection steps the incremental counter spent on the batch.
    pub update_work: u64,
    /// Wedges a from-scratch pipeline (Algorithm 1 recount + BUP peel)
    /// traverses on the materialized graph — what the batch avoided.
    pub recount_work: u64,
    /// Tip-update policy the dirty-fraction heuristic chose.
    pub policy: receipt::dynamic::UpdatePolicy,
    pub dirty_fraction: f64,
    pub theta_max: u64,
    /// FNV-1a digest of the maintained tip numbers after the batch.
    pub tip_checksum: u64,
    /// Maintained per-vertex + per-edge counts equal a from-scratch
    /// recount (asserted during the run).
    pub counts_match_recount: bool,
    /// Maintained tips equal `bup_decompose` on the materialized graph.
    pub tips_match_bup: bool,
    pub time_update_secs: f64,
    pub time_recount_secs: f64,
}

/// The `repro serve` experiment: a scripted mixed read/update session
/// against an in-process [`receipt::engine::StreamEngine`] — one writer
/// thread applies a seeded batch schedule (every batch differentially
/// verified) while reader threads hammer point queries against the
/// published snapshots. The per-epoch rows are machine-independent (the
/// decomposition trajectory does not depend on reader interleaving); the
/// throughput side lives in [`ServeTelemetry`], which
/// `receipt::report::scrub_scheduler` nulls for snapshot/diff consumers.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServeExperimentReport {
    pub family: String,
    /// Concurrent reader threads querying while the writer applied batches.
    pub readers: usize,
    pub batches: Vec<ServeBatchRow>,
    /// Final state passed `verify_against_scratch` after the session.
    pub final_verified: bool,
    pub final_epoch: u64,
    pub final_total_butterflies: u64,
    /// Nondeterministic throughput counters (reader-interleaving- and
    /// machine-dependent) — scrubbed by `scrub_scheduler`, asserted on by
    /// the run itself instead.
    pub serve_telemetry: Option<ServeTelemetry>,
}

/// One verified batch of the `repro serve` writer, keyed by the epoch it
/// published. Everything here must be identical across thread counts.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServeBatchRow {
    pub epoch: u64,
    pub inserted: usize,
    pub deleted: usize,
    pub butterflies_gained: u64,
    pub butterflies_lost: u64,
    pub total_butterflies: u64,
    pub theta_max_u: u64,
    pub theta_max_v: u64,
    pub tip_checksum_u: u64,
    pub tip_checksum_v: u64,
    pub time_update_secs: f64,
    pub time_verify_secs: f64,
}

/// Reader-side throughput of one `repro serve` session.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServeTelemetry {
    /// Snapshot-grab-plus-query rounds completed across all readers.
    pub reads_total: u64,
    pub reads_per_reader: Vec<u64>,
    /// Distinct epochs readers observed (≥ 1; ≤ batches + 1).
    pub epochs_observed: usize,
    /// Reader consistency checks that failed (must be 0; also asserted).
    pub inconsistencies: u64,
    pub time_session_secs: f64,
    pub reads_per_sec: f64,
}

/// The `repro recover` experiment: the durability crash matrix. An
/// uninterrupted durable run of a seeded batch schedule records the
/// per-epoch reference trajectory; then, for every batch boundary, the
/// store is cloned with its WAL cut at that boundary (simulating a crash)
/// and recovered, and the recovered state is required to equal the
/// reference state at the boundary AND pass the from-scratch oracle. A
/// checkpoint-fold run and the binary-vs-text load-cost comparison ride
/// along. Everything except the `time_*_secs` fields is deterministic.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RecoverExperimentReport {
    pub family: String,
    /// Batches in the reference schedule (= WAL records = boundaries).
    pub batches: usize,
    pub crash_matrix: Vec<CrashRow>,
    pub checkpoint_fold: CheckpointFoldRow,
    pub load_cost: Vec<LoadCostRow>,
    /// Every crash-matrix and fold recovery passed `verify_against_scratch`
    /// and matched the reference trajectory (also asserted during the run).
    pub all_recoveries_verified: bool,
}

/// One simulated crash + recovery. `kind` is where the crash hit:
/// `kill-after-append` (WAL record durable, crash before the in-memory
/// apply), `kill-after-apply` (crash after apply but before anything
/// else — on disk these are the same bytes, so both must recover to the
/// post-batch state), or `torn-append` (crash mid-write: the final record
/// is incomplete, recovery truncates it and lands on the previous batch).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CrashRow {
    pub kind: String,
    /// 1-based batch boundary (= LSN of the record the cut lands in).
    pub boundary: usize,
    /// Committed records the recovery found in the cut WAL.
    pub wal_records: usize,
    pub replayed: usize,
    /// Recovery truncated a torn tail.
    pub repaired: bool,
    pub discarded_bytes: u64,
    pub total_butterflies: u64,
    pub tip_checksum_u: u64,
    pub tip_checksum_v: u64,
    /// Recovered checksums equal the uninterrupted run's at the expected
    /// epoch (asserted during the run).
    pub matches_reference: bool,
    /// `verify_against_scratch` passed on the recovered engine.
    pub oracle_verified: bool,
    pub time_recover_secs: f64,
}

/// Recovery of a run that folded periodic checkpoints: only the records
/// past the last fold replay, and the result still matches the reference.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CheckpointFoldRow {
    pub checkpoint_every: u64,
    pub batches: usize,
    /// LSN the last fold pinned (records at or below it are in the base).
    pub checkpoint_lsn: u64,
    pub replayed: usize,
    pub skipped: usize,
    pub matches_reference: bool,
    pub oracle_verified: bool,
    pub time_recover_secs: f64,
}

/// Binary (`.bgr`) vs text edge-list load cost for one graph: bytes on
/// disk and parse time, with the round trip checked for equality.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LoadCostRow {
    pub graph: String,
    pub num_edges: usize,
    pub text_bytes: u64,
    pub binary_bytes: u64,
    /// The binary image decoded to the identical graph (asserted).
    pub round_trip_identical: bool,
    pub time_text_load_secs: f64,
    pub time_binary_load_secs: f64,
}

/// `repro versions`: the graph-versioning experiment (`VERSIONING.md`).
///
/// The zipf dynamic schedule is streamed through a durable store with
/// checkpoint folding disabled (so every tag stays serviceable, §3.4) and
/// a version is tagged at every batch boundary. Then every tag is
/// time-travelled to with [`receipt::version`]'s `open_at` and the
/// materialized state is required to equal the reference trajectory AND
/// pass the from-scratch oracle; `diff(a, b)` applied to `at(a)` must
/// equal `at(b)` (§5); and the derive operators are compared against
/// brute-force set algebra (§6). Everything except the `time_*_secs`
/// fields is deterministic.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VersionsExperimentReport {
    pub family: String,
    /// Batches in the schedule (one tag per boundary, plus the `v0` base).
    pub batches: usize,
    /// The tags as recorded in `versions.meta`, in LSN order.
    pub tags: Vec<VersionTagRow>,
    pub time_travel: Vec<TimeTravelRow>,
    pub diff_law: Vec<DiffLawRow>,
    pub derive_checks: DeriveChecksRow,
    /// Every time-travel state matched the reference trajectory and passed
    /// `verify_against_scratch` (also asserted during the run).
    pub all_time_travels_verified: bool,
}

/// One named version as tagged during the streaming run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VersionTagRow {
    pub name: String,
    pub lsn: u64,
    pub total_butterflies: u64,
    pub tip_checksum_u: u64,
    pub tip_checksum_v: u64,
}

/// One `open_at` time travel to a tagged version. `replayed` is the tag
/// distance in WAL records — the replay-cost-vs-tag-distance data point
/// (`EXPERIMENTS.md`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TimeTravelRow {
    pub name: String,
    pub lsn: u64,
    pub checkpoint_lsn: u64,
    /// WAL records replayed to reach the tag (= tag distance from base).
    pub replayed: usize,
    /// Committed records past the tag that were skipped.
    pub skipped_above: usize,
    /// Recovered butterflies + both tip checksums equal the reference
    /// trajectory's at this boundary (asserted during the run).
    pub matches_reference: bool,
    /// `verify_against_scratch` passed on the time-travelled engine.
    pub oracle_verified: bool,
    pub time_open_secs: f64,
}

/// One check of the diff law `apply(at(a), diff(a, b)) = at(b)`
/// (`VERSIONING.md` §5.3).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DiffLawRow {
    pub from: String,
    pub to: String,
    /// Ops in the materialized diff (last-op-per-edge, so at most one per
    /// touched edge).
    pub ops: usize,
    pub inserts: usize,
    pub deletes: usize,
    /// Applying the diff to `at(from)` produced a state with the same edge
    /// set, butterfly count, and tip checksums as `at(to)` (asserted).
    pub law_holds: bool,
}

/// Derive operators (`VERSIONING.md` §6) cross-checked against brute-force
/// set algebra on the first and last tagged states.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeriveChecksRow {
    pub subgraph_edges: usize,
    pub union_edges: usize,
    pub difference_edges: usize,
    /// Each operator's edge set equalled the brute-force construction
    /// (asserted during the run).
    pub subgraph_matches: bool,
    pub union_matches: bool,
    pub difference_matches: bool,
}

/// `repro smoke`: small deterministic runs cross-checked against the
/// sequential/naive oracles — the CI golden-snapshot workload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SmokeReport {
    pub tip_runs: Vec<SmokeTipRun>,
    pub wing_runs: Vec<SmokeWingRun>,
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SmokeTipRun {
    pub graph: String,
    pub side: Side,
    pub config: Config,
    pub num_vertices: usize,
    pub theta_max: u64,
    pub tip: Vec<u64>,
    /// Total butterflies per the naive wedge-hashing oracle.
    pub butterflies: u64,
    /// RECEIPT tips equal sequential bottom-up peeling.
    pub matches_bup: bool,
    pub metrics: Metrics,
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SmokeWingRun {
    pub graph: String,
    pub num_edges: usize,
    pub max_wing: u64,
    pub wing: Vec<u64>,
    /// Parallel wing numbers equal the sequential peel.
    pub matches_sequential: bool,
    pub wing_metrics: WingMetrics,
}
