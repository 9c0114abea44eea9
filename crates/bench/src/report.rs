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
    /// The experiment argument (`table2`, `table3`, `wing`, `dynamic`,
    /// `smoke`).
    pub experiment: String,
    pub table2: Option<Vec<Table2Row>>,
    pub table3: Option<Vec<Table3Row>>,
    pub wing: Option<Vec<WingRow>>,
    pub dynamic: Option<Vec<DynamicRow>>,
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
