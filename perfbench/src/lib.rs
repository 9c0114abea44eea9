//! `perfbench` — the RECEIPT workspace's end-to-end and per-layer
//! benchmark. See `README.md` beside this crate for what each workload
//! measures and why.
//!
//! Three closed-loop workloads, each driven by one client in one process:
//! [`tip_static`], [`stream_dirty`] and [`serve_topk`]. An untraced run
//! calls only top-level entry points and yields the end-to-end metrics
//! ([`END_TO_END`]); a traced run replays the same inputs through the
//! per-layer public functions inside [`trace`] spans and yields the
//! per-layer metrics ([`PER_LAYER`]).

#![forbid(unsafe_code)]

pub mod gen;
pub mod serve_topk;
pub mod stats;
pub mod stream_dirty;
pub mod tip_static;
pub mod trace;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Worker budget pinned for every workload (the rayon pool, FD workers and
/// the served child's `RAYON_NUM_THREADS`). Two is `nproc` on the machine
/// the benchmark was sized on; at one worker, run medians there were
/// bimodal.
pub const POOL_THREADS: usize = 2;

/// Checkpoint cadence of the durable workloads, in batches.
pub const CHECKPOINT_EVERY: u64 = 16;

/// WAL records past the last checkpoint when a durable run ends: the
/// untraced loop stops only at this phase of the cadence, so every reopen
/// replays the same number of batches whatever the run's length.
pub const REOPEN_TAIL: u64 = 4;

/// The workload names `--workload` accepts.
pub const WORKLOADS: &[&str] = &["tip-static", "stream-dirty", "serve-topk"];

/// End-to-end metrics, reported by every workload with tracing off.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("ok_frac", "frac"),
    ("peak_rss_mb", "MiB"),
    ("apply_p50_ms", "ms"),
    ("reopen_s", "s"),
];

/// Per-layer metrics, reported by every workload's traced run. A layer the
/// workload never calls reports 0. `*.ms` is mean self time per call of
/// the layer's span (per fold for `wal.fold_ms`); counters are totals over
/// the traced run, whose op count is fixed per workload, so they repeat
/// exactly for one seed.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("trace.ops", "count"),
    ("trace.op_p50_ms", "ms"),
    ("trace.overhead_frac", "frac"),
    ("trace.coverage_frac", "frac"),
    ("count.ms", "ms"),
    ("count.wedges", "count"),
    ("cd.ms", "ms"),
    ("cd.wedges", "count"),
    ("cd.sync_rounds", "count"),
    ("cd.recounts", "count"),
    ("cd.compactions", "count"),
    ("fd.ms", "ms"),
    ("fd.wedges", "count"),
    ("fd.partitions", "count"),
    ("rayon.jobs", "count"),
    ("rayon.steals_ok", "count"),
    ("rayon.steal_hit_frac", "frac"),
    ("index.ms", "ms"),
    ("index.work", "count"),
    ("index.dirty_u", "count"),
    ("index.dirty_v", "count"),
    ("index.hit_frac", "frac"),
    ("tip_u.ms", "ms"),
    ("tip_v.ms", "ms"),
    ("tip_u.wedges", "count"),
    ("tip_v.wedges", "count"),
    ("tip_u.dirty_frac", "frac"),
    ("tip_v.dirty_frac", "frac"),
    ("tip.unchanged", "count"),
    ("tip.seeded", "count"),
    ("tip.recompute", "count"),
    ("tip.pair_share", "frac"),
    ("engine.snapshot_ms", "ms"),
    ("engine.build_ms", "ms"),
    ("wal.append_ms", "ms"),
    ("wal.appends", "count"),
    ("wal.bytes", "bytes"),
    ("wal.fold_ms", "ms"),
    ("wal.folds", "count"),
    ("wal.recover_ms", "ms"),
    ("snapshot.topk_ms", "ms"),
    ("cli.handle_topk_ms", "ms"),
    ("cli.handle_apply_ms", "ms"),
    ("cli.encode_ms", "ms"),
    ("cli.ipc_ms", "ms"),
];

/// The generated input graph, in each run's scratch directory.
pub const GRAPH_FILE: &str = "graph.tsv";

/// Engine options of the durable workloads: defaults, with the pinned
/// worker budget.
pub fn engine_options() -> receipt::engine::EngineOptions {
    receipt::engine::EngineOptions {
        config: receipt::Config::default().with_threads(POOL_THREADS),
        ..Default::default()
    }
}

/// Where and with what a run works.
#[derive(Debug, Clone)]
pub struct Ctx {
    pub seed: u64,
    /// Minimum measuring time of the untraced op loop.
    pub seconds: f64,
    /// Scratch directory of this run: generated inputs, stores, sockets.
    pub dir: PathBuf,
    /// The `tipdecomp` executable (`tip-static` reopens through it,
    /// `serve-topk` serves with it).
    pub tipdecomp: PathBuf,
}

impl Ctx {
    pub fn path(&self, name: &str) -> PathBuf {
        self.dir.join(name)
    }
}

/// Largest share of vCPU time the host may steal (see
/// [`stats::StealMeter`]) while an op, a stretch of ops timed together, or
/// a side measurement runs, for its time to count. Steal is time the
/// hypervisor ran other guests on this machine's vCPUs; a decomposition
/// that loses one of its two vCPUs waits for it at every CD round. On the
/// 2-vCPU machine the benchmark was sized on, a calm 0.1-s op has at most
/// one of its ~20 ticks stolen, and 0–7% of ops lose more.
pub const MAX_STEAL: f64 = 0.05;

/// Wall time the op loop may take, side measurements aside, as a multiple
/// of `--seconds` (and at least [`MIN_DEADLINE_S`]), while host steal
/// keeps it from filling its window. Past it the window closes as soon as
/// its floors are met, and disturbed measurements count towards them, so a
/// long steal episode lengthens a run by at most half its window instead
/// of failing it.
pub const DEADLINE_FACTOR: f64 = 1.5;
pub const MIN_DEADLINE_S: f64 = 30.0;

/// The measuring window of an untraced op loop. It fills with the op time
/// of undisturbed ops only: ops the host stole more than [`MAX_STEAL`]
/// from are checked but not timed, and the loop runs on, up to the
/// deadline. Side measurements (set-ups, reopens) are spread evenly across
/// it, so their medians see the same machine conditions as the ops instead
/// of a few seconds at one end of the run; a disturbed one is retaken at
/// the next due point.
#[derive(Debug)]
pub struct Window {
    start: Instant,
    /// Wall time spent in [`Window::measure`], which the deadline leaves
    /// out.
    side_secs: f64,
    run_steal: stats::StealMeter,
    seconds: f64,
    side_reps: usize,
    side_done: usize,
    /// Floor of kept op stretches (ops, or `serve-topk` cycles).
    min_kept: usize,
    kept: usize,
    clean_secs: f64,
    disturbed_ops: u64,
    disturbed_sides: u64,
    /// Disturbed measurements counted because the deadline had passed.
    kept_disturbed: u64,
}

impl Window {
    pub fn new(seconds: f64, side_reps: usize, min_kept: usize) -> Self {
        Window {
            start: Instant::now(),
            side_secs: 0.0,
            run_steal: stats::StealMeter::start(),
            seconds,
            side_reps,
            side_done: 0,
            min_kept,
            kept: 0,
            clean_secs: 0.0,
            disturbed_ops: 0,
            disturbed_sides: 0,
            kept_disturbed: 0,
        }
    }

    /// More ops are needed: fewer than the floor were kept, or, before the
    /// deadline, undisturbed op time has not yet filled the window.
    pub fn measuring(&self) -> bool {
        self.kept < self.min_kept || (self.clean_secs < self.seconds && !self.overdue())
    }

    /// Side measurements still to take.
    pub fn side_pending(&self) -> bool {
        self.side_done < self.side_reps
    }

    /// The next side measurement is due: side measurement `i` falls at op
    /// time `(i + 1/2) / side_reps` of the window, and every one still
    /// pending is due once the deadline has passed.
    pub fn side_due(&self) -> bool {
        self.side_pending()
            && (self.overdue()
                || self.clean_secs
                    >= self.seconds * (self.side_done as f64 + 0.5) / self.side_reps as f64)
    }

    /// Whether a measurement timed since `steal` started counts: the host
    /// left it alone, or the deadline has passed.
    fn counts(&mut self, steal: stats::StealMeter) -> bool {
        if steal.share() <= MAX_STEAL {
            return true;
        }
        let overdue = self.overdue();
        self.kept_disturbed += u64::from(overdue);
        overdue
    }

    /// Settles `ops` ops, taking `op_ms` together, timed since `steal`
    /// started: true when their latencies count.
    pub fn keep(&mut self, steal: stats::StealMeter, ops: u64, op_ms: f64) -> bool {
        if self.counts(steal) {
            self.kept += 1;
            self.clean_secs += op_ms / 1e3;
            return true;
        }
        self.disturbed_ops += ops;
        false
    }

    /// Runs `f` under a steal meter: its output, and whether the times it
    /// took count.
    pub fn measure<R>(
        &mut self,
        f: impl FnOnce() -> Result<R, String>,
    ) -> Result<(R, bool), String> {
        let steal = stats::StealMeter::start();
        let t0 = Instant::now();
        let out = f()?;
        self.side_secs += t0.elapsed().as_secs_f64();
        let counts = self.counts(steal);
        self.disturbed_sides += u64::from(!counts);
        Ok((out, counts))
    }

    /// One side measurement, outside the op time; it is taken once it
    /// counts.
    pub fn side<R>(&mut self, f: impl FnOnce() -> Result<R, String>) -> Result<(R, bool), String> {
        let (out, counts) = self.measure(f)?;
        self.side_done += usize::from(counts);
        Ok((out, counts))
    }

    fn overdue(&self) -> bool {
        self.start.elapsed().as_secs_f64() - self.side_secs
            > (DEADLINE_FACTOR * self.seconds).max(MIN_DEADLINE_S)
    }

    /// The run's steal facts, for the environment block.
    pub fn report(&self, samples: &mut BTreeMap<&'static str, f64>) {
        samples.insert("steal_share", self.run_steal.share());
        samples.insert("window_s", self.clean_secs);
        samples.insert("disturbed_ops", self.disturbed_ops as f64);
        samples.insert("disturbed_sides", self.disturbed_sides as f64);
        samples.insert("kept_disturbed", self.kept_disturbed as f64);
    }
}

/// Records a failed check: the run stays correct while `problems` is
/// empty.
pub fn check(problems: &mut Vec<String>, ok: bool, what: impl FnOnce() -> String) {
    if !ok {
        problems.push(what());
    }
}

/// What an untraced run measured and checked.
#[derive(Debug, Clone, Default)]
pub struct Untraced {
    /// Timed ops attempted and ops whose output failed its check.
    pub attempted: u64,
    pub failed: u64,
    /// Every [`END_TO_END`] metric, by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Sample counts and workload facts printed beside the metrics.
    pub samples: BTreeMap<&'static str, f64>,
    /// Failed checks; the run is correct when there are none.
    pub problems: Vec<String>,
    /// State after the first `trace_ops` ops, which the traced run must
    /// reproduce (workloads with durable state).
    pub trace_end: Option<EndState>,
}

/// What a traced run measured.
#[derive(Debug, Default)]
pub struct Traced {
    /// Where the traced run's outputs or end state differ from the
    /// untraced run's; empty when they match.
    pub problems: Vec<String>,
    pub layers: BTreeMap<&'static str, f64>,
    pub tracer: trace::Tracer,
    /// Untraced latency (ms) of the same op on a twin of the traced state,
    /// taken right before each traced op: the baseline of
    /// `trace.overhead_frac`, measured in the same seconds as the traced
    /// ops so machine drift cancels.
    pub baseline_ms: Vec<f64>,
    /// Work-stealing scheduler activity during the traced ops only.
    pub rayon: RayonActivity,
}

impl Traced {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "{name} is not a per-layer metric"
        );
        self.layers.insert(name, value);
    }

    /// Every span's mean self time, stored under `metric`.
    pub fn set_self_ms(&mut self, metric: &'static str, span: &str) {
        let v = self
            .tracer
            .totals()
            .get(span)
            .map_or(0.0, trace::Totals::self_ms);
        self.set(metric, v);
    }

    /// The metrics shared by every workload: traced op p50 against the
    /// paired untraced baseline, how much of the op the layer spans cover,
    /// and the scheduler's activity.
    pub fn set_trace_summary(&mut self) {
        let durations = self.tracer.durations_ms("op");
        let p50 = stats::median(&durations);
        let baseline = stats::median(&self.baseline_ms);
        self.set("trace.ops", durations.len() as f64);
        self.set("trace.op_p50_ms", p50);
        self.set("trace.overhead_frac", ratio(p50, baseline) - 1.0);
        self.set("trace.coverage_frac", self.tracer.coverage("op"));
        let RayonActivity {
            jobs,
            attempted,
            stolen,
        } = self.rayon;
        self.set("rayon.jobs", jobs as f64);
        self.set("rayon.steals_ok", stolen as f64);
        self.set(
            "rayon.steal_hit_frac",
            ratio(stolen as f64, attempted as f64),
        );
    }
}

/// Scheduler counters summed over the calls made through
/// [`RayonActivity::during`].
#[derive(Debug, Clone, Copy, Default)]
pub struct RayonActivity {
    pub jobs: u64,
    pub attempted: u64,
    pub stolen: u64,
}

impl RayonActivity {
    pub fn during<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let before = rayon::scheduler_stats();
        let out = f();
        let after = rayon::scheduler_stats();
        self.jobs += after.jobs_submitted - before.jobs_submitted;
        self.attempted += after.steals_attempted - before.steals_attempted;
        self.stolen += after.steals_succeeded - before.steals_succeeded;
        out
    }
}

/// The state a traced run must share with the untraced run after the same
/// ops: tip checksum per side, total butterflies and WAL end LSN.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EndState {
    pub tip_u: u64,
    pub tip_v: u64,
    pub butterflies: u64,
    pub lsn: u64,
}

impl EndState {
    pub fn of(snapshot: &receipt::engine::EngineSnapshot, lsn: u64) -> Self {
        EndState {
            tip_u: snapshot.tip_checksum(bigraph::Side::U),
            tip_v: snapshot.tip_checksum(bigraph::Side::V),
            butterflies: snapshot.total_butterflies(),
            lsn,
        }
    }
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Reads a generated KONECT file back through the program's own loader.
pub fn read_graph(path: &Path) -> Result<bigraph::BipartiteCsr, String> {
    bigraph::io::read_graph_path(path).map_err(|e| e.to_string())
}
