//! `stream-dirty`: one durable `StreamEngine::apply_batch` per op.
//!
//! Each batch holds 4 seeded ops (60% inserts, 40% deletes of present
//! edges) on an It-shaped graph; the WAL fsyncs every append and a
//! checkpoint folds every [`CHECKPOINT_EVERY`] batches. Nearly every batch
//! dirties a few vertices and re-peels a whole side, so this workload
//! carries the dynamic path's main lever; CD/FD, the snapshot read path and
//! the wire protocol are nearly absent from it.

use crate::gen::{self, Rng, Shape, UpdateSchedule};
use crate::stats::{self, ms, CpuRotation, StealMeter};
use crate::trace::Tracer;
use crate::{
    check, engine_options, read_graph, Ctx, EndState, Traced, Untraced, Window, CHECKPOINT_EVERY,
    GRAPH_FILE, POOL_THREADS, REOPEN_TAIL,
};
use bigraph::{BipartiteCsr, Side};
use butterfly::DynamicButterflyIndex;
use receipt::dynamic::{fnv1a_u64, DynamicTipState, TipUpdate, UpdatePolicy};
use receipt::engine::StreamEngine;
use receipt::wal::{DurableLog, Store};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Params {
    pub shape: Shape,
    pub ops_per_batch: usize,
    /// Set-up + reopen pairs spread over the loop (one more set-up
    /// precedes it).
    pub side_reps: usize,
    pub min_ops: usize,
    pub max_ops: usize,
    pub trace_ops: usize,
}

impl Params {
    pub fn full() -> Self {
        Params {
            shape: gen::IT_STREAM,
            ops_per_batch: 4,
            side_reps: 10,
            min_ops: 100,
            max_ops: 2_004,
            trace_ops: 100,
        }
    }

    pub fn reduced() -> Self {
        Params {
            shape: Shape {
                nu: 600,
                nv: 60,
                m: 2_400,
                ..gen::IT_STREAM
            },
            ops_per_batch: 4,
            side_reps: 1,
            min_ops: 20,
            max_ops: 20,
            trace_ops: 20,
        }
    }
}

fn schedule(ctx: &Ctx, p: &Params) -> (gen::Graph, UpdateSchedule) {
    let graph = gen::zipf_graph(&p.shape, &mut Rng::stream(ctx.seed, "stream-dirty/graph"));
    let schedule = UpdateSchedule::new(
        &graph,
        p.ops_per_batch,
        Rng::stream(ctx.seed, "stream-dirty/schedule"),
    );
    (graph, schedule)
}

fn policy_pair(u: &TipUpdate, v: &TipUpdate) -> (&'static str, &'static str) {
    (u.policy.as_str(), v.policy.as_str())
}

/// Share of batches whose (U, V) policy pair is the most common one.
fn top_pair_share(pairs: &BTreeMap<(&'static str, &'static str), u64>) -> f64 {
    let total: u64 = pairs.values().sum();
    let top = pairs.values().copied().max().unwrap_or(0);
    crate::ratio(top as f64, total as f64)
}

fn open(dir: &Path, init: Option<BipartiteCsr>) -> Result<StreamEngine, String> {
    StreamEngine::open_durable(dir, init, engine_options(), CHECKPOINT_EVERY)
        .map(|(engine, _)| engine)
}

fn end_state(engine: &StreamEngine) -> EndState {
    EndState::of(&engine.snapshot(), engine.end_lsn().unwrap_or(0))
}

pub fn run(ctx: &Ctx, p: &Params) -> Result<Untraced, String> {
    parutil::with_pool(POOL_THREADS, || run_pinned(ctx, p))
}

fn run_pinned(ctx: &Ctx, p: &Params) -> Result<Untraced, String> {
    let (graph, mut schedule) = schedule(ctx, p);
    let path = ctx.path(GRAPH_FILE);
    graph
        .write_konect(&path)
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    drop(graph);
    let initial = read_graph(&path)?;
    let mut out = Untraced::default();
    stats::reset_peak_rss();
    let mut window = Window::new(ctx.seconds, p.side_reps, p.min_ops);

    // Set-up: `open_durable` on an empty directory — store init, full
    // count, both sides' initial peels, the epoch-0 snapshot. The first
    // one serves the stream; the others are taken with the reopens.
    let set_up = |store: &Path| -> Result<(StreamEngine, f64), String> {
        let g = initial.clone();
        let t0 = Instant::now();
        let engine = open(store, Some(g))?;
        Ok((engine, t0.elapsed().as_secs_f64()))
    };
    let (mut setups, mut reopens) = (Vec::new(), Vec::new());
    let store = ctx.path("store");
    let ((mut engine, secs), clean) = window.measure(|| set_up(&store))?;
    if clean {
        setups.push(secs);
    }

    // The batches' re-peel is sequential, and so are the peels of a
    // set-up or reopen: each batch runs on the next vCPU, and set-ups and
    // reopens alternate between vCPUs from one side measurement to the
    // next, so the run's medians read every vCPU's speed, not the one the
    // kernel chose.
    let mut rotation = CpuRotation::new();

    // Side measurement, at checkpoint phases spread over the loop: the
    // live engine is closed, a fresh one is set up on an empty store of
    // its own and closed (one engine is alive at a time), and the live
    // store is recovered — checkpoint load, replay of the REOPEN_TAIL
    // records past it, engine rebuild. The stream continues on the
    // recovered engine.
    let mut rep = 0;
    let mut side = |engine: StreamEngine,
                    window: &mut Window,
                    rotation: &mut CpuRotation,
                    problems: &mut Vec<String>|
     -> Result<StreamEngine, String> {
        rep += 1;
        let before = end_state(&engine);
        drop(engine);
        let ((setup, engine, reopen), clean) = window.side(|| {
            rotation.visit(rep);
            let (fresh, setup) = set_up(&ctx.path(&format!("store{rep}")))?;
            drop(fresh);
            rotation.visit(rep + 1);
            let t0 = Instant::now();
            let engine = open(&store, None)?;
            Ok((setup, engine, t0.elapsed().as_secs_f64()))
        })?;
        if clean {
            setups.push(setup);
            reopens.push(reopen);
        }
        let after = end_state(&engine);
        check(problems, after == before, || {
            format!("reopened {after:?} != {before:?}")
        });
        Ok(engine)
    };

    let mut latencies = Vec::new();
    let mut ok = 0u64;
    let mut pairs: BTreeMap<(&'static str, &'static str), u64> = BTreeMap::new();
    let mut n = 0u64;
    let at_phase = |n: u64| n % CHECKPOINT_EVERY == REOPEN_TAIL;
    while (window.measuring() || window.side_pending() || !at_phase(n)) && (n as usize) < p.max_ops
    {
        let batch = schedule.next_batch();
        rotation.advance();
        let steal = StealMeter::start();
        let t0 = Instant::now();
        let result = engine.apply_batch(&batch);
        let latency = ms(t0.elapsed());
        n += 1;
        if window.keep(steal, 1, latency) {
            latencies.push(latency);
        }
        match result {
            Ok(outcome) => {
                ok += u64::from(outcome.lsn == Some(n) && outcome.checkpoint_error.is_none());
                *pairs
                    .entry(policy_pair(&outcome.update_u, &outcome.update_v))
                    .or_default() += 1;
                if n == p.trace_ops as u64 {
                    out.trace_end = Some(EndState::of(&outcome.snapshot, n));
                }
            }
            Err(e) => out.problems.push(format!("batch {n}: {e}")),
        }
        if at_phase(n) && window.side_due() {
            engine = side(engine, &mut window, &mut rotation, &mut out.problems)?;
        }
    }
    while window.side_pending() {
        engine = side(engine, &mut window, &mut rotation, &mut out.problems)?;
    }
    let peak_rss = stats::peak_rss_mb(None).unwrap_or(0.0);

    if let Err(e) = engine.verify_against_scratch() {
        ok = 0;
        out.problems
            .push(format!("final state diverged from the oracles: {e}"));
    }

    let p50 = stats::median(&latencies);
    out.attempted = n;
    let failed = out.attempted - ok;
    out.failed = failed;
    check(&mut out.problems, failed == 0, || {
        format!("{failed} batches failed")
    });
    out.metrics.insert("setup_s", stats::median(&setups));
    out.metrics.insert("op_p50_ms", p50);
    out.metrics
        .insert("op_p90_ms", stats::quantile(&latencies, 0.9));
    out.metrics
        .insert("ok_frac", ok as f64 / out.attempted as f64);
    out.metrics.insert("peak_rss_mb", peak_rss);
    // Every op here is a write batch.
    out.metrics.insert("apply_p50_ms", p50);
    out.metrics.insert("reopen_s", stats::median(&reopens));
    out.samples.insert("ops", latencies.len() as f64);
    out.samples.insert("setup_reps", setups.len() as f64);
    out.samples.insert("reopen_reps", reopens.len() as f64);
    out.samples
        .insert("policy_pair_share", top_pair_share(&pairs));
    out.samples.insert("rotated_cpus", rotation.cpus() as f64);
    window.report(&mut out.samples);
    Ok(out)
}

/// Builds what `StreamEngine` publishes after a batch, the way
/// `EngineCore::snapshot` builds it — the materialized graph, per-edge
/// counts by `edge_count`, copies of the per-vertex counts and tips — and
/// returns the graph, which the checkpoint fold takes.
fn publish(
    index: &DynamicButterflyIndex,
    u: &DynamicTipState,
    v: &DynamicTipState,
) -> BipartiteCsr {
    let graph = index.materialize();
    let edge_counts: Vec<u64> = graph.edges().map(|(a, b)| index.edge_count(a, b)).collect();
    std::hint::black_box((
        edge_counts,
        index.counts_side(Side::U).to_vec(),
        index.counts_side(Side::V).to_vec(),
        u.tip().to_vec(),
        v.tip().to_vec(),
    ));
    graph
}

/// Replays the first `trace_ops` batches on a fresh store, driving the
/// layers in the order `StreamEngine::apply_batch_inner` does:
/// `DurableLog::append`, `DynamicButterflyIndex::apply_batch`,
/// `DynamicTipState::update` for U then V, the snapshot build, and
/// `DurableLog::maybe_checkpoint`. Each traced batch follows the same
/// batch applied untraced to a twin `open_durable` engine on a store of
/// its own, the overhead baseline. The traced store is then recovered as
/// `open_durable` does it: `Store::recover`, `StreamEngine::new`, replay.
pub fn trace(ctx: &Ctx, p: &Params, untraced: &Untraced) -> Result<Traced, String> {
    parutil::with_pool(POOL_THREADS, || trace_pinned(ctx, p, untraced))
}

fn trace_pinned(ctx: &Ctx, p: &Params, untraced: &Untraced) -> Result<Traced, String> {
    let (_, mut schedule) = schedule(ctx, p);
    let initial = read_graph(&ctx.path(GRAPH_FILE))?;
    let twin = open(&ctx.path("twin-store"), Some(initial.clone()))?;
    let dir = ctx.path("trace-store");
    let opts = engine_options();
    let mut tracer = Tracer::default();

    // The set-up `open_durable` performs on an empty directory.
    let (store, wal) = tracer
        .span("wal.init", 0, || Store::init(&dir, &initial))
        .map_err(|e| e.to_string())?;
    let build = tracer.enter("engine.build", 0);
    let mut index = DynamicButterflyIndex::with_threshold(initial, opts.compact_threshold);
    let mut tip_u =
        DynamicTipState::with_threshold(&index, Side::U, opts.config.clone(), opts.dirty_threshold);
    let mut tip_v =
        DynamicTipState::with_threshold(&index, Side::V, opts.config.clone(), opts.dirty_threshold);
    std::hint::black_box(publish(&index, &tip_u, &tip_v));
    tracer.exit(build);
    let mut log = DurableLog::new(store, wal, 0, CHECKPOINT_EVERY);
    let wal_path = Store::wal_path(&dir);
    let wal_len = || std::fs::metadata(&wal_path).map_or(0, |m| m.len());

    let mut out = Traced::default();
    let (mut work, mut changed, mut dirty_u, mut dirty_v) = (0u64, 0u64, 0u64, 0u64);
    let (mut wedges_u, mut wedges_v, mut frac_u, mut frac_v) = (0u64, 0u64, 0.0, 0.0);
    let mut policies: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut pairs: BTreeMap<(&'static str, &'static str), u64> = BTreeMap::new();
    let (mut wal_bytes, mut folds) = (0u64, 0u64);
    for op in 1..=p.trace_ops as u64 {
        let batch = schedule.next_batch();
        let t0 = Instant::now();
        twin.apply_batch(&batch)
            .map_err(|e| format!("twin batch {op}: {e}"))?;
        out.baseline_ms.push(ms(t0.elapsed()));

        let len_before = wal_len();
        let (lsn, appended, delta, uu, uv, folded) =
            out.rayon.during(|| -> Result<_, String> {
                let root = tracer.enter("op", op);
                let lsn = tracer
                    .span("wal.append", op, || log.append(&batch))
                    .map_err(|e| format!("wal append failed: {e}"))?;
                // Before the fold, which may truncate the log.
                let appended = wal_len() - len_before;
                let delta = tracer.span("index", op, || index.apply_batch(&batch));
                let uu = tracer.span("tip_u", op, || tip_u.update(&index, &delta));
                let uv = tracer.span("tip_v", op, || tip_v.update(&index, &delta));
                let published =
                    tracer.span("engine.snapshot", op, || publish(&index, &tip_u, &tip_v));
                let folded = tracer
                    .span("wal.fold", op, || log.maybe_checkpoint(&published, lsn))
                    .map_err(|e| format!("checkpoint at lsn {lsn} failed: {e}"))?;
                tracer.exit(root);
                Ok((lsn, appended, delta, uu, uv, folded))
            })?;
        wal_bytes += appended;
        check(&mut out.problems, lsn == op, || {
            format!("batch {op} committed at lsn {lsn}")
        });
        folds += u64::from(folded);
        work += delta.work;
        changed += delta.gained + delta.lost;
        dirty_u += delta.dirty_u.len() as u64;
        dirty_v += delta.dirty_v.len() as u64;
        wedges_u += uu.wedges;
        wedges_v += uv.wedges;
        frac_u += uu.dirty_fraction;
        frac_v += uv.dirty_fraction;
        *policies.entry(uu.policy.as_str()).or_default() += 1;
        *policies.entry(uv.policy.as_str()).or_default() += 1;
        *pairs.entry(policy_pair(&uu, &uv)).or_default() += 1;
    }
    let traced_end = EndState {
        tip_u: fnv1a_u64(tip_u.tip()),
        tip_v: fnv1a_u64(tip_v.tip()),
        butterflies: index.total_butterflies(),
        lsn: log.end_lsn(),
    };
    for (name, end) in [
        ("untraced run", untraced.trace_end),
        ("twin", Some(end_state(&twin))),
    ] {
        check(&mut out.problems, end == Some(traced_end), || {
            format!("traced end {traced_end:?} != {name} {end:?}")
        });
    }
    drop((log, index, tip_u, tip_v, twin));

    // Recovery, split the way `open_durable` performs it.
    let recovered = tracer
        .span("wal.recover", 0, || Store::recover(&dir))
        .map_err(|e| e.to_string())?;
    let engine = tracer.span("engine.build", 0, || {
        StreamEngine::new(recovered.graph, engine_options())
    });
    for record in &recovered.batches {
        tracer
            .span("engine.replay", 0, || engine.apply_batch(&record.ops))
            .map_err(|e| format!("replaying lsn {}: {e}", record.lsn))?;
    }
    let reopened = EndState::of(&engine.snapshot(), recovered.wal.end_lsn());
    check(&mut out.problems, reopened == traced_end, || {
        format!("recovered {reopened:?} != traced end {traced_end:?}")
    });

    let ops = p.trace_ops as f64;
    let fold_ms = tracer
        .totals()
        .get("wal.fold")
        .map_or(0.0, |t| ms(t.self_time));
    out.tracer = tracer;
    out.set_trace_summary();
    out.set_self_ms("index.ms", "index");
    out.set_self_ms("tip_u.ms", "tip_u");
    out.set_self_ms("tip_v.ms", "tip_v");
    out.set_self_ms("engine.snapshot_ms", "engine.snapshot");
    out.set_self_ms("engine.build_ms", "engine.build");
    out.set_self_ms("wal.append_ms", "wal.append");
    out.set_self_ms("wal.recover_ms", "wal.recover");
    out.set("wal.fold_ms", crate::ratio(fold_ms, folds as f64));
    out.set("wal.folds", folds as f64);
    out.set("wal.appends", ops);
    out.set("wal.bytes", wal_bytes as f64);
    out.set("index.work", work as f64);
    out.set("index.dirty_u", dirty_u as f64);
    out.set("index.dirty_v", dirty_v as f64);
    out.set("index.hit_frac", crate::ratio(changed as f64, work as f64));
    out.set("tip_u.wedges", wedges_u as f64);
    out.set("tip_v.wedges", wedges_v as f64);
    out.set("tip_u.dirty_frac", frac_u / ops);
    out.set("tip_v.dirty_frac", frac_v / ops);
    let policy = |p: UpdatePolicy| policies.get(p.as_str()).copied().unwrap_or(0) as f64;
    out.set("tip.unchanged", policy(UpdatePolicy::Unchanged));
    out.set("tip.seeded", policy(UpdatePolicy::SeededRepeel));
    out.set("tip.recompute", policy(UpdatePolicy::FullRecompute));
    out.set("tip.pair_share", top_pair_share(&pairs));
    Ok(out)
}
