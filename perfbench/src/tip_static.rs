//! `tip-static`: one RECEIPT tip decomposition per op.
//!
//! Op: `receipt::tip_decompose(g, Side::U, Config::default().with_threads(2))`
//! on an in-memory CSR of a Tr-shaped graph. This is the paper's kernel and
//! the only workload where `receipt::cd`, `receipt::fd` and the scheduler
//! do most of the work; Tr's hub skew is what makes FD matter.

use crate::gen::{self, Rng, Shape};
use crate::stats::{self, ms, StealMeter};
use crate::trace::Tracer;
use crate::{check, read_graph, Ctx, Traced, Untraced, Window, GRAPH_FILE, POOL_THREADS};
use bigraph::{BipartiteCsr, Side};
use receipt::{cd, fd, Config};
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Params {
    pub shape: Shape,
    /// Set-up + reopen pairs spread over the op loop (one more set-up
    /// precedes it).
    pub side_reps: usize,
    /// Op-count floor of the untraced loop (p90 needs ten samples beyond
    /// it) and its ceiling.
    pub min_ops: usize,
    pub max_ops: usize,
    /// Fixed op count of the traced run.
    pub trace_ops: usize,
}

impl Params {
    pub fn full() -> Self {
        Params {
            shape: gen::TR_STATIC,
            side_reps: 10,
            min_ops: 100,
            max_ops: 100_000,
            trace_ops: 40,
        }
    }

    /// A small graph for the benchmark's own tests.
    pub fn reduced() -> Self {
        Params {
            shape: Shape {
                nu: 700,
                nv: 300,
                m: 1_600,
                ..gen::TR_STATIC
            },
            side_reps: 1,
            min_ops: 3,
            max_ops: 3,
            trace_ops: 3,
        }
    }
}

fn config() -> Config {
    Config::default().with_threads(POOL_THREADS)
}

/// One set-up: load the file and run the first (warm-up) decomposition.
fn set_up(
    path: &Path,
    oracle: &[u64],
    problems: &mut Vec<String>,
) -> Result<(BipartiteCsr, f64), String> {
    let t0 = Instant::now();
    let g = read_graph(path)?;
    let d = receipt::tip_decompose(&g, Side::U, &config());
    let secs = t0.elapsed().as_secs_f64();
    check(problems, d.tip == oracle, || {
        "set-up: tips differ from BUP".to_string()
    });
    Ok((g, secs))
}

/// One reopen: a cold `tipdecomp tip` process on the same file, to exit.
fn reopen(ctx: &Ctx, oracle: &[u64], problems: &mut Vec<String>) -> Result<f64, String> {
    let tips_path = ctx.path("tips.tsv");
    let t0 = Instant::now();
    let status = Command::new(&ctx.tipdecomp)
        .arg("tip")
        .arg(ctx.path(GRAPH_FILE))
        .args([
            "--side",
            "U",
            "--threads",
            &POOL_THREADS.to_string(),
            "--output",
        ])
        .arg(&tips_path)
        .env("RAYON_NUM_THREADS", POOL_THREADS.to_string())
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("spawning {}: {e}", ctx.tipdecomp.display()))?;
    let secs = t0.elapsed().as_secs_f64();
    let tips = std::fs::read_to_string(&tips_path).unwrap_or_default();
    let parsed: Vec<u64> = tips
        .lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| l.split('\t').nth(1)?.parse().ok())
        .collect();
    check(problems, status.success() && parsed == oracle, || {
        format!("reopen: `tipdecomp tip` output differs from BUP ({status})")
    });
    Ok(secs)
}

pub fn run(ctx: &Ctx, p: &Params) -> Result<Untraced, String> {
    let path = ctx.path(GRAPH_FILE);
    gen::zipf_graph(&p.shape, &mut Rng::stream(ctx.seed, "tip-static/graph"))
        .write_konect(&path)
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    let oracle = {
        let g = read_graph(&path)?;
        receipt::bup::bup_decompose(&g, Side::U, Config::default().heap_arity).tip
    };
    let mut out = Untraced::default();
    stats::reset_peak_rss();

    let mut window = Window::new(ctx.seconds, p.side_reps, p.min_ops);
    let (mut setups, mut reopens) = (Vec::new(), Vec::new());
    let ((g, secs), clean) = window.measure(|| set_up(&path, &oracle, &mut out.problems))?;
    if clean {
        setups.push(secs);
    }
    let mut side = |window: &mut Window, problems: &mut Vec<String>| -> Result<(), String> {
        let ((setup, reopen), clean) = window.side(|| {
            let (_, setup) = set_up(&path, &oracle, problems)?;
            Ok((setup, reopen(ctx, &oracle, problems)?))
        })?;
        if clean {
            setups.push(setup);
            reopens.push(reopen);
        }
        Ok(())
    };
    let mut latencies = Vec::new();
    let (mut attempted, mut ok) = (0usize, 0u64);
    while (window.measuring() || window.side_pending()) && attempted < p.max_ops {
        let steal = StealMeter::start();
        let t0 = Instant::now();
        let d = receipt::tip_decompose(&g, Side::U, &config());
        let latency = ms(t0.elapsed());
        attempted += 1;
        ok += u64::from(d.tip == oracle);
        if window.keep(steal, 1, latency) {
            latencies.push(latency);
        }
        if window.side_due() {
            side(&mut window, &mut out.problems)?;
        }
    }
    while window.side_pending() {
        side(&mut window, &mut out.problems)?;
    }
    let peak_rss = stats::peak_rss_mb(None).unwrap_or(0.0);

    let p50 = stats::median(&latencies);
    out.attempted = attempted as u64;
    let failed = out.attempted - ok;
    out.failed = failed;
    check(&mut out.problems, failed == 0, || {
        format!("{failed} ops differ from BUP")
    });
    out.metrics.insert("setup_s", stats::median(&setups));
    out.metrics.insert("op_p50_ms", p50);
    out.metrics
        .insert("op_p90_ms", stats::quantile(&latencies, 0.9));
    out.metrics
        .insert("ok_frac", ok as f64 / out.attempted as f64);
    out.metrics.insert("peak_rss_mb", peak_rss);
    // The decomposition is this workload's only operation, so its write
    // latency is the op latency.
    out.metrics.insert("apply_p50_ms", p50);
    out.metrics.insert("reopen_s", stats::median(&reopens));
    out.samples.insert("ops", latencies.len() as f64);
    out.samples.insert("setup_reps", setups.len() as f64);
    out.samples.insert("reopen_reps", reopens.len() as f64);
    out.samples.insert("edges", g.num_edges() as f64);
    window.report(&mut out.samples);
    Ok(out)
}

/// Replays `trace_ops` decompositions through `cd::coarse_decompose` and
/// `fd::fine_decompose` — the two calls `tip_decompose` makes inside its
/// pool — with the counting phase split out of CD by its own `Metrics`.
/// Each traced op follows a plain `tip_decompose` of the same graph, the
/// overhead baseline.
pub fn trace(ctx: &Ctx, p: &Params, _untraced: &Untraced) -> Result<Traced, String> {
    let g = read_graph(&ctx.path(GRAPH_FILE))?;
    let oracle = receipt::tip_decompose(&g, Side::U, &config()).tip;
    let mut tracer = Tracer::default();
    let mut out = Traced::default();
    let mut sum = receipt::Metrics::default();
    let mut cd_recounts = 0;
    for op in 0..p.trace_ops as u64 {
        let t0 = Instant::now();
        let plain = receipt::tip_decompose(&g, Side::U, &config());
        out.baseline_ms.push(ms(t0.elapsed()));
        let d = out.rayon.during(|| {
            let root = tracer.enter("op", op);
            let d = parutil::with_pool(POOL_THREADS, || {
                let cd_span = tracer.enter("cd", op);
                let coarse = cd::coarse_decompose(&g, Side::U, &config());
                tracer.exit(cd_span);
                tracer.record_child(cd_span, "count", coarse.metrics.time_count);
                cd_recounts += coarse.metrics.recounts;
                tracer.span("fd", op, || {
                    fd::fine_decompose(g.view(Side::U), coarse, &config())
                })
            });
            tracer.exit(root);
            d
        });
        check(
            &mut out.problems,
            d.tip == oracle && plain.tip == oracle,
            || format!("traced op {op}: tips differ"),
        );
        sum.absorb(&d.metrics);
    }
    out.tracer = tracer;

    out.set_trace_summary();
    out.set_self_ms("count.ms", "count");
    out.set_self_ms("cd.ms", "cd");
    out.set_self_ms("fd.ms", "fd");
    out.set("count.wedges", sum.wedges_count as f64);
    out.set("cd.wedges", sum.wedges_cd as f64);
    out.set("cd.sync_rounds", sum.sync_rounds as f64);
    out.set("cd.recounts", cd_recounts as f64);
    out.set("cd.compactions", sum.compactions as f64);
    out.set("fd.wedges", sum.wedges_fd as f64);
    out.set("fd.partitions", (sum.partitions_used * p.trace_ops) as f64);
    Ok(out)
}
