//! `serve-topk`: one `topk` round trip per op against a `tipdecomp serve`
//! child process on a Unix socket.
//!
//! The server holds the full It shape in a durable store. The single
//! closed-loop client — the server accepts one connection at a time, so it
//! is the only load it can take — sends [`TOPK_PER_APPLY`] `topk` requests,
//! then one `apply` of [`OPS_PER_APPLY`] butterfly-neutral inserts, and
//! repeats. The read path and the protocol do the work here: every `topk`
//! ranks the whole U side. The applies, all under the `unchanged` policy,
//! expose the engine's fixed per-batch cost: WAL append and fsync, the
//! index update and the snapshot rebuild.

use crate::gen::{self, Rng, Shape};
use crate::stats::{self, ms, StealMeter};
use crate::trace::Tracer;
use crate::{
    check, engine_options, read_graph, Ctx, EndState, Traced, Untraced, Window, CHECKPOINT_EVERY,
    GRAPH_FILE, POOL_THREADS, REOPEN_TAIL,
};
use bigraph::{EdgeOp, Side};
use receipt::engine::StreamEngine;
use receipt::report::{ServeResponse, ServeStats, TopKEntry};
use receipt::wal::Store;
use std::collections::BTreeMap;
use std::io::{BufReader, BufWriter};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// The op: the ten densest U vertices.
pub const TOPK: &str = r#"{"op":"topk","side":"U","k":10}"#;
const STATS: &str = r#"{"op":"stats"}"#;
const SHUTDOWN: &str = r#"{"op":"shutdown"}"#;
pub const TOPK_PER_APPLY: usize = 40;
pub const OPS_PER_APPLY: usize = 4;

/// How long a child may take to start listening or to exit.
const CHILD_DEADLINE: Duration = Duration::from_secs(60);

#[derive(Debug, Clone)]
pub struct Params {
    pub shape: Shape,
    /// Set-up + reopen pairs spread over the session (one more set-up
    /// starts it).
    pub side_reps: usize,
    /// A cycle is [`TOPK_PER_APPLY`] `topk` requests and one `apply`.
    pub min_cycles: usize,
    pub max_cycles: usize,
    /// Fixed cycle count of the traced replay.
    pub trace_cycles: usize,
}

impl Params {
    pub fn full() -> Self {
        Params {
            shape: gen::IT_SERVE,
            side_reps: 5,
            min_cycles: 25,
            max_cycles: 4_004,
            trace_cycles: 25,
        }
    }

    pub fn reduced() -> Self {
        Params {
            shape: Shape {
                nu: 2_000,
                nv: 140,
                m: 10_000,
                ..gen::IT_SERVE
            },
            side_reps: 1,
            min_cycles: 4,
            max_cycles: 4,
            trace_cycles: 4,
        }
    }
}

/// The seeded write stream; apply `i` of every run with one seed is the
/// same.
struct Applies {
    rng: Rng,
    nu: usize,
    nv: usize,
    next: usize,
}

impl Applies {
    fn new(ctx: &Ctx, p: &Params) -> Self {
        Applies {
            rng: Rng::stream(ctx.seed, "serve-topk/applies"),
            nu: p.shape.nu,
            nv: p.shape.nv,
            next: 0,
        }
    }

    /// The next apply's edges and its request text.
    fn next(&mut self) -> (Vec<(u32, u32)>, String) {
        let edges = gen::neutral_apply(self.nu, self.nv, OPS_PER_APPLY, self.next, &mut self.rng);
        self.next += 1;
        let ops: Vec<String> = edges.iter().map(|(u, v)| format!("\"+{u} {v}\"")).collect();
        let request = format!(r#"{{"op":"apply","side":"U","ops":[{}]}}"#, ops.join(","));
        (edges, request)
    }
}

/// A `tipdecomp serve` child; killed and reaped if dropped while running.
struct Server {
    child: Child,
    log: PathBuf,
}

impl Server {
    fn spawn(ctx: &Ctx, store: &Path, socket: &Path) -> Result<Server, String> {
        let log = socket.with_extension("log");
        let stderr = std::fs::File::create(&log).map_err(|e| format!("{}: {e}", log.display()))?;
        let child = Command::new(&ctx.tipdecomp)
            .arg("serve")
            .arg(ctx.path(GRAPH_FILE))
            .arg("--socket")
            .arg(socket)
            .arg("--wal")
            .arg(store)
            .args(["--checkpoint-every", &CHECKPOINT_EVERY.to_string()])
            .env("RAYON_NUM_THREADS", POOL_THREADS.to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(stderr)
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", ctx.tipdecomp.display()))?;
        Ok(Server { child, log })
    }

    /// Connects once the server listens, polling every millisecond.
    fn connect(&mut self, socket: &Path) -> Result<Client, String> {
        let t0 = Instant::now();
        loop {
            if let Ok(stream) = UnixStream::connect(socket) {
                let reader = stream.try_clone().map_err(|e| e.to_string())?;
                return Ok(Client {
                    reader: BufReader::new(reader),
                    writer: BufWriter::new(stream),
                });
            }
            if let Ok(Some(status)) = self.child.try_wait() {
                return Err(format!(
                    "server exited ({status}) before listening; see {}",
                    self.log.display()
                ));
            }
            if t0.elapsed() > CHILD_DEADLINE {
                return Err("server did not start listening in time".into());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Sends `shutdown` and reaps the child.
    fn stop(mut self, client: &mut Client) -> Result<(), String> {
        client.call(SHUTDOWN)?;
        let t0 = Instant::now();
        while self.child.try_wait().map_err(|e| e.to_string())?.is_none() {
            if t0.elapsed() > CHILD_DEADLINE {
                return Err("server did not exit after shutdown".into());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        Ok(())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// One framed connection, speaking the server's own framing functions.
struct Client {
    reader: BufReader<UnixStream>,
    writer: BufWriter<UnixStream>,
}

impl Client {
    fn call(&mut self, request: &str) -> Result<String, String> {
        receipt_cli::write_frame(&mut self.writer, request)?;
        receipt_cli::read_frame(&mut self.reader)?
            .ok_or_else(|| "server closed the connection".into())
    }

    fn stats(&mut self) -> Result<ServeStats, String> {
        let response = parse(&self.call(STATS)?)?;
        response
            .stats
            .filter(|_| response.ok)
            .ok_or_else(|| format!("stats failed: {:?}", response.error))
    }
}

fn parse(text: &str) -> Result<ServeResponse, String> {
    serde_json::from_str(text).map_err(|e| format!("unparseable response {text:?}: {e}"))
}

/// A stats answer with the epoch cleared: a reopened server numbers its
/// epochs from the replay, but must hold the same state.
fn state_of(mut stats: ServeStats) -> ServeStats {
    stats.epoch = 0;
    stats
}

fn end_state(stats: &ServeStats, lsn: u64) -> EndState {
    EndState {
        tip_u: stats.tip_checksum_u,
        tip_v: stats.tip_checksum_v,
        butterflies: stats.total_butterflies,
        lsn,
    }
}

/// Spawns a server on `store` and times it to its first answered request.
fn start(ctx: &Ctx, store: &Path, name: &str) -> Result<(Server, Client, f64, ServeStats), String> {
    let socket = ctx.path(&format!("{name}.sock"));
    let t0 = Instant::now();
    let mut server = Server::spawn(ctx, store, &socket)?;
    let mut client = server.connect(&socket)?;
    let stats = client.stats()?;
    Ok((server, client, t0.elapsed().as_secs_f64(), stats))
}

/// The top-k answer the snapshot gives, shaped as the wire's entries
/// (0-based ids: the generated file carries a size header).
fn expected_topk(engine: &StreamEngine) -> Vec<TopKEntry> {
    engine
        .snapshot()
        .top_k_densest(Side::U, 10)
        .into_iter()
        .map(|d| TopKEntry {
            id: d.id,
            side: Side::U,
            tip: d.tip,
            butterflies: d.butterflies,
        })
        .collect()
}

fn inserts(edges: &[(u32, u32)]) -> Vec<EdgeOp> {
    edges.iter().map(|&(u, v)| EdgeOp::Insert(u, v)).collect()
}

/// Answers recorded for one epoch: the first answer and how many requests
/// at that epoch returned something else.
#[derive(Debug, Default)]
struct EpochAnswers {
    answer: Vec<TopKEntry>,
    requests: u64,
    differing: u64,
}

pub fn run(ctx: &Ctx, p: &Params) -> Result<Untraced, String> {
    let graph = gen::zipf_graph(&p.shape, &mut Rng::stream(ctx.seed, "serve-topk/graph"));
    let path = ctx.path(GRAPH_FILE);
    graph
        .write_konect(&path)
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    drop(graph);
    let mut out = Untraced::default();

    // Set-up: spawn a server on an empty store, time to the first answer
    // (load, engine build, first request). The first one serves the
    // session; the others are spread over it.
    let mut window = Window::new(ctx.seconds, p.side_reps, p.min_cycles);
    let (mut setups, mut reopens) = (Vec::new(), Vec::new());
    let store = ctx.path("store");
    let ((server, mut client, secs, _), clean) = window.measure(|| start(ctx, &store, "setup0"))?;
    if clean {
        setups.push(secs);
    }
    // Reopen: a second server recovers the live store — checkpoint load,
    // replay of the REOPEN_TAIL records past it, engine rebuild — at
    // checkpoint phases spread over the session, and must answer `stats`
    // as the live server does (epoch aside). Recovery of a cleanly
    // written store only reads it.
    let mut rep = 0;
    let mut side = |client: &mut Client,
                    window: &mut Window,
                    problems: &mut Vec<String>|
     -> Result<(), String> {
        rep += 1;
        let live = state_of(client.stats()?);
        let ((setup, reopen, got), clean) = window.side(|| {
            let (fresh, mut fresh_client, setup, _) = start(
                ctx,
                &ctx.path(&format!("store{rep}")),
                &format!("setup{rep}"),
            )?;
            fresh.stop(&mut fresh_client)?;
            let (again, mut again_client, reopen, stats) =
                start(ctx, &store, &format!("reopen{rep}"))?;
            again.stop(&mut again_client)?;
            Ok((setup, reopen, state_of(stats)))
        })?;
        if clean {
            setups.push(setup);
            reopens.push(reopen);
        }
        check(problems, got == live, || {
            format!("reopen {rep}: {got:?} != {live:?}")
        });
        Ok(())
    };

    let mut applies = Applies::new(ctx, p);
    let mut applied = Vec::new();
    let mut latencies = Vec::new();
    let mut apply_latencies = Vec::new();
    let mut answers: BTreeMap<u64, EpochAnswers> = BTreeMap::new();
    let mut unchanged = 0u64;
    let mut cycles = 0usize;
    let mut topk_ms = Vec::with_capacity(TOPK_PER_APPLY);
    let at_phase = |cycles: usize| cycles as u64 % CHECKPOINT_EVERY == REOPEN_TAIL;
    while (window.measuring() || window.side_pending() || !at_phase(cycles))
        && cycles < p.max_cycles
    {
        // A cycle's round trips are too short to meter one by one, so
        // the cycle is metered whole and kept or dropped whole.
        let steal = StealMeter::start();
        topk_ms.clear();
        for _ in 0..TOPK_PER_APPLY {
            let t0 = Instant::now();
            let text = client.call(TOPK)?;
            topk_ms.push(ms(t0.elapsed()));
            let response = parse(&text)?;
            let slot = answers.entry(response.epoch).or_default();
            slot.requests += 1;
            match response.topk.filter(|_| response.ok) {
                Some(topk) if slot.requests == 1 => slot.answer = topk,
                Some(topk) if topk == slot.answer => {}
                _ => slot.differing += 1,
            }
        }
        let (edges, request) = applies.next();
        let t0 = Instant::now();
        let text = client.call(&request)?;
        let apply_ms = ms(t0.elapsed());
        let cycle_ms = topk_ms.iter().sum::<f64>() + apply_ms;
        if window.keep(steal, TOPK_PER_APPLY as u64 + 1, cycle_ms) {
            latencies.extend_from_slice(&topk_ms);
            apply_latencies.push(apply_ms);
        }
        cycles += 1;
        let response = parse(&text)?;
        check(
            &mut out.problems,
            response.ok && response.epoch == cycles as u64,
            || format!("apply {cycles}: {text}"),
        );
        if let Some(batch) = &response.batch {
            unchanged += u64::from(batch.policy.as_str() == "unchanged");
        }
        applied.push(edges);
        if cycles == p.trace_cycles {
            let stats = client.stats()?;
            out.trace_end = Some(end_state(&stats, cycles as u64));
        }
        if at_phase(cycles) && window.side_due() {
            side(&mut client, &mut window, &mut out.problems)?;
        }
    }
    while window.side_pending() {
        side(&mut client, &mut window, &mut out.problems)?;
    }
    let final_stats = client.stats()?;
    let peak_rss = stats::peak_rss_mb(Some(server.child.id())).unwrap_or(0.0);
    server.stop(&mut client)?;

    // Every answer against an in-process engine fed the same applies.
    let reference = parutil::with_pool(POOL_THREADS, || -> Result<_, String> {
        let engine = StreamEngine::new(read_graph(&path)?, engine_options());
        let mut expected = vec![expected_topk(&engine)];
        for edges in &applied {
            engine.apply_batch(&inserts(edges))?;
            expected.push(expected_topk(&engine));
        }
        Ok((expected, ServeStats::from_snapshot(&engine.snapshot())))
    })?;
    let (expected, reference_stats) = reference;
    let mut ok = 0u64;
    for (epoch, slot) in &answers {
        let matches = expected.get(*epoch as usize) == Some(&slot.answer);
        ok += if matches {
            slot.requests - slot.differing
        } else {
            0
        };
    }
    check(&mut out.problems, final_stats == reference_stats, || {
        format!("final stats {final_stats:?} != in-process {reference_stats:?}")
    });

    out.attempted = (cycles * TOPK_PER_APPLY) as u64;
    let failed = out.attempted - ok;
    out.failed = failed;
    check(&mut out.problems, failed == 0, || {
        format!("{failed} topk answers wrong")
    });
    out.metrics.insert("setup_s", stats::median(&setups));
    out.metrics.insert("op_p50_ms", stats::median(&latencies));
    out.metrics
        .insert("op_p90_ms", stats::quantile(&latencies, 0.9));
    out.metrics
        .insert("ok_frac", ok as f64 / out.attempted as f64);
    out.metrics.insert("peak_rss_mb", peak_rss);
    out.metrics
        .insert("apply_p50_ms", stats::median(&apply_latencies));
    out.metrics.insert("reopen_s", stats::median(&reopens));
    out.samples.insert("ops", latencies.len() as f64);
    out.samples.insert("applies", apply_latencies.len() as f64);
    out.samples.insert("setup_reps", setups.len() as f64);
    out.samples.insert("reopen_reps", reopens.len() as f64);
    out.samples.insert(
        "unchanged_share",
        crate::ratio(unchanged as f64, cycles as f64),
    );
    window.report(&mut out.samples);
    Ok(out)
}

/// Replays the first `trace_cycles` cycles in-process through
/// `receipt_cli::handle_request` on an `open_durable` engine, and times
/// `EngineSnapshot::top_k_densest` on its own after each traced `topk`.
/// Each traced request follows the same request handled and encoded
/// untraced on a twin engine with a store of its own, the overhead
/// baseline and the in-process share of a round trip. The traced store is
/// then recovered as `open_durable` does it.
pub fn trace(ctx: &Ctx, p: &Params, untraced: &Untraced) -> Result<Traced, String> {
    parutil::with_pool(POOL_THREADS, || trace_pinned(ctx, p, untraced))
}

fn open(ctx: &Ctx, name: &str) -> Result<(StreamEngine, PathBuf), String> {
    let dir = ctx.path(name);
    let (engine, _) = StreamEngine::open_durable(
        &dir,
        Some(read_graph(&ctx.path(GRAPH_FILE))?),
        engine_options(),
        CHECKPOINT_EVERY,
    )?;
    Ok((engine, dir))
}

fn handle(engine: &StreamEngine, seq: u64, request: &str) -> Result<ServeResponse, String> {
    let (response, _) = receipt_cli::handle_request(engine, false, seq, request)?;
    Ok(response)
}

fn encode(response: &ServeResponse) -> Result<String, String> {
    serde_json::to_string(response).map_err(|e| e.to_string())
}

fn stats_of(engine: &StreamEngine, seq: u64) -> Result<ServeStats, String> {
    handle(engine, seq, STATS)?
        .stats
        .ok_or_else(|| "stats answer without stats".to_string())
}

fn trace_pinned(ctx: &Ctx, p: &Params, untraced: &Untraced) -> Result<Traced, String> {
    let (twin, _) = open(ctx, "twin-store")?;
    let (engine, dir) = open(ctx, "trace-store")?;
    let mut applies = Applies::new(ctx, p);
    let mut tracer = Tracer::default();
    let mut out = Traced::default();
    let (mut work, mut changed, mut dirty_u, mut folds) = (0u64, 0u64, 0u64, 0u64);
    let mut policies: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut seq = 0u64;
    for _ in 0..p.trace_cycles {
        for _ in 0..TOPK_PER_APPLY {
            let t0 = Instant::now();
            std::hint::black_box(encode(&handle(&twin, seq, TOPK)?)?);
            out.baseline_ms.push(ms(t0.elapsed()));
            let (response, text) = out.rayon.during(|| -> Result<_, String> {
                let root = tracer.enter("op", seq);
                let response =
                    tracer.span("cli.handle_topk", seq, || handle(&engine, seq, TOPK))?;
                let text = tracer.span("cli.encode", seq, || encode(&response))?;
                tracer.exit(root);
                Ok((response, text))
            })?;
            check(&mut out.problems, response.ok, || {
                format!("traced topk {seq}: {text}")
            });
            let top = tracer.span("snapshot.topk", seq, || {
                engine.snapshot().top_k_densest(Side::U, 10)
            });
            std::hint::black_box(top);
            seq += 1;
        }
        let request = applies.next().1;
        handle(&twin, seq, &request)?;
        let checkpoint = engine.checkpoint_lsn();
        let response = out.rayon.during(|| {
            let root = tracer.enter("apply", seq);
            let response = tracer.span("cli.handle_apply", seq, || handle(&engine, seq, &request));
            tracer.exit(root);
            response
        })?;
        let text = encode(&response)?;
        folds += u64::from(engine.checkpoint_lsn() != checkpoint);
        match &response.batch {
            Some(batch) if response.ok => {
                work += batch.update_work;
                changed += batch.butterflies_gained + batch.butterflies_lost;
                dirty_u += batch.dirty as u64;
                *policies.entry(batch.policy.as_str()).or_default() += 1;
            }
            _ => out.problems.push(format!("traced apply {seq}: {text}")),
        }
        seq += 1;
    }
    let lsn = engine.end_lsn().unwrap_or(0);
    let traced_end = end_state(&stats_of(&engine, seq)?, lsn);
    let twin_end = end_state(&stats_of(&twin, seq)?, twin.end_lsn().unwrap_or(0));
    for (name, end) in [
        ("untraced run", untraced.trace_end),
        ("twin", Some(twin_end)),
    ] {
        check(&mut out.problems, end == Some(traced_end), || {
            format!("traced end {traced_end:?} != {name} {end:?}")
        });
    }
    drop((engine, twin));

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
    let reopened = end_state(
        &ServeStats::from_snapshot(&engine.snapshot()),
        recovered.wal.end_lsn(),
    );
    check(&mut out.problems, reopened == traced_end, || {
        format!("recovered {reopened:?} != traced end {traced_end:?}")
    });

    let inproc_p50 = stats::median(&out.baseline_ms);
    let policy = |name: &str| policies.get(name).copied().unwrap_or(0) as f64;
    out.tracer = tracer;
    out.set_trace_summary();
    out.set_self_ms("cli.handle_topk_ms", "cli.handle_topk");
    out.set_self_ms("cli.handle_apply_ms", "cli.handle_apply");
    out.set_self_ms("cli.encode_ms", "cli.encode");
    out.set_self_ms("snapshot.topk_ms", "snapshot.topk");
    out.set_self_ms("engine.build_ms", "engine.build");
    out.set_self_ms("wal.recover_ms", "wal.recover");
    out.set("cli.ipc_ms", untraced.metrics["op_p50_ms"] - inproc_p50);
    out.set("wal.appends", lsn as f64);
    out.set("wal.folds", folds as f64);
    out.set("index.work", work as f64);
    out.set("index.dirty_u", dirty_u as f64);
    out.set("index.hit_frac", crate::ratio(changed as f64, work as f64));
    out.set("tip.unchanged", policy("unchanged"));
    out.set("tip.seeded", policy("seeded-repeel"));
    out.set("tip.recompute", policy("full-recompute"));
    Ok(out)
}
