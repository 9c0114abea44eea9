//! `perfbench --workload NAME --seed N --seconds S --trace 0|1`
//!
//! Run from the repository root (`perfbench/run.sh` builds and does so).
//! Scratch files live under `perfbench/out/` and are removed at exit,
//! except the traced run's spans, kept as
//! `perfbench/out/trace-<workload>-<seed>.ndjson`.
//!
//! The last stdout line is the result:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}` with
//! every end-to-end metric (`--trace 0`) or every per-layer metric
//! (`--trace 1`). The line before it is the environment block: `nproc`,
//! the pinned pool budget, the seed, the usable-parallelism probe and the
//! run's sample counts. Exit status 1, with no result, on a failure that
//! prevents measuring.

#![forbid(unsafe_code)]

use perfbench::stats::ParallelismProbe;
use perfbench::{
    serve_topk, stream_dirty, tip_static, Ctx, Traced, Untraced, END_TO_END, PER_LAYER,
    POOL_THREADS, WORKLOADS,
};
use serde_json::{Map, Value};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

const OUT_DIR: &str = "perfbench/out";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut flags: BTreeMap<&str, &str> = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" | "--seed" | "--seconds" | "--trace" => {
                flags.insert(flag.as_str(), value.as_str());
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let get = |name: &str| {
        flags
            .get(name)
            .copied()
            .ok_or(format!("{name} is required"))
    };
    let workload = get("--workload")?.to_string();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; one of {WORKLOADS:?}"
        ));
    }
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn execute(ctx: &Ctx, args: &Args) -> Result<(Untraced, Option<Traced>), String> {
    macro_rules! workload {
        ($module:ident) => {{
            let params = $module::Params::full();
            let untraced = $module::run(ctx, &params)?;
            let traced = match args.trace {
                true => Some($module::trace(ctx, &params, &untraced)?),
                false => None,
            };
            Ok((untraced, traced))
        }};
    }
    match args.workload.as_str() {
        "tip-static" => workload!(tip_static),
        "stream-dirty" => workload!(stream_dirty),
        _ => workload!(serve_topk),
    }
}

fn number(name: &str, value: f64) -> Result<Value, String> {
    if value.is_finite() {
        Ok(Value::from(value))
    } else {
        Err(format!("{name} is not a finite number: {value}"))
    }
}

fn object<K: Into<String>>(entries: impl IntoIterator<Item = (K, Value)>) -> Value {
    let mut map = Map::new();
    for (key, value) in entries {
        map.insert(key, value);
    }
    Value::Object(map)
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    let tipdecomp = std::env::current_exe()
        .map_err(|e| format!("locating this executable: {e}"))?
        .with_file_name("tipdecomp");
    if !tipdecomp.is_file() {
        return Err(format!(
            "{} is missing; build with perfbench/run.sh",
            tipdecomp.display()
        ));
    }
    let dir = PathBuf::from(OUT_DIR).join(format!(
        "{}-{}-{}",
        args.workload,
        args.seed,
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        dir: dir.clone(),
        tipdecomp,
    };
    let probe = ParallelismProbe::measure();
    let result = execute(&ctx, &args);
    let _ = std::fs::remove_dir_all(&dir);
    let (untraced, traced) = result?;

    let mut problems = untraced.problems.clone();
    let (table, values) = match &traced {
        None => (END_TO_END, &untraced.metrics),
        Some(traced) => {
            problems.extend(traced.problems.iter().cloned());
            let path = PathBuf::from(OUT_DIR)
                .join(format!("trace-{}-{}.ndjson", args.workload, args.seed));
            traced
                .tracer
                .write_ndjson(&path)
                .map_err(|e| format!("writing {}: {e}", path.display()))?;
            (PER_LAYER, &traced.layers)
        }
    };
    let correct = problems.is_empty();
    for problem in &problems {
        eprintln!("perfbench: check failed: {problem}");
    }

    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let mut env = vec![
        ("workload", Value::from(args.workload.as_str())),
        ("seed", Value::from(args.seed)),
        ("nproc", Value::from(nproc as u64)),
        ("pool_threads", Value::from(POOL_THREADS as u64)),
        ("probe_one_thread_s", number("probe", probe.one_thread_s)?),
        ("probe_two_threads_s", number("probe", probe.two_threads_s)?),
        ("usable_cores", number("probe", probe.usable_cores())?),
    ];
    for (name, value) in &untraced.samples {
        env.push((name, number(name, *value)?));
    }
    println!("{}", object([("env", object(env))]));

    let metrics = table
        .iter()
        .map(|&(name, unit)| {
            let value = number(name, values.get(name).copied().unwrap_or(0.0))?;
            Ok((
                name,
                object([("value", value), ("unit", Value::from(unit))]),
            ))
        })
        .collect::<Result<Vec<_>, String>>()?;
    println!(
        "{}",
        object([
            ("correct", Value::from(correct)),
            ("attempted", Value::from(untraced.attempted)),
            ("failed", Value::from(untraced.failed)),
            ("metrics", object(metrics)),
        ])
    );
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
