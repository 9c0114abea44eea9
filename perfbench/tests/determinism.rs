//! The benchmark's self-checks, at reduced input sizes:
//!
//! * two runs of each workload with one seed report identical work
//!   counters (wedges, sync rounds, index work, dirty and policy counts,
//!   WAL bytes), so counters can be compared exactly across commits;
//! * the traced run reaches the untraced run's checksums and end state;
//! * `BENCHMARK.json` lists exactly the workloads and metrics the binary
//!   reports.

use perfbench::{
    serve_topk, stream_dirty, tip_static, Ctx, Traced, Untraced, END_TO_END, PER_LAYER, WORKLOADS,
};
use std::path::PathBuf;

fn ctx(name: &str) -> Ctx {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    Ctx {
        seed: 0x5eed,
        seconds: 0.001,
        dir,
        tipdecomp: PathBuf::from(env!("CARGO_BIN_EXE_tipdecomp")),
    }
}

/// Metrics that depend on timing or scheduling, not on the inputs.
fn timing_dependent(name: &str, unit: &str) -> bool {
    unit == "ms"
        || name.starts_with("rayon.")
        || name == "trace.overhead_frac"
        || name == "trace.coverage_frac"
}

fn check_twice(name: &str, run: impl Fn(&Ctx) -> (Untraced, Traced)) {
    let (first, second) = (
        run(&ctx(&format!("{name}-a"))),
        run(&ctx(&format!("{name}-b"))),
    );
    for (untraced, traced) in [&first, &second] {
        assert!(
            untraced.problems.is_empty(),
            "{name}: {:?}",
            untraced.problems
        );
        assert_eq!(untraced.failed, 0, "{name}");
        assert!(traced.problems.is_empty(), "{name}: {:?}", traced.problems);
        assert_eq!(untraced.metrics["ok_frac"], 1.0, "{name}");
        assert!(
            traced.tracer.coverage("op") > 0.95,
            "{name}: layer spans miss op time"
        );
    }
    let mut compared = 0;
    for &(metric, unit) in PER_LAYER {
        if timing_dependent(metric, unit) {
            continue;
        }
        let a = first.1.layers.get(metric).copied().unwrap_or(0.0);
        let b = second.1.layers.get(metric).copied().unwrap_or(0.0);
        assert_eq!(a, b, "{name}: {metric} differs between runs of one seed");
        compared += u32::from(a != 0.0);
    }
    assert!(compared >= 3, "{name}: too few work counters reported");
}

#[test]
fn tip_static_counters_repeat_and_trace_matches() {
    let p = tip_static::Params::reduced();
    check_twice("tip-static", |ctx| {
        let u = tip_static::run(ctx, &p).unwrap();
        let t = tip_static::trace(ctx, &p, &u).unwrap();
        (u, t)
    });
}

#[test]
fn stream_dirty_counters_repeat_and_trace_matches() {
    let p = stream_dirty::Params::reduced();
    check_twice("stream-dirty", |ctx| {
        let u = stream_dirty::run(ctx, &p).unwrap();
        let t = stream_dirty::trace(ctx, &p, &u).unwrap();
        assert!(
            u.trace_end.is_some(),
            "the run must reach the traced prefix"
        );
        assert!(t.layers["wal.bytes"] > 0.0);
        (u, t)
    });
}

#[test]
fn serve_topk_counters_repeat_and_trace_matches() {
    let p = serve_topk::Params::reduced();
    check_twice("serve-topk", |ctx| {
        let u = serve_topk::run(ctx, &p).unwrap();
        let t = serve_topk::trace(ctx, &p, &u).unwrap();
        assert_eq!(
            u.samples["unchanged_share"], 1.0,
            "applies must be butterfly-neutral"
        );
        (u, t)
    });
}

#[test]
fn benchmark_json_lists_what_the_binary_reports() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).unwrap();
    let doc = serde_json::from_str_value(&text).unwrap();
    let names = |key: &str| -> Vec<(String, String)> {
        doc.get(key)
            .and_then(|v| v.as_array())
            .unwrap()
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(|v| v.as_str()).unwrap_or("").to_string();
                (field("name"), field("unit"))
            })
            .collect()
    };
    let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(names("end_to_end"), own(END_TO_END));
    assert_eq!(names("per_layer"), own(PER_LAYER));
    let workloads: Vec<String> = names("workloads").into_iter().map(|(n, _)| n).collect();
    assert_eq!(workloads, WORKLOADS);
}
