//! `repro` — regenerates every table and figure of the RECEIPT paper's
//! evaluation (§5) on the synthetic dataset analogs.
//!
//! ```text
//! cargo run --release -p receipt-bench --bin repro -- <experiment> [--json] [--out FILE]
//! cargo run --release -p receipt-bench --bin repro -- --help
//! ```
//!
//! `--help` (also `-h` or `help`) prints one line per experiment and per
//! check subcommand from the `KNOWN_EXPERIMENTS` and `CHECKS` tables; `all`
//! runs every experiment except `smoke`, in table order. The checks are
//! CI gates over `--json` reports:
//!
//! * `check-threads FILE...` decodes two or more reports (e.g. the same
//!   experiment at RAYON_NUM_THREADS 1 and 4, or `tipdecomp tip
//!   --threads 1` and `--threads 2`), scrubs timings, scheduler telemetry
//!   and the requested `config.threads`, and fails (exit 1) unless every
//!   machine-independent field is identical — different thread counts
//!   must produce the same decomposition results.
//! * `check-sched FILE` decodes one report's `scheduler` section and fails
//!   (exit 1) unless the counters match the run's thread budget — ≥ 2
//!   threads must show > 1 worker executing tasks and ≥ 1 successful
//!   steal, 1 thread must show zero steals (the single-thread fast path).
//!
//! `--json` emits a versioned [`receipt_bench::report::ReproReport`]
//! document instead of text (supported for `table2`, `table3`, `wing`,
//! `dynamic`, `smoke` — the figure experiments are timing curves with no
//! structured content beyond what table3 already covers). Every JSON
//! document carries a `scheduler` section (work-stealing counters; `smoke`
//! first drives a deterministic fork-join workload through the pool so the
//! section reflects nested-parallel scheduling even though the smoke
//! graphs are tiny). `--out FILE` redirects either format.
//! `EXPERIMENTS.md` records one full text run;
//! `tests/golden/repro_{smoke,dynamic}.json` pin the
//! timing-and-scheduler-scrubbed smoke and dynamic documents.

#![forbid(unsafe_code)]

use bigraph::Side;
use receipt::{hierarchy, Config};
use receipt_bench::report::ReproReport;
use receipt_bench::runner::*;
use std::io::Write;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut json = false;
    let mut out: Option<String> = None;
    let mut positional: Vec<String> = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--json" => json = true,
            "--help" | "-h" => return print_help(),
            "--out" | "--output" => match it.next() {
                Some(path) => out = Some(path.clone()),
                None => fail("--out expects a file path"),
            },
            flag if flag.starts_with('-') => fail(&format!("unknown flag `{flag}`")),
            positional_arg => positional.push(positional_arg.to_string()),
        }
    }
    let what = positional
        .first()
        .cloned()
        .unwrap_or_else(|| "all".to_string());
    let operands = &positional[positional.len().min(1)..];

    // The check subcommands consume file operands; everything else is a
    // single experiment name.
    match what.as_str() {
        "help" => return print_help(),
        "check-threads" => {
            if operands.len() < 2 {
                fail("check-threads expects two or more report files");
            }
            check_threads(operands);
            return;
        }
        "check-sched" => {
            let [file] = operands else {
                fail("check-sched expects exactly one report file");
            };
            check_sched(file);
            return;
        }
        _ if !operands.is_empty() => fail(&format!("unexpected argument `{}`", operands[0])),
        _ => {}
    }

    if json {
        let report = match build_json(&what) {
            Some(report) => report,
            None if KNOWN_EXPERIMENTS.iter().any(|&(name, _)| name == what) => fail(&format!(
                "`{what}` has no JSON form; supported: table2, table3, wing, dynamic, smoke"
            )),
            None => unknown_experiment(&what),
        };
        let text = serde_json::to_string_pretty(&report).expect("report serializes");
        match &out {
            None => println!("{text}"),
            Some(path) => write_file(path, &format!("{text}\n")),
        }
        return;
    }

    if let Some(path) = &out {
        // Text mode with --out: capture is not implemented; keep the
        // interface honest instead of silently printing to stdout.
        fail(&format!(
            "--out {path} requires --json (text tables always print to stdout)"
        ));
    }

    match what.as_str() {
        "table2" => table2(),
        "table3" => table3(),
        "fig4" => fig4(),
        "fig5" => fig5(),
        "fig6" => fig6_fig7(true),
        "fig7" => fig6_fig7(false),
        "fig8" => fig8_fig9(true),
        "fig9" => fig8_fig9(false),
        "fig10" => fig10_fig11(Side::U),
        "fig11" => fig10_fig11(Side::V),
        "wing" => wing_extension(),
        "dynamic" => dynamic_experiment(),
        "projection" => projection_motivation(),
        "smoke" => smoke(),
        "all" => {
            table2();
            table3();
            fig4();
            fig5();
            fig6_fig7(true);
            fig6_fig7(false);
            fig8_fig9(true);
            fig8_fig9(false);
            fig10_fig11(Side::U);
            fig10_fig11(Side::V);
            wing_extension();
            dynamic_experiment();
            projection_motivation();
        }
        other => unknown_experiment(other),
    }
}

/// Every experiment `repro` runs, with the line `--help` prints for it.
const KNOWN_EXPERIMENTS: &[(&str, &str)] = &[
    ("table2", "dataset statistics"),
    ("table3", "time, wedges and sync rounds per algorithm"),
    ("fig4", "tip-number distribution, Tr analog"),
    ("fig5", "RECEIPT time vs partition count P"),
    ("fig6", "ablation: wedges of RECEIPT, -, --"),
    ("fig7", "ablation: time of RECEIPT, -, --"),
    ("fig8", "wedge breakup: CD, FD, pvBcnt"),
    ("fig9", "time breakup: CD, FD, pvBcnt"),
    ("fig10", "thread scaling, peeling U"),
    ("fig11", "thread scaling, peeling V"),
    ("wing", "§7: parallel vs sequential wing peel"),
    ("dynamic", "incremental batches vs from scratch"),
    ("projection", "§1: unipartite-projection blowup"),
    ("smoke", "small oracle-checked runs (golden)"),
    ("all", "everything above except smoke"),
];

/// The CI gates over `--json` reports, with the line `--help` prints.
const CHECKS: &[(&str, &str)] = &[
    ("check-threads", "FILE...: results agree across runs"),
    ("check-sched", "FILE: scheduler counters fit threads"),
];

fn print_help() {
    println!("usage: repro <experiment> [--json] [--out FILE] | repro <check> FILE...");
    for (name, summary) in KNOWN_EXPERIMENTS.iter().chain(CHECKS) {
        println!("  {name:<14} {summary}");
    }
}

fn unknown_experiment(what: &str) -> ! {
    let names: Vec<&str> = KNOWN_EXPERIMENTS.iter().map(|&(name, _)| name).collect();
    fail(&format!(
        "unknown experiment `{what}`; experiments: {}",
        names.join(", ")
    ))
}

fn fail(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

fn write_file(path: &str, text: &str) {
    let mut f =
        std::fs::File::create(path).unwrap_or_else(|e| fail(&format!("cannot create {path}: {e}")));
    f.write_all(text.as_bytes())
        .unwrap_or_else(|e| fail(&format!("write to {path} failed: {e}")));
    eprintln!("wrote {path}");
}

/// The structured form of the experiments that have one.
fn build_json(what: &str) -> Option<ReproReport> {
    let mut report = ReproReport::new(what);
    match what {
        "table2" => report.table2 = Some(table2_rows()),
        "table3" => report.table3 = Some(table3_rows()),
        "wing" => report.wing = Some(wing_rows()),
        "dynamic" => report.dynamic = Some(dynamic_rows()),
        "smoke" => {
            report.smoke = Some(smoke_report());
            // The smoke graphs are deliberately tiny, so drive one
            // deterministic fork-join workload through the pool before
            // snapshotting: the scheduler section must witness nested
            // parallelism for the CI steal gate to be meaningful.
            scheduler_exercise();
        }
        _ => return None,
    }
    report.scheduler = Some(scheduler_report());
    Some(report)
}

/// Exit for a failed CI gate: distinct from argument errors (exit 2) so
/// workflows can tell misuse from a genuine regression.
fn gate_fail(msg: &str) -> ! {
    eprintln!("check failed: {msg}");
    std::process::exit(1);
}

fn read_report_value(path: &str) -> serde_json::Value {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| gate_fail(&format!("cannot read {path}: {e}")));
    serde_json::from_str_value(&text)
        .unwrap_or_else(|e| gate_fail(&format!("{path} is not valid JSON: {e}")))
}

/// `repro check-threads a.json b.json ...` — all reports must describe the
/// same machine-independent results once timings and scheduler telemetry
/// (the only legitimately thread-count-dependent content) are scrubbed.
/// A `tipdecomp tip` report's `config.threads` is dropped too: it is the
/// thread count the run was asked for, an input, not a result.
fn check_threads(files: &[String]) {
    let mut scrubbed: Vec<serde_json::Value> = Vec::with_capacity(files.len());
    for path in files {
        let mut value = read_report_value(path);
        receipt::report::scrub_timings(&mut value);
        receipt::report::scrub_scheduler(&mut value);
        if let Some(threads) = value
            .get_mut("config")
            .and_then(|config| config.get_mut("threads"))
        {
            *threads = serde_json::Value::Null;
        }
        scrubbed.push(value);
    }
    for (path, value) in files.iter().zip(&scrubbed).skip(1) {
        if let Some(diff) = first_diff(&scrubbed[0], value, String::new()) {
            gate_fail(&format!(
                "{path} diverges from {} at `{diff}`: \
                 different thread counts must produce identical results",
                files[0]
            ));
        }
    }
    println!(
        "check-threads ok: {} reports agree on all machine-independent fields",
        files.len()
    );
}

/// First JSON-pointer-ish path where two scrubbed documents differ.
fn first_diff(a: &serde_json::Value, b: &serde_json::Value, path: String) -> Option<String> {
    use serde_json::Value;
    match (a, b) {
        (Value::Object(ma), Value::Object(mb)) => {
            for (key, va) in ma.iter() {
                match mb.get(key) {
                    None => return Some(format!("{path}/{key} (missing in second)")),
                    Some(vb) => {
                        if let Some(d) = first_diff(va, vb, format!("{path}/{key}")) {
                            return Some(d);
                        }
                    }
                }
            }
            for (key, _) in mb.iter() {
                if ma.get(key).is_none() {
                    return Some(format!("{path}/{key} (missing in first)"));
                }
            }
            None
        }
        (Value::Array(xs), Value::Array(ys)) => {
            if xs.len() != ys.len() {
                return Some(format!(
                    "{path} (array lengths {} vs {})",
                    xs.len(),
                    ys.len()
                ));
            }
            for (i, (x, y)) in xs.iter().zip(ys).enumerate() {
                if let Some(d) = first_diff(x, y, format!("{path}/{i}")) {
                    return Some(d);
                }
            }
            None
        }
        _ => (a != b).then(|| {
            if path.is_empty() {
                "/".to_string()
            } else {
                path
            }
        }),
    }
}

/// `repro check-sched report.json` — the scheduler section must match the
/// run's thread budget: parallel runs prove the work-stealing path ran
/// (> 1 worker executed tasks, ≥ 1 successful steal), single-thread runs
/// prove the inline fast path stayed off the queues (zero steals).
fn check_sched(file: &str) {
    let text = std::fs::read_to_string(file)
        .unwrap_or_else(|e| gate_fail(&format!("cannot read {file}: {e}")));
    let report: ReproReport = serde_json::from_str(&text)
        .unwrap_or_else(|e| gate_fail(&format!("{file} is not a ReproReport: {e}")));
    let Some(sched) = report.scheduler else {
        gate_fail(&format!("{file} has no scheduler section"));
    };
    if sched.tasks_executed != sched.jobs_submitted {
        gate_fail(&format!(
            "{file}: tasks_executed ({}) != jobs_submitted ({}) — \
             the report was built at a non-quiescent point or accounting leaked",
            sched.tasks_executed, sched.jobs_submitted
        ));
    }
    if sched.steals_succeeded > sched.steals_attempted {
        gate_fail(&format!(
            "{file}: steals_succeeded ({}) > steals_attempted ({})",
            sched.steals_succeeded, sched.steals_attempted
        ));
    }
    let busy_workers = sched
        .per_worker_executed
        .iter()
        .filter(|&&count| count > 0)
        .count();
    // The submitting caller is the budget's first executor; the pool only
    // spawns `threads - 1` workers. So a budget-2 run can prove load
    // sharing only as "one worker plus the helping caller", while budget
    // >= 3 (two or more workers) must show > 1 worker executing tasks.
    let busy_executors = busy_workers + usize::from(sched.helper_executed > 0);
    if sched.threads >= 2 {
        if busy_executors <= 1 {
            gate_fail(&format!(
                "{file}: {} threads but only {busy_executors} executor(s) ran tasks \
                 (per_worker_executed = {:?}, helper_executed = {})",
                sched.threads, sched.per_worker_executed, sched.helper_executed
            ));
        }
        if sched.threads >= 3 && busy_workers <= 1 {
            gate_fail(&format!(
                "{file}: {} threads but only {busy_workers} worker(s) executed tasks \
                 (per_worker_executed = {:?})",
                sched.threads, sched.per_worker_executed
            ));
        }
        if sched.steals_succeeded == 0 {
            gate_fail(&format!(
                "{file}: {} threads but zero successful steals \
                 ({} attempted) — the work-stealing path never ran",
                sched.threads, sched.steals_attempted
            ));
        }
    } else if sched.steals_succeeded != 0 {
        gate_fail(&format!(
            "{file}: single-thread run performed {} steal(s) — \
             the budget-1 fast path must stay off the queues",
            sched.steals_succeeded
        ));
    }
    println!(
        "check-sched ok: threads={} workers_spawned={} busy_workers={busy_workers} \
         steals={}/{} injector={}/{} tasks={} idle_timeouts={}",
        sched.threads,
        sched.workers_spawned,
        sched.steals_succeeded,
        sched.steals_attempted,
        sched.injector_pops,
        sched.injector_pushes,
        sched.tasks_executed,
        sched.idle_timeouts,
    );
}

fn header(title: &str) {
    println!("\n=== {title} ===");
}

/// Table 2: dataset statistics, including θ_max for both sides (which
/// requires a full decomposition per side).
fn table2() {
    header("Table 2: bipartite dataset analogs (wedges/butterflies in millions)");
    println!(
        "{:<5} {:>8} {:>8} {:>9} {:>11} {:>10} {:>10} {:>10} {:>10}",
        "name", "|U|", "|V|", "|E|", "dU/dV", "bf(M)", "wedge(M)", "thmaxU", "thmaxV"
    );
    for r in table2_rows() {
        println!(
            "{:<5} {:>8} {:>8} {:>9} {:>11} {:>10} {:>10} {:>10} {:>10}",
            r.name,
            r.num_u,
            r.num_v,
            r.num_edges,
            format!("{:.1}/{:.1}", r.avg_degree_u, r.avg_degree_v),
            millions(r.butterflies),
            millions(r.wedges),
            r.theta_max_u,
            r.theta_max_v,
        );
    }
}

/// Table 3: execution time, wedges traversed, and synchronization rounds
/// for each algorithm. Also prints the `r = ∧_peel/∧_cnt` ratio of §5.2.2.
fn table3() {
    header("Table 3: t(s) / wedges(M) / sync rounds for all algorithms");
    println!(
        "{:<5} {:>9} {:>9} {:>9} {:>10} {:>8} | {:>9} {:>9} {:>9} {:>10} | {:>8} {:>8} | {:>9}",
        "data",
        "t_pvBcnt",
        "t_BUP",
        "t_ParB",
        "t_RECEIPT",
        "t_live",
        "W_BUP",
        "W_RCPT",
        "W_live",
        "W_pvBcnt",
        "rho_ParB",
        "rho_RCPT",
        "r"
    );
    for r in table3_rows() {
        println!(
            "{:<5} {:>9.3} {:>9.3} {:>9.3} {:>10.3} {:>8.3} | {:>9} {:>9} {:>9} {:>10} | {:>8} {:>8} | {:>9.1}",
            r.workload,
            r.time_pvbcnt_secs,
            r.time_bup_secs,
            r.time_parb_secs,
            r.time_receipt_secs,
            r.time_peel_live_secs,
            millions(r.wedges_bup),
            millions(r.wedges_receipt),
            millions(r.wedges_peel_live),
            millions(r.wedges_pvbcnt),
            r.rounds_parb,
            r.rounds_receipt,
            r.peel_to_count_ratio,
        );
    }
}

/// Figure 4: cumulative tip-number distribution for the Tr analog.
fn fig4() {
    header("Figure 4: tip-number cumulative distribution (Tr analog)");
    for side in [Side::U, Side::V] {
        let w = workload_by_label(&format!("Tr{side}")).unwrap();
        let d = run_receipt(&w, &Config::default());
        let cdf = d.cumulative_distribution();
        println!("-- {} (theta_max = {}) --", w.label(), d.theta_max());
        println!("{:>12} {:>10}", "theta", "% <= theta");
        // Sample the curve at log-spaced thetas like the paper's log x-axis.
        let mut last_printed = f64::NEG_INFINITY;
        for &(theta, frac) in &cdf {
            let pct = frac * 100.0;
            if pct - last_printed >= 4.0 || theta == cdf.last().unwrap().0 {
                println!("{:>12} {:>10.2}", theta, pct);
                last_printed = pct;
            }
        }
        // Paper's observation: the overwhelming majority of vertices sit far
        // below θ_max.
        let theta_max = d.theta_max();
        let below = d
            .tip
            .iter()
            .filter(|&&t| (t as f64) < 0.03 * theta_max as f64)
            .count();
        println!(
            "   {:.2}% of vertices have theta < 3% of theta_max",
            100.0 * below as f64 / d.tip.len() as f64
        );
        // k-tip sanity: the densest tip is non-trivial.
        let top = hierarchy::vertices_with_tip_at_least(&d.tip, theta_max);
        println!("   {} vertices attain theta_max", top.len());
    }
}

/// Figure 5: execution time vs number of partitions P.
fn fig5() {
    header("Figure 5: RECEIPT execution time (s) vs P");
    let sweeps = [10usize, 25, 50, 100, 150, 250, 400];
    print!("{:<5}", "data");
    for p in sweeps {
        print!(" {:>8}", format!("P={p}"));
    }
    println!();
    for label in ["TrU", "OrU", "EnU", "LjU", "DeU", "ItU"] {
        let w = workload_by_label(label).unwrap();
        print!("{:<5}", w.label());
        for p in sweeps {
            let d = run_receipt(&w, &Config::default().with_partitions(p));
            print!(" {:>8}", secs(d.metrics.time_total()));
        }
        println!();
    }
}

/// Figures 6 and 7: effect of the workload optimizations. Values are
/// normalized against RECEIPT-- (no DGM, no HUC), as in the paper.
fn fig6_fig7(wedges: bool) {
    header(if wedges {
        "Figure 6: normalized wedge traversal (RECEIPT / RECEIPT- / RECEIPT--)"
    } else {
        "Figure 7: normalized execution time (RECEIPT / RECEIPT- / RECEIPT--)"
    });
    println!(
        "{:<5} {:>10} {:>10} {:>10}",
        "data", "RECEIPT", "RECEIPT-", "RECEIPT--"
    );
    for w in all_workloads() {
        let full = run_receipt(&w, &Config::default());
        let minus = run_receipt(&w, &Config::default().without_dgm());
        let mm = run_receipt(&w, &Config::default().baseline_variant());
        let val = |d: &receipt::TipDecomposition| {
            if wedges {
                d.metrics.wedges_total() as f64
            } else {
                d.metrics.time_total().as_secs_f64()
            }
        };
        let base = val(&mm).max(1e-12);
        println!(
            "{:<5} {:>10.3} {:>10.3} {:>10.3}",
            w.label(),
            val(&full) / base,
            val(&minus) / base,
            1.0
        );
    }
}

/// Figures 8 and 9: per-phase breakup of wedges / time.
fn fig8_fig9(wedges: bool) {
    header(if wedges {
        "Figure 8: wedge-traversal breakup (%)"
    } else {
        "Figure 9: execution-time breakup (%)"
    });
    println!(
        "{:<5} {:>10} {:>12} {:>12}",
        "data", "pvBcnt", "RECEIPT_CD", "RECEIPT_FD"
    );
    for w in all_workloads() {
        let d = run_receipt(&w, &Config::default());
        let (c, cd, fd) = if wedges {
            d.metrics.wedge_breakdown()
        } else {
            d.metrics.time_breakdown()
        };
        println!(
            "{:<5} {:>10.1} {:>12.1} {:>12.1}",
            w.label(),
            c * 100.0,
            cd * 100.0,
            fd * 100.0
        );
    }
}

/// §1 motivation: projecting a bipartite graph to run unipartite
/// decompositions blows up the edge count (quadratically in hub degrees).
fn projection_motivation() {
    header("§1 motivation: unipartite-projection blowup (|E_proj| / |E|)");
    println!(
        "{:<5} {:>10} {:>14} {:>10} {:>14} {:>10}",
        "name", "|E|", "projU edges", "blowupU", "projV edges", "blowupV"
    );
    for spec in bigraph::datasets::all() {
        let g = spec.generate();
        let pu = bigraph::projection::projected_edge_count(g.view(Side::U));
        let pv = bigraph::projection::projected_edge_count(g.view(Side::V));
        println!(
            "{:<5} {:>10} {:>14} {:>10.1} {:>14} {:>10.1}",
            spec.name,
            g.num_edges(),
            pu,
            pu as f64 / g.num_edges() as f64,
            pv,
            pv as f64 / g.num_edges() as f64,
        );
    }
}

/// §7 extension: RECEIPT-style parallel wing decomposition vs sequential
/// bottom-up edge peeling, on downscaled analogs (edge peeling is an order
/// of magnitude costlier than vertex peeling, as the paper notes).
fn wing_extension() {
    header("§7 extension: wing decomposition (sequential vs RECEIPT-style parallel)");
    println!(
        "{:<10} {:>8} {:>10} {:>10} {:>9} {:>9} {:>8} {:>9}",
        "graph", "|E|", "t_seq(s)", "t_rcpt(s)", "work_seq", "work_rcpt", "rounds", "max_wing"
    );
    for r in wing_rows() {
        println!(
            "{:<10} {:>8} {:>10.3} {:>10.3} {:>9} {:>9} {:>8} {:>9}",
            r.graph,
            r.num_edges,
            r.time_seq_secs,
            r.time_par_secs,
            millions(r.work_seq),
            millions(r.work_par),
            r.sync_rounds,
            r.max_wing,
        );
    }
    println!("(work in millions of intersection steps; wing numbers verified equal)");
}

/// Batch-dynamic maintenance: per-batch incremental update cost against
/// the from-scratch recount + re-peel it replaces. Divergence from the
/// oracles panics inside `dynamic_rows`.
fn dynamic_experiment() {
    header("dynamic: batch-dynamic butterfly + tip maintenance vs from-scratch");
    println!(
        "{:<10} {:>5} {:>5} {:>5} {:>7} {:>7} {:>9} {:>9} {:>9} {:>15} {:>8} {:>10} {:>10}",
        "family",
        "batch",
        "+ins",
        "-del",
        "gained",
        "lost",
        "total_bf",
        "W_upd",
        "W_scratch",
        "policy",
        "dirty%",
        "t_upd(s)",
        "t_scr(s)"
    );
    for r in dynamic_rows() {
        println!(
            "{:<10} {:>5} {:>5} {:>5} {:>7} {:>7} {:>9} {:>9} {:>9} {:>15} {:>8.2} {:>10.4} {:>10.4}",
            r.family,
            r.batch,
            r.inserted,
            r.deleted,
            r.butterflies_gained,
            r.butterflies_lost,
            r.total_butterflies,
            r.update_work,
            r.recount_work,
            r.policy.as_str(),
            r.dirty_fraction * 100.0,
            r.time_update_secs,
            r.time_recount_secs,
        );
    }
    println!("(W = wedge/intersection work; every row recount- and BUP-verified)");
}

/// `smoke`: the oracle-checked CI workload, in human-readable form.
fn smoke() {
    header("smoke: RECEIPT vs oracles on small deterministic graphs");
    let s = smoke_report();
    println!(
        "{:<14} {:>4} {:>6} {:>9} {:>12} {:>12}",
        "graph", "side", "|tips|", "theta_max", "butterflies", "matches_bup"
    );
    for r in &s.tip_runs {
        println!(
            "{:<14} {:>4} {:>6} {:>9} {:>12} {:>12}",
            r.graph,
            r.side.suffix(),
            r.num_vertices,
            r.theta_max,
            r.butterflies,
            r.matches_bup,
        );
    }
    println!(
        "{:<14} {:>6} {:>9} {:>18}",
        "graph", "|E|", "max_wing", "matches_sequential"
    );
    for r in &s.wing_runs {
        println!(
            "{:<14} {:>6} {:>9} {:>18}",
            r.graph, r.num_edges, r.max_wing, r.matches_sequential,
        );
    }
    let all_ok = s.tip_runs.iter().all(|r| r.matches_bup)
        && s.wing_runs.iter().all(|r| r.matches_sequential);
    assert!(all_ok, "smoke run diverged from the oracles");
    println!("all runs match their oracles");
}

/// Figures 10 and 11: self-relative parallel speedup. `nproc` can promise
/// more cores than a shared machine delivers, so a speedup means something
/// only beside a usable-core calibration taken in the same run. The tips
/// must be identical at every thread count (asserted). See EXPERIMENTS.md.
fn fig10_fig11(side: Side) {
    header(&format!(
        "Figure {}: parallel speedup peeling {side} (read beside a usable-core \
         calibration from the same run: see EXPERIMENTS.md)",
        if side == Side::U { 10 } else { 11 }
    ));
    let threads = [1usize, 2, 4];
    print!("{:<5}", "data");
    for t in threads {
        print!(" {:>10}", format!("T={t}"));
    }
    println!("   (speedup vs T=1)");
    for spec in bigraph::datasets::all() {
        let w = workload_by_label(&format!("{}{}", spec.name, side.suffix())).unwrap();
        let mut base = 0.0f64;
        print!("{:<5}", w.label());
        let mut tips1: Option<Vec<u64>> = None;
        for t in threads {
            let d = run_receipt(&w, &Config::default().with_threads(t));
            let secs = d.metrics.time_total().as_secs_f64();
            if t == 1 {
                base = secs;
                tips1 = Some(d.tip);
            } else {
                assert_eq!(
                    tips1.as_ref().unwrap(),
                    &d.tip,
                    "{}: tips changed with T={t}",
                    w.label()
                );
            }
            print!(" {:>10.2}", base / secs.max(1e-12));
        }
        println!();
    }
}
