//! Golden-snapshot tests for `repro smoke --json` and `repro dynamic
//! --json`.
//!
//! Runs the real harness binary, scrubs timings, and pins the documents
//! against `tests/golden/repro_{smoke,dynamic}.json` at the repository
//! root. Refresh after an intentional change with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p receipt-bench --test repro_golden
//! ```

use std::path::{Path, PathBuf};
use std::process::Command;

fn golden_path(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("../../tests/golden/{name}"))
}

fn run_repro_json(experiment: &str) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args([experiment, "--json"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "repro {experiment} --json: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).unwrap()
}

fn run_smoke_json() -> String {
    run_repro_json("smoke")
}

fn assert_matches_golden(experiment: &str, golden_file: &str) {
    let doc = run_repro_json(experiment);
    let mut value = serde_json::from_str_value(&doc)
        .unwrap_or_else(|e| panic!("repro emitted invalid JSON ({e}):\n{doc}"));
    receipt::report::scrub_timings(&mut value);
    // Scheduler counters depend on OS scheduling; `repro check-sched`
    // gates on them, snapshots do not.
    receipt::report::scrub_scheduler(&mut value);
    let normalized = serde_json::to_string_pretty(&value).unwrap() + "\n";
    let path = golden_path(golden_file);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, &normalized).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read {path:?}: {e}\nregenerate with: \
             UPDATE_GOLDEN=1 cargo test -p receipt-bench --test repro_golden"
        )
    });
    assert_eq!(
        normalized, golden,
        "{golden_file} drifted; if the change is intentional, regenerate \
         with: UPDATE_GOLDEN=1 cargo test -p receipt-bench --test repro_golden"
    );
}

#[test]
fn smoke_json_matches_golden() {
    assert_matches_golden("smoke", "repro_smoke.json");
}

#[test]
fn dynamic_json_matches_golden() {
    assert_matches_golden("dynamic", "repro_dynamic.json");
}

#[test]
fn dynamic_report_confirms_oracles_and_policies() {
    let doc = run_repro_json("dynamic");
    let report: receipt_bench::report::ReproReport = serde_json::from_str(&doc).unwrap();
    assert_eq!(report.experiment, "dynamic");
    let rows = report.dynamic.expect("dynamic section populated");
    assert!(!rows.is_empty());
    for row in &rows {
        assert!(
            row.counts_match_recount,
            "{} batch {} counts diverged",
            row.family, row.batch
        );
        assert!(
            row.tips_match_bup,
            "{} batch {} tips diverged",
            row.family, row.batch
        );
        assert!(row.dirty_fraction >= 0.0 && row.dirty_fraction <= 1.0);
    }
    // The workloads are sized to exercise both recompute policies.
    use receipt::dynamic::UpdatePolicy;
    assert!(rows.iter().any(|r| r.policy == UpdatePolicy::SeededRepeel));
    assert!(rows.iter().any(|r| r.policy == UpdatePolicy::FullRecompute));
}

#[test]
fn smoke_report_confirms_oracles() {
    // Decode the emitted document with the typed schema and assert every
    // run matched its oracle — the smoke JSON is what CI archives, so the
    // oracle bits must actually be in the document, not just asserted
    // inside the binary.
    let doc = run_smoke_json();
    let report: receipt_bench::report::ReproReport = serde_json::from_str(&doc).unwrap();
    assert_eq!(report.experiment, "smoke");
    let smoke = report.smoke.expect("smoke section populated");
    assert!(!smoke.tip_runs.is_empty() && !smoke.wing_runs.is_empty());
    for run in &smoke.tip_runs {
        assert!(
            run.matches_bup,
            "{} {:?} diverged from BUP",
            run.graph, run.side
        );
        assert_eq!(run.tip.len(), run.num_vertices, "{}", run.graph);
        assert_eq!(
            run.tip.iter().copied().max().unwrap_or(0),
            run.theta_max,
            "{}",
            run.graph
        );
    }
    for run in &smoke.wing_runs {
        assert!(
            run.matches_sequential,
            "{} diverged from the sequential peel",
            run.graph
        );
        assert_eq!(run.wing.len(), run.num_edges, "{}", run.graph);
    }
}
