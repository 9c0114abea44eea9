//! `repro check-threads` on `tipdecomp tip` reports. A report's
//! `config.threads` is the thread count the run was asked for, an input:
//! reports that differ only there agree, while a changed tip fails the
//! gate and the message names its path.

use bigraph::Side;
use receipt::report::TipReport;
use receipt::{tip_decompose, Config};
use std::path::PathBuf;
use std::process::{Command, Output};

/// Decomposes one small graph with `--threads t` and builds its report.
fn tip_report(threads: usize) -> TipReport {
    let g = bigraph::gen::zipf(80, 40, 400, 0.5, 0.9, 4);
    let config = Config::default().with_threads(threads);
    let d = tip_decompose(&g, Side::U, &config);
    TipReport::new("zipf", &config, &d)
}

/// Writes `reports` as JSON files and runs `repro check-threads` on them.
fn check_threads(name: &str, reports: &[TipReport]) -> Output {
    let dir = std::env::temp_dir().join(format!("check-threads-{}-{name}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let paths: Vec<PathBuf> = reports
        .iter()
        .enumerate()
        .map(|(i, report)| {
            let path = dir.join(format!("tip-{i}.json"));
            std::fs::write(&path, serde_json::to_string_pretty(report).unwrap()).unwrap();
            path
        })
        .collect();
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg("check-threads")
        .args(&paths)
        .output()
        .unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
    out
}

#[test]
fn reports_differing_only_in_requested_threads_agree() {
    let (one, two) = (tip_report(1), tip_report(2));
    assert_ne!(one.config.threads, two.config.threads);
    let out = check_threads("threads", &[one, two]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn reports_differing_in_one_tip_fail_naming_it() {
    let one = tip_report(1);
    let mut other = one.clone();
    let u = other.tip.len() / 2;
    other.tip[u] += 1;
    let out = check_threads("tip", &[one, other]);
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains(&format!("`/tip/{u}`")), "{stderr}");
}
