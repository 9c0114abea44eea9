//! `repro`'s argument handling: `--help` lists every experiment and check
//! subcommand, and an unknown experiment names the known ones.

use std::process::{Command, Output};

const EXPERIMENTS: &[&str] = &[
    "table2",
    "table3",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
    "wing",
    "dynamic",
    "projection",
    "smoke",
    "all",
];

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .unwrap()
}

/// The first word of each line indented by two spaces: the names
/// `--help` lists.
fn listed_names(text: &str) -> Vec<&str> {
    text.lines()
        .filter_map(|line| line.strip_prefix("  "))
        .filter(|entry| !entry.starts_with(' '))
        .filter_map(|entry| entry.split_whitespace().next())
        .collect()
}

#[test]
fn help_lists_every_experiment_and_check() {
    for flag in ["--help", "-h", "help"] {
        let out = repro(&[flag]);
        assert_eq!(out.status.code(), Some(0), "repro {flag}");
        assert!(out.stderr.is_empty(), "repro {flag} wrote to stderr");
        let text = String::from_utf8(out.stdout).unwrap();
        let mut expected = EXPERIMENTS.to_vec();
        expected.extend(["check-threads", "check-sched"]);
        assert_eq!(listed_names(&text), expected, "repro {flag}:\n{text}");
    }
}

#[test]
fn unknown_experiment_exits_2_naming_the_experiments() {
    for args in [&["bogus"][..], &["bogus", "--json"]] {
        let out = repro(args);
        assert_eq!(out.status.code(), Some(2), "repro {args:?}");
        let err = String::from_utf8(out.stderr).unwrap();
        assert!(err.contains("unknown experiment `bogus`"), "{err}");
        for name in EXPERIMENTS {
            assert!(
                err.contains(name),
                "repro {args:?} does not name {name}: {err}"
            );
        }
    }
}
