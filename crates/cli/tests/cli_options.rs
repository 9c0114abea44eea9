//! The option table seen from outside: the `tipdecomp` binary rejects
//! what no table entry declares — exit 2, the usage text, the offending
//! option named — and takes options in any position.

use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_tipdecomp"))
}

#[test]
fn undeclared_options_and_missing_values_exit_2_naming_the_option() {
    for (line, named) in [
        ("tip it.tsv --no-hcu --partiton 7 --sied V", "--no-hcu"),
        (
            "serve it.tsv --checkpoint_every 3 --requests R",
            "--checkpoint_every",
        ),
        ("tip it.tsv --output", "--output"),
    ] {
        let args: Vec<&str> = line.split(' ').collect();
        let out = bin().args(&args).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(named), "{args:?}: {stderr}");
        assert!(stderr.contains("USAGE"), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} ran instead of failing");
    }
}

#[test]
fn side_may_come_before_the_input_file() {
    let dir = std::env::temp_dir().join("tipdecomp_options_side");
    std::fs::create_dir_all(&dir).unwrap();
    let graph = dir.join("g.tsv");
    // One butterfly (u0, u1 × v0, v1) plus a pendant edge (u2, v0).
    std::fs::write(&graph, "% fixture\n0 0\n0 1\n1 0\n1 1\n2 0\n").unwrap();
    let graph = graph.to_str().unwrap();
    let first = bin().args(["tip", "--side", "V", graph]).output().unwrap();
    assert!(
        first.status.success(),
        "{}",
        String::from_utf8_lossy(&first.stderr)
    );
    let last = bin().args(["tip", graph, "--side", "V"]).output().unwrap();
    assert_eq!(first.stdout, last.stdout);
    // Both V vertices sit on the one butterfly.
    let stdout = String::from_utf8_lossy(&first.stdout);
    assert_eq!(stdout, "# vertex\ttip_number\n0\t1\n1\t1\n");
    std::fs::remove_dir_all(&dir).ok();
}
