//! Tip-number distribution exploration (the Figure 4 analysis of the
//! paper) on a generated dataset analog, including the workload metrics
//! that motivate RECEIPT's design.
//!
//! Run with: `cargo run --release --example tip_distribution [It|De|Or|Lj|En|Tr]`

use bigraph::{datasets, Side};
use receipt::{tip_decompose, Config};

fn main() {
    let name = std::env::args().nth(1).unwrap_or_else(|| "It".to_string());
    let spec = datasets::by_name(&name).unwrap_or_else(|| {
        eprintln!("unknown analog {name:?}; pick one of It De Or Lj En Tr");
        std::process::exit(2);
    });
    let graph = spec.generate();
    println!(
        "{} analog ({}): {} x {} vertices, {} edges",
        spec.name,
        spec.paper_description,
        graph.num_u(),
        graph.num_v(),
        graph.num_edges()
    );

    for side in [Side::U, Side::V] {
        let d = tip_decompose(&graph, side, &Config::default());
        let theta_max = d.theta_max();
        println!("\n== {}{} ==", spec.name, side.suffix());
        println!("theta_max = {theta_max}");

        // Deciles of the tip-number distribution (Fig. 4 is the same curve
        // on a log axis).
        let mut sorted = d.tip.clone();
        sorted.sort_unstable();
        print!("deciles:");
        for q in (0..=10).map(|i| i as f64 / 10.0) {
            let idx = ((sorted.len() - 1) as f64 * q) as usize;
            print!(" {}", sorted[idx]);
        }
        println!();

        // The paper's key observation: maxima are extreme outliers.
        let p999 = sorted[(sorted.len() - 1) * 999 / 1000];
        println!(
            "99.9th percentile = {p999} ({:.4}% of theta_max)",
            100.0 * p999 as f64 / theta_max.max(1) as f64
        );

        // Workload summary (Table 3 quantities for this run).
        let m = &d.metrics;
        println!(
            "wedges: total {} | pvBcnt {} | CD {} | FD {}",
            m.wedges_total(),
            m.wedges_count,
            m.wedges_cd,
            m.wedges_fd
        );
        println!(
            "sync rounds = {}, HUC recounts = {}, subsets = {}",
            m.sync_rounds, m.recounts, m.partitions_used
        );
    }
}
