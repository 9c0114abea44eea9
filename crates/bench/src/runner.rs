//! Shared experiment plumbing: dataset instantiation, algorithm runners,
//! structured row builders, and row formatting for the `repro` harness.

use crate::report::{
    SchedulerReport, SmokeReport, SmokeTipRun, SmokeWingRun, Table2Row, Table3Row, WingRow,
};
use bigraph::{datasets::AnalogSpec, stats, BipartiteCsr, Side};
use rayon::prelude::*;
use receipt::engine::{EngineOptions, StreamEngine};
use receipt::{bup::BaselineResult, Config, TipDecomposition};
use std::time::{Duration, Instant};

/// A dataset instantiated for one peeled side (the paper's `ItU`, `ItV`, …
/// naming).
pub struct Workload {
    pub spec: AnalogSpec,
    pub side: Side,
    pub graph: BipartiteCsr,
}

impl Workload {
    pub fn label(&self) -> String {
        format!("{}{}", self.spec.name, self.side.suffix())
    }
}

/// Instantiates every analog × side pair, in Table 2/3 order.
pub fn all_workloads() -> Vec<Workload> {
    let mut out = Vec::new();
    for spec in bigraph::datasets::all() {
        let graph = spec.generate();
        for side in [Side::U, Side::V] {
            out.push(Workload {
                spec,
                side,
                graph: graph.clone(),
            });
        }
    }
    out
}

/// Instantiates a single named workload, e.g. `TrU` or `it v`.
pub fn workload_by_label(label: &str) -> Option<Workload> {
    let label = label.trim();
    if label.len() < 3 {
        return None;
    }
    let (name, side) = label.split_at(label.len() - 1);
    let side = match side.chars().next()?.to_ascii_uppercase() {
        'U' => Side::U,
        'V' => Side::V,
        _ => return None,
    };
    let spec = bigraph::datasets::by_name(name.trim())?;
    Some(Workload {
        spec,
        side,
        graph: spec.generate(),
    })
}

/// One Table 3 style measurement of RECEIPT on a workload.
pub fn run_receipt(w: &Workload, config: &Config) -> TipDecomposition {
    receipt::tip_decompose(&w.graph, w.side, config)
}

pub fn run_bup(w: &Workload) -> BaselineResult {
    receipt::bup::bup_decompose(&w.graph, w.side, 4)
}

pub fn run_parb(w: &Workload) -> BaselineResult {
    receipt::parb::parb_decompose(&w.graph, w.side)
}

/// `peel_live` from the counts BUP starts from: `(tips, peel wedges, peel
/// time)`. Counting is not timed; BUP's own run reports it.
pub fn run_peel_live(w: &Workload) -> (Vec<u64>, u64, Duration) {
    let counts =
        butterfly::count::vertex_priority_counts(&bigraph::RankedGraph::from_csr(&w.graph));
    let t0 = Instant::now();
    let (tip, wedges) = receipt::bup::peel_live(w.graph.view(w.side), counts.side(w.side), 4);
    (tip, wedges, t0.elapsed())
}

/// FNV-1a over little-endian `u64` words — the digest behind
/// `WingRow::wing_checksum` and `DynamicRow::tip_checksum`
/// (thread-count-invariant decomposition id). Canonical implementation
/// lives with the dynamic-maintenance layer.
pub use receipt::dynamic::fnv1a_u64;

/// Snapshot of the vendored pool's work-stealing counters, shaped for the
/// JSON report. Taken after an experiment ran, so it covers the whole
/// process's scheduling activity.
pub fn scheduler_report() -> SchedulerReport {
    let stats = rayon::scheduler_stats();
    SchedulerReport {
        schema_version: receipt::report::SCHEMA_VERSION,
        threads: rayon::current_num_threads(),
        workers_spawned: stats.workers_spawned,
        jobs_submitted: stats.jobs_submitted,
        tasks_executed: stats.tasks_executed,
        helper_executed: stats.helper_executed,
        per_worker_executed: stats.per_worker_executed,
        injector_pushes: stats.injector_pushes,
        injector_pops: stats.injector_pops,
        steals_attempted: stats.steals_attempted,
        steals_succeeded: stats.steals_succeeded,
        idle_timeouts: stats.idle_timeouts,
    }
}

/// Drives a deterministic fork-join-plus-sort workload through the pool so
/// a following [`scheduler_report`] reflects real nested-parallel
/// scheduling even when an experiment's graphs are small (the smoke
/// workload is seconds-scale by design). At budget 1 every construct here
/// takes the inline fast path — no jobs are submitted, so the `t=1`
/// zero-steal CI gate still observes a quiet scheduler.
pub fn scheduler_exercise() {
    fn mix(x: u64) -> u64 {
        let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
    // ~50µs of hashing per leaf keeps owners busy long enough for thieves
    // to wake and steal the siblings off their deques.
    fn leaf(x: u64) -> u64 {
        (0..20_000u64).fold(x, |acc, i| mix(acc ^ i))
    }
    fn tree(depth: u32, x: u64) -> u64 {
        if depth == 0 {
            return leaf(x);
        }
        let (a, b) = rayon::join(|| tree(depth - 1, 2 * x), || tree(depth - 1, 2 * x + 1));
        a ^ b
    }
    let mut v: Vec<u64> = (0..200_000u64).map(mix).collect();
    v.par_sort_unstable();
    std::hint::black_box(tree(8, 1));
    std::hint::black_box(v);
}

/// Seconds with 3 decimals, matching the paper's `t(s)` column.
pub fn secs(d: Duration) -> String {
    format!("{:.3}", d.as_secs_f64())
}

/// Billions (the paper reports wedges in billions); here workloads are
/// laptop-scale so we print millions.
pub fn millions(x: u64) -> String {
    format!("{:.2}", x as f64 / 1e6)
}

// ---------------------------------------------------------------------------
// Structured row builders — the single execution path behind both the text
// tables and `repro <exp> --json`.
// ---------------------------------------------------------------------------

/// Table 2 rows: dataset statistics, including θ_max for both sides.
pub fn table2_rows() -> Vec<Table2Row> {
    bigraph::datasets::all()
        .iter()
        .map(|spec| {
            let g = spec.generate();
            let vu = g.view(Side::U);
            let vv = g.view(Side::V);
            let counts = butterfly::par_count_graph(&g);
            let wedges = stats::total_primary_wedges(vu) + stats::total_primary_wedges(vv);
            let cfg = Config::default();
            let tu = receipt::tip_decompose(&g, Side::U, &cfg);
            let tv = receipt::tip_decompose(&g, Side::V, &cfg);
            Table2Row {
                name: spec.name.to_string(),
                num_u: g.num_u(),
                num_v: g.num_v(),
                num_edges: g.num_edges(),
                avg_degree_u: stats::avg_primary_degree(vu),
                avg_degree_v: stats::avg_primary_degree(vv),
                butterflies: counts.total(),
                wedges,
                theta_max_u: tu.theta_max(),
                theta_max_v: tv.theta_max(),
            }
        })
        .collect()
}

/// Table 3 rows. Panics if any algorithm diverges from BUP — the
/// equivalence is the experiment's premise.
pub fn table3_rows() -> Vec<Table3Row> {
    all_workloads()
        .iter()
        .map(|w| {
            let bup = run_bup(w);
            let parb = run_parb(w);
            let rcpt = run_receipt(w, &Config::default());
            let (live_tip, live_wedges, live_time) = run_peel_live(w);
            assert_eq!(bup.tip, parb.tip, "{}: ParB diverged", w.label());
            assert_eq!(bup.tip, rcpt.tip, "{}: RECEIPT diverged", w.label());
            assert_eq!(bup.tip, live_tip, "{}: peel_live diverged", w.label());
            Table3Row {
                workload: w.label(),
                time_pvbcnt_secs: bup.time_count.as_secs_f64(),
                time_bup_secs: bup.time_peel.as_secs_f64(),
                time_parb_secs: parb.time_peel.as_secs_f64(),
                time_receipt_secs: rcpt.metrics.time_total().as_secs_f64(),
                time_peel_live_secs: live_time.as_secs_f64(),
                wedges_bup: bup.wedges_count + bup.wedges_peel,
                wedges_receipt: rcpt.metrics.wedges_total(),
                wedges_peel_live: bup.wedges_count + live_wedges,
                wedges_pvbcnt: bup.wedges_count,
                rounds_parb: parb.rounds,
                rounds_receipt: rcpt.metrics.sync_rounds,
                peel_to_count_ratio: bup.wedges_peel as f64 / bup.wedges_count.max(1) as f64,
                tips_match: true,
            }
        })
        .collect()
}

/// The §7 wing-extension workloads (downscaled: edge peeling is an order
/// of magnitude costlier than vertex peeling).
pub fn wing_workloads() -> Vec<(&'static str, BipartiteCsr)> {
    vec![
        (
            "zipf-40k",
            bigraph::gen::zipf(6_000, 2_500, 40_000, 0.5, 1.0, 5),
        ),
        (
            "blocks",
            bigraph::gen::planted_bicliques(3_000, 3_000, 30, 8, 8, 15_000, 6),
        ),
        (
            "pa-30k",
            bigraph::gen::preferential_attachment(10_000, 4_000, 3, 7),
        ),
    ]
}

/// Wing-extension rows. Panics if the parallel wing numbers diverge from
/// the sequential peel.
pub fn wing_rows() -> Vec<WingRow> {
    wing_workloads()
        .iter()
        .map(|(name, g)| {
            let view = g.view(Side::U);
            let t0 = std::time::Instant::now();
            let seq = receipt::wing::wing_decompose(view, 4);
            let time_seq = t0.elapsed();
            let t1 = std::time::Instant::now();
            let (par, metrics) = receipt::wing_parallel::receipt_wing_decompose(view, 50, 4);
            let time_par = t1.elapsed();
            assert_eq!(seq.wing, par.wing, "{name}: parallel wing diverged");
            WingRow {
                graph: name.to_string(),
                num_edges: g.num_edges(),
                time_seq_secs: time_seq.as_secs_f64(),
                time_par_secs: time_par.as_secs_f64(),
                work_seq: seq.work,
                work_par: par.work,
                sync_rounds: metrics.sync_rounds,
                max_wing: par.max_wing(),
                wings_match: true,
                wing_checksum: fnv1a_u64(&par.wing),
            }
        })
        .collect()
}

/// The `repro dynamic` workloads: downscaled graph families with a seeded
/// insert/delete schedule each. `(family, graph, batches, ops_per_batch,
/// schedule seed, dirty threshold)` — thresholds are chosen so the rows
/// exercise both the seeded re-peel and the full-recompute fallback.
pub fn dynamic_workloads() -> Vec<(&'static str, BipartiteCsr, usize, usize, u64, f64)> {
    vec![
        (
            "zipf-2k",
            bigraph::gen::zipf(700, 400, 2_000, 0.5, 0.9, 31),
            4,
            120,
            131,
            0.2,
        ),
        (
            "blocks-1k",
            bigraph::gen::planted_bicliques(400, 400, 8, 5, 5, 800, 33),
            4,
            100,
            133,
            0.01,
        ),
        (
            "pa-2k",
            bigraph::gen::preferential_attachment(800, 500, 3, 35),
            4,
            120,
            135,
            0.2,
        ),
    ]
}

/// `repro dynamic` rows: drive each family's schedule through a verifying
/// [`StreamEngine`] — the same epoch-snapshot layer behind `tipdecomp
/// stream`/`serve` — and price every batch against the from-scratch
/// pipeline (parallel recount + BUP re-peel on both sides) that the
/// engine's `verify` mode already runs. Panics if the incremental state
/// diverges from the from-scratch oracles — the differential equality is
/// the experiment's premise, exactly like `table3_rows`.
pub fn dynamic_rows() -> Vec<crate::report::DynamicRow> {
    let mut rows = Vec::new();
    for (family, graph, batches, ops, seed, dirty_threshold) in dynamic_workloads() {
        let schedule = bigraph::dynamic::seeded_schedule(&graph, batches, ops, seed);
        let engine = StreamEngine::new(
            graph,
            EngineOptions {
                config: Config::default().with_partitions(8),
                dirty_threshold,
                verify: true,
                ..EngineOptions::default()
            },
        );
        for (batch_idx, batch) in schedule.iter().enumerate() {
            let outcome = engine
                .apply_batch(batch)
                .unwrap_or_else(|e| panic!("{family} batch {batch_idx}: {e}"));
            let scratch = outcome.scratch.as_ref().expect("verifying engine");
            let update = outcome.update(Side::U);
            let snap = &outcome.snapshot;
            rows.push(crate::report::DynamicRow {
                family: family.to_string(),
                batch: batch_idx,
                inserted: outcome.delta.application.inserted.len(),
                deleted: outcome.delta.application.deleted.len(),
                butterflies_gained: outcome.delta.gained,
                butterflies_lost: outcome.delta.lost,
                total_butterflies: snap.total_butterflies(),
                update_work: outcome.delta.work,
                recount_work: scratch.counts.wedges_traversed + scratch.peel_wedges,
                policy: update.policy,
                dirty_fraction: update.dirty_fraction,
                theta_max: snap.theta_max(Side::U),
                tip_checksum: snap.tip_checksum(Side::U),
                counts_match_recount: true,
                tips_match_bup: true,
                time_update_secs: outcome.time.as_secs_f64(),
                time_recount_secs: outcome.time_verify.expect("verifying engine").as_secs_f64(),
            });
        }
    }
    rows
}

/// `repro smoke`: seconds-scale deterministic runs on small generated
/// graphs, cross-checked against the sequential (BUP) and naive
/// (wedge-hashing) oracles. This is the workload behind the committed
/// golden snapshot `tests/golden/repro_smoke.json`.
pub fn smoke_report() -> SmokeReport {
    let zipf = bigraph::gen::zipf(400, 200, 1_500, 0.6, 0.9, 11);
    let tip_graphs: Vec<(&str, BipartiteCsr, Side)> = vec![
        (
            "blocks-30x30",
            bigraph::gen::planted_bicliques(30, 30, 2, 4, 4, 60, 5),
            Side::U,
        ),
        ("zipf-400x200", zipf.clone(), Side::U),
        ("zipf-400x200", zipf, Side::V),
    ];
    let cfg = Config::default().with_partitions(8);
    let tip_runs = tip_graphs
        .iter()
        .map(|(name, g, side)| {
            let d = receipt::tip_decompose(g, *side, &cfg);
            let oracle = receipt::bup::bup_decompose(g, *side, cfg.heap_arity);
            SmokeTipRun {
                graph: name.to_string(),
                side: *side,
                config: cfg.clone(),
                num_vertices: d.tip.len(),
                theta_max: d.theta_max(),
                tip: d.tip.clone(),
                butterflies: butterfly::naive::naive_total(g),
                matches_bup: d.tip == oracle.tip,
                metrics: d.metrics.clone(),
            }
        })
        .collect();
    let wing_graphs: Vec<(&str, BipartiteCsr)> = vec![
        (
            "blocks-60x60",
            bigraph::gen::planted_bicliques(60, 60, 3, 4, 4, 120, 9),
        ),
        (
            "zipf-300x150",
            bigraph::gen::zipf(300, 150, 900, 0.5, 0.8, 3),
        ),
    ];
    let wing_runs = wing_graphs
        .iter()
        .map(|(name, g)| {
            let view = g.view(Side::U);
            let seq = receipt::wing::wing_decompose(view, 4);
            let (par, metrics) = receipt::wing_parallel::receipt_wing_decompose(view, 6, 4);
            SmokeWingRun {
                graph: name.to_string(),
                num_edges: g.num_edges(),
                max_wing: par.max_wing(),
                wing: par.wing.clone(),
                matches_sequential: par.wing == seq.wing,
                wing_metrics: metrics,
            }
        })
        .collect();
    SmokeReport {
        tip_runs,
        wing_runs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_labels() {
        let w = workload_by_label("ItU").unwrap();
        assert_eq!(w.label(), "ItU");
        assert_eq!(w.side, Side::U);
        assert!(workload_by_label("XxU").is_none());
        assert!(workload_by_label("U").is_none());
        let w = workload_by_label("tr v").unwrap();
        assert_eq!(w.label(), "TrV");
    }

    #[test]
    fn formatting() {
        assert_eq!(secs(Duration::from_millis(1500)), "1.500");
        assert_eq!(millions(2_500_000), "2.50");
    }

    #[test]
    fn wing_checksum_is_order_and_value_sensitive() {
        assert_eq!(fnv1a_u64(&[]), 0xcbf2_9ce4_8422_2325);
        assert_ne!(fnv1a_u64(&[1, 2, 3]), fnv1a_u64(&[3, 2, 1]));
        assert_ne!(fnv1a_u64(&[1, 2, 3]), fnv1a_u64(&[1, 2, 4]));
        assert_eq!(fnv1a_u64(&[7, 8]), fnv1a_u64(&[7, 8]));
    }

    #[test]
    fn scheduler_report_is_internally_consistent() {
        scheduler_exercise();
        let report = scheduler_report();
        assert_eq!(report.threads, rayon::current_num_threads());
        assert_eq!(report.per_worker_executed.len(), report.workers_spawned);
        assert!(report.steals_succeeded <= report.steals_attempted);
        assert_eq!(
            report.tasks_executed,
            report.helper_executed + report.per_worker_executed.iter().sum::<u64>()
        );
    }
}
