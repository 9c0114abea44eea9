//! Cross-algorithm equivalence: Theorem 2 of the paper says RECEIPT
//! computes exactly the tip numbers of sequential BUP, for any partition
//! count, thread count, and optimization toggles. ParB must agree too.

use bigraph::{gen, Side};
use receipt::{bup, parb, tip_decompose, Config};

fn graphs() -> Vec<(&'static str, bigraph::BipartiteCsr)> {
    vec![
        ("uniform", gen::uniform(60, 50, 400, 1)),
        ("zipf-mild", gen::zipf(80, 40, 500, 0.4, 0.7, 2)),
        ("zipf-skewed", gen::zipf(90, 30, 450, 0.3, 1.2, 3)),
        ("blocks", gen::planted_bicliques(48, 48, 4, 5, 5, 120, 4)),
        ("affiliation", gen::affiliation(70, 50, 6, 2, 0.8, 5)),
        ("sparse", gen::uniform(100, 100, 150, 6)),
        ("dense", gen::uniform(20, 20, 320, 7)),
    ]
}

#[test]
fn receipt_matches_bup_both_sides() {
    for (name, g) in graphs() {
        for side in [Side::U, Side::V] {
            let truth = bup::bup_decompose(&g, side, 4);
            let r = tip_decompose(&g, side, &Config::default().with_partitions(7));
            assert_eq!(truth.tip, r.tip, "{name} side {side}");
        }
    }
}

#[test]
fn parb_matches_bup_both_sides() {
    for (name, g) in graphs() {
        for side in [Side::U, Side::V] {
            let truth = bup::bup_decompose(&g, side, 4);
            let p = parb::parb_decompose(&g, side);
            assert_eq!(truth.tip, p.tip, "{name} side {side}");
        }
    }
}

#[test]
fn receipt_invariant_under_partition_count() {
    let g = gen::zipf(100, 50, 700, 0.5, 0.9, 11);
    let reference = tip_decompose(&g, Side::U, &Config::default().with_partitions(1));
    for p in [2usize, 3, 5, 10, 37, 100, 1000] {
        let r = tip_decompose(&g, Side::U, &Config::default().with_partitions(p));
        assert_eq!(reference.tip, r.tip, "P = {p}");
    }
}

#[test]
fn receipt_invariant_under_optimization_toggles() {
    let g = gen::zipf(90, 45, 600, 0.4, 1.0, 13);
    let full = tip_decompose(&g, Side::U, &Config::default());
    let no_dgm = tip_decompose(&g, Side::U, &Config::default().without_dgm());
    let neither = tip_decompose(&g, Side::U, &Config::default().baseline_variant());
    assert_eq!(full.tip, no_dgm.tip);
    assert_eq!(full.tip, neither.tip);
    // The optimizations must not *increase* traversal.
    assert!(full.metrics.wedges_total() <= neither.metrics.wedges_total());
    assert!(no_dgm.metrics.wedges_total() <= neither.metrics.wedges_total());
}

#[test]
fn receipt_invariant_under_thread_count() {
    let g = gen::zipf(80, 60, 550, 0.5, 0.8, 17);
    let t1 = tip_decompose(&g, Side::U, &Config::default().with_threads(1));
    for t in [2usize, 3, 8] {
        let tt = tip_decompose(&g, Side::U, &Config::default().with_threads(t));
        assert_eq!(t1.tip, tt.tip, "T = {t}");
        // Wedge metrics are deterministic too (iteration structure is
        // thread-independent).
        assert_eq!(t1.metrics.wedges_total(), tt.metrics.wedges_total());
        assert_eq!(t1.metrics.sync_rounds, tt.metrics.sync_rounds);
    }
}

#[test]
fn relabeling_invariance() {
    // Permuting vertex ids must permute tip numbers identically.
    use rand::seq::SliceRandom;
    use rand::SeedableRng;
    let g = gen::zipf(50, 40, 350, 0.5, 0.9, 23);
    let base = tip_decompose(&g, Side::U, &Config::default()).tip;

    let mut rng = rand::rngs::SmallRng::seed_from_u64(99);
    let mut perm_u: Vec<u32> = (0..50).collect();
    let mut perm_v: Vec<u32> = (0..40).collect();
    perm_u.shuffle(&mut rng);
    perm_v.shuffle(&mut rng);
    let permuted_edges: Vec<(u32, u32)> = g
        .edges()
        .map(|(u, v)| (perm_u[u as usize], perm_v[v as usize]))
        .collect();
    let g2 = bigraph::builder::from_edges(50, 40, &permuted_edges).unwrap();
    let permuted = tip_decompose(&g2, Side::U, &Config::default()).tip;
    for u in 0..50usize {
        assert_eq!(base[u], permuted[perm_u[u] as usize], "u = {u}");
    }
}

#[test]
fn tip_numbers_are_upper_bounded_by_butterfly_counts() {
    for (name, g) in graphs() {
        let counts = butterfly::count_graph(&g);
        for side in [Side::U, Side::V] {
            let r = tip_decompose(&g, side, &Config::default());
            for (u, (&t, &c)) in r.tip.iter().zip(counts.side(side)).enumerate() {
                assert!(t <= c, "{name} {side} u{u}: θ={t} > ⋈={c}");
            }
        }
    }
}

#[test]
fn wedge_accounting_is_consistent() {
    // RECEIPT-- (no HUC/DGM): CD peeling must traverse exactly the BUP
    // wedge workload (it peels every vertex once on the static graph),
    // and FD at most that (induced subgraphs shrink).
    let g = gen::zipf(70, 35, 420, 0.5, 0.9, 31);
    let bup_wedges = bigraph::stats::total_primary_wedges(g.view(Side::U));
    let r = tip_decompose(&g, Side::U, &Config::default().baseline_variant());
    assert_eq!(r.metrics.wedges_cd, bup_wedges);
    assert!(r.metrics.wedges_fd <= bup_wedges);
}

#[test]
fn work_counters_are_pinned() {
    // Table 3's machine-independent counters on fixed graphs, under every
    // HUC×DGM toggle: a change to any peel path that moves one shows here.
    // Columns: side, P; ParB ρ, peel wedges (BUP's, which ParB's equal:
    // both walk every wedge from both ends), count wedges, CD ρ, FD
    // wedges, subsets; CD wedges under HUC+DGM, HUC only, neither, DGM
    // only; re-counts under HUC+DGM and HUC only (0 with HUC off).
    let small = gen::zipf(400, 200, 1500, 0.6, 0.9, 11);
    // The shape of perfbench's `tip-static` workload.
    let tip_static = gen::zipf(7000, 3000, 16000, 0.55, 1.25, 1);
    let rows = [
        (
            &small,
            Side::U,
            8,
            [73, 45_858, 3_686, 19, 1_553, 8],
            [10_060, 40_944, 45_858, 7_855],
            [1, 1],
        ),
        (
            &small,
            Side::V,
            8,
            [47, 7_344, 3_686, 10, 410, 7],
            [2_504, 7_344, 7_344, 2_504],
            [0, 0],
        ),
        (
            &tip_static,
            Side::U,
            150,
            [322, 11_827_916, 23_612, 157, 374_400, 76],
            [656_498, 2_608_864, 11_827_916, 792_012],
            [7, 42],
        ),
    ];
    for (
        g,
        side,
        p,
        [parb_rounds, peel_wedges, count_wedges, rho, fd_wedges, subsets],
        cd_wedges,
        recounts,
    ) in rows
    {
        let at = format!("{}x{} side {side}", g.num_u(), g.num_v());
        let parb = parb::parb_decompose(g, side);
        assert_eq!(parb.rounds, parb_rounds, "{at}: ParB rounds");
        assert_eq!(parb.wedges_peel, peel_wedges, "{at}: ParB wedges");
        assert_eq!(
            bup::bup_decompose(g, side, 4).wedges_peel,
            peel_wedges,
            "{at}: BUP wedges"
        );
        let base = Config::default().with_partitions(p);
        let toggles = [
            base.clone(),
            base.clone().without_dgm(),
            base.clone().baseline_variant(),
            Config { huc: false, ..base },
        ];
        for (i, cfg) in toggles.iter().enumerate() {
            let m = tip_decompose(g, side, cfg).metrics;
            let at = format!("{at}, huc {}, dgm {}", cfg.huc, cfg.dgm);
            assert_eq!(m.wedges_count, count_wedges, "{at}: count wedges");
            assert_eq!(m.wedges_cd, cd_wedges[i], "{at}: CD wedges");
            assert_eq!(
                m.recounts,
                recounts.get(i).copied().unwrap_or(0),
                "{at}: re-counts"
            );
            assert_eq!(m.sync_rounds, rho, "{at}: CD rounds");
            assert_eq!(m.wedges_fd, fd_wedges, "{at}: FD wedges");
            assert_eq!(m.partitions_used as u64, subsets, "{at}: subsets");
        }
    }
}
