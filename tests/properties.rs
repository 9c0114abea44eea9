//! Property-based tests over random bipartite graphs: structural
//! invariants of counting, coarse decomposition, tip numbers, and the
//! k-tip hierarchy.

use bigraph::{builder::from_edges, Side};
use proptest::prelude::*;
use receipt::{bup, cd, hierarchy, tip_decompose, Config};

/// Strategy: a random edge list over bounded side sizes.
fn arb_graph() -> impl Strategy<Value = bigraph::BipartiteCsr> {
    (2usize..24, 2usize..24).prop_flat_map(|(nu, nv)| {
        proptest::collection::vec((0..nu as u32, 0..nv as u32), 0..160)
            .prop_map(move |edges| from_edges(nu, nv, &edges).unwrap())
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn counting_matches_naive(g in arb_graph()) {
        let fast = butterfly::count_graph(&g);
        let slow = butterfly::naive::naive_counts(&g);
        prop_assert_eq!(&fast.u, &slow.u);
        prop_assert_eq!(&fast.v, &slow.v);
        // Side sums agree: each butterfly has two vertices per side.
        prop_assert_eq!(fast.u.iter().sum::<u64>(), fast.v.iter().sum::<u64>());
    }

    #[test]
    fn receipt_equals_bup(g in arb_graph(), p in 1usize..9) {
        for side in [Side::U, Side::V] {
            let truth = bup::bup_decompose(&g, side, 4);
            for (huc, dgm) in [(true, true), (true, false), (false, true), (false, false)] {
                let cfg = Config {
                    huc,
                    dgm,
                    ..Config::default().with_partitions(p)
                };
                let r = tip_decompose(&g, side, &cfg);
                prop_assert_eq!(&truth.tip, &r.tip, "huc {}, dgm {}", huc, dgm);
            }
        }
    }

    #[test]
    fn peel_live_equals_peel_all(g in arb_graph(), arity in 2usize..9) {
        let counts = butterfly::count_graph(&g);
        for side in [Side::U, Side::V] {
            let view = g.view(side);
            let (all_tips, all_wedges) = bup::peel_all(view, counts.side(side), arity);
            let (live_tips, live_wedges) = bup::peel_live(view, counts.side(side), arity);
            prop_assert_eq!(&all_tips, &live_tips);
            // Each wedge once instead of from both ends, or fewer.
            prop_assert!(2 * live_wedges <= all_wedges);
        }
    }

    #[test]
    fn tip_bounded_by_support_and_by_theta_max_of_neighbors(g in arb_graph()) {
        let counts = butterfly::count_graph(&g);
        let r = tip_decompose(&g, Side::U, &Config::default());
        for (u, &t) in r.tip.iter().enumerate() {
            prop_assert!(t <= counts.u[u]);
        }
        // Vertices with zero butterflies have tip number 0.
        for (u, &c) in counts.u.iter().enumerate() {
            if c == 0 {
                prop_assert_eq!(r.tip[u], 0);
            }
        }
    }

    #[test]
    fn coarse_ranges_partition_and_contain(g in arb_graph(), p in 1usize..6) {
        let cfg = Config::default().with_partitions(p);
        let coarse = cd::coarse_decompose(&g, Side::U, &cfg);
        let truth = bup::bup_decompose(&g, Side::U, 4);
        // Partition: each vertex exactly once.
        let mut seen = vec![false; g.num_u()];
        for (i, subset) in coarse.subsets.iter().enumerate() {
            for &u in subset {
                prop_assert!(!seen[u as usize]);
                seen[u as usize] = true;
                let t = truth.tip[u as usize];
                prop_assert!(coarse.bounds[i] <= t && t < coarse.bounds[i + 1]);
            }
        }
        prop_assert!(seen.iter().all(|&s| s));
        // Ranges are disjoint and ordered.
        prop_assert!(coarse.bounds.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn ktip_support_condition(g in arb_graph()) {
        let r = tip_decompose(&g, Side::U, &Config::default());
        let theta_max = r.theta_max();
        for k in [1, theta_max.div_ceil(2).max(1), theta_max.max(1)] {
            prop_assert_eq!(
                hierarchy::verify_ktip_supports(g.view(Side::U), &r.tip, k),
                None
            );
        }
    }

    #[test]
    fn ktip_components_nest(g in arb_graph()) {
        // Every member of a (k+1)-level is present at level k.
        let r = tip_decompose(&g, Side::U, &Config::default());
        let theta_max = r.theta_max();
        if theta_max >= 2 {
            let hi: Vec<u32> = hierarchy::ktip_components(g.view(Side::U), &r.tip, theta_max)
                .into_iter()
                .flatten()
                .collect();
            let lo: Vec<u32> = hierarchy::ktip_components(g.view(Side::U), &r.tip, 1)
                .into_iter()
                .flatten()
                .collect();
            for u in hi {
                prop_assert!(lo.contains(&u), "vertex {u} vanished down-hierarchy");
            }
        }
    }

    #[test]
    fn wing_numbers_match_oracle(
        (nu, nv) in (2usize..8, 2usize..8),
        seed in 0u64..1000,
    ) {
        let m = nu * nv / 2 + 2;
        let g = bigraph::gen::uniform(nu, nv, m, seed);
        let fast = receipt::wing::wing_decompose(g.view(Side::U), 4);
        let slow = receipt::wing::naive_wing_decompose(g.view(Side::U));
        prop_assert_eq!(fast.wing, slow.wing);
    }

    #[test]
    fn compaction_preserves_tip_numbers_of_survivors(g in arb_graph()) {
        // Removing *zero-butterfly* vertices must not change anyone else's
        // tip number (they contribute no butterflies).
        let counts = butterfly::count_graph(&g);
        let alive_u: Vec<bool> = counts.u.iter().map(|&c| c > 0).collect();
        let alive_v = vec![true; g.num_v()];
        let compacted = bigraph::compact::compact(&g, &alive_u, &alive_v);
        let before = tip_decompose(&g, Side::U, &Config::default()).tip;
        let after = tip_decompose(&compacted, Side::U, &Config::default()).tip;
        for u in 0..g.num_u() {
            if alive_u[u] {
                prop_assert_eq!(before[u], after[u], "u = {}", u);
            }
        }
    }
}
