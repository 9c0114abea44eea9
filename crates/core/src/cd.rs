//! RECEIPT CD — Coarse-grained Decomposition (Algorithm 3).
//!
//! Partitions the peeled side into `P` subsets `U_1 … U_P` whose tip
//! numbers fall in consecutive non-overlapping ranges
//! `[θ(i), θ(i+1))`. Unlike bottom-up peeling, every iteration peels *all*
//! vertices whose support lies anywhere in the current range — thousands of
//! vertices per parallel iteration instead of one support value — which is
//! what collapses the synchronization count ρ from millions to ~1000
//! (Table 3).
//!
//! Also implements the two workload optimizations of §4, each governed by
//! its [`Config`] toggle:
//! * **HUC** — when peeling the active set would traverse more wedges than
//!   re-counting from scratch, re-count;
//! * **DGM** — every round drops its peeled vertices from the live lists it
//!   touched ([`PeelGraph::kill_batch`]), so traversal never scans a peeled
//!   vertex and walks each wedge from one end, probing hub lists instead of
//!   scanning them.

use crate::config::Config;
use crate::metrics::Metrics;
use crate::peel::{peel_vertex, PeelGraph, PeelScratch, WedgeCounter};
use crate::support::SupportVec;
use bigraph::{BipartiteCsr, RankedGraph, Side, VertexId};
use parutil::ScratchPool;
use rayon::prelude::*;
use std::time::Instant;

/// Output of coarse-grained decomposition, consumed by
/// [`crate::fd::fine_decompose`].
#[derive(Debug, Clone)]
pub struct CoarseResult {
    pub side: Side,
    /// Range boundaries: subset `i` owns tip numbers in
    /// `[bounds[i], bounds[i+1])`. `bounds[0] = 0`; the last bound is an
    /// exclusive upper bound (`u64::MAX` when CD overflowed into the extra
    /// `P+1`-th subset, §3.1.1).
    pub bounds: Vec<u64>,
    /// The vertex subsets `U_i`, in peel order.
    pub subsets: Vec<Vec<VertexId>>,
    /// `⋈init`: for `u ∈ U_i`, its support after `U_{i-1}` was fully
    /// peeled and before any `U_i` vertex was — the FD support
    /// initialization (Algorithm 3 lines 6–7).
    pub init_support: Vec<u64>,
    /// Counting + CD metrics (FD adds its own share later).
    pub metrics: Metrics,
}

/// Runs per-vertex counting and coarse-grained decomposition on `side`.
pub fn coarse_decompose(g: &BipartiteCsr, side: Side, config: &Config) -> CoarseResult {
    // ---- Support initialization (pvBcnt) ----
    let t_count = Instant::now();
    let ranked = RankedGraph::from_csr(g);
    let counts = butterfly::parallel::par_vertex_priority_counts(&ranked);
    let time_count = t_count.elapsed();

    let t_cd = Instant::now();
    let view = g.view(side);
    let n = view.num_primary();
    let p_target = config.effective_partitions();

    let support = SupportVec::from_counts(counts.side(side));
    // Static per-vertex wedge counts in G: the proxy findHi balances on.
    let w = bigraph::stats::wedges_per_primary(view);
    let mut remaining_wedges: u64 = w.iter().sum();
    // HUC's re-count cost, of the graph as counted: the live graph only
    // shrinks, so it stays an upper bound — a conservative test.
    let c_rcnt = bigraph::stats::recount_cost(view);
    let mut pg = PeelGraph::new(side, ranked, config.dgm);
    let mut init_support = vec![0u64; n];
    let mut subsets: Vec<Vec<VertexId>> = Vec::new();
    let mut bounds: Vec<u64> = vec![0];
    let mut scale = 1.0f64;

    let wedges_cd = WedgeCounter::new();
    let mut rounds = 0u64;
    let mut recounts = 0u64;
    let scratch_pool = ScratchPool::new(move || PeelScratch::new(n));
    let mut queued = vec![false; n];

    for i in 0..p_target {
        if pg.live_count() == 0 {
            break;
        }
        let theta_lo = *bounds.last().expect("bounds starts non-empty");

        // ⋈init snapshot for every still-alive vertex (lines 6–7).
        snapshot_alive(&pg, &support, &mut init_support);

        // ---- Adaptive range determination (§3.1.1) ----
        let parts_left = (p_target - i) as u64;
        let base_tgt = remaining_wedges.div_ceil(parts_left).max(1);
        let tgt = ((base_tgt as f64) * scale).round().max(1.0) as u64;
        let hi = find_hi(&pg, &support, &w, tgt, theta_lo);
        debug_assert!(hi > theta_lo);

        // ---- Peel the range [theta_lo, hi) to exhaustion ----
        let mut active: Vec<VertexId> = filter_active(&pg, &support, hi);
        let mut subset: Vec<VertexId> = Vec::new();
        while !active.is_empty() {
            rounds += 1;
            pg.kill_batch(&active);
            subset.extend_from_slice(&active);

            let c_peel: u64 = active.iter().map(|&u| pg.peel_cost(u)).sum();
            let use_recount = config.huc && pg.live_count() > 0 && c_peel > c_rcnt;

            if use_recount {
                // HUC (§4.1): re-count butterflies of the live subgraph
                // instead of propagating the active set's updates. The
                // PeelGraph keeps the graph as counted, rank-sorted, so the
                // re-count needs no re-ranking.
                recounts += 1;
                let rc = pg.recount_live();
                wedges_cd.add(rc.wedges_traversed);
                let fresh = rc.side(side);
                let alive_flags = pg.alive_flags();
                fresh.par_iter().enumerate().for_each(|(u, &c)| {
                    if alive_flags[u].load(std::sync::atomic::Ordering::Relaxed) {
                        support.set(u as VertexId, c.max(theta_lo));
                    }
                });
                active = filter_active(&pg, &support, hi);
            } else {
                // Ordinary peel iteration (lines 12–13), parallel over the
                // active set with pooled scratch.
                let iter_wedges = WedgeCounter::new();
                let candidates: Vec<VertexId> = active
                    .par_iter()
                    .fold(Vec::new, |mut acc, &u| {
                        let mut scratch = scratch_pool.acquire();
                        let wc = peel_vertex(
                            &pg,
                            u,
                            theta_lo,
                            &support,
                            pg.alive_flags(),
                            &mut scratch,
                            |u2| acc.push(u2),
                        );
                        iter_wedges.add(wc);
                        acc
                    })
                    .reduce(Vec::new, |mut a, mut b| {
                        a.append(&mut b);
                        a
                    });
                wedges_cd.add(iter_wedges.get());
                active = dedup_next_active(candidates, &pg, &support, hi, &mut queued);
            }
        }

        // Adaptive targets: shrink future targets when this subset
        // overshot its wedge budget (predictive local behaviour).
        let subset_w: u64 = subset.iter().map(|&u| w[u as usize]).sum();
        remaining_wedges = remaining_wedges.saturating_sub(subset_w);
        scale = if subset_w > 0 {
            (tgt as f64 / subset_w as f64).min(1.0)
        } else {
            1.0
        };

        bounds.push(hi);
        subsets.push(subset);
    }

    // Leftovers after P subsets form a single extra subset (§3.1.1).
    if pg.live_count() > 0 {
        snapshot_alive(&pg, &support, &mut init_support);
        subsets.push(pg.live_vertices());
        bounds.push(u64::MAX);
    }

    let metrics = Metrics {
        wedges_count: counts.wedges_traversed,
        wedges_cd: wedges_cd.get(),
        sync_rounds: rounds,
        recounts,
        partitions_used: subsets.len(),
        time_count,
        time_cd: t_cd.elapsed(),
        ..Default::default()
    };

    CoarseResult {
        side,
        bounds,
        subsets,
        init_support,
        metrics,
    }
}

/// Copies current supports of live vertices into the ⋈init vector.
fn snapshot_alive(pg: &PeelGraph, support: &SupportVec, init: &mut [u64]) {
    let alive = pg.alive_flags();
    init.par_iter_mut().enumerate().for_each(|(u, slot)| {
        if alive[u].load(std::sync::atomic::Ordering::Relaxed) {
            *slot = support.get(u as VertexId);
        }
    });
}

/// `findHi` (Algorithm 3 lines 16–21): the smallest support value `θ` such
/// that live vertices with support ≤ θ jointly own at least `tgt` wedges;
/// returns `θ + 1` as the exclusive range bound. Implemented as the paper
/// describes: aggregate wedge counts into a hashmap keyed by the (few)
/// unique support values, sort the keys, prefix-scan.
fn find_hi(pg: &PeelGraph, support: &SupportVec, w: &[u64], tgt: u64, theta_lo: u64) -> u64 {
    let work: std::collections::HashMap<u64, u64> = (0..pg.num_primary() as VertexId)
        .into_par_iter()
        .filter(|&u| pg.is_alive(u))
        .fold(
            std::collections::HashMap::new,
            |mut acc: std::collections::HashMap<u64, u64>, u| {
                *acc.entry(support.get(u)).or_default() += w[u as usize];
                acc
            },
        )
        .reduce(std::collections::HashMap::new, |mut a, b| {
            for (k, v) in b {
                *a.entry(k).or_default() += v;
            }
            a
        });
    let mut keys: Vec<u64> = work.keys().copied().collect();
    keys.sort_unstable();
    let mut acc = 0u64;
    for &s in &keys {
        acc += work[&s];
        if acc >= tgt {
            return s + 1;
        }
    }
    // Not enough wedges remain: sweep everything left into this subset.
    keys.last().map(|&s| s + 1).unwrap_or(theta_lo + 1)
}

/// All live vertices with support strictly below `hi` (ascending id order —
/// rayon's indexed collect preserves it).
fn filter_active(pg: &PeelGraph, support: &SupportVec, hi: u64) -> Vec<VertexId> {
    (0..pg.num_primary() as VertexId)
        .into_par_iter()
        .filter(|&u| pg.is_alive(u) && support.get(u) < hi)
        .collect()
}

/// Builds the next active set from update candidates: alive, below the
/// bound, each vertex once, deterministic ascending order.
fn dedup_next_active(
    candidates: Vec<VertexId>,
    pg: &PeelGraph,
    support: &SupportVec,
    hi: u64,
    queued: &mut [bool],
) -> Vec<VertexId> {
    let mut out = Vec::new();
    for u in candidates {
        let q = &mut queued[u as usize];
        if !*q && pg.is_alive(u) && support.get(u) < hi {
            *q = true;
            out.push(u);
        }
    }
    for &u in &out {
        queued[u as usize] = false;
    }
    out.sort_unstable();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use bigraph::builder::from_edges;
    use bigraph::gen;

    fn fig1_graph() -> BipartiteCsr {
        from_edges(
            4,
            4,
            &[
                (0, 0),
                (0, 1),
                (1, 0),
                (1, 1),
                (1, 2),
                (2, 0),
                (2, 1),
                (2, 2),
                (2, 3),
                (3, 2),
                (3, 3),
            ],
        )
        .unwrap()
    }

    fn check_partition_invariants(g: &BipartiteCsr, side: Side, cfg: &Config) -> CoarseResult {
        let r = coarse_decompose(g, side, cfg);
        let n = g.view(side).num_primary();
        // Every vertex in exactly one subset.
        let mut seen = vec![false; n];
        for s in &r.subsets {
            for &u in s {
                assert!(!seen[u as usize], "vertex {u} in two subsets");
                seen[u as usize] = true;
            }
        }
        assert!(seen.iter().all(|&b| b), "every vertex assigned");
        // Bounds strictly increase and bracket the subsets.
        assert_eq!(r.bounds.len(), r.subsets.len() + 1);
        assert!(r.bounds.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(r.bounds[0], 0);
        r
    }

    #[test]
    fn partitions_fig1() {
        let cfg = Config::default().with_partitions(3);
        let r = check_partition_invariants(&fig1_graph(), Side::U, &cfg);
        assert!(r.metrics.sync_rounds >= 1);
        // Tip numbers (2,3,3,1) must land inside their subset's range.
        let tips = [2u64, 3, 3, 1];
        for (i, subset) in r.subsets.iter().enumerate() {
            for &u in subset {
                let t = tips[u as usize];
                assert!(
                    r.bounds[i] <= t && t < r.bounds[i + 1],
                    "θ_{u}={t} outside [{}, {})",
                    r.bounds[i],
                    r.bounds[i + 1]
                );
            }
        }
    }

    #[test]
    fn ranges_contain_true_tip_numbers_random() {
        for seed in 0..4 {
            let g = gen::zipf(70, 40, 450, 0.5, 0.9, seed);
            let truth = crate::bup::bup_decompose(&g, Side::U, 4);
            for p in [1usize, 2, 5, 20] {
                let cfg = Config::default().with_partitions(p);
                let r = check_partition_invariants(&g, Side::U, &cfg);
                for (i, subset) in r.subsets.iter().enumerate() {
                    for &u in subset {
                        let t = truth.tip[u as usize];
                        assert!(
                            r.bounds[i] <= t && t < r.bounds[i + 1],
                            "seed {seed} P {p}: θ_{u}={t} outside [{}, {})",
                            r.bounds[i],
                            r.bounds[i + 1]
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn huc_and_dgm_do_not_change_partitions_semantics() {
        // HUC and DGM change only the work: every HUC×DGM toggle yields the
        // same subsets, bounds, ⋈init and sync rounds.
        let graphs = [
            ("zipf", gen::zipf(80, 30, 400, 0.4, 1.0, 7)),
            ("hub-skewed", gen::zipf(300, 40, 1500, 0.3, 1.1, 9)),
            ("planted", gen::planted_bicliques(40, 40, 3, 5, 5, 80, 4)),
            ("uniform", gen::uniform(50, 40, 300, 8)),
            ("fig1", fig1_graph()),
        ];
        let base = Config::default().with_partitions(6);
        let variants = [
            base.clone(),
            base.clone().without_dgm(),
            base.clone().baseline_variant(),
            Config {
                huc: false,
                ..base.clone()
            },
        ];
        for (name, g) in &graphs {
            for side in [Side::U, Side::V] {
                let truth = crate::bup::bup_decompose(g, side, 4);
                let want = check_partition_invariants(g, side, &base);
                for cfg in &variants {
                    let r = check_partition_invariants(g, side, cfg);
                    let at = format!("{name}, side {side}, huc {}, dgm {}", cfg.huc, cfg.dgm);
                    assert_eq!(r.subsets, want.subsets, "{at}");
                    assert_eq!(r.bounds, want.bounds, "{at}");
                    assert_eq!(r.init_support, want.init_support, "{at}");
                    assert_eq!(r.metrics.sync_rounds, want.metrics.sync_rounds, "{at}");
                    for (i, subset) in r.subsets.iter().enumerate() {
                        for &u in subset {
                            let t = truth.tip[u as usize];
                            assert!(r.bounds[i] <= t && t < r.bounds[i + 1], "{at}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn single_partition_collapses_to_one_subset() {
        let g = fig1_graph();
        let r = coarse_decompose(&g, Side::U, &Config::default().with_partitions(1));
        assert_eq!(r.subsets.len(), 1);
        assert_eq!(r.subsets[0].len(), 4);
    }

    #[test]
    fn init_support_of_first_subset_is_butterfly_count() {
        let g = fig1_graph();
        let counts = butterfly::count_graph(&g);
        let r = coarse_decompose(&g, Side::U, &Config::default().with_partitions(3));
        for &u in &r.subsets[0] {
            assert_eq!(
                r.init_support[u as usize], counts.u[u as usize],
                "first subset sees pristine counts"
            );
        }
    }

    #[test]
    fn empty_graph_coarse() {
        let g = BipartiteCsr::empty(5, 3);
        let r = coarse_decompose(&g, Side::U, &Config::default().with_partitions(4));
        // All supports are 0: single subset swallows everything.
        assert_eq!(r.subsets.len(), 1);
        assert_eq!(r.subsets[0].len(), 5);
        assert_eq!(r.metrics.wedges_cd, 0);
    }

    #[test]
    fn sync_rounds_shrink_with_fewer_partitions() {
        let g = gen::zipf(150, 60, 1200, 0.5, 0.9, 3);
        let few = coarse_decompose(&g, Side::U, &Config::default().with_partitions(2));
        let many = coarse_decompose(&g, Side::U, &Config::default().with_partitions(60));
        assert!(
            few.metrics.sync_rounds <= many.metrics.sync_rounds,
            "{} vs {}",
            few.metrics.sync_rounds,
            many.metrics.sync_rounds
        );
    }

    #[test]
    fn deterministic_across_pool_sizes() {
        let g = gen::zipf(90, 50, 600, 0.5, 0.8, 11);
        let cfg = Config::default().with_partitions(8);
        let a = parutil::with_pool(1, || coarse_decompose(&g, Side::U, &cfg));
        let b = parutil::with_pool(4, || coarse_decompose(&g, Side::U, &cfg));
        assert_eq!(a.subsets, b.subsets);
        assert_eq!(a.bounds, b.bounds);
        assert_eq!(a.init_support, b.init_support);
        assert_eq!(a.metrics.sync_rounds, b.metrics.sync_rounds);
        assert_eq!(a.metrics.wedges_cd, b.metrics.wedges_cd);
    }
}
