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
//! Algorithm 3's outer loop, `coarse_ranges`, exists once and serves
//! both tip CD and wing CD (`crate::wing_parallel`, §7); each supplies only
//! its `PeelRound`. The loop's per-subset bookkeeping — the ⋈init
//! snapshot, findHi's range determination with its adaptive target, and
//! the first active set — reads only the elements still live: it keeps
//! them in an ascending list, pruned of the peeled ones once at the top of
//! every subset, so the list shrinks as CD advances. Elements left after
//! `P` subsets form the extra `P+1`-th subset.
//!
//! Tip CD's round peels on a [`PeelGraph`] over the input CSR, and
//! implements the two workload optimizations of §4, each governed by its
//! [`Config`] toggle:
//! * **HUC** — when peeling the active set would traverse more wedges than
//!   re-counting from scratch, re-count. The re-count runs on the
//!   [`RankedGraph`] built for initial counting, skipping peeled vertices;
//! * **DGM** — every round drops its peeled vertices from the live lists it
//!   touched ([`PeelGraph::kill_batch`]), so traversal never scans a peeled
//!   vertex and walks each wedge from one end, probing hub lists instead of
//!   scanning them.

use crate::config::Config;
use crate::metrics::Metrics;
use crate::peel::PeelGraph;
use crate::support::SupportVec;
use bigraph::{BipartiteCsr, RankedGraph, Side, SideGraph, VertexId};
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
    let support = SupportVec::from_counts(counts.side(side));
    // Static per-vertex wedge counts in G: the proxy findHi balances on.
    let w = bigraph::stats::wedges_per_primary(view);
    let mut round = TipRound::new(view, ranked, config);
    let ranges = coarse_ranges(&mut round, &support, &w, config.effective_partitions());

    let metrics = Metrics {
        wedges_count: counts.wedges_traversed,
        wedges_cd: round.wedges,
        sync_rounds: ranges.rounds,
        recounts: round.recounts,
        partitions_used: ranges.subsets.len(),
        time_count,
        time_cd: t_cd.elapsed(),
        ..Default::default()
    };

    CoarseResult {
        side,
        bounds: ranges.bounds,
        subsets: ranges.subsets,
        init_support: ranges.init_support,
        metrics,
    }
}

/// One synchronization round of a coarse decomposition: the only part of
/// Algorithm 3 that tip CD and wing CD do differently. Elements are dense
/// `u32` ids: vertices for tip CD, edge ids for wing CD.
pub(crate) trait PeelRound {
    /// Whether element `x` is still unpeeled.
    fn is_alive(&self, x: u32) -> bool;

    /// Peels `active` — live elements with support in `[theta_lo, hi)` —
    /// and lowers the supports of the live elements that lose butterflies
    /// with them, never below `theta_lo`. Returns the candidates for the
    /// next active set: the elements whose support it lowered, repeats
    /// allowed, in any order. `live` holds every live element, ascending;
    /// it may still hold elements peeled in this subset.
    fn peel_round(
        &mut self,
        active: &[u32],
        live: &[u32],
        support: &SupportVec,
        theta_lo: u64,
        hi: u64,
    ) -> Vec<u32>;
}

/// What [`coarse_ranges`] decides: the subsets, their range bounds, ⋈init
/// and the number of peel rounds ρ.
pub(crate) struct Ranges {
    /// `bounds[i]..bounds[i + 1]` is subset `i`'s range; `u64::MAX` closes
    /// the extra `P+1`-th subset.
    pub(crate) bounds: Vec<u64>,
    /// The subsets, each in peel order.
    pub(crate) subsets: Vec<Vec<u32>>,
    /// Each element's support when its subset opened.
    pub(crate) init_support: Vec<u64>,
    pub(crate) rounds: u64,
}

/// Algorithm 3's outer loop over `partitions` subsets. `support` holds
/// every element's initial support, `work[x]` the work proxy findHi
/// balances on. Each subset snapshots ⋈init for the live elements, picks
/// its bound `hi` with [`find_hi`] against an adaptive target (§3.1.1),
/// then runs `peel`'s rounds until no live element's support is below
/// `hi`. Elements still live after the last subset form one extra subset.
pub(crate) fn coarse_ranges(
    peel: &mut impl PeelRound,
    support: &SupportVec,
    work: &[u64],
    partitions: usize,
) -> Ranges {
    let n = work.len();
    let mut remaining_work: u64 = work.iter().sum();
    let mut init_support = vec![0u64; n];
    let mut subsets: Vec<Vec<u32>> = Vec::new();
    let mut bounds: Vec<u64> = vec![0];
    let mut scale = 1.0f64;
    // The live elements, ascending. Pruned at the top of each subset, so
    // during a subset it may still hold elements that subset peeled.
    let mut live: Vec<u32> = (0..n as u32).collect();
    let mut left = n;
    // findHi's `(support, work)` pairs, one per live element.
    let mut pairs: Vec<(u64, u64)> = Vec::with_capacity(n);
    let mut queued = vec![false; n];
    let mut rounds = 0u64;

    for i in 0..partitions {
        if left == 0 {
            break;
        }
        let theta_lo = *bounds.last().expect("bounds starts non-empty");

        // ⋈init snapshot for every still-alive element (lines 6–7).
        live.retain(|&x| peel.is_alive(x));
        pairs.clear();
        for &x in &live {
            let s = support.get(x);
            init_support[x as usize] = s;
            pairs.push((s, work[x as usize]));
        }

        // ---- Adaptive range determination (§3.1.1) ----
        let parts_left = (partitions - i) as u64;
        let base_tgt = remaining_work.div_ceil(parts_left).max(1);
        let tgt = ((base_tgt as f64) * scale).round().max(1.0) as u64;
        let hi = find_hi(&mut pairs, tgt, theta_lo);
        debug_assert!(hi > theta_lo);

        // ---- Peel the range [theta_lo, hi) to exhaustion ----
        let mut active = below(&live, |x| peel.is_alive(x), support, hi);
        let mut subset: Vec<u32> = Vec::new();
        while !active.is_empty() {
            rounds += 1;
            left -= active.len();
            subset.extend_from_slice(&active);
            let candidates = peel.peel_round(&active, &live, support, theta_lo, hi);
            active = dedup_next_active(candidates, |x| peel.is_alive(x), support, hi, &mut queued);
        }

        // Adaptive targets: shrink future targets when this subset
        // overshot its work budget (predictive local behaviour).
        let subset_work: u64 = subset.iter().map(|&x| work[x as usize]).sum();
        remaining_work = remaining_work.saturating_sub(subset_work);
        scale = if subset_work > 0 {
            (tgt as f64 / subset_work as f64).min(1.0)
        } else {
            1.0
        };

        bounds.push(hi);
        subsets.push(subset);
    }

    // Leftovers after P subsets form a single extra subset (§3.1.1).
    if left > 0 {
        live.retain(|&x| peel.is_alive(x));
        for &x in &live {
            init_support[x as usize] = support.get(x);
        }
        subsets.push(live);
        bounds.push(u64::MAX);
    }

    Ranges {
        bounds,
        subsets,
        init_support,
        rounds,
    }
}

/// Tip CD's round: one parallel peel of the active set (lines 12–13), or
/// HUC's re-count of the live subgraph.
struct TipRound<'a> {
    side: Side,
    pg: PeelGraph<'a>,
    /// The graph as counted, which HUC re-counts.
    ranked: RankedGraph,
    huc: bool,
    c_rcnt: u64,
    wedges: u64,
    recounts: u64,
}

impl<'a> TipRound<'a> {
    fn new(view: SideGraph<'a>, ranked: RankedGraph, config: &Config) -> Self {
        TipRound {
            side: view.side(),
            pg: PeelGraph::new(view, config.dgm),
            ranked,
            huc: config.huc,
            // HUC's re-count cost, of the graph as counted: the live graph
            // only shrinks, so it stays an upper bound — a conservative test.
            c_rcnt: bigraph::stats::recount_cost(view),
            wedges: 0,
            recounts: 0,
        }
    }

    /// HUC's re-count: per-vertex butterfly counts of the live subgraph,
    /// computed on the graph as counted with the peeled vertices filtered
    /// out. Counts for both sides; the peeled side's are exact.
    /// Vertex-priority counting is exact under any fixed total order, so
    /// the original ranks serve and nothing is re-ranked.
    fn recount_live(&self) -> butterfly::VertexCounts {
        butterfly::parallel::par_counts_with_filter(&self.ranked, self.side, self.pg.alive_flags())
    }
}

impl PeelRound for TipRound<'_> {
    fn is_alive(&self, u: VertexId) -> bool {
        self.pg.is_alive(u)
    }

    fn peel_round(
        &mut self,
        active: &[VertexId],
        live: &[VertexId],
        support: &SupportVec,
        theta_lo: u64,
        hi: u64,
    ) -> Vec<VertexId> {
        self.pg.kill_batch(active);
        let pg = &self.pg;
        let c_peel: u64 = active.iter().map(|&u| pg.peel_cost(u)).sum();
        if self.huc && c_peel > self.c_rcnt && live.iter().any(|&u| pg.is_alive(u)) {
            // HUC (§4.1): re-count butterflies of the live subgraph
            // instead of propagating the active set's updates.
            self.recounts += 1;
            let rc = self.recount_live();
            self.wedges += rc.wedges_traversed;
            let fresh = rc.side(self.side);
            for &u in live {
                if pg.is_alive(u) {
                    support.set(u, fresh[u as usize].max(theta_lo));
                }
            }
            return below(live, |u| pg.is_alive(u), support, hi);
        }
        let (candidates, wedges) = pg.peel_batch(active, theta_lo, support);
        self.wedges += wedges;
        candidates
    }
}

/// `findHi` (Algorithm 3 lines 16–21) over `(support, wedges)` pairs, one
/// per live element: the smallest support `θ` such that the pairs with
/// support ≤ `θ` jointly own at least `tgt` wedges; returns `θ + 1` as the
/// exclusive range bound. When the pairs own fewer than `tgt` wedges, the
/// bound sweeps everything left in (largest support + 1); with no pairs it
/// is `theta_lo + 1`.
///
/// A weighted selection (quickselect with a 3-way partition, so runs of
/// equal supports cost one step) in expected `O(len)`, reordering `pairs`.
/// It returns what the paper's histogram of unique supports, sorted and
/// prefix-scanned, returns.
pub(crate) fn find_hi(pairs: &mut [(u64, u64)], tgt: u64, theta_lo: u64) -> u64 {
    let total: u64 = pairs.iter().map(|&(_, w)| w).sum();
    if pairs.is_empty() || total < tgt {
        return pairs
            .iter()
            .map(|&(s, _)| s)
            .max()
            .map_or(theta_lo + 1, |s| s + 1);
    }
    // Invariant: the answer is one of `rest`'s supports, and `tgt` is the
    // wedges still missing after every pair dropped below `rest`.
    let (mut rest, mut tgt) = (pairs, tgt);
    loop {
        let pivot = rest[rest.len() / 2].0;
        let (lt, gt, w_lt, w_eq) = partition3(rest, pivot);
        if lt > 0 && w_lt >= tgt {
            rest = &mut rest[..lt];
        } else if w_lt + w_eq >= tgt {
            return pivot + 1;
        } else {
            tgt -= w_lt + w_eq;
            rest = &mut rest[gt..];
        }
    }
}

/// Reorders `v` into supports below, equal to, then above `pivot`.
/// Returns the two boundaries and the wedges below and equal.
fn partition3(v: &mut [(u64, u64)], pivot: u64) -> (usize, usize, u64, u64) {
    let (mut lt, mut i, mut gt) = (0, 0, v.len());
    let (mut w_lt, mut w_eq) = (0u64, 0u64);
    while i < gt {
        let (s, w) = v[i];
        match s.cmp(&pivot) {
            std::cmp::Ordering::Less => {
                w_lt += w;
                v.swap(lt, i);
                lt += 1;
                i += 1;
            }
            std::cmp::Ordering::Equal => {
                w_eq += w;
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                gt -= 1;
                v.swap(i, gt);
            }
        }
    }
    (lt, gt, w_lt, w_eq)
}

/// The elements of `live` still alive with support strictly below `hi`, in
/// `live`'s ascending order.
fn below(live: &[u32], is_alive: impl Fn(u32) -> bool, support: &SupportVec, hi: u64) -> Vec<u32> {
    live.iter()
        .copied()
        .filter(|&x| is_alive(x) && support.get(x) < hi)
        .collect()
}

/// Builds the next active set from update candidates: alive, below the
/// bound, each element once, deterministic ascending order.
fn dedup_next_active(
    candidates: Vec<u32>,
    is_alive: impl Fn(u32) -> bool,
    support: &SupportVec,
    hi: u64,
    queued: &mut [bool],
) -> Vec<u32> {
    let mut out = Vec::new();
    for x in candidates {
        let q = &mut queued[x as usize];
        if !*q && is_alive(x) && support.get(x) < hi {
            *q = true;
            out.push(x);
        }
    }
    for &x in &out {
        queued[x as usize] = false;
    }
    out.sort_unstable();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use bigraph::builder::from_edges;
    use bigraph::gen;
    use proptest::prelude::*;

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

    /// findHi by the paper's recipe: wedges per unique support, the
    /// supports sorted, then a prefix scan.
    fn find_hi_by_histogram(pairs: &[(u64, u64)], tgt: u64, theta_lo: u64) -> u64 {
        let mut work = std::collections::BTreeMap::new();
        for &(s, w) in pairs {
            *work.entry(s).or_insert(0u64) += w;
        }
        let mut acc = 0;
        for (&s, &w) in &work {
            acc += w;
            if acc >= tgt {
                return s + 1;
            }
        }
        work.keys().next_back().map_or(theta_lo + 1, |&s| s + 1)
    }

    proptest! {
        #[test]
        fn find_hi_matches_sorted_histogram(
            // Few distinct supports (heavy duplicates) and many zero
            // weights; targets from 0 to well above the total.
            pairs in proptest::collection::vec((0u64..8, 0u64..3), 0..60),
            tgt in 0u64..150,
            theta_lo in 0u64..4,
        ) {
            let mut scratch = pairs.clone();
            prop_assert_eq!(
                find_hi(&mut scratch, tgt, theta_lo),
                find_hi_by_histogram(&pairs, tgt, theta_lo)
            );
        }

        #[test]
        fn find_hi_matches_sorted_histogram_on_wide_supports(
            pairs in proptest::collection::vec((0u64..1_000_000, 0u64..500), 0..400),
            tgt in 1u64..120_000,
        ) {
            let mut scratch = pairs.clone();
            prop_assert_eq!(
                find_hi(&mut scratch, tgt, 0),
                find_hi_by_histogram(&pairs, tgt, 0)
            );
        }
    }

    #[test]
    fn find_hi_corner_cases() {
        let cases: [(&[(u64, u64)], u64); 8] = [
            (&[], 1),
            (&[], 0),
            (&[(5, 3)], 1),
            (&[(5, 3)], 4),
            (&[(5, 0)], 1),
            (&[(7, 2), (7, 2), (7, 2)], 5),
            (&[(3, 0), (9, 0), (4, 0)], 1),
            (&[(2, 1), (6, 4), (4, 0), (6, 1)], 5),
        ];
        for (pairs, tgt) in cases {
            let mut scratch = pairs.to_vec();
            assert_eq!(
                find_hi(&mut scratch, tgt, 2),
                find_hi_by_histogram(pairs, tgt, 2),
                "{pairs:?}, target {tgt}"
            );
        }
        assert_eq!(find_hi(&mut [], 1, 2), 3, "no pairs: theta_lo + 1");
        assert_eq!(find_hi(&mut [(5, 3)], 4, 2), 6, "target above the total");
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

    #[test]
    fn recount_live_matches_fresh_count() {
        // Counting on the original ranks with dead vertices filtered must
        // equal a from-scratch count of the live subgraph.
        let g = gen::zipf(50, 30, 300, 0.5, 0.9, 6);
        let mut round = TipRound::new(
            g.view(Side::U),
            RankedGraph::from_csr(&g),
            &Config::default(),
        );
        let dead: Vec<u32> = (0..50).step_by(3).collect();
        round.pg.kill_batch(&dead);
        let stale = round.recount_live();
        let alive_u: Vec<bool> = (0..50).map(|u| u % 3 != 0).collect();
        let fresh_csr = bigraph::compact::compact(&g, &alive_u, &[true; 30]);
        let fresh = butterfly::count_graph(&fresh_csr);
        assert_eq!(stale.u, fresh.u);
        assert_eq!(stale.v, fresh.v);
    }
}
