//! Sequential Bottom-Up Peeling (Algorithm 2) — the classical tip
//! decomposition — and [`peel_live`], the same peel with less wedge work,
//! which fine-grained decomposition and the dynamic path peel with. Both
//! pop from the k-way [`IndexedMinHeap`], the crate's one priority queue,
//! and walk each popped vertex's wedges with [`crate::peel`]'s walks.

use crate::heap::IndexedMinHeap;
use crate::peel::{walk_live, walk_static, LiveAdjacency, PeelScratch};
use bigraph::{BipartiteCsr, Side, SideGraph, VertexId};
use std::time::Instant;

/// Result of a baseline (BUP or ParB) run, with the Table 3 counters.
#[derive(Debug, Clone)]
pub struct BaselineResult {
    pub side: Side,
    pub tip: Vec<u64>,
    /// Wedges traversed by the initial per-vertex count.
    pub wedges_count: u64,
    /// Wedges traversed while peeling.
    pub wedges_peel: u64,
    /// Synchronization rounds ρ (1 per minimum-support batch for ParB;
    /// BUP reports its peeling iterations, one per vertex).
    pub rounds: u64,
    pub time_count: std::time::Duration,
    pub time_peel: std::time::Duration,
}

/// Core sequential peel: repeatedly extract the minimum-support vertex,
/// record its support as the tip number, and decrement 2-hop neighbours by
/// the shared butterfly count, clamped below at the extracted value
/// (Algorithm 2 line 13). Walks the static lists, so every wedge is walked
/// from both ends. Returns `(tip numbers, wedges traversed)`.
///
/// Works on any [`SideGraph`]; BUP runs it on the full graph.
pub fn peel_all(view: SideGraph<'_>, init_support: &[u64], heap_arity: usize) -> (Vec<u64>, u64) {
    let n = init_support.len();
    debug_assert_eq!(n, view.num_primary());
    let mut heap = IndexedMinHeap::new(heap_arity, init_support);
    let mut scratch = PeelScratch::new(n);
    let mut tip = vec![0u64; n];
    let mut wedges = 0u64;

    while let Some((u, theta)) = heap.pop_min() {
        tip[u as usize] = theta;
        wedges += walk_static(view, u, &mut scratch, |u2, c| {
            decrement_shared(&mut heap, u2, c, theta)
        });
    }
    (tip, wedges)
}

/// [`peel_all`] with two exact savings; the tip numbers are the same.
/// Returns `(tip numbers, wedges traversed)`, where a hub probe counts as
/// one wedge. The dynamic path re-peels with it, and RECEIPT FD peels each
/// coarse subset with it.
///
/// * **Live adjacency.** It peels on a per-call copy of the secondary
///   adjacency and removes each popped vertex from its neighbours' lists,
///   so a wedge is walked only from the end peeled first: exactly half of
///   `peel_all`'s wedges.
/// * **Hub probe.** When one neighbour's live list is longer than the
///   popped vertex's other lists combined, that list is not scanned; each
///   vertex due a decrement gets its +1 for it from a binary search in its
///   own sorted adjacency. The probes cost fewer wedges than the scan
///   would. CD's live peel shares this wedge walk.
pub fn peel_live(view: SideGraph<'_>, init_support: &[u64], heap_arity: usize) -> (Vec<u64>, u64) {
    let n = init_support.len();
    debug_assert_eq!(n, view.num_primary());
    let mut heap = IndexedMinHeap::new(heap_arity, init_support);
    let mut live = LiveAdjacency::new(view);
    let mut scratch = PeelScratch::new(n);
    let mut tip = vec![0u64; n];
    let mut wedges = 0u64;

    while let Some((u, theta)) = heap.pop_min() {
        tip[u as usize] = theta;
        for &v in view.neighbors_primary(u) {
            live.remove(v, u);
        }
        wedges += walk_live(view, u, &live, &mut scratch, |u2, c| {
            decrement_shared(&mut heap, u2, c, theta)
        });
    }
    (tip, wedges)
}

/// Algorithm 2 line 13: `u2` shares `c` neighbours, so `C(c, 2)`
/// butterflies, with the vertex just peeled at `theta`; lower its support
/// by that many, never below `theta`. No-op once `u2` is peeled.
#[inline]
fn decrement_shared(heap: &mut IndexedMinHeap, u2: VertexId, c: u64, theta: u64) {
    if c >= 2 {
        if let Some(cur) = heap.key(u2) {
            heap.decrease_key(u2, cur.saturating_sub(c * (c - 1) / 2).max(theta));
        }
    }
}

/// The full BUP baseline: per-vertex counting (sequential Algorithm 1) to
/// initialize supports, then [`peel_all`] on the whole graph.
///
/// ```
/// use bigraph::Side;
/// let g = bigraph::gen::planted_bicliques(10, 10, 1, 3, 3, 0, 1);
/// let r = receipt::bup::bup_decompose(&g, Side::U, 4);
/// // The 3x3 block: every member has (3-1)*C(3,2) = 6 butterflies.
/// assert_eq!(&r.tip[..3], &[6, 6, 6]);
/// ```
pub fn bup_decompose(g: &BipartiteCsr, side: Side, heap_arity: usize) -> BaselineResult {
    let t0 = Instant::now();
    let ranked = bigraph::RankedGraph::from_csr(g);
    let counts = butterfly::count::vertex_priority_counts(&ranked);
    let time_count = t0.elapsed();

    let view = g.view(side);
    let t1 = Instant::now();
    let (tip, wedges_peel) = peel_all(view, counts.side(side), heap_arity);
    let time_peel = t1.elapsed();

    BaselineResult {
        side,
        tip,
        wedges_count: counts.wedges_traversed,
        wedges_peel,
        rounds: view.num_primary() as u64,
        time_count,
        time_peel,
    }
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

    /// The complete bipartite graph K(nu, nv).
    fn complete(nu: u32, nv: u32) -> BipartiteCsr {
        let edges: Vec<_> = (0..nu).flat_map(|u| (0..nv).map(move |v| (u, v))).collect();
        from_edges(nu as usize, nv as usize, &edges).unwrap()
    }

    #[test]
    fn fig1_tip_numbers() {
        let r = bup_decompose(&fig1_graph(), Side::U, 4);
        assert_eq!(r.tip, vec![2, 3, 3, 1]);
    }

    #[test]
    fn k33_tip_numbers() {
        let g = complete(3, 3);
        // Every u of K(3,3) has 6 butterflies; the first peel records 6,
        // and the survivors' supports are clamped at max(θ=6, 6−3) = 6, so
        // the whole side is a 6-tip.
        let r = bup_decompose(&g, Side::U, 4);
        assert_eq!(r.tip, vec![6, 6, 6]);
    }

    #[test]
    fn star_all_zero() {
        let g = from_edges(4, 1, &[(0, 0), (1, 0), (2, 0), (3, 0)]).unwrap();
        let r = bup_decompose(&g, Side::U, 4);
        assert_eq!(r.tip, vec![0; 4]);
        assert_eq!(r.rounds, 4);
    }

    #[test]
    fn tips_bounded_by_initial_support() {
        let g = gen::zipf(60, 40, 400, 0.5, 0.8, 5);
        let counts = butterfly::count_graph(&g);
        let r = bup_decompose(&g, Side::U, 4);
        for (u, &t) in r.tip.iter().enumerate() {
            assert!(
                t <= counts.u[u],
                "θ_{u} = {t} exceeds butterfly count {}",
                counts.u[u]
            );
        }
    }

    #[test]
    fn v_side_decomposition() {
        let r = bup_decompose(&fig1_graph(), Side::V, 4);
        assert_eq!(r.tip.len(), 4);
        // v-side of Fig.1: hand-check v3 (0-indexed v... id 3): shares only
        // butterfly (u2,u3)x(v2,v3) -> its butterflies: 1.
        assert!(r.tip[3] >= 1);
    }

    #[test]
    fn peel_wedges_prediction_matches_actual() {
        let g = gen::uniform(50, 40, 300, 8);
        let view = g.view(Side::U);
        let predicted = bigraph::stats::total_primary_wedges(view);
        let counts = butterfly::count_graph(&g);
        let (_, actual) = peel_all(view, &counts.u, 4);
        assert_eq!(predicted, actual);
    }

    #[test]
    fn heap_arity_does_not_change_tips() {
        let g = gen::zipf(50, 30, 300, 0.4, 0.9, 2);
        let a = bup_decompose(&g, Side::U, 2);
        let b = bup_decompose(&g, Side::U, 8);
        assert_eq!(a.tip, b.tip);
    }

    #[test]
    fn empty_graph() {
        let g = BipartiteCsr::empty(3, 3);
        let r = bup_decompose(&g, Side::U, 4);
        assert_eq!(r.tip, vec![0; 3]);
        assert_eq!(r.wedges_peel, 0);
    }

    /// Runs [`peel_live`] against [`peel_all`] from the same counts on
    /// both sides at heap arities 2, 4 and 8. Returns per side whether the
    /// hub probe ran: without it `peel_live` walks exactly half of
    /// `peel_all`'s wedges, and each hub list it skips makes that fewer.
    fn assert_live_matches_all(name: &str, g: &BipartiteCsr) -> [bool; 2] {
        let counts = butterfly::count_graph(g);
        [Side::U, Side::V].map(|side| {
            let view = g.view(side);
            let probed = [2, 4, 8].map(|arity| {
                let (want, all_wedges) = peel_all(view, counts.side(side), arity);
                let (got, live_wedges) = peel_live(view, counts.side(side), arity);
                assert_eq!(got, want, "{name}, side {side}, arity {arity}");
                assert!(
                    2 * live_wedges <= all_wedges,
                    "{name}, side {side}: {live_wedges} live wedges, {all_wedges} in peel_all"
                );
                2 * live_wedges < all_wedges
            });
            probed.contains(&true)
        })
    }

    #[test]
    fn peel_live_matches_peel_all() {
        let graphs = [
            ("zipf", gen::zipf(80, 50, 500, 0.5, 0.9, 3)),
            ("planted", gen::planted_bicliques(40, 40, 3, 5, 5, 80, 4)),
            ("uniform", gen::uniform(50, 40, 300, 8)),
            ("fig1", fig1_graph()),
            (
                "star",
                from_edges(4, 1, &[(0, 0), (1, 0), (2, 0), (3, 0)]).unwrap(),
            ),
            ("k33", complete(3, 3)),
            ("empty", BipartiteCsr::empty(3, 3)),
        ];
        for (name, g) in &graphs {
            assert_live_matches_all(name, g);
        }
    }

    #[test]
    fn hub_probe_runs_on_a_skewed_graph_only() {
        // Zipf α_v = 1.1 over 40 V vertices: a few hubs hold most edges.
        let skewed = gen::zipf(300, 40, 1500, 0.3, 1.1, 9);
        assert!(assert_live_matches_all("skewed", &skewed)[0]);
        // K(6,6): all lists are equally long, so none outweighs the rest.
        assert_eq!(
            assert_live_matches_all("balanced", &complete(6, 6)),
            [false; 2]
        );
    }
}
