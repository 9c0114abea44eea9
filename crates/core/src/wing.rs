//! Wing (edge) decomposition — the §7 extension.
//!
//! A k-wing is the edge analogue of a k-tip: a maximal subgraph where every
//! *edge* participates in at least `k` butterflies. The wing number of an
//! edge is the largest `k` for which a k-wing contains it. This module
//! implements bottom-up edge peeling (Sariyüce–Pinar style) on top of the
//! per-edge counting of [`butterfly::per_edge`], with the same
//! clamped-minimum semantics as vertex peeling.
//!
//! Edges are named by their id, [`SideGraph::edge_index`]. Every wing peel
//! — the sequential one here, [`kwing_components`], and RECEIPT's coarse
//! and fine phases in [`crate::wing_parallel`] — reaches the butterflies
//! through an edge by one merge walk, `walk_butterflies`; each says only
//! which partner edges count as live and what a butterfly does to them.

use crate::heap::IndexedMinHeap;
use crate::hierarchy::UnionFind;
use bigraph::{SideGraph, VertexId};

/// Result of a wing decomposition.
#[derive(Debug, Clone)]
pub struct WingDecomposition {
    /// Edges in primary-CSR order (`(u, v)` with `u` on the primary side).
    pub edges: Vec<(VertexId, VertexId)>,
    /// `wing[e]` = wing number of `edges[e]`.
    pub wing: Vec<u64>,
    /// Wedge/intersection work performed (diagnostic).
    pub work: u64,
}

impl WingDecomposition {
    pub fn wing_of(&self, u: VertexId, v: VertexId) -> Option<u64> {
        self.edges
            .iter()
            .position(|&e| e == (u, v))
            .map(|i| self.wing[i])
    }

    pub fn max_wing(&self) -> u64 {
        self.wing.iter().copied().max().unwrap_or(0)
    }
}

/// Walks the butterflies `(u, v, u2, v2)` through edge `(u, v)`. For each
/// `v2 ∈ N(u)` other than `v` whose edge `e2 = (u, v2)` passes
/// `keep(cx, v2, e2)`, merges `N(v) ∩ N(v2)` and hands each `u2 ≠ u` in it
/// to `visit` as `(u2, e2, e3, e4)`, with `e3 = (u2, v)` and
/// `e4 = (u2, v2)`. `cx` is the state both closures share: `keep` reads
/// it, `visit` may change it. Returns the merge steps, which every wing
/// peel reports as its work.
pub(crate) fn walk_butterflies<C>(
    view: SideGraph<'_>,
    (u, v): (VertexId, VertexId),
    cx: &mut C,
    keep: impl Fn(&C, VertexId, u32) -> bool,
    mut visit: impl FnMut(&mut C, VertexId, u32, u32, u32),
) -> u64 {
    let id = |p: VertexId, s: VertexId| {
        view.edge_index(p, s)
            .expect("a merge only meets edges of the graph") as u32
    };
    let nv = view.neighbors_secondary(v);
    let mut steps = 0u64;
    for &v2 in view.neighbors_primary(u) {
        if v2 == v {
            continue;
        }
        let e2 = id(u, v2);
        if !keep(cx, v2, e2) {
            continue;
        }
        let nv2 = view.neighbors_secondary(v2);
        let (mut i, mut j) = (0, 0);
        while i < nv.len() && j < nv2.len() {
            steps += 1;
            match nv[i].cmp(&nv2[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    let u2 = nv[i];
                    i += 1;
                    j += 1;
                    if u2 != u {
                        visit(cx, u2, e2, id(u2, v), id(u2, v2));
                    }
                }
            }
        }
    }
    steps
}

/// A live butterfly through a peeled edge died: `e` loses one butterfly,
/// never below the peeled edge's wing number `theta`. No-op once `e` left
/// the heap.
pub(crate) fn drop_butterfly(heap: &mut IndexedMinHeap, e: u32, theta: u64) {
    if let Some(k) = heap.key(e) {
        heap.decrease_key(e, k.saturating_sub(1).max(theta));
    }
}

/// Sequential bottom-up wing decomposition of the primary-side edges.
///
/// ```
/// use bigraph::Side;
/// // K(2,2): the single butterfly makes every edge a 1-wing member.
/// let g = bigraph::builder::from_edges(2, 2, &[(0, 0), (0, 1), (1, 0), (1, 1)]).unwrap();
/// let d = receipt::wing::wing_decompose(g.view(Side::U), 4);
/// assert_eq!(d.wing, vec![1, 1, 1, 1]);
/// ```
pub fn wing_decompose(view: SideGraph<'_>, heap_arity: usize) -> WingDecomposition {
    let counts = butterfly::per_edge::per_edge_counts(view);
    let edges: Vec<(VertexId, VertexId)> = view.edges().collect();
    let mut heap = IndexedMinHeap::new(heap_arity, &counts);
    let mut wing = vec![0u64; edges.len()];
    let mut work = 0u64;

    while let Some((e, theta)) = heap.pop_min() {
        wing[e as usize] = theta;
        // A butterfly is live while all four edges are in the heap; each
        // live one through `e` dies, and its other three edges lose it.
        work += walk_butterflies(
            view,
            edges[e as usize],
            &mut heap,
            |heap, _, e2| heap.contains(e2),
            |heap, _, e2, e3, e4| {
                if heap.contains(e3) && heap.contains(e4) {
                    for f in [e2, e3, e4] {
                        drop_butterfly(heap, f, theta);
                    }
                }
            },
        );
    }

    WingDecomposition { edges, wing, work }
}

/// The k-wings of the graph: butterfly-connected components of the edges
/// with `wing ≥ k`, each returned as a sorted list of edge ids (positions
/// in [`WingDecomposition::edges`]). Two edges are adjacent when some
/// butterfly within the qualifying edge set contains both. Edges in no
/// qualifying butterfly only appear when `k = 0`.
pub fn kwing_components(
    view: SideGraph<'_>,
    decomposition: &WingDecomposition,
    k: u64,
) -> Vec<Vec<usize>> {
    let m = decomposition.wing.len();
    let qualifies = |e: u32| decomposition.wing[e as usize] >= k;
    let mut uf = UnionFind::new(m);
    let mut in_butterfly = vec![false; m];

    for (e, &(u, v)) in decomposition.edges.iter().enumerate() {
        let e = e as u32;
        if !qualifies(e) {
            continue;
        }
        // Each butterfly once: from its edge with the smaller `v` and the
        // smaller `u`.
        walk_butterflies(
            view,
            (u, v),
            &mut uf,
            |_, v2, e2| v2 > v && qualifies(e2),
            |uf, u2, e2, e3, e4| {
                if u2 > u && qualifies(e3) && qualifies(e4) {
                    for f in [e2, e3, e4] {
                        uf.union(e, f);
                    }
                    for x in [e, e2, e3, e4] {
                        in_butterfly[x as usize] = true;
                    }
                }
            },
        );
    }

    let mut by_root: std::collections::BTreeMap<u32, Vec<usize>> = Default::default();
    for (e, &in_b) in in_butterfly.iter().enumerate() {
        if qualifies(e as u32) && (in_b || k == 0) {
            by_root.entry(uf.find(e as u32)).or_default().push(e);
        }
    }
    by_root.into_values().collect()
}

/// Reference oracle: recomputes per-edge butterfly counts on the live
/// subgraph before every single-edge peel. `O(m² · Σd²)` — tests only.
pub fn naive_wing_decompose(view: SideGraph<'_>) -> WingDecomposition {
    let edges: Vec<(VertexId, VertexId)> = view.edges().collect();
    let m = edges.len();
    let mut alive = vec![true; m];
    let mut wing = vec![0u64; m];
    let mut theta = 0u64;

    for _ in 0..m {
        // Rebuild the live subgraph and count butterflies per live edge.
        let live_edges: Vec<(VertexId, VertexId)> = edges
            .iter()
            .zip(&alive)
            .filter(|(_, &a)| a)
            .map(|(&e, _)| e)
            .collect();
        let sub =
            bigraph::builder::from_edges(view.num_primary(), view.num_secondary(), &live_edges)
                .unwrap();
        let sub_counts = butterfly::per_edge::per_edge_counts(sub.view(bigraph::Side::U));
        // Map live-edge counts back to original ids (same sort order).
        let mut live_ids: Vec<usize> = (0..m).filter(|&e| alive[e]).collect();
        live_ids.sort_by_key(|&e| edges[e]);
        let (min_pos, min_cnt) = sub_counts
            .iter()
            .enumerate()
            .min_by_key(|&(i, &c)| (c, i))
            .map(|(i, &c)| (i, c))
            .expect("live edges remain");
        let victim = live_ids[min_pos];
        theta = theta.max(min_cnt);
        wing[victim] = theta;
        alive[victim] = false;
    }

    WingDecomposition {
        edges,
        wing,
        work: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bigraph::builder::from_edges;
    use bigraph::{gen, Side};

    #[test]
    fn single_butterfly_wings() {
        let g = from_edges(2, 2, &[(0, 0), (0, 1), (1, 0), (1, 1)]).unwrap();
        let w = wing_decompose(g.view(Side::U), 4);
        assert_eq!(w.wing, vec![1, 1, 1, 1]);
        assert_eq!(w.max_wing(), 1);
        assert_eq!(w.wing_of(0, 1), Some(1));
        assert_eq!(w.wing_of(1, 9), None);
    }

    #[test]
    fn k33_wings() {
        let mut e = Vec::new();
        for u in 0..3 {
            for v in 0..3 {
                e.push((u, v));
            }
        }
        let g = from_edges(3, 3, &e).unwrap();
        let w = wing_decompose(g.view(Side::U), 4);
        // K(3,3) is edge-transitive; every edge sits in 4 butterflies and
        // the whole graph is a 4-wing.
        assert!(w.wing.iter().all(|&x| x == 4), "{:?}", w.wing);
    }

    #[test]
    fn path_has_zero_wings() {
        let g = from_edges(3, 2, &[(0, 0), (1, 0), (1, 1), (2, 1)]).unwrap();
        let w = wing_decompose(g.view(Side::U), 4);
        assert!(w.wing.iter().all(|&x| x == 0));
    }

    #[test]
    fn matches_naive_oracle_on_small_graphs() {
        for seed in 0..5 {
            let g = gen::uniform(8, 8, 28, seed);
            let fast = wing_decompose(g.view(Side::U), 4);
            let slow = naive_wing_decompose(g.view(Side::U));
            assert_eq!(fast.wing, slow.wing, "seed {seed}");
        }
    }

    #[test]
    fn matches_naive_on_planted_block_with_noise() {
        let g = gen::planted_bicliques(8, 8, 1, 3, 3, 12, 3);
        let fast = wing_decompose(g.view(Side::U), 4);
        let slow = naive_wing_decompose(g.view(Side::U));
        assert_eq!(fast.wing, slow.wing);
    }

    #[test]
    fn wing_bounded_by_edge_butterfly_count() {
        let g = gen::zipf(20, 15, 80, 0.5, 0.8, 2);
        let counts = butterfly::per_edge::per_edge_counts(g.view(Side::U));
        let w = wing_decompose(g.view(Side::U), 4);
        for (e, (&wing, &cnt)) in w.wing.iter().zip(&counts).enumerate() {
            assert!(wing <= cnt, "edge {e}: wing {wing} > count {cnt}");
        }
    }

    #[test]
    fn kwing_components_on_two_blocks() {
        // Two disjoint butterflies: each is its own 1-wing.
        let g = from_edges(
            4,
            4,
            &[
                (0, 0),
                (0, 1),
                (1, 0),
                (1, 1),
                (2, 2),
                (2, 3),
                (3, 2),
                (3, 3),
            ],
        )
        .unwrap();
        let view = g.view(Side::U);
        let d = wing_decompose(view, 4);
        let comps = kwing_components(view, &d, 1);
        assert_eq!(comps.len(), 2);
        assert!(comps.iter().all(|c| c.len() == 4));
        // Above max wing: nothing.
        assert!(kwing_components(view, &d, d.max_wing() + 1).is_empty());
    }

    #[test]
    fn kwing_components_nest_and_respect_wing_numbers() {
        let g = gen::planted_bicliques(12, 12, 2, 4, 4, 20, 8);
        let view = g.view(Side::U);
        let d = wing_decompose(view, 4);
        let wmax = d.max_wing();
        let hi: Vec<usize> = kwing_components(view, &d, wmax)
            .into_iter()
            .flatten()
            .collect();
        let lo: Vec<usize> = kwing_components(view, &d, 1)
            .into_iter()
            .flatten()
            .collect();
        for e in &hi {
            assert!(lo.contains(e), "edge {e} lost down-hierarchy");
        }
        // Every member of a k-level really has wing >= k.
        for e in hi {
            assert!(d.wing[e] >= wmax);
        }
    }

    #[test]
    fn v_side_wing_total_consistency() {
        // Wing numbers are a property of edges; peeling from either view
        // must produce the same multiset (edge identities permute).
        let g = gen::uniform(10, 10, 40, 9);
        let mut a = wing_decompose(g.view(Side::U), 4).wing;
        let mut b = wing_decompose(g.view(Side::V), 4).wing;
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
    }
}
