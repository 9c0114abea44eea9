//! The parallel peel/update machinery shared by RECEIPT CD and ParB:
//! wedge-aggregation scratch, the `update()` routine of Algorithm 2, the
//! live-list wedge walk with its hub probe (shared with
//! [`crate::bup::peel_live`]), and [`PeelGraph`] — CD's live graph, which
//! implements Dynamic Graph Maintenance (§4.2) by dropping every round's
//! peeled vertices from the lists the round touched.

use crate::support::SupportVec;
use bigraph::{BipartiteCsr, RankedGraph, Side, SideGraph, VertexId};
use std::sync::atomic::{AtomicBool, Ordering};

/// Neighbour access used by wedge traversal. Implemented by [`SideGraph`]
/// (static graph) and [`PeelGraph`] (CD's live graph).
pub trait WedgeAccess: Sync {
    fn nbrs_primary(&self, p: VertexId) -> &[VertexId];
    fn nbrs_secondary(&self, s: VertexId) -> &[VertexId];
    /// Whether every [`WedgeAccess::nbrs_secondary`] list holds only
    /// unpeeled primaries. Then [`peel_vertex`] walks each wedge from one
    /// end and probes hubs through [`WedgeAccess::adjacent`]; on static
    /// lists (the default) it walks every wedge from both ends.
    fn live(&self) -> bool {
        false
    }
    /// Whether primary `p` and secondary `s` are adjacent: the hub probe.
    fn adjacent(&self, p: VertexId, s: VertexId) -> bool {
        self.nbrs_primary(p).contains(&s)
    }
}

impl WedgeAccess for SideGraph<'_> {
    #[inline]
    fn nbrs_primary(&self, p: VertexId) -> &[VertexId] {
        self.neighbors_primary(p)
    }
    #[inline]
    fn nbrs_secondary(&self, s: VertexId) -> &[VertexId] {
        self.neighbors_secondary(s)
    }
}

/// Dense per-task scratch for one `update()` call: common-neighbour counts
/// plus the list of touched 2-hop neighbours.
pub struct PeelScratch {
    pub cnt: Vec<u32>,
    pub touched: Vec<VertexId>,
}

impl PeelScratch {
    pub fn new(num_primary: usize) -> Self {
        PeelScratch {
            cnt: vec![0; num_primary],
            touched: Vec::new(),
        }
    }

    /// Counts one wedge ending at `u2`.
    #[inline]
    fn note(&mut self, u2: VertexId) {
        let c = &mut self.cnt[u2 as usize];
        if *c == 0 {
            self.touched.push(u2);
        }
        *c += 1;
    }

    /// Hands every touched vertex and its count to `f`, leaving the
    /// scratch clean for reuse.
    #[inline]
    fn drain(&mut self, mut f: impl FnMut(VertexId, u64)) {
        for &u2 in &self.touched {
            f(u2, std::mem::take(&mut self.cnt[u2 as usize]) as u64);
        }
        self.touched.clear();
    }
}

/// Algorithm 2's `update(u, floor, ⋈, G)` for the parallel steps: traverses
/// all wedges anchored at the peeled vertex `u`, computes the shared
/// butterfly count `⋈(u, u') = C(common, 2)` per 2-hop neighbour, and
/// applies floor-clamped atomic decrements to every *alive* neighbour.
/// Calls `on_updated(u')` for each alive neighbour whose support actually
/// changed. Returns the number of wedges traversed.
///
/// On live lists ([`WedgeAccess::live`]) this is `walk_live`, hub probe
/// included; on static lists every wedge is walked from both ends.
pub fn peel_vertex<G: WedgeAccess>(
    g: &G,
    u: VertexId,
    floor: u64,
    support: &SupportVec,
    alive: &[AtomicBool],
    scratch: &mut PeelScratch,
    mut on_updated: impl FnMut(VertexId),
) -> u64 {
    let apply = |u2: VertexId, c: u64| {
        if c >= 2 && alive[u2 as usize].load(Ordering::Relaxed) {
            let prev = support.decrement(u2, c * (c - 1) / 2, floor);
            if prev > floor {
                on_updated(u2);
            }
        }
    };
    if g.live() {
        return walk_live(
            g.nbrs_primary(u),
            |s| g.nbrs_secondary(s),
            |p, s| g.adjacent(p, s),
            scratch,
            apply,
        );
    }
    let mut wedges = 0u64;
    for &s in g.nbrs_primary(u) {
        for &u2 in g.nbrs_secondary(s) {
            if u2 != u {
                wedges += 1;
                scratch.note(u2);
            }
        }
    }
    scratch.drain(apply);
    wedges
}

/// The wedge walk of one popped vertex on live lists, shared by
/// [`peel_vertex`] (CD) and [`crate::bup::peel_live`]. `list(s)` is the
/// live list of each of the vertex's `neighbors`: the unpeeled primaries
/// on it, the popped vertex no longer among them. So each wedge is walked
/// from one end only.
///
/// **Hub probe.** When one neighbour's list is longer than the other lists
/// combined, it is not scanned. A pair shares a butterfly only with 2 or
/// more common neighbours, so every vertex due a decrement also sits on
/// another list; its +1 for the skipped list comes from
/// `adjacent(u2, hub)`, a binary search in its own sorted list. A probe
/// counts as one wedge.
///
/// Calls `apply(u2, c)` for every vertex on the walked lists, with `c` its
/// common neighbours with the popped vertex. Returns the wedges walked.
pub(crate) fn walk_live<'a>(
    neighbors: &[VertexId],
    list: impl Fn(VertexId) -> &'a [VertexId],
    adjacent: impl Fn(VertexId, VertexId) -> bool,
    scratch: &mut PeelScratch,
    mut apply: impl FnMut(VertexId, u64),
) -> u64 {
    let (mut hub, mut hub_len, mut all_len) = (0, 0, 0);
    for &s in neighbors {
        let len = list(s).len();
        all_len += len;
        if len > hub_len {
            (hub, hub_len) = (s, len);
        }
    }
    let skip = (hub_len > all_len - hub_len).then_some(hub);
    let mut wedges = 0u64;
    for &s in neighbors {
        if Some(s) == skip {
            continue;
        }
        let list = list(s);
        wedges += list.len() as u64;
        for &u2 in list {
            scratch.note(u2);
        }
    }
    match skip {
        None => scratch.drain(apply),
        Some(hub) => {
            wedges += scratch.touched.len() as u64;
            scratch.drain(|u2, c| apply(u2, c + adjacent(u2, hub) as u64));
        }
    }
    wedges
}

/// A secondary adjacency restricted to unpeeled primaries:
/// `adj[start[s]..end[s]]` is the live list of `s`. Lists shrink in place
/// and keep the order they were built in.
pub(crate) struct LiveAdjacency {
    start: Vec<usize>,
    end: Vec<usize>,
    adj: Vec<VertexId>,
}

impl LiveAdjacency {
    /// Copies `list(s)` for every `s < num_lists`.
    pub(crate) fn new<'a>(num_lists: usize, list: impl Fn(VertexId) -> &'a [VertexId]) -> Self {
        let total = (0..num_lists as VertexId).map(|s| list(s).len()).sum();
        let mut start = Vec::with_capacity(num_lists);
        let mut end = Vec::with_capacity(num_lists);
        let mut adj = Vec::with_capacity(total);
        for s in 0..num_lists as VertexId {
            start.push(adj.len());
            adj.extend_from_slice(list(s));
            end.push(adj.len());
        }
        LiveAdjacency { start, end, adj }
    }

    #[inline]
    pub(crate) fn list(&self, s: VertexId) -> &[VertexId] {
        &self.adj[self.start[s as usize]..self.end[s as usize]]
    }

    /// Removes the live vertex `p` from the list of its neighbour `s`,
    /// which must be in ascending id order.
    #[inline]
    pub(crate) fn remove(&mut self, s: VertexId, p: VertexId) {
        let list = &mut self.adj[self.start[s as usize]..self.end[s as usize]];
        let at = list
            .binary_search(&p)
            .expect("a live vertex is on its neighbours' live lists");
        list.copy_within(at + 1.., at);
        self.end[s as usize] -= 1;
    }

    /// Keeps only the vertices of `s`'s list that `keep` accepts.
    fn retain(&mut self, s: VertexId, keep: impl Fn(VertexId) -> bool) {
        let (start, end) = (self.start[s as usize], self.end[s as usize]);
        let mut kept = start;
        for i in start..end {
            let p = self.adj[i];
            if keep(p) {
                self.adj[kept] = p;
                kept += 1;
            }
        }
        self.end[s as usize] = kept;
    }
}

/// The live graph during coarse-grained peeling. Owns the rank-sorted
/// [`RankedGraph`] built for initial counting and never changes it: HUC
/// re-counts run on it with the *original* ranks, filtering peeled
/// vertices by their alive flags (vertex-priority counting is exact under
/// any fixed total order; the degree order merely bounds its cost).
///
/// With DGM on, it also keeps *live lists*: each secondary vertex's
/// unpeeled primaries, in rank order. [`PeelGraph::kill_batch`] drops each
/// round's peeled vertices from them, so [`peel_vertex`] walks each wedge
/// from one end and probes hubs by rank. With DGM off, traversal reads the
/// static lists.
pub struct PeelGraph {
    side: Side,
    ranked: RankedGraph,
    alive: Vec<AtomicBool>,
    live_count: usize,
    /// The live lists, with DGM on.
    live: Option<LiveAdjacency>,
    /// [`PeelGraph::kill_batch`]'s per-list marks, all false between calls.
    marked: Vec<bool>,
}

impl PeelGraph {
    /// Takes ownership of the ranked graph built for initial counting;
    /// `dgm` keeps live lists.
    pub fn new(side: Side, ranked: RankedGraph, dgm: bool) -> Self {
        let (n, ns) = match side {
            Side::U => (ranked.num_u(), ranked.num_v()),
            Side::V => (ranked.num_v(), ranked.num_u()),
        };
        let mut pg = PeelGraph {
            side,
            ranked,
            alive: (0..n).map(|_| AtomicBool::new(true)).collect(),
            live_count: n,
            live: None,
            marked: Vec::new(),
        };
        if dgm {
            pg.live = Some(LiveAdjacency::new(ns, |s| pg.nbrs_secondary(s)));
            pg.marked = vec![false; ns];
        }
        pg
    }

    /// Convenience for tests: rank the graph and wrap it.
    pub fn from_csr(g: &BipartiteCsr, side: Side, dgm: bool) -> Self {
        PeelGraph::new(side, RankedGraph::from_csr(g), dgm)
    }

    pub fn num_primary(&self) -> usize {
        self.alive.len()
    }

    #[inline]
    pub fn is_alive(&self, p: VertexId) -> bool {
        self.alive[p as usize].load(Ordering::Relaxed)
    }

    pub fn alive_flags(&self) -> &[AtomicBool] {
        &self.alive
    }

    pub fn live_count(&self) -> usize {
        self.live_count
    }

    /// Marks a batch peeled. With live lists, also drops the batch from
    /// them: each list a batch vertex sits on is filtered once, by the
    /// alive flags, keeping its rank order. Call between iterations
    /// (single-threaded bookkeeping; the flags are read concurrently).
    pub fn kill_batch(&mut self, batch: &[VertexId]) {
        for &u in batch {
            debug_assert!(self.is_alive(u), "double peel of {u}");
            self.alive[u as usize].store(false, Ordering::Relaxed);
        }
        self.live_count -= batch.len();
        let PeelGraph {
            side,
            ranked,
            alive,
            live: Some(live),
            marked,
            ..
        } = self
        else {
            return;
        };
        let mut lists = Vec::new();
        for &u in batch {
            for &s in primary_list(ranked, *side, u) {
                if !std::mem::replace(&mut marked[s as usize], true) {
                    lists.push(s);
                }
            }
        }
        for s in lists {
            marked[s as usize] = false;
            live.retain(s, |p| alive[p as usize].load(Ordering::Relaxed));
        }
    }

    /// Peel-cost `Σ_{v∈N_u} d_v` of one vertex, with `d_v` the length of
    /// `v`'s list as traversal sees it (live or static).
    pub fn peel_cost(&self, u: VertexId) -> u64 {
        self.nbrs_primary(u)
            .iter()
            .map(|&s| self.nbrs_secondary(s).len() as u64)
            .sum()
    }

    /// HUC re-count: per-vertex butterfly counts of the *live* subgraph,
    /// computed on the graph as counted with alive-filtering — no
    /// re-ranking (the original rank order stays a valid priority for
    /// exact counting). Returns counts for both sides; callers pick
    /// `counts.side(side)`.
    pub fn recount_live(&self) -> butterfly::VertexCounts {
        butterfly::parallel::par_counts_with_filter(&self.ranked, self.side, &self.alive)
    }

    /// Rank of secondary vertex `s`: the order of every primary's list.
    #[inline]
    fn rank_secondary(&self, s: VertexId) -> u32 {
        match self.side {
            Side::U => self.ranked.rank_v(s),
            Side::V => self.ranked.rank_u(s),
        }
    }
}

/// `p`'s neighbours on the other side, ascending by rank.
#[inline]
fn primary_list(ranked: &RankedGraph, side: Side, p: VertexId) -> &[VertexId] {
    match side {
        Side::U => ranked.neighbors_u(p),
        Side::V => ranked.neighbors_v(p),
    }
}

impl WedgeAccess for PeelGraph {
    #[inline]
    fn nbrs_primary(&self, p: VertexId) -> &[VertexId] {
        primary_list(&self.ranked, self.side, p)
    }

    #[inline]
    fn nbrs_secondary(&self, s: VertexId) -> &[VertexId] {
        match (&self.live, self.side) {
            (Some(live), _) => live.list(s),
            (None, Side::U) => self.ranked.neighbors_v(s),
            (None, Side::V) => self.ranked.neighbors_u(s),
        }
    }

    fn live(&self) -> bool {
        self.live.is_some()
    }

    /// Binary search by rank in `p`'s rank-sorted list.
    #[inline]
    fn adjacent(&self, p: VertexId, s: VertexId) -> bool {
        let rank = self.rank_secondary(s);
        self.nbrs_primary(p)
            .binary_search_by_key(&rank, |&x| self.rank_secondary(x))
            .is_ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bigraph::builder::from_edges;

    fn k33() -> BipartiteCsr {
        let mut e = Vec::new();
        for u in 0..3 {
            for v in 0..3 {
                e.push((u, v));
            }
        }
        from_edges(3, 3, &e).unwrap()
    }

    fn alive_vec(n: usize) -> Vec<AtomicBool> {
        (0..n).map(|_| AtomicBool::new(true)).collect()
    }

    #[test]
    fn peel_vertex_applies_shared_butterflies() {
        let g = k33();
        let view = g.view(Side::U);
        // Each u in K(3,3) has 6 butterflies.
        let support = SupportVec::from_counts(&[6, 6, 6]);
        let alive = alive_vec(3);
        alive[0].store(false, Ordering::Relaxed); // u0 being peeled
        let mut scratch = PeelScratch::new(3);
        let mut updated = Vec::new();
        let wedges = peel_vertex(&view, 0, 0, &support, &alive, &mut scratch, |u| {
            updated.push(u)
        });
        // u0 shares C(3,2)=3 butterflies with each of u1, u2.
        assert_eq!(support.get(1), 3);
        assert_eq!(support.get(2), 3);
        // Wedges: 3 secondary neighbours × 2 other endpoints.
        assert_eq!(wedges, 6);
        updated.sort_unstable();
        assert_eq!(updated, vec![1, 2]);
        // Scratch is clean for reuse.
        assert!(scratch.touched.is_empty());
        assert!(scratch.cnt.iter().all(|&c| c == 0));
    }

    #[test]
    fn peel_vertex_respects_floor_and_dead() {
        let g = k33();
        let view = g.view(Side::U);
        let support = SupportVec::from_counts(&[6, 6, 6]);
        let alive = alive_vec(3);
        alive[0].store(false, Ordering::Relaxed);
        alive[2].store(false, Ordering::Relaxed); // dead: no update
        let mut scratch = PeelScratch::new(3);
        let mut updated = Vec::new();
        peel_vertex(&view, 0, 5, &support, &alive, &mut scratch, |u| {
            updated.push(u)
        });
        assert_eq!(support.get(1), 5, "clamped at floor");
        assert_eq!(support.get(2), 6, "dead vertex untouched");
        assert_eq!(updated, vec![1]);
    }

    #[test]
    fn peel_vertex_probes_a_hub_instead_of_scanning_it() {
        // u0 sits on v0 (a hub holding u0..u9), v1 = {u0, u1, u2} and
        // v2 = {u0, u1, u3}. Once u0 is killed, v0's live list (9) is
        // longer than v1's and v2's together (4).
        let mut edges: Vec<(u32, u32)> = (0..10).map(|u| (u, 0)).collect();
        edges.extend([(0, 1), (1, 1), (2, 1), (0, 2), (1, 2), (3, 2)]);
        let g = from_edges(10, 3, &edges).unwrap();
        let counts = butterfly::count_graph(&g);
        let peel = |graph: &dyn Fn(&SupportVec, &mut PeelScratch) -> u64| {
            let support = SupportVec::from_counts(&counts.u);
            let wedges = graph(&support, &mut PeelScratch::new(10));
            (support.snapshot(), wedges)
        };
        let mut live = PeelGraph::from_csr(&g, Side::U, true);
        live.kill_batch(&[0]);
        let (live_support, live_wedges) = peel(&|support, scratch| {
            peel_vertex(&live, 0, 0, support, live.alive_flags(), scratch, |_| {})
        });
        let mut fixed = PeelGraph::from_csr(&g, Side::U, false);
        fixed.kill_batch(&[0]);
        let (static_support, static_wedges) = peel(&|support, scratch| {
            peel_vertex(&fixed, 0, 0, support, fixed.alive_flags(), scratch, |_| {})
        });
        assert_eq!(live_support, static_support);
        // u1 shares all three V vertices with u0, u2 and u3 two each.
        let mut expected = counts.u.clone();
        for (u, shared) in [(1, 3), (2, 1), (3, 1)] {
            expected[u] -= shared;
        }
        assert_eq!(live_support, expected);
        // Static: every list in full (9 + 2 + 2). Live: v1 and v2 (2 + 2),
        // plus one probe per touched vertex (u1, u2, u3); v0 is not scanned.
        assert_eq!(static_wedges, 13);
        assert_eq!(live_wedges, 2 + 2 + 3);
    }

    #[test]
    fn kill_batch_keeps_live_lists_alive_and_rank_sorted() {
        let g = bigraph::gen::zipf(60, 40, 400, 0.5, 1.0, 5);
        for side in [Side::U, Side::V] {
            let mut pg = PeelGraph::from_csr(&g, side, true);
            let ranked = RankedGraph::from_csr(&g);
            let rank = |p: VertexId| match side {
                Side::U => ranked.rank_u(p),
                Side::V => ranked.rank_v(p),
            };
            let n = pg.num_primary() as VertexId;
            let batches: [Vec<VertexId>; 2] = [
                (0..n).step_by(3).collect(),
                (0..n).filter(|p| p % 3 != 0 && p % 4 == 1).collect(),
            ];
            for batch in &batches {
                pg.kill_batch(batch);
                for s in 0..g.view(side).num_secondary() as VertexId {
                    let list = pg.nbrs_secondary(s);
                    assert!(list.iter().all(|&p| pg.is_alive(p)), "side {side}");
                    assert!(list.windows(2).all(|w| rank(w[0]) < rank(w[1])));
                    let want = g.view(side).deg_secondary(s)
                        - g.view(side)
                            .neighbors_secondary(s)
                            .iter()
                            .filter(|&&p| !pg.is_alive(p))
                            .count();
                    assert_eq!(list.len(), want, "side {side}, list {s}");
                }
            }
        }
    }

    #[test]
    fn peelgraph_v_side() {
        let g = from_edges(2, 3, &[(0, 0), (0, 1), (0, 2), (1, 0), (1, 1)]).unwrap();
        let mut pg = PeelGraph::from_csr(&g, Side::V, true);
        assert_eq!(pg.num_primary(), 3);
        pg.kill_batch(&[2]);
        // u0 (a secondary vertex in this view) lost its edge to v2.
        assert_eq!(pg.nbrs_secondary(0).len(), 2);
        assert!(pg.is_alive(0) && pg.is_alive(1) && !pg.is_alive(2));
        assert_eq!(pg.live_count(), 2);
    }

    #[test]
    fn peel_cost_tracks_current_structure() {
        let g = k33();
        for dgm in [true, false] {
            let mut pg = PeelGraph::from_csr(&g, Side::U, dgm);
            assert_eq!(pg.peel_cost(0), 9); // 3 neighbours × degree 3
            pg.kill_batch(&[2]);
            // Live lists dropped u2; static lists keep it.
            assert_eq!(pg.peel_cost(0), if dgm { 6 } else { 9 });
        }
    }

    #[test]
    fn recount_live_matches_fresh_count() {
        // Counting on the original ranks with dead vertices filtered must
        // equal a from-scratch count of the live subgraph.
        let g = bigraph::gen::zipf(50, 30, 300, 0.5, 0.9, 6);
        let mut pg = PeelGraph::from_csr(&g, Side::U, true);
        let dead: Vec<u32> = (0..50).step_by(3).collect();
        pg.kill_batch(&dead);
        let stale = pg.recount_live();
        let alive_u: Vec<bool> = (0..50).map(|u| u % 3 != 0).collect();
        let fresh_csr = bigraph::compact::compact(&g, &alive_u, &[true; 30]);
        let fresh = butterfly::count_graph(&fresh_csr);
        assert_eq!(stale.u, fresh.u);
        assert_eq!(stale.v, fresh.v);
    }
}
