//! The vertex peel of Algorithm 2's `update()`, written once for the
//! whole crate: the two wedge walks of a popped vertex, and [`PeelGraph`],
//! the graph RECEIPT CD and ParB peel in parallel rounds.
//!
//! * `walk_static` walks the input CSR's lists. Across a whole peel,
//!   every wedge is walked from both ends. ParB, CD with DGM off,
//!   [`crate::bup::peel_all`] and [`crate::hierarchy::ktip_components`]
//!   use it.
//! * `walk_live` walks *live lists*, which hold only unpeeled primaries,
//!   so each wedge is walked from the end peeled first. It probes hub
//!   lists instead of scanning them. CD with DGM on and
//!   [`crate::bup::peel_live`] use it.
//!
//! [`PeelGraph`] reads the input graph's [`SideGraph`]. With Dynamic Graph
//! Maintenance (§4.2) on, it keeps live copies of the secondary lists and
//! drops every round's peeled vertices from them.

use crate::support::SupportVec;
use bigraph::{SideGraph, VertexId};
use parutil::pool::ScratchGuard;
use parutil::ScratchPool;
use rayon::prelude::*;
use std::sync::atomic::{AtomicBool, Ordering};

/// Dense scratch for one vertex's wedge walk: common-neighbour counts plus
/// the list of touched 2-hop neighbours.
pub struct PeelScratch {
    cnt: Vec<u32>,
    touched: Vec<VertexId>,
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

/// The wedge walk of popped vertex `u` on the static lists of `view`:
/// calls `apply(u2, c)` for every other primary on the lists of `u`'s
/// neighbours, with `c` its common neighbours with `u`. Returns the wedges
/// walked.
pub(crate) fn walk_static(
    view: SideGraph<'_>,
    u: VertexId,
    scratch: &mut PeelScratch,
    apply: impl FnMut(VertexId, u64),
) -> u64 {
    let mut wedges = 0u64;
    for &s in view.neighbors_primary(u) {
        for &u2 in view.neighbors_secondary(s) {
            if u2 != u {
                wedges += 1;
                scratch.note(u2);
            }
        }
    }
    scratch.drain(apply);
    wedges
}

/// The wedge walk of popped vertex `u` on live lists. `live` must hold,
/// for each of `u`'s neighbours in `view`, the unpeeled primaries on its
/// list, `u` no longer among them. So each wedge is walked from one end
/// only.
///
/// **Hub probe.** When one neighbour's list is longer than the other lists
/// combined, it is not scanned. A pair shares a butterfly only with 2 or
/// more common neighbours, so every vertex due a decrement also sits on
/// another list; its +1 for the skipped list comes from a binary search
/// for the hub in its own sorted list in `view`. A probe counts as one
/// wedge. The hub is longer than all other lists together, so it is
/// unique whatever the list order.
///
/// Calls `apply(u2, c)` for every vertex on the walked lists, with `c` its
/// common neighbours with `u`. Returns the wedges walked.
pub(crate) fn walk_live(
    view: SideGraph<'_>,
    u: VertexId,
    live: &LiveAdjacency,
    scratch: &mut PeelScratch,
    mut apply: impl FnMut(VertexId, u64),
) -> u64 {
    let neighbors = view.neighbors_primary(u);
    let (mut hub, mut hub_len, mut all_len) = (0, 0, 0);
    for &s in neighbors {
        let len = live.list(s).len();
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
        let list = live.list(s);
        wedges += list.len() as u64;
        for &u2 in list {
            scratch.note(u2);
        }
    }
    match skip {
        None => scratch.drain(apply),
        Some(hub) => {
            wedges += scratch.touched.len() as u64;
            scratch.drain(|u2, c| {
                let on_hub = view.neighbors_primary(u2).binary_search(&hub).is_ok();
                apply(u2, c + on_hub as u64)
            });
        }
    }
    wedges
}

/// A secondary adjacency restricted to unpeeled primaries:
/// `adj[start[s]..end[s]]` is the live list of `s`. Lists start as copies
/// of the CSR's, so they are sorted by id, and shrink in place.
pub(crate) struct LiveAdjacency {
    start: Vec<usize>,
    end: Vec<usize>,
    adj: Vec<VertexId>,
}

impl LiveAdjacency {
    /// Copies every secondary list of `view`.
    pub(crate) fn new(view: SideGraph<'_>) -> Self {
        let ns = view.num_secondary();
        let mut start = Vec::with_capacity(ns);
        let mut end = Vec::with_capacity(ns);
        let mut adj = Vec::with_capacity(view.num_edges());
        for s in 0..ns as VertexId {
            start.push(adj.len());
            adj.extend_from_slice(view.neighbors_secondary(s));
            end.push(adj.len());
        }
        LiveAdjacency { start, end, adj }
    }

    #[inline]
    pub(crate) fn list(&self, s: VertexId) -> &[VertexId] {
        &self.adj[self.start[s as usize]..self.end[s as usize]]
    }

    /// Removes the live vertex `p` from the list of its neighbour `s`.
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

/// The graph a parallel peel runs on: the input graph's [`SideGraph`],
/// an alive flag per primary, and a pool of [`PeelScratch`]es.
///
/// With DGM on, it also keeps live lists. [`PeelGraph::kill_batch`] drops
/// each round's peeled vertices from them, so [`PeelGraph::peel_vertex`]
/// walks each wedge from one end and probes hubs. With DGM off, it walks
/// the CSR's lists.
pub struct PeelGraph<'a> {
    view: SideGraph<'a>,
    alive: Vec<AtomicBool>,
    /// The live lists, with DGM on.
    live: Option<LiveAdjacency>,
    /// [`PeelGraph::kill_batch`]'s per-list marks, all false between calls.
    marked: Vec<bool>,
    scratch: ScratchPool<PeelScratch>,
}

impl<'a> PeelGraph<'a> {
    /// Every primary of `view` alive; `dgm` keeps live lists.
    pub fn new(view: SideGraph<'a>, dgm: bool) -> Self {
        let n = view.num_primary();
        PeelGraph {
            view,
            alive: (0..n).map(|_| AtomicBool::new(true)).collect(),
            live: dgm.then(|| LiveAdjacency::new(view)),
            marked: vec![false; if dgm { view.num_secondary() } else { 0 }],
            scratch: ScratchPool::new(move || PeelScratch::new(n)),
        }
    }

    #[inline]
    pub fn is_alive(&self, p: VertexId) -> bool {
        self.alive[p as usize].load(Ordering::Relaxed)
    }

    pub fn alive_flags(&self) -> &[AtomicBool] {
        &self.alive
    }

    /// Marks `p` peeled. Returns whether it was alive, so each vertex is
    /// claimed once even when claims race. Leaves the live lists as they
    /// are.
    pub(crate) fn claim(&self, p: VertexId) -> bool {
        self.alive[p as usize].swap(false, Ordering::Relaxed)
    }

    /// Marks a batch peeled. With live lists, also drops the batch from
    /// them: each list a batch vertex sits on is filtered once, by the
    /// alive flags, keeping its order. Call between rounds.
    pub fn kill_batch(&mut self, batch: &[VertexId]) {
        for &u in batch {
            let claimed = self.claim(u);
            debug_assert!(claimed, "double peel of {u}");
        }
        let PeelGraph {
            view,
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
            for &s in view.neighbors_primary(u) {
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

    /// `s`'s list as the walk reads it: live with DGM on, else static.
    #[inline]
    fn secondary(&self, s: VertexId) -> &[VertexId] {
        match &self.live {
            Some(live) => live.list(s),
            None => self.view.neighbors_secondary(s),
        }
    }

    /// Peel-cost `Σ_{v∈N_u} d_v` of one vertex, with `d_v` the length of
    /// `v`'s list as the walk reads it.
    pub fn peel_cost(&self, u: VertexId) -> u64 {
        self.view
            .neighbors_primary(u)
            .iter()
            .map(|&s| self.secondary(s).len() as u64)
            .sum()
    }

    /// Algorithm 2's `update(u, floor, ⋈, G)`: walks the wedges of the
    /// peeled vertex `u`, and lowers every *alive* 2-hop neighbour's
    /// support by the butterflies it shares with `u`, `C(common, 2)`,
    /// never below `floor`. Calls `on_updated(u')` for each neighbour
    /// whose support changed. Returns the wedges walked.
    pub fn peel_vertex(
        &self,
        u: VertexId,
        floor: u64,
        support: &SupportVec,
        scratch: &mut PeelScratch,
        mut on_updated: impl FnMut(VertexId),
    ) -> u64 {
        let apply = |u2: VertexId, c: u64| {
            if c >= 2 && self.is_alive(u2) && support.decrement(u2, c * (c - 1) / 2, floor) > floor
            {
                on_updated(u2);
            }
        };
        match &self.live {
            Some(live) => walk_live(self.view, u, live, scratch, apply),
            None => walk_static(self.view, u, scratch, apply),
        }
    }

    /// One parallel round: [`PeelGraph::peel_vertex`] over `batch`, each
    /// task checking one scratch out. Returns the vertices whose support
    /// changed, repeats allowed and in any order, and the wedges walked.
    pub(crate) fn peel_batch(
        &self,
        batch: &[VertexId],
        floor: u64,
        support: &SupportVec,
    ) -> (Vec<VertexId>, u64) {
        batch
            .par_iter()
            .fold(
                || (Vec::new(), 0u64, self.scratch()),
                |(mut updated, wedges, mut scratch), &u| {
                    let w =
                        self.peel_vertex(u, floor, support, &mut scratch, |u2| updated.push(u2));
                    (updated, wedges + w, scratch)
                },
            )
            .map(|(updated, wedges, _)| (updated, wedges))
            .reduce(
                || (Vec::new(), 0),
                |(mut a, wa), (mut b, wb)| {
                    a.append(&mut b);
                    (a, wa + wb)
                },
            )
    }

    /// Checks a scratch out of the graph's pool.
    pub(crate) fn scratch(&self) -> ScratchGuard<'_, PeelScratch> {
        self.scratch.acquire()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bigraph::builder::from_edges;
    use bigraph::{BipartiteCsr, RankedGraph, Side};

    fn k33() -> BipartiteCsr {
        let mut e = Vec::new();
        for u in 0..3 {
            for v in 0..3 {
                e.push((u, v));
            }
        }
        from_edges(3, 3, &e).unwrap()
    }

    #[test]
    fn peel_vertex_applies_shared_butterflies() {
        let g = k33();
        let mut pg = PeelGraph::new(g.view(Side::U), false);
        // Each u in K(3,3) has 6 butterflies.
        let support = SupportVec::from_counts(&[6, 6, 6]);
        pg.kill_batch(&[0]); // u0 being peeled
        let mut scratch = PeelScratch::new(3);
        let mut updated = Vec::new();
        let wedges = pg.peel_vertex(0, 0, &support, &mut scratch, |u| updated.push(u));
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
        let mut pg = PeelGraph::new(g.view(Side::U), false);
        let support = SupportVec::from_counts(&[6, 6, 6]);
        pg.kill_batch(&[0, 2]); // u0 being peeled, u2 dead: no update
        let mut scratch = PeelScratch::new(3);
        let mut updated = Vec::new();
        pg.peel_vertex(0, 5, &support, &mut scratch, |u| updated.push(u));
        assert_eq!(support.get(1), 5, "clamped at floor");
        assert_eq!(support.get(2), 6, "dead vertex untouched");
        assert_eq!(updated, vec![1]);
    }

    #[test]
    fn peel_vertex_probes_a_hub_instead_of_scanning_it() {
        // u0 sits on a hub holding u0..u9, on a = {u0, u1, u2} and on
        // b = {u0, u1, u3}. Once u0 is killed, the hub's live list (9) is
        // longer than a's and b's together (4). The hub is v0 first, then
        // v2: the highest id, but the lowest rank, so a probe that mixed up
        // id order and rank order would miss it.
        for (hub, a, b) in [(0, 1, 2), (2, 0, 1)] {
            let mut edges: Vec<(u32, u32)> = (0..10).map(|u| (u, hub)).collect();
            edges.extend([(0, a), (1, a), (2, a), (0, b), (1, b), (3, b)]);
            let g = from_edges(10, 3, &edges).unwrap();
            // The hub has the highest degree in W: rank 0.
            assert_eq!(RankedGraph::from_csr(&g).rank(10 + hub), 0);
            let counts = butterfly::count_graph(&g);
            let peel = |dgm: bool| {
                let mut pg = PeelGraph::new(g.view(Side::U), dgm);
                pg.kill_batch(&[0]);
                let support = SupportVec::from_counts(&counts.u);
                let mut scratch = PeelScratch::new(10);
                let wedges = pg.peel_vertex(0, 0, &support, &mut scratch, |_| {});
                (support.snapshot(), wedges)
            };
            let (live_support, live_wedges) = peel(true);
            let (static_support, static_wedges) = peel(false);
            assert_eq!(live_support, static_support, "hub v{hub}");
            // u1 shares all three V vertices with u0, u2 and u3 two each.
            let mut expected = counts.u.clone();
            for (u, shared) in [(1, 3), (2, 1), (3, 1)] {
                expected[u] -= shared;
            }
            assert_eq!(live_support, expected, "hub v{hub}");
            // Static: every list in full (9 + 2 + 2). Live: a and b (2 + 2),
            // plus one probe per touched vertex (u1, u2, u3); the hub is
            // not scanned.
            assert_eq!(static_wedges, 13, "hub v{hub}");
            assert_eq!(live_wedges, 2 + 2 + 3, "hub v{hub}");
        }
    }

    #[test]
    fn kill_batch_keeps_live_lists_alive_and_id_sorted() {
        let g = bigraph::gen::zipf(60, 40, 400, 0.5, 1.0, 5);
        for side in [Side::U, Side::V] {
            let view = g.view(side);
            let mut pg = PeelGraph::new(view, true);
            let n = view.num_primary() as VertexId;
            let batches: [Vec<VertexId>; 2] = [
                (0..n).step_by(3).collect(),
                (0..n).filter(|p| p % 3 != 0 && p % 4 == 1).collect(),
            ];
            for batch in &batches {
                pg.kill_batch(batch);
                for s in 0..view.num_secondary() as VertexId {
                    let list = pg.secondary(s);
                    assert!(list.iter().all(|&p| pg.is_alive(p)), "side {side}");
                    assert!(list.windows(2).all(|w| w[0] < w[1]), "side {side}");
                    let want = view
                        .neighbors_secondary(s)
                        .iter()
                        .filter(|&&p| pg.is_alive(p))
                        .count();
                    assert_eq!(list.len(), want, "side {side}, list {s}");
                }
            }
        }
    }

    #[test]
    fn peelgraph_v_side() {
        let g = from_edges(2, 3, &[(0, 0), (0, 1), (0, 2), (1, 0), (1, 1)]).unwrap();
        let mut pg = PeelGraph::new(g.view(Side::V), true);
        assert_eq!(pg.alive_flags().len(), 3);
        pg.kill_batch(&[2]);
        // u0 (a secondary vertex in this view) lost its edge to v2.
        assert_eq!(pg.secondary(0), &[0, 1]);
        assert!(pg.is_alive(0) && pg.is_alive(1) && !pg.is_alive(2));
    }

    #[test]
    fn peel_cost_tracks_current_structure() {
        let g = k33();
        for dgm in [true, false] {
            let mut pg = PeelGraph::new(g.view(Side::U), dgm);
            assert_eq!(pg.peel_cost(0), 9); // 3 neighbours × degree 3
            pg.kill_batch(&[2]);
            // Live lists dropped u2; static lists keep it.
            assert_eq!(pg.peel_cost(0), if dgm { 6 } else { 9 });
        }
    }
}
