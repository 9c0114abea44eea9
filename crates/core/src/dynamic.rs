//! Incremental tip maintenance over a [`DynamicButterflyIndex`] — the
//! policy layer that turns batched graph updates into fresh tip numbers.
//!
//! Tip numbers are a global property of the butterfly structure, so the
//! update policy is *exact by construction* and trades only the amount of
//! recomputation:
//!
//! * **`Unchanged`** — the batch changed no butterflies. Peeling decrements
//!   supports by `C(c, 2)` over shared-neighbour counts `c`, and any change
//!   of `C(c, 2)` is itself a butterfly gained or lost, so an empty dirty
//!   set implies the whole decomposition is untouched (new vertices join
//!   with tip 0).
//! * **`SeededRepeel`** — the dirty frontier (vertices on a changed
//!   butterfly) is small: re-peel the materialized graph with
//!   [`crate::bup::peel_live`], seeded with the incrementally maintained
//!   butterfly counts. Skipping the recount saves only its 18 ms on the
//!   It analog's U side. The saving is in the peel, which walks each
//!   wedge from one end only and probes hub lists instead of scanning
//!   them: about a fifth of `peel_all`'s wedges there.
//! * **`FullRecompute`** — the dirty fraction crossed the threshold: the
//!   maintained counts no longer buy much, so fall back to the full
//!   parallel [`crate::tip_decompose`] (CD + FD) on the materialized
//!   graph.

use crate::bup::peel_live;
use crate::Config;
use bigraph::Side;
use butterfly::{BatchDelta, DynamicButterflyIndex};
use serde::{Deserialize, Serialize};
use std::time::{Duration, Instant};

/// How a batch's tip update was computed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UpdatePolicy {
    /// No butterflies changed — the decomposition is provably untouched.
    Unchanged,
    /// [`crate::bup::peel_live`] seeded with the maintained counts.
    SeededRepeel,
    /// Full parallel CD + FD pipeline from scratch.
    FullRecompute,
}

impl UpdatePolicy {
    /// The kebab-case name used in reports (`"seeded-repeel"`, ...).
    pub fn as_str(self) -> &'static str {
        match self {
            UpdatePolicy::Unchanged => "unchanged",
            UpdatePolicy::SeededRepeel => "seeded-repeel",
            UpdatePolicy::FullRecompute => "full-recompute",
        }
    }
}

// Hand-written (the vendored derive would emit variant names): the wire
// form is the same kebab-case string the text tables print, so JSON
// consumers and humans read one vocabulary.
impl Serialize for UpdatePolicy {
    fn serialize<S: serde::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_str(self.as_str())
    }
}

impl Deserialize for UpdatePolicy {
    fn deserialize<D: serde::Deserializer>(deserializer: D) -> Result<Self, D::Error> {
        match deserializer.deserialize_string()?.as_str() {
            "unchanged" => Ok(UpdatePolicy::Unchanged),
            "seeded-repeel" => Ok(UpdatePolicy::SeededRepeel),
            "full-recompute" => Ok(UpdatePolicy::FullRecompute),
            other => Err(<D::Error as serde::de::Error>::unknown_variant(
                "UpdatePolicy",
                other,
            )),
        }
    }
}

/// Default dirty fraction beyond which a full recompute wins.
pub const DEFAULT_DIRTY_THRESHOLD: f64 = 0.2;

/// One batch's tip-update telemetry.
#[derive(Debug, Clone, PartialEq)]
pub struct TipUpdate {
    /// How this batch's tips were computed.
    pub policy: UpdatePolicy,
    /// Peel-side vertices on a butterfly the batch changed.
    pub dirty: usize,
    /// `dirty / |primary side|`.
    pub dirty_fraction: f64,
    /// Wedges traversed by the update (0 under `Unchanged`).
    pub wedges: u64,
    /// Wall-clock time of the update.
    pub time: Duration,
}

/// Maintained tip numbers for one side of a dynamic graph.
#[derive(Debug, Clone)]
pub struct DynamicTipState {
    side: Side,
    config: Config,
    dirty_threshold: f64,
    tip: Vec<u64>,
}

impl DynamicTipState {
    /// Computes the initial decomposition by re-peeling with the index's
    /// already-maintained counts (no recount needed).
    pub fn new(index: &DynamicButterflyIndex, side: Side, config: Config) -> Self {
        Self::with_threshold(index, side, config, DEFAULT_DIRTY_THRESHOLD)
    }

    /// `dirty_threshold` is the dirty fraction beyond which a batch falls
    /// back to the full CD + FD recompute.
    pub fn with_threshold(
        index: &DynamicButterflyIndex,
        side: Side,
        config: Config,
        dirty_threshold: f64,
    ) -> Self {
        let g = index.materialize();
        let (tip, _) = peel_live(g.view(side), index.counts_side(side), config.heap_arity);
        DynamicTipState {
            side,
            config,
            dirty_threshold,
            tip,
        }
    }

    /// The side whose tips this state maintains.
    pub fn side(&self) -> Side {
        self.side
    }

    /// Current tip numbers, indexed by side-local vertex id.
    pub fn tip(&self) -> &[u64] {
        &self.tip
    }

    /// Largest current tip number (0 on an empty side).
    pub fn theta_max(&self) -> u64 {
        self.tip.iter().copied().max().unwrap_or(0)
    }

    /// Brings the tip numbers up to date after `index.apply_batch`
    /// produced `delta`. Must be called with the delta of every batch, in
    /// order — the `Unchanged` shortcut is only sound relative to the
    /// previous batch's state.
    pub fn update(&mut self, index: &DynamicButterflyIndex, delta: &BatchDelta) -> TipUpdate {
        let t0 = Instant::now();
        let num_primary = match self.side {
            Side::U => index.graph().num_u(),
            Side::V => index.graph().num_v(),
        };
        // Vertices added by the batch start isolated: tip 0.
        self.tip.resize(num_primary, 0);

        let dirty = delta.dirty_side(self.side).len();
        let dirty_fraction = dirty as f64 / num_primary.max(1) as f64;
        let (policy, wedges) = if dirty == 0 {
            (UpdatePolicy::Unchanged, 0)
        } else if dirty_fraction > self.dirty_threshold {
            let d = crate::tip_decompose(&index.materialize(), self.side, &self.config);
            self.tip = d.tip;
            (UpdatePolicy::FullRecompute, d.metrics.wedges_total())
        } else {
            let g = index.materialize();
            let (tip, wedges) = peel_live(
                g.view(self.side),
                index.counts_side(self.side),
                self.config.heap_arity,
            );
            self.tip = tip;
            (UpdatePolicy::SeededRepeel, wedges)
        };
        TipUpdate {
            policy,
            dirty,
            dirty_fraction,
            wedges,
            time: t0.elapsed(),
        }
    }
}

/// From-scratch artifacts produced by [`verify_against_scratch`], returned
/// so callers pricing the incremental update (e.g. `repro dynamic`) can
/// reuse the oracle run instead of recomputing it.
#[derive(Debug, Clone)]
pub struct ScratchArtifacts {
    /// Full parallel recount (Algorithm 1) of the materialized graph.
    pub counts: butterfly::VertexCounts,
    /// Wedges traversed by the BUP peels across the checked sides.
    pub peel_wedges: u64,
}

/// The single differential gate behind `tipdecomp stream --verify`,
/// `repro dynamic`, and the root `dynamic_differential` suite: recomputes
/// everything from scratch on the materialized graph and compares every
/// maintained quantity —
///
/// * per-vertex butterfly counts (both sides) and the total,
/// * per-edge counts, including that no stale entry survives for an
///   absent or butterfly-free edge,
/// * tip numbers of every supplied [`DynamicTipState`] against
///   [`crate::bup::bup_decompose`].
pub fn verify_against_scratch(
    index: &butterfly::DynamicButterflyIndex,
    states: &[&DynamicTipState],
) -> Result<ScratchArtifacts, String> {
    let g = index.materialize();
    let fresh = butterfly::par_count_graph(&g);
    if index.counts_side(Side::U) != &fresh.u[..] {
        return Err("incremental U-side butterfly counts diverged from recount".into());
    }
    if index.counts_side(Side::V) != &fresh.v[..] {
        return Err("incremental V-side butterfly counts diverged from recount".into());
    }
    if index.total_butterflies() != fresh.total() {
        return Err(format!(
            "incremental total {} != recount total {}",
            index.total_butterflies(),
            fresh.total()
        ));
    }
    let per_edge = butterfly::per_edge::par_per_edge_counts(g.view(Side::U));
    for ((u, v), &expect) in g.edges().zip(&per_edge) {
        if index.edge_count(u, v) != expect {
            return Err(format!(
                "per-edge count of ({u}, {v}) diverged from recount"
            ));
        }
    }
    let nonzero = per_edge.iter().filter(|&&c| c > 0).count();
    if index.tracked_edges() != nonzero {
        return Err(format!(
            "{} tracked per-edge entries but the recount has {nonzero} \
             butterfly-carrying edges — stale entries for absent edges",
            index.tracked_edges()
        ));
    }
    let mut peel_wedges = 0;
    for state in states {
        let oracle = crate::bup::bup_decompose(&g, state.side(), 4);
        if state.tip() != &oracle.tip[..] {
            return Err(format!(
                "incremental {} tip numbers diverged from BUP",
                state.side()
            ));
        }
        peel_wedges += oracle.wedges_peel;
    }
    Ok(ScratchArtifacts {
        counts: fresh,
        peel_wedges,
    })
}

/// FNV-1a over little-endian `u64` words — a thread-count-invariant digest
/// of a decomposition (tip or wing numbers in id order), embedded in
/// reports so cross-run comparisons need not inline full vectors.
pub fn fnv1a_u64(values: &[u64]) -> u64 {
    let mut hash = bigraph::bytes::Fnv1a::new();
    values.iter().for_each(|&value| hash.word(value));
    hash.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bigraph::builder::from_edges;
    use bigraph::dynamic::EdgeOp;
    use bigraph::gen;

    fn oracle_tips(index: &DynamicButterflyIndex, side: Side) -> Vec<u64> {
        crate::bup::bup_decompose(&index.materialize(), side, 4).tip
    }

    #[test]
    fn initial_state_matches_bup() {
        let g = gen::planted_bicliques(20, 20, 2, 4, 4, 30, 3);
        let index = DynamicButterflyIndex::new(g);
        let state = DynamicTipState::new(&index, Side::U, Config::default());
        assert_eq!(state.tip(), &oracle_tips(&index, Side::U)[..]);
    }

    #[test]
    fn butterfly_free_batch_is_unchanged() {
        let g = from_edges(3, 3, &[(0, 0), (0, 1), (1, 0), (1, 1)]).unwrap();
        let mut index = DynamicButterflyIndex::new(g);
        let mut state = DynamicTipState::new(&index, Side::U, Config::default());
        // A pendant edge on a fresh vertex closes no butterfly.
        let delta = index.apply_batch(&[EdgeOp::Insert(4, 2)]);
        let update = state.update(&index, &delta);
        assert_eq!(update.policy, UpdatePolicy::Unchanged);
        assert_eq!(update.wedges, 0);
        assert_eq!(state.tip().len(), 5, "grown vertex gets a tip slot");
        assert_eq!(state.tip()[4], 0);
        assert_eq!(state.tip(), &oracle_tips(&index, Side::U)[..]);
    }

    #[test]
    fn small_dirty_set_repeels_with_seeded_counts() {
        let g = gen::zipf(60, 40, 300, 0.5, 0.9, 5);
        let mut index = DynamicButterflyIndex::new(g.clone());
        let mut state = DynamicTipState::with_threshold(&index, Side::U, Config::default(), 0.9);
        // One edge between existing dense vertices: small dirty set.
        let (u, v) = (0u32, 0u32);
        let op = if index.graph().has_edge(u, v) {
            EdgeOp::Delete(u, v)
        } else {
            EdgeOp::Insert(u, v)
        };
        let delta = index.apply_batch(&[op]);
        let update = state.update(&index, &delta);
        if delta.dirty_u.is_empty() {
            assert_eq!(update.policy, UpdatePolicy::Unchanged);
        } else {
            assert_eq!(update.policy, UpdatePolicy::SeededRepeel);
            assert!(update.dirty_fraction <= 0.9);
        }
        assert_eq!(state.tip(), &oracle_tips(&index, Side::U)[..]);
    }

    #[test]
    fn large_dirty_fraction_falls_back_to_full_recompute() {
        let g = gen::planted_bicliques(16, 16, 2, 4, 4, 20, 7);
        let mut index = DynamicButterflyIndex::new(g);
        let mut state = DynamicTipState::with_threshold(&index, Side::U, Config::default(), 0.0);
        // Any butterfly change trips a 0.0 threshold.
        let delta = index.apply_batch(&[EdgeOp::Insert(0, 0), EdgeOp::Insert(0, 1)]);
        let update = state.update(&index, &delta);
        if delta.dirty_u.is_empty() {
            assert_eq!(update.policy, UpdatePolicy::Unchanged);
        } else {
            assert_eq!(update.policy, UpdatePolicy::FullRecompute);
        }
        assert_eq!(state.tip(), &oracle_tips(&index, Side::U)[..]);
    }

    #[test]
    fn tracks_oracle_across_a_random_schedule_on_both_sides() {
        let g = gen::uniform(40, 30, 180, 11);
        let schedule = bigraph::dynamic::seeded_schedule(&g, 5, 25, 19);
        for side in [Side::U, Side::V] {
            let mut index = DynamicButterflyIndex::new(g.clone());
            let mut state = DynamicTipState::with_threshold(&index, side, Config::default(), 0.1);
            let mut policies = Vec::new();
            for batch in &schedule {
                let delta = index.apply_batch(batch);
                let update = state.update(&index, &delta);
                policies.push(update.policy);
                assert_eq!(
                    state.tip(),
                    &oracle_tips(&index, side)[..],
                    "side {side} diverged from BUP"
                );
            }
            assert!(
                policies.contains(&UpdatePolicy::FullRecompute)
                    || policies.contains(&UpdatePolicy::SeededRepeel),
                "schedule never exercised a recompute: {policies:?}"
            );
        }
    }

    #[test]
    fn seeded_repeel_walks_fewer_wedges_than_peel_all() {
        // Hub-skewed secondary side: the regime the live adjacency and the
        // hub probe are for.
        let g = gen::zipf(300, 40, 1500, 0.3, 1.1, 9);
        let mut index = DynamicButterflyIndex::new(g);
        let mut state = DynamicTipState::with_threshold(&index, Side::U, Config::default(), 1.0);
        let op = if index.graph().has_edge(0, 0) {
            EdgeOp::Delete(0, 0)
        } else {
            EdgeOp::Insert(0, 0)
        };
        let delta = index.apply_batch(&[op]);
        let update = state.update(&index, &delta);
        assert_eq!(update.policy, UpdatePolicy::SeededRepeel);
        let g = index.materialize();
        let (tip, all_wedges) =
            crate::bup::peel_all(g.view(Side::U), index.counts_side(Side::U), 4);
        assert_eq!(state.tip(), &tip[..]);
        assert!(
            update.wedges < all_wedges,
            "seeded re-peel walked {} wedges, peel_all {all_wedges}",
            update.wedges
        );
    }

    #[test]
    fn policy_strings() {
        assert_eq!(UpdatePolicy::Unchanged.as_str(), "unchanged");
        assert_eq!(UpdatePolicy::SeededRepeel.as_str(), "seeded-repeel");
        assert_eq!(UpdatePolicy::FullRecompute.as_str(), "full-recompute");
    }

    #[test]
    fn fnv_checksum_properties() {
        assert_eq!(fnv1a_u64(&[]), 0xcbf2_9ce4_8422_2325);
        assert_ne!(fnv1a_u64(&[1, 2]), fnv1a_u64(&[2, 1]));
        assert_eq!(fnv1a_u64(&[3, 4]), fnv1a_u64(&[3, 4]));
    }
}
