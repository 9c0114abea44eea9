//! ParB — ParButterfly-style parallel bottom-up peeling (the paper's
//! state-of-the-art parallel baseline \[54\], BATCH aggregation mode with the
//! Julienne bucketing structure \[13\]).
//!
//! Every round extracts *all* vertices with the minimum support and peels
//! them concurrently; the support updates computed in a round decide the
//! next round's batch, so rounds are inherently serialized — that is the
//! synchronization bottleneck RECEIPT removes (ρ here is typically 100–1000×
//! the RECEIPT CD round count, Table 3).
//!
//! Rounds peel on a [`PeelGraph`] without DGM, so every peel walks the
//! input CSR's lists and each wedge is walked from both ends, as in BUP.
//! A round of 16 or more vertices is CD's parallel round,
//! `PeelGraph::peel_batch`; a smaller one peels on the calling thread.
//! Vertices are claimed through the graph's alive flags.

use crate::bucket::BucketQueue;
use crate::bup::BaselineResult;
use crate::peel::PeelGraph;
use crate::support::SupportVec;
use bigraph::{BipartiteCsr, Side};
use std::time::Instant;

/// Number of open buckets used by ParButterfly (via Julienne).
pub const PARB_OPEN_BUCKETS: usize = 128;

/// Batches smaller than this are peeled on the calling thread — a real
/// runtime would still barrier, so the round is counted either way.
const SEQ_BATCH_CUTOFF: usize = 16;

/// Parallel bottom-up tip decomposition of `side`.
pub fn parb_decompose(g: &BipartiteCsr, side: Side) -> BaselineResult {
    let t0 = Instant::now();
    let ranked = bigraph::RankedGraph::from_csr(g);
    let counts = butterfly::parallel::par_vertex_priority_counts(&ranked);
    let time_count = t0.elapsed();

    let view = g.view(side);
    let t1 = Instant::now();

    let pg = PeelGraph::new(view, false);
    let support = SupportVec::from_counts(counts.side(side));
    let mut queue = BucketQueue::new(PARB_OPEN_BUCKETS, &support.snapshot());
    let mut tip = vec![0u64; view.num_primary()];
    let mut wedges = 0u64;
    let mut rounds = 0u64;

    loop {
        let batch = queue.pop_min_batch(
            |id| pg.claim(id).then(|| support.get(id)),
            |id| pg.is_alive(id).then(|| support.get(id)),
        );
        let Some((theta, batch)) = batch else { break };
        rounds += 1;
        for &u in &batch {
            tip[u as usize] = theta;
        }

        // Peel the batch; collect every vertex whose support changed so it
        // can be (lazily) re-filed in the bucket structure.
        let (updated, round_wedges) = if batch.len() < SEQ_BATCH_CUTOFF {
            let (mut updated, mut scratch) = (Vec::new(), pg.scratch());
            let w = batch
                .iter()
                .map(|&u| pg.peel_vertex(u, theta, &support, &mut scratch, |u2| updated.push(u2)))
                .sum();
            (updated, w)
        } else {
            pg.peel_batch(&batch, theta, &support)
        };
        wedges += round_wedges;
        for u2 in updated {
            if pg.is_alive(u2) {
                queue.insert(u2, support.get(u2));
            }
        }
    }

    BaselineResult {
        side,
        tip,
        wedges_count: counts.wedges_traversed,
        wedges_peel: wedges,
        rounds,
        time_count,
        time_peel: t1.elapsed(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bup::bup_decompose;
    use bigraph::builder::from_edges;
    use bigraph::gen;

    #[test]
    fn matches_bup_on_fig1() {
        let g = from_edges(
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
        .unwrap();
        let r = parb_decompose(&g, Side::U);
        assert_eq!(r.tip, vec![2, 3, 3, 1]);
    }

    #[test]
    fn matches_bup_on_random_graphs() {
        for seed in 0..6 {
            let g = gen::zipf(80, 50, 500, 0.5, 0.9, seed);
            for side in [Side::U, Side::V] {
                let bup = bup_decompose(&g, side, 4);
                let parb = parb_decompose(&g, side);
                assert_eq!(bup.tip, parb.tip, "seed {seed} side {side}");
                assert_eq!(
                    bup.wedges_peel, parb.wedges_peel,
                    "ParB must traverse the same wedges as BUP (Table 3)"
                );
            }
        }
    }

    #[test]
    fn rounds_at_most_distinct_peel_values_and_at_most_n() {
        let g = gen::uniform(60, 60, 500, 3);
        let r = parb_decompose(&g, Side::U);
        assert!(r.rounds <= 60);
        assert!(r.rounds >= 1);
        // At least as many rounds as distinct tip values (each round peels
        // a single support value).
        let mut distinct = r.tip.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert!(r.rounds >= distinct.len() as u64);
    }

    #[test]
    fn deterministic_across_pool_sizes() {
        let g = gen::zipf(70, 40, 400, 0.4, 0.8, 12);
        let a = parutil::with_pool(1, || parb_decompose(&g, Side::U));
        let b = parutil::with_pool(3, || parb_decompose(&g, Side::U));
        assert_eq!(a.tip, b.tip);
        assert_eq!(a.rounds, b.rounds);
        assert_eq!(a.wedges_peel, b.wedges_peel);
    }

    #[test]
    fn empty_and_star_graphs() {
        let g = BipartiteCsr::empty(4, 2);
        let r = parb_decompose(&g, Side::U);
        assert_eq!(r.tip, vec![0; 4]);
        assert_eq!(r.rounds, 1, "all zeros peel in one round");

        let star = from_edges(5, 1, &[(0, 0), (1, 0), (2, 0), (3, 0), (4, 0)]).unwrap();
        let r = parb_decompose(&star, Side::U);
        assert_eq!(r.tip, vec![0; 5]);
    }
}
