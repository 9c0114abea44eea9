//! Snapshot-consistency stress: reader threads hammer point queries
//! against [`StreamEngine`] snapshots while a writer applies a seeded
//! batch schedule. Every answer a reader computes must be internally
//! consistent with exactly one published epoch — readers never observe a
//! half-applied batch — and every batch the writer publishes must first
//! pass the shared from-scratch differential gate.

use bigraph::{gen, Side};
use receipt::engine::{EngineOptions, EngineSnapshot, StreamEngine};
use receipt::Config;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};

/// Everything a snapshot must satisfy regardless of which epoch it is:
/// each butterfly contributes 2 to each side's vertex counts and 4 to the
/// edge counts, tips are indexed like the graph, and the densest vertex
/// attains θ_max. A torn read (counts from one epoch, tips from another)
/// breaks at least one of these with overwhelming probability.
fn assert_internally_consistent(snap: &EngineSnapshot) {
    let total = snap.total_butterflies();
    assert_eq!(
        snap.counts_side(Side::U).iter().sum::<u64>(),
        2 * total,
        "epoch {}: U counts out of step with the total",
        snap.epoch()
    );
    assert_eq!(
        snap.counts_side(Side::V).iter().sum::<u64>(),
        2 * total,
        "epoch {}: V counts out of step with the total",
        snap.epoch()
    );
    assert_eq!(
        snap.edge_counts().iter().sum::<u64>(),
        4 * total,
        "epoch {}: edge counts out of step with the total",
        snap.epoch()
    );
    for side in [Side::U, Side::V] {
        assert_eq!(snap.tip_side(side).len(), snap.num_side(side));
        assert_eq!(snap.counts_side(side).len(), snap.num_side(side));
        let theta = snap.theta_max(side);
        if let Some(best) = snap.top_k_densest(side, 1).first() {
            assert_eq!(
                best.tip,
                theta,
                "epoch {}: top-1 misses θ_max",
                snap.epoch()
            );
            assert_eq!(snap.tip(side, best.id), Some(best.tip));
            assert_eq!(
                snap.vertex_butterflies(side, best.id),
                Some(best.butterflies)
            );
        }
    }
    assert_eq!(snap.edge_counts().len(), snap.graph().num_edges());
}

#[test]
fn concurrent_readers_always_see_one_published_epoch() {
    let g = gen::zipf(120, 80, 600, 0.5, 0.9, 71);
    let schedule = bigraph::dynamic::seeded_schedule(&g, 8, 60, 73);
    let engine = StreamEngine::new(
        g,
        EngineOptions {
            config: Config::default().with_partitions(6),
            dirty_threshold: 0.15,
            compact_threshold: 0.2,
            // Every batch passes the from-scratch oracle before it is
            // published, while the readers run.
            verify: true,
        },
    );
    let readers = 4;
    let stop = AtomicBool::new(false);

    // The writer records (epoch → (checksum_u, checksum_v, total)) as it
    // publishes; readers record the same triple for every epoch they
    // observe. Cross-checking afterwards proves each observed snapshot
    // was a *published* state, not a partially updated one.
    let mut published: BTreeMap<u64, (u64, u64, u64)> = BTreeMap::new();
    let epoch0 = engine.snapshot();
    assert_internally_consistent(&epoch0);
    published.insert(
        0,
        (
            epoch0.tip_checksum(Side::U),
            epoch0.tip_checksum(Side::V),
            epoch0.total_butterflies(),
        ),
    );

    let observed: Vec<BTreeMap<u64, (u64, u64, u64)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..readers)
            .map(|_| {
                let engine = &engine;
                let stop = &stop;
                scope.spawn(move || {
                    let mut seen: BTreeMap<u64, (u64, u64, u64)> = BTreeMap::new();
                    let mut last_epoch = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        let snap = engine.snapshot();
                        assert!(
                            snap.epoch() >= last_epoch,
                            "epochs went backwards: {} after {last_epoch}",
                            snap.epoch()
                        );
                        last_epoch = snap.epoch();
                        assert_internally_consistent(&snap);
                        seen.insert(
                            snap.epoch(),
                            (
                                snap.tip_checksum(Side::U),
                                snap.tip_checksum(Side::V),
                                snap.total_butterflies(),
                            ),
                        );
                    }
                    seen
                })
            })
            .collect();

        for (i, batch) in schedule.iter().enumerate() {
            let outcome = engine
                .apply_batch(batch)
                .unwrap_or_else(|e| panic!("batch {i}: {e}"));
            let snap = &outcome.snapshot;
            published.insert(
                outcome.epoch,
                (
                    snap.tip_checksum(Side::U),
                    snap.tip_checksum(Side::V),
                    snap.total_butterflies(),
                ),
            );
        }
        stop.store(true, Ordering::Relaxed);
        handles
            .into_iter()
            .map(|h| h.join().expect("reader thread"))
            .collect()
    });

    let mut observations = 0usize;
    for seen in &observed {
        for (epoch, digest) in seen {
            let expected = published
                .get(epoch)
                .unwrap_or_else(|| panic!("reader observed unpublished epoch {epoch}"));
            assert_eq!(
                digest, expected,
                "epoch {epoch}: reader digest diverges from the published snapshot"
            );
            observations += 1;
        }
    }
    assert!(observations > 0, "readers never observed a snapshot");

    // The final state still passes the shared from-scratch gate.
    engine.verify_against_scratch().unwrap();
    assert_eq!(engine.epoch(), schedule.len() as u64);
}
