//! Integration tests for graph versioning (`VERSIONING.md`): named tags
//! over the durable store, time travel, the diff law, derive operators,
//! and hostile `versions.meta` inputs that must fail closed with typed
//! errors. Section numbers cited inline are normative — a test failing
//! here means the implementation diverged from the spec.

use bigraph::{gen, BipartiteCsr};
use receipt::engine::{EngineOptions, StreamEngine};
use receipt::version::{self, VersionError, VersionStore};
use receipt::wal::Store;
use receipt::Config;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("receipt_versioning_{}_{tag}", std::process::id()));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).unwrap();
    }
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn options() -> EngineOptions {
    EngineOptions {
        config: Config::default().with_partitions(4),
        verify: false,
        ..EngineOptions::default()
    }
}

/// The state fingerprint the tests compare: total butterflies plus both
/// per-side tip checksums (the same triple a `VersionRef` pins, §3.2).
type Fingerprint = (u64, u64, u64);

fn state_of(engine: &StreamEngine) -> Fingerprint {
    let snap = engine.snapshot();
    (
        snap.total_butterflies(),
        snap.tip_checksum(bigraph::Side::U),
        snap.tip_checksum(bigraph::Side::V),
    )
}

fn edge_set(engine: &StreamEngine) -> BTreeSet<(u32, u32)> {
    engine.snapshot().graph().edges().collect()
}

/// Streams `batches` through a durable store at `dir` with folding
/// disabled (§3.4: `--checkpoint-every 0` keeps every tag serviceable),
/// tagging `v{b}` at every boundary. Returns the reference trajectory,
/// each boundary's fingerprint with its edge set, index 0 being the
/// pre-batch state.
fn build_tagged_store(
    dir: &Path,
    g: &BipartiteCsr,
    batches: &[Vec<bigraph::dynamic::EdgeOp>],
) -> Vec<(Fingerprint, BTreeSet<(u32, u32)>)> {
    let (engine, info) = StreamEngine::open_durable(dir, Some(g.clone()), options(), 0).unwrap();
    assert!(info.created);
    let mut store = VersionStore::open(dir).unwrap();
    store
        .tag_snapshot("v0", engine.end_lsn().unwrap(), &engine.snapshot())
        .unwrap();
    let mut states = vec![(state_of(&engine), edge_set(&engine))];
    for (b, ops) in batches.iter().enumerate() {
        engine.apply_batch(ops).unwrap();
        store
            .tag_snapshot(
                &format!("v{}", b + 1),
                engine.end_lsn().unwrap(),
                &engine.snapshot(),
            )
            .unwrap();
        states.push((state_of(&engine), edge_set(&engine)));
    }
    states
}

/// §3.2 + §4: time travel to every tagged boundary reproduces the
/// uninterrupted run's state and edge set exactly, and each materialized
/// engine passes the from-scratch oracle.
#[test]
fn time_travel_matches_uninterrupted_run_at_every_boundary() {
    let g = gen::zipf(40, 30, 160, 0.5, 0.9, 17);
    let batches = bigraph::dynamic::seeded_schedule(&g, 3, 30, 19);
    let dir = scratch("travel");
    let states = build_tagged_store(&dir, &g, &batches);

    // §3.2: a fresh process reads back one tag per boundary, `v{b}` at
    // LSN `b`, pinning that boundary's fingerprint.
    let tags: Vec<(String, u64, Fingerprint)> = VersionStore::open(&dir)
        .unwrap()
        .list()
        .iter()
        .map(|t| {
            let pinned = (t.total_butterflies, t.tip_checksum_u, t.tip_checksum_v);
            (t.name.clone(), t.lsn, pinned)
        })
        .collect();
    let expected: Vec<(String, u64, Fingerprint)> = states
        .iter()
        .enumerate()
        .map(|(b, (state, _))| (format!("v{b}"), b as u64, *state))
        .collect();
    assert_eq!(tags, expected);

    for (boundary, (state, edges)) in states.iter().enumerate() {
        let name = format!("v{boundary}");
        let (historic, info) = StreamEngine::open_at(&dir, &name, options()).unwrap();
        assert_eq!(state_of(&historic), *state, "{name}");
        assert_eq!(edge_set(&historic), *edges, "{name} edge set");
        // §4: records above the tag exist but must not replay.
        assert_eq!(info.replayed, boundary, "{name} replays its LSN prefix");
        assert_eq!(info.skipped_above, batches.len() - boundary, "{name}");
        historic
            .verify_against_scratch()
            .unwrap_or_else(|e| panic!("oracle at {name}: {e}"));
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// §4: `open_at` fails closed with `StateMismatch` when the tag's pinned
/// checksums disagree with the replayed state — a tampered tag must not
/// be served.
#[test]
fn time_travel_detects_checksum_divergence() {
    let g = gen::zipf(30, 20, 100, 0.5, 0.9, 23);
    let batches = bigraph::dynamic::seeded_schedule(&g, 2, 20, 29);
    let dir = scratch("mismatch");
    build_tagged_store(&dir, &g, &batches);

    // Re-tag the same LSN under a new name with a corrupted butterfly
    // count. The store happily records it (§3.2 checks bytes, not
    // semantics) — `open_at` is the layer that must refuse.
    let mut store = VersionStore::open(&dir).unwrap();
    let honest = store.lookup("v2").unwrap().clone();
    store
        .tag(
            "tampered",
            honest.lsn,
            honest.total_butterflies ^ 1,
            honest.tip_checksum_u,
            honest.tip_checksum_v,
        )
        .unwrap();
    match StreamEngine::open_at(&dir, "tampered", options()) {
        Err(VersionError::StateMismatch { name, .. }) => assert_eq!(name, "tampered"),
        Err(other) => panic!("expected StateMismatch, got {other}"),
        Ok(_) => panic!("expected StateMismatch, got a served engine"),
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// §5.3: the diff law `apply(at(a), diff(a, b)) = at(b)` — checked on
/// every adjacent pair and on the full span, for both the fingerprint
/// and the exact edge set.
#[test]
fn diff_composed_with_at_reaches_the_target_version() {
    let g = gen::zipf(40, 30, 160, 0.5, 0.9, 41);
    let batches = bigraph::dynamic::seeded_schedule(&g, 3, 30, 43);
    let dir = scratch("difflaw");
    let states = build_tagged_store(&dir, &g, &batches);
    let store = VersionStore::open(&dir).unwrap();

    let mut pairs: Vec<(usize, usize)> = (1..=batches.len()).map(|b| (b - 1, b)).collect();
    pairs.push((0, batches.len()));
    let mut adjacent_ops = 0;
    for (ia, ib) in pairs {
        let (a, b) = (format!("v{ia}"), format!("v{ib}"));
        let diff = store.diff(&a, &b).unwrap();
        if ib == ia + 1 {
            adjacent_ops += diff.len();
        } else {
            // §5.2: the span keeps only the last op per edge, so it holds
            // no more ops than the adjacent diffs it covers.
            assert!(
                diff.len() <= adjacent_ops,
                "diff({a}, {b}) has {} ops, the adjacent diffs {adjacent_ops}",
                diff.len()
            );
        }
        // §5.2: last-op-per-edge — at most one op per touched edge,
        // sorted by (u, v).
        let keys: Vec<(u32, u32)> = diff.iter().map(|op| op.edge()).collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(keys, sorted, "diff({a}, {b}) is sorted and deduplicated");

        let (at_a, _) = StreamEngine::open_at(&dir, &a, options()).unwrap();
        let (at_b, _) = StreamEngine::open_at(&dir, &b, options()).unwrap();
        let replay = StreamEngine::new(at_a.snapshot().graph().clone(), options());
        if !diff.is_empty() {
            replay.apply_batch(&diff).unwrap();
        }
        assert_eq!(state_of(&replay), states[ib].0, "diff law {a} -> {b}");
        assert_eq!(edge_set(&replay), edge_set(&at_b), "{a} -> {b} edge set");
    }

    // §5.1: a reversed interval is a typed error, not an empty diff.
    match store.diff("v2", "v0") {
        Err(VersionError::Unordered { .. }) => {}
        other => panic!("expected Unordered, got {other:?}"),
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// §6: derive operators against brute-force set algebra, in global
/// coordinates (induction reindexes both sides, so map back through the
/// id maps before comparing).
#[test]
fn derive_operators_match_bruteforce() {
    let a = gen::zipf(30, 25, 120, 0.5, 0.9, 53);
    let b = gen::zipf(35, 20, 110, 0.5, 0.9, 59);
    let ea: BTreeSet<(u32, u32)> = a.edges().collect();
    let eb: BTreeSet<(u32, u32)> = b.edges().collect();

    // §6.1: induced subgraph on a strictly increasing U subset.
    let subset: Vec<u32> = (0..a.num_u() as u32).step_by(4).collect();
    let keep: BTreeSet<u32> = subset.iter().copied().collect();
    let induced = bigraph::InducedGraph::new(a.view(bigraph::Side::U), &subset);
    let got: BTreeSet<(u32, u32)> = induced
        .csr()
        .edges()
        .map(|(u, v)| (induced.primary_global(u), induced.secondary_global(v)))
        .collect();
    let brute: BTreeSet<(u32, u32)> = ea
        .iter()
        .copied()
        .filter(|&(u, _)| keep.contains(&u))
        .collect();
    assert_eq!(got, brute, "subgraph (§6.1)");

    // §6.2: union takes max dimensions and the edge-set union.
    let union = bigraph::derive::union(&a, &b);
    assert_eq!(union.num_u(), a.num_u().max(b.num_u()));
    assert_eq!(union.num_v(), a.num_v().max(b.num_v()));
    let got: BTreeSet<(u32, u32)> = union.edges().collect();
    assert_eq!(got, ea.union(&eb).copied().collect(), "union (§6.2)");

    // §6.3: difference keeps a's dimensions and subtracts b's edges.
    let difference = bigraph::derive::difference(&a, &b);
    assert_eq!(difference.num_u(), a.num_u());
    assert_eq!(difference.num_v(), a.num_v());
    let got: BTreeSet<(u32, u32)> = difference.edges().collect();
    assert_eq!(
        got,
        ea.difference(&eb).copied().collect(),
        "difference (§6.3)"
    );
}

/// §2.3 + §2.4: hostile `versions.meta` bytes fail closed with the typed
/// error the validation order prescribes — never a partial read.
#[test]
fn hostile_versions_meta_fails_closed() {
    let g = gen::zipf(20, 15, 60, 0.5, 0.9, 61);
    let batches = bigraph::dynamic::seeded_schedule(&g, 1, 10, 67);
    let dir = scratch("hostile");
    build_tagged_store(&dir, &g, &batches);
    let path = VersionStore::versions_path(&dir);
    let pristine = std::fs::read(&path).unwrap();

    let corrupt = |mutate: &dyn Fn(&mut Vec<u8>)| -> VersionError {
        let mut bytes = pristine.clone();
        mutate(&mut bytes);
        std::fs::write(&path, &bytes).unwrap();
        let err = VersionStore::open(&dir).expect_err("tampered meta must fail");
        std::fs::write(&path, &pristine).unwrap();
        err
    };

    // §2.4 order: length/alignment before magic before version before
    // endianness before checksum before structure.
    match corrupt(&|b| b.truncate(version::VER_MIN_LEN as usize - 1)) {
        VersionError::Corrupt { .. } => {}
        other => panic!("short file: expected Corrupt, got {other:?}"),
    }
    match corrupt(&|b| b[0] ^= 0x40) {
        VersionError::BadMagic { .. } => {}
        other => panic!("expected BadMagic, got {other:?}"),
    }
    match corrupt(&|b| b[8] = 9) {
        VersionError::BadVersion { .. } => {}
        other => panic!("expected BadVersion, got {other:?}"),
    }
    match corrupt(&|b| b[12] ^= 0xff) {
        VersionError::BadEndianness { .. } => {}
        other => panic!("expected BadEndianness, got {other:?}"),
    }
    match corrupt(&|b| {
        let body_byte = version::VER_HEADER_LEN as usize + 1;
        b[body_byte] ^= 0x01;
    }) {
        VersionError::MetaChecksum { .. } => {}
        other => panic!("body flip: expected MetaChecksum, got {other:?}"),
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// §3.1 + §3.3: name discipline and tag immutability are enforced at
/// creation time.
#[test]
fn tag_rules_are_enforced() {
    let g = gen::zipf(20, 15, 60, 0.5, 0.9, 71);
    let dir = scratch("rules");
    let (engine, _) = StreamEngine::open_durable(&dir, Some(g), options(), 0).unwrap();
    let mut store = VersionStore::open(&dir).unwrap();
    let snap = engine.snapshot();
    store.tag_snapshot("release-1.0", 0, &snap).unwrap();

    // §3.3: tags are immutable — re-tagging any existing name fails.
    match store.tag_snapshot("release-1.0", 0, &snap) {
        Err(VersionError::TagExists { name }) => assert_eq!(name, "release-1.0"),
        other => panic!("expected TagExists, got {other:?}"),
    }
    // §3.1: the name grammar is `[A-Za-z0-9._-]{1,64}`, not starting `-`.
    for bad in ["", "-lead", "spa ce", "snap/shot", "ü"] {
        match store.tag_snapshot(bad, 0, &snap) {
            Err(VersionError::BadName { .. }) => {}
            other => panic!("{bad:?}: expected BadName, got {other:?}"),
        }
    }
    let too_long = "x".repeat(version::TAG_MAX_NAME_LEN + 1);
    match store.tag_snapshot(&too_long, 0, &snap) {
        Err(VersionError::BadName { .. }) => {}
        other => panic!("overlong name: expected BadName, got {other:?}"),
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// §3.4: the serviceability window `checkpoint_lsn ≤ tag_lsn ≤ wal_end`
/// is checked at use time — a tag past the WAL end and a tag folded
/// beneath a checkpoint both fail closed with typed errors.
#[test]
fn serviceability_window_is_enforced_at_use_time() {
    // Tag ahead of the WAL: the store records it (tags are just
    // metadata), but `open_at` and `diff` must refuse.
    let g = gen::zipf(20, 15, 60, 0.5, 0.9, 73);
    let batches = bigraph::dynamic::seeded_schedule(&g, 1, 10, 79);
    let dir = scratch("window_ahead");
    build_tagged_store(&dir, &g, &batches);
    let mut store = VersionStore::open(&dir).unwrap();
    store.tag("future", 99, 0, 0, 0).unwrap();
    match StreamEngine::open_at(&dir, "future", options()) {
        Err(VersionError::TagAheadOfWal { lsn, wal_end, .. }) => {
            assert_eq!(lsn, 99);
            assert_eq!(wal_end, batches.len() as u64);
        }
        Err(other) => panic!("expected TagAheadOfWal, got {other}"),
        Ok(_) => panic!("expected TagAheadOfWal, got a served engine"),
    }
    match store.diff("v0", "future") {
        Err(VersionError::TagAheadOfWal { .. }) => {}
        other => panic!("diff: expected TagAheadOfWal, got {other:?}"),
    }
    std::fs::remove_dir_all(&dir).unwrap();

    // Tag below the checkpoint: fold every batch, so the v0 base state
    // is no longer reconstructible from the store (§3.4's orphan case).
    let g = gen::zipf(20, 15, 60, 0.5, 0.9, 83);
    let batches = bigraph::dynamic::seeded_schedule(&g, 2, 10, 89);
    let dir = scratch("window_folded");
    let (engine, info) = StreamEngine::open_durable(&dir, Some(g.clone()), options(), 1).unwrap();
    assert!(info.created);
    let mut store = VersionStore::open(&dir).unwrap();
    store
        .tag_snapshot("v0", engine.end_lsn().unwrap(), &engine.snapshot())
        .unwrap();
    for ops in &batches {
        engine.apply_batch(ops).unwrap();
    }
    drop(engine);
    let rec = Store::open(&dir).unwrap();
    assert!(rec.checkpoint_lsn > 0, "folding advanced the checkpoint");
    match StreamEngine::open_at(&dir, "v0", options()) {
        Err(VersionError::TagBelowCheckpoint { checkpoint_lsn, .. }) => {
            assert_eq!(checkpoint_lsn, rec.checkpoint_lsn);
        }
        Err(other) => panic!("expected TagBelowCheckpoint, got {other}"),
        Ok(_) => panic!("expected TagBelowCheckpoint, got a served engine"),
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
