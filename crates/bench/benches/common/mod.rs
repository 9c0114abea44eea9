//! Shared fixtures for the criterion benches: small, seeded graphs whose
//! shape mirrors the dataset analogs (heavy-hub secondary side for the
//! "U-peel" regime, mild skew for the "V-peel" regime) but sized so the
//! whole bench suite completes in minutes on one core.
//!
//! Each bench target compiles this module independently and uses a subset
//! of the fixtures, so unused-in-this-target items are expected.
#![allow(dead_code)]

use bigraph::BipartiteCsr;

/// ~30k-edge graph with a skewed secondary side — a miniature `TrU` regime
/// (`∧_peel ≫ ∧_cnt`, HUC-friendly).
pub fn skewed_graph() -> BipartiteCsr {
    bigraph::gen::zipf(12_000, 5_000, 30_000, 0.5, 1.1, 7)
}

/// ~30k-edge near-uniform graph — the `V`-side regime where re-counting
/// never pays off.
pub fn mild_graph() -> BipartiteCsr {
    bigraph::gen::zipf(8_000, 8_000, 30_000, 0.4, 0.4, 8)
}

/// Dense planted-community graph for hierarchy-heavy benches.
pub fn community_graph() -> BipartiteCsr {
    bigraph::gen::planted_bicliques(2_000, 2_000, 20, 8, 8, 10_000, 9)
}

/// Criterion settings for short runs on a small, shared machine: few
/// samples, short measurement windows.
pub fn quick() -> criterion::Criterion {
    criterion::Criterion::default()
        .sample_size(10)
        .measurement_time(std::time::Duration::from_secs(3))
        .warm_up_time(std::time::Duration::from_millis(500))
}
