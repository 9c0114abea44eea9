//! RECEIPT — REfine CoarsE-grained IndePendent Tasks — parallel tip
//! decomposition of bipartite graphs (Lakhotia et al., VLDB 2020).
//!
//! Tip decomposition assigns every vertex `u` of one side of a bipartite
//! graph its *tip number* `θ_u`: the largest `k` such that `u` belongs to a
//! `k`-tip (Definition 1 of the paper). This crate implements:
//!
//! * [`bup`] — the classical sequential Bottom-Up Peeling baseline
//!   (Algorithm 2);
//! * [`parb`] — ParButterfly-style parallel bottom-up peeling with a
//!   Julienne-like bucketing structure (the paper's `ParB` baseline);
//! * [`cd`] / [`fd`] — RECEIPT's two steps: Coarse-grained Decomposition
//!   (Algorithm 3, with adaptive range determination) and Fine-grained
//!   Decomposition (Algorithm 4, with workload-aware dynamic scheduling);
//! * the HUC and DGM workload optimizations (§4) in CD — see [`Config`].
//!   DGM keeps live adjacency lists that drop every peeled vertex, which
//!   FD and the dynamic path get from [`bup::peel_live`] too;
//! * [`hierarchy`] — k-tip extraction/verification on top of tip numbers;
//! * [`wing`] — the §7 extension to wing (edge) decomposition;
//! * [`dynamic`] — incremental tip maintenance over batched edge updates
//!   (the `tipdecomp stream` workload);
//! * [`engine`] — the epoch-snapshot [`engine::StreamEngine`] owning the
//!   dynamic triple and publishing immutable snapshots for concurrent
//!   readers (the `tipdecomp serve` backend);
//! * [`wal`] — the write-ahead log and checkpointed store (`FORMATS.md`)
//!   that make the stream durable, with recovery proven exact by the
//!   [`dynamic`] oracle;
//! * [`version`] — named versions over the durable store
//!   (`VERSIONING.md`): tags, version diffs, and time-travel opens that
//!   replay to a tagged LSN and publish a read-only snapshot.
//!
//! # Quickstart
//!
//! ```
//! use bigraph::{gen, Side};
//! use receipt::{tip_decompose, Config};
//!
//! let g = gen::planted_bicliques(40, 40, 2, 5, 5, 100, 7);
//! let decomp = tip_decompose(&g, Side::U, &Config::default());
//! // Planted 5x5 blocks put their members in dense tips.
//! assert_eq!(decomp.tip.len(), 40);
//! let theta_max = decomp.tip.iter().max().unwrap();
//! assert!(*theta_max >= 1);
//! ```

#![forbid(unsafe_code)]

pub mod bucket;
pub mod bup;
pub mod cd;
pub mod config;
pub mod dynamic;
pub mod engine;
pub mod fd;
pub mod fibheap;
pub mod heap;
pub mod hierarchy;
pub mod metrics;
pub mod parb;
pub mod peel;
pub mod queue;
pub mod report;
pub mod snapshot;
pub mod support;
pub mod version;
pub mod wal;
pub mod wing;
pub mod wing_parallel;

pub use config::Config;
pub use metrics::Metrics;

use bigraph::{BipartiteCsr, Side};

/// The output of a tip decomposition: `tip[u] = θ_u` for every vertex of
/// the decomposed side, plus workload metrics.
#[derive(Debug, Clone)]
pub struct TipDecomposition {
    /// Which side was decomposed.
    pub side: Side,
    /// Tip numbers, indexed by side-local vertex id.
    pub tip: Vec<u64>,
    /// Wedge/synchronization/timing metrics (Table 3 of the paper).
    pub metrics: Metrics,
}

impl TipDecomposition {
    /// Maximum tip number `θ_max`.
    pub fn theta_max(&self) -> u64 {
        self.tip.iter().copied().max().unwrap_or(0)
    }

    /// Cumulative distribution of tip numbers (Figure 4 of the paper):
    /// returns `(θ, fraction of vertices with tip ≤ θ)` at each distinct θ.
    pub fn cumulative_distribution(&self) -> Vec<(u64, f64)> {
        if self.tip.is_empty() {
            return Vec::new();
        }
        let mut sorted = self.tip.clone();
        sorted.sort_unstable();
        let n = sorted.len() as f64;
        let mut out = Vec::new();
        let mut i = 0;
        while i < sorted.len() {
            let theta = sorted[i];
            let mut j = i;
            while j < sorted.len() && sorted[j] == theta {
                j += 1;
            }
            out.push((theta, j as f64 / n));
            i = j;
        }
        out
    }
}

/// Full RECEIPT tip decomposition: parallel counting, then CD, then FD.
///
/// Deterministic: the computed tip numbers are independent of `P`, thread
/// count, and the HUC/DGM toggles (Theorem 2 of the paper); the metrics
/// (wedge counts, rounds) depend on the configuration.
pub fn tip_decompose(g: &BipartiteCsr, side: Side, config: &Config) -> TipDecomposition {
    config.install(|| {
        let coarse = cd::coarse_decompose(g, side, config);
        fd::fine_decompose(g.view(side), coarse, config)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bigraph::builder::from_edges;

    #[test]
    fn figure_1_tip_numbers() {
        // The worked example from Fig.1 of the paper (0-indexed):
        // tip numbers of u1..u4 are 2, 3, 3, 1.
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
        let d = tip_decompose(&g, Side::U, &Config::default());
        assert_eq!(d.tip, vec![2, 3, 3, 1]);
        assert_eq!(d.theta_max(), 3);
    }

    #[test]
    fn cumulative_distribution_is_monotone() {
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
        let d = tip_decompose(&g, Side::U, &Config::default());
        let cdf = d.cumulative_distribution();
        assert!(cdf.windows(2).all(|w| w[0].0 < w[1].0 && w[0].1 <= w[1].1));
        assert_eq!(cdf.last().unwrap().1, 1.0);
    }
}
