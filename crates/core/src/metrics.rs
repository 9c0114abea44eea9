//! Workload metrics — the machine-independent quantities of Table 3 and
//! Figures 6–9 of the paper.

use serde::{Deserialize, Serialize};
use std::time::Duration;

/// Counters collected by a decomposition run.
///
/// `wedges_*` count *traversed wedges* — each successful inner-loop visit of
/// a `(start, middle, end)` walk, the unit the paper reports in billions.
/// `sync_rounds` is ρ: the number of parallel peeling iterations, each of
/// which implies a constant number of thread barriers.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Metrics {
    /// Wedges traversed by initial per-vertex counting (`∧_pvBcnt`).
    pub wedges_count: u64,
    /// Wedges traversed by coarse-grained peeling, including HUC re-counts.
    pub wedges_cd: u64,
    /// Wedges traversed by fine-grained peeling (induced subgraphs).
    pub wedges_fd: u64,
    /// ρ — parallel peeling iterations (synchronization rounds). FD adds
    /// none (its threads synchronize once, at the end).
    pub sync_rounds: u64,
    /// Number of HUC re-count invocations that replaced a peel iteration.
    pub recounts: u64,
    /// Always 0: DGM drops peeled vertices every round and no longer
    /// compacts. Kept because the benchmark's `cd.compactions` reads it.
    pub compactions: u64,
    /// Partitions actually produced by CD (may be `P + 1`, §3.1.1).
    pub partitions_used: usize,
    /// Wall-clock per phase.
    pub time_count: Duration,
    pub time_cd: Duration,
    pub time_fd: Duration,
}

impl Metrics {
    /// Total wedges traversed (the paper's `Ó` column for RECEIPT).
    pub fn wedges_total(&self) -> u64 {
        self.wedges_count + self.wedges_cd + self.wedges_fd
    }

    /// Total wall-clock across phases.
    pub fn time_total(&self) -> Duration {
        self.time_count + self.time_cd + self.time_fd
    }

    /// Phase shares of wedge traversal `(pvBcnt, CD, FD)`, as fractions of
    /// the total (Figure 8). Returns zeros on an empty run.
    pub fn wedge_breakdown(&self) -> (f64, f64, f64) {
        let total = self.wedges_total() as f64;
        if total == 0.0 {
            return (0.0, 0.0, 0.0);
        }
        (
            self.wedges_count as f64 / total,
            self.wedges_cd as f64 / total,
            self.wedges_fd as f64 / total,
        )
    }

    /// Phase shares of execution time `(pvBcnt, CD, FD)` (Figure 9).
    pub fn time_breakdown(&self) -> (f64, f64, f64) {
        let total = self.time_total().as_secs_f64();
        if total == 0.0 {
            return (0.0, 0.0, 0.0);
        }
        (
            self.time_count.as_secs_f64() / total,
            self.time_cd.as_secs_f64() / total,
            self.time_fd.as_secs_f64() / total,
        )
    }

    /// Merges phase counters from another run segment.
    pub fn absorb(&mut self, other: &Metrics) {
        self.wedges_count += other.wedges_count;
        self.wedges_cd += other.wedges_cd;
        self.wedges_fd += other.wedges_fd;
        self.sync_rounds += other.sync_rounds;
        self.recounts += other.recounts;
        self.compactions += other.compactions;
        self.partitions_used = self.partitions_used.max(other.partitions_used);
        self.time_count += other.time_count;
        self.time_cd += other.time_cd;
        self.time_fd += other.time_fd;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_and_breakdowns() {
        let m = Metrics {
            wedges_count: 10,
            wedges_cd: 70,
            wedges_fd: 20,
            ..Default::default()
        };
        assert_eq!(m.wedges_total(), 100);
        let (c, cd, fd) = m.wedge_breakdown();
        assert!((c - 0.1).abs() < 1e-12);
        assert!((cd - 0.7).abs() < 1e-12);
        assert!((fd - 0.2).abs() < 1e-12);
    }

    #[test]
    fn empty_breakdown_is_zero() {
        let m = Metrics::default();
        assert_eq!(m.wedge_breakdown(), (0.0, 0.0, 0.0));
        assert_eq!(m.time_breakdown(), (0.0, 0.0, 0.0));
    }

    #[test]
    fn absorb_accumulates() {
        let mut a = Metrics {
            wedges_cd: 5,
            sync_rounds: 2,
            partitions_used: 3,
            ..Default::default()
        };
        let b = Metrics {
            wedges_cd: 7,
            sync_rounds: 1,
            partitions_used: 8,
            recounts: 1,
            ..Default::default()
        };
        a.absorb(&b);
        assert_eq!(a.wedges_cd, 12);
        assert_eq!(a.sync_rounds, 3);
        assert_eq!(a.partitions_used, 8);
        assert_eq!(a.recounts, 1);
    }

    #[test]
    fn time_totals() {
        let m = Metrics {
            time_count: Duration::from_millis(10),
            time_cd: Duration::from_millis(60),
            time_fd: Duration::from_millis(30),
            ..Default::default()
        };
        assert_eq!(m.time_total(), Duration::from_millis(100));
        let (c, cd, fd) = m.time_breakdown();
        assert!((c - 0.1).abs() < 1e-9 && (cd - 0.6).abs() < 1e-9 && (fd - 0.3).abs() < 1e-9);
    }
}
