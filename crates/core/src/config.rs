//! RECEIPT configuration knobs.

use serde::{Deserialize, Serialize};

/// Tuning parameters for [`crate::tip_decompose`].
///
/// Defaults follow the paper's evaluation setup (§5.1): `P = 150`
/// partitions, all workload optimizations on, 4-way min-heap for
/// fine-grained peeling.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Config {
    /// Number of vertex subsets `P` created by coarse-grained
    /// decomposition. The paper sweeps 50–500 and settles on 150
    /// (Figure 5). Clamped to ≥ 1.
    pub partitions: usize,
    /// Worker threads. `0` uses the ambient rayon pool as-is; any other
    /// value runs the decomposition inside a dedicated pool of that size
    /// (and spawns that many FD workers).
    pub threads: usize,
    /// Hybrid Update Computation (§4.1), in coarse-grained decomposition:
    /// re-count butterflies instead of peeling whenever peeling the active
    /// set would traverse more wedges than a full re-count.
    pub huc: bool,
    /// Dynamic Graph Maintenance (§4.2), in coarse-grained decomposition:
    /// drop peeled vertices' edges. Every round removes its peeled vertices
    /// from the adjacency lists it touched, so traversal walks each wedge
    /// from one end and can probe a hub list instead of scanning it. Off,
    /// CD walks the static lists, every wedge from both ends.
    ///
    /// Fine-grained decomposition ignores `huc` and `dgm`: it always peels
    /// with [`crate::bup::peel_live`].
    pub dgm: bool,
    /// Arity of the indexed min-heap used by fine-grained peeling and BUP
    /// ("k-way min heap", §5.1 implementation details).
    pub heap_arity: usize,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            partitions: 150,
            threads: 0,
            huc: true,
            dgm: true,
            heap_arity: 4,
        }
    }
}

impl Config {
    /// The paper's ablation variant `RECEIPT-` (no DGM).
    pub fn without_dgm(mut self) -> Self {
        self.dgm = false;
        self
    }

    /// The paper's ablation variant `RECEIPT--` (no DGM, no HUC).
    pub fn baseline_variant(mut self) -> Self {
        self.dgm = false;
        self.huc = false;
        self
    }

    pub fn with_partitions(mut self, p: usize) -> Self {
        self.partitions = p;
        self
    }

    pub fn with_threads(mut self, t: usize) -> Self {
        self.threads = t;
        self
    }

    /// Effective partition count (≥ 1).
    pub fn effective_partitions(&self) -> usize {
        self.partitions.max(1)
    }

    /// Effective FD worker count: `threads` if set, else the ambient pool
    /// size.
    pub fn effective_threads(&self) -> usize {
        if self.threads > 0 {
            self.threads
        } else {
            rayon::current_num_threads()
        }
    }

    /// Runs `f` as [`Config::threads`] says: inside a dedicated pool of
    /// that size when it is nonzero, else on the ambient pool. Every
    /// entry point that honours `threads` (static decomposition, the
    /// `tipdecomp stream` and `serve`) goes through here.
    pub fn install<R: Send>(&self, f: impl FnOnce() -> R + Send) -> R {
        if self.threads > 0 {
            parutil::with_pool(self.threads, f)
        } else {
            f()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = Config::default();
        assert_eq!(c.partitions, 150);
        assert!(c.huc && c.dgm);
        assert_eq!(c.heap_arity, 4);
    }

    #[test]
    fn ablation_builders() {
        let minus = Config::default().without_dgm();
        assert!(!minus.dgm && minus.huc);
        let mm = Config::default().baseline_variant();
        assert!(!mm.dgm && !mm.huc);
    }

    #[test]
    fn effective_partitions_clamps() {
        assert_eq!(
            Config::default().with_partitions(0).effective_partitions(),
            1
        );
        assert_eq!(
            Config::default().with_partitions(7).effective_partitions(),
            7
        );
    }

    #[test]
    fn effective_threads_prefers_explicit() {
        assert_eq!(Config::default().with_threads(3).effective_threads(), 3);
        assert!(Config::default().effective_threads() >= 1);
    }

    #[test]
    fn install_pins_only_an_explicit_thread_count() {
        let pinned = Config::default().with_threads(3);
        assert_eq!(pinned.install(rayon::current_num_threads), 3);
        let ambient =
            parutil::with_pool(2, || Config::default().install(rayon::current_num_threads));
        assert_eq!(ambient, 2);
    }

    #[test]
    fn builder_chain() {
        let c = Config::default()
            .with_partitions(42)
            .with_threads(2)
            .without_dgm();
        assert_eq!(c.partitions, 42);
        assert_eq!(c.threads, 2);
        assert!(!c.dgm);
    }
}
