//! Parallel building blocks shared by the RECEIPT reproduction crates.
//!
//! The original system is written in C++/OpenMP. This crate provides the
//! Rust equivalents the rest of the workspace relies on:
//!
//! * [`atomic`] — a floor-saturating atomic subtract (the support-update
//!   primitive from Lemma 2 of the paper).
//! * [`scan`] — sequential and parallel prefix sums (used by the CSR
//!   builder and edge compaction).
//! * [`pool`] — a scratch-buffer pool so parallel peeling iterations can
//!   reuse dense per-thread wedge-aggregation arrays without re-allocating
//!   `O(n)` memory per iteration; each task checks a buffer out once.
//! * [`thread`] — running a closure inside a rayon pool of an exact size
//!   (the paper sweeps thread counts for Figures 10–11).

#![forbid(unsafe_code)]

pub mod atomic;
pub mod pool;
pub mod scan;
pub mod thread;

pub use atomic::saturating_sub_floor;
pub use pool::ScratchPool;
pub use scan::{exclusive_prefix_sum, inclusive_prefix_sum, par_exclusive_prefix_sum};
pub use thread::with_pool;
