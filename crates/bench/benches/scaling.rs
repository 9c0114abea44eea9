//! Thread scaling (Figures 10–11). A shared machine can deliver fewer
//! usable cores than `nproc` reports, so read a speedup here only beside
//! a usable-core calibration taken in the same run; without one, the
//! curves show parallel overhead, not scaling.

mod common;

use bigraph::Side;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use receipt::Config;
use std::hint::black_box;

fn bench_scaling(c: &mut Criterion) {
    let g = common::skewed_graph();
    let mut group = c.benchmark_group("fig10_11_scaling");
    for side in [Side::U, Side::V] {
        for threads in [1usize, 2, 4] {
            group.bench_with_input(
                BenchmarkId::new(format!("side_{side}"), threads),
                &threads,
                |b, &t| {
                    b.iter(|| {
                        black_box(receipt::tip_decompose(
                            &g,
                            side,
                            &Config::default().with_partitions(32).with_threads(t),
                        ))
                    })
                },
            );
        }
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = common::quick();
    targets = bench_scaling
}
criterion_main!(benches);
