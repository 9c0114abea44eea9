//! Micro-benchmarks of the data-structure kernels behind the paper's
//! design choices: the k-way indexed heap vs the Julienne bucket queue
//! (§5.1 implementation notes), graph compaction (DGM, §4.2), induced
//! subgraph construction (FD, Algorithm 4 line 5), and ranking.

mod common;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rayon::prelude::*;
use std::hint::black_box;

fn bench_kernels(c: &mut Criterion) {
    let g = common::skewed_graph();
    let n = 100_000usize;
    // Synthetic support values with a heavy tail, like real butterfly
    // counts.
    let keys: Vec<u64> = (0..n as u64)
        .map(|i| (i * i * 2_654_435_761) % 1_000_000)
        .collect();

    let mut group = c.benchmark_group("kernels");

    // Heap arity sweep (§5.1: the paper picked a k-way heap over buckets
    // and Fibonacci heaps).
    for arity in [2usize, 4, 8] {
        group.bench_with_input(BenchmarkId::new("heap_sort", arity), &arity, |b, &a| {
            b.iter(|| {
                let mut h = receipt::heap::IndexedMinHeap::new(a, &keys);
                let mut out = 0u64;
                while let Some((_, k)) = h.pop_min() {
                    out = out.wrapping_add(k);
                }
                black_box(out)
            })
        });
    }

    // Bucket queue drain over the same keys.
    group.bench_function("bucket_drain", |b| {
        b.iter(|| {
            let mut q = receipt::bucket::BucketQueue::new(128, &keys);
            let claimed: Vec<std::cell::Cell<bool>> =
                (0..n).map(|_| std::cell::Cell::new(false)).collect();
            let mut total = 0usize;
            while let Some((_, batch)) = q.pop_min_batch(
                |id| {
                    if !claimed[id as usize].get() {
                        claimed[id as usize].set(true);
                        Some(keys[id as usize])
                    } else {
                        None
                    }
                },
                |id| {
                    if claimed[id as usize].get() {
                        None
                    } else {
                        Some(keys[id as usize])
                    }
                },
            ) {
                total += batch.len();
            }
            black_box(total)
        })
    });

    // Edge compaction with half the primary side dead.
    let alive_u: Vec<bool> = (0..g.num_u()).map(|u| u % 2 == 0).collect();
    let alive_v = vec![true; g.num_v()];
    group.bench_function("compact_half_dead", |b| {
        b.iter(|| black_box(bigraph::compact::compact(&g, &alive_u, &alive_v)))
    });

    // Induced subgraph on a 10% subset (FD task setup).
    let subset: Vec<u32> = (0..g.num_u() as u32).step_by(10).collect();
    group.bench_function("induce_10pct", |b| {
        b.iter(|| {
            black_box(bigraph::InducedGraph::new(
                g.view(bigraph::Side::U),
                &subset,
            ))
        })
    });

    // Generator throughput (workload setup cost).
    group.bench_function("gen_zipf_30k_edges", |b| {
        b.iter(|| black_box(bigraph::gen::zipf(12_000, 5_000, 30_000, 0.5, 1.1, 7)))
    });

    // Intersection kernels at the skewed size ratio the degree-ratio
    // heuristic targets: a 128-element list against a 64k-element one
    // (ratio 512 ≫ GALLOP_RATIO). Merge pays O(|small| + |large|) steps,
    // gallop O(|small| log |large|) probes, bitset one test per streamed
    // element after a one-time build amortized across the batch (modeled
    // here by building once outside the timing loop).
    let small: Vec<u32> = (0..128u32).map(|i| i * 509).collect();
    let large: Vec<u32> = (0..65_536u32).collect();
    group.bench_function("intersect_merge_128_vs_64k", |b| {
        b.iter(|| {
            let mut hits = 0u64;
            let w = butterfly::intersect::intersect_merge(
                small.iter().copied(),
                large.iter().copied(),
                |_| hits += 1,
            );
            black_box((hits, w))
        })
    });
    group.bench_function("intersect_gallop_128_vs_64k", |b| {
        b.iter(|| {
            let mut hits = 0u64;
            let w = butterfly::intersect::intersect_gallop(small.iter().copied(), &large, |_| {
                hits += 1
            });
            black_box((hits, w))
        })
    });
    let bits = butterfly::intersect::VertexBitset::from_iter(65_536, large.iter().copied());
    group.bench_function("intersect_bitset_128_vs_64k", |b| {
        b.iter(|| {
            let mut hits = 0u64;
            let w =
                butterfly::intersect::intersect_bitset(&bits, small.iter().copied(), |_| hits += 1);
            black_box((hits, w))
        })
    });

    // Parallel merge sort in the rayon shim: 1M random u64 across budgets.
    // Every RECEIPT phase that ranks or relabels funnels through
    // par_sort_unstable*, so this is the scaling-critical kernel. The
    // vendored criterion has no iter_batched, so each iteration includes
    // the ~8MB clone; that constant is identical across budgets but does
    // NOT cancel in ratios — it dilutes measured speedups, so cross-budget
    // ratios from this bench are a lower bound on the sort-only speedup.
    let unsorted: Vec<u64> = (0..1_000_000u64)
        .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (i >> 11))
        .collect();
    group.bench_function("sort_1m_u64_std_seq", |b| {
        b.iter(|| {
            let mut v = unsorted.clone();
            v.sort_unstable();
            black_box(v.len())
        })
    });
    for budget in [1usize, 2, 4] {
        group.bench_with_input(
            BenchmarkId::new("par_sort_1m_u64", budget),
            &budget,
            |b, &budget| {
                b.iter(|| {
                    let mut v = unsorted.clone();
                    parutil::with_pool(budget, || v.par_sort_unstable());
                    black_box(v.len())
                })
            },
        );
    }

    group.finish();
}

criterion_group! {
    name = benches;
    config = common::quick();
    targets = bench_kernels
}
criterion_main!(benches);
