//! End-to-end tip decomposition: BUP vs ParB vs RECEIPT (the `t(s)` columns
//! of Table 3, miniature scale), and the dynamic path's seeded re-peel:
//! `peel_all` against `peel_live` from the same counts.

mod common;

use bigraph::Side;
use criterion::{criterion_group, criterion_main, Criterion};
use receipt::Config;
use std::hint::black_box;

fn bench_decomposition(c: &mut Criterion) {
    let skewed = common::skewed_graph();
    let mild = common::mild_graph();

    let mut group = c.benchmark_group("decomposition");
    for (name, g) in [("skewed", &skewed), ("mild", &mild)] {
        group.bench_function(format!("bup/{name}"), |b| {
            b.iter(|| black_box(receipt::bup::bup_decompose(g, Side::U, 4)))
        });
        // A seeded re-peel starts from maintained counts, so only the
        // peel is timed.
        let counts = butterfly::count_graph(g);
        group.bench_function(format!("seeded_repeel/{name}/peel_all"), |b| {
            b.iter(|| black_box(receipt::bup::peel_all(g.view(Side::U), &counts.u, 4)))
        });
        group.bench_function(format!("seeded_repeel/{name}/peel_live"), |b| {
            b.iter(|| black_box(receipt::bup::peel_live(g.view(Side::U), &counts.u, 4)))
        });
        group.bench_function(format!("parb/{name}"), |b| {
            b.iter(|| black_box(receipt::parb::parb_decompose(g, Side::U)))
        });
        group.bench_function(format!("receipt/{name}"), |b| {
            b.iter(|| {
                black_box(receipt::tip_decompose(
                    g,
                    Side::U,
                    &Config::default().with_partitions(32),
                ))
            })
        });
    }
    // Wing decomposition (the §7 extension) on the community graph.
    let community = common::community_graph();
    group.bench_function("wing/community", |b| {
        b.iter(|| black_box(receipt::wing::wing_decompose(community.view(Side::U), 4)))
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = common::quick();
    targets = bench_decomposition
}
criterion_main!(benches);
