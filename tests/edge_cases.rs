//! Failure injection and degenerate-input coverage: empty graphs, stars,
//! paths, complete bipartite closed forms, malformed edge lists, and
//! configuration extremes.

use bigraph::{builder::from_edges, builder::GraphBuilder, Side};
use receipt::{bup, parb, tip_decompose, Config};

#[test]
fn empty_graph_all_zero() {
    let g = bigraph::BipartiteCsr::empty(7, 3);
    for side in [Side::U, Side::V] {
        let r = tip_decompose(&g, side, &Config::default());
        assert!(r.tip.iter().all(|&t| t == 0));
    }
}

#[test]
fn zero_by_zero_graph() {
    let g = bigraph::BipartiteCsr::empty(0, 0);
    let r = tip_decompose(&g, Side::U, &Config::default());
    assert!(r.tip.is_empty());
    assert_eq!(r.theta_max(), 0);
    assert!(r.cumulative_distribution().is_empty());
}

#[test]
fn single_edge_graph() {
    let g = from_edges(1, 1, &[(0, 0)]).unwrap();
    let r = tip_decompose(&g, Side::U, &Config::default());
    assert_eq!(r.tip, vec![0]);
}

#[test]
fn star_graphs_have_zero_tips() {
    // No butterflies without two vertices of degree >= 2 on each side.
    let star_u = from_edges(6, 1, &[(0, 0), (1, 0), (2, 0), (3, 0), (4, 0), (5, 0)]).unwrap();
    assert!(tip_decompose(&star_u, Side::U, &Config::default())
        .tip
        .iter()
        .all(|&t| t == 0));
    let star_v = star_u.transposed();
    assert!(tip_decompose(&star_v, Side::U, &Config::default())
        .tip
        .iter()
        .all(|&t| t == 0));
}

#[test]
fn path_has_zero_tips() {
    let g = from_edges(3, 3, &[(0, 0), (1, 0), (1, 1), (2, 1), (2, 2)]).unwrap();
    let r = tip_decompose(&g, Side::U, &Config::default());
    assert_eq!(r.tip, vec![0, 0, 0]);
}

#[test]
fn complete_bipartite_closed_form() {
    // In K(a,b) every U-vertex participates in (a-1) * C(b,2) butterflies,
    // and by symmetry + clamping every tip number equals that.
    for (a, b) in [(2usize, 2usize), (3, 3), (4, 2), (2, 5), (5, 5)] {
        let mut edges = Vec::new();
        for u in 0..a as u32 {
            for v in 0..b as u32 {
                edges.push((u, v));
            }
        }
        let g = from_edges(a, b, &edges).unwrap();
        let expected = (a as u64 - 1) * (b as u64 * (b as u64 - 1) / 2);
        let r = tip_decompose(&g, Side::U, &Config::default());
        assert!(
            r.tip.iter().all(|&t| t == expected),
            "K({a},{b}): got {:?}, expected all {expected}",
            r.tip
        );
        // And the baselines agree on the closed form.
        assert!(bup::bup_decompose(&g, Side::U, 4)
            .tip
            .iter()
            .all(|&t| t == expected));
        assert!(parb::parb_decompose(&g, Side::U)
            .tip
            .iter()
            .all(|&t| t == expected));
    }
}

#[test]
fn duplicate_and_unsorted_edges_are_normalized() {
    let g = GraphBuilder::new(2, 2)
        .add_edges([(1, 1), (0, 0), (1, 0), (0, 1), (0, 0), (1, 1)])
        .build()
        .unwrap();
    assert_eq!(g.num_edges(), 4);
    let r = tip_decompose(&g, Side::U, &Config::default());
    assert_eq!(r.tip, vec![1, 1]);
}

#[test]
fn builder_rejects_bad_vertices() {
    assert!(GraphBuilder::new(2, 2).add_edge(5, 0).build().is_err());
    assert!(GraphBuilder::new(2, 2).add_edge(0, 9).build().is_err());
}

#[test]
fn malformed_edge_list_input() {
    assert!(bigraph::io::read_graph("1 2\nnot numbers\n".as_bytes()).is_err());
    assert!(bigraph::io::read_graph("1\n".as_bytes()).is_err());
    // Comments, blanks, trailing columns are all fine.
    let g = bigraph::io::read_graph("% hdr\n\n1 1 3.5\n2 2 9 9\n".as_bytes()).unwrap();
    assert_eq!(g.num_edges(), 2);
}

#[test]
fn extreme_partition_counts() {
    let g = bigraph::gen::uniform(30, 30, 200, 5);
    let reference = tip_decompose(&g, Side::U, &Config::default().with_partitions(1));
    // P = 0 clamps to 1; P far beyond n still works (empty tail ranges).
    for p in [0usize, 1, 29, 30, 31, 10_000] {
        let r = tip_decompose(&g, Side::U, &Config::default().with_partitions(p));
        assert_eq!(reference.tip, r.tip, "P = {p}");
        assert!(r.metrics.partitions_used >= 1);
    }
}

#[test]
fn isolated_vertices_mixed_with_dense_block() {
    // 4 isolated U vertices + a 3x3 complete block.
    let mut edges = Vec::new();
    for u in 4..7u32 {
        for v in 0..3u32 {
            edges.push((u, v));
        }
    }
    let g = from_edges(7, 3, &edges).unwrap();
    let r = tip_decompose(&g, Side::U, &Config::default());
    assert_eq!(&r.tip[0..4], &[0, 0, 0, 0]);
    assert!(r.tip[4..].iter().all(|&t| t == 6)); // (3-1) * C(3,2)
}

#[test]
fn heap_arity_extremes() {
    let g = bigraph::gen::uniform(40, 40, 250, 9);
    let truth = bup::bup_decompose(&g, Side::U, 4).tip;
    for arity in [1usize, 2, 16, 64] {
        // Arity 1 clamps to 2 internally.
        let cfg = Config {
            heap_arity: arity,
            ..Config::default()
        };
        assert_eq!(truth, tip_decompose(&g, Side::U, &cfg).tip, "arity {arity}");
    }
}

#[test]
fn one_sided_graphs() {
    // nu = 1: no U-side butterflies possible.
    let g = from_edges(1, 5, &[(0, 0), (0, 1), (0, 2), (0, 3), (0, 4)]).unwrap();
    assert_eq!(tip_decompose(&g, Side::U, &Config::default()).tip, vec![0]);
    // But the V side of the same graph is a star: also no butterflies.
    assert!(tip_decompose(&g, Side::V, &Config::default())
        .tip
        .iter()
        .all(|&t| t == 0));
}
