//! Parallel edge compaction: rebuilds both adjacency directions keeping
//! only edges whose both endpoints are alive. Vertex ids are preserved;
//! only the edge arrays shrink.
//!
//! RECEIPT's Dynamic Graph Maintenance (§4.2) does not rebuild: it drops
//! peeled vertices from live lists in place (`receipt::peel`). Compaction
//! builds the live subgraph from scratch, the oracle those live structures
//! and HUC's filtered re-counts are tested against.

use crate::csr::BipartiteCsr;
use crate::VertexId;
use rayon::prelude::*;

/// Rebuilds `g` dropping every edge incident on a dead vertex.
/// `alive_u[u]` / `alive_v[v]` flag survivors. Runs both directions in
/// parallel over vertices; list order (ascending ids) is preserved because
/// filtering a sorted list keeps it sorted.
pub fn compact(g: &BipartiteCsr, alive_u: &[bool], alive_v: &[bool]) -> BipartiteCsr {
    assert_eq!(alive_u.len(), g.num_u());
    assert_eq!(alive_v.len(), g.num_v());

    let (u_offsets, u_adj) = compact_one_side(
        g.num_u(),
        |u| g.neighbors_u(u),
        |u| alive_u[u as usize],
        |v| alive_v[v as usize],
    );
    let (v_offsets, v_adj) = compact_one_side(
        g.num_v(),
        |v| g.neighbors_v(v),
        |v| alive_v[v as usize],
        |u| alive_u[u as usize],
    );
    debug_assert_eq!(u_adj.len(), v_adj.len());
    BipartiteCsr::from_parts(u_offsets, u_adj, v_offsets, v_adj)
}

/// The order-preserving adjacency filter of one direction: keeps the
/// neighbours of every live vertex that are themselves alive, in list
/// order.
fn compact_one_side<'a>(
    n: usize,
    neighbors: impl Fn(VertexId) -> &'a [VertexId] + Sync,
    self_alive: impl Fn(VertexId) -> bool + Sync,
    other_alive: impl Fn(VertexId) -> bool + Sync,
) -> (Vec<usize>, Vec<VertexId>) {
    // Pass 1: surviving degree per vertex.
    let mut counts: Vec<u64> = (0..n as VertexId)
        .into_par_iter()
        .map(|x| {
            if !self_alive(x) {
                return 0u64;
            }
            neighbors(x).iter().filter(|&&y| other_alive(y)).count() as u64
        })
        .collect();
    counts.push(0);
    let total = parutil::par_exclusive_prefix_sum(&mut counts) as usize;
    let offsets: Vec<usize> = counts.iter().map(|&c| c as usize).collect();

    // Pass 2: scatter surviving neighbours. Each vertex writes a disjoint
    // output range, so the fill parallelizes over chunk boundaries.
    let mut adj = vec![0 as VertexId; total];
    // Split `adj` into per-vertex slices up front to allow parallel writes.
    let mut slices: Vec<&mut [VertexId]> = Vec::with_capacity(n);
    {
        let mut rest: &mut [VertexId] = &mut adj;
        for x in 0..n {
            let len = offsets[x + 1] - offsets[x];
            let (head, tail) = rest.split_at_mut(len);
            slices.push(head);
            rest = tail;
        }
    }
    slices.into_par_iter().enumerate().for_each(|(x, out)| {
        let x = x as VertexId;
        if out.is_empty() {
            return;
        }
        let mut w = 0;
        for &y in neighbors(x) {
            if other_alive(y) {
                out[w] = y;
                w += 1;
            }
        }
        debug_assert_eq!(w, out.len());
    });
    (offsets, adj)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::from_edges;

    fn sample() -> BipartiteCsr {
        from_edges(3, 3, &[(0, 0), (0, 1), (1, 0), (1, 1), (1, 2), (2, 2)]).unwrap()
    }

    #[test]
    fn all_alive_is_identity() {
        let g = sample();
        let c = compact(&g, &[true; 3], &[true; 3]);
        assert_eq!(c, g);
    }

    #[test]
    fn dead_u_vertex_removed_from_both_sides() {
        let g = sample();
        let c = compact(&g, &[true, false, true], &[true; 3]);
        assert_eq!(c.num_edges(), 3); // u1's three edges gone
        assert!(c.neighbors_u(1).is_empty());
        assert_eq!(c.neighbors_v(0), &[0]);
        assert_eq!(c.neighbors_v(1), &[0]);
        assert_eq!(c.neighbors_v(2), &[2]);
        // Dimensions unchanged: ids stay stable.
        assert_eq!(c.num_u(), 3);
        assert_eq!(c.num_v(), 3);
    }

    #[test]
    fn dead_v_vertex_removed() {
        let g = sample();
        let c = compact(&g, &[true; 3], &[false, true, true]);
        assert_eq!(c.num_edges(), 4);
        assert_eq!(c.neighbors_u(0), &[1]);
        assert_eq!(c.neighbors_u(1), &[1, 2]);
        assert!(c.neighbors_v(0).is_empty());
    }

    #[test]
    fn everything_dead() {
        let g = sample();
        let c = compact(&g, &[false; 3], &[false; 3]);
        assert_eq!(c.num_edges(), 0);
        assert_eq!(c.num_u(), 3);
    }

    #[test]
    fn adjacency_stays_sorted() {
        let g = from_edges(2, 5, &[(0, 0), (0, 2), (0, 3), (0, 4), (1, 1)]).unwrap();
        let c = compact(&g, &[true, true], &[true, false, true, false, true]);
        assert_eq!(c.neighbors_u(0), &[0, 2, 4]);
        assert!(c.neighbors_u(1).is_empty());
    }

    #[test]
    fn transpose_consistency_after_compaction() {
        let g = sample();
        let c = compact(&g, &[true, true, false], &[true, false, true]);
        let mut from_u: Vec<(u32, u32)> = c.edges().collect();
        let mut from_v: Vec<(u32, u32)> = Vec::new();
        for v in 0..c.num_v() as u32 {
            for &u in c.neighbors_v(v) {
                from_v.push((u, v));
            }
        }
        from_u.sort_unstable();
        from_v.sort_unstable();
        assert_eq!(from_u, from_v);
    }
}
