//! k-tip extraction on top of tip numbers.
//!
//! Tip numbers are the space-efficient representation of the k-tip
//! hierarchy (§2.2): the k-tips containing a vertex can be recovered on
//! demand. A k-tip (Definition 1) is a maximal vertex-induced subgraph
//! where every primary vertex has ≥ k butterflies *and* the primary
//! vertices are pairwise connected through series of butterflies. This
//! module materializes those components: take `S = {u : θ_u ≥ k}` and
//! split it by butterfly connectivity (two vertices are adjacent when they
//! share at least one butterfly, i.e. ≥ 2 common neighbours within `S`'s
//! induced subgraph — common neighbours are secondary vertices, which are
//! all retained).

use crate::peel::{walk_static, PeelScratch};
use bigraph::{SideGraph, VertexId};

/// Disjoint-set forest over dense ids, with path compression; a union
/// hangs the larger root under the smaller, so every root is its
/// component's smallest id. Also groups edges into k-wings
/// ([`crate::wing::kwing_components`]).
#[derive(Debug)]
pub(crate) struct UnionFind {
    parent: Vec<u32>,
}

impl UnionFind {
    pub(crate) fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n as u32).collect(),
        }
    }
    pub(crate) fn find(&mut self, x: u32) -> u32 {
        let mut root = x;
        while self.parent[root as usize] != root {
            root = self.parent[root as usize];
        }
        let mut cur = x;
        while self.parent[cur as usize] != root {
            let next = self.parent[cur as usize];
            self.parent[cur as usize] = root;
            cur = next;
        }
        root
    }
    pub(crate) fn union(&mut self, a: u32, b: u32) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            self.parent[ra.max(rb) as usize] = ra.min(rb);
        }
    }
}

/// Primary vertices with `θ_u ≥ k`.
pub fn vertices_with_tip_at_least(tips: &[u64], k: u64) -> Vec<VertexId> {
    tips.iter()
        .enumerate()
        .filter(|&(_, &t)| t >= k)
        .map(|(u, _)| u as VertexId)
        .collect()
}

/// The k-tips of the graph: butterfly-connected components of
/// `{u : θ_u ≥ k}`, each sorted ascending. Vertices participating in no
/// butterfly within the set appear as singletons only when `k = 0` (a
/// 0-tip imposes no butterfly requirement).
///
/// ```
/// use bigraph::Side;
/// // Fig.1 of the paper: tips are (2, 3, 3, 1); its 3-tip is {u2, u3}.
/// let g = bigraph::builder::from_edges(4, 4, &[
///     (0, 0), (0, 1), (1, 0), (1, 1), (1, 2),
///     (2, 0), (2, 1), (2, 2), (2, 3), (3, 2), (3, 3),
/// ]).unwrap();
/// let d = receipt::tip_decompose(&g, Side::U, &receipt::Config::default());
/// let tips3 = receipt::hierarchy::ktip_components(g.view(Side::U), &d.tip, 3);
/// assert_eq!(tips3, vec![vec![1, 2]]);
/// ```
pub fn ktip_components(view: SideGraph<'_>, tips: &[u64], k: u64) -> Vec<Vec<VertexId>> {
    let members = vertices_with_tip_at_least(tips, k);
    let np = view.num_primary();
    let mut in_set = vec![false; np];
    for &u in &members {
        in_set[u as usize] = true;
    }
    let mut uf = UnionFind::new(np);
    let mut scratch = PeelScratch::new(np);
    let mut has_butterfly = vec![false; np];
    for &u in &members {
        walk_static(view, u, &mut scratch, |u2, common| {
            if common >= 2 && in_set[u2 as usize] {
                uf.union(u, u2);
                has_butterfly[u as usize] = true;
            }
        });
    }

    let mut by_root: std::collections::BTreeMap<u32, Vec<VertexId>> = Default::default();
    for &u in &members {
        if has_butterfly[u as usize] || k == 0 {
            by_root.entry(uf.find(u)).or_default().push(u);
        }
    }
    by_root.into_values().collect()
}

/// Checks the k-core half of Definition 1: inside the subgraph induced on
/// all of `{θ ≥ k}`, every member participates in at least `k` butterflies.
/// Returns the first violating vertex, if any. (Test oracle; `O(Σ d²)`.)
pub fn verify_ktip_supports(view: SideGraph<'_>, tips: &[u64], k: u64) -> Option<VertexId> {
    let members = vertices_with_tip_at_least(tips, k);
    if members.is_empty() {
        return None;
    }
    let induced = bigraph::InducedGraph::new(view, &members);
    let counts = butterfly::naive::naive_primary_counts(induced.view());
    for (local, &c) in counts.iter().enumerate() {
        if c < k {
            return Some(induced.primary_global(local as VertexId));
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{tip_decompose, Config};
    use bigraph::builder::from_edges;
    use bigraph::{gen, Side};

    fn fig1_graph() -> bigraph::BipartiteCsr {
        from_edges(
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
        .unwrap()
    }

    #[test]
    fn fig1_hierarchy() {
        // Paper Fig.1: 1-tip = {u1..u4}, 2-tip = {u1,u2,u3}, 3-tip = {u2,u3}.
        let g = fig1_graph();
        let tips = tip_decompose(&g, Side::U, &Config::default()).tip;
        let view = g.view(Side::U);
        let t1 = ktip_components(view, &tips, 1);
        assert_eq!(t1, vec![vec![0, 1, 2, 3]]);
        let t2 = ktip_components(view, &tips, 2);
        assert_eq!(t2, vec![vec![0, 1, 2]]);
        let t3 = ktip_components(view, &tips, 3);
        assert_eq!(t3, vec![vec![1, 2]]);
        let t4 = ktip_components(view, &tips, 4);
        assert!(t4.is_empty());
    }

    #[test]
    fn disconnected_blocks_split_into_components() {
        // Two disjoint butterflies.
        let g = from_edges(
            4,
            4,
            &[
                (0, 0),
                (0, 1),
                (1, 0),
                (1, 1),
                (2, 2),
                (2, 3),
                (3, 2),
                (3, 3),
            ],
        )
        .unwrap();
        let tips = tip_decompose(&g, Side::U, &Config::default()).tip;
        let comps = ktip_components(g.view(Side::U), &tips, 1);
        assert_eq!(comps, vec![vec![0, 1], vec![2, 3]]);
    }

    #[test]
    fn k0_includes_isolated_vertices() {
        let g = from_edges(3, 2, &[(0, 0), (0, 1), (1, 0), (1, 1)]).unwrap();
        let tips = tip_decompose(&g, Side::U, &Config::default()).tip;
        let comps = ktip_components(g.view(Side::U), &tips, 0);
        let total: usize = comps.iter().map(|c| c.len()).sum();
        assert_eq!(total, 3, "0-tips cover every vertex");
    }

    #[test]
    fn ktip_supports_hold_on_random_graphs() {
        for seed in 0..4 {
            let g = gen::zipf(50, 30, 350, 0.5, 0.8, seed);
            let tips = tip_decompose(&g, Side::U, &Config::default().with_partitions(5)).tip;
            let theta_max = *tips.iter().max().unwrap();
            for k in [1, theta_max / 2, theta_max] {
                assert_eq!(
                    verify_ktip_supports(g.view(Side::U), &tips, k),
                    None,
                    "seed {seed} k {k}"
                );
            }
        }
    }

    #[test]
    fn union_find_basics() {
        let mut uf = UnionFind::new(5);
        uf.union(0, 1);
        uf.union(3, 4);
        assert_eq!(uf.find(1), uf.find(0));
        assert_ne!(uf.find(0), uf.find(3));
        uf.union(1, 4);
        assert_eq!(uf.find(0), uf.find(3));
        assert_eq!(uf.find(2), 2);
    }
}
