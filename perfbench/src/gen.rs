//! The benchmark's own seeded input generator.
//!
//! Every input — graphs, update schedules, request scripts — is derived
//! here from the `--seed` argument alone. Nothing calls `bigraph::gen`,
//! `bigraph::dynamic::seeded_schedule` or the vendored `rand`, so a later
//! change to those modules cannot silently change a workload. The graph
//! shapes copy `bigraph::datasets` as constants: side sizes, target edge
//! count and the Zipf skews of both degree sequences.

use bigraph::EdgeOp;
use std::collections::{HashMap, HashSet};
use std::io::Write;
use std::path::Path;

/// SplitMix64: tiny, seedable, and fixed here so workloads never move
/// with a dependency.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// An independent stream for one input (`tag`) of one run (`seed`).
    pub fn stream(seed: u64, tag: &str) -> Rng {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in tag.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        let mut rng = Rng(seed ^ h);
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`), by the multiply-shift reduction.
    pub fn below(&mut self, n: usize) -> usize {
        ((u128::from(self.next_u64()) * n as u128) >> 64) as usize
    }
}

/// A bipartite shape: side sizes, target edge count before multi-edge
/// merging, and the Zipf skew of each side's degree sequence.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Shape {
    pub nu: usize,
    pub nv: usize,
    pub m: usize,
    pub alpha_u: f64,
    pub alpha_v: f64,
}

/// `tip-static`: the Tr analog's skews (`datasets::TR`: 0.55 / 1.25) at
/// 7000 : 3000 vertices, so one decomposition takes about a tenth of a
/// second and the tracker-side hubs still make FD matter.
pub const TR_STATIC: Shape = Shape {
    nu: 7_000,
    nv: 3_000,
    m: 16_000,
    alpha_u: 0.55,
    alpha_v: 1.25,
};

/// `stream-dirty`: the It analog's skews (`datasets::IT`: 0.40 / 0.90) at
/// 6000 : 400 vertices, so a dirty batch re-peels in about a tenth of a
/// second.
pub const IT_STREAM: Shape = Shape {
    nu: 6_000,
    nv: 400,
    m: 30_000,
    alpha_u: 0.40,
    alpha_v: 0.90,
};

/// `serve-topk`: the full It analog (`datasets::IT`).
pub const IT_SERVE: Shape = Shape {
    nu: 22_000,
    nv: 1_400,
    m: 110_000,
    alpha_u: 0.40,
    alpha_v: 0.90,
};

/// Degrees proportional to `(i + 1)^-alpha`, each in `1..=cap`, summing to
/// `m` when the cap allows it. Sorted descending (vertex 0 is the hub).
pub fn zipf_degrees(n: usize, m: usize, alpha: f64, cap: usize) -> Vec<usize> {
    let weights: Vec<f64> = (0..n).map(|i| ((i + 1) as f64).powf(-alpha)).collect();
    let total: f64 = weights.iter().sum();
    let mut degrees: Vec<usize> = weights
        .iter()
        .map(|w| ((w / total * m as f64).round() as usize).clamp(1, cap))
        .collect();
    let mut sum: usize = degrees.iter().sum();
    // Rounding leaves the sum a little off `m`: walk the vertices in
    // order, one unit each, until it matches or no vertex can move.
    let mut stalled = 0;
    let mut i = 0;
    while sum != m && stalled < n {
        let d = &mut degrees[i % n];
        if sum < m && *d < cap {
            *d += 1;
            sum += 1;
            stalled = 0;
        } else if sum > m && *d > 1 {
            *d -= 1;
            sum -= 1;
            stalled = 0;
        } else {
            stalled += 1;
        }
        i += 1;
    }
    degrees.sort_unstable_by(|a, b| b.cmp(a));
    degrees
}

/// A generated graph: side sizes plus its edges, sorted and distinct.
#[derive(Debug, Clone, PartialEq)]
pub struct Graph {
    pub nu: usize,
    pub nv: usize,
    pub edges: Vec<(u32, u32)>,
}

fn shuffle<T>(items: &mut [T], rng: &mut Rng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.below(i + 1));
    }
}

fn stubs(degrees: &[usize]) -> Vec<u32> {
    let mut out = Vec::with_capacity(degrees.iter().sum());
    for (vertex, &d) in degrees.iter().enumerate() {
        out.extend(std::iter::repeat_n(vertex as u32, d));
    }
    out
}

/// Zipf configuration model: both sides' degree stubs are shuffled and
/// paired; repeated pairs merge into one edge, as when a real multigraph
/// trace is simplified.
pub fn zipf_graph(shape: &Shape, rng: &mut Rng) -> Graph {
    let degrees_u = zipf_degrees(shape.nu, shape.m, shape.alpha_u, shape.nv);
    let degrees_v = zipf_degrees(shape.nv, shape.m, shape.alpha_v, shape.nu);
    let mut su = stubs(&degrees_u);
    let mut sv = stubs(&degrees_v);
    shuffle(&mut su, rng);
    shuffle(&mut sv, rng);
    let mut edges: Vec<(u32, u32)> = su.into_iter().zip(sv).collect();
    edges.sort_unstable();
    edges.dedup();
    Graph {
        nu: shape.nu,
        nv: shape.nv,
        edges,
    }
}

impl Graph {
    /// Writes the KONECT text form `bigraph::io` reads: a `%` header whose
    /// second line `% m nu nv` fixes the side sizes and marks the ids
    /// 0-based, then one `u v` line per edge.
    pub fn write_konect(&self, path: &Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "% bip unweighted")?;
        writeln!(w, "% {} {} {}", self.edges.len(), self.nu, self.nv)?;
        for (u, v) in &self.edges {
            writeln!(w, "{u} {v}")?;
        }
        w.flush()
    }
}

/// Endless seeded update batches over a graph, each of `ops` distinct
/// edges: 60% inserts of absent edges, 40% deletes of present ones.
/// Insert endpoints are drawn uniformly per side; deletes pick a present
/// edge uniformly. The generator tracks the edge set itself, so every op
/// takes effect and the same seed always yields the same batches.
#[derive(Debug, Clone)]
pub struct UpdateSchedule {
    rng: Rng,
    nu: usize,
    nv: usize,
    ops: usize,
    present: Vec<(u32, u32)>,
    slot: HashMap<(u32, u32), usize>,
}

impl UpdateSchedule {
    pub fn new(graph: &Graph, ops: usize, rng: Rng) -> Self {
        let present = graph.edges.clone();
        let slot = present.iter().enumerate().map(|(i, &e)| (e, i)).collect();
        UpdateSchedule {
            rng,
            nu: graph.nu,
            nv: graph.nv,
            ops,
            present,
            slot,
        }
    }

    pub fn next_batch(&mut self) -> Vec<EdgeOp> {
        let mut touched: HashSet<(u32, u32)> = HashSet::new();
        let mut batch = Vec::with_capacity(self.ops);
        while batch.len() < self.ops {
            if self.rng.below(5) < 3 {
                let e = (
                    self.rng.below(self.nu) as u32,
                    self.rng.below(self.nv) as u32,
                );
                if self.slot.contains_key(&e) || !touched.insert(e) {
                    continue;
                }
                self.slot.insert(e, self.present.len());
                self.present.push(e);
                batch.push(EdgeOp::Insert(e.0, e.1));
            } else {
                let e = self.present[self.rng.below(self.present.len())];
                if !touched.insert(e) {
                    continue;
                }
                let i = self.slot.remove(&e).expect("present edges are indexed");
                let last = self.present.pop().expect("a present edge was drawn");
                if i < self.present.len() {
                    self.present[i] = last;
                    self.slot.insert(last, i);
                }
                batch.push(EdgeOp::Delete(e.0, e.1));
            }
        }
        batch
    }
}

/// The `serve-topk` write stream: apply `a` attaches `ops` brand-new U
/// vertices (ids `nu + a·ops ..`), each by one edge to a seeded V vertex.
/// A degree-1 vertex lies on no butterfly, so every apply leaves all
/// counts and tip numbers unchanged.
pub fn neutral_apply(
    nu: usize,
    nv: usize,
    ops: usize,
    index: usize,
    rng: &mut Rng,
) -> Vec<(u32, u32)> {
    (0..ops)
        .map(|j| ((nu + index * ops + j) as u32, rng.below(nv) as u32))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn degrees_hit_the_target_sum_and_cap() {
        let d = zipf_degrees(400, 30_000, 0.9, 6_000);
        assert_eq!(d.iter().sum::<usize>(), 30_000);
        assert!(d.windows(2).all(|w| w[0] >= w[1]));
        assert!(d.iter().all(|&x| (1..=6_000).contains(&x)));
    }

    #[test]
    fn same_seed_same_graph_other_seed_other_graph() {
        let a = zipf_graph(&IT_STREAM, &mut Rng::stream(7, "g"));
        let b = zipf_graph(&IT_STREAM, &mut Rng::stream(7, "g"));
        let c = zipf_graph(&IT_STREAM, &mut Rng::stream(8, "g"));
        assert_eq!(a, b);
        assert_ne!(a.edges, c.edges);
        assert!(a.edges.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn schedule_ops_always_take_effect() {
        let g = zipf_graph(&IT_STREAM, &mut Rng::stream(3, "g"));
        let mut present: HashSet<(u32, u32)> = g.edges.iter().copied().collect();
        let mut schedule = UpdateSchedule::new(&g, 4, Rng::stream(3, "s"));
        let (mut inserts, mut deletes) = (0, 0);
        for _ in 0..500 {
            for op in schedule.next_batch() {
                match op {
                    EdgeOp::Insert(u, v) => {
                        assert!(present.insert((u, v)));
                        inserts += 1;
                    }
                    EdgeOp::Delete(u, v) => {
                        assert!(present.remove(&(u, v)));
                        deletes += 1;
                    }
                }
            }
        }
        let share = inserts as f64 / (inserts + deletes) as f64;
        assert!((0.55..0.65).contains(&share), "insert share {share}");
    }
}
