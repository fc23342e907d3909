//! Synthetic attributed-graph generators.
//!
//! The paper evaluates on Flickr, Ogbn-arxiv and Ogbn-products; those
//! datasets are not available in this offline environment, so the proxies in
//! `nai-datasets` are produced by the degree-corrected stochastic block
//! model implemented here. The generator is designed to preserve the three
//! phenomena the NAI evaluation depends on:
//!
//! 1. **power-law degrees** — high-degree nodes reach their stationary
//!    state after very few hops (Eq. 10), low-degree nodes need many, which
//!    is what makes *adaptive* depth profitable;
//! 2. **homophily** — edges fall inside a node's class with probability
//!    `homophily`, so propagation genuinely denoises features;
//! 3. **noisy class-correlated features** — raw features are weak,
//!    propagated features are strong, reproducing the accuracy-vs-depth
//!    curves of the paper.
//!
//! Beyond the SBM, the scenario topologies (`nai-datasets::TopologySpec`)
//! draw on three further *edge-list* generators covering
//! the topology axes the NAP policies are sensitive to:
//!
//! * [`rmat_edges`] — recursive-matrix (R-MAT) power-law graphs, the
//!   classic skewed-degree shape where depth-adaptive exit pays off;
//! * [`small_world_edges`] — Watts–Strogatz ring lattices with random
//!   rewiring: near-homogeneous degrees, the worst case for
//!   degree-driven depth policies;
//! * [`hub_star_edges`] — a few extreme hubs absorbing most edges, the
//!   hub-heavy read-traffic shape of online serving.
//!
//! [`attributed`] lifts any edge list into a full [`Graph`] with the
//! same balanced-label + noisy-centroid feature model the SBM uses.
//!
//! Also includes tiny deterministic topologies (path/star/complete/grid)
//! used across the workspace's tests.

use crate::csr::CsrMatrix;
use crate::graph::Graph;
use nai_linalg::init::sample_standard_normal;
use nai_linalg::DenseMatrix;
use rand::Rng;
use std::collections::HashSet;

/// Configuration of the degree-corrected SBM generator.
#[derive(Debug, Clone)]
pub struct GeneratorConfig {
    /// Number of nodes `n`.
    pub num_nodes: usize,
    /// Number of classes/communities `c`.
    pub num_classes: usize,
    /// Target average degree `2m / n`.
    pub avg_degree: f64,
    /// Pareto exponent of the degree weights (2.0–3.0 gives realistic
    /// heavy tails; larger values approach homogeneous degrees).
    pub power_law_exponent: f64,
    /// Probability that an edge stays inside its source's community.
    pub homophily: f64,
    /// Feature dimensionality `f`.
    pub feature_dim: usize,
    /// Standard deviation of per-node feature noise. Centroids have unit
    /// scale, so values around 1.5–3.0 make raw features weak and
    /// propagated features strong.
    pub feature_noise: f32,
}

impl Default for GeneratorConfig {
    fn default() -> Self {
        Self {
            num_nodes: 1000,
            num_classes: 5,
            avg_degree: 8.0,
            power_law_exponent: 2.5,
            homophily: 0.8,
            feature_dim: 32,
            feature_noise: 2.0,
        }
    }
}

/// Weighted sampler over `0..weights.len()` via cumulative sums and binary
/// search. Deterministic given the RNG stream.
struct CumulativeSampler {
    cumsum: Vec<f64>,
}

impl CumulativeSampler {
    fn new(weights: impl Iterator<Item = f64>) -> Self {
        let mut cumsum = Vec::new();
        let mut acc = 0.0;
        for w in weights {
            acc += w.max(0.0);
            cumsum.push(acc);
        }
        Self { cumsum }
    }

    fn total(&self) -> f64 {
        self.cumsum.last().copied().unwrap_or(0.0)
    }

    fn sample<R: Rng>(&self, rng: &mut R) -> usize {
        let x = rng.gen_range(0.0..self.total().max(f64::MIN_POSITIVE));
        match self
            .cumsum
            .binary_search_by(|probe| probe.partial_cmp(&x).expect("finite"))
        {
            Ok(i) => (i + 1).min(self.cumsum.len() - 1),
            Err(i) => i.min(self.cumsum.len() - 1),
        }
    }
}

/// Generates a degree-corrected SBM graph per the config.
///
/// # Panics
/// Panics if `num_nodes < num_classes` or `num_classes == 0`.
pub fn generate<R: Rng>(cfg: &GeneratorConfig, rng: &mut R) -> Graph {
    assert!(cfg.num_classes > 0, "need at least one class");
    assert!(
        cfg.num_nodes >= cfg.num_classes,
        "need at least one node per class"
    );
    let n = cfg.num_nodes;
    let c = cfg.num_classes;

    let labels = balanced_labels(n, c, rng);

    // Power-law degree weights: w = u^(-1/(alpha-1)), capped to avoid a
    // single node absorbing the whole edge budget.
    let alpha = cfg.power_law_exponent.max(1.5);
    let cap = (n as f64).sqrt().max(4.0);
    let weights: Vec<f64> = (0..n)
        .map(|_| {
            let u: f64 = rng.gen_range(f64::EPSILON..1.0);
            u.powf(-1.0 / (alpha - 1.0)).min(cap)
        })
        .collect();

    let global = CumulativeSampler::new(weights.iter().copied());
    // Per-class samplers over class member indices.
    let mut class_members: Vec<Vec<u32>> = vec![Vec::new(); c];
    for (i, &l) in labels.iter().enumerate() {
        class_members[l as usize].push(i as u32);
    }
    let class_samplers: Vec<CumulativeSampler> = class_members
        .iter()
        .map(|members| CumulativeSampler::new(members.iter().map(|&m| weights[m as usize])))
        .collect();

    let m_target = ((n as f64 * cfg.avg_degree) / 2.0).round() as usize;
    let mut edges: Vec<(u32, u32)> = Vec::with_capacity(m_target);
    let mut seen: HashSet<u64> = HashSet::with_capacity(m_target * 2);
    let max_attempts = m_target.saturating_mul(30).max(1000);
    let mut attempts = 0usize;
    while edges.len() < m_target && attempts < max_attempts {
        attempts += 1;
        let u = global.sample(rng) as u32;
        let v = if rng.gen_bool(cfg.homophily.clamp(0.0, 1.0)) {
            let cls = labels[u as usize] as usize;
            class_members[cls][class_samplers[cls].sample(rng)]
        } else {
            global.sample(rng) as u32
        };
        if u == v {
            continue;
        }
        if seen.insert(edge_key(u, v)) {
            edges.push((u, v));
        }
    }

    let adj = CsrMatrix::undirected_adjacency(n, &edges).expect("endpoints in range");
    let features = class_features(&labels, c, cfg.feature_dim, cfg.feature_noise, rng);
    Graph::new(adj, features, labels, c).expect("generator invariants")
}

/// Balanced class assignment with a Fisher–Yates shuffle so class
/// blocks don't align with node ids. Per-class counts differ by at
/// most one.
pub fn balanced_labels<R: Rng>(n: usize, num_classes: usize, rng: &mut R) -> Vec<u32> {
    assert!(num_classes > 0, "need at least one class");
    let mut labels: Vec<u32> = (0..n).map(|i| (i % num_classes) as u32).collect();
    for i in (1..n).rev() {
        let j = rng.gen_range(0..=i);
        labels.swap(i, j);
    }
    labels
}

/// The SBM's feature model for arbitrary label assignments: unit-scale
/// class centroids + heavy per-node Gaussian noise, so raw features are
/// weak and propagated features strong.
pub fn class_features<R: Rng>(
    labels: &[u32],
    num_classes: usize,
    feature_dim: usize,
    feature_noise: f32,
    rng: &mut R,
) -> DenseMatrix {
    let centroids =
        DenseMatrix::from_fn(num_classes, feature_dim, |_, _| sample_standard_normal(rng));
    let mut features = DenseMatrix::zeros(labels.len(), feature_dim);
    for (i, &label) in labels.iter().enumerate() {
        let cls = label as usize;
        let row = features.row_mut(i);
        for (x, &mu) in row.iter_mut().zip(centroids.row(cls)) {
            *x = mu + feature_noise * sample_standard_normal(rng);
        }
    }
    features
}

/// Lifts an edge list into a full attributed [`Graph`]: undirected
/// simple-graph adjacency plus the same balanced-label / noisy-centroid
/// feature model as the SBM generator. Labels are drawn *after* the
/// topology, so they carry no structural signal (no homophily) — which
/// is exactly the heterogeneity axis the scenario matrix probes.
///
/// # Panics
/// Panics if `num_classes == 0` or any edge endpoint is `>= n`.
pub fn attributed<R: Rng>(
    n: usize,
    edges: &[(u32, u32)],
    num_classes: usize,
    feature_dim: usize,
    feature_noise: f32,
    rng: &mut R,
) -> Graph {
    let adj = CsrMatrix::undirected_adjacency(n, edges).expect("endpoints in range");
    let labels = balanced_labels(n, num_classes, rng);
    let features = class_features(&labels, num_classes, feature_dim, feature_noise, rng);
    Graph::new(adj, features, labels, num_classes).expect("attributed graph invariants")
}

/// Undirected-edge dedup key (order-independent).
fn edge_key(a: u32, b: u32) -> u64 {
    let (lo, hi) = if a < b { (a, b) } else { (b, a) };
    (lo as u64) << 32 | hi as u64
}

/// R-MAT (recursive matrix) power-law topology: each edge is drawn by
/// recursively descending into one of four adjacency-matrix quadrants
/// with probabilities `(a, b, c, 1−a−b−c)`. Skewed partitions
/// (`a ≈ 0.55+`) concentrate edges on low-id nodes, producing the
/// heavy-tailed degree distributions where node-adaptive propagation
/// wins the most. Self-loops and duplicates are rejected; the result
/// may fall short of `m_target` on dense/small configurations (the
/// attempt budget is capped like the SBM's).
///
/// # Panics
/// Panics if `n < 2` or the partition is not a sub-distribution.
pub fn rmat_edges<R: Rng>(
    n: usize,
    m_target: usize,
    partition: (f64, f64, f64),
    rng: &mut R,
) -> Vec<(u32, u32)> {
    assert!(n >= 2, "R-MAT needs at least two nodes");
    let (a, b, c) = partition;
    assert!(
        a > 0.0 && b >= 0.0 && c >= 0.0 && a + b + c < 1.0,
        "R-MAT partition must satisfy a > 0, b,c ≥ 0, a+b+c < 1"
    );
    let bits = (n - 1).ilog2() + 1;
    let mut edges: Vec<(u32, u32)> = Vec::with_capacity(m_target);
    let mut seen: HashSet<u64> = HashSet::with_capacity(m_target * 2);
    let max_attempts = m_target.saturating_mul(30).max(1000);
    let mut attempts = 0usize;
    while edges.len() < m_target && attempts < max_attempts {
        attempts += 1;
        let (mut u, mut v) = (0u64, 0u64);
        for _ in 0..bits {
            let x: f64 = rng.gen_range(0.0..1.0);
            let (du, dv) = if x < a {
                (0, 0)
            } else if x < a + b {
                (0, 1)
            } else if x < a + b + c {
                (1, 0)
            } else {
                (1, 1)
            };
            u = (u << 1) | du;
            v = (v << 1) | dv;
        }
        if u as usize >= n || v as usize >= n || u == v {
            continue;
        }
        let (u, v) = (u as u32, v as u32);
        if seen.insert(edge_key(u, v)) {
            edges.push((u, v));
        }
    }
    edges
}

/// Watts–Strogatz small-world topology: a ring lattice where every node
/// connects to its `k_per_side` nearest neighbors on each side, with
/// each lattice edge rewired to a uniformly random endpoint with
/// probability `rewire`. Degrees are near-homogeneous — the opposite
/// end of the degree-skew axis from R-MAT/hub-star — so degree-driven
/// depth policies gain the least here. A rewire that would create a
/// self-loop or duplicate falls back to the lattice edge (dropped only
/// if that is itself a duplicate), keeping the edge count ≈
/// `n · k_per_side`.
///
/// # Panics
/// Panics if `n < 3` or `k_per_side == 0`.
pub fn small_world_edges<R: Rng>(
    n: usize,
    k_per_side: usize,
    rewire: f64,
    rng: &mut R,
) -> Vec<(u32, u32)> {
    assert!(n >= 3, "small-world needs at least three nodes");
    assert!(k_per_side >= 1, "k_per_side must be ≥ 1");
    let p = rewire.clamp(0.0, 1.0);
    let mut edges: Vec<(u32, u32)> = Vec::with_capacity(n * k_per_side);
    let mut seen: HashSet<u64> = HashSet::with_capacity(n * k_per_side * 2);
    for i in 0..n {
        for j in 1..=k_per_side.min(n / 2) {
            let u = i as u32;
            let mut v = ((i + j) % n) as u32;
            if rng.gen_bool(p) {
                for _ in 0..8 {
                    let cand = rng.gen_range(0..n) as u32;
                    if cand != u && !seen.contains(&edge_key(u, cand)) {
                        v = cand;
                        break;
                    }
                }
            }
            if u != v && seen.insert(edge_key(u, v)) {
                edges.push((u, v));
            }
        }
    }
    edges
}

/// Hub-star topology: nodes `0..hubs` are hubs; every leaf attaches to
/// one hub drawn with weight `∝ 1/(h+1)` (hub 0 hottest — so
/// Zipf-skewed *traffic* over node ids automatically lands on the
/// hottest *structure*), hubs form a ring for connectivity, and the
/// remaining edge budget is filled with random leaf→hub attachments.
/// This is the most extreme degree-skew in the scenario matrix: hub
/// stationary states are reached in one hop while leaves need many.
///
/// # Panics
/// Panics if `hubs == 0` or `hubs >= n`.
pub fn hub_star_edges<R: Rng>(
    n: usize,
    hubs: usize,
    m_target: usize,
    rng: &mut R,
) -> Vec<(u32, u32)> {
    assert!(hubs >= 1, "need at least one hub");
    assert!(hubs < n, "need at least one leaf");
    let hub_weights = CumulativeSampler::new((0..hubs).map(|h| 1.0 / (h + 1) as f64));
    let mut edges: Vec<(u32, u32)> = Vec::with_capacity(m_target);
    let mut seen: HashSet<u64> = HashSet::with_capacity(m_target * 2);
    // Hub ring: with every leaf attached below, the graph is connected.
    for h in 1..hubs as u32 {
        if seen.insert(edge_key(h - 1, h)) {
            edges.push((h - 1, h));
        }
    }
    for leaf in hubs as u32..n as u32 {
        let hub = hub_weights.sample(rng) as u32;
        if seen.insert(edge_key(leaf, hub)) {
            edges.push((leaf, hub));
        }
    }
    let max_attempts = m_target.saturating_mul(30).max(1000);
    let mut attempts = 0usize;
    while edges.len() < m_target && attempts < max_attempts {
        attempts += 1;
        let leaf = rng.gen_range(hubs..n) as u32;
        let hub = hub_weights.sample(rng) as u32;
        if seen.insert(edge_key(leaf, hub)) {
            edges.push((leaf, hub));
        }
    }
    edges
}

/// Path graph 0–1–⋯–(n−1) with the given feature dim (features = node id
/// one-dim ramp broadcast, labels alternate 0/1).
pub fn path_graph(n: usize, feature_dim: usize) -> Graph {
    let edges: Vec<(u32, u32)> = (1..n as u32).map(|i| (i - 1, i)).collect();
    deterministic(n, feature_dim, &edges)
}

/// Star graph: node 0 is the hub.
pub fn star_graph(n: usize, feature_dim: usize) -> Graph {
    let edges: Vec<(u32, u32)> = (1..n as u32).map(|i| (0, i)).collect();
    deterministic(n, feature_dim, &edges)
}

/// Complete graph on `n` nodes.
pub fn complete_graph(n: usize, feature_dim: usize) -> Graph {
    let edges: Vec<(u32, u32)> = (0..n as u32)
        .flat_map(|i| ((i + 1)..n as u32).map(move |j| (i, j)))
        .collect();
    deterministic(n, feature_dim, &edges)
}

/// `rows × cols` grid graph.
pub fn grid_graph(rows: usize, cols: usize, feature_dim: usize) -> Graph {
    let at = |r: usize, c: usize| (r * cols + c) as u32;
    let mut edges = Vec::new();
    for r in 0..rows {
        for c in 0..cols {
            if c + 1 < cols {
                edges.push((at(r, c), at(r, c + 1)));
            }
            if r + 1 < rows {
                edges.push((at(r, c), at(r + 1, c)));
            }
        }
    }
    deterministic(rows * cols, feature_dim, &edges)
}

fn deterministic(n: usize, feature_dim: usize, edges: &[(u32, u32)]) -> Graph {
    let adj = CsrMatrix::undirected_adjacency(n, edges).expect("static edges in range");
    let features = DenseMatrix::from_fn(n, feature_dim.max(1), |r, c| {
        (r as f32 + 1.0) * 0.1 + c as f32 * 0.01
    });
    let labels: Vec<u32> = (0..n).map(|i| (i % 2) as u32).collect();
    Graph::new(adj, features, labels, 2).expect("deterministic graph invariants")
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn generator_hits_degree_target_roughly() {
        let cfg = GeneratorConfig {
            num_nodes: 2000,
            avg_degree: 10.0,
            ..Default::default()
        };
        let g = generate(&cfg, &mut StdRng::seed_from_u64(11));
        let avg = 2.0 * g.num_edges() as f64 / g.num_nodes() as f64;
        assert!(
            (avg - 10.0).abs() < 1.5,
            "avg degree {avg} far from target 10"
        );
    }

    #[test]
    fn generator_is_deterministic_per_seed() {
        let cfg = GeneratorConfig::default();
        let a = generate(&cfg, &mut StdRng::seed_from_u64(5));
        let b = generate(&cfg, &mut StdRng::seed_from_u64(5));
        assert_eq!(a.labels, b.labels);
        assert_eq!(a.adj.indices(), b.adj.indices());
        assert_eq!(a.features.as_slice(), b.features.as_slice());
        let c = generate(&cfg, &mut StdRng::seed_from_u64(6));
        assert_ne!(a.adj.indices(), c.adj.indices());
    }

    #[test]
    fn generator_produces_heavy_tail() {
        let cfg = GeneratorConfig {
            num_nodes: 3000,
            avg_degree: 10.0,
            power_law_exponent: 2.2,
            ..Default::default()
        };
        let g = generate(&cfg, &mut StdRng::seed_from_u64(12));
        let mut degs = g.adj.degrees();
        degs.sort_by(|a, b| b.partial_cmp(a).unwrap());
        let mean = degs.iter().sum::<f32>() / degs.len() as f32;
        // Heavy tail: max degree several times the mean.
        assert!(degs[0] > 4.0 * mean, "max {} vs mean {mean}", degs[0]);
    }

    #[test]
    fn generator_is_homophilous() {
        let cfg = GeneratorConfig {
            num_nodes: 2000,
            homophily: 0.9,
            ..Default::default()
        };
        let g = generate(&cfg, &mut StdRng::seed_from_u64(13));
        let mut intra = 0usize;
        let mut total = 0usize;
        for i in 0..g.num_nodes() {
            for (j, _) in g.adj.row_iter(i) {
                total += 1;
                if g.labels[i] == g.labels[j as usize] {
                    intra += 1;
                }
            }
        }
        let frac = intra as f64 / total as f64;
        assert!(frac > 0.7, "intra-class edge fraction {frac}");
    }

    #[test]
    fn class_histogram_is_balanced() {
        let cfg = GeneratorConfig {
            num_nodes: 1000,
            num_classes: 4,
            ..Default::default()
        };
        let g = generate(&cfg, &mut StdRng::seed_from_u64(14));
        let h = g.class_histogram();
        assert_eq!(h.iter().sum::<usize>(), 1000);
        assert!(h.iter().all(|&c| c == 250));
    }

    #[test]
    fn deterministic_topologies() {
        let p = path_graph(5, 3);
        assert_eq!(p.num_edges(), 4);
        let s = star_graph(5, 3);
        assert_eq!(s.num_edges(), 4);
        assert_eq!(s.adj.row_nnz(0), 4);
        let k = complete_graph(5, 2);
        assert_eq!(k.num_edges(), 10);
        let g = grid_graph(3, 4, 2);
        assert_eq!(g.num_nodes(), 12);
        assert_eq!(g.num_edges(), 3 * 3 + 2 * 4);
    }

    #[test]
    fn rmat_is_skewed_and_deduped() {
        let mut rng = StdRng::seed_from_u64(21);
        let edges = rmat_edges(1024, 4096, (0.57, 0.19, 0.19), &mut rng);
        assert!(edges.len() > 3500, "budget roughly met: {}", edges.len());
        let mut seen = HashSet::new();
        for &(u, v) in &edges {
            assert!(u != v && (u as usize) < 1024 && (v as usize) < 1024);
            assert!(seen.insert(edge_key(u, v)), "duplicate ({u},{v})");
        }
        // Degree skew: the heaviest node far exceeds the mean.
        let mut deg = vec![0usize; 1024];
        for &(u, v) in &edges {
            deg[u as usize] += 1;
            deg[v as usize] += 1;
        }
        let mean = 2.0 * edges.len() as f64 / 1024.0;
        let max = *deg.iter().max().unwrap() as f64;
        assert!(max > 4.0 * mean, "max {max} vs mean {mean}");
    }

    #[test]
    fn small_world_is_near_homogeneous() {
        let mut rng = StdRng::seed_from_u64(22);
        let n = 500;
        let edges = small_world_edges(n, 3, 0.1, &mut rng);
        assert!(edges.len() > n * 3 * 9 / 10, "lattice mostly intact");
        let mut deg = vec![0usize; n];
        for &(u, v) in &edges {
            assert!(u != v);
            deg[u as usize] += 1;
            deg[v as usize] += 1;
        }
        // Every node keeps close to the lattice degree 2k.
        assert!(deg.iter().all(|&d| (3..=14).contains(&d)), "{deg:?}");
    }

    #[test]
    fn hub_star_concentrates_on_hubs() {
        let mut rng = StdRng::seed_from_u64(23);
        let n = 400;
        let hubs = 4;
        let edges = hub_star_edges(n, hubs, 900, &mut rng);
        let mut deg = vec![0usize; n];
        for &(u, v) in &edges {
            assert!(u != v);
            deg[u as usize] += 1;
            deg[v as usize] += 1;
        }
        // Every hub's degree dwarfs the mean (leaves hold ≈1–3 edges).
        let mean = 2.0 * edges.len() as f64 / n as f64;
        assert!(
            deg[..hubs].iter().all(|&d| d as f64 > 5.0 * mean),
            "hub degrees {:?} vs mean {mean}",
            &deg[..hubs]
        );
        // Hub 0 is the hottest (harmonic attachment weights).
        assert!(deg[0] > deg[hubs - 1]);
        // Every leaf is attached.
        assert!(deg[hubs..].iter().all(|&d| d >= 1));
    }

    #[test]
    fn attributed_lifts_edges_into_graphs_deterministically() {
        let edges = small_world_edges(120, 2, 0.2, &mut StdRng::seed_from_u64(24));
        let a = attributed(120, &edges, 4, 6, 2.0, &mut StdRng::seed_from_u64(25));
        let b = attributed(120, &edges, 4, 6, 2.0, &mut StdRng::seed_from_u64(25));
        assert_eq!(a.labels, b.labels);
        assert_eq!(a.features.as_slice(), b.features.as_slice());
        assert_eq!(a.num_classes, 4);
        let h = a.class_histogram();
        assert_eq!(h.iter().sum::<usize>(), 120);
        assert!(h.iter().all(|&c| c == 30), "balanced labels: {h:?}");
    }

    #[test]
    fn cumulative_sampler_respects_weights() {
        let s = CumulativeSampler::new([1.0, 0.0, 9.0].into_iter());
        let mut rng = StdRng::seed_from_u64(15);
        let mut counts = [0usize; 3];
        for _ in 0..5000 {
            counts[s.sample(&mut rng)] += 1;
        }
        assert_eq!(counts[1], 0);
        assert!(counts[2] > counts[0] * 5);
    }
}
