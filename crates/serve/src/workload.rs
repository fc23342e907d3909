//! Workload specifications and the shared node sampler.
//!
//! NAP's serving win depends on *traffic shape* as much as graph shape:
//! Zipf-skewed reads concentrate on hot (often high-degree) nodes that
//! exit early, and mutation-heavy mixes exercise sequenced replication.
//! A [`WorkloadSpec`] names one such shape; [`WorkloadSampler`] turns it
//! into a deterministic stream of wire [`Op`]s. `nai loadgen` and the
//! cache oracle tests consume this module, so Zipf/uniform node
//! sampling is one code path.

use crate::proto::Op;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// How node ids are drawn from the population `0..n`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Sampling {
    /// Every node equally likely.
    Uniform,
    /// Rank `r` (node id `r`) drawn with probability `∝ (r+1)^(-exponent)`
    /// — low ids are hot. Hub-star topologies place their hubs at the
    /// lowest ids, so Zipf traffic is automatically hub-heavy there.
    Zipf {
        /// Skew exponent `s > 0` (1.0 ≈ classic Zipf; larger = hotter).
        exponent: f64,
    },
}

/// One named traffic shape.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadSpec {
    /// Label (e.g. `"zipf-read"`).
    pub name: String,
    /// Fraction of requests that are reads (`Op::Infer`); the rest are
    /// mutations.
    pub read_fraction: f64,
    /// Within mutations, the fraction that are edge arrivals
    /// (`Op::ObserveEdge`); the rest are node ingests.
    pub edge_fraction: f64,
    /// Node-id sampling distribution for reads, edge endpoints, and
    /// ingest neighbors.
    pub sampling: Sampling,
    /// Node ids per read request.
    pub nodes_per_read: usize,
    /// Neighbors attached per ingest.
    pub ingest_degree: usize,
}

impl WorkloadSpec {
    /// The named workload shape.
    ///
    /// # Errors
    /// Returns the list of known names when `name` is unknown.
    pub fn named(name: &str) -> Result<WorkloadSpec, String> {
        let base = |name: &str, read_fraction, edge_fraction, sampling| WorkloadSpec {
            name: name.to_string(),
            read_fraction,
            edge_fraction,
            sampling,
            nodes_per_read: 2,
            ingest_degree: 3,
        };
        match name {
            // Pure reads, uniform over the population: the baseline.
            "uniform-read" => Ok(base(name, 1.0, 0.0, Sampling::Uniform)),
            // Pure reads, hub-heavy: the traffic shape where adaptive
            // depth pays off the most (§V's hot-node argument).
            "zipf-read" => Ok(base(name, 1.0, 0.0, Sampling::Zipf { exponent: 1.1 })),
            // A third of requests mutate the graph (ingests + edges):
            // exercises sequenced replication alongside reads.
            "mixed-mutation" => Ok(base(name, 0.67, 0.3, Sampling::Uniform)),
            other => Err(format!(
                "unknown workload `{other}` (expected uniform-read | zipf-read | \
                 mixed-mutation)"
            )),
        }
    }

    /// Validates fractions and counts.
    ///
    /// # Errors
    /// Returns a description of the violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if !(0.0..=1.0).contains(&self.read_fraction) {
            return Err(format!(
                "read_fraction must be in [0, 1], got {}",
                self.read_fraction
            ));
        }
        if !(0.0..=1.0).contains(&self.edge_fraction) {
            return Err(format!(
                "edge_fraction must be in [0, 1], got {}",
                self.edge_fraction
            ));
        }
        if let Sampling::Zipf { exponent } = self.sampling {
            if !exponent.is_finite() || exponent <= 0.0 {
                return Err(format!(
                    "Zipf exponent must be finite and > 0, got {exponent}"
                ));
            }
        }
        if self.nodes_per_read == 0 {
            return Err("nodes_per_read must be ≥ 1".to_string());
        }
        Ok(())
    }
}

/// Samples a 0-based rank from `{0, …, n−1}` with `P(r) ∝ (r+1)^(-s)`
/// by rejection-inversion (Hörmann & Derflinger): the hat assigns
/// integer `k ∈ {1..n}` the strip `[F(k−½), F(k+½)]` of the continuous
/// envelope `F(x) = ∫ x^(-s)`, whose mass dominates `k^(-s)` because
/// `x^(-s)` is convex; inverting a uniform draw over the envelope and
/// accepting the top `k^(-s)` of each strip yields the exact Zipf pmf
/// in `O(1)` expected time for any `n` — no tables, so the population
/// can grow between calls.
pub fn zipf_rank<R: Rng>(s: f64, n: u32, rng: &mut R) -> u32 {
    assert!(n > 0, "zipf_rank needs a non-empty population");
    assert!(s.is_finite() && s > 0.0, "zipf exponent must be > 0");
    if n == 1 {
        return 0;
    }
    let near_one = (s - 1.0).abs() < 1e-6;
    let f = |x: f64| -> f64 {
        if near_one {
            x.ln()
        } else {
            x.powf(1.0 - s) / (1.0 - s)
        }
    };
    let f_inv = |y: f64| -> f64 {
        if near_one {
            y.exp()
        } else {
            ((1.0 - s) * y).powf(1.0 / (1.0 - s))
        }
    };
    let lo = f(0.5);
    let hi = f(n as f64 + 0.5);
    loop {
        let y = lo + rng.gen_range(0.0f64..1.0) * (hi - lo);
        let k = f_inv(y).round().clamp(1.0, n as f64);
        if y >= f(k + 0.5) - k.powf(-s) {
            return k as u32 - 1;
        }
    }
}

/// A deterministic op stream for one client: the spec plus a seeded RNG.
#[derive(Debug)]
pub struct WorkloadSampler {
    spec: WorkloadSpec,
    rng: StdRng,
}

impl WorkloadSampler {
    /// One sampler per client; distinct seeds give independent streams.
    pub fn new(spec: WorkloadSpec, seed: u64) -> WorkloadSampler {
        WorkloadSampler {
            spec,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// The spec this sampler draws from.
    pub fn spec(&self) -> &WorkloadSpec {
        &self.spec
    }

    /// Draws one node id from the population `0..population` per the
    /// spec's sampling distribution.
    ///
    /// # Panics
    /// Panics if `population == 0`.
    pub fn sample_node(&mut self, population: u32) -> u32 {
        match self.spec.sampling {
            Sampling::Uniform => self.rng.gen_range(0..population),
            Sampling::Zipf { exponent } => zipf_rank(exponent, population, &mut self.rng),
        }
    }

    /// Draws the next operation against a population of `population`
    /// known-valid node ids (reads, edge endpoints, and ingest
    /// neighbors all stay below it). Mutations degrade gracefully on
    /// tiny populations: an edge needs two distinct nodes, so a
    /// 1-node population falls back to an ingest.
    ///
    /// # Panics
    /// Panics if `population == 0`.
    pub fn next_op(&mut self, population: u32, feature_dim: usize) -> Op {
        assert!(population > 0, "need at least one known node");
        let is_read = self.rng.gen_bool(self.spec.read_fraction);
        if is_read {
            return Op::Infer {
                nodes: (0..self.spec.nodes_per_read)
                    .map(|_| self.sample_node(population))
                    .collect(),
            };
        }
        let is_edge = self.rng.gen_bool(self.spec.edge_fraction) && population >= 2;
        if is_edge {
            let u = self.sample_node(population);
            let v = loop {
                let v = self.sample_node(population);
                if v != u {
                    break v;
                }
            };
            return Op::ObserveEdge { u, v };
        }
        Op::Ingest {
            features: (0..feature_dim)
                .map(|_| self.rng.gen_range(-1.0f32..1.0))
                .collect(),
            neighbors: (0..self.spec.ingest_degree)
                .map(|_| self.sample_node(population))
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_parse_and_validate() {
        for name in ["uniform-read", "zipf-read", "mixed-mutation"] {
            let spec = WorkloadSpec::named(name).unwrap();
            spec.validate().unwrap();
            assert_eq!(spec.name, name);
        }
        assert!(WorkloadSpec::named("firehose").is_err());
        let mut bad = WorkloadSpec::named("uniform-read").unwrap();
        bad.read_fraction = 1.5;
        assert!(bad.validate().is_err());
        bad = WorkloadSpec::named("zipf-read").unwrap();
        bad.sampling = Sampling::Zipf { exponent: -1.0 };
        assert!(bad.validate().is_err());
        bad = WorkloadSpec::named("uniform-read").unwrap();
        bad.nodes_per_read = 0;
        assert!(bad.validate().is_err());
    }

    #[test]
    fn zipf_ranks_are_in_bounds_and_skewed() {
        let mut rng = StdRng::seed_from_u64(5);
        let n = 1000u32;
        let mut counts = vec![0u64; n as usize];
        for _ in 0..60_000 {
            let r = zipf_rank(1.0, n, &mut rng);
            assert!(r < n);
            counts[r as usize] += 1;
        }
        // P(0)/P(1) = 2^s = 2 for s = 1; allow sampling noise.
        let ratio = counts[0] as f64 / counts[1].max(1) as f64;
        assert!((1.6..=2.5).contains(&ratio), "rank0/rank1 ratio {ratio}");
        // Monotone-ish decay across decades.
        assert!(counts[0] > counts[9] && counts[9] > counts[99]);
        // The head dominates: top 1% of ranks draws well over 10× its
        // uniform share.
        let head: u64 = counts[..10].iter().sum();
        assert!(head > 6_000, "head count {head}");
    }

    #[test]
    fn zipf_handles_degenerate_populations_and_exponents() {
        let mut rng = StdRng::seed_from_u64(6);
        assert_eq!(zipf_rank(1.1, 1, &mut rng), 0);
        for _ in 0..200 {
            assert!(zipf_rank(0.5, 7, &mut rng) < 7);
            assert!(zipf_rank(1.0, 7, &mut rng) < 7);
            assert!(zipf_rank(2.5, 7, &mut rng) < 7);
        }
        // Strong skew pins nearly everything to rank 0.
        let zeros = (0..500)
            .filter(|_| zipf_rank(4.0, 100, &mut rng) == 0)
            .count();
        assert!(zeros > 400, "{zeros}");
    }

    #[test]
    fn sampler_is_deterministic_per_seed_and_respects_mix() {
        let spec = WorkloadSpec::named("mixed-mutation").unwrap();
        let mut a = WorkloadSampler::new(spec.clone(), 42);
        let mut b = WorkloadSampler::new(spec.clone(), 42);
        let mut c = WorkloadSampler::new(spec.clone(), 43);
        let ops_a: Vec<Op> = (0..50).map(|_| a.next_op(100, 4)).collect();
        let ops_b: Vec<Op> = (0..50).map(|_| b.next_op(100, 4)).collect();
        let ops_c: Vec<Op> = (0..50).map(|_| c.next_op(100, 4)).collect();
        assert_eq!(ops_a, ops_b, "same seed, same stream");
        assert_ne!(ops_a, ops_c, "different seed, different stream");

        let mut sampler = WorkloadSampler::new(spec, 7);
        let (mut reads, mut ingests, mut edges) = (0usize, 0usize, 0usize);
        for _ in 0..600 {
            match sampler.next_op(200, 4) {
                Op::Infer { nodes } => {
                    assert_eq!(nodes.len(), 2);
                    assert!(nodes.iter().all(|&v| v < 200));
                    reads += 1;
                }
                Op::Ingest {
                    features,
                    neighbors,
                } => {
                    assert_eq!(features.len(), 4);
                    assert!(features.iter().all(|x| x.is_finite()));
                    assert!(neighbors.iter().all(|&v| v < 200));
                    ingests += 1;
                }
                Op::ObserveEdge { u, v } => {
                    assert!(u != v && u < 200 && v < 200);
                    edges += 1;
                }
            }
        }
        // 67% reads, 30% of the rest edges — generous statistical bands.
        assert!((330..=470).contains(&reads), "reads {reads}");
        assert!(edges > 20, "edges {edges}");
        assert!(ingests > 80, "ingests {ingests}");
    }

    #[test]
    fn zipf_read_workload_is_hub_heavy() {
        let mut sampler = WorkloadSampler::new(WorkloadSpec::named("zipf-read").unwrap(), 11);
        let mut head = 0usize;
        let mut total = 0usize;
        for _ in 0..300 {
            if let Op::Infer { nodes } = sampler.next_op(1000, 4) {
                for v in nodes {
                    total += 1;
                    head += usize::from(v < 10);
                }
            }
        }
        assert_eq!(total, 600, "zipf-read is read-only");
        assert!(
            head * 4 > total,
            "top-1% ids drew {head} of {total} samples"
        );
    }

    #[test]
    fn tiny_population_degrades_edges_to_ingests() {
        let mut spec = WorkloadSpec::named("mixed-mutation").unwrap();
        spec.read_fraction = 0.0;
        spec.edge_fraction = 1.0;
        let mut sampler = WorkloadSampler::new(spec, 3);
        for _ in 0..50 {
            match sampler.next_op(1, 4) {
                Op::Ingest { .. } => {}
                other => panic!("population 1 cannot host an edge: {other:?}"),
            }
        }
    }
}
