//! Parameterized synthetic topology scenarios.
//!
//! The paper's evaluation (§V) shows NAI's win depends on *graph
//! shape*: skewed-degree graphs let high-degree nodes exit after one or
//! two hops, homophilous graphs make propagation denoise features,
//! hub-heavy graphs concentrate read traffic on nodes that are cheap to
//! serve. [`TopologySpec`] makes that axis explicit: one seeded,
//! deterministic recipe per topology family, all funneled through the
//! same attributed-graph machinery as the paper-proxy datasets
//! ([`crate::load`] itself builds its SBM proxies through a
//! [`TopologySpec`]), so tests can sweep every topology with no
//! per-family special cases.

use crate::Scale;
use nai_graph::generators::{
    attributed, generate, hub_star_edges, rmat_edges, small_world_edges, GeneratorConfig,
};
use nai_graph::{Graph, InductiveSplit};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The topology family of a scenario: which edge-generation process
/// shapes the graph.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TopologyKind {
    /// Degree-corrected stochastic block model (the paper-proxy
    /// machinery) with an explicit homophily knob: `homophily` close to
    /// 1 makes propagation denoise features, close to 0 makes it
    /// *mix* classes (the heterophilous regime of "Rethinking
    /// Node-wise Propagation").
    Sbm {
        /// Probability an edge stays inside its source's class.
        homophily: f64,
        /// Pareto exponent of the degree weights.
        power_law_exponent: f64,
    },
    /// R-MAT recursive-matrix power-law graph (quadrant probabilities
    /// `(a, b, c)`, fourth implied): the classic skewed-degree shape.
    PowerLaw {
        /// Top-left quadrant probability (skew strength).
        a: f64,
        /// Top-right quadrant probability.
        b: f64,
        /// Bottom-left quadrant probability.
        c: f64,
    },
    /// Watts–Strogatz ring lattice with rewiring probability `rewire`:
    /// near-homogeneous degrees, the anti-adaptive worst case.
    SmallWorld {
        /// Probability each lattice edge is rewired to a random node.
        rewire: f64,
    },
    /// A few extreme hubs absorb almost every edge; `hubs` is the hub
    /// count (node ids `0..hubs`, hub 0 hottest).
    HubStar {
        /// Number of hub nodes.
        hubs: usize,
    },
}

/// A fully parameterized, seeded scenario topology. Building the same
/// spec twice yields bit-identical graphs and splits.
#[derive(Debug, Clone, PartialEq)]
pub struct TopologySpec {
    /// Cell label in bench reports (e.g. `"power-law"`).
    pub name: String,
    /// Edge-generation family and its knobs.
    pub kind: TopologyKind,
    /// Number of nodes `n`.
    pub num_nodes: usize,
    /// Number of classes `c`.
    pub num_classes: usize,
    /// Target average degree `2m / n`.
    pub avg_degree: f64,
    /// Feature dimensionality `f`.
    pub feature_dim: usize,
    /// Per-node feature noise (see [`GeneratorConfig::feature_noise`]).
    pub feature_noise: f32,
    /// Inductive-split train fraction.
    pub train_frac: f64,
    /// Inductive-split validation fraction.
    pub val_frac: f64,
    /// Master generation seed.
    pub seed: u64,
}

/// A built scenario: the attributed graph plus its inductive split.
pub struct Scenario {
    /// The spec's cell label.
    pub name: String,
    /// The generated graph.
    pub graph: Graph,
    /// Inductive split (train/val/test) over the graph's nodes.
    pub split: InductiveSplit,
}

impl TopologySpec {
    /// Scenario sizing per scale: `(num_nodes, feature_dim)`.
    fn scale_shape(scale: Scale) -> (usize, usize) {
        match scale {
            Scale::Test => (500, 12),
            Scale::Bench => (8_000, 48),
        }
    }

    /// The named scenario topology at a scale.
    ///
    /// # Errors
    /// Returns the list of known names when `name` is unknown.
    pub fn named(name: &str, scale: Scale) -> Result<TopologySpec, String> {
        let (num_nodes, feature_dim) = Self::scale_shape(scale);
        let base = |name: &str, kind, seed| TopologySpec {
            name: name.to_string(),
            kind,
            num_nodes,
            num_classes: 5,
            avg_degree: 8.0,
            feature_dim,
            feature_noise: 2.0,
            train_frac: 0.5,
            val_frac: 0.2,
            seed,
        };
        match name {
            "power-law" => Ok(base(
                name,
                TopologyKind::PowerLaw {
                    a: 0.57,
                    b: 0.19,
                    c: 0.19,
                },
                0x9077A,
            )),
            "sbm-homophilous" => Ok(base(
                name,
                TopologyKind::Sbm {
                    homophily: 0.85,
                    power_law_exponent: 2.5,
                },
                0x58311,
            )),
            "sbm-heterophilous" => Ok(base(
                name,
                TopologyKind::Sbm {
                    homophily: 0.15,
                    power_law_exponent: 2.5,
                },
                0x58312,
            )),
            "small-world" => Ok(base(
                name,
                TopologyKind::SmallWorld { rewire: 0.1 },
                0x53A11,
            )),
            "hub-star" => Ok(base(
                name,
                TopologyKind::HubStar {
                    hubs: (num_nodes / 100).max(3),
                },
                0x40B57,
            )),
            other => Err(format!(
                "unknown topology `{other}` (expected power-law | sbm-homophilous | \
                 sbm-heterophilous | small-world | hub-star)"
            )),
        }
    }

    /// The default scenario matrix: one spec per topology family, in
    /// bench-report order.
    pub fn matrix(scale: Scale) -> Vec<TopologySpec> {
        [
            "power-law",
            "sbm-homophilous",
            "sbm-heterophilous",
            "small-world",
            "hub-star",
        ]
        .iter()
        .map(|n| Self::named(n, scale).expect("matrix names are known"))
        .collect()
    }

    /// Wraps an existing [`GeneratorConfig`] (the paper-proxy
    /// machinery) as an SBM scenario — [`crate::load`] routes through
    /// this, so the proxies and the scenario matrix share one build
    /// path.
    pub fn from_generator_config(
        name: &str,
        cfg: &GeneratorConfig,
        train_frac: f64,
        val_frac: f64,
        seed: u64,
    ) -> TopologySpec {
        TopologySpec {
            name: name.to_string(),
            kind: TopologyKind::Sbm {
                homophily: cfg.homophily,
                power_law_exponent: cfg.power_law_exponent,
            },
            num_nodes: cfg.num_nodes,
            num_classes: cfg.num_classes,
            avg_degree: cfg.avg_degree,
            feature_dim: cfg.feature_dim,
            feature_noise: cfg.feature_noise,
            train_frac,
            val_frac,
            seed,
        }
    }

    /// The undirected-edge budget this spec aims for. Small-world
    /// realizes `n · k_per_side` lattice edges (its own exact shape);
    /// everything else targets `n · avg_degree / 2`.
    pub fn edge_target(&self) -> usize {
        match self.kind {
            TopologyKind::SmallWorld { .. } => self.num_nodes * self.k_per_side(),
            _ => ((self.num_nodes as f64 * self.avg_degree) / 2.0).round() as usize,
        }
    }

    /// Lattice half-width for the small-world family.
    fn k_per_side(&self) -> usize {
        ((self.avg_degree / 2.0).round() as usize).max(1)
    }

    /// Builds the scenario: deterministic for a fixed spec (same seed →
    /// bit-identical graph, features, labels, and split).
    ///
    /// # Panics
    /// Panics on degenerate shapes (fewer nodes than classes/hubs).
    pub fn build(&self) -> Scenario {
        let mut rng = StdRng::seed_from_u64(self.seed);
        // One source of truth with the proptest budget check: the arms
        // that take an explicit edge budget are exactly the arms where
        // `edge_target` is the `n · avg_degree / 2` form.
        let m_target = self.edge_target();
        let graph = match self.kind {
            TopologyKind::Sbm {
                homophily,
                power_law_exponent,
            } => generate(
                &GeneratorConfig {
                    num_nodes: self.num_nodes,
                    num_classes: self.num_classes,
                    avg_degree: self.avg_degree,
                    power_law_exponent,
                    homophily,
                    feature_dim: self.feature_dim,
                    feature_noise: self.feature_noise,
                },
                &mut rng,
            ),
            TopologyKind::PowerLaw { a, b, c } => {
                let edges = rmat_edges(self.num_nodes, m_target, (a, b, c), &mut rng);
                attributed(
                    self.num_nodes,
                    &edges,
                    self.num_classes,
                    self.feature_dim,
                    self.feature_noise,
                    &mut rng,
                )
            }
            TopologyKind::SmallWorld { rewire } => {
                let edges = small_world_edges(self.num_nodes, self.k_per_side(), rewire, &mut rng);
                attributed(
                    self.num_nodes,
                    &edges,
                    self.num_classes,
                    self.feature_dim,
                    self.feature_noise,
                    &mut rng,
                )
            }
            TopologyKind::HubStar { hubs } => {
                let edges = hub_star_edges(self.num_nodes, hubs, m_target, &mut rng);
                attributed(
                    self.num_nodes,
                    &edges,
                    self.num_classes,
                    self.feature_dim,
                    self.feature_noise,
                    &mut rng,
                )
            }
        };
        let split = InductiveSplit::random(
            graph.num_nodes(),
            self.train_frac,
            self.val_frac,
            &mut StdRng::seed_from_u64(self.seed ^ 0x5147),
        );
        Scenario {
            name: self.name.clone(),
            graph,
            split,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_covers_every_family_with_distinct_names() {
        let matrix = TopologySpec::matrix(Scale::Test);
        assert!(matrix.len() >= 4, "bench needs ≥ 4 topologies");
        let names: std::collections::HashSet<&str> =
            matrix.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names.len(), matrix.len(), "names must be unique");
        for spec in &matrix {
            assert_eq!(TopologySpec::named(&spec.name, Scale::Test).unwrap(), *spec);
        }
        assert!(TopologySpec::named("torus", Scale::Test).is_err());
    }

    #[test]
    fn build_is_deterministic_and_split_is_valid() {
        for spec in TopologySpec::matrix(Scale::Test) {
            let a = spec.build();
            let b = spec.build();
            assert_eq!(a.graph.labels, b.graph.labels, "{}", spec.name);
            assert_eq!(
                a.graph.adj.indices(),
                b.graph.adj.indices(),
                "{}",
                spec.name
            );
            assert_eq!(
                a.graph.features.as_slice(),
                b.graph.features.as_slice(),
                "{}",
                spec.name
            );
            assert_eq!(a.split.test, b.split.test, "{}", spec.name);
            a.split.validate(a.graph.num_nodes()).unwrap();
            assert_eq!(a.graph.num_nodes(), spec.num_nodes);
        }
    }

    #[test]
    fn families_realize_their_shapes() {
        let get = |name: &str| TopologySpec::named(name, Scale::Test).unwrap().build();
        // Hub-star: hottest node degree is an order of magnitude above
        // the mean; small-world: max degree stays near the mean.
        let hub = get("hub-star");
        let sw = get("small-world");
        let max_deg =
            |g: &Graph| (0..g.num_nodes()).map(|i| g.adj.row_nnz(i)).max().unwrap() as f64;
        let mean_deg = |g: &Graph| 2.0 * g.num_edges() as f64 / g.num_nodes() as f64;
        assert!(max_deg(&hub.graph) > 10.0 * mean_deg(&hub.graph));
        assert!(max_deg(&sw.graph) < 3.0 * mean_deg(&sw.graph));
        // Homophily knob: intra-class edge fractions on opposite sides.
        let intra_frac = |g: &Graph| {
            let mut intra = 0usize;
            let mut total = 0usize;
            for i in 0..g.num_nodes() {
                for (j, _) in g.adj.row_iter(i) {
                    total += 1;
                    intra += usize::from(g.labels[i] == g.labels[j as usize]);
                }
            }
            intra as f64 / total as f64
        };
        assert!(intra_frac(&get("sbm-homophilous").graph) > 0.6);
        assert!(intra_frac(&get("sbm-heterophilous").graph) < 0.4);
    }
}
