//! Dataset registry: deterministic synthetic proxies for the paper's three
//! benchmarks (Table II).
//!
//! The real datasets (Flickr, Ogbn-arxiv, Ogbn-products) are unavailable
//! offline; each proxy is generated by the degree-corrected SBM of
//! `nai-graph::generators` with **matched shape statistics** — average
//! degree, class count (scaled), feature dimension (scaled), and split
//! fractions — at roughly 1/15 to 1/150 of the original node counts. The
//! phenomena NAI's evaluation depends on (neighbor explosion, heavy-tailed
//! degrees, propagation-improves-accuracy) are preserved.
//!
//! Every proxy is deterministic given its `DatasetId` and [`Scale`], so
//! numbers measured on it are reproducible (ARCHITECTURE.md, "Scenario
//! topologies and workloads").

use nai_graph::generators::GeneratorConfig;
use nai_graph::{Graph, InductiveSplit};

mod topology;

pub use topology::{Scenario, TopologyKind, TopologySpec};

/// The three evaluation datasets of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DatasetId {
    /// Image network (Zeng et al.) — 89k nodes, 900k edges, 500 features,
    /// 7 classes.
    FlickrProxy,
    /// Citation network (OGB) — 169k nodes, 1.17M edges, 128 features,
    /// 40 classes.
    ArxivProxy,
    /// Co-purchase network (OGB) — 2.45M nodes, 123.7M edges, 100
    /// features, 47 classes; 90% of nodes are test (unseen).
    ProductsProxy,
}

impl DatasetId {
    /// All three, in paper order.
    pub fn all() -> [DatasetId; 3] {
        [
            DatasetId::FlickrProxy,
            DatasetId::ArxivProxy,
            DatasetId::ProductsProxy,
        ]
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            DatasetId::FlickrProxy => "Flickr(proxy)",
            DatasetId::ArxivProxy => "Ogbn-arxiv(proxy)",
            DatasetId::ProductsProxy => "Ogbn-products(proxy)",
        }
    }
}

/// Proxy size: `Test` for unit/integration tests, `Bench` for the
/// table/figure harness.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Small: hundreds of nodes, sub-second pipelines.
    Test,
    /// Benchmark default: thousands of nodes.
    Bench,
}

/// Reference statistics of the real dataset (Table II), printed next to
/// measured proxy numbers by the bench harness.
#[derive(Debug, Clone, Copy)]
pub struct PaperStats {
    /// Dataset name as in the paper.
    pub name: &'static str,
    /// Nodes.
    pub n: u64,
    /// Edges.
    pub m: u64,
    /// Feature dim.
    pub f: u32,
    /// Classes.
    pub c: u32,
    /// Train/val/test counts.
    pub split: (u64, u64, u64),
    /// Best propagation depth `k` for SGC (Table III).
    pub k_sgc: usize,
}

/// A loaded dataset proxy.
pub struct Dataset {
    /// Which benchmark this proxies.
    pub id: DatasetId,
    /// The generated graph.
    pub graph: Graph,
    /// Inductive split with paper-matched fractions.
    pub split: InductiveSplit,
    /// The real dataset's statistics for side-by-side reporting.
    pub paper: PaperStats,
}

/// Table II reference rows.
pub fn paper_stats(id: DatasetId) -> PaperStats {
    match id {
        DatasetId::FlickrProxy => PaperStats {
            name: "Flickr",
            n: 89_250,
            m: 899_756,
            f: 500,
            c: 7,
            split: (44_000, 22_000, 22_000),
            k_sgc: 7,
        },
        DatasetId::ArxivProxy => PaperStats {
            name: "Ogbn-arxiv",
            n: 169_343,
            m: 1_166_243,
            f: 128,
            c: 40,
            split: (91_000, 30_000, 48_000),
            k_sgc: 5,
        },
        DatasetId::ProductsProxy => PaperStats {
            name: "Ogbn-products",
            n: 2_449_029,
            m: 123_718_280,
            f: 100,
            c: 47,
            split: (196_000, 39_000, 2_213_000),
            k_sgc: 5,
        },
    }
}

/// Generator configuration of a proxy at a scale.
pub fn generator_config(id: DatasetId, scale: Scale) -> GeneratorConfig {
    let (num_nodes, feature_dim) = match (id, scale) {
        (DatasetId::FlickrProxy, Scale::Test) => (500, 24),
        (DatasetId::FlickrProxy, Scale::Bench) => (6_000, 96),
        (DatasetId::ArxivProxy, Scale::Test) => (600, 16),
        (DatasetId::ArxivProxy, Scale::Bench) => (8_000, 64),
        (DatasetId::ProductsProxy, Scale::Test) => (800, 16),
        (DatasetId::ProductsProxy, Scale::Bench) => (16_000, 64),
    };
    match id {
        // Flickr: avg degree ≈ 20, 7 classes, moderate homophily (image
        // graph; SGC gets only ~50% there).
        DatasetId::FlickrProxy => GeneratorConfig {
            num_nodes,
            num_classes: 7,
            avg_degree: 20.0,
            power_law_exponent: 2.4,
            homophily: 0.55,
            feature_dim,
            feature_noise: 3.0,
        },
        // Arxiv: avg degree ≈ 13.8, many classes, strong homophily.
        DatasetId::ArxivProxy => GeneratorConfig {
            num_nodes,
            num_classes: 12,
            avg_degree: 13.8,
            power_law_exponent: 2.6,
            homophily: 0.8,
            feature_dim,
            feature_noise: 2.5,
        },
        // Products: very dense (paper ≈ 101; scaled to keep bench runtime
        // sane while staying the densest of the three), heavy tail.
        DatasetId::ProductsProxy => GeneratorConfig {
            num_nodes,
            num_classes: 10,
            avg_degree: 50.0,
            power_law_exponent: 2.2,
            homophily: 0.8,
            feature_dim,
            feature_noise: 2.5,
        },
    }
}

/// Split fractions `(train, val)` matching Table II; the remainder tests.
pub fn split_fractions(id: DatasetId) -> (f64, f64) {
    match id {
        DatasetId::FlickrProxy => (0.50, 0.25),    // 44k/22k/22k
        DatasetId::ArxivProxy => (0.54, 0.18),     // 91k/30k/48k
        DatasetId::ProductsProxy => (0.08, 0.016), // 196k/39k/2213k
    }
}

/// Deterministic generation seed per dataset.
fn seed_of(id: DatasetId) -> u64 {
    match id {
        DatasetId::FlickrProxy => 0xF11C4,
        DatasetId::ArxivProxy => 0xA48C1,
        DatasetId::ProductsProxy => 0x9406C,
    }
}

/// The [`TopologySpec`] a proxy dataset is built from — the paper
/// proxies are ordinary SBM scenarios, so they share one build path
/// with the scenario matrix.
pub fn dataset_spec(id: DatasetId, scale: Scale) -> TopologySpec {
    let (tf, vf) = split_fractions(id);
    TopologySpec::from_generator_config(
        id.name(),
        &generator_config(id, scale),
        tf,
        vf,
        seed_of(id),
    )
}

/// Loads (generates) a dataset proxy.
pub fn load(id: DatasetId, scale: Scale) -> Dataset {
    let scenario = dataset_spec(id, scale).build();
    Dataset {
        id,
        graph: scenario.graph,
        split: scenario.split,
        paper: paper_stats(id),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_proxies_load_at_test_scale() {
        for id in DatasetId::all() {
            let ds = load(id, Scale::Test);
            assert!(ds.graph.num_nodes() >= 500, "{id:?}");
            assert_eq!(
                ds.graph.num_classes,
                generator_config(id, Scale::Test).num_classes
            );
            ds.split.validate(ds.graph.num_nodes()).unwrap();
        }
    }

    #[test]
    fn proxies_are_deterministic() {
        let a = load(DatasetId::FlickrProxy, Scale::Test);
        let b = load(DatasetId::FlickrProxy, Scale::Test);
        assert_eq!(a.graph.labels, b.graph.labels);
        assert_eq!(a.graph.adj.indices(), b.graph.adj.indices());
        assert_eq!(a.split.test, b.split.test);
    }

    #[test]
    fn degree_ordering_matches_paper() {
        // Products is the densest, arxiv the sparsest of the three — the
        // ordering that drives Table V's "NAI wins more at scale".
        let avg = |id| {
            let ds = load(id, Scale::Test);
            2.0 * ds.graph.num_edges() as f64 / ds.graph.num_nodes() as f64
        };
        let flickr = avg(DatasetId::FlickrProxy);
        let arxiv = avg(DatasetId::ArxivProxy);
        let products = avg(DatasetId::ProductsProxy);
        assert!(products > flickr, "products {products} vs flickr {flickr}");
        assert!(flickr > arxiv, "flickr {flickr} vs arxiv {arxiv}");
    }

    #[test]
    fn products_split_is_test_dominated() {
        let ds = load(DatasetId::ProductsProxy, Scale::Test);
        let n = ds.graph.num_nodes();
        assert!(
            ds.split.test.len() as f64 / n as f64 > 0.85,
            "products proxy must be ~90% unseen nodes"
        );
    }

    #[test]
    fn paper_stats_match_table2() {
        let p = paper_stats(DatasetId::ProductsProxy);
        assert_eq!(p.n, 2_449_029);
        assert_eq!(p.c, 47);
        assert_eq!(p.k_sgc, 5);
        assert_eq!(paper_stats(DatasetId::FlickrProxy).k_sgc, 7);
    }

    #[test]
    fn bench_scale_is_larger_than_test_scale() {
        for id in DatasetId::all() {
            let t = generator_config(id, Scale::Test);
            let b = generator_config(id, Scale::Bench);
            assert!(b.num_nodes > t.num_nodes);
            assert!(b.feature_dim > t.feature_dim);
            assert_eq!(b.num_classes, t.num_classes);
        }
    }
}
