//! Scenario-matrix engine agreement: for every topology the scenario
//! matrix can generate, connected or not, the streaming engine and the
//! batch (static) engine must give the same predictions, depths and
//! depth histograms, bit for bit, under fixed-depth, NAP_u and NAP_d.
//!
//! Reuses the oracle pattern of `tests/replica_convergence.rs`: a
//! deterministic classifier factory yields bit-identical weights for
//! both engines, so any disagreement is an engine defect, not a
//! training artifact. Both engines sum Eq. (1) in `Â`'s column order,
//! read one exact per-component stationary state
//! (`nai_core::stationary`) and estimate λ₂ by one function
//! (`nai_core::upper_bound::lambda2`), so nothing is handed from one
//! engine to the other.

use nai::core::config::InferenceConfig;
use nai::core::inference::NaiEngine;
use nai::datasets::{Scale, TopologySpec};
use nai::models::{DepthClassifier, ModelKind};
use nai::stream::{DynamicGraph, StreamingEngine};
use rand::rngs::StdRng;
use rand::SeedableRng;

const K: usize = 2;

/// Deterministic classifier factory: every call yields bit-identical
/// weights, so the static and streaming engines agree at boot.
fn classifiers(feature_dim: usize, classes: usize) -> Vec<DepthClassifier> {
    let mut rng = StdRng::seed_from_u64(0xA11CE);
    (1..=K)
        .map(|d| DepthClassifier::new(ModelKind::Sgc, d, feature_dim, classes, &[8], 0.0, &mut rng))
        .collect()
}

fn depth_histogram(depths: &[usize]) -> Vec<u64> {
    let mut hist = vec![0u64; K + 1];
    for &d in depths {
        hist[d] += 1;
    }
    hist
}

#[test]
fn streaming_and_batch_engines_agree_on_every_scenario_topology() {
    for spec in TopologySpec::matrix(Scale::Test) {
        let scenario = spec.build();
        let g = &scenario.graph;
        let static_engine = NaiEngine::new(
            DynamicGraph::from_graph(g),
            classifiers(g.feature_dim(), g.num_classes),
            None,
            0.5,
        );
        let mut streaming = StreamingEngine::new(
            DynamicGraph::from_graph(g),
            classifiers(g.feature_dim(), g.num_classes),
            None,
            0.5,
        );
        let nodes = &scenario.split.test;

        for cfg in [
            InferenceConfig::fixed(K),
            InferenceConfig::upper_bound(0.5, 1, K),
            InferenceConfig::distance(0.4, 1, K),
        ] {
            let stat = static_engine.infer(nodes, &g.labels, &cfg);
            let stream = streaming.infer_nodes(nodes, &cfg);
            let (preds, depths): (Vec<usize>, Vec<usize>) = stream.into_iter().unzip();
            // The static report's histogram is indexed by depth−1;
            // `depth_histogram` indexes by depth.
            let mut report_hist = vec![0u64; 1];
            report_hist.extend(stat.report.depth_histogram.iter().map(|&c| c as u64));
            assert_eq!(stat.predictions, preds, "[{}] {:?}", spec.name, cfg.nap);
            assert_eq!(stat.depths, depths, "[{}] {:?}", spec.name, cfg.nap);
            assert_eq!(
                report_hist,
                depth_histogram(&depths),
                "[{}] {:?}",
                spec.name,
                cfg.nap
            );
        }
    }
}
