//! Scenario-matrix engine agreement (ISSUE 5 satellite): for every
//! topology the scenario matrix can generate, the streaming engine and
//! the batch (static) engine must produce the same predictions and
//! depth histograms under the same NAP mode.
//!
//! Reuses the oracle pattern of `tests/replica_convergence.rs`: a
//! deterministic classifier factory yields bit-identical weights for
//! both engines, so any disagreement is an engine defect, not a
//! training artifact. Fixed-depth and upper-bound modes share the
//! propagation arithmetic exactly and must match bit-for-bit (λ₂ is
//! handed to the streaming engine, as the serving layer does).
//! Distance mode compares against the stationary state, which the two
//! engines compute by different algorithms (incremental f64
//! accumulators vs. per-component direct form, equal only to ~1e-4 —
//! see `nai-stream`'s `static_nodes_match_core_engine_across_nap_modes`),
//! so a near-threshold node may exit at a different layer; such flips
//! must be rare (≤ 2%) and must always come with a depth flip. The two
//! stationary algorithms are only comparable at all on *connected*
//! graphs (the static form normalizes per component, the incremental
//! form globally — the precedent set by
//! `flushed_arrivals_match_static_engine_on_final_graph`), so the
//! distance comparison runs on the matrix's connected topologies
//! (hub-star and small-world are connected by construction) and the
//! test asserts it actually ran.

use nai::core::config::{InferenceConfig, NapMode};
use nai::core::inference::NaiEngine;
use nai::core::stationary::StationaryState;
use nai::datasets::{Scale, TopologySpec};
use nai::graph::{normalized_adjacency, Convolution};
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
    let mut distance_runs = 0usize;
    for spec in TopologySpec::matrix(Scale::Test) {
        let scenario = spec.build();
        let g = &scenario.graph;
        let connected = nai::graph::components::connected_components(&g.adj).count == 1;
        let static_engine = NaiEngine::new(
            g,
            normalized_adjacency(&g.adj, Convolution::Symmetric),
            StationaryState::compute(&g.adj, &g.features, 0.5),
            classifiers(g.feature_dim(), g.num_classes),
            None,
        );
        // λ₂ handed over (the shard hand-off path), so upper-bound depth
        // assignment is a shared deterministic function of degree.
        let mut streaming = StreamingEngine::with_lambda2(
            DynamicGraph::from_graph(g),
            classifiers(g.feature_dim(), g.num_classes),
            None,
            0.5,
            static_engine.lambda2(),
        );
        let nodes = &scenario.split.test;

        for cfg in [
            InferenceConfig::fixed(K),
            InferenceConfig::upper_bound(0.5, 1, K),
            InferenceConfig::distance(0.4, 1, K),
        ] {
            if matches!(cfg.nap, NapMode::Distance { .. }) && !connected {
                continue; // stationary states not comparable (see header)
            }
            let stat = static_engine.infer(nodes, &g.labels, &cfg);
            let stream = streaming.infer_nodes(nodes, &cfg);
            let (preds, depths): (Vec<usize>, Vec<usize>) = stream.into_iter().unzip();
            assert_eq!(stat.predictions.len(), preds.len());

            // The static report's histogram is indexed by depth−1;
            // `depth_histogram` indexes by depth.
            let mut report_hist = vec![0u64; 1];
            report_hist.extend(stat.report.depth_histogram.iter().map(|&c| c as u64));
            let stream_hist = depth_histogram(&depths);

            if !matches!(cfg.nap, NapMode::Distance { .. }) {
                assert_eq!(
                    stat.predictions, preds,
                    "[{}] {:?}: predictions must be bit-equal",
                    spec.name, cfg.nap
                );
                assert_eq!(stat.depths, depths, "[{}] {:?}", spec.name, cfg.nap);
                assert_eq!(report_hist, stream_hist, "[{}] {:?}", spec.name, cfg.nap);
                continue;
            }

            // Distance mode: allow rare threshold flips, each with the
            // depth-flip signature; histograms then differ by at most
            // one move per flipped node.
            distance_runs += 1;
            let mut flips = 0usize;
            for i in 0..preds.len() {
                if stat.predictions[i] == preds[i] && stat.depths[i] == depths[i] {
                    continue;
                }
                assert_ne!(
                    stat.depths[i], depths[i],
                    "[{}] node {i} disagrees without a depth flip",
                    spec.name
                );
                flips += 1;
            }
            let budget = preds.len().div_ceil(50); // ≤ 2%
            assert!(
                flips <= budget,
                "[{}] {flips} threshold flips out of {} (budget {budget})",
                spec.name,
                preds.len()
            );
            let l1: u64 = report_hist
                .iter()
                .zip(&stream_hist)
                .map(|(&a, &b)| a.abs_diff(b))
                .sum();
            assert!(
                l1 as usize <= 2 * flips,
                "[{}] histogram drift {l1} exceeds flip budget: {report_hist:?} vs {stream_hist:?}",
                spec.name
            );
        }
    }
    assert!(
        distance_runs >= 2,
        "the matrix must keep ≥ 2 connected topologies so distance-mode \
         agreement is actually exercised (got {distance_runs})"
    );
}
