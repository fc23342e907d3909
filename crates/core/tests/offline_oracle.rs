//! Oracle: the engine propagates exactly the features the classifiers
//! were trained on, under every convolution.
//!
//! Training propagates offline, `propagate_features` over the CSR
//! `Â = normalized_adjacency(adj, conv)`; a deployment gathers each row of
//! `Â` from its graph store and per-node factors, for whatever γ its
//! checkpoint carries. For every `Convolution` variant, on a generated
//! graph with isolated nodes, `NaiEngine::propagate_only(nodes, 3)` must
//! reproduce the offline rows of `nodes` bit for bit.

use nai_core::inference::NaiEngine;
use nai_graph::generators::{generate, GeneratorConfig};
use nai_graph::{normalized_adjacency, Convolution, DynamicGraph, Graph};
use nai_linalg::DenseMatrix;
use nai_models::{propagate_features, DepthClassifier, ModelKind};
use rand::rngs::StdRng;
use rand::SeedableRng;

const DEPTH: usize = 3;
const F: usize = 6;

/// A generated graph plus three neighbourless arrivals, materialized.
fn graph() -> Graph {
    let seed = generate(
        &GeneratorConfig {
            num_nodes: 180,
            num_classes: 3,
            feature_dim: F,
            avg_degree: 5.0,
            ..Default::default()
        },
        &mut StdRng::seed_from_u64(808),
    );
    let mut grown = DynamicGraph::from_graph(&seed);
    for i in 0..3 {
        grown.add_node(&[0.25 * i as f32 - 0.4; F], &[]);
    }
    let labels = (0..grown.num_nodes() as u32).map(|v| v % 3).collect();
    grown.snapshot_graph(labels, 3)
}

fn bits(row: &[f32]) -> Vec<u32> {
    row.iter().map(|x| x.to_bits()).collect()
}

#[test]
fn propagate_only_is_bit_equal_to_offline_propagation_for_every_convolution() {
    let g = graph();
    let n = g.num_nodes() as u32;
    assert!(
        (0..g.num_nodes()).any(|v| g.adj.row_nnz(v) == 0),
        "the graph must hold an isolated node"
    );
    // Every node, in an order that is neither sorted nor contiguous, and
    // a small batch whose supports leave most of the graph out.
    let all: Vec<u32> = (0..n).map(|i| (i * 7 + 3) % n).collect();
    let few: Vec<u32> = vec![n - 1, 0, 42, n - 2, 17];
    let classifiers = || {
        let mut rng = StdRng::seed_from_u64(9);
        vec![DepthClassifier::new(
            ModelKind::Sgc,
            1,
            F,
            3,
            &[4],
            0.0,
            &mut rng,
        )]
    };
    for conv in [
        Convolution::Transition,
        Convolution::Symmetric,
        Convolution::ReverseTransition,
        Convolution::Gamma(0.3),
    ] {
        let offline = propagate_features(&normalized_adjacency(&g.adj, conv), &g.features, DEPTH);
        let engine = NaiEngine::new(
            DynamicGraph::from_graph(&g),
            classifiers(),
            None,
            conv.gamma(),
        );
        for nodes in [&all, &few] {
            let (online, _, _): (Vec<DenseMatrix>, _, _) = engine.propagate_only(nodes, DEPTH);
            assert_eq!(online.len(), DEPTH + 1);
            for (l, (got, want)) in online.iter().zip(&offline).enumerate() {
                for (r, &v) in nodes.iter().enumerate() {
                    assert_eq!(
                        bits(got.row(r)),
                        bits(want.row(v as usize)),
                        "{conv:?} depth {l} node {v}"
                    );
                }
            }
        }
    }
}
