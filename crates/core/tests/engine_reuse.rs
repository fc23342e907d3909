//! One `NaiEngine` answers many calls from its pooled scratch. Every
//! answer must equal a freshly deployed engine's, whatever ran before on
//! the shared one: calls with other depths and batch sizes, threaded
//! calls, propagate-only calls, and calls that panicked part-way.

use nai_core::config::{InferenceConfig, NapMode};
use nai_core::gates::GateSet;
use nai_core::inference::{InferenceResult, NaiEngine};
use nai_graph::generators::{generate, GeneratorConfig};
use nai_graph::{DynamicGraph, Graph};
use nai_linalg::DenseMatrix;
use nai_models::{DepthClassifier, ModelKind};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::panic::{catch_unwind, AssertUnwindSafe};

const K: usize = 3;
const F: usize = 8;

fn graph() -> Graph {
    generate(
        &GeneratorConfig {
            num_nodes: 400,
            num_classes: 3,
            feature_dim: F,
            avg_degree: 6.0,
            ..Default::default()
        },
        &mut StdRng::seed_from_u64(5150),
    )
}

/// A deterministic deployment with untrained classifiers and gates: the
/// same seeds always give the same engine, so a second call is a fresh
/// deployment of the first.
fn deploy(g: &Graph) -> NaiEngine {
    let mut rng = StdRng::seed_from_u64(99);
    let classifiers = (1..=K)
        .map(|l| DepthClassifier::new(ModelKind::Sgc, l, F, 3, &[8], 0.0, &mut rng))
        .collect();
    let gates = GateSet::new(F, K, &mut rng);
    NaiEngine::new(DynamicGraph::from_graph(g), classifiers, Some(gates), 0.5)
}

fn assert_same(got: &InferenceResult, want: &InferenceResult, tag: &str) {
    assert_eq!(got.predictions, want.predictions, "predictions: {tag}");
    assert_eq!(got.depths, want.depths, "depths: {tag}");
    assert_eq!(got.report.macs, want.report.macs, "MACs: {tag}");
    assert_eq!(
        got.report.depth_histogram, want.report.depth_histogram,
        "histogram: {tag}"
    );
    assert_eq!(got.report.batches, want.report.batches, "batches: {tag}");
}

fn config(nap: NapMode, t_max: usize, batch_size: usize) -> InferenceConfig {
    InferenceConfig {
        t_min: if matches!(nap, NapMode::Fixed) {
            t_max
        } else {
            1
        },
        t_max,
        nap,
        batch_size,
        parallel_spmm: false,
    }
}

#[test]
fn pooled_engine_answers_like_a_fresh_one_across_shapes_and_modes() {
    let g = graph();
    let test: Vec<u32> = (0..400u32).step_by(3).collect();
    let shared = deploy(&g);
    let modes = [
        NapMode::Fixed,
        NapMode::Distance { ts: 0.6 },
        NapMode::Gate,
        NapMode::UpperBound { ts: 0.5 },
    ];
    let mut mixed_depths = false;
    for nap in modes {
        for (t_max, batch_size) in [(3, 1), (1, 7), (2, 500)] {
            let cfg = config(nap, t_max, batch_size);
            let tag = format!("{nap:?}, t_max {t_max}, batch {batch_size}");
            let want = deploy(&g).infer(&test, &g.labels, &cfg);
            mixed_depths |= want.depths.iter().any(|&d| d != want.depths[0]);

            assert_same(&shared.infer(&test, &g.labels, &cfg), &want, &tag);
            let par = shared.infer_parallel(&test, &g.labels, &cfg, 3);
            assert_same(&par, &want, &format!("{tag}, 3 threads"));
            // A propagate-only call in between draws from the same pool.
            let (levels, _, _) = shared.propagate_only(&test[..5], t_max);
            assert_eq!(levels.len(), t_max + 1);
            assert_same(&shared.infer(&test, &g.labels, &cfg), &want, &tag);
        }
    }
    assert!(mixed_depths, "some config must exit nodes early");
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_default()
}

#[test]
fn out_of_range_id_panics_and_the_engine_recovers() {
    let g = graph();
    let test: Vec<u32> = (0..400u32).step_by(7).collect();
    let cfg = config(NapMode::Distance { ts: 0.6 }, 3, 9);
    let shared = deploy(&g);
    let want = deploy(&g).infer(&test, &g.labels, &cfg);
    assert_same(&shared.infer(&test, &g.labels, &cfg), &want, "warm-up");

    let bad = [3u32, 400, 5];
    let err = catch_unwind(AssertUnwindSafe(|| shared.infer(&bad, &g.labels, &cfg)))
        .expect_err("an out-of-range id must panic");
    let msg = panic_message(err);
    assert!(
        msg.contains("node 400 out of range"),
        "panic message: {msg:?}"
    );
    let err = catch_unwind(AssertUnwindSafe(|| shared.propagate_only(&bad, 2)))
        .expect_err("propagate-only checks ids too");
    assert!(panic_message(err).contains("out of range"));

    assert_same(
        &shared.infer(&test, &g.labels, &cfg),
        &want,
        "after the panic",
    );
}

#[test]
fn panic_inside_a_head_leaves_no_stale_state_behind() {
    // A head that panics past depth 1 unwinds out of the kernel with the
    // column map stamped for that depth's support; that scratch must not
    // serve a later call.
    let g = graph();
    let test: Vec<u32> = (0..400u32).step_by(5).collect();
    let cfg = config(NapMode::Distance { ts: 0.6 }, 3, 11);
    let shared = deploy(&g);
    let want = deploy(&g).infer(&test, &g.labels, &cfg);
    assert_same(&shared.infer(&test, &g.labels, &cfg), &want, "warm-up");

    let exploding = |l: usize, feats: &[DenseMatrix]| -> DenseMatrix {
        assert!(l < 2, "head exploded at depth {l}");
        shared.classifier(l).forward(feats)
    };
    let err = catch_unwind(AssertUnwindSafe(|| {
        shared.infer_with_heads(&test, &g.labels, &cfg, &exploding, &|_| 0)
    }))
    .expect_err("the head must panic past depth 1");
    assert!(panic_message(err).contains("head exploded at depth"));

    for threads in [1, 3] {
        let got = shared.infer_parallel(&test, &g.labels, &cfg, threads);
        assert_same(&got, &want, &format!("after the panic, {threads} threads"));
    }
}
