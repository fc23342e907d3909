//! Property tests for checkpoint serialization and evaluation metrics.

use nai_core::checkpoint::ModelCheckpoint;
use nai_core::eval::{expected_calibration_error, ConfusionMatrix};
use nai_core::gates::GateSet;
use nai_core::inference::NaiEngine;
use nai_graph::generators::{generate, GeneratorConfig};
use nai_graph::DynamicGraph;
use nai_linalg::DenseMatrix;
use nai_models::{DepthClassifier, ModelKind};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn kind_strategy() -> impl Strategy<Value = ModelKind> {
    prop_oneof![
        Just(ModelKind::Sgc),
        Just(ModelKind::Sign),
        Just(ModelKind::S2gc),
        Just(ModelKind::Gamlp),
    ]
}

/// Builds an untrained engine with an arbitrary architecture — checkpoints
/// must roundtrip regardless of training state.
fn engine_of(
    kind: ModelKind,
    k: usize,
    f: usize,
    c: usize,
    hidden: &[usize],
    gates: bool,
    seed: u64,
) -> NaiEngine {
    let g = generate(
        &GeneratorConfig {
            num_nodes: 60,
            num_classes: c,
            feature_dim: f,
            avg_degree: 4.0,
            ..Default::default()
        },
        &mut StdRng::seed_from_u64(seed),
    );
    let mut rng = StdRng::seed_from_u64(seed ^ 0xF00D);
    let classifiers: Vec<DepthClassifier> = (1..=k)
        .map(|l| DepthClassifier::new(kind, l, f, c, hidden, 0.0, &mut rng))
        .collect();
    let gate_set = (gates && k >= 2).then(|| GateSet::new(f, k, &mut rng));
    NaiEngine::new(DynamicGraph::from_graph(&g), classifiers, gate_set, 0.5)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Checkpoints roundtrip bit-exactly through bytes for every base
    /// model, depth, width, and gate configuration.
    #[test]
    fn checkpoint_roundtrips_any_architecture(
        kind in kind_strategy(),
        k in 1usize..4,
        f in 2usize..8,
        c in 2usize..5,
        hidden in proptest::collection::vec(2usize..12, 0..3),
        gates in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let engine = engine_of(kind, k, f, c, &hidden, gates, seed);
        let ckpt = ModelCheckpoint::from_engine(&engine, 0.5);
        let bytes = ckpt.encode();
        let back = ModelCheckpoint::decode(&bytes).expect("roundtrip");
        prop_assert_eq!(back.kind, kind);
        prop_assert_eq!(back.k, k);
        prop_assert_eq!(back.feature_dim, f);
        prop_assert_eq!(back.num_classes, c);
        prop_assert_eq!(&back.hidden, &hidden);
        prop_assert_eq!(back.has_gates(), gates && k >= 2);
        // Rebuilt classifiers must agree with the originals on logits for
        // random inputs (weights restored exactly).
        let rebuilt = back.build_classifiers();
        let mut rng = StdRng::seed_from_u64(seed ^ 0xBEEF);
        for (orig, new) in engine.classifiers().iter().zip(&rebuilt) {
            let depth = orig.depth();
            let feats: Vec<DenseMatrix> = (0..=depth)
                .map(|_| DenseMatrix::from_fn(3, f, |_, _| {
                    use rand::Rng;
                    rng.gen_range(-1.0f32..1.0)
                }))
                .collect();
            let a = orig.forward(&feats);
            let b = new.forward(&feats);
            prop_assert_eq!(a.as_slice(), b.as_slice());
        }
        // Re-encoding the decoded checkpoint is byte-identical.
        let reencoded = back.encode();
        prop_assert_eq!(bytes.as_ref(), reencoded.as_ref());
    }

    /// Single-bit corruption anywhere in the payload is either detected
    /// as a decode error or produces a *structurally valid* checkpoint —
    /// never a panic.
    #[test]
    fn checkpoint_decode_never_panics_on_bitflips(
        seed in any::<u64>(),
        byte_pos in any::<prop::sample::Index>(),
        bit in 0u8..8,
    ) {
        let engine = engine_of(ModelKind::Sgc, 2, 4, 3, &[6], true, seed);
        let mut bytes = ModelCheckpoint::from_engine(&engine, 0.5).encode().to_vec();
        let pos = byte_pos.index(bytes.len());
        bytes[pos] ^= 1 << bit;
        // Must return (Ok or Err), not panic; a surviving Ok implies the
        // flip hit a weight byte, and the model must still rebuild.
        if let Ok(ckpt) = ModelCheckpoint::decode(&bytes) {
            let _ = ckpt.build_classifiers();
            let _ = ckpt.build_gates();
        }
    }

    /// Confusion-matrix identities on random prediction/label pairs:
    /// micro-F1 = accuracy (single-label), per-class support sums to the
    /// total, and macro-F1 ∈ [0, 1].
    #[test]
    fn confusion_matrix_identities(
        pairs in proptest::collection::vec((0usize..5, 0u32..5), 1..200),
    ) {
        let preds: Vec<usize> = pairs.iter().map(|&(p, _)| p).collect();
        let labels: Vec<u32> = pairs.iter().map(|&(_, y)| y).collect();
        let m = ConfusionMatrix::from_predictions(&preds, &labels, 5);
        let manual_acc = pairs.iter().filter(|&&(p, y)| p == y as usize).count() as f64
            / pairs.len() as f64;
        prop_assert!((m.accuracy() - manual_acc).abs() < 1e-12);
        prop_assert!((m.micro_f1() - manual_acc).abs() < 1e-12);
        let support: u64 = (0..5).map(|c| m.support(c)).sum();
        prop_assert_eq!(support, pairs.len() as u64);
        prop_assert!((0.0..=1.0).contains(&m.macro_f1()));
        for c in 0..5 {
            prop_assert!((0.0..=1.0).contains(&m.precision(c)));
            prop_assert!((0.0..=1.0).contains(&m.recall(c)));
        }
    }

    /// ECE is bounded in [0, 1] and zero for a one-hot oracle.
    #[test]
    fn ece_bounds(
        labels in proptest::collection::vec(0u32..4, 1..100),
        bins in 1usize..20,
    ) {
        // Oracle: probability 1 on the true class.
        let n = labels.len();
        let oracle = DenseMatrix::from_fn(n, 4, |i, j| {
            if j == labels[i] as usize { 1.0 } else { 0.0 }
        });
        prop_assert!(expected_calibration_error(&oracle, &labels, bins) < 1e-9);
        // Uniform predictor: confidence 1/4 everywhere; ECE stays bounded.
        let uniform = DenseMatrix::from_fn(n, 4, |_, _| 0.25);
        let ece = expected_calibration_error(&uniform, &labels, bins);
        prop_assert!((0.0..=1.0).contains(&ece));
    }
}
