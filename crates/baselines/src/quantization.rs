//! Quantization baseline: INT8 post-training quantization of the
//! classifier.
//!
//! Feature propagation stays in f32 at full fixed depth — quantization only
//! touches the classification stage, which is why the paper finds its
//! acceleration limited: on large graphs the propagation term `k·m·f`
//! dwarfs `n·f²`, so shrinking operand width in the classifier barely
//! moves total cost. Works with every base model: the model-specific
//! combination (concat / average / GAMLP attention) stays in f32 and only
//! the MLP head is quantized, mirroring PyTorch dynamic quantization of
//! `nn.Linear` parameters.

use crate::common::{make_run, BaselineRun};
use nai_core::inference::NaiEngine;
use nai_linalg::ops::argmax_rows;
use nai_nn::quant::QuantizedMlp;
use std::time::Instant;

/// INT8-quantized fixed-depth inference over a trained engine.
pub struct QuantizedModel {
    quantized_head: QuantizedMlp,
    depth: usize,
}

impl QuantizedModel {
    /// Quantizes the depth-`k` classifier head of a trained engine.
    pub fn from_engine(engine: &NaiEngine) -> Self {
        let depth = engine.k();
        let clf = engine.classifier(depth);
        Self {
            quantized_head: QuantizedMlp::from_mlp(&clf.mlp),
            depth,
        }
    }

    /// Fixed-depth inductive inference with the quantized head.
    pub fn infer(
        &self,
        engine: &NaiEngine,
        test_nodes: &[u32],
        labels: &[u32],
        batch_size: usize,
    ) -> BaselineRun {
        let start = Instant::now();
        let mut feature_time = std::time::Duration::ZERO;
        let mut macs = nai_core::macs::MacsBreakdown::default();
        let mut predictions = Vec::with_capacity(test_nodes.len());
        let mut batches = 0usize;
        let clf = engine.classifier(self.depth);
        for chunk in test_nodes.chunks(batch_size.max(1)) {
            batches += 1;
            let (history, prop_macs, fp) = engine.propagate_only(chunk, self.depth);
            macs.add(&prop_macs);
            feature_time += fp;
            let input = clf.combine_input(&history);
            macs.classification += chunk.len() as u64
                * (clf.combine_macs_per_node() + self.quantized_head.macs_per_row());
            let logits = self.quantized_head.forward(&input);
            predictions.extend(argmax_rows(&logits));
        }
        make_run(
            predictions,
            test_nodes,
            labels,
            macs,
            start.elapsed(),
            feature_time,
            batches,
        )
    }
}

/// Extension: **quantized adaptive** inference — NAI's personalized depths
/// combined with INT8 classifier heads at *every* exit depth.
///
/// The paper evaluates quantization only at fixed depth `k`; stacking it
/// on NAP is the natural composition of the two acceleration algorithms
/// (§V): propagation shrinks via early exits, classification via INT8.
/// Built on [`NaiEngine::infer_with_heads`], so propagation, NAP, and
/// frontier bookkeeping are byte-identical with the f32 engine — only the
/// exit classification differs.
pub struct QuantizedNai {
    heads: Vec<QuantizedMlp>,
}

impl QuantizedNai {
    /// Quantizes every per-depth classifier head of a trained engine.
    pub fn from_engine(engine: &NaiEngine) -> Self {
        let heads = engine
            .classifiers()
            .iter()
            .map(|c| QuantizedMlp::from_mlp(&c.mlp))
            .collect();
        Self { heads }
    }

    /// Adaptive inference with INT8 heads under any
    /// [`nai_core::config::InferenceConfig`].
    ///
    /// # Panics
    /// Same contract as [`NaiEngine::infer`].
    pub fn infer(
        &self,
        engine: &NaiEngine,
        test_nodes: &[u32],
        labels: &[u32],
        cfg: &nai_core::config::InferenceConfig,
    ) -> nai_core::inference::InferenceResult {
        engine.infer_with_heads(
            test_nodes,
            labels,
            cfg,
            &|l, feats| {
                let input = engine.classifier(l).combine_input(feats);
                self.heads[l - 1].forward(&input)
            },
            &|l| engine.classifier(l).combine_macs_per_node() + self.heads[l - 1].macs_per_row(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nai_core::config::{InferenceConfig, PipelineConfig};
    use nai_core::pipeline::NaiPipeline;
    use nai_graph::generators::{generate, GeneratorConfig};
    use nai_graph::InductiveSplit;
    use nai_models::ModelKind;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn check_kind(kind: ModelKind) {
        let g = generate(
            &GeneratorConfig {
                num_nodes: 300,
                num_classes: 3,
                feature_dim: 8,
                ..Default::default()
            },
            &mut StdRng::seed_from_u64(500),
        );
        let split = InductiveSplit::random(300, 0.5, 0.2, &mut StdRng::seed_from_u64(501));
        let cfg = PipelineConfig {
            k: 3,
            hidden: vec![16],
            epochs: 40,
            patience: 10,
            lr: 0.02,
            use_multi_scale: false,
            ..PipelineConfig::default()
        };
        let trained = NaiPipeline::new(kind, cfg).train(&g, &split, false);
        let vanilla = trained
            .engine
            .infer(&split.test, &g.labels, &InferenceConfig::fixed(3));
        let quant = QuantizedModel::from_engine(&trained.engine);
        let run = quant.infer(&trained.engine, &split.test, &g.labels, 500);
        assert!(
            (run.report.accuracy - vanilla.report.accuracy).abs() < 0.06,
            "{kind:?}: quantized {} vs f32 {}",
            run.report.accuracy,
            vanilla.report.accuracy
        );
        assert_eq!(
            run.report.macs.propagation, vanilla.report.macs.propagation,
            "{kind:?}: propagation MACs must match vanilla"
        );
    }

    #[test]
    fn quantized_sgc_close_to_f32_with_same_fp_macs() {
        check_kind(ModelKind::Sgc);
    }

    #[test]
    fn quantized_sign_close_to_f32() {
        check_kind(ModelKind::Sign);
    }

    #[test]
    fn quantized_gamlp_close_to_f32() {
        check_kind(ModelKind::Gamlp);
    }

    fn trained_sgc() -> (
        nai_graph::Graph,
        InductiveSplit,
        nai_core::pipeline::TrainedNai,
    ) {
        let g = generate(
            &GeneratorConfig {
                num_nodes: 300,
                num_classes: 3,
                feature_dim: 8,
                ..Default::default()
            },
            &mut StdRng::seed_from_u64(510),
        );
        let split = InductiveSplit::random(300, 0.5, 0.2, &mut StdRng::seed_from_u64(511));
        let cfg = PipelineConfig {
            k: 3,
            hidden: vec![16],
            epochs: 40,
            patience: 10,
            lr: 0.02,
            use_multi_scale: false,
            ..PipelineConfig::default()
        };
        let t = NaiPipeline::new(ModelKind::Sgc, cfg).train(&g, &split, false);
        (g, split, t)
    }

    #[test]
    fn quantized_nai_matches_depths_and_tracks_f32_accuracy() {
        let (g, split, trained) = trained_sgc();
        let cfg = InferenceConfig::distance(0.5, 1, 3);
        let f32_run = trained.engine.infer(&split.test, &g.labels, &cfg);
        let qnai = QuantizedNai::from_engine(&trained.engine);
        let q_run = qnai.infer(&trained.engine, &split.test, &g.labels, &cfg);
        // Exits depend only on features/stationary state, never on the
        // head — depth decisions must be identical.
        assert_eq!(f32_run.depths, q_run.depths);
        assert!(
            (q_run.report.accuracy - f32_run.report.accuracy).abs() < 0.06,
            "quantized {} vs f32 {}",
            q_run.report.accuracy,
            f32_run.report.accuracy
        );
        // Same propagation work, same NAP work.
        assert_eq!(
            f32_run.report.macs.propagation,
            q_run.report.macs.propagation
        );
        assert_eq!(f32_run.report.macs.nap, q_run.report.macs.nap);
    }

    #[test]
    fn quantized_nai_works_at_every_fixed_depth() {
        let (g, split, trained) = trained_sgc();
        let qnai = QuantizedNai::from_engine(&trained.engine);
        for d in 1..=3 {
            let run = qnai.infer(
                &trained.engine,
                &split.test,
                &g.labels,
                &InferenceConfig::fixed(d),
            );
            assert!(run.depths.iter().all(|&x| x == d));
            assert!(run.report.accuracy > 0.4, "depth {d}");
        }
    }
}
