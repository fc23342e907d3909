//! End-to-end NAI training orchestration (Fig. 2, right panel).
//!
//! The pipeline realises the inductive protocol: everything below trains on
//! the subgraph induced by train ∪ val nodes; the produced
//! [`NaiEngine`] then deploys against the *full* graph where test nodes
//! appear as unseen.
//!
//! Steps: (1) feature propagation on the training graph → (2) base
//! classifier `f^(k)` → (3) Single-Scale Distillation → (4) Multi-Scale
//! Distillation → (optional) gate training → engine assembly over the
//! full graph's state.

use crate::config::PipelineConfig;
use crate::distill::{self, MultiScaleReport};
use crate::gates::{GateSet, GateTrainConfig, GateTrainReport};
use crate::inference::NaiEngine;
use crate::stationary::StationaryState;
use nai_graph::split::build_training_view;
use nai_graph::{normalized_adjacency, Convolution, DynamicGraph, Graph, InductiveSplit};
use nai_models::{propagate_features, ModelKind};
use nai_nn::adam::Adam;
use nai_nn::trainer::{TrainConfig, TrainReport};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// All training reports produced by the pipeline.
#[derive(Debug, Clone)]
pub struct TrainingReports {
    /// Base `f^(k)` report.
    pub base: TrainReport,
    /// Per-student Single-Scale reports (empty when disabled).
    pub single_scale: Vec<TrainReport>,
    /// Multi-Scale report (when enabled).
    pub multi_scale: Option<MultiScaleReport>,
    /// Plain-CE reports for students when Single-Scale is disabled.
    pub plain_students: Vec<TrainReport>,
    /// Gate-training report (when gates were trained).
    pub gates: Option<GateTrainReport>,
}

/// A fully trained NAI deployment plus its training telemetry.
pub struct TrainedNai {
    /// The inference engine (full-graph state + classifiers + gates).
    pub engine: NaiEngine,
    /// Highest depth `k`.
    pub k: usize,
    /// Telemetry.
    pub reports: TrainingReports,
}

/// Orchestrates NAI training for one base model on one dataset.
pub struct NaiPipeline {
    kind: ModelKind,
    cfg: PipelineConfig,
}

impl NaiPipeline {
    /// New pipeline for the given base model and configuration.
    pub fn new(kind: ModelKind, cfg: PipelineConfig) -> Self {
        Self { kind, cfg }
    }

    /// Base-model kind.
    pub fn kind(&self) -> ModelKind {
        self.kind
    }

    /// Trains classifiers (+ gates when `train_gates`) and assembles the
    /// engine.
    ///
    /// # Panics
    /// Panics on invalid splits or `k == 0`.
    pub fn train(&self, graph: &Graph, split: &InductiveSplit, train_gates: bool) -> TrainedNai {
        let cfg = &self.cfg;
        assert!(cfg.k >= 1, "k must be at least 1");
        // nai-lint: allow(hot-path-panic) -- deliberate precondition assert
        // (documented # Panics): training on a malformed split must abort.
        let view = build_training_view(graph, split).expect("valid split");
        let f = graph.feature_dim();
        let c = graph.num_classes;

        // (1) Propagation on the training graph.
        let norm_train = normalized_adjacency(&view.graph.adj, Convolution::Symmetric);
        let depth_feats = propagate_features(&norm_train, &view.graph.features, cfg.k);

        // Classifier stack.
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut classifiers =
            distill::build_classifiers(self.kind, cfg.k, f, c, &cfg.hidden, cfg.dropout, &mut rng);
        let tcfg = TrainConfig {
            epochs: cfg.epochs,
            batch_size: cfg.train_batch,
            patience: cfg.patience,
            adam: Adam::new(cfg.lr, cfg.weight_decay),
            seed: cfg.seed,
        };

        // (2) Base classifier f^(k).
        let base = distill::train_base(
            &mut classifiers,
            &depth_feats,
            &view.train_local,
            &view.graph.labels,
            &view.val_local,
            &tcfg,
        );

        // (3) Single-Scale Distillation (or plain CE fallback).
        let mut single_reports = Vec::new();
        let mut plain_reports = Vec::new();
        if cfg.use_single_scale && cfg.k > 1 {
            single_reports = distill::single_scale(
                &mut classifiers,
                &depth_feats,
                &view.train_local,
                &view.graph.labels,
                &view.val_local,
                &tcfg,
                &cfg.distill,
            );
        } else {
            for l in 1..cfg.k {
                let report = nai_models::train::train_depth_classifier(
                    &mut classifiers[l - 1],
                    &depth_feats,
                    &view.train_local,
                    &view.graph.labels,
                    None,
                    &view.val_local,
                    &tcfg,
                );
                plain_reports.push(report);
            }
        }

        // (4) Multi-Scale Distillation.
        let multi = if cfg.use_multi_scale && cfg.k > 1 {
            Some(distill::multi_scale(
                &mut classifiers,
                &depth_feats,
                &view.train_local,
                &view.graph.labels,
                &view.val_local,
                &cfg.distill,
                &Adam::new(cfg.lr * 0.5, cfg.weight_decay),
                cfg.train_batch.max(128),
                cfg.seed ^ 0x5eed,
            ))
        } else {
            None
        };

        // (5) Gates (NAP_g) against the frozen classifiers.
        let gate_report;
        let gates = if train_gates && cfg.k >= 2 {
            let st_train = StationaryState::compute(&view.graph.adj, &view.graph.features, 0.5);
            let xinf_train = st_train.full();
            let mut gs = GateSet::new(f, cfg.k, &mut rng);
            let report = gs.train(
                &depth_feats,
                &xinf_train,
                &classifiers,
                &view.train_local,
                &view.graph.labels,
                &GateTrainConfig {
                    epochs: cfg.gate_epochs,
                    tau: cfg.gate_tau,
                    adam: Adam::new(cfg.lr, 0.0),
                    seed: cfg.seed ^ 0x9a7e,
                    ..GateTrainConfig::default()
                },
            );
            gate_report = Some(report);
            Some(gs)
        } else {
            gate_report = None;
            None
        };

        // (6) Full-graph deployment (symmetric γ = ½, as trained).
        let engine = NaiEngine::new(DynamicGraph::from_graph(graph), classifiers, gates, 0.5);

        TrainedNai {
            engine,
            k: cfg.k,
            reports: TrainingReports {
                base,
                single_scale: single_reports,
                multi_scale: multi,
                plain_students: plain_reports,
                gates: gate_report,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::InferenceConfig;
    use nai_graph::generators::{generate, GeneratorConfig};

    fn dataset() -> (Graph, InductiveSplit) {
        let g = generate(
            &GeneratorConfig {
                num_nodes: 400,
                num_classes: 3,
                feature_dim: 8,
                avg_degree: 8.0,
                ..Default::default()
            },
            &mut StdRng::seed_from_u64(123),
        );
        let split = InductiveSplit::random(400, 0.5, 0.2, &mut StdRng::seed_from_u64(124));
        (g, split)
    }

    fn small_cfg(k: usize) -> PipelineConfig {
        PipelineConfig {
            k,
            hidden: vec![16],
            epochs: 40,
            patience: 10,
            lr: 0.02,
            gate_epochs: 10,
            distill: crate::config::DistillConfig {
                epochs: 12,
                ensemble_r: 2,
                ..Default::default()
            },
            ..PipelineConfig::default()
        }
    }

    #[test]
    fn end_to_end_inductive_pipeline_beats_chance() {
        let (g, split) = dataset();
        let pipeline = NaiPipeline::new(ModelKind::Sgc, small_cfg(3));
        let trained = pipeline.train(&g, &split, true);
        assert_eq!(trained.k, 3);
        assert!(trained.reports.base.best_val_acc > 0.5);
        assert!(trained.reports.gates.is_some());
        // Inductive inference on unseen test nodes.
        let res = trained
            .engine
            .infer(&split.test, &g.labels, &InferenceConfig::fixed(3));
        assert!(res.report.accuracy > 0.45, "acc {}", res.report.accuracy);
        // Distance NAP reduces propagation MACs.
        let nap = trained.engine.infer(
            &g.labels.iter().map(|_| 0u32).take(0).collect::<Vec<_>>(),
            &g.labels,
            &InferenceConfig::distance(0.5, 1, 3),
        );
        assert_eq!(nap.report.num_nodes, 0);
    }

    #[test]
    fn gate_mode_runs_after_pipeline() {
        let (g, split) = dataset();
        let pipeline = NaiPipeline::new(ModelKind::Sgc, small_cfg(3));
        let trained = pipeline.train(&g, &split, true);
        let res = trained
            .engine
            .infer(&split.test, &g.labels, &InferenceConfig::gate(1, 3));
        assert_eq!(res.predictions.len(), split.test.len());
        assert!(res.report.accuracy > 0.4, "acc {}", res.report.accuracy);
    }

    #[test]
    fn pipeline_without_distillation_still_works() {
        let (g, split) = dataset();
        let mut cfg = small_cfg(2);
        cfg.use_single_scale = false;
        cfg.use_multi_scale = false;
        let pipeline = NaiPipeline::new(ModelKind::Sgc, cfg);
        let trained = pipeline.train(&g, &split, false);
        assert!(trained.reports.single_scale.is_empty());
        assert!(trained.reports.multi_scale.is_none());
        assert_eq!(trained.reports.plain_students.len(), 1);
        let res = trained
            .engine
            .infer(&split.test, &g.labels, &InferenceConfig::fixed(2));
        assert!(res.report.accuracy > 0.4);
    }

    #[test]
    fn k_equals_one_pipeline() {
        let (g, split) = dataset();
        let mut cfg = small_cfg(1);
        cfg.k = 1;
        let pipeline = NaiPipeline::new(ModelKind::Sgc, cfg);
        let trained = pipeline.train(&g, &split, false);
        assert_eq!(trained.k, 1);
        let res = trained
            .engine
            .infer(&split.test, &g.labels, &InferenceConfig::fixed(1));
        assert_eq!(res.predictions.len(), split.test.len());
    }
}
