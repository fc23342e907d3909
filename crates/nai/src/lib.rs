//! # NAI — Node-Adaptive Inference for Scalable GNNs
//!
//! A from-scratch Rust reproduction of *"Accelerating Scalable Graph Neural
//! Network Inference with Node-Adaptive Propagation"* (ICDE 2024,
//! arXiv:2310.10998).
//!
//! Scalable GNNs (SGC, SIGN, S²GC, GAMLP) precompute feature propagation,
//! which makes training fast — but **inductive** inference on unseen nodes
//! still pays for online propagation over an exponentially growing
//! supporting neighborhood. NAI gives every node a *personalized
//! propagation depth*: nodes whose features are already close to their
//! stationary state exit early and are classified by shallow per-depth
//! classifiers, trained with Inception Distillation to match the deep
//! model's accuracy.
//!
//! ## Quickstart
//!
//! ```
//! use nai::prelude::*;
//!
//! // A synthetic homophilous graph with an inductive split.
//! let dataset = nai::datasets::load(nai::datasets::DatasetId::ArxivProxy,
//!                                   nai::datasets::Scale::Test);
//!
//! // Train the full NAI stack (propagation → classifiers → distillation →
//! // gates) for SGC with depth k = 3.
//! let cfg = PipelineConfig { k: 3, epochs: 25, gate_epochs: 5,
//!                            ..PipelineConfig::default() };
//! let trained = NaiPipeline::new(ModelKind::Sgc, cfg)
//!     .train(&dataset.graph, &dataset.split, true);
//!
//! // Adaptive inductive inference with distance-based NAP.
//! let result = trained.engine.infer(
//!     &dataset.split.test,
//!     &dataset.graph.labels,
//!     &InferenceConfig::distance(0.5, 1, 3),
//! );
//! println!("accuracy {:.3}, mean depth {:.2}",
//!          result.report.accuracy, result.report.mean_depth());
//! ```
//!
//! ## Crate map
//!
//! | module | contents |
//! |--------|----------|
//! | [`linalg`] | dense f32 matrices, parallel matmul, row kernels |
//! | [`graph`] | CSR, normalized adjacency, BFS frontiers, generators |
//! | [`nn`] | MLPs with explicit backprop, Adam, KD losses, Gumbel, INT8 |
//! | [`models`] | SGC / SIGN / S²GC / GAMLP per-depth classifiers |
//! | [`core`] | stationary state, NAP_d, NAP_g, NAP_u, Algorithm 1, distillation, checkpoints |
//! | [`baselines`] | GLNN, NOSMOG, TinyGNN, Quantization, PPRGo |
//! | [`datasets`] | Flickr / Ogbn-arxiv / Ogbn-products proxies |
//! | [`stream`] | dynamic graphs + per-arrival streaming inference |
//! | [`serve`] | online inference service: batching shard workers, HTTP |

pub use nai_baselines as baselines;
pub use nai_core as core;
pub use nai_datasets as datasets;
pub use nai_graph as graph;
pub use nai_linalg as linalg;
pub use nai_models as models;
pub use nai_nn as nn;
pub use nai_serve as serve;
pub use nai_stream as stream;

/// One-stop imports for applications.
pub mod prelude {
    pub use nai_core::checkpoint::ModelCheckpoint;
    pub use nai_core::config::{DistillConfig, InferenceConfig, NapMode, PipelineConfig};
    pub use nai_core::eval::ConfusionMatrix;
    pub use nai_core::inference::{InferenceResult, NaiEngine};
    pub use nai_core::metrics::InferenceReport;
    pub use nai_core::pipeline::{NaiPipeline, TrainedNai};
    pub use nai_graph::{Graph, InductiveSplit};
    pub use nai_linalg::DenseMatrix;
    pub use nai_models::ModelKind;
    pub use nai_stream::{DynamicGraph, StreamingEngine};
}

#[cfg(test)]
mod tests {
    #[test]
    fn facade_reexports_compile() {
        use crate::prelude::*;
        let cfg = PipelineConfig::default();
        assert_eq!(cfg.k, 5);
        let _ = ModelKind::Sgc.name();
        let inf = InferenceConfig::fixed(2);
        assert!(inf.validate(5).is_ok());
    }
}
