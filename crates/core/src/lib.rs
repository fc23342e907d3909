//! Node-Adaptive Inference (NAI) — the paper's primary contribution.
//!
//! NAI accelerates the *inductive* inference of Scalable GNNs by assigning
//! every test node a personalized propagation depth. The crate implements
//! the full framework of Fig. 2:
//!
//! * [`stationary`] — the infinite-depth feature state `X^(∞)`
//!   (Eq. 6–7), computed in `O(n·f)` as a rank-1 object per connected
//!   component;
//! * [`napd`] — Distance-based Node-Adaptive Propagation: exit when
//!   `‖X^(l)_i − X^(∞)_i‖ < T_s` (Eq. 8–9), plus the Eq. (10) depth
//!   upper bound in [`upper_bound`];
//! * [`gates`] — Gate-based NAP: per-depth trained gates with
//!   Gumbel-softmax relaxation and the inference-time penalty mechanism
//!   (Eq. 11–13);
//! * [`graph_state`] — the one deployment state: the graph store plus
//!   the normalization factors, stationary state and λ₂ derived from it,
//!   built and mutated in one place;
//! * [`kernel`] — Algorithm 1, written once: online propagation with
//!   per-node early exit and shrinking supporting frontiers, over a
//!   [`graph_state::GraphState`];
//! * [`inference`] — the deployment [`inference::NaiEngine`]: a graph
//!   state read through the per-batch read and the batch loop;
//! * [`engine`] — [`engine::StreamingEngine`], a `NaiEngine` plus an
//!   arrival queue: per-arrival Algorithm 1 over a graph that grows;
//! * [`active`] — the allocation-free active-set / frontier-plan
//!   bookkeeping the kernel runs on;
//! * [`distill`] — Inception Distillation (Eq. 14–21): Single-Scale KD
//!   from `f^(k)` and Multi-Scale KD from a trainable ensemble teacher;
//! * [`macs`] / [`metrics`] — the MACs accounting of Table I and the
//!   evaluation metrics of §IV (ACC, MACs, FP MACs, Time, FP Time);
//! * [`pipeline`] — end-to-end training orchestration (propagate → base
//!   classifier → distillation → gates) producing a ready
//!   [`inference::NaiEngine`].

pub mod active;
pub mod checkpoint;
pub mod config;
pub mod distill;
pub mod engine;
pub mod eval;
pub mod gates;
pub mod graph_state;
pub mod inference;
pub mod kernel;
pub mod macs;
pub mod metrics;
pub mod napd;
pub mod pipeline;
pub mod stationary;
pub mod upper_bound;

pub use config::{InferenceConfig, NapMode, PipelineConfig};
pub use inference::{InferenceResult, NaiEngine};
pub use metrics::InferenceReport;
pub use pipeline::{NaiPipeline, TrainedNai};
pub use stationary::StationaryState;
