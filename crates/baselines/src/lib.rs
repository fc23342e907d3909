//! Inference-acceleration baselines compared against NAI in §IV.
//!
//! | baseline | idea | cost signature |
//! |----------|------|----------------|
//! | [`glnn::Glnn`] | distill the GNN teacher into a plain MLP on raw features | zero feature propagation — fastest, but ignores topology on unseen nodes |
//! | [`nosmog::Nosmog`] | GLNN + explicit position features aggregated from neighbors at inference | small FP cost for the position aggregation |
//! | [`tinygnn::TinyGnn`] | single-layer GNN with a peer-aware attention module, distilled from the deep teacher | 1-hop propagation but heavy per-edge attention MACs |
//! | [`quantization::QuantizedModel`] | INT8 post-training quantization of the classifier | full fixed-depth propagation; only classification shrinks |
//! | [`pprgo::PprGo`] | related-work extension (§V): top-k approximate personalized PageRank replaces hierarchical propagation | cheap online PPR push, but classification MACs scale with `k_top` |
//!
//! Substitutions relative to the original papers (DeepWalk → random-walk
//! random projections for NOSMOG; PAM → scaled dot-product neighbor
//! attention for TinyGNN) each preserve the baseline's cost/accuracy
//! signature, which is what the paper's comparison measures.

pub mod common;
pub mod glnn;
pub mod nosmog;
pub mod pprgo;
pub mod quantization;
pub mod tinygnn;

pub use common::BaselineRun;
