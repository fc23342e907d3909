//! Streaming inductive inference for NAI.
//!
//! The paper motivates NAI with latency-critical *streaming* workloads:
//! session recommenders, millisecond fraud detection, point-cloud
//! perception. Those systems do not re-load a frozen graph per request —
//! nodes and edges **arrive continuously** and every arrival needs a
//! prediction now. This crate supplies the substrate the paper assumes but
//! never spells out:
//!
//! * [`DynamicGraph`] — re-exported from `nai-graph`: the growable
//!   undirected graph store every deployment serves from, with no stored
//!   normalized matrix to go stale (the deployment state in `nai-core`
//!   keeps per-node normalization factors and refreshes them for the
//!   nodes each mutation touches);
//! * [`engine::StreamingEngine`] — per-arrival Algorithm 1: ingest a node,
//!   flush a micro-batch, get back predictions with personalized depths
//!   and the latency of the micro-batch that served each one;
//! * [`stats::MacsBreakdown`] / [`stats::StageTimes`] — cumulative MACs
//!   and wall time per pipeline stage. Latency distributions are the
//!   caller's to keep: fold `StreamPrediction::latency` into an
//!   `nai_obs` histogram.
//!
//! The static [`nai_core::inference::NaiEngine`] and this engine hold one
//! kind of state ([`nai_core::graph_state::GraphState`]) and run one read
//! kernel ([`nai_core::kernel`]) over it, so on one graph they answer bit
//! for bit alike (`engine.rs`, `tests/scenario_matrix.rs`); the streaming
//! engine answers against the graph *as it existed at arrival time*,
//! without rebuilding CSR matrices or stationary states.

pub mod engine;
pub mod stats;
pub mod sync;

pub use engine::{StreamPrediction, StreamingEngine};
pub use nai_graph::DynamicGraph;
pub use stats::{MacsBreakdown, StageTimes};
