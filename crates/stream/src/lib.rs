//! Streaming inductive inference for NAI.
//!
//! The paper motivates NAI with latency-critical *streaming* workloads:
//! session recommenders, millisecond fraud detection, point-cloud
//! perception. Those systems do not re-load a frozen graph per request —
//! nodes and edges **arrive continuously** and every arrival needs a
//! prediction now. This crate supplies the substrate the paper assumes but
//! never spells out:
//!
//! * [`dynamic::DynamicGraph`] — a growable undirected graph with O(1)
//!   amortized node/edge appends and no stored normalized matrix to go
//!   stale (the engine keeps per-node normalization factors and refreshes
//!   them for the nodes each mutation touches);
//! * [`stationary::IncrementalStationary`] — the rank-1 stationary state
//!   `X^(∞)` of Eq. (7) maintained under node/edge arrivals in `O(f)` per
//!   update instead of `O(n·f)` recomputation;
//! * [`engine::StreamingEngine`] — per-arrival Algorithm 1: ingest a node,
//!   flush a micro-batch, get back predictions with personalized depths
//!   and per-arrival latency;
//! * [`stats::LatencyStats`] — p50/p95/p99 latency and throughput
//!   accounting for the streaming benches.
//!
//! The static [`nai_core::inference::NaiEngine`] and this engine run the
//! same read kernel ([`nai_core::kernel`]) over two graph views. On the
//! same graph they agree on predictions and depths, up to rare
//! threshold flips from their differently computed stationary states
//! (tested in `engine.rs` and the workspace's `tests/scenario_matrix.rs`);
//! the streaming value is everything before that point: predictions
//! against the graph *as it existed at arrival time*, without rebuilding
//! CSR matrices or stationary states.

pub mod dynamic;
pub mod engine;
pub mod stationary;
pub mod stats;
pub mod sync;

pub use dynamic::DynamicGraph;
pub use engine::{StreamPrediction, StreamingEngine};
pub use stationary::IncrementalStationary;
pub use stats::{LatencyStats, MacsBreakdown, StageTimes};
