//! Per-arrival node-adaptive inference over a growing graph.
//!
//! [`StreamingEngine`] runs Algorithm 1 — the one read kernel of
//! [`nai_core::kernel`] — over a dynamic view of its [`DynamicGraph`]:
//! supporting frontiers come from BFS over adjacency lists, and the
//! normalized-adjacency weight `d̃_i^(γ−1) d̃_j^(−γ)` of Eq. (1) is the
//! product of two per-node factors the engine caches and refreshes at
//! mutation time — for an arrival and each of its neighbours, and for
//! both endpoints of a new edge — so propagation computes no powers. It
//! sums in `Â`'s column order and keeps the exact [`StationaryState`]
//! in step with every mutation: it answers as the static `NaiEngine`.
//!
//! The workflow is ingest → flush:
//!
//! ```text
//! let id = engine.ingest(&features, &edges);   // O(deg) bookkeeping
//! ...
//! let preds = engine.flush(&cfg);              // micro-batch Algorithm 1
//! ```
//!
//! `flush` processes pending arrivals in `cfg.batch_size` micro-batches;
//! each prediction carries the personalized depth and the wall-clock
//! latency of its micro-batch (the time-to-answer a caller would see).

use crate::dynamic::DynamicGraph;
use crate::stats::{MacsBreakdown, StageTimes};
use crate::sync::time::Instant;
use crate::sync::{Arc, OnceLock};
use nai_core::active::EngineScratch;
use nai_core::checkpoint::ModelCheckpoint;
use nai_core::config::{InferenceConfig, NapMode};
use nai_core::gates::GateSet;
use nai_core::kernel::{GraphView, Heads, ReadKernel, Tally};
use nai_core::stationary::StationaryState;
use nai_core::upper_bound;
use nai_graph::normalized_adjacency;
use nai_graph::Convolution;
use nai_models::DepthClassifier;
use std::time::Duration;

/// One streaming prediction.
#[derive(Debug, Clone)]
pub struct StreamPrediction {
    /// Node id in the dynamic graph.
    pub node: u32,
    /// Predicted class.
    pub prediction: usize,
    /// Personalized propagation depth used.
    pub depth: usize,
    /// Wall-clock latency of the micro-batch that served this node.
    pub latency: Duration,
}

/// Eq. (1)'s normalization factors of one node with `d̃ = degree + 1`:
/// `row = d̃^(γ−1)` scales the node's own output row, `col = d̃^(−γ)`
/// scales its feature row wherever it is gathered. The weight of edge
/// `(i, j)` is `norm[i].row * norm[j].col`.
#[derive(Clone, Copy)]
struct NormFactors {
    row: f32,
    col: f32,
}

impl NormFactors {
    fn of(degree: usize, gamma: f32) -> Self {
        let d = (degree + 1) as f32;
        NormFactors {
            row: d.powf(gamma - 1.0),
            col: d.powf(-gamma),
        }
    }
}

/// A deployed NAI model serving a stream of arrivals.
pub struct StreamingEngine {
    graph: DynamicGraph,
    stationary: StationaryState,
    classifiers: Vec<DepthClassifier>,
    gates: Option<GateSet>,
    gamma: f32,
    /// λ₂ of the deployed seed's normalized adjacency. Only NAP_u reads
    /// it, so it is estimated on first need; the replicas of one
    /// deployment share the cell, so at most one of them pays.
    lambda2: Arc<OnceLock<f32>>,
    /// Per-node Eq. (1) factors, kept in step with the graph's degrees
    /// by every mutation.
    norm: Vec<NormFactors>,
    pending: Vec<u32>,
    macs: MacsBreakdown,
    stage_times: StageTimes,
    /// Shared active-set workspace (same engine layer as
    /// `nai_core::inference::NaiEngine`); grows with the graph and is
    /// reused across flushes.
    scratch: EngineScratch,
}

impl StreamingEngine {
    /// Deploys trained classifiers (and optional gates) over a seed graph.
    ///
    /// λ₂ is a deployment constant of the seed graph (it drifts only
    /// with large topology changes; re-deploy to refresh it). It is
    /// estimated the first time NAP_u or [`Self::lambda2`] reads it,
    /// never at construction: the other NAP modes do not read it. A
    /// `graph` that grew after its seed was frozen is re-frozen here
    /// (one copy), so the estimate always comes from the graph as
    /// deployed.
    ///
    /// # Panics
    /// Panics if no classifiers are supplied, they are not ordered by
    /// depth, or dimensions disagree with the graph.
    pub fn new(
        mut graph: DynamicGraph,
        classifiers: Vec<DepthClassifier>,
        gates: Option<GateSet>,
        gamma: f32,
    ) -> Self {
        assert!(!classifiers.is_empty(), "need at least one classifier");
        for (i, c) in classifiers.iter().enumerate() {
            assert_eq!(c.depth(), i + 1, "classifiers must be ordered by depth");
        }
        if graph.grown_since_seed() {
            graph.freeze();
        }
        let stationary = StationaryState::build(
            graph.num_nodes(),
            graph.feature_dim(),
            gamma,
            |v| graph.neighbors(v),
            |v| graph.feature(v),
        );
        let norm = (0..graph.num_nodes() as u32)
            .map(|v| NormFactors::of(graph.degree(v), gamma))
            .collect();
        Self::assemble(
            graph,
            stationary,
            norm,
            classifiers,
            gates,
            gamma,
            Arc::default(),
        )
    }

    /// An engine over already-derived graph state, with nothing pending
    /// and zeroed counters.
    fn assemble(
        graph: DynamicGraph,
        stationary: StationaryState,
        norm: Vec<NormFactors>,
        classifiers: Vec<DepthClassifier>,
        gates: Option<GateSet>,
        gamma: f32,
        lambda2: Arc<OnceLock<f32>>,
    ) -> Self {
        Self {
            graph,
            stationary,
            classifiers,
            gates,
            gamma,
            lambda2,
            norm,
            pending: Vec::new(),
            macs: MacsBreakdown::default(),
            stage_times: StageTimes::default(),
            scratch: EngineScratch::new(),
        }
    }

    /// Deploys a [`ModelCheckpoint`] over a seed graph (λ₂ as in
    /// [`Self::new`]).
    ///
    /// # Panics
    /// Panics if the graph's feature dimension disagrees with the
    /// checkpoint.
    pub fn from_checkpoint(ckpt: &ModelCheckpoint, graph: DynamicGraph) -> Self {
        assert_eq!(
            graph.feature_dim(),
            ckpt.feature_dim,
            "graph feature dim must match checkpoint"
        );
        Self::new(
            graph,
            ckpt.build_classifiers(),
            ckpt.build_gates(),
            ckpt.gamma,
        )
    }

    /// Builds `n` engine replicas ("shards") from one checkpoint and
    /// seed graph. The replicas share what never changes: the frozen
    /// seed's feature rows (see [`DynamicGraph`]) and one λ₂ cell,
    /// which stays empty unless NAP_u or [`Self::lambda2`] reads it.
    /// Each gets its own stationary state, normalization factors and
    /// scratch, copied from the first replica rather than recomputed,
    /// and its own copy-on-write adjacency: at deploy it owns no row
    /// and reads every one from the shared seed CSR. Replicas share no
    /// mutable state at runtime; the `nai-serve` layer keeps them
    /// convergent by broadcasting every mutation to every replica in
    /// one global sequence order (see [`Self::apply_replicated_ingest`]
    /// / [`Self::apply_replicated_edge`]), so any replica can serve any
    /// node.
    ///
    /// # Panics
    /// Panics if `n == 0` or the graph's feature dimension disagrees
    /// with the checkpoint.
    pub fn shard_replicas(ckpt: &ModelCheckpoint, seed: &DynamicGraph, n: usize) -> Vec<Self> {
        assert!(n > 0, "need at least one shard");
        let first = Self::from_checkpoint(ckpt, seed.clone());
        let mut shards: Vec<Self> = (1..n)
            .map(|_| {
                Self::assemble(
                    first.graph.clone(),
                    first.stationary.clone(),
                    first.norm.clone(),
                    ckpt.build_classifiers(),
                    ckpt.build_gates(),
                    first.gamma,
                    Arc::clone(&first.lambda2),
                )
            })
            .collect();
        shards.insert(0, first);
        shards
    }

    /// Highest trained depth `k`.
    pub fn k(&self) -> usize {
        self.classifiers.len()
    }

    /// The current graph state.
    pub fn graph(&self) -> &DynamicGraph {
        &self.graph
    }

    /// Cumulative propagation + NAP + classification MACs.
    pub fn macs_total(&self) -> u64 {
        self.macs.total()
    }

    /// Cumulative MACs split by pipeline stage (exported per worker by
    /// the serving layer's `/metrics`).
    pub fn macs_breakdown(&self) -> MacsBreakdown {
        self.macs
    }

    /// Cumulative wall time split by pipeline stage, attributed at the
    /// same sites as [`Self::macs_breakdown`]. Like the MAC counters
    /// this is monotone: the serving layer snapshots it around each
    /// coalesced call and diffs with [`StageTimes::since`] to cost the
    /// batch it just ran.
    pub fn stage_times(&self) -> StageTimes {
        self.stage_times
    }

    /// λ₂ of the deployed seed graph ([`upper_bound::lambda2`]),
    /// estimated on the first call and shared with every replica of the
    /// deployment.
    pub fn lambda2(&self) -> f32 {
        *self.lambda2.get_or_init(|| {
            let csr = self.graph.seed_csr();
            upper_bound::lambda2(&normalized_adjacency(&csr, Convolution::Gamma(self.gamma)))
        })
    }

    /// Ids queued for the next [`Self::flush`].
    pub fn pending(&self) -> &[u32] {
        &self.pending
    }

    /// Ingests an arriving node: appends it to the graph, updates the
    /// stationary state, and queues it for inference. Returns the
    /// assigned node id.
    ///
    /// # Panics
    /// Panics on wrong feature length or unknown neighbor ids.
    pub fn ingest(&mut self, features: &[f32], neighbors: &[u32]) -> u32 {
        let id = self.apply_node_arrival(features, neighbors);
        self.pending.push(id);
        id
    }

    /// Applies a node arrival replicated from the serving layer's
    /// sequenced mutation broadcast: identical state change to
    /// [`Self::ingest`] (graph append + stationary state update),
    /// but the node is **not** queued for inference — exactly one
    /// replica (the one holding the client's reply handle) pays for the
    /// prediction; every other replica only needs the state. The op was
    /// validated once when it was sequenced, so this path adds no
    /// checks beyond the graph's structural assertions, and no λ₂ work
    /// (λ₂ is a constant of the seed graph, see [`Self::lambda2`]).
    ///
    /// # Panics
    /// Panics on wrong feature length or unknown neighbor ids.
    pub fn apply_replicated_ingest(&mut self, features: &[f32], neighbors: &[u32]) -> u32 {
        self.apply_node_arrival(features, neighbors)
    }

    fn apply_node_arrival(&mut self, features: &[f32], neighbors: &[u32]) -> u32 {
        let id = self.graph.add_node(features, neighbors);
        // The arrival's row is the sorted, deduplicated neighbour list,
        // and each of those neighbours gained exactly one edge (to `id`).
        let graph = &self.graph;
        let uniq = graph.neighbors(id);
        self.norm.push(NormFactors::of(uniq.len(), self.gamma));
        for &u in uniq {
            self.norm[u as usize] = NormFactors::of(graph.degree(u), self.gamma);
        }
        // Rows are read in place: one term for the arrival plus one term
        // swap per touched neighbour, each O(f).
        self.stationary.add_node(uniq, |v| graph.feature(v));
        self.macs.replication += (uniq.len() as u64 + 1) * graph.feature_dim() as u64;
        id
    }

    /// Observes an edge arrival between existing nodes (e.g. a new
    /// interaction between known users). Returns `false` when the edge
    /// already existed (an `O(log d)` sorted-adjacency probe).
    ///
    /// # Panics
    /// Panics on out-of-range ids or a self-loop.
    pub fn observe_edge(&mut self, u: u32, v: u32) -> bool {
        if self.graph.has_edge(u, v) {
            return false;
        }
        let added = self.graph.add_edge(u, v);
        debug_assert!(added);
        for w in [u, v] {
            self.norm[w as usize] = NormFactors::of(self.graph.degree(w), self.gamma);
        }
        let graph = &self.graph;
        self.stationary.add_edge(u, v, |w| graph.feature(w));
        // Two endpoint term swaps, each O(f).
        self.macs.replication += 2 * self.graph.feature_dim() as u64;
        true
    }

    /// [`Self::observe_edge`] under replicated apply — the duplicate
    /// probe must run on every replica (all replicas hold identical
    /// state, so the `added` outcome agrees everywhere), which makes
    /// the replicated path the same as the direct one; the distinct
    /// name documents intent at the serving call sites.
    #[inline]
    pub fn apply_replicated_edge(&mut self, u: u32, v: u32) -> bool {
        self.observe_edge(u, v)
    }

    /// Runs node-adaptive inference on all pending arrivals in micro-
    /// batches of `cfg.batch_size`; each prediction carries its
    /// micro-batch's latency.
    ///
    /// # Panics
    /// Panics if the config fails validation or requests gates the engine
    /// does not have.
    pub fn flush(&mut self, cfg: &InferenceConfig) -> Vec<StreamPrediction> {
        let pending = std::mem::take(&mut self.pending);
        let mut out = Vec::with_capacity(pending.len());
        for chunk in pending.chunks(cfg.batch_size.max(1)) {
            let start = Instant::now();
            let results = self.infer_nodes(chunk, cfg);
            let elapsed = start.elapsed();
            for (t, &node) in chunk.iter().enumerate() {
                let (prediction, depth) = results[t];
                out.push(StreamPrediction {
                    node,
                    prediction,
                    depth,
                    latency: elapsed,
                });
            }
        }
        out
    }

    /// Algorithm 1 over the current graph for explicit `nodes` (they must
    /// already be in the graph). Returns `(prediction, depth)` per node.
    ///
    /// Runs the same read kernel as the static `NaiEngine`, over the
    /// dynamic view: BFS walks the adjacency lists, weights come from the
    /// cached per-node factors, and depth 1 reads raw features in place.
    ///
    /// # Panics
    /// Panics on invalid config, missing gates, or unknown node ids.
    pub fn infer_nodes(&mut self, nodes: &[u32], cfg: &InferenceConfig) -> Vec<(usize, usize)> {
        // λ₂ is read by NAP_u only; no other mode forces the estimate.
        let lambda2 = match cfg.nap {
            NapMode::UpperBound { .. } => self.lambda2(),
            _ => 0.0,
        };
        let kernel = ReadKernel::new(cfg, self.k(), self.gates.as_ref(), lambda2);
        if nodes.is_empty() {
            return Vec::new();
        }
        // Mutations since the last read only marked their components
        // stale: re-round each once here, not once per mutation.
        self.stationary.refresh();
        let classifiers = &self.classifiers;
        let heads = Heads {
            forward: &|l, feats| classifiers[l - 1].forward(feats),
            macs_per_node: &|l| classifiers[l - 1].macs_per_node(),
        };
        let view = DynamicView {
            graph: &self.graph,
            norm: &self.norm,
        };
        let stationary = &self.stationary;
        let mut results = vec![(usize::MAX, 0usize); nodes.len()];
        let mut tally = Tally::default();
        // Detached for the call: if the kernel panics, the scratch (its
        // column map possibly still stamped) is dropped, not reused.
        let mut scratch = std::mem::take(&mut self.scratch);
        kernel.run(
            &view,
            nodes,
            heads,
            &mut scratch,
            |x_inf| {
                // O(f) per node from the cached component sums; not
                // charged, like every other incremental update.
                stationary.rows_into(nodes, x_inf);
                0
            },
            &mut tally,
            |row, prediction, depth| results[row] = (prediction, depth),
        );
        self.scratch = scratch;
        self.macs.propagation += tally.macs.propagation;
        self.macs.nap += tally.macs.nap;
        self.macs.classification += tally.macs.classification;
        self.stage_times.merge(&tally.times);
        results
    }
}

/// The dynamic view: adjacency lists and raw features from the graph,
/// Eq. (1) weights from the engine's cached factors.
struct DynamicView<'a> {
    graph: &'a DynamicGraph,
    norm: &'a [NormFactors],
}

impl GraphView for DynamicView<'_> {
    fn num_nodes(&self) -> usize {
        self.graph.num_nodes()
    }

    fn feature_dim(&self) -> usize {
        self.graph.feature_dim()
    }

    fn neighbors(&self, v: u32) -> &[u32] {
        self.graph.neighbors(v)
    }

    fn feature(&self, v: u32) -> &[f32] {
        self.graph.feature(v)
    }

    fn total_tilde_degree(&self) -> f64 {
        self.graph.total_tilde_degree()
    }

    /// Sums in `Â`'s column order, the self-loop at its sorted place
    /// among the (sorted) neighbours — the frozen view's order — with
    /// each weight the product of two cached factors, bit-equal to
    /// `Â`'s entry.
    #[inline]
    fn gather_row<'s>(&self, i: u32, src_row: impl Fn(u32) -> &'s [f32], out: &mut [f32]) {
        let left = self.norm[i as usize].row;
        let neighbors = self.graph.neighbors(i);
        let (below, above) = neighbors.split_at(neighbors.partition_point(|&j| j < i));
        below.iter().chain([&i]).chain(above).for_each(|&j| {
            let w = left * self.norm[j as usize].col;
            for (o, &x) in out.iter_mut().zip(src_row(j)) {
                *o += w * x;
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nai_core::config::PipelineConfig;
    use nai_core::pipeline::NaiPipeline;
    use nai_graph::generators::{generate, GeneratorConfig};
    use nai_graph::{Graph, InductiveSplit};
    use nai_linalg::DenseMatrix;
    use nai_models::ModelKind;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn trained(n: usize, k: usize) -> (Graph, InductiveSplit, nai_core::pipeline::TrainedNai) {
        let g = generate(
            &GeneratorConfig {
                num_nodes: n,
                num_classes: 3,
                feature_dim: 8,
                avg_degree: 8.0,
                ..Default::default()
            },
            &mut StdRng::seed_from_u64(31),
        );
        let split = InductiveSplit::random(n, 0.6, 0.2, &mut StdRng::seed_from_u64(32));
        let cfg = PipelineConfig {
            k,
            hidden: vec![16],
            epochs: 25,
            patience: 8,
            gate_epochs: 8,
            distill: nai_core::config::DistillConfig {
                epochs: 8,
                ensemble_r: 2,
                ..Default::default()
            },
            ..PipelineConfig::default()
        };
        let t = NaiPipeline::new(ModelKind::Sgc, cfg).train(&g, &split, true);
        (g, split, t)
    }

    fn engine_from(t: &nai_core::pipeline::TrainedNai, g: &Graph) -> StreamingEngine {
        let ckpt = nai_core::checkpoint::ModelCheckpoint::from_engine(&t.engine, 0.5);
        StreamingEngine::from_checkpoint(&ckpt, DynamicGraph::from_graph(g))
    }

    #[test]
    fn static_nodes_match_core_engine_across_nap_modes() {
        // With no arrivals, the streaming engine must answer exactly as
        // the static NaiEngine on the same graph, in every NAP mode: both
        // sum Eq. (1) in `Â`'s column order, read one exact stationary
        // state and estimate λ₂ by one function.
        let (g, split, t) = trained(300, 3);
        let mut se = engine_from(&t, &g);
        for cfg in [
            InferenceConfig::fixed(3),
            InferenceConfig::fixed(2),
            InferenceConfig::distance(0.5, 1, 3),
            InferenceConfig::gate(1, 3),
            InferenceConfig::upper_bound(0.5, 1, 3),
        ] {
            let stat = t.engine.infer(&split.test, &g.labels, &cfg);
            let stream = se.infer_nodes(&split.test, &cfg);
            let (preds, depths): (Vec<usize>, Vec<usize>) = stream.into_iter().unzip();
            assert_eq!(stat.predictions, preds, "{:?}", cfg.nap);
            assert_eq!(stat.depths, depths, "{:?}", cfg.nap);
        }
    }

    #[test]
    fn out_of_range_read_panics_and_engine_recovers() {
        let (g, split, t) = trained(200, 3);
        let mut se = engine_from(&t, &g);
        let cfg = InferenceConfig::distance(0.5, 1, 3);
        let want = engine_from(&t, &g).infer_nodes(&split.test, &cfg);
        assert_eq!(se.infer_nodes(&split.test, &cfg), want, "warm-up");
        let before = se.macs_breakdown();

        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            se.infer_nodes(&[1, 200, 2], &cfg)
        }))
        .expect_err("an out-of-range id must panic");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(
            msg.contains("node 200 out of range"),
            "panic message: {msg:?}"
        );
        assert_eq!(
            se.macs_breakdown(),
            before,
            "a rejected read charges nothing"
        );

        assert_eq!(se.infer_nodes(&split.test, &cfg), want, "after the panic");
    }

    #[test]
    fn ingest_then_flush_returns_predictions() {
        let (g, _, t) = trained(200, 3);
        let mut se = engine_from(&t, &g);
        let mut rng = StdRng::seed_from_u64(77);
        let mut ids = Vec::new();
        for _ in 0..20 {
            let feats: Vec<f32> = (0..8).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let nbrs: Vec<u32> = (0..3).map(|_| rng.gen_range(0..200u32)).collect();
            ids.push(se.ingest(&feats, &nbrs));
        }
        assert_eq!(se.pending().len(), 20);
        let preds = se.flush(&InferenceConfig::distance(0.5, 1, 3));
        assert_eq!(preds.len(), 20);
        assert!(se.pending().is_empty());
        for (p, &id) in preds.iter().zip(&ids) {
            assert_eq!(p.node, id);
            assert!(p.prediction < 3);
            assert!((1..=3).contains(&p.depth));
        }
        assert!(se.macs_total() > 0);
    }

    #[test]
    fn flushed_arrivals_match_static_engine_on_final_graph() {
        // A seeded script of arrivals (some neighbourless, so the graph
        // ends disconnected) and edges, then one flush: every read must
        // equal a static engine deployed on the final materialized graph.
        let (g, _, t) = trained(250, 3);
        let mut se = engine_from(&t, &g);
        let mut rng = StdRng::seed_from_u64(123);
        let mut arrivals = Vec::new();
        let (mut isolated, mut edges) = (0usize, 0usize);
        for step in 0..40 {
            let n = se.graph().num_nodes() as u32;
            if step % 4 == 3 {
                let (u, v) = (rng.gen_range(0..n), rng.gen_range(0..n));
                edges += usize::from(u != v && se.observe_edge(u, v));
                continue;
            }
            let feats: Vec<f32> = (0..8).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let degree = rng.gen_range(0..4);
            isolated += usize::from(degree == 0);
            let nbrs: Vec<u32> = (0..degree).map(|_| rng.gen_range(0..n)).collect();
            arrivals.push(se.ingest(&feats, &nbrs));
        }
        assert!(isolated > 0 && edges > 0, "script must include both");
        let distance = InferenceConfig::distance(0.4, 1, 3);
        let stream = se.flush(&distance);

        // Static replay on the final graph.
        let labels: Vec<u32> = (0..se.graph().num_nodes())
            .map(|i| (i % 3) as u32)
            .collect();
        let final_graph = se.graph().snapshot_graph(labels.clone(), 3);
        let ckpt = nai_core::checkpoint::ModelCheckpoint::from_engine(&t.engine, 0.5);
        let static_engine = ckpt.deploy(&final_graph);
        let stat = static_engine.infer(&arrivals, &labels, &distance);
        let stream_preds: Vec<usize> = stream.iter().map(|p| p.prediction).collect();
        let stream_depths: Vec<usize> = stream.iter().map(|p| p.depth).collect();
        assert_eq!(stat.predictions, stream_preds);
        assert_eq!(stat.depths, stream_depths);
        let all: Vec<u32> = (0..se.graph().num_nodes() as u32).collect();
        for cfg in [
            InferenceConfig::fixed(3),
            distance,
            InferenceConfig::gate(1, 3),
        ] {
            let stat = static_engine.infer(&all, &labels, &cfg);
            let want: Vec<(usize, usize)> = stat.predictions.into_iter().zip(stat.depths).collect();
            assert_eq!(se.infer_nodes(&all, &cfg), want, "{:?}", cfg.nap);
        }
        // The propagated features themselves, bit for bit: one summation
        // order, and weights equal to `Â`'s entries.
        let bits =
            |m: &DenseMatrix| -> Vec<u32> { m.as_slice().iter().map(|x| x.to_bits()).collect() };
        let (want, _, _) = static_engine.propagate_only(&all, 3);
        for (l, (a, b)) in want.iter().zip(&propagate(&se, &all, 3)).enumerate() {
            assert_eq!(bits(a), bits(b), "depth {l}");
        }
    }

    /// `X^(0..=depth)` of `nodes` through the dynamic view: the kernel at
    /// fixed depth with a capturing head, as `NaiEngine::propagate_only`.
    fn propagate(se: &StreamingEngine, nodes: &[u32], depth: usize) -> Vec<DenseMatrix> {
        let cfg = InferenceConfig {
            batch_size: nodes.len(),
            ..InferenceConfig::fixed(depth)
        };
        let captured = std::cell::RefCell::new(Vec::new());
        let capture = |_: usize, feats: &[DenseMatrix]| {
            *captured.borrow_mut() = feats.to_vec();
            DenseMatrix::zeros(feats[0].rows(), 1)
        };
        let heads = Heads {
            forward: &capture,
            macs_per_node: &|_| 0,
        };
        let view = DynamicView {
            graph: &se.graph,
            norm: &se.norm,
        };
        let mut scratch = EngineScratch::new();
        ReadKernel::new(&cfg, depth, None, 0.0).run(
            &view,
            nodes,
            heads,
            &mut scratch,
            |_| 0,
            &mut Tally::default(),
            |_, _, _| {},
        );
        captured.into_inner()
    }

    #[test]
    fn observe_edge_changes_later_predictions_only() {
        let (g, _, t) = trained(150, 2);
        let mut se = engine_from(&t, &g);
        let u = 0u32;
        let v = (1..150u32).find(|&x| !se.graph().has_edge(u, x)).unwrap();
        let before_edges = se.graph().num_edges();
        assert!(se.observe_edge(u, v));
        assert!(!se.observe_edge(u, v));
        assert_eq!(se.graph().num_edges(), before_edges + 1);
        // The engine still answers (graph consistency after edge arrival).
        let res = se.infer_nodes(&[u, v], &InferenceConfig::fixed(2));
        assert_eq!(res.len(), 2);
    }

    #[test]
    fn micro_batching_respects_batch_size() {
        let (g, _, t) = trained(150, 2);
        let mut se = engine_from(&t, &g);
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..10 {
            let feats: Vec<f32> = (0..8).map(|_| rng.gen_range(-1.0..1.0)).collect();
            se.ingest(&feats, &[0, 1]);
        }
        let cfg = InferenceConfig {
            batch_size: 3,
            ..InferenceConfig::fixed(2)
        };
        let preds = se.flush(&cfg);
        assert_eq!(preds.len(), 10);
        // 10 arrivals in batches of 3 → 4 distinct micro-batch latencies
        // at most; every node in one batch shares its latency.
        let distinct: std::collections::HashSet<u128> =
            preds.iter().map(|p| p.latency.as_nanos()).collect();
        assert!(distinct.len() <= 4);
    }

    #[test]
    fn isolated_arrival_is_classified() {
        let (g, _, t) = trained(120, 2);
        let mut se = engine_from(&t, &g);
        se.ingest(&[0.3; 8], &[]);
        let preds = se.flush(&InferenceConfig::distance(0.5, 1, 2));
        assert_eq!(preds.len(), 1);
        assert!(preds[0].prediction < 3);
    }

    #[test]
    fn gate_mode_without_gates_panics_in_stream_too() {
        let (g, _, t) = trained(100, 2);
        let ckpt = nai_core::checkpoint::ModelCheckpoint::from_engine(&t.engine, 0.5);
        let mut se = StreamingEngine::new(
            DynamicGraph::from_graph(&g),
            ckpt.build_classifiers(),
            None,
            0.5,
        );
        se.ingest(&[0.0; 8], &[0]);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            se.flush(&InferenceConfig::gate(1, 2))
        }));
        assert!(result.is_err());
    }

    #[test]
    fn flush_with_nothing_pending_is_empty() {
        let (g, _, t) = trained(100, 2);
        let mut se = engine_from(&t, &g);
        let preds = se.flush(&InferenceConfig::fixed(2));
        assert!(preds.is_empty());
    }

    #[test]
    fn duplicate_neighbor_ids_in_ingest_collapse() {
        let (g, _, t) = trained(100, 2);
        let mut se = engine_from(&t, &g);
        let id = se.ingest(&[0.2; 8], &[3, 3, 3, 7]);
        assert_eq!(se.graph().degree(id), 2);
        let preds = se.flush(&InferenceConfig::fixed(2));
        assert_eq!(preds.len(), 1);
    }

    #[test]
    fn parallel_spmm_knob_is_bit_identical_in_stream() {
        let (g, split, t) = trained(300, 3);
        let mut serial_engine = engine_from(&t, &g);
        let mut parallel_engine = engine_from(&t, &g);
        for cfg in [
            InferenceConfig::fixed(3),
            InferenceConfig::distance(0.5, 1, 3),
        ] {
            let a = serial_engine.infer_nodes(&split.test, &cfg);
            let b = parallel_engine.infer_nodes(&split.test, &cfg.with_parallel_spmm(true));
            assert_eq!(a, b, "{:?}", cfg.nap);
        }
        assert_eq!(serial_engine.macs_total(), parallel_engine.macs_total());
    }

    #[test]
    fn upper_bound_mode_streams() {
        let (g, _, t) = trained(150, 3);
        let mut se = engine_from(&t, &g);
        for i in 0..6u32 {
            se.ingest(&[0.1 * i as f32; 8], &[i, i + 1]);
        }
        let preds = se.flush(&InferenceConfig::upper_bound(0.5, 1, 3));
        assert_eq!(preds.len(), 6);
        assert!(preds.iter().all(|p| (1..=3).contains(&p.depth)));
    }

    #[test]
    fn arrivals_see_previous_arrivals() {
        // A second arrival may attach to the first one — ids are live
        // immediately.
        let (g, _, t) = trained(80, 2);
        let mut se = engine_from(&t, &g);
        let a = se.ingest(&[0.5; 8], &[0]);
        let b = se.ingest(&[0.6; 8], &[a]);
        assert!(se.graph().has_edge(a, b));
        let preds = se.flush(&InferenceConfig::distance(0.5, 1, 2));
        assert_eq!(preds.len(), 2);
    }

    #[test]
    fn shard_replicas_share_lambda2_and_agree_with_solo_engine() {
        let (g, split, t) = trained(200, 2);
        let ckpt = nai_core::checkpoint::ModelCheckpoint::from_engine(&t.engine, 0.5);
        let seed = DynamicGraph::from_graph(&g);
        let mut shards = StreamingEngine::shard_replicas(&ckpt, &seed, 3);
        assert_eq!(shards.len(), 3);
        let mut solo = StreamingEngine::from_checkpoint(&ckpt, seed);
        let solo_l2 = solo.lambda2();
        let cfg = InferenceConfig::distance(0.5, 1, 2);
        let reference = solo.infer_nodes(&split.test, &cfg);
        for shard in &mut shards {
            // One estimate function over one seed: bit-equal everywhere.
            assert_eq!(shard.lambda2(), solo_l2);
            assert_eq!(shard.infer_nodes(&split.test, &cfg), reference);
        }
        // Shards are independent: a mutation on one is invisible to the
        // others.
        let before = shards[1].graph().num_nodes();
        shards[0].ingest(&[0.1; 8], &[0, 1]);
        assert_eq!(shards[1].graph().num_nodes(), before);
        assert_eq!(shards[0].graph().num_nodes(), before + 1);
    }

    /// λ₂ as the engine estimated it eagerly at construction before the
    /// estimate became lazy: over the whole graph it is deployed on.
    fn eager_lambda2(g: &DynamicGraph, gamma: f32) -> f32 {
        let norm = normalized_adjacency(&g.snapshot_csr(), Convolution::Gamma(gamma));
        norm.lambda2_estimate(100, 0x57e4).min(0.999)
    }

    #[test]
    fn lambda2_is_estimated_only_when_nap_u_reads_it() {
        let (g, split, t) = trained(200, 3);
        let ckpt = nai_core::checkpoint::ModelCheckpoint::from_engine(&t.engine, 0.5);
        let seed = DynamicGraph::from_graph(&g);
        let mut engines = StreamingEngine::shard_replicas(&ckpt, &seed, 3);
        engines.push(StreamingEngine::from_checkpoint(&ckpt, seed.clone()));
        engines.push(StreamingEngine::new(
            seed,
            ckpt.build_classifiers(),
            ckpt.build_gates(),
            0.5,
        ));
        for se in &mut engines {
            for cfg in [
                InferenceConfig::fixed(3),
                InferenceConfig::distance(0.5, 1, 3),
                InferenceConfig::gate(1, 3),
            ] {
                se.infer_nodes(&split.test, &cfg);
            }
            se.ingest(&[0.1; 8], &[0, 1]);
            se.observe_edge(2, 199);
            se.flush(&InferenceConfig::distance(0.5, 1, 3));
            assert!(se.lambda2.get().is_none(), "estimated without a reader");
        }
        // A NAP_u read through one replica fills the cell all three
        // share; the other deployments keep their own, still empty.
        engines[1].infer_nodes(&split.test, &InferenceConfig::upper_bound(0.5, 1, 3));
        for (i, se) in engines.iter().enumerate() {
            assert_eq!(se.lambda2.get().is_some(), i < 3, "engine {i}");
        }
    }

    #[test]
    fn forced_lambda2_is_bit_identical_to_the_eager_estimate() {
        let g = generate(
            &GeneratorConfig {
                num_nodes: 2000,
                num_classes: 3,
                feature_dim: 8,
                avg_degree: 8.0,
                ..Default::default()
            },
            &mut StdRng::seed_from_u64(41),
        );
        let classifiers = || {
            let mut rng = StdRng::seed_from_u64(42);
            (1..=2)
                .map(|d| DepthClassifier::new(ModelKind::Sgc, d, 8, 3, &[8], 0.0, &mut rng))
                .collect::<Vec<_>>()
        };
        let seed = DynamicGraph::from_graph(&g);
        let want = eager_lambda2(&seed, 0.5);
        // Growth after deploy never moves the estimate: it is the seed's.
        let mut se = StreamingEngine::new(seed.clone(), classifiers(), None, 0.5);
        for i in 0..50u32 {
            se.ingest(&[0.1; 8], &[i, 3 * i + 1]);
        }
        assert!(se.observe_edge(0, 2049));
        assert_eq!(se.lambda2().to_bits(), want.to_bits());

        // A graph that grew before deploy is re-frozen, so the estimate
        // is over the graph as deployed, as the eager one was.
        let mut grown = seed.clone();
        for i in 0..50u32 {
            grown.add_node(&[0.2; 8], &[i, 5 * i + 3]);
        }
        grown.add_edge(1, 2040);
        let se = StreamingEngine::new(grown.clone(), classifiers(), None, 0.5);
        assert!(!se.graph().shares_seed(&grown), "re-frozen at deploy");
        assert_eq!(se.lambda2().to_bits(), eager_lambda2(&grown, 0.5).to_bits());
        // Replicas of the grown graph share the one re-frozen seed.
        let ckpt = ModelCheckpoint::from_engine(&trained(60, 2).2.engine, 0.5);
        let shards = StreamingEngine::shard_replicas(&ckpt, &grown, 3);
        assert!(!shards[0].graph().shares_seed(&grown));
        assert!(shards
            .iter()
            .all(|s| s.graph().shares_seed(shards[0].graph())));
        assert_eq!(
            shards[2].lambda2().to_bits(),
            eager_lambda2(&grown, 0.5).to_bits()
        );
    }

    #[test]
    fn shard_replicas_copy_a_stationary_state_equal_to_a_fresh_deploy() {
        let (g, _, t) = trained(150, 2);
        let ckpt = nai_core::checkpoint::ModelCheckpoint::from_engine(&t.engine, 0.5);
        let seed = DynamicGraph::from_graph(&g);
        let mut engines = StreamingEngine::shard_replicas(&ckpt, &seed, 3);
        engines.push(StreamingEngine::from_checkpoint(&ckpt, seed));
        let bits = |se: &StreamingEngine| -> Vec<u32> {
            let full = se.stationary.full();
            full.as_slice().iter().map(|x| x.to_bits()).collect()
        };
        let want = bits(&engines[3]);
        assert!(engines.iter().all(|se| bits(se) == want), "at deploy");
        // The same mutations keep them equal, and equal to a deploy on
        // the grown graph.
        let mut rng = StdRng::seed_from_u64(29);
        for _ in 0..200 {
            let n = engines[0].graph().num_nodes() as u32;
            let feats: Vec<f32> = (0..8).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let nbrs: Vec<u32> = (0..rng.gen_range(0..3))
                .map(|_| rng.gen_range(0..n))
                .collect();
            let (u, v) = (rng.gen_range(0..n), rng.gen_range(0..n));
            for se in &mut engines {
                se.apply_replicated_ingest(&feats, &nbrs);
                if u != v {
                    se.apply_replicated_edge(u, v);
                }
            }
        }
        let want = bits(&StreamingEngine::from_checkpoint(
            &ckpt,
            engines[0].graph().clone(),
        ));
        for (i, se) in engines.iter().enumerate() {
            assert_eq!(bits(se), want, "engine {i} after growth");
        }
    }

    #[test]
    fn shard_replicas_share_one_seed_through_growth() {
        let (g, _, t) = trained(150, 2);
        let ckpt = nai_core::checkpoint::ModelCheckpoint::from_engine(&t.engine, 0.5);
        let seed = DynamicGraph::from_graph(&g);
        let mut shards = StreamingEngine::shard_replicas(&ckpt, &seed, 3);
        assert!(shards.iter().all(|s| s.graph().shares_seed(&seed)));
        assert!(
            shards.iter().all(|s| s.graph().owned_rows() == 0),
            "replicas read every adjacency row from the seed"
        );
        let mut rng = StdRng::seed_from_u64(17);
        let mut touched = std::collections::BTreeSet::new();
        for step in 0..1000 {
            let n = shards[0].graph().num_nodes() as u32;
            if step % 2 == 0 {
                let feats: Vec<f32> = (0..8).map(|_| rng.gen_range(-1.0..1.0)).collect();
                let nbrs: Vec<u32> = (0..3).map(|_| rng.gen_range(0..n)).collect();
                shards[0].apply_replicated_ingest(&feats, &nbrs);
                touched.extend(nbrs.into_iter().filter(|&u| u < 150));
            } else {
                let (u, v) = (rng.gen_range(0..n), rng.gen_range(0..n));
                if u != v && shards[0].apply_replicated_edge(u, v) {
                    touched.extend([u, v].into_iter().filter(|&w| w < 150));
                }
            }
        }
        assert_eq!(shards[0].graph().num_nodes(), 650);
        assert!(
            shards[0].graph().shares_seed(&seed),
            "growth keeps the seed"
        );
        assert!(touched.len() < 150, "some seed rows are never written");
        assert_eq!(
            shards[0].graph().owned_rows(),
            500 + touched.len(),
            "the arrivals' rows plus one per seed row written"
        );
        for s in &shards[1..] {
            assert!(s.graph().shares_seed(&seed));
            assert_eq!(s.graph().owned_rows(), 0);
            assert_eq!(s.graph().num_nodes(), 150, "siblings untouched");
            assert_eq!(s.graph().num_edges(), g.num_edges(), "siblings untouched");
        }
    }

    #[test]
    fn replicated_apply_matches_direct_mutations_without_pending() {
        // A replica fed apply_replicated_* must end in the same graph +
        // stationary state as an engine fed the direct mutation path,
        // with the same replication MAC count — only the inference
        // queueing differs.
        let (g, _, t) = trained(120, 2);
        let mut direct = engine_from(&t, &g);
        let mut replica = engine_from(&t, &g);
        let id_d = direct.ingest(&[0.3; 8], &[0, 4, 4, 9]);
        let id_r = replica.apply_replicated_ingest(&[0.3; 8], &[0, 4, 4, 9]);
        assert_eq!(id_d, id_r);
        let v = (1..120u32)
            .find(|&x| !direct.graph().has_edge(0, x))
            .unwrap();
        assert!(direct.observe_edge(0, v));
        assert!(replica.apply_replicated_edge(0, v));
        assert!(!replica.apply_replicated_edge(0, v), "dedup agrees");
        assert!(!direct.observe_edge(0, v));

        assert_eq!(direct.pending(), &[id_d], "direct path queues inference");
        assert!(replica.pending().is_empty(), "replicated path does not");
        assert!(direct.macs_breakdown().replication > 0);
        assert_eq!(
            direct.macs_breakdown().replication,
            replica.macs_breakdown().replication,
            "identical mutation work on both paths"
        );
        // State convergence: identical adjacency and stationary rows.
        let (a, b) = (
            direct.graph().snapshot_csr(),
            replica.graph().snapshot_csr(),
        );
        assert_eq!(a.nnz(), b.nnz());
        for i in 0..direct.graph().num_nodes() {
            assert_eq!(a.row_indices(i), b.row_indices(i), "row {i}");
        }
        // The direct engine's flush answers only its own pending node;
        // afterwards both replicas classify the ingested node equally.
        let cfg = InferenceConfig::distance(0.5, 1, 2);
        let preds = direct.flush(&cfg);
        assert_eq!(preds.len(), 1);
        let on_replica = replica.infer_nodes(&[id_r], &cfg);
        assert_eq!(
            (preds[0].prediction, preds[0].depth),
            on_replica[0],
            "replica answers the replicated node identically"
        );
    }

    #[test]
    fn macs_breakdown_sums_to_total_and_covers_stages() {
        let (g, split, t) = trained(200, 3);
        let mut se = engine_from(&t, &g);
        assert_eq!(se.macs_breakdown(), crate::stats::MacsBreakdown::default());
        se.infer_nodes(&split.test, &InferenceConfig::distance(0.5, 1, 3));
        let b = se.macs_breakdown();
        assert_eq!(b.total(), se.macs_total());
        assert!(b.propagation > 0, "propagation MACs counted");
        assert!(b.nap > 0, "distance NAP MACs counted");
        assert!(b.classification > 0, "classifier MACs counted");
        // Fixed mode spends nothing on NAP decisions.
        let mut fixed = engine_from(&t, &g);
        fixed.infer_nodes(&split.test, &InferenceConfig::fixed(2));
        assert_eq!(fixed.macs_breakdown().nap, 0);
        assert_eq!(fixed.macs_breakdown().total(), fixed.macs_total());
    }

    #[test]
    fn stage_times_accumulate_and_survive_reset() {
        let (g, split, t) = trained(200, 3);
        let mut se = engine_from(&t, &g);
        assert_eq!(se.stage_times(), StageTimes::default());
        se.infer_nodes(&split.test, &InferenceConfig::distance(0.5, 1, 3));
        let first = se.stage_times();
        assert!(first.propagation > Duration::ZERO, "propagation timed");
        assert!(
            first.classification > Duration::ZERO,
            "classification timed"
        );
        assert!(first.total() > Duration::ZERO);
        // Monotone across calls, and the per-call delta is exactly what
        // `since` reports — the serving layer's batch-attribution
        // contract.
        se.infer_nodes(&split.test[..4], &InferenceConfig::distance(0.5, 1, 3));
        let second = se.stage_times();
        assert!(second.total() >= first.total());
        assert_eq!(second.since(&first).total(), second.total() - first.total());
    }
}
