//! Per-arrival node-adaptive inference over a growing graph.
//!
//! [`StreamingEngine`] is a [`NaiEngine`] plus what only a stream needs:
//! the queue of pending arrivals, cumulative MAC and stage-time counters,
//! and one scratch. Every mutation goes through the inner engine's
//! [`crate::graph_state::GraphState`], which refreshes the factors of
//! the nodes whose degree changed — an arrival and each of its
//! neighbours, both endpoints of a new edge — and keeps the stationary
//! state in step, so propagation computes no powers. Reads run the inner
//! engine's per-batch read: on one graph the two answer alike, bit for
//! bit.
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
//!
//! A server shares one engine between threads instead: one writer
//! applies mutations ([`StreamingEngine::apply_replicated_ingest`],
//! [`StreamingEngine::observe_edge`]) and calls
//! [`StreamingEngine::refresh`], and any number of readers run
//! [`StreamingEngine::read_nodes`] through `&self`, each on its own
//! scratch and tally.

use crate::active::EngineScratch;
use crate::checkpoint::ModelCheckpoint;
use crate::config::InferenceConfig;
use crate::gates::GateSet;
use crate::inference::NaiEngine;
use crate::kernel::{ReadKernel, StageTimes, Tally};
use crate::macs::MacsBreakdown;
use nai_graph::DynamicGraph;
use nai_models::DepthClassifier;
use std::time::{Duration, Instant};

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

/// A deployed NAI model serving a stream of arrivals: a [`NaiEngine`]
/// whose state it mutates, plus the arrival queue.
pub struct StreamingEngine {
    engine: NaiEngine,
    pending: Vec<u32>,
    /// Cumulative MACs and wall time of every mutation and of the reads
    /// the engine runs on its own scratch (`infer_nodes`, `flush`).
    /// Reads charge no stationary rows: each is an `O(f)` read of cached
    /// component sums, like the updates charged under `replication`
    /// that keep them.
    tally: Tally,
    /// The stream's own workspace, reused across reads; it grows with the
    /// graph. Reads never touch the inner engine's pool, so they take no
    /// lock.
    scratch: EngineScratch,
}

impl StreamingEngine {
    /// Deploys trained classifiers (and optional gates) over a seed graph
    /// ([`NaiEngine::new`]; λ₂ as in [`Self::lambda2`]).
    ///
    /// # Panics
    /// Panics if no classifiers are supplied or they are not ordered by
    /// depth.
    pub fn new(
        graph: DynamicGraph,
        classifiers: Vec<DepthClassifier>,
        gates: Option<GateSet>,
        gamma: f32,
    ) -> Self {
        Self::serve(NaiEngine::new(graph, classifiers, gates, gamma))
    }

    /// A stream over `engine`, with nothing pending and zeroed counters.
    fn serve(engine: NaiEngine) -> Self {
        Self {
            engine,
            pending: Vec::new(),
            tally: Tally::default(),
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
        Self::serve(ckpt.deploy_dynamic(graph))
    }

    /// Highest trained depth `k`.
    pub fn k(&self) -> usize {
        self.engine.k()
    }

    /// The current graph state.
    pub fn graph(&self) -> &DynamicGraph {
        self.engine.state.graph()
    }

    /// Cumulative propagation + NAP + classification + replication MACs.
    pub fn macs_total(&self) -> u64 {
        self.tally.macs.total()
    }

    /// Cumulative MACs split by pipeline stage; `stationary` stays 0.
    /// Reads through [`Self::read_nodes`] charge their caller's tally
    /// instead, so a shared engine's own breakdown holds only its
    /// mutations (the serving layer's `replication` stage).
    pub fn macs_breakdown(&self) -> MacsBreakdown {
        self.tally.macs
    }

    /// Cumulative wall time split by pipeline stage, attributed at the
    /// same sites as [`Self::macs_breakdown`]. Like the MAC counters
    /// this is monotone: the serving layer snapshots it around each
    /// coalesced call and diffs with [`StageTimes::since`] to cost the
    /// batch it just ran.
    pub fn stage_times(&self) -> StageTimes {
        self.tally.times
    }

    /// λ₂ of the deployed seed graph ([`NaiEngine::lambda2`]): estimated
    /// the first time NAP_u or this method reads it, never at
    /// construction.
    pub fn lambda2(&self) -> f32 {
        self.engine.lambda2()
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
        let id = self.apply_replicated_ingest(features, neighbors);
        self.pending.push(id);
        id
    }

    /// Applies a node arrival as the serving layer's sequencer does:
    /// identical state change to [`Self::ingest`] (graph append +
    /// stationary state update), but the node is **not** queued — the
    /// sequencer answers the arrival with a read of its new id, routed
    /// like any other read. The op was validated when it was sequenced,
    /// so this path adds no checks beyond the graph's structural
    /// assertions, and no λ₂ work (λ₂ is a constant of the seed graph,
    /// see [`Self::lambda2`]).
    ///
    /// # Panics
    /// Panics on wrong feature length or unknown neighbor ids.
    pub fn apply_replicated_ingest(&mut self, features: &[f32], neighbors: &[u32]) -> u32 {
        let state = &mut self.engine.state;
        let id = state.add_node(features, neighbors);
        // One stationary term for the arrival plus one term swap per
        // distinct neighbour, each O(f).
        let graph = state.graph();
        self.tally.macs.replication += (graph.degree(id) as u64 + 1) * graph.feature_dim() as u64;
        id
    }

    /// Observes an edge arrival between existing nodes (e.g. a new
    /// interaction between known users). Returns `false` when the edge
    /// already existed (an `O(log d)` sorted-adjacency probe).
    ///
    /// # Panics
    /// Panics on out-of-range ids or a self-loop.
    pub fn observe_edge(&mut self, u: u32, v: u32) -> bool {
        if !self.engine.state.add_edge(u, v) {
            return false;
        }
        // Two endpoint term swaps, each O(f).
        self.tally.macs.replication += 2 * self.engine.feature_dim() as u64;
        true
    }

    /// [`Self::observe_edge`] as the serving layer's sequencer applies
    /// it: the same path, named for symmetry with
    /// [`Self::apply_replicated_ingest`].
    #[inline]
    pub fn apply_replicated_edge(&mut self, u: u32, v: u32) -> bool {
        self.observe_edge(u, v)
    }

    /// Re-rounds the stationary components that mutations since the last
    /// refresh marked stale. Reads are exact either way (a stale
    /// component is rounded on the fly); refreshing once after a run of
    /// mutations saves every later read that work.
    pub fn refresh(&mut self) {
        self.engine.state.refresh();
    }

    /// Runs node-adaptive inference on all pending arrivals in micro-
    /// batches of `cfg.batch_size`; each prediction carries its
    /// micro-batch's latency.
    ///
    /// # Panics
    /// Panics if the config fails validation or requests gates the engine
    /// does not have; every arrival then stays pending.
    pub fn flush(&mut self, cfg: &InferenceConfig) -> Vec<StreamPrediction> {
        // Mutations since the last read only marked their components
        // stale: re-round each once per read, not once per mutation. The
        // kernel validates `cfg` before the queue is taken.
        self.refresh();
        let kernel = self.engine.kernel(cfg);
        let pending = std::mem::take(&mut self.pending);
        let mut out = Vec::with_capacity(pending.len());
        for chunk in pending.chunks(cfg.batch_size) {
            let start = Instant::now();
            let results = read(
                &self.engine,
                &kernel,
                chunk,
                &mut self.scratch,
                &mut self.tally,
            );
            let latency = start.elapsed();
            out.extend(
                chunk
                    .iter()
                    .zip(results)
                    .map(|(&node, (prediction, depth))| StreamPrediction {
                        node,
                        prediction,
                        depth,
                        latency,
                    }),
            );
        }
        out
    }

    /// Algorithm 1 over the current graph for explicit `nodes` (they must
    /// already be in the graph), as one kernel batch whatever
    /// `cfg.batch_size` is. Returns `(prediction, depth)` per node.
    ///
    /// # Panics
    /// Panics on invalid config, missing gates, or unknown node ids.
    pub fn infer_nodes(&mut self, nodes: &[u32], cfg: &InferenceConfig) -> Vec<(usize, usize)> {
        self.refresh();
        let kernel = self.engine.kernel(cfg);
        read(
            &self.engine,
            &kernel,
            nodes,
            &mut self.scratch,
            &mut self.tally,
        )
    }

    /// [`Self::infer_nodes`] through a shared reference, on the caller's
    /// `scratch` and charged to the caller's `tally` — so any number of
    /// threads may read one engine at once. Bit-equal to
    /// [`Self::infer_nodes`] whether or not the engine was refreshed.
    ///
    /// # Panics
    /// As [`Self::infer_nodes`].
    pub fn read_nodes(
        &self,
        nodes: &[u32],
        cfg: &InferenceConfig,
        scratch: &mut EngineScratch,
        tally: &mut Tally,
    ) -> Vec<(usize, usize)> {
        read(
            &self.engine,
            &self.engine.kernel(cfg),
            nodes,
            scratch,
            tally,
        )
    }
}

/// One kernel batch of `nodes` through `engine` on `scratch`, charged to
/// the cumulative `tally`. Returns
/// `(prediction, depth)` per node.
fn read(
    engine: &NaiEngine,
    kernel: &ReadKernel<'_>,
    nodes: &[u32],
    scratch: &mut EngineScratch,
    tally: &mut Tally,
) -> Vec<(usize, usize)> {
    let mut results = vec![(usize::MAX, 0usize); nodes.len()];
    // Detached for the call: if the kernel panics, the scratch (its
    // column map possibly still stamped) is dropped, not reused.
    let mut detached = std::mem::take(scratch);
    engine.read_batch(kernel, None, nodes, &mut detached, tally, |row, p, d| {
        results[row] = (p, d)
    });
    *scratch = detached;
    // A stream charges no stationary rows (see `StreamingEngine::tally`).
    tally.macs.stationary = 0;
    results
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PipelineConfig;
    use crate::pipeline::NaiPipeline;
    use nai_graph::generators::{generate, GeneratorConfig};
    use nai_graph::{normalized_adjacency, Convolution, Graph, InductiveSplit};
    use nai_linalg::DenseMatrix;
    use nai_models::ModelKind;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn trained(n: usize, k: usize) -> (Graph, InductiveSplit, crate::pipeline::TrainedNai) {
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
            distill: crate::config::DistillConfig {
                epochs: 8,
                ensemble_r: 2,
                ..Default::default()
            },
            ..PipelineConfig::default()
        };
        let t = NaiPipeline::new(ModelKind::Sgc, cfg).train(&g, &split, true);
        (g, split, t)
    }

    fn engine_from(t: &crate::pipeline::TrainedNai, g: &Graph) -> StreamingEngine {
        let ckpt = crate::checkpoint::ModelCheckpoint::from_engine(&t.engine, 0.5);
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
        // The read-only handle, before the flush refreshes the stale
        // stationary components: the same bits as the refreshed read.
        let labels: Vec<u32> = (0..se.graph().num_nodes())
            .map(|i| (i % 3) as u32)
            .collect();
        let handle = se.engine.infer(&arrivals, &labels, &distance);
        let stream = se.flush(&distance);

        // Static replay on the final graph.
        let final_graph = se.graph().snapshot_graph(labels.clone(), 3);
        let ckpt = crate::checkpoint::ModelCheckpoint::from_engine(&t.engine, 0.5);
        let static_engine = ckpt.deploy(&final_graph);
        let stat = static_engine.infer(&arrivals, &labels, &distance);
        let stream_preds: Vec<usize> = stream.iter().map(|p| p.prediction).collect();
        let stream_depths: Vec<usize> = stream.iter().map(|p| p.depth).collect();
        assert_eq!(stat.predictions, stream_preds);
        assert_eq!(stat.depths, stream_depths);
        assert_eq!(handle.predictions, stream_preds);
        assert_eq!(handle.depths, stream_depths);
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
        let (got, _, _) = se.engine.propagate_only(&all, 3);
        for (l, (a, b)) in want.iter().zip(&got).enumerate() {
            assert_eq!(bits(a), bits(b), "depth {l}");
        }
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
        let ckpt = crate::checkpoint::ModelCheckpoint::from_engine(&t.engine, 0.5);
        let mut se = StreamingEngine::new(
            DynamicGraph::from_graph(&g),
            ckpt.build_classifiers(),
            None,
            0.5,
        );
        let id = se.ingest(&[0.0; 8], &[0]);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            se.flush(&InferenceConfig::gate(1, 2))
        }));
        assert!(result.is_err());
        // The rejected flush dequeued nothing: the arrival is still
        // pending, and the next valid flush answers it.
        assert_eq!(se.pending(), &[id]);
        let preds = se.flush(&InferenceConfig::distance(0.5, 1, 2));
        assert_eq!(preds.len(), 1);
        assert_eq!(preds[0].node, id);
        assert!(se.pending().is_empty());
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

    /// λ₂ as the engine estimated it eagerly at construction before the
    /// estimate became lazy: over the whole graph it is deployed on.
    fn eager_lambda2(g: &DynamicGraph, gamma: f32) -> f32 {
        let norm = normalized_adjacency(&g.snapshot_csr(), Convolution::Gamma(gamma));
        norm.lambda2_estimate(100, 0x57e4).min(0.999)
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
    }

    #[test]
    fn growth_keeps_the_stationary_state_equal_to_a_fresh_deploy() {
        let (g, _, t) = trained(150, 2);
        let ckpt = crate::checkpoint::ModelCheckpoint::from_engine(&t.engine, 0.5);
        let mut se = StreamingEngine::from_checkpoint(&ckpt, DynamicGraph::from_graph(&g));
        let bits = |se: &StreamingEngine| -> Vec<u32> {
            let full = se.engine.state.stationary().full();
            full.as_slice().iter().map(|x| x.to_bits()).collect()
        };
        let mut rng = StdRng::seed_from_u64(29);
        for _ in 0..200 {
            let n = se.graph().num_nodes() as u32;
            let feats: Vec<f32> = (0..8).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let nbrs: Vec<u32> = (0..rng.gen_range(0..3))
                .map(|_| rng.gen_range(0..n))
                .collect();
            let (u, v) = (rng.gen_range(0..n), rng.gen_range(0..n));
            se.apply_replicated_ingest(&feats, &nbrs);
            if u != v {
                se.apply_replicated_edge(u, v);
            }
        }
        se.refresh();
        let fresh = StreamingEngine::from_checkpoint(&ckpt, se.graph().clone());
        assert_eq!(bits(&se), bits(&fresh), "after growth");
    }

    #[test]
    fn growth_keeps_the_seed_and_owns_only_the_rows_it_writes() {
        let (g, _, t) = trained(150, 2);
        let ckpt = crate::checkpoint::ModelCheckpoint::from_engine(&t.engine, 0.5);
        let seed = DynamicGraph::from_graph(&g);
        let mut se = StreamingEngine::from_checkpoint(&ckpt, seed.clone());
        assert!(se.graph().shares_seed(&seed));
        let mut rng = StdRng::seed_from_u64(17);
        let mut touched = std::collections::BTreeSet::new();
        for step in 0..1000 {
            let n = se.graph().num_nodes() as u32;
            if step % 2 == 0 {
                let feats: Vec<f32> = (0..8).map(|_| rng.gen_range(-1.0..1.0)).collect();
                let nbrs: Vec<u32> = (0..3).map(|_| rng.gen_range(0..n)).collect();
                se.apply_replicated_ingest(&feats, &nbrs);
                touched.extend(nbrs.into_iter().filter(|&u| u < 150));
            } else {
                let (u, v) = (rng.gen_range(0..n), rng.gen_range(0..n));
                if u != v && se.apply_replicated_edge(u, v) {
                    touched.extend([u, v].into_iter().filter(|&w| w < 150));
                }
            }
        }
        assert_eq!(se.graph().num_nodes(), 650);
        assert!(se.graph().shares_seed(&seed), "growth keeps the seed");
        assert!(touched.len() < 150, "some seed rows are never written");
        for v in (0..150u32).filter(|v| !touched.contains(v)) {
            assert_eq!(se.graph().neighbors(v), seed.neighbors(v), "row {v}");
        }
        assert_eq!(seed.num_nodes(), 150, "the seed itself is untouched");
        assert_eq!(
            seed.num_edges(),
            g.num_edges(),
            "the seed itself is untouched"
        );
    }

    #[test]
    fn shared_reads_match_infer_nodes_and_charge_the_callers_tally() {
        // Reads through `&self`, before any refresh, on the caller's
        // scratch: the bits of a refreshing `infer_nodes`, with the
        // engine's own tally left to its mutations.
        let (g, split, t) = trained(200, 3);
        let mut se = engine_from(&t, &g);
        let mut oracle = engine_from(&t, &g);
        let mut rng = StdRng::seed_from_u64(61);
        for _ in 0..20 {
            let feats: Vec<f32> = (0..8).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let nbrs: Vec<u32> = (0..2).map(|_| rng.gen_range(0..200u32)).collect();
            se.apply_replicated_ingest(&feats, &nbrs);
            oracle.apply_replicated_ingest(&feats, &nbrs);
        }
        let mutations = se.macs_breakdown();
        let (mut scratch, mut tally) = (EngineScratch::new(), Tally::default());
        for cfg in [
            InferenceConfig::fixed(3),
            InferenceConfig::distance(0.5, 1, 3),
            InferenceConfig::upper_bound(0.5, 1, 3),
        ] {
            let want = oracle.infer_nodes(&split.test, &cfg);
            let got = se.read_nodes(&split.test, &cfg, &mut scratch, &mut tally);
            assert_eq!(got, want, "{:?}", cfg.nap);
        }
        assert_eq!(
            se.macs_breakdown(),
            mutations,
            "the engine's tally is untouched"
        );
        assert_eq!(
            tally.macs.total() + mutations.total(),
            oracle.macs_total(),
            "the reads charged the caller what they charge the engine"
        );
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
        assert_eq!(se.macs_breakdown(), MacsBreakdown::default());
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
