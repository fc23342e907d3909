//! Per-arrival node-adaptive inference over a growing graph.
//!
//! [`StreamingEngine`] is Algorithm 1 re-hosted on [`DynamicGraph`]:
//! supporting frontiers come from BFS over adjacency lists, and the
//! normalized-adjacency weight `d̃_i^(γ−1) d̃_j^(−γ)` of Eq. (1) is the
//! product of two per-node factors the engine caches and refreshes at
//! mutation time — for an arrival and each of its neighbours, and for
//! both endpoints of a new edge — so arrivals never invalidate a stored
//! matrix and propagation computes no powers. The depth-1 step gathers
//! raw feature rows in place from the graph; later steps gather from the
//! previous step's output. The stationary reference comes from
//! [`IncrementalStationary`] in `O(f)` per arrival.
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
use crate::stationary::IncrementalStationary;
use crate::stats::{LatencyStats, MacsBreakdown, StageTimes};
use crate::sync::time::Instant;
use nai_core::active::EngineScratch;
use nai_core::config::{InferenceConfig, NapMode};
use nai_core::gates::GateSet;
use nai_core::napd;
use nai_core::upper_bound::spectral_bound;
use nai_graph::normalized_adjacency;
use nai_graph::Convolution;
use nai_linalg::ops::{argmax_rows, l2_distance};
use nai_linalg::DenseMatrix;
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

/// Contiguous-span stopwatch behind [`StreamingEngine::stage_times`]:
/// `infer_nodes_inner` calls one of the stage methods at each
/// attribution boundary (the same sites where [`MacsBreakdown`] is
/// charged), attributing everything since the previous boundary to
/// that stage. The spans partition the call's wall time — no interior
/// interval goes unattributed — so summed stage times track the engine
/// call's duration to within the cost of the `Instant::now` reads
/// themselves (a handful per propagation depth).
struct StageClock {
    mark: Instant,
    acc: StageTimes,
}

impl StageClock {
    fn new() -> Self {
        StageClock {
            mark: Instant::now(),
            acc: StageTimes::default(),
        }
    }

    fn lap(&mut self) -> Duration {
        let now = Instant::now();
        let span = now.saturating_duration_since(self.mark);
        self.mark = now;
        span
    }

    fn propagation(&mut self) {
        let span = self.lap();
        self.acc.propagation += span;
    }

    fn nap(&mut self) {
        let span = self.lap();
        self.acc.nap += span;
    }

    fn classification(&mut self) {
        let span = self.lap();
        self.acc.classification += span;
    }
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
    stationary: IncrementalStationary,
    classifiers: Vec<DepthClassifier>,
    gates: Option<GateSet>,
    gamma: f32,
    lambda2: f32,
    /// Per-node Eq. (1) factors, kept in step with the graph's degrees
    /// by every mutation.
    norm: Vec<NormFactors>,
    pending: Vec<u32>,
    stats: LatencyStats,
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
    /// λ₂ is estimated once from the seed graph and treated as a
    /// deployment constant thereafter (it drifts only with large
    /// topology changes; re-deploy to refresh it).
    ///
    /// # Panics
    /// Panics if no classifiers are supplied, they are not ordered by
    /// depth, or dimensions disagree with the graph.
    pub fn new(
        graph: DynamicGraph,
        classifiers: Vec<DepthClassifier>,
        gates: Option<GateSet>,
        gamma: f32,
    ) -> Self {
        let lambda2 = Self::estimate_lambda2(&graph, gamma);
        Self::with_lambda2(graph, classifiers, gates, gamma, lambda2)
    }

    /// [`Self::new`] with a precomputed λ₂ — the shard hand-off path:
    /// when many engine replicas are deployed from one checkpoint (e.g.
    /// the `nai-serve` worker pool), λ₂ is estimated once on the seed
    /// graph and handed to every shard instead of being re-estimated
    /// per replica.
    ///
    /// # Panics
    /// Panics if no classifiers are supplied or they are not ordered by
    /// depth.
    pub fn with_lambda2(
        graph: DynamicGraph,
        classifiers: Vec<DepthClassifier>,
        gates: Option<GateSet>,
        gamma: f32,
        lambda2: f32,
    ) -> Self {
        assert!(!classifiers.is_empty(), "need at least one classifier");
        for (i, c) in classifiers.iter().enumerate() {
            assert_eq!(c.depth(), i + 1, "classifiers must be ordered by depth");
        }
        let stationary = IncrementalStationary::from_dynamic(&graph, gamma);
        let norm = (0..graph.num_nodes() as u32)
            .map(|v| NormFactors::of(graph.degree(v), gamma))
            .collect();
        Self {
            graph,
            stationary,
            classifiers,
            gates,
            gamma,
            lambda2,
            norm,
            pending: Vec::new(),
            stats: LatencyStats::new(),
            macs: MacsBreakdown::default(),
            stage_times: StageTimes::default(),
            scratch: EngineScratch::new(),
        }
    }

    fn estimate_lambda2(graph: &DynamicGraph, gamma: f32) -> f32 {
        if graph.num_nodes() >= 2 {
            let csr = graph.snapshot_csr();
            let norm = normalized_adjacency(&csr, Convolution::Gamma(gamma));
            norm.lambda2_estimate(100, 0x57e4).min(0.999)
        } else {
            0.9
        }
    }

    /// Deploys a [`nai_core::checkpoint::ModelCheckpoint`] over a seed
    /// graph.
    ///
    /// # Panics
    /// Panics if the graph's feature dimension disagrees with the
    /// checkpoint.
    pub fn from_checkpoint(
        ckpt: &nai_core::checkpoint::ModelCheckpoint,
        graph: DynamicGraph,
    ) -> Self {
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

    /// [`Self::from_checkpoint`] with a precomputed λ₂ (see
    /// [`Self::with_lambda2`]).
    ///
    /// # Panics
    /// Panics if the graph's feature dimension disagrees with the
    /// checkpoint.
    pub fn from_checkpoint_with_lambda2(
        ckpt: &nai_core::checkpoint::ModelCheckpoint,
        graph: DynamicGraph,
        lambda2: f32,
    ) -> Self {
        assert_eq!(
            graph.feature_dim(),
            ckpt.feature_dim,
            "graph feature dim must match checkpoint"
        );
        Self::with_lambda2(
            graph,
            ckpt.build_classifiers(),
            ckpt.build_gates(),
            ckpt.gamma,
            lambda2,
        )
    }

    /// Builds `n` independent engine replicas ("shards") from one
    /// checkpoint and seed graph: λ₂ is estimated once, then every
    /// shard gets its own graph copy, stationary accumulators, and
    /// scratch. Shards share no state at runtime; the `nai-serve`
    /// layer keeps them convergent by broadcasting every mutation to
    /// every replica in one global sequence order (see
    /// [`Self::apply_replicated_ingest`] /
    /// [`Self::apply_replicated_edge`]), so any replica can serve any
    /// node.
    ///
    /// # Panics
    /// Panics if `n == 0` or the graph's feature dimension disagrees
    /// with the checkpoint.
    pub fn shard_replicas(
        ckpt: &nai_core::checkpoint::ModelCheckpoint,
        seed: &DynamicGraph,
        n: usize,
    ) -> Vec<Self> {
        assert!(n > 0, "need at least one shard");
        let lambda2 = Self::estimate_lambda2(seed, ckpt.gamma);
        (0..n)
            .map(|_| Self::from_checkpoint_with_lambda2(ckpt, seed.clone(), lambda2))
            .collect()
    }

    /// Highest trained depth `k`.
    pub fn k(&self) -> usize {
        self.classifiers.len()
    }

    /// The current graph state.
    pub fn graph(&self) -> &DynamicGraph {
        &self.graph
    }

    /// Latency statistics over everything flushed so far.
    pub fn stats(&self) -> &LatencyStats {
        &self.stats
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
    /// this is monotone and survives [`Self::reset_stats`]: the serving
    /// layer snapshots it around each coalesced call and diffs with
    /// [`StageTimes::since`] to cost the batch it just ran.
    pub fn stage_times(&self) -> StageTimes {
        self.stage_times
    }

    /// λ₂ estimated (or handed over) at deployment.
    pub fn lambda2(&self) -> f32 {
        self.lambda2
    }

    /// Clears accumulated latency statistics.
    pub fn reset_stats(&mut self) {
        self.stats = LatencyStats::new();
    }

    /// Ids queued for the next [`Self::flush`].
    pub fn pending(&self) -> &[u32] {
        &self.pending
    }

    /// Ingests an arriving node: appends it to the graph, updates the
    /// stationary accumulators, and queues it for inference. Returns the
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
    /// [`Self::ingest`] (graph append + stationary accumulator update),
    /// but the node is **not** queued for inference — exactly one
    /// replica (the one holding the client's reply handle) pays for the
    /// prediction; every other replica only needs the state. The op was
    /// validated once when it was sequenced, so this path adds no
    /// checks beyond the graph's structural assertions, and no per-shard
    /// λ₂ work (λ₂ is a deployment constant handed over at
    /// [`Self::shard_replicas`] time).
    ///
    /// # Panics
    /// Panics on wrong feature length or unknown neighbor ids.
    pub fn apply_replicated_ingest(&mut self, features: &[f32], neighbors: &[u32]) -> u32 {
        self.apply_node_arrival(features, neighbors)
    }

    fn apply_node_arrival(&mut self, features: &[f32], neighbors: &[u32]) -> u32 {
        let mut uniq: Vec<u32> = neighbors.to_vec();
        uniq.sort_unstable();
        uniq.dedup();
        let old: Vec<(usize, Vec<f32>)> = uniq
            .iter()
            .map(|&u| (self.graph.degree(u), self.graph.feature(u).to_vec()))
            .collect();
        let id = self.graph.add_node(features, &uniq);
        self.norm.push(NormFactors::of(uniq.len(), self.gamma));
        for &u in &uniq {
            self.refresh_norm(u);
        }
        let old_refs: Vec<(usize, &[f32])> = old.iter().map(|(d, x)| (*d, x.as_slice())).collect();
        self.stationary.on_add_node(features, &old_refs);
        // One weighted row for the arrival plus one degree-delta
        // correction per touched neighbor, each O(f).
        self.macs.replication += (uniq.len() as u64 + 1) * self.graph.feature_dim() as u64;
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
        let (du, dv) = (self.graph.degree(u), self.graph.degree(v));
        let (xu, xv) = (
            self.graph.feature(u).to_vec(),
            self.graph.feature(v).to_vec(),
        );
        let added = self.graph.add_edge(u, v);
        debug_assert!(added);
        self.refresh_norm(u);
        self.refresh_norm(v);
        self.stationary.on_add_edge(&xu, du, &xv, dv);
        // Two endpoint degree-delta corrections, each O(f).
        self.macs.replication += 2 * self.graph.feature_dim() as u64;
        true
    }

    /// Recomputes `v`'s cached factors after its degree changed.
    fn refresh_norm(&mut self, v: u32) {
        self.norm[v as usize] = NormFactors::of(self.graph.degree(v), self.gamma);
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
    /// batches of `cfg.batch_size`, recording per-arrival latency.
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
                self.stats.record(elapsed, depth);
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
    /// Runs on the same [`nai_core::active`] engine as the static
    /// `NaiEngine`: shared exit bookkeeping (`ActiveSet`), stamped
    /// column-map support lookups, full-width history with one row
    /// indirection, and in-place incremental hop-set shrinking. Only the
    /// propagation differs: weights come from the cached per-node factors,
    /// and depth 1 reads raw features in place, so BFS stops at
    /// `t_max − 1` hops and the widest (depth-0) support set is never
    /// built.
    ///
    /// # Panics
    /// Panics on invalid config, missing gates, or unknown node ids.
    pub fn infer_nodes(&mut self, nodes: &[u32], cfg: &InferenceConfig) -> Vec<(usize, usize)> {
        // nai-lint: allow(hot-path-panic) -- deliberate precondition assert
        // (documented # Panics): a bad config must abort before inference.
        cfg.validate(self.k()).expect("invalid inference config");
        if matches!(cfg.nap, NapMode::Gate) {
            assert!(
                self.gates.is_some(),
                "gate NAP requested but the engine has no trained gates"
            );
        }
        if nodes.is_empty() {
            return Vec::new();
        }
        // Detach the scratch so the borrow checker can see it is disjoint
        // from the graph/stationary state it is used alongside.
        let mut scratch = std::mem::take(&mut self.scratch);
        let mut clock = StageClock::new();
        let results = self.infer_nodes_inner(nodes, cfg, &mut scratch, &mut clock);
        self.scratch = scratch;
        // Merged here, not inside `infer_nodes_inner`, so the all-exited
        // early return cannot drop a partially accumulated breakdown.
        self.stage_times.merge(&clock.acc);
        results
    }

    fn infer_nodes_inner(
        &mut self,
        nodes: &[u32],
        cfg: &InferenceConfig,
        scratch: &mut EngineScratch,
        clock: &mut StageClock,
    ) -> Vec<(usize, usize)> {
        let n = self.graph.num_nodes();
        let f = self.graph.feature_dim();
        let mut results = vec![(usize::MAX, 0usize); nodes.len()];
        scratch.begin_batch(n, nodes, cfg.t_max, f);
        for &v in nodes {
            assert!((v as usize) < n, "node {v} out of range");
        }

        // Stationary rows (Algorithm 1 line 2) — O(f) per node thanks to
        // the incremental accumulators. Indexed by original batch row,
        // written into the reusable scratch buffer.
        self.stationary
            .rows_into(&self.graph, nodes, &mut scratch.x_inf);
        clock.propagation();

        // NAP_u: depths fixed from Eq. (10) before propagation, indexed
        // by original batch row.
        let assigned: Vec<usize> = match cfg.nap {
            NapMode::UpperBound { ts } => {
                self.macs.nap += nodes.len() as u64 * 4;
                let total = self.graph.total_tilde_degree();
                nodes
                    .iter()
                    .map(|&v| {
                        let degree = self.graph.degree(v) as f32;
                        match spectral_bound(ts, degree, total, self.lambda2) {
                            Some(b) => (b.ceil() as usize).clamp(cfg.t_min, cfg.t_max),
                            None => cfg.t_max,
                        }
                    })
                    .collect()
            }
            _ => Vec::new(),
        };
        clock.nap();

        // Supporting hop sets (line 3) over the dynamic adjacency lists.
        // Depth 1 gathers raw features in place, so no depth-0 support is
        // needed: BFS stops one hop short and `sets[l − 1]` is the
        // support of depth `l`.
        let graph = &self.graph;
        scratch.bfs.hop_sets_by_into(
            |u| graph.neighbors(u).iter().copied(),
            nodes,
            cfg.t_max - 1,
            &mut scratch.plan.sets,
        );

        for (r, &v) in nodes.iter().enumerate() {
            scratch.history[0]
                .row_mut(r)
                .copy_from_slice(self.graph.feature(v));
        }

        for l in 1..=cfg.t_max {
            let support_l = std::mem::take(&mut scratch.plan.sets[l - 1]);
            // Each source is its own closure type, so each call site gets
            // a monomorphized gather loop.
            let step_macs = if l == 1 {
                let graph = &self.graph;
                self.propagate_step_into(
                    &support_l,
                    |g| graph.feature(g),
                    &mut scratch.h_next,
                    cfg.parallel_spmm,
                )
            } else {
                let (col_map, prev) = (scratch.plan.col_map(), scratch.h_prev.as_slice());
                let prev_row = |g: u32| {
                    let local = col_map[g as usize];
                    debug_assert_ne!(local, u32::MAX, "support nesting violated");
                    let local = local as usize;
                    &prev[local * f..(local + 1) * f]
                };
                self.propagate_step_into(
                    &support_l,
                    prev_row,
                    &mut scratch.h_next,
                    cfg.parallel_spmm,
                )
            };
            self.macs.propagation += step_macs;
            scratch.plan.advance(support_l);

            scratch.active_rows.clear();
            for &g in scratch.active.nodes() {
                let local = scratch.plan.local(g);
                debug_assert_ne!(local, u32::MAX, "active ⊆ every hop set");
                scratch.active_rows.push(local as usize);
            }
            let hist_l = &mut scratch.history[l];
            for (a, &row) in scratch.active_rows.iter().enumerate() {
                hist_l
                    .row_mut(scratch.active.origs()[a])
                    .copy_from_slice(scratch.h_next.row(row));
            }
            clock.propagation();

            let at_final = l == cfg.t_max;
            scratch.exit_mask.clear();
            scratch.exit_mask.resize(scratch.active.len(), at_final);
            if !at_final && l >= cfg.t_min {
                match cfg.nap {
                    NapMode::Fixed => {}
                    NapMode::Distance { ts } => {
                        for a in 0..scratch.active.len() {
                            let cur = scratch.h_next.row(scratch.active_rows[a]);
                            let stat = scratch.x_inf.row(scratch.active.origs()[a]);
                            scratch.exit_mask[a] = l2_distance(cur, stat) < ts;
                        }
                        self.macs.nap += scratch.active.len() as u64 * napd::macs_per_node(f);
                    }
                    NapMode::Gate => {
                        // nai-lint: allow(hot-path-panic) -- Gate mode asserts
                        // gates.is_some() at function entry; unreachable here.
                        let gates = self.gates.as_ref().expect("validated above");
                        if l < gates.k() {
                            let (h_next, x_inf) = (&scratch.h_next, &scratch.x_inf);
                            let rows = scratch
                                .active_rows
                                .iter()
                                .zip(scratch.active.origs())
                                .map(|(&r, &o)| (h_next.row(r), x_inf.row(o)));
                            gates.decide_rows(l, rows, &mut scratch.exit_mask);
                            self.macs.nap += scratch.active.len() as u64 * gates.macs_per_node();
                        }
                    }
                    NapMode::UpperBound { .. } => {
                        for a in 0..scratch.active.len() {
                            scratch.exit_mask[a] = assigned[scratch.active.origs()[a]] == l;
                        }
                    }
                }
            }
            clock.nap();

            if scratch.exit_mask.iter().any(|&e| e) {
                let exited = scratch.active.apply_exits(&scratch.exit_mask);
                let clf = &self.classifiers[l - 1];
                let exit_feats: Vec<DenseMatrix> = scratch.history[..=l]
                    .iter()
                    // nai-lint: allow(hot-path-panic) -- `exited` is a subset of
                    // the active set, which indexes these same history matrices.
                    .map(|m| m.gather_rows(exited).expect("exit rows"))
                    .collect();
                let logits = clf.forward(&exit_feats);
                self.macs.classification += exited.len() as u64 * clf.macs_per_node();
                let preds = argmax_rows(&logits);
                for (t, &orig) in exited.iter().enumerate() {
                    results[orig] = (preds[t], l);
                }
                clock.classification();

                if scratch.active.is_empty() {
                    scratch.plan.finish();
                    clock.propagation();
                    return results;
                }
                if l < cfg.t_max {
                    let graph = &self.graph;
                    scratch.bfs.shrink_hop_sets_by(
                        |u| graph.neighbors(u).iter().copied(),
                        scratch.active.nodes(),
                        &mut scratch.plan.sets[l..cfg.t_max],
                        cfg.t_max - l - 1,
                    );
                }
                clock.propagation();
            }

            std::mem::swap(&mut scratch.h_prev, &mut scratch.h_next);
        }
        scratch.plan.finish();
        clock.propagation();
        results
    }

    /// One propagation step `H_l[i] = Σ_{j ∈ Ñ(i)} Â_ij H_{l−1}[j]`
    /// (self-loop included) with weights from the cached per-node factors,
    /// reading node `j`'s `H_{l−1}` row as `src_row(j)` and writing into
    /// the reusable `out` buffer.
    ///
    /// When `parallel` is set, output rows are filled concurrently via
    /// `nai_linalg::parallel` (honoring `InferenceConfig::parallel_spmm`);
    /// each row is an independent reduction, so results and the returned
    /// MAC count are bit-identical with the serial path. Small frontiers
    /// fall back to the serial loop.
    fn propagate_step_into<'a>(
        &self,
        support_l: &[u32],
        src_row: impl Fn(u32) -> &'a [f32] + Sync,
        out: &mut DenseMatrix,
        parallel: bool,
    ) -> u64 {
        let f = self.graph.feature_dim();
        out.reset_zeroed(support_l.len(), f);
        let norm = &self.norm;
        // Self-loop + one term per neighbor, every one readable via `src_row`
        // by the nesting invariant — the MAC count is exact without a
        // pass over the features.
        let macs: u64 = support_l
            .iter()
            .map(|&gi| (self.graph.degree(gi) as u64 + 1) * f as u64)
            .sum();
        let fill_row = |gi: u32, orow: &mut [f32]| {
            let left = norm[gi as usize].row;
            // Self-loop term of Ã = A + I.
            let w_self = left * norm[gi as usize].col;
            for (o, &x) in orow.iter_mut().zip(src_row(gi)) {
                *o += w_self * x;
            }
            for &j in self.graph.neighbors(gi) {
                let w = left * norm[j as usize].col;
                for (o, &x) in orow.iter_mut().zip(src_row(j)) {
                    *o += w * x;
                }
            }
        };
        let threads = if parallel && f > 0 && !support_l.is_empty() {
            let avg_cost = (macs as usize / support_l.len()).max(1);
            nai_linalg::parallel::thread_count(support_l.len() * avg_cost)
        } else {
            1
        };
        if threads <= 1 {
            for (t, &gi) in support_l.iter().enumerate() {
                fill_row(gi, out.row_mut(t));
            }
            return macs;
        }
        let avg_cost = (macs as usize / support_l.len()).max(1);
        nai_linalg::parallel::par_rows_mut(out.as_mut_slice(), f, avg_cost, |row0, chunk| {
            for (off, orow) in chunk.chunks_mut(f).enumerate() {
                fill_row(support_l[row0 + off], orow);
            }
        });
        macs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nai_core::config::PipelineConfig;
    use nai_core::pipeline::NaiPipeline;
    use nai_graph::generators::{generate, GeneratorConfig};
    use nai_graph::{Graph, InductiveSplit};
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
        // With no arrivals, the streaming engine must agree with the
        // static NaiEngine on the same graph, for every NAP mode.
        //
        // Fixed-depth modes share the propagation arithmetic exactly, so
        // they must match bit-for-bit. Threshold modes (distance, gate,
        // upper-bound) compare against the stationary state, which the
        // two engines compute by different algorithms (incremental f64
        // accumulators vs. the per-component direct form — equal only to
        // ~1e-4, see `IncrementalStationary`). A node whose exit score
        // sits within float noise of the threshold may therefore exit at
        // a different layer; such flips must be rare and must always
        // come with a different depth.
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
            assert_eq!(stat.predictions.len(), preds.len(), "{:?}", cfg.nap);
            if matches!(cfg.nap, NapMode::Fixed) {
                assert_eq!(stat.predictions, preds, "{:?}", cfg.nap);
                assert_eq!(stat.depths, depths, "{:?}", cfg.nap);
                continue;
            }
            let mut flips = 0usize;
            for i in 0..preds.len() {
                if stat.predictions[i] == preds[i] && stat.depths[i] == depths[i] {
                    continue;
                }
                // A flipped node need not land one layer away: missing a
                // near-threshold exit at layer l means it continues until
                // the next layer whose check fires, possibly the forced
                // exit at t_max. The required signature is only that the
                // depths differ.
                assert_ne!(
                    stat.depths[i], depths[i],
                    "{:?}: node {i} disagrees on prediction ({} vs {}) without a \
                     depth flip — not a threshold rounding artifact",
                    cfg.nap, stat.predictions[i], preds[i],
                );
                flips += 1;
            }
            let budget = preds.len().div_ceil(50); // ≤ 2% of the batch
            assert!(
                flips <= budget,
                "{:?}: {flips} threshold flips out of {} nodes (budget {budget})",
                cfg.nap,
                preds.len(),
            );
        }
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
        assert_eq!(se.stats().count(), 20);
        assert!(se.macs_total() > 0);
    }

    #[test]
    fn flushed_arrivals_match_static_engine_on_final_graph() {
        // Ingest all arrivals, then flush once: predictions must equal a
        // static engine deployed on the final materialized graph.
        let (g, _, t) = trained(250, 3);
        let mut se = engine_from(&t, &g);
        let mut rng = StdRng::seed_from_u64(123);
        let mut arrivals = Vec::new();
        for _ in 0..15 {
            let feats: Vec<f32> = (0..8).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let mut nbrs: Vec<u32> = (0..rng.gen_range(1..4))
                .map(|_| rng.gen_range(0..250u32))
                .collect();
            nbrs.sort_unstable();
            nbrs.dedup();
            arrivals.push(se.ingest(&feats, &nbrs));
        }
        let cfg = InferenceConfig::distance(0.4, 1, 3);
        let stream = se.flush(&cfg);

        // Static replay on the final graph.
        let labels: Vec<u32> = (0..se.graph().num_nodes())
            .map(|i| (i % 3) as u32)
            .collect();
        let final_graph = se.graph().snapshot_graph(labels.clone(), 3);
        let comps = nai_graph::components::connected_components(&final_graph.adj);
        if comps.count != 1 {
            return; // stationary normalizers only comparable when connected
        }
        let ckpt = nai_core::checkpoint::ModelCheckpoint::from_engine(&t.engine, 0.5);
        let static_engine = ckpt.deploy(&final_graph);
        let stat = static_engine.infer(&arrivals, &labels, &cfg);
        let stream_preds: Vec<usize> = stream.iter().map(|p| p.prediction).collect();
        let stream_depths: Vec<usize> = stream.iter().map(|p| p.depth).collect();
        assert_eq!(stat.predictions, stream_preds);
        assert_eq!(stat.depths, stream_depths);
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
        assert_eq!(se.stats().count(), 0);
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
            // λ₂ handed over, not re-estimated — bit-equal across shards.
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
    fn stats_accumulate_and_reset() {
        let (g, _, t) = trained(100, 2);
        let mut se = engine_from(&t, &g);
        se.ingest(&[0.1; 8], &[0, 1]);
        se.flush(&InferenceConfig::fixed(2));
        assert_eq!(se.stats().count(), 1);
        assert!(se.stats().mean_depth() > 0.0);
        se.reset_stats();
        assert_eq!(se.stats().count(), 0);
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
        // Cumulative like MACs: reset_stats clears latencies, not this.
        se.reset_stats();
        assert_eq!(se.stage_times(), second);
    }
}
