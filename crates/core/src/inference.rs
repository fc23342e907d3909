//! The NAI deployment: Algorithm 1 over one graph state.
//!
//! [`NaiEngine`] holds a trained deployment — a [`GraphState`] (the graph
//! store with its normalization factors, stationary state and λ₂ cell,
//! the view the read kernel [`crate::kernel::ReadKernel`] runs over),
//! per-depth classifiers and optional gates. Its public API only reads
//! that state; the streaming engine ([`crate::engine::StreamingEngine`])
//! wraps one, mutates the state in place and reads it through the same
//! per-batch read as the batch loop here. That loop cuts the test nodes
//! into `batch_size` batches, reads each, and assembles the report:
//! feature-processing time and total time (the paper's "FP Time" /
//! "Time" columns) and [`MacsBreakdown`] MACs.
//!
//! Workspaces come from a small pool, so a call costs `O(touched)`
//! rather than `O(n)` setup: a scratch is taken per call (per thread
//! under `infer_parallel`) and returned only when the call finishes
//! normally.

use crate::active::EngineScratch;
use crate::config::InferenceConfig;
use crate::gates::GateSet;
use crate::graph_state::GraphState;
use crate::kernel::{Heads, ReadKernel, Tally};
use crate::macs::MacsBreakdown;
use crate::metrics::InferenceReport;
use nai_graph::DynamicGraph;
use nai_linalg::parallel::par_parts;
use nai_linalg::DenseMatrix;
use nai_models::DepthClassifier;
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Per-node outcome of an inference run, aligned with the input order.
#[derive(Debug, Clone)]
pub struct InferenceResult {
    /// Predicted class per test node.
    pub predictions: Vec<usize>,
    /// Personalized propagation depth per test node.
    pub depths: Vec<usize>,
    /// Aggregate metrics.
    pub report: InferenceReport,
}

/// A trained NAI deployment: the full graph's state, per-depth
/// classifiers and optional gates.
pub struct NaiEngine {
    /// The full graph and what Algorithm 1 derives from it; the
    /// streaming engine mutates it in place.
    pub(crate) state: GraphState,
    /// `classifiers[l−1]` serves exit depth `l`.
    classifiers: Vec<DepthClassifier>,
    /// Gates for NAP_g (depths `1..k−1`).
    gates: Option<GateSet>,
    /// Idle workspaces; holds at most as many as calls ever ran at once.
    scratch_pool: Mutex<Vec<EngineScratch>>,
}

impl NaiEngine {
    /// Deploys trained classifiers (and optional gates) over `graph`
    /// under convolution coefficient `gamma`, deriving its state once
    /// ([`GraphState::new`]).
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
        assert!(!classifiers.is_empty(), "need at least one classifier");
        for (i, c) in classifiers.iter().enumerate() {
            assert_eq!(c.depth(), i + 1, "classifiers must be ordered by depth");
        }
        Self {
            state: GraphState::new(graph, gamma),
            classifiers,
            gates,
            scratch_pool: Mutex::new(Vec::new()),
        }
    }

    /// The read kernel under `cfg` over this deployment.
    ///
    /// # Panics
    /// As [`ReadKernel::new`].
    pub(crate) fn kernel<'a>(&'a self, cfg: &'a InferenceConfig) -> ReadKernel<'a> {
        ReadKernel::new(cfg, self.k(), self.gates.as_ref(), &self.state)
    }

    /// One batch of Algorithm 1 on a caller-owned scratch: `kernel` (made
    /// by [`Self::kernel`]) over `batch` with `heads`, or with the
    /// engine's classifiers when `None`. Charges the batch's stationary
    /// rows into `tally` when the kernel reads them; `sink` receives each
    /// answer as in
    /// [`ReadKernel::run`].
    pub(crate) fn read_batch(
        &self,
        kernel: &ReadKernel<'_>,
        heads: Option<Heads<'_>>,
        batch: &[u32],
        scratch: &mut EngineScratch,
        tally: &mut Tally,
        sink: impl FnMut(usize, usize, usize),
    ) {
        let forward = |l: usize, feats: &[DenseMatrix]| self.classifiers[l - 1].forward(feats);
        let macs_per_node = |l: usize| self.classifiers[l - 1].macs_per_node();
        let heads = heads.unwrap_or(Heads {
            forward: &forward,
            macs_per_node: &macs_per_node,
        });
        let st = self.state.stationary();
        let stationary = |x_inf: &mut DenseMatrix| {
            st.rows_into(batch, x_inf);
            batch.len() as u64 * st.macs_per_row()
        };
        kernel.run(batch, heads, scratch, stationary, tally, sink);
    }

    /// λ₂ of the deployment's `Â` ([`GraphState::lambda2`]), estimated on
    /// the first call (NAP_u treats it as a deployment constant).
    pub fn lambda2(&self) -> f32 {
        self.state.lambda2()
    }

    /// `2m + n` of the deployment graph.
    pub fn total_tilde_degree(&self) -> f64 {
        self.state.graph().total_tilde_degree()
    }

    /// Highest trained depth `k`.
    pub fn k(&self) -> usize {
        self.classifiers.len()
    }

    /// Classifier serving depth `l` (1-based).
    pub fn classifier(&self, l: usize) -> &DepthClassifier {
        &self.classifiers[l - 1]
    }

    /// All per-depth classifiers, ordered by depth.
    pub fn classifiers(&self) -> &[DepthClassifier] {
        &self.classifiers
    }

    /// Trained gates, when NAP_g was trained.
    pub fn gates(&self) -> Option<&GateSet> {
        self.gates.as_ref()
    }

    /// Feature dimensionality `f` of the deployment graph.
    pub fn feature_dim(&self) -> usize {
        self.state.graph().feature_dim()
    }

    /// Runs Algorithm 1 over `test_nodes`, comparing predictions against
    /// `labels` (full-graph label array) for the report's accuracy.
    ///
    /// # Panics
    /// Panics if the config fails validation, a gate mode is requested
    /// without gates, or node ids exceed the graph.
    pub fn infer(
        &self,
        test_nodes: &[u32],
        labels: &[u32],
        cfg: &InferenceConfig,
    ) -> InferenceResult {
        self.drive(test_nodes, labels, cfg, 1, None)
    }

    /// Algorithm 1 with **pluggable classifier heads**: `head(l, feats)`
    /// produces the exit-depth-`l` logits from the per-depth feature
    /// history, and `head_macs(l)` its per-node MACs. The engine keeps
    /// propagation, NAP decisions, and frontier bookkeeping; callers swap
    /// in alternative heads — the INT8-quantized adaptive deployment
    /// (`nai-baselines::quantization::QuantizedNai`) is built on this seam.
    ///
    /// # Panics
    /// Same contract as [`Self::infer`].
    pub fn infer_with_heads(
        &self,
        test_nodes: &[u32],
        labels: &[u32],
        cfg: &InferenceConfig,
        head: &dyn Fn(usize, &[DenseMatrix]) -> DenseMatrix,
        head_macs: &dyn Fn(usize) -> u64,
    ) -> InferenceResult {
        let heads = Heads {
            forward: head,
            macs_per_node: head_macs,
        };
        self.drive(test_nodes, labels, cfg, 1, Some(heads))
    }

    /// Multi-threaded Algorithm 1: test batches are independent, so they
    /// are partitioned (at batch granularity) over `num_threads` OS
    /// threads, each with its own scratch. Predictions, depths, MACs,
    /// and the exit histogram are bit-identical with [`Self::infer`];
    /// only wall-clock changes. `feature_time` is summed across threads
    /// (busy time, not elapsed), matching the MACs-style accounting.
    ///
    /// # Panics
    /// Same contract as [`Self::infer`], plus `num_threads ≥ 1`.
    pub fn infer_parallel(
        &self,
        test_nodes: &[u32],
        labels: &[u32],
        cfg: &InferenceConfig,
        num_threads: usize,
    ) -> InferenceResult {
        assert!(num_threads >= 1, "need at least one thread");
        self.drive(test_nodes, labels, cfg, num_threads, None)
    }

    /// Online frontier propagation *without* adaptive exits: returns the
    /// per-depth features `X^(0..=depth)` of `batch` (rows aligned with
    /// `batch`), the MACs spent, and the feature-processing wall time.
    ///
    /// This is the vanilla inductive-inference path (Fig. 1 (d)) that the
    /// fixed-depth baselines — vanilla Scalable GNNs and the Quantization
    /// baseline — share with NAI. It runs the same kernel as
    /// [`Self::infer`] (fixed depth, capturing head) on a pooled scratch.
    ///
    /// # Panics
    /// Panics if `depth` is zero or any node id is out of range.
    pub fn propagate_only(
        &self,
        batch: &[u32],
        depth: usize,
    ) -> (Vec<DenseMatrix>, MacsBreakdown, Duration) {
        let mut scratch = self.take_scratch();
        let out = self.propagate_only_with(batch, depth, &mut scratch);
        self.recycle(scratch);
        out
    }

    /// [`Self::propagate_only`] on a caller-owned scratch.
    ///
    /// # Panics
    /// Same contract as [`Self::propagate_only`].
    pub fn propagate_only_with(
        &self,
        batch: &[u32],
        depth: usize,
        scratch: &mut EngineScratch,
    ) -> (Vec<DenseMatrix>, MacsBreakdown, Duration) {
        assert!(depth >= 1, "depth must be positive");
        let start = Instant::now();
        if batch.is_empty() {
            let f = self.feature_dim();
            let levels = vec![DenseMatrix::zeros(0, f); depth + 1];
            return (levels, MacsBreakdown::default(), start.elapsed());
        }
        let cfg = InferenceConfig {
            batch_size: batch.len(),
            ..InferenceConfig::fixed(depth)
        };
        // At fixed depth every node exits together at `depth`, so the
        // capturing head observes exactly `X^(0..=depth)` aligned with
        // the batch; its logits are discarded. No classifier runs, so the
        // config is validated against `depth` rather than `k`.
        let captured = std::cell::RefCell::new(Vec::new());
        let capture = |_: usize, feats: &[DenseMatrix]| {
            *captured.borrow_mut() = feats.to_vec();
            DenseMatrix::zeros(feats[0].rows(), 1)
        };
        let heads = Heads {
            forward: &capture,
            macs_per_node: &|_| 0,
        };
        let mut tally = Tally::default();
        // Fixed depth reads no stationary rows, and charges none.
        ReadKernel::new(&cfg, depth, None, &self.state).run(
            batch,
            heads,
            scratch,
            |_| 0,
            &mut tally,
            |_, _, _| {},
        );
        (captured.into_inner(), tally.macs, start.elapsed())
    }

    /// The one batch loop behind [`Self::infer`], [`Self::infer_with_heads`]
    /// and [`Self::infer_parallel`]: validates once, splits `test_nodes`
    /// into whole batches over at most `threads` threads (inline when one
    /// suffices), and assembles the report. Custom `heads` run on the
    /// calling thread only; the engine's own classifiers serve otherwise.
    fn drive(
        &self,
        test_nodes: &[u32],
        labels: &[u32],
        cfg: &InferenceConfig,
        threads: usize,
        heads: Option<Heads<'_>>,
    ) -> InferenceResult {
        debug_assert!(threads == 1 || heads.is_none(), "custom heads run inline");
        let kernel = self.kernel(cfg);
        let total_start = Instant::now();

        let mut predictions = vec![usize::MAX; test_nodes.len()];
        let mut depths = vec![0usize; test_nodes.len()];
        // Whole batches per thread, so every batch — and with it every
        // answer — is the one the serial run forms.
        let batches = test_nodes.len().div_ceil(cfg.batch_size);
        let per_chunk = batches.div_ceil(threads).max(1) * cfg.batch_size;
        let chunks = test_nodes
            .chunks(per_chunk)
            .zip(predictions.chunks_mut(per_chunk))
            .zip(depths.chunks_mut(per_chunk));
        let tallies: Vec<Tally> = if test_nodes.len() <= per_chunk {
            chunks
                .map(|((nodes, p), d)| self.run_chunk(&kernel, heads, nodes, p, d))
                .collect()
        } else {
            // A worker's panic resumes on the caller with its own
            // message; swallowing it would return truncated rows.
            par_parts(chunks, |_, ((nodes, p), d)| {
                self.run_chunk(&kernel, None, nodes, p, d)
            })
        };

        let mut tally = Tally::default();
        for t in &tallies {
            tally.macs.add(&t.macs);
            tally.times.merge(&t.times);
        }
        // Stationary precompute charged once per run (rank-1 structure;
        // see ARCHITECTURE.md, "Read kernel", for the accounting).
        tally.macs.stationary += self.state.stationary().precompute_macs();
        let total_time = total_start.elapsed();
        let eval: Vec<usize> = (0..test_nodes.len()).collect();
        let label_view: Vec<u32> = test_nodes.iter().map(|&v| labels[v as usize]).collect();
        let accuracy = nai_linalg::ops::accuracy(&predictions, &label_view, &eval);
        let mut histogram = vec![0usize; cfg.t_max];
        for &d in &depths {
            histogram[d - 1] += 1;
        }
        InferenceResult {
            report: InferenceReport {
                num_nodes: test_nodes.len(),
                accuracy,
                macs: tally.macs,
                total_time,
                feature_time: tally.times.propagation + tally.times.nap,
                depth_histogram: histogram,
                batches,
            },
            predictions,
            depths,
        }
    }

    /// Reads `nodes` in `batch_size` batches on one pooled scratch,
    /// writing answers into the aligned `predictions`/`depths`.
    fn run_chunk(
        &self,
        kernel: &ReadKernel<'_>,
        heads: Option<Heads<'_>>,
        nodes: &[u32],
        predictions: &mut [usize],
        depths: &mut [usize],
    ) -> Tally {
        let size = kernel.config().batch_size;
        let mut tally = Tally::default();
        let mut scratch = self.take_scratch();
        for (b, batch) in nodes.chunks(size).enumerate() {
            let sink = |row, prediction, depth| {
                predictions[b * size + row] = prediction;
                depths[b * size + row] = depth;
            };
            self.read_batch(kernel, heads, batch, &mut scratch, &mut tally, sink);
        }
        self.recycle(scratch);
        tally
    }

    /// An idle pooled scratch, or a fresh one. Return it with
    /// [`Self::recycle`] only after the call using it returned normally:
    /// a scratch a panic unwound through may still hold a stamped column
    /// map, so it is dropped instead of reused.
    fn take_scratch(&self) -> EngineScratch {
        self.pool().pop().unwrap_or_default()
    }

    fn recycle(&self, scratch: EngineScratch) {
        self.pool().push(scratch);
    }

    /// The pool is a plain stack no code panics while holding, and it
    /// stays consistent even if one did: recover a poisoned lock.
    fn pool(&self) -> MutexGuard<'_, Vec<EngineScratch>> {
        self.scratch_pool
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::InferenceConfig;
    use nai_graph::generators::{generate, GeneratorConfig};
    use nai_graph::normalize::normalized_adjacency;
    use nai_graph::{Convolution, Graph};
    use nai_linalg::ops::argmax_rows;
    use nai_models::propagate_features;
    use nai_models::train::train_depth_classifier;
    use nai_models::ModelKind;
    use nai_nn::adam::Adam;
    use nai_nn::trainer::TrainConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Builds a small engine trained transductively (tests only exercise
    /// the inference mechanics, not the inductive protocol — the pipeline
    /// tests cover that).
    fn engine(k: usize) -> (NaiEngine, Graph, Vec<u32>) {
        let g = generate(
            &GeneratorConfig {
                num_nodes: 300,
                num_classes: 3,
                feature_dim: 8,
                avg_degree: 8.0,
                ..Default::default()
            },
            &mut StdRng::seed_from_u64(77),
        );
        let norm = normalized_adjacency(&g.adj, Convolution::Symmetric);
        let feats = propagate_features(&norm, &g.features, k);
        let train: Vec<u32> = (0..200u32).collect();
        let val: Vec<u32> = (200..250u32).collect();
        let test: Vec<u32> = (250..300u32).collect();
        let mut classifiers = Vec::new();
        for l in 1..=k {
            let mut rng = StdRng::seed_from_u64(100 + l as u64);
            let mut clf = DepthClassifier::new(ModelKind::Sgc, l, 8, 3, &[16], 0.0, &mut rng);
            train_depth_classifier(
                &mut clf,
                &feats,
                &train,
                &g.labels,
                None,
                &val,
                &TrainConfig {
                    epochs: 40,
                    patience: 10,
                    adam: Adam::new(0.02, 0.0),
                    ..TrainConfig::default()
                },
            );
            classifiers.push(clf);
        }
        let engine = NaiEngine::new(DynamicGraph::from_graph(&g), classifiers, None, 0.5);
        (engine, g, test)
    }

    #[test]
    fn fixed_mode_uses_exactly_tmax() {
        let (engine, g, test) = engine(3);
        let res = engine.infer(&test, &g.labels, &InferenceConfig::fixed(2));
        assert!(res.depths.iter().all(|&d| d == 2));
        // Histogram is sized by t_max, not k.
        assert_eq!(res.report.depth_histogram, vec![0, 50]);
        assert_eq!(res.report.num_nodes, 50);
    }

    #[test]
    fn fixed_at_k_matches_vanilla_accuracy_shape() {
        let (engine, g, test) = engine(3);
        let res = engine.infer(&test, &g.labels, &InferenceConfig::fixed(3));
        assert!(res.report.accuracy > 0.5, "acc {}", res.report.accuracy);
        assert!(res.predictions.iter().all(|&p| p < 3));
    }

    #[test]
    fn distance_mode_exits_early_and_saves_macs() {
        let (engine, g, test) = engine(3);
        let fixed = engine.infer(&test, &g.labels, &InferenceConfig::fixed(3));
        // Generous threshold: everything exits at t_min.
        let eager = engine.infer(
            &test,
            &g.labels,
            &InferenceConfig::distance(f32::INFINITY, 1, 3),
        );
        assert!(eager.depths.iter().all(|&d| d == 1));
        assert!(
            eager.report.macs.propagation < fixed.report.macs.propagation,
            "eager {} vs fixed {}",
            eager.report.macs.propagation,
            fixed.report.macs.propagation
        );
        // Zero threshold: nobody exits early.
        let never = engine.infer(&test, &g.labels, &InferenceConfig::distance(0.0, 1, 3));
        assert!(never.depths.iter().all(|&d| d == 3));
    }

    #[test]
    fn tmin_blocks_exits_before_it() {
        let (engine, g, test) = engine(3);
        let res = engine.infer(
            &test,
            &g.labels,
            &InferenceConfig::distance(f32::INFINITY, 2, 3),
        );
        assert!(res.depths.iter().all(|&d| d == 2));
    }

    /// Only NAP_d and NAP_g read `X^(∞)`, and only with a depth in
    /// `t_min..t_max` to decide at: every other run charges the one-off
    /// precompute and no per-batch rows.
    #[test]
    fn stationary_rows_are_charged_only_where_an_exit_reads_them() {
        let (engine, g, test) = engine(3);
        let precompute = engine.state.stationary().precompute_macs();
        let rows = test.len() as u64 * engine.feature_dim() as u64;
        let fixed = engine.infer(&test, &g.labels, &InferenceConfig::fixed(3));
        assert_eq!(fixed.report.macs.stationary, precompute);
        let nap_u = engine.infer(&test, &g.labels, &InferenceConfig::upper_bound(0.5, 1, 3));
        assert_eq!(nap_u.report.macs.stationary, precompute);
        // NAP_d with no depth to decide at reads no rows and answers as
        // fixed depth does.
        let pinned = engine.infer(&test, &g.labels, &InferenceConfig::distance(0.5, 3, 3));
        assert_eq!(pinned.report.macs.stationary, precompute);
        assert_eq!(pinned.predictions, fixed.predictions);
        assert_eq!(pinned.depths, fixed.depths);
        // NAP_d deciding at depths 1 and 2 reads one row per node.
        let nap_d = engine.infer(&test, &g.labels, &InferenceConfig::distance(0.5, 1, 3));
        assert_eq!(nap_d.report.macs.stationary, precompute + rows);
    }

    #[test]
    fn histogram_matches_depths() {
        let (engine, g, test) = engine(3);
        let res = engine.infer(&test, &g.labels, &InferenceConfig::distance(2.0, 1, 3));
        let mut manual = vec![0usize; 3];
        for &d in &res.depths {
            manual[d - 1] += 1;
        }
        assert_eq!(res.report.depth_histogram, manual);
        assert_eq!(res.report.depth_histogram.iter().sum::<usize>(), test.len());
    }

    #[test]
    fn batch_size_does_not_change_predictions() {
        let (engine, g, test) = engine(3);
        let a = engine.infer(
            &test,
            &g.labels,
            &InferenceConfig {
                batch_size: 7,
                ..InferenceConfig::distance(1.0, 1, 3)
            },
        );
        let b = engine.infer(
            &test,
            &g.labels,
            &InferenceConfig {
                batch_size: 50,
                ..InferenceConfig::distance(1.0, 1, 3)
            },
        );
        assert_eq!(a.predictions, b.predictions);
        assert_eq!(a.depths, b.depths);
    }

    #[test]
    fn empty_test_set_is_safe() {
        let (engine, g, _) = engine(2);
        let res = engine.infer(&[], &g.labels, &InferenceConfig::fixed(2));
        assert_eq!(res.predictions.len(), 0);
        assert_eq!(res.report.accuracy, 0.0);
    }

    #[test]
    fn online_propagation_matches_offline_at_fixed_depth() {
        // The frontier-propagated features must equal full-graph offline
        // propagation for the test nodes (depth = t_max, no exits).
        let (engine, g, test) = engine(3);
        let norm = normalized_adjacency(&g.adj, Convolution::Symmetric);
        let offline = propagate_features(&norm, &g.features, 3);
        let res = engine.infer(&test, &g.labels, &InferenceConfig::fixed(3));
        // Compare via classifier agreement: predictions from offline
        // features must match the engine's.
        let idx: Vec<usize> = test.iter().map(|&v| v as usize).collect();
        let gathered: Vec<DenseMatrix> = offline
            .iter()
            .map(|m| m.gather_rows(&idx).unwrap())
            .collect();
        let logits = engine.classifier(3).forward(&gathered);
        let offline_preds = argmax_rows(&logits);
        assert_eq!(res.predictions, offline_preds);
    }

    #[test]
    fn upper_bound_mode_assigns_depths_without_feature_comparisons() {
        let (engine, g, test) = engine(3);
        let res = engine.infer(&test, &g.labels, &InferenceConfig::upper_bound(0.5, 1, 3));
        assert_eq!(res.predictions.len(), test.len());
        assert!(res.depths.iter().all(|&d| (1..=3).contains(&d)));
        // NAP MACs are O(1) per node — far below one distance evaluation
        // (which costs f MACs per node per depth).
        assert!(res.report.macs.nap <= 4 * test.len() as u64);
        // Assigned depths must agree with the standalone policy function.
        let expected = crate::upper_bound::assign_depths(
            &g.adj,
            &test,
            0.5,
            engine.lambda2(),
            engine.total_tilde_degree(),
            1,
            3,
        );
        assert_eq!(res.depths, expected);
    }

    #[test]
    fn upper_bound_high_degree_exits_no_later_than_low_degree() {
        let (engine, g, test) = engine(3);
        let res = engine.infer(&test, &g.labels, &InferenceConfig::upper_bound(0.5, 1, 3));
        let mut pairs: Vec<(usize, usize)> = test
            .iter()
            .zip(&res.depths)
            .map(|(&v, &d)| (g.adj.row_nnz(v as usize), d))
            .collect();
        pairs.sort_by_key(|&(deg, _)| deg);
        let half = pairs.len() / 2;
        let low: f64 = pairs[..half].iter().map(|&(_, d)| d as f64).sum::<f64>() / half as f64;
        let high: f64 =
            pairs[half..].iter().map(|&(_, d)| d as f64).sum::<f64>() / (pairs.len() - half) as f64;
        assert!(
            high <= low + f64::EPSILON,
            "high-degree mean depth {high:.2} must not exceed low-degree {low:.2}"
        );
    }

    #[test]
    fn parallel_inference_is_bit_identical_with_serial() {
        let (engine, g, test) = engine(3);
        for cfg in [
            InferenceConfig::fixed(3),
            InferenceConfig {
                batch_size: 7,
                ..InferenceConfig::distance(1.0, 1, 3)
            },
            InferenceConfig {
                batch_size: 13,
                ..InferenceConfig::upper_bound(0.5, 1, 3)
            },
        ] {
            let serial = engine.infer(&test, &g.labels, &cfg);
            for threads in [1, 2, 4, 7] {
                let par = engine.infer_parallel(&test, &g.labels, &cfg, threads);
                assert_eq!(serial.predictions, par.predictions, "{threads} threads");
                assert_eq!(serial.depths, par.depths, "{threads} threads");
                assert_eq!(
                    serial.report.macs.total(),
                    par.report.macs.total(),
                    "{threads} threads"
                );
                assert_eq!(
                    serial.report.depth_histogram, par.report.depth_histogram,
                    "{threads} threads"
                );
                assert_eq!(serial.report.batches, par.report.batches);
            }
        }
    }

    #[test]
    fn parallel_with_more_threads_than_batches() {
        let (engine, g, test) = engine(2);
        let cfg = InferenceConfig {
            batch_size: 100, // one batch for 50 test nodes
            ..InferenceConfig::fixed(2)
        };
        let par = engine.infer_parallel(&test, &g.labels, &cfg, 8);
        assert_eq!(par.predictions.len(), test.len());
        assert_eq!(par.report.batches, 1);
    }

    #[test]
    fn parallel_empty_test_set_is_safe() {
        let (engine, g, _) = engine(2);
        let res = engine.infer_parallel(&[], &g.labels, &InferenceConfig::fixed(2), 4);
        assert_eq!(res.predictions.len(), 0);
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_threads_panics() {
        let (engine, g, test) = engine(2);
        let _ = engine.infer_parallel(&test, &g.labels, &InferenceConfig::fixed(2), 0);
    }

    #[test]
    fn lambda2_is_cached_and_in_range() {
        let (engine, _, _) = engine(2);
        let a = engine.lambda2();
        let b = engine.lambda2();
        assert_eq!(a, b);
        assert!((0.0..1.0).contains(&a), "lambda2 {a}");
    }

    #[test]
    #[should_panic(expected = "invalid inference config")]
    fn invalid_config_panics() {
        let (engine, g, test) = engine(2);
        let bad = InferenceConfig::distance(0.5, 1, 9);
        let _ = engine.infer(&test, &g.labels, &bad);
    }

    #[test]
    #[should_panic(expected = "no trained gates")]
    fn gate_mode_without_gates_panics() {
        let (engine, g, test) = engine(2);
        let _ = engine.infer(&test, &g.labels, &InferenceConfig::gate(1, 2));
    }
}
