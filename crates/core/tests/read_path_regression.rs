//! Regression: the streaming read path must be **byte-identical** with
//! the reference loop it replaced.
//!
//! `Reference` below is the earlier `StreamingEngine::infer_nodes`,
//! re-expressed over public APIs: every gathered term computes its
//! normalization weight with `powf` from the current degrees, BFS runs to
//! `t_max` hops, and the depth-0 support's feature rows are copied into
//! the first propagation buffer. It keeps its own graph and stationary
//! state and applies the same mutations as the engine, so a factor
//! the engine forgot to refresh after a degree change shows up as a
//! difference. For every NAP mode, `t_max` 1–3 and a sweep of odd batch
//! sizes, the engine must reproduce predictions, depths and per-stage
//! MACs exactly — on the seed graph, while a seeded script of ingests and
//! edge arrivals runs (duplicate edges and neighbourless arrivals
//! included), and over every node afterwards.

use nai_core::active::EngineScratch;
use nai_core::checkpoint::ModelCheckpoint;
use nai_core::config::{DistillConfig, InferenceConfig, NapMode, PipelineConfig};
use nai_core::engine::StreamingEngine;
use nai_core::gates::GateSet;
use nai_core::macs::MacsBreakdown;
use nai_core::napd;
use nai_core::pipeline::NaiPipeline;
use nai_core::stationary::StationaryState;
use nai_core::upper_bound::spectral_bound;
use nai_graph::generators::{generate, GeneratorConfig};
use nai_graph::{DynamicGraph, InductiveSplit};
use nai_linalg::ops::{argmax_rows, l2_distance};
use nai_linalg::DenseMatrix;
use nai_models::{DepthClassifier, ModelKind};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const N: usize = 240;
const F: usize = 8;
const K: usize = 3;
const BATCH_SIZES: [usize; 4] = [1, 3, 7, 13];

/// The earlier read path over its own copy of the engine's state.
struct Reference {
    graph: DynamicGraph,
    stationary: StationaryState,
    classifiers: Vec<DepthClassifier>,
    gates: Option<GateSet>,
    gamma: f32,
    lambda2: f32,
    macs: MacsBreakdown,
    scratch: EngineScratch,
}

impl Reference {
    fn ingest(&mut self, features: &[f32], neighbors: &[u32]) -> u32 {
        let mut uniq: Vec<u32> = neighbors.to_vec();
        uniq.sort_unstable();
        uniq.dedup();
        let id = self.graph.add_node(features, &uniq);
        let graph = &self.graph;
        self.stationary.add_node(&uniq, |v| graph.feature(v));
        id
    }

    fn observe_edge(&mut self, u: u32, v: u32) -> bool {
        if self.graph.has_edge(u, v) {
            return false;
        }
        assert!(self.graph.add_edge(u, v));
        let graph = &self.graph;
        self.stationary.add_edge(u, v, |w| graph.feature(w));
        true
    }

    fn infer_nodes(&mut self, nodes: &[u32], cfg: &InferenceConfig) -> Vec<(usize, usize)> {
        let mut scratch = std::mem::take(&mut self.scratch);
        let results = self.infer_nodes_inner(nodes, cfg, &mut scratch);
        self.scratch = scratch;
        results
    }

    fn infer_nodes_inner(
        &mut self,
        nodes: &[u32],
        cfg: &InferenceConfig,
        scratch: &mut EngineScratch,
    ) -> Vec<(usize, usize)> {
        let n = self.graph.num_nodes();
        let f = self.graph.feature_dim();
        let mut results = vec![(usize::MAX, 0usize); nodes.len()];
        scratch.begin_batch(n, nodes, cfg.t_max, f);
        self.stationary.rows_into(nodes, &mut scratch.x_inf);

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

        // Hop sets to t_max; sets[0] (the depth-0 support) is copied
        // into h_prev before the first step.
        let graph = &self.graph;
        scratch.bfs.hop_sets_by_into(
            |u| graph.neighbors(u).iter().copied(),
            nodes,
            cfg.t_max,
            &mut scratch.plan.sets,
        );
        scratch.plan.init_support();
        for (r, &v) in nodes.iter().enumerate() {
            scratch.history[0]
                .row_mut(r)
                .copy_from_slice(self.graph.feature(v));
        }
        scratch
            .h_prev
            .reset_for_overwrite(scratch.plan.support().len(), f);
        for (t, &g) in scratch.plan.support().iter().enumerate() {
            scratch
                .h_prev
                .row_mut(t)
                .copy_from_slice(self.graph.feature(g));
        }

        for l in 1..=cfg.t_max {
            let support_l = std::mem::take(&mut scratch.plan.sets[l]);
            self.macs.propagation += self.propagate_step_into(
                &support_l,
                scratch.plan.col_map(),
                &scratch.h_prev,
                &mut scratch.h_next,
            );
            scratch.plan.advance(support_l);

            scratch.active_rows.clear();
            for &g in scratch.active.nodes() {
                scratch.active_rows.push(scratch.plan.local(g) as usize);
            }
            let hist_l = &mut scratch.history[l];
            for (a, &row) in scratch.active_rows.iter().enumerate() {
                hist_l
                    .row_mut(scratch.active.origs()[a])
                    .copy_from_slice(scratch.h_next.row(row));
            }

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
                        let gates = self.gates.as_ref().unwrap();
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

            if scratch.exit_mask.iter().any(|&e| e) {
                let exited = scratch.active.apply_exits(&scratch.exit_mask);
                let clf = &self.classifiers[l - 1];
                let exit_feats: Vec<DenseMatrix> = scratch.history[..=l]
                    .iter()
                    .map(|m| m.gather_rows(exited).unwrap())
                    .collect();
                let logits = clf.forward(&exit_feats);
                self.macs.classification += exited.len() as u64 * clf.macs_per_node();
                let preds = argmax_rows(&logits);
                for (t, &orig) in exited.iter().enumerate() {
                    results[orig] = (preds[t], l);
                }
                if scratch.active.is_empty() {
                    scratch.plan.finish();
                    return results;
                }
                if l < cfg.t_max {
                    let graph = &self.graph;
                    scratch.bfs.shrink_hop_sets_by(
                        |u| graph.neighbors(u).iter().copied(),
                        scratch.active.nodes(),
                        &mut scratch.plan.sets[l + 1..=cfg.t_max],
                        cfg.t_max - l - 1,
                    );
                }
            }
            std::mem::swap(&mut scratch.h_prev, &mut scratch.h_next);
        }
        scratch.plan.finish();
        results
    }

    /// One propagation step with two `powf` per gathered term, from the
    /// degrees the graph has now, summed in column order with the
    /// self-loop at its sorted place (the order of `Â`'s CSR rows).
    fn propagate_step_into(
        &self,
        support_l: &[u32],
        col_map: &[u32],
        h_prev: &DenseMatrix,
        out: &mut DenseMatrix,
    ) -> u64 {
        let f = h_prev.cols();
        let gamma = self.gamma;
        out.reset_zeroed(support_l.len(), f);
        let prev = h_prev.as_slice();
        let mut macs = 0u64;
        for (t, &gi) in support_l.iter().enumerate() {
            macs += (self.graph.degree(gi) as u64 + 1) * f as u64;
            let orow = out.row_mut(t);
            let di = (self.graph.degree(gi) + 1) as f32;
            let left = di.powf(gamma - 1.0);
            let neighbors = self.graph.neighbors(gi);
            let split = neighbors.partition_point(|&j| j < gi);
            let columns = neighbors[..split]
                .iter()
                .chain([&gi])
                .chain(&neighbors[split..]);
            for &j in columns {
                let local = col_map[j as usize] as usize;
                let w = left * ((self.graph.degree(j) + 1) as f32).powf(-gamma);
                for (o, &x) in orow.iter_mut().zip(&prev[local * f..(local + 1) * f]) {
                    *o += w * x;
                }
            }
        }
        macs
    }
}

/// A trained checkpoint (classifiers for depths 1..=K plus gates) over a
/// seeded random graph, with the engine and the reference deployed on it.
fn deploy() -> (StreamingEngine, Reference) {
    let g = generate(
        &GeneratorConfig {
            num_nodes: N,
            num_classes: 3,
            feature_dim: F,
            avg_degree: 6.0,
            ..Default::default()
        },
        &mut StdRng::seed_from_u64(41),
    );
    let split = InductiveSplit::random(N, 0.6, 0.2, &mut StdRng::seed_from_u64(42));
    let cfg = PipelineConfig {
        k: K,
        hidden: vec![16],
        epochs: 20,
        patience: 8,
        gate_epochs: 6,
        distill: DistillConfig {
            epochs: 6,
            ensemble_r: 2,
            ..Default::default()
        },
        ..PipelineConfig::default()
    };
    let trained = NaiPipeline::new(ModelKind::Sgc, cfg).train(&g, &split, true);
    let ckpt = ModelCheckpoint::from_engine(&trained.engine, 0.5);
    let graph = DynamicGraph::from_graph(&g);
    let engine = StreamingEngine::from_checkpoint(&ckpt, graph.clone());
    let reference = Reference {
        stationary: StationaryState::compute(&g.adj, &g.features, ckpt.gamma),
        graph,
        classifiers: ckpt.build_classifiers(),
        gates: ckpt.build_gates(),
        gamma: ckpt.gamma,
        lambda2: engine.lambda2(),
        macs: MacsBreakdown::default(),
        scratch: EngineScratch::new(),
    };
    assert!(reference.gates.is_some(), "gate NAP needs trained gates");
    (engine, reference)
}

fn configs() -> Vec<InferenceConfig> {
    vec![
        InferenceConfig::fixed(1),
        InferenceConfig::fixed(2),
        InferenceConfig::fixed(3),
        InferenceConfig::fixed(3).with_parallel_spmm(true),
        InferenceConfig::distance(2.0, 1, 3),
        InferenceConfig::distance(1.5, 1, 2),
        InferenceConfig::distance(2.0, 2, 3),
        InferenceConfig::gate(1, 3),
        InferenceConfig::gate(1, 2),
        InferenceConfig::upper_bound(20.0, 1, 3),
        InferenceConfig::upper_bound(20.0, 1, 2),
    ]
}

/// Runs `nodes` through both read paths in batches of every size in
/// `BATCH_SIZES` under every config, requiring identical answers and
/// identical per-stage MACs per call.
fn assert_reads_match(engine: &mut StreamingEngine, reference: &mut Reference, nodes: &[u32]) {
    for cfg in configs() {
        for &bs in &BATCH_SIZES {
            for batch in nodes.chunks(bs) {
                let before = engine.macs_breakdown();
                let got = engine.infer_nodes(batch, &cfg);
                let want = reference.infer_nodes(batch, &cfg);
                assert_eq!(got, want, "{cfg:?}, batch {batch:?}");
                let after = engine.macs_breakdown();
                let step = MacsBreakdown {
                    propagation: after.propagation - before.propagation,
                    stationary: after.stationary - before.stationary,
                    nap: after.nap - before.nap,
                    classification: after.classification - before.classification,
                    replication: after.replication - before.replication,
                };
                assert_eq!(step, reference.macs, "{cfg:?}, batch {batch:?}");
                reference.macs = MacsBreakdown::default();
            }
        }
    }
}

/// Exit-depth histogram of `nodes` under `cfg` (index = depth).
fn exit_depths(engine: &mut StreamingEngine, nodes: &[u32], cfg: &InferenceConfig) -> Vec<usize> {
    let mut seen = vec![0usize; cfg.t_max + 1];
    for (_, depth) in engine.infer_nodes(nodes, cfg) {
        seen[depth] += 1;
    }
    seen
}

#[test]
fn read_path_matches_reference_before_and_after_mutations() {
    let (mut engine, mut reference) = deploy();
    let seed_nodes: Vec<u32> = (0..N as u32).step_by(5).collect();
    assert_reads_match(&mut engine, &mut reference, &seed_nodes);

    // Seeded mutation script with reads interleaved: arrivals with 0–4
    // (possibly repeated) neighbours, edges between existing nodes, and
    // re-observed edges that must be no-ops on both sides.
    let mut rng = StdRng::seed_from_u64(43);
    let mut seen_edges: Vec<(u32, u32)> = Vec::new();
    let (mut isolated, mut duplicates) = (0usize, 0usize);
    for step in 0..90 {
        let n = engine.graph().num_nodes() as u32;
        match rng.gen_range(0..3u8) {
            0 => {
                let features: Vec<f32> = (0..F).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
                let degree = rng.gen_range(0..5usize);
                isolated += usize::from(degree == 0);
                let mut neighbors: Vec<u32> = (0..degree).map(|_| rng.gen_range(0..n)).collect();
                if degree > 1 && rng.gen_bool(0.3) {
                    neighbors.push(neighbors[0]);
                }
                let id = if step % 2 == 0 {
                    engine.ingest(&features, &neighbors)
                } else {
                    engine.apply_replicated_ingest(&features, &neighbors)
                };
                assert_eq!(id, reference.ingest(&features, &neighbors));
            }
            1 if !seen_edges.is_empty() && rng.gen_bool(0.3) => {
                let (u, v) = seen_edges[rng.gen_range(0..seen_edges.len())];
                duplicates += 1;
                assert!(!engine.observe_edge(v, u), "edge ({v}, {u}) seen before");
                assert!(!reference.observe_edge(v, u));
            }
            _ => {
                let u = rng.gen_range(0..n);
                let v = (u + 1 + rng.gen_range(0..n - 1)) % n;
                let added = engine.apply_replicated_edge(u, v);
                assert_eq!(added, reference.observe_edge(u, v));
                seen_edges.push((u, v));
            }
        }
        if step % 15 == 14 {
            let newest = engine.graph().num_nodes() as u32;
            let probe: Vec<u32> = (newest.saturating_sub(9)..newest).collect();
            assert_reads_match(&mut engine, &mut reference, &probe);
        }
    }
    assert!(isolated > 0, "script must include neighbourless arrivals");
    assert!(duplicates > 0, "script must include duplicate edges");
    assert_eq!(engine.graph().num_edges(), reference.graph.num_edges());

    let all: Vec<u32> = (0..engine.graph().num_nodes() as u32).collect();
    assert_reads_match(&mut engine, &mut reference, &all);
    // The thresholds above put nodes on both sides of every NAP mode's
    // first decision, so its exit paths are not vacuously equal.
    for cfg in configs().iter().filter(|c| c.t_max == K) {
        let depths = exit_depths(&mut engine, &all, cfg);
        assert!(
            matches!(cfg.nap, NapMode::Fixed) || (depths[cfg.t_min] > 0 && depths[K] > 0),
            "{cfg:?}: no early and late exits, depths {depths:?}"
        );
    }
}
