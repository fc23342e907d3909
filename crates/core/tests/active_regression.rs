//! Regression: the active-set Algorithm 1 loop behind `NaiEngine::infer`
//! must be **byte-identical** with the pre-refactor loop.
//!
//! `reference_infer` below is the engine's previous implementation
//! (per-depth `HashMap` position lookups, full-history `gather_rows`
//! compaction on every exit round, from-scratch BFS after exits),
//! re-expressed over public APIs. For every NAP mode and a sweep of odd
//! batch sizes, the engine must reproduce its `predictions`, `depths`,
//! per-stage MACs, and exit histogram exactly.

use nai_core::config::{InferenceConfig, NapMode};
use nai_core::gates::{GateSet, GateTrainConfig};
use nai_core::inference::NaiEngine;
use nai_core::stationary::StationaryState;
use nai_core::{napd, upper_bound};
use nai_graph::frontier::BfsScratch;
use nai_graph::generators::{generate, GeneratorConfig};
use nai_graph::normalize::normalized_adjacency;
use nai_graph::{Convolution, Graph};
use nai_linalg::ops::argmax_rows;
use nai_linalg::DenseMatrix;
use nai_models::train::train_depth_classifier;
use nai_models::{propagate_features, DepthClassifier, ModelKind};
use nai_nn::adam::Adam;
use nai_nn::trainer::TrainConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;

const K: usize = 3;

fn engine() -> (NaiEngine, Graph, Vec<u32>) {
    let g = generate(
        &GeneratorConfig {
            num_nodes: 260,
            num_classes: 3,
            feature_dim: 8,
            avg_degree: 7.0,
            ..Default::default()
        },
        &mut StdRng::seed_from_u64(2024),
    );
    let norm = normalized_adjacency(&g.adj, Convolution::Symmetric);
    let feats = propagate_features(&norm, &g.features, K);
    let st = StationaryState::compute(&g.adj, &g.features, 0.5);
    let train: Vec<u32> = (0..180u32).collect();
    let val: Vec<u32> = (180..220u32).collect();
    let test: Vec<u32> = (220..260u32).collect();
    let mut classifiers = Vec::new();
    for l in 1..=K {
        let mut rng = StdRng::seed_from_u64(300 + l as u64);
        let mut clf = DepthClassifier::new(ModelKind::Sgc, l, 8, 3, &[16], 0.0, &mut rng);
        train_depth_classifier(
            &mut clf,
            &feats,
            &train,
            &g.labels,
            None,
            &val,
            &TrainConfig {
                epochs: 30,
                patience: 8,
                adam: Adam::new(0.02, 0.0),
                ..TrainConfig::default()
            },
        );
        classifiers.push(clf);
    }
    let mut gates = GateSet::new(8, K, &mut StdRng::seed_from_u64(77));
    gates.train(
        &feats,
        &st.full(),
        &classifiers,
        &train,
        &g.labels,
        &GateTrainConfig {
            epochs: 6,
            ..GateTrainConfig::default()
        },
    );
    let engine = NaiEngine::new(
        nai_graph::DynamicGraph::from_graph(&g),
        classifiers,
        Some(gates),
        0.5,
    );
    (engine, g, test)
}

/// Per-stage MAC counters of the legacy loop (mirrors `MacsBreakdown`).
#[derive(Default, Debug, PartialEq, Eq)]
struct RefMacs {
    propagation: u64,
    stationary: u64,
    nap: u64,
    classification: u64,
}

struct RefOut {
    predictions: Vec<usize>,
    depths: Vec<usize>,
    histogram: Vec<usize>,
    macs: RefMacs,
}

/// The pre-refactor `infer_with_heads`, verbatim in structure: HashMap
/// row location, full-history compaction on exits, BFS recomputation of
/// the remaining hop sets.
fn reference_infer(
    engine: &NaiEngine,
    g: &Graph,
    test_nodes: &[u32],
    cfg: &InferenceConfig,
) -> RefOut {
    let norm = normalized_adjacency(&g.adj, Convolution::Symmetric);
    let st = StationaryState::compute(&g.adj, &g.features, 0.5);
    let f = g.features.cols();
    let n = g.adj.n();
    let mut macs = RefMacs {
        stationary: st.precompute_macs(),
        ..RefMacs::default()
    };
    let mut predictions = vec![usize::MAX; test_nodes.len()];
    let mut depths = vec![0usize; test_nodes.len()];
    let mut histogram = vec![0usize; cfg.t_max];
    let mut bfs = BfsScratch::new(n);
    let mut col_map = vec![u32::MAX; n];

    for batch_start in (0..test_nodes.len()).step_by(cfg.batch_size) {
        let batch = &test_nodes[batch_start..(batch_start + cfg.batch_size).min(test_nodes.len())];
        let mut x_inf_active = st.rows(batch);
        // Only an exit that compares against X^(∞) pays for its rows.
        if matches!(cfg.nap, NapMode::Distance { .. } | NapMode::Gate) && cfg.t_min < cfg.t_max {
            macs.stationary += batch.len() as u64 * st.macs_per_row();
        }
        let mut assigned: Vec<usize> = match cfg.nap {
            NapMode::UpperBound { ts } => {
                macs.nap += batch.len() as u64 * 4;
                upper_bound::assign_depths(
                    &g.adj,
                    batch,
                    ts,
                    engine.lambda2(),
                    engine.total_tilde_degree(),
                    cfg.t_min,
                    cfg.t_max,
                )
            }
            _ => Vec::new(),
        };
        let mut sets = bfs.hop_sets(&g.adj, batch, cfg.t_max);
        let mut active_pos: Vec<usize> = (0..batch.len()).collect();
        let mut active_nodes: Vec<u32> = batch.to_vec();
        let batch_idx: Vec<usize> = batch.iter().map(|&v| v as usize).collect();
        let mut history: Vec<DenseMatrix> = vec![g.features.gather_rows(&batch_idx).unwrap()];
        let mut support_prev: Vec<u32> = sets[0].clone();
        let mut h_prev = {
            let idx: Vec<usize> = support_prev.iter().map(|&v| v as usize).collect();
            g.features.gather_rows(&idx).unwrap()
        };

        'depth: for l in 1..=cfg.t_max {
            let support_l = std::mem::take(&mut sets[l]);
            for (t, &gn) in support_prev.iter().enumerate() {
                col_map[gn as usize] = t as u32;
            }
            let (h_l, step_macs) = norm.spmm_gather(&support_l, &col_map, &h_prev);
            for &gn in support_prev.iter() {
                col_map[gn as usize] = u32::MAX;
            }
            macs.propagation += step_macs;

            let mut pos_in_support = HashMap::with_capacity(active_nodes.len());
            for (t, &gn) in support_l.iter().enumerate() {
                pos_in_support.insert(gn, t);
            }
            let active_rows: Vec<usize> = active_nodes
                .iter()
                .map(|gn| *pos_in_support.get(gn).unwrap())
                .collect();
            history.push(h_l.gather_rows(&active_rows).unwrap());

            let at_final = l == cfg.t_max;
            let mut exit_mask: Vec<bool> = vec![at_final; active_nodes.len()];
            if !at_final && l >= cfg.t_min {
                match cfg.nap {
                    NapMode::Fixed => {}
                    NapMode::Distance { ts } => {
                        exit_mask = napd::exit_mask(&history[l], &x_inf_active, ts);
                        macs.nap += active_nodes.len() as u64 * napd::macs_per_node(f);
                    }
                    NapMode::Gate => {
                        let gates = engine.gates().unwrap();
                        if l < gates.k() {
                            exit_mask = gates.decide(l, &history[l], &x_inf_active);
                            macs.nap += active_nodes.len() as u64 * gates.macs_per_node();
                        }
                    }
                    NapMode::UpperBound { .. } => {
                        for (e, &d) in exit_mask.iter_mut().zip(assigned.iter()) {
                            *e = d == l;
                        }
                    }
                }
            }

            if exit_mask.iter().any(|&e| e) {
                let exit_rows: Vec<usize> = exit_mask
                    .iter()
                    .enumerate()
                    .filter_map(|(i, &e)| e.then_some(i))
                    .collect();
                let exit_feats: Vec<DenseMatrix> = history[..=l]
                    .iter()
                    .map(|m| m.gather_rows(&exit_rows).unwrap())
                    .collect();
                let logits = engine.classifier(l).forward(&exit_feats);
                macs.classification +=
                    exit_rows.len() as u64 * engine.classifier(l).macs_per_node();
                let preds = argmax_rows(&logits);
                for (t, &row) in exit_rows.iter().enumerate() {
                    let orig = active_pos[row];
                    predictions[batch_start + orig] = preds[t];
                    depths[batch_start + orig] = l;
                    histogram[l - 1] += 1;
                }
                let keep_rows: Vec<usize> = exit_mask
                    .iter()
                    .enumerate()
                    .filter_map(|(i, &e)| (!e).then_some(i))
                    .collect();
                if keep_rows.is_empty() {
                    break 'depth;
                }
                active_pos = keep_rows.iter().map(|&i| active_pos[i]).collect();
                active_nodes = keep_rows.iter().map(|&i| active_nodes[i]).collect();
                if !assigned.is_empty() {
                    assigned = keep_rows.iter().map(|&i| assigned[i]).collect();
                }
                x_inf_active = x_inf_active.gather_rows(&keep_rows).unwrap();
                for m in history.iter_mut() {
                    *m = m.gather_rows(&keep_rows).unwrap();
                }
                if l < cfg.t_max {
                    let new_sets = bfs.hop_sets(&g.adj, &active_nodes, cfg.t_max - l);
                    for (j, ns) in new_sets.into_iter().enumerate() {
                        if j >= 1 {
                            sets[l + j] = ns;
                        }
                    }
                }
            }

            support_prev = support_l;
            h_prev = h_l;
        }
    }
    RefOut {
        predictions,
        depths,
        histogram,
        macs,
    }
}

#[test]
fn active_set_engine_is_byte_identical_with_legacy_loop() {
    let (engine, g, test) = engine();
    let modes = [
        NapMode::Fixed,
        NapMode::Distance { ts: 1.0 },
        NapMode::Distance { ts: 0.25 },
        NapMode::Gate,
        NapMode::UpperBound { ts: 0.5 },
    ];
    for nap in modes {
        for batch_size in [1usize, 3, 7, 13, 40, 500] {
            let cfg = InferenceConfig {
                t_min: if matches!(nap, NapMode::Fixed) { K } else { 1 },
                t_max: K,
                nap,
                batch_size,
                parallel_spmm: false,
            };
            let got = engine.infer(&test, &g.labels, &cfg);
            let want = reference_infer(&engine, &g, &test, &cfg);
            let tag = format!("{nap:?} batch {batch_size}");
            assert_eq!(got.predictions, want.predictions, "predictions: {tag}");
            assert_eq!(got.depths, want.depths, "depths: {tag}");
            assert_eq!(
                got.report.depth_histogram, want.histogram,
                "histogram: {tag}"
            );
            assert_eq!(
                got.report.macs.propagation, want.macs.propagation,
                "propagation MACs: {tag}"
            );
            assert_eq!(
                got.report.macs.stationary, want.macs.stationary,
                "stationary MACs: {tag}"
            );
            assert_eq!(got.report.macs.nap, want.macs.nap, "NAP MACs: {tag}");
            assert_eq!(
                got.report.macs.classification, want.macs.classification,
                "classification MACs: {tag}"
            );
        }
    }
}

#[test]
fn parallel_spmm_knob_is_bit_identical() {
    let (engine, g, test) = engine();
    for nap in [NapMode::Fixed, NapMode::Distance { ts: 1.0 }] {
        let serial = InferenceConfig {
            t_min: if matches!(nap, NapMode::Fixed) { K } else { 1 },
            t_max: K,
            nap,
            batch_size: 13,
            parallel_spmm: false,
        };
        let parallel = serial.with_parallel_spmm(true);
        let a = engine.infer(&test, &g.labels, &serial);
        let b = engine.infer(&test, &g.labels, &parallel);
        assert_eq!(a.predictions, b.predictions, "{nap:?}");
        assert_eq!(a.depths, b.depths, "{nap:?}");
        assert_eq!(a.report.macs.total(), b.report.macs.total(), "{nap:?}");
        assert_eq!(a.report.depth_histogram, b.report.depth_histogram);
    }
}

#[test]
fn propagate_only_with_shares_one_scratch_across_batches() {
    let (engine, g, test) = engine();
    let mut scratch = nai_core::active::EngineScratch::new();
    let (once, macs_once, _) = engine.propagate_only(&test, 2);
    let mut macs_chunks = 0u64;
    let mut rows = 0usize;
    for chunk in test.chunks(7) {
        let (hist, m, _) = engine.propagate_only_with(chunk, 2, &mut scratch);
        assert_eq!(hist.len(), 3);
        // Chunked histories reproduce the whole-batch rows exactly.
        for (lvl, whole) in hist.iter().zip(once.iter()) {
            for r in 0..chunk.len() {
                assert_eq!(lvl.row(r), whole.row(rows + r), "level rows");
            }
        }
        rows += chunk.len();
        macs_chunks += m.propagation;
        assert_eq!(m.stationary, 0, "propagate-only must not charge stationary");
        assert_eq!(m.classification, 0);
    }
    assert_eq!(rows, test.len());
    // Chunked frontiers overlap, so chunked propagation can only cost
    // more MACs than one batch — never fewer.
    assert!(macs_chunks >= macs_once.propagation);
    let _ = g;
}
