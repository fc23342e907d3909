//! Inception Distillation (§III-C, Eq. 14–21).
//!
//! Early exits hand nodes to shallow classifiers; plain shallow classifiers
//! lose accuracy. Inception Distillation compensates in two stages:
//!
//! * **Single-Scale** (Eq. 14–17): the depth-`k` classifier, trained with
//!   plain cross-entropy, teaches every shallower classifier through
//!   temperature-scaled KD mixed with the hard-label loss:
//!   `L = (1−λ)·L_c + λ·T²·L_d`.
//! * **Multi-Scale** (Eq. 18–21): the `r` highest-depth classifiers form an
//!   ensemble teacher. Each member's softmax prediction `ỹ^(l)` is scored
//!   by a trainable vector `s^(l)` (`q^(l) = σ(ỹ^(l)·s^(l))`), the scores
//!   are softmax-normalised into ensemble weights, and the weighted vote
//!   `z̄ = Σ w^(l) ỹ^(l)` supervises all students via
//!   `L = L_t + (1−λ)·L_c + λ·T²·L_e`. Students *and* the scoring vectors
//!   update jointly; the depth-`k` classifier stays frozen.

use crate::config::DistillConfig;
use nai_linalg::ops::{sigmoid, softmax_slice};
use nai_linalg::DenseMatrix;
use nai_models::train::{gather_depth_feats, train_depth_classifier, DepthDistillation};
use nai_models::{DepthClassifier, ModelKind};
use nai_nn::adam::Adam;
use nai_nn::linear::Linear;
use nai_nn::loss::{distillation_loss, softmax_cross_entropy};
use nai_nn::trainer::{TrainConfig, TrainReport};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Builds the `k` per-depth classifiers `f^(1..=k)` (untrained).
pub fn build_classifiers(
    kind: ModelKind,
    k: usize,
    feature_dim: usize,
    num_classes: usize,
    hidden: &[usize],
    dropout: f32,
    rng: &mut StdRng,
) -> Vec<DepthClassifier> {
    (1..=k)
        .map(|l| DepthClassifier::new(kind, l, feature_dim, num_classes, hidden, dropout, rng))
        .collect()
}

/// Step 2 of Fig. 2: trains the deepest classifier `f^(k)` with plain
/// cross-entropy. Returns its training report.
pub fn train_base(
    classifiers: &mut [DepthClassifier],
    depth_feats: &[DenseMatrix],
    train_idx: &[u32],
    labels: &[u32],
    val_idx: &[u32],
    cfg: &TrainConfig,
) -> TrainReport {
    let k = classifiers.len();
    train_depth_classifier(
        &mut classifiers[k - 1],
        depth_feats,
        train_idx,
        labels,
        None,
        val_idx,
        cfg,
    )
}

/// Step 3 of Fig. 2 — Single-Scale Distillation: trains `f^(1..k−1)` with
/// `f^(k)` as the teacher. Returns one report per student.
pub fn single_scale(
    classifiers: &mut [DepthClassifier],
    depth_feats: &[DenseMatrix],
    train_idx: &[u32],
    labels: &[u32],
    val_idx: &[u32],
    cfg: &TrainConfig,
    distill: &DistillConfig,
) -> Vec<TrainReport> {
    let k = classifiers.len();
    let rows: Vec<usize> = train_idx.iter().map(|&v| v as usize).collect();
    let teacher_feats = gather_depth_feats(depth_feats, k + 1, &rows);
    let teacher_logits = classifiers[k - 1].forward(&teacher_feats);
    let mut reports = Vec::with_capacity(k.saturating_sub(1));
    for l in 1..k {
        let report = train_depth_classifier(
            &mut classifiers[l - 1],
            depth_feats,
            train_idx,
            labels,
            Some(DepthDistillation {
                teacher_logits: &teacher_logits,
                temperature: distill.t_single,
                lambda: distill.lambda_single,
            }),
            val_idx,
            cfg,
        );
        reports.push(report);
    }
    reports
}

/// Outcome of Multi-Scale Distillation.
#[derive(Debug, Clone)]
pub struct MultiScaleReport {
    /// Mean student validation accuracy at the restored-best epoch.
    pub best_mean_val_acc: f64,
    /// Joint loss of the final epoch (`Σ_l L_multi^(l)` averaged).
    pub final_loss: f32,
    /// Epochs run.
    pub epochs_run: usize,
}

/// Step 4 of Fig. 2 — Multi-Scale Distillation.
///
/// Trains students `f^(1..k−1)` and the ensemble scoring vectors jointly;
/// `f^(k)` participates in the ensemble but stays frozen. Early-stops on
/// the mean student validation accuracy and restores the best snapshot.
///
/// # Panics
/// Panics if `r < 1` or `r > k`.
#[allow(clippy::too_many_arguments)]
pub fn multi_scale(
    classifiers: &mut [DepthClassifier],
    depth_feats: &[DenseMatrix],
    train_idx: &[u32],
    labels: &[u32],
    val_idx: &[u32],
    distill: &DistillConfig,
    adam: &Adam,
    batch_size: usize,
    seed: u64,
) -> MultiScaleReport {
    let k = classifiers.len();
    let r = distill.ensemble_r;
    assert!((1..=k).contains(&r), "ensemble size r={r} outside 1..={k}");
    let num_classes = classifiers[0].mlp.out_dim();
    let ensemble_depths: Vec<usize> = ((k - r + 1)..=k).collect();
    let mut rng = StdRng::seed_from_u64(seed);
    // Trainable scoring vectors s^(l), one per ensemble member.
    let mut scorers: Vec<Linear> = ensemble_depths
        .iter()
        .map(|_| Linear::new(num_classes, 1, &mut rng))
        .collect();

    let n = train_idx.len();
    let batch = if batch_size == 0 || batch_size >= n {
        n
    } else {
        batch_size
    };
    let mut order: Vec<usize> = (0..n).collect();
    let val_rows: Vec<usize> = val_idx.iter().map(|&v| v as usize).collect();
    let val_labels: Vec<u32> = val_idx.iter().map(|&v| labels[v as usize]).collect();
    let val_all: Vec<usize> = (0..val_labels.len()).collect();
    let t = distill.t_multi;
    let lambda = distill.lambda_multi;

    let mut best_acc = -1.0f64;
    let mut best_snaps: Vec<_> = classifiers.iter().map(|c| c.snapshot()).collect();
    let mut final_loss = 0.0f32;
    let mut epochs_run = 0usize;

    for _ in 0..distill.epochs {
        epochs_run += 1;
        order.shuffle(&mut rng);
        let mut epoch_loss = 0.0f32;
        let mut nbatches = 0usize;
        for chunk in order.chunks(batch) {
            let rows: Vec<usize> = chunk.iter().map(|&p| train_idx[p] as usize).collect();
            let feats = gather_depth_feats(depth_feats, k + 1, &rows);
            let yb: Vec<u32> = rows.iter().map(|&i| labels[i]).collect();
            let b = rows.len();

            // Student forward passes (train mode caches for backward).
            let mut logits: Vec<DenseMatrix> = Vec::with_capacity(k);
            for (l, clf) in classifiers.iter_mut().enumerate().take(k - 1) {
                clf.zero_grads();
                logits.push(clf.forward_train(&feats[..=(l + 1)], &mut rng));
            }
            // Frozen teacher f^(k).
            logits.push(classifiers[k - 1].forward(&feats));

            // Ensemble member soft predictions ỹ^(l).
            let softmaxed: Vec<DenseMatrix> = ensemble_depths
                .iter()
                .map(|&d| {
                    let mut p = logits[d - 1].clone();
                    for row in p.as_mut_slice().chunks_mut(num_classes) {
                        softmax_slice(row);
                    }
                    p
                })
                .collect();

            // Scores q^(l) = σ(ỹ^(l) s^(l)) and weights w = softmax_l(q).
            let raw_scores: Vec<DenseMatrix> = scorers
                .iter_mut()
                .zip(softmaxed.iter())
                .map(|(s, y)| s.forward(y, true))
                .collect();
            let mut w = DenseMatrix::zeros(b, r);
            for row in 0..b {
                let mut q: Vec<f32> = (0..r).map(|e| sigmoid(raw_scores[e].get(row, 0))).collect();
                softmax_slice(&mut q);
                for (e, &wv) in q.iter().enumerate() {
                    w.set(row, e, wv);
                }
            }

            // Ensemble vote z̄ = Σ w^(l) ỹ^(l) (Eq. 18) used as logits.
            let mut ensemble = DenseMatrix::zeros(b, num_classes);
            for (e, soft) in softmaxed.iter().enumerate().take(r) {
                for row in 0..b {
                    let wv = w.get(row, e);
                    let src = soft.row(row);
                    let dst = ensemble.row_mut(row);
                    for (d, &s) in dst.iter_mut().zip(src.iter()) {
                        *d += wv * s;
                    }
                }
            }

            // L_t (Eq. 20) and its gradient through the ensemble.
            let (lt, d_ens) = softmax_cross_entropy(&ensemble, &yb);

            // Backprop ensemble → (weights w, member predictions ỹ).
            // dỹ^(e) gets the direct mixing term; dw gets the vote term.
            let mut d_soft: Vec<DenseMatrix> =
                (0..r).map(|_| DenseMatrix::zeros(b, num_classes)).collect();
            let mut d_w = DenseMatrix::zeros(b, r);
            for e in 0..r {
                for row in 0..b {
                    let wv = w.get(row, e);
                    let dsrc = d_ens.row(row);
                    let ysrc = softmaxed[e].row(row);
                    let ddst = d_soft[e].row_mut(row);
                    let mut acc = 0.0f32;
                    for ((dd, &de), &yv) in ddst.iter_mut().zip(dsrc.iter()).zip(ysrc.iter()) {
                        *dd += wv * de;
                        acc += de * yv;
                    }
                    d_w.set(row, e, acc);
                }
            }
            // Softmax backward over the weight axis, then sigmoid backward
            // into the scorers and the member predictions.
            for row in 0..b {
                let wr: Vec<f32> = (0..r).map(|e| w.get(row, e)).collect();
                let dwr: Vec<f32> = (0..r).map(|e| d_w.get(row, e)).collect();
                let dot: f32 = wr.iter().zip(dwr.iter()).map(|(a, d)| a * d).sum();
                for e in 0..r {
                    let dq = wr[e] * (dwr[e] - dot);
                    let s = sigmoid(raw_scores[e].get(row, 0));
                    let draw = dq * s * (1.0 - s);
                    // Stash pre-sigmoid gradient back into a column matrix
                    // for the scorer's Linear backward (done after loop).
                    d_w.set(row, e, draw);
                }
            }
            for (e, scorer) in scorers.iter_mut().enumerate() {
                let mut col = DenseMatrix::zeros(b, 1);
                for row in 0..b {
                    col.set(row, 0, d_w.get(row, e));
                }
                scorer.zero_grads();
                let d_y_from_score = scorer.backward(&col);
                // nai-lint: allow(hot-path-panic) -- both matrices are n×c
                // softmax outputs of the same batch; dims match by construction.
                d_soft[e].add_assign(&d_y_from_score).expect("shapes");
                scorer.apply_grads(adam);
            }

            // Teacher distillation target p̄ = softmax(z̄ / T), detached.
            let ensemble_detached = ensemble.clone();

            // Per-student total loss and backward.
            let mut batch_loss = lt;
            for l in 1..k {
                let (lc, mut dz) = softmax_cross_entropy(&logits[l - 1], &yb);
                let (le, dkd) = distillation_loss(&logits[l - 1], &ensemble_detached, t);
                dz.scale(1.0 - lambda);
                // nai-lint: allow(hot-path-panic) -- dz and dkd are gradients
                // of the same n×c logits; dims match by construction.
                dz.axpy(lambda * t * t, &dkd).expect("shapes");
                // Ensemble-membership gradient from L_t (softmax backward
                // of ỹ^(l) w.r.t. z^(l)).
                if let Some(e) = ensemble_depths.iter().position(|&d| d == l) {
                    let y = &softmaxed[e];
                    let dy = &d_soft[e];
                    for row in 0..b {
                        let yr = y.row(row);
                        let dyr = dy.row(row);
                        let dot: f32 = yr.iter().zip(dyr.iter()).map(|(a, d)| a * d).sum();
                        let dzr = dz.row_mut(row);
                        for (dzv, (&yv, &dyv)) in dzr.iter_mut().zip(yr.iter().zip(dyr.iter())) {
                            *dzv += yv * (dyv - dot);
                        }
                    }
                }
                batch_loss += (1.0 - lambda) * lc + lambda * t * t * le;
                classifiers[l - 1].backward(&dz);
                classifiers[l - 1].apply_grads(adam);
            }
            epoch_loss += batch_loss;
            nbatches += 1;
        }
        final_loss = epoch_loss / nbatches.max(1) as f32;

        // Early stopping on mean student val accuracy.
        let mut acc_sum = 0.0f64;
        for l in 1..k {
            let vf = gather_depth_feats(depth_feats, l + 1, &val_rows);
            let pred = nai_linalg::ops::argmax_rows(&classifiers[l - 1].forward(&vf));
            acc_sum += nai_linalg::ops::accuracy(&pred, &val_labels, &val_all);
        }
        let mean_acc = if k > 1 { acc_sum / (k - 1) as f64 } else { 0.0 };
        if mean_acc > best_acc {
            best_acc = mean_acc;
            best_snaps = classifiers.iter().map(|c| c.snapshot()).collect();
        }
    }
    for (c, s) in classifiers.iter_mut().zip(best_snaps.iter()) {
        c.restore(s);
    }
    MultiScaleReport {
        best_mean_val_acc: best_acc.max(0.0),
        final_loss,
        epochs_run,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nai_graph::generators::{generate, GeneratorConfig};
    use nai_graph::{normalized_adjacency, Convolution};
    use nai_models::propagate_features;

    struct Fixture {
        feats: Vec<DenseMatrix>,
        labels: Vec<u32>,
        train: Vec<u32>,
        val: Vec<u32>,
    }

    fn fixture(seed: u64) -> Fixture {
        let g = generate(
            &GeneratorConfig {
                num_nodes: 300,
                num_classes: 3,
                feature_dim: 8,
                feature_noise: 2.5,
                ..Default::default()
            },
            &mut StdRng::seed_from_u64(seed),
        );
        let norm = normalized_adjacency(&g.adj, Convolution::Symmetric);
        let feats = propagate_features(&norm, &g.features, 4);
        Fixture {
            feats,
            labels: g.labels.clone(),
            train: (0..200u32).collect(),
            val: (200..300u32).collect(),
        }
    }

    fn val_acc_of(clf: &DepthClassifier, fx: &Fixture) -> f64 {
        let rows: Vec<usize> = fx.val.iter().map(|&v| v as usize).collect();
        let vf = gather_depth_feats(&fx.feats, clf.depth() + 1, &rows);
        let pred = nai_linalg::ops::argmax_rows(&clf.forward(&vf));
        let labels: Vec<u32> = fx.val.iter().map(|&v| fx.labels[v as usize]).collect();
        let all: Vec<usize> = (0..labels.len()).collect();
        nai_linalg::ops::accuracy(&pred, &labels, &all)
    }

    fn cfg() -> TrainConfig {
        TrainConfig {
            epochs: 50,
            patience: 12,
            adam: Adam::new(0.02, 0.0),
            ..TrainConfig::default()
        }
    }

    #[test]
    fn base_training_gives_usable_teacher() {
        let fx = fixture(50);
        let mut cls = build_classifiers(
            ModelKind::Sgc,
            4,
            8,
            3,
            &[16],
            0.0,
            &mut StdRng::seed_from_u64(51),
        );
        let report = train_base(&mut cls, &fx.feats, &fx.train, &fx.labels, &fx.val, &cfg());
        assert!(
            report.best_val_acc > 0.6,
            "teacher acc {}",
            report.best_val_acc
        );
    }

    #[test]
    fn full_inception_distillation_improves_f1() {
        // Table VIII's phenomenon: f^(1) with SS+MS beats f^(1) w/o ID.
        let fx = fixture(52);
        let make = |seed: u64| {
            build_classifiers(
                ModelKind::Sgc,
                4,
                8,
                3,
                &[16],
                0.0,
                &mut StdRng::seed_from_u64(seed),
            )
        };
        // Without ID: plain CE training for every depth.
        let mut plain = make(53);
        for l in 1..=4usize {
            train_depth_classifier(
                &mut plain[l - 1],
                &fx.feats,
                &fx.train,
                &fx.labels,
                None,
                &fx.val,
                &cfg(),
            );
        }
        let acc_plain = val_acc_of(&plain[0], &fx);

        // With full Inception Distillation.
        let mut full = make(53);
        train_base(&mut full, &fx.feats, &fx.train, &fx.labels, &fx.val, &cfg());
        let dcfg = DistillConfig {
            ensemble_r: 3,
            epochs: 30,
            ..DistillConfig::default()
        };
        single_scale(
            &mut full,
            &fx.feats,
            &fx.train,
            &fx.labels,
            &fx.val,
            &cfg(),
            &dcfg,
        );
        multi_scale(
            &mut full,
            &fx.feats,
            &fx.train,
            &fx.labels,
            &fx.val,
            &dcfg,
            &Adam::new(0.005, 0.0),
            128,
            54,
        );
        let acc_full = val_acc_of(&full[0], &fx);
        assert!(
            acc_full >= acc_plain - 0.02,
            "ID should not hurt f1: plain {acc_plain} vs full {acc_full}"
        );
    }

    #[test]
    fn multi_scale_report_is_sane() {
        let fx = fixture(55);
        let mut cls = build_classifiers(
            ModelKind::Sgc,
            3,
            8,
            3,
            &[],
            0.0,
            &mut StdRng::seed_from_u64(56),
        );
        train_base(&mut cls, &fx.feats, &fx.train, &fx.labels, &fx.val, &cfg());
        let dcfg = DistillConfig {
            ensemble_r: 2,
            epochs: 10,
            ..DistillConfig::default()
        };
        let report = multi_scale(
            &mut cls,
            &fx.feats,
            &fx.train,
            &fx.labels,
            &fx.val,
            &dcfg,
            &Adam::new(0.01, 0.0),
            0,
            57,
        );
        assert_eq!(report.epochs_run, 10);
        assert!(report.best_mean_val_acc > 0.3);
        assert!(report.final_loss.is_finite());
    }

    #[test]
    #[should_panic(expected = "ensemble size")]
    fn oversized_ensemble_rejected() {
        let fx = fixture(58);
        let mut cls = build_classifiers(
            ModelKind::Sgc,
            3,
            8,
            3,
            &[],
            0.0,
            &mut StdRng::seed_from_u64(59),
        );
        let dcfg = DistillConfig {
            ensemble_r: 9,
            epochs: 1,
            ..DistillConfig::default()
        };
        let _ = multi_scale(
            &mut cls,
            &fx.feats,
            &fx.train,
            &fx.labels,
            &fx.val,
            &dcfg,
            &Adam::default(),
            0,
            60,
        );
    }

    #[test]
    fn single_scale_returns_one_report_per_student() {
        let fx = fixture(61);
        let mut cls = build_classifiers(
            ModelKind::Sgc,
            4,
            8,
            3,
            &[],
            0.0,
            &mut StdRng::seed_from_u64(62),
        );
        train_base(&mut cls, &fx.feats, &fx.train, &fx.labels, &fx.val, &cfg());
        let reports = single_scale(
            &mut cls,
            &fx.feats,
            &fx.train,
            &fx.labels,
            &fx.val,
            &cfg(),
            &DistillConfig::default(),
        );
        assert_eq!(reports.len(), 3);
    }
}
