//! Gate-based Node-Adaptive Propagation (NAP_g, Eq. 11–13).
//!
//! One lightweight gate `g^(l)` per depth `l ∈ [1, k−1]` decides whether a
//! node's propagation stops at `l`. Each gate scores the concatenation of
//! the node's current propagated feature `X^(l)` and the comparison state
//! `X̂^(l)` (initialised to the stationary feature, Eq. 11) with a single
//! `2f × 2` weight matrix — the paper's lightweight-gate requirement.
//!
//! **Training** (Fig. 3) is end-to-end across depths with frozen
//! classifiers: the discrete exit decision is relaxed via Gumbel-softmax,
//! the per-depth exit probabilities form a stick-breaking chain
//! `α_l = exit_l · Π_{j<l} continue_j`, and the loss is the cross-entropy
//! of the α-weighted mixture of the frozen classifiers' predictions. The
//! chain product realises the exclusivity
//! that the paper's penalty term Θ (Eq. 11) enforces, and `X̂` inputs are
//! treated as constants in the backward pass.
//!
//! **Inference** uses deterministic hard decisions; the engine removes a
//! node once selected, which is exactly what Θ with μ = φ = 1000 achieves
//! for nodes that remain in the batch (a selected node's later masks are
//! pinned to "continue", i.e. it is never re-selected —
//! [`GateSet::decide_with_penalty`] demonstrates the equivalence and is
//! exercised in tests).

use nai_linalg::ops::{softmax_rows, softmax_slice};
use nai_linalg::DenseMatrix;
use nai_models::train::gather_depth_feats;
use nai_models::DepthClassifier;
use nai_nn::adam::Adam;
use nai_nn::gumbel::sample_gumbel;
use nai_nn::linear::Linear;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Penalty constants μ and φ of Eq. (11) footnote.
pub const PENALTY_MU: f32 = 1000.0;
/// See [`PENALTY_MU`].
pub const PENALTY_PHI: f32 = 1000.0;

/// Trainable gates for depths `1..=k−1`.
#[derive(Debug, Clone)]
pub struct GateSet {
    gates: Vec<Linear>,
    feature_dim: usize,
    k: usize,
}

/// Gate-training outcome.
#[derive(Debug, Clone)]
pub struct GateTrainReport {
    /// Mixture cross-entropy of the final epoch.
    pub final_loss: f32,
    /// Epochs run.
    pub epochs_run: usize,
    /// Mean soft exit depth of the final epoch (diagnostic).
    pub mean_exit_depth: f32,
}

/// Configuration for gate training.
#[derive(Debug, Clone)]
pub struct GateTrainConfig {
    /// Training epochs.
    pub epochs: usize,
    /// Mini-batch size (0 = full batch).
    pub batch_size: usize,
    /// Gumbel-softmax temperature τ.
    pub tau: f32,
    /// Optimizer.
    pub adam: Adam,
    /// RNG seed.
    pub seed: u64,
}

impl Default for GateTrainConfig {
    fn default() -> Self {
        Self {
            epochs: 40,
            batch_size: 256,
            tau: 1.0,
            adam: Adam::new(0.01, 0.0),
            seed: 7,
        }
    }
}

impl GateSet {
    /// Builds `k − 1` gates for feature dimension `f`.
    ///
    /// # Panics
    /// Panics if `k < 2` (a single depth needs no gates).
    pub fn new(feature_dim: usize, k: usize, rng: &mut StdRng) -> Self {
        assert!(k >= 2, "gates need at least two candidate depths");
        let gates = (1..k)
            .map(|_| Linear::new(2 * feature_dim, 2, rng))
            .collect();
        Self {
            gates,
            feature_dim,
            k,
        }
    }

    /// Highest depth `k` the gate chain serves.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Gate count (`k − 1`).
    pub fn num_gates(&self) -> usize {
        self.gates.len()
    }

    /// MACs per node for one gate evaluation: the `2f × 2` product.
    pub fn macs_per_node(&self) -> u64 {
        (2 * self.feature_dim * 2) as u64
    }

    /// Feature dimension `f` the gates were built for.
    pub fn feature_dim(&self) -> usize {
        self.feature_dim
    }

    /// Per-gate `(weights, bias)` snapshot (checkpoint serialization).
    pub fn snapshot(&self) -> Vec<(Vec<f32>, Vec<f32>)> {
        self.gates.iter().map(|g| g.snapshot()).collect()
    }

    /// Restores gate parameters from [`Self::snapshot`] output.
    ///
    /// # Panics
    /// Panics if the snapshot's gate count or shapes disagree.
    pub fn restore(&mut self, snaps: &[(Vec<f32>, Vec<f32>)]) {
        assert_eq!(snaps.len(), self.gates.len(), "gate count mismatch");
        for (g, s) in self.gates.iter_mut().zip(snaps) {
            g.restore(s);
        }
    }

    fn gate_input(x_l: &DenseMatrix, x_hat: &DenseMatrix) -> DenseMatrix {
        // nai-lint: allow(hot-path-panic) -- callers pass row-aligned slices
        // of the same depth-feature table; hconcat can only see equal row counts.
        x_l.hconcat(x_hat).expect("aligned gate inputs")
    }

    /// Deterministic inference decision of gate `depth ∈ [1, k−1]`:
    /// `true` = exit now (mask `[1, 0]`, Eq. 13).
    ///
    /// # Panics
    /// Panics if `depth` has no gate.
    pub fn decide(&self, depth: usize, x_l: &DenseMatrix, x_hat: &DenseMatrix) -> Vec<bool> {
        assert!(
            depth >= 1 && depth < self.k,
            "gate depth {depth} out of range [1, {})",
            self.k
        );
        let input = Self::gate_input(x_l, x_hat);
        let mut logits = self.gates[depth - 1].forward_infer(&input);
        softmax_rows(&mut logits);
        (0..logits.rows())
            .map(|r| logits.get(r, 0) > logits.get(r, 1))
            .collect()
    }

    /// Row-streaming variant of [`Self::decide`] for the active-set
    /// engine: decides each node from borrowed `(X^(l), X̂)` row pairs
    /// without materializing the concatenated gate input or gathering
    /// active rows into matrices. Decisions are **bit-identical** with
    /// [`Self::decide`] on the equivalent matrices (same accumulation
    /// order via `Linear::forward_row_infer`, same per-row softmax).
    ///
    /// # Panics
    /// Panics if `depth` has no gate or a row pair's length differs from
    /// the gate's feature dimension.
    pub fn decide_rows<'a, I>(&self, depth: usize, rows: I, out: &mut Vec<bool>)
    where
        I: Iterator<Item = (&'a [f32], &'a [f32])>,
    {
        assert!(
            depth >= 1 && depth < self.k,
            "gate depth {depth} out of range [1, {})",
            self.k
        );
        let gate = &self.gates[depth - 1];
        let f = self.feature_dim;
        let mut input = vec![0.0f32; 2 * f];
        let mut logits = [0.0f32; 2];
        out.clear();
        for (x_l, x_hat) in rows {
            input[..f].copy_from_slice(x_l);
            input[f..].copy_from_slice(x_hat);
            gate.forward_row_infer(&input, &mut logits);
            softmax_slice(&mut logits);
            out.push(logits[0] > logits[1]);
        }
    }

    /// Faithful Eq. (11)–(13) decision including the penalty term Θ built
    /// from previous selections. `already_selected[i]` is true when node
    /// `i` was selected by an earlier gate; the returned mask is then
    /// guaranteed `false` (continue), matching the engine's node-removal
    /// semantics.
    pub fn decide_with_penalty(
        &self,
        depth: usize,
        x_l: &DenseMatrix,
        x_hat: &DenseMatrix,
        already_selected: &[bool],
    ) -> Vec<bool> {
        let input = Self::gate_input(x_l, x_hat);
        let mut logits = self.gates[depth - 1].forward_infer(&input);
        softmax_rows(&mut logits);
        (0..logits.rows())
            .map(|r| {
                let theta = if already_selected[r] {
                    // θ = Σ μ·σ(φ·(m_prev − 0.5)) ≈ μ for a prior selection.
                    PENALTY_MU * nai_linalg::ops::sigmoid(PENALTY_PHI * 0.5)
                } else {
                    0.0
                };
                (logits.get(r, 0) - theta) > logits.get(r, 1)
            })
            .collect()
    }

    /// End-to-end gate training against frozen classifiers (Fig. 3).
    ///
    /// * `depth_feats` — `X^(0..=k)` on the training graph;
    /// * `stationary` — full stationary matrix aligned with the graph;
    /// * `classifiers` — frozen `f^(1..=k)` (`classifiers[l-1]` serves depth `l`);
    /// * `train_idx` / `labels` — supervision.
    ///
    /// # Panics
    /// Panics if classifier count differs from `k` or shapes disagree.
    pub fn train(
        &mut self,
        depth_feats: &[DenseMatrix],
        stationary: &DenseMatrix,
        classifiers: &[DepthClassifier],
        train_idx: &[u32],
        labels: &[u32],
        cfg: &GateTrainConfig,
    ) -> GateTrainReport {
        assert_eq!(classifiers.len(), self.k, "need one classifier per depth");
        assert!(depth_feats.len() > self.k, "need X^(0..=k)");
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let n = train_idx.len();
        let batch = if cfg.batch_size == 0 || cfg.batch_size >= n {
            n
        } else {
            cfg.batch_size
        };
        let mut order: Vec<usize> = (0..n).collect();
        let mut final_loss = 0.0f32;
        let mut mean_exit_depth = 0.0f32;
        let mut epochs_run = 0usize;

        for _ in 0..cfg.epochs {
            epochs_run += 1;
            order.shuffle(&mut rng);
            let mut epoch_loss = 0.0f32;
            let mut epoch_depth = 0.0f32;
            let mut batches = 0usize;
            for chunk in order.chunks(batch) {
                let rows: Vec<usize> = chunk.iter().map(|&p| train_idx[p] as usize).collect();
                let feats = gather_depth_feats(depth_feats, self.k + 1, &rows);
                let yb: Vec<u32> = rows.iter().map(|&r| labels[r]).collect();
                // nai-lint: allow(hot-path-panic) -- rows come from train_idx,
                // which the caller validated against the stationary matrix.
                let x_inf = stationary.gather_rows(&rows).expect("stationary rows");
                let (loss, depth) =
                    self.train_batch(&feats, &x_inf, classifiers, &yb, cfg, &mut rng);
                epoch_loss += loss;
                epoch_depth += depth;
                batches += 1;
            }
            final_loss = epoch_loss / batches.max(1) as f32;
            mean_exit_depth = epoch_depth / batches.max(1) as f32;
        }
        GateTrainReport {
            final_loss,
            epochs_run,
            mean_exit_depth,
        }
    }

    /// One gate-training step on a gathered batch. Returns (loss, mean
    /// soft exit depth).
    fn train_batch(
        &mut self,
        feats: &[DenseMatrix],
        x_inf: &DenseMatrix,
        classifiers: &[DepthClassifier],
        labels: &[u32],
        cfg: &GateTrainConfig,
        rng: &mut StdRng,
    ) -> (f32, f32) {
        let b = labels.len();
        let k = self.k;
        // Frozen per-depth class probabilities p_l (B × c).
        let probs: Vec<DenseMatrix> = (1..=k)
            .map(|l| {
                let mut logits = classifiers[l - 1].forward(&feats[..=l]);
                softmax_rows(&mut logits);
                logits
            })
            .collect();

        // Forward chain with Gumbel-softmax relaxation.
        let mut x_hat = x_inf.clone();
        let mut carry = vec![1.0f32; b]; // Π continue so far
        let mut exits: Vec<Vec<f32>> = Vec::with_capacity(k - 1); // soft exit_l
        let mut conts: Vec<Vec<f32>> = Vec::with_capacity(k - 1);
        let mut carry_before: Vec<Vec<f32>> = Vec::with_capacity(k - 1);
        let mut soft_masks: Vec<DenseMatrix> = Vec::with_capacity(k - 1); // for softmax backward
        for (l, feat) in feats.iter().enumerate().take(k).skip(1) {
            let input = Self::gate_input(feat, &x_hat);
            let logits = self.gates[l - 1].forward(&input, true);
            let mut m = DenseMatrix::zeros(b, 2);
            for r in 0..b {
                let mut row = [
                    (logits.get(r, 0) + sample_gumbel(rng)) / cfg.tau,
                    (logits.get(r, 1) + sample_gumbel(rng)) / cfg.tau,
                ];
                softmax_slice(&mut row);
                m.set(r, 0, row[0]);
                m.set(r, 1, row[1]);
            }
            carry_before.push(carry.clone());
            let e: Vec<f32> = (0..b).map(|r| m.get(r, 0)).collect();
            let c: Vec<f32> = (0..b).map(|r| m.get(r, 1)).collect();
            // X̂^(l+1) = exit·X^(l) + continue·X̂^(l) (Eq. 12, soft form;
            // stop-gradient on the inputs).
            for r in 0..b {
                let xr = feat.row(r);
                let hr = x_hat.row_mut(r);
                for (h, &x) in hr.iter_mut().zip(xr.iter()) {
                    *h = e[r] * x + c[r] * *h;
                }
                carry[r] *= c[r];
            }
            exits.push(e);
            conts.push(c);
            soft_masks.push(m);
        }

        // Mixture prediction P = Σ α_l p_l, α_k = carry.
        let c_dim = probs[0].cols();
        let mut mix = DenseMatrix::zeros(b, c_dim);
        let mut alphas: Vec<Vec<f32>> = Vec::with_capacity(k);
        for l in 1..k {
            let a: Vec<f32> = (0..b)
                .map(|r| exits[l - 1][r] * carry_before[l - 1][r])
                .collect();
            for (r, &ar) in a.iter().enumerate() {
                let src = probs[l - 1].row(r);
                let dst = mix.row_mut(r);
                for (d, &s) in dst.iter_mut().zip(src.iter()) {
                    *d += ar * s;
                }
            }
            alphas.push(a);
        }
        for (r, &cr) in carry.iter().enumerate() {
            let src = probs[k - 1].row(r);
            let dst = mix.row_mut(r);
            for (d, &s) in dst.iter_mut().zip(src.iter()) {
                *d += cr * s;
            }
        }
        alphas.push(carry.clone());

        // Loss and dα.
        let mut loss = 0.0f32;
        let mut dalpha = vec![vec![0.0f32; b]; k]; // index l-1
        let inv_b = 1.0 / b as f32;
        let mut mean_depth = 0.0f32;
        for r in 0..b {
            let y = labels[r] as usize;
            let p = mix.get(r, y).max(1e-9);
            loss -= p.ln() * inv_b;
            for (l, da) in dalpha.iter_mut().enumerate() {
                da[r] = -probs[l].get(r, y) / p * inv_b;
            }
            for (l, a) in alphas.iter().enumerate() {
                mean_depth += (l + 1) as f32 * a[r] * inv_b;
            }
        }

        // Gradients to soft masks via the stick-breaking chain.
        // T_l = dα_l · α_l; dcontinue_j = Σ_{l>j} T_l / continue_j.
        let mut t = vec![vec![0.0f32; b]; k];
        for l in 0..k {
            for r in 0..b {
                t[l][r] = dalpha[l][r] * alphas[l][r];
            }
        }
        let mut d_exit = vec![vec![0.0f32; b]; k - 1];
        let mut d_cont = vec![vec![0.0f32; b]; k - 1];
        // suffix_after[j][r] = Σ_{l > j} T_l, with T 0-based over depths
        // (T[0] ↔ α_1 … T[k−1] ↔ α_k). Every α_l with l > j carries a
        // factor continue_j, hence dcontinue_j = suffix_after[j] / continue_j.
        let mut suffix_after = vec![vec![0.0f32; b]; k]; // suffix_after[j][r] = Σ_{l > j} t[l][r]
        for j in (0..k - 1).rev() {
            for r in 0..b {
                suffix_after[j][r] = suffix_after[j + 1][r] + t[j + 1][r];
            }
        }
        for j in 1..k {
            // gate at depth j (0-based j-1): exit weight α_j = exit_j · carry_before.
            for r in 0..b {
                d_exit[j - 1][r] = dalpha[j - 1][r] * carry_before[j - 1][r];
                let cont = conts[j - 1][r].max(1e-6);
                d_cont[j - 1][r] = suffix_after[j - 1][r] / cont;
            }
        }

        // Backprop through Gumbel-softmax into each gate.
        for l in 1..k {
            let m = &soft_masks[l - 1];
            let mut dlogits = DenseMatrix::zeros(b, 2);
            for r in 0..b {
                let dm = [d_exit[l - 1][r], d_cont[l - 1][r]];
                let mr = [m.get(r, 0), m.get(r, 1)];
                let dot = dm[0] * mr[0] + dm[1] * mr[1];
                dlogits.set(r, 0, mr[0] * (dm[0] - dot) / cfg.tau);
                dlogits.set(r, 1, mr[1] * (dm[1] - dot) / cfg.tau);
            }
            self.gates[l - 1].zero_grads();
            let _ = self.gates[l - 1].backward(&dlogits);
            self.gates[l - 1].apply_grads(&cfg.adam);
        }
        (loss, mean_depth)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stationary::StationaryState;
    use nai_graph::generators::{generate, GeneratorConfig};
    use nai_graph::{normalized_adjacency, Convolution};
    use nai_models::propagate_features;
    use nai_models::train::train_depth_classifier;
    use nai_models::ModelKind;
    use nai_nn::trainer::TrainConfig;

    fn fixture() -> (
        Vec<DenseMatrix>,
        DenseMatrix,
        Vec<DepthClassifier>,
        Vec<u32>,
        Vec<u32>,
    ) {
        let g = generate(
            &GeneratorConfig {
                num_nodes: 250,
                num_classes: 3,
                feature_dim: 8,
                ..Default::default()
            },
            &mut StdRng::seed_from_u64(5),
        );
        let norm = normalized_adjacency(&g.adj, Convolution::Symmetric);
        let k = 3;
        let feats = propagate_features(&norm, &g.features, k);
        let st = StationaryState::compute(&g.adj, &g.features, 0.5);
        let xinf = st.full();
        let train: Vec<u32> = (0..180u32).collect();
        let val: Vec<u32> = (180..250u32).collect();
        let mut classifiers = Vec::new();
        for l in 1..=k {
            let mut rng = StdRng::seed_from_u64(10 + l as u64);
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
        (feats, xinf, classifiers, train, g.labels.clone())
    }

    #[test]
    fn training_reduces_mixture_loss() {
        let (feats, xinf, classifiers, train, labels) = fixture();
        let mut gates = GateSet::new(8, 3, &mut StdRng::seed_from_u64(20));
        let short = gates.train(
            &feats,
            &xinf,
            &classifiers,
            &train,
            &labels,
            &GateTrainConfig {
                epochs: 1,
                ..Default::default()
            },
        );
        let mut gates2 = GateSet::new(8, 3, &mut StdRng::seed_from_u64(20));
        let long = gates2.train(
            &feats,
            &xinf,
            &classifiers,
            &train,
            &labels,
            &GateTrainConfig {
                epochs: 25,
                ..Default::default()
            },
        );
        assert!(
            long.final_loss < short.final_loss + 0.05,
            "loss should not grow: {} -> {}",
            short.final_loss,
            long.final_loss
        );
        assert!(long.mean_exit_depth >= 1.0 && long.mean_exit_depth <= 3.0);
    }

    #[test]
    fn decide_returns_boolean_per_row() {
        let (feats, xinf, classifiers, train, labels) = fixture();
        let mut gates = GateSet::new(8, 3, &mut StdRng::seed_from_u64(21));
        gates.train(
            &feats,
            &xinf,
            &classifiers,
            &train,
            &labels,
            &GateTrainConfig {
                epochs: 5,
                ..Default::default()
            },
        );
        let rows: Vec<usize> = (0..40).collect();
        let x1 = feats[1].gather_rows(&rows).unwrap();
        let xh = xinf.gather_rows(&rows).unwrap();
        let d = gates.decide(1, &x1, &xh);
        assert_eq!(d.len(), 40);
    }

    #[test]
    fn decide_rows_matches_matrix_decide_bitwise() {
        let (feats, xinf, classifiers, train, labels) = fixture();
        let mut gates = GateSet::new(8, 3, &mut StdRng::seed_from_u64(23));
        gates.train(
            &feats,
            &xinf,
            &classifiers,
            &train,
            &labels,
            &GateTrainConfig {
                epochs: 5,
                ..Default::default()
            },
        );
        let rows: Vec<usize> = (0..40).collect();
        for (depth, level) in feats.iter().enumerate().take(3).skip(1) {
            let x1 = level.gather_rows(&rows).unwrap();
            let xh = xinf.gather_rows(&rows).unwrap();
            let matrix = gates.decide(depth, &x1, &xh);
            let mut streamed = Vec::new();
            gates.decide_rows(
                depth,
                rows.iter().map(|&r| (level.row(r), xinf.row(r))),
                &mut streamed,
            );
            assert_eq!(matrix, streamed, "depth {depth}");
        }
    }

    #[test]
    fn penalty_forces_continue_for_selected_nodes() {
        let (feats, xinf, _classifiers, _train, _labels) = fixture();
        let gates = GateSet::new(8, 3, &mut StdRng::seed_from_u64(22));
        let rows: Vec<usize> = (0..10).collect();
        let x1 = feats[1].gather_rows(&rows).unwrap();
        let xh = xinf.gather_rows(&rows).unwrap();
        let selected = vec![true; 10];
        let d = gates.decide_with_penalty(1, &x1, &xh, &selected);
        assert!(d.iter().all(|&e| !e), "penalty must force continue");
        // Without prior selection, decisions match plain decide().
        let clean = vec![false; 10];
        assert_eq!(
            gates.decide_with_penalty(1, &x1, &xh, &clean),
            gates.decide(1, &x1, &xh)
        );
    }

    #[test]
    fn gate_macs_count() {
        let gates = GateSet::new(16, 4, &mut StdRng::seed_from_u64(23));
        assert_eq!(gates.macs_per_node(), 2 * 16 * 2);
        assert_eq!(gates.num_gates(), 3);
    }

    #[test]
    #[should_panic(expected = "at least two candidate depths")]
    fn k1_rejected() {
        let _ = GateSet::new(4, 1, &mut StdRng::seed_from_u64(24));
    }
}
