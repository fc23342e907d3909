//! Single-hop neighbor attention — the peer-aware module of the TinyGNN
//! baseline.
//!
//! For each target node `i` with neighbor multiset `N(i)` (the baseline
//! includes the node itself), scaled dot-product attention aggregates
//! neighbor values:
//!
//! ```text
//! q_i = x_i W_q,   k_j = x_j W_k,   v_j = x_j W_v
//! α_ij = softmax_j (q_i · k_j / √d)
//! out_i = Σ_j α_ij v_j
//! ```
//!
//! This reproduces TinyGNN's cost signature (Table V / Fig. 5 of the
//! paper): only 1-hop propagation, but per-edge attention MACs that grow
//! with batch size and dominate on high-dimensional features.

use crate::adam::Adam;
use crate::linear::Linear;
use nai_linalg::ops::softmax_slice;
use nai_linalg::DenseMatrix;
use rand::Rng;

/// Flattened neighbor structure for one batch: node `b` owns the slice
/// `offsets[b]..offsets[b+1]` of `neighbor_rows`, which index into the
/// neighbor feature matrix passed to [`NeighborAttention::forward`].
#[derive(Debug, Clone, Default)]
pub struct NeighborBatch {
    /// Prefix offsets, length `batch + 1`.
    pub offsets: Vec<usize>,
    /// Concatenated neighbor indices (rows of the neighbor feature matrix).
    pub neighbor_rows: Vec<u32>,
}

impl NeighborBatch {
    /// Builds from per-node neighbor lists.
    pub fn from_lists(lists: &[Vec<u32>]) -> Self {
        let mut offsets = Vec::with_capacity(lists.len() + 1);
        offsets.push(0);
        let mut neighbor_rows = Vec::new();
        for l in lists {
            neighbor_rows.extend_from_slice(l);
            offsets.push(neighbor_rows.len());
        }
        Self {
            offsets,
            neighbor_rows,
        }
    }

    /// Number of target nodes.
    pub fn len(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    /// True when there are no target nodes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total neighbor entries.
    pub fn total_neighbors(&self) -> usize {
        self.neighbor_rows.len()
    }
}

/// Cached state from the last training forward.
#[derive(Debug)]
struct AttentionCache {
    q: DenseMatrix,
    k: DenseMatrix,
    v: DenseMatrix,
    alphas: Vec<f32>,
    batch: NeighborBatch,
}

/// Scaled dot-product neighbor attention with trainable `W_q`, `W_k`,
/// `W_v` (all `f × d`).
#[derive(Debug)]
pub struct NeighborAttention {
    wq: Linear,
    wk: Linear,
    wv: Linear,
    dim: usize,
    cache: Option<AttentionCache>,
}

impl NeighborAttention {
    /// New attention module mapping `f`-dim features to `d`-dim outputs.
    pub fn new<R: Rng>(feature_dim: usize, attn_dim: usize, rng: &mut R) -> Self {
        Self {
            wq: Linear::new(feature_dim, attn_dim, rng),
            wk: Linear::new(feature_dim, attn_dim, rng),
            wv: Linear::new(feature_dim, attn_dim, rng),
            dim: attn_dim,
            cache: None,
        }
    }

    /// Output dimensionality `d`.
    pub fn out_dim(&self) -> usize {
        self.dim
    }

    /// Forward pass.
    ///
    /// * `x_self` — features of the target nodes (`batch × f`);
    /// * `x_neighbors` — features of all referenced neighbors (`rows ≥ max
    ///   index in the batch`);
    /// * `batch` — flattened neighbor structure.
    ///
    /// Nodes with zero neighbors produce a zero row.
    pub fn forward(
        &mut self,
        x_self: &DenseMatrix,
        x_neighbors: &DenseMatrix,
        batch: &NeighborBatch,
        train: bool,
    ) -> DenseMatrix {
        assert_eq!(x_self.rows(), batch.len(), "batch size mismatch");
        let q = self.wq.forward(x_self, train);
        let k = self.wk.forward(x_neighbors, train);
        let v = self.wv.forward(x_neighbors, train);
        let scale = 1.0 / (self.dim as f32).sqrt();
        let mut out = DenseMatrix::zeros(batch.len(), self.dim);
        let mut alphas = vec![0.0f32; batch.total_neighbors()];
        for b in 0..batch.len() {
            let (lo, hi) = (batch.offsets[b], batch.offsets[b + 1]);
            if lo == hi {
                continue;
            }
            let qb = q.row(b);
            for (slot, &j) in alphas[lo..hi].iter_mut().zip(&batch.neighbor_rows[lo..hi]) {
                *slot = nai_linalg::ops::dot(qb, k.row(j as usize)) * scale;
            }
            softmax_slice(&mut alphas[lo..hi]);
            let orow = out.row_mut(b);
            for (&a, &j) in alphas[lo..hi].iter().zip(&batch.neighbor_rows[lo..hi]) {
                for (o, &vv) in orow.iter_mut().zip(v.row(j as usize)) {
                    *o += a * vv;
                }
            }
        }
        if train {
            self.cache = Some(AttentionCache {
                q,
                k,
                v,
                alphas,
                batch: batch.clone(),
            });
        }
        out
    }

    /// Backward pass from `d_out` (`batch × d`), accumulating gradients in
    /// the three projections. Input gradients are not produced (raw
    /// features are leaves in TinyGNN).
    ///
    /// # Panics
    /// Panics if called without a cached training forward.
    pub fn backward(&mut self, d_out: &DenseMatrix) {
        let cache = self
            .cache
            .take()
            .expect("backward called without training forward");
        let scale = 1.0 / (self.dim as f32).sqrt();
        let batch = &cache.batch;
        let mut dq = DenseMatrix::zeros(cache.q.rows(), self.dim);
        let mut dk = DenseMatrix::zeros(cache.k.rows(), self.dim);
        let mut dv = DenseMatrix::zeros(cache.v.rows(), self.dim);
        for b in 0..batch.len() {
            let (lo, hi) = (batch.offsets[b], batch.offsets[b + 1]);
            if lo == hi {
                continue;
            }
            let dout_b = d_out.row(b);
            let alphas = &cache.alphas[lo..hi];
            let nbrs = &batch.neighbor_rows[lo..hi];
            // dα_j = dout · v_j ; dv_j += α_j dout.
            let mut dalpha = vec![0.0f32; hi - lo];
            for (t, &j) in nbrs.iter().enumerate() {
                dalpha[t] = nai_linalg::ops::dot(dout_b, cache.v.row(j as usize));
                let dvrow = dv.row_mut(j as usize);
                for (dvv, &g) in dvrow.iter_mut().zip(dout_b.iter()) {
                    *dvv += alphas[t] * g;
                }
            }
            // Softmax backward: ds_j = α_j (dα_j − Σ_k α_k dα_k).
            let dot_ad: f32 = alphas.iter().zip(dalpha.iter()).map(|(a, d)| a * d).sum();
            let qb = cache.q.row(b).to_vec();
            let dqb = dq.row_mut(b);
            for (t, &j) in nbrs.iter().enumerate() {
                let ds = alphas[t] * (dalpha[t] - dot_ad) * scale;
                let krow = cache.k.row(j as usize);
                for (dqv, &kv) in dqb.iter_mut().zip(krow.iter()) {
                    *dqv += ds * kv;
                }
                let dkrow = dk.row_mut(j as usize);
                for (dkv, &qv) in dkrow.iter_mut().zip(qb.iter()) {
                    *dkv += ds * qv;
                }
            }
        }
        self.wq.backward(&dq);
        self.wk.backward(&dk);
        self.wv.backward(&dv);
    }

    /// Zeroes accumulated gradients.
    pub fn zero_grads(&mut self) {
        self.wq.zero_grads();
        self.wk.zero_grads();
        self.wv.zero_grads();
    }

    /// Applies accumulated gradients.
    pub fn apply_grads(&mut self, opt: &Adam) {
        self.wq.apply_grads(opt);
        self.wk.apply_grads(opt);
        self.wv.apply_grads(opt);
    }

    /// MACs for one batch: three projections plus per-edge score/mix work.
    /// `f` is the feature dim.
    pub fn macs(&self, batch_nodes: u64, neighbor_rows: u64, total_edges: u64, f: u64) -> u64 {
        let d = self.dim as u64;
        batch_nodes * f * d            // queries
            + neighbor_rows * 2 * f * d // keys + values
            + total_edges * 2 * d // scores + weighted sum
    }

    /// Trainable parameter count.
    pub fn num_params(&self) -> usize {
        self.wq.num_params() + self.wk.num_params() + self.wv.num_params()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup() -> (NeighborAttention, DenseMatrix, DenseMatrix, NeighborBatch) {
        let mut rng = StdRng::seed_from_u64(21);
        let attn = NeighborAttention::new(4, 3, &mut rng);
        let x_self = nai_linalg::init::gaussian(2, 4, 1.0, &mut rng);
        let x_nbr = nai_linalg::init::gaussian(5, 4, 1.0, &mut rng);
        let batch = NeighborBatch::from_lists(&[vec![0, 1, 2], vec![3, 4]]);
        (attn, x_self, x_nbr, batch)
    }

    #[test]
    fn forward_shapes_and_convexity() {
        let (mut attn, x_self, x_nbr, batch) = setup();
        let out = attn.forward(&x_self, &x_nbr, &batch, false);
        assert_eq!(out.shape(), (2, 3));
        // Output of node 0 lies in the convex hull of v rows — check max
        // bound via values.
        let v0 = attn.wv.forward_infer(&x_nbr);
        for c in 0..3 {
            let vals: Vec<f32> = (0..3).map(|j| v0.get(j, c)).collect();
            let (lo, hi) = vals
                .iter()
                .fold((f32::INFINITY, f32::NEG_INFINITY), |(l, h), &v| {
                    (l.min(v), h.max(v))
                });
            let o = out.get(0, c);
            assert!(
                o >= lo - 1e-5 && o <= hi + 1e-5,
                "out {o} outside [{lo},{hi}]"
            );
        }
    }

    #[test]
    fn node_without_neighbors_gets_zero_row() {
        let mut rng = StdRng::seed_from_u64(22);
        let mut attn = NeighborAttention::new(4, 3, &mut rng);
        let x_self = nai_linalg::init::gaussian(1, 4, 1.0, &mut rng);
        let x_nbr = DenseMatrix::zeros(1, 4);
        let batch = NeighborBatch::from_lists(&[vec![]]);
        let out = attn.forward(&x_self, &x_nbr, &batch, false);
        assert!(out.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn gradients_match_finite_difference() {
        let (mut attn, x_self, x_nbr, batch) = setup();
        // Loss = sum(out²)/2.
        attn.zero_grads();
        let out = attn.forward(&x_self, &x_nbr, &batch, true);
        attn.backward(&out);
        let analytic = attn.wq.grad_w().get(1, 2);
        let eps = 1e-3f32;
        let loss_with = |attn: &mut NeighborAttention| -> f32 {
            let o = attn.forward(&x_self.clone(), &x_nbr.clone(), &batch, false);
            o.as_slice().iter().map(|v| v * v / 2.0).sum()
        };
        let orig = attn.wq.w.get(1, 2);
        attn.wq.w.set(1, 2, orig + eps);
        let lp = loss_with(&mut attn);
        attn.wq.w.set(1, 2, orig - eps);
        let lm = loss_with(&mut attn);
        attn.wq.w.set(1, 2, orig);
        let numeric = (lp - lm) / (2.0 * eps);
        assert!(
            (numeric - analytic).abs() < 2e-2 * (1.0 + numeric.abs()),
            "wq grad: numeric {numeric} vs analytic {analytic}"
        );
    }

    #[test]
    fn value_projection_gradient_matches_finite_difference() {
        let (mut attn, x_self, x_nbr, batch) = setup();
        attn.zero_grads();
        let out = attn.forward(&x_self, &x_nbr, &batch, true);
        attn.backward(&out);
        let analytic = attn.wv.grad_w().get(0, 0);
        let eps = 1e-3f32;
        let orig = attn.wv.w.get(0, 0);
        let loss_with = |attn: &mut NeighborAttention| -> f32 {
            let o = attn.forward(&x_self.clone(), &x_nbr.clone(), &batch, false);
            o.as_slice().iter().map(|v| v * v / 2.0).sum()
        };
        attn.wv.w.set(0, 0, orig + eps);
        let lp = loss_with(&mut attn);
        attn.wv.w.set(0, 0, orig - eps);
        let lm = loss_with(&mut attn);
        attn.wv.w.set(0, 0, orig);
        let numeric = (lp - lm) / (2.0 * eps);
        assert!(
            (numeric - analytic).abs() < 2e-2 * (1.0 + numeric.abs()),
            "wv grad: numeric {numeric} vs analytic {analytic}"
        );
    }

    #[test]
    fn neighbor_batch_bookkeeping() {
        let b = NeighborBatch::from_lists(&[vec![1, 2], vec![], vec![0]]);
        assert_eq!(b.len(), 3);
        assert_eq!(b.total_neighbors(), 3);
        assert_eq!(b.offsets, vec![0, 2, 2, 3]);
        assert!(!b.is_empty());
        assert!(NeighborBatch::from_lists(&[]).is_empty());
    }

    #[test]
    fn macs_formula_counts_edges() {
        let mut rng = StdRng::seed_from_u64(23);
        let attn = NeighborAttention::new(8, 4, &mut rng);
        let macs = attn.macs(10, 50, 60, 8);
        assert_eq!(macs, 10 * 8 * 4 + 50 * 2 * 8 * 4 + 60 * 2 * 4);
    }
}
