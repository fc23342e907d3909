//! Generalized graph convolution matrix `Â = D̃^(γ−1) Ã D̃^(−γ)` (Eq. 1).
//!
//! `Ã = A + I` adds self-loops; `D̃` is its degree matrix. The convolution
//! coefficient γ recovers the three standard operators:
//!
//! | γ | `Â` | used by |
//! |---|-----|---------|
//! | 1 | `Ã D̃⁻¹` (transition) | GraphSAGE-style mean over in-edges |
//! | ½ | `D̃^(−½) Ã D̃^(−½)` (symmetric) | GCN, SGC — the paper's default |
//! | 0 | `D̃⁻¹ Ã` (reverse transition) | JK-Net style row-stochastic |

use crate::csr::CsrMatrix;

/// Convolution coefficient γ of Eq. (1), with the three named operating
/// points used in the literature plus a free-form value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Convolution {
    /// γ = 1: transition matrix `Ã D̃⁻¹` (column-stochastic).
    Transition,
    /// γ = ½: symmetric normalization `D̃^(−½) Ã D̃^(−½)` — the paper's
    /// experimental default.
    Symmetric,
    /// γ = 0: reverse transition `D̃⁻¹ Ã` (row-stochastic).
    ReverseTransition,
    /// Arbitrary γ ∈ [0, 1].
    Gamma(f32),
}

impl Convolution {
    /// The numeric γ value.
    pub fn gamma(self) -> f32 {
        match self {
            Convolution::Transition => 1.0,
            Convolution::Symmetric => 0.5,
            Convolution::ReverseTransition => 0.0,
            Convolution::Gamma(g) => g,
        }
    }
}

/// Builds `Â = D̃^(γ−1) Ã D̃^(−γ)` from a raw (unweighted, symmetric,
/// loop-free) adjacency matrix. Self-loops are added, then each entry
/// `(i, j)` receives weight `d̃_i^(γ−1) · d̃_j^(−γ)` where `d̃ = deg + 1`.
///
/// # Panics
/// Panics (debug) if `adj` contains self-loops — callers construct
/// adjacency through [`CsrMatrix::undirected_adjacency`], which strips them.
pub fn normalized_adjacency(adj: &CsrMatrix, conv: Convolution) -> CsrMatrix {
    let n = adj.n();
    let gamma = conv.gamma();
    let deg: Vec<f32> = adj.degrees();
    // d̃^(γ−1) and d̃^(−γ) lookup tables.
    let left: Vec<f32> = deg.iter().map(|&d| (d + 1.0).powf(gamma - 1.0)).collect();
    let right: Vec<f32> = deg.iter().map(|&d| (d + 1.0).powf(-gamma)).collect();

    let mut triplets = Vec::with_capacity(adj.nnz() + n);
    for i in 0..n {
        for (j, v) in adj.row_iter(i) {
            debug_assert_ne!(i as u32, j, "adjacency must be loop-free");
            triplets.push((i as u32, j, v * left[i] * right[j as usize]));
        }
        // Self-loop from Ã = A + I.
        triplets.push((i as u32, i as u32, left[i] * right[i]));
    }
    CsrMatrix::from_coo(n, &triplets).expect("indices verified by construction")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path4() -> CsrMatrix {
        CsrMatrix::undirected_adjacency(4, &[(0, 1), (1, 2), (2, 3)]).unwrap()
    }

    #[test]
    fn gamma_values() {
        assert_eq!(Convolution::Transition.gamma(), 1.0);
        assert_eq!(Convolution::Symmetric.gamma(), 0.5);
        assert_eq!(Convolution::ReverseTransition.gamma(), 0.0);
        assert_eq!(Convolution::Gamma(0.3).gamma(), 0.3);
    }

    #[test]
    fn reverse_transition_rows_sum_to_one() {
        // γ = 0: Â = D̃⁻¹ Ã is row-stochastic.
        let norm = normalized_adjacency(&path4(), Convolution::ReverseTransition);
        for i in 0..4 {
            let s: f32 = norm.row_iter(i).map(|(_, v)| v).sum();
            assert!((s - 1.0).abs() < 1e-6, "row {i} sums to {s}");
        }
    }

    #[test]
    fn transition_columns_sum_to_one() {
        // γ = 1: Â = Ã D̃⁻¹ is column-stochastic.
        let norm = normalized_adjacency(&path4(), Convolution::Transition);
        let dense = norm.to_dense();
        for j in 0..4 {
            let s: f32 = (0..4).map(|i| dense.get(i, j)).sum();
            assert!((s - 1.0).abs() < 1e-6, "col {j} sums to {s}");
        }
    }

    #[test]
    fn symmetric_matrix_is_symmetric() {
        let norm = normalized_adjacency(&path4(), Convolution::Symmetric);
        assert!(norm.is_symmetric(1e-6));
    }

    #[test]
    fn self_loops_present_with_correct_weight() {
        let norm = normalized_adjacency(&path4(), Convolution::Symmetric);
        // Node 0 has degree 1, d̃ = 2 → self weight = 2^(−½)·2^(−½) = ½.
        let self_w = norm
            .row_iter(0)
            .find(|&(c, _)| c == 0)
            .map(|(_, v)| v)
            .unwrap();
        assert!((self_w - 0.5).abs() < 1e-6);
    }

    #[test]
    fn symmetric_entry_formula() {
        // Edge (1, 2): d̃_1 = 3, d̃_2 = 3 → weight 1/3.
        let norm = normalized_adjacency(&path4(), Convolution::Symmetric);
        let w = norm
            .row_iter(1)
            .find(|&(c, _)| c == 2)
            .map(|(_, v)| v)
            .unwrap();
        assert!((w - 1.0 / 3.0).abs() < 1e-6);
    }

    #[test]
    fn isolated_node_gets_unit_self_loop() {
        let adj = CsrMatrix::undirected_adjacency(2, &[]).unwrap();
        let norm = normalized_adjacency(&adj, Convolution::Symmetric);
        let w = norm
            .row_iter(0)
            .find(|&(c, _)| c == 0)
            .map(|(_, v)| v)
            .unwrap();
        assert!((w - 1.0).abs() < 1e-6);
        assert_eq!(norm.row_nnz(0), 1);
    }

    #[test]
    fn propagation_preserves_constant_vector_for_gamma_zero() {
        // Row-stochastic Â maps the all-ones vector to itself.
        let norm = normalized_adjacency(&path4(), Convolution::ReverseTransition);
        let ones = nai_linalg::DenseMatrix::from_fn(4, 1, |_, _| 1.0);
        let out = norm.spmm(&ones);
        for r in 0..4 {
            assert!((out.get(r, 0) - 1.0).abs() < 1e-6);
        }
    }
}
