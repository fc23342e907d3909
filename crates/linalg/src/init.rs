//! Weight initialisation helpers.
//!
//! All randomness in the workspace flows through caller-provided
//! [`rand::Rng`] instances seeded at the experiment level, so every result
//! is reproducible bit-for-bit on the same toolchain.

use crate::dense::DenseMatrix;
use rand::Rng;

/// Glorot/Xavier uniform initialisation: `U(-a, a)` with
/// `a = sqrt(6 / (fan_in + fan_out))`. The default for linear layers.
pub fn glorot_uniform<R: Rng>(rows: usize, cols: usize, rng: &mut R) -> DenseMatrix {
    let a = (6.0 / (rows + cols) as f32).sqrt();
    let mut m = DenseMatrix::zeros(rows, cols);
    for v in m.as_mut_slice() {
        *v = rng.gen_range(-a..=a);
    }
    m
}

/// He/Kaiming uniform initialisation: `U(-a, a)` with `a = sqrt(6 / fan_in)`.
/// Used for layers followed by ReLU.
pub fn he_uniform<R: Rng>(rows: usize, cols: usize, rng: &mut R) -> DenseMatrix {
    let a = (6.0 / rows.max(1) as f32).sqrt();
    let mut m = DenseMatrix::zeros(rows, cols);
    for v in m.as_mut_slice() {
        *v = rng.gen_range(-a..=a);
    }
    m
}

/// Standard normal matrix scaled by `std`.
pub fn gaussian<R: Rng>(rows: usize, cols: usize, std: f32, rng: &mut R) -> DenseMatrix {
    let mut m = DenseMatrix::zeros(rows, cols);
    for v in m.as_mut_slice() {
        *v = sample_standard_normal(rng) * std;
    }
    m
}

/// Box–Muller standard normal sample.
///
/// `rand`'s distribution machinery is avoided on purpose: this keeps the
/// exact bit pattern of generated datasets independent of `rand_distr`
/// version bumps.
pub fn sample_standard_normal<R: Rng>(rng: &mut R) -> f32 {
    // Reject u1 == 0 to avoid ln(0).
    let mut u1: f32 = rng.gen();
    while u1 <= f32::MIN_POSITIVE {
        u1 = rng.gen();
    }
    let u2: f32 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn glorot_bounds_hold() {
        let mut rng = StdRng::seed_from_u64(7);
        let m = glorot_uniform(64, 32, &mut rng);
        let a = (6.0 / 96.0f32).sqrt();
        assert!(m.as_slice().iter().all(|v| v.abs() <= a + 1e-6));
        // Not all zero.
        assert!(m.max_abs() > 0.0);
    }

    #[test]
    fn he_bounds_hold() {
        let mut rng = StdRng::seed_from_u64(8);
        let m = he_uniform(50, 10, &mut rng);
        let a = (6.0 / 50.0f32).sqrt();
        assert!(m.as_slice().iter().all(|v| v.abs() <= a + 1e-6));
    }

    #[test]
    fn gaussian_moments_are_plausible() {
        let mut rng = StdRng::seed_from_u64(9);
        let m = gaussian(200, 50, 2.0, &mut rng);
        let n = m.as_slice().len() as f32;
        let mean = m.as_slice().iter().sum::<f32>() / n;
        let var = m
            .as_slice()
            .iter()
            .map(|v| (v - mean) * (v - mean))
            .sum::<f32>()
            / n;
        assert!(mean.abs() < 0.1, "mean {mean}");
        assert!((var.sqrt() - 2.0).abs() < 0.1, "std {}", var.sqrt());
    }

    #[test]
    fn seeded_init_is_deterministic() {
        let a = glorot_uniform(8, 8, &mut StdRng::seed_from_u64(42));
        let b = glorot_uniform(8, 8, &mut StdRng::seed_from_u64(42));
        assert_eq!(a.as_slice(), b.as_slice());
    }
}
