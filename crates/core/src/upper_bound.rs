//! The personalized-depth upper bound of Eq. (10).
//!
//! `L(v_i, T_s) ≤ min{ log_{λ₂}(T_s · sqrt((d_i+1)/(2m+n))),
//!                     max{L(v_j), v_j ∈ N(v_i)} + 1 }`
//!
//! The first term says depth falls with node degree and rises with graph
//! size/sparsity; the second says neighboring depths differ by at most one.
//! We expose both terms so tests (and the complexity bench) can verify the
//! structural properties the paper derives from them.

use nai_graph::CsrMatrix;

/// The spectral term of Eq. (10): `log_{λ₂}(T_s · sqrt((d_i+1)/(2m+n)))`.
///
/// Returns `None` when the bound is vacuous (argument of the log ≥ 1, i.e.
/// the node is already within `T_s` at depth 0, or λ₂ ≥ 1 making the log
/// undefined as a finite bound).
pub fn spectral_bound(ts: f32, degree: f32, total_tilde_degree: f64, lambda2: f32) -> Option<f32> {
    if !(0.0..1.0).contains(&lambda2) || ts <= 0.0 {
        return None;
    }
    let arg = ts * ((degree as f64 + 1.0) / total_tilde_degree.max(1.0)).sqrt() as f32;
    if arg >= 1.0 {
        return Some(0.0);
    }
    // log_base(x) with 0 < base < 1 and 0 < x < 1 is positive.
    Some(arg.ln() / lambda2.ln())
}

/// Assigns every node in `nodes` its Eq. (10) spectral depth, clamped to
/// `[t_min, t_max]` — the NAP_u policy.
///
/// Unlike NAP_d/NAP_g this needs **no propagated features**: depth is a
/// pure function of the node degree and graph constants (λ₂, `2m+n`), so
/// it can run before propagation starts. Nodes whose bound is vacuous
/// (`None` from [`spectral_bound`]) conservatively receive `t_max`.
///
/// # Panics
/// Panics if any node id is out of range or `t_min > t_max`.
pub fn assign_depths(
    adj: &CsrMatrix,
    nodes: &[u32],
    ts: f32,
    lambda2: f32,
    total_tilde_degree: f64,
    t_min: usize,
    t_max: usize,
) -> Vec<usize> {
    assign_depths_by(
        |v| adj.row_nnz(v as usize),
        nodes,
        ts,
        lambda2,
        total_tilde_degree,
        t_min,
        t_max,
    )
}

/// [`assign_depths`] over an arbitrary degree function — `degree(v)` is
/// the neighbour count of `v` — so graph representations that are not
/// CSR share the one policy (the read kernel calls it through
/// `GraphView::degree`).
///
/// # Panics
/// Panics if `t_min > t_max` (or `degree` panics on an id).
pub fn assign_depths_by(
    degree: impl Fn(u32) -> usize,
    nodes: &[u32],
    ts: f32,
    lambda2: f32,
    total_tilde_degree: f64,
    t_min: usize,
    t_max: usize,
) -> Vec<usize> {
    assert!(t_min <= t_max, "t_min must not exceed t_max");
    nodes
        .iter()
        .map(|&v| {
            let degree = degree(v) as f32;
            match spectral_bound(ts, degree, total_tilde_degree, lambda2) {
                Some(b) => (b.ceil() as usize).clamp(t_min, t_max),
                None => t_max,
            }
        })
        .collect()
}

/// Verifies the neighbor-Lipschitz property (second term of Eq. 10):
/// adjacent nodes' personalized depths differ by at most one. Returns the
/// violating pair if any.
pub fn check_neighbor_lipschitz(adj: &CsrMatrix, depths: &[usize]) -> Option<(u32, u32)> {
    for i in 0..adj.n() {
        for (j, _) in adj.row_iter(i) {
            let a = depths[i];
            let b = depths[j as usize];
            if a > b + 1 || b > a + 1 {
                return Some((i as u32, j));
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::napd::personalized_depth;
    use crate::stationary::StationaryState;
    use nai_graph::generators::{generate, GeneratorConfig};
    use nai_graph::{normalized_adjacency, Convolution};
    use nai_models::propagate_features;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn spectral_bound_decreases_with_degree() {
        let b_low = spectral_bound(0.1, 2.0, 1000.0, 0.8).unwrap();
        let b_high = spectral_bound(0.1, 200.0, 1000.0, 0.8).unwrap();
        assert!(b_high < b_low, "high-degree bound {b_high} vs {b_low}");
    }

    #[test]
    fn spectral_bound_increases_with_graph_size() {
        let small = spectral_bound(0.1, 5.0, 100.0, 0.8).unwrap();
        let large = spectral_bound(0.1, 5.0, 100_000.0, 0.8).unwrap();
        assert!(large > small);
    }

    #[test]
    fn spectral_bound_tightens_with_small_lambda2() {
        // Strong connectivity (small λ₂) → faster smoothing → lower depth.
        let tight = spectral_bound(0.1, 5.0, 1000.0, 0.3).unwrap();
        let loose = spectral_bound(0.1, 5.0, 1000.0, 0.95).unwrap();
        assert!(tight < loose);
    }

    #[test]
    fn vacuous_cases_return_none_or_zero() {
        assert!(spectral_bound(0.1, 5.0, 1000.0, 1.0).is_none());
        assert!(spectral_bound(0.0, 5.0, 1000.0, 0.5).is_none());
        assert_eq!(spectral_bound(100.0, 5.0, 10.0, 0.5), Some(0.0));
    }

    #[test]
    fn assign_depths_clamps_and_orders_by_degree() {
        // Star graph: hub has degree 5, leaves degree 1.
        let adj = nai_graph::CsrMatrix::undirected_adjacency(
            6,
            &[(0, 1), (0, 2), (0, 3), (0, 4), (0, 5)],
        )
        .unwrap();
        let nodes: Vec<u32> = (0..6).collect();
        let depths = assign_depths(&adj, &nodes, 0.3, 0.8, 16.0, 1, 6);
        assert!(depths.iter().all(|&d| (1..=6).contains(&d)));
        // Hub (node 0) must exit no later than any leaf.
        assert!(depths[1..].iter().all(|&leaf| depths[0] <= leaf));
    }

    #[test]
    fn assign_depths_vacuous_bound_falls_back_to_tmax() {
        let adj = nai_graph::CsrMatrix::undirected_adjacency(2, &[(0, 1)]).unwrap();
        // λ₂ = 1 ⇒ bound undefined ⇒ t_max.
        let depths = assign_depths(&adj, &[0, 1], 0.3, 1.0, 4.0, 2, 5);
        assert_eq!(depths, vec![5, 5]);
        // ts huge ⇒ arg ≥ 1 ⇒ bound 0 ⇒ clamped up to t_min.
        let eager = assign_depths(&adj, &[0, 1], 100.0, 0.8, 4.0, 2, 5);
        assert_eq!(eager, vec![2, 2]);
    }

    #[test]
    fn lipschitz_checker_finds_violations() {
        let adj = nai_graph::CsrMatrix::undirected_adjacency(3, &[(0, 1), (1, 2)]).unwrap();
        assert!(check_neighbor_lipschitz(&adj, &[1, 2, 3]).is_none());
        assert_eq!(check_neighbor_lipschitz(&adj, &[1, 3, 3]), Some((0, 1)));
    }

    #[test]
    fn spectral_bound_orders_realized_depths() {
        // The Eq. (10) spectral term predicts that nodes with a smaller
        // bound (high degree) exit no later, on average, than nodes with a
        // larger bound (low degree). Verify the ordering empirically with
        // the row-stochastic operator, choosing T_s adaptively so realized
        // depths actually spread across [1, k].
        let g = generate(
            &GeneratorConfig {
                num_nodes: 400,
                avg_degree: 10.0,
                power_law_exponent: 2.2,
                homophily: 0.9,
                ..Default::default()
            },
            &mut StdRng::seed_from_u64(4),
        );
        let norm = normalized_adjacency(&g.adj, Convolution::ReverseTransition);
        let k = 8;
        let feats = propagate_features(&norm, &g.features, k);
        let st = StationaryState::compute(&g.adj, &g.features, 0.0);
        let xinf = st.full();
        let lambda2 = norm.lambda2_estimate(150, 9).min(0.999);
        let total = g.total_tilde_degree();
        let degrees = g.adj.degrees();
        // Adaptive threshold: median distance at depth k/2 spreads exits.
        let mut mid: Vec<f32> = (0..g.num_nodes())
            .map(|i| nai_linalg::ops::l2_distance(feats[k / 2].row(i), xinf.row(i)))
            .collect();
        mid.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let ts = mid[mid.len() / 2];

        // Split nodes by the spectral bound's median and compare mean
        // realized depths.
        let mut entries: Vec<(f32, usize)> = Vec::new();
        for (node, &degree) in degrees.iter().enumerate() {
            let levels: Vec<&[f32]> = feats.iter().map(|m| m.row(node)).collect();
            let depth = personalized_depth(&levels, xinf.row(node), ts);
            if let Some(bound) = spectral_bound(ts, degree, total, lambda2) {
                entries.push((bound, depth));
            }
        }
        assert!(entries.len() > 100, "need informative nodes");
        entries.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        let half = entries.len() / 2;
        let small_bound: f64 =
            entries[..half].iter().map(|&(_, d)| d as f64).sum::<f64>() / half as f64;
        let large_bound: f64 = entries[half..].iter().map(|&(_, d)| d as f64).sum::<f64>()
            / (entries.len() - half) as f64;
        assert!(
            small_bound <= large_bound + 0.25,
            "small-bound nodes exit at {small_bound:.2}, large-bound at {large_bound:.2}"
        );
    }
}
