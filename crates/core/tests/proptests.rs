//! Property-based tests for the NAI core invariants, including the
//! streaming substrate: a growing `DynamicGraph` and the incremental
//! `StationaryState` kept beside it.

use nai_core::napd;
use nai_core::stationary::StationaryState;
use nai_graph::csr::CsrMatrix;
use nai_graph::generators::{generate, GeneratorConfig};
use nai_graph::normalize::{normalized_adjacency, Convolution};
use nai_graph::DynamicGraph;
use nai_linalg::DenseMatrix;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn random_graph() -> impl Strategy<Value = (CsrMatrix, DenseMatrix)> {
    (3usize..30).prop_flat_map(|n| {
        let edges = proptest::collection::vec((0..n as u32, 0..n as u32), 1..n * 2);
        let feats = proptest::collection::vec(-5.0f32..5.0, n * 4);
        (Just(n), edges, feats).prop_map(|(n, edges, feats)| {
            let adj = CsrMatrix::undirected_adjacency(n, &edges).unwrap();
            let x = DenseMatrix::from_vec(n, 4, feats);
            (adj, x)
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `X^(∞)` is a fixed point of propagation for every γ operating point.
    #[test]
    fn stationary_is_fixed_point((adj, x) in random_graph()) {
        for (gamma, conv) in [
            (0.5f32, Convolution::Symmetric),
            (0.0, Convolution::ReverseTransition),
            (1.0, Convolution::Transition),
        ] {
            let st = StationaryState::compute(&adj, &x, gamma);
            let xinf = st.full();
            let norm = normalized_adjacency(&adj, conv);
            let once = norm.spmm(&xinf);
            let scale = xinf.max_abs().max(1.0);
            for (a, b) in once.as_slice().iter().zip(xinf.as_slice()) {
                prop_assert!(
                    (a - b).abs() / scale < 1e-3,
                    "gamma {}: {} vs {}", gamma, a, b
                );
            }
        }
    }

    /// Distances to the stationary state contract (weakly) over long
    /// horizons: depth 2k is no farther than depth 1 on average.
    #[test]
    fn distances_contract_on_average((adj, x) in random_graph()) {
        let norm = normalized_adjacency(&adj, Convolution::Symmetric);
        let st = StationaryState::compute(&adj, &x, 0.5);
        let xinf = st.full();
        let mut h = norm.spmm(&x);
        let early: f32 = napd::distances(&h, &xinf).iter().sum();
        for _ in 0..7 {
            h = norm.spmm(&h);
        }
        let late: f32 = napd::distances(&h, &xinf).iter().sum();
        prop_assert!(late <= early + 1e-3, "early {} late {}", early, late);
    }

    /// Personalized depth is monotone non-increasing in `T_s`.
    #[test]
    fn personalized_depth_monotone_in_threshold((adj, x) in random_graph()) {
        let norm = normalized_adjacency(&adj, Convolution::Symmetric);
        let st = StationaryState::compute(&adj, &x, 0.5);
        let xinf = st.full();
        let mut levels = vec![x.clone()];
        for _ in 0..5 {
            levels.push(norm.spmm(levels.last().unwrap()));
        }
        for node in 0..adj.n().min(5) {
            let rows: Vec<&[f32]> = levels.iter().map(|m| m.row(node)).collect();
            let mut last_depth = usize::MAX;
            for ts in [0.01f32, 0.1, 1.0, 10.0, 100.0] {
                let d = napd::personalized_depth(&rows, xinf.row(node), ts);
                prop_assert!(d <= last_depth, "depth grew with larger ts");
                last_depth = d;
            }
        }
    }

    /// Exit masks respect the threshold semantics exactly.
    #[test]
    fn exit_mask_matches_distances(
        cur in proptest::collection::vec(-3.0f32..3.0, 12),
        stat in proptest::collection::vec(-3.0f32..3.0, 12),
        ts in 0.0f32..10.0,
    ) {
        let cur = DenseMatrix::from_vec(3, 4, cur);
        let stat = DenseMatrix::from_vec(3, 4, stat);
        let d = napd::distances(&cur, &stat);
        let m = napd::exit_mask(&cur, &stat, ts);
        for (dist, exit) in d.iter().zip(m.iter()) {
            prop_assert_eq!(*exit, *dist < ts);
        }
    }
}

/// An arrival script: each entry is either a node arrival (feature seed +
/// neighbor picks) or an edge arrival (two node picks).
#[derive(Debug, Clone)]
enum Arrival {
    Node { feat_seed: u64, picks: Vec<u16> },
    Edge { a: u16, b: u16 },
}

fn arrival_strategy() -> impl Strategy<Value = Arrival> {
    prop_oneof![
        (any::<u64>(), proptest::collection::vec(any::<u16>(), 0..5))
            .prop_map(|(feat_seed, picks)| Arrival::Node { feat_seed, picks }),
        (any::<u16>(), any::<u16>()).prop_map(|(a, b)| Arrival::Edge { a, b }),
    ]
}

fn seed_graph(n: usize, seed: u64) -> DynamicGraph {
    let g = generate(
        &GeneratorConfig {
            num_nodes: n,
            num_classes: 3,
            feature_dim: 5,
            avg_degree: 5.0,
            ..Default::default()
        },
        &mut StdRng::seed_from_u64(seed),
    );
    DynamicGraph::from_graph(&g)
}

fn features_from_seed(seed: u64, f: usize) -> Vec<f32> {
    use rand::Rng;
    let mut rng = StdRng::seed_from_u64(seed);
    (0..f).map(|_| rng.gen_range(-1.0f32..1.0)).collect()
}

/// The stationary state computed from scratch over `g`.
fn recompute(g: &DynamicGraph, gamma: f32) -> StationaryState {
    StationaryState::build(
        g.num_nodes(),
        g.feature_dim(),
        gamma,
        |v| g.neighbors(v),
        |v| g.feature(v),
    )
}

/// Applies the script, keeping the stationary state in sync.
fn apply(g: &mut DynamicGraph, st: &mut StationaryState, script: &[Arrival]) {
    for a in script {
        match a {
            Arrival::Node { feat_seed, picks } => {
                let mut nbrs: Vec<u32> = picks
                    .iter()
                    .map(|&p| (p as usize % g.num_nodes()) as u32)
                    .collect();
                nbrs.sort_unstable();
                nbrs.dedup();
                let feats = features_from_seed(*feat_seed, g.feature_dim());
                g.add_node(&feats, &nbrs);
                let g = &*g;
                st.add_node(&nbrs, |v| g.feature(v));
            }
            Arrival::Edge { a, b } => {
                let u = (*a as usize % g.num_nodes()) as u32;
                let v = (*b as usize % g.num_nodes()) as u32;
                if u == v || g.neighbors(u).contains(&v) {
                    continue;
                }
                g.add_edge(u, v);
                let g = &*g;
                st.add_edge(u, v, |w| g.feature(w));
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The dynamic graph stays structurally sound under any arrival
    /// script: symmetric adjacency, edge count = half the directed
    /// degree sum, and a CSR snapshot that agrees on every degree.
    #[test]
    fn dynamic_graph_structural_invariants(
        script in proptest::collection::vec(arrival_strategy(), 0..40)
    ) {
        let mut g = seed_graph(20, 1);
        let mut st = recompute(&g, 0.5);
        apply(&mut g, &mut st, &script);

        let degree_sum: usize = (0..g.num_nodes() as u32).map(|v| g.degree(v)).sum();
        prop_assert_eq!(degree_sum, 2 * g.num_edges());

        // Symmetry: u ∈ N(v) ⇔ v ∈ N(u); no self-loops; no duplicates.
        for v in 0..g.num_nodes() as u32 {
            let mut nbrs = g.neighbors(v).to_vec();
            let before = nbrs.len();
            nbrs.sort_unstable();
            nbrs.dedup();
            prop_assert_eq!(nbrs.len(), before, "duplicate neighbor at {}", v);
            for &u in g.neighbors(v) {
                prop_assert_ne!(u, v, "self-loop at {}", v);
                prop_assert!(g.neighbors(u).contains(&v), "asymmetry {}-{}", v, u);
            }
        }

        let csr = g.snapshot_csr();
        prop_assert_eq!(csr.nnz(), 2 * g.num_edges());
        for v in 0..g.num_nodes() {
            prop_assert_eq!(csr.row_nnz(v), g.degree(v as u32));
        }
    }

    /// The stationary state kept in step with any arrival script equals
    /// a from-scratch recomputation bit for bit, for multiple γ.
    #[test]
    fn incremental_stationary_matches_recompute(
        script in proptest::collection::vec(arrival_strategy(), 0..30),
        gamma in prop_oneof![Just(0.0f32), Just(0.5f32), Just(1.0f32)],
    ) {
        let mut g = seed_graph(15, 2);
        let mut st = recompute(&g, gamma);
        apply(&mut g, &mut st, &script);
        let bits = |st: &StationaryState| -> Vec<u32> {
            st.full().as_slice().iter().map(|x| x.to_bits()).collect()
        };
        prop_assert_eq!(bits(&st), bits(&recompute(&g, gamma)));
    }

    /// Feature rows survive arrivals untouched (no aliasing bugs in the
    /// growable feature store).
    #[test]
    fn features_are_stable_under_growth(
        script in proptest::collection::vec(arrival_strategy(), 0..30)
    ) {
        let mut g = seed_graph(10, 3);
        let originals: Vec<Vec<f32>> =
            (0..10u32).map(|v| g.feature(v).to_vec()).collect();
        let mut st = recompute(&g, 0.5);
        apply(&mut g, &mut st, &script);
        for (v, orig) in originals.iter().enumerate() {
            prop_assert_eq!(g.feature(v as u32), orig.as_slice());
        }
    }
}
