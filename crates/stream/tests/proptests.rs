//! Property-based invariants for the streaming substrate.

use nai_core::stationary::StationaryState;
use nai_graph::generators::{generate, GeneratorConfig};
use nai_stream::DynamicGraph;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

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
