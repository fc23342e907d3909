//! The deployment state every read runs over, built and mutated in one place.
//!
//! A [`GraphState`] is one graph store — a [`DynamicGraph`]: the frozen
//! seed's CSR read in place, copy-on-write rows for what mutations touch
//! — plus what Algorithm 1 derives from it: Eq. (1)'s per-node
//! normalization factors, the exact [`StationaryState`] and the lazily
//! estimated λ₂ of the deployed seed. [`GraphState::new`] derives them
//! once; [`GraphState::add_node`] and [`GraphState::add_edge`] are the
//! one place a mutation reaches the rows, the factors and the stationary
//! state together. A `NaiEngine` holds one and only reads it; the
//! `StreamingEngine` around it mutates it in place.
//!
//! It is also the one view the read kernel runs over: BFS and degrees
//! come from the graph's rows, and `GraphState::gather_row` sums a row
//! of `Â` in its column order with each weight the product of two cached
//! factors, bit-equal to `normalized_adjacency`'s entry.

use crate::stationary::StationaryState;
use crate::upper_bound;
use nai_graph::{normalized_adjacency, Convolution, DynamicGraph};
use std::sync::{Arc, OnceLock};

/// Eq. (1)'s normalization factors of one node with `d̃ = degree + 1`:
/// `row = d̃^(γ−1)` scales the node's own output row, `col = d̃^(−γ)`
/// scales its feature row wherever it is gathered. The weight of edge
/// `(i, j)` is `norm[i].row * norm[j].col`.
#[derive(Debug, Clone, Copy)]
struct NormFactors {
    row: f32,
    col: f32,
}

impl NormFactors {
    fn of(degree: usize, gamma: f32) -> Self {
        let d = (degree + 1) as f32;
        NormFactors {
            row: d.powf(gamma - 1.0),
            col: d.powf(-gamma),
        }
    }
}

/// One graph store and the state Algorithm 1 derives from it.
///
/// [`Clone`] shares the seed (see [`DynamicGraph`]) and the λ₂ cell, and
/// copies the factors and the stationary state.
#[derive(Debug, Clone)]
pub struct GraphState {
    graph: DynamicGraph,
    /// Per-node Eq. (1) factors, kept in step with the graph's degrees
    /// by every mutation.
    norm: Vec<NormFactors>,
    stationary: StationaryState,
    gamma: f32,
    /// λ₂ of the deployed seed's `Â`. Only NAP_u reads it, so it is
    /// estimated on first need; clones share the cell, so at most one
    /// of them pays.
    lambda2: Arc<OnceLock<f32>>,
}

impl GraphState {
    /// Derives the state of `graph` under convolution coefficient
    /// `gamma`. A `graph` that grew after its seed was frozen is
    /// re-frozen first (one copy), so λ₂ always comes from the graph as
    /// deployed.
    pub fn new(mut graph: DynamicGraph, gamma: f32) -> Self {
        graph.freeze();
        let stationary = StationaryState::build(
            graph.num_nodes(),
            graph.feature_dim(),
            gamma,
            |v| graph.neighbors(v),
            |v| graph.feature(v),
        );
        // One `powf` pair per distinct degree.
        let nodes = 0..graph.num_nodes() as u32;
        let max_degree = nodes.clone().map(|v| graph.degree(v)).max().unwrap_or(0);
        let mut by_degree: Vec<Option<NormFactors>> = vec![None; max_degree + 1];
        let norm = nodes
            .map(|v| {
                let d = graph.degree(v);
                *by_degree[d].get_or_insert_with(|| NormFactors::of(d, gamma))
            })
            .collect();
        Self {
            graph,
            norm,
            stationary,
            gamma,
            lambda2: Arc::default(),
        }
    }

    /// The graph store.
    pub fn graph(&self) -> &DynamicGraph {
        &self.graph
    }

    /// The exact stationary state `X^(∞)` of the current graph.
    pub fn stationary(&self) -> &StationaryState {
        &self.stationary
    }

    /// λ₂ of the deployed seed's `Â` ([`upper_bound::lambda2`]),
    /// estimated on the first call and shared with every clone. It
    /// drifts only with large topology changes; re-deploy to refresh it.
    pub fn lambda2(&self) -> f32 {
        *self.lambda2.get_or_init(|| {
            let csr = self.graph.seed_csr();
            upper_bound::lambda2(&normalized_adjacency(&csr, Convolution::Gamma(self.gamma)))
        })
    }

    /// Appends a node with `features`, connected to the existing
    /// `neighbors` (duplicates collapse), and brings every factor and the
    /// stationary state in step. Returns the new node id.
    ///
    /// # Panics
    /// Panics on a wrong feature length or an unknown neighbour id.
    pub fn add_node(&mut self, features: &[f32], neighbors: &[u32]) -> u32 {
        let id = self.graph.add_node(features, neighbors);
        // The arrival's row is the sorted, deduplicated neighbour list,
        // and each of those neighbours gained exactly one edge (to `id`).
        let graph = &self.graph;
        let uniq = graph.neighbors(id);
        self.norm.push(NormFactors::of(uniq.len(), self.gamma));
        for &u in uniq {
            self.norm[u as usize] = NormFactors::of(graph.degree(u), self.gamma);
        }
        // Rows are read in place: one term for the arrival plus one term
        // swap per touched neighbour, each O(f).
        self.stationary.add_node(uniq, |v| graph.feature(v));
        id
    }

    /// Adds the undirected edge `(u, v)` and brings both endpoints'
    /// factors and the stationary state in step. Returns `false` (and
    /// changes nothing) when the edge already exists.
    ///
    /// # Panics
    /// Panics on out-of-range ids or a self-loop.
    pub fn add_edge(&mut self, u: u32, v: u32) -> bool {
        if !self.graph.add_edge(u, v) {
            return false;
        }
        for w in [u, v] {
            self.norm[w as usize] = NormFactors::of(self.graph.degree(w), self.gamma);
        }
        let graph = &self.graph;
        self.stationary.add_edge(u, v, |w| graph.feature(w));
        true
    }

    /// Re-rounds the stationary components that mutations marked stale
    /// since the last call ([`StationaryState::refresh`]): once per read,
    /// however many mutations came between.
    pub fn refresh(&mut self) {
        self.stationary.refresh();
    }

    /// Adds `Σ_j Â_ij · src_row(j)` over `j ∈ N(i) ∪ {i}` into `out`.
    ///
    /// Sums in `Â`'s column order, the self-loop at its sorted place among
    /// the (sorted) neighbours — the order of `CsrMatrix::spmm_gather_into`
    /// and of the offline `propagate_features` the classifiers were
    /// trained on. Float addition does not associate, so the order is part
    /// of the answer, and exits decided on its last bits depend on it.
    #[inline]
    pub(crate) fn gather_row<'s>(
        &self,
        i: u32,
        src_row: impl Fn(u32) -> &'s [f32],
        out: &mut [f32],
    ) {
        let left = self.norm[i as usize].row;
        let neighbors = self.graph.neighbors(i);
        let (below, above) = neighbors.split_at(neighbors.partition_point(|&j| j < i));
        below.iter().chain([&i]).chain(above).for_each(|&j| {
            let w = left * self.norm[j as usize].col;
            for (o, &x) in out.iter_mut().zip(src_row(j)) {
                *o += w * x;
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::InferenceConfig;
    use crate::gates::GateSet;
    use crate::kernel::ReadKernel;
    use nai_graph::generators::{generate, GeneratorConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn seed() -> DynamicGraph {
        let g = generate(
            &GeneratorConfig {
                num_nodes: 200,
                num_classes: 3,
                feature_dim: 8,
                avg_degree: 8.0,
                ..Default::default()
            },
            &mut StdRng::seed_from_u64(31),
        );
        DynamicGraph::from_graph(&g)
    }

    /// Whether every node's factors are bit-equal to `NormFactors::of`
    /// its degree.
    fn factors_match_degrees(state: &GraphState) -> bool {
        let bits = |f: NormFactors| (f.row.to_bits(), f.col.to_bits());
        (0..state.graph.num_nodes() as u32).all(|v| {
            let want = NormFactors::of(state.graph.degree(v), state.gamma);
            bits(state.norm[v as usize]) == bits(want)
        })
    }

    #[test]
    fn factors_shared_by_degree_equal_each_nodes_own() {
        for gamma in [0.0, 0.3, 0.5, 1.0] {
            let mut state = GraphState::new(seed(), gamma);
            assert!(factors_match_degrees(&state), "deploy, gamma {gamma}");
            // Raise the hub's degree, and a fresh pair's, past every
            // degree the deploy saw.
            let hub = (0..200u32).max_by_key(|&v| state.graph.degree(v)).unwrap();
            let top = state.graph.degree(hub);
            for k in 0..top as u32 + 3 {
                let v = state.add_node(&[0.5; 8], &[hub, k % 200]);
                if k % 4 == 0 {
                    state.add_edge(v, (k * 7 + 1) % 200);
                }
            }
            assert!(state.graph.degree(hub) > top);
            assert!(factors_match_degrees(&state), "mutated, gamma {gamma}");
        }
    }

    #[test]
    fn lambda2_is_estimated_only_when_nap_u_reads_it() {
        // Three clones of one deployment and a second deployment of the
        // same graph.
        let first = GraphState::new(seed(), 0.5);
        let mut states = vec![
            first.clone(),
            first.clone(),
            first,
            GraphState::new(seed(), 0.5),
        ];
        let gates = GateSet::new(8, 3, &mut StdRng::seed_from_u64(32));
        for state in &mut states {
            for cfg in [
                InferenceConfig::fixed(3),
                InferenceConfig::distance(0.5, 1, 3),
                InferenceConfig::gate(1, 3),
            ] {
                ReadKernel::new(&cfg, 3, Some(&gates), state);
            }
            state.add_node(&[0.1; 8], &[0, 1]);
            state.add_edge(2, 199);
            state.refresh();
            assert!(state.lambda2.get().is_none(), "estimated without a reader");
        }
        // A NAP_u kernel over one clone fills the cell all three share;
        // the other deployment keeps its own, still empty.
        ReadKernel::new(
            &InferenceConfig::upper_bound(0.5, 1, 3),
            3,
            None,
            &states[1],
        );
        for (i, state) in states.iter().enumerate() {
            assert_eq!(state.lambda2.get().is_some(), i < 3, "state {i}");
        }
    }
}
