//! The stationary feature state `X^(∞)` (Eq. 6–7), static and under
//! arrivals.
//!
//! As depth grows, `Â^k X` converges (per connected component, with
//! self-loops preventing bipartite oscillation) to
//!
//! ```text
//! X^(∞)_i = (d_i+1)^γ / S_c · Σ_{j ∈ comp(i)} (d_j+1)^(1−γ) x_j,
//! S_c = Σ_{j ∈ comp(i)} (d_j + 1)
//! ```
//!
//! which matches Eq. (7): `Â^(∞)_ij = (d_i+1)^γ (d_j+1)^(1−γ) / (2m+n)`
//! on a connected graph, where `S_c = 2m + n`. The paper presents the
//! global normalizer because its datasets are dominated by one giant
//! component; we keep per-component sums so the fixed-point property
//! holds on disconnected graphs too.
//!
//! NAP_d and NAP_g exit on the last bits of a row, so the state is a
//! function of the graph alone, whatever order it was built in. Components
//! live under a union-find (edges only merge them). Node `j` adds `t_j =
//! f32(d̃_j^(1−γ) · x_j)`, rounded once, to its component's exact sum; the
//! mass `S_c` is an exact integer. A mutation swaps each touched node's
//! term exactly. A component caches its sum rounded once to `f64` over
//! `S_c`; a row is that times `d̃_i^γ`: `O(n·f)` to build, `O(f)` a row.
//! A mutation only marks its component stale; [`StationaryState::refresh`]
//! re-rounds the stale ones, once however many mutations came between.

use nai_graph::CsrMatrix;
use nai_linalg::DenseMatrix;

/// Limbs of an [`ExactSum`], from bit `2^LSB_EXP` (the least `f32`
/// subnormal) to `2^171`: past `f32::MAX < 2^128`, room for `2^31` terms.
const LIMBS: usize = 10;
const LSB_EXP: i32 = -149;

/// The exact sum of a multiset of `f32` terms, in fixed point.
///
/// Limbs carry 32 bits each, carries deferred: a term adds under `2^32`
/// to a limb, so `i64` limbs hold `2^31` terms between normalizations
/// (a normalized sum counts as one).
/// A non-finite term (`d̃^(1−γ) · x` overflowed) counts as `±2^128`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct ExactSum([i64; LIMBS]);

impl ExactSum {
    /// Adds `m` mantissas with an `f32`'s sign and exponent bits
    /// `sign_exp`: one term `t` is `add_bin(mantissa(t), t >> 23)`.
    #[inline]
    fn add_bin(&mut self, m: u64, sign_exp: u32) {
        // The lowest mantissa bit sits `shift` bits above 2^-149; each
        // half of `m` is negated branch-free and split `hi · 2^32 + lo`.
        let shift = (sign_exp & 0xff).max(1) - 1;
        let neg = -i64::from(sign_exp >> 8);
        for (half, k) in [(m & 0xffff_ffff, shift / 32), (m >> 32, shift / 32 + 1)] {
            let wide = (((half as i64) << (shift % 32)) ^ neg) - neg;
            let k = (k as usize).min(LIMBS - 2);
            self.0[k] += wide & 0xffff_ffff;
            self.0[k + 1] += wide >> 32;
        }
    }

    /// Propagates carries, leaving the one representation of the value:
    /// limbs below the top in `[0, 2^32)`, the sign in the top limb.
    fn normalize(&mut self) {
        for k in 0..LIMBS - 1 {
            let carry = self.0[k] >> 32;
            self.0[k] -= carry << 32;
            self.0[k + 1] += carry;
        }
    }

    /// The value rounded once to the nearest `f64` (ties to even); the
    /// sum must be normalized.
    fn to_f64(self) -> f64 {
        // Above `top` the limbs only extend the sign (all zeros or ones);
        // masks of the limbs that do not, and of the non-zero ones.
        let sign = self.0[LIMBS - 1] >> 63;
        let (mut own, mut nonzero) = (1u32, 0u32);
        for (k, &l) in self.0.iter().enumerate() {
            own |= u32::from(l != sign & if k + 1 < LIMBS { 0xffff_ffff } else { -1 }) << k;
            nonzero |= u32::from(l != 0) << k;
        }
        let top = 31 - own.leading_zeros() as usize;
        // The value over 2^(32·base) rounded down, doubled, plus 1 for a
        // non-zero rest: at ≥ 65 bits that odd stand-in rounds like it.
        let base = top.saturating_sub(2);
        let above = if base + 3 < LIMBS { sign } else { 0 };
        let window = (base..base + 3)
            .rev()
            .fold(i128::from(above), |w, k| (w << 32) + i128::from(self.0[k]));
        let x = 2 * window + i128::from(nonzero & ((1 << base) - 1) != 0);
        // 63 bits and a sticky bit 0: one exact `i64 → f64` rounding.
        let mag = x.unsigned_abs();
        let drop = 65u32.saturating_sub(mag.leading_zeros());
        let kept = (mag >> drop) as i64 | i64::from(mag & ((1 << drop) - 1) != 0);
        let exp = 32 * base as i32 + drop as i32 - 1 + LSB_EXP;
        x.signum() as f64 * kept as f64 * f64::from_bits(((1023 + exp) as u64) << 52)
    }
}

/// The significand of an `f32` as an integer, implicit bit included.
fn mantissa(bits: u32) -> u32 {
    (bits & 0x7f_ffff) | u32::from(bits & 0x7f80_0000 != 0) << 23
}

/// Bins per coordinate: one per sign and exponent, plus one so that
/// coordinates do not alias in the cache.
const BIN_STRIDE: usize = 513;

/// Adds a node's terms `f32(w · x)` into per-coordinate bins that sum
/// their integer mantissas by sign and exponent: a few integer operations
/// a term, how [`StationaryState::build`] sweeps large components.
fn add_binned(bins: &mut [u64], w: f32, x: &[f32]) {
    for (bins, &x) in bins.chunks_exact_mut(BIN_STRIDE).zip(x) {
        let bits = (w * x).to_bits();
        bins[(bits >> 23) as usize] += u64::from(mantissa(bits));
    }
}

/// The weight `d̃^(1−γ)` of a node's term.
fn weight(degree: u32, gamma: f32) -> f32 {
    (degree as f32 + 1.0).powf(1.0 - gamma)
}

/// Adds a node's terms `f32(w · x)` into `sums`; `-w` removes them.
fn add_terms(sums: &mut [ExactSum], w: f32, x: &[f32]) {
    for (s, &x) in sums.iter_mut().zip(x) {
        let bits = (w * x).to_bits();
        s.add_bin(u64::from(mantissa(bits)), bits >> 23);
    }
}

/// Terms a component's sums take before they are normalized: with a
/// merge of two such components and one mutation's terms on top, well
/// inside the `2^31` that [`ExactSum`] holds.
const CARRY_TERMS: u32 = 1 << 29;

/// The root of `v` in a union-find forest, halving the path on the way.
fn find_halving(parent: &mut [u32], mut v: u32) -> u32 {
    while parent[v as usize] != v {
        parent[v as usize] = parent[parent[v as usize] as usize];
        v = parent[v as usize];
    }
    v
}

/// One connected component, owned by union-find root `root`.
#[derive(Debug, Clone)]
struct Component {
    root: u32,
    /// `S_c = Σ_j d̃_j`.
    mass: u64,
    /// Per coordinate, the exact `Σ_j t_j`; none for a lone edgeless node.
    sums: Vec<ExactSum>,
    /// Terms added to `sums` since they were last normalized.
    terms: u32,
    /// Per coordinate, `Σ_j t_j` rounded once to `f64`, over `S_c`.
    mean: Vec<f64>,
    /// Whether `sums` or `mass` changed since `mean` was derived.
    stale: bool,
}

impl Component {
    /// A lone edgeless node: `d̃ = 1`, so its mean is its feature row.
    fn single(root: u32, x: &[f32]) -> Self {
        let mean = x.iter().map(|&v| f64::from(v)).collect();
        Component {
            root,
            mass: 1,
            sums: Vec::new(),
            terms: 0,
            mean,
            stale: false,
        }
    }

    /// One coordinate's exact sum rounded once to `f64`, over the
    /// component's mass.
    fn mean_of(mut sum: ExactSum, mass: u64) -> f64 {
        sum.normalize();
        sum.to_f64() / mass as f64
    }

    /// Counts `n` more terms in `sums`, normalizing them once the count
    /// reaches [`CARRY_TERMS`].
    fn count_terms(&mut self, n: u32) {
        self.terms += n;
        if self.terms >= CARRY_TERMS {
            self.sums.iter_mut().for_each(ExactSum::normalize);
            self.terms = 1;
        }
    }

    /// Re-derives `mean` from the exact sums, normalizing them.
    fn refresh(&mut self) {
        for (m, s) in self.mean.iter_mut().zip(&mut self.sums) {
            s.normalize();
            *m = Self::mean_of(*s, self.mass);
        }
        self.terms = 1;
        self.stale = false;
    }
}

/// The stationary state of one graph: static, or kept in step with a
/// growing graph by [`Self::add_node`] / [`Self::add_edge`].
#[derive(Debug, Clone)]
pub struct StationaryState {
    gamma: f32,
    feature_dim: usize,
    /// Union-find parent per node; a root is its own parent.
    parent: Vec<u32>,
    /// Per root, the index of its component in `components`.
    slot: Vec<u32>,
    /// Per node, the raw degree (no self-loop).
    degree: Vec<u32>,
    components: Vec<Component>,
    /// Nodes whose component a mutation marked stale since the last
    /// [`Self::refresh`] (each was a root when marked).
    stale: Vec<u32>,
}

impl StationaryState {
    /// Computes the stationary state of `(adj, features)` for convolution
    /// coefficient `gamma`.
    ///
    /// # Panics
    /// Panics if `features.rows() != adj.n()`.
    pub fn compute(adj: &CsrMatrix, features: &DenseMatrix, gamma: f32) -> Self {
        assert_eq!(features.rows(), adj.n(), "feature rows must match graph");
        let neighbors = |v: u32| adj.row_indices(v as usize);
        Self::build(adj.n(), features.cols(), gamma, neighbors, |v| {
            features.row(v as usize)
        })
    }

    /// [`Self::compute`] over any adjacency: `neighbors(v)` lists `v`'s
    /// neighbours (undirected, no self-loop), `feature(v)` its row.
    pub fn build<'g>(
        num_nodes: usize,
        feature_dim: usize,
        gamma: f32,
        neighbors: impl Fn(u32) -> &'g [u32],
        feature: impl Fn(u32) -> &'g [f32],
    ) -> Self {
        // Link each edge's endpoint roots, the larger id under the
        // smaller: parents then point to lower ids, so one forward pass
        // leaves every node's parent its root.
        let mut parent: Vec<u32> = (0..num_nodes as u32).collect();
        let mut degree = vec![0u32; num_nodes];
        for u in 0..num_nodes as u32 {
            degree[u as usize] = neighbors(u).len() as u32;
            let mut root = find_halving(&mut parent, u);
            for &v in neighbors(u).iter().filter(|&&v| v > u) {
                let other = find_halving(&mut parent, v);
                parent[root.max(other) as usize] = root.min(other);
                root = root.min(other);
            }
        }
        let (mut slot, mut components) = (vec![u32::MAX; num_nodes], Vec::new());
        for v in 0..num_nodes {
            let root = parent[parent[v] as usize];
            parent[v] = root;
            if root == v as u32 {
                slot[v] = components.len() as u32;
                let single = Component::single(root, feature(root));
                components.push(Component { mass: 0, ..single });
            }
            components[slot[root as usize] as usize].mass += u64::from(degree[v]) + 1;
        }
        // Large components sum through bins, small ones straight into
        // their limbs; a lone node needs neither.
        let mut bins: Vec<Vec<u64>> = components
            .iter_mut()
            .map(|comp| {
                comp.sums = vec![ExactSum::default(); usize::from(comp.mass > 1) * feature_dim];
                vec![0; usize::from(comp.mass > 4096) * BIN_STRIDE * feature_dim]
            })
            .collect();
        // The one sweep over the feature rows, one `powf` per degree.
        let max_degree = degree.iter().copied().max().unwrap_or(0);
        let weights: Vec<f32> = (0..=max_degree).map(|d| weight(d, gamma)).collect();
        for (v, &root) in parent.iter().enumerate() {
            let s = slot[root as usize] as usize;
            let (w, x) = (weights[degree[v] as usize], feature(v as u32));
            if bins[s].is_empty() {
                add_terms(&mut components[s].sums, w, x);
            } else {
                add_binned(&mut bins[s], w, x);
            }
        }
        for (comp, bins) in components.iter_mut().zip(&bins) {
            for (sum, bins) in comp.sums.iter_mut().zip(bins.chunks_exact(BIN_STRIDE)) {
                for (sign_exp, &m) in bins.iter().enumerate().filter(|&(_, &m)| m != 0) {
                    sum.add_bin(m, sign_exp as u32);
                }
            }
            comp.refresh();
        }
        Self {
            gamma,
            feature_dim,
            parent,
            slot,
            degree,
            components,
            stale: Vec::new(),
        }
    }

    /// MACs of computing the state over the graph it covers (`n·f`).
    pub fn precompute_macs(&self) -> u64 {
        (self.parent.len() * self.feature_dim) as u64
    }

    /// Records the arrival of the next node id with edges to the distinct
    /// existing `neighbors`. Call it once the graph holds the node:
    /// `feature(v)` reads any node's row, the arrival's included.
    pub fn add_node<'g>(&mut self, neighbors: &[u32], feature: impl Fn(u32) -> &'g [f32]) {
        let v = self.parent.len() as u32;
        self.degree.push(0);
        let Some(&first) = neighbors.first() else {
            self.parent.push(v);
            self.slot.push(self.components.len() as u32);
            self.components.push(Component::single(v, feature(v)));
            return;
        };
        // Joins its first neighbour's component straight away: one node
        // of mass 1, lighter than any root it could hang under.
        let root = self.find(first);
        self.parent.push(root);
        self.slot.push(u32::MAX);
        self.components[self.slot[root as usize] as usize].mass += 1;
        self.connect(v, neighbors, feature);
    }

    /// Records a new edge between the existing, not yet adjacent `u` and
    /// `v`; `feature` as in [`Self::add_node`].
    pub fn add_edge<'g>(&mut self, u: u32, v: u32, feature: impl Fn(u32) -> &'g [f32]) {
        self.connect(u, &[v], feature);
    }

    /// `v` gains one edge to each of `others`, and each of them one to
    /// `v`: their components merge, every touched node's term moves to
    /// its new degree, and the merged component turns stale.
    fn connect<'g>(&mut self, v: u32, others: &[u32], feature: impl Fn(u32) -> &'g [f32]) {
        if others.is_empty() {
            return;
        }
        let mut root = self.find(v);
        for &u in others {
            let other = self.find(u);
            if other != root {
                root = self.union(root, other);
            }
        }
        let comp = &mut self.components[self.slot[root as usize] as usize];
        if comp.sums.is_empty() {
            comp.sums = vec![ExactSum::default(); self.feature_dim];
        }
        let touched =
            std::iter::once((v, others.len() as u32)).chain(others.iter().map(|&u| (u, 1)));
        let mut terms = 0;
        for (w, gained) in touched {
            // A lone node's term is in no sum yet; `union` leaves it out.
            let degree = &mut self.degree[w as usize];
            if *degree > 0 {
                add_terms(&mut comp.sums, -weight(*degree, self.gamma), feature(w));
                terms += 1;
            }
            *degree += gained;
            add_terms(&mut comp.sums, weight(*degree, self.gamma), feature(w));
            terms += 1;
        }
        comp.count_terms(terms);
        comp.mass += 2 * others.len() as u64;
        if !comp.stale {
            comp.stale = true;
            self.stale.push(root);
        }
    }

    /// Merges the components rooted at `a` and `b`, the lighter under the
    /// heavier (so a tree's depth stays below `log2` of its mass);
    /// returns the surviving root. A lone node's term is left to `connect`.
    fn union(&mut self, a: u32, b: u32) -> u32 {
        let mass = |r: u32| self.components[self.slot[r as usize] as usize].mass;
        let (root, child) = if mass(a) >= mass(b) { (a, b) } else { (b, a) };
        let gone = self.slot[child as usize] as usize;
        let absorbed = self.components.swap_remove(gone);
        if let Some(moved) = self.components.get(gone) {
            self.slot[moved.root as usize] = gone as u32;
        }
        self.parent[child as usize] = root;
        let comp = &mut self.components[self.slot[root as usize] as usize];
        if comp.sums.is_empty() {
            comp.sums = absorbed.sums;
        } else {
            for (s, o) in comp.sums.iter_mut().zip(&absorbed.sums) {
                s.0.iter_mut().zip(o.0).for_each(|(a, b)| *a += b);
            }
        }
        comp.count_terms(absorbed.terms);
        comp.mass += absorbed.mass;
        root
    }

    /// Re-rounds the cached mean of every component a mutation changed
    /// since the last refresh. Reads are exact without it (a stale
    /// component is rounded on the fly), but pay `O(f)` a row for it.
    pub fn refresh(&mut self) {
        let mut stale = std::mem::take(&mut self.stale);
        for v in stale.drain(..) {
            let root = self.find(v);
            let comp = &mut self.components[self.slot[root as usize] as usize];
            if comp.stale {
                comp.refresh();
            }
        }
        self.stale = stale;
    }

    /// The root of `v`'s component.
    fn find(&self, mut v: u32) -> u32 {
        while self.parent[v as usize] != v {
            v = self.parent[v as usize];
        }
        v
    }

    /// Stationary rows for a set of nodes (`nodes.len() × f`). Costs
    /// `O(|nodes|·f)` — this is the per-batch stationary computation of
    /// Algorithm 1 line 2.
    pub fn rows(&self, nodes: &[u32]) -> DenseMatrix {
        let mut out = DenseMatrix::zeros(nodes.len(), self.feature_dim);
        self.rows_into(nodes, &mut out);
        out
    }

    /// [`Self::rows`] into a caller-owned buffer (resized in place), so
    /// hot loops can reuse one matrix across batches.
    pub fn rows_into(&self, nodes: &[u32], out: &mut DenseMatrix) {
        out.reset_zeroed(nodes.len(), self.feature_dim);
        for (t, &node) in nodes.iter().enumerate() {
            let comp = &self.components[self.slot[self.find(node) as usize] as usize];
            let left = f64::from((self.degree[node as usize] as f32 + 1.0).powf(self.gamma));
            let row = out.row_mut(t);
            if comp.stale {
                for (o, &s) in row.iter_mut().zip(&comp.sums) {
                    *o = (left * Component::mean_of(s, comp.mass)) as f32;
                }
            } else {
                for (o, &m) in row.iter_mut().zip(&comp.mean) {
                    *o = (left * m) as f32;
                }
            }
        }
    }

    /// Full `n × f` stationary matrix (tests / diagnostics).
    pub fn full(&self) -> DenseMatrix {
        let nodes: Vec<u32> = (0..self.parent.len() as u32).collect();
        self.rows(&nodes)
    }

    /// MACs charged per emitted row (`f`, per DESIGN.md §5).
    pub fn macs_per_row(&self) -> u64 {
        self.feature_dim as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl ExactSum {
        fn add(&mut self, t: f32) {
            add_terms(std::slice::from_mut(self), 1.0, &[t]);
        }
    }
    use nai_graph::generators::{generate, path_graph, GeneratorConfig};
    use nai_graph::{normalized_adjacency, Convolution, Graph};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Brute-force reference: propagate many times.
    fn brute_force(
        adj: &CsrMatrix,
        x: &DenseMatrix,
        conv: Convolution,
        iters: usize,
    ) -> DenseMatrix {
        let norm = normalized_adjacency(adj, conv);
        let mut h = x.clone();
        for _ in 0..iters {
            h = norm.spmm(&h);
        }
        h
    }

    #[test]
    fn matches_long_propagation_symmetric() {
        let g = path_graph(12, 3);
        let st = StationaryState::compute(&g.adj, &g.features, 0.5);
        let limit = brute_force(&g.adj, &g.features, Convolution::Symmetric, 600);
        let exact = st.full();
        for (a, b) in exact.as_slice().iter().zip(limit.as_slice()) {
            assert!((a - b).abs() < 1e-3, "{a} vs {b}");
        }
    }

    #[test]
    fn matches_long_propagation_transition_gammas() {
        let g = path_graph(8, 2);
        for (gamma, conv) in [
            (1.0, Convolution::Transition),
            (0.0, Convolution::ReverseTransition),
        ] {
            let st = StationaryState::compute(&g.adj, &g.features, gamma);
            let limit = brute_force(&g.adj, &g.features, conv, 800);
            let exact = st.full();
            for (a, b) in exact.as_slice().iter().zip(limit.as_slice()) {
                assert!((a - b).abs() < 1e-3, "gamma {gamma}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn is_fixed_point_of_propagation() {
        let g = generate(
            &GeneratorConfig {
                num_nodes: 150,
                ..Default::default()
            },
            &mut StdRng::seed_from_u64(2),
        );
        let st = StationaryState::compute(&g.adj, &g.features, 0.5);
        let xinf = st.full();
        let norm = normalized_adjacency(&g.adj, Convolution::Symmetric);
        let once = norm.spmm(&xinf);
        let scale = xinf.max_abs().max(1.0);
        for (a, b) in once.as_slice().iter().zip(xinf.as_slice()) {
            assert!(
                (a - b).abs() / scale < 1e-4,
                "not a fixed point: {a} vs {b}"
            );
        }
    }

    #[test]
    fn disconnected_components_do_not_mix() {
        // Two disjoint edges with very different features.
        let adj = CsrMatrix::undirected_adjacency(4, &[(0, 1), (2, 3)]).unwrap();
        let mut x = DenseMatrix::zeros(4, 1);
        x.set(0, 0, 10.0);
        x.set(1, 0, 10.0);
        x.set(2, 0, -6.0);
        x.set(3, 0, -6.0);
        let st = StationaryState::compute(&adj, &x, 0.5);
        let full = st.full();
        assert!(full.get(0, 0) > 0.0 && full.get(1, 0) > 0.0);
        assert!(full.get(2, 0) < 0.0 && full.get(3, 0) < 0.0);
    }

    #[test]
    fn rows_subset_matches_full() {
        let g = path_graph(9, 2);
        let st = StationaryState::compute(&g.adj, &g.features, 0.5);
        let full = st.full();
        let rows = st.rows(&[7, 0, 3]);
        assert_eq!(rows.row(0), full.row(7));
        assert_eq!(rows.row(1), full.row(0));
        assert_eq!(rows.row(2), full.row(3));
    }

    #[test]
    fn degree_dependence_matches_eq7() {
        // For γ = ½ the stationary row scales with sqrt(d+1) within a
        // component: hub of a star vs a leaf.
        let g = nai_graph::generators::star_graph(6, 1);
        let st = StationaryState::compute(&g.adj, &g.features, 0.5);
        let full = st.full();
        let hub = full.get(0, 0);
        let leaf = full.get(1, 0);
        let want_ratio = (6.0f32).sqrt() / (2.0f32).sqrt(); // d̃_hub=6, d̃_leaf=2
        assert!(
            (hub / leaf - want_ratio).abs() < 1e-4,
            "ratio {} vs {want_ratio}",
            hub / leaf
        );
    }

    #[test]
    fn macs_accounting() {
        let g = path_graph(10, 4);
        let st = StationaryState::compute(&g.adj, &g.features, 0.5);
        assert_eq!(st.precompute_macs(), 40);
        assert_eq!(st.macs_per_row(), 4);
    }

    #[test]
    fn isolated_node_stationary_is_own_feature() {
        let adj = CsrMatrix::undirected_adjacency(2, &[]).unwrap();
        let x = DenseMatrix::from_fn(2, 2, |r, c| (r * 2 + c) as f32);
        let st = StationaryState::compute(&adj, &x, 0.5);
        let full = st.full();
        assert_eq!(full.row(0), x.row(0));
        assert_eq!(full.row(1), x.row(1));
    }

    /// A graph grown by arrivals beside the state that follows it.
    struct Grown {
        adj: Vec<Vec<u32>>,
        x: Vec<f32>,
        f: usize,
        state: StationaryState,
    }

    impl Grown {
        fn seed(g: &Graph, gamma: f32) -> Self {
            Grown {
                adj: (0..g.num_nodes())
                    .map(|i| g.adj.row_indices(i).to_vec())
                    .collect(),
                x: g.features.as_slice().to_vec(),
                f: g.feature_dim(),
                state: StationaryState::compute(&g.adj, &g.features, gamma),
            }
        }

        /// Appends a node; `neighbors` are distinct and existing.
        fn add_node(&mut self, row: &[f32], neighbors: &[u32]) {
            let v = self.adj.len() as u32;
            for &u in neighbors {
                self.adj[u as usize].push(v);
            }
            self.adj.push(neighbors.to_vec());
            self.x.extend_from_slice(row);
            let (x, f) = (&self.x, self.f);
            self.state
                .add_node(neighbors, |w| &x[w as usize * f..][..f]);
        }

        /// Adds `(u, v)` unless it is a loop or already present.
        fn add_edge(&mut self, u: u32, v: u32) -> bool {
            if u == v || self.adj[u as usize].contains(&v) {
                return false;
            }
            self.adj[u as usize].push(v);
            self.adj[v as usize].push(u);
            let (x, f) = (&self.x, self.f);
            self.state.add_edge(u, v, |w| &x[w as usize * f..][..f]);
            true
        }

        /// The state [`StationaryState::compute`] gives the grown graph.
        fn recompute(&self) -> StationaryState {
            let edges: Vec<(u32, u32)> = (0..self.adj.len() as u32)
                .flat_map(|i| {
                    self.adj[i as usize]
                        .iter()
                        .filter(move |&&j| i < j)
                        .map(move |&j| (i, j))
                })
                .collect();
            let adj = CsrMatrix::undirected_adjacency(self.adj.len(), &edges).unwrap();
            let x = DenseMatrix::from_vec(self.adj.len(), self.f, self.x.clone());
            StationaryState::compute(&adj, &x, self.state.gamma)
        }
    }

    fn bits(st: &StationaryState) -> Vec<u32> {
        st.full().as_slice().iter().map(|v| v.to_bits()).collect()
    }

    fn seed_graph(n: usize, seed: u64) -> Graph {
        generate(
            &GeneratorConfig {
                num_nodes: n,
                num_classes: 3,
                feature_dim: 6,
                avg_degree: 6.0,
                ..Default::default()
            },
            &mut StdRng::seed_from_u64(seed),
        )
    }

    #[test]
    fn node_arrival_matches_recompute() {
        let mut g = Grown::seed(&seed_graph(60, 3), 0.5);
        g.add_node(&[0.5; 6], &[0, 7, 13]);
        g.add_node(&[-0.25; 6], &[]);
        assert_eq!(bits(&g.state), bits(&g.recompute()));
    }

    #[test]
    fn edge_arrival_matches_recompute() {
        let mut g = Grown::seed(&seed_graph(60, 4), 0.5);
        let v = (1..60).find(|&v| !g.adj[0].contains(&v)).unwrap();
        assert!(g.add_edge(0, v));
        assert_eq!(bits(&g.state), bits(&g.recompute()));
    }

    #[test]
    fn long_arrival_sequence_stays_consistent() {
        for gamma in [0.0, 0.5, 1.0] {
            let mut g = Grown::seed(&seed_graph(40, 5), gamma);
            let mut rng = StdRng::seed_from_u64(17);
            for step in 0..60 {
                let n = g.adj.len() as u32;
                if step % 3 == 0 {
                    g.add_edge(rng.gen_range(0..n), rng.gen_range(0..n));
                } else {
                    let mut nbrs: Vec<u32> = (0..rng.gen_range(0..4))
                        .map(|_| rng.gen_range(0..n))
                        .collect();
                    nbrs.sort_unstable();
                    nbrs.dedup();
                    let row: Vec<f32> = (0..6).map(|_| rng.gen_range(-1.0..1.0)).collect();
                    g.add_node(&row, &nbrs);
                }
            }
            assert_eq!(bits(&g.state), bits(&g.recompute()), "gamma {gamma}");
        }
    }

    #[test]
    fn reads_between_mutations_match_recompute() {
        // Reads land on components a mutation left stale (rounded on the
        // fly) and on refreshed ones; arrivals attach to lone nodes, to
        // pairs of them and to larger components. Every read equals a
        // fresh computation, bit for bit.
        let mut g = Grown::seed(&seed_graph(50, 21), 0.5);
        let mut rng = StdRng::seed_from_u64(23);
        let row =
            |rng: &mut StdRng| -> Vec<f32> { (0..6).map(|_| rng.gen_range(-1.0..1.0)).collect() };
        for step in 0..120u32 {
            let n = g.adj.len() as u32;
            match step % 5 {
                0 => {
                    g.add_edge(rng.gen_range(0..n), rng.gen_range(0..n));
                }
                1 | 2 => g.add_node(&row(&mut rng), &[]),
                // The two lone arrivals before it as neighbours.
                3 => g.add_node(&row(&mut rng), &[n - 2, n - 1]),
                _ => {
                    let mut nbrs = vec![n - 1, rng.gen_range(0..n)];
                    nbrs.sort_unstable();
                    nbrs.dedup();
                    g.add_node(&row(&mut rng), &nbrs);
                }
            }
            if step % 7 == 6 {
                g.state.refresh();
                assert!(g.state.components.iter().all(|c| !c.stale), "step {step}");
            }
            let n = g.adj.len() as u32;
            let nodes: Vec<u32> = (0..6).map(|_| rng.gen_range(0..n)).chain([n - 1]).collect();
            let row_bits =
                |m: DenseMatrix| -> Vec<u32> { m.as_slice().iter().map(|x| x.to_bits()).collect() };
            assert_eq!(
                row_bits(g.state.rows(&nodes)),
                row_bits(g.recompute().rows(&nodes)),
                "step {step}"
            );
        }
        g.state.refresh();
        assert_eq!(bits(&g.state), bits(&g.recompute()));
    }

    #[test]
    fn matches_core_stationary_on_connected_graph() {
        // Built over adjacency lists, as the streaming engine builds it,
        // the state equals the one computed over the CSR, bit for bit.
        let g = generate(
            &GeneratorConfig {
                num_nodes: 80,
                num_classes: 3,
                feature_dim: 6,
                avg_degree: 10.0,
                ..Default::default()
            },
            &mut StdRng::seed_from_u64(9),
        );
        let lists = Grown::seed(&g, 0.5).adj;
        let built = StationaryState::build(
            80,
            6,
            0.5,
            |v| &lists[v as usize],
            |v| g.features.row(v as usize),
        );
        assert_eq!(built.components.len(), 1, "connected");
        assert_eq!(
            bits(&built),
            bits(&StationaryState::compute(&g.adj, &g.features, 0.5))
        );
    }

    #[test]
    fn arrival_order_does_not_change_a_bit() {
        // One disconnected graph, its giant component past the mass that
        // `build` sums through bins, grown from nothing in two edge
        // orders, against the static computation.
        const N: u32 = 1000;
        let base = seed_graph(N as usize, 9);
        let mut edges: Vec<(u32, u32)> = (0..N)
            .flat_map(|i| {
                base.adj
                    .row_indices(i as usize)
                    .iter()
                    .map(move |&j| (i, j))
            })
            .filter(|&(i, j)| i < j && (i % 7 != 0 && j % 7 != 0))
            .collect();
        let adj = CsrMatrix::undirected_adjacency(N as usize, &edges).unwrap();
        let built = StationaryState::compute(&adj, &base.features, 0.5);
        assert!(built.components.iter().any(|c| c.mass > 4096), "binned");
        assert!(built.components.iter().any(|c| c.sums.is_empty()), "lone");
        let want = bits(&built);
        let empty = CsrMatrix::undirected_adjacency(0, &[]).unwrap();
        for order in 0..2 {
            let mut g = Grown {
                adj: Vec::new(),
                x: Vec::new(),
                f: 6,
                state: StationaryState::compute(&empty, &DenseMatrix::zeros(0, 6), 0.5),
            };
            for v in 0..N as usize {
                g.add_node(base.features.row(v), &[]);
            }
            if order == 1 {
                edges.reverse();
            }
            for &(i, j) in &edges {
                assert!(g.add_edge(i, j));
            }
            assert_eq!(bits(&g.state), want, "order {order}");
        }
    }

    #[test]
    fn gamma_zero_weights_only_source_degrees() {
        // γ = 0 ⇒ left coefficient is 1 for every node: every row of a
        // component is the same, whatever the node's degree.
        let g = path_graph(6, 3);
        let st = StationaryState::compute(&g.adj, &g.features, 0.0);
        let full = st.full();
        assert_eq!(full.row(0), full.row(2), "degree 1 vs degree 2");
    }

    #[test]
    fn exact_sum_cancels_and_rounds_once() {
        let sum = |terms: &[f32]| {
            let mut s = ExactSum::default();
            for &t in terms {
                s.add(t);
            }
            s.normalize();
            s.to_f64()
        };
        let tiny = f32::from_bits(1); // 2^-149
        let p = |e: i32| 2f32.powi(e);
        assert_eq!(sum(&[3e38, 1.0, -3e38]), 1.0);
        assert_eq!(sum(&[tiny, tiny]), 2f64.powi(-148));
        assert_eq!(sum(&[f32::MAX, f32::MAX]), 2.0 * f64::from(f32::MAX));
        assert_eq!(
            sum(&[-f32::MAX, -f32::MAX, tiny]),
            -2.0 * f64::from(f32::MAX)
        );
        // f64 spacing at 2^60 is 2^8: halfway cases tie to even, and a
        // far-below bit breaks the tie.
        let two60 = 2f64.powi(60);
        assert_eq!(sum(&[p(60), p(7)]), two60);
        assert_eq!(sum(&[p(60), p(7), p(8)]), two60 + 512.0);
        assert_eq!(sum(&[p(60), p(7), p(-100)]), two60 + 256.0);
        assert_eq!(sum(&[-p(60), -p(7), -p(-100)]), -(two60 + 256.0));
        assert_eq!(sum(&[p(60), -p(60)]), 0.0);
    }

    /// Finite `f32`s of every scale: any bit pattern, subnormals, and
    /// terms near `±f32::MAX`.
    fn term() -> impl Strategy<Value = f32> {
        prop_oneof![
            any::<u32>().prop_map(|b| {
                let x = f32::from_bits(b);
                if x.is_finite() {
                    x
                } else {
                    f32::from_bits(b & 0xff7f_ffff)
                }
            }),
            any::<u32>().prop_map(|b| f32::from_bits(b & 0x807f_ffff)),
            prop_oneof![
                Just(f32::MAX),
                Just(-f32::MAX),
                Just(3e38f32),
                Just(-3e38f32),
                Just(1.0f32)
            ],
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(200))]

        /// The sum depends on the multiset of terms only: not on their
        /// order, on terms added and removed again, or on merging.
        #[test]
        fn exact_sum_ignores_order_and_history(
            terms in prop::collection::vec(term(), 1..40),
            extra in prop::collection::vec(term(), 0..20),
            cut in any::<usize>(),
        ) {
            let sum = |ts: &[f32]| {
                let mut s = ExactSum::default();
                for &t in ts {
                    s.add(t);
                }
                s.normalize();
                s
            };
            let want = sum(&terms);
            let mut reordered: Vec<f32> = terms.iter().rev().copied().collect();
            reordered.rotate_left(cut % terms.len());
            prop_assert_eq!(sum(&reordered), want);

            let mut s = ExactSum::default();
            for (i, &t) in reordered.iter().enumerate() {
                s.add(t);
                if let Some(&e) = extra.get(i) {
                    s.add(e);
                }
            }
            for &e in extra.iter().skip(reordered.len()) {
                s.add(e);
            }
            for &e in extra.iter().rev() {
                s.add(-e);
            }
            s.normalize();
            prop_assert_eq!(s, want);
            prop_assert_eq!(s.to_f64().to_bits(), want.to_f64().to_bits());

            let (a, b) = terms.split_at(cut % terms.len());
            let mut merged = sum(a);
            merged.0.iter_mut().zip(sum(b).0).for_each(|(x, y)| *x += y);
            merged.normalize();
            prop_assert_eq!(merged, want);
        }

        /// On terms an `i128` holds exactly, the rounded sum is the
        /// reference sum rounded once.
        #[test]
        fn exact_sum_rounds_like_an_integer_reference(
            parts in prop::collection::vec((any::<i32>(), 0u32..60), 1..40),
        ) {
            let mut s = ExactSum::default();
            let mut reference = 0i128;
            for &(m, e) in &parts {
                let m = m >> 8; // 24 significant bits: exact in f32
                s.add(m as f32 * 2f32.powi(e as i32 - 30));
                reference += i128::from(m) << e;
            }
            s.normalize();
            prop_assert_eq!(s.to_f64(), reference as f64 * 2f64.powi(-30));
        }
    }
}
