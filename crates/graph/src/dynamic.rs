//! The one graph store of a deployment: a growable undirected graph.
//!
//! [`CsrMatrix`] is immutable by design (compressed storage cannot
//! absorb appends); a deployment instead keeps adjacency rows it can
//! grow, and `nai-core`'s deployment state caches each node's
//! normalization factors and refreshes them when a mutation changes that
//! node's degree, so an arrival never invalidates a stored matrix. The
//! static and the streaming engine both read this store.
//!
//! A graph splits into a frozen **seed** and what grew after it. The
//! seed is the graph as deployed: the shared buffers of its sorted CSR
//! adjacency and of its feature rows. A graph deployed from a decoded
//! [`Graph`] shares that graph's buffers, so a deployment holds one copy
//! of the graph, and [`Clone`] shares them again. Arrivals' feature rows
//! go to a per-graph append-only tail, so growth never copies or moves
//! seed rows. Adjacency is copy-on-write over the seed CSR: an untouched
//! seed node's row is read in place, and a graph owns a row only once a
//! mutation writes to it (plus every arrival's row). A graph's own
//! adjacency is two `u32`s per node (where its row lives) plus the rows
//! it owns, so a clone of a deployed graph copies no row.

use crate::{CsrMatrix, Graph};
use nai_linalg::DenseMatrix;
use std::sync::Arc;

/// The immutable graph a [`DynamicGraph`] was deployed from: shared
/// buffers, never written.
#[derive(Debug, Clone)]
struct Seed {
    /// The adjacency, rows sorted ascending (a [`CsrMatrix`] invariant).
    adj: CsrMatrix,
    /// Row-major feature rows of the seed nodes.
    features: Arc<[f32]>,
}

/// Materializes sorted adjacency rows as a [`CsrMatrix`] with unit
/// weights; the rows hold `nnz` entries in all.
fn csr_of<'a>(rows: impl ExactSizeIterator<Item = &'a [u32]>, nnz: usize) -> CsrMatrix {
    let n = rows.len();
    let mut indptr = Vec::with_capacity(n + 1);
    let mut indices = Vec::with_capacity(nnz);
    indptr.push(0);
    for row in rows {
        indices.extend_from_slice(row);
        indptr.push(indices.len());
    }
    let values = vec![1.0; indices.len()];
    // Our rows are sorted, duplicate-free and name existing nodes: the
    // CSR invariants hold as they are.
    CsrMatrix::from_canonical(n, indptr.into(), indices.into(), values.into())
}

/// [`RowRef::start`] of a row the graph owns.
const OWNED: u32 = u32::MAX;

/// Where one node's adjacency row lives: `len` entries of the seed's
/// `indices` from `start`, read in place, or — when `start` is
/// [`OWNED`] — the graph's own row `owned[len]`. One random load finds
/// either.
#[derive(Debug, Clone, Copy)]
struct RowRef {
    start: u32,
    len: u32,
}

/// Growable undirected graph: a shared frozen seed, copy-on-write
/// adjacency rows over the seed CSR, and an append-only tail of
/// arrivals' features.
///
/// A seed node's row is read in place from the seed CSR until a
/// mutation first writes to it; that write copies the row into the
/// graph's own rows, where it grows from then on. Arrivals' rows are
/// always the graph's own. Siblings sharing the seed never see each
/// other's writes.
///
/// Every adjacency row is kept **sorted ascending** as an invariant, so
/// edge-existence checks ([`Self::has_edge`], and the duplicate scan
/// inside [`Self::add_edge`]) are `O(log d)` binary searches instead of
/// `O(d)` scans — on a hub node under streaming ingest (and under the
/// serving layer's sequencer, which applies every arrival to the
/// service's engine) the linear probe is the hot path.
#[derive(Debug, Clone)]
pub struct DynamicGraph {
    seed: Seed,
    /// `seed.adj.n()`, kept inline for the [`Self::feature`] branch.
    seed_nodes: usize,
    /// Per node, where its adjacency row lives.
    rows: Vec<RowRef>,
    /// The rows this graph owns: seed rows a mutation wrote to, and
    /// arrivals' rows.
    owned: Vec<Vec<u32>>,
    /// Feature rows of the nodes added after the seed, in id order.
    tail: Vec<f32>,
    feature_dim: usize,
    num_edges: usize,
}

impl DynamicGraph {
    /// An empty graph with the given feature dimensionality.
    ///
    /// # Panics
    /// Panics if `feature_dim` is zero.
    pub fn new(feature_dim: usize) -> Self {
        assert!(feature_dim > 0, "feature_dim must be positive");
        Self::from_seed(
            Seed {
                adj: csr_of(std::iter::empty(), 0),
                features: Arc::default(),
            },
            feature_dim,
        )
    }

    /// Seeds a dynamic graph from a static one (the observed training
    /// graph in the inductive protocol). The seed shares the graph's CSR
    /// arrays, and its feature rows when they are shared (a decoded
    /// graph's are); owned feature rows are copied once. Either way,
    /// clones of this graph share the seed.
    ///
    /// # Panics
    /// Panics if the graph holds `u32::MAX` or more adjacency entries.
    pub fn from_graph(g: &Graph) -> Self {
        Self::from_seed(
            Seed {
                adj: g.adj.clone(),
                features: g.features.to_shared(),
            },
            g.feature_dim(),
        )
    }

    /// # Panics
    /// Panics if the seed holds `u32::MAX` or more adjacency entries.
    fn from_seed(seed: Seed, feature_dim: usize) -> Self {
        assert!(
            seed.adj.nnz() < OWNED as usize,
            "seed adjacency must fit u32 offsets"
        );
        let rows = seed
            .adj
            .indptr()
            .windows(2)
            .map(|w| RowRef {
                start: w[0] as u32,
                len: (w[1] - w[0]) as u32,
            })
            .collect();
        Self {
            rows,
            owned: Vec::new(),
            num_edges: seed.adj.nnz() / 2,
            seed_nodes: seed.adj.n(),
            seed,
            tail: Vec::new(),
            feature_dim,
        }
    }

    /// Whether this graph and `other` hold the same frozen seed buffers
    /// (clones of one graph do, however either has grown).
    pub fn shares_seed(&self, other: &DynamicGraph) -> bool {
        Arc::ptr_eq(&self.seed.features, &other.seed.features)
            && std::ptr::eq(self.seed.adj.indices(), other.seed.adj.indices())
    }

    /// Where the seed's feature rows and adjacency indices live.
    #[cfg(test)]
    fn seed_buffers(&self) -> (*const f32, *const u32) {
        (
            self.seed.features.as_ptr(),
            self.seed.adj.indices().as_ptr(),
        )
    }

    /// Whether a node or edge was added since the seed was frozen. The
    /// graph only grows, so equal counts mean nothing changed.
    fn grown_since_seed(&self) -> bool {
        self.num_nodes() != self.seed_nodes || self.num_edges != self.seed.adj.nnz() / 2
    }

    /// How many adjacency rows this graph owns rather than reads from
    /// the seed: its arrivals plus the distinct seed rows written to.
    #[cfg(test)]
    fn owned_rows(&self) -> usize {
        self.owned.len()
    }

    /// Makes the current graph the seed, if it grew since its seed was
    /// frozen: one copy of every feature row and adjacency row into a
    /// new, unshared seed. An ungrown graph keeps (and shares) its seed.
    pub fn freeze(&mut self) {
        if !self.grown_since_seed() {
            return;
        }
        let seed = Seed {
            adj: self.snapshot_csr(),
            features: self.all_features(),
        };
        *self = Self::from_seed(seed, self.feature_dim);
    }

    /// Every feature row, seed then tail, in one row-major copy.
    fn all_features(&self) -> Arc<[f32]> {
        self.seed
            .features
            .iter()
            .chain(&self.tail)
            .copied()
            .collect()
    }

    /// The frozen seed's adjacency, shared — what [`Self::snapshot_csr`]
    /// returned before the graph grew.
    pub fn seed_csr(&self) -> CsrMatrix {
        self.seed.adj.clone()
    }

    /// Node count.
    pub fn num_nodes(&self) -> usize {
        self.rows.len()
    }

    /// Undirected edge count (each edge counted once).
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Feature dimensionality.
    pub fn feature_dim(&self) -> usize {
        self.feature_dim
    }

    /// Degree of `v` (neighbor count, self excluded), read from where
    /// the row lives without slicing it.
    ///
    /// # Panics
    /// Panics if `v` is out of range.
    #[inline]
    pub fn degree(&self, v: u32) -> usize {
        let RowRef { start, len } = self.rows[v as usize];
        if start == OWNED {
            self.owned[len as usize].len()
        } else {
            len as usize
        }
    }

    /// Neighbors of `v`, sorted ascending: the seed's row, read in
    /// place, until a mutation first writes to it.
    ///
    /// # Panics
    /// Panics if `v` is out of range.
    #[inline]
    pub fn neighbors(&self, v: u32) -> &[u32] {
        let RowRef { start, len } = self.rows[v as usize];
        if start == OWNED {
            &self.owned[len as usize]
        } else {
            &self.seed.adj.indices()[start as usize..(start + len) as usize]
        }
    }

    /// `v`'s row for writing, copied out of the seed on the first write.
    fn row_mut(&mut self, v: u32) -> &mut Vec<u32> {
        let row = &mut self.rows[v as usize];
        if row.start != OWNED {
            let seed_row =
                &self.seed.adj.indices()[row.start as usize..(row.start + row.len) as usize];
            // Room for the write about to happen.
            let mut own = Vec::with_capacity(seed_row.len() + 1);
            own.extend_from_slice(seed_row);
            *row = RowRef {
                start: OWNED,
                len: self.owned.len() as u32,
            };
            self.owned.push(own);
        }
        &mut self.owned[row.len as usize]
    }

    /// Whether the undirected edge `(u, v)` exists — an `O(log d)`
    /// binary search over the sorted adjacency row.
    ///
    /// # Panics
    /// Panics if `u` is out of range.
    pub fn has_edge(&self, u: u32, v: u32) -> bool {
        self.neighbors(u).binary_search(&v).is_ok()
    }

    /// Feature row of `v`: a seed row or a tail row, never copied.
    #[inline]
    pub fn feature(&self, v: u32) -> &[f32] {
        let (f, v) = (self.feature_dim, v as usize);
        if v < self.seed_nodes {
            &self.seed.features[v * f..(v + 1) * f]
        } else {
            let t = v - self.seed_nodes;
            &self.tail[t * f..(t + 1) * f]
        }
    }

    /// `2m + n`, the Eq. (7) normalizer of the current graph.
    pub fn total_tilde_degree(&self) -> f64 {
        (2 * self.num_edges + self.num_nodes()) as f64
    }

    /// Appends a node with `features` connected to existing `neighbors`.
    /// Duplicate neighbor ids are collapsed; returns the new node id.
    ///
    /// # Panics
    /// Panics if the feature length is wrong or a neighbor id does not
    /// exist yet (streaming arrivals attach to the *observed* graph).
    pub fn add_node(&mut self, features: &[f32], neighbors: &[u32]) -> u32 {
        assert_eq!(
            features.len(),
            self.feature_dim,
            "feature length must match graph dimension"
        );
        let v = self.num_nodes() as u32;
        // The one copy of `neighbors`: sorted and deduplicated here, it
        // becomes the new node's adjacency row.
        let mut uniq: Vec<u32> = neighbors.to_vec();
        uniq.sort_unstable();
        uniq.dedup();
        if let Some(&u) = uniq.last() {
            assert!(
                u < v,
                "neighbor {u} must already exist (graph has {v} nodes)"
            );
        }
        self.tail.extend_from_slice(features);
        for &u in &uniq {
            // `v` is the largest id in the graph, so appending keeps the
            // neighbor's row sorted.
            let row = self.row_mut(u);
            debug_assert!(row.last().is_none_or(|&last| last < v));
            row.push(v);
        }
        self.num_edges += uniq.len();
        self.rows.push(RowRef {
            start: OWNED,
            len: self.owned.len() as u32,
        });
        self.owned.push(uniq);
        v
    }

    /// Adds an undirected edge between existing nodes. Returns `false`
    /// (and changes nothing) when the edge already exists. The duplicate
    /// check is an `O(log d)` binary search (rows stay sorted).
    ///
    /// # Panics
    /// Panics on out-of-range ids or a self-loop (self-loops are implicit
    /// in the `Ã` normalization and never stored).
    pub fn add_edge(&mut self, u: u32, v: u32) -> bool {
        assert!(u != v, "explicit self-loops are not representable");
        assert!((u as usize) < self.num_nodes(), "node {u} out of range");
        assert!((v as usize) < self.num_nodes(), "node {v} out of range");
        let pos_u = match self.neighbors(u).binary_search(&v) {
            Ok(_) => return false,
            Err(pos) => pos,
        };
        let pos_v = self
            .neighbors(v)
            .binary_search(&u)
            .expect_err("adjacency must stay symmetric");
        self.row_mut(u).insert(pos_u, v);
        self.row_mut(v).insert(pos_v, u);
        self.num_edges += 1;
        true
    }

    /// Breadth-first frontier of every node within `radius` hops of any
    /// seed, as `(node, hop distance)` pairs (seeds themselves at
    /// distance 0; duplicate seeds collapse). Returns `None` as soon as
    /// more than `budget` nodes have been visited — the caller's signal
    /// to fall back to a conservative global action instead of an
    /// unbounded walk (the serving layer's cache invalidation flushes
    /// everything in that case).
    ///
    /// This is the *dirty frontier* of a mutation under fixed-depth
    /// propagation: an edge arrival `(u, v)` only changes adjacency and
    /// degrees of `u` and `v`, so a node's ≤`radius`-layer propagation
    /// output can change only if it is within `radius` hops of a touched
    /// node. Edge additions only shrink distances, so walking the
    /// *post-mutation* adjacency is conservative (it covers every node
    /// whose old output involved the touched region).
    ///
    /// # Panics
    /// Panics if a seed id is out of range.
    pub fn k_hop_frontier(
        &self,
        seeds: &[u32],
        radius: usize,
        budget: usize,
    ) -> Option<Vec<(u32, usize)>> {
        use std::collections::HashMap;
        let mut dist: HashMap<u32, usize> = HashMap::new();
        let mut order: Vec<(u32, usize)> = Vec::new();
        for &s in seeds {
            assert!((s as usize) < self.num_nodes(), "seed {s} out of range");
            if dist.insert(s, 0).is_none() {
                if order.len() >= budget {
                    return None;
                }
                order.push((s, 0));
            }
        }
        let mut head = 0;
        while head < order.len() {
            let (v, d) = order[head];
            head += 1;
            if d == radius {
                continue;
            }
            for &u in self.neighbors(v) {
                if let std::collections::hash_map::Entry::Vacant(e) = dist.entry(u) {
                    e.insert(d + 1);
                    if order.len() >= budget {
                        return None;
                    }
                    order.push((u, d + 1));
                }
            }
        }
        Some(order)
    }

    /// Materializes the current adjacency as a [`CsrMatrix`]
    /// (equivalence tests and snapshots).
    pub fn snapshot_csr(&self) -> CsrMatrix {
        csr_of(
            (0..self.num_nodes() as u32).map(|v| self.neighbors(v)),
            2 * self.num_edges,
        )
    }

    /// Materializes a static [`Graph`] with the supplied labels.
    ///
    /// # Panics
    /// Panics if `labels.len() != num_nodes` or `num_classes == 0`.
    pub fn snapshot_graph(&self, labels: Vec<u32>, num_classes: usize) -> Graph {
        assert_eq!(labels.len(), self.num_nodes(), "one label per node");
        let features =
            DenseMatrix::from_shared(self.num_nodes(), self.feature_dim, self.all_features());
        Graph::new(self.snapshot_csr(), features, labels, num_classes)
            // Label arity is checked two lines up.
            .expect("snapshot is structurally valid")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{generate, GeneratorConfig};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn seed_graph(n: usize) -> Graph {
        generate(
            &GeneratorConfig {
                num_nodes: n,
                num_classes: 3,
                feature_dim: 4,
                avg_degree: 6.0,
                ..Default::default()
            },
            &mut StdRng::seed_from_u64(11),
        )
    }

    #[test]
    fn from_graph_preserves_structure() {
        let g = seed_graph(100);
        let d = DynamicGraph::from_graph(&g);
        assert_eq!(d.num_nodes(), 100);
        assert_eq!(d.num_edges(), g.num_edges());
        for v in 0..100u32 {
            assert_eq!(d.degree(v), g.adj.row_nnz(v as usize));
            assert_eq!(d.feature(v), g.features.row(v as usize));
        }
    }

    #[test]
    fn snapshot_roundtrips_to_identical_csr() {
        let g = seed_graph(80);
        let d = DynamicGraph::from_graph(&g);
        let csr = d.snapshot_csr();
        assert_eq!(csr.nnz(), g.adj.nnz());
        for i in 0..80 {
            let mut a: Vec<u32> = csr.row_indices(i).to_vec();
            let mut b: Vec<u32> = g.adj.row_indices(i).to_vec();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b, "row {i}");
        }
    }

    #[test]
    fn add_node_wires_both_directions() {
        let g = seed_graph(20);
        let mut d = DynamicGraph::from_graph(&g);
        let v = d.add_node(&[1.0, 2.0, 3.0, 4.0], &[0, 5, 5, 7]);
        assert_eq!(v, 20);
        assert_eq!(d.degree(v), 3, "duplicates collapse");
        assert!(d.neighbors(0).contains(&v));
        assert!(d.neighbors(5).contains(&v));
        assert!(d.neighbors(7).contains(&v));
        assert_eq!(d.num_edges(), g.num_edges() + 3);
        assert_eq!(d.feature(v), &[1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn add_node_with_unsorted_duplicates_matches_a_rebuild() {
        let g = seed_graph(30);
        let mut d = DynamicGraph::from_graph(&g);
        let nbrs = [17u32, 3, 29, 3, 0, 17, 8];
        let v = d.add_node(&[0.5; 4], &nbrs);
        // The same graph built from scratch: the seed's edges plus the
        // arrival's, duplicates and all, through the CSR builder.
        let mut edges: Vec<(u32, u32)> = (0..30u32)
            .flat_map(|i| g.adj.row_indices(i as usize).iter().map(move |&j| (i, j)))
            .collect();
        edges.extend(nbrs.iter().map(|&u| (v, u)));
        let csr = CsrMatrix::undirected_adjacency(31, &edges).unwrap();
        let mut feats = g.features.as_slice().to_vec();
        feats.extend_from_slice(&[0.5; 4]);
        let rebuilt = Graph::new(csr, DenseMatrix::from_vec(31, 4, feats), vec![0; 31], 3)
            .map(|g| DynamicGraph::from_graph(&g))
            .unwrap();
        assert_eq!(d.num_edges(), rebuilt.num_edges());
        for u in 0..31u32 {
            assert_eq!(d.neighbors(u), rebuilt.neighbors(u), "row {u}");
            assert_eq!(d.degree(u), rebuilt.degree(u), "degree {u}");
        }
        assert_eq!(d.neighbors(v), &[0, 3, 8, 17, 29]);
    }

    #[test]
    fn add_edge_dedups() {
        let g = seed_graph(10);
        let mut d = DynamicGraph::from_graph(&g);
        let before = d.num_edges();
        let u = 0u32;
        // Find a non-neighbor of 0.
        let v = (1..10u32).find(|&x| !d.has_edge(u, x)).unwrap();
        assert!(d.add_edge(u, v));
        assert!(!d.add_edge(u, v), "duplicate edge rejected");
        assert!(!d.add_edge(v, u), "reverse duplicate rejected");
        assert_eq!(d.num_edges(), before + 1);
        assert!(d.has_edge(u, v) && d.has_edge(v, u));
    }

    #[test]
    fn adjacency_rows_stay_sorted_under_mutation() {
        use rand::Rng;
        let g = seed_graph(30);
        let mut d = DynamicGraph::from_graph(&g);
        let mut rng = StdRng::seed_from_u64(23);
        for step in 0..80u32 {
            if step % 2 == 0 {
                let n = d.num_nodes() as u32;
                let nbrs: Vec<u32> = (0..3).map(|k| (step.wrapping_mul(7) + k) % n).collect();
                d.add_node(&[0.1; 4], &nbrs);
            } else {
                let n = d.num_nodes() as u32;
                let (u, v) = (rng.gen_range(0..n), rng.gen_range(0..n));
                if u != v {
                    d.add_edge(u, v);
                }
            }
        }
        for v in 0..d.num_nodes() as u32 {
            let row = d.neighbors(v);
            assert!(
                row.windows(2).all(|w| w[0] < w[1]),
                "row {v} not sorted/unique: {row:?}"
            );
            for &u in row {
                assert!(d.has_edge(v, u) && d.has_edge(u, v));
            }
        }
    }

    #[test]
    fn isolated_arrival_is_allowed() {
        let g = seed_graph(10);
        let mut d = DynamicGraph::from_graph(&g);
        let v = d.add_node(&[0.0; 4], &[]);
        assert_eq!(d.degree(v), 0);
        assert_eq!(d.num_edges(), g.num_edges());
    }

    #[test]
    fn total_tilde_degree_tracks_arrivals() {
        let g = seed_graph(30);
        let mut d = DynamicGraph::from_graph(&g);
        let base = d.total_tilde_degree();
        d.add_node(&[0.0; 4], &[0, 1]);
        // +1 node, +2 edges → 2m+n grows by 2·2 + 1 = 5.
        assert_eq!(d.total_tilde_degree(), base + 5.0);
    }

    #[test]
    #[should_panic(expected = "must already exist")]
    fn future_neighbor_panics() {
        let g = seed_graph(5);
        let mut d = DynamicGraph::from_graph(&g);
        let _ = d.add_node(&[0.0; 4], &[99]);
    }

    #[test]
    #[should_panic(expected = "self-loops")]
    fn self_loop_panics() {
        let g = seed_graph(5);
        let mut d = DynamicGraph::from_graph(&g);
        let _ = d.add_edge(2, 2);
    }

    /// A path 0 − 1 − 2 − … − (n−1): hop distances are exact, so the
    /// frontier walk's radius and budget behavior is fully observable.
    fn path_graph(n: usize) -> DynamicGraph {
        let mut d = DynamicGraph::new(2);
        d.add_node(&[0.0; 2], &[]);
        for v in 1..n as u32 {
            d.add_node(&[0.0; 2], &[v - 1]);
        }
        d
    }

    #[test]
    fn k_hop_frontier_reports_exact_hop_distances() {
        let d = path_graph(8);
        let mut frontier = d.k_hop_frontier(&[3], 2, 100).unwrap();
        frontier.sort_unstable();
        assert_eq!(frontier, vec![(1, 2), (2, 1), (3, 0), (4, 1), (5, 2)]);
        // Radius 0: just the (deduped) seeds.
        let solo = d.k_hop_frontier(&[6, 6], 0, 100).unwrap();
        assert_eq!(solo, vec![(6, 0)]);
        // Two seeds (an edge's endpoints): distance to the nearest seed.
        let mut pair = d.k_hop_frontier(&[2, 3], 1, 100).unwrap();
        pair.sort_unstable();
        assert_eq!(pair, vec![(1, 1), (2, 0), (3, 0), (4, 1)]);
    }

    #[test]
    fn k_hop_frontier_respects_budget() {
        let d = path_graph(10);
        // The radius-3 ball around node 5 holds 7 nodes.
        assert_eq!(d.k_hop_frontier(&[5], 3, 7).unwrap().len(), 7);
        assert!(d.k_hop_frontier(&[5], 3, 6).is_none(), "over budget");
        assert!(d.k_hop_frontier(&[5], 3, 0).is_none(), "0 = always bail");
    }

    #[test]
    fn k_hop_frontier_on_a_hub_blows_its_budget() {
        // A star: the hub's 1-hop ball is the whole graph, so any small
        // budget forces the conservative fallback.
        let mut d = DynamicGraph::new(2);
        d.add_node(&[0.0; 2], &[]);
        for _ in 0..50 {
            d.add_node(&[0.0; 2], &[0]);
        }
        assert!(d.k_hop_frontier(&[0], 1, 16).is_none());
        // A leaf's 1-hop ball is {leaf, hub}: cheap.
        assert_eq!(d.k_hop_frontier(&[7], 1, 16).unwrap().len(), 2);
    }

    /// Applies `steps` seeded mutations to `d`: every other step an
    /// arrival wired to three existing nodes, else an edge (duplicates
    /// and self-loops skipped).
    fn grow(d: &mut DynamicGraph, steps: u32, seed: u64) {
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(seed);
        for step in 0..steps {
            let n = d.num_nodes() as u32;
            if step % 2 == 0 {
                let feats: Vec<f32> = (0..d.feature_dim())
                    .map(|_| rng.gen_range(-1.0..1.0))
                    .collect();
                let nbrs: Vec<u32> = (0..3).map(|_| rng.gen_range(0..n)).collect();
                d.add_node(&feats, &nbrs);
            } else {
                let (u, v) = (rng.gen_range(0..n), rng.gen_range(0..n));
                if u != v {
                    d.add_edge(u, v);
                }
            }
        }
    }

    #[test]
    fn clones_share_one_seed_and_growth_never_copies_it() {
        let g = seed_graph(200);
        let base = DynamicGraph::from_graph(&g);
        let mut grown = base.clone();
        let other = base.clone();
        assert!(grown.shares_seed(&base) && other.shares_seed(&base));
        assert_eq!(
            (base.owned_rows(), grown.owned_rows(), other.owned_rows()),
            (0, 0, 0),
            "a deployed graph and its clones read every row from the seed"
        );
        grow(&mut grown, 1000, 5);
        assert!(grown.num_nodes() >= 700, "500 arrivals");
        assert!(grown.shares_seed(&base), "growth keeps the seed");
        assert!(grown.grown_since_seed() && !other.grown_since_seed());
        assert_eq!(
            (other.num_nodes(), other.num_edges()),
            (200, g.num_edges()),
            "a clone's growth is invisible to its siblings"
        );
        assert_eq!(other.owned_rows(), 0, "a sibling's writes copy no row here");
        for v in 0..200u32 {
            assert_eq!(other.neighbors(v), base.neighbors(v));
        }

        // Every read agrees with a graph rebuilt from scratch.
        let labels: Vec<u32> = (0..grown.num_nodes() as u32).map(|i| i % 3).collect();
        let snap = grown.snapshot_graph(labels.clone(), 3);
        let rebuilt = DynamicGraph::from_graph(&snap);
        assert_eq!(rebuilt.num_edges(), grown.num_edges());
        for v in 0..grown.num_nodes() as u32 {
            assert_eq!(grown.feature(v), rebuilt.feature(v), "feature {v}");
            assert_eq!(grown.neighbors(v), rebuilt.neighbors(v), "neighbors {v}");
        }
        let (a, b) = (grown.snapshot_csr(), rebuilt.snapshot_csr());
        assert_eq!(a.nnz(), b.nnz());
        for i in 0..grown.num_nodes() {
            assert_eq!(a.row_indices(i), b.row_indices(i), "csr row {i}");
        }
        let again = rebuilt.snapshot_graph(labels, 3);
        assert_eq!(snap.features.as_slice(), again.features.as_slice());
    }

    #[test]
    fn freeze_makes_the_grown_graph_the_seed() {
        let g = seed_graph(60);
        let base = DynamicGraph::from_graph(&g);
        assert_eq!(base.seed_csr().nnz(), base.snapshot_csr().nnz());
        let mut d = base.clone();
        grow(&mut d, 40, 9);
        let before = d.clone();
        d.freeze();
        assert!(!d.shares_seed(&base) && !d.grown_since_seed());
        let (seed, snap) = (d.seed_csr(), before.snapshot_csr());
        assert_eq!(seed.nnz(), snap.nnz());
        for i in 0..d.num_nodes() {
            assert_eq!(seed.row_indices(i), snap.row_indices(i), "row {i}");
            assert_eq!(d.feature(i as u32), before.feature(i as u32), "feature {i}");
        }
        // The old seed is untouched: its clones still see the seed graph.
        assert_eq!(base.seed_csr().nnz(), g.adj.nnz());
    }

    #[test]
    fn a_decoded_graph_is_deployed_in_place_and_never_written() {
        use crate::io::{decode_graph, encode_graph};
        let g = decode_graph(&encode_graph(&seed_graph(120))).unwrap();
        let saved = (
            g.features
                .as_slice()
                .iter()
                .map(|x| x.to_bits())
                .collect::<Vec<_>>(),
            g.adj.indptr().to_vec(),
            g.adj.indices().to_vec(),
            g.adj
                .values()
                .iter()
                .map(|x| x.to_bits())
                .collect::<Vec<_>>(),
        );
        let buffers = (g.features.as_slice().as_ptr(), g.adj.indices().as_ptr());
        let base = DynamicGraph::from_graph(&g);
        assert_eq!(
            base.seed_buffers(),
            buffers,
            "the seed is the decoded graph"
        );
        let mut grown = base.clone();
        assert_eq!(grown.seed_buffers(), buffers, "a clone shares it too");

        grow(&mut grown, 300, 13);
        let script: Vec<Write> = (0..60u16)
            .map(|i| Write::Edge(i, (i * 7 + 3) % 120))
            .collect();
        apply_writes(&mut grown, &script);
        assert!(grown.owned_rows() > 150 + 60, "seed rows were written");
        assert_eq!(
            grown.seed_buffers(),
            buffers,
            "growth writes beside the seed"
        );
        let now = (
            g.features
                .as_slice()
                .iter()
                .map(|x| x.to_bits())
                .collect::<Vec<_>>(),
            g.adj.indptr().to_vec(),
            g.adj.indices().to_vec(),
            g.adj
                .values()
                .iter()
                .map(|x| x.to_bits())
                .collect::<Vec<_>>(),
        );
        assert!(now == saved, "the decoded graph's arrays are untouched");

        grown.freeze();
        let (features, indices) = grown.seed_buffers();
        assert!(
            features != buffers.0 && indices != buffers.1,
            "freeze owns a new seed"
        );
        assert!(!grown.shares_seed(&base) && base.shares_seed(&base.clone()));

        // An owned graph's feature rows are copied once; its CSR is shared.
        let owned = seed_graph(50);
        let d = DynamicGraph::from_graph(&owned);
        assert_ne!(d.seed_buffers().0, owned.features.as_slice().as_ptr());
        assert_eq!(d.seed_buffers().1, owned.adj.indices().as_ptr());
    }

    #[test]
    fn snapshot_graph_carries_features_and_labels() {
        let g = seed_graph(25);
        let mut d = DynamicGraph::from_graph(&g);
        d.add_node(&[9.0; 4], &[3]);
        let labels: Vec<u32> = (0..26).map(|i| i % 3).collect();
        let snap = d.snapshot_graph(labels.clone(), 3);
        assert_eq!(snap.num_nodes(), 26);
        assert_eq!(snap.labels, labels);
        assert_eq!(snap.features.row(25), &[9.0; 4]);
    }

    /// One mutation of a script, applied to a clone of a deployed graph.
    #[derive(Debug, Clone)]
    enum Write {
        /// An arrival wired to these picks (duplicates and all; none is
        /// a neighbourless arrival).
        Node(Vec<u16>),
        /// An edge between two picks (a self-loop pick is skipped; a
        /// repeated edge is a duplicate).
        Edge(u16, u16),
    }

    fn write_strategy() -> impl Strategy<Value = Write> {
        prop_oneof![
            prop::collection::vec(any::<u16>(), 0..5).prop_map(Write::Node),
            (any::<u16>(), any::<u16>()).prop_map(|(a, b)| Write::Edge(a, b)),
            // Both ends among the first 40 nodes: an edge between two
            // seed rows, often one already present.
            (0u16..40, 0u16..40).prop_map(|(a, b)| Write::Edge(a, b)),
        ]
    }

    /// Applies `script` to `d`; returns the seed rows it wrote to.
    fn apply_writes(d: &mut DynamicGraph, script: &[Write]) -> std::collections::BTreeSet<u32> {
        let seed_nodes = d.seed_nodes as u32;
        let mut touched = std::collections::BTreeSet::new();
        for w in script {
            let n = d.num_nodes();
            match w {
                Write::Node(picks) => {
                    let nbrs: Vec<u32> = picks.iter().map(|&p| (p as usize % n) as u32).collect();
                    touched.extend(nbrs.iter().filter(|&&u| u < seed_nodes));
                    d.add_node(&[0.25; 4], &nbrs);
                }
                Write::Edge(a, b) => {
                    let (u, v) = ((*a as usize % n) as u32, (*b as usize % n) as u32);
                    if u != v && d.add_edge(u, v) {
                        touched.extend([u, v].into_iter().filter(|&x| x < seed_nodes));
                    }
                }
            }
        }
        touched
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Three clones of one deployed graph, each driven by its own
        /// script: every clone's rows equal a from-scratch rebuild, stay
        /// sorted and symmetric, and it owns exactly its arrivals' rows
        /// plus the seed rows it wrote to; the seed and the siblings see
        /// none of its writes.
        #[test]
        fn copy_on_write_clones_stay_independent(
            scripts in prop::collection::vec(prop::collection::vec(write_strategy(), 0..30), 3..=3),
        ) {
            let g = seed_graph(60);
            let base = DynamicGraph::from_graph(&g);
            let seed_rows: Vec<Vec<u32>> =
                (0..60u32).map(|v| base.neighbors(v).to_vec()).collect();
            let mut clones = [base.clone(), base.clone(), base.clone()];
            let mut wrote = Vec::new();
            for (d, script) in clones.iter_mut().zip(&scripts) {
                wrote.push(apply_writes(d, script));
            }
            for (c, d) in clones.iter().enumerate() {
                let arrivals = d.num_nodes() - 60;
                prop_assert_eq!(d.owned_rows(), arrivals + wrote[c].len(), "clone {}", c);
                let labels = vec![0; d.num_nodes()];
                let rebuilt = DynamicGraph::from_graph(&d.snapshot_graph(labels, 3));
                prop_assert_eq!(rebuilt.num_edges(), d.num_edges());
                for v in 0..d.num_nodes() as u32 {
                    let row = d.neighbors(v);
                    prop_assert_eq!(d.degree(v), row.len(), "clone {} degree {}", c, v);
                    prop_assert_eq!(row, rebuilt.neighbors(v), "clone {} row {}", c, v);
                    prop_assert!(row.windows(2).all(|w| w[0] < w[1]), "row {} sorted", v);
                    for &u in row {
                        prop_assert!(u != v && d.has_edge(u, v), "symmetric {}-{}", u, v);
                    }
                }
            }
            // Each clone's seed rows that it never wrote are still the
            // seed's; the seed graph itself is untouched.
            for (c, d) in clones.iter().enumerate() {
                for v in (0..60u32).filter(|v| !wrote[c].contains(v)) {
                    prop_assert_eq!(d.neighbors(v), seed_rows[v as usize].as_slice());
                }
            }
            prop_assert_eq!((base.num_nodes(), base.num_edges(), base.owned_rows()),
                (60, g.num_edges(), 0));
            for v in 0..60u32 {
                prop_assert_eq!(base.neighbors(v), seed_rows[v as usize].as_slice());
            }
        }
    }
}
