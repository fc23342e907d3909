//! Supporting-node discovery for batched inductive inference.
//!
//! To compute depth-`l` features of a test batch online (Fig. 1 (d)), the
//! engine needs the batch's `r`-hop neighborhoods ("supporting nodes"). The
//! number of supporting nodes grows roughly exponentially with `r` — the
//! *neighbor explosion* the paper's introduction describes — so shrinking
//! `r` per node is exactly where NAI's speedup comes from.
//!
//! [`BfsScratch`] keeps stamp and distance arrays so repeated BFS calls
//! cost `O(visited)`, never `O(n)` re-initialisation. When nodes exit
//! early, the engine does **not** rediscover frontiers from scratch:
//! [`BfsScratch::shrink_hop_sets`] filters the existing hop sets down to
//! the survivors' neighborhoods in place — membership-equal to a fresh
//! BFS from the survivors (survivors are a subset of the nodes the sets
//! were built for, so a node within `r` hops of the survivors is also
//! within `r` hops of the original seeds), but `O(visited)` with zero
//! allocation. The `*_by` variants take a neighbor closure instead of a
//! [`CsrMatrix`], so graph representations that are not CSR (e.g. the
//! streaming engine's adjacency lists) share the same scratch and
//! algorithms.

use crate::csr::CsrMatrix;

/// Reusable BFS workspace. One instance per engine; never shrinks.
#[derive(Debug, Default)]
pub struct BfsScratch {
    stamp: Vec<u64>,
    dist: Vec<u32>,
    /// `(node, distance)` discovery order of the most recent traversal.
    order: Vec<(u32, u32)>,
    current: u64,
}

impl BfsScratch {
    /// Workspace for graphs with `n` nodes.
    pub fn new(n: usize) -> Self {
        Self {
            stamp: vec![0; n],
            dist: vec![0; n],
            order: Vec::new(),
            current: 0,
        }
    }

    /// Grows the workspace to cover `n` nodes (no-op when already large
    /// enough). Lets one scratch follow a growing graph.
    pub fn ensure_capacity(&mut self, n: usize) {
        if self.stamp.len() < n {
            self.stamp.resize(n, 0);
            self.dist.resize(n, 0);
        }
    }

    /// All nodes within `hops` of `seeds` (including the seeds), in BFS
    /// discovery order. `hops == 0` returns the (deduplicated) seeds.
    pub fn nodes_within(&mut self, adj: &CsrMatrix, seeds: &[u32], hops: usize) -> Vec<u32> {
        self.current += 1;
        let stamp = self.current;
        let mut out: Vec<u32> = Vec::with_capacity(seeds.len());
        for &s in seeds {
            if self.stamp[s as usize] != stamp {
                self.stamp[s as usize] = stamp;
                out.push(s);
            }
        }
        let mut level_start = 0usize;
        for _ in 0..hops {
            let level_end = out.len();
            if level_start == level_end {
                break; // frontier exhausted early
            }
            for idx in level_start..level_end {
                let u = out[idx];
                for (v, _) in adj.row_iter(u as usize) {
                    if self.stamp[v as usize] != stamp {
                        self.stamp[v as usize] = stamp;
                        out.push(v);
                    }
                }
            }
            level_start = level_end;
        }
        out
    }

    /// One BFS from `seeds` up to `max_hops`, recording each visited
    /// node's distance in the stamped `dist` array and the discovery
    /// order in `self.order`.
    fn bfs_distances<I>(
        &mut self,
        mut neighbors: impl FnMut(u32) -> I,
        seeds: &[u32],
        max_hops: usize,
    ) where
        I: Iterator<Item = u32>,
    {
        self.current += 1;
        let stamp = self.current;
        self.order.clear();
        for &s in seeds {
            if self.stamp[s as usize] != stamp {
                self.stamp[s as usize] = stamp;
                self.dist[s as usize] = 0;
                self.order.push((s, 0));
            }
        }
        let mut qi = 0usize;
        while qi < self.order.len() {
            let (u, d) = self.order[qi];
            qi += 1;
            if d as usize >= max_hops {
                continue;
            }
            for v in neighbors(u) {
                if self.stamp[v as usize] != stamp {
                    self.stamp[v as usize] = stamp;
                    self.dist[v as usize] = d + 1;
                    self.order.push((v, d + 1));
                }
            }
        }
    }

    /// Hop sets for Algorithm 1: `sets[l]` contains all nodes within
    /// `max_depth − l` hops of `seeds`, for `l = 0..=max_depth`. So
    /// `sets[0]` is the widest supporting frontier and
    /// `sets[max_depth]` is the batch itself. Sets are nested:
    /// `sets[l+1] ⊆ sets[l]`, and `N(sets[l+1]) ⊆ sets[l]`.
    pub fn hop_sets(&mut self, adj: &CsrMatrix, seeds: &[u32], max_depth: usize) -> Vec<Vec<u32>> {
        let mut sets = Vec::new();
        self.hop_sets_into(adj, seeds, max_depth, &mut sets);
        sets
    }

    /// [`Self::hop_sets`] writing into caller-owned buffers, reusing
    /// their allocations across batches.
    pub fn hop_sets_into(
        &mut self,
        adj: &CsrMatrix,
        seeds: &[u32],
        max_depth: usize,
        sets: &mut Vec<Vec<u32>>,
    ) {
        self.hop_sets_by_into(
            |u| adj.row_indices(u as usize).iter().copied(),
            seeds,
            max_depth,
            sets,
        );
    }

    /// [`Self::hop_sets_into`] over an arbitrary neighbor function —
    /// `neighbors(u)` yields the adjacency of `u`. Callers must have
    /// sized the scratch (see [`Self::ensure_capacity`]) to cover every
    /// reachable node id.
    pub fn hop_sets_by_into<I>(
        &mut self,
        neighbors: impl FnMut(u32) -> I,
        seeds: &[u32],
        max_depth: usize,
        sets: &mut Vec<Vec<u32>>,
    ) where
        I: Iterator<Item = u32>,
    {
        self.bfs_distances(neighbors, seeds, max_depth);
        sets.resize_with(max_depth + 1, Vec::new);
        for set in sets.iter_mut() {
            set.clear();
        }
        for &(node, dist) in &self.order {
            // Node at distance d belongs to sets[l] whenever
            // max_depth − l >= d, i.e. l <= max_depth − d.
            for set in sets.iter_mut().take(max_depth - dist as usize + 1) {
                set.push(node);
            }
        }
    }

    /// Incremental frontier shrink after early exits: filters existing
    /// hop sets down to the `survivors`' neighborhoods **in place**.
    ///
    /// `sets[j]` must currently hold all nodes within `max_hops − j`
    /// hops of a node set that *includes* `survivors` (the still-active
    /// nodes are always a subset of the nodes the sets were built for).
    /// After the call, `sets[j]` holds exactly the nodes within
    /// `max_hops − j` hops of `survivors` — the same membership a fresh
    /// [`Self::hop_sets`] from the survivors would produce (property
    /// tested in `tests/proptests.rs`), in a cost of one `O(visited)`
    /// BFS plus one linear pass over the sets, with no allocation.
    ///
    /// # Panics
    /// Panics if `sets.len() > max_hops + 1`.
    pub fn shrink_hop_sets(
        &mut self,
        adj: &CsrMatrix,
        survivors: &[u32],
        sets: &mut [Vec<u32>],
        max_hops: usize,
    ) {
        self.shrink_hop_sets_by(
            |u| adj.row_indices(u as usize).iter().copied(),
            survivors,
            sets,
            max_hops,
        );
    }

    /// [`Self::shrink_hop_sets`] over an arbitrary neighbor function.
    ///
    /// # Panics
    /// Panics if `sets.len() > max_hops + 1`.
    pub fn shrink_hop_sets_by<I>(
        &mut self,
        neighbors: impl FnMut(u32) -> I,
        survivors: &[u32],
        sets: &mut [Vec<u32>],
        max_hops: usize,
    ) where
        I: Iterator<Item = u32>,
    {
        assert!(
            sets.len() <= max_hops + 1,
            "{} hop sets cannot span {max_hops} hops",
            sets.len()
        );
        self.bfs_distances(neighbors, survivors, max_hops);
        let stamp = self.current;
        for (j, set) in sets.iter_mut().enumerate() {
            let budget = (max_hops - j) as u32;
            set.retain(|&v| self.stamp[v as usize] == stamp && self.dist[v as usize] <= budget);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path5() -> CsrMatrix {
        CsrMatrix::undirected_adjacency(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]).unwrap()
    }

    #[test]
    fn zero_hops_returns_seeds_dedup() {
        let adj = path5();
        let mut bfs = BfsScratch::new(5);
        let got = bfs.nodes_within(&adj, &[2, 2, 4], 0);
        assert_eq!(got, vec![2, 4]);
    }

    #[test]
    fn hops_expand_along_path() {
        let adj = path5();
        let mut bfs = BfsScratch::new(5);
        let mut got = bfs.nodes_within(&adj, &[0], 2);
        got.sort_unstable();
        assert_eq!(got, vec![0, 1, 2]);
        let mut all = bfs.nodes_within(&adj, &[0], 10);
        all.sort_unstable();
        assert_eq!(all, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn scratch_is_reusable_across_calls() {
        let adj = path5();
        let mut bfs = BfsScratch::new(5);
        for _ in 0..10 {
            let got = bfs.nodes_within(&adj, &[2], 1);
            let mut sorted = got.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, vec![1, 2, 3]);
        }
    }

    #[test]
    fn default_scratch_grows_on_demand() {
        let adj = path5();
        let mut bfs = BfsScratch::default();
        bfs.ensure_capacity(5);
        let sets = bfs.hop_sets(&adj, &[0], 2);
        assert_eq!(sets.len(), 3);
        // Shrinking capacity requests are no-ops.
        bfs.ensure_capacity(2);
        let again = bfs.hop_sets(&adj, &[0], 2);
        assert_eq!(sets, again);
    }

    #[test]
    fn hop_sets_are_nested_and_correct() {
        let adj = path5();
        let mut bfs = BfsScratch::new(5);
        let sets = bfs.hop_sets(&adj, &[0], 3);
        assert_eq!(sets.len(), 4);
        let as_sorted = |v: &Vec<u32>| {
            let mut s = v.clone();
            s.sort_unstable();
            s
        };
        assert_eq!(as_sorted(&sets[3]), vec![0]); // batch itself
        assert_eq!(as_sorted(&sets[2]), vec![0, 1]);
        assert_eq!(as_sorted(&sets[1]), vec![0, 1, 2]);
        assert_eq!(as_sorted(&sets[0]), vec![0, 1, 2, 3]);
        // Nesting.
        for l in 0..3 {
            let outer: std::collections::HashSet<u32> = sets[l].iter().copied().collect();
            assert!(sets[l + 1].iter().all(|x| outer.contains(x)));
        }
    }

    #[test]
    fn hop_sets_match_nodes_within() {
        let adj =
            CsrMatrix::undirected_adjacency(7, &[(0, 1), (0, 2), (1, 3), (2, 4), (4, 5), (5, 6)])
                .unwrap();
        let mut bfs = BfsScratch::new(7);
        let sets = bfs.hop_sets(&adj, &[0, 6], 2);
        for (l, set) in sets.iter().enumerate() {
            let mut a = set.clone();
            a.sort_unstable();
            let mut b = bfs.nodes_within(&adj, &[0, 6], 2 - l);
            b.sort_unstable();
            assert_eq!(a, b, "hop set {l}");
        }
    }

    #[test]
    fn hop_sets_into_reuses_and_resizes_buffers() {
        let adj = path5();
        let mut bfs = BfsScratch::new(5);
        let mut sets = vec![vec![9u32; 8]; 7]; // stale, oversized
        bfs.hop_sets_into(&adj, &[0], 2, &mut sets);
        assert_eq!(sets.len(), 3);
        assert_eq!(sets, bfs.hop_sets(&adj, &[0], 2));
    }

    #[test]
    fn shrink_matches_recomputation_on_path() {
        let adj = path5();
        let mut bfs = BfsScratch::new(5);
        // Sets for batch {0, 4} at depth 3; drop node 4, keep survivor {0}.
        let mut sets = bfs.hop_sets(&adj, &[0, 4], 3);
        let survivors = [0u32];
        // Shrink the suffix sets[1..=3] (radii 2, 1, 0).
        bfs.shrink_hop_sets(&adj, &survivors, &mut sets[1..=3], 2);
        let fresh = bfs.hop_sets(&adj, &survivors, 2);
        for j in 0..=2 {
            let mut a = sets[1 + j].clone();
            a.sort_unstable();
            let mut b = fresh[j].clone();
            b.sort_unstable();
            assert_eq!(a, b, "level {j}");
        }
    }

    #[test]
    fn shrink_preserves_original_order() {
        let adj = path5();
        let mut bfs = BfsScratch::new(5);
        let mut sets = bfs.hop_sets(&adj, &[4, 0], 2);
        let before = sets[1].clone();
        bfs.shrink_hop_sets(&adj, &[4, 0], &mut sets[1..=2], 1);
        // Survivors unchanged → sets unchanged, order included.
        assert_eq!(sets[1], before);
    }

    #[test]
    #[should_panic(expected = "cannot span")]
    fn shrink_rejects_overlong_suffix() {
        let adj = path5();
        let mut bfs = BfsScratch::new(5);
        let mut sets = bfs.hop_sets(&adj, &[0], 3);
        bfs.shrink_hop_sets(&adj, &[0], &mut sets[..], 2);
    }

    #[test]
    fn disconnected_seed_stops_expanding() {
        let adj = CsrMatrix::undirected_adjacency(4, &[(0, 1)]).unwrap();
        let mut bfs = BfsScratch::new(4);
        let got = bfs.nodes_within(&adj, &[3], 5);
        assert_eq!(got, vec![3]);
    }
}
