//! Active-set bookkeeping for Algorithm 1's hot loop.
//!
//! The paper charges Algorithm 1 only for propagation, NAP decisions, and
//! classification — every other per-depth cost is overhead the read
//! kernel ([`crate::kernel::ReadKernel`]) must keep sublinear. This
//! module owns that bookkeeping:
//!
//! * [`ActiveSet`] — which batch rows are still propagating. Every active
//!   node carries exactly one row-index indirection: its **original batch
//!   row**. Feature history is stored full-batch-width per depth and
//!   indexed by that row, so an exit round compacts two index vectors
//!   instead of gathering `O(k · |active| · f)` feature copies.
//! * [`FrontierPlan`] — the supporting hop sets plus a stamped
//!   global→local column map for the gather. The map gives `O(1)` array
//!   lookups instead of a per-depth `HashMap`; entries are unmapped when
//!   the support advances, so the array is reusable across batches
//!   without an `O(n)` reset.
//! * [`EngineScratch`] — one reusable workspace holding both of the
//!   above plus the BFS scratch, feature ping-pong buffers, and the
//!   per-depth history pool. After the first batch warms it up, a batch
//!   performs no `O(n)` work and no per-depth allocations. `NaiEngine`
//!   pools them across calls; `StreamingEngine` owns one.
//!
//! The frontier-shrink invariant the kernel relies on — `N(sets[l+1]) ⊆
//! sets[l]`, preserved by `BfsScratch::shrink_hop_sets` — is documented
//! in `nai-graph::frontier` and property-tested there.

use nai_graph::frontier::BfsScratch;
use nai_linalg::DenseMatrix;

/// The still-propagating subset of one inference batch.
///
/// Rows are kept in original batch order; [`Self::apply_exits`] compacts
/// in place, so active index `a` always maps to global node
/// `self.nodes()[a]` and original batch row `self.origs()[a]`.
#[derive(Debug, Default)]
pub struct ActiveSet {
    node: Vec<u32>,
    orig: Vec<usize>,
    exited: Vec<usize>,
}

impl ActiveSet {
    /// Starts a new batch: every node is active, in batch order.
    pub fn reset(&mut self, batch: &[u32]) {
        self.node.clear();
        self.node.extend_from_slice(batch);
        self.orig.clear();
        self.orig.extend(0..batch.len());
        self.exited.clear();
    }

    /// Number of still-active nodes.
    pub fn len(&self) -> usize {
        self.node.len()
    }

    /// True when every node has exited.
    pub fn is_empty(&self) -> bool {
        self.node.is_empty()
    }

    /// Global node ids of the active nodes.
    pub fn nodes(&self) -> &[u32] {
        &self.node
    }

    /// Original batch row per active node — the single indirection that
    /// indexes the full-width history, stationary rows, and assigned
    /// depths.
    pub fn origs(&self) -> &[usize] {
        &self.orig
    }

    /// Removes every node with `mask[a] == true` and returns the exiting
    /// nodes' original batch rows, in active order.
    ///
    /// # Panics
    /// Panics if `mask.len()` differs from [`Self::len`].
    pub fn apply_exits(&mut self, mask: &[bool]) -> &[usize] {
        assert_eq!(mask.len(), self.node.len(), "mask must cover the actives");
        self.exited.clear();
        let mut w = 0usize;
        for (r, &exit) in mask.iter().enumerate() {
            if exit {
                self.exited.push(self.orig[r]);
            } else {
                self.node[w] = self.node[r];
                self.orig[w] = self.orig[r];
                w += 1;
            }
        }
        self.node.truncate(w);
        self.orig.truncate(w);
        &self.exited
    }

    /// Original batch rows returned by the most recent
    /// [`Self::apply_exits`].
    pub fn exited(&self) -> &[usize] {
        &self.exited
    }
}

/// Supporting hop sets plus the stamped column map of the current
/// support frontier.
///
/// Invariant between batches (and between depths, outside
/// [`Self::advance`]): `col_map[g] == u32::MAX` for every `g` not in the
/// current support, so no `O(n)` clear is ever needed.
#[derive(Debug, Default)]
pub struct FrontierPlan {
    /// Supporting hop sets (see `BfsScratch::hop_sets`). The read kernel
    /// reads layer 0 in place, so its `sets[l − 1]` supports depth `l`;
    /// it takes levels out as it advances and shrinks the suffix on
    /// exits.
    pub sets: Vec<Vec<u32>>,
    col_map: Vec<u32>,
    support: Vec<u32>,
}

impl FrontierPlan {
    /// Prepares the plan for a graph with `n` nodes (grow-only).
    pub fn reset(&mut self, n: usize) {
        if self.col_map.len() < n {
            self.col_map.resize(n, u32::MAX);
        }
        debug_assert!(self.support.is_empty(), "finish() the previous batch");
    }

    /// Installs `sets[0]` (the widest frontier) as the initial support
    /// and maps it into the column map.
    pub fn init_support(&mut self) {
        let first = std::mem::take(&mut self.sets[0]);
        self.set_support(first);
    }

    /// Advances to a new support frontier: unmaps the old one, maps the
    /// new one, and makes it current.
    pub fn advance(&mut self, new_support: Vec<u32>) {
        for &g in &self.support {
            self.col_map[g as usize] = u32::MAX;
        }
        self.set_support(new_support);
    }

    fn set_support(&mut self, support: Vec<u32>) {
        self.support = support;
        for (t, &g) in self.support.iter().enumerate() {
            self.col_map[g as usize] = t as u32;
        }
    }

    /// The current support frontier (rows of the current feature
    /// buffer).
    pub fn support(&self) -> &[u32] {
        &self.support
    }

    /// Local row of global node `g` in the current support, or
    /// `u32::MAX` when absent.
    pub fn local(&self, g: u32) -> u32 {
        self.col_map[g as usize]
    }

    /// The stamped global→local map, as consumed by
    /// `CsrMatrix::spmm_gather_into`.
    pub fn col_map(&self) -> &[u32] {
        &self.col_map
    }

    /// Ends the batch: unmaps and drops the current support, restoring
    /// the all-`MAX` invariant.
    pub fn finish(&mut self) {
        for &g in &self.support {
            self.col_map[g as usize] = u32::MAX;
        }
        self.support.clear();
    }
}

/// Reusable workspace for the read kernel: BFS scratch,
/// frontier plan, active set, stationary rows, per-depth history pool,
/// and the propagation ping-pong buffers.
///
/// One instance serves arbitrarily many batches; `begin_batch` only
/// grows buffers, never shrinks them.
#[derive(Debug, Default)]
pub struct EngineScratch {
    /// BFS workspace (stamped; `O(visited)` per traversal).
    pub bfs: BfsScratch,
    /// Hop sets + column map.
    pub plan: FrontierPlan,
    /// Active-row bookkeeping.
    pub active: ActiveSet,
    /// `history[l]` holds `X^(l)` rows at **original batch positions**;
    /// rows of nodes that exited before depth `l` are stale and never
    /// read.
    pub history: Vec<DenseMatrix>,
    /// Stationary rows `X^(∞)` aligned with the batch.
    pub x_inf: DenseMatrix,
    /// Support features at the previous depth.
    pub h_prev: DenseMatrix,
    /// Support features at the current depth.
    pub h_next: DenseMatrix,
    /// Local row in `h_next` per active node (rebuilt each depth).
    pub active_rows: Vec<usize>,
    /// Exit decisions per active node (rebuilt each depth).
    pub exit_mask: Vec<bool>,
}

impl EngineScratch {
    /// Fresh, empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sizes the workspace for one batch: `n` graph nodes, the batch
    /// itself, `t_max` propagation depths, feature dimension `f`.
    pub fn begin_batch(&mut self, n: usize, batch: &[u32], t_max: usize, f: usize) {
        self.bfs.ensure_capacity(n);
        self.plan.reset(n);
        self.active.reset(batch);
        if self.history.len() < t_max + 1 {
            self.history
                .resize_with(t_max + 1, || DenseMatrix::zeros(0, 0));
        }
        for level in self.history.iter_mut().take(t_max + 1) {
            // No memset: level `l` rows are only ever read for nodes that
            // were still active at depth `l`, and those rows are written
            // before any read (level 0 is written for the whole batch).
            level.reset_for_overwrite(batch.len(), f);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn active_set_tracks_orig_rows_across_exit_rounds() {
        let mut a = ActiveSet::default();
        a.reset(&[10, 20, 30, 40, 50]);
        assert_eq!(a.len(), 5);
        assert_eq!(a.nodes(), &[10, 20, 30, 40, 50]);
        assert_eq!(a.origs(), &[0, 1, 2, 3, 4]);

        // Round 1: rows 1 and 3 exit.
        let exited = a.apply_exits(&[false, true, false, true, false]);
        assert_eq!(exited, &[1, 3]);
        assert_eq!(a.nodes(), &[10, 30, 50]);
        assert_eq!(a.origs(), &[0, 2, 4]);

        // Round 2: the middle survivor exits — orig rows stay stable.
        let exited = a.apply_exits(&[false, true, false]);
        assert_eq!(exited, &[2]);
        assert_eq!(a.nodes(), &[10, 50]);
        assert_eq!(a.origs(), &[0, 4]);

        // Round 3: everyone exits.
        let exited = a.apply_exits(&[true, true]);
        assert_eq!(exited, &[0, 4]);
        assert!(a.is_empty());
    }

    #[test]
    fn active_set_reset_clears_previous_batch() {
        let mut a = ActiveSet::default();
        a.reset(&[1, 2, 3]);
        a.apply_exits(&[true, false, true]);
        a.reset(&[7, 8]);
        assert_eq!(a.nodes(), &[7, 8]);
        assert_eq!(a.origs(), &[0, 1]);
        assert!(a.exited().is_empty());
    }

    #[test]
    #[should_panic(expected = "mask must cover")]
    fn apply_exits_rejects_misaligned_mask() {
        let mut a = ActiveSet::default();
        a.reset(&[1, 2, 3]);
        a.apply_exits(&[true]);
    }

    #[test]
    fn frontier_plan_maps_and_unmaps_supports() {
        let mut plan = FrontierPlan::default();
        plan.reset(10);
        plan.sets = vec![vec![0, 1, 2, 3], vec![1, 2], vec![2]];
        plan.init_support();
        assert_eq!(plan.support(), &[0, 1, 2, 3]);
        assert_eq!(plan.local(3), 3);
        assert_eq!(plan.local(7), u32::MAX);

        plan.advance(vec![1, 2]);
        assert_eq!(plan.local(0), u32::MAX); // unmapped
        assert_eq!(plan.local(1), 0);
        assert_eq!(plan.local(2), 1);

        plan.finish();
        for g in 0..10u32 {
            assert_eq!(plan.local(g), u32::MAX, "node {g} still mapped");
        }
    }

    #[test]
    fn engine_scratch_reuses_history_pool() {
        let mut s = EngineScratch::new();
        s.begin_batch(100, &[5, 6, 7], 3, 4);
        assert_eq!(s.history.len(), 4);
        for level in &s.history {
            assert_eq!(level.shape(), (3, 4));
        }
        // A second, smaller batch reuses the pool without shrinking it.
        s.begin_batch(100, &[9], 2, 4);
        assert!(s.history.len() >= 3);
        assert_eq!(s.history[0].shape(), (1, 4));
        assert_eq!(s.active.nodes(), &[9]);
    }
}
