//! Sequence-versioned prediction cache with k-hop invalidation.
//!
//! The serving layer answers every read by running propagation on an
//! engine replica — even when the same (often hub) node was predicted
//! moments ago on an unchanged graph. This module remembers
//! `(prediction, depth)` per node, stamped with the mutation sequence
//! number it was computed under, and serves repeat reads without
//! touching a replica. Correctness hinges on two rules:
//!
//! * **Version guard** — an entry is inserted only if the sequence
//!   point it was computed at is *still* the cache's current sequence
//!   point ([`PredictionCache::insert`] drops late results computed
//!   before a newer mutation was sequenced), and the sequencer advances
//!   the cache's sequence point (after invalidating) the moment it
//!   sequences a mutation — before any worker could have applied it.
//! * **Mutation invalidation** — under fixed-depth propagation a
//!   mutation can only change predictions within `t_max` hops of the
//!   touched nodes, so the sequencer walks that frontier
//!   ([`nai_stream::DynamicGraph::k_hop_frontier`]) and evicts every
//!   cached node within its own depth bound of the mutation
//!   ([`PredictionCache::invalidate_frontier`]). When the walk blows
//!   its budget — or the NAP mode consults state beyond the frontier
//!   (the stationary row of the node's component, which a mutation
//!   anywhere in that component changes; NAP_u's global `2m + n`),
//!   where no local frontier is sound — the whole cache is flushed
//!   ([`PredictionCache::flush_all`]). Those modes keep no graph mirror
//!   to walk, so they flush on every mutation, duplicate edges included.
//!
//! Hits are therefore bit-identical to a cache-bypass run at the same
//! sequence point: a surviving entry's inputs (its ≤`depth`-hop
//! neighborhood under fixed mode; the entire graph otherwise) are
//! untouched since it was computed.
//!
//! Capacity is bounded: beyond `cap` entries the least-recently-used
//! entry is evicted (an `O(cap)` scan — caches here are small and
//! misses already pay a full propagation).

use crate::proto::NodeResult;
use crate::sync::{lock_recover, Mutex};
use std::collections::HashMap;

/// Monotonic counters exported through `/metrics`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheCounters {
    /// Reads answered entirely from the cache (request granularity: a
    /// multi-node read hits only if *every* node is cached).
    pub hits: u64,
    /// Reads that consulted the cache and fell through to an engine.
    pub misses: u64,
    /// Entries dropped under capacity pressure (LRU).
    pub evicted: u64,
    /// Entries dropped by mutation invalidation (frontier walks and
    /// full flushes combined).
    pub invalidated: u64,
    /// Conservative full flushes (budget-exceeded walks, and every
    /// mutation under a globally-dependent NAP mode).
    pub flushes: u64,
}

struct Entry {
    /// Sequence point the prediction was computed at.
    seq: u64,
    prediction: usize,
    /// NAP exit depth — also this entry's invalidation radius: a
    /// mutation within `depth` hops could have changed it.
    depth: usize,
    /// LRU clock value of the last touch.
    tick: u64,
}

/// Bounded node → `(applied_seq, prediction, depth)` map. See the
/// module docs for the invalidation contract.
pub struct PredictionCache {
    map: HashMap<u32, Entry>,
    cap: usize,
    tick: u64,
    /// Sequence number of the latest sequenced mutation (0 = seed
    /// state). Entries are only inserted at this sequence point, and
    /// hits report it as their `applied_seq`.
    seq: u64,
    counters: CacheCounters,
}

impl PredictionCache {
    /// An empty cache holding at most `cap` entries.
    ///
    /// # Panics
    /// Panics if `cap` is zero (validated upstream by
    /// `ServeConfig::validate`).
    pub fn new(cap: usize) -> Self {
        assert!(cap > 0, "cache cap must be ≥ 1");
        Self {
            map: HashMap::new(),
            cap,
            tick: 0,
            seq: 0,
            counters: CacheCounters::default(),
        }
    }

    /// The sequence point cached entries are valid at.
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Current entry count.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Counter snapshot.
    pub fn counters(&self) -> CacheCounters {
        self.counters
    }

    /// Moves the cache's sequence point forward after a mutation has
    /// been sequenced (and its invalidation applied). Surviving entries
    /// remain valid at the new point by the invalidation argument.
    pub fn advance_seq(&mut self, seq: u64) {
        debug_assert!(seq >= self.seq, "sequence points are monotonic");
        self.seq = seq;
    }

    /// All-or-nothing read: `Some((applied_seq, results))` when *every*
    /// requested node is cached (counted as one hit; entries are
    /// LRU-touched), `None` otherwise (not counted — call
    /// [`Self::note_miss`] once the read is actually dispatched, so
    /// `hits + misses` equals the reads that went down the cached
    /// path).
    pub fn lookup(&mut self, nodes: &[u32]) -> Option<(u64, Vec<NodeResult>)> {
        if nodes.is_empty() || !nodes.iter().all(|n| self.map.contains_key(n)) {
            return None;
        }
        self.counters.hits += 1;
        let results = nodes
            .iter()
            .map(|&node| {
                self.tick += 1;
                // nai-lint: allow(hot-path-panic) -- the all-hit check above
                // proved every node present, and `&mut self` bars eviction between.
                let e = self.map.get_mut(&node).expect("presence checked above");
                // An entry is inserted at the then-current sequence
                // point and only *survives* advances (invalidation runs
                // before each advance), so it is valid at `self.seq`.
                debug_assert!(e.seq <= self.seq);
                e.tick = self.tick;
                NodeResult {
                    node,
                    prediction: e.prediction,
                    depth: e.depth,
                }
            })
            .collect();
        Some((self.seq, results))
    }

    /// Records a read that consulted the cache and was dispatched to an
    /// engine instead.
    pub fn note_miss(&mut self) {
        self.counters.misses += 1;
    }

    /// Inserts a freshly computed prediction — only if it was computed
    /// at the cache's *current* sequence point. A result computed at
    /// `seq` is stale the moment a newer mutation is sequenced (the
    /// sequencer invalidates and advances before any worker can apply
    /// it), so late inserts are dropped rather than raced in.
    pub fn insert(&mut self, node: u32, seq: u64, prediction: usize, depth: usize) {
        if seq != self.seq {
            debug_assert!(seq < self.seq, "insert from the future");
            return;
        }
        self.tick += 1;
        let tick = self.tick;
        if let Some(e) = self.map.get_mut(&node) {
            *e = Entry {
                seq,
                prediction,
                depth,
                tick,
            };
            return;
        }
        if self.map.len() >= self.cap {
            // LRU by scan: caches are small (cap ≈ thousands) and this
            // runs only on an insert past capacity.
            let oldest = self
                .map
                .iter()
                .min_by_key(|(_, e)| e.tick)
                .map(|(&n, _)| n)
                // nai-lint: allow(hot-path-panic) -- this branch runs only
                // when len ≥ cap, and cap ≥ 1, so the map is non-empty.
                .expect("non-empty at cap");
            self.map.remove(&oldest);
            self.counters.evicted += 1;
        }
        self.map.insert(
            node,
            Entry {
                seq,
                prediction,
                depth,
                tick,
            },
        );
    }

    /// Applies a mutation's dirty frontier: every cached node whose own
    /// depth bound reaches the mutation (`hop distance ≤ entry.depth`)
    /// is evicted. Under fixed-depth mode every entry's depth equals
    /// `t_max`, so this evicts the frontier ∩ cache; the per-entry
    /// bound keeps the rule exact if shallower entries ever coexist.
    pub fn invalidate_frontier(&mut self, frontier: &[(u32, usize)]) {
        for &(node, dist) in frontier {
            if let Some(e) = self.map.get(&node) {
                if dist <= e.depth {
                    self.map.remove(&node);
                    self.counters.invalidated += 1;
                }
            }
        }
    }

    /// Conservative fallback: drop everything (budget-exceeded walks,
    /// and every mutation under globally-dependent NAP modes).
    pub fn flush_all(&mut self) {
        self.counters.invalidated += self.map.len() as u64;
        self.counters.flushes += 1;
        self.map.clear();
    }
}

/// What a sequenced mutation evicts before its sequence point advances
/// (computed by the sequencer's mirror walk, applied by
/// [`VersionedCache::sequence_mutation`]).
pub enum Invalidation {
    /// Under fixed-depth mode, the graph did not change (duplicate
    /// edge) or the mutation touched no existing adjacency (isolated
    /// arrival): every entry survives.
    Untouched,
    /// Evict the mutation's dirty frontier (`(node, hop distance)`
    /// pairs from the k-hop walk).
    Frontier(Vec<(u32, usize)>),
    /// Conservative full flush (walk over budget, or a globally
    /// dependent NAP mode).
    Flush,
}

/// A [`PredictionCache`] behind a mutex, exposing exactly the compound
/// operations whose atomicity the serving invariants need:
///
/// * [`Self::sequence_mutation`] applies a mutation's invalidation
///   *and* advances the sequence point under one lock acquisition —
///   a worker insert can land before or after, never in between, so
///   the per-entry version guard is airtight (`tests/model.rs` checks
///   this exhaustively under `--cfg nai_model`).
/// * [`Self::insert_batch`] stamps a whole batch's results at the
///   sequence point they were computed at in one acquisition.
///
/// Every method recovers from poison: cache state is a plain map +
/// counters that no panic can leave half-linked, and a dead worker
/// must not take the submit fast path or `/metrics` down.
pub struct VersionedCache {
    inner: Mutex<PredictionCache>,
}

impl VersionedCache {
    /// An empty cache holding at most `cap` entries.
    ///
    /// # Panics
    /// Panics if `cap` is zero (validated upstream by
    /// `ServeConfig::validate`).
    pub fn new(cap: usize) -> Self {
        Self {
            inner: Mutex::new(PredictionCache::new(cap)),
        }
    }

    /// All-or-nothing read (see [`PredictionCache::lookup`]).
    pub fn lookup(&self, nodes: &[u32]) -> Option<(u64, Vec<NodeResult>)> {
        lock_recover(&self.inner).lookup(nodes)
    }

    /// Records a read that consulted the cache and was dispatched to
    /// an engine instead.
    pub fn note_miss(&self) {
        lock_recover(&self.inner).note_miss();
    }

    /// Atomically applies a sequenced mutation: eviction and the
    /// sequence-point advance happen under the same lock, so a
    /// concurrent [`Self::insert_batch`] either runs entirely before
    /// (its entries are then subject to this eviction) or entirely
    /// after (its stale-seq entries are dropped by the version guard).
    pub fn sequence_mutation(&self, seq: u64, inv: Invalidation) {
        let mut c = lock_recover(&self.inner);
        match inv {
            Invalidation::Untouched => {}
            Invalidation::Frontier(frontier) => c.invalidate_frontier(&frontier),
            Invalidation::Flush => c.flush_all(),
        }
        c.advance_seq(seq);
    }

    /// Inserts a batch of `(node, prediction, depth)` results computed
    /// at sequence point `seq`, under one lock acquisition. Results
    /// outdated by a mutation sequenced since they were computed are
    /// dropped by the per-entry version guard.
    pub fn insert_batch(&self, seq: u64, entries: impl IntoIterator<Item = (u32, usize, usize)>) {
        let mut c = lock_recover(&self.inner);
        for (node, prediction, depth) in entries {
            c.insert(node, seq, prediction, depth);
        }
    }

    /// Counter snapshot (poison-recovering: `/metrics` keeps working
    /// after a worker dies mid-insert).
    pub fn counters(&self) -> CacheCounters {
        lock_recover(&self.inner).counters()
    }

    /// The sequence point cached entries are valid at.
    pub fn seq(&self) -> u64 {
        lock_recover(&self.inner).seq()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nai_stream::DynamicGraph;

    /// A path 0 − 1 − … − (n−1): exact hop distances for the walk.
    fn path_graph(n: usize) -> DynamicGraph {
        let mut d = DynamicGraph::new(2);
        d.add_node(&[0.0; 2], &[]);
        for v in 1..n as u32 {
            d.add_node(&[0.0; 2], &[v - 1]);
        }
        d
    }

    fn hit_nodes(c: &mut PredictionCache, nodes: &[u32]) -> bool {
        c.lookup(nodes).is_some()
    }

    #[test]
    fn edge_mutation_within_k_hops_evicts_beyond_does_not() {
        const K: usize = 2;
        let mut g = path_graph(10);
        let mut c = PredictionCache::new(64);
        c.insert(0, 0, 7, K);
        assert!(hit_nodes(&mut c, &[0]));

        // Edge (3, 5) arrives: node 3 is K+1 = 3 hops from node 0 —
        // outside its depth bound, so the entry survives.
        assert!(g.add_edge(3, 5));
        let frontier = g.k_hop_frontier(&[3, 5], K, 1024).unwrap();
        c.invalidate_frontier(&frontier);
        c.advance_seq(1);
        assert!(hit_nodes(&mut c, &[0]), "mutation at distance K+1 kept");
        assert_eq!(c.counters().invalidated, 0);

        // Edge (2, 7) arrives: node 2 is exactly K hops from node 0 —
        // inside the bound, so the entry is evicted.
        assert!(g.add_edge(2, 7));
        let frontier = g.k_hop_frontier(&[2, 7], K, 1024).unwrap();
        c.invalidate_frontier(&frontier);
        c.advance_seq(2);
        assert!(!hit_nodes(&mut c, &[0]), "mutation at distance K evicts");
        assert_eq!(c.counters().invalidated, 1);
    }

    #[test]
    fn shallower_entries_use_their_own_depth_bound() {
        const K: usize = 2;
        let g = path_graph(10);
        let mut c = PredictionCache::new(64);
        c.insert(0, 0, 1, 1); // depth-1 entry: radius 1, not K
        let frontier = g.k_hop_frontier(&[2], K, 1024).unwrap();
        assert!(frontier.iter().any(|&(n, d)| n == 0 && d == 2));
        c.invalidate_frontier(&frontier);
        assert!(
            hit_nodes(&mut c, &[0]),
            "distance 2 cannot reach a depth-1 entry"
        );
        let frontier = g.k_hop_frontier(&[1], K, 1024).unwrap();
        c.invalidate_frontier(&frontier);
        assert!(!hit_nodes(&mut c, &[0]), "distance 1 reaches it");
    }

    #[test]
    fn over_budget_frontier_forces_full_flush() {
        // A hub mutation's 1-hop ball exceeds the budget → the caller
        // gets None and must flush everything, including entries far
        // from the mutation.
        let mut g = DynamicGraph::new(2);
        g.add_node(&[0.0; 2], &[]);
        for _ in 0..40 {
            g.add_node(&[0.0; 2], &[0]);
        }
        let far = g.add_node(&[0.0; 2], &[1]); // leaf-of-leaf
        let mut c = PredictionCache::new(64);
        c.insert(far, 0, 3, 1);
        let walk = g.k_hop_frontier(&[0, 2], 2, 16);
        assert!(walk.is_none(), "hub frontier must exceed the budget");
        c.flush_all();
        c.advance_seq(1);
        assert!(c.is_empty());
        assert!(!hit_nodes(&mut c, &[far]));
        let counters = c.counters();
        assert_eq!(counters.flushes, 1);
        assert_eq!(counters.invalidated, 1);
    }

    #[test]
    fn lru_eviction_under_cap_pressure_never_serves_the_evicted_entry() {
        let mut c = PredictionCache::new(2);
        c.insert(10, 0, 1, 2);
        c.insert(20, 0, 2, 2);
        // Touch 10 so 20 is the LRU entry.
        assert!(hit_nodes(&mut c, &[10]));
        c.insert(30, 0, 3, 2);
        assert_eq!(c.len(), 2);
        assert_eq!(c.counters().evicted, 1);
        assert!(!hit_nodes(&mut c, &[20]), "evicted entry gone");
        let (seq, results) = c.lookup(&[10, 30]).unwrap();
        assert_eq!(seq, 0);
        assert_eq!(
            results
                .iter()
                .map(|r| (r.node, r.prediction, r.depth))
                .collect::<Vec<_>>(),
            vec![(10, 1, 2), (30, 3, 2)]
        );
        // Re-inserting a present node is an overwrite, not an eviction.
        c.insert(30, 0, 9, 1);
        assert_eq!(c.counters().evicted, 1);
        assert_eq!(c.lookup(&[30]).unwrap().1[0].prediction, 9);
    }

    #[test]
    fn stale_inserts_are_dropped_by_the_version_guard() {
        let mut c = PredictionCache::new(8);
        c.advance_seq(3);
        // A worker's result computed at seq 2 arrives after mutation 3
        // was sequenced: it must not be cached.
        c.insert(5, 2, 1, 2);
        assert!(!hit_nodes(&mut c, &[5]));
        c.insert(5, 3, 1, 2);
        let (seq, _) = c.lookup(&[5]).unwrap();
        assert_eq!(seq, 3, "hits report the current sequence point");
    }

    /// Satellite-2 regression: a panic while the cache lock is held
    /// (e.g. a worker dying mid-insert) poisons it; every
    /// [`VersionedCache`] operation must keep working — the map and
    /// counters cannot be left half-linked by a panic, so recovery is
    /// sound, and `/metrics` plus the submit fast path must not die
    /// with the worker.
    #[test]
    fn versioned_cache_operations_survive_a_poisoned_lock() {
        let vc = VersionedCache::new(4);
        vc.insert_batch(0, [(1u32, 2usize, 1usize)]);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            // nai-lint: allow(lock-hygiene) -- this test poisons the lock on
            // purpose; lock_recover here would defeat the setup.
            let _g = vc.inner.lock().unwrap();
            panic!("die holding the cache lock");
        }));
        assert!(r.is_err());
        assert!(vc.inner.is_poisoned());
        assert_eq!(vc.lookup(&[1]).unwrap().0, 0, "hit after poison");
        vc.note_miss();
        vc.sequence_mutation(1, Invalidation::Flush);
        assert_eq!(vc.seq(), 1);
        assert!(vc.lookup(&[1]).is_none(), "flush applied after poison");
        let counters = vc.counters();
        assert_eq!((counters.flushes, counters.misses), (1, 1));
    }

    #[test]
    fn multi_node_reads_hit_all_or_nothing() {
        let mut c = PredictionCache::new(8);
        c.insert(1, 0, 1, 2);
        assert!(c.lookup(&[1, 2]).is_none(), "partial coverage is a miss");
        c.note_miss();
        c.insert(2, 0, 2, 2);
        assert!(c.lookup(&[1, 2]).is_some());
        assert!(c.lookup(&[]).is_none(), "empty reads never hit");
        let counters = c.counters();
        assert_eq!((counters.hits, counters.misses), (1, 1));
    }
}
