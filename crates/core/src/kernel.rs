//! Algorithm 1, written once: the read kernel both engines run.
//!
//! The paper has one inference procedure — online propagation with a
//! per-node exit — whether the graph is frozen or growing. [`ReadKernel`]
//! is that procedure over one batch of seed nodes, generic over a
//! [`GraphView`] that says where neighbours, features and edge weights
//! come from. The static `NaiEngine` runs it over a frozen CSR view,
//! `nai-stream`'s `StreamingEngine` over its dynamic graph; nothing else
//! differs between the two.
//!
//! Per batch the kernel:
//!
//! 1. checks every seed id, then asks the caller for the stationary rows
//!    `X^(∞)` (line 2) and, under NAP_u, fixes every exit depth from
//!    Eq. (10) before propagation;
//! 2. BFS-collects the supporting hop sets (line 3). Depth 1 reads raw
//!    feature rows in place from the view, so BFS stops at `t_max − 1`
//!    hops and `sets[l − 1]` is the support of depth `l`; the widest
//!    (depth-0) support is never built or copied;
//! 3. propagates `H_l[i] = Σ_j Â_ij H_{l−1}[j]` for `i ∈ sets[l − 1]`
//!    (valid because `N(sets[l]) ⊆ sets[l − 1]`, a property tested in
//!    `nai-graph`);
//! 4. from `t_min` on applies the selected NAP module to the still-active
//!    seeds, classifies the exiting ones with `f^(l)` (lines 6–15), and
//!    **shrinks the remaining hop sets to the survivors' neighbourhoods**
//!    in place — where the nonlinear speedup of Table V comes from;
//! 5. classifies whatever remains at `t_max` (line 17).
//!
//! The bookkeeping lives in [`crate::active`]: one [`EngineScratch`]
//! amortizes every buffer across batches. The kernel charges MACs into a
//! [`MacsBreakdown`] and attributes its wall time to propagation, NAP and
//! classification in a [`StageTimes`], at the same sites.

use crate::active::EngineScratch;
use crate::config::{InferenceConfig, NapMode};
use crate::gates::GateSet;
use crate::macs::MacsBreakdown;
use crate::napd;
use crate::upper_bound;
use nai_linalg::ops::{argmax_rows, l2_distance};
use nai_linalg::DenseMatrix;
use std::time::{Duration, Instant};

/// What Algorithm 1 reads from the graph it serves.
///
/// Eq. (1)'s operator is `Â = D̃^(γ−1) (A + I) D̃^(−γ)`, so row `i` of `Â`
/// has `degree(i) + 1` terms: one per neighbour plus the self-loop. The
/// kernel charges `(degree(i) + 1) · f` MACs per gathered row.
pub trait GraphView: Sync {
    /// Number of nodes; every seed id must be below it.
    fn num_nodes(&self) -> usize;

    /// Feature dimension `f`.
    fn feature_dim(&self) -> usize;

    /// Neighbour count of `v` (raw adjacency, no self-loop).
    fn degree(&self, v: u32) -> usize;

    /// Neighbours of `v` (raw adjacency, no self-loop), for BFS.
    fn neighbors(&self, v: u32) -> &[u32];

    /// Raw feature row `X^(0)_v`, read in place.
    fn feature(&self, v: u32) -> &[f32];

    /// `2m + n` of the graph (the Eq. (10) normalizer).
    fn total_tilde_degree(&self) -> f64;

    /// Adds `Σ_j Â_ij · src_row(j)` over `j ∈ N(i) ∪ {i}` into `out`.
    ///
    /// Each view fixes its own summation order, and the order is part of
    /// its answer: float addition does not associate, so two views that
    /// sum the same terms in different orders can differ in the last bits.
    fn gather_row<'s>(&self, i: u32, src_row: impl Fn(u32) -> &'s [f32], out: &mut [f32]);
}

/// Wall time split by engine pipeline stage, attributed at the same
/// sites where [`MacsBreakdown`] is charged.
///
/// `nai-stream` accumulates it per engine and the serving layer
/// snapshots it before and after each coalesced engine call, taking
/// [`StageTimes::since`] to attribute the call's wall time to the batch
/// it processed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageTimes {
    /// Feature propagation: stationary rows, BFS support planning,
    /// per-hop SpMM steps, frontier shrinking.
    pub propagation: Duration,
    /// NAP exit decisions: distance checks, gate forwards, Eq. (10)
    /// bound evaluations.
    pub nap: Duration,
    /// Per-depth classifier forwards and exit gathers.
    pub classification: Duration,
}

impl StageTimes {
    /// Sum over all stages.
    pub fn total(&self) -> Duration {
        self.propagation + self.nap + self.classification
    }

    /// Accumulates another breakdown.
    pub fn merge(&mut self, other: &StageTimes) {
        self.propagation += other.propagation;
        self.nap += other.nap;
        self.classification += other.classification;
    }

    /// Stage-wise `self − earlier` (saturating): the time attributable
    /// to whatever ran between two snapshots of a cumulative counter.
    pub fn since(&self, earlier: &StageTimes) -> StageTimes {
        StageTimes {
            propagation: self.propagation.saturating_sub(earlier.propagation),
            nap: self.nap.saturating_sub(earlier.nap),
            classification: self.classification.saturating_sub(earlier.classification),
        }
    }
}

/// Contiguous-span stopwatch: each stage method attributes everything
/// since the previous boundary to that stage, so the spans partition the
/// kernel call's wall time up to the cost of the `Instant::now` reads
/// themselves (a handful per propagation depth).
struct StageClock {
    mark: Instant,
    acc: StageTimes,
}

impl StageClock {
    fn new() -> Self {
        StageClock {
            mark: Instant::now(),
            acc: StageTimes::default(),
        }
    }

    fn lap(&mut self) -> Duration {
        let now = Instant::now();
        let span = now.saturating_duration_since(self.mark);
        self.mark = now;
        span
    }

    fn propagation(&mut self) {
        let span = self.lap();
        self.acc.propagation += span;
    }

    fn nap(&mut self) {
        let span = self.lap();
        self.acc.nap += span;
    }

    fn classification(&mut self) {
        let span = self.lap();
        self.acc.classification += span;
    }
}

/// Per-depth classifier heads: `forward(l, feats)` produces the
/// exit-depth-`l` logits from the exiting rows' feature history
/// `X^(0..=l)`, and `macs_per_node(l)` its per-node MACs. Engines pass
/// their trained classifiers; `nai-baselines`' INT8 `QuantizedNai` passes
/// quantized ones through `NaiEngine::infer_with_heads`.
#[derive(Clone, Copy)]
pub struct Heads<'a> {
    /// Exit-depth-`l` logits from `X^(0..=l)` of the exiting rows.
    pub forward: &'a dyn Fn(usize, &[DenseMatrix]) -> DenseMatrix,
    /// Per-node MACs of `forward(l, ·)`.
    pub macs_per_node: &'a dyn Fn(usize) -> u64,
}

/// MACs and wall time spent by kernel calls, by stage.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Multiply-accumulates per stage.
    pub macs: MacsBreakdown,
    /// Wall time per stage.
    pub times: StageTimes,
}

/// Algorithm 1 under one validated [`InferenceConfig`].
///
/// Construction checks the config once; [`Self::run`] then serves any
/// number of batches over any [`GraphView`].
#[derive(Clone, Copy)]
pub struct ReadKernel<'a> {
    cfg: &'a InferenceConfig,
    gates: Option<&'a GateSet>,
    lambda2: f32,
}

impl<'a> ReadKernel<'a> {
    /// A kernel for classifiers trained to depth `k`, with optional NAP_g
    /// `gates` and the λ₂ estimate NAP_u reads (no other mode reads it).
    ///
    /// # Panics
    /// Panics if `cfg` fails validation against `k`, or gate NAP is
    /// requested without gates.
    pub fn new(
        cfg: &'a InferenceConfig,
        k: usize,
        gates: Option<&'a GateSet>,
        lambda2: f32,
    ) -> Self {
        // nai-lint: allow(hot-path-panic) -- deliberate precondition assert
        // (documented # Panics): a bad config must abort before inference.
        cfg.validate(k).expect("invalid inference config");
        if matches!(cfg.nap, NapMode::Gate) {
            assert!(
                gates.is_some(),
                "gate NAP requested but the engine has no trained gates"
            );
        }
        Self {
            cfg,
            gates,
            lambda2,
        }
    }

    /// The validated config.
    pub fn config(&self) -> &'a InferenceConfig {
        self.cfg
    }

    /// Runs Algorithm 1 for the seed batch `nodes` over `view`.
    ///
    /// `stationary(x_inf)` fills the batch's stationary rows (aligned with
    /// `nodes`) and returns the MACs to charge for them. `sink(row,
    /// prediction, depth)` receives each seed's answer as it exits, `row`
    /// being its index in `nodes`. MACs and stage times are added to
    /// `tally`.
    ///
    /// # Panics
    /// Panics if a seed id is out of range for `view` — before `scratch`
    /// is touched.
    #[allow(clippy::too_many_arguments)]
    pub fn run<V: GraphView>(
        &self,
        view: &V,
        nodes: &[u32],
        heads: Heads<'_>,
        scratch: &mut EngineScratch,
        stationary: impl FnOnce(&mut DenseMatrix) -> u64,
        tally: &mut Tally,
        mut sink: impl FnMut(usize, usize, usize),
    ) {
        let (cfg, n, f) = (self.cfg, view.num_nodes(), view.feature_dim());
        for &v in nodes {
            assert!((v as usize) < n, "node {v} out of range");
        }
        if nodes.is_empty() {
            return;
        }
        let mut clock = StageClock::new();
        let macs = &mut tally.macs;
        scratch.begin_batch(n, nodes, cfg.t_max, f);
        macs.stationary += stationary(&mut scratch.x_inf);
        clock.propagation();

        // NAP_u fixes every exit depth from Eq. (10) before propagation
        // (O(1) per node). Indexed by original batch row, like the
        // history.
        let assigned: Vec<usize> = match cfg.nap {
            NapMode::UpperBound { ts } => {
                macs.nap += nodes.len() as u64 * 4;
                upper_bound::assign_depths_by(
                    |v| view.degree(v),
                    nodes,
                    ts,
                    self.lambda2,
                    view.total_tilde_degree(),
                    cfg.t_min,
                    cfg.t_max,
                )
            }
            _ => Vec::new(),
        };
        clock.nap();

        scratch.bfs.hop_sets_by_into(
            |u| view.neighbors(u).iter().copied(),
            nodes,
            cfg.t_max - 1,
            &mut scratch.plan.sets,
        );
        for (r, &v) in nodes.iter().enumerate() {
            scratch.history[0]
                .row_mut(r)
                .copy_from_slice(view.feature(v));
        }

        for l in 1..=cfg.t_max {
            let support = std::mem::take(&mut scratch.plan.sets[l - 1]);
            // Each source is its own closure type, so each call site gets
            // a monomorphized gather loop.
            macs.propagation += if l == 1 {
                gather_step(
                    view,
                    &support,
                    |j| view.feature(j),
                    &mut scratch.h_next,
                    cfg.parallel_spmm,
                )
            } else {
                // The column map still describes the previous support
                // (the rows of h_prev); nesting guarantees every term's
                // source is mapped.
                let (col_map, prev) = (scratch.plan.col_map(), scratch.h_prev.as_slice());
                let prev_row = |j: u32| {
                    let local = col_map[j as usize];
                    debug_assert_ne!(local, u32::MAX, "support nesting violated");
                    let local = local as usize;
                    &prev[local * f..(local + 1) * f]
                };
                gather_step(
                    view,
                    &support,
                    prev_row,
                    &mut scratch.h_next,
                    cfg.parallel_spmm,
                )
            };
            scratch.plan.advance(support);

            // Locate the active rows in the new support (stamped O(1)
            // lookups) and extend the full-width history.
            scratch.active_rows.clear();
            for &g in scratch.active.nodes() {
                let local = scratch.plan.local(g);
                debug_assert_ne!(local, u32::MAX, "active ⊆ every hop set");
                scratch.active_rows.push(local as usize);
            }
            let hist_l = &mut scratch.history[l];
            for (a, &row) in scratch.active_rows.iter().enumerate() {
                hist_l
                    .row_mut(scratch.active.origs()[a])
                    .copy_from_slice(scratch.h_next.row(row));
            }
            clock.propagation();

            // Lines 6–15: early exits.
            let at_final = l == cfg.t_max;
            scratch.exit_mask.clear();
            scratch.exit_mask.resize(scratch.active.len(), at_final);
            if !at_final && l >= cfg.t_min {
                match cfg.nap {
                    NapMode::Fixed => {}
                    NapMode::Distance { ts } => {
                        for a in 0..scratch.active.len() {
                            let cur = scratch.h_next.row(scratch.active_rows[a]);
                            let stat = scratch.x_inf.row(scratch.active.origs()[a]);
                            scratch.exit_mask[a] = l2_distance(cur, stat) < ts;
                        }
                        macs.nap += scratch.active.len() as u64 * napd::macs_per_node(f);
                    }
                    NapMode::Gate => {
                        // nai-lint: allow(hot-path-panic) -- `new` asserts
                        // gates are present in Gate mode; unreachable here.
                        let gates = self.gates.expect("validated in ReadKernel::new");
                        if l < gates.k() {
                            let (h_next, x_inf) = (&scratch.h_next, &scratch.x_inf);
                            let rows = scratch
                                .active_rows
                                .iter()
                                .zip(scratch.active.origs())
                                .map(|(&r, &o)| (h_next.row(r), x_inf.row(o)));
                            gates.decide_rows(l, rows, &mut scratch.exit_mask);
                            macs.nap += scratch.active.len() as u64 * gates.macs_per_node();
                        }
                    }
                    NapMode::UpperBound { .. } => {
                        for a in 0..scratch.active.len() {
                            scratch.exit_mask[a] = assigned[scratch.active.origs()[a]] == l;
                        }
                    }
                }
            }
            clock.nap();

            if scratch.exit_mask.iter().any(|&e| e) {
                // Compact the index vectors; the history matrices stay
                // where they are (rows addressed by original batch row).
                let exited = scratch.active.apply_exits(&scratch.exit_mask);
                // Classify the exiting nodes with f^(l) (line 12/17),
                // gathering only their rows from the history.
                let exit_feats: Vec<DenseMatrix> = scratch.history[..=l]
                    .iter()
                    // nai-lint: allow(hot-path-panic) -- `exited` is a subset of
                    // the active set, which indexes these same history matrices.
                    .map(|m| m.gather_rows(exited).expect("exit rows"))
                    .collect();
                let logits = (heads.forward)(l, &exit_feats);
                macs.classification += exited.len() as u64 * (heads.macs_per_node)(l);
                for (&orig, pred) in exited.iter().zip(argmax_rows(&logits)) {
                    sink(orig, pred, l);
                }
                clock.classification();

                if scratch.active.is_empty() {
                    break; // whole batch classified
                }
                // Line 5 revisited: shrink the future supporting sets to
                // the survivors' neighbourhoods, in place.
                if l < cfg.t_max {
                    scratch.bfs.shrink_hop_sets_by(
                        |u| view.neighbors(u).iter().copied(),
                        scratch.active.nodes(),
                        &mut scratch.plan.sets[l..cfg.t_max],
                        cfg.t_max - l - 1,
                    );
                }
                clock.propagation();
            }

            std::mem::swap(&mut scratch.h_prev, &mut scratch.h_next);
        }
        // The forced exit at t_max always empties the batch, so every
        // path ends here with the column map restored.
        scratch.plan.finish();
        clock.propagation();
        tally.times.merge(&clock.acc);
    }
}

/// One propagation step `out[t] = Σ_j Â_ij · src_row(j)` for every `i =
/// support[t]`, each row summed by [`GraphView::gather_row`]; returns
/// its MACs.
///
/// When `parallel` is set, output rows are filled concurrently via
/// `nai_linalg::parallel` (honoring `InferenceConfig::parallel_spmm`).
/// Each row is an independent reduction, so results and the MAC count
/// are bit-identical with the serial path; small frontiers fall back to
/// the serial loop.
fn gather_step<'s, V: GraphView>(
    view: &V,
    support: &[u32],
    src_row: impl Fn(u32) -> &'s [f32] + Sync,
    out: &mut DenseMatrix,
    parallel: bool,
) -> u64 {
    let f = view.feature_dim();
    out.reset_zeroed(support.len(), f);
    // Every term is readable via `src_row` by the nesting invariant, so
    // the MAC count is exact without a pass over the features.
    let macs: u64 = support
        .iter()
        .map(|&i| (view.degree(i) as u64 + 1) * f as u64)
        .sum();
    let avg_cost = (macs as usize / support.len().max(1)).max(1);
    let threads = if parallel && f > 0 && !support.is_empty() {
        nai_linalg::parallel::thread_count(support.len() * avg_cost)
    } else {
        1
    };
    if threads <= 1 {
        for (t, &i) in support.iter().enumerate() {
            view.gather_row(i, &src_row, out.row_mut(t));
        }
        return macs;
    }
    nai_linalg::parallel::par_rows_mut(out.as_mut_slice(), f, avg_cost, |row0, chunk| {
        for (off, orow) in chunk.chunks_mut(f).enumerate() {
            view.gather_row(support[row0 + off], &src_row, orow);
        }
    });
    macs
}
