//! The in-process serving engine: admission control and sequencing on
//! the submitting thread → replicated shard worker pool, with reads the
//! reactor may answer on its own thread.
//!
//! ```text
//!   submitting thread (the reactor, or an in-process caller)
//! request ──[cache lookup]──[admission: in-flight ≤ queue_cap]──┐
//!              │ hit                │ Overloaded                 │
//!              ▼                    ▼                            ▼
//!          answered             rejected        lock the Sequencer: validate and
//!          inline                               stamp mutations with seq, invalidate
//!                                               the cache, claim (reactor, reads
//!                                               only), route reads (hint or
//!                                               round-robin), send to the workers
//!                                                     │                  │
//!                          claimed share, run on the  │                  │
//!                          submitting thread ◀────────┘   ┌──────────────┼─────────────┐
//!                                                         ▼              ▼             ▼
//!                                                     worker 0      worker 1  …   worker N−1
//!                                         take everything queued (≤ max_batch requests),
//!                                         lock the replica, apply the mutation prefix in
//!                                         seq order, then serve the reads in one engine call
//! ```
//!
//! **Batching** happens in one place, the worker. After a blocking
//! receive it takes every batch already waiting in its channel, up to
//! `max_batch` requests, and runs them together — larger batches
//! amortize the per-call stationary and BFS work (the paper's Fig. 5
//! trade-off). Nothing waits for a batch to fill: a request reaching an
//! idle worker runs at once, and requests arriving while a worker is
//! busy coalesce behind it, so batch size follows load.
//!
//! **Inline reads**: the replicas live in `Shared` behind one mutex
//! each, which a worker holds for each merged batch. When the reactor
//! submits a group of reads without shard hints, it claims (with
//! `try_lock`, under the sequencer lock) an idle replica that has
//! applied every sequenced mutation, sends the rest of the group to
//! the other workers, and runs the claimed share itself — no thread
//! hand-off either way (see `Sequencer::claim`).
//!
//! **Sequenced mutation replication**: each worker has one
//! [`StreamingEngine`] replica (same checkpoint, private graph +
//! scratch). The `Sequencer` — one lock shared by every submitting
//! thread — stamps every mutation (ingest / observe_edge) with a
//! monotonic sequence number, validates it once against its model of
//! the global graph, and sends it to *every* worker; exactly one
//! replica — the affinity hint, or round-robin — holds the client's
//! reply handle and pays for the prediction. Sending under the lock
//! keeps every worker channel in sequence order. A worker applies its
//! batch's mutation prefix in sequence order *before* executing its
//! slice of reads, and channels are FIFO, so every replica converges on
//! the same graph and any replica can serve any node: read-your-writes
//! holds at batch granularity with no client routing contract.
//!
//! **Admission / shedding**: at most `queue_cap` requests may be in
//! flight (queued or being served); beyond that, [`ServeError::Overloaded`]
//! is returned immediately — never a hang. Before that hard wall, the
//! [`nai_core::config::LoadShedPolicy`] caps the NAP depth budget of a
//! batch its worker closes under queue pressure, trading accuracy for
//! drain rate (the accuracy↔latency dial driven by load).
//!
//! **Prediction cache** (opt-in via `ServeConfig::cache`): the submit
//! path consults a sequence-versioned [`PredictionCache`](crate::cache::PredictionCache) before admission —
//! a read whose nodes are all cached is answered on the caller's
//! thread, skipping the queue, the workers, and the engine entirely.
//! At the moment it sequences a mutation, the sequencer invalidates
//! the mutation's dirty frontier (fixed-depth mode, walked over its own
//! [`DynamicGraph`] mirror of the replicated graph) or flushes
//! everything (globally-dependent NAP modes, which keep no mirror, or a
//! walk past its budget) *before* advancing the cache's sequence point
//! — so workers' later inserts are version-guarded against the
//! mutation, and a hit is bit-identical to a cache-bypass run at the
//! same sequence point.
//! Results computed under a degraded (load-shed) depth budget are never
//! inserted.

use crate::admission::AdmissionLedger;
use crate::cache::{Invalidation, VersionedCache};
use crate::obs::ServeObs;
use crate::proto::{NodeResult, Op, Reply, Request};
use crate::sync::atomic::{AtomicU64, Ordering};
use crate::sync::mpsc::{self, Receiver, Sender};
use crate::sync::thread::{self, JoinHandle};
use crate::sync::time::Instant;
use crate::sync::{lock_recover, Arc, Mutex, MutexGuard};
use nai_core::checkpoint::ModelCheckpoint;
use nai_core::config::{InferenceConfig, NapMode, ServeConfig};
use nai_core::engine::StreamingEngine;
use nai_core::kernel::StageTimes;
use nai_core::macs::MacsBreakdown;
use nai_graph::DynamicGraph;
use nai_obs::{
    CloseReason, HistogramSnapshot, Stage, StageBreakdown, TraceRecord, STAGE_COUNT, TRACE_NODE_CAP,
};
use std::cell::OnceCell;
use std::time::Duration;

/// A `Duration` as whole nanoseconds, saturating at `u64::MAX` (585
/// years — no real span gets near it).
fn dur_ns(d: Duration) -> u64 {
    d.as_nanos().min(u64::MAX as u128) as u64
}

/// Service-level failures surfaced to the transport.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The admission bound (`queue_cap`) is full; retry later.
    Overloaded,
    /// The service is shutting down; no new work is accepted.
    ShuttingDown,
    /// The worker did not answer within the wait deadline.
    Timeout,
    /// The request can never be served (e.g. shard hint out of range).
    Invalid(String),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Overloaded => write!(f, "overloaded"),
            ServeError::ShuttingDown => write!(f, "shutting_down"),
            ServeError::Timeout => write!(f, "timeout"),
            ServeError::Invalid(m) => write!(f, "invalid request: {m}"),
        }
    }
}

impl std::error::Error for ServeError {}

/// Static facts about a deployed service (the `/healthz` payload).
#[derive(Debug, Clone, Copy)]
pub struct ServiceInfo {
    /// Worker / shard replica count.
    pub shards: usize,
    /// Feature dimensionality every ingest must match.
    pub feature_dim: usize,
    /// Highest trained depth.
    pub k: usize,
    /// Node count of the seed graph every replica started from. Ids at
    /// or above this are assigned by sequenced ingests and — because
    /// every mutation is replicated everywhere — are equally valid on
    /// every replica.
    pub seed_nodes: usize,
}

/// A point-in-time view of the service counters (the `/metrics`
/// payload). Latency, depth, stage, and batch-size distributions are
/// [`HistogramSnapshot`]s of the service-wide lock-free histograms
/// (every worker records into the same ones — nothing to merge); MACs
/// use a replication-aware merge (see [`MetricsSnapshot::macs`]).
#[derive(Debug, Clone)]
pub struct MetricsSnapshot {
    /// Requests currently queued or being served.
    pub queue_depth: usize,
    /// Submissions rejected at the admission bound.
    pub overloaded: u64,
    /// Engine batches run so far (a worker's merged batch that answers
    /// at least one request, or a share of reads answered inline).
    pub batches: u64,
    /// The part of `batches` the reactor ran itself, on a claimed idle
    /// replica, instead of handing the reads to a worker.
    pub inline_batches: u64,
    /// Engine batches run with a degraded (load-shed) depth budget.
    pub degraded_batches: u64,
    /// Requests answered inside degraded batches (counted per request
    /// when its batch closes, whatever its kind or node count).
    pub shed_ops: u64,
    /// Edge mutations answered (sequenced once each, whatever the
    /// replica count).
    pub edges_observed: u64,
    /// Per-op validation failures answered.
    pub op_errors: u64,
    /// Predictions answered since the service started (one per node
    /// for `infer`, one per `ingest`), cache hits included.
    pub served: u64,
    /// Reads answered entirely from the prediction cache (request
    /// granularity). 0 when the cache is disabled.
    pub cache_hits: u64,
    /// Reads that consulted the cache and fell through to a replica.
    pub cache_misses: u64,
    /// Cache entries dropped under capacity (LRU) pressure.
    pub cache_evicted: u64,
    /// Cache entries dropped by mutation invalidation (frontier walks
    /// and conservative full flushes combined).
    pub cache_invalidated: u64,
    /// Enqueue→reply latency in nanoseconds, one sample per prediction
    /// (cache hits included) — all-time, fixed footprint, quantiles
    /// within `nai_obs::RELATIVE_ERROR`.
    pub latency: HistogramSnapshot,
    /// NAP exit depths, one sample per prediction. Depths are tiny, so
    /// `exact_small_counts` is the exact histogram.
    pub depths: HistogramSnapshot,
    /// Per-stage span histograms in nanoseconds, indexed by
    /// [`Stage::index`]: one sample per stage per answered request
    /// (request granularity — a multi-node read contributes once).
    pub stages: [HistogramSnapshot; STAGE_COUNT],
    /// Requests per engine batch (the requests its worker answers).
    pub batch_sizes: HistogramSnapshot,
    /// Batches whose worker stopped merging at `max_batch` requests.
    pub closed_on_max_batch: u64,
    /// Batches that took everything queued for their worker, and
    /// inline batches (everything claimed runs at once).
    pub closed_on_idle: u64,
    /// Cumulative per-stage MACs. Inference stages (propagation / NAP /
    /// classification) are summed over replicas — each read or
    /// prediction runs on exactly one. The `replication` stage is the
    /// **max** over replicas, not the sum: every replica applies the
    /// same sequenced mutations, so summing would bill one mutation
    /// `shards` times. Totals are therefore shard-count independent.
    pub macs: MacsBreakdown,
}

impl MetricsSnapshot {
    /// Predictions per second of busy (enqueue→reply) time — the same
    /// ratio the old exact accumulator reported, now derived from the
    /// latency histogram's exact count and sum.
    pub fn throughput(&self) -> f64 {
        let secs = self.latency.sum() as f64 * 1e-9;
        if secs == 0.0 {
            return 0.0;
        }
        self.latency.count() as f64 / secs
    }

    /// Mean NAP exit depth over every answered prediction.
    pub fn mean_depth(&self) -> f64 {
        self.depths.mean()
    }
}

/// The reply mailbox of an event-driven transport: workers push
/// `(token, reply)` pairs and fire `notify` on the empty→non-empty
/// edge; the reactor drains the mailbox on its next loop turn. One
/// queue serves every connection of a reactor — the token (issued by
/// the reactor at submit time) names the response slot the reply
/// fills, so no per-request channel is ever allocated and the reactor
/// is woken instead of parked.
pub struct CompletionQueue {
    replies: Mutex<Vec<(u64, Reply)>>,
    /// Fired outside the lock when a push found the mailbox empty —
    /// exactly the moments the reactor may be parked in its readiness
    /// wait with nothing left to drain. The reactor installs a closure
    /// that writes one byte to its wake pipe.
    notify: Box<dyn Fn() + Send + Sync>,
}

impl CompletionQueue {
    /// A mailbox whose empty→non-empty transitions fire `notify`.
    pub fn new(notify: Box<dyn Fn() + Send + Sync>) -> Self {
        CompletionQueue {
            replies: Mutex::new(Vec::new()),
            notify,
        }
    }

    /// Delivers one reply. `notify` fires iff the mailbox was empty: a
    /// drain concurrent with this push either runs after it under the
    /// lock (and collects the entry), or emptied the mailbox before it
    /// (making this push the empty→non-empty edge, which notifies) —
    /// either way no reply is ever stranded without a wake.
    pub fn push(&self, token: u64, reply: Reply) {
        let was_empty = {
            let mut q = lock_recover(&self.replies);
            let was_empty = q.is_empty();
            q.push((token, reply));
            was_empty
        };
        if was_empty {
            (self.notify)();
        }
    }

    /// Takes every queued `(token, reply)` pair, oldest first.
    pub fn drain(&self) -> Vec<(u64, Reply)> {
        std::mem::take(&mut *lock_recover(&self.replies))
    }
}

/// Where a reply lands: a per-request channel (the blocking
/// [`Ticket`] path), a shared [`CompletionQueue`] keyed by token (the
/// event-driven transport path), or a slot on the submitting thread
/// (a read it answers inline on a claimed replica).
pub(crate) enum ReplySink {
    Channel(Sender<Reply>),
    Completion {
        queue: Arc<CompletionQueue>,
        token: u64,
    },
    /// Filled by the submitting thread itself and handed back as the
    /// submission's outcome, so the reply touches no mailbox.
    Inline(OnceCell<Reply>),
}

impl ReplySink {
    fn deliver(&self, reply: Reply) {
        match self {
            // A dropped receiver (client timed out or disconnected) is
            // not an error: the reply is simply discarded.
            ReplySink::Channel(tx) => drop(tx.send(reply)),
            ReplySink::Completion { queue, token } => queue.push(*token, reply),
            ReplySink::Inline(slot) => {
                let first = slot.set(reply).is_ok();
                debug_assert!(first, "an inline job is answered exactly once");
            }
        }
    }
}

/// The admission slot + reply sink of one accepted request; exactly
/// one party (a worker, or the sequencer for a job it cannot route)
/// answers it, releasing the slot.
struct ReplyHandle {
    responder: ReplySink,
    /// Trace id issued at admission; keys the flight-recorder entry.
    trace_id: u64,
    /// Transport parse span (ns): request bytes read off the socket →
    /// op submitted for admission. Zero for in-process callers, which
    /// skip the transport. Added to the reported end-to-end latency so
    /// the stage spans keep tiling it.
    parse_ns: u64,
    /// Admission time: where the `queue_wait` stage starts.
    enqueued: Instant,
}

impl ReplyHandle {
    /// The reply an inline run left in this handle's slot.
    fn into_inline_reply(self) -> Option<Reply> {
        match self.responder {
            ReplySink::Inline(slot) => slot.into_inner(),
            _ => None,
        }
    }
}

struct Job {
    op: Op,
    /// Replica affinity hint (validated < shards at submit).
    shard: Option<usize>,
    handle: ReplyHandle,
}

/// A read routed to one replica.
struct ReadJob {
    op: Op,
    handle: ReplyHandle,
}

/// One sequenced mutation, broadcast to every live worker. The op is
/// shared (ingest feature rows are not cloned per replica); `handle`
/// is present on exactly one worker's copy — that replica answers the
/// client (and, for ingests, computes the prediction).
struct SeqMutation {
    seq: u64,
    op: Arc<Op>,
    handle: Option<ReplyHandle>,
}

/// What one submission group sends one worker. A worker merges every
/// batch waiting in its channel before running them (see
/// [`ShardBatch::absorb_queued`]).
struct ShardBatch {
    /// The group's full mutation prefix, in sequence order.
    mutations: Vec<SeqMutation>,
    /// This worker's slice of reads, executed after the prefix.
    reads: Vec<ReadJob>,
}

impl ShardBatch {
    /// Jobs *this* worker must answer (its reply handles).
    fn owned_jobs(&self) -> u64 {
        self.reads.len() as u64
            + self.mutations.iter().filter(|m| m.handle.is_some()).count() as u64
    }

    /// Appends every batch already waiting on `rx` until the channel is
    /// empty or this batch owns `max_batch` jobs. The channel is FIFO,
    /// so the merged mutation prefix stays in sequence order. Returns
    /// the owned-job count and why merging stopped.
    fn absorb_queued(&mut self, rx: &Receiver<ShardBatch>, max_batch: usize) -> (u64, CloseReason) {
        let mut size = self.owned_jobs();
        while size < max_batch as u64 {
            match rx.try_recv() {
                Ok(next) => {
                    size += next.owned_jobs();
                    self.mutations.extend(next.mutations);
                    self.reads.extend(next.reads);
                }
                // Empty — or disconnected at shutdown, in which case
                // the next `recv` ends the worker after this batch.
                Err(_) => return (size, CloseReason::Idle),
            }
        }
        (size, CloseReason::MaxBatch)
    }
}

/// How a worker runs one merged batch, fixed when the batch closes.
struct BatchRun {
    /// The base inference config, or its load-shed degradation.
    cfg: InferenceConfig,
    /// Run under a load-shed (capped-depth) budget: results are honest
    /// answers but must never be cached as full-depth ones.
    degraded: bool,
    /// When the worker took the batch off its channel: the end of
    /// `queue_wait` and the start of `batch_wait`.
    dequeued: Instant,
    /// Requests the worker answers in this batch — reported in traces.
    size: u32,
    close: CloseReason,
}

/// The timing context of one engine call, shared by every reply it
/// answers: the engine-stage spans are whole-call times attributed to
/// every batch member (each member really does wait for the coalesced
/// call), and the start/end instants bound the `batch_wait` and
/// `serialize` stages.
struct BatchTiming<'a> {
    run: &'a BatchRun,
    /// Just before the engine call.
    engine_start: Instant,
    /// Just after the engine call returned.
    engine_end: Instant,
    /// The engine's cumulative stage-time delta across the call.
    engine: StageTimes,
}

/// Runs one engine call and captures its [`BatchTiming`].
fn timed<'a, T>(
    engine: &mut StreamingEngine,
    run: &'a BatchRun,
    call: impl FnOnce(&mut StreamingEngine) -> T,
) -> (T, BatchTiming<'a>) {
    // The engine attributes its interior to stages cumulatively; the
    // before/after delta is this call's share.
    let stages_before = engine.stage_times();
    let engine_start = Instant::now();
    let out = call(engine);
    let engine_end = Instant::now();
    let timing = BatchTiming {
        run,
        engine_start,
        engine_end,
        engine: engine.stage_times().since(&stages_before),
    };
    (out, timing)
}

/// One worker's cumulative per-stage MACs, published as a single
/// consistent snapshot after each batch.
///
/// This replaced a `[AtomicU64; 4]` published with four independent
/// `Relaxed` stores: the model checker exhibits a `/metrics` scrape
/// landing between two of those stores and reporting a breakdown that
/// mixes two batches' totals — per-stage numbers that never coexisted
/// on the worker (`tests/model.rs::macs_tear_*` pins the failing
/// schedule). A mutex makes the 4-field publish indivisible; the lock
/// is uncontended outside scrapes and taken once per *batch*, so it
/// costs nothing on the request path.
pub struct MacsCell(Mutex<MacsBreakdown>);

impl MacsCell {
    /// A zeroed breakdown.
    pub fn new() -> Self {
        Self(Mutex::new(MacsBreakdown::default()))
    }

    /// Overwrites the published breakdown with the engine's current
    /// cumulative totals, atomically across all four stages.
    pub fn publish(&self, b: &MacsBreakdown) {
        *lock_recover(&self.0) = *b;
    }

    /// The last published breakdown (poison-recovering: the breakdown
    /// is copied in whole by `publish`, so even a poisoned cell holds
    /// a consistent snapshot).
    pub fn snapshot(&self) -> MacsBreakdown {
        *lock_recover(&self.0)
    }
}

impl Default for MacsCell {
    fn default() -> Self {
        Self::new()
    }
}

/// One engine replica and how far it has replicated.
struct Replica {
    engine: StreamingEngine,
    /// Sequence number of the last mutation applied to this replica
    /// (0 = seed state); exported in replies as `applied_seq`.
    applied_seq: u64,
}

/// A replica's lock. Its worker holds it for each merged batch; the
/// reactor only ever `try_lock`s it, to claim an idle replica for an
/// inline read. `None` once the replica is retired (its engine
/// panicked). A poisoned lock is treated the same way: the engine may
/// be inconsistent, so it is never recovered.
type ReplicaSlot = Mutex<Option<Replica>>;

struct Shared {
    /// In-flight slot accounting, per-party reply counters, and worker
    /// dead flags — the state whose interplay the model tests check.
    admission: AdmissionLedger,
    overloaded: AtomicU64,
    batches: AtomicU64,
    inline_batches: AtomicU64,
    degraded_batches: AtomicU64,
    shed_ops: AtomicU64,
    edges_observed: AtomicU64,
    op_errors: AtomicU64,
    served: AtomicU64,
    /// Request-lifecycle observability: latency / depth / stage / batch
    /// histograms (lock-free — every party records into the same ones)
    /// and the slow-request flight recorder.
    obs: ServeObs,
    /// `None` unless `ServeConfig::cache.enabled`. Locked briefly by
    /// the submit path (lookup / miss counting, and invalidation +
    /// sequence advance under the sequencer lock) and by workers
    /// (inserts).
    cache: Option<VersionedCache>,
    /// Per-worker MACs breakdown, overwritten after each batch from
    /// the engine's own totals — atomically, so scrapes never tear.
    worker_macs: Vec<MacsCell>,
    /// One per worker, indexed like the workers.
    replicas: Vec<ReplicaSlot>,
}

impl Shared {
    /// Shared state over `engines`, one per worker in order (fewer
    /// engines leave the remaining replicas retired from the start).
    fn new(cfg: &ServeConfig, engines: Vec<StreamingEngine>) -> Self {
        let mut engines = engines.into_iter();
        Shared {
            admission: AdmissionLedger::new(cfg.queue_cap, cfg.workers),
            overloaded: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            inline_batches: AtomicU64::new(0),
            degraded_batches: AtomicU64::new(0),
            shed_ops: AtomicU64::new(0),
            edges_observed: AtomicU64::new(0),
            op_errors: AtomicU64::new(0),
            served: AtomicU64::new(0),
            obs: ServeObs::new(),
            cache: cfg
                .cache
                .enabled
                .then(|| VersionedCache::new(cfg.cache.cap)),
            worker_macs: (0..cfg.workers).map(|_| MacsCell::new()).collect(),
            replicas: (0..cfg.workers)
                .map(|_| {
                    Mutex::new(engines.next().map(|engine| Replica {
                        engine,
                        applied_seq: 0,
                    }))
                })
                .collect(),
        }
    }

    /// Counts one engine batch that answers `owned` requests.
    fn note_batch(&self, run: &BatchRun, owned: u64) {
        // Relaxed on the batch counters: monotone, scrape-only.
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.obs.note_batch(run.size, run.close);
        if run.degraded {
            // Relaxed: monotone shed counters, scrape-only.
            self.degraded_batches.fetch_add(1, Ordering::Relaxed);
            self.shed_ops.fetch_add(owned, Ordering::Relaxed);
        }
    }

    /// After a batch ran cleanly on `worker`'s replica: publish its
    /// MACs.
    fn finish_batch(&self, worker: usize, engine: &StreamingEngine) {
        // One atomic publish of all four stages: a scrape sees either
        // the pre-batch or the post-batch breakdown, never a mix (the
        // old 4×`Relaxed`-store pattern tore — see `MacsCell`).
        self.worker_macs[worker].publish(&engine.macs_breakdown());
    }

    /// Answers every job `batch` owns with the typed error of a
    /// retired replica.
    fn answer_gone(&self, worker: usize, batch: ShardBatch) {
        for handle in batch
            .mutations
            .into_iter()
            .filter_map(|m| m.handle)
            .chain(batch.reads.into_iter().map(|r| r.handle))
        {
            self.respond(worker, &handle, gone(worker));
        }
    }

    /// Answers a job the sequencer cannot serve with a typed error.
    fn refuse(&self, handle: &ReplyHandle, message: String) {
        self.respond(
            self.admission.sequencer_slot(),
            handle,
            Reply::Error { message },
        );
    }

    fn respond(&self, who: usize, handle: &ReplyHandle, reply: Reply) {
        match &reply {
            // Relaxed on the counters below: each is a monotone count
            // read only by `/metrics` snapshots, with no cross-counter
            // invariant a scrape could see torn; publication to the
            // answered client is ordered by the reply-channel send.
            Reply::Infer { results, .. } => {
                self.served
                    .fetch_add(results.len() as u64, Ordering::Relaxed); // monotone, scrape-only
            }
            Reply::Ingest { .. } => {
                self.served.fetch_add(1, Ordering::Relaxed); // monotone, scrape-only
            }
            Reply::Edge { .. } => {
                self.edges_observed.fetch_add(1, Ordering::Relaxed); // monotone, scrape-only
            }
            Reply::Error { .. } => {
                self.op_errors.fetch_add(1, Ordering::Relaxed); // monotone, scrape-only
            }
        }
        // Free the admission slot *before* the reply is visible, so a
        // client that has its answer can immediately resubmit without
        // racing the counter (and `queue_depth` reads 0 once every
        // reply of a closed loop has been received).
        self.admission.note_answered(who);
        handle.responder.deliver(reply);
    }

    /// [`Self::respond`] for replies that carry predictions: stamps the
    /// request's full stage timeline into the histograms and the flight
    /// recorder first. Only `Infer` and `Ingest` replies come through
    /// here; error and edge paths answer via plain `respond` (no
    /// latency sample — same as the exact accumulator recorded).
    fn respond_traced(&self, who: usize, handle: &ReplyHandle, reply: Reply, timing: &BatchTiming) {
        // One clock read covers the whole accounting: total latency and
        // the serialize span end at the same instant, so the stage sum
        // tiles the measured total (up to the engine's interior glue).
        let now = Instant::now();
        let total_ns = handle.parse_ns + dur_ns(now.saturating_duration_since(handle.enqueued));
        let mut stages = StageBreakdown::default();
        stages.set(Stage::Parse, handle.parse_ns);
        let dequeued = timing.run.dequeued;
        stages.set(
            Stage::QueueWait,
            dur_ns(dequeued.saturating_duration_since(handle.enqueued)),
        );
        stages.set(
            Stage::BatchWait,
            dur_ns(timing.engine_start.saturating_duration_since(dequeued)),
        );
        stages.set(Stage::EnginePropagation, dur_ns(timing.engine.propagation));
        stages.set(Stage::EngineNap, dur_ns(timing.engine.nap));
        stages.set(Stage::EngineClassify, dur_ns(timing.engine.classification));
        stages.set(
            Stage::Serialize,
            dur_ns(now.saturating_duration_since(timing.engine_end)),
        );
        let (applied_seq, nodes, depths) = match &reply {
            Reply::Infer {
                applied_seq,
                results,
                ..
            } => {
                for r in results {
                    self.obs.note_prediction(total_ns, r.depth as u64);
                }
                (
                    *applied_seq,
                    results
                        .iter()
                        .take(TRACE_NODE_CAP)
                        .map(|r| r.node)
                        .collect(),
                    results
                        .iter()
                        .take(TRACE_NODE_CAP)
                        .map(|r| r.depth as u32)
                        .collect(),
                )
            }
            Reply::Ingest {
                applied_seq,
                node,
                depth,
                ..
            } => {
                self.obs.note_prediction(total_ns, *depth as u64);
                (*applied_seq, vec![*node], vec![*depth as u32])
            }
            _ => unreachable!("only prediction replies are traced"),
        };
        self.obs.note_request(
            &stages,
            TraceRecord {
                trace_id: handle.trace_id,
                total_ns,
                stages,
                nodes,
                depths,
                cache_hit: false,
                applied_seq,
                batch_size: timing.run.size,
                close_reason: timing.run.close.as_str(),
            },
        );
        self.respond(who, handle, reply);
    }

    /// Merged counters, latency statistics, and MACs — the `/metrics`
    /// body, on `Shared` so observability needs no service handle (and
    /// the poison unit tests can drive a bare `Shared`). Every lock on
    /// this path recovers from poison: one dead worker must not take
    /// monitoring down.
    fn snapshot(&self) -> MetricsSnapshot {
        let mut macs = MacsBreakdown::default();
        for m in &self.worker_macs {
            let b = m.snapshot();
            // Inference runs on exactly one replica per request: sum.
            macs.propagation += b.propagation;
            macs.nap += b.nap;
            macs.classification += b.classification;
            // Replicated mutations run on *every* replica: attribute
            // the work once (max = the most caught-up replica), so
            // totals do not scale with the shard count.
            macs.replication = macs.replication.max(b.replication);
        }
        let cache = self
            .cache
            .as_ref()
            .map(|c| c.counters())
            .unwrap_or_default();
        MetricsSnapshot {
            queue_depth: self.admission.in_flight(),
            // Relaxed loads: monotone counters with no cross-counter
            // invariant — a scrape is a statistical sample, not a
            // linearization point.
            overloaded: self.overloaded.load(Ordering::Relaxed),
            batches: self.batches.load(Ordering::Relaxed),
            inline_batches: self.inline_batches.load(Ordering::Relaxed),
            degraded_batches: self.degraded_batches.load(Ordering::Relaxed),
            shed_ops: self.shed_ops.load(Ordering::Relaxed),
            edges_observed: self.edges_observed.load(Ordering::Relaxed),
            served: self.served.load(Ordering::Relaxed),
            op_errors: self.op_errors.load(Ordering::Relaxed),
            cache_hits: cache.hits,
            cache_misses: cache.misses,
            cache_evicted: cache.evicted,
            cache_invalidated: cache.invalidated,
            latency: self.obs.latency(),
            depths: self.obs.depths(),
            stages: self.obs.stages(),
            batch_sizes: self.obs.batch_sizes(),
            closed_on_max_batch: self.obs.closed_on_max_batch(),
            closed_on_idle: self.obs.closed_on_idle(),
            macs,
        }
    }

    /// Takes every live replica's engine, in worker order. A retired
    /// replica is absent, and so is one behind a poisoned lock: its
    /// engine may be inconsistent.
    fn take_engines(&self) -> Vec<StreamingEngine> {
        self.replicas
            .iter()
            .filter_map(|slot| slot.lock().ok()?.take())
            .map(|replica| replica.engine)
            .collect()
    }
}

/// The typed error a retired replica's jobs are answered with.
fn gone(worker: usize) -> Reply {
    Reply::Error {
        message: format!("shard {worker} worker is gone"),
    }
}

/// A pending answer; `wait` blocks until the worker responds.
pub struct Ticket {
    rx: Receiver<Reply>,
}

impl Ticket {
    /// Blocks for the reply up to `timeout`.
    ///
    /// # Errors
    /// [`ServeError::Timeout`] if no reply arrives in time (the request
    /// may still complete server-side; a timed-out *mutation* may in
    /// particular still have been applied — its reply is discarded, not
    /// its sequence point).
    pub fn wait(self, timeout: Duration) -> Result<Reply, ServeError> {
        self.rx
            .recv_timeout(timeout)
            .map_err(|_| ServeError::Timeout)
    }
}

/// The online inference service (transport-agnostic; see
/// [`crate::http`] for the TCP front end).
pub struct NaiService {
    /// `None` once shutdown began: dropping the sequencer drops every
    /// worker sender, so each worker drains its channel and exits.
    sequencer: Mutex<Option<Sequencer>>,
    shared: Arc<Shared>,
    info: ServiceInfo,
    cfg: ServeConfig,
    /// The base inference config every batch runs under (or its
    /// load-shed degradation).
    infer_cfg: InferenceConfig,
    /// One per worker — the service runs no other thread.
    threads: Mutex<Vec<JoinHandle<()>>>,
}

/// What admission made of one request.
enum Admitted {
    /// Answered from the prediction cache; nothing was admitted.
    Hit(Reply),
    /// Holds an admission slot and waits for the sequencer.
    Job {
        job: Job,
        /// A read that consulted the cache and missed.
        cache_miss: bool,
    },
}

impl NaiService {
    /// Deploys the service over pre-built engine replicas. Every
    /// replica must start from the same state (same seed graph and
    /// checkpoint) — sequenced replication keeps them convergent from
    /// there on.
    ///
    /// # Errors
    /// Returns a description when `cfg` fails validation, the replica
    /// count disagrees with `cfg.workers`, or `infer_cfg` is invalid
    /// for the engines' trained depth.
    pub fn new(
        engines: Vec<StreamingEngine>,
        infer_cfg: InferenceConfig,
        cfg: ServeConfig,
    ) -> Result<Self, String> {
        cfg.validate()?;
        if engines.len() != cfg.workers {
            return Err(format!(
                "cfg.workers = {} but {} engine shards supplied",
                cfg.workers,
                engines.len()
            ));
        }
        let k = engines[0].k();
        infer_cfg.validate(k)?;
        let feature_dim = engines[0].graph().feature_dim();
        let seed_nodes = engines[0].graph().num_nodes();
        for e in &engines {
            if e.k() != k || e.graph().feature_dim() != feature_dim {
                return Err("engine shards must share k and feature_dim".to_string());
            }
            if e.graph().num_nodes() != seed_nodes {
                return Err("engine shards must start from the same seed graph".to_string());
            }
        }
        // Only NAP_u reads λ₂. Force it here, not on the first read; load
        // shedding caps depth but never changes the mode, so no other
        // mode ever pays for the estimate. Replicas from one
        // `shard_replicas` call share the cell: one estimate in all.
        if matches!(infer_cfg.nap, NapMode::UpperBound { .. }) {
            for e in &engines {
                e.lambda2();
            }
        }
        let info = ServiceInfo {
            shards: cfg.workers,
            feature_dim,
            k,
            seed_nodes,
        };
        // Only fixed-depth propagation is a purely local function of
        // the t_max-hop neighborhood; distance/gate NAP consult the
        // stationary row of the node's component, which a mutation
        // anywhere in it changes, and NAP_u the global 2m + n — no local
        // frontier is sound there, so those modes keep no mirror and
        // flush on every mutation. The mirror must be cloned before the
        // engines move into their replica slots; the clone shares the
        // replicas' frozen seed and owns no adjacency row.
        let invalidator = cfg.cache.enabled.then(|| CacheInvalidator {
            mirror: matches!(infer_cfg.nap, NapMode::Fixed).then(|| engines[0].graph().clone()),
            radius: infer_cfg.t_max,
            budget: cfg.cache.frontier_budget,
        });
        let shared = Arc::new(Shared::new(&cfg, engines));

        let mut threads = Vec::with_capacity(cfg.workers);
        let mut worker_txs = Vec::with_capacity(cfg.workers);
        for w in 0..cfg.workers {
            let (wtx, wrx) = mpsc::channel::<ShardBatch>();
            worker_txs.push(wtx);
            let shared_w = Arc::clone(&shared);
            threads.push(
                thread::Builder::new()
                    .name(format!("nai-serve-worker-{w}"))
                    .spawn(move || worker_loop(w, wrx, shared_w, infer_cfg, cfg))
                    // nai-lint: allow(hot-path-panic) -- spawn fails only on
                    // OS resource exhaustion during service construction.
                    .expect("spawn worker thread"),
            );
        }

        Ok(Self {
            sequencer: Mutex::new(Some(Sequencer::new(worker_txs, info, invalidator))),
            shared,
            info,
            cfg,
            infer_cfg,
            threads: Mutex::new(threads),
        })
    }

    /// Deploys over `cfg.workers` shard replicas built from one
    /// checkpoint and seed graph, sharing its frozen seed and one λ₂
    /// cell (see [`StreamingEngine::shard_replicas`]).
    ///
    /// # Errors
    /// As [`Self::new`].
    pub fn from_checkpoint(
        ckpt: &ModelCheckpoint,
        seed: &DynamicGraph,
        infer_cfg: InferenceConfig,
        cfg: ServeConfig,
    ) -> Result<Self, String> {
        cfg.validate()?;
        let engines = StreamingEngine::shard_replicas(ckpt, seed, cfg.workers);
        Self::new(engines, infer_cfg, cfg)
    }

    /// Static deployment facts.
    pub fn info(&self) -> ServiceInfo {
        self.info
    }

    /// The serving configuration this service runs under.
    pub fn config(&self) -> ServeConfig {
        self.cfg
    }

    /// Submits a request; returns a [`Ticket`] for the eventual reply.
    ///
    /// # Errors
    /// [`ServeError::Overloaded`] at the admission bound,
    /// [`ServeError::Invalid`] for an out-of-range shard hint,
    /// [`ServeError::ShuttingDown`] after [`Self::shutdown`] began.
    pub fn submit(&self, req: Request) -> Result<Ticket, ServeError> {
        self.submit_one(req, false).map(|(ticket, _)| ticket)
    }

    /// [`Self::submit`], optionally as the reactor submits (see
    /// [`Self::submit_group`]); also says whether the reply was made on
    /// this thread.
    fn submit_one(&self, req: Request, inline: bool) -> Result<(Ticket, bool), ServeError> {
        let (rtx, rrx) = mpsc::channel();
        let sink = ReplySink::Channel(rtx.clone());
        let here = match self.submit_group(vec![(req, 0, sink)], inline).pop() {
            // Answered on this thread: pre-resolve the ticket.
            Some(Ok(Some(reply))) => {
                drop(rtx.send(reply));
                true
            }
            Some(Ok(None)) => false,
            Some(Err(e)) => return Err(e),
            None => unreachable!("submit_group returns one outcome per request"),
        };
        Ok((Ticket { rx: rrx }, here))
    }

    /// The one submit path, for a group of `(request, parse_ns, sink)`
    /// triples (the `/v1` lines the reactor parsed in one pass over a
    /// connection's read buffer, or a single request). Each request is
    /// checked, looked up in the cache and admitted on its own; the
    /// admitted ones are then sequenced and routed under one
    /// acquisition of the sequencer lock, so they reach the workers
    /// together.
    ///
    /// With `inline` (the reactor's submissions), a group of reads
    /// without shard hints may claim an idle replica that has applied
    /// every sequenced mutation: its share of the reads then runs on
    /// this thread after the lock is released, while the other shares
    /// go to their workers as usual (see [`Sequencer::claim`]).
    ///
    /// Returns one outcome per request, in order: `Ok(Some(reply))`
    /// when the cache or an inline run answered on this thread (the
    /// sink is unused), `Ok(None)` when the reply will arrive through
    /// the sink.
    pub(crate) fn submit_group(
        &self,
        reqs: Vec<(Request, u64, ReplySink)>,
        inline: bool,
    ) -> Vec<Result<Option<Reply>, ServeError>> {
        let mut outcomes = Vec::with_capacity(reqs.len());
        let mut jobs = Vec::new();
        // The outcome index of each job.
        let mut job_outcome = Vec::new();
        let mut misses = 0;
        for (req, parse_ns, sink) in reqs {
            outcomes.push(match self.admit(req, parse_ns, sink) {
                Ok(Admitted::Hit(reply)) => Ok(Some(reply)),
                Ok(Admitted::Job { job, cache_miss }) => {
                    misses += usize::from(cache_miss);
                    job_outcome.push(outcomes.len());
                    jobs.push(job);
                    Ok(None)
                }
                Err(e) => Err(e),
            });
        }
        if jobs.is_empty() {
            return outcomes;
        }
        // A panic while sequencing may have left a gap in the sequence,
        // so a poisoned sequencer takes no more work, as after shutdown.
        let mut sequencer = self.sequencer.lock().ok();
        let Some(seq) = sequencer.as_mut().and_then(|s| s.as_mut()) else {
            drop(sequencer);
            // The admitted jobs never entered a queue: give their slots
            // back.
            for outcome in outcomes.iter_mut().filter(|o| matches!(o, Ok(None))) {
                self.shared.admission.cancel_admit();
                *outcome = Err(ServeError::ShuttingDown);
            }
            return outcomes;
        };
        seq.reap_dead_workers(&self.shared.admission);
        let claim = if inline {
            seq.claim(&mut jobs, &self.shared)
        } else {
            None
        };
        seq.dispatch(jobs, &self.shared, claim.as_ref().map(|c| c.worker));
        drop(sequencer);
        // Counted once the reads are queued, so hits + misses == reads
        // that consulted the cache.
        if let Some(cache) = &self.shared.cache {
            for _ in 0..misses {
                cache.note_miss();
            }
        }
        if let Some(claim) = claim {
            // The claimed share is the first jobs of the group.
            for (i, reply) in job_outcome.into_iter().zip(self.run_inline(claim)) {
                outcomes[i] = reply.map(Some).ok_or(ServeError::Timeout);
            }
        }
        outcomes
    }

    /// Runs a claimed share of reads on this thread, as the replica's
    /// worker would run them in one batch, and returns each job's reply
    /// in order. A panic in the engine retires the replica exactly as
    /// a panicked worker is retired: its dead flag goes up, the jobs it
    /// did not answer get the typed "worker is gone" error (which frees
    /// their admission slots), and its worker, finding the replica
    /// gone, answers whatever reaches its channel the same way until
    /// the sequencer drops it.
    fn run_inline(&self, claim: Claim<'_>) -> Vec<Option<Reply>> {
        let Claim {
            worker,
            mut slot,
            jobs,
        } = claim;
        let shared = &*self.shared;
        // The shed decision is the worker's, made at the same point.
        let degraded = self
            .cfg
            .shed
            .engaged(shared.admission.in_flight(), self.cfg.queue_cap);
        let run = BatchRun {
            cfg: if degraded {
                self.cfg.shed.degrade(&self.infer_cfg)
            } else {
                self.infer_cfg
            },
            degraded,
            dequeued: Instant::now(),
            size: jobs.len() as u32,
            // Everything claimed is aboard and runs at once.
            close: CloseReason::Idle,
        };
        shared.note_batch(&run, jobs.len() as u64);
        // Relaxed: monotone, scrape-only.
        shared.inline_batches.fetch_add(1, Ordering::Relaxed);
        let ran = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            slot.as_mut().map(|replica| {
                let applied_seq = replica.applied_seq;
                infer_run(
                    worker,
                    &mut replica.engine,
                    &jobs,
                    &run,
                    applied_seq,
                    shared,
                );
                shared.finish_batch(worker, &replica.engine);
            })
        }));
        if !matches!(ran, Ok(Some(()))) {
            *slot = None;
            drop(slot);
            shared.admission.mark_dead(worker);
            for job in &jobs {
                if matches!(&job.handle.responder, ReplySink::Inline(r) if r.get().is_none()) {
                    shared.respond(worker, &job.handle, gone(worker));
                }
            }
        }
        jobs.into_iter()
            .map(|job| job.handle.into_inline_reply())
            .collect()
    }

    /// Checks the shard hint, answers a fully cached read on this
    /// thread, or takes an admission slot.
    fn admit(&self, req: Request, parse_ns: u64, sink: ReplySink) -> Result<Admitted, ServeError> {
        if let Some(s) = req.shard {
            if s >= self.info.shards {
                return Err(ServeError::Invalid(format!(
                    "shard hint {s} out of range (service has {} shards)",
                    self.info.shards
                )));
            }
        }
        // Prediction-cache fast path: a read whose nodes are all cached
        // is answered right here — no admission slot, no queue, no
        // replica work. The entries' version guard makes the answer
        // bit-identical to a worker's at the current sequence point,
        // and `applied_seq` reports that point.
        let mut cache_miss = false;
        if let Some(cache) = &self.shared.cache {
            if let Op::Infer { nodes } = &req.op {
                let begun = Instant::now();
                if let Some((applied_seq, results)) = cache.lookup(nodes) {
                    return Ok(Admitted::Hit(self.answer_from_cache(
                        begun,
                        parse_ns,
                        req.shard,
                        applied_seq,
                        results,
                    )));
                }
                cache_miss = true;
            }
        }
        // Admission: reserve an in-flight slot or reject immediately.
        if !self.shared.admission.try_admit() {
            // Relaxed: monotone rejection count, only read by scrapes.
            self.shared.overloaded.fetch_add(1, Ordering::Relaxed);
            return Err(ServeError::Overloaded);
        }
        Ok(Admitted::Job {
            job: Job {
                op: req.op,
                shard: req.shard,
                handle: ReplyHandle {
                    responder: sink,
                    trace_id: self.shared.obs.next_trace_id(),
                    parse_ns,
                    enqueued: Instant::now(),
                },
            },
            cache_miss,
        })
    }

    /// Answers a fully cached read on the caller's thread: bumps
    /// `served`, records the latency, depths, and trace,
    /// and returns the reply. The reply's `shard` is the caller's hint
    /// (or replica 0): no replica did any work, but the field must
    /// name a valid one.
    fn answer_from_cache(
        &self,
        begun: Instant,
        parse_ns: u64,
        hint: Option<usize>,
        applied_seq: u64,
        results: Vec<NodeResult>,
    ) -> Reply {
        let lookup_ns = dur_ns(begun.elapsed());
        let total_ns = parse_ns + lookup_ns;
        self.shared
            .served
            // Relaxed: monotone count, read only by scrapes.
            .fetch_add(results.len() as u64, Ordering::Relaxed);
        for r in &results {
            self.shared.obs.note_prediction(total_ns, r.depth as u64);
        }
        // A cache hit never queues, batches, or touches the engine: its
        // whole lifetime is transport parse + the serialize stage, and
        // its trace says so (batch_size 0 — it rode no batch).
        let mut stages = StageBreakdown::default();
        stages.set(Stage::Parse, parse_ns);
        stages.set(Stage::Serialize, lookup_ns);
        self.shared.obs.note_request(
            &stages,
            TraceRecord {
                trace_id: self.shared.obs.next_trace_id(),
                total_ns,
                stages,
                nodes: results
                    .iter()
                    .take(TRACE_NODE_CAP)
                    .map(|r| r.node)
                    .collect(),
                depths: results
                    .iter()
                    .take(TRACE_NODE_CAP)
                    .map(|r| r.depth as u32)
                    .collect(),
                cache_hit: true,
                applied_seq,
                batch_size: 0,
                close_reason: "cache_hit",
            },
        );
        Reply::Infer {
            shard: hint.unwrap_or(0),
            applied_seq,
            results,
        }
    }

    /// [`Self::submit`] + wait, with a 30 s answer deadline.
    ///
    /// # Errors
    /// As [`Self::submit`], plus [`ServeError::Timeout`].
    pub fn call(&self, req: Request) -> Result<Reply, ServeError> {
        self.submit(req)?.wait(Duration::from_secs(30))
    }

    /// Requests currently queued or executing — one atomic load, cheap
    /// enough for a liveness probe (unlike [`Self::metrics`], which
    /// merges every worker's latency samples).
    pub fn queue_depth(&self) -> usize {
        self.shared.admission.in_flight()
    }

    /// Merged counters, latency statistics, and MACs. Every lock on
    /// this path recovers from poison, so `/metrics` keeps answering
    /// after a worker panic.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.shared.snapshot()
    }

    /// The slowest recent requests (current + previous flight-recorder
    /// windows), slowest first, with their full stage timelines — the
    /// `GET /debug/slow` payload.
    pub fn slow_traces(&self) -> Vec<TraceRecord> {
        self.shared.obs.slow_traces()
    }

    /// Stops accepting work, drains queued requests (every admitted
    /// request still gets its reply), and joins all threads.
    /// Idempotent; also runs on drop.
    pub fn shutdown(&self) {
        // Dropping the sequencer drops every worker sender: each worker
        // answers what is already queued for it, then exits.
        drop(lock_recover(&self.sequencer).take());
        let mut threads = lock_recover(&self.threads);
        for handle in threads.drain(..) {
            let _ = handle.join();
        }
    }

    /// [`Self::shutdown`], then hands back the drained engine replicas
    /// in worker order — the convergence oracle for tests (replicas
    /// must hold identical graphs) and the state hand-off for
    /// re-checkpointing. A replica whose engine panicked is absent.
    pub fn into_engines(self) -> Vec<StreamingEngine> {
        self.shutdown();
        self.shared.take_engines()
    }
}

impl Drop for NaiService {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// The sequencer's cache-invalidation state: a private mirror of the
/// replicated graph, kept in lockstep with sequenced mutations, plus
/// the dirty-frontier walk parameters.
struct CacheInvalidator {
    /// Present iff a mutation's effect on predictions is local to its
    /// `radius`-hop neighborhood (fixed-depth propagation). All other
    /// NAP modes consult globally-perturbed stationary state: they flush
    /// the cache on every mutation, duplicate edges included, and keep
    /// no mirror.
    mirror: Option<DynamicGraph>,
    /// Walk radius: the base (undegraded) `t_max`, the largest depth
    /// bound any cached entry can carry.
    radius: usize,
    /// Visited-node budget beyond which the walk falls back to a flush.
    budget: usize,
}

/// A replica claimed by the reactor, held locked, with the reads it
/// answers inline (their sinks are [`ReplySink::Inline`]).
struct Claim<'s> {
    worker: usize,
    slot: MutexGuard<'s, Option<Replica>>,
    jobs: Vec<ReadJob>,
}

/// The state every submitting thread shares, behind
/// `NaiService::sequencer`'s lock: it sequences + validates mutations,
/// invalidates the cache, claims replicas for inline reads, routes
/// reads, and sends each group of work to the workers. The lock is
/// held across the sends, so every worker channel receives mutations
/// in strictly increasing, gap-free sequence order — the order
/// `process_shard_batch` applies them in.
struct Sequencer {
    /// One sender per worker; `None` once the worker is known dead —
    /// its `AdmissionLedger` dead flag raised by the panic path, or its
    /// channel disconnected. Dropping the sender ends the worker's
    /// drain loop (see [`worker_loop`]); a dead worker is skipped by
    /// routing and broadcast from then on, and its jobs are answered
    /// with a typed error instead of leaking their admission slots.
    worker_txs: Vec<Option<Sender<ShardBatch>>>,
    rr: usize,
    /// Next mutation sequence number (1-based; 0 = "seed state").
    next_seq: u64,
    /// The sequencer's model of the replicated graph's node count:
    /// seed nodes plus every valid sequenced ingest. Mutations are
    /// validated against this once, here — replicas apply them without
    /// re-checking.
    nodes: u64,
    feature_dim: usize,
    /// Present iff the prediction cache is enabled: the graph mirror
    /// and walk parameters used to invalidate at sequencing time.
    invalidator: Option<CacheInvalidator>,
}

impl Sequencer {
    fn new(
        worker_txs: Vec<Sender<ShardBatch>>,
        info: ServiceInfo,
        invalidator: Option<CacheInvalidator>,
    ) -> Self {
        Self {
            worker_txs: worker_txs.into_iter().map(Some).collect(),
            rr: 0,
            next_seq: 1,
            nodes: info.seed_nodes as u64,
            feature_dim: info.feature_dim,
            invalidator,
        }
    }

    /// Retires workers whose dead flag is up (their engine panicked,
    /// on the worker or in an inline run): drop their senders
    /// (disconnecting their drain loops) and take them out of routing.
    /// A batch sent before the flag was observed is answered by the
    /// worker's drain loop, so the hand-off leaks nothing.
    fn reap_dead_workers(&mut self, admission: &AdmissionLedger) {
        for (w, tx) in self.worker_txs.iter_mut().enumerate() {
            if tx.is_some() && admission.is_dead(w) {
                *tx = None;
            }
        }
    }

    /// Picks the answering replica: the affinity hint when it names a
    /// live worker, the next live worker round-robin otherwise, passing
    /// over `skip` (a replica claimed for an inline run) while another
    /// live one exists; `None` when every worker is gone.
    fn route(&mut self, hint: Option<usize>, skip: Option<usize>) -> Option<usize> {
        let workers = self.worker_txs.len();
        if let Some(s) = hint {
            if self.worker_txs[s].is_some() {
                return Some(s);
            }
        }
        let mut fallback = None;
        for _ in 0..workers {
            let s = self.rr % workers;
            self.rr += 1;
            if self.worker_txs[s].is_some() {
                if Some(s) != skip {
                    return Some(s);
                }
                fallback = Some(s);
            }
        }
        fallback
    }

    /// The inline claim, made by the reactor under the sequencer lock.
    /// A group qualifies if it holds only reads and none names a shard
    /// (a hint names the replica that must answer, which a split does
    /// not honour). It then claims the first live replica from the
    /// round-robin cursor whose lock is free and which has applied
    /// every mutation sequenced so far. That check is the read's
    /// linearisation point: it sees every mutation whose reply anyone
    /// has received, so read-your-writes holds as on the worker path.
    /// `try_lock` never waits for a busy worker, and a poisoned or
    /// retired replica is passed over.
    ///
    /// The claimed replica takes the group's first ⌈g / live⌉ reads
    /// (the whole of a single read): this thread runs them once the
    /// sequencer lock is released, while the rest go to the other
    /// workers, so a large group still runs on every core.
    fn claim<'s>(&mut self, jobs: &mut Vec<Job>, shared: &'s Shared) -> Option<Claim<'s>> {
        if !jobs
            .iter()
            .all(|j| matches!(j.op, Op::Infer { .. }) && j.shard.is_none())
        {
            return None;
        }
        let sequenced = self.next_seq - 1;
        let workers = self.worker_txs.len();
        let (worker, slot) = (0..workers)
            .map(|i| (self.rr + i) % workers)
            .filter(|&w| self.worker_txs[w].is_some())
            .find_map(|w| {
                let slot = shared.replicas[w].try_lock().ok()?;
                let caught_up = slot.as_ref()?.applied_seq == sequenced;
                caught_up.then_some((w, slot))
            })?;
        self.rr = worker + 1;
        let live = self.worker_txs.iter().flatten().count();
        let rest = jobs.split_off(jobs.len().div_ceil(live));
        let claimed = std::mem::replace(jobs, rest);
        let jobs = claimed
            .into_iter()
            .map(|job| ReadJob {
                op: job.op,
                handle: ReplyHandle {
                    responder: ReplySink::Inline(OnceCell::new()),
                    ..job.handle
                },
            })
            .collect();
        Some(Claim { worker, slot, jobs })
    }

    /// Validates a mutation against the sequenced global graph model —
    /// once, at sequencing time, identically for every replica.
    fn validate_mutation(&self, op: &Op) -> Result<(), String> {
        let n = self.nodes;
        match op {
            Op::Ingest {
                features,
                neighbors,
            } => {
                if features.len() != self.feature_dim {
                    return Err(format!(
                        "feature length {} does not match graph dimension {}",
                        features.len(),
                        self.feature_dim
                    ));
                }
                if features.iter().any(|x| !x.is_finite()) {
                    // One inf/NaN feature would poison every replica's
                    // incremental stationary accumulators for every
                    // later request — reject it at the door.
                    return Err("features must be finite".to_string());
                }
                if let Some(&bad) = neighbors.iter().find(|&&v| v as u64 >= n) {
                    return Err(format!("neighbor {bad} out of range (graph has {n} nodes)"));
                }
                if n > u32::MAX as u64 {
                    return Err("graph is full (node ids are u32)".to_string());
                }
                Ok(())
            }
            Op::ObserveEdge { u, v } => {
                if u == v {
                    return Err(format!("self-loop edge ({u},{u}) is not representable"));
                }
                if *u as u64 >= n || *v as u64 >= n {
                    return Err(format!("edge ({u},{v}) out of range (graph has {n} nodes)"));
                }
                Ok(())
            }
            Op::Infer { .. } => unreachable!("reads are not sequenced"),
        }
    }

    /// Applies a just-sequenced mutation to the cache: mirror update,
    /// dirty-frontier eviction (or conservative flush), then the
    /// sequence-point advance — all before any worker can have applied
    /// the mutation, so the version guard on inserts is airtight.
    /// Without a mirror (every mode but fixed-depth) each mutation
    /// flushes.
    ///
    /// The walk runs on the *post-mutation* mirror: edge additions only
    /// shrink hop distances, so the new adjacency reaches every node
    /// whose old ≤`radius`-hop computation involved the touched region.
    fn invalidate_cache(&mut self, op: &Op, seq: u64, cache: Option<&VersionedCache>) {
        let (Some(inv), Some(cache)) = (self.invalidator.as_mut(), cache) else {
            return;
        };
        let action = match inv.mirror.as_mut() {
            None => Invalidation::Flush,
            Some(mirror) => {
                // Already validated: ids in range, features well-formed.
                // The touched nodes; `None` when the graph did not
                // change (a duplicate edge). An arrival cannot be cached
                // yet: only its attachment points change.
                let edge: [u32; 2];
                let seeds = match op {
                    Op::Ingest {
                        features,
                        neighbors,
                    } => {
                        mirror.add_node(features, neighbors);
                        Some(neighbors.as_slice())
                    }
                    Op::ObserveEdge { u, v } => {
                        edge = [*u, *v];
                        mirror.add_edge(*u, *v).then_some(&edge[..])
                    }
                    Op::Infer { .. } => unreachable!("reads are not sequenced"),
                };
                match seeds {
                    // Nothing changed, or an isolated arrival touched no
                    // existing adjacency.
                    None | Some([]) => Invalidation::Untouched,
                    Some(seeds) => match mirror.k_hop_frontier(seeds, inv.radius, inv.budget) {
                        Some(frontier) => Invalidation::Frontier(frontier),
                        None => Invalidation::Flush,
                    },
                }
            }
        };
        // One lock acquisition for eviction + advance: a worker insert
        // can land before or after this mutation, never in between.
        cache.sequence_mutation(seq, action);
    }

    /// Sequences, validates and routes one group of admitted jobs, then
    /// sends each live worker its share: the group's whole mutation
    /// prefix (every replica applies every mutation) and the reads
    /// routed to it. Reads pass over `claimed`, the replica answering
    /// part of the group inline. Jobs that cannot be served are
    /// answered here.
    fn dispatch(&mut self, jobs: Vec<Job>, shared: &Shared, claimed: Option<usize>) {
        let mut reads: Vec<Vec<ReadJob>> = self.worker_txs.iter().map(|_| Vec::new()).collect();
        // (seq, op, answering replica, handle) in sequence order; the
        // handle is moved into exactly one worker's broadcast copy.
        let mut muts: Vec<(u64, Arc<Op>, usize, Option<ReplyHandle>)> = Vec::new();
        for job in jobs {
            if let Op::Infer { .. } = job.op {
                match self.route(job.shard, claimed) {
                    Some(s) => reads[s].push(ReadJob {
                        op: job.op,
                        handle: job.handle,
                    }),
                    None => shared.refuse(&job.handle, "no live shard workers".to_string()),
                }
                continue;
            }
            if let Err(message) = self.validate_mutation(&job.op) {
                shared.refuse(&job.handle, message);
                continue;
            }
            let Some(responder) = self.route(job.shard, None) else {
                shared.refuse(&job.handle, "no live shard workers".to_string());
                continue;
            };
            let seq = self.next_seq;
            self.next_seq += 1;
            if matches!(job.op, Op::Ingest { .. }) {
                self.nodes += 1;
            }
            self.invalidate_cache(&job.op, seq, shared.cache.as_ref());
            muts.push((seq, Arc::new(job.op), responder, Some(job.handle)));
        }

        for (w, worker_reads) in reads.into_iter().enumerate() {
            let Some(tx) = &self.worker_txs[w] else {
                continue;
            };
            let mutations: Vec<SeqMutation> = muts
                .iter_mut()
                .map(|(seq, op, responder, handle)| SeqMutation {
                    seq: *seq,
                    op: Arc::clone(op),
                    handle: if *responder == w { handle.take() } else { None },
                })
                .collect();
            if mutations.is_empty() && worker_reads.is_empty() {
                continue;
            }
            let batch = ShardBatch {
                mutations,
                reads: worker_reads,
            };
            if let Err(dead) = tx.send(batch) {
                // Backstop for a worker that died without raising its
                // dead flag (should not happen — the panic path always
                // sets it): answer the jobs only it would have
                // answered, so their clients see a typed error instead
                // of a timeout and no admission slot leaks. Its
                // broadcast mutation copies are dropped — the replica
                // is out of rotation for good, and the surviving
                // replicas stay convergent with each other (a mutation
                // answered by a live replica may thus outlive its dead
                // responder, like a timeout).
                self.worker_txs[w] = None;
                let gone = dead.0;
                for handle in gone
                    .mutations
                    .into_iter()
                    .filter_map(|m| m.handle)
                    .chain(gone.reads.into_iter().map(|r| r.handle))
                {
                    shared.refuse(&handle, format!("shard {w} worker is gone"));
                }
            }
        }
    }
}

fn worker_loop(
    worker: usize,
    rx: Receiver<ShardBatch>,
    shared: Arc<Shared>,
    base_cfg: InferenceConfig,
    cfg: ServeConfig,
) {
    while let Ok(batch) = rx.recv() {
        let served = serve_batch(worker, batch, &rx, &shared, &base_cfg, &cfg);
        if matches!(served, Served::Done) {
            continue;
        }
        // The replica is retired. Batches sent before a submitter
        // observes the dead flag would otherwise be dropped with their
        // admission slots held: answer their owned jobs with a typed
        // error instead. The drain ends when the sequencer reaps this
        // worker (dropping its sender) or shuts down.
        while let Ok(stranded) = rx.recv() {
            shared.answer_gone(worker, stranded);
        }
        if let Served::Panicked(panic) = served {
            std::panic::resume_unwind(panic);
        }
        return;
    }
}

/// What became of one merged batch.
enum Served {
    Done,
    /// The replica was already retired (an inline run panicked on it):
    /// the batch's owned jobs got the typed "worker is gone" error.
    Retired,
    /// The engine panicked mid-batch: the replica is retired and the
    /// batch's unanswered admission slots are repaired.
    Panicked(Box<dyn std::any::Any + Send>),
}

/// Merges everything queued behind `batch` and runs it on `worker`'s
/// replica, which stays locked for the whole batch.
fn serve_batch(
    worker: usize,
    mut batch: ShardBatch,
    rx: &Receiver<ShardBatch>,
    shared: &Shared,
    base_cfg: &InferenceConfig,
    cfg: &ServeConfig,
) -> Served {
    let (owned, close) = batch.absorb_queued(rx, cfg.max_batch);
    let dequeued = Instant::now();
    // Blocks while the reactor runs an inline read on this replica.
    let mut slot = shared.replicas[worker].lock().ok();
    let Some(replica) = slot.as_deref_mut().and_then(Option::as_mut) else {
        drop(slot);
        shared.answer_gone(worker, batch);
        return Served::Retired;
    };
    // The batch closes here, so the load-shed decision is made here:
    // in_flight counts this batch and everything queued behind it.
    let degraded = cfg
        .shed
        .engaged(shared.admission.in_flight(), cfg.queue_cap);
    let run = BatchRun {
        cfg: if degraded {
            cfg.shed.degrade(base_cfg)
        } else {
            *base_cfg
        },
        degraded,
        dequeued,
        size: owned as u32,
        close,
    };
    // A batch that only replicates other workers' mutations answers
    // nobody: it is not counted as a batch.
    if owned > 0 {
        shared.note_batch(&run, owned);
    }
    // Sampled under the replica lock, so no inline answer on this
    // replica can land between the sample and a repair.
    let answered_before = shared.admission.answered_by(worker);
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        process_shard_batch(worker, replica, batch, &run, shared);
        shared.finish_batch(worker, &replica.engine);
    }));
    match outcome {
        Ok(()) => Served::Done,
        Err(panic) => {
            // The engine may be in an inconsistent state: retire the
            // replica, then give back the admission slots of the jobs
            // this batch owned and never answered, so queue capacity is
            // not permanently shrunk. The per-party reply counter makes
            // the repair exact even while other workers answer their
            // own slices of the same broadcast group. These clients see
            // a timeout rather than a reply. Repair raises the dead
            // flag; the sequencer reaps it at its next submission.
            if let Some(retired) = slot.as_deref_mut() {
                *retired = None;
            }
            drop(slot);
            shared
                .admission
                .repair_panicked(worker, owned, answered_before);
            Served::Panicked(panic)
        }
    }
}

/// Executes one worker's merged batch: first the full mutation prefix
/// in sequence order (every replica applies every mutation; ingests
/// owned by this worker are additionally queued and answered by one
/// flush after the prefix), then this worker's reads — which therefore
/// observe every mutation of this batch and of all earlier batches
/// (worker channels are FIFO), on whatever replica they landed.
fn process_shard_batch(
    worker: usize,
    replica: &mut Replica,
    batch: ShardBatch,
    run: &BatchRun,
    shared: &Shared,
) {
    let Replica {
        engine,
        applied_seq,
    } = replica;
    let mut ingest_handles: Vec<ReplyHandle> = Vec::new();
    for m in batch.mutations {
        debug_assert_eq!(
            m.seq,
            *applied_seq + 1,
            "broadcast must deliver every mutation in sequence order"
        );
        match m.op.as_ref() {
            Op::Ingest {
                features,
                neighbors,
            } => {
                if let Some(handle) = m.handle {
                    // This replica answers: queue for the post-prefix
                    // flush (pending order = sequence order).
                    engine.ingest(features, neighbors);
                    ingest_handles.push(handle);
                } else {
                    engine.apply_replicated_ingest(features, neighbors);
                }
            }
            Op::ObserveEdge { u, v } => {
                let added = engine.apply_replicated_edge(*u, *v);
                if let Some(handle) = &m.handle {
                    shared.respond(
                        worker,
                        handle,
                        Reply::Edge {
                            shard: worker,
                            applied_seq: m.seq,
                            added,
                        },
                    );
                }
            }
            Op::Infer { .. } => unreachable!("reads are never broadcast"),
        }
        *applied_seq = m.seq;
    }
    if !ingest_handles.is_empty() {
        // The flush's stage times are attributed whole to every ingest
        // it answers (each waited for the call).
        let (predictions, timing) = timed(engine, run, |e| e.flush(&run.cfg));
        debug_assert_eq!(predictions.len(), ingest_handles.len());
        for (p, handle) in predictions.iter().zip(&ingest_handles) {
            shared.respond_traced(
                worker,
                handle,
                Reply::Ingest {
                    shard: worker,
                    applied_seq: *applied_seq,
                    node: p.node,
                    prediction: p.prediction,
                    depth: p.depth,
                },
                &timing,
            );
        }
    }
    infer_run(worker, engine, &batch.reads, run, *applied_seq, shared);
}

/// Answers a slice of reads with one coalesced active-set engine call
/// (per-node results are batch-composition independent). Fresh results
/// populate the prediction cache — unless this batch ran under a
/// degraded (load-shed) depth budget, whose answers must never be
/// served later as full-depth ones; the cache's own version guard
/// additionally drops results that a mutation sequenced since has
/// already outdated.
fn infer_run(
    worker: usize,
    engine: &mut StreamingEngine,
    jobs: &[ReadJob],
    run: &BatchRun,
    applied_seq: u64,
    shared: &Shared,
) {
    if jobs.is_empty() {
        return;
    }
    let n = engine.graph().num_nodes() as u32;
    // Validate per job; only valid jobs contribute nodes to the engine
    // call. `spans` keeps (job index, node count) to slice results back.
    // The node bound is the *replicated* graph — reads run after this
    // batch's mutation prefix, so a just-ingested id is in range on
    // every replica.
    let mut nodes: Vec<u32> = Vec::new();
    let mut spans: Vec<(usize, usize)> = Vec::new();
    let mut invalid: Vec<(usize, String)> = Vec::new();
    for (idx, job) in jobs.iter().enumerate() {
        let Op::Infer { nodes: req } = &job.op else {
            unreachable!("read slice contains only infer jobs");
        };
        match req.iter().find(|&&v| v >= n) {
            Some(&bad) => invalid.push((
                idx,
                format!("node {bad} out of range (graph has {n} nodes)"),
            )),
            None => {
                spans.push((idx, req.len()));
                nodes.extend_from_slice(req);
            }
        }
    }
    let (results, timing) = timed(engine, run, |e| e.infer_nodes(&nodes, &run.cfg));
    if !run.degraded {
        if let Some(cache) = &shared.cache {
            // Stamped with the sequence point this replica computed
            // at; the cache's version guard drops any entry a mutation
            // sequenced since then has outdated.
            cache.insert_batch(
                applied_seq,
                nodes
                    .iter()
                    .zip(&results)
                    .map(|(&node, &(prediction, depth))| (node, prediction, depth)),
            );
        }
    }
    let mut offset = 0;
    for (idx, len) in spans {
        let Op::Infer { nodes: req } = &jobs[idx].op else {
            unreachable!();
        };
        let slice = &results[offset..offset + len];
        offset += len;
        let reply = Reply::Infer {
            shard: worker,
            applied_seq,
            results: req
                .iter()
                .zip(slice)
                .map(|(&node, &(prediction, depth))| NodeResult {
                    node,
                    prediction,
                    depth,
                })
                .collect(),
        };
        shared.respond_traced(worker, &jobs[idx].handle, reply, &timing);
    }
    for (idx, message) in invalid {
        shared.respond(worker, &jobs[idx].handle, Reply::Error { message });
    }
}

/// One worker's channel, handed to the caller by
/// [`NaiService::without_workers`] in place of a worker thread.
/// Compiled only under `--cfg nai_model`.
#[cfg(nai_model)]
pub struct WorkerInbox {
    worker: usize,
    rx: Receiver<ShardBatch>,
    shared: Arc<Shared>,
    infer_cfg: InferenceConfig,
    cfg: ServeConfig,
}

#[cfg(nai_model)]
impl NaiService {
    /// The real submit path and sequencer over `workers` worker
    /// channels and no worker threads (seed graph of `seed_nodes`
    /// nodes, feature dimension 1, no cache, no engines — so nothing
    /// can be claimed inline), so the model tests can race submitting
    /// threads and inspect exactly what each worker receives.
    pub fn without_workers(
        workers: usize,
        seed_nodes: usize,
        queue_cap: usize,
    ) -> (Self, Vec<WorkerInbox>) {
        let info = ServiceInfo {
            shards: workers,
            feature_dim: 1,
            k: 1,
            seed_nodes,
        };
        Self::over_inboxes(Vec::new(), info, InferenceConfig::fixed(1), queue_cap)
    }

    /// [`Self::without_workers`] over real engine replicas (no cache),
    /// whose inboxes run batches through the worker's own code
    /// ([`WorkerInbox::serve_queued`]).
    pub fn with_worker_inboxes(
        engines: Vec<StreamingEngine>,
        infer_cfg: InferenceConfig,
        queue_cap: usize,
    ) -> (Self, Vec<WorkerInbox>) {
        let info = ServiceInfo {
            shards: engines.len(),
            feature_dim: engines[0].graph().feature_dim(),
            k: engines[0].k(),
            seed_nodes: engines[0].graph().num_nodes(),
        };
        Self::over_inboxes(engines, info, infer_cfg, queue_cap)
    }

    fn over_inboxes(
        engines: Vec<StreamingEngine>,
        info: ServiceInfo,
        infer_cfg: InferenceConfig,
        queue_cap: usize,
    ) -> (Self, Vec<WorkerInbox>) {
        let cfg = ServeConfig {
            workers: info.shards,
            queue_cap,
            ..ServeConfig::default()
        };
        let shared = Arc::new(Shared::new(&cfg, engines));
        let (txs, inboxes) = (0..info.shards)
            .map(|worker| {
                let (tx, rx) = mpsc::channel();
                let shared = Arc::clone(&shared);
                let inbox = WorkerInbox {
                    worker,
                    rx,
                    shared,
                    infer_cfg,
                    cfg,
                };
                (tx, inbox)
            })
            .unzip();
        let service = Self {
            sequencer: Mutex::new(Some(Sequencer::new(txs, info, None))),
            shared,
            info,
            cfg,
            infer_cfg,
            threads: Mutex::new(Vec::new()),
        };
        (service, inboxes)
    }

    /// Submits one request as the reactor does: a read may be answered
    /// on this thread by a claimed replica. Returns the ticket (already
    /// resolved when answered here) and whether it was.
    ///
    /// # Errors
    /// As [`Self::submit`].
    pub fn submit_inline(&self, req: Request) -> Result<(Ticket, bool), ServeError> {
        self.submit_one(req, true)
    }
}

#[cfg(nai_model)]
impl WorkerInbox {
    /// Blocks for the next batch sent to this worker, answers the jobs
    /// it owns with a stub reply, and returns the sequence numbers of
    /// the batch's mutations in the order received.
    pub fn answer_next(&self) -> Vec<u64> {
        let Ok(batch) = self.rx.recv() else {
            return Vec::new();
        };
        let mut seqs = Vec::new();
        for m in batch.mutations {
            seqs.push(m.seq);
            if let Some(handle) = &m.handle {
                let reply = Reply::Edge {
                    shard: self.worker,
                    applied_seq: m.seq,
                    added: true,
                };
                self.shared.respond(self.worker, handle, reply);
            }
        }
        for r in batch.reads {
            let reply = Reply::Error {
                message: "reads are not modeled".to_string(),
            };
            self.shared.respond(self.worker, &r.handle, reply);
        }
        seqs
    }

    /// Runs every batch already queued for this worker as its thread
    /// would (the replica locked per merged batch), without blocking.
    pub fn serve_queued(&self) {
        while let Ok(batch) = self.rx.try_recv() {
            let served = serve_batch(
                self.worker,
                batch,
                &self.rx,
                &self.shared,
                &self.infer_cfg,
                &self.cfg,
            );
            if !matches!(served, Served::Done) {
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nai_core::config::CacheConfig;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    /// The service runs its workers and nothing else: requests are
    /// sequenced on the thread that submits them, so there is no
    /// batcher thread to hand them to.
    #[test]
    fn service_runs_exactly_one_thread_per_worker() {
        for workers in [1, 3] {
            let cfg = ServeConfig {
                workers,
                ..ServeConfig::default()
            };
            let engines = crate::tests::engine_shards(20, workers, 4);
            let service = NaiService::new(engines, InferenceConfig::fixed(2), cfg).unwrap();
            let threads = lock_recover(&service.threads);
            assert_eq!(threads.len(), cfg.workers);
            for t in threads.iter() {
                let name = t.thread().name().unwrap_or_default();
                assert_ne!(name, "nai-serve-batcher");
                assert!(name.starts_with("nai-serve-worker-"), "{name}");
            }
        }
    }

    /// One deploy freezes one seed: every replica and the cache mirror
    /// hold that allocation, and replicated growth never copies it.
    #[test]
    fn replicas_and_cache_mirror_share_one_seed() {
        let (ckpt, seed) = crate::tests::checkpoint(60, 4);
        let cfg = ServeConfig {
            workers: 3,
            cache: CacheConfig::on(16),
            ..ServeConfig::default()
        };
        let service =
            NaiService::from_checkpoint(&ckpt, &seed, InferenceConfig::fixed(2), cfg).unwrap();
        let features = vec![0.1; seed.feature_dim()];
        for i in 0..20 {
            let op = Op::Ingest {
                features: features.clone(),
                neighbors: vec![i, i + 1],
            };
            service.call(Request { op, shard: None }).unwrap();
        }
        {
            let sequencer = lock_recover(&service.sequencer);
            let inv = sequencer.as_ref().unwrap().invalidator.as_ref().unwrap();
            let mirror = inv.mirror.as_ref().unwrap();
            assert!(mirror.shares_seed(&seed));
            assert_eq!(mirror.num_nodes(), 80);
        }
        let engines = service.into_engines();
        assert_eq!(engines.len(), 3);
        for e in &engines {
            assert!(e.graph().shares_seed(&seed));
            assert_eq!(e.graph().num_nodes(), 80);
        }
    }

    /// Outside fixed-depth mode no mutation's effect is local: a cached
    /// NAP_d deploy keeps no graph mirror, and every mutation flushes the
    /// cache, a duplicate edge included.
    #[test]
    fn nap_d_cache_keeps_no_mirror_and_flushes_on_every_mutation() {
        let (ckpt, seed) = crate::tests::checkpoint(60, 4);
        let cfg = ServeConfig {
            workers: 2,
            cache: CacheConfig::on(16),
            ..ServeConfig::default()
        };
        let infer = InferenceConfig::distance(0.5, 1, 2);
        let service = NaiService::from_checkpoint(&ckpt, &seed, infer, cfg).unwrap();
        {
            let sequencer = lock_recover(&service.sequencer);
            let inv = sequencer.as_ref().unwrap().invalidator.as_ref().unwrap();
            assert!(inv.mirror.is_none());
        }
        let call = |op: Op| service.call(Request { op, shard: None }).unwrap();
        let read = || call(Op::Infer { nodes: vec![1, 2] });
        read();
        read();
        assert_eq!(service.metrics().cache_hits, 1, "the second read hits");
        let u = seed.neighbors(1)[0];
        let reply = call(Op::ObserveEdge { u: 1, v: u });
        assert!(matches!(reply, Reply::Edge { added: false, .. }));
        read();
        let m = service.metrics();
        assert_eq!(
            (m.cache_hits, m.cache_misses),
            (1, 2),
            "the duplicate flushed"
        );
        assert_eq!(m.cache_invalidated, 2);
    }

    /// A NAP_u deploy estimates λ₂ once, over the seed, bit-equal to the
    /// eager estimate replicas used to make at construction, and
    /// answers exactly as a solo engine with that estimate.
    #[test]
    fn nap_u_deploy_answers_as_with_the_eager_lambda2() {
        use nai_graph::{normalized_adjacency, Convolution};
        let (ckpt, seed) = crate::tests::checkpoint(80, 9);
        let eager = normalized_adjacency(&seed.snapshot_csr(), Convolution::Gamma(ckpt.gamma))
            .lambda2_estimate(100, 0x57e4)
            .min(0.999);
        let nap_u = InferenceConfig::upper_bound(0.5, 1, 2);
        let cfg = ServeConfig {
            workers: 2,
            ..ServeConfig::default()
        };
        let service = NaiService::from_checkpoint(&ckpt, &seed, nap_u, cfg).unwrap();
        let (classifiers, gates) = (ckpt.build_classifiers(), ckpt.build_gates());
        let mut oracle = StreamingEngine::new(seed, classifiers, gates, ckpt.gamma);
        assert_eq!(oracle.lambda2().to_bits(), eager.to_bits());
        let nodes: Vec<u32> = (0..80).collect();
        let want = oracle.infer_nodes(&nodes, &nap_u);
        for shard in [Some(0), Some(1)] {
            let op = Op::Infer {
                nodes: nodes.clone(),
            };
            match service.call(Request { op, shard }).unwrap() {
                Reply::Infer { results, .. } => {
                    let got: Vec<(usize, usize)> =
                        results.iter().map(|r| (r.prediction, r.depth)).collect();
                    assert_eq!(got, want, "shard {shard:?}");
                }
                other => panic!("unexpected reply {other:?}"),
            }
        }
        for e in service.into_engines() {
            assert_eq!(e.lambda2().to_bits(), eager.to_bits());
        }
    }

    fn bare_shared(workers: usize, with_cache: bool) -> Shared {
        let cfg = ServeConfig {
            workers,
            queue_cap: 4,
            cache: if with_cache {
                CacheConfig::on(8)
            } else {
                CacheConfig::off()
            },
            ..ServeConfig::default()
        };
        Shared::new(&cfg, crate::tests::engine_shards(20, workers, 4))
    }

    fn poison<T>(m: &Mutex<T>) {
        let r = catch_unwind(AssertUnwindSafe(|| {
            // nai-lint: allow(lock-hygiene) -- this helper poisons the lock
            // on purpose; lock_recover here would defeat the setup.
            let _g = m.lock().unwrap();
            panic!("poison the lock");
        }));
        assert!(r.is_err());
        assert!(m.is_poisoned());
    }

    /// A worker that dies mid-batch poisons its MACs cell; `/metrics`
    /// must still answer — with every histogram sample recorded before
    /// the panic — instead of panicking the scrape thread. (Latency
    /// recording itself is lock-free, so there is no stats lock left
    /// to poison.)
    #[test]
    fn metrics_scrape_survives_a_poisoned_macs_cell() {
        let shared = bare_shared(2, false);
        shared.obs.note_prediction(5_000_000, 1);
        poison(&shared.worker_macs[0].0);
        let snap = shared.snapshot();
        assert_eq!(snap.latency.count(), 1, "pre-panic samples still scraped");
        assert_eq!(snap.depths.exact_small_counts(), vec![0, 1]);
        assert_eq!(snap.queue_depth, 0);
    }

    /// `into_engines` never recovers a replica behind a poisoned lock:
    /// its engine may be mid-update. The other replicas still come
    /// back, in worker order.
    #[test]
    fn take_engines_skips_a_poisoned_replica() {
        let shared = bare_shared(2, false);
        poison(&shared.replicas[0]);
        assert_eq!(shared.take_engines().len(), 1);
        assert!(shared.take_engines().is_empty(), "engines are taken once");
    }

    /// The whole observability path — histograms, MACs cell, and the
    /// admission counters — stays scrapeable when every recoverable
    /// lock is poisoned at once, and a scrape never touches a replica
    /// lock.
    #[test]
    fn snapshot_survives_every_poisoned_lock_at_once() {
        let shared = bare_shared(1, true);
        let macs = MacsBreakdown {
            propagation: 7,
            nap: 3,
            classification: 2,
            replication: 1,
            ..MacsBreakdown::default()
        };
        shared.worker_macs[0].publish(&macs);
        poison(&shared.worker_macs[0].0);
        poison(&shared.replicas[0]);
        let snap = shared.snapshot();
        assert_eq!(snap.macs, macs);
        assert_eq!(snap.cache_hits, 0);
    }
}
