//! The in-process serving engine: admission control and sequencing on
//! the submitting thread, one shared engine, and a pool of reader
//! threads — with reads the reactor may answer on its own thread.
//!
//! ```text
//!   submitting thread (the reactor, or an in-process caller)
//! request ──[cache lookup]──[admission: in-flight ≤ queue_cap]──┐
//!              │ hit                │ Overloaded                 │
//!              ▼                    ▼                            ▼
//!          answered             rejected        lock the Sequencer; if the group holds a
//!          inline                               mutation, write-lock the store: validate,
//!                                               apply, invalidate the cache, refresh; answer
//!                                               edges; route reads (hint or round-robin)
//!                                                     │                  │
//!                          inline share, read on the  │                  │
//!                          submitting thread ◀────────┘   ┌──────────────┼─────────────┐
//!                                                         ▼              ▼             ▼
//!                                                     worker 0      worker 1  …   worker N−1
//!                                         take everything queued (≤ max_batch requests),
//!                                         read-lock the store for one engine call
//! ```
//!
//! **One store**: the service holds one [`StreamingEngine`] and the
//! sequence number of the last mutation applied to it, behind one
//! `RwLock`. The `Sequencer` — one lock shared by every submitting
//! thread — takes the write lock once per group that holds a mutation:
//! it validates each mutation against the store's own graph, gives it
//! the next sequence number, applies it, invalidates the cache, and
//! refreshes the stationary state once before releasing the lock. So
//! each mutation runs once, and a read — which holds the read lock for
//! its engine call — sees whole groups only. An edge is answered as soon
//! as it is applied; an ingest becomes a read of its new id, routed like
//! any other read. Read-your-writes holds with no client routing
//! contract: a read submitted after a mutation's reply takes the read
//! lock after that mutation released the write lock.
//!
//! **Batching** happens in one place, the worker. After a blocking
//! receive it takes every batch already waiting in its channel, up to
//! `max_batch` requests, and runs them together — larger batches
//! amortize the per-call BFS work (the paper's Fig. 5 trade-off).
//! Nothing waits for a batch to fill: a request reaching an idle worker
//! runs at once, and requests arriving while a worker is busy coalesce
//! behind it, so batch size follows load.
//!
//! **Inline reads**: when the reactor submits a group whose requests
//! name no shard, it runs the group's first ⌈g / workers⌉ reads itself
//! once the sequencer lock is released, and sends the rest to the
//! workers — no thread hand-off for a lone read. The store is always
//! caught up, so no read waits for a mutation to reach it.
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
//! Under the write lock, each applied mutation invalidates its dirty
//! frontier (fixed-depth mode, walked over the store's own graph) or
//! flushes everything (globally-dependent NAP modes, or a walk past its
//! budget) as it advances the cache's sequence point — so a reader's
//! later insert, stamped with the sequence point it read at, is
//! version-guarded against every mutation since, and a hit is
//! bit-identical to a cache-bypass run at the same sequence point.
//! Results computed under a degraded (load-shed) depth budget are never
//! inserted.
//!
//! **Panics**: a read holds only a shared reference to the engine, so a
//! panic inside one leaves the store untouched. Inline or on a worker,
//! the batch runs through one function (`Shared::run_batch`) that
//! catches an engine panic, answers the call's reads with a typed error
//! and goes on to the next batch. A panic while applying a mutation
//! (which validation makes unexpected) poisons the store: from then on
//! every request is refused with a typed error.

use crate::admission::AdmissionLedger;
use crate::cache::{Invalidation, VersionedCache};
use crate::obs::ServeObs;
use crate::proto::{NodeResult, Op, Reply, Request};
use crate::sync::atomic::{AtomicU64, Ordering};
use crate::sync::mpsc::{self, Receiver, Sender};
use crate::sync::thread::{self, JoinHandle};
use crate::sync::time::Instant;
use crate::sync::{lock_recover, Arc, Mutex, RwLock};
use nai_core::active::EngineScratch;
use nai_core::checkpoint::ModelCheckpoint;
use nai_core::config::{InferenceConfig, NapMode, ServeConfig};
use nai_core::engine::StreamingEngine;
use nai_core::kernel::{StageTimes, Tally};
use nai_core::macs::MacsBreakdown;
use nai_graph::DynamicGraph;
use nai_obs::{
    CloseReason, HistogramSnapshot, Stage, StageBreakdown, TraceRecord, STAGE_COUNT, TRACE_NODE_CAP,
};
use std::cell::OnceCell;
use std::time::Duration;

/// The typed error every request gets once applying a mutation panicked.
const POISONED: &str = "the graph store is poisoned: applying a mutation panicked";

/// The typed error of a read the engine panicked on.
const READ_PANICKED: &str = "the engine panicked during this read";

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
    /// Worker (reader thread) count; a shard hint names the worker that
    /// answers, and replies carry the one that did.
    pub shards: usize,
    /// Feature dimensionality every ingest must match.
    pub feature_dim: usize,
    /// Highest trained depth.
    pub k: usize,
    /// Node count of the graph the service was deployed on. Ids at or
    /// above this are assigned by sequenced ingests.
    pub seed_nodes: usize,
}

/// A point-in-time view of the service counters (the `/metrics`
/// payload). Latency, depth, stage, and batch-size distributions are
/// [`HistogramSnapshot`]s of the service-wide lock-free histograms
/// (every worker records into the same ones — nothing to merge); MACs
/// are summed over the readers and the store (see
/// [`MetricsSnapshot::macs`]).
#[derive(Debug, Clone)]
pub struct MetricsSnapshot {
    /// Requests currently queued or being served.
    pub queue_depth: usize,
    /// Submissions rejected at the admission bound.
    pub overloaded: u64,
    /// Engine batches run so far (a worker's merged batch that answers
    /// at least one request, or a share of reads answered inline).
    pub batches: u64,
    /// The part of `batches` the reactor ran itself instead of handing
    /// the reads to a worker.
    pub inline_batches: u64,
    /// Engine batches run with a degraded (load-shed) depth budget.
    pub degraded_batches: u64,
    /// Requests answered inside degraded batches (counted per request
    /// when its batch closes, whatever its kind or node count).
    pub shed_ops: u64,
    /// Edge mutations answered (applied once each).
    pub edges_observed: u64,
    /// Per-op validation failures answered.
    pub op_errors: u64,
    /// Predictions answered since the service started (one per node
    /// for `infer`, one per `ingest`), cache hits included.
    pub served: u64,
    /// Reads answered entirely from the prediction cache (request
    /// granularity). 0 when the cache is disabled.
    pub cache_hits: u64,
    /// Reads that consulted the cache and fell through to the engine.
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
    /// inline batches (an inline share runs at once).
    pub closed_on_idle: u64,
    /// Cumulative per-stage MACs, every stage summed: inference stages
    /// (propagation / NAP / classification) over the readers — each
    /// read runs on one — and the `replication` stage from the store,
    /// which applies each mutation once. Totals are therefore
    /// independent of the worker count.
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
/// (a read it answers inline).
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
/// one party (a worker, or the submitting thread for an edge, an inline
/// read or a job it cannot route) answers it, releasing the slot.
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
    /// Worker affinity hint (validated < shards at submit).
    shard: Option<usize>,
    handle: ReplyHandle,
}

/// One read: the nodes of an `infer`, or the new node of an applied
/// ingest, which is answered as [`Reply::Ingest`].
struct ReadJob {
    nodes: Vec<u32>,
    ingest: bool,
    handle: ReplyHandle,
}

impl ReadJob {
    /// This read, answered into a slot on the submitting thread.
    fn answered_here(self) -> Self {
        ReadJob {
            handle: ReplyHandle {
                responder: ReplySink::Inline(OnceCell::new()),
                ..self.handle
            },
            ..self
        }
    }
}

/// Appends every batch already waiting on `rx` to `batch` until the
/// channel is empty or the batch holds `max_batch` reads. Returns why
/// merging stopped.
fn absorb_queued(
    batch: &mut Vec<ReadJob>,
    rx: &Receiver<Vec<ReadJob>>,
    max_batch: usize,
) -> CloseReason {
    while batch.len() < max_batch {
        match rx.try_recv() {
            Ok(next) => batch.extend(next),
            // Empty — or disconnected at shutdown, in which case the
            // next `recv` ends the worker after this batch.
            Err(_) => return CloseReason::Idle,
        }
    }
    CloseReason::MaxBatch
}

/// How a batch of reads runs, fixed when the batch closes.
struct BatchRun {
    /// The base inference config, or its load-shed degradation.
    cfg: InferenceConfig,
    /// Run under a load-shed (capped-depth) budget: results are honest
    /// answers but must never be cached as full-depth ones.
    degraded: bool,
    /// When the reader took the batch: the end of `queue_wait` and the
    /// start of `batch_wait`.
    dequeued: Instant,
    /// Requests the batch answers — reported in traces.
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
    /// The reader's stage-time delta across the call.
    engine: StageTimes,
}

/// One party's cumulative per-stage MACs, published as a single
/// consistent snapshot after each batch (or group of mutations).
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

    /// Overwrites the published breakdown with the party's current
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

/// The service's one engine and the sequence point it has reached.
struct Store {
    engine: StreamingEngine,
    /// Sequence number of the last mutation applied (0 = deployed
    /// state); exported in replies as `applied_seq`.
    applied_seq: u64,
}

/// What a mutation became once applied.
enum Applied {
    /// An ingest: its new node, answered by a read of it.
    Ingest(u32),
    /// An edge, answered at once.
    Edge { seq: u64, added: bool },
}

impl Store {
    /// Validates `op` against the store's own graph, applies it as the
    /// next sequence point, and invalidates what it changed in the
    /// cache. A mutation that fails validation changes nothing and takes
    /// no sequence number.
    fn apply(
        &mut self,
        op: &Op,
        invalidator: Option<&CacheInvalidator>,
        cache: Option<&VersionedCache>,
    ) -> Result<Applied, String> {
        validate(self.engine.graph(), op)?;
        let seq = self.applied_seq + 1;
        let edge: [u32; 2];
        // The touched nodes; `None` when the graph did not change (a
        // duplicate edge). An arrival is not cached yet: only its
        // attachment points change.
        let (applied, touched) = match op {
            Op::Ingest {
                features,
                neighbors,
            } => {
                let node = self.engine.apply_replicated_ingest(features, neighbors);
                (Applied::Ingest(node), Some(neighbors.as_slice()))
            }
            Op::ObserveEdge { u, v } => {
                let added = self.engine.apply_replicated_edge(*u, *v);
                edge = [*u, *v];
                (Applied::Edge { seq, added }, added.then_some(&edge[..]))
            }
            Op::Infer { .. } => unreachable!("reads are not sequenced"),
        };
        self.applied_seq = seq;
        if let (Some(inv), Some(cache)) = (invalidator, cache) {
            // One lock acquisition for eviction + advance; readers are
            // shut out meanwhile, so every later insert is stamped with
            // this sequence point or a later one.
            cache.sequence_mutation(seq, inv.invalidation(self.engine.graph(), touched));
        }
        Ok(applied)
    }
}

/// Checks a mutation against `graph` before it is applied.
fn validate(graph: &DynamicGraph, op: &Op) -> Result<(), String> {
    let n = graph.num_nodes() as u64;
    match op {
        Op::Ingest {
            features,
            neighbors,
        } => {
            if features.len() != graph.feature_dim() {
                return Err(format!(
                    "feature length {} does not match graph dimension {}",
                    features.len(),
                    graph.feature_dim()
                ));
            }
            if features.iter().any(|x| !x.is_finite()) {
                // One inf/NaN feature would poison the incremental
                // stationary accumulators for every later request —
                // reject it at the door.
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

/// What one reading thread owns: its workspace, and the MACs and stage
/// times of every read it ran.
#[derive(Default)]
struct Reader {
    scratch: EngineScratch,
    tally: Tally,
}

struct Shared {
    /// In-flight slot accounting (the model tests check its invariant).
    admission: AdmissionLedger,
    cfg: ServeConfig,
    /// The base inference config every batch runs under (or its
    /// load-shed degradation).
    infer_cfg: InferenceConfig,
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
    /// the submit path (lookup / miss counting), under the store's
    /// write lock (invalidation + sequence advance), and by readers
    /// (inserts, after their read lock is released).
    cache: Option<VersionedCache>,
    /// Per-worker read MACs, overwritten after each batch from the
    /// worker's own tally — atomically, so scrapes never tear.
    worker_macs: Vec<MacsCell>,
    /// The read MACs of the reads submitting threads run inline.
    inline_macs: MacsCell,
    /// The store's mutation MACs, overwritten after each group of
    /// mutations.
    store_macs: MacsCell,
    /// The one engine. Lock order: the sequencer lock, then this one;
    /// the cache and the completion queues are leaf locks.
    store: RwLock<Store>,
}

impl Shared {
    fn new(cfg: ServeConfig, infer_cfg: InferenceConfig, engine: StreamingEngine) -> Self {
        Shared {
            admission: AdmissionLedger::new(cfg.queue_cap),
            cfg,
            infer_cfg,
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
            inline_macs: MacsCell::new(),
            store_macs: MacsCell::new(),
            store: RwLock::new(Store {
                engine,
                applied_seq: 0,
            }),
        }
    }

    /// Runs one batch of reads on `reader` — a worker's merged batch, or
    /// an inline share — reported as worker `shard`, then publishes the
    /// reader's MACs to `macs`. The batch closes here, so the load-shed
    /// decision is made here: `in_flight` counts this batch and
    /// everything queued behind it.
    fn run_batch(
        &self,
        shard: usize,
        jobs: &[ReadJob],
        close: CloseReason,
        reader: &mut Reader,
        macs: &MacsCell,
    ) {
        let degraded = self
            .cfg
            .shed
            .engaged(self.admission.in_flight(), self.cfg.queue_cap);
        let run = BatchRun {
            cfg: if degraded {
                self.cfg.shed.degrade(&self.infer_cfg)
            } else {
                self.infer_cfg
            },
            degraded,
            dequeued: Instant::now(),
            size: jobs.len() as u32,
            close,
        };
        // Relaxed on the batch counters: monotone, scrape-only.
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.obs.note_batch(run.size, run.close);
        if run.degraded {
            let shed = jobs.len() as u64;
            // Relaxed: monotone shed counters, scrape-only.
            self.degraded_batches.fetch_add(1, Ordering::Relaxed);
            self.shed_ops.fetch_add(shed, Ordering::Relaxed);
        }
        read_run(shard, jobs, &run, self, reader);
        macs.publish(&reader.tally.macs);
    }

    /// Answers a job with a typed error.
    fn refuse(&self, handle: &ReplyHandle, message: String) {
        self.respond(handle, Reply::Error { message });
    }

    fn respond(&self, handle: &ReplyHandle, reply: Reply) {
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
        self.admission.note_answered();
        handle.responder.deliver(reply);
    }

    /// [`Self::respond`] for replies that carry predictions: stamps the
    /// request's full stage timeline into the histograms and the flight
    /// recorder first. Only `Infer` and `Ingest` replies come through
    /// here; error and edge paths answer via plain `respond` (no
    /// latency sample — same as the exact accumulator recorded).
    fn respond_traced(&self, handle: &ReplyHandle, reply: Reply, timing: &BatchTiming) {
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
        self.respond(handle, reply);
    }

    /// Merged counters, latency statistics, and MACs — the `/metrics`
    /// body, on `Shared` so observability needs no service handle (and
    /// the poison unit tests can drive a bare `Shared`). Every lock on
    /// this path recovers from poison, and none is the store's: a panicked
    /// thread or a poisoned store must not take monitoring down.
    fn snapshot(&self) -> MetricsSnapshot {
        // Each read runs on one reader and each mutation once on the
        // store: every stage is a plain sum.
        let mut macs = MacsBreakdown::default();
        for cell in self
            .worker_macs
            .iter()
            .chain([&self.inline_macs, &self.store_macs])
        {
            macs.add(&cell.snapshot());
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
    /// The workspace and tally of the reads submitting threads run
    /// inline.
    inline_reader: Mutex<Reader>,
    info: ServiceInfo,
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

/// The reads of a group the submitting thread runs itself, each with
/// its index in the group, and the worker they are reported as.
struct InlineShare {
    shard: usize,
    reads: Vec<(usize, ReadJob)>,
}

impl NaiService {
    /// Deploys the service over `engine`, which every worker reads and
    /// the sequencer mutates.
    ///
    /// # Errors
    /// Returns a description when `cfg` fails validation or `infer_cfg`
    /// is invalid for the engine's trained depth.
    pub fn new(
        engine: StreamingEngine,
        infer_cfg: InferenceConfig,
        cfg: ServeConfig,
    ) -> Result<Self, String> {
        cfg.validate()?;
        let k = engine.k();
        infer_cfg.validate(k)?;
        // Only NAP_u reads λ₂. Force it here, not on the first read; load
        // shedding caps depth but never changes the mode, so no other
        // mode ever pays for the estimate.
        if matches!(infer_cfg.nap, NapMode::UpperBound { .. }) {
            engine.lambda2();
        }
        let info = ServiceInfo {
            shards: cfg.workers,
            feature_dim: engine.graph().feature_dim(),
            k,
            seed_nodes: engine.graph().num_nodes(),
        };
        let invalidator = cfg.cache.enabled.then_some(CacheInvalidator {
            local: matches!(infer_cfg.nap, NapMode::Fixed),
            radius: infer_cfg.t_max,
            budget: cfg.cache.frontier_budget,
        });
        let shared = Arc::new(Shared::new(cfg, infer_cfg, engine));

        let mut threads = Vec::with_capacity(cfg.workers);
        let mut worker_txs = Vec::with_capacity(cfg.workers);
        for w in 0..cfg.workers {
            let (wtx, wrx) = mpsc::channel::<Vec<ReadJob>>();
            worker_txs.push(wtx);
            let shared_w = Arc::clone(&shared);
            threads.push(
                thread::Builder::new()
                    .name(format!("nai-serve-worker-{w}"))
                    .spawn(move || worker_loop(w, wrx, shared_w))
                    // nai-lint: allow(hot-path-panic) -- spawn fails only on
                    // OS resource exhaustion during service construction.
                    .expect("spawn worker thread"),
            );
        }

        Ok(Self {
            sequencer: Mutex::new(Some(Sequencer {
                worker_txs,
                rr: 0,
                invalidator,
            })),
            shared,
            inline_reader: Mutex::new(Reader::default()),
            info,
            threads: Mutex::new(threads),
        })
    }

    /// Deploys one engine built from `ckpt` over `seed` (which it shares
    /// the frozen seed of, see [`DynamicGraph`]).
    ///
    /// # Errors
    /// As [`Self::new`].
    pub fn from_checkpoint(
        ckpt: &ModelCheckpoint,
        seed: &DynamicGraph,
        infer_cfg: InferenceConfig,
        cfg: ServeConfig,
    ) -> Result<Self, String> {
        Self::new(
            StreamingEngine::from_checkpoint(ckpt, seed.clone()),
            infer_cfg,
            cfg,
        )
    }

    /// Static deployment facts.
    pub fn info(&self) -> ServiceInfo {
        self.info
    }

    /// The serving configuration this service runs under.
    pub fn config(&self) -> ServeConfig {
        self.shared.cfg
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
    /// admitted ones are then sequenced, applied and routed under one
    /// acquisition of the sequencer lock.
    ///
    /// With `inline` (the reactor's submissions), a group whose requests
    /// name no shard has its first ⌈g / workers⌉ reads (ingests' reads
    /// included) run on this thread after the lock is released, while
    /// the rest go to the workers (see [`Sequencer::dispatch`]).
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
        // A panic while sequencing may have left a job unanswered, so a
        // poisoned sequencer takes no more work, as after shutdown.
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
        let share = seq.dispatch(jobs, &self.shared, inline);
        drop(sequencer);
        // Counted once the reads are routed, so hits + misses == reads
        // that consulted the cache.
        if let Some(cache) = &self.shared.cache {
            for _ in 0..misses {
                cache.note_miss();
            }
        }
        if let Some(InlineShare { shard, reads }) = share {
            let (at, reads): (Vec<usize>, Vec<ReadJob>) = reads.into_iter().unzip();
            for (i, reply) in at.into_iter().zip(self.run_inline(shard, reads)) {
                outcomes[job_outcome[i]] = reply.map(Some).ok_or(ServeError::Timeout);
            }
        }
        outcomes
    }

    /// Runs an inline share of reads on this thread, as a worker runs a
    /// batch, and returns each read's reply in order.
    fn run_inline(&self, shard: usize, reads: Vec<ReadJob>) -> Vec<Option<Reply>> {
        let shared = &*self.shared;
        // Relaxed: monotone, scrape-only.
        shared.inline_batches.fetch_add(1, Ordering::Relaxed);
        let mut reader = lock_recover(&self.inline_reader);
        // Everything in the share is aboard and runs at once.
        shared.run_batch(
            shard,
            &reads,
            CloseReason::Idle,
            &mut reader,
            &shared.inline_macs,
        );
        drop(reader);
        reads
            .into_iter()
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
        // engine work. The entries' version guard makes the answer
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
    /// (or worker 0): no worker did any work, but the field must name
    /// a valid one.
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
    /// snapshots every histogram).
    pub fn queue_depth(&self) -> usize {
        self.shared.admission.in_flight()
    }

    /// Merged counters, latency statistics, and MACs. Every lock on
    /// this path recovers from poison, so `/metrics` keeps answering
    /// after a panic.
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

    /// [`Self::shutdown`], then hands back the engine — the state
    /// hand-off for re-checkpointing, and the tests' oracle. `None` when
    /// the store is poisoned: a mutation panicked mid-apply, so the
    /// engine may be inconsistent.
    pub fn into_engine(self) -> Option<StreamingEngine> {
        self.shutdown();
        // The workers are joined, so once `self` is gone this is the
        // last handle on the shared state.
        let shared = Arc::clone(&self.shared);
        drop(self);
        let store = Arc::try_unwrap(shared).ok()?.store.into_inner().ok()?;
        Some(store.engine)
    }
}

impl Drop for NaiService {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// How an applied mutation invalidates the prediction cache.
struct CacheInvalidator {
    /// Whether a mutation's effect on predictions is local to its
    /// `radius`-hop neighborhood: fixed-depth propagation only. Every
    /// other NAP mode consults the stationary row of the node's
    /// component, which a mutation anywhere in it changes, or NAP_u's
    /// global `2m + n` — no local frontier is sound there, so they flush
    /// the cache on every mutation, duplicate edges included.
    local: bool,
    /// Walk radius: the base (undegraded) `t_max`, the largest depth
    /// bound any cached entry can carry.
    radius: usize,
    /// Visited-node budget beyond which the walk falls back to a flush.
    budget: usize,
}

impl CacheInvalidator {
    /// What a mutation that touched `touched` (`None`: the graph did not
    /// change) evicts. The walk runs on the *post-mutation* `graph`:
    /// edge additions only shrink hop distances, so the new adjacency
    /// reaches every node whose old ≤`radius`-hop computation involved
    /// the touched region.
    fn invalidation(&self, graph: &DynamicGraph, touched: Option<&[u32]>) -> Invalidation {
        if !self.local {
            return Invalidation::Flush;
        }
        match touched {
            // Nothing changed, or an isolated arrival touched no
            // existing adjacency.
            None | Some([]) => Invalidation::Untouched,
            Some(seeds) => graph
                .k_hop_frontier(seeds, self.radius, self.budget)
                .map_or(Invalidation::Flush, Invalidation::Frontier),
        }
    }
}

/// The state every submitting thread shares, behind
/// `NaiService::sequencer`'s lock: it applies each group's mutations to
/// the store, answers its edges, routes its reads, and sends each
/// worker its share.
struct Sequencer {
    /// One sender per worker. Dropping them (at shutdown) ends each
    /// worker once it has answered what is queued for it.
    worker_txs: Vec<Sender<Vec<ReadJob>>>,
    rr: usize,
    /// Present iff the prediction cache is enabled.
    invalidator: Option<CacheInvalidator>,
}

impl Sequencer {
    /// Picks the answering worker: the affinity hint, or else the next
    /// worker round-robin, passing over `skip` (the worker an inline
    /// share is reported as) when there is another.
    fn route(&mut self, hint: Option<usize>, skip: Option<usize>) -> usize {
        if let Some(s) = hint {
            return s;
        }
        let workers = self.worker_txs.len();
        let mut s = self.rr % workers;
        if Some(s) == skip && workers > 1 {
            self.rr += 1;
            s = self.rr % workers;
        }
        self.rr += 1;
        s
    }

    /// Applies the mutations among `jobs` to the store, in order, under
    /// one write lock — taken only if there is one — then refreshes the
    /// stationary state and publishes the store's MACs. Returns one
    /// outcome per mutation. When the store is poisoned — by a panic
    /// while applying, now or before — every mutation is refused, and
    /// the cache is emptied and frozen so that no read is answered
    /// past the store either.
    fn apply(&self, jobs: &[Job], shared: &Shared) -> Vec<Result<Applied, String>> {
        let mutations = jobs.iter().filter(|j| !matches!(j.op, Op::Infer { .. }));
        let count = mutations.clone().count();
        if count == 0 {
            return Vec::new();
        }
        let cache = shared.cache.as_ref();
        // The guard lives inside the closure, so a panic unwinds
        // through it and poisons the store.
        let applied = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut store = shared.store.write().ok()?;
            let applied: Vec<_> = mutations
                .map(|job| store.apply(&job.op, self.invalidator.as_ref(), cache))
                .collect();
            store.engine.refresh();
            shared.store_macs.publish(&store.engine.macs_breakdown());
            Some(applied)
        }));
        if let Ok(Some(applied)) = applied {
            return applied;
        }
        if let Some(cache) = cache {
            cache.sequence_mutation(u64::MAX, Invalidation::Flush);
        }
        (0..count).map(|_| Err(POISONED.to_string())).collect()
    }

    /// Applies one group of admitted jobs (see [`Self::apply`]), answers
    /// its edges and invalid mutations, and routes its reads — an
    /// applied ingest becomes a read of its new id. With `inline`, a
    /// group that names no shard keeps its first ⌈g / workers⌉ reads for
    /// the submitting thread, reported as the next worker round-robin;
    /// the other reads pass over that worker. Each worker is sent its
    /// share.
    fn dispatch(&mut self, jobs: Vec<Job>, shared: &Shared, inline: bool) -> Option<InlineShare> {
        let hint_free = jobs.iter().all(|j| j.shard.is_none());
        let mut applied = self.apply(&jobs, shared).into_iter();
        // (index in the group, hint, read), in group order.
        let mut reads = Vec::with_capacity(jobs.len());
        for (i, Job { op, shard, handle }) in jobs.into_iter().enumerate() {
            let (nodes, ingest) = match op {
                Op::Infer { nodes } => (nodes, false),
                _ => match applied.next() {
                    Some(Ok(Applied::Ingest(node))) => (vec![node], true),
                    Some(Ok(Applied::Edge { seq, added })) => {
                        let reply = Reply::Edge {
                            shard: shard.unwrap_or(0),
                            applied_seq: seq,
                            added,
                        };
                        shared.respond(&handle, reply);
                        continue;
                    }
                    Some(Err(message)) => {
                        shared.refuse(&handle, message);
                        continue;
                    }
                    None => unreachable!("one outcome per mutation"),
                },
            };
            let read = ReadJob {
                nodes,
                ingest,
                handle,
            };
            reads.push((i, shard, read));
        }

        let mut share = None;
        if inline && hint_free && !reads.is_empty() {
            let shard = self.route(None, None);
            let rest = reads.split_off(reads.len().div_ceil(self.worker_txs.len()));
            let mine = std::mem::replace(&mut reads, rest);
            share = Some(InlineShare {
                shard,
                reads: mine
                    .into_iter()
                    .map(|(i, _, read)| (i, read.answered_here()))
                    .collect(),
            });
        }
        let skip = share.as_ref().map(|s| s.shard);
        let mut batches: Vec<Vec<ReadJob>> = self.worker_txs.iter().map(|_| Vec::new()).collect();
        for (_, hint, read) in reads {
            batches[self.route(hint, skip)].push(read);
        }
        for (w, (tx, batch)) in self.worker_txs.iter().zip(batches).enumerate() {
            if batch.is_empty() {
                continue;
            }
            if let Err(unsent) = tx.send(batch) {
                // The worker thread is gone (a panic outside an engine
                // call): answer its reads, so their clients see a typed
                // error instead of a timeout and no admission slot leaks.
                for read in unsent.0 {
                    shared.refuse(&read.handle, format!("shard {w} worker is gone"));
                }
            }
        }
        share
    }
}

fn worker_loop(worker: usize, rx: Receiver<Vec<ReadJob>>, shared: Arc<Shared>) {
    let mut reader = Reader::default();
    while let Ok(batch) = rx.recv() {
        serve_batch(worker, batch, &rx, &shared, &mut reader);
    }
}

/// Merges everything queued behind `batch` and runs it on `reader`.
/// Returns the number of reads answered.
fn serve_batch(
    worker: usize,
    mut batch: Vec<ReadJob>,
    rx: &Receiver<Vec<ReadJob>>,
    shared: &Shared,
    reader: &mut Reader,
) -> usize {
    let close = absorb_queued(&mut batch, rx, shared.cfg.max_batch);
    let macs = &shared.worker_macs[worker];
    shared.run_batch(worker, &batch, close, reader, macs);
    batch.len()
}

/// Answers a batch of reads, reported as worker `shard`, with one
/// coalesced engine call on `reader` (per-node results are
/// batch-composition independent). The store's read lock covers the
/// node-range check and the engine call only. A panic in the engine call
/// leaves the store untouched (a read holds a shared reference, and the
/// engine drops the scratch the panic unwound through): each read of the
/// call is answered with a typed error. Fresh results populate the
/// prediction cache — unless this batch ran under a degraded (load-shed)
/// depth budget, whose answers must never be served later as full-depth
/// ones; the cache's own version guard additionally drops results that a
/// mutation applied since has already outdated.
fn read_run(shard: usize, jobs: &[ReadJob], run: &BatchRun, shared: &Shared, reader: &mut Reader) {
    let Ok(store) = shared.store.read() else {
        for job in jobs {
            shared.refuse(&job.handle, POISONED.to_string());
        }
        return;
    };
    let n = store.engine.graph().num_nodes() as u32;
    // Validate per job; only valid jobs contribute nodes to the engine
    // call. `spans` keeps (job index, node count) to slice results back.
    let mut nodes: Vec<u32> = Vec::new();
    let mut spans: Vec<(usize, usize)> = Vec::new();
    let mut invalid: Vec<(usize, String)> = Vec::new();
    for (idx, job) in jobs.iter().enumerate() {
        match job.nodes.iter().find(|&&v| v >= n) {
            Some(&bad) => invalid.push((
                idx,
                format!("node {bad} out of range (graph has {n} nodes)"),
            )),
            None => {
                spans.push((idx, job.nodes.len()));
                nodes.extend_from_slice(&job.nodes);
            }
        }
    }
    // The reader attributes its interior to stages cumulatively; the
    // before/after delta is this call's share.
    let stages_before = reader.tally.times;
    let engine_start = Instant::now();
    let read = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let Reader { scratch, tally } = reader;
        store.engine.read_nodes(&nodes, &run.cfg, scratch, tally)
    }));
    let engine_end = Instant::now();
    let applied_seq = store.applied_seq;
    drop(store);
    for (idx, message) in invalid {
        shared.refuse(&jobs[idx].handle, message);
    }
    let Ok(results) = read else {
        for (idx, _) in spans {
            shared.refuse(&jobs[idx].handle, READ_PANICKED.to_string());
        }
        return;
    };
    let timing = BatchTiming {
        run,
        engine_start,
        engine_end,
        engine: reader.tally.times.since(&stages_before),
    };
    if !run.degraded {
        if let Some(cache) = &shared.cache {
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
        let job = &jobs[idx];
        let slice = &results[offset..offset + len];
        offset += len;
        let reply = if job.ingest {
            let (prediction, depth) = slice[0];
            Reply::Ingest {
                shard,
                applied_seq,
                node: job.nodes[0],
                prediction,
                depth,
            }
        } else {
            Reply::Infer {
                shard,
                applied_seq,
                results: job
                    .nodes
                    .iter()
                    .zip(slice)
                    .map(|(&node, &(prediction, depth))| NodeResult {
                        node,
                        prediction,
                        depth,
                    })
                    .collect(),
            }
        };
        shared.respond_traced(&job.handle, reply, &timing);
    }
}

/// One worker's channel, handed to the caller by
/// [`NaiService::with_worker_inboxes`] in place of a worker thread.
/// Compiled only under `--cfg nai_model`.
#[cfg(nai_model)]
pub struct WorkerInbox {
    worker: usize,
    rx: Receiver<Vec<ReadJob>>,
    shared: Arc<Shared>,
    reader: Reader,
}

#[cfg(nai_model)]
impl NaiService {
    /// The real submit path, sequencer and store over `engine`, with
    /// `workers` worker channels and no worker threads (no cache), so
    /// the model tests can race submitting threads and run each worker's
    /// batches where they choose.
    pub fn with_worker_inboxes(
        engine: StreamingEngine,
        infer_cfg: InferenceConfig,
        workers: usize,
        queue_cap: usize,
    ) -> (Self, Vec<WorkerInbox>) {
        let info = ServiceInfo {
            shards: workers,
            feature_dim: engine.graph().feature_dim(),
            k: engine.k(),
            seed_nodes: engine.graph().num_nodes(),
        };
        let cfg = ServeConfig {
            workers,
            queue_cap,
            ..ServeConfig::default()
        };
        let shared = Arc::new(Shared::new(cfg, infer_cfg, engine));
        let (worker_txs, inboxes) = (0..workers)
            .map(|worker| {
                let (tx, rx) = mpsc::channel();
                let inbox = WorkerInbox {
                    worker,
                    rx,
                    shared: Arc::clone(&shared),
                    reader: Reader::default(),
                };
                (tx, inbox)
            })
            .unzip();
        let service = Self {
            sequencer: Mutex::new(Some(Sequencer {
                worker_txs,
                rr: 0,
                invalidator: None,
            })),
            shared,
            inline_reader: Mutex::new(Reader::default()),
            info,
            threads: Mutex::new(Vec::new()),
        };
        (service, inboxes)
    }

    /// Submits one request as the reactor does: a read may be answered
    /// on this thread. Returns the ticket (already resolved when
    /// answered here) and whether it was.
    ///
    /// # Errors
    /// As [`Self::submit`].
    pub fn submit_inline(&self, req: Request) -> Result<(Ticket, bool), ServeError> {
        self.submit_one(req, true)
    }

    /// Submits `reqs` as one group, as the reactor submits the lines of
    /// one parse pass, but with nothing run inline; one ticket per
    /// request (an error outcome resolves its ticket as an error reply).
    pub fn submit_all(&self, reqs: Vec<Request>) -> Vec<Ticket> {
        let (sinks, tickets): (Vec<_>, Vec<_>) = reqs
            .iter()
            .map(|_| {
                let (tx, rx) = mpsc::channel();
                (tx, Ticket { rx })
            })
            .unzip();
        let group = reqs
            .into_iter()
            .zip(&sinks)
            .map(|(req, tx)| (req, 0, ReplySink::Channel(tx.clone())))
            .collect();
        for (outcome, tx) in self.submit_group(group, false).into_iter().zip(&sinks) {
            if let Err(e) = outcome {
                drop(tx.send(Reply::Error {
                    message: e.to_string(),
                }));
            }
        }
        tickets
    }
}

#[cfg(nai_model)]
impl Ticket {
    /// Blocks for the reply with no deadline: under the model checker,
    /// [`Self::wait`] only finds a reply that has already arrived.
    ///
    /// # Errors
    /// [`ServeError::ShuttingDown`] if the reply can never arrive.
    pub fn wait_blocking(self) -> Result<Reply, ServeError> {
        self.rx.recv().map_err(|_| ServeError::ShuttingDown)
    }
}

#[cfg(nai_model)]
impl WorkerInbox {
    /// Blocks for the next batch sent to this worker and runs it, with
    /// whatever is queued behind it, as the worker thread would.
    /// Returns the number of reads answered.
    pub fn serve_next(&mut self) -> usize {
        match self.rx.recv() {
            Ok(batch) => self.serve(batch),
            Err(_) => 0,
        }
    }

    /// Runs every batch already queued for this worker, without
    /// blocking.
    pub fn serve_queued(&mut self) {
        while let Ok(batch) = self.rx.try_recv() {
            self.serve(batch);
        }
    }

    fn serve(&mut self, batch: Vec<ReadJob>) -> usize {
        serve_batch(self.worker, batch, &self.rx, &self.shared, &mut self.reader)
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
            let engine = crate::tests::engine(20, 4);
            let service = NaiService::new(engine, InferenceConfig::fixed(2), cfg).unwrap();
            let threads = lock_recover(&service.threads);
            assert_eq!(threads.len(), cfg.workers);
            for t in threads.iter() {
                let name = t.thread().name().unwrap_or_default();
                assert_ne!(name, "nai-serve-batcher");
                assert!(name.starts_with("nai-serve-worker-"), "{name}");
            }
        }
    }

    /// One deploy freezes one seed: the store's engine reads it in place
    /// through every mutation, whatever the worker count.
    #[test]
    fn the_store_shares_the_deployed_seed_through_growth() {
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
        let engine = service.into_engine().unwrap();
        assert!(engine.graph().shares_seed(&seed));
        assert_eq!(engine.graph().num_nodes(), 80);
    }

    /// Outside fixed-depth mode no mutation's effect is local: every
    /// mutation flushes the cache, a duplicate edge included.
    #[test]
    fn nap_d_cache_flushes_on_every_mutation() {
        let (ckpt, seed) = crate::tests::checkpoint(60, 4);
        let cfg = ServeConfig {
            workers: 2,
            cache: CacheConfig::on(16),
            ..ServeConfig::default()
        };
        let infer = InferenceConfig::distance(0.5, 1, 2);
        let service = NaiService::from_checkpoint(&ckpt, &seed, infer, cfg).unwrap();
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
    /// eager estimate engines used to make at construction, and answers
    /// exactly as a solo engine with that estimate.
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
        let engine = service.into_engine().unwrap();
        assert_eq!(engine.lambda2().to_bits(), eager.to_bits());
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
        Shared::new(cfg, InferenceConfig::fixed(2), crate::tests::engine(20, 4))
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

    /// Poisons the store as a panic while applying a mutation would.
    fn poison_store(store: &RwLock<Store>) {
        let r = catch_unwind(AssertUnwindSafe(|| {
            let _g = store.write().unwrap();
            panic!("poison the store");
        }));
        assert!(r.is_err());
        assert!(store.is_poisoned());
    }

    /// A panic while a MACs cell is locked poisons it; `/metrics`
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

    /// `into_engine` never recovers a poisoned store: a mutation
    /// panicked mid-apply, so its engine may be inconsistent.
    #[test]
    fn into_engine_never_recovers_a_poisoned_store() {
        let cfg = ServeConfig {
            workers: 2,
            ..ServeConfig::default()
        };
        let service =
            NaiService::new(crate::tests::engine(20, 4), InferenceConfig::fixed(2), cfg).unwrap();
        poison_store(&service.shared.store);
        assert!(service.into_engine().is_none());
    }

    /// Once the store is poisoned every request is refused with a typed
    /// error — reads inline and on the workers, mutations, and reads the
    /// cache held answers for — and every admission slot comes back.
    #[test]
    fn a_poisoned_store_refuses_every_request_with_a_typed_error() {
        let cfg = ServeConfig {
            workers: 2,
            cache: CacheConfig::on(16),
            ..ServeConfig::default()
        };
        let service =
            NaiService::new(crate::tests::engine(20, 4), InferenceConfig::fixed(2), cfg).unwrap();
        let read = || Request {
            op: Op::Infer { nodes: vec![3] },
            shard: None,
        };
        assert!(matches!(service.call(read()), Ok(Reply::Infer { .. })));
        // The second read of node 3 would hit; a mutation that poisons
        // the store must also empty the cache for good.
        let edge = Request {
            op: Op::ObserveEdge { u: 0, v: 19 },
            shard: None,
        };
        poison_store(&service.shared.store);
        match service.call(edge) {
            Ok(Reply::Error { message }) => assert_eq!(message, POISONED),
            other => panic!("expected a typed error, got {other:?}"),
        }
        for (i, (reply, _)) in [
            service.submit_one(read(), false),
            service.submit_one(read(), true),
        ]
        .into_iter()
        .map(Result::unwrap)
        .enumerate()
        {
            match reply.wait(Duration::from_secs(5)) {
                Ok(Reply::Error { message }) => assert_eq!(message, POISONED, "read {i}"),
                other => panic!("read {i}: expected a typed error, got {other:?}"),
            }
        }
        assert_eq!(
            service.metrics().cache_hits,
            0,
            "the cache answered nothing"
        );
        assert_eq!(service.queue_depth(), 0, "every admission slot came back");
    }

    /// The whole observability path — histograms, MACs cells, and the
    /// admission counters — stays scrapeable when every recoverable
    /// lock is poisoned at once, and a scrape never touches the store.
    #[test]
    fn snapshot_survives_every_poisoned_lock_at_once() {
        let shared = bare_shared(1, true);
        let macs = MacsBreakdown {
            propagation: 7,
            nap: 3,
            classification: 2,
            ..MacsBreakdown::default()
        };
        let applied = MacsBreakdown {
            replication: 1,
            ..MacsBreakdown::default()
        };
        shared.worker_macs[0].publish(&macs);
        shared.store_macs.publish(&applied);
        poison(&shared.worker_macs[0].0);
        poison(&shared.store_macs.0);
        poison_store(&shared.store);
        let snap = shared.snapshot();
        assert_eq!(
            snap.macs,
            MacsBreakdown {
                replication: 1,
                ..macs
            }
        );
        assert_eq!(snap.cache_hits, 0);
    }
}
