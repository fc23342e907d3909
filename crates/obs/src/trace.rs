//! Request-lifecycle stage spans.
//!
//! A served prediction crosses seven stages, stamped by the serve
//! crate and aggregated here:
//!
//! | stage | span |
//! |-------|------|
//! | `parse` | transport ingress: request bytes read off the socket → parsed op submitted for admission (zero for in-process callers, which skip the transport) |
//! | `queue_wait` | admission (`submit`) → the answering worker takes the request off its channel (sequencing, routing, channel transit, waiting behind the worker's current batch) |
//! | `batch_wait` | worker dequeue → the worker's engine call starts (the merged batch's mutation prefix and batch-mates' ingest flush) |
//! | `engine_propagation` | feature propagation inside the engine: BFS support planning, stationary rows, per-hop SpMM steps, frontier shrinking |
//! | `engine_nap` | node-adaptive propagation exit decisions (distance / gate / upper-bound tests) |
//! | `engine_classify` | per-depth classifier forward passes and exit gathers |
//! | `serialize` | engine call returns → reply handed to the transport |
//!
//! The spans tile the request's lifetime: parse + queue_wait +
//! batch_wait + engine stages + serialize equals end-to-end latency
//! (measured from transport ingress when the request came over a
//! socket, from admission otherwise) up to the
//! engine's un-attributed glue (scratch swaps, validation — tens of
//! nanoseconds). The end-to-end accounting test in
//! `tests/observability.rs` holds the sum of mean stage times to
//! within 10% of the mean end-to-end latency. Engine-stage time is
//! whole-batch time attributed to every request in the batch — each
//! member really does wait for the coalesced call, so the identity
//! holds per request, not just in aggregate.

use crate::hist::LogHistogram;
use crate::HistogramSnapshot;

/// The pipeline stages of a served request, in lifecycle order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    Parse,
    QueueWait,
    BatchWait,
    EnginePropagation,
    EngineNap,
    EngineClassify,
    Serialize,
}

/// Number of [`Stage`] variants.
pub const STAGE_COUNT: usize = 7;

impl Stage {
    /// All stages in lifecycle order.
    pub const ALL: [Stage; STAGE_COUNT] = [
        Stage::Parse,
        Stage::QueueWait,
        Stage::BatchWait,
        Stage::EnginePropagation,
        Stage::EngineNap,
        Stage::EngineClassify,
        Stage::Serialize,
    ];

    /// Dense index, `0..STAGE_COUNT`, following lifecycle order.
    pub fn index(self) -> usize {
        match self {
            Stage::Parse => 0,
            Stage::QueueWait => 1,
            Stage::BatchWait => 2,
            Stage::EnginePropagation => 3,
            Stage::EngineNap => 4,
            Stage::EngineClassify => 5,
            Stage::Serialize => 6,
        }
    }

    /// Snake-case stage name: JSON keys, Prometheus `stage` label
    /// values, and trace fields all use this exact spelling.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Parse => "parse",
            Stage::QueueWait => "queue_wait",
            Stage::BatchWait => "batch_wait",
            Stage::EnginePropagation => "engine_propagation",
            Stage::EngineNap => "engine_nap",
            Stage::EngineClassify => "engine_classify",
            Stage::Serialize => "serialize",
        }
    }
}

/// Per-request wall time spent in each stage, in nanoseconds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageBreakdown {
    ns: [u64; STAGE_COUNT],
}

impl StageBreakdown {
    /// Time recorded for one stage, in nanoseconds.
    pub fn get(&self, s: Stage) -> u64 {
        self.ns[s.index()]
    }

    /// Sets one stage's time in nanoseconds (overwrites).
    pub fn set(&mut self, s: Stage, ns: u64) {
        self.ns[s.index()] = ns;
    }

    /// Sum across stages — the stage-accounted portion of the
    /// request's end-to-end latency.
    pub fn total_ns(&self) -> u64 {
        self.ns.iter().sum()
    }
}

/// Why a worker stopped merging queued work into the batch a request
/// rode in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CloseReason {
    /// The merged batch reached `max_batch` requests.
    MaxBatch,
    /// The worker's channel was empty: everything queued for it was
    /// aboard, so the batch ran at once.
    Idle,
}

impl CloseReason {
    /// Stable string used in JSON, Prometheus labels, and traces.
    pub fn as_str(self) -> &'static str {
        match self {
            CloseReason::MaxBatch => "max_batch",
            CloseReason::Idle => "idle",
        }
    }
}

/// Cap on node ids / exit depths retained per trace: keeps flight
/// recorder entries bounded for pathological thousand-node requests.
pub const TRACE_NODE_CAP: usize = 8;

/// The full stage timeline of one served request, as captured by the
/// flight recorder for `GET /debug/slow`.
#[derive(Debug, Clone)]
pub struct TraceRecord {
    /// Monotone id assigned at admission.
    pub trace_id: u64,
    /// End-to-end latency (admission → reply handed to transport), ns.
    pub total_ns: u64,
    /// Per-stage wall times.
    pub stages: StageBreakdown,
    /// Node ids the request touched (first [`TRACE_NODE_CAP`]).
    pub nodes: Vec<u32>,
    /// NAP exit depth per retained node, parallel to `nodes`.
    pub depths: Vec<u32>,
    /// Answered from the versioned prediction cache, skipping the
    /// workers and engine entirely.
    pub cache_hit: bool,
    /// Replication sequence number the answering replica had applied.
    pub applied_seq: u64,
    /// Size of the dispatched batch the request rode in (0 for cache
    /// hits — no batch).
    pub batch_size: u32,
    /// [`CloseReason`] string, or `"cache_hit"`.
    pub close_reason: &'static str,
}

/// One histogram per stage plus end-to-end: the aggregation target
/// every reply's [`StageBreakdown`] lands in.
#[derive(Debug, Default)]
pub struct StagePipeline {
    e2e: LogHistogram,
    stages: [LogHistogram; STAGE_COUNT],
}

impl StagePipeline {
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one end-to-end latency sample (ns). Called once per
    /// prediction, matching the served-count semantics of `/metrics`.
    pub fn record_total(&self, ns: u64) {
        self.e2e.record(ns);
    }

    /// Records one request's stage breakdown (one sample per stage).
    pub fn record_stages(&self, b: &StageBreakdown) {
        for s in Stage::ALL {
            self.stages[s.index()].record(b.get(s));
        }
    }

    /// Snapshot of the end-to-end latency histogram.
    pub fn snapshot_total(&self) -> HistogramSnapshot {
        self.e2e.snapshot()
    }

    /// Snapshot of one stage's histogram.
    pub fn snapshot_stage(&self, s: Stage) -> HistogramSnapshot {
        self.stages[s.index()].snapshot()
    }
}

#[cfg(all(test, not(nai_model)))]
mod tests {
    use super::*;

    #[test]
    fn stage_indices_are_dense_and_ordered() {
        for (i, s) in Stage::ALL.iter().enumerate() {
            assert_eq!(s.index(), i);
        }
        let names: Vec<&str> = Stage::ALL.iter().map(|s| s.name()).collect();
        assert_eq!(
            names,
            [
                "parse",
                "queue_wait",
                "batch_wait",
                "engine_propagation",
                "engine_nap",
                "engine_classify",
                "serialize"
            ]
        );
    }

    #[test]
    fn breakdown_total_sums_stages() {
        let mut b = StageBreakdown::default();
        assert_eq!(b.total_ns(), 0);
        b.set(Stage::QueueWait, 5);
        b.set(Stage::EngineNap, 7);
        b.set(Stage::EngineNap, 9); // overwrite, not accumulate
        assert_eq!(b.get(Stage::EngineNap), 9);
        assert_eq!(b.total_ns(), 14);
    }

    #[test]
    fn pipeline_aggregates_per_stage() {
        let p = StagePipeline::new();
        let mut b = StageBreakdown::default();
        b.set(Stage::QueueWait, 10);
        b.set(Stage::Serialize, 2);
        p.record_stages(&b);
        p.record_total(12);
        assert_eq!(p.snapshot_total().count(), 1);
        assert_eq!(p.snapshot_total().sum(), 12);
        for s in Stage::ALL {
            assert_eq!(p.snapshot_stage(s).count(), 1, "{}", s.name());
        }
        assert_eq!(p.snapshot_stage(Stage::QueueWait).sum(), 10);
        assert_eq!(p.snapshot_stage(Stage::BatchWait).sum(), 0);
    }
}
