//! Serve-side observability hub: the single sink every answered
//! request reports into and every scrape reads from.
//!
//! One [`ServeObs`] lives in the service's shared state. The request
//! path touches it with wait-free histogram records (end-to-end
//! latency, exit depth, per-stage spans, batch anatomy) plus one short
//! lock acquisition per request for the slow-request flight recorder;
//! `/metrics` and `/debug/slow` read point-in-time snapshots without
//! ever re-sorting samples or blocking a recorder.
//!
//! This replaced the per-worker `Mutex<LatencyStats>` accumulators: the
//! exact-sort `LatencyStats` stored every sample (restarting each 2^18
//! to stay bounded, forgetting history at each restart) and re-sorted
//! under its mutex on every scrape. The log-bucketed histograms record
//! lock-free, keep a fixed footprint forever, and answer quantiles
//! within `nai_obs::RELATIVE_ERROR`; `LatencyStats` remains in
//! `nai-stream` as the exact oracle for unit tests and benches.

use crate::sync::atomic::{AtomicU64, Ordering};
use nai_obs::{
    CloseReason, FlightRecorder, HistogramSnapshot, LogHistogram, Stage, StageBreakdown,
    StagePipeline, TraceRecord, STAGE_COUNT,
};

/// Slowest traces retained per flight-recorder window.
pub const SLOW_TRACES: usize = 16;

/// Requests per flight-recorder window. Sized so a loaded service
/// turns windows over every few seconds while a lightly loaded one
/// still keeps its recent history visible (the recorder also exposes
/// the previous window, so a scrape after a turnover is never empty).
pub const SLOW_WINDOW: usize = 4096;

/// Request-lifecycle observability state shared by the submit path,
/// the sequencer, and every worker.
pub struct ServeObs {
    /// End-to-end latency plus one histogram per pipeline stage (ns).
    pipeline: StagePipeline,
    /// NAP exit depths (small exact buckets — depths are tiny).
    depths: LogHistogram,
    /// Dispatched batch sizes (requests per dispatch).
    batch_sizes: LogHistogram,
    closed_on_max_batch: AtomicU64,
    closed_on_idle: AtomicU64,
    /// The slowest requests per window, full stage timelines.
    recorder: FlightRecorder,
    /// Monotone trace-id source (ids start at 1; 0 is never issued).
    next_trace: AtomicU64,
}

impl ServeObs {
    pub fn new() -> Self {
        ServeObs {
            pipeline: StagePipeline::new(),
            depths: LogHistogram::new(),
            batch_sizes: LogHistogram::new(),
            closed_on_max_batch: AtomicU64::new(0),
            closed_on_idle: AtomicU64::new(0),
            recorder: FlightRecorder::new(SLOW_TRACES, SLOW_WINDOW),
            next_trace: AtomicU64::new(1),
        }
    }

    /// Issues the next trace id (monotone; Relaxed — ids only need to
    /// be distinct, not ordered with any other memory).
    pub fn next_trace_id(&self) -> u64 {
        // Relaxed: ids need only be distinct, not ordered (see doc).
        self.next_trace.fetch_add(1, Ordering::Relaxed)
    }

    /// Records one dispatched batch: its size and why it closed.
    pub fn note_batch(&self, size: u32, close: CloseReason) {
        self.batch_sizes.record(size as u64);
        match close {
            // Relaxed: monotone counters read only by scrapes.
            CloseReason::MaxBatch => self.closed_on_max_batch.fetch_add(1, Ordering::Relaxed),
            CloseReason::Idle => self.closed_on_idle.fetch_add(1, Ordering::Relaxed),
        };
    }

    /// Records one answered prediction: end-to-end latency (ns) and
    /// NAP exit depth. Called once per node result, matching the
    /// `served` counter's granularity.
    pub fn note_prediction(&self, total_ns: u64, depth: u64) {
        self.pipeline.record_total(total_ns);
        self.depths.record(depth);
    }

    /// Records one answered request: its per-stage spans (one sample
    /// per stage histogram) and its trace, which the flight recorder
    /// keeps iff it is among the window's slowest.
    pub fn note_request(&self, stages: &StageBreakdown, trace: TraceRecord) {
        self.pipeline.record_stages(stages);
        self.recorder.record(trace);
    }

    /// The slowest recent requests, slowest first (`/debug/slow`).
    pub fn slow_traces(&self) -> Vec<TraceRecord> {
        self.recorder.snapshot()
    }

    /// End-to-end latency histogram (ns).
    pub fn latency(&self) -> HistogramSnapshot {
        self.pipeline.snapshot_total()
    }

    /// Exit-depth histogram.
    pub fn depths(&self) -> HistogramSnapshot {
        self.depths.snapshot()
    }

    /// Per-stage span histograms (ns), indexed by [`Stage::index`].
    pub fn stages(&self) -> [HistogramSnapshot; STAGE_COUNT] {
        Stage::ALL.map(|s| self.pipeline.snapshot_stage(s))
    }

    /// Dispatched batch-size histogram.
    pub fn batch_sizes(&self) -> HistogramSnapshot {
        self.batch_sizes.snapshot()
    }

    /// Batches closed because they reached `max_batch`.
    pub fn closed_on_max_batch(&self) -> u64 {
        // Relaxed: scrape of a monotone counter; staleness is fine.
        self.closed_on_max_batch.load(Ordering::Relaxed)
    }

    /// Batches closed because the worker's channel was empty.
    pub fn closed_on_idle(&self) -> u64 {
        // Relaxed: scrape of a monotone counter; staleness is fine.
        self.closed_on_idle.load(Ordering::Relaxed)
    }
}

impl Default for ServeObs {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_anatomy_counters_split_by_reason() {
        let obs = ServeObs::new();
        obs.note_batch(8, CloseReason::MaxBatch);
        obs.note_batch(3, CloseReason::Idle);
        obs.note_batch(8, CloseReason::MaxBatch);
        obs.note_batch(2, CloseReason::Idle);
        assert_eq!(obs.closed_on_max_batch(), 2);
        assert_eq!(obs.closed_on_idle(), 2);
        let sizes = obs.batch_sizes();
        assert_eq!(sizes.count(), 4);
        assert_eq!(sizes.sum(), 21);
        assert_eq!(sizes.exact_small_counts()[8], 2, "exact small buckets");
    }

    #[test]
    fn trace_ids_are_distinct_and_nonzero() {
        let obs = ServeObs::new();
        let a = obs.next_trace_id();
        let b = obs.next_trace_id();
        assert_ne!(a, 0);
        assert_ne!(a, b);
    }

    #[test]
    fn predictions_and_requests_land_in_their_histograms() {
        let obs = ServeObs::new();
        let mut b = StageBreakdown::default();
        b.set(Stage::QueueWait, 100);
        b.set(Stage::Serialize, 20);
        obs.note_prediction(120, 2);
        obs.note_prediction(240, 3);
        obs.note_request(
            &b,
            TraceRecord {
                trace_id: obs.next_trace_id(),
                total_ns: 240,
                stages: b,
                nodes: vec![7],
                depths: vec![3],
                cache_hit: false,
                applied_seq: 0,
                batch_size: 2,
                close_reason: CloseReason::MaxBatch.as_str(),
            },
        );
        assert_eq!(obs.latency().count(), 2);
        assert_eq!(obs.depths().exact_small_counts(), vec![0, 0, 1, 1]);
        let stages = obs.stages();
        assert_eq!(stages[Stage::QueueWait.index()].sum(), 100);
        assert_eq!(stages[Stage::Serialize.index()].sum(), 20);
        assert_eq!(obs.slow_traces().len(), 1);
    }
}
