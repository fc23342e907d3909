//! Latency/throughput accounting for streaming inference.

use crate::sync::{lock_recover, Mutex};
use std::time::Duration;

/// Cumulative multiply-accumulate counts split by pipeline stage.
///
/// The serving layer exports these per worker (`/metrics`); summing the
/// fields gives the engine's `macs_total()`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MacsBreakdown {
    /// Feature-propagation SpMM MACs (the Eq. (1) steps).
    pub propagation: u64,
    /// NAP exit decisions: distance checks, gate forwards, Eq. (10)
    /// bound evaluations.
    pub nap: u64,
    /// Per-depth classifier forwards at exit time.
    pub classification: u64,
    /// Graph-mutation application: the incremental stationary
    /// accumulator updates of an ingest / edge arrival. Under the
    /// serving layer's sequenced mutation replication every shard
    /// replica performs *identical* work here, so the service reports
    /// this stage once (max over replicas) instead of summing it — a
    /// mutation's cost must not scale with the shard count in
    /// `/metrics`.
    pub replication: u64,
}

impl MacsBreakdown {
    /// Sum over all stages.
    pub fn total(&self) -> u64 {
        self.propagation + self.nap + self.classification + self.replication
    }

    /// Accumulates another breakdown. This sums *every* stage — correct
    /// for truly disjoint engines; for shard replicas that apply the
    /// same replicated mutations, aggregate `replication` by `max`
    /// instead (see `nai-serve`'s metrics merge).
    pub fn merge(&mut self, other: &MacsBreakdown) {
        self.propagation += other.propagation;
        self.nap += other.nap;
        self.classification += other.classification;
        self.replication += other.replication;
    }
}

/// Cumulative wall time split by engine pipeline stage — the time-axis
/// twin of [`MacsBreakdown`], filled by the read kernel and accumulated
/// by `StreamingEngine::infer_nodes`. Cumulative like `macs_total()`:
/// never reset by `reset_stats`.
pub use nai_core::kernel::StageTimes;

/// Lazily maintained sorted view of the samples; `stale` and `buf`
/// share one lock so their coherence needs no cross-field reasoning.
#[derive(Debug, Clone, Default)]
struct SortedCache {
    buf: Vec<Duration>,
    stale: bool,
}

/// Accumulates per-arrival latencies and exit depths.
#[derive(Debug, Default)]
pub struct LatencyStats {
    latencies: Vec<Duration>,
    depth_sum: u64,
    /// `depth_histogram[d]` counts recorded predictions that exited at
    /// depth `d` (slot 0 exists but stays empty for NAP depths, which
    /// start at 1). Exported per cell by the scenario bench harness and
    /// by `/metrics`.
    depth_histogram: Vec<u64>,
    total_busy: Duration,
    /// Sorted copy of `latencies`, rebuilt lazily on the first quantile
    /// read after a mutation. A `/metrics` scrape between arrivals then
    /// costs one buffer reuse instead of a fresh clone + sort of the
    /// full sample vector (~2 MB of churn at the serving layer's
    /// 2^18-sample worker bound). A `Mutex` (not `RefCell`) keeps the
    /// type `Sync`; reads are single-threaded in practice, so the lock
    /// is uncontended.
    sorted: Mutex<SortedCache>,
}

impl Clone for LatencyStats {
    fn clone(&self) -> Self {
        Self {
            latencies: self.latencies.clone(),
            depth_sum: self.depth_sum,
            depth_histogram: self.depth_histogram.clone(),
            total_busy: self.total_busy,
            sorted: Mutex::new(lock_recover(&self.sorted).clone()),
        }
    }
}

impl LatencyStats {
    /// Empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one prediction's latency and exit depth.
    pub fn record(&mut self, latency: Duration, depth: usize) {
        self.latencies.push(latency);
        self.depth_sum += depth as u64;
        if depth >= self.depth_histogram.len() {
            self.depth_histogram.resize(depth + 1, 0);
        }
        self.depth_histogram[depth] += 1;
        self.total_busy += latency;
        self.sorted
            .get_mut()
            .unwrap_or_else(|p| p.into_inner())
            .stale = true;
    }

    /// Absorbs another accumulator, as if every one of its samples had
    /// been [`Self::record`]ed here: quantiles over the merged
    /// accumulator equal quantiles over the concatenated sample sets.
    /// Used to aggregate per-worker stats for `/metrics`.
    pub fn merge(&mut self, other: &LatencyStats) {
        self.latencies.extend_from_slice(&other.latencies);
        self.depth_sum += other.depth_sum;
        if other.depth_histogram.len() > self.depth_histogram.len() {
            self.depth_histogram.resize(other.depth_histogram.len(), 0);
        }
        for (mine, &theirs) in self.depth_histogram.iter_mut().zip(&other.depth_histogram) {
            *mine += theirs;
        }
        self.total_busy += other.total_busy;
        self.sorted
            .get_mut()
            .unwrap_or_else(|p| p.into_inner())
            .stale = true;
    }

    /// Number of recorded predictions.
    pub fn count(&self) -> usize {
        self.latencies.len()
    }

    /// Exit-depth histogram: slot `d` counts predictions that exited at
    /// depth `d` (NAP depths start at 1, so slot 0 is normally empty).
    /// The slice length is one past the deepest recorded exit; empty
    /// when nothing has been recorded.
    pub fn depth_histogram(&self) -> &[u64] {
        &self.depth_histogram
    }

    /// Mean exit depth.
    pub fn mean_depth(&self) -> f64 {
        if self.latencies.is_empty() {
            return 0.0;
        }
        self.depth_sum as f64 / self.latencies.len() as f64
    }

    /// Mean latency.
    pub fn mean_latency(&self) -> Duration {
        if self.latencies.is_empty() {
            return Duration::ZERO;
        }
        self.total_busy / self.latencies.len() as u32
    }

    /// The `q`-quantile latency (`q ∈ [0, 1]`), nearest-rank.
    ///
    /// # Panics
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> Duration {
        self.quantiles(&[q])[0]
    }

    /// Several nearest-rank quantiles from one sort of the samples —
    /// what a metrics endpoint should call instead of `quantile` three
    /// times. The sorted order is cached in a reusable scratch buffer
    /// and only rebuilt after a [`Self::record`] / [`Self::merge`], so
    /// back-to-back scrapes of an idle accumulator are allocation- and
    /// sort-free.
    ///
    /// # Panics
    /// Panics if any `q` is outside `[0, 1]`.
    pub fn quantiles(&self, qs: &[f64]) -> Vec<Duration> {
        for q in qs {
            assert!((0.0..=1.0).contains(q), "quantile must be in [0, 1]");
        }
        if self.latencies.is_empty() {
            return vec![Duration::ZERO; qs.len()];
        }
        // Recover from poison (a scrape must survive a panicked peer); a
        // poisoned cache may be mid-rebuild, so conservatively re-sort.
        let mut cache = match self.sorted.lock() {
            Ok(c) => c,
            Err(p) => {
                let mut c = p.into_inner();
                c.stale = true;
                c
            }
        };
        if cache.stale {
            let buf = &mut cache.buf;
            buf.clear();
            buf.extend_from_slice(&self.latencies);
            buf.sort_unstable();
            cache.stale = false;
        }
        debug_assert_eq!(cache.buf.len(), self.latencies.len());
        let sorted = &cache.buf;
        qs.iter()
            .map(|&q| {
                let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
                sorted[rank - 1]
            })
            .collect()
    }

    /// Median latency.
    pub fn p50(&self) -> Duration {
        self.quantile(0.5)
    }

    /// 95th-percentile latency.
    pub fn p95(&self) -> Duration {
        self.quantile(0.95)
    }

    /// 99th-percentile latency.
    pub fn p99(&self) -> Duration {
        self.quantile(0.99)
    }

    /// Worst-case latency.
    pub fn max(&self) -> Duration {
        self.latencies
            .iter()
            .copied()
            .max()
            .unwrap_or(Duration::ZERO)
    }

    /// Predictions per second of busy time (0 when nothing recorded).
    pub fn throughput(&self) -> f64 {
        let secs = self.total_busy.as_secs_f64();
        if secs == 0.0 {
            return 0.0;
        }
        self.latencies.len() as f64 / secs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats_of(ms: &[u64]) -> LatencyStats {
        let mut s = LatencyStats::new();
        for (i, &m) in ms.iter().enumerate() {
            s.record(Duration::from_millis(m), i % 3 + 1);
        }
        s
    }

    #[test]
    fn quantiles_are_nearest_rank() {
        let s = stats_of(&[1, 2, 3, 4, 5, 6, 7, 8, 9, 10]);
        assert_eq!(s.p50(), Duration::from_millis(5));
        assert_eq!(s.quantile(1.0), Duration::from_millis(10));
        assert_eq!(s.quantile(0.0), Duration::from_millis(1));
        assert_eq!(s.p95(), Duration::from_millis(10));
    }

    #[test]
    fn mean_and_max() {
        let s = stats_of(&[2, 4, 6]);
        assert_eq!(s.mean_latency(), Duration::from_millis(4));
        assert_eq!(s.max(), Duration::from_millis(6));
        assert_eq!(s.count(), 3);
    }

    #[test]
    fn empty_stats_are_safe() {
        let s = LatencyStats::new();
        assert_eq!(s.p99(), Duration::ZERO);
        assert_eq!(s.mean_latency(), Duration::ZERO);
        assert_eq!(s.throughput(), 0.0);
        assert_eq!(s.mean_depth(), 0.0);
    }

    #[test]
    fn throughput_inverts_mean_latency() {
        let s = stats_of(&[10, 10, 10, 10]);
        assert!((s.throughput() - 100.0).abs() < 1e-6);
    }

    #[test]
    fn mean_depth_tracks_records() {
        let mut s = LatencyStats::new();
        s.record(Duration::from_millis(1), 2);
        s.record(Duration::from_millis(1), 4);
        assert!((s.mean_depth() - 3.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "quantile")]
    fn out_of_range_quantile_panics() {
        let _ = stats_of(&[1]).quantile(1.5);
    }

    #[test]
    fn batched_quantiles_match_individual_calls() {
        let s = stats_of(&[9, 1, 40, 3, 7, 7, 2, 100, 5, 6, 8, 11]);
        let batch = s.quantiles(&[0.0, 0.5, 0.95, 0.99, 1.0]);
        for (i, &q) in [0.0, 0.5, 0.95, 0.99, 1.0].iter().enumerate() {
            assert_eq!(batch[i], s.quantile(q), "q={q}");
        }
        assert_eq!(
            LatencyStats::new().quantiles(&[0.5, 0.99]),
            vec![Duration::ZERO; 2]
        );
    }

    #[test]
    fn merged_quantiles_equal_concatenated_quantiles() {
        // Three disjoint per-worker accumulators vs one accumulator fed
        // every sample: all quantiles and aggregates must coincide.
        let parts: [&[u64]; 3] = [&[9, 1, 40, 3], &[7, 7, 2], &[100, 5, 6, 8, 11]];
        let mut merged = LatencyStats::new();
        let mut concatenated = LatencyStats::new();
        for (w, part) in parts.iter().enumerate() {
            let mut worker = LatencyStats::new();
            for (i, &ms) in part.iter().enumerate() {
                worker.record(Duration::from_millis(ms), (w + i) % 4 + 1);
                concatenated.record(Duration::from_millis(ms), (w + i) % 4 + 1);
            }
            merged.merge(&worker);
        }
        assert_eq!(merged.count(), concatenated.count());
        for q in [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1.0] {
            assert_eq!(merged.quantile(q), concatenated.quantile(q), "q={q}");
        }
        assert_eq!(merged.mean_latency(), concatenated.mean_latency());
        assert_eq!(merged.max(), concatenated.max());
        assert!((merged.mean_depth() - concatenated.mean_depth()).abs() < 1e-12);
        assert!((merged.throughput() - concatenated.throughput()).abs() < 1e-9);
    }

    #[test]
    fn merge_into_empty_and_with_empty() {
        let s = stats_of(&[4, 2, 9]);
        let mut from_empty = LatencyStats::new();
        from_empty.merge(&s);
        assert_eq!(from_empty.count(), 3);
        assert_eq!(from_empty.p50(), s.p50());
        let mut with_empty = s.clone();
        with_empty.merge(&LatencyStats::new());
        assert_eq!(with_empty.count(), 3);
        assert_eq!(with_empty.max(), s.max());
    }

    #[test]
    fn quantile_cache_invalidates_on_record_and_merge() {
        let mut s = stats_of(&[5, 1, 9]);
        assert_eq!(s.p50(), Duration::from_millis(5));
        // A repeated read reuses the cached sorted order.
        assert_eq!(s.p50(), Duration::from_millis(5));
        s.record(Duration::from_millis(2), 1);
        assert_eq!(s.quantile(1.0), Duration::from_millis(9));
        assert_eq!(s.p50(), Duration::from_millis(2), "new sample visible");
        s.merge(&stats_of(&[100, 200, 300, 400]));
        assert_eq!(s.quantile(1.0), Duration::from_millis(400));
        assert_eq!(s.count(), 8);
        // A clone carries consistent cache state of its own.
        let c = s.clone();
        assert_eq!(c.p50(), s.p50());
    }

    #[test]
    fn depth_histogram_tracks_records_and_merges() {
        let mut s = LatencyStats::new();
        assert!(s.depth_histogram().is_empty());
        s.record(Duration::from_millis(1), 1);
        s.record(Duration::from_millis(1), 3);
        s.record(Duration::from_millis(1), 1);
        assert_eq!(s.depth_histogram(), &[0, 2, 0, 1]);
        let mut other = LatencyStats::new();
        other.record(Duration::from_millis(2), 2);
        other.record(Duration::from_millis(2), 5);
        s.merge(&other);
        assert_eq!(s.depth_histogram(), &[0, 2, 1, 1, 0, 1]);
        // Histogram, count, and depth_sum stay mutually consistent.
        let total: u64 = s.depth_histogram().iter().sum();
        assert_eq!(total as usize, s.count());
        let weighted: u64 = s
            .depth_histogram()
            .iter()
            .enumerate()
            .map(|(d, &c)| d as u64 * c)
            .sum();
        assert!((s.mean_depth() - weighted as f64 / total as f64).abs() < 1e-12);
        // Clones carry the histogram.
        assert_eq!(s.clone().depth_histogram(), s.depth_histogram());
    }

    #[test]
    fn stage_times_merge_and_since() {
        let ms = Duration::from_millis;
        let mut a = StageTimes {
            propagation: ms(10),
            nap: ms(2),
            classification: ms(3),
        };
        assert_eq!(a.total(), ms(15));
        let earlier = a;
        a.merge(&StageTimes {
            propagation: ms(5),
            nap: ms(1),
            classification: ms(0),
        });
        let delta = a.since(&earlier);
        assert_eq!(
            delta,
            StageTimes {
                propagation: ms(5),
                nap: ms(1),
                classification: ms(0),
            }
        );
        // `since` against a newer snapshot saturates instead of
        // panicking — a torn pair of reads must not take metrics down.
        assert_eq!(earlier.since(&a).total(), Duration::ZERO);
        assert_eq!(StageTimes::default().total(), Duration::ZERO);
    }

    #[test]
    fn macs_breakdown_totals_and_merges() {
        let mut a = MacsBreakdown {
            propagation: 100,
            nap: 20,
            classification: 3,
            replication: 7,
        };
        assert_eq!(a.total(), 130);
        let b = MacsBreakdown {
            propagation: 1,
            nap: 2,
            classification: 3,
            replication: 4,
        };
        a.merge(&b);
        assert_eq!(
            a,
            MacsBreakdown {
                propagation: 101,
                nap: 22,
                classification: 6,
                replication: 11,
            }
        );
        assert_eq!(MacsBreakdown::default().total(), 0);
    }
}
