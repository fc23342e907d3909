//! Lock-free log-bucketed concurrent histogram (HDR-style).
//!
//! The serve path records one latency sample per prediction at full
//! throughput, and `/metrics` scrapes quantiles concurrently. Exact
//! quantiles would need every sample kept and sorted under a lock.
//! This histogram makes the opposite trade: recording is a wait-free
//! pair of `fetch_add`s, the footprint is a fixed ~15 KiB regardless
//! of sample count, nothing is ever dropped — and quantiles are
//! approximate, within a documented relative-error bound.
//!
//! # Bucketing scheme
//!
//! Values are `u64` (the serve path records nanoseconds). Each power of
//! two is split into `2^SUB_BITS = 32` equal sub-buckets:
//!
//! * `v < 32`: bucket `v` — one bucket per value, **exact**. This also
//!   makes the histogram an exact counter array for small-domain data
//!   (batch sizes, exit depths).
//! * otherwise: with `msb` the index of `v`'s highest set bit and
//!   `shift = msb - 5`, bucket `(shift + 1)·32 + (v >> shift) - 32`.
//!   The bucket then spans `2^shift` consecutive values starting at or
//!   above `32·2^shift`, so reconstructing a value as the bucket
//!   midpoint errs by at most `2^shift / 2` over a true value of at
//!   least `32·2^shift`: **≤ 1/64 ≈ 1.6% relative error**, inside the
//!   ~2% budget documented in [`RELATIVE_ERROR`].
//!
//! The top bucket's range ends exactly at `u64::MAX`; no clamping or
//! overflow case exists. Total: `(64 − 5 + 1)·32 = 1920` buckets.
//!
//! # Concurrency contract
//!
//! `record` bumps `sum` *before* the bucket counter, both with
//! `Release`; `snapshot` reads the buckets *before* `sum`, both with
//! `Acquire`. An observed bucket increment therefore always has its
//! value already included in the observed sum — a concurrent snapshot
//! may transiently over-report the mean (a sample's value visible
//! before its count) but never under-report it, and each counter is a
//! single atomic so no individual count ever tears. `tests/model.rs`
//! proves both properties under the loom model checker, where `Relaxed`
//! loads really do return stale values.

use crate::sync::atomic::{AtomicU64, Ordering};

/// Sub-bucket resolution: each power-of-two range is split into
/// `2^SUB_BITS` equal buckets.
pub const SUB_BITS: u32 = 5;

const SUB: usize = 1 << SUB_BITS;

/// Worst-case relative error of any value reconstructed from its
/// bucket (quantiles, max): half a bucket width over the bucket's lower
/// bound, `2^(shift−1) / 32·2^shift = 1/64`.
pub const RELATIVE_ERROR: f64 = 1.0 / (SUB as f64 * 2.0);

/// Number of buckets. Under `--cfg nai_model` the array shrinks to a
/// handful of exact small-value buckets (values clamp into the last
/// one): every atomic access is a model-checker schedule point, so a
/// 1920-load snapshot would blow the bounded-DFS state space. The
/// record/snapshot protocol under test is identical at either size.
#[cfg(not(nai_model))]
pub const NUM_BUCKETS: usize = (64 - SUB_BITS as usize + 1) * SUB;
#[cfg(nai_model)]
pub const NUM_BUCKETS: usize = 8;

/// Bucket index for a value (see module docs for the scheme).
pub fn bucket_index(v: u64) -> usize {
    let idx = if v < SUB as u64 {
        v as usize
    } else {
        let msb = 63 - v.leading_zeros();
        let shift = msb - SUB_BITS;
        ((shift + 1) as usize) * SUB + ((v >> shift) as usize - SUB)
    };
    // No-op for the full-size array (the scheme's maximum index is
    // NUM_BUCKETS - 1); clamps into the top bucket for the shrunken
    // model-checker array.
    idx.min(NUM_BUCKETS - 1)
}

/// Inclusive `(low, high)` value range of a bucket of the full-size
/// scheme.
pub fn bucket_range(i: usize) -> (u64, u64) {
    if i < SUB {
        (i as u64, i as u64)
    } else {
        let shift = (i / SUB - 1) as u32;
        let lo = ((SUB + i % SUB) as u64) << shift;
        // Parenthesized so the top bucket (which ends exactly at
        // u64::MAX) does not overflow in `lo + width` first.
        (lo, lo + ((1u64 << shift) - 1))
    }
}

/// The value a bucket's samples are reconstructed as: the bucket
/// midpoint (exact for single-value buckets below `2^SUB_BITS`).
pub fn bucket_mid(i: usize) -> u64 {
    let (lo, hi) = bucket_range(i);
    lo + (hi - lo) / 2
}

/// Lock-free concurrent histogram. `record` is wait-free; `snapshot`
/// is a read-only sweep. Cheap enough to keep one per pipeline stage.
#[derive(Debug)]
pub struct LogHistogram {
    buckets: Box<[AtomicU64]>,
    sum: AtomicU64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LogHistogram {
    pub fn new() -> Self {
        LogHistogram {
            buckets: (0..NUM_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            sum: AtomicU64::new(0),
        }
    }

    /// Records one sample. Sum before bucket, both `Release` — see the
    /// module-level concurrency contract.
    pub fn record(&self, v: u64) {
        // Release ×2, sum before bucket: a snapshot that observes the
        // bucket increment also observes the sum it accounts for.
        self.sum.fetch_add(v, Ordering::Release);
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Release);
    }

    /// A point-in-time copy safe to aggregate, serialize, or diff.
    /// Buckets before sum, both `Acquire` — see the module-level
    /// concurrency contract.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let counts: Vec<u64> = self
            .buckets
            .iter()
            // Acquire, buckets before sum (mirror of record's order).
            .map(|b| b.load(Ordering::Acquire))
            .collect();
        // Acquire: pairs with record's Release; sum ≥ what the
        // observed buckets account for.
        let sum = self.sum.load(Ordering::Acquire);
        HistogramSnapshot { counts, sum }
    }
}

/// Immutable copy of a [`LogHistogram`]: the quantile/merge surface.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    counts: Vec<u64>,
    sum: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot {
            counts: vec![0; NUM_BUCKETS],
            sum: 0,
        }
    }
}

impl HistogramSnapshot {
    /// Total recorded samples.
    pub fn count(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Sum of all recorded values.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Arithmetic mean of recorded values (`0.0` when empty). Exact —
    /// the sum is tracked directly, not reconstructed from buckets.
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum as f64 / n as f64
        }
    }

    /// Nearest-rank quantile (the convention of the exact-sort oracle
    /// it is tested against), reconstructed as the owning bucket's
    /// midpoint: within [`RELATIVE_ERROR`] of the exact answer. `0`
    /// when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        let n = self.count();
        if n == 0 {
            return 0;
        }
        let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_mid(i);
            }
        }
        bucket_mid(NUM_BUCKETS - 1)
    }

    /// Several quantiles in one pass over the buckets.
    pub fn quantiles(&self, qs: &[f64]) -> Vec<u64> {
        qs.iter().map(|&q| self.quantile(q)).collect()
    }

    /// Largest recorded value, reconstructed (midpoint of the highest
    /// non-empty bucket); `0` when empty.
    pub fn max(&self) -> u64 {
        match self.counts.iter().rposition(|&c| c > 0) {
            Some(i) => bucket_mid(i),
            None => 0,
        }
    }

    /// Accumulates `other` into `self`. Merging snapshots is exactly
    /// bucket-wise addition, so merge-then-quantile equals
    /// concatenate-then-quantile (property-tested in
    /// `tests/proptests.rs`).
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (mine, &theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        self.sum += other.sum;
    }

    /// `(inclusive upper bound, count)` for each non-empty bucket in
    /// ascending order — the raw series behind Prometheus `_bucket`
    /// exposition.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (bucket_range(i).1, c))
    }

    /// The exact small-value prefix: counts of values `0..2^SUB_BITS`,
    /// trimmed of trailing zeros. For small-domain data (exit depths,
    /// batch sizes ≤ 31) this *is* the exact histogram, in
    /// `hist[value] = count` shape.
    pub fn exact_small_counts(&self) -> Vec<u64> {
        let prefix = &self.counts[..SUB.min(self.counts.len())];
        let len = prefix.iter().rposition(|&c| c > 0).map_or(0, |i| i + 1);
        prefix[..len].to_vec()
    }
}

#[cfg(all(test, not(nai_model)))]
mod tests {
    use super::*;

    #[test]
    fn small_values_are_exact() {
        let h = LogHistogram::new();
        for v in 0..32u64 {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count(), 32);
        assert_eq!(s.sum(), (0..32).sum::<u64>());
        for v in 0..32u64 {
            assert_eq!(bucket_index(v), v as usize);
            assert_eq!(bucket_mid(v as usize), v);
        }
        assert_eq!(s.exact_small_counts(), vec![1; 32]);
    }

    #[test]
    fn bucket_ranges_partition_u64() {
        // Consecutive buckets tile the axis with no gap or overlap,
        // ending exactly at u64::MAX.
        let mut expect_lo = 0u64;
        for i in 0..NUM_BUCKETS {
            let (lo, hi) = bucket_range(i);
            assert_eq!(lo, expect_lo, "bucket {i} leaves a gap");
            assert!(hi >= lo);
            assert_eq!(bucket_index(lo), i);
            assert_eq!(bucket_index(hi), i);
            if i + 1 == NUM_BUCKETS {
                assert_eq!(hi, u64::MAX);
            } else {
                expect_lo = hi + 1;
            }
        }
    }

    #[test]
    fn relative_error_bound_holds_pointwise() {
        for v in [
            31u64,
            32,
            33,
            1000,
            4096,
            123_456_789,
            u64::MAX / 3,
            u64::MAX,
        ] {
            let mid = bucket_mid(bucket_index(v));
            let err = mid.abs_diff(v) as f64 / v as f64;
            assert!(
                err <= RELATIVE_ERROR,
                "v={v} mid={mid} err={err} > {RELATIVE_ERROR}"
            );
        }
    }

    #[test]
    fn quantiles_match_nearest_rank_on_distinct_buckets() {
        // Values chosen to land in distinct buckets, so the histogram's
        // nearest-rank walk must agree with the exact answer.
        let h = LogHistogram::new();
        for v in [1u64, 2, 3, 4, 5, 6, 7, 8, 9, 10] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.quantile(0.0), 1);
        assert_eq!(s.quantile(0.5), 5);
        assert_eq!(s.quantile(1.0), 10);
        assert_eq!(s.max(), 10);
        assert_eq!(s.quantiles(&[0.5, 1.0]), vec![5, 10]);
    }

    #[test]
    fn empty_snapshot_is_all_zeroes() {
        let s = LogHistogram::new().snapshot();
        assert_eq!(s.count(), 0);
        assert_eq!(s.quantile(0.5), 0);
        assert_eq!(s.max(), 0);
        assert_eq!(s.mean(), 0.0);
        assert!(s.exact_small_counts().is_empty());
        assert_eq!(s.nonzero_buckets().count(), 0);
        assert_eq!(s, HistogramSnapshot::default());
    }

    #[test]
    fn merge_is_bucketwise_addition() {
        let (a, b) = (LogHistogram::new(), LogHistogram::new());
        for v in [1u64, 50, 1000] {
            a.record(v);
        }
        for v in [2u64, 50, 70_000] {
            b.record(v);
        }
        let both = LogHistogram::new();
        for v in [1u64, 50, 1000, 2, 50, 70_000] {
            both.record(v);
        }
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        assert_eq!(merged, both.snapshot());
    }

    #[test]
    fn nonzero_buckets_cumulative_covers_count() {
        let h = LogHistogram::new();
        for v in [0u64, 5, 5, 100, 40_000] {
            h.record(v);
        }
        let s = h.snapshot();
        let total: u64 = s.nonzero_buckets().map(|(_, c)| c).sum();
        assert_eq!(total, s.count());
        let bounds: Vec<u64> = s.nonzero_buckets().map(|(ub, _)| ub).collect();
        assert!(bounds.windows(2).all(|w| w[0] < w[1]), "ascending bounds");
    }
}
