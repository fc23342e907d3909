//! Work and time accounting for streaming inference.

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
/// by `StreamingEngine::infer_nodes`. Cumulative like `macs_total()`.
pub use nai_core::kernel::StageTimes;

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

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
