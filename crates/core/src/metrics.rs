//! Evaluation metrics matching §IV-A of the paper: ACC, MACs, FP MACs,
//! averaged inference time and averaged feature-processing time.

use crate::macs::MacsBreakdown;
use std::time::Duration;

/// Aggregated result of an inference run over a test set.
#[derive(Debug, Clone)]
pub struct InferenceReport {
    /// Number of test nodes evaluated.
    pub num_nodes: usize,
    /// Test accuracy in `[0, 1]`.
    pub accuracy: f64,
    /// MACs split by stage, summed over all batches.
    pub macs: MacsBreakdown,
    /// Total wall-clock inference time.
    pub total_time: Duration,
    /// Wall-clock time spent in feature processing (supporting-node
    /// sampling + propagation + stationary + NAP checks).
    pub feature_time: Duration,
    /// Nodes that exited at each depth (`histogram[l]` = exits at depth
    /// `l+1`), the paper's Table VI "node distribution".
    pub depth_histogram: Vec<usize>,
    /// Number of batches processed.
    pub batches: usize,
}

impl InferenceReport {
    /// Average MACs per node in mega-MACs (the `#mMACs` columns).
    pub fn mmacs_per_node(&self) -> f64 {
        self.macs.total() as f64 / 1e6 / self.num_nodes.max(1) as f64
    }

    /// Average feature-processing MACs per node in mega-MACs.
    pub fn fp_mmacs_per_node(&self) -> f64 {
        self.macs.feature_processing() as f64 / 1e6 / self.num_nodes.max(1) as f64
    }

    /// Average inference time per node in milliseconds (×1000 nodes —
    /// reported per node like the paper's "averaged inference time per
    /// node").
    pub fn time_ms_per_node(&self) -> f64 {
        self.total_time.as_secs_f64() * 1e3 / self.num_nodes.max(1) as f64
    }

    /// Average feature-processing time per node in milliseconds.
    pub fn fp_time_ms_per_node(&self) -> f64 {
        self.feature_time.as_secs_f64() * 1e3 / self.num_nodes.max(1) as f64
    }

    /// Average personalized propagation depth `q` (Table I's `q`).
    pub fn mean_depth(&self) -> f64 {
        let total: usize = self.depth_histogram.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let weighted: usize = self
            .depth_histogram
            .iter()
            .enumerate()
            .map(|(l, &c)| (l + 1) * c)
            .sum();
        weighted as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> InferenceReport {
        InferenceReport {
            num_nodes: 1000,
            accuracy: 0.7,
            macs: MacsBreakdown {
                propagation: 4_000_000,
                stationary: 1_000_000,
                nap: 500_000,
                classification: 2_500_000,
                replication: 0,
            },
            total_time: Duration::from_millis(800),
            feature_time: Duration::from_millis(600),
            depth_histogram: vec![100, 400, 500],
            batches: 2,
        }
    }

    #[test]
    fn per_node_metrics() {
        let r = report();
        assert!((r.mmacs_per_node() - 8e-3).abs() < 1e-9);
        assert!((r.fp_mmacs_per_node() - 5.5e-3).abs() < 1e-9);
        assert!((r.time_ms_per_node() - 0.8).abs() < 1e-9);
        assert!((r.fp_time_ms_per_node() - 0.6).abs() < 1e-9);
    }

    #[test]
    fn mean_depth_weighted() {
        let r = report();
        // (1·100 + 2·400 + 3·500) / 1000 = 2.4
        assert!((r.mean_depth() - 2.4).abs() < 1e-9);
    }

    #[test]
    fn empty_report_is_safe() {
        let r = InferenceReport {
            num_nodes: 0,
            accuracy: 0.0,
            macs: MacsBreakdown::default(),
            total_time: Duration::ZERO,
            feature_time: Duration::ZERO,
            depth_histogram: vec![],
            batches: 0,
        };
        assert_eq!(r.mmacs_per_node(), 0.0);
        assert_eq!(r.mean_depth(), 0.0);
    }
}
