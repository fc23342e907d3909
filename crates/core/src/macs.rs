//! Multiply-accumulate accounting (the MACs / FP MACs columns of the
//! paper's tables and the complexity formulas of Table I).
//!
//! Counters are incremented by the kernels that actually execute, so the
//! numbers reflect the adaptive behaviour (shrinking frontiers, early
//! exits) rather than worst-case formulas. "Feature processing" (FP)
//! covers propagation + NAP checks + stationary state, matching the
//! paper's split between FP MACs and total MACs.

/// MACs split by pipeline stage.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct MacsBreakdown {
    /// Feature propagation (SpMM over the supporting frontier).
    pub propagation: u64,
    /// Stationary-state computation (rank-1 precompute + per-row emits).
    pub stationary: u64,
    /// NAP decisions: distance evaluations or gate forwards.
    pub nap: u64,
    /// Multi-depth combination + classifier MLPs.
    pub classification: u64,
    /// Graph-mutation application: the incremental stationary updates of
    /// a streaming ingest or edge arrival, charged once per mutation
    /// (the serving layer applies each to its one engine). Static runs
    /// leave it 0.
    pub replication: u64,
}

impl MacsBreakdown {
    /// Total MACs across all stages.
    pub fn total(&self) -> u64 {
        self.propagation + self.stationary + self.nap + self.classification + self.replication
    }

    /// Feature-processing MACs (everything except classification) — the
    /// "FP MACs" column of Tables V and IX–XI.
    pub fn feature_processing(&self) -> u64 {
        self.propagation + self.stationary + self.nap
    }

    /// Element-wise accumulation.
    pub fn add(&mut self, other: &MacsBreakdown) {
        self.propagation += other.propagation;
        self.stationary += other.stationary;
        self.nap += other.nap;
        self.classification += other.classification;
        self.replication += other.replication;
    }
}

/// Closed-form vanilla inference complexities of Table I (per the paper's
/// notation: `n` nodes to classify, `m` edges in their supporting
/// subgraph, `f` feature dim, `k` depth, `P` classifier layers, `c`
/// classes). Used by the `table1_complexity` bench to cross-check the
/// measured counters.
pub mod table1 {
    /// SGC vanilla: `O(k·m·f + n·f·c)` (linear classifier).
    pub fn sgc(k: u64, m_nnz: u64, n: u64, f: u64, c: u64) -> u64 {
        k * m_nnz * f + n * f * c
    }

    /// SIGN vanilla: `O(k·m·f + k·P·n·f·c)` — concat classifier input grows
    /// with `k`.
    pub fn sign(k: u64, m_nnz: u64, n: u64, f: u64, c: u64) -> u64 {
        k * m_nnz * f + (k + 1) * n * f * c
    }

    /// S²GC vanilla: `O(k·m·f + k·n·f + n·f·c)` — the `k·n·f` term is the
    /// depth averaging.
    pub fn s2gc(k: u64, m_nnz: u64, n: u64, f: u64, c: u64) -> u64 {
        k * m_nnz * f + (k + 1) * n * f + n * f * c
    }

    /// GAMLP vanilla: `O(k·m·f + n·f·c)` plus the node-wise attention
    /// (`2·(k+1)·n·f` in our accounting).
    pub fn gamlp(k: u64, m_nnz: u64, n: u64, f: u64, c: u64) -> u64 {
        k * m_nnz * f + 2 * (k + 1) * n * f + n * f * c
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_and_fp_split() {
        let m = MacsBreakdown {
            propagation: 100,
            stationary: 10,
            nap: 5,
            classification: 50,
            replication: 7,
        };
        assert_eq!(m.total(), 172);
        assert_eq!(m.feature_processing(), 115);
    }

    #[test]
    fn add_accumulates() {
        let mut a = MacsBreakdown::default();
        let b = MacsBreakdown {
            propagation: 1,
            stationary: 2,
            nap: 3,
            classification: 4,
            replication: 5,
        };
        a.add(&b);
        a.add(&b);
        assert_eq!(a.total(), 30);
        assert_eq!(a.replication, 10);
        assert_eq!(MacsBreakdown::default().total(), 0);
    }

    #[test]
    fn table1_orderings_hold() {
        // For equal parameters, SIGN costs more classification than SGC,
        // and S2GC adds the averaging term.
        let (k, m, n, f, c) = (5u64, 10_000, 1_000, 64, 16);
        assert!(table1::sign(k, m, n, f, c) > table1::sgc(k, m, n, f, c));
        assert!(table1::s2gc(k, m, n, f, c) > table1::sgc(k, m, n, f, c));
        assert!(table1::gamlp(k, m, n, f, c) > table1::sgc(k, m, n, f, c));
    }

    #[test]
    fn propagation_term_dominates_at_scale() {
        // The paper's premise: k·m·f dwarfs classification on large graphs.
        let (k, m, n, f, c) = (5u64, 100_000_000, 2_000_000, 100, 47);
        let total = table1::sgc(k, m, n, f, c);
        let prop = k * m * f;
        assert!(prop as f64 / total as f64 > 0.8);
    }
}
