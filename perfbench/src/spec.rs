//! The workload table: every size, rate and limit the benchmark uses.
//!
//! `README.md` in this directory gives the reason for each workload and
//! for the numbers below; change them there and here together.

use nai::core::config::{CacheConfig, InferenceConfig, ServeConfig};
use nai::datasets::{TopologyKind, TopologySpec};

/// Nodes in every seed graph: large enough that the 3-hop supporting
/// sets of a 500-node batch leave the last-level cache.
pub const NODES: usize = 100_000;
/// Feature dimensionality `f`.
pub const FEATURE_DIM: usize = 48;
/// Trained depth `k` (SGC) and the NAP_d settings: `T_s`, `T_max`.
pub const K: usize = 3;
pub const TS: f32 = 0.5;
pub const T_MAX: usize = 3;
/// The paper's default test-batch size.
pub const BATCH: usize = 500;
/// Training epochs of the untimed preparation.
pub const EPOCHS: usize = 12;
/// Mutations the traced run replays on the stream rung of a read-only
/// workload.
pub const MUTATIONS: usize = 2000;
/// How far the kernel rung's total may exceed `core.infer`'s before
/// the trace check fails: noise between two separately timed calls.
pub const KERNEL_ALLOWANCE: f64 = 0.05;
/// Measured rounds per run, each behind its own cold start; the timed
/// metrics are medians over rounds.
pub const ROUNDS: usize = 10;

/// NAP_d with `T_min = 1`, `T_max = 3`, `T_s = 0.5`, batches of 500.
pub fn infer_cfg() -> InferenceConfig {
    InferenceConfig::distance(TS, 1, T_MAX)
}

/// Which seed graph a workload runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// R-MAT with the `power-law` scenario's quadrant probabilities.
    Rmat,
    /// Watts–Strogatz ring lattice, rewire probability 0.1.
    SmallWorld,
}

impl Family {
    /// Short name, used in the preparation cache's file names.
    pub fn name(self) -> &'static str {
        match self {
            Family::Rmat => "rmat",
            Family::SmallWorld => "small-world",
        }
    }

    /// The seeded topology spec of this family at the benchmark's size.
    pub fn topology(self, seed: u64) -> TopologySpec {
        let kind = match self {
            Family::Rmat => TopologyKind::PowerLaw {
                a: 0.57,
                b: 0.19,
                c: 0.19,
            },
            Family::SmallWorld => TopologyKind::SmallWorld { rewire: 0.1 },
        };
        TopologySpec {
            name: self.name().to_string(),
            kind,
            num_nodes: NODES,
            num_classes: 5,
            avg_degree: 8.0,
            feature_dim: FEATURE_DIM,
            feature_noise: 2.0,
            train_frac: 0.5,
            val_frac: 0.2,
            seed,
        }
    }
}

/// Traffic through the server: what the serve workloads measure, and
/// what the traced run of every workload drives.
#[derive(Debug, Clone, Copy)]
pub struct Traffic {
    /// Distinct uniform nodes per read.
    pub read_nodes: usize,
    /// Open-loop rate of the paced phase, ops per second.
    pub paced_rate: f64,
    /// Share of `--seconds` given to the paced phase.
    pub paced_share: f64,
    /// Closed-loop capacity phase: requests kept in flight.
    pub window: usize,
    /// Nominal capacity in ops per second: the capacity phase replays
    /// `capacity_ops_per_s · (1 − paced_share) · seconds` ops, fixed
    /// work that takes about that long on the reference 2-core machine.
    pub capacity_ops_per_s: f64,
    /// Share of ops that mutate (the rest are single-node reads).
    pub mutation_share: f64,
    /// Share of mutations that ingest a new node (the rest add edges).
    pub ingest_share: f64,
    /// Prediction-cache capacity; `None` runs with the cache off.
    pub cache_cap: Option<usize>,
}

/// How a workload's end-to-end run drives the system.
#[derive(Debug, Clone, Copy)]
pub enum Drive {
    /// Back-to-back `NaiEngine::infer` calls on `BATCH`-node batches.
    Batch {
        /// Nominal batches per second: a run replays
        /// `batches_per_s · seconds` batches (fixed work).
        batches_per_s: f64,
    },
    /// The workload's traffic through an in-process HTTP server.
    Serve,
}

/// One benchmark workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub family: Family,
    pub drive: Drive,
    pub traffic: Traffic,
    /// Latency limit behind `slo_ok_share`, in microseconds: per batch
    /// for `batch-large`, per paced op for the serve workloads.
    pub slo_limit_us: f64,
}

impl Workload {
    /// Serving knobs: two workers (the reference box has two cores),
    /// defaults otherwise, cache as the traffic asks.
    pub fn serve_cfg(&self) -> ServeConfig {
        let cache = match self.traffic.cache_cap {
            Some(cap) => CacheConfig::on(cap),
            None => CacheConfig::off(),
        };
        ServeConfig {
            workers: 2,
            cache,
            ..ServeConfig::default()
        }
    }
}

pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "batch-large",
        family: Family::Rmat,
        drive: Drive::Batch {
            batches_per_s: 16.0,
        },
        // Used by the traced run only: 500-node reads through the server.
        traffic: Traffic {
            read_nodes: BATCH,
            paced_rate: 6.0,
            paced_share: 0.5,
            window: 4,
            capacity_ops_per_s: 12.0,
            mutation_share: 0.0,
            ingest_share: 0.0,
            cache_cap: None,
        },
        slo_limit_us: 150_000.0,
    },
    Workload {
        name: "serve-light",
        family: Family::SmallWorld,
        drive: Drive::Serve,
        traffic: Traffic {
            read_nodes: 1,
            paced_rate: 8000.0,
            paced_share: 0.5,
            window: 64,
            capacity_ops_per_s: 30_000.0,
            mutation_share: 0.0,
            ingest_share: 0.0,
            cache_cap: None,
        },
        slo_limit_us: 5_000.0,
    },
    Workload {
        name: "serve-mixed",
        family: Family::SmallWorld,
        drive: Drive::Serve,
        traffic: Traffic {
            read_nodes: 1,
            paced_rate: 3000.0,
            paced_share: 0.5,
            window: 64,
            capacity_ops_per_s: 30_000.0,
            mutation_share: 1.0 / 3.0,
            ingest_share: 0.7,
            cache_cap: Some(4096),
        },
        slo_limit_us: 5_000.0,
    },
];

/// Looks a workload up by name.
pub fn workload(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// Mixes a run seed with a stream tag (SplitMix64 finaliser), so the
/// graph, the training and each op stream draw independent numbers.
pub fn derive_seed(seed: u64, tag: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(tag.wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}
