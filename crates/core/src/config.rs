//! Configuration types for training and inference.

/// Which Node-Adaptive Propagation module controls early exits.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum NapMode {
    /// No adaptivity: every node propagates to `t_max` ("NAI w/o NAP" in
    /// Table VII; equivalent to the vanilla base model when
    /// `t_max = k`).
    Fixed,
    /// Distance-based NAP (NAP_d): exit when `‖X^(l) − X^(∞)‖ < t_s`.
    Distance {
        /// Exit threshold `T_s` of Eq. (9).
        ts: f32,
    },
    /// Gate-based NAP (NAP_g): trained gates decide exits (Eq. 11–13).
    Gate,
    /// Upper-bound NAP (NAP_u, extension): assigns each node the Eq. (10)
    /// spectral depth bound *before* propagation starts. Depths depend only
    /// on node degree and graph-level constants, so no per-depth distance or
    /// gate evaluation is spent — the cheapest policy, at some accuracy cost
    /// relative to NAP_d/NAP_g (see the `ablation_napu` bench).
    UpperBound {
        /// Smoothness threshold `T_s` fed into the Eq. (10) bound.
        ts: f32,
    },
}

/// Inference-time knobs of Algorithm 1.
#[derive(Debug, Clone, Copy)]
pub struct InferenceConfig {
    /// Minimum propagation depth `T_min` (no exits before this depth).
    pub t_min: usize,
    /// Maximum propagation depth `T_max` (everything left exits here).
    pub t_max: usize,
    /// NAP module selection.
    pub nap: NapMode,
    /// Test-batch size (the paper's default is 500).
    pub batch_size: usize,
    /// Parallelize each propagation SpMM over the frontier's rows
    /// (`nai_linalg::parallel`), honored by every read of the engine,
    /// batch or streaming. Results are bit-identical either way —
    /// every output row is an independent reduction — so this purely
    /// trades threads for intra-batch latency. Off by default: batch-level
    /// parallelism (`NaiEngine::infer_parallel`) usually scales better
    /// when many batches are in flight.
    pub parallel_spmm: bool,
}

impl InferenceConfig {
    /// Speed-first distance configuration used in Table V.
    pub fn distance(ts: f32, t_min: usize, t_max: usize) -> Self {
        Self {
            t_min,
            t_max,
            nap: NapMode::Distance { ts },
            batch_size: 500,
            parallel_spmm: false,
        }
    }

    /// Gate configuration.
    pub fn gate(t_min: usize, t_max: usize) -> Self {
        Self {
            t_min,
            t_max,
            nap: NapMode::Gate,
            batch_size: 500,
            parallel_spmm: false,
        }
    }

    /// Upper-bound (NAP_u) configuration.
    pub fn upper_bound(ts: f32, t_min: usize, t_max: usize) -> Self {
        Self {
            t_min,
            t_max,
            nap: NapMode::UpperBound { ts },
            batch_size: 500,
            parallel_spmm: false,
        }
    }

    /// Fixed-depth configuration (ablation baseline).
    pub fn fixed(t_max: usize) -> Self {
        Self {
            t_min: t_max,
            t_max,
            nap: NapMode::Fixed,
            batch_size: 500,
            parallel_spmm: false,
        }
    }

    /// Returns a copy with intra-batch row-parallel SpMM switched
    /// on/off.
    pub fn with_parallel_spmm(mut self, on: bool) -> Self {
        self.parallel_spmm = on;
        self
    }

    /// Validates `1 ≤ t_min ≤ t_max ≤ k`.
    ///
    /// # Errors
    /// Returns a description of the violated constraint.
    pub fn validate(&self, k: usize) -> Result<(), String> {
        if self.t_min < 1 {
            return Err(format!("t_min must be ≥ 1, got {}", self.t_min));
        }
        if self.t_min > self.t_max {
            return Err(format!(
                "t_min ({}) must not exceed t_max ({})",
                self.t_min, self.t_max
            ));
        }
        if self.t_max > k {
            return Err(format!(
                "t_max ({}) must not exceed the trained depth k ({k})",
                self.t_max
            ));
        }
        if self.batch_size == 0 {
            return Err("batch_size must be positive".to_string());
        }
        Ok(())
    }
}

/// Load-shedding policy for the serving layer: the paper's
/// accuracy↔latency dial (depth budget) driven by queue pressure.
///
/// When the number of admitted-but-unanswered requests reaches
/// `trigger_fraction × queue_cap`, batches are dispatched with a
/// *degraded* [`InferenceConfig`] whose depth budget is capped at
/// `t_max_cap` — every node exits by that depth, trading accuracy for
/// drain rate instead of queueing (or rejecting) further work.
#[derive(Debug, Clone, Copy)]
pub struct LoadShedPolicy {
    /// Queue-pressure trigger as a fraction of the admission bound
    /// (`0.0..=1.0`); shedding engages when
    /// `in_flight ≥ trigger_fraction × queue_cap`.
    pub trigger_fraction: f64,
    /// Depth budget under pressure (`t_max` is clamped to this).
    /// `0` disables shedding entirely.
    pub t_max_cap: usize,
}

impl Default for LoadShedPolicy {
    fn default() -> Self {
        Self {
            trigger_fraction: 0.75,
            t_max_cap: 1,
        }
    }
}

impl LoadShedPolicy {
    /// Whether the policy degrades batches at this in-flight level.
    pub fn engaged(&self, in_flight: usize, queue_cap: usize) -> bool {
        self.t_max_cap > 0 && (in_flight as f64) >= self.trigger_fraction * queue_cap as f64
    }

    /// The degraded inference configuration: `t_max` capped (and
    /// `t_min` lowered to keep the config valid). A no-op when the
    /// budget already fits under the cap or shedding is disabled.
    pub fn degrade(&self, cfg: &InferenceConfig) -> InferenceConfig {
        if self.t_max_cap == 0 || cfg.t_max <= self.t_max_cap {
            return *cfg;
        }
        let t_max = self.t_max_cap;
        InferenceConfig {
            t_min: cfg.t_min.min(t_max),
            t_max,
            ..*cfg
        }
    }
}

/// Sequence-versioned prediction cache for the serving layer.
///
/// The service remembers `(prediction, depth)` per node, stamped with
/// the mutation sequence number it was computed under, and answers
/// repeat reads without touching the engine. Every sequenced
/// mutation invalidates the entries its k-hop neighborhood could have
/// changed (see `nai-serve`'s `PredictionCache`); when the dirtied
/// frontier would exceed `frontier_budget` visited nodes — or the NAP
/// mode depends on global (stationary) state, where no local frontier
/// is sound — the whole cache is conservatively flushed instead.
#[derive(Debug, Clone, Copy)]
pub struct CacheConfig {
    /// Whether reads consult the cache at all.
    pub enabled: bool,
    /// Maximum cached nodes; least-recently-used entries are evicted
    /// beyond this.
    pub cap: usize,
    /// Invalidation-walk budget: if the BFS from a mutation's touched
    /// nodes visits more than this many nodes, fall back to a full
    /// flush (`0` = always flush).
    pub frontier_budget: usize,
}

impl Default for CacheConfig {
    fn default() -> Self {
        Self::off()
    }
}

impl CacheConfig {
    /// Caching disabled (the default: every read hits an engine).
    pub fn off() -> Self {
        Self {
            enabled: false,
            cap: 4096,
            frontier_budget: 512,
        }
    }

    /// Caching enabled with the given capacity and default walk budget.
    pub fn on(cap: usize) -> Self {
        Self {
            enabled: true,
            cap,
            ..Self::off()
        }
    }
}

/// Serving-layer knobs for `nai-serve`: reader threads, batching,
/// admission control and the prediction cache.
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// Reader (worker) thread count. Every worker reads the service's
    /// one shared engine, on its own amortized scratch; a shard hint
    /// names the worker that answers.
    pub workers: usize,
    /// A worker stops merging queued requests into one engine batch
    /// once it holds this many (the Fig. 5 batch-size dial at the
    /// service level). Nothing waits for a batch to fill: a worker
    /// runs whatever is queued for it as soon as it is free.
    pub max_batch: usize,
    /// Admission bound: maximum requests in flight (queued or being
    /// served); submissions beyond it are rejected as `Overloaded`.
    pub queue_cap: usize,
    /// Accuracy↔latency dial under queue pressure.
    pub shed: LoadShedPolicy,
    /// Sequence-versioned prediction cache (off by default).
    pub cache: CacheConfig,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            workers: 2,
            max_batch: 64,
            queue_cap: 1024,
            shed: LoadShedPolicy::default(),
            cache: CacheConfig::off(),
        }
    }
}

impl ServeConfig {
    /// Validates worker/batch/queue bounds and the shed trigger.
    ///
    /// # Errors
    /// Returns a description of the violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.workers == 0 {
            return Err("workers must be ≥ 1".to_string());
        }
        if self.max_batch == 0 {
            return Err("max_batch must be ≥ 1".to_string());
        }
        if self.queue_cap == 0 {
            return Err("queue_cap must be ≥ 1".to_string());
        }
        if !(0.0..=1.0).contains(&self.shed.trigger_fraction) {
            return Err(format!(
                "shed.trigger_fraction must be in [0, 1], got {}",
                self.shed.trigger_fraction
            ));
        }
        if self.cache.enabled && self.cache.cap == 0 {
            return Err("cache.cap must be ≥ 1 when the cache is enabled".to_string());
        }
        Ok(())
    }
}

/// Inception Distillation hyper-parameters (Tables III–IV of the paper).
#[derive(Debug, Clone, Copy)]
pub struct DistillConfig {
    /// Single-scale temperature `T_single`.
    pub t_single: f32,
    /// Single-scale mixing weight `λ_single`.
    pub lambda_single: f32,
    /// Multi-scale temperature `T_multi`.
    pub t_multi: f32,
    /// Multi-scale mixing weight `λ_multi`.
    pub lambda_multi: f32,
    /// Ensemble size `r` (number of top-depth classifiers voting).
    pub ensemble_r: usize,
    /// Multi-scale training epochs.
    pub epochs: usize,
}

impl Default for DistillConfig {
    fn default() -> Self {
        Self {
            t_single: 1.2,
            lambda_single: 0.5,
            t_multi: 1.8,
            lambda_multi: 0.8,
            ensemble_r: 3,
            epochs: 60,
        }
    }
}

/// End-to-end training configuration for the NAI pipeline.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// Highest propagation depth `k` (one classifier per depth `1..=k`).
    pub k: usize,
    /// Hidden widths of every classifier MLP.
    pub hidden: Vec<usize>,
    /// Classifier dropout.
    pub dropout: f32,
    /// Learning rate.
    pub lr: f32,
    /// Weight decay.
    pub weight_decay: f32,
    /// Epoch budget for base/single-scale training.
    pub epochs: usize,
    /// Early-stopping patience.
    pub patience: usize,
    /// Mini-batch size for classifier training (0 = full batch).
    pub train_batch: usize,
    /// Distillation settings.
    pub distill: DistillConfig,
    /// Whether Inception Distillation runs at all (ablations switch the
    /// stages off).
    pub use_single_scale: bool,
    /// Whether Multi-Scale Distillation runs.
    pub use_multi_scale: bool,
    /// Gate training epochs (gate-based NAP).
    pub gate_epochs: usize,
    /// Gumbel-softmax temperature for gate training.
    pub gate_tau: f32,
    /// Master RNG seed.
    pub seed: u64,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        Self {
            k: 5,
            hidden: vec![64],
            dropout: 0.1,
            lr: 0.01,
            weight_decay: 0.0,
            epochs: 100,
            patience: 20,
            train_batch: 0,
            distill: DistillConfig::default(),
            use_single_scale: true,
            use_multi_scale: true,
            gate_epochs: 40,
            gate_tau: 1.0,
            seed: 42,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validation_accepts_sane_configs() {
        assert!(InferenceConfig::distance(0.1, 1, 5).validate(5).is_ok());
        assert!(InferenceConfig::fixed(3).validate(5).is_ok());
        assert!(InferenceConfig::gate(2, 4).validate(5).is_ok());
    }

    #[test]
    fn validation_rejects_bad_bounds() {
        assert!(InferenceConfig::distance(0.1, 0, 5).validate(5).is_err());
        assert!(InferenceConfig::distance(0.1, 4, 3).validate(5).is_err());
        assert!(InferenceConfig::distance(0.1, 1, 9).validate(5).is_err());
        let mut c = InferenceConfig::fixed(2);
        c.batch_size = 0;
        assert!(c.validate(5).is_err());
    }

    #[test]
    fn fixed_mode_pins_tmin_to_tmax() {
        let c = InferenceConfig::fixed(4);
        assert_eq!(c.t_min, 4);
        assert_eq!(c.t_max, 4);
        assert_eq!(c.nap, NapMode::Fixed);
    }

    #[test]
    fn serve_config_validation() {
        assert!(ServeConfig::default().validate().is_ok());
        for broken in [
            ServeConfig {
                workers: 0,
                ..ServeConfig::default()
            },
            ServeConfig {
                max_batch: 0,
                ..ServeConfig::default()
            },
            ServeConfig {
                queue_cap: 0,
                ..ServeConfig::default()
            },
            ServeConfig {
                shed: LoadShedPolicy {
                    trigger_fraction: 1.5,
                    t_max_cap: 1,
                },
                ..ServeConfig::default()
            },
            ServeConfig {
                cache: CacheConfig {
                    enabled: true,
                    cap: 0,
                    frontier_budget: 512,
                },
                ..ServeConfig::default()
            },
        ] {
            assert!(broken.validate().is_err(), "{broken:?}");
        }
    }

    #[test]
    fn cache_config_defaults_and_constructors() {
        let off = CacheConfig::default();
        assert!(!off.enabled);
        let on = CacheConfig::on(64);
        assert!(on.enabled);
        assert_eq!(on.cap, 64);
        assert_eq!(on.frontier_budget, off.frontier_budget);
        // A zero cap is fine while disabled, rejected once enabled.
        assert!(ServeConfig {
            cache: CacheConfig {
                enabled: false,
                cap: 0,
                frontier_budget: 0,
            },
            ..ServeConfig::default()
        }
        .validate()
        .is_ok());
        assert!(ServeConfig {
            cache: CacheConfig::on(1),
            ..ServeConfig::default()
        }
        .validate()
        .is_ok());
    }

    #[test]
    fn load_shed_engages_at_trigger_fraction() {
        let shed = LoadShedPolicy {
            trigger_fraction: 0.5,
            t_max_cap: 1,
        };
        assert!(!shed.engaged(4, 10));
        assert!(shed.engaged(5, 10));
        assert!(shed.engaged(10, 10));
        // t_max_cap = 0 disables shedding regardless of pressure.
        let off = LoadShedPolicy {
            trigger_fraction: 0.0,
            t_max_cap: 0,
        };
        assert!(!off.engaged(10, 10));
    }

    #[test]
    fn degrade_caps_depth_budget_and_stays_valid() {
        let shed = LoadShedPolicy {
            trigger_fraction: 0.75,
            t_max_cap: 2,
        };
        let deep = InferenceConfig::distance(0.5, 1, 5);
        let capped = shed.degrade(&deep);
        assert_eq!(capped.t_max, 2);
        assert_eq!(capped.t_min, 1);
        assert!(capped.validate(5).is_ok());
        // Fixed mode (t_min == t_max) stays valid after capping.
        let fixed = shed.degrade(&InferenceConfig::fixed(4));
        assert_eq!((fixed.t_min, fixed.t_max), (2, 2));
        assert!(fixed.validate(5).is_ok());
        // Already under the cap → unchanged.
        let shallow = InferenceConfig::distance(0.5, 1, 2);
        assert_eq!(shed.degrade(&shallow).t_max, 2);
        // Disabled policy is the identity.
        let off = LoadShedPolicy {
            trigger_fraction: 0.75,
            t_max_cap: 0,
        };
        assert_eq!(off.degrade(&deep).t_max, 5);
    }
}
