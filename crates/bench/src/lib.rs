//! Shared plumbing for the table/figure harness.
//!
//! Every `benches/*.rs` target (run via `cargo bench`) regenerates one
//! table or figure of the paper: it trains the required models on the
//! dataset proxies, measures the same columns the paper reports, and
//! prints measured rows next to the paper's reference values. Absolute
//! numbers differ (synthetic proxies, different hardware); the *shape* —
//! who wins, by roughly what factor — is the reproduction target.
//!
//! Set `NAI_BENCH_SCALE=test` to run every harness on the tiny test-scale
//! proxies (smoke mode, ~10× faster).

use nai::core::config::DistillConfig;
use nai::datasets::{load, Dataset, DatasetId, Scale};
use nai::prelude::*;

/// One printed table row.
#[derive(Debug, Clone)]
pub struct Row {
    /// Method name (left column).
    pub method: String,
    /// Accuracy (fraction).
    pub acc: f64,
    /// Total mega-MACs per node.
    pub mmacs: f64,
    /// Feature-processing mega-MACs per node.
    pub fp_mmacs: f64,
    /// Inference time per node, ms.
    pub time_ms: f64,
    /// Feature-processing time per node, ms.
    pub fp_time_ms: f64,
}

impl Row {
    /// Builds a row from an inference report.
    pub fn from_report(method: impl Into<String>, r: &nai::core::metrics::InferenceReport) -> Self {
        Self {
            method: method.into(),
            acc: r.accuracy,
            mmacs: r.mmacs_per_node(),
            fp_mmacs: r.fp_mmacs_per_node(),
            time_ms: r.time_ms_per_node(),
            fp_time_ms: r.fp_time_ms_per_node(),
        }
    }
}

/// Prints a table in the paper's Table V format, with speedup ratios
/// relative to `baseline_method` (usually the vanilla model).
pub fn print_table(title: &str, rows: &[Row], baseline_method: &str) {
    println!("\n=== {title} ===");
    println!(
        "{:<14} {:>8} {:>12} {:>12} {:>14} {:>14}",
        "method", "ACC%", "#mMACs", "#FP mMACs", "Time(ms)", "FP Time(ms)"
    );
    let base = rows.iter().find(|r| r.method == baseline_method).cloned();
    for r in rows {
        let ratio = |b: f64, v: f64| -> String {
            if v > 0.0 && b > 0.0 && r.method != baseline_method {
                format!("({:.1}x)", b / v)
            } else {
                String::new()
            }
        };
        let (rt, rf) = match &base {
            Some(b) => (
                ratio(b.time_ms, r.time_ms),
                ratio(b.fp_time_ms, r.fp_time_ms),
            ),
            None => (String::new(), String::new()),
        };
        println!(
            "{:<14} {:>8.2} {:>12.4} {:>12.4} {:>8.4}{:<6} {:>8.4}{:<6}",
            r.method,
            100.0 * r.acc,
            r.mmacs,
            r.fp_mmacs,
            r.time_ms,
            rt,
            r.fp_time_ms,
            rf
        );
    }
}

/// Prints the paper's reference rows (verbatim values from the PDF) so the
/// measured shape can be compared at a glance.
pub fn print_paper_reference(title: &str, lines: &[&str]) {
    println!("\n--- paper reference: {title} ---");
    for l in lines {
        println!("  {l}");
    }
}

/// Scale selected by `NAI_BENCH_SCALE` (`test` → tiny proxies).
pub fn bench_scale() -> Scale {
    match std::env::var("NAI_BENCH_SCALE").as_deref() {
        Ok("test") => Scale::Test,
        _ => Scale::Bench,
    }
}

/// Loads a dataset proxy at the harness scale.
pub fn dataset(id: DatasetId) -> Dataset {
    load(id, bench_scale())
}

/// Propagation depth `k` per dataset (Table III: Flickr 7, others 5),
/// halved at smoke scale.
pub fn k_for(id: DatasetId) -> usize {
    let k = match id {
        DatasetId::FlickrProxy => 7,
        _ => 5,
    };
    match bench_scale() {
        Scale::Test => (k / 2).max(2),
        Scale::Bench => k,
    }
}

/// Pipeline configuration mapped from the paper's Tables III–IV
/// hyper-parameters (temperatures/λ taken verbatim; epochs sized for the
/// proxy scale).
pub fn pipeline_config(id: DatasetId, kind: ModelKind) -> PipelineConfig {
    let (t_single, lambda_single, t_multi, lambda_multi) = match (id, kind) {
        (DatasetId::FlickrProxy, ModelKind::Sgc) => (1.2, 0.6, 1.9, 0.8),
        (DatasetId::ArxivProxy, ModelKind::Sgc) => (1.0, 0.1, 1.5, 0.1),
        (DatasetId::ProductsProxy, ModelKind::Sgc) => (1.1, 0.2, 1.0, 0.1),
        (_, ModelKind::S2gc) => (1.0, 0.1, 1.9, 0.6),
        (_, ModelKind::Sign) => (2.0, 0.9, 1.8, 0.9),
        (_, ModelKind::Gamlp) => (1.6, 0.9, 1.8, 0.8),
    };
    let smoke = bench_scale() == Scale::Test;
    PipelineConfig {
        k: match kind {
            // Table IV: S2GC uses k = 10.
            ModelKind::S2gc if !smoke => 10,
            _ => k_for(id),
        },
        hidden: vec![64],
        dropout: match id {
            DatasetId::ProductsProxy => 0.1,
            _ => 0.3,
        },
        lr: 0.01,
        weight_decay: 0.0,
        epochs: if smoke { 30 } else { 80 },
        patience: 15,
        train_batch: 0,
        distill: DistillConfig {
            t_single,
            lambda_single,
            t_multi,
            lambda_multi,
            // r = 3 per the paper; clamped at smoke scale where k may be 2.
            ensemble_r: 3.min(k_for(id)),
            epochs: if smoke { 10 } else { 40 },
        },
        use_single_scale: true,
        use_multi_scale: true,
        gate_epochs: if smoke { 8 } else { 30 },
        gate_tau: 1.0,
        seed: 42,
    }
}

/// Trains the full NAI stack (with gates) for a dataset/model pair.
pub fn train_nai(ds: &Dataset, kind: ModelKind) -> TrainedNai {
    let cfg = pipeline_config(ds.id, kind);
    NaiPipeline::new(kind, cfg).train(&ds.graph, &ds.split, true)
}

/// Candidate `T_s` sweep used by all operating-point selections.
pub const TS_SWEEP: [f32; 7] = [0.125, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0];

/// Operating points of Fig. 4 / Table VI: `NAI¹` (speed-first), `NAI²`
/// (balanced), `NAI³` (accuracy-first).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OperatingPoint {
    /// Largest `T_s` whose validation accuracy stays within 3 points of
    /// the fixed-depth reference.
    SpeedFirst,
    /// Largest `T_s` within 1 point.
    Balanced,
    /// The `T_s` with the best validation accuracy.
    AccuracyFirst,
}

impl OperatingPoint {
    /// The three points in Fig. 4 order.
    pub fn all() -> [OperatingPoint; 3] {
        [
            OperatingPoint::SpeedFirst,
            OperatingPoint::Balanced,
            OperatingPoint::AccuracyFirst,
        ]
    }

    /// Superscript label used by the paper ("NAI¹" …).
    pub fn label(self) -> &'static str {
        match self {
            OperatingPoint::SpeedFirst => "1",
            OperatingPoint::Balanced => "2",
            OperatingPoint::AccuracyFirst => "3",
        }
    }
}

/// Selects `T_s` on the validation set per the operating point.
pub fn select_ts(trained: &TrainedNai, ds: &Dataset, k: usize, point: OperatingPoint) -> f32 {
    let val_acc = |cfg: &InferenceConfig| {
        trained
            .engine
            .infer(&ds.split.val, &ds.graph.labels, cfg)
            .report
            .accuracy
    };
    let reference = val_acc(&InferenceConfig::fixed(k));
    let accs: Vec<(f32, f64)> = TS_SWEEP
        .iter()
        .map(|&ts| (ts, val_acc(&InferenceConfig::distance(ts, 1, k))))
        .collect();
    match point {
        OperatingPoint::AccuracyFirst => {
            accs.iter()
                .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
                .expect("non-empty sweep")
                .0
        }
        OperatingPoint::SpeedFirst | OperatingPoint::Balanced => {
            let tol = if point == OperatingPoint::SpeedFirst {
                0.03
            } else {
                0.01
            };
            accs.iter()
                .rev()
                .find(|&&(_, acc)| acc >= reference - tol)
                .map(|&(ts, _)| ts)
                .unwrap_or(TS_SWEEP[0])
        }
    }
}

/// Joint `(T_s, T_max)` selection on the validation set — §III-A: "users
/// can choose the hyper-parameters by using \[the\] validation set that
/// align with the latency requirements". Speed-first/balanced pick the
/// config with the lowest validation FP MACs whose accuracy stays within
/// tolerance of the fixed-depth reference; accuracy-first picks the most
/// accurate config. Sweeping `T_max` matters on dense proxies: stragglers
/// that never exit keep full-depth frontiers alive, so capping `T_max`
/// (the paper's products NAI¹ pins every node to depth 2) is where the
/// big savings come from.
pub fn select_distance_config(
    trained: &TrainedNai,
    ds: &Dataset,
    k: usize,
    point: OperatingPoint,
) -> InferenceConfig {
    let val = |cfg: &InferenceConfig| {
        let run = trained.engine.infer(&ds.split.val, &ds.graph.labels, cfg);
        (run.report.accuracy, run.report.fp_mmacs_per_node())
    };
    let (reference, _) = val(&InferenceConfig::fixed(k));
    let tol = match point {
        OperatingPoint::SpeedFirst => 0.03,
        OperatingPoint::Balanced => 0.01,
        OperatingPoint::AccuracyFirst => f64::INFINITY,
    };
    let mut best: Option<(f64, f64, InferenceConfig)> = None;
    for t_max in 1..=k {
        for &ts in TS_SWEEP.iter() {
            let cfg = InferenceConfig::distance(ts, 1, t_max);
            let (acc, fp) = val(&cfg);
            let better = match point {
                OperatingPoint::AccuracyFirst => match &best {
                    None => true,
                    Some((bacc, bfp, _)) => acc > *bacc || (acc == *bacc && fp < *bfp),
                },
                _ => {
                    acc >= reference - tol
                        && match &best {
                            None => true,
                            Some((_, bfp, _)) => fp < *bfp,
                        }
                }
            };
            if better {
                best = Some((acc, fp, cfg));
            }
        }
    }
    best.map(|(_, _, cfg)| cfg)
        .unwrap_or_else(|| InferenceConfig::distance(TS_SWEEP[0], 1, k))
}

/// `T_max` selection for the gate variant (gates have no threshold knob;
/// the latency budget enters through the depth cap).
pub fn select_gate_config(
    trained: &TrainedNai,
    ds: &Dataset,
    k: usize,
    point: OperatingPoint,
) -> InferenceConfig {
    let val = |cfg: &InferenceConfig| {
        let run = trained.engine.infer(&ds.split.val, &ds.graph.labels, cfg);
        (run.report.accuracy, run.report.fp_mmacs_per_node())
    };
    let (reference, _) = val(&InferenceConfig::fixed(k));
    let tol = match point {
        OperatingPoint::SpeedFirst => 0.03,
        OperatingPoint::Balanced => 0.01,
        OperatingPoint::AccuracyFirst => f64::INFINITY,
    };
    let mut best: Option<(f64, f64, InferenceConfig)> = None;
    for t_max in 1..=k {
        let cfg = if t_max == 1 {
            InferenceConfig::fixed(1)
        } else {
            InferenceConfig::gate(1, t_max)
        };
        let (acc, fp) = val(&cfg);
        let better = match point {
            OperatingPoint::AccuracyFirst => match &best {
                None => true,
                Some((bacc, bfp, _)) => acc > *bacc || (acc == *bacc && fp < *bfp),
            },
            _ => {
                acc >= reference - tol
                    && match &best {
                        None => true,
                        Some((_, bfp, _)) => fp < *bfp,
                    }
            }
        };
        if better {
            best = Some((acc, fp, cfg));
        }
    }
    best.map(|(_, _, cfg)| cfg)
        .unwrap_or_else(|| InferenceConfig::gate(1, k))
}

/// Trains and runs the four Table V baselines against a trained NAI
/// teacher; returns rows in paper order. `batch` is the inference batch
/// size (the paper uses 500).
pub fn baseline_rows(ds: &Dataset, trained: &TrainedNai, batch: usize) -> Vec<Row> {
    use nai::baselines::glnn::{Glnn, GlnnConfig};
    use nai::baselines::nosmog::{Nosmog, NosmogConfig};
    use nai::baselines::quantization::QuantizedModel;
    use nai::baselines::tinygnn::{TinyGnn, TinyGnnConfig};
    use nai::nn::trainer::TrainConfig;

    let smoke = bench_scale() == Scale::Test;
    let kd_train = TrainConfig {
        epochs: if smoke { 30 } else { 60 },
        patience: 15,
        adam: nai::nn::adam::Adam::new(0.01, 0.0),
        ..TrainConfig::default()
    };
    let labels = &ds.graph.labels;
    let test = &ds.split.test;
    let mut rows = Vec::new();

    let glnn = Glnn::distill(
        trained,
        &ds.graph,
        &ds.split,
        &GlnnConfig {
            hidden: vec![256],
            train: kd_train.clone(),
            ..GlnnConfig::default()
        },
        11,
    );
    rows.push(Row::from_report(
        "GLNN",
        &glnn.infer(&ds.graph, test, labels, batch).report,
    ));

    let nosmog = Nosmog::distill(
        trained,
        &ds.graph,
        &ds.split,
        &NosmogConfig {
            hidden: vec![256],
            train: kd_train.clone(),
            ..NosmogConfig::default()
        },
        12,
    );
    rows.push(Row::from_report(
        "NOSMOG",
        &nosmog.infer(&ds.graph, test, labels, batch).report,
    ));

    let mut tiny = TinyGnn::distill(
        trained,
        &ds.graph,
        &ds.split,
        &TinyGnnConfig {
            epochs: if smoke { 10 } else { 25 },
            ..TinyGnnConfig::default()
        },
        13,
    );
    rows.push(Row::from_report(
        "TinyGNN",
        &tiny.infer(&ds.graph, test, labels, batch, 14).report,
    ));

    let quant = QuantizedModel::from_engine(&trained.engine);
    rows.push(Row::from_report(
        "Quantization",
        &quant.infer(&trained.engine, test, labels, batch).report,
    ));
    rows
}

/// Runs NAI_d (validation-selected `T_s` at the operating point) and NAI_g
/// on the test set; returns their rows plus the chosen threshold.
pub fn nai_rows(
    ds: &Dataset,
    trained: &TrainedNai,
    k: usize,
    point: OperatingPoint,
    batch: usize,
) -> (Vec<Row>, String) {
    let mut d_cfg = select_distance_config(trained, ds, k, point);
    d_cfg.batch_size = batch;
    let napd = trained
        .engine
        .infer(&ds.split.test, &ds.graph.labels, &d_cfg);
    let mut g_cfg = select_gate_config(trained, ds, k, point);
    g_cfg.batch_size = batch;
    let napg = trained
        .engine
        .infer(&ds.split.test, &ds.graph.labels, &g_cfg);
    let describe = |cfg: &InferenceConfig| match cfg.nap {
        nai::core::config::NapMode::Distance { ts } => {
            format!("T_s={ts}, T_max={}", cfg.t_max)
        }
        _ => format!("T_max={}", cfg.t_max),
    };
    (
        vec![
            Row::from_report("NAI_d", &napd.report),
            Row::from_report("NAI_g", &napg.report),
        ],
        format!("d: {}; g: {}", describe(&d_cfg), describe(&g_cfg)),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn k_values_match_table3_at_bench_scale() {
        std::env::remove_var("NAI_BENCH_SCALE");
        assert_eq!(k_for(DatasetId::FlickrProxy), 7);
        assert_eq!(k_for(DatasetId::ArxivProxy), 5);
        assert_eq!(k_for(DatasetId::ProductsProxy), 5);
    }

    #[test]
    fn pipeline_config_encodes_table3_temperatures() {
        std::env::remove_var("NAI_BENCH_SCALE");
        let c = pipeline_config(DatasetId::FlickrProxy, ModelKind::Sgc);
        assert!((c.distill.t_single - 1.2).abs() < 1e-6);
        assert!((c.distill.lambda_single - 0.6).abs() < 1e-6);
        assert!((c.distill.t_multi - 1.9).abs() < 1e-6);
        assert!((c.distill.lambda_multi - 0.8).abs() < 1e-6);
        let s2gc = pipeline_config(DatasetId::FlickrProxy, ModelKind::S2gc);
        assert_eq!(s2gc.k, 10);
    }

    #[test]
    fn row_formatting_does_not_panic() {
        let rows = vec![
            Row {
                method: "SGC".into(),
                acc: 0.7,
                mmacs: 10.0,
                fp_mmacs: 9.0,
                time_ms: 1.5,
                fp_time_ms: 1.2,
            },
            Row {
                method: "NAI_d".into(),
                acc: 0.69,
                mmacs: 1.0,
                fp_mmacs: 0.5,
                time_ms: 0.2,
                fp_time_ms: 0.1,
            },
        ];
        print_table("smoke", &rows, "SGC");
        print_paper_reference("smoke", &["line"]);
    }

    #[test]
    fn operating_points_have_labels() {
        for p in OperatingPoint::all() {
            assert!(!p.label().is_empty());
        }
    }
}
