//! Integration: one trained model, every deployment path.
//!
//! Trains a single NAI pipeline, checkpoints it to disk, and verifies
//! that all four deployment paths agree where they must:
//!
//! * static f32 engine (reference);
//! * checkpoint-restored static engine — identical predictions;
//! * streaming engine over the same frozen graph — identical predictions;
//! * INT8-quantized adaptive deployment — identical *depths*, accuracy
//!   within quantization tolerance;
//! * parallel inference — bit-identical with serial.

use nai::baselines::quantization::QuantizedNai;
use nai::datasets::{load, DatasetId, Scale};
use nai::prelude::*;

fn trained() -> (nai::datasets::Dataset, TrainedNai) {
    let ds = load(DatasetId::ArxivProxy, Scale::Test);
    let cfg = PipelineConfig {
        k: 3,
        hidden: vec![16],
        epochs: 30,
        patience: 10,
        gate_epochs: 8,
        distill: DistillConfig {
            epochs: 8,
            ensemble_r: 2,
            ..Default::default()
        },
        ..PipelineConfig::default()
    };
    let t = NaiPipeline::new(ModelKind::Sgc, cfg).train(&ds.graph, &ds.split, true);
    (ds, t)
}

#[test]
fn every_deployment_path_agrees() {
    let (ds, t) = trained();
    let cfg = InferenceConfig::distance(0.6, 1, 3);
    let reference = t.engine.infer(&ds.split.test, &ds.graph.labels, &cfg);
    assert!(reference.report.accuracy > 0.5);

    // Checkpoint roundtrip through the filesystem.
    let dir = std::env::temp_dir().join("nai_deploy_paths");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("model.naic");
    ModelCheckpoint::from_engine(&t.engine, 0.5)
        .save(&path)
        .unwrap();
    let ckpt = ModelCheckpoint::load(&path).unwrap();
    std::fs::remove_file(&path).ok();

    // (a) Restored static engine.
    let restored = ckpt.deploy(&ds.graph);
    let from_ckpt = restored.infer(&ds.split.test, &ds.graph.labels, &cfg);
    assert_eq!(reference.predictions, from_ckpt.predictions);
    assert_eq!(reference.depths, from_ckpt.depths);

    // (b) Streaming engine over the frozen graph.
    let mut streaming =
        StreamingEngine::from_checkpoint(&ckpt, DynamicGraph::from_graph(&ds.graph));
    let stream_res = streaming.infer_nodes(&ds.split.test, &cfg);
    let (spreds, sdepths): (Vec<usize>, Vec<usize>) = stream_res.into_iter().unzip();
    assert_eq!(reference.predictions, spreds);
    assert_eq!(reference.depths, sdepths);

    // (c) Quantized adaptive deployment: identical exits, near accuracy.
    let qnai = QuantizedNai::from_engine(&t.engine);
    let q = qnai.infer(&t.engine, &ds.split.test, &ds.graph.labels, &cfg);
    assert_eq!(reference.depths, q.depths);
    assert!(
        (q.report.accuracy - reference.report.accuracy).abs() < 0.05,
        "quantized {} vs f32 {}",
        q.report.accuracy,
        reference.report.accuracy
    );

    // (d) Parallel inference: bit-identical.
    let par = t
        .engine
        .infer_parallel(&ds.split.test, &ds.graph.labels, &cfg, 4);
    assert_eq!(reference.predictions, par.predictions);
    assert_eq!(reference.depths, par.depths);
    assert_eq!(reference.report.macs.total(), par.report.macs.total());
}

#[test]
fn streaming_deployment_survives_growth_and_stays_sane() {
    let (ds, t) = trained();
    let ckpt = ModelCheckpoint::from_engine(&t.engine, 0.5);
    let mut engine = StreamingEngine::from_checkpoint(&ckpt, DynamicGraph::from_graph(&ds.graph));
    let cfg = InferenceConfig {
        batch_size: 10,
        ..InferenceConfig::distance(0.6, 1, 3)
    };
    use rand::Rng;
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(3);
    let f = ds.graph.feature_dim();
    let mut served = 0usize;
    for _ in 0..35 {
        let feats: Vec<f32> = (0..f).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        let n = engine.graph().num_nodes();
        let nbrs: Vec<u32> = (0..3).map(|_| rng.gen_range(0..n) as u32).collect();
        engine.ingest(&feats, &nbrs);
        if engine.pending().len() >= cfg.batch_size {
            served += engine.flush(&cfg).len();
        }
    }
    served += engine.flush(&cfg).len();
    assert_eq!(served, 35);
    // The deployment graph grew by exactly the arrivals.
    assert_eq!(engine.graph().num_nodes(), ds.graph.num_nodes() + 35);
}
