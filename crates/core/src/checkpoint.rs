//! Model checkpoints: persist a trained NAI deployment and re-deploy it
//! against a (possibly different) graph.
//!
//! A checkpoint stores the *model* — per-depth classifier weights, optional
//! gate weights, and the architecture needed to rebuild them — but **not**
//! the graph: the deployment graph is supplied at load time and the engine
//! derives its normalization factors and stationary state. This matches
//! the paper's inductive protocol, where the model trained on `G_train` is
//! deployed on the full graph containing unseen nodes, and lets one
//! checkpoint serve a stream of growing graphs (see [`crate::engine`]).
//!
//! The format is the same little-endian, magic-and-version style as
//! `nai-graph::io` (magic `NAIC`). Checkpoints are deployment artifacts:
//! optimizer state and dropout are deliberately not stored, so a restored
//! model serves inference but does not resume training.
//!
//! ```no_run
//! use nai_core::checkpoint::ModelCheckpoint;
//! use nai_core::config::InferenceConfig;
//! # fn demo(trained: nai_core::pipeline::TrainedNai,
//! #         graph: nai_graph::Graph,
//! #         test: Vec<u32>) -> Result<(), Box<dyn std::error::Error>> {
//! // Persist after training …
//! let ckpt = ModelCheckpoint::from_engine(&trained.engine, 0.5);
//! ckpt.save(std::path::Path::new("model.naic"))?;
//!
//! // … and deploy later against any graph with the same feature dim.
//! let restored = ModelCheckpoint::load(std::path::Path::new("model.naic"))?;
//! let engine = restored.deploy(&graph);
//! let res = engine.infer(&test, &graph.labels, &InferenceConfig::distance(0.5, 1, restored.k));
//! println!("acc {:.3}", res.report.accuracy);
//! # Ok(())
//! # }
//! ```

use crate::gates::GateSet;
use crate::inference::NaiEngine;
use bytes::{Buf, BufMut, Bytes, BytesMut};
use nai_graph::{DynamicGraph, Graph};
use nai_models::classifier::ClassifierSnapshot;
use nai_models::{DepthClassifier, ModelKind};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::Path;

const MAGIC: &[u8; 4] = b"NAIC";
const VERSION: u32 = 1;

/// Checkpoint (de)serialization failures.
#[derive(Debug)]
pub enum CheckpointError {
    /// Underlying filesystem failure.
    Io(std::io::Error),
    /// Malformed or truncated checkpoint bytes.
    Decode(String),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint io error: {e}"),
            CheckpointError::Decode(msg) => write!(f, "checkpoint decode error: {msg}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

/// Result alias for checkpoint operations.
pub type Result<T> = std::result::Result<T, CheckpointError>;

/// A serializable trained NAI model.
#[derive(Debug, Clone)]
pub struct ModelCheckpoint {
    /// Base Scalable-GNN kind.
    pub kind: ModelKind,
    /// Highest trained depth `k`.
    pub k: usize,
    /// Input feature dimension `f`.
    pub feature_dim: usize,
    /// Number of classes `c`.
    pub num_classes: usize,
    /// Hidden widths of every classifier MLP.
    pub hidden: Vec<usize>,
    /// Convolution coefficient γ of the deployment's `Â` and stationary state.
    pub gamma: f32,
    classifier_snaps: Vec<ClassifierSnapshot>,
    gate_snaps: Option<Vec<(Vec<f32>, Vec<f32>)>>,
}

fn kind_to_u8(kind: ModelKind) -> u8 {
    match kind {
        ModelKind::Sgc => 0,
        ModelKind::Sign => 1,
        ModelKind::S2gc => 2,
        ModelKind::Gamlp => 3,
    }
}

fn kind_from_u8(v: u8) -> Result<ModelKind> {
    match v {
        0 => Ok(ModelKind::Sgc),
        1 => Ok(ModelKind::Sign),
        2 => Ok(ModelKind::S2gc),
        3 => Ok(ModelKind::Gamlp),
        other => Err(CheckpointError::Decode(format!(
            "unknown model kind tag {other}"
        ))),
    }
}

fn put_f32_vec(buf: &mut BytesMut, v: &[f32]) {
    buf.put_u64_le(v.len() as u64);
    for &x in v {
        buf.put_f32_le(x);
    }
}

fn need(data: &[u8], n: usize, what: &str) -> Result<()> {
    if data.remaining() < n {
        Err(CheckpointError::Decode(format!(
            "truncated while reading {what}: need {n} bytes, have {}",
            data.remaining()
        )))
    } else {
        Ok(())
    }
}

fn get_f32_vec(data: &mut &[u8], what: &str) -> Result<Vec<f32>> {
    need(data, 8, what)?;
    let len = data.get_u64_le();
    let bytes = usize::try_from(len)
        .ok()
        .and_then(|len| len.checked_mul(4))
        .ok_or_else(|| CheckpointError::Decode(format!("{what} length {len} overflows")))?;
    need(data, bytes, what)?;
    let mut v = Vec::with_capacity(bytes / 4);
    for _ in 0..bytes / 4 {
        v.push(data.get_f32_le());
    }
    Ok(v)
}

fn get_pair(data: &mut &[u8], what: &str) -> Result<(Vec<f32>, Vec<f32>)> {
    let w = get_f32_vec(data, what)?;
    let b = get_f32_vec(data, what)?;
    Ok((w, b))
}

impl ModelCheckpoint {
    /// Captures the trained state of an engine.
    ///
    /// Architecture metadata (hidden widths, class count) is recovered
    /// from the deepest classifier's MLP; `gamma` records the stationary
    /// convolution coefficient (the pipeline uses symmetric `γ = 0.5`).
    ///
    /// # Panics
    /// Panics if the engine has no classifiers (impossible via
    /// [`NaiEngine::new`]).
    pub fn from_engine(engine: &NaiEngine, gamma: f32) -> Self {
        let classifiers = engine.classifiers();
        // nai-lint: allow(hot-path-panic) -- NaiEngine::new rejects k = 0, so
        // a constructed engine always has ≥1 classifier (documented # Panics).
        let first = classifiers.first().expect("engine has classifiers");
        let layers = first.mlp.layers();
        let hidden: Vec<usize> = layers[..layers.len() - 1]
            .iter()
            .map(|l| l.out_dim())
            .collect();
        Self {
            kind: first.kind(),
            k: classifiers.len(),
            feature_dim: engine.feature_dim(),
            num_classes: first.mlp.out_dim(),
            hidden,
            gamma,
            classifier_snaps: classifiers.iter().map(|c| c.snapshot()).collect(),
            gate_snaps: engine.gates().map(|g| g.snapshot()),
        }
    }

    /// Serializes the checkpoint.
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(1024);
        buf.put_slice(MAGIC);
        buf.put_u32_le(VERSION);
        buf.put_u8(kind_to_u8(self.kind));
        buf.put_u64_le(self.k as u64);
        buf.put_u64_le(self.feature_dim as u64);
        buf.put_u64_le(self.num_classes as u64);
        buf.put_f32_le(self.gamma);
        buf.put_u64_le(self.hidden.len() as u64);
        for &h in &self.hidden {
            buf.put_u64_le(h as u64);
        }
        buf.put_u64_le(self.classifier_snaps.len() as u64);
        for snap in &self.classifier_snaps {
            let layers = snap.mlp_layers();
            buf.put_u64_le(layers.len() as u64);
            for (w, b) in layers {
                put_f32_vec(&mut buf, w);
                put_f32_vec(&mut buf, b);
            }
            match snap.gamlp_params() {
                Some((w, b)) => {
                    buf.put_u8(1);
                    put_f32_vec(&mut buf, w);
                    put_f32_vec(&mut buf, b);
                }
                None => buf.put_u8(0),
            }
        }
        match &self.gate_snaps {
            Some(gates) => {
                buf.put_u8(1);
                buf.put_u64_le(gates.len() as u64);
                for (w, b) in gates {
                    put_f32_vec(&mut buf, w);
                    put_f32_vec(&mut buf, b);
                }
            }
            None => buf.put_u8(0),
        }
        buf.freeze()
    }

    /// Deserializes a checkpoint produced by [`Self::encode`].
    ///
    /// # Errors
    /// Returns [`CheckpointError::Decode`] on truncation, bad magic,
    /// unknown version, or inconsistent counts.
    pub fn decode(mut data: &[u8]) -> Result<Self> {
        need(data, 8, "header")?;
        let mut magic = [0u8; 4];
        data.copy_to_slice(&mut magic);
        if &magic != MAGIC {
            return Err(CheckpointError::Decode(format!(
                "bad magic {magic:?}, expected NAIC"
            )));
        }
        let version = data.get_u32_le();
        if version != VERSION {
            return Err(CheckpointError::Decode(format!(
                "unsupported version {version}"
            )));
        }
        need(data, 1 + 8 * 3 + 4 + 8, "metadata")?;
        let kind = kind_from_u8(data.get_u8())?;
        let k = data.get_u64_le() as usize;
        let feature_dim = data.get_u64_le() as usize;
        let num_classes = data.get_u64_le() as usize;
        let gamma = data.get_f32_le();
        let hidden_len = data.get_u64_le() as usize;
        if hidden_len > 64 {
            return Err(CheckpointError::Decode(format!(
                "implausible hidden layer count {hidden_len}"
            )));
        }
        need(data, hidden_len * 8, "hidden widths")?;
        let hidden: Vec<usize> = (0..hidden_len)
            .map(|_| data.get_u64_le() as usize)
            .collect();
        // Bound every dimension before anything is allocated from it: a
        // corrupted metadata field must produce a decode error, never an
        // absurd allocation in `build_classifiers`.
        const MAX_DIM: usize = 1 << 22;
        for (what, v) in [
            ("k", k),
            ("feature_dim", feature_dim),
            ("num_classes", num_classes),
        ] {
            if v == 0 || v > MAX_DIM {
                return Err(CheckpointError::Decode(format!("implausible {what} = {v}")));
            }
        }
        if k > 256 {
            return Err(CheckpointError::Decode(format!("implausible k = {k}")));
        }
        for &h in &hidden {
            if h == 0 || h > MAX_DIM {
                return Err(CheckpointError::Decode(format!(
                    "implausible hidden width {h}"
                )));
            }
        }
        need(data, 8, "classifier count")?;
        let num_clf = data.get_u64_le() as usize;
        if num_clf != k {
            return Err(CheckpointError::Decode(format!(
                "classifier count {num_clf} disagrees with k = {k}"
            )));
        }
        let mut classifier_snaps = Vec::with_capacity(num_clf);
        for i in 0..num_clf {
            need(data, 8, "mlp layer count")?;
            let layers = data.get_u64_le() as usize;
            if layers > 64 {
                return Err(CheckpointError::Decode(format!(
                    "implausible layer count {layers} in classifier {i}"
                )));
            }
            let mut mlp = Vec::with_capacity(layers);
            for _ in 0..layers {
                mlp.push(get_pair(&mut data, "mlp layer")?);
            }
            need(data, 1, "gamlp flag")?;
            let gamlp = if data.get_u8() == 1 {
                Some(get_pair(&mut data, "gamlp params")?)
            } else {
                None
            };
            classifier_snaps.push(ClassifierSnapshot::from_parts(mlp, gamlp));
        }
        need(data, 1, "gate flag")?;
        let gate_snaps = if data.get_u8() == 1 {
            need(data, 8, "gate count")?;
            let g = data.get_u64_le() as usize;
            if g != k - 1 {
                return Err(CheckpointError::Decode(format!(
                    "gate count {g} disagrees with k = {k}"
                )));
            }
            let mut gates = Vec::with_capacity(g);
            for _ in 0..g {
                gates.push(get_pair(&mut data, "gate params")?);
            }
            Some(gates)
        } else {
            None
        };
        if data.has_remaining() {
            return Err(CheckpointError::Decode(format!(
                "{} trailing bytes after checkpoint",
                data.remaining()
            )));
        }
        let ckpt = Self {
            kind,
            k,
            feature_dim,
            num_classes,
            hidden,
            gamma,
            classifier_snaps,
            gate_snaps,
        };
        ckpt.validate_shapes()?;
        Ok(ckpt)
    }

    /// Verifies every stored weight vector against the architecture the
    /// metadata implies, so `build_classifiers`/`build_gates` can restore
    /// without panicking on corrupted payloads.
    fn validate_shapes(&self) -> Result<()> {
        let err = |msg: String| Err(CheckpointError::Decode(msg));
        for (i, snap) in self.classifier_snaps.iter().enumerate() {
            let depth = i + 1;
            // MLP input width per base model (SIGN concatenates depths).
            let in_dim = match self.kind {
                ModelKind::Sign => (depth + 1) * self.feature_dim,
                _ => self.feature_dim,
            };
            let mut dims = vec![in_dim];
            dims.extend_from_slice(&self.hidden);
            dims.push(self.num_classes);
            let layers = snap.mlp_layers();
            if layers.len() != dims.len() - 1 {
                return err(format!(
                    "classifier {depth}: {} layers, architecture implies {}",
                    layers.len(),
                    dims.len() - 1
                ));
            }
            for (j, (w, b)) in layers.iter().enumerate() {
                if w.len() != dims[j] * dims[j + 1] || b.len() != dims[j + 1] {
                    return err(format!(
                        "classifier {depth} layer {j}: weight {}×? / bias {} \
                         disagree with {}→{}",
                        w.len(),
                        b.len(),
                        dims[j],
                        dims[j + 1]
                    ));
                }
            }
            match (self.kind, snap.gamlp_params()) {
                (ModelKind::Gamlp, Some((w, b))) => {
                    if w.len() != self.feature_dim || b.len() != 1 {
                        return err(format!(
                            "classifier {depth}: GAMLP score vector {}×{} \
                             disagrees with feature dim {}",
                            w.len(),
                            b.len(),
                            self.feature_dim
                        ));
                    }
                }
                (ModelKind::Gamlp, None) => {
                    return err(format!("classifier {depth}: missing GAMLP parameters"))
                }
                (_, Some(_)) => {
                    return err(format!(
                        "classifier {depth}: unexpected GAMLP parameters for {:?}",
                        self.kind
                    ))
                }
                (_, None) => {}
            }
        }
        if let Some(gates) = &self.gate_snaps {
            for (i, (w, b)) in gates.iter().enumerate() {
                if w.len() != 4 * self.feature_dim || b.len() != 2 {
                    return err(format!(
                        "gate {}: weight {} / bias {} disagree with 2f×2 = {}×2",
                        i + 1,
                        w.len(),
                        b.len(),
                        2 * self.feature_dim
                    ));
                }
            }
        }
        Ok(())
    }

    /// Writes the checkpoint to `path`.
    ///
    /// # Errors
    /// Propagates filesystem errors.
    pub fn save(&self, path: &Path) -> Result<()> {
        std::fs::write(path, self.encode())?;
        Ok(())
    }

    /// Reads a checkpoint from `path`.
    ///
    /// # Errors
    /// Propagates filesystem errors and decode failures.
    pub fn load(path: &Path) -> Result<Self> {
        let data = std::fs::read(path)?;
        Self::decode(&data)
    }

    /// Whether gate weights (NAP_g) are stored.
    pub fn has_gates(&self) -> bool {
        self.gate_snaps.is_some()
    }

    /// Rebuilds the classifier stack with restored weights.
    pub fn build_classifiers(&self) -> Vec<DepthClassifier> {
        let mut rng = StdRng::seed_from_u64(0); // weights are overwritten
        self.classifier_snaps
            .iter()
            .enumerate()
            .map(|(i, snap)| {
                let mut clf = DepthClassifier::new(
                    self.kind,
                    i + 1,
                    self.feature_dim,
                    self.num_classes,
                    &self.hidden,
                    0.0,
                    &mut rng,
                );
                clf.restore(snap);
                clf
            })
            .collect()
    }

    /// Rebuilds the gates with restored weights, when stored.
    pub fn build_gates(&self) -> Option<GateSet> {
        self.gate_snaps.as_ref().map(|snaps| {
            let mut rng = StdRng::seed_from_u64(0);
            let mut gs = GateSet::new(self.feature_dim, self.k, &mut rng);
            gs.restore(snaps);
            gs
        })
    }

    /// Deploys the checkpointed model against `graph` under the
    /// checkpoint's γ ([`NaiEngine::new`] derives the graph's state).
    ///
    /// # Panics
    /// Panics if the graph's feature dimension disagrees with the
    /// checkpoint.
    pub fn deploy(&self, graph: &Graph) -> NaiEngine {
        self.deploy_dynamic(DynamicGraph::from_graph(graph))
    }

    /// [`Self::deploy`] over a graph store: the one deploy path, shared
    /// with `StreamingEngine::from_checkpoint`.
    ///
    /// # Panics
    /// As [`Self::deploy`].
    pub(crate) fn deploy_dynamic(&self, graph: DynamicGraph) -> NaiEngine {
        assert_eq!(
            graph.feature_dim(),
            self.feature_dim,
            "graph feature dim must match checkpoint"
        );
        NaiEngine::new(
            graph,
            self.build_classifiers(),
            self.build_gates(),
            self.gamma,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{InferenceConfig, PipelineConfig};
    use crate::pipeline::NaiPipeline;
    use nai_graph::generators::{generate, GeneratorConfig};
    use nai_graph::InductiveSplit;

    fn trained() -> (Graph, InductiveSplit, crate::pipeline::TrainedNai) {
        let g = generate(
            &GeneratorConfig {
                num_nodes: 300,
                num_classes: 3,
                feature_dim: 8,
                avg_degree: 8.0,
                ..Default::default()
            },
            &mut StdRng::seed_from_u64(5),
        );
        let split = InductiveSplit::random(300, 0.5, 0.2, &mut StdRng::seed_from_u64(6));
        let cfg = PipelineConfig {
            k: 3,
            hidden: vec![16],
            epochs: 25,
            patience: 8,
            gate_epochs: 8,
            distill: crate::config::DistillConfig {
                epochs: 8,
                ensemble_r: 2,
                ..Default::default()
            },
            ..PipelineConfig::default()
        };
        let t = NaiPipeline::new(ModelKind::Sgc, cfg).train(&g, &split, true);
        (g, split, t)
    }

    #[test]
    fn roundtrip_preserves_predictions() {
        let (g, split, t) = trained();
        let ckpt = ModelCheckpoint::from_engine(&t.engine, 0.5);
        let restored = ModelCheckpoint::decode(&ckpt.encode()).unwrap();
        let engine2 = restored.deploy(&g);
        for cfg in [
            InferenceConfig::fixed(3),
            InferenceConfig::distance(0.5, 1, 3),
            InferenceConfig::gate(1, 3),
        ] {
            let a = t.engine.infer(&split.test, &g.labels, &cfg);
            let b = engine2.infer(&split.test, &g.labels, &cfg);
            assert_eq!(a.predictions, b.predictions, "{:?}", cfg.nap);
            assert_eq!(a.depths, b.depths, "{:?}", cfg.nap);
        }
    }

    #[test]
    fn metadata_survives_roundtrip() {
        let (_, _, t) = trained();
        let ckpt = ModelCheckpoint::from_engine(&t.engine, 0.5);
        let restored = ModelCheckpoint::decode(&ckpt.encode()).unwrap();
        assert_eq!(restored.kind, ModelKind::Sgc);
        assert_eq!(restored.k, 3);
        assert_eq!(restored.feature_dim, 8);
        assert_eq!(restored.num_classes, 3);
        assert_eq!(restored.hidden, vec![16]);
        assert!(restored.has_gates());
        assert!((restored.gamma - 0.5).abs() < 1e-9);
    }

    #[test]
    fn save_and_load_via_filesystem() {
        let (g, split, t) = trained();
        let ckpt = ModelCheckpoint::from_engine(&t.engine, 0.5);
        let dir = std::env::temp_dir().join("nai_ckpt_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.naic");
        ckpt.save(&path).unwrap();
        let restored = ModelCheckpoint::load(&path).unwrap();
        let engine2 = restored.deploy(&g);
        let cfg = InferenceConfig::fixed(2);
        let a = t.engine.infer(&split.test, &g.labels, &cfg);
        let b = engine2.infer(&split.test, &g.labels, &cfg);
        assert_eq!(a.predictions, b.predictions);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupted_bytes_are_rejected_not_panicking() {
        let (_, _, t) = trained();
        let bytes = ModelCheckpoint::from_engine(&t.engine, 0.5).encode();
        // Bad magic.
        let mut bad = bytes.to_vec();
        bad[0] = b'X';
        assert!(matches!(
            ModelCheckpoint::decode(&bad),
            Err(CheckpointError::Decode(_))
        ));
        // Truncation at every prefix must error, never panic.
        for cut in [0, 4, 8, 9, 33, bytes.len() / 2, bytes.len() - 1] {
            assert!(
                ModelCheckpoint::decode(&bytes[..cut]).is_err(),
                "cut at {cut} must fail"
            );
        }
        // Trailing garbage is rejected.
        let mut long = bytes.to_vec();
        long.extend_from_slice(&[0u8; 7]);
        assert!(ModelCheckpoint::decode(&long).is_err());
    }

    /// An MLP-layer length whose byte count overflows is an error, not a
    /// capacity-overflow panic.
    #[test]
    fn overflowing_layer_length_is_rejected() {
        for len in [1u64 << 62, u64::MAX] {
            let mut buf = BytesMut::new();
            buf.put_slice(MAGIC);
            buf.put_u32_le(VERSION);
            buf.put_u8(kind_to_u8(ModelKind::Sgc));
            // k, feature_dim, num_classes; gamma; no hidden layer.
            [1, 4, 2].iter().for_each(|&d| buf.put_u64_le(d));
            buf.put_f32_le(0.5);
            buf.put_u64_le(0);
            // One classifier of one layer, whose weight length is `len`.
            buf.put_u64_le(1);
            buf.put_u64_le(1);
            buf.put_u64_le(len);
            buf.put_slice(&[0; 64]);
            match ModelCheckpoint::decode(&buf) {
                Err(CheckpointError::Decode(msg)) => assert!(msg.contains("overflows"), "{msg}"),
                other => panic!("length {len}: {:?}", other.err()),
            }
        }
    }

    /// A gate count of `usize::MAX` is an error, not an add overflow.
    #[test]
    fn overflowing_gate_count_is_rejected() {
        let mut buf = BytesMut::new();
        buf.put_slice(MAGIC);
        buf.put_u32_le(VERSION);
        buf.put_u8(kind_to_u8(ModelKind::Sgc));
        [1, 4, 2].iter().for_each(|&d| buf.put_u64_le(d));
        buf.put_f32_le(0.5);
        buf.put_u64_le(0);
        // One classifier of no layer, no GAMLP, then gates.
        buf.put_u64_le(1);
        buf.put_u64_le(0);
        buf.put_u8(0);
        buf.put_u8(1);
        buf.put_u64_le(u64::MAX);
        match ModelCheckpoint::decode(&buf) {
            Err(CheckpointError::Decode(msg)) => assert!(msg.contains("gate count"), "{msg}"),
            other => panic!("{:?}", other.err()),
        }
    }

    #[test]
    fn unsupported_version_is_rejected() {
        let (_, _, t) = trained();
        let mut bytes = ModelCheckpoint::from_engine(&t.engine, 0.5)
            .encode()
            .to_vec();
        bytes[4] = 99;
        let err = ModelCheckpoint::decode(&bytes).unwrap_err();
        assert!(err.to_string().contains("version"));
    }

    #[test]
    fn deploy_to_larger_graph_works() {
        // The inductive promise: deploy the same checkpoint on a graph
        // with more (unseen) nodes but the same feature dimension.
        let (_, _, t) = trained();
        let bigger = generate(
            &GeneratorConfig {
                num_nodes: 500,
                num_classes: 3,
                feature_dim: 8,
                avg_degree: 8.0,
                ..Default::default()
            },
            &mut StdRng::seed_from_u64(99),
        );
        let ckpt = ModelCheckpoint::from_engine(&t.engine, 0.5);
        let engine = ckpt.deploy(&bigger);
        let test: Vec<u32> = (400..500).collect();
        let res = engine.infer(&test, &bigger.labels, &InferenceConfig::distance(0.5, 1, 3));
        assert_eq!(res.predictions.len(), 100);
    }

    #[test]
    #[should_panic(expected = "feature dim")]
    fn deploy_with_wrong_feature_dim_panics() {
        let (_, _, t) = trained();
        let wrong = generate(
            &GeneratorConfig {
                num_nodes: 100,
                num_classes: 3,
                feature_dim: 12,
                avg_degree: 6.0,
                ..Default::default()
            },
            &mut StdRng::seed_from_u64(1),
        );
        let _ = ModelCheckpoint::from_engine(&t.engine, 0.5).deploy(&wrong);
    }
}
