//! NOSMOG (Tian et al., ICLR 2023): GLNN plus explicit structural
//! (position) features.
//!
//! The original uses DeepWalk embeddings; offline we substitute
//! random-projected random-walk diffusion `P = (D̃⁻¹ Ã)^t · R` with a
//! Gaussian projection `R`, which carries the same class of positional
//! signal (multi-hop co-visit structure). At inference,
//! unseen nodes aggregate the mean position of their *observed* neighbors
//! via matrix products, the re-implementation the paper describes in its
//! footnote 3; this is NOSMOG's (small) feature-processing cost. The
//! adversarial feature augmentation of the original is omitted — it
//! targets noise robustness, not the latency/accuracy axes measured here.

use crate::common::{make_run, teacher_logits_on_train, BaselineRun};
use nai_core::macs::MacsBreakdown;
use nai_core::pipeline::TrainedNai;
use nai_graph::{normalized_adjacency, Convolution, Graph, InductiveSplit};
use nai_linalg::ops::argmax_rows;
use nai_linalg::DenseMatrix;
use nai_nn::mlp::{Mlp, MlpConfig};
use nai_nn::trainer::{train, Distillation, TrainConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// NOSMOG training knobs.
#[derive(Debug, Clone)]
pub struct NosmogConfig {
    /// Position-embedding dimensionality.
    pub position_dim: usize,
    /// Random-walk diffusion steps for the position features.
    pub walk_steps: usize,
    /// Student hidden widths.
    pub hidden: Vec<usize>,
    /// Dropout.
    pub dropout: f32,
    /// KD temperature.
    pub temperature: f32,
    /// KD mixing weight.
    pub lambda: f32,
    /// Optimisation settings.
    pub train: TrainConfig,
}

impl Default for NosmogConfig {
    fn default() -> Self {
        Self {
            position_dim: 16,
            walk_steps: 3,
            hidden: vec![128],
            dropout: 0.1,
            temperature: 1.5,
            lambda: 0.7,
            train: TrainConfig::default(),
        }
    }
}

/// Trained NOSMOG student.
pub struct Nosmog {
    mlp: Mlp,
    /// Positions of observed (train ∪ val) nodes in *global* coordinates;
    /// unobserved rows are zero.
    observed_positions: DenseMatrix,
    /// Which global nodes are observed.
    observed_mask: Vec<bool>,
    position_dim: usize,
}

impl Nosmog {
    /// Computes position features on a graph: `(D̃⁻¹ Ã)^t · R`.
    fn diffuse_positions(graph: &Graph, dim: usize, steps: usize, rng: &mut StdRng) -> DenseMatrix {
        let norm = normalized_adjacency(&graph.adj, Convolution::ReverseTransition);
        let mut p = nai_linalg::init::gaussian(graph.num_nodes(), dim, 1.0, rng);
        for _ in 0..steps {
            p = norm.spmm(&p);
        }
        p
    }

    /// Distills the teacher into an MLP over `[features ‖ positions]`.
    pub fn distill(
        trained: &TrainedNai,
        graph: &Graph,
        split: &InductiveSplit,
        cfg: &NosmogConfig,
        seed: u64,
    ) -> Self {
        let (view, teacher_logits) = teacher_logits_on_train(trained, graph, split);
        let mut rng = StdRng::seed_from_u64(seed);
        // Positions live on the training graph; scatter into global rows.
        let local_positions =
            Self::diffuse_positions(&view.graph, cfg.position_dim, cfg.walk_steps, &mut rng);
        let mut observed_positions = DenseMatrix::zeros(graph.num_nodes(), cfg.position_dim);
        let mut observed_mask = vec![false; graph.num_nodes()];
        for (local, &global) in view.global_of.iter().enumerate() {
            observed_positions
                .row_mut(global as usize)
                .copy_from_slice(local_positions.row(local));
            observed_mask[global as usize] = true;
        }

        let f = graph.feature_dim();
        let c = graph.num_classes;
        let mut mlp = Mlp::new(
            &MlpConfig {
                in_dim: f + cfg.position_dim,
                hidden: cfg.hidden.clone(),
                out_dim: c,
                dropout: cfg.dropout,
            },
            &mut rng,
        );
        let build_input = |rows: &[usize]| -> DenseMatrix {
            let x = view.graph.features.gather_rows(rows).expect("rows");
            let p = local_positions.gather_rows(rows).expect("rows");
            x.hconcat(&p).expect("aligned")
        };
        let train_rows: Vec<usize> = view.train_local.iter().map(|&v| v as usize).collect();
        let val_rows: Vec<usize> = view.val_local.iter().map(|&v| v as usize).collect();
        let x_train = build_input(&train_rows);
        let y_train: Vec<u32> = train_rows.iter().map(|&r| view.graph.labels[r]).collect();
        let x_val = build_input(&val_rows);
        let y_val: Vec<u32> = val_rows.iter().map(|&r| view.graph.labels[r]).collect();
        train(
            &mut mlp,
            &x_train,
            &y_train,
            Some(Distillation {
                teacher_logits: &teacher_logits,
                temperature: cfg.temperature,
                lambda: cfg.lambda,
            }),
            &x_val,
            &y_val,
            &cfg.train,
        );
        Self {
            mlp,
            observed_positions,
            observed_mask,
            position_dim: cfg.position_dim,
        }
    }

    /// Inductive inference: aggregate neighbor positions (feature
    /// processing), then MLP forward.
    pub fn infer(
        &self,
        graph: &Graph,
        test_nodes: &[u32],
        labels: &[u32],
        batch_size: usize,
    ) -> BaselineRun {
        let start = Instant::now();
        let mut feature_time = std::time::Duration::ZERO;
        let mut macs = MacsBreakdown::default();
        let mut predictions = Vec::with_capacity(test_nodes.len());
        let mut batches = 0usize;
        for chunk in test_nodes.chunks(batch_size.max(1)) {
            batches += 1;
            let fp = Instant::now();
            // Position of an unseen node = mean position of its observed
            // neighbors (zero when none).
            let mut pos = DenseMatrix::zeros(chunk.len(), self.position_dim);
            for (t, &node) in chunk.iter().enumerate() {
                let mut count = 0f32;
                let row = pos.row_mut(t);
                for (j, _) in graph.adj.row_iter(node as usize) {
                    if self.observed_mask[j as usize] {
                        count += 1.0;
                        for (o, &p) in row.iter_mut().zip(self.observed_positions.row(j as usize)) {
                            *o += p;
                        }
                        macs.propagation += self.position_dim as u64;
                    }
                }
                if count > 0.0 {
                    for o in row.iter_mut() {
                        *o /= count;
                    }
                }
            }
            feature_time += fp.elapsed();
            let idx: Vec<usize> = chunk.iter().map(|&v| v as usize).collect();
            let x = graph.features.gather_rows(&idx).expect("test rows");
            let input = x.hconcat(&pos).expect("aligned");
            let logits = self.mlp.forward(&input);
            macs.classification += chunk.len() as u64 * self.mlp.macs_per_row();
            predictions.extend(argmax_rows(&logits));
        }
        make_run(
            predictions,
            test_nodes,
            labels,
            macs,
            start.elapsed(),
            feature_time,
            batches,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nai_core::config::PipelineConfig;
    use nai_core::pipeline::NaiPipeline;
    use nai_graph::generators::{generate, GeneratorConfig};
    use nai_models::ModelKind;

    #[test]
    fn nosmog_runs_and_uses_position_features() {
        let g = generate(
            &GeneratorConfig {
                num_nodes: 300,
                num_classes: 3,
                feature_dim: 8,
                ..Default::default()
            },
            &mut StdRng::seed_from_u64(300),
        );
        let split = InductiveSplit::random(300, 0.5, 0.2, &mut StdRng::seed_from_u64(301));
        let cfg = PipelineConfig {
            k: 2,
            hidden: vec![16],
            epochs: 30,
            patience: 8,
            lr: 0.02,
            use_multi_scale: false,
            ..PipelineConfig::default()
        };
        let trained = NaiPipeline::new(ModelKind::Sgc, cfg).train(&g, &split, false);
        let nosmog = Nosmog::distill(
            &trained,
            &g,
            &split,
            &NosmogConfig {
                train: TrainConfig {
                    epochs: 50,
                    patience: 12,
                    adam: nai_nn::adam::Adam::new(0.02, 0.0),
                    ..TrainConfig::default()
                },
                ..NosmogConfig::default()
            },
            302,
        );
        let run = nosmog.infer(&g, &split.test, &g.labels, 64);
        assert!(run.report.accuracy > 0.4, "acc {}", run.report.accuracy);
        // Position aggregation produces nonzero FP MACs (unlike GLNN) but
        // far less than full propagation.
        assert!(run.report.macs.feature_processing() > 0);
        assert!(run.report.macs.feature_processing() < run.report.macs.classification);
    }

    #[test]
    fn position_diffusion_is_smoothing() {
        let g = nai_graph::generators::path_graph(20, 4);
        let mut rng = StdRng::seed_from_u64(303);
        let p0 = Nosmog::diffuse_positions(&g, 8, 0, &mut rng);
        let mut rng = StdRng::seed_from_u64(303);
        let p3 = Nosmog::diffuse_positions(&g, 8, 3, &mut rng);
        let var = |m: &DenseMatrix| {
            let mean = m.as_slice().iter().sum::<f32>() / m.as_slice().len() as f32;
            m.as_slice()
                .iter()
                .map(|v| (v - mean) * (v - mean))
                .sum::<f32>()
        };
        assert!(var(&p3) < var(&p0), "diffusion should smooth positions");
    }
}
