//! **Table I** — inference computational complexity: verify that the MACs
//! measured by the engine's counters match the closed-form complexities,
//! and that NAI's measured cost follows the `q`-dependence (average
//! personalized depth) the table predicts.

use nai::core::macs::table1;
use nai::datasets::DatasetId;
use nai::prelude::*;
use nai_bench::{dataset, print_paper_reference};

fn main() {
    println!("Table I reproduction — complexity formulas vs measured counters");
    let ds = dataset(DatasetId::FlickrProxy);
    let k = 3usize;
    let f = ds.graph.feature_dim() as u64;
    let c = ds.graph.num_classes as u64;

    println!(
        "\n{:<8} {:>16} {:>16} {:>8}",
        "model", "formula MACs", "measured MACs", "ratio"
    );
    for kind in [
        ModelKind::Sgc,
        ModelKind::Sign,
        ModelKind::S2gc,
        ModelKind::Gamlp,
    ] {
        let cfg = PipelineConfig {
            k,
            hidden: vec![], // linear heads ⇒ classifier MACs = in·c exactly
            epochs: 5,
            use_single_scale: false,
            use_multi_scale: false,
            ..PipelineConfig::default()
        };
        let trained = NaiPipeline::new(kind, cfg).train(&ds.graph, &ds.split, false);
        let run =
            trained
                .engine
                .infer(&ds.split.test, &ds.graph.labels, &InferenceConfig::fixed(k));
        let measured = run.report.macs.total();
        // The formula's m is the nnz actually touched by the batched
        // frontier propagation, divided by k steps.
        let m_nnz = run.report.macs.propagation / (k as u64 * f);
        let n = ds.split.test.len() as u64;
        let formula = match kind {
            ModelKind::Sgc => table1::sgc(k as u64, m_nnz, n, f, c),
            ModelKind::Sign => table1::sign(k as u64, m_nnz, n, f, c),
            ModelKind::S2gc => table1::s2gc(k as u64, m_nnz, n, f, c),
            ModelKind::Gamlp => table1::gamlp(k as u64, m_nnz, n, f, c),
        } + run.report.macs.stationary; // stationary state term (rank-1, O(nf))
        println!(
            "{:<8} {:>16} {:>16} {:>8.3}",
            kind.name(),
            formula,
            measured,
            measured as f64 / formula as f64
        );
    }

    // q-dependence: NAI's propagation MACs should scale with the mean
    // personalized depth q, not with k.
    println!("\nq-dependence of NAI MACs (SGC, k = {k}):");
    let cfg = PipelineConfig {
        k,
        hidden: vec![],
        epochs: 10,
        use_multi_scale: false,
        ..PipelineConfig::default()
    };
    let trained = NaiPipeline::new(ModelKind::Sgc, cfg).train(&ds.graph, &ds.split, false);
    println!("{:<10} {:>8} {:>16}", "T_s", "mean q", "prop MACs");
    for ts in [0.0f32, 1.0, 2.0, f32::INFINITY] {
        let run = trained.engine.infer(
            &ds.split.test,
            &ds.graph.labels,
            &InferenceConfig::distance(ts, 1, k),
        );
        println!(
            "{:<10} {:>8.2} {:>16}",
            ts,
            run.report.mean_depth(),
            run.report.macs.propagation
        );
    }

    print_paper_reference(
        "Table I",
        &[
            "SGC   vanilla O(kmf + nf^2)        | NAI O(qmf + nf^2 + n^2 f)",
            "SIGN  vanilla O(kmf + kPnf^2)      | NAI O(qmf + qPnf^2 + n^2 f)",
            "S2GC  vanilla O(kmf + knf + nf^2)  | NAI O(qmf + qnf + nf^2 + n^2 f)",
            "GAMLP vanilla O(kmf + Pnf^2)       | NAI O(qmf + Pnf^2 + n^2 f)",
            "here the paper's O(n^2 f) stationary term is realised in O(nf) via the",
            "rank-1 structure of A^inf (ARCHITECTURE.md, \"Read kernel\", documents it).",
        ],
    );
}
