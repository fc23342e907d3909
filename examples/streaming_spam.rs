//! Streaming spam detection: replaying the inductive test set as a live
//! arrival stream.
//!
//! Fraud/spam systems never see the deployment graph frozen: accounts
//! arrive one by one, each bringing edges to accounts that are already
//! known — and sometimes edges to accounts that have not arrived yet,
//! which materialize later. This example replays the Ogbn-arxiv proxy's
//! unseen test nodes through [`nai::stream::StreamingEngine`] exactly that
//! way:
//!
//! 1. train the NAI pipeline on the observed (train ∪ val) subgraph;
//! 2. checkpoint the model and deploy it over the observed subgraph as a
//!    dynamic graph;
//! 3. stream every test node in: edges to already-present nodes attach at
//!    ingest time, edges to future arrivals attach when the later
//!    endpoint shows up;
//! 4. flush micro-batches and compare streaming predictions against the
//!    ground-truth labels, reporting accuracy plus the latency
//!    percentiles a serving system would monitor.
//!
//! ```sh
//! cargo run --release --example streaming_spam
//! ```

use nai::datasets::{load, DatasetId, Scale};
use nai::obs::LogHistogram;
use nai::prelude::*;
use nai::stream::StreamPrediction;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

fn main() {
    let ds = load(DatasetId::ArxivProxy, Scale::Test);
    let graph = &ds.graph;
    println!(
        "account graph: {} nodes, {} edges; {} unseen accounts to stream",
        graph.num_nodes(),
        graph.num_edges(),
        ds.split.test.len()
    );

    // 1. Train on the observed view (the pipeline does this internally).
    let k = 3;
    let cfg = PipelineConfig {
        k,
        hidden: vec![32],
        epochs: 50,
        gate_epochs: 10,
        ..PipelineConfig::default()
    };
    let trained = NaiPipeline::new(ModelKind::Sgc, cfg).train(graph, &ds.split, false);

    // 2. Checkpoint → streaming deployment over the observed subgraph.
    let observed = ds.split.observed();
    let (observed_graph, local_of_global) = graph
        .induced_subgraph(&observed)
        .expect("observed view is valid");
    let ckpt = ModelCheckpoint::from_engine(&trained.engine, 0.5);
    let mut engine =
        StreamingEngine::from_checkpoint(&ckpt, DynamicGraph::from_graph(&observed_graph));

    // Global node id → id inside the dynamic graph (observed nodes keep
    // their induced-subgraph ids; arrivals get fresh ids at ingest).
    let mut stream_id: Vec<Option<u32>> = vec![None; graph.num_nodes()];
    for (&global, local) in observed.iter().zip(0u32..) {
        stream_id[global as usize] = Some(local);
    }
    let _ = local_of_global;

    // 3. Stream test nodes in random arrival order.
    let mut arrival_order = ds.split.test.clone();
    arrival_order.shuffle(&mut StdRng::seed_from_u64(99));
    let nap = InferenceConfig {
        batch_size: 25,
        ..InferenceConfig::distance(1.5, 1, k)
    };
    let mut truth = Vec::new();
    let mut correct = 0usize;
    let mut deferred_edges = 0usize;
    // Each prediction carries the latency of its micro-batch; a serving
    // system folds them into histograms like these.
    let (latency_ns, depths) = (LogHistogram::new(), LogHistogram::new());
    let record = |preds: Vec<StreamPrediction>| {
        for p in preds {
            latency_ns.record(p.latency.as_nanos() as u64);
            depths.record(p.depth as u64);
        }
    };
    for &global in &arrival_order {
        // Edges whose other endpoint is already in the dynamic graph.
        let (mut now, mut later) = (Vec::new(), 0usize);
        for &nb in graph.adj.row_indices(global as usize) {
            match stream_id[nb as usize] {
                Some(local) => now.push(local),
                None => later += 1,
            }
        }
        deferred_edges += later;
        let id = engine.ingest(graph.features.row(global as usize), &now);
        stream_id[global as usize] = Some(id);
        // Late edges from earlier arrivals to this node: they exist in the
        // full graph, so attach them now that both endpoints are present.
        for &nb in graph.adj.row_indices(global as usize) {
            if let Some(other) = stream_id[nb as usize] {
                if other != id && !engine.graph().neighbors(id).contains(&other) {
                    engine.observe_edge(id, other);
                }
            }
        }
        truth.push(graph.labels[global as usize]);
        if engine.pending().len() >= nap.batch_size {
            record(engine.flush(&nap));
        }
    }
    record(engine.flush(&nap));

    // Re-score all streamed nodes at once for the accuracy report (their
    // predictions at arrival time were already recorded above; the
    // graph has since grown, so this is the "batch audit" pass).
    let streamed: Vec<u32> = arrival_order
        .iter()
        .map(|&g| stream_id[g as usize].expect("streamed"))
        .collect();
    let audit = engine.infer_nodes(&streamed, &nap);
    for ((pred, _), &y) in audit.iter().zip(&truth) {
        if *pred == y as usize {
            correct += 1;
        }
    }

    // 4. Serving report.
    let (lat, ns) = (latency_ns.snapshot(), std::time::Duration::from_nanos);
    println!(
        "\nstreamed {} arrivals ({} edges deferred to later arrivals)",
        arrival_order.len(),
        deferred_edges
    );
    println!(
        "streaming accuracy {:.3} (vs {:.3} for the static engine on the frozen graph)",
        correct as f64 / truth.len() as f64,
        trained
            .engine
            .infer(&ds.split.test, &graph.labels, &nap)
            .report
            .accuracy
    );
    println!(
        "latency: p50 {:?} | p95 {:?} | p99 {:?} | max {:?}",
        ns(lat.quantile(0.5)),
        ns(lat.quantile(0.95)),
        ns(lat.quantile(0.99)),
        ns(lat.max())
    );
    println!(
        "mean personalized depth {:.2} of k = {k}; total propagation+NAP+classifier \
         work {:.1}M MACs",
        depths.snapshot().mean(),
        engine.macs_total() as f64 / 1e6
    );
}
