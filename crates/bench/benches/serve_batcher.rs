//! Extension bench: the Fig. 5 batch-size trade-off at the *service*
//! level.
//!
//! The paper's Fig. 5 varies the inference batch size offline; a
//! serving system tunes the same dial at runtime through `max_batch`,
//! the cap on how many queued requests a worker merges into one engine
//! call. This harness runs a closed loop of concurrent clients against
//! an in-process [`NaiService`] (no sockets — sequencing and the
//! workers are what is being measured) and reports throughput and the
//! p50/p99 service latency per setting.
//!
//! Expected shape, mirroring Fig. 5: growing `max_batch` amortizes the
//! per-batch stationary/BFS work (throughput up, mean batch up) while
//! each request rides a longer engine call (p99 up). Nothing waits for
//! a batch to fill, so batches only grow as far as the clients keep
//! the workers' queues full.

use nai::core::config::{CacheConfig, LoadShedPolicy, ServeConfig};
use nai::prelude::*;
use nai::serve::{NaiService, Op, Reply, Request};
use nai::stream::DynamicGraph;
use nai_bench::{dataset, k_for, train_nai};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::{Duration, Instant};

const CLIENTS: usize = 16;

fn run_cell(
    ckpt: &ModelCheckpoint,
    seed_graph: &DynamicGraph,
    infer_cfg: &InferenceConfig,
    max_batch: usize,
    requests_per_client: usize,
) -> (f64, Duration, Duration, f64) {
    let service = NaiService::from_checkpoint(
        ckpt,
        seed_graph,
        *infer_cfg,
        ServeConfig {
            workers: 2,
            max_batch,
            queue_cap: 4 * CLIENTS,
            shed: LoadShedPolicy {
                trigger_fraction: 1.0,
                t_max_cap: 0, // measure the batcher, not the shedder
            },
            cache: CacheConfig::off(),
        },
    )
    .expect("valid service");
    let n = seed_graph.num_nodes() as u32;
    let start = Instant::now();
    std::thread::scope(|scope| {
        for c in 0..CLIENTS {
            let service = &service;
            scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(0xBE7C + c as u64);
                for _ in 0..requests_per_client {
                    let reply = service
                        .call(Request {
                            op: Op::Infer {
                                nodes: vec![rng.gen_range(0..n)],
                            },
                            shard: None,
                        })
                        .expect("closed loop never overloads");
                    assert!(matches!(reply, Reply::Infer { .. }));
                }
            });
        }
    });
    let wall = start.elapsed().as_secs_f64();
    let m = service.metrics();
    let total = (CLIENTS * requests_per_client) as f64;
    let mean_batch = total / m.batches.max(1) as f64;
    let q = m.latency.quantiles(&[0.5, 0.99]);
    (
        total / wall,
        Duration::from_nanos(q[0]),
        Duration::from_nanos(q[1]),
        mean_batch,
    )
}

fn main() {
    let ds = dataset(nai::datasets::DatasetId::ArxivProxy);
    let k = k_for(ds.id);
    let trained = train_nai(&ds, ModelKind::Sgc);
    let ckpt = ModelCheckpoint::from_engine(&trained.engine, 0.5);
    let seed_graph = DynamicGraph::from_graph(&ds.graph);
    let infer_cfg = InferenceConfig::distance(8.0, 1, k);
    let requests_per_client = if nai_bench::bench_scale() == nai::datasets::Scale::Test {
        40
    } else {
        150
    };

    println!(
        "serve batcher — {} ({} nodes), {CLIENTS} closed-loop clients × {requests_per_client} \
         infer requests, 2 shards (k={k}, NAP_d)",
        ds.id.name(),
        ds.graph.num_nodes(),
    );
    println!(
        "\n{:<12} {:>12} {:>12} {:>12} {:>11}",
        "max_batch", "req/s", "p50", "p99", "mean batch"
    );
    for max_batch in [1usize, 4, 16, 64] {
        let (rps, p50, p99, mb) = run_cell(
            &ckpt,
            &seed_graph,
            &infer_cfg,
            max_batch,
            requests_per_client,
        );
        println!("{max_batch:<12} {rps:>12.0} {p50:>12?} {p99:>12?} {mb:>11.1}");
    }
    println!(
        "\nexpected shape: larger max_batch lifts req/s and mean batch while p99 \
         grows (each request rides a longer engine call) — the service-level \
         Fig. 5 latency/throughput dial."
    );
}
