//! Integration: the request-lifecycle observability surface over real
//! sockets.
//!
//! Boots `nai::serve` on an ephemeral port, drives closed-loop
//! single-node inference traffic, and checks the three scrape
//! surfaces against each other:
//!
//! * **stage accounting** — the per-stage span histograms tile the
//!   end-to-end latency: the sum of per-stage means lands within 10%
//!   of the mean e2e latency (the spans are cut from the same clock
//!   readings, so the only slack is engine-internal time not
//!   attributed to propagation/NAP/classify — and histogram
//!   `mean`s are exact, not bucketed);
//! * **Prometheus exposition** — `/metrics?format=prom` is valid
//!   0.0.4 text: typed families, cumulative `le` buckets ending in
//!   `+Inf`, exact `_sum`/`_count`, labeled stage series;
//! * **flight recorder** — `/debug/slow` returns well-formed traces,
//!   slowest first, each with the full seven-stage timeline;
//! * **batch anatomy** — every dispatched batch is accounted to
//!   exactly one close reason.

use nai::core::config::{CacheConfig, InferenceConfig, LoadShedPolicy, ServeConfig};
use nai::models::{DepthClassifier, ModelKind};
use nai::serve::{HttpClient, Json, NaiService, Server};
use nai::stream::{DynamicGraph, StreamingEngine};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

const F: usize = 6;
const K: usize = 2;
const CLASSES: usize = 4;
const SEED_NODES: usize = 90;
const REQUESTS: usize = 40;

fn engine() -> StreamingEngine {
    let g = nai::graph::generators::generate(
        &nai::graph::generators::GeneratorConfig {
            num_nodes: SEED_NODES,
            num_classes: CLASSES,
            feature_dim: F,
            avg_degree: 5.0,
            ..Default::default()
        },
        &mut StdRng::seed_from_u64(41),
    );
    let mut rng = StdRng::seed_from_u64(42);
    let classifiers: Vec<DepthClassifier> = (1..=K)
        .map(|d| DepthClassifier::new(ModelKind::Sgc, d, F, CLASSES, &[8], 0.0, &mut rng))
        .collect();
    StreamingEngine::with_lambda2(DynamicGraph::from_graph(&g), classifiers, None, 0.5, 0.9)
}

const STAGES: [&str; 7] = [
    "parse",
    "queue_wait",
    "batch_wait",
    "engine_propagation",
    "engine_nap",
    "engine_classify",
    "serialize",
];

#[test]
fn stage_spans_tile_e2e_latency_and_scrape_surfaces_agree() {
    let service = NaiService::new(
        vec![engine(), engine()],
        InferenceConfig::distance(0.5, 1, K),
        ServeConfig {
            workers: 2,
            max_batch: 4,
            queue_cap: 64,
            shed: LoadShedPolicy {
                trigger_fraction: 1.0,
                t_max_cap: 0,
            },
            cache: CacheConfig::off(), // every request takes the full pipeline
        },
    )
    .unwrap();
    let server = Server::start(Arc::new(service), "127.0.0.1:0").unwrap();
    let addr = server.local_addr();

    // Closed-loop single-node reads: one prediction per request, so
    // the per-prediction latency histogram and the per-request stage
    // histograms describe the same population.
    let mut rng = StdRng::seed_from_u64(4242);
    let mut client = HttpClient::connect(addr).unwrap();
    for _ in 0..REQUESTS {
        let node = rng.gen_range(0..SEED_NODES as u32);
        let line = format!("{{\"op\": \"infer\", \"nodes\": [{node}]}}\n");
        let (status, body) = client.request("POST", "/v1", Some(&line)).unwrap();
        assert_eq!(status, 200, "body: {body}");
    }

    // --- JSON scrape: stage accounting ---------------------------------
    let (status, body) = client.request("GET", "/metrics", None).unwrap();
    assert_eq!(status, 200);
    let m = Json::parse(body.trim()).unwrap();
    assert_eq!(
        m.get("served").and_then(Json::as_u64),
        Some(REQUESTS as u64)
    );

    let stages = m.get("stages").expect("stages section");
    let mut stage_mean_sum_us = 0.0;
    for stage in STAGES {
        let entry = stages.get(stage).unwrap_or_else(|| panic!("stage {stage}"));
        assert_eq!(
            entry.get("count").and_then(Json::as_u64),
            Some(REQUESTS as u64),
            "every traced request records every stage ({stage})"
        );
        stage_mean_sum_us += entry
            .get("mean_us")
            .and_then(Json::as_f64)
            .unwrap_or_else(|| panic!("stage {stage} mean_us"));
    }
    let e2e_mean_us = m
        .get("latency_us")
        .and_then(|l| l.get("mean"))
        .and_then(Json::as_f64)
        .expect("latency_us.mean");
    assert!(e2e_mean_us > 0.0);
    let drift = (stage_mean_sum_us - e2e_mean_us).abs() / e2e_mean_us;
    assert!(
        drift <= 0.10,
        "stage means must tile the e2e mean within 10%: \
         sum {stage_mean_sum_us:.1}us vs e2e {e2e_mean_us:.1}us (drift {:.1}%)",
        drift * 100.0
    );

    // --- batch anatomy -------------------------------------------------
    let batches = m.get("batches").and_then(Json::as_u64).unwrap();
    let batch = m.get("batch").expect("batch section");
    let on_max = batch
        .get("closed_on_max_batch")
        .and_then(Json::as_u64)
        .unwrap();
    let on_idle = batch.get("closed_on_idle").and_then(Json::as_u64).unwrap();
    assert_eq!(
        on_max + on_idle,
        batches,
        "every batch closes for exactly one reason"
    );
    assert!(batch.get("mean_size").and_then(Json::as_f64).unwrap() >= 1.0);

    // --- Prometheus exposition -----------------------------------------
    let (status, prom) = client.request("GET", "/metrics?format=prom", None).unwrap();
    assert_eq!(status, 200);
    assert!(prom.contains("# TYPE nai_requests_served_total counter"));
    assert!(prom.contains("# TYPE nai_request_duration_seconds histogram"));
    assert!(prom.contains("nai_request_duration_seconds_bucket{le=\"+Inf\"}"));
    let count_line = prom
        .lines()
        .find(|l| l.starts_with("nai_request_duration_seconds_count"))
        .expect("histogram _count series");
    assert_eq!(
        count_line.split_whitespace().last(),
        Some(format!("{REQUESTS}").as_str()),
        "prom _count must equal the JSON surface's sample count"
    );
    for stage in STAGES {
        let needle = format!("nai_request_stage_duration_seconds_count{{stage=\"{stage}\"}}");
        let line = prom
            .lines()
            .find(|l| l.starts_with(needle.as_str()))
            .unwrap_or_else(|| panic!("missing stage series {stage}"));
        assert_eq!(
            line.split_whitespace().last(),
            Some(format!("{REQUESTS}").as_str())
        );
    }
    assert!(prom.contains("nai_batch_closed_total{reason=\"max_batch\"}"));
    assert!(prom.contains("nai_batch_closed_total{reason=\"idle\"}"));
    // Cumulative `le` buckets: counts never decrease along a series.
    let bucket_counts: Vec<u64> = prom
        .lines()
        .filter(|l| l.starts_with("nai_request_duration_seconds_bucket"))
        .map(|l| l.split_whitespace().last().unwrap().parse().unwrap())
        .collect();
    assert!(!bucket_counts.is_empty());
    assert!(
        bucket_counts.windows(2).all(|w| w[0] <= w[1]),
        "le buckets must be cumulative: {bucket_counts:?}"
    );
    assert_eq!(
        *bucket_counts.last().unwrap(),
        REQUESTS as u64,
        "+Inf bucket"
    );

    // --- flight recorder -----------------------------------------------
    let (status, slow) = client.request("GET", "/debug/slow", None).unwrap();
    assert_eq!(status, 200);
    let slow = Json::parse(slow.trim()).unwrap();
    let traces = slow.get("traces").and_then(Json::as_arr).expect("traces");
    assert!(!traces.is_empty(), "forty requests must leave slow traces");
    assert_eq!(
        slow.get("count").and_then(Json::as_u64),
        Some(traces.len() as u64)
    );
    let mut last_total = f64::INFINITY;
    for t in traces {
        let total = t.get("total_us").and_then(Json::as_f64).unwrap();
        assert!(total <= last_total, "traces must be sorted slowest-first");
        last_total = total;
        assert!(t.get("trace_id").and_then(Json::as_u64).unwrap() > 0);
        let spans = t.get("stages_us").expect("stage timeline");
        let span_sum: f64 = STAGES
            .iter()
            .map(|s| spans.get(s).and_then(Json::as_f64).unwrap())
            .sum();
        assert!(
            span_sum <= total * 1.001,
            "a trace's spans cannot exceed its total: {span_sum} > {total}"
        );
        let reason = t.get("close_reason").and_then(Json::as_str).unwrap();
        assert!(
            ["max_batch", "idle", "cache_hit"].contains(&reason),
            "unknown close reason {reason}"
        );
    }

    server.shutdown();
}
