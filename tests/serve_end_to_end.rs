//! Integration: the online serving stack over real sockets.
//!
//! Boots `nai::serve` on an ephemeral port and drives it with clients,
//! then checks the serving contract:
//!
//! * **replicated determinism** — replies to a closed-loop interleaved
//!   ingest / edge-arrival / infer sequence, dispatched with **no**
//!   `shard` routing (reads fan out round-robin over the replicas, and
//!   every mutation is sequenced and broadcast to all of them), are
//!   bit-equal to a single-threaded [`StreamingEngine`] fed the same
//!   sequence — including reads of just-ingested nodes, which any
//!   replica must serve;
//! * **bounded admission** — beyond `queue_cap` in-flight requests the
//!   service answers `overloaded` immediately (HTTP 503 on single-line
//!   bodies), it never hangs, and admitted requests still complete;
//! * `/healthz`, `/metrics`, and `/shutdown` behave.

use nai::core::config::{CacheConfig, InferenceConfig, LoadShedPolicy, ServeConfig};
use nai::models::{DepthClassifier, ModelKind};
use nai::serve::{HttpClient, Json, NaiService, Op, Server};
use nai::stream::{DynamicGraph, StreamingEngine};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::{Duration, Instant};

const F: usize = 6;
const K: usize = 2;
const CLASSES: usize = 4;
const SEED_NODES: usize = 90;

/// Engines with deterministic (seeded, untrained) weights: every call
/// builds a bit-identical replica, so shards and oracles agree.
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

fn infer_cfg() -> InferenceConfig {
    InferenceConfig::distance(0.5, 1, K)
}

/// A deterministic closed-loop interleaving of all three op kinds.
/// Ingests grow the *global* graph (sequenced replication assigns ids
/// service-wide); infers deliberately include the most recent arrival,
/// so round-robin dispatch exercises read-your-writes on every
/// replica; edge arrivals include occasional duplicates, whose
/// `added:false` answer must match the oracle.
fn interleaved_script(seed: u64, len: usize) -> Vec<Op> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut nodes = SEED_NODES as u32;
    let mut last_ingested: Option<u32> = None;
    (0..len)
        .map(|i| match i % 4 {
            1 => {
                let neighbors: Vec<u32> = (0..3).map(|_| rng.gen_range(0..nodes)).collect();
                nodes += 1;
                last_ingested = Some(nodes - 1);
                Op::Ingest {
                    features: (0..F).map(|_| rng.gen_range(-1.0f32..1.0)).collect(),
                    neighbors,
                }
            }
            3 => {
                let u = rng.gen_range(0..nodes);
                let v = (u + 1 + rng.gen_range(0..nodes - 1)) % nodes;
                debug_assert_ne!(u, v);
                Op::ObserveEdge { u, v }
            }
            _ => {
                let mut read: Vec<u32> = vec![rng.gen_range(0..nodes)];
                if let Some(fresh) = last_ingested {
                    // Immediately read back the latest arrival: the
                    // next replica in the rotation must know it.
                    read.push(fresh);
                }
                Op::Infer { nodes: read }
            }
        })
        .collect()
}

#[test]
fn round_robin_interleaved_workload_matches_single_engine_oracle() {
    const SHARDS: usize = 2;
    const OPS: usize = 48;
    let engines: Vec<StreamingEngine> = (0..SHARDS).map(|_| engine()).collect();
    let service = NaiService::new(
        engines,
        infer_cfg(),
        ServeConfig {
            workers: SHARDS,
            max_batch: 8,
            queue_cap: 256,
            shed: LoadShedPolicy {
                trigger_fraction: 1.0,
                t_max_cap: 0, // shedding off: depths must match the oracle
            },
            cache: CacheConfig::off(),
        },
    )
    .unwrap();
    let server = Server::start(Arc::new(service), "127.0.0.1:0").unwrap();
    let addr = server.local_addr();

    let script = interleaved_script(7001, OPS);

    // Drive the whole interleaved script closed-loop over one socket,
    // with no shard field anywhere: the service's own round-robin
    // decides which replica answers each request.
    let mut client = HttpClient::connect(addr).unwrap();
    let mut replies = Vec::with_capacity(OPS);
    for op in &script {
        let line = nai::serve::proto::render_request(&nai::serve::Request {
            op: op.clone(),
            shard: None,
        });
        let (status, body) = client
            .request("POST", "/v1", Some(&format!("{line}\n")))
            .unwrap();
        assert_eq!(status, 200, "body: {body}");
        replies.push(Json::parse(body.trim()).unwrap());
    }

    // Replay the script on a fresh single-threaded engine and demand
    // bit-identical answers, whatever replica served each request.
    let mut oracle = engine();
    let mut last_applied = 0u64;
    let mut answering_shards = std::collections::HashSet::new();
    for (op, reply) in script.iter().zip(&replies) {
        assert_eq!(
            reply.get("ok").and_then(Json::as_bool),
            Some(true),
            "{reply}"
        );
        let shard = reply.get("shard").and_then(Json::as_u64).unwrap();
        assert!((shard as usize) < SHARDS);
        answering_shards.insert(shard);
        let applied = reply.get("applied_seq").and_then(Json::as_u64).unwrap();
        assert!(
            applied >= last_applied || matches!(op, Op::ObserveEdge { .. }),
            "applied_seq regressed for a read: {applied} < {last_applied}"
        );
        last_applied = last_applied.max(applied);
        match op {
            Op::Infer { nodes } => {
                let expected = oracle.infer_nodes(nodes, &infer_cfg());
                let results = reply.get("results").unwrap().as_arr().unwrap();
                assert_eq!(results.len(), nodes.len());
                for ((r, &node), &(pred, depth)) in results.iter().zip(nodes).zip(&expected) {
                    assert_eq!(r.get("node").unwrap().as_u64(), Some(node as u64));
                    assert_eq!(r.get("prediction").unwrap().as_u64(), Some(pred as u64));
                    assert_eq!(r.get("depth").unwrap().as_u64(), Some(depth as u64));
                }
            }
            Op::Ingest {
                features,
                neighbors,
            } => {
                let id = oracle.ingest(features, neighbors);
                let expected = oracle.flush(&infer_cfg());
                assert_eq!(reply.get("node").unwrap().as_u64(), Some(id as u64));
                assert_eq!(
                    reply.get("prediction").unwrap().as_u64(),
                    Some(expected[0].prediction as u64)
                );
                assert_eq!(
                    reply.get("depth").unwrap().as_u64(),
                    Some(expected[0].depth as u64)
                );
            }
            Op::ObserveEdge { u, v } => {
                let added = oracle.observe_edge(*u, *v);
                assert_eq!(reply.get("added").and_then(Json::as_bool), Some(added));
            }
        }
    }
    assert_eq!(
        answering_shards.len(),
        SHARDS,
        "round-robin must spread work over every replica"
    );

    // Health and metrics reflect the traffic that just happened.
    let (status, body) = client.request("GET", "/healthz", None).unwrap();
    assert_eq!(status, 200);
    let health = Json::parse(body.trim()).unwrap();
    assert_eq!(health.get("shards").unwrap().as_u64(), Some(SHARDS as u64));
    assert_eq!(
        health.get("seed_nodes").unwrap().as_u64(),
        Some(SEED_NODES as u64)
    );
    let (status, body) = client.request("GET", "/metrics", None).unwrap();
    assert_eq!(status, 200);
    let metrics = Json::parse(body.trim()).unwrap();
    let served = metrics.get("served").unwrap().as_u64().unwrap();
    assert!(served >= OPS as u64 / 2, "served {served}");
    assert_eq!(metrics.get("overloaded").unwrap().as_u64(), Some(0));
    assert!(
        metrics.get("edges_observed").unwrap().as_u64().unwrap() >= (OPS / 4) as u64,
        "every edge arrival sequenced once"
    );
    let macs = metrics.get("macs").unwrap();
    assert!(macs.get("propagation").unwrap().as_u64().unwrap() > 0);
    assert!(
        macs.get("replication").unwrap().as_u64().unwrap() > 0,
        "replicated mutation work attributed to its own stage"
    );
    drop(client);

    let (status, _) = nai::serve::http_call(addr, "POST", "/shutdown", None).unwrap();
    assert_eq!(status, 200);
    server.join();
}

#[test]
fn queue_overflow_returns_overloaded_not_a_hang() {
    const CAP: usize = 3;
    const CLIENTS: usize = 12;
    let service = NaiService::new(
        vec![engine()],
        infer_cfg(),
        ServeConfig {
            workers: 1,
            // max_batch 1 keeps the lone worker busy in the engine (one
            // request per flush) while the rest of the burst lands, so
            // the admission bound must trip even though no admitted
            // request ever waits for a batch to fill.
            max_batch: 1,
            queue_cap: CAP,
            shed: LoadShedPolicy {
                trigger_fraction: 1.0,
                t_max_cap: 0,
            },
            cache: CacheConfig::off(),
        },
    )
    .unwrap();
    let server = Server::start(Arc::new(service), "127.0.0.1:0").unwrap();
    let addr = server.local_addr();

    // One pipelined burst, led by a deliberately expensive request (a
    // few thousand node reads) that pins the lone worker inside the
    // engine. The reactor's batched parse pushes the 12 small requests
    // behind it into admission back to back — microseconds, while the
    // worker is busy for milliseconds — so at most one of them can be
    // popped before the queue bound trips and the rest shed.
    let start = Instant::now();
    let big_nodes: Vec<String> = (0..4000).map(|i| (i % SEED_NODES).to_string()).collect();
    let mut lines = vec![format!(
        "{{\"op\":\"infer\",\"nodes\":[{}]}}\n",
        big_nodes.join(",")
    )];
    lines.extend(
        (0..CLIENTS).map(|i| format!("{{\"op\":\"infer\",\"nodes\":[{}]}}\n", i % SEED_NODES)),
    );
    let refs: Vec<&str> = lines.iter().map(String::as_str).collect();
    let mut client = HttpClient::connect(addr).unwrap();
    let mut replies = client.pipeline("POST", "/v1", &refs).unwrap().into_iter();
    let (big_status, _) = replies.next().unwrap();
    assert_eq!(big_status, 200, "the pinning request itself is served");
    let outcomes: Vec<(u16, String)> = replies
        .map(|(status, body)| {
            let kind = Json::parse(body.trim())
                .unwrap()
                .get("error")
                .and_then(Json::as_str)
                .unwrap_or("ok")
                .to_string();
            (status, kind)
        })
        .collect();
    // Every client got an answer, promptly — nobody hung on a full queue.
    assert!(
        start.elapsed() < Duration::from_secs(15),
        "took {:?}",
        start.elapsed()
    );
    assert_eq!(outcomes.len(), CLIENTS);
    let overloaded = outcomes
        .iter()
        .filter(|(status, kind)| kind == "overloaded" && *status == 503)
        .count();
    let ok = outcomes.iter().filter(|(_, kind)| kind == "ok").count();
    assert_eq!(ok + overloaded, CLIENTS, "outcomes: {outcomes:?}");
    assert!(
        overloaded >= CLIENTS - 2 * CAP,
        "expected most of the burst shed, got {overloaded} of {CLIENTS}"
    );
    assert!(ok >= 1, "the admitted requests must still be answered");

    server.shutdown();
    server.join();
}
