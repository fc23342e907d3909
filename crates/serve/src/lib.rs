//! # nai-serve — online inference service for NAI
//!
//! The paper motivates node-adaptive propagation with *online*
//! inference: nodes arrive as requests and must be answered within a
//! latency budget. [`nai_core::engine::StreamingEngine`] supplies the
//! per-arrival algorithm; this crate supplies the serving system around
//! it, std-only (the workspace has no crates.io access):
//!
//! * [`service::NaiService`] — **one engine per service**, read by a
//!   **worker pool**: the submitting thread stamps every ingest/edge
//!   arrival with a monotonic sequence number, validates it against the
//!   engine's own graph and applies it once, under the write side of
//!   one `RwLock`; every read — on a worker, or on the HTTP reactor's
//!   own thread for a group of reads that names no worker — takes the
//!   read side for its engine call. So any worker answers any node and
//!   clients never route. Each worker **batches**
//!   whatever is queued for it when it becomes free (up to `max_batch` requests —
//!   the Fig. 5 batch-size/latency trade-off, set by load instead of a
//!   timer); **admission control** rejects work
//!   beyond a bounded in-flight cap with a typed `Overloaded` (never a
//!   hang), and a **load-shed policy** lowers the NAP depth budget
//!   under queue pressure — the paper's accuracy↔latency dial driven
//!   by load;
//! * [`cache::PredictionCache`] — an opt-in sequence-versioned
//!   prediction cache: repeat reads of unchanged nodes are answered at
//!   submit time without touching the engine, and every sequenced
//!   mutation invalidates exactly the k-hop neighborhood it could have
//!   changed (full flush when the frontier blows its budget or the NAP
//!   mode depends on global state). Hits are bit-identical to a
//!   cache-bypass run at the same sequence point; degraded (load-shed)
//!   answers are never cached;
//! * [`http::Server`] — a minimal HTTP/1.1 transport over
//!   [`std::net::TcpListener`] with newline-JSON bodies (`POST /v1`)
//!   plus `/healthz`, `/metrics` (merged p50/p95/p99, queue depth,
//!   shed count, per-stage MACs), and `/shutdown`;
//! * [`proto`] / [`json`] — the wire protocol and the vendored JSON it
//!   rides on;
//! * [`client::HttpClient`] — the tiny blocking client used by
//!   `nai loadgen` and the end-to-end tests;
//! * [`workload`] — [`WorkloadSpec`] traffic shapes (read/mutation mix,
//!   Zipf vs. uniform node sampling) and the shared [`WorkloadSampler`]
//!   that `nai loadgen` draws its op stream from.
//!
//! ```text
//! clients ──HTTP──▶ Server ──submit──▶ NaiService ──reads──▶ workers ──▶ one engine
//! ```
//!
//! Correctness contract (checked in the workspace's
//! `tests/serve_end_to_end.rs` and `tests/replica_convergence.rs`):
//! for a closed-loop request sequence — mutations and reads freely
//! interleaved, dispatched round-robin over any number of workers with
//! no routing hints — replies are identical to a single-threaded
//! [`nai_core::engine::StreamingEngine`] fed the same sequence, and the
//! drained engine holds that engine's graph.

pub mod admission;
pub mod cache;
pub mod client;
pub mod http;
pub mod json;
pub mod obs;
pub mod proto;
pub mod reactor;
pub mod service;
pub mod sync;
pub mod workload;

pub use admission::AdmissionLedger;
pub use cache::{CacheCounters, Invalidation, PredictionCache, VersionedCache};
pub use client::{http_call, HttpClient};
pub use http::{Server, StopLatch};
pub use json::Json;
pub use obs::ServeObs;
pub use proto::{NodeResult, Op, Reply, Request};
pub use reactor::TransportConfig;
pub use service::{
    CompletionQueue, MacsCell, MetricsSnapshot, NaiService, ServeError, ServiceInfo, Ticket,
};
pub use workload::{zipf_rank, Sampling, WorkloadSampler, WorkloadSpec};

#[cfg(nai_model)]
pub use service::WorkerInbox;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sync::Arc;
    use nai_core::config::{CacheConfig, InferenceConfig, LoadShedPolicy, ServeConfig};
    use nai_core::engine::StreamingEngine;
    use nai_graph::DynamicGraph;
    use nai_models::{DepthClassifier, ModelKind};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::time::Duration;

    const F: usize = 6;
    const K: usize = 2;
    const CLASSES: usize = 3;

    /// An untrained (random-weight) deployment — serving correctness
    /// tests only need *deterministic* classifiers, not accurate ones,
    /// and skipping the training pipeline keeps these tests fast. Every
    /// call with the same arguments builds a bit-identical engine, so a
    /// service and its oracle agree.
    pub(crate) fn engine(n_nodes: usize, seed: u64) -> StreamingEngine {
        let seed_graph = DynamicGraph::from_graph(&graph(n_nodes, seed));
        StreamingEngine::new(seed_graph, classifiers(seed), None, 0.5)
    }

    /// [`engine`]'s model and seed graph as a checkpoint, for
    /// deploying through `NaiService::from_checkpoint`.
    pub(crate) fn checkpoint(
        n_nodes: usize,
        seed: u64,
    ) -> (nai_core::checkpoint::ModelCheckpoint, DynamicGraph) {
        let seed_graph = DynamicGraph::from_graph(&graph(n_nodes, seed));
        let engine =
            nai_core::inference::NaiEngine::new(seed_graph.clone(), classifiers(seed), None, 0.5);
        (
            nai_core::checkpoint::ModelCheckpoint::from_engine(&engine, 0.5),
            seed_graph,
        )
    }

    fn graph(n_nodes: usize, seed: u64) -> nai_graph::Graph {
        nai_graph::generators::generate(
            &nai_graph::generators::GeneratorConfig {
                num_nodes: n_nodes,
                num_classes: CLASSES,
                feature_dim: F,
                avg_degree: 5.0,
                ..Default::default()
            },
            &mut StdRng::seed_from_u64(seed),
        )
    }

    /// Depth `1..=K` classifiers with weights drawn from `seed` alone.
    fn classifiers(seed: u64) -> Vec<DepthClassifier> {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xC1A55);
        (1..=K)
            .map(|d| DepthClassifier::new(ModelKind::Sgc, d, F, CLASSES, &[8], 0.0, &mut rng))
            .collect()
    }

    fn serve_cfg(workers: usize) -> ServeConfig {
        ServeConfig {
            workers,
            max_batch: 8,
            queue_cap: 64,
            shed: LoadShedPolicy {
                trigger_fraction: 1.0,
                t_max_cap: 0, // shedding off unless a test turns it on
            },
            cache: CacheConfig::off(),
        }
    }

    fn infer_cfg() -> InferenceConfig {
        InferenceConfig::distance(0.5, 1, K)
    }

    #[test]
    fn infer_matches_direct_engine() {
        let mut oracle = engine(80, 7);
        let service = NaiService::new(engine(80, 7), infer_cfg(), serve_cfg(1)).unwrap();
        let nodes: Vec<u32> = vec![0, 13, 55, 7];
        let expected = oracle.infer_nodes(&nodes, &infer_cfg());
        match service
            .call(Request {
                op: Op::Infer {
                    nodes: nodes.clone(),
                },
                shard: Some(0),
            })
            .unwrap()
        {
            Reply::Infer {
                shard,
                applied_seq,
                results,
            } => {
                assert_eq!(shard, 0);
                assert_eq!(applied_seq, 0, "no mutations sequenced yet");
                let got: Vec<(usize, usize)> =
                    results.iter().map(|r| (r.prediction, r.depth)).collect();
                assert_eq!(got, expected);
                assert_eq!(results.iter().map(|r| r.node).collect::<Vec<_>>(), nodes);
            }
            other => panic!("unexpected reply {other:?}"),
        }
        service.shutdown();
    }

    #[test]
    fn ingest_matches_ingest_flush_oracle() {
        let mut oracle = engine(60, 11);
        let service = NaiService::new(engine(60, 11), infer_cfg(), serve_cfg(1)).unwrap();
        let features = vec![0.25f32; F];
        let neighbors = vec![3u32, 9, 9];
        let oid = oracle.ingest(&features, &neighbors);
        let opred = oracle.flush(&infer_cfg());
        match service
            .call(Request {
                op: Op::Ingest {
                    features,
                    neighbors,
                },
                shard: Some(0),
            })
            .unwrap()
        {
            Reply::Ingest {
                shard,
                applied_seq,
                node,
                prediction,
                depth,
            } => {
                assert_eq!(shard, 0);
                assert_eq!(applied_seq, 1, "first sequenced mutation");
                assert_eq!(node, oid);
                assert_eq!(prediction, opred[0].prediction);
                assert_eq!(depth, opred[0].depth);
            }
            other => panic!("unexpected reply {other:?}"),
        }
    }

    #[test]
    fn observe_edge_dedups_and_validates() {
        let service = NaiService::new(engine(30, 3), infer_cfg(), serve_cfg(1)).unwrap();
        let find_missing = |service: &NaiService| -> (u32, u32) {
            // Edge (0, v) for some v not adjacent to 0: probe via replies.
            for v in 1..30u32 {
                if let Reply::Edge { added: true, .. } = service
                    .call(Request {
                        op: Op::ObserveEdge { u: 0, v },
                        shard: Some(0),
                    })
                    .unwrap()
                {
                    return (0, v);
                }
            }
            panic!("node 0 adjacent to everything");
        };
        let (u, v) = find_missing(&service);
        // Second observation of the same edge: not added.
        match service
            .call(Request {
                op: Op::ObserveEdge { u, v },
                shard: Some(0),
            })
            .unwrap()
        {
            Reply::Edge { added, .. } => assert!(!added),
            other => panic!("unexpected reply {other:?}"),
        }
        // Validation failures come back as per-op errors, not panics.
        for bad in [
            Op::ObserveEdge { u: 5, v: 5 },
            Op::ObserveEdge { u: 0, v: 999 },
            Op::Infer { nodes: vec![999] },
            Op::Ingest {
                features: vec![0.0; F + 1],
                neighbors: vec![],
            },
            Op::Ingest {
                features: vec![0.0; F],
                neighbors: vec![999],
            },
            Op::Ingest {
                features: vec![f32::INFINITY; F],
                neighbors: vec![],
            },
        ] {
            match service
                .call(Request {
                    op: bad,
                    shard: Some(0),
                })
                .unwrap()
            {
                Reply::Error { .. } => {}
                other => panic!("expected per-op error, got {other:?}"),
            }
        }
        assert_eq!(service.metrics().op_errors, 6);
    }

    #[test]
    fn sequenced_ingests_get_global_ids_and_every_worker_reads_them() {
        let service = NaiService::new(engine(40, 5), infer_cfg(), serve_cfg(3)).unwrap();
        let mut answerers = Vec::new();
        for i in 0..6u32 {
            match service
                .call(Request {
                    op: Op::Ingest {
                        features: vec![0.1; F],
                        neighbors: vec![0],
                    },
                    shard: None,
                })
                .unwrap()
            {
                Reply::Ingest {
                    shard,
                    applied_seq,
                    node,
                    ..
                } => {
                    answerers.push(shard);
                    // One sequencer: ids are globally sequential
                    // whatever worker answers.
                    assert_eq!(node, 40 + i);
                    assert_eq!(applied_seq, (i + 1) as u64);
                }
                other => panic!("unexpected reply {other:?}"),
            }
        }
        // Closed-loop round-robin spreads the answering work.
        for s in 0..3 {
            assert!(
                answerers.contains(&s),
                "shard {s} never answered: {answerers:?}"
            );
        }
        // Read-your-writes on *every* worker: each ingested id is in
        // range and served by each one when pinned via the hint.
        for s in 0..3 {
            match service
                .call(Request {
                    op: Op::Infer {
                        nodes: vec![40, 43, 45],
                    },
                    shard: Some(s),
                })
                .unwrap()
            {
                Reply::Infer {
                    shard,
                    applied_seq,
                    results,
                } => {
                    assert_eq!(shard, s, "hint honored");
                    assert_eq!(applied_seq, 6);
                    assert_eq!(results.len(), 3);
                }
                other => panic!("worker {s} failed the read: {other:?}"),
            }
        }
        // The drained engine holds every ingest, once.
        let engine = service.into_engine().unwrap();
        assert_eq!(engine.graph().num_nodes(), 46);
        for id in 40..46 {
            assert_eq!(engine.graph().neighbors(id), &[0], "node {id}");
        }
    }

    #[test]
    fn mutation_macs_are_shard_count_independent() {
        // The same mutation-only closed-loop workload on 1 and 3
        // workers must report identical total MACs, every stage summed:
        // each read runs on one worker and each mutation once on the
        // store — a mutation applied twice would show here.
        let script = |i: u32| {
            (
                Op::Ingest {
                    features: vec![0.05 * i as f32; F],
                    neighbors: vec![i, i + 1],
                },
                Op::ObserveEdge { u: 2 * i, v: 49 },
            )
        };
        let run = |n_shards: usize| {
            let service =
                NaiService::new(engine(50, 19), infer_cfg(), serve_cfg(n_shards)).unwrap();
            for i in 0..8u32 {
                let (ingest, edge) = script(i);
                let reply = service
                    .call(Request {
                        op: ingest,
                        shard: None,
                    })
                    .unwrap();
                assert!(matches!(reply, Reply::Ingest { .. }), "{reply:?}");
                let reply = service
                    .call(Request {
                        op: edge,
                        shard: None,
                    })
                    .unwrap();
                assert!(matches!(reply, Reply::Edge { .. }), "{reply:?}");
            }
            // Drain so every worker has stored its final MACs.
            service.shutdown();
            let m = service.metrics();
            assert!(m.macs.replication > 0, "mutation work counted");
            m.macs
        };
        let solo = run(1);
        let pooled = run(3);
        assert_eq!(
            solo.total(),
            pooled.total(),
            "solo {solo:?} vs three workers {pooled:?}"
        );
        assert_eq!(solo, pooled);
        // And the mutation work is exactly a solo engine's for the same
        // script.
        let mut oracle = engine(50, 19);
        for i in 0..8u32 {
            let (
                Op::Ingest {
                    features,
                    neighbors,
                },
                Op::ObserveEdge { u, v },
            ) = script(i)
            else {
                unreachable!("the script is an ingest and an edge");
            };
            oracle.ingest(&features, &neighbors);
            oracle.flush(&infer_cfg());
            oracle.observe_edge(u, v);
        }
        assert_eq!(pooled.replication, oracle.macs_breakdown().replication);
    }

    #[test]
    fn an_engine_panic_on_a_worker_is_answered_and_spares_the_worker() {
        // Gate-mode inference without trained gates panics inside the
        // engine. In-process calls never run inline, so every read
        // reaches the one worker: each must come back at once with the
        // typed error and its admission slot, and the same worker must
        // go on to run the next batch.
        let service =
            NaiService::new(engine(30, 27), InferenceConfig::gate(1, K), serve_cfg(1)).unwrap();
        for i in 0..3u64 {
            let reply = service.call(Request {
                op: Op::Infer { nodes: vec![1] },
                shard: None,
            });
            match reply {
                Ok(Reply::Error { message }) => {
                    assert_eq!(message, "the engine panicked during this read")
                }
                other => panic!("call {i}: expected the typed error, got {other:?}"),
            }
            assert_eq!(service.metrics().batches, i + 1, "the worker ran call {i}");
            assert_eq!(service.queue_depth(), 0, "call {i} gave its slot back");
        }
        assert_eq!(service.metrics().inline_batches, 0);
        assert!(service.into_engine().is_some(), "the engine comes back");
    }

    #[test]
    fn overloaded_is_typed_and_immediate() {
        use crate::sync::atomic::{AtomicBool, Ordering};
        let cfg = ServeConfig {
            workers: 1,
            max_batch: 1024,
            queue_cap: 2,
            ..serve_cfg(1)
        };
        let service = Arc::new(NaiService::new(engine(40, 9), infer_cfg(), cfg).unwrap());
        // Workers never park admitted requests waiting for a batch to
        // fill, so two idle submissions cannot pin the admission bound.
        // Saturate it the honest way instead: two closed-loop flooders
        // that resubmit the moment they are answered keep in_flight
        // hovering at queue_cap.
        let stop = Arc::new(AtomicBool::new(false));
        let flooders: Vec<_> = (0..2)
            .map(|_| {
                let service = Arc::clone(&service);
                let stop = Arc::clone(&stop);
                crate::sync::thread::spawn(move || {
                    // Relaxed: plain stop flag; no data published through it.
                    while !stop.load(Ordering::Relaxed) {
                        let _ = service.call(Request {
                            op: Op::Infer {
                                nodes: (0..40).collect(),
                            },
                            shard: None,
                        });
                    }
                })
            })
            .collect();
        // With the cap saturated, a submission must be rejected typed
        // and immediately — never a hang. The flooders' replies race
        // our probes, so retry until a probe lands on a full cap.
        let deadline = crate::sync::time::Instant::now() + Duration::from_secs(10);
        let mut rejected = false;
        while crate::sync::time::Instant::now() < deadline {
            let start = crate::sync::time::Instant::now();
            match service.submit(Request {
                op: Op::Infer { nodes: vec![3] },
                shard: None,
            }) {
                Err(ServeError::Overloaded) => {
                    assert!(
                        start.elapsed() < Duration::from_millis(100),
                        "rejection must be immediate, took {:?}",
                        start.elapsed()
                    );
                    rejected = true;
                    break;
                }
                Ok(t) => {
                    let _ = t.wait(Duration::from_secs(10));
                }
                Err(e) => panic!("unexpected submit error: {e}"),
            }
        }
        assert!(rejected, "a saturated admission bound must reject");
        assert!(service.metrics().overloaded >= 1);
        // Relaxed: plain stop flag; no data published through it.
        stop.store(true, Ordering::Relaxed);
        for f in flooders {
            let _ = f.join();
        }
        // The bound is a rejection, not a latch: drained, new work is
        // admitted again.
        assert!(service
            .call(Request {
                op: Op::Infer { nodes: vec![1] },
                shard: None,
            })
            .is_ok());
    }

    /// Single-node reads of nodes `0..n`, no shard hint.
    fn reads(n: u32) -> Vec<Request> {
        (0..n)
            .map(|i| Request {
                op: Op::Infer { nodes: vec![i] },
                shard: None,
            })
            .collect()
    }

    /// Submits `reqs` as one group — the way the reactor submits the
    /// `/v1` lines of one parse pass: every request is admitted before
    /// any is sequenced, so the whole group is in flight when a worker
    /// closes the batch that holds it. Returns the replies in arrival
    /// order.
    fn call_group(service: &NaiService, reqs: Vec<Request>) -> Vec<Reply> {
        let (tx, rx) = crate::sync::mpsc::channel();
        let n = reqs.len();
        let group = reqs
            .into_iter()
            .map(|r| (r, 0, service::ReplySink::Channel(tx.clone())))
            .collect();
        for outcome in service.submit_group(group, false) {
            assert!(matches!(outcome, Ok(None)), "queued, got {outcome:?}");
        }
        (0..n)
            .map(|_| rx.recv_timeout(Duration::from_secs(10)).unwrap())
            .collect()
    }

    #[test]
    fn load_shed_caps_depth_under_pressure() {
        let cfg = ServeConfig {
            workers: 1,
            max_batch: 4,
            queue_cap: 8,
            shed: LoadShedPolicy {
                trigger_fraction: 0.0, // always under pressure
                t_max_cap: 1,
            },
            cache: CacheConfig::off(),
        };
        // Fixed-depth K config: without shedding every node exits at K.
        let service = NaiService::new(engine(60, 13), InferenceConfig::fixed(K), cfg).unwrap();
        for reply in call_group(&service, reads(4)) {
            match reply {
                Reply::Infer { results, .. } => {
                    assert_eq!(results[0].depth, 1, "depth budget capped to 1 under shed");
                }
                other => panic!("unexpected reply {other:?}"),
            }
        }
        let m = service.metrics();
        assert!(m.degraded_batches >= 1);
        assert_eq!(m.shed_ops, 4);
    }

    #[test]
    fn load_shed_engages_under_pressure_and_recovers_after_drain() {
        // A realistic (mid-trigger) shed policy: the depth budget must
        // actually be capped while the queue is under pressure, and a
        // request served after the queue drains must get the full
        // budget back — shedding is a pressure response, not a latch.
        let cfg = ServeConfig {
            workers: 1,
            max_batch: 8,
            queue_cap: 8,
            shed: LoadShedPolicy {
                trigger_fraction: 0.5, // pressure at ≥ 4 in flight
                t_max_cap: 1,
            },
            cache: CacheConfig::off(),
        };
        // Fixed-depth K: without shedding every node exits at K. The
        // burst goes in as one group, so its batch closes with all 8
        // in flight.
        let service = NaiService::new(engine(60, 33), InferenceConfig::fixed(K), cfg).unwrap();
        for reply in call_group(&service, reads(8)) {
            match reply {
                Reply::Infer { results, .. } => {
                    assert_eq!(results[0].depth, 1, "budget capped under pressure");
                }
                other => panic!("unexpected reply {other:?}"),
            }
        }
        let pressured = service.metrics();
        assert!(pressured.degraded_batches >= 1);
        assert_eq!(pressured.shed_ops, 8);

        // Drained: the closed loop above received every reply, so
        // in_flight is 0 and the next batch closes at 1 < 4 — full depth.
        assert_eq!(service.queue_depth(), 0);
        match service
            .call(Request {
                op: Op::Infer { nodes: vec![0] },
                shard: None,
            })
            .unwrap()
        {
            Reply::Infer { results, .. } => {
                assert_eq!(results[0].depth, K, "budget restored after drain");
            }
            other => panic!("unexpected reply {other:?}"),
        }
        let recovered = service.metrics();
        assert_eq!(recovered.shed_ops, 8, "the post-drain request was not shed");
    }

    #[test]
    fn degraded_predictions_are_never_cached_as_full_depth_answers() {
        // Cache-enabled sibling of the shed-recovery test above. The
        // shed burst answers every node at the capped depth 1; if any
        // of those degraded answers landed in the cache, the post-drain
        // reads below would "hit" a depth-1 prediction and report it as
        // the full-budget answer — a silently wrong cache, not a shed.
        let cfg = ServeConfig {
            workers: 1,
            max_batch: 8,
            queue_cap: 8,
            shed: LoadShedPolicy {
                trigger_fraction: 0.5, // pressure at ≥ 4 in flight
                t_max_cap: 1,
            },
            cache: CacheConfig::on(64),
        };
        let service = NaiService::new(engine(60, 33), InferenceConfig::fixed(K), cfg).unwrap();
        for reply in call_group(&service, reads(8)) {
            match reply {
                Reply::Infer { results, .. } => {
                    assert_eq!(results[0].depth, 1, "budget capped under pressure");
                }
                other => panic!("unexpected reply {other:?}"),
            }
        }
        let pressured = service.metrics();
        assert_eq!(pressured.shed_ops, 8);
        assert_eq!(pressured.cache_hits, 0, "an empty cache cannot hit");
        assert_eq!(
            pressured.cache_misses, 8,
            "every burst read took the cached path"
        );

        // Post-drain: node 0 was answered at depth 1 above. A cached
        // degraded entry would hit here; the correct behavior is a miss
        // followed by a full-depth recomputation.
        assert_eq!(service.queue_depth(), 0);
        let full_depth = match service
            .call(Request {
                op: Op::Infer { nodes: vec![0] },
                shard: None,
            })
            .unwrap()
        {
            Reply::Infer { results, .. } => {
                assert_eq!(
                    results[0].depth, K,
                    "recomputed at the full budget, not replayed"
                );
                results[0].prediction
            }
            other => panic!("unexpected reply {other:?}"),
        };
        let recomputed = service.metrics();
        assert_eq!(
            recomputed.cache_hits, 0,
            "degraded burst left nothing to hit"
        );
        assert_eq!(recomputed.cache_misses, 9);

        // The full-depth answer IS cached: the same read again hits,
        // bit-equal, still at depth K.
        match service
            .call(Request {
                op: Op::Infer { nodes: vec![0] },
                shard: None,
            })
            .unwrap()
        {
            Reply::Infer {
                applied_seq,
                results,
                ..
            } => {
                assert_eq!(applied_seq, 0, "no mutations sequenced");
                assert_eq!(results[0].depth, K);
                assert_eq!(results[0].prediction, full_depth);
            }
            other => panic!("unexpected reply {other:?}"),
        }
        let hit = service.metrics();
        assert_eq!(hit.cache_hits, 1);
        assert_eq!(hit.cache_misses, 9);
    }

    #[test]
    fn invalid_shard_rejected_at_submit() {
        let service = NaiService::new(engine(20, 1), infer_cfg(), serve_cfg(2)).unwrap();
        let err = service.call(Request {
            op: Op::Infer { nodes: vec![0] },
            shard: Some(7),
        });
        assert!(matches!(err, Err(ServeError::Invalid(_))));
    }

    #[test]
    fn metrics_track_served_and_macs() {
        let service = NaiService::new(engine(50, 21), infer_cfg(), serve_cfg(2)).unwrap();
        for i in 0..10u32 {
            service
                .call(Request {
                    op: Op::Infer {
                        nodes: vec![i, i + 10],
                    },
                    shard: None,
                })
                .unwrap();
        }
        let m = service.metrics();
        assert_eq!(m.latency.count(), 20, "two nodes per request");
        assert_eq!(m.served, 20);
        assert!(m.macs.propagation > 0);
        assert!(m.macs.classification > 0);
        assert_eq!(m.macs.replication, 0, "read-only workload");
        assert_eq!(
            m.macs.total(),
            m.macs.propagation + m.macs.nap + m.macs.classification + m.macs.replication
        );
        assert!(m.batches >= 1);
        assert_eq!(m.queue_depth, 0, "closed loop leaves nothing in flight");
        assert!(m.latency.quantile(0.99) >= m.latency.quantile(0.5));
        // Every answered request carries a full stage timeline: the
        // request-granularity stage histograms line up with each other,
        // and the batch anatomy accounts for every dispatch.
        let requests = m.stages[nai_obs::Stage::QueueWait.index()].count();
        assert_eq!(requests, 10, "one stage sample per request");
        for s in nai_obs::Stage::ALL {
            assert_eq!(m.stages[s.index()].count(), requests, "{}", s.name());
        }
        assert_eq!(m.batch_sizes.count(), m.batches);
        assert_eq!(m.batch_sizes.sum(), 10, "every request rode one batch");
        assert_eq!(
            m.closed_on_max_batch + m.closed_on_idle,
            m.batches,
            "every batch closes for exactly one reason"
        );
        // A single closed-loop client leaves each request alone in its
        // worker's channel: every batch takes all that is queued.
        assert_eq!(m.closed_on_idle, m.batches, "nothing waited to fill");
    }

    #[test]
    fn submit_after_shutdown_is_rejected() {
        let service = NaiService::new(engine(20, 2), infer_cfg(), serve_cfg(1)).unwrap();
        service.shutdown();
        let err = service.submit(Request {
            op: Op::Infer { nodes: vec![0] },
            shard: None,
        });
        assert!(matches!(err, Err(ServeError::ShuttingDown)));
        service.shutdown(); // idempotent
    }

    #[test]
    fn http_server_end_to_end_small() {
        let service = Arc::new(NaiService::new(engine(50, 17), infer_cfg(), serve_cfg(2)).unwrap());
        let server = Server::start(Arc::clone(&service), "127.0.0.1:0").unwrap();
        let addr = server.local_addr();

        let mut client = HttpClient::connect(addr).unwrap();
        let (status, body) = client.request("GET", "/healthz", None).unwrap();
        assert_eq!(status, 200);
        let health = Json::parse(body.trim()).unwrap();
        assert_eq!(health.get("status").unwrap().as_str(), Some("ok"));
        assert_eq!(health.get("shards").unwrap().as_u64(), Some(2));
        assert_eq!(health.get("feature_dim").unwrap().as_u64(), Some(F as u64));

        // One infer over the wire (keep-alive reuses the connection).
        let (status, body) = client
            .request(
                "POST",
                "/v1",
                Some("{\"op\":\"infer\",\"nodes\":[1,2],\"shard\":0}\n"),
            )
            .unwrap();
        assert_eq!(status, 200);
        let reply = Json::parse(body.trim()).unwrap();
        assert_eq!(reply.get("ok").unwrap().as_bool(), Some(true));
        assert_eq!(reply.get("results").unwrap().as_arr().unwrap().len(), 2);

        // Multi-line body: replies line up with request lines.
        let (status, body) = client
            .request(
                "POST",
                "/v1",
                Some("{\"op\":\"infer\",\"nodes\":[3]}\nnot json\n{\"op\":\"observe_edge\",\"u\":0,\"v\":1}\n"),
            )
            .unwrap();
        assert_eq!(status, 200);
        let lines: Vec<&str> = body.trim().lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(
            Json::parse(lines[0]).unwrap().get("op").unwrap().as_str(),
            Some("infer")
        );
        assert_eq!(
            Json::parse(lines[1])
                .unwrap()
                .get("error")
                .unwrap()
                .as_str(),
            Some("invalid")
        );

        // Unknown path → 404; bad method → 405; empty body → 400.
        assert_eq!(client.request("GET", "/nope", None).unwrap().0, 404);
        assert_eq!(client.request("PUT", "/v1", None).unwrap().0, 405);
        assert_eq!(client.request("POST", "/v1", Some("")).unwrap().0, 400);

        let (status, body) = client.request("GET", "/metrics", None).unwrap();
        assert_eq!(status, 200);
        let metrics = Json::parse(body.trim()).unwrap();
        assert!(metrics.get("served").unwrap().as_u64().unwrap() >= 3);
        assert!(metrics.get("latency_us").unwrap().get("p50").is_some());
        assert!(metrics.get("macs").unwrap().get("propagation").is_some());

        // POST /shutdown answers, then the server stops accepting.
        let (status, _) = http_call(addr, "POST", "/shutdown", None).unwrap();
        assert_eq!(status, 200);
        server.join();
        assert!(
            HttpClient::connect(addr).is_err() || {
                // The OS may accept briefly during teardown; a request must
                // then fail.
                let mut c = HttpClient::connect(addr).unwrap();
                c.request("GET", "/healthz", None).is_err()
            }
        );
    }
}
