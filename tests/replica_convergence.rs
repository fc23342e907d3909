//! Property test: shard replicas converge under sequenced mutation
//! replication.
//!
//! For random closed-loop interleavings of ingests, edge arrivals, and
//! reads — dispatched with no routing hints over shard counts
//! {1, 2, 4} — every reply must match a single-threaded
//! [`StreamingEngine`] oracle fed the same sequence, and after a drain
//! every replica must hold the *identical* graph (`snapshot_csr()`
//! bit-equal, features included) and answer a fixed-depth read of every
//! node exactly as a fresh engine deployed on the oracle's final graph —
//! engine state derived from the graph at mutation time (the cached
//! per-node normalization factors) must have followed every mutation,
//! not only the graph itself. This is the serving layer's
//! correctness contract: mutations are applied on every replica in one
//! global order, so there is no such thing as a wrong shard to read
//! from. A second test submits from four threads at once and checks the
//! same convergence with replica 0 as the reference.

use nai::core::config::{CacheConfig, InferenceConfig, LoadShedPolicy, ServeConfig};
use nai::models::{DepthClassifier, ModelKind};
use nai::serve::{NaiService, Op, Reply, Request};
use nai::stream::{DynamicGraph, StreamingEngine};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const F: usize = 5;
const K: usize = 2;
const CLASSES: usize = 3;
const SEED_NODES: usize = 50;

/// Deterministic replica factory: every call yields a bit-identical
/// engine, so service replicas and the oracle agree at boot.
fn engine() -> StreamingEngine {
    let g = nai::graph::generators::generate(
        &nai::graph::generators::GeneratorConfig {
            num_nodes: SEED_NODES,
            num_classes: CLASSES,
            feature_dim: F,
            avg_degree: 4.0,
            ..Default::default()
        },
        &mut StdRng::seed_from_u64(97),
    );
    deploy(DynamicGraph::from_graph(&g))
}

/// The model every engine here serves, deployed fresh over `graph`.
fn deploy(graph: DynamicGraph) -> StreamingEngine {
    let mut rng = StdRng::seed_from_u64(98);
    let classifiers: Vec<DepthClassifier> = (1..=K)
        .map(|d| DepthClassifier::new(ModelKind::Sgc, d, F, CLASSES, &[6], 0.0, &mut rng))
        .collect();
    StreamingEngine::with_lambda2(graph, classifiers, None, 0.5, 0.9)
}

fn infer_cfg() -> InferenceConfig {
    InferenceConfig::distance(0.5, 1, K)
}

fn serve_cfg(workers: usize) -> ServeConfig {
    ServeConfig {
        workers,
        max_batch: 8,
        queue_cap: 64,
        shed: LoadShedPolicy {
            trigger_fraction: 1.0,
            t_max_cap: 0, // shedding off: depths must match the oracle
        },
        cache: CacheConfig::off(),
    }
}

/// Random valid op script: every op is generated against the node
/// count the sequenced service (and the oracle) will actually have at
/// that point, so replies are all `ok` and directly comparable.
fn script(seed: u64, len: usize) -> Vec<Op> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut nodes = SEED_NODES as u32;
    (0..len)
        .map(|_| match rng.gen_range(0..4u8) {
            0 => {
                let degree = rng.gen_range(0..3usize);
                let neighbors: Vec<u32> = (0..degree).map(|_| rng.gen_range(0..nodes)).collect();
                nodes += 1;
                Op::Ingest {
                    features: (0..F).map(|_| rng.gen_range(-1.0f32..1.0)).collect(),
                    neighbors,
                }
            }
            1 => {
                let u = rng.gen_range(0..nodes);
                let v = (u + 1 + rng.gen_range(0..nodes - 1)) % nodes;
                Op::ObserveEdge { u, v }
            }
            _ => Op::Infer {
                // Bias reads toward the newest ids — the replicated
                // region is where divergence would show.
                nodes: (0..2)
                    .map(|_| {
                        if rng.gen_range(0..2u8) == 0 && nodes > SEED_NODES as u32 {
                            rng.gen_range(SEED_NODES as u32..nodes)
                        } else {
                            rng.gen_range(0..nodes)
                        }
                    })
                    .collect(),
            },
        })
        .collect()
}

fn run_and_check(shards: usize, ops: &[Op]) -> Result<(), TestCaseError> {
    let engines: Vec<StreamingEngine> = (0..shards).map(|_| engine()).collect();
    let service =
        NaiService::new(engines, infer_cfg(), serve_cfg(shards)).map_err(TestCaseError::fail)?;
    let mut oracle = engine();
    for op in ops {
        let reply = service
            .call(Request {
                op: op.clone(),
                shard: None,
            })
            .map_err(|e| TestCaseError::fail(e.to_string()))?;
        match (op, reply) {
            (Op::Infer { nodes }, Reply::Infer { results, .. }) => {
                let expected = oracle.infer_nodes(nodes, &infer_cfg());
                prop_assert_eq!(results.len(), nodes.len());
                for ((r, &node), &(pred, depth)) in results.iter().zip(nodes).zip(&expected) {
                    prop_assert_eq!(r.node, node);
                    prop_assert_eq!(r.prediction, pred);
                    prop_assert_eq!(r.depth, depth);
                }
            }
            (
                Op::Ingest {
                    features,
                    neighbors,
                },
                Reply::Ingest {
                    node,
                    prediction,
                    depth,
                    ..
                },
            ) => {
                let id = oracle.ingest(features, neighbors);
                let expected = oracle.flush(&infer_cfg());
                prop_assert_eq!(node, id, "globally sequential id");
                prop_assert_eq!(prediction, expected[0].prediction);
                prop_assert_eq!(depth, expected[0].depth);
            }
            (Op::ObserveEdge { u, v }, Reply::Edge { added, .. }) => {
                prop_assert_eq!(added, oracle.observe_edge(*u, *v));
            }
            (op, other) => {
                return Err(TestCaseError::fail(format!(
                    "op {op:?} answered with {other:?}"
                )))
            }
        }
    }

    // Drain and compare every replica's materialized graph — to each
    // other and to the oracle — bit for bit.
    let mut replicas = service.into_engines();
    prop_assert_eq!(replicas.len(), shards);
    let want = oracle.graph();
    let want_csr = want.snapshot_csr();
    for (w, replica) in replicas.iter().enumerate() {
        let got = replica.graph();
        prop_assert_eq!(got.num_nodes(), want.num_nodes(), "replica {}", w);
        prop_assert_eq!(got.num_edges(), want.num_edges(), "replica {}", w);
        let got_csr = got.snapshot_csr();
        prop_assert_eq!(got_csr.nnz(), want_csr.nnz(), "replica {}", w);
        for i in 0..want.num_nodes() {
            prop_assert_eq!(
                got_csr.row_indices(i),
                want_csr.row_indices(i),
                "replica {} row {}",
                w,
                i
            );
            prop_assert_eq!(
                got.feature(i as u32),
                want.feature(i as u32),
                "replica {} features {}",
                w,
                i
            );
        }
    }

    // Fixed-depth reads of every node read no stationary state, so they
    // depend only on the graph and the engine's per-node factors: each
    // replica must answer them exactly as an engine deployed fresh on
    // the oracle's final graph.
    let all: Vec<u32> = (0..want.num_nodes() as u32).collect();
    let fixed = InferenceConfig::fixed(K);
    let expected = deploy(want.clone()).infer_nodes(&all, &fixed);
    for (w, replica) in replicas.iter_mut().enumerate() {
        prop_assert_eq!(
            replica.infer_nodes(&all, &fixed),
            expected,
            "replica {} fixed-depth reads",
            w
        );
    }
    Ok(())
}

/// Callers dispatching at the same time: four threads submit mixed
/// ingest, edge and read traffic at once, each sequencing its own
/// requests on its own thread. There is no single-threaded oracle for
/// the order they interleave in, but whatever order the sequencer
/// picked, every replica applied it: all replicas must end with the
/// identical graph, and answer a fixed-depth read of every node exactly
/// as a fresh engine deployed on replica 0's graph.
#[test]
fn replicas_converge_under_concurrent_submitters() {
    const THREADS: usize = 4;
    const OPS_PER_THREAD: usize = 40;
    for shards in [2usize, 4] {
        let engines: Vec<StreamingEngine> = (0..shards).map(|_| engine()).collect();
        let service = NaiService::new(engines, infer_cfg(), serve_cfg(shards)).unwrap();
        // Each script only names ids below its own thread's node count,
        // which never exceeds the service's: every op is valid however
        // the threads interleave.
        let scripts: Vec<Vec<Op>> = (0..THREADS)
            .map(|t| script(0xC0C0 + (shards * THREADS + t) as u64, OPS_PER_THREAD))
            .collect();
        let ingests = scripts
            .iter()
            .flatten()
            .filter(|op| matches!(op, Op::Ingest { .. }))
            .count();
        std::thread::scope(|scope| {
            for ops in &scripts {
                let service = &service;
                scope.spawn(move || {
                    for op in ops {
                        let reply = service
                            .call(Request {
                                op: op.clone(),
                                shard: None,
                            })
                            .unwrap();
                        assert!(!matches!(reply, Reply::Error { .. }), "{op:?}: {reply:?}");
                    }
                });
            }
        });

        let mut replicas = service.into_engines();
        assert_eq!(replicas.len(), shards);
        let want = replicas[0].graph().clone();
        assert_eq!(want.num_nodes(), SEED_NODES + ingests);
        let want_csr = want.snapshot_csr();
        for (w, replica) in replicas.iter().enumerate().skip(1) {
            let got = replica.graph();
            assert_eq!(got.num_nodes(), want.num_nodes(), "replica {w}");
            let got_csr = got.snapshot_csr();
            assert_eq!(got_csr.nnz(), want_csr.nnz(), "replica {w}");
            for i in 0..want.num_nodes() {
                assert_eq!(
                    got_csr.row_indices(i),
                    want_csr.row_indices(i),
                    "replica {w} row {i}"
                );
                assert_eq!(
                    got.feature(i as u32),
                    want.feature(i as u32),
                    "replica {w} features {i}"
                );
            }
        }
        let all: Vec<u32> = (0..want.num_nodes() as u32).collect();
        let fixed = InferenceConfig::fixed(K);
        let expected = deploy(want).infer_nodes(&all, &fixed);
        for (w, replica) in replicas.iter_mut().enumerate() {
            assert_eq!(
                replica.infer_nodes(&all, &fixed),
                expected,
                "{shards} shards: replica {w} fixed-depth reads"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn replicas_converge_and_match_single_engine_oracle(
        shards in prop_oneof![Just(1usize), Just(2usize), Just(4usize)],
        seed in any::<u64>(),
        len in 12..28usize,
    ) {
        let ops = script(seed, len);
        run_and_check(shards, &ops)?;
    }
}
