//! Property test: the prediction cache is invisible to correctness.
//!
//! For random closed-loop interleavings of ingests, edge arrivals, and
//! reads over {1, 2, 4} reader threads with the cache ON, every reply —
//! cached or computed — must be bit-equal (prediction, depth,
//! `applied_seq`) to a cache-bypass solo [`StreamingEngine`] oracle fed
//! the same sequence. The property runs under both a distance-mode NAP
//! (every mutation flushes the cache) and a fixed-depth NAP (mutations
//! invalidate only the k-hop in-neighborhood), so both invalidation
//! paths are exercised against the same oracle.

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

/// Deterministic engine factory: every call yields a bit-identical
/// engine, so the service's engine and the oracle agree at boot.
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
    let mut rng = StdRng::seed_from_u64(98);
    let classifiers: Vec<DepthClassifier> = (1..=K)
        .map(|d| DepthClassifier::new(ModelKind::Sgc, d, F, CLASSES, &[6], 0.0, &mut rng))
        .collect();
    StreamingEngine::new(DynamicGraph::from_graph(&g), classifiers, None, 0.5)
}

fn serve_cfg(workers: usize, cache: CacheConfig) -> ServeConfig {
    ServeConfig {
        workers,
        max_batch: 8,
        queue_cap: 64,
        shed: LoadShedPolicy {
            trigger_fraction: 1.0,
            t_max_cap: 0, // shedding off: depths must match the oracle
        },
        cache,
    }
}

/// Random valid op script (same generator as the engine-convergence
/// suite, `replica_convergence.rs`): every op references only node ids
/// that exist at that point.
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
                // Two-node reads with repetition pressure: a small id
                // range keeps re-reads (and therefore cache hits)
                // likely inside short scripts.
                nodes: (0..2).map(|_| rng.gen_range(0..nodes)).collect(),
            },
        })
        .collect()
}

/// Drives `ops` through a cache-enabled service and a cache-bypass solo
/// oracle in lockstep; every reply must agree bit for bit, and every
/// read's `applied_seq` must equal the count of mutations sequenced so
/// far (the closed loop leaves nothing in flight between ops).
fn run_and_check(shards: usize, infer: InferenceConfig, ops: &[Op]) -> Result<u64, TestCaseError> {
    let service = NaiService::new(engine(), infer, serve_cfg(shards, CacheConfig::on(1024)))
        .map_err(TestCaseError::fail)?;
    let mut oracle = engine();
    let mut mutations = 0u64; // every Ingest/ObserveEdge is sequenced
    for op in ops {
        let reply = service
            .call(Request {
                op: op.clone(),
                shard: None,
            })
            .map_err(|e| TestCaseError::fail(e.to_string()))?;
        match (op, reply) {
            (
                Op::Infer { nodes },
                Reply::Infer {
                    applied_seq,
                    results,
                    ..
                },
            ) => {
                let expected = oracle.infer_nodes(nodes, &infer);
                prop_assert_eq!(applied_seq, mutations, "read at the current sequence point");
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
                    applied_seq,
                    node,
                    prediction,
                    depth,
                    ..
                },
            ) => {
                mutations += 1;
                let id = oracle.ingest(features, neighbors);
                let expected = oracle.flush(&infer);
                prop_assert_eq!(applied_seq, mutations);
                prop_assert_eq!(node, id, "globally sequential id");
                prop_assert_eq!(prediction, expected[0].prediction);
                prop_assert_eq!(depth, expected[0].depth);
            }
            (Op::ObserveEdge { u, v }, Reply::Edge { added, .. }) => {
                // Duplicate edges are still sequenced (added == false
                // advances the clock without changing the graph).
                mutations += 1;
                prop_assert_eq!(added, oracle.observe_edge(*u, *v));
            }
            (op, other) => {
                return Err(TestCaseError::fail(format!(
                    "op {op:?} answered with {other:?}"
                )))
            }
        }
    }
    let hits = service.metrics().cache_hits;
    service.shutdown();
    Ok(hits)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn cached_replies_are_bit_equal_to_the_cache_bypass_oracle(
        shards in prop_oneof![Just(1usize), Just(2usize), Just(4usize)],
        seed in any::<u64>(),
        len in 12..28usize,
    ) {
        let ops = script(seed, len);
        // Distance-mode NAP: depths depend on the global stationary, so
        // every mutation conservatively flushes the whole cache.
        run_and_check(shards, InferenceConfig::distance(0.5, 1, K), &ops)?;
        // Fixed-depth NAP: inference is local, so mutations invalidate
        // only the k-hop in-neighborhood and distant entries keep
        // serving hits.
        run_and_check(shards, InferenceConfig::fixed(K), &ops)?;
    }
}

/// Zipf-skewed read-only traffic re-reads a hot set, so the cache must
/// actually hit — a cache that silently never hits would pass the
/// bit-equality property above while being dead weight.
#[test]
fn zipf_reads_hit_the_cache_and_still_match_the_oracle() {
    use nai::serve::{Sampling, WorkloadSampler, WorkloadSpec};
    let spec = WorkloadSpec {
        name: "zipf-read-only".into(),
        read_fraction: 1.0,
        edge_fraction: 0.0,
        sampling: Sampling::Zipf { exponent: 1.1 },
        nodes_per_read: 2,
        ingest_degree: 3,
    };
    spec.validate().unwrap();
    let mut sampler = WorkloadSampler::new(spec, 0x5EED);
    let service = NaiService::new(
        engine(),
        InferenceConfig::distance(0.5, 1, K),
        serve_cfg(2, CacheConfig::on(1024)),
    )
    .unwrap();
    let mut oracle = engine();
    for _ in 0..200 {
        let op = sampler.next_op(SEED_NODES as u32, F);
        let Op::Infer { nodes } = &op else {
            panic!("read-only workload emitted a mutation: {op:?}")
        };
        let expected = oracle.infer_nodes(nodes, &InferenceConfig::distance(0.5, 1, K));
        match service
            .call(Request {
                op: op.clone(),
                shard: None,
            })
            .unwrap()
        {
            Reply::Infer {
                applied_seq,
                results,
                ..
            } => {
                assert_eq!(applied_seq, 0, "no mutations in this workload");
                let got: Vec<(usize, usize)> =
                    results.iter().map(|r| (r.prediction, r.depth)).collect();
                assert_eq!(got, expected);
            }
            other => panic!("unexpected reply {other:?}"),
        }
    }
    let m = service.metrics();
    assert!(
        m.cache_hits > 0,
        "a hot zipf read set must produce hits, got {m:?}"
    );
    assert_eq!(
        m.cache_hits + m.cache_misses,
        200,
        "every read took the cached path exactly once"
    );
    service.shutdown();
}

/// End-to-end version of the k-hop invalidation walk under a fixed-depth
/// NAP: a mutation far outside a cached node's ball leaves the entry
/// serving hits at an advanced `applied_seq`; a nearby mutation evicts
/// it and the recomputed answer matches the oracle.
#[test]
fn distant_mutations_keep_fixed_nap_entries_hot_nearby_ones_evict() {
    const N: usize = 16;
    let path_engine = || {
        let mut d = DynamicGraph::new(F);
        let mut rng = StdRng::seed_from_u64(0xB00);
        let feat = |rng: &mut StdRng| -> Vec<f32> {
            (0..F).map(|_| rng.gen_range(-1.0f32..1.0)).collect()
        };
        d.add_node(&feat(&mut rng), &[]);
        for v in 1..N as u32 {
            d.add_node(&feat(&mut rng), &[v - 1]);
        }
        let mut crng = StdRng::seed_from_u64(0xC1A55);
        let classifiers: Vec<DepthClassifier> = (1..=K)
            .map(|depth| {
                DepthClassifier::new(ModelKind::Sgc, depth, F, CLASSES, &[6], 0.0, &mut crng)
            })
            .collect();
        StreamingEngine::new(d, classifiers, None, 0.5)
    };
    let infer = InferenceConfig::fixed(K);
    let service = NaiService::new(path_engine(), infer, serve_cfg(1, CacheConfig::on(64))).unwrap();
    let mut oracle = path_engine();
    let read = |nodes: Vec<u32>| Request {
        op: Op::Infer { nodes },
        shard: None,
    };
    let expect_infer = |reply: Reply| -> (u64, usize, usize) {
        match reply {
            Reply::Infer {
                applied_seq,
                results,
                ..
            } => (applied_seq, results[0].prediction, results[0].depth),
            other => panic!("unexpected reply {other:?}"),
        }
    };

    // Populate: node 0 is cached at seq 0.
    let (seq, pred, depth) = expect_infer(service.call(read(vec![0])).unwrap());
    let expected = oracle.infer_nodes(&[0], &infer);
    assert_eq!((seq, pred, depth), (0, expected[0].0, expected[0].1));
    assert_eq!(service.metrics().cache_misses, 1);

    // An edge 10 hops away: the walk's ball around {10, 12} never
    // reaches node 0, so the entry survives and the next read is a hit
    // — stamped with the *advanced* sequence number.
    assert!(matches!(
        service
            .call(Request {
                op: Op::ObserveEdge { u: 10, v: 12 },
                shard: None
            })
            .unwrap(),
        Reply::Edge { added: true, .. }
    ));
    assert!(oracle.observe_edge(10, 12));
    let (seq, hit_pred, hit_depth) = expect_infer(service.call(read(vec![0])).unwrap());
    let expected = oracle.infer_nodes(&[0], &infer);
    assert_eq!(seq, 1, "hit carries the current sequence point");
    assert_eq!((hit_pred, hit_depth), (expected[0].0, expected[0].1));
    assert_eq!(
        service.metrics().cache_hits,
        1,
        "distant mutation kept the entry"
    );

    // An edge one hop away: node 0 sits inside the ball around {1, 3},
    // so the entry is evicted and the read recomputes (miss), matching
    // the oracle's post-mutation answer.
    assert!(matches!(
        service
            .call(Request {
                op: Op::ObserveEdge { u: 1, v: 3 },
                shard: None
            })
            .unwrap(),
        Reply::Edge { added: true, .. }
    ));
    assert!(oracle.observe_edge(1, 3));
    let (seq, pred, depth) = expect_infer(service.call(read(vec![0])).unwrap());
    let expected = oracle.infer_nodes(&[0], &infer);
    assert_eq!(seq, 2);
    assert_eq!((pred, depth), (expected[0].0, expected[0].1));
    let m = service.metrics();
    assert_eq!(m.cache_hits, 1, "nearby mutation evicted the entry");
    assert_eq!(
        m.cache_misses, 2,
        "the populate read and the post-eviction read"
    );
    assert!(m.cache_invalidated >= 1);
    service.shutdown();
}
