//! Churn cell for the prediction cache (ISSUE 6 satellite): alternating
//! read and mutation bursts on the scenario matrix's hub-star topology.
//!
//! Under a distance-mode NAP every sequenced mutation conservatively
//! flushes the cache (depths depend on the globally-perturbed
//! stationary state), so the hit rate must *collapse* across a mutation
//! burst and *recover* as the hot set is re-read — and the counters
//! must balance exactly: `hits + misses` equals the number of reads
//! that took the cached path. Every reply, hit or recomputed, is
//! checked bit-equal against a cache-bypass solo-engine oracle fed the
//! same sequence.

use nai::core::config::{CacheConfig, InferenceConfig, LoadShedPolicy, ServeConfig};
use nai::datasets::{Scale, TopologySpec};
use nai::models::{DepthClassifier, ModelKind};
use nai::serve::{NaiService, Op, Reply, Request};
use nai::stream::{DynamicGraph, StreamingEngine};
use rand::rngs::StdRng;
use rand::SeedableRng;

const K: usize = 2;
const HOT: usize = 8; // hot-set size: the ids re-read every round

fn classifiers(feature_dim: usize, classes: usize) -> Vec<DepthClassifier> {
    let mut rng = StdRng::seed_from_u64(0xA11CE);
    (1..=K)
        .map(|d| DepthClassifier::new(ModelKind::Sgc, d, feature_dim, classes, &[8], 0.0, &mut rng))
        .collect()
}

#[test]
fn hit_rate_collapses_during_mutation_bursts_and_recovers() {
    let scenario = TopologySpec::named("hub-star", Scale::Test)
        .unwrap()
        .build();
    let g = &scenario.graph;
    let engine = || {
        StreamingEngine::with_lambda2(
            DynamicGraph::from_graph(g),
            classifiers(g.feature_dim(), g.num_classes),
            None,
            0.5,
            0.9,
        )
    };
    let infer = InferenceConfig::distance(0.5, 1, K);
    let service = NaiService::new(
        vec![engine(), engine()],
        infer,
        ServeConfig {
            workers: 2,
            max_batch: 8,
            queue_cap: 64,
            shed: LoadShedPolicy {
                trigger_fraction: 1.0,
                t_max_cap: 0, // shedding off: depths must match the oracle
            },
            cache: CacheConfig::on(256),
        },
    )
    .unwrap();
    let mut oracle = engine();
    let mut mutations = 0u64;

    // One closed-loop round over the hot set; returns nothing — every
    // reply is asserted bit-equal to the oracle in place.
    let read_round = |service: &NaiService, oracle: &mut StreamingEngine, mutations: u64| {
        for node in 0..HOT as u32 {
            let expected = oracle.infer_nodes(&[node], &infer);
            match service
                .call(Request {
                    op: Op::Infer { nodes: vec![node] },
                    shard: None,
                })
                .unwrap()
            {
                Reply::Infer {
                    applied_seq,
                    results,
                    ..
                } => {
                    assert_eq!(applied_seq, mutations);
                    assert_eq!(results[0].node, node);
                    assert_eq!(results[0].prediction, expected[0].0);
                    assert_eq!(results[0].depth, expected[0].1);
                }
                other => panic!("unexpected reply {other:?}"),
            }
        }
    };

    // Round A: cold cache — every hot read misses.
    read_round(&service, &mut oracle, mutations);
    let a = service.metrics();
    assert_eq!((a.cache_hits, a.cache_misses), (0, HOT as u64));

    // Round B: warm — every hot read hits.
    read_round(&service, &mut oracle, mutations);
    let b = service.metrics();
    assert_eq!((b.cache_hits, b.cache_misses), (HOT as u64, HOT as u64));

    // Mutation burst: leaf-to-leaf edges that cannot already exist in a
    // hub-star (leaves only attach to hubs), so each is genuinely
    // sequenced as a graph change and flushes the cache.
    let n = g.num_nodes() as u32;
    for i in 0..4u32 {
        let (u, v) = (n - 1 - i, n - 10 - i);
        match service
            .call(Request {
                op: Op::ObserveEdge { u, v },
                shard: None,
            })
            .unwrap()
        {
            Reply::Edge { added, .. } => assert!(added, "({u}, {v}) must be a new edge"),
            other => panic!("unexpected reply {other:?}"),
        }
        assert!(oracle.observe_edge(u, v));
        mutations += 1;
    }
    let flushed = service.metrics();
    assert!(
        flushed.cache_invalidated >= HOT as u64,
        "the flush dropped the whole hot set, got {flushed:?}"
    );

    // Round C: the burst collapsed the hit rate — all misses again.
    read_round(&service, &mut oracle, mutations);
    let c = service.metrics();
    assert_eq!(
        (c.cache_hits, c.cache_misses),
        (HOT as u64, 2 * HOT as u64),
        "no read across the burst may serve a pre-mutation answer"
    );

    // Round D: recovered — the re-read hot set hits again.
    read_round(&service, &mut oracle, mutations);
    let d = service.metrics();
    assert_eq!(
        (d.cache_hits, d.cache_misses),
        (2 * HOT as u64, 2 * HOT as u64)
    );

    // Counter consistency: every read in this test took the cached
    // path, so hits + misses is exactly the read count.
    assert_eq!(d.cache_hits + d.cache_misses, 4 * HOT as u64);
    service.shutdown();
}
