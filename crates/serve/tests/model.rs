//! Exhaustive interleaving checks for the serve core's concurrency
//! invariants, compiled only under `--cfg nai_model` (ci.sh
//! `model_check`), where `nai_serve::sync` swaps `std::sync` for the
//! workspace's `loom` model checker.
//!
//! Each test explores *every* schedule within the preemption bound
//! (the DFS tests assert `exhausted`), so a pass is a proof over the
//! modeled state space, not a lucky run:
//!
//! 1. **Admission** — `in_flight` never exceeds `queue_cap` and every
//!    admitted slot is released exactly once, across submit /
//!    answer / rollback interleavings.
//! 2. **Cache versioning** — a worker insert racing a sequenced
//!    mutation never produces a hit that mixes the old prediction
//!    with the new sequence point.
//! 3. **Shutdown latch** — racing stoppers see exactly one first
//!    transition, so exactly one of them wakes the reactor.
//! 4. **Completion mailbox** — a reply pushed while the reactor drains
//!    is never stranded without a wake.
//! 5. **Store groups** — two threads submitting mutations at once (one
//!    of them a group of two) while a third reads inline: each ticket
//!    is answered once, the group takes consecutive sequence numbers,
//!    no read sees it half-applied, and every admission slot comes
//!    back.
//! 6. **Read-your-writes** — a read submitted after an ingest's reply
//!    finds the new node, inline and on a worker, while another thread
//!    mutates the store.
//!
//! Plus the satellite-1 regression pinning why `worker_macs` moved
//! from four `Relaxed` stores to a mutex ([`nai_serve::MacsCell`]):
//! the old pattern's torn scrape is *found* by the checker (DFS and
//! seeded search) and deterministically replayed from its recorded
//! schedule; the new cell passes exhaustively.
#![cfg(nai_model)]

use loom::sync::atomic::{AtomicU64, Ordering};
use loom::sync::Arc;
use loom::{Builder, Stats};
use nai_core::config::InferenceConfig;
use nai_core::engine::StreamingEngine;
use nai_core::macs::MacsBreakdown;
use nai_graph::DynamicGraph;
use nai_models::{DepthClassifier, ModelKind};
use nai_serve::{
    AdmissionLedger, CompletionQueue, Invalidation, MacsCell, NaiService, Op, Reply, Request,
    StopLatch, VersionedCache,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Duration;

fn dfs(bound: usize) -> Builder {
    Builder {
        preemption_bound: Some(bound),
        ..Builder::new()
    }
}

/// Invariant 1: concurrent submitters racing the admission CAS never
/// push `in_flight` past the cap, and answer/rollback releases bring
/// it back to exactly zero (the ledger's double-free debug_assert
/// turns any over-release into a failure the checker would report).
#[test]
fn admission_slots_never_exceed_cap_and_never_leak() {
    let stats: Stats = dfs(2)
        .check_quiet(|| {
            let ledger = Arc::new(AdmissionLedger::new(2));
            let mut handles = Vec::new();
            // Three submitters race for two slots: at least one must
            // be refused somewhere, and every admit is released —
            // submitter 0 via a worker reply, 1 via the submitting
            // thread's own reply, 2 via the submit-rollback path.
            for who in 0..3usize {
                let ledger = ledger.clone();
                handles.push(loom::thread::spawn(move || {
                    if !ledger.try_admit() {
                        return false;
                    }
                    let depth = ledger.in_flight();
                    assert!(depth >= 1 && depth <= 2, "in_flight {depth} out of bounds");
                    match who {
                        0 => ledger.note_answered(),
                        1 => ledger.note_answered(),
                        _ => ledger.cancel_admit(),
                    }
                    true
                }));
            }
            let ledger2 = Arc::clone(&ledger);
            let admitted: usize = handles
                .into_iter()
                .map(|h| h.join().unwrap() as usize)
                .sum();
            assert!(admitted >= 2, "two slots exist; at most one refusal");
            assert_eq!(ledger2.in_flight(), 0, "slot leaked");
        })
        .expect("admission invariant must hold on every schedule");
    assert!(stats.exhausted, "bounded DFS must cover the whole tree");
    assert!(stats.iterations > 1);
}

/// Invariant 2a: a worker's insert computed at sequence point 0 races
/// the sequencer sequencing a mutation that dirties the same node.
/// Whichever side takes the cache lock first, a later read must never
/// see the pre-mutation prediction: insert-then-sequence evicts the
/// entry; sequence-then-insert drops it on the version guard.
#[test]
fn version_guard_never_serves_a_stale_prediction() {
    let stats = dfs(2)
        .check_quiet(|| {
            let cache = Arc::new(VersionedCache::new(8));
            let c = cache.clone();
            let worker = loom::thread::spawn(move || {
                // Prediction 7 for node 5, computed at seq 0.
                c.insert_batch(0, [(5u32, 7usize, 1usize)]);
            });
            let c = cache.clone();
            let sequencer = loom::thread::spawn(move || {
                // Mutation 1 dirties node 5 at distance 0.
                c.sequence_mutation(1, Invalidation::Frontier(vec![(5, 0)]));
            });
            worker.join().unwrap();
            sequencer.join().unwrap();
            assert_eq!(cache.seq(), 1);
            assert!(
                cache.lookup(&[5]).is_none(),
                "stale pre-mutation prediction served after its node was dirtied"
            );
        })
        .expect("version guard must hold on every schedule");
    assert!(stats.exhausted);
}

/// Invariant 2b: when the sequenced mutation does *not* touch the
/// node, both lock orders are legal — but a hit must pair the entry
/// with the advanced sequence point, never a half-state.
#[test]
fn untouched_entries_survive_a_sequence_advance_consistently() {
    dfs(2).check(|| {
        let cache = Arc::new(VersionedCache::new(8));
        let c = cache.clone();
        let worker = loom::thread::spawn(move || {
            c.insert_batch(0, [(5u32, 7usize, 1usize)]);
        });
        cache.sequence_mutation(1, Invalidation::Untouched);
        worker.join().unwrap();
        match cache.lookup(&[5]) {
            // Insert won the lock first: the entry survives the
            // advance and reports the current point.
            Some((seq, results)) => {
                assert_eq!(seq, 1);
                assert_eq!(results[0].prediction, 7);
            }
            // Advance won: the seq-0 insert was version-guarded away.
            None => {}
        }
        assert_eq!(cache.seq(), 1);
    });
}

/// Invariant 3: the stop latch fires its side effect (waking the
/// reactor) exactly once however many threads race `/shutdown`.
#[test]
fn stop_latch_latches_exactly_once() {
    dfs(2).check(|| {
        let stop = Arc::new(StopLatch::default());
        let s = stop.clone();
        let h = loom::thread::spawn(move || s.set());
        let mine = stop.set();
        let theirs = h.join().unwrap();
        assert!(
            mine ^ theirs,
            "exactly one stopper may observe the first transition"
        );
        assert!(stop.is_set());
    });
}

/// Invariant 4: the reactor's completion mailbox never strands a
/// reply without a wake. A worker push racing the reactor's drain
/// either lands before the drain (and is collected by it), or lands
/// after the drain emptied the mailbox — making the push the
/// empty→non-empty edge, which fires `notify`. If the edge detection
/// and the enqueue were not under one lock, a schedule would exist
/// where a reply sits in the mailbox with no wake recorded, and the
/// reactor (parked in `Poller::wait` with no timeout pressure) would
/// never answer that request.
#[test]
fn completion_queue_never_strands_a_reply_without_a_wake() {
    let stats = dfs(2)
        .check_quiet(|| {
            let wakes = Arc::new(AtomicU64::new(0));
            let w = wakes.clone();
            let queue = Arc::new(CompletionQueue::new(Box::new(move || {
                // Relaxed: the assertion reads after join(), which
                // orders the count; nothing else rides this counter.
                w.fetch_add(1, Ordering::Relaxed);
            })));
            let q = queue.clone();
            let worker = loom::thread::spawn(move || {
                q.push(
                    1,
                    Reply::Error {
                        message: "x".into(),
                    },
                );
            });
            // The reactor drains once mid-race (as if woken for some
            // other reason), then goes back to sleep.
            let early = queue.drain();
            worker.join().unwrap();
            if early.is_empty() {
                // The push lost the early drain: it must have fired
                // the wake, so the reactor's next turn collects it.
                assert!(
                    wakes.load(Ordering::Relaxed) >= 1,
                    "reply enqueued after the drain but no wake fired"
                );
            }
            let late = queue.drain();
            assert_eq!(
                early.len() + late.len(),
                1,
                "the reply must be delivered exactly once"
            );
        })
        .expect("completion mailbox must never lose a wakeup");
    assert!(stats.exhausted);
}

/// A four-node path graph with one feature and a depth-1 classifier:
/// the smallest real engine, built the same way on every call.
fn tiny_engine() -> StreamingEngine {
    let mut graph = DynamicGraph::new(1);
    for v in 0..4u32 {
        let neighbors: Vec<u32> = v.checked_sub(1).into_iter().collect();
        graph.add_node(&[v as f32 * 0.5], &neighbors);
    }
    let classifier = DepthClassifier::new(
        ModelKind::Sgc,
        1,
        1,
        2,
        &[2],
        0.0,
        &mut StdRng::seed_from_u64(7),
    );
    StreamingEngine::new(graph, vec![classifier], None, 0.5)
}

fn edge(u: u32, v: u32) -> Request {
    Request {
        op: Op::ObserveEdge { u, v },
        shard: None,
    }
}

fn read(node: u32) -> Request {
    Request {
        op: Op::Infer { nodes: vec![node] },
        shard: None,
    }
}

fn ingest(neighbor: u32) -> Request {
    Request {
        op: Op::Ingest {
            features: vec![0.5],
            neighbors: vec![neighbor],
        },
        shard: None,
    }
}

/// Invariant 5: one thread submits a group of two new edges, another an
/// ingest, while the main thread reads inline. The group holds the
/// store's write lock across both of its edges, so they take
/// consecutive sequence numbers, and the read — which holds the read
/// lock for its engine call — never reports the point between them. On
/// every schedule each ticket is answered once (a second answer would
/// trip the ledger's double-free check) and every admission slot comes
/// back.
#[test]
fn no_read_sees_a_half_applied_group() {
    let stats = dfs(2)
        .check_quiet(|| {
            let (service, mut inboxes) =
                NaiService::with_worker_inboxes(tiny_engine(), InferenceConfig::fixed(1), 1, 4);
            let service = Arc::new(service);
            let s = service.clone();
            let group = loom::thread::spawn(move || s.submit_all(vec![edge(0, 2), edge(0, 3)]));
            let s = service.clone();
            let arrival = loom::thread::spawn(move || s.submit(ingest(1)).expect("admitted"));
            let (read, inline) = service.submit_inline(read(0)).expect("admitted");
            assert!(inline, "a lone read runs on its submitting thread");
            let group = group.join().unwrap();
            let arrival = arrival.join().unwrap();
            // The arrival's read, if it went to the worker.
            inboxes[0].serve_queued();
            let seqs: Vec<u64> = group
                .into_iter()
                .map(|t| match t.wait(Duration::from_secs(1)) {
                    Ok(Reply::Edge {
                        applied_seq,
                        added: true,
                        ..
                    }) => applied_seq,
                    other => panic!("edge not applied: {other:?}"),
                })
                .collect();
            assert_eq!(seqs[1], seqs[0] + 1, "the group was split: {seqs:?}");
            match read.wait(Duration::from_secs(1)) {
                Ok(Reply::Infer { applied_seq, .. }) => {
                    assert_ne!(applied_seq, seqs[0], "the read saw the group half-applied")
                }
                other => panic!("read failed: {other:?}"),
            }
            let arrived = arrival.wait(Duration::from_secs(1));
            assert!(
                matches!(arrived, Ok(Reply::Ingest { node: 4, .. })),
                "{arrived:?}"
            );
            assert_eq!(service.queue_depth(), 0, "admission slot leaked");
        })
        .expect("a group must be applied whole on every schedule");
    assert!(stats.exhausted, "bounded DFS must cover the whole tree");
}

/// Invariant 6: a client waits for its ingest's reply — a read of the
/// new node that the worker answers — and then reads that node twice,
/// once inline and once through the worker, while another thread adds
/// an edge. On every schedule both reads find the node at a sequence
/// point no older than the ingest's, and every admission slot comes
/// back.
#[test]
fn a_read_after_an_ingest_reply_finds_the_node() {
    let stats = dfs(2)
        .check_quiet(|| {
            let (service, mut inboxes) =
                NaiService::with_worker_inboxes(tiny_engine(), InferenceConfig::fixed(1), 1, 4);
            let service = Arc::new(service);
            let mut inbox = inboxes.pop().unwrap();
            let worker = loom::thread::spawn(move || {
                let mut answered = 0;
                while answered < 2 {
                    answered += inbox.serve_next();
                }
            });
            let s = service.clone();
            let client = loom::thread::spawn(move || {
                let ingested = s.submit(ingest(0)).expect("admitted").wait_blocking();
                let Ok(Reply::Ingest {
                    node, applied_seq, ..
                }) = ingested
                else {
                    panic!("ingest failed: {ingested:?}");
                };
                let (inline, here) = s.submit_inline(read(node)).expect("admitted");
                assert!(here, "a lone read runs on its submitting thread");
                let queued = s.submit(read(node)).expect("admitted");
                for reply in [inline.wait_blocking(), queued.wait_blocking()] {
                    match reply {
                        Ok(Reply::Infer {
                            applied_seq: at,
                            results,
                            ..
                        }) => {
                            assert!(at >= applied_seq, "read at {at} before its write");
                            assert_eq!(results[0].node, node);
                        }
                        other => panic!("the read missed the ingest: {other:?}"),
                    }
                }
            });
            let added = service.submit(edge(0, 2)).expect("admitted");
            client.join().unwrap();
            worker.join().unwrap();
            let added = added.wait(Duration::from_secs(1));
            assert!(matches!(added, Ok(Reply::Edge { .. })), "{added:?}");
            assert_eq!(service.queue_depth(), 0, "admission slot leaked");
        })
        .expect("read-your-writes must hold on every schedule");
    assert!(stats.exhausted, "bounded DFS must cover the whole tree");
}

/// The pre-refactor `worker_macs` pattern: four per-stage counters
/// published with independent `Relaxed` stores. A scrape can land
/// between the stores (or see a subset of them stale) and report a
/// breakdown mixing two batches — the checker must find it, and the
/// recorded schedule must replay to the same failure. This pins the
/// satellite-1 tightening that became [`MacsCell`].
fn torn_macs_body() {
    let macs: Arc<[AtomicU64; 4]> = Arc::new(std::array::from_fn(|_| AtomicU64::new(0)));
    let m = macs.clone();
    let worker = loom::thread::spawn(move || {
        // One batch's totals: every stage advances together.
        for stage in m.iter() {
            stage.store(1, Ordering::Relaxed);
        }
    });
    let scrape: Vec<u64> = macs.iter().map(|s| s.load(Ordering::Relaxed)).collect();
    worker.join().unwrap();
    assert!(
        scrape.iter().all(|&v| v == scrape[0]),
        "torn macs scrape: {scrape:?}"
    );
}

#[test]
fn macs_relaxed_stores_tear_and_the_schedule_replays() {
    let failure = dfs(2)
        .check_quiet(torn_macs_body)
        .expect_err("the 4-store publish must tear under some schedule");
    assert!(failure.message.contains("torn macs scrape"), "{failure}");
    let replayed = Builder {
        replay: Some(failure.schedule.clone()),
        ..Builder::new()
    }
    .check_quiet(torn_macs_body)
    .expect_err("the pinned schedule must reproduce the tear");
    assert!(replayed.message.contains("torn macs scrape"));
    assert_eq!(replayed.iteration, 1, "replay is a single execution");
}

/// Same bug found by seeded random search (the `--seed` workflow in
/// ARCHITECTURE.md) and replayed from its recorded schedule.
#[test]
fn macs_tear_found_by_seeded_search_and_replays() {
    let failure = Builder {
        seed: Some(0x5EED_CA11),
        preemption_bound: None,
        ..Builder::new()
    }
    .check_quiet(torn_macs_body)
    .expect_err("seeded search must find the tear");
    let replayed = Builder {
        replay: Some(failure.schedule.clone()),
        ..Builder::new()
    }
    .check_quiet(torn_macs_body)
    .expect_err("the seeded schedule must replay");
    assert!(replayed.message.contains("torn macs scrape"));
}

/// The fix: [`MacsCell`] publishes all four stages under one lock, so
/// a scrape sees the pre-batch or post-batch breakdown — never a mix.
/// Exhaustive at the same bound that broke the old pattern.
#[test]
fn macs_cell_snapshot_never_tears() {
    let stats = dfs(2)
        .check_quiet(|| {
            let cell = Arc::new(MacsCell::new());
            let c = cell.clone();
            let worker = loom::thread::spawn(move || {
                c.publish(&MacsBreakdown {
                    propagation: 1,
                    nap: 1,
                    classification: 1,
                    replication: 1,
                    ..MacsBreakdown::default()
                });
            });
            let b = cell.snapshot();
            worker.join().unwrap();
            assert!(
                b == MacsBreakdown::default()
                    || b == MacsBreakdown {
                        propagation: 1,
                        nap: 1,
                        classification: 1,
                        replication: 1,
                        ..MacsBreakdown::default()
                    },
                "torn snapshot: {b:?}"
            );
        })
        .expect("the mutex publish must never tear");
    assert!(stats.exhausted);
}
