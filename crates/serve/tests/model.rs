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
//! 2. **Panic repair** — a dying worker frees exactly the slots of
//!    its unanswered owned jobs, even while other workers answer
//!    their own slices of the same broadcast batch concurrently.
//! 3. **Cache versioning** — a worker insert racing a sequenced
//!    mutation never produces a hit that mixes the old prediction
//!    with the new sequence point.
//! 4. **Shutdown gate** — stop / begin / end / drain interleavings
//!    terminate under every schedule (a lost wakeup would surface as
//!    a detected deadlock) and never lose a counted connection.
//! 5. **Completion mailbox** — a reply pushed while the reactor drains
//!    is never stranded without a wake.
//! 6. **Sequencing** — threads submitting mutations at the same time
//!    leave every worker channel in strictly increasing, gap-free
//!    sequence order, and every admission slot is answered once.
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
use nai_serve::{
    AdmissionLedger, CompletionQueue, ConnGate, Invalidation, MacsCell, NaiService, Op, Reply,
    Request, VersionedCache,
};
use nai_stream::MacsBreakdown;
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
            let ledger = Arc::new(AdmissionLedger::new(2, 1));
            let mut handles = Vec::new();
            // Three submitters race for two slots: at least one must
            // be refused somewhere, and every admit is released —
            // submitter 0 via a worker reply, 1 via the sequencer
            // slot, 2 via the submit-rollback path.
            for who in 0..3usize {
                let ledger = ledger.clone();
                handles.push(loom::thread::spawn(move || {
                    if !ledger.try_admit() {
                        return false;
                    }
                    let depth = ledger.in_flight();
                    assert!(depth >= 1 && depth <= 2, "in_flight {depth} out of bounds");
                    match who {
                        0 => ledger.note_answered(0),
                        1 => ledger.note_answered(ledger.sequencer_slot()),
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

/// Invariant 2: worker 0 answers one of its two owned jobs and then
/// panics, while worker 1 concurrently answers its own job from the
/// same broadcast batch. The repair must free exactly one slot (the
/// unanswered one) wherever the panic lands relative to worker 1's
/// replies — a global reply counter instead of per-worker slots would
/// under-repair here.
#[test]
fn panic_repair_frees_exactly_the_unanswered_slots() {
    let stats = dfs(2)
        .check_quiet(|| {
            let ledger = Arc::new(AdmissionLedger::new(4, 2));
            for _ in 0..3 {
                assert!(ledger.try_admit());
            }
            let l0 = ledger.clone();
            let dying = loom::thread::spawn(move || {
                let before = l0.answered_by(0);
                l0.note_answered(0); // first owned job answered...
                                     // ...then the engine panics mid-batch: 2 owned, 1 answered.
                let leaked = l0.repair_panicked(0, 2, before);
                assert_eq!(leaked, 1, "repair must free exactly the unanswered job");
            });
            let l1 = ledger.clone();
            let healthy = loom::thread::spawn(move || {
                l1.note_answered(1);
            });
            dying.join().unwrap();
            healthy.join().unwrap();
            assert_eq!(ledger.in_flight(), 0, "slot leaked or double-freed");
            assert!(ledger.is_dead(0));
            assert!(!ledger.is_dead(1));
        })
        .expect("panic repair must be exact on every schedule");
    assert!(stats.exhausted);
}

/// Invariant 3a: a worker's insert computed at sequence point 0 races
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

/// Invariant 3b: when the sequenced mutation does *not* touch the
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

/// Invariant 4: stop / begin / end / drain interleavings terminate on
/// every schedule (loom reports a deadlock if the drain can miss its
/// wakeup) and the gate never loses a counted connection — once every
/// conn ended, the gate must report drained.
#[test]
fn conn_gate_drain_terminates_and_counts_every_conn() {
    let stats = dfs(2)
        .check_quiet(|| {
            let gate = Arc::new(ConnGate::new());
            // Accept loop counts the connection in before its thread
            // exists (as http.rs does), then the conn thread counts out.
            gate.begin_conn();
            let g = gate.clone();
            let conn = loom::thread::spawn(move || {
                g.end_conn();
            });
            let g = gate.clone();
            let stopper = loom::thread::spawn(move || {
                g.request_stop();
            });
            // May time out before the conn ends (grace expired — the
            // model explores the timeout branch) but must never hang.
            let drained = gate.await_drained(Duration::from_secs(2));
            conn.join().unwrap();
            stopper.join().unwrap();
            assert!(gate.stopping());
            // Every conn has ended: the gate must agree immediately.
            assert!(
                gate.await_drained(Duration::from_millis(1)),
                "connection lost by the gate"
            );
            if drained {
                // A positive drain answer is a real guarantee, not a
                // race artifact: nothing was active when it returned.
                assert!(gate.await_drained(Duration::from_millis(1)));
            }
        })
        .expect("shutdown gate must terminate on every schedule");
    assert!(stats.exhausted);
}

/// The stop latch fires its side effect (unblocking the accept loop)
/// exactly once however many threads race `/shutdown`.
#[test]
fn conn_gate_stop_latches_exactly_once() {
    dfs(2).check(|| {
        let gate = Arc::new(ConnGate::new());
        let g = gate.clone();
        let h = loom::thread::spawn(move || g.request_stop());
        let mine = gate.request_stop();
        let theirs = h.join().unwrap();
        assert!(
            mine ^ theirs,
            "exactly one stopper may observe the first transition"
        );
    });
}

/// Invariant 5: the reactor's completion mailbox never strands a
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

/// Invariant 6: two threads submit a mutation each at the same time —
/// an edge with no shard hint and an ingest pinned to worker 1 — while
/// worker 0 answers concurrently. Sequence numbers are taken and the
/// batches sent under one lock, so on every schedule both worker
/// channels receive the mutations as 1 then 2, with nothing missing or
/// reordered (a replica applying them out of order would diverge).
/// Each mutation is answered by exactly one worker: every ticket gets
/// its one reply and every admission slot comes back (a second answer
/// would trip the ledger's double-free check).
#[test]
fn concurrent_submitters_keep_every_worker_channel_in_sequence_order() {
    let stats = dfs(2)
        .check_quiet(|| {
            let (service, mut inboxes) = NaiService::without_workers(2, 4, 4);
            let service = Arc::new(service);
            let worker1 = inboxes.pop().unwrap();
            let worker0 = inboxes.pop().unwrap();
            let requests = [
                Request {
                    op: Op::ObserveEdge { u: 0, v: 1 },
                    shard: None,
                },
                Request {
                    op: Op::Ingest {
                        features: vec![0.5],
                        neighbors: vec![2],
                    },
                    shard: Some(1),
                },
            ];
            let submitters: Vec<_> = requests
                .into_iter()
                .map(|req| {
                    let service = service.clone();
                    loom::thread::spawn(move || service.submit(req).expect("admitted"))
                })
                .collect();
            let answering = loom::thread::spawn(move || {
                let mut seqs = worker0.answer_next();
                seqs.extend(worker0.answer_next());
                seqs
            });
            let tickets: Vec<_> = submitters.into_iter().map(|h| h.join().unwrap()).collect();
            let mut seqs1 = worker1.answer_next();
            seqs1.extend(worker1.answer_next());
            assert_eq!(
                answering.join().unwrap(),
                vec![1, 2],
                "worker 0 out of order"
            );
            assert_eq!(seqs1, vec![1, 2], "worker 1 out of order");
            for t in tickets {
                let reply = t.wait(Duration::from_secs(1));
                assert!(matches!(reply, Ok(Reply::Edge { .. })), "{reply:?}");
            }
            assert_eq!(service.queue_depth(), 0, "admission slot leaked");
        })
        .expect("sequencing must keep channels ordered on every schedule");
    assert!(stats.exhausted);
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
                    },
                "torn snapshot: {b:?}"
            );
        })
        .expect("the mutex publish must never tear");
    assert!(stats.exhausted);
}
