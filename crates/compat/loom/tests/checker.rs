//! Self-tests for the model checker: the memory model must both *find* real
//! interleaving bugs (staleness, lost publication, torn check-then-act,
//! deadlock) and *pass* correct protocols exhaustively, and every failure it
//! reports must replay deterministically from its recorded schedule.

use loom::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use loom::sync::{mpsc, Arc, Condvar, Mutex, RwLock};
use loom::{Builder, Failure, Stats};
use std::collections::HashSet;
use std::sync::Mutex as StdMutex;

fn dfs(bound: usize) -> Builder {
    Builder {
        preemption_bound: Some(bound),
        ..Builder::new()
    }
}

#[test]
fn mutex_counter_is_exact() {
    let stats: Stats = dfs(2)
        .check_quiet(|| {
            let n = Arc::new(Mutex::new(0usize));
            let mut handles = Vec::new();
            for _ in 0..2 {
                let n = n.clone();
                handles.push(loom::thread::spawn(move || {
                    *n.lock().unwrap() += 1;
                }));
            }
            for h in handles {
                h.join().unwrap();
            }
            assert_eq!(*n.lock().unwrap(), 2);
        })
        .expect("mutex counter must hold under every schedule");
    assert!(stats.exhausted, "bounded DFS should finish the tree");
    assert!(stats.iterations > 1, "more than one schedule must exist");
}

#[test]
fn rmw_is_atomic_even_relaxed() {
    dfs(2).check(|| {
        let n = Arc::new(AtomicUsize::new(0));
        let n2 = n.clone();
        let h = loom::thread::spawn(move || {
            n2.fetch_add(1, Ordering::Relaxed);
        });
        n.fetch_add(1, Ordering::Relaxed);
        h.join().unwrap();
        assert_eq!(n.load(Ordering::Relaxed), 2);
    });
}

/// A non-atomic read-modify-write (load; add; store) over Relaxed atomics
/// loses updates under some interleaving — the checker must find it, and the
/// recorded schedule must replay to the same failure.
#[test]
fn torn_increment_found_and_replays() {
    let body = || {
        let n = Arc::new(AtomicUsize::new(0));
        let n2 = n.clone();
        let h = loom::thread::spawn(move || {
            let v = n2.load(Ordering::Relaxed);
            n2.store(v + 1, Ordering::Relaxed);
        });
        let v = n.load(Ordering::Relaxed);
        n.store(v + 1, Ordering::Relaxed);
        h.join().unwrap();
        assert_eq!(n.load(Ordering::Relaxed), 2, "lost update");
    };
    let failure: Failure = dfs(2)
        .check_quiet(body)
        .expect_err("DFS must find the lost update");
    assert!(failure.message.contains("lost update"), "{failure}");

    let replayed = Builder {
        replay: Some(failure.schedule.clone()),
        ..Builder::new()
    }
    .check_quiet(body)
    .expect_err("replaying the failing schedule must fail again");
    assert!(replayed.message.contains("lost update"));
    assert_eq!(replayed.iteration, 1, "replay is a single execution");
}

/// Seeded random exploration also finds the bug, without DFS, and its
/// schedule replays identically — the `--seed` workflow documented in
/// ARCHITECTURE.md.
#[test]
fn seeded_exploration_finds_and_replays() {
    let body = || {
        let n = Arc::new(AtomicUsize::new(0));
        let n2 = n.clone();
        let h = loom::thread::spawn(move || {
            let v = n2.load(Ordering::Relaxed);
            n2.store(v + 1, Ordering::Relaxed);
        });
        let v = n.load(Ordering::Relaxed);
        n.store(v + 1, Ordering::Relaxed);
        h.join().unwrap();
        assert_eq!(n.load(Ordering::Relaxed), 2, "lost update");
    };
    let failure = Builder {
        seed: Some(0xA11CE),
        preemption_bound: None,
        ..Builder::new()
    }
    .check_quiet(body)
    .expect_err("seeded mode must find the lost update");
    let replayed = Builder {
        replay: Some(failure.schedule.clone()),
        ..Builder::new()
    }
    .check_quiet(body)
    .expect_err("seeded schedule must replay");
    assert!(replayed.message.contains("lost update"));
}

/// Release/acquire publication: if the reader acquires the flag, the data
/// write must be visible. Must hold under every schedule.
#[test]
fn release_acquire_publishes() {
    dfs(2).check(|| {
        let data = Arc::new(AtomicUsize::new(0));
        let flag = Arc::new(AtomicBool::new(false));
        let (d, f) = (data.clone(), flag.clone());
        let h = loom::thread::spawn(move || {
            d.store(42, Ordering::Relaxed);
            f.store(true, Ordering::Release);
        });
        if flag.load(Ordering::Acquire) {
            assert_eq!(data.load(Ordering::Relaxed), 42);
        }
        h.join().unwrap();
    });
}

/// Same shape with a Relaxed flag: the acquire edge is gone, so the checker
/// must exhibit an execution where the flag is up but the data write is not
/// yet visible — i.e. Relaxed loads really do return stale values.
#[test]
fn relaxed_flag_loses_publication() {
    let failure = dfs(2)
        .check_quiet(|| {
            let data = Arc::new(AtomicUsize::new(0));
            let flag = Arc::new(AtomicBool::new(false));
            let (d, f) = (data.clone(), flag.clone());
            let h = loom::thread::spawn(move || {
                d.store(42, Ordering::Relaxed);
                f.store(true, Ordering::Relaxed);
            });
            if flag.load(Ordering::Relaxed) {
                assert_eq!(data.load(Ordering::Relaxed), 42, "stale data");
            }
            h.join().unwrap();
        })
        .expect_err("relaxed publication must be observably broken");
    assert!(failure.message.contains("stale data"), "{failure}");
}

/// Relaxed loads are allowed to be stale but never invented: across the
/// whole exploration a reader sees both the old and the new value, and
/// nothing else.
#[test]
fn relaxed_staleness_is_explored_both_ways() {
    let seen = std::sync::Arc::new(StdMutex::new(HashSet::new()));
    let seen2 = seen.clone();
    dfs(2).check(move || {
        let x = Arc::new(AtomicUsize::new(0));
        let x2 = x.clone();
        let h = loom::thread::spawn(move || {
            x2.store(7, Ordering::Relaxed);
        });
        let v = x.load(Ordering::Relaxed);
        h.join().unwrap();
        seen2.lock().unwrap().insert(v);
    });
    let seen = seen.lock().unwrap();
    assert_eq!(
        *seen,
        HashSet::from([0, 7]),
        "exploration must cover both the stale and the fresh read"
    );
}

/// Classic AB-BA lock ordering: the checker must report a deadlock with the
/// blocked thread ids rather than hanging.
#[test]
fn ab_ba_deadlock_detected() {
    let failure = dfs(2)
        .check_quiet(|| {
            let a = Arc::new(Mutex::new(()));
            let b = Arc::new(Mutex::new(()));
            let (a2, b2) = (a.clone(), b.clone());
            let h = loom::thread::spawn(move || {
                let _ga = a2.lock().unwrap();
                let _gb = b2.lock().unwrap();
            });
            let _gb = b.lock().unwrap();
            let _ga = a.lock().unwrap();
            drop((_gb, _ga));
            h.join().unwrap();
        })
        .expect_err("AB-BA ordering must deadlock under some schedule");
    assert!(failure.message.contains("deadlock"), "{failure}");
}

#[test]
fn channel_is_fifo_and_reports_disconnect() {
    dfs(2).check(|| {
        let (tx, rx) = mpsc::channel();
        let h = loom::thread::spawn(move || {
            tx.send(1).unwrap();
            tx.send(2).unwrap();
        });
        assert_eq!(rx.recv().unwrap(), 1);
        assert_eq!(rx.recv().unwrap(), 2);
        h.join().unwrap();
        assert!(rx.recv().is_err(), "all senders gone => disconnect");
    });
}

#[test]
fn sync_channel_blocks_at_capacity() {
    dfs(2).check(|| {
        let (tx, rx) = mpsc::sync_channel(1);
        let h = loom::thread::spawn(move || {
            tx.send(1).unwrap();
            // Second send must wait for the receiver to drain slot one.
            tx.send(2).unwrap();
        });
        assert_eq!(rx.recv().unwrap(), 1);
        assert_eq!(rx.recv().unwrap(), 2);
        h.join().unwrap();
    });
}

/// Condvar handoff with the state checked under the mutex: no lost wakeup,
/// terminates under every schedule (a lost wakeup would surface as a
/// detected deadlock).
#[test]
fn condvar_handoff_terminates() {
    dfs(2).check(|| {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let pair2 = pair.clone();
        let h = loom::thread::spawn(move || {
            let (m, cv) = &*pair2;
            *m.lock().unwrap() = true;
            cv.notify_one();
        });
        let (m, cv) = &*pair;
        let mut ready = m.lock().unwrap();
        while !*ready {
            ready = cv.wait(ready).unwrap();
        }
        drop(ready);
        h.join().unwrap();
    });
}

/// A panic while holding the lock poisons it; `PoisonError::into_inner`
/// still reaches the data. (The panic is caught inside the owning thread,
/// as the serve worker loop does.)
#[test]
fn mutex_poisoning_is_modeled() {
    dfs(2).check(|| {
        let m = Arc::new(Mutex::new(5usize));
        let m2 = m.clone();
        let h = loom::thread::spawn(move || {
            let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let _g = m2.lock().unwrap();
                panic!("die holding the lock");
            }));
        });
        h.join().unwrap();
        assert!(m.is_poisoned());
        let v = m.lock().unwrap_or_else(|p| p.into_inner());
        assert_eq!(*v, 5, "poison must not lose the data");
    });
}

/// Readers share the lock: one reader holds it while waiting for a
/// second reader's message. Were readers exclusive, the schedule where
/// the waiting reader locks first would deadlock.
#[test]
fn rwlock_readers_share() {
    let stats = dfs(2)
        .check_quiet(|| {
            let lock = Arc::new(RwLock::new(5usize));
            let (tx, rx) = mpsc::channel();
            let l2 = lock.clone();
            let h = loom::thread::spawn(move || {
                let g = l2.read().unwrap();
                rx.recv().unwrap();
                *g
            });
            let g = lock.read().unwrap();
            tx.send(*g).unwrap();
            drop(g);
            assert_eq!(h.join().unwrap(), 5);
        })
        .expect("two readers must hold the lock at once");
    assert!(stats.exhausted);
}

/// A writer excludes everyone: two writers update a pair in two steps
/// with a scheduling point between them, and a reader never sees the
/// pair half-updated, nor does either writer lose the other's update.
#[test]
fn rwlock_writer_excludes_readers_and_writers() {
    let stats = dfs(2)
        .check_quiet(|| {
            let lock = Arc::new(RwLock::new((0usize, 0usize)));
            let step = Arc::new(AtomicUsize::new(0));
            let writers: Vec<_> = (0..2)
                .map(|_| {
                    let (lock, step) = (lock.clone(), step.clone());
                    loom::thread::spawn(move || {
                        let mut g = lock.write().unwrap();
                        g.0 += 1;
                        step.fetch_add(1, Ordering::Relaxed);
                        g.1 += 1;
                    })
                })
                .collect();
            let g = lock.read().unwrap();
            assert_eq!(g.0, g.1, "a reader saw a half-done write");
            drop(g);
            for h in writers {
                h.join().unwrap();
            }
            assert_eq!(*lock.read().unwrap(), (2, 2), "a write was lost");
        })
        .expect("a writer must exclude readers and writers");
    assert!(stats.exhausted);
}

/// Write unlock → next read lock is a happens-before edge: a reader that
/// sees the writer's flag sees the Relaxed store made before it.
#[test]
fn rwlock_write_unlock_publishes_to_the_next_reader() {
    dfs(2).check(|| {
        let data = Arc::new(AtomicUsize::new(0));
        let lock = Arc::new(RwLock::new(false));
        let (d, l) = (data.clone(), lock.clone());
        let h = loom::thread::spawn(move || {
            d.store(42, Ordering::Relaxed);
            *l.write().unwrap() = true;
        });
        if *lock.read().unwrap() {
            assert_eq!(data.load(Ordering::Relaxed), 42, "stale data");
        }
        h.join().unwrap();
    });
}

/// A writer that panics poisons the lock; a reader that panics does not.
/// Poison keeps the data reachable through `into_inner`.
#[test]
fn rwlock_poisoning_is_modeled() {
    dfs(2).check(|| {
        let lock = Arc::new(RwLock::new(5usize));
        let l2 = lock.clone();
        let h = loom::thread::spawn(move || {
            let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let _g = l2.read().unwrap();
                panic!("die holding a read lock");
            }));
            assert!(!l2.is_poisoned(), "a panicking reader must not poison");
            let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let _g = l2.write().unwrap();
                panic!("die holding the write lock");
            }));
        });
        h.join().unwrap();
        assert!(lock.is_poisoned());
        assert!(lock.read().is_err());
        let lock = Arc::try_unwrap(lock).expect("sole owner");
        let v = lock.into_inner().unwrap_err().into_inner();
        assert_eq!(v, 5, "poison must not lose the data");
    });
}
