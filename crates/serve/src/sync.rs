//! Sync facade: the only module in `nai-serve` allowed to name
//! `std::sync` or `std::thread`.
//!
//! Every other file in this crate imports its concurrency primitives
//! from here (`crate::sync::…`), never from `std` directly — the
//! `sync-facade` rule of `nai lint` (crates/lint) enforces this at the
//! token level. Normal builds re-export the
//! `std` types unchanged, so the facade costs nothing. Under
//! `--cfg nai_model` (ci.sh `model_check`) the same names resolve to
//! the workspace's `loom` model checker, whose scheduler exhaustively
//! explores thread interleavings and whose atomics expose the weak
//! memory model (a `Relaxed` load may legally return a stale value).
//! That single switch is what lets `tests/model.rs` prove the serve
//! core's admission, store, cache-versioning, and shutdown
//! invariants over *every* schedule within the preemption bound
//! instead of the one schedule a normal test run happens to see.
//!
//! The facade deliberately re-exports whole modules (`atomic`, `mpsc`,
//! `thread`) rather than individual items so call sites read
//! identically to idiomatic std code.

#[cfg(not(nai_model))]
pub use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError, RwLock};

#[cfg(nai_model)]
pub use loom::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError, RwLock};

/// Atomic integers/bools plus `Ordering`.
pub mod atomic {
    #[cfg(not(nai_model))]
    pub use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};

    #[cfg(nai_model)]
    pub use loom::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
}

/// Multi-producer channels (`channel`, `sync_channel` and their
/// handles/error types).
pub mod mpsc {
    #[cfg(not(nai_model))]
    pub use std::sync::mpsc::{
        channel, sync_channel, Receiver, RecvError, RecvTimeoutError, SendError, Sender,
        SyncSender, TryRecvError, TrySendError,
    };

    #[cfg(nai_model)]
    pub use loom::sync::mpsc::{
        channel, sync_channel, Receiver, RecvError, RecvTimeoutError, SendError, Sender,
        SyncSender, TryRecvError, TrySendError,
    };
}

/// Thread spawning/joining (`Builder`, `JoinHandle`, `sleep`, …).
pub mod thread {
    #[cfg(not(nai_model))]
    pub use std::thread::{sleep, spawn, Builder, JoinHandle};

    #[cfg(nai_model)]
    pub use loom::thread::{sleep, spawn, Builder, JoinHandle};

    /// Whether the current thread is unwinding. Always answered by
    /// `std` — loom runs test bodies on real OS threads, so the std
    /// panic flag is the truth in both builds.
    pub fn panicking() -> bool {
        std::thread::panicking()
    }
}

/// Monotonic time. `Instant` goes through the facade because wall-clock
/// reads are scheduling-dependent state: model-checked builds must not
/// branch on real elapsed time or the explored schedules diverge from
/// the executed ones. Loom has no clock, so both builds use `std` —
/// the model tests simply never construct one — but routing the name
/// through here keeps the "no `std::time::Instant` outside sync.rs"
/// lint simple and total.
pub mod time {
    pub use std::time::Instant;
}

/// Readiness polling. The reactor's event loop blocks in
/// [`poll::Poller::wait`], which is a scheduling decision exactly like
/// a `Condvar` wait — so the vendored `polling` crate routes through
/// the facade and the `sync-facade` lint forbids naming `polling::…`
/// anywhere else in the crate. Like [`time::Instant`], both builds use
/// the real implementation: loom has no readiness model, and the model
/// tests exercise the reactor's shared state (stop latch, completion queue)
/// directly without ever constructing a poller.
pub mod poll {
    pub use polling::{Event, Interest, Poller};
}

/// Lock, recovering from poison: a mutex poisoned by a panicking
/// thread still yields its data. Observability and teardown paths
/// (`/metrics` scrapes, `into_engine`) use this so one panic
/// cannot take monitoring down with it; the data they read is a
/// monotone accumulator, safe to expose even if the poisoning panic
/// interrupted an update.
pub fn lock_recover<T: ?Sized>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}
