//! Admission-slot accounting for the serve core.
//!
//! [`AdmissionLedger`] owns the three pieces of state whose interplay
//! makes overload control correct: the `in_flight` slot counter
//! bounded by `queue_cap`, the per-party `answered` reply counters
//! that make a panicked worker's slot repair exact, and the per-worker
//! `dead` flags that hand a dying worker off to the sequencer. The
//! invariants — checked exhaustively by `tests/model.rs` under
//! `--cfg nai_model` — are:
//!
//! * `in_flight` never exceeds `queue_cap` and never underflows: every
//!   admitted request releases its slot exactly once, whichever party
//!   (worker, sequencer, panic repair, submit rollback) does it.
//! * After a worker panic, `repair_panicked` releases exactly the
//!   slots of the jobs the worker owned but never answered — even
//!   while other workers concurrently answer their own slices of the
//!   same broadcast batch.

use crate::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};

/// Bounded in-flight accounting: slots are acquired by [`try_admit`]
/// and released exactly once each by [`note_answered`] (the normal
/// path), [`cancel_admit`] (submit enqueue failure), or
/// [`repair_panicked`] (bulk release for a dead worker's unanswered
/// jobs).
///
/// [`try_admit`]: Self::try_admit
/// [`note_answered`]: Self::note_answered
/// [`cancel_admit`]: Self::cancel_admit
/// [`repair_panicked`]: Self::repair_panicked
pub struct AdmissionLedger {
    in_flight: AtomicUsize,
    cap: usize,
    /// Replies sent, indexed by answering party (`0..workers` = that
    /// worker, `workers` = the sequencer). Broadcast batches contain
    /// jobs a worker does *not* answer, so panic repair must count
    /// exactly the repairer's own replies — a global counter would mix
    /// in concurrent replies from other workers and under-repair.
    answered: Vec<AtomicU64>,
    /// Raised by a worker's panic path *before* it starts draining its
    /// channel; the sequencer reaps the flag at its next dispatch.
    dead: Vec<AtomicBool>,
}

impl AdmissionLedger {
    /// A ledger admitting at most `cap` in-flight requests, with reply
    /// slots for `workers` workers plus the sequencer.
    pub fn new(cap: usize, workers: usize) -> Self {
        Self {
            in_flight: AtomicUsize::new(0),
            cap,
            // One slot per worker plus the sequencer's.
            answered: (0..=workers).map(|_| AtomicU64::new(0)).collect(),
            dead: (0..workers).map(|_| AtomicBool::new(false)).collect(),
        }
    }

    /// The admission bound (`ServeConfig::queue_cap`).
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// The sequencer's slot index in the `answered` ledger. Its replies
    /// are sent by submitting threads while they hold the sequencer
    /// lock.
    pub fn sequencer_slot(&self) -> usize {
        self.answered.len() - 1
    }

    /// Reserves an in-flight slot, or refuses at the bound. The CAS
    /// loop (not a blind `fetch_add`) is what keeps `in_flight ≤ cap`
    /// an invariant rather than an eventual correction.
    pub fn try_admit(&self) -> bool {
        self.in_flight
            // AcqRel success / Acquire failure: admission is the sync
            // point the shed policy and queue-depth probes hang off.
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |c| {
                (c < self.cap).then_some(c + 1)
            })
            .is_ok()
    }

    /// Requests currently queued or being served.
    pub fn in_flight(&self) -> usize {
        // Acquire: pairs with the AcqRel admit/release updates, so a
        // probe never reads a count older than a completed release.
        self.in_flight.load(Ordering::Acquire)
    }

    /// Releases `n` slots, refusing to underflow: a failed decrement
    /// means some slot was released twice, so the count is left
    /// untouched (capacity conservatively lost, never corrupted) and
    /// debug/model builds fail loudly.
    fn release(&self, n: usize) {
        if n == 0 {
            return;
        }
        let under = self
            .in_flight
            // AcqRel success / Acquire failure: a release must be
            // visible to the next try_admit that reuses the slot.
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |c| c.checked_sub(n))
            .is_err();
        debug_assert!(!under, "admission slot double-free: release({n})");
    }

    /// Gives back the caller's just-admitted slot when the job never
    /// made it into the queue (shutdown race, full-channel backstop).
    pub fn cancel_admit(&self) {
        self.release(1);
    }

    /// Records one reply sent by party `who` and frees its slot.
    pub fn note_answered(&self, who: usize) {
        // Relaxed: each slot has a single writer (party `who` itself);
        // the only cross-read is that party's own panic repair, on the
        // same thread. The slot release below carries the ordering.
        self.answered[who].fetch_add(1, Ordering::Relaxed);
        self.release(1);
    }

    /// Party `who`'s reply count — sampled by a worker before running
    /// a batch so its panic path can subtract.
    pub fn answered_by(&self, who: usize) -> u64 {
        // Relaxed: only ever read meaningfully by the slot's own
        // writer thread (see `note_answered`).
        self.answered[who].load(Ordering::Relaxed)
    }

    /// Panic repair for worker `who`: releases the slots of the
    /// `owned` jobs it never answered (its reply count rose from
    /// `answered_before` by the ones it did) and raises its dead flag.
    /// Returns the number of slots released. The caller must sample
    /// `answered_before` via [`Self::answered_by`] *before* running
    /// the batch, on the worker's own thread.
    pub fn repair_panicked(&self, who: usize, owned: u64, answered_before: u64) -> u64 {
        let answered = self.answered_by(who) - answered_before;
        let leaked = owned.saturating_sub(answered);
        self.release(leaked as usize);
        self.mark_dead(who);
        leaked
    }

    /// Marks worker `w` dead. Release: pairs with the sequencer's
    /// Acquire in [`Self::is_dead`] so reaping observes everything the
    /// worker did before dying.
    pub fn mark_dead(&self, w: usize) {
        // Release: pairs with is_dead's Acquire (see doc comment).
        self.dead[w].store(true, Ordering::Release);
    }

    /// Whether worker `w` has raised its dead flag.
    pub fn is_dead(&self, w: usize) -> bool {
        // Acquire: reaping observes everything the worker did first.
        self.dead[w].load(Ordering::Acquire)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn admits_up_to_cap_then_refuses() {
        let l = AdmissionLedger::new(2, 1);
        assert!(l.try_admit());
        assert!(l.try_admit());
        assert!(!l.try_admit(), "third admit must refuse at cap 2");
        assert_eq!(l.in_flight(), 2);
        l.note_answered(0);
        assert!(l.try_admit(), "an answer frees a slot");
    }

    #[test]
    fn repair_releases_only_unanswered_owned_jobs() {
        let l = AdmissionLedger::new(8, 2);
        for _ in 0..5 {
            assert!(l.try_admit());
        }
        let before = l.answered_by(0);
        // Worker 0 owned 3 jobs, answered 1 of them before panicking;
        // worker 1 answered 2 of its own concurrently.
        l.note_answered(0);
        l.note_answered(1);
        l.note_answered(1);
        assert_eq!(l.repair_panicked(0, 3, before), 2);
        assert_eq!(l.in_flight(), 0);
        assert!(l.is_dead(0));
        assert!(!l.is_dead(1));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "double-free")]
    fn double_release_is_caught() {
        let l = AdmissionLedger::new(4, 1);
        assert!(l.try_admit());
        l.note_answered(0);
        l.note_answered(0); // same slot released twice
    }
}
