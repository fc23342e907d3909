//! Admission-slot accounting for the serve core.
//!
//! [`AdmissionLedger`] owns the `in_flight` slot counter bounded by
//! `queue_cap`. Its invariant — checked exhaustively by
//! `tests/model.rs` under `--cfg nai_model` — is:
//!
//! * `in_flight` never exceeds `queue_cap` and never underflows: every
//!   admitted request releases its slot exactly once, whichever party
//!   (a worker, the submitting thread, the submit rollback) does it.
//!   An engine panic is no exception: the read that panicked is
//!   answered with a typed error, which releases its slot like any
//!   other reply.

use crate::sync::atomic::{AtomicUsize, Ordering};

/// Bounded in-flight accounting: slots are acquired by [`try_admit`]
/// and released exactly once each by [`note_answered`] (the normal
/// path) or [`cancel_admit`] (submit enqueue failure).
///
/// [`try_admit`]: Self::try_admit
/// [`note_answered`]: Self::note_answered
/// [`cancel_admit`]: Self::cancel_admit
pub struct AdmissionLedger {
    in_flight: AtomicUsize,
    cap: usize,
}

impl AdmissionLedger {
    /// A ledger admitting at most `cap` in-flight requests.
    pub fn new(cap: usize) -> Self {
        Self {
            in_flight: AtomicUsize::new(0),
            cap,
        }
    }

    /// The admission bound (`ServeConfig::queue_cap`).
    pub fn capacity(&self) -> usize {
        self.cap
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

    /// Records one reply sent and frees its slot.
    pub fn note_answered(&self) {
        self.release(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn admits_up_to_cap_then_refuses() {
        let l = AdmissionLedger::new(2);
        assert!(l.try_admit());
        assert!(l.try_admit());
        assert!(!l.try_admit(), "third admit must refuse at cap 2");
        assert_eq!(l.in_flight(), 2);
        l.note_answered();
        assert!(l.try_admit(), "an answer frees a slot");
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "double-free")]
    fn double_release_is_caught() {
        let l = AdmissionLedger::new(4);
        assert!(l.try_admit());
        l.note_answered();
        l.note_answered(); // same slot released twice
    }
}
