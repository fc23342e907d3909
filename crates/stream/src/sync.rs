//! Sync facade: the one place in `nai-stream` that names `std::sync`.
//!
//! Normal builds re-export `std::sync`; under `--cfg nai_model` the types
//! come from the workspace's `loom` model checker instead, so concurrency
//! tests can exhaustively explore interleavings of code that uses these
//! primitives. Code in this crate must import sync primitives from here,
//! never from `std::sync` directly (the serve crate enforces the same rule
//! with a CI grep lint).

#[cfg(not(nai_model))]
pub use std::sync::Arc;

#[cfg(nai_model)]
pub use loom::sync::Arc;

/// A write-once cell. The model checker has no counterpart, and needs
/// none: a cell is filled by a pure function of immutable data, so
/// every interleaving of racing fills stores the same value.
pub use std::sync::OnceLock;

/// Monotonic time, routed through the facade so the whole crate stays
/// free of direct `std::time::Instant` references (model-checked builds
/// must not branch on real elapsed time).
pub mod time {
    pub use std::time::Instant;
}
