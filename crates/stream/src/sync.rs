//! Sync facade: the one place in `nai-stream` that names `std::sync` or
//! `std::time::Instant`. Code in this crate must import such primitives
//! from here, never from `std` directly (the workspace linter's
//! `sync-facade` rule enforces it).

/// Monotonic time, routed through the facade so the whole crate stays
/// free of direct `std::time::Instant` references (model-checked builds
/// must not branch on real elapsed time).
pub mod time {
    pub use std::time::Instant;
}
