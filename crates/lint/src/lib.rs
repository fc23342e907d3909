//! `nai-lint` — token-aware static analysis for the NAI workspace's
//! project invariants.
//!
//! The serve stack carries invariants no general-purpose tool checks:
//! concurrency primitives must flow through each crate's `sync` facade
//! (so the loom model checker can be swapped in), every atomic
//! `Ordering` choice must state its contract, poisoning must be
//! recovered rather than cascaded, and the serving/inference hot path
//! must not panic or print. These used to be enforced by a shell grep
//! (`ci.sh lint_sync`), which line-matching makes both blind (grouped
//! imports like `use std::{sync::Mutex, thread}`, aliased or
//! fully-qualified paths) and jumpy (matches inside strings, doc
//! comments, and commented-out code). This crate replaces the grep
//! with a real lexer ([`lexer`]) and a rule engine ([`rules`]) that
//! understands tokens.
//!
//! # Rule catalog
//!
//! | rule id              | scope                                   | what it enforces |
//! |----------------------|-----------------------------------------|------------------|
//! | `sync-facade`        | `src/` of nai-serve, nai-obs            | no `std::sync` / `std::thread` / `std::time::Instant` outside `src/sync.rs` |
//! | `ordering-invariant` | same                                    | every `Ordering::{Relaxed,…,SeqCst}` site carries an invariant comment |
//! | `lock-hygiene`       | same                                    | no `.lock().unwrap()` / `.lock().expect(…)` — use `sync::lock_recover` |
//! | `hot-path-panic`     | + nai-core, non-test code only          | no `unwrap`/`expect`/`panic!`/`todo!`/`unimplemented!`/`dbg!`/`println!`/`eprintln!` |
//! | `unused-dep`         | every workspace crate                   | each manifest dependency is referenced by some path in the crate |
//! | `malformed-allow`    | everywhere                              | suppressions must be well-formed and reasoned |
//!
//! # Suppression
//!
//! A finding is silenced only by a **reasoned** directive on the same
//! line or the line immediately above:
//!
//! ```text
//! // nai-lint: allow(hot-path-panic) -- index bounded by the check above
//! # nai-lint: allow(unused-dep) -- linked only under --cfg nai_model   (TOML)
//! ```
//!
//! A directive without a reason is itself a finding
//! (`malformed-allow`) and suppresses nothing.
//!
//! # Adding a rule
//!
//! Write a `fn rule_…(&FileCtx, &mut Vec<Diagnostic>)` over the token
//! stream in [`rules`], give it a stable kebab-case id, wire it into
//! `rules::lint_file`, add fire + suppress fixture tests, and document
//! it in the table above and in ARCHITECTURE.md.

pub mod diag;
pub mod driver;
pub mod lexer;
pub mod manifest;
pub mod rules;

pub use diag::Diagnostic;
pub use driver::{find_workspace_root, lint_paths, lint_workspace, LintReport};
pub use rules::{lint_file, FileSpec};
