//! The rule engine: project-invariant checks over a file's token
//! stream, plus the reasoned-suppression (`nai-lint: allow`) layer.
//!
//! Every rule reports `file:line:col [rule-id] message` diagnostics.
//! A finding can be silenced only by a suppression comment **with a
//! reason** on the same line or the line immediately above:
//!
//! ```text
//! // nai-lint: allow(rule-id, other-rule) -- why this is sound here
//! ```
//!
//! An `allow` without a reason is itself a finding (`malformed-allow`)
//! and suppresses nothing — the lint wall cannot be waved away
//! silently.

use crate::diag::Diagnostic;
use crate::lexer::{lex, Token, TokenKind};
use std::collections::BTreeSet;

/// Crates whose `src/` must route concurrency and clock primitives
/// through their `crate::sync` facade (swapped for the loom model
/// checker under `--cfg nai_model`).
pub const FACADE_CRATES: [&str; 2] = ["nai-serve", "nai-obs"];

/// Crates whose non-test library code must not contain panic paths or
/// debug printing (the serving hot path plus the inference core).
pub const PANIC_CRATES: [&str; 3] = ["nai-serve", "nai-obs", "nai-core"];

/// Atomic orderings that demand an invariant comment at the use site.
const ORDERINGS: [&str; 5] = ["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

/// Macros forbidden on the hot path (`panic!`-class plus debug I/O).
const PANIC_MACROS: [&str; 6] = [
    "panic",
    "todo",
    "unimplemented",
    "dbg",
    "println",
    "eprintln",
];

/// Where a file sits in the workspace — determines which rules apply.
#[derive(Debug, Clone, Default)]
pub struct FileSpec {
    /// Path used in diagnostics (workspace-relative when known).
    pub display_path: String,
    /// Name of the owning crate (from its `Cargo.toml`), if any.
    pub crate_name: Option<String>,
    /// Whether the file is under the crate's `src/` tree (library
    /// code, as opposed to `tests/`, `benches/`, `examples/`).
    pub in_src: bool,
    /// Whether the file *is* the crate's `src/sync.rs` facade — the
    /// one module allowed to name `std::sync` / `std::thread` /
    /// `std::time::Instant`.
    pub is_sync_facade: bool,
}

impl FileSpec {
    fn crate_in(&self, set: &[&str]) -> bool {
        self.crate_name.as_deref().is_some_and(|n| set.contains(&n))
    }
}

/// A parsed `nai-lint: allow(…) -- reason` directive.
#[derive(Debug, Clone)]
pub struct Allow {
    /// Rule ids listed inside `allow(…)`.
    pub rules: Vec<String>,
    /// First line of the carrying comment.
    pub line: u32,
    /// Last line of the carrying comment (block comments may span).
    pub end_line: u32,
}

/// Parses the directive out of a comment body. Returns:
/// - `None` — the comment is not a `nai-lint:` directive at all;
/// - `Some(Err(msg))` — it tries to be one but is malformed
///   (unknown verb, missing rule list, or missing reason);
/// - `Some(Ok(rules))` — a well-formed reasoned allow.
///
/// The directive must *start* the comment (after the comment marker):
/// `// nai-lint: allow(…) -- …`. Prose that merely mentions
/// `nai-lint:` mid-sentence — documentation, for instance — is not a
/// directive.
pub fn parse_allow_directive(comment: &str) -> Option<Result<Vec<String>, String>> {
    let mut text = comment.trim();
    for marker in ["//!", "///", "//", "/*!", "/**", "/*"] {
        if let Some(stripped) = text.strip_prefix(marker) {
            text = stripped.strip_suffix("*/").unwrap_or(stripped);
            break;
        }
    }
    let rest = text.trim().strip_prefix("nai-lint:")?;
    let rest = rest.trim_start();
    let Some(rest) = rest.strip_prefix("allow") else {
        return Some(Err(
            "unknown nai-lint directive (only `allow(rule-id) -- reason` exists)".to_string(),
        ));
    };
    let rest = rest.trim_start();
    let Some(rest) = rest.strip_prefix('(') else {
        return Some(Err(
            "expected `allow(rule-id, …)` — missing the rule list".to_string()
        ));
    };
    let Some(close) = rest.find(')') else {
        return Some(Err("unclosed rule list in `allow(…)`".to_string()));
    };
    let rules: Vec<String> = rest[..close]
        .split(',')
        .map(|r| r.trim().to_string())
        .filter(|r| !r.is_empty())
        .collect();
    if rules.is_empty() {
        return Some(Err("empty rule list in `allow(…)`".to_string()));
    }
    let tail = rest[close + 1..].trim_start();
    let reason = tail.strip_prefix("--").map(str::trim).unwrap_or("");
    if reason.is_empty() {
        return Some(Err(format!(
            "suppression of `{}` has no reason — write `allow({}) -- why it is sound`",
            rules.join(", "),
            rules.join(", "),
        )));
    }
    Some(Ok(rules))
}

/// Tokenized file plus the derived views every rule needs.
struct FileCtx<'a> {
    spec: &'a FileSpec,
    tokens: Vec<Token>,
    /// Indices into `tokens` of non-comment tokens, in order.
    code: Vec<usize>,
    /// Per-token flag: inside a `#[cfg(test)]` / `#[test]` item.
    test_mask: Vec<bool>,
    /// Lines covered by at least one comment token.
    comment_lines: BTreeSet<u32>,
    allows: Vec<Allow>,
    malformed: Vec<Diagnostic>,
}

impl<'a> FileCtx<'a> {
    fn new(spec: &'a FileSpec, src: &str) -> Self {
        let tokens = lex(src);
        let code: Vec<usize> = tokens
            .iter()
            .enumerate()
            .filter(|(_, t)| !t.is_comment())
            .map(|(i, _)| i)
            .collect();
        let mut comment_lines = BTreeSet::new();
        let mut allows = Vec::new();
        let mut malformed = Vec::new();
        for t in &tokens {
            if !t.is_comment() {
                continue;
            }
            for l in t.line..=t.end_line {
                comment_lines.insert(l);
            }
            match parse_allow_directive(&t.text) {
                None => {}
                Some(Ok(rules)) => allows.push(Allow {
                    rules,
                    line: t.line,
                    end_line: t.end_line,
                }),
                Some(Err(msg)) => malformed.push(Diagnostic {
                    path: spec.display_path.clone(),
                    line: t.line,
                    col: t.col,
                    rule: "malformed-allow",
                    message: msg,
                }),
            }
        }
        // A directive heads the whole contiguous comment block it
        // starts: a reason wrapped onto following comment lines still
        // covers the first code line after the block.
        for a in &mut allows {
            while comment_lines.contains(&(a.end_line + 1)) {
                a.end_line += 1;
            }
        }
        let test_mask = compute_test_mask(&tokens, &code);
        FileCtx {
            spec,
            tokens,
            code,
            test_mask,
            comment_lines,
            allows,
            malformed,
        }
    }

    fn tok(&self, code_idx: usize) -> &Token {
        &self.tokens[self.code[code_idx]]
    }

    fn diag(&self, code_idx: usize, rule: &'static str, message: String) -> Diagnostic {
        let t = self.tok(code_idx);
        Diagnostic {
            path: self.spec.display_path.clone(),
            line: t.line,
            col: t.col,
            rule,
            message,
        }
    }

    /// Whether an allow for `rule` covers a finding on `line`: the
    /// directive sits on that same line (trailing comment) or its
    /// comment block (directive plus any contiguous continuation
    /// comment lines) ends on the line immediately above.
    fn suppressed(&self, rule: &str, line: u32) -> bool {
        self.allows
            .iter()
            .any(|a| a.rules.iter().any(|r| r == rule) && (a.line..=a.end_line + 1).contains(&line))
    }
}

/// Marks every token inside an item gated by `#[test]` or a
/// `#[cfg(…)]` whose condition requires `test` (negations understood:
/// `#[cfg(not(test))]` gates *non*-test code and is not masked).
fn compute_test_mask(tokens: &[Token], code: &[usize]) -> Vec<bool> {
    let mut mask = vec![false; tokens.len()];
    let mut i = 0usize;
    while i < code.len() {
        let Some(attr_end) = attr_span(tokens, code, i) else {
            i += 1;
            continue;
        };
        if !attr_gates_test(tokens, code, i, attr_end) {
            i = attr_end + 1;
            continue;
        }
        // Skip any further attributes stacked on the same item.
        let mut k = attr_end + 1;
        while let Some(next_end) = attr_span(tokens, code, k) {
            k = next_end + 1;
        }
        // Find the item body: first `{` at delimiter depth 0 (masked
        // to its matching `}`), or a terminating `;` for bodyless
        // items like gated `use` declarations.
        let mut depth = 0i32;
        let mut b = k;
        let end = loop {
            if b >= code.len() {
                break code.len() - 1;
            }
            let t = &tokens[code[b]];
            match t.text.as_str() {
                "(" | "[" => depth += 1,
                ")" | "]" => depth -= 1,
                "{" if depth == 0 => break matching_brace(tokens, code, b),
                ";" if depth == 0 => break b,
                _ => {}
            }
            b += 1;
        };
        // Mask raw token range (comments inside the item included).
        for m in &mut mask[code[i]..=code[end.min(code.len() - 1)]] {
            *m = true;
        }
        i = end + 1;
    }
    mask
}

/// If `code[i]` starts an attribute (`#[…]` or `#![…]`), returns the
/// code index of its closing `]`.
fn attr_span(tokens: &[Token], code: &[usize], i: usize) -> Option<usize> {
    if !tokens[code.get(i).copied()?].is_punct("#") {
        return None;
    }
    let mut open = i + 1;
    if tokens[code.get(open).copied()?].is_punct("!") {
        open += 1;
    }
    if !tokens[code.get(open).copied()?].is_punct("[") {
        return None;
    }
    let mut depth = 0i32;
    for (j, &t_idx) in code.iter().enumerate().skip(open) {
        match tokens[t_idx].text.as_str() {
            "[" => depth += 1,
            "]" => {
                depth -= 1;
                if depth == 0 {
                    return Some(j);
                }
            }
            _ => {}
        }
    }
    None
}

/// Whether the attribute spanning `code[start..=end]` gates the item
/// to test builds: `#[test]`, or a `cfg` whose condition mentions
/// `test` outside any `not(…)`.
fn attr_gates_test(tokens: &[Token], code: &[usize], start: usize, end: usize) -> bool {
    // First identifier inside the brackets.
    let mut idents = (start..=end)
        .map(|j| &tokens[code[j]])
        .filter(|t| t.kind == TokenKind::Ident);
    match idents.next().map(|t| t.text.as_str()) {
        Some("test") => true,
        Some("cfg") => {
            let mut neg_stack: Vec<bool> = Vec::new();
            let mut prev_ident_not = false;
            for j in start..=end {
                let t = &tokens[code[j]];
                match t.text.as_str() {
                    "(" => {
                        neg_stack.push(prev_ident_not);
                        prev_ident_not = false;
                    }
                    ")" => {
                        neg_stack.pop();
                    }
                    "test" if t.kind == TokenKind::Ident => {
                        if !neg_stack.iter().any(|&n| n) {
                            return true;
                        }
                    }
                    _ => {
                        prev_ident_not = t.is_ident("not");
                    }
                }
            }
            false
        }
        _ => false,
    }
}

/// Code index of the `}` matching the `{` at `code[open]` (last token
/// on unbalanced input).
fn matching_brace(tokens: &[Token], code: &[usize], open: usize) -> usize {
    let mut depth = 0i32;
    for (j, &t_idx) in code.iter().enumerate().skip(open) {
        match tokens[t_idx].text.as_str() {
            "{" => depth += 1,
            "}" => {
                depth -= 1;
                if depth == 0 {
                    return j;
                }
            }
            _ => {}
        }
    }
    code.len() - 1
}

/// Lints one file: runs every applicable rule, applies reasoned
/// suppressions, and reports malformed suppressions.
pub fn lint_file(spec: &FileSpec, src: &str) -> Vec<Diagnostic> {
    let ctx = FileCtx::new(spec, src);
    let mut raw = Vec::new();
    rule_sync_facade(&ctx, &mut raw);
    rule_ordering_invariant(&ctx, &mut raw);
    rule_lock_hygiene(&ctx, &mut raw);
    rule_hot_path_panic(&ctx, &mut raw);
    let mut out: Vec<Diagnostic> = raw
        .into_iter()
        .filter(|d| !ctx.suppressed(d.rule, d.line))
        .collect();
    // Malformed allows are findings in their own right and cannot be
    // suppressed — otherwise a reasonless allow could excuse itself.
    out.extend(ctx.malformed.iter().cloned());
    out
}

// ---------------------------------------------------------------------
// Rule: sync-facade
// ---------------------------------------------------------------------

/// `std::sync` / `std::thread` / `std::time::Instant` / the vendored
/// `polling` crate outside the `sync.rs` facade of a facade crate.
/// Catches grouped imports (`use std::{sync::Mutex, thread}`), aliases
/// (`use std::sync as s`), and fully-qualified call sites — the cases
/// a line grep misses. `polling` rides the same facade because
/// blocking in `Poller::wait` is a scheduling decision exactly like a
/// `Condvar` wait: model builds must see every such point go through
/// `crate::sync`.
fn rule_sync_facade(ctx: &FileCtx<'_>, out: &mut Vec<Diagnostic>) {
    if !ctx.spec.crate_in(&FACADE_CRATES) || !ctx.spec.in_src || ctx.spec.is_sync_facade {
        return;
    }
    // One report per (line, offending path) regardless of how many
    // detectors saw it.
    let mut seen: BTreeSet<(u32, String)> = BTreeSet::new();
    let mut report = |ctx: &FileCtx<'_>, code_idx: usize, path: String| {
        let line = ctx.tok(code_idx).line;
        if seen.insert((line, path.clone())) {
            out.push(ctx.diag(
                code_idx,
                "sync-facade",
                format!(
                    "`{path}` bypasses the `crate::sync` facade — import concurrency/clock \
                     primitives through `crate::sync` so model builds can swap them"
                ),
            ));
        }
    };

    // Detector 1: `use` trees, with group expansion and aliases.
    let mut i = 0usize;
    while i < ctx.code.len() {
        if ctx.tok(i).is_ident("use") {
            let mut leaves = Vec::new();
            let mut pos = i + 1;
            parse_use_tree(ctx, &mut pos, &[], &mut leaves);
            for (segs, at) in leaves {
                if let Some(path) = forbidden_prefix(&segs) {
                    report(ctx, at, path);
                }
            }
            i = pos;
        } else {
            i += 1;
        }
    }

    // Detector 2: fully-qualified paths at arbitrary expression or
    // type position.
    for i in 0..ctx.code.len() {
        if ctx.tok(i).is_ident("polling") && next_is(ctx, i + 1, "::") {
            report(ctx, i, "polling".to_string());
            continue;
        }
        if !ctx.tok(i).is_ident("std") || !next_is(ctx, i + 1, "::") {
            continue;
        }
        let Some(seg) = ctx.code.get(i + 2).map(|_| ctx.tok(i + 2)) else {
            continue;
        };
        if seg.is_ident("sync") || seg.is_ident("thread") {
            report(ctx, i, format!("std::{}", seg.text));
        } else if seg.is_ident("time")
            && next_is(ctx, i + 3, "::")
            && ctx
                .code
                .get(i + 4)
                .is_some_and(|_| ctx.tok(i + 4).is_ident("Instant"))
        {
            report(ctx, i, "std::time::Instant".to_string());
        }
    }
}

fn next_is(ctx: &FileCtx<'_>, i: usize, punct: &str) -> bool {
    ctx.code.get(i).is_some_and(|_| ctx.tok(i).is_punct(punct))
}

/// The forbidden path this leaf resolves to, if any.
fn forbidden_prefix(segs: &[String]) -> Option<String> {
    if segs.first().map(String::as_str) == Some("polling") {
        return Some("polling".to_string());
    }
    if segs.len() >= 2 && segs[0] == "std" {
        if segs[1] == "sync" || segs[1] == "thread" {
            return Some(format!("std::{}", segs[1]));
        }
        if segs[1] == "time" && segs.get(2).map(String::as_str) == Some("Instant") {
            return Some("std::time::Instant".to_string());
        }
    }
    None
}

/// Recursive-descent over one `use` tree starting at `ctx.code[*pos]`.
/// Appends every leaf path (as segment vectors) with the code index of
/// its first local segment. Leaves `*pos` just past the tree.
fn parse_use_tree(
    ctx: &FileCtx<'_>,
    pos: &mut usize,
    prefix: &[String],
    leaves: &mut Vec<(Vec<String>, usize)>,
) {
    let mut local: Vec<String> = Vec::new();
    let mut first: Option<usize> = None;
    let flush = |local: &[String],
                 first: Option<usize>,
                 pos: usize,
                 prefix: &[String],
                 leaves: &mut Vec<(Vec<String>, usize)>| {
        if !local.is_empty() {
            let mut full = prefix.to_vec();
            full.extend(local.iter().cloned());
            leaves.push((full, first.unwrap_or(pos.saturating_sub(1))));
        }
    };
    loop {
        let Some(&t_idx) = ctx.code.get(*pos) else {
            flush(&local, first, *pos, prefix, leaves);
            return;
        };
        let t = &ctx.tokens[t_idx];
        if t.kind == TokenKind::Ident && t.text != "as" {
            first.get_or_insert(*pos);
            local.push(t.text.clone());
            *pos += 1;
        } else if t.is_punct("*") {
            first.get_or_insert(*pos);
            local.push("*".to_string());
            *pos += 1;
        } else if t.is_punct("{") {
            *pos += 1;
            let mut inner_prefix: Vec<String> = prefix.to_vec();
            inner_prefix.extend(local.iter().cloned());
            loop {
                let Some(&g_idx) = ctx.code.get(*pos) else {
                    return;
                };
                let g = &ctx.tokens[g_idx];
                if g.is_punct("}") {
                    *pos += 1;
                    break;
                }
                if g.is_punct(",") {
                    *pos += 1;
                    continue;
                }
                let before = *pos;
                parse_use_tree(ctx, pos, &inner_prefix, leaves);
                if *pos == before {
                    // No progress — malformed input; bail out.
                    *pos += 1;
                }
            }
            // A group is the end of this tree: the prefix itself is
            // not a leaf.
            return;
        } else if t.is_punct("}") || t.is_punct(",") || t.is_punct(";") {
            flush(&local, first, *pos, prefix, leaves);
            if t.is_punct(";") {
                *pos += 1;
            }
            return;
        } else if t.is_punct("::") || t.is_ident("as") {
            // Path separator continues the tree; an alias consumes the
            // following identifier without extending the path.
            *pos += 1;
            if t.is_ident("as") && ctx.code.get(*pos).is_some() {
                *pos += 1;
            }
        } else {
            flush(&local, first, *pos, prefix, leaves);
            *pos += 1;
            return;
        }
    }
}

// ---------------------------------------------------------------------
// Rule: ordering-invariant
// ---------------------------------------------------------------------

/// Every `Ordering::{Relaxed,Acquire,Release,AcqRel,SeqCst}` site in a
/// facade crate must carry an invariant comment: on the same line, or
/// heading the contiguous block of ordering-bearing lines it belongs
/// to (one comment may cover a run of consecutive sites, e.g. a
/// counters scrape).
fn rule_ordering_invariant(ctx: &FileCtx<'_>, out: &mut Vec<Diagnostic>) {
    if !ctx.spec.crate_in(&FACADE_CRATES) || !ctx.spec.in_src {
        return;
    }
    let mut sites: Vec<(usize, u32)> = Vec::new(); // (code idx of `Ordering`, line of variant)
    for i in 0..ctx.code.len() {
        if ctx.tok(i).is_ident("Ordering")
            && next_is(ctx, i + 1, "::")
            && ctx
                .code
                .get(i + 2)
                .is_some_and(|_| ORDERINGS.contains(&ctx.tok(i + 2).text.as_str()))
        {
            sites.push((i, ctx.tok(i + 2).line));
        }
    }
    let site_lines: BTreeSet<u32> = sites.iter().map(|&(_, l)| l).collect();
    for &(i, line) in &sites {
        let mut l = line;
        let covered = loop {
            if ctx.comment_lines.contains(&l) {
                break true;
            }
            if l < line && !site_lines.contains(&l) {
                break false;
            }
            if l == 1 {
                break false;
            }
            l -= 1;
        };
        if !covered {
            let variant = &ctx.tok(i + 2).text;
            out.push(ctx.diag(
                i,
                "ordering-invariant",
                format!(
                    "`Ordering::{variant}` without an invariant comment — state the ordering \
                     contract on this line or the line above"
                ),
            ));
        }
    }
}

// ---------------------------------------------------------------------
// Rule: lock-hygiene
// ---------------------------------------------------------------------

/// `.lock().unwrap()` / `.lock().expect(…)` in a crate that provides
/// `crate::sync::lock_recover`: a panicking lock holder would poison
/// the mutex and cascade the panic into every later accessor.
fn rule_lock_hygiene(ctx: &FileCtx<'_>, out: &mut Vec<Diagnostic>) {
    if !ctx.spec.crate_in(&FACADE_CRATES) || !ctx.spec.in_src || ctx.spec.is_sync_facade {
        return;
    }
    for i in 0..ctx.code.len() {
        if next_is(ctx, i, ".")
            && ctx
                .code
                .get(i + 1)
                .is_some_and(|_| ctx.tok(i + 1).is_ident("lock"))
            && next_is(ctx, i + 2, "(")
            && next_is(ctx, i + 3, ")")
            && next_is(ctx, i + 4, ".")
            && ctx.code.get(i + 5).is_some_and(|_| {
                ctx.tok(i + 5).is_ident("unwrap") || ctx.tok(i + 5).is_ident("expect")
            })
        {
            let what = &ctx.tok(i + 5).text;
            out.push(ctx.diag(
                i + 1,
                "lock-hygiene",
                format!(
                    "`.lock().{what}(…)` cascades poisoning — use `crate::sync::lock_recover` \
                     (or handle the `PoisonError` explicitly)"
                ),
            ));
        }
    }
}

// ---------------------------------------------------------------------
// Rule: hot-path-panic
// ---------------------------------------------------------------------

/// Panic paths and debug I/O in non-test library code of the serving /
/// inference crates: `.unwrap()`, `.expect(…)`, `panic!`, `todo!`,
/// `unimplemented!`, `dbg!`, `println!`, `eprintln!`. Test modules
/// (`#[cfg(test)]`, `#[test]`) are exempt; `assert!`/`debug_assert!`
/// and `unreachable!` are allowed (they document impossibility rather
/// than reachable failure).
fn rule_hot_path_panic(ctx: &FileCtx<'_>, out: &mut Vec<Diagnostic>) {
    if !ctx.spec.crate_in(&PANIC_CRATES) || !ctx.spec.in_src {
        return;
    }
    for i in 0..ctx.code.len() {
        if ctx.test_mask[ctx.code[i]] {
            continue;
        }
        // `.unwrap()` / `.expect(` — exact method names, so
        // `unwrap_or_else` and friends do not fire.
        if next_is(ctx, i, ".")
            && ctx.code.get(i + 1).is_some_and(|_| {
                ctx.tok(i + 1).is_ident("unwrap") || ctx.tok(i + 1).is_ident("expect")
            })
            && next_is(ctx, i + 2, "(")
        {
            let what = &ctx.tok(i + 1).text;
            out.push(ctx.diag(
                i + 1,
                "hot-path-panic",
                format!(
                    "`.{what}(…)` in non-test library code — return an error, or add a \
                     reasoned `nai-lint: allow(hot-path-panic)` stating the invariant"
                ),
            ));
        }
        // Macro invocations.
        if ctx.tok(i).kind == TokenKind::Ident
            && PANIC_MACROS.contains(&ctx.tok(i).text.as_str())
            && next_is(ctx, i + 1, "!")
        {
            let what = &ctx.tok(i).text;
            out.push(ctx.diag(
                i,
                "hot-path-panic",
                format!("`{what}!` in non-test library code — hot paths must not panic or print"),
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn serve_spec() -> FileSpec {
        FileSpec {
            display_path: "crates/serve/src/x.rs".into(),
            crate_name: Some("nai-serve".into()),
            in_src: true,
            is_sync_facade: false,
        }
    }

    fn rules_fired(spec: &FileSpec, src: &str) -> Vec<&'static str> {
        let mut r: Vec<&'static str> = lint_file(spec, src).into_iter().map(|d| d.rule).collect();
        r.sort_unstable();
        r.dedup();
        r
    }

    #[test]
    fn grouped_import_fires_sync_facade() {
        let src = "use std::{sync::Mutex, thread};\n";
        let diags = lint_file(&serve_spec(), src);
        assert_eq!(diags.iter().filter(|d| d.rule == "sync-facade").count(), 2);
    }

    #[test]
    fn aliased_and_qualified_paths_fire() {
        for src in [
            "use std::sync as s;\n",
            "use std::time::{Duration, Instant};\n",
            "fn f() { let m = std::sync::Mutex::new(0); }\n",
            "fn f() { std::thread::spawn(|| {}); }\n",
            "fn f() { let t = std::time::Instant::now(); }\n",
            "use polling::{Event, Poller};\n",
            "use polling::Poller as P;\n",
            "fn f() { let p = polling::Poller::new(); }\n",
        ] {
            assert!(
                rules_fired(&serve_spec(), src).contains(&"sync-facade"),
                "should fire on: {src}"
            );
        }
    }

    #[test]
    fn facade_and_innocent_uses_do_not_fire() {
        // Duration is fine; strings and comments are invisible; the
        // facade file itself is exempt; non-facade crates are exempt.
        for (spec, src) in [
            (serve_spec(), "use std::time::Duration;\n"),
            (serve_spec(), "// std::sync is discussed here only\n"),
            (serve_spec(), "const S: &str = \"std::sync\";\n"),
            (
                FileSpec {
                    is_sync_facade: true,
                    ..serve_spec()
                },
                "pub use std::sync::Mutex;\n",
            ),
            (
                FileSpec {
                    is_sync_facade: true,
                    ..serve_spec()
                },
                "pub use polling::{Event, Interest, Poller};\n",
            ),
            // An identifier merely *named* polling is not the crate.
            (
                serve_spec(),
                "fn f() { let polling = 1; let _ = polling; }\n",
            ),
            (
                FileSpec {
                    crate_name: Some("nai-graph".into()),
                    ..serve_spec()
                },
                "use std::sync::Mutex;\n",
            ),
            (
                FileSpec {
                    in_src: false,
                    ..serve_spec()
                },
                "use std::sync::Mutex;\n",
            ),
        ] {
            assert!(
                !rules_fired(&spec, src).contains(&"sync-facade"),
                "should not fire on: {src}"
            );
        }
    }

    #[test]
    fn ordering_without_comment_fires_with_comment_passes() {
        let bad = "fn f(a: &AtomicUsize) { a.load(Ordering::Acquire); }\n";
        assert!(rules_fired(&serve_spec(), bad).contains(&"ordering-invariant"));
        for good in [
            "fn f(a: &AtomicUsize) { a.load(Ordering::Acquire); // pairs with release store\n }\n",
            "fn f(a: &AtomicUsize) {\n    // Acquire: sees everything the releasing store did.\n    a.load(Ordering::Acquire);\n}\n",
        ] {
            assert!(
                !rules_fired(&serve_spec(), good).contains(&"ordering-invariant"),
                "should pass: {good}"
            );
        }
    }

    #[test]
    fn one_comment_covers_a_contiguous_ordering_block() {
        let src = "fn f(a: &A, b: &A) -> (u64, u64) {\n\
                   \x20   // Relaxed: monotone counters, scrape-only.\n\
                   \x20   (a.load(Ordering::Relaxed),\n\
                   \x20    b.load(Ordering::Relaxed))\n\
                   }\n";
        assert!(!rules_fired(&serve_spec(), src).contains(&"ordering-invariant"));
        // …but an interposed non-site line breaks the chain.
        let broken = "fn f(a: &A) -> u64 {\n\
                      \x20   // Relaxed: monotone counter.\n\
                      \x20   let x = 1;\n\
                      \x20   a.load(Ordering::Relaxed)\n\
                      }\n";
        assert!(rules_fired(&serve_spec(), broken).contains(&"ordering-invariant"));
    }

    #[test]
    fn lock_hygiene_fires_and_lock_recover_passes() {
        assert!(
            rules_fired(&serve_spec(), "fn f() { m.lock().unwrap(); }\n").contains(&"lock-hygiene")
        );
        assert!(
            rules_fired(&serve_spec(), "fn f() { m.lock().expect(\"x\"); }\n")
                .contains(&"lock-hygiene")
        );
        assert!(
            !rules_fired(&serve_spec(), "fn f() { lock_recover(&m); }\n").contains(&"lock-hygiene")
        );
        assert!(!rules_fired(
            &serve_spec(),
            "fn f() { m.lock().unwrap_or_else(|p| p.into_inner()); }\n"
        )
        .contains(&"lock-hygiene"));
    }

    #[test]
    fn hot_path_panic_fires_outside_tests_only() {
        let bad = "pub fn f(x: Option<u32>) -> u32 { x.unwrap() }\n";
        assert!(rules_fired(&serve_spec(), bad).contains(&"hot-path-panic"));
        let test_mod = "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { Some(1).unwrap(); panic!(\"boom\"); }\n}\n";
        assert!(!rules_fired(&serve_spec(), test_mod).contains(&"hot-path-panic"));
        let test_fn = "#[test]\nfn t() { Some(1).unwrap(); }\n";
        assert!(!rules_fired(&serve_spec(), test_fn).contains(&"hot-path-panic"));
        // cfg(not(test)) is NOT test code.
        let not_test = "#[cfg(not(test))]\nfn f() { Some(1).unwrap(); }\n";
        assert!(rules_fired(&serve_spec(), not_test).contains(&"hot-path-panic"));
    }

    #[test]
    fn hot_path_panic_catches_macros_but_not_asserts() {
        for bad in [
            "fn f() { panic!(\"x\"); }\n",
            "fn f() { todo!() }\n",
            "fn f() { unimplemented!() }\n",
            "fn f(v: u32) { dbg!(v); }\n",
            "fn f() { println!(\"x\"); }\n",
            "fn f() { eprintln!(\"x\"); }\n",
        ] {
            assert!(
                rules_fired(&serve_spec(), bad).contains(&"hot-path-panic"),
                "should fire: {bad}"
            );
        }
        for ok in [
            "fn f(x: u32) { assert!(x > 0); debug_assert_eq!(x, x); }\n",
            "fn f() -> ! { unreachable!(\"excluded by construction\") }\n",
            "fn f(x: Option<u32>) -> u32 { x.unwrap_or(0) }\n",
            "fn f(x: Option<u32>) -> u32 { x.unwrap_or_default() }\n",
            "/// ```\n/// x.unwrap(); println!(\"doc example\");\n/// ```\nfn f() {}\n",
        ] {
            assert!(
                !rules_fired(&serve_spec(), ok).contains(&"hot-path-panic"),
                "should pass: {ok}"
            );
        }
    }

    #[test]
    fn hot_path_panic_applies_to_core_but_not_graph() {
        let src = "fn f(x: Option<u32>) -> u32 { x.unwrap() }\n";
        let core = FileSpec {
            crate_name: Some("nai-core".into()),
            ..serve_spec()
        };
        assert!(rules_fired(&core, src).contains(&"hot-path-panic"));
        let graph = FileSpec {
            crate_name: Some("nai-graph".into()),
            ..serve_spec()
        };
        assert!(!rules_fired(&graph, src).contains(&"hot-path-panic"));
    }

    #[test]
    fn reasoned_allow_suppresses_same_line_and_next_line() {
        let same = "fn f(x: Option<u32>) -> u32 { x.unwrap() } // nai-lint: allow(hot-path-panic) -- checked by caller\n";
        assert!(lint_file(&serve_spec(), same).is_empty());
        let above = "// nai-lint: allow(hot-path-panic) -- checked by caller\nfn f(x: Option<u32>) -> u32 { x.unwrap() }\n";
        assert!(lint_file(&serve_spec(), above).is_empty());
        // Multiple rules in one directive.
        let multi = "// nai-lint: allow(lock-hygiene, hot-path-panic) -- deliberate poisoning test\nfn f() { m.lock().unwrap(); }\n";
        assert!(lint_file(&serve_spec(), multi).is_empty());
    }

    #[test]
    fn allow_reason_may_wrap_onto_following_comment_lines() {
        let wrapped = "// nai-lint: allow(hot-path-panic) -- a reason long enough\n\
                       // that it wraps onto a second comment line.\n\
                       fn f(x: Option<u32>) -> u32 { x.unwrap() }\n";
        assert!(lint_file(&serve_spec(), wrapped).is_empty());
        // A blank line between the block and the code breaks coverage.
        let gapped = "// nai-lint: allow(hot-path-panic) -- wrapped\n\
                      // continuation line.\n\
                      \n\
                      fn f(x: Option<u32>) -> u32 { x.unwrap() }\n";
        assert_eq!(lint_file(&serve_spec(), gapped).len(), 1);
    }

    #[test]
    fn allow_does_not_leak_beyond_its_line() {
        let src = "// nai-lint: allow(hot-path-panic) -- first only\n\
                   fn f(x: Option<u32>) -> u32 { x.unwrap() }\n\
                   fn g(x: Option<u32>) -> u32 { x.unwrap() }\n";
        let diags = lint_file(&serve_spec(), src);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].line, 3);
    }

    #[test]
    fn allow_without_reason_is_malformed_and_suppresses_nothing() {
        let src =
            "// nai-lint: allow(hot-path-panic)\nfn f(x: Option<u32>) -> u32 { x.unwrap() }\n";
        let diags = lint_file(&serve_spec(), src);
        let rules: Vec<_> = diags.iter().map(|d| d.rule).collect();
        assert!(rules.contains(&"malformed-allow"));
        assert!(rules.contains(&"hot-path-panic"));
        // Empty reason after `--` is just as malformed.
        let src2 =
            "// nai-lint: allow(hot-path-panic) -- \nfn f(x: Option<u32>) -> u32 { x.unwrap() }\n";
        assert!(lint_file(&serve_spec(), src2)
            .iter()
            .any(|d| d.rule == "malformed-allow"));
    }

    #[test]
    fn wrong_rule_id_in_allow_does_not_suppress() {
        let src = "// nai-lint: allow(sync-facade) -- wrong rule named\nfn f(x: Option<u32>) -> u32 { x.unwrap() }\n";
        assert!(lint_file(&serve_spec(), src)
            .iter()
            .any(|d| d.rule == "hot-path-panic"));
    }
}
