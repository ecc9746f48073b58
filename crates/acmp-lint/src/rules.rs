//! The rule set: this repo's real invariants, enforced token-by-token.
//!
//! Every rule reports [`Diagnostic`]s with a stable rule id that inline
//! waivers (`// acmp-lint: allow(rule-id) -- justification`) can name.
//! Rules are deliberately conservative: a finding means "this pattern is
//! banned here", and a justified waiver is the escape hatch — never
//! silence by imprecision.
//!
//! Adding a rule: implement [`Rule`], register it in [`all_rules`], add a
//! known-bad corpus file under `corpus/` with a blessed `.expected`, and
//! document it in the README's rule table.

use crate::diag::{Diagnostic, Severity};
use crate::lexer::{Token, TokenKind};
use crate::source::{FileKind, SourceFile};

/// A manifest file (Cargo.toml) presented to manifest-level rules.
#[derive(Debug)]
pub struct ManifestFile {
    /// Workspace-relative path (`shims/rand_chacha/Cargo.toml`).
    pub rel: String,
    pub text: String,
}

/// One lint rule.
pub trait Rule {
    /// The stable id waivers and `--rule` name.
    fn id(&self) -> &'static str;
    /// One-line description for `check --list` and the README table.
    fn summary(&self) -> &'static str;
    /// Token-level pass over one source file.
    fn check_file(&self, _file: &SourceFile, _out: &mut Vec<Diagnostic>) {}
    /// Pass over one manifest.
    fn check_manifest(&self, _manifest: &ManifestFile, _out: &mut Vec<Diagnostic>) {}
}

/// Every rule, in rule-table order.
#[must_use]
pub fn all_rules() -> Vec<Box<dyn Rule>> {
    vec![
        Box::new(Nondeterminism),
        Box::new(EnvSideChannel),
        Box::new(RawStderr),
        Box::new(SchemaLiteral),
        Box::new(NestedLock),
        Box::new(UnwrapInLib),
        Box::new(ShimDrift),
        Box::new(FixtureBless),
    ]
}

/// The ids of every rule (for waiver validation).
#[must_use]
pub fn rule_ids() -> Vec<&'static str> {
    all_rules().iter().map(|r| r.id()).collect()
}

/// A filtered view of a file's code tokens (whitespace and comments
/// dropped), with text access — what most rules actually pattern-match
/// over.
struct Code<'a> {
    file: &'a SourceFile,
    toks: Vec<&'a Token>,
}

impl<'a> Code<'a> {
    fn new(file: &'a SourceFile) -> Self {
        let toks = file
            .tokens
            .iter()
            .filter(|t| {
                !matches!(
                    t.kind,
                    TokenKind::Whitespace | TokenKind::LineComment | TokenKind::BlockComment
                )
            })
            .collect();
        Code { file, toks }
    }

    fn len(&self) -> usize {
        self.toks.len()
    }

    fn s(&self, i: usize) -> &str {
        self.toks[i].text(&self.file.text)
    }

    fn t(&self, i: usize) -> &Token {
        self.toks[i]
    }

    /// Whether the code token at `i` matches an ident-path pattern like
    /// `["Instant", "::", "now"]` starting there.
    fn matches_seq(&self, i: usize, pat: &[&str]) -> bool {
        pat.iter()
            .enumerate()
            .all(|(k, want)| i + k < self.len() && self.s(i + k) == *want)
    }

    fn diag(
        &self,
        rule: &'static str,
        severity: Severity,
        tok: &Token,
        message: String,
    ) -> Diagnostic {
        Diagnostic {
            path: self.file.rel.clone(),
            line: tok.line,
            col: tok.col,
            rule,
            severity,
            message,
        }
    }
}

// ---------------------------------------------------------------------------
// nondeterminism
// ---------------------------------------------------------------------------

/// Wall clocks and thread identity are banned in simulation and storage
/// code: byte-identical fig09 output across cold/warm/sharded/instrumented
/// paths depends on nothing reading ambient time.  `acmp-obs` owns the
/// process clock (`acmp_obs::Stopwatch`).
struct Nondeterminism;

const NONDET_CRATES: &[&str] = &["core", "acmp-sweep", "acmp-store"];
// The lexer emits single-character `Punct` tokens, so `::` is two `:`s.
const NONDET_PATTERNS: &[(&[&str], &str)] = &[
    (&["SystemTime", ":", ":", "now"], "SystemTime::now"),
    (&["Instant", ":", ":", "now"], "Instant::now"),
    (&["thread", ":", ":", "current"], "thread::current"),
];

impl Rule for Nondeterminism {
    fn id(&self) -> &'static str {
        "nondeterminism"
    }
    fn summary(&self) -> &'static str {
        "wall clocks and thread identity banned in sim-*/core/acmp-sweep/acmp-store"
    }
    fn check_file(&self, file: &SourceFile, out: &mut Vec<Diagnostic>) {
        let scoped = file.crate_name.starts_with("sim-")
            || NONDET_CRATES.contains(&file.crate_name.as_str());
        if !scoped {
            return;
        }
        let code = Code::new(file);
        for i in 0..code.len() {
            if file.in_test_code(code.t(i).start) {
                continue;
            }
            for (pat, name) in NONDET_PATTERNS {
                if code.matches_seq(i, pat) {
                    out.push(code.diag(
                        self.id(),
                        Severity::Error,
                        code.t(i),
                        format!(
                            "`{name}` reads ambient state in deterministic simulation/storage \
                             code; route timing through `acmp-obs` (e.g. `acmp_obs::Stopwatch`) \
                             or waive with the invariant that keeps results byte-identical"
                        ),
                    ));
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// env-side-channel
// ---------------------------------------------------------------------------

/// `std::env::var` outside CLI argument handling reintroduces the
/// `$ACMP_SWEEP_*` side-channels PR 6 removed: configuration must arrive
/// through explicit flags and builders, never ambient process state.
struct EnvSideChannel;

impl Rule for EnvSideChannel {
    fn id(&self) -> &'static str {
        "env-side-channel"
    }
    fn summary(&self) -> &'static str {
        "std::env::var banned outside CLI entrypoints (bins and examples)"
    }
    fn check_file(&self, file: &SourceFile, out: &mut Vec<Diagnostic>) {
        if matches!(file.kind, FileKind::Bin | FileKind::Example) {
            return;
        }
        let code = Code::new(file);
        for i in 0..code.len() {
            if file.in_test_code(code.t(i).start) {
                continue;
            }
            if code.matches_seq(i, &["env", ":", ":"]) && i + 3 < code.len() {
                let name = code.s(i + 3);
                if matches!(name, "var" | "var_os" | "vars" | "vars_os") {
                    out.push(code.diag(
                        self.id(),
                        Severity::Error,
                        code.t(i),
                        format!(
                            "`std::env::{name}` outside CLI argument handling is a \
                             configuration side-channel; plumb the value through explicit \
                             options or the engine builder instead"
                        ),
                    ));
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// raw-stderr
// ---------------------------------------------------------------------------

/// Direct `eprintln!` bypasses the observability layer: `logline!` prints
/// the identical bytes *and* records the line as a trace event, so run
/// narratives stay complete.  Only the sweep CLI's entrypoint (which owns
/// the stderr contract) is exempt.
struct RawStderr;

impl Rule for RawStderr {
    fn id(&self) -> &'static str {
        "raw-stderr"
    }
    fn summary(&self) -> &'static str {
        "eprintln!/eprint! outside crates/acmp-sweep/src/bin must use logline!"
    }
    fn check_file(&self, file: &SourceFile, out: &mut Vec<Diagnostic>) {
        // acmp-lint itself is exempt: it is dependency-free by design
        // (the linter cannot link the crates it lints), so its CLI owns
        // its own stderr.
        if file.rel.starts_with("crates/acmp-sweep/src/bin/")
            || file.rel.starts_with("crates/acmp-lint/")
        {
            return;
        }
        let code = Code::new(file);
        for i in 0..code.len().saturating_sub(1) {
            if file.in_test_code(code.t(i).start) {
                continue;
            }
            let name = code.s(i);
            if (name == "eprintln" || name == "eprint") && code.s(i + 1) == "!" {
                out.push(code.diag(
                    self.id(),
                    Severity::Error,
                    code.t(i),
                    format!(
                        "raw `{name}!` bypasses `acmp-obs`; use `acmp_obs::logline!` — the \
                         stderr bytes are identical and the line lands in the event trace"
                    ),
                ));
            }
        }
    }
}

// ---------------------------------------------------------------------------
// schema-literal
// ---------------------------------------------------------------------------

/// Versioned schema names and store filename patterns each have exactly
/// one defining constant; an inline copy anywhere else is drift waiting to
/// happen (test code is exempt — golden tests pin the literal bytes on
/// purpose).
struct SchemaLiteral;

/// (needle, requires-digit-after, the one file allowed to spell it).
const SCHEMA_PATTERNS: &[(&str, bool, &str)] = &[
    ("acmp-obs-trace/v", true, "crates/acmp-obs/src/trace.rs"),
    ("acmp-obs-metrics/v", true, "crates/acmp-obs/src/metrics.rs"),
    // acmp-lint: allow(schema-literal) -- the rule's own pattern table
    ("seg-", false, "crates/acmp-store/src/segment.rs"),
    // acmp-lint: allow(schema-literal) -- the rule's own pattern table
    ("idx-", false, "crates/acmp-store/src/index.rs"),
];

impl Rule for SchemaLiteral {
    fn id(&self) -> &'static str {
        "schema-literal"
    }
    fn summary(&self) -> &'static str {
        "schema versions and segment/index filename patterns live in one constant each"
    }
    fn check_file(&self, file: &SourceFile, out: &mut Vec<Diagnostic>) {
        for tok in &file.tokens {
            if !matches!(tok.kind, TokenKind::Str | TokenKind::RawStr) {
                continue;
            }
            if file.in_test_code(tok.start) {
                continue;
            }
            let text = tok.text(&file.text);
            for (needle, digit_after, allowed) in SCHEMA_PATTERNS {
                if file.rel == *allowed {
                    continue;
                }
                let Some(at) = find_pattern(text, needle, *digit_after) else {
                    continue;
                };
                // Report the line/col of the match itself — schema names
                // can sit deep inside a multi-line literal.
                let prefix = &text[..at];
                let extra_lines = prefix.matches('\n').count() as u32;
                let col = match prefix.rfind('\n') {
                    Some(nl) => (at - nl) as u32,
                    None => tok.col + at as u32,
                };
                out.push(Diagnostic {
                    path: file.rel.clone(),
                    line: tok.line + extra_lines,
                    col,
                    rule: self.id(),
                    severity: Severity::Error,
                    message: format!(
                        "inline `{needle}…` literal duplicates the defining constant in \
                         `{allowed}`; reference the constant so the two can never drift"
                    ),
                });
            }
        }
    }
}

/// Finds `needle` in `text`; when `digit_after` is set the match must be
/// followed by an ASCII digit (so `acmp-obs-trace/v` only hits versioned
/// spellings like `…/v1`).
fn find_pattern(text: &str, needle: &str, digit_after: bool) -> Option<usize> {
    let mut from = 0;
    while let Some(rel_at) = text[from..].find(needle) {
        let at = from + rel_at;
        let after = text.as_bytes().get(at + needle.len());
        if !digit_after || after.is_some_and(u8::is_ascii_digit) {
            return Some(at);
        }
        from = at + needle.len();
    }
    None
}

// ---------------------------------------------------------------------------
// nested-lock
// ---------------------------------------------------------------------------

/// A second lock acquisition while one is syntactically held in the same
/// function is a lock-order hazard for the concurrent `sweep serve` /
/// elastic-coordinator work.  Conservative and waiver-friendly: only
/// receivers whose name is a known workspace lock count, and only
/// same-function nesting is visible.
struct NestedLock;

/// Known lock receivers across the workspace: the store/cache/scheduler
/// mutex fields, the recorder registry and buffers.  A new lock field
/// should be added here when introduced.
const KNOWN_LOCK_NAMES: &[&str] = &[
    "inner",
    "injector",
    "deque",
    "deques",
    "shard",
    "shards",
    "slots",
    "events",
    "buf",
    "REGISTRY",
    "registry",
    "counters",
    "histograms",
    "mutex",
    "state",
];

impl Rule for NestedLock {
    fn id(&self) -> &'static str {
        "nested-lock"
    }
    fn summary(&self) -> &'static str {
        "no second .lock()/.read()/.write() on workspace locks while one is held"
    }
    fn check_file(&self, file: &SourceFile, out: &mut Vec<Diagnostic>) {
        let code = Code::new(file);
        // Outermost function bodies only: nested `fn` items get their own
        // scope (an outer guard is not actually held across them), so each
        // body is scanned with its nested bodies masked out.
        let bodies = &file.fn_bodies;
        for (bi, &(start, end)) in bodies.iter().enumerate() {
            let enclosing = bodies
                .iter()
                .enumerate()
                .any(|(oi, &(os, oe))| oi != bi && os < start && end <= oe);
            if enclosing {
                continue; // scanned as a nested range of its outer body
            }
            self.scan_body(&code, file, (start, end), bodies, out);
        }
    }
}

impl NestedLock {
    #[allow(clippy::too_many_lines)]
    fn scan_body(
        &self,
        code: &Code<'_>,
        file: &SourceFile,
        (start, end): (usize, usize),
        all_bodies: &[(usize, usize)],
        out: &mut Vec<Diagnostic>,
    ) {
        // Nested fn bodies inside this one: scanned separately, masked here.
        let nested: Vec<(usize, usize)> = all_bodies
            .iter()
            .copied()
            .filter(|&(s, e)| s > start && e <= end && (s, e) != (start, end))
            .collect();
        let in_nested = |at: usize| nested.iter().any(|&(s, e)| at >= s && at < e);

        let idx: Vec<usize> = (0..code.len())
            .filter(|&i| {
                let t = code.t(i);
                t.start >= start && t.start < end && !in_nested(t.start)
            })
            .collect();

        let mut depth = 0i32;
        // Held guards: (binding name, depth bound at, receiver, line).
        let mut held: Vec<(String, i32, String, u32)> = Vec::new();
        // Lock receivers acquired earlier in the current statement
        // (temporaries live to the statement's end).
        let mut stmt_locks: Vec<(String, u32)> = Vec::new();
        // The binding name of an in-flight `let` statement.
        let mut pending_let: Option<String> = None;

        let mut p = 0;
        while p < idx.len() {
            let i = idx[p];
            let text = code.s(i);
            match text {
                "{" => depth += 1,
                "}" => {
                    depth -= 1;
                    held.retain(|&(_, d, ..)| d <= depth);
                    stmt_locks.clear();
                    pending_let = None;
                }
                ";" => {
                    stmt_locks.clear();
                    pending_let = None;
                }
                "let" => {
                    // `let [mut] name = …`
                    let mut q = p + 1;
                    if q < idx.len() && code.s(idx[q]) == "mut" {
                        q += 1;
                    }
                    if q < idx.len() && code.t(idx[q]).kind == TokenKind::Ident {
                        pending_let = Some(code.s(idx[q]).to_string());
                    }
                }
                // `drop(name)` releases a held guard early.
                "drop"
                    if p + 3 < idx.len()
                        && code.s(idx[p + 1]) == "("
                        && code.s(idx[p + 3]) == ")" =>
                {
                    let name = code.s(idx[p + 2]);
                    held.retain(|(n, ..)| n != name);
                }
                "." => {
                    // `.lock()` / `.read()` / `.write()` with no arguments.
                    let is_acquire = p + 3 < idx.len()
                        && matches!(code.s(idx[p + 1]), "lock" | "read" | "write")
                        && code.s(idx[p + 2]) == "("
                        && code.s(idx[p + 3]) == ")";
                    if !is_acquire {
                        p += 1;
                        continue;
                    }
                    let method = code.s(idx[p + 1]);
                    let Some(receiver) = receiver_name(code, &idx, p) else {
                        p += 4;
                        continue;
                    };
                    if !KNOWN_LOCK_NAMES.contains(&receiver.as_str()) {
                        p += 4;
                        continue;
                    }
                    let tok = code.t(idx[p + 1]);
                    if let Some((_, _, prior, line)) = held.first() {
                        out.push(code.diag(
                            self.id(),
                            Severity::Error,
                            tok,
                            format!(
                                "`{receiver}.{method}()` while the `{prior}` guard from line \
                                 {line} is still held — nested workspace locks invite \
                                 lock-order deadlocks under `sweep serve`"
                            ),
                        ));
                    } else if let Some((prior, line)) = stmt_locks.first() {
                        out.push(code.diag(
                            self.id(),
                            Severity::Error,
                            tok,
                            format!(
                                "`{receiver}.{method}()` in the same statement as the \
                                 `{prior}` acquisition on line {line} — both temporaries \
                                 are alive until the statement ends"
                            ),
                        ));
                    }
                    // A `let g = recv.lock();` binding holds to end of
                    // block; anything else is a statement temporary.
                    let binds =
                        pending_let.is_some() && p + 4 < idx.len() && code.s(idx[p + 4]) == ";";
                    if binds {
                        let name = pending_let.take().unwrap_or_default();
                        held.push((name, depth, receiver, tok.line));
                    } else {
                        stmt_locks.push((receiver, tok.line));
                    }
                    p += 4;
                    continue;
                }
                _ => {}
            }
            p += 1;
        }
        let _ = file;
    }
}

/// The receiver's identifying name for a `.lock()` at code index `idx[p]`
/// (the `.`): the ident just before it, or — through `]` / `)` — the
/// indexed collection or method name (`deques[me].lock()` → `deques`,
/// `self.shard(key).lock()` → `shard`).
fn receiver_name(code: &Code<'_>, idx: &[usize], p: usize) -> Option<String> {
    let mut q = p.checked_sub(1)?;
    loop {
        let text = code.s(idx[q]);
        match text {
            "]" | ")" => {
                // Walk back over the bracketed group.
                let close = text;
                let open = if close == "]" { "[" } else { "(" };
                let mut depth = 0i32;
                loop {
                    let t = code.s(idx[q]);
                    if t == close {
                        depth += 1;
                    } else if t == open {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    q = q.checked_sub(1)?;
                }
                q = q.checked_sub(1)?;
            }
            _ => {
                if code.t(idx[q]).kind == TokenKind::Ident {
                    return Some(text.to_string());
                }
                return None;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// unwrap-in-lib
// ---------------------------------------------------------------------------

/// A panicking `.unwrap()`/`.expect()` in storage or sweep library code
/// takes a whole worker (and its shard) down mid-sweep; library paths
/// return `Result` and let the engine decide.  Invariant-backed uses carry
/// a waiver spelling out the invariant.
struct UnwrapInLib;

const UNWRAP_CRATES: &[&str] = &["acmp-store", "acmp-sweep"];

impl Rule for UnwrapInLib {
    fn id(&self) -> &'static str {
        "unwrap-in-lib"
    }
    fn summary(&self) -> &'static str {
        "no .unwrap()/.expect() in acmp-store/acmp-sweep library code"
    }
    fn check_file(&self, file: &SourceFile, out: &mut Vec<Diagnostic>) {
        if !(UNWRAP_CRATES.contains(&file.crate_name.as_str()) && file.kind == FileKind::Lib) {
            return;
        }
        let code = Code::new(file);
        for i in 0..code.len().saturating_sub(2) {
            if file.in_test_code(code.t(i).start) {
                continue;
            }
            if code.s(i) == "." {
                let name = code.s(i + 1);
                if (name == "unwrap" || name == "expect") && code.s(i + 2) == "(" {
                    out.push(code.diag(
                        self.id(),
                        Severity::Error,
                        code.t(i + 1),
                        format!(
                            "`.{name}()` can panic a sweep worker mid-run; return the error \
                             to the engine, or waive with the invariant that makes the \
                             failure impossible"
                        ),
                    ));
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// shim-drift
// ---------------------------------------------------------------------------

/// The in-tree shims replace crates.io packages in offline builds; every
/// inter-shim dependency is a declared edge here, and anything else is
/// drift (a shim quietly growing real dependencies defeats its purpose).
struct ShimDrift;

/// The declared shim dependency graph (`shim` may depend on `dep`).
const SHIM_EDGES: &[(&str, &str)] = &[
    ("proptest", "rand"),
    ("proptest", "rand_chacha"),
    ("rand_chacha", "rand"),
    ("serde", "serde_derive"),
    ("serde_json", "serde"),
];

impl Rule for ShimDrift {
    fn id(&self) -> &'static str {
        "shim-drift"
    }
    fn summary(&self) -> &'static str {
        "shims depend only on declared shim edges (see SHIM_EDGES)"
    }
    fn check_manifest(&self, manifest: &ManifestFile, out: &mut Vec<Diagnostic>) {
        let Some(shim) = manifest
            .rel
            .strip_prefix("shims/")
            .and_then(|r| r.strip_suffix("/Cargo.toml"))
        else {
            return;
        };
        // Walk the TOML line-by-line: inside [dependencies] or
        // [build-dependencies] (dev-dependencies are test-only and exempt),
        // every `name = …` line is an edge to check.
        let mut in_deps = false;
        for (lineno, line) in manifest.text.lines().enumerate() {
            let trimmed = line.trim();
            if trimmed.starts_with('[') {
                in_deps = matches!(
                    trimmed,
                    "[dependencies]" | "[build-dependencies]" | "[target.dependencies]"
                );
                continue;
            }
            if !in_deps || trimmed.is_empty() || trimmed.starts_with('#') {
                continue;
            }
            let Some(dep) = trimmed.split('=').next().map(str::trim) else {
                continue;
            };
            if dep.is_empty() {
                continue;
            }
            let declared = SHIM_EDGES.contains(&(shim, dep));
            if !declared {
                out.push(Diagnostic {
                    path: manifest.rel.clone(),
                    line: lineno as u32 + 1,
                    col: 1,
                    rule: self.id(),
                    severity: Severity::Error,
                    message: format!(
                        "shim `{shim}` must not depend on `{dep}`: only declared shim edges \
                         are allowed (add the edge to SHIM_EDGES in acmp-lint deliberately, \
                         or drop the dependency)"
                    ),
                });
            }
        }
    }
}

// ---------------------------------------------------------------------------
// fixture-bless
// ---------------------------------------------------------------------------

/// Golden fixtures only change through the explicit `UPDATE_FIXTURES=1`
/// bless path: test code writing into `tests/fixtures/` without that gate
/// can silently rewrite the byte-identity baseline it is supposed to
/// check.
struct FixtureBless;

const WRITE_CALLS: &[&str] = &["write", "write_all", "create", "create_new", "copy"];

impl Rule for FixtureBless {
    fn id(&self) -> &'static str {
        "fixture-bless"
    }
    fn summary(&self) -> &'static str {
        "test writes into tests/fixtures/ must be gated by UPDATE_FIXTURES"
    }
    fn check_file(&self, file: &SourceFile, out: &mut Vec<Diagnostic>) {
        let code = Code::new(file);
        for &(start, end) in &file.fn_bodies {
            // Only test code is in scope.
            if !file.in_test_code(start) {
                continue;
            }
            let idx: Vec<usize> = (0..code.len())
                .filter(|&i| code.t(i).start >= start && code.t(i).start < end)
                .collect();
            // The gate anywhere in the body clears the whole body.
            let gated = idx.iter().any(|&i| code.s(i).contains("UPDATE_FIXTURES"));
            if gated {
                continue;
            }
            // Idents bound by statements that mention a fixtures literal
            // are tainted: `let path = fixture_dir().join("fixtures")…`.
            let mut tainted: Vec<String> = Vec::new();
            let mut stmt_start = 0usize;
            for (k, &i) in idx.iter().enumerate() {
                if matches!(code.s(i), ";" | "{" | "}") {
                    let stmt = &idx[stmt_start..k];
                    if stmt.iter().any(|&j| is_fixture_literal(&code, j)) {
                        for &j in stmt {
                            if code.s(j) == "let" {
                                let mut q = j;
                                // find the bound ident after let [mut]
                                for &cand in &idx[stmt_start..k] {
                                    if cand > q
                                        && code.t(cand).kind == TokenKind::Ident
                                        && code.s(cand) != "mut"
                                    {
                                        tainted.push(code.s(cand).to_string());
                                        break;
                                    }
                                    q = q.max(cand);
                                }
                            }
                        }
                    }
                    stmt_start = k + 1;
                }
            }
            // A write call whose arguments mention a fixtures literal or a
            // tainted binding, without the gate, is the finding.
            for (k, &i) in idx.iter().enumerate() {
                if code.t(i).kind != TokenKind::Ident
                    || !WRITE_CALLS.contains(&code.s(i))
                    || !(k + 1 < idx.len() && code.s(idx[k + 1]) == "(")
                {
                    continue;
                }
                // Scan the argument list to the matching `)`.
                let mut depth = 0i32;
                let mut hit = false;
                for &j in &idx[k + 1..] {
                    match code.s(j) {
                        "(" => depth += 1,
                        ")" => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                    if is_fixture_literal(&code, j)
                        || (code.t(j).kind == TokenKind::Ident
                            && tainted.iter().any(|t| t == code.s(j)))
                    {
                        hit = true;
                    }
                }
                if hit {
                    out.push(code.diag(
                        self.id(),
                        Severity::Error,
                        code.t(i),
                        format!(
                            "`{}` into tests/fixtures/ without the `UPDATE_FIXTURES` gate \
                             rewrites the golden baseline silently; wrap the write in \
                             `if std::env::var_os(\"UPDATE_FIXTURES\").is_some()`",
                            code.s(i)
                        ),
                    ));
                }
            }
        }
    }
}

/// Whether code token `i` is a string literal naming the fixtures dir
/// (`"tests/fixtures"`, `"tests/fixtures/fig09.jsonl"`, `"fixtures"`, …).
fn is_fixture_literal(code: &Code<'_>, i: usize) -> bool {
    let tok = code.t(i);
    matches!(tok.kind, TokenKind::Str | TokenKind::RawStr) && code.s(i).contains("fixtures")
}
