//! The analyzed view of one workspace source file: its tokens, where its
//! `#[cfg(test)]` regions and function bodies are, and the lint waivers it
//! declares.

use crate::lexer::{lex, Token, TokenKind};
use std::cell::Cell;

/// What kind of compilation target a file belongs to, derived from its
/// workspace-relative path.  Rules scope themselves by kind: CLI
/// entrypoints may read the environment and print to stderr, test code may
/// use wall clocks, and so on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// `src/**` of a crate (excluding `src/bin/`).
    Lib,
    /// `src/bin/**` or `src/main.rs` — a CLI entrypoint.
    Bin,
    /// `examples/**` — demo CLIs, treated like binaries.
    Example,
    /// `tests/**` — an integration-test target.
    Test,
    /// `benches/**` — a benchmark target.
    Bench,
}

/// One analyzed source file.
#[derive(Debug)]
pub struct SourceFile {
    /// Workspace-relative path with `/` separators
    /// (`crates/acmp-store/src/store.rs`).
    pub rel: String,
    /// The owning crate's directory name (`acmp-store`, `core`); root-level
    /// `tests/` and `examples/` belong to `core` (they are wired to it as
    /// explicit targets in its manifest).
    pub crate_name: String,
    pub kind: FileKind,
    pub text: String,
    pub tokens: Vec<Token>,
    /// Byte ranges of `#[cfg(test)]`-gated items (test modules and
    /// functions).  Together with [`FileKind::Test`], these define "test
    /// code" for rules that only police production paths.
    pub test_regions: Vec<(usize, usize)>,
    /// Byte ranges of every `fn` body (outermost braces included), for
    /// rules that reason per function.
    pub fn_bodies: Vec<(usize, usize)>,
    /// Lint waivers declared in the file.
    pub waivers: Vec<Waiver>,
}

/// An inline waiver comment:
/// `// acmp-lint: allow(rule-id) -- justification`.
///
/// A trailing waiver covers its own line; a waiver alone on a line covers
/// the next line.  Waivers without a justification are themselves
/// diagnosed (`bad-waiver`), as are waivers naming unknown rules and
/// waivers that suppress nothing (`unused-waiver`).
#[derive(Debug)]
pub struct Waiver {
    pub rule_id: String,
    /// The justification text after `--`, trimmed; empty when missing.
    pub justification: String,
    /// 1-based line of the waiver comment itself.
    pub line: u32,
    pub col: u32,
    /// The line whose diagnostics this waiver suppresses.
    pub covers_line: u32,
    /// Whether any diagnostic actually matched (set during filtering).
    pub used: Cell<bool>,
}

impl SourceFile {
    /// Analyzes `text` as the file at workspace-relative path `rel`.
    #[must_use]
    pub fn analyze(rel: &str, text: String) -> SourceFile {
        let tokens = lex(&text);
        let (crate_name, kind) = classify(rel);
        let test_regions = find_test_regions(&text, &tokens);
        let fn_bodies = find_fn_bodies_in(&text, &tokens);
        let waivers = find_waivers(&text, &tokens);
        SourceFile {
            rel: rel.to_string(),
            crate_name,
            kind,
            text,
            tokens,
            test_regions,
            fn_bodies,
            waivers,
        }
    }

    /// Whether byte offset `at` lies in test code: a `tests/` target or a
    /// `#[cfg(test)]` region.
    #[must_use]
    pub fn in_test_code(&self, at: usize) -> bool {
        self.kind == FileKind::Test
            || self
                .test_regions
                .iter()
                .any(|&(start, end)| at >= start && at < end)
    }
}

/// Derives (crate name, file kind) from a workspace-relative path.
fn classify(rel: &str) -> (String, FileKind) {
    let parts: Vec<&str> = rel.split('/').collect();
    let (crate_name, rest): (&str, &[&str]) = match parts.as_slice() {
        ["crates", name, rest @ ..] => (name, rest),
        // Root-level tests/ and examples/ are explicit targets of the
        // `core` crate (see crates/core/Cargo.toml).
        ["tests", ..] => ("core", &["tests"]),
        ["examples", ..] => ("core", &["examples"]),
        _ => ("", &[]),
    };
    let kind = match rest {
        ["src", "bin", ..] | ["src", "main.rs"] => FileKind::Bin,
        ["src", ..] => FileKind::Lib,
        ["tests", ..] => FileKind::Test,
        ["benches", ..] => FileKind::Bench,
        ["examples", ..] => FileKind::Example,
        _ => FileKind::Lib,
    };
    (crate_name.to_string(), kind)
}

/// Finds the byte ranges of items gated by `#[cfg(test)]`: the attribute
/// token sequence `# [ cfg ( test ) ]`, then the next brace-balanced block
/// (skipping intervening attributes, doc comments and item headers).
fn find_test_regions(text: &str, tokens: &[Token]) -> Vec<(usize, usize)> {
    let code: Vec<&Token> = tokens
        .iter()
        .filter(|t| {
            !matches!(
                t.kind,
                TokenKind::Whitespace | TokenKind::LineComment | TokenKind::BlockComment
            )
        })
        .collect();
    let mut regions = Vec::new();
    let mut i = 0;
    while i + 6 < code.len() {
        let is_cfg_test = code[i].text(text) == "#"
            && code[i + 1].text(text) == "["
            && code[i + 2].text(text) == "cfg"
            && code[i + 3].text(text) == "("
            && code[i + 4].text(text) == "test"
            && code[i + 5].text(text) == ")"
            && code[i + 6].text(text) == "]";
        if !is_cfg_test {
            i += 1;
            continue;
        }
        let attr_start = code[i].start;
        // Find the gated item's block: the first `{` at depth 0 from here
        // (parentheses skipped so function signatures cannot confuse it),
        // then its matching `}`.
        let mut j = i + 7;
        let mut paren_depth = 0i32;
        let mut block_start = None;
        while j < code.len() {
            match code[j].text(text) {
                "(" => paren_depth += 1,
                ")" => paren_depth -= 1,
                "{" if paren_depth == 0 => {
                    block_start = Some(j);
                    break;
                }
                // A `;` before any `{` means the gated item has no block
                // (e.g. `#[cfg(test)] use …;`): gate to the semicolon.
                ";" if paren_depth == 0 => {
                    regions.push((attr_start, code[j].end));
                    break;
                }
                _ => {}
            }
            j += 1;
        }
        let Some(open) = block_start else {
            i += 7;
            continue;
        };
        let mut depth = 0i32;
        let mut k = open;
        while k < code.len() {
            match code[k].text(text) {
                "{" => depth += 1,
                "}" => {
                    depth -= 1;
                    if depth == 0 {
                        regions.push((attr_start, code[k].end));
                        break;
                    }
                }
                _ => {}
            }
            k += 1;
        }
        if depth != 0 {
            // Unbalanced braces: gate to EOF, conservatively.
            regions.push((attr_start, text.len()));
        }
        i = j + 1;
    }
    regions
}

/// Finds every `fn` body: from the `fn` keyword, the first `{` outside
/// parentheses opens the body (trait method declarations end at `;` and
/// have none).  Nested functions yield nested (overlapping) ranges.
pub(crate) fn find_fn_bodies_in(text: &str, tokens: &[Token]) -> Vec<(usize, usize)> {
    let code: Vec<&Token> = tokens
        .iter()
        .filter(|t| {
            !matches!(
                t.kind,
                TokenKind::Whitespace | TokenKind::LineComment | TokenKind::BlockComment
            )
        })
        .collect();
    let mut bodies = Vec::new();
    let mut i = 0;
    while i < code.len() {
        if !(code[i].kind == TokenKind::Ident && code[i].text(text) == "fn") {
            i += 1;
            continue;
        }
        // Walk to the body's `{` (or `;` for a bodiless declaration).
        let mut j = i + 1;
        let mut paren_depth = 0i32;
        let mut open = None;
        while j < code.len() {
            match code[j].text(text) {
                "(" | "[" => paren_depth += 1,
                ")" | "]" => paren_depth -= 1,
                "{" if paren_depth == 0 => {
                    open = Some(j);
                    break;
                }
                ";" if paren_depth == 0 => break,
                _ => {}
            }
            j += 1;
        }
        let Some(open) = open else {
            i = j + 1;
            continue;
        };
        let mut depth = 0i32;
        let mut k = open;
        let mut end = text.len();
        while k < code.len() {
            match code[k].text(text) {
                "{" => depth += 1,
                "}" => {
                    depth -= 1;
                    if depth == 0 {
                        end = code[k].end;
                        break;
                    }
                }
                _ => {}
            }
            k += 1;
        }
        bodies.push((code[open].start, end));
        // Nested fns are found by continuing from just inside the body.
        i = open + 1;
    }
    bodies
}

const WAIVER_PREFIX: &str = "acmp-lint:";

/// Parses `// acmp-lint: allow(rule-id) -- justification` comments.
fn find_waivers(text: &str, tokens: &[Token]) -> Vec<Waiver> {
    let mut waivers = Vec::new();
    for (i, tok) in tokens.iter().enumerate() {
        if tok.kind != TokenKind::LineComment {
            continue;
        }
        let body = tok.text(text).trim_start_matches('/').trim();
        let Some(rest) = body.strip_prefix(WAIVER_PREFIX) else {
            continue;
        };
        let rest = rest.trim();
        // Split `allow(rule-id)` from the ` -- justification` tail.
        let (head, justification) = match rest.split_once("--") {
            Some((h, j)) => (h.trim(), j.trim().to_string()),
            None => (rest, String::new()),
        };
        let rule_id = head
            .strip_prefix("allow(")
            .and_then(|s| s.strip_suffix(')'))
            .map(str::trim)
            .unwrap_or("")
            .to_string();
        // A waiver alone on its line covers the next line; a trailing
        // waiver covers its own.
        let alone = tokens[..i]
            .iter()
            .rev()
            .take_while(|t| t.line == tok.line)
            .all(|t| t.kind == TokenKind::Whitespace);
        let covers_line = if alone { tok.line + 1 } else { tok.line };
        waivers.push(Waiver {
            rule_id,
            justification,
            line: tok.line,
            col: tok.col,
            covers_line,
            used: Cell::new(false),
        });
    }
    waivers
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(rel: &str, text: &str) -> SourceFile {
        SourceFile::analyze(rel, text.to_string())
    }

    #[test]
    fn classification_follows_workspace_layout() {
        let cases = [
            (
                "crates/acmp-store/src/store.rs",
                "acmp-store",
                FileKind::Lib,
            ),
            (
                "crates/acmp-sweep/src/bin/sweep.rs",
                "acmp-sweep",
                FileKind::Bin,
            ),
            (
                "crates/acmp-obs/tests/no_alloc.rs",
                "acmp-obs",
                FileKind::Test,
            ),
            (
                "crates/sim-cache/benches/lookup.rs",
                "sim-cache",
                FileKind::Bench,
            ),
            ("tests/integration_obs.rs", "core", FileKind::Test),
            ("examples/quickstart.rs", "core", FileKind::Example),
        ];
        for (rel, crate_name, kind) in cases {
            let f = file(rel, "");
            assert_eq!((f.crate_name.as_str(), f.kind), (crate_name, kind), "{rel}");
        }
    }

    #[test]
    fn cfg_test_modules_are_test_regions() {
        let src = "fn prod() {}\n#[cfg(test)]\nmod tests {\n    fn t() { prod(); }\n}\n";
        let f = file("crates/acmp-store/src/x.rs", src);
        let prod_at = src.find("fn prod").unwrap();
        let inner_at = src.find("prod();").unwrap();
        assert!(!f.in_test_code(prod_at));
        assert!(f.in_test_code(inner_at));
    }

    #[test]
    fn cfg_test_functions_are_test_regions_too() {
        let src = "#[cfg(test)]\nfn helper(map: &std::collections::HashMap<u8, u8>) { work(); }\nfn prod() {}\n";
        let f = file("crates/acmp-store/src/x.rs", src);
        assert!(f.in_test_code(src.find("work()").unwrap()));
        assert!(!f.in_test_code(src.find("fn prod").unwrap()));
    }

    #[test]
    fn fn_bodies_nest_and_close() {
        let src = "fn outer() {\n    fn inner() { body(); }\n    tail();\n}\nfn second() -> Vec<(u8, u8)> { x }\n";
        let f = file("crates/acmp-store/src/x.rs", src);
        assert_eq!(f.fn_bodies.len(), 3);
        let inner_body = src.find("body()").unwrap();
        let covering: Vec<_> = f
            .fn_bodies
            .iter()
            .filter(|&&(s, e)| inner_body >= s && inner_body < e)
            .collect();
        assert_eq!(covering.len(), 2, "inner stmt is inside both bodies");
    }

    #[test]
    fn waivers_parse_placement_and_justification() {
        let src = "\
// acmp-lint: allow(raw-stderr) -- the logline! implementation itself
eprintln!(\"hi\");
let x = 1; // acmp-lint: allow(unwrap-in-lib) -- invariant: always present
// acmp-lint: allow(nested-lock)
locked();
";
        let f = file("crates/acmp-obs/src/lib.rs", src);
        assert_eq!(f.waivers.len(), 3);
        assert_eq!(f.waivers[0].rule_id, "raw-stderr");
        assert_eq!(f.waivers[0].covers_line, 2, "own-line waiver covers next");
        assert!(f.waivers[0].justification.starts_with("the logline!"));
        assert_eq!(f.waivers[1].rule_id, "unwrap-in-lib");
        assert_eq!(
            f.waivers[1].covers_line, 3,
            "trailing waiver covers own line"
        );
        assert_eq!(f.waivers[2].rule_id, "nested-lock");
        assert!(
            f.waivers[2].justification.is_empty(),
            "missing justification"
        );
    }
}
