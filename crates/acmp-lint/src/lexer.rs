//! A hand-rolled token-level Rust lexer.
//!
//! This is not a full Rust parser — it is exactly enough lexical structure
//! for reliable token-level lint rules: comments (line, nested block),
//! string literals (plain, raw with any hash count, byte), char literals
//! vs. lifetimes, identifiers (including raw `r#ident`), numbers and
//! single-character punctuation.  Every byte of the input is covered by
//! exactly one token (whitespace included), so token spans partition the
//! file and concatenating the token texts reproduces the input byte for
//! byte — the property the lexer proptest pins.
//!
//! Malformed input never panics: an unterminated literal or comment simply
//! extends to end of file (or end of line for char literals), mirroring
//! how rustc recovers, and anything unrecognisable becomes a one-character
//! `Punct` token.

/// The lexical class of one token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// A run of whitespace.
    Whitespace,
    /// `// …` to the end of the line (newline excluded), including doc
    /// comments (`///`, `//!`).
    LineComment,
    /// `/* … */`, nested, including doc block comments.  Unterminated
    /// comments extend to end of input.
    BlockComment,
    /// An identifier or keyword, including raw identifiers (`r#fn`).
    Ident,
    /// A lifetime (`'a`, `'static`) — *not* a char literal.
    Lifetime,
    /// A numeric literal (loose: suffixes and a single decimal point are
    /// folded in; exact numeric grammar is irrelevant to the lint rules).
    Number,
    /// A plain or byte string literal (`"…"`, `b"…"`), escapes handled.
    Str,
    /// A raw string literal (`r"…"`, `r#"…"#`, `br##"…"##`).
    RawStr,
    /// A char or byte-char literal (`'x'`, `b'\n'`).
    Char,
    /// A single punctuation character.
    Punct,
}

/// One lexed token: a kind plus its byte span and 1-based position.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Token {
    pub kind: TokenKind,
    /// Byte offset of the first byte, inclusive.
    pub start: usize,
    /// Byte offset one past the last byte, exclusive.
    pub end: usize,
    /// 1-based line of the first byte.
    pub line: u32,
    /// 1-based byte column of the first byte within its line.
    pub col: u32,
}

impl Token {
    /// The token's text within `source` (the string it was lexed from).
    #[must_use]
    pub fn text<'a>(&self, source: &'a str) -> &'a str {
        &source[self.start..self.end]
    }
}

/// Lexes `text` into a complete, gap-free token list.
#[must_use]
pub fn lex(text: &str) -> Vec<Token> {
    Lexer::new(text).run()
}

struct Lexer<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    line: u32,
    col: u32,
    tokens: Vec<Token>,
}

impl<'a> Lexer<'a> {
    fn new(text: &'a str) -> Self {
        Lexer {
            text,
            bytes: text.as_bytes(),
            pos: 0,
            line: 1,
            col: 1,
            tokens: Vec::new(),
        }
    }

    fn peek(&self, ahead: usize) -> Option<u8> {
        self.bytes.get(self.pos + ahead).copied()
    }

    /// The char starting at byte offset `at`, if `at` is a char boundary.
    fn char_at(&self, at: usize) -> Option<char> {
        self.text.get(at..).and_then(|s| s.chars().next())
    }

    fn run(mut self) -> Vec<Token> {
        while self.pos < self.bytes.len() {
            let start = self.pos;
            let (line, col) = (self.line, self.col);
            let kind = self.next_kind();
            debug_assert!(self.pos > start, "lexer must always advance");
            self.tokens.push(Token {
                kind,
                start,
                end: self.pos,
                line,
                col,
            });
        }
        self.tokens
    }

    /// Consumes one token's worth of input and returns its kind.
    fn next_kind(&mut self) -> TokenKind {
        let b = self.bytes[self.pos];
        match b {
            b' ' | b'\t' | b'\r' | b'\n' => self.whitespace(),
            b'/' if self.peek(1) == Some(b'/') => self.line_comment(),
            b'/' if self.peek(1) == Some(b'*') => self.block_comment(),
            b'"' => self.string(),
            b'\'' => self.char_or_lifetime(),
            b'r' | b'b' => self.maybe_prefixed_literal(),
            b'0'..=b'9' => self.number(),
            _ => {
                if let Some(c) = self.char_at(self.pos) {
                    if c == '_' || c.is_alphabetic() {
                        return self.ident();
                    }
                    self.advance_char(c);
                } else {
                    // Mid-UTF-8 continuation byte: structurally unreachable
                    // (every arm consumes whole chars), but stay total.
                    self.advance_bytes(1);
                }
                TokenKind::Punct
            }
        }
    }

    fn whitespace(&mut self) -> TokenKind {
        while let Some(b) = self.peek(0) {
            if matches!(b, b' ' | b'\t' | b'\r' | b'\n') {
                self.advance_bytes(1);
            } else {
                break;
            }
        }
        TokenKind::Whitespace
    }

    fn line_comment(&mut self) -> TokenKind {
        while let Some(b) = self.peek(0) {
            if b == b'\n' {
                break;
            }
            self.advance_bytes(1);
        }
        TokenKind::LineComment
    }

    fn block_comment(&mut self) -> TokenKind {
        self.advance_bytes(2); // consume `/*`
        let mut depth = 1u32;
        while depth > 0 {
            match (self.peek(0), self.peek(1)) {
                (Some(b'/'), Some(b'*')) => {
                    depth += 1;
                    self.advance_bytes(2);
                }
                (Some(b'*'), Some(b'/')) => {
                    depth -= 1;
                    self.advance_bytes(2);
                }
                (Some(_), _) => self.advance_bytes(1),
                (None, _) => break, // unterminated: extend to EOF
            }
        }
        TokenKind::BlockComment
    }

    /// A plain string body, the opening `"` already at `self.pos`.
    fn string(&mut self) -> TokenKind {
        self.advance_bytes(1); // opening quote
        while let Some(b) = self.peek(0) {
            match b {
                b'\\' => {
                    // An escape consumes the backslash and the next char
                    // (if any) — `\"` must not close the literal.
                    self.advance_bytes(1);
                    if let Some(c) = self.char_at(self.pos) {
                        self.advance_char(c);
                    }
                }
                b'"' => {
                    self.advance_bytes(1);
                    break;
                }
                _ => self.advance_bytes(1),
            }
        }
        TokenKind::Str
    }

    /// `'` at `self.pos`: disambiguates lifetimes from char literals the
    /// way rustc does — `'` + ident-start not followed by a closing `'`
    /// is a lifetime.
    fn char_or_lifetime(&mut self) -> TokenKind {
        let after_quote = self.char_at(self.pos + 1);
        if let Some(c) = after_quote {
            let ident_start = c == '_' || c.is_alphabetic();
            let closes = self
                .char_at(self.pos + 1 + c.len_utf8())
                .is_some_and(|n| n == '\'');
            if ident_start && !closes {
                // Lifetime: consume `'` plus the identifier.
                self.advance_bytes(1);
                return self.ident_continue_as(TokenKind::Lifetime);
            }
        }
        // Char literal: consume up to the closing quote, stopping at a
        // newline or EOF so a stray `'` cannot swallow the rest of the
        // file.
        self.advance_bytes(1);
        while let Some(b) = self.peek(0) {
            match b {
                b'\\' => {
                    self.advance_bytes(1);
                    if let Some(c) = self.char_at(self.pos) {
                        self.advance_char(c);
                    }
                }
                b'\'' => {
                    self.advance_bytes(1);
                    break;
                }
                b'\n' => break, // unterminated
                _ => {
                    let c = self.char_at(self.pos).unwrap_or('\0');
                    self.advance_char(c);
                }
            }
        }
        TokenKind::Char
    }

    /// `r` or `b` at `self.pos`: raw strings (`r"`, `r#"`), byte strings
    /// (`b"`, `br"`, `br#"`), byte chars (`b'`), raw identifiers (`r#x`) —
    /// or just an identifier starting with that letter.
    fn maybe_prefixed_literal(&mut self) -> TokenKind {
        let b = self.bytes[self.pos];
        // Collect the full prefix of `r`/`b` letters (covers r, b, br, rb).
        let mut prefix_len = 1;
        if (b == b'b' && self.peek(1) == Some(b'r')) || (b == b'r' && self.peek(1) == Some(b'b')) {
            prefix_len = 2;
        }
        let raw = self.bytes[self.pos..self.pos + prefix_len].contains(&b'r');
        match self.peek(prefix_len) {
            Some(b'"') if raw => return self.raw_string(prefix_len, 0),
            Some(b'"') => {
                // b"…" — a plain (escaped) byte string.
                self.advance_bytes(prefix_len);
                return self.string();
            }
            Some(b'\'') if b == b'b' && prefix_len == 1 => {
                // b'…' — a byte char.
                self.advance_bytes(1);
                return self.char_or_lifetime();
            }
            Some(b'#') if raw => {
                // Count hashes: `r##…"` opens a raw string; `r#ident` is a
                // raw identifier.
                let mut hashes = 0;
                while self.peek(prefix_len + hashes) == Some(b'#') {
                    hashes += 1;
                }
                if self.peek(prefix_len + hashes) == Some(b'"') {
                    return self.raw_string(prefix_len, hashes);
                }
                if b == b'r' && prefix_len == 1 && hashes == 1 {
                    if let Some(c) = self.char_at(self.pos + 2) {
                        if c == '_' || c.is_alphabetic() {
                            self.advance_bytes(2); // `r#`
                            return self.ident_continue_as(TokenKind::Ident);
                        }
                    }
                }
            }
            _ => {}
        }
        self.ident()
    }

    /// A raw string whose `prefix_len` letters and `hashes` hashes precede
    /// the opening quote.  Terminates at `"` followed by `hashes` hashes;
    /// unterminated extends to EOF.
    fn raw_string(&mut self, prefix_len: usize, hashes: usize) -> TokenKind {
        self.advance_bytes(prefix_len + hashes + 1); // prefix, hashes, quote
        while let Some(b) = self.peek(0) {
            if b == b'"' {
                let mut matched = 0;
                while matched < hashes && self.peek(1 + matched) == Some(b'#') {
                    matched += 1;
                }
                if matched == hashes {
                    self.advance_bytes(1 + hashes);
                    return TokenKind::RawStr;
                }
            }
            let c = self.char_at(self.pos).unwrap_or('\0');
            self.advance_char(c);
        }
        TokenKind::RawStr
    }

    fn ident(&mut self) -> TokenKind {
        self.ident_continue_as(TokenKind::Ident)
    }

    /// Consumes identifier-continue chars and returns `kind`.
    fn ident_continue_as(&mut self, kind: TokenKind) -> TokenKind {
        // The caller guarantees at least the start char is consumable.
        if let Some(c) = self.char_at(self.pos) {
            self.advance_char(c);
        } else {
            self.advance_bytes(1);
        }
        while let Some(c) = self.char_at(self.pos) {
            if c == '_' || c.is_alphanumeric() {
                self.advance_char(c);
            } else {
                break;
            }
        }
        kind
    }

    fn number(&mut self) -> TokenKind {
        self.advance_bytes(1);
        let mut seen_dot = false;
        while let Some(b) = self.peek(0) {
            match b {
                b'0'..=b'9' | b'a'..=b'z' | b'A'..=b'Z' | b'_' => self.advance_bytes(1),
                b'.' if !seen_dot && self.peek(1).is_some_and(|n| n.is_ascii_digit()) => {
                    seen_dot = true;
                    self.advance_bytes(1);
                }
                _ => break,
            }
        }
        TokenKind::Number
    }

    /// Advances over `n` bytes of ASCII (updating line/col per byte).
    fn advance_bytes(&mut self, n: usize) {
        for _ in 0..n {
            if self.pos >= self.bytes.len() {
                break;
            }
            if self.bytes[self.pos] == b'\n' {
                self.line += 1;
                self.col = 1;
            } else {
                self.col += 1;
            }
            self.pos += 1;
        }
    }

    /// Advances over one whole char (multi-byte safe; column counts bytes).
    fn advance_char(&mut self, c: char) {
        if c == '\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += u32::try_from(c.len_utf8()).unwrap_or(1);
        }
        self.pos += c.len_utf8();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(text: &str) -> Vec<(TokenKind, &str)> {
        lex(text)
            .into_iter()
            .filter(|t| t.kind != TokenKind::Whitespace)
            .map(|t| (t.kind, t.text(text)))
            .collect()
    }

    #[test]
    fn covers_every_byte_in_order() {
        let text = "fn main() { let x = \"hi\\\"there\"; /* c /* n */ */ }\n";
        let tokens = lex(text);
        assert_eq!(tokens[0].start, 0);
        assert_eq!(tokens.last().unwrap().end, text.len());
        for pair in tokens.windows(2) {
            assert_eq!(pair[0].end, pair[1].start, "gap or overlap in spans");
        }
        let rebuilt: String = tokens.iter().map(|t| t.text(text)).collect();
        assert_eq!(rebuilt, text);
    }

    #[test]
    fn strings_swallow_comment_markers_and_escapes() {
        let toks = kinds(r#"let s = "not // a comment \" still";"#);
        assert!(toks
            .iter()
            .any(|(k, t)| *k == TokenKind::Str && t.contains("// a comment")));
        assert!(!toks.iter().any(|(k, _)| *k == TokenKind::LineComment));
    }

    #[test]
    fn raw_strings_respect_hash_counts() {
        let text = r###"let s = r#"quote " inside"# + r"plain";"###;
        let toks = kinds(text);
        let raws: Vec<&str> = toks
            .iter()
            .filter(|(k, _)| *k == TokenKind::RawStr)
            .map(|(_, t)| *t)
            .collect();
        assert_eq!(raws, [r###"r#"quote " inside"#"###, r#"r"plain""#]);
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let toks = kinds("fn f<'a>(x: &'a str) -> char { 'x' }");
        let lifetimes: Vec<&str> = toks
            .iter()
            .filter(|(k, _)| *k == TokenKind::Lifetime)
            .map(|(_, t)| *t)
            .collect();
        assert_eq!(lifetimes, ["'a", "'a"]);
        let chars: Vec<&str> = toks
            .iter()
            .filter(|(k, _)| *k == TokenKind::Char)
            .map(|(_, t)| *t)
            .collect();
        assert_eq!(chars, ["'x'"]);
    }

    #[test]
    fn escaped_char_literals_close_correctly() {
        let toks = kinds(r"let c = '\''; let n = '\n'; let u = '\u{1F600}';");
        let chars: Vec<&str> = toks
            .iter()
            .filter(|(k, _)| *k == TokenKind::Char)
            .map(|(_, t)| *t)
            .collect();
        assert_eq!(chars, [r"'\''", r"'\n'", r"'\u{1F600}'"]);
    }

    #[test]
    fn nested_block_comments_terminate_at_the_right_depth() {
        let text = "/* a /* b */ c */ code";
        let toks = kinds(text);
        assert_eq!(toks[0], (TokenKind::BlockComment, "/* a /* b */ c */"));
        assert_eq!(toks[1], (TokenKind::Ident, "code"));
    }

    #[test]
    fn raw_identifiers_and_byte_literals_lex() {
        let toks = kinds(r##"let r#fn = b"bytes" ; let c = b'x' ; let rr = br#"raw"# ;"##);
        assert!(toks
            .iter()
            .any(|(k, t)| *k == TokenKind::Ident && *t == "r#fn"));
        assert!(toks
            .iter()
            .any(|(k, t)| *k == TokenKind::Str && *t == "b\"bytes\""));
        assert!(toks
            .iter()
            .any(|(k, t)| *k == TokenKind::Char && *t == "b'x'"));
        assert!(toks
            .iter()
            .any(|(k, t)| *k == TokenKind::RawStr && *t == "br#\"raw\"#"));
    }

    #[test]
    fn unterminated_literals_extend_without_panicking() {
        for text in [
            "\"never closed",
            "/* never closed",
            "r#\"never closed",
            "'x",
        ] {
            let tokens = lex(text);
            assert_eq!(tokens.last().unwrap().end, text.len(), "{text:?}");
        }
    }

    #[test]
    fn line_and_col_are_one_based_and_accurate() {
        let text = "ab\ncd ef\n  ghi";
        let tokens: Vec<Token> = lex(text)
            .into_iter()
            .filter(|t| t.kind == TokenKind::Ident)
            .collect();
        let pos: Vec<(u32, u32)> = tokens.iter().map(|t| (t.line, t.col)).collect();
        assert_eq!(pos, [(1, 1), (2, 1), (2, 4), (3, 3)]);
    }

    #[test]
    fn multibyte_text_keeps_spans_on_char_boundaries() {
        let text = "let s = \"héllo → wörld\"; // ✓ done";
        let tokens = lex(text);
        let rebuilt: String = tokens.iter().map(|t| t.text(text)).collect();
        assert_eq!(rebuilt, text);
    }
}
