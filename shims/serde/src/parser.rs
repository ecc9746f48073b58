//! The streaming JSON reader that every [`Deserialize`] impl drives.
//!
//! A [`Parser`] walks JSON text token by token.  Typed impls (the
//! primitives below, and the ones `#[derive(Deserialize)]` generates) read
//! their values straight from it, so decoding a record builds nothing but
//! the record; [`Value`]'s own impl is the tree builder, used where a
//! dynamic tree is the point.
//!
//! Errors keep the precedence of a parse-the-whole-tree-first decoder: a
//! syntax error anywhere in a document wins over trailing characters, which
//! win over a shape error, and among shape errors a struct reports its
//! first field in declaration order.  Typed impls may therefore stop at the
//! first shape error; a caller that needs the precedence re-scans the
//! text with [`skip_value`](Parser::skip_value), which reports the first
//! syntax error in document order, with the messages and offsets the tree
//! builder would give.

use crate::{Deserialize, Error, Value};
use std::borrow::Cow;

/// A streaming JSON reader over one input string.
#[derive(Debug)]
pub struct Parser<'a> {
    input: &'a str,
    pos: usize,
}

/// A JSON number token: integer text without a sign, with one, or a float.
enum Number {
    UInt(u64),
    Int(i64),
    Float(f64),
}

/// Scratch stacks the tree builder shares across nesting levels, so each
/// container is collected once, at its final size.
#[derive(Default)]
struct Scratch {
    items: Vec<Value>,
    fields: Vec<(String, Value)>,
}

impl<'a> Parser<'a> {
    /// A reader positioned at the start of `input`.
    #[must_use]
    pub fn new(input: &'a str) -> Self {
        Parser { input, pos: 0 }
    }

    /// The byte offset of the reader in its input.
    #[must_use]
    pub fn offset(&self) -> usize {
        self.pos
    }

    /// Skips whitespace and returns the next byte without consuming it.
    pub fn peek(&mut self) -> Option<u8> {
        let bytes = self.input.as_bytes();
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = bytes.get(self.pos) {
            self.pos += 1;
        }
        bytes.get(self.pos).copied()
    }

    /// Checks that only whitespace follows the value just read.
    ///
    /// # Errors
    ///
    /// Returns `trailing characters at offset N` otherwise.
    pub fn end(&mut self) -> Result<(), Error> {
        if self.peek().is_some() {
            return Err(Error::custom(format!(
                "trailing characters at offset {}",
                self.pos
            )));
        }
        Ok(())
    }

    fn expect(&mut self, byte: u8) -> Result<(), Error> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error::custom(format!(
                "expected `{}` at offset {}",
                byte as char, self.pos
            )))
        }
    }

    fn eat_keyword(&mut self, keyword: &str) -> bool {
        if self.input.as_bytes()[self.pos..].starts_with(keyword.as_bytes()) {
            self.pos += keyword.len();
            true
        } else {
            false
        }
    }

    /// Consumes a `null` if one is next.
    fn eat_null(&mut self) -> bool {
        self.peek() == Some(b'n') && self.eat_keyword("null")
    }

    /// Opens an object and reads its first key; `None` when the object is
    /// empty (its `}` is consumed).
    ///
    /// # Errors
    ///
    /// Returns `expected` when the next value is not an object, or a syntax
    /// error in the first key.
    pub fn begin_object(&mut self, expected: &str) -> Result<Option<Cow<'a, str>>, Error> {
        if self.peek() != Some(b'{') {
            return Err(Error::custom(expected));
        }
        self.pos += 1;
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(None);
        }
        self.key().map(Some)
    }

    /// After a member's value: the next key, or `None` once the object's
    /// `}` is consumed.
    ///
    /// # Errors
    ///
    /// Returns a syntax error when neither `,` nor `}` follows the value,
    /// or in the key.
    pub fn next_key(&mut self) -> Result<Option<Cow<'a, str>>, Error> {
        match self.peek() {
            Some(b',') => {
                self.pos += 1;
                self.key().map(Some)
            }
            Some(b'}') => {
                self.pos += 1;
                Ok(None)
            }
            _ => Err(Error::custom(format!("bad object at offset {}", self.pos))),
        }
    }

    fn key(&mut self) -> Result<Cow<'a, str>, Error> {
        let key = self.parse_str()?;
        self.expect(b':')?;
        Ok(key)
    }

    /// Opens an array; `true` when an element follows, `false` when the
    /// array is empty (its `]` is consumed).
    ///
    /// # Errors
    ///
    /// Returns `expected` when the next value is not an array.
    pub fn begin_array(&mut self, expected: &str) -> Result<bool, Error> {
        if self.peek() != Some(b'[') {
            return Err(Error::custom(expected));
        }
        self.pos += 1;
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(false);
        }
        Ok(true)
    }

    /// After an element: `true` when another follows, `false` once the
    /// array's `]` is consumed.
    ///
    /// # Errors
    ///
    /// Returns a syntax error when neither `,` nor `]` follows the element.
    pub fn next_element(&mut self) -> Result<bool, Error> {
        match self.peek() {
            Some(b',') => {
                self.pos += 1;
                Ok(true)
            }
            Some(b']') => {
                self.pos += 1;
                Ok(false)
            }
            _ => Err(Error::custom(format!("bad array at offset {}", self.pos))),
        }
    }

    /// Decodes one member's value into `slot`, the derive's per-field
    /// state.  A repeated key keeps its first value, as
    /// [`get_field`](crate::get_field) does.  A value that does not decode
    /// is skipped and its error kept in the slot, so the members after it
    /// still decode and [`take_field`](crate::take_field) reports the
    /// first failing field in declaration order.
    ///
    /// # Errors
    ///
    /// Returns a syntax error in the value.
    pub fn decode_field<T: Deserialize>(
        &mut self,
        slot: &mut Option<Result<T, Error>>,
    ) -> Result<(), Error> {
        if slot.is_some() {
            return self.skip_value();
        }
        let start = self.pos;
        let decoded = T::deserialize(self);
        if decoded.is_err() {
            self.pos = start;
            self.skip_value()?;
        }
        *slot = Some(decoded);
        Ok(())
    }

    /// Opens an array that must hold exactly `arity` elements, the
    /// derive's tuple form; read each with [`element`](Self::element).
    ///
    /// # Errors
    ///
    /// Returns `expected` when the next value is not an array of `arity`
    /// elements, or a syntax error in it.
    pub fn begin_tuple(&mut self, arity: usize, expected: &str) -> Result<(), Error> {
        let start = self.pos;
        let mut count = 0;
        let mut more = self.begin_array(expected)?;
        while more {
            self.skip_value()?;
            count += 1;
            more = self.next_element()?;
        }
        if count != arity {
            return Err(Error::custom(expected));
        }
        self.pos = start;
        self.begin_array(expected).map(drop)
    }

    /// Reads one element of a tuple opened by
    /// [`begin_tuple`](Self::begin_tuple).
    ///
    /// # Errors
    ///
    /// Returns the element's decode error.
    pub fn element<T: Deserialize>(&mut self) -> Result<T, Error> {
        let value = T::deserialize(self)?;
        self.next_element()?;
        Ok(value)
    }

    /// Opens the externally tagged form `{"Variant": value}` of an enum
    /// and returns the tag, leaving the reader at the value; close it with
    /// [`end_variant`](Self::end_variant).
    ///
    /// # Errors
    ///
    /// Returns `expected` unless the next value is an object with exactly
    /// one member, or a syntax error in it.
    pub fn begin_variant(&mut self, expected: &str) -> Result<Cow<'a, str>, Error> {
        let Some(tag) = self.begin_object(expected)? else {
            return Err(Error::custom(expected));
        };
        let value = self.pos;
        self.skip_value()?;
        if self.next_key()?.is_some() {
            return Err(Error::custom(expected));
        }
        self.pos = value;
        Ok(tag)
    }

    /// Closes a variant opened by [`begin_variant`](Self::begin_variant).
    ///
    /// # Errors
    ///
    /// Returns a syntax error when the object does not end here.
    pub fn end_variant(&mut self) -> Result<(), Error> {
        self.next_key().map(drop)
    }

    /// Skips one value, checking its syntax.
    ///
    /// # Errors
    ///
    /// Returns the first syntax error in the value.
    pub fn skip_value(&mut self) -> Result<(), Error> {
        match self.peek() {
            Some(b'[') => {
                let mut more = self.begin_array("")?;
                while more {
                    self.skip_value()?;
                    more = self.next_element()?;
                }
                Ok(())
            }
            Some(b'{') => {
                let mut key = self.begin_object("")?;
                while key.is_some() {
                    self.skip_value()?;
                    key = self.next_key()?;
                }
                Ok(())
            }
            Some(b'"') => self.parse_str().map(drop),
            _ => self.scalar().map(drop),
        }
    }

    /// Reads a JSON string, borrowing it from the input when it holds no
    /// escape.
    ///
    /// # Errors
    ///
    /// Returns a syntax error when no well-formed string is next.
    pub fn parse_str(&mut self) -> Result<Cow<'a, str>, Error> {
        self.expect(b'"')?;
        let bytes = self.input.as_bytes();
        let start = self.pos;
        let mut out: Option<String> = None;
        loop {
            // Copy the run of unescaped bytes up to the next `"` or `\` in
            // one step.  Both delimiters are ASCII, so the run ends on a
            // char boundary of the input, which is already valid UTF-8.
            let run = bytes[self.pos..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .unwrap_or(bytes.len() - self.pos);
            let text = &self.input[self.pos..self.pos + run];
            self.pos += run;
            match bytes.get(self.pos) {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(match out {
                        None => Cow::Borrowed(&self.input[start..self.pos - 1]),
                        Some(mut owned) => {
                            owned.push_str(text);
                            Cow::Owned(owned)
                        }
                    });
                }
                Some(b'\\') => {
                    let owned = out.get_or_insert_with(String::new);
                    owned.push_str(text);
                    self.pos += 1;
                    owned.push(self.unescape()?);
                    self.pos += 1;
                }
                _ => return Err(Error::custom("unterminated string")),
            }
        }
    }

    /// Reads the string [`parse_str`](Self::parse_str) would read and
    /// reports whether it equals `expected`, comparing as it decodes instead
    /// of collecting: `true` exactly when `parse_str` would succeed with a
    /// string equal to `expected`.  On `true` the reader is past the
    /// string; on `false` its position is unspecified.
    pub fn matches_str(&mut self, expected: &str) -> bool {
        if self.expect(b'"').is_err() {
            return false;
        }
        let bytes = self.input.as_bytes();
        let mut rest = expected;
        loop {
            // The same runs and escapes as `parse_str`, each checked against
            // the front of what is left of `expected`.
            let run = bytes[self.pos..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .unwrap_or(bytes.len() - self.pos);
            let Some(tail) = rest.strip_prefix(&self.input[self.pos..self.pos + run]) else {
                return false;
            };
            rest = tail;
            self.pos += run;
            match bytes.get(self.pos) {
                Some(b'"') => {
                    self.pos += 1;
                    return rest.is_empty();
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let Some(tail) = self.unescape().ok().and_then(|c| rest.strip_prefix(c)) else {
                        return false;
                    };
                    rest = tail;
                    self.pos += 1;
                }
                _ => return false,
            }
        }
    }

    /// Decodes the escape whose letter is at the reader's position, leaving
    /// the reader on its last byte (for a surrogate pair, the last byte of
    /// the second escape).
    fn unescape(&mut self) -> Result<char, Error> {
        let bytes = self.input.as_bytes();
        Ok(match bytes.get(self.pos) {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'u') => {
                let at = self.pos;
                let mut code = hex4(bytes, at + 1);
                if let Some(high @ 0xD800..=0xDBFF) = code {
                    // A UTF-16 high surrogate spells a char only with the
                    // escaped low surrogate right after it.
                    code = bytes
                        .get(at + 5..at + 7)
                        .filter(|&escape| escape == b"\\u")
                        .and_then(|_| hex4(bytes, at + 7))
                        .filter(|low| (0xDC00..=0xDFFF).contains(low))
                        .map(|low| 0x10000 + ((high - 0xD800) << 10) + (low - 0xDC00));
                    self.pos += 6;
                }
                self.pos += 4;
                code.and_then(char::from_u32)
                    .ok_or_else(|| Error::custom(format!("bad unicode escape at offset {at}")))?
            }
            _ => return Err(Error::custom(format!("bad escape at offset {}", self.pos))),
        })
    }

    fn parse_number(&mut self) -> Result<Number, Error> {
        let bytes = self.input.as_bytes();
        let start = self.pos;
        let negative = bytes[start] == b'-';
        if negative {
            self.pos += 1;
        }
        let digits = self.pos;
        // The integer's magnitude, accumulated while scanning; `None` once
        // it overflows.
        let mut magnitude = Some(0u64);
        let mut is_float = false;
        while let Some(&b) = bytes.get(self.pos) {
            match b {
                b'0'..=b'9' => {
                    magnitude = magnitude
                        .and_then(|m| m.checked_mul(10))
                        .and_then(|m| m.checked_add(u64::from(b - b'0')));
                    self.pos += 1;
                }
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = &self.input[start..self.pos];
        let number = if is_float {
            text.parse().map(Number::Float).ok()
        } else if negative {
            // `-` alone has no digits; past `i64::MIN` is out of range.
            magnitude
                .filter(|_| self.pos > digits)
                .and_then(|m| 0i64.checked_sub_unsigned(m))
                .map(Number::Int)
        } else {
            magnitude.map(Number::UInt)
        };
        number.ok_or_else(|| Error::custom(format!("invalid number `{text}`")))
    }

    /// Reads a number when one is next; `Ok(None)` leaves the reader where
    /// it was.
    fn number(&mut self) -> Result<Option<Number>, Error> {
        match self.peek() {
            Some(b) if b == b'-' || b.is_ascii_digit() => self.parse_number().map(Some),
            _ => Ok(None),
        }
    }

    /// Reads a scalar: `null`, a boolean, a string or a number.
    fn scalar(&mut self) -> Result<Value, Error> {
        match self.peek() {
            Some(b'n') if self.eat_keyword("null") => Ok(Value::Null),
            Some(b't') if self.eat_keyword("true") => Ok(Value::Bool(true)),
            Some(b'f') if self.eat_keyword("false") => Ok(Value::Bool(false)),
            Some(b'"') => self.parse_str().map(|s| Value::String(s.into_owned())),
            Some(b) if b == b'-' || b.is_ascii_digit() => Ok(match self.parse_number()? {
                Number::UInt(n) => Value::UInt(n),
                Number::Int(n) => Value::Int(n),
                Number::Float(x) => Value::Float(x),
            }),
            other => Err(Error::custom(format!(
                "unexpected {:?} at offset {}",
                other.map(|b| b as char),
                self.pos
            ))),
        }
    }

    /// Builds the tree of one value.
    fn tree(&mut self, scratch: &mut Scratch) -> Result<Value, Error> {
        match self.peek() {
            Some(b'[') => {
                let base = scratch.items.len();
                let mut more = self.begin_array("")?;
                while more {
                    let item = self.tree(scratch)?;
                    scratch.items.push(item);
                    more = self.next_element()?;
                }
                Ok(Value::Array(scratch.items.drain(base..).collect()))
            }
            Some(b'{') => {
                let base = scratch.fields.len();
                let mut key = self.begin_object("")?;
                while let Some(name) = key {
                    let item = self.tree(scratch)?;
                    scratch.fields.push((name.into_owned(), item));
                    key = self.next_key()?;
                }
                Ok(Value::Object(scratch.fields.drain(base..).collect()))
            }
            _ => self.scalar(),
        }
    }
}

macro_rules! impl_deserialize_integer {
    ($($t:ty),*) => {$(
        impl Deserialize for $t {
            fn deserialize(parser: &mut Parser<'_>) -> Result<Self, Error> {
                let out_of_range =
                    || Error::custom(concat!("integer out of range for ", stringify!($t)));
                match parser.number()? {
                    Some(Number::UInt(n)) => <$t>::try_from(n).map_err(|_| out_of_range()),
                    Some(Number::Int(n)) => <$t>::try_from(n).map_err(|_| out_of_range()),
                    _ => Err(Error::custom(concat!("expected integer for ", stringify!($t)))),
                }
            }
        }
    )*};
}

impl_deserialize_integer!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Deserialize for f64 {
    fn deserialize(parser: &mut Parser<'_>) -> Result<Self, Error> {
        match parser.number()? {
            Some(Number::Float(x)) => Ok(x),
            Some(Number::UInt(n)) => Ok(n as f64),
            Some(Number::Int(n)) => Ok(n as f64),
            None => Err(Error::custom("expected number for f64")),
        }
    }
}

impl Deserialize for f32 {
    fn deserialize(parser: &mut Parser<'_>) -> Result<Self, Error> {
        f64::deserialize(parser).map(|x| x as f32)
    }
}

impl Deserialize for bool {
    fn deserialize(parser: &mut Parser<'_>) -> Result<Self, Error> {
        match parser.peek() {
            Some(b't') if parser.eat_keyword("true") => Ok(true),
            Some(b'f') if parser.eat_keyword("false") => Ok(false),
            _ => Err(Error::custom("expected boolean")),
        }
    }
}

impl Deserialize for String {
    fn deserialize(parser: &mut Parser<'_>) -> Result<Self, Error> {
        if parser.peek() != Some(b'"') {
            return Err(Error::custom("expected string"));
        }
        parser.parse_str().map(Cow::into_owned)
    }
}

impl Deserialize for char {
    fn deserialize(parser: &mut Parser<'_>) -> Result<Self, Error> {
        let expected = || Error::custom("expected single-character string");
        if parser.peek() != Some(b'"') {
            return Err(expected());
        }
        let s = parser.parse_str()?;
        let mut chars = s.chars();
        match (chars.next(), chars.next()) {
            (Some(c), None) => Ok(c),
            _ => Err(expected()),
        }
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn deserialize(parser: &mut Parser<'_>) -> Result<Self, Error> {
        let mut items = Vec::new();
        let mut more = parser.begin_array("expected array")?;
        while more {
            items.push(T::deserialize(parser)?);
            more = parser.next_element()?;
        }
        Ok(items)
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn deserialize(parser: &mut Parser<'_>) -> Result<Self, Error> {
        if parser.eat_null() {
            Ok(None)
        } else {
            T::deserialize(parser).map(Some)
        }
    }
}

impl Deserialize for Value {
    /// Builds the tree of the next value.  Each array and object is
    /// collected once, at its final size, from scratch stacks shared by
    /// the whole value.
    fn deserialize(parser: &mut Parser<'_>) -> Result<Self, Error> {
        parser.tree(&mut Scratch::default())
    }
}

/// The value of the four ASCII hex digits at `at` (either case; no sign,
/// no shorter run).
fn hex4(bytes: &[u8], at: usize) -> Option<u32> {
    bytes
        .get(at..at + 4)?
        .iter()
        .try_fold(0, |code, &b| Some(code * 16 + char::from(b).to_digit(16)?))
}

#[cfg(test)]
mod tests {
    use super::Parser;

    /// Checks that `matches_str` accepts `json` against `expected` exactly
    /// when `parse_str` followed by `==` does, and that an accepting call
    /// leaves the reader where `parse_str` does.
    fn agrees(json: &str, expected: &str) -> bool {
        let mut parsed = Parser::new(json);
        let by_parse = parsed.parse_str().is_ok_and(|s| s == expected);
        let mut compared = Parser::new(json);
        let matched = compared.matches_str(expected);
        assert_eq!(matched, by_parse, "{json:?} against {expected:?}");
        if matched {
            assert_eq!(compared.offset(), parsed.offset(), "{json:?}");
        }
        matched
    }

    /// Every escape the parser accepts, between plain runs.
    const ESCAPED: &str = r#""a\"b\\c\/d\be\ff\ng\rh\ti\u00e9j" tail"#;
    const DECODED: &str = "a\"b\\c/d\u{8}e\u{c}f\ng\rh\ti\u{e9}j";

    #[test]
    fn every_escape_compares_equal_to_its_decoding() {
        assert!(agrees(ESCAPED, DECODED));
        assert!(agrees(r#""plain""#, "plain"));
        assert!(agrees(r#""""#, ""));
        assert!(agrees(r#"  "\u00e9""#, "\u{e9}"));
    }

    #[test]
    fn a_surrogate_pair_compares_equal_to_its_char() {
        assert!(agrees(r#""\ud83d\ude00""#, "\u{1F600}"));
        assert!(agrees(r#""x\uD83D\uDE00y\u00e9""#, "x\u{1F600}y\u{e9}"));
        assert!(agrees(r#""\udbff\udfff""#, "\u{10FFFF}"));
        // The pair is one char: neither half matches on its own.
        assert!(!agrees(r#""\ud83d\ude00""#, "\u{1F600}x"));
        assert!(!agrees(r#""\ud83d\ude00""#, ""));
    }

    #[test]
    fn a_mismatch_at_any_position_is_rejected() {
        for (i, c) in DECODED.char_indices() {
            let other = if c == 'x' { 'y' } else { 'x' };
            let mut changed = String::from(&DECODED[..i]);
            changed.push(other);
            changed.push_str(&DECODED[i + c.len_utf8()..]);
            assert!(!agrees(ESCAPED, &changed), "{changed:?}");
            // A prefix of the decoding is not equal to it either.
            assert!(!agrees(ESCAPED, &DECODED[..i]));
        }
        let mut longer = String::from(DECODED);
        longer.push('x');
        assert!(!agrees(ESCAPED, &longer));
    }

    #[test]
    fn truncated_and_invalid_escapes_are_rejected() {
        let string_end = ESCAPED.rfind('"').unwrap();
        for end in (0..=string_end).filter(|&e| ESCAPED.is_char_boundary(e)) {
            assert!(!agrees(&ESCAPED[..end], DECODED));
            assert!(!agrees(&ESCAPED[..end], ""));
        }
        for bad in [
            r#""\x""#,
            r#""\u00""#,
            r#""\u00zz""#,
            r#""\ud800""#,
            r#""\udc00\ud800""#,
            r#""\ud800\u0041""#,
            r#""\ud800\n""#,
            r#""\ud800\udc0""#,
            r#""\ud800\u"#,
            r#""\u+0e9""#,
            r#""\u-0e9""#,
            r#""\"#,
            r#""\u"#,
            "7",
            "",
        ] {
            assert!(!agrees(bad, ""), "{bad:?}");
            assert!(!agrees(bad, "x"), "{bad:?}");
        }
        // A signed `\u` escape is no escape, whatever it would spell.
        assert!(!agrees(r#""\u+0e9""#, "\u{e9}"));
    }
}
