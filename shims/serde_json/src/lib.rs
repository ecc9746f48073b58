//! Offline shim of `serde_json`: prints and parses the shim `serde`
//! [`Value`] model as JSON.
//!
//! Supports the subset of the real API this workspace uses: [`to_string`],
//! [`to_writer`], [`from_str`], the [`json!`] macro for object literals, and
//! an [`Error`] type that wraps I/O and syntax errors.  Number printing uses
//! Rust's shortest round-trip float formatting, so values survive a
//! serialise → parse cycle exactly.

use serde::{Deserialize, Serialize, Value};
use std::io::Write;

pub use serde::Error;

/// Builds a [`Value`] from a JSON-like literal.
///
/// Only the shapes used in this workspace are supported: object literals
/// with string keys, array literals, `null`, and expressions serialisable
/// via [`serde::Serialize`].
#[macro_export]
macro_rules! json {
    (null) => { ::serde::Value::Null };
    ([ $($item:expr),* $(,)? ]) => {
        ::serde::Value::Array(::std::vec![ $( $crate::to_value(&$item) ),* ])
    };
    ({ $($key:literal : $value:expr),* $(,)? }) => {
        ::serde::Value::Object(::std::vec![
            $( (::std::string::String::from($key), $crate::to_value(&$value)) ),*
        ])
    };
    ($other:expr) => { $crate::to_value(&$other) };
}

/// Converts any serialisable value into the dynamic [`Value`] model.
pub fn to_value<T: Serialize + ?Sized>(value: &T) -> Value {
    value.serialize()
}

/// Serialises `value` to a JSON string.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    Ok(value.serialize().to_string())
}

/// Serialises `value` as JSON into `writer`.
///
/// # Errors
///
/// Returns an error if the underlying writer fails.
pub fn to_writer<W: Write, T: Serialize + ?Sized>(mut writer: W, value: &T) -> Result<(), Error> {
    writer.write_all(value.serialize().to_string().as_bytes())?;
    Ok(())
}

/// Parses a JSON string into any deserialisable type.
///
/// # Errors
///
/// Returns an error on malformed JSON or when the parsed value does not
/// match the shape `T` expects.
pub fn from_str<T: Deserialize>(input: &str) -> Result<T, Error> {
    let mut parser = Parser {
        input,
        bytes: input.as_bytes(),
        pos: 0,
    };
    parser.skip_whitespace();
    let value = parser.parse_value()?;
    parser.skip_whitespace();
    if parser.pos != parser.bytes.len() {
        return Err(Error::custom(format!(
            "trailing characters at offset {}",
            parser.pos
        )));
    }
    T::deserialize(&value)
}

struct Parser<'a> {
    input: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_whitespace(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
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
        if self.bytes[self.pos..].starts_with(keyword.as_bytes()) {
            self.pos += keyword.len();
            true
        } else {
            false
        }
    }

    fn parse_value(&mut self) -> Result<Value, Error> {
        self.skip_whitespace();
        match self.peek() {
            Some(b'n') if self.eat_keyword("null") => Ok(Value::Null),
            Some(b't') if self.eat_keyword("true") => Ok(Value::Bool(true)),
            Some(b'f') if self.eat_keyword("false") => Ok(Value::Bool(false)),
            Some(b'"') => self.parse_string().map(Value::String),
            Some(b'[') => self.parse_array(),
            Some(b'{') => self.parse_object(),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.parse_number(),
            other => Err(Error::custom(format!(
                "unexpected {:?} at offset {}",
                other.map(|b| b as char),
                self.pos
            ))),
        }
    }

    fn parse_array(&mut self) -> Result<Value, Error> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            items.push(self.parse_value()?);
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(Error::custom(format!("bad array at offset {}", self.pos))),
            }
        }
    }

    fn parse_object(&mut self) -> Result<Value, Error> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(fields));
        }
        loop {
            self.skip_whitespace();
            let key = self.parse_string()?;
            self.skip_whitespace();
            self.expect(b':')?;
            let value = self.parse_value()?;
            fields.push((key, value));
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(fields));
                }
                _ => return Err(Error::custom(format!("bad object at offset {}", self.pos))),
            }
        }
    }

    fn parse_string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run of unescaped bytes up to the next `"` or `\` in
            // one step.  Both delimiters are ASCII, so the run ends on a
            // char boundary of the input, which is already valid UTF-8.
            let run = self.bytes[self.pos..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .unwrap_or(self.bytes.len() - self.pos);
            out.push_str(&self.input[self.pos..self.pos + run]);
            self.pos += run;
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .and_then(char::from_u32)
                                .ok_or_else(|| {
                                    Error::custom(format!(
                                        "bad unicode escape at offset {}",
                                        self.pos
                                    ))
                                })?;
                            out.push(hex);
                            self.pos += 4;
                        }
                        _ => {
                            return Err(Error::custom(format!("bad escape at offset {}", self.pos)))
                        }
                    }
                    self.pos += 1;
                }
                _ => return Err(Error::custom("unterminated string")),
            }
        }
    }

    fn parse_number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| Error::custom("invalid number"))?;
        if is_float {
            text.parse::<f64>()
                .map(Value::Float)
                .map_err(|_| Error::custom(format!("invalid number `{text}`")))
        } else if text.starts_with('-') {
            text.parse::<i64>()
                .map(Value::Int)
                .map_err(|_| Error::custom(format!("invalid number `{text}`")))
        } else {
            text.parse::<u64>()
                .map(Value::UInt)
                .map_err(|_| Error::custom(format!("invalid number `{text}`")))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn i64_extremes_round_trip() {
        for x in [i64::MIN, i64::MIN + 1, -1, 0, i64::MAX] {
            let s = to_string(&x).unwrap();
            assert_eq!(from_str::<i64>(&s).unwrap(), x, "{s}");
        }
        // One past i64::MIN must be a parse error, not a silent wrap.
        assert!(from_str::<i64>("-9223372036854775809").is_err());
    }

    #[test]
    fn non_finite_floats_print_as_null() {
        assert_eq!(to_string(&f64::NAN).unwrap(), "null");
        assert_eq!(to_string(&f64::INFINITY).unwrap(), "null");
        assert!(from_str::<f64>("null").is_err());
        assert_eq!(from_str::<Option<f64>>("null").unwrap(), None);
    }

    #[test]
    fn roundtrip_scalars() {
        assert_eq!(from_str::<u64>("42").unwrap(), 42);
        assert_eq!(from_str::<i64>("-42").unwrap(), -42);
        assert_eq!(from_str::<f64>("1.5").unwrap(), 1.5);
        assert!(from_str::<bool>("true").unwrap());
        assert_eq!(from_str::<String>("\"a\\nb\"").unwrap(), "a\nb");
    }

    #[test]
    fn float_display_round_trips() {
        for x in [0.1, 1.0, 1e-12, 123456.789, -2.5] {
            let s = to_string(&x).unwrap();
            assert_eq!(from_str::<f64>(&s).unwrap(), x, "{s}");
        }
    }

    #[test]
    fn json_macro_builds_objects() {
        let v = json!({"a": 1, "b": true});
        let s = to_string(&v).unwrap();
        assert_eq!(s, "{\"a\":1,\"b\":true}");
    }

    #[test]
    fn trailing_garbage_is_an_error() {
        assert!(from_str::<u64>("42 x").is_err());
        assert!(from_str::<u64>("not json").is_err());
    }

    /// Deterministic xorshift64 stream for the string tests (the shim may
    /// depend on nothing but `serde`, so no `proptest` or `rand`).
    struct XorShift(u64);

    impl XorShift {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

    /// A random char from a mix of 1-, 2-, 3- and 4-byte encodings, the
    /// two delimiters and control characters.
    fn random_char(rng: &mut XorShift) -> char {
        const PICKS: [char; 12] = [
            'a', 'Z', '"', '\\', '/', '\n', '\u{1}', '\u{1f}', 'é', 'ß', '€', '\u{fffd}',
        ];
        match rng.below(4) {
            0 => PICKS[rng.below(PICKS.len() as u64) as usize],
            1 => char::from_u32(0x80 + rng.below(0x780) as u32).unwrap(),
            2 => char::from_u32(0xe000 + rng.below(0x2000) as u32).unwrap(),
            _ => char::from_u32(0x1_0000 + rng.below(0x1_0000) as u32).unwrap(),
        }
    }

    /// `c` as a JSON string fragment, escaped in one of the forms the
    /// parser accepts whenever `escape` is set and `c` has one.
    fn encode_char(c: char, escape: bool, out: &mut String) {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            '/' if escape => out.push_str("\\/"),
            c if escape && (c as u32) < 0x1_0000 => {
                out.push_str(&format!("\\u{:04X}", c as u32));
            }
            c => out.push(c),
        }
    }

    #[test]
    fn strings_round_trip_through_every_escape_form() {
        let mut rng = XorShift(0x9e37_79b9_7f4a_7c15);
        for case in 0..4000 {
            let len = rng.below(40) as usize;
            let s: String = (0..len).map(|_| random_char(&mut rng)).collect();
            let printed = to_string(&s).unwrap();
            assert_eq!(
                from_str::<String>(&printed).unwrap(),
                s,
                "case {case}: {printed}"
            );
            // The same string with escapes scattered among (and next to)
            // the multibyte characters.
            let mut json = String::from("\"");
            for c in s.chars() {
                encode_char(c, rng.below(3) == 0, &mut json);
            }
            json.push('"');
            assert_eq!(from_str::<String>(&json).unwrap(), s, "case {case}: {json}");
        }
        assert_eq!(
            from_str::<String>("\"é\\b€\\f𝄞\\u00e9ß\\/\"").unwrap(),
            "é\u{8}€\u{c}𝄞éß/"
        );
    }

    #[test]
    fn long_strings_decode_in_linear_time() {
        // 4 MiB with an escape every 64 KiB; quadratic decoding took minutes
        // on a quarter of this.
        let chunk = "abcdefgé€𝄞".repeat(64 * 1024 / 16);
        let mut expected = String::new();
        let mut json = String::from("\"");
        while expected.len() < 4 * 1024 * 1024 {
            expected.push_str(&chunk);
            expected.push('\n');
            json.push_str(&chunk);
            json.push_str("\\n");
        }
        json.push('"');
        let start = std::time::Instant::now();
        let decoded = from_str::<String>(&json).unwrap();
        let elapsed = start.elapsed();
        assert!(decoded == expected, "decoded string differs");
        assert!(
            elapsed < std::time::Duration::from_secs(10),
            "decoding {} bytes took {elapsed:?}",
            json.len()
        );
    }

    #[test]
    fn malformed_strings_keep_their_errors() {
        let message = |input: &str| from_str::<String>(input).unwrap_err().to_string();
        assert_eq!(message("\"abc"), "unterminated string");
        assert_eq!(message("\"é€"), "unterminated string");
        assert_eq!(message("\""), "unterminated string");
        assert_eq!(message("\"ab\\"), "bad escape at offset 4");
        assert_eq!(message("\"é\\q\""), "bad escape at offset 4");
        assert_eq!(message("\"a\\u12\""), "bad unicode escape at offset 3");
        assert_eq!(message("\"€\\ud800\""), "bad unicode escape at offset 5");
        assert_eq!(message("\"\\u00é\""), "bad unicode escape at offset 2");
        assert_eq!(message("abc"), "unexpected Some('a') at offset 0");
    }

    #[test]
    fn nested_containers_parse() {
        let v: Vec<Vec<u64>> = from_str("[[1,2],[3]]").unwrap();
        assert_eq!(v, vec![vec![1, 2], vec![3]]);
    }
}
