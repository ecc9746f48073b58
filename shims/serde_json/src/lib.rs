//! Offline shim of `serde_json`: prints the shim `serde` [`Value`] model as
//! JSON and decodes JSON text through the shim's streaming [`Parser`].
//!
//! Supports the subset of the real API this workspace uses: [`to_string`],
//! [`to_writer`], [`from_str`], the [`json!`] macro for object literals, and
//! an [`Error`] type that wraps I/O and syntax errors.  [`from_str`] reads
//! typed values straight from the text, without building a [`Value`] tree
//! first.  Number printing uses Rust's shortest round-trip float
//! formatting, so values survive a serialise → parse cycle exactly.

use serde::{Deserialize, Parser, Serialize, Value};
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
    let mut out = String::new();
    value.serialize().write_json(&mut out);
    Ok(out)
}

/// Serialises `value` as JSON into `writer`.
///
/// # Errors
///
/// Returns an error if the underlying writer fails.
pub fn to_writer<W: Write, T: Serialize + ?Sized>(mut writer: W, value: &T) -> Result<(), Error> {
    writer.write_all(to_string(value)?.as_bytes())?;
    Ok(())
}

/// Parses a JSON string into any deserialisable type.
///
/// # Errors
///
/// Returns an error on malformed JSON, on characters after the value, or
/// when the value does not match the shape `T` expects — in that order of
/// precedence, as if the whole text were parsed before `T` looked at it.
pub fn from_str<T: Deserialize>(input: &str) -> Result<T, Error> {
    let mut parser = Parser::new(input);
    match T::deserialize(&mut parser) {
        Ok(value) => parser.end().map(|()| value),
        Err(shape) => {
            // A decode stops at its first error; a syntax-only pass over
            // the whole text finds any syntax error or trailing
            // characters, which take precedence.
            let mut syntax = Parser::new(input);
            syntax.skip_value()?;
            syntax.end()?;
            Err(shape)
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
