//! Offline shim of the `serde` facade.
//!
//! The build environment of this workspace has no access to a crate
//! registry, so the handful of external dependencies are replaced by small
//! in-tree shims providing exactly the API surface the simulator uses.
//!
//! Serialisation goes through a concrete JSON-shaped [`Value`] data model:
//! a type is [`Serialize`] if it can convert itself into a [`Value`], which
//! [`Value::write_json`] prints.  Deserialisation is reader-driven: a type
//! is [`Deserialize`] if it can read itself from a streaming JSON
//! [`Parser`], so a typed decode builds no intermediate tree, and
//! [`Value`]'s own impl is the tree builder.  The
//! `#[derive(Serialize, Deserialize)]` macros (re-exported from the
//! `serde_derive` shim when the `derive` feature is on) generate both sides
//! with the same externally-tagged representation the real serde uses for
//! enums, so swapping the shim for the real crates keeps the on-disk format
//! compatible for the types in this workspace.

use std::fmt;

mod parser;

pub use parser::Parser;
#[cfg(feature = "derive")]
pub use serde_derive::{Deserialize, Serialize};

/// A JSON-shaped dynamic value.
///
/// Object fields keep their insertion order so serialisation is
/// deterministic and round-trips byte-for-byte.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// JSON `null`.
    Null,
    /// JSON boolean.
    Bool(bool),
    /// Non-negative JSON integer.
    UInt(u64),
    /// Negative JSON integer.
    Int(i64),
    /// JSON floating-point number.
    Float(f64),
    /// JSON string.
    String(String),
    /// JSON array.
    Array(Vec<Value>),
    /// JSON object with preserved field order.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Returns the object fields if the value is an object.
    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Object(fields) => Some(fields),
            _ => None,
        }
    }

    /// Returns the string contents if the value is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// Appends the value to `out` as compact JSON.  Float formatting uses
    /// Rust's shortest round-trip representation, so printed numbers parse
    /// back to the same bits.
    pub fn write_json(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(true) => out.push_str("true"),
            Value::Bool(false) => out.push_str("false"),
            Value::UInt(n) => write_u64(out, *n),
            Value::Int(n) => {
                if *n < 0 {
                    out.push('-');
                }
                write_u64(out, n.unsigned_abs());
            }
            // Non-finite floats have no JSON representation; like the real
            // serde_json, they are printed as null.
            Value::Float(x) if !x.is_finite() => out.push_str("null"),
            Value::Float(x) => {
                use fmt::Write;
                // Writing into a `String` cannot fail.
                let _ = write!(out, "{x}");
            }
            Value::String(s) => write_json_string(out, s),
            Value::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_json(out);
                }
                out.push(']');
            }
            Value::Object(fields) => {
                out.push('{');
                for (i, (key, item)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_json_string(out, key);
                    out.push(':');
                    item.write_json(out);
                }
                out.push('}');
            }
        }
    }
}

impl fmt::Display for Value {
    /// Formats the value as compact JSON (see [`Value::write_json`]).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        self.write_json(&mut out);
        f.write_str(&out)
    }
}

fn write_u64(out: &mut String, mut n: u64) {
    let mut digits = [0u8; 20];
    let mut start = digits.len();
    loop {
        start -= 1;
        digits[start] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    for &d in &digits[start..] {
        out.push(char::from(d));
    }
}

fn write_json_string(out: &mut String, s: &str) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    out.push('"');
    // Copy each run of bytes that need no escape in one step; every byte
    // that does is ASCII, so the runs end on char boundaries.
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        if !matches!(b, b'"' | b'\\' | 0..=0x1f) {
            continue;
        }
        out.push_str(&s[run..i]);
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                out.push_str("\\u00");
                out.push(char::from(HEX[usize::from(b >> 4)]));
                out.push(char::from(HEX[usize::from(b & 0xf)]));
            }
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

/// Error produced by (de)serialisation.
#[derive(Debug)]
pub enum Error {
    /// An I/O error from the underlying writer or reader.
    Io(std::io::Error),
    /// A syntax or data-model error, with a human-readable message.
    Message(String),
}

impl Error {
    /// Creates a data-model error from a message.
    pub fn custom(msg: impl fmt::Display) -> Self {
        Error::Message(msg.to_string())
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Io(e) => write!(f, "io error: {e}"),
            Error::Message(msg) => f.write_str(msg),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Io(e) => Some(e),
            Error::Message(_) => None,
        }
    }
}

impl From<std::io::Error> for Error {
    fn from(e: std::io::Error) -> Self {
        Error::Io(e)
    }
}

/// Types convertible into a [`Value`].
pub trait Serialize {
    /// Converts `self` into the dynamic value model.
    fn serialize(&self) -> Value;
}

/// Types that read themselves from JSON text.
pub trait Deserialize: Sized {
    /// Reads one value of `Self` from `parser`, consuming exactly that
    /// value when it succeeds.
    ///
    /// # Errors
    ///
    /// Returns an error if the next value is malformed or does not have the
    /// expected shape.  Shape errors may leave the parser anywhere inside
    /// the value (see the [`Parser`] docs on error precedence).
    fn deserialize(parser: &mut Parser<'_>) -> Result<Self, Error>;
}

/// Looks up a field of an object by name.
///
/// # Errors
///
/// Returns an error if the field is absent.
pub fn get_field<'a>(fields: &'a [(String, Value)], name: &str) -> Result<&'a Value, Error> {
    fields
        .iter()
        .find(|(k, _)| k == name)
        .map(|(_, v)| v)
        .ok_or_else(|| missing_field(name))
}

/// The value a [`Parser::decode_field`] slot holds (derive-macro support).
///
/// # Errors
///
/// Returns the field's decode error, or ``missing field `name` `` if the
/// object had no such member.
pub fn take_field<T>(slot: Option<Result<T, Error>>, name: &str) -> Result<T, Error> {
    slot.unwrap_or_else(|| Err(missing_field(name)))
}

fn missing_field(name: &str) -> Error {
    Error::custom(format!("missing field `{name}`"))
}

macro_rules! impl_serialize_uint {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize(&self) -> Value {
                Value::UInt(*self as u64)
            }
        }
    )*};
}

impl_serialize_uint!(u8, u16, u32, u64, usize);

macro_rules! impl_serialize_int {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize(&self) -> Value {
                if *self >= 0 {
                    Value::UInt(*self as u64)
                } else {
                    Value::Int(*self as i64)
                }
            }
        }
    )*};
}

impl_serialize_int!(i8, i16, i32, i64, isize);

impl Serialize for f64 {
    fn serialize(&self) -> Value {
        Value::Float(*self)
    }
}

impl Serialize for f32 {
    fn serialize(&self) -> Value {
        Value::Float(f64::from(*self))
    }
}

impl Serialize for bool {
    fn serialize(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Serialize for String {
    fn serialize(&self) -> Value {
        Value::String(self.clone())
    }
}

impl Serialize for &str {
    fn serialize(&self) -> Value {
        Value::String((*self).to_string())
    }
}

impl Serialize for char {
    fn serialize(&self) -> Value {
        Value::String(self.to_string())
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn serialize(&self) -> Value {
        Value::Array(self.iter().map(Serialize::serialize).collect())
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn serialize(&self) -> Value {
        match self {
            Some(v) => v.serialize(),
            None => Value::Null,
        }
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn serialize(&self) -> Value {
        (**self).serialize()
    }
}

impl Serialize for Value {
    fn serialize(&self) -> Value {
        self.clone()
    }
}
