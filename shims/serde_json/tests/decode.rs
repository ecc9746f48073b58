//! What a derived `Deserialize` accepts and which error it reports, pinned
//! through `from_str`: the messages, and which of several faults wins.

use serde::{Deserialize, Serialize, Value};
use serde_json::from_str;

#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct Point {
    x: u64,
    y: u64,
}

#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct Mixed {
    count: u8,
    name: String,
    ratio: f64,
    flags: Vec<bool>,
}

#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct Optional {
    limit: Option<u64>,
    label: Option<String>,
}

#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct Pair(u64, u64);

#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct Meters(f64);

#[derive(Debug, PartialEq, Serialize, Deserialize)]
enum Shape {
    Empty,
    Circle(f64),
    Line(u64, u64),
    Rect { w: u64, h: u64 },
}

#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct Scene {
    shapes: Vec<Shape>,
    origin: Point,
}

fn error<T: Deserialize + std::fmt::Debug>(input: &str) -> String {
    from_str::<T>(input).unwrap_err().to_string()
}

#[test]
fn a_missing_field_is_named() {
    assert_eq!(error::<Point>(r#"{"x":1}"#), "missing field `y`");
    assert_eq!(error::<Point>("{}"), "missing field `x`");
    assert_eq!(error::<Scene>(r#"{"shapes":[]}"#), "missing field `origin`");
}

#[test]
fn an_integer_out_of_range_is_rejected() {
    let mixed = |count: &str| format!(r#"{{"count":{count},"name":"n","ratio":1,"flags":[]}}"#);
    assert_eq!(error::<Mixed>(&mixed("256")), "integer out of range for u8");
    assert_eq!(error::<Mixed>(&mixed("-1")), "integer out of range for u8");
    assert_eq!(error::<u64>("-1"), "integer out of range for u64");
    assert_eq!(error::<i8>("128"), "integer out of range for i8");
    assert_eq!(from_str::<i8>("-128").unwrap(), -128);
    // Past u64 the text is not a number at all.
    assert_eq!(
        error::<u64>("18446744073709551616"),
        "invalid number `18446744073709551616`"
    );
}

#[test]
fn a_wrong_type_names_the_expected_one() {
    assert_eq!(
        error::<Point>(r#"{"x":"1","y":2}"#),
        "expected integer for u64"
    );
    assert_eq!(
        error::<Point>(r#"{"x":1.5,"y":2}"#),
        "expected integer for u64"
    );
    assert_eq!(error::<Point>("[1,2]"), "expected object for Point");
    assert_eq!(error::<Point>("null"), "expected object for Point");
    let mixed = |name: &str, ratio: &str, flags: &str| {
        format!(r#"{{"count":1,"name":{name},"ratio":{ratio},"flags":{flags}}}"#)
    };
    assert_eq!(error::<Mixed>(&mixed("7", "1", "[]")), "expected string");
    assert_eq!(
        error::<Mixed>(&mixed("\"n\"", "\"1\"", "[]")),
        "expected number for f64"
    );
    assert_eq!(error::<Mixed>(&mixed("\"n\"", "1", "{}")), "expected array");
    assert_eq!(
        error::<Mixed>(&mixed("\"n\"", "1", "[1]")),
        "expected boolean"
    );
    assert_eq!(error::<Meters>("true"), "expected number for f64");
    assert_eq!(error::<char>("\"ab\""), "expected single-character string");
    assert_eq!(
        error::<Shape>("7"),
        "expected string or single-key object for Shape"
    );
    assert_eq!(
        error::<Shape>(r#"{"Rect":[1,2]}"#),
        "expected object for Shape::Rect"
    );
}

#[test]
fn an_unknown_enum_variant_is_named() {
    assert_eq!(
        error::<Shape>(r#""Hexagon""#),
        "unknown Shape variant `Hexagon`"
    );
    assert_eq!(
        error::<Shape>(r#"{"Hexagon":6}"#),
        "unknown Shape variant `Hexagon`"
    );
    // A unit variant has only the string form, a data variant only the
    // tagged one.
    assert_eq!(
        error::<Shape>(r#"{"Empty":null}"#),
        "unknown Shape variant `Empty`"
    );
    assert_eq!(
        error::<Shape>(r#""Circle""#),
        "unknown Shape variant `Circle`"
    );
    // The tag must be the object's only key, even when it is unknown.
    assert_eq!(
        error::<Shape>(r#"{"Hexagon":6,"Circle":1}"#),
        "expected string or single-key object for Shape"
    );
    assert_eq!(
        error::<Shape>("{}"),
        "expected string or single-key object for Shape"
    );
}

#[test]
fn a_wrong_tuple_arity_is_rejected() {
    assert_eq!(
        error::<Pair>("[1,2,3]"),
        "expected 2-element array for Pair"
    );
    assert_eq!(error::<Pair>("[1]"), "expected 2-element array for Pair");
    assert_eq!(
        error::<Pair>(r#"{"0":1}"#),
        "expected 2-element array for Pair"
    );
    assert_eq!(
        error::<Shape>(r#"{"Line":[1]}"#),
        "expected 2-element array for Shape::Line"
    );
    // Arity is checked before any element is decoded.
    assert_eq!(
        error::<Pair>(r#"["a","b","c"]"#),
        "expected 2-element array for Pair"
    );
    assert_eq!(error::<Pair>(r#"[1,"b"]"#), "expected integer for u64");
}

#[test]
fn unknown_keys_are_skipped() {
    let point: Point =
        from_str(r#"{"z":{"a":[1,{"b":null}],"c":"\"}"},"x":1,"w":-2.5e3,"y":2}"#).unwrap();
    assert_eq!(point, Point { x: 1, y: 2 });
    let rect: Shape = from_str(r#"{"Rect":{"h":2,"d":[],"w":1}}"#).unwrap();
    assert_eq!(rect, Shape::Rect { w: 1, h: 2 });
}

#[test]
fn a_repeated_key_keeps_its_first_value() {
    assert_eq!(
        from_str::<Point>(r#"{"x":1,"y":2,"x":3}"#).unwrap(),
        Point { x: 1, y: 2 }
    );
    // The repeat is not decoded, so its type does not matter.
    assert_eq!(
        from_str::<Point>(r#"{"x":1,"x":"three","y":2}"#).unwrap(),
        Point { x: 1, y: 2 }
    );
    assert_eq!(
        error::<Point>(r#"{"x":"one","x":1,"y":2}"#),
        "expected integer for u64"
    );
    let value: Value = from_str(r#"{"x":1,"x":2}"#).unwrap();
    assert_eq!(
        serde::get_field(value.as_object().unwrap(), "x").unwrap(),
        &Value::UInt(1)
    );
}

#[test]
fn trailing_characters_are_rejected() {
    assert_eq!(
        error::<Point>(r#"{"x":1,"y":2} x"#),
        "trailing characters at offset 14"
    );
    assert_eq!(error::<Value>("[1] [2]"), "trailing characters at offset 4");
    // A whole-text fault wins over the value's shape.
    assert_eq!(
        error::<u64>(r#""one" two"#),
        "trailing characters at offset 6"
    );
    assert_eq!(
        from_str::<Point>(" {\"x\":1,\"y\":2}\n\t ").unwrap(),
        Point { x: 1, y: 2 }
    );
}

#[test]
fn option_fields_take_null() {
    assert_eq!(
        from_str::<Optional>(r#"{"limit":null,"label":null}"#).unwrap(),
        Optional {
            limit: None,
            label: None
        }
    );
    assert_eq!(
        from_str::<Optional>(r#"{"limit":7,"label":"l"}"#).unwrap(),
        Optional {
            limit: Some(7),
            label: Some("l".to_string())
        }
    );
    // `null` is a value, not an absent field.
    assert_eq!(
        error::<Optional>(r#"{"limit":null}"#),
        "missing field `label`"
    );
    assert_eq!(
        error::<Optional>(r#"{"limit":"7","label":null}"#),
        "expected integer for u64"
    );
}

#[test]
fn the_first_fault_in_declaration_order_wins() {
    // Declaration order, not document order.
    assert_eq!(error::<Point>(r#"{"y":"two"}"#), "missing field `x`");
    assert_eq!(
        error::<Mixed>(r#"{"flags":0,"ratio":"r","name":1,"count":300}"#),
        "integer out of range for u8"
    );
    assert_eq!(
        error::<Mixed>(r#"{"flags":0,"ratio":"r","name":1,"count":3}"#),
        "expected string"
    );
    // A syntax error anywhere wins over every shape error.
    assert_eq!(
        error::<Point>(r#"{"x":"one","y":[1,}"#),
        "unexpected Some('}') at offset 18"
    );
    assert_eq!(
        error::<Point>(r#"{"x":1,"y":2,"z":tru}"#),
        "unexpected Some('t') at offset 17"
    );
    assert_eq!(error::<Pair>("[1,2,3"), "bad array at offset 6");
    assert_eq!(
        error::<Shape>(r#"{"Line":[1],}"#),
        "expected `\"` at offset 12"
    );
    assert_eq!(error::<Point>(r#"{"x" 1}"#), "expected `:` at offset 5");
}

#[test]
fn float_fields_accept_integer_text() {
    assert_eq!(from_str::<Meters>("3").unwrap(), Meters(3.0));
    assert_eq!(from_str::<Meters>("-3").unwrap(), Meters(-3.0));
    assert_eq!(from_str::<Meters>("2.5e-1").unwrap(), Meters(0.25));
    assert_eq!(
        from_str::<Meters>("18446744073709551615").unwrap(),
        Meters(u64::MAX as f64)
    );
}

#[test]
fn derived_values_round_trip() {
    let scene = Scene {
        shapes: vec![
            Shape::Empty,
            Shape::Circle(1.0),
            Shape::Circle(0.1),
            Shape::Line(3, 4),
            Shape::Rect { w: 5, h: 6 },
        ],
        origin: Point { x: 0, y: u64::MAX },
    };
    let text = serde_json::to_string(&scene).unwrap();
    assert_eq!(
        text,
        r#"{"shapes":["Empty",{"Circle":1},{"Circle":0.1},{"Line":[3,4]},{"Rect":{"w":5,"h":6}}],"origin":{"x":0,"y":18446744073709551615}}"#
    );
    assert_eq!(from_str::<Scene>(&text).unwrap(), scene);
    let tree: Value = from_str(&text).unwrap();
    assert_eq!(tree.to_string(), text);
    assert_eq!(serde_json::to_string(&tree).unwrap(), text);
}

#[test]
fn a_unicode_escape_is_exactly_four_hex_digits() {
    // A sign is not a hex digit, even where an integer parser takes one.
    for signed in [r#""\u+0e9""#, r#""\u-0e9""#] {
        assert_eq!(error::<String>(signed), "bad unicode escape at offset 2");
        assert_eq!(error::<Value>(signed), "bad unicode escape at offset 2");
    }
    assert_eq!(from_str::<String>(r#""\u00e9""#).unwrap(), "é");
    assert_eq!(from_str::<String>(r#""é""#).unwrap(), "é");
    assert_eq!(
        from_str::<Value>(r#""\u00e9""#).unwrap(),
        Value::String("é".to_string())
    );
}

#[test]
fn unicode_escapes_take_either_case_of_hex_digit() {
    for escaped in [r#""\u00C9""#, r#""\u00c9""#] {
        assert_eq!(from_str::<String>(escaped).unwrap(), "É");
        assert_eq!(
            from_str::<Value>(escaped).unwrap(),
            Value::String("É".to_string())
        );
    }
}

#[test]
fn an_escaped_surrogate_pair_decodes_to_one_char() {
    for (escaped, decoded) in [
        (r#""\ud83d\ude00""#, "\u{1F600}"),
        (r#""\uD83D\uDE00""#, "\u{1F600}"),
        (r#""a\ud800\udc00b""#, "a\u{10000}b"),
        (r#""\udbff\udfff""#, "\u{10FFFF}"),
    ] {
        assert_eq!(from_str::<String>(escaped).unwrap(), decoded);
        assert_eq!(
            from_str::<Value>(escaped).unwrap(),
            Value::String(decoded.to_string())
        );
    }
}

#[test]
fn a_lone_or_reversed_surrogate_is_rejected() {
    // A low surrogate first, a high one followed by no escape, by an
    // escape that is no low surrogate, or by a short one.
    for bad in [
        r#""\udc00\ud800""#,
        r#""\udc00""#,
        r#""\ud800x""#,
        r#""\ud800\u0041""#,
        r#""\ud800\ud800""#,
        r#""\ud800\udc0""#,
    ] {
        assert_eq!(error::<String>(bad), "bad unicode escape at offset 2");
        assert_eq!(error::<Value>(bad), "bad unicode escape at offset 2");
    }
}

#[test]
fn a_short_or_surrogate_unicode_escape_is_rejected() {
    // Three digits then the quote, input ending mid-escape, and a lone
    // UTF-16 surrogate, which is no char.
    for bad in [r#""\u0e9""#, r#""\u00e"#, r#""\ud800""#] {
        assert_eq!(error::<String>(bad), "bad unicode escape at offset 2");
        assert_eq!(error::<Value>(bad), "bad unicode escape at offset 2");
    }
}
