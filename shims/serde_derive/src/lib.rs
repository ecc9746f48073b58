//! Offline shim of `serde_derive`.
//!
//! Implements `#[derive(Serialize)]` and `#[derive(Deserialize)]` for the
//! shim `serde` crate without `syn`/`quote` (neither is available offline):
//! the item is parsed directly from the raw token stream.  `Serialize`
//! builds the shim's `Value` tree; `Deserialize` reads the type straight
//! from the shim's streaming JSON `Parser`, with no tree in between.
//! Supported shapes cover everything this workspace derives —
//!
//! * structs with named fields,
//! * tuple structs (a single field serialises transparently; the
//!   `#[serde(transparent)]` helper attribute is accepted and implied),
//! * unit structs,
//! * enums with unit, newtype, tuple and struct variants, using serde's
//!   externally-tagged representation (`"Variant"`,
//!   `{"Variant": value}`, `{"Variant": {..fields..}}`).
//!
//! Generic types and other `#[serde(...)]` helper attributes are not
//! supported and produce a compile error naming the offending item.

use proc_macro::{Delimiter, TokenStream, TokenTree};

/// Parsed shape of the item the derive is attached to.
enum Item {
    /// `struct S { f1: T1, ... }`
    NamedStruct { name: String, fields: Vec<String> },
    /// `struct S(T1, ...);` — `arity` is the number of fields.
    TupleStruct { name: String, arity: usize },
    /// `struct S;`
    UnitStruct { name: String },
    /// `enum E { ... }`
    Enum {
        name: String,
        variants: Vec<Variant>,
    },
}

/// One enum variant.
struct Variant {
    name: String,
    kind: VariantKind,
}

enum VariantKind {
    Unit,
    Tuple(usize),
    Named(Vec<String>),
}

/// Derives `serde::Serialize` via the shim's `Value` data model.
#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    match parse_item(input) {
        Ok(item) => gen_serialize(&item).parse().unwrap(),
        Err(msg) => compile_error(&msg),
    }
}

/// Derives `serde::Deserialize` by driving the shim's streaming
/// `serde::Parser`.
///
/// A struct with named fields dispatches on each key: unknown keys are
/// skipped, a repeated key keeps its first value, and once the object ends
/// the fields are taken in declaration order, so the first missing
/// (``missing field `x` ``) or failing field in that order is the error.
/// Enums, tuple structs and tuple variants read the externally tagged
/// forms `Serialize` writes, with the same error messages as a decode from
/// a `Value` tree.
#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    match parse_item(input) {
        Ok(item) => gen_deserialize(&item).parse().unwrap(),
        Err(msg) => compile_error(&msg),
    }
}

fn compile_error(msg: &str) -> TokenStream {
    format!("::std::compile_error!({msg:?});").parse().unwrap()
}

// ---------------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------------

fn parse_item(input: TokenStream) -> Result<Item, String> {
    let tokens: Vec<TokenTree> = input.into_iter().collect();
    let mut i = 0;

    skip_attributes(&tokens, &mut i);
    skip_visibility(&tokens, &mut i);

    let keyword = match tokens.get(i) {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => {
            return Err(format!(
                "serde_derive shim: expected struct/enum, got {other:?}"
            ))
        }
    };
    i += 1;

    let name = match tokens.get(i) {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => {
            return Err(format!(
                "serde_derive shim: expected type name, got {other:?}"
            ))
        }
    };
    i += 1;

    if matches!(tokens.get(i), Some(TokenTree::Punct(p)) if p.as_char() == '<') {
        return Err(format!(
            "serde_derive shim: generic type `{name}` is not supported"
        ));
    }

    match keyword.as_str() {
        "struct" => match tokens.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                Ok(Item::NamedStruct {
                    name,
                    fields: parse_named_fields(g.stream())?,
                })
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                Ok(Item::TupleStruct {
                    name,
                    arity: count_tuple_fields(g.stream()),
                })
            }
            Some(TokenTree::Punct(p)) if p.as_char() == ';' => Ok(Item::UnitStruct { name }),
            other => Err(format!(
                "serde_derive shim: unsupported struct body for `{name}`: {other:?}"
            )),
        },
        "enum" => match tokens.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => Ok(Item::Enum {
                name,
                variants: parse_variants(g.stream())?,
            }),
            other => Err(format!(
                "serde_derive shim: unsupported enum body for `{name}`: {other:?}"
            )),
        },
        other => Err(format!(
            "serde_derive shim: expected `struct` or `enum`, got `{other}`"
        )),
    }
}

/// Skips any number of outer attributes (`#[...]`), including doc comments.
fn skip_attributes(tokens: &[TokenTree], i: &mut usize) {
    while matches!(tokens.get(*i), Some(TokenTree::Punct(p)) if p.as_char() == '#') {
        *i += 1;
        if matches!(tokens.get(*i), Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Bracket)
        {
            *i += 1;
        }
    }
}

/// Skips `pub`, `pub(crate)`, `pub(in path)`.
fn skip_visibility(tokens: &[TokenTree], i: &mut usize) {
    if matches!(tokens.get(*i), Some(TokenTree::Ident(id)) if id.to_string() == "pub") {
        *i += 1;
        if matches!(tokens.get(*i), Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis)
        {
            *i += 1;
        }
    }
}

/// Advances past a type (or expression) until a top-level `,`, tracking
/// angle-bracket depth so commas inside generics don't terminate early.
fn skip_until_comma(tokens: &[TokenTree], i: &mut usize) {
    let mut angle_depth = 0i32;
    while let Some(tok) = tokens.get(*i) {
        if let TokenTree::Punct(p) = tok {
            match p.as_char() {
                '<' => angle_depth += 1,
                '>' => angle_depth -= 1,
                ',' if angle_depth == 0 => return,
                _ => {}
            }
        }
        *i += 1;
    }
}

fn parse_named_fields(stream: TokenStream) -> Result<Vec<String>, String> {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    let mut fields = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        skip_attributes(&tokens, &mut i);
        skip_visibility(&tokens, &mut i);
        match tokens.get(i) {
            Some(TokenTree::Ident(id)) => fields.push(id.to_string()),
            None => break,
            other => {
                return Err(format!(
                    "serde_derive shim: expected field name, got {other:?}"
                ))
            }
        }
        i += 1;
        match tokens.get(i) {
            Some(TokenTree::Punct(p)) if p.as_char() == ':' => i += 1,
            other => return Err(format!("serde_derive shim: expected `:`, got {other:?}")),
        }
        skip_until_comma(&tokens, &mut i);
        i += 1; // consume the comma (or run off the end)
    }
    Ok(fields)
}

/// Counts tuple-struct / tuple-variant fields: top-level commas plus one.
fn count_tuple_fields(stream: TokenStream) -> usize {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    if tokens.is_empty() {
        return 0;
    }
    let mut count = 1;
    let mut angle_depth = 0i32;
    for (idx, tok) in tokens.iter().enumerate() {
        if let TokenTree::Punct(p) = tok {
            match p.as_char() {
                '<' => angle_depth += 1,
                '>' => angle_depth -= 1,
                // A trailing comma does not introduce a new field.
                ',' if angle_depth == 0 && idx + 1 < tokens.len() => count += 1,
                _ => {}
            }
        }
    }
    count
}

fn parse_variants(stream: TokenStream) -> Result<Vec<Variant>, String> {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    let mut variants = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        skip_attributes(&tokens, &mut i);
        let name = match tokens.get(i) {
            Some(TokenTree::Ident(id)) => id.to_string(),
            None => break,
            other => {
                return Err(format!(
                    "serde_derive shim: expected variant name, got {other:?}"
                ))
            }
        };
        i += 1;
        let kind = match tokens.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                let fields = parse_named_fields(g.stream())?;
                i += 1;
                VariantKind::Named(fields)
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                let arity = count_tuple_fields(g.stream());
                i += 1;
                VariantKind::Tuple(arity)
            }
            _ => VariantKind::Unit,
        };
        // Skip an explicit discriminant, then the trailing comma.
        skip_until_comma(&tokens, &mut i);
        i += 1;
        variants.push(Variant { name, kind });
    }
    Ok(variants)
}

// ---------------------------------------------------------------------------
// Code generation
// ---------------------------------------------------------------------------

fn impl_header(trait_name: &str, type_name: &str) -> String {
    format!(
        "#[automatically_derived]\n#[allow(warnings, clippy::all)]\nimpl ::serde::{trait_name} for {type_name} "
    )
}

fn object_literal(entries: &[(String, String)]) -> String {
    let fields: Vec<String> = entries
        .iter()
        .map(|(k, v)| format!("(::std::string::String::from({k:?}), {v})"))
        .collect();
    format!("::serde::Value::Object(::std::vec![{}])", fields.join(", "))
}

fn gen_serialize(item: &Item) -> String {
    let (name, body) = match item {
        Item::NamedStruct { name, fields } => {
            let entries: Vec<(String, String)> = fields
                .iter()
                .map(|f| {
                    (
                        f.clone(),
                        format!("::serde::Serialize::serialize(&self.{f})"),
                    )
                })
                .collect();
            (name, object_literal(&entries))
        }
        Item::TupleStruct { name, arity: 0 } => (name, "::serde::Value::Null".to_string()),
        Item::TupleStruct { name, arity: 1 } => {
            (name, "::serde::Serialize::serialize(&self.0)".to_string())
        }
        Item::TupleStruct { name, arity } => {
            let items: Vec<String> = (0..*arity)
                .map(|k| format!("::serde::Serialize::serialize(&self.{k})"))
                .collect();
            (
                name,
                format!("::serde::Value::Array(::std::vec![{}])", items.join(", ")),
            )
        }
        Item::UnitStruct { name } => (name, "::serde::Value::Null".to_string()),
        Item::Enum { name, variants } => {
            let arms: Vec<String> = variants
                .iter()
                .map(|v| {
                    let vname = &v.name;
                    match &v.kind {
                        VariantKind::Unit => format!(
                            "{name}::{vname} => ::serde::Value::String(::std::string::String::from({vname:?}))"
                        ),
                        VariantKind::Tuple(1) => {
                            let inner = "::serde::Serialize::serialize(__field0)".to_string();
                            let obj = object_literal(&[(vname.clone(), inner)]);
                            format!("{name}::{vname}(__field0) => {obj}")
                        }
                        VariantKind::Tuple(arity) => {
                            let binds: Vec<String> =
                                (0..*arity).map(|k| format!("__field{k}")).collect();
                            let items: Vec<String> = binds
                                .iter()
                                .map(|b| format!("::serde::Serialize::serialize({b})"))
                                .collect();
                            let inner = format!(
                                "::serde::Value::Array(::std::vec![{}])",
                                items.join(", ")
                            );
                            let obj = object_literal(&[(vname.clone(), inner)]);
                            format!("{name}::{vname}({}) => {obj}", binds.join(", "))
                        }
                        VariantKind::Named(fields) => {
                            let entries: Vec<(String, String)> = fields
                                .iter()
                                .map(|f| (f.clone(), format!("::serde::Serialize::serialize({f})")))
                                .collect();
                            let obj =
                                object_literal(&[(vname.clone(), object_literal(&entries))]);
                            format!("{name}::{vname} {{ {} }} => {obj}", fields.join(", "))
                        }
                    }
                })
                .collect();
            (name, format!("match self {{ {} }}", arms.join(", ")))
        }
    };
    format!(
        "{}{{ fn serialize(&self) -> ::serde::Value {{ {body} }} }}",
        impl_header("Serialize", name)
    )
}

/// Reads the members of an object into one slot per field, then builds
/// `type_path` from the slots in declaration order, so the first missing
/// or failing field in that order is the error reported.  Evaluates to the
/// constructed value (or returns the error).
fn named_fields_body(type_path: &str, fields: &[String]) -> String {
    let slots: String = (0..fields.len())
        .map(|k| format!("let mut __f{k} = ::std::option::Option::None; "))
        .collect();
    let arms: String = fields
        .iter()
        .enumerate()
        .map(|(k, f)| format!("{f:?} => __p.decode_field(&mut __f{k})?, "))
        .collect();
    let inits: Vec<String> = fields
        .iter()
        .enumerate()
        .map(|(k, f)| format!("{f}: ::serde::take_field(__f{k}, {f:?})?"))
        .collect();
    format!(
        "{{ {slots}\
         let mut __key = __p.begin_object(\"expected object for {type_path}\")?; \
         while let ::std::option::Option::Some(__k) = __key {{ \
         match &*__k {{ {arms}_ => __p.skip_value()?, }} \
         __key = __p.next_key()?; }} \
         {type_path} {{ {inits} }} }}",
        inits = inits.join(", ")
    )
}

/// Reads the `arity`-element array form of a tuple struct or variant and
/// evaluates to `ctor(...)` over its elements.
fn tuple_body(ctor: &str, arity: usize) -> String {
    let reads: String = (0..arity)
        .map(|k| format!("let __v{k} = __p.element()?; "))
        .collect();
    let args: Vec<String> = (0..arity).map(|k| format!("__v{k}")).collect();
    format!(
        "{{ __p.begin_tuple({arity}, \"expected {arity}-element array for {ctor}\")?; \
         {reads}{ctor}({}) }}",
        args.join(", ")
    )
}

fn gen_deserialize(item: &Item) -> String {
    let ok = |value: String| format!("::std::result::Result::Ok({value})");
    let (name, body) = match item {
        Item::NamedStruct { name, fields } => (name, ok(named_fields_body(name, fields))),
        // A field-less struct has nothing to read: any value is skipped.
        Item::TupleStruct { name, arity: 0 } => (
            name,
            format!("__p.skip_value()?; {}", ok(format!("{name}()"))),
        ),
        Item::TupleStruct { name, arity: 1 } => (
            name,
            ok(format!("{name}(::serde::Deserialize::deserialize(__p)?)")),
        ),
        Item::TupleStruct { name, arity } => (name, ok(tuple_body(name, *arity))),
        Item::UnitStruct { name } => (name, format!("__p.skip_value()?; {}", ok(name.clone()))),
        Item::Enum { name, variants } => {
            let unknown = format!(
                "__other => return ::std::result::Result::Err(::serde::Error::custom(\
                 ::std::format!(\"unknown {name} variant `{{__other}}`\"))),"
            );
            let unit_arms: String = variants
                .iter()
                .filter(|v| matches!(v.kind, VariantKind::Unit))
                .map(|v| format!("{:?} => {name}::{},", v.name, v.name))
                .collect();
            let data_arms: String = variants
                .iter()
                .filter_map(|v| {
                    let vname = &v.name;
                    let path = format!("{name}::{vname}");
                    let value = match &v.kind {
                        VariantKind::Unit => return None,
                        VariantKind::Tuple(1) => {
                            format!("{path}(::serde::Deserialize::deserialize(__p)?)")
                        }
                        VariantKind::Tuple(arity) => tuple_body(&path, *arity),
                        VariantKind::Named(fields) => named_fields_body(&path, fields),
                    };
                    Some(format!("{vname:?} => {value},"))
                })
                .collect();
            let expected = format!("expected string or single-key object for {name}");
            let body = format!(
                "match __p.peek() {{ \
                 ::std::option::Option::Some(b'\"') => {{ \
                 let __tag = __p.parse_str()?; \
                 {ok_unit} }} \
                 ::std::option::Option::Some(b'{{') => {{ \
                 let __tag = __p.begin_variant({expected:?})?; \
                 let __value = match &*__tag {{ {data_arms} {unknown} }}; \
                 __p.end_variant()?; \
                 ::std::result::Result::Ok(__value) }} \
                 _ => ::std::result::Result::Err(::serde::Error::custom({expected:?})), }}",
                ok_unit = ok(format!("match &*__tag {{ {unit_arms} {unknown} }}")),
            );
            (name, body)
        }
    };
    format!(
        "{}{{ fn deserialize(__p: &mut ::serde::Parser<'_>) -> \
         ::std::result::Result<Self, ::serde::Error> {{ {body} }} }}",
        impl_header("Deserialize", name)
    )
}
