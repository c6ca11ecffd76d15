//! `Serialize`/`Deserialize` derives for the in-workspace serde stand-in.
//!
//! The shim's traits have defaulted methods, so a derive has two choices
//! per type: generate a *real* field-by-field body (named-field structs,
//! tuple structs and unit-only enums — every shape the workspace persists),
//! or fall back to an empty marker impl whose defaulted methods write
//! `null` and refuse to read (data-carrying enums, unions and anything
//! this hand-rolled parser cannot classify). Falling back never breaks the
//! build; it only limits what can round-trip.
//!
//! The generated `serialize` writes each struct's keys and punctuation as
//! literal byte strings around the field values; the generated
//! `deserialize` reads map entries into one `Option` slot per field, first
//! key wins, and resolves absent fields once the map is closed.
//!
//! Generic types are rejected with a clear error, as in the original no-op
//! shim: none of the deriving types in this workspace are generic.

#![forbid(unsafe_code)]

use proc_macro::{Delimiter, TokenStream, TokenTree};

/// What the derive input looks like, as far as codegen cares.
enum Shape {
    /// `struct S { a: A, b: B }` (fields `a`, `b`), `struct S(A, B);`
    /// (fields `0`, `1`, not `named`) or `struct S;` (no fields).
    Struct {
        name: String,
        named: bool,
        fields: Vec<String>,
    },
    /// `enum E { V1, V2 }` — every variant payload-free.
    UnitEnum { name: String, variants: Vec<String> },
    /// Anything else — marker impl only.
    Opaque { name: String },
}

impl Shape {
    fn name(&self) -> &str {
        match self {
            Shape::Struct { name, .. } | Shape::UnitEnum { name, .. } | Shape::Opaque { name } => {
                name
            }
        }
    }
}

/// Classifies the derive input.
///
/// Panics (surfacing as a compile error) when the item is generic, since
/// the shim does not implement bound propagation.
fn parse_shape(input: TokenStream) -> Shape {
    let mut tokens = input.into_iter().peekable();
    let keyword = loop {
        match tokens.next() {
            Some(TokenTree::Ident(ident)) => {
                let word = ident.to_string();
                if word == "struct" || word == "enum" || word == "union" {
                    break word;
                }
            }
            Some(_) => {}
            None => panic!("derive input contained no struct/enum/union"),
        }
    };
    let name = match tokens.next() {
        Some(TokenTree::Ident(name)) => name.to_string(),
        other => panic!("expected a type name after `{keyword}`, found {other:?}"),
    };
    if let Some(TokenTree::Punct(p)) = tokens.peek() {
        if p.as_char() == '<' {
            panic!(
                "the offline serde derive shim does not support generic type `{name}`; \
                 implement the traits manually"
            );
        }
    }
    match (keyword.as_str(), tokens.next()) {
        ("struct", Some(TokenTree::Group(group))) if group.delimiter() != Delimiter::Bracket => {
            let named = group.delimiter() == Delimiter::Brace;
            match parse_fields(group.stream(), named) {
                Some(fields) => Shape::Struct {
                    name,
                    named,
                    fields,
                },
                None => Shape::Opaque { name },
            }
        }
        ("struct", Some(TokenTree::Punct(p))) if p.as_char() == ';' => Shape::Struct {
            name,
            named: true,
            fields: Vec::new(),
        },
        ("enum", Some(TokenTree::Group(group))) if group.delimiter() == Delimiter::Brace => {
            match parse_unit_variants(group.stream()) {
                Some(variants) => Shape::UnitEnum { name, variants },
                None => Shape::Opaque { name },
            }
        }
        _ => Shape::Opaque { name },
    }
}

/// The field names of a struct body (`0`, `1`, ... unless `named`), or
/// `None` when a field does not parse as `[attrs] [vis] [name :] type`.
fn parse_fields(body: TokenStream, named: bool) -> Option<Vec<String>> {
    let mut tokens = body.into_iter().peekable();
    let mut fields = Vec::new();
    loop {
        skip_attributes(&mut tokens);
        if tokens.peek().is_none() {
            return Some(fields);
        }
        if matches!(tokens.peek(), Some(TokenTree::Ident(ident)) if ident.to_string() == "pub") {
            tokens.next();
            // `pub(crate)`-style restrictions carry a group.
            if let Some(TokenTree::Group(_)) = tokens.peek() {
                tokens.next();
            }
        }
        if named {
            match (tokens.next(), tokens.next()) {
                (Some(TokenTree::Ident(ident)), Some(TokenTree::Punct(p)))
                    if p.as_char() == ':' =>
                {
                    fields.push(ident.to_string())
                }
                _ => return None,
            }
        } else {
            fields.push(fields.len().to_string());
        }
        // Skip the type: everything up to the next comma outside angle
        // brackets (`<`/`>` arrive as plain punctuation, so commas inside
        // `Map<K, V>` would otherwise look like field separators).
        let mut angle_depth = 0i32;
        for token in tokens.by_ref() {
            if let TokenTree::Punct(p) = &token {
                match p.as_char() {
                    '<' => angle_depth += 1,
                    '>' => angle_depth -= 1,
                    ',' if angle_depth == 0 => break,
                    _ => {}
                }
            }
        }
    }
}

/// Extracts the variant names of a unit-only enum body, or `None` when any
/// variant carries data.
fn parse_unit_variants(body: TokenStream) -> Option<Vec<String>> {
    let mut tokens = body.into_iter().peekable();
    let mut variants = Vec::new();
    loop {
        skip_attributes(&mut tokens);
        match tokens.next() {
            None => return Some(variants),
            Some(TokenTree::Ident(ident)) => variants.push(ident.to_string()),
            Some(_) => return None,
        }
        match tokens.next() {
            None => return Some(variants),
            Some(TokenTree::Punct(p)) if p.as_char() == ',' => {}
            Some(TokenTree::Punct(p)) if p.as_char() == '=' => {
                // An explicit discriminant: still a unit variant. Consume
                // the expression up to the separating comma.
                loop {
                    match tokens.next() {
                        None => return Some(variants),
                        Some(TokenTree::Punct(p)) if p.as_char() == ',' => break,
                        Some(_) => {}
                    }
                }
            }
            Some(_) => return None,
        }
    }
}

/// Skips `#[...]` attributes (including expanded `///` doc comments).
fn skip_attributes(tokens: &mut std::iter::Peekable<impl Iterator<Item = TokenTree>>) {
    while let Some(TokenTree::Punct(p)) = tokens.peek() {
        if p.as_char() != '#' {
            break;
        }
        tokens.next();
        if let Some(TokenTree::Group(_)) = tokens.peek() {
            tokens.next();
        }
    }
}

/// A Rust string literal holding `text` (identifiers and JSON
/// punctuation: nothing to escape but `"`).
fn literal(text: &str) -> String {
    format!("\"{}\"", text.replace('"', "\\\""))
}

/// `out.write(...)` of a constant piece of JSON text.
fn write_text(text: &str) -> String {
    format!("::serde::Output::write(out, {}.as_bytes());", literal(text))
}

/// Stand-in for `#[derive(serde::Serialize)]`.
#[proc_macro_derive(Serialize)]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let shape = parse_shape(input);
    let name = shape.name();
    let body = match &shape {
        Shape::Struct { named, fields, .. } => {
            let (open, close) = if *named { ("{", "}") } else { ("[", "]") };
            let mut body = String::new();
            for (i, f) in fields.iter().enumerate() {
                let key = if *named {
                    format!("\"{f}\":")
                } else {
                    String::new()
                };
                body += &write_text(&format!("{}{key}", if i == 0 { open } else { "," }));
                body += &format!("::serde::Serialize::serialize(&self.{f}, out);");
            }
            let end = if fields.is_empty() {
                format!("{open}{close}")
            } else {
                close.to_string()
            };
            Some(body + &write_text(&end))
        }
        Shape::UnitEnum { variants, .. } => {
            let arms: Vec<String> = variants
                .iter()
                .map(|v| format!("{name}::{v} => {{ {} }}", write_text(&format!("\"{v}\""))))
                .collect();
            Some(format!("match self {{ {} }}", arms.join(", ")))
        }
        Shape::Opaque { .. } => None,
    };
    let output = match body {
        Some(body) => format!(
            "impl ::serde::Serialize for {name} {{\n\
             fn serialize<O: ::serde::Output>(&self, out: &mut O) {{ {body} }}\n\
             }}"
        ),
        None => format!("impl ::serde::Serialize for {name} {{}}"),
    };
    output.parse().expect("generated impl must parse")
}

/// Stand-in for `#[derive(serde::Deserialize)]`.
#[proc_macro_derive(Deserialize)]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let shape = parse_shape(input);
    let name = shape.name();
    let body = match &shape {
        Shape::Struct { named, fields, .. } => {
            // One slot per field, filled by the first entry that names it.
            let (mut slots, mut arms, mut values) = (String::new(), String::new(), Vec::new());
            for (i, f) in fields.iter().enumerate() {
                slots += &format!("let mut slot_{i} = ::std::option::Option::None;");
                let (key, read, resolve) = if *named {
                    (literal(f), "field", format!("{f}: ::serde::de::required"))
                } else {
                    (
                        f.clone(),
                        "element",
                        "::serde::de::required_element".to_string(),
                    )
                };
                arms += &format!(
                    "{key} if slot_{i}.is_none() => \
                     slot_{i} = ::std::option::Option::Some(::serde::de::{read}(de, {key})?),"
                );
                values.push(format!("{resolve}(slot_{i}, {key})?"));
            }
            let (reader, open, close) = if *named {
                ("map", "{", "}")
            } else {
                ("seq", "(", ")")
            };
            Some(format!(
                "{slots} de.{reader}(|de, key| {{ match key {{ {arms} _ => de.skip()?, }} \
                 ::std::result::Result::Ok(()) }})?; \
                 ::std::result::Result::Ok({name} {open} {} {close})",
                values.join(", ")
            ))
        }
        Shape::UnitEnum { variants, .. } => {
            let arms: Vec<String> = variants
                .iter()
                .map(|v| format!("{} => ::std::result::Result::Ok({name}::{v})", literal(v)))
                .collect();
            Some(format!(
                "match &*de.str(\"a variant string\")? {{ {}, other => \
                 ::std::result::Result::Err(::serde::Error::unknown_variant(other)) }}",
                arms.join(", ")
            ))
        }
        Shape::Opaque { .. } => None,
    };
    let output = match body {
        Some(body) => format!(
            "impl<'de> ::serde::Deserialize<'de> for {name} {{\n\
             fn deserialize(de: &mut ::serde::Deserializer<'de>) \
             -> ::std::result::Result<Self, ::serde::Error> {{ {body} }}\n\
             }}"
        ),
        None => format!("impl<'de> ::serde::Deserialize<'de> for {name} {{}}"),
    };
    output.parse().expect("generated impl must parse")
}
