//! `#[derive(Serialize, Deserialize)]` for the offline `serde` shim.
//!
//! Implemented directly on `proc_macro::TokenStream` (neither `syn` nor
//! `quote` is available in hermetic builds). The parser handles the shapes
//! this workspace derives on:
//!
//! * named-field structs (any visibility, optional generics),
//! * tuple structs (newtype transparency for single-field ones),
//! * unit-only enums (serialized as the variant-name string).
//!
//! `Serialize` is derived as a `serialize` method that reports the fields,
//! in declaration order, to the `serde::Serializer` it is given (the trait's
//! provided `to_value` builds a tree from those same events);
//! `Deserialize` as a `from_value` that reads them back from a tree.
//!
//! Anything else (enums with payloads, unions) is rejected with a
//! `compile_error!` so a future mismatch fails loudly at build time rather
//! than silently misbehaving at run time.

use proc_macro::{Delimiter, TokenStream, TokenTree};

enum Shape {
    Named(Vec<String>),
    Tuple(usize),
    UnitEnum(Vec<String>),
}

struct Item {
    name: String,
    generics: Vec<String>,
    shape: Shape,
}

fn compile_error(msg: &str) -> TokenStream {
    format!("compile_error!({msg:?});").parse().unwrap()
}

/// Consumes leading attributes (`#[...]`, including doc comments) and a
/// visibility qualifier from `tokens[*i]` onward.
fn skip_attrs_and_vis(tokens: &[TokenTree], i: &mut usize) {
    loop {
        match tokens.get(*i) {
            Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                *i += 1; // '#'
                if matches!(tokens.get(*i), Some(TokenTree::Group(_))) {
                    *i += 1; // '[...]'
                }
            }
            Some(TokenTree::Ident(id)) if id.to_string() == "pub" => {
                *i += 1;
                if let Some(TokenTree::Group(g)) = tokens.get(*i) {
                    if g.delimiter() == Delimiter::Parenthesis {
                        *i += 1; // pub(crate) / pub(super)
                    }
                }
            }
            _ => return,
        }
    }
}

/// Parses `<...>` starting at `tokens[*i]` (which must be `<`), returning
/// the type-parameter names. Lifetimes, bounds and defaults are skipped.
fn parse_generics(tokens: &[TokenTree], i: &mut usize) -> Vec<String> {
    let mut params = Vec::new();
    let mut depth = 0i32;
    // True at `<` or at a `,` separating top-level parameters: the next
    // plain ident is a type-parameter name.
    let mut at_param_start = false;
    while let Some(tok) = tokens.get(*i) {
        match tok {
            TokenTree::Punct(p) if p.as_char() == '<' => {
                depth += 1;
                if depth == 1 {
                    at_param_start = true;
                }
            }
            TokenTree::Punct(p) if p.as_char() == '>' => {
                depth -= 1;
                if depth == 0 {
                    *i += 1;
                    return params;
                }
            }
            TokenTree::Punct(p) if p.as_char() == ',' && depth == 1 => {
                at_param_start = true;
            }
            TokenTree::Punct(p) if p.as_char() == '\'' => {
                // Lifetime: the following ident is not a type parameter.
                *i += 1;
                at_param_start = false;
            }
            TokenTree::Ident(id) if at_param_start && depth == 1 => {
                let name = id.to_string();
                if name != "const" {
                    params.push(name);
                }
                at_param_start = false;
            }
            _ => {}
        }
        *i += 1;
    }
    params
}

/// Parses the fields of a named-field struct body.
fn parse_named_fields(group: &proc_macro::Group) -> Result<Vec<String>, String> {
    let tokens: Vec<TokenTree> = group.stream().into_iter().collect();
    let mut fields = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        skip_attrs_and_vis(&tokens, &mut i);
        let Some(TokenTree::Ident(name)) = tokens.get(i) else {
            if i >= tokens.len() {
                break;
            }
            return Err(format!("unexpected token in struct body: {:?}", tokens[i]));
        };
        fields.push(name.to_string());
        i += 1;
        match tokens.get(i) {
            Some(TokenTree::Punct(p)) if p.as_char() == ':' => i += 1,
            other => return Err(format!("expected `:` after field, got {other:?}")),
        }
        // Skip the type: consume until a `,` at angle depth 0.
        let mut depth = 0i32;
        while let Some(tok) = tokens.get(i) {
            match tok {
                TokenTree::Punct(p) if p.as_char() == '<' => depth += 1,
                TokenTree::Punct(p) if p.as_char() == '>' => depth -= 1,
                TokenTree::Punct(p) if p.as_char() == ',' && depth == 0 => {
                    i += 1;
                    break;
                }
                _ => {}
            }
            i += 1;
        }
    }
    Ok(fields)
}

/// Counts the fields of a tuple-struct body (commas at angle depth 0).
fn count_tuple_fields(group: &proc_macro::Group) -> usize {
    let tokens: Vec<TokenTree> = group.stream().into_iter().collect();
    if tokens.is_empty() {
        return 0;
    }
    let mut depth = 0i32;
    let mut fields = 1;
    let mut trailing_comma = false;
    for tok in &tokens {
        trailing_comma = false;
        match tok {
            TokenTree::Punct(p) if p.as_char() == '<' => depth += 1,
            TokenTree::Punct(p) if p.as_char() == '>' => depth -= 1,
            TokenTree::Punct(p) if p.as_char() == ',' && depth == 0 => {
                fields += 1;
                trailing_comma = true;
            }
            _ => {}
        }
    }
    if trailing_comma {
        fields -= 1;
    }
    fields
}

/// Parses the variants of an enum body, requiring them all to be unit.
fn parse_unit_variants(group: &proc_macro::Group) -> Result<Vec<String>, String> {
    let tokens: Vec<TokenTree> = group.stream().into_iter().collect();
    let mut variants = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        skip_attrs_and_vis(&tokens, &mut i);
        let Some(TokenTree::Ident(name)) = tokens.get(i) else {
            if i >= tokens.len() {
                break;
            }
            return Err(format!("unexpected token in enum body: {:?}", tokens[i]));
        };
        variants.push(name.to_string());
        i += 1;
        match tokens.get(i) {
            None => break,
            Some(TokenTree::Punct(p)) if p.as_char() == ',' => i += 1,
            Some(TokenTree::Group(_)) => {
                return Err(format!(
                    "the serde shim derive only supports unit enum variants; \
                     variant `{}` carries data",
                    variants.last().unwrap()
                ));
            }
            Some(TokenTree::Punct(p)) if p.as_char() == '=' => {
                // Explicit discriminant: skip to the next top-level comma.
                i += 1;
                while let Some(tok) = tokens.get(i) {
                    i += 1;
                    if matches!(tok, TokenTree::Punct(p) if p.as_char() == ',') {
                        break;
                    }
                }
            }
            Some(other) => return Err(format!("unexpected token after variant: {other:?}")),
        }
    }
    Ok(variants)
}

fn parse_item(input: TokenStream) -> Result<Item, String> {
    let tokens: Vec<TokenTree> = input.into_iter().collect();
    let mut i = 0;
    skip_attrs_and_vis(&tokens, &mut i);
    let kind = match tokens.get(i) {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => return Err(format!("expected `struct` or `enum`, got {other:?}")),
    };
    i += 1;
    let name = match tokens.get(i) {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => return Err(format!("expected item name, got {other:?}")),
    };
    i += 1;
    let generics = match tokens.get(i) {
        Some(TokenTree::Punct(p)) if p.as_char() == '<' => parse_generics(&tokens, &mut i),
        _ => Vec::new(),
    };
    match kind.as_str() {
        "struct" => match tokens.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => Ok(Item {
                name,
                generics,
                shape: Shape::Named(parse_named_fields(g)?),
            }),
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => Ok(Item {
                name,
                generics,
                shape: Shape::Tuple(count_tuple_fields(g)),
            }),
            _ => Err("unit structs are not supported by the serde shim derive".into()),
        },
        "enum" => match tokens.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => Ok(Item {
                name,
                generics,
                shape: Shape::UnitEnum(parse_unit_variants(g)?),
            }),
            other => Err(format!("expected enum body, got {other:?}")),
        },
        other => Err(format!("cannot derive for `{other}` items")),
    }
}

/// `impl<T: Bound, U: Bound> Trait for Name<T, U>` header pieces.
fn impl_header(item: &Item, bound: &str) -> (String, String) {
    if item.generics.is_empty() {
        (String::new(), item.name.clone())
    } else {
        let params: Vec<String> = item
            .generics
            .iter()
            .map(|g| format!("{g}: {bound}"))
            .collect();
        (
            format!("<{}>", params.join(", ")),
            format!("{}<{}>", item.name, item.generics.join(", ")),
        )
    }
}

fn derive_serialize_impl(item: &Item) -> String {
    let (generics, ty) = impl_header(item, "::serde::Serialize");
    let body = match &item.shape {
        Shape::Named(fields) => {
            let fields: String = fields
                .iter()
                .map(|f| format!("out.key({f:?}); ::serde::Serialize::serialize(&self.{f}, out);"))
                .collect();
            format!("out.begin_object(); {fields} out.end_object();")
        }
        Shape::Tuple(1) => "::serde::Serialize::serialize(&self.0, out);".to_string(),
        Shape::Tuple(n) => {
            let items: String = (0..*n)
                .map(|k| format!("::serde::Serialize::serialize(&self.{k}, out);"))
                .collect();
            format!("out.begin_array(); {items} out.end_array();")
        }
        Shape::UnitEnum(variants) => {
            let arms: Vec<String> = variants
                .iter()
                .map(|v| format!("Self::{v} => {v:?},"))
                .collect();
            format!("out.string(match self {{ {} }});", arms.join(" "))
        }
    };
    format!(
        "impl{generics} ::serde::Serialize for {ty} {{\n\
             fn serialize<__S: ::serde::Serializer>(&self, out: &mut __S) {{ {body} }}\n\
         }}"
    )
}

fn derive_deserialize_impl(item: &Item) -> String {
    let (generics, ty) = impl_header(item, "::serde::Deserialize");
    let body = match &item.shape {
        Shape::Named(fields) => {
            let inits: Vec<String> = fields
                .iter()
                .map(|f| format!("{f}: ::serde::Deserialize::from_value(value.get_field({f:?})?)?"))
                .collect();
            format!("Ok(Self {{ {} }})", inits.join(", "))
        }
        Shape::Tuple(1) => "Ok(Self(::serde::Deserialize::from_value(value)?))".to_string(),
        Shape::Tuple(n) => {
            let inits: Vec<String> = (0..*n)
                .map(|k| format!("::serde::Deserialize::from_value(&items[{k}])?"))
                .collect();
            format!(
                "let items = value.as_array()?;\n\
                 if items.len() != {n} {{\n\
                     return Err(::serde::Error::custom(\"wrong tuple arity\"));\n\
                 }}\n\
                 Ok(Self({}))",
                inits.join(", ")
            )
        }
        Shape::UnitEnum(variants) => {
            let arms: Vec<String> = variants
                .iter()
                .map(|v| format!("{v:?} => Ok(Self::{v}),"))
                .collect();
            format!(
                "match value.as_str()? {{ {} other => Err(::serde::Error::custom(\
                     format!(\"unknown variant `{{other}}`\"))) }}",
                arms.join(" ")
            )
        }
    };
    format!(
        "impl{generics} ::serde::Deserialize for {ty} {{\n\
             fn from_value(value: &::serde::Value) -> Result<Self, ::serde::Error> {{\n\
                 {body}\n\
             }}\n\
         }}"
    )
}

/// Derives `serde::Serialize` (shim) for structs and unit enums.
#[proc_macro_derive(Serialize)]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    match parse_item(input) {
        Ok(item) => derive_serialize_impl(&item).parse().unwrap(),
        Err(e) => compile_error(&e),
    }
}

/// Derives `serde::Deserialize` (shim) for structs and unit enums.
#[proc_macro_derive(Deserialize)]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    match parse_item(input) {
        Ok(item) => derive_deserialize_impl(&item).parse().unwrap(),
        Err(e) => compile_error(&e),
    }
}
