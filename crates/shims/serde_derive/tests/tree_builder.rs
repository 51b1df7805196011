//! `to_value` — the derived `serialize` run into the tree builder — must
//! build exactly the tree the earlier tree-first derive built: named
//! structs as objects in declaration order, tuple structs as arrays,
//! newtypes as their inner value, unit enums as the variant name, and
//! generic structs with each parameter's own tree in its slot.

use serde::{Deserialize, Serialize, Value};

#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct Named {
    count: u64,
    ratio: f64,
    label: String,
    flag: bool,
    items: Vec<u32>,
    missing: Option<u8>,
    kind: Kind,
}

#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct Pair(i32, String);

#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct Wrapper(u16);

#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
enum Kind {
    First,
    Second,
}

#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct Generic<T> {
    inner: T,
    tag: usize,
}

fn s(text: &str) -> Value {
    Value::String(text.to_string())
}

fn n(x: f64) -> Value {
    Value::Number(x)
}

fn named() -> Named {
    Named {
        count: 7,
        ratio: 0.25,
        label: "a \"label\"".into(),
        flag: true,
        items: vec![1, 2],
        missing: None,
        kind: Kind::Second,
    }
}

fn named_tree() -> Value {
    Value::Object(vec![
        ("count".into(), n(7.0)),
        ("ratio".into(), n(0.25)),
        ("label".into(), s("a \"label\"")),
        ("flag".into(), Value::Bool(true)),
        ("items".into(), Value::Array(vec![n(1.0), n(2.0)])),
        ("missing".into(), Value::Null),
        ("kind".into(), s("Second")),
    ])
}

#[test]
fn named_struct_is_an_object_in_declaration_order() {
    assert_eq!(named().to_value(), named_tree());
    assert_eq!(Named::from_value(&named_tree()).unwrap(), named());
}

#[test]
fn tuple_struct_is_an_array() {
    let tree = Value::Array(vec![n(-3.0), s("x")]);
    assert_eq!(Pair(-3, "x".into()).to_value(), tree);
    assert_eq!(Pair::from_value(&tree).unwrap(), Pair(-3, "x".into()));
}

#[test]
fn newtype_is_its_inner_value() {
    assert_eq!(Wrapper(9).to_value(), n(9.0));
    assert_eq!(Wrapper::from_value(&n(9.0)).unwrap(), Wrapper(9));
}

#[test]
fn unit_enum_is_its_variant_name() {
    assert_eq!(Kind::First.to_value(), s("First"));
    assert_eq!(Kind::from_value(&s("Second")).unwrap(), Kind::Second);
}

#[test]
fn generic_struct_nests_each_parameter_tree() {
    let value = Generic {
        inner: vec![Generic {
            inner: Kind::First,
            tag: 1,
        }],
        tag: 2,
    };
    let tree = Value::Object(vec![
        (
            "inner".into(),
            Value::Array(vec![Value::Object(vec![
                ("inner".into(), s("First")),
                ("tag".into(), n(1.0)),
            ])]),
        ),
        ("tag".into(), n(2.0)),
    ]);
    assert_eq!(value.to_value(), tree);
    assert_eq!(
        Generic::<Vec<Generic<Kind>>>::from_value(&tree).unwrap(),
        value
    );
    let wrapped = Generic {
        inner: named(),
        tag: 0,
    };
    assert_eq!(
        wrapped.to_value(),
        Value::Object(vec![("inner".into(), named_tree()), ("tag".into(), n(0.0))])
    );
}
