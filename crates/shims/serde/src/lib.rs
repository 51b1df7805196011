//! Offline stand-in for the `serde` crate.
//!
//! This workspace builds in hermetic environments with no crates.io access,
//! so the usual `serde` dependency is replaced by this API-subset shim. It
//! keeps the surface the workspace actually uses — `Serialize`,
//! `Deserialize`, and `#[derive(Serialize, Deserialize)]` re-exported under
//! the `derive` feature — with a much smaller data model than serde's.
//!
//! Serialization streams: [`Serialize::serialize`] walks a value and
//! reports it to a [`Serializer`] as a sequence of JSON events (`null`,
//! `bool`, `number`, `string`, and the begin/end of arrays and objects,
//! with each object field announced by `key`). `serde_json` (the sibling
//! shim) writes those events straight into its output text, so rendering a
//! report never builds an intermediate tree. The few callers that do want a
//! tree — to splice fields into a rendered object, say — call
//! [`Serialize::to_value`], which runs the same `serialize` into a
//! tree-building serializer and returns the [`Value`].
//!
//! Deserialization consumes a parsed [`Value`] tree:
//! [`Deserialize::from_value`] reads a borrowed one, and
//! [`Deserialize::from_owned`] — what `serde_json::from_str` calls — lets
//! `Value` itself take the parsed tree without a copy.
//!
//! Supported shapes (everything the workspace derives): named-field structs,
//! tuple structs, unit-only enums, and generic structs whose parameters
//! themselves implement the traits. Numbers are carried as `f64`, which is
//! exact for every counter in this workspace (all < 2⁵³).

#![deny(missing_docs)]

#[cfg(feature = "derive")]
pub use serde_derive::{Deserialize, Serialize};

/// A serialized value tree (the JSON data model).
///
/// Objects are ordered field lists rather than maps so that serialization
/// is deterministic and mirrors declaration order.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// JSON `null`.
    Null,
    /// JSON boolean.
    Bool(bool),
    /// Any JSON number (integers in this workspace are < 2⁵³, so `f64` is
    /// lossless for them).
    Number(f64),
    /// JSON string.
    String(String),
    /// JSON array.
    Array(Vec<Value>),
    /// JSON object as an ordered `(key, value)` list.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Looks up a field of an object, erroring when missing.
    ///
    /// # Errors
    ///
    /// Returns [`Error`] when `self` is not an object or lacks the field.
    pub fn get_field(&self, name: &str) -> Result<&Value, Error> {
        match self {
            Value::Object(fields) => fields
                .iter()
                .find(|(k, _)| k == name)
                .map(|(_, v)| v)
                .ok_or_else(|| Error::custom(format!("missing field `{name}`"))),
            _ => Err(Error::custom(format!(
                "expected object with field `{name}`"
            ))),
        }
    }

    /// The value as a string slice.
    ///
    /// # Errors
    ///
    /// Returns [`Error`] when `self` is not a string.
    pub fn as_str(&self) -> Result<&str, Error> {
        match self {
            Value::String(s) => Ok(s),
            _ => Err(Error::custom("expected string")),
        }
    }

    /// The value as a number.
    ///
    /// # Errors
    ///
    /// Returns [`Error`] when `self` is not a number.
    pub fn as_number(&self) -> Result<f64, Error> {
        match self {
            Value::Number(n) => Ok(*n),
            _ => Err(Error::custom("expected number")),
        }
    }

    /// The value as an array slice.
    ///
    /// # Errors
    ///
    /// Returns [`Error`] when `self` is not an array.
    pub fn as_array(&self) -> Result<&[Value], Error> {
        match self {
            Value::Array(items) => Ok(items),
            _ => Err(Error::custom("expected array")),
        }
    }
}

/// Serialization/deserialization error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error {
    message: String,
}

impl Error {
    /// Creates an error with a custom message.
    pub fn custom(message: impl Into<String>) -> Self {
        Error {
            message: message.into(),
        }
    }
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for Error {}

/// The receiving end of [`Serialize::serialize`]: one call per JSON event,
/// in document order.
///
/// A scalar is one call. An array is `begin_array`, its items, then
/// `end_array`; an object is `begin_object`, then `key` followed by that
/// field's value for each field, then `end_object`. Events are infallible;
/// a serializer that can fail (a JSON writer refusing a non-finite number)
/// remembers the failure and reports it when it finishes.
pub trait Serializer {
    /// JSON `null`.
    fn null(&mut self);
    /// A boolean.
    fn bool(&mut self, value: bool);
    /// A number.
    fn number(&mut self, value: f64);
    /// A string.
    fn string(&mut self, value: &str);
    /// Opens an array.
    fn begin_array(&mut self);
    /// Closes the innermost open array.
    fn end_array(&mut self);
    /// Opens an object.
    fn begin_object(&mut self);
    /// Names the next field of the innermost open object; its value
    /// follows.
    fn key(&mut self, key: &str);
    /// Closes the innermost open object.
    fn end_object(&mut self);
}

/// A type that can be serialized as a stream of [`Serializer`] events.
pub trait Serialize {
    /// Reports `self` to `out`, event by event.
    fn serialize<S: Serializer>(&self, out: &mut S);

    /// `self` as a value tree: [`Serialize::serialize`] run into a
    /// tree-building serializer.
    fn to_value(&self) -> Value {
        let mut tree = TreeBuilder::default();
        self.serialize(&mut tree);
        tree.finish()
    }
}

/// Builds a [`Value`] from serializer events (behind
/// [`Serialize::to_value`]).
#[derive(Default)]
struct TreeBuilder {
    /// The open containers, innermost last.
    open: Vec<Value>,
    /// The keys of the object fields whose values are still being built,
    /// innermost last.
    keys: Vec<String>,
    /// The finished top-level value.
    root: Option<Value>,
}

impl TreeBuilder {
    /// Places a finished value into the innermost open container (under
    /// its pending key, for an object) or makes it the root.
    fn place(&mut self, value: Value) {
        match self.open.last_mut() {
            None => self.root = Some(value),
            Some(Value::Array(items)) => items.push(value),
            Some(Value::Object(fields)) => {
                let key = self
                    .keys
                    .pop()
                    .expect("an object field value follows its key");
                fields.push((key, value));
            }
            Some(_) => unreachable!("only arrays and objects are ever opened"),
        }
    }

    fn close(&mut self) {
        let container = self.open.pop().expect("a close matches an open");
        self.place(container);
    }

    fn finish(self) -> Value {
        debug_assert!(self.open.is_empty(), "every open container was closed");
        self.root.unwrap_or(Value::Null)
    }
}

impl Serializer for TreeBuilder {
    fn null(&mut self) {
        self.place(Value::Null);
    }

    fn bool(&mut self, value: bool) {
        self.place(Value::Bool(value));
    }

    fn number(&mut self, value: f64) {
        self.place(Value::Number(value));
    }

    fn string(&mut self, value: &str) {
        self.place(Value::String(value.to_string()));
    }

    fn begin_array(&mut self) {
        self.open.push(Value::Array(Vec::new()));
    }

    fn end_array(&mut self) {
        self.close();
    }

    fn begin_object(&mut self) {
        self.open.push(Value::Object(Vec::new()));
    }

    fn key(&mut self, key: &str) {
        self.keys.push(key.to_string());
    }

    fn end_object(&mut self) {
        self.close();
    }
}

/// A type that can be rebuilt from a [`Value`] tree.
pub trait Deserialize: Sized {
    /// Rebuilds `Self` from a value tree.
    ///
    /// # Errors
    ///
    /// Returns [`Error`] when the tree does not match the expected shape.
    fn from_value(value: &Value) -> Result<Self, Error>;

    /// Rebuilds `Self` from a tree it may consume (what
    /// `serde_json::from_str` calls on the tree it just parsed). Types that
    /// can take the tree's parts without copying them override it.
    ///
    /// # Errors
    ///
    /// Exactly [`Deserialize::from_value`]'s.
    fn from_owned(value: Value) -> Result<Self, Error> {
        Self::from_value(&value)
    }
}

macro_rules! impl_int {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize<S: Serializer>(&self, out: &mut S) {
                out.number(*self as f64);
            }
        }
        impl Deserialize for $t {
            fn from_value(value: &Value) -> Result<Self, Error> {
                let n = value.as_number()?;
                if n.fract() != 0.0 {
                    return Err(Error::custom(format!(
                        "expected integer, got {n}"
                    )));
                }
                Ok(n as $t)
            }
        }
    )*};
}

impl_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Serialize for f64 {
    fn serialize<S: Serializer>(&self, out: &mut S) {
        out.number(*self);
    }
}

impl Deserialize for f64 {
    fn from_value(value: &Value) -> Result<Self, Error> {
        value.as_number()
    }
}

impl Serialize for f32 {
    fn serialize<S: Serializer>(&self, out: &mut S) {
        out.number(f64::from(*self));
    }
}

impl Deserialize for f32 {
    fn from_value(value: &Value) -> Result<Self, Error> {
        Ok(value.as_number()? as f32)
    }
}

impl Serialize for bool {
    fn serialize<S: Serializer>(&self, out: &mut S) {
        out.bool(*self);
    }
}

impl Deserialize for bool {
    fn from_value(value: &Value) -> Result<Self, Error> {
        match value {
            Value::Bool(b) => Ok(*b),
            _ => Err(Error::custom("expected bool")),
        }
    }
}

impl Serialize for String {
    fn serialize<S: Serializer>(&self, out: &mut S) {
        out.string(self);
    }
}

impl Deserialize for String {
    fn from_value(value: &Value) -> Result<Self, Error> {
        Ok(value.as_str()?.to_string())
    }
}

impl Serialize for str {
    fn serialize<S: Serializer>(&self, out: &mut S) {
        out.string(self);
    }
}

impl<T: Serialize> Serialize for [T] {
    fn serialize<S: Serializer>(&self, out: &mut S) {
        out.begin_array();
        for item in self {
            item.serialize(out);
        }
        out.end_array();
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn serialize<S: Serializer>(&self, out: &mut S) {
        self.as_slice().serialize(out);
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(value: &Value) -> Result<Self, Error> {
        value.as_array()?.iter().map(T::from_value).collect()
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn serialize<S: Serializer>(&self, out: &mut S) {
        match self {
            None => out.null(),
            Some(v) => v.serialize(out),
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_value(value: &Value) -> Result<Self, Error> {
        match value {
            Value::Null => Ok(None),
            other => Ok(Some(T::from_value(other)?)),
        }
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn serialize<S: Serializer>(&self, out: &mut S) {
        self.as_slice().serialize(out);
    }
}

impl<A: Serialize, B: Serialize> Serialize for (A, B) {
    fn serialize<S: Serializer>(&self, out: &mut S) {
        out.begin_array();
        self.0.serialize(out);
        self.1.serialize(out);
        out.end_array();
    }
}

impl<A: Deserialize, B: Deserialize> Deserialize for (A, B) {
    fn from_value(value: &Value) -> Result<Self, Error> {
        let items = value.as_array()?;
        if items.len() != 2 {
            return Err(Error::custom("expected 2-element array"));
        }
        Ok((A::from_value(&items[0])?, B::from_value(&items[1])?))
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn serialize<S: Serializer>(&self, out: &mut S) {
        (**self).serialize(out);
    }
}

// `Value` itself round-trips transparently, so callers can work with raw
// JSON trees (e.g. to canonicalize a request body) without a typed schema.
impl Serialize for Value {
    fn serialize<S: Serializer>(&self, out: &mut S) {
        match self {
            Value::Null => out.null(),
            Value::Bool(b) => out.bool(*b),
            Value::Number(n) => out.number(*n),
            Value::String(s) => out.string(s),
            Value::Array(items) => items.serialize(out),
            Value::Object(fields) => {
                out.begin_object();
                for (key, value) in fields {
                    out.key(key);
                    value.serialize(out);
                }
                out.end_object();
            }
        }
    }
}

impl Deserialize for Value {
    fn from_value(value: &Value) -> Result<Self, Error> {
        Ok(value.clone())
    }

    fn from_owned(value: Value) -> Result<Self, Error> {
        Ok(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_primitives() {
        assert_eq!(u64::from_value(&42u64.to_value()).unwrap(), 42);
        assert_eq!(f64::from_value(&1.5f64.to_value()).unwrap(), 1.5);
        assert_eq!(
            String::from_value(&"hi".to_string().to_value()).unwrap(),
            "hi"
        );
        assert_eq!(
            Vec::<u32>::from_value(&vec![1u32, 2, 3].to_value()).unwrap(),
            vec![1, 2, 3]
        );
        assert_eq!(Option::<u32>::from_value(&Value::Null).unwrap(), None);
    }

    #[test]
    fn integer_rejects_fraction() {
        assert!(u64::from_value(&Value::Number(1.5)).is_err());
    }

    #[test]
    fn field_lookup() {
        let v = Value::Object(vec![("a".into(), Value::Number(1.0))]);
        assert_eq!(v.get_field("a").unwrap(), &Value::Number(1.0));
        assert!(v.get_field("b").is_err());
    }

    #[test]
    fn value_to_value_rebuilds_the_same_tree() {
        let v = Value::Object(vec![
            ("empty_array".into(), Value::Array(vec![])),
            ("empty_object".into(), Value::Object(vec![])),
            (
                "nested".into(),
                Value::Array(vec![
                    Value::Object(vec![("k".into(), Value::Bool(false))]),
                    Value::Array(vec![Value::Null, Value::Number(-0.5)]),
                    Value::String("s".into()),
                ]),
            ),
        ]);
        assert_eq!(v.to_value(), v);
        assert_eq!(Value::Null.to_value(), Value::Null);
    }
}
