#![warn(missing_docs)]
// The shim implements the traits for std's `HashMap` as the real serde
// does; clippy.toml's ban on hash containers is for the simulation crates.
#![allow(clippy::disallowed_types)]

//! # serde (offline stand-in)
//!
//! The build container for this repository has no network access and no
//! cargo registry cache, so the real `serde` crate cannot be fetched. This
//! crate is a deliberately small, in-tree replacement providing exactly the
//! surface the workspace uses:
//!
//! * `#[derive(Serialize, Deserialize)]` on non-generic structs with named
//!   fields and on enums with unit, tuple, and struct variants (via the
//!   sibling `serde_derive` proc-macro crate, which parses token streams by
//!   hand — no `syn`/`quote`);
//! * a self-describing [`Value`] data model that `serde_json` (also
//!   in-tree) renders to and parses from JSON text.
//!
//! It is **not** API-compatible with the real serde beyond that surface —
//! there is no `Serializer`/`Deserializer` pair, no borrowed
//! deserialization, and no `#[serde(...)]` attributes. If a future change
//! needs more, extend this crate rather than adding a registry dependency.

use std::collections::HashMap;

pub use serde_derive::{Deserialize, Serialize};

/// A self-describing tree of JSON-compatible data.
///
/// Numbers keep their integer-ness where possible so that `u64` counters
/// round-trip exactly; non-finite floats are preserved via the
/// `Infinity`/`-Infinity`/`NaN` literals (the same convention Python's
/// `json` module uses).
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// JSON `null`.
    Null,
    /// JSON `true`/`false`.
    Bool(bool),
    /// A negative integer (or any value serialized from a signed type).
    Int(i64),
    /// A nonnegative integer serialized from an unsigned type.
    UInt(u64),
    /// A floating-point number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Value>),
    /// An object; insertion-ordered (maps are sorted by key on serialize so
    /// output is deterministic).
    Object(Vec<(String, Value)>),
}

impl Value {
    /// The entries of an object, if this is one.
    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Object(entries) => Some(entries),
            _ => None,
        }
    }

    /// The elements of an array, if this is one.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Look up an object field by name.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_object()?
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }
}

/// Error produced when a [`Value`] does not match the requested shape.
#[derive(Debug, Clone)]
pub struct DeError {
    message: String,
}

impl DeError {
    /// An error with a free-form message.
    pub fn new(message: impl Into<String>) -> Self {
        Self {
            message: message.into(),
        }
    }

    /// An error noting what was expected.
    pub fn expected(what: &str) -> Self {
        Self::new(format!("expected {what}"))
    }
}

impl std::fmt::Display for DeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "deserialization error: {}", self.message)
    }
}

impl std::error::Error for DeError {}

/// Types that can render themselves into a [`Value`].
pub trait Serialize {
    /// Convert to the data model.
    fn to_json_value(&self) -> Value;
}

/// Types that can be rebuilt from a [`Value`].
pub trait Deserialize: Sized {
    /// Rebuild from the data model.
    fn from_json_value(v: &Value) -> Result<Self, DeError>;
}

/// Fetch and deserialize a named field of an object (derive support).
pub fn from_field<T: Deserialize>(v: &Value, name: &str) -> Result<T, DeError> {
    let field = v
        .get(name)
        .ok_or_else(|| DeError::new(format!("missing field `{name}`")))?;
    T::from_json_value(field).map_err(|e| DeError::new(format!("field `{name}`: {}", e.message)))
}

/// Build the externally-tagged object `{name: value}` (derive support).
pub fn variant_obj(name: &str, value: Value) -> Value {
    Value::Object(vec![(name.to_string(), value)])
}

macro_rules! impl_uint {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_json_value(&self) -> Value {
                Value::UInt(*self as u64)
            }
        }
        impl Deserialize for $t {
            fn from_json_value(v: &Value) -> Result<Self, DeError> {
                let raw = match *v {
                    Value::UInt(u) => u,
                    Value::Int(i) if i >= 0 => i as u64,
                    _ => return Err(DeError::expected("unsigned integer")),
                };
                <$t>::try_from(raw).map_err(|_| DeError::expected("in-range unsigned integer"))
            }
        }
    )*};
}
impl_uint!(u8, u16, u32, u64, usize);

macro_rules! impl_int {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_json_value(&self) -> Value {
                Value::Int(*self as i64)
            }
        }
        impl Deserialize for $t {
            fn from_json_value(v: &Value) -> Result<Self, DeError> {
                let raw = match *v {
                    Value::Int(i) => i,
                    Value::UInt(u) => {
                        i64::try_from(u).map_err(|_| DeError::expected("in-range integer"))?
                    }
                    _ => return Err(DeError::expected("integer")),
                };
                <$t>::try_from(raw).map_err(|_| DeError::expected("in-range integer"))
            }
        }
    )*};
}
impl_int!(i8, i16, i32, i64, isize);

macro_rules! impl_float {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_json_value(&self) -> Value {
                Value::Float(*self as f64)
            }
        }
        impl Deserialize for $t {
            fn from_json_value(v: &Value) -> Result<Self, DeError> {
                match *v {
                    Value::Float(x) => Ok(x as $t),
                    Value::Int(i) => Ok(i as $t),
                    Value::UInt(u) => Ok(u as $t),
                    _ => Err(DeError::expected("number")),
                }
            }
        }
    )*};
}
impl_float!(f32, f64);

impl Serialize for bool {
    fn to_json_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Deserialize for bool {
    fn from_json_value(v: &Value) -> Result<Self, DeError> {
        match *v {
            Value::Bool(b) => Ok(b),
            _ => Err(DeError::expected("boolean")),
        }
    }
}

impl Serialize for String {
    fn to_json_value(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl Deserialize for String {
    fn from_json_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Str(s) => Ok(s.clone()),
            _ => Err(DeError::expected("string")),
        }
    }
}

impl Serialize for str {
    fn to_json_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl Serialize for Value {
    fn to_json_value(&self) -> Value {
        self.clone()
    }
}

impl Deserialize for Value {
    fn from_json_value(v: &Value) -> Result<Self, DeError> {
        Ok(v.clone())
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_json_value(&self) -> Value {
        (**self).to_json_value()
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_json_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_json_value).collect())
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_json_value(v: &Value) -> Result<Self, DeError> {
        v.as_array()
            .ok_or_else(|| DeError::expected("array"))?
            .iter()
            .map(T::from_json_value)
            .collect()
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_json_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_json_value).collect())
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_json_value(&self) -> Value {
        match self {
            Some(x) => x.to_json_value(),
            None => Value::Null,
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_json_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Null => Ok(None),
            other => Ok(Some(T::from_json_value(other)?)),
        }
    }
}

macro_rules! impl_tuple {
    ($(($($name:ident : $idx:tt),+) with $len:literal;)*) => {$(
        impl<$($name: Serialize),+> Serialize for ($($name,)+) {
            fn to_json_value(&self) -> Value {
                Value::Array(vec![$(self.$idx.to_json_value()),+])
            }
        }
        impl<$($name: Deserialize),+> Deserialize for ($($name,)+) {
            fn from_json_value(v: &Value) -> Result<Self, DeError> {
                let items = v.as_array().ok_or_else(|| DeError::expected("array"))?;
                if items.len() != $len {
                    return Err(DeError::expected(concat!("array of length ", $len)));
                }
                Ok(($($name::from_json_value(&items[$idx])?,)+))
            }
        }
    )*};
}
impl_tuple! {
    (A: 0) with 1;
    (A: 0, B: 1) with 2;
    (A: 0, B: 1, C: 2) with 3;
    (A: 0, B: 1, C: 2, D: 3) with 4;
}

/// Map keys renderable as JSON object keys.
pub trait JsonKey: Sized {
    /// Render to the object-key string.
    fn to_key(&self) -> String;
    /// Parse back from the object-key string.
    fn from_key(s: &str) -> Result<Self, DeError>;
}

macro_rules! impl_json_key {
    ($($t:ty),*) => {$(
        impl JsonKey for $t {
            fn to_key(&self) -> String {
                self.to_string()
            }
            fn from_key(s: &str) -> Result<Self, DeError> {
                s.parse().map_err(|_| DeError::expected("numeric object key"))
            }
        }
    )*};
}
impl_json_key!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl JsonKey for String {
    fn to_key(&self) -> String {
        self.clone()
    }
    fn from_key(s: &str) -> Result<Self, DeError> {
        Ok(s.to_string())
    }
}

impl<K: JsonKey, V: Serialize, S> Serialize for HashMap<K, V, S> {
    fn to_json_value(&self) -> Value {
        let mut entries: Vec<(String, Value)> = self
            .iter()
            .map(|(k, v)| (k.to_key(), v.to_json_value()))
            .collect();
        // HashMap iteration order is arbitrary; sort for stable output.
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        Value::Object(entries)
    }
}

impl<K, V, S> Deserialize for HashMap<K, V, S>
where
    K: JsonKey + std::hash::Hash + Eq,
    V: Deserialize,
    S: std::hash::BuildHasher + Default,
{
    fn from_json_value(v: &Value) -> Result<Self, DeError> {
        v.as_object()
            .ok_or_else(|| DeError::expected("object"))?
            .iter()
            .map(|(k, val)| Ok((K::from_key(k)?, V::from_json_value(val)?)))
            .collect()
    }
}

impl<K: JsonKey, V: Serialize> Serialize for std::collections::BTreeMap<K, V> {
    fn to_json_value(&self) -> Value {
        // BTreeMap iterates in key order; keys stringify monotonically for
        // the JsonKey types we support, so the output is already stable.
        Value::Object(
            self.iter()
                .map(|(k, v)| (k.to_key(), v.to_json_value()))
                .collect(),
        )
    }
}

impl<K, V> Deserialize for std::collections::BTreeMap<K, V>
where
    K: JsonKey + Ord,
    V: Deserialize,
{
    fn from_json_value(v: &Value) -> Result<Self, DeError> {
        v.as_object()
            .ok_or_else(|| DeError::expected("object"))?
            .iter()
            .map(|(k, val)| Ok((K::from_key(k)?, V::from_json_value(val)?)))
            .collect()
    }
}
