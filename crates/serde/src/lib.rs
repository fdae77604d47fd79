//! Offline stand-in for the [`serde`](https://crates.io/crates/serde) crate.
//!
//! The build environment has no crates.io access, so this workspace vendors
//! the small serde surface it actually uses. Instead of serde's
//! visitor-based zero-copy architecture, everything round-trips through a
//! self-describing [`Value`] tree: `Serialize` renders a type *to* a
//! `Value`, `Deserialize` rebuilds a type *from* one, and `serde_json`
//! converts `Value` to/from JSON text. The derive macros (re-exported from
//! `serde_derive`) cover the shapes this workspace derives on: structs with
//! named fields and enums with unit or struct variants, using serde's
//! standard externally-tagged enum representation.

pub use serde_derive::{Deserialize, Serialize};

use std::fmt;

/// A self-describing data tree — the interchange format between
/// [`Serialize`], [`Deserialize`], and `serde_json`.
///
/// Integers keep their signedness ([`Value::UInt`] vs [`Value::Int`]) so
/// that `u64` counters survive round-trips without passing through `f64`.
/// Objects preserve insertion order.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// JSON `null` (also the encoding of `Option::None`).
    Null,
    /// A boolean.
    Bool(bool),
    /// A non-negative integer.
    UInt(u64),
    /// A negative integer (values ≥ 0 normalize to [`Value::UInt`]).
    Int(i64),
    /// A floating-point number.
    Float(f64),
    /// A string.
    Str(String),
    /// An ordered sequence.
    Array(Vec<Value>),
    /// An ordered map of field name to value.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Look up a field of an [`Value::Object`]; errors if `self` is not an
    /// object or the field is absent.
    pub fn field(&self, name: &str) -> Result<&Value, Error> {
        match self {
            Value::Object(pairs) => pairs
                .iter()
                .find(|(k, _)| k == name)
                .map(|(_, v)| v)
                .ok_or_else(|| Error::msg(format!("missing field `{name}`"))),
            other => Err(Error::msg(format!(
                "expected object with field `{name}`, found {}",
                other.kind()
            ))),
        }
    }

    /// Human-readable name of the value's variant, for error messages.
    pub fn kind(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::UInt(_) | Value::Int(_) => "integer",
            Value::Float(_) => "float",
            Value::Str(_) => "string",
            Value::Array(_) => "array",
            Value::Object(_) => "object",
        }
    }
}

/// Error type shared by serialization, deserialization, and JSON parsing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error {
    message: String,
}

impl Error {
    /// Build an error from any displayable message.
    pub fn msg(message: impl fmt::Display) -> Self {
        Error { message: message.to_string() }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for Error {}

/// Render `self` as a [`Value`] tree.
pub trait Serialize {
    /// Convert to the interchange [`Value`].
    fn to_value(&self) -> Value;
}

/// Rebuild `Self` from a [`Value`] tree.
pub trait Deserialize: Sized {
    /// Convert from the interchange [`Value`].
    fn from_value(v: &Value) -> Result<Self, Error>;
}

// ---------------------------------------------------------------------------
// Primitive impls
// ---------------------------------------------------------------------------

macro_rules! impl_unsigned {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::UInt(*self as u64)
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, Error> {
                let n = match *v {
                    Value::UInt(n) => n,
                    Value::Int(n) if n >= 0 => n as u64,
                    ref other => {
                        return Err(Error::msg(format!(
                            concat!("expected ", stringify!($t), ", found {}"),
                            other.kind()
                        )))
                    }
                };
                <$t>::try_from(n).map_err(|_| {
                    Error::msg(format!(
                        concat!("integer {} out of range for ", stringify!($t)),
                        n
                    ))
                })
            }
        }
    )*};
}

macro_rules! impl_signed {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                let n = *self as i64;
                if n >= 0 { Value::UInt(n as u64) } else { Value::Int(n) }
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, Error> {
                let n: i64 = match *v {
                    Value::Int(n) => n,
                    Value::UInt(n) => i64::try_from(n).map_err(|_| {
                        Error::msg(format!("integer {n} out of range for i64"))
                    })?,
                    ref other => {
                        return Err(Error::msg(format!(
                            concat!("expected ", stringify!($t), ", found {}"),
                            other.kind()
                        )))
                    }
                };
                <$t>::try_from(n).map_err(|_| {
                    Error::msg(format!(
                        concat!("integer {} out of range for ", stringify!($t)),
                        n
                    ))
                })
            }
        }
    )*};
}

impl_unsigned!(u8, u16, u32, u64, usize);
impl_signed!(i8, i16, i32, i64, isize);

macro_rules! impl_float {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::Float(*self as f64)
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, Error> {
                match *v {
                    Value::Float(x) => Ok(x as $t),
                    // JSON has one number type: `2.0` prints as `2` and
                    // parses back as an integer, so accept integers here.
                    Value::UInt(n) => Ok(n as $t),
                    Value::Int(n) => Ok(n as $t),
                    ref other => Err(Error::msg(format!(
                        concat!("expected ", stringify!($t), ", found {}"),
                        other.kind()
                    ))),
                }
            }
        }
    )*};
}

impl_float!(f32, f64);

impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }
}

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Deserialize for bool {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match *v {
            Value::Bool(b) => Ok(b),
            ref other => Err(Error::msg(format!("expected bool, found {}", other.kind()))),
        }
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl Deserialize for String {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Str(s) => Ok(s.clone()),
            other => Err(Error::msg(format!("expected string, found {}", other.kind()))),
        }
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Array(items) => items.iter().map(Deserialize::from_value).collect(),
            other => Err(Error::msg(format!("expected array, found {}", other.kind()))),
        }
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            Some(x) => x.to_value(),
            None => Value::Null,
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Null => Ok(None),
            other => Ok(Some(T::from_value(other)?)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn integer_signedness_preserved() {
        assert_eq!(7u64.to_value(), Value::UInt(7));
        assert_eq!((-7i32).to_value(), Value::Int(-7));
        assert_eq!(7i32.to_value(), Value::UInt(7));
        assert_eq!(u64::from_value(&Value::UInt(u64::MAX)).unwrap(), u64::MAX);
        assert!(u8::from_value(&Value::UInt(300)).is_err());
    }

    #[test]
    fn float_accepts_integer_values() {
        assert_eq!(f64::from_value(&Value::UInt(2)).unwrap(), 2.0);
        assert_eq!(f64::from_value(&Value::Float(13.75)).unwrap(), 13.75);
    }

    #[test]
    fn option_roundtrip() {
        assert_eq!(Some(3u32).to_value(), Value::UInt(3));
        assert_eq!(None::<u32>.to_value(), Value::Null);
        assert_eq!(Option::<u32>::from_value(&Value::Null).unwrap(), None);
        assert_eq!(Option::<u32>::from_value(&Value::UInt(3)).unwrap(), Some(3));
    }

    #[test]
    fn object_field_lookup() {
        let v = Value::Object(vec![("a".into(), Value::UInt(1))]);
        assert_eq!(v.field("a").unwrap(), &Value::UInt(1));
        assert!(v.field("b").is_err());
        assert!(Value::Null.field("a").is_err());
    }
}
