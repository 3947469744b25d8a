//! Dynamically typed values stored in database cells and session attributes.

use std::fmt;

/// A value stored in a database cell or session attribute.
///
/// `Value` is deliberately small: the eBid schema needs identifiers,
/// strings, money amounts, booleans and timestamps (stored as integer
/// microseconds). [`Value::Null`] doubles as the injection target for the
/// paper's "set a value to null" corruption mode.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// The absent value; reading a field that must be present from a `Null`
    /// cell raises the `NullPointerException` analogue.
    Null,
    /// A 64-bit signed integer (identifiers, counters, timestamps).
    Int(i64),
    /// A UTF-8 string (names, descriptions, regions).
    Str(String),
    /// A 64-bit float (bid and buy-now amounts).
    Float(f64),
    /// A boolean flag.
    Bool(bool),
}

impl Value {
    /// Returns the integer content, or `None` for any other variant.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// Returns the float content (accepting ints), or `None` otherwise.
    pub fn as_float(&self) -> Option<f64> {
        match self {
            Value::Float(v) => Some(*v),
            Value::Int(v) => Some(*v as f64),
            _ => None,
        }
    }

    /// Returns true if this is [`Value::Null`].
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Serializes the value into `out` for checksumming and marshalling.
    ///
    /// The encoding is stable and unambiguous (tag byte + payload), which is
    /// all the SSM checksum needs.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            Value::Null => out.push(0),
            Value::Int(v) => {
                out.push(1);
                out.extend_from_slice(&v.to_le_bytes());
            }
            Value::Str(s) => {
                out.push(2);
                out.extend_from_slice(&(s.len() as u64).to_le_bytes());
                out.extend_from_slice(s.as_bytes());
            }
            Value::Float(v) => {
                out.push(3);
                out.extend_from_slice(&v.to_le_bytes());
            }
            Value::Bool(b) => {
                out.push(4);
                out.push(*b as u8);
            }
        }
    }

    /// Returns how many bytes [`Value::encode_into`] appends.
    pub(crate) fn encoded_len(&self) -> usize {
        1 + match self {
            Value::Null => 0,
            Value::Int(_) | Value::Float(_) => 8,
            Value::Str(s) => 8 + s.len(),
            Value::Bool(_) => 1,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Int(v) => write!(f, "{v}"),
            Value::Str(s) => write!(f, "{s}"),
            Value::Float(v) => write!(f, "{v}"),
            Value::Bool(b) => write!(f, "{b}"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Str(s.to_string())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(s)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors_match_variants() {
        assert_eq!(Value::Int(5).as_int(), Some(5));
        assert_eq!(Value::Float(1.5).as_float(), Some(1.5));
        assert_eq!(Value::Int(2).as_float(), Some(2.0));
        assert!(Value::Null.is_null());
        assert_eq!(Value::Null.as_int(), None);
        assert_eq!(Value::Str("x".into()).as_int(), None);
    }

    #[test]
    fn encoding_distinguishes_values() {
        let mut a = Vec::new();
        let mut b = Vec::new();
        Value::Int(1).encode_into(&mut a);
        Value::Int(2).encode_into(&mut b);
        assert_ne!(a, b);

        a.clear();
        b.clear();
        Value::Str("ab".into()).encode_into(&mut a);
        Value::Str("ba".into()).encode_into(&mut b);
        assert_ne!(a, b);
    }

    #[test]
    fn encoding_distinguishes_types() {
        let mut a = Vec::new();
        let mut b = Vec::new();
        Value::Int(0).encode_into(&mut a);
        Value::Bool(false).encode_into(&mut b);
        assert_ne!(a, b);
    }

    #[test]
    fn from_conversions() {
        assert_eq!(Value::from(3i64), Value::Int(3));
        assert_eq!(Value::from("s"), Value::Str("s".into()));
        assert_eq!(Value::from(2.5f64), Value::Float(2.5));
        assert_eq!(Value::from(true), Value::Bool(true));
    }
}
