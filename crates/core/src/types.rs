//! Typed values with fixed-width binary encodings.
//!
//! All attribute types are fixed-width so that tuplets have a fixed size and
//! fragments can address fields arithmetically — the property the paper's
//! cache-line arguments (Section II) rely on. Variable-length text is stored
//! as fixed-width, space-padded fields, as TPC-C does for `C_LAST` etc.

use crate::error::{Error, Result};

/// A fixed-width attribute data type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    /// 1-byte boolean.
    Bool,
    /// 4-byte signed integer.
    Int32,
    /// 8-byte signed integer.
    Int64,
    /// 8-byte IEEE-754 double.
    Float64,
    /// 4-byte date, encoded as days since 1970-01-01.
    Date,
    /// Fixed-width text of `len` bytes, space padded.
    Text(u16),
}

impl DataType {
    /// Encoded width in bytes.
    pub const fn width(self) -> usize {
        match self {
            DataType::Bool => 1,
            DataType::Int32 => 4,
            DataType::Int64 => 8,
            DataType::Float64 => 8,
            DataType::Date => 4,
            DataType::Text(n) => n as usize,
        }
    }

    pub const fn name(self) -> &'static str {
        match self {
            DataType::Bool => "bool",
            DataType::Int32 => "int32",
            DataType::Int64 => "int64",
            DataType::Float64 => "float64",
            DataType::Date => "date",
            DataType::Text(_) => "text",
        }
    }

    /// Whether [`Value::as_f64`] can represent every value of this type —
    /// i.e. whether the type can feed a numeric aggregate.
    pub const fn is_numeric(self) -> bool {
        !matches!(self, DataType::Bool | DataType::Text(_))
    }

    /// Whether [`Value::as_i64`] can represent every value of this type —
    /// i.e. whether the type can key a group-sum.
    pub const fn is_integer(self) -> bool {
        matches!(self, DataType::Int32 | DataType::Int64 | DataType::Date)
    }
}

/// A typed value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Bool(bool),
    Int32(i32),
    Int64(i64),
    Float64(f64),
    /// Days since the Unix epoch.
    Date(i32),
    Text(String),
}

impl Value {
    pub const fn type_name(&self) -> &'static str {
        match self {
            Value::Bool(_) => "bool",
            Value::Int32(_) => "int32",
            Value::Int64(_) => "int64",
            Value::Float64(_) => "float64",
            Value::Date(_) => "date",
            Value::Text(_) => "text",
        }
    }

    /// Whether this value inhabits `ty`.
    pub fn matches(&self, ty: DataType) -> bool {
        matches!(
            (self, ty),
            (Value::Bool(_), DataType::Bool)
                | (Value::Int32(_), DataType::Int32)
                | (Value::Int64(_), DataType::Int64)
                | (Value::Float64(_), DataType::Float64)
                | (Value::Date(_), DataType::Date)
                | (Value::Text(_), DataType::Text(_))
        )
    }

    /// Encode into exactly `ty.width()` bytes at `out`.
    ///
    /// Returns an error on a type mismatch or an over-long text value;
    /// panics if `out` has the wrong length (an addressing bug, not a data
    /// error).
    pub fn encode_into(&self, ty: DataType, out: &mut [u8]) -> Result<()> {
        assert_eq!(out.len(), ty.width(), "field slot width mismatch");
        if !self.matches(ty) {
            return Err(Error::TypeMismatch { expected: ty.name(), got: self.type_name() });
        }
        match (self, ty) {
            (Value::Bool(b), DataType::Bool) => out[0] = *b as u8,
            (Value::Int32(v), DataType::Int32) => out.copy_from_slice(&v.to_le_bytes()),
            (Value::Int64(v), DataType::Int64) => out.copy_from_slice(&v.to_le_bytes()),
            (Value::Float64(v), DataType::Float64) => out.copy_from_slice(&v.to_le_bytes()),
            (Value::Date(v), DataType::Date) => out.copy_from_slice(&v.to_le_bytes()),
            (Value::Text(s), DataType::Text(n)) => {
                let bytes = s.as_bytes();
                if bytes.len() > n as usize {
                    return Err(Error::TextTooLong { max: n as usize, got: bytes.len() });
                }
                out[..bytes.len()].copy_from_slice(bytes);
                out[bytes.len()..].fill(b' ');
            }
            _ => unreachable!("matches() checked above"),
        }
        Ok(())
    }

    /// Decode a value of type `ty` from exactly `ty.width()` bytes.
    pub fn decode(ty: DataType, bytes: &[u8]) -> Value {
        assert_eq!(bytes.len(), ty.width(), "field slot width mismatch");
        match ty {
            DataType::Bool => Value::Bool(bytes[0] != 0),
            DataType::Int32 => Value::Int32(i32::from_le_bytes(bytes.try_into().unwrap())),
            DataType::Int64 => Value::Int64(i64::from_le_bytes(bytes.try_into().unwrap())),
            DataType::Float64 => Value::Float64(f64::from_le_bytes(bytes.try_into().unwrap())),
            DataType::Date => Value::Date(i32::from_le_bytes(bytes.try_into().unwrap())),
            DataType::Text(_) => {
                let end = bytes.iter().rposition(|&b| b != b' ').map_or(0, |p| p + 1);
                Value::Text(String::from_utf8_lossy(&bytes[..end]).into_owned())
            }
        }
    }

    /// Numeric view used by aggregation operators; errors for non-numeric
    /// values.
    pub fn as_f64(&self) -> Result<f64> {
        match self {
            Value::Int32(v) => Ok(*v as f64),
            Value::Int64(v) => Ok(*v as f64),
            Value::Float64(v) => Ok(*v),
            Value::Date(v) => Ok(*v as f64),
            Value::Bool(_) | Value::Text(_) => {
                Err(Error::TypeMismatch { expected: "numeric", got: self.type_name() })
            }
        }
    }

    /// Integer view; errors for non-integer values.
    pub fn as_i64(&self) -> Result<i64> {
        match self {
            Value::Int32(v) => Ok(*v as i64),
            Value::Int64(v) => Ok(*v),
            Value::Date(v) => Ok(*v as i64),
            _ => Err(Error::TypeMismatch { expected: "integer", got: self.type_name() }),
        }
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::Int32(v)
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int64(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float64(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Text(v.to_string())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Text(v)
    }
}

impl std::fmt::Display for Value {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Value::Bool(v) => write!(f, "{v}"),
            Value::Int32(v) => write!(f, "{v}"),
            Value::Int64(v) => write!(f, "{v}"),
            Value::Float64(v) => write!(f, "{v}"),
            Value::Date(v) => write!(f, "d{v}"),
            Value::Text(v) => write!(f, "{v:?}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(v: Value, ty: DataType) {
        let mut buf = vec![0u8; ty.width()];
        v.encode_into(ty, &mut buf).unwrap();
        assert_eq!(Value::decode(ty, &buf), v);
    }

    #[test]
    fn roundtrip_all_types() {
        roundtrip(Value::Bool(true), DataType::Bool);
        roundtrip(Value::Bool(false), DataType::Bool);
        roundtrip(Value::Int32(-123456), DataType::Int32);
        roundtrip(Value::Int64(i64::MIN), DataType::Int64);
        roundtrip(Value::Float64(3.5e100), DataType::Float64);
        roundtrip(Value::Date(19723), DataType::Date);
        roundtrip(Value::Text("hello".into()), DataType::Text(16));
    }

    #[test]
    fn text_pads_and_trims_spaces() {
        let mut buf = vec![0u8; 8];
        Value::Text("ab".into()).encode_into(DataType::Text(8), &mut buf).unwrap();
        assert_eq!(&buf, b"ab      ");
        assert_eq!(Value::decode(DataType::Text(8), &buf), Value::Text("ab".into()));
    }

    #[test]
    fn text_too_long_is_an_error() {
        let mut buf = vec![0u8; 4];
        let err =
            Value::Text("abcdef".into()).encode_into(DataType::Text(4), &mut buf).unwrap_err();
        assert_eq!(err, Error::TextTooLong { max: 4, got: 6 });
    }

    #[test]
    fn type_mismatch_is_an_error() {
        let mut buf = vec![0u8; 8];
        let err = Value::Int32(1).encode_into(DataType::Int64, &mut buf).unwrap_err();
        assert!(matches!(err, Error::TypeMismatch { .. }));
    }

    #[test]
    fn widths() {
        assert_eq!(DataType::Bool.width(), 1);
        assert_eq!(DataType::Int32.width(), 4);
        assert_eq!(DataType::Int64.width(), 8);
        assert_eq!(DataType::Float64.width(), 8);
        assert_eq!(DataType::Date.width(), 4);
        assert_eq!(DataType::Text(21).width(), 21);
    }

    #[test]
    fn numeric_views() {
        assert_eq!(Value::Int32(7).as_f64().unwrap(), 7.0);
        assert_eq!(Value::Float64(2.5).as_f64().unwrap(), 2.5);
        assert!(Value::Text("x".into()).as_f64().is_err());
        assert_eq!(Value::Int64(9).as_i64().unwrap(), 9);
        assert!(Value::Float64(1.0).as_i64().is_err());
    }

    #[test]
    fn empty_text_roundtrip() {
        roundtrip(Value::Text(String::new()), DataType::Text(4));
    }

    #[test]
    fn from_conversions() {
        assert_eq!(Value::from(true), Value::Bool(true));
        assert_eq!(Value::from(3i32), Value::Int32(3));
        assert_eq!(Value::from(3i64), Value::Int64(3));
        assert_eq!(Value::from(1.5f64), Value::Float64(1.5));
        assert_eq!(Value::from("hi"), Value::Text("hi".into()));
        assert_eq!(Value::from(String::from("ho")), Value::Text("ho".into()));
    }
}
