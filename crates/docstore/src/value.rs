//! The dynamic value model: a BSON-like [`Value`] and the [`Document`]
//! wrapper stored in collections.

use std::collections::BTreeMap;
use std::fmt;

/// A dynamically-typed database value.
///
/// Deliberately small: the CrypText schema needs strings, numbers, bools,
/// arrays and nested objects. `Float` keeps the raw `f64` bits, NaN
/// included, and the binary encoding writes them unchanged.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum Value {
    /// Absent/None.
    Null,
    /// Boolean.
    Bool(bool),
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit float.
    Float(f64),
    /// UTF-8 string.
    Str(String),
    /// Ordered list.
    Array(Vec<Value>),
    /// String-keyed object with deterministic (sorted) iteration order.
    Object(BTreeMap<String, Value>),
}

impl Value {
    /// As a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// As an i64, if integral.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// As an f64; integers widen losslessly for small magnitudes.
    pub fn as_float(&self) -> Option<f64> {
        match self {
            Value::Float(f) => Some(*f),
            Value::Int(i) => Some(*i as f64),
            _ => None,
        }
    }

    /// As a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// As an array slice, if it is one.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    /// As an object map, if it is one.
    pub fn as_object(&self) -> Option<&BTreeMap<String, Value>> {
        match self {
            Value::Object(o) => Some(o),
            _ => None,
        }
    }

    /// Navigate a dotted path (`"stats.count"`). A path segment applied to
    /// a non-object yields `None`.
    pub fn get_path(&self, path: &str) -> Option<&Value> {
        let mut current = self;
        for seg in path.split('.') {
            current = current.as_object()?.get(seg)?;
        }
        Some(current)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "null"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Str(s) => write!(f, "{s:?}"),
            Value::Array(a) => {
                write!(f, "[")?;
                for (i, v) in a.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, "]")
            }
            Value::Object(o) => {
                write!(f, "{{")?;
                for (i, (k, v)) in o.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{k:?}: {v}")?;
                }
                write!(f, "}}")
            }
        }
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}
impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}
impl From<i32> for Value {
    fn from(i: i32) -> Self {
        Value::Int(i as i64)
    }
}
impl From<u32> for Value {
    fn from(i: u32) -> Self {
        Value::Int(i as i64)
    }
}
impl From<u64> for Value {
    fn from(i: u64) -> Self {
        Value::Int(i as i64)
    }
}
impl From<usize> for Value {
    fn from(i: usize) -> Self {
        Value::Int(i as i64)
    }
}
impl From<f64> for Value {
    fn from(f: f64) -> Self {
        Value::Float(f)
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
impl<T: Into<Value>> From<Vec<T>> for Value {
    fn from(v: Vec<T>) -> Self {
        Value::Array(v.into_iter().map(Into::into).collect())
    }
}

/// A document: a named-field record. Stored in a [`Collection`] under a
/// [`DocId`](crate::collection::DocId) assigned at insert time.
///
/// [`Collection`]: crate::collection::Collection
#[derive(Debug, Clone, PartialEq, Default, serde::Serialize, serde::Deserialize)]
pub struct Document {
    fields: BTreeMap<String, Value>,
}

impl Document {
    /// Empty document.
    pub fn new() -> Self {
        Document::default()
    }

    /// Builder-style field setter.
    pub fn with(mut self, key: impl Into<String>, value: impl Into<Value>) -> Self {
        self.fields.insert(key.into(), value.into());
        self
    }

    /// Insert or replace a field.
    pub fn set(&mut self, key: impl Into<String>, value: impl Into<Value>) {
        self.fields.insert(key.into(), value.into());
    }

    /// Fetch a field or nested path (dotted).
    pub fn get(&self, path: &str) -> Option<&Value> {
        match path.split_once('.') {
            None => self.fields.get(path),
            Some((head, rest)) => self.fields.get(head)?.get_path(rest),
        }
    }

    /// Remove a top-level field.
    pub fn remove(&mut self, key: &str) -> Option<Value> {
        self.fields.remove(key)
    }

    /// Iterate fields in sorted key order.
    pub fn iter(&self) -> impl Iterator<Item = (&String, &Value)> {
        self.fields.iter()
    }

    /// Number of top-level fields.
    pub fn len(&self) -> usize {
        self.fields.len()
    }

    /// True when the document has no fields.
    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }

    /// View as a [`Value::Object`].
    pub fn to_value(&self) -> Value {
        Value::Object(self.fields.clone())
    }

    /// Build from a [`Value::Object`]; other variants yield `None`.
    pub fn from_value(v: Value) -> Option<Self> {
        match v {
            Value::Object(fields) => Some(Document { fields }),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors_and_froms() {
        assert_eq!(Value::from(3i64).as_int(), Some(3));
        assert_eq!(Value::from(2.5).as_float(), Some(2.5));
        assert_eq!(Value::from(7i64).as_float(), Some(7.0), "int widens");
        assert_eq!(Value::from("hi").as_str(), Some("hi"));
        assert_eq!(Value::from(true).as_bool(), Some(true));
        assert_eq!(Value::from(vec![1i64, 2]).as_array().unwrap().len(), 2);
        assert_eq!(Value::Null.as_int(), None);
    }

    #[test]
    fn get_path_traverses_objects() {
        let doc = Document::new().with(
            "stats",
            Value::Object(BTreeMap::from([
                ("count".to_string(), Value::Int(5)),
                (
                    "inner".to_string(),
                    Value::Object(BTreeMap::from([("x".to_string(), Value::Int(9))])),
                ),
            ])),
        );
        assert_eq!(doc.get("stats.count"), Some(&Value::Int(5)));
        assert_eq!(doc.get("stats.inner.x"), Some(&Value::Int(9)));
        assert_eq!(doc.get("stats.missing"), None);
        assert_eq!(doc.get("stats.count.deeper"), None, "non-object dead end");
    }

    #[test]
    fn document_round_trips_value() {
        let doc = Document::new()
            .with("token", "demokRATs")
            .with("count", 3i64)
            .with("codes", vec!["DE56232", "DE56233"]);
        let v = doc.to_value();
        assert_eq!(Document::from_value(v), Some(doc));
        assert_eq!(Document::from_value(Value::Int(1)), None);
    }

    #[test]
    fn document_set_remove_len() {
        let mut d = Document::new();
        assert!(d.is_empty());
        d.set("a", 1i64);
        d.set("a", 2i64);
        assert_eq!(d.len(), 1);
        assert_eq!(d.get("a"), Some(&Value::Int(2)));
        assert_eq!(d.remove("a"), Some(Value::Int(2)));
        assert!(d.is_empty());
    }

    #[test]
    fn display_is_stable_and_readable() {
        let d = Document::new().with("b", 1i64).with("a", "x");
        // BTreeMap iteration: sorted keys.
        assert_eq!(d.to_value().to_string(), r#"{"a": "x", "b": 1}"#);
    }
}
