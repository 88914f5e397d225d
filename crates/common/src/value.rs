//! The mediator value model.
//!
//! Domain calls exchange [`Value`]s: scalars, lists, and records (named,
//! ordered fields). The HERMES rule language selects inside complex values
//! with attribute paths (`$ans.1`, `$ans.loc`), compares them with relational
//! operators, and uses ground values as cache keys — so `Value` provides a
//! *total* order (across types, with a fixed type rank) and a hash that is
//! consistent with equality, including for floats (NaNs are normalized to a
//! single bit pattern).

use std::borrow::Cow;
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// A record value: ordered, named fields.
///
/// Records model the "complex data structures" returned by HERMES domain
/// functions — e.g. an INGRES tuple with named attributes, or an AVIS object
/// descriptor. Fields are addressable both by 1-based position (`$ans.1`,
/// matching the paper's notation) and by name (`$ans.loc`).
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Record {
    fields: Vec<(Arc<str>, Value)>,
}

impl Record {
    /// Creates an empty record.
    pub fn new() -> Self {
        Record { fields: Vec::new() }
    }

    /// Creates a record from `(name, value)` pairs, preserving order.
    pub fn from_fields<I, S>(fields: I) -> Self
    where
        I: IntoIterator<Item = (S, Value)>,
        S: Into<Arc<str>>,
    {
        Record {
            fields: fields.into_iter().map(|(n, v)| (n.into(), v)).collect(),
        }
    }

    /// Appends a field. Duplicate names are allowed but only the first is
    /// reachable by name lookup; positional access reaches all of them.
    pub fn push<S: Into<Arc<str>>>(&mut self, name: S, value: Value) {
        self.fields.push((name.into(), value));
    }

    /// Number of fields.
    pub fn len(&self) -> usize {
        self.fields.len()
    }

    /// True if the record has no fields.
    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }

    /// Field by case-sensitive name.
    pub fn get(&self, name: &str) -> Option<&Value> {
        self.fields
            .iter()
            .find(|(n, _)| n.as_ref() == name)
            .map(|(_, v)| v)
    }

    /// Field by **1-based** position, matching the paper's `$ans.1` notation.
    pub fn get_pos(&self, pos_1_based: usize) -> Option<&Value> {
        if pos_1_based == 0 {
            return None;
        }
        self.fields.get(pos_1_based - 1).map(|(_, v)| v)
    }

    /// Iterates `(name, value)` pairs in declaration order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Value)> {
        self.fields.iter().map(|(n, v)| (n.as_ref(), v))
    }

    /// Field names in declaration order.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.fields.iter().map(|(n, _)| n.as_ref())
    }

    /// Values in declaration order.
    pub fn values(&self) -> impl Iterator<Item = &Value> {
        self.fields.iter().map(|(_, v)| v)
    }
}

impl fmt::Display for Record {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, (n, v)) in self.fields.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{n}: {v}")?;
        }
        write!(f, "}}")
    }
}

/// A value in the mediator data model.
///
/// The variants carry everything the HERMES substrates exchange: relational
/// attributes (ints, floats, strings), AVIS frame numbers and object names,
/// spatial coordinates, terrain routes (lists of waypoints), and whole tuples
/// (records).
#[derive(Clone, Debug)]
pub enum Value {
    /// Absent / unknown.
    Null,
    /// Boolean.
    Bool(bool),
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit float. NaN is permitted and normalized for hashing/equality.
    Float(f64),
    /// Interned string.
    Str(Arc<str>),
    /// Ordered list of values.
    List(Vec<Value>),
    /// Named-field record.
    Record(Record),
}

impl Value {
    /// Convenience constructor for strings.
    pub fn str(s: impl Into<Arc<str>>) -> Self {
        Value::Str(s.into())
    }

    /// Convenience constructor for integer values.
    pub fn int(i: i64) -> Self {
        Value::Int(i)
    }

    /// Convenience constructor for floats.
    pub fn float(f: f64) -> Self {
        Value::Float(f)
    }

    /// Rank used to order values of different types. The ordering is
    /// arbitrary but total and stable, which is all cache keys need.
    fn type_rank(&self) -> u8 {
        match self {
            Value::Null => 0,
            Value::Bool(_) => 1,
            Value::Int(_) => 2,
            Value::Float(_) => 2, // numbers compare together
            Value::Str(_) => 3,
            Value::List(_) => 4,
            Value::Record(_) => 5,
        }
    }

    /// Numeric view, if this value is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// Integer view, if this value is an `Int`.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// String view, if this value is a `Str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s.as_ref()),
            _ => None,
        }
    }

    /// True if the value is numeric (`Int` or `Float`).
    pub fn is_number(&self) -> bool {
        matches!(self, Value::Int(_) | Value::Float(_))
    }

    /// Approximate wire size in bytes, used for the byte counts Figure 5
    /// reports and for the network simulator's transfer-time model.
    pub fn size_bytes(&self) -> usize {
        match self {
            Value::Null => 1,
            Value::Bool(_) => 1,
            Value::Int(_) => 8,
            Value::Float(_) => 8,
            Value::Str(s) => s.len() + 1,
            Value::List(vs) => 4 + vs.iter().map(Value::size_bytes).sum::<usize>(),
            Value::Record(r) => {
                4 + r
                    .iter()
                    .map(|(n, v)| n.len() + 1 + v.size_bytes())
                    .sum::<usize>()
            }
        }
    }

    /// Canonical float bits: all NaNs collapse to one pattern, and -0.0
    /// collapses to +0.0, so equality and hash agree.
    fn float_bits(f: f64) -> u64 {
        if f.is_nan() {
            f64::NAN.to_bits()
        } else if f == 0.0 {
            0u64
        } else {
            f.to_bits()
        }
    }

    /// Total-order comparison of two floats: NaN sorts above +inf.
    fn float_cmp(a: f64, b: f64) -> Ordering {
        match (a.is_nan(), b.is_nan()) {
            (true, true) => Ordering::Equal,
            (true, false) => Ordering::Greater,
            (false, true) => Ordering::Less,
            (false, false) => a.partial_cmp(&b).expect("both non-NaN"),
        }
    }

    /// Renders the value as it appears in rule text (strings quoted).
    pub fn to_literal(&self) -> String {
        match self {
            Value::Str(s) => format!("'{}'", s.replace('\'', "\\'")),
            other => other.to_string(),
        }
    }

    /// Parses a scalar literal the way the flat-file and CSV loaders do:
    /// `Int` if it parses as i64, else `Float`, else `Bool`, else `Str`.
    pub fn parse_scalar(text: &str) -> Value {
        let t = text.trim();
        if let Ok(i) = t.parse::<i64>() {
            return Value::Int(i);
        }
        if let Ok(f) = t.parse::<f64>() {
            return Value::Float(f);
        }
        match t {
            "true" => Value::Bool(true),
            "false" => Value::Bool(false),
            "null" => Value::Null,
            _ => Value::str(t),
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        use Value::*;
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Bool(a), Bool(b)) => a.cmp(b),
            (Int(a), Int(b)) => a.cmp(b),
            (Float(a), Float(b)) => Self::float_cmp(*a, *b),
            (Int(a), Float(b)) => Self::float_cmp(*a as f64, *b),
            (Float(a), Int(b)) => Self::float_cmp(*a, *b as f64),
            (Str(a), Str(b)) => a.cmp(b),
            (List(a), List(b)) => a.cmp(b),
            (Record(a), Record(b)) => a.cmp(b),
            (a, b) => a.type_rank().cmp(&b.type_rank()),
        }
    }
}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            Value::Null => 0u8.hash(state),
            Value::Bool(b) => {
                1u8.hash(state);
                b.hash(state);
            }
            // Int and Float that are numerically equal must hash equal
            // because they compare equal. Hash every number through its
            // canonical f64 bits when it is exactly representable, falling
            // back to the integer bits otherwise.
            Value::Int(i) => {
                let f = *i as f64;
                if f as i64 == *i {
                    2u8.hash(state);
                    Value::float_bits(f).hash(state);
                } else {
                    3u8.hash(state);
                    i.hash(state);
                }
            }
            Value::Float(f) => {
                if f.fract() == 0.0 && *f >= i64::MIN as f64 && *f <= i64::MAX as f64 {
                    2u8.hash(state);
                    Value::float_bits(*f).hash(state);
                } else {
                    4u8.hash(state);
                    Value::float_bits(*f).hash(state);
                }
            }
            Value::Str(s) => {
                5u8.hash(state);
                s.hash(state);
            }
            Value::List(vs) => {
                6u8.hash(state);
                vs.hash(state);
            }
            Value::Record(r) => {
                7u8.hash(state);
                r.hash(state);
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "null"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => {
                if x.fract() == 0.0 && x.is_finite() {
                    write!(f, "{x:.1}")
                } else {
                    write!(f, "{x}")
                }
            }
            Value::Str(s) => write!(f, "{s}"),
            Value::List(vs) => {
                write!(f, "[")?;
                for (i, v) in vs.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, "]")
            }
            Value::Record(r) => write!(f, "{r}"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::Int(v as i64)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::str(v)
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::str(v)
    }
}
impl<'a> From<Cow<'a, str>> for Value {
    fn from(v: Cow<'a, str>) -> Self {
        Value::str(v.into_owned())
    }
}
impl From<Record> for Value {
    fn from(v: Record) -> Self {
        Value::Record(v)
    }
}
impl From<Vec<Value>> for Value {
    fn from(v: Vec<Value>) -> Self {
        Value::List(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    fn hash_of(v: &Value) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn scalar_equality_and_order() {
        assert_eq!(Value::Int(3), Value::Int(3));
        assert_ne!(Value::Int(3), Value::Int(4));
        assert!(Value::Int(3) < Value::Int(4));
        assert!(Value::str("abc") < Value::str("abd"));
        assert!(Value::Null < Value::Bool(false));
        assert!(Value::Bool(true) < Value::Int(0));
        assert!(Value::Int(i64::MAX) < Value::str(""));
    }

    #[test]
    fn int_float_cross_type_compare() {
        assert_eq!(Value::Int(3), Value::Float(3.0));
        assert!(Value::Int(3) < Value::Float(3.5));
        assert!(Value::Float(2.5) < Value::Int(3));
        assert_eq!(Value::Int(3).cmp(&Value::Float(3.0)), Ordering::Equal);
    }

    #[test]
    fn equal_values_hash_equal() {
        assert_eq!(hash_of(&Value::Int(7)), hash_of(&Value::Float(7.0)));
        assert_eq!(hash_of(&Value::Float(0.0)), hash_of(&Value::Float(-0.0)));
        assert_eq!(
            hash_of(&Value::Float(f64::NAN)),
            hash_of(&Value::Float(-f64::NAN))
        );
    }

    #[test]
    fn nan_is_self_equal_and_sorts_last_among_numbers() {
        let nan = Value::Float(f64::NAN);
        assert_eq!(nan, nan.clone());
        assert!(Value::Float(f64::INFINITY) < nan);
        assert!(nan < Value::str("a"));
    }

    #[test]
    fn record_positional_and_named_access() {
        let r = Record::from_fields([
            ("name", Value::str("stewart")),
            ("role", Value::str("brandon")),
        ]);
        assert_eq!(r.get("name"), Some(&Value::str("stewart")));
        assert_eq!(r.get_pos(1), Some(&Value::str("stewart")));
        assert_eq!(r.get_pos(2), Some(&Value::str("brandon")));
        assert_eq!(r.get_pos(0), None);
        assert_eq!(r.get_pos(3), None);
        assert_eq!(r.get("missing"), None);
    }

    #[test]
    fn record_display() {
        let r = Record::from_fields([("a", Value::Int(1)), ("b", Value::str("x"))]);
        assert_eq!(r.to_string(), "{a: 1, b: x}");
    }

    #[test]
    fn list_ordering_is_lexicographic() {
        let a = Value::List(vec![Value::Int(1), Value::Int(2)]);
        let b = Value::List(vec![Value::Int(1), Value::Int(3)]);
        let c = Value::List(vec![Value::Int(1)]);
        assert!(a < b);
        assert!(c < a);
    }

    #[test]
    fn size_bytes_reflects_content() {
        assert_eq!(Value::Int(5).size_bytes(), 8);
        assert_eq!(Value::str("abc").size_bytes(), 4);
        let r = Value::Record(Record::from_fields([("ab", Value::Int(1))]));
        assert_eq!(r.size_bytes(), 4 + 2 + 1 + 8);
        let l = Value::List(vec![Value::Int(1), Value::Int(2)]);
        assert_eq!(l.size_bytes(), 4 + 16);
    }

    #[test]
    fn parse_scalar_types() {
        assert_eq!(Value::parse_scalar("42"), Value::Int(42));
        assert_eq!(Value::parse_scalar("-3"), Value::Int(-3));
        assert_eq!(Value::parse_scalar("2.5"), Value::Float(2.5));
        assert_eq!(Value::parse_scalar("true"), Value::Bool(true));
        assert_eq!(Value::parse_scalar("null"), Value::Null);
        assert_eq!(Value::parse_scalar(" hello "), Value::str("hello"));
    }

    #[test]
    fn to_literal_quotes_strings() {
        assert_eq!(Value::str("rope").to_literal(), "'rope'");
        assert_eq!(Value::Int(9).to_literal(), "9");
    }
}
