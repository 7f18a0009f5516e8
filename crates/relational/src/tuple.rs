//! Tuples of data items.

use std::fmt;
use std::sync::Arc;

use crate::value::Value;

/// An immutable tuple of [`Value`]s; the unit a relation stores.
///
/// Cloning is O(1) (the fields are shared). The first field acts as the
/// tuple's *key*: the paper's experiments are single-tuple inserts and
/// finds, both addressed by key.
///
/// # Example
///
/// ```
/// use fundb_relational::Tuple;
///
/// let t = Tuple::new(vec![1.into(), "ada".into()]);
/// assert_eq!(t.arity(), 2);
/// assert_eq!(t.key(), &1.into());
/// assert_eq!(t.to_string(), "(1, 'ada')");
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Tuple {
    fields: Arc<[Value]>,
}

impl Tuple {
    /// A tuple with the given fields.
    ///
    /// # Panics
    ///
    /// Panics if `fields` is empty — every tuple needs at least a key.
    pub fn new(fields: Vec<Value>) -> Self {
        assert!(!fields.is_empty(), "a tuple needs at least one field");
        Tuple {
            fields: fields.into(),
        }
    }

    /// A single-field tuple from anything convertible to a value.
    pub fn of_key<V: Into<Value>>(key: V) -> Self {
        Tuple::new(vec![key.into()])
    }

    /// The tuple's key: its first field.
    pub fn key(&self) -> &Value {
        &self.fields[0]
    }

    /// The field at `index`.
    pub fn get(&self, index: usize) -> Option<&Value> {
        self.fields.get(index)
    }

    /// Number of fields.
    pub fn arity(&self) -> usize {
        self.fields.len()
    }

    /// Iterates the fields in order.
    pub fn iter(&self) -> std::slice::Iter<'_, Value> {
        self.fields.iter()
    }

    /// The fields as a slice.
    pub fn as_slice(&self) -> &[Value] {
        &self.fields
    }
}

/// The joined tuple: all of `left`, then `right` minus its join attribute
/// `rf` (which duplicates a `left` field). Every join builds its rows with
/// this — the key join (`rf = 0`), the planner's `on` joins and the join
/// views.
pub fn concat_on(left: &Tuple, right: &Tuple, rf: usize) -> Tuple {
    let fields: Vec<Value> = left
        .iter()
        .cloned()
        .chain(
            right
                .iter()
                .enumerate()
                .filter(|(i, _)| *i != rf)
                .map(|(_, v)| v.clone()),
        )
        .collect();
    Tuple::new(fields)
}

impl PartialOrd for Tuple {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Tuple {
    /// Lexicographic field order, so sorting by `Tuple` sorts by key first —
    /// which is what keeps list-backed relations key-ordered.
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.fields.iter().cmp(other.fields.iter())
    }
}

impl fmt::Display for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, v) in self.fields.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, ")")
    }
}

impl From<Vec<Value>> for Tuple {
    fn from(fields: Vec<Value>) -> Self {
        Tuple::new(fields)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_accessors() {
        let t = Tuple::new(vec![5.into(), "x".into(), true.into()]);
        assert_eq!(t.arity(), 3);
        assert_eq!(t.key(), &Value::from(5));
        assert_eq!(t.get(1), Some(&Value::from("x")));
        assert_eq!(t.get(3), None);
        assert_eq!(t.as_slice().len(), 3);
        assert_eq!(t.iter().count(), 3);
    }

    #[test]
    #[should_panic(expected = "at least one field")]
    fn empty_tuple_rejected() {
        let _ = Tuple::new(vec![]);
    }

    #[test]
    fn of_key_single_field() {
        let t = Tuple::of_key(9);
        assert_eq!(t.arity(), 1);
        assert_eq!(t.key(), &Value::from(9));
    }

    #[test]
    fn ordering_is_key_first() {
        let a = Tuple::new(vec![1.into(), "z".into()]);
        let b = Tuple::new(vec![2.into(), "a".into()]);
        assert!(a < b);
        let c = Tuple::new(vec![1.into(), "a".into()]);
        assert!(c < a); // tie on key broken by second field
    }

    #[test]
    fn display() {
        let t = Tuple::new(vec![1.into(), "ada".into()]);
        assert_eq!(t.to_string(), "(1, 'ada')");
        assert_eq!(Tuple::of_key(3).to_string(), "(3)");
    }

    #[test]
    fn clone_is_shallow() {
        let t = Tuple::new(vec![1.into()]);
        let u = t.clone();
        assert!(Arc::ptr_eq(&t.fields, &u.fields));
    }
}
