//! Events: conjunctions of attribute equalities published into the system.

use std::fmt;

use serde::{de, json, Deserialize, Serialize};

use crate::{AttrName, Value};

/// An event `E = (name_1 = v_1) ∧ … ∧ (name_k = v_k)`.
///
/// Attribute names within one event are unique; insertion order is irrelevant
/// (attributes are kept sorted by name so that `Eq`/`Hash` are structural).
///
/// ```
/// use dps_content::{Event, Value};
///
/// let e = Event::new([("a", Value::from(4)), ("c", Value::from("abc"))]);
/// assert_eq!(e.get(&"a".into()), Some(&Value::from(4)));
/// assert_eq!(e.len(), 2);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash, Serialize)]
pub struct Event {
    attrs: Vec<(AttrName, Value)>,
}

/// What an [`Event`] looks like in JSON, read as written.
mod layout {
    use super::{AttrName, Value};

    #[derive(serde::Deserialize)]
    pub(super) struct Event {
        pub(super) attrs: Vec<(AttrName, Value)>,
    }
}

/// Attribute order in the text is free — the sorted order `get` searches is
/// this type's business, not the writer's — but a name may appear only once.
impl Deserialize for Event {
    fn read(r: &mut json::Reader<'_>) -> Result<Self, de::Error> {
        let layout::Event { mut attrs } = Deserialize::read(r)?;
        // Sorted input, which is what `Serialize` writes, is taken as it is.
        if !attrs.windows(2).all(|w| w[0].0 < w[1].0) {
            attrs.sort_by(|a, b| a.0.cmp(&b.0));
            if let Some(w) = attrs.windows(2).find(|w| w[0].0 == w[1].0) {
                return Err(de::Error::shape(format!(
                    "Event.attrs: attribute {:?} appears more than once",
                    w[0].0.as_str()
                )));
            }
        }
        Ok(Event { attrs })
    }
}

impl Event {
    /// Builds an event from `(name, value)` pairs.
    ///
    /// If the same name appears several times, the last value wins (matching the
    /// conjunction-of-equalities semantics, a duplicate with a different value
    /// would make the event unsatisfiable, so we treat the input as a map).
    pub fn new<N, I>(attrs: I) -> Self
    where
        N: Into<AttrName>,
        I: IntoIterator<Item = (N, Value)>,
    {
        let mut out: Vec<(AttrName, Value)> = Vec::new();
        for (n, v) in attrs {
            let n = n.into();
            match out.binary_search_by(|(existing, _)| existing.cmp(&n)) {
                Ok(i) => out[i].1 = v,
                Err(i) => out.insert(i, (n, v)),
            }
        }
        Event { attrs: out }
    }

    /// An event with no attributes (matches only the empty filter).
    pub fn empty() -> Self {
        Event::default()
    }

    /// The value bound to `name`, if present.
    pub fn get(&self, name: &AttrName) -> Option<&Value> {
        self.attrs
            .binary_search_by(|(n, _)| n.cmp(name))
            .ok()
            .map(|i| &self.attrs[i].1)
    }

    /// Number of attribute equalities in the event.
    pub fn len(&self) -> usize {
        self.attrs.len()
    }

    /// Whether the event carries no attributes.
    pub fn is_empty(&self) -> bool {
        self.attrs.is_empty()
    }

    /// Iterates over `(name, value)` pairs in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&AttrName, &Value)> {
        self.attrs.iter().map(|(n, v)| (n, v))
    }

    /// Iterates over the attribute names of the event in name order.
    pub fn names(&self) -> impl Iterator<Item = &AttrName> {
        self.attrs.iter().map(|(n, _)| n)
    }
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for (n, v) in &self.attrs {
            if !first {
                f.write_str(" & ")?;
            }
            first = false;
            write!(f, "{n} = {v}")?;
        }
        if first {
            f.write_str("(empty event)")?;
        }
        Ok(())
    }
}

impl<N: Into<AttrName>> FromIterator<(N, Value)> for Event {
    fn from_iter<I: IntoIterator<Item = (N, Value)>>(iter: I) -> Self {
        Event::new(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insertion_order_is_irrelevant() {
        let e1 = Event::new([("b", Value::from(1)), ("a", Value::from(2))]);
        let e2 = Event::new([("a", Value::from(2)), ("b", Value::from(1))]);
        assert_eq!(e1, e2);
        let names: Vec<_> = e1.names().map(|n| n.as_str().to_owned()).collect();
        assert_eq!(names, ["a", "b"]);
    }

    #[test]
    fn duplicate_names_last_wins() {
        let e = Event::new([("a", Value::from(1)), ("a", Value::from(2))]);
        assert_eq!(e.len(), 1);
        assert_eq!(e.get(&"a".into()), Some(&Value::from(2)));
    }

    #[test]
    fn get_and_len() {
        let e = Event::new([("a", Value::from(4)), ("c", Value::from("abc"))]);
        assert_eq!(e.get(&"a".into()), Some(&Value::from(4)));
        assert_eq!(e.get(&"b".into()), None);
        assert_eq!(e.len(), 2);
        assert!(!e.is_empty());
        assert!(Event::empty().is_empty());
    }

    #[test]
    fn display() {
        let e = Event::new([("a", Value::from(4)), ("c", Value::from("x"))]);
        assert_eq!(e.to_string(), "a = 4 & c = x");
        assert_eq!(Event::empty().to_string(), "(empty event)");
    }

    #[test]
    fn from_iterator() {
        let e: Event = vec![("a", Value::from(1))].into_iter().collect();
        assert_eq!(e.len(), 1);
    }
}
