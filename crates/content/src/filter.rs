//! Filters: conjunctions of predicates, i.e. the paper's subscriptions.

use std::collections::HashSet;
use std::fmt;

use serde::{de, json, Deserialize, Serialize};

use crate::{AttrName, Event, Predicate};

/// A subscription filter `F = AF_1 ∧ … ∧ AF_j`.
///
/// An event matches the filter iff **every** predicate is satisfied by the event
/// (the event must carry each constrained attribute with a satisfying value).
/// Several predicates may constrain the same attribute — this is how ranges are
/// expressed (`a > 2 ∧ a < 20`).
///
/// ```
/// use dps_content::{Event, Filter, Predicate, Value};
///
/// let f = Filter::new([Predicate::gt("a", 2), Predicate::lt("a", 20)]);
/// assert!(f.matches(&Event::new([("a", Value::from(10))])));
/// assert!(!f.matches(&Event::new([("a", Value::from(25))])));
/// assert!(!f.matches(&Event::new([("b", Value::from(10))]))); // attribute absent
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash, Serialize)]
pub struct Filter {
    predicates: Vec<Predicate>,
}

/// What a [`Filter`] looks like in JSON, read as written.
mod layout {
    #[derive(serde::Deserialize)]
    pub(super) struct Filter {
        pub(super) predicates: Vec<super::Predicate>,
    }
}

/// Goes through [`Filter::new`], so a decoded filter holds no predicate twice.
impl Deserialize for Filter {
    fn read(r: &mut json::Reader<'_>) -> Result<Self, de::Error> {
        let layout::Filter { predicates } = Deserialize::read(r)?;
        Ok(Filter::new(predicates))
    }
}

impl Filter {
    /// Builds a filter from its predicates. Duplicates are removed; order is kept
    /// otherwise (the first predicate is the "primary" one used by default when the
    /// overlay picks the attribute tree to join).
    pub fn new<I: IntoIterator<Item = Predicate>>(predicates: I) -> Self {
        let mut f = Filter::default();
        f.extend(predicates);
        f
    }

    /// The always-true filter (matches every event). Mostly useful in tests.
    pub fn all() -> Self {
        Filter::default()
    }

    /// The predicates of the conjunction.
    pub fn predicates(&self) -> &[Predicate] {
        &self.predicates
    }

    /// Number of predicates.
    pub fn len(&self) -> usize {
        self.predicates.len()
    }

    /// Whether the filter has no predicates (and thus matches everything).
    pub fn is_empty(&self) -> bool {
        self.predicates.is_empty()
    }

    /// Iterates over the distinct attribute names constrained by this filter, in
    /// first-appearance order.
    pub fn attributes(&self) -> Vec<&AttrName> {
        let mut seen: HashSet<&AttrName> = HashSet::with_capacity(self.predicates.len());
        self.predicates
            .iter()
            .map(|p| p.name())
            .filter(|n| seen.insert(*n))
            .collect()
    }

    /// The predicates constraining a given attribute.
    pub fn predicates_on<'a>(
        &'a self,
        name: &'a AttrName,
    ) -> impl Iterator<Item = &'a Predicate> + 'a {
        self.predicates.iter().filter(move |p| p.name() == name)
    }

    /// Tests whether `event` matches this filter: for all predicates, a
    /// corresponding matching value appears in the event (paper §2).
    pub fn matches(&self, event: &Event) -> bool {
        self.predicates
            .iter()
            .all(|p| event.get(p.name()).is_some_and(|v| p.matches_value(v)))
    }
}

impl fmt::Display for Filter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for p in &self.predicates {
            if !first {
                f.write_str(" & ")?;
            }
            first = false;
            write!(f, "{p}")?;
        }
        if first {
            f.write_str("(match all)")?;
        }
        Ok(())
    }
}

impl FromIterator<Predicate> for Filter {
    fn from_iter<I: IntoIterator<Item = Predicate>>(iter: I) -> Self {
        Filter::new(iter)
    }
}

impl From<Predicate> for Filter {
    fn from(p: Predicate) -> Self {
        Filter::new([p])
    }
}

impl Extend<Predicate> for Filter {
    fn extend<I: IntoIterator<Item = Predicate>>(&mut self, iter: I) {
        // Set-backed dedup keeps construction O(n) instead of the quadratic
        // `Vec::contains` scan, while preserving first-appearance order.
        let mut seen: HashSet<Predicate> = self.predicates.iter().cloned().collect();
        for p in iter {
            if seen.insert(p.clone()) {
                self.predicates.push(p);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Value;

    fn ev(pairs: &[(&str, i64)]) -> Event {
        Event::new(pairs.iter().map(|(n, v)| (*n, Value::from(*v))))
    }

    #[test]
    fn conjunction_semantics() {
        let f = Filter::new([Predicate::gt("a", 2), Predicate::gt("b", 0)]);
        assert!(f.matches(&ev(&[("a", 3), ("b", 1)])));
        assert!(!f.matches(&ev(&[("a", 3), ("b", 0)])));
        assert!(!f.matches(&ev(&[("a", 3)]))); // b absent: predicate unsatisfied
                                               // Extra attributes in the event are fine.
        assert!(f.matches(&ev(&[("a", 3), ("b", 1), ("z", 9)])));
    }

    #[test]
    fn range_as_two_predicates() {
        let f = Filter::new([Predicate::gt("a", 2), Predicate::lt("a", 20)]);
        assert!(f.matches(&ev(&[("a", 10)])));
        assert!(!f.matches(&ev(&[("a", 2)])));
        assert!(!f.matches(&ev(&[("a", 20)])));
        assert_eq!(f.attributes().len(), 1);
        assert_eq!(f.predicates_on(&"a".into()).count(), 2);
    }

    #[test]
    fn empty_filter_matches_everything() {
        assert!(Filter::all().matches(&ev(&[("a", 1)])));
        assert!(Filter::all().matches(&Event::empty()));
        assert!(Filter::all().is_empty());
    }

    #[test]
    fn duplicates_removed() {
        let f = Filter::new([Predicate::gt("a", 2), Predicate::gt("a", 2)]);
        assert_eq!(f.len(), 1);
        let mut f2 = Filter::from(Predicate::gt("a", 2));
        f2.extend([Predicate::gt("a", 2), Predicate::lt("a", 9)]);
        assert_eq!(f2.len(), 2);
    }

    #[test]
    fn attributes_in_first_appearance_order() {
        let f = Filter::new([
            Predicate::gt("b", 3),
            Predicate::str_eq("c", "abc"),
            Predicate::lt("b", 7),
        ]);
        let names: Vec<_> = f
            .attributes()
            .iter()
            .map(|n| n.as_str().to_owned())
            .collect();
        assert_eq!(names, ["b", "c"]);
    }

    #[test]
    fn display() {
        let f = Filter::new([Predicate::gt("a", 2), Predicate::lt("a", 500)]);
        assert_eq!(f.to_string(), "a > 2 & a < 500");
        assert_eq!(Filter::all().to_string(), "(match all)");
    }
}
