//! Proptest strategies for predicates, filters and events.
//!
//! These generators are shared by the property-based test suites of this crate and
//! of the overlay crate (enable the `proptest-support` feature). They generate
//! values in a deliberately small universe (few attribute names, small constants,
//! short strings over a small alphabet) so that random predicates are frequently
//! related by inclusion and random events frequently match — the interesting cases.

use proptest::prelude::*;

use crate::{Event, Filter, Predicate, Value};

/// Attribute names used by the generated universe.
pub const ATTRS: [&str; 3] = ["a", "b", "c"];

/// Strategy for attribute names out of the small universe.
pub fn attr_name() -> impl Strategy<Value = &'static str> {
    proptest::sample::select(&ATTRS[..])
}

/// Strategy for small integer constants.
pub fn int_constant() -> impl Strategy<Value = i64> {
    -20i64..=20
}

/// Strategy for short strings over the alphabet `{a, b}` (length 0..=4), so that
/// prefix/suffix/substring relations are common.
pub fn short_string() -> impl Strategy<Value = String> {
    proptest::collection::vec(proptest::sample::select(&['a', 'b'][..]), 1..=4)
        .prop_map(|cs| cs.into_iter().collect())
}

/// Strategy for an arbitrary numeric predicate on a random attribute.
pub fn numeric_predicate() -> impl Strategy<Value = Predicate> {
    (attr_name(), int_constant(), 0u8..3).prop_map(|(n, c, op)| match op {
        0 => Predicate::lt(n, c),
        1 => Predicate::gt(n, c),
        _ => Predicate::eq(n, c),
    })
}

/// Strategy for an arbitrary string predicate on a random attribute.
pub fn string_predicate() -> impl Strategy<Value = Predicate> {
    (attr_name(), short_string(), 0u8..4).prop_map(|(n, s, op)| match op {
        0 => Predicate::str_eq(n, &s),
        1 => Predicate::prefix(n, &s),
        2 => Predicate::suffix(n, &s),
        _ => Predicate::contains(n, &s),
    })
}

/// Strategy for any predicate (numeric or string).
pub fn predicate() -> impl Strategy<Value = Predicate> {
    prop_oneof![3 => numeric_predicate(), 2 => string_predicate()]
}

/// Strategy for a filter of 1..=4 predicates.
pub fn filter() -> impl Strategy<Value = Filter> {
    proptest::collection::vec(predicate(), 1..=4).prop_map(Filter::new)
}

/// Strategy for a random value (int or short string).
pub fn value() -> impl Strategy<Value = Value> {
    prop_oneof![
        int_constant().prop_map(Value::from),
        short_string().prop_map(Value::from),
    ]
}

/// Strategy for an event assigning a random value to every attribute of the
/// universe (so any generated predicate finds its attribute present).
pub fn full_event() -> impl Strategy<Value = Event> {
    proptest::collection::vec(value(), ATTRS.len())
        .prop_map(|vs| Event::new(ATTRS.iter().copied().zip(vs)))
}

/// Strategy for an event over a random subset of the attributes.
pub fn event() -> impl Strategy<Value = Event> {
    proptest::collection::vec((attr_name(), value()), 0..=ATTRS.len()).prop_map(Event::new)
}
