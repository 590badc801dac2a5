//! Refcounted, immutable payload wrappers for zero-copy fan-out.
//!
//! One publication visits hundreds of hops (tree climb, branch descent, group
//! spread, gossip rounds, anti-entropy replays). Carrying a bare [`Event`] —
//! a heap `Vec<(AttrName, Value)>` — means every hop re-allocates the payload
//! body. [`SharedEvent`] and [`SharedFilter`] wrap the same immutable value in
//! an [`Arc`], so the body is allocated **once per publication (or
//! subscription)** and every subsequent clone is a refcount bump.
//!
//! Both wrappers are transparent stand-ins: `Deref` exposes the full read
//! surface, and `Eq`/`Ord`/`Hash`/`Display`/serde all delegate to the inner
//! value, so two `SharedEvent`s compare **structurally** (not by pointer) and
//! serialize byte-identically to the value they wrap. There is deliberately no
//! `FromStr` impl — `"a = 1".parse()` keeps inferring plain [`Event`] /
//! [`Filter`], and the explicit `.into()` at the publish/subscribe boundary
//! marks the single point where the one allocation happens.

use std::fmt;
use std::sync::Arc;

use serde::{de, json, Deserialize, Serialize};

use crate::{Event, Filter};

macro_rules! shared_wrapper {
    ($(#[$doc:meta])* $name:ident, $inner:ident) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
        pub struct $name(Arc<$inner>);

        impl $name {
            /// Wraps `inner` in a refcount (the one allocation of its lifetime).
            pub fn new(inner: $inner) -> Self {
                $name(Arc::new(inner))
            }

            /// Read access to the wrapped value (also available via `Deref`).
            pub fn inner(&self) -> &$inner {
                &self.0
            }
        }

        impl std::ops::Deref for $name {
            type Target = $inner;

            fn deref(&self) -> &$inner {
                &self.0
            }
        }

        impl From<$inner> for $name {
            fn from(inner: $inner) -> Self {
                $name::new(inner)
            }
        }

        impl AsRef<$inner> for $name {
            fn as_ref(&self) -> &$inner {
                &self.0
            }
        }

        impl std::borrow::Borrow<$inner> for $name {
            fn borrow(&self) -> &$inner {
                &self.0
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                fmt::Display::fmt(&*self.0, f)
            }
        }

        impl Serialize for $name {
            fn to_json(&self) -> json::Value {
                self.0.to_json()
            }
        }

        impl Deserialize for $name {
            fn read(r: &mut json::Reader<'_>) -> Result<Self, de::Error> {
                $inner::read(r).map($name::new)
            }
        }
    };
}

shared_wrapper!(
    /// An immutable [`Event`] behind an [`Arc`]: allocate once at publish,
    /// hand a refcount bump to every hop of the fan-out.
    SharedEvent,
    Event
);

shared_wrapper!(
    /// An immutable [`Filter`] behind an [`Arc`]: allocate once at subscribe,
    /// share between the node's filter index, the oracle, and the facade
    /// registry.
    SharedFilter,
    Filter
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clone_is_a_refcount_bump() {
        let e = SharedEvent::new("a = 1 & b = 2".parse().unwrap());
        let f = e.clone();
        assert!(Arc::ptr_eq(&e.0, &f.0));
        assert_eq!(e, f);
    }

    #[test]
    fn eq_and_hash_are_structural() {
        use std::collections::HashSet;
        let a = SharedEvent::new("a = 1".parse().unwrap());
        let b = SharedEvent::new("a = 1".parse().unwrap());
        assert!(!Arc::ptr_eq(&a.0, &b.0));
        assert_eq!(a, b);
        let set: HashSet<SharedEvent> = [a, b].into_iter().collect();
        assert_eq!(set.len(), 1);
    }

    #[test]
    fn deref_exposes_the_read_surface() {
        let e = SharedEvent::new("a = 4".parse().unwrap());
        assert_eq!(e.len(), 1);
        assert_eq!(e.get(&"a".into()), Some(&crate::Value::from(4)));
        let f = SharedFilter::new("a > 2 & a < 9".parse().unwrap());
        assert!(f.matches(&e));
        assert_eq!(f.predicates().len(), 2);
    }

    #[test]
    fn display_and_serde_delegate() {
        let e: Event = "a = 4".parse().unwrap();
        let s = SharedEvent::new(e.clone());
        assert_eq!(s.to_string(), e.to_string());
        assert_eq!(s.to_json(), e.to_json());
        assert_eq!(de::from_str::<SharedEvent>(&s.to_json().render(0)), Ok(s));
        let f: Filter = "a > 2".parse().unwrap();
        let sf = SharedFilter::from(f.clone());
        assert_eq!(sf.to_json(), f.to_json());
        assert_eq!(
            de::from_str::<SharedFilter>(&sf.to_json().render(0)),
            Ok(sf)
        );
    }
}
