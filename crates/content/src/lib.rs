//! Content-based publish/subscribe data model for the DPS system.
//!
//! This crate implements Section 2 of *"A Semantic Overlay for Self-\* Peer-to-Peer
//! Publish/Subscribe"* (Anceaume et al., ICDCS 2006): a finite but unbounded universe of
//! typed attributes, over which
//!
//! * a **subscription** (here [`Filter`]) is a conjunction of predicates
//!   `F = AF_1 ∧ … ∧ AF_j`, each predicate being a triple *(name, op, constant)*
//!   ([`Predicate`]);
//! * an **event** ([`Event`]) is a conjunction of equalities `E = (name_1 = v_1) ∧ …`;
//! * an event *matches* a filter iff every predicate of the filter is satisfied by a
//!   value in the event (see [`Filter::matches`]);
//! * a predicate `AF_2` is *included* in `AF_1` (`AF_2 ⊂ AF_1`, Definition 3) iff every
//!   event matching `AF_2` also matches `AF_1` (see [`Predicate::includes`]).
//!
//! The inclusion relation is the foundation of the semantic overlay: groups of similar
//! subscribers are ordered into per-attribute trees by predicate inclusion. The module
//! [`placement`] implements the paper's constraints **C1** and **C2**, which disambiguate
//! where predicates such as equalities (which are included in both `a > c` and `a < c'`
//! groups) live in the tree.
//!
//! # Example
//!
//! ```
//! use dps_content::{Event, Filter, Predicate, Value};
//!
//! # fn main() -> Result<(), dps_content::ParseError> {
//! let filter: Filter = "a > 2 & a < 20 & c = ab*".parse()?;
//! let event = Event::new([("a", Value::from(4)), ("c", Value::from("abc"))]);
//! assert!(filter.matches(&event));
//!
//! let broad: Predicate = "a > 2".parse()?;
//! let narrow: Predicate = "a > 5".parse()?;
//! assert!(broad.includes(&narrow)); // every event with a > 5 also has a > 2
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod attr;
mod event;
mod filter;
mod index;
mod parse;
mod predicate;
mod shared;

pub mod placement;
#[cfg(feature = "proptest-support")]
pub mod strategies;

pub use attr::{AttrName, AttrType, Value};
pub use event::Event;
pub use filter::Filter;
pub use index::{FilterIndex, MatchScratch};
pub use parse::ParseError;
pub use predicate::{Op, Predicate, TypeMismatchError};
pub use shared::{SharedEvent, SharedFilter};
