//! The DPS semantic overlay (Anceaume et al., ICDCS 2006, §3–§4).
//!
//! DPS organizes subscribers — with no brokers and no DHT — into a **forest of
//! per-attribute logical trees**. Every vertex of a tree is a *semantic group*: the
//! set of subscribers sharing one predicate on the tree's attribute (Definition 2).
//! Groups are ordered by **predicate inclusion** (Definition 3): the group `a > 5`
//! hangs below `a > 2` because every event matching the former matches the latter,
//! so once an event fails the `a > 2` test, the entire subtree can be pruned from
//! dissemination.
//!
//! This crate implements the complete protocol suite of the paper:
//!
//! * **Tree traversal** (§4.1) — [`TraversalKind::Root`] starts every visit at the
//!   attribute owner and descends; [`TraversalKind::Generic`] starts at any cached
//!   contact and travels both up and down. Both implement the `FIND_GROUP`,
//!   `SUBSCRIBE_TO` and `CREATE_GROUP` primitives, with event propagation blocked
//!   in the predecessor during group creation.
//! * **Communication** (§4.2) — [`CommKind::Leader`]: each group elects a leader
//!   plus `Kc` co-leaders; inter-group messages travel leader-to-leader and the
//!   leader fans events out to members. [`CommKind::Epidemic`]: every member keeps
//!   partial `groupview` / `predview` / `succview`s and events are gossiped with
//!   fanout `k` and a forwarding probability that decays with the hop count.
//! * **Self-healing** (§4.3) — heartbeat probing of view entries (detection
//!   interval drawn uniformly from 10–25 steps), co-leader promotion on leader
//!   crash, reattachment across whole-group failures via multi-level views, and
//!   the periodic merge process of the epidemic variant.
//!
//! The protocol engine ([`DpsNode`]) is a pure message-driven state machine
//! implementing [`dps_sim::Process`]; it contains no I/O and can be driven by the
//! bundled cycle-based simulator or embedded elsewhere.
//!
//! The [`model`] module contains a *centralized reference model* of the overlay
//! (the same placement rules run on one machine). It is what the paper's authors
//! would have used to cross-check the distributed implementation: tests assert the
//! distributed forest converges to the reference forest, and the experiment
//! harness uses it as the omniscient oracle for delivery accounting.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod label;
mod msg;
mod seen;
mod sink;
mod views;

pub mod config;
pub mod model;
pub mod node;

pub use config::{CommKind, DpsConfig, JoinRule, TraversalKind};
pub use label::GroupLabel;
pub use msg::{BranchInfo, DpsMsg, GroupDescriptor, GroupRef, PubId, PubTicket, SubId, Ticket};
pub use node::DpsNode;
pub use seen::SeenCache;
pub use sink::{CountingSink, NoopSink, QueueSink, StatsSink};
