//! **DPS** — Dynamic Publish/Subscribe: a self-\* peer-to-peer content-based
//! publish/subscribe system.
//!
//! This crate is the user-facing entry point of the reproduction of
//! *"A Semantic Overlay for Self-\* Peer-to-Peer Publish/Subscribe"*
//! (Anceaume, Datta, Gradinariu, Simon, Virgillito — ICDCS 2006). It re-exports
//! the content model ([`dps_content`]), the protocol engine ([`dps_overlay`]) and
//! the simulator ([`dps_sim`]), and adds three surfaces on top:
//!
//! - the **session-first API** ([`Hub`] → [`Session`] →
//!   [`Publisher`]/[`Subscriber`]) — how applications attach to the system,
//!   with explicit open/close lifecycle and [`DpsError`]-typed failures. The
//!   `dps-client` crate exposes the same shape against a live `dps-broker`
//!   process, so application code ports across backends unchanged;
//! - the **driver core** ([`Overlay`]) — builds a network of DPS nodes, runs
//!   it step by step and injects subscriptions, publications and failures,
//!   reporting to a [`StatsSink`] and keeping nothing per publication: what
//!   `dps-broker` serves from;
//! - the **simulation driver** ([`DpsNetwork`]) — that core plus the
//!   evaluation's accounting: delivery measured against an omniscient oracle.
//!
//! # Quickstart
//!
//! ```
//! use dps::{DpsConfig, Event, Hub};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // A small network running the root-based + leader-based flavor.
//! let hub = Hub::new(DpsConfig::default(), 42);
//! hub.add_nodes(8); // background overlay population
//!
//! // Subscribers self-organize into per-attribute semantic trees.
//! let trader = hub.open_session()?;
//! let ticks = trader.subscriber("price > 100".parse::<dps::Filter>()?)?;
//! hub.run(120); // let the overlay converge
//!
//! // Publish an event; only matching subscribers are notified.
//! let feed = hub.open_session()?;
//! feed.publisher()?.publish("price = 150".parse::<Event>()?)?;
//! hub.run(40);
//!
//! assert_eq!(ticks.drain().len(), 1);
//! assert_eq!(hub.delivered_ratio(), 1.0);
//! trader.close()?;
//! feed.close()?;
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod network;
mod overlay;
pub mod session;

pub use error::DpsError;
pub use session::{Delivery, Hub, Publisher, Session, Subscriber};

pub use dps_content::{
    AttrName, AttrType, Event, Filter, Op, ParseError, Predicate, SharedEvent, SharedFilter, Value,
};
pub use dps_overlay::{
    model, CommKind, CountingSink, DpsConfig, DpsMsg, DpsNode, GroupLabel, JoinRule, PubId,
    QueueSink, StatsSink, SubId, TraversalKind,
};
pub use dps_sim::{
    ChurnEvent, ChurnPlan, CutDir, DropReason, FaultPlan, LatencyHistogram, LatencyModel,
    LatencySummary, Metrics, MsgClass, NodeId, Sim, SimRng, Step,
};

pub use network::{DeliveryReport, DpsNetwork};
pub use overlay::{GroupSnapshot, Overlay};
