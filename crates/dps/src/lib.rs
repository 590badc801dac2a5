//! **DPS** — Dynamic Publish/Subscribe: a self-\* peer-to-peer content-based
//! publish/subscribe system.
//!
//! This crate is the user-facing entry point of the reproduction of
//! *"A Semantic Overlay for Self-\* Peer-to-Peer Publish/Subscribe"*
//! (Anceaume, Datta, Gradinariu, Simon, Virgillito — ICDCS 2006). It re-exports
//! the content model ([`dps_content`]), the protocol engine ([`dps_overlay`]) and
//! the simulator ([`dps_sim`]), and adds two driver surfaces on top:
//!
//! - the **driver core** ([`Overlay`]) — builds a network of DPS nodes, runs
//!   it step by step and injects subscriptions, publications and failures,
//!   reporting to a [`StatsSink`] and keeping nothing per publication: what
//!   `dps-broker` serves from;
//! - the **simulation driver** ([`DpsNetwork`]) — that core plus the
//!   evaluation's accounting: delivery measured against an omniscient oracle.
//!
//! Both fail with a typed [`DpsError`]. Applications do not drive nodes from
//! the outside: they open a session, subscribe, publish and receive. That
//! surface (`Hub`/`Session`/`Publisher`/`Subscriber`) is the `dps-client`
//! crate, over an in-process [`DpsNetwork`] or a live `dps-broker` alike.
//!
//! # Quickstart
//!
//! ```
//! use dps::{DpsConfig, DpsNetwork, Event, Filter};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // A small network running the root-based + leader-based flavor.
//! let mut net = DpsNetwork::new(DpsConfig::default(), 42);
//! let nodes = net.add_nodes(10);
//!
//! // Subscribers self-organize into per-attribute semantic trees.
//! net.try_subscribe(nodes[8], "price > 100".parse::<Filter>()?)?;
//! net.run(120); // let the overlay converge
//!
//! // Publish an event; only matching subscribers are notified.
//! let id = net.try_publish(nodes[9], "price = 150".parse::<Event>()?)?;
//! net.run(40);
//!
//! assert!(net.sink().was_notified(id, nodes[8]));
//! assert_eq!(net.delivered_ratio(), 1.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod network;
mod overlay;

pub use error::DpsError;

pub use dps_content::{
    AttrName, AttrType, Event, Filter, Op, ParseError, Predicate, SharedEvent, SharedFilter, Value,
};
pub use dps_overlay::{
    config, model, CommKind, CountingSink, DpsConfig, DpsMsg, DpsNode, GroupLabel, JoinRule, PubId,
    QueueSink, StatsSink, SubId, TraversalKind,
};
pub use dps_sim::{
    ChurnEvent, ChurnPlan, CutDir, DropReason, FaultPlan, LatencyHistogram, LatencyModel,
    LatencySummary, Metrics, MsgClass, NodeId, Sim, SimRng, Step,
};

pub use network::{DeliveryReport, DpsNetwork, MissCensus};
pub use overlay::{GroupSnapshot, Overlay};
