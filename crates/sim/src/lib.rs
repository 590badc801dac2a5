//! A deterministic discrete-event simulator with timestamped delivery.
//!
//! This is the evaluation substrate of the DPS reproduction. The paper (§5.2)
//! evaluates DPS "using an event-based simulator we developed"; the properties it
//! states are: the simulation is *cycle based*, messages travel between neighbors
//! with (implicitly) unit latency, nodes join, leave and crash, and heartbeat-based
//! failure detection runs between neighbors with detection intervals drawn uniformly
//! from 10 to 25 steps. This crate implements that machine as the latency ≡ 1
//! special case of a timestamped event queue:
//!
//! * [`Sim`] advances in discrete steps; a message sent at step *t* is enqueued
//!   with delivery time *t + latency(link)*, the latency sampled per the
//!   installed [`LatencyModel`] ([`Sim::set_latency`]) from the destination's
//!   dedicated RNG stream. The default [`LatencyModel::Unit`] delivers at
//!   *t + 1* without drawing anything — the paper's cycle model, byte for
//!   byte. Within a step, deliveries and ticks happen in deterministic order
//!   (by destination node id, then send order), so a run is a pure function
//!   of its RNG seed. Ticks are the period-1 timer events of the timeline.
//! * Every node draws from a private seed-derived RNG stream ([`SimRng`]),
//!   and the driver from a stream of its own, so no node's draws depend on
//!   the order in which other nodes run.
//! * Protocol logic is supplied via the [`Process`] trait: a node is a state
//!   machine reacting to `on_start`, `on_message` and `on_tick`.
//! * [`ChurnPlan`] reproduces the paper's failure scenarios (a crash every `1/p`
//!   steps; the three-phase "storm" of Fig. 3(b); steady growth of Fig. 3(c)).
//! * [`FaultPlan`] adds the link-level fault classes — network partitions
//!   (named sides over a step interval) and lossy links — enforced in the
//!   delivery loop and accounted per [`DropReason`] in the metrics.
//! * [`Metrics`] keeps running totals of sent/received messages per node per
//!   class ([`MsgClass::Publication`], [`Subscription`](MsgClass::Subscription),
//!   [`Management`](MsgClass::Management)); the per-window summaries plotted
//!   in the paper's Figures 3(c)–3(g) are differences of its snapshots, taken
//!   by the figure runners.
//!
//! # Example
//!
//! ```
//! use dps_sim::{Context, Message, MsgClass, NodeId, Process, Sim};
//!
//! #[derive(Clone, Debug)]
//! struct Ping(u32);
//! impl Message for Ping {
//!     fn class(&self) -> MsgClass { MsgClass::Management }
//! }
//!
//! /// Relays a token `hops` times around the ring of all nodes.
//! struct Relay { hops: u32 }
//! impl Process for Relay {
//!     type Msg = Ping;
//!     fn on_message(&mut self, _from: NodeId, msg: Ping, ctx: &mut Context<'_, Ping>) {
//!         self.hops += 1;
//!         if msg.0 > 0 {
//!             let next = NodeId::from_index((ctx.me().index() + 1) % 3);
//!             ctx.send(next, Ping(msg.0 - 1));
//!         }
//!     }
//! }
//!
//! let mut sim = Sim::new(42);
//! for _ in 0..3 { sim.add_node(Relay { hops: 0 }); }
//! let first = sim.node_ids()[0];
//! sim.post(first, Ping(5)); // external stimulus
//! sim.run(10);
//! let total: u32 = sim.node_ids().iter().map(|id| sim.node(*id).unwrap().hops).sum();
//! assert_eq!(total, 6); // the injected message plus five relays
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod churn;
mod engine;
mod fault;
mod latency;
mod metrics;
mod process;

pub use churn::{ChurnEvent, ChurnPlan};
pub use engine::{Sim, SimSnapshot};
pub use fault::{CutDir, FaultPlan, PartitionWindow};
pub use latency::{LatencyModel, MAX_LATENCY};
pub use metrics::{ClassCounts, DropReason, LatencyHistogram, LatencySummary, Metrics};
pub use process::{Context, Message, MsgClass, NodeId, Process, SimRng, Step};
