//! The node-side interface of the simulator: identities, messages, and the
//! [`Process`] state-machine trait.

use std::fmt;

use serde::{Deserialize, Serialize};

/// Discrete simulation time, in steps (the paper's "cycles").
pub type Step = u64;

/// The deterministic RNG behind every per-node stream (and the driver RNG).
///
/// Each node owns a private `SimRng` whose seed is derived from `(sim seed,
/// node index)` at [`Sim::add_node`](crate::Sim::add_node) time. Because a
/// node's draws depend only on its own seed and its own event sequence —
/// never on a stream shared with other nodes — adding a draw to one node's
/// handler cannot reshuffle anybody else's. (With the vendored RNG stand-ins
/// the per-node derivation is a seed mix, not ChaCha's stream-counter
/// facility; see `node_rng` in the engine.)
pub type SimRng = rand_chacha::ChaCha8Rng;

/// Identity of a simulated node.
///
/// Ids are dense indices assigned by [`Sim::add_node`](crate::Sim::add_node) in
/// join order, which keeps per-node bookkeeping in flat vectors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct NodeId(u64);

impl NodeId {
    /// Builds a `NodeId` from a dense index. Mostly useful in tests; real ids come
    /// from [`Sim::add_node`](crate::Sim::add_node).
    pub fn from_index(i: usize) -> Self {
        NodeId(i as u64)
    }

    /// The dense index of this node.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Traffic class of a message, used by [`Metrics`](crate::Metrics) to reproduce the
/// paper's per-class message accounting ("Messages include the ones due to
/// publication, subscription, and management of the overlay", §5.2.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum MsgClass {
    /// Event dissemination traffic.
    Publication,
    /// Subscription routing and group joining traffic.
    Subscription,
    /// Overlay management: views, heartbeats, merges, bootstrap.
    Management,
}

impl MsgClass {
    /// All classes, in a fixed order (used for array indexing).
    pub const ALL: [MsgClass; 3] = [
        MsgClass::Publication,
        MsgClass::Subscription,
        MsgClass::Management,
    ];

    /// Dense index of the class.
    pub fn index(self) -> usize {
        match self {
            MsgClass::Publication => 0,
            MsgClass::Subscription => 1,
            MsgClass::Management => 2,
        }
    }
}

/// A simulatable message. The only requirements beyond `Clone + Debug` are a
/// traffic [`class`](Message::class) so the engine can account it, and
/// `Send + 'static` so a whole simulation can be moved to another thread (a
/// broker serves its overlay from a thread of its own).
pub trait Message: Clone + fmt::Debug + Send + 'static {
    /// Names of the message kinds [`kind`](Message::kind) indexes into — a
    /// finer census than the three classes (one entry per protocol message
    /// type). The default is a single anonymous kind.
    const KINDS: &'static [&'static str] = &["msg"];

    /// The traffic class of this message.
    fn class(&self) -> MsgClass;

    /// Index of this message's kind in [`KINDS`](Message::KINDS);
    /// [`Metrics::received_by_kind`](crate::Metrics::received_by_kind) counts
    /// receipts per index.
    fn kind(&self) -> usize {
        0
    }
}

/// A protocol state machine: one instance per simulated node.
///
/// Handlers receive a [`Context`] to send messages and access the node's
/// private RNG stream; all effects are deferred to the next step, making each
/// step atomic. Processes must be `Send + 'static` (with no hidden shared
/// mutable state and no borrowed data), so that a simulation can be moved to
/// another thread.
pub trait Process: Send + 'static {
    /// Message type exchanged by this protocol.
    type Msg: Message;

    /// Called once when the node joins the system.
    fn on_start(&mut self, ctx: &mut Context<'_, Self::Msg>) {
        let _ = ctx;
    }

    /// Called for each message delivered to this node.
    fn on_message(&mut self, from: NodeId, msg: Self::Msg, ctx: &mut Context<'_, Self::Msg>);

    /// Called once per step (after deliveries) for periodic work such as gossip
    /// rounds and heartbeat probing.
    fn on_tick(&mut self, ctx: &mut Context<'_, Self::Msg>) {
        let _ = ctx;
    }
}

/// Handler-side capability object: lets a node know who and when it is, send
/// messages, and draw randomness — all deterministically.
///
/// The outbox is a scratch buffer owned by the engine and reused across handler
/// invocations, so sending allocates only when a step's fan-out exceeds any
/// previous one. The RNG is the node's own counter-seeded stream, not a
/// simulation-wide generator: two nodes' draws never interleave.
pub struct Context<'a, M> {
    pub(crate) me: NodeId,
    pub(crate) now: Step,
    pub(crate) rng: &'a mut SimRng,
    pub(crate) out: &'a mut Vec<(NodeId, M)>,
}

impl<'a, M: Message> Context<'a, M> {
    /// The identity of the node running the handler.
    pub fn me(&self) -> NodeId {
        self.me
    }

    /// Current simulation step.
    pub fn now(&self) -> Step {
        self.now
    }

    /// Sends `msg` to `to`; it will be delivered after the link's sampled
    /// latency — the next step under the default unit model (if `to` is then
    /// alive). Sending to self is allowed and takes the same latency.
    pub fn send(&mut self, to: NodeId, msg: M) {
        self.out.push((to, msg));
    }

    /// This node's private deterministic RNG stream.
    pub fn rng(&mut self) -> &mut SimRng {
        self.rng
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_id_round_trip() {
        let id = NodeId::from_index(7);
        assert_eq!(id.index(), 7);
        assert_eq!(id.to_string(), "n7");
    }

    #[test]
    fn class_indices_are_dense() {
        for (i, c) in MsgClass::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
        }
    }
}
