//! The broadcast baseline DPS is compared against (§5.2, *False Positives*):
//! "DPS allows to cut the number of the visited nodes with respect to a
//! broadcast by at least of the 45%, by a 70% on average, up to the 87%".
//!
//! A broadcast pub/sub has no semantic structure: every node keeps a few random
//! neighbors and every event is flooded to the whole network; each node then
//! matches the event against its own subscriptions. Every node is therefore
//! *visited* by every event — the yardstick the DPS "contacted" percentages are
//! measured against.
//!
//! ```
//! use dps_baseline::BroadcastNet;
//!
//! let mut net = BroadcastNet::new(64, 4, 42);
//! net.subscribe(net.nodes()[0], "a > 5".parse().unwrap());
//! net.run(10);
//! let id = net.publish(net.nodes()[1], "a = 9".parse().unwrap());
//! net.run(20);
//! assert_eq!(net.visited(id), 64); // broadcast touches everyone
//! assert_eq!(net.notified(id), 1); // but only one subscriber matches
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::HashSet;
use std::sync::Arc;

use dps_content::{Event, Filter, FilterIndex, MatchScratch, SharedEvent};
use dps_overlay::{CountingSink, PubId, StatsSink, SubId};
use dps_sim::{Context, Message, MsgClass, NodeId, Process, Sim};
use rand::Rng;

/// Flooded event message.
#[derive(Debug, Clone)]
pub struct Flood {
    id: PubId,
    /// Refcounted: re-flooding to every neighbor clones the `Arc`, so the
    /// whole broadcast shares the publisher's one allocation.
    event: SharedEvent,
}

impl Message for Flood {
    fn class(&self) -> MsgClass {
        MsgClass::Publication
    }
}

/// A baseline node: random neighbors, flood-on-first-receipt, local matching.
pub struct FloodNode {
    id: NodeId,
    neighbors: Vec<NodeId>,
    subs: FilterIndex<SubId>,
    next_sub: u32,
    scratch: MatchScratch,
    matched: Vec<SubId>,
    seen: HashSet<PubId>,
    sink: Arc<CountingSink>,
    next_pub: u32,
}

impl FloodNode {
    fn new(sink: Arc<CountingSink>) -> Self {
        FloodNode {
            id: NodeId::from_index(0),
            neighbors: Vec::new(),
            subs: FilterIndex::new(),
            next_sub: 0,
            scratch: MatchScratch::new(),
            matched: Vec::new(),
            seen: HashSet::new(),
            sink,
            next_pub: 0,
        }
    }

    fn deliver(&mut self, msg: &Flood, ctx: &mut Context<'_, Flood>) {
        if !self.seen.insert(msg.id) {
            return;
        }
        self.sink.on_contact(msg.id, self.id, ctx.now());
        self.subs
            .matching_into(&msg.event, &mut self.scratch, &mut self.matched);
        if !self.matched.is_empty() {
            self.sink
                .on_notify(msg.id, self.id, &msg.event, &self.matched, ctx.now());
        }
        for n in self.neighbors.clone() {
            ctx.send(n, msg.clone());
        }
    }
}

impl Process for FloodNode {
    type Msg = Flood;

    fn on_start(&mut self, ctx: &mut Context<'_, Flood>) {
        self.id = ctx.me();
    }

    fn on_message(&mut self, _from: NodeId, msg: Flood, ctx: &mut Context<'_, Flood>) {
        self.deliver(&msg, ctx);
    }
}

/// A complete broadcast network over `n` nodes with `degree` random out-links
/// each (plus a ring edge for guaranteed connectivity).
pub struct BroadcastNet {
    sim: Sim<FloodNode>,
    sink: Arc<CountingSink>,
    nodes: Vec<NodeId>,
}

impl BroadcastNet {
    /// Builds the network.
    pub fn new(n: usize, degree: usize, seed: u64) -> Self {
        let sink = Arc::new(CountingSink::new());
        let mut sim = Sim::new(seed);
        let nodes: Vec<NodeId> = (0..n)
            .map(|_| sim.add_node(FloodNode::new(sink.clone())))
            .collect();
        // Ring + random chords: connected, low diameter.
        for i in 0..n {
            let mut neigh = vec![nodes[(i + 1) % n]];
            while neigh.len() < degree.min(n - 1) {
                let j = sim.rng().random_range(0..n);
                if j != i && !neigh.contains(&nodes[j]) {
                    neigh.push(nodes[j]);
                }
            }
            sim.node_mut(nodes[i]).unwrap().neighbors = neigh;
        }
        BroadcastNet { sim, sink, nodes }
    }

    /// The node ids.
    pub fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    /// Installs a subscription (purely local in a broadcast system).
    pub fn subscribe(&mut self, node: NodeId, filter: Filter) {
        if let Some(n) = self.sim.node_mut(node) {
            let id = SubId(node, n.next_sub);
            n.next_sub += 1;
            n.subs.insert(id, filter);
        }
    }

    /// Publishes an event by flooding from `node`.
    pub fn publish(&mut self, node: NodeId, event: Event) -> PubId {
        let mut out = None;
        self.sim.invoke(node, |n, ctx| {
            let id = PubId(n.id, n.next_pub);
            n.next_pub += 1;
            let msg = Flood {
                id,
                event: event.into(),
            };
            n.deliver(&msg, ctx);
            out = Some(id);
        });
        out.expect("publisher alive")
    }

    /// Runs `steps` simulation steps.
    pub fn run(&mut self, steps: u64) {
        self.sim.run(steps);
    }

    /// Nodes visited by publication `id` so far.
    pub fn visited(&self, id: PubId) -> usize {
        self.sink.contacted(id)
    }

    /// Nodes whose subscriptions matched publication `id`.
    pub fn notified(&self, id: PubId) -> usize {
        self.sink.notified(id)
    }

    /// Messages sent so far in the whole network.
    pub fn messages_sent(&self) -> u64 {
        self.sim.metrics().total_sent(MsgClass::Publication)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flood_reaches_every_node() {
        let mut net = BroadcastNet::new(50, 3, 1);
        let id = net.publish(net.nodes()[7], "a = 1".parse().unwrap());
        net.run(60);
        assert_eq!(net.visited(id), 50);
    }

    #[test]
    fn matching_is_local() {
        let mut net = BroadcastNet::new(20, 3, 2);
        net.subscribe(net.nodes()[3], "a > 0".parse().unwrap());
        net.subscribe(net.nodes()[4], "a < 0".parse().unwrap());
        let id = net.publish(net.nodes()[0], "a = 5".parse().unwrap());
        net.run(40);
        assert_eq!(net.visited(id), 20);
        assert_eq!(net.notified(id), 1);
    }

    #[test]
    fn message_cost_scales_with_degree() {
        let mut small = BroadcastNet::new(30, 2, 3);
        let id = small.publish(small.nodes()[0], "a = 1".parse().unwrap());
        small.run(40);
        let low = small.messages_sent();
        assert_eq!(small.visited(id), 30);

        let mut big = BroadcastNet::new(30, 6, 3);
        let id2 = big.publish(big.nodes()[0], "a = 1".parse().unwrap());
        big.run(40);
        assert_eq!(big.visited(id2), 30);
        assert!(big.messages_sent() > low);
    }
}
