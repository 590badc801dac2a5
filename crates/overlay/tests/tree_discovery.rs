//! Tree discovery is paid once per attribute, not once per request: a node
//! keeps one lookup per attribute, shares its answer among everything that
//! waits on it, and remembers "no such tree" for a bounded time. Costs are
//! read as `MsgClass::Management` sends from the simulator's metrics (every
//! `FindTree` hop and every answer is one).

use std::sync::Arc;

use dps_content::{Event, Filter};
use dps_overlay::config::{FIND_TREE_RETRIES, OWNER_MERGE_EVERY, WALK_TTL};
use dps_overlay::{CountingSink, DpsConfig, DpsNode, PubId, StatsSink};
use dps_sim::{MsgClass, NodeId, Sim};

/// `n` nodes that all know each other, default configuration (root traversal,
/// leader groups, a filter joins the tree of its first predicate).
fn network(n: usize, seed: u64) -> (Sim<DpsNode>, Vec<NodeId>, Arc<CountingSink>) {
    let sink = Arc::new(CountingSink::new());
    let mut sim = Sim::new(seed);
    let mut nodes = Vec::new();
    for _ in 0..n {
        let s: Arc<dyn StatsSink> = sink.clone();
        nodes.push(sim.add_node(DpsNode::with_sink(DpsConfig::default(), s)));
    }
    for id in &nodes {
        let peers = nodes.clone();
        sim.node_mut(*id).unwrap().seed_peers(peers);
    }
    sim.run(5);
    (sim, nodes, sink)
}

fn subscribe(sim: &mut Sim<DpsNode>, node: NodeId, filter: &str) {
    let filter: Filter = filter.parse().unwrap();
    sim.invoke(node, |n, ctx| {
        n.subscribe(filter, ctx);
    });
}

fn publish(sim: &mut Sim<DpsNode>, node: NodeId, event: &str) -> PubId {
    let event: Event = event.parse().unwrap();
    let mut id = None;
    sim.invoke(node, |n, ctx| id = Some(n.publish(event, ctx)));
    id.unwrap()
}

fn management(sim: &Sim<DpsNode>) -> u64 {
    sim.metrics().total_sent(MsgClass::Management)
}

/// The most messages one walk pair can cost: two walks of `WALK_TTL + 1`
/// hops, one answer each.
const PAIR_COST: u64 = 2 * (WALK_TTL as u64 + 2);

/// Management messages sent while one node publishes `event` once a step for
/// `pubs` steps (and 100 more to drain) into a 12-node overlay whose only
/// subscription is on `x`.
fn management_while_publishing(event: &str, pubs: u64) -> u64 {
    let (mut sim, nodes, sink) = network(12, 21);
    subscribe(&mut sim, nodes[0], "x > 0");
    sim.run(300);
    assert_eq!(sim.node(nodes[0]).unwrap().pending_subscriptions(), 0);
    let before = management(&sim);
    let mut ids = Vec::new();
    for _ in 0..pubs {
        ids.push(publish(&mut sim, nodes[7], event));
        sim.run(1);
    }
    sim.run(100);
    for id in ids {
        assert!(sink.was_notified(id, nodes[0]), "{id:?} missed the x tree");
    }
    management(&sim) - before
}

#[test]
fn publishing_on_an_absent_tree_costs_walks_not_publications() {
    let pubs = 200;
    let without = management_while_publishing("x = 5", pubs);
    let with = management_while_publishing("x = 5 & y = 5", pubs);
    // One lookup of `1 + FIND_TREE_RETRIES` pairs, then nothing until the
    // remembered absence lapses `OWNER_MERGE_EVERY` steps later: the window
    // holds at most this many lookups, whatever is published inside it.
    let window = pubs + 100;
    let lookups = window / OWNER_MERGE_EVERY + 1;
    let bound = lookups * (1 + FIND_TREE_RETRIES as u64) * PAIR_COST;
    let extra = with.saturating_sub(without);
    assert!(
        extra <= bound,
        "{pubs} publications on an absent tree cost {extra} management messages, \
         more than the {bound} that {lookups} lookups can"
    );
    // And it did walk: the attribute is not silently ignored.
    assert!(extra >= PAIR_COST / 2, "only {extra}: no walk at all?");
}

#[test]
fn subscriptions_issued_together_share_one_walk() {
    let (mut sim, nodes, _) = network(12, 22);
    let before = management(&sim);
    // Sends made inside `invoke` are counted as it returns, so nothing but
    // this node's own requests is in the difference.
    sim.invoke(nodes[3], |n, ctx| {
        for k in 0..64 {
            let filter: Filter = format!("a > {k}").parse().unwrap();
            n.subscribe(filter, ctx);
        }
    });
    assert_eq!(management(&sim) - before, 2, "one walk pair, not 64");
    // All 64 share every later walk too, and are placed once the node has
    // given up and created the tree (nobody else having subscribed).
    sim.run(400);
    let node = sim.node(nodes[3]).unwrap();
    assert_eq!(node.pending_subscriptions(), 0);
    assert_eq!(node.owned_attrs(), vec!["a".into()]);
    assert_eq!(node.subscription_count(), 64);
}

#[test]
fn a_remembered_absence_ends_within_one_owner_period() {
    let (mut sim, nodes, sink) = network(12, 23);
    let (publisher, subscriber) = (nodes[7], nodes[2]);
    subscribe(&mut sim, nodes[0], "x > 0");
    sim.run(300);

    // Publish once a step throughout; `log` is (publish step, id).
    let mut log: Vec<(u64, PubId)> = Vec::new();
    let step = |sim: &mut Sim<DpsNode>, log: &mut Vec<(u64, PubId)>| {
        log.push((sim.now(), publish(sim, publisher, "x = 5 & y = 5")));
        sim.run(1);
    };
    // Long enough for the lookup of `y` to run out of retries.
    let lookup = (1 + FIND_TREE_RETRIES as u64) * (WALK_TTL as u64 + 2);
    for _ in 0..lookup + 5 {
        step(&mut sim, &mut log);
    }
    // The publisher now believes `y` absent: nothing of its waits on a tree
    // any more, although every event it sends carries `y`.
    sim.run(5);
    assert_eq!(sim.node(publisher).unwrap().pending_publications(), 0);

    // A subscriber on `y` appears while that belief holds.
    subscribe(&mut sim, subscriber, "y > 0");
    let mut placed_at = None;
    for _ in 0..(2 * lookup + 3 * OWNER_MERGE_EVERY) {
        step(&mut sim, &mut log);
        if placed_at.is_none() && sim.node(subscriber).unwrap().pending_subscriptions() == 0 {
            placed_at = Some(sim.now());
        }
    }
    let placed_at = placed_at.expect("the y subscription was placed");
    sim.run(100);

    // Worst case the publisher hears nothing and believes the absence until
    // it lapses, `OWNER_MERGE_EVERY` steps after it was recorded — so at most
    // that long after the subscription settled; the publication that finds
    // the belief lapsed walks, waits for the answer and is delivered.
    let slack = 5;
    let from = placed_at + OWNER_MERGE_EVERY + slack;
    let owed: Vec<PubId> = log
        .iter()
        .filter(|(at, _)| *at >= from)
        .map(|(_, id)| *id)
        .collect();
    assert!(owed.len() as u64 >= OWNER_MERGE_EVERY);
    for id in &owed {
        assert!(
            sink.was_notified(*id, subscriber),
            "{id:?}, published ≥ {} steps after the subscription settled, never arrived",
            OWNER_MERGE_EVERY + slack
        );
    }
    // The `x` side never noticed any of it.
    for (_, id) in &log {
        assert!(sink.was_notified(*id, nodes[0]));
    }
}
