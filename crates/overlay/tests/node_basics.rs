//! Direct tests of the protocol node through the simulator, below the facade:
//! tree creation, role assignment, view contents, owner bookkeeping, message
//! classes — the mechanics the integration suite only exercises indirectly.

use std::sync::Arc;

use dps_overlay::config::GROUP_VIEW_CAP;
use dps_overlay::{CommKind, CountingSink, DpsConfig, DpsNode, JoinRule, StatsSink, TraversalKind};
use dps_sim::{MsgClass, NodeId, Sim};

fn network(cfg: DpsConfig, n: usize, seed: u64) -> (Sim<DpsNode>, Vec<NodeId>, Arc<CountingSink>) {
    let sink = Arc::new(CountingSink::new());
    let mut sim = Sim::new(seed);
    let mut nodes = Vec::new();
    for _ in 0..n {
        let s: Arc<dyn StatsSink> = sink.clone();
        let mut node = DpsNode::with_sink(cfg, s);
        node.seed_peers(nodes.clone());
        let id = sim.add_node(node);
        nodes.push(id);
    }
    // Give earlier nodes a handle on the later ones too.
    for id in &nodes {
        let peers = nodes.clone();
        if let Some(nd) = sim.node_mut(*id) {
            nd.seed_peers(peers);
        }
    }
    sim.run(5);
    (sim, nodes, sink)
}

fn cfg() -> DpsConfig {
    let mut c = DpsConfig::named(TraversalKind::Root, CommKind::Leader);
    c.join_rule = JoinRule::First;
    c
}

#[test]
fn first_subscriber_becomes_owner_and_leader() {
    let (mut sim, nodes, _) = network(cfg(), 4, 1);
    sim.invoke(nodes[0], |n, ctx| {
        n.subscribe("a > 1".parse::<dps_content::Filter>().unwrap(), ctx);
    });
    sim.run(300);
    let n0 = sim.node(nodes[0]).unwrap();
    assert_eq!(n0.pending_subscriptions(), 0);
    assert_eq!(n0.owned_attrs(), vec!["a".into()]);
    // Two memberships: the root vertex it owns, and its own predicate group.
    assert_eq!(n0.memberships().len(), 2);
    let group = n0
        .memberships()
        .iter()
        .find(|m| !m.label.is_root())
        .unwrap();
    assert!(group.is_leader());
    assert_eq!(group.members, vec![nodes[0]]);
    assert_eq!(group.predview.len(), 1);
    assert!(group.predview[0].label.is_root());
}

#[test]
fn co_leaders_are_the_first_joiners() {
    let (mut sim, nodes, _) = network(cfg(), 6, 2);
    for node in &nodes[..4] {
        sim.invoke(*node, |n, ctx| {
            n.subscribe("a > 1".parse::<dps_content::Filter>().unwrap(), ctx);
        });
        sim.run(120);
    }
    sim.run(200);
    // Kc = 2 co-leaders by default: nodes 1 and 2; node 3 is a plain member.
    let leader = sim.node(nodes[0]).unwrap();
    let g = leader
        .memberships()
        .iter()
        .find(|m| !m.label.is_root())
        .unwrap();
    assert!(g.is_leader());
    assert_eq!(g.members.len(), 4);
    assert_eq!(g.co_leaders, vec![nodes[1], nodes[2]]);
    let member = sim.node(nodes[3]).unwrap();
    let gm = member.memberships().first().unwrap();
    assert!(!gm.is_leadership());
    assert_eq!(gm.leader, nodes[0]);
}

#[test]
fn same_predicate_subscriptions_share_one_membership() {
    let (mut sim, nodes, _) = network(cfg(), 3, 3);
    sim.invoke(nodes[0], |n, ctx| {
        n.subscribe("a > 1 & b > 0".parse::<dps_content::Filter>().unwrap(), ctx);
    });
    sim.run(200);
    sim.invoke(nodes[0], |n, ctx| {
        n.subscribe("a > 1 & b < 9".parse::<dps_content::Filter>().unwrap(), ctx);
    });
    sim.run(100);
    let n0 = sim.node(nodes[0]).unwrap();
    assert_eq!(n0.subscription_count(), 2);
    let group = n0
        .memberships()
        .iter()
        .find(|m| !m.label.is_root())
        .unwrap();
    assert_eq!(group.sub_ids.len(), 2, "both subs share the a > 1 group");
}

#[test]
fn notification_requires_full_filter_match() {
    let (mut sim, nodes, sink) = network(cfg(), 4, 4);
    sim.invoke(nodes[0], |n, ctx| {
        n.subscribe(
            "a > 1 & b > 100".parse::<dps_content::Filter>().unwrap(),
            ctx,
        );
    });
    sim.run(300);
    // Event matches the joined predicate (a > 1) but not b > 100.
    let mut id = None;
    sim.invoke(nodes[2], |n, ctx| {
        id = Some(n.publish("a = 5 & b = 3".parse::<dps_content::Event>().unwrap(), ctx));
    });
    sim.run(120);
    let id = id.unwrap();
    assert!(
        sink.was_contacted(id, nodes[0]),
        "false positive is contacted"
    );
    assert!(!sink.was_notified(id, nodes[0]), "but never notified");
    let n0 = sim.node(nodes[0]).unwrap();
    assert_eq!(n0.publications_received(), 1);
    assert_eq!(n0.publications_notified(), 0);
}

#[test]
fn publication_messages_are_classified_as_publication() {
    let (mut sim, nodes, _) = network(cfg(), 4, 5);
    sim.invoke(nodes[0], |n, ctx| {
        n.subscribe("a > 1".parse::<dps_content::Filter>().unwrap(), ctx);
    });
    sim.run(300);
    let before = sim.metrics().total_sent(MsgClass::Publication);
    sim.invoke(nodes[2], |n, ctx| {
        n.publish("a = 5".parse::<dps_content::Event>().unwrap(), ctx);
    });
    sim.run(100);
    assert!(
        sim.metrics().total_sent(MsgClass::Publication) > before,
        "publishing must produce publication-class traffic"
    );
    assert!(
        sim.metrics().total_sent(MsgClass::Management) > 0,
        "heartbeats/views produce management traffic"
    );
}

#[test]
fn epidemic_members_keep_partial_views() {
    let mut c = DpsConfig::named(TraversalKind::Root, CommKind::Epidemic);
    c.join_rule = JoinRule::First;
    let (mut sim, nodes, _) = network(c, 24, 6);
    for node in &nodes[..22] {
        sim.invoke(*node, |n, ctx| {
            n.subscribe("a > 1".parse::<dps_content::Filter>().unwrap(), ctx);
        });
        sim.run(60);
    }
    sim.run(400);
    let mut largest = 0;
    for node in &nodes[..22] {
        let nd = sim.node(*node).unwrap();
        for m in nd.memberships() {
            if !m.label.is_root() {
                assert!(
                    m.members.len() <= GROUP_VIEW_CAP + 1,
                    "epidemic groupview must stay bounded, got {}",
                    m.members.len()
                );
                largest = largest.max(m.members.len());
            }
        }
    }
    // More subscribers than the cap: a view that never filled would not test it.
    assert!(largest >= GROUP_VIEW_CAP, "largest groupview {largest}");
}

#[test]
fn unsubscribing_last_subscription_leaves_the_group() {
    let (mut sim, nodes, _) = network(cfg(), 4, 7);
    let mut sub = None;
    sim.invoke(nodes[1], |n, ctx| {
        sub = Some(n.subscribe("zz > 1".parse::<dps_content::Filter>().unwrap(), ctx));
    });
    sim.run(300);
    assert!(sim
        .node(nodes[1])
        .unwrap()
        .memberships()
        .iter()
        .any(|m| !m.label.is_root()));
    let sub = sub.unwrap();
    sim.invoke(nodes[1], move |n, ctx| n.unsubscribe(sub, ctx));
    sim.run(50);
    let n1 = sim.node(nodes[1]).unwrap();
    assert!(
        n1.memberships().iter().all(|m| m.label.is_root()),
        "non-root memberships must be gone after the last unsubscribe"
    );
    assert_eq!(n1.subscription_count(), 0);
}

#[test]
fn deterministic_replay_at_protocol_level() {
    let run = |seed: u64| {
        let (mut sim, nodes, sink) = network(cfg(), 6, seed);
        for node in &nodes[..3] {
            sim.invoke(*node, |n, ctx| {
                n.subscribe("a > 1".parse::<dps_content::Filter>().unwrap(), ctx);
            });
            sim.run(80);
        }
        sim.invoke(nodes[4], |n, ctx| {
            n.publish("a = 2".parse::<dps_content::Event>().unwrap(), ctx);
        });
        sim.run(150);
        (
            sim.metrics().total_sent(MsgClass::Publication),
            sim.metrics().total_sent(MsgClass::Subscription),
            sink.total_notifies(),
        )
    };
    assert_eq!(run(99), run(99));
}
