//! Self-healing under churn (§4.3): leader crashes, whole-group failures,
//! owner crashes and the storm scenario of Fig. 3(b) in miniature.

use dps::{CommKind, DpsConfig, DpsNetwork, JoinRule, NodeId, TraversalKind};

fn build(comm: CommKind, seed: u64, subs: &[&str]) -> (DpsNetwork, Vec<NodeId>) {
    let mut cfg = DpsConfig::named(TraversalKind::Root, comm);
    cfg.join_rule = JoinRule::First;
    let mut net = DpsNetwork::new(cfg, seed);
    let nodes = net.add_nodes(subs.len() + 8);
    net.run(30);
    for (i, s) in subs.iter().enumerate() {
        let _ = net.try_subscribe(nodes[i], s.parse::<dps::Filter>().unwrap());
        net.run(12);
    }
    assert!(net.quiesce(1500), "overlay did not converge");
    net.run(150);
    (net, nodes)
}

/// A crashed group leader is replaced by a co-leader and delivery continues.
#[test]
fn leader_crash_is_healed_by_co_leader() {
    // Three subscribers share the group a > 0: a leader and two co-leaders.
    let subs = ["a > 0", "a > 0", "a > 0", "a < -10"];
    let (mut net, nodes) = build(CommKind::Leader, 31, &subs);
    let publisher = nodes[subs.len() + 1];

    let before = net
        .try_publish(publisher, "a = 5".parse::<dps::Event>().unwrap())
        .unwrap();
    net.run(60);
    for node in &nodes[..3] {
        assert!(
            net.sink().was_notified(before, *node),
            "warm-up delivery failed"
        );
    }

    // Find and kill the leader of a > 0.
    let group = net
        .distributed_groups()
        .into_iter()
        .find(|g| g.label.to_string() == "⟨a > 0⟩")
        .expect("group a > 0");
    let leader = *group.members.first().expect("has members");
    // `distributed_groups` reports from the leader itself, so the snapshot's
    // source is the leader; crash the node leading the group.
    let leader_node = net
        .sim()
        .alive_ids()
        .into_iter()
        .find(|id| {
            net.sim().node(*id).is_some_and(|n| {
                n.memberships()
                    .iter()
                    .any(|m| m.label.to_string() == "⟨a > 0⟩" && m.is_leader())
            })
        })
        .unwrap_or(leader);
    net.crash(leader_node);

    // Let failure detection (10–25 step heartbeats) and takeover run.
    net.run(150);

    let after = net
        .try_publish(publisher, "a = 7".parse::<dps::Event>().unwrap())
        .unwrap();
    net.run(80);
    let survivors: Vec<_> = (0..3)
        .map(|i| nodes[i])
        .filter(|n| net.sim().is_alive(*n))
        .collect();
    assert!(!survivors.is_empty());
    for n in survivors {
        assert!(
            net.sink().was_notified(after, n),
            "surviving subscriber {n} missed the post-crash event"
        );
    }
}

/// When an entire intermediate group crashes at once, the multi-level views
/// bridge the gap: the grandchild group is adopted by the grandparent.
#[test]
fn whole_group_failure_is_bridged() {
    let subs = ["a > 0", "a > 5", "a > 50"];
    let (mut net, nodes) = build(CommKind::Leader, 32, &subs);
    let publisher = nodes[subs.len() + 2];

    // Kill the single member of the middle group a > 5 (the whole group fails).
    net.crash(nodes[1]);
    net.run(200); // detection + adoption through deeper succview entries

    let id = net
        .try_publish(publisher, "a = 100".parse::<dps::Event>().unwrap())
        .unwrap();
    net.run(80);
    assert!(
        net.sink().was_notified(id, nodes[0]),
        "a > 0 subscriber missed event after bridge"
    );
    assert!(
        net.sink().was_notified(id, nodes[2]),
        "a > 50 subscriber stranded: whole-group failure not bridged"
    );
}

/// The tree owner (root) crashes; the tree is re-rooted and publications keep
/// flowing.
#[test]
fn owner_crash_rebuilds_root() {
    let subs = ["a > 0", "a < 0", "a > 10"];
    let (mut net, nodes) = build(CommKind::Leader, 33, &subs);
    let publisher = nodes[subs.len() + 3];

    // nodes[0] subscribed first: it owns the tree.
    let owner = net
        .sim()
        .alive_ids()
        .into_iter()
        .find(|id| {
            net.sim()
                .node(*id)
                .is_some_and(|n| !n.owned_attrs().is_empty())
        })
        .expect("an owner exists");
    net.crash(owner);
    net.run(300); // detection, re-rooting, owner announcements

    let id = net
        .try_publish(publisher, "a = 20".parse::<dps::Event>().unwrap())
        .unwrap();
    // The publisher may hold a stale contact for the dead owner; entry-hop acks
    // re-walk and resend every REQUEST_TIMEOUT steps.
    net.run(350);
    let mut delivered = 0;
    for n in [nodes[0], nodes[2]] {
        if net.sim().is_alive(n) && net.sink().was_notified(id, n) {
            delivered += 1;
        }
    }
    assert!(
        delivered >= 1,
        "no surviving matching subscriber reachable after owner crash"
    );
}

/// Adversarial churn *during* group creation: nodes crash while subscriptions
/// are still walking the trees. Placement must route around the victims and
/// the surviving subscribers must still end up in groups and receive events.
#[test]
fn churn_during_group_creation_still_converges() {
    let mut cfg = DpsConfig::named(TraversalKind::Root, CommKind::Epidemic).with_fanout(2);
    cfg.join_rule = JoinRule::First;
    let mut net = DpsNetwork::new(cfg, 35);
    let nodes = net.add_nodes(60);
    net.run(30);
    // Interleave subscriptions with crashes so joins are in flight when their
    // entry hops / group contacts die.
    for (i, n) in nodes.iter().enumerate().take(40) {
        let c = (i % 8) as i64;
        let _ = net.try_subscribe(*n, format!("a > {c}").parse::<dps::Filter>().unwrap());
        if i % 5 == 4 {
            net.crash_random();
            net.run(2);
        }
    }
    // 8 crashes among 60 nodes happened mid-creation.
    assert!(net.snapshot().alive_nodes >= 45);
    assert!(
        net.quiesce(4000),
        "subscriptions stuck after churn during creation: {} pending",
        net.pending_subscriptions()
    );
    net.run(200);

    let publisher = net
        .sim()
        .alive()
        .rev()
        .find(|n| n.index() >= 40)
        .expect("an alive publisher remains");
    let at = net.sim().now();
    net.try_publish(publisher, "a = 100".parse::<dps::Event>().unwrap())
        .unwrap();
    net.run(250);
    let ratio = net.delivered_ratio_between(at, u64::MAX);
    assert!(
        ratio >= 0.8,
        "delivery ratio {ratio} after creation-time churn below the paper's floor of 0.8"
    );
}

/// A burst of simultaneous leader crashes: every group leader dies at once.
/// The epidemic variant's redundancy plus heartbeat-driven takeover must heal
/// the overlay, and the delivered ratio must recover for later publications.
#[test]
fn epidemic_heals_after_leader_crash_burst() {
    let mut cfg = DpsConfig::named(TraversalKind::Root, CommKind::Epidemic).with_fanout(2);
    cfg.join_rule = JoinRule::First;
    let mut net = DpsNetwork::new(cfg, 36);
    let nodes = net.add_nodes(60);
    net.run(30);
    for (i, n) in nodes.iter().enumerate().take(40) {
        let c = (i % 10) as i64;
        let _ = net.try_subscribe(*n, format!("a > {c}").parse::<dps::Filter>().unwrap());
        if i % 4 == 0 {
            net.run(8);
        }
    }
    assert!(net.quiesce(2500), "overlay did not converge");
    net.run(200);

    // Kill every node currently leading a group, all in the same step.
    let leaders: Vec<NodeId> = net
        .sim()
        .alive()
        .filter(|id| {
            net.sim()
                .node(*id)
                .is_some_and(|n| n.memberships().iter().any(|m| m.is_leader()))
        })
        .collect();
    assert!(!leaders.is_empty(), "no leaders found before the burst");
    for l in &leaders {
        net.crash(*l);
    }

    // Failure detection (10–25 step heartbeats), takeover and healing.
    net.run(400);

    let publisher = net
        .sim()
        .alive()
        .rev()
        .find(|n| n.index() >= 40)
        .expect("an alive publisher remains");
    let healed = net.sim().now();
    net.try_publish(publisher, "a = 100".parse::<dps::Event>().unwrap())
        .unwrap();
    net.run(250);
    let ratio = net.delivered_ratio_between(healed, u64::MAX);
    assert!(
        ratio >= 0.8,
        "delivered ratio {ratio} did not recover after the leader crash burst"
    );
}

/// Miniature of the paper's Fig. 3(b): a storm kills a quarter of the nodes,
/// the epidemic overlay keeps delivering and recovers afterwards.
#[test]
fn epidemic_overlay_survives_a_storm() {
    let mut cfg = DpsConfig::named(TraversalKind::Root, CommKind::Epidemic).with_fanout(2);
    cfg.join_rule = JoinRule::First;
    let mut net = DpsNetwork::new(cfg, 34);
    let nodes = net.add_nodes(60);
    net.run(30);
    // Paper-like group sizes: 40 subscribers over 10 distinct predicates, so each
    // group holds ~4 members (the paper's groups grow with the subscription count;
    // epidemic robustness relies on that redundancy).
    for (i, n) in nodes.iter().enumerate().take(40) {
        let c = (i % 10) as i64;
        let _ = net.try_subscribe(*n, format!("a > {c}").parse::<dps::Filter>().unwrap());
        if i % 4 == 0 {
            net.run(8);
        }
    }
    net.quiesce(2500);
    net.run(200);

    // Storm: one crash every 2 steps (15 nodes, 25%).
    for _ in 0..15 {
        net.crash_random();
        net.run(2);
    }
    // Recovery phase.
    net.run(400);
    let publisher = net
        .sim()
        .alive_ids()
        .into_iter()
        .rev()
        .find(|n| n.index() >= 40)
        .expect("an alive publisher remains");
    let id = net
        .try_publish(publisher, "a = 100".parse::<dps::Event>().unwrap())
        .unwrap();
    // The publisher's cached contacts may be dead; entry-hop acks re-walk and
    // resend every `REQUEST_TIMEOUT` steps, so allow a few rounds.
    net.run(250);

    let report = net
        .reports()
        .into_iter()
        .find(|r| r.id == id)
        .expect("report for final publication");
    let alive_expected: Vec<_> = report
        .expected
        .iter()
        .filter(|n| net.sim().is_alive(**n))
        .collect();
    let delivered = alive_expected
        .iter()
        .filter(|n| net.sink().was_notified(id, ***n))
        .count();
    let ratio = delivered as f64 / alive_expected.len().max(1) as f64;
    assert!(
        ratio >= 0.8,
        "post-storm delivery ratio {ratio} below the paper's floor of 0.8"
    );
}

/// A sole leader leaving a mid-tree group tells nobody: its parent's branch
/// and its child's predview keep naming it, no heartbeat ever condemns a
/// live node, and the subtree below stays cut off (ROADMAP B).
#[test]
#[ignore = "a sole leader leaving a mid-tree group cuts its subtree off (ROADMAP B)"]
fn a_sole_leader_leaving_a_mid_tree_group_keeps_its_subtree_reachable() {
    let mut short = Vec::new();
    for traversal in [TraversalKind::Root, TraversalKind::Generic] {
        let mut cfg = DpsConfig::named(traversal, CommKind::Leader);
        cfg.join_rule = JoinRule::First;
        let mut net = DpsNetwork::new(cfg, 5);
        let nodes = net.add_nodes(12);
        net.run(30);
        // A chain of groups, one subscriber each: node 1 leads `temp > 5`
        // alone, between node 4's `temp > 1` and node 2's `temp > 10`.
        let mut leaving = None;
        for (i, filter) in [
            (4, "temp > 1"),
            (1, "temp > 5"),
            (2, "temp > 10"),
            (3, "temp > 20"),
        ] {
            let sub = net.try_subscribe(nodes[i], filter.parse::<dps::Filter>().unwrap());
            if i == 1 {
                leaving = sub.ok();
            }
            net.run(150);
        }
        net.try_unsubscribe(nodes[1], leaving.unwrap()).unwrap();
        net.run(1000);
        let at = net.sim().now();
        let id = net
            .try_publish(nodes[0], "temp = 30".parse::<dps::Event>().unwrap())
            .unwrap();
        net.run(100);
        let report = net.reports().into_iter().find(|r| r.id == id).unwrap();
        if report.delivered != report.expected.len() {
            short.push(format!(
                "{traversal:?}: {} of {}, {:?}",
                report.delivered,
                report.expected.len(),
                net.misses_between(at, at + 1)
            ));
        }
    }
    assert!(short.is_empty(), "{short:#?}");
}
