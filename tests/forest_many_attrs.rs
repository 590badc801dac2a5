//! Attribute-tree forests at width: subscriptions over eight attributes must
//! build exactly one tree per attribute (no duplicate roots), converge to the
//! `ForestModel` oracle's groups/parents/members, and route multi-attribute
//! publications across trees (an event is published into *every* matching
//! tree, §3).

mod common;

use std::collections::{BTreeMap, BTreeSet};

use dps::model::ForestModel;
use dps::{CommKind, DpsConfig, DpsNetwork, Filter, JoinRule, NodeId, SubId, TraversalKind};

const ATTRS: usize = 8;

/// One subscription per node: chains of 2–3 groups per attribute tree, plus a
/// multi-attribute filter every fourth node (cross-tree matching).
fn subscriptions() -> Vec<String> {
    let mut subs = Vec::new();
    for i in 0..32 {
        let k = i % ATTRS;
        let s = match i / ATTRS {
            0 => format!("m{k} > 10"),
            1 => format!("m{k} > 20"),
            2 => format!("m{k} < 60"),
            // Joins tree m{k} (first predicate) but also matches on the next
            // attribute: the cross-tree case.
            _ => format!("m{k} > 15 & m{} < 90", (k + 1) % ATTRS),
        };
        subs.push(s);
    }
    subs
}

fn reference() -> ForestModel {
    let mut f = ForestModel::new();
    for (i, s) in subscriptions().iter().enumerate() {
        let filter: dps::SharedFilter = s.parse::<Filter>().unwrap().into();
        f.subscribe(SubId(NodeId::from_index(i), 0), &filter, 0);
    }
    f
}

#[test]
fn eight_attribute_forest_matches_oracle_and_routes_across_trees() {
    let mut cfg = DpsConfig::named(TraversalKind::Root, CommKind::Leader);
    cfg.join_rule = JoinRule::First;
    let mut net = DpsNetwork::new(cfg, 29);
    let subs = subscriptions();
    let nodes = net.add_nodes(subs.len());
    net.run(30);
    for (i, s) in subs.iter().enumerate() {
        let _ = net.try_subscribe(nodes[i], s.parse::<dps::Filter>().unwrap());
        net.run(5);
    }
    assert!(net.quiesce(2000), "forest failed to converge");
    net.run(300); // let view exchange settle re-parenting

    // One tree per attribute in the oracle...
    let reference = reference();
    assert_eq!(reference.trees().count(), ATTRS);
    for tree in reference.trees() {
        tree.check_invariants().unwrap();
    }

    // ...and exactly one distributed root per attribute (no duplicate trees).
    let mut roots: BTreeMap<String, usize> = BTreeMap::new();
    for g in net.distributed_groups() {
        if g.label.is_root() {
            *roots.entry(g.label.attr().to_string()).or_default() += 1;
        }
    }
    let attrs: BTreeSet<String> = (0..ATTRS).map(|k| format!("m{k}")).collect();
    assert_eq!(
        roots.keys().cloned().collect::<BTreeSet<_>>(),
        attrs,
        "distributed roots must cover every attribute"
    );
    for (attr, count) in &roots {
        assert_eq!(*count, 1, "attribute {attr} grew {count} trees");
    }

    // Full structural equality against the oracle: same groups, same parents,
    // same memberships, in every one of the eight trees.
    let expect = common::model_groups(&reference);
    let got = common::live_groups(&net);
    assert_eq!(
        expect.keys().collect::<Vec<_>>(),
        got.keys().collect::<Vec<_>>(),
        "group set differs from the oracle"
    );
    for (label, (parent, members)) in &expect {
        let (gp, gm) = &got[label];
        assert_eq!(gp, parent, "parent of {label} differs");
        assert_eq!(gm, members, "members of {label} differ");
    }

    // Cross-tree routing: each event carries two attributes, so it must be
    // published into both trees and reach subscribers of either.
    let start = net.sim().now();
    for k in 0..ATTRS {
        let publisher = nodes[(k * 5) % nodes.len()];
        let ev = format!("m{k} = 30 & m{} = 30", (k + 1) % ATTRS);
        let id = net
            .try_publish(publisher, ev.parse::<dps::Event>().unwrap())
            .unwrap();
        // The oracle agrees on who should see it.
        let expected = reference.matching_subscribers(&ev.parse().unwrap());
        assert!(
            !expected.is_empty(),
            "event m{k} should match subscribers in at least one tree"
        );
        let _ = id;
    }
    net.run(200);
    let ratio = net.delivered_ratio_between(start, u64::MAX);
    assert!(
        (ratio - 1.0).abs() < 1e-9,
        "cross-tree publications must reach every matching subscriber, got {ratio}"
    );

    // A publication on an attribute nobody subscribes to must not inflate the
    // measure (no tree exists; the publisher's walks come back empty).
    let before = net.delivered_ratio();
    net.try_publish(nodes[0], "zz = 5".parse::<dps::Event>().unwrap())
        .unwrap();
    net.run(100);
    let report = net.reports().pop().unwrap();
    assert!(report.expected.is_empty(), "zz = 5 matches no subscription");
    assert!(net.delivered_ratio() <= before + 1e-9);
}
