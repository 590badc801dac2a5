//! Property-based end-to-end tests: for random subscription sets and random
//! events, the distributed overlay (a) notifies exactly the oracle's matching
//! set, and (b) converges to the reference forest. Case counts are kept small —
//! each case is a full protocol simulation. One script of subscribe /
//! unsubscribe / crash / publish calls (c) checks the facade's and the
//! reference model's index-backed matching against a plain `Filter::matches`
//! scan, and (d) that the bare `Overlay` core and the `DpsNetwork` facade
//! around it behave identically.

use std::collections::{BTreeMap, BTreeSet, HashSet};
use std::sync::Arc;

use dps::{
    CommKind, DpsConfig, DpsNetwork, Event, Filter, JoinRule, MsgClass, NodeId, Overlay, QueueSink,
    TraversalKind,
};
use dps_workload::Workload;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A compact predicate universe on two numeric attributes; constants in a small
/// range so that inclusion chains and matches are frequent.
fn pred_strategy() -> impl Strategy<Value = String> {
    (
        proptest::sample::select(&["a", "b"][..]),
        proptest::sample::select(&["<", ">", "="][..]),
        -8i64..=8,
    )
        .prop_map(|(n, op, c)| format!("{n} {op} {c}"))
}

fn filter_strategy() -> impl Strategy<Value = String> {
    proptest::collection::vec(pred_strategy(), 1..=2).prop_map(|ps| ps.join(" & "))
}

fn events_strategy() -> impl Strategy<Value = Vec<(i64, i64)>> {
    proptest::collection::vec((-10i64..=10, -10i64..=10), 3..=5)
}

fn run_case(
    traversal: TraversalKind,
    comm: CommKind,
    filters: &[String],
    events: &[(i64, i64)],
    seed: u64,
) {
    let mut cfg = DpsConfig::named(traversal, comm);
    cfg.join_rule = JoinRule::First;
    if comm == CommKind::Epidemic {
        cfg = cfg.with_fanout(3);
    }
    let label = cfg.label();
    let mut net = DpsNetwork::new(cfg, seed);
    let nodes = net.add_nodes(filters.len() + 4);
    net.run(30);
    for (i, f) in filters.iter().enumerate() {
        let filter: Filter = f.parse().unwrap();
        let _ = net.try_subscribe(nodes[i], filter);
        net.run(10);
    }
    assert!(net.quiesce(3000), "{label}: convergence failed");
    net.run(150);

    let publisher = nodes[filters.len()];
    let mut ids = Vec::new();
    for (a, b) in events {
        let ev: Event = format!("a = {a} & b = {b}").parse().unwrap();
        let expected: HashSet<_> = filters
            .iter()
            .enumerate()
            .filter(|(_, f)| f.parse::<Filter>().unwrap().matches(&ev))
            .map(|(i, _)| nodes[i])
            .collect();
        let id = net.try_publish(publisher, ev).unwrap();
        ids.push((id, expected));
        net.run(30);
    }
    net.run(120);

    for (id, expected) in &ids {
        let got: HashSet<_> = nodes
            .iter()
            .copied()
            .filter(|n| net.sink().was_notified(*id, *n))
            .collect();
        assert_eq!(&got, expected, "{label}: notified set differs for {id:?}");
    }
}

/// The nodes with a filter matching `event`, by the reference semantics.
fn scan<'a>(pairs: impl Iterator<Item = (NodeId, &'a Filter)>, event: &Event) -> HashSet<NodeId> {
    pairs
        .filter(|(_, f)| f.matches(event))
        .map(|(n, _)| n)
        .collect()
}

/// Population of the scripted churn run.
const CHURN_NODES: usize = 30;

/// One driver call of the scripted churn run; nodes are indices into the
/// `CHURN_NODES` nodes the replaying test added first.
enum Op {
    Subscribe(usize, Filter),
    /// Cancels entry `k` of the list of issued, uncancelled subscriptions
    /// (`swap_remove` order).
    Unsubscribe(usize),
    Crash(usize),
    /// A `random_alive()` node publishes.
    Publish(Event),
    Run(u64),
}

/// Subscribe / unsubscribe / crash / publish over a multi-attribute workload:
/// 90 subscriptions, then 80 publications with a cancellation, a late
/// subscription or a crash between most of them.
fn churn_script(seed: u64) -> Vec<Op> {
    let w = Workload::multiplayer_game();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut script = vec![Op::Run(30)];
    for i in 0..90 {
        script.push(Op::Subscribe(i % CHURN_NODES, w.subscription(&mut rng)));
    }
    script.push(Op::Run(60));
    let mut live = 90;
    let mut dead = HashSet::new();
    for round in 0..80 {
        match round % 8 {
            1 | 5 => {
                script.push(Op::Unsubscribe(rng.random_range(0..live)));
                live -= 1;
            }
            3 => {
                let node = rng.random_range(0..CHURN_NODES);
                if !dead.contains(&node) {
                    script.push(Op::Subscribe(node, w.subscription(&mut rng)));
                    live += 1;
                }
            }
            7 => {
                let node = rng.random_range(0..CHURN_NODES);
                script.push(Op::Crash(node));
                dead.insert(node);
            }
            _ => {}
        }
        script.push(Op::Publish(w.event(&mut rng)));
        script.push(Op::Run(5));
    }
    script
}

/// The ground truth of every publication is computed through `FilterIndex`
/// (the only runtime matcher); the scan it must equal runs here, over the
/// `(node, filter)` pairs the test itself holds.
#[test]
fn ground_truth_equals_a_plain_scan_through_churn() {
    let mut net = DpsNetwork::new(DpsConfig::default(), 14);
    let nodes = net.add_nodes(CHURN_NODES);

    let mut live = Vec::new(); // (node, sub id, filter) of every uncancelled subscription
    let mut dead: HashSet<NodeId> = HashSet::new();
    let mut scanned = Vec::new();
    for op in churn_script(14) {
        match op {
            Op::Subscribe(i, f) => {
                live.push((nodes[i], net.try_subscribe(nodes[i], f.clone()).unwrap(), f));
            }
            Op::Unsubscribe(k) => {
                let (node, sub, _) = live.swap_remove(k);
                // A dead node's registration still goes, with a NodeDead report.
                assert_eq!(
                    net.try_unsubscribe(node, sub).is_ok(),
                    !dead.contains(&node)
                );
            }
            Op::Crash(i) => {
                net.crash(nodes[i]);
                dead.insert(nodes[i]);
            }
            Op::Publish(event) => {
                let round = scanned.len();
                let model = net.oracle().subscriptions();
                assert_eq!(
                    net.oracle().matching_subscribers(&event),
                    scan(model.iter().map(|(n, f)| (*n, f.inner())), &event),
                    "round {round}: reference model vs scan"
                );
                let alive = live.iter().filter(|(n, _, _)| !dead.contains(n));
                scanned.push(scan(alive.map(|(n, _, f)| (*n, f)), &event));
                let publisher = net.random_alive().unwrap();
                net.try_publish(publisher, event).unwrap();
            }
            Op::Run(steps) => net.run(steps),
        }
    }

    let reports = net.reports();
    assert_eq!(reports.len(), scanned.len());
    for (round, (report, want)) in reports.iter().zip(&scanned).enumerate() {
        assert_eq!(&report.expected, want, "round {round}: expected vs scan");
    }
    assert!(
        scanned.iter().filter(|s| !s.is_empty()).count() > scanned.len() / 2,
        "the workload must exercise matching"
    );
}

/// The accounting observes the overlay and never steers it: a bare `Overlay`
/// with the queue sink and a `DpsNetwork`, fed the same script, hand every
/// node the same deliveries and send the same messages, turn by turn. (An
/// edit that reorders a driver RNG draw in one of them fails here.)
#[test]
fn overlay_core_behaves_as_the_facade_does() {
    let queues = Arc::new(QueueSink::default());
    let mut core = Overlay::new(DpsConfig::default(), 14, queues.clone());
    let mut net = DpsNetwork::new(DpsConfig::default(), 14);
    let nodes = net.add_nodes(CHURN_NODES);
    assert_eq!(core.add_nodes(CHURN_NODES), nodes);
    for n in &nodes {
        queues.watch(*n);
        net.sink().watch(*n);
    }

    let mut live = Vec::new();
    let mut delivered = 0;
    let (mut from_core, mut from_net) = (Vec::new(), Vec::new());
    for (turn, op) in churn_script(14).into_iter().enumerate() {
        match op {
            Op::Subscribe(i, f) => {
                let sub = net.try_subscribe(nodes[i], f.clone()).unwrap();
                assert_eq!(core.try_subscribe(nodes[i], f), Ok(sub), "turn {turn}");
                live.push((nodes[i], sub));
            }
            Op::Unsubscribe(k) => {
                let (node, sub) = live.swap_remove(k);
                assert_eq!(
                    core.try_unsubscribe(node, sub),
                    net.try_unsubscribe(node, sub),
                    "turn {turn}"
                );
            }
            Op::Crash(i) => {
                core.crash(nodes[i]);
                net.crash(nodes[i]);
            }
            Op::Publish(event) => {
                let publisher = net.random_alive().unwrap();
                assert_eq!(core.random_alive(), Some(publisher), "turn {turn}");
                assert_eq!(
                    core.try_publish(publisher, event.clone()),
                    net.try_publish(publisher, event),
                    "turn {turn}"
                );
            }
            Op::Run(steps) => {
                core.run(steps);
                net.run(steps);
            }
        }
        for n in &nodes {
            queues.drain_deliveries(*n, &mut from_core);
            net.sink().drain_deliveries(*n, &mut from_net);
        }
        assert_eq!(from_core, from_net, "turn {turn}: drained deliveries");
        delivered += from_core.len();
        from_core.clear();
        from_net.clear();
        let (sent_core, sent_net) = (core.metrics(), net.metrics());
        for class in MsgClass::ALL {
            assert_eq!(
                sent_core.total_sent(class),
                sent_net.total_sent(class),
                "turn {turn}: {class:?} messages sent"
            );
        }
    }
    assert!(delivered > 80, "the script must exercise delivery");
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, .. ProptestConfig::default() })]

    /// Leader/root: exact delivery to the oracle's matching set.
    #[test]
    fn leader_root_delivers_exactly_matching(
        filters in proptest::collection::vec(filter_strategy(), 2..=6),
        events in events_strategy(),
        seed in 0u64..1000,
    ) {
        run_case(TraversalKind::Root, CommKind::Leader, &filters, &events, seed);
    }

    /// Leader/generic: same guarantee from arbitrary contact points.
    #[test]
    fn leader_generic_delivers_exactly_matching(
        filters in proptest::collection::vec(filter_strategy(), 2..=6),
        events in events_strategy(),
        seed in 0u64..1000,
    ) {
        run_case(TraversalKind::Generic, CommKind::Leader, &filters, &events, seed);
    }

    /// The distributed forest always matches the reference model, whatever the
    /// subscription mix and arrival order.
    #[test]
    fn distributed_forest_always_matches_reference(
        filters in proptest::collection::vec(filter_strategy(), 2..=8),
        seed in 0u64..1000,
    ) {
        let mut cfg = DpsConfig::named(TraversalKind::Root, CommKind::Leader);
        cfg.join_rule = JoinRule::First;
        let mut net = DpsNetwork::new(cfg, seed);
        let nodes = net.add_nodes(filters.len() + 2);
        net.run(30);
        for (i, f) in filters.iter().enumerate() {
            let _ = net.try_subscribe(nodes[i], f.parse::<dps::Filter>().unwrap());
            net.run(10);
        }
        prop_assert!(net.quiesce(3000), "convergence failed");
        net.run(250);

        // Expected parent relation from the oracle.
        let mut expect: BTreeMap<String, (String, BTreeSet<usize>)> = BTreeMap::new();
        for tree in net.oracle().trees() {
            for g in tree.groups() {
                if let Some(pi) = g.parent {
                    expect.insert(
                        g.label.to_string(),
                        (
                            tree.group(pi).label.to_string(),
                            g.members.iter().map(|n| n.index()).collect(),
                        ),
                    );
                }
            }
        }
        let mut got: BTreeMap<String, (String, BTreeSet<usize>)> = BTreeMap::new();
        for g in net.distributed_groups() {
            if g.label.is_root() {
                continue;
            }
            got.insert(
                g.label.to_string(),
                (
                    g.parent.map(|l| l.to_string()).unwrap_or_default(),
                    g.members.iter().map(|n| n.index()).collect(),
                ),
            );
        }
        prop_assert_eq!(&expect, &got, "distributed forest diverged from reference");
    }
}
