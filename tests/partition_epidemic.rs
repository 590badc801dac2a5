//! Partition fault-model scenario: the epidemic variant's group views diverge
//! while a partition holds (joiners on one side stay invisible to the other)
//! and re-converge through the merge process (view-exchange pushes, owner
//! merge walks) after the cut closes — deterministically under a fixed seed.
//!
//! The fault timeline (one long split spanning three phases, then two healed
//! phases) is declared in `scenarios/epidemic-partition-views.json` and
//! lowered onto scheduled `FaultPlan` windows by the scenario compiler; this
//! test drives the phases through [`ScenarioRun`] and injects the bespoke
//! actions (high-side joiners, hand-picked publications) at the phase
//! boundaries, asserting the view divergence/re-merge shape the declarative
//! rows cannot express.
//!
//! Determinism note: the whole scenario runs inside one `Sim`, whose trace is
//! a pure function of the spec (`DPS_THREADS` never changes any outcome), so
//! the digest this test compares is byte-identical across runs;
//! running the scenario twice in-process proves the replay property.

use std::collections::BTreeMap;

use dps::{CommKind, DpsConfig, DpsNetwork, DropReason, NodeId, TraversalKind};
use dps_scenarios::{ScenarioRun, ScenarioSpec};

const SPLIT: usize = 12;
const FILTER: &str = "load > 10";

fn load_spec() -> ScenarioSpec {
    let path = format!(
        "{}/../../scenarios/epidemic-partition-views.json",
        env!("CARGO_MANIFEST_DIR")
    );
    ScenarioSpec::load(&path).expect("library spec must parse")
}

/// Runs the scenario once, asserting the divergence/re-convergence shape, and
/// returns a digest of everything observable (view maps and delivery ratios).
fn run_scenario_once() -> String {
    let spec = load_spec();
    let mut run = ScenarioRun::new(&spec).expect("spec must compile");
    let nodes: Vec<NodeId> = (0..spec.topology.nodes).map(NodeId::from_index).collect();
    assert_eq!(
        run.network().pending_subscriptions(),
        0,
        "overlay failed to converge before the cut"
    );

    // ---- the cut opens: low = indices < SPLIT, high = the rest (and joiners) ----
    assert_eq!(run.run_phase(), Some("suspect")); // cross-side suspicion sets in

    // Two nodes join and subscribe on the high side while the cut holds.
    let joiners = run.network_mut().add_nodes(2);
    for j in &joiners {
        let _ = run
            .network_mut()
            .try_subscribe(*j, FILTER.parse::<dps::Filter>().unwrap());
    }
    assert_eq!(run.run_phase(), Some("place-joiners"));
    assert_eq!(
        run.network().pending_subscriptions(),
        0,
        "high-side joiners failed to place during the partition"
    );

    // Divergence: nobody on the low side has heard of the joiners.
    let views = group_views(run.network());
    for (holder, view) in &views {
        if holder.index() < SPLIT {
            for j in &joiners {
                assert!(
                    !view.contains(j),
                    "low-side {holder} learned about {j} across the cut"
                );
            }
        }
    }
    assert!(
        views
            .iter()
            .any(|(h, v)| h.index() >= SPLIT && joiners.iter().any(|j| v.contains(j))),
        "no high-side view picked the joiners up"
    );

    // A low-side publication reaches every reachable subscriber and nothing
    // across the cut; the deliver phase (200 steps, cut still scheduled) is
    // the generous drain the descent retries need.
    let pub_at = run.network().sim().now();
    run.network_mut()
        .try_publish(nodes[0], "load = 50".parse::<dps::Event>().unwrap())
        .unwrap();
    assert_eq!(run.run_phase(), Some("deliver-across-cut"));
    let net = run.network();
    let during = net.delivered_ratio_between(pub_at, u64::MAX);
    let during_reachable = net.delivered_ratio_reachable_between(pub_at, u64::MAX);
    let missed: Vec<NodeId> = {
        let r = net.reports().pop().unwrap();
        r.reachable
            .iter()
            .copied()
            .filter(|s| !net.sink().was_notified(r.id, *s))
            .collect()
    };
    assert!(
        during_reachable >= 0.99,
        "same-side delivery broke during the partition: {during_reachable} (missed {missed:?})"
    );
    assert!(
        during < 0.7,
        "raw ratio should be capped by the unreachable side, got {during}"
    );
    let report = net.reports().pop().unwrap();
    for s in &report.expected {
        if !report.reachable.contains(s) {
            assert!(
                !net.sink().was_notified(report.id, *s),
                "{s} was notified across an absolute cut"
            );
        }
    }
    assert!(
        net.metrics().dropped_for(DropReason::Partitioned) > 0,
        "no cross-side message was ever dropped?"
    );
    assert!(
        net.fault_plan().severed(nodes[0], nodes[SPLIT], pub_at),
        "the scheduled window must sever cross-side links while it holds"
    );

    // ---- the windows close: the merge must reconnect the halves ----
    assert_eq!(run.run_phase(), Some("merge")); // view exchanges + owner walks
    let heal_at = run.network().sim().now();
    assert!(
        !run.network()
            .fault_plan()
            .severed(nodes[0], nodes[SPLIT], heal_at),
        "the scheduled window must have healed itself"
    );
    run.network_mut()
        .try_publish(nodes[0], "load = 77".parse::<dps::Event>().unwrap())
        .unwrap();
    assert_eq!(run.run_phase(), Some("post-heal-drain"));
    assert_eq!(run.run_phase(), None, "timeline exhausted");
    let net = run.network();
    let after = net.delivered_ratio_between(heal_at, u64::MAX);
    assert!(
        (after - 1.0).abs() < 1e-9,
        "post-heal publication must reach every subscriber incl. the joiners, got {after}"
    );

    // Re-convergence: the joiners are now inside low-side views too (the
    // view-exchange merge crossed the healed cut), and every oracle member of
    // the group is known by someone else.
    let views = group_views(net);
    assert!(
        views
            .iter()
            .any(|(h, v)| h.index() < SPLIT && joiners.iter().any(|j| v.contains(j))),
        "low-side views never merged the high-side joiners back in"
    );
    for member in nodes.iter().chain(joiners.iter()) {
        assert!(
            views.iter().any(|(h, v)| h != member && v.contains(member)),
            "{member} is known by nobody after the merge"
        );
    }

    // Digest for the determinism check.
    let mut out = String::new();
    for (h, v) in &views {
        out.push_str(&format!("{h}:{v:?};"));
    }
    out.push_str(&format!(
        "during={during:.6};reach={during_reachable:.6};after={after:.6}"
    ));
    out
}

/// Every alive node's member view of the subscription group, sorted.
fn group_views(net: &DpsNetwork) -> BTreeMap<NodeId, Vec<NodeId>> {
    let mut out = BTreeMap::new();
    for id in net.sim().alive() {
        let Some(node) = net.sim().node(id) else {
            continue;
        };
        for m in node.memberships() {
            if m.label.to_string().contains("load > 10") {
                let mut v = m.members.clone();
                v.sort_unstable();
                v.dedup();
                out.insert(id, v);
            }
        }
    }
    out
}

#[test]
fn epidemic_views_diverge_and_remerge_across_partition() {
    let a = run_scenario_once();
    let b = run_scenario_once();
    assert_eq!(a, b, "same seed must replay byte-identically");
}

/// The named-sides facade and the loss knobs: cross-side (and only cross-side
/// pairs) drop and are accounted; unlisted nodes bridge; loss drops sample
/// deterministically from the seed. (The imperative facade API the scenario
/// compiler lowers onto — kept hand-driven on purpose.)
#[test]
fn named_partition_and_loss_facade() {
    let mut net = DpsNetwork::new(DpsConfig::named(TraversalKind::Root, CommKind::Epidemic), 3);
    let nodes = net.add_nodes(6);
    net.partition(&[
        ("east", vec![nodes[0], nodes[1]]),
        ("west", vec![nodes[2], nodes[3]]),
    ]);
    // Peer shuffles flow constantly; cross-side ones must drop.
    net.run(120);
    let cut = net.metrics().dropped_for(DropReason::Partitioned);
    assert!(cut > 0, "no cross-side message was dropped");
    assert!(net
        .fault_plan()
        .severed(nodes[0], nodes[2], net.sim().now()));
    // nodes[4] and nodes[5] sit in no side: they talk to everyone.
    assert!(!net
        .fault_plan()
        .severed(nodes[4], nodes[0], net.sim().now()));
    assert_eq!(net.heal(), 1);
    net.run(40);
    let after_heal = net.metrics().dropped_for(DropReason::Partitioned);

    // Uniform loss drops traffic and is accounted separately.
    net.set_loss(0.5);
    net.run(120);
    assert!(net.metrics().dropped_for(DropReason::Loss) > 0);
    assert_eq!(
        net.metrics().dropped_for(DropReason::Partitioned),
        after_heal,
        "healed partition must not keep dropping"
    );
    net.set_loss(0.0);
    let settled = net.metrics().dropped_for(DropReason::Loss);
    net.run(60);
    assert_eq!(net.metrics().dropped_for(DropReason::Loss), settled);
}
