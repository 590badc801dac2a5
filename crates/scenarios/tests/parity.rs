//! Parity pin: a spec-driven run must **byte-match** the equivalent run
//! hand-built on the raw `ChurnPlan` + `DpsNetwork` APIs — the declarative
//! layer is lowering, not reinterpretation. The hand-rolled side below
//! replicates, call for call, what the engine documents (setup shape, RNG
//! salts, the churn → subscribe → publish → step order) and drives the
//! faults through the **imperative facade** (`partition_split` after 10
//! phase steps, `heal` after 80, `set_loss` on/off) — so the test pins that
//! the compiler's scheduled windows cover exactly the delivery steps the
//! imperative sequence covers. Every measured quantity is compared through
//! its serialized JSON form.

use dps::{CommKind, DpsConfig, DpsNetwork, DropReason, JoinRule, TraversalKind};
use dps_scenarios::{ScenarioRun, ScenarioSpec};
use dps_sim::{ChurnEvent, ChurnPlan};
use dps_workload::Workload;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;

const SEED: u64 = 5;
const NODES: usize = 20;

/// The spec side: churn, a partition window and a loss window composed over
/// two phases.
fn spec() -> ScenarioSpec {
    ScenarioSpec::from_json_str(
        r#"{
            "name": "parity",
            "seed": 5,
            "topology": {"nodes": 20, "scheme": "epidemic", "fanout": 2},
            "phases": [
                {
                    "name": "adversity",
                    "steps": 120,
                    "publish_every": 10,
                    "churn": {"crash_every": 30},
                    "partitions": [{"from": 10, "until": 80,
                                    "cut": {"Split": {"boundary": 10}}}],
                    "loss": [{"from": 20, "until": 100, "rate": 0.1}]
                },
                {"name": "calm", "steps": 60, "publish_every": 15}
            ]
        }"#,
    )
    .unwrap()
}

/// One phase's measured quantities.
#[derive(Serialize)]
struct PhaseMeasure {
    name: String,
    published: u64,
    crashes: u64,
    steps: u64,
    delivered: f64,
    reachable: f64,
}

/// Everything the comparison looks at, serialized for the byte-match.
#[derive(Serialize)]
struct Measures {
    phases: Vec<PhaseMeasure>,
    dropped_partitioned: u64,
    dropped_loss: u64,
    alive: usize,
}

/// The hand-built side: the same scenario, written the way the pre-scenario
/// tests wrote them — explicit plans, explicit loop.
fn hand_built() -> Measures {
    let mut cfg = DpsConfig::named(TraversalKind::Root, CommKind::Epidemic).with_fanout(2);
    cfg.join_rule = JoinRule::Explicit;
    let w = Workload::multiplayer_game();
    let mut net = DpsNetwork::new(cfg, SEED);
    let nodes = net.add_nodes(NODES);
    net.run(30);
    let mut sub_rng = StdRng::seed_from_u64(SEED ^ 0xabcd);
    for (i, node) in nodes.iter().enumerate() {
        let _ = net.try_subscribe(*node, w.subscription(&mut sub_rng));
        if i % 25 == 24 {
            net.run(1);
        }
    }
    net.run(20);
    net.quiesce(1500);
    net.run(150);

    let mut event_rng = StdRng::seed_from_u64(SEED ^ 0xfeed);
    let mut phases = Vec::new();
    for (name, steps, publish_every, crash_every) in [
        ("adversity", 120u64, 10u64, Some(30u64)),
        ("calm", 60, 15, None),
    ] {
        let start = net.sim().now();
        let plan = crash_every.map(|every| ChurnPlan::storm(0, steps, every));
        let mut published = 0u64;
        let mut crashes = 0u64;
        for t in 1..=steps {
            if let Some(plan) = &plan {
                for ev in plan.events_at(t) {
                    if ev == ChurnEvent::CrashRandom && net.crash_random().is_some() {
                        crashes += 1;
                    }
                }
            }
            if (t - 1) % publish_every == 0 {
                if let Some(publisher) = net.random_alive() {
                    if net.try_publish(publisher, w.event(&mut event_rng)).is_ok() {
                        published += 1;
                    }
                }
            }
            if name == "adversity" {
                // The imperative fault sequence the spec windows must match.
                // A call here runs at engine time `base + t - 1`, after this
                // iteration's publish (whose reachability snapshot must see
                // the pre-transition state, like the scheduled window does)
                // and before the `run(1)` that delivers at `base + t` — the
                // first delivery step the transition affects. The spec's
                // `[10, 80)` cut and `[20, 100)` loss windows therefore map
                // to transitions at t = 11/81 and t = 21/101.
                match t {
                    11 => {
                        net.partition_split(10);
                    }
                    21 => net.set_loss(0.1),
                    81 => {
                        net.heal();
                    }
                    101 => net.set_loss(0.0),
                    _ => {}
                }
            }
            net.run(1);
        }
        phases.push((name, start, net.sim().now(), published, crashes));
    }
    net.run(2 * NODES as u64 + 200);

    let m = net.metrics();
    Measures {
        phases: phases
            .into_iter()
            .map(|(name, start, end, published, crashes)| PhaseMeasure {
                name: name.to_string(),
                published,
                crashes,
                steps: end - start,
                delivered: net.delivered_ratio_between(start, end),
                reachable: net.delivered_ratio_reachable_between(start, end),
            })
            .collect(),
        dropped_partitioned: m.dropped_for(DropReason::Partitioned),
        dropped_loss: m.dropped_for(DropReason::Loss),
        alive: net.sim().alive_count(),
    }
}

fn spec_driven() -> Measures {
    let report = ScenarioRun::new(&spec()).unwrap().finish();
    Measures {
        phases: report
            .rows
            .iter()
            .map(|r| PhaseMeasure {
                name: r.phase.clone(),
                published: r.published,
                crashes: r.crashes,
                steps: r.until_step - r.from_step,
                delivered: r.delivered_ratio,
                reachable: r.delivered_ratio_reachable,
            })
            .collect(),
        dropped_partitioned: report.rows.iter().map(|r| r.dropped_partitioned).sum(),
        dropped_loss: report.rows.iter().map(|r| r.dropped_loss).sum(),
        alive: report.rows.last().unwrap().alive_at_end,
    }
}

#[test]
fn spec_run_byte_matches_hand_built_plans() {
    let spec_json = serde_json::to_string_pretty(&spec_driven()).unwrap();
    let hand_json = serde_json::to_string_pretty(&hand_built()).unwrap();
    assert_eq!(
        spec_json, hand_json,
        "the spec lowering diverged from the hand-built run"
    );
    // The adversity actually happened (the parity is not vacuous).
    let m = hand_built();
    assert!(m.dropped_partitioned > 0 && m.dropped_loss > 0);
    assert_eq!(
        m.phases[0].crashes, 4,
        "120 steps / crash_every 30 = 4 crashes"
    );
}
