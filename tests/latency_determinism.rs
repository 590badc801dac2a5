//! The latency-mode determinism guarantee, checked end-to-end on the real
//! protocol (see `docs/determinism.md`):
//!
//! 1. **Cycle mode is the latency ≡ 1 special case.** A run under the default
//!    unit model and a run under `Uniform{1,1}` — which exercises the real
//!    sampling machinery but always draws 1 — produce byte-identical
//!    observables. Latency draws come from a dedicated per-destination RNG
//!    stream, so sampling cannot perturb protocol or loss randomness.
//! 2. **A straggler class stretches the tail.** Under a `Classed` model with
//!    one slow class, publish→deliver p50 < p99.
//!
//! The heterogeneous `Bimodal` run is pinned byte for byte by the golden
//! replay digest (`replay_golden.rs`).

mod common;

use dps::{CommKind, DpsConfig, DpsNetwork, JoinRule, LatencyModel, TraversalKind};

#[test]
fn unit_latency_event_mode_matches_cycle_mode() {
    // The None run takes the draw-free fast path (the old cycle engine); the
    // Uniform{1,1} run samples a dedicated latency stream on every enqueue.
    assert_eq!(
        common::latency_run(None),
        common::latency_run(Some(LatencyModel::Uniform { min: 1, max: 1 })),
        "latency-1 event mode diverged from cycle mode"
    );
}

#[test]
fn classed_latency_shows_a_nondegenerate_tail() {
    // A straggler class stretches the percentile spread: p50 < p99.
    let model = LatencyModel::Classed {
        classes: vec![(1, 1), (1, 1), (8, 10)],
    };
    let mut cfg = DpsConfig::named(TraversalKind::Root, CommKind::Epidemic).with_fanout(2);
    cfg.join_rule = JoinRule::First;
    let mut net = DpsNetwork::new(cfg, 99);
    net.try_set_latency(model).unwrap();
    let nodes = net.add_nodes(18);
    net.run(40);
    for n in &nodes {
        let _ = net.try_subscribe(*n, "load > 0".parse::<dps::Filter>().unwrap());
        net.run(3);
    }
    assert!(net.quiesce(2500), "overlay failed to converge");
    net.run(150);
    for k in 0..20 {
        let p = net.random_alive().unwrap();
        let _ = net.try_publish(
            p,
            format!("load = {}", 1 + k).parse::<dps::Event>().unwrap(),
        );
        net.run(6);
    }
    net.run(600);
    let lat = net.latency_summary();
    assert!(lat.samples >= 100, "expected a busy run, got {lat:?}");
    assert!(
        lat.p50 < lat.p99,
        "straggler class should stretch the tail: {lat:?}"
    );
}
