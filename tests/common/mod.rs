//! Shared by `replay_golden.rs` and `latency_determinism.rs`: the digest of
//! everything a `DpsNetwork` run lets an observer see, and the latency run
//! both of them replay.

use dps::{
    CommKind, DpsConfig, DpsNetwork, DropReason, JoinRule, LatencyModel, MsgClass, TraversalKind,
};

/// Digests everything observable about `net`, one fact per line: delivery
/// ratios, the publish→deliver latency summary, one line per publication
/// report, traffic totals per class, drops per reason, receipts per message
/// kind, the snapshot and the groups as recorded at their leaders.
pub fn digest(net: &DpsNetwork) -> Vec<String> {
    let mut out = vec![format!(
        "ratio={:.9} reach={:.9}",
        net.delivered_ratio(),
        net.delivered_ratio_reachable()
    )];
    let lat = net.latency_summary();
    out.push(format!(
        "lat[n={} p50={} p99={} p999={} max={} mean={:.9}]",
        lat.samples, lat.p50, lat.p99, lat.p999, lat.max, lat.mean
    ));
    for r in net.reports() {
        let mut expected: Vec<_> = r.expected.iter().map(|n| n.index()).collect();
        expected.sort_unstable();
        let mut reachable: Vec<_> = r.reachable.iter().map(|n| n.index()).collect();
        reachable.sort_unstable();
        out.push(format!(
            "pub {:?}@{} e{expected:?} r{reachable:?} d{} c{} p99={}",
            r.id, r.published_at, r.delivered, r.contacted, r.latency.p99
        ));
    }
    let m = net.metrics();
    for class in MsgClass::ALL {
        out.push(format!(
            "{class:?} sent={} received={}",
            m.total_sent(class),
            m.total_received(class)
        ));
    }
    for reason in DropReason::ALL {
        out.push(format!("dropped {reason:?}={}", m.dropped_for(reason)));
    }
    out.push(format!("kinds {:?}", m.received_by_kind()));
    out.push(format!("{:?}", net.snapshot()));
    for g in net.distributed_groups() {
        out.push(format!("group {}={:?}", g.label, g.members));
    }
    out
}

/// A busy 24-node epidemic run under `latency` (`None`: the default unit
/// model) — joins, subscriptions, publications, a crash, a partition window
/// and lossy links, every message riding a sampled link latency — digested.
pub fn latency_run(latency: Option<LatencyModel>) -> Vec<String> {
    const N: usize = 24;
    let mut cfg = DpsConfig::named(TraversalKind::Root, CommKind::Epidemic).with_fanout(2);
    cfg.join_rule = JoinRule::First;
    let mut net = DpsNetwork::new(cfg, 4242);
    if let Some(model) = latency {
        net.try_set_latency(model).unwrap();
    }
    let nodes = net.add_nodes(N);
    net.run(40);
    for (i, n) in nodes.iter().enumerate() {
        let filter = if i % 2 == 0 { "load > 10" } else { "load < 40" };
        let _ = net.try_subscribe(*n, filter.parse::<dps::Filter>().unwrap());
        net.run(3);
    }
    assert!(net.quiesce(2500), "overlay failed to converge");
    net.run(150);

    for t in 0..120u64 {
        if t == 30 {
            net.partition_split(N / 2);
        }
        if t == 70 {
            net.heal();
        }
        if t == 90 {
            net.set_loss(0.1);
        }
        if t == 55 {
            net.crash_random();
        }
        if t % 12 == 0 {
            if let Some(p) = net.random_alive() {
                let _ = net.try_publish(
                    p,
                    format!("load = {}", 15 + (t % 20))
                        .parse::<dps::Event>()
                        .unwrap(),
                );
            }
        }
        net.run(1);
    }
    net.set_loss(0.0);
    net.run(4 * N as u64 + 400);
    digest(&net)
}
