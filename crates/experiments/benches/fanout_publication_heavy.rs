//! Publication-heavy fan-out: the zero-copy payload path under load.
//!
//! A 1,000-node fully-subscribed overlay where **every step publishes a fresh
//! event** (`publish_every = 1`) — the regime where payload handling dominates:
//! each publication climbs the tree, spreads through its group, and gossips,
//! so a single event body is handed to hundreds of hops per step. The row to
//! watch is ns/delivery (seconds-per-step divided by the steady-state
//! deliveries/step printed as a diagnostic), which isolates per-hop payload
//! cost from traffic-shape changes.
//!
//! Two workloads bound the space: `multiplayer_game` (~25 % match rate, wide
//! fan-out per publication) and `stock_exchange` (selective filters, fan-out
//! dominated by tree routing rather than group spread).

use criterion::{criterion_group, criterion_main, Criterion};
use dps::{DpsConfig, DpsNetwork};
use dps_content::Event;
use dps_workload::Workload;
use rand::SeedableRng;

/// Publication-class receipts only: summed over every class, the `game` row
/// used to count the `FindTree` hops of walks for its absent tree `y` as
/// deliveries.
fn received(net: &DpsNetwork) -> u64 {
    net.metrics().total_received(dps::MsgClass::Publication)
}

fn bench_fanout(c: &mut Criterion) {
    for (label, w) in [
        ("game", Workload::multiplayer_game()),
        ("stock", Workload::stock_exchange()),
    ] {
        c.bench_function(&format!("fanout_1k_nodes_publish_every_1_{label}"), |b| {
            let mut net = DpsNetwork::new(DpsConfig::default(), 3);
            let nodes = net.add_nodes(1000);
            net.run(30);
            let mut rng = rand::rngs::StdRng::seed_from_u64(4);
            for n in &nodes {
                let _ = net.try_subscribe(*n, w.subscription(&mut rng));
            }
            net.quiesce(6000);
            let events: Vec<Event> = (0..1024).map(|_| w.event(&mut rng)).collect();
            // Reach the publish-every-step steady state, then measure the
            // delivery rate so ns/delivery can be derived from ns/iter
            // (diagnostic print; not part of the timing).
            let mut i = 0usize;
            let tick = |net: &mut DpsNetwork, i: &mut usize| {
                let _ = net.try_publish(nodes[*i % nodes.len()], events[*i % events.len()].clone());
                net.run(1);
                *i += 1;
            };
            for _ in 0..300 {
                tick(&mut net, &mut i);
            }
            let before = received(&net);
            for _ in 0..100 {
                tick(&mut net, &mut i);
            }
            println!(
                "# fanout_1k_{label}: {:.1} deliveries/step at steady state",
                (received(&net) - before) as f64 / 100.0
            );
            b.iter(|| tick(&mut net, &mut i))
        });
    }
}

criterion_group!(benches, bench_fanout);
criterion_main!(benches);
