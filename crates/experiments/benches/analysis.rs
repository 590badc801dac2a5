//! §5.1 — compares the analytical message-complexity closed forms against the
//! simulated per-event publication message counts, on the same overlay.

use dps::config::INTER_GROUP_FANOUT;
use dps::{CommKind, DpsConfig, DpsNetwork, JoinRule, MsgClass, TraversalKind};
use dps_analysis::{complexity, reliability};
use dps_experiments::{banner, output, Scale};
use dps_workload::Workload;
use serde::Serialize;

#[derive(Debug, Serialize)]
struct AnalysisRow {
    config: String,
    tree_depth_h: u64,
    max_group_s: u64,
    analytical_worst_case: u64,
    measured_mean_per_event: f64,
}

fn main() {
    let scale = Scale::from_env();
    banner("§5.1 — analytical vs simulated message complexity", scale);
    let n = scale.pick(60usize, 200, 1000);
    let n_events = scale.pick(10usize, 30, 100);
    let w = Workload::multiplayer_game();
    let mut rows = Vec::new();
    println!(
        "{:<26} {:>3} {:>3} {:>14} {:>14}",
        "config", "h", "S", "analytic(max)", "measured(mean)"
    );
    for (ci, base) in [
        DpsConfig::named(TraversalKind::Root, CommKind::Leader),
        DpsConfig::named(TraversalKind::Generic, CommKind::Leader),
        DpsConfig::named(TraversalKind::Root, CommKind::Epidemic),
        DpsConfig::named(TraversalKind::Generic, CommKind::Epidemic),
    ]
    .into_iter()
    .enumerate()
    {
        let mut cfg = base;
        cfg.join_rule = JoinRule::Explicit;
        let label = cfg.label();
        let k = cfg.gossip_fanout as u64;
        let kp = INTER_GROUP_FANOUT as u64;
        let mut net = DpsNetwork::new(cfg, 4000 + ci as u64);
        let nodes = net.add_nodes(n);
        net.run(30);
        let mut rng: rand::rngs::StdRng = rand::SeedableRng::seed_from_u64(31 + ci as u64);
        for (i, node) in nodes.iter().enumerate() {
            let _ = net.try_subscribe(*node, w.subscription(&mut rng));
            if i % 10 == 9 {
                net.run(1);
            }
        }
        net.quiesce(4000);
        net.run(150);

        // Tree statistics from the oracle (same placement rules).
        let (h, s) = net
            .oracle()
            .trees()
            .map(|t| (t.depth() as u64, t.max_group_size() as u64))
            .fold((0, 0), |(ah, asz), (th, ts)| (ah.max(th), asz.max(ts)));

        let before = net.metrics().total_sent(MsgClass::Publication);
        for _ in 0..n_events {
            let publisher = nodes[rand::Rng::random_range(&mut rng, 0..nodes.len())];
            let _ = net.try_publish(publisher, w.event(&mut rng));
            net.run(15);
        }
        net.run(100);
        let sent = net.metrics().total_sent(MsgClass::Publication) - before;
        // Each event visits two trees (x and y): normalize per tree.
        let measured = sent as f64 / n_events as f64 / 2.0;

        let analytic = match (label.contains("leader"), label.contains("generic")) {
            (true, false) => complexity::leader_root(h, s),
            (true, true) => complexity::leader_generic(h, s),
            (false, false) => complexity::epidemic_root(h, s, k, kp),
            (false, true) => complexity::epidemic_generic(h, s, k, kp),
        };
        println!("{label:<26} {h:>3} {s:>3} {analytic:>14} {measured:>14.1}");
        rows.push(AnalysisRow {
            config: label,
            tree_depth_h: h,
            max_group_s: s,
            analytical_worst_case: analytic,
            measured_mean_per_event: measured,
        });
    }
    println!("(the closed forms are worst-case branch traversals; measured means must stay below)");

    // Reliability model: miss probability for uniform contact levels.
    let h = rows.iter().map(|r| r.tree_depth_h).max().unwrap_or(3) as usize;
    let levels = reliability::uniform_levels(h);
    let p = reliability::miss_probability(&levels, &levels);
    println!(
        "reliability (generic, uniform levels over depth {h}): miss probability p = {p:.3}; \
         of f = 100 concurrent matching events, {:.1} are received (root-based: all 100)",
        reliability::expected_received(100, p)
    );
    output::write_json("analysis", &rows);
}
