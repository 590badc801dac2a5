//! Ad-hoc diagnostic probe: runs one fig 3(a)-style cell and breaks the missed
//! `(publication, expected subscriber)` pairs down by cause. Not part of any
//! figure; a scratch tool for reproduction debugging.

use dps::*;
use dps_experiments::figures::publish_under_churn;
use dps_workload::Workload;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn run_cell(cfg: DpsConfig, p: f64, n: usize, steps: u64, label: &str) {
    let w = Workload::multiplayer_game();
    let mut net = DpsNetwork::new(cfg, 42);
    dps_scenarios::build_overlay(&mut net, n, 3, 42, |rng| w.subscription(rng));
    net.run(150);
    let mut w_rng = StdRng::seed_from_u64(7);
    let crashed_at = publish_under_churn(&mut net, &ChurnPlan::rate(p), steps, &mut w_rng);
    net.run(2 * n as u64 + 400);

    let died: std::collections::HashMap<NodeId, Step> = crashed_at.into_iter().collect();
    let mut expected = 0usize;
    let mut delivered = 0usize;
    let mut miss_died = 0usize; // subscriber crashed after publish (race)
    let mut miss_died_soon = 0usize; // ... within 30 steps of the publish
    let mut miss_alive = 0usize; // subscriber survived to the end: pure protocol miss
    let mut miss_alive_contacted = 0usize; // ... and the event did reach it (filter mismatch?)
    for r in net.reports() {
        expected += r.expected.len();
        delivered += r.delivered;
        for s in &r.expected {
            if net.sink().was_notified(r.id, *s) {
                continue;
            }
            match died.get(s) {
                Some(d) => {
                    miss_died += 1;
                    if *d <= r.published_at + 30 {
                        miss_died_soon += 1;
                    }
                }
                None => {
                    miss_alive += 1;
                    if net.sink().was_contacted(r.id, *s) {
                        miss_alive_contacted += 1;
                    }
                }
            }
        }
    }
    println!(
        "{label}: ratio={:.3} expected={expected} delivered={delivered} \
         miss_died={miss_died} (soon={miss_died_soon}) miss_alive={miss_alive} \
         (contacted={miss_alive_contacted})",
        delivered as f64 / expected.max(1) as f64
    );

    // For alive misses: did the event at least reach the subscriber's group,
    // and does anyone in the group even know the subscriber exists?
    let mut group_touched = 0usize;
    let mut group_untouched = 0usize;
    let mut known_by_peer = 0usize;
    let mut no_membership = 0usize;
    for r in net.reports() {
        for s in &r.expected {
            if net.sink().was_notified(r.id, *s) || died.contains_key(s) {
                continue;
            }
            let labels: Vec<GroupLabel> = net
                .sim()
                .node(*s)
                .map(|node| node.memberships().iter().map(|m| m.label.clone()).collect())
                .unwrap_or_default();
            if labels.is_empty() {
                no_membership += 1;
                continue;
            }
            let mut touched = false;
            let mut known = false;
            for other in net.sim().alive() {
                if other == *s {
                    continue;
                }
                let Some(node) = net.sim().node(other) else {
                    continue;
                };
                for m in node.memberships() {
                    if labels.contains(&m.label) {
                        if net.sink().was_contacted(r.id, other) {
                            touched = true;
                        }
                        if m.members.contains(s) {
                            known = true;
                        }
                    }
                }
            }
            if touched {
                group_touched += 1;
            } else {
                group_untouched += 1;
            }
            if known {
                known_by_peer += 1;
            }
        }
    }
    println!(
        "  alive misses: group_touched={group_touched} group_untouched={group_untouched} \
         known_by_peer={known_by_peer} no_membership={no_membership}"
    );
    let mut phases: std::collections::BTreeMap<String, usize> = Default::default();
    let mut stuck_nodes = 0;
    for id in net.sim().alive() {
        let Some(node) = net.sim().node(id) else {
            continue;
        };
        let states = node.pending_subscription_states();
        if !states.is_empty() && node.memberships().is_empty() {
            stuck_nodes += 1;
        }
        for (phase, retries, _) in states {
            *phases
                .entry(format!("{phase} r={}", retries.min(9)))
                .or_default() += 1;
        }
    }
    println!("  pending at end: {phases:?} memberless_nodes_with_pending={stuck_nodes}");

    // Tree shape: per attribute, group count at the leaders.
    let groups = net.distributed_groups();
    let mut per_attr: std::collections::BTreeMap<String, usize> = Default::default();
    for g in &groups {
        *per_attr.entry(format!("{}", g.label.attr())).or_default() += 1;
    }
    println!(
        "  groups={} attrs={} max_groups_per_attr={:?}",
        groups.len(),
        per_attr.len(),
        per_attr.values().max()
    );
}

fn main() {
    let n: usize = std::env::var("PROBE_N")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(60);
    let steps: u64 = 3 * n as u64;
    let p: f64 = std::env::var("PROBE_P")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.25);
    let base = DpsConfig::named(TraversalKind::Root, CommKind::Epidemic).with_fanout(2);
    for (name, cfg) in [
        (
            "leader root   ",
            DpsConfig::named(TraversalKind::Root, CommKind::Leader),
        ),
        ("epidemic root2", base),
    ] {
        let mut cfg = cfg;
        cfg.join_rule = JoinRule::Explicit;
        run_cell(cfg, p, n, steps, name);
    }
}
