//! The golden replay digest: the answer to "did this change move the
//! simulation?". Three runs of the real protocol are digested line by line
//! (see `common::digest`), one test each, and compared with their section
//! of `tests/golden/replay.txt`:
//!
//! 1. an epidemic run under churn, a partition window and lossy links;
//! 2. a leader-mode run with a crash before every publication;
//! 3. the `Bimodal` latency run of `latency_determinism.rs`;
//! 4. a leader-mode run whose subscriptions race duplicate trees into being
//!    and merge them, then a quarter of the subscribers, leaders included,
//!    leave (the handover and merge paths).
//!
//! A refactor below the protocol must leave the file untouched. A change
//! that moves the simulation on purpose re-blesses it and says why:
//! `DPS_BLESS=1 cargo test -p dps --test replay_golden`.

mod common;

use std::path::PathBuf;
use std::sync::Mutex;

use dps::{CommKind, DpsConfig, DpsMsg, DpsNetwork, JoinRule, LatencyModel, TraversalKind};
use dps_sim::Message;

/// Thirty epidemic nodes: subscriptions, then publications while a partition
/// opens and heals, loss sets in and a node crashes every 25 steps.
fn epidemic_churn_partition_loss() -> Vec<String> {
    const N: usize = 30;
    let mut cfg = DpsConfig::named(TraversalKind::Root, CommKind::Epidemic).with_fanout(2);
    cfg.join_rule = JoinRule::First;
    let mut net = DpsNetwork::new(cfg, 2024);
    let nodes = net.add_nodes(N);
    net.run(30);
    for (i, n) in nodes.iter().enumerate() {
        let filter = if i % 2 == 0 { "load > 10" } else { "load < 40" };
        let _ = net.try_subscribe(*n, filter.parse::<dps::Filter>().unwrap());
        net.run(2);
    }
    assert!(net.quiesce(1500), "overlay failed to converge");
    net.run(100);

    for t in 0..120u64 {
        if t == 20 {
            net.partition_split(N / 2);
        }
        if t == 60 {
            net.heal();
        }
        if t == 80 {
            net.set_loss(0.15);
        }
        if t % 25 == 24 {
            net.crash_random();
        }
        if t % 10 == 0 {
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
    net.run(2 * N as u64 + 100);
    common::digest(&net)
}

/// Sixteen leader-mode nodes (takeover and co-leader recruitment heal the
/// crashes): four rounds of crash-then-publish.
fn leader_mode_crashes() -> Vec<String> {
    let mut cfg = DpsConfig::named(TraversalKind::Generic, CommKind::Leader);
    cfg.join_rule = JoinRule::First;
    let mut net = DpsNetwork::new(cfg, 7);
    let nodes = net.add_nodes(16);
    net.run(30);
    for n in &nodes {
        let _ = net.try_subscribe(*n, "temp > 5".parse::<dps::Filter>().unwrap());
        net.run(2);
    }
    assert!(net.quiesce(1000), "overlay failed to converge");
    for k in 0..4 {
        net.crash_random();
        let publisher = net.random_alive().unwrap();
        let _ = net.try_publish(
            publisher,
            format!("temp = {}", 10 + k).parse::<dps::Event>().unwrap(),
        );
        net.run(40);
    }
    common::digest(&net)
}

/// Twenty-four leader-root nodes subscribe in one step, so every node walks
/// for the tree at once, several create one and the duplicates merge. After
/// a few publications a deterministic quarter of the subscribers leave: the
/// leaders of non-root groups first (each hands over to a co-leader, if it
/// has one), then every fourth node. More publications follow, then a
/// drain. Convergence is not asserted.
fn leader_merge_then_leave() -> (Vec<String>, Vec<u64>) {
    const N: usize = 24;
    const FILTERS: [&str; 4] = ["temp > 5", "temp > 20", "temp < 40", "temp > 12"];
    let mut cfg = DpsConfig::named(TraversalKind::Root, CommKind::Leader);
    cfg.join_rule = JoinRule::First;
    let mut net = DpsNetwork::new(cfg, 37);
    let nodes = net.add_nodes(N);
    net.run(30);
    let subs: Vec<_> = nodes
        .iter()
        .enumerate()
        .map(|(i, n)| {
            let filter = FILTERS[i % FILTERS.len()].parse::<dps::Filter>().unwrap();
            (*n, net.try_subscribe(*n, filter).unwrap())
        })
        .collect();
    net.run(400);
    let publish = |net: &mut DpsNetwork, k: usize| {
        let event = format!("temp = {}", 8 + 7 * (k % 5));
        let _ = net.try_publish(nodes[(5 * k) % N], event.parse::<dps::Event>().unwrap());
        net.run(15);
    };
    for k in 0..4 {
        publish(&mut net, k);
    }
    net.run(50);

    // Leaders of non-root groups first, then every fourth node, to N / 4.
    let leaders = nodes.iter().copied().filter(|n| {
        let node = net.sim().node(*n).unwrap();
        node.memberships()
            .iter()
            .any(|m| m.is_leader() && !m.label.is_root() && !m.sub_ids.is_empty())
    });
    let mut leaving: Vec<_> = Vec::new();
    for n in leaders.chain(nodes.iter().copied().step_by(4)) {
        if leaving.len() < N / 4 && !leaving.contains(&n) {
            leaving.push(n);
        }
    }
    for n in leaving {
        let (_, sub) = subs.iter().find(|(s, _)| *s == n).unwrap();
        net.try_unsubscribe(n, *sub).unwrap();
        net.run(3);
    }
    net.run(40);
    for k in 4..10 {
        publish(&mut net, k);
    }
    net.run(300);
    let kinds = net.metrics().received_by_kind().to_vec();
    (common::digest(&net), kinds)
}

/// The section headers of the golden file, in file order.
const SECTIONS: [&str; 4] = [
    "# epidemic: churn, partition, loss",
    "# leader: crash before every publication",
    "# bimodal latency: churn, partition, loss",
    "# leader: merge then leave",
];

/// Serialises blessing: the four tests rewrite sections of one file.
static BLESS: Mutex<()> = Mutex::new(());

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/replay.txt")
}

/// Splits the golden file into its sections: header, then the digest lines.
fn sections(text: &str) -> Vec<(String, Vec<String>)> {
    let mut out: Vec<(String, Vec<String>)> = Vec::new();
    for line in text.lines() {
        if line.starts_with("# ") {
            out.push((line.to_string(), Vec::new()));
        } else if let Some((_, body)) = out.last_mut() {
            body.push(line.to_string());
        }
    }
    out
}

/// Compares `digest` line by line with the golden file's `header` section,
/// or, under `DPS_BLESS=1`, writes it there.
fn check_section(header: &str, digest: Vec<String>) {
    let path = golden_path();
    if std::env::var("DPS_BLESS").is_ok() {
        let _guard = BLESS.lock().unwrap_or_else(|e| e.into_inner());
        let old = std::fs::read_to_string(&path).unwrap_or_default();
        let mut parts = sections(&old);
        parts.retain(|(h, _)| h != header);
        parts.push((header.to_string(), digest));
        let mut text = String::new();
        for wanted in SECTIONS {
            for (h, body) in parts.iter().filter(|(h, _)| h == wanted) {
                text.push_str(h);
                text.push('\n');
                for line in body {
                    text.push_str(line);
                    text.push('\n');
                }
            }
        }
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, text).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("{}: {e} (run with DPS_BLESS=1)", path.display()));
    let want = sections(&golden)
        .into_iter()
        .find(|(h, _)| h == header)
        .unwrap_or_else(|| panic!("{} has no section {header:?}", path.display()))
        .1;
    for (i, (got, want)) in digest.iter().zip(&want).enumerate() {
        assert_eq!(
            got,
            want,
            "line {} of section {header:?} of {} moved (re-bless with DPS_BLESS=1 only if intended)",
            i + 1,
            path.display()
        );
    }
    assert_eq!(
        digest.len(),
        want.len(),
        "section {header:?} of {} has a different number of lines",
        path.display()
    );
}

#[test]
fn epidemic_churn_partition_loss_run_matches_the_golden() {
    check_section(SECTIONS[0], epidemic_churn_partition_loss());
}

#[test]
fn leader_mode_crash_run_matches_the_golden() {
    check_section(SECTIONS[1], leader_mode_crashes());
}

#[test]
fn bimodal_latency_run_matches_the_golden() {
    let bimodal = common::latency_run(Some(LatencyModel::Bimodal {
        fast: (1, 2),
        slow: (4, 7),
        slow_weight: 0.25,
    }));
    // The latency run must exercise the tail: samples with a real spread.
    let tail = bimodal
        .iter()
        .find(|l| l.starts_with("lat[n="))
        .expect("the digest carries the latency summary");
    let field = |key: &str| {
        tail.split([' ', '[', ']'])
            .find_map(|f| f.strip_prefix(key))
            .unwrap_or_else(|| panic!("no {key} in {tail}"))
    };
    assert_ne!(field("n="), "0", "no latency samples: {tail}");
    assert_ne!(field("p50="), field("p99="), "p50 and p99 coincide: {tail}");
    check_section(SECTIONS[2], bimodal);
}

#[test]
fn leader_merge_then_leave_run_matches_the_golden() {
    let (digest, kinds) = leader_merge_then_leave();
    // The run must reach the paths it pins: duplicate trees merging and
    // regrafting, and leaders handing their groups over on the way out.
    for kind in [
        "GroupInfo",
        "ViewPush",
        "Leave",
        "DissolveTree",
        "Reattach",
        "NewParent",
    ] {
        let i = <DpsMsg as Message>::KINDS
            .iter()
            .position(|k| *k == kind)
            .unwrap();
        assert!(kinds[i] > 0, "the run received no {kind}: {kinds:?}");
    }
    check_section(SECTIONS[3], digest);
}
