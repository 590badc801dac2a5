//! Figure runners: the dependability, recovery, scalability and comparison
//! plots of §5.2 (Figures 3(a)–3(g)).
//!
//! Every `(config, parameter)` cell is an independent deterministic simulation
//! with its own seeds, so the runners build one closure per cell and fan them
//! out through [`crate::run_cells`]; rows come back in cell order, making the
//! output identical whatever `DPS_THREADS` is.

use dps::{CommKind, DpsConfig, DpsNetwork, JoinRule, MsgClass, NodeId, Step, TraversalKind};
use dps_sim::{ChurnEvent, ChurnPlan};
use dps_workload::Workload;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;

use crate::Scale;

/// The six configurations of Figure 3(a), in the paper's legend order.
pub fn fig3a_configs() -> Vec<DpsConfig> {
    let mut v = vec![
        DpsConfig::named(TraversalKind::Root, CommKind::Leader),
        DpsConfig::named(TraversalKind::Generic, CommKind::Leader),
        DpsConfig::named(TraversalKind::Root, CommKind::Epidemic),
        DpsConfig::named(TraversalKind::Generic, CommKind::Epidemic),
        DpsConfig::named(TraversalKind::Root, CommKind::Epidemic).with_fanout(2),
        DpsConfig::named(TraversalKind::Generic, CommKind::Epidemic).with_fanout(2),
    ];
    for c in &mut v {
        c.join_rule = JoinRule::Explicit;
    }
    v
}

/// Builds a converged overlay of `n` nodes with `subs_per_node` workload-2
/// subscriptions each (the paper's dependability setup). Shared with the
/// fault-injection runners in [`crate::faults`].
pub(crate) fn build_overlay(
    cfg: DpsConfig,
    n: usize,
    subs_per_node: usize,
    seed: u64,
) -> DpsNetwork {
    let w = Workload::multiplayer_game();
    let mut net = DpsNetwork::new(cfg, seed);
    dps_scenarios::build_overlay(&mut net, n, subs_per_node, seed, |rng| w.subscription(rng));
    net.run(150);
    net
}

/// The measured window the dependability runners share: for `steps` steps,
/// apply `plan`'s crashes, publish one workload-2 event from a random alive
/// node every 10 steps ("a new event is published every 10 steps", §5.2), and
/// advance one step. Returns each crashed node with the step it died at.
pub fn publish_under_churn(
    net: &mut DpsNetwork,
    plan: &ChurnPlan,
    steps: u64,
    rng: &mut StdRng,
) -> Vec<(NodeId, Step)> {
    let w = Workload::multiplayer_game();
    let mut crashed = Vec::new();
    for t in 0..steps {
        for ev in plan.events_at(t) {
            if ev == ChurnEvent::CrashRandom {
                if let Some(victim) = net.crash_random() {
                    crashed.push((victim, net.sim().now()));
                }
            }
        }
        if t % 10 == 0 {
            if let Some(publisher) = net.random_alive() {
                let _ = net.try_publish(publisher, w.event(rng));
            }
        }
        net.run(1);
    }
    crashed
}

/// One measured point of Figure 3(a).
#[derive(Debug, Clone, Serialize)]
pub struct Fig3aPoint {
    /// Configuration label (paper legend).
    pub config: String,
    /// Per-step failure probability (one crash every `1/p` steps).
    pub p: f64,
    /// Ratio of correctly delivered events.
    pub delivered_ratio: f64,
}

/// One Figure 3(a) cell: build the overlay, crash at rate `p`, publish every
/// 10 steps, then drain and measure. Public so the shape regression test can
/// pin individual cells without paying for the whole figure.
pub fn fig3a_cell(cfg: DpsConfig, p: f64, pi: usize, n: usize, steps: u64) -> Fig3aPoint {
    let label = cfg.label();
    let mut net = build_overlay(cfg, n, 3, 42 + pi as u64);
    let start = net.sim().now();
    let mut w_rng = StdRng::seed_from_u64(7 ^ pi as u64);
    publish_under_churn(&mut net, &ChurnPlan::rate(p), steps, &mut w_rng);
    // Deep chains deliver one hop per step: drain proportionally to the
    // population before measuring.
    net.run(2 * n as u64 + 400);
    Fig3aPoint {
        config: label,
        p,
        delivered_ratio: net.delivered_ratio_between(start, u64::MAX),
    }
}

/// Figure 3(a) — *Dependability*: delivered ratio vs failure probability.
pub fn fig3a(scale: Scale) -> Vec<Fig3aPoint> {
    crate::banner("Figure 3(a) — dependability under uniform failures", scale);
    let n = scale.pick(60usize, 250, 1000);
    // Keep the paper's survivor fractions: 3000 steps per 1000 nodes means
    // 3 × n steps at any scale (p = 0.25 then kills 75% of the population).
    let steps = scale.pick(180u64, 750, 3000);
    let ps = [0.0, 0.05, 0.10, 0.15, 0.20, 0.25];
    println!(
        "{:<26} {}",
        "config",
        ps.iter()
            .map(|p| format!("p={p:<5}"))
            .collect::<Vec<_>>()
            .join(" ")
    );
    let mut cells = Vec::new();
    for cfg in fig3a_configs() {
        for (pi, p) in ps.iter().enumerate() {
            let p = *p;
            cells.push(move || fig3a_cell(cfg, p, pi, n, steps));
        }
    }
    let rows = crate::run_cells(cells);
    for config_rows in rows.chunks(ps.len()) {
        let mut line = format!("{:<26}", config_rows[0].config);
        for r in config_rows {
            line.push_str(&format!(" {:<7.3}", r.delivered_ratio));
        }
        println!("{line}");
    }
    println!("paper shape: all ≥ 0.8; epidemic > leader; epidemic k=2 ≥ 0.97 even at p = 0.25");
    rows
}

/// One measured window of Figure 3(b).
#[derive(Debug, Clone, Serialize)]
pub struct Fig3bPoint {
    /// Configuration label.
    pub config: String,
    /// Window start (steps since the failure phase timeline began).
    pub step: u64,
    /// Delivered ratio for events published in this window.
    pub delivered_ratio: f64,
}

/// Figure 3(b) — *Recovering from failures* (generic traversal): three phases —
/// calm, storm (one crash every 2 steps), recovery.
pub fn fig3b(scale: Scale) -> Vec<Fig3bPoint> {
    crate::banner(
        "Figure 3(b) — recovery from a failure storm (generic)",
        scale,
    );
    let n = scale.pick(60usize, 250, 1000);
    // One crash every 2 steps through the middle phase: phase = n/2 kills 50%
    // of the population, like the paper's 500 crashes among 1000 nodes.
    let phase = scale.pick(60u64, 200, 1000);
    let window = 100u64.min(phase);
    let configs = vec![
        DpsConfig::named(TraversalKind::Generic, CommKind::Epidemic).with_fanout(2),
        DpsConfig::named(TraversalKind::Generic, CommKind::Epidemic),
        DpsConfig::named(TraversalKind::Generic, CommKind::Leader),
    ];
    let cells: Vec<_> = configs
        .into_iter()
        .enumerate()
        .map(|(ci, mut cfg)| {
            move || {
                cfg.join_rule = JoinRule::Explicit;
                let label = cfg.label();
                let mut net = build_overlay(cfg, n, 3, 90 + ci as u64);
                let start = net.sim().now();
                let plan = ChurnPlan::storm(phase, 2 * phase, 2);
                let mut w_rng = StdRng::seed_from_u64(17 + ci as u64);
                publish_under_churn(&mut net, &plan, 3 * phase, &mut w_rng);
                net.run(2 * n as u64 + 400);
                (0..3 * phase)
                    .step_by(window as usize)
                    .map(|wstart| Fig3bPoint {
                        config: label.clone(),
                        step: wstart,
                        delivered_ratio: net
                            .delivered_ratio_between(start + wstart, start + wstart + window),
                    })
                    .collect::<Vec<_>>()
            }
        })
        .collect();
    let mut rows = Vec::new();
    for pts in crate::run_cells(cells) {
        let mut line = format!("{:<26}", pts[0].config);
        for p in &pts {
            line.push_str(&format!(" {:.2}", p.delivered_ratio));
        }
        println!("{line}");
        rows.extend(pts);
    }
    println!(
        "(phases: calm 0..{phase}, storm {phase}..{}, recovery after; paper shape: ratio ≥ ~0.95 \
         in the storm, back to 1.0 shortly after it ends)",
        2 * phase
    );
    rows
}

/// One measured window of Figures 3(c)/3(d).
#[derive(Debug, Clone, Serialize)]
pub struct Fig3cdPoint {
    /// Configuration label.
    pub config: String,
    /// Window start step.
    pub step: u64,
    /// Outgoing publication messages per event at the median sender.
    pub median_per_event: f64,
    /// Outgoing publication messages per event at the most loaded node.
    pub max_per_event: f64,
}

/// Figures 3(c)+3(d) — *Scalability*: outgoing messages per event while the
/// system grows (a node joins and subscribes every 2 steps).
pub fn fig3cd(scale: Scale) -> Vec<Fig3cdPoint> {
    crate::banner(
        "Figures 3(c)/3(d) — scalability: outgoing messages per event (median / max)",
        scale,
    );
    let n0 = scale.pick(60usize, 250, 1000);
    let steps = scale.pick(400u64, 2000, 5000);
    let configs = vec![
        DpsConfig::named(TraversalKind::Root, CommKind::Leader),
        DpsConfig::named(TraversalKind::Root, CommKind::Epidemic),
        DpsConfig::named(TraversalKind::Root, CommKind::Epidemic).with_fanout(2),
    ];
    let cells: Vec<_> = configs
        .into_iter()
        .enumerate()
        .map(|(ci, mut cfg)| {
            move || {
                cfg.join_rule = JoinRule::Explicit;
                let label = cfg.label();
                let mut net = build_overlay(cfg, n0, 1, 700 + ci as u64);
                let w = Workload::multiplayer_game();
                let mut w_rng = StdRng::seed_from_u64(23 + ci as u64);
                net.sim_mut().set_metrics_window(100);
                let base = net.sim().now();
                for t in 0..steps {
                    // "A new node enters the system every two steps and immediately
                    // emits a new subscription."
                    if t % 2 == 0 {
                        let id = net.add_node();
                        let _ = net.try_subscribe(id, w.subscription(&mut w_rng));
                    }
                    // "10 new events every 100 steps."
                    if t % 10 == 0 {
                        if let Some(publisher) = net.random_alive() {
                            let _ = net.try_publish(publisher, w.event(&mut w_rng));
                        }
                    }
                    net.run(1);
                }
                let series = net.metrics().sent_series(&[MsgClass::Publication]);
                series
                    .iter()
                    .filter(|wstat| wstat.start >= base)
                    .map(|wstat| {
                        let per_event = 10.0; // events per 100-step window
                        Fig3cdPoint {
                            config: label.clone(),
                            step: wstat.start - base,
                            median_per_event: wstat.stat.median / per_event,
                            max_per_event: wstat.stat.max / per_event,
                        }
                    })
                    .collect::<Vec<_>>()
            }
        })
        .collect();
    let mut rows = Vec::new();
    for pts in crate::run_cells(cells) {
        if let Some(first) = pts.first() {
            let mut line = format!("{:<26}", first.config);
            for p in pts.iter().step_by(4) {
                line.push_str(&format!(
                    " {:.1}/{:.0}",
                    p.median_per_event, p.max_per_event
                ));
            }
            println!("{line}   (median/max per event, every 4th window)");
        }
        rows.extend(pts);
    }
    println!(
        "paper shape: 3(c) epidemic medians stay flat as the system grows; 3(d) the \
         leader-root max grows with system size while epidemic maxima stay bounded"
    );
    rows
}

/// One measured point of Figures 3(e)/3(f)/3(g).
#[derive(Debug, Clone, Serialize)]
pub struct LoadPoint {
    /// Configuration label.
    pub config: String,
    /// Subscriptions per node at this window.
    pub subs_per_node: f64,
    /// Incoming messages (all classes) in the window: median node.
    pub in_median: f64,
    /// Incoming messages: most loaded node.
    pub in_max: f64,
    /// Outgoing messages: median node.
    pub out_median: f64,
    /// Outgoing messages: most loaded node.
    pub out_max: f64,
}

fn load_run(mut cfg: DpsConfig, scale: Scale, seed: u64) -> Vec<LoadPoint> {
    cfg.join_rule = JoinRule::Explicit;
    let label = cfg.label();
    let n = scale.pick(60usize, 250, 1000);
    let steps = scale.pick(400u64, 1500, 3000);
    let sub_every = scale.pick(100u64, 150, 300);
    let w = Workload::multiplayer_game();
    let mut net = DpsNetwork::new(cfg, seed);
    let nodes = net.add_nodes(n);
    net.run(30);
    let mut w_rng = StdRng::seed_from_u64(seed ^ 0xfeed);
    net.sim_mut().set_metrics_window(100);
    let base = net.sim().now();
    for t in 0..steps {
        // Each node emits a new subscription every `sub_every` steps (staggered).
        for (i, node) in nodes.iter().enumerate() {
            if (t + i as u64).is_multiple_of(sub_every) {
                let _ = net.try_subscribe(*node, w.subscription(&mut w_rng));
            }
        }
        if t % 10 == 0 {
            if let Some(publisher) = net.random_alive() {
                let _ = net.try_publish(publisher, w.event(&mut w_rng));
            }
        }
        net.run(1);
    }
    let population = net.sim().alive_ids();
    // One metrics snapshot serves both series (metrics() clones the full
    // collector).
    let metrics = net.metrics();
    let in_series = metrics.series(dps_sim::Dir::Recv, &MsgClass::ALL, Some(&population));
    let out_series = metrics.series(dps_sim::Dir::Sent, &MsgClass::ALL, Some(&population));
    in_series
        .iter()
        .zip(out_series.iter())
        .filter(|(i, _)| i.start >= base)
        .map(|(i, o)| LoadPoint {
            config: label.clone(),
            subs_per_node: (i.start - base) as f64 / sub_every as f64,
            in_median: i.stat.median,
            in_max: i.stat.max,
            out_median: o.stat.median,
            out_max: o.stat.max,
        })
        .collect()
}

/// Runs `load_run` for each config in parallel and prints the summaries in order.
fn load_runs(configs: Vec<DpsConfig>, scale: Scale, seed0: u64) -> Vec<LoadPoint> {
    let cells: Vec<_> = configs
        .into_iter()
        .enumerate()
        .map(|(ci, cfg)| move || load_run(cfg, scale, seed0 + ci as u64))
        .collect();
    let mut rows = Vec::new();
    for pts in crate::run_cells(cells) {
        summarize_load(&pts);
        rows.extend(pts);
    }
    rows
}

/// Figures 3(e)+3(f) — *Leader vs Epidemic*: incoming/outgoing messages per
/// 100-step window as subscriptions accumulate (root-based traversal).
pub fn fig3ef(scale: Scale) -> Vec<LoadPoint> {
    crate::banner(
        "Figures 3(e)/3(f) — leader vs epidemic per-node load",
        scale,
    );
    let rows = load_runs(
        vec![
            DpsConfig::named(TraversalKind::Root, CommKind::Leader),
            DpsConfig::named(TraversalKind::Root, CommKind::Epidemic),
        ],
        scale,
        300,
    );
    println!(
        "paper shape: epidemic receives more than leader overall (redundancy); leader max \
         outgoing grows steeply with subscriptions while its median stays ~0; epidemic \
         spreads the sending load (max < half of leader's max)"
    );
    rows
}

/// Figure 3(g) — *Root vs Generic* (leader communication).
pub fn fig3g(scale: Scale) -> Vec<LoadPoint> {
    crate::banner(
        "Figure 3(g) — root vs generic per-node load (leader comm)",
        scale,
    );
    let rows = load_runs(
        vec![
            DpsConfig::named(TraversalKind::Root, CommKind::Leader),
            DpsConfig::named(TraversalKind::Generic, CommKind::Leader),
        ],
        scale,
        500,
    );
    println!(
        "paper shape: the root-based max incoming grows with subscriptions (the owner takes \
         every request); generic spreads it nearly flat; outgoing differs little"
    );
    rows
}

fn summarize_load(pts: &[LoadPoint]) {
    if pts.is_empty() {
        return;
    }
    println!("{}:", pts[0].config);
    println!(
        "  {:<14} {:>8} {:>8} {:>8} {:>8}",
        "subs/node", "in med", "in max", "out med", "out max"
    );
    for p in pts.iter().step_by(2) {
        println!(
            "  {:<14.1} {:>8.0} {:>8.0} {:>8.0} {:>8.0}",
            p.subs_per_node, p.in_median, p.in_max, p.out_median, p.out_max
        );
    }
}
