//! Figure runners: the dependability, recovery, scalability and comparison
//! plots of §5.2 (Figures 3(a)–3(g)).
//!
//! Every `(config, parameter)` cell is an independent deterministic simulation
//! with its own seeds, so the runners build one closure per cell and fan them
//! out through [`crate::run_cells`]; rows come back in cell order, making the
//! output identical whatever `DPS_THREADS` is.

use dps::{CommKind, DpsConfig, DpsNetwork, JoinRule, MsgClass, NodeId, Step, TraversalKind};
use dps_sim::{ChurnEvent, ChurnPlan, ClassCounts, Metrics, Process, Sim};
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
/// subscriptions each (the paper's dependability setup).
fn build_overlay(cfg: DpsConfig, n: usize, subs_per_node: usize, seed: u64) -> DpsNetwork {
    let w = Workload::multiplayer_game();
    let mut net = DpsNetwork::new(cfg, seed);
    dps_scenarios::build_overlay(&mut net, n, subs_per_node, seed, |rng| w.subscription(rng));
    net.run(150);
    net
}

/// The measured window the dependability runners share: for `steps` steps,
/// apply `plan`'s crashes, publish one workload-2 event from a random alive
/// node every 10 steps ("a new event is published every 10 steps", §5.2), and
/// advance one step.
fn publish_under_churn(net: &mut DpsNetwork, plan: &ChurnPlan, steps: u64, rng: &mut StdRng) {
    let w = Workload::multiplayer_game();
    for t in 0..steps {
        for ev in plan.events_at(t) {
            if ev == ChurnEvent::CrashRandom {
                net.crash_random();
            }
        }
        if t % 10 == 0 {
            if let Some(publisher) = net.random_alive() {
                let _ = net.try_publish(publisher, w.event(rng));
            }
        }
        net.run(1);
    }
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

/// Figures 3(c)–3(g) sample per-node traffic over windows of this many steps
/// ("sampled during a period of 100 steps", §5.2.1).
const WINDOW: Step = 100;

/// Median / max / mean of a per-node quantity within one window.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct Summary {
    /// `sorted[len / 2]`: the paper's "node with less than half and more
    /// than half".
    median: f64,
    max: f64,
    mean: f64,
}

impl Summary {
    /// Summarizes one value per node; no nodes summarize to all zeros.
    fn of(mut values: Vec<u64>) -> Summary {
        values.sort_unstable();
        let Some(&max) = values.last() else {
            return Summary::default();
        };
        Summary {
            median: values[values.len() / 2] as f64,
            max: max as f64,
            mean: values.iter().sum::<u64>() as f64 / values.len() as f64,
        }
    }
}

/// Per-node traffic over the absolute windows `[k·WINDOW, (k+1)·WINDOW)`
/// that lie wholly inside a measured step loop, read as differences between
/// snapshots of the engine's cumulative counters at the window boundaries.
///
/// Traffic a driver causes between steps (`add_node`, `try_subscribe`,
/// `try_publish`) belongs to the window of the current `now`, so boundary
/// `s` is snapshotted before the step that advances `now` to `s`
/// ([`before_step`](Self::before_step)), and at the loop's start if `now`
/// already sits on one ([`new`](Self::new)).
struct WindowSampler {
    /// Each boundary crossed so far, with the counters at it.
    marks: Vec<(Step, Metrics)>,
}

impl WindowSampler {
    /// Starts sampling before the loop's first driver call.
    fn new<P: Process>(sim: &Sim<P>) -> Self {
        let mut sampler = WindowSampler { marks: Vec::new() };
        sampler.cross(sim.now(), sim);
        sampler
    }

    /// To be called right before each step of the loop.
    fn before_step<P: Process>(&mut self, sim: &Sim<P>) {
        self.cross(sim.now() + 1, sim);
    }

    fn cross<P: Process>(&mut self, boundary: Step, sim: &Sim<P>) {
        if boundary.is_multiple_of(WINDOW) {
            self.marks.push((boundary, sim.metrics()));
        }
    }

    /// Each completed window's first step and summary of `count` over its
    /// nodes: with a `population`, every member, a silent one as 0; without
    /// one, the nodes any of whose counters moved in the window.
    fn series(
        &self,
        count: impl Fn(&ClassCounts) -> u64,
        population: Option<&[NodeId]>,
    ) -> Vec<(Step, Summary)> {
        let at = |m: &Metrics, i: usize| m.per_node().get(i).copied().unwrap_or_default();
        self.marks
            .iter()
            .zip(self.marks.iter().skip(1))
            .map(|((start, from), (_, to))| {
                let moved = |i: usize| count(&at(to, i)) - count(&at(from, i));
                let values = match population {
                    Some(pop) => pop.iter().map(|id| moved(id.index())).collect(),
                    None => (0..to.per_node().len())
                        .filter(|&i| at(to, i) != at(from, i))
                        .map(moved)
                        .collect(),
                };
                (*start, Summary::of(values))
            })
            .collect()
    }
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
                let base = net.sim().now();
                let mut sampler = WindowSampler::new(net.sim());
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
                    sampler.before_step(net.sim());
                    net.run(1);
                }
                let per_event = 10.0; // events per 100-step window
                sampler
                    .series(|c| c.sent_in(&[MsgClass::Publication]), None)
                    .into_iter()
                    .map(|(start, stat)| Fig3cdPoint {
                        config: label.clone(),
                        step: start - base,
                        median_per_event: stat.median / per_event,
                        max_per_event: stat.max / per_event,
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
    let base = net.sim().now();
    let mut sampler = WindowSampler::new(net.sim());
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
        sampler.before_step(net.sim());
        net.run(1);
    }
    let population = net.sim().alive_ids();
    let in_series = sampler.series(|c| c.recv_in(&MsgClass::ALL), Some(&population));
    let out_series = sampler.series(|c| c.sent_in(&MsgClass::ALL), Some(&population));
    in_series
        .into_iter()
        .zip(out_series)
        .map(|((start, i), (_, o))| LoadPoint {
            config: label.clone(),
            subs_per_node: (start - base) as f64 / sub_every as f64,
            in_median: i.median,
            in_max: i.max,
            out_median: o.median,
            out_max: o.max,
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

#[cfg(test)]
mod tests {
    use super::*;
    use dps_sim::{Context, Message};

    #[derive(Debug, Clone)]
    struct Msg(MsgClass);

    impl Message for Msg {
        fn class(&self) -> MsgClass {
            self.0
        }
    }

    /// A node that sends nothing of its own.
    struct Quiet;

    impl Process for Quiet {
        type Msg = Msg;
        fn on_message(&mut self, _: NodeId, _: Msg, _: &mut Context<'_, Msg>) {}
    }

    /// `n` quiet nodes after `warm_up` steps, then a measured loop of
    /// `steps` steps the way the runners drive one: the driver's calls
    /// (`post` to the node `driver` names at `now`, if any), the sampler,
    /// the step.
    fn sample(
        n: usize,
        warm_up: u64,
        steps: u64,
        driver: impl Fn(Step) -> Option<(usize, MsgClass)>,
    ) -> WindowSampler {
        let mut sim = Sim::new(0);
        for _ in 0..n {
            sim.add_node(Quiet);
        }
        sim.run(warm_up);
        let mut sampler = WindowSampler::new(&sim);
        for _ in 0..steps {
            if let Some((i, class)) = driver(sim.now()) {
                sim.post(NodeId::from_index(i), Msg(class));
            }
            sampler.before_step(&sim);
            sim.step();
        }
        sampler
    }

    fn publications(c: &ClassCounts) -> u64 {
        c.sent_in(&[MsgClass::Publication])
    }

    fn ids(range: std::ops::Range<usize>) -> Vec<NodeId> {
        range.map(NodeId::from_index).collect()
    }

    #[test]
    fn windows_difference_snapshots_and_summarize() {
        // Node 0 publishes nine times in [0, 100) and once in [100, 200).
        let sampler = sample(3, 0, 200, |now| match now {
            0..=8 | 120 => Some((0, MsgClass::Publication)),
            9 => Some((1, MsgClass::Management)),
            _ => None,
        });
        let series = sampler.series(publications, None);
        // Two active nodes: values [0 (node 1), 9 (node 0)], median sorted[1].
        let first = Summary {
            median: 9.0,
            max: 9.0,
            mean: 4.5,
        };
        assert_eq!(series, [(0, first), (100, Summary::of(vec![1]))]);
        assert_eq!(Summary::of(vec![4, 1, 3, 2]).median, 3.0);
        assert_eq!(Summary::of(vec![5, 1, 3]).median, 3.0);
    }

    #[test]
    fn a_population_counts_silent_nodes_as_zero() {
        let sampler = sample(3, 0, 200, |now| {
            (now < 9).then_some((0, MsgClass::Publication))
        });
        // [0, 100): values [0, 0, 9], the silent nodes pull the median down;
        // node 7 never existed and counts as 0 too.
        let (_, stat) = sampler.series(publications, Some(&ids(0..3)))[0];
        assert_eq!((stat.median, stat.max, stat.mean), (0.0, 9.0, 3.0));
        let (_, stat) = sampler.series(publications, Some(&ids(6..8)))[0];
        assert_eq!(stat, Summary::default());
        // [100, 200) is silent through: all zeros, with or without one.
        assert_eq!(
            sampler.series(publications, Some(&ids(0..3)))[1].1,
            Summary::default()
        );
        assert_eq!(sampler.series(publications, None)[1].1, Summary::default());
    }

    #[test]
    fn inactive_nodes_are_invisible_without_population() {
        // A node that only sent Management still contributes a zero to the
        // Publication series (it was active in the window), while nodes that
        // did nothing at all (1..5) do not appear.
        let sampler = sample(6, 0, 100, |now| match now {
            0 => Some((0, MsgClass::Publication)),
            1 => Some((5, MsgClass::Management)),
            _ => None,
        });
        let (_, stat) = sampler.series(publications, None)[0];
        assert_eq!((stat.max, stat.mean), (1.0, 0.5));
    }

    #[test]
    fn traffic_between_steps_lands_in_the_current_window() {
        // Posted at now = 199, before the step into 200: window [100, 200).
        // Posted at now = 200, after it: window [200, 300). The loop starts
        // mid-window at 25, so [0, 100) yields no row.
        let sampler = sample(2, 25, 275, |now| match now {
            199 => Some((0, MsgClass::Publication)),
            200 => Some((1, MsgClass::Publication)),
            _ => None,
        });
        let max_of = |node: usize| -> Vec<(Step, f64)> {
            let series = sampler.series(publications, Some(&ids(node..node + 1)));
            series.into_iter().map(|(s, stat)| (s, stat.max)).collect()
        };
        assert_eq!(max_of(0), [(100, 1.0), (200, 0.0)]);
        assert_eq!(max_of(1), [(100, 0.0), (200, 1.0)]);
        // A loop starting on a boundary snapshots at its start, so its first
        // driver call counts in its first window.
        let sampler = sample(1, 100, 100, |now| {
            (now == 100).then_some((0, MsgClass::Publication))
        });
        assert_eq!(
            sampler.series(publications, None),
            [(100, Summary::of(vec![1]))]
        );
    }
}
