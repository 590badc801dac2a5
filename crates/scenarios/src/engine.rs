//! The scenario engine: executes a [compiled](mod@crate::compile) spec
//! deterministically on a [`DpsNetwork`] and measures every phase.
//!
//! A run is a pure function of the spec (including its seed): setup builds
//! the declared overlay, the lowered [`dps_sim::FaultPlan`] is installed in one shot
//! (shifted onto the absolute timeline), and each phase then advances step by
//! step, applying churn events, burst subscriptions and publications in a
//! fixed order.
//!
//! Measurement happens after a drain, so the per-phase delivered ratios see
//! fully settled deliveries (deep chains deliver one hop per step).

use dps::{DpsNetwork, DropReason, Filter, MissCensus};
use dps_sim::{ChurnEvent, Step};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;

use crate::compile::{compile, CompiledScenario, SpecError};
use crate::spec::ScenarioSpec;

/// Salt applied to the seed for the setup-subscription RNG.
const SUB_RNG_SALT: u64 = 0xabcd;
/// Salt applied to the spec seed for the publication-event RNG.
const EVENT_RNG_SALT: u64 = 0xfeed;

/// One measured phase of a scenario run: the JSON row the runner emits.
#[derive(Debug, Clone, Serialize)]
pub struct PhaseRow {
    /// Scenario name.
    pub scenario: String,
    /// Phase name.
    pub phase: String,
    /// Absolute simulation step the phase began at.
    pub from_step: Step,
    /// Absolute simulation step the phase ended at.
    pub until_step: Step,
    /// Publications issued during the phase.
    pub published: u64,
    /// Burst subscriptions issued during the phase.
    pub subscriptions: u64,
    /// Churn crashes applied during the phase.
    pub crashes: u64,
    /// Nodes that joined during the phase.
    pub joins: u64,
    /// Messages dropped by partitions during the phase.
    pub dropped_partitioned: u64,
    /// Messages dropped by loss sampling during the phase.
    pub dropped_loss: u64,
    /// Messages dropped because their destination had crashed.
    pub dropped_crashed: u64,
    /// Alive population at phase end.
    pub alive_at_end: usize,
    /// Raw delivered ratio over the phase's publications (measured after the
    /// final drain).
    pub delivered_ratio: f64,
    /// Reachable-aware delivered ratio over the phase's publications.
    pub delivered_ratio_reachable: f64,
    /// Median publish→deliver latency (steps from publish to first notify)
    /// over the phase's publications; `None` when nothing was delivered.
    pub latency_p50: Option<f64>,
    /// 99th-percentile publish→deliver latency; `None` when nothing was
    /// delivered.
    pub latency_p99: Option<f64>,
    /// 99.9th-percentile publish→deliver latency; `None` when nothing was
    /// delivered.
    pub latency_p999: Option<f64>,
    /// The spec's raw-ratio floor, if any.
    pub min_delivered: Option<f64>,
    /// The spec's reachable-ratio floor, if any.
    pub min_delivered_reachable: Option<f64>,
    /// The spec's p99 latency ceiling, if any.
    pub max_p99: Option<f64>,
    /// Whether every declared floor and ceiling held.
    pub pass: bool,
    /// Why the phase's undelivered `(publication, expected subscriber)`
    /// pairs were missed, classified after the final drain.
    pub misses: MissCensus,
}

/// The outcome of one scenario run.
#[derive(Debug, Clone, Serialize)]
pub struct ScenarioReport {
    /// Scenario name.
    pub scenario: String,
    /// Whether every phase's declared floors held.
    pub passed: bool,
    /// One row per phase, in timeline order.
    pub rows: Vec<PhaseRow>,
    /// Total simulation steps the run executed (setup, phases and drain).
    /// Deterministic for a given spec, so safe next to the rows; the runner
    /// uses it for the steps/sec throughput summary at metro scale.
    pub total_steps: Step,
}

/// The overlay set-up every experiment driver shares (scenario specs and the
/// figure runners): `nodes` nodes join the fresh `net`,
/// each issues `rounds` subscriptions drawn by `filter` from an RNG derived
/// from `seed`, paced against protocol steps, and the overlay gets 1500 steps
/// to place them all. Returns whether it did.
pub fn build_overlay(
    net: &mut DpsNetwork,
    nodes: usize,
    rounds: usize,
    seed: u64,
    mut filter: impl FnMut(&mut StdRng) -> Filter,
) -> bool {
    let nodes = net.add_nodes(nodes);
    net.run(30);
    let mut sub_rng = StdRng::seed_from_u64(seed ^ SUB_RNG_SALT);
    for _round in 0..rounds {
        for (i, node) in nodes.iter().enumerate() {
            let _ = net.try_subscribe(*node, filter(&mut sub_rng));
            if i % 25 == 24 {
                net.run(1);
            }
        }
        net.run(20);
    }
    net.quiesce(1500)
}

/// Bookkeeping recorded while a phase runs.
#[derive(Debug, Clone)]
struct PhaseRec {
    start: Step,
    end: Step,
    published: u64,
    subscriptions: u64,
    crashes: u64,
    joins: u64,
    dropped_partitioned_at_end: u64,
    dropped_loss_at_end: u64,
    dropped_crashed_at_end: u64,
    alive_at_end: usize,
}

/// An in-flight scenario run. Most callers use [`run_scenario`]; tests that
/// assert protocol internals between phases drive [`run_phase`](Self::run_phase)
/// themselves and inspect [`network`](Self::network) at each boundary.
pub struct ScenarioRun {
    compiled: CompiledScenario,
    net: DpsNetwork,
    event_rng: StdRng,
    next_phase: usize,
    recs: Vec<PhaseRec>,
}

impl ScenarioRun {
    /// Compiles `spec`, builds the declared overlay (nodes, setup
    /// subscriptions, convergence) and installs the lowered fault schedule.
    pub fn new(spec: &ScenarioSpec) -> Result<Self, SpecError> {
        let compiled = compile(spec)?;
        let mut net = DpsNetwork::new(compiled.cfg, compiled.seed);
        // The latency model must go in before the first node: `set_latency`
        // insists on a fresh simulation, and `add_nodes` already enqueues the
        // nodes' start-up sends.
        if let Some(model) = compiled.latency.clone() {
            net.try_set_latency(model)
                .expect("compile() validated the model and the network is fresh");
        }
        let (n, rounds) = (compiled.nodes, compiled.subs_per_node);
        let draw = |rng: &mut StdRng| subscription(&compiled, rng);
        if !build_overlay(&mut net, n, rounds, compiled.seed, draw) {
            // A setup failure must not masquerade as a protocol failure in
            // the measured phases (the hand-rolled tests asserted this too).
            return Err(SpecError(format!(
                "{}: overlay failed to converge during setup \
                 ({} subscriptions still unplaced after 1500 steps)",
                compiled.name,
                net.pending_subscriptions()
            )));
        }
        net.run(150);
        // The timeline starts now: shift the relative windows onto it.
        let base = net.sim().now();
        net.schedule_faults(compiled.faults.clone().shifted(base));
        let event_rng = StdRng::seed_from_u64(compiled.seed ^ EVENT_RNG_SALT);
        Ok(ScenarioRun {
            compiled,
            net,
            event_rng,
            next_phase: 0,
            recs: Vec::new(),
        })
    }

    /// The network under simulation (between-phase inspection).
    pub fn network(&self) -> &DpsNetwork {
        &self.net
    }

    /// Mutable network access: tests inject bespoke actions (extra joins,
    /// hand-picked publications) at phase boundaries.
    pub fn network_mut(&mut self) -> &mut DpsNetwork {
        &mut self.net
    }

    /// Runs the next phase of the timeline; returns its name, or `None` when
    /// every phase has run. Within each step the order is fixed: churn events,
    /// then burst subscriptions, then the scheduled publication, then one
    /// simulation step.
    pub fn run_phase(&mut self) -> Option<&str> {
        let phase = self.compiled.phases.get(self.next_phase)?;
        let mut rec = PhaseRec {
            start: self.net.sim().now(),
            end: 0,
            published: 0,
            subscriptions: 0,
            crashes: 0,
            joins: 0,
            dropped_partitioned_at_end: 0,
            dropped_loss_at_end: 0,
            dropped_crashed_at_end: 0,
            alive_at_end: 0,
        };
        let mut next_sub = 0usize;
        for t in 1..=phase.steps {
            for plan in &phase.churn {
                for ev in plan.events_at(t) {
                    match ev {
                        ChurnEvent::CrashRandom => {
                            if self.net.crash_random().is_some() {
                                rec.crashes += 1;
                            }
                        }
                        ChurnEvent::Join => {
                            let id = self.net.add_node();
                            let f = subscription(&self.compiled, &mut self.event_rng);
                            let _ = self.net.try_subscribe(id, f);
                            rec.joins += 1;
                        }
                    }
                }
            }
            while phase.subscribe_at.get(next_sub) == Some(&t) {
                next_sub += 1;
                if let Some(node) = self.net.random_alive() {
                    let f = subscription(&self.compiled, &mut self.event_rng);
                    let _ = self.net.try_subscribe(node, f);
                    rec.subscriptions += 1;
                }
            }
            if let Some(every) = phase.publish_every {
                if (t - 1) % every == 0 {
                    if let Some(publisher) = self.net.random_alive() {
                        let ev = self.compiled.workload.event(&mut self.event_rng);
                        if self.net.try_publish(publisher, ev).is_ok() {
                            rec.published += 1;
                        }
                    }
                }
            }
            self.net.run(1);
        }
        rec.end = self.net.sim().now();
        let m = self.net.metrics();
        rec.dropped_partitioned_at_end = m.dropped_for(DropReason::Partitioned);
        rec.dropped_loss_at_end = m.dropped_for(DropReason::Loss);
        rec.dropped_crashed_at_end = m.dropped_for(DropReason::Crashed);
        rec.alive_at_end = self.net.sim().alive_count();
        self.recs.push(rec);
        self.next_phase += 1;
        Some(&self.compiled.phases[self.next_phase - 1].name)
    }

    /// Runs any remaining phases and the drain, measures every phase and
    /// checks the declared floors.
    pub fn finish(mut self) -> ScenarioReport {
        while self.run_phase().is_some() {}
        self.net.run(self.compiled.drain);
        let mut rows = Vec::with_capacity(self.recs.len());
        let (mut prev_cut, mut prev_loss, mut prev_crashed) = (0u64, 0u64, 0u64);
        for (phase, rec) in self.compiled.phases.iter().zip(&self.recs) {
            let delivered = self.net.delivered_ratio_between(rec.start, rec.end);
            let reachable = self
                .net
                .delivered_ratio_reachable_between(rec.start, rec.end);
            let lat = self.net.latency_summary_between(rec.start, rec.end);
            let pass = phase.min_delivered.is_none_or(|floor| delivered >= floor)
                && phase
                    .min_delivered_reachable
                    .is_none_or(|floor| reachable >= floor)
                // The ceiling needs deliveries to measure: a phase that
                // declared one but delivered nothing fails loudly instead of
                // passing vacuously.
                && phase
                    .max_p99
                    .is_none_or(|ceiling| lat.samples > 0 && lat.p99 <= ceiling);
            rows.push(PhaseRow {
                scenario: self.compiled.name.clone(),
                phase: phase.name.clone(),
                from_step: rec.start,
                until_step: rec.end,
                published: rec.published,
                subscriptions: rec.subscriptions,
                crashes: rec.crashes,
                joins: rec.joins,
                dropped_partitioned: rec.dropped_partitioned_at_end - prev_cut,
                dropped_loss: rec.dropped_loss_at_end - prev_loss,
                dropped_crashed: rec.dropped_crashed_at_end - prev_crashed,
                alive_at_end: rec.alive_at_end,
                delivered_ratio: delivered,
                delivered_ratio_reachable: reachable,
                latency_p50: (lat.samples > 0).then_some(lat.p50),
                latency_p99: (lat.samples > 0).then_some(lat.p99),
                latency_p999: (lat.samples > 0).then_some(lat.p999),
                min_delivered: phase.min_delivered,
                min_delivered_reachable: phase.min_delivered_reachable,
                max_p99: phase.max_p99,
                pass,
                misses: self.net.misses_between(rec.start, rec.end),
            });
            prev_cut = rec.dropped_partitioned_at_end;
            prev_loss = rec.dropped_loss_at_end;
            prev_crashed = rec.dropped_crashed_at_end;
        }
        ScenarioReport {
            scenario: self.compiled.name.clone(),
            passed: rows.iter().all(|r| r.pass),
            rows,
            total_steps: self.net.sim().now(),
        }
    }
}

/// Draws one subscription: the fixed topology filter if declared, a workload
/// draw otherwise.
fn subscription(compiled: &CompiledScenario, rng: &mut StdRng) -> Filter {
    match &compiled.filter {
        Some(f) => f.clone(),
        None => compiled.workload.subscription(rng),
    }
}

/// Compiles and executes `spec` end to end.
pub fn run_scenario(spec: &ScenarioSpec) -> Result<ScenarioReport, SpecError> {
    Ok(ScenarioRun::new(spec)?.finish())
}
