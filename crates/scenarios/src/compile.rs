//! The spec compiler: validates a [`ScenarioSpec`] and lowers it onto the
//! existing simulation APIs — phase-relative partition and loss windows
//! become scheduled [`FaultPlan`] windows on the run timeline, churn knobs
//! become [`ChurnPlan`]s, topology strings become a [`DpsConfig`] and a
//! [`Workload`].
//!
//! Validation fails loudly: an unknown scheme, a typo'd workload name,
//! overlapping exclusive windows or an out-of-range floor all return a
//! [`SpecError`] naming the offending phase instead of silently running
//! something else.

use dps::{CommKind, DpsConfig, Filter, JoinRule, TraversalKind};
use dps_sim::{ChurnPlan, FaultPlan, LatencyModel, Step};
use dps_workload::{AttrSpec, Dist, SubShape, Workload};

use crate::spec::{
    CutSpec, LatencySpec, LossWindowSpec, PartitionWindowSpec, PhaseSpec, ScenarioSpec,
};

/// Maximum number of stepped sub-windows a loss ramp is lowered into.
const RAMP_SEGMENTS: u64 = 8;

/// A scenario spec was malformed; the message names the offending field.
#[derive(Debug, Clone, PartialEq)]
pub struct SpecError(pub String);

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for SpecError {}

fn err<T>(msg: impl Into<String>) -> Result<T, SpecError> {
    Err(SpecError(msg.into()))
}

/// A validated, lowered scenario, ready for the [engine](crate::engine).
/// All windows are **timeline-relative**: step 0 is the end of overlay setup;
/// the engine shifts the fault plan by the absolute setup length at install
/// time ([`FaultPlan::shifted`]).
#[derive(Debug, Clone)]
pub struct CompiledScenario {
    /// Scenario name (from the spec).
    pub name: String,
    /// Protocol configuration the nodes run.
    pub cfg: DpsConfig,
    /// Workload subscriptions and events are drawn from.
    pub workload: Workload,
    /// Initial population.
    pub nodes: usize,
    /// Setup subscriptions per node.
    pub subs_per_node: usize,
    /// Fixed subscription filter (instead of workload draws), if declared.
    pub filter: Option<Filter>,
    /// RNG seed.
    pub seed: u64,
    /// Link-latency model, when the spec declares one (`None` keeps the
    /// engine's default unit latency — the classic cycle model).
    pub latency: Option<LatencyModel>,
    /// The lowered fault schedule (timeline-relative windows).
    pub faults: FaultPlan,
    /// The lowered phases, in timeline order.
    pub phases: Vec<CompiledPhase>,
    /// Post-run drain steps.
    pub drain: u64,
}

/// One lowered phase.
#[derive(Debug, Clone)]
pub struct CompiledPhase {
    /// Phase name.
    pub name: String,
    /// Timeline-relative start of the phase.
    pub start: Step,
    /// Phase length in steps.
    pub steps: u64,
    /// Publication cadence, if any.
    pub publish_every: Option<u64>,
    /// Phase-local steps (1-based, ascending) at which one burst
    /// subscription is issued.
    pub subscribe_at: Vec<u64>,
    /// Churn schedules evaluated at the phase-local step.
    pub churn: Vec<ChurnPlan>,
    /// Floor on the raw delivered ratio, if declared.
    pub min_delivered: Option<f64>,
    /// Floor on the reachable-aware delivered ratio, if declared.
    pub min_delivered_reachable: Option<f64>,
    /// Ceiling on the p99 publish→deliver latency, if declared.
    pub max_p99: Option<f64>,
}

/// Validates and lowers a spec. See the [module docs](self).
pub fn compile(spec: &ScenarioSpec) -> Result<CompiledScenario, SpecError> {
    if spec.name.is_empty() {
        return err("scenario name must not be empty");
    }
    // The name becomes the output filename (scenario_<name>.json) and must
    // survive shell quoting in the CI compare loop.
    if !spec
        .name
        .chars()
        .all(|c| c.is_ascii_alphanumeric() || matches!(c, '-' | '_' | '.'))
    {
        return err(format!(
            "scenario name {:?} may only contain ASCII letters, digits, '-', '_' and '.' \
             (it names the output file)",
            spec.name
        ));
    }
    let t = &spec.topology;
    if t.nodes == 0 {
        return err(format!("{}: topology.nodes must be > 0", spec.name));
    }
    let comm = match t.scheme.as_str() {
        "leader" => CommKind::Leader,
        "epidemic" => CommKind::Epidemic,
        other => {
            return err(format!(
                "{}: unknown scheme {other:?} (expected \"leader\" or \"epidemic\")",
                spec.name
            ))
        }
    };
    let traversal = match t.traversal.as_deref() {
        None | Some("root") => TraversalKind::Root,
        Some("generic") => TraversalKind::Generic,
        Some(other) => {
            return err(format!(
                "{}: unknown traversal {other:?} (expected \"root\" or \"generic\")",
                spec.name
            ))
        }
    };
    let mut cfg = DpsConfig::named(traversal, comm);
    cfg.join_rule = match t.join_rule.as_deref() {
        None | Some("explicit") => JoinRule::Explicit,
        Some("first") => JoinRule::First,
        Some(other) => {
            return err(format!(
                "{}: unknown join_rule {other:?} (expected \"explicit\" or \"first\")",
                spec.name
            ))
        }
    };
    if let Some(k) = t.fanout {
        if k == 0 {
            return err(format!("{}: topology.fanout must be > 0", spec.name));
        }
        if comm != CommKind::Epidemic {
            return err(format!(
                "{}: topology.fanout only applies to the epidemic scheme",
                spec.name
            ));
        }
        cfg.gossip_fanout = k;
    }
    if t.workload.is_some() && t.attributes.is_some() {
        return err(format!(
            "{}: topology.workload and topology.attributes are exclusive",
            spec.name
        ));
    }
    let workload = if let Some(n_attrs) = t.attributes {
        if n_attrs == 0 {
            return err(format!("{}: topology.attributes must be > 0", spec.name));
        }
        synthetic_workload(n_attrs)
    } else {
        match t.workload.as_deref() {
            None | Some("multiplayer-game") => Workload::multiplayer_game(),
            Some("stock-exchange") => Workload::stock_exchange(),
            Some("alert-monitoring") => Workload::alert_monitoring(),
            Some(other) => {
                return err(format!(
                    "{}: unknown workload {other:?} (expected \"multiplayer-game\", \
                     \"stock-exchange\" or \"alert-monitoring\")",
                    spec.name
                ))
            }
        }
    };
    let filter = match &t.filter {
        None => None,
        Some(text) => Some(
            text.parse::<Filter>()
                .map_err(|e| SpecError(format!("{}: topology.filter {text:?}: {e}", spec.name)))?,
        ),
    };
    let latency = match &t.latency {
        None => None,
        Some(l) => Some(lower_latency(l, &spec.name)?),
    };

    if spec.phases.is_empty() {
        return err(format!(
            "{}: a scenario needs at least one phase",
            spec.name
        ));
    }
    let mut faults = FaultPlan::none();
    let mut phases = Vec::with_capacity(spec.phases.len());
    let mut start: Step = 0;
    for p in &spec.phases {
        let ctx = format!("{}: phase {:?}", spec.name, p.name);
        if p.name.is_empty() {
            return err(format!("{}: phase names must not be empty", spec.name));
        }
        if phases.iter().any(|c: &CompiledPhase| c.name == p.name) {
            return err(format!("{}: duplicate phase name {:?}", spec.name, p.name));
        }
        if p.steps == 0 {
            return err(format!("{ctx}: steps must be > 0"));
        }
        if p.publish_every == Some(0) {
            return err(format!("{ctx}: publish_every must be > 0"));
        }
        lower_partitions(&mut faults, p, start, t.nodes, &ctx)?;
        lower_loss(&mut faults, p, start, &ctx)?;
        let churn = lower_churn(p, &ctx)?;
        let subscribe_at = lower_subscribe(p, &ctx)?;
        let (min_delivered, min_delivered_reachable, max_p99) = match &p.expect {
            None => (None, None, None),
            Some(e) => {
                for floor in [e.min_delivered, e.min_delivered_reachable]
                    .into_iter()
                    .flatten()
                {
                    if !(0.0..=1.0).contains(&floor) {
                        return err(format!("{ctx}: expectation floors must be within [0, 1]"));
                    }
                }
                if let Some(ceiling) = e.max_p99 {
                    if !ceiling.is_finite() || ceiling < 1.0 {
                        return err(format!(
                            "{ctx}: expect.max_p99 must be a finite latency of >= 1 step"
                        ));
                    }
                    if p.publish_every.is_none() {
                        return err(format!(
                            "{ctx}: expect.max_p99 needs publish_every (a latency ceiling \
                             over a phase that publishes nothing would hold vacuously)"
                        ));
                    }
                }
                (e.min_delivered, e.min_delivered_reachable, e.max_p99)
            }
        };
        phases.push(CompiledPhase {
            name: p.name.clone(),
            start,
            steps: p.steps,
            publish_every: p.publish_every,
            subscribe_at,
            churn,
            min_delivered,
            min_delivered_reachable,
            max_p99,
        });
        start += p.steps;
    }

    Ok(CompiledScenario {
        name: spec.name.clone(),
        cfg,
        workload,
        nodes: t.nodes,
        subs_per_node: t.subs_per_node.unwrap_or(1),
        filter,
        seed: spec.seed,
        latency,
        faults,
        phases,
        drain: spec.drain.unwrap_or(2 * t.nodes as u64 + 200),
    })
}

/// A synthetic uniform workload over `n` numeric attributes `a0..aN`, one
/// range per attribute (the `forest_many_attrs` shape, declaratively).
fn synthetic_workload(n: usize) -> Workload {
    let attrs = (0..n)
        .map(|i| AttrSpec::Numeric {
            name: format!("a{i}"),
            domain: 1000,
            ev_dist: Dist::Uniform,
            sub_dist: Dist::Uniform,
            range_frac: 0.5,
            eq_frac: 0.0,
            gt_frac: 0.0,
        })
        .collect();
    Workload::new(
        format!("synthetic ({n} attributes)"),
        attrs,
        SubShape::OneOf,
    )
}

/// Lowers a [`LatencySpec`] onto the engine's [`LatencyModel`], re-running
/// the model's own validation so a bad range names the scenario instead of
/// panicking inside `Sim::set_latency` mid-run.
fn lower_latency(spec: &LatencySpec, name: &str) -> Result<LatencyModel, SpecError> {
    let model = match spec {
        LatencySpec::Uniform { min, max } => LatencyModel::Uniform {
            min: *min,
            max: *max,
        },
        LatencySpec::Bimodal {
            fast_min,
            fast_max,
            slow_min,
            slow_max,
            slow_weight,
        } => LatencyModel::Bimodal {
            fast: (*fast_min, *fast_max),
            slow: (*slow_min, *slow_max),
            slow_weight: *slow_weight,
        },
        LatencySpec::Classes { classes } => LatencyModel::Classed {
            classes: classes.iter().map(|c| (c.min, c.max)).collect(),
        },
    };
    model
        .validate()
        .map_err(|e| SpecError(format!("{name}: topology.latency: {e}")))?;
    Ok(model)
}

/// Resolves a phase-relative fault window to absolute engine steps,
/// validating bounds against the phase length.
///
/// Deliveries of phase step `t` happen at engine time `phase_start + t`
/// (`t = 1..=steps`; the engine increments its clock before delivering), so
/// the declared window `[from, until)` lowers to
/// `[phase_start + from + 1, phase_start + until + 1)`. That covers exactly
/// the deliveries an imperative driver covers by installing the fault after
/// `from` steps of the phase and healing it after `until` steps — in
/// particular, a whole-phase window severs the phase's final delivery step
/// and leaves the previous phase's deliveries untouched (pinned by the
/// parity test against the `partition_split`/`heal`/`set_loss` facade).
/// One consequence: a publication issued on the first step of the *next*
/// phase takes its reachability snapshot while the window is still open
/// (publish-at-`t` and deliver-at-`t+1` share an engine time), so the
/// boundary publication's accounting is conservative — far-side subscribers
/// count as unreachable even though the delivery itself is already clean.
fn window(
    from: Option<u64>,
    until: Option<u64>,
    phase_start: Step,
    phase_steps: u64,
    ctx: &str,
) -> Result<(Step, Step), SpecError> {
    let f = from.unwrap_or(0);
    let u = until.unwrap_or(phase_steps);
    if f >= u {
        return err(format!("{ctx}: empty window [{f}, {u})"));
    }
    if u > phase_steps {
        return err(format!(
            "{ctx}: window end {u} exceeds the phase length {phase_steps}"
        ));
    }
    Ok((phase_start + f + 1, phase_start + u + 1))
}

/// Rejects overlap among `[from, until)` intervals (exclusive windows).
fn check_disjoint(windows: &[(Step, Step)], what: &str, ctx: &str) -> Result<(), SpecError> {
    for (i, a) in windows.iter().enumerate() {
        for b in &windows[i + 1..] {
            if a.0 < b.1 && b.0 < a.1 {
                return err(format!(
                    "{ctx}: overlapping {what} windows (they are exclusive; \
                     merge them or stagger their intervals)"
                ));
            }
        }
    }
    Ok(())
}

fn lower_partitions(
    faults: &mut FaultPlan,
    p: &PhaseSpec,
    start: Step,
    nodes: usize,
    ctx: &str,
) -> Result<(), SpecError> {
    let Some(parts) = &p.partitions else {
        return Ok(());
    };
    let mut spans = Vec::with_capacity(parts.len());
    for PartitionWindowSpec { from, until, cut } in parts {
        let (f, u) = window(*from, *until, start, p.steps, ctx)?;
        spans.push((f, u));
        let (CutSpec::Split { boundary } | CutSpec::SplitOneWay { boundary, .. }) = cut;
        if *boundary == 0 || *boundary >= nodes {
            return err(format!(
                "{ctx}: split boundary {boundary} must sit strictly inside \
                 the initial population (1..{nodes})"
            ));
        }
        match cut {
            CutSpec::Split { boundary } => {
                faults.add_split(f, u, *boundary);
            }
            CutSpec::SplitOneWay {
                boundary,
                low_to_high,
            } => {
                faults.add_split_oneway(f, u, *boundary, *low_to_high);
            }
        }
    }
    check_disjoint(&spans, "partition", ctx)
}

fn lower_loss(
    faults: &mut FaultPlan,
    p: &PhaseSpec,
    start: Step,
    ctx: &str,
) -> Result<(), SpecError> {
    let Some(loss) = &p.loss else {
        return Ok(());
    };
    let mut spans = Vec::with_capacity(loss.len());
    for LossWindowSpec {
        from,
        until,
        rate,
        ramp_to,
    } in loss
    {
        let (f, u) = window(*from, *until, start, p.steps, ctx)?;
        spans.push((f, u));
        for r in std::iter::once(rate).chain(ramp_to.as_ref()) {
            if !r.is_finite() || !(0.0..=1.0).contains(r) {
                return err(format!("{ctx}: loss rates must be within [0, 1]"));
            }
        }
        match ramp_to {
            None => {
                faults.set_loss_during(f, u, *rate);
            }
            Some(r1) => {
                // Lower the ramp into stepped sub-windows interpolating
                // linearly from `rate` at the start to `r1` in the last one.
                let len = u - f;
                if len < 2 {
                    return err(format!("{ctx}: a loss ramp needs a window of >= 2 steps"));
                }
                let segments = RAMP_SEGMENTS.min(len);
                for i in 0..segments {
                    let seg_from = f + i * len / segments;
                    let seg_until = f + (i + 1) * len / segments;
                    let r = rate + (r1 - rate) * i as f64 / (segments - 1) as f64;
                    faults.set_loss_during(seg_from, seg_until, r);
                }
            }
        }
    }
    check_disjoint(&spans, "loss", ctx)
}

fn lower_churn(p: &PhaseSpec, ctx: &str) -> Result<Vec<ChurnPlan>, SpecError> {
    let Some(churn) = &p.churn else {
        return Ok(Vec::new());
    };
    let mut plans = Vec::new();
    match (churn.crash_every, churn.crash_rate) {
        (Some(_), Some(_)) => {
            return err(format!(
                "{ctx}: churn.crash_every and churn.crash_rate are exclusive"
            ))
        }
        (Some(0), _) => return err(format!("{ctx}: churn.crash_every must be > 0")),
        (Some(every), None) => plans.push(ChurnPlan::storm(0, p.steps, every)),
        (None, Some(rate)) => {
            if !rate.is_finite() || !(0.0..=1.0).contains(&rate) {
                return err(format!("{ctx}: churn.crash_rate must be within [0, 1]"));
            }
            plans.push(ChurnPlan::rate_during(0, p.steps, rate));
        }
        (None, None) => {}
    }
    match churn.join_every {
        Some(0) => return err(format!("{ctx}: churn.join_every must be > 0")),
        Some(every) => plans.push(ChurnPlan::joins_during(0, p.steps, every)),
        None => {}
    }
    if plans.is_empty() {
        return err(format!(
            "{ctx}: churn declared but neither crashes nor joins scheduled"
        ));
    }
    Ok(plans)
}

fn lower_subscribe(p: &PhaseSpec, ctx: &str) -> Result<Vec<u64>, SpecError> {
    let Some(s) = &p.subscribe else {
        return Ok(Vec::new());
    };
    if s.count == 0 {
        return err(format!("{ctx}: subscribe.count must be > 0"));
    }
    match s.over {
        None => Ok(vec![1; s.count as usize]),
        Some(over) => {
            if over == 0 || over > p.steps {
                return err(format!(
                    "{ctx}: subscribe.over must be within 1..={}",
                    p.steps
                ));
            }
            // Evenly spaced phase-local steps in [1, over].
            Ok((0..s.count).map(|i| 1 + i * over / s.count).collect())
        }
    }
}
