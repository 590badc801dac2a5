//! The declarative scenario spec: what a `scenarios/*.json` file contains.
//!
//! A spec is pure data — topology, a phased timeline of adversity (churn,
//! partitions, loss, workload bursts) and expected outcomes. The
//! [compiler](mod@crate::compile) validates it and lowers it onto the existing
//! `ChurnPlan`/`FaultPlan`/`DpsNetwork` APIs; nothing in here executes.
//!
//! All step counts inside a phase are **phase-relative**; the compiler
//! resolves them onto the run timeline. See the repository README for the
//! annotated file-format reference.

use serde::{Deserialize, Serialize};

use crate::compile::SpecError;

/// A complete declarative scenario, as parsed from one JSON spec file.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioSpec {
    /// Scenario name (used for row labels and output file names).
    pub name: String,
    /// Free-text description of the storyline.
    pub description: Option<String>,
    /// RNG seed: the whole run is a pure function of the spec and this seed.
    pub seed: u64,
    /// Initial overlay: population, scheme and subscription load.
    pub topology: TopologySpec,
    /// The timeline: phases run back to back in order.
    pub phases: Vec<PhaseSpec>,
    /// Extra steps run after the last phase so in-flight deliveries settle
    /// before the per-phase ratios are measured. Default: `2 × nodes + 200`
    /// (deep chains deliver one hop per step).
    pub drain: Option<u64>,
}

impl ScenarioSpec {
    /// Parses a spec from JSON text.
    pub fn from_json_str(s: &str) -> Result<ScenarioSpec, SpecError> {
        serde_json::from_str(s).map_err(|e| SpecError(e.to_string()))
    }

    /// Reads and parses a spec file; errors carry the path.
    pub fn load(path: impl AsRef<std::path::Path>) -> Result<ScenarioSpec, SpecError> {
        let path = path.as_ref();
        let text = std::fs::read_to_string(path)
            .map_err(|e| SpecError(format!("{}: {e}", path.display())))?;
        ScenarioSpec::from_json_str(&text)
            .map_err(|e| SpecError(format!("{}: {e}", path.display())))
    }

    /// Re-renders the spec as pretty JSON (the golden-file format).
    pub fn to_json_string(&self) -> String {
        serde_json::to_string_pretty(self).expect("spec serialization is infallible")
    }
}

/// Initial overlay topology and subscription load.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TopologySpec {
    /// Initial population.
    pub nodes: usize,
    /// Communication scheme: `"leader"` or `"epidemic"`.
    pub scheme: String,
    /// Tree traversal: `"root"` (default) or `"generic"`.
    pub traversal: Option<String>,
    /// Epidemic intra-group gossip fanout `k` (default: the config default).
    pub fanout: Option<usize>,
    /// Workload subscriptions issued per node during setup (default 1).
    pub subs_per_node: Option<usize>,
    /// Workload preset drawn from for subscriptions and events:
    /// `"multiplayer-game"` (default), `"stock-exchange"` or
    /// `"alert-monitoring"`.
    pub workload: Option<String>,
    /// Instead of a preset: a synthetic workload of this many uniform numeric
    /// attributes (`a0..aN`), one subscription range per attribute — grows
    /// the attribute-tree forest without inventing a preset.
    pub attributes: Option<usize>,
    /// Instead of workload draws: every setup subscription (and subscribe
    /// bursts) uses exactly this filter, e.g. `"load > 10"`. Events must then
    /// be published by the test driver, since workload events need not carry
    /// the filtered attribute.
    pub filter: Option<String>,
    /// Which predicate a multi-predicate subscription joins the overlay with:
    /// `"explicit"` (default — picked uniformly at random, the paper's
    /// "arbitrarily chosen") or `"first"` (deterministic first predicate).
    pub join_rule: Option<String>,
    /// Link-latency distribution (default: unit latency — every link takes
    /// exactly one step, the classic cycle model). Applies to every message
    /// of the whole run, setup included.
    pub latency: Option<LatencySpec>,
}

/// The link-latency distribution of a scenario, lowered onto
/// [`dps_sim::LatencyModel`]. Latencies are in steps; every `min` must be
/// ≥ 1 and every `max` within the engine's [`dps_sim::MAX_LATENCY`] cap.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum LatencySpec {
    /// Every link delivers after a latency uniform in `[min, max]` steps.
    Uniform {
        /// Minimum latency, inclusive.
        min: u64,
        /// Maximum latency, inclusive.
        max: u64,
    },
    /// A jitter mixture: with probability `slow_weight` the latency is
    /// uniform in `[slow_min, slow_max]`, otherwise uniform in
    /// `[fast_min, fast_max]`.
    Bimodal {
        /// Fast-mode minimum, inclusive.
        fast_min: u64,
        /// Fast-mode maximum, inclusive.
        fast_max: u64,
        /// Slow-mode minimum, inclusive.
        slow_min: u64,
        /// Slow-mode maximum, inclusive.
        slow_max: u64,
        /// Probability of the slow mode, in `[0, 1]`.
        slow_weight: f64,
    },
    /// Per-destination-class latency: node `i` belongs to class
    /// `i % classes.len()`, and every link **into** it is uniform in that
    /// class's range — e.g. `[{fast}, {fast}, {slow}]` makes every third
    /// node a slow-link straggler.
    Classes {
        /// The class ranges, assigned round-robin by node index.
        classes: Vec<ClassLatencySpec>,
    },
}

/// One latency class of a [`LatencySpec::Classes`] distribution.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClassLatencySpec {
    /// Minimum latency, inclusive.
    pub min: u64,
    /// Maximum latency, inclusive.
    pub max: u64,
}

/// One phase of the timeline: `steps` simulation steps with the declared
/// adversity and workload in force. Within a phase, each step applies churn
/// events first, then subscribe-burst subscriptions, then a publication (if
/// due), then advances the simulation by one step.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PhaseSpec {
    /// Phase name (unique within the scenario; labels the output row).
    pub name: String,
    /// Phase length in steps.
    pub steps: u64,
    /// Publish one workload event every this many steps (first at the phase's
    /// first step); omit for a publication-free phase.
    pub publish_every: Option<u64>,
    /// A burst of new subscriptions from random alive nodes.
    pub subscribe: Option<SubscribeSpec>,
    /// Node churn in force during this phase.
    pub churn: Option<ChurnSpec>,
    /// Partition windows within this phase. Windows are exclusive: they may
    /// not overlap in time (a composed double-cut is almost always a spec
    /// bug).
    pub partitions: Option<Vec<PartitionWindowSpec>>,
    /// Loss windows within this phase (same exclusivity rule).
    pub loss: Option<Vec<LossWindowSpec>>,
    /// Delivery floors asserted for publications issued in this phase.
    pub expect: Option<ExpectSpec>,
}

/// A mass-(re)subscription burst: `count` subscriptions from uniformly random
/// alive nodes, either all at the phase's first step or spread evenly over
/// the first `over` steps.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SubscribeSpec {
    /// Number of subscriptions to issue.
    pub count: u64,
    /// Spread the burst over this many steps (default: all at once).
    pub over: Option<u64>,
}

/// Churn knobs for one phase. `crash_every` and `crash_rate` are exclusive
/// spellings of the same schedule.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChurnSpec {
    /// Crash one uniformly random alive node every this many steps.
    pub crash_every: Option<u64>,
    /// Per-step crash probability (the paper's `p`), accumulated
    /// deterministically like [`dps_sim::ChurnPlan::rate`].
    pub crash_rate: Option<f64>,
    /// One new node joins (and subscribes) every this many steps.
    pub join_every: Option<u64>,
}

/// One scheduled partition inside a phase: the cut holds for phase-relative
/// steps `[from, until)` (defaults: the whole phase) and heals itself when
/// the window closes — repeated cut/heal cycles are just several windows.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PartitionWindowSpec {
    /// Window start, relative to the phase (default 0).
    pub from: Option<u64>,
    /// Window end, relative to the phase (default: the phase length).
    pub until: Option<u64>,
    /// What the cut severs.
    pub cut: CutSpec,
}

/// The shape of a partition cut.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum CutSpec {
    /// Split the id space: node indices `< boundary` form side `"low"`, the
    /// rest (including nodes that join during the window) side `"high"`.
    Split {
        /// First node index of the high side.
        boundary: usize,
    },
    /// An asymmetric split: only one direction of cross-boundary traffic is
    /// cut (`"low" → "high"` when `low_to_high`, the reverse otherwise).
    SplitOneWay {
        /// First node index of the high side.
        boundary: usize,
        /// Direction of the severed traffic.
        low_to_high: bool,
    },
}

/// One scheduled loss window inside a phase: every link drops deliveries with
/// probability `rate` during phase-relative steps `[from, until)`. With
/// `ramp_to`, the rate ramps linearly from `rate` to `ramp_to` across the
/// window (lowered into stepped sub-windows).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LossWindowSpec {
    /// Window start, relative to the phase (default 0).
    pub from: Option<u64>,
    /// Window end, relative to the phase (default: the phase length).
    pub until: Option<u64>,
    /// Drop probability (at the window start, if ramping).
    pub rate: f64,
    /// Drop probability reached at the window end.
    pub ramp_to: Option<f64>,
}

/// Delivery floors for one phase, checked after the post-run drain over the
/// publications issued in the phase.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExpectSpec {
    /// Floor on the raw delivered ratio (every alive matching subscriber
    /// counts, reachable or not).
    pub min_delivered: Option<f64>,
    /// Floor on the reachable-aware delivered ratio (subscribers on the far
    /// side of an absolute cut are excluded from the denominator — the fair
    /// measure while a partition holds).
    pub min_delivered_reachable: Option<f64>,
    /// Ceiling on the p99 publish→deliver latency (steps from publish to
    /// first notify) over this phase's publications. Requires the phase to
    /// publish (`publish_every`); a phase that declares the ceiling but
    /// delivers nothing fails rather than vacuously passing.
    pub max_p99: Option<f64>,
}
