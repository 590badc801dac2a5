//! **dps-scenarios** — the declarative scenario layer of the DPS
//! reproduction.
//!
//! The paper's claims are about behavior under *composed* adversity — churn,
//! partitions and loss striking mid-run while subscriptions and publications
//! flow. This crate turns each such storyline from ~100 lines of hand-coded
//! driver Rust into a ~20-line JSON spec file:
//!
//! * [`spec`] — the [`ScenarioSpec`] data model a `scenarios/*.json` file
//!   deserializes into: topology, a phased timeline of churn windows,
//!   partition and loss windows, workload bursts, and per-phase delivery
//!   floors;
//! * [`mod@compile`] — validation (loud errors on unknown schemes, overlapping
//!   exclusive windows, out-of-range rates) and lowering onto the existing
//!   [`dps_sim::ChurnPlan`] / [`dps_sim::FaultPlan`] / [`dps::DpsNetwork`]
//!   APIs;
//! * [`engine`] — the deterministic executor: [`run_scenario`] builds the
//!   overlay, installs the lowered fault schedule and advances phase by
//!   phase, emitting one measured [`PhaseRow`] per phase; [`ScenarioRun`]
//!   exposes the phase boundaries to tests that assert protocol internals
//!   mid-scenario;
//! * [`mod@env`] — strict `DPS_THREADS` parsing (a typo aborts, it does not
//!   silently fall back to the default).
//!
//! Runs are deterministic: a spec plus its seed fully determines every row,
//! byte for byte. The library of named specs lives under
//! `scenarios/` at the repository root; the `scenarios` bin in
//! `dps-experiments` sweeps it and persists per-scenario JSON rows.
//!
//! ```
//! use dps_scenarios::{run_scenario, ScenarioSpec};
//!
//! let spec = ScenarioSpec::from_json_str(
//!     r#"{
//!         "name": "doc-smoke",
//!         "seed": 7,
//!         "topology": {"nodes": 12, "scheme": "epidemic", "fanout": 2},
//!         "phases": [
//!             {"name": "calm", "steps": 40, "publish_every": 10,
//!              "expect": {"min_delivered": 0.9}}
//!         ]
//!     }"#,
//! )
//! .unwrap();
//! let report = run_scenario(&spec).unwrap();
//! assert!(report.passed);
//! assert_eq!(report.rows.len(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compile;
pub mod engine;
pub mod env;
pub mod spec;

pub use compile::{compile, CompiledPhase, CompiledScenario, SpecError};
pub use engine::{build_overlay, run_scenario, PhaseRow, ScenarioReport, ScenarioRun};
pub use spec::{
    ChurnSpec, ClassLatencySpec, CutSpec, ExpectSpec, LatencySpec, LossWindowSpec, OneWaySpec,
    PartitionWindowSpec, PhaseSpec, ScenarioSpec, SideSpec, SubscribeSpec, TopologySpec,
};
