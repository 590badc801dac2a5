//! The regression library: each spec under `scenarios/regress/` reproduces a
//! known protocol failure and declares the floor the fixed protocol must
//! meet. They fail today, so the test is ignored in the default run:
//!
//! ```sh
//! cargo test --release -p dps-scenarios --test regress -- --ignored
//! ```
//!
//! A failing spec prints each phase's miss census. The `scenarios` bin reads
//! one directory and skips subdirectories, so the scenario matrix never runs
//! these.

use std::path::PathBuf;

use dps_scenarios::{run_scenario, ScenarioSpec};

#[test]
#[ignore = "burst-256 misses deliveries until the forest converges (ROADMAP A)"]
fn every_regress_spec_meets_its_floors() {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../scenarios/regress");
    let mut paths: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("{} must exist: {e}", dir.display()))
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    paths.sort();
    assert!(!paths.is_empty(), "no specs under {}", dir.display());
    let mut failed = Vec::new();
    for path in paths {
        let spec = ScenarioSpec::load(&path).unwrap();
        let report = run_scenario(&spec).unwrap_or_else(|e| panic!("{e}"));
        if report.passed {
            continue;
        }
        for row in &report.rows {
            let m = &row.misses;
            eprintln!(
                "{} / {}: {} published, raw {:.3}, misses: died {} unreachable {} \
                 unplaced {} lost {}",
                row.scenario,
                row.phase,
                row.published,
                row.delivered_ratio,
                m.died,
                m.unreachable,
                m.unplaced,
                m.lost
            );
        }
        failed.push(report.scenario);
    }
    assert!(failed.is_empty(), "below their floors: {failed:?}");
}
