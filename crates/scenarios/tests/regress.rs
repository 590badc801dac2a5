//! The regression library: each spec under `scenarios/regress/` reproduces a
//! known protocol failure and declares the floor the fixed protocol must
//! meet:
//!
//! ```sh
//! cargo test --release -p dps-scenarios --test regress
//! ```
//!
//! A failing spec prints each phase's miss census. The `scenarios` bin runs
//! the directory too (CI's scenario matrix, at one and two workers).

use std::collections::BTreeMap;
use std::path::PathBuf;

use dps::DpsMsg;
use dps_scenarios::{run_scenario, ScenarioRun, ScenarioSpec};
use dps_sim::Message;

fn regress_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../scenarios/regress")
}

#[test]
fn every_regress_spec_meets_its_floors() {
    let dir = regress_dir();
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

/// Receipts of the message kind named `kind` so far.
fn receipts(run: &ScenarioRun, kind: &str) -> u64 {
    let i = <DpsMsg as Message>::KINDS.iter().position(|k| *k == kind);
    let counts = run.network().metrics();
    let got = i.and_then(|i| counts.received_by_kind().get(i).copied());
    got.unwrap_or(0)
}

/// `burst-256`'s 256 one-step subscriptions first create about two hundred
/// trees; their merge leaves same-label groups side by side (ROADMAP A).
/// Every meeting of two leaders ends in the smaller id's group: after the
/// burst no label has two leaders, and once the publications are over the
/// forest goes quiet — no leadership announcement, and at most the odd
/// reattachment, over a thousand steps.
#[test]
fn burst_256_leaves_one_leader_per_label_and_then_goes_quiet() {
    let spec = ScenarioSpec::load(regress_dir().join("burst-256.json")).unwrap();
    let mut run = ScenarioRun::new(&spec).unwrap();
    assert_eq!(run.run_phase(), Some("burst"));
    let mut leaders: BTreeMap<String, usize> = BTreeMap::new();
    for g in run.network().distributed_groups() {
        *leaders.entry(g.label.to_string()).or_default() += 1;
    }
    leaders.retain(|_, n| *n > 1);
    assert!(
        leaders.is_empty(),
        "labels led twice after the burst: {leaders:?}"
    );

    assert_eq!(run.run_phase(), Some("publish"));
    let before = (receipts(&run, "GroupInfo"), receipts(&run, "Reattach"));
    run.network_mut().run(1000);
    let group_infos = receipts(&run, "GroupInfo") - before.0;
    let reattaches = receipts(&run, "Reattach") - before.1;
    assert_eq!(group_infos, 0, "GroupInfo receipts in the quiet tail");
    assert!(
        reattaches <= 100,
        "{reattaches} Reattach receipts in the quiet tail"
    );
}
