//! Scenario-matrix runner: sweeps every declarative spec in a directory
//! (its argument, e.g. `scenarios/metro` for the six-figure-node library;
//! default: `scenarios/` at the repository root), executes each through
//! `dps_scenarios::run_scenario`, prints the per-phase rows and persists
//! them as JSON under `target/experiments/scenario_<name>.json`.
//!
//! Independent scenarios fan out across `DPS_THREADS` workers. Rows are
//! byte-identical whatever that knob is — the CI `scenario-matrix` job `cmp`s
//! the output at one and two workers.
//!
//! After the table the runner prints a throughput summary (wall time and
//! steps/sec per scenario, process peak RSS) to stdout only — never into the
//! row JSON, which must stay byte-comparable.
//!
//! Exits non-zero if any spec fails to parse, fails to compile, or misses a
//! declared delivery floor.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use dps_scenarios::{run_scenario, ScenarioReport, ScenarioSpec, SpecError};

/// The spec directory: the CLI argument if given, else `scenarios/`
/// resolved against the working directory, else against the workspace root
/// (so the bin also works when invoked from a crate directory).
fn spec_dir() -> PathBuf {
    if let Some(arg) = std::env::args().nth(1) {
        return PathBuf::from(arg);
    }
    let cwd = PathBuf::from("scenarios");
    if cwd.is_dir() {
        return cwd;
    }
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../scenarios")
}

fn main() -> ExitCode {
    let dir = spec_dir();
    let mut paths: Vec<PathBuf> = match std::fs::read_dir(&dir) {
        Ok(entries) => entries
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|x| x == "json"))
            .collect(),
        Err(e) => {
            eprintln!("cannot read spec directory {}: {e}", dir.display());
            return ExitCode::FAILURE;
        }
    };
    paths.sort();
    if paths.is_empty() {
        eprintln!("no *.json specs under {}", dir.display());
        return ExitCode::FAILURE;
    }

    // Parse everything up front: a malformed spec fails the whole sweep
    // before any simulation time is spent.
    let mut specs = Vec::new();
    let mut failed = false;
    for path in &paths {
        match ScenarioSpec::load(path) {
            Ok(spec) => specs.push(spec),
            Err(e) => {
                eprintln!("SPEC ERROR: {e}");
                failed = true;
            }
        }
    }
    if failed {
        return ExitCode::FAILURE;
    }

    println!(
        "=== scenario matrix: {} specs from {} [DPS_THREADS={}] ===",
        specs.len(),
        dir.display(),
        dps_scenarios::env::threads(),
    );
    let cells: Vec<_> = specs
        .into_iter()
        .map(|spec| {
            move || {
                let t0 = Instant::now();
                let result = run_scenario(&spec);
                (result, t0.elapsed())
            }
        })
        .collect();
    let results: Vec<(Result<ScenarioReport, SpecError>, Duration)> =
        dps_experiments::run_cells(cells);

    println!(
        "{:<34} {:<16} {:>6} {:>8} {:>8} {:>10} {:>6} {:>6} {:>6} {:>6}  \
         misses died/unreach/unplaced/lost",
        "scenario", "phase", "pubs", "raw", "reach", "drops c/l", "p50", "p99", "p999", "pass"
    );
    let mut perf: Vec<(String, u64, Duration)> = Vec::new();
    for (result, wall) in results {
        let report = match result {
            Ok(r) => r,
            Err(e) => {
                eprintln!("SPEC ERROR: {e}");
                failed = true;
                continue;
            }
        };
        perf.push((report.scenario.clone(), report.total_steps, wall));
        for row in &report.rows {
            // Publish→deliver percentiles sit next to the delivery ratios;
            // "-" marks a phase that delivered nothing (no samples).
            let pct = |p: Option<f64>| match p {
                Some(v) => format!("{v:.0}"),
                None => "-".to_owned(),
            };
            let m = &row.misses;
            println!(
                "{:<34} {:<16} {:>6} {:>8.3} {:>8.3} {:>6}/{:<3} {:>6} {:>6} {:>6} {:>6}  {}/{}/{}/{}",
                row.scenario,
                row.phase,
                row.published,
                row.delivered_ratio,
                row.delivered_ratio_reachable,
                row.dropped_partitioned,
                row.dropped_loss,
                pct(row.latency_p50),
                pct(row.latency_p99),
                pct(row.latency_p999),
                if row.pass { "ok" } else { "MISS" },
                m.died,
                m.unreachable,
                m.unplaced,
                m.lost
            );
        }
        dps_experiments::output::write_json(&format!("scenario_{}", report.scenario), &report.rows);
        if !report.passed {
            eprintln!(
                "FAILED: scenario {} missed a delivery floor",
                report.scenario
            );
            failed = true;
        }
    }
    // Throughput summary — stdout only, never in the row JSON (the CI
    // determinism jobs `cmp` that byte-for-byte). Wall times vary run to
    // run; steps and RSS are what the metro tier records in BENCH_micro.
    println!();
    println!("--- throughput (diagnostics; not part of the row JSON) ---");
    for (name, steps, wall) in &perf {
        let secs = wall.as_secs_f64();
        let rate = if secs > 0.0 {
            *steps as f64 / secs
        } else {
            0.0
        };
        println!("{name:<34} {steps:>8} steps  {secs:>8.2}s  {rate:>9.0} steps/sec");
    }
    if let Some(rss) = dps_experiments::peak_rss_bytes() {
        println!("peak RSS: {:.1} MiB", rss as f64 / (1024.0 * 1024.0));
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
