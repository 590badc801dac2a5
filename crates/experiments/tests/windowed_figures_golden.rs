//! Golden rows for the windowed figures. Figures 3(c)–3(g) sample per-node
//! traffic over 100-step windows; each runner's pretty-JSON rows at
//! `Scale::Smoke` (what `target/experiments/<name>.json` holds after the
//! bench target) are compared line by line with `tests/golden/<name>.json`.
//!
//! A refactor must leave the files untouched. A change that moves the rows
//! on purpose re-blesses them and says why:
//! `DPS_BLESS=1 cargo test -p dps-experiments --test windowed_figures_golden`.

use std::path::PathBuf;

use dps_experiments::{figures, Scale};
use serde::Serialize;

/// Compares `rows` with `tests/golden/<name>.json`, or, under `DPS_BLESS=1`,
/// writes them there.
fn check<T: Serialize>(name: &str, rows: &[T]) {
    let got = serde_json::to_string_pretty(rows).unwrap();
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(format!("tests/golden/{name}.json"));
    if std::env::var("DPS_BLESS").is_ok() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, got).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("{}: {e} (run with DPS_BLESS=1)", path.display()));
    for (i, (got, want)) in got.lines().zip(want.lines()).enumerate() {
        assert_eq!(
            got,
            want,
            "line {} of {} moved (re-bless with DPS_BLESS=1 only if intended)",
            i + 1,
            path.display()
        );
    }
    assert_eq!(
        got.lines().count(),
        want.lines().count(),
        "{} has a different number of lines",
        path.display()
    );
}

#[test]
fn fig3cd_smoke_rows_match_the_golden() {
    check("fig3cd", &figures::fig3cd(Scale::Smoke));
}

#[test]
fn fig3ef_smoke_rows_match_the_golden() {
    check("fig3ef", &figures::fig3ef(Scale::Smoke));
}

#[test]
fn fig3g_smoke_rows_match_the_golden() {
    check("fig3g", &figures::fig3g(Scale::Smoke));
}
