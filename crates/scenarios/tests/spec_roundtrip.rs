//! Spec round-trip coverage: every library spec under `scenarios/` must
//! parse, re-serialize and re-parse to the same value, and the re-serialized
//! form of two representative specs is pinned byte-for-byte against golden
//! files (so the JSON surface — key names, variant tags, null handling —
//! cannot drift silently).
//!
//! To regenerate the goldens after an intentional format change:
//! `DPS_BLESS=1 cargo test -p dps-scenarios --test spec_roundtrip`.

use std::path::PathBuf;

use dps_scenarios::{compile, ScenarioSpec};

fn library_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../scenarios")
}

fn library_specs() -> Vec<(PathBuf, ScenarioSpec)> {
    // The main library plus the metro tier (scenarios/metro/, swept by
    // `scenarios scenarios/metro`), the latency tier
    // (scenarios/latency/, swept by the CI latency-matrix job) and the
    // regression reproducers (scenarios/regress/, run by the ignored
    // `regress` test). Metro specs are too big to *run* here, but they must
    // parse, compile and round-trip like any other.
    let mut paths: Vec<PathBuf> = [
        library_dir(),
        library_dir().join("metro"),
        library_dir().join("latency"),
        library_dir().join("regress"),
    ]
    .iter()
    .flat_map(|dir| {
        std::fs::read_dir(dir)
            .unwrap_or_else(|e| panic!("{} must exist: {e}", dir.display()))
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|x| x == "json"))
    })
    .collect();
    paths.sort();
    assert!(
        paths.len() >= 8,
        "the scenario library must ship at least 8 specs, found {}",
        paths.len()
    );
    paths
        .into_iter()
        .map(|p| {
            let spec = ScenarioSpec::load(&p)
                .unwrap_or_else(|e| panic!("{} must parse: {e}", p.display()));
            (p, spec)
        })
        .collect()
}

#[test]
fn every_library_spec_parses_compiles_and_round_trips() {
    for (path, spec) in library_specs() {
        let name = path.display();
        // The file stem is the scenario name (artifact naming relies on it).
        assert_eq!(
            path.file_stem().unwrap().to_str().unwrap(),
            spec.name,
            "{name}: file stem and spec name must agree"
        );
        compile(&spec).unwrap_or_else(|e| panic!("{name} must compile: {e}"));
        // Parse -> serialize -> parse must be the identity.
        let rendered = spec.to_json_string();
        let reparsed = ScenarioSpec::from_json_str(&rendered)
            .unwrap_or_else(|e| panic!("{name}: re-serialized spec must parse: {e}"));
        assert_eq!(spec, reparsed, "{name}: round trip changed the spec");
    }
}

#[test]
fn representative_specs_match_their_goldens() {
    let golden_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    for file in [
        "epidemic-partition-churn.json",
        "epidemic-loss-ramp-resubscribe.json",
        // Pins the LatencySpec JSON surface (variant tags, class objects,
        // the max_p99 expectation) against drift.
        "latency/slow-link-straggler.json",
    ] {
        let spec = ScenarioSpec::load(library_dir().join(file)).unwrap();
        let rendered = spec.to_json_string();
        let golden_path = golden_dir.join(file);
        if std::env::var("DPS_BLESS").is_ok() {
            std::fs::create_dir_all(golden_path.parent().unwrap()).unwrap();
            std::fs::write(&golden_path, &rendered).unwrap();
            continue;
        }
        let golden = std::fs::read_to_string(&golden_path)
            .unwrap_or_else(|e| panic!("{}: {e} (run with DPS_BLESS=1)", golden_path.display()));
        assert_eq!(
            rendered, golden,
            "{file}: re-serialization drifted from the golden file \
             (regenerate with DPS_BLESS=1 if intentional)"
        );
    }
}
