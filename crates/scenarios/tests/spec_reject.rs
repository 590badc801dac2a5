//! Malformed-spec rejection: the compiler and the deserializer must fail
//! loudly with messages naming the problem — never silently run something
//! other than what the file says.

use dps_scenarios::{compile, ScenarioSpec, SpecError};

/// A minimal valid spec the cases below perturb.
fn valid() -> String {
    r#"{
        "name": "probe",
        "seed": 1,
        "topology": {"nodes": 10, "scheme": "epidemic"},
        "phases": [{"name": "p", "steps": 50}]
    }"#
    .to_string()
}

fn compile_err(json: &str) -> SpecError {
    let spec = ScenarioSpec::from_json_str(json).expect("fixture must parse as JSON");
    compile(&spec).expect_err("fixture must be rejected")
}

#[test]
fn valid_fixture_compiles() {
    let spec = ScenarioSpec::from_json_str(&valid()).unwrap();
    compile(&spec).unwrap();
}

#[test]
fn rejects_unknown_scheme() {
    let e = compile_err(&valid().replace("\"epidemic\"", "\"epidemci\""));
    assert!(
        e.0.contains("unknown scheme") && e.0.contains("epidemci"),
        "{e}"
    );
}

#[test]
fn rejects_unknown_traversal_and_workload() {
    let e = compile_err(
        r#"{"name": "probe", "seed": 1,
            "topology": {"nodes": 10, "scheme": "leader", "traversal": "rotated"},
            "phases": [{"name": "p", "steps": 50}]}"#,
    );
    assert!(e.0.contains("unknown traversal"), "{e}");
    let e = compile_err(
        r#"{"name": "probe", "seed": 1,
            "topology": {"nodes": 10, "scheme": "leader", "workload": "stonks"},
            "phases": [{"name": "p", "steps": 50}]}"#,
    );
    assert!(
        e.0.contains("unknown workload") && e.0.contains("stonks"),
        "{e}"
    );
}

#[test]
fn rejects_overlapping_exclusive_partition_windows() {
    let e = compile_err(
        r#"{"name": "probe", "seed": 1,
            "topology": {"nodes": 10, "scheme": "epidemic"},
            "phases": [{"name": "p", "steps": 100, "partitions": [
                {"from": 0, "until": 60, "cut": {"Split": {"boundary": 5}}},
                {"from": 40, "until": 80, "cut": {"Split": {"boundary": 3}}}
            ]}]}"#,
    );
    assert!(e.0.contains("overlapping partition windows"), "{e}");
    // Adjacent windows are fine (heal-then-cut cycles).
    let spec = ScenarioSpec::from_json_str(
        r#"{"name": "probe", "seed": 1,
            "topology": {"nodes": 10, "scheme": "epidemic"},
            "phases": [{"name": "p", "steps": 100, "partitions": [
                {"from": 0, "until": 40, "cut": {"Split": {"boundary": 5}}},
                {"from": 40, "until": 80, "cut": {"Split": {"boundary": 3}}}
            ]}]}"#,
    )
    .unwrap();
    compile(&spec).unwrap();
}

#[test]
fn rejects_overlapping_exclusive_loss_windows() {
    let e = compile_err(
        r#"{"name": "probe", "seed": 1,
            "topology": {"nodes": 10, "scheme": "epidemic"},
            "phases": [{"name": "p", "steps": 100, "loss": [
                {"from": 0, "until": 60, "rate": 0.1},
                {"from": 30, "until": 90, "rate": 0.2}
            ]}]}"#,
    );
    assert!(e.0.contains("overlapping loss windows"), "{e}");
}

#[test]
fn rejects_window_and_rate_abuse() {
    let e = compile_err(
        r#"{"name": "probe", "seed": 1,
            "topology": {"nodes": 10, "scheme": "epidemic"},
            "phases": [{"name": "p", "steps": 50, "loss": [{"rate": 1.5}]}]}"#,
    );
    assert!(e.0.contains("within [0, 1]"), "{e}");
    let e = compile_err(
        r#"{"name": "probe", "seed": 1,
            "topology": {"nodes": 10, "scheme": "epidemic"},
            "phases": [{"name": "p", "steps": 50,
                        "partitions": [{"from": 20, "until": 10,
                                        "cut": {"Split": {"boundary": 5}}}]}]}"#,
    );
    assert!(e.0.contains("empty window"), "{e}");
    let e = compile_err(
        r#"{"name": "probe", "seed": 1,
            "topology": {"nodes": 10, "scheme": "epidemic"},
            "phases": [{"name": "p", "steps": 50,
                        "partitions": [{"until": 60,
                                        "cut": {"Split": {"boundary": 5}}}]}]}"#,
    );
    assert!(e.0.contains("exceeds the phase length"), "{e}");
    let e = compile_err(
        r#"{"name": "probe", "seed": 1,
            "topology": {"nodes": 10, "scheme": "epidemic"},
            "phases": [{"name": "p", "steps": 50,
                        "partitions": [{"cut": {"Split": {"boundary": 10}}}]}]}"#,
    );
    assert!(e.0.contains("boundary"), "{e}");
}

#[test]
fn rejects_exclusive_churn_spellings() {
    let e = compile_err(
        r#"{"name": "probe", "seed": 1,
            "topology": {"nodes": 10, "scheme": "epidemic"},
            "phases": [{"name": "p", "steps": 50,
                        "churn": {"crash_every": 10, "crash_rate": 0.1}}]}"#,
    );
    assert!(e.0.contains("exclusive"), "{e}");
    let e = compile_err(
        r#"{"name": "probe", "seed": 1,
            "topology": {"nodes": 10, "scheme": "epidemic"},
            "phases": [{"name": "p", "steps": 50, "churn": {}}]}"#,
    );
    assert!(e.0.contains("neither crashes nor joins"), "{e}");
}

#[test]
fn rejects_structural_mistakes() {
    let e = compile_err(
        r#"{"name": "probe", "seed": 1,
            "topology": {"nodes": 10, "scheme": "epidemic"},
            "phases": []}"#,
    );
    assert!(e.0.contains("at least one phase"), "{e}");
    let e = compile_err(
        r#"{"name": "probe", "seed": 1,
            "topology": {"nodes": 10, "scheme": "epidemic"},
            "phases": [{"name": "p", "steps": 50}, {"name": "p", "steps": 10}]}"#,
    );
    assert!(e.0.contains("duplicate phase name"), "{e}");
    let e = compile_err(
        r#"{"name": "probe", "seed": 1,
            "topology": {"nodes": 10, "scheme": "leader", "fanout": 2},
            "phases": [{"name": "p", "steps": 50}]}"#,
    );
    assert!(e.0.contains("fanout"), "{e}");
    let e = compile_err(
        r#"{"name": "probe", "seed": 1,
            "topology": {"nodes": 10, "scheme": "epidemic"},
            "phases": [{"name": "p", "steps": 50,
                        "expect": {"min_delivered": 1.2}}]}"#,
    );
    assert!(e.0.contains("floors"), "{e}");
}

#[test]
fn rejects_bad_latency_models() {
    // Zero-step links are not a thing: the engine needs latency >= 1.
    let e = compile_err(
        r#"{"name": "probe", "seed": 1,
            "topology": {"nodes": 10, "scheme": "epidemic",
                         "latency": {"Uniform": {"min": 0, "max": 3}}},
            "phases": [{"name": "p", "steps": 50}]}"#,
    );
    assert!(
        e.0.contains("topology.latency") && e.0.contains(">= 1"),
        "{e}"
    );
    // Inverted ranges name the offending bounds.
    let e = compile_err(
        r#"{"name": "probe", "seed": 1,
            "topology": {"nodes": 10, "scheme": "epidemic",
                         "latency": {"Uniform": {"min": 7, "max": 2}}},
            "phases": [{"name": "p", "steps": 50}]}"#,
    );
    assert!(e.0.contains("topology.latency"), "{e}");
    // Weights are probabilities.
    let e = compile_err(
        r#"{"name": "probe", "seed": 1,
            "topology": {"nodes": 10, "scheme": "epidemic",
                         "latency": {"Bimodal": {"fast_min": 1, "fast_max": 2,
                                                 "slow_min": 4, "slow_max": 8,
                                                 "slow_weight": 1.5}}},
            "phases": [{"name": "p", "steps": 50}]}"#,
    );
    assert!(e.0.contains("topology.latency"), "{e}");
    // An empty class list would make every destination unclassifiable.
    let e = compile_err(
        r#"{"name": "probe", "seed": 1,
            "topology": {"nodes": 10, "scheme": "epidemic",
                         "latency": {"Classes": {"classes": []}}},
            "phases": [{"name": "p", "steps": 50}]}"#,
    );
    assert!(e.0.contains("topology.latency"), "{e}");
}

#[test]
fn rejects_latency_ceiling_without_publications() {
    // A p99 ceiling over a phase that never publishes would hold vacuously.
    let e = compile_err(
        r#"{"name": "probe", "seed": 1,
            "topology": {"nodes": 10, "scheme": "epidemic"},
            "phases": [{"name": "p", "steps": 50,
                        "expect": {"max_p99": 20.0}}]}"#,
    );
    assert!(
        e.0.contains("max_p99") && e.0.contains("publish_every"),
        "{e}"
    );
    // Sub-step ceilings are nonsense (latency is at least one step).
    let e = compile_err(
        r#"{"name": "probe", "seed": 1,
            "topology": {"nodes": 10, "scheme": "epidemic"},
            "phases": [{"name": "p", "steps": 50, "publish_every": 10,
                        "expect": {"max_p99": 0.5}}]}"#,
    );
    assert!(e.0.contains("max_p99"), "{e}");
}

#[test]
fn rejects_unknown_fields_and_bad_json() {
    // A typo'd key must not silently deserialize to defaults.
    let e = ScenarioSpec::from_json_str(&valid().replace("\"seed\"", "\"sede\"")).unwrap_err();
    assert!(e.0.contains("unknown field") && e.0.contains("sede"), "{e}");
    // Unknown enum variant tags name themselves.
    let e = ScenarioSpec::from_json_str(
        r#"{"name": "probe", "seed": 1,
            "topology": {"nodes": 10, "scheme": "epidemic"},
            "phases": [{"name": "p", "steps": 50,
                        "partitions": [{"cut": {"Spilt": {"boundary": 5}}}]}]}"#,
    )
    .unwrap_err();
    assert!(
        e.0.contains("unknown variant") && e.0.contains("Spilt"),
        "{e}"
    );
    // Named cuts are gone from the spec language: no spec used them.
    let e = ScenarioSpec::from_json_str(
        r#"{"name": "probe", "seed": 1,
            "topology": {"nodes": 10, "scheme": "epidemic"},
            "phases": [{"name": "p", "steps": 50, "partitions": [{"cut": {"Named":
                {"sides": [{"name": "a", "nodes": [0]}, {"name": "b", "nodes": [1]}]}}}]}]}"#,
    )
    .unwrap_err();
    assert!(
        e.0.contains("unknown variant") && e.0.contains("Named"),
        "{e}"
    );
    // Syntax errors carry positions.
    let e = ScenarioSpec::from_json_str("{\n  \"name\": \"x\",,\n}").unwrap_err();
    assert!(e.0.contains("line 2"), "{e}");
    // Shape errors carry the field path.
    let e = ScenarioSpec::from_json_str(&valid().replace("\"seed\": 1", "\"seed\": \"one\""))
        .unwrap_err();
    assert!(e.0.contains("seed"), "{e}");
    // A missing *required* float field is a deserialization error, not a
    // silent NaN (missing keys read as null; floats reject null).
    let e = ScenarioSpec::from_json_str(
        r#"{"name": "probe", "seed": 1,
            "topology": {"nodes": 10, "scheme": "epidemic"},
            "phases": [{"name": "p", "steps": 50,
                        "loss": [{"from": 0, "until": 50}]}]}"#,
    )
    .unwrap_err();
    assert!(
        e.0.contains("rate") && e.0.contains("null"),
        "missing required rate must fail at parse time: {e}"
    );
}
