//! Regression pin for the fig 3(a) dependability shape at small scale.
//!
//! ROADMAP once recorded the epidemic rows *under-delivering* vs the leader
//! rows at p ≥ 0.1 (the paper expects the opposite: epidemic ≥ leader, with
//! k = 2 reaching ≥ 0.97 at p = 0.25). The root causes — one-shot subcritical
//! gossip, unmaintained epidemic contact hints, and the 1500-step traversal
//! timeout parking re-subscriptions — are fixed; this test pins the repaired
//! shape at the smoke-scale cell size (n = 60, the full quick-scale figure is
//! minutes of CPU) so the regression cannot silently return.

use dps::{CommKind, DpsConfig, JoinRule, TraversalKind};
use dps_experiments::figures::{fig3a_cell, fig3a_configs};
use dps_experiments::run_cells;

fn cfg(traversal: TraversalKind, comm: CommKind, fanout: usize) -> DpsConfig {
    let mut c = DpsConfig::named(traversal, comm).with_fanout(fanout);
    c.join_rule = JoinRule::Explicit;
    c
}

/// The paper's hardest cell: p = 0.25 (75 % of the population dies over the
/// run). Epidemic with k = 2 must hold a high floor and must not sit below
/// leader-based delivery.
#[test]
fn epidemic_k2_holds_the_p025_shape_at_small_scale() {
    let n = 60;
    let steps = 3 * n as u64;
    let pi = 5; // the p = 0.25 column's seed offset in the figure
    let leader = fig3a_cell(
        cfg(TraversalKind::Root, CommKind::Leader, 1),
        0.25,
        pi,
        n,
        steps,
    );
    let epi2 = fig3a_cell(
        cfg(TraversalKind::Root, CommKind::Epidemic, 2),
        0.25,
        pi,
        n,
        steps,
    );
    assert!(
        epi2.delivered_ratio >= 0.85,
        "epidemic k=2 lost its small-scale floor: {:.3}",
        epi2.delivered_ratio
    );
    assert!(
        epi2.delivered_ratio + 0.02 >= leader.delivered_ratio,
        "epidemic k=2 ({:.3}) fell back below leader ({:.3}) at p = 0.25 — the fig 3(a) \
         under-delivery bug is back",
        epi2.delivered_ratio,
        leader.delivered_ratio
    );
}

/// Fault-free sanity: both flavors essentially deliver everything at p = 0.
#[test]
fn fault_free_cells_deliver_nearly_everything() {
    let n = 60;
    let steps = 3 * n as u64;
    for c in [
        cfg(TraversalKind::Root, CommKind::Leader, 1),
        cfg(TraversalKind::Root, CommKind::Epidemic, 2),
    ] {
        let point = fig3a_cell(c, 0.0, 0, n, steps);
        assert!(
            point.delivered_ratio >= 0.97,
            "{} delivers only {:.3} with no faults at all",
            point.config,
            point.delivered_ratio
        );
    }
}

/// With no faults at all every cell must deliver every matching event: the
/// six figure configurations × 60 seeds at the smoke cell size. It fails
/// today: 188 of the 360 cells lose deliveries (leader root 22, leader
/// generic 50, epidemic root 11 + 12, epidemic generic 45 + 48), and it is
/// ignored until that is found and fixed; run it with
/// `cargo test --release -p dps-experiments --test fig3a_shape -- --ignored`.
#[test]
#[ignore = "188 of 360 fault-free cells still lose deliveries"]
fn fault_free_cells_deliver_everything() {
    let n = 60;
    let steps = 3 * n as u64;
    let cells: Vec<_> = fig3a_configs()
        .into_iter()
        .flat_map(|c| (0..60).map(move |pi| move || (pi, fig3a_cell(c, 0.0, pi, n, steps))))
        .collect();
    let total = cells.len();
    let short: Vec<String> = run_cells(cells)
        .into_iter()
        .filter(|(_, point)| point.delivered_ratio < 1.0)
        .map(|(pi, point)| format!("{} pi {pi}: {}", point.config, point.delivered_ratio))
        .collect();
    assert!(
        short.is_empty(),
        "{} of {total} fault-free cells deliver less than everything:\n{}",
        short.len(),
        short.join("\n")
    );
}
