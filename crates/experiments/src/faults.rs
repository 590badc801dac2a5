//! Fault-injection scenario runners: the dependability experiments the paper's
//! §5.2 gestures at but the cycle simulator could not express before the
//! link-fault model existed — network partitions (with the epidemic merge
//! process healing the overlay afterwards) and uniformly lossy links.
//!
//! Both runners follow the figure-runner conventions: every `(config, phase)` /
//! `(config, loss)` cell is an independent deterministic simulation fanned out
//! through [`crate::run_cells`], rows come back in cell order (so output is
//! byte-identical whatever `DPS_THREADS` is), and the bench target persists
//! them as JSON under `target/experiments/`.

use dps::{ChurnPlan, CommKind, DpsConfig, DropReason, JoinRule, TraversalKind};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;

use crate::figures::{build_overlay, publish_under_churn};
use crate::Scale;

/// The configurations both fault runners compare: the leader flavor against
/// the epidemic flavors whose redundancy the fault model is meant to stress.
fn fault_configs() -> Vec<DpsConfig> {
    let mut v = vec![
        DpsConfig::named(TraversalKind::Root, CommKind::Leader),
        DpsConfig::named(TraversalKind::Root, CommKind::Epidemic),
        DpsConfig::named(TraversalKind::Root, CommKind::Epidemic).with_fanout(2),
    ];
    for c in &mut v {
        c.join_rule = JoinRule::Explicit;
    }
    v
}

/// One measured phase of the partition-merge scenario.
#[derive(Debug, Clone, Serialize)]
pub struct PartitionPoint {
    /// Configuration label (figure-legend style).
    pub config: String,
    /// `"partitioned"` (cut in force) or `"healed"` (after `heal()`).
    pub phase: String,
    /// Raw delivered ratio over the phase's publications: every alive matching
    /// subscriber counts, including those on the far side of the cut.
    pub delivered_ratio: f64,
    /// Delivered ratio over the *reachable* pairs only (far-side subscribers
    /// excluded from the denominator while the partition holds).
    pub delivered_ratio_reachable: f64,
    /// Cross-side messages dropped by the engine so far.
    pub dropped_partitioned: u64,
}

/// One cell: build the overlay, split it in half, publish through the cut,
/// heal, publish again, and account both phases.
fn partition_cell(cfg: DpsConfig, ci: usize, n: usize, phase_steps: u64) -> Vec<PartitionPoint> {
    let label = cfg.label();
    let mut net = build_overlay(cfg, n, 2, 4200 + ci as u64);
    let mut w_rng = StdRng::seed_from_u64(31 + ci as u64);
    let calm = ChurnPlan::none();
    let start = net.sim().now();
    net.partition_split(n / 2);
    publish_under_churn(&mut net, &calm, phase_steps, &mut w_rng);
    let healed_at = net.sim().now();
    let dropped_during = net.metrics().dropped_for(DropReason::Partitioned);
    net.heal();
    publish_under_churn(&mut net, &calm, phase_steps, &mut w_rng);
    // Drain: deep chains deliver one hop per step.
    net.run(2 * n as u64 + 200);
    vec![
        PartitionPoint {
            config: label.clone(),
            phase: "partitioned".into(),
            delivered_ratio: net.delivered_ratio_between(start, healed_at),
            delivered_ratio_reachable: net.delivered_ratio_reachable_between(start, healed_at),
            dropped_partitioned: dropped_during,
        },
        PartitionPoint {
            config: label,
            phase: "healed".into(),
            delivered_ratio: net.delivered_ratio_between(healed_at, u64::MAX),
            delivered_ratio_reachable: net.delivered_ratio_reachable_between(healed_at, u64::MAX),
            dropped_partitioned: net.metrics().dropped_for(DropReason::Partitioned),
        },
    ]
}

/// Partition-merge scenario: the overlay is split into two halves for a while
/// (cross-side messages drop at delivery), then healed; the epidemic merge
/// process (view-exchange pushes, owner merge walks) must reconnect the halves
/// and delivery must return to the fault-free level.
pub fn partition_merge(scale: Scale) -> Vec<PartitionPoint> {
    crate::banner("Partition + merge — delivery across a healed split", scale);
    let n = scale.pick(40usize, 150, 1000);
    let phase_steps = scale.pick(120u64, 300, 1000);
    let cells: Vec<_> = fault_configs()
        .into_iter()
        .enumerate()
        .map(|(ci, cfg)| move || partition_cell(cfg, ci, n, phase_steps))
        .collect();
    let mut rows = Vec::new();
    println!(
        "{:<26} {:>12} {:>10} {:>10} {:>10}",
        "config", "phase", "raw", "reachable", "drops"
    );
    for pts in crate::run_cells(cells) {
        for p in &pts {
            println!(
                "{:<26} {:>12} {:>10.3} {:>10.3} {:>10}",
                p.config,
                p.phase,
                p.delivered_ratio,
                p.delivered_ratio_reachable,
                p.dropped_partitioned
            );
        }
        rows.extend(pts);
    }
    println!(
        "expected shape: while partitioned, raw ≈ 0.5 (far side unreachable) but \
         reachable ≈ 1; healed back to ≈ 1 on both measures"
    );
    rows
}

/// One measured point of the loss sweep.
#[derive(Debug, Clone, Serialize)]
pub struct LossPoint {
    /// Configuration label.
    pub config: String,
    /// Per-link delivery drop probability.
    pub loss: f64,
    /// Delivered ratio over the lossy window's publications.
    pub delivered_ratio: f64,
    /// Messages the engine dropped to loss sampling.
    pub dropped_loss: u64,
}

fn loss_cell(cfg: DpsConfig, ci: usize, loss: f64, n: usize, steps: u64) -> LossPoint {
    let label = cfg.label();
    let mut net = build_overlay(cfg, n, 2, 8600 + ci as u64);
    let mut w_rng = StdRng::seed_from_u64(53 + ci as u64);
    let start = net.sim().now();
    net.set_loss(loss);
    publish_under_churn(&mut net, &ChurnPlan::none(), steps, &mut w_rng);
    // The drain runs with the loss still in force: retries and gossip
    // redundancy, not luck, have to close the gap.
    net.run(2 * n as u64 + 200);
    LossPoint {
        config: label,
        loss,
        delivered_ratio: net.delivered_ratio_between(start, u64::MAX),
        dropped_loss: net.metrics().dropped_for(DropReason::Loss),
    }
}

/// Delivery-under-loss sweep: every link drops each delivery with probability
/// `loss`; the sweep compares how the leader and epidemic flavors degrade.
pub fn loss_sweep(scale: Scale) -> Vec<LossPoint> {
    crate::banner("Lossy links — delivered ratio vs uniform loss", scale);
    let n = scale.pick(40usize, 150, 1000);
    let steps = scale.pick(120u64, 300, 2000);
    let losses = [0.0, 0.05, 0.10, 0.20, 0.30];
    let mut cells = Vec::new();
    for (ci, cfg) in fault_configs().into_iter().enumerate() {
        for loss in losses {
            cells.push(move || loss_cell(cfg, ci, loss, n, steps));
        }
    }
    let rows = crate::run_cells(cells);
    println!(
        "{:<26} {}",
        "config",
        losses
            .iter()
            .map(|l| format!("q={l:<5}"))
            .collect::<Vec<_>>()
            .join(" ")
    );
    for config_rows in rows.chunks(losses.len()) {
        let mut line = format!("{:<26}", config_rows[0].config);
        for r in config_rows {
            line.push_str(&format!(" {:<7.3}", r.delivered_ratio));
        }
        println!("{line}");
    }
    println!(
        "expected shape: the epidemic flavors degrade gracefully (redundant gossip \
         absorbs loss); leader single-path delivery falls off faster"
    );
    rows
}
