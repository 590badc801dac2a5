//! Fault plans: link-level failure schedules — network partitions and lossy
//! links — the companion of [`ChurnPlan`](crate::ChurnPlan) for the fault
//! classes that kill *messages* instead of *nodes*.
//!
//! A [`FaultPlan`] is consulted by the engine once per message at delivery
//! time ([`Sim::step`](crate::Sim::step)):
//!
//! * **Partitions** split the id space into named *sides* for a step
//!   interval; a message whose endpoints sit on different sides is dropped.
//!   Nodes assigned to no side are unaffected (they can talk across the cut
//!   — useful for modeling a partial partition). A window may be
//!   **asymmetric** ([`CutDir::OneWay`]): only one cross-side direction is
//!   cut, the reverse keeps delivering — a half-broken link.
//! * **Loss rules** attach a drop probability to every link: a whole-run
//!   default and scheduled windows. A window in force beats the default;
//!   sampling draws from the destination node's stream, so runs stay a pure
//!   function of the seed.
//!
//! Dropped messages are accounted per [`DropReason`](crate::DropReason) in
//! [`Metrics`](crate::Metrics), making faults first-class, observable events
//! rather than silent message loss.

use serde::{Deserialize, Serialize};

use crate::process::{NodeId, Step};

/// Sentinel for "not assigned to any partition side".
const NO_SIDE: u8 = u8::MAX;

/// How a partition window assigns nodes to sides.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
enum SideAssign {
    /// Nodes with index `< boundary` are side 0, all others (including nodes
    /// that join later) side 1.
    Split {
        /// First node index of the high side.
        boundary: usize,
    },
    /// Explicit per-node side indices ([`NO_SIDE`] = unaffected); nodes past
    /// the end of the map are unaffected.
    Explicit {
        /// Side index by node index.
        map: Vec<u8>,
    },
}

/// Which cross-side directions a partition window severs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CutDir {
    /// Messages drop in both directions (a classic partition).
    Both,
    /// Only messages from `from_side` toward `to_side` drop; every other
    /// cross-side direction still delivers (an asymmetric link cut — e.g. a
    /// half-broken uplink that receives but cannot send).
    OneWay {
        /// Side index messages must originate from to be cut.
        from_side: u8,
        /// Side index messages must be addressed into to be cut.
        to_side: u8,
    },
}

/// One scheduled partition: for steps in `[from, until)` the listed sides
/// cannot exchange messages (in the direction(s) selected by `dir`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PartitionWindow {
    from: Step,
    until: Step,
    /// Human-readable side names (for reports); index = side id.
    names: Vec<String>,
    assign: SideAssign,
    /// Which direction(s) of cross-side traffic this window cuts.
    dir: CutDir,
}

impl PartitionWindow {
    /// Whether this window is in force at `now`.
    pub fn active_at(&self, now: Step) -> bool {
        self.from <= now && now < self.until
    }

    /// The side `node` belongs to at any step of this window, if any.
    pub fn side_of(&self, node: NodeId) -> Option<&str> {
        let s = self.side_index(node)?;
        self.names.get(s as usize).map(String::as_str)
    }

    fn side_index(&self, node: NodeId) -> Option<u8> {
        match &self.assign {
            SideAssign::Split { boundary } => Some(u8::from(node.index() >= *boundary)),
            SideAssign::Explicit { map } => match map.get(node.index()) {
                Some(&s) if s != NO_SIDE => Some(s),
                _ => None,
            },
        }
    }

    /// Whether a `from -> to` message crosses the cut (in a severed direction).
    pub fn severs(&self, from: NodeId, to: NodeId) -> bool {
        match (self.side_index(from), self.side_index(to)) {
            (Some(a), Some(b)) => match self.dir {
                CutDir::Both => a != b,
                CutDir::OneWay { from_side, to_side } => a == from_side && b == to_side,
            },
            _ => false,
        }
    }
}

/// A loss rule: the drop probability of every link for steps in
/// `[from_step, until_step)`; the whole-run default covers `[0, Step::MAX)`.
/// A window in force beats the default it temporarily overrides; among
/// rules of the same kind the **last added** wins, so windows layer
/// naturally.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct LossRule {
    rate: f64,
    from_step: Step,
    until_step: Step,
}

impl LossRule {
    fn in_force(&self, now: Step) -> bool {
        self.from_step <= now && now < self.until_step
    }

    fn is_windowed(&self) -> bool {
        (self.from_step, self.until_step) != (0, Step::MAX)
    }
}

/// A deterministic link-fault schedule: partitions plus lossy links —
/// scheduled windows the engine consults at delivery time.
///
/// ```
/// use dps_sim::{FaultPlan, NodeId};
///
/// // Nodes 0..5 vs 5.. cannot talk during steps [100, 200).
/// let mut plan = FaultPlan::none();
/// plan.add_split(100, 200, 5);
/// let (a, b) = (NodeId::from_index(2), NodeId::from_index(7));
/// assert!(plan.severed(a, b, 150));
/// assert!(!plan.severed(a, b, 200)); // healed
///
/// // All links drop 10% of messages...
/// plan.set_default_loss(0.1);
/// assert_eq!(plan.loss_rate(0), 0.1);
///
/// // ...and 30% during steps [50, 80).
/// plan.set_loss_during(50, 80, 0.3);
/// assert_eq!(plan.loss_rate(60), 0.3);
/// assert_eq!(plan.loss_rate(80), 0.1); // window over, default back
/// ```
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct FaultPlan {
    partitions: Vec<PartitionWindow>,
    loss: Vec<LossRule>,
}

impl FaultPlan {
    /// A plan with no faults at all (the engine default).
    pub fn none() -> Self {
        FaultPlan::default()
    }

    // ---- partitions ----

    /// Schedules a two-sided partition for steps `[from, until)`: node
    /// indices `< boundary` form side `"low"`, the rest (including nodes that
    /// join during the window) side `"high"`.
    pub fn add_split(&mut self, from: Step, until: Step, boundary: usize) -> &mut Self {
        self.partitions.push(PartitionWindow {
            from,
            until,
            names: vec!["low".into(), "high".into()],
            assign: SideAssign::Split { boundary },
            dir: CutDir::Both,
        });
        self
    }

    /// Schedules an **asymmetric** split for steps `[from, until)`: only one
    /// direction of cross-boundary traffic is cut — `"low"` → `"high"` when
    /// `low_to_high` is true, the reverse otherwise. The open direction keeps
    /// delivering, modeling a half-broken link.
    pub fn add_split_oneway(
        &mut self,
        from: Step,
        until: Step,
        boundary: usize,
        low_to_high: bool,
    ) -> &mut Self {
        let (from_side, to_side) = if low_to_high { (0, 1) } else { (1, 0) };
        self.partitions.push(PartitionWindow {
            from,
            until,
            names: vec!["low".into(), "high".into()],
            assign: SideAssign::Split { boundary },
            dir: CutDir::OneWay { from_side, to_side },
        });
        self
    }

    /// Schedules a partition with explicitly named sides for `[from, until)`.
    /// Nodes listed in no side are unaffected. A node listed twice lands on
    /// the first side that names it. At most 254 sides are supported.
    pub fn add_partition<S: AsRef<str>>(
        &mut self,
        from: Step,
        until: Step,
        sides: &[(S, Vec<NodeId>)],
    ) -> &mut Self {
        assert!(sides.len() < NO_SIDE as usize, "too many partition sides");
        let mut map = Vec::new();
        for (s, (_, members)) in sides.iter().enumerate() {
            for n in members {
                let idx = n.index();
                if idx >= map.len() {
                    map.resize(idx + 1, NO_SIDE);
                }
                if map[idx] == NO_SIDE {
                    map[idx] = s as u8;
                }
            }
        }
        self.partitions.push(PartitionWindow {
            from,
            until,
            names: sides.iter().map(|(n, _)| n.as_ref().to_string()).collect(),
            assign: SideAssign::Explicit { map },
            dir: CutDir::Both,
        });
        self
    }

    /// Ends every partition window still open at `now`: windows whose
    /// interval covers `now` are truncated to it, future windows are kept.
    /// Returns how many windows were closed.
    pub fn heal_at(&mut self, now: Step) -> usize {
        let mut healed = 0;
        for w in &mut self.partitions {
            if w.from <= now && now < w.until {
                w.until = now;
                healed += 1;
            }
        }
        healed
    }

    /// The partition windows in force at `now`.
    pub fn active_partitions(&self, now: Step) -> impl Iterator<Item = &PartitionWindow> {
        self.partitions.iter().filter(move |w| w.active_at(now))
    }

    /// Whether any active partition severs the `from -> to` link at `now`.
    pub fn severed(&self, from: NodeId, to: NodeId, now: Step) -> bool {
        self.active_partitions(now).any(|w| w.severs(from, to))
    }

    /// The side `node` sits on at `now` (name of the first active window that
    /// assigns it), if any.
    pub fn side_of(&self, node: NodeId, now: Step) -> Option<&str> {
        self.active_partitions(now).find_map(|w| w.side_of(node))
    }

    // ---- loss ----

    /// Sets the whole-run default loss rate of every link.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is not within `[0, 1]`.
    pub fn set_default_loss(&mut self, rate: f64) -> &mut Self {
        self.push_loss(rate, 0, Step::MAX)
    }

    /// Schedules a loss rate for every link for steps in `[from, until)`
    /// only — the scheduled sibling of [`set_default_loss`](Self::set_default_loss),
    /// letting scenario files lower loss windows onto the plan up front
    /// instead of mutating it mid-run.
    pub fn set_loss_during(&mut self, from: Step, until: Step, rate: f64) -> &mut Self {
        self.push_loss(rate, from, until)
    }

    fn push_loss(&mut self, rate: f64, from_step: Step, until_step: Step) -> &mut Self {
        assert!(
            rate.is_finite() && (0.0..=1.0).contains(&rate),
            "loss rate must be within [0, 1]"
        );
        assert!(from_step < until_step, "empty loss window");
        // A rule over the same steps replaces the old one in place.
        if let Some(r) = self
            .loss
            .iter_mut()
            .find(|r| (r.from_step, r.until_step) == (from_step, until_step))
        {
            r.rate = rate;
        } else {
            self.loss.push(LossRule {
                rate,
                from_step,
                until_step,
            });
        }
        self
    }

    /// The drop probability of every link at step `now`: among the rules in
    /// force, a window beats the whole-run default and the last added wins
    /// between equals; `0.0` when none is in force.
    pub fn loss_rate(&self, now: Step) -> f64 {
        // `max_by_key` keeps the *last* maximal element, which is exactly the
        // documented tie-break: later rules shadow earlier ones of their kind.
        self.loss
            .iter()
            .filter(|r| r.in_force(now))
            .max_by_key(|r| r.is_windowed())
            .map_or(0.0, |r| r.rate)
    }

    // ---- scheduling helpers ----

    /// The plan with every window shifted `offset` steps into the future:
    /// partition intervals and loss windows alike (saturating, so open-ended
    /// windows stay open-ended). Scenario compilers build plans on a relative
    /// timeline and shift them once the absolute start step is known.
    #[must_use]
    pub fn shifted(mut self, offset: Step) -> Self {
        for w in &mut self.partitions {
            w.from = w.from.saturating_add(offset);
            w.until = w.until.saturating_add(offset);
        }
        for r in &mut self.loss {
            // Un-windowed rules cover the whole run; keep them anchored at 0
            // so pre-window traffic behaves identically after the shift.
            if r.is_windowed() {
                r.from_step = r.from_step.saturating_add(offset);
                r.until_step = r.until_step.saturating_add(offset);
            }
        }
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: usize) -> NodeId {
        NodeId::from_index(i)
    }

    #[test]
    fn split_partitions_by_boundary_and_interval() {
        let mut plan = FaultPlan::none();
        plan.add_split(10, 20, 3);
        // Inside the window, cross-boundary links are severed both ways.
        assert!(plan.severed(n(0), n(3), 10));
        assert!(plan.severed(n(5), n(2), 15));
        assert!(!plan.severed(n(0), n(2), 15)); // same side
        assert!(!plan.severed(n(3), n(9), 15)); // same side
                                                // Outside the window nothing is severed ([from, until) semantics).
        assert!(!plan.severed(n(0), n(3), 9));
        assert!(!plan.severed(n(0), n(3), 20));
        // Nodes joining later land on the high side.
        assert!(plan.severed(n(1), n(1000), 12));
        assert_eq!(plan.side_of(n(1), 12), Some("low"));
        assert_eq!(plan.side_of(n(1000), 12), Some("high"));
        assert_eq!(plan.side_of(n(1), 9), None);
    }

    #[test]
    fn oneway_split_cuts_a_single_direction() {
        let mut plan = FaultPlan::none();
        plan.add_split_oneway(0, 100, 3, true); // low -> high cut
        assert!(plan.severed(n(0), n(5), 50));
        assert!(!plan.severed(n(5), n(0), 50), "high -> low must stay open");
        assert!(!plan.severed(n(0), n(2), 50)); // same side
        assert!(!plan.severed(n(0), n(5), 100)); // window over
        let mut rev = FaultPlan::none();
        rev.add_split_oneway(0, 100, 3, false); // high -> low cut
        assert!(rev.severed(n(5), n(0), 50));
        assert!(!rev.severed(n(0), n(5), 50));
    }

    #[test]
    fn named_partition_leaves_unlisted_nodes_connected() {
        let mut plan = FaultPlan::none();
        plan.add_partition(0, 100, &[("east", vec![n(0), n(1)]), ("west", vec![n(2)])]);
        assert!(plan.severed(n(0), n(2), 50));
        assert!(!plan.severed(n(0), n(1), 50));
        // n(7) is in no side: it talks to everyone.
        assert!(!plan.severed(n(7), n(0), 50));
        assert!(!plan.severed(n(2), n(7), 50));
        assert_eq!(plan.side_of(n(2), 50), Some("west"));
        assert_eq!(plan.side_of(n(7), 50), None);
    }

    #[test]
    fn heal_truncates_open_windows_only() {
        let mut plan = FaultPlan::none();
        plan.add_split(10, Step::MAX, 4); // open-ended
        plan.add_split(500, 600, 4); // future window survives healing
        assert!(plan.severed(n(0), n(5), 100));
        assert_eq!(plan.heal_at(100), 1);
        assert!(!plan.severed(n(0), n(5), 100));
        assert!(!plan.severed(n(0), n(5), 300));
        assert!(plan.severed(n(0), n(5), 550)); // the future window still fires
        assert_eq!(plan.heal_at(100), 0); // nothing open any more at 100
    }

    #[test]
    fn loss_specificity_and_layering() {
        let mut plan = FaultPlan::none();
        assert_eq!(plan.loss_rate(0), 0.0);
        plan.set_default_loss(0.1);
        assert_eq!(plan.loss_rate(0), 0.1);
        // A window beats the default while in force, whenever it was added.
        plan.set_loss_during(10, 20, 0.5);
        plan.set_default_loss(0.2); // re-setting the default replaces it
        assert_eq!(plan.loss_rate(15), 0.5);
        assert_eq!(plan.loss_rate(25), 0.2);
        // A zero-rate window silences the default inside it.
        plan.set_loss_during(30, 40, 0.0);
        assert_eq!(plan.loss_rate(35), 0.0);
        assert_eq!(plan.loss_rate(40), 0.2);
    }

    #[test]
    fn scheduled_loss_windows_bound_their_rates() {
        let mut plan = FaultPlan::none();
        plan.set_loss_during(50, 80, 0.3);
        assert!(!plan.severed(n(0), n(1), 60)); // loss is not a partition
        assert_eq!(plan.loss_rate(49), 0.0);
        assert_eq!(plan.loss_rate(50), 0.3);
        assert_eq!(plan.loss_rate(79), 0.3);
        assert_eq!(plan.loss_rate(80), 0.0);
        // Re-scheduling the same window replaces it.
        plan.set_loss_during(50, 80, 0.1);
        assert_eq!(plan.loss_rate(55), 0.1);
        // A different window layers: the last added wins in the overlap.
        plan.set_loss_during(70, 90, 0.6);
        assert_eq!(plan.loss_rate(75), 0.6);
        assert_eq!(plan.loss_rate(85), 0.6);
        assert_eq!(plan.loss_rate(55), 0.1);
    }

    #[test]
    fn shifted_moves_windows_but_not_global_rules() {
        let mut plan = FaultPlan::none();
        plan.add_split(10, 20, 3);
        plan.set_loss_during(10, 20, 0.5);
        plan.set_default_loss(0.1);
        let plan = plan.shifted(100);
        assert!(!plan.severed(n(0), n(5), 15));
        assert!(plan.severed(n(0), n(5), 115));
        assert_eq!(plan.loss_rate(15), 0.1); // global rule holds
        assert_eq!(plan.loss_rate(115), 0.5);
        // Open-ended windows stay open-ended after a shift.
        let mut open = FaultPlan::none();
        open.add_split(0, Step::MAX, 1);
        let open = open.shifted(7);
        assert!(open.severed(n(0), n(1), Step::MAX - 1));
    }

    #[test]
    #[should_panic(expected = "empty loss window")]
    fn empty_loss_window_panics() {
        FaultPlan::none().set_loss_during(10, 10, 0.5);
    }

    #[test]
    #[should_panic(expected = "loss rate")]
    fn out_of_range_loss_panics() {
        FaultPlan::none().set_default_loss(1.5);
    }

    #[test]
    fn trivial_plan_is_free_of_faults() {
        let mut plan = FaultPlan::none();
        assert_eq!(plan.active_partitions(0).count(), 0);
        assert_eq!(plan.loss_rate(0), 0.0);
        plan.set_default_loss(0.0);
        assert_eq!(plan.loss_rate(Step::MAX - 1), 0.0); // zero-rate rules drop nothing
        plan.add_split(0, 10, 1);
        assert!(plan.severed(n(0), n(1), 5));
    }
}
