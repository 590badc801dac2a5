//! [`DpsNetwork`]: the simulation driver of the evaluation — the [`Overlay`]
//! core plus the omniscient oracle and the delivery accounting measured
//! against it.

use std::collections::HashSet;
use std::ops::{Deref, DerefMut};
use std::sync::Arc;

use dps_content::{SharedEvent, SharedFilter};

use crate::error::DpsError;
use crate::overlay::Overlay;
use dps_overlay::model::ForestModel;
use dps_overlay::{CountingSink, DpsConfig, PubId, SubId};
use dps_sim::{LatencyHistogram, LatencySummary, NodeId, Step};

/// Delivery accounting for one published event.
#[derive(Debug, Clone)]
pub struct DeliveryReport {
    /// The publication.
    pub id: PubId,
    /// Step at which it was published.
    pub published_at: Step,
    /// Subscribers that were alive and matching at publish time.
    pub expected: HashSet<NodeId>,
    /// The subset of `expected` the publisher could reach at publish time: no
    /// active partition absolutely cut the publisher → subscriber pair. A
    /// window only cuts a pair when it severs the direct link *and* no alive
    /// bridge node (assigned to no side of that window) could relay across.
    /// Equals `expected` when no partition was in force.
    pub reachable: HashSet<NodeId>,
    /// Of the expected subscribers, how many were actually notified (so far).
    pub delivered: usize,
    /// Distinct nodes the dissemination touched (so far).
    pub contacted: usize,
    /// Publish→deliver latency percentiles over the expected subscribers that
    /// were notified: each sample is `first-notify step − published_at`.
    /// `latency.samples == 0` when nothing was delivered yet.
    pub latency: LatencySummary,
}

/// Ground truth recorded for one publication at publish time.
#[derive(Debug, Clone)]
struct PubRecord {
    id: PubId,
    at: Step,
    expected: HashSet<NodeId>,
    /// Expected subscribers not cut off from the publisher by an active
    /// partition (see [`DeliveryReport::reachable`]).
    reachable: HashSet<NodeId>,
}

/// A network of DPS nodes under simulation, measured against an oracle: an
/// [`Overlay`] (every driver call of the core is reachable through `Deref`)
/// plus the ground truth of each publication and the contact/notify pairs its
/// dissemination produced. See the [crate docs](crate).
pub struct DpsNetwork {
    core: Overlay,
    sink: Arc<CountingSink>,
    oracle: ForestModel,
    pubs: Vec<PubRecord>,
}

impl Deref for DpsNetwork {
    type Target = Overlay;

    fn deref(&self) -> &Overlay {
        &self.core
    }
}

impl DerefMut for DpsNetwork {
    fn deref_mut(&mut self) -> &mut Overlay {
        &mut self.core
    }
}

impl DpsNetwork {
    /// Creates an empty network; all nodes will run `cfg`. Runs are a pure
    /// function of `seed` and the sequence of driver calls.
    pub fn new(cfg: DpsConfig, seed: u64) -> Self {
        let sink = Arc::new(CountingSink::new());
        DpsNetwork {
            core: Overlay::new(cfg, seed, sink.clone()),
            sink,
            oracle: ForestModel::new(),
            pubs: Vec::new(),
        }
    }

    /// [`Overlay::try_subscribe`], registered with the oracle.
    pub fn try_subscribe(
        &mut self,
        node: NodeId,
        filter: impl Into<SharedFilter>,
    ) -> Result<SubId, DpsError> {
        // Wrapped once (by `into`); the oracle and the node's filter index
        // share that one allocation.
        let filter = filter.into();
        let (sub_id, join_idx) = self.core.subscribe_joining(node, filter.clone())?;
        self.oracle.subscribe(sub_id, &filter, join_idx);
        Ok(sub_id)
    }

    /// Cancels a subscription previously issued through this facade.
    ///
    /// Errors with [`DpsError::UnknownSubscription`] when `sub_id` is not a
    /// live subscription of `node`. Cancelling on a dead node still removes
    /// the registration (the overlay side died with the node) but reports
    /// [`DpsError::NodeDead`].
    pub fn try_unsubscribe(&mut self, node: NodeId, sub_id: SubId) -> Result<(), DpsError> {
        if sub_id.0 != node || !self.oracle.unsubscribe(sub_id) {
            return Err(DpsError::UnknownSubscription { node, sub: sub_id });
        }
        self.core.try_unsubscribe(node, sub_id)
    }

    /// Publishes `event` from `node`, recording the ground-truth recipient set
    /// (alive matching subscribers at publish time) for delivery accounting.
    ///
    /// Errors with [`DpsError::NodeDead`] when the publisher is not alive.
    pub fn try_publish(
        &mut self,
        node: NodeId,
        event: impl Into<SharedEvent>,
    ) -> Result<PubId, DpsError> {
        // Match the oracle by reference; the event itself is moved into the
        // node, not cloned.
        let event = event.into();
        let sim = self.core.sim();
        let now = sim.now();
        let mut expected = self.oracle.matching_subscribers(&event);
        expected.retain(|n| sim.is_alive(*n));
        // Reachability is per active window and transitive through bridges: a
        // subscriber on the far side of a cut still counts as reachable when
        // some *alive* node sits in no side of that window (it can relay
        // across), so only absolute cuts shrink the reachable set. Whether a
        // window has such a bridge does not depend on the subscriber.
        let cuts: Vec<_> = sim
            .fault_plan()
            .active_partitions(now)
            .filter(|w| !sim.alive().any(|b| w.side_of(b).is_none()))
            .collect();
        let reachable: HashSet<NodeId> = expected
            .iter()
            .copied()
            .filter(|s| !cuts.iter().any(|w| w.severs(node, *s)))
            .collect();
        let id = self.core.try_publish(node, event)?;
        self.pubs.push(PubRecord {
            id,
            at: now,
            expected,
            reachable,
        });
        Ok(id)
    }

    // ---- measurement ----

    /// Per-publication delivery reports.
    pub fn reports(&self) -> Vec<DeliveryReport> {
        self.pubs
            .iter()
            .map(|p| {
                let mut delivered = 0usize;
                let mut hist = LatencyHistogram::new();
                for n in &p.expected {
                    if let Some(step) = self.sink.notify_step(p.id, *n) {
                        delivered += 1;
                        hist.record(step.saturating_sub(p.at));
                    }
                }
                DeliveryReport {
                    id: p.id,
                    published_at: p.at,
                    expected: p.expected.clone(),
                    reachable: p.reachable.clone(),
                    delivered,
                    contacted: self.sink.contacted(p.id),
                    latency: hist.summary(),
                }
            })
            .collect()
    }

    /// Publish→deliver latency percentiles over every `(publication, expected
    /// subscriber)` pair that was delivered, for publications issued in
    /// `[from, to)`. Each sample is `first-notify step − publish step`; under
    /// the default unit-latency model this counts overlay hops.
    pub fn latency_summary_between(&self, from: Step, to: Step) -> LatencySummary {
        let mut hist = LatencyHistogram::new();
        for p in &self.pubs {
            if p.at < from || p.at >= to {
                continue;
            }
            for n in &p.expected {
                if let Some(step) = self.sink.notify_step(p.id, *n) {
                    hist.record(step.saturating_sub(p.at));
                }
            }
        }
        hist.summary()
    }

    /// [`latency_summary_between`](Self::latency_summary_between) over the
    /// whole run.
    pub fn latency_summary(&self) -> LatencySummary {
        self.latency_summary_between(0, Step::MAX)
    }

    /// Ratio of correctly delivered events: over all `(publication, matching
    /// alive subscriber)` pairs, the fraction that were notified (the measure of
    /// Figures 3(a)/3(b)). Returns 1.0 when nothing was expected.
    pub fn delivered_ratio(&self) -> f64 {
        self.delivered_ratio_between(0, Step::MAX)
    }

    /// [`delivered_ratio`](Self::delivered_ratio) restricted to publications
    /// issued in `[from, to)`.
    pub fn delivered_ratio_between(&self, from: Step, to: Step) -> f64 {
        self.ratio_between(from, to, |p| &p.expected)
    }

    /// Like [`delivered_ratio`](Self::delivered_ratio), but counting only the
    /// `(publication, subscriber)` pairs that were **reachable** at publish
    /// time: subscribers on the far side of an active partition are excluded
    /// from the denominator. This is the fair dependability measure while a
    /// partition holds — no protocol can deliver across an absolute cut — and
    /// it equals [`delivered_ratio`](Self::delivered_ratio) in fault-free runs.
    pub fn delivered_ratio_reachable(&self) -> f64 {
        self.delivered_ratio_reachable_between(0, Step::MAX)
    }

    /// [`delivered_ratio_reachable`](Self::delivered_ratio_reachable)
    /// restricted to publications issued in `[from, to)`.
    pub fn delivered_ratio_reachable_between(&self, from: Step, to: Step) -> f64 {
        self.ratio_between(from, to, |p| &p.reachable)
    }

    fn ratio_between<F>(&self, from: Step, to: Step, population: F) -> f64
    where
        F: Fn(&PubRecord) -> &HashSet<NodeId>,
    {
        let mut expected = 0usize;
        let mut delivered = 0usize;
        for p in &self.pubs {
            if p.at < from || p.at >= to {
                continue;
            }
            let pop = population(p);
            expected += pop.len();
            delivered += pop
                .iter()
                .filter(|n| self.sink.was_notified(p.id, **n))
                .count();
        }
        if expected == 0 {
            1.0
        } else {
            delivered as f64 / expected as f64
        }
    }

    /// The instrumentation sink (contact/notify pairs).
    pub fn sink(&self) -> &CountingSink {
        &self.sink
    }

    /// The omniscient reference model: every subscription issued through this
    /// driver, minus the cancelled ones, and the forest they were placed in.
    pub fn oracle(&self) -> &ForestModel {
        &self.oracle
    }
}

impl std::fmt::Debug for DpsNetwork {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DpsNetwork")
            .field("snapshot", &self.core.snapshot())
            .field("pubs", &self.pubs.len())
            .finish_non_exhaustive()
    }
}
