//! [`Overlay`]: the driver core — protocol nodes on the simulator and the
//! calls that poke them from outside. It keeps nothing about the publications
//! that pass through it; what a run observes is up to its [`StatsSink`].

use std::sync::Arc;

use dps_content::{SharedEvent, SharedFilter};

use crate::error::DpsError;
use dps_overlay::config::PEER_VIEW;
use dps_overlay::{DpsConfig, DpsNode, GroupLabel, JoinRule, PubId, StatsSink, SubId};
use dps_sim::{FaultPlan, LatencyModel, Metrics, NodeId, Sim, SimSnapshot, Step};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A snapshot of one distributed group, collected from live node state; used by
/// tests to compare the distributed overlay against the reference model.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupSnapshot {
    /// The group's label.
    pub label: GroupLabel,
    /// Label of its parent group, as recorded at the group leader.
    pub parent: Option<GroupLabel>,
    /// Members, sorted.
    pub members: Vec<NodeId>,
}

/// A network of DPS nodes under simulation, driven from outside. Runs are a
/// pure function of the seed and the sequence of driver calls.
pub struct Overlay {
    sim: Sim<DpsNode>,
    cfg: DpsConfig,
    sink: Arc<dyn StatsSink>,
    rng: StdRng,
    /// Reusable buffer for peer sampling (avoids per-join allocations).
    scratch: Vec<NodeId>,
}

impl Overlay {
    /// Creates an empty overlay; nodes will run `cfg` and report to `sink`.
    pub fn new(cfg: DpsConfig, seed: u64, sink: Arc<dyn StatsSink>) -> Self {
        Overlay {
            sim: Sim::new(seed),
            cfg,
            sink,
            rng: StdRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15),
            scratch: Vec::new(),
        }
    }

    /// Adds one node, bootstrapped with a random sample of existing nodes as
    /// peers (and registered as a peer of a few existing nodes, so joins are
    /// discoverable in both directions).
    pub fn add_node(&mut self) -> NodeId {
        // Both samples are drawn from the pre-join population.
        let sample = self.sample_alive(PEER_VIEW.min(8));
        let introducers = self.sample_alive(3);
        let mut node = DpsNode::with_sink(self.cfg, self.sink.clone());
        node.seed_peers(sample);
        let id = self.sim.add_node(node);
        // Symmetric introduction: a few existing peers learn about the newcomer.
        for p in introducers {
            if let Some(n) = self.sim.node_mut(p) {
                n.seed_peers(vec![id]);
            }
        }
        id
    }

    /// Adds `n` nodes.
    pub fn add_nodes(&mut self, n: usize) -> Vec<NodeId> {
        (0..n).map(|_| self.add_node()).collect()
    }

    /// Picks up to `n` distinct alive nodes, uniformly, via a partial
    /// Fisher–Yates shuffle over the scratch buffer: exactly `min(n, alive)`
    /// picks, no rejection loop.
    fn sample_alive(&mut self, n: usize) -> Vec<NodeId> {
        self.scratch.clear();
        self.scratch.extend(self.sim.alive());
        let take = n.min(self.scratch.len());
        for i in 0..take {
            let j = self.rng.random_range(i..self.scratch.len());
            self.scratch.swap(i, j);
        }
        self.scratch[..take].to_vec()
    }

    /// Issues a subscription from `node`. The predicate used to join the overlay
    /// is the filter's first one under [`JoinRule::First`], or picked uniformly at
    /// random under [`JoinRule::Explicit`] (the paper's "arbitrarily chosen").
    ///
    /// Errors with [`DpsError::EmptyFilter`] on a predicate-less filter and
    /// [`DpsError::NodeDead`] when `node` is not alive.
    pub fn try_subscribe(
        &mut self,
        node: NodeId,
        filter: impl Into<SharedFilter>,
    ) -> Result<SubId, DpsError> {
        self.subscribe_joining(node, filter.into())
            .map(|(sub_id, _)| sub_id)
    }

    /// [`try_subscribe`](Self::try_subscribe), also returning the index of the
    /// predicate the subscription joins the overlay with (the reference model
    /// places it by the same one).
    pub(crate) fn subscribe_joining(
        &mut self,
        node: NodeId,
        filter: SharedFilter,
    ) -> Result<(SubId, usize), DpsError> {
        if filter.is_empty() {
            return Err(DpsError::EmptyFilter);
        }
        if !self.sim.is_alive(node) {
            return Err(DpsError::NodeDead(node));
        }
        let join_idx = match self.cfg.join_rule {
            JoinRule::First => 0,
            JoinRule::Explicit => self.rng.random_range(0..filter.predicates().len()),
        };
        let mut out = None;
        self.sim.invoke(node, |n, ctx| {
            out = Some(n.subscribe_with(filter, join_idx, ctx));
        });
        Ok((out.ok_or(DpsError::NodeDead(node))?, join_idx))
    }

    /// Cancels subscription `sub_id` of `node`; an id the node does not hold
    /// is a no-op there.
    ///
    /// Errors with [`DpsError::NodeDead`] when `node` is not alive (the
    /// subscription died with it).
    pub fn try_unsubscribe(&mut self, node: NodeId, sub_id: SubId) -> Result<(), DpsError> {
        if !self.sim.is_alive(node) {
            return Err(DpsError::NodeDead(node));
        }
        self.sim.invoke(node, |n, ctx| n.unsubscribe(sub_id, ctx));
        Ok(())
    }

    /// Publishes `event` from `node`.
    ///
    /// Errors with [`DpsError::NodeDead`] when the publisher is not alive.
    pub fn try_publish(
        &mut self,
        node: NodeId,
        event: impl Into<SharedEvent>,
    ) -> Result<PubId, DpsError> {
        // Wrapped once (by `into`) and moved into the node, not cloned.
        let event = event.into();
        let mut out = None;
        self.sim.invoke(node, |n, ctx| {
            out = Some(n.publish(event, ctx));
        });
        out.ok_or(DpsError::NodeDead(node))
    }

    /// Runs `steps` simulation steps.
    pub fn run(&mut self, steps: u64) {
        self.sim.run(steps);
    }

    /// Runs until every issued subscription is placed in a group, or `max_steps`
    /// elapse. Returns whether the overlay fully converged.
    pub fn quiesce(&mut self, max_steps: u64) -> bool {
        for _ in 0..max_steps {
            if self.pending_subscriptions() == 0 {
                return true;
            }
            self.sim.step();
        }
        self.pending_subscriptions() == 0
    }

    /// Total subscriptions still in flight across alive nodes.
    pub fn pending_subscriptions(&self) -> usize {
        self.sim
            .alive()
            .filter_map(|id| self.sim.node(id))
            .map(|n| n.pending_subscriptions())
            .sum()
    }

    /// Heap bytes of publication-dedup and suspicion state across alive
    /// nodes ([`DpsNode::dedup_bytes`]): how much of this overlay is memory
    /// of what it has already seen.
    pub fn dedup_bytes(&self) -> usize {
        self.sim
            .alive()
            .filter_map(|id| self.sim.node(id))
            .map(|n| n.dedup_bytes())
            .sum()
    }

    /// Crashes a specific node.
    pub fn crash(&mut self, node: NodeId) {
        self.sim.crash(node);
    }

    /// Crashes a uniformly random alive node; returns it.
    pub fn crash_random(&mut self) -> Option<NodeId> {
        let n = self.sim.alive_count();
        if n == 0 {
            return None;
        }
        let victim = self.sim.nth_alive(self.rng.random_range(0..n))?;
        self.sim.crash(victim);
        Some(victim)
    }

    /// A uniformly random alive node (e.g. the next publisher), drawn from the
    /// simulation's driver RNG. Allocation-free: the pick walks the alive set
    /// in id order.
    pub fn random_alive(&mut self) -> Option<NodeId> {
        let n = self.sim.alive_count();
        if n == 0 {
            return None;
        }
        let k = rand::Rng::random_range(self.sim.rng(), 0..n);
        self.sim.nth_alive(k)
    }

    // ---- link faults: partitions and lossy links ----

    /// Starts a partition **now**, splitting the id space at `boundary`: node
    /// indices `< boundary` form side `"low"`, all others (including nodes
    /// that join while the partition holds) side `"high"`. Cross-side
    /// messages are dropped at delivery time and accounted as
    /// [`dps_sim::DropReason::Partitioned`]. The partition holds until
    /// [`heal`](Self::heal).
    ///
    /// ```
    /// use dps::{DpsConfig, DpsNetwork};
    /// use dps_sim::DropReason;
    ///
    /// let mut net = DpsNetwork::new(DpsConfig::default(), 1);
    /// net.add_nodes(10);
    /// net.partition_split(5);
    /// net.run(50); // heartbeats across the cut all drop
    /// assert!(net.metrics().dropped_for(DropReason::Partitioned) > 0);
    /// net.heal();
    /// ```
    pub fn partition_split(&mut self, boundary: usize) {
        let now = self.sim.now();
        self.sim
            .fault_plan_mut()
            .add_split(now, Step::MAX, boundary);
    }

    /// Starts a partition **now** with explicitly named sides; nodes listed
    /// in no side keep talking to everyone. Holds until [`heal`](Self::heal).
    pub fn partition<S: AsRef<str>>(&mut self, sides: &[(S, Vec<NodeId>)]) {
        let now = self.sim.now();
        self.sim
            .fault_plan_mut()
            .add_partition(now, Step::MAX, sides);
    }

    /// Ends every partition currently in force; returns how many were open.
    /// Future windows scheduled on the plan are untouched.
    pub fn heal(&mut self) -> usize {
        let now = self.sim.now();
        self.sim.fault_plan_mut().heal_at(now)
    }

    /// Sets the default loss rate of **every** link: each delivery drops with
    /// probability `rate`, sampled from the simulation RNG (runs stay a pure
    /// function of the seed). Drops are accounted as
    /// [`dps_sim::DropReason::Loss`]. `rate = 0.0` turns loss back off.
    pub fn set_loss(&mut self, rate: f64) {
        self.sim.fault_plan_mut().set_default_loss(rate);
    }

    /// Installs a complete link-fault schedule, replacing the current one.
    /// The scenario layer lowers spec files into a [`FaultPlan`] whose
    /// partition and loss windows carry absolute steps and installs it here
    /// in one shot; the interactive methods above remain for tests that
    /// drive faults imperatively.
    pub fn schedule_faults(&mut self, plan: FaultPlan) {
        self.sim.set_fault_plan(plan);
    }

    /// The link-fault schedule in force.
    pub fn fault_plan(&self) -> &FaultPlan {
        self.sim.fault_plan()
    }

    /// Installs the link-latency model for this run. Must be called on a
    /// fresh network, **before** [`add_nodes`](Self::add_nodes) (the
    /// simulator rejects later installs). The default is
    /// [`LatencyModel::Unit`] — the classic cycle engine, byte for byte.
    ///
    /// Errors with [`DpsError::InvalidLatency`] on a malformed model and
    /// [`DpsError::LatencyAfterStart`] once the simulation has moved.
    pub fn try_set_latency(&mut self, model: LatencyModel) -> Result<(), DpsError> {
        if let Err(e) = model.validate() {
            return Err(DpsError::InvalidLatency(e));
        }
        if self.sim.now() != 0 || self.sim.snapshot().in_flight != 0 {
            return Err(DpsError::LatencyAfterStart);
        }
        self.sim.set_latency(model);
        Ok(())
    }

    /// Message-traffic metrics from the simulator.
    pub fn metrics(&self) -> Metrics {
        self.sim.metrics()
    }

    /// Direct access to the underlying simulator.
    pub fn sim(&self) -> &Sim<DpsNode> {
        &self.sim
    }

    /// Mutable access to the underlying simulator (scenario drivers).
    pub fn sim_mut(&mut self) -> &mut Sim<DpsNode> {
        &mut self.sim
    }

    /// Summary snapshot.
    pub fn snapshot(&self) -> SimSnapshot {
        self.sim.snapshot()
    }

    /// Collects the distributed forest as recorded at group leaders: one
    /// [`GroupSnapshot`] per led group. With leader-based communication and a
    /// quiesced network this is directly comparable to the reference model
    /// ([`DpsNetwork::oracle`](crate::DpsNetwork::oracle)).
    pub fn distributed_groups(&self) -> Vec<GroupSnapshot> {
        let mut out = Vec::new();
        for id in self.sim.alive() {
            let Some(n) = self.sim.node(id) else { continue };
            for m in n.memberships() {
                if !m.is_leader() {
                    continue;
                }
                let mut members = m.members.clone();
                members.sort_unstable();
                members.dedup();
                out.push(GroupSnapshot {
                    label: m.label.clone(),
                    parent: m.predview.first().map(|r| r.label.clone()),
                    members,
                });
            }
        }
        out.sort_by_key(|g| format!("{}", g.label));
        out
    }
}

impl std::fmt::Debug for Overlay {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Overlay")
            .field("snapshot", &self.sim.snapshot())
            .finish_non_exhaustive()
    }
}
