//! [`DpsNetwork`]: the high-level driver tying protocol nodes, the cycle-based
//! simulator and the omniscient oracle together.

use std::collections::HashSet;
use std::sync::Arc;

use dps_content::{FilterIndex, MatchScratch, SharedEvent, SharedFilter};

use crate::error::DpsError;
use dps_overlay::model::ForestModel;
use dps_overlay::{CountingSink, DpsConfig, DpsNode, GroupLabel, JoinRule, PubId, SubId};
use dps_sim::{
    FaultPlan, LatencyHistogram, LatencyModel, LatencySummary, Metrics, NodeId, Sim, SimSnapshot,
    Step,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

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

/// A network of DPS nodes under simulation. See the [crate docs](crate).
pub struct DpsNetwork {
    sim: Sim<DpsNode>,
    cfg: DpsConfig,
    /// The one config allocation every node shares (see
    /// `DpsNode::with_shared_config`): joins clone the `Arc`, not the config.
    node_cfg: Arc<DpsConfig>,
    sink: Arc<CountingSink>,
    oracle: ForestModel,
    /// Live filters keyed `(node, sub)`, maintained by subscribe/unsubscribe
    /// (the oracle's subscription list is append-only, so matching uses this
    /// registry) — a counting-algorithm index.
    filters: FilterIndex<(NodeId, SubId)>,
    /// Reusable scratch + hit buffer for `filters` queries.
    match_scratch: MatchScratch,
    match_hits: Vec<(NodeId, SubId)>,
    pubs: Vec<PubRecord>,
    rng: StdRng,
    /// Reusable buffer for peer sampling (avoids per-join allocations).
    scratch: Vec<NodeId>,
}

impl DpsNetwork {
    /// Creates an empty network; all nodes will run `cfg`. Runs are a pure
    /// function of `seed` and the sequence of driver calls.
    pub fn new(cfg: DpsConfig, seed: u64) -> Self {
        DpsNetwork::new_sharded(cfg, seed, 1)
    }

    /// Creates an empty network whose simulation executes on `shards`
    /// parallel shards (the `DPS_SHARDS` knob of the experiment runners).
    /// Every observable outcome — delivery reports, metrics, group snapshots
    /// — is **byte-identical** to [`DpsNetwork::new`] with the same seed;
    /// sharding only spreads one run's work across cores. The facade itself
    /// stays synchronous: driver calls run between steps, exactly as before.
    pub fn new_sharded(cfg: DpsConfig, seed: u64, shards: usize) -> Self {
        DpsNetwork {
            sim: Sim::new_sharded(seed, shards),
            node_cfg: Arc::new(cfg.clone()),
            cfg,
            sink: Arc::new(CountingSink::new()),
            oracle: ForestModel::new(),
            filters: FilterIndex::new(),
            match_scratch: MatchScratch::new(),
            match_hits: Vec::new(),
            pubs: Vec::new(),
            rng: StdRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15),
            scratch: Vec::new(),
        }
    }

    /// Adds one node, bootstrapped with a random sample of existing nodes as
    /// peers (and registered as a peer of a few existing nodes, so joins are
    /// discoverable in both directions).
    pub fn add_node(&mut self) -> NodeId {
        // Both samples are drawn from the pre-join population.
        let sample = self.sample_alive(self.cfg.peer_view.min(8));
        let introducers = self.sample_alive(3);
        let sink: Arc<dyn dps_overlay::StatsSink> = self.sink.clone();
        let mut node = DpsNode::with_shared_config(self.node_cfg.clone(), sink);
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
        let filter = filter.into();
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
        // Wrapped once (by `into`); the oracle, the node's filter index and
        // the facade registry all share that one allocation.
        self.oracle.subscribe(node, &filter, join_idx);
        let mut out = None;
        let f = filter.clone();
        self.sim.invoke(node, |n, ctx| {
            out = Some(n.subscribe_with(f, join_idx, ctx));
        });
        let sub_id = out.ok_or(DpsError::NodeDead(node))?;
        self.filters.insert((node, sub_id), filter);
        Ok(sub_id)
    }

    /// Cancels a subscription previously issued through this facade.
    ///
    /// Errors with [`DpsError::UnknownSubscription`] when `(node, sub_id)` is
    /// not a live registration. Cancelling on a dead node still removes the
    /// registration (the overlay side died with the node) but reports
    /// [`DpsError::NodeDead`].
    pub fn try_unsubscribe(&mut self, node: NodeId, sub_id: SubId) -> Result<(), DpsError> {
        if self.filters.remove((node, sub_id)) == 0 {
            return Err(DpsError::UnknownSubscription { node, sub: sub_id });
        }
        if !self.sim.is_alive(node) {
            return Err(DpsError::NodeDead(node));
        }
        self.sim.invoke(node, |n, ctx| n.unsubscribe(sub_id, ctx));
        Ok(())
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
        let event = event.into();
        if !self.sim.is_alive(node) {
            return Err(DpsError::NodeDead(node));
        }
        // Match the registry by reference; the event itself is moved into
        // the node, not cloned.
        let sim = &self.sim;
        let now = sim.now();
        self.filters
            .matching_into(&event, &mut self.match_scratch, &mut self.match_hits);
        let expected: HashSet<NodeId> = self
            .match_hits
            .iter()
            .map(|(n, _)| *n)
            .filter(|n| sim.is_alive(*n))
            .collect();
        // Reachability is per active window and transitive through bridges: a
        // subscriber on the far side of a cut still counts as reachable when
        // some *alive* node sits in no side of that window (it can relay
        // across), so only absolute cuts shrink the reachable set.
        let fault = sim.fault_plan();
        let reachable: HashSet<NodeId> = expected
            .iter()
            .copied()
            .filter(|s| {
                !fault
                    .active_partitions(now)
                    .any(|w| w.severs(node, *s) && !sim.alive().any(|b| w.side_of(b).is_none()))
            })
            .collect();
        let mut out = None;
        self.sim.invoke(node, |n, ctx| {
            out = Some(n.publish(event, ctx));
        });
        let id = out.ok_or(DpsError::NodeDead(node))?;
        self.pubs.push(PubRecord {
            id,
            at: now,
            expected,
            reachable,
        });
        Ok(id)
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

    /// Crashes a specific node.
    pub fn crash(&mut self, node: NodeId) {
        self.sim.crash(node);
    }

    /// Crashes a uniformly random alive node; returns it. Shard-aware with
    /// the same global-id-order guarantee as [`random_alive`](Self::random_alive).
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
    /// simulation's driver RNG. Allocation-free; shard-aware: the pick walks
    /// the alive set in **global id order** (never shard-major order), so the
    /// chosen node — and therefore the whole scenario — is identical whatever
    /// [`shards`](Self::shards) is.
    pub fn random_alive(&mut self) -> Option<NodeId> {
        let n = self.sim.alive_count();
        if n == 0 {
            return None;
        }
        let k = rand::Rng::random_range(self.sim.rng(), 0..n);
        self.sim.nth_alive(k)
    }

    /// Number of execution shards the underlying simulation runs on.
    pub fn shards(&self) -> usize {
        self.sim.shard_count()
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

    /// Starts an **asymmetric** split **now**: only one direction of
    /// cross-boundary traffic is cut — `"low"` (indices `< boundary`) toward
    /// `"high"` when `low_to_high` is true, the reverse otherwise. The open
    /// direction keeps delivering (a half-broken uplink). Holds until
    /// [`heal`](Self::heal).
    pub fn partition_split_oneway(&mut self, boundary: usize, low_to_high: bool) {
        let now = self.sim.now();
        self.sim
            .fault_plan_mut()
            .add_split_oneway(now, Step::MAX, boundary, low_to_high);
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

    /// Sets the loss rate of the directed link `from -> to` only (overrides
    /// the default rate for that link).
    pub fn set_link_loss(&mut self, from: NodeId, to: NodeId, rate: f64) {
        self.sim.fault_plan_mut().set_link_loss(from, to, rate);
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

    /// The omniscient reference model fed with every subscription issued through
    /// this driver.
    pub fn oracle(&self) -> &ForestModel {
        &self.oracle
    }

    /// Message-traffic metrics from the simulator (merged across shards).
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
    /// quiesced network this is directly comparable to [`Self::oracle`].
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

impl std::fmt::Debug for DpsNetwork {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DpsNetwork")
            .field("snapshot", &self.sim.snapshot())
            .field("pubs", &self.pubs.len())
            .finish_non_exhaustive()
    }
}
