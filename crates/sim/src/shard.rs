//! The per-shard execution unit of the sharded engine.
//!
//! [`Sim`](crate::Sim) partitions nodes across `S` shards round-robin by id
//! (global index `i` lives in shard `i % S`, local slot `i / S`); each step
//! the shards advance their nodes in parallel and everything they send is
//! written into per-destination-shard **staging outboxes**. Nothing crosses a
//! shard boundary mid-step: the engine exchanges the staging outboxes at the
//! step barrier and merges them into the destination shards' inbox buckets in
//! a canonical order (deliver-phase sends before tick-phase sends, each sorted
//! by sender id — exactly the order a single shard produces naturally), so the
//! bucket contents, every handler invocation, and every metric are
//! byte-identical whatever `S` is.
//!
//! Each shard also owns the [`Metrics`] partial for its nodes and the alive
//! bookkeeping for its slots; the engine merges partials at snapshot time.

use std::sync::Arc;

use rand::Rng;

use crate::engine::latency_rng;
use crate::fault::FaultPlan;
use crate::latency::LatencyModel;
use crate::metrics::{DropReason, Metrics};
use crate::process::{Context, Message, NodeId, Process, SimRng, Step};

/// A queued message: the sender and the payload. The destination is implicit
/// in the bucket the message sits in.
pub(crate) struct Inflight<M> {
    pub(crate) from: NodeId,
    pub(crate) msg: M,
}

/// A send staged during the parallel phase. The destination is explicit
/// because one staging outbox covers every destination of one target shard.
pub(crate) struct Staged<M> {
    pub(crate) from: NodeId,
    pub(crate) to: NodeId,
    pub(crate) msg: M,
}

/// Which phase of the step produced a staged send. The canonical delivery
/// order within a bucket is all deliver-phase sends, then all tick-phase
/// sends — mirroring the serial engine, where the whole deliver loop runs
/// before the first tick.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Phase {
    Deliver,
    Tick,
}

/// Staging outbox toward one destination shard, split by producing phase.
/// Both halves are sorted by sender id by construction: a shard processes its
/// local nodes in ascending global-id order within each phase.
pub(crate) struct StagingOutbox<M> {
    pub(crate) deliver: Vec<Staged<M>>,
    pub(crate) tick: Vec<Staged<M>>,
}

impl<M> StagingOutbox<M> {
    pub(crate) fn new() -> Self {
        StagingOutbox {
            deliver: Vec::new(),
            tick: Vec::new(),
        }
    }
}

/// One shard: a disjoint slice of the node population plus everything needed
/// to advance it for one step without touching any other shard.
///
/// Node state is laid out **struct-of-arrays**: protocol state machines,
/// liveness flags and RNG streams live in three parallel vectors indexed by
/// local slot. The hot scans touch only the array they need — the engine's
/// `alive()` iterator (behind every driver pick at scenario scale) walks a
/// dense `Vec<bool>` instead of striding over full node structs, and the
/// layout carries no per-slot padding, which is what lets six-figure
/// populations fit (a `DpsNode` is hundreds of bytes; a liveness flag is
/// one).
pub(crate) struct Shard<P: Process> {
    /// This shard's index within the engine (`0 <= index < staging.len()`).
    pub(crate) index: usize,
    /// Local protocol state machines; local slot `l` holds global id
    /// `l * S + index`.
    pub(crate) procs: Vec<P>,
    /// Liveness flags, parallel to `procs`.
    pub(crate) alive: Vec<bool>,
    /// Private per-node RNG streams, parallel to `procs`.
    pub(crate) rngs: Vec<SimRng>,
    /// Alive nodes among the local slots (maintained incrementally).
    pub(crate) alive_count: usize,
    /// The timing wheel: in-flight messages, bucketed first by wheel slot
    /// (`deliver_at % wheel.len()`), then by local destination. The wheel
    /// has `max_latency + 1` slots (always ≥ 2); latencies are in
    /// `[1, wheel.len() - 1]`, so every pending delivery time maps to a
    /// distinct slot and an enqueue can never target the slot currently
    /// being drained. The classic double-buffered inbox pair is exactly the
    /// 2-slot wheel the draw-free unit model sizes.
    pub(crate) wheel: Vec<Vec<Vec<Inflight<P::Msg>>>>,
    /// The link-latency model, shared with the engine and every sibling
    /// shard (installed before the first step, immutable afterwards).
    pub(crate) latency: Arc<LatencyModel>,
    /// Dedicated per-node **latency** streams, parallel to `procs` but grown
    /// lazily (only non-unit models ever derive one): slot `l`'s stream is a
    /// pure function of `(seed, global id)`, touched only when sampling the
    /// latency of a message *into* that node. Kept apart from `rngs` so a
    /// latency draw never perturbs protocol or loss draws — and because the
    /// enqueue-order of a destination's inbound messages is canonical across
    /// shard layouts, while the *interleaving* of enqueues across
    /// destinations is not.
    pub(crate) lat_rngs: Vec<SimRng>,
    /// Seed the lazy `lat_rngs` derivation uses.
    pub(crate) seed: u64,
    /// Reusable buffer behind [`Context::send`]; drained after every handler.
    pub(crate) scratch_out: Vec<(NodeId, P::Msg)>,
    /// Per-destination-shard staging outboxes (length = shard count), filled
    /// during the parallel phase, drained by the engine at the barrier.
    pub(crate) staging: Vec<StagingOutbox<P::Msg>>,
    /// Traffic partial for this shard's nodes (indexed by global node id;
    /// remote nodes' slots stay zero). Merged at snapshot time.
    pub(crate) metrics: Metrics,
    /// Deliverable messages queued in the wheel (all slots).
    pub(crate) in_flight: usize,
}

impl<P: Process> Shard<P> {
    pub(crate) fn new(index: usize, n_shards: usize, metrics_window: Step, seed: u64) -> Self {
        Shard {
            index,
            procs: Vec::new(),
            alive: Vec::new(),
            rngs: Vec::new(),
            alive_count: 0,
            wheel: (0..2).map(|_| Vec::new()).collect(),
            latency: Arc::new(LatencyModel::Unit),
            lat_rngs: Vec::new(),
            seed,
            scratch_out: Vec::new(),
            staging: (0..n_shards).map(|_| StagingOutbox::new()).collect(),
            metrics: Metrics::new(metrics_window),
            in_flight: 0,
        }
    }

    /// Number of shards in the engine this shard belongs to.
    fn n_shards(&self) -> usize {
        self.staging.len()
    }

    /// Global id of local slot `l`.
    fn global_id(&self, l: usize) -> NodeId {
        NodeId::from_index(l * self.n_shards() + self.index)
    }

    /// Enqueues a message into this shard's timing wheel at slot
    /// `(now + latency) % wheel.len()`, sampling the latency from the
    /// destination's dedicated stream (the draw-free unit model skips the
    /// stream entirely), and applying the engine's drop-at-enqueue rule:
    /// sends to already-crashed nodes drop (accounted, no latency draw),
    /// sends to not-yet-added nodes are kept (the node may join before the
    /// delivery step). Used both by the barrier merge and by the serial
    /// driver paths (`post`, `invoke`, `add_node` flushes) — one code path,
    /// so the crashed-check/draw order is identical whatever the layout.
    pub(crate) fn enqueue(&mut self, from: NodeId, to: NodeId, msg: P::Msg, now: Step) {
        let l = to.index() / self.n_shards();
        if self.alive.get(l).is_some_and(|a| !*a) {
            self.metrics.on_drop(DropReason::Crashed, msg.class());
            return;
        }
        let delay = self.sample_latency(to, l);
        let wheel_len = self.wheel.len() as Step;
        debug_assert!(
            delay >= 1 && delay < wheel_len,
            "latency {delay} outside the wheel's [1, {}] range",
            wheel_len - 1
        );
        let slot = ((now + delay) % wheel_len) as usize;
        let buckets = &mut self.wheel[slot];
        if l >= buckets.len() {
            buckets.resize_with(l + 1, Vec::new);
        }
        buckets[l].push(Inflight { from, msg });
        self.in_flight += 1;
    }

    /// Samples the link latency of one message into local slot `l` (global
    /// id `to`). `Unit` is the fast path: constant 1, no stream derived, no
    /// draw made. Every other model draws from the destination's dedicated
    /// latency stream, derived lazily on first use — a pure function of
    /// `(seed, global id)`, never reset, so partially consumed streams
    /// survive node joins.
    fn sample_latency(&mut self, to: NodeId, l: usize) -> Step {
        if self.latency.is_unit() {
            return 1;
        }
        let n = self.n_shards();
        while self.lat_rngs.len() <= l {
            let idx = self.lat_rngs.len() * n + self.index;
            self.lat_rngs.push(latency_rng(self.seed, idx));
        }
        self.latency.sample(to.index(), &mut self.lat_rngs[l])
    }

    /// Drops every message queued to local slot `l` (a crash purge) across
    /// **all** wheel slots, keeping `in_flight` counting deliverable
    /// messages only.
    pub(crate) fn purge_queued(&mut self, l: usize) {
        for slot in &mut self.wheel {
            if let Some(bucket) = slot.get_mut(l) {
                for env in bucket.drain(..) {
                    self.metrics.on_drop(DropReason::Crashed, env.msg.class());
                    self.in_flight -= 1;
                }
            }
        }
    }

    /// Advances this shard's nodes one step: delivers the wheel slot due at
    /// `now` (in ascending destination id, then arrival order), then ticks
    /// every alive local node (ascending id). All sends — even those to local
    /// destinations — go to the staging outboxes; the engine merges them at
    /// the barrier so bucket order is canonical whatever the shard count.
    ///
    /// Ticks are the period-1 timer events of the event timeline: every alive
    /// node holds a standing timer that fires each step, so the tick loop
    /// *is* the timer queue, kept implicit because materializing one event
    /// per node per step would buy nothing.
    ///
    /// Runs with no access to any other shard: loss sampling draws from the
    /// *destination* node's RNG stream, and the fault plan is consulted
    /// read-only (the shard-safe interface to `FaultPlan` — partitions and
    /// loss rates are pure lookups; the only sampling is local). Fault and
    /// loss windows are evaluated **at delivery time** (`now`), not at send
    /// time, so a message in flight across a partition onset is cut.
    pub(crate) fn step_local(
        &mut self,
        now: Step,
        fault: &FaultPlan,
        partition_active: bool,
        loss_active: bool,
    ) {
        // Detach the wheel slot due at `now`. Latencies are in
        // [1, wheel_len - 1], so nothing enqueued while delivering (the
        // single-shard fast path enqueues inline) can target this slot —
        // the empty placeholder left by `take` is never touched, and the
        // drained buckets are handed back below, capacity retained.
        let wheel_len = self.wheel.len() as Step;
        let slot = (now % wheel_len) as usize;
        let mut cur = std::mem::take(&mut self.wheel[slot]);
        self.in_flight -= cur.iter().map(Vec::len).sum::<usize>();

        // Deliver.
        for (l, inbox) in cur.iter_mut().enumerate() {
            if inbox.is_empty() {
                continue;
            }
            let to = self.global_id(l);
            let alive = self.alive.get(l).is_some_and(|a| *a);
            let mut bucket = std::mem::take(inbox);
            for Inflight { from, msg } in bucket.drain(..) {
                if !alive {
                    // Crashed nodes receive nothing (rare: the enqueue guard
                    // and crash purge catch almost everything earlier).
                    self.metrics.on_drop(DropReason::Crashed, msg.class());
                    continue;
                }
                if partition_active && fault.severed(from, to, now) {
                    self.metrics.on_drop(DropReason::Partitioned, msg.class());
                    continue;
                }
                if loss_active {
                    let rate = fault.loss_rate(from, to, now);
                    if rate > 0.0 && self.rngs[l].random::<f64>() < rate {
                        self.metrics.on_drop(DropReason::Loss, msg.class());
                        continue;
                    }
                }
                self.metrics.on_recv(to, msg.class(), msg.kind());
                let mut ctx = Context {
                    me: to,
                    now,
                    rng: &mut self.rngs[l],
                    out: &mut self.scratch_out,
                };
                self.procs[l].on_message(from, msg, &mut ctx);
                self.stage_outgoing(to, Phase::Deliver, now);
            }
            *inbox = bucket;
        }
        self.wheel[slot] = cur;

        // Tick.
        for l in 0..self.procs.len() {
            if !self.alive[l] {
                continue;
            }
            let id = self.global_id(l);
            let mut ctx = Context {
                me: id,
                now,
                rng: &mut self.rngs[l],
                out: &mut self.scratch_out,
            };
            self.procs[l].on_tick(&mut ctx);
            self.stage_outgoing(id, Phase::Tick, now);
        }
    }

    /// Drains the scratch outbox into the staging outboxes, accounting sends.
    /// The dead-destination check is deferred to the barrier merge (remote
    /// liveness is not readable mid-step; liveness cannot change during the
    /// parallel phase, so checking at the barrier is equivalent).
    ///
    /// With a single shard every destination is local and the production
    /// order already *is* the canonical merged order, so sends enqueue
    /// directly — the default `DPS_SHARDS=1` configuration must not pay a
    /// staging round-trip per message for a merge with nothing to merge.
    fn stage_outgoing(&mut self, from: NodeId, phase: Phase, now: Step) {
        if self.staging.len() == 1 {
            let mut out = std::mem::take(&mut self.scratch_out);
            for (to, msg) in out.drain(..) {
                self.metrics.on_send(from, msg.class());
                self.enqueue(from, to, msg, now);
            }
            self.scratch_out = out;
            return;
        }
        let Shard {
            scratch_out,
            metrics,
            staging,
            ..
        } = self;
        let n_shards = staging.len();
        for (to, msg) in scratch_out.drain(..) {
            metrics.on_send(from, msg.class());
            let outbox = &mut staging[to.index() % n_shards];
            let buf = match phase {
                Phase::Deliver => &mut outbox.deliver,
                Phase::Tick => &mut outbox.tick,
            };
            buf.push(Staged { from, to, msg });
        }
    }
}
