//! Allocation pin for the overlay's publication hop and for its idle tick.
//!
//! A handler reads the views where they live and allocates only for what it
//! moves into an outgoing message (ARCHITECTURE.md, "View state on the hop
//! path: read in place"). The fixture is a quiesced leader/root overlay
//! shaped like the benchmark's `fanout_wide` — 8 nodes × 64 game
//! subscriptions, every group on the `x` tree — driven the way the
//! benchmark's turn drives a broker: four publications, four steps. Labels
//! and attribute names are refcounted, so a hop itself allocates next to
//! nothing; what the armed window sees is mostly the view exchange and the
//! heartbeats running beside it (`ParentChain` / `ChildReport` / `ViewPush`
//! really carry copies of the views). Measured: 1.35 allocations per
//! `Publication`-class message received. The parent of this pin collected
//! the node's membership indices, deep-cloned every matching branch's
//! pointer list and copied the member list on every hop, and built a
//! `BTreeSet` of monitor targets per node per step: 6.82.
//!
//! The second half builds the same overlay with 2 nodes, leaves it alone
//! until the last publication has aged out of the re-flush window, then
//! steps it one step at a time: a step in which nothing is sent or received
//! — no timer fired anywhere, only the four `tick_*` passes ran over nodes
//! holding 64 memberships each — performs **zero** allocations. Two nodes
//! leave about half of all steps free (measured: 95 of 200), and the test
//! fails below 20. The 8-node overlay has no such step at the protocol's
//! 10–25-step heartbeat (its ≈ 56 monitored edges ping on every step), and
//! its steps carrying only a handful of `Ping`/`Pong`s allocate 2–7 times
//! each: heartbeat-only steps allocate, a finding not yet pinned.
//!
//! The probe is a counting `GlobalAlloc` armed around `run` only, as in
//! `zero_copy_alloc.rs`; single `#[test]` because the shim is process-global.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use dps::{CommKind, DpsConfig, Metrics, MsgClass, NodeId, Overlay, QueueSink, TraversalKind};
use dps_workload::Workload;
use rand::rngs::StdRng;
use rand::SeedableRng;

static ARMED: AtomicBool = AtomicBool::new(false);
static TOTAL: AtomicU64 = AtomicU64::new(0);

struct CountingAlloc;

impl CountingAlloc {
    fn record() {
        if ARMED.load(Ordering::Relaxed) {
            TOTAL.fetch_add(1, Ordering::Relaxed);
        }
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::record();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::record();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::record();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Allocations made by `steps` steps of `net`.
fn armed_run(net: &mut Overlay, steps: u64) -> u64 {
    let before = TOTAL.load(Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
    net.run(steps);
    ARMED.store(false, Ordering::SeqCst);
    TOTAL.load(Ordering::SeqCst) - before
}

fn traffic(m: &Metrics) -> (u64, u64) {
    let sum = |f: fn(&Metrics, MsgClass) -> u64| MsgClass::ALL.iter().map(|c| f(m, *c)).sum();
    (sum(Metrics::total_sent), sum(Metrics::total_received))
}

/// A quiesced leader/root overlay of `nodes` nodes with `SUBS` game
/// subscriptions each, every node watched, warmed up: the driver, its sink,
/// its nodes and the workload RNG.
fn fixture(nodes: usize) -> (Overlay, Arc<QueueSink>, Vec<NodeId>, StdRng) {
    const SUBS: usize = 64;
    // The simulation steps on this thread, so every allocation is counted
    // here. A `QueueSink` with every node watched is what a broker serves from.
    let sink = Arc::new(QueueSink::default());
    let cfg = DpsConfig::named(TraversalKind::Root, CommKind::Leader);
    let mut net = Overlay::new(cfg, 0xA110C, sink.clone());
    let ids = net.add_nodes(nodes);
    let game = Workload::multiplayer_game();
    let mut rng = StdRng::seed_from_u64(22);
    for node in &ids {
        sink.watch(*node);
        for _ in 0..SUBS {
            net.try_subscribe(*node, game.subscription(&mut rng))
                .expect("live node");
        }
        net.run(20);
    }
    assert!(net.quiesce(3000), "every subscription placed");
    net.run(600);

    // Warm-up: seen caches, queues, the recent-publication ring and the
    // engine's buffers reach their steady capacity.
    let mut drained = Vec::new();
    for i in 0..40 {
        let _ = net.try_publish(ids[i % nodes], game.event(&mut rng));
        net.run(8);
        for node in &ids {
            sink.drain_deliveries(*node, &mut drained);
        }
        drained.clear();
    }
    (net, sink, ids, rng)
}

#[test]
fn a_hop_allocates_for_its_messages_only_and_an_idle_tick_not_at_all() {
    const PUBS: usize = 200;
    const PUBLISHERS: usize = 4;

    let (mut net, sink, nodes, mut rng) = fixture(8);
    let game = Workload::multiplayer_game();
    let mut drained = Vec::new();
    let received_before = net.metrics().total_received(MsgClass::Publication);
    let mut allocations = 0;
    let mut delivered = 0;
    for _turn in 0..PUBS / PUBLISHERS {
        for publisher in &nodes[..PUBLISHERS] {
            net.try_publish(*publisher, game.event(&mut rng))
                .expect("live node");
        }
        allocations += armed_run(&mut net, 4);
        for node in &nodes {
            sink.drain_deliveries(*node, &mut drained);
        }
        delivered += drained.len();
        drained.clear();
    }
    let messages = net.metrics().total_received(MsgClass::Publication) - received_before;
    assert!(
        messages > 20 * PUBS as u64 && delivered > PUBS,
        "the fixture routes: {messages} publication messages, {delivered} deliveries"
    );
    let per_message = allocations as f64 / messages as f64;
    assert!(
        per_message <= 2.0,
        "{allocations} allocations over {messages} publication messages = {per_message:.2} each \
         (a hop should allocate for the messages it sends, nothing else)"
    );

    // Idle: nothing in flight and nothing left to re-flush (`REPUB_WINDOW`
    // is 240 steps); step by step.
    let (mut net, _, _, _) = fixture(2);
    net.run(300);
    let mut quiet_steps = 0;
    let mut before = traffic(&net.metrics());
    for _ in 0..200 {
        let allocated = armed_run(&mut net, 1);
        let after = traffic(&net.metrics());
        if after == before {
            quiet_steps += 1;
            assert_eq!(
                allocated, 0,
                "a step with no message sent or received allocated {allocated} time(s)"
            );
        }
        before = after;
    }
    assert!(
        quiet_steps >= 20,
        "only {quiet_steps} of 200 idle steps were free of traffic: the pin is vacuous"
    );
}
