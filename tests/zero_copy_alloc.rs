//! Steady-state allocation pin for the zero-copy fan-out path: after the
//! overlay quiesces, a publish→deliver cycle must perform **zero**
//! event-payload allocations — every hop shares the publisher's one
//! `SharedEvent` allocation by refcount.
//!
//! The probe is a counting `GlobalAlloc` shim in front of the system
//! allocator, armed only around the measured step. The payload size class is
//! made distinctive the same way `pool_lifecycle.rs` leans on `/proc`: the
//! event carries an unusual 13 attributes, so a deep `Event` clone would
//! allocate exactly `13 * size_of::<(AttrName, Value)>()` bytes for its attrs
//! vector (`AttrName` and `Value::Str` are `Arc<str>`-interned, so the vector
//! buffer is the *only* heap block a clone copies). Seeing that size class
//! during the measured window means a payload copy crept back in.
//!
//! Single `#[test]` on purpose: the allocator shim is process-global, so a
//! concurrently running test would pollute the counters.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use dps::{AttrName, CommKind, DpsConfig, DpsNetwork, Event, Filter, TraversalKind, Value};

/// Unusual attribute count that makes the payload vector's byte size a
/// recognizable allocation class.
const PAYLOAD_ATTRS: usize = 13;
const PAYLOAD_VEC_BYTES: usize = PAYLOAD_ATTRS * std::mem::size_of::<(AttrName, Value)>();

static ARMED: AtomicBool = AtomicBool::new(false);
static PAYLOAD_SIZED: AtomicU64 = AtomicU64::new(0);
static TOTAL: AtomicU64 = AtomicU64::new(0);

struct CountingAlloc;

impl CountingAlloc {
    fn record(size: usize) {
        if ARMED.load(Ordering::Relaxed) {
            TOTAL.fetch_add(1, Ordering::Relaxed);
            if size == PAYLOAD_VEC_BYTES {
                PAYLOAD_SIZED.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::record(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::record(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::record(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn payload_event(tick: i64) -> Event {
    let spec = (0..PAYLOAD_ATTRS)
        .map(|i| format!("k{i} = {}", 5 + (tick + i as i64) % 3))
        .collect::<Vec<_>>()
        .join(" & ");
    spec.parse().expect("event spec")
}

#[test]
fn steady_state_publish_performs_zero_payload_allocations() {
    // The simulation steps on this thread, so the counters are exact.
    let cfg = DpsConfig::named(TraversalKind::Root, CommKind::Leader);
    let mut net = DpsNetwork::new(cfg, 0xA110C);
    let nodes = net.add_nodes(24);

    // Subscriptions over the 13 payload attributes; thresholds 0..=2 all admit
    // the published values (5..=7), so every subscriber is a real recipient.
    for (i, node) in nodes.iter().enumerate() {
        let f: Filter = format!("k{} > {}", i % PAYLOAD_ATTRS, i % 3)
            .parse()
            .expect("filter spec");
        let _ = net.try_subscribe(*node, f);
    }
    net.run(1200); // quiesce: trees built, ownerships settled

    // Warm-up publishes from the measured publisher: grow the seen caches,
    // queues, label-intern table and recent-pub ring to steady capacity.
    let publisher = nodes[0];
    for tick in 0..8 {
        let _ = net.try_publish(publisher, payload_event(tick));
        net.run(60);
    }

    // The measured publication is built *before* arming the shim: creating an
    // event is the one payload allocation the design budgets per publication.
    let event = payload_event(99);

    ARMED.store(true, Ordering::SeqCst);
    let _ = net.try_publish(publisher, event);
    net.run(80);
    ARMED.store(false, Ordering::SeqCst);

    let payload_allocs = PAYLOAD_SIZED.load(Ordering::SeqCst);
    let total = TOTAL.load(Ordering::SeqCst);
    assert!(
        net.delivered_ratio() == 1.0,
        "measured publication must reach every expected recipient (got {})",
        net.delivered_ratio()
    );
    assert_eq!(
        payload_allocs, 0,
        "publish→deliver step deep-copied an event payload \
         ({payload_allocs} allocation(s) of the {PAYLOAD_VEC_BYTES}-byte \
         payload class out of {total} total)"
    );
}
