//! Footprint pin for publication dedup: what a remembered key costs, and what
//! a publication leaves behind on the overlay that routed it.
//!
//! Every node a publication touches remembers it twice — once per node
//! (`seen_node`, `SEEN_CAP` keys) and once per group it was routed through
//! (`seen_route`, 4 × that) — so until the caps are reached dedup state *is*
//! the overlay's growth per publication (ARCHITECTURE.md, "Memory layout at
//! metro scale"). `SeenCache` holds each key once, in a ring, behind a table
//! of 4-byte ring positions at load ≤ ½:
//!
//! (a) filled to its cap, a cache of 8-byte keys at cap 512 costs 16 bytes a
//!     key and one of 12-byte keys at cap 2 048 costs 20 (pinned at ≤ 20 and
//!     ≤ 24; a `HashSet` + `VecDeque` pair of `PubId` / `(PubId, u32)` cost
//!     ≈ 50 and ≈ 74), `heap_bytes()` is exactly what the allocator handed
//!     out, and 10 × cap further inserts — every one an eviction — neither
//!     grow it by a byte nor allocate; nor do duplicate inserts and removes
//!     of absent keys, a fresh cache's included;
//! (b) on the 8 nodes × 64 subscriptions leader/root overlay of
//!     `hop_alloc.rs`, with deliveries drained every turn so the watch queues
//!     hold nothing but their id sets, 300 publications from cold grow the
//!     live heap by 1 810 bytes each (pinned at ≤ 2 100), of which
//!     `Overlay::dedup_bytes()` accounts for 1 311. The parent of this pin,
//!     which stored 16- and 24-byte keys twice over, grew by 4 992 bytes a
//!     publication on the same fixture.
//!
//! The probe is a `GlobalAlloc` shim keeping the process's live heap bytes
//! and an allocation count, as in `crates/broker/tests/served_retention.rs`;
//! single `#[test]` because the shim is process-global.

use std::alloc::{GlobalAlloc, Layout, System};
use std::hash::Hash;
use std::sync::atomic::{AtomicIsize, AtomicU64, Ordering};
use std::sync::Arc;

use dps::{CommKind, DpsConfig, Overlay, QueueSink, TraversalKind};
use dps_overlay::SeenCache;
use dps_workload::Workload;
use rand::rngs::StdRng;
use rand::SeedableRng;

static LIVE: AtomicIsize = AtomicIsize::new(0);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

struct LiveBytes;

unsafe impl GlobalAlloc for LiveBytes {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        LIVE.fetch_add(
            new_size as isize - layout.size() as isize,
            Ordering::Relaxed,
        );
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: LiveBytes = LiveBytes;

fn live() -> isize {
    LIVE.load(Ordering::SeqCst)
}

fn allocs() -> u64 {
    ALLOCS.load(Ordering::SeqCst)
}

/// Part (a) for one key shape: `key(n)` must be injective.
fn full_cache_costs<T: Eq + Hash>(cap: usize, bytes_a_key: usize, key: fn(u32) -> T) {
    let base = live();
    let mut cache = SeenCache::new(cap);
    assert!(!cache.contains(&key(0)) && !cache.remove(&key(0)));
    assert_eq!(
        (cache.heap_bytes(), live()),
        (0, base),
        "a fresh cache owns no heap"
    );

    let mut fresh = 0u32..;
    for n in fresh.by_ref().take(cap) {
        assert!(cache.insert(key(n)));
    }
    let held = cache.heap_bytes();
    assert_eq!(
        held as isize,
        live() - base,
        "heap_bytes() is what the allocator handed out"
    );
    assert!(
        held <= bytes_a_key * cap,
        "{held} bytes for {cap} keys = {:.1} a key, over {bytes_a_key}",
        held as f64 / cap as f64
    );

    let before = allocs();
    for n in fresh.by_ref().take(10 * cap) {
        assert!(cache.insert(key(n)), "fresh key, evicting");
        assert!(!cache.insert(key(n)), "duplicate");
        assert!(!cache.remove(&key(n + 1)), "absent");
    }
    assert_eq!(cache.len(), cap);
    assert_eq!((cache.heap_bytes(), live() - base), (held, held as isize));
    assert_eq!(allocs(), before, "a full cache never allocates");
}

#[test]
fn a_remembered_publication_costs_its_packed_key_and_one_table_slot() {
    // (a) The two key shapes the overlay stores, at the caps it stores them.
    full_cache_costs(512, 20, |n| (n % 61, n / 61));
    full_cache_costs(2048, 24, |n| (n % 61, n / 61, n % 7));

    // (b) The overlay, from cold.
    const NODES: usize = 8;
    const SUBS: usize = 64;
    const PUBS: usize = 300;
    const PUBLISHERS: usize = 4;

    let sink = Arc::new(QueueSink::default());
    let cfg = DpsConfig::named(TraversalKind::Root, CommKind::Leader);
    let mut net = Overlay::new(cfg, 0xA110C, sink.clone());
    let nodes = net.add_nodes(NODES);
    let game = Workload::multiplayer_game();
    let mut rng = StdRng::seed_from_u64(22);
    for node in &nodes {
        sink.watch(*node);
        for _ in 0..SUBS {
            net.try_subscribe(*node, game.subscription(&mut rng))
                .expect("live node");
        }
        net.run(20);
    }
    assert!(net.quiesce(3000), "every subscription placed");
    net.run(600);

    let mut drained = Vec::with_capacity(4 * PUBLISHERS * NODES);
    let mut delivered = 0;
    let (heap_before, dedup_before) = (live(), net.dedup_bytes());
    for _turn in 0..PUBS / PUBLISHERS {
        for publisher in &nodes[..PUBLISHERS] {
            net.try_publish(*publisher, game.event(&mut rng))
                .expect("live node");
        }
        net.run(4);
        for node in &nodes {
            sink.drain_deliveries(*node, &mut drained);
        }
        delivered += drained.len();
        drained.clear();
    }
    net.run(300); // past the re-flush window: no event payload is still held
    let grown = (live() - heap_before) as f64 / PUBS as f64;
    let dedup = (net.dedup_bytes() - dedup_before) as f64 / PUBS as f64;
    assert!(delivered > PUBS, "the fixture delivers: {delivered}");
    assert!(
        dedup > 0.5 * grown,
        "dedup state is {dedup:.0} of the {grown:.0} bytes a publication leaves behind"
    );
    assert!(
        grown <= 2100.0,
        "{grown:.0} bytes of live heap per publication ({dedup:.0} of them dedup state)"
    );
}
