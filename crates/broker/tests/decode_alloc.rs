//! Allocation pin for the wire decoder: a frame is read in one pass, straight
//! into the value it becomes, so decoding allocates what that value keeps and
//! nothing else — no `json::Value` tree, no owned keys, no number strings.
//!
//! The `Deliver` is the one the `fanout_wide` benchmark sends: two integer
//! coordinates, ≈ 110 bytes. Its value needs four blocks — the `Arc<Event>`,
//! the attribute `Vec` and one `Arc<str>` per name — and a string-valued
//! attribute one more for its `Arc<str>`. Measured: 4 and 5, against 30 and
//! 32 at the parent commit, whose decoder parsed a tree first (every key,
//! number and string its own `String`) and cloned out of it. `Credit` and
//! `Ack { error: null }` hold no heap value at all and decode without a
//! single allocation (parent: 7 and 12).
//!
//! A `FrameReader` decodes the event of a run of `Deliver`s once: the first
//! `Deliver` of a publication it reads allocates those 4 blocks, every further
//! one — whatever its `sub` — none, and all of them hold the one event.
//!
//! As in `fanout_alloc.rs`, the probe is a counting `GlobalAlloc` shim armed
//! only around the measured call. Single `#[test]` on purpose: the shim is
//! process-global, so a concurrently running test would pollute the counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use dps_broker::wire::{decode, encode, Frame, FrameReader, PubRef};
use dps_content::{Event, Value};

static ARMED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

struct CountingAlloc;

impl CountingAlloc {
    fn record() {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
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

/// Allocations made decoding `frame`'s own encoding (which must decode to it).
fn decode_allocs(frame: &Frame) -> u64 {
    let bytes = encode(frame).unwrap();
    ALLOCS.store(0, Ordering::Relaxed);
    ARMED.store(true, Ordering::Relaxed);
    let decoded = decode(&bytes);
    ARMED.store(false, Ordering::Relaxed);
    assert_eq!(decoded.unwrap(), Some((frame.clone(), bytes.len())));
    ALLOCS.load(Ordering::Relaxed)
}

#[test]
fn decoding_allocates_what_the_value_keeps() {
    let deliver = |second: Value| Frame::Deliver {
        sub: 17,
        publisher: 3,
        pub_seq: 1045,
        event: Event::new([("x", Value::from(359)), ("y", second)]).into(),
    };
    let ints = deliver(Value::from(737));
    assert_eq!(decode_allocs(&ints), 4, "Arc<Event>, Vec, two names");
    assert_eq!(
        decode_allocs(&deliver(Value::from("north"))),
        5,
        "and the string value"
    );
    assert_eq!(decode_allocs(&Frame::Credit { sub: 17, more: 32 }), 0);
    let ack = Frame::Ack {
        seq: 9,
        pub_id: Some(PubRef { node: 3, seq: 1045 }),
        error: None,
    };
    assert_eq!(decode_allocs(&ack), 0);

    // Through one reader: the event of a publication is decoded once.
    let mut reader = FrameReader::new();
    let deliver = |sub: u64, pub_seq: u32, x: i64| Frame::Deliver {
        sub,
        publisher: 3,
        pub_seq,
        event: Event::new([("x", Value::from(x)), ("y", Value::from(737))]).into(),
    };
    // A publication of the same size first, so that remembering an event
    // needs no room the reader does not have yet.
    read_allocs(&mut reader, &deliver(17, 1044, 358));
    let (allocs, first) = read_allocs(&mut reader, &deliver(17, 1045, 359));
    assert_eq!(allocs, 4, "the first Deliver of a publication decodes it");
    for sub in [18, 19, 17, 1 << 40] {
        let (allocs, again) = read_allocs(&mut reader, &deliver(sub, 1045, 359));
        assert_eq!(
            allocs, 0,
            "a further Deliver of it (sub {sub}) allocates nothing"
        );
        assert!(std::ptr::eq(event(&first).inner(), event(&again).inner()));
    }
    let (allocs, other) = read_allocs(&mut reader, &deliver(17, 1046, 360));
    assert_eq!(allocs, 4, "another publication is decoded");
    assert!(!std::ptr::eq(event(&first).inner(), event(&other).inner()));
    let (allocs, back) = read_allocs(&mut reader, &deliver(18, 1045, 359));
    assert_eq!(allocs, 4, "and so is the first one again after it");
    assert!(!std::ptr::eq(event(&other).inner(), event(&back).inner()));
}

/// Allocations `reader` makes reading `frame`'s own encoding (which it must
/// read as `frame`), and what it read.
fn read_allocs(reader: &mut FrameReader, frame: &Frame) -> (u64, Frame) {
    reader.feed(&encode(frame).unwrap());
    ALLOCS.store(0, Ordering::Relaxed);
    ARMED.store(true, Ordering::Relaxed);
    let read = reader.next_frame();
    ARMED.store(false, Ordering::Relaxed);
    let read = read.unwrap().expect("a whole frame was fed");
    assert_eq!(&read, frame);
    (ALLOCS.load(Ordering::Relaxed), read)
}

fn event(frame: &Frame) -> &dps_content::SharedEvent {
    match frame {
        Frame::Deliver { event, .. } => event,
        other => panic!("a Deliver, not {other:?}"),
    }
}
