//! Allocation pin for the broker's fan-out: a publication is encoded once,
//! however many subscriptions and sessions it reaches. Each extra matching
//! subscription costs a pending record and a splice of the shared body into
//! an output buffer — no second encoding, no `Value` tree, no frame `Vec`.
//! Each extra receiving session costs a reference to the publication's one
//! `Event` — no copy of it.
//!
//! As in the workspace's `tests/zero_copy_alloc.rs`, the probe is a counting
//! `GlobalAlloc` shim armed only around the measured calls — here every
//! [`Broker::pump`] between one `Publish` and its last `Deliver`. The encoded
//! event is given a length no other block has, so its encodings can be
//! counted by size class: an `Arc<str>` of `n` bytes is one block of `n` plus
//! the two reference counts, rounded up to the counts' alignment. Likewise the
//! event has an attribute count no other list has: a copy of it is one block
//! of that many `(name, value)` pairs.
//!
//! Single `#[test]` on purpose: the allocator shim is process-global, so a
//! concurrently running test would pollute the counters.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};

use dps_broker::wire::{encode, EventBody, Frame, FrameReader, PROTOCOL_VERSION};
use dps_broker::{Broker, BrokerConfig, ChannelTransport, Connection, Transport};
use dps_content::{Event, SharedEvent, Value};

static ARMED: AtomicBool = AtomicBool::new(false);
static TOTAL: AtomicU64 = AtomicU64::new(0);
static BODY_BYTES: AtomicUsize = AtomicUsize::new(0);
static BODY_SIZED: AtomicU64 = AtomicU64::new(0);
static EVENT_SIZED: AtomicU64 = AtomicU64::new(0);

/// Attributes of every test event, and the block a copy of one lives in.
const ATTRS: usize = 13;
const EVENT_BYTES: usize = ATTRS * std::mem::size_of::<(dps::AttrName, Value)>();

struct CountingAlloc;

impl CountingAlloc {
    fn record(size: usize) {
        if ARMED.load(Ordering::Relaxed) {
            TOTAL.fetch_add(1, Ordering::Relaxed);
            if size == BODY_BYTES.load(Ordering::Relaxed) {
                BODY_SIZED.fetch_add(1, Ordering::Relaxed);
            }
            if size == EVENT_BYTES {
                EVENT_SIZED.fetch_add(1, Ordering::Relaxed);
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

struct Client {
    conn: Box<dyn Connection>,
    reader: FrameReader,
    frames: Vec<Frame>,
}

impl Client {
    fn connect(t: &ChannelTransport) -> Self {
        let mut c = Client {
            conn: t.connect("hub").expect("broker is listening"),
            reader: FrameReader::new(),
            frames: Vec::new(),
        };
        c.send(&Frame::Hello {
            version: PROTOCOL_VERSION,
            session: None,
        });
        c
    }

    fn send(&mut self, frame: &Frame) {
        let bytes = encode(frame).unwrap();
        assert_eq!(self.conn.send(&bytes).unwrap(), bytes.len());
    }

    fn read(&mut self) {
        let mut buf = [0u8; 4096];
        while let Ok(n) = self.conn.recv(&mut buf) {
            if n == 0 {
                break;
            }
            self.reader.feed(&buf[..n]);
        }
        while let Some(f) = self.reader.next_frame().unwrap() {
            self.frames.push(f);
        }
    }
}

/// An event matching `load > 0` whose encoding is `pad` bytes longer than
/// its fixed parts.
fn event(load: i64, pad: usize) -> SharedEvent {
    let filler = (2..ATTRS).map(|i| (format!("x{i}"), Value::from(i as i64)));
    let event = Event::new(
        [
            ("load".to_string(), Value::from(load)),
            ("pad".to_string(), Value::from("p".repeat(pad).as_str())),
        ]
        .into_iter()
        .chain(filler),
    );
    assert_eq!(event.len(), ATTRS);
    SharedEvent::new(event)
}

/// The block an encoding of `n` bytes lives in (see the module docs).
fn arc_str_block(n: usize) -> usize {
    (2 * std::mem::size_of::<usize>() + n).next_multiple_of(std::mem::align_of::<usize>())
}

struct Cost {
    /// Allocations inside `Broker::pump` from the publish to the last deliver.
    allocs: u64,
    /// Those of the encoded event's size class.
    encodings: u64,
    /// Those of the event's own size class.
    event_copies: u64,
    /// Pumps that handed at least one session a `Deliver`.
    delivering_pumps: u64,
}

/// Runs one measured publication against `sessions` subscriber sessions of
/// `subs` matching subscriptions each.
fn measure(sessions: usize, subs: u64) -> Cost {
    let t = ChannelTransport::new();
    let mut broker = Broker::new(BrokerConfig::default(), t.listen("hub").unwrap());
    let mut clients: Vec<Client> = (0..sessions).map(|_| Client::connect(&t)).collect();
    let mut publisher = Client::connect(&t);
    let turn = |broker: &mut Broker, clients: &mut Vec<Client>, publisher: &mut Client| {
        broker.pump().unwrap();
        clients.iter_mut().for_each(Client::read);
        publisher.read();
    };
    for _ in 0..3 {
        turn(&mut broker, &mut clients, &mut publisher);
    }
    for sub in 0..subs {
        for c in &mut clients {
            c.send(&Frame::Subscribe {
                seq: sub,
                sub,
                filter: "load > 0".parse::<dps::Filter>().unwrap().into(),
                credit: 1 << 20,
            });
        }
        turn(&mut broker, &mut clients, &mut publisher);
    }
    for _ in 0..80 {
        turn(&mut broker, &mut clients, &mut publisher);
    }

    // Warm-up publications grow every queue and buffer to steady capacity.
    // Their encodings are a different length from the measured one's.
    for seq in 0..8 {
        publisher.send(&Frame::Publish {
            seq,
            event: event(1 + seq as i64, 300),
        });
        for _ in 0..20 {
            turn(&mut broker, &mut clients, &mut publisher);
        }
    }
    let delivered = |clients: &[Client]| -> usize {
        clients
            .iter()
            .map(|c| {
                c.frames
                    .iter()
                    .filter(|f| matches!(f, Frame::Deliver { .. }))
                    .count()
            })
            .sum()
    };
    let expected = sessions * subs as usize;
    assert_eq!(delivered(&clients), 8 * expected, "warm-up fully delivered");

    let measured = event(99, 333);
    BODY_BYTES.store(
        arc_str_block(EventBody::encode(&measured).as_str().len()),
        Ordering::SeqCst,
    );
    TOTAL.store(0, Ordering::SeqCst);
    BODY_SIZED.store(0, Ordering::SeqCst);
    EVENT_SIZED.store(0, Ordering::SeqCst);
    publisher.send(&Frame::Publish {
        seq: 99,
        event: measured.clone(),
    });
    let mut delivering_pumps = 0;
    for _ in 0..20 {
        let before = delivered(&clients);
        ARMED.store(true, Ordering::SeqCst);
        broker.pump().unwrap();
        ARMED.store(false, Ordering::SeqCst);
        clients.iter_mut().for_each(Client::read);
        publisher.read();
        delivering_pumps += u64::from(delivered(&clients) > before);
    }
    assert_eq!(
        delivered(&clients),
        9 * expected,
        "the measured publication reached every subscription"
    );
    for c in &clients {
        let tail = &c.frames[c.frames.len() - subs as usize..];
        assert!(tail
            .iter()
            .all(|f| matches!(f, Frame::Deliver { event, .. } if *event == measured)));
    }
    Cost {
        allocs: TOTAL.load(Ordering::SeqCst),
        encodings: BODY_SIZED.load(Ordering::SeqCst),
        event_copies: EVENT_SIZED.load(Ordering::SeqCst),
        delivering_pumps,
    }
}

#[test]
fn a_publication_is_encoded_once_however_wide_it_fans_out() {
    // Width within one session: 1 → 64 matching subscriptions.
    let narrow = measure(1, 1);
    let one_session = narrow.event_copies;
    let wide = measure(1, 64);
    assert_eq!((narrow.encodings, wide.encodings), (1, 1));
    let per_sub = (wide.allocs as f64 - narrow.allocs as f64) / 63.0;
    assert!(
        per_sub < 4.0,
        "one session: {} → {} allocations, {per_sub:.2} per additional subscription",
        narrow.allocs,
        wide.allocs
    );

    // Width across sessions: 8 sessions, 1 → 8 matching subscriptions each.
    // Sessions the overlay notifies in the same turn share the encoding.
    let narrow = measure(8, 1);
    let wide = measure(8, 8);
    for cost in [&narrow, &wide] {
        assert!(
            (1..=cost.delivering_pumps).contains(&cost.encodings),
            "{} encodings over {} delivering pumps",
            cost.encodings,
            cost.delivering_pumps
        );
    }
    // Each session's delivery queue holds the publisher's `Event` itself.
    assert_eq!(
        narrow.event_copies, one_session,
        "event-sized blocks: eight receiving sessions vs one"
    );
    let per_sub = (wide.allocs as f64 - narrow.allocs as f64) / 56.0;
    assert!(
        per_sub < 4.0,
        "eight sessions: {} → {} allocations, {per_sub:.2} per additional subscription",
        narrow.allocs,
        wide.allocs
    );
}
