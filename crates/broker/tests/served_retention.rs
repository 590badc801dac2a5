//! Retention pin for the served path: once the overlay's bounded caches are
//! full, a publication that has been delivered leaves (almost) nothing behind
//! in the broker — no ground-truth record, no contact or notify pairs. What
//! still grows is each session queue's dedup set, one publication id per
//! delivery.
//!
//! The probe is a `GlobalAlloc` shim keeping the process's live heap bytes
//! (the counting pattern of `fanout_alloc.rs`): broker and clients share the
//! process, so the clients keep nothing of what they read.
//!
//! Single `#[test]` on purpose: the allocator shim is process-global.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};

use dps_broker::wire::{encode, Frame, FrameReader, PROTOCOL_VERSION};
use dps_broker::{Broker, BrokerConfig, ChannelTransport, Connection, Transport};
use dps_content::{Event, SharedEvent, Value};

static LIVE: AtomicIsize = AtomicIsize::new(0);

struct LiveBytes;

unsafe impl GlobalAlloc for LiveBytes {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
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

/// A session that reads everything it is sent and keeps only a count.
struct Client {
    conn: Box<dyn Connection>,
    reader: FrameReader,
    delivers: usize,
}

impl Client {
    fn connect(t: &ChannelTransport) -> Self {
        let mut c = Client {
            conn: t.connect("hub").expect("broker is listening"),
            reader: FrameReader::new(),
            delivers: 0,
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
            self.delivers += usize::from(matches!(f, Frame::Deliver { .. }));
        }
    }
}

const SESSIONS: usize = 16;
const WARM_UP: usize = 1_000;
const MEASURED: usize = 4_000;

/// The broker, `SESSIONS` subscribed sessions and one publishing session.
struct Rig {
    broker: Broker,
    clients: Vec<Client>,
    publisher: Client,
    published: usize,
}

impl Rig {
    fn turn(&mut self) {
        self.broker.pump().unwrap();
        self.clients.iter_mut().for_each(Client::read);
        self.publisher.read();
    }

    /// One publication per turn, then turns until the last one has arrived.
    fn publish(&mut self, n: usize) {
        for _ in 0..n {
            self.published += 1;
            let load = Value::from(self.published as i64);
            self.publisher.send(&Frame::Publish {
                seq: self.published as u64,
                event: SharedEvent::new(Event::new([("load", load)])),
            });
            self.turn();
        }
        for _ in 0..40 {
            self.turn();
        }
        let delivered: usize = self.clients.iter().map(|c| c.delivers).sum();
        assert_eq!(
            delivered,
            self.published * SESSIONS,
            "every session consumed everything"
        );
    }
}

#[test]
fn a_delivered_publication_leaves_under_a_kib_behind() {
    let t = ChannelTransport::new();
    let mut rig = Rig {
        broker: Broker::new(BrokerConfig::default(), t.listen("hub").unwrap()),
        clients: (0..SESSIONS).map(|_| Client::connect(&t)).collect(),
        publisher: Client::connect(&t),
        published: 0,
    };
    for c in &mut rig.clients {
        c.send(&Frame::Subscribe {
            seq: 0,
            sub: 0,
            filter: "load > 0".parse::<dps::Filter>().unwrap().into(),
            credit: 1 << 30,
        });
    }
    for _ in 0..80 {
        rig.turn();
    }

    rig.publish(WARM_UP);
    let before = LIVE.load(Ordering::SeqCst);
    rig.publish(MEASURED);
    let grown = LIVE.load(Ordering::SeqCst) - before;

    let per_pub = grown as f64 / MEASURED as f64;
    assert!(
        per_pub <= 1024.0,
        "live heap grew {grown} B over {MEASURED} delivered publications: {per_pub:.0} B each"
    );
}
