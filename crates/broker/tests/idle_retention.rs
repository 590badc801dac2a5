//! Retention pin for an idle broker: sessions that said `Hello` and nothing
//! more cost the same heap after ten thousand more turns. Every turn steps
//! the overlay, so anything the simulator keeps per step or per window of
//! steps shows up here as growth.
//!
//! The probe is a `GlobalAlloc` shim keeping the process's live heap bytes
//! (as in `served_retention.rs`): broker and clients share the process, and
//! the clients keep nothing of what they read.
//!
//! Single `#[test]` on purpose: the allocator shim is process-global.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};

use dps_broker::wire::{encode, Frame, FrameReader, PROTOCOL_VERSION};
use dps_broker::{Broker, BrokerConfig, ChannelTransport, Connection, Transport};

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

const SESSIONS: usize = 16;
const WARM_UP: usize = 2_000;
const MEASURED: usize = 10_000;

/// A session that sent `Hello` and from then on only reads, keeping nothing.
struct Client {
    conn: Box<dyn Connection>,
    reader: FrameReader,
}

impl Client {
    fn connect(t: &ChannelTransport) -> Self {
        let mut conn = t.connect("hub").expect("broker is listening");
        let hello = encode(&Frame::Hello {
            version: PROTOCOL_VERSION,
            session: None,
        })
        .unwrap();
        assert_eq!(conn.send(&hello).unwrap(), hello.len());
        Client {
            conn,
            reader: FrameReader::new(),
        }
    }

    fn read(&mut self) {
        let mut buf = [0u8; 4096];
        while let Ok(n) = self.conn.recv(&mut buf) {
            if n == 0 {
                break;
            }
            self.reader.feed(&buf[..n]);
        }
        while self.reader.next_frame().unwrap().is_some() {}
    }
}

#[test]
fn an_idle_broker_holds_a_flat_heap() {
    let t = ChannelTransport::new();
    let mut broker = Broker::new(BrokerConfig::default(), t.listen("hub").unwrap());
    let mut clients: Vec<Client> = (0..SESSIONS).map(|_| Client::connect(&t)).collect();
    let mut turn = |broker: &mut Broker| {
        broker.pump().unwrap();
        clients.iter_mut().for_each(Client::read);
    };
    for _ in 0..WARM_UP {
        turn(&mut broker);
    }
    let before = LIVE.load(Ordering::SeqCst);
    for _ in 0..MEASURED {
        turn(&mut broker);
    }
    let grown = LIVE.load(Ordering::SeqCst) - before;
    assert!(
        grown <= 4096,
        "live heap grew {grown} B over {MEASURED} idle turns with {SESSIONS} sessions"
    );
}
