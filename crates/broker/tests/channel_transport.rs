//! The in-process channel transport against its `Connection` contract: bytes
//! arrive in order and whole, a `recv` takes everything queued that fits its
//! buffer, an empty open pipe reads `WouldBlock`, a closed one drains before
//! it reads `Ok(0)`, and a send to a dropped peer is `BrokenPipe`.
//!
//! The broker reads every session every turn, so most `recv`s find the pipe
//! empty: the second test pins that such a `recv` — and one that moves bytes
//! — allocates nothing. As in `fanout_alloc.rs`, the probe is a counting
//! `GlobalAlloc` shim armed only around the measured calls. It is armed per
//! thread, so the property test running beside it does not count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::VecDeque;
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};

use dps_broker::{ChannelTransport, Connection, Transport};
use proptest::prelude::*;

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
}
static ALLOCS: AtomicU64 = AtomicU64::new(0);

struct CountingAlloc;

impl CountingAlloc {
    fn record() {
        if ARMED.try_with(Cell::get).unwrap_or(false) {
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

/// A connected client and its server half.
fn pair() -> (Box<dyn Connection>, Box<dyn Connection>) {
    let t = ChannelTransport::new();
    let mut listener = t.listen("hub").unwrap();
    let client = t.connect("hub").unwrap();
    let server = listener.accept().unwrap().expect("one pending connection");
    (client, server)
}

/// One step of a session between the two halves: `true` picks the client.
#[derive(Debug, Clone)]
enum Op {
    Send(bool, Vec<u8>),
    Recv(bool, usize),
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u8..2, proptest::collection::vec(0u8..=255, 0..=5_000))
            .prop_map(|(side, bytes)| Op::Send(side == 1, bytes)),
        (0u8..2, 1usize..=8_192).prop_map(|(side, len)| Op::Recv(side == 1, len)),
    ]
}

/// Reads one `recv` into a `len`-byte buffer and checks it against what is
/// queued for that half: exactly `min(len, queued)` bytes, in order, or
/// `WouldBlock` when nothing is queued and the peer is still there.
fn recv_checked(conn: &mut dyn Connection, queued: &mut VecDeque<u8>, len: usize) {
    let mut buf = vec![0u8; len];
    match conn.recv(&mut buf) {
        Ok(n) => {
            assert!(!queued.is_empty(), "Ok({n}) from an empty open pipe");
            assert_eq!(n, len.min(queued.len()), "a recv takes all that fits");
            let want: Vec<u8> = queued.drain(..n).collect();
            assert_eq!(&buf[..n], &want[..], "bytes arrive in order");
        }
        Err(e) => {
            assert_eq!(e.kind(), io::ErrorKind::WouldBlock, "{e}");
            assert!(queued.is_empty(), "WouldBlock with bytes queued");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    /// Random sends and reads on both halves, with enough traffic to wrap
    /// each direction's queue many times, then a hang-up: whatever was
    /// still queued drains before `Ok(0)`, and the survivor's sends break.
    #[test]
    fn a_channel_pair_keeps_the_connection_contract(
        ops in proptest::collection::vec(op(), 1..=64),
        drain_len in 1usize..=8_192,
    ) {
        let (mut client, mut server) = pair();
        // What each half has yet to read: `to_client` is what the server sent.
        let mut to_client = VecDeque::new();
        let mut to_server = VecDeque::new();
        for op in ops {
            match op {
                Op::Send(true, bytes) => {
                    prop_assert_eq!(client.send(&bytes).unwrap(), bytes.len());
                    to_server.extend(bytes);
                }
                Op::Send(false, bytes) => {
                    prop_assert_eq!(server.send(&bytes).unwrap(), bytes.len());
                    to_client.extend(bytes);
                }
                Op::Recv(true, len) => recv_checked(client.as_mut(), &mut to_client, len),
                Op::Recv(false, len) => recv_checked(server.as_mut(), &mut to_server, len),
            }
        }

        drop(client);
        let mut buf = vec![0u8; drain_len];
        let mut drained = Vec::new();
        loop {
            let n = server.recv(&mut buf).expect("a closed pipe never blocks");
            if n == 0 {
                break;
            }
            prop_assert_eq!(n, drain_len.min(to_server.len() - drained.len()));
            drained.extend_from_slice(&buf[..n]);
        }
        prop_assert_eq!(&drained[..], &Vec::from(to_server)[..]);
        prop_assert_eq!(server.recv(&mut buf).unwrap(), 0, "EOF stays EOF");
        let err = server.send(b"late").unwrap_err();
        prop_assert_eq!(err.kind(), io::ErrorKind::BrokenPipe);
    }
}

/// Allocations made by `f`, with the shim armed on this thread only around it.
fn allocs_in<T>(f: impl FnOnce() -> T) -> (u64, T) {
    ALLOCS.store(0, Ordering::Relaxed);
    ARMED.set(true);
    let out = f();
    ARMED.set(false);
    (ALLOCS.load(Ordering::Relaxed), out)
}

#[test]
fn reading_a_channel_allocates_nothing() {
    let (mut client, mut server) = pair();
    let mut buf = [0u8; 4096];

    let (allocs, blocked) = allocs_in(|| {
        (0..1_000)
            .filter(|_| {
                server
                    .recv(&mut buf)
                    .is_err_and(|e| e.kind() == io::ErrorKind::WouldBlock)
            })
            .count()
    });
    assert_eq!(blocked, 1_000, "an empty open pipe would block");
    assert_eq!(allocs, 0, "polling an empty pipe allocates nothing");

    client.send(&[7u8; 1024]).unwrap();
    let (allocs, read) = allocs_in(|| server.recv(&mut buf));
    assert_eq!(read.unwrap(), 1024);
    assert_eq!(allocs, 0, "moving queued bytes allocates nothing");
}
