//! Transport abstraction for the broker and its clients.
//!
//! The wire protocol ([`crate::wire`]) is transport-agnostic: anything that
//! moves ordered bytes both ways can carry it. This module defines the three
//! traits the broker is written against — [`Connection`], [`Listener`],
//! [`Transport`] — and ships two implementations:
//!
//! - [`UnixTransport`]: Unix-domain stream sockets, for real multi-process
//!   deployments (and the CI smoke job);
//! - [`ChannelTransport`]: an in-process byte-queue transport, for
//!   deterministic lockstep tests — no kernel, no scheduler, byte-identical
//!   runs. A pipe moves bytes in one copy each way (a `send` appends its
//!   buffer, a `recv` copies out all that is queued and fits), and a `recv`
//!   on an empty open pipe returns a `WouldBlock` that allocates nothing:
//!   the broker reads every session every turn, so most reads find nothing.
//!
//! TCP or QUIC drop in later by implementing the same three traits; nothing
//! in the broker or client names a socket type.
//!
//! # Non-blocking contract
//!
//! All connections are non-blocking. `recv` and `send` follow std's
//! convention: `Err(e)` with `e.kind() == WouldBlock` means "nothing to do
//! right now", `Ok(0)` from `recv` means the peer closed cleanly. The broker's
//! event loop relies on this: it must never park inside one session's socket
//! while other sessions have work.
//!
//! # Waiting
//!
//! What parks instead is [`wait_readable`], the one function everything that
//! waits for a peer calls: given what each connection and the listener
//! report through `readiness`, it blocks until any of them has something to
//! read or a timeout passes — or, when one of them has no descriptor to
//! watch, sleeps a short fixed period as every wait loop did before.

use std::collections::{HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::os::unix::io::{AsRawFd, RawFd};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::Duration;

pub use crate::poll::Source;

/// One ordered, bidirectional byte stream (non-blocking; see module docs).
pub trait Connection: Send {
    /// Writes as much of `buf` as the transport will take; `WouldBlock` when
    /// the peer's window is full.
    fn send(&mut self, buf: &[u8]) -> io::Result<usize>;
    /// Reads available bytes; `Ok(0)` is clean EOF, `WouldBlock` means none
    /// buffered yet.
    fn recv(&mut self, buf: &mut [u8]) -> io::Result<usize>;
    /// Closes the write side; the peer's next `recv` drains to `Ok(0)`.
    fn shutdown(&mut self);
    /// A descriptor [`wait_readable`] can watch for this connection: once it
    /// polls readable, `recv` returns bytes, `Ok(0)` or a hard error, and
    /// while it does not, `recv` would return `WouldBlock`. `None` (the
    /// default) is always legal and makes every wait that includes this
    /// connection a short sleep.
    fn readiness(&self) -> Option<RawFd> {
        None
    }
}

/// Accepts inbound [`Connection`]s (non-blocking).
pub trait Listener: Send {
    /// The next pending connection, or `None` when nobody is waiting.
    fn accept(&mut self) -> io::Result<Option<Box<dyn Connection>>>;
    /// The address this listener is bound to, for logs.
    fn local_addr(&self) -> String;
    /// As [`Connection::readiness`]: readable means `accept` has a connection
    /// (or an error) to return.
    fn readiness(&self) -> Option<RawFd> {
        None
    }
}

/// How long [`wait_readable`] sleeps when a source has no descriptor: the
/// period of the poll loop it then is.
const BLIND_WAIT: Duration = Duration::from_micros(200);

/// Waits until one of `sources` is readable or `timeout` passes, whichever
/// comes first, and returns whether it was the former. Readable is
/// level-triggered: the caller must read the source dry (to `WouldBlock`) or
/// leave it out of the next wait, or that wait returns at once.
///
/// When a source has no descriptor ([`Connection::readiness`] returned
/// `None`), or the platform has no `ppoll(2)` (anything but 64-bit Linux),
/// nothing can wake the wait: it sleeps `min(timeout, 200 µs)` and returns
/// `false`, so the caller is a poll loop of that period.
pub fn wait_readable(sources: &mut [Source], timeout: Duration) -> bool {
    if sources.iter().all(Source::has_descriptor) {
        if let Some(ready) = crate::poll::wait(sources, timeout) {
            return ready;
        }
    }
    std::thread::sleep(timeout.min(BLIND_WAIT));
    false
}

/// A way of reaching (and serving) brokers: names addresses, mints listeners
/// and connections.
pub trait Transport {
    /// Binds a listener at `addr`.
    fn listen(&self, addr: &str) -> io::Result<Box<dyn Listener>>;
    /// Connects to the listener at `addr`.
    fn connect(&self, addr: &str) -> io::Result<Box<dyn Connection>>;
}

// ---------------------------------------------------------------------------
// Unix-domain sockets
// ---------------------------------------------------------------------------

/// [`Transport`] over Unix-domain stream sockets; `addr` is a filesystem path.
/// Binding unlinks a stale socket file first, so a crashed broker does not
/// wedge its successor.
#[derive(Debug, Default, Clone, Copy)]
pub struct UnixTransport;

struct UnixConn(UnixStream);

impl Connection for UnixConn {
    fn send(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0.write(buf)
    }

    fn recv(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.0.read(buf)
    }

    fn shutdown(&mut self) {
        let _ = self.0.shutdown(std::net::Shutdown::Write);
    }

    fn readiness(&self) -> Option<RawFd> {
        Some(self.0.as_raw_fd())
    }
}

struct UnixAcceptor {
    listener: UnixListener,
    path: PathBuf,
}

impl Listener for UnixAcceptor {
    fn accept(&mut self) -> io::Result<Option<Box<dyn Connection>>> {
        match self.listener.accept() {
            Ok((stream, _)) => {
                stream.set_nonblocking(true)?;
                Ok(Some(Box::new(UnixConn(stream))))
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => Ok(None),
            Err(e) => Err(e),
        }
    }

    fn local_addr(&self) -> String {
        self.path.display().to_string()
    }

    fn readiness(&self) -> Option<RawFd> {
        Some(self.listener.as_raw_fd())
    }
}

impl Drop for UnixAcceptor {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

impl Transport for UnixTransport {
    fn listen(&self, addr: &str) -> io::Result<Box<dyn Listener>> {
        let path = PathBuf::from(addr);
        if path.exists() {
            std::fs::remove_file(&path)?;
        }
        let listener = UnixListener::bind(&path)?;
        listener.set_nonblocking(true)?;
        Ok(Box::new(UnixAcceptor { listener, path }))
    }

    fn connect(&self, addr: &str) -> io::Result<Box<dyn Connection>> {
        let stream = UnixStream::connect(addr)?;
        stream.set_nonblocking(true)?;
        Ok(Box::new(UnixConn(stream)))
    }
}

// ---------------------------------------------------------------------------
// In-process channels
// ---------------------------------------------------------------------------

/// One direction of a channel connection.
#[derive(Debug, Default)]
struct Pipe {
    bytes: VecDeque<u8>,
    closed: bool,
}

type SharedPipe = Arc<Mutex<Pipe>>;

struct ChannelConn {
    /// Bytes we read (peer writes here).
    rx: SharedPipe,
    /// Bytes we write (peer reads here).
    tx: SharedPipe,
}

impl Connection for ChannelConn {
    fn send(&mut self, buf: &[u8]) -> io::Result<usize> {
        let mut p = self.tx.lock().unwrap();
        if p.closed {
            return Err(io::Error::new(io::ErrorKind::BrokenPipe, "peer closed"));
        }
        p.bytes.extend(buf);
        Ok(buf.len())
    }

    fn recv(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let mut p = self.rx.lock().unwrap();
        if p.bytes.is_empty() {
            return if p.closed {
                Ok(0)
            } else {
                Err(io::ErrorKind::WouldBlock.into())
            };
        }
        // `read` would stop at the end of the deque's front half;
        // `read_exact` copies from both.
        let n = buf.len().min(p.bytes.len());
        p.bytes.read_exact(&mut buf[..n])?;
        Ok(n)
    }

    fn shutdown(&mut self) {
        self.tx.lock().unwrap().closed = true;
    }
}

impl Drop for ChannelConn {
    fn drop(&mut self) {
        self.tx.lock().unwrap().closed = true;
        self.rx.lock().unwrap().closed = true;
    }
}

#[derive(Default)]
struct ChannelRegistry {
    /// Pending server-side halves per listening address.
    pending: HashMap<String, VecDeque<ChannelConn>>,
    listening: HashMap<String, bool>,
}

/// In-process [`Transport`]: connections are paired byte queues, addresses
/// live in a registry shared by `clone`s of this value. Fully deterministic —
/// no kernel buffering, no thread scheduling — which is what makes lockstep
/// broker tests byte-identical across runs.
#[derive(Clone, Default)]
pub struct ChannelTransport {
    registry: Arc<Mutex<ChannelRegistry>>,
}

impl ChannelTransport {
    /// A fresh, empty address space.
    pub fn new() -> Self {
        ChannelTransport::default()
    }
}

struct ChannelListener {
    registry: Arc<Mutex<ChannelRegistry>>,
    addr: String,
}

impl Listener for ChannelListener {
    fn accept(&mut self) -> io::Result<Option<Box<dyn Connection>>> {
        let mut reg = self.registry.lock().unwrap();
        Ok(reg
            .pending
            .get_mut(&self.addr)
            .and_then(|q| q.pop_front())
            .map(|c| Box::new(c) as Box<dyn Connection>))
    }

    fn local_addr(&self) -> String {
        self.addr.clone()
    }
}

impl Drop for ChannelListener {
    fn drop(&mut self) {
        let mut reg = self.registry.lock().unwrap();
        reg.listening.remove(&self.addr);
        reg.pending.remove(&self.addr);
    }
}

impl Transport for ChannelTransport {
    fn listen(&self, addr: &str) -> io::Result<Box<dyn Listener>> {
        let mut reg = self.registry.lock().unwrap();
        if reg.listening.insert(addr.to_string(), true).is_some() {
            return Err(io::Error::new(
                io::ErrorKind::AddrInUse,
                format!("channel address {addr:?} already has a listener"),
            ));
        }
        reg.pending.entry(addr.to_string()).or_default();
        Ok(Box::new(ChannelListener {
            registry: self.registry.clone(),
            addr: addr.to_string(),
        }))
    }

    fn connect(&self, addr: &str) -> io::Result<Box<dyn Connection>> {
        let mut reg = self.registry.lock().unwrap();
        if !reg.listening.contains_key(addr) {
            return Err(io::Error::new(
                io::ErrorKind::ConnectionRefused,
                format!("no channel listener at {addr:?}"),
            ));
        }
        let client_to_server: SharedPipe = Arc::default();
        let server_to_client: SharedPipe = Arc::default();
        let server_half = ChannelConn {
            rx: client_to_server.clone(),
            tx: server_to_client.clone(),
        };
        reg.pending
            .get_mut(addr)
            .expect("listening implies a pending queue")
            .push_back(server_half);
        Ok(Box::new(ChannelConn {
            rx: server_to_client,
            tx: client_to_server,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn channel_pair_moves_bytes_both_ways() {
        let t = ChannelTransport::new();
        let mut listener = t.listen("hub").unwrap();
        assert!(listener.accept().unwrap().is_none());
        let mut client = t.connect("hub").unwrap();
        let mut server = listener.accept().unwrap().expect("one pending conn");

        client.send(b"ping").unwrap();
        let mut buf = [0u8; 8];
        assert_eq!(server.recv(&mut buf).unwrap(), 4);
        assert_eq!(&buf[..4], b"ping");
        server.send(b"pong").unwrap();
        assert_eq!(client.recv(&mut buf).unwrap(), 4);
        assert_eq!(&buf[..4], b"pong");

        // Empty queue reads as WouldBlock while open, EOF once shut down.
        assert_eq!(
            client.recv(&mut buf).unwrap_err().kind(),
            io::ErrorKind::WouldBlock
        );
        server.shutdown();
        assert_eq!(client.recv(&mut buf).unwrap(), 0);
    }

    #[test]
    fn connect_without_listener_is_refused() {
        let t = ChannelTransport::new();
        let err = match t.connect("nowhere") {
            Err(e) => e,
            Ok(_) => panic!("connect to a bare address must fail"),
        };
        assert_eq!(err.kind(), io::ErrorKind::ConnectionRefused);
    }

    #[test]
    fn unix_round_trip() {
        let dir = std::env::temp_dir().join(format!("dps-ut-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let addr = dir.join("t.sock").display().to_string();
        let t = UnixTransport;
        let mut listener = t.listen(&addr).unwrap();
        assert!(listener.accept().unwrap().is_none());
        let mut client = t.connect(&addr).unwrap();
        let mut server = loop {
            if let Some(c) = listener.accept().unwrap() {
                break c;
            }
        };
        client.send(b"hello").unwrap();
        let mut buf = [0u8; 16];
        let n = loop {
            match server.recv(&mut buf) {
                Ok(n) => break n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => continue,
                Err(e) => panic!("recv: {e}"),
            }
        };
        assert_eq!(&buf[..n], b"hello");
        drop(listener);
        assert!(!std::path::Path::new(&addr).exists(), "socket unlinked");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A listener at `addr`, a connected client and the accepted server half.
    fn unix_pair(addr: &str) -> (Box<dyn Listener>, Box<dyn Connection>, Box<dyn Connection>) {
        let mut listener = UnixTransport.listen(addr).unwrap();
        let client = UnixTransport.connect(addr).unwrap();
        let server = loop {
            if let Some(c) = listener.accept().unwrap() {
                break c;
            }
        };
        (listener, client, server)
    }

    /// A socket path of this test's own; the listener unlinks it on drop.
    fn scratch_addr(name: &str) -> String {
        let file = format!("dps-ut-{}-{name}.sock", std::process::id());
        std::env::temp_dir().join(file).display().to_string()
    }

    // The timing bounds below are an order of magnitude away from what they
    // bound: they tell a wake from a timeout, not how fast either is.
    #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
    #[test]
    fn wait_readable_wakes_on_bytes_hang_up_and_pending_connects() {
        let addr = scratch_addr("wake");
        let (mut listener, mut client, mut server) = unix_pair(&addr);
        let mut sources = [listener.readiness().into(), server.readiness().into()];

        let asked = Duration::from_millis(30);
        let t0 = std::time::Instant::now();
        assert!(
            !wait_readable(&mut sources, asked),
            "nothing written, nobody waiting"
        );
        assert!(t0.elapsed() >= asked, "a timeout is never cut short");

        let t0 = std::time::Instant::now();
        let writer = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            client.send(b"late").unwrap();
            client
        });
        assert!(wait_readable(&mut sources, Duration::from_secs(2)));
        assert!(
            t0.elapsed() < Duration::from_secs(1),
            "woken, not timed out"
        );
        let mut buf = [0u8; 8];
        assert_eq!(server.recv(&mut buf).unwrap(), 4);
        assert!(
            !wait_readable(&mut sources, Duration::from_millis(1)),
            "read dry"
        );

        // A peer that hung up is readable for good: the next `recv` says so.
        drop(writer.join().unwrap());
        assert!(wait_readable(&mut sources[1..], Duration::from_secs(2)));
        assert_eq!(server.recv(&mut buf).unwrap(), 0);

        // So is a listener somebody is waiting on.
        let _second = UnixTransport.connect(&addr).unwrap();
        assert!(wait_readable(&mut sources[..1], Duration::from_secs(2)));
        assert!(listener.accept().unwrap().is_some());
    }

    #[test]
    fn a_source_without_a_descriptor_turns_the_wait_into_a_short_sleep() {
        let channel = ChannelTransport::new();
        let _listener = channel.listen("hub").unwrap();
        let mut conn = channel.connect("hub").unwrap();
        assert!(conn.readiness().is_none());
        let (_listener, mut client, server) = unix_pair(&scratch_addr("blind"));
        client.send(b"ready").unwrap();

        // Even beside a socket that is readable, and however long was asked.
        let mut sources = [server.readiness().into(), conn.readiness().into()];
        let t0 = std::time::Instant::now();
        assert!(!wait_readable(&mut sources, Duration::from_secs(10)));
        assert!(t0.elapsed() < Duration::from_secs(1));
        conn.shutdown();
    }
}
