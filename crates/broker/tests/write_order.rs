//! "Answers leave last": within one [`Broker::pump`], a session that was
//! answered is written to its socket after every session that was not, so a
//! client that reads the `Ack` of its publish finds the `Deliver`s that turn
//! emitted already sent. Lockstep over a [`ChannelTransport`] whose server
//! halves log every `send` in the order the broker made them.

use std::io;
use std::sync::{Arc, Mutex};

use dps_broker::wire::{encode, Frame, FrameReader, PROTOCOL_VERSION};
use dps_broker::{Broker, BrokerConfig, ChannelTransport, Connection, Listener, Transport};

/// `(connection, bytes)` of every `send`, connections numbered from 1 in the
/// order they were accepted — which is the order of their session ids.
type SendLog = Arc<Mutex<Vec<(usize, Vec<u8>)>>>;

struct Logging {
    inner: Box<dyn Listener>,
    log: SendLog,
    accepted: usize,
}

struct Logged {
    inner: Box<dyn Connection>,
    log: SendLog,
    id: usize,
}

impl Listener for Logging {
    fn accept(&mut self) -> io::Result<Option<Box<dyn Connection>>> {
        let Some(inner) = self.inner.accept()? else {
            return Ok(None);
        };
        self.accepted += 1;
        Ok(Some(Box::new(Logged {
            inner,
            log: self.log.clone(),
            id: self.accepted,
        })))
    }

    fn local_addr(&self) -> String {
        self.inner.local_addr()
    }
}

impl Connection for Logged {
    fn send(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = self.inner.send(buf)?;
        self.log.lock().unwrap().push((self.id, buf[..n].to_vec()));
        Ok(n)
    }

    fn recv(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.inner.recv(buf)
    }

    fn shutdown(&mut self) {
        self.inner.shutdown()
    }
}

fn send(conn: &mut Box<dyn Connection>, frame: &Frame) {
    let bytes = encode(frame).unwrap();
    assert_eq!(conn.send(&bytes).unwrap(), bytes.len());
}

fn publish(conn: &mut Box<dyn Connection>, seq: u64, event: &str) {
    let event = event.parse::<dps::Event>().unwrap().into();
    send(conn, &Frame::Publish { seq, event });
}

/// The log since it was last taken, as `(connection, "Deliver" | "Ack" | …)`
/// per frame.
fn take(log: &SendLog) -> Vec<(usize, &'static str)> {
    let mut out = Vec::new();
    for (conn, bytes) in log.lock().unwrap().drain(..) {
        let mut reader = FrameReader::new();
        reader.feed(&bytes);
        while let Some(frame) = reader.next_frame().unwrap() {
            let kind = match frame {
                Frame::Deliver { .. } => "Deliver",
                Frame::Ack { .. } => "Ack",
                _ => "other",
            };
            out.push((conn, kind));
        }
        reader.finish().expect("the channel takes whole frames");
    }
    out
}

#[test]
fn a_turn_writes_its_deliveries_before_its_acks() {
    let t = ChannelTransport::new();
    let log = SendLog::default();
    let listener = Logging {
        inner: t.listen("hub").unwrap(),
        log: log.clone(),
        accepted: 0,
    };
    let cfg = BrokerConfig {
        seed: 7,
        ..BrokerConfig::default()
    };
    let mut broker = Broker::new(cfg, Box::new(listener));

    // The publisher connects first: in session-id order its `Ack` would be
    // written before any subscriber's `Deliver`.
    let mut conns: Vec<_> = (0..4).map(|_| t.connect("hub").unwrap()).collect();
    for conn in &mut conns {
        let hello = Frame::Hello {
            version: PROTOCOL_VERSION,
            session: None,
        };
        send(conn, &hello);
    }
    let [publisher, sub_a, sub_b, other] = &mut conns[..] else {
        unreachable!("four connections")
    };
    for sub in [&mut *sub_a, &mut *sub_b] {
        let subscribe = Frame::Subscribe {
            seq: 1,
            sub: 10,
            filter: "price > 100".parse::<dps::Filter>().unwrap().into(),
            credit: 64,
        };
        send(sub, &subscribe);
    }
    for _ in 0..60 {
        broker.pump().unwrap();
    }
    take(&log);

    // One publication, one turn: both deliveries, then the ack.
    publish(publisher, 1, "price = 150");
    assert_eq!(broker.pump().unwrap(), 1);
    assert_eq!(
        take(&log),
        [(2, "Deliver"), (3, "Deliver"), (1, "Ack")],
        "the turn that applies a publish emits its deliveries, and writes them first"
    );

    // Sessions that were answered keep id order among themselves — a
    // subscriber that asked something waits its turn with them — and every
    // session that was not goes before all of them.
    publish(other, 1, "price = 200");
    publish(publisher, 2, "price = 300");
    send(sub_a, &Frame::Unsubscribe { seq: 2, sub: 99 });
    assert_eq!(broker.pump().unwrap(), 3);
    assert_eq!(
        take(&log),
        [
            (3, "Deliver"),
            (3, "Deliver"),
            (1, "Ack"),
            (2, "Ack"),
            (2, "Deliver"),
            (2, "Deliver"),
            (4, "Ack"),
        ]
    );
    assert_eq!(broker.stats().pumps, 62);
    assert_eq!(broker.stats().frames_applied, 4 + 2 + 1 + 3);
}
