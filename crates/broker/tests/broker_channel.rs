//! Lockstep broker tests over the in-process [`ChannelTransport`]: a
//! single-threaded driver alternates client frame writes with
//! [`Broker::pump`] calls, so every run is fully deterministic — the final
//! test pins that determinism down to the exact bytes each client receives.

use std::io;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

use dps_broker::wire::{encode, Frame, FrameReader, PROTOCOL_VERSION};
use dps_broker::{
    Broker, BrokerConfig, ChannelTransport, Connection, Listener, Transport, MAX_OUTBUF,
    MAX_PENDING,
};
use dps_content::Event;

/// A wire-level test client: frames out, frames (and raw bytes) in.
struct TestClient {
    conn: Box<dyn Connection>,
    reader: FrameReader,
    /// Every byte ever received, for byte-identity assertions.
    received_bytes: Vec<u8>,
    frames: Vec<Frame>,
}

impl TestClient {
    fn connect(t: &ChannelTransport, addr: &str) -> Self {
        TestClient {
            conn: t.connect(addr).expect("broker is listening"),
            reader: FrameReader::new(),
            received_bytes: Vec::new(),
            frames: Vec::new(),
        }
    }

    fn send(&mut self, frame: &Frame) {
        self.send_bytes(&encode(frame).unwrap());
    }

    /// Sends `body` as a frame, as a peer with its own encoder would.
    fn send_body(&mut self, body: &str) {
        let mut bytes = (body.len() as u32).to_be_bytes().to_vec();
        bytes.extend_from_slice(body.as_bytes());
        self.send_bytes(&bytes);
    }

    fn send_bytes(&mut self, bytes: &[u8]) {
        let n = self.conn.send(bytes).expect("channel accepts all bytes");
        assert_eq!(n, bytes.len());
    }

    fn read(&mut self) {
        let mut buf = [0u8; 4096];
        loop {
            match self.conn.recv(&mut buf) {
                Ok(0) => break,
                Ok(n) => {
                    self.received_bytes.extend_from_slice(&buf[..n]);
                    self.reader.feed(&buf[..n]);
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) => panic!("recv: {e}"),
            }
        }
        while let Some(f) = self
            .reader
            .next_frame()
            .expect("broker speaks the protocol")
        {
            self.frames.push(f);
        }
    }

    fn hello(&mut self) {
        self.send(&Frame::Hello {
            version: PROTOCOL_VERSION,
            session: None,
        });
    }

    fn deliveries(&self) -> Vec<(u64, String)> {
        self.frames
            .iter()
            .filter_map(|f| match f {
                Frame::Deliver { sub, event, .. } => Some((*sub, event.to_string())),
                _ => None,
            })
            .collect()
    }

    fn acks(&self) -> Vec<&Frame> {
        self.frames
            .iter()
            .filter(|f| matches!(f, Frame::Ack { .. }))
            .collect()
    }
}

fn broker_on(t: &ChannelTransport, addr: &str, seed: u64) -> Broker {
    let cfg = BrokerConfig {
        seed,
        ..BrokerConfig::default()
    };
    Broker::new(cfg, t.listen(addr).expect("fresh address"))
}

/// One lockstep turn: broker pump, then every client drains its socket.
fn turn(broker: &mut Broker, clients: &mut [&mut TestClient]) {
    broker.pump().expect("channel listener cannot fail");
    for c in clients.iter_mut() {
        c.read();
    }
}

fn settle(broker: &mut Broker, clients: &mut [&mut TestClient], turns: usize) {
    for _ in 0..turns {
        turn(broker, clients);
    }
}

fn ev(s: &str) -> Event {
    s.parse().unwrap()
}

#[test]
fn end_to_end_delivery_over_channels() {
    let t = ChannelTransport::new();
    let mut broker = broker_on(&t, "hub", 7);
    let mut sub = TestClient::connect(&t, "hub");
    let mut pubc = TestClient::connect(&t, "hub");
    sub.hello();
    pubc.hello();
    settle(&mut broker, &mut [&mut sub, &mut pubc], 3);
    assert!(matches!(
        sub.frames[0],
        Frame::Hello {
            session: Some(_),
            ..
        }
    ));

    for (seq, id, filter) in [(1, 10, "price > 100"), (2, 11, "volume > 0")] {
        sub.send(&Frame::Subscribe {
            seq,
            sub: id,
            filter: filter.parse::<dps::Filter>().unwrap().into(),
            credit: 64,
        });
    }
    settle(&mut broker, &mut [&mut sub, &mut pubc], 60);
    let ok = |c: &TestClient| {
        let acks = c.acks().into_iter();
        acks.filter(|f| matches!(f, Frame::Ack { error: None, .. }))
            .count()
    };
    assert_eq!(ok(&sub), 2, "both subscribes are acked: {:?}", sub.frames);

    for (seq, event) in [(1, "price = 150"), (2, "price = 50"), (3, "price = 101")] {
        pubc.send(&Frame::Publish {
            seq,
            event: ev(event).into(),
        });
    }
    settle(&mut broker, &mut [&mut sub, &mut pubc], 80);

    assert_eq!(pubc.acks().len(), 3, "every publish is acked");
    let got = sub.deliveries();
    assert_eq!(
        got,
        vec![
            (10, "price = 150".to_string()),
            (10, "price = 101".to_string())
        ],
        "exactly the matching events, in publish order"
    );

    // One session, two subscriptions: a delivery reaches exactly the ones
    // its node matched, and an ended one nothing more.
    let mut publish = |sub: &mut TestClient, seq, event: &str| {
        let before = sub.deliveries().len();
        pubc.send(&Frame::Publish {
            seq,
            event: ev(event).into(),
        });
        settle(&mut broker, &mut [&mut *sub, &mut pubc], 80);
        sub.deliveries().split_off(before)
    };
    let both = "price = 120 & volume = 5".to_string();
    assert_eq!(
        publish(&mut sub, 4, &both),
        [(10, both.clone()), (11, both.clone())]
    );
    assert_eq!(
        publish(&mut sub, 5, "volume = 9"),
        [(11, "volume = 9".to_string())]
    );
    sub.send(&Frame::Unsubscribe { seq: 3, sub: 11 });
    assert_eq!(publish(&mut sub, 6, &both), [(10, both.clone())]);
    assert_eq!(ok(&sub), 3, "the unsubscribe is acked");
}

/// Attribute order on the wire is free: a peer that writes `y` before `x`
/// has published the same event, and it reaches the subscriber it matches. A
/// name written twice is no event: the frame is undecodable, which ends the
/// session with a `Close` naming the attribute.
#[test]
fn attributes_in_any_order_are_the_same_event_and_a_repeated_one_is_refused() {
    let t = ChannelTransport::new();
    let mut broker = broker_on(&t, "hub", 7);
    let mut sub = TestClient::connect(&t, "hub");
    let mut pubc = TestClient::connect(&t, "hub");
    sub.hello();
    pubc.hello();
    settle(&mut broker, &mut [&mut sub, &mut pubc], 3);
    sub.send(&Frame::Subscribe {
        seq: 1,
        sub: 10,
        filter: "y = 7".parse::<dps::Filter>().unwrap().into(),
        credit: 64,
    });
    settle(&mut broker, &mut [&mut sub, &mut pubc], 60);

    pubc.send_body(r#"{"Publish":{"seq":1,"event":{"attrs":[["y",{"Int":7}],["x",{"Int":5}]]}}}"#);
    settle(&mut broker, &mut [&mut sub, &mut pubc], 80);
    assert!(
        matches!(
            pubc.acks()[..],
            [Frame::Ack {
                seq: 1,
                error: None,
                ..
            }]
        ),
        "the publish is acked: {:?}",
        pubc.frames
    );
    assert_eq!(sub.deliveries(), vec![(10, "x = 5 & y = 7".to_string())]);

    assert_eq!(broker.session_count(), 2);
    pubc.send_body(
        r#"{"Publish":{"seq":2,"event":{"attrs":[["y",{"Int":7}],["x",{"Int":5}],["y",{"Int":8}]]}}}"#,
    );
    settle(&mut broker, &mut [&mut sub, &mut pubc], 80);
    match pubc.frames.last() {
        Some(Frame::Close { reason }) => assert!(
            reason.contains("protocol error")
                && reason.contains(r#"attribute "y" appears more than once"#),
            "the refusal names the attribute: {reason}"
        ),
        other => panic!("expected a Close, got {other:?}"),
    }
    assert_eq!(broker.session_count(), 1, "the publisher's session is gone");
    assert_eq!(
        sub.deliveries().len(),
        1,
        "and nothing of that frame got out"
    );
}

/// Hands the first accepted connection a write side the test can shut: while
/// `stall` is set its `send` reports a full window, as the socket of a peer
/// that never reads does.
struct StallFirst {
    inner: Box<dyn Listener>,
    stall: Arc<AtomicBool>,
    accepted: usize,
}

struct Gated {
    inner: Box<dyn Connection>,
    stall: Arc<AtomicBool>,
}

impl Listener for StallFirst {
    fn accept(&mut self) -> io::Result<Option<Box<dyn Connection>>> {
        let Some(inner) = self.inner.accept()? else {
            return Ok(None);
        };
        self.accepted += 1;
        Ok(Some(if self.accepted == 1 {
            Box::new(Gated {
                inner,
                stall: self.stall.clone(),
            })
        } else {
            inner
        }))
    }

    fn local_addr(&self) -> String {
        self.inner.local_addr()
    }
}

impl Connection for Gated {
    fn send(&mut self, buf: &[u8]) -> io::Result<usize> {
        if self.stall.load(Ordering::SeqCst) {
            return Err(io::ErrorKind::WouldBlock.into());
        }
        self.inner.send(buf)
    }

    fn recv(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.inner.recv(buf)
    }

    fn shutdown(&mut self) {
        self.inner.shutdown()
    }
}

/// The `load` values a client received on subscription `sub`, in order.
fn loads(c: &TestClient, sub: u64) -> Vec<u64> {
    c.deliveries()
        .into_iter()
        .filter(|(s, _)| *s == sub)
        .map(|(_, e)| e.strip_prefix("load = ").unwrap().parse().unwrap())
        .collect()
}

/// A session's frames of one publication leave back to back, which is what
/// lets its reader decode the event once. One session holds three
/// subscriptions that match both of two publications made in one turn: it
/// reads the first publication three times, then the second three times. A
/// subscription out of credit takes nothing from the others' run, and once
/// credit comes it receives its backlog oldest first. No subscription ever
/// sees its own frames out of order.
#[test]
fn a_sessions_frames_of_one_publication_leave_back_to_back() {
    let t = ChannelTransport::new();
    let mut broker = broker_on(&t, "hub", 7);
    let mut sub = TestClient::connect(&t, "hub");
    let mut pubc = TestClient::connect(&t, "hub");
    sub.hello();
    pubc.hello();
    settle(&mut broker, &mut [&mut sub, &mut pubc], 3);
    // Client ids out of subscription order; sub 20's window closes after
    // the first two publications.
    for (seq, id, filter, credit) in [
        (1, 30, "load > 0", 64),
        (2, 10, "load < 100", 64),
        (3, 20, "load > 1", 2),
    ] {
        sub.send(&Frame::Subscribe {
            seq,
            sub: id,
            filter: filter.parse::<dps::Filter>().unwrap().into(),
            credit,
        });
    }
    settle(&mut broker, &mut [&mut sub, &mut pubc], 60);
    assert_eq!(sub.acks().len(), 3, "every subscribe is acked");

    let mut publish_two = |sub: &mut TestClient, first: u64| {
        let before = sub.deliveries().len();
        for load in [first, first + 1] {
            pubc.send(&Frame::Publish {
                seq: load,
                event: ev(&format!("load = {load}")).into(),
            });
        }
        settle(&mut broker, &mut [&mut *sub, &mut pubc], 80);
        let got = sub.deliveries().split_off(before);
        let subs: Vec<u64> = got.iter().map(|(s, _)| *s).collect();
        let events: Vec<String> = got.into_iter().map(|(_, e)| e).collect();
        (subs, events)
    };
    let load = |n: u64| format!("load = {n}");

    let (subs, events) = publish_two(&mut sub, 2);
    assert_eq!(
        events,
        [2, 2, 2, 3, 3, 3].map(load),
        "one publication, then the other"
    );
    let mut first_run = subs[..3].to_vec();
    first_run.sort_unstable();
    assert_eq!(first_run, [10, 20, 30]);
    assert_eq!(
        subs[..3],
        subs[3..],
        "the session's subscriptions, in one order"
    );

    let (subs, events) = publish_two(&mut sub, 4);
    assert_eq!(events, [4, 4, 5, 5].map(load), "sub 20 is out of credit");
    assert!(!subs.contains(&20), "{subs:?}");

    sub.send(&Frame::Credit { sub: 20, more: 8 });
    settle(&mut broker, &mut [&mut sub, &mut pubc], 5);
    assert_eq!(loads(&sub, 20), [2, 3, 4, 5], "its backlog, oldest first");
    for id in [10, 30] {
        assert_eq!(loads(&sub, id), [2, 3, 4, 5], "sub {id} in order");
    }
}

#[test]
fn stalled_subscriber_does_not_stall_the_broker_or_other_sessions() {
    const PUBS: u64 = 10_000;
    let cfg = BrokerConfig {
        seed: 11,
        ..BrokerConfig::default()
    };
    let (max_pending, max_outbuf) = (MAX_PENDING as u64, MAX_OUTBUF);
    let t = ChannelTransport::new();
    let stall = Arc::new(AtomicBool::new(false));
    let mut broker = Broker::new(
        cfg,
        Box::new(StallFirst {
            inner: t.listen("hub").expect("fresh address"),
            stall: stall.clone(),
            accepted: 0,
        }),
    );
    let log = Arc::new(Mutex::new(Vec::<String>::new()));
    let sink = log.clone();
    broker.set_log(Box::new(move |line| {
        sink.lock().unwrap().push(line.to_string())
    }));
    let mut stalled = TestClient::connect(&t, "hub");
    let mut healthy = TestClient::connect(&t, "hub");
    let mut pubc = TestClient::connect(&t, "hub");
    stalled.hello();
    healthy.hello();
    pubc.hello();
    settle(&mut broker, &mut [&mut stalled, &mut healthy, &mut pubc], 3);

    let filter = || "load > 0".parse::<dps::Filter>().unwrap();
    // The stalled session stalls both ways: subscription 1 grants a window of
    // 2 and never replenishes; subscription 2 grants an ample window, but the
    // session stops reading its socket.
    for (sub, credit) in [(1, 2), (2, 1 << 30)] {
        stalled.send(&Frame::Subscribe {
            seq: sub,
            sub,
            filter: filter().into(),
            credit,
        });
    }
    healthy.send(&Frame::Subscribe {
        seq: 1,
        sub: 1,
        filter: filter().into(),
        credit: 1 << 16,
    });
    settle(
        &mut broker,
        &mut [&mut stalled, &mut healthy, &mut pubc],
        60,
    );
    assert_eq!(stalled.acks().len(), 2, "both subscriptions are acked");
    stall.store(true, Ordering::SeqCst);

    for seq in 0..PUBS {
        pubc.send(&Frame::Publish {
            seq,
            event: ev(&format!("load = {}", seq + 1)).into(),
        });
        turn(&mut broker, &mut [&mut stalled, &mut healthy, &mut pubc]);
    }
    settle(
        &mut broker,
        &mut [&mut stalled, &mut healthy, &mut pubc],
        20,
    );

    let all: Vec<u64> = (1..=PUBS).collect();
    assert_eq!(
        pubc.acks().len() as u64,
        PUBS,
        "the broker never stopped acking"
    );
    assert_eq!(
        loads(&healthy, 1),
        all,
        "the healthy session got everything"
    );
    assert!(
        stalled.deliveries().is_empty(),
        "nothing reaches a socket that is not read"
    );

    // The session starts reading again: one flush hands over everything the
    // broker held for it, which is the output cap plus at most the frame that
    // crossed it.
    let before = stalled.received_bytes.len();
    stall.store(false, Ordering::SeqCst);
    turn(&mut broker, &mut [&mut stalled, &mut healthy, &mut pubc]);
    let held = stalled.received_bytes.len() - before;
    let longest = stalled
        .frames
        .iter()
        .map(|f| encode(f).unwrap().len())
        .max()
        .unwrap();
    assert!(
        (max_outbuf..=max_outbuf + longest).contains(&held),
        "out buffer held {held} bytes; cap {max_outbuf}, longest frame {longest}"
    );
    assert_eq!(
        loads(&stalled, 1),
        [1, 2],
        "the first subscription got exactly its credit window"
    );
    let early = loads(&stalled, 2);
    assert_eq!(early, all[..early.len()], "emitted until the cap, in order");

    // Each queue kept the newest `MAX_PENDING` deliveries and dropped the
    // rest: the ample window releases them now that the buffer has room, the
    // small one once credit arrives.
    let newest = &all[(PUBS - max_pending) as usize..];
    stalled.send(&Frame::Credit {
        sub: 1,
        more: 1 << 20,
    });
    settle(
        &mut broker,
        &mut [&mut stalled, &mut healthy, &mut pubc],
        10,
    );
    assert_eq!(loads(&stalled, 2), [&early[..], newest].concat());
    assert_eq!(loads(&stalled, 1), [&[1, 2][..], newest].concat());

    // What was dropped is reported when a subscription ends, by either road.
    stalled.send(&Frame::Unsubscribe { seq: 3, sub: 1 });
    stalled.send(&Frame::Close {
        reason: "done".into(),
    });
    settle(&mut broker, &mut [&mut stalled, &mut healthy, &mut pubc], 5);
    let log = log.lock().unwrap();
    let dropped: Vec<&String> = log.iter().filter(|l| l.contains("dropped")).collect();
    assert_eq!(
        dropped,
        [
            &format!(
                "session 1: sub 1: dropped {} deliveries",
                PUBS - 2 - max_pending
            ),
            &format!(
                "session 1: sub 2: dropped {} deliveries",
                PUBS - early.len() as u64 - max_pending
            ),
        ]
    );
}

#[test]
fn graceful_close_retires_the_session() {
    let t = ChannelTransport::new();
    let mut broker = broker_on(&t, "hub", 3);
    let mut client = TestClient::connect(&t, "hub");
    client.hello();
    settle(&mut broker, &mut [&mut client], 3);
    client.send(&Frame::Subscribe {
        seq: 1,
        sub: 1,
        filter: "a > 0".parse::<dps::Filter>().unwrap().into(),
        credit: 8,
    });
    settle(&mut broker, &mut [&mut client], 40);
    assert_eq!(broker.session_count(), 1);

    client.send(&Frame::Close {
        reason: "test done".into(),
    });
    settle(&mut broker, &mut [&mut client], 5);
    assert!(
        client
            .frames
            .iter()
            .any(|f| matches!(f, Frame::Close { .. })),
        "the broker echoes Close before dropping the link"
    );
    assert_eq!(broker.session_count(), 0, "the session is reaped");
    // And the link reads EOF now.
    let mut buf = [0u8; 8];
    assert_eq!(client.conn.recv(&mut buf).unwrap(), 0);
}

#[test]
fn version_mismatch_is_refused_by_name() {
    let t = ChannelTransport::new();
    let mut broker = broker_on(&t, "hub", 3);
    let mut client = TestClient::connect(&t, "hub");
    client.send(&Frame::Hello {
        version: 99,
        session: None,
    });
    settle(&mut broker, &mut [&mut client], 3);
    match &client.frames[..] {
        [Frame::Close { reason }] => {
            assert!(
                reason.contains("version") && reason.contains("99"),
                "the refusal names the versions: {reason}"
            );
        }
        other => panic!("expected a lone Close, got {other:?}"),
    }
    assert_eq!(broker.session_count(), 0);
}

/// The determinism acceptance: the same scripted run, twice, produces
/// byte-identical streams to every client.
#[test]
fn channel_runs_are_byte_identical_for_the_same_seed() {
    fn scripted_run(seed: u64) -> (Vec<u8>, Vec<u8>) {
        let t = ChannelTransport::new();
        let mut broker = broker_on(&t, "hub", seed);
        let mut sub = TestClient::connect(&t, "hub");
        let mut pubc = TestClient::connect(&t, "hub");
        sub.hello();
        pubc.hello();
        settle(&mut broker, &mut [&mut sub, &mut pubc], 3);
        sub.send(&Frame::Subscribe {
            seq: 1,
            sub: 1,
            filter: "temp > 10 & temp < 90"
                .parse::<dps::Filter>()
                .unwrap()
                .into(),
            credit: 32,
        });
        settle(&mut broker, &mut [&mut sub, &mut pubc], 60);
        for seq in 0..20u64 {
            pubc.send(&Frame::Publish {
                seq,
                event: ev(&format!("temp = {}", (seq * 13) % 100)).into(),
            });
            settle(&mut broker, &mut [&mut sub, &mut pubc], 10);
        }
        sub.send(&Frame::Close {
            reason: "end".into(),
        });
        pubc.send(&Frame::Close {
            reason: "end".into(),
        });
        settle(&mut broker, &mut [&mut sub, &mut pubc], 5);
        (sub.received_bytes, pubc.received_bytes)
    }

    let first = scripted_run(1234);
    let second = scripted_run(1234);
    assert!(!first.0.is_empty() && !first.1.is_empty());
    // Sanity: the subscriber actually received deliveries, not just the
    // handshake, so the identity assertion covers the full delivery path.
    assert!(first.0.len() > 500, "subscriber stream is substantial");
    assert_eq!(first, second, "same seed, same script, same bytes");
}
