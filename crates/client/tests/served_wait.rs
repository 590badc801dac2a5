//! What a served session waits for: `Broker::serve` on a thread behind a real
//! unix socket, so both sides block in `wait_readable` on descriptors. A wait
//! must end when something arrives, must not end before its deadline when
//! nothing does, and an idle broker must keep its 500 µs pace — neither
//! spinning on a descriptor it does not read, nor sleeping through requests.
//!
//! The timing bounds tell a wake from a timeout; they are an order of
//! magnitude away from both.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use dps_broker::wire::{encode, Frame, PROTOCOL_VERSION};
use dps_broker::{Broker, BrokerConfig, BrokerStats, Transport, UnixTransport};
use dps_client::Session;

const TIMEOUT: Duration = Duration::from_secs(10);

/// A socket path of this test's own; the listener unlinks it on drop.
fn scratch_addr(name: &str) -> String {
    let file = format!("dps-wait-{}-{name}.sock", std::process::id());
    std::env::temp_dir().join(file).display().to_string()
}

fn event(s: &str) -> dps::Event {
    s.parse().unwrap()
}

#[test]
fn recv_timeout_returns_on_a_delivery_and_not_before_its_deadline() {
    let addr = &scratch_addr("recv");
    let listener = UnixTransport.listen(addr).unwrap();
    let phase = &AtomicUsize::new(0);
    std::thread::scope(|scope| {
        let broker = scope.spawn(move || {
            Broker::new(BrokerConfig::default(), listener)
                .serve(|| phase.load(Ordering::SeqCst) == 2)
        });
        // The feed publishes probes until told the subscription is placed,
        // then waits for `go`, lets 50 ms pass and publishes the one event
        // the subscriber is by then blocked waiting for.
        let (go_tx, go_rx) = mpsc::channel::<()>();
        let feed = scope.spawn(move || {
            let session = Session::connect(&UnixTransport, addr, TIMEOUT).unwrap();
            let publisher = session.publisher().unwrap();
            while phase.load(Ordering::SeqCst) == 0 {
                publisher.publish(event("price = 101")).unwrap();
                std::thread::sleep(Duration::from_millis(5));
            }
            go_rx.recv().unwrap();
            std::thread::sleep(Duration::from_millis(50));
            publisher.publish(event("price = 999")).unwrap();
            session.close().unwrap();
        });

        let session = Session::connect(&UnixTransport, addr, TIMEOUT).unwrap();
        let prices = session.subscriber("price > 100".parse::<dps::Filter>().unwrap());
        let prices = prices.unwrap();
        prices.recv_timeout(TIMEOUT).expect("a probe gets through");
        phase.store(1, Ordering::SeqCst);

        go_tx.send(()).unwrap();
        let t0 = Instant::now();
        let late = loop {
            // Probes still in flight come first.
            let d = prices.recv_timeout(TIMEOUT).expect("the late event");
            if d.event.to_string() == "price = 999" {
                break t0.elapsed();
            }
        };
        assert!(late >= Duration::from_millis(50), "it was waited for");
        assert!(late < Duration::from_secs(1), "woken by it, after {late:?}");
        feed.join().unwrap();

        let asked = Duration::from_millis(30);
        let t0 = Instant::now();
        assert!(prices.recv_timeout(asked).is_none(), "nothing is coming");
        assert!(t0.elapsed() >= asked, "a timeout is never cut short");

        session.close().unwrap();
        phase.store(2, Ordering::SeqCst);
        broker.join().unwrap().unwrap();
    });
}

/// Nobody accepts, nobody answers: the kernel queues the connection, the
/// descriptor never turns readable, and the wait ends at the session's
/// timeout — not before, and not much after.
#[test]
fn a_request_nobody_answers_times_out_at_the_sessions_timeout() {
    let addr = scratch_addr("mute");
    let _listener = UnixTransport.listen(&addr).unwrap();
    let asked = Duration::from_millis(50);
    let t0 = Instant::now();
    let err = Session::connect(&UnixTransport, &addr, asked).unwrap_err();
    assert!(err.to_string().contains("timed out"), "got {err}");
    assert!(t0.elapsed() >= asked);
    assert!(t0.elapsed() < Duration::from_secs(5));
}

#[test]
fn an_idle_broker_keeps_its_pace_and_wakes_for_requests() {
    let addr = &scratch_addr("pace");
    let listener = UnixTransport.listen(addr).unwrap();
    let phase = &AtomicUsize::new(0);
    std::thread::scope(|scope| {
        // One `serve` call per phase, so the counters can be read between
        // them: set-up, silence, requests.
        let broker = scope.spawn(move || {
            let mut broker = Broker::new(BrokerConfig::default(), listener);
            let mut marks: Vec<(BrokerStats, Instant)> = Vec::new();
            for end in 1..=3 {
                broker
                    .serve(|| phase.load(Ordering::SeqCst) >= end)
                    .unwrap();
                marks.push((broker.stats(), Instant::now()));
            }
            marks
        });

        let session = Session::connect(&UnixTransport, addr, TIMEOUT).unwrap();
        let publisher = session.publisher().unwrap();
        // Three more descriptors the broker must not mistake for work: one
        // that stalled half way through its `Hello`, one that never said
        // anything, one that hung up.
        let hello = Frame::Hello {
            version: PROTOCOL_VERSION,
            session: None,
        };
        let hello = encode(&hello).unwrap();
        let mut stalled = UnixTransport.connect(addr).unwrap();
        stalled.send(&hello[..hello.len() / 2]).unwrap();
        let _mute = UnixTransport.connect(addr).unwrap();
        drop(UnixTransport.connect(addr).unwrap());
        // A round trip later the broker has accepted (and read) all of them.
        publisher.publish(event("a = 1")).unwrap();

        phase.store(1, Ordering::SeqCst);
        std::thread::sleep(Duration::from_millis(200));
        phase.store(2, Ordering::SeqCst);
        for i in 0..200 {
            // Paced, so that each request finds the broker idle again: one
            // sent the moment the last was acked can reach an unoptimised
            // broker before it has finished the turn after, and be applied
            // without any wait to end.
            std::thread::sleep(Duration::from_millis(1));
            publisher.publish(event(&format!("a = {i}"))).unwrap();
        }
        phase.store(3, Ordering::SeqCst);

        let marks = broker.join().unwrap();
        let [(setup, t1), (silence, t2), (requests, _)] = marks[..] else {
            unreachable!("three phases")
        };
        // A turn and its wait take 500 µs and a little: a descriptor left
        // readable would turn them out by the thousand.
        let turns = (silence.pumps - setup.pumps) as f64;
        let nominal = (t2 - t1).as_secs_f64() / 500e-6;
        assert!(
            turns <= nominal * 1.5 && turns >= nominal * 0.5,
            "{turns} turns where ≈ {nominal:.0} were due"
        );
        assert_eq!(silence.frames_applied, setup.frames_applied);
        // Each publish ends the wait it arrives in (or, arriving during an
        // idle turn, the wait after it).
        assert_eq!(requests.frames_applied - silence.frames_applied, 200);
        let woken = requests.woken_early - silence.woken_early;
        assert!(woken >= 150, "woken early {woken} times for 200 requests");
        drop(stalled);
    });
}
