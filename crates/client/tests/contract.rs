//! One contract, two backends: what an application may rely on from
//! `Session`/`Publisher`/`Subscriber` is written once here and run against a
//! `Hub` and against a served `Broker` behind a `ChannelTransport` — "the
//! rest of the application is unchanged" as a test, not as prose.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use dps::{DpsConfig, DpsError, Event, Filter, NodeId};
use dps_broker::{Broker, BrokerConfig, ChannelTransport, Transport};
use dps_client::{Hub, Session};

const TIMEOUT: Duration = Duration::from_secs(10);

fn filter(s: &str) -> Filter {
    s.parse().unwrap()
}

fn event(s: &str) -> Event {
    s.parse().unwrap()
}

/// `open` yields a fresh session on the backend under test; `advance` gives
/// the overlay the time it needs to place subscriptions or route
/// publications (≥ 150 simulation steps).
fn session_contract(open: &dyn Fn() -> Session, advance: &dyn Fn()) {
    // Lifecycle and exact delivery: the matching events, in publish order,
    // under the identity `publish` returned.
    let trader = open();
    let feed = open();
    assert!(trader.is_open() && trader.id() != feed.id());
    let prices = trader.subscriber(filter("price > 100")).unwrap();
    let volumes = trader.subscriber(filter("volume > 0")).unwrap();
    assert_ne!(prices.id(), volumes.id());
    assert_eq!(prices.filter().to_string(), "price > 100");
    let publisher = feed.publisher().unwrap();
    advance();

    let first = publisher.publish(event("price = 150")).unwrap();
    publisher.publish(event("price = 50")).unwrap();
    let third = publisher.publish(event("price = 300")).unwrap();
    advance();
    let got = prices.recv().expect("the first match is queued");
    assert_eq!(got.event.to_string(), "price = 150");
    assert_eq!((got.publisher, got.seq), (first.node, first.seq));
    let rest = prices.drain();
    assert_eq!(rest.len(), 1, "only matching events are delivered");
    assert_eq!((rest[0].publisher, rest[0].seq), (third.node, third.seq));
    assert!(prices.recv().is_none() && volumes.drain().is_empty());

    // A subscription receives exactly what its node matched while it was
    // live: one opened after a publication reached the session gets none of
    // it, however well it matches, and the earlier one gets it once.
    publisher.publish(event("volume = 3")).unwrap();
    advance();
    let late = trader.subscriber(filter("volume > 1")).unwrap();
    assert!(late.drain().is_empty(), "opened after it arrived");
    assert_eq!(volumes.drain().len(), 1, "live when it arrived");
    late.close().unwrap();

    // A refused request is an error, not the end of the session. The one
    // place the backends differ: in process the refusal is the overlay's
    // typed error; a broker's `Ack` carries only that error's text, which
    // the client reports as `Protocol`.
    let refused = trader.subscriber(Filter::all()).unwrap_err();
    let in_words = DpsError::Protocol(DpsError::EmptyFilter.to_string());
    assert!(
        refused == DpsError::EmptyFilter || refused == in_words,
        "got {refused:?}"
    );

    // `Subscriber::close` keeps the session, and its other handles, usable;
    // so does dropping a handle, which cancels without hearing the answer
    // (over the wire that answer arrives during the next request's wait).
    prices.close().unwrap();
    drop(trader.subscriber(filter("volume > 5")).unwrap());
    publisher
        .publish(event("price = 150 & volume = 7"))
        .unwrap();
    advance();
    assert_eq!(
        volumes.drain().len(),
        1,
        "the remaining subscriber receives"
    );

    // Closed handles say so; nothing panics, nothing is delivered.
    trader.close().unwrap();
    assert!(volumes.recv().is_none() && volumes.drain().is_empty());
    assert!(volumes.recv_timeout(Duration::ZERO).is_none());
    assert_eq!(volumes.close().unwrap_err(), DpsError::SessionClosed);
    feed.close().unwrap();
    assert_eq!(
        publisher.publish(event("price = 1")).unwrap_err(),
        DpsError::SessionClosed
    );
}

#[test]
fn hub_sessions_keep_the_contract() {
    let hub = Hub::new(DpsConfig::default(), 7);
    hub.add_nodes(8);
    session_contract(&|| hub.open_session().unwrap(), &|| hub.run(150));
    assert_eq!(hub.delivered_ratio(), 1.0);

    // In process only: the session's node can be crashed under it, and that
    // is a typed error too.
    let session = hub.open_session().unwrap();
    let node = NodeId::from_index(session.id() as usize);
    hub.with_network(|net| net.crash(node));
    let publisher = session.publisher().unwrap();
    assert_eq!(
        publisher.publish(event("a = 1")).unwrap_err(),
        DpsError::NodeDead(node)
    );

    // `close` retires the session's node, as a broker's teardown does.
    let closing = hub.open_session().unwrap();
    let node = NodeId::from_index(closing.id() as usize);
    assert!(hub.with_network(|n| n.sim().is_alive(node)));
    closing.close().unwrap();
    assert!(!hub.with_network(|n| n.sim().is_alive(node)));
}

/// A `Subscriber` dropped without `close()` must not stay registered: its
/// inbox would take every matching delivery for ever, and the overlay would
/// keep routing to a subscription nobody can read.
#[test]
fn a_dropped_subscriber_is_cancelled() {
    let hub = Hub::new(DpsConfig::default(), 5);
    hub.add_nodes(6);
    let session = hub.open_session().unwrap();
    let kept = session.subscriber(filter("a > 0")).unwrap();
    let dropped = session.subscriber(filter("b > 0")).unwrap();
    let feed = hub.open_session().unwrap();
    let publisher = feed.publisher().unwrap();
    hub.run(150);

    drop(dropped);
    let mut got = 0;
    for _ in 0..1000 {
        publisher.publish(event("a = 1 & b = 1")).unwrap();
        hub.run(2);
        got += kept.drain().len();
    }
    hub.run(60);
    assert_eq!(got + kept.drain().len(), 1000);
    let shown = format!("{session:?}");
    assert!(shown.contains("subs: 1"), "one inbox left, got {shown}");

    // The oracle no longer expects the session's node for `b` alone.
    publisher.publish(event("b = 1")).unwrap();
    hub.run(60);
    let last = hub.with_network(|net| net.reports().pop().expect("just published"));
    assert!(last.expected.is_empty(), "expected {:?}", last.expected);
    assert!(kept.drain().is_empty());
    assert_eq!(hub.delivered_ratio(), 1.0);
}

/// Ends the serving loop when the contract is over, however it ends.
struct StopOnDrop<'a>(&'a AtomicBool);

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::SeqCst);
    }
}

#[test]
fn served_sessions_keep_the_contract() {
    let transport = ChannelTransport::new();
    let listener = transport.listen("hub").unwrap();
    let (stop, turns) = (&AtomicBool::new(false), &AtomicU64::new(0));
    std::thread::scope(|scope| {
        // The serving loop asks `stop` once per turn, which makes `turns` a
        // clock of overlay steps taken: `advance` waits on that, not on wall
        // time.
        let broker = scope.spawn(move || {
            Broker::new(BrokerConfig::default(), listener).serve(|| {
                turns.fetch_add(1, Ordering::SeqCst);
                stop.load(Ordering::SeqCst)
            })
        });
        let stopper = StopOnDrop(stop);
        let open = || Session::connect(&transport, "hub", TIMEOUT).unwrap();
        let advance = || {
            let turns_needed = 160 / BrokerConfig::default().steps_per_pump;
            let until = turns.load(Ordering::SeqCst) + turns_needed;
            let deadline = Instant::now() + TIMEOUT;
            while turns.load(Ordering::SeqCst) < until {
                assert!(Instant::now() < deadline, "the broker stopped turning");
                std::thread::sleep(Duration::from_micros(200));
            }
        };
        session_contract(&open, &advance);
        drop(stopper);
        broker.join().expect("broker thread").expect("listener");
    });
}
