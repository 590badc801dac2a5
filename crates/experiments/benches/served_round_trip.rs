//! The served round trip: what a live client waits for.
//!
//! `Broker::serve` runs on a thread behind a unix socket in the temp dir and
//! two `dps-client` sessions talk to it from this one, as `dps-pub` and
//! `dps-sub` would. The turn that applies a request takes ≈ 15 µs, so these
//! rows price everything else — the two socket hops and, above all, how long
//! each side waits before it looks at its socket again. First row: one
//! `Publisher::publish` call (request out, `Ack` back) for an event nobody
//! subscribed to. Second row: a publish and the `recv_timeout` that returns
//! its delivery on another session.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion};
use dps_broker::{Broker, BrokerConfig, Transport, UnixTransport};
use dps_client::Session;
use dps_content::{Event, Filter};

const TIMEOUT: Duration = Duration::from_secs(10);

fn bench_served_round_trip(c: &mut Criterion) {
    let file = format!("dps-bench-{}.sock", std::process::id());
    let addr = &std::env::temp_dir().join(file).display().to_string();
    let listener = UnixTransport.listen(addr).expect("a fresh socket path");
    let stop = &AtomicBool::new(false);
    std::thread::scope(|scope| {
        let broker = scope.spawn(move || {
            Broker::new(BrokerConfig::default(), listener).serve(|| stop.load(Ordering::SeqCst))
        });
        let connect = || Session::connect(&UnixTransport, addr, TIMEOUT).expect("broker serves");
        let (feed, reader) = (connect(), connect());
        let publisher = feed.publisher().expect("open session");
        let filter = "price > 100".parse::<Filter>().expect("a filter");
        let prices = reader.subscriber(filter).expect("subscribe is acked");
        let heard: Event = "price = 150".parse().expect("an event");
        let unheard: Event = "volume = 7".parse().expect("an event");
        // Placement takes the overlay a few dozen turns: publish until one
        // event comes through, then let the stragglers arrive.
        while prices.recv_timeout(Duration::from_millis(5)).is_none() {
            publisher.publish(heard.clone()).expect("publish is acked");
        }
        while prices.recv_timeout(Duration::from_millis(50)).is_some() {}

        c.bench_function("served_publish_round_trip", |b| {
            b.iter(|| {
                publisher
                    .publish(unheard.clone())
                    .expect("publish is acked")
            })
        });
        c.bench_function("served_publish_to_delivery", |b| {
            b.iter(|| {
                publisher.publish(heard.clone()).expect("publish is acked");
                prices
                    .recv_timeout(TIMEOUT)
                    .expect("the event is delivered")
            })
        });

        stop.store(true, Ordering::SeqCst);
        broker
            .join()
            .expect("broker thread")
            .expect("listener kept working");
    });
}

criterion_group!(benches, bench_served_round_trip);
criterion_main!(benches);
