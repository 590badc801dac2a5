//! Fast end-to-end smoke test mirroring the quickstart example:
//! a small network converges and a publication reaches exactly the matching
//! subscribers — driven through the session-first API (`Hub` → `Session` →
//! `Publisher`/`Subscriber`). Runs in well under a second, so CI exercises
//! the session lifecycle and publish→deliver on every push.

use dps::{DpsConfig, Event, Filter};
use dps_client::Hub;

#[test]
fn quickstart_session_publish_reaches_matching_subscribers() {
    let hub = Hub::new(DpsConfig::default(), 42);
    hub.add_nodes(8);

    // Three subscriber sessions self-organize into per-attribute trees.
    let traders: Vec<_> = ["price > 100", "price > 100 & price < 200", "price < 50"]
        .iter()
        .map(|f| {
            let s = hub.open_session().expect("session opens");
            let sub = s
                .subscriber(f.parse::<Filter>().unwrap())
                .expect("subscribes");
            (s, sub)
        })
        .collect();
    hub.run(120);

    // Publish an event from its own session; only matching subscribers see it.
    let feed = hub.open_session().expect("session opens");
    feed.publisher()
        .expect("publisher handle")
        .publish("price = 150".parse::<Event>().unwrap())
        .expect("publish accepted");
    hub.run(40);

    assert_eq!(
        hub.delivered_ratio(),
        1.0,
        "every matching subscriber must be notified"
    );
    let got: Vec<usize> = traders.iter().map(|(_, sub)| sub.drain().len()).collect();
    assert_eq!(got, vec![1, 1, 0], "150 matches the first two filters only");

    // Explicit teardown: closed handles refuse further use.
    for (s, _) in traders {
        s.close().expect("close once");
    }
    feed.close().expect("close once");
}
