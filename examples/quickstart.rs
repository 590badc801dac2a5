//! Quickstart: open sessions on a DPS hub, subscribe, publish, receive.
//!
//! ```sh
//! cargo run -p dps-client --example quickstart
//! ```
//!
//! The session-first surface (`Hub` → `Session` → `Publisher`/`Subscriber`)
//! is `dps-client`'s: the same `Session` type serves a live `dps-broker`
//! process, so this program ports to the served system by opening its
//! sessions with `Session::connect` instead of `hub.open_session()`.

use dps::{DpsConfig, DpsError, Event, Filter};
use dps_client::Hub;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Default flavor: root-based traversal, leader-based communication.
    let hub = Hub::new(DpsConfig::default(), 42);
    hub.add_nodes(12); // background overlay population
    hub.run(30); // peer sampling warms up

    // Subscribers self-organize into per-attribute semantic trees. The first
    // subscriber to mention attribute "temp" creates (and owns) its tree.
    println!("opening subscriber sessions...");
    let sessions: Vec<_> = [
        "temp > 30",
        "temp > 30 & temp < 40",
        "temp < 0",
        "temp = 35 & unit = celsius",
    ]
    .iter()
    .map(|f| -> Result<_, DpsError> {
        let s = hub.open_session()?;
        let sub = s.subscriber(f.parse::<Filter>().expect("filter parses"))?;
        Ok((s, sub, *f))
    })
    .collect::<Result<_, _>>()?;
    assert!(hub.quiesce(800), "overlay should converge");
    hub.run(60);

    // The distributed forest, as recorded at group leaders:
    println!("\nsemantic groups:");
    hub.with_network(|net| {
        for g in net.distributed_groups() {
            println!(
                "  {:<18} parent={:<14} members={:?}",
                g.label.to_string(),
                g.parent.map(|p| p.to_string()).unwrap_or_default(),
                g.members.iter().map(|n| n.index()).collect::<Vec<_>>()
            );
        }
    });

    // Publish an event from a session with no subscriptions at all.
    let feed = hub.open_session()?;
    feed.publisher()?
        .publish("temp = 35 & unit = celsius".parse::<Event>()?)?;
    hub.run(60);

    println!("\nevent 'temp = 35 & unit = celsius':");
    for (_, sub, filter) in &sessions {
        let got = sub.drain();
        println!("  {filter:<24} received={}", got.len());
    }
    println!("\ndelivered ratio: {}", hub.delivered_ratio());
    assert_eq!(hub.delivered_ratio(), 1.0);

    // Explicit lifecycle: close every session before the hub goes away.
    for (s, _, _) in sessions {
        s.close()?;
    }
    feed.close()?;
    Ok(())
}
