//! Stock ticker — the paper's Workload 1 scenario (§5.2, Table 1).
//!
//! Traders subscribe to price levels or ticker symbols; a feed publishes ticks.
//! Subscriptions follow Zipf distributions (everyone watches the same few hot
//! symbols), ticks are uniform. Run with:
//!
//! ```sh
//! cargo run --release -p dps-client --example stock_ticker
//! ```

use dps::{CommKind, DpsConfig, JoinRule, TraversalKind};
use dps_client::{Hub, Session, Subscriber};
use dps_workload::Workload;
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut cfg = DpsConfig::named(TraversalKind::Generic, CommKind::Leader);
    cfg.join_rule = JoinRule::Explicit;
    let hub = Hub::new(cfg, 7);
    hub.run(30);

    let w = Workload::stock_exchange();
    let mut rng = rand::rngs::StdRng::seed_from_u64(99);
    println!("installing 120 trader subscriptions...");
    let mut traders: Vec<(Session, Subscriber)> = Vec::new();
    for i in 0..120 {
        let s = hub.open_session()?;
        let sub = s.subscriber(w.subscription(&mut rng))?;
        traders.push((s, sub));
        if i % 10 == 9 {
            hub.run(2);
        }
    }
    hub.quiesce(3000);
    hub.run(150);

    println!("publishing 50 ticks...");
    let mut ticks = 0usize;
    for k in 0..50 {
        let (feed, _) = &traders[k % traders.len()];
        if feed.publisher()?.publish(w.event(&mut rng)).is_ok() {
            ticks += 1;
        }
        hub.run(10);
    }
    hub.run(400);

    // Table-1 style accounting: matching vs contacted vs false positives.
    let n = traders.len() as f64;
    let (mut matching, mut contacted) = (0.0, 0.0);
    hub.with_network(|net| {
        for r in net.reports() {
            matching += r.expected.len() as f64 / n;
            contacted += r.contacted as f64 / n;
        }
    });
    let received: usize = traders.iter().map(|(_, sub)| sub.drain().len()).sum();
    let pubs = ticks as f64;
    println!("\nper-tick averages over {ticks} ticks:");
    println!("  matching subscribers: {:5.2}%", 100.0 * matching / pubs);
    println!("  contacted nodes:      {:5.2}%", 100.0 * contacted / pubs);
    println!(
        "  false positives:      {:5.2}%",
        100.0 * (contacted - matching).max(0.0) / pubs
    );
    println!(
        "  visited-node reduction vs broadcast: {:.0}%",
        100.0 * (1.0 - contacted / pubs)
    );
    println!("  ticks received across sessions: {received}");
    println!("  delivered ratio: {:.3}", hub.delivered_ratio());

    for (s, _) in traders {
        s.close()?;
    }
    Ok(())
}
