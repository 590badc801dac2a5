//! Alert monitoring — the paper's Workload 3 scenario: operators subscribe to
//! critical thresholds on cpu/mem/net metrics; telemetry events stream in, and
//! almost none of them match (the overlay prunes aggressively).
//!
//! ```sh
//! cargo run --release -p dps-client --example alert_monitor
//! ```

use dps::{CommKind, DpsConfig, JoinRule, MsgClass, TraversalKind};
use dps_client::{Hub, Session, Subscriber};
use dps_workload::Workload;
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut cfg = DpsConfig::named(TraversalKind::Root, CommKind::Leader);
    cfg.join_rule = JoinRule::Explicit;
    let hub = Hub::new(cfg, 3);
    hub.run(30);

    let w = Workload::alert_monitoring();
    let mut rng = rand::rngs::StdRng::seed_from_u64(13);
    println!("operators installing alert thresholds...");
    let mut operators: Vec<(Session, Subscriber)> = Vec::new();
    for i in 0..100 {
        let s = hub.open_session()?;
        let sub = s.subscriber(w.subscription(&mut rng))?;
        operators.push((s, sub));
        if i % 10 == 9 {
            hub.run(2);
        }
    }
    hub.quiesce(3000);
    hub.run(150);

    println!("streaming 100 telemetry readings...");
    let before = hub.with_network(|net| net.metrics().total_sent(MsgClass::Publication));
    for k in 0..100usize {
        let (sensor, _) = &operators[k % operators.len()];
        sensor.publisher()?.publish(w.event(&mut rng))?;
        hub.run(8);
    }
    hub.run(400);
    let msgs = hub.with_network(|net| net.metrics().total_sent(MsgClass::Publication)) - before;

    let (mut alerts, mut contacted) = (0usize, 0usize);
    hub.with_network(|net| {
        for r in net.reports() {
            alerts += r.expected.len();
            contacted += r.contacted;
        }
    });
    let received: usize = operators.iter().map(|(_, sub)| sub.drain().len()).sum();
    println!("\n100 readings against {} thresholds:", operators.len());
    println!("  alerts fired (matching pairs): {alerts}");
    println!("  alerts received on sessions:   {received}");
    println!(
        "  nodes contacted in total: {contacted} ({:.1} per reading, of {} nodes)",
        contacted as f64 / 100.0,
        operators.len()
    );
    println!(
        "  publication messages: {msgs} ({:.1} per reading)",
        msgs as f64 / 100.0
    );
    println!("  delivered ratio: {:.3}", hub.delivered_ratio());
    println!("\nmost readings die at the first non-matching group: that is the pruning");
    println!("the semantic overlay exists for (Table 1, workload 3).");

    for (s, _) in operators {
        s.close()?;
    }
    Ok(())
}
