//! Multiplayer game — the paper's Workload 2 scenario: players subscribe to
//! rectangular zones of a 2-D plane and receive the events occurring inside
//! their zone; the epidemic flavor keeps delivery high while players churn.
//!
//! ```sh
//! cargo run --release -p dps-client --example multiplayer_game
//! ```

use dps::{CommKind, DpsConfig, JoinRule, TraversalKind};
use dps_client::{Hub, Session, Subscriber};
use dps_workload::Workload;
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut cfg = DpsConfig::named(TraversalKind::Root, CommKind::Epidemic).with_fanout(2);
    cfg.join_rule = JoinRule::Explicit;
    let hub = Hub::new(cfg, 11);
    hub.run(30);

    let w = Workload::multiplayer_game();
    let mut rng = rand::rngs::StdRng::seed_from_u64(5);
    println!("players subscribing to their zones...");
    let mut players: Vec<(Session, Subscriber)> = Vec::new();
    for i in 0..80 {
        let s = hub.open_session()?;
        let sub = s.subscriber(w.subscription(&mut rng))?;
        players.push((s, sub));
        if i % 8 == 7 {
            hub.run(2);
        }
    }
    hub.quiesce(3000);
    hub.run(150);

    println!("game running: events + player churn...");
    let mut joined = 0;
    for t in 0..300u64 {
        if t % 5 == 0 {
            let (who, _) = &players[(t as usize / 5) % players.len()];
            // A crashed (rage-quit) player can no longer publish; that is a
            // typed error here, not a panic.
            let _ = who.publisher()?.publish(w.event(&mut rng));
        }
        // A player rage-quits every 50 steps; a new one joins right after.
        if t % 50 == 25 {
            hub.with_network(|net| net.crash_random());
            let s = hub.open_session()?;
            let sub = s.subscriber(w.subscription(&mut rng))?;
            players.push((s, sub));
            joined += 1;
        }
        hub.run(1);
    }
    hub.run(500);

    let received: usize = players.iter().map(|(_, sub)| sub.drain().len()).sum();
    let snap = hub.with_network(|net| net.snapshot());
    println!(
        "\nfinal population: {} alive / {} total (+{joined} joined mid-game)",
        snap.alive_nodes, snap.total_nodes
    );
    println!("zone events received across sessions: {received}");
    println!("delivered ratio under churn: {:.3}", hub.delivered_ratio());
    println!(
        "events delivered to zone owners despite {} crashes",
        snap.total_nodes - snap.alive_nodes
    );
    Ok(())
}
