//! Lifecycle of the persistent shard worker pool: workers are spawned once
//! per `Sim::new_sharded`, parked between steps, and joined when the `Sim`
//! drops. This test pins that contract with the OS's own accounting — the
//! `Threads:` line of `/proc/self/status` — across repeated
//! construct/run/drop cycles in one process, and checks that a rebuilt
//! simulation replays byte-identically (dropping a pool must leave no state
//! behind that could perturb the next one).
//!
//! Everything runs in a single `#[test]` on purpose: thread counts are
//! process-global, so a concurrently running test that builds its own
//! sharded `Sim` would make the arithmetic racy.

use dps_sim::{Context, Message, MsgClass, NodeId, Process, Sim};

const NODES: usize = 12;
const SHARDS: usize = 4;

#[derive(Clone, Debug)]
struct Hop(u32);

impl Message for Hop {
    fn class(&self) -> MsgClass {
        MsgClass::Management
    }
}

/// A counter on a ring: each delivery bumps the local count and forwards the
/// hop until its budget runs out. Enough traffic to keep every worker busy.
struct Counter(u64);

impl Process for Counter {
    type Msg = Hop;

    fn on_message(&mut self, _from: NodeId, msg: Hop, ctx: &mut Context<'_, Hop>) {
        self.0 += 1;
        if msg.0 > 0 {
            let next = NodeId::from_index((ctx.me().index() + 1) % NODES);
            ctx.send(next, Hop(msg.0 - 1));
        }
    }
}

/// Live threads in this process, per the kernel (`Threads:` in
/// `/proc/self/status`).
fn os_thread_count() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs");
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|v| v.trim().parse().ok())
        .expect("Threads: line")
}

/// Waits for the thread count to come back to `baseline`. A joined thread
/// may still be listed in procfs for a moment after `join` returns, so the
/// "no worker is left" checks poll (bounded) where the "exactly `SHARDS`
/// workers" checks read once.
fn assert_back_to(baseline: usize, what: &str) {
    let mut threads = os_thread_count();
    for _ in 0..200 {
        if threads == baseline {
            return;
        }
        std::thread::sleep(std::time::Duration::from_millis(1));
        threads = os_thread_count();
    }
    assert_eq!(threads, baseline, "{what}");
}

/// Builds a `shards`-shard simulation, runs a fixed scenario and returns its
/// observable digest. The `Sim` (and its pool, if any) drops on return.
fn run_digest(shards: usize) -> String {
    let mut sim = Sim::new_sharded(0xD1CE, shards);
    for _ in 0..NODES {
        sim.add_node(Counter(0));
    }
    sim.post(NodeId::from_index(0), Hop(200));
    sim.post(NodeId::from_index(5), Hop(150));
    sim.run(100);
    sim.crash(NodeId::from_index(3));
    sim.post(NodeId::from_index(7), Hop(120));
    sim.run(200);
    let counts: Vec<u64> = sim
        .node_ids()
        .iter()
        .map(|n| sim.node(*n).map_or(0, |c| c.0))
        .collect();
    format!("{counts:?} {:?}", sim.snapshot())
}

#[test]
fn pool_workers_join_on_drop_and_rebuilds_replay_identically() {
    let baseline = os_thread_count();

    // A single-shard sim spawns no pool at all.
    {
        let mut sim = Sim::new_sharded(1, 1);
        sim.add_node(Counter(0));
        sim.run(5);
        assert_back_to(baseline, "a 1-shard Sim must not spawn worker threads");
    }

    // Repeated construct/run/drop: each cycle spawns exactly SHARDS workers,
    // and dropping the Sim joins them all — the count returns to baseline
    // every time, so nothing leaks no matter how many sims a process builds.
    let mut digests = Vec::new();
    for cycle in 0..8 {
        {
            let mut sim = Sim::new_sharded(0xD1CE, SHARDS);
            assert_eq!(
                os_thread_count(),
                baseline + SHARDS,
                "cycle {cycle}: expected exactly {SHARDS} pool workers"
            );
            for _ in 0..NODES {
                sim.add_node(Counter(0));
            }
            sim.post(NodeId::from_index(0), Hop(50));
            sim.run(30);
            assert_eq!(
                os_thread_count(),
                baseline + SHARDS,
                "cycle {cycle}: running must reuse the pool, not spawn threads"
            );
        }
        assert_back_to(
            baseline,
            &format!("cycle {cycle}: dropping the Sim must join every worker"),
        );
        // Full digest run for the determinism half of the contract.
        digests.push(run_digest(SHARDS));
        assert_back_to(baseline, &format!("cycle {cycle}: digest run leaked"));
    }

    // Drop-and-rebuild determinism: every sharded cycle replayed the same
    // bytes, and they match the serial (poolless) run.
    let serial = run_digest(1);
    for (cycle, digest) in digests.iter().enumerate() {
        assert_eq!(
            digest, &serial,
            "cycle {cycle}: rebuilt sharded run diverged from the serial run"
        );
    }
}
