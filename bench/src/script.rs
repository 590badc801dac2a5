//! Workload scripts: everything a round will send, generated before any
//! timing starts — sessions, filters, the churn schedule, the events drawn
//! from `--seed`, and which subscription must (and may) receive which
//! publication.

use dps_content::{SharedEvent, SharedFilter};
use dps_workload::{AttrSpec, Dist, SubShape, Workload};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::stats::BitMatrix;

/// How the end-to-end run drives the broker.
#[derive(Clone, Copy, PartialEq)]
pub enum Drive {
    /// One thread: write frames, `Broker::pump`, clients read. Closed loop,
    /// one publication outstanding per publisher session.
    Lockstep,
    /// `Broker::serve` on a second thread behind a unix socket, `dps-client`
    /// sessions on this one. Open loop at `rate` publications per second.
    Live { rate: f64 },
}

/// Sizes of one workload. `pubs` is publications per round.
pub struct Spec {
    pub name: &'static str,
    pub drive: Drive,
    /// Rounds an end-to-end run makes. A constant, so that the best round is
    /// the best of as many whatever `--seconds` and the program's speed are;
    /// sized to fill `run_seconds` of BENCHMARK.json on the reference host.
    pub rounds: usize,
    pub publishers: usize,
    pub sessions: usize,
    pub subs_per_session: usize,
    pub pubs: usize,
    /// Periods in turns of session replacement and of a live session swapping
    /// one subscription for a fresh one (`churn_mix`).
    pub churn: Option<(usize, usize)>,
    /// Publications and rate of the live probe of a traced run.
    pub probe: (usize, f64),
    /// Every required delivery must arrive. Not so under churn, where the
    /// overlay delivers best effort while it heals: there a missed delivery
    /// lowers `delivered_share` and is not a failed operation.
    pub strict: bool,
}

pub const WORKLOADS: [&str; 4] = ["fanout_wide", "mesh_route", "churn_mix", "socket_paced"];

pub fn spec(name: &str) -> Option<Spec> {
    Some(match name {
        "fanout_wide" => Spec {
            name: "fanout_wide",
            drive: Drive::Lockstep,
            publishers: 4,
            sessions: 8,
            subs_per_session: 64,
            rounds: 60,
            pubs: 320,
            churn: None,
            probe: (200, 100.0),
            strict: true,
        },
        "mesh_route" => Spec {
            name: "mesh_route",
            drive: Drive::Lockstep,
            publishers: 16,
            sessions: 256,
            subs_per_session: 1,
            rounds: 52,
            pubs: 1600,
            churn: None,
            probe: (300, 150.0),
            strict: true,
        },
        "churn_mix" => Spec {
            name: "churn_mix",
            drive: Drive::Lockstep,
            publishers: 4,
            sessions: 96,
            subs_per_session: 2,
            rounds: 26,
            pubs: 1200,
            churn: Some((20, 10)),
            // The probe has no churn, so it stops before the script's first
            // swap (turn 10 of 4 publications).
            probe: (40, 100.0),
            strict: false,
        },
        "socket_paced" => Spec {
            name: "socket_paced",
            drive: Drive::Live { rate: 250.0 },
            publishers: 1,
            sessions: 8,
            subs_per_session: 2,
            rounds: 8,
            pubs: 750,
            churn: None,
            probe: (750, 250.0),
            strict: true,
        },
        _ => return None,
    })
}

fn content_model(name: &str) -> Workload {
    match name {
        "fanout_wide" | "churn_mix" => Workload::multiplayer_game(),
        "mesh_route" => Workload::stock_exchange(),
        // `stock_exchange` with its filters widened: quarter-domain price
        // ranges and first-syllable symbol prefixes, no equalities.
        _ => Workload::new(
            "stock exchange, widened",
            vec![
                AttrSpec::Numeric {
                    name: "price".into(),
                    domain: 1000,
                    ev_dist: Dist::Uniform,
                    sub_dist: Dist::Zipf(1.0),
                    range_frac: 0.25,
                    eq_frac: 0.0,
                    gt_frac: 0.0,
                },
                AttrSpec::Str {
                    name: "symbol".into(),
                    ev_dist: Dist::Uniform,
                    sub_dist: Dist::Zipf(1.0),
                    eq_frac: 0.0,
                },
            ],
            SubShape::OneOf,
        ),
    }
}

/// One subscription of the script. Its index in [`Script::subs`] is also the
/// subscription id it carries on the wire.
pub struct Sub {
    pub filter: SharedFilter,
    /// Turn its `Subscribe` is sent (`None`: at set-up).
    pub from: Option<usize>,
    /// Turn its `Unsubscribe`, or its session's `Close`, is sent.
    pub until: Option<usize>,
}

pub enum Churn {
    /// The slot's session sends `Close`; a new session connects in its place
    /// and subscribes `subs`.
    Replace { slot: usize, subs: Vec<usize> },
    /// The slot's session unsubscribes `drop` and subscribes a fresh filter,
    /// `sub`.
    Swap {
        slot: usize,
        drop: usize,
        sub: usize,
    },
}

pub struct Script {
    pub spec: Spec,
    pub subs: Vec<Sub>,
    /// Subscriptions each slot's first session installs at set-up.
    pub initial: Vec<Vec<usize>>,
    /// Publication `i` is sent by publisher `i % publishers`, in lockstep on
    /// turn `i / publishers`.
    pub events: Vec<SharedEvent>,
    /// `(turn, op)`, ascending by turn.
    pub churn: Vec<(usize, Churn)>,
    /// `required[pub][sub]`: the delivery must arrive, else it is a failed
    /// operation. `allowed` ⊇ `required`: a delivery outside it is wrong.
    pub required: BitMatrix,
    pub allowed: BitMatrix,
    pub required_total: u64,
    /// Deliveries to subscriptions live at publish time (set-up or churn,
    /// settled or not) — the denominator of `overlay.live_share`.
    pub live_total: u64,
}

/// Turns after its `Subscribe` before a subscription is required to receive,
/// and turns before its removal after which it no longer is: the overlay
/// places and removes subscriptions over several steps, and a publication
/// racing that is not a failure.
const SETTLE_TURNS: usize = 60;
const FLIGHT_TURNS: usize = 15;

/// Seed of everything that shapes the overlay: the subscriptions and the
/// churn schedule. It is a constant of the benchmark, not `--seed`: with it
/// drawn per seed, the trees the overlay builds differed from seed to seed and
/// moved throughput by 10% and p99 latency by 36% — more than a regression
/// bound — before any code had changed. `--seed` draws the events.
const TOPOLOGY_SEED: u64 = 1;

impl Script {
    pub fn generate(spec: Spec, seed: u64) -> Script {
        let model = content_model(spec.name);
        let mut name_mix = 0u64;
        for b in spec.name.bytes() {
            name_mix = name_mix.wrapping_mul(131).wrapping_add(b as u64);
        }
        let name_mix = name_mix.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let mut event_rng = StdRng::seed_from_u64(seed ^ name_mix);
        let events: Vec<SharedEvent> = (0..spec.pubs)
            .map(|_| model.event(&mut event_rng).into())
            .collect();
        let mut rng = StdRng::seed_from_u64(TOPOLOGY_SEED ^ name_mix);
        let mut subs: Vec<Sub> = (0..spec.sessions * spec.subs_per_session)
            .map(|_| Sub {
                filter: model.subscription(&mut rng).into(),
                from: None,
                until: None,
            })
            .collect();
        let initial: Vec<Vec<usize>> = (0..spec.sessions)
            .map(|slot| {
                (slot * spec.subs_per_session..(slot + 1) * spec.subs_per_session).collect()
            })
            .collect();

        let mut churn = Vec::new();
        if let Some((replace_every, swap_every)) = spec.churn {
            let turns = spec.pubs / spec.publishers;
            let mut live: Vec<Vec<usize>> = initial.clone();
            for turn in 1..turns {
                let mut replaced = None;
                if turn % replace_every == 0 {
                    let slot = rng.random_range(0..spec.sessions);
                    for s in live[slot].drain(..) {
                        subs[s].until = Some(turn);
                    }
                    // The newcomer takes over the slot with a fresh pair.
                    for _ in 0..spec.subs_per_session {
                        live[slot].push(subs.len());
                        subs.push(Sub {
                            filter: model.subscription(&mut rng).into(),
                            from: Some(turn),
                            until: None,
                        });
                    }
                    churn.push((
                        turn,
                        Churn::Replace {
                            slot,
                            subs: live[slot].clone(),
                        },
                    ));
                    replaced = Some(slot);
                }
                if turn % swap_every == 0 {
                    let mut slot = rng.random_range(0..spec.sessions);
                    if Some(slot) == replaced {
                        slot = (slot + 1) % spec.sessions;
                    }
                    let held = rng.random_range(0..live[slot].len());
                    let drop = live[slot].swap_remove(held);
                    subs[drop].until = Some(turn);
                    let sub = subs.len();
                    live[slot].push(sub);
                    subs.push(Sub {
                        filter: model.subscription(&mut rng).into(),
                        from: Some(turn),
                        until: None,
                    });
                    churn.push((turn, Churn::Swap { slot, drop, sub }));
                }
            }
        }

        let mut required = BitMatrix::new(events.len(), subs.len());
        let mut allowed = BitMatrix::new(events.len(), subs.len());
        let mut required_total = 0u64;
        let mut live_total = 0u64;
        for (p, event) in events.iter().enumerate() {
            let turn = p / spec.publishers;
            for (s, sub) in subs.iter().enumerate() {
                if sub.until.is_some_and(|u| u < turn) || !sub.filter.matches(event) {
                    continue;
                }
                allowed.set(p, s);
                let from_ok = sub.from.is_none_or(|f| f <= turn);
                let until_ok = sub.until.is_none_or(|u| u > turn);
                if from_ok && until_ok {
                    live_total += 1;
                }
                let settled = sub.from.is_none_or(|f| f + SETTLE_TURNS <= turn);
                let stays = sub.until.is_none_or(|u| u > turn + FLIGHT_TURNS);
                if settled && stays {
                    required.set(p, s);
                    required_total += 1;
                }
            }
        }
        Script {
            spec,
            subs,
            initial,
            events,
            churn,
            required,
            allowed,
            required_total,
            live_total,
        }
    }

    /// The most deliveries a round can receive: each allowed one once.
    pub fn max_deliveries(&self) -> usize {
        self.allowed.count() as usize
    }

    /// Sessions a lockstep round connects in total (publishers, the initial
    /// subscriber sessions, and every replacement).
    pub fn session_count(&self) -> usize {
        let replaced = self
            .churn
            .iter()
            .filter(|(_, c)| matches!(c, Churn::Replace { .. }))
            .count();
        self.spec.publishers + self.spec.sessions + replaced
    }
}
