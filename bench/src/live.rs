//! The live driver: `Broker::serve` on one thread behind a unix socket,
//! `dps-client` sessions on the other, publications sent open loop on a fixed
//! schedule. Two threads, which is every core of the reference host; the
//! socket is loopback, so this prices the kernel and the sleeps on both
//! sides, not a network.

use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::time::Duration;

use dps_broker::{Broker, BrokerConfig, Transport, UnixTransport};
use dps_client::{Session, Subscriber};

use crate::round::{Acct, Round};
use crate::script::Script;
use crate::stats::{now_ns, rss_kib, Samples};

/// Bound on every request/ack round trip of a session.
const TIMEOUT: Duration = Duration::from_secs(10);
/// How long the generator sleeps between polls while nothing is due — the
/// client library's own wait-loop period.
const POLL_SLEEP: Duration = Duration::from_micros(200);
const PROBE_RETRY_NS: u64 = 100_000_000;
const DRAIN_LIMIT_NS: u64 = 3_000_000_000;

/// Client-side timings of one live round, for the `client` layer.
pub struct ClientTimes {
    pub connect_ns: Samples,
    pub subscribe_ns: Samples,
    pub publish_call_ns: Samples,
    /// Time inside `Subscriber::drain` calls that returned deliveries.
    pub drain_ns: u64,
}

struct Subscribers {
    /// `(script subscription, handle)`; sessions are kept alive beside them.
    handles: Vec<(usize, Subscriber)>,
    sessions: Vec<Session>,
}

/// Drains every subscriber once. Deliveries of probe publications mark their
/// subscription as placed; all others are checked against the script.
fn poll(
    subs: &Subscribers,
    acct: &mut Acct<'_>,
    probes: &HashSet<(u64, u32)>,
    placed: &mut [bool],
    times: &mut ClientTimes,
) {
    for (sub, handle) in &subs.handles {
        let t0 = now_ns();
        let got = handle.drain();
        if got.is_empty() {
            continue;
        }
        let now = now_ns();
        times.drain_ns += now - t0;
        for d in got {
            let id = (d.publisher, d.seq);
            if probes.contains(&id) {
                placed[*sub] = true;
            } else {
                acct.delivery(*sub, true, id, &d.event, now);
            }
        }
    }
}

/// Runs the script's first `pubs` publications at `rate` per second against a
/// fresh served broker listening at `addr`.
pub fn run_round(
    script: &Script,
    pubs: usize,
    rate: f64,
    addr: &str,
) -> Result<(Round, ClientTimes), String> {
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let t_start = now_ns();
        let (ready_tx, ready_rx) = mpsc::channel::<Result<(), String>>();
        let stop = &stop;
        let broker = scope.spawn(move || {
            let listener = match UnixTransport.listen(addr) {
                Ok(l) => l,
                Err(e) => {
                    let _ = ready_tx.send(Err(format!("listen on {addr}: {e}")));
                    return Ok(());
                }
            };
            // Every knob at its default, as in the lockstep driver.
            let mut broker = Broker::new(BrokerConfig::default(), listener);
            let _ = ready_tx.send(Ok(()));
            broker.serve(|| stop.load(Ordering::SeqCst))
        });
        let out = ready_rx
            .recv()
            .map_err(|_| "broker thread died before listening".to_string())
            .and_then(|r| r)
            .and_then(|()| drive(script, pubs, rate, addr, t_start));
        stop.store(true, Ordering::SeqCst);
        match broker.join() {
            Ok(Ok(())) => out,
            Ok(Err(e)) => Err(format!("broker listener failed: {e}")),
            Err(_) => Err("broker thread panicked".into()),
        }
    })
}

fn drive(
    script: &Script,
    pubs: usize,
    rate: f64,
    addr: &str,
    t_start: u64,
) -> Result<(Round, ClientTimes), String> {
    let spec = &script.spec;
    let mut times = ClientTimes {
        connect_ns: Samples::with_capacity(spec.publishers + spec.sessions),
        subscribe_ns: Samples::with_capacity(script.subs.len()),
        publish_call_ns: Samples::with_capacity(pubs),
        drain_ns: 0,
    };
    let connect = |times: &mut ClientTimes| {
        let t0 = now_ns();
        let s = Session::connect(&UnixTransport, addr, TIMEOUT).map_err(|e| e.to_string());
        times.connect_ns.push(now_ns() - t0);
        s
    };

    let mut pub_sessions = Vec::new();
    let mut publishers = Vec::new();
    for _ in 0..spec.publishers {
        let s = connect(&mut times)?;
        publishers.push(s.publisher().map_err(|e| e.to_string())?);
        pub_sessions.push(s);
    }
    let mut subs = Subscribers {
        handles: Vec::new(),
        sessions: Vec::new(),
    };
    for slot in 0..spec.sessions {
        let session = connect(&mut times)?;
        for s in &script.initial[slot] {
            let t0 = now_ns();
            let handle = session
                .subscriber(script.subs[*s].filter.clone())
                .map_err(|e| e.to_string())?;
            times.subscribe_ns.push(now_ns() - t0);
            subs.handles.push((*s, handle));
        }
        subs.sessions.push(session);
    }

    // Set-up ends when a probe publication has reached every subscription
    // that any of the script's events can reach.
    let mut acct = Acct::new(script);
    let mut placed = vec![false; script.subs.len()];
    let mut probe_events = Vec::new();
    let mut covered = vec![false; script.subs.len()];
    for (s, _) in &subs.handles {
        if covered[*s] {
            continue;
        }
        let filter = &script.subs[*s].filter;
        match script.events.iter().find(|e| filter.matches(e)) {
            Some(e) => {
                for (t, _) in &subs.handles {
                    covered[*t] |= script.subs[*t].filter.matches(e);
                }
                probe_events.push(e.clone());
            }
            // Nothing in the script reaches it: nothing to wait for.
            None => placed[*s] = true,
        }
    }
    let mut probes = HashSet::new();
    let deadline = now_ns() + TIMEOUT.as_nanos() as u64;
    loop {
        for e in &probe_events {
            let id = publishers[0]
                .publish(e.clone())
                .map_err(|e| e.to_string())?;
            probes.insert((id.node, id.seq));
        }
        let retry_at = now_ns() + PROBE_RETRY_NS;
        while now_ns() < retry_at && !subs.handles.iter().all(|(s, _)| placed[*s]) {
            poll(&subs, &mut acct, &probes, &mut placed, &mut times);
            std::thread::sleep(POLL_SLEEP);
        }
        if subs.handles.iter().all(|(s, _)| placed[*s]) {
            break;
        }
        if now_ns() > deadline {
            return Err("set-up: probe publications never reached every subscription".into());
        }
    }
    times.drain_ns = 0;
    let t_window = now_ns();
    let rss_setup_kib = rss_kib();

    // The timed window: publication i is due at i / rate.
    let mut lag_ns = Samples::with_capacity(pubs);
    let mut published = 0u64;
    for p in 0..pubs {
        let due = t_window + (p as f64 / rate * 1e9) as u64;
        loop {
            let now = now_ns();
            if now >= due {
                break;
            }
            poll(&subs, &mut acct, &probes, &mut placed, &mut times);
            let left = Duration::from_nanos(due.saturating_sub(now_ns()));
            std::thread::sleep(left.min(POLL_SLEEP));
        }
        let t0 = now_ns();
        lag_ns.push(t0 - due);
        acct.start_ns[p] = due;
        published += 1;
        let id = publishers[p % spec.publishers].publish(script.events[p].clone());
        let now = now_ns();
        times.publish_call_ns.push(now - t0);
        acct.ack(p, id.ok().map(|r| (r.node, r.seq)), now);
        poll(&subs, &mut acct, &probes, &mut placed, &mut times);
    }
    let expected: u64 = (0..pubs).map(|p| script.required.count_row(p) as u64).sum();
    let drain_until = now_ns() + DRAIN_LIMIT_NS;
    while acct.got_required < expected && now_ns() < drain_until {
        poll(&subs, &mut acct, &probes, &mut placed, &mut times);
        std::thread::sleep(POLL_SLEEP);
    }
    let rss_end_kib = rss_kib();

    drop(publishers);
    let Subscribers { handles, sessions } = subs;
    drop(handles);
    for s in sessions.into_iter().chain(pub_sessions) {
        s.close().map_err(|e| e.to_string())?;
    }

    let missing = expected - acct.got_required;
    let round = Round {
        setup_s: (t_window - t_start) as f64 / 1e9,
        publish_window_s: (acct.last_ack_ns - t_window) as f64 / 1e9,
        deliver_window_s: (acct.last_deliver_ns - t_window) as f64 / 1e9,
        published,
        acked: acct.acked,
        deliveries: acct.deliveries,
        required: expected,
        missing,
        wrong: acct.wrong,
        rss_setup_kib,
        rss_end_kib,
        deliver_ns: acct.deliver_ns.into_sorted(),
        ack_ns: acct.ack_ns.into_sorted(),
        turns: 0,
        slips: 0,
        by_turn: None,
        lag_ns: lag_ns.into_sorted(),
    };
    Ok((round, times))
}
