//! The traced run: prices every layer from outside, by timing calls into its
//! public functions. Traced lockstep rounds give spans, counts and the
//! operation log; a `DpsNetwork` replica replays that log for the layers the
//! broker calls on the harness's behalf; small kernels price content, wire,
//! transport and sim on this script's own inputs; a short live probe prices
//! the client library. Nothing inside the product is instrumented.
//!
//! Every timing is taken several times and the smallest kept, call by call
//! (see `round::quiet_window_ns`): the work repeats exactly, the host does not.

use std::hint::black_box;

use dps::{DpsNetwork, MsgClass, NodeId, SubId};
use dps_broker::wire::{decode, encode, Frame, PubRef};
use dps_broker::{BrokerConfig, ChannelTransport, Transport, UnixTransport};
use dps_content::{FilterIndex, MatchScratch};
use dps_sim::{Context, Message, Process, Sim};

use crate::lockstep::{self, Traced};
use crate::round::{quiet_window_ns, quietest, Round, Turns};
use crate::script::Script;
use crate::stats::{calib_ms, now_ns, percentile};
use crate::trace::{Op, Trace, NO_PARENT};
use crate::{live, Outcome};

const PLAIN_ROUNDS: usize = 6;
const TRACED_ROUNDS: usize = 3;
const REPLAYS: usize = 3;

/// Nanoseconds per call of `f`: the best of five batches of `ms` each.
fn time_ns(ms: u64, mut f: impl FnMut()) -> f64 {
    let mut best = f64::MAX;
    for _ in 0..5 {
        let t0 = now_ns();
        let mut calls = 0u64;
        let per_call = loop {
            for _ in 0..16 {
                f();
            }
            calls += 16;
            let dt = now_ns() - t0;
            if dt >= ms * 1_000_000 {
                break dt as f64 / calls as f64;
            }
        };
        best = best.min(per_call);
    }
    best
}

#[derive(Clone, Copy, PartialEq)]
enum Kind {
    AddNode,
    Subscribe,
    Unsubscribe,
    Publish,
    Crash,
    Run,
    Drain,
}

impl Kind {
    fn span_name(self) -> &'static str {
        match self {
            Kind::AddNode => "dps.add_node",
            Kind::Subscribe => "dps.try_subscribe",
            Kind::Unsubscribe => "dps.try_unsubscribe",
            Kind::Publish => "dps.try_publish",
            Kind::Crash => "dps.crash",
            Kind::Run => "dps.run",
            Kind::Drain => "dps.drain",
        }
    }
}

/// One call the replica made: what, for which publication, whether inside
/// the timed window, when, and how many deliveries it drained.
struct Call {
    kind: Kind,
    publication: Option<u32>,
    in_window: bool,
    start_ns: u64,
    drained: u64,
}

/// What replaying the traced round's operations on a bare `DpsNetwork` gives.
struct Replica {
    calls: Vec<Call>,
    /// Duration of each call, the smallest over the replays.
    ns: Vec<u64>,
    steps: u64,
    msgs_per_pub: f64,
    contacted_per_pub: f64,
    steps_to_notify: (f64, f64),
    /// Overlay nodes alive at the end of the window, and messages sent per
    /// step over it.
    nodes: usize,
    msgs_per_step: f64,
}

impl Replica {
    fn total_ns(&self, kind: Kind, window_only: bool) -> f64 {
        self.calls
            .iter()
            .zip(&self.ns)
            .filter(|(c, _)| c.kind == kind && (c.in_window || !window_only))
            .map(|(_, ns)| *ns as f64)
            .sum()
    }

    fn mean_us(&self, kind: Kind) -> f64 {
        let n = self.calls.iter().filter(|c| c.kind == kind).count();
        self.total_ns(kind, false) / n.max(1) as f64 / 1e3
    }

    fn drained(&self) -> u64 {
        self.calls
            .iter()
            .filter(|c| c.in_window)
            .map(|c| c.drained)
            .sum()
    }
}

struct ReplicaSession {
    node: NodeId,
    /// `(script subscription, overlay id)`.
    subs: Vec<(usize, SubId)>,
}

/// The calls of one replay, in order, with their durations.
#[derive(Default)]
struct CallLog {
    calls: Vec<Call>,
    ns: Vec<u64>,
    in_window: bool,
}

impl CallLog {
    fn timed(&mut self, kind: Kind, publication: Option<u32>, f: impl FnOnce() -> u64) {
        let start_ns = now_ns();
        let drained = f();
        self.ns.push(now_ns() - start_ns);
        self.calls.push(Call {
            kind,
            publication,
            in_window: self.in_window,
            start_ns,
            drained,
        });
    }
}

/// What the broker does when a session goes: its subscriptions, then its node.
fn close(net: &mut DpsNetwork, log: &mut CallLog, s: &ReplicaSession) {
    for (_, sub) in &s.subs {
        log.timed(Kind::Unsubscribe, None, || {
            let _ = net.try_unsubscribe(s.node, *sub);
            0
        });
    }
    log.timed(Kind::Crash, None, || {
        net.sink().unwatch(s.node);
        net.crash(s.node);
        0
    });
}

fn sent_all(net: &DpsNetwork) -> u64 {
    let m = net.metrics();
    MsgClass::ALL.iter().map(|c| m.total_sent(*c)).sum()
}

/// Feeds a fresh `DpsNetwork` (the broker's configuration and seed) the
/// joins, subscribes, publishes, closes and steps the broker fed its own
/// during the traced round, in the same order (each turn: frames by session,
/// then the steps, then one drain per session), timing every call. The
/// network is a pure function of its seed and calls, so the replica does what
/// the broker's network did.
fn replay_once(script: &Script, trace: &Trace, pubs: u64) -> Replica {
    let cfg = BrokerConfig::default();
    let mut net = DpsNetwork::new(cfg.net.clone(), cfg.seed);
    net.add_nodes(cfg.background_nodes);
    net.run(cfg.warmup_steps);

    let mut ops: Vec<&(usize, usize, Op)> = trace.ops.iter().collect();
    ops.sort_by_key(|(turn, client, _)| (*turn, *client));
    let (w0, w1) = trace.window_turns;
    let mut log = CallLog::default();
    let mut sessions: Vec<Option<ReplicaSession>> = Vec::new();
    let mut next_op = 0;
    let mut drain_buf = Vec::new();
    let mut at_open = (0u64, 0u64, 0usize, 0u64);
    for turn in 0..w1 {
        if turn == w0 {
            log.in_window = true;
            at_open = (
                net.metrics().total_sent(MsgClass::Publication),
                sent_all(&net),
                net.sink().total_contacts(),
                net.sim().now(),
            );
        }
        while next_op < ops.len() && ops[next_op].0 == turn {
            let (_, client, op) = ops[next_op];
            next_op += 1;
            if sessions.len() <= *client {
                sessions.resize_with(client + 1, || None);
            }
            match op {
                Op::Hello => {
                    let mut node = None;
                    log.timed(Kind::AddNode, None, || {
                        node = Some(net.add_node());
                        0
                    });
                    sessions[*client] = Some(ReplicaSession {
                        node: node.expect("set by the call"),
                        subs: Vec::new(),
                    });
                }
                Op::Subscribe(sub) => {
                    let s = sessions[*client].as_mut().expect("hello came first");
                    let filter = script.subs[*sub].filter.clone();
                    let mut id = None;
                    log.timed(Kind::Subscribe, None, || {
                        id = net.try_subscribe(s.node, filter).ok();
                        net.sink().watch(s.node);
                        0
                    });
                    s.subs
                        .push((*sub, id.expect("the broker's subscribe succeeded")));
                }
                Op::Unsubscribe(sub) => {
                    let s = sessions[*client].as_mut().expect("hello came first");
                    let held = s.subs.iter().position(|(script_sub, _)| script_sub == sub);
                    let (_, id) = s.subs.remove(held.expect("subscribed before"));
                    log.timed(Kind::Unsubscribe, None, || {
                        let _ = net.try_unsubscribe(s.node, id);
                        if s.subs.is_empty() {
                            net.sink().unwatch(s.node);
                        }
                        0
                    });
                }
                Op::Publish(p) => {
                    let node = sessions[*client].as_ref().expect("hello came first").node;
                    let event = script.events[*p].clone();
                    log.timed(Kind::Publish, Some(*p as u32), || {
                        black_box(net.try_publish(node, event).ok());
                        0
                    });
                }
                Op::Close => {
                    let s = sessions[*client].take().expect("hello came first");
                    close(&mut net, &mut log, &s);
                }
            }
        }
        log.timed(Kind::Run, None, || {
            net.run(cfg.steps_per_pump);
            0
        });
        log.timed(Kind::Drain, None, || {
            let mut drained = 0;
            for s in sessions.iter().flatten() {
                net.sink().drain_deliveries(s.node, &mut drain_buf);
                drained += drain_buf.len() as u64;
                drain_buf.clear();
            }
            drained
        });
    }
    let steps = net.sim().now() - at_open.3;
    let msgs_per_pub =
        (net.metrics().total_sent(MsgClass::Publication) - at_open.0) as f64 / pubs as f64;
    let msgs_per_step = (sent_all(&net) - at_open.1) as f64 / steps.max(1) as f64;
    let contacted_per_pub = (net.sink().total_contacts() - at_open.2) as f64 / pubs as f64;
    let lat = net.latency_summary_between(at_open.3, u64::MAX);
    let nodes = net.sim().alive_count();
    // Every workload prices a teardown: the sessions still open close now.
    log.in_window = false;
    for s in sessions.iter_mut().filter_map(Option::take) {
        close(&mut net, &mut log, &s);
    }
    Replica {
        calls: log.calls,
        ns: log.ns,
        steps,
        msgs_per_pub,
        contacted_per_pub,
        steps_to_notify: (lat.p50, lat.p99),
        nodes,
        msgs_per_step,
    }
}

/// Replays `REPLAYS` times and keeps each call's smallest duration; the first
/// replay's calls become spans under one `replica` span.
fn replay(script: &Script, trace: &mut Trace, pubs: u64) -> Replica {
    let t0 = now_ns();
    let mut replica = replay_once(script, trace, pubs);
    let root = trace.span("replica", t0, now_ns(), NO_PARENT, None);
    for (c, ns) in replica.calls.iter().zip(&replica.ns) {
        trace.span(
            c.kind.span_name(),
            c.start_ns,
            c.start_ns + ns,
            root,
            c.publication,
        );
    }
    for _ in 1..REPLAYS {
        let again = replay_once(script, trace, pubs);
        assert_eq!(
            again.ns.len(),
            replica.ns.len(),
            "replays make the same calls"
        );
        replica.ns = quietest([&replica.ns[..], &again.ns[..]].into_iter());
    }
    replica
}

/// A message that is only ever passed on.
#[derive(Clone, Debug)]
struct Token;

impl Message for Token {
    fn class(&self) -> MsgClass {
        MsgClass::Publication
    }
}

/// A process that relays every message to the next node.
struct Relay {
    nodes: usize,
}

impl Process for Relay {
    type Msg = Token;

    fn on_message(&mut self, _from: NodeId, msg: Token, ctx: &mut Context<'_, Token>) {
        let next = NodeId::from_index((ctx.me().index() + 1) % self.nodes);
        ctx.send(next, msg);
    }
}

/// `Sim::step` with `nodes` relay-only processes and `in_flight` messages
/// moving per step: the engine's own cost at the traced round's volume.
fn sim_step_ns(nodes: usize, in_flight: usize) -> f64 {
    let nodes = nodes.max(2);
    let mut sim = Sim::new(1);
    for _ in 0..nodes {
        sim.add_node(Relay { nodes });
    }
    for i in 0..in_flight.max(1) {
        sim.post(NodeId::from_index(i % nodes), Token);
    }
    sim.run(50);
    time_ns(8, || sim.step())
}

fn deliver_frame(script: &Script, p: usize) -> Frame {
    Frame::Deliver {
        sub: (p % script.subs.len()) as u64,
        publisher: 9,
        pub_seq: p as u32 + 1,
        event: script.events[p].clone(),
    }
}

pub fn traced_run(script: &Script, seed: u64) -> Result<Outcome, String> {
    let spec = &script.spec;
    let pubs = script.events.len();
    let out = crate::out_dir();

    // Plain rounds, then traced ones, the calibration kernel around each.
    let mut calib = vec![calib_ms()];
    let mut rounds: Vec<Round> = Vec::new();
    let mut traces: Vec<Traced> = Vec::new();
    for i in 0..PLAIN_ROUNDS + TRACED_ROUNDS {
        let (round, traced) = lockstep::run_round(script, i >= PLAIN_ROUNDS)?;
        rounds.push(round);
        traces.extend(traced);
        calib.push(calib_ms());
    }
    let round = &rounds[PLAIN_ROUNDS];
    if let Some(r) = rounds.iter().find(|r| r.counts() != round.counts()) {
        return Err(format!(
            "rounds of one seed disagree on their counts: {:?} and {:?}",
            round.counts(),
            r.counts()
        ));
    }
    let all: Vec<&Turns> = rounds
        .iter()
        .map(|r| r.by_turn.as_ref().expect("a lockstep round"))
        .collect();
    let plain_window_ns = quiet_window_ns(&all[..PLAIN_ROUNDS], u32::MAX);
    let traced_window_ns = quiet_window_ns(&all[PLAIN_ROUNDS..], u32::MAX);
    let last_ack = *all[0].ack_turn.iter().max().expect("publications");
    let acked = round.acked as f64;
    let best_pps = acked / quiet_window_ns(&all[..PLAIN_ROUNDS], last_ack) * 1e9;
    let wall = |r: &Round| r.setup_s + r.deliver_window_s;
    let fastest = rounds[..PLAIN_ROUNDS]
        .iter()
        .map(wall)
        .fold(f64::MAX, f64::min);
    let slowest = rounds[..PLAIN_ROUNDS]
        .iter()
        .map(wall)
        .fold(f64::MIN, f64::max);
    let write_ns = quietest(traces.iter().map(|t| &t.write_ns[..]));
    let read_ns = quietest(traces.iter().map(|t| &t.read_ns[..]));
    let Traced {
        mut trace,
        node_hits,
        bytes_to_broker,
        bytes_from_broker,
        frames_from_broker,
        idle_pump_ns,
        allocs,
        ..
    } = traces.swap_remove(0);

    // dps and overlay: the replica.
    let replica = replay(script, &mut trace, round.acked);
    if replica.drained() != node_hits.count() {
        return Err(format!(
            "replica drained {} deliveries, the broker's sessions saw {}: the replica no longer mirrors the broker",
            replica.drained(),
            node_hits.count()
        ));
    }

    // content.
    let filters: Vec<_> = script
        .initial
        .iter()
        .flatten()
        .map(|s| script.subs[*s].filter.clone())
        .collect();
    let mut index = FilterIndex::new();
    for (i, f) in filters.iter().enumerate() {
        index.insert(i, f.clone());
    }
    let mut scratch = MatchScratch::new();
    let mut hits = Vec::new();
    let mut e = 0;
    let index_ns = time_ns(8, || {
        index.matching_into(&script.events[e % pubs], &mut scratch, &mut hits);
        black_box(hits.len());
        e += 1;
    });
    let mut matched = 0u64;
    let sample = &script.events[..pubs.min(400)];
    for event in sample {
        matched += filters.iter().filter(|f| f.matches(event)).count() as u64;
    }
    let pairs = (sample.len() * filters.len()) as f64;
    let mut e = 0;
    let scan_ns = time_ns(8, || {
        let event = &script.events[e % pubs];
        black_box(filters.iter().filter(|f| f.matches(event)).count());
        e += 1;
    }) / filters.len() as f64;
    let mut e = 0;
    let to_string_ns = time_ns(4, || {
        black_box(script.events[e % pubs].to_string());
        e += 1;
    });

    // wire.
    let frames: Vec<Frame> = (0..pubs.min(256))
        .map(|p| deliver_frame(script, p))
        .collect();
    let encoded: Vec<Vec<u8>> = frames.iter().map(|f| encode(f).expect("small")).collect();
    let bytes_per_deliver =
        encoded.iter().map(Vec::len).sum::<usize>() as f64 / encoded.len() as f64;
    let mut i = 0;
    let encode_deliver_ns = time_ns(8, || {
        black_box(encode(&frames[i % frames.len()]).expect("small"));
        i += 1;
    });
    let mut i = 0;
    let decode_deliver_ns = time_ns(8, || {
        black_box(decode(&encoded[i % encoded.len()]).expect("valid"));
        i += 1;
    });
    let mut i = 0;
    let encode_publish_ns = time_ns(8, || {
        let frame = Frame::Publish {
            seq: i as u64,
            event: script.events[i % pubs].clone(),
        };
        black_box(encode(&frame).expect("small"));
        i += 1;
    });
    let ack = Frame::Ack {
        seq: 7,
        pub_id: Some(PubRef { node: 9, seq: 7 }),
        error: None,
    };
    let encode_ack_ns = time_ns(4, || {
        black_box(encode(&ack).expect("small"));
    });
    let encoded_ack = encode(&ack).expect("small");
    let decode_ack_ns = time_ns(4, || {
        black_box(decode(&encoded_ack).expect("valid"));
    });

    // transport.
    let channel = ChannelTransport::new();
    let mut listener = channel.listen("kernel").map_err(|e| e.to_string())?;
    let mut a = channel.connect("kernel").map_err(|e| e.to_string())?;
    let mut b = listener
        .accept()
        .map_err(|e| e.to_string())?
        .ok_or("channel accept")?;
    let kib = [7u8; 1024];
    let mut buf = [0u8; 4096];
    let channel_ns_per_kib = time_ns(8, || {
        a.send(&kib).expect("open");
        let mut got = 0;
        while got < kib.len() {
            got += b.recv(&mut buf).expect("bytes queued");
        }
    });
    let addr = crate::socket_addr();
    let mut listener = UnixTransport.listen(&addr).map_err(|e| e.to_string())?;
    let mut a = UnixTransport.connect(&addr).map_err(|e| e.to_string())?;
    let mut b = loop {
        if let Some(c) = listener.accept().map_err(|e| e.to_string())? {
            break c;
        }
    };
    let frame = &encoded[0];
    let unix_ns_per_frame = time_ns(8, || {
        a.send(frame).expect("socket buffer has room");
        let mut got = 0;
        while got < frame.len() {
            match b.recv(&mut buf) {
                Ok(n) => got += n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {}
                Err(e) => panic!("unix recv: {e}"),
            }
        }
    });
    drop((a, b, listener));

    // sim.
    let step_ns = sim_step_ns(replica.nodes, replica.msgs_per_step.round() as usize);

    // client: the live probe.
    let (probe, times) = live::run_round(script, spec.probe.0.min(pubs), spec.probe.1, &addr)?;
    let probe_failed = probe.failed(true);
    if probe_failed > 0 {
        println!("FAIL: live probe: {probe_failed} operations failed");
    }
    let publish_call = times.publish_call_ns.into_sorted();
    let connect_ms = times.connect_ns.sum() as f64 / times.connect_ns.len() as f64 / 1e6;
    let subscribe_ms = times.subscribe_ns.sum() as f64 / times.subscribe_ns.len() as f64 / 1e6;

    // The budget of one publication, microseconds, every turn at its quietest:
    // the window and the clients' share of it from the traced rounds, the
    // pump from every round.
    let per_pub = |ns: f64| ns / acked / 1e3;
    let window_us = per_pub(traced_window_ns);
    let pump_ns = quietest(all.iter().map(|p| p.pump_ns.as_slice()));
    let pump_us = per_pub(pump_ns.iter().map(|v| *v as f64).sum());
    let write_us = per_pub(write_ns.iter().sum::<u64>() as f64);
    let read_us = per_pub(read_ns.iter().sum::<u64>() as f64);
    let dps_publish_us = per_pub(replica.total_ns(Kind::Publish, true));
    let dps_run_us = per_pub(replica.total_ns(Kind::Run, true));
    let dps_drain_us = per_pub(replica.total_ns(Kind::Drain, true));
    let dps_control_us = per_pub(
        replica.total_ns(Kind::AddNode, true)
            + replica.total_ns(Kind::Subscribe, true)
            + replica.total_ns(Kind::Unsubscribe, true)
            + replica.total_ns(Kind::Crash, true),
    );
    let deliveries = round.deliveries as f64;
    let wire_encode_us = per_pub(deliveries * encode_deliver_ns + acked * encode_ack_ns);
    let wire_decode_us = per_pub(deliveries * decode_deliver_ns + acked * decode_ack_ns);
    let moved_kib = (bytes_to_broker + bytes_from_broker) as f64 / 1024.0;
    // The kernel timed one push and one pop per byte; the broker does one of
    // the two for every byte, the clients the other.
    let transport_us = per_pub(moved_kib * channel_ns_per_kib);
    let dps_us = dps_publish_us + dps_run_us + dps_drain_us + dps_control_us;
    let broker_rest_us = pump_us - dps_us - wire_encode_us - transport_us / 2.0;
    let client_rest_us = read_us - wire_decode_us - transport_us / 2.0;
    let harness_us = window_us - pump_us - write_us - read_us;
    let rows: [(&str, f64, &str); 11] = [
        ("client: encode + send Publish", write_us, "timed calls"),
        (
            "transport: channel bytes",
            transport_us,
            "bytes x transport.channel_ns_per_kib",
        ),
        ("broker: dps try_publish", dps_publish_us, "replica"),
        ("broker: dps run (overlay steps)", dps_run_us, "replica"),
        ("broker: dps drain", dps_drain_us, "replica"),
        (
            "broker: dps join/(un)subscribe/close",
            dps_control_us,
            "replica",
        ),
        (
            "broker: wire encode x fan-out",
            wire_encode_us,
            "frames x wire.encode_ns",
        ),
        (
            "broker: rest (decode, demux, poll, flush)",
            broker_rest_us,
            "pump - rows above",
        ),
        (
            "client: wire decode x fan-out",
            wire_decode_us,
            "frames x wire.decode_ns",
        ),
        (
            "client: rest (harness checks)",
            client_rest_us,
            "reads - decode",
        ),
        ("harness: turn loop", harness_us, "window - pump - clients"),
    ];
    let sum: f64 = rows.iter().map(|r| r.1).sum();
    let target = 1e6 / best_pps;
    println!(
        "budget per publication ({}, lockstep, every turn at its quietest):",
        spec.name
    );
    for (name, us, how) in rows {
        println!(
            "  {name:<44} {us:>10.2} us  {:>5.1}%  ({how})",
            100.0 * us / sum
        );
    }
    println!(
        "  {:<44} {sum:>10.2} us  vs 1/publishes_per_s = {target:.2} us (plain rounds): {:.1}% {}",
        "sum",
        100.0 * sum / target,
        if (sum / target - 1.0).abs() <= 0.2 {
            "ok"
        } else {
            "OUTSIDE 20%"
        }
    );
    println!(
        "  wire.* share of the budget: {:.1}%",
        100.0 * (wire_encode_us + wire_decode_us) / sum
    );

    let path = out.join(format!("trace-{}.json", spec.name));
    trace
        .write_json(&path, spec.name, seed)
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!("{} spans written to {}", trace.spans.len(), path.display());

    let idle = idle_pump_ns.into_sorted();
    let turns_to_deliver = all[PLAIN_ROUNDS].turns_to_deliver();
    let mut pump_sorted = pump_ns.clone();
    pump_sorted.sort_unstable();
    let metrics = vec![
        (
            "broker.pump_us_p50",
            percentile(&pump_sorted, 0.5) / 1e3,
            "us",
        ),
        (
            "broker.pump_us_p99",
            percentile(&pump_sorted, 0.99) / 1e3,
            "us",
        ),
        ("broker.pump_us_per_pub", pump_us, "us"),
        ("broker.idle_pump_us", percentile(&idle, 0.5) / 1e3, "us"),
        (
            "broker.turns_to_deliver_p50",
            percentile(&turns_to_deliver, 0.5),
            "count",
        ),
        (
            "broker.turns_to_deliver_p99",
            percentile(&turns_to_deliver, 0.99),
            "count",
        ),
        ("broker.self_us_per_pub", pump_us - dps_us, "us"),
        ("dps.try_publish_us", replica.mean_us(Kind::Publish), "us"),
        (
            "dps.run_us_per_step",
            replica.total_ns(Kind::Run, true) / replica.steps.max(1) as f64 / 1e3,
            "us",
        ),
        (
            "dps.drain_us_per_delivery",
            replica.total_ns(Kind::Drain, true) / replica.drained().max(1) as f64 / 1e3,
            "us",
        ),
        (
            "dps.try_subscribe_us",
            replica.mean_us(Kind::Subscribe),
            "us",
        ),
        (
            "dps.try_unsubscribe_us",
            replica.mean_us(Kind::Unsubscribe),
            "us",
        ),
        ("dps.add_node_us", replica.mean_us(Kind::AddNode), "us"),
        ("dps.crash_us", replica.mean_us(Kind::Crash), "us"),
        ("overlay.msgs_per_pub", replica.msgs_per_pub, "count"),
        (
            "overlay.steps_to_notify_p50",
            replica.steps_to_notify.0,
            "count",
        ),
        (
            "overlay.steps_to_notify_p99",
            replica.steps_to_notify.1,
            "count",
        ),
        (
            "overlay.contacted_per_pub",
            replica.contacted_per_pub,
            "count",
        ),
        (
            "overlay.live_share",
            round.deliveries as f64 / script.live_total as f64,
            "share",
        ),
        ("sim.step_us", step_ns / 1e3, "us"),
        (
            "sim.ns_per_msg",
            step_ns / replica.msgs_per_step.max(1.0),
            "ns",
        ),
        ("content.index_match_us_per_event", index_ns / 1e3, "us"),
        ("content.scan_match_ns_per_filter", scan_ns, "ns"),
        ("content.event_to_string_ns", to_string_ns, "ns"),
        ("content.match_rate", matched as f64 / pairs, "share"),
        ("wire.encode_ns_per_deliver", encode_deliver_ns, "ns"),
        ("wire.decode_ns_per_deliver", decode_deliver_ns, "ns"),
        ("wire.bytes_per_deliver", bytes_per_deliver, "B"),
        ("wire.encode_ns_per_publish", encode_publish_ns, "ns"),
        (
            "wire.encodes_per_pub",
            frames_from_broker as f64 / acked,
            "count",
        ),
        ("transport.channel_ns_per_kib", channel_ns_per_kib, "ns"),
        ("transport.unix_us_per_frame", unix_ns_per_frame / 1e3, "us"),
        (
            "client.publish_call_us_p50",
            percentile(&publish_call, 0.5) / 1e3,
            "us",
        ),
        (
            "client.drain_us_per_delivery",
            times.drain_ns as f64 / probe.deliveries.max(1) as f64 / 1e3,
            "us",
        ),
        ("client.connect_ms", connect_ms, "ms"),
        ("client.subscribe_ms", subscribe_ms, "ms"),
        ("mem.allocs_per_pub", allocs.0 as f64 / acked, "count"),
        (
            "mem.alloc_kib_per_pub",
            allocs.1 as f64 / 1024.0 / acked,
            "KiB",
        ),
        (
            "mem.live_kib_per_pub",
            (allocs.1 as f64 - allocs.2 as f64) / 1024.0 / acked,
            "KiB",
        ),
        ("harness.pump_share", pump_us / window_us, "share"),
        (
            "harness.round_spread",
            (slowest - fastest) / fastest,
            "share",
        ),
        (
            "harness.calib_ms",
            calib.iter().copied().fold(f64::MAX, f64::min),
            "ms",
        ),
        (
            "harness.sched_lag_ms_p99",
            percentile(&probe.lag_ns, 0.99) / 1e6,
            "ms",
        ),
        (
            "harness.trace_overhead_share",
            traced_window_ns / plain_window_ns - 1.0,
            "share",
        ),
    ];
    let strict = spec.strict;
    let failed = rounds.iter().map(|r| r.failed(strict)).sum::<u64>() + probe_failed;
    let attempted = rounds.iter().map(Round::attempted).sum::<u64>() + probe.attempted();
    println!(
        "counts per round: {} publications, {} deliveries, {} turns, {} frames from the broker, {} bytes to it, {} from it",
        round.acked, round.deliveries, round.turns, frames_from_broker, bytes_to_broker, bytes_from_broker
    );
    println!("ops_attempted {attempted}  ops_failed {failed}");
    Ok(Outcome {
        correct: failed == 0,
        attempted,
        failed,
        metrics,
    })
}
