//! The lockstep driver: one thread alternates client frame writes,
//! `Broker::pump` and client reads over `ChannelTransport`. No kernel and no
//! scheduler are involved, so the operations of a round are a pure function
//! of the script.

use std::time::Instant;

use dps_broker::wire::{encode, Frame, FrameReader, PROTOCOL_VERSION};
use dps_broker::{Broker, BrokerConfig, ChannelTransport, Connection, Transport};
use dps_client::DEFAULT_CREDIT;

use crate::round::{Acct, Round, Turns};
use crate::script::{Churn, Script};
use crate::stats::{now_ns, rss_kib, BitMatrix, Samples};
use crate::trace::{self, Op, Trace, NO_PARENT};

/// Turns pumped after the last subscription ack before timing starts.
const SETTLE_TURNS: usize = 100;
/// Turns a round keeps pumping for outstanding deliveries after its last
/// publication was acked.
const DRAIN_TURNS: usize = 300;
/// Turns pumped with every session attached and nothing to do (traced runs).
const IDLE_TURNS: usize = 200;
/// Watchdog limits: see bench/README.md, "Sizing and the churn cliff".
const MAX_PUMP_S: f64 = 2.0;
const MAX_ROUND_S: f64 = 90.0;

/// A wire-level client following the same protocol rules as `dps-client`:
/// request sequence numbers from 1, `DEFAULT_CREDIT` per subscription,
/// replenished in half-window batches.
struct Client {
    conn: Box<dyn Connection>,
    reader: FrameReader,
    next_seq: u64,
    hello: bool,
    closed: bool,
    /// Subscriptions this session holds (script indices).
    subs: Vec<usize>,
    /// Requests sent and not yet acked (subscribers: control requests).
    pending: usize,
    /// Publishers: the publication in flight.
    outstanding: Option<usize>,
}

/// What a traced round records on top of a plain one.
pub struct Traced {
    pub trace: Trace,
    /// `[publication][client]`: the session received the publication at least
    /// once — what the overlay delivered, before per-subscription fan-out.
    pub node_hits: BitMatrix,
    pub bytes_to_broker: u64,
    pub bytes_from_broker: u64,
    pub frames_from_broker: u64,
    pub idle_pump_ns: Samples,
    /// Per window turn: time in the clients' frame writes, and in their reads.
    pub write_ns: Vec<u64>,
    pub read_ns: Vec<u64>,
    /// Allocator counts over the window's pumps: allocations, bytes, freed.
    pub allocs: (u64, u64, u64),
}

struct Run<'a> {
    script: &'a Script,
    broker: Broker,
    transport: ChannelTransport,
    clients: Vec<Client>,
    /// Client index of each subscriber slot's current session.
    slot_client: Vec<usize>,
    acct: Acct<'a>,
    /// Deliveries consumed per subscription since its last `Credit`.
    consumed: Vec<u32>,
    by_turn: Turns,
    /// Turns pumped since the broker was built.
    turn: usize,
    started: Instant,
    traced: Option<Traced>,
    /// Span of the current turn.
    turn_span: u32,
    /// Subscribe requests the broker refused.
    ctl_refused: u64,
    /// Window turns up to the last one in which an ack or delivery arrived.
    active_turns: usize,
}

#[derive(Clone, Copy)]
enum Phase {
    Setup,
    /// The timed window, with its turn number.
    Window(usize),
    Idle,
}

impl<'a> Run<'a> {
    fn connect(&mut self) -> usize {
        let conn = self.transport.connect("bench").expect("broker listens");
        self.clients.push(Client {
            conn,
            reader: FrameReader::new(),
            next_seq: 1,
            hello: false,
            closed: false,
            subs: Vec::new(),
            pending: 0,
            outstanding: None,
        });
        let c = self.clients.len() - 1;
        self.send(
            c,
            &Frame::Hello {
                version: PROTOCOL_VERSION,
                session: None,
            },
            Op::Hello,
        );
        c
    }

    fn send(&mut self, c: usize, frame: &Frame, op: Op) {
        let bytes = encode(frame).expect("script frames are small");
        let n = self.clients[c].conn.send(&bytes).expect("channel is open");
        assert_eq!(n, bytes.len(), "channel takes every byte");
        if let Some(t) = &mut self.traced {
            t.bytes_to_broker += n as u64;
            t.trace.ops.push((self.turn, c, op));
        }
    }

    fn next_seq(&mut self, c: usize) -> u64 {
        let seq = self.clients[c].next_seq;
        self.clients[c].next_seq += 1;
        seq
    }

    fn subscribe(&mut self, c: usize, sub: usize) {
        let seq = self.next_seq(c);
        self.clients[c].subs.push(sub);
        self.clients[c].pending += 1;
        let filter = self.script.subs[sub].filter.clone();
        self.send(
            c,
            &Frame::Subscribe {
                seq,
                sub: sub as u64,
                filter,
                credit: DEFAULT_CREDIT,
            },
            Op::Subscribe(sub),
        );
    }

    fn publish(&mut self, c: usize, p: usize, window_turn: usize) {
        let seq = self.next_seq(c);
        let event = self.script.events[p].clone();
        self.clients[c].outstanding = Some(p);
        let t0 = now_ns();
        self.by_turn.pub_turn[p] = window_turn as u32;
        self.acct.start_ns[p] = t0;
        self.send(c, &Frame::Publish { seq, event }, Op::Publish(p));
        if let Some(t) = &mut self.traced {
            let t1 = now_ns();
            t.trace
                .span("client.write", t0, t1, self.turn_span, Some(p as u32));
            *t.write_ns.last_mut().expect("a window turn is open") += t1 - t0;
        }
    }

    fn apply_churn(&mut self, op: &Churn) {
        match op {
            Churn::Replace { slot, subs } => {
                let old = self.slot_client[*slot];
                self.clients[old].subs.clear();
                self.send(
                    old,
                    &Frame::Close {
                        reason: "client close".into(),
                    },
                    Op::Close,
                );
                let new = self.connect();
                self.slot_client[*slot] = new;
                for s in subs {
                    self.subscribe(new, *s);
                }
            }
            Churn::Swap { slot, drop, sub } => {
                // `drop` stays in the session's list: deliveries of earlier
                // publications may still be on their way, and the script's
                // `allowed` set rejects any of a later one.
                let c = self.slot_client[*slot];
                let seq = self.next_seq(c);
                self.clients[c].pending += 1;
                self.send(
                    c,
                    &Frame::Unsubscribe {
                        seq,
                        sub: *drop as u64,
                    },
                    Op::Unsubscribe(*drop),
                );
                self.subscribe(c, *sub);
            }
        }
    }

    /// One lockstep turn: pump the broker, then every client reads.
    fn turn(&mut self, phase: Phase) -> Result<(), String> {
        let window = match phase {
            Phase::Window(w) => Some(w),
            _ => None,
        };
        let count_allocs = window.is_some() && self.traced.is_some();
        let t0 = now_ns();
        if count_allocs {
            trace::arm(true);
        }
        let pumped = self.broker.pump();
        if count_allocs {
            trace::arm(false);
        }
        let t1 = now_ns();
        pumped.map_err(|e| format!("pump failed: {e}"))?;
        self.turn += 1;
        if window.is_some() {
            self.by_turn.pump_ns.push(t1 - t0);
        }
        if let Some(t) = &mut self.traced {
            t.trace.span("broker.pump", t0, t1, self.turn_span, None);
            if matches!(phase, Phase::Idle) {
                t.idle_pump_ns.push(t1 - t0);
            }
        }
        let pump_s = (t1 - t0) as f64 / 1e9;
        if pump_s > MAX_PUMP_S || self.started.elapsed().as_secs_f64() > MAX_ROUND_S {
            // Everything unfinished is a failed operation; the run reports no
            // metrics and exits non-zero.
            let pubs = self.script.events.len() as u64;
            return Err(format!(
                "watchdog at turn {}: last pump {pump_s:.2} s (limit {MAX_PUMP_S} s), round {:.0} s (limit {MAX_ROUND_S} s); \
                 ops_failed {} ({} publications unacked, {} required deliveries outstanding)",
                self.turn,
                self.started.elapsed().as_secs_f64(),
                pubs - self.acct.acked + self.script.required_total - self.acct.got_required,
                pubs - self.acct.acked,
                self.script.required_total - self.acct.got_required,
            ));
        }
        for c in 0..self.clients.len() {
            if !self.clients[c].closed {
                self.read(c, window)?;
            }
        }
        if let Some(w) = window {
            if self.acct.last_ack_ns.max(self.acct.last_deliver_ns) >= t1 {
                self.active_turns = w + 1;
            }
        }
        Ok(())
    }

    fn read(&mut self, c: usize, window: Option<usize>) -> Result<(), String> {
        let t0 = now_ns();
        let mut buf = [0u8; 4096];
        let mut got = 0usize;
        loop {
            match self.clients[c].conn.recv(&mut buf) {
                Ok(0) => {
                    self.clients[c].closed = true;
                    break;
                }
                Ok(n) => {
                    got += n;
                    self.clients[c].reader.feed(&buf[..n]);
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) => return Err(format!("client {c}: recv: {e}")),
            }
        }
        if got == 0 {
            return Ok(());
        }
        let mut frames = 0u64;
        loop {
            let frame = self.clients[c]
                .reader
                .next_frame()
                .map_err(|e| format!("client {c}: broker sent a bad frame: {e}"))?;
            let Some(frame) = frame else { break };
            frames += 1;
            self.handle(c, frame, window);
        }
        if let Some(t) = &mut self.traced {
            t.bytes_from_broker += got as u64;
            t.frames_from_broker += frames;
            let t1 = now_ns();
            t.trace.span("client.read", t0, t1, self.turn_span, None);
            if window.is_some() {
                *t.read_ns.last_mut().expect("a window turn is open") += t1 - t0;
            }
        }
        Ok(())
    }

    fn handle(&mut self, c: usize, frame: Frame, window: Option<usize>) {
        let now = now_ns();
        match frame {
            Frame::Hello { session, .. } => {
                // The replica applies each turn's frames in session order,
                // which is connect order only if the broker numbers sessions
                // the way the harness numbers clients.
                assert_eq!(
                    session,
                    Some(c as u64 + 1),
                    "session ids follow connect order"
                );
                self.clients[c].hello = true;
            }
            Frame::Ack { pub_id, error, .. } => match self.clients[c].outstanding.take() {
                Some(p) => {
                    let id = pub_id.filter(|_| error.is_none()).map(|r| (r.node, r.seq));
                    self.acct.ack(p, id, now);
                    self.by_turn.ack_turn[p] = window.expect("publishers run in the window") as u32;
                }
                None => {
                    self.clients[c].pending -= 1;
                    if error.is_some() {
                        self.ctl_refused += 1;
                    }
                }
            },
            Frame::Deliver {
                sub,
                publisher,
                pub_seq,
                event,
            } => {
                let sub = sub as usize;
                let held = self.clients[c].subs.contains(&sub);
                let hit = self
                    .acct
                    .delivery(sub, held, (publisher, pub_seq), &event, now);
                if let (Some(p), Some(w)) = (hit, window) {
                    self.by_turn.d_pub.push(p as u64);
                    self.by_turn.d_turn.push(w as u64);
                    if let Some(t) = &mut self.traced {
                        t.node_hits.set(p, c);
                    }
                }
                if held {
                    self.consumed[sub] += 1;
                    if self.consumed[sub] >= DEFAULT_CREDIT / 2 {
                        let more = std::mem::take(&mut self.consumed[sub]);
                        let n = self.clients[c]
                            .conn
                            .send(
                                &encode(&Frame::Credit {
                                    sub: sub as u64,
                                    more,
                                })
                                .expect("small"),
                            )
                            .expect("channel is open");
                        if let Some(t) = &mut self.traced {
                            t.bytes_to_broker += n as u64;
                        }
                    }
                }
            }
            Frame::Close { .. } => self.clients[c].closed = true,
            other => panic!("broker sent a client-only frame: {other:?}"),
        }
    }

    fn pending(&self) -> usize {
        self.clients.iter().map(|c| c.pending).sum()
    }
}

/// Runs the script once on a fresh broker. With `traced`, also records spans,
/// the operation log and allocator counts.
pub fn run_round(script: &Script, traced: bool) -> Result<(Round, Option<Traced>), String> {
    let spec = &script.spec;
    let pubs = script.events.len();
    let t_start = now_ns();
    let transport = ChannelTransport::new();
    let listener = transport.listen("bench").map_err(|e| e.to_string())?;
    // Every knob at its default, the seed too: a later change to a broker
    // default must show here, and `--seed` reaches the broker only as input.
    let broker = Broker::new(BrokerConfig::default(), listener);
    let mut run = Run {
        script,
        broker,
        transport,
        clients: Vec::with_capacity(script.session_count()),
        slot_client: Vec::with_capacity(spec.sessions),
        acct: Acct::new(script),
        consumed: vec![0; script.subs.len()],
        by_turn: Turns::new(script),
        turn: 0,
        started: Instant::now(),
        traced: traced.then(|| Traced {
            trace: Trace::default(),
            node_hits: BitMatrix::new(pubs, script.session_count()),
            bytes_to_broker: 0,
            bytes_from_broker: 0,
            frames_from_broker: 0,
            idle_pump_ns: Samples::with_capacity(IDLE_TURNS),
            write_ns: Vec::new(),
            read_ns: Vec::new(),
            allocs: (0, 0, 0),
        }),
        turn_span: NO_PARENT,
        ctl_refused: 0,
        active_turns: 0,
    };

    // Set-up: sessions, subscriptions, settle.
    for _ in 0..spec.publishers {
        run.connect();
    }
    for _ in 0..spec.sessions {
        let c = run.connect();
        run.slot_client.push(c);
    }
    while !run.clients.iter().all(|c| c.hello) {
        run.turn(Phase::Setup)?;
    }
    // One session subscribes per turn: subscriptions arriving all in one
    // turn leave part of them unplaced for good (bench/README.md, findings).
    for slot in 0..spec.sessions {
        for s in &script.initial[slot] {
            run.subscribe(run.slot_client[slot], *s);
        }
        run.turn(Phase::Setup)?;
    }
    while run.pending() > 0 {
        run.turn(Phase::Setup)?;
    }
    for _ in 0..SETTLE_TURNS {
        run.turn(Phase::Setup)?;
    }
    let t_window = now_ns();
    let rss_setup_kib = rss_kib();
    if let Some(t) = &mut run.traced {
        t.trace.span("setup", t_start, t_window, NO_PARENT, None);
        t.trace.window_turns.0 = run.turn;
        // Bytes and frames are counted over the window only.
        t.bytes_to_broker = 0;
        t.bytes_from_broker = 0;
        t.frames_from_broker = 0;
    }
    let allocs_before = trace::alloc_counts();

    // The timed window.
    let mut next: Vec<usize> = (0..spec.publishers).collect();
    let mut churn = script.churn.iter().peekable();
    let mut slips = 0u64;
    let mut published = 0u64;
    let mut w = 0usize;
    let mut drained = 0usize;
    loop {
        let turn_start = now_ns();
        if let Some(t) = &mut run.traced {
            // Closed when the turn ends; the id is needed by its children.
            run.turn_span = t
                .trace
                .span("turn", turn_start, turn_start, NO_PARENT, None);
            t.write_ns.push(0);
            t.read_ns.push(0);
        }
        for (k, next) in next.iter_mut().enumerate() {
            if *next >= pubs {
                continue;
            }
            if run.clients[k].outstanding.is_some() {
                slips += 1;
                continue;
            }
            run.publish(k, *next, w);
            *next += spec.publishers;
            published += 1;
        }
        while let Some((_, op)) = churn.next_if(|(turn, _)| *turn <= w) {
            run.apply_churn(op);
        }
        run.turn(Phase::Window(w))?;
        let turn_end = now_ns();
        run.by_turn.turn_ns.push(turn_end - turn_start);
        if let Some(t) = &mut run.traced {
            t.trace.spans[run.turn_span as usize].end_ns = turn_end;
        }
        w += 1;
        let sent_all = published as usize == pubs;
        let acked_all = run.acct.acked + run.acct.refused == published;
        if sent_all && acked_all {
            if run.acct.got_required == script.required_total || drained == DRAIN_TURNS {
                break;
            }
            drained += 1;
        }
    }
    let rss_end_kib = rss_kib();
    let allocs_after = trace::alloc_counts();
    let window_end = run.acct.last_ack_ns.max(run.acct.last_deliver_ns);

    if run.traced.is_some() {
        run.turn_span = NO_PARENT;
        for _ in 0..IDLE_TURNS {
            run.turn(Phase::Idle)?;
        }
    }
    let Run {
        acct,
        mut by_turn,
        mut traced,
        turn,
        ctl_refused,
        active_turns,
        ..
    } = run;
    // Drain turns after the last arrival are outside the window.
    by_turn.pump_ns.truncate(active_turns);
    by_turn.turn_ns.truncate(active_turns);
    if let Some(t) = &mut traced {
        t.trace.window_turns.1 = turn - IDLE_TURNS;
        t.trace
            .span("window", t_window, window_end, NO_PARENT, None);
        t.allocs = (
            allocs_after.0 - allocs_before.0,
            allocs_after.1 - allocs_before.1,
            allocs_after.2 - allocs_before.2,
        );
    }
    let missing = acct.missing();
    let Acct {
        acked,
        deliveries,
        wrong,
        last_ack_ns,
        last_deliver_ns,
        deliver_ns,
        ack_ns,
        ..
    } = acct;
    let round = Round {
        setup_s: (t_window - t_start) as f64 / 1e9,
        publish_window_s: (last_ack_ns - t_window) as f64 / 1e9,
        deliver_window_s: (last_deliver_ns - t_window) as f64 / 1e9,
        published,
        acked,
        deliveries,
        required: script.required_total,
        missing,
        wrong: wrong + ctl_refused,
        rss_setup_kib,
        rss_end_kib,
        deliver_ns: deliver_ns.into_sorted(),
        ack_ns: ack_ns.into_sorted(),
        turns: active_turns as u64,
        slips,
        by_turn: Some(by_turn),
        lag_ns: Vec::new(),
    };
    Ok((round, traced))
}
