//! The broker: a long-lived process hosting a shard of the DPS overlay behind
//! a [`Transport`](crate::transport::Transport) listener.
//!
//! Each client session gets a dedicated overlay node; subscriptions and
//! publications from the session act on that node exactly as the in-process
//! `dps_client::Hub` sessions do — the overlay cannot tell a served client from a
//! simulated one. It is the bare [`dps::Overlay`] core with a [`QueueSink`]:
//! the broker observes the nodes' `Notify` upcalls and nothing else, and keeps
//! nothing about a publication once its deliveries are drained. The broker is
//! a **single-threaded, non-blocking event loop**: one [`Broker::pump`] call
//! accepts pending connections, reads and applies every decodable client
//! frame, advances the overlay simulation a fixed number of steps, fans
//! matched deliveries out to sessions (gated by per-subscription credit), and
//! flushes output buffers. Driven in lockstep over a
//! [`ChannelTransport`](crate::transport::ChannelTransport) this is fully
//! deterministic; [`Broker::serve`] wraps it in a wall-clock loop for socket
//! deployments, which between two idle turns waits on the listener and every
//! session at once ([`wait_readable`]) — never on one of them, and never
//! longer than 500 µs, so the overlay is stepped at least that often.
//!
//! # Answers leave last
//!
//! Within a turn, a session that was sent an answer (`Hello`, `Ack`, `Close`)
//! is written to its socket after every session that was not. A client that
//! reads the `Ack` of its publish can therefore rely on every `Deliver` the
//! same turn emitted being in its subscriber's socket already. This orders
//! writes, it guarantees no delivery: one that needs a later turn (credit,
//! a full buffer, more overlay steps) still arrives after the ack.
//!
//! # Backpressure
//!
//! `Deliver` frames consume per-subscription credit granted by `Subscribe`
//! and `Credit` frames. A subscriber that stops granting credit (or stops
//! reading its socket) stalls only itself: matched events queue in a bounded
//! per-subscription buffer (oldest dropped first past
//! [`MAX_PENDING`]), and the event loop never blocks on any one
//! session's socket.
//!
//! # One encoding per publication
//!
//! A delivery is a `(publisher, pub_seq, body)` record whose body is the
//! event's JSON, encoded at most once per [`Broker::pump`] and shared by
//! every subscription and session the publication reaches in that turn;
//! [`wire::write_deliver`] splices it into each session's output buffer.
//! A delivery whose subscription has credit and nothing queued is written
//! the moment it is drained, so while credit and [`MAX_OUTBUF`] allow, a
//! session's frames of one publication leave back to back, in the order its
//! node named the subscriptions; any other waits in its subscription's queue
//! and leaves oldest first. Each subscription's own frames are always in
//! order — that is the only order promised. The back-to-back run is what
//! lets the session's [`wire::FrameReader`] decode the event once for all
//! of its frames: one encoding and, on the other end, one decoding per
//! publication.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::Arc;
use std::time::Duration;

use dps::{DpsConfig, Overlay};
use dps_overlay::{PubId, QueueSink};
use dps_sim::NodeId;

use crate::transport::{wait_readable, Listener, Source};
use crate::wire::{self, EventBody, Fill, Frame, Link, PubRef, WireError, PROTOCOL_VERSION};

/// Tuning knobs for a [`Broker`].
#[derive(Debug, Clone)]
pub struct BrokerConfig {
    /// Overlay flavor for the hosted shard.
    pub net: DpsConfig,
    /// Simulation seed (the overlay is deterministic given this).
    pub seed: u64,
    /// Background overlay nodes created at startup (population that routes
    /// and hosts groups even with zero sessions attached).
    pub background_nodes: usize,
    /// Simulation steps run at startup so the background overlay converges
    /// before the first session arrives.
    pub warmup_steps: u64,
    /// Simulation steps advanced per [`Broker::pump`] call.
    pub steps_per_pump: u64,
}

/// Per-subscription cap on deliveries queued while out of credit; beyond it
/// the oldest queued delivery is dropped (and counted).
pub const MAX_PENDING: usize = 1024;

/// Per-session cap on buffered outbound bytes; `Deliver` emission pauses
/// (keeping frames in the pending queue) while a session's buffer is above
/// it, so a session that stops reading cannot balloon the broker.
pub const MAX_OUTBUF: usize = 256 * 1024;

impl Default for BrokerConfig {
    fn default() -> Self {
        BrokerConfig {
            net: DpsConfig::default(),
            seed: 42,
            background_nodes: 8,
            warmup_steps: 60,
            steps_per_pump: 4,
        }
    }
}

/// A matched delivery waiting for credit: everything a `Deliver` frame holds
/// besides the subscription id, with the event already encoded.
struct PendingDeliver {
    publisher: u64,
    pub_seq: u32,
    body: EventBody,
}

struct SubState {
    overlay: dps::SubId,
    credit: u32,
    pending: VecDeque<PendingDeliver>,
    /// Deliveries dropped off the front of `pending`; logged when the
    /// subscription ends.
    dropped: u64,
}

/// The longest [`Broker::serve`] waits between two turns: an idle broker
/// still pumps — and steps the overlay — this often.
const IDLE_WAIT: Duration = Duration::from_micros(500);

/// Plain counters of what a [`Broker`] did so far ([`Broker::stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BrokerStats {
    /// [`Broker::pump`] calls.
    pub pumps: u64,
    /// Client frames applied by them.
    pub frames_applied: u64,
    /// Waits [`Broker::serve`] made after an idle turn.
    pub waits: u64,
    /// Those of them a readable socket ended before their 500 µs passed.
    pub woken_early: u64,
}

struct SessionState {
    link: Link,
    /// Set once the session's `Hello` is accepted.
    node: Option<NodeId>,
    subs: BTreeMap<u64, SubState>,
    /// The client's id of each live subscription, by the overlay's.
    clients: HashMap<dps::SubId, u64>,
    /// A `Close` has been queued: flush, then drop the link.
    closing: bool,
    /// The link died abruptly: drop without flushing.
    dead: bool,
    /// An answer was queued this turn: the session is flushed last (module
    /// docs, "Answers leave last").
    answered: bool,
}

impl SessionState {
    /// Queues an answer to something the session sent.
    fn queue(&mut self, frame: &Frame) {
        self.answered = true;
        // Only an over-sized frame can fail here; drop the session rather
        // than send it a half-encoded stream.
        self.dead |= self.link.queue(frame).is_err();
    }

    /// Writes as much buffered output as the socket takes, never blocking.
    fn flush(&mut self) {
        self.dead |= self.link.flush().is_err();
    }
}

/// Sink for the broker's human-readable log lines.
pub type LogSink = Box<dyn FnMut(&str) + Send>;

/// See the module docs.
pub struct Broker {
    net: Overlay,
    /// The overlay's sink: matched deliveries of the session nodes.
    queues: Arc<QueueSink>,
    listener: Box<dyn Listener>,
    sessions: BTreeMap<u64, SessionState>,
    next_session: u64,
    cfg: BrokerConfig,
    /// Encoded events of the publications fanned out so far in this `pump`;
    /// cleared at the end of every turn (queued deliveries keep their own
    /// reference).
    bodies: HashMap<PubId, EventBody>,
    log: Option<LogSink>,
    stats: BrokerStats,
    /// What `serve` waits on, rebuilt before every wait and kept between
    /// them so that a wait allocates nothing.
    sources: Vec<Source>,
}

impl Broker {
    /// Builds the hosted overlay (background population + warmup) and starts
    /// accepting on `listener`.
    pub fn new(cfg: BrokerConfig, listener: Box<dyn Listener>) -> Self {
        let queues = Arc::new(QueueSink::default());
        let mut net = Overlay::new(cfg.net, cfg.seed, queues.clone());
        net.add_nodes(cfg.background_nodes);
        net.run(cfg.warmup_steps);
        Broker {
            net,
            queues,
            listener,
            sessions: BTreeMap::new(),
            next_session: 1,
            cfg,
            bodies: HashMap::new(),
            log: None,
            stats: BrokerStats::default(),
            sources: Vec::new(),
        }
    }

    /// Routes broker log lines (session lifecycle, protocol errors) to `f`.
    pub fn set_log(&mut self, f: LogSink) {
        self.log = Some(f);
    }

    fn log(&mut self, line: &str) {
        if let Some(f) = &mut self.log {
            f(line);
        }
    }

    /// Reports what drop-oldest cost a subscription, once, as it ends.
    fn log_dropped(&mut self, id: u64, sub: u64, dropped: u64) {
        if dropped > 0 {
            self.log(&format!(
                "session {id}: sub {sub}: dropped {dropped} deliveries"
            ));
        }
    }

    /// Number of live sessions.
    pub fn session_count(&self) -> usize {
        self.sessions.len()
    }

    /// The hosted overlay (metrics, simulator state).
    pub fn network(&self) -> &Overlay {
        &self.net
    }

    /// What the event loop did so far.
    pub fn stats(&self) -> BrokerStats {
        self.stats
    }

    /// One event-loop turn: accept, read+apply, step the overlay, fan out
    /// deliveries, flush — sessions that were answered this turn last. Never
    /// blocks. Returns the number of client frames applied, which lockstep
    /// drivers use as a settling signal.
    pub fn pump(&mut self) -> std::io::Result<usize> {
        self.accept_pending()?;
        let mut applied = 0;
        let ids: Vec<u64> = self.sessions.keys().copied().collect();
        for id in &ids {
            applied += self.read_session(*id);
        }
        self.net.run(self.cfg.steps_per_pump);
        for id in &ids {
            self.fan_out(*id);
        }
        self.bodies.clear();
        self.flush_and_reap();
        self.stats.pumps += 1;
        self.stats.frames_applied += applied as u64;
        Ok(applied)
    }

    /// Wall-clock serving loop: pumps until `stop` returns true. After a turn
    /// that applied nothing it waits until the listener or a session has
    /// something to read, at most 500 µs.
    pub fn serve(&mut self, mut stop: impl FnMut() -> bool) -> std::io::Result<()> {
        let out = loop {
            if stop() {
                break Ok(());
            }
            match self.pump() {
                Ok(0) => self.wait_idle(),
                Ok(_) => {}
                Err(e) => break Err(e),
            }
        };
        self.log(&format!("serve ended: {:?}", self.stats));
        out
    }

    /// Only what the next turn would read is watched: a closing session is
    /// no longer read (so its hang-up would end every wait at once) and a
    /// dead one was just reaped. Output left in a buffer is retried at the
    /// next turn, [`IDLE_WAIT`] away at most, as it always was.
    fn wait_idle(&mut self) {
        self.sources.clear();
        self.sources.push(self.listener.readiness().into());
        let read = self.sessions.values().filter(|s| !s.closing && !s.dead);
        self.sources
            .extend(read.map(|s| Source::from(s.link.readiness())));
        self.stats.waits += 1;
        self.stats.woken_early += u64::from(wait_readable(&mut self.sources, IDLE_WAIT));
    }

    fn accept_pending(&mut self) -> std::io::Result<()> {
        while let Some(conn) = self.listener.accept()? {
            let id = self.next_session;
            self.next_session += 1;
            self.sessions.insert(
                id,
                SessionState {
                    link: Link::new(conn),
                    node: None,
                    subs: BTreeMap::new(),
                    clients: HashMap::new(),
                    closing: false,
                    dead: false,
                    answered: false,
                },
            );
            self.log(&format!("session {id}: connected"));
        }
        Ok(())
    }

    /// Drains one session's socket and applies every complete frame.
    fn read_session(&mut self, id: u64) -> usize {
        let mut applied = 0;
        let s = self.sessions.get_mut(&id).expect("session exists");
        if s.closing || s.dead {
            return 0;
        }
        let fill = s.link.fill();
        s.dead = matches!(fill, Fill::Failed(_));
        loop {
            let next = {
                let s = self.sessions.get_mut(&id).expect("session exists");
                if s.closing || s.dead {
                    return applied;
                }
                s.link.next_frame()
            };
            match next {
                Ok(Some(frame)) => {
                    applied += 1;
                    self.apply(id, frame);
                }
                Ok(None) => break,
                Err(e) => {
                    // Loud, named, and terminal: the stream is unrecoverable.
                    self.log(&format!("session {id}: dropping link: {e}"));
                    self.close_session(id, &format!("protocol error: {e}"));
                    return applied;
                }
            }
        }
        if matches!(fill, Fill::Eof) {
            if let Err(e) = self.sessions[&id].link.finish() {
                self.log(&format!("session {id}: EOF mid-frame: {e}"));
            } else {
                self.log(&format!("session {id}: EOF"));
            }
            self.teardown(id);
            let s = self.sessions.get_mut(&id).expect("session exists");
            s.dead = true;
        }
        applied
    }

    /// Applies one client frame to the session and the hosted overlay.
    fn apply(&mut self, id: u64, frame: Frame) {
        // Before Hello, nothing else is legal.
        let node = self.sessions[&id].node;
        match (&frame, node) {
            (Frame::Hello { .. }, _) | (_, Some(_)) => {}
            (_, None) => {
                self.close_session(id, "protocol error: expected Hello first");
                return;
            }
        }
        match frame {
            Frame::Hello { version, .. } => {
                if version != PROTOCOL_VERSION {
                    let e = WireError::Version {
                        theirs: version,
                        ours: PROTOCOL_VERSION,
                    };
                    self.log(&format!("session {id}: {e}"));
                    self.close_session(id, &e.to_string());
                    return;
                }
                if node.is_some() {
                    self.close_session(id, "protocol error: duplicate Hello");
                    return;
                }
                let n = self.net.add_node();
                let s = self.sessions.get_mut(&id).expect("session exists");
                s.node = Some(n);
                s.queue(&Frame::Hello {
                    version: PROTOCOL_VERSION,
                    session: Some(id),
                });
                self.log(&format!("session {id}: hello, node {}", n.index()));
            }
            Frame::Subscribe {
                seq,
                sub,
                filter,
                credit,
            } => {
                let node = node.expect("checked above");
                if self.sessions[&id].subs.contains_key(&sub) {
                    self.ack_err(id, seq, &format!("subscription id {sub} already in use"));
                    return;
                }
                match self.net.try_subscribe(node, filter) {
                    Ok(overlay) => {
                        self.queues.watch(node);
                        let s = self.sessions.get_mut(&id).expect("session exists");
                        s.clients.insert(overlay, sub);
                        s.subs.insert(
                            sub,
                            SubState {
                                overlay,
                                credit,
                                pending: VecDeque::new(),
                                dropped: 0,
                            },
                        );
                        s.queue(&Frame::Ack {
                            seq,
                            pub_id: None,
                            error: None,
                        });
                    }
                    Err(e) => self.ack_err(id, seq, &e.to_string()),
                }
            }
            Frame::Unsubscribe { seq, sub } => {
                let node = node.expect("checked above");
                let overlay = self.sessions[&id].subs.get(&sub).map(|s| s.overlay);
                match overlay {
                    Some(overlay) => {
                        let out = self.net.try_unsubscribe(node, overlay);
                        let s = self.sessions.get_mut(&id).expect("session exists");
                        let ended = s.subs.remove(&sub).expect("looked up above");
                        s.clients.remove(&overlay);
                        if s.subs.is_empty() {
                            self.queues.unwatch(node);
                        }
                        self.log_dropped(id, sub, ended.dropped);
                        match out {
                            Ok(()) => {
                                let s = self.sessions.get_mut(&id).expect("session exists");
                                s.queue(&Frame::Ack {
                                    seq,
                                    pub_id: None,
                                    error: None,
                                });
                            }
                            Err(e) => self.ack_err(id, seq, &e.to_string()),
                        }
                    }
                    None => self.ack_err(id, seq, &format!("unknown subscription id {sub}")),
                }
            }
            Frame::Publish { seq, event } => {
                let node = node.expect("checked above");
                match self.net.try_publish(node, event) {
                    Ok(pid) => {
                        let s = self.sessions.get_mut(&id).expect("session exists");
                        s.queue(&Frame::Ack {
                            seq,
                            pub_id: Some(PubRef {
                                node: pid.0.index() as u64,
                                seq: pid.1,
                            }),
                            error: None,
                        });
                    }
                    Err(e) => self.ack_err(id, seq, &e.to_string()),
                }
            }
            Frame::Credit { sub, more } => {
                let s = self.sessions.get_mut(&id).expect("session exists");
                if let Some(st) = s.subs.get_mut(&sub) {
                    st.credit = st.credit.saturating_add(more);
                }
                // Credit for an unknown sub is a no-op (it may race a close).
            }
            Frame::Close { reason } => {
                self.log(&format!("session {id}: close ({reason})"));
                self.close_session(id, "goodbye");
            }
            Frame::Deliver { .. } | Frame::Ack { .. } => {
                self.close_session(id, "protocol error: broker-only frame from client");
            }
        }
    }

    fn ack_err(&mut self, id: u64, seq: u64, error: &str) {
        self.log(&format!("session {id}: request {seq} refused: {error}"));
        let s = self.sessions.get_mut(&id).expect("session exists");
        s.queue(&Frame::Ack {
            seq,
            pub_id: None,
            error: Some(error.to_string()),
        });
    }

    /// Graceful teardown: cancel state, echo `Close`, flush, then drop.
    fn close_session(&mut self, id: u64, reason: &str) {
        self.teardown(id);
        let s = self.sessions.get_mut(&id).expect("session exists");
        if !s.closing {
            s.queue(&Frame::Close {
                reason: reason.to_string(),
            });
            s.closing = true;
        }
    }

    /// Releases a session's overlay footprint (subscriptions, watch, node).
    fn teardown(&mut self, id: u64) {
        let s = self.sessions.get_mut(&id).expect("session exists");
        let node = s.node.take();
        let subs = std::mem::take(&mut s.subs);
        s.clients.clear();
        for (sub, st) in &subs {
            self.log_dropped(id, *sub, st.dropped);
        }
        if let Some(node) = node {
            for st in subs.values() {
                let _ = self.net.try_unsubscribe(node, st.overlay);
            }
            self.queues.unwatch(node);
            // Retire the node: the overlay heals around it.
            self.net.crash(node);
        }
    }

    /// Hands each of the session node's drained deliveries to the
    /// subscriptions the node matched it to: written straight into the
    /// output buffer where the subscription has credit and nothing queued
    /// (module docs, "One encoding per publication"), queued otherwise. Then
    /// emits as much of the queues as credit (and the output buffer cap)
    /// allows and, unless the session was answered this turn, writes it out.
    fn fan_out(&mut self, id: u64) {
        let Some(s) = self.sessions.get_mut(&id) else {
            return;
        };
        let Some(node) = s.node else { return };
        let bodies = &mut self.bodies;
        self.queues.drain(node, |pid, event, matched| {
            // Looked up (or encoded) at the first subscription only: each
            // further one costs a reference and a frame or a queue slot.
            let mut body: Option<EventBody> = None;
            for overlay in matched {
                // A subscription cancelled since its node matched is gone.
                let Some(&cid) = s.clients.get(overlay) else {
                    continue;
                };
                let st = s.subs.get_mut(&cid).expect("a client id names a live sub");
                let body = body.get_or_insert_with(|| {
                    let shared = bodies.entry(pid);
                    shared.or_insert_with(|| EventBody::encode(event)).clone()
                });
                let (publisher, pub_seq) = (pid.0.index() as u64, pid.1);
                if st.credit > 0 && st.pending.is_empty() && s.link.out.len() < MAX_OUTBUF {
                    let out = &mut s.link.out;
                    if wire::write_deliver(out, cid, publisher, pub_seq, body).is_ok() {
                        st.credit -= 1;
                        continue;
                    }
                    // Only an over-sized frame can fail here; as in `queue`,
                    // the session is dropped.
                    s.dead = true;
                }
                st.pending.push_back(PendingDeliver {
                    publisher,
                    pub_seq,
                    body: body.clone(),
                });
                if st.pending.len() > MAX_PENDING {
                    st.pending.pop_front();
                    st.dropped += 1;
                }
            }
        });
        for (cid, st) in s.subs.iter_mut() {
            while st.credit > 0 && s.link.out.len() < MAX_OUTBUF {
                let Some(d) = st.pending.pop_front() else {
                    break;
                };
                let out = &mut s.link.out;
                if wire::write_deliver(out, *cid, d.publisher, d.pub_seq, &d.body).is_err() {
                    s.dead = true;
                    return;
                }
                st.credit -= 1;
            }
        }
        if !s.answered {
            s.flush();
        }
    }

    /// Writes buffered output (never blocking) and reaps finished sessions.
    fn flush_and_reap(&mut self) {
        let mut done: Vec<u64> = Vec::new();
        for (id, s) in self.sessions.iter_mut() {
            s.answered = false;
            if s.dead {
                done.push(*id);
                continue;
            }
            s.flush();
            if !s.dead && s.closing && s.link.out.is_empty() {
                s.link.shutdown();
                done.push(*id);
            }
        }
        for id in done {
            // Abrupt deaths still need their overlay footprint released.
            self.teardown(id);
            self.sessions.remove(&id);
            self.log(&format!("session {id}: gone"));
        }
    }
}

impl std::fmt::Debug for Broker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Broker")
            .field("addr", &self.listener.local_addr())
            .field("sessions", &self.sessions.len())
            .finish()
    }
}
