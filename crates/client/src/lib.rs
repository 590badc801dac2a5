//! **dps-client** — the client side of a `dps-broker` connection, with the
//! same session-first shape as `dps::session`: a [`Session`] hands out
//! [`Publisher`] and [`Subscriber`] handles, failures are typed
//! [`DpsError`]s, and deliveries are `dps::Delivery` values. Code written
//! against the in-process `Hub` ports to a served broker by replacing how the
//! session is opened.
//!
//! The client is poll-based and single-threaded like the broker: nothing here
//! spawns threads, and no call blocks forever. [`Session::poll`] makes
//! progress (reads frames, routes deliveries and acks); the `wait_*`
//! convenience paths poll with a sleep and a deadline and are what the CLI
//! tools use.
//!
//! # Credit
//!
//! Each subscription starts with a credit window ([`SubscribeOptions`]) and
//! the subscriber replenishes it as deliveries are consumed
//! (`recv`/`drain`), in half-window batches. Stop consuming and the broker
//! stops sending after at most a window's worth — backpressure without any
//! broker-side blocking.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::rc::Rc;
use std::time::{Duration, Instant};

use dps::{Delivery, DpsError};
use dps_broker::wire::{Fill, Frame, Link, PubRef, WireError, PROTOCOL_VERSION};
use dps_broker::Transport;
use dps_content::{SharedEvent, SharedFilter};

/// Default per-subscription credit window.
pub const DEFAULT_CREDIT: u32 = 64;

/// Per-subscription knobs for [`Session::subscriber`].
#[derive(Debug, Clone, Copy)]
pub struct SubscribeOptions {
    /// Credit window granted to the broker, replenished in half-window
    /// batches as deliveries are consumed.
    pub credit: u32,
}

impl Default for SubscribeOptions {
    fn default() -> Self {
        SubscribeOptions {
            credit: DEFAULT_CREDIT,
        }
    }
}

struct SubInbox {
    queue: VecDeque<Delivery>,
    /// The subscription's credit window.
    credit: u32,
    /// Deliveries consumed since the last `Credit` frame.
    consumed: u32,
    open: bool,
}

fn wire_to_dps(e: WireError) -> DpsError {
    DpsError::Protocol(e.to_string())
}

struct Inner {
    link: Link,
    session: Option<u64>,
    next_seq: u64,
    next_sub: u64,
    /// Acks routed back by request seq.
    acks: HashMap<u64, Result<Option<PubRef>, String>>,
    subs: HashMap<u64, Rc<RefCell<SubInbox>>>,
    open: bool,
    /// Set when the broker sent `Close` (its reason) or the link died.
    closed_reason: Option<String>,
}

impl Inner {
    fn queue(&mut self, frame: &Frame) -> Result<(), DpsError> {
        self.link.queue(frame).map_err(wire_to_dps)
    }

    /// Non-blocking progress: flush pending output, read frames, route them.
    fn poll(&mut self) -> Result<(), DpsError> {
        if self.closed_reason.is_some() {
            return Ok(());
        }
        let sent = self.link.flush();
        let fill = self.link.fill();
        // Route what the peer already sent before judging the link: a broker
        // that refuses the session writes `Close` and hangs up, and its
        // stated reason must win over the failed send or the EOF that follow.
        loop {
            match self.link.next_frame() {
                Ok(Some(frame)) => self.route(frame),
                Ok(None) => break,
                Err(e) => {
                    let e = wire_to_dps(e);
                    self.closed_reason = Some(e.to_string());
                    return Err(e);
                }
            }
        }
        if self.closed_reason.is_none() {
            self.closed_reason = match (sent, fill) {
                (Err(e), _) => Some(format!("send failed: {e}")),
                (_, Fill::Failed(e)) => Some(format!("recv failed: {e}")),
                (_, Fill::Eof) => Some("broker closed the connection".into()),
                (Ok(()), Fill::Open) => None,
            };
        }
        Ok(())
    }

    fn route(&mut self, frame: Frame) {
        match frame {
            Frame::Hello { session, .. } => self.session = session,
            Frame::Ack { seq, pub_id, error } => {
                self.acks.insert(
                    seq,
                    match error {
                        None => Ok(pub_id),
                        Some(e) => Err(e),
                    },
                );
            }
            Frame::Deliver {
                sub,
                publisher,
                pub_seq,
                event,
            } => {
                if let Some(inbox) = self.subs.get(&sub) {
                    let mut inbox = inbox.borrow_mut();
                    if inbox.open {
                        inbox.queue.push_back(Delivery {
                            publisher,
                            seq: pub_seq,
                            event,
                        });
                    }
                }
                // Deliveries for a closed/unknown sub raced the unsubscribe;
                // they are dropped, as the protocol documents.
            }
            Frame::Close { reason } => {
                self.closed_reason = Some(format!("broker closed session: {reason}"));
            }
            // Client-only frames from the broker are a protocol violation.
            Frame::Subscribe { .. }
            | Frame::Unsubscribe { .. }
            | Frame::Publish { .. }
            | Frame::Credit { .. } => {
                self.closed_reason = Some("broker sent a client-only frame".into());
            }
        }
    }

    fn check_open(&self) -> Result<(), DpsError> {
        if !self.open {
            return Err(DpsError::SessionClosed);
        }
        if let Some(reason) = &self.closed_reason {
            return Err(DpsError::Transport(reason.clone()));
        }
        Ok(())
    }

    /// Polls until `done` yields a value or `deadline` passes.
    fn wait<T>(
        &mut self,
        deadline: Instant,
        what: &str,
        mut done: impl FnMut(&mut Inner) -> Option<T>,
    ) -> Result<T, DpsError> {
        loop {
            self.poll()?;
            if let Some(v) = done(self) {
                return Ok(v);
            }
            if let Some(reason) = &self.closed_reason {
                return Err(DpsError::Transport(reason.clone()));
            }
            if Instant::now() >= deadline {
                return Err(DpsError::Transport(format!("timed out waiting for {what}")));
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    fn wait_ack(&mut self, seq: u64, timeout: Duration) -> Result<Option<PubRef>, DpsError> {
        let out = self.wait(Instant::now() + timeout, "broker ack", |inner| {
            inner.acks.remove(&seq)
        })?;
        out.map_err(DpsError::Protocol)
    }
}

/// A live client session on a broker. The served counterpart of
/// `dps::Session`.
pub struct Session {
    inner: Rc<RefCell<Inner>>,
    timeout: Duration,
}

impl Session {
    /// Connects over `transport` to the broker at `addr` and completes the
    /// `Hello` handshake (bounded by `timeout`, which also bounds every later
    /// request/ack round-trip on this session).
    pub fn connect(
        transport: &dyn Transport,
        addr: &str,
        timeout: Duration,
    ) -> Result<Session, DpsError> {
        let conn = transport
            .connect(addr)
            .map_err(|e| DpsError::Transport(format!("connect to {addr}: {e}")))?;
        let mut inner = Inner {
            link: Link::new(conn),
            session: None,
            next_seq: 1,
            next_sub: 1,
            acks: HashMap::new(),
            subs: HashMap::new(),
            open: true,
            closed_reason: None,
        };
        inner.queue(&Frame::Hello {
            version: PROTOCOL_VERSION,
            session: None,
        })?;
        inner.wait(Instant::now() + timeout, "broker hello", |i| i.session)?;
        Ok(Session {
            inner: Rc::new(RefCell::new(inner)),
            timeout,
        })
    }

    /// The broker-assigned session id.
    pub fn id(&self) -> u64 {
        self.inner.borrow().session.expect("set by handshake")
    }

    /// Whether the session (and its link) is still usable.
    pub fn is_open(&self) -> bool {
        let inner = self.inner.borrow();
        inner.open && inner.closed_reason.is_none()
    }

    /// Non-blocking progress; call this from event loops that do their own
    /// scheduling. `recv`/`drain` on subscribers poll implicitly.
    pub fn poll(&self) -> Result<(), DpsError> {
        self.inner.borrow_mut().poll()
    }

    /// A publish handle.
    pub fn publisher(&self) -> Result<Publisher, DpsError> {
        self.inner.borrow().check_open()?;
        Ok(Publisher {
            inner: self.inner.clone(),
            timeout: self.timeout,
        })
    }

    /// Subscribes with the default credit window.
    pub fn subscriber(&self, filter: impl Into<SharedFilter>) -> Result<Subscriber, DpsError> {
        self.subscriber_with(filter, SubscribeOptions::default())
    }

    /// Subscribes with an explicit credit window.
    pub fn subscriber_with(
        &self,
        filter: impl Into<SharedFilter>,
        opts: SubscribeOptions,
    ) -> Result<Subscriber, DpsError> {
        let filter = filter.into();
        let mut inner = self.inner.borrow_mut();
        inner.check_open()?;
        let seq = inner.next_seq;
        inner.next_seq += 1;
        let sub = inner.next_sub;
        inner.next_sub += 1;
        inner.queue(&Frame::Subscribe {
            seq,
            sub,
            filter: filter.clone(),
            credit: opts.credit,
        })?;
        inner.wait_ack(seq, self.timeout)?;
        let inbox = Rc::new(RefCell::new(SubInbox {
            queue: VecDeque::new(),
            credit: opts.credit,
            consumed: 0,
            open: true,
        }));
        inner.subs.insert(sub, inbox.clone());
        Ok(Subscriber {
            inner: self.inner.clone(),
            inbox,
            sub,
            filter,
            timeout: self.timeout,
        })
    }

    /// Graceful teardown: sends `Close`, waits for the broker's echo (or
    /// EOF), and invalidates the handles.
    pub fn close(self) -> Result<(), DpsError> {
        let mut inner = self.inner.borrow_mut();
        if !inner.open {
            return Err(DpsError::SessionClosed);
        }
        inner.open = false;
        for inbox in inner.subs.values() {
            inbox.borrow_mut().open = false;
        }
        if inner.closed_reason.is_none() {
            inner.queue(&Frame::Close {
                reason: "client close".into(),
            })?;
            let deadline = Instant::now() + self.timeout;
            // Flush + drain until the broker acknowledges; a dead link is
            // already closed, which is fine.
            let _ = inner.wait(deadline, "broker close", |i| {
                i.closed_reason.as_ref().map(|_| ())
            });
        }
        inner.link.shutdown();
        Ok(())
    }
}

impl std::fmt::Debug for Session {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.borrow();
        f.debug_struct("Session")
            .field("id", &inner.session)
            .field("open", &inner.open)
            .field("subs", &inner.subs.len())
            .finish()
    }
}

/// Publish handle of a [`Session`].
pub struct Publisher {
    inner: Rc<RefCell<Inner>>,
    timeout: Duration,
}

impl Publisher {
    /// Publishes `event` and waits for the broker's ack, returning the
    /// assigned publication identity.
    pub fn publish(&self, event: impl Into<SharedEvent>) -> Result<PubRef, DpsError> {
        let mut inner = self.inner.borrow_mut();
        inner.check_open()?;
        let seq = inner.next_seq;
        inner.next_seq += 1;
        inner.queue(&Frame::Publish {
            seq,
            event: event.into(),
        })?;
        let pub_id = inner.wait_ack(seq, self.timeout)?;
        pub_id.ok_or_else(|| DpsError::Protocol("publish ack without a pub_id".into()))
    }
}

/// Receive handle for one subscription of a [`Session`].
pub struct Subscriber {
    inner: Rc<RefCell<Inner>>,
    inbox: Rc<RefCell<SubInbox>>,
    sub: u64,
    filter: SharedFilter,
    timeout: Duration,
}

impl Subscriber {
    /// The client-side subscription id.
    pub fn id(&self) -> u64 {
        self.sub
    }

    /// The subscription's filter.
    pub fn filter(&self) -> &SharedFilter {
        &self.filter
    }

    /// Replenishes broker credit once half the window has been consumed.
    fn replenish(&self, inner: &mut Inner) {
        let mut inbox = self.inbox.borrow_mut();
        let consumed = inbox.consumed;
        if consumed >= inbox.credit.max(2) / 2 {
            inbox.consumed = 0;
            let _ = inner.queue(&Frame::Credit {
                sub: self.sub,
                more: consumed,
            });
        }
    }

    /// Next queued delivery, polling the link first. Never blocks.
    pub fn recv(&self) -> Option<Delivery> {
        let mut inner = self.inner.borrow_mut();
        if !self.inbox.borrow().open {
            return None;
        }
        let _ = inner.poll();
        let out = {
            let mut inbox = self.inbox.borrow_mut();
            let out = inbox.queue.pop_front();
            if out.is_some() {
                inbox.consumed += 1;
            }
            out
        };
        self.replenish(&mut inner);
        out
    }

    /// Polls until a delivery arrives or `timeout` passes.
    pub fn recv_timeout(&self, timeout: Duration) -> Option<Delivery> {
        let deadline = Instant::now() + timeout;
        loop {
            if let Some(d) = self.recv() {
                return Some(d);
            }
            if Instant::now() >= deadline || !self.inbox.borrow().open {
                return None;
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    /// Everything queued right now, oldest first.
    pub fn drain(&self) -> Vec<Delivery> {
        let mut inner = self.inner.borrow_mut();
        if !self.inbox.borrow().open {
            return Vec::new();
        }
        let _ = inner.poll();
        let out: Vec<Delivery> = {
            let mut inbox = self.inbox.borrow_mut();
            let out: Vec<Delivery> = inbox.queue.drain(..).collect();
            inbox.consumed += out.len() as u32;
            out
        };
        self.replenish(&mut inner);
        out
    }

    /// Cancels this subscription (the session stays open).
    pub fn close(self) -> Result<(), DpsError> {
        let mut inner = self.inner.borrow_mut();
        if !self.inbox.borrow().open {
            return Err(DpsError::SessionClosed);
        }
        self.inbox.borrow_mut().open = false;
        inner.check_open()?;
        let seq = inner.next_seq;
        inner.next_seq += 1;
        inner.queue(&Frame::Unsubscribe { seq, sub: self.sub })?;
        inner.wait_ack(seq, self.timeout)?;
        inner.subs.remove(&self.sub);
        Ok(())
    }
}

impl std::fmt::Debug for Subscriber {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Subscriber")
            .field("sub", &self.sub)
            .field("filter", &self.filter.to_string())
            .field("open", &self.inbox.borrow().open)
            .finish()
    }
}
