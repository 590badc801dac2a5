//! **dps-client** — the application surface of DPS, written once: a
//! [`Session`] hands out [`Publisher`] and [`Subscriber`] handles, failures
//! are typed [`DpsError`]s and events arrive as [`Delivery`] values, whatever
//! carries them. [`Hub::open_session`] attaches a dedicated node of an
//! in-process [`dps::DpsNetwork`]; [`Session::connect`] speaks the framed
//! protocol to a live `dps-broker`. An application picks one when it opens
//! the session and is otherwise the same program (`tests/contract.rs` holds
//! both backends to one contract).
//!
//! ```
//! use dps_client::Hub;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let hub = Hub::new(dps::DpsConfig::default(), 42);
//! hub.add_nodes(8); // background overlay population
//! let trader = hub.open_session()?;
//! let ticks = trader.subscriber("price > 100".parse::<dps::Filter>()?)?;
//! let feed = hub.open_session()?;
//! hub.run(120); // let the overlay converge
//!
//! let id = feed.publisher()?.publish("price = 150".parse::<dps::Event>()?)?;
//! hub.run(40);
//! let got = ticks.drain();
//! assert_eq!(got.len(), 1);
//! assert_eq!((got[0].publisher, got[0].seq), (id.node, id.seq));
//! trader.close()?;
//! feed.close()?;
//! # Ok(())
//! # }
//! ```
//!
//! Everything is poll-based and single-threaded: nothing here spawns threads
//! and no call blocks forever.
//!
//! # Credit
//!
//! Each subscription starts with a credit window ([`SubscribeOptions`]) and
//! the subscriber replenishes it as deliveries are consumed
//! (`recv`/`drain`), in half-window batches. Stop consuming and the broker
//! stops sending after at most a window's worth — backpressure without any
//! broker-side blocking. In process nothing is paced: the window is ignored.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod local;
mod remote;

use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::rc::Rc;
use std::time::{Duration, Instant};

use dps::DpsError;
use dps_broker::wait_readable;
use dps_content::{SharedEvent, SharedFilter};

pub use dps_broker::wire::PubRef;
pub use local::Hub;

/// Default per-subscription credit window.
pub const DEFAULT_CREDIT: u32 = 64;

/// Per-subscription knobs for [`Session::subscriber_with`].
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

/// One event handed to a [`Subscriber`]: the publication's identity (what
/// [`Publisher::publish`] returned for it) plus the refcounted event body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Delivery {
    /// Index of the publishing node.
    pub publisher: u64,
    /// The publisher's per-node publication sequence number.
    pub seq: u32,
    /// The event body.
    pub event: SharedEvent,
}

/// What carries one session's requests and deliveries: a node of an
/// in-process network (`local`) or a link to a broker (`remote`).
trait Backend {
    fn subscribe(&mut self, sub: u64, filter: &SharedFilter, credit: u32) -> Result<(), DpsError>;
    /// Cancels `sub`. With `wait` unset the request is only sent on its way:
    /// nobody is left to hear the answer.
    fn unsubscribe(&mut self, sub: u64, wait: bool) -> Result<(), DpsError>;
    fn publish(&mut self, event: SharedEvent) -> Result<PubRef, DpsError>;
    /// Non-blocking progress; hands every delivery that arrived, with the
    /// subscription it is for, to `deliver`.
    fn poll(&mut self, deliver: &mut dyn FnMut(u64, Delivery)) -> Result<(), DpsError>;
    /// The application took `n` deliveries of `sub` out of its inbox.
    fn consumed(&mut self, sub: u64, n: u32);
    fn close(&mut self) -> Result<(), DpsError>;
    /// Why the carrier is unusable, if it is.
    fn check(&self) -> Result<(), DpsError> {
        Ok(())
    }
    /// Called between two polls by whatever waits for one to find something:
    /// returns after `at_most`, or sooner when polling again is worthwhile.
    /// A carrier with nothing to watch is polled every 200 µs.
    fn idle(&mut self, at_most: Duration) {
        wait_readable(&mut [None.into()], at_most);
    }
}

struct Inbox {
    queue: VecDeque<Delivery>,
    /// The subscription's credit window.
    credit: u32,
    /// Deliveries consumed since the backend was last told.
    consumed: u32,
}

struct Shared {
    backend: Box<dyn Backend>,
    id: u64,
    open: bool,
    next_sub: u64,
    /// One inbox per live subscription, keyed by its id: a subscription is
    /// open exactly while its inbox is here.
    inboxes: HashMap<u64, Inbox>,
}

impl fmt::Debug for Shared {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Shared")
            .field("id", &self.id)
            .field("open", &self.open)
            .field("subs", &self.inboxes.len())
            .finish()
    }
}

impl Shared {
    fn check(&self) -> Result<(), DpsError> {
        if !self.open {
            return Err(DpsError::SessionClosed);
        }
        self.backend.check()
    }

    fn poll(&mut self) -> Result<(), DpsError> {
        let inboxes = &mut self.inboxes;
        self.backend.poll(&mut |sub, delivery| {
            // A delivery for a cancelled subscription raced the unsubscribe;
            // it is dropped, as the protocol documents.
            if let Some(inbox) = inboxes.get_mut(&sub) {
                inbox.queue.push_back(delivery);
            }
        })
    }
}

/// One application endpoint: a dedicated overlay node, reached in process
/// ([`Hub::open_session`]) or through a broker ([`Session::connect`]), plus
/// the handles attached to it. Handles used after [`Session::close`] report
/// [`DpsError::SessionClosed`] instead of panicking.
#[derive(Debug)]
pub struct Session {
    shared: Rc<RefCell<Shared>>,
}

impl Session {
    fn over(backend: Box<dyn Backend>, id: u64) -> Session {
        Session {
            shared: Rc::new(RefCell::new(Shared {
                backend,
                id,
                open: true,
                next_sub: 1,
                inboxes: HashMap::new(),
            })),
        }
    }

    /// The session's id: assigned by the broker, or in process the index of
    /// the overlay node the session speaks as.
    pub fn id(&self) -> u64 {
        self.shared.borrow().id
    }

    /// Whether the session (and what carries it) is still usable.
    pub fn is_open(&self) -> bool {
        self.shared.borrow().check().is_ok()
    }

    /// Non-blocking progress; call this from event loops that do their own
    /// scheduling. `recv`/`drain` on subscribers poll implicitly.
    pub fn poll(&self) -> Result<(), DpsError> {
        self.shared.borrow_mut().poll()
    }

    /// A publish handle. Cheap; any number may coexist.
    pub fn publisher(&self) -> Result<Publisher, DpsError> {
        self.shared.borrow().check()?;
        Ok(Publisher {
            shared: self.shared.clone(),
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
        let mut s = self.shared.borrow_mut();
        s.check()?;
        let sub = s.next_sub;
        s.next_sub += 1;
        s.backend.subscribe(sub, &filter, opts.credit)?;
        s.inboxes.insert(
            sub,
            Inbox {
                queue: VecDeque::new(),
                credit: opts.credit,
                consumed: 0,
            },
        );
        Ok(Subscriber {
            shared: self.shared.clone(),
            sub,
            filter,
        })
    }

    /// Graceful teardown: cancels every live subscription, retires the
    /// session's node and invalidates all handles. Idempotence is an error by
    /// design — a second close reports [`DpsError::SessionClosed`].
    pub fn close(self) -> Result<(), DpsError> {
        let mut s = self.shared.borrow_mut();
        if !s.open {
            return Err(DpsError::SessionClosed);
        }
        s.open = false;
        s.inboxes.clear();
        s.backend.close()
    }
}

/// Publish handle of a [`Session`].
#[derive(Debug)]
pub struct Publisher {
    shared: Rc<RefCell<Shared>>,
}

impl Publisher {
    /// Publishes `event` from the session's node and returns the identity the
    /// publication was assigned (over a link: once the broker acked it).
    pub fn publish(&self, event: impl Into<SharedEvent>) -> Result<PubRef, DpsError> {
        let mut s = self.shared.borrow_mut();
        s.check()?;
        s.backend.publish(event.into())
    }
}

/// Receive handle for one subscription of a [`Session`]. Dropping it while
/// open cancels the subscription best-effort; [`Subscriber::close`] does so
/// and reports the outcome.
#[derive(Debug)]
pub struct Subscriber {
    shared: Rc<RefCell<Shared>>,
    sub: u64,
    filter: SharedFilter,
}

impl Subscriber {
    /// The subscription's id within its session.
    pub fn id(&self) -> u64 {
        self.sub
    }

    /// The subscription's filter.
    pub fn filter(&self) -> &SharedFilter {
        &self.filter
    }

    /// Polls, lets `take` remove deliveries from the inbox and replenishes
    /// credit once half the window has been consumed. `None` once closed.
    fn consume<T>(&self, take: impl FnOnce(&mut VecDeque<Delivery>) -> T) -> Option<T> {
        let s = &mut *self.shared.borrow_mut();
        if !s.inboxes.contains_key(&self.sub) {
            return None;
        }
        let _ = s.poll();
        let inbox = s.inboxes.get_mut(&self.sub)?;
        let queued = inbox.queue.len();
        let out = take(&mut inbox.queue);
        inbox.consumed += (queued - inbox.queue.len()) as u32;
        if inbox.consumed >= inbox.credit.max(2) / 2 {
            s.backend
                .consumed(self.sub, std::mem::take(&mut inbox.consumed));
        }
        Some(out)
    }

    /// Next queued delivery, after a poll. Never blocks: in process, events
    /// arrive as the simulation runs ([`Hub::run`]).
    pub fn recv(&self) -> Option<Delivery> {
        self.consume(|queue| queue.pop_front()).flatten()
    }

    /// Polls until a delivery arrives or `timeout` passes.
    pub fn recv_timeout(&self, timeout: Duration) -> Option<Delivery> {
        let deadline = Instant::now() + timeout;
        loop {
            if let Some(d) = self.recv() {
                return Some(d);
            }
            let s = &mut *self.shared.borrow_mut();
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() || !s.inboxes.contains_key(&self.sub) {
                return None;
            }
            s.backend.idle(left);
        }
    }

    /// Everything queued right now, oldest first.
    pub fn drain(&self) -> Vec<Delivery> {
        self.consume(|queue| queue.drain(..).collect())
            .unwrap_or_default()
    }

    /// Cancels this subscription (the session stays open). The handle counts
    /// as open until the backend agreed, so after a refused or timed-out
    /// cancel its drop still tries once more.
    pub fn close(self) -> Result<(), DpsError> {
        let mut s = self.shared.borrow_mut();
        if !s.inboxes.contains_key(&self.sub) {
            return Err(DpsError::SessionClosed);
        }
        s.backend.check()?;
        s.backend.unsubscribe(self.sub, true)?;
        s.inboxes.remove(&self.sub);
        Ok(())
    }
}

impl Drop for Subscriber {
    fn drop(&mut self) {
        // Not `borrow_mut`: a drop must not panic.
        let Ok(mut s) = self.shared.try_borrow_mut() else {
            return;
        };
        if s.inboxes.remove(&self.sub).is_some() {
            let _ = s.backend.unsubscribe(self.sub, false);
        }
    }
}
