//! The session-first API: [`Hub`] → [`Session`] → [`Publisher`]/[`Subscriber`].
//!
//! [`DpsNetwork`] is a simulation driver: it pokes nodes from the outside and
//! measures against an oracle. An *application*, though, holds a connection to
//! the system, subscribes, publishes, and receives events — whether the system
//! is this in-process simulation or a remote `dps-broker` process. This module
//! is the in-process side of that shared surface; the `dps-client` crate
//! implements the same `Session`/`Publisher`/`Subscriber` shape over a framed
//! transport, both returning [`DpsError`] and yielding [`Delivery`] values, so
//! application code is written once against either backend.
//!
//! # Lifecycle
//!
//! A [`Hub`] owns the network. [`Hub::open_session`] attaches one application
//! endpoint (a dedicated overlay node); the session hands out [`Publisher`]
//! and [`Subscriber`] handles; [`Session::close`] (and
//! [`Subscriber::close`]) tear down explicitly — handles used after a close
//! report [`DpsError::SessionClosed`] instead of panicking.
//!
//! ```
//! use dps::session::Hub;
//! use dps::DpsConfig;
//!
//! # fn main() -> Result<(), dps::DpsError> {
//! let hub = Hub::new(DpsConfig::default(), 42);
//! hub.add_nodes(8); // background overlay population
//!
//! let trader = hub.open_session()?;
//! let ticks = trader.subscriber("price > 100".parse::<dps::Filter>().unwrap())?;
//!
//! let feed = hub.open_session()?;
//! let quotes = feed.publisher()?;
//! hub.run(120); // let the overlay converge
//!
//! quotes.publish("price = 150".parse::<dps::Event>().unwrap())?;
//! hub.run(40);
//!
//! let got = ticks.drain();
//! assert_eq!(got.len(), 1);
//! assert_eq!(got[0].event.to_string(), "price = 150");
//! trader.close()?;
//! feed.close()?;
//! # Ok(())
//! # }
//! ```

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::rc::Rc;

use dps_content::{SharedEvent, SharedFilter};
use dps_overlay::{DpsConfig, PubId, SubId};
use dps_sim::NodeId;

use crate::error::DpsError;
use crate::network::DpsNetwork;

/// One event handed to a [`Subscriber`]: the publication identity plus the
/// (refcounted) event body. The broker client yields the same shape, so code
/// consuming deliveries ports across backends unchanged.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Delivery {
    /// Index of the publishing node.
    pub publisher: u64,
    /// The publisher's per-node publication sequence number.
    pub seq: u32,
    /// The event body.
    pub event: SharedEvent,
}

impl Delivery {
    /// The simulator-side publication id this delivery corresponds to.
    pub fn pub_id(&self) -> PubId {
        PubId(NodeId::from_index(self.publisher as usize), self.seq)
    }
}

struct SubEntry {
    id: SubId,
    filter: SharedFilter,
    inbox: Rc<RefCell<VecDeque<Delivery>>>,
    open: Rc<Cell<bool>>,
}

struct SessionShared {
    node: NodeId,
    open: bool,
    subs: Vec<SubEntry>,
    /// Scratch for draining the sink's watch queue.
    drain_buf: Vec<(PubId, SharedEvent)>,
}

/// An in-process session host: a [`DpsNetwork`] that applications attach to
/// through [`Session`] handles. Cloning a `Hub` is cheap (it shares the one
/// network); `Hub` is single-threaded by design — the simulation itself
/// spreads across cores via [`DpsNetwork::new_sharded`].
#[derive(Clone)]
pub struct Hub {
    net: Rc<RefCell<DpsNetwork>>,
}

impl Hub {
    /// A hub over a fresh network; see [`DpsNetwork::new`].
    pub fn new(cfg: DpsConfig, seed: u64) -> Self {
        Hub::from_network(DpsNetwork::new(cfg, seed))
    }

    /// Wraps an existing network (keeps its nodes, subscriptions, history).
    pub fn from_network(net: DpsNetwork) -> Self {
        Hub {
            net: Rc::new(RefCell::new(net)),
        }
    }

    /// Adds `n` background overlay nodes (population that routes and hosts
    /// groups but has no application session attached).
    pub fn add_nodes(&self, n: usize) -> Vec<NodeId> {
        self.net.borrow_mut().add_nodes(n)
    }

    /// Opens a session on a **new** overlay node (one session per node: a
    /// second one would steal the first's deliveries).
    pub fn open_session(&self) -> Result<Session, DpsError> {
        let node = self.net.borrow_mut().add_node();
        Ok(Session {
            net: self.net.clone(),
            shared: Rc::new(RefCell::new(SessionShared {
                node,
                open: true,
                subs: Vec::new(),
                drain_buf: Vec::new(),
            })),
        })
    }

    /// Advances the simulation `steps` steps.
    pub fn run(&self, steps: u64) {
        self.net.borrow_mut().run(steps);
    }

    /// Runs until every issued subscription is placed, or `max_steps` elapse;
    /// returns whether the overlay fully converged.
    pub fn quiesce(&self, max_steps: u64) -> bool {
        self.net.borrow_mut().quiesce(max_steps)
    }

    /// Ratio of correctly delivered events (see
    /// [`DpsNetwork::delivered_ratio`]).
    pub fn delivered_ratio(&self) -> f64 {
        self.net.borrow().delivered_ratio()
    }

    /// Escape hatch: runs `f` with the underlying network (faults, metrics,
    /// oracle — the whole driver surface).
    ///
    /// # Panics
    ///
    /// Panics if called re-entrantly from within `f` itself.
    pub fn with_network<R>(&self, f: impl FnOnce(&mut DpsNetwork) -> R) -> R {
        f(&mut self.net.borrow_mut())
    }
}

impl std::fmt::Debug for Hub {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Hub")
            .field("net", &self.net.borrow())
            .finish()
    }
}

/// One application endpoint on a [`Hub`]: a dedicated overlay node plus the
/// handles attached to it. Explicit lifecycle: [`Session::close`] cancels the
/// session's live subscriptions and invalidates its handles.
pub struct Session {
    net: Rc<RefCell<DpsNetwork>>,
    shared: Rc<RefCell<SessionShared>>,
}

impl Session {
    /// The overlay node this session speaks as.
    pub fn node(&self) -> NodeId {
        self.shared.borrow().node
    }

    /// Whether the session is still open.
    pub fn is_open(&self) -> bool {
        self.shared.borrow().open
    }

    /// A publish handle. Cheap; any number may coexist.
    pub fn publisher(&self) -> Result<Publisher, DpsError> {
        if !self.is_open() {
            return Err(DpsError::SessionClosed);
        }
        Ok(Publisher {
            net: self.net.clone(),
            shared: self.shared.clone(),
        })
    }

    /// Subscribes this session to `filter` and returns the receive handle.
    pub fn subscriber(&self, filter: impl Into<SharedFilter>) -> Result<Subscriber, DpsError> {
        if !self.is_open() {
            return Err(DpsError::SessionClosed);
        }
        let filter = filter.into();
        let node = self.node();
        let id = self.net.borrow_mut().try_subscribe(node, filter.clone())?;
        // Payload retention starts with the first subscriber.
        self.net.borrow().sink().watch(node);
        let inbox = Rc::new(RefCell::new(VecDeque::new()));
        let open = Rc::new(Cell::new(true));
        self.shared.borrow_mut().subs.push(SubEntry {
            id,
            filter: filter.clone(),
            inbox: inbox.clone(),
            open: open.clone(),
        });
        Ok(Subscriber {
            net: self.net.clone(),
            shared: self.shared.clone(),
            id,
            filter,
            inbox,
            open,
        })
    }

    /// Closes the session: cancels every live subscription, stops payload
    /// retention and invalidates all handles. Idempotence is an error by
    /// design — a second close reports [`DpsError::SessionClosed`].
    pub fn close(self) -> Result<(), DpsError> {
        let mut shared = self.shared.borrow_mut();
        if !shared.open {
            return Err(DpsError::SessionClosed);
        }
        shared.open = false;
        let node = shared.node;
        let mut net = self.net.borrow_mut();
        for s in shared.subs.drain(..) {
            s.open.set(false);
            // Best effort: the node may have crashed mid-run; the registration
            // is removed either way.
            let _ = net.try_unsubscribe(node, s.id);
        }
        net.sink().unwatch(node);
        Ok(())
    }
}

impl std::fmt::Debug for Session {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.shared.borrow();
        f.debug_struct("Session")
            .field("node", &s.node.index())
            .field("open", &s.open)
            .field("subs", &s.subs.len())
            .finish()
    }
}

/// Demultiplexes the session node's watched deliveries into the per-subscriber
/// inboxes (each delivery fans out to every live subscriber whose filter
/// matches).
fn pump(net: &Rc<RefCell<DpsNetwork>>, shared: &Rc<RefCell<SessionShared>>) {
    let mut s = shared.borrow_mut();
    let s = &mut *s;
    let net = net.borrow();
    net.sink().drain_deliveries(s.node, &mut s.drain_buf);
    for (id, event) in s.drain_buf.drain(..) {
        for sub in s.subs.iter().filter(|e| e.open.get()) {
            if sub.filter.matches(&event) {
                sub.inbox.borrow_mut().push_back(Delivery {
                    publisher: id.0.index() as u64,
                    seq: id.1,
                    event: event.clone(),
                });
            }
        }
    }
}

/// Publish handle of a [`Session`].
pub struct Publisher {
    net: Rc<RefCell<DpsNetwork>>,
    shared: Rc<RefCell<SessionShared>>,
}

impl Publisher {
    /// Publishes `event` from the session's node.
    pub fn publish(&self, event: impl Into<SharedEvent>) -> Result<PubId, DpsError> {
        let node = {
            let s = self.shared.borrow();
            if !s.open {
                return Err(DpsError::SessionClosed);
            }
            s.node
        };
        self.net.borrow_mut().try_publish(node, event)
    }
}

impl std::fmt::Debug for Publisher {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Publisher")
            .field("node", &self.shared.borrow().node.index())
            .finish()
    }
}

/// Receive handle for one subscription of a [`Session`].
pub struct Subscriber {
    net: Rc<RefCell<DpsNetwork>>,
    shared: Rc<RefCell<SessionShared>>,
    id: SubId,
    filter: SharedFilter,
    inbox: Rc<RefCell<VecDeque<Delivery>>>,
    open: Rc<Cell<bool>>,
}

impl Subscriber {
    /// The subscription id on the session's node.
    pub fn id(&self) -> SubId {
        self.id
    }

    /// The subscription's filter.
    pub fn filter(&self) -> &SharedFilter {
        &self.filter
    }

    /// Next delivery, if one is queued. Events arrive as the simulation runs
    /// ([`Hub::run`]); this never blocks.
    pub fn recv(&self) -> Option<Delivery> {
        if !self.open.get() {
            return None;
        }
        pump(&self.net, &self.shared);
        self.inbox.borrow_mut().pop_front()
    }

    /// Everything queued so far, oldest first.
    pub fn drain(&self) -> Vec<Delivery> {
        if !self.open.get() {
            return Vec::new();
        }
        pump(&self.net, &self.shared);
        self.inbox.borrow_mut().drain(..).collect()
    }

    /// Cancels this subscription (the session stays open).
    pub fn close(self) -> Result<(), DpsError> {
        if !self.open.get() {
            return Err(DpsError::SessionClosed);
        }
        self.open.set(false);
        let mut s = self.shared.borrow_mut();
        s.subs.retain(|e| e.id != self.id);
        let node = s.node;
        let last = s.subs.is_empty();
        drop(s);
        let mut net = self.net.borrow_mut();
        let out = net.try_unsubscribe(node, self.id);
        if last {
            net.sink().unwatch(node);
        }
        out
    }
}

impl std::fmt::Debug for Subscriber {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Subscriber")
            .field("id", &self.id)
            .field("filter", &self.filter.to_string())
            .field("open", &self.open.get())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DpsConfig;
    use dps_content::Event;

    fn event(s: &str) -> Event {
        s.parse().unwrap()
    }

    #[test]
    fn session_lifecycle_delivers_and_closes() {
        let hub = Hub::new(DpsConfig::default(), 7);
        hub.add_nodes(8);
        let sub_sess = hub.open_session().unwrap();
        let sub = sub_sess
            .subscriber("price > 100".parse::<crate::Filter>().unwrap())
            .unwrap();
        let pub_sess = hub.open_session().unwrap();
        let p = pub_sess.publisher().unwrap();
        hub.run(150);

        p.publish(event("price = 150")).unwrap();
        p.publish(event("price = 50")).unwrap(); // not matching
        hub.run(60);

        let got = sub.drain();
        assert_eq!(got.len(), 1, "only the matching event is delivered");
        assert_eq!(got[0].event.to_string(), "price = 150");
        assert_eq!(got[0].publisher, pub_sess.node().index() as u64);
        assert!(sub.recv().is_none());

        sub_sess.close().unwrap();
        pub_sess.close().unwrap();
        assert_eq!(hub.delivered_ratio(), 1.0);
    }

    #[test]
    fn closed_handles_report_session_closed() {
        let hub = Hub::new(DpsConfig::default(), 3);
        hub.add_nodes(4);
        let sess = hub.open_session().unwrap();
        let p = sess.publisher().unwrap();
        let sub = sess
            .subscriber("a > 1".parse::<crate::Filter>().unwrap())
            .unwrap();
        sess.close().unwrap();
        assert_eq!(
            p.publish(event("a = 2")).unwrap_err(),
            DpsError::SessionClosed
        );
        assert!(sub.recv().is_none());
        assert_eq!(sub.close().unwrap_err(), DpsError::SessionClosed);
    }

    #[test]
    fn subscriber_close_keeps_the_session_usable() {
        let hub = Hub::new(DpsConfig::default(), 5);
        hub.add_nodes(6);
        let sess = hub.open_session().unwrap();
        let s1 = sess
            .subscriber("a > 0".parse::<crate::Filter>().unwrap())
            .unwrap();
        let s2 = sess
            .subscriber("b > 0".parse::<crate::Filter>().unwrap())
            .unwrap();
        hub.run(150);
        s1.close().unwrap();
        let other = hub.open_session().unwrap();
        let p = other.publisher().unwrap();
        p.publish(event("b = 1")).unwrap();
        hub.run(60);
        assert_eq!(s2.drain().len(), 1, "remaining subscriber still receives");
        sess.close().unwrap();
        other.close().unwrap();
    }

    #[test]
    fn empty_filter_and_dead_node_are_typed_errors() {
        let hub = Hub::new(DpsConfig::default(), 9);
        hub.add_nodes(4);
        let sess = hub.open_session().unwrap();
        assert_eq!(
            sess.subscriber(crate::Filter::all()).unwrap_err(),
            DpsError::EmptyFilter
        );
        let node = sess.node();
        hub.with_network(|net| net.crash(node));
        let p = sess.publisher().unwrap();
        assert_eq!(
            p.publish(event("a = 1")).unwrap_err(),
            DpsError::NodeDead(node)
        );
    }
}
