//! The in-process backend: a [`Hub`] owns one [`DpsNetwork`]; each session
//! is a dedicated node on it whose watched deliveries go to the session's
//! subscriptions the node matched them to.

use std::cell::RefCell;
use std::rc::Rc;

use dps::{DpsConfig, DpsError, DpsNetwork, NodeId, PubId, SubId};
use dps_content::{SharedEvent, SharedFilter};

use crate::{Backend, Delivery, PubRef, Session};

/// An in-process session host: a [`DpsNetwork`] that applications attach to
/// through [`Session`] handles. Cloning a `Hub` is cheap (it shares the one
/// network); `Hub` is single-threaded by design.
#[derive(Clone, Debug)]
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
        let local = Local {
            net: self.net.clone(),
            node,
            subs: Vec::new(),
        };
        Ok(Session::over(Box::new(local), node.index() as u64))
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
    /// Panics if `f` calls back into this hub or one of its sessions' handles.
    pub fn with_network<R>(&self, f: impl FnOnce(&mut DpsNetwork) -> R) -> R {
        f(&mut self.net.borrow_mut())
    }
}

struct Local {
    net: Rc<RefCell<DpsNetwork>>,
    node: NodeId,
    /// Live subscriptions, oldest first: the session's id and the overlay's.
    subs: Vec<(u64, SubId)>,
}

impl Backend for Local {
    fn subscribe(&mut self, sub: u64, filter: &SharedFilter, _credit: u32) -> Result<(), DpsError> {
        let mut net = self.net.borrow_mut();
        let id = net.try_subscribe(self.node, filter.clone())?;
        // Payload retention starts with the first subscriber.
        net.sink().watch(self.node);
        self.subs.push((sub, id));
        Ok(())
    }

    /// The registration is gone whatever the overlay answers (the node may
    /// have crashed mid-run), so cancelling again is a no-op.
    fn unsubscribe(&mut self, sub: u64, _wait: bool) -> Result<(), DpsError> {
        let Some(at) = self.subs.iter().position(|s| s.0 == sub) else {
            return Ok(());
        };
        let (_, id) = self.subs.remove(at);
        let mut net = self.net.borrow_mut();
        let out = net.try_unsubscribe(self.node, id);
        if self.subs.is_empty() {
            net.sink().unwatch(self.node);
        }
        out
    }

    fn publish(&mut self, event: SharedEvent) -> Result<PubRef, DpsError> {
        let PubId(node, seq) = self.net.borrow_mut().try_publish(self.node, event)?;
        Ok(PubRef {
            node: node.index() as u64,
            seq,
        })
    }

    /// Each watched delivery goes to the live subscriptions the node
    /// matched it to.
    fn poll(&mut self, deliver: &mut dyn FnMut(u64, Delivery)) -> Result<(), DpsError> {
        let net = self.net.borrow();
        net.sink().drain(self.node, |id, event, matched| {
            for (sub, _) in self.subs.iter().filter(|(_, s)| matched.contains(s)) {
                let delivery = Delivery {
                    publisher: id.0.index() as u64,
                    seq: id.1,
                    event: event.clone(),
                };
                deliver(*sub, delivery);
            }
        });
        Ok(())
    }

    fn consumed(&mut self, _sub: u64, _n: u32) {}

    fn close(&mut self) -> Result<(), DpsError> {
        let mut net = self.net.borrow_mut();
        for (_, id) in self.subs.drain(..) {
            // Best effort, as in `unsubscribe`.
            let _ = net.try_unsubscribe(self.node, id);
        }
        net.sink().unwatch(self.node);
        // Retire the node, as a broker's teardown does: the overlay heals
        // around it.
        net.crash(self.node);
        Ok(())
    }
}
