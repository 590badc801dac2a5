//! Delivery instrumentation: hooks the experiment harness uses to account events.
//!
//! The protocol state machines call into a shared [`StatsSink`] when a node
//! receives a publication for the first time ("contacted", Table 1) and when a
//! received publication matches one of the node's own subscriptions ("delivered" /
//! `Notify`, Figures 3(a)–(b)). Both milestones carry the simulation step at
//! which they happened, so harnesses can compute publish→deliver latency
//! distributions. A `Notify` also names the subscriptions that matched, so a
//! session host delivers to exactly those and matches nothing itself. The
//! default sink does nothing and costs nothing.

use std::collections::{HashMap, HashSet};
use std::sync::Mutex;

use dps_content::SharedEvent;
use dps_sim::{NodeId, Step};

use crate::msg::{PubId, SubId};
use crate::seen::IdBuild;

/// Observer of protocol-level delivery milestones.
///
/// Implementations must be cheap and thread-safe (the simulator itself is
/// single-threaded, but experiment harnesses aggregate across runs in parallel).
pub trait StatsSink: Send + Sync {
    /// `node` received publication `id` for the first time (it was *contacted*)
    /// at step `now`.
    fn on_contact(&self, id: PubId, node: NodeId, now: Step);
    /// `node` received publication `id`, carrying `event`, at step `now` and
    /// it matched the node's live subscriptions `subs` (never empty, in id
    /// order): the `Notify` upcall of the paper. Counting-only sinks touch
    /// neither, so the simulator's zero-copy fan-out is unaffected. Session
    /// hosts (`dps-client`'s in-process `Hub` and the broker) queue both for
    /// *watched* nodes ([`QueueSink`]): a reference to the publication's one
    /// allocation, never a copy, and the ids it is delivered to.
    fn on_notify(&self, id: PubId, node: NodeId, event: &SharedEvent, subs: &[SubId], now: Step);
}

/// A sink that ignores everything.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoopSink;

impl StatsSink for NoopSink {
    fn on_contact(&self, _id: PubId, _node: NodeId, _now: Step) {}
    fn on_notify(&self, _: PubId, _: NodeId, _: &SharedEvent, _: &[SubId], _: Step) {}
}

/// The payload half of delivery, and the whole sink of a served overlay (the
/// broker): per-node queues of `Notify` upcalls for *watched* nodes (session
/// endpoints) — no contact or notify pairs, and no payload held for anyone
/// else. Each queue dedups by publication id: redundant re-deliveries through
/// other trees enqueue nothing. Both tables are keyed by ids the overlay
/// assigned and are only ever probed, so they take the unkeyed id hasher.
#[derive(Debug, Default)]
pub struct QueueSink {
    watched: Mutex<HashMap<NodeId, WatchQueue, IdBuild>>,
}

#[derive(Debug, Default)]
struct WatchQueue {
    seen: HashSet<PubId, IdBuild>,
    /// Oldest first, each with the end of its matched ids in `subs`.
    queue: Vec<(PubId, SharedEvent, usize)>,
    /// Every queued publication's ids, back to back: none allocates its own.
    subs: Vec<SubId>,
}

impl QueueSink {
    /// Starts retaining delivery payloads for `node`. Idempotent. Deliveries
    /// that happened before the watch began are not replayed.
    pub fn watch(&self, node: NodeId) {
        self.watched.lock().unwrap().entry(node).or_default();
    }

    /// Stops retaining payloads for `node` and discards anything queued.
    pub fn unwatch(&self, node: NodeId) {
        self.watched.lock().unwrap().remove(&node);
    }

    /// Hands everything queued for `node` since the last drain to `f`, oldest
    /// first, with the ids it matched. A node that is not watched drains
    /// nothing. `f` runs under the sink's lock and must not call the sink.
    pub fn drain(&self, node: NodeId, mut f: impl FnMut(PubId, &SharedEvent, &[SubId])) {
        if let Some(w) = self.watched.lock().unwrap().get_mut(&node) {
            let mut start = 0;
            for (id, event, end) in w.queue.drain(..) {
                f(id, &event, &w.subs[start..end]);
                start = end;
            }
            w.subs.clear();
        }
    }

    /// [`drain`](Self::drain) into `into`, without the ids.
    pub fn drain_deliveries(&self, node: NodeId, into: &mut Vec<(PubId, SharedEvent)>) {
        self.drain(node, |id, event, _| into.push((id, event.clone())));
    }
}

impl StatsSink for QueueSink {
    fn on_contact(&self, _id: PubId, _node: NodeId, _now: Step) {}

    fn on_notify(&self, id: PubId, node: NodeId, event: &SharedEvent, subs: &[SubId], _now: Step) {
        if let Some(w) = self.watched.lock().unwrap().get_mut(&node) {
            if w.seen.insert(id) {
                w.subs.extend_from_slice(subs);
                w.queue.push((id, event.clone(), w.subs.len()));
            }
        }
    }
}

/// A simple recording sink: remembers every `(publication, node)` contact pair,
/// grouped by publication so [`contacted`](Self::contacted) is one lookup, and,
/// for notifies, the step of the **first** notify (the publish→deliver latency
/// endpoint — re-notifies through other trees never move it).
/// Derefs to the [`QueueSink`] it embeds, so a harness that also hosts
/// sessions watches and drains nodes through the same handle.
#[derive(Debug, Default)]
pub struct CountingSink {
    inner: Mutex<CountingInner>,
    queues: QueueSink,
}

#[derive(Debug, Default)]
struct CountingInner {
    /// The nodes each publication contacted.
    contacts: HashMap<PubId, HashSet<NodeId, IdBuild>, IdBuild>,
    /// First-notify step per `(publication, node)` pair.
    notifies: HashMap<(PubId, NodeId), Step>,
}

impl std::ops::Deref for CountingSink {
    type Target = QueueSink;

    fn deref(&self) -> &QueueSink {
        &self.queues
    }
}

impl CountingSink {
    /// New empty sink.
    pub fn new() -> Self {
        CountingSink::default()
    }

    /// Number of distinct nodes contacted by `id`.
    pub fn contacted(&self, id: PubId) -> usize {
        let inner = self.inner.lock().unwrap();
        inner.contacts.get(&id).map_or(0, HashSet::len)
    }

    /// Whether `(id, node)` was notified.
    pub fn was_notified(&self, id: PubId, node: NodeId) -> bool {
        self.inner
            .lock()
            .unwrap()
            .notifies
            .contains_key(&(id, node))
    }

    /// The step at which `node` was **first** notified of `id`, if ever.
    pub fn notify_step(&self, id: PubId, node: NodeId) -> Option<Step> {
        self.inner
            .lock()
            .unwrap()
            .notifies
            .get(&(id, node))
            .copied()
    }

    /// Whether `(id, node)` was contacted.
    pub fn was_contacted(&self, id: PubId, node: NodeId) -> bool {
        let inner = self.inner.lock().unwrap();
        inner.contacts.get(&id).is_some_and(|c| c.contains(&node))
    }

    /// Total contact pairs.
    pub fn total_contacts(&self) -> usize {
        let inner = self.inner.lock().unwrap();
        inner.contacts.values().map(HashSet::len).sum()
    }

    /// Total notify pairs.
    pub fn total_notifies(&self) -> usize {
        self.inner.lock().unwrap().notifies.len()
    }
}

impl StatsSink for CountingSink {
    fn on_contact(&self, id: PubId, node: NodeId, _now: Step) {
        let mut inner = self.inner.lock().unwrap();
        inner.contacts.entry(id).or_default().insert(node);
    }

    fn on_notify(&self, id: PubId, node: NodeId, event: &SharedEvent, subs: &[SubId], now: Step) {
        // First notify wins: the entry API keeps the earliest step even if a
        // slower redundant path re-delivers the publication later.
        self.inner
            .lock()
            .unwrap()
            .notifies
            .entry((id, node))
            .or_insert(now);
        self.queues.on_notify(id, node, event, subs, now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev() -> SharedEvent {
        SharedEvent::new("a = 1".parse().unwrap())
    }

    #[test]
    fn counting_sink_records_pairs() {
        let s = CountingSink::new();
        let p = PubId(NodeId::from_index(0), 1);
        let n1 = NodeId::from_index(1);
        let n2 = NodeId::from_index(2);
        s.on_contact(p, n1, 3);
        s.on_contact(p, n1, 4); // dedup
        s.on_contact(p, n2, 3);
        s.on_notify(p, n2, &ev(), &[SubId(n2, 0)], 5);
        assert_eq!(s.contacted(p), 2);
        assert!(s.was_notified(p, n2));
        assert!(!s.was_notified(p, n1));
        assert!(s.was_contacted(p, n1));
        assert_eq!(s.total_contacts(), 2);
        assert_eq!(s.total_notifies(), 1);
    }

    #[test]
    fn first_notify_step_wins() {
        let s = CountingSink::new();
        let p = PubId(NodeId::from_index(0), 1);
        let n = NodeId::from_index(1);
        assert_eq!(s.notify_step(p, n), None);
        s.on_notify(p, n, &ev(), &[SubId(n, 0)], 7);
        s.on_notify(p, n, &ev(), &[SubId(n, 0)], 12); // a slower redundant path re-delivers
        assert_eq!(s.notify_step(p, n), Some(7));
    }

    #[test]
    fn watch_queues_payloads_only_for_watched_nodes() {
        let s = CountingSink::new();
        let p = PubId(NodeId::from_index(0), 1);
        let q = PubId(NodeId::from_index(0), 2);
        let n1 = NodeId::from_index(1);
        let n2 = NodeId::from_index(2);
        let (a, b) = (SubId(n1, 0), SubId(n1, 1));
        let ev = ev();
        s.watch(n1);
        s.on_notify(p, n1, &ev, &[a, b], 3);
        s.on_notify(p, n1, &ev, &[a], 9); // redundant re-delivery: deduped
        s.on_notify(q, n1, &ev, &[b], 4);
        s.on_notify(p, n2, &ev, &[SubId(n2, 0)], 3); // unwatched: dropped
        let mut got = Vec::new();
        s.drain(n1, |id, e, subs| got.push((id, e.clone(), subs.to_vec())));
        assert_eq!(got, [(p, ev.clone(), vec![a, b]), (q, ev.clone(), vec![b])]);
        let mut got = Vec::new();
        s.drain_deliveries(n1, &mut got);
        assert!(got.is_empty(), "drain consumes");
        s.drain_deliveries(n2, &mut got);
        assert!(got.is_empty());
        s.unwatch(n1);
        s.on_notify(q, n1, &ev, &[a], 5);
        s.drain_deliveries(n1, &mut got);
        assert!(got.is_empty(), "unwatch discards and stops retention");
    }

    #[test]
    fn noop_sink_is_silent() {
        let (s, n) = (NoopSink, NodeId::from_index(0));
        s.on_contact(PubId(n, 0), n, 1);
        s.on_notify(PubId(n, 0), n, &ev(), &[SubId(n, 0)], 1);
    }
}
