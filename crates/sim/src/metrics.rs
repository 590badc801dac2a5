//! Per-node, per-class traffic accounting.
//!
//! [`Metrics`] keeps running totals only: cumulative sent/received counters
//! per `(node, class)`, class totals, receipts per message kind and drops per
//! reason. Windowed statistics (the paper's "messages per node per 100
//! steps") are the reader's business: difference two snapshots of
//! [`Metrics::per_node`] taken at the window's boundaries.
//!
//! Counters are dense `Vec<ClassCounts>` indexed by [`NodeId::index`] (node ids
//! are dense join-order indices), so the per-message hot path is two array
//! increments — no hashing, and no state that grows with the run's length.

use serde::Serialize;

use crate::process::{MsgClass, NodeId};

/// Sent/received counters for the three message classes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct ClassCounts {
    /// Messages sent, indexed by [`MsgClass::index`].
    pub sent: [u64; 3],
    /// Messages received, indexed by [`MsgClass::index`].
    pub recv: [u64; 3],
}

impl ClassCounts {
    /// Total sent over the given classes.
    pub fn sent_in(&self, classes: &[MsgClass]) -> u64 {
        classes.iter().map(|c| self.sent[c.index()]).sum()
    }

    /// Total received over the given classes.
    pub fn recv_in(&self, classes: &[MsgClass]) -> u64 {
        classes.iter().map(|c| self.recv[c.index()]).sum()
    }
}

/// Why the engine dropped a message instead of delivering it. Drops are a
/// counter class of their own in [`Metrics`]: faults are first-class,
/// observable events, not silent message loss.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize)]
pub enum DropReason {
    /// The destination node was crashed.
    Crashed,
    /// An active partition severed the link (see
    /// [`FaultPlan`](crate::FaultPlan)).
    Partitioned,
    /// The link's loss rate sampled a drop.
    Loss,
}

impl DropReason {
    /// All reasons, in a fixed order (used for array indexing).
    pub const ALL: [DropReason; 3] = [
        DropReason::Crashed,
        DropReason::Partitioned,
        DropReason::Loss,
    ];

    /// Dense index of the reason.
    pub fn index(self) -> usize {
        match self {
            DropReason::Crashed => 0,
            DropReason::Partitioned => 1,
            DropReason::Loss => 2,
        }
    }
}

/// An accumulator of publish→deliver latency samples (in steps), summarized
/// into the percentiles production asks of a pub/sub system.
///
/// Samples are recorded by the measurement layer (e.g. the `dps` facade,
/// which computes `first-notify step − publish step` per `(publication,
/// subscriber)` pair) and summarized with the **nearest-rank** method — a
/// percentile is always an observed sample, never an interpolation, which
/// keeps summaries byte-stable across platforms.
#[derive(Debug, Clone, Default)]
pub struct LatencyHistogram {
    samples: Vec<u64>,
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LatencyHistogram::default()
    }

    /// Records one latency sample (steps from publish to first delivery).
    pub fn record(&mut self, latency: u64) {
        self.samples.push(latency);
    }

    /// Summarizes the samples into nearest-rank percentiles. An empty
    /// histogram summarizes to all zeros with `samples == 0` — callers that
    /// must distinguish "no traffic" from "instant" check the count.
    pub fn summary(&self) -> LatencySummary {
        if self.samples.is_empty() {
            return LatencySummary::default();
        }
        let mut sorted = self.samples.clone();
        sorted.sort_unstable();
        let nearest = |q_num: usize, q_den: usize| -> u64 {
            // Nearest-rank in integer arithmetic: rank = ceil(q * n), 1-based.
            let n = sorted.len();
            let rank = (q_num * n).div_ceil(q_den).max(1);
            sorted[rank - 1]
        };
        LatencySummary {
            samples: sorted.len() as u64,
            p50: nearest(1, 2) as f64,
            p99: nearest(99, 100) as f64,
            p999: nearest(999, 1000) as f64,
            max: *sorted.last().unwrap() as f64,
            mean: sorted.iter().sum::<u64>() as f64 / sorted.len() as f64,
        }
    }
}

/// Nearest-rank percentile summary of a [`LatencyHistogram`], in steps.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize)]
pub struct LatencySummary {
    /// Number of samples behind the summary (0 means every field is 0 and
    /// means nothing).
    pub samples: u64,
    /// Median publish→deliver latency.
    pub p50: f64,
    /// 99th percentile.
    pub p99: f64,
    /// 99.9th percentile.
    pub p999: f64,
    /// Worst observed sample.
    pub max: f64,
    /// Mean over all samples.
    pub mean: f64,
}

/// Traffic metrics collector. See the module docs.
#[derive(Debug, Clone, Default)]
pub struct Metrics {
    /// Cumulative counters, indexed by node index; nodes past the end have
    /// neither sent nor received anything.
    per_node: Vec<ClassCounts>,
    totals: ClassCounts,
    /// Messages received, indexed by [`Message::kind`](crate::Message::kind):
    /// a flat vector grown to the highest kind seen, no map on the hot path.
    recv_kinds: Vec<u64>,
    /// Messages dropped by the engine, indexed `[DropReason][MsgClass]`.
    drops: [[u64; 3]; 3],
}

impl Metrics {
    fn slot(&mut self, node: NodeId) -> &mut ClassCounts {
        let idx = node.index();
        if idx >= self.per_node.len() {
            self.per_node.resize(idx + 1, ClassCounts::default());
        }
        &mut self.per_node[idx]
    }

    /// Counts one sent message.
    pub(crate) fn on_send(&mut self, node: NodeId, class: MsgClass) {
        self.slot(node).sent[class.index()] += 1;
        self.totals.sent[class.index()] += 1;
    }

    /// Counts one received message of the given class and
    /// [kind](crate::Message::kind).
    pub(crate) fn on_recv(&mut self, node: NodeId, class: MsgClass, kind: usize) {
        self.slot(node).recv[class.index()] += 1;
        self.totals.recv[class.index()] += 1;
        if kind >= self.recv_kinds.len() {
            self.recv_kinds.resize(kind + 1, 0);
        }
        self.recv_kinds[kind] += 1;
    }

    /// Counts one dropped message.
    pub(crate) fn on_drop(&mut self, reason: DropReason, class: MsgClass) {
        self.drops[reason.index()][class.index()] += 1;
    }

    /// Messages dropped for `reason` in `class`.
    pub fn dropped(&self, reason: DropReason, class: MsgClass) -> u64 {
        self.drops[reason.index()][class.index()]
    }

    /// Messages dropped for `reason`, over all classes.
    pub fn dropped_for(&self, reason: DropReason) -> u64 {
        self.drops[reason.index()].iter().sum()
    }

    /// All messages ever dropped by the engine.
    pub fn total_dropped(&self) -> u64 {
        self.drops.iter().flatten().sum()
    }

    /// Total messages ever sent in `class`.
    pub fn total_sent(&self, class: MsgClass) -> u64 {
        self.totals.sent[class.index()]
    }

    /// Total messages ever received in `class`.
    pub fn total_received(&self, class: MsgClass) -> u64 {
        self.totals.recv[class.index()]
    }

    /// Messages ever received per [message kind](crate::Message::kind),
    /// indexed like [`Message::KINDS`](crate::Message::KINDS). Kinds past the
    /// end of the slice were never received.
    pub fn received_by_kind(&self) -> &[u64] {
        &self.recv_kinds
    }

    /// Every node's counters since the start of the run, indexed by node
    /// index. An index past the end has neither sent nor received anything.
    pub fn per_node(&self) -> &[ClassCounts] {
        &self.per_node
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_filtering() {
        let mut m = Metrics::default();
        let a = NodeId::from_index(0);
        m.on_send(a, MsgClass::Publication);
        m.on_send(a, MsgClass::Management);
        m.on_recv(a, MsgClass::Subscription, 0);
        let c = m.per_node()[0];
        assert_eq!(c.sent_in(&[MsgClass::Publication]), 1);
        assert_eq!(c.sent_in(&MsgClass::ALL), 2);
        assert_eq!(c.recv_in(&MsgClass::ALL), 1);
        assert_eq!(m.total_sent(MsgClass::Publication), 1);
        assert_eq!(m.total_received(MsgClass::Subscription), 1);
    }

    #[test]
    fn drop_counters_index_by_reason_and_class() {
        let mut m = Metrics::default();
        m.on_drop(DropReason::Partitioned, MsgClass::Publication);
        m.on_drop(DropReason::Partitioned, MsgClass::Management);
        m.on_drop(DropReason::Loss, MsgClass::Publication);
        assert_eq!(m.dropped(DropReason::Partitioned, MsgClass::Publication), 1);
        assert_eq!(m.dropped(DropReason::Crashed, MsgClass::Publication), 0);
        assert_eq!(m.dropped_for(DropReason::Partitioned), 2);
        assert_eq!(m.total_dropped(), 3);
        // Drops are not receives: totals stay untouched.
        assert_eq!(m.total_received(MsgClass::Publication), 0);
        for (i, r) in DropReason::ALL.iter().enumerate() {
            assert_eq!(r.index(), i);
        }
    }

    #[test]
    fn receipts_are_counted_per_kind() {
        let a = NodeId::from_index(0);
        let mut m = Metrics::default();
        assert!(m.received_by_kind().is_empty());
        m.on_recv(a, MsgClass::Management, 2);
        m.on_recv(a, MsgClass::Publication, 0);
        m.on_recv(a, MsgClass::Management, 2);
        assert_eq!(m.received_by_kind(), &[1, 0, 2]);
        // A higher kind widens the vector; a lower one leaves the tail alone.
        m.on_recv(a, MsgClass::Subscription, 4);
        m.on_recv(a, MsgClass::Publication, 0);
        assert_eq!(m.received_by_kind(), &[2, 0, 2, 0, 1]);
        m.on_recv(a, MsgClass::Publication, 1);
        assert_eq!(m.received_by_kind(), &[2, 1, 2, 0, 1]);
        assert_eq!(
            m.received_by_kind().iter().sum::<u64>(),
            MsgClass::ALL.iter().map(|c| m.total_received(*c)).sum()
        );
    }

    #[test]
    fn latency_histogram_nearest_rank() {
        let mut h = LatencyHistogram::new();
        assert_eq!(h.summary(), LatencySummary::default());
        for v in 1..=100u64 {
            h.record(v);
        }
        let s = h.summary();
        assert_eq!(s.samples, 100);
        assert_eq!(s.p50, 50.0); // nearest-rank: ceil(0.5 * 100) = rank 50
        assert_eq!(s.p99, 99.0);
        assert_eq!(s.p999, 100.0); // ceil(0.999 * 100) = rank 100
        assert_eq!(s.max, 100.0);
        assert_eq!(s.mean, 50.5);
        // Percentiles are observed samples, even for tiny populations.
        let mut tiny = LatencyHistogram::new();
        tiny.record(7);
        let t = tiny.summary();
        assert_eq!((t.p50, t.p99, t.p999, t.max), (7.0, 7.0, 7.0, 7.0));
    }
}
