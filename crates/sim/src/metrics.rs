//! Per-node, per-class, per-window traffic accounting.
//!
//! The paper's Figures 3(c)–3(g) all plot statistics of the form "number of
//! messages sent/received by the median (or most loaded) node, sampled during a
//! period of 100 steps". [`Metrics`] keeps exactly that: counters per `(node,
//! class, direction)` for the current window, snapshotting them when the window
//! rolls over, and offers median/max/mean summaries over any subset of classes.
//!
//! Counters are dense `Vec<ClassCounts>` indexed by [`NodeId::index`] (node ids
//! are dense join-order indices), so the per-message hot path is two array
//! increments — no hashing. Window rolling is hoisted out of the per-message
//! path: the engine calls [`Metrics::roll_to`] once per step.

use serde::Serialize;

use crate::process::{MsgClass, NodeId, Step};

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

    fn is_zero(&self) -> bool {
        self.sent == [0; 3] && self.recv == [0; 3]
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

    /// Number of samples recorded.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether no sample has been recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Folds another histogram's samples into this one.
    pub fn absorb(&mut self, other: &LatencyHistogram) {
        self.samples.extend_from_slice(&other.samples);
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

/// Median / max / mean summary of a per-node quantity within one window.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize)]
pub struct Stat {
    /// Value at the median node (the node with less than half and more than half —
    /// the paper's definition).
    pub median: f64,
    /// Value at the most loaded node.
    pub max: f64,
    /// Mean over nodes.
    pub mean: f64,
}

/// A summary for one completed window.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct WindowStat {
    /// First step of the window.
    pub start: Step,
    /// Summary over the nodes active in the window.
    pub stat: Stat,
}

/// Traffic metrics collector. See the module docs.
#[derive(Debug, Clone)]
pub struct Metrics {
    window: Step,
    /// Start step of the current window.
    cur_start: Step,
    /// Current-window counters, indexed by node index; all-zero means the node
    /// was not active in the window.
    cur: Vec<ClassCounts>,
    history: Vec<(Step, Vec<ClassCounts>)>,
    totals: ClassCounts,
    /// Messages received, indexed by [`Message::kind`](crate::Message::kind):
    /// a flat vector grown to the highest kind seen, no map on the hot path.
    recv_kinds: Vec<u64>,
    /// Messages dropped by the engine, indexed `[DropReason][MsgClass]`.
    drops: [[u64; 3]; 3],
}

/// Direction selector for summaries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dir {
    /// Outgoing messages.
    Sent,
    /// Incoming messages.
    Recv,
}

impl Metrics {
    /// New collector with the given window length (steps).
    pub fn new(window: Step) -> Self {
        Metrics {
            window: window.max(1),
            cur_start: 0,
            cur: Vec::new(),
            history: Vec::new(),
            totals: ClassCounts::default(),
            recv_kinds: Vec::new(),
            drops: [[0; 3]; 3],
        }
    }

    fn slot(&mut self, node: NodeId) -> &mut ClassCounts {
        let idx = node.index();
        if idx >= self.cur.len() {
            self.cur.resize(idx + 1, ClassCounts::default());
        }
        &mut self.cur[idx]
    }

    /// Counts one sent message. The caller guarantees the window was rolled to
    /// the current step (the engine rolls once per step).
    pub(crate) fn on_send(&mut self, node: NodeId, class: MsgClass) {
        self.slot(node).sent[class.index()] += 1;
        self.totals.sent[class.index()] += 1;
    }

    /// Counts one received message of the given class and
    /// [kind](crate::Message::kind). Same rolling contract as `on_send`.
    pub(crate) fn on_recv(&mut self, node: NodeId, class: MsgClass, kind: usize) {
        self.slot(node).recv[class.index()] += 1;
        self.totals.recv[class.index()] += 1;
        if kind >= self.recv_kinds.len() {
            self.recv_kinds.resize(kind + 1, 0);
        }
        self.recv_kinds[kind] += 1;
    }

    pub(crate) fn roll_to(&mut self, now: Step) {
        while now >= self.cur_start + self.window {
            let done = std::mem::take(&mut self.cur);
            self.history.push((self.cur_start, done));
            self.cur_start += self.window;
        }
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

    /// Completed windows: `(start_step, per-node counters indexed by node index)`.
    /// An all-zero entry (or an index past the end) means the node was inactive
    /// in that window.
    pub fn windows(&self) -> &[(Step, Vec<ClassCounts>)] {
        &self.history
    }

    /// Median/max/mean of per-node **sent** traffic for the given classes, one
    /// entry per completed window.
    pub fn sent_series(&self, classes: &[MsgClass]) -> Vec<WindowStat> {
        self.series(Dir::Sent, classes, None)
    }

    /// Median/max/mean of per-node **received** traffic for the given classes.
    pub fn recv_series(&self, classes: &[MsgClass]) -> Vec<WindowStat> {
        self.series(Dir::Recv, classes, None)
    }

    /// Like [`sent_series`](Metrics::sent_series)/[`recv_series`](Metrics::recv_series)
    /// but with an explicit population: nodes in `population` that sent/received
    /// nothing in a window count as zero (the paper's median is over all nodes, and
    /// e.g. leader-based medians are famously zero because most nodes never send).
    /// Without a population, only nodes active in the window (any class, either
    /// direction) are counted.
    pub fn series(
        &self,
        dir: Dir,
        classes: &[MsgClass],
        population: Option<&[NodeId]>,
    ) -> Vec<WindowStat> {
        let pick = |c: &ClassCounts| match dir {
            Dir::Sent => c.sent_in(classes),
            Dir::Recv => c.recv_in(classes),
        };
        self.history
            .iter()
            .map(|(start, per_node)| {
                let mut values: Vec<u64> = match population {
                    Some(pop) => pop
                        .iter()
                        .map(|id| per_node.get(id.index()).map(&pick).unwrap_or(0))
                        .collect(),
                    None => per_node
                        .iter()
                        .filter(|c| !c.is_zero())
                        .map(&pick)
                        .collect(),
                };
                values.sort_unstable();
                WindowStat {
                    start: *start,
                    stat: summarize(&values),
                }
            })
            .collect()
    }
}

fn summarize(sorted: &[u64]) -> Stat {
    if sorted.is_empty() {
        return Stat::default();
    }
    let median = sorted[sorted.len() / 2] as f64;
    let max = *sorted.last().unwrap() as f64;
    let mean = sorted.iter().sum::<u64>() as f64 / sorted.len() as f64;
    Stat { median, max, mean }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windows_roll_and_summarize() {
        let mut m = Metrics::new(10);
        let a = NodeId::from_index(0);
        let b = NodeId::from_index(1);
        for _ in 1..=9 {
            m.on_send(a, MsgClass::Publication);
        }
        m.on_send(b, MsgClass::Management);
        // Entering step 10 rolls the first window.
        m.roll_to(10);
        m.on_send(a, MsgClass::Publication);
        assert_eq!(m.windows().len(), 1);
        let series = m.sent_series(&[MsgClass::Publication]);
        assert_eq!(series.len(), 1);
        assert_eq!(series[0].start, 0);
        assert_eq!(series[0].stat.max, 9.0);
        // Two nodes: values [0(b), 9(a)] -> median index 1 -> 9.
        assert_eq!(series[0].stat.median, 9.0);

        // With explicit population including a silent node, median drops.
        let c = NodeId::from_index(2);
        let pop = [a, b, c];
        let s = m.series(Dir::Sent, &[MsgClass::Publication], Some(&pop));
        assert_eq!(s[0].stat.median, 0.0);
        assert_eq!(s[0].stat.max, 9.0);
    }

    #[test]
    fn class_filtering() {
        let mut m = Metrics::new(10);
        let a = NodeId::from_index(0);
        m.on_send(a, MsgClass::Publication);
        m.on_send(a, MsgClass::Management);
        m.on_recv(a, MsgClass::Subscription, 0);
        m.roll_to(10);
        assert_eq!(m.sent_series(&[MsgClass::Publication])[0].stat.max, 1.0);
        assert_eq!(m.sent_series(&MsgClass::ALL)[0].stat.max, 2.0);
        assert_eq!(m.recv_series(&MsgClass::ALL)[0].stat.max, 1.0);
        assert_eq!(m.total_sent(MsgClass::Publication), 1);
        assert_eq!(m.total_received(MsgClass::Subscription), 1);
    }

    #[test]
    fn drop_counters_index_by_reason_and_class() {
        let mut m = Metrics::new(10);
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
        let mut m = Metrics::new(10);
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
    fn empty_window_is_all_zero() {
        let mut m = Metrics::new(5);
        m.roll_to(20);
        assert_eq!(m.windows().len(), 4);
        for w in m.sent_series(&MsgClass::ALL) {
            assert_eq!(w.stat.max, 0.0);
        }
    }

    #[test]
    fn latency_histogram_nearest_rank() {
        let mut h = LatencyHistogram::new();
        assert!(h.is_empty());
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
        // Absorb folds sample sets.
        let mut other = LatencyHistogram::new();
        other.record(1000);
        h.absorb(&other);
        assert_eq!(h.len(), 101);
        assert_eq!(h.summary().max, 1000.0);
    }

    #[test]
    fn inactive_nodes_are_invisible_without_population() {
        // A node that only sent Management still contributes a zero to the
        // Publication series (it was active in the window), while a node that
        // did nothing at all does not appear.
        let mut m = Metrics::new(10);
        let a = NodeId::from_index(0);
        let b = NodeId::from_index(5); // leaves gaps 1..5 untouched
        m.on_send(a, MsgClass::Publication);
        m.on_send(b, MsgClass::Management);
        m.roll_to(10);
        let s = m.sent_series(&[MsgClass::Publication]);
        // Values are [0 (b), 1 (a)]: median over the two active nodes only.
        assert_eq!(s[0].stat.max, 1.0);
        assert_eq!(s[0].stat.mean, 0.5);
    }
}
