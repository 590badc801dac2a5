//! What both drivers share: checking every ack and delivery against the
//! script while a round runs, and the numbers a finished round reports.

use std::collections::HashMap;

use dps_content::Event;

use crate::script::Script;
use crate::stats::{percentile, BitMatrix, Samples};

/// Running account of one round's publications and deliveries.
pub struct Acct<'a> {
    pub script: &'a Script,
    /// Broker publication identity (`node`, `seq`) → publication index.
    pub_of: HashMap<(u64, u32), u32>,
    /// Per publication: when its latency clock started (lockstep: frame
    /// written; open loop: when it was due).
    pub start_ns: Vec<u64>,
    received: BitMatrix,
    /// Latency of every checked delivery and of every ack, nanoseconds, in
    /// arrival order.
    pub deliver_ns: Samples,
    pub ack_ns: Samples,
    pub acked: u64,
    pub refused: u64,
    pub deliveries: u64,
    pub got_required: u64,
    /// Deliveries that name a subscription the session does not hold, fail
    /// its filter, repeat an earlier one, or that the script does not allow.
    pub wrong: u64,
    /// When the last ack, and the last delivery, was decoded: each rate's
    /// window ends with its own last completion.
    pub last_ack_ns: u64,
    pub last_deliver_ns: u64,
}

impl<'a> Acct<'a> {
    pub fn new(script: &'a Script) -> Self {
        let pubs = script.events.len();
        Acct {
            script,
            pub_of: HashMap::with_capacity(pubs),
            start_ns: vec![0; pubs],
            received: BitMatrix::new(pubs, script.subs.len()),
            deliver_ns: Samples::with_capacity(script.max_deliveries()),
            ack_ns: Samples::with_capacity(pubs),
            acked: 0,
            refused: 0,
            deliveries: 0,
            got_required: 0,
            wrong: 0,
            last_ack_ns: 0,
            last_deliver_ns: 0,
        }
    }

    pub fn ack(&mut self, publication: usize, id: Option<(u64, u32)>, now: u64) {
        self.ack_ns.push(now - self.start_ns[publication]);
        self.last_ack_ns = now;
        match id {
            Some(id) => {
                self.pub_of.insert(id, publication as u32);
                self.acked += 1;
            }
            None => self.refused += 1,
        }
    }

    /// Checks one `Deliver`; returns the publication it carries when it is
    /// one the script allows. `held` says whether the receiving session holds
    /// subscription `sub`.
    pub fn delivery(
        &mut self,
        sub: usize,
        held: bool,
        id: (u64, u32),
        event: &Event,
        now: u64,
    ) -> Option<usize> {
        let script = self.script;
        let Some(&p) = self.pub_of.get(&id) else {
            self.wrong += 1;
            return None;
        };
        let p = p as usize;
        let ok = held
            && script.subs[sub].filter.matches(event)
            && *event == *script.events[p]
            && script.allowed.get(p, sub)
            && !self.received.set(p, sub);
        if !ok {
            self.wrong += 1;
            return None;
        }
        self.deliveries += 1;
        if script.required.get(p, sub) {
            self.got_required += 1;
        }
        self.deliver_ns.push(now - self.start_ns[p]);
        self.last_deliver_ns = now;
        Some(p)
    }

    pub fn missing(&self) -> u64 {
        self.script.required.count_missing_from(&self.received)
    }
}

/// What a lockstep round records turn by turn, for the traced run: how long
/// every turn of the window took, how much of it `Broker::pump`, and the turn
/// of every publication, ack and delivery.
pub struct Turns {
    pub turn_ns: Samples,
    pub pump_ns: Samples,
    pub pub_turn: Vec<u32>,
    pub ack_turn: Vec<u32>,
    pub d_pub: Samples,
    pub d_turn: Samples,
}

impl Turns {
    pub fn new(script: &Script) -> Self {
        let pubs = script.events.len();
        let turns = pubs / script.spec.publishers + 512;
        Turns {
            turn_ns: Samples::with_capacity(turns),
            pump_ns: Samples::with_capacity(turns),
            pub_turn: vec![0; pubs],
            ack_turn: vec![0; pubs],
            d_pub: Samples::with_capacity(script.max_deliveries()),
            d_turn: Samples::with_capacity(script.max_deliveries()),
        }
    }

    /// Turns each delivery took, ascending (exact counts).
    pub fn turns_to_deliver(&self) -> Vec<u32> {
        let mut v: Vec<u32> = self
            .d_pub
            .as_slice()
            .iter()
            .zip(self.d_turn.as_slice())
            .map(|(p, t)| t - self.pub_turn[*p as usize])
            .collect();
        v.sort_unstable();
        v
    }
}

/// Element by element, the smallest value any of the series has.
pub fn quietest<'a, T: Copy + Ord + 'a>(series: impl Iterator<Item = &'a [T]>) -> Vec<T> {
    let mut out: Vec<T> = Vec::new();
    for (i, s) in series.enumerate() {
        if i == 0 {
            out = s.to_vec();
        } else {
            out.truncate(s.len());
            for (o, v) in out.iter_mut().zip(s) {
                *o = (*o).min(*v);
            }
        }
    }
    out
}

/// Nanoseconds the window of a set of lockstep rounds takes up to and
/// including turn `turn` when every turn costs the shortest duration any of
/// the rounds saw for it. The traced run makes few rounds and splits their
/// time into a budget; every round does byte-identical work turn by turn and
/// interference only ever makes a turn longer, so this is its best estimate
/// of the undisturbed window. The end-to-end run does not use it: its
/// timings are those of whole rounds.
pub fn quiet_window_ns(rounds: &[&Turns], turn: u32) -> f64 {
    quietest(rounds.iter().map(|t| t.turn_ns.as_slice()))
        .iter()
        .take((turn as usize).saturating_add(1))
        .map(|ns| *ns as f64)
        .sum()
}

/// One finished round. Counts repeat exactly for one seed; times do not.
pub struct Round {
    pub setup_s: f64,
    /// From the first publication to the last ack, and to the last delivery.
    pub publish_window_s: f64,
    pub deliver_window_s: f64,
    pub published: u64,
    pub acked: u64,
    pub deliveries: u64,
    pub required: u64,
    pub missing: u64,
    pub wrong: u64,
    pub rss_setup_kib: f64,
    pub rss_end_kib: f64,
    /// Publish→deliver and publish→ack latencies, each ascending.
    pub deliver_ns: Vec<u32>,
    pub ack_ns: Vec<u32>,
    /// Lockstep only: turns of the timed window, publications that had to
    /// wait a turn for their publisher's previous ack, and the turn record.
    pub turns: u64,
    pub slips: u64,
    pub by_turn: Option<Turns>,
    /// Open loop only: how late each publication was sent (ascending).
    pub lag_ns: Vec<u32>,
}

impl Round {
    pub fn publishes_per_s(&self) -> f64 {
        self.acked as f64 / self.publish_window_s
    }

    pub fn deliveries_per_s(&self) -> f64 {
        self.deliveries as f64 / self.deliver_window_s
    }

    /// Operations attempted: every publication and every required delivery.
    pub fn attempted(&self) -> u64 {
        self.published + self.required
    }

    /// Publications refused or never acked, deliveries that should not have
    /// arrived, and — where the workload is strict — required deliveries that
    /// never did.
    pub fn failed(&self, strict: bool) -> u64 {
        (self.published - self.acked) + self.wrong + if strict { self.missing } else { 0 }
    }

    /// Percentile `q` of this round's publish→deliver latencies.
    pub fn deliver_ms(&self, q: f64) -> f64 {
        percentile(&self.deliver_ns, q) / 1e6
    }

    pub fn ack_ms(&self, q: f64) -> f64 {
        percentile(&self.ack_ns, q) / 1e6
    }

    pub fn delivered_share(&self) -> f64 {
        (self.required - self.missing) as f64 / self.required as f64
    }

    /// The counts that must be identical in every round of one seed.
    pub fn counts(&self) -> [u64; 7] {
        [
            self.published,
            self.acked,
            self.deliveries,
            self.missing,
            self.wrong,
            self.turns,
            self.slips,
        ]
    }
}
