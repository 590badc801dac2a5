//! Protocol configuration: the traversal × communication matrix of §4 and the
//! gossip fanout `k` — the only values the paper's evaluation varies — plus
//! the protocol's fixed parameters as constants.

use serde::{Deserialize, Serialize};

/// How tree visits locate groups (paper §4.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TraversalKind {
    /// Visits start at the root (the attribute owner) and proceed only downwards.
    /// Lower latency, but stresses the root and requires it to be known.
    Root,
    /// Visits start from any node in the tree and go in both directions. More
    /// messages, better load balance, any contact point works.
    Generic,
}

/// How messages cross and flood groups (paper §4.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CommKind {
    /// One leader plus `Kc` co-leaders per group; inter-group traffic is
    /// leader-to-leader; the leader fans events out to every member.
    Leader,
    /// Gossip: every node keeps partial views and forwards events to `k` random
    /// group members, with a forwarding probability decaying in the hop count.
    Epidemic,
}

/// Which predicate of a multi-predicate subscription the subscriber joins a tree
/// with. The paper (§3): "A subscriber joins the tree corresponding to only one of
/// the attributes of its subscription. This attribute can be arbitrarily chosen."
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum JoinRule {
    /// Always join with the first predicate of the filter (deterministic; used by
    /// tests and by scenarios that pre-compute the oracle).
    First,
    /// The scenario driver picks uniformly at random and passes the index
    /// explicitly (see `DpsNode::subscribe_with`); equivalent to the paper's
    /// "arbitrarily chosen".
    Explicit,
}

/// `Kc`: number of co-leaders per group (leader mode).
pub const CO_LEADERS: usize = 2;

/// `K`: number of cross-level pointers kept in `predview` / each `succview`
/// (entries beyond the direct neighbor group survive whole-group failures).
pub const VIEW_DEPTH: usize = 3;

/// `k'`: epidemic inter-group fanout (nodes contacted on the next level).
pub const INTER_GROUP_FANOUT: usize = 2;

/// `Fs`: subscription-gossip fanout (epidemic view updates).
pub const SUB_GOSSIP_FANOUT: usize = 2;

/// `p0`: base forwarding probability of epidemic gossip. A node holding a
/// fresh publication runs one gossip round per step, forwarding to
/// [`gossip_fanout`](DpsConfig::gossip_fanout) random group members with
/// probability `p0 / (1 + r)` in its `r`-th round ("reduced proportionally to
/// the number of times the message is forwarded", §4.2.2).
pub const GOSSIP_P0: f64 = 1.0;

/// Number of per-step gossip rounds a node runs per fresh publication before
/// retiring it. The decaying round probability makes late rounds rare; this
/// caps the bookkeeping. The expected sends per member are
/// `gossip_fanout × Σ p0/(1+r)` (≈ 3.4 × `gossip_fanout` for 16 rounds) —
/// supercritical for every `k ≥ 1`, which is what makes the epidemic rows of
/// Fig. 3(a) beat the leader rows under churn.
pub const GOSSIP_ROUNDS: u32 = 16;

/// Cap on the size of the partial `groupview` kept by epidemic members.
pub const GROUP_VIEW_CAP: usize = 12;

/// Lower bound of the heartbeat probing interval in steps; each monitored edge
/// draws its own period uniformly from `HEARTBEAT_MIN..=HEARTBEAT_MAX` (paper
/// §5.2: 10 to 25 steps).
pub const HEARTBEAT_MIN: u64 = 10;

/// Upper bound of the heartbeat interval.
pub const HEARTBEAT_MAX: u64 = 25;

/// Steps to wait for a `Pong` (or any request's answer) before declaring the
/// peer dead / the request failed.
pub const PROBE_TIMEOUT: u64 = 5;

/// Unanswered pings re-sent before a monitored neighbor is declared dead.
/// With 0, a single lost `Ping`/`Pong` kills the neighbor in the detector —
/// under link loss the overlay then tears itself apart on false suspicion (at
/// 20 % uniform loss a round trip is lost more than a third of the time).
/// Retries trade a few steps of detection latency for robustness.
pub const PROBE_RETRIES: u32 = 2;

/// TTL of the random walks used to discover a tree for an attribute.
pub const WALK_TTL: u32 = 24;

/// Times a node repeats the walk pair looking for an attribute's tree after
/// the first came back empty or not at all. When the last one fails too, no
/// tree exists as far as the node can tell: a waiting subscription creates it
/// and becomes its owner (§4.1), waiting publications skip the attribute. A
/// node runs one such lookup per attribute at a time, whatever number of
/// requests wait on it.
pub const FIND_TREE_RETRIES: u32 = 2;

/// Timeout for pending subscription/publication requests before retrying.
pub const REQUEST_TIMEOUT: u64 = 40;

/// Timeout for an in-flight `FIND_GROUP` traversal. Separate from
/// [`REQUEST_TIMEOUT`] because tree descents cover one group per step and
/// uniform range workloads build predicate chains many groups deep. A retry
/// restarts a *new* descent but does not cancel the old one — whichever
/// answers first wins, duplicates are ignored — so this is a liveness
/// heartbeat against descents that died with a crashed relay, not a
/// worst-case-depth bound: under churn, a depth bound leaves every subscriber
/// whose descent hit a crashed relay unplaced, and silently undeliverable,
/// for that long.
pub const TRAVERSAL_TIMEOUT: u64 = 100;

/// Period of the leader-mode view exchange (parent chain down / child report
/// up) and of the epidemic merge push.
pub const VIEW_EXCHANGE_EVERY: u64 = 20;

/// Period of the duplicate-tree detection walk run by owners, which also
/// re-announces their claim. A publisher whose lookup was answered "no such
/// tree" believes it for one such period before walking again (or until an
/// announcement or answer names the tree).
pub const OWNER_MERGE_EVERY: u64 = 100;

/// Age limit (steps) of the per-node recent-publication buffer used to
/// re-flush events into a branch right after it is repaired, re-attached or
/// adopted. Without it, any publication crossing a stale branch pointer during
/// the healing window is lost for the entire subtree — the dominant
/// dependability failure at high churn. Re-flushes are deduplicated by the
/// per-group seen cache, so crossing flows are safe.
pub const REPUB_WINDOW: u64 = 240;

/// Size of the random peer sample kept per node (bootstrap substrate).
pub const PEER_VIEW: usize = 12;

/// Capacity of the per-node publication dedup cache.
pub const SEEN_CAP: usize = 512;

// §5.2's heartbeat range; every period and cap positive, so no timer divides
// by zero or stalls and no view is empty by construction; more than one
// gossip round, so a fresh publication is always kept for the later rounds.
const _: () = {
    assert!(10 <= HEARTBEAT_MIN && HEARTBEAT_MIN <= HEARTBEAT_MAX && HEARTBEAT_MAX <= 25);
    assert!(PROBE_TIMEOUT > 0 && REQUEST_TIMEOUT > 0 && TRAVERSAL_TIMEOUT > 0);
    assert!(VIEW_EXCHANGE_EVERY > 0 && OWNER_MERGE_EVERY > 0 && REPUB_WINDOW > 0);
    assert!(CO_LEADERS > 0 && VIEW_DEPTH > 0 && INTER_GROUP_FANOUT > 0 && SUB_GOSSIP_FANOUT > 0);
    assert!(GROUP_VIEW_CAP > 0 && PEER_VIEW > 0 && SEEN_CAP > 0 && WALK_TTL > 0);
    assert!(GOSSIP_P0 > 0.0 && GOSSIP_ROUNDS > 1);
};

/// The protocol configuration: what the paper's evaluation varies.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DpsConfig {
    /// Tree traversal flavor.
    pub traversal: TraversalKind,
    /// Intra/inter-group communication flavor.
    pub comm: CommKind,
    /// Join-predicate selection rule.
    pub join_rule: JoinRule,
    /// `k`: epidemic intra-group fanout (neighbors infected per round); the
    /// paper evaluates `k = 1` and `k = 2`.
    pub gossip_fanout: usize,
}

impl Default for DpsConfig {
    fn default() -> Self {
        DpsConfig {
            traversal: TraversalKind::Root,
            comm: CommKind::Leader,
            join_rule: JoinRule::First,
            gossip_fanout: 1,
        }
    }
}

impl DpsConfig {
    /// The four named configurations compared throughout §5: `root`/`generic` ×
    /// `leader`/`epidemic`.
    pub fn named(traversal: TraversalKind, comm: CommKind) -> Self {
        DpsConfig {
            traversal,
            comm,
            ..DpsConfig::default()
        }
    }

    /// Convenience: the paper's "epidemic, k = 2" variants.
    pub fn with_fanout(mut self, k: usize) -> Self {
        self.gossip_fanout = k;
        self
    }

    /// Short human-readable name, e.g. `"leader root"`, matching the figure
    /// legends of the paper.
    pub fn label(&self) -> String {
        let comm = match self.comm {
            CommKind::Leader => "leader",
            CommKind::Epidemic => "epidemic",
        };
        let trav = match self.traversal {
            TraversalKind::Root => "root",
            TraversalKind::Generic => "generic",
        };
        if self.comm == CommKind::Epidemic && self.gossip_fanout > 1 {
            format!("{comm} {trav} k = {}", self.gossip_fanout)
        } else {
            format!("{comm} {trav}")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_match_figure_legends() {
        assert_eq!(
            DpsConfig::named(TraversalKind::Root, CommKind::Leader).label(),
            "leader root"
        );
        // The default `k = 1` carries no suffix.
        assert_eq!(DpsConfig::default().gossip_fanout, 1);
        assert_eq!(
            DpsConfig::named(TraversalKind::Root, CommKind::Epidemic).label(),
            "epidemic root"
        );
        assert_eq!(
            DpsConfig::named(TraversalKind::Generic, CommKind::Epidemic)
                .with_fanout(2)
                .label(),
            "epidemic generic k = 2"
        );
    }
}
