//! Protocol configuration: the traversal × communication matrix of §4 plus all
//! tuning knobs used in the paper's evaluation.

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
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
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
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum JoinRule {
    /// Always join with the first predicate of the filter (deterministic; used by
    /// tests and by scenarios that pre-compute the oracle).
    First,
    /// The scenario driver picks uniformly at random and passes the index
    /// explicitly (see `DpsNode::subscribe_with`); equivalent to the paper's
    /// "arbitrarily chosen".
    Explicit,
}

/// Full protocol configuration.
///
/// Defaults follow the paper where it gives numbers (heartbeat interval 10–25
/// steps, gossip fanout `k = 1` with a `k = 2` variant) and sensible small values
/// elsewhere.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DpsConfig {
    /// Tree traversal flavor.
    pub traversal: TraversalKind,
    /// Intra/inter-group communication flavor.
    pub comm: CommKind,
    /// Join-predicate selection rule.
    pub join_rule: JoinRule,
    /// `Kc`: number of co-leaders per group (leader mode).
    pub co_leaders: usize,
    /// `K`: number of cross-level pointers kept in `predview` / each `succview`
    /// (entries beyond the direct neighbor group survive whole-group failures).
    pub view_depth: usize,
    /// `k`: epidemic intra-group fanout (neighbors infected per round).
    pub gossip_fanout: usize,
    /// `k'`: epidemic inter-group fanout (nodes contacted on the next level).
    pub inter_group_fanout: usize,
    /// `Fs`: subscription-gossip fanout (epidemic view updates).
    pub sub_gossip_fanout: usize,
    /// Base forwarding probability of epidemic gossip: a node holding a fresh
    /// publication runs one gossip round per step, forwarding to
    /// [`gossip_fanout`](Self::gossip_fanout) random group members with
    /// probability `p0 / (1 + r)` in its `r`-th round ("reduced proportionally
    /// to the number of times the message is forwarded", §4.2.2).
    pub gossip_p0: f64,
    /// Number of per-step gossip rounds a node runs per fresh publication
    /// before retiring it. The decaying round probability makes late rounds
    /// rare; this caps the bookkeeping. The expected sends per member are
    /// `gossip_fanout × Σ p0/(1+r)` (≈ 3.4 × `gossip_fanout` for the default
    /// 16 rounds) — supercritical for every `k ≥ 1`, which is what makes the
    /// epidemic rows of Fig. 3(a) beat the leader rows under churn.
    pub gossip_rounds: u32,
    /// Cap on the size of the partial `groupview` kept by epidemic members.
    pub group_view_cap: usize,
    /// Heartbeat probing interval bounds in steps; each monitored edge draws its
    /// own period uniformly from this range (paper §5.2: 10 to 25 steps).
    pub heartbeat_min: u64,
    /// Upper bound of the heartbeat interval.
    pub heartbeat_max: u64,
    /// Steps to wait for a `Pong` (or any request's answer) before declaring the
    /// peer dead / the request failed.
    pub probe_timeout: u64,
    /// Unanswered pings re-sent before a monitored neighbor is declared dead.
    /// With 0, a single lost `Ping`/`Pong` kills the neighbor in the detector —
    /// under link loss the overlay then tears itself apart on false suspicion
    /// (at 20 % uniform loss a round trip is lost more than a third of the
    /// time). Retries trade a few steps of detection latency for robustness.
    pub probe_retries: u32,
    /// TTL of the random walks used to discover a tree for an attribute.
    pub walk_ttl: u32,
    /// Times a node repeats the walk pair looking for an attribute's tree
    /// after the first came back empty or not at all. When the last one
    /// fails too, no tree exists as far as the node can tell: a waiting
    /// subscription creates it and becomes its owner (§4.1), waiting
    /// publications skip the attribute. A node runs one such lookup per
    /// attribute at a time, whatever number of requests wait on it.
    pub find_tree_retries: u32,
    /// Timeout for pending subscription/publication requests before retrying.
    pub request_timeout: u64,
    /// Timeout for an in-flight `FIND_GROUP` traversal. Separate from
    /// [`request_timeout`](Self::request_timeout) because tree descents cover one
    /// group per step and uniform range workloads build predicate chains many
    /// groups deep. A retry restarts a *new* descent but does not cancel the old
    /// one — whichever answers first wins, duplicates are ignored — so this is a
    /// liveness heartbeat against descents that died with a crashed relay, not a
    /// worst-case-depth bound. (It was once 1500 on the depth-bound reasoning;
    /// under churn that left every subscriber whose descent hit a crashed relay
    /// unplaced — and silently undeliverable — for 1500 steps.)
    pub traversal_timeout: u64,
    /// Period of the leader-mode view exchange (parent chain down / child report
    /// up) and of the epidemic merge push.
    pub view_exchange_every: u64,
    /// Period of the duplicate-tree detection walk run by owners, which also
    /// re-announces their claim. A publisher whose lookup was answered "no
    /// such tree" believes it for one such period before walking again (or
    /// until an announcement or answer names the tree).
    pub owner_merge_every: u64,
    /// Age limit (steps) of the per-node recent-publication buffer used to
    /// re-flush events into a branch right after it is repaired, re-attached
    /// or adopted. Without it, any publication crossing a stale branch
    /// pointer during the healing window is lost for the entire subtree —
    /// the dominant dependability failure at high churn. Re-flushes are
    /// deduplicated by the per-group seen cache, so crossing flows are safe.
    pub repub_window: u64,
    /// Size of the random peer sample kept per node (bootstrap substrate).
    pub peer_view: usize,
    /// Capacity of the per-node publication dedup cache.
    pub seen_cap: usize,
}

impl Default for DpsConfig {
    fn default() -> Self {
        DpsConfig {
            traversal: TraversalKind::Root,
            comm: CommKind::Leader,
            join_rule: JoinRule::First,
            co_leaders: 2,
            view_depth: 3,
            gossip_fanout: 1,
            inter_group_fanout: 2,
            sub_gossip_fanout: 2,
            gossip_p0: 1.0,
            gossip_rounds: 16,
            group_view_cap: 12,
            heartbeat_min: 10,
            heartbeat_max: 25,
            probe_timeout: 5,
            probe_retries: 2,
            walk_ttl: 24,
            find_tree_retries: 2,
            request_timeout: 40,
            traversal_timeout: 100,
            view_exchange_every: 20,
            owner_merge_every: 100,
            repub_window: 240,
            peer_view: 12,
            seen_cap: 512,
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
    fn defaults_follow_the_paper() {
        let c = DpsConfig::default();
        assert_eq!((c.heartbeat_min, c.heartbeat_max), (10, 25));
        assert_eq!(c.gossip_fanout, 1);
        assert!(c.co_leaders >= 1);
    }

    #[test]
    fn labels_match_figure_legends() {
        assert_eq!(
            DpsConfig::named(TraversalKind::Root, CommKind::Leader).label(),
            "leader root"
        );
        assert_eq!(
            DpsConfig::named(TraversalKind::Generic, CommKind::Epidemic)
                .with_fanout(2)
                .label(),
            "epidemic generic k = 2"
        );
    }
}
