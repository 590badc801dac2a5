//! Wire messages of the DPS protocol, plus the descriptors they carry.

use dps_content::{AttrName, Predicate, SharedEvent};
use dps_sim::{Message, MsgClass, NodeId};
use serde::{Deserialize, Serialize};

use crate::config::TraversalKind;
use crate::label::GroupLabel;

/// Globally unique subscription identifier: issuing node + local sequence number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct SubId(pub NodeId, pub u32);

/// Globally unique publication identifier: publishing node + local sequence number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct PubId(pub NodeId, pub u32);

/// A pointer to a node together with the group it belongs to — the unit entry of
/// `predview` / `succview` lists ("ordered lists of K pointers to nodes in
/// successor/predecessor groups", §4).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct GroupRef {
    /// Label of the group the node belongs to.
    pub label: GroupLabel,
    /// The node.
    pub node: NodeId,
}

impl GroupRef {
    /// One ref per node of `nodes`, in order, each in group `label`.
    pub(crate) fn all_in(
        label: &GroupLabel,
        nodes: impl IntoIterator<Item = NodeId>,
    ) -> Vec<GroupRef> {
        let gref = |node| GroupRef {
            label: label.clone(),
            node,
        };
        nodes.into_iter().map(gref).collect()
    }
}

/// Everything a joiner needs to know about a group: its label and whom to talk to.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct GroupDescriptor {
    /// Group label.
    pub label: GroupLabel,
    /// Leader (leader mode) or an arbitrary contact member (epidemic mode).
    pub leader: NodeId,
    /// Co-leaders (leader mode) or further contact members (epidemic mode).
    pub co_leaders: Vec<NodeId>,
    /// The owner of the attribute tree this group belongs to (root-based traversal
    /// needs the root "to always be known", §4.1).
    pub owner: NodeId,
    /// The owner's epoch: bumped every time the tree is re-rooted after an owner
    /// failure, so stale claims about dead owners always lose.
    pub owner_epoch: u64,
}

impl GroupDescriptor {
    /// All contact nodes, leader first.
    pub fn contacts(&self) -> impl Iterator<Item = NodeId> + '_ {
        std::iter::once(self.leader).chain(self.co_leaders.iter().copied())
    }
}

/// A child branch as shipped in view-exchange and adoption messages.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BranchInfo {
    /// Label of the child group heading the branch.
    pub label: GroupLabel,
    /// Pointers into the branch: child-group nodes first, deeper levels after.
    pub refs: Vec<GroupRef>,
}

/// A subscription traversal in progress (`FIND_GROUP`'s state).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Ticket {
    /// The subscriber that issued the subscription.
    pub origin: NodeId,
    /// Its subscription id.
    pub sub_id: SubId,
    /// The predicate the subscriber joins with.
    pub pred: Predicate,
    /// Traversal mode in force for this visit.
    pub mode: TraversalKind,
    /// Root-based traversals only: set once the visit has passed through the
    /// root, so later hops do not bounce the ticket back to the owner.
    pub descending: bool,
    /// Hop budget, decremented at every forward; exhaustion aborts the traversal
    /// (the origin retries after `REQUEST_TIMEOUT`).
    pub ttl: u32,
}

/// A publication traveling between groups.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PubTicket {
    /// Publication id.
    pub id: PubId,
    /// The event itself (refcounted: forwarding a ticket to N branches clones
    /// the `Arc`, never the attribute vector).
    pub event: SharedEvent,
    /// The attribute tree being visited.
    pub attr: AttrName,
    /// Traversal mode in force.
    pub mode: TraversalKind,
    /// The group the receiver should process this publication in (`None` at the
    /// entry hop, where the receiver picks one of its memberships in the tree).
    pub target: Option<GroupLabel>,
    /// In generic mode: the child branch this publication climbed up from, so the
    /// parent does not echo it straight back down.
    pub from_child: Option<GroupLabel>,
    /// Whether the publication is traveling downstream (`true`) or still climbing
    /// toward the root (generic mode starts with `false` from interior contacts).
    pub downstream: bool,
    /// Publisher to acknowledge once a group accepts the event (entry-hop
    /// reliability: a publisher with a stale contact re-walks and resends until
    /// some tree member acknowledges).
    pub ack_to: Option<NodeId>,
    /// Hop budget (safety net against routing loops under heavy churn).
    pub ttl: u32,
}

/// The DPS wire protocol.
///
/// Classes: subscription routing is [`MsgClass::Subscription`], event
/// dissemination [`MsgClass::Publication`], everything else (bootstrap, views,
/// heartbeats, healing) [`MsgClass::Management`] — mirroring the accounting of
/// §5.2.1 ("messages include the ones due to publication, subscription, and
/// management of the overlay").
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum DpsMsg {
    // ---- bootstrap substrate (management) ----
    /// Peer-sampling shuffle request carrying a sample of the sender's peers.
    Shuffle {
        /// Sender's random peer sample.
        peers: Vec<NodeId>,
    },
    /// Shuffle answer.
    ShuffleReply {
        /// Receiver's random peer sample.
        peers: Vec<NodeId>,
    },
    /// Random walk looking for a contact point in the tree of `attr` (§4.1:
    /// "propagating a request message with random walks").
    FindTree {
        /// Attribute whose tree is sought.
        attr: AttrName,
        /// Node that started the walk.
        origin: NodeId,
        /// Remaining hops.
        ttl: u32,
    },
    /// Positive answer to [`DpsMsg::FindTree`].
    TreeFound {
        /// Attribute of the tree.
        attr: AttrName,
        /// A node inside the tree (used as contact point).
        contact: NodeId,
        /// The tree owner, if known (primes the root-based traversal).
        owner: Option<NodeId>,
        /// The owner's epoch, as known by the answerer.
        epoch: u64,
    },
    /// Negative answer to [`DpsMsg::FindTree`]: the walk exhausted its TTL (or hit
    /// a dead end) without meeting the tree. Lets the origin retry — or create
    /// the tree — immediately instead of waiting out its timeout.
    TreeNotFound {
        /// Attribute whose tree was not found.
        attr: AttrName,
    },
    /// Owner announcement, sent to the creator's peers when a tree is created and
    /// gossiped opportunistically afterwards.
    OwnerAnnounce {
        /// Attribute owned.
        attr: AttrName,
        /// The owner node.
        owner: NodeId,
        /// The owner's epoch (re-rootings bump it; higher epochs win conflicts).
        epoch: u64,
    },

    // ---- subscription (FIND_GROUP / SUBSCRIBE_TO / CREATE_GROUP, §4.1) ----
    /// One step of the tree traversal locating the group for `ticket.pred`.
    FindGroup(Ticket),
    /// The traversal located an existing group; the origin should join it.
    SubscribeTo {
        /// The traversal this answers.
        ticket: Ticket,
        /// The located group.
        group: GroupDescriptor,
    },
    /// No group exists for the predicate: the origin must create one below
    /// `parent` and adopt the listed branches (re-parented by constraint C2).
    CreateGroup {
        /// The traversal this answers.
        ticket: Ticket,
        /// Designated predecessor group.
        parent: GroupDescriptor,
        /// Sibling branches the new group must adopt as its children.
        adopted: Vec<BranchInfo>,
    },
    /// Join request from a subscriber to a group contact.
    JoinGroup {
        /// Subscription being served.
        sub_id: SubId,
        /// Group being joined.
        label: GroupLabel,
        /// The joining node (== sender; explicit for clarity).
        member: NodeId,
    },
    /// Acknowledgment and state transfer for a join.
    JoinAck {
        /// Subscription being served.
        sub_id: SubId,
        /// The joined group.
        group: GroupDescriptor,
        /// Role granted to the joiner (member or co-leader).
        co_leader: bool,
        /// Group members (full view for co-leaders, sample for epidemic members).
        members: Vec<NodeId>,
        /// Predecessor pointers for the joiner.
        predview: Vec<GroupRef>,
        /// Successor branches for the joiner (co-leaders and epidemic members).
        succviews: Vec<BranchInfo>,
    },
    /// `CREATE_GROUP` completed: the new child tells the parent to unblock event
    /// propagation toward it (§4.1: "event propagation is blocked in the
    /// predecessor ... reset when data structures are updated").
    CreateDone {
        /// Label of the parent group (the receiver's membership).
        parent_label: GroupLabel,
        /// The newly created group.
        child: BranchInfo,
    },
    /// Tells an adopted child that its parent changed (re-parenting / healing).
    NewParent {
        /// The child's own label (receiver side).
        child_label: GroupLabel,
        /// The new parent's descriptor.
        parent: GroupDescriptor,
        /// The new parent's predecessor chain (seeds the child's multi-level view).
        parent_chain: Vec<GroupRef>,
    },
    /// Epidemic membership gossip inside a group (`GOSSIP_SUB`, §4.2.2).
    GossipSub {
        /// Group concerned.
        label: GroupLabel,
        /// Members learned.
        members: Vec<NodeId>,
        /// Branches learned.
        branches: Vec<BranchInfo>,
        /// Forwards so far (drives the decaying forward probability).
        hops: u32,
    },

    // ---- publication (§4.1 + §4.2) ----
    /// Publication traveling between groups.
    Publish(PubTicket),
    /// Acknowledges that the tree of `attr` accepted publication `id`.
    PubAck {
        /// The publication.
        id: PubId,
        /// The attribute tree acknowledging.
        attr: AttrName,
    },
    /// Publication flooding/gossiping inside one group. Epidemic receivers
    /// start their own decaying gossip rounds on first receipt (the decay is
    /// per-node forward count, not network hop count, so the infection stays
    /// supercritical at the frontier).
    PublishGroup {
        /// Publication id.
        id: PubId,
        /// The event (refcounted; group spread and gossip rounds share one
        /// allocation).
        event: SharedEvent,
        /// Group concerned (receiver's membership).
        label: GroupLabel,
    },

    // ---- management: views, heartbeats, healing ----
    /// Heartbeat probe.
    Ping,
    /// Heartbeat answer. Like every message, it settles the receiver's probe
    /// of its sender on arrival.
    Pong,
    /// Leader-mode group announcement: current leader and co-leaders. Sent to
    /// members on changes, and to adjacent groups after leader takeover.
    GroupInfo {
        /// Group concerned.
        label: GroupLabel,
        /// Current leader.
        leader: NodeId,
        /// Current co-leaders.
        co_leaders: Vec<NodeId>,
        /// Tree owner (propagates owner changes).
        owner: NodeId,
        /// Tree owner epoch.
        owner_epoch: u64,
    },
    /// Leader-mode: leader tells co-leaders about a new member.
    MemberJoined {
        /// Group concerned.
        label: GroupLabel,
        /// The new member.
        member: NodeId,
    },
    /// A member signals the leader looks dead (triggers co-leader takeover).
    LeaderGone {
        /// Group concerned.
        label: GroupLabel,
        /// The leader believed dead.
        dead: NodeId,
    },
    /// Periodic view exchange, parent → child: the parent's identity and chain.
    ParentChain {
        /// The child group's label (receiver side).
        child_label: GroupLabel,
        /// Parent group entries followed by higher-level entries.
        chain: Vec<GroupRef>,
    },
    /// Periodic view exchange, child → parent: refreshes the parent's branch refs.
    ChildReport {
        /// The parent group's label (receiver side).
        parent_label: GroupLabel,
        /// The branch as seen from the child: its nodes, then its own children.
        branch: BranchInfo,
    },
    /// An orphaned group asks an ancestor to re-attach it (whole-parent failure).
    Reattach {
        /// The orphan branch.
        branch: BranchInfo,
        /// Hop budget for routing the reattachment down the tree.
        ttl: u32,
    },
    /// Graceful departure from one group: the member tells its leader (a
    /// leaving leader its heir), and the leader relays it to its co-leaders.
    /// The receivers drop `member` from that group only; it may live on in
    /// the tree in other roles.
    Leave {
        /// Group concerned.
        label: GroupLabel,
        /// Node leaving.
        member: NodeId,
    },
    /// Epidemic anti-entropy pull request.
    ViewPull {
        /// Group concerned.
        label: GroupLabel,
    },
    /// Epidemic anti-entropy push (also the merge process of §4.2.2: receivers
    /// discover group members and branches they did not know).
    ViewPush {
        /// Group concerned.
        label: GroupLabel,
        /// Members known to the sender.
        members: Vec<NodeId>,
        /// Predecessor pointers known to the sender.
        predview: Vec<GroupRef>,
        /// Branches known to the sender.
        branches: Vec<BranchInfo>,
        /// Digest of recent publications the sender already holds: epidemic
        /// receivers answer with the recent matching events *not* in this
        /// list (publication anti-entropy). An empty digest requests a full
        /// replay of the receiver's recent window (used when two cohorts of
        /// a merged group are introduced).
        recent: Vec<PubId>,
    },
    /// Tree-merge: instructs members of a duplicate tree to re-subscribe through
    /// the surviving tree (owners detect duplicates by periodic random walks).
    DissolveTree {
        /// Attribute whose duplicate tree is dissolved.
        attr: AttrName,
        /// Contact point in the surviving tree.
        contact: NodeId,
        /// Owner of the surviving tree.
        new_owner: NodeId,
        /// Epoch of the surviving owner.
        epoch: u64,
    },
}

impl Message for DpsMsg {
    /// One name per variant, in declaration order.
    const KINDS: &'static [&'static str] = &[
        "Shuffle",
        "ShuffleReply",
        "FindTree",
        "TreeFound",
        "TreeNotFound",
        "OwnerAnnounce",
        "FindGroup",
        "SubscribeTo",
        "CreateGroup",
        "JoinGroup",
        "JoinAck",
        "CreateDone",
        "NewParent",
        "GossipSub",
        "Publish",
        "PubAck",
        "PublishGroup",
        "Ping",
        "Pong",
        "GroupInfo",
        "MemberJoined",
        "LeaderGone",
        "ParentChain",
        "ChildReport",
        "Reattach",
        "Leave",
        "ViewPull",
        "ViewPush",
        "DissolveTree",
    ];

    fn kind(&self) -> usize {
        match self {
            DpsMsg::Shuffle { .. } => 0,
            DpsMsg::ShuffleReply { .. } => 1,
            DpsMsg::FindTree { .. } => 2,
            DpsMsg::TreeFound { .. } => 3,
            DpsMsg::TreeNotFound { .. } => 4,
            DpsMsg::OwnerAnnounce { .. } => 5,
            DpsMsg::FindGroup(_) => 6,
            DpsMsg::SubscribeTo { .. } => 7,
            DpsMsg::CreateGroup { .. } => 8,
            DpsMsg::JoinGroup { .. } => 9,
            DpsMsg::JoinAck { .. } => 10,
            DpsMsg::CreateDone { .. } => 11,
            DpsMsg::NewParent { .. } => 12,
            DpsMsg::GossipSub { .. } => 13,
            DpsMsg::Publish(_) => 14,
            DpsMsg::PubAck { .. } => 15,
            DpsMsg::PublishGroup { .. } => 16,
            DpsMsg::Ping => 17,
            DpsMsg::Pong => 18,
            DpsMsg::GroupInfo { .. } => 19,
            DpsMsg::MemberJoined { .. } => 20,
            DpsMsg::LeaderGone { .. } => 21,
            DpsMsg::ParentChain { .. } => 22,
            DpsMsg::ChildReport { .. } => 23,
            DpsMsg::Reattach { .. } => 24,
            DpsMsg::Leave { .. } => 25,
            DpsMsg::ViewPull { .. } => 26,
            DpsMsg::ViewPush { .. } => 27,
            DpsMsg::DissolveTree { .. } => 28,
        }
    }

    fn class(&self) -> MsgClass {
        match self {
            DpsMsg::Publish(_) | DpsMsg::PublishGroup { .. } => MsgClass::Publication,
            DpsMsg::FindGroup(_)
            | DpsMsg::SubscribeTo { .. }
            | DpsMsg::CreateGroup { .. }
            | DpsMsg::JoinGroup { .. }
            | DpsMsg::JoinAck { .. }
            | DpsMsg::CreateDone { .. }
            | DpsMsg::GossipSub { .. } => MsgClass::Subscription,
            _ => MsgClass::Management,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classes_match_paper_accounting() {
        let ping = DpsMsg::Ping;
        assert_eq!(ping.class(), MsgClass::Management);
        let pt = PubTicket {
            id: PubId(NodeId::from_index(0), 0),
            event: "a = 1".parse::<dps_content::Event>().unwrap().into(),
            attr: "a".into(),
            mode: TraversalKind::Root,
            target: None,
            from_child: None,
            downstream: true,
            ack_to: None,
            ttl: 8,
        };
        assert_eq!(DpsMsg::Publish(pt).class(), MsgClass::Publication);
        let t = Ticket {
            origin: NodeId::from_index(0),
            sub_id: SubId(NodeId::from_index(0), 0),
            pred: "a > 1".parse().unwrap(),
            mode: TraversalKind::Root,
            descending: false,
            ttl: 8,
        };
        assert_eq!(DpsMsg::FindGroup(t).class(), MsgClass::Subscription);
    }

    /// The census index: every variant has its own slot, and the slot's name
    /// is the variant's (`kind`'s match has no wildcard arm, so a new variant
    /// cannot compile without one).
    #[test]
    fn every_variant_has_a_kind_and_a_name() {
        let n = NodeId::from_index(1);
        let label = GroupLabel::Root("a".into());
        let event: SharedEvent = "a = 1".parse::<dps_content::Event>().unwrap().into();
        let ticket = Ticket {
            origin: n,
            sub_id: SubId(n, 0),
            pred: "a > 1".parse().unwrap(),
            mode: TraversalKind::Root,
            descending: false,
            ttl: 8,
        };
        let group = GroupDescriptor {
            label: label.clone(),
            leader: n,
            co_leaders: vec![],
            owner: n,
            owner_epoch: 0,
        };
        let branch = BranchInfo {
            label: label.clone(),
            refs: vec![],
        };
        let pub_ticket = PubTicket {
            id: PubId(n, 0),
            event: event.clone(),
            attr: "a".into(),
            mode: TraversalKind::Root,
            target: None,
            from_child: None,
            downstream: true,
            ack_to: None,
            ttl: 8,
        };
        let (attr, id, sub_id) = (AttrName::from("a"), PubId(n, 0), SubId(n, 0));
        #[rustfmt::skip]
        let one_of_each = [
            DpsMsg::Shuffle { peers: vec![] },
            DpsMsg::ShuffleReply { peers: vec![] },
            DpsMsg::FindTree { attr: attr.clone(), origin: n, ttl: 1 },
            DpsMsg::TreeFound { attr: attr.clone(), contact: n, owner: None, epoch: 0 },
            DpsMsg::TreeNotFound { attr: attr.clone() },
            DpsMsg::OwnerAnnounce { attr: attr.clone(), owner: n, epoch: 0 },
            DpsMsg::FindGroup(ticket.clone()),
            DpsMsg::SubscribeTo { ticket: ticket.clone(), group: group.clone() },
            DpsMsg::CreateGroup { ticket, parent: group.clone(), adopted: vec![] },
            DpsMsg::JoinGroup { sub_id, label: label.clone(), member: n },
            DpsMsg::JoinAck { sub_id, group: group.clone(), co_leader: false, members: vec![], predview: vec![], succviews: vec![] },
            DpsMsg::CreateDone { parent_label: label.clone(), child: branch.clone() },
            DpsMsg::NewParent { child_label: label.clone(), parent: group, parent_chain: vec![] },
            DpsMsg::GossipSub { label: label.clone(), members: vec![], branches: vec![], hops: 0 },
            DpsMsg::Publish(pub_ticket),
            DpsMsg::PubAck { id, attr: attr.clone() },
            DpsMsg::PublishGroup { id, event, label: label.clone() },
            DpsMsg::Ping,
            DpsMsg::Pong,
            DpsMsg::GroupInfo { label: label.clone(), leader: n, co_leaders: vec![], owner: n, owner_epoch: 0 },
            DpsMsg::MemberJoined { label: label.clone(), member: n },
            DpsMsg::LeaderGone { label: label.clone(), dead: n },
            DpsMsg::ParentChain { child_label: label.clone(), chain: vec![] },
            DpsMsg::ChildReport { parent_label: label.clone(), branch: branch.clone() },
            DpsMsg::Reattach { branch, ttl: 1 },
            DpsMsg::Leave { label: label.clone(), member: n },
            DpsMsg::ViewPull { label: label.clone() },
            DpsMsg::ViewPush { label, members: vec![], predview: vec![], branches: vec![], recent: vec![] },
            DpsMsg::DissolveTree { attr, contact: n, new_owner: n, epoch: 0 },
        ];
        assert_eq!(one_of_each.len(), DpsMsg::KINDS.len());
        for (i, msg) in one_of_each.iter().enumerate() {
            assert_eq!(msg.kind(), i, "{msg:?}");
            let shown = format!("{msg:?}");
            let variant = shown.split([' ', '(']).next().unwrap();
            assert_eq!(DpsMsg::KINDS[i], variant);
        }
    }

    #[test]
    fn descriptor_contacts_leader_first() {
        let d = GroupDescriptor {
            label: GroupLabel::Root("a".into()),
            leader: NodeId::from_index(3),
            co_leaders: vec![NodeId::from_index(5), NodeId::from_index(7)],
            owner: NodeId::from_index(3),
            owner_epoch: 0,
        };
        let c: Vec<_> = d.contacts().collect();
        assert_eq!(
            c,
            vec![
                NodeId::from_index(3),
                NodeId::from_index(5),
                NodeId::from_index(7)
            ]
        );
    }
}
