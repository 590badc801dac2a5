//! The DPS protocol node: a message-driven state machine implementing
//! [`dps_sim::Process`].
//!
//! One [`DpsNode`] plays every role of the paper at once, as real deployments do:
//! it is a subscriber (holding filters and group memberships), a publisher, a
//! relay, possibly a group leader or co-leader, and possibly the owner of one or
//! more attribute trees. Behavior is selected by [`DpsConfig`]: traversal
//! root/generic × communication leader/epidemic.
//!
//! The implementation is split by concern:
//!
//! * [`bootstrap`](self) — random peer sampling, tree discovery walks, owner
//!   announcements, tree creation and duplicate-tree dissolution;
//! * subscription — the `FIND_GROUP` / `SUBSCRIBE_TO` / `CREATE_GROUP` traversal
//!   of §4.1 with pending-request retries;
//! * publication — inter-group routing (downstream pruning, generic up+down) and
//!   intra-group flooding/gossip of §4.2;
//! * healing — heartbeat probing, co-leader promotion, view exchange,
//!   reattachment and the epidemic merge process of §4.3.

mod bootstrap;
mod heal;
mod publish;
mod subscribe;

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::Arc;

use dps_content::{AttrName, Filter, FilterIndex, MatchScratch, SharedEvent};
use dps_sim::{Context, NodeId, Process, Step};

use crate::config::{CommKind, DpsConfig, PEER_VIEW, PREDVIEW_CAP, REPUB_WINDOW, SEEN_CAP};
use crate::label::GroupLabel;
use crate::msg::{DpsMsg, GroupDescriptor, GroupRef, PubId, SubId};
use crate::seen::SeenCache;
use crate::sink::{NoopSink, StatsSink};
use crate::views::{Membership, Role};

pub use crate::views::{Branch, Membership as GroupMembership, Role as GroupRole};

/// Hard cap on the recent-publication re-flush buffer (the `REPUB_WINDOW` age
/// limit is the primary bound; this caps pathological publish rates).
pub(crate) const RECENT_PUBS_CAP: usize = 32;

/// Whether owner claim `a` beats claim `b`: higher epoch wins; on equal epochs
/// the smaller node id wins (deterministic, symmetric tiebreak).
pub(crate) fn claim_beats(a: (NodeId, u64), b: (NodeId, u64)) -> bool {
    a.1 > b.1 || (a.1 == b.1 && a.0 < b.0)
}

/// The `GroupInfo` announcing `leader` as the leader of `m`'s group, with
/// `m`'s co-leaders and owner claim — every leadership announcement a node
/// makes, whether it leads, hands over or steps down.
pub(crate) fn group_info(m: &Membership, leader: NodeId) -> DpsMsg {
    DpsMsg::GroupInfo {
        label: m.label.clone(),
        leader,
        co_leaders: m.co_leaders.clone(),
        owner: m.owner,
        owner_epoch: m.owner_epoch,
    }
}

/// Key of `suspected`: the dense node index as a `u32`, half the id's width
/// (`docs/determinism.md`, the packing rule).
fn node_key(node: NodeId) -> u32 {
    u32::try_from(node.index()).expect("a Sim cannot hold 2^32 nodes")
}

/// Key of `seen_node`: the publication id packed into 8 bytes.
fn pub_key(id: PubId) -> (u32, u32) {
    (node_key(id.0), id.1)
}

/// Key of `seen_route`: the packed publication id plus the interned id of the
/// group's label ([`Membership::route_id`]), 12 bytes.
fn route_key(id: PubId, route_id: u32) -> (u32, u32, u32) {
    (node_key(id.0), id.1, route_id)
}

/// Where a pending subscription currently stands.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum SubPhase {
    /// Looking for a contact point in the attribute tree.
    FindingTree,
    /// `FIND_GROUP` traversal in flight.
    Traversing,
    /// `JoinGroup` sent, waiting for the ack.
    Joining(GroupDescriptor),
}

/// A subscription the node is still working to place.
#[derive(Debug, Clone)]
pub(crate) struct PendingSub {
    pub sub_id: SubId,
    pub pred: dps_content::Predicate,
    pub phase: SubPhase,
    pub deadline: Step,
    pub retries: u32,
}

/// A publication some attribute's tree has not acknowledged yet.
#[derive(Debug, Clone)]
pub(crate) struct PendingPub {
    pub id: PubId,
    pub event: SharedEvent,
    /// Attributes still owed a `PubAck`: sent to a contact, or waiting on
    /// the attribute's [`TreeLookup`].
    pub attrs: Vec<AttrName>,
    pub deadline: Step,
    /// Timeouts spent waiting for an acknowledgement.
    pub retries: u32,
}

/// Where this node's search for one attribute's tree stands (§4.1: "by
/// propagating a request message with random walks"). A node keeps at most
/// one per attribute, shared by every subscription and publication waiting
/// on that tree.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum TreeLookup {
    /// A walk pair is in flight, given up as lost at `deadline`; `misses`
    /// pairs before it ended without finding the tree.
    Walking { misses: u32, deadline: Step },
    /// The pair in flight answered `TreeNotFound`; this step's tick decides
    /// what follows.
    Empty { misses: u32 },
    /// The lookup ran out of retries and its last pair was answered
    /// `TreeNotFound`: no tree is believed to exist until `until`, and
    /// publications skip the attribute meanwhile.
    Absent { until: Step },
}

/// A publication this node is actively gossiping within one group (epidemic
/// mode): one fan-out round per step with probability `p0 / (1 + rounds)`,
/// retired after `GOSSIP_ROUNDS` rounds (§4.2.2's decaying forward).
#[derive(Debug, Clone)]
pub(crate) struct ActiveGossip {
    pub label: GroupLabel,
    pub id: PubId,
    pub event: SharedEvent,
    /// Rounds already run (round 0 fires on receipt).
    pub rounds: u32,
}

/// Heartbeat state for one monitored neighbor (§4.3: "nodes in the predview and
/// succview structure are periodically monitored for failures").
#[derive(Debug, Clone)]
pub(crate) struct Probe {
    /// Probing period, drawn uniformly from `HEARTBEAT_MIN..=HEARTBEAT_MAX`.
    pub every: Step,
    /// Next step at which to send a ping.
    pub next_at: Step,
    /// Step the outstanding ping was sent at. Any message from the neighbor
    /// settles it (`on_message`), a `Pong` included.
    pub outstanding: Option<Step>,
    /// Consecutive unanswered pings (any message resets it); the neighbor is
    /// declared dead only past `PROBE_RETRIES`.
    pub misses: u32,
}

/// Cached contact information for an attribute tree.
#[derive(Debug, Clone)]
pub(crate) struct TreeContact {
    pub contact: NodeId,
    pub owner: Option<NodeId>,
    /// Epoch of the cached owner claim.
    pub epoch: u64,
}

/// A DPS protocol node. See the [module docs](self).
pub struct DpsNode {
    pub(crate) id: NodeId,
    pub(crate) cfg: DpsConfig,
    pub(crate) sink: Arc<dyn StatsSink>,

    // Bootstrap substrate.
    pub(crate) peers: Vec<NodeId>,
    pub(crate) tree_cache: HashMap<AttrName, TreeContact>,

    // Application state.
    pub(crate) next_sub: u32,
    pub(crate) next_pub: u32,
    /// Active subscriptions, held in a [`FilterIndex`] so publication
    /// delivery is a counting-algorithm query instead of a linear scan.
    pub(crate) subs: FilterIndex<SubId>,
    /// Reusable scratch for `subs` queries (allocation-free steady state).
    pub(crate) sub_scratch: MatchScratch,
    /// The subscriptions the publication being delivered matched, reused.
    pub(crate) matched: Vec<SubId>,
    pub(crate) memberships: Vec<Membership>,
    pub(crate) pending_subs: Vec<PendingSub>,
    pub(crate) pending_pubs: Vec<PendingPub>,
    /// Tree lookups in progress or concluded "absent", in the order they
    /// began (`tick_lookups` iterates it and the walks draw from the RNG).
    pub(crate) lookups: Vec<(AttrName, TreeLookup)>,

    // Publication bookkeeping.
    /// Per-(publication, group) route dedup. Keyed by an interned label id
    /// (`Membership::route_id`), not the label itself: labels carry heap
    /// predicates, and this cache is consulted on every forwarded
    /// publication — cloning or hashing a `GroupLabel` per check was
    /// measurable churn.
    pub(crate) seen_route: SeenCache<(u32, u32, u32)>,
    /// Intern table backing `seen_route`: each distinct group label this node
    /// ever held a membership in maps to a small dense id, consulted when a
    /// membership is taken on ([`adopt`](Self::adopt)), never per hop. Its
    /// keys are client-chosen predicates, so it keeps the keyed default
    /// hasher. Bounded by the node's group vocabulary, not by traffic.
    pub(crate) label_ids: HashMap<GroupLabel, u32>,
    pub(crate) seen_node: SeenCache<(u32, u32)>,
    pub(crate) active_gossip: Vec<ActiveGossip>,
    /// Recently handled matching publications `(id, event, heard_at)`, kept
    /// for [`REPUB_WINDOW`](crate::config::REPUB_WINDOW) steps to re-flush
    /// into branches repaired after a failure (see `flush_recent_to_branch`).
    pub(crate) recent_pubs: VecDeque<(PubId, SharedEvent, Step)>,
    pub(crate) pubs_received: u64,
    pub(crate) pubs_notified: u64,

    // Failure detection. A BTreeMap, not a HashMap: `tick_probes` iterates it
    // and the resulting ping/death order feeds the shared RNG, so iteration
    // must not depend on hasher seeds (which differ per thread).
    pub(crate) probes: BTreeMap<NodeId, Probe>,
    /// Scratch for `tick_probes`' monitor-target list, kept so an idle tick
    /// allocates nothing.
    pub(crate) monitor_buf: Vec<NodeId>,
    /// Recently declared-dead nodes (bounded memory), used to rank co-leaders
    /// during takeover and to avoid re-adding dead nodes from stale gossip.
    pub(crate) suspected: SeenCache<u32>,
    /// Step of the last suspicion-verification ping per suspect (throttle for
    /// `verify_suspect`; pruned by age, bounded).
    pub(crate) verify_at: HashMap<NodeId, Step>,
}

impl std::fmt::Debug for DpsNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DpsNode")
            .field("id", &self.id)
            .field("subs", &self.subs.len())
            .field("memberships", &self.memberships.len())
            .field("peers", &self.peers.len())
            .finish_non_exhaustive()
    }
}

impl DpsNode {
    /// Creates a node with the given configuration and no instrumentation.
    pub fn new(cfg: DpsConfig) -> Self {
        DpsNode::with_sink(cfg, Arc::new(NoopSink))
    }

    /// Creates a node reporting delivery milestones to `sink`.
    pub fn with_sink(cfg: DpsConfig, sink: Arc<dyn StatsSink>) -> Self {
        DpsNode {
            id: NodeId::from_index(0), // fixed up in on_start
            cfg,
            sink,
            peers: Vec::new(),
            tree_cache: HashMap::new(),
            next_sub: 0,
            next_pub: 0,
            subs: FilterIndex::new(),
            sub_scratch: MatchScratch::new(),
            matched: Vec::new(),
            memberships: Vec::new(),
            pending_subs: Vec::new(),
            pending_pubs: Vec::new(),
            lookups: Vec::new(),
            seen_route: SeenCache::new(SEEN_CAP * 4),
            label_ids: HashMap::new(),
            seen_node: SeenCache::new(SEEN_CAP),
            active_gossip: Vec::new(),
            recent_pubs: VecDeque::new(),
            pubs_received: 0,
            pubs_notified: 0,
            probes: BTreeMap::new(),
            monitor_buf: Vec::new(),
            suspected: SeenCache::new(128),
            verify_at: HashMap::new(),
        }
    }

    /// Seeds the random peer sample (the simulator's stand-in for an out-of-band
    /// bootstrap service; every peer-to-peer system needs one).
    pub fn seed_peers(&mut self, peers: Vec<NodeId>) {
        for p in peers {
            if !self.peers.contains(&p) {
                self.peers.push(p);
            }
        }
        if self.peers.len() > PEER_VIEW {
            self.peers.truncate(PEER_VIEW);
        }
    }

    // ---- inspection API (used by the facade, the oracle and tests) ----

    /// This node's id (valid after `on_start`).
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Active subscriptions, in subscription-id order.
    pub fn subscriptions(&self) -> impl Iterator<Item = (SubId, &Filter)> + '_ {
        self.subs.entries()
    }

    /// Number of active subscriptions.
    pub fn subscription_count(&self) -> usize {
        self.subs.len()
    }

    /// Current group memberships.
    pub fn memberships(&self) -> &[Membership] {
        &self.memberships
    }

    /// Attributes whose tree this node owns (it maintains the root vertex).
    pub fn owned_attrs(&self) -> Vec<AttrName> {
        self.memberships
            .iter()
            .filter(|m| m.label.is_root() && m.is_leader())
            .map(|m| m.label.attr().clone())
            .collect()
    }

    /// Number of subscriptions not yet placed in a group.
    pub fn pending_subscriptions(&self) -> usize {
        self.pending_subs.len()
    }

    /// Number of own publications some tree has not acknowledged yet.
    pub fn pending_publications(&self) -> usize {
        self.pending_pubs.len()
    }

    /// Publications received (any group, counted once per publication).
    pub fn publications_received(&self) -> u64 {
        self.pubs_received
    }

    /// Publications received that matched one of this node's filters.
    pub fn publications_notified(&self) -> u64 {
        self.pubs_notified
    }

    /// Heap bytes held by this node's three bounded caches (route dedup,
    /// node dedup, suspicion memory) — what a publication leaves behind.
    pub fn dedup_bytes(&self) -> usize {
        self.seen_route.heap_bytes() + self.seen_node.heap_bytes() + self.suspected.heap_bytes()
    }

    // ---- shared internals ----

    pub(crate) fn membership(&self, label: &GroupLabel) -> Option<&Membership> {
        self.memberships.iter().find(|m| &m.label == label)
    }

    pub(crate) fn membership_mut(&mut self, label: &GroupLabel) -> Option<&mut Membership> {
        self.memberships.iter_mut().find(|m| &m.label == label)
    }

    pub(crate) fn membership_index(&self, label: &GroupLabel) -> Option<usize> {
        self.memberships.iter().position(|m| &m.label == label)
    }

    /// Whether this node holds a membership in the tree of `attr`.
    pub(crate) fn in_tree(&self, attr: &AttrName) -> bool {
        self.memberships.iter().any(|m| m.label.attr() == attr)
    }

    /// Where the search for the tree of `attr` stands, if there is one.
    pub(crate) fn lookup(&self, attr: &AttrName) -> Option<&TreeLookup> {
        self.lookups.iter().find(|(a, _)| a == attr).map(|(_, l)| l)
    }

    /// Indices of our memberships within the tree of `attr`, in join order.
    pub(crate) fn memberships_in<'a>(
        &'a self,
        attr: &'a AttrName,
    ) -> impl Iterator<Item = usize> + 'a {
        let in_tree = move |(i, m): (usize, &Membership)| (m.label.attr() == attr).then_some(i);
        self.memberships.iter().enumerate().filter_map(in_tree)
    }

    /// The descriptor advertising a group we belong to.
    ///
    /// Epidemic groups have no maintained leadership: the `leader` field of a
    /// membership is only the contact that was current when we joined, and
    /// nothing ever updates it when that node dies (there is no takeover
    /// protocol in epidemic mode). Advertising it would hand joiners and
    /// publishers a possibly-dead contact forever — the failure that left
    /// subscribers permanently unplaced under churn. Since *any* epidemic
    /// member can serve joins and entries, we advertise ourselves, with a few
    /// live-believed members as backup contacts.
    pub(crate) fn descriptor(&self, m: &Membership) -> GroupDescriptor {
        let epidemic = self.cfg.comm == CommKind::Epidemic;
        let leader = if m.is_leader() || epidemic {
            self.id
        } else {
            m.leader
        };
        let co_leaders = if epidemic {
            self.backup_contacts(m).collect()
        } else {
            m.co_leaders.clone()
        };
        GroupDescriptor {
            label: m.label.clone(),
            leader,
            co_leaders,
            owner: m.owner,
            owner_epoch: m.owner_epoch,
        }
    }

    /// Group refs advertising this node (and co-leaders) as contacts of group `m`.
    /// Epidemic mode leads with ourselves — the `leader` field is an unmaintained
    /// hint there (see [`descriptor`](Self::descriptor)) and must not become the
    /// primary contact neighbors route through.
    pub(crate) fn own_refs(&self, m: &Membership) -> Vec<GroupRef> {
        let gref = |node: NodeId| GroupRef {
            label: m.label.clone(),
            node,
        };
        let mut v = if self.cfg.comm == CommKind::Epidemic {
            let mut v = vec![gref(self.id)];
            v.extend(self.backup_contacts(m).map(gref));
            v
        } else {
            vec![gref(if m.is_leader() { self.id } else { m.leader })]
        };
        for c in &m.co_leaders {
            v.push(gref(*c));
        }
        if !v.iter().any(|r| r.node == self.id) {
            v.push(gref(self.id));
        }
        v
    }

    /// The backup contacts an epidemic group advertises beside this node:
    /// up to two other members of `m`'s group it believes alive.
    fn backup_contacts<'a>(&'a self, m: &'a Membership) -> impl Iterator<Item = NodeId> + 'a {
        let live = move |n: &NodeId| *n != self.id && !self.suspects(*n);
        m.members.iter().copied().filter(live).take(2)
    }

    /// Whether we believe `node` dead (or cut off): see `suspected`.
    pub(crate) fn suspects(&self, node: NodeId) -> bool {
        self.suspected.contains(&node_key(node))
    }

    /// A contact of the tree of `attr`: ourselves when we are in it, else the
    /// cached one, if any.
    pub(crate) fn tree_contact(&self, attr: &AttrName) -> Option<NodeId> {
        let cached = || self.tree_cache.get(attr).map(|c| c.contact);
        self.in_tree(attr).then_some(self.id).or_else(cached)
    }

    /// The owner of the tree of `attr`, as far as this node knows: the claim with
    /// the highest epoch wins (ties broken toward the smaller node id).
    pub(crate) fn known_owner(&self, attr: &AttrName) -> Option<NodeId> {
        self.known_owner_claim(attr).map(|(o, _)| o)
    }

    /// The best `(owner, epoch)` claim this node holds for the tree of `attr`.
    pub(crate) fn known_owner_claim(&self, attr: &AttrName) -> Option<(NodeId, u64)> {
        let held = self
            .memberships_in(attr)
            .map(|i| (self.memberships[i].owner, self.memberships[i].owner_epoch));
        let cached = self
            .tree_cache
            .get(attr)
            .and_then(|c| c.owner.map(|o| (o, c.epoch)));
        // The first of equal claims stays (`claim_beats` is strict).
        held.chain(cached).reduce(|best, claim| {
            if claim_beats(claim, best) {
                claim
            } else {
                best
            }
        })
    }

    /// Records local receipt of a publication at step `now`: instrumentation
    /// plus the `Notify` upcall naming the subscriptions that match (§2).
    /// Returns `true` on first receipt.
    pub(crate) fn deliver_local(&mut self, id: PubId, event: &SharedEvent, now: Step) -> bool {
        if !self.seen_node.insert(pub_key(id)) {
            return false;
        }
        self.pubs_received += 1;
        self.sink.on_contact(id, self.id, now);
        self.subs
            .matching_into(event, &mut self.sub_scratch, &mut self.matched);
        if !self.matched.is_empty() {
            self.pubs_notified += 1;
            self.sink.on_notify(id, self.id, event, &self.matched, now);
        }
        true
    }

    /// The interned id of `label` for [`seen_route`](Self::seen_route) keys,
    /// assigned on first sight and kept for good: a group left and joined
    /// again dedups against what its first membership already routed. The id
    /// is node-local and never leaves this node.
    pub(crate) fn label_id(&mut self, label: &GroupLabel) -> u32 {
        if let Some(&id) = self.label_ids.get(label) {
            return id;
        }
        let id = self.label_ids.len() as u32;
        self.label_ids.insert(label.clone(), id);
        id
    }

    /// Takes membership `m` on — the one place a membership enters
    /// `memberships` — stamping it with its label's interned id. Returns its
    /// index.
    pub(crate) fn adopt(&mut self, mut m: Membership) -> usize {
        m.route_id = self.label_id(&m.label);
        self.memberships.push(m);
        self.memberships.len() - 1
    }

    /// Digest of the recently processed publications (for the anti-entropy
    /// exchange riding `ViewPush`: receivers answer only with events missing
    /// from the sender's digest).
    pub(crate) fn recent_digest(&self) -> Vec<PubId> {
        self.recent_pubs.iter().map(|(id, _, _)| *id).collect()
    }

    /// Remembers a publication this node processed, for post-repair
    /// re-flushes. Bounded: entries older than `REPUB_WINDOW` retire, and the
    /// buffer never exceeds [`RECENT_PUBS_CAP`].
    pub(crate) fn remember_pub(&mut self, id: PubId, event: &SharedEvent, now: Step) {
        while let Some((_, _, at)) = self.recent_pubs.front() {
            if now.saturating_sub(*at) > REPUB_WINDOW {
                self.recent_pubs.pop_front();
            } else {
                break;
            }
        }
        if self.recent_pubs.iter().any(|(i, _, _)| *i == id) {
            return;
        }
        if self.recent_pubs.len() >= RECENT_PUBS_CAP {
            self.recent_pubs.pop_front();
        }
        self.recent_pubs.push_back((id, event.clone(), now));
    }

    /// Creates a brand-new group membership led by us.
    pub(crate) fn new_led_membership(
        &mut self,
        sub_id: Option<SubId>,
        label: GroupLabel,
        owner: NodeId,
    ) -> usize {
        let mut m = Membership::new(sub_id, label, Role::Leader, self.id);
        m.owner = owner;
        m.leader = self.id;
        m.members = vec![self.id];
        self.adopt(m)
    }

    // ---- the hop rule (ARCHITECTURE.md "The hop rule") ----

    /// The off-tree relay: `hop` reached a node holding no membership in the
    /// tree of its attribute (`attr` reads it) — the sender's pointer or
    /// cache went stale — and goes on, wrapped by `wrap`, to this node's
    /// cached contact of that tree; it is dropped when there is none but
    /// ourselves, and the originator's retry covers it.
    pub(crate) fn relay_off_tree<T>(
        &self,
        hop: T,
        attr: impl FnOnce(&T) -> &AttrName,
        wrap: impl FnOnce(T) -> DpsMsg,
        ctx: &mut Context<'_, DpsMsg>,
    ) {
        if let Some(c) = self
            .tree_cache
            .get(attr(&hop))
            .filter(|c| c.contact != self.id)
        {
            ctx.send(c.contact, wrap(hop));
        }
    }

    /// The root entry (§4.1: a root-based traversal starts at the root): the
    /// owner of the tree of `attr` that a visit not yet past the root goes to.
    /// `None` when the owner is unknown, ourselves, or suspected — a suspected
    /// owner is as good as an unknown one: forwarding to it would kill the
    /// visit.
    pub(crate) fn root_entry(&self, attr: &AttrName) -> Option<NodeId> {
        let reachable = |o: &NodeId| *o != self.id && !self.suspects(*o);
        self.known_owner(attr).filter(reachable)
    }

    /// Whether membership `i` leaves the group's inter-group decisions to
    /// its leader: leader mode, and we do not lead the group.
    pub(crate) fn defers_to_leader(&self, i: usize) -> bool {
        self.cfg.comm == CommKind::Leader && !self.memberships[i].is_leader()
    }

    /// The leader deferral (§4.2.1: "an event received by a group ... is
    /// always redirected to the group leader"): when membership `i`
    /// [defers to its leader](Self::defers_to_leader), `hop` goes there
    /// wrapped by `wrap` — or is dropped when the leader we know is
    /// ourselves — and `None` comes back; otherwise `hop` comes back for
    /// this node to handle.
    pub(crate) fn defer_to_leader<T>(
        &self,
        i: usize,
        hop: T,
        wrap: impl FnOnce(T) -> DpsMsg,
        ctx: &mut Context<'_, DpsMsg>,
    ) -> Option<T> {
        if !self.defers_to_leader(i) {
            return Some(hop);
        }
        let leader = self.memberships[i].leader;
        if leader != self.id {
            ctx.send(leader, wrap(hop));
        }
        None
    }

    /// The climb (generic traversal): `hop`, at membership `i` that lies off
    /// its designated path, goes up to the nearest predecessor; an orphaned
    /// or self-parented membership drops it, and the originator's retry
    /// covers it.
    pub(crate) fn climb(&self, i: usize, hop: DpsMsg, ctx: &mut Context<'_, DpsMsg>) {
        let up = self.memberships[i].predview.first();
        if let Some(up) = up.filter(|up| up.node != self.id) {
            ctx.send(up.node, hop);
        }
    }
}

impl Process for DpsNode {
    type Msg = DpsMsg;

    fn on_start(&mut self, ctx: &mut Context<'_, DpsMsg>) {
        self.id = ctx.me();
    }

    fn on_message(&mut self, from: NodeId, msg: DpsMsg, ctx: &mut Context<'_, DpsMsg>) {
        // Hearing from a node proves it alive: retract any suspicion (suspicions
        // also arise heuristically, e.g. contacts that never acked a publication)
        // and settle any outstanding probe — crashed nodes cannot send, so this
        // never masks a real failure, and under link loss it stops chatty
        // neighbors from being condemned over one missing pong.
        let revived = self.suspected.remove(&node_key(from));
        if let Some(p) = self.probes.get_mut(&from) {
            p.outstanding = None;
            p.misses = 0;
        }
        // A suspect proving alive usually means a partition healed (crashed
        // nodes never speak again): owners immediately re-walk their trees
        // for duplicates instead of waiting out the owner-walk period — this
        // is what lets two healed sides start merging within a shuffle
        // period of the cut lifting. `start_walk` is a no-op while a walk for
        // the attribute is in flight: after a big heal, dozens of suspects
        // revive within a few steps, and each must not stack another walk.
        if revived {
            for attr in self.owned_attrs() {
                self.start_walk(attr, ctx);
            }
        }
        match msg {
            // Bootstrap.
            DpsMsg::Shuffle { peers } => self.handle_shuffle(from, peers, ctx),
            DpsMsg::ShuffleReply { peers } => self.merge_peers(&peers),
            DpsMsg::FindTree { attr, origin, ttl } => self.handle_find_tree(attr, origin, ttl, ctx),
            DpsMsg::TreeFound {
                attr,
                contact,
                owner,
                epoch,
            } => self.handle_tree_found(attr, contact, owner, epoch, ctx),
            DpsMsg::TreeNotFound { attr } => self.handle_tree_not_found(attr),
            DpsMsg::OwnerAnnounce { attr, owner, epoch } => {
                self.handle_owner_announce(attr, owner, epoch, ctx)
            }
            DpsMsg::DissolveTree {
                attr,
                contact,
                new_owner,
                epoch,
            } => self.handle_dissolve(attr, contact, new_owner, epoch, ctx),

            // Subscription.
            DpsMsg::FindGroup(t) => self.handle_find_group(t, ctx),
            DpsMsg::SubscribeTo { ticket, group } => self.handle_subscribe_to(ticket, group, ctx),
            DpsMsg::CreateGroup {
                ticket,
                parent,
                adopted,
            } => self.handle_create_group(ticket, parent, adopted, ctx),
            DpsMsg::JoinGroup {
                sub_id,
                label,
                member,
            } => self.handle_join_group(sub_id, label, member, ctx),
            DpsMsg::JoinAck {
                sub_id,
                group,
                co_leader,
                members,
                predview,
                succviews,
            } => self.handle_join_ack(sub_id, group, co_leader, members, predview, succviews, ctx),
            DpsMsg::CreateDone {
                parent_label,
                child,
            } => self.handle_create_done(parent_label, child, ctx),
            DpsMsg::NewParent {
                child_label,
                parent,
                parent_chain,
            } => self.handle_new_parent(child_label, parent, parent_chain),
            DpsMsg::GossipSub {
                label,
                members,
                branches,
                hops,
            } => self.handle_gossip_sub(label, members, branches, hops, ctx),

            // Publication.
            DpsMsg::Publish(t) => self.handle_publish(t, ctx),
            DpsMsg::PubAck { id, attr } => self.handle_pub_ack(id, attr),
            DpsMsg::PublishGroup { id, event, label } => {
                self.handle_publish_group(from, id, event, label, ctx)
            }

            // Management & healing.
            DpsMsg::Ping => ctx.send(from, DpsMsg::Pong),
            DpsMsg::Pong => {} // settled above, as every message is
            DpsMsg::GroupInfo {
                label,
                leader,
                co_leaders,
                owner,
                owner_epoch,
            } => self.handle_group_info(label, leader, co_leaders, owner, owner_epoch, ctx),
            DpsMsg::MemberJoined { label, member } => {
                if let Some(m) = self.membership_mut(&label) {
                    m.add_member(member);
                }
            }
            DpsMsg::LeaderGone { label, dead } => self.handle_leader_gone(label, dead, ctx),
            DpsMsg::ParentChain { child_label, chain } => {
                if let Some(m) = self.membership_mut(&child_label) {
                    m.set_predview(chain, PREDVIEW_CAP);
                }
            }
            DpsMsg::ChildReport {
                parent_label,
                branch,
            } => self.handle_child_report(parent_label, branch, ctx),
            DpsMsg::Reattach { branch, ttl } => self.handle_reattach(from, branch, ttl, ctx),
            DpsMsg::Leave { label, member } => self.handle_leave(from, label, member, ctx),
            DpsMsg::ViewPull { label } => self.handle_view_pull(from, label, ctx),
            // A cohort's hand-over from anyone but our leader goes on to the
            // leader unchanged (the hop rule's leader deferral): a chained
            // yield must reach the leader that finally won.
            DpsMsg::ViewPush { ref label, .. }
                if self.membership_index(label).is_some_and(|i| {
                    self.memberships[i].leader != from && self.defers_to_leader(i)
                }) =>
            {
                if let Some(i) = self.membership_index(label) {
                    self.defer_to_leader(i, msg, |push| push, ctx);
                }
            }
            DpsMsg::ViewPush {
                label,
                members,
                predview,
                branches,
                recent,
            } => self.handle_view_push(from, label, members, predview, branches, recent, ctx),
        }
    }

    fn on_tick(&mut self, ctx: &mut Context<'_, DpsMsg>) {
        self.tick_probes(ctx);
        self.tick_pending(ctx);
        self.tick_gossip(ctx);
        self.tick_periodic(ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn label(s: &str) -> GroupLabel {
        GroupLabel::from(s.parse::<dps_content::Predicate>().unwrap())
    }

    /// Route dedup is keyed by `(PubId, interned label id)`: interning is
    /// stable (same label → same id), dense from zero, and never allocates
    /// past first sight — so the per-hop dedup check clones no `Label`.
    #[test]
    fn route_dedup_uses_interned_label_ids() {
        let mut node = DpsNode::new(DpsConfig::default());
        let a = label("a > 2");
        let b = label("b = 1");
        let root = GroupLabel::Root("a".into());

        // Dense, first-sight assignment; repeat lookups are stable.
        assert_eq!(node.label_id(&a), 0);
        assert_eq!(node.label_id(&b), 1);
        assert_eq!(node.label_id(&a), 0);
        assert_eq!(node.label_id(&root), 2);
        assert_eq!(node.label_ids.len(), 3);

        // The dedup cache distinguishes routes by (publication, label id):
        // a second arrival of the same publication on the same group is a
        // duplicate, while the same publication on a sibling group is not.
        let id = PubId(NodeId::from_index(7), 0);
        let lid_a = node.label_id(&a);
        let lid_b = node.label_id(&b);
        assert!(node.seen_route.insert(route_key(id, lid_a)));
        assert!(!node.seen_route.insert(route_key(id, lid_a)));
        assert!(node.seen_route.insert(route_key(id, lid_b)));

        // A structurally equal label parsed afresh interns to the same id —
        // the property that makes the u32 a faithful stand-in for the label.
        assert_eq!(node.label_id(&label("a > 2")), lid_a);

        // A membership carries its label's id from the moment it is taken
        // on, and a group left and joined again gets the id it had: what the
        // first membership routed stays deduplicated.
        let me = node.id;
        let i = node.adopt(Membership::new(None, b.clone(), Role::Member, me));
        assert_eq!(node.memberships[i].route_id, lid_b);
        node.memberships.remove(i);
        let fresh = label("c < 3");
        node.adopt(Membership::new(None, fresh, Role::Member, me));
        let i = node.adopt(Membership::new(None, b, Role::Member, me));
        assert_eq!(node.memberships[i].route_id, lid_b);
        assert_eq!(node.memberships[i - 1].route_id, 3);
    }
}
