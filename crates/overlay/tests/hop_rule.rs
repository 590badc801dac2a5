//! The hop rule (ARCHITECTURE.md "The hop rule"), the leave rule and the
//! rules for two leaders of one label ("Who says who owns and who leads"),
//! one decision at a time: one protocol node among peers that only record
//! what reaches them, driven by hand-built messages, so each test sees
//! exactly the sends one hop makes.

use dps_content::{Event, Filter, Predicate, SharedEvent};
use dps_overlay::config::{VIEW_EXCHANGE_EVERY, WALK_TTL};
use dps_overlay::{
    BranchInfo, CommKind, DpsConfig, DpsMsg, DpsNode, GroupDescriptor, GroupLabel, GroupRef, PubId,
    PubTicket, SubId, Ticket, TraversalKind,
};
use dps_sim::{Context, NodeId, Process, Sim};

/// The node under test, or a peer that records what it receives. Neither
/// ticks on its own: every send a test sees comes from the handler it
/// drove, or from the one tick [`Bench::exchange`] runs.
enum Peer {
    Node(Box<DpsNode>),
    Recorder(Vec<DpsMsg>),
}

impl Process for Peer {
    type Msg = DpsMsg;

    fn on_start(&mut self, ctx: &mut Context<'_, DpsMsg>) {
        if let Peer::Node(n) = self {
            n.on_start(ctx);
        }
    }

    fn on_message(&mut self, from: NodeId, msg: DpsMsg, ctx: &mut Context<'_, DpsMsg>) {
        match self {
            Peer::Node(n) => n.on_message(from, msg, ctx),
            Peer::Recorder(log) => log.push(msg),
        }
    }
}

/// One node (`node`) and five recorders (`peers`).
struct Bench {
    sim: Sim<Peer>,
    node: NodeId,
    peers: Vec<NodeId>,
}

impl Bench {
    /// Root traversal, leader mode: the configuration with every rule.
    fn new() -> Bench {
        let mut sim = Sim::new(1);
        let cfg = DpsConfig::named(TraversalKind::Root, CommKind::Leader);
        let node = sim.add_node(Peer::Node(Box::new(DpsNode::new(cfg))));
        let peers = (0..5)
            .map(|_| sim.add_node(Peer::Recorder(Vec::new())))
            .collect();
        Bench { sim, node, peers }
    }

    /// Runs `f` on the node under test within the current step.
    fn with_node(&mut self, f: impl FnOnce(&mut DpsNode, &mut Context<'_, DpsMsg>)) {
        self.sim.invoke(self.node, |p, ctx| match p {
            Peer::Node(n) => f(n, ctx),
            Peer::Recorder(_) => unreachable!("the node under test records nothing"),
        });
    }

    fn node(&self) -> &DpsNode {
        match self.sim.node(self.node) {
            Some(Peer::Node(n)) => n,
            _ => unreachable!("the node under test is a node"),
        }
    }

    /// Hands `msg` to the node under test as if `from` had sent it, and
    /// returns what the recorders received from it, as `(recipient, msg)`.
    fn deliver(&mut self, from: NodeId, msg: DpsMsg) -> Vec<(NodeId, DpsMsg)> {
        self.with_node(|n, ctx| n.on_message(from, msg, ctx));
        self.drain()
    }

    /// Runs the node's tick at the next step of the periodic view exchange
    /// and returns what the recorders received from it.
    fn exchange(&mut self) -> Vec<(NodeId, DpsMsg)> {
        let phase = self.node.index() as u64;
        while !(self.sim.now() + phase).is_multiple_of(VIEW_EXCHANGE_EVERY) {
            self.sim.step();
        }
        self.with_node(|n, ctx| n.on_tick(ctx));
        self.drain()
    }

    /// Steps once and returns what the recorders received, as
    /// `(recipient, msg)`.
    fn drain(&mut self) -> Vec<(NodeId, DpsMsg)> {
        self.sim.step();
        let mut sent = Vec::new();
        for &p in &self.peers {
            if let Some(Peer::Recorder(log)) = self.sim.node_mut(p) {
                sent.extend(log.drain(..).map(|m| (p, m)));
            }
        }
        sent
    }

    /// Makes the node a plain member of group `label` led by `leader`, in a
    /// tree owned by `owner`: a pending subscription answered by a `JoinAck`.
    fn join(&mut self, label: &str, leader: NodeId, owner: NodeId) {
        self.join_knowing(label, leader, owner, Vec::new(), Vec::new());
    }

    /// As [`join`](Self::join), with `co_leaders` as the group's co-leaders
    /// (also known as members) and `predview` as the node's predview.
    fn join_knowing(
        &mut self,
        label: &str,
        leader: NodeId,
        owner: NodeId,
        co_leaders: Vec<NodeId>,
        predview: Vec<GroupRef>,
    ) {
        let filter: Filter = label.parse().unwrap();
        self.with_node(|n, ctx| {
            n.subscribe(filter, ctx);
        });
        let members = std::iter::once(leader).chain(co_leaders.iter().copied());
        let ack = DpsMsg::JoinAck {
            sub_id: SubId(self.node, 0),
            members: members.collect(),
            group: GroupDescriptor {
                label: pred_label(label),
                leader,
                co_leaders,
                owner,
                owner_epoch: 0,
            },
            co_leader: false,
            predview,
            succviews: Vec::new(),
        };
        assert_eq!(self.deliver(leader, ack), []);
        assert_eq!(self.node().memberships().len(), 1);
    }

    /// Makes the node the leader of group `label`, which it creates below
    /// the root held by `parent`: a pending subscription answered by a
    /// `CreateGroup`.
    fn lead(&mut self, label: &str, parent: NodeId) {
        let filter: Filter = label.parse().unwrap();
        self.with_node(|n, ctx| {
            n.subscribe(filter, ctx);
        });
        let create = DpsMsg::CreateGroup {
            ticket: find_group(self.node, label, TraversalKind::Root, true),
            parent: GroupDescriptor {
                label: GroupLabel::Root("a".into()),
                leader: parent,
                co_leaders: Vec::new(),
                owner: parent,
                owner_epoch: 0,
            },
            adopted: Vec::new(),
        };
        self.deliver(parent, create);
    }

    /// Makes the node believe `suspect` dead: a `LeaderGone` naming it, for a
    /// group the node is not in, from a peer other than `suspect`.
    fn suspect(&mut self, suspect: NodeId, via: NodeId) {
        let alarm = DpsMsg::LeaderGone {
            label: pred_label("z > 0"),
            dead: suspect,
        };
        assert_eq!(self.deliver(via, alarm), []);
    }
}

fn pred(s: &str) -> Predicate {
    s.parse().unwrap()
}

fn pred_label(s: &str) -> GroupLabel {
    GroupLabel::Pred(pred(s))
}

fn find_group(origin: NodeId, p: &str, mode: TraversalKind, descending: bool) -> Ticket {
    Ticket {
        origin,
        sub_id: SubId(origin, 0),
        pred: pred(p),
        mode,
        descending,
        ttl: 10,
    }
}

fn publication(origin: NodeId, event: &str, target: Option<&str>) -> PubTicket {
    let event: Event = event.parse().unwrap();
    PubTicket {
        id: PubId(origin, 0),
        event: SharedEvent::new(event),
        attr: "a".into(),
        mode: TraversalKind::Root,
        target: target.map(pred_label),
        from_child: None,
        downstream: true,
        ack_to: None,
        ttl: 10,
    }
}

fn branch(label: &str, node: NodeId) -> BranchInfo {
    let label = pred_label(label);
    let refs = vec![GroupRef {
        label: label.clone(),
        node,
    }];
    BranchInfo { label, refs }
}

#[test]
fn a_node_outside_the_tree_relays_to_its_cached_contact() {
    let mut b = Bench::new();
    let [contact, owner, from, ..] = b.peers[..] else {
        unreachable!()
    };
    let found = DpsMsg::TreeFound {
        attr: "a".into(),
        contact,
        owner: Some(owner),
        epoch: 0,
    };
    assert_eq!(b.deliver(from, found), []);

    // Each tree-travelling message goes on to the contact, one hop spent.
    let t = find_group(from, "a > 3", TraversalKind::Root, false);
    let relayed = Ticket {
        ttl: 9,
        ..t.clone()
    };
    assert_eq!(
        b.deliver(from, DpsMsg::FindGroup(t)),
        [(contact, DpsMsg::FindGroup(relayed))]
    );
    let p = publication(from, "a = 7", None);
    let relayed = PubTicket {
        ttl: 9,
        ..p.clone()
    };
    assert_eq!(
        b.deliver(from, DpsMsg::Publish(p)),
        [(contact, DpsMsg::Publish(relayed))]
    );
    let orphan = branch("a > 3", from);
    let sent = b.deliver(
        from,
        DpsMsg::Reattach {
            branch: orphan.clone(),
            ttl: 5,
        },
    );
    assert_eq!(
        sent,
        [(
            contact,
            DpsMsg::Reattach {
                branch: orphan,
                ttl: 4
            }
        )]
    );
}

#[test]
fn a_node_outside_the_tree_without_a_contact_drops_the_hop() {
    let mut b = Bench::new();
    let from = b.peers[0];
    let t = find_group(from, "a > 3", TraversalKind::Root, false);
    assert_eq!(b.deliver(from, DpsMsg::FindGroup(t.clone())), []);

    // A cached contact naming the node itself is no contact either.
    let me = b.node;
    let found = DpsMsg::TreeFound {
        attr: "a".into(),
        contact: me,
        owner: Some(me),
        epoch: 0,
    };
    assert_eq!(b.deliver(from, found), []);
    assert_eq!(b.deliver(from, DpsMsg::FindGroup(t)), []);
    let p = publication(from, "a = 7", None);
    assert_eq!(b.deliver(from, DpsMsg::Publish(p)), []);
}

#[test]
fn a_root_mode_entry_hop_goes_to_an_unsuspected_owner() {
    let mut b = Bench::new();
    let [leader, owner, from, other, ..] = b.peers[..] else {
        unreachable!()
    };
    b.join("a > 1", leader, owner);

    let t = find_group(from, "a > 5", TraversalKind::Root, false);
    assert_eq!(
        b.deliver(from, DpsMsg::FindGroup(t.clone())),
        [(
            owner,
            DpsMsg::FindGroup(Ticket {
                ttl: 9,
                ..t.clone()
            })
        )]
    );
    let p = publication(from, "a = 7", None);
    let entered = PubTicket {
        ttl: 9,
        ..p.clone()
    };
    assert_eq!(
        b.deliver(from, DpsMsg::Publish(p)),
        [(owner, DpsMsg::Publish(entered))]
    );

    // A suspected owner is as good as an unknown one: the visit goes on
    // here, to the next rule (the leader deferral).
    b.suspect(owner, other);
    let sent = b.deliver(from, DpsMsg::FindGroup(t.clone()));
    assert_eq!(sent, [(leader, DpsMsg::FindGroup(Ticket { ttl: 9, ..t }))]);
}

#[test]
fn a_root_mode_entry_hop_at_the_owner_itself_goes_on_here() {
    let mut b = Bench::new();
    let [leader, from, ..] = b.peers[..] else {
        unreachable!()
    };
    let me = b.node;
    b.join("a > 1", leader, me);
    let t = find_group(from, "a > 5", TraversalKind::Root, false);
    let sent = b.deliver(from, DpsMsg::FindGroup(t.clone()));
    assert_eq!(sent, [(leader, DpsMsg::FindGroup(Ticket { ttl: 9, ..t }))]);
}

#[test]
fn a_leader_mode_non_leader_defers_to_its_leader() {
    let mut b = Bench::new();
    let [leader, from, joiner, ..] = b.peers[..] else {
        unreachable!()
    };
    // The node claims the tree itself, so no hop below is a root entry.
    let me = b.node;
    b.join("a > 1", leader, me);

    let t = find_group(from, "a > 5", TraversalKind::Root, true);
    let sent = b.deliver(from, DpsMsg::FindGroup(t.clone()));
    assert_eq!(sent, [(leader, DpsMsg::FindGroup(Ticket { ttl: 9, ..t }))]);

    // A publication is addressed to the group it was received in.
    let p = publication(from, "a = 7", None);
    let deferred = PubTicket {
        ttl: 9,
        target: Some(pred_label("a > 1")),
        ..p.clone()
    };
    assert_eq!(
        b.deliver(from, DpsMsg::Publish(p)),
        [(leader, DpsMsg::Publish(deferred))]
    );

    let join = DpsMsg::JoinGroup {
        sub_id: SubId(joiner, 0),
        label: pred_label("a > 1"),
        member: joiner,
    };
    assert_eq!(b.deliver(joiner, join.clone()), [(leader, join)]);

    let orphan = branch("a > 3", from);
    let sent = b.deliver(
        from,
        DpsMsg::Reattach {
            branch: orphan.clone(),
            ttl: 5,
        },
    );
    assert_eq!(
        sent,
        [(
            leader,
            DpsMsg::Reattach {
                branch: orphan,
                ttl: 4
            }
        )]
    );
}

#[test]
fn a_leader_mode_non_leader_whose_leader_is_itself_stops() {
    let mut b = Bench::new();
    let from = b.peers[0];
    let me = b.node;
    b.join("a > 1", me, me);
    assert!(!b.node().memberships()[0].is_leader());

    let t = find_group(from, "a > 5", TraversalKind::Root, true);
    assert_eq!(b.deliver(from, DpsMsg::FindGroup(t)), []);
    let p = publication(from, "a = 7", Some("a > 1"));
    assert_eq!(b.deliver(from, DpsMsg::Publish(p)), []);
}

/// Leaves the node leading `a > 1` under the root (held by `parent`), with
/// a blocked branch `a > 5` (being created by `creator`) holding one
/// withheld publication, and a branch `a > 3` (reached at `via`) that lies
/// on `a > 5`'s designated path: what a child report or `CreateDone` for
/// `a > 5` meets when `a > 3` was created while it was in flight.
fn reroute_setup(b: &mut Bench, parent: NodeId, creator: NodeId, via: NodeId) -> PubId {
    b.lead("a > 1", parent);
    let t = find_group(creator, "a > 5", TraversalKind::Root, true);
    let sent = b.deliver(creator, DpsMsg::FindGroup(t));
    assert!(matches!(sent[..], [(to, DpsMsg::CreateGroup { .. })] if to == creator));
    let p = publication(parent, "a = 7", Some("a > 1"));
    let id = p.id;
    assert_eq!(b.deliver(parent, DpsMsg::Publish(p)), []);
    let report = DpsMsg::ChildReport {
        parent_label: pred_label("a > 1"),
        branch: branch("a > 3", via),
    };
    b.deliver(via, report);

    let group = &b.node().memberships()[0];
    let blocked = group.branch(&pred_label("a > 5")).unwrap();
    assert!(blocked.blocked);
    assert_eq!(blocked.buffered.len(), 1, "the publication is withheld");
    assert!(group.branch(&pred_label("a > 3")).is_some());
    id
}

/// What the C2 re-route of `a > 5` must send: the withheld publication
/// straight to the branch, and the branch down to `a > 3`.
fn assert_rerouted(b: &Bench, sent: &[(NodeId, DpsMsg)], id: PubId, creator: NodeId, via: NodeId) {
    let a5 = pred_label("a > 5");
    assert_eq!(sent.len(), 2, "{sent:?}");
    assert!(sent.iter().any(|(to, m)| *to == creator
        && matches!(m, DpsMsg::Publish(t) if t.id == id && t.target.as_ref() == Some(&a5))));
    assert!(sent
        .iter()
        .any(|(to, m)| *to == via
            && matches!(m, DpsMsg::Reattach { branch, .. } if branch.label == a5)));
    assert!(b.node().memberships()[0].branch(&a5).is_none());
}

#[test]
fn a_child_report_across_a_deeper_branch_is_rerouted_down() {
    let mut b = Bench::new();
    let [parent, creator, via, ..] = b.peers[..] else {
        unreachable!()
    };
    let id = reroute_setup(&mut b, parent, creator, via);
    let report = DpsMsg::ChildReport {
        parent_label: pred_label("a > 1"),
        branch: branch("a > 5", creator),
    };
    let sent = b.deliver(creator, report);
    assert_rerouted(&b, &sent, id, creator, via);
}

#[test]
fn a_create_done_across_a_deeper_branch_is_rerouted_down() {
    let mut b = Bench::new();
    let [parent, creator, via, ..] = b.peers[..] else {
        unreachable!()
    };
    let id = reroute_setup(&mut b, parent, creator, via);
    let done = DpsMsg::CreateDone {
        parent_label: pred_label("a > 1"),
        child: branch("a > 5", creator),
    };
    let sent = b.deliver(creator, done);
    assert_rerouted(&b, &sent, id, creator, via);
}

/// A `Leave` for group `a > 5` from `member`.
fn leave(member: NodeId) -> DpsMsg {
    DpsMsg::Leave {
        label: pred_label("a > 5"),
        member,
    }
}

#[test]
fn a_member_drops_a_leaver_from_its_group_and_keeps_it_elsewhere() {
    let mut b = Bench::new();
    let [leader, x, ..] = b.peers[..] else {
        unreachable!()
    };
    // `x` co-leads `a > 5` and also holds the root above it, as a leader
    // who owns the tree does.
    let root = GroupRef {
        label: GroupLabel::Root("a".into()),
        node: x,
    };
    b.join_knowing("a > 5", leader, x, vec![x], vec![root.clone()]);
    let group = &b.node().memberships()[0];
    assert!(group.members.contains(&x) && group.co_leaders == [x]);

    assert_eq!(b.deliver(x, leave(x)), []);
    let group = &b.node().memberships()[0];
    assert!(!group.members.contains(&x));
    assert!(group.co_leaders.is_empty());
    assert_eq!(group.predview, [root], "x still holds the root above");
}

#[test]
fn a_leader_relays_a_leave_to_each_co_leader() {
    let mut b = Bench::new();
    let [parent, x, c, y, ..] = b.peers[..] else {
        unreachable!()
    };
    // The node creates and leads `a > 5`; `x` and then `c` join it as its
    // two co-leaders, `y` as a plain member.
    b.lead("a > 5", parent);
    for joiner in [x, c, y] {
        let join = DpsMsg::JoinGroup {
            sub_id: SubId(joiner, 0),
            label: pred_label("a > 5"),
            member: joiner,
        };
        b.deliver(joiner, join);
    }
    let group = &b.node().memberships()[0];
    assert!(group.is_leader());
    assert_eq!(group.co_leaders, [x, c]);

    // The leaver's own `Leave` goes on, unchanged, to the co-leader left;
    // then `y` is recruited in `x`'s place.
    assert_eq!(b.deliver(x, leave(x)), [(c, leave(x))]);
    let group = &b.node().memberships()[0];
    assert_eq!(group.co_leaders, [c, y]);
    assert!(!group.members.contains(&x));

    // A `Leave` heard from anyone but the leaver is a relay (a co-leader
    // that also believes it leads, in a promotion race): it goes no
    // further, or the two leaders would bounce it for ever.
    assert_eq!(b.deliver(c, leave(y)), []);
    assert_eq!(b.node().memberships()[0].co_leaders, [c]);
}

// ---- when two leaders of one label meet (ARCHITECTURE.md "Who says who
// owns and who leads") ----

/// A `ChildReport` to group `a > 1` for `child`.
fn report(child: BranchInfo) -> DpsMsg {
    DpsMsg::ChildReport {
        parent_label: pred_label("a > 1"),
        branch: child,
    }
}

/// A `ViewPush` of group `a > 1` naming `members`.
fn view_push(members: Vec<NodeId>) -> DpsMsg {
    DpsMsg::ViewPush {
        label: pred_label("a > 1"),
        members,
        predview: Vec::new(),
        branches: Vec::new(),
        recent: Vec::new(),
    }
}

#[test]
fn a_child_report_at_a_non_leader_goes_to_its_leader() {
    let mut b = Bench::new();
    let [leader, child, ..] = b.peers[..] else {
        unreachable!()
    };
    let me = b.node;
    b.join("a > 1", leader, me);
    let r = report(branch("a > 3", child));
    assert_eq!(b.deliver(child, r.clone()), [(leader, r)]);
    let group = &b.node().memberships()[0];
    assert!(group.branch(&pred_label("a > 3")).is_none());
}

#[test]
fn a_cohorts_hand_over_at_a_non_leader_goes_on_to_its_leader() {
    let mut b = Bench::new();
    let [leader, loser, x, ..] = b.peers[..] else {
        unreachable!()
    };
    let me = b.node;
    b.join("a > 1", leader, me);
    // `loser` yielded to us before we yielded to `leader`: its cohort must
    // reach the leader that finally won, unchanged.
    let push = view_push(vec![loser, x]);
    assert_eq!(b.deliver(loser, push.clone()), [(leader, push)]);
    assert!(!b.node().memberships()[0].members.contains(&x));
}

#[test]
fn the_leaders_own_mirror_is_absorbed() {
    let mut b = Bench::new();
    let [leader, x, ..] = b.peers[..] else {
        unreachable!()
    };
    let me = b.node;
    b.join("a > 1", leader, me);
    assert_eq!(b.deliver(leader, view_push(vec![leader, x])), []);
    assert!(b.node().memberships()[0].members.contains(&x));
}

#[test]
fn a_parent_introduces_a_second_leader_of_one_label_to_the_first() {
    let mut b = Bench::new();
    let [parent, x, y, ..] = b.peers[..] else {
        unreachable!()
    };
    b.lead("a > 1", parent);
    assert_eq!(b.deliver(x, report(branch("a > 3", x))), []);
    // `y` also leads `a > 3`: the parent hands its branch to `x`, whose
    // node answers both leaders with who leads there.
    let second = branch("a > 3", y);
    let intro = DpsMsg::Reattach {
        branch: second.clone(),
        ttl: WALK_TTL,
    };
    assert_eq!(b.deliver(y, report(second)), [(x, intro)]);
}

#[test]
fn a_parent_hearing_the_same_leader_again_sends_nothing() {
    let mut b = Bench::new();
    let [parent, x, z, ..] = b.peers[..] else {
        unreachable!()
    };
    b.lead("a > 1", parent);
    assert_eq!(b.deliver(x, report(branch("a > 3", x))), []);
    let mut again = branch("a > 3", x);
    again.refs.push(GroupRef {
        label: pred_label("a > 3"),
        node: z,
    });
    assert_eq!(b.deliver(x, report(again)), []);
    let kept = b.node().memberships()[0].branch(&pred_label("a > 3"));
    assert_eq!(kept.map(|k| k.refs.len()), Some(2));
}

#[test]
fn a_reattach_off_its_designated_path_climbs() {
    let mut b = Bench::new();
    let [parent, from, ..] = b.peers[..] else {
        unreachable!()
    };
    // `a < 5` does not lie on the path to `a > 3`: the orphan goes up, as
    // a `FindGroup` would.
    b.lead("a < 5", parent);
    let orphan = branch("a > 3", from);
    let climbed = DpsMsg::Reattach {
        branch: orphan.clone(),
        ttl: 4,
    };
    let sent = b.deliver(
        from,
        DpsMsg::Reattach {
            branch: orphan,
            ttl: 5,
        },
    );
    assert_eq!(sent, [(parent, climbed)]);
}

#[test]
fn a_member_tells_the_parent_that_its_leader_leads_the_reattached_branch() {
    let mut b = Bench::new();
    let [leader, owner, parent, y, ..] = b.peers[..] else {
        unreachable!()
    };
    b.join("a > 5", leader, owner);
    let info = DpsMsg::GroupInfo {
        label: pred_label("a > 5"),
        leader,
        co_leaders: Vec::new(),
        owner,
        owner_epoch: 0,
    };
    let reattach = |node| DpsMsg::Reattach {
        branch: branch("a > 5", node),
        ttl: 5,
    };
    // Our leader leads the branch too: the parent's pointer to us is stale.
    let sent = b.deliver(parent, reattach(leader));
    assert_eq!(sent, [(leader, info.clone()), (parent, info.clone())]);
    // A second leader `y`: only `y` hears who leads here.
    assert_eq!(b.deliver(parent, reattach(y)), [(y, info)]);
}

#[test]
fn an_orphan_under_its_own_nodes_group_grafts_and_reports_locally() {
    let mut b = Bench::new();
    let [parent, contact, winner, deeper, ..] = b.peers[..] else {
        unreachable!()
    };
    let me = b.node;
    b.lead("a > 1", parent);
    b.lead("a > 5", parent);
    // A better tree claim dissolves ours: both groups are orphans, and
    // `a > 5`'s designated parent is our own `a > 1`.
    let dissolve = DpsMsg::DissolveTree {
        attr: "a".into(),
        contact,
        new_owner: winner,
        epoch: 1,
    };
    let sent = b.deliver(contact, dissolve);
    assert!(
        sent.iter().all(|(_, m)| !matches!(m,
            DpsMsg::Reattach { branch, .. } if branch.label == pred_label("a > 5"))),
        "{sent:?}"
    );
    assert!(sent.iter().any(|(to, m)| *to == winner
        && matches!(m, DpsMsg::Reattach { branch, .. } if branch.label == pred_label("a > 1"))));
    let groups = b.node().memberships();
    assert!(groups[0].branch(&pred_label("a > 5")).is_some());
    let up = groups[1].predview.first();
    assert_eq!(
        up,
        Some(&GroupRef {
            label: pred_label("a > 1"),
            node: me
        })
    );

    // A deeper group `a > 3` hangs below `a > 1` now. Our `a > 5` reports
    // to its parent on this node in place, and the C2 re-route moves it
    // down to `a > 3`.
    assert_eq!(b.deliver(deeper, report(branch("a > 3", deeper))), []);
    let sent = b.exchange();
    assert!(
        sent.iter().any(|(to, m)| *to == deeper
            && matches!(m, DpsMsg::Reattach { branch, .. } if branch.label == pred_label("a > 5"))),
        "{sent:?}"
    );
    assert!(b.node().memberships()[0]
        .branch(&pred_label("a > 5"))
        .is_none());
}
