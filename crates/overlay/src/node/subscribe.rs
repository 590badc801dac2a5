//! The subscription side of §4.1: the `FIND_GROUP` traversal and the
//! `SUBSCRIBE_TO` / `CREATE_GROUP` primitives, plus join/ack handling and the
//! retry machinery for pending subscriptions.

use dps_content::{Predicate, SharedFilter};
use dps_sim::{Context, NodeId};
use rand::seq::IteratorRandom;
use rand::Rng;

use crate::config::{
    CommKind, TraversalKind, CO_LEADERS, FIND_TREE_RETRIES, GOSSIP_P0, GROUP_VIEW_CAP,
    PREDVIEW_CAP, REQUEST_TIMEOUT, SUB_GOSSIP_FANOUT, TRAVERSAL_TIMEOUT, VIEW_DEPTH, WALK_TTL,
};
use crate::label::GroupLabel;
use crate::msg::{BranchInfo, DpsMsg, GroupDescriptor, GroupRef, SubId, Ticket};
use crate::node::{group_info, node_key, DpsNode, PendingSub, SubPhase};
use crate::views::{Branch, Membership, Role};

/// Maximum subscription retries before the node concludes no tree exists and
/// creates one itself.
const MAX_SUB_RETRIES: u32 = 8;

impl DpsNode {
    /// Issues a subscription, joining the overlay with the filter's first
    /// predicate. Drivers that choose the predicate (`dps::Overlay` under
    /// [`JoinRule::Explicit`](crate::JoinRule::Explicit)) call
    /// [`subscribe_with`](Self::subscribe_with).
    ///
    /// # Panics
    ///
    /// Panics if the filter has no predicates (a match-all filter cannot be
    /// placed in any attribute tree).
    pub fn subscribe(
        &mut self,
        filter: impl Into<SharedFilter>,
        ctx: &mut Context<'_, DpsMsg>,
    ) -> SubId {
        self.subscribe_with(filter, 0, ctx)
    }

    /// Issues a subscription joining via the predicate at `join_idx` (the paper:
    /// the attribute "can be arbitrarily chosen without affecting correctness").
    ///
    /// # Panics
    ///
    /// Panics if `join_idx` is out of range of the filter's predicates.
    pub fn subscribe_with(
        &mut self,
        filter: impl Into<SharedFilter>,
        join_idx: usize,
        ctx: &mut Context<'_, DpsMsg>,
    ) -> SubId {
        let filter = filter.into();
        let pred = filter.predicates()[join_idx].clone();
        let sub_id = SubId(self.id, self.next_sub);
        self.next_sub += 1;
        self.subs.insert(sub_id, filter);
        self.enqueue_subscription(sub_id, pred, ctx);
        sub_id
    }

    /// Cancels a subscription; if this empties the membership serving it, the
    /// node leaves the group (leaders hand over to a co-leader first).
    pub fn unsubscribe(&mut self, sub_id: SubId, ctx: &mut Context<'_, DpsMsg>) {
        self.subs.remove(sub_id);
        self.pending_subs.retain(|p| p.sub_id != sub_id);
        let Some(i) = self
            .memberships
            .iter()
            .position(|m| m.sub_ids.contains(&sub_id))
        else {
            return;
        };
        self.memberships[i].sub_ids.retain(|s| *s != sub_id);
        if !self.memberships[i].sub_ids.is_empty() || self.memberships[i].label.is_root() {
            return;
        }
        let mut m = self.memberships.remove(i);
        // Leaving: scrub ourselves from the group state we hand over (but not from
        // the pred/succ views — we may legitimately appear there in other roles,
        // e.g. as the owner of the parent root).
        let me = self.id;
        m.members.retain(|n| *n != me);
        m.co_leaders.retain(|n| *n != me);
        let label = m.label.clone();
        if m.is_leader() {
            // Hand over to the first co-leader; otherwise the group dissolves and
            // neighbors clean up through failure detection.
            if let Some(&heir) = m.co_leaders.first() {
                // The heir leads from now on; the other co-leaders stay.
                m.co_leaders.retain(|c| *c != heir);
                let info = group_info(&m, heir);
                for peer in m
                    .members
                    .iter()
                    .copied()
                    .chain(m.predview.iter().map(|r| r.node))
                    .chain(m.branches.iter().filter_map(|b| b.primary()))
                {
                    if peer != self.id {
                        ctx.send(peer, info.clone());
                    }
                }
                // The heir also needs our branch and parent state, and must drop
                // us from its membership view.
                ctx.send(heir, m.view_push(self.recent_digest()));
                ctx.send(
                    heir,
                    DpsMsg::Leave {
                        label: label.clone(),
                        member: self.id,
                    },
                );
                // We may ourselves hold neighbor views of the group we just left
                // (e.g. a branch in the parent root we own): refresh them too.
                self.handle_group_info(label, heir, m.co_leaders, m.owner, m.owner_epoch, ctx);
            }
        } else {
            ctx.send(
                m.leader,
                DpsMsg::Leave {
                    label,
                    member: self.id,
                },
            );
        }
    }

    /// Registers a pending subscription and starts driving it.
    pub(crate) fn enqueue_subscription(
        &mut self,
        sub_id: SubId,
        pred: Predicate,
        ctx: &mut Context<'_, DpsMsg>,
    ) {
        self.pending_subs.push(PendingSub {
            sub_id,
            pred,
            phase: SubPhase::FindingTree,
            deadline: ctx.now() + REQUEST_TIMEOUT,
            retries: 0,
        });
        self.drive_subscription(sub_id, ctx);
    }

    /// Advances a pending subscription as far as current knowledge allows.
    pub(crate) fn drive_subscription(&mut self, sub_id: SubId, ctx: &mut Context<'_, DpsMsg>) {
        let Some(p) = self.pending_subs.iter().find(|p| p.sub_id == sub_id) else {
            return;
        };
        let pred = p.pred.clone();
        let label = GroupLabel::Pred(pred.clone());
        // Already a member of the right group (another subscription joined it)?
        if let Some(m) = self.membership_mut(&label) {
            m.sub_ids.push(sub_id);
            self.pending_subs.retain(|p| p.sub_id != sub_id);
            return;
        }
        let attr = pred.name().clone();
        let has_contact = self.in_tree(&attr) || self.tree_cache.contains_key(&attr);
        if has_contact && self.send_find_group(sub_id, pred, ctx) {
            let deadline = ctx.now() + TRAVERSAL_TIMEOUT;
            if let Some(p) = self.pending_subs.iter_mut().find(|p| p.sub_id == sub_id) {
                p.phase = SubPhase::Traversing;
                p.deadline = deadline;
            }
            return;
        }
        // No known contact: walk for the tree.
        if let Some(p) = self.pending_subs.iter_mut().find(|p| p.sub_id == sub_id) {
            p.phase = SubPhase::FindingTree;
            p.deadline = ctx.now() + REQUEST_TIMEOUT;
        }
        self.start_walk(attr, ctx);
    }

    /// Timeout/retry driver, called from `on_tick`.
    pub(crate) fn retry_due_subscriptions(&mut self, ctx: &mut Context<'_, DpsMsg>) {
        let now = ctx.now();
        let due: Vec<SubId> = self
            .pending_subs
            .iter()
            .filter(|p| p.deadline <= now)
            .map(|p| p.sub_id)
            .collect();
        for sub_id in due {
            let Some(p) = self.pending_subs.iter_mut().find(|p| p.sub_id == sub_id) else {
                continue;
            };
            p.retries += 1;
            p.deadline = now
                + if matches!(p.phase, SubPhase::Traversing) {
                    TRAVERSAL_TIMEOUT
                } else {
                    REQUEST_TIMEOUT
                };
            let retries = p.retries;
            let phase = p.phase.clone();
            let pred = p.pred.clone();
            let attr = pred.name().clone();
            match phase {
                SubPhase::FindingTree => {
                    if retries > FIND_TREE_RETRIES {
                        // §4.1: "If there is no tree for an attribute ... a new
                        // tree is created and the first subscriber becomes its
                        // owner."
                        self.create_tree(attr, ctx);
                        self.drive_subscription(sub_id, ctx);
                    } else {
                        self.start_walk(attr, ctx);
                    }
                }
                SubPhase::Traversing | SubPhase::Joining(_) => {
                    if retries >= 2 {
                        // The contact or owner we keep talking to never answers:
                        // suspect it so walks stop returning it (a live node
                        // clears the suspicion by sending us anything).
                        if let Some(c) = self.tree_cache.get(&attr) {
                            self.suspected.insert(node_key(c.contact));
                            if let Some(o) = c.owner {
                                self.suspected.insert(node_key(o));
                            }
                        }
                        self.tree_cache.remove(&attr);
                    }
                    if retries > MAX_SUB_RETRIES {
                        // The tree may have collapsed entirely; start over.
                        self.tree_cache.remove(&attr);
                        if let Some(p) = self.pending_subs.iter_mut().find(|p| p.sub_id == sub_id) {
                            p.phase = SubPhase::FindingTree;
                            p.retries = 0;
                        }
                        self.start_walk(attr, ctx);
                    } else {
                        // The contact, a relay, or the target leader died; the
                        // cached contact may be stale. Retry the traversal.
                        self.drive_subscription(sub_id, ctx);
                    }
                }
            }
        }
    }

    // ---- FIND_GROUP routing ----

    /// One traversal step (§4.1). The receiving node routes the ticket up or down
    /// the tree, answers `SUBSCRIBE_TO` when the group exists, or authorizes
    /// `CREATE_GROUP` when it is the designated predecessor.
    pub(crate) fn handle_find_group(&mut self, mut t: Ticket, ctx: &mut Context<'_, DpsMsg>) {
        if t.ttl == 0 {
            return;
        }
        t.ttl -= 1;
        let attr = t.pred.name();
        let Some(i) = self.pick_routing_membership(&t.pred) else {
            // Not in this tree: relay toward a known contact, if any.
            if let Some(c) = self.tree_cache.get(attr) {
                let to = c.contact;
                if to != self.id {
                    ctx.send(to, DpsMsg::FindGroup(t));
                }
            }
            return;
        };
        // Root-based traversal starts at the root: route to the owner first —
        // but only before the visit has passed through the root, or descents
        // would bounce straight back up. A suspected owner is as good as an
        // unknown one: forwarding to it would kill the visit.
        let owns_tree = self.owns_tree(attr);
        if t.mode == TraversalKind::Root && !t.descending && !owns_tree {
            if let Some(owner) = self.known_owner(attr) {
                if owner != self.id && !self.suspected.contains(&node_key(owner)) {
                    ctx.send(owner, DpsMsg::FindGroup(t));
                    return;
                }
            }
            // Owner unknown (or suspected): behave like a generic visit.
        }
        if owns_tree {
            t.descending = true;
        }
        self.route_find_group_at(i, t, ctx);
    }

    /// Whether we maintain the root vertex of `attr`.
    pub(crate) fn owns_tree(&self, attr: &dps_content::AttrName) -> bool {
        self.memberships
            .iter()
            .any(|m| m.label.is_root() && m.label.attr() == attr && m.is_leader())
    }

    /// Among our memberships in the tree of `pred`'s attribute (`None` when
    /// there is none), picks the best starting point for a traversal looking
    /// for `pred`: the exact group if we are in it, else the deepest group on
    /// the designated path, else any group (we will route up).
    fn pick_routing_membership(&self, pred: &Predicate) -> Option<usize> {
        let in_tree = || self.memberships_in(pred.name());
        in_tree()
            .find(|&i| self.memberships[i].label.predicate() == Some(pred))
            .or_else(|| self.deepest_on_path(pred))
            .or_else(|| in_tree().next())
    }

    /// Among our memberships in the tree of `pred`'s attribute, the deepest
    /// on the designated path to `pred` (a predicate lies below the root;
    /// among predicates the included one is deeper); the first joined wins
    /// a tie.
    pub(crate) fn deepest_on_path(&self, pred: &Predicate) -> Option<usize> {
        let label = |i: usize| &self.memberships[i].label;
        let deeper = |i: usize, than: usize| match (label(than).predicate(), label(i).predicate()) {
            (None, Some(_)) => true,
            (Some(pt), Some(pi)) => pt.strictly_includes(pi),
            _ => false,
        };
        self.memberships_in(pred.name())
            .filter(|&i| label(i).on_path_to(pred))
            .reduce(|b, i| if deeper(i, b) { i } else { b })
    }

    fn route_find_group_at(&mut self, i: usize, t: Ticket, ctx: &mut Context<'_, DpsMsg>) {
        let m = &self.memberships[i];

        // Inter-group decisions are serialized at the leader in leader mode.
        if self.cfg.comm == CommKind::Leader && !m.is_leader() {
            if m.leader != self.id {
                ctx.send(m.leader, DpsMsg::FindGroup(t));
            }
            return;
        }

        if m.label.predicate() == Some(&t.pred) {
            // SUBSCRIBE_TO: the group exists and we speak for it.
            let group = self.descriptor(m);
            let origin = t.origin;
            ctx.send(origin, DpsMsg::SubscribeTo { ticket: t, group });
            return;
        }

        if m.label.on_path_to(&t.pred) {
            // Try to descend. Exact child group?
            let is_target = |l: &GroupLabel| l.predicate() == Some(&t.pred);
            if let Some(bi) = m.branches.iter().position(|b| is_target(&b.label)) {
                let refs = &m.branches[bi].refs;
                let other = refs
                    .iter()
                    .find(|r| is_target(&r.label) && r.node != t.origin)
                    .or_else(|| refs.iter().find(|r| r.node != t.origin));
                if let Some(r) = other {
                    ctx.send(r.node, DpsMsg::FindGroup(t));
                    return;
                }
                // Every known contact of that branch IS the asker — a phantom
                // left by a lost CREATE_GROUP answer. Drop it and re-authorize.
                self.memberships[i].branches.remove(bi);
            }
            // A branch on the designated path?
            let next = self.memberships[i].branch_toward(&t.pred, None);
            if let Some(n) = next.and_then(Branch::entry) {
                ctx.send(n, DpsMsg::FindGroup(t));
                return;
            }
            // CREATE_GROUP: we are the designated predecessor.
            self.authorize_create(i, t, ctx);
            return;
        }

        // Not on the designated path: route upwards (generic traversal).
        match m.predview.first() {
            Some(up) if up.node != self.id => ctx.send(up.node, DpsMsg::FindGroup(t)),
            _ => {
                // Orphaned or self-parented: give up; the origin retries later.
            }
        }
    }

    /// The `CREATE_GROUP` authorization at the designated predecessor: splice in a
    /// blocked branch, compute the siblings the new group adopts (constraint C2),
    /// and tell the subscriber to build the group.
    fn authorize_create(&mut self, i: usize, t: Ticket, ctx: &mut Context<'_, DpsMsg>) {
        let target = GroupLabel::Pred(t.pred.clone());
        let parent = self.descriptor(&self.memberships[i]);
        let m = &mut self.memberships[i];
        //

        // Siblings included in the new predicate move under it.
        let (stay, adopted): (Vec<Branch>, Vec<Branch>) = std::mem::take(&mut m.branches)
            .into_iter()
            .partition(|b| !GroupLabel::branch_reparents_to(&b.label, &t.pred));
        m.branches = stay;
        let adopted_infos: Vec<BranchInfo> = adopted.iter().map(Branch::info).collect();
        let mut nb = Branch::new(
            target.clone(),
            vec![GroupRef {
                label: target.clone(),
                node: t.origin,
            }],
        );
        nb.blocked = true;
        nb.blocked_since = ctx.now();
        m.branches.push(nb);
        let origin = t.origin;
        ctx.send(
            origin,
            DpsMsg::CreateGroup {
                ticket: t,
                parent,
                adopted: adopted_infos,
            },
        );
        // Epidemic mode: let the rest of the group learn the branch change.
        if self.cfg.comm == CommKind::Epidemic {
            let branches = self.memberships[i].branches.iter().map(Branch::info);
            self.gossip_sub(i, &[], Vec::new(), branches.collect(), 0, ctx);
        }
    }

    // ---- answers back at the subscriber ----

    pub(crate) fn handle_subscribe_to(
        &mut self,
        ticket: Ticket,
        group: GroupDescriptor,
        ctx: &mut Context<'_, DpsMsg>,
    ) {
        let sub_id = ticket.sub_id;
        if !self.pending_subs.iter().any(|p| p.sub_id == sub_id) {
            return; // duplicate answer (several contact points) — §4.2.2
        }
        if let Some(m) = self.membership_mut(&group.label) {
            m.sub_ids.push(sub_id);
            self.pending_subs.retain(|p| p.sub_id != sub_id);
            return;
        }
        let deadline = ctx.now() + REQUEST_TIMEOUT;
        if let Some(p) = self.pending_subs.iter_mut().find(|p| p.sub_id == sub_id) {
            p.phase = SubPhase::Joining(group.clone());
            p.deadline = deadline;
        }
        ctx.send(
            group.leader,
            DpsMsg::JoinGroup {
                sub_id,
                label: group.label,
                member: self.id,
            },
        );
    }

    pub(crate) fn handle_join_group(
        &mut self,
        sub_id: SubId,
        label: GroupLabel,
        member: NodeId,
        ctx: &mut Context<'_, DpsMsg>,
    ) {
        let Some(i) = self.membership_index(&label) else {
            return; // stale; the joiner retries
        };
        if self.cfg.comm == CommKind::Leader && !self.memberships[i].is_leader() {
            let leader = self.memberships[i].leader;
            if leader != self.id {
                ctx.send(
                    leader,
                    DpsMsg::JoinGroup {
                        sub_id,
                        label,
                        member,
                    },
                );
            }
            return;
        }
        let epidemic = self.cfg.comm == CommKind::Epidemic;
        let me = self.id;
        let m = &mut self.memberships[i];
        m.add_member(member);
        if epidemic && m.members.len() > GROUP_VIEW_CAP {
            let excess = m.members.len() - GROUP_VIEW_CAP;
            m.members.retain({
                let mut dropped = 0;
                move |n| {
                    if *n == me || *n == member || dropped >= excess {
                        true
                    } else {
                        dropped += 1;
                        false
                    }
                }
            });
        }
        let mut co_leader = false;
        if !epidemic
            && member != me
            && m.co_leaders.len() < CO_LEADERS
            && !m.co_leaders.contains(&member)
        {
            m.co_leaders.push(member);
            co_leader = true;
        }
        let group = self.descriptor(&self.memberships[i]);
        let m = &self.memberships[i];
        let (members, predview, succviews) = if co_leader || epidemic {
            (
                m.members.clone(),
                m.predview.clone(),
                m.branches.iter().map(Branch::info).collect(),
            )
        } else {
            (m.group_contacts(), Vec::new(), Vec::new())
        };
        ctx.send(
            member,
            DpsMsg::JoinAck {
                sub_id,
                group,
                co_leader,
                members,
                predview,
                succviews,
            },
        );
        if !epidemic {
            // Mirror the join to co-leaders; announce a leadership change to all.
            let info: Vec<(NodeId, DpsMsg)> = if co_leader {
                let m = &self.memberships[i];
                m.members
                    .iter()
                    .filter(|n| **n != me && **n != member)
                    .map(|n| (*n, group_info(m, me)))
                    .collect()
            } else {
                let m = &self.memberships[i];
                m.co_leaders
                    .iter()
                    .filter(|n| **n != member)
                    .map(|n| {
                        (
                            *n,
                            DpsMsg::MemberJoined {
                                label: m.label.clone(),
                                member,
                            },
                        )
                    })
                    .collect()
            };
            for (to, msg) in info {
                ctx.send(to, msg);
            }
        } else {
            // GOSSIP_SUB: spread the view update within the group (§4.2.2).
            self.gossip_sub(i, &[member], vec![member], Vec::new(), 0, ctx);
        }
    }

    #[allow(clippy::too_many_arguments)]
    pub(crate) fn handle_join_ack(
        &mut self,
        sub_id: SubId,
        group: GroupDescriptor,
        co_leader: bool,
        members: Vec<NodeId>,
        predview: Vec<GroupRef>,
        succviews: Vec<BranchInfo>,
        _ctx: &mut Context<'_, DpsMsg>,
    ) {
        if !self.pending_subs.iter().any(|p| p.sub_id == sub_id) {
            return;
        }
        self.pending_subs.retain(|p| p.sub_id != sub_id);
        if let Some(m) = self.membership_mut(&group.label) {
            m.sub_ids.push(sub_id);
            return;
        }
        let role = if co_leader {
            Role::CoLeader
        } else {
            Role::Member
        };
        let mut m = Membership::new(Some(sub_id), group.label.clone(), role, self.id);
        m.owner = group.owner;
        m.owner_epoch = group.owner_epoch;
        m.leader = group.leader;
        m.co_leaders = group.co_leaders.clone();
        for n in members {
            m.add_member(n);
        }
        m.add_member(self.id);
        m.set_predview(predview, PREDVIEW_CAP);
        for b in succviews {
            m.upsert_branch(&b, VIEW_DEPTH);
        }
        let attr = group.label.attr().clone();
        self.adopt(m);
        self.cache_tree(attr, self.id, Some(group.owner), group.owner_epoch);
    }

    pub(crate) fn handle_create_group(
        &mut self,
        ticket: Ticket,
        parent: GroupDescriptor,
        adopted: Vec<BranchInfo>,
        ctx: &mut Context<'_, DpsMsg>,
    ) {
        let sub_id = ticket.sub_id;
        let label = GroupLabel::Pred(ticket.pred.clone());
        let pending = self.pending_subs.iter().any(|p| p.sub_id == sub_id);
        self.pending_subs.retain(|p| p.sub_id != sub_id);

        if let Some(m) = self.membership_mut(&label) {
            // Already in (or leading) this group — e.g. duplicate answers from two
            // contact points. Still unblock the parent.
            if pending {
                m.sub_ids.push(sub_id);
            }
        } else {
            let idx = self.new_led_membership(Some(sub_id), label.clone(), parent.owner);
            self.memberships[idx].owner_epoch = parent.owner_epoch;
            let parent_refs = GroupRef::all_in(&parent.label, parent.contacts());
            self.memberships[idx].set_predview(parent_refs, PREDVIEW_CAP);
            for b in adopted {
                // Tell each adopted child who its new parent is.
                self.memberships[idx].upsert_branch(&b, VIEW_DEPTH);
                let chain = self.memberships[idx].predview.clone();
                let to = b.refs.iter().filter(|r| r.label == b.label).map(|r| r.node);
                self.send_new_parent(idx, &b.label, chain, to, ctx);
            }
            let attr = label.attr().clone();
            self.cache_tree(attr, self.id, Some(parent.owner), parent.owner_epoch);
        }
        // CREATE_GROUP complete: unblock event propagation in the predecessor.
        let child = BranchInfo {
            label: label.clone(),
            refs: vec![GroupRef {
                label,
                node: self.id,
            }],
        };
        ctx.send(
            parent.leader,
            DpsMsg::CreateDone {
                parent_label: parent.label,
                child,
            },
        );
    }

    pub(crate) fn handle_create_done(
        &mut self,
        parent_label: GroupLabel,
        child: BranchInfo,
        ctx: &mut Context<'_, DpsMsg>,
    ) {
        let Some(i) = self.membership_index(&parent_label) else {
            return;
        };
        // Concurrent creations may have re-parented this child while its ack was
        // in flight (e.g. `a > 3` adopting an `a > 5` created in the same step).
        // Re-check constraint C2 before accepting the branch back.
        let via = child
            .label
            .predicate()
            .and_then(|pred| self.memberships[i].branch_toward(pred, Some(&child.label)));
        if let Some(via) = via {
            let next = via.entry();
            // Flush anything we withheld for the child straight to it, then
            // route the branch down to its designated predecessor.
            if let Some(stale) = self.memberships[i].remove_branch(&child.label) {
                for t in stale.buffered {
                    self.send_to_branch(&child.label, &child.refs, t, ctx);
                }
            }
            if let Some(n) = next {
                ctx.send(
                    n,
                    DpsMsg::Reattach {
                        branch: child,
                        ttl: WALK_TTL,
                    },
                );
            }
            return;
        }
        let m = &mut self.memberships[i];
        let bi = m.upsert_branch(&child, VIEW_DEPTH);
        m.branches[bi].blocked = false;
        let buffered = std::mem::take(&mut m.branches[bi].buffered);
        let b = &self.memberships[i].branches[bi];
        for t in buffered {
            self.send_to_branch(&b.label, &b.refs, t, ctx);
        }
    }

    pub(crate) fn handle_new_parent(
        &mut self,
        child_label: GroupLabel,
        parent: GroupDescriptor,
        parent_chain: Vec<GroupRef>,
    ) {
        let Some(m) = self.membership_mut(&child_label) else {
            return;
        };
        let mut refs = GroupRef::all_in(&parent.label, parent.contacts());
        for r in parent_chain {
            if !refs.contains(&r) && r.label != child_label {
                refs.push(r);
            }
        }
        m.set_predview(refs, PREDVIEW_CAP);
        m.owner = parent.owner;
        m.owner_epoch = parent.owner_epoch;
    }

    // ---- epidemic membership gossip ----

    /// `GOSSIP_SUB` (§4.2.2): tells `SUB_GOSSIP_FANOUT` members of group
    /// `i`, sampled from all but ourselves and `skip`, of `members` and
    /// `branches`; `hops` counts the forwards so far.
    fn gossip_sub(
        &self,
        i: usize,
        skip: &[NodeId],
        members: Vec<NodeId>,
        branches: Vec<BranchInfo>,
        hops: u32,
        ctx: &mut Context<'_, DpsMsg>,
    ) {
        let m = &self.memberships[i];
        let targets: Vec<NodeId> = m
            .members
            .iter()
            .copied()
            .filter(|n| *n != self.id && !skip.contains(n))
            .choose_multiple(ctx.rng(), SUB_GOSSIP_FANOUT);
        for to in targets {
            let msg = DpsMsg::GossipSub {
                label: m.label.clone(),
                members: members.clone(),
                branches: branches.clone(),
                hops,
            };
            ctx.send(to, msg);
        }
    }

    pub(crate) fn handle_gossip_sub(
        &mut self,
        label: GroupLabel,
        members: Vec<NodeId>,
        branches: Vec<BranchInfo>,
        hops: u32,
        ctx: &mut Context<'_, DpsMsg>,
    ) {
        let me = self.id;
        let Some(i) = self.membership_index(&label) else {
            return;
        };
        let mut newly = Vec::new();
        {
            let m = &mut self.memberships[i];
            for n in &members {
                if *n != me && !m.members.contains(n) {
                    m.members.push(*n);
                    newly.push(*n);
                }
            }
            m.evict_members_to_cap(GROUP_VIEW_CAP, me, ctx.rng());
            for b in branches {
                m.upsert_branch(&b, VIEW_DEPTH);
            }
        }
        if newly.is_empty() {
            return;
        }
        // Forward with the decaying probability p0 / (1 + hops).
        let p = GOSSIP_P0 / (1 + hops) as f64;
        if ctx.rng().random::<f64>() >= p {
            return;
        }
        self.gossip_sub(i, &newly, newly.clone(), Vec::new(), hops + 1, ctx);
    }
}
