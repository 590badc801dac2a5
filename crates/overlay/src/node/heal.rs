//! Self-healing (§4.3): heartbeat failure detection over the view pointers,
//! co-leader promotion, whole-group failure recovery through multi-level views,
//! reattachment of orphaned branches, and the periodic view-exchange / merge
//! processes that keep the overlay consistent under churn.

use dps_content::SharedEvent;
use dps_sim::{Context, NodeId};
use rand::seq::IteratorRandom;
use rand::Rng;

use crate::config::{
    CommKind, CO_LEADERS, GROUP_VIEW_CAP, HEARTBEAT_MAX, HEARTBEAT_MIN, HOP_BACKSTOP,
    OWNER_MERGE_EVERY, PREDVIEW_CAP, PROBE_RETRIES, PROBE_TIMEOUT, REQUEST_TIMEOUT, VIEW_DEPTH,
    VIEW_EXCHANGE_EVERY, WALK_TTL,
};
use crate::label::GroupLabel;
use crate::msg::{BranchInfo, DpsMsg, GroupRef, PubId};
use crate::node::{claim_beats, group_info, node_key, DpsNode, Probe};
use crate::views::{Branch, Membership, Role};

impl DpsNode {
    // ---- heartbeat probing ----

    /// Fills `out` with the neighbors this node monitors: "nodes in the
    /// predview and succview structure are periodically monitored for
    /// failures" (§4.3), plus the group leadership a member depends on.
    /// Ascending and duplicate-free — the order `tick_probes` draws the
    /// periods of new probes in.
    pub(crate) fn monitor_targets(&self, out: &mut Vec<NodeId>) {
        out.clear();
        for m in &self.memberships {
            match self.cfg.comm {
                CommKind::Leader => {
                    if m.is_leader() {
                        out.extend(m.co_leaders.iter().copied());
                        out.extend(m.branches.iter().filter_map(Branch::primary));
                        out.extend(m.predview.first().map(|r| r.node));
                    } else {
                        out.push(m.leader);
                        out.extend(m.co_leaders.iter().copied());
                    }
                }
                CommKind::Epidemic => {
                    out.extend(m.members.iter().take(3).copied());
                    out.extend(m.predview.iter().take(2).map(|r| r.node));
                    out.extend(
                        m.branches
                            .iter()
                            .filter_map(|b| b.refs.first().map(|r| r.node)),
                    );
                }
            }
        }
        out.sort_unstable();
        out.dedup();
        out.retain(|n| *n != self.id);
    }

    /// Drives the heartbeat machinery: schedule pings (per-edge period drawn
    /// uniformly from `HEARTBEAT_MIN..=HEARTBEAT_MAX`, §5.2), time out missing
    /// pongs and trigger healing.
    pub(crate) fn tick_probes(&mut self, ctx: &mut Context<'_, DpsMsg>) {
        let now = ctx.now();
        let mut targets = std::mem::take(&mut self.monitor_buf);
        self.monitor_targets(&mut targets);
        // Views rarely change between two steps: reconcile only when they did.
        if !targets.iter().eq(self.probes.keys()) {
            self.probes.retain(|k, _| targets.binary_search(k).is_ok());
            for t in &targets {
                if !self.probes.contains_key(t) {
                    let every = ctx.rng().random_range(HEARTBEAT_MIN..=HEARTBEAT_MAX);
                    let phase = ctx.rng().random_range(0..every);
                    self.probes.insert(
                        *t,
                        Probe {
                            every,
                            next_at: now + phase,
                            outstanding: None,
                            misses: 0,
                        },
                    );
                }
            }
        }
        self.monitor_buf = targets;
        let mut dead: Vec<NodeId> = Vec::new();
        let mut pings: Vec<(NodeId, u64)> = Vec::new();
        for (t, p) in self.probes.iter_mut() {
            match p.outstanding {
                Some((_, sent)) if now.saturating_sub(sent) > PROBE_TIMEOUT => {
                    if p.misses >= PROBE_RETRIES {
                        dead.push(*t);
                    } else {
                        // Re-probe before condemning: a single lost pong must
                        // not look like a crash (nonce assigned below).
                        p.misses += 1;
                        pings.push((*t, 0));
                        p.outstanding = Some((0, now));
                    }
                }
                Some(_) => {}
                None if p.next_at <= now => {
                    pings.push((*t, 0)); // nonce assigned below (needs &mut self)
                    p.next_at = now + p.every;
                    p.outstanding = Some((0, now));
                }
                None => {}
            }
        }
        for (t, _) in &pings {
            let nonce = self.fresh_nonce();
            if let Some(p) = self.probes.get_mut(t) {
                if let Some((_, sent)) = p.outstanding {
                    p.outstanding = Some((nonce, sent));
                }
            }
            ctx.send(*t, DpsMsg::Ping { nonce });
        }
        for d in dead {
            self.probes.remove(&d);
            self.on_dead(d, ctx);
        }
    }

    pub(crate) fn handle_pong(&mut self, from: NodeId, nonce: u64) {
        if let Some(p) = self.probes.get_mut(&from) {
            if matches!(p.outstanding, Some((n, _)) if n == nonce) {
                p.outstanding = None;
            }
            p.misses = 0; // any pong proves liveness, even a late one
        }
    }

    // ---- failure reactions ----

    /// A monitored neighbor was declared dead: scrub it everywhere and run the
    /// role-specific healing of §4.3.
    pub(crate) fn on_dead(&mut self, dead: NodeId, ctx: &mut Context<'_, DpsMsg>) {
        self.suspected.insert(node_key(dead));
        self.peers.retain(|p| *p != dead);
        self.tree_cache.retain(|_, c| {
            if c.owner == Some(dead) {
                c.owner = None;
            }
            c.contact != dead
        });

        for i in 0..self.memberships.len() {
            let label = self.memberships[i].label.clone();
            let was_leader_dead = self.memberships[i].leader == dead;
            let was_my_lead = self.memberships[i].is_leader();

            // Scrub the views first.
            self.memberships[i].forget_node(dead);

            match self.cfg.comm {
                CommKind::Leader => {
                    if was_leader_dead && !was_my_lead {
                        self.leader_takeover(i, dead, ctx);
                    }
                    if was_my_lead {
                        self.leader_heal_after(i, dead, ctx);
                    }
                }
                CommKind::Epidemic => {
                    // The leader field is only a contact hint in epidemic mode
                    // and nothing maintains it: point it at ourselves so stale
                    // descriptors cannot keep advertising the dead node.
                    if was_leader_dead {
                        self.memberships[i].leader = self.id;
                    }
                    // Pull a fresh view from a surviving member (§4.3: the failed
                    // node "is immediately replaced by pulling a view update from
                    // the other alive nodes"), and bridge branches whose whole
                    // group died using the deeper succview entries.
                    let me = self.id;
                    let target = self.memberships[i]
                        .members
                        .iter()
                        .copied()
                        .filter(|n| *n != me)
                        .choose(ctx.rng());
                    if let Some(n) = target {
                        ctx.send(
                            n,
                            DpsMsg::ViewPull {
                                label: label.clone(),
                            },
                        );
                    }
                    self.bridge_dead_branches(i, dead, ctx);
                }
            }

            // Orphaned (no predecessor left)? Reattach or take the root over.
            if self.memberships[i].predview.is_empty() && !self.memberships[i].label.is_root() {
                self.reattach_or_promote(i, ctx);
            }
        }
    }

    /// A member or co-leader noticed the leader die. Co-leaders rank themselves:
    /// the first co-leader not known to be dead promotes itself (§4.3: "one
    /// co-leader, for example, the one with the lowest identifier, becomes the
    /// new leader"). Plain members alert the co-leaders.
    fn leader_takeover(&mut self, i: usize, dead: NodeId, ctx: &mut Context<'_, DpsMsg>) {
        let label = self.memberships[i].label.clone();
        match self.memberships[i].role {
            Role::CoLeader => {
                let first_alive = self.memberships[i]
                    .co_leaders
                    .iter()
                    .copied()
                    .find(|c| !self.suspected.contains(&node_key(*c)));
                let me = self.id;
                if first_alive == Some(me) || self.memberships[i].co_leaders.is_empty() {
                    self.promote_to_leader(i, ctx);
                } else if let Some(c) = first_alive {
                    ctx.send(c, DpsMsg::LeaderGone { label, dead });
                }
            }
            Role::Member => {
                let cos = self.memberships[i].co_leaders.clone();
                for c in cos {
                    ctx.send(
                        c,
                        DpsMsg::LeaderGone {
                            label: label.clone(),
                            dead,
                        },
                    );
                }
            }
            Role::Leader => {}
        }
    }

    /// Become the leader of membership `i`: recruit co-leaders back to `Kc`, then
    /// announce the new leadership to members, parent and children (§4.3).
    pub(crate) fn promote_to_leader(&mut self, i: usize, ctx: &mut Context<'_, DpsMsg>) {
        let me = self.id;
        {
            let m = &mut self.memberships[i];
            m.role = Role::Leader;
            m.leader = me;
            m.co_leaders.retain(|c| *c != me);
            m.add_member(me);
        }
        self.recruit_co_leaders(i);
        let m = &self.memberships[i];
        let info = group_info(m, me);
        let audience: Vec<NodeId> = m
            .members
            .iter()
            .copied()
            .chain(m.predview.iter().map(|r| r.node))
            .chain(m.branches.iter().filter_map(|b| b.primary()))
            .filter(|n| *n != me)
            .collect();
        for n in audience {
            ctx.send(n, info.clone());
        }
    }

    /// Top up the co-leader list from ordinary members.
    fn recruit_co_leaders(&mut self, i: usize) {
        let me = self.id;
        let m = &mut self.memberships[i];
        let candidates: Vec<NodeId> = m
            .members
            .iter()
            .copied()
            .filter(|n| *n != me && !m.co_leaders.contains(n))
            .collect();
        for c in candidates {
            if m.co_leaders.len() >= CO_LEADERS {
                break;
            }
            m.co_leaders.push(c);
        }
    }

    /// Healing a leader performs when one of its contacts died: replace a lost
    /// co-leader, tell the group, and bridge across fully-failed child groups
    /// using the deeper succview entries.
    fn leader_heal_after(&mut self, i: usize, dead: NodeId, ctx: &mut Context<'_, DpsMsg>) {
        let me = self.id;
        let before = self.memberships[i].co_leaders.len();
        self.recruit_co_leaders(i);
        let changed = self.memberships[i].co_leaders.len() != before
            || self.memberships[i].co_leaders.len() < CO_LEADERS;
        if changed {
            let m = &self.memberships[i];
            let info = group_info(m, me);
            let members: Vec<NodeId> = m.members.iter().copied().filter(|n| *n != me).collect();
            for n in members {
                ctx.send(n, info.clone());
            }
        }
        self.bridge_dead_branches(i, dead, ctx);
    }

    /// Bridge whole-group failures: a branch left with no entry in its own group
    /// is adopted through its deeper (grandchild) refs. Used by both leader-mode
    /// and epidemic healing — the multi-level views exist exactly for this
    /// ("in order to handle multiple concurrent failures involving a whole group
    /// at once", §4).
    pub(crate) fn bridge_dead_branches(
        &mut self,
        i: usize,
        dead: NodeId,
        ctx: &mut Context<'_, DpsMsg>,
    ) {
        let me = self.id;
        let mut adoptions: Vec<(GroupLabel, Vec<GroupRef>)> = Vec::new();
        {
            let m = &mut self.memberships[i];
            let mut kept: Vec<Branch> = Vec::new();
            for b in std::mem::take(&mut m.branches) {
                if b.primary().is_some() {
                    kept.push(b);
                } else if !b.refs.is_empty() {
                    // Group the deeper refs by label: each becomes a direct child.
                    let mut by_label: Vec<(GroupLabel, Vec<GroupRef>)> = Vec::new();
                    for r in &b.refs {
                        match by_label.iter_mut().find(|(l, _)| *l == r.label) {
                            Some((_, v)) => v.push(r.clone()),
                            None => by_label.push((r.label.clone(), vec![r.clone()])),
                        }
                    }
                    adoptions.extend(by_label);
                }
                // Branches with no refs at all dissolve; the orphan side
                // reattaches through its own healing.
            }
            m.branches = kept;
        }
        for (label, refs) in adoptions {
            let info = BranchInfo {
                label: label.clone(),
                refs: refs.clone(),
            };
            self.memberships[i].upsert_branch(&info, VIEW_DEPTH);
            let chain = self.parent_chain(&self.memberships[i]);
            let to = refs
                .iter()
                .map(|r| r.node)
                .filter(|n| *n != dead && *n != me);
            self.send_new_parent(i, &label, chain, to, ctx);
            // Publications that crossed the dead edge during the failure
            // window are gone for the whole adopted subtree: re-flush the
            // recent ones through the freshly bridged branch.
            self.flush_recent_to_branch(i, &info, ctx);
        }
    }

    /// Membership `i` lost every predecessor pointer: ask an ancestor to adopt us
    /// via [`DpsMsg::Reattach`], or — when the whole upper tree is gone — take
    /// ownership of the attribute and rebuild the root above ourselves.
    pub(crate) fn reattach_or_promote(&mut self, i: usize, ctx: &mut Context<'_, DpsMsg>) {
        let label = self.memberships[i].label.clone();
        let attr = label.attr().clone();
        if self.cfg.comm == CommKind::Leader && !self.memberships[i].is_leader() {
            return; // the leader of our group is responsible
        }
        let branch = BranchInfo {
            label: label.clone(),
            refs: self.own_refs(&self.memberships[i]),
        };
        let contact = self
            .known_owner(&attr)
            .filter(|o| *o != self.id && !self.suspected.contains(&node_key(*o)))
            .or_else(|| {
                self.tree_cache
                    .get(&attr)
                    .map(|c| c.contact)
                    .filter(|c| *c != self.id && !self.suspected.contains(&node_key(*c)))
            });
        match contact {
            Some(n) => {
                ctx.send(
                    n,
                    DpsMsg::Reattach {
                        branch,
                        ttl: HOP_BACKSTOP,
                    },
                );
            }
            None => {
                // Nobody above us is reachable: become the owner (§4.1's tree
                // creation, replayed after catastrophic failure). Duplicate roots
                // created by racing siblings are merged by the owner walks.
                if !self.owns_tree(&attr) {
                    self.create_tree(attr.clone(), ctx);
                }
                let root_label = GroupLabel::Root(attr);
                let me = self.id;
                if let Some(root) = self.membership_mut(&root_label) {
                    root.upsert_branch(&branch, VIEW_DEPTH);
                }
                let m = &mut self.memberships[i];
                m.owner = me;
                m.set_predview(
                    vec![GroupRef {
                        label: root_label,
                        node: me,
                    }],
                    4,
                );
            }
        }
    }

    /// Routes an orphan branch down the tree to its designated predecessor and
    /// grafts it there (the descent mirrors `FIND_GROUP`).
    pub(crate) fn handle_reattach(
        &mut self,
        branch: BranchInfo,
        ttl: u32,
        ctx: &mut Context<'_, DpsMsg>,
    ) {
        if ttl == 0 {
            return;
        }
        let Some(pred) = branch.label.predicate().cloned() else {
            return;
        };
        let attr = pred.name();
        if !self.in_tree(attr) {
            if let Some(c) = self.tree_cache.get(attr) {
                let to = c.contact;
                if to != self.id {
                    ctx.send(
                        to,
                        DpsMsg::Reattach {
                            branch,
                            ttl: ttl - 1,
                        },
                    );
                }
            }
            return;
        }
        if let Some(i) = self.membership_index(&branch.label) {
            // Duplicate of our own group: merge their contacts in.
            let me = self.id;
            let m = &self.memberships[i];
            let info = group_info(m, if m.is_leader() { me } else { m.leader });
            for r in &branch.refs {
                if r.node != me {
                    ctx.send(r.node, info.clone());
                }
            }
            return;
        }
        let Some(i) = self.deepest_on_path(&pred) else {
            return;
        };
        if self.cfg.comm == CommKind::Leader && !self.memberships[i].is_leader() {
            let leader = self.memberships[i].leader;
            if leader != self.id {
                ctx.send(
                    leader,
                    DpsMsg::Reattach {
                        branch,
                        ttl: ttl - 1,
                    },
                );
            }
            return;
        }
        // Descend if a branch is on the designated path.
        let m = &self.memberships[i];
        if let Some(b) = m.branch(&branch.label) {
            // The branch already exists here: merge refs and re-point the orphan.
            let was_live = b.primary().is_some();
            // Two same-label cohorts are meeting (e.g. a dissolved duplicate
            // tree's group grafting next to the survivor's): introduce their
            // contacts to each other so the epidemic view merge can unify the
            // member views — otherwise publications entering via one cohort's
            // refs never reach the other.
            if self.cfg.comm == CommKind::Epidemic {
                let incumbents: Vec<NodeId> = b
                    .refs
                    .iter()
                    .filter(|r| r.label == branch.label)
                    .map(|r| r.node)
                    .collect();
                let newcomers: Vec<NodeId> = branch
                    .refs
                    .iter()
                    .filter(|r| r.label == branch.label)
                    .map(|r| r.node)
                    .collect();
                let fresh: Vec<NodeId> = newcomers
                    .iter()
                    .copied()
                    .filter(|n| !incumbents.contains(n))
                    .collect();
                if !incumbents.is_empty() && !fresh.is_empty() {
                    let intro = |members: Vec<NodeId>| DpsMsg::ViewPush {
                        label: branch.label.clone(),
                        members,
                        predview: Vec::new(),
                        branches: Vec::new(),
                        // Empty digest: the receiving cohort replays its whole
                        // recent window to the other side.
                        recent: Vec::new(),
                    };
                    ctx.send(incumbents[0], intro(fresh.clone()));
                    ctx.send(fresh[0], intro(incumbents.clone()));
                }
            }
            self.memberships[i].upsert_branch(&branch, VIEW_DEPTH);
            self.regraft(i, &branch, ctx);
            if !was_live {
                self.flush_recent_to_branch(i, &branch, ctx);
            }
            return;
        }
        if let Some(n) = m.branch_toward(&pred, None).and_then(Branch::entry) {
            ctx.send(
                n,
                DpsMsg::Reattach {
                    branch,
                    ttl: ttl - 1,
                },
            );
            return;
        }
        // We are the designated predecessor: graft the orphan here.
        let was_live = self.memberships[i]
            .branch(&branch.label)
            .and_then(Branch::primary)
            .is_some();
        self.memberships[i].upsert_branch(&branch, VIEW_DEPTH);
        self.regraft(i, &branch, ctx);
        if !was_live {
            self.flush_recent_to_branch(i, &branch, ctx);
        }
    }

    /// Tells the nodes of the grafted `branch`'s own group that membership
    /// `i` is their parent now.
    fn regraft(&self, i: usize, branch: &BranchInfo, ctx: &mut Context<'_, DpsMsg>) {
        let me = self.id;
        let chain = self.parent_chain(&self.memberships[i]);
        let in_group = branch.refs.iter().filter(|r| r.label == branch.label);
        let to = in_group.map(|r| r.node).filter(|n| *n != me);
        self.send_new_parent(i, &branch.label, chain, to, ctx);
    }

    /// Sends `to` the `NewParent` naming membership `i` the parent of their
    /// group `child`, with `chain` to seed their predview.
    pub(crate) fn send_new_parent(
        &self,
        i: usize,
        child: &GroupLabel,
        chain: Vec<GroupRef>,
        to: impl Iterator<Item = NodeId>,
        ctx: &mut Context<'_, DpsMsg>,
    ) {
        let msg = DpsMsg::NewParent {
            child_label: child.clone(),
            parent: self.descriptor(&self.memberships[i]),
            parent_chain: chain,
        };
        for n in to {
            ctx.send(n, msg.clone());
        }
    }

    /// The chain membership `m` hands its children: its own contacts
    /// ([`own_refs`](Self::own_refs)), then its predecessors.
    fn parent_chain(&self, m: &Membership) -> Vec<GroupRef> {
        let mut chain = self.own_refs(m);
        chain.extend(m.predview.iter().cloned());
        chain
    }

    /// The branch membership `m` reports to its parent: its own contacts,
    /// then the first in-group ref of each of its children.
    fn child_report(&self, m: &Membership) -> BranchInfo {
        let mut refs = self.own_refs(m);
        for b in &m.branches {
            refs.extend(b.refs.iter().find(|r| r.label == b.label).cloned());
        }
        BranchInfo {
            label: m.label.clone(),
            refs,
        }
    }

    // ---- leadership announcements ----

    pub(crate) fn handle_group_info(
        &mut self,
        label: GroupLabel,
        leader: NodeId,
        co_leaders: Vec<NodeId>,
        owner: NodeId,
        owner_epoch: u64,
        ctx: &mut Context<'_, DpsMsg>,
    ) {
        let me = self.id;
        if let Some(m) = self.membership_mut(&label) {
            let owner_claim_wins = claim_beats((owner, owner_epoch), (m.owner, m.owner_epoch))
                || (owner, owner_epoch) == (m.owner, m.owner_epoch);
            if m.is_leader() && leader != me {
                // Two concurrent promotions: the smaller node id wins.
                if leader < me {
                    m.role = Role::CoLeader;
                    m.leader = leader;
                    m.co_leaders = co_leaders;
                    if owner_claim_wins {
                        m.owner = owner;
                        m.owner_epoch = owner_epoch;
                    }
                    // Our cohort is merging under the winner (same-label
                    // groups meeting after a duplicate-tree dissolve, or a
                    // promotion race): hand it our members/branches so the
                    // two member views actually unify, and point our members
                    // at the winning leader — without this the winner never
                    // learns our side existed and its forwards skip them.
                    ctx.send(leader, m.view_push(Vec::new()));
                    let info = group_info(m, leader);
                    let cohort: Vec<NodeId> = m
                        .members
                        .iter()
                        .copied()
                        .filter(|n| *n != me && *n != leader)
                        .collect();
                    for n in cohort {
                        ctx.send(n, info.clone());
                    }
                } else {
                    // Reassert our leadership to the pretender.
                    ctx.send(leader, group_info(m, me));
                }
                return;
            }
            m.leader = leader;
            if owner_claim_wins {
                m.owner = owner;
                m.owner_epoch = owner_epoch;
            }
            m.co_leaders = co_leaders.clone();
            m.add_member(leader);
            if leader == me {
                // Leadership handover (e.g. the previous leader unsubscribed and
                // named us heir).
                m.role = Role::Leader;
            } else if co_leaders.contains(&me) {
                m.role = Role::CoLeader;
            } else if m.role == Role::CoLeader {
                m.role = Role::Member;
            }
            return;
        }
        // Not our group: it may be a neighbor group we point at.
        let contacts = std::iter::once(leader).chain(co_leaders.iter().copied());
        let fresh = GroupRef::all_in(&label, contacts);
        for m in &mut self.memberships {
            if let Some(b) = m.branch_mut(&label) {
                // Refresh the in-group entries, keeping deeper levels.
                b.refs.retain(|r| r.label != label);
                let mut refs = fresh.clone();
                refs.append(&mut b.refs);
                b.refs = refs;
                b.refs.dedup();
            }
            if m.predview.iter().any(|r| r.label == label) {
                // The refreshed entries replace the stale ones in front: this
                // group is our nearest known predecessor level.
                m.predview.retain(|r| r.label != label);
                let mut pv = fresh.clone();
                pv.append(&mut m.predview);
                m.predview = pv;
            }
        }
    }

    pub(crate) fn handle_leader_gone(
        &mut self,
        label: GroupLabel,
        dead: NodeId,
        ctx: &mut Context<'_, DpsMsg>,
    ) {
        self.suspected.insert(node_key(dead));
        let Some(i) = self.membership_index(&label) else {
            return;
        };
        if self.memberships[i].leader != dead || self.memberships[i].is_leader() {
            return; // stale alarm
        }
        self.memberships[i].forget_node(dead);
        self.leader_takeover(i, dead, ctx);
    }

    pub(crate) fn handle_leave(
        &mut self,
        label: GroupLabel,
        member: NodeId,
        ctx: &mut Context<'_, DpsMsg>,
    ) {
        let Some(m) = self.membership_mut(&label) else {
            return;
        };
        m.forget_node(member);
        if m.is_leader() {
            let msg = DpsMsg::MemberLeft {
                label: label.clone(),
                member,
            };
            let cos = m.co_leaders.clone();
            for c in cos {
                ctx.send(c, msg.clone());
            }
            let i = self.membership_index(&label).unwrap();
            self.recruit_co_leaders(i);
        }
    }

    // ---- periodic maintenance ----

    /// Periodic work beyond heartbeats: peer shuffles, view exchange (leader
    /// mode), anti-entropy/merge pushes (epidemic mode), duplicate-tree walks.
    pub(crate) fn tick_periodic(&mut self, ctx: &mut Context<'_, DpsMsg>) {
        let now = ctx.now();
        let phase = self.id.index() as u64;

        // Peer shuffle every ~16 steps.
        if (now + phase).is_multiple_of(16) {
            let sample = self.peer_sample(ctx, 4);
            if let Some(p) = self.peer_sample(ctx, 1).first().copied() {
                ctx.send(p, DpsMsg::Shuffle { peers: sample });
            }
        }

        if (now + phase).is_multiple_of(VIEW_EXCHANGE_EVERY) {
            match self.cfg.comm {
                CommKind::Leader => self.leader_view_exchange(ctx),
                CommKind::Epidemic => self.epidemic_merge_push(ctx),
            }
            // Expire blocks whose CreateDone was lost to a crash, flushing the
            // withheld events toward whatever contact the branch still has.
            let limit = 2 * REQUEST_TIMEOUT;
            for i in 0..self.memberships.len() {
                for bi in 0..self.memberships[i].branches.len() {
                    let b = &mut self.memberships[i].branches[bi];
                    if b.blocked && now.saturating_sub(b.blocked_since) > limit {
                        b.blocked = false;
                        let tickets = std::mem::take(&mut b.buffered);
                        let b = &self.memberships[i].branches[bi];
                        for t in tickets {
                            self.send_to_branch(&b.label, &b.refs, t, ctx);
                        }
                    }
                }
            }
            // Orphans retry their reattachment.
            for i in 0..self.memberships.len() {
                if self.memberships[i].predview.is_empty() && !self.memberships[i].label.is_root() {
                    self.reattach_or_promote(i, ctx);
                }
            }
        }

        if (now + phase).is_multiple_of(OWNER_MERGE_EVERY) {
            self.owner_merge_walk(ctx);
        }
    }

    /// Leader-mode view exchange: parent chain down, child report up, full mirror
    /// to co-leaders (keeps multi-level views warm, §4: views "point not only to
    /// nodes in the direct successor group but also to successors/predecessors at
    /// upper/lower levels, in order to handle multiple concurrent failures
    /// involving a whole group at once").
    fn leader_view_exchange(&mut self, ctx: &mut Context<'_, DpsMsg>) {
        let me = self.id;
        for i in 0..self.memberships.len() {
            if !self.memberships[i].is_leader() {
                continue;
            }
            let m = &self.memberships[i];
            // Down: each child receives our identity plus our own predecessors.
            let mut chain = self.parent_chain(m);
            chain.truncate(PREDVIEW_CAP);
            for b in &m.branches {
                if let Some(n) = b.primary() {
                    if n != me {
                        ctx.send(
                            n,
                            DpsMsg::ParentChain {
                                child_label: b.label.clone(),
                                chain: chain.clone(),
                            },
                        );
                    }
                }
            }
            // Up: report ourselves and our children to the parent.
            if let Some(parent) = m.predview.first().filter(|p| p.node != me) {
                ctx.send(
                    parent.node,
                    DpsMsg::ChildReport {
                        parent_label: parent.label.clone(),
                        branch: self.child_report(m),
                    },
                );
            }
            // Mirror to co-leaders, built only when there is one to send to.
            if m.co_leaders.iter().all(|c| *c == me) {
                continue;
            }
            let push = m.view_push(self.recent_digest());
            for &c in &m.co_leaders {
                if c != me {
                    ctx.send(c, push.clone());
                }
            }
        }
    }

    /// Epidemic merge process (§4.2.2): periodically push the succview to
    /// successors and a view digest to a random member; receivers discover nodes
    /// they did not know, merging divergent groups.
    fn epidemic_merge_push(&mut self, ctx: &mut Context<'_, DpsMsg>) {
        let me = self.id;
        for i in 0..self.memberships.len() {
            let m = &self.memberships[i];
            let push = m.view_push(self.recent_digest());
            let mut targets: Vec<NodeId> = Vec::new();
            if let Some(n) = m
                .members
                .iter()
                .copied()
                .filter(|n| *n != me && !self.suspected.contains(&node_key(*n)))
                .choose(ctx.rng())
            {
                targets.push(n);
            }
            for b in &m.branches {
                if let Some(r) = b
                    .refs
                    .iter()
                    .find(|r| !self.suspected.contains(&node_key(r.node)))
                {
                    if r.node != me {
                        targets.push(r.node);
                    }
                }
            }
            for t in targets {
                ctx.send(t, push.clone());
            }
            // Multi-level exchange, as the leader-mode view exchange does: report
            // ourselves and our children upward so ancestors can bridge our whole
            // group failing; ship our predecessor chain downward. The report goes
            // to the first two live-believed parent entries — with a single
            // (possibly stale) target, one dead parent contact silences the
            // child for whole exchange periods.
            let parents: Vec<GroupRef> = m
                .predview
                .iter()
                .filter(|r| r.node != me && !self.suspected.contains(&node_key(r.node)))
                .take(2)
                .cloned()
                .collect();
            if !parents.is_empty() {
                let branch = self.child_report(m);
                for parent in parents {
                    ctx.send(
                        parent.node,
                        DpsMsg::ChildReport {
                            parent_label: parent.label,
                            branch: branch.clone(),
                        },
                    );
                }
            }
            let mut chain = self.parent_chain(m);
            chain.truncate(VIEW_DEPTH + 3);
            for b in &m.branches {
                if let Some(r) = b
                    .refs
                    .iter()
                    .find(|r| r.label == b.label && !self.suspected.contains(&node_key(r.node)))
                {
                    if r.node != me {
                        ctx.send(
                            r.node,
                            DpsMsg::ParentChain {
                                child_label: b.label.clone(),
                                chain: chain.clone(),
                            },
                        );
                    }
                }
            }
        }
    }

    /// A child refreshed its branch entry. Before accepting it we re-check
    /// constraint C2: if another of our branches lies on the child's designated
    /// path (it was re-parented while this report was in flight), the child
    /// belongs below that branch — route it down instead of resurrecting a stale
    /// direct edge.
    pub(crate) fn handle_child_report(
        &mut self,
        parent_label: GroupLabel,
        branch: BranchInfo,
        ctx: &mut Context<'_, DpsMsg>,
    ) {
        let Some(i) = self.membership_index(&parent_label) else {
            return;
        };
        let m = &self.memberships[i];
        let via = branch
            .label
            .predicate()
            .and_then(|pred| m.branch_toward(pred, Some(&branch.label)));
        if let Some(via) = via {
            let next = via.entry();
            self.memberships[i].remove_branch(&branch.label);
            if let Some(n) = next {
                ctx.send(
                    n,
                    DpsMsg::Reattach {
                        branch,
                        ttl: WALK_TTL,
                    },
                );
            }
            return;
        }
        let was_live = self.memberships[i]
            .branch(&branch.label)
            .and_then(Branch::primary)
            .is_some();
        self.memberships[i].upsert_branch(&branch, VIEW_DEPTH);
        if !was_live {
            // The child went silent long enough to lose its direct entry (or
            // was never attached here): besides restoring the pointer, replay
            // what it may have missed.
            self.flush_recent_to_branch(i, &branch, ctx);
        }
    }

    pub(crate) fn handle_view_pull(
        &mut self,
        from: NodeId,
        label: GroupLabel,
        ctx: &mut Context<'_, DpsMsg>,
    ) {
        let Some(m) = self.membership(&label) else {
            return;
        };
        ctx.send(from, m.view_push(self.recent_digest()));
    }

    #[allow(clippy::too_many_arguments)]
    pub(crate) fn handle_view_push(
        &mut self,
        from: NodeId,
        label: GroupLabel,
        members: Vec<NodeId>,
        predview: Vec<GroupRef>,
        branches: Vec<BranchInfo>,
        recent: Vec<PubId>,
        ctx: &mut Context<'_, DpsMsg>,
    ) {
        let epidemic = self.cfg.comm == CommKind::Epidemic;
        let cap = if epidemic { GROUP_VIEW_CAP } else { usize::MAX };
        let me = self.id;
        let Some(i) = self.membership_index(&label) else {
            return;
        };
        let m = &mut self.memberships[i];
        for n in members {
            if !self.suspected.contains(&node_key(n)) {
                m.add_member(n);
            }
        }
        m.evict_members_to_cap(cap, me, ctx.rng());
        m.merge_predview(&predview, PREDVIEW_CAP);
        for b in branches {
            if b.label != label {
                m.upsert_branch(&b, VIEW_DEPTH);
            }
        }
        // A leader absorbing members it did not know (a demoted same-label
        // cohort handing itself over) tops its co-leadership back up from the
        // enlarged membership and announces, so the merged group can survive
        // the leader leaving or crashing — and so the newcomers learn they
        // are ours.
        if !epidemic && m.is_leader() {
            let before = m.co_leaders.len();
            self.recruit_co_leaders(i);
            let m = &self.memberships[i];
            if m.co_leaders.len() != before {
                let info = group_info(m, me);
                for &n in m.members.iter().filter(|n| **n != me) {
                    ctx.send(n, info.clone());
                }
            }
        }
        // Publication anti-entropy (the merge process applied to events, in
        // the spirit of lpbcast): answer the pusher with the fresh matching
        // publications we hold. A member that partial-view gossip skipped
        // pushes its view somewhere within a couple of exchange periods and
        // gets the missed events straight back; receivers deduplicate, so the
        // exchange is idempotent.
        if epidemic {
            let now = ctx.now();
            let window = 4 * VIEW_EXCHANGE_EVERY;
            let missing: Vec<(PubId, SharedEvent)> = self
                .recent_pubs
                .iter()
                .filter(|(id, _, _)| !recent.contains(id))
                .filter(|(_, _, at)| now.saturating_sub(*at) <= window)
                .filter(|(_, ev, _)| label.matches_event(ev))
                .map(|(id, ev, _)| (*id, ev.clone()))
                .collect();
            for (id, event) in missing {
                ctx.send(
                    from,
                    DpsMsg::PublishGroup {
                        id,
                        event,
                        label: label.clone(),
                    },
                );
            }
        }
    }

    /// Pending-request timeouts, from `on_tick`.
    pub(crate) fn tick_pending(&mut self, ctx: &mut Context<'_, DpsMsg>) {
        self.tick_lookups(ctx);
        self.retry_due_subscriptions(ctx);
        self.retry_due_publications(ctx);
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use super::*;
    use crate::config::{DpsConfig, TraversalKind};
    use crate::views::Membership;

    /// The set `tick_probes` reconciled against before the buffer: built as a
    /// `BTreeSet`, whose iteration order decided which new probe drew its
    /// period from the node's RNG first.
    fn reference_targets(node: &DpsNode) -> BTreeSet<NodeId> {
        let mut set = BTreeSet::new();
        for m in &node.memberships {
            match node.cfg.comm {
                CommKind::Leader => {
                    if m.is_leader() {
                        set.extend(m.co_leaders.iter().copied());
                        for b in &m.branches {
                            set.extend(b.primary());
                        }
                        set.extend(m.predview.first().map(|r| r.node));
                    } else {
                        set.insert(m.leader);
                        set.extend(m.co_leaders.iter().copied());
                    }
                }
                CommKind::Epidemic => {
                    set.extend(m.members.iter().take(3).copied());
                    set.extend(m.predview.iter().take(2).map(|r| r.node));
                    for b in &m.branches {
                        set.extend(b.refs.first().map(|r| r.node));
                    }
                }
            }
        }
        set.remove(&node.id);
        set
    }

    #[test]
    fn monitor_targets_fill_the_buffer_in_the_old_sets_order() {
        let n = |i: usize| NodeId::from_index(i % 23);
        for comm in [CommKind::Leader, CommKind::Epidemic] {
            let mut node = DpsNode::new(DpsConfig::named(TraversalKind::Root, comm));
            node.id = n(5);
            for k in 0..64usize {
                let label = GroupLabel::Pred(format!("x > {k}").parse().unwrap());
                let gref = |i: usize| GroupRef {
                    label: label.clone(),
                    node: n(i),
                };
                let role = [Role::Leader, Role::Member, Role::CoLeader][k % 3];
                let mut m = Membership::new(None, label.clone(), role, node.id);
                m.leader = n(k * 7);
                m.co_leaders = vec![n(k + 1), n(k * 3), n(5)];
                m.members = vec![n(k), n(5), n(k + 9), n(k + 11)];
                m.predview = vec![gref(k + 2), gref(k * 5), gref(k + 4)];
                m.branches = vec![
                    Branch::new(label.clone(), vec![gref(k + 13), gref(k)]),
                    Branch::new(GroupLabel::Root("x".into()), vec![gref(k + 6)]),
                    Branch::new(label.clone(), vec![]),
                ];
                node.adopt(m);
            }
            // Stale content must not leak through.
            let mut buf = vec![n(22), n(22), n(1)];
            node.monitor_targets(&mut buf);
            assert!(buf.windows(2).all(|w| w[0] < w[1]), "sorted, no duplicates");
            assert!(!buf.contains(&node.id));
            assert!(buf.len() > 10, "the fixture covers most of the id space");
            assert!(buf.iter().copied().eq(reference_targets(&node)));
        }
    }
}
