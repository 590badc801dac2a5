//! The publication side of §4.1/§4.2: inter-group routing with downstream
//! pruning (root-based) or bidirectional diffusion (generic), and intra-group
//! delivery by leader fan-out or gossip.

use dps_content::{AttrName, SharedEvent};
use dps_sim::{Context, NodeId};
use rand::seq::IteratorRandom;
use rand::Rng;

use crate::config::{
    CommKind, TraversalKind, GOSSIP_P0, GOSSIP_ROUNDS, HOP_BACKSTOP, INTER_GROUP_FANOUT,
    REPUB_WINDOW, REQUEST_TIMEOUT,
};
use crate::label::GroupLabel;
use crate::msg::{BranchInfo, DpsMsg, GroupRef, PubId, PubTicket};
use crate::node::{route_key, ActiveGossip, DpsNode, PendingPub, TreeLookup};

/// Timeouts a publication may spend unacknowledged before it is dropped: its
/// trees are known (discovery gives up much sooner, at `FIND_TREE_RETRIES`),
/// yet every contact tried stayed silent.
const MAX_PUB_RETRIES: u32 = 12;

/// The ticket carrying publication `id` through the tree of `attr` toward
/// group `target` (`None` at the entry hop: the receiver picks one of its
/// memberships), `ttl` hops left. As built it travels downstream and owes
/// no acknowledgement; the entry hop and a generic climb adjust both.
fn ticket(
    id: PubId,
    event: &SharedEvent,
    attr: AttrName,
    mode: TraversalKind,
    target: Option<GroupLabel>,
    ttl: u32,
) -> PubTicket {
    PubTicket {
        id,
        event: event.clone(),
        attr,
        mode,
        target,
        from_child: None,
        downstream: true,
        ack_to: None,
        ttl,
    }
}

impl DpsNode {
    /// Publishes an event: it is routed into the tree of **every** attribute it
    /// carries (§3: "each event is published in each logical tree that matches
    /// every attribute of the event").
    ///
    /// A tree not yet known to this node is discovered by random walks first,
    /// one lookup per attribute however many publications wait on it. If the
    /// walks and their [`FIND_TREE_RETRIES`](crate::config::FIND_TREE_RETRIES)
    /// retries find nothing, the attribute is skipped — no tree means no
    /// subscriber on that attribute — and stays skipped, without walking
    /// again, for one [`OWNER_MERGE_EVERY`](crate::config::OWNER_MERGE_EVERY)
    /// period or until this node hears of the tree (`TreeFound`,
    /// `OwnerAnnounce`, joining it), whichever is first.
    /// The event is wrapped into a [`SharedEvent`] here (or handed over
    /// pre-wrapped) — the **only** payload allocation of the publication's
    /// lifetime; every hop after this point clones the refcount.
    pub fn publish(
        &mut self,
        event: impl Into<SharedEvent>,
        ctx: &mut Context<'_, DpsMsg>,
    ) -> PubId {
        let event = event.into();
        let id = PubId(self.id, self.next_pub);
        self.next_pub += 1;
        let attrs: Vec<AttrName> = event
            .names()
            .filter(|a| !matches!(self.lookup(a), Some(TreeLookup::Absent { .. })))
            .cloned()
            .collect();
        for attr in &attrs {
            if self.tree_contact(attr).is_some() {
                self.send_publication(id, &event, attr.clone(), ctx);
            } else {
                self.start_walk(attr.clone(), ctx);
            }
        }
        // The publication stays pending per attribute until a tree member
        // acknowledges it (stale contacts are re-walked and the event resent).
        if !attrs.is_empty() {
            self.pending_pubs.push(PendingPub {
                id,
                event,
                attrs,
                deadline: ctx.now() + REQUEST_TIMEOUT,
                retries: 0,
            });
        }
        id
    }

    /// A tree accepted one of our pending publications.
    pub(crate) fn handle_pub_ack(&mut self, id: PubId, attr: AttrName) {
        for p in &mut self.pending_pubs {
            if p.id == id {
                p.attrs.retain(|a| *a != attr);
            }
        }
        self.pending_pubs.retain(|p| !p.attrs.is_empty());
    }

    /// Injects the publication into the tree of `attr`: to the owner for
    /// root-based dissemination, to any contact for generic.
    pub(crate) fn send_publication(
        &mut self,
        id: PubId,
        event: &SharedEvent,
        attr: AttrName,
        ctx: &mut Context<'_, DpsMsg>,
    ) {
        let mode = self.cfg.traversal;
        let mut ticket = ticket(id, event, attr.clone(), mode, None, HOP_BACKSTOP);
        ticket.downstream = mode == TraversalKind::Root;
        ticket.ack_to = Some(self.id);
        // Root-based entry goes to the owner — unless the owner is suspected
        // (dead or cut off), in which case a tree membership of our own is a
        // far better entry than a black hole: the event at least reaches our
        // reachable part of the tree.
        let owner = match mode {
            TraversalKind::Root => self.known_owner(&attr),
            TraversalKind::Generic => None,
        };
        let owner = owner.filter(|o| !self.suspects(*o));
        match owner.or_else(|| self.tree_contact(&attr)) {
            Some(n) if n == self.id => self.handle_publish(ticket, ctx),
            Some(n) => ctx.send(n, DpsMsg::Publish(ticket)),
            None => {}
        }
    }

    /// Retries publications no tree member acknowledged within
    /// `REQUEST_TIMEOUT` (from `on_tick`). Discovery is not retried here: an
    /// attribute still being walked for belongs to its lookup
    /// (`tick_lookups`), which resends on `TreeFound` and drops the
    /// attribute when it gives up.
    pub(crate) fn retry_due_publications(&mut self, ctx: &mut Context<'_, DpsMsg>) {
        let now = ctx.now();
        if self.pending_pubs.iter().all(|p| p.deadline > now) {
            return;
        }
        let mut silent: Vec<AttrName> = Vec::new();
        let mut resend: Vec<(PubId, SharedEvent, Vec<AttrName>)> = Vec::new();
        self.pending_pubs.retain_mut(|p| {
            if p.deadline > now {
                return true;
            }
            p.retries += 1;
            if p.retries > MAX_PUB_RETRIES {
                return false;
            }
            p.deadline = now + REQUEST_TIMEOUT;
            for attr in &p.attrs {
                if !silent.contains(attr) {
                    silent.push(attr.clone());
                }
            }
            resend.push((p.id, p.event.clone(), p.attrs.clone()));
            true
        });
        // An attribute still being looked up was never sent anywhere; the
        // others went to a contact that had a whole timeout to acknowledge
        // and did not.
        silent.retain(|attr| self.lookup(attr).is_none());
        // That contact is usually dead: drop it and rediscover the tree
        // before resending — one walk per attribute however many
        // publications wait on it. After several silent rounds, actively
        // suspect the contact so stale caches elsewhere cannot keep steering
        // us back to it (a live node clears the suspicion the moment it
        // sends us anything).
        let stubborn: Vec<AttrName> = self
            .pending_pubs
            .iter()
            .filter(|p| p.retries >= 3)
            .flat_map(|p| p.attrs.iter().cloned())
            .collect();
        for attr in &silent {
            self.drop_tree_contact(attr, stubborn.contains(attr));
        }
        for attr in silent {
            self.start_walk(attr, ctx);
        }
        for (id, event, attrs) in resend {
            for attr in attrs {
                if self.in_tree(&attr) {
                    self.send_publication(id, &event, attr, ctx);
                }
            }
        }
    }

    /// Inter-group publication step (§4.1).
    pub(crate) fn handle_publish(&mut self, mut t: PubTicket, ctx: &mut Context<'_, DpsMsg>) {
        if t.ttl == 0 {
            return;
        }
        t.ttl -= 1;
        let Some(first) = self.memberships_in(&t.attr).next() else {
            // Not in the tree (an entry hop from a publisher with a stale cache).
            return self.relay_off_tree(t, |t| &t.attr, DpsMsg::Publish, ctx);
        };
        // Root-based dissemination must enter at the root (unless the owner is
        // suspected dead — then inject here rather than lose the event).
        if t.target.is_none() && t.mode == TraversalKind::Root && !self.owns_tree(&t.attr) {
            if let Some(owner) = self.root_entry(&t.attr) {
                ctx.send(owner, DpsMsg::Publish(t));
                return;
            }
        }
        let i = match &t.target {
            Some(lbl) => match self.membership_index(lbl) {
                Some(i) => i,
                None => {
                    // We are no longer in the target group (left or re-parented
                    // since the sender's view was formed). Relay to a current
                    // member if any of our branches knows one.
                    let forward = self
                        .memberships
                        .iter()
                        .filter_map(|m| m.branch(lbl))
                        .filter_map(|b| b.primary())
                        .find(|n| *n != self.id);
                    if let Some(n) = forward {
                        ctx.send(n, DpsMsg::Publish(t));
                        return;
                    }
                    first
                }
            },
            // Entry hop: prefer our root membership (root mode), else any.
            None => self
                .memberships_in(&t.attr)
                .find(|&i| self.memberships[i].label.is_root())
                .unwrap_or(first),
        };
        self.process_publish_at(i, t, ctx);
    }

    fn process_publish_at(&mut self, i: usize, t: PubTicket, ctx: &mut Context<'_, DpsMsg>) {
        // Leader mode: the leader processes it, addressed to this group.
        let label = &self.memberships[i].label;
        let to_leader = |mut t: PubTicket| {
            t.target = Some(label.clone());
            DpsMsg::Publish(t)
        };
        let Some(mut t) = self.defer_to_leader(i, t, to_leader, ctx) else {
            return;
        };

        // Acknowledge the publisher (resends after the ack are deduplicated).
        if let Some(origin) = t.ack_to.take() {
            ctx.send(
                origin,
                DpsMsg::PubAck {
                    id: t.id,
                    attr: t.attr.clone(),
                },
            );
        }

        // Each group processes a publication once (dedup keyed by the label id
        // interned beside the membership — no label hashed or cloned per hop).
        let route = route_key(t.id, self.memberships[i].route_id);
        if !self.seen_route.insert(route) {
            return;
        }

        if self.memberships[i].label.matches_event(&t.event) {
            self.deliver_local(t.id, &t.event, ctx.now());
            self.remember_pub(t.id, &t.event, ctx.now());
            self.spread_in_group(i, t.id, &t.event, ctx);
            // Downstream: forward into every matching child branch (the pruning
            // rule: a non-matching child's whole subtree cannot match).
            self.forward_downstream(i, t.id, &t.event, t.from_child.as_ref(), t.ttl, ctx);
        }

        // Upstream (generic traversal only): anything not yet traveling
        // downstream keeps climbing toward the root, whether it matched here or
        // not (§4.1: "if the event does not match the group predicate, it still
        // has to be forwarded upstream"). Suspected parent entries are skipped
        // — an unfiltered `predview.first()` was a single path into a possibly
        // dead node, losing the whole upper tree — and epidemic mode climbs
        // through two entries for redundancy (dedup absorbs the overlap).
        let m = &self.memberships[i];
        if t.mode == TraversalKind::Generic && !t.downstream && !m.label.is_root() {
            let fanout = if self.cfg.comm == CommKind::Epidemic {
                2
            } else {
                1
            };
            let mut live = m
                .predview
                .iter()
                .filter(|r| r.node != self.id && !self.suspects(r.node))
                .take(fanout)
                .peekable();
            // Every known parent is suspect: try the first anyway rather than
            // dropping the climb on the floor.
            let last_resort = match live.peek() {
                Some(_) => None,
                None => m.predview.iter().find(|r| r.node != self.id),
            };
            for up in live.chain(last_resort) {
                let target = Some(up.label.clone());
                let mut up_ticket = ticket(t.id, &t.event, t.attr.clone(), t.mode, target, t.ttl);
                up_ticket.from_child = Some(m.label.clone());
                up_ticket.downstream = false;
                ctx.send(up.node, DpsMsg::Publish(up_ticket));
            }
        }
    }

    /// Forwards a publication into every matching child branch of membership
    /// `i` (downstream pruning: a non-matching child's whole subtree cannot
    /// match). Tickets toward blocked branches (group under construction,
    /// §4.1) are withheld and flushed on `CreateDone`.
    pub(crate) fn forward_downstream(
        &mut self,
        i: usize,
        id: PubId,
        event: &SharedEvent,
        from_child: Option<&GroupLabel>,
        ttl: u32,
        ctx: &mut Context<'_, DpsMsg>,
    ) {
        let mode = self.cfg.traversal;
        for bi in 0..self.memberships[i].branches.len() {
            let m = &self.memberships[i];
            let b = &m.branches[bi];
            if Some(&b.label) == from_child || !b.label.matches_event(event) {
                continue;
            }
            let attr = m.label.attr().clone();
            let child_ticket = ticket(id, event, attr, mode, Some(b.label.clone()), ttl);
            if b.blocked {
                // Several members may buffer the same withheld event.
                let buffered = &mut self.memberships[i].branches[bi].buffered;
                if !buffered.iter().any(|x| x.id == id) {
                    buffered.push(child_ticket);
                }
            } else {
                self.send_to_branch(&b.label, &b.refs, child_ticket, ctx);
            }
        }
    }

    /// Hands a publication to the child branch `label` through its pointers
    /// `refs`: to the child leader in leader mode, to `k'` child-group nodes
    /// in epidemic mode (§5.1's "number of nodes contacted on the next
    /// level").
    pub(crate) fn send_to_branch(
        &self,
        label: &GroupLabel,
        refs: &[GroupRef],
        t: PubTicket,
        ctx: &mut Context<'_, DpsMsg>,
    ) {
        // A send to ourselves is legitimate (one node may lead adjacent groups);
        // the per-group dedup prevents cycles.
        match self.cfg.comm {
            CommKind::Leader => {
                let target = refs
                    .iter()
                    .find(|r| r.label == *label)
                    .or_else(|| refs.first());
                if let Some(r) = target {
                    ctx.send(r.node, DpsMsg::Publish(t));
                }
            }
            CommKind::Epidemic => {
                // `k'` random live-believed entries of the child group (random,
                // not first-k: under churn the head of the ref list is exactly
                // the stalest part), deeper refs as a fallback bridge.
                let in_group: Vec<NodeId> = refs
                    .iter()
                    .filter(|r| r.label == *label)
                    .map(|r| r.node)
                    .filter(|n| !self.suspects(*n))
                    .choose_multiple(ctx.rng(), INTER_GROUP_FANOUT);
                let bridge = if in_group.is_empty() {
                    refs.iter()
                        .map(|r| r.node)
                        .find(|n| !self.suspects(*n))
                        .or_else(|| refs.first().map(|r| r.node))
                } else {
                    None
                };
                // Express hops: also infect the deeper levels the succview
                // already points at (§4: views hold successors "at upper/lower
                // levels"). Skipping levels halves the dissemination latency
                // of deep predicate chains — under churn, latency is delivery
                // probability, because expected subscribers keep crashing
                // while the event is still descending. The per-group dedup
                // absorbs the overlap with the level-by-level flow.
                let deeper = refs
                    .iter()
                    .filter(|r| r.label != *label && !self.suspects(r.node))
                    .filter(|r| r.label.matches_event(&t.event))
                    .take(INTER_GROUP_FANOUT);
                for r in deeper {
                    let mut express = t.clone();
                    express.target = Some(r.label.clone());
                    ctx.send(r.node, DpsMsg::Publish(express));
                }
                for n in in_group.into_iter().chain(bridge) {
                    ctx.send(n, DpsMsg::Publish(t.clone()));
                }
            }
        }
    }

    /// Intra-group delivery (`PUBLISH_GROUP`): leader fan-out or gossip seed.
    fn spread_in_group(
        &mut self,
        i: usize,
        id: PubId,
        event: &SharedEvent,
        ctx: &mut Context<'_, DpsMsg>,
    ) {
        match self.cfg.comm {
            CommKind::Leader => {
                let m = &self.memberships[i];
                for &n in m.members.iter().filter(|n| **n != self.id) {
                    ctx.send(
                        n,
                        DpsMsg::PublishGroup {
                            id,
                            event: event.clone(),
                            label: m.label.clone(),
                        },
                    );
                }
            }
            CommKind::Epidemic => self.start_gossip(i, id, event, ctx),
        }
    }

    /// Starts gossiping a freshly received publication within group `i`: one
    /// fan-out round now (§4.2.2's infection step), then one round per step
    /// with probability `p0 / (1 + r)` until `GOSSIP_ROUNDS` rounds elapsed
    /// (see [`tick_gossip`](Self::tick_gossip)). The decay counts *this
    /// node's* forwards — a receiver at the infection frontier always starts
    /// at full probability, which keeps the epidemic supercritical in large
    /// groups (a single decaying shot per receiver dies out after reaching
    /// `e − 1 ≈ 1.7` members per seed, the root cause of the fig 3(a)
    /// epidemic under-delivery).
    pub(crate) fn start_gossip(
        &mut self,
        i: usize,
        id: PubId,
        event: &SharedEvent,
        ctx: &mut Context<'_, DpsMsg>,
    ) {
        self.gossip_round(i, id, event, ctx);
        self.active_gossip.push(ActiveGossip {
            label: self.memberships[i].label.clone(),
            id,
            event: event.clone(),
            rounds: 1,
        });
    }

    /// One gossip round: forward to `k` random live-believed group members.
    fn gossip_round(
        &self,
        i: usize,
        id: PubId,
        event: &SharedEvent,
        ctx: &mut Context<'_, DpsMsg>,
    ) {
        let k = self.cfg.gossip_fanout.max(1);
        let m = &self.memberships[i];
        let targets: Vec<NodeId> = m
            .members
            .iter()
            .copied()
            .filter(|n| *n != self.id && !self.suspects(*n))
            .choose_multiple(ctx.rng(), k);
        for n in targets {
            ctx.send(
                n,
                DpsMsg::PublishGroup {
                    id,
                    event: event.clone(),
                    label: m.label.clone(),
                },
            );
        }
    }

    /// Drives the per-step gossip rounds of every active publication (from
    /// `on_tick`). Round `r` fires with probability `p0 / (1 + r)`; a
    /// publication retires after `GOSSIP_ROUNDS` rounds or when we leave the
    /// group. Each round resamples its `k` targets, so members that crashed
    /// since the last round cost one wasted send, not the whole infection.
    pub(crate) fn tick_gossip(&mut self, ctx: &mut Context<'_, DpsMsg>) {
        if self.active_gossip.is_empty() {
            return;
        }
        let mut items = std::mem::take(&mut self.active_gossip);
        items.retain_mut(|g| {
            let Some(i) = self.membership_index(&g.label) else {
                return false;
            };
            if ctx.rng().random::<f64>() < GOSSIP_P0 / (1 + g.rounds) as f64 {
                self.gossip_round(i, g.id, &g.event, ctx);
            }
            g.rounds += 1;
            g.rounds < GOSSIP_ROUNDS
        });
        // `items` was detached while rounds ran; a round starts no gossip.
        debug_assert!(self.active_gossip.is_empty(), "a round started gossip");
        self.active_gossip = items;
    }

    /// Receipt of an intra-group publication.
    pub(crate) fn handle_publish_group(
        &mut self,
        _from: NodeId,
        id: PubId,
        event: SharedEvent,
        label: GroupLabel,
        ctx: &mut Context<'_, DpsMsg>,
    ) {
        let Some(i) = self.membership_index(&label) else {
            // We left the group but the event still reached us; deliver anyway.
            self.deliver_local(id, &event, ctx.now());
            return;
        };
        let route = route_key(id, self.memberships[i].route_id);
        if !self.seen_route.insert(route) {
            return;
        }
        self.deliver_local(id, &event, ctx.now());
        self.remember_pub(id, &event, ctx.now());
        if self.cfg.comm == CommKind::Epidemic {
            self.start_gossip(i, id, &event, ctx);
            // §4.2.2: infected members also contact the next level. A sampled
            // subset (expected ~3 forwarders per group, plus the entry node)
            // hands the event to their own succview branches — so one stale
            // entry-node ref no longer costs the whole subtree, without every
            // member multiplying inter-group traffic by the group size.
            if !self.memberships[i].branches.is_empty() {
                let view = self.memberships[i].members.len().max(3);
                if ctx.rng().random::<f64>() < 3.0 / view as f64 {
                    self.forward_downstream(i, id, &event, None, HOP_BACKSTOP, ctx);
                }
            }
        }
    }

    /// Re-flushes the recent matching publications into branch `b` of
    /// membership `i` — called right after the branch was repaired (adopted
    /// through deeper refs, re-attached, or reported back by a child after a
    /// silent window). Any publication that crossed this edge while it was
    /// dead is otherwise lost for the whole subtree; re-flushing is safe
    /// because every group processes a publication id once.
    pub(crate) fn flush_recent_to_branch(
        &self,
        i: usize,
        b: &BranchInfo,
        ctx: &mut Context<'_, DpsMsg>,
    ) {
        let now = ctx.now();
        let fresh = self.recent_pubs.iter().filter(|(_, ev, at)| {
            now.saturating_sub(*at) <= REPUB_WINDOW && b.label.matches_event(ev)
        });
        let (attr, mode) = (self.memberships[i].label.attr(), self.cfg.traversal);
        for (id, event, _) in fresh {
            let target = Some(b.label.clone());
            let t = ticket(*id, event, attr.clone(), mode, target, HOP_BACKSTOP);
            self.send_to_branch(&b.label, &b.refs, t, ctx);
        }
    }
}
