//! Bootstrap substrate: random peer sampling, tree-discovery random walks, owner
//! announcements, tree creation and duplicate-tree dissolution (§4.1: "it is
//! always possible to locate a contact point in any of the trees, for example by
//! propagating a request message with random walks. ... the node that creates a
//! tree starts periodically a new traversal, in order to detect duplicate trees
//! and merge them into one").

use dps_content::AttrName;
use dps_sim::{Context, NodeId};
use rand::seq::IteratorRandom;

use crate::config::{
    CommKind, TraversalKind, FIND_TREE_RETRIES, HOP_BACKSTOP, OWNER_MERGE_EVERY, PEER_VIEW,
    PROBE_TIMEOUT, REQUEST_TIMEOUT, WALK_TTL,
};
use crate::label::GroupLabel;
use crate::msg::{DpsMsg, Ticket};
use crate::node::{claim_beats, node_key, DpsNode, SubPhase, TreeContact, TreeLookup};

impl DpsNode {
    pub(crate) fn handle_shuffle(
        &mut self,
        from: NodeId,
        peers: Vec<NodeId>,
        ctx: &mut Context<'_, DpsMsg>,
    ) {
        let mine = self.peer_sample(ctx, 4);
        self.merge_peers(&peers);
        // `from` itself is never suspected here: `on_message` retracted it.
        self.merge_peers(&[from]);
        ctx.send(from, DpsMsg::ShuffleReply { peers: mine });
    }

    pub(crate) fn merge_peers(&mut self, peers: &[NodeId]) {
        for p in peers {
            if *p != self.id && !self.peers.contains(p) && !self.suspected.contains(&node_key(*p)) {
                self.peers.push(*p);
            }
        }
        // Trim oldest-first beyond capacity (newest information is freshest).
        if self.peers.len() > PEER_VIEW {
            self.peers.drain(0..self.peers.len() - PEER_VIEW);
        }
    }

    pub(crate) fn peer_sample(&mut self, ctx: &mut Context<'_, DpsMsg>, n: usize) -> Vec<NodeId> {
        let me = self.id;
        self.peers
            .iter()
            .copied()
            .filter(|p| *p != me)
            .choose_multiple(ctx.rng(), n)
    }

    /// Makes sure a random walk for the tree of `attr` is in flight: a no-op
    /// while one is — every subscription and publication waiting on the
    /// attribute shares its answer (`resume_for_attr`), and answers that land
    /// in a suspicion guard cannot stack walks — and a fresh lookup otherwise.
    /// A remembered absence is forgotten: only `publish` trusts it, and the
    /// callers here are subscriptions and owners checking for duplicates.
    pub(crate) fn start_walk(&mut self, attr: AttrName, ctx: &mut Context<'_, DpsMsg>) {
        match self.lookup(&attr) {
            Some(TreeLookup::Absent { .. }) => self.lookups.retain(|(a, _)| *a != attr),
            Some(_) => return,
            None => {}
        }
        self.send_walk(attr, 0, ctx);
    }

    /// Launches one walk pair for `attr`, `misses` pairs having ended empty
    /// before it.
    fn send_walk(&mut self, attr: AttrName, misses: u32, ctx: &mut Context<'_, DpsMsg>) {
        let deadline = ctx.now() + REQUEST_TIMEOUT;
        let origin = self.id;
        // Two parallel walks ("random walks", §4.1): a single walk dies
        // whenever one hop lands on a crashed peer, which is common under churn.
        for peer in self.peer_sample(ctx, 2) {
            ctx.send(
                peer,
                DpsMsg::FindTree {
                    attr: attr.clone(),
                    origin,
                    ttl: WALK_TTL,
                },
            );
        }
        // With no peers at all nothing is sent; the deadline expires and the
        // lookup ends like any other unanswered walk.
        self.lookups
            .push((attr, TreeLookup::Walking { misses, deadline }));
    }

    /// Lookup timeouts, from `on_tick`: takes every walk pair that ended this
    /// step without finding the tree — answered `TreeNotFound`, or not
    /// answered by its deadline — and decides what its waiters do next.
    ///
    /// Waiting subscriptions become due at once: `retry_due_subscriptions`,
    /// next in this tick, counts the round on each and has it walk again or —
    /// past `FIND_TREE_RETRIES` — create the tree (§4.1).
    ///
    /// With only publications waiting, the walk is repeated
    /// `FIND_TREE_RETRIES` times and then they skip the attribute: no tree
    /// means no subscriber on it. If that last pair was *answered* empty —
    /// `WALK_TTL` hops met nobody who knows the tree, where a lost walk says
    /// nothing — the absence is remembered for one `OWNER_MERGE_EVERY`
    /// period, so the publications that follow do not each walk again.
    pub(crate) fn tick_lookups(&mut self, ctx: &mut Context<'_, DpsMsg>) {
        let now = ctx.now();
        self.lookups
            .retain(|(_, l)| !matches!(l, TreeLookup::Absent { until } if *until <= now));
        let ended: Vec<(AttrName, u32, bool)> = self
            .lookups
            .iter()
            .filter_map(|(a, l)| match *l {
                TreeLookup::Empty { misses } => Some((a.clone(), misses, true)),
                TreeLookup::Walking { misses, deadline } if deadline <= now => {
                    Some((a.clone(), misses, false))
                }
                _ => None,
            })
            .collect();
        for (attr, misses, answered) in ended {
            self.lookups.retain(|(a, _)| *a != attr);
            let mut subscribing = false;
            for p in &mut self.pending_subs {
                if p.phase == SubPhase::FindingTree && p.pred.name() == &attr {
                    p.deadline = now;
                    subscribing = true;
                }
            }
            if subscribing || !self.pending_pubs.iter().any(|p| p.attrs.contains(&attr)) {
                // The subscriptions take it from here; or nobody waits (an
                // owner's duplicate check, a request served some other way).
                continue;
            }
            if misses < FIND_TREE_RETRIES {
                self.send_walk(attr, misses + 1, ctx);
                continue;
            }
            for p in &mut self.pending_pubs {
                p.attrs.retain(|a| *a != attr);
            }
            self.pending_pubs.retain(|p| !p.attrs.is_empty());
            if answered {
                let until = now + OWNER_MERGE_EVERY;
                self.lookups.push((attr, TreeLookup::Absent { until }));
            }
        }
    }

    /// Caches a contact for the tree of `attr`. Whatever names a contact also
    /// proves the tree exists, so a remembered absence ends here.
    pub(crate) fn cache_tree(
        &mut self,
        attr: AttrName,
        contact: NodeId,
        owner: Option<NodeId>,
        epoch: u64,
    ) {
        self.lookups
            .retain(|(a, l)| *a != attr || !matches!(l, TreeLookup::Absent { .. }));
        self.tree_cache.insert(
            attr,
            TreeContact {
                contact,
                owner,
                epoch,
            },
        );
    }

    pub(crate) fn handle_find_tree(
        &mut self,
        attr: AttrName,
        origin: NodeId,
        ttl: u32,
        ctx: &mut Context<'_, DpsMsg>,
    ) {
        // Am I in the tree?
        if self.in_tree(&attr) {
            let (owner, epoch) = match self.known_owner_claim(&attr) {
                Some((o, e)) => (Some(o), e),
                None => (None, 0),
            };
            ctx.send(
                origin,
                DpsMsg::TreeFound {
                    attr,
                    contact: self.id,
                    owner,
                    epoch,
                },
            );
            return;
        }
        // Do I know a (live, as far as we can tell) contact?
        if let Some(c) = self.tree_cache.get(&attr) {
            let (contact, owner, epoch) = (c.contact, c.owner, c.epoch);
            if !self.suspected.contains(&node_key(contact)) {
                ctx.send(
                    origin,
                    DpsMsg::TreeFound {
                        attr,
                        contact,
                        owner,
                        epoch,
                    },
                );
                return;
            }
        }
        let next = {
            let me = self.id;
            let suspected = &self.suspected;
            self.peers
                .iter()
                .copied()
                .filter(|p| *p != origin && *p != me && !suspected.contains(&node_key(*p)))
                .choose(ctx.rng())
        };
        match next {
            Some(p) if ttl > 0 => ctx.send(
                p,
                DpsMsg::FindTree {
                    attr,
                    origin,
                    ttl: ttl - 1,
                },
            ),
            _ => ctx.send(origin, DpsMsg::TreeNotFound { attr }),
        }
    }

    /// A walk came back empty: the pair in flight is over. This step's
    /// `on_tick` decides what follows (`tick_lookups`) — never inline here:
    /// the pair's second answer, arriving in the same step, would meet the
    /// fresh walk and end it too.
    pub(crate) fn handle_tree_not_found(&mut self, attr: AttrName) {
        // An answer without a walk in flight is stale (from an earlier pair).
        if let Some((_, l)) = self.lookups.iter_mut().find(|(a, _)| *a == attr) {
            if let TreeLookup::Walking { misses, .. } = *l {
                *l = TreeLookup::Empty { misses };
            }
        }
    }

    pub(crate) fn handle_tree_found(
        &mut self,
        attr: AttrName,
        contact: NodeId,
        owner: Option<NodeId>,
        epoch: u64,
        ctx: &mut Context<'_, DpsMsg>,
    ) {
        if self.suspected.contains(&node_key(contact)) {
            // Stale answer naming a contact we believe dead — but the belief
            // itself may be stale (a healed partition looks exactly like a
            // crash while it holds): verify instead of refusing forever. For
            // owner-walk answers (no lookup in flight) the re-walk fires
            // immediately; a subscription-driven lookup is still walking, so
            // the re-check rides its retries instead of stacking extra walks.
            self.verify_suspect(contact, ctx);
            self.start_walk(attr, ctx);
            return;
        }
        self.lookups.retain(|(a, _)| *a != attr);
        // Duplicate-tree detection: we own this attribute but the walk came back
        // with a different owner — one of the two trees must dissolve (§4.1).
        if self.owns_tree(&attr) {
            if let Some(o) = owner {
                self.maybe_dissolve_own_tree(&attr, o, epoch, contact, ctx);
            }
            return;
        }
        // Ignore claims older than what we already hold.
        if let Some(best) = self.known_owner_claim(&attr) {
            if let Some(o) = owner {
                if !claim_beats((o, epoch), best) && (o, epoch) != best {
                    self.resume_for_attr(&attr, ctx);
                    return;
                }
            }
        }
        self.cache_tree(attr.clone(), contact, owner, epoch);
        self.resume_for_attr(&attr, ctx);
    }

    /// Caches an owner announcement. When two owners are claimed for the same
    /// attribute (concurrent tree creations, or a re-rooting racing stale state),
    /// everyone deterministically sides with the higher epoch — then the smaller
    /// node id — and tips the loser off, so its duplicate-tree dissolution
    /// triggers immediately instead of waiting for a lucky walk.
    pub(crate) fn handle_owner_announce(
        &mut self,
        attr: AttrName,
        owner: NodeId,
        epoch: u64,
        ctx: &mut Context<'_, DpsMsg>,
    ) {
        let prev = self
            .tree_cache
            .get(&attr)
            .and_then(|c| c.owner.map(|o| (o, c.epoch)));
        let claim = (owner, epoch);
        let (winner, loser) = match prev {
            Some(p) if p.0 != owner => {
                if claim_beats(claim, p) {
                    (claim, Some(p.0))
                } else {
                    (p, Some(owner))
                }
            }
            _ => (claim, None),
        };
        let improved = prev != Some(winner);
        self.cache_tree(attr.clone(), winner.0, Some(winner.0), winner.1);
        // Epidemic broadcast of ownership: forward strictly-better claims to a
        // few peers. Claims form a lattice (epoch, then min id), so every node
        // forwards at most once per improvement and the flood terminates.
        if improved {
            let peers = self.peer_sample(ctx, 3);
            for p in peers {
                ctx.send(
                    p,
                    DpsMsg::OwnerAnnounce {
                        attr: attr.clone(),
                        owner: winner.0,
                        epoch: winner.1,
                    },
                );
            }
        }
        if let Some(l) = loser {
            ctx.send(
                l,
                DpsMsg::TreeFound {
                    attr: attr.clone(),
                    contact: winner.0,
                    owner: Some(winner.0),
                    epoch: winner.1,
                },
            );
        }
        // We may ourselves hold memberships the winning claim beats — a stale
        // root (we are the losing owner) or mid-tree groups a dissolve wave
        // never reached. The loser tip-off above only fires on an
        // *improvement*, so once our cache already names the winner nothing
        // would ever convert them: run the per-membership dissolve directly
        // (it no-ops when every claim already matches or beats the winner's).
        if winner.0 != self.id {
            self.handle_dissolve(attr, winner.0, winner.0, winner.1, ctx);
        }
    }

    /// Creates the tree for `attr` with ourselves as owner — either as the first
    /// subscriber to an attribute nobody serves yet, or as a survivor re-rooting
    /// an orphaned subtree — and tells our peers.
    pub(crate) fn create_tree(&mut self, attr: AttrName, ctx: &mut Context<'_, DpsMsg>) {
        let label = GroupLabel::Root(attr.clone());
        if self.membership(&label).is_some() {
            return;
        }
        // Fresh trees start at epoch 0; only re-rooting over an owner we believe
        // DEAD bumps the epoch past its claim. Bumping over a live owner would
        // let every racing duplicate creation trump the established tree,
        // triggering endless dissolve/re-subscribe wars.
        let epoch = match self.known_owner_claim(&attr) {
            Some((o, e)) if self.suspected.contains(&node_key(o)) => e + 1,
            Some((_, e)) => e,
            None => 0,
        };
        let idx = self.new_led_membership(None, label, self.id);
        self.memberships[idx].owner_epoch = epoch;
        let announce = DpsMsg::OwnerAnnounce {
            attr: attr.clone(),
            owner: self.id,
            epoch,
        };
        let peers = self.peers.clone();
        for p in peers {
            ctx.send(p, announce.clone());
        }
        self.lookups.retain(|(a, _)| *a != attr);
        self.cache_tree(attr, self.id, Some(self.id), epoch);
    }

    /// Re-drives pending subscriptions/publications blocked on discovering the
    /// tree of `attr`.
    pub(crate) fn resume_for_attr(&mut self, attr: &AttrName, ctx: &mut Context<'_, DpsMsg>) {
        // Subscriptions waiting for this tree.
        let waiting: Vec<_> = self
            .pending_subs
            .iter()
            .filter(|p| p.phase == SubPhase::FindingTree && p.pred.name() == attr)
            .map(|p| p.sub_id)
            .collect();
        for sub_id in waiting {
            self.drive_subscription(sub_id, ctx);
        }
        // Publications waiting for this tree: (re)send them; the attribute stays
        // pending until a tree member acknowledges.
        let ready: Vec<(crate::msg::PubId, dps_content::SharedEvent)> = self
            .pending_pubs
            .iter()
            .filter(|p| p.attrs.contains(attr))
            .map(|p| (p.id, p.event.clone()))
            .collect();
        for (id, event) in ready {
            self.send_publication(id, &event, attr.clone(), ctx);
        }
    }

    /// Periodic duplicate-tree detection: owners walk the network; discovering a
    /// tree for the same attribute under a weaker claim holder, they dissolve
    /// their own (§4.1). The comparison must be deterministic and agreed by both
    /// sides — epoch, then node id order, serves as the tiebreak. Every owned
    /// attribute walks through two peers: owners are few and walks are cheap,
    /// and a sparse single walk left healed partitions fragmented for hundreds
    /// of steps.
    pub(crate) fn owner_merge_walk(&mut self, ctx: &mut Context<'_, DpsMsg>) {
        let origin = self.id;
        for attr in self.owned_attrs() {
            for peer in self.peer_sample(ctx, 2) {
                ctx.send(
                    peer,
                    DpsMsg::FindTree {
                        attr: attr.clone(),
                        origin,
                        ttl: WALK_TTL,
                    },
                );
            }
            // Re-announce the claim alongside the walk. Announces flood only
            // while they improve someone's knowledge (the claim lattice), so
            // a steady-state re-flood is a few messages — but after a healed
            // partition it is what carries the winning claim across the old
            // cut and tips the losing owner off directly, where walks alone
            // can keep landing inside the owner's own cohort for hundreds of
            // steps.
            let claim = self
                .membership(&GroupLabel::Root(attr.clone()))
                .map(|m| (m.owner, m.owner_epoch));
            if let Some((owner, epoch)) = claim {
                let announce = DpsMsg::OwnerAnnounce {
                    attr: attr.clone(),
                    owner,
                    epoch,
                };
                for p in self.peer_sample(ctx, 3) {
                    ctx.send(p, announce.clone());
                }
            }
        }
    }

    /// Part of `handle_tree_found`'s duty when we own the attribute: a duplicate
    /// tree exists if the reported owner differs from us. The weaker claim
    /// (lower epoch, then higher node id) dissolves; the stronger survives. A
    /// claim naming a node we believe dead never wins.
    pub(crate) fn maybe_dissolve_own_tree(
        &mut self,
        attr: &AttrName,
        other_owner: NodeId,
        other_epoch: u64,
        contact: NodeId,
        ctx: &mut Context<'_, DpsMsg>,
    ) {
        if other_owner == self.id {
            return;
        }
        if self.suspected.contains(&node_key(other_owner)) {
            // A claim naming a node we believe dead never wins — but when the
            // suspicion came from a partition (unreachability and crash are
            // indistinguishable while the cut holds), refusing forever
            // deadlocks the merge: both healed cohorts keep their own tree.
            // Verify the suspicion and immediately restart the walk: the pong
            // (if any) lands before the fresh answer does, so the re-check
            // dissolves within a handful of steps instead of a whole
            // owner-walk period.
            self.verify_suspect(other_owner, ctx);
            self.start_walk(attr.clone(), ctx);
            return;
        }
        // Compare against the claim of the root we actually maintain — not
        // the best claim across all memberships: a node whose mid-tree groups
        // already merged toward the winner would otherwise see its own stale
        // root as "already converted" and keep a phantom duplicate tree alive.
        let mine = self
            .membership(&GroupLabel::Root(attr.clone()))
            .map(|m| (m.owner, m.owner_epoch))
            .unwrap_or((self.id, 0));
        if claim_beats((other_owner, other_epoch), mine) {
            self.handle_dissolve(attr.clone(), contact, other_owner, other_epoch, ctx);
        }
    }

    /// Challenges a suspicion: pings the suspect directly. Crashed nodes stay
    /// silent (nothing changes); a falsely-suspected node — typically the far
    /// side of a healed partition — answers, and any incoming message
    /// retracts the suspicion on receipt. Throttled per suspect: stale caches
    /// can keep naming a genuinely-dead node every walk/announce period for
    /// the rest of a run, and each of those must not cost a fresh ping.
    pub(crate) fn verify_suspect(&mut self, suspect: NodeId, ctx: &mut Context<'_, DpsMsg>) {
        let now = ctx.now();
        let window = 2 * PROBE_TIMEOUT;
        if let Some(&at) = self.verify_at.get(&suspect) {
            if now.saturating_sub(at) < window {
                return;
            }
        }
        self.verify_at.insert(suspect, now);
        if self.verify_at.len() > 64 {
            self.verify_at
                .retain(|_, at| now.saturating_sub(*at) < window);
        }
        let nonce = self.fresh_nonce();
        ctx.send(suspect, DpsMsg::Ping { nonce });
    }

    /// Tears down our membership(s) in a duplicate tree and re-subscribes the
    /// affected subscriptions through the surviving one. Leaders forward the
    /// dissolution down their branches and out to members first.
    pub(crate) fn handle_dissolve(
        &mut self,
        attr: AttrName,
        contact: NodeId,
        new_owner: NodeId,
        epoch: u64,
        ctx: &mut Context<'_, DpsMsg>,
    ) {
        if self.suspected.contains(&node_key(new_owner)) {
            // Never dissolve toward a dead owner — but do challenge the
            // suspicion (see `maybe_dissolve_own_tree`) and re-walk so the
            // re-check happens promptly: if the owner is alive across a
            // healed cut, its answer unblocks the next wave.
            self.verify_suspect(new_owner, ctx);
            self.start_walk(attr, ctx);
            return;
        }
        // The dissolve decision is **per membership**: a node can sit in both
        // trees at once (one group already merged toward the winner, another
        // still carrying the loser's claim), and an aggregate best-claim
        // check would see the converted group and skip the stale ones
        // forever. Each membership compares its own claim; ones already on
        // the winning tree (or holding a claim the wave does not beat) are
        // left alone and propagate nothing — which is also what terminates
        // the wave.
        let idxs: Vec<usize> = self
            .memberships_in(&attr)
            .filter(|&i| {
                let m = &self.memberships[i];
                m.owner != new_owner && claim_beats((new_owner, epoch), (m.owner, m.owner_epoch))
            })
            .collect();
        if idxs.is_empty() {
            return;
        }
        // Update the cache toward the surviving tree.
        self.cache_tree(attr.clone(), contact, Some(new_owner), epoch);
        let msg = DpsMsg::DissolveTree {
            attr: attr.clone(),
            contact,
            new_owner,
            epoch,
        };
        let epidemic = self.cfg.comm == CommKind::Epidemic;
        let mut resubscribe: Vec<crate::msg::SubId> = Vec::new();
        let mut orphaned: Vec<GroupLabel> = Vec::new();
        // Walk in reverse so removal by index stays valid.
        for i in idxs.into_iter().rev() {
            if !self.memberships[i].label.is_root() {
                // Merge-in-place (make-before-break), both communication
                // modes: the group keeps its label, members and
                // subscriptions, adopts the surviving owner's claim, and
                // re-attaches into the surviving tree as a unit via the
                // orphan machinery — instead of every member individually
                // tearing down and re-traversing, which left subscribers
                // silently unplaced for hundreds of steps (epidemic mode
                // under churn in PR 3; leader mode after a healed partition,
                // the ≈ 0.56 healed-phase ratio). In leader mode the group's
                // leadership survives intact — only the predecessor chain is
                // rebuilt, and the leader alone drives the reattach
                // (`reattach_or_promote` is a no-op for plain members). The
                // propagation below tells the rest of the cohort; receivers
                // that already switched claims return early, so the wave
                // terminates.
                let m = &mut self.memberships[i];
                m.owner = new_owner;
                m.owner_epoch = epoch;
                m.set_predview(Vec::new(), 0);
                // Leader mode also chains through the leadership (a plain
                // member may hear of the dissolution first — the leader must
                // learn it to drive the reattach); epidemic mode has no
                // maintained leadership to chain through.
                let leadership: Vec<NodeId> = if epidemic {
                    Vec::new()
                } else {
                    std::iter::once(m.leader)
                        .chain(m.co_leaders.iter().copied())
                        .collect()
                };
                let targets: Vec<NodeId> = m
                    .members
                    .iter()
                    .copied()
                    .chain(leadership)
                    .chain(m.branches.iter().filter_map(|b| b.primary()))
                    .filter(|n| *n != self.id)
                    .collect();
                for n in targets {
                    ctx.send(n, msg.clone());
                }
                orphaned.push(self.memberships[i].label.clone());
                continue;
            }
            // The duplicate tree's root group dissolves outright: the
            // surviving tree already has a root, so there is nothing to merge
            // this one into — its subscriptions re-traverse from scratch.
            let m = self.memberships.remove(i);
            if m.is_leader() {
                for b in &m.branches {
                    if let Some(n) = b.primary() {
                        ctx.send(n, msg.clone());
                    }
                }
                for member in &m.members {
                    if *member != self.id {
                        ctx.send(*member, msg.clone());
                    }
                }
            }
            resubscribe.extend(m.sub_ids);
        }
        for label in orphaned {
            if let Some(i) = self.membership_index(&label) {
                // Routes a Reattach toward the surviving tree's contact (just
                // cached above); the periodic orphan retry in `tick_periodic`
                // covers a lost graft.
                self.reattach_or_promote(i, ctx);
            }
        }
        for sub_id in resubscribe {
            if let Some(filter) = self.subs.get(sub_id).cloned() {
                let pred = filter
                    .predicates()
                    .iter()
                    .find(|p| p.name() == &attr)
                    .cloned();
                if let Some(pred) = pred {
                    self.enqueue_subscription(sub_id, pred, ctx);
                }
            }
        }
    }

    /// Sends a `FIND_GROUP` toward the tree of the pending subscription's
    /// attribute using the configured traversal: to the owner for root-based
    /// visits, to any contact for generic ones.
    pub(crate) fn send_find_group(
        &mut self,
        sub_id: crate::msg::SubId,
        pred: dps_content::Predicate,
        ctx: &mut Context<'_, DpsMsg>,
    ) -> bool {
        let attr = pred.name().clone();
        let ticket = Ticket {
            origin: self.id,
            sub_id,
            pred,
            mode: self.cfg.traversal,
            descending: false,
            ttl: HOP_BACKSTOP,
        };
        let target = match self.cfg.traversal {
            TraversalKind::Root => self
                .known_owner(&attr)
                .or_else(|| self.tree_cache.get(&attr).map(|c| c.contact)),
            TraversalKind::Generic => {
                // Any contact will do; prefer ourselves when we are in the tree.
                if self.in_tree(&attr) {
                    Some(self.id)
                } else {
                    self.tree_cache.get(&attr).map(|c| c.contact)
                }
            }
        };
        match target {
            Some(t) => {
                ctx.send(t, DpsMsg::FindGroup(ticket));
                true
            }
            None => false,
        }
    }
}
