//! Per-group state held by a node: its role, membership views and the
//! `predview`/`succview` pointer lists of §4.

use dps_content::{placement, Predicate};
use dps_sim::NodeId;
use serde::{Deserialize, Serialize};

use crate::label::GroupLabel;
use crate::msg::{BranchInfo, DpsMsg, GroupRef, PubId, PubTicket, SubId};

/// A node's role within one group (leader mode; epidemic groups are flat and all
/// members behave like `Member`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Role {
    /// Group leader: relays inter-group traffic, fans events out to members.
    Leader,
    /// Backup leader (one of the `Kc` first joiners after the leader).
    CoLeader,
    /// Regular member.
    Member,
}

/// One child branch of a group: the `succview` for that successor ("in groups with
/// multiple branches, a node must have one succview list for each of its successor
/// groups", §4).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Branch {
    /// Label of the child group heading this branch.
    pub label: GroupLabel,
    /// Pointers into the branch: nodes of the child group first, deeper levels
    /// after; capped at the configured view depth.
    pub refs: Vec<GroupRef>,
    /// While `true`, event propagation toward this branch is withheld and events
    /// buffered (§4.1: group creation blocks propagation in the predecessor).
    pub blocked: bool,
    /// Step at which the branch was blocked (for expiring blocks whose
    /// `CreateDone` was lost to a crash).
    pub blocked_since: u64,
    /// Events withheld while blocked, flushed on `CreateDone`.
    pub buffered: Vec<PubTicket>,
}

impl Branch {
    /// A fresh branch pointing at the given child-group nodes.
    pub fn new(label: GroupLabel, refs: Vec<GroupRef>) -> Self {
        Branch {
            label,
            refs,
            blocked: false,
            blocked_since: 0,
            buffered: Vec::new(),
        }
    }

    /// Builds a branch from wire info.
    pub fn from_info(info: BranchInfo) -> Self {
        Branch::new(info.label, info.refs)
    }

    /// The wire form of this branch.
    pub fn info(&self) -> BranchInfo {
        BranchInfo {
            label: self.label.clone(),
            refs: self.refs.clone(),
        }
    }

    /// First pointer lying in the child group itself, if any.
    pub fn primary(&self) -> Option<NodeId> {
        self.refs
            .iter()
            .find(|r| r.label == self.label)
            .map(|r| r.node)
    }

    /// Where traffic enters the branch: its primary, else whatever deeper
    /// pointer comes first.
    pub fn entry(&self) -> Option<NodeId> {
        self.primary().or_else(|| self.refs.first().map(|r| r.node))
    }

    /// Merges `refs` into the branch (child-group entries kept first), capping at
    /// `depth` entries of deeper levels beyond the child-group ones.
    pub fn merge_refs(&mut self, refs: &[GroupRef], depth: usize) {
        for r in refs {
            if !self.refs.contains(r) {
                self.refs.push(r.clone());
            }
        }
        // Child-group entries first, then deeper ones; stable within each class.
        let label = &self.label;
        self.refs.sort_by_key(|r| usize::from(r.label != *label));
        let in_group = self.refs.iter().filter(|r| r.label == *label).count();
        self.refs
            .truncate(in_group.max(1).min(self.refs.len()) + depth);
    }

    /// Drops a dead node from the branch pointers.
    pub fn remove_node(&mut self, node: NodeId) {
        self.refs.retain(|r| r.node != node);
    }
}

/// Everything a node keeps about one group it belongs to.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Membership {
    /// The subscriptions served by this membership (empty for the root membership
    /// an attribute owner maintains). Several subscriptions with the same join
    /// predicate share one membership.
    pub sub_ids: Vec<SubId>,
    /// Group label.
    pub label: GroupLabel,
    /// Our role in the group.
    pub role: Role,
    /// Tree owner, as last heard.
    pub owner: NodeId,
    /// Epoch of the tree owner (re-rootings bump it).
    pub owner_epoch: u64,
    /// Group leader, as last heard (leader mode; in epidemic mode a stable
    /// contact hint only).
    pub leader: NodeId,
    /// Co-leaders, as last heard.
    pub co_leaders: Vec<NodeId>,
    /// Known members: full membership at leaders/co-leaders; leaders+co-leaders at
    /// plain members; a bounded partial view in epidemic mode.
    pub members: Vec<NodeId>,
    /// Predecessor pointers, nearest group first, then higher levels.
    pub predview: Vec<GroupRef>,
    /// One [`Branch`] per successor group.
    pub branches: Vec<Branch>,
    /// The holder's interned id for `label` — the group half of its route
    /// dedup key, read on every publication hop instead of hashing the label.
    /// Node-local; set when the node takes the membership on.
    pub(crate) route_id: u32,
}

impl Membership {
    /// Creates a membership with the given label and role; views start empty.
    pub fn new(sub_id: Option<SubId>, label: GroupLabel, role: Role, me: NodeId) -> Self {
        Membership {
            sub_ids: sub_id.into_iter().collect(),
            label,
            role,
            owner: me,
            owner_epoch: 0,
            leader: me,
            co_leaders: Vec::new(),
            members: Vec::new(),
            predview: Vec::new(),
            branches: Vec::new(),
            route_id: 0,
        }
    }

    /// Whether we lead this group.
    pub fn is_leader(&self) -> bool {
        self.role == Role::Leader
    }

    /// Whether we are leader or co-leader.
    pub fn is_leadership(&self) -> bool {
        matches!(self.role, Role::Leader | Role::CoLeader)
    }

    /// The branch headed by `label`, if any.
    pub fn branch(&self, label: &GroupLabel) -> Option<&Branch> {
        self.branches.iter().find(|b| &b.label == label)
    }

    /// Mutable access to the branch headed by `label`.
    pub fn branch_mut(&mut self, label: &GroupLabel) -> Option<&mut Branch> {
        self.branches.iter_mut().find(|b| &b.label == label)
    }

    /// The child branch a traversal looking for `target` descends into
    /// (constraint C2, [`placement::choose_branch`]), leaving the branch
    /// labeled `except` out of the choice.
    pub fn branch_toward(
        &self,
        target: &Predicate,
        except: Option<&GroupLabel>,
    ) -> Option<&Branch> {
        let candidates = || {
            let open = self.branches.iter().filter(|b| Some(&b.label) != except);
            open.filter_map(|b| Some((b, b.label.predicate()?)))
        };
        let chosen = placement::choose_branch(candidates().map(|(_, p)| p), target)?;
        candidates().nth(chosen).map(|(b, _)| b)
    }

    /// Adds (or merges) a branch, returning its index. Merging — the common
    /// case, every view exchange re-reports known branches — copies only the
    /// pointers that are new.
    pub fn upsert_branch(&mut self, info: &BranchInfo, depth: usize) -> usize {
        if let Some(i) = self.branches.iter().position(|b| b.label == info.label) {
            self.branches[i].merge_refs(&info.refs, depth);
            i
        } else {
            self.branches.push(Branch::from_info(info.clone()));
            self.branches.len() - 1
        }
    }

    /// Removes the branch headed by `label`, returning it.
    pub fn remove_branch(&mut self, label: &GroupLabel) -> Option<Branch> {
        let i = self.branches.iter().position(|b| &b.label == label)?;
        Some(self.branches.remove(i))
    }

    /// Adds a member if absent.
    pub fn add_member(&mut self, node: NodeId) {
        if !self.members.contains(&node) {
            self.members.push(node);
        }
    }

    /// Evicts random members until the view fits `cap`, never evicting
    /// `keep` (the holder itself). Random — not FIFO — eviction matters for
    /// epidemic partial views: a FIFO drain converges every member's view
    /// onto the same most recently gossiped entries, so large groups go
    /// stale in lockstep; random eviction keeps each view an independent
    /// random sample of the group.
    pub fn evict_members_to_cap(&mut self, cap: usize, keep: NodeId, rng: &mut impl rand::Rng) {
        while self.members.len() > cap {
            if self.members.len() == 1 && self.members[0] == keep {
                break; // only the holder left: nothing evictable
            }
            let idx = rng.random_range(0..self.members.len());
            if self.members[idx] == keep {
                continue;
            }
            self.members.swap_remove(idx);
        }
    }

    /// Removes `node` from every view of this membership.
    pub fn forget_node(&mut self, node: NodeId) {
        self.members.retain(|m| *m != node);
        self.co_leaders.retain(|m| *m != node);
        self.predview.retain(|r| r.node != node);
        for b in &mut self.branches {
            b.remove_node(node);
        }
    }

    /// Merges predecessor pointers (nearest-first order preserved, capped).
    pub fn merge_predview(&mut self, refs: &[GroupRef], cap: usize) {
        for r in refs {
            if !self.predview.contains(r) {
                self.predview.push(r.clone());
            }
        }
        self.predview.truncate(cap);
    }

    /// Replaces the predview with `refs` (used when the authoritative parent chain
    /// arrives), capped.
    pub fn set_predview(&mut self, refs: Vec<GroupRef>, cap: usize) {
        self.predview = refs;
        self.predview.truncate(cap);
    }

    /// The `ViewPush` handing this view over — members, predview and branches
    /// — with `recent` as the sender's publication digest (an empty digest
    /// asks an epidemic receiver to replay its whole recent window).
    pub(crate) fn view_push(&self, recent: Vec<PubId>) -> DpsMsg {
        DpsMsg::ViewPush {
            label: self.label.clone(),
            members: self.members.clone(),
            predview: self.predview.clone(),
            branches: self.branches.iter().map(Branch::info).collect(),
            recent,
        }
    }

    /// The nodes a publication should be handed to when entering this group from
    /// outside, leader first (leader mode).
    pub fn group_contacts(&self) -> Vec<NodeId> {
        let mut v = vec![self.leader];
        for c in &self.co_leaders {
            if !v.contains(c) {
                v.push(*c);
            }
        }
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gl(s: &str) -> GroupLabel {
        GroupLabel::from(s.parse::<dps_content::Predicate>().unwrap())
    }

    fn gr(s: &str, n: usize) -> GroupRef {
        GroupRef {
            label: gl(s),
            node: NodeId::from_index(n),
        }
    }

    #[test]
    fn branch_primary_prefers_child_group_entries() {
        let mut b = Branch::new(gl("a > 5"), vec![gr("a > 9", 4)]);
        assert_eq!(b.primary(), None);
        b.merge_refs(&[gr("a > 5", 2)], 2);
        assert_eq!(b.primary(), Some(NodeId::from_index(2)));
        // Child-group entries sort first.
        assert_eq!(b.refs[0].node, NodeId::from_index(2));
    }

    #[test]
    fn branch_merge_caps_depth() {
        let mut b = Branch::new(gl("a > 5"), vec![gr("a > 5", 1)]);
        b.merge_refs(&[gr("a > 9", 2), gr("a > 9", 3), gr("a > 12", 4)], 2);
        // 1 in-group entry + at most 2 deeper entries.
        assert_eq!(b.refs.len(), 3);
        b.remove_node(NodeId::from_index(1));
        assert_eq!(b.primary(), None);
    }

    #[test]
    fn membership_branch_crud() {
        let me = NodeId::from_index(0);
        let mut m = Membership::new(None, gl("a > 2"), Role::Leader, me);
        assert!(m.is_leader() && m.is_leadership());
        m.upsert_branch(
            &BranchInfo {
                label: gl("a > 5"),
                refs: vec![gr("a > 5", 1)],
            },
            2,
        );
        assert!(m.branch(&gl("a > 5")).is_some());
        m.upsert_branch(
            &BranchInfo {
                label: gl("a > 5"),
                refs: vec![gr("a > 5", 2)],
            },
            2,
        );
        assert_eq!(m.branches.len(), 1);
        assert_eq!(m.branch(&gl("a > 5")).unwrap().refs.len(), 2);
        let removed = m.remove_branch(&gl("a > 5")).unwrap();
        assert_eq!(removed.refs.len(), 2);
        assert!(m.branches.is_empty());
    }

    #[test]
    fn forget_node_scrubs_everything() {
        let me = NodeId::from_index(0);
        let dead = NodeId::from_index(9);
        let mut m = Membership::new(None, gl("a > 2"), Role::Member, me);
        m.add_member(dead);
        m.add_member(dead); // idempotent
        assert_eq!(m.members.len(), 1);
        m.co_leaders.push(dead);
        m.merge_predview(&[gr("a > 1", 9)], 4);
        m.upsert_branch(
            &BranchInfo {
                label: gl("a > 5"),
                refs: vec![gr("a > 5", 9)],
            },
            2,
        );
        m.forget_node(dead);
        assert!(m.members.is_empty());
        assert!(m.co_leaders.is_empty());
        assert!(m.predview.is_empty());
        assert!(m.branch(&gl("a > 5")).unwrap().refs.is_empty());
    }

    #[test]
    fn group_contacts_leader_first_no_dups() {
        let me = NodeId::from_index(0);
        let mut m = Membership::new(None, gl("a > 2"), Role::Member, me);
        m.leader = NodeId::from_index(3);
        m.co_leaders = vec![NodeId::from_index(3), NodeId::from_index(4)];
        assert_eq!(
            m.group_contacts(),
            vec![NodeId::from_index(3), NodeId::from_index(4)]
        );
    }
}
