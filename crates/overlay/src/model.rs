//! A centralized reference model of the DPS overlay.
//!
//! This module runs the same placement rules as the distributed protocol, but on
//! one machine with global knowledge. It serves three purposes:
//!
//! 1. **Oracle** — experiments ask it which subscribers an event *should* reach
//!    (matching members) and which groups a root-based dissemination visits, to
//!    compute delivery ratios and false-positive rates.
//! 2. **Differential testing** — integration tests build the distributed overlay
//!    and assert that it converges to exactly this forest.
//! 3. **Analysis inputs** — the closed forms of §5.1 need the tree depth `h` and
//!    maximal group size `S`; the model measures them.

use std::collections::{BTreeMap, HashSet};

use dps_content::placement::{choose_branch, must_reparent};
use dps_content::{AttrName, Event, FilterIndex, MatchScratch, Predicate, SharedFilter};
use dps_sim::NodeId;
use serde::Serialize;

use crate::label::GroupLabel;

/// One vertex of a reference tree.
#[derive(Debug, Clone, Serialize)]
pub struct ModelGroup {
    /// The group's label.
    pub label: GroupLabel,
    /// Parent index (`None` for the root).
    pub parent: Option<usize>,
    /// Child indices.
    pub children: Vec<usize>,
    /// Subscribers placed in this group.
    pub members: Vec<NodeId>,
}

/// The reference tree for one attribute.
#[derive(Debug, Clone, Serialize)]
pub struct TreeModel {
    attr: AttrName,
    groups: Vec<ModelGroup>,
}

impl TreeModel {
    /// A new tree containing only the root vertex.
    pub fn new(attr: AttrName) -> Self {
        let root = ModelGroup {
            label: GroupLabel::Root(attr.clone()),
            parent: None,
            children: Vec::new(),
            members: Vec::new(),
        };
        TreeModel {
            attr,
            groups: vec![root],
        }
    }

    /// The attribute of this tree.
    pub fn attr(&self) -> &AttrName {
        &self.attr
    }

    /// All groups; index 0 is the root.
    pub fn groups(&self) -> &[ModelGroup] {
        &self.groups
    }

    /// The group at `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of bounds.
    pub fn group(&self, idx: usize) -> &ModelGroup {
        &self.groups[idx]
    }

    /// Index of the group labeled with `pred`, if it exists.
    pub fn find(&self, pred: &Predicate) -> Option<usize> {
        self.groups
            .iter()
            .position(|g| g.label.predicate() == Some(pred))
    }

    /// Inserts `member` with predicate `pred`, creating (and re-parenting around)
    /// the group if needed; returns the group index.
    ///
    /// # Panics
    ///
    /// Panics if `pred` is on a different attribute than the tree.
    pub fn insert(&mut self, pred: &Predicate, member: NodeId) -> usize {
        assert_eq!(pred.name(), &self.attr, "predicate on wrong tree");
        let mut cur = 0usize;
        loop {
            // Exact group already present below cur?
            if let Some(&c) = self.groups[cur]
                .children
                .iter()
                .find(|&&c| self.groups[c].label.predicate() == Some(pred))
            {
                if !self.groups[c].members.contains(&member) {
                    self.groups[c].members.push(member);
                }
                return c;
            }
            // Descend per C1/C2.
            let child_preds: Vec<Predicate> = self.groups[cur]
                .children
                .iter()
                .map(|&c| {
                    self.groups[c]
                        .label
                        .predicate()
                        .expect("non-root child")
                        .clone()
                })
                .collect();
            match choose_branch(child_preds.iter(), pred) {
                Some(i) => cur = self.groups[cur].children[i],
                None => return self.create_under(cur, pred, member),
            }
        }
    }

    fn create_under(&mut self, parent: usize, pred: &Predicate, member: NodeId) -> usize {
        let idx = self.groups.len();
        // Steal the siblings the new group must adopt (constraint C2).
        let (stay, adopted): (Vec<usize>, Vec<usize>) = self.groups[parent]
            .children
            .iter()
            .partition(|&&c| match self.groups[c].label.predicate() {
                Some(cp) => !must_reparent(pred, cp),
                None => true,
            });
        self.groups[parent].children = stay;
        self.groups[parent].children.push(idx);
        for &c in &adopted {
            self.groups[c].parent = Some(idx);
        }
        self.groups.push(ModelGroup {
            label: GroupLabel::Pred(pred.clone()),
            parent: Some(parent),
            children: adopted,
            members: vec![member],
        });
        idx
    }

    /// The group indices a root-based dissemination of `event` visits: the root
    /// plus every group reachable from it through matching labels. Propagation is
    /// pruned at the first non-matching label (§4.1), and the parent checks the
    /// child's label before forwarding, so non-matching groups are never visited.
    pub fn matching_groups(&self, event: &Event) -> Vec<usize> {
        let mut out = Vec::new();
        if event.get(&self.attr).is_none() {
            return out;
        }
        let mut stack = vec![0usize];
        while let Some(g) = stack.pop() {
            out.push(g);
            for &c in &self.groups[g].children {
                if self.groups[c].label.matches_event(event) {
                    stack.push(c);
                }
            }
        }
        out
    }

    /// Subscribers contacted by a root-based dissemination of `event` in this
    /// tree: the members of all matching groups.
    pub fn contacted_members(&self, event: &Event) -> HashSet<NodeId> {
        self.matching_groups(event)
            .into_iter()
            .flat_map(|g| self.groups[g].members.iter().copied())
            .collect()
    }

    /// Depth of the tree (root = level 0; returns the maximum level).
    pub fn depth(&self) -> usize {
        fn depth_of(tree: &TreeModel, g: usize) -> usize {
            match tree.groups[g].parent {
                None => 0,
                Some(p) => 1 + depth_of(tree, p),
            }
        }
        (0..self.groups.len())
            .map(|g| depth_of(self, g))
            .max()
            .unwrap_or(0)
    }

    /// Size of the largest group (the `S` of §5.1).
    pub fn max_group_size(&self) -> usize {
        self.groups
            .iter()
            .map(|g| g.members.len())
            .max()
            .unwrap_or(0)
    }

    /// Number of groups at each level, root first (the `s_k` distribution of the
    /// reliability model in §5.1).
    pub fn level_sizes(&self) -> Vec<usize> {
        let mut levels: Vec<usize> = Vec::new();
        for g in 0..self.groups.len() {
            let mut d = 0;
            let mut cur = g;
            while let Some(p) = self.groups[cur].parent {
                d += 1;
                cur = p;
            }
            if levels.len() <= d {
                levels.resize(d + 1, 0);
            }
            levels[d] += 1;
        }
        levels
    }

    /// Verifies the structural invariants; returns a description of the first
    /// violation.
    ///
    /// * Labels are unique.
    /// * Every non-root group's parent label is on its designated path.
    /// * **C2 (minimality)**: any group whose label is on the designated path of
    ///   another group is an ancestor of it — no "missed" predecessor exists.
    /// * Parent/child indices are mutually consistent.
    pub fn check_invariants(&self) -> Result<(), String> {
        for (i, g) in self.groups.iter().enumerate() {
            for (j, h) in self.groups.iter().enumerate() {
                if i != j && g.label == h.label {
                    return Err(format!("duplicate label {}", g.label));
                }
                let _ = h;
            }
            match g.parent {
                None => {
                    if i != 0 {
                        return Err(format!("non-root group {} has no parent", g.label));
                    }
                }
                Some(p) => {
                    let pred = g.label.predicate().ok_or("root with a parent")?;
                    if !self.groups[p].label.on_path_to(pred) {
                        return Err(format!(
                            "parent {} not on designated path of {}",
                            self.groups[p].label, g.label
                        ));
                    }
                    if !self.groups[p].children.contains(&i) {
                        return Err(format!("parent of {} does not list it", g.label));
                    }
                }
            }
            for &c in &g.children {
                if self.groups[c].parent != Some(i) {
                    return Err(format!("child of {} points elsewhere", g.label));
                }
            }
        }
        // C2 minimality across all pairs.
        for g in 1..self.groups.len() {
            let pred = self.groups[g].label.predicate().unwrap();
            for q in 1..self.groups.len() {
                if q == g {
                    continue;
                }
                if self.groups[q].label.on_path_to(pred) && !self.is_ancestor(q, g) {
                    return Err(format!(
                        "{} is on the designated path of {} but is not its ancestor",
                        self.groups[q].label, self.groups[g].label
                    ));
                }
            }
        }
        Ok(())
    }

    fn is_ancestor(&self, anc: usize, g: usize) -> bool {
        let mut cur = g;
        while let Some(p) = self.groups[cur].parent {
            if p == anc {
                return true;
            }
            cur = p;
        }
        false
    }
}

/// The reference forest plus the global subscription registry: the experiment
/// harness's omniscient oracle.
#[derive(Debug, Clone, Default)]
pub struct ForestModel {
    trees: BTreeMap<AttrName, TreeModel>,
    subscriptions: Vec<(NodeId, SharedFilter)>,
    /// Counting-algorithm index over `subscriptions` (handle = position in
    /// the vector), so oracle matching scales past broker-grade populations.
    index: FilterIndex<u32>,
    /// Reusable query scratch and hit buffer (both churn per event on the
    /// oracle hot path); a `RefCell` because the oracle is queried through
    /// `&self` (single-threaded harness code).
    scratch: std::cell::RefCell<(MatchScratch, Vec<u32>)>,
}

// Manual impl (not derived): the index and scratch are derived state that
// must not leak into experiment JSON output.
impl Serialize for ForestModel {
    fn to_json(&self) -> serde::json::Value {
        serde::json::Value::Object(vec![
            ("trees".to_owned(), self.trees.to_json()),
            ("subscriptions".to_owned(), self.subscriptions.to_json()),
        ])
    }
}

impl ForestModel {
    /// Empty forest.
    pub fn new() -> Self {
        ForestModel::default()
    }

    /// Registers a subscription joining via the predicate at `join_idx` in the
    /// filter, mirroring the distributed join. Returns the `(attribute,
    /// predicate)` actually joined.
    ///
    /// # Panics
    ///
    /// Panics if the filter is empty or `join_idx` is out of range.
    pub fn subscribe(
        &mut self,
        node: NodeId,
        filter: &SharedFilter,
        join_idx: usize,
    ) -> (AttrName, Predicate) {
        let pred = filter.predicates()[join_idx].clone();
        let attr = pred.name().clone();
        self.trees
            .entry(attr.clone())
            .or_insert_with(|| TreeModel::new(attr.clone()))
            .insert(&pred, node);
        // Both the index and the registry share the caller's allocation.
        self.index
            .insert(self.subscriptions.len() as u32, filter.clone());
        self.subscriptions.push((node, filter.clone()));
        (attr, pred)
    }

    /// The trees of the forest.
    pub fn trees(&self) -> impl Iterator<Item = &TreeModel> {
        self.trees.values()
    }

    /// The tree for `attr`, if any subscriber created it.
    pub fn tree(&self, attr: &AttrName) -> Option<&TreeModel> {
        self.trees.get(attr)
    }

    /// All registered `(subscriber, filter)` pairs.
    pub fn subscriptions(&self) -> &[(NodeId, SharedFilter)] {
        &self.subscriptions
    }

    /// Nodes with at least one filter matching `event` — the ground-truth
    /// recipients ("Matching" in Table 1).
    pub fn matching_subscribers(&self, event: &Event) -> HashSet<NodeId> {
        let mut guard = self.scratch.borrow_mut();
        let (scratch, hits) = &mut *guard;
        self.index.matching_into(event, scratch, hits);
        hits.iter()
            .map(|h| self.subscriptions[*h as usize].0)
            .collect()
    }

    /// Subscribers a root-based DPS dissemination contacts: union over the trees
    /// of every attribute the event carries ("Contacted" in Table 1, minus the
    /// pure-relay root/owner nodes).
    pub fn contacted_subscribers(&self, event: &Event) -> HashSet<NodeId> {
        let mut out = HashSet::new();
        for name in event.names() {
            if let Some(t) = self.trees.get(name) {
                out.extend(t.contacted_members(event));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: usize) -> NodeId {
        NodeId::from_index(i)
    }

    fn p(s: &str) -> Predicate {
        s.parse().unwrap()
    }

    /// Builds the "a" tree of the paper's Figure 1 from the s0..s11 subscriptions
    /// (each subscriber joins the tree drawn in the figure).
    fn figure1_tree_a() -> TreeModel {
        let mut t = TreeModel::new("a".into());
        t.insert(&p("a > 2"), n(0)); // s0
        t.insert(&p("a > 2"), n(1)); // s1
        t.insert(&p("a > 5"), n(2)); // s2
        t.insert(&p("a < 4"), n(4)); // s4
        t.insert(&p("a = 4"), n(5)); // s5
        t.insert(&p("a < 20"), n(8)); // s8
        t.insert(&p("a < 11"), n(9)); // s9
        t.insert(&p("a > 50"), n(10)); // s10
        t.insert(&p("a > 3"), n(11)); // s11
        t
    }

    #[test]
    fn figure1_tree_shape() {
        let t = figure1_tree_a();
        t.check_invariants().unwrap();
        // Chains from the figure: a>2 -> a>3 -> a>5 -> a>50 and a<20 -> a<11 -> a<4.
        let chain = |from: &str, to: &str| {
            let f = t.find(&p(from)).unwrap();
            let c = t.find(&p(to)).unwrap();
            assert_eq!(t.groups()[c].parent, Some(f), "{to} under {from}");
        };
        chain("a > 2", "a > 3");
        chain("a > 3", "a > 5");
        chain("a > 5", "a > 50");
        chain("a < 20", "a < 11");
        chain("a < 11", "a < 4");
        // C1: a = 4 follows the greater-than chain; its deepest including Gt group
        // is a > 3 (4 > 3 holds, 4 > 5 does not).
        let eq4 = t.find(&p("a = 4")).unwrap();
        assert_eq!(t.groups()[eq4].parent, t.find(&p("a > 3")));
        // Both chains hang off the root.
        assert_eq!(t.groups()[t.find(&p("a > 2")).unwrap()].parent, Some(0));
        assert_eq!(t.groups()[t.find(&p("a < 20")).unwrap()].parent, Some(0));
    }

    #[test]
    fn insertion_order_does_not_matter_for_numeric_trees() {
        use rand::seq::SliceRandom;
        use rand::SeedableRng;
        let preds = [
            "a > 2", "a > 3", "a > 5", "a > 50", "a < 20", "a < 11", "a < 4", "a = 4", "a = 10",
            "a = 3",
        ];
        let canonical = {
            let mut t = TreeModel::new("a".into());
            for (i, s) in preds.iter().enumerate() {
                t.insert(&p(s), n(i));
            }
            t
        };
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        for _ in 0..20 {
            let mut shuffled: Vec<usize> = (0..preds.len()).collect();
            shuffled.shuffle(&mut rng);
            let mut t = TreeModel::new("a".into());
            for &i in &shuffled {
                t.insert(&p(preds[i]), n(i));
            }
            t.check_invariants().unwrap();
            // Same parent relation regardless of order.
            for s in &preds {
                let a = canonical.find(&p(s)).unwrap();
                let b = t.find(&p(s)).unwrap();
                let pa = canonical.groups()[a]
                    .parent
                    .map(|i| canonical.groups()[i].label.clone());
                let pb = t.groups()[b].parent.map(|i| t.groups()[i].label.clone());
                assert_eq!(pa, pb, "parent of {s} differs");
            }
        }
    }

    #[test]
    fn figure2_publication_a_eq_4() {
        // Right side of Figure 2: publication a = 4 reaches the matching groups
        // a>2, a>3, a<20, a<11, a<4?? (no: 4 < 4 fails) and the leaf a = 4.
        let t = figure1_tree_a();
        let ev: Event = "a = 4".parse().unwrap();
        let visited: HashSet<String> = t
            .matching_groups(&ev)
            .into_iter()
            .map(|g| t.groups()[g].label.to_string())
            .collect();
        let expect: HashSet<String> = [
            "⟨a⟩",
            "⟨a > 2⟩",
            "⟨a > 3⟩",
            "⟨a = 4⟩",
            "⟨a < 20⟩",
            "⟨a < 11⟩",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        assert_eq!(visited, expect);
        // Contacted members: s0,s1 (a>2), s11 (a>3), s5 (a=4), s8 (a<20), s9 (a<11).
        let contacted = t.contacted_members(&ev);
        let expect_members: HashSet<NodeId> = [0, 1, 11, 5, 8, 9].iter().map(|i| n(*i)).collect();
        assert_eq!(contacted, expect_members);
    }

    #[test]
    fn pruning_cuts_whole_subtrees() {
        let t = figure1_tree_a();
        // a = 1 matches a<20, a<11, a<4 but nothing in the Gt chain.
        let ev: Event = "a = 1".parse().unwrap();
        let visited: HashSet<String> = t
            .matching_groups(&ev)
            .into_iter()
            .map(|g| t.groups()[g].label.to_string())
            .collect();
        assert!(visited.contains("⟨a < 4⟩"));
        assert!(!visited.contains("⟨a > 2⟩"));
        // Nothing matches an event on another attribute.
        assert!(t.matching_groups(&"b = 1".parse().unwrap()).is_empty());
    }

    #[test]
    fn depth_and_sizes() {
        let t = figure1_tree_a();
        assert_eq!(t.depth(), 4); // root -> a>2 -> a>3 -> a>5 -> a>50
        assert_eq!(t.max_group_size(), 2); // a>2 holds s0 and s1
        let levels = t.level_sizes();
        assert_eq!(levels[0], 1);
        assert_eq!(levels.iter().sum::<usize>(), t.groups().len());
    }

    #[test]
    fn forest_oracle() {
        let mut f = ForestModel::new();
        // s0: a>2 & b>0 joins via a>2; s3: b>3 & c=abc joins via b>3.
        f.subscribe(
            n(0),
            &"a > 2 & b > 0"
                .parse::<dps_content::Filter>()
                .unwrap()
                .into(),
            0,
        );
        f.subscribe(
            n(3),
            &"b > 3 & c = abc"
                .parse::<dps_content::Filter>()
                .unwrap()
                .into(),
            0,
        );
        f.subscribe(
            n(9),
            &"a < 11".parse::<dps_content::Filter>().unwrap().into(),
            0,
        );
        let ev: Event = "a = 4 & b = 5".parse().unwrap();
        // Matching: s0 (a>2 & b>0: 4>2, 5>0 ✓), s3 (b>3 ✓ but c missing ✗), s9 ✓.
        let matching = f.matching_subscribers(&ev);
        assert_eq!(matching, [n(0), n(9)].into_iter().collect());
        // Contacted: tree a reaches s0 and s9; tree b reaches s3 (b>3 matches —
        // a false positive, since s3's full filter requires c = abc too).
        let contacted = f.contacted_subscribers(&ev);
        assert_eq!(contacted, [n(0), n(9), n(3)].into_iter().collect());
        assert!(f.tree(&"a".into()).is_some());
        assert!(f.tree(&"z".into()).is_none());
        assert_eq!(f.subscriptions().len(), 3);
    }

    #[test]
    #[should_panic(expected = "wrong tree")]
    fn wrong_attribute_panics() {
        let mut t = TreeModel::new("a".into());
        t.insert(&p("b > 1"), n(0));
    }
}
