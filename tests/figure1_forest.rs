//! Reconstructs Figure 1 of the paper: the twelve subscriptions s0..s11 build a
//! forest of three trees ("a", "b", "c"), and the distributed overlay converges
//! to exactly the reference model's shape.

mod common;

use dps::model::ForestModel;
use dps::{CommKind, DpsConfig, DpsNetwork, Filter, JoinRule, TraversalKind};

/// The subscriptions of Figure 1, with the join predicate drawn in the figure:
/// (filter, index of the predicate whose tree/group the subscriber joins).
const FIGURE1: &[(&str, usize)] = &[
    ("a > 2 & b > 0", 0),           // s0 — tree a, group a>2 (owner of tree a)
    ("a > 2 & a < 500", 0),         // s1 — group a>2
    ("a > 5 & b < 2", 0),           // s2 — group a>5
    ("b > 3 & c = abc", 1),         // s3 — tree c, group c=abc (drawn under c=ab*)
    ("a < 4 & b > 20", 0),          // s4 — group a<4
    ("a = 4 & c = abc", 0),         // s5 — group a=4
    ("a < 3 & b > 3 & b < 7", 2),   // s6 — tree b, group b<7
    ("b > 3 & c = ab*", 1),         // s7 — tree c, group c=ab*
    ("a > 2 & a < 20 & c = a*", 1), // s8 — group a<20
    ("a < 11", 0),                  // s9 — group a<11
    ("a > 50 & b < 5", 1),          // s10 — tree b, group b<5
    ("a > 3 & b < 50", 0),          // s11 — group a>3
];

/// Reference model of the figure: the shape the overlay must converge to.
fn reference() -> ForestModel {
    let mut f = ForestModel::new();
    for (i, (s, idx)) in FIGURE1.iter().enumerate() {
        let filter: dps::SharedFilter = s.parse::<Filter>().unwrap().into();
        f.subscribe(dps::SubId(dps::NodeId::from_index(i), 0), &filter, *idx);
    }
    f
}

#[test]
fn reference_model_matches_figure1() {
    let f = reference();
    let tree_a = f.tree(&"a".into()).expect("tree a");
    tree_a.check_invariants().unwrap();
    let parent_of = |t: &dps::model::TreeModel, p: &str| -> String {
        let idx = t
            .find(&p.parse().unwrap())
            .unwrap_or_else(|| panic!("group {p} missing"));
        match t.group(idx).parent {
            Some(pi) => t.group(pi).label.to_string(),
            None => "(none)".into(),
        }
    };
    assert_eq!(parent_of(tree_a, "a > 2"), "⟨a⟩");
    assert_eq!(parent_of(tree_a, "a > 3"), "⟨a > 2⟩");
    assert_eq!(parent_of(tree_a, "a > 5"), "⟨a > 3⟩");
    // (s10 has a > 50 in its filter but joins tree "b" via b < 5 in the figure,
    // so no a > 50 group exists.)
    assert_eq!(parent_of(tree_a, "a < 20"), "⟨a⟩");
    assert_eq!(parent_of(tree_a, "a < 11"), "⟨a < 20⟩");
    assert_eq!(parent_of(tree_a, "a < 4"), "⟨a < 11⟩");
    // C1: a = 4 follows the greater-than chain; deepest including group is a > 3.
    assert_eq!(parent_of(tree_a, "a = 4"), "⟨a > 3⟩");

    let tree_b = f.tree(&"b".into()).expect("tree b");
    tree_b.check_invariants().unwrap();
    assert_eq!(parent_of(tree_b, "b < 7"), "⟨b⟩");
    assert_eq!(parent_of(tree_b, "b < 5"), "⟨b < 7⟩");

    let tree_c = f.tree(&"c".into()).expect("tree c");
    tree_c.check_invariants().unwrap();
    assert_eq!(parent_of(tree_c, "c = abc"), "⟨c = ab*⟩");
}

/// The distributed overlay (leader communication, so group state is inspectable
/// at leaders) converges to the same groups, parents and memberships as the
/// reference model, under both traversal modes.
#[test]
fn distributed_forest_converges_to_reference() {
    for traversal in [TraversalKind::Root, TraversalKind::Generic] {
        let mut cfg = DpsConfig::named(traversal, CommKind::Leader);
        cfg.join_rule = JoinRule::First;
        let mut net = DpsNetwork::new(cfg, 13);
        let nodes = net.add_nodes(FIGURE1.len());
        net.run(30);
        for (i, (s, idx)) in FIGURE1.iter().enumerate() {
            let filter: dps::SharedFilter = s.parse::<Filter>().unwrap().into();
            // Reorder so the figure's join predicate comes first (JoinRule::First).
            let pred = filter.predicates()[*idx].clone();
            let reordered =
                Filter::new(std::iter::once(pred).chain(filter.predicates().iter().cloned()));
            let _ = net.try_subscribe(nodes[i], reordered);
            net.run(15);
        }
        assert!(
            net.quiesce(2000),
            "overlay failed to converge ({traversal:?})"
        );
        net.run(300); // let view exchange settle re-parenting

        let expect = common::model_groups(&reference());
        let got = common::live_groups(&net);
        assert_eq!(
            expect.keys().collect::<Vec<_>>(),
            got.keys().collect::<Vec<_>>(),
            "group set differs ({traversal:?})"
        );
        for (label, (parent, members)) in &expect {
            let (gp, gm) = &got[label];
            assert_eq!(gp, parent, "parent of {label} differs ({traversal:?})");
            assert_eq!(gm, members, "members of {label} differ ({traversal:?})");
        }
    }
}
