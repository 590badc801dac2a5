//! Property-based tests of the centralized reference model: the structural
//! invariants of §3 hold for any subscription mix and insertion order, and the
//! dissemination semantics are sound and complete with respect to plain
//! filter matching on the joined predicate.

use dps_content::strategies as st;
use dps_overlay::model::{ForestModel, TreeModel};
use dps_overlay::SubId;
use dps_sim::NodeId;
use proptest::prelude::*;

proptest! {
    /// Invariants hold under arbitrary insertion sequences: unique labels,
    /// parents on the designated path, C2 minimality, index consistency.
    #[test]
    fn tree_invariants_hold_for_any_insertion_order(
        preds in proptest::collection::vec(st::numeric_predicate(), 1..40)
    ) {
        let mut trees: std::collections::HashMap<String, TreeModel> =
            std::collections::HashMap::new();
        for (i, p) in preds.iter().enumerate() {
            trees
                .entry(p.name().as_str().to_owned())
                .or_insert_with(|| TreeModel::new(p.name().clone()))
                .insert(p, NodeId::from_index(i));
        }
        for t in trees.values() {
            prop_assert!(t.check_invariants().is_ok(), "{:?}", t.check_invariants());
        }
    }

    /// Shape determinism (numeric chains): any permutation of the same predicate
    /// multiset yields the same parent relation.
    #[test]
    fn numeric_tree_shape_is_order_independent(
        mut preds in proptest::collection::vec(st::numeric_predicate(), 2..20),
        seed in 0u64..100,
    ) {
        // Restrict to one attribute so permutations act on one tree.
        for p in &mut preds {
            *p = dps_content::Predicate::new("a", p.op(), p.constant().clone()).unwrap();
        }
        let build = |ps: &[dps_content::Predicate]| {
            let mut t = TreeModel::new("a".into());
            for (i, p) in ps.iter().enumerate() {
                t.insert(p, NodeId::from_index(i));
            }
            let mut rel: Vec<(String, String)> = t
                .groups()
                .iter()
                .filter_map(|g| {
                    g.parent.map(|pi| {
                        (g.label.to_string(), t.groups()[pi].label.to_string())
                    })
                })
                .collect();
            rel.sort();
            rel
        };
        let base = build(&preds);
        use rand::seq::SliceRandom;
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut shuffled = preds.clone();
        shuffled.shuffle(&mut rng);
        prop_assert_eq!(base, build(&shuffled));
    }

    /// Dissemination soundness + completeness at the model level: a subscriber is
    /// contacted iff its joined predicate matches the event.
    #[test]
    fn contacted_iff_joined_predicate_matches(
        preds in proptest::collection::vec(st::numeric_predicate(), 1..30),
        e in st::full_event(),
    ) {
        let mut forest = ForestModel::new();
        for (i, p) in preds.iter().enumerate() {
            let f = dps_content::SharedFilter::from(dps_content::Filter::new([p.clone()]));
            forest.subscribe(SubId(NodeId::from_index(i), 0), &f, 0);
        }
        let contacted = forest.contacted_subscribers(&e);
        for (i, p) in preds.iter().enumerate() {
            let matches = e.get(p.name()).is_some_and(|v| p.matches_value(v));
            prop_assert_eq!(
                contacted.contains(&NodeId::from_index(i)),
                matches,
                "subscriber {} ({}) vs event {}",
                i,
                p,
                e
            );
        }
        // And notified (oracle matching) is exactly the matching subset.
        let matching = forest.matching_subscribers(&e);
        for n in &matching {
            prop_assert!(contacted.contains(n), "matching node not contacted");
        }
    }

    /// The level-size distribution always sums to the number of groups, and the
    /// depth is consistent with it.
    #[test]
    fn level_sizes_are_consistent(
        preds in proptest::collection::vec(st::numeric_predicate(), 1..30)
    ) {
        let mut t = TreeModel::new("a".into());
        for (i, p) in preds.iter().enumerate() {
            if p.name().as_str() == "a" {
                t.insert(p, NodeId::from_index(i));
            }
        }
        let levels = t.level_sizes();
        prop_assert_eq!(levels.iter().sum::<usize>(), t.groups().len());
        prop_assert_eq!(levels.len() - 1, t.depth());
        prop_assert_eq!(levels[0], 1); // exactly one root
    }
}
