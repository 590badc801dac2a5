//! Differential tests: [`FilterIndex`] against the linear-scan oracle
//! (`Filter::matches`). The index is an optimisation, never a semantic
//! change — on any filter population and any event, `matching` must return
//! exactly the handles whose filters the scan accepts, sorted by handle,
//! through arbitrary insert/remove interleavings.

use dps_content::strategies as st;
use dps_content::{Event, Filter, FilterIndex, MatchScratch, Predicate};
use proptest::prelude::*;

/// The scan oracle over a `(handle, filter)` population: handles of matching
/// filters, sorted (multiset — duplicate handles appear once per entry).
fn oracle(population: &[(u32, Filter)], event: &Event) -> Vec<u32> {
    let mut out: Vec<u32> = population
        .iter()
        .filter(|(_, f)| f.matches(event))
        .map(|(h, _)| *h)
        .collect();
    out.sort_unstable();
    out
}

fn build(population: &[(u32, Filter)]) -> FilterIndex<u32> {
    let mut idx = FilterIndex::new();
    for (h, f) in population {
        idx.insert(*h, f.clone());
    }
    idx
}

/// A filter population with handles `0..n` (handles unique here; duplicate
/// handles are covered by the dedicated interleaving test below).
fn population() -> impl Strategy<Value = Vec<(u32, Filter)>> {
    proptest::collection::vec(st::filter(), 0..24).prop_map(|fs| {
        fs.into_iter()
            .enumerate()
            .map(|(i, f)| (i as u32, f))
            .collect()
    })
}

proptest! {
    /// Core differential law: index results == scan results, in handle order.
    #[test]
    fn index_equals_scan(pop in population(), e in st::event()) {
        let idx = build(&pop);
        prop_assert_eq!(idx.matching(&e), oracle(&pop, &e));
    }

    /// Same law on full events (every attribute present — high match rates).
    #[test]
    fn index_equals_scan_on_full_events(pop in population(), e in st::full_event()) {
        let idx = build(&pop);
        prop_assert_eq!(idx.matching(&e), oracle(&pop, &e));
    }

    /// Scratch reuse across a sequence of events never leaks state between
    /// queries (the epoch-stamping must isolate them).
    #[test]
    fn scratch_reuse_is_stateless(pop in population(),
                                  events in proptest::collection::vec(st::event(), 1..8)) {
        let idx = build(&pop);
        let mut scratch = MatchScratch::new();
        let mut out = Vec::new();
        for e in &events {
            idx.matching_into(e, &mut scratch, &mut out);
            prop_assert_eq!(&out, &oracle(&pop, e));
        }
    }

    /// Insert/remove interleavings, including duplicate handles: at every
    /// point the index equals the scan over the live population.
    #[test]
    fn interleaved_insert_remove(ops in proptest::collection::vec(
                                     (0u32..6, st::filter(), 0u8..3), 1..32),
                                 e in st::event()) {
        let mut idx: FilterIndex<u32> = FilterIndex::new();
        let mut live: Vec<(u32, Filter)> = Vec::new();
        for (h, f, action) in ops {
            if action == 0 {
                let dropped = idx.remove(h);
                let before = live.len();
                live.retain(|(lh, _)| *lh != h);
                prop_assert_eq!(dropped, before - live.len());
            } else {
                idx.insert(h, f.clone());
                live.push((h, f));
            }
            prop_assert_eq!(idx.len(), live.len());
            prop_assert_eq!(idx.matching(&e), oracle(&live, &e));
        }
    }

    /// Duplicate-attribute range filters (`a > c1 & a < c2`, possibly empty
    /// ranges) — the counting must require BOTH bounds, never double-count.
    #[test]
    fn range_filters_differential(bounds in proptest::collection::vec(
                                      (st::int_constant(), st::int_constant()), 1..12),
                                  v in st::int_constant()) {
        let pop: Vec<(u32, Filter)> = bounds
            .iter()
            .enumerate()
            .map(|(i, (lo, hi))| {
                (i as u32, Filter::new([Predicate::gt("a", *lo), Predicate::lt("a", *hi)]))
            })
            .collect();
        let idx = build(&pop);
        let e = Event::new([("a", dps_content::Value::from(v))]);
        prop_assert_eq!(idx.matching(&e), oracle(&pop, &e));
    }

    /// Populations past the pending-overlay bound (64 entries) force real
    /// [`StabTree`] builds plus rebuild/quarantine/gc on removal — the small
    /// populations above never reach that machinery. Tight spans (0..8,
    /// odd ones included) and negative bounds are the regression surface for
    /// the truncated-midpoint non-termination in `StabTree::build_node`.
    #[test]
    fn tree_rebuilds_equal_scan(bounds in proptest::collection::vec(
                                    (-64i64..64, 0i64..8).prop_map(|(lo, d)| (lo, lo + d)),
                                    100..140),
                                vs in proptest::collection::vec(-70i64..70, 1..6),
                                drop_stride in 2usize..5) {
        let pop: Vec<(u32, Filter)> = bounds
            .iter()
            .enumerate()
            .map(|(i, (lo, hi))| {
                (i as u32, Filter::new([Predicate::gt("a", *lo), Predicate::lt("a", *hi)]))
            })
            .collect();
        let mut idx = build(&pop);
        for v in &vs {
            let e = Event::new([("a", dps_content::Value::from(*v))]);
            prop_assert_eq!(idx.matching(&e), oracle(&pop, &e));
        }
        // Remove a slice of the population: enough interval-bearing
        // removals to trip the quarantine gc sweep and tree rebuilds.
        let live: Vec<(u32, Filter)> = pop
            .iter()
            .filter(|(h, _)| !(*h as usize).is_multiple_of(drop_stride))
            .cloned()
            .collect();
        for (h, _) in pop.iter().filter(|(h, _)| (*h as usize).is_multiple_of(drop_stride)) {
            idx.remove(*h);
        }
        for v in &vs {
            let e = Event::new([("a", dps_content::Value::from(*v))]);
            prop_assert_eq!(idx.matching(&e), oracle(&live, &e));
        }
    }

    /// Empty filters always match, whatever else is in the index.
    #[test]
    fn empty_filters_always_match(pop in population(), e in st::event()) {
        let mut idx = build(&pop);
        let h = pop.len() as u32;
        idx.insert(h, Filter::all());
        prop_assert!(idx.matching(&e).contains(&h));
    }

    /// `entries()` enumerates the live population in handle order — a scan
    /// over it sees exactly what the index indexes.
    #[test]
    fn entries_reflect_population(pop in population()) {
        let idx = build(&pop);
        let listed: Vec<(u32, Filter)> =
            idx.entries().map(|(h, f)| (h, f.clone())).collect();
        prop_assert_eq!(listed, pop); // population handles are already 0..n
    }
}
