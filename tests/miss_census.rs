//! The miss census (`DpsNetwork::misses_between`, the `misses` column of
//! every scenario phase row) accounts for every undelivered `(publication,
//! expected subscriber)` pair, and names the cause the harness can see.

use std::path::PathBuf;

use dps::{DpsConfig, DpsNetwork, Event, Filter, MissCensus, NodeId, Step};
use dps_scenarios::{compile, run_scenario, ScenarioRun, ScenarioSpec};

fn library_spec(file: &str) -> ScenarioSpec {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../scenarios")
        .join(file);
    ScenarioSpec::load(path).unwrap()
}

/// Twelve nodes with `a > 2` subscriptions on `subscribers`, converged.
fn converged(seed: u64, subscribers: &[usize]) -> (DpsNetwork, Vec<NodeId>) {
    let mut net = DpsNetwork::new(DpsConfig::default(), seed);
    let nodes = net.add_nodes(12);
    net.run(30);
    for &i in subscribers {
        net.try_subscribe(nodes[i], "a > 2".parse::<Filter>().unwrap())
            .unwrap();
        net.run(10);
    }
    assert!(net.quiesce(600), "overlay failed to converge");
    net.run(50);
    (net, nodes)
}

fn event() -> Event {
    "a = 4".parse().unwrap()
}

#[test]
fn every_phase_census_sums_to_its_undelivered_pairs() {
    let spec = library_spec("epidemic-partition-churn.json");
    let report = run_scenario(&spec).unwrap();

    // The same run again, phase by phase, keeping the network to count the
    // undelivered pairs from its delivery reports.
    let mut run = ScenarioRun::new(&spec).unwrap();
    let mut bounds = vec![run.network().sim().now()];
    while run.run_phase().is_some() {
        bounds.push(run.network().sim().now());
    }
    run.network_mut().run(compile(&spec).unwrap().drain);
    let net = run.network();
    let reports = net.reports();

    assert_eq!(report.rows.len(), bounds.len() - 1);
    let mut all = MissCensus::default();
    for (row, span) in report.rows.iter().zip(bounds.windows(2)) {
        assert_eq!((row.from_step, row.until_step), (span[0], span[1]));
        let undelivered: usize = reports
            .iter()
            .filter(|r| (span[0]..span[1]).contains(&r.published_at))
            .map(|r| r.expected.len() - r.delivered)
            .sum();
        let m = row.misses;
        let counted = m.died + m.unreachable + m.unplaced + m.lost;
        assert_eq!(counted, undelivered as u64, "{}", row.phase);
        assert_eq!(row.misses, net.misses_between(span[0], span[1]));
        all.died += row.misses.died;
        all.unreachable += row.misses.unreachable;
    }
    // Crashes on both sides of a cut: both causes show up.
    assert!(all.died > 0 && all.unreachable > 0, "{all:?}");
}

#[test]
fn a_subscriber_crashed_after_the_publish_died() {
    let (mut net, nodes) = converged(5, &[3, 8]);
    let from = net.sim().now();
    let id = net.try_publish(nodes[11], event()).unwrap();
    net.crash(nodes[8]);
    net.run(60);
    assert!(net.sink().was_notified(id, nodes[3]));
    assert_eq!(
        net.misses_between(from, Step::MAX),
        MissCensus {
            died: 1,
            ..MissCensus::default()
        }
    );
    // Outside the window nothing is counted.
    assert_eq!(net.misses_between(0, from), MissCensus::default());
}

#[test]
fn a_subscriber_across_an_absolute_cut_is_unreachable() {
    let (mut net, nodes) = converged(9, &[2, 9]);
    net.partition_split(6);
    let from = net.sim().now();
    let id = net.try_publish(nodes[1], event()).unwrap();
    net.run(60);
    let census = net.misses_between(from, Step::MAX);
    assert_eq!(census.unreachable, 1, "{census:?}");
    assert!(!net.sink().was_notified(id, nodes[9]));
    let report = &net.reports()[0];
    assert!(report.expected.contains(&nodes[9]) && !report.reachable.contains(&nodes[9]));
}

/// The node that receives a publication matches it against its own
/// subscriptions in the same call, so an alive expected subscriber the
/// publication reached was notified.
#[test]
fn no_alive_expected_subscriber_is_contacted_but_not_notified() {
    let spec = library_spec("epidemic-partition-churn.json");
    let mut run = ScenarioRun::new(&spec).unwrap();
    while run.run_phase().is_some() {}
    run.network_mut().run(compile(&spec).unwrap().drain);
    let net = run.network();
    let mut misses = 0;
    for r in net.reports() {
        for s in &r.expected {
            if net.sink().was_notified(r.id, *s) || !net.sim().is_alive(*s) {
                continue;
            }
            misses += 1;
            assert!(
                !net.sink().was_contacted(r.id, *s),
                "{s:?} was contacted by {:?} and not notified",
                r.id
            );
        }
    }
    assert!(misses > 0, "the run must miss some alive subscribers");
}
