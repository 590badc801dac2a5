//! Criterion micro-benchmarks: the hot paths of the content model, the
//! placement logic, the reference tree and the simulator.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use dps_content::placement::choose_branch;
use dps_content::{Event, Filter, FilterIndex, MatchScratch, Predicate};
use dps_overlay::model::TreeModel;
use dps_overlay::SeenCache;
use dps_sim::NodeId;
use dps_workload::Workload;
use rand::SeedableRng;
use std::hash::Hash;
use std::hint::black_box;

fn bench_matching(c: &mut Criterion) {
    let w = Workload::multiplayer_game();
    let mut rng = rand::rngs::StdRng::seed_from_u64(1);
    let filters: Vec<Filter> = (0..1000).map(|_| w.subscription(&mut rng)).collect();
    let events: Vec<Event> = (0..100).map(|_| w.event(&mut rng)).collect();
    c.bench_function("match_1000_filters_x_100_events", |b| {
        b.iter(|| {
            let mut hits = 0usize;
            for e in &events {
                for f in &filters {
                    if f.matches(black_box(e)) {
                        hits += 1;
                    }
                }
            }
            black_box(hits)
        })
    });
    let index: FilterIndex<u32> =
        filters
            .iter()
            .enumerate()
            .fold(FilterIndex::new(), |mut idx, (i, f)| {
                idx.insert(i as u32, f.clone());
                idx
            });
    let mut scratch = MatchScratch::new();
    let mut out = Vec::new();
    c.bench_function("match_1000_filters_x_100_events_indexed", |b| {
        b.iter(|| {
            let mut hits = 0usize;
            for e in &events {
                index.matching_into(black_box(e), &mut scratch, &mut out);
                hits += out.len();
            }
            black_box(hits)
        })
    });
}

/// Growth-curve rows: scan vs counting index at 10k and 100k filters
/// (10 events each — the per-event cost is what scales). Two workloads:
/// `multiplayer_game` (broad ranges, ~25% match rate — indexed cost is
/// output-bound, a constant-factor win) and `stock_exchange` (selective
/// equalities and narrow ranges — the sublinear regime, where cost tracks
/// satisfied predicates instead of the population).
fn bench_matching_growth(c: &mut Criterion) {
    for (wname, w) in [
        ("", Workload::multiplayer_game()),
        ("stock_", Workload::stock_exchange()),
    ] {
        bench_growth_rows(c, wname, &w);
    }
}

fn bench_growth_rows(c: &mut Criterion, wname: &str, w: &Workload) {
    for n in [10_000usize, 100_000] {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let filters: Vec<Filter> = (0..n).map(|_| w.subscription(&mut rng)).collect();
        let events: Vec<Event> = (0..10).map(|_| w.event(&mut rng)).collect();
        let label = if n == 10_000 {
            format!("10k_{wname}")
        } else {
            format!("100k_{wname}")
        };
        c.bench_function(&format!("match_{label}filters_x_10_events_scan"), |b| {
            b.iter(|| {
                let mut hits = 0usize;
                for e in &events {
                    for f in &filters {
                        if f.matches(black_box(e)) {
                            hits += 1;
                        }
                    }
                }
                black_box(hits)
            })
        });
        let index: FilterIndex<u32> =
            filters
                .iter()
                .enumerate()
                .fold(FilterIndex::new(), |mut idx, (i, f)| {
                    idx.insert(i as u32, f.clone());
                    idx
                });
        let mut scratch = MatchScratch::new();
        let mut out = Vec::new();
        c.bench_function(&format!("match_{label}filters_x_10_events_indexed"), |b| {
            b.iter(|| {
                let mut hits = 0usize;
                for e in &events {
                    index.matching_into(black_box(e), &mut scratch, &mut out);
                    hits += out.len();
                }
                black_box(hits)
            })
        });
    }
}

fn bench_inclusion(c: &mut Criterion) {
    let preds: Vec<Predicate> = (0..200)
        .map(|i| {
            if i % 2 == 0 {
                Predicate::gt("a", i)
            } else {
                Predicate::lt("a", i)
            }
        })
        .collect();
    c.bench_function("inclusion_200x200", |b| {
        b.iter(|| {
            let mut n = 0usize;
            for p in &preds {
                for q in &preds {
                    if p.includes(black_box(q)) {
                        n += 1;
                    }
                }
            }
            black_box(n)
        })
    });
}

fn bench_choose_branch(c: &mut Criterion) {
    let children: Vec<Predicate> = (0..64).map(|i| Predicate::gt("a", i * 10)).collect();
    let target = Predicate::eq("a", 317);
    c.bench_function("choose_branch_64_children", |b| {
        b.iter(|| black_box(choose_branch(children.iter(), black_box(&target))))
    });
}

fn bench_tree_insert(c: &mut Criterion) {
    let w = Workload::multiplayer_game();
    let mut rng = rand::rngs::StdRng::seed_from_u64(2);
    let subs: Vec<Predicate> = (0..1000)
        .map(|_| w.subscription(&mut rng).predicates()[0].clone())
        .filter(|p| p.name().as_str() == "x")
        .collect();
    c.bench_function("reference_tree_insert_all", |b| {
        b.iter_batched(
            || TreeModel::new("x".into()),
            |mut t| {
                for (i, p) in subs.iter().enumerate() {
                    t.insert(p, NodeId::from_index(i));
                }
                black_box(t.groups().len())
            },
            BatchSize::SmallInput,
        )
    });
}

/// The per-node dedup cache, 128 operations an iteration (ns/iter ÷ 128 =
/// ns per op): what every publication hop pays once or twice. The two key
/// shapes are the ones the overlay stores, at the caps it stores them —
/// `seen_node`'s packed publication id at `SEEN_CAP`, `seen_route`'s id plus
/// label id at 4 × that.
fn bench_seen_cache(c: &mut Criterion) {
    seen_cache_rows(c, 512, |n| (n % 61, n / 61));
    seen_cache_rows(c, 2048, |n| (n % 61, n / 61, n % 7));
}

fn seen_cache_rows<T: Eq + Hash>(c: &mut Criterion, cap: usize, key: fn(u32) -> T) {
    const OPS: u32 = 128;
    let filled = |keys: u32| {
        let mut cache = SeenCache::new(cap);
        for n in 0..keys {
            cache.insert(key(n));
        }
        cache
    };
    // Past the ring's last doubling, with room for the batch below the cap.
    let half = cap as u32 / 2 + 1;
    c.bench_function(&format!("seen_cache_{cap}_insert_below_cap_x128"), |b| {
        b.iter_batched(
            || filled(half),
            |mut cache| {
                for n in half..half + OPS {
                    black_box(cache.insert(key(n)));
                }
                cache
            },
            BatchSize::SmallInput,
        )
    });
    let mut cache = filled(cap as u32);
    println!(
        "# seen_cache_{cap}: {:.1} heap bytes a key at the cap",
        cache.heap_bytes() as f64 / cap as f64
    );
    let mut next = cap as u32;
    c.bench_function(&format!("seen_cache_{cap}_insert_at_cap_x128"), |b| {
        b.iter(|| {
            for n in next..next + OPS {
                black_box(cache.insert(key(n)));
            }
            next += OPS;
        })
    });
    c.bench_function(&format!("seen_cache_{cap}_insert_duplicate_x128"), |b| {
        b.iter(|| {
            for n in next - OPS..next {
                black_box(cache.insert(key(n)));
            }
        })
    });
    c.bench_function(&format!("seen_cache_{cap}_remove_absent_x128"), |b| {
        b.iter(|| {
            for n in next..next + OPS {
                black_box(cache.remove(&key(n)));
            }
        })
    });
}

fn bench_sim_step(c: &mut Criterion) {
    use dps::{DpsConfig, DpsNetwork};
    for n in [100usize, 250] {
        c.bench_function(&format!("overlay_{n}_nodes_one_step"), |b| {
            let mut net = DpsNetwork::new(DpsConfig::default(), 3);
            let nodes = net.add_nodes(n);
            net.run(30);
            let w = Workload::multiplayer_game();
            let mut rng = rand::rngs::StdRng::seed_from_u64(4);
            for n in &nodes {
                let _ = net.try_subscribe(*n, w.subscription(&mut rng));
            }
            net.quiesce(3000);
            b.iter(|| {
                net.run(1);
            })
        });
    }
}

/// The event-queue tax: one busy overlay step at 1k nodes under the
/// draw-free unit model (the old cycle engine's hot path) vs a sampled
/// `Uniform{1,4}` model (every enqueue draws from its destination's latency
/// stream and lands in one of five timing-wheel slots). The gap between the
/// two rows is the entire cost of running the discrete-event machinery;
/// events/sec derives as deliveries-per-step / seconds-per-step.
fn bench_event_queue(c: &mut Criterion) {
    use dps::{DpsConfig, DpsNetwork, LatencyModel};
    let cases: [(&str, Option<LatencyModel>); 2] = [
        ("unit", None),
        (
            "uniform_1_4",
            Some(LatencyModel::Uniform { min: 1, max: 4 }),
        ),
    ];
    for (label, model) in cases {
        c.bench_function(&format!("event_queue_1k_nodes_one_step_{label}"), |b| {
            let mut net = DpsNetwork::new(DpsConfig::default(), 3);
            if let Some(m) = model.clone() {
                net.try_set_latency(m).unwrap();
            }
            let nodes = net.add_nodes(1000);
            net.run(30);
            let w = Workload::multiplayer_game();
            let mut rng = rand::rngs::StdRng::seed_from_u64(4);
            for n in &nodes {
                let _ = net.try_subscribe(*n, w.subscription(&mut rng));
            }
            net.quiesce(6000);
            // Steady-state delivery rate, so events/sec can be derived from
            // the ns/iter row (diagnostic print; not part of the timing).
            let received = |net: &DpsNetwork| -> u64 {
                dps::MsgClass::ALL
                    .iter()
                    .map(|c| net.metrics().total_received(*c))
                    .sum()
            };
            let before = received(&net);
            net.run(100);
            println!(
                "# event_queue_1k_{label}: {:.1} deliveries/step at steady state",
                (received(&net) - before) as f64 / 100.0
            );
            b.iter(|| {
                net.run(1);
            })
        });
    }
}

criterion_group!(
    benches,
    bench_matching,
    bench_matching_growth,
    bench_inclusion,
    bench_choose_branch,
    bench_tree_insert,
    bench_seen_cache,
    bench_sim_step,
    bench_event_queue
);
criterion_main!(benches);
