//! `dps-bench` — the served-path benchmark. See bench/README.md.
//!
//! ```sh
//! dps-bench --workload NAME --seed N --seconds S --trace 0|1 [--pubs N]
//! ```
//!
//! Prints a readable report, then one JSON object on the last line of
//! standard output: the end-to-end metrics with `--trace 0`, the per-layer
//! metrics with `--trace 1`.

mod layers;
mod live;
mod lockstep;
mod round;
mod script;
mod stats;
mod trace;

use std::time::Instant;

use round::Round;
use script::{Drive, Script};

#[global_allocator]
static ALLOC: trace::CountingAlloc = trace::CountingAlloc;

/// Rounds an end-to-end run reads before `--seconds` may cut it short.
const MIN_ROUNDS: usize = 3;

/// What a run reports on its last line.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)`.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

fn usage(err: &str) -> ! {
    eprintln!("error: {err}");
    eprintln!(
        "usage: dps-bench --workload {} --seed N --seconds S --trace 0|1 [--pubs N]",
        script::WORKLOADS.join("|")
    );
    std::process::exit(2);
}

/// Where the socket and the span files go: `bench/out` under the directory
/// the benchmark is started from (the root of the checkout).
pub fn out_dir() -> std::path::PathBuf {
    let dir = std::path::Path::new("bench").join("out");
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("error: cannot create {}: {e}", dir.display());
        std::process::exit(1);
    }
    dir
}

pub fn socket_addr() -> String {
    out_dir()
        .join(format!("{}.sock", std::process::id()))
        .display()
        .to_string()
}

/// One untraced round with the driver the workload names.
fn run_round(script: &Script) -> Result<Round, String> {
    match script.spec.drive {
        Drive::Lockstep => lockstep::run_round(script, false).map(|(r, _)| r),
        Drive::Live { rate } => {
            live::run_round(script, script.events.len(), rate, &socket_addr()).map(|(r, _)| r)
        }
    }
}

/// The end-to-end run: the workload's fixed number of rounds, each on a fresh
/// broker. Every timing is computed inside a round — rates over its window,
/// percentiles over its own deliveries and acks — and the run reports, metric
/// by metric, the best round's: all rounds do byte-identical work and
/// interference on a shared host only ever slows one.
fn end_to_end(script: &Script, seconds: f64) -> Result<Outcome, String> {
    let started = Instant::now();
    let mut rounds: Vec<Round> = Vec::new();
    let mut calib = Vec::new();
    while rounds.len() < script.spec.rounds {
        calib.push(stats::calib_ms());
        let t = Instant::now();
        rounds.push(run_round(script)?);
        let last = t.elapsed().as_secs_f64();
        let r = rounds.last().expect("just pushed");
        println!(
            "round {}: wall {:.2} s, setup {:.3} s, {:.1} pub/s, deliver p50 {:.3} p99 {:.3} ms, ack p50 {:.3} ms, calib {:.2} ms, counts {:?}",
            rounds.len(),
            last,
            r.setup_s,
            r.publishes_per_s(),
            r.deliver_ms(0.5),
            r.deliver_ms(0.99),
            r.ack_ms(0.5),
            calib.last().expect("just pushed"),
            r.counts()
        );
        // `--seconds` only ever cuts a run short: a slower program does not
        // get fewer rounds to pick its best from until it overruns.
        if rounds.len() >= MIN_ROUNDS && started.elapsed().as_secs_f64() + last > seconds {
            break;
        }
    }
    if rounds.len() < script.spec.rounds {
        println!(
            "--seconds {seconds} ran out: {} of {} rounds read",
            rounds.len(),
            script.spec.rounds
        );
    }

    let first = &rounds[0];
    let strict = script.spec.strict;
    if let Some(r) = rounds.iter().find(|r| r.counts() != first.counts()) {
        return Err(format!(
            "rounds of one seed disagree on their counts: {:?} and {:?}",
            first.counts(),
            r.counts()
        ));
    }
    let failed: u64 = rounds.iter().map(|r| r.failed(strict)).sum();
    let attempted: u64 = rounds.iter().map(|r| r.attempted()).sum();
    let least = |f: &dyn Fn(&Round) -> f64| rounds.iter().map(f).fold(f64::MAX, f64::min);
    let most = |f: &dyn Fn(&Round) -> f64| rounds.iter().map(f).fold(f64::MIN, f64::max);
    // p99 needs ten samples beyond it.
    let (n_deliver, n_ack) = (first.deliver_ns.len(), first.ack_ns.len());
    assert!(n_deliver >= 1000, "p99 of {n_deliver} deliveries");
    let metrics = vec![
        ("setup_s", least(&|r| r.setup_s), "s"),
        ("publishes_per_s", most(&|r| r.publishes_per_s()), "1/s"),
        ("deliveries_per_s", most(&|r| r.deliveries_per_s()), "1/s"),
        ("deliver_ms_p50", least(&|r| r.deliver_ms(0.5)), "ms"),
        ("deliver_ms_p99", least(&|r| r.deliver_ms(0.99)), "ms"),
        ("ack_ms_p50", least(&|r| r.ack_ms(0.5)), "ms"),
        ("delivered_share", first.delivered_share(), "share"),
        // Round 1 only: later rounds reuse the heap the first one freed.
        ("rss_setup_mib", first.rss_setup_kib / 1024.0, "MiB"),
        (
            "rss_kib_per_pub",
            (first.rss_end_kib - first.rss_setup_kib) / first.acked as f64,
            "KiB",
        ),
    ];
    let wall = |r: &Round| r.setup_s + r.deliver_window_s;
    let (fastest, slowest) = (least(&wall), most(&wall));
    println!(
        "{} rounds; round spread {:.3}; calib min {:.2} ms, max {:.2} ms",
        rounds.len(),
        (slowest - fastest) / fastest,
        calib.iter().copied().fold(f64::MAX, f64::min),
        calib.iter().copied().fold(f64::MIN, f64::max),
    );
    println!(
        "per round: {} publications, {} deliveries ({} required, {} missed, {} wrong); samples per round: deliver n={n_deliver}, ack n={n_ack}",
        first.published, first.deliveries, first.required, first.missing, first.wrong
    );
    println!("ops_attempted {attempted}  ops_failed {failed}");
    Ok(Outcome {
        correct: failed == 0,
        attempted,
        failed,
        metrics,
    })
}

fn main() {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut traced = None;
    let mut pubs = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let val = args
            .next()
            .unwrap_or_else(|| usage(&format!("{arg} needs a value")));
        match arg.as_str() {
            "--workload" => workload = Some(val),
            "--seed" => seed = Some(val.parse::<u64>().unwrap_or_else(|_| usage("bad --seed"))),
            "--seconds" => {
                seconds = Some(
                    val.parse::<f64>()
                        .unwrap_or_else(|_| usage("bad --seconds")),
                )
            }
            "--trace" => {
                traced = Some(match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                })
            }
            // Publications per round, for bench/check.sh's tiny runs.
            "--pubs" => pubs = Some(val.parse::<usize>().unwrap_or_else(|_| usage("bad --pubs"))),
            other => usage(&format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.unwrap_or_else(|| usage("--workload is required"));
    let seed = seed.unwrap_or_else(|| usage("--seed is required"));
    let seconds = seconds.unwrap_or_else(|| usage("--seconds is required"));
    let traced = traced.unwrap_or_else(|| usage("--trace is required"));
    let mut spec = script::spec(&workload).unwrap_or_else(|| usage("unknown workload"));
    if let Some(pubs) = pubs {
        spec.pubs = pubs;
    }

    let t = Instant::now();
    let script = Script::generate(spec, seed);
    println!(
        "{workload} seed {seed}: script in {:.2} s — {} publications, {} subscriptions, {:.2} required deliveries per publication",
        t.elapsed().as_secs_f64(),
        script.events.len(),
        script.subs.len(),
        script.required_total as f64 / script.events.len() as f64
    );
    let outcome = if traced {
        layers::traced_run(&script, seed)
    } else {
        end_to_end(&script, seconds)
    };
    let outcome = outcome.unwrap_or_else(|e| {
        // No result line: an aborted run is not a measurement.
        println!("FAIL: {e}");
        std::process::exit(1);
    });

    let mut json = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        outcome.correct, outcome.attempted, outcome.failed
    );
    for (i, (name, value, unit)) in outcome.metrics.iter().enumerate() {
        assert!(value.is_finite(), "{name} is {value}");
        println!("{name:<36} {value:>14.4} {unit}");
        if i > 0 {
            json.push_str(", ");
        }
        json.push_str(&format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    json.push_str("}}");
    println!("{json}");
    if !outcome.correct {
        std::process::exit(1);
    }
}
