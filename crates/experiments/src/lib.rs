//! Experiment harness for the DPS reproduction: one runner per table/figure of
//! the paper's evaluation (§5.2), shared scenario plumbing, and result output.
//!
//! Every runner prints the series the paper plots, next to the paper's headline
//! expectation, and returns the measured rows so the bench targets can persist
//! them as JSON under `target/experiments/`.
//!
//! Scale is controlled by the `DPS_SCALE` environment variable:
//!
//! * `smoke` — tiny populations/durations so a full figure runs end-to-end in
//!   seconds (the CI smoke job);
//! * unset or `quick` — reduced populations/durations so the full suite runs in
//!   minutes (defaults used by `cargo bench`);
//! * `paper` — the paper's parameters (10,000 subscriptions/events for Table 1,
//!   1,000 nodes and 3,000–5,000 steps for the figures).
//!
//! Every `(config, p)` / `(config, seed)` cell of a figure is an independent
//! deterministic simulation, so runners fan cells out across threads via
//! [`run_cells`]; `DPS_THREADS` caps the worker count (default: available
//! parallelism). Results are collected in cell order, so the output rows — and
//! the JSON written by the bench targets — are byte-identical to a serial run.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod figures;
pub mod output;
pub mod table1;

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use serde::Serialize;

/// Experiment scale, from the `DPS_SCALE` environment variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum Scale {
    /// Tiny scale: a full figure end-to-end in seconds (CI smoke test).
    Smoke,
    /// Reduced scale for local runs / `cargo bench` (minutes for the whole suite).
    Quick,
    /// The paper's parameters.
    Paper,
}

impl Scale {
    /// Parses a `DPS_SCALE` value: unset means `quick`; anything that is not
    /// a known scale is an error — a typo like `DPS_SCALE=papr` must abort
    /// the run, not silently measure at the wrong scale.
    pub fn parse(raw: Option<&str>) -> Result<Self, String> {
        match raw {
            None => Ok(Scale::Quick),
            Some("paper" | "PAPER" | "full") => Ok(Scale::Paper),
            Some("smoke" | "SMOKE") => Ok(Scale::Smoke),
            Some("quick" | "QUICK") => Ok(Scale::Quick),
            Some(other) => Err(format!(
                "DPS_SCALE={other:?} is not a known scale (expected smoke, quick or paper)"
            )),
        }
    }

    /// Reads `DPS_SCALE` (`quick` default, `smoke` for CI, `paper` for full runs).
    ///
    /// # Panics
    ///
    /// Panics on an unknown value — see [`parse`](Self::parse).
    pub fn from_env() -> Self {
        match Scale::parse(std::env::var("DPS_SCALE").ok().as_deref()) {
            Ok(s) => s,
            Err(e) => panic!("{e}"),
        }
    }

    /// Picks the parameter for this scale.
    pub fn pick<T>(self, smoke: T, quick: T, paper: T) -> T {
        match self {
            Scale::Smoke => smoke,
            Scale::Quick => quick,
            Scale::Paper => paper,
        }
    }
}

/// Prints a section header for a runner.
pub fn banner(title: &str, scale: Scale) {
    println!();
    println!("=== {title} [scale: {scale:?}] ===");
}

/// Peak resident-set size of this process in bytes (`VmHWM` from
/// `/proc/self/status`), or `None` where procfs is unavailable. This is the
/// number recorded next to `BENCH_micro.json` for the metro tier: it bounds
/// what the whole run — nodes, queues, bookkeeping — ever held in RAM.
/// Diagnostics only; never fold it into result JSON (the CI determinism jobs
/// `cmp` those byte-for-byte across thread counts).
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib * 1024)
}

/// Worker-thread count for [`run_cells`]: `DPS_THREADS` if set (≥ 1), otherwise
/// the machine's available parallelism. Malformed values abort
/// ([`dps_scenarios::env::threads`]), they do not silently fall back.
pub fn thread_count() -> usize {
    dps_scenarios::env::threads()
}

/// Runs independent scenario cells on a scoped thread pool and returns their
/// results **in cell order**, so output is identical to a serial run.
///
/// Each cell is claimed exactly once (work-stealing over an atomic cursor), so
/// uneven cell durations don't leave workers idle. With `DPS_THREADS=1` (or a
/// single cell) everything runs inline on the caller's thread.
pub fn run_cells<T, F>(cells: Vec<F>) -> Vec<T>
where
    T: Send,
    F: FnOnce() -> T + Send,
{
    let n = cells.len();
    let threads = thread_count().min(n);
    if threads <= 1 {
        return cells.into_iter().map(|f| f()).collect();
    }
    let jobs: Vec<Mutex<Option<F>>> = cells.into_iter().map(|f| Mutex::new(Some(f))).collect();
    let done: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let job = jobs[i].lock().unwrap().take().expect("cell claimed twice");
                let out = job();
                *done[i].lock().unwrap() = Some(out);
            });
        }
    });
    done.into_iter()
        .map(|m| m.into_inner().unwrap().expect("cell did not run"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_cells_preserves_order() {
        let cells: Vec<_> = (0..32)
            .map(|i| {
                move || {
                    // Uneven durations to exercise the work-stealing path.
                    std::thread::sleep(std::time::Duration::from_millis((32 - i) % 7));
                    i * i
                }
            })
            .collect();
        let got = run_cells(cells);
        let want: Vec<_> = (0..32).map(|i| i * i).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn scale_parsing_is_strict() {
        assert_eq!(Scale::parse(None), Ok(Scale::Quick));
        assert_eq!(Scale::parse(Some("smoke")), Ok(Scale::Smoke));
        assert_eq!(Scale::parse(Some("quick")), Ok(Scale::Quick));
        assert_eq!(Scale::parse(Some("paper")), Ok(Scale::Paper));
        assert_eq!(Scale::parse(Some("full")), Ok(Scale::Paper));
        // The metro library is a directory of the `scenarios` bin, not a scale.
        assert!(Scale::parse(Some("metro")).is_err());
        // The satellite bugfix: a typo must error, not quietly run quick.
        let e = Scale::parse(Some("papr")).unwrap_err();
        assert!(e.contains("DPS_SCALE") && e.contains("papr"), "{e}");
        assert!(Scale::parse(Some("")).is_err());
    }

    #[test]
    fn peak_rss_is_plausible_on_linux() {
        if let Some(rss) = peak_rss_bytes() {
            // The test process certainly holds more than 1 MB and (far) less
            // than 1 TB; the point is that the procfs parse is sane.
            assert!(rss > 1 << 20 && rss < 1 << 40, "VmHWM parsed as {rss}");
        }
    }

    #[test]
    fn run_cells_handles_empty_and_single() {
        let empty: Vec<fn() -> u32> = Vec::new();
        assert!(run_cells(empty).is_empty());
        assert_eq!(run_cells(vec![|| 7u32]), vec![7]);
    }
}
