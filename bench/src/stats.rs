//! Small measurement helpers: clocks, percentiles, RSS, the calibration
//! kernel, a bit matrix and pre-faulted sample buffers.

use std::hint::black_box;
use std::sync::OnceLock;
use std::time::Instant;

static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Nanoseconds since the first call in this process (the span time base).
pub fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Nearest-rank percentile of an ascending slice; `q` in `(0, 1]`.
pub fn percentile(sorted: &[u32], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1] as f64
}

/// Resident set size of this process in KiB (`/proc/self/statm`, 4 KiB pages).
pub fn rss_kib() -> f64 {
    let statm = std::fs::read_to_string("/proc/self/statm").expect("linux /proc");
    let pages: f64 = statm
        .split_whitespace()
        .nth(1)
        .and_then(|p| p.parse().ok())
        .expect("statm has a resident field");
    pages * 4.0
}

/// A fixed std-only hash + format kernel, in milliseconds. It does the same
/// work on every call, so its time tracks how fast the host is right now: a
/// run whose throughput fell while `calib_ms` rose met a slow host, not a slow
/// program.
pub fn calib_ms() -> f64 {
    use std::fmt::Write;
    let t = Instant::now();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut s = String::with_capacity(64);
    for i in 0..60_000u64 {
        s.clear();
        write!(s, "{}:{:x}", i, h).expect("string write");
        for b in s.bytes() {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    black_box(h);
    t.elapsed().as_secs_f64() * 1e3
}

/// A sample buffer whose pages are resident before timing starts, so filling
/// it does not show up as RSS growth of the measured window.
pub struct Samples {
    buf: Vec<u32>,
    len: usize,
}

impl Samples {
    pub fn with_capacity(cap: usize) -> Self {
        let mut buf = vec![0u32; cap];
        for x in buf.iter_mut() {
            *x = black_box(0);
        }
        Samples { buf, len: 0 }
    }

    /// Records one duration in nanoseconds (clamped to `u32`, 4.29 s).
    pub fn push(&mut self, ns: u64) {
        let v = ns.min(u32::MAX as u64) as u32;
        if self.len < self.buf.len() {
            self.buf[self.len] = v;
        } else {
            self.buf.push(v);
        }
        self.len += 1;
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn truncate(&mut self, len: usize) {
        self.len = self.len.min(len);
    }

    pub fn as_slice(&self) -> &[u32] {
        &self.buf[..self.len]
    }

    pub fn sum(&self) -> u64 {
        self.buf[..self.len].iter().map(|v| *v as u64).sum()
    }

    /// The recorded samples, ascending.
    pub fn into_sorted(mut self) -> Vec<u32> {
        self.buf.truncate(self.len);
        self.buf.sort_unstable();
        self.buf
    }
}

/// A dense rows × cols bit matrix (publications × subscriptions).
pub struct BitMatrix {
    words: Vec<u64>,
    stride: usize,
}

impl BitMatrix {
    pub fn new(rows: usize, cols: usize) -> Self {
        let stride = cols.div_ceil(64).max(1);
        let mut words = vec![0u64; rows * stride];
        for w in words.iter_mut() {
            *w = black_box(0);
        }
        BitMatrix { words, stride }
    }

    pub fn get(&self, r: usize, c: usize) -> bool {
        self.words[r * self.stride + c / 64] >> (c % 64) & 1 == 1
    }

    /// Sets the bit; returns whether it was already set.
    pub fn set(&mut self, r: usize, c: usize) -> bool {
        let w = &mut self.words[r * self.stride + c / 64];
        let was = *w >> (c % 64) & 1 == 1;
        *w |= 1 << (c % 64);
        was
    }

    pub fn count_row(&self, r: usize) -> u32 {
        self.words[r * self.stride..(r + 1) * self.stride]
            .iter()
            .map(|w| w.count_ones())
            .sum()
    }

    pub fn count(&self) -> u64 {
        self.words.iter().map(|w| w.count_ones() as u64).sum()
    }

    /// Bits set in `self` but not in `other`.
    pub fn count_missing_from(&self, other: &BitMatrix) -> u64 {
        self.words
            .iter()
            .zip(&other.words)
            .map(|(a, b)| (a & !b).count_ones() as u64)
            .sum()
    }
}
