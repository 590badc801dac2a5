//! What only a traced run records: spans around the harness's calls into each
//! layer, the operation log a `DpsNetwork` replica replays, and a counting
//! allocator armed around `Broker::pump`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::Write;

pub const NO_PARENT: u32 = u32::MAX;

/// One timed call. `parent` is the index of the span that caused it; spans of
/// one publication share `publication`.
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub publication: Option<u32>,
}

/// A client frame as the broker will apply it, for the replica.
pub enum Op {
    Hello,
    Subscribe(usize),
    Unsubscribe(usize),
    Publish(usize),
    Close,
}

#[derive(Default)]
pub struct Trace {
    pub spans: Vec<Span>,
    /// `(turn, client, op)` in the order written; turns count from the first
    /// pump of the round, set-up included.
    pub ops: Vec<(usize, usize, Op)>,
    /// Absolute turn at which the timed window opened, and closed.
    pub window_turns: (usize, usize),
}

impl Trace {
    pub fn span(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: u32,
        publication: Option<u32>,
    ) -> u32 {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            publication,
        });
        (self.spans.len() - 1) as u32
    }

    /// Writes the spans as one JSON document (see bench/README.md).
    pub fn write_json(
        &self,
        path: &std::path::Path,
        workload: &str,
        seed: u64,
    ) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(
            w,
            "{{\"workload\":\"{workload}\",\"seed\":{seed},\"unit\":\"ns\",\"spans\":["
        )?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = match s.parent {
                NO_PARENT => "null".to_string(),
                p => p.to_string(),
            };
            let publication = match s.publication {
                None => "null".to_string(),
                Some(p) => p.to_string(),
            };
            writeln!(
                w,
                "{{\"id\":{i},\"name\":\"{}\",\"start\":{},\"end\":{},\"parent\":{parent},\"pub\":{publication}}}{}",
                s.name,
                s.start_ns,
                s.end_ns,
                if i + 1 == self.spans.len() { "" } else { "," }
            )?;
        }
        writeln!(w, "]}}")?;
        w.flush()
    }
}

thread_local! {
    // Plain cells, no atomics: only the thread that runs `Broker::pump` is
    // ever counted, and a locked add per allocation slowed the traced round
    // by a fifth. Const-initialised and without destructors, so touching them
    // from inside the allocator allocates nothing.
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static COUNTS: Cell<[u64; 3]> = const { Cell::new([0; 3]) };
}

/// The system allocator with counters that only run while the calling thread
/// has armed them, as `tests/zero_copy_alloc.rs` does it.
pub struct CountingAlloc;

impl CountingAlloc {
    fn count(allocated: usize, freed: usize) {
        // `try_with`: a thread being torn down may allocate after its
        // thread-locals are gone; it is not the thread being counted.
        let _ = ARMED.try_with(|armed| {
            if armed.get() {
                let _ = COUNTS.try_with(|c| {
                    let [n, a, f] = c.get();
                    let n = n + (allocated > 0) as u64;
                    c.set([n, a + allocated as u64, f + freed as u64]);
                });
            }
        });
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters touch no allocation.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::count(layout.size(), 0);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::count(layout.size(), 0);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::count(new_size, layout.size());
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        Self::count(0, layout.size());
        System.dealloc(ptr, layout)
    }
}

/// Starts or stops counting the calling thread's allocations.
pub fn arm(on: bool) {
    ARMED.with(|a| a.set(on));
}

/// `(allocations, bytes allocated, bytes freed)` this thread counted while
/// armed.
pub fn alloc_counts() -> (u64, u64, u64) {
    let [n, a, f] = COUNTS.with(|c| c.get());
    (n, a, f)
}
