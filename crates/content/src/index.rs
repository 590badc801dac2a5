//! [`FilterIndex`]: sublinear content matching by the counting algorithm.
//!
//! The linear scan (`for every filter: Filter::matches`) is O(filters ×
//! predicates) per event — the broker hot path once subscription counts reach
//! five or six figures. The index inverts the problem: predicates are grouped
//! into **per-attribute sub-indexes** keyed so that, given one event attribute
//! value, every satisfied predicate is found without touching the unsatisfied
//! ones:
//!
//! * `Eq` / `StrEq` — hash lookups keyed by the constant;
//! * paired `Gt`+`Lt` on one attribute — the dominant shape of range
//!   subscriptions (`lo < a < hi`) — become **open intervals** in a centered
//!   interval-stab tree: a stab query reports exactly the intervals
//!   containing the event value, each worth *two* satisfied predicates, so
//!   half-satisfied ranges (inside one bound, outside the other) cost
//!   nothing instead of one wasted bump per bound;
//! * unpaired `Lt` / `Gt` — flattened `(constant, slot)` postings sorted by
//!   constant: `v < c` holds for a contiguous suffix (binary-searched),
//!   `v > c` for a contiguous prefix. A small unsorted overlay absorbs
//!   inserts and is merged back when it grows, so building stays O(n log n)
//!   while queries scan cache-friendly contiguous memory;
//! * `Prefix` — the patterns, sorted; each prefix of the event value is found
//!   by binary search (a value has at most `len + 1` prefixes);
//! * `Suffix` — the same trick on **reversed** keys: `v` ends with `c` iff
//!   `rev(v)` starts with `rev(c)`;
//! * `Contains` — a small per-attribute scan list (substring patterns admit no
//!   total order that contiguously groups the satisfied ones).
//!
//! Each satisfied predicate bumps a per-filter **counter**; a filter matches
//! the event exactly when its counter reaches its arity (its number of
//! predicates — a conjunction is satisfied iff every conjunct is). Filters
//! with no predicates always match. Counters are epoch-stamped words in a
//! [`MatchScratch`] (16-bit epoch packed with a 16-bit count, one load/store
//! per bump), so a query is allocation-free in steady state and never pays to
//! reset the previous query's counts. Matched filters are recorded in a slot
//! **bitmap**, not a list — emission walks set bits in slot order, which *is*
//! handle order while handles have only ever been inserted in ascending order
//! (every call site in this workspace; a per-index flag tracks it), so the
//! common case never sorts.
//!
//! **Determinism.** Matches are yielded sorted by handle (ties — one handle
//! inserted twice — by insertion slot), whatever the internal hash-map or
//! posting order is; every consumer therefore observes the same result
//! sequence across runs and threads. The index is differential-tested
//! against the linear scan under proptest (`tests/index_differential.rs`),
//! which is the scan's only remaining job: the index is the one runtime
//! matcher.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use crate::{AttrName, Event, Filter, Op, SharedFilter, Value};

/// Slot id: dense index into the slot table (reused after removals).
type SlotId = u32;

/// One live entry's filter (the handle lives in the parallel `handle_of`
/// array and the `handles` map).
#[derive(Debug, Clone)]
struct Slot {
    filter: SharedFilter,
}

/// Sentinel slot marking a tombstoned `flat` entry in [`RangePostings`]
/// (would require 2^32 live slots to collide with a real one).
const TOMBSTONE: SlotId = SlotId::MAX;

/// Flattened numeric range postings, sorted by constant, with a small
/// unsorted overlay absorbing recent inserts (merged back once it exceeds
/// `max(64, flat/16)`, keeping amortized build cost O(n log n)). For `Lt`
/// postings the satisfied set for event value `v` is the contiguous suffix
/// with constants `> v`; for `Gt` the prefix with constants `< v`.
///
/// Removal from the sorted array tombstones the entry instead of shifting
/// the tail (`Vec::remove` would make unsubscribe-heavy churn on one
/// attribute O(n²) total); tombstones are compacted at the next merge, or
/// eagerly once they exceed the same `max(64, flat/16)` bound — each
/// compaction reclaims a constant fraction, so removal stays amortized O(1)
/// modulo the binary search.
#[derive(Debug, Clone, Default)]
struct RangePostings {
    flat: Vec<(i64, SlotId)>,
    pending: Vec<(i64, SlotId)>,
    /// Tombstoned entries still in `flat`.
    dead: usize,
}

impl RangePostings {
    fn insert(&mut self, c: i64, s: SlotId) {
        self.pending.push((c, s));
        if self.pending.len() >= 64.max(self.flat.len() / 16) {
            self.compact();
            self.flat.append(&mut self.pending);
            self.flat.sort_unstable_by_key(|&(c, _)| c);
        }
    }

    fn compact(&mut self) {
        if self.dead > 0 {
            self.flat.retain(|&(_, s)| s != TOMBSTONE);
            self.dead = 0;
        }
    }

    fn remove(&mut self, c: i64, s: SlotId) {
        if let Some(i) = self.pending.iter().position(|&e| e == (c, s)) {
            self.pending.swap_remove(i);
            return;
        }
        let mut i = self.flat.partition_point(|&(fc, _)| fc < c);
        while i < self.flat.len() && self.flat[i].0 == c {
            if self.flat[i].1 == s {
                self.flat[i].1 = TOMBSTONE;
                self.dead += 1;
                if self.dead >= 64.max(self.flat.len() / 16) {
                    self.compact();
                }
                return;
            }
            i += 1;
        }
    }

    fn is_empty(&self) -> bool {
        self.flat.len() == self.dead && self.pending.is_empty()
    }
}

/// A static centered interval-stab tree over open intervals `(lo, hi)`
/// (stabbed by `v` iff `lo < v < hi`). Each node holds the intervals
/// straddling its center, sorted by `lo` ascending and by `hi` descending:
/// a stab at `v < center` reports the `by_lo` prefix with `lo < v` (every
/// stored interval already has `hi > center > v`), symmetrically for
/// `v > center` — every touched entry is a true stab, no wasted checks.
#[derive(Debug, Clone)]
struct StabTree {
    nodes: Vec<StabNode>,
    /// Root node index; `u32::MAX` when empty.
    root: u32,
}

impl Default for StabTree {
    fn default() -> Self {
        StabTree {
            nodes: Vec::new(),
            root: u32::MAX,
        }
    }
}

#[derive(Debug, Clone)]
struct StabNode {
    center: i64,
    left: u32,
    right: u32,
    /// Straddling intervals sorted by `(lo, slot)` ascending.
    by_lo: Vec<(i64, SlotId)>,
    /// The same intervals sorted by `(hi, slot)` descending.
    by_hi: Vec<(i64, SlotId)>,
}

impl StabTree {
    fn build(items: &[(i64, i64, SlotId)]) -> StabTree {
        let mut t = StabTree {
            nodes: Vec::new(),
            root: u32::MAX,
        };
        // Degenerate intervals (no integer strictly between the bounds) can
        // never be stabbed; keeping them out also guarantees the partition
        // below always makes progress.
        let live: Vec<(i64, i64, SlotId)> = items
            .iter()
            .copied()
            .filter(|&(lo, hi, _)| hi.saturating_sub(lo) >= 2)
            .collect();
        t.root = Self::build_node(&mut t.nodes, live);
        t
    }

    fn build_node(nodes: &mut Vec<StabNode>, items: Vec<(i64, i64, SlotId)>) -> u32 {
        if items.is_empty() {
            return u32::MAX;
        }
        // Center on the median of the interval midpoints. Each midpoint is
        // strictly interior (`hi >= lo + 2`, and the i128 sum cannot
        // truncate past a bound — `lo/2 + hi/2` could, landing ON `lo` for
        // odd tight spans like (3, 5) and recursing forever), so the
        // interval that produced the median straddles the center, lands in
        // `here`, and both child sets strictly shrink.
        let mut mids: Vec<i64> = items
            .iter()
            .map(|&(lo, hi, _)| ((lo as i128 + hi as i128) / 2) as i64)
            .collect();
        mids.sort_unstable();
        let center = mids[mids.len() / 2];
        let mut left = Vec::new();
        let mut right = Vec::new();
        let mut here = Vec::new();
        for it in items {
            if it.1 <= center {
                left.push(it);
            } else if it.0 >= center {
                right.push(it);
            } else {
                here.push(it);
            }
        }
        let mut by_lo: Vec<(i64, SlotId)> = here.iter().map(|&(lo, _, s)| (lo, s)).collect();
        by_lo.sort_unstable();
        let mut by_hi: Vec<(i64, SlotId)> = here.iter().map(|&(_, hi, s)| (hi, s)).collect();
        by_hi.sort_unstable_by(|a, b| b.cmp(a));
        let l = Self::build_node(nodes, left);
        let r = Self::build_node(nodes, right);
        nodes.push(StabNode {
            center,
            left: l,
            right: r,
            by_lo,
            by_hi,
        });
        (nodes.len() - 1) as u32
    }

    fn is_empty(&self) -> bool {
        self.root == u32::MAX
    }

    /// Reports the slot of every interval containing `v`, exactly once each.
    #[inline]
    fn stab(&self, v: i64, mut report: impl FnMut(SlotId)) {
        let mut cur = self.root;
        while cur != u32::MAX {
            let n = &self.nodes[cur as usize];
            if v < n.center {
                for &(lo, s) in &n.by_lo {
                    if lo >= v {
                        break;
                    }
                    report(s);
                }
                cur = n.left;
            } else if v > n.center {
                for &(hi, s) in &n.by_hi {
                    if hi <= v {
                        break;
                    }
                    report(s);
                }
                cur = n.right;
            } else {
                // v == center: every straddling interval is stabbed, and no
                // left (hi <= center) or right (lo >= center) one can be.
                for &(_, s) in &n.by_lo {
                    report(s);
                }
                return;
            }
        }
    }
}

/// Paired-range postings: open intervals `(lo, hi, slot)` in a [`StabTree`],
/// with a small pending overlay absorbing inserts (scanned linearly until
/// the next rebuild). Removal of a tree-resident interval leaves a stale
/// tree entry behind — the caller quarantines the slot (no reuse) until the
/// next global rebuild sweeps it out.
#[derive(Debug, Clone, Default)]
struct IntervalPostings {
    /// Every live interval (rebuild source of truth).
    items: Vec<(i64, i64, SlotId)>,
    /// Live intervals not yet in the tree.
    pending: Vec<(i64, i64, SlotId)>,
    tree: StabTree,
}

impl IntervalPostings {
    /// Returns true when the pending overlay outgrew its bound and the tree
    /// should be rebuilt.
    fn insert(&mut self, lo: i64, hi: i64, s: SlotId) -> bool {
        self.items.push((lo, hi, s));
        self.pending.push((lo, hi, s));
        self.pending.len() >= 64.max(self.items.len() / 16)
    }

    fn rebuild(&mut self) {
        self.tree = StabTree::build(&self.items);
        self.pending.clear();
    }

    /// Removes the interval; returns true when the static tree may retain a
    /// stale reference to `s` (the caller must quarantine the slot).
    fn remove(&mut self, lo: i64, hi: i64, s: SlotId) -> bool {
        if let Some(i) = self.items.iter().position(|&e| e == (lo, hi, s)) {
            self.items.swap_remove(i);
        }
        if let Some(i) = self.pending.iter().position(|&e| e == (lo, hi, s)) {
            self.pending.swap_remove(i);
            false
        } else {
            !self.tree.is_empty()
        }
    }

    fn is_empty(&self) -> bool {
        self.items.is_empty()
    }
}

/// One indexable unit of a filter: a paired `lo < a < hi` interval or a
/// single predicate. The decomposition is a pure function of the predicate
/// list, so insert and remove (which re-derives it from the stored filter)
/// always agree on what was posted where.
enum Posting<'a> {
    /// `attr`, `lo`, `hi` from a `Gt(lo)` + `Lt(hi)` pair; counts **two**
    /// satisfied predicates when stabbed, zero otherwise (a half-satisfied
    /// range can never complete its conjunction, so the half-count the
    /// unpaired encoding would record is pure waste).
    Interval(&'a AttrName, i64, i64),
    Single(&'a crate::Predicate),
}

/// Pairs each `Gt` with the next unpaired `Lt` on the same attribute (and
/// vice versa), in predicate order; everything else posts singly.
fn decompose(filter: &Filter) -> Vec<Posting<'_>> {
    let preds = filter.predicates();
    let mut used = vec![false; preds.len()];
    let mut out = Vec::with_capacity(preds.len());
    for i in 0..preds.len() {
        if used[i] {
            continue;
        }
        let p = &preds[i];
        let want = match p.op() {
            Op::Gt => Op::Lt,
            Op::Lt => Op::Gt,
            _ => {
                out.push(Posting::Single(p));
                continue;
            }
        };
        let partner = (i + 1..preds.len())
            .find(|&j| !used[j] && preds[j].op() == want && preds[j].name() == p.name());
        match partner {
            Some(j) => {
                used[j] = true;
                let (Value::Int(a), Value::Int(b)) = (p.constant(), preds[j].constant()) else {
                    unreachable!("Gt/Lt predicates carry int constants")
                };
                let (lo, hi) = if p.op() == Op::Gt { (*a, *b) } else { (*b, *a) };
                out.push(Posting::Interval(p.name(), lo, hi));
            }
            None => out.push(Posting::Single(p)),
        }
    }
    out
}

/// The per-attribute sub-indexes (see the module docs in `index.rs`).
#[derive(Debug, Clone, Default)]
struct AttrIndex {
    /// `a = c` postings keyed by the constant.
    eq: HashMap<i64, Vec<SlotId>>,
    /// Paired `lo < a < hi` range postings (see [`IntervalPostings`]).
    iv: IntervalPostings,
    /// Unpaired `a < c` postings; satisfied for constants `> v`.
    lt: RangePostings,
    /// `a > c` postings; satisfied for constants `< v`.
    gt: RangePostings,
    /// `s = "c"` postings keyed by the constant.
    str_eq: HashMap<Arc<str>, Vec<SlotId>>,
    /// `s = "c*"` postings, sorted by pattern for binary search on each
    /// prefix of the event value.
    prefix: Vec<(Arc<str>, Vec<SlotId>)>,
    /// `s = "*c"` postings keyed by the **reversed** pattern, sorted, probed
    /// with prefixes of the reversed event value.
    suffix: Vec<(String, Vec<SlotId>)>,
    /// `s = "*c*"` postings: no sublinear order exists, so a scan list —
    /// bounded by the number of `Contains` patterns on this one attribute.
    contains: Vec<(Arc<str>, Vec<SlotId>)>,
}

impl AttrIndex {
    fn is_empty(&self) -> bool {
        self.eq.is_empty()
            && self.iv.is_empty()
            && self.lt.is_empty()
            && self.gt.is_empty()
            && self.str_eq.is_empty()
            && self.prefix.is_empty()
            && self.suffix.is_empty()
            && self.contains.is_empty()
    }
}

/// Reusable per-query state: packed epoch+count words per slot, the hit
/// bitmap, and a string-reversal buffer. Owning one per matching site keeps
/// queries allocation-free in steady state; a fresh default works too (the
/// first query sizes it).
#[derive(Debug, Clone, Default)]
pub struct MatchScratch {
    /// Per-slot word: `(epoch << 16) | satisfied_count`, valid when the high
    /// half equals the current epoch.
    state: Vec<u32>,
    /// Current query epoch (16-bit rolling; a wrap clears `state`).
    epoch: u32,
    /// Bitmap of slots whose count reached their arity this query.
    hits: Vec<u64>,
    /// Number of set bits in `hits`.
    hit_count: u32,
    /// Reversed event value, for the suffix sub-index.
    rev: String,
}

impl MatchScratch {
    /// Creates an empty scratch (equivalent to `Default::default()`).
    pub fn new() -> Self {
        MatchScratch::default()
    }

    fn begin(&mut self, slots: usize) {
        if self.state.len() < slots {
            self.state.resize(slots, 0);
            self.hits.resize(slots.div_ceil(64), 0);
        }
        self.hits.fill(0);
        self.hit_count = 0;
        self.epoch = (self.epoch + 1) & 0xffff;
        if self.epoch == 0 {
            // Epoch wrapped: stale stamps could collide with the new epoch.
            self.state.fill(0);
            self.epoch = 1;
        }
    }

    /// Marks `slot` as a hit (used for always-matching empty filters).
    fn set_hit(&mut self, slot: SlotId) {
        let i = slot as usize;
        let word = &mut self.hits[i >> 6];
        if *word & (1 << (i & 63)) == 0 {
            *word |= 1 << (i & 63);
            self.hit_count += 1;
        }
    }
}

/// Counts `by` satisfied predicates for `slot` (1 for a single posting, 2
/// for a stabbed interval pair); sets the hit bit when the count reaches the
/// filter's arity. The bit is set at most once: a slot's postings together
/// contribute exactly its arity when all are satisfied and strictly less
/// otherwise, and each posting bumps at most once per event, so the count
/// lands on the arity only with the final contribution. A free function over
/// split scratch fields so the per-attribute query loops borrow cleanly; one
/// load + one store on the packed state word.
#[inline]
fn bump(
    state: &mut [u32],
    hits: &mut [u64],
    hit_count: &mut u32,
    epoch: u32,
    arity: &[u32],
    slot: SlotId,
    by: u32,
) {
    let i = slot as usize;
    let w = state[i];
    let c = if w >> 16 == epoch {
        (w & 0xffff) + by
    } else {
        by
    };
    state[i] = (epoch << 16) | c;
    if c == arity[i] {
        hits[i >> 6] |= 1 << (i & 63);
        *hit_count += 1;
    }
}

/// A content-matching index over `(handle, Filter)` pairs — see the
/// module docs in `index.rs` for the structure and the counting scheme.
///
/// `H` is the caller's handle type (a subscription id, a `(node, sub)` pair,
/// a dense index…); results come back **sorted by handle**, so iteration
/// order is deterministic regardless of internal hash layouts. Handles may
/// repeat (the index is a multimap); [`FilterIndex::remove`] drops every
/// entry under the handle.
///
/// ```
/// use dps_content::{Event, Filter, FilterIndex, Value};
///
/// let mut idx: FilterIndex<u32> = FilterIndex::new();
/// idx.insert(7, "a > 2 & a < 20".parse::<Filter>().unwrap());
/// idx.insert(3, "c = ab*".parse::<Filter>().unwrap());
/// let ev = Event::new([("a", Value::from(10)), ("c", Value::from("abc"))]);
/// assert_eq!(idx.matching(&ev), vec![3, 7]); // handle order
/// idx.remove(7);
/// assert_eq!(idx.matching(&ev), vec![3]);
/// ```
#[derive(Debug, Clone)]
pub struct FilterIndex<H> {
    slots: Vec<Option<Slot>>,
    /// Arity per slot (parallel to `slots`; hot in the counting loop).
    arity: Vec<u32>,
    /// Handle per slot (parallel to `slots`; hot in hit emission — avoids
    /// touching the fat `Slot` during queries). Stale for free slots.
    handle_of: Vec<H>,
    free: Vec<SlotId>,
    /// Removed slots whose filters had tree-resident interval postings: the
    /// static stab trees may still reference them (their arity is zeroed, so
    /// stale bumps can never hit), and they must not be reused until the
    /// next [`FilterIndex::gc`] rebuilds the trees without them.
    quarantine: Vec<SlotId>,
    by_attr: HashMap<AttrName, AttrIndex>,
    /// Slots of predicate-less filters (they match every event), sorted.
    empty: Vec<SlotId>,
    /// Handle → slots, for removal and lookup.
    handles: BTreeMap<H, Vec<SlotId>>,
    /// Whether slot order and handle order coincide: true while every insert
    /// appended a fresh slot with a handle ≥ all before it. While it holds —
    /// every call site in this workspace inserts ascending subscription ids —
    /// hit emission walks the bitmap in slot order and never sorts.
    monotonic: bool,
    /// Largest handle ever inserted (tracks `monotonic`).
    max_handle: Option<H>,
    len: usize,
}

impl<H> Default for FilterIndex<H> {
    fn default() -> Self {
        FilterIndex {
            slots: Vec::new(),
            arity: Vec::new(),
            handle_of: Vec::new(),
            free: Vec::new(),
            quarantine: Vec::new(),
            by_attr: HashMap::new(),
            empty: Vec::new(),
            handles: BTreeMap::new(),
            monotonic: true,
            max_handle: None,
            len: 0,
        }
    }
}

impl<H: Copy + Ord> FilterIndex<H> {
    /// Creates an empty index.
    pub fn new() -> Self {
        FilterIndex::default()
    }

    /// Number of live `(handle, filter)` entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the index holds no filters.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The first filter registered under `handle`, if any.
    pub fn get(&self, handle: H) -> Option<&Filter> {
        self.get_shared(handle).map(|f| f.inner())
    }

    /// Like [`FilterIndex::get`], but exposes the refcounted wrapper so a
    /// caller can share the stored filter without re-allocating it.
    pub fn get_shared(&self, handle: H) -> Option<&SharedFilter> {
        let slot = *self.handles.get(&handle)?.first()?;
        self.slots[slot as usize].as_ref().map(|s| &s.filter)
    }

    /// Iterates over every `(handle, filter)` entry in handle order (the
    /// linear-scan view of the index, which the differential tests scan as
    /// the oracle).
    pub fn entries(&self) -> impl Iterator<Item = (H, &Filter)> + '_ {
        self.handles.iter().flat_map(move |(h, slots)| {
            slots.iter().filter_map(move |s| {
                self.slots[*s as usize]
                    .as_ref()
                    .map(|slot| (*h, slot.filter.inner()))
            })
        })
    }

    /// Registers `filter` under `handle`. Handles may repeat; every entry is
    /// matched (and [`FilterIndex::remove`]d) independently.
    ///
    /// # Panics
    ///
    /// Panics on a filter of 65536+ predicates (the packed satisfied-count
    /// is 16-bit; real filters are conjunctions of a handful).
    pub fn insert(&mut self, handle: H, filter: impl Into<SharedFilter>) {
        let filter = filter.into();
        assert!(
            filter.len() <= u16::MAX as usize,
            "FilterIndex: filter arity {} exceeds the 16-bit counting range",
            filter.len()
        );
        let slot = match self.free.pop() {
            Some(s) => {
                // Reusing a slot can put a small handle after a large one.
                self.monotonic = false;
                s
            }
            None => {
                self.slots.push(None);
                self.arity.push(0);
                self.handle_of.push(handle);
                (self.slots.len() - 1) as SlotId
            }
        };
        if self.max_handle.is_some_and(|m| handle < m) {
            self.monotonic = false;
        }
        self.max_handle = Some(self.max_handle.map_or(handle, |m| m.max(handle)));
        self.arity[slot as usize] = filter.len() as u32;
        self.handle_of[slot as usize] = handle;
        if filter.is_empty() {
            let at = self.empty.binary_search(&slot).unwrap_err();
            self.empty.insert(at, slot);
        }
        for posting in decompose(&filter) {
            let p = match posting {
                Posting::Interval(name, lo, hi) => {
                    let ai = self.by_attr.entry(name.clone()).or_default();
                    if ai.iv.insert(lo, hi, slot) {
                        ai.iv.rebuild();
                    }
                    continue;
                }
                Posting::Single(p) => p,
            };
            let ai = self.by_attr.entry(p.name().clone()).or_default();
            match (p.op(), p.constant()) {
                (Op::Eq, Value::Int(c)) => ai.eq.entry(*c).or_default().push(slot),
                (Op::Lt, Value::Int(c)) => ai.lt.insert(*c, slot),
                (Op::Gt, Value::Int(c)) => ai.gt.insert(*c, slot),
                (Op::StrEq, Value::Str(c)) => ai.str_eq.entry(c.clone()).or_default().push(slot),
                (Op::Prefix, Value::Str(c)) => {
                    match ai.prefix.binary_search_by(|(k, _)| (**k).cmp(c)) {
                        Ok(i) => ai.prefix[i].1.push(slot),
                        Err(i) => ai.prefix.insert(i, (c.clone(), vec![slot])),
                    }
                }
                (Op::Suffix, Value::Str(c)) => {
                    let rev: String = c.chars().rev().collect();
                    match ai.suffix.binary_search_by(|(k, _)| (**k).cmp(&rev)) {
                        Ok(i) => ai.suffix[i].1.push(slot),
                        Err(i) => ai.suffix.insert(i, (rev, vec![slot])),
                    }
                }
                (Op::Contains, Value::Str(c)) => {
                    match ai.contains.iter_mut().find(|(k, _)| k == c) {
                        Some((_, posts)) => posts.push(slot),
                        None => ai.contains.push((c.clone(), vec![slot])),
                    }
                }
                // Predicate construction enforces op/constant type agreement;
                // a mismatched pair cannot be represented.
                _ => unreachable!("predicate op/constant type mismatch"),
            }
        }
        self.slots[slot as usize] = Some(Slot { filter });
        self.handles.entry(handle).or_default().push(slot);
        self.len += 1;
        self.maybe_gc();
    }

    /// Rebuilds every interval tree (dropping stale entries) and returns the
    /// quarantined slots to the free list, once enough removals accumulated.
    /// Amortized: a sweep costs O(intervals log intervals) and is triggered
    /// only after `max(16, len/8)` interval-bearing removals.
    fn maybe_gc(&mut self) {
        if self.quarantine.len() < 16.max(self.len / 8) {
            return;
        }
        for ai in self.by_attr.values_mut() {
            ai.iv.rebuild();
        }
        self.free.append(&mut self.quarantine);
    }

    /// Removes **every** filter registered under `handle`; returns how many
    /// entries were dropped (0 when the handle is unknown).
    pub fn remove(&mut self, handle: H) -> usize {
        let Some(slots) = self.handles.remove(&handle) else {
            return 0;
        };
        let removed = slots.len();
        for slot in slots {
            let entry = self.slots[slot as usize]
                .take()
                .expect("handle table points at a live slot");
            if entry.filter.is_empty() {
                if let Ok(at) = self.empty.binary_search(&slot) {
                    self.empty.remove(at);
                }
            }
            // Re-derives the same decomposition `insert` posted (it is a
            // pure function of the stored predicate list).
            let mut stale = false;
            for posting in decompose(&entry.filter) {
                let p = match posting {
                    Posting::Interval(name, lo, hi) => {
                        if let Some(ai) = self.by_attr.get_mut(name) {
                            stale |= ai.iv.remove(lo, hi, slot);
                            if ai.is_empty() {
                                self.by_attr.remove(name);
                            }
                        }
                        continue;
                    }
                    Posting::Single(p) => p,
                };
                let Some(ai) = self.by_attr.get_mut(p.name()) else {
                    continue;
                };
                match (p.op(), p.constant()) {
                    (Op::Eq, Value::Int(c)) => unpost_map(&mut ai.eq, c, slot),
                    (Op::Lt, Value::Int(c)) => ai.lt.remove(*c, slot),
                    (Op::Gt, Value::Int(c)) => ai.gt.remove(*c, slot),
                    (Op::StrEq, Value::Str(c)) => {
                        if let Some(posts) = ai.str_eq.get_mut(&**c) {
                            unpost(posts, slot);
                            if posts.is_empty() {
                                ai.str_eq.remove(&**c);
                            }
                        }
                    }
                    (Op::Prefix, Value::Str(c)) => {
                        if let Ok(i) = ai.prefix.binary_search_by(|(k, _)| (**k).cmp(c)) {
                            unpost(&mut ai.prefix[i].1, slot);
                            if ai.prefix[i].1.is_empty() {
                                ai.prefix.remove(i);
                            }
                        }
                    }
                    (Op::Suffix, Value::Str(c)) => {
                        let rev: String = c.chars().rev().collect();
                        if let Ok(i) = ai.suffix.binary_search_by(|(k, _)| (**k).cmp(&rev)) {
                            unpost(&mut ai.suffix[i].1, slot);
                            if ai.suffix[i].1.is_empty() {
                                ai.suffix.remove(i);
                            }
                        }
                    }
                    (Op::Contains, Value::Str(c)) => {
                        if let Some(i) = ai.contains.iter().position(|(k, _)| k == c) {
                            unpost(&mut ai.contains[i].1, slot);
                            if ai.contains[i].1.is_empty() {
                                ai.contains.remove(i);
                            }
                        }
                    }
                    _ => unreachable!("predicate op/constant type mismatch"),
                }
                if ai.is_empty() {
                    self.by_attr.remove(p.name());
                }
            }
            if stale {
                // A stab tree still references this slot. Zero its arity so
                // stale bumps can never complete (counts start at 1), and
                // keep it out of circulation until the next gc sweep.
                self.arity[slot as usize] = 0;
                self.quarantine.push(slot);
            } else {
                self.free.push(slot);
            }
        }
        self.len -= removed;
        if self.len == 0 {
            // Nothing live: every per-attribute index (stale trees included)
            // is gone, so drop the slot table and regain the no-sort path.
            self.slots.clear();
            self.arity.clear();
            self.handle_of.clear();
            self.free.clear();
            self.quarantine.clear();
            self.monotonic = true;
            self.max_handle = None;
        } else {
            self.maybe_gc();
        }
        removed
    }

    /// Collects the handles of every filter matching `event` into `out`
    /// (cleared first), sorted by handle. The counting core: each event
    /// attribute probes its sub-indexes and bumps the counters of the
    /// satisfied predicates' filters; cost is proportional to the number of
    /// **satisfied** predicates, not the number of filters.
    pub fn matching_into(&self, event: &Event, scratch: &mut MatchScratch, out: &mut Vec<H>) {
        out.clear();
        if self.len == 0 {
            return;
        }
        self.count_hits(event, scratch);
        if scratch.hit_count == 0 {
            return;
        }
        out.reserve(scratch.hit_count as usize);
        for (w, word) in scratch.hits.iter().enumerate() {
            let mut bits = *word;
            while bits != 0 {
                let slot = (w << 6) + bits.trailing_zeros() as usize;
                out.push(self.handle_of[slot]);
                bits &= bits - 1;
            }
        }
        // Monotonic: slot order IS handle order. Otherwise (slot reuse or
        // out-of-order inserts) sort in place; equal handles are
        // indistinguishable, so no slot tiebreak is needed.
        if !self.monotonic {
            out.sort_unstable();
        }
    }

    /// The handles of every filter matching `event`, sorted by handle.
    /// Convenience wrapper allocating a fresh [`MatchScratch`]; hot paths
    /// should own a scratch and call [`FilterIndex::matching_into`].
    pub fn matching(&self, event: &Event) -> Vec<H> {
        let mut scratch = MatchScratch::new();
        let mut out = Vec::new();
        self.matching_into(event, &mut scratch, &mut out);
        out
    }

    /// Runs the counting pass for `event`, leaving the matched slots in the
    /// `scratch.hits` bitmap (empty filters included).
    fn count_hits(&self, event: &Event, scratch: &mut MatchScratch) {
        scratch.begin(self.slots.len());
        for &s in &self.empty {
            scratch.set_hit(s);
        }
        let arity = &self.arity;
        // Split borrows once; the per-posting loops below stay tight.
        let MatchScratch {
            state,
            epoch,
            hits,
            hit_count,
            rev,
        } = scratch;
        let epoch = *epoch;
        for (name, value) in event.iter() {
            let Some(ai) = self.by_attr.get(name) else {
                continue;
            };
            match value {
                Value::Int(v) => {
                    if let Some(posts) = ai.eq.get(v) {
                        for &s in posts {
                            bump(state, hits, hit_count, epoch, arity, s, 1);
                        }
                    }
                    // Paired ranges: each stabbed interval is two satisfied
                    // predicates at once.
                    ai.iv
                        .tree
                        .stab(*v, |s| bump(state, hits, hit_count, epoch, arity, s, 2));
                    for &(lo, hi, s) in &ai.iv.pending {
                        if lo < *v && *v < hi {
                            bump(state, hits, hit_count, epoch, arity, s, 2);
                        }
                    }
                    // `v < c` ⟺ the constant lies in `(v, +∞)`: a suffix.
                    let lt = &ai.lt;
                    let start = lt.flat.partition_point(|&(c, _)| c <= *v);
                    for &(_, s) in &lt.flat[start..] {
                        if s != TOMBSTONE {
                            bump(state, hits, hit_count, epoch, arity, s, 1);
                        }
                    }
                    for &(c, s) in &lt.pending {
                        if c > *v {
                            bump(state, hits, hit_count, epoch, arity, s, 1);
                        }
                    }
                    // `v > c` ⟺ the constant lies in `(-∞, v)`: a prefix.
                    let gt = &ai.gt;
                    let end = gt.flat.partition_point(|&(c, _)| c < *v);
                    for &(_, s) in &gt.flat[..end] {
                        if s != TOMBSTONE {
                            bump(state, hits, hit_count, epoch, arity, s, 1);
                        }
                    }
                    for &(c, s) in &gt.pending {
                        if c < *v {
                            bump(state, hits, hit_count, epoch, arity, s, 1);
                        }
                    }
                }
                Value::Str(v) => {
                    if let Some(posts) = ai.str_eq.get(&**v) {
                        for &s in posts {
                            bump(state, hits, hit_count, epoch, arity, s, 1);
                        }
                    }
                    // Every prefix of `v` (char-boundary cuts plus `v`
                    // itself, the empty prefix included) is binary-searched
                    // in the sorted pattern list.
                    if !ai.prefix.is_empty() {
                        for p in prefixes(v) {
                            if let Ok(i) = ai.prefix.binary_search_by(|(k, _)| (**k).cmp(p)) {
                                for &s in &ai.prefix[i].1 {
                                    bump(state, hits, hit_count, epoch, arity, s, 1);
                                }
                            }
                        }
                    }
                    // Suffixes of `v` are prefixes of its reversal.
                    if !ai.suffix.is_empty() {
                        rev.clear();
                        rev.extend(v.chars().rev());
                        for p in prefixes(rev) {
                            if let Ok(i) = ai.suffix.binary_search_by(|(k, _)| (**k).cmp(p)) {
                                for &s in &ai.suffix[i].1 {
                                    bump(state, hits, hit_count, epoch, arity, s, 1);
                                }
                            }
                        }
                    }
                    for (pat, posts) in &ai.contains {
                        if v.contains(&**pat) {
                            for &s in posts {
                                bump(state, hits, hit_count, epoch, arity, s, 1);
                            }
                        }
                    }
                }
            }
        }
    }
}

/// Every prefix of `s` at char boundaries, the empty string and `s` included.
fn prefixes(s: &str) -> impl Iterator<Item = &str> {
    s.char_indices()
        .map(|(i, _)| i)
        .chain(std::iter::once(s.len()))
        .map(move |i| &s[..i])
}

/// Drops `slot` from `posts` (it appears at most once per posting list:
/// filters are duplicate-free, so one filter posts one slot per key).
fn unpost(posts: &mut Vec<SlotId>, slot: SlotId) {
    if let Some(i) = posts.iter().position(|s| *s == slot) {
        posts.swap_remove(i);
    }
}

fn unpost_map(map: &mut HashMap<i64, Vec<SlotId>>, key: &i64, slot: SlotId) {
    if let Some(posts) = map.get_mut(key) {
        unpost(posts, slot);
        if posts.is_empty() {
            map.remove(key);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Predicate;

    fn f(s: &str) -> Filter {
        s.parse().unwrap()
    }

    fn ev(pairs: &[(&str, Value)]) -> Event {
        Event::new(pairs.iter().map(|(n, v)| (*n, v.clone())))
    }

    #[test]
    fn counting_matches_conjunctions() {
        let mut idx: FilterIndex<u32> = FilterIndex::new();
        idx.insert(0, f("a > 2 & a < 20"));
        idx.insert(1, f("a > 2 & b > 0"));
        idx.insert(2, f("a = 4"));
        let e = ev(&[("a", Value::from(4))]);
        assert_eq!(idx.matching(&e), vec![0, 2]);
        let e = ev(&[("a", Value::from(4)), ("b", Value::from(1))]);
        assert_eq!(idx.matching(&e), vec![0, 1, 2]);
        let e = ev(&[("a", Value::from(25)), ("b", Value::from(1))]);
        assert_eq!(idx.matching(&e), vec![1]); // range on `a` excludes 0 and 2
        let e = ev(&[("b", Value::from(1))]);
        assert!(idx.matching(&e).is_empty()); // `a` absent: nothing matches
    }

    #[test]
    fn string_sub_indexes() {
        let mut idx: FilterIndex<u32> = FilterIndex::new();
        idx.insert(0, Filter::from(Predicate::str_eq("c", "abc")));
        idx.insert(1, Filter::from(Predicate::prefix("c", "ab")));
        idx.insert(2, Filter::from(Predicate::suffix("c", "bc")));
        idx.insert(3, Filter::from(Predicate::contains("c", "b")));
        idx.insert(4, Filter::from(Predicate::prefix("c", ""))); // matches any string
        let e = ev(&[("c", Value::from("abc"))]);
        assert_eq!(idx.matching(&e), vec![0, 1, 2, 3, 4]);
        let e = ev(&[("c", Value::from("zb"))]);
        assert_eq!(idx.matching(&e), vec![3, 4]);
        let e = ev(&[("c", Value::from(7))]); // wrong type: no string matches
        assert!(idx.matching(&e).is_empty());
    }

    #[test]
    fn empty_filter_always_matches() {
        let mut idx: FilterIndex<u32> = FilterIndex::new();
        idx.insert(9, Filter::all());
        assert_eq!(idx.matching(&Event::empty()), vec![9]);
        idx.remove(9);
        assert!(idx.matching(&Event::empty()).is_empty());
    }

    #[test]
    fn remove_drops_every_entry_under_a_handle() {
        let mut idx: FilterIndex<u32> = FilterIndex::new();
        idx.insert(1, f("a > 0"));
        idx.insert(1, f("b > 0"));
        idx.insert(2, f("a > 0"));
        assert_eq!(idx.len(), 3);
        assert_eq!(idx.remove(1), 2);
        assert_eq!(idx.len(), 1);
        let e = ev(&[("a", Value::from(5)), ("b", Value::from(5))]);
        assert_eq!(idx.matching(&e), vec![2]);
        assert_eq!(idx.remove(1), 0);
    }

    #[test]
    fn slots_are_reused_and_entries_enumerate() {
        let mut idx: FilterIndex<u32> = FilterIndex::new();
        idx.insert(1, f("a > 0"));
        idx.insert(2, f("a > 1"));
        idx.remove(1);
        idx.insert(3, f("a > 2"));
        let entries: Vec<(u32, String)> =
            idx.entries().map(|(h, flt)| (h, flt.to_string())).collect();
        assert_eq!(
            entries,
            vec![(2, "a > 1".to_owned()), (3, "a > 2".to_owned())]
        );
        assert_eq!(idx.get(3).unwrap().to_string(), "a > 2");
        assert!(idx.get(1).is_none());
        // Slot 0 (freed by handle 1, reused by handle 3) now holds the
        // largest handle: emission must still yield handle order.
        let e = ev(&[("a", Value::from(9))]);
        assert_eq!(idx.matching(&e), vec![2, 3]);
    }

    #[test]
    fn duplicate_attribute_ranges_count_correctly() {
        // Two predicates on the same attribute must BOTH be satisfied.
        let mut idx: FilterIndex<u32> = FilterIndex::new();
        idx.insert(0, f("a > 2 & a > 5")); // equivalent to a > 5
        idx.insert(1, f("a = 3 & a = 5")); // unsatisfiable
        let e = ev(&[("a", Value::from(6))]);
        assert_eq!(idx.matching(&e), vec![0]);
        let e = ev(&[("a", Value::from(3))]);
        assert!(idx.matching(&e).is_empty());
        let e = ev(&[("a", Value::from(5))]);
        assert!(idx.matching(&e).is_empty());
    }

    #[test]
    fn yield_order_is_handle_order() {
        let mut idx: FilterIndex<i32> = FilterIndex::new();
        for h in [5, -1, 3, 0] {
            idx.insert(h, f("a > 0"));
        }
        let e = ev(&[("a", Value::from(1))]);
        assert_eq!(idx.matching(&e), vec![-1, 0, 3, 5]);
    }

    #[test]
    fn range_postings_survive_overlay_merges() {
        // Push past the pending-overlay threshold so queries exercise both
        // the flat array and the overlay, plus removals from each.
        let mut idx: FilterIndex<u32> = FilterIndex::new();
        for h in 0..200u32 {
            idx.insert(h, Filter::new([Predicate::gt("a", i64::from(h))]));
        }
        let e = ev(&[("a", Value::from(100))]);
        let got = idx.matching(&e);
        let want: Vec<u32> = (0..100).collect(); // a > c satisfied for c < 100
        assert_eq!(got, want);
        idx.remove(50);
        idx.remove(199);
        let got = idx.matching(&e);
        assert_eq!(got.len(), 99);
        assert!(!got.contains(&50));
    }

    #[test]
    fn interval_pairs_count_as_units() {
        let mut idx: FilterIndex<u32> = FilterIndex::new();
        idx.insert(0, f("a > 2 & a < 20")); // one interval posting
        idx.insert(1, f("a > 2 & a < 20 & a > 5")); // interval + single gt
        idx.insert(2, f("a > 9 & a < 5")); // degenerate: unsatisfiable
        idx.insert(3, f("a > 2 & b < 7")); // different attrs: two singles
        let e = ev(&[("a", Value::from(10)), ("b", Value::from(3))]);
        assert_eq!(idx.matching(&e), vec![0, 1, 3]);
        let e = ev(&[("a", Value::from(4))]);
        assert_eq!(idx.matching(&e), vec![0]); // 1 fails a > 5, 3 lacks b
        let e = ev(&[("a", Value::from(21)), ("b", Value::from(9))]);
        assert!(idx.matching(&e).is_empty()); // outside every range and b ≥ 7
    }

    #[test]
    fn interval_trees_survive_removal_and_slot_reuse() {
        // Enough pairs to trigger tree rebuilds, then removals leaving stale
        // tree entries, then inserts that must not resurrect them.
        let mut idx: FilterIndex<u32> = FilterIndex::new();
        for h in 0..200u32 {
            let c = i64::from(h);
            idx.insert(
                h,
                Filter::new([Predicate::gt("a", c), Predicate::lt("a", c + 10)]),
            );
        }
        let e = ev(&[("a", Value::from(100))]);
        let want: Vec<u32> = (91..100).collect(); // c < 100 < c + 10
        assert_eq!(idx.matching(&e), want);
        for h in 92..96u32 {
            idx.remove(h);
        }
        let want: Vec<u32> = (91..100).filter(|h| !(92..96).contains(h)).collect();
        assert_eq!(idx.matching(&e), want);
        // Force gc sweeps (quarantine > max(16, len/8)) and slot reuse.
        for h in 0..60u32 {
            idx.remove(h);
        }
        for h in 200..260u32 {
            let c = i64::from(h);
            idx.insert(
                h,
                Filter::new([Predicate::gt("a", c), Predicate::lt("a", c + 10)]),
            );
        }
        let got = idx.matching(&e);
        let want: Vec<u32> = (91..100).filter(|h| !(92..96).contains(h)).collect();
        assert_eq!(got, want);
        let e = ev(&[("a", Value::from(255))]);
        let want: Vec<u32> = (246..255).collect();
        assert_eq!(idx.matching(&e), want);
    }

    #[test]
    fn tight_and_negative_interval_trees_terminate() {
        // Regression: `((lo as i128 + hi as i128) / 2) as i64` truncation could put the node center
        // ON a bound (e.g. (3, 5) -> 3, (-5, -3) -> -3), so the partition
        // moved every item to one child unchanged and build_node recursed
        // until stack overflow once enough pairs forced a tree build.
        for (lo, hi, inside) in [(3i64, 5i64, 4i64), (-5, -3, -4), (-6, -2, -4)] {
            let mut idx: FilterIndex<u32> = FilterIndex::new();
            for h in 0..80u32 {
                idx.insert(
                    h,
                    Filter::new([Predicate::gt("a", lo), Predicate::lt("a", hi)]),
                );
            }
            let e = ev(&[("a", Value::from(inside))]);
            assert_eq!(idx.matching(&e), (0..80).collect::<Vec<u32>>());
            let e = ev(&[("a", Value::from(hi))]);
            assert!(idx.matching(&e).is_empty());
        }
    }

    #[test]
    fn unpaired_range_churn_compacts_tombstones() {
        // Removals from the sorted flat array tombstone in place; heavy
        // churn on one attribute must stay correct through compaction and
        // still tear the attribute index down once everything is gone.
        let mut idx: FilterIndex<u32> = FilterIndex::new();
        for h in 0..300u32 {
            idx.insert(h, Filter::new([Predicate::gt("a", i64::from(h))]));
        }
        for h in (0..300u32).filter(|h| !h.is_multiple_of(3)) {
            idx.remove(h);
        }
        let e = ev(&[("a", Value::from(200))]);
        let want: Vec<u32> = (0..200u32).filter(|h| h.is_multiple_of(3)).collect();
        assert_eq!(idx.matching(&e), want);
        for h in (0..300u32).filter(|h| h.is_multiple_of(3)) {
            idx.remove(h);
        }
        assert!(idx.is_empty());
        assert!(idx.matching(&e).is_empty());
    }
}
