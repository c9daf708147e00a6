//! Execution policies and the dense request-routing fast path.
//!
//! The cost semantics of Section 2 constrain *what* a phase is charged, not
//! *how* the simulator aggregates requests. The engines in this crate
//! therefore ship two request-routing strategies selected by
//! [`ExecOptions::routing`]:
//!
//! * [`Routing::Reference`] — the original `HashMap`/`BTreeMap` aggregation,
//!   kept verbatim as the executable specification;
//! * [`Routing::Dense`] (default) — epoch-stamped, address-indexed scratch
//!   tables ([`ContentionTable`], [`WriteRouter`]) allocated once per run and
//!   reused across phases. The per-address lanes are *paged*
//!   ([`LANE_PAGE_WORDS`]-entry pages allocated on first touch), so scratch
//!   footprint is proportional to the addresses a run actually routes, not
//!   to the highest address or the address space — million-scale and
//!   high-base sparse layouts stay at dense-lane speed without a hash-map
//!   fallback.
//!
//! Both strategies are **bit-identical** observationally: same
//! [`CostLedger`](crate::cost::CostLedger), same arbitration winners (RNG
//! draws and [`FaultInjector`](crate::faults::FaultInjector) choice points
//! happen in the same order), same fault behaviour, same committed memory.
//! The differential suite in `models/tests/fastpath_equiv.rs` enforces this.
//!
//! Tracing is opt-in ([`ExecOptions::record_trace`]) and bounded: at most
//! [`ExecOptions::trace_phase_cap`] phases are retained, and traces carry a
//! `total_phases`/`truncated` header so consumers can detect capping instead
//! of silently analysing a prefix.

use crate::shared::{Addr, Word};

/// log2 of [`LANE_PAGE_WORDS`].
pub const LANE_PAGE_SHIFT: usize = 14;

/// Entries per scratch-lane page (2^14). The routing tables allocate their
/// epoch/count/cursor lanes in pages of this many entries on first touch,
/// so a phase touching k distinct addresses costs O(k/2^14) pages of
/// scratch regardless of how high or sparse the addresses are.
pub const LANE_PAGE_WORDS: usize = 1 << LANE_PAGE_SHIFT;

/// Default number of phases retained by a recorded trace. Full traces are
/// `O(phases · requests)`; the cap turns unbounded growth on long runs into
/// an explicit, surfaced truncation (`ExecTrace::truncated`).
pub const DEFAULT_TRACE_PHASE_CAP: usize = 1 << 16;

/// Which request-routing implementation an engine uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Routing {
    /// Dense epoch-stamped scratch tables (the fast path, default).
    #[default]
    Dense,
    /// The original map-based aggregation (the executable specification).
    Reference,
}

/// Per-machine execution policies orthogonal to the cost model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecOptions {
    /// Record an execution trace into the run result. Off by default:
    /// sweeps and benches skip tracing entirely; `parbounds lint` turns it
    /// on via the machines' `with_tracing` builders.
    pub record_trace: bool,
    /// Maximum number of phases/supersteps retained when tracing
    /// ([`DEFAULT_TRACE_PHASE_CAP`] by default). Further phases still
    /// execute and are counted in the trace header, but their per-request
    /// detail is dropped and the trace is marked truncated.
    pub trace_phase_cap: usize,
    /// Request-routing strategy (dense fast path by default).
    pub routing: Routing,
    /// Fold the cost ledger into running aggregates instead of retaining
    /// per-phase records (off by default). Streaming runs return a ledger
    /// whose aggregate accessors are identical but whose
    /// [`phases()`](crate::cost::CostLedger::phases) is empty — the
    /// long-phase-count sweep configuration.
    pub streaming_ledger: bool,
}

impl Default for ExecOptions {
    fn default() -> Self {
        ExecOptions {
            record_trace: false,
            trace_phase_cap: DEFAULT_TRACE_PHASE_CAP,
            routing: Routing::Dense,
            streaming_ledger: false,
        }
    }
}

impl ExecOptions {
    /// An empty ledger honouring [`ExecOptions::streaming_ledger`]. Engines
    /// build their run ledgers through this so a machine flips every
    /// execution path (reference, dense, batch, compiled) with
    /// one option.
    pub fn new_ledger(&self) -> crate::cost::CostLedger {
        if self.streaming_ledger {
            crate::cost::CostLedger::streaming()
        } else {
            crate::cost::CostLedger::new()
        }
    }
}

/// One scratch page of a [`ContentionTable`]: epoch stamps + counts for
/// [`LANE_PAGE_WORDS`] consecutive addresses.
#[derive(Debug)]
struct CtPage {
    stamp: Box<[u32]>,
    count: Box<[u32]>,
}

impl CtPage {
    fn new() -> Box<CtPage> {
        Box::new(CtPage {
            stamp: vec![0; LANE_PAGE_WORDS].into_boxed_slice(),
            count: vec![0; LANE_PAGE_WORDS].into_boxed_slice(),
        })
    }
}

/// Epoch-stamped per-address access counter.
///
/// `begin_phase` is O(1): instead of clearing, the table bumps an epoch and
/// lazily treats stale lanes as zero. Lanes are paged: page 0 (addresses
/// below [`LANE_PAGE_WORDS`]) is allocated inline and eagerly, because the
/// small dense prefixes the fast-path engines hammer all land there and
/// must not pay a page-table lookup per access; further pages are
/// allocated the first time any address in them is counted, so scratch
/// footprint tracks the touched address set — arbitrary (e.g. 2^30-base)
/// addresses cost one page, not a dense prefix or a per-phase hash map.
#[derive(Debug)]
pub struct ContentionTable {
    epoch: u32,
    /// Eager page for addresses `< LANE_PAGE_WORDS` — the common case.
    page0: Box<CtPage>,
    /// Lazily-allocated overflow pages, indexed by page index minus one.
    pages: Vec<Option<Box<CtPage>>>,
    max: u32,
}

impl Default for ContentionTable {
    fn default() -> Self {
        ContentionTable {
            epoch: 0,
            page0: CtPage::new(),
            pages: Vec::new(),
            max: 0,
        }
    }
}

impl ContentionTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Resets the table for a new phase without touching the lanes.
    pub fn begin_phase(&mut self) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // One full clear every 2^32 phases keeps stale stamps unable to
            // alias the new epoch.
            self.page0.stamp.fill(0);
            for page in self.pages.iter_mut().flatten() {
                page.stamp.fill(0);
            }
            self.epoch = 1;
        }
        self.max = 0;
    }

    /// Number of scratch pages allocated so far (footprint observability).
    /// The eager page 0 always counts.
    pub fn pages_touched(&self) -> usize {
        1 + self.pages.iter().filter(|p| p.is_some()).count()
    }

    /// Counts one access to `addr`.
    #[inline]
    pub fn incr(&mut self, addr: Addr) {
        let page = if addr < LANE_PAGE_WORDS {
            &mut *self.page0
        } else {
            let pi = (addr >> LANE_PAGE_SHIFT) - 1;
            if pi >= self.pages.len() {
                self.pages.resize_with(pi + 1, || None);
            }
            &mut **self.pages[pi].get_or_insert_with(CtPage::new)
        };
        let i = addr & (LANE_PAGE_WORDS - 1);
        if page.stamp[i] == self.epoch {
            page.count[i] += 1;
        } else {
            page.stamp[i] = self.epoch;
            page.count[i] = 1;
        }
        self.max = self.max.max(page.count[i]);
    }

    /// Whether `addr` was accessed in the current phase.
    #[inline]
    pub fn contains(&self, addr: Addr) -> bool {
        let page = if addr < LANE_PAGE_WORDS {
            &*self.page0
        } else {
            match self.pages.get((addr >> LANE_PAGE_SHIFT) - 1) {
                Some(Some(page)) => &**page,
                _ => return false,
            }
        };
        let i = addr & (LANE_PAGE_WORDS - 1);
        page.stamp[i] == self.epoch && page.count[i] > 0
    }

    /// Whether nothing was counted this phase.
    pub fn is_empty(&self) -> bool {
        self.max == 0
    }

    /// Maximum per-address count this phase, floored at 1 (the paper's
    /// convention: a phase with no accesses has contention 1).
    pub fn max_contention(&self) -> u64 {
        u64::from(self.max.max(1))
    }
}

/// One scratch page of a [`WriteRouter`]: epoch stamps, per-address write
/// counts, and counting-sort cursors for [`LANE_PAGE_WORDS`] consecutive
/// addresses.
#[derive(Debug)]
struct WrPage {
    stamp: Box<[u32]>,
    count: Box<[u32]>,
    cursor: Box<[u32]>,
}

impl WrPage {
    fn new() -> Box<WrPage> {
        Box::new(WrPage {
            stamp: vec![0; LANE_PAGE_WORDS].into_boxed_slice(),
            count: vec![0; LANE_PAGE_WORDS].into_boxed_slice(),
            cursor: vec![0; LANE_PAGE_WORDS].into_boxed_slice(),
        })
    }
}

/// Dense write aggregator: buckets attempted writes per address, preserving
/// processor order within each address, and yields the buckets in sorted
/// address order (the coordinate system scripted winner policies rely on).
///
/// Writes are appended flat during the processor loop; [`WriteRouter::route`]
/// then counting-sorts them into per-address groups. Like
/// [`ContentionTable`], per-address lanes are epoch-stamped and paged:
/// page 0 is allocated inline and eagerly (the hot small-address case
/// skips the page table entirely), further pages on first touch, so
/// `begin_phase` clears nothing and scratch footprint is proportional to
/// the written address set. The flat/touched/bucket staging buffers are
/// proportional to the *requests* of a phase, never to the address space.
#[derive(Debug)]
pub struct WriteRouter {
    epoch: u32,
    /// Eager page for addresses `< LANE_PAGE_WORDS` — the common case.
    page0: Box<WrPage>,
    /// Lazily-allocated overflow pages, indexed by page index minus one.
    pages: Vec<Option<Box<WrPage>>>,
    /// Attempted writes in arrival (pid/request) order.
    flat: Vec<(Addr, Word)>,
    /// Distinct addresses touched this phase, sorted by [`WriteRouter::route`].
    touched: Vec<Addr>,
    /// Values scattered into contiguous per-address groups.
    bucket: Vec<Word>,
    max: u32,
}

impl Default for WriteRouter {
    fn default() -> Self {
        WriteRouter {
            epoch: 0,
            page0: WrPage::new(),
            pages: Vec::new(),
            flat: Vec::new(),
            touched: Vec::new(),
            bucket: Vec::new(),
            max: 0,
        }
    }
}

impl WriteRouter {
    /// Creates an empty router.
    pub fn new() -> Self {
        Self::default()
    }

    /// Resets the router for a new phase without touching the lanes.
    pub fn begin_phase(&mut self) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.page0.stamp.fill(0);
            for page in self.pages.iter_mut().flatten() {
                page.stamp.fill(0);
            }
            self.epoch = 1;
        }
        self.flat.clear();
        self.touched.clear();
        self.max = 0;
    }

    /// Number of scratch pages allocated so far (footprint observability).
    /// The eager page 0 always counts.
    pub fn pages_touched(&self) -> usize {
        1 + self.pages.iter().filter(|p| p.is_some()).count()
    }

    /// Records one attempted write.
    #[inline]
    pub fn push(&mut self, addr: Addr, value: Word) {
        let page = if addr < LANE_PAGE_WORDS {
            &mut *self.page0
        } else {
            let pi = (addr >> LANE_PAGE_SHIFT) - 1;
            if pi >= self.pages.len() {
                self.pages.resize_with(pi + 1, || None);
            }
            &mut **self.pages[pi].get_or_insert_with(WrPage::new)
        };
        let i = addr & (LANE_PAGE_WORDS - 1);
        if page.stamp[i] == self.epoch {
            page.count[i] += 1;
        } else {
            page.stamp[i] = self.epoch;
            page.count[i] = 1;
            self.touched.push(addr);
        }
        self.max = self.max.max(page.count[i]);
        self.flat.push((addr, value));
    }

    #[inline]
    fn page_of(&self, addr: Addr) -> Option<&WrPage> {
        if addr < LANE_PAGE_WORDS {
            Some(&self.page0)
        } else {
            self.pages[(addr >> LANE_PAGE_SHIFT) - 1].as_deref()
        }
    }

    #[inline]
    fn count_of(&self, addr: Addr) -> u32 {
        match self.page_of(addr) {
            Some(page) => page.count[addr & (LANE_PAGE_WORDS - 1)],
            None => 0,
        }
    }

    #[inline]
    fn set_cursor(&mut self, addr: Addr, v: u32) {
        let page = if addr < LANE_PAGE_WORDS {
            Some(&mut *self.page0)
        } else {
            self.pages[(addr >> LANE_PAGE_SHIFT) - 1].as_deref_mut()
        };
        if let Some(page) = page {
            page.cursor[addr & (LANE_PAGE_WORDS - 1)] = v;
        }
    }

    #[inline]
    fn cursor_of(&self, addr: Addr) -> u32 {
        match self.page_of(addr) {
            Some(page) => page.cursor[addr & (LANE_PAGE_WORDS - 1)],
            None => 0,
        }
    }

    /// Sorts the touched addresses and scatters the flat writes into
    /// contiguous per-address groups (counting sort: O(writes + addrs·log)).
    /// Processor/request order is preserved within each address.
    pub fn route(&mut self) {
        self.touched.sort_unstable();
        let mut off = 0u32;
        for i in 0..self.touched.len() {
            let a = self.touched[i];
            let c = self.count_of(a);
            self.set_cursor(a, off);
            off += c;
        }
        self.bucket.clear();
        self.bucket.resize(self.flat.len(), 0);
        for i in 0..self.flat.len() {
            let (a, v) = self.flat[i];
            let cur = self.cursor_of(a);
            self.bucket[cur as usize] = v;
            self.set_cursor(a, cur + 1);
        }
    }

    /// Distinct written addresses in sorted order. Only meaningful after
    /// [`WriteRouter::route`].
    pub fn sorted_addrs(&self) -> &[Addr] {
        &self.touched
    }

    /// Iterates `(addr, attempted values)` groups in sorted address order
    /// with values in processor/request order. Only meaningful after
    /// [`WriteRouter::route`].
    pub fn groups(&self) -> impl Iterator<Item = (Addr, &[Word])> + '_ {
        let mut start = 0usize;
        self.touched.iter().map(move |&a| {
            let c = self.count_of(a) as usize;
            let s = start;
            start += c;
            (a, &self.bucket[s..s + c])
        })
    }

    /// Whether no write was recorded this phase.
    pub fn is_empty(&self) -> bool {
        self.flat.is_empty()
    }

    /// Maximum per-address write count this phase, floored at 1.
    pub fn max_contention(&self) -> u64 {
        u64::from(self.max.max(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contention_table_counts_and_resets() {
        let mut t = ContentionTable::new();
        t.begin_phase();
        assert!(t.is_empty());
        assert_eq!(t.max_contention(), 1);
        t.incr(3);
        t.incr(3);
        t.incr(5);
        assert!(t.contains(3));
        assert!(t.contains(5));
        assert!(!t.contains(4));
        assert_eq!(t.max_contention(), 2);
        // A far address lands on its own lazily-allocated page.
        let far = 1usize << 30;
        t.incr(far);
        t.incr(far);
        t.incr(far);
        assert!(t.contains(far));
        assert_eq!(t.max_contention(), 3);
        assert_eq!(t.pages_touched(), 2, "one low page, one far page");
        // New phase: O(1) reset, stale lanes read as absent.
        t.begin_phase();
        assert!(!t.contains(3));
        assert!(!t.contains(far));
        assert!(t.is_empty());
        assert_eq!(t.pages_touched(), 2, "pages persist across phases");
    }

    #[test]
    fn write_router_groups_sorted_with_pid_order_values() {
        let mut r = WriteRouter::new();
        r.begin_phase();
        let far = (1usize << 30) + 100;
        r.push(5, 50);
        r.push(2, 20);
        r.push(5, 51);
        r.push(far, 1); // far page
        r.push(2, 21);
        r.push(far, 2);
        r.route();
        assert_eq!(r.sorted_addrs(), &[2, 5, far]);
        let groups: Vec<(Addr, Vec<Word>)> = r.groups().map(|(a, vs)| (a, vs.to_vec())).collect();
        assert_eq!(
            groups,
            vec![(2, vec![20, 21]), (5, vec![50, 51]), (far, vec![1, 2])]
        );
        assert_eq!(r.max_contention(), 2);
        assert_eq!(r.pages_touched(), 2);
        r.begin_phase();
        assert!(r.is_empty());
        r.route();
        assert_eq!(r.sorted_addrs(), &[] as &[Addr]);
        assert_eq!(r.max_contention(), 1);
    }

    #[test]
    fn exec_options_default_is_dense_untraced() {
        let o = ExecOptions::default();
        assert!(!o.record_trace);
        assert_eq!(o.routing, Routing::Dense);
        assert_eq!(o.trace_phase_cap, DEFAULT_TRACE_PHASE_CAP);
        assert!(!o.streaming_ledger);
        assert!(!o.new_ledger().is_streaming());
    }
}
