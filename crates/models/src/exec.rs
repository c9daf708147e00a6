//! Execution policies and the dense request-routing fast path.
//!
//! The cost semantics of Section 2 constrain *what* a phase is charged, not
//! *how* the simulator aggregates requests. The engines route a phase's
//! requests through epoch-stamped, address-indexed scratch tables
//! ([`ContentionTable`], [`WriteRouter`]) allocated once per run and reused
//! across phases. The per-address lanes are *paged* ([`LANE_PAGE_WORDS`]-entry
//! pages allocated on first touch), so scratch footprint is proportional to
//! the addresses a run actually routes, not to the highest address or the
//! address space; addresses at or above [`DEFAULT_MEM_LIMIT`] take no lane
//! page at all.
//!
//! The original `HashMap`/`BTreeMap` engines stay as the executable
//! specification, reached through
//! [`Machine::with_reference_routing`](crate::Machine::with_reference_routing),
//! and are the only engines that inject faults or record traces: every
//! [instrumented](ExecOptions::instrumented) run goes to them. On
//! uninstrumented runs both are **bit-identical** observationally: same
//! [`CostLedger`](crate::cost::CostLedger), same arbitration winners (RNG
//! draws happen in the same order), same committed memory, same errors.
//! The differential suite in `models/tests/fastpath_equiv.rs` enforces this.
//!
//! The dense QSM and GSM engines share one collect stage, `LiveSet`: the
//! phase loop visits only the processors still running, and their
//! deliveries lie back to back in one flat arena, so a phase costs per
//! live processor rather than per declared one.
//!
//! Tracing is opt-in ([`ExecOptions::record_trace`]) and bounded: at most
//! [`ExecOptions::trace_phase_cap`] phases are retained, and traces carry a
//! `total_phases`/`truncated` header so consumers can detect capping instead
//! of silently analysing a prefix.

use std::collections::HashMap;

use crate::cancel::CancelToken;
use crate::error::{ModelError, Result};
use crate::faults::{FaultInjector, FaultPlan};
use crate::shared::{Addr, Status, Word, DEFAULT_MEM_LIMIT};

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

/// The run policy of a [`Machine`](crate::Machine), the same for every
/// model: phase limit, fault plan, cancellation, tracing and ledger
/// retention. The machine's builders set it; engines read it.
#[derive(Debug, Clone)]
pub struct ExecOptions {
    /// Runaway protection: a run that reaches this many phases (supersteps)
    /// fails with [`ModelError::PhaseLimitExceeded`]. 2^20 by default.
    pub(crate) max_phases: usize,
    /// Faults injected into every run, which then reports a
    /// [`FaultLog`](crate::FaultLog) in its result.
    pub(crate) faults: Option<FaultPlan>,
    /// Checked at every phase boundary: once it trips, the run stops with
    /// [`ModelError::DeadlineExceeded`] before the phase's effects apply.
    pub(crate) cancel: Option<CancelToken>,
    /// Record an execution trace into the run result. Off by default:
    /// sweeps and benches skip tracing entirely; `parbounds lint` turns it
    /// on via the machines' `with_tracing` builders.
    pub record_trace: bool,
    /// Maximum number of phases/supersteps retained when tracing
    /// ([`DEFAULT_TRACE_PHASE_CAP`] by default). Further phases still
    /// execute and are counted in the trace header, but their per-request
    /// detail is dropped and the trace is marked truncated.
    pub trace_phase_cap: usize,
    /// Fold the cost ledger into running aggregates instead of retaining
    /// per-phase records (off by default). Streaming runs return a ledger
    /// whose aggregate accessors are identical but whose
    /// [`phases()`](crate::cost::CostLedger::phases) is empty — the
    /// long-phase-count sweep configuration.
    pub streaming_ledger: bool,
    /// Run on the map-based reference engines, the executable
    /// specification the differential suites test the fast engines
    /// against (off by default).
    pub(crate) reference: bool,
}

impl Default for ExecOptions {
    fn default() -> Self {
        ExecOptions {
            max_phases: 1 << 20,
            faults: None,
            cancel: None,
            record_trace: false,
            trace_phase_cap: DEFAULT_TRACE_PHASE_CAP,
            streaming_ledger: false,
            reference: false,
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

    /// Phase-boundary cancellation checkpoint (a no-op without a token).
    pub fn check_cancel(&self, phase: usize) -> Result<()> {
        match &self.cancel {
            Some(token) => token.check(phase),
            None => Ok(()),
        }
    }

    /// Whether a run under this policy is instrumented: a fault plan is
    /// attached or a trace is recorded. Only the reference engines inject
    /// faults and record traces, so the machines' `execute` dispatchers and
    /// the `ir` batch and compiled executors send these runs to them.
    pub fn instrumented(&self) -> bool {
        self.faults.is_some() || self.record_trace
    }

    /// A reference engine's per-run set-up: the fault plan's injector, if
    /// any, and the phase limit, `max_phases` tightened by the plan's phase
    /// budget.
    pub(crate) fn start_run(&self) -> (Option<FaultInjector>, usize) {
        let injector = self.faults.as_ref().map(FaultInjector::new);
        let limit = injector.as_ref().map_or(self.max_phases, |i| {
            i.effective_phase_limit(self.max_phases)
        });
        (injector, limit)
    }

    /// The check before phase `phase` of a run limited to `limit` phases:
    /// the phase limit, then the cancellation checkpoint.
    pub(crate) fn enter_phase(&self, phase: usize, limit: usize) -> Result<()> {
        if phase >= limit {
            return Err(ModelError::PhaseLimitExceeded { limit });
        }
        self.check_cancel(phase)
    }
}

/// Addresses at or above this bound are counted in a per-phase map, not in
/// lane pages, so the page directory stays below 2^20 entries however far
/// a request reaches.
const FAR_ADDR: Addr = DEFAULT_MEM_LIMIT;

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
/// addresses cost one page, not a dense prefix. Addresses at or above
/// [`DEFAULT_MEM_LIMIT`] are counted in a per-phase map and cost no page.
#[derive(Debug)]
pub struct ContentionTable {
    epoch: u32,
    /// Eager page for addresses `< LANE_PAGE_WORDS` — the common case.
    page0: Box<CtPage>,
    /// Lazily-allocated overflow pages, indexed by page index minus one.
    pages: Vec<Option<Box<CtPage>>>,
    /// This phase's counts of addresses at or above `FAR_ADDR`.
    far: HashMap<Addr, u32>,
    max: u32,
}

impl Default for ContentionTable {
    fn default() -> Self {
        ContentionTable {
            epoch: 0,
            page0: CtPage::new(),
            pages: Vec::new(),
            far: HashMap::new(),
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
        self.far.clear();
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
        } else if addr < FAR_ADDR {
            let pi = (addr >> LANE_PAGE_SHIFT) - 1;
            if pi >= self.pages.len() {
                self.pages.resize_with(pi + 1, || None);
            }
            &mut **self.pages[pi].get_or_insert_with(CtPage::new)
        } else {
            return self.incr_far(addr);
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

    /// [`ContentionTable::incr`] of an address at or above `FAR_ADDR`,
    /// kept out of line so the hot lane path stays small.
    #[cold]
    fn incr_far(&mut self, addr: Addr) {
        let count = self.far.entry(addr).or_insert(0);
        *count += 1;
        self.max = self.max.max(*count);
    }

    /// Whether `addr` was accessed in the current phase.
    #[inline]
    pub fn contains(&self, addr: Addr) -> bool {
        let page = if addr < LANE_PAGE_WORDS {
            &*self.page0
        } else if addr >= FAR_ADDR {
            return self.far.contains_key(&addr);
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
/// `begin_phase` clears no lane and scratch footprint is proportional to
/// the written address set; addresses at or above [`DEFAULT_MEM_LIMIT`]
/// keep their count and cursor in a per-phase map instead. The
/// flat/touched/bucket staging buffers are proportional to the *requests*
/// of a phase, never to the address space.
#[derive(Debug)]
pub struct WriteRouter {
    epoch: u32,
    /// Eager page for addresses `< LANE_PAGE_WORDS` — the common case.
    page0: Box<WrPage>,
    /// Lazily-allocated overflow pages, indexed by page index minus one.
    pages: Vec<Option<Box<WrPage>>>,
    /// This phase's `(count, cursor)` of addresses at or above `FAR_ADDR`.
    far: HashMap<Addr, (u32, u32)>,
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
            far: HashMap::new(),
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
        self.far.clear();
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
        } else if addr < FAR_ADDR {
            let pi = (addr >> LANE_PAGE_SHIFT) - 1;
            if pi >= self.pages.len() {
                self.pages.resize_with(pi + 1, || None);
            }
            &mut **self.pages[pi].get_or_insert_with(WrPage::new)
        } else {
            return self.push_far(addr, value);
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

    /// [`WriteRouter::push`] of an address at or above `FAR_ADDR`, kept out
    /// of line so the hot lane path stays small.
    #[cold]
    fn push_far(&mut self, addr: Addr, value: Word) {
        let (count, _) = self.far.entry(addr).or_insert_with(|| {
            self.touched.push(addr);
            (0, 0)
        });
        *count += 1;
        self.max = self.max.max(*count);
        self.flat.push((addr, value));
    }

    /// The write count and the counting-sort cursor of an address
    /// touched this phase.
    #[inline]
    fn lane(&mut self, addr: Addr) -> (u32, &mut u32) {
        let page = if addr < LANE_PAGE_WORDS {
            &mut *self.page0
        } else if addr < FAR_ADDR {
            let page = self.pages[(addr >> LANE_PAGE_SHIFT) - 1].as_deref_mut();
            page.expect("a touched address has its lane page")
        } else {
            return self.far_lane(addr);
        };
        let i = addr & (LANE_PAGE_WORDS - 1);
        (page.count[i], &mut page.cursor[i])
    }

    #[cold]
    fn far_lane(&mut self, addr: Addr) -> (u32, &mut u32) {
        let (count, cursor) = self.far.get_mut(&addr).expect("a touched far address");
        (*count, cursor)
    }

    /// The write count of an address touched this phase.
    #[inline]
    fn count_of(&self, addr: Addr) -> u32 {
        let i = addr & (LANE_PAGE_WORDS - 1);
        if addr < LANE_PAGE_WORDS {
            self.page0.count[i]
        } else if addr < FAR_ADDR {
            let page = self.pages[(addr >> LANE_PAGE_SHIFT) - 1].as_deref();
            page.map_or(0, |page| page.count[i])
        } else {
            self.far.get(&addr).map_or(0, |&(count, _)| count)
        }
    }

    /// Sorts the touched addresses and scatters the flat writes into
    /// contiguous per-address groups (counting sort: O(writes + addrs·log)).
    /// Processor/request order is preserved within each address.
    pub fn route(&mut self) {
        self.touched.sort_unstable();
        let mut off = 0u32;
        for i in 0..self.touched.len() {
            let (count, cursor) = self.lane(self.touched[i]);
            *cursor = off;
            off += count;
        }
        self.bucket.clear();
        self.bucket.resize(self.flat.len(), 0);
        for i in 0..self.flat.len() {
            let (a, v) = self.flat[i];
            let (_, cursor) = self.lane(a);
            let at = *cursor as usize;
            *cursor += 1;
            self.bucket[at] = v;
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

/// One live processor of a [`LiveSet`].
#[derive(Debug, Clone, Copy)]
struct Slot {
    pid: u32,
    /// Deliveries it holds in the arena for its next phase.
    held: u32,
}

/// The collect stage of the dense QSM and GSM engines: which processors are
/// still running, and the reads they have in flight.
///
/// Live processors are kept in pid order and compacted in place each
/// phase, so the phase loop visits only them, in the order the reference
/// engines visit active processors: write buckets and RNG draws happen in
/// the same order. A slot's deliveries lie back to back in one flat arena,
/// slot after slot; the arena is double-buffered across phases. `T` is the
/// delivered value: a [`Word`] on the QSM, a cell's whole contents on the
/// GSM.
#[derive(Debug)]
pub(crate) struct LiveSet<T> {
    slots: Vec<Slot>,
    /// Deliveries consumed this phase, in slot order.
    arena: Vec<(Addr, T)>,
    /// Deliveries for the next phase, in slot order.
    next: Vec<(Addr, T)>,
}

/// Reserves next-phase delivery slots for one processor's reads.
pub(crate) struct Fresh<'a, T>(&'a mut Vec<(Addr, T)>);

impl<T: Default> Fresh<'_, T> {
    /// Reserves one unvalued slot per read, in request order.
    #[inline]
    pub(crate) fn reserve(&mut self, reads: &[Addr]) {
        self.0
            .extend(reads.iter().map(|&addr| (addr, T::default())));
    }
}

impl<T: Default> LiveSet<T> {
    /// All `n_procs` processors live, holding no deliveries. Slots store
    /// pids as `u32`, so larger programs are refused, as are empty ones.
    pub(crate) fn new(n_procs: usize) -> Result<Self> {
        if n_procs == 0 {
            return Err(ModelError::BadConfig(
                "program declares zero processors".into(),
            ));
        }
        let n = u32::try_from(n_procs).map_err(|_| {
            ModelError::BadConfig(format!(
                "program declares {n_procs} processors; at most {} are supported",
                u32::MAX
            ))
        })?;
        Ok(LiveSet {
            slots: (0..n).map(|pid| Slot { pid, held: 0 }).collect(),
            arena: Vec::new(),
            next: Vec::new(),
        })
    }

    /// Whether every processor has finished.
    pub(crate) fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Runs phase `phase` over the live processors in pid order: each runs
    /// `exec(pid, delivered, fresh)`, which reserves slots for the
    /// processor's reads through `fresh` and returns its status; a finished
    /// processor leaves the set and its reservations are dropped.
    pub(crate) fn collect<F>(&mut self, phase: usize, mut exec: F) -> Result<()>
    where
        F: FnMut(usize, &[(Addr, T)], &mut Fresh<'_, T>) -> Status,
    {
        std::mem::swap(&mut self.arena, &mut self.next);
        let mut start = 0;
        let mut kept = 0;
        for i in 0..self.slots.len() {
            let mut slot = self.slots[i];
            let pid = slot.pid as usize;
            let end = start + slot.held as usize;
            let delivered = &self.arena[start..end];
            start = end;
            let from = self.next.len();
            let status = exec(pid, delivered, &mut Fresh(&mut self.next));
            if status == Status::Done {
                self.next.truncate(from);
                continue;
            }
            slot.held = u32::try_from(self.next.len() - from).map_err(|_| {
                ModelError::BadConfig(format!(
                    "processor {pid} issued more than {} reads in phase {phase}",
                    u32::MAX
                ))
            })?;
            self.slots[kept] = slot;
            kept += 1;
        }
        self.slots.truncate(kept);
        self.arena.clear();
        Ok(())
    }

    /// Values the slots reserved this phase with `value(addr)`. Call it
    /// after the read/write conflict check and before writes commit, so
    /// reads see pre-write memory.
    pub(crate) fn value_fresh(&mut self, mut value: impl FnMut(Addr) -> T) {
        for d in &mut self.next {
            d.1 = value(d.0);
        }
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
    fn far_addresses_are_counted_without_lane_pages() {
        let mut t = ContentionTable::new();
        t.begin_phase();
        for a in [FAR_ADDR, 1 << 50, usize::MAX, usize::MAX] {
            t.incr(a);
        }
        assert!(t.contains(1 << 50) && t.contains(usize::MAX) && !t.contains(FAR_ADDR + 1));
        assert_eq!((t.max_contention(), t.pages_touched()), (2, 1));
        t.begin_phase();
        assert!(!t.contains(usize::MAX) && t.is_empty());

        let mut r = WriteRouter::new();
        r.begin_phase();
        for (a, v) in [(usize::MAX, 1), (7, 2), (1 << 50, 3), (usize::MAX, 4)] {
            r.push(a, v);
        }
        r.route();
        let groups: Vec<(Addr, Vec<Word>)> = r.groups().map(|(a, vs)| (a, vs.to_vec())).collect();
        let want = vec![(7, vec![2]), (1 << 50, vec![3]), (usize::MAX, vec![1, 4])];
        assert_eq!(groups, want);
        assert_eq!((r.max_contention(), r.pages_touched()), (2, 1));
    }

    #[test]
    fn exec_options_default_is_dense_untraced() {
        let o = ExecOptions::default();
        assert!(!o.record_trace);
        assert_eq!(o.trace_phase_cap, DEFAULT_TRACE_PHASE_CAP);
        assert!(!o.streaming_ledger);
        assert!(!o.new_ledger().is_streaming());
        assert!(!o.instrumented());
        let faulted = ExecOptions {
            faults: Some(FaultPlan::new(1)),
            ..ExecOptions::default()
        };
        assert!(faulted.instrumented());
        let traced = ExecOptions {
            record_trace: true,
            ..ExecOptions::default()
        };
        assert!(traced.instrumented());
    }
}
