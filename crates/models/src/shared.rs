//! Program abstraction shared by the queuing shared-memory machines
//! (QSM, s-QSM and the QRQW PRAM special case).
//!
//! A [`Program`] describes the behaviour of every processor of a
//! bulk-synchronous machine. Execution proceeds in *phases*: in each phase
//! the engine calls [`Program::phase`] once for every still-active
//! processor; the processor inspects the values *delivered* for the reads it
//! issued in the previous phase, and issues new read/write/local-op requests
//! through the [`PhaseEnv`]. This encoding makes the paper's rule that "the
//! value returned by a shared-memory read can only be used in a subsequent
//! phase" (Section 2.1) impossible to violate by construction.

/// The machine word. Shared-memory cells of the QSM/s-QSM/BSP hold one word.
pub type Word = i64;

/// A shared-memory address.
pub type Addr = usize;

/// What a processor reports at the end of its phase callback.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// The processor wants to participate in further phases.
    Active,
    /// The processor is finished and will not be called again. Reads it
    /// issued in its final phase are discarded.
    Done,
}

/// Per-processor view of one phase: delivered reads in, requests out.
#[derive(Debug)]
pub struct PhaseEnv<'a> {
    phase: usize,
    delivered: &'a [(Addr, Word)],
    pub(crate) reads: Vec<Addr>,
    pub(crate) writes: Vec<(Addr, Word)>,
    pub(crate) ops: u64,
}

impl<'a> PhaseEnv<'a> {
    /// Builds a phase view directly. Normally only the machines do this,
    /// but it is public so *emulators* (e.g. running a QSM program on a
    /// BSP, `parbounds-algo::emulation`) can drive [`Program`]s themselves.
    pub fn new(phase: usize, delivered: &'a [(Addr, Word)]) -> Self {
        PhaseEnv {
            phase,
            delivered,
            reads: Vec::new(),
            writes: Vec::new(),
            ops: 0,
        }
    }

    /// Builds a phase view around caller-provided (typically recycled)
    /// request buffers, so steady-state phases of the dense fast path do no
    /// allocation. The buffers must be empty.
    pub(crate) fn with_buffers(
        phase: usize,
        delivered: &'a [(Addr, Word)],
        reads: Vec<Addr>,
        writes: Vec<(Addr, Word)>,
    ) -> Self {
        debug_assert!(reads.is_empty() && writes.is_empty());
        PhaseEnv {
            phase,
            delivered,
            reads,
            writes,
            ops: 0,
        }
    }

    /// Dismantles the view into `(reads, writes, local_ops)` — the
    /// counterpart of [`PhaseEnv::new`] for external engines.
    pub fn into_requests(self) -> (Vec<Addr>, Vec<(Addr, Word)>, u64) {
        (self.reads, self.writes, self.ops)
    }

    /// Index of the current phase (0-based).
    pub fn phase(&self) -> usize {
        self.phase
    }

    /// The `(address, value)` pairs for the reads this processor issued in
    /// the *previous* phase, in request order.
    pub fn delivered(&self) -> &[(Addr, Word)] {
        self.delivered
    }

    /// Value delivered for `addr`, if this processor read it last phase.
    ///
    /// **First delivery wins**: if the address was read more than once in
    /// the previous phase the engine delivers one `(addr, value)` pair per
    /// request, all carrying the same committed value, and this accessor
    /// returns the *first* of them. Use [`PhaseEnv::values`] to see every
    /// delivery (e.g. to count duplicate requests).
    pub fn value(&self, addr: Addr) -> Option<Word> {
        self.delivered
            .iter()
            .find(|(a, _)| *a == addr)
            .map(|&(_, v)| v)
    }

    /// Every value delivered for `addr`, in request order — one entry per
    /// read request the processor issued for that address last phase.
    /// Empty if the address was not read. [`PhaseEnv::value`] returns only
    /// the first of these ("first delivery wins").
    pub fn values(&self, addr: Addr) -> Vec<Word> {
        self.delivered
            .iter()
            .filter(|(a, _)| *a == addr)
            .map(|&(_, v)| v)
            .collect()
    }

    /// Issue a shared-memory read; the value arrives next phase.
    pub fn read(&mut self, addr: Addr) {
        self.reads.push(addr);
    }

    /// Issue a shared-memory write, effective at the end of this phase. If
    /// several processors write the same cell, an arbitrary one succeeds
    /// (the engine picks the winner with its seeded RNG).
    pub fn write(&mut self, addr: Addr, value: Word) {
        self.writes.push((addr, value));
    }

    /// Charge `k` units of local computation (`c_i` in the paper). Issuing
    /// reads and writes is charged automatically on top of this.
    pub fn local_ops(&mut self, k: u64) {
        self.ops += k;
    }
}

/// A bulk-synchronous shared-memory program.
///
/// Implementations are *pure descriptions*: the same program value can be
/// executed on a QSM, an s-QSM or a QRQW PRAM and will incur different time
/// costs but identical behaviour.
pub trait Program {
    /// Per-processor private state.
    type Proc;

    /// Number of processors this program uses.
    fn num_procs(&self) -> usize;

    /// Create processor `pid`'s initial private state.
    fn create(&self, pid: usize) -> Self::Proc;

    /// Execute one phase for processor `pid`.
    fn phase(&self, pid: usize, state: &mut Self::Proc, env: &mut PhaseEnv<'_>) -> Status;
}

/// log2 of [`PAGE_WORDS`]: shared memory is stored in fixed-size pages
/// allocated on first touch.
pub const PAGE_SHIFT: usize = 16;

/// Words per memory page (2^[`PAGE_SHIFT`] = 65536 words = 512 KiB). Pages
/// are the allocation granule of [`Memory`]: footprint is proportional to
/// *touched* pages, not to the address space or the highest address, so a
/// family that scatters writes across a 2^34-word address space still only
/// pays for the pages it lands on.
pub const PAGE_WORDS: usize = 1 << PAGE_SHIFT;

/// Shared-memory address limit (2^34 cells) of every QSM and GSM engine
/// and of the `ir` batch and compiled executors. A write at or beyond it
/// is a [`MemoryLimitExceeded`](crate::ModelError::MemoryLimitExceeded)
/// error, so a far write cannot grow a page directory without bound.
pub const DEFAULT_MEM_LIMIT: usize = 1 << 34;

/// Chunked shared memory with default value 0, paged on demand.
///
/// Cells live in fixed-size pages ([`PAGE_WORDS`] words) allocated on first
/// write; reads of never-touched pages return 0 without allocating. Within
/// a page, access is a dense index (shift + mask), so the dense fast path
/// is preserved per page. Equality compares the logical cell contents
/// (absent pages read as zero), the touched extent, and the limit — the
/// fast-path differential tests use it to assert bit-identical committed
/// memory.
#[derive(Debug, Clone, Default)]
pub struct Memory {
    /// Page table, indexed by `addr >> PAGE_SHIFT`; `None` = untouched.
    pages: Vec<Option<Box<[Word]>>>,
    /// Highest written address + 1 (monotone; never shrinks).
    extent: usize,
    limit: usize,
}

impl PartialEq for Memory {
    fn eq(&self, other: &Self) -> bool {
        if self.limit != other.limit || self.extent != other.extent {
            return false;
        }
        let npages = self.pages.len().max(other.pages.len());
        for i in 0..npages {
            let a = self.pages.get(i).and_then(|p| p.as_deref());
            let b = other.pages.get(i).and_then(|p| p.as_deref());
            match (a, b) {
                (None, None) => {}
                (Some(p), None) | (None, Some(p)) => {
                    if p.iter().any(|&w| w != 0) {
                        return false;
                    }
                }
                (Some(p), Some(q)) => {
                    if p != q {
                        return false;
                    }
                }
            }
        }
        true
    }
}

impl Eq for Memory {}

impl Memory {
    /// Creates a memory allowing addresses below `limit`.
    pub fn with_limit(limit: usize) -> Self {
        Memory {
            pages: Vec::new(),
            extent: 0,
            limit,
        }
    }

    /// Highest-addressed cell ever touched, plus one.
    pub fn extent(&self) -> usize {
        self.extent
    }

    /// Address limit (cells at or beyond this address are rejected).
    pub fn limit(&self) -> usize {
        self.limit
    }

    /// Number of pages allocated so far — the memory-footprint figure the
    /// million-scale benches report (`pages_touched · PAGE_WORDS · 8` bytes
    /// of cell storage).
    pub fn pages_touched(&self) -> usize {
        self.pages.iter().filter(|p| p.is_some()).count()
    }

    /// Approximate bytes of cell storage held: touched pages plus the page
    /// table itself.
    pub fn footprint_bytes(&self) -> usize {
        self.pages_touched() * PAGE_WORDS * std::mem::size_of::<Word>()
            + self.pages.len() * std::mem::size_of::<Option<Box<[Word]>>>()
    }

    /// Reads a cell (untouched cells read as 0).
    #[inline]
    pub fn get(&self, addr: Addr) -> Word {
        match self.pages.get(addr >> PAGE_SHIFT) {
            Some(Some(page)) => page[addr & (PAGE_WORDS - 1)],
            _ => 0,
        }
    }

    /// Writes a cell, allocating its page on first touch.
    #[inline]
    pub fn set(&mut self, addr: Addr, value: Word) -> crate::error::Result<()> {
        if addr >= self.limit {
            return Err(crate::error::ModelError::MemoryLimitExceeded {
                addr,
                limit: self.limit,
            });
        }
        let pi = addr >> PAGE_SHIFT;
        if pi >= self.pages.len() {
            self.pages.resize_with(pi + 1, || None);
        }
        let page =
            self.pages[pi].get_or_insert_with(|| vec![0 as Word; PAGE_WORDS].into_boxed_slice());
        page[addr & (PAGE_WORDS - 1)] = value;
        if addr >= self.extent {
            self.extent = addr + 1;
        }
        Ok(())
    }

    /// Bulk-initializes `values` starting at `base`.
    ///
    /// The load is *atomic with respect to failure*: the whole range
    /// `base..base + values.len()` is validated against the address limit
    /// up front, so a rejected load leaves the memory exactly as it was
    /// (no partially-written prefix).
    pub fn load(&mut self, base: Addr, values: &[Word]) -> crate::error::Result<()> {
        if let Some(last) = values.len().checked_sub(1) {
            let last_addr = base.saturating_add(last);
            if last_addr >= self.limit {
                return Err(crate::error::ModelError::MemoryLimitExceeded {
                    addr: base.max(self.limit),
                    limit: self.limit,
                });
            }
        }
        for (i, &v) in values.iter().enumerate() {
            self.set(base + i, v)?;
        }
        Ok(())
    }

    /// Copies out `len` consecutive words starting at `base`.
    pub fn slice(&self, base: Addr, len: usize) -> Vec<Word> {
        (base..base + len).map(|a| self.get(a)).collect()
    }
}

/// A program defined by closures — convenient for tests and small demos.
///
/// `FnProgram::new(p, init, step)` builds a program over `p` processors
/// whose state is produced by `init(pid)` and whose phases run `step`.
pub struct FnProgram<S, I, F>
where
    I: Fn(usize) -> S,
    F: Fn(usize, &mut S, &mut PhaseEnv<'_>) -> Status,
{
    num_procs: usize,
    init: I,
    step: F,
}

impl<S, I, F> FnProgram<S, I, F>
where
    I: Fn(usize) -> S,
    F: Fn(usize, &mut S, &mut PhaseEnv<'_>) -> Status,
{
    /// Builds a closure-backed program over `num_procs` processors.
    pub fn new(num_procs: usize, init: I, step: F) -> Self {
        FnProgram {
            num_procs,
            init,
            step,
        }
    }
}

impl<S, I, F> Program for FnProgram<S, I, F>
where
    I: Fn(usize) -> S,
    F: Fn(usize, &mut S, &mut PhaseEnv<'_>) -> Status,
{
    type Proc = S;

    fn num_procs(&self) -> usize {
        self.num_procs
    }

    fn create(&self, pid: usize) -> S {
        (self.init)(pid)
    }

    fn phase(&self, pid: usize, state: &mut S, env: &mut PhaseEnv<'_>) -> Status {
        (self.step)(pid, state, env)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_env_records_requests() {
        let delivered = [(3usize, 7i64), (5, -1)];
        let mut env = PhaseEnv::new(2, &delivered);
        assert_eq!(env.phase(), 2);
        assert_eq!(env.value(3), Some(7));
        assert_eq!(env.value(5), Some(-1));
        assert_eq!(env.value(4), None);
        env.read(10);
        env.read(11);
        env.write(12, 99);
        env.local_ops(5);
        env.local_ops(2);
        assert_eq!(env.reads, vec![10, 11]);
        assert_eq!(env.writes, vec![(12, 99)]);
        assert_eq!(env.ops, 7);
    }

    #[test]
    fn duplicate_reads_deliver_first_value() {
        let delivered = [(3usize, 7i64), (3, 8)];
        let env = PhaseEnv::new(0, &delivered);
        // First delivery wins, even when later deliveries disagree (only
        // possible for hand-built views; the engines deliver the single
        // committed value for every duplicate request).
        assert_eq!(env.value(3), Some(7));
        assert_eq!(env.values(3), vec![7, 8]);
    }

    #[test]
    fn values_returns_all_deliveries_in_request_order() {
        let delivered = [(3usize, 7i64), (5, -1), (3, 7), (3, 7)];
        let env = PhaseEnv::new(0, &delivered);
        assert_eq!(env.values(3), vec![7, 7, 7]);
        assert_eq!(env.values(5), vec![-1]);
        assert!(env.values(4).is_empty());
    }

    #[test]
    fn memory_defaults_to_zero_and_grows() {
        let mut m = Memory::with_limit(100);
        assert_eq!(m.get(42), 0);
        assert_eq!(m.extent(), 0);
        m.set(10, 5).unwrap();
        assert_eq!(m.get(10), 5);
        assert_eq!(m.extent(), 11);
        assert_eq!(m.slice(9, 3), vec![0, 5, 0]);
    }

    #[test]
    fn memory_enforces_limit() {
        let mut m = Memory::with_limit(8);
        assert!(m.set(7, 1).is_ok());
        assert!(m.set(8, 1).is_err());
    }

    #[test]
    fn memory_load_is_contiguous() {
        let mut m = Memory::with_limit(100);
        m.load(4, &[1, 2, 3]).unwrap();
        assert_eq!(m.slice(4, 3), vec![1, 2, 3]);
    }

    #[test]
    fn memory_load_is_atomic_on_failure() {
        let mut m = Memory::with_limit(8);
        m.set(5, 42).unwrap();
        // The tail of this load is out of range; nothing may be written.
        let err = m.load(6, &[1, 2, 3]).unwrap_err();
        assert!(matches!(
            err,
            crate::error::ModelError::MemoryLimitExceeded { limit: 8, .. }
        ));
        assert_eq!(m.slice(0, 8), vec![0, 0, 0, 0, 0, 42, 0, 0]);
        assert_eq!(m.extent(), 6);
        // Entirely out-of-range loads fail too; empty loads never do.
        assert!(m.load(9, &[1]).is_err());
        assert!(m.load(1000, &[]).is_ok());
        assert_eq!(m.extent(), 6);
    }

    #[test]
    fn memory_pages_allocate_on_first_touch_only() {
        let mut m = Memory::with_limit(1 << 34);
        assert_eq!(m.pages_touched(), 0);
        m.set(3, 1).unwrap();
        assert_eq!(m.pages_touched(), 1);
        // Same page: no new allocation.
        m.set(PAGE_WORDS - 1, 2).unwrap();
        assert_eq!(m.pages_touched(), 1);
        // A write 2^30 words up allocates exactly one more page, not the
        // intervening address space.
        let far = 1usize << 30;
        m.set(far, 7).unwrap();
        assert_eq!(m.pages_touched(), 2);
        assert_eq!(m.extent(), far + 1);
        assert_eq!(m.get(far), 7);
        assert_eq!(m.get(far - 1), 0);
        assert!(m.footprint_bytes() < 4 * PAGE_WORDS * 8);
    }

    #[test]
    fn memory_equality_is_logical_across_page_layouts() {
        let mut a = Memory::with_limit(1 << 20);
        let mut b = Memory::with_limit(1 << 20);
        a.set(5, 9).unwrap();
        b.set(5, 9).unwrap();
        assert_eq!(a, b);
        // A page holding only zeros equals an absent page... but extents
        // must still agree (extent is observable via `extent()`).
        b.set(PAGE_WORDS + 1, 0).unwrap();
        assert_ne!(a, b, "extent differs");
        a.set(PAGE_WORDS + 1, 0).unwrap();
        assert_eq!(a, b);
        b.set(6, 1).unwrap();
        assert_ne!(a, b);
    }

    #[test]
    fn fn_program_dispatches_closures() {
        let prog = FnProgram::new(
            3,
            |pid| pid as Word,
            |_pid, st, env: &mut PhaseEnv<'_>| {
                env.write(0, *st);
                Status::Done
            },
        );
        assert_eq!(prog.num_procs(), 3);
        let mut s = prog.create(2);
        assert_eq!(s, 2);
        let mut env = PhaseEnv::new(0, &[]);
        assert_eq!(prog.phase(2, &mut s, &mut env), Status::Done);
        assert_eq!(env.writes, vec![(0, 2)]);
    }
}
