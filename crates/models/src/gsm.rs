//! The Generalized Shared Memory (GSM) lower-bound model (Section 2.2).
//!
//! The GSM is *stronger* than the QSM, s-QSM and BSP: cells hold arbitrary
//! amounts of information, and concurrent writes merge **all** information
//! from all writers into the cell ("strong queuing"). Lower bounds proved on
//! the GSM therefore translate to the weaker models via Claim 2.1 (see
//! `parbounds-tables::mapping`).
//!
//! Parameters: `alpha` (reads/writes a big-step can absorb per processor),
//! `beta` (contention a big-step can absorb per cell) and `gamma` (inputs
//! initially packed per cell). With `μ = max{α,β}` and `λ = min{α,β}`, a
//! phase with maximum per-processor request count `m_rw` and maximum
//! contention `κ` takes `b = max(⌈m_rw/α⌉, ⌈κ/β⌉)` big-steps and costs
//! `μ·b` time.

use std::collections::HashMap;

use crate::cost::{CostLedger, PhaseCost};
use crate::error::{ModelError, Result};
use crate::exec::{ContentionTable, LiveSet};
use crate::faults::{FaultInjector, FaultLog};
use crate::machine::Machine;
use crate::shared::{Addr, Status, Word, DEFAULT_MEM_LIMIT, PAGE_SHIFT, PAGE_WORDS};

/// Contents of a GSM cell: the multiset of all information ever written,
/// in commit order (writes within a phase are merged in processor order,
/// which the strong-queuing rule permits — *all* information arrives).
pub type CellContent = Vec<Word>;

/// Per-processor view of one GSM phase.
#[derive(Debug)]
pub struct GsmEnv<'a> {
    phase: usize,
    delivered: &'a [(Addr, CellContent)],
    pub(crate) reads: Vec<Addr>,
    pub(crate) writes: Vec<(Addr, Word)>,
}

impl<'a> GsmEnv<'a> {
    fn new(phase: usize, delivered: &'a [(Addr, CellContent)]) -> Self {
        GsmEnv {
            phase,
            delivered,
            reads: Vec::new(),
            writes: Vec::new(),
        }
    }

    /// Like [`GsmEnv::new`] but around recycled (empty) request buffers, so
    /// steady-state phases of the dense fast path do no allocation.
    fn with_buffers(
        phase: usize,
        delivered: &'a [(Addr, CellContent)],
        reads: Vec<Addr>,
        writes: Vec<(Addr, Word)>,
    ) -> Self {
        debug_assert!(reads.is_empty() && writes.is_empty());
        GsmEnv {
            phase,
            delivered,
            reads,
            writes,
        }
    }

    /// Index of the current phase (0-based).
    pub fn phase(&self) -> usize {
        self.phase
    }

    /// Cell contents delivered for the reads issued last phase.
    pub fn delivered(&self) -> &[(Addr, CellContent)] {
        self.delivered
    }

    /// Contents delivered for `addr`, if read last phase.
    pub fn contents(&self, addr: Addr) -> Option<&[Word]> {
        self.delivered
            .iter()
            .find(|(a, _)| *a == addr)
            .map(|(_, c)| c.as_slice())
    }

    /// Issue a read of an entire cell; contents arrive next phase.
    pub fn read(&mut self, addr: Addr) {
        self.reads.push(addr);
    }

    /// Write `value` into `addr`. All concurrent writes merge (strong
    /// queuing): the information is *added* to the cell.
    pub fn write(&mut self, addr: Addr, value: Word) {
        self.writes.push((addr, value));
    }
}

/// A bulk-synchronous GSM program.
pub trait GsmProgram {
    /// Per-processor private state.
    type Proc;

    /// Number of processors.
    fn num_procs(&self) -> usize;

    /// Create processor `pid`'s initial state.
    fn create(&self, pid: usize) -> Self::Proc;

    /// Execute one phase for processor `pid`.
    fn phase(&self, pid: usize, state: &mut Self::Proc, env: &mut GsmEnv<'_>) -> Status;
}

/// A GSM program defined by closures.
pub struct GsmFnProgram<S, I, F>
where
    I: Fn(usize) -> S,
    F: Fn(usize, &mut S, &mut GsmEnv<'_>) -> Status,
{
    num_procs: usize,
    init: I,
    step: F,
}

impl<S, I, F> GsmFnProgram<S, I, F>
where
    I: Fn(usize) -> S,
    F: Fn(usize, &mut S, &mut GsmEnv<'_>) -> Status,
{
    /// Builds a closure-backed GSM program.
    pub fn new(num_procs: usize, init: I, step: F) -> Self {
        GsmFnProgram {
            num_procs,
            init,
            step,
        }
    }
}

impl<S, I, F> GsmProgram for GsmFnProgram<S, I, F>
where
    I: Fn(usize) -> S,
    F: Fn(usize, &mut S, &mut GsmEnv<'_>) -> Status,
{
    type Proc = S;

    fn num_procs(&self) -> usize {
        self.num_procs
    }

    fn create(&self, pid: usize) -> S {
        (self.init)(pid)
    }

    fn phase(&self, pid: usize, state: &mut S, env: &mut GsmEnv<'_>) -> Status {
        (self.step)(pid, state, env)
    }
}

/// GSM shared memory: every cell accumulates all information written to it.
///
/// Cells live in pages of [`PAGE_WORDS`] cells, as in [`Memory`]: a page
/// is allocated on the first write into it and grows to the highest cell
/// written there, so a run pays for the cells near the ones it touches,
/// not for the address space. Writes at or beyond [`DEFAULT_MEM_LIMIT`]
/// fail. Equality is logical: an unwritten cell equals an empty one,
/// whatever the page layout.
///
/// [`Memory`]: crate::Memory
#[derive(Debug, Clone, Default)]
pub struct GsmMemory {
    /// Page table, indexed by `addr >> PAGE_SHIFT`; an empty page is
    /// unwritten.
    pages: Vec<Vec<CellContent>>,
}

impl PartialEq for GsmMemory {
    fn eq(&self, other: &Self) -> bool {
        self.cells().eq(other.cells())
    }
}

impl Eq for GsmMemory {}

impl GsmMemory {
    /// Contents of `addr` (empty slice if never written).
    #[inline]
    pub fn get(&self, addr: Addr) -> &[Word] {
        self.pages
            .get(addr >> PAGE_SHIFT)
            .and_then(|page| page.get(addr & (PAGE_WORDS - 1)))
            .map_or(&[], |c| c.as_slice())
    }

    /// Appends `value` to the cell. Fails with
    /// [`ModelError::MemoryLimitExceeded`] at or beyond
    /// [`DEFAULT_MEM_LIMIT`].
    #[inline]
    pub fn push(&mut self, addr: Addr, value: Word) -> Result<()> {
        if addr >= DEFAULT_MEM_LIMIT {
            return Err(ModelError::MemoryLimitExceeded {
                addr,
                limit: DEFAULT_MEM_LIMIT,
            });
        }
        self.cell_mut(addr).push(value);
        Ok(())
    }

    /// All written cells, in address order.
    pub fn cells(&self) -> impl Iterator<Item = (Addr, &[Word])> {
        self.pages.iter().enumerate().flat_map(|(pi, page)| {
            page.iter()
                .enumerate()
                .filter(|(_, c)| !c.is_empty())
                .map(move |(i, c)| ((pi << PAGE_SHIFT) + i, c.as_slice()))
        })
    }

    /// The cell at `addr`, allocating (or growing) its page.
    fn cell_mut(&mut self, addr: Addr) -> &mut CellContent {
        let (pi, i) = (addr >> PAGE_SHIFT, addr & (PAGE_WORDS - 1));
        if pi >= self.pages.len() {
            self.pages.resize_with(pi + 1, Vec::new);
        }
        let page = &mut self.pages[pi];
        if i >= page.len() {
            page.resize_with(i + 1, Vec::new);
        }
        &mut page[i]
    }
}

/// Full GSM execution trace: `Trace(v, t, f)` material for the adversary.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GsmTrace {
    /// `phases[t].reads[pid]` = (cell, contents-at-read) pairs. At most
    /// [`trace_phase_cap`](crate::ExecOptions::trace_phase_cap) phases are retained.
    pub phases: Vec<GsmPhaseTrace>,
    /// Number of phases the run actually executed.
    pub total_phases: usize,
    /// True if the run executed more phases than the trace retained.
    pub truncated: bool,
}

/// One phase of a [`GsmTrace`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GsmPhaseTrace {
    /// Per-processor reads, with the contents observed.
    pub reads: Vec<Vec<(Addr, CellContent)>>,
    /// Per-processor writes.
    pub writes: Vec<Vec<(Addr, Word)>>,
    /// Big-steps this phase took.
    pub big_steps: u64,
    /// `finished[pid]` is true if processor `pid` returned [`Status::Done`]
    /// in this phase — reads it issued here are discarded by the engine.
    pub finished: Vec<bool>,
}

/// Outcome of a GSM run.
#[derive(Debug)]
pub struct GsmRunResult {
    /// Final memory (accumulated cell contents).
    pub memory: GsmMemory,
    /// Per-phase costs (in GSM time units, `μ` per big-step).
    pub ledger: CostLedger,
    /// What the fault injector did, if the machine carried a [`FaultPlan`](crate::FaultPlan).
    pub faults: Option<FaultLog>,
    /// Full execution trace, if the machine was built
    /// [`GsmMachine::with_tracing`] (or the run used
    /// [`GsmMachine::run_traced`]). `None` on untraced runs.
    pub trace: Option<GsmTrace>,
}

impl GsmRunResult {
    /// Total GSM time.
    pub fn time(&self) -> u64 {
        self.ledger.total_time()
    }

    /// Total number of big-steps across all phases.
    pub fn big_steps(&self, mu: u64) -> u64 {
        self.ledger.total_time() / mu.max(1)
    }
}

/// The GSM's own parameters: α, β and γ.
#[derive(Debug, Clone, Copy)]
pub struct Gsm {
    alpha: u64,
    beta: u64,
    gamma: u64,
}

/// The GSM machine.
pub type GsmMachine = Machine<Gsm>;

impl Machine<Gsm> {
    /// A GSM(α, β, γ).
    pub fn new(alpha: u64, beta: u64, gamma: u64) -> Self {
        Machine::with_model(Gsm {
            alpha: alpha.max(1),
            beta: beta.max(1),
            gamma: gamma.max(1),
        })
    }

    /// `μ = max{α, β}` — the duration of one big-step.
    pub fn mu(&self) -> u64 {
        self.model.alpha.max(self.model.beta)
    }

    /// `λ = min{α, β}`.
    pub fn lambda(&self) -> u64 {
        self.model.alpha.min(self.model.beta)
    }

    /// The α parameter (reads/writes absorbed per processor per big-step).
    pub fn alpha(&self) -> u64 {
        self.model.alpha
    }

    /// The β parameter (contention absorbed per cell per big-step).
    pub fn beta(&self) -> u64 {
        self.model.beta
    }

    /// The γ parameter (inputs initially packed per cell).
    pub fn gamma(&self) -> u64 {
        self.model.gamma
    }

    /// Big-steps of a phase: `max(⌈m_rw/α⌉, ⌈κ/β⌉)`, at least 1.
    pub fn big_steps(&self, m_rw: u64, kappa: u64) -> u64 {
        (m_rw.div_ceil(self.model.alpha))
            .max(kappa.div_ceil(self.model.beta))
            .max(1)
    }

    /// Time cost of a phase with the given measurements: `μ · big_steps`.
    pub fn phase_cost(&self, m_rw: u64, kappa: u64) -> u64 {
        self.mu() * self.big_steps(m_rw, kappa)
    }

    /// Packs `input` into the initial memory, γ inputs per cell starting at
    /// address 0 (the paper's initial placement: each cell holds information
    /// about up to γ inputs, disjoint across cells).
    pub fn initial_memory(&self, input: &[Word]) -> GsmMemory {
        let mut mem = GsmMemory::default();
        for (addr, cell) in input.chunks(self.model.gamma as usize).enumerate() {
            *mem.cell_mut(addr) = cell.to_vec();
        }
        mem
    }

    /// Number of input cells used for an `n`-word input: `⌈n/γ⌉`.
    pub fn input_cells(&self, n: usize) -> usize {
        n.div_ceil(self.model.gamma as usize)
    }

    /// Runs `program` with `input` packed γ-per-cell from address 0.
    pub fn run<P: GsmProgram>(&self, program: &P, input: &[Word]) -> Result<GsmRunResult> {
        self.execute(program, input, self.opts.record_trace)
    }

    /// Runs `program` and records a full [`GsmTrace`].
    pub fn run_traced<P: GsmProgram>(
        &self,
        program: &P,
        input: &[Word],
    ) -> Result<(GsmRunResult, GsmTrace)> {
        let mut result = self.execute(program, input, true)?;
        let trace = result.trace.take().unwrap_or_default();
        Ok((result, trace))
    }

    /// Instrumented runs (a fault plan or a trace) go to the reference
    /// engine, the only one that injects faults and records traces.
    fn execute<P: GsmProgram>(
        &self,
        program: &P,
        input: &[Word],
        want_trace: bool,
    ) -> Result<GsmRunResult> {
        if self.opts.reference || want_trace || self.opts.instrumented() {
            self.execute_reference(program, input, want_trace)
        } else {
            self.execute_dense(program, input)
        }
    }

    /// The original map-based execution path: the executable specification
    /// the dense fast path is tested against, and the instrumented-run engine.
    fn execute_reference<P: GsmProgram>(
        &self,
        program: &P,
        input: &[Word],
        want_trace: bool,
    ) -> Result<GsmRunResult> {
        let cap = self.opts.trace_phase_cap;
        let mut trace = want_trace.then(GsmTrace::default);
        let n_procs = program.num_procs();
        if n_procs == 0 {
            return Err(ModelError::BadConfig(
                "program declares zero processors".into(),
            ));
        }
        let mut memory = self.initial_memory(input);
        let mut ledger = self.opts.new_ledger();

        let mut states: Vec<P::Proc> = (0..n_procs).map(|pid| program.create(pid)).collect();
        let mut active = vec![true; n_procs];
        let mut pending: Vec<Vec<(Addr, CellContent)>> = vec![Vec::new(); n_procs];
        let (mut injector, phase_limit) = self.opts.start_run();
        // Per-processor phase counters so an injected stall is a pure delay.
        let mut local_phase: Vec<usize> = vec![0; n_procs];

        let mut read_count: HashMap<Addr, u64> = HashMap::new();
        let mut write_count: HashMap<Addr, u64> = HashMap::new();

        let mut phase_no = 0usize;
        while active.iter().any(|&a| a) {
            self.opts.enter_phase(phase_no, phase_limit)?;
            read_count.clear();
            write_count.clear();

            let mut m_rw: u64 = 0;
            let mut any_access = false;
            let mut new_reads: Vec<(usize, Addr)> = Vec::new();
            let mut new_writes: Vec<(usize, Addr, Word)> = Vec::new();
            let mut phase_trace =
                trace
                    .as_ref()
                    .filter(|t| t.phases.len() < cap)
                    .map(|_| GsmPhaseTrace {
                        reads: vec![Vec::new(); n_procs],
                        writes: vec![Vec::new(); n_procs],
                        big_steps: 0,
                        finished: vec![false; n_procs],
                    });

            for pid in 0..n_procs {
                if !active[pid] {
                    continue;
                }
                if let Some(inj) = injector.as_mut() {
                    if inj.crash_at(pid, phase_no) {
                        return Err(ModelError::FaultAborted {
                            phase: phase_no,
                            reason: format!("processor {pid} crashed"),
                        });
                    }
                    if inj.stall_at(pid, phase_no) {
                        continue;
                    }
                }
                let delivered = std::mem::take(&mut pending[pid]);
                let mut env = GsmEnv::new(local_phase[pid], &delivered);
                let status = program.phase(pid, &mut states[pid], &mut env);
                local_phase[pid] += 1;

                let r_i = env.reads.len() as u64;
                let w_i = env.writes.len() as u64;
                m_rw = m_rw.max(r_i.max(w_i));
                any_access |= r_i + w_i > 0;

                for &addr in &env.reads {
                    *read_count.entry(addr).or_insert(0) += 1;
                    new_reads.push((pid, addr));
                }
                for &(addr, value) in &env.writes {
                    *write_count.entry(addr).or_insert(0) += 1;
                    new_writes.push((pid, addr, value));
                }
                if status == Status::Done {
                    active[pid] = false;
                    if let Some(pt) = phase_trace.as_mut() {
                        pt.finished[pid] = true;
                    }
                }
            }

            // Model rule: a cell may be read or written in a phase, not
            // both. Checked over the writes in request order so the
            // reported conflict cell is deterministic.
            for &(_, addr, _) in &new_writes {
                if read_count.contains_key(&addr) {
                    return Err(ModelError::ReadWriteConflict {
                        addr,
                        phase: phase_no,
                    });
                }
            }

            // Value reads against pre-write contents.
            for &(pid, addr) in &new_reads {
                let contents: CellContent = memory.get(addr).to_vec();
                if let Some(pt) = phase_trace.as_mut() {
                    pt.reads[pid].push((addr, contents.clone()));
                }
                if active[pid] {
                    pending[pid].push((addr, contents));
                }
            }
            // Strong queuing: all written information merges into the cell.
            for &(pid, addr, value) in &new_writes {
                memory.push(addr, value)?;
                if let Some(pt) = phase_trace.as_mut() {
                    pt.writes[pid].push((addr, value));
                }
            }

            let kappa = if any_access {
                read_count
                    .values()
                    .chain(write_count.values())
                    .copied()
                    .max()
                    .unwrap_or(1)
            } else {
                1
            };
            let b = self.big_steps(m_rw.max(1), kappa);
            let cost = self.mu() * b;
            ledger.push(PhaseCost {
                m_op: 0,
                m_rw: m_rw.max(1),
                kappa,
                cost,
            });
            if let Some(inj) = injector.as_ref() {
                inj.check_cost(ledger.total_time())?;
            }
            if let Some(t) = trace.as_mut() {
                t.total_phases += 1;
                match phase_trace {
                    Some(mut pt) => {
                        pt.big_steps = b;
                        t.phases.push(pt);
                    }
                    None => t.truncated = true,
                }
            }
            phase_no += 1;
        }

        Ok(GsmRunResult {
            memory,
            ledger,
            faults: injector.map(FaultInjector::into_log),
            trace,
        })
    }

    /// The dense fast path: the [`LiveSet`] collect stage shared with the
    /// QSM engine, epoch-stamped contention tables and recycled request
    /// buffers. It runs uninstrumented programs only, and on them is
    /// observationally identical to [`GsmMachine::execute_reference`].
    fn execute_dense<P: GsmProgram>(&self, program: &P, input: &[Word]) -> Result<GsmRunResult> {
        let n_procs = program.num_procs();
        let mut live = LiveSet::<CellContent>::new(n_procs)?;
        let mut memory = self.initial_memory(input);
        let mut ledger = self.opts.new_ledger();

        let mut states: Vec<P::Proc> = (0..n_procs).map(|pid| program.create(pid)).collect();

        // Per-run scratch, allocated once and reused across phases.
        let mut read_table = ContentionTable::default();
        let mut write_table = ContentionTable::default();
        let mut new_writes: Vec<(Addr, Word)> = Vec::new();
        let mut read_buf: Vec<Addr> = Vec::new();
        let mut write_buf: Vec<(Addr, Word)> = Vec::new();

        let mut phase_no = 0usize;
        while !live.is_empty() {
            self.opts.enter_phase(phase_no, self.opts.max_phases)?;
            read_table.begin_phase();
            write_table.begin_phase();
            new_writes.clear();

            let mut m_rw: u64 = 0;
            let mut any_access = false;

            live.collect(phase_no, |pid, delivered, fresh| {
                let mut env = GsmEnv::with_buffers(
                    phase_no,
                    delivered,
                    std::mem::take(&mut read_buf),
                    std::mem::take(&mut write_buf),
                );
                let status = program.phase(pid, &mut states[pid], &mut env);
                let (mut r_vec, mut w_vec) = (env.reads, env.writes);
                let r_i = r_vec.len() as u64;
                let w_i = w_vec.len() as u64;
                m_rw = m_rw.max(r_i.max(w_i));
                any_access |= r_i + w_i > 0;

                for &addr in &r_vec {
                    read_table.incr(addr);
                }
                fresh.reserve(&r_vec);
                for &(addr, value) in &w_vec {
                    write_table.incr(addr);
                    new_writes.push((addr, value));
                }
                r_vec.clear();
                w_vec.clear();
                read_buf = r_vec;
                write_buf = w_vec;
                status
            })?;

            for &(addr, _) in &new_writes {
                if read_table.contains(addr) {
                    return Err(ModelError::ReadWriteConflict {
                        addr,
                        phase: phase_no,
                    });
                }
            }

            // Value reads against pre-write contents.
            live.value_fresh(|addr| memory.get(addr).to_vec());
            // Strong queuing: all written information merges into the cell.
            for &(addr, value) in &new_writes {
                memory.push(addr, value)?;
            }

            let kappa = if any_access {
                read_table
                    .max_contention()
                    .max(write_table.max_contention())
            } else {
                1
            };
            let b = self.big_steps(m_rw.max(1), kappa);
            let cost = self.mu() * b;
            ledger.push(PhaseCost {
                m_op: 0,
                m_rw: m_rw.max(1),
                kappa,
                cost,
            });
            phase_no += 1;
        }

        Ok(GsmRunResult {
            memory,
            ledger,
            faults: None,
            trace: None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn big_step_formula_matches_definition() {
        let m = GsmMachine::new(2, 4, 1);
        assert_eq!(m.mu(), 4);
        assert_eq!(m.lambda(), 2);
        // m_rw = 5 -> ceil(5/2) = 3; kappa = 9 -> ceil(9/4) = 3 -> b = 3.
        assert_eq!(m.big_steps(5, 9), 3);
        // kappa dominates: kappa = 13 -> ceil(13/4) = 4.
        assert_eq!(m.big_steps(5, 13), 4);
        assert_eq!(m.phase_cost(5, 13), 16);
        // Minimum one big-step.
        assert_eq!(m.big_steps(0, 0), 1);
    }

    #[test]
    fn gamma_packs_inputs_per_cell() {
        let m = GsmMachine::new(1, 1, 3);
        let mem = m.initial_memory(&[10, 11, 12, 13, 14, 15, 16]);
        assert_eq!(mem.get(0), &[10, 11, 12]);
        assert_eq!(mem.get(1), &[13, 14, 15]);
        assert_eq!(mem.get(2), &[16]);
        assert_eq!(m.input_cells(7), 3);
    }

    #[test]
    fn strong_queuing_merges_all_writers() {
        let n = 8;
        let prog = GsmFnProgram::new(
            n,
            |_| (),
            |pid, _, env: &mut GsmEnv<'_>| {
                env.write(50, pid as Word);
                Status::Done
            },
        );
        let m = GsmMachine::new(1, 1, 1);
        let res = m.run(&prog, &[]).unwrap();
        let mut contents = res.memory.get(50).to_vec();
        contents.sort_unstable();
        assert_eq!(contents, (0..n as Word).collect::<Vec<_>>());
        // One phase, contention 8, alpha = beta = 1: 8 big-steps of cost 1.
        assert_eq!(res.time(), 8);
    }

    #[test]
    fn beta_absorbs_contention() {
        let n = 8;
        let mk = || {
            GsmFnProgram::new(
                n,
                |_| (),
                |pid, _, env: &mut GsmEnv<'_>| {
                    env.write(0, pid as Word);
                    Status::Done
                },
            )
        };
        // beta = 4: 8 writers absorbed in ceil(8/4) = 2 big-steps of mu = 4.
        let res = GsmMachine::new(1, 4, 1).run(&mk(), &[]).unwrap();
        assert_eq!(res.time(), 8);
        // beta = 8: one big-step.
        let res = GsmMachine::new(1, 8, 1).run(&mk(), &[]).unwrap();
        assert_eq!(res.time(), 8); // mu = 8, 1 big-step
        assert_eq!(res.ledger.num_phases(), 1);
    }

    #[test]
    fn reads_see_accumulated_contents() {
        // Phase 0: three writers write to cell 5. Phase 1: reader reads it
        // and must see all three values plus the preloaded input.
        let prog = GsmFnProgram::new(
            4,
            |_| (),
            |pid, _, env: &mut GsmEnv<'_>| {
                if pid < 3 {
                    if env.phase() == 0 {
                        env.write(5, 100 + pid as Word);
                    }
                    return Status::Done;
                }
                match env.phase() {
                    0 => Status::Active,
                    1 => {
                        env.read(5);
                        Status::Active
                    }
                    _ => {
                        let seen = env.contents(5).unwrap();
                        env.write(6, seen.iter().sum());
                        Status::Done
                    }
                }
            },
        );
        let res = GsmMachine::new(1, 1, 1).run(&prog, &[]).unwrap();
        assert_eq!(res.memory.get(6), &[303]);
    }

    #[test]
    fn initial_cell_contents_are_readable() {
        let prog = GsmFnProgram::new(
            1,
            |_| (),
            |_, _, env: &mut GsmEnv<'_>| match env.phase() {
                0 => {
                    env.read(0);
                    Status::Active
                }
                _ => {
                    let s: Word = env.contents(0).unwrap().iter().sum();
                    env.write(9, s);
                    Status::Done
                }
            },
        );
        let m = GsmMachine::new(1, 1, 4);
        let res = m.run(&prog, &[1, 2, 3, 4]).unwrap();
        assert_eq!(res.memory.get(9), &[10]);
    }

    #[test]
    fn gsm_rejects_read_write_conflict() {
        let prog = GsmFnProgram::new(
            2,
            |_| (),
            |pid, _, env: &mut GsmEnv<'_>| {
                if pid == 0 {
                    env.read(1);
                } else {
                    env.write(1, 1);
                }
                Status::Done
            },
        );
        let err = GsmMachine::new(1, 1, 1).run(&prog, &[]).unwrap_err();
        assert!(matches!(err, ModelError::ReadWriteConflict { addr: 1, .. }));
    }

    #[test]
    fn trace_captures_big_steps_and_contents() {
        let prog = GsmFnProgram::new(
            2,
            |_| (),
            |pid, _, env: &mut GsmEnv<'_>| match env.phase() {
                0 => {
                    env.write(3, pid as Word);
                    Status::Active
                }
                1 => {
                    env.read(3);
                    Status::Active
                }
                _ => Status::Done,
            },
        );
        let m = GsmMachine::new(1, 1, 1);
        let (_, trace) = m.run_traced(&prog, &[]).unwrap();
        assert_eq!(trace.phases.len(), 3);
        assert_eq!(trace.phases[0].big_steps, 2); // contention 2, beta 1
        assert_eq!(trace.phases[0].writes[0], vec![(3, 0)]);
        // Both readers observe both written values.
        let seen = &trace.phases[1].reads[0][0].1;
        assert_eq!(seen.len(), 2);
        assert_eq!(trace.phases[1].finished, vec![false, false]);
        assert_eq!(trace.phases[2].finished, vec![true, true]);
    }

    #[test]
    fn with_tracing_populates_run_result_trace() {
        let mk = || {
            GsmFnProgram::new(
                1,
                |_| (),
                |_, _, env: &mut GsmEnv<'_>| {
                    env.write(2, 1);
                    Status::Done
                },
            )
        };
        let m = GsmMachine::new(1, 1, 1);
        assert!(m.run(&mk(), &[]).unwrap().trace.is_none());
        let res = m.with_tracing().run(&mk(), &[]).unwrap();
        let trace = res.trace.expect("tracing machine records a trace");
        assert_eq!(trace.phases.len(), 1);
        assert_eq!(trace.phases[0].writes[0], vec![(2, 1)]);
        assert_eq!(trace.phases[0].finished, vec![true]);
    }
}
