//! The Queuing Shared Memory machine (QSM) and its variants.
//!
//! One engine executes four model flavours that differ only in the cost
//! charged per phase (Section 2.1 of the paper):
//!
//! * **QSM(g)** — phase cost `max(m_op, g·m_rw, κ)`;
//! * **s-QSM(g)** — phase cost `max(m_op, g·m_rw, g·κ)` (a gap at memory as
//!   well as at processors);
//! * **QSM with unit-time concurrent reads** — as QSM, but contention from
//!   *reads* is charged 1 (used by Theorem 3.1 and the "with concur. reads"
//!   row of Table 1; write contention still queues).
//!
//! The **QRQW PRAM** of Gibbons–Matias–Ramachandran is the QSM with `g = 1`
//! ([`QsmMachine::qrqw`]).

use std::collections::{BTreeMap, HashMap};

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::cancel::CancelToken;
use crate::cost::{CostLedger, PhaseCost};
use crate::error::{ModelError, Result};
use crate::exec::{ContentionTable, ExecOptions, Routing, WriteRouter};
use crate::faults::{FaultInjector, FaultLog, FaultPlan};
use crate::shared::{Addr, Memory, PhaseEnv, Program, Status, Word};

/// Which cost rule the machine charges.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QsmFlavor {
    /// Plain QSM: `max(m_op, g·m_rw, κ)`.
    Qsm,
    /// s-QSM: `max(m_op, g·m_rw, g·κ)`.
    SQsm,
    /// QSM where concurrent *reads* cost unit time; only write contention
    /// enters κ.
    QsmUnitConcurrentReads,
    /// QSM(g, d) (Ramachandran; Claim 2.2): separate gap `d` for processing
    /// each access at memory — `max(m_op, g·m_rw, d·κ)`. `QsmGd(1)` is the
    /// QSM; `QsmGd(g)` is the s-QSM.
    QsmGd(u64),
}

/// The outcome of running a program: final memory plus the cost ledger.
#[derive(Debug)]
pub struct RunResult {
    /// Shared memory at termination.
    pub memory: Memory,
    /// Per-phase cost records.
    pub ledger: CostLedger,
    /// What the fault injector did, if the machine carried a [`FaultPlan`].
    pub faults: Option<FaultLog>,
    /// Full execution trace, if the machine was built
    /// [`QsmMachine::with_tracing`] (or the run used
    /// [`QsmMachine::run_traced`]). `None` on untraced runs.
    pub trace: Option<ExecTrace>,
}

impl RunResult {
    /// Total model time of the execution.
    pub fn time(&self) -> u64 {
        self.ledger.total_time()
    }

    /// Number of phases executed.
    pub fn phases(&self) -> usize {
        self.ledger.num_phases()
    }
}

/// Full record of what every processor read and wrote in each phase.
///
/// Populated by [`QsmMachine::run_traced`] or by any run of a machine built
/// [`QsmMachine::with_tracing`]; used by the lower-bound machinery to
/// compute `Trace`, `Know` and `Aff` sets by exhaustive enumeration on
/// small machines (Section 5.1 of the paper), and by the
/// `parbounds-analyze` lint pass.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExecTrace {
    /// `phases[t].reads[pid]` = the `(addr, value)` pairs processor `pid`
    /// read in phase `t`; `phases[t].writes[pid]` = the `(addr, value)`
    /// pairs it attempted to write (before arbitration). At most
    /// [`ExecOptions::trace_phase_cap`] phases are retained.
    pub phases: Vec<PhaseTrace>,
    /// Number of phases the run actually executed. Equals `phases.len()`
    /// unless the trace was truncated at the phase cap.
    pub total_phases: usize,
    /// True if the run executed more phases than the trace retained
    /// (`total_phases > phases.len()`); consumers must not treat a
    /// truncated trace as the whole execution.
    pub truncated: bool,
}

/// One phase of an [`ExecTrace`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PhaseTrace {
    /// Reads per processor, in request order.
    pub reads: Vec<Vec<(Addr, Word)>>,
    /// Attempted writes per processor, in request order.
    pub writes: Vec<Vec<(Addr, Word)>>,
    /// The writes that actually landed (cell, winning value).
    pub committed: Vec<(Addr, Word)>,
    /// `finished[pid]` is true if processor `pid` returned [`Status::Done`]
    /// in this phase — reads it issued here are discarded by the engine.
    pub finished: Vec<bool>,
}

/// A QSM-family machine: a cost rule plus execution policies.
#[derive(Debug, Clone)]
pub struct QsmMachine {
    g: u64,
    flavor: QsmFlavor,
    seed: u64,
    max_phases: usize,
    mem_limit: usize,
    faults: Option<FaultPlan>,
    cancel: Option<CancelToken>,
    opts: ExecOptions,
}

impl QsmMachine {
    /// A QSM with gap parameter `g`.
    pub fn qsm(g: u64) -> Self {
        Self::with_flavor(g, QsmFlavor::Qsm)
    }

    /// An s-QSM with gap parameter `g`.
    pub fn sqsm(g: u64) -> Self {
        Self::with_flavor(g, QsmFlavor::SQsm)
    }

    /// The QRQW PRAM: a QSM with `g = 1`.
    pub fn qrqw() -> Self {
        Self::with_flavor(1, QsmFlavor::Qsm)
    }

    /// A QSM in which concurrent reads take unit time (Theorem 3.1 variant).
    pub fn qsm_unit_cr(g: u64) -> Self {
        Self::with_flavor(g, QsmFlavor::QsmUnitConcurrentReads)
    }

    /// A QSM(g, d): gap `g` at processors, gap `d` at memory (Claim 2.2).
    pub fn qsm_gd(g: u64, d: u64) -> Self {
        Self::with_flavor(g, QsmFlavor::QsmGd(d.max(1)))
    }

    fn with_flavor(g: u64, flavor: QsmFlavor) -> Self {
        QsmMachine {
            g: g.max(1),
            flavor,
            seed: 0x5eed_cafe,
            max_phases: 1 << 20,
            mem_limit: 1 << 34,
            faults: None,
            cancel: None,
            opts: ExecOptions::default(),
        }
    }

    /// Sets the RNG seed used for arbitrary-write arbitration.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the runaway-protection phase limit.
    pub fn with_max_phases(mut self, max_phases: usize) -> Self {
        self.max_phases = max_phases;
        self
    }

    /// Sets the shared-memory address limit.
    pub fn with_mem_limit(mut self, mem_limit: usize) -> Self {
        self.mem_limit = mem_limit;
        self
    }

    /// Attaches a [`FaultPlan`]: every subsequent run injects the plan's
    /// faults and reports a [`FaultLog`] in [`RunResult::faults`].
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Detaches any fault plan (used to obtain fault-free baselines).
    pub fn without_faults(mut self) -> Self {
        self.faults = None;
        self
    }

    /// Attaches a [`CancelToken`]: every subsequent run checks it at each
    /// phase boundary and stops with [`ModelError::DeadlineExceeded`] once
    /// it trips, before the phase's effects are applied.
    pub fn with_cancel(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// The attached cancellation token, if any.
    pub fn cancel_token(&self) -> Option<&CancelToken> {
        self.cancel.as_ref()
    }

    /// Phase-boundary cancellation checkpoint (no-op without a token).
    fn check_cancel(&self, phase: usize) -> Result<()> {
        match &self.cancel {
            Some(token) => token.check(phase),
            None => Ok(()),
        }
    }

    /// Makes every subsequent [`QsmMachine::run`] record an [`ExecTrace`]
    /// into [`RunResult::trace`] (bounded by the trace phase cap). This
    /// exposes traces for algorithm entry points that call `run` internally
    /// (the analyzer's lint pass relies on it) without changing their
    /// signatures.
    pub fn with_tracing(mut self) -> Self {
        self.opts.record_trace = true;
        self
    }

    /// Replaces the execution options wholesale.
    pub fn with_options(mut self, opts: ExecOptions) -> Self {
        self.opts = opts;
        self
    }

    /// Selects the request-routing strategy (dense fast path by default).
    pub fn with_routing(mut self, routing: Routing) -> Self {
        self.opts.routing = routing;
        self
    }

    /// Routes requests through the original map-based reference path
    /// (shorthand for [`QsmMachine::with_routing`] with
    /// [`Routing::Reference`]); used by the differential suite and the
    /// hot-path benchmarks.
    pub fn with_reference_routing(self) -> Self {
        self.with_routing(Routing::Reference)
    }

    /// Sets the maximum number of phases a recorded trace retains.
    pub fn with_trace_cap(mut self, cap: usize) -> Self {
        self.opts.trace_phase_cap = cap;
        self
    }

    /// Folds the run's cost ledger into running aggregates instead of
    /// retaining per-phase records (see
    /// [`CostLedger::streaming`](crate::cost::CostLedger::streaming)):
    /// aggregate accessors are identical, `phases()` stays empty, and the
    /// ledger footprint is O(1) in phase count. The million-scale sweeps
    /// run with this on.
    pub fn with_streaming_ledger(mut self) -> Self {
        self.opts.streaming_ledger = true;
        self
    }

    /// The execution options currently in force.
    pub fn options(&self) -> ExecOptions {
        self.opts
    }

    /// The RNG seed used for arbitrary-write arbitration.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The shared-memory address limit.
    pub fn mem_limit(&self) -> usize {
        self.mem_limit
    }

    /// The attached fault plan, if any.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.faults.as_ref()
    }

    /// The runaway-protection phase limit.
    pub fn max_phases(&self) -> usize {
        self.max_phases
    }

    /// The gap parameter `g`.
    pub fn g(&self) -> u64 {
        self.g
    }

    /// The cost flavour of this machine.
    pub fn flavor(&self) -> QsmFlavor {
        self.flavor
    }

    /// Phase cost under this machine's rule (Section 2.1).
    pub fn phase_cost(&self, m_op: u64, m_rw: u64, kappa: u64) -> u64 {
        let m_rw = m_rw.max(1);
        let kappa = kappa.max(1);
        match self.flavor {
            QsmFlavor::Qsm | QsmFlavor::QsmUnitConcurrentReads => {
                m_op.max(self.g * m_rw).max(kappa)
            }
            QsmFlavor::SQsm => m_op.max(self.g * m_rw).max(self.g * kappa),
            QsmFlavor::QsmGd(d) => m_op.max(self.g * m_rw).max(d * kappa),
        }
    }

    /// Runs `program` on memory pre-initialized with `input` at address 0.
    pub fn run<P: Program>(&self, program: &P, input: &[Word]) -> Result<RunResult> {
        self.execute(program, input, self.opts.record_trace)
    }

    /// Runs `program` and additionally records a full [`ExecTrace`].
    pub fn run_traced<P: Program>(
        &self,
        program: &P,
        input: &[Word],
    ) -> Result<(RunResult, ExecTrace)> {
        let mut result = self.execute(program, input, true)?;
        let trace = result.trace.take().unwrap_or_default();
        Ok((result, trace))
    }

    fn execute<P: Program>(
        &self,
        program: &P,
        input: &[Word],
        want_trace: bool,
    ) -> Result<RunResult> {
        match self.opts.routing {
            Routing::Dense => self.execute_dense(program, input, want_trace),
            Routing::Reference => self.execute_reference(program, input, want_trace),
        }
    }

    /// The original map-based execution path, kept as the executable
    /// specification the dense fast path is differentially tested against.
    fn execute_reference<P: Program>(
        &self,
        program: &P,
        input: &[Word],
        want_trace: bool,
    ) -> Result<RunResult> {
        let mut trace = want_trace.then(ExecTrace::default);
        let cap = self.opts.trace_phase_cap;
        let n_procs = program.num_procs();
        if n_procs == 0 {
            return Err(ModelError::BadConfig(
                "program declares zero processors".into(),
            ));
        }
        let mut memory = Memory::with_limit(self.mem_limit);
        memory.load(0, input)?;

        let mut rng = ChaCha8Rng::seed_from_u64(self.seed);
        let mut ledger = self.opts.new_ledger();
        let mut injector = self.faults.as_ref().map(FaultInjector::new);
        let phase_limit = injector.as_ref().map_or(self.max_phases, |i| {
            i.effective_phase_limit(self.max_phases)
        });

        let mut states: Vec<P::Proc> = (0..n_procs).map(|pid| program.create(pid)).collect();
        let mut active: Vec<bool> = vec![true; n_procs];
        // Reads issued last phase, valued, awaiting delivery: per-pid.
        let mut pending: Vec<Vec<(Addr, Word)>> = vec![Vec::new(); n_procs];
        // Each processor's own phase counter: advances only when it actually
        // executes, so an injected stall is a pure delay from the program's
        // point of view. Without faults this equals the global phase number.
        let mut local_phase: Vec<usize> = vec![0; n_procs];

        // Reused per-phase scratch.
        let mut read_count: HashMap<Addr, u64> = HashMap::new();
        // Attempted writes per cell, writers in pid order; a BTreeMap so
        // arbitration happens in deterministic sorted-address order (the
        // coordinate system scripted winner policies rely on).
        let mut writes_by_addr: BTreeMap<Addr, Vec<Word>> = BTreeMap::new();

        let mut phase_no = 0usize;
        while active.iter().any(|&a| a) {
            if phase_no >= phase_limit {
                return Err(ModelError::PhaseLimitExceeded { limit: phase_limit });
            }
            self.check_cancel(phase_no)?;
            read_count.clear();
            writes_by_addr.clear();

            let mut m_op: u64 = 0;
            let mut m_rw: u64 = 0;
            let mut any_access = false;
            let mut phase_trace =
                trace
                    .as_ref()
                    .filter(|t| t.phases.len() < cap)
                    .map(|_| PhaseTrace {
                        reads: vec![Vec::new(); n_procs],
                        writes: vec![Vec::new(); n_procs],
                        committed: Vec::new(),
                        finished: vec![false; n_procs],
                    });

            // New read requests (valued at end of phase loop, delivered next
            // phase). Collected as (pid, addr) to avoid per-proc Vec churn.
            let mut new_reads: Vec<(usize, Addr)> = Vec::new();

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
                        // Skip the phase; deliveries stay pending and the
                        // processor resumes at its own next local phase.
                        continue;
                    }
                }
                let delivered = std::mem::take(&mut pending[pid]);
                let mut env = PhaseEnv::new(local_phase[pid], &delivered);
                let status = program.phase(pid, &mut states[pid], &mut env);
                local_phase[pid] += 1;

                let r_i = env.reads.len() as u64;
                let w_i = env.writes.len() as u64;
                // A processor is charged its explicit local ops plus one op
                // per request it issues.
                let c_i = env.ops + r_i + w_i;
                m_op = m_op.max(c_i);
                m_rw = m_rw.max(r_i.max(w_i));
                any_access |= r_i + w_i > 0;

                for &addr in &env.reads {
                    *read_count.entry(addr).or_insert(0) += 1;
                    new_reads.push((pid, addr));
                }
                for &(addr, value) in &env.writes {
                    writes_by_addr.entry(addr).or_default().push(value);
                    if let Some(pt) = phase_trace.as_mut() {
                        pt.writes[pid].push((addr, value));
                    }
                }
                if status == Status::Done {
                    active[pid] = false;
                    if let Some(pt) = phase_trace.as_mut() {
                        pt.finished[pid] = true;
                    }
                }
            }

            // Model rule: a cell may be read or written in a phase, not
            // both. Checked in sorted written-address order so the reported
            // conflict cell is deterministic.
            for (&addr, _) in writes_by_addr.iter() {
                if read_count.contains_key(&addr) {
                    return Err(ModelError::ReadWriteConflict {
                        addr,
                        phase: phase_no,
                    });
                }
            }

            // Value the reads against pre-write memory, then commit writes
            // in sorted-address order, arbitrating each cell's concurrent
            // writers (arbitrary-write rule).
            for &(pid, addr) in &new_reads {
                let v = memory.get(addr);
                if active[pid] {
                    pending[pid].push((addr, v));
                }
                if let Some(pt) = phase_trace.as_mut() {
                    pt.reads[pid].push((addr, v));
                }
            }
            for (&addr, values) in writes_by_addr.iter() {
                let value = match injector.as_mut() {
                    Some(inj) => inj.pick_winner(phase_no, addr, values),
                    None if values.len() == 1 => values[0],
                    None => values[rng.gen_range(0..values.len())],
                };
                memory.set(addr, value)?;
                if let Some(pt) = phase_trace.as_mut() {
                    pt.committed.push((addr, value));
                }
            }

            let write_contention = writes_by_addr
                .values()
                .map(|v| v.len() as u64)
                .max()
                .unwrap_or(1);
            let kappa = if any_access {
                read_count
                    .values()
                    .copied()
                    .max()
                    .unwrap_or(1)
                    .max(write_contention)
            } else {
                1
            };
            let kappa = match self.flavor {
                // Unit-time concurrent reads: only write contention queues.
                QsmFlavor::QsmUnitConcurrentReads => write_contention,
                _ => kappa,
            };

            let cost = self.phase_cost(m_op, m_rw, kappa);
            ledger.push(PhaseCost {
                m_op,
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
                    Some(pt) => t.phases.push(pt),
                    None => t.truncated = true,
                }
            }
            phase_no += 1;
        }

        Ok(RunResult {
            memory,
            ledger,
            faults: injector.map(FaultInjector::into_log),
            trace,
        })
    }

    /// The dense fast path: epoch-stamped address-indexed routing tables and
    /// arena-pooled request buffers. Observationally identical to
    /// [`QsmMachine::execute_reference`] — same ledger, same RNG and
    /// fault-injector consumption order, same committed memory, same errors.
    fn execute_dense<P: Program>(
        &self,
        program: &P,
        input: &[Word],
        want_trace: bool,
    ) -> Result<RunResult> {
        let mut trace = want_trace.then(ExecTrace::default);
        let cap = self.opts.trace_phase_cap;
        let n_procs = program.num_procs();
        if n_procs == 0 {
            return Err(ModelError::BadConfig(
                "program declares zero processors".into(),
            ));
        }
        let mut memory = Memory::with_limit(self.mem_limit);
        memory.load(0, input)?;

        let mut rng = ChaCha8Rng::seed_from_u64(self.seed);
        let mut ledger = self.opts.new_ledger();
        let mut injector = self.faults.as_ref().map(FaultInjector::new);
        let phase_limit = injector.as_ref().map_or(self.max_phases, |i| {
            i.effective_phase_limit(self.max_phases)
        });

        let mut states: Vec<P::Proc> = (0..n_procs).map(|pid| program.create(pid)).collect();
        let mut active: Vec<bool> = vec![true; n_procs];
        let mut pending: Vec<Vec<(Addr, Word)>> = vec![Vec::new(); n_procs];
        let mut local_phase: Vec<usize> = vec![0; n_procs];

        // Per-run scratch, allocated once and reused across phases.
        let mut read_table = ContentionTable::default();
        let mut writes = WriteRouter::default();
        let mut new_reads: Vec<(usize, Addr)> = Vec::new();
        // Arena-recycled PhaseEnv request buffers: steady-state phases
        // allocate nothing.
        let mut read_buf: Vec<Addr> = Vec::new();
        let mut write_buf: Vec<(Addr, Word)> = Vec::new();

        let mut phase_no = 0usize;
        while active.iter().any(|&a| a) {
            if phase_no >= phase_limit {
                return Err(ModelError::PhaseLimitExceeded { limit: phase_limit });
            }
            self.check_cancel(phase_no)?;
            read_table.begin_phase();
            writes.begin_phase();
            new_reads.clear();

            let mut m_op: u64 = 0;
            let mut m_rw: u64 = 0;
            let mut any_access = false;
            let mut phase_trace =
                trace
                    .as_ref()
                    .filter(|t| t.phases.len() < cap)
                    .map(|_| PhaseTrace {
                        reads: vec![Vec::new(); n_procs],
                        writes: vec![Vec::new(); n_procs],
                        committed: Vec::new(),
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
                let mut env = PhaseEnv::with_buffers(
                    local_phase[pid],
                    &delivered,
                    std::mem::take(&mut read_buf),
                    std::mem::take(&mut write_buf),
                );
                let status = program.phase(pid, &mut states[pid], &mut env);
                local_phase[pid] += 1;

                let (r_vec, w_vec, ops) = env.into_requests();
                let r_i = r_vec.len() as u64;
                let w_i = w_vec.len() as u64;
                let c_i = ops + r_i + w_i;
                m_op = m_op.max(c_i);
                m_rw = m_rw.max(r_i.max(w_i));
                any_access |= r_i + w_i > 0;

                for &addr in &r_vec {
                    read_table.incr(addr);
                    new_reads.push((pid, addr));
                }
                for &(addr, value) in &w_vec {
                    writes.push(addr, value);
                    if let Some(pt) = phase_trace.as_mut() {
                        pt.writes[pid].push((addr, value));
                    }
                }
                if status == Status::Done {
                    active[pid] = false;
                    if let Some(pt) = phase_trace.as_mut() {
                        pt.finished[pid] = true;
                    }
                }
                // Recycle every buffer touched this phase.
                read_buf = r_vec;
                read_buf.clear();
                write_buf = w_vec;
                write_buf.clear();
                let mut d = delivered;
                d.clear();
                pending[pid] = d;
            }

            // Counting-sort the writes into sorted-address groups, then
            // apply the same checks/commits as the reference path.
            writes.route();
            for &addr in writes.sorted_addrs() {
                if read_table.contains(addr) {
                    return Err(ModelError::ReadWriteConflict {
                        addr,
                        phase: phase_no,
                    });
                }
            }

            for &(pid, addr) in &new_reads {
                let v = memory.get(addr);
                if active[pid] {
                    pending[pid].push((addr, v));
                }
                if let Some(pt) = phase_trace.as_mut() {
                    pt.reads[pid].push((addr, v));
                }
            }
            for (addr, values) in writes.groups() {
                let value = match injector.as_mut() {
                    Some(inj) => inj.pick_winner(phase_no, addr, values),
                    None if values.len() == 1 => values[0],
                    None => values[rng.gen_range(0..values.len())],
                };
                memory.set(addr, value)?;
                if let Some(pt) = phase_trace.as_mut() {
                    pt.committed.push((addr, value));
                }
            }

            let write_contention = writes.max_contention();
            let kappa = if any_access {
                read_table.max_contention().max(write_contention)
            } else {
                1
            };
            let kappa = match self.flavor {
                QsmFlavor::QsmUnitConcurrentReads => write_contention,
                _ => kappa,
            };

            let cost = self.phase_cost(m_op, m_rw, kappa);
            ledger.push(PhaseCost {
                m_op,
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
                    Some(pt) => t.phases.push(pt),
                    None => t.truncated = true,
                }
            }
            phase_no += 1;
        }

        Ok(RunResult {
            memory,
            ledger,
            faults: injector.map(FaultInjector::into_log),
            trace,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shared::FnProgram;

    /// n writers all write their pid+1 to cell 100; one of them must win.
    #[test]
    fn arbitrary_write_picks_some_writer() {
        let n = 16;
        let prog = FnProgram::new(
            n,
            |_| (),
            |pid, _, env: &mut PhaseEnv<'_>| {
                env.write(100, pid as Word + 1);
                Status::Done
            },
        );
        let m = QsmMachine::qsm(2);
        let res = m.run(&prog, &[]).unwrap();
        let v = res.memory.get(100);
        assert!(
            (1..=n as Word).contains(&v),
            "winner {v} not a writer value"
        );
        // Contention n, one write each: cost = max(1, g*1, n) = n.
        assert_eq!(res.ledger.phases()[0].kappa, n as u64);
        assert_eq!(res.time(), n as u64);
    }

    #[test]
    fn arbitration_is_deterministic_for_a_seed() {
        let n = 64;
        let mk = || {
            FnProgram::new(
                n,
                |_| (),
                |pid, _, env: &mut PhaseEnv<'_>| {
                    env.write(0, pid as Word);
                    Status::Done
                },
            )
        };
        let a = QsmMachine::qsm(1).with_seed(7).run(&mk(), &[]).unwrap();
        let b = QsmMachine::qsm(1).with_seed(7).run(&mk(), &[]).unwrap();
        assert_eq!(a.memory.get(0), b.memory.get(0));
    }

    #[test]
    fn reads_deliver_next_phase_with_pre_write_values() {
        // Phase 0: proc 0 reads cell 0 (holding 5) and proc 1 writes 9 to
        // cell 1. Phase 1: proc 0 reads cell 1 and must see 9; its earlier
        // read of cell 0 must have seen 5.
        let prog = FnProgram::new(
            2,
            |_| Vec::<Word>::new(),
            |pid, seen: &mut Vec<Word>, env: &mut PhaseEnv<'_>| {
                if pid == 1 {
                    if env.phase() == 0 {
                        env.write(1, 9);
                    }
                    return Status::Done;
                }
                match env.phase() {
                    0 => {
                        env.read(0);
                        Status::Active
                    }
                    1 => {
                        seen.push(env.value(0).unwrap());
                        env.read(1);
                        Status::Active
                    }
                    _ => {
                        seen.push(env.value(1).unwrap());
                        env.write(2, seen[0] * 100 + seen[1]);
                        Status::Done
                    }
                }
            },
        );
        let res = QsmMachine::qsm(1).run(&prog, &[5]).unwrap();
        assert_eq!(res.memory.get(2), 509);
    }

    #[test]
    fn read_write_conflict_is_rejected() {
        let prog = FnProgram::new(
            2,
            |_| (),
            |pid, _, env: &mut PhaseEnv<'_>| {
                if pid == 0 {
                    env.read(3);
                } else {
                    env.write(3, 1);
                }
                Status::Done
            },
        );
        let err = QsmMachine::qsm(1).run(&prog, &[]).unwrap_err();
        assert_eq!(err, ModelError::ReadWriteConflict { addr: 3, phase: 0 });
    }

    #[test]
    fn qsm_cost_rule_matches_definition() {
        let m = QsmMachine::qsm(4);
        // max(m_op, g*m_rw, kappa)
        assert_eq!(m.phase_cost(3, 2, 5), 8);
        assert_eq!(m.phase_cost(30, 2, 5), 30);
        assert_eq!(m.phase_cost(3, 2, 50), 50);
        // Floors: m_rw and kappa are at least 1.
        assert_eq!(m.phase_cost(0, 0, 0), 4);
    }

    #[test]
    fn sqsm_cost_rule_charges_gap_at_memory() {
        let m = QsmMachine::sqsm(4);
        // max(m_op, g*m_rw, g*kappa)
        assert_eq!(m.phase_cost(3, 2, 5), 20);
        assert_eq!(m.phase_cost(3, 6, 5), 24);
        assert_eq!(m.phase_cost(100, 2, 5), 100);
    }

    #[test]
    fn qrqw_is_qsm_with_unit_gap() {
        let m = QsmMachine::qrqw();
        assert_eq!(m.g(), 1);
        assert_eq!(m.phase_cost(1, 7, 3), 7);
    }

    #[test]
    fn qsm_gd_interpolates_between_qsm_and_sqsm() {
        let g = 8;
        // d = 1 degenerates to the QSM rule.
        assert_eq!(
            QsmMachine::qsm_gd(g, 1).phase_cost(3, 2, 50),
            QsmMachine::qsm(g).phase_cost(3, 2, 50)
        );
        // d = g degenerates to the s-QSM rule.
        assert_eq!(
            QsmMachine::qsm_gd(g, g).phase_cost(3, 2, 50),
            QsmMachine::sqsm(g).phase_cost(3, 2, 50)
        );
        // Intermediate d: max(m_op, g·m_rw, d·κ).
        let m = QsmMachine::qsm_gd(8, 3);
        assert_eq!(m.phase_cost(1, 2, 50), 150);
        assert_eq!(m.phase_cost(1, 25, 2), 200);
    }

    #[test]
    fn unit_concurrent_reads_do_not_queue() {
        // 8 processors all read cell 0 in one phase.
        let mk = || {
            FnProgram::new(
                8,
                |_| (),
                |_, _, env: &mut PhaseEnv<'_>| {
                    if env.phase() == 0 {
                        env.read(0);
                        Status::Active
                    } else {
                        Status::Done
                    }
                },
            )
        };
        let plain = QsmMachine::qsm(2).run(&mk(), &[1]).unwrap();
        let unit = QsmMachine::qsm_unit_cr(2).run(&mk(), &[1]).unwrap();
        // Plain QSM: kappa = 8 so phase 0 costs max(1, 2, 8) = 8.
        assert_eq!(plain.ledger.phases()[0].cost, 8);
        // Unit-CR QSM: read contention free, cost = max(1, 2, 1) = 2.
        assert_eq!(unit.ledger.phases()[0].cost, 2);
    }

    #[test]
    fn write_contention_still_queues_under_unit_cr() {
        let prog = FnProgram::new(
            8,
            |_| (),
            |_, _, env: &mut PhaseEnv<'_>| {
                env.write(0, 1);
                Status::Done
            },
        );
        let res = QsmMachine::qsm_unit_cr(2).run(&prog, &[]).unwrap();
        assert_eq!(res.ledger.phases()[0].cost, 8);
    }

    #[test]
    fn phase_limit_catches_runaway_programs() {
        let prog = FnProgram::new(1, |_| (), |_, _, _: &mut PhaseEnv<'_>| Status::Active);
        let err = QsmMachine::qsm(1)
            .with_max_phases(10)
            .run(&prog, &[])
            .unwrap_err();
        assert_eq!(err, ModelError::PhaseLimitExceeded { limit: 10 });
    }

    #[test]
    fn trace_records_reads_writes_and_commits() {
        let prog = FnProgram::new(
            2,
            |_| (),
            |pid, _, env: &mut PhaseEnv<'_>| match env.phase() {
                0 => {
                    env.read(pid);
                    Status::Active
                }
                _ => {
                    env.write(10, env.delivered()[0].1);
                    Status::Done
                }
            },
        );
        let (res, trace) = QsmMachine::qsm(1).run_traced(&prog, &[7, 8]).unwrap();
        assert_eq!(trace.phases.len(), 2);
        assert_eq!(trace.phases[0].reads[0], vec![(0, 7)]);
        assert_eq!(trace.phases[0].reads[1], vec![(1, 8)]);
        assert_eq!(trace.phases[1].writes[0], vec![(10, 7)]);
        assert_eq!(trace.phases[1].writes[1], vec![(10, 8)]);
        assert_eq!(trace.phases[1].committed.len(), 1);
        assert_eq!(trace.phases[0].finished, vec![false, false]);
        assert_eq!(trace.phases[1].finished, vec![true, true]);
        let winner = res.memory.get(10);
        assert!(winner == 7 || winner == 8);
    }

    #[test]
    fn with_tracing_populates_run_result_trace() {
        let mk = || {
            FnProgram::new(
                2,
                |_| (),
                |pid, _, env: &mut PhaseEnv<'_>| {
                    env.write(pid, 1);
                    Status::Done
                },
            )
        };
        let plain = QsmMachine::qsm(1).run(&mk(), &[]).unwrap();
        assert!(plain.trace.is_none());
        let traced = QsmMachine::qsm(1).with_tracing().run(&mk(), &[]).unwrap();
        let trace = traced.trace.expect("tracing machine records a trace");
        assert_eq!(trace.phases.len(), 1);
        assert_eq!(trace.phases[0].writes[1], vec![(1, 1)]);
        assert_eq!(trace.phases[0].finished, vec![true, true]);
    }

    #[test]
    fn idle_phase_of_active_processor_charges_minimum() {
        // One processor that does nothing for a phase then stops: each phase
        // costs max(0, g*1, 1) = g.
        let prog = FnProgram::new(
            1,
            |_| (),
            |_, _, env: &mut PhaseEnv<'_>| {
                if env.phase() == 0 {
                    Status::Active
                } else {
                    Status::Done
                }
            },
        );
        let res = QsmMachine::qsm(3).run(&prog, &[]).unwrap();
        assert_eq!(res.time(), 6);
    }

    #[test]
    fn zero_processor_program_is_rejected() {
        let prog = FnProgram::new(0, |_| (), |_, _, _: &mut PhaseEnv<'_>| Status::Done);
        assert!(matches!(
            QsmMachine::qsm(1).run(&prog, &[]),
            Err(ModelError::BadConfig(_))
        ));
    }
}
