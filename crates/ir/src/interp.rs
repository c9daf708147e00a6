//! IR → `Program` interpreters: grounding a [`PhasePlan`] on the real
//! simulators.
//!
//! [`IrProgram`] adapts a shared-memory plan to the `Program` trait run by
//! [`QsmMachine`]; [`IrBspProgram`] adapts a message-passing plan to the
//! `BspProgram` trait run by [`BspMachine`]. Both are thin: a processor's
//! state is just its register file, and each phase looks up the plan entry
//! for `(phase, pid)` and replays its declared update, guard, and
//! requests. [`execute_plan`] picks the right machine from the plan's
//! [`ModelKind`] and returns the measured ledger plus the declared output,
//! which the static analyzer cross-validates against its prediction.

use std::collections::HashMap;

use crate::plan::{apply_update, Guard, InitRule, ModelKind, OutputDecl, PhasePlan, PlanBody};
use parbounds_models::exec::{ContentionTable, WriteRouter};
use parbounds_models::{
    Addr, BspMachine, BspProgram, CancelToken, CostLedger, Memory, ModelError, Msg, PhaseCost,
    PhaseEnv, Program, QsmFlavor, QsmMachine, Result, Status, Superstep, Word, DEFAULT_MEM_LIMIT,
};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Per-phase lookup tables for one plan body.
struct PhaseTable {
    /// `table[t][pid]` = index of the entry for `pid` in phase `t`.
    table: Vec<HashMap<usize, usize>>,
    /// `finish[pid]` = phase in which `pid` halts.
    finish: Vec<usize>,
}

/// A shared-memory [`PhasePlan`] adapted to the simulators' `Program`
/// trait. Construct with [`IrProgram::new`]; the plan is validated first.
pub struct IrProgram<'a> {
    plan: &'a PhasePlan,
    phases: PhaseTable,
}

impl<'a> IrProgram<'a> {
    /// Validates `plan` and builds the interpreter. Fails on structurally
    /// invalid plans and on BSP (message-passing) plans.
    pub fn new(plan: &'a PhasePlan) -> Result<Self> {
        plan.validate()?;
        let PlanBody::Shared(phases) = &plan.body else {
            return Err(ModelError::BadConfig(format!(
                "plan '{}': IrProgram interprets shared-memory plans; use IrBspProgram",
                plan.family
            )));
        };
        let table = phases
            .iter()
            .map(|phase| {
                phase
                    .procs
                    .iter()
                    .enumerate()
                    .map(|(i, entry)| (entry.pid, i))
                    .collect()
            })
            .collect();
        Ok(IrProgram {
            plan,
            phases: PhaseTable {
                table,
                finish: plan.finish_phases()?,
            },
        })
    }
}

impl Program for IrProgram<'_> {
    type Proc = Vec<Word>;

    fn num_procs(&self) -> usize {
        self.plan.procs
    }

    fn create(&self, _pid: usize) -> Self::Proc {
        Vec::new()
    }

    fn phase(&self, pid: usize, regs: &mut Self::Proc, env: &mut PhaseEnv) -> Status {
        let t = env.phase();
        let PlanBody::Shared(phases) = &self.plan.body else {
            unreachable!("IrProgram::new rejects non-shared plans");
        };
        if let Some(phase) = phases.get(t) {
            if let Some(&i) = self.phases.table[t].get(&pid) {
                let entry = &phase.procs[i];
                let delivered: Vec<Word> = env.delivered().iter().map(|&(_, v)| v).collect();
                apply_update(entry.update, regs, &delivered);
                let fire = match entry.guard {
                    Guard::Always => true,
                    Guard::NonZero => regs.first().copied().unwrap_or(0) != 0,
                };
                if fire {
                    if entry.local_ops > 0 {
                        env.local_ops(entry.local_ops);
                    }
                    for &addr in &entry.reads {
                        env.read(addr);
                    }
                    for w in &entry.writes {
                        env.write(w.addr, w.value.eval(regs));
                    }
                }
            }
        }
        if t >= self.phases.finish[pid] {
            Status::Done
        } else {
            Status::Active
        }
    }
}

/// A message-passing [`PhasePlan`] adapted to the `BspProgram` trait.
pub struct IrBspProgram<'a> {
    plan: &'a PhasePlan,
    init: InitRule,
    steps: PhaseTable,
}

impl<'a> IrBspProgram<'a> {
    /// Validates `plan` and builds the interpreter. Fails on structurally
    /// invalid plans and on shared-memory plans.
    pub fn new(plan: &'a PhasePlan) -> Result<Self> {
        plan.validate()?;
        let PlanBody::Msg { init, steps } = &plan.body else {
            return Err(ModelError::BadConfig(format!(
                "plan '{}': IrBspProgram interprets message-passing plans; use IrProgram",
                plan.family
            )));
        };
        let table = steps
            .iter()
            .map(|step| {
                step.comps
                    .iter()
                    .enumerate()
                    .map(|(i, entry)| (entry.pid, i))
                    .collect()
            })
            .collect();
        Ok(IrBspProgram {
            plan,
            init: *init,
            steps: PhaseTable {
                table,
                finish: plan.finish_phases()?,
            },
        })
    }
}

impl BspProgram for IrBspProgram<'_> {
    type Proc = Vec<Word>;

    fn create(&self, _pid: usize, local_input: &[Word]) -> Self::Proc {
        vec![match self.init {
            InitRule::Const(v) => v,
            InitRule::FoldLocal(op) => op.fold(local_input),
        }]
    }

    fn superstep(&self, pid: usize, regs: &mut Self::Proc, ctx: &mut Superstep) -> Status {
        let t = ctx.step();
        let PlanBody::Msg { steps, .. } = &self.plan.body else {
            unreachable!("IrBspProgram::new rejects non-message plans");
        };
        if let Some(step) = steps.get(t) {
            if let Some(&i) = self.steps.table[t].get(&pid) {
                let entry = &step.comps[i];
                let inbox: Vec<Word> = ctx.inbox().iter().map(|m| m.value).collect();
                apply_update(entry.update, regs, &inbox);
                if entry.local_ops > 0 {
                    ctx.local_ops(entry.local_ops);
                }
                for send in &entry.sends {
                    ctx.send(send.dest, send.tag, send.value.eval(regs));
                }
            }
        }
        if t >= self.steps.finish[pid] {
            Status::Done
        } else {
            Status::Active
        }
    }
}

/// The measured outcome of grounding a plan on its simulator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanRun {
    /// Per-phase cost records from the real machine.
    pub ledger: CostLedger,
    /// The declared output: the shared-memory region, or register 0 of
    /// every BSP component in pid order.
    pub output: Vec<Word>,
}

/// Builds the shared-memory machine a plan's [`ModelKind`] names.
pub(crate) fn shared_machine(plan: &PhasePlan) -> Option<QsmMachine> {
    match plan.model {
        ModelKind::Qsm { g } => Some(QsmMachine::qsm(g)),
        ModelKind::SQsm { g } => Some(QsmMachine::sqsm(g)),
        ModelKind::QsmUnitCr { g } => Some(QsmMachine::qsm_unit_cr(g)),
        _ => None,
    }
}

/// Runs `plan` on the simulator its [`ModelKind`] names and collects the
/// measured ledger plus the declared output.
///
/// Shared-memory plans go through the batch interpreter
/// ([`run_shared_batch`]) and BSP plans through its message-passing
/// counterpart ([`run_msg_batch`]); both exploit the static schedule to
/// skip the per-processor closure dispatch of the generic program paths
/// while producing a bit-identical ledger and output. Use
/// [`execute_plan_reference`] for the original closure-dispatch grounding.
///
/// GSM plans are analyze-only (the GSM is this repo's lower-bound model;
/// its programs are written against a different trait) and are rejected
/// with `BadConfig`.
pub fn execute_plan(plan: &PhasePlan, input: &[Word]) -> Result<PlanRun> {
    execute_plan_cancellable(plan, input, &CancelToken::new())
}

/// [`execute_plan`] with a cooperative [`CancelToken`] attached to the
/// machine it builds: the run is checked at every phase/superstep boundary
/// and stops with [`ModelError::DeadlineExceeded`] once the token trips.
/// This is the entry point serving layers use to bound measured runs by a
/// per-request deadline.
///
/// [`ModelError::DeadlineExceeded`]: parbounds_models::ModelError::DeadlineExceeded
pub fn execute_plan_cancellable(
    plan: &PhasePlan,
    input: &[Word],
    cancel: &CancelToken,
) -> Result<PlanRun> {
    match plan.model {
        ModelKind::Qsm { .. } | ModelKind::SQsm { .. } | ModelKind::QsmUnitCr { .. } => {
            let machine = shared_machine(plan)
                .expect("matched shared flavors")
                .with_cancel(cancel.clone());
            run_shared_batch(plan, &machine, input)
        }
        ModelKind::Bsp { p, g, l } => {
            let machine = BspMachine::new(p, g, l)?.with_cancel(cancel.clone());
            run_msg_batch(plan, &machine, input)
        }
        ModelKind::Gsm { .. } => execute_plan_reference(plan, input),
    }
}

/// Runs `plan` through the generic closure-dispatch interpreters
/// ([`IrProgram`] / [`IrBspProgram`]) on the real machines' map-based
/// reference engines (`with_reference_routing()`) — i.e. the full
/// pre-fast-path stack. This is the executable specification
/// [`execute_plan`]'s batch path is differentially tested against; both
/// return identical [`PlanRun`]s.
pub fn execute_plan_reference(plan: &PhasePlan, input: &[Word]) -> Result<PlanRun> {
    match plan.model {
        ModelKind::Qsm { .. } | ModelKind::SQsm { .. } | ModelKind::QsmUnitCr { .. } => {
            let machine = shared_machine(plan)
                .expect("matched shared flavors")
                .with_reference_routing();
            let program = IrProgram::new(plan)?;
            let result = machine.run(&program, input)?;
            let OutputDecl::Region { base, len } = plan.output else {
                unreachable!("validate() ties shared plans to Region outputs");
            };
            Ok(PlanRun {
                ledger: result.ledger,
                output: result.memory.slice(base, len),
            })
        }
        ModelKind::Bsp { p, g, l } => {
            let machine = BspMachine::new(p, g, l)?.with_reference_routing();
            let program = IrBspProgram::new(plan)?;
            let result = machine.run(&program, input)?;
            Ok(PlanRun {
                ledger: result.ledger,
                output: result
                    .states
                    .iter()
                    .map(|regs| regs.first().copied().unwrap_or(0))
                    .collect(),
            })
        }
        ModelKind::Gsm { .. } => Err(ModelError::BadConfig(format!(
            "plan '{}': GSM plans are analyze-only (no IR interpreter)",
            plan.family
        ))),
    }
}

/// Batch interpreter for shared-memory plans: executes the phase loop
/// directly over the plan's entry lists — pre-sorted by pid once, no
/// per-processor closure dispatch, no per-phase allocation — using the same
/// dense routing tables as the engine fast path.
///
/// Observationally identical to `machine.run(&IrProgram::new(plan)?, input)`:
/// same [`CostLedger`], same RNG consumption order for arbitrary-write
/// arbitration (sorted-address, multi-writer cells only), same errors. The
/// differential suite in `tests/batch_equiv.rs` enforces this against
/// [`execute_plan_reference`].
///
/// Instrumented machines (fault plans, trace recording; see
/// [`ExecOptions::instrumented`](parbounds_models::ExecOptions::instrumented))
/// transparently fall back to the closure-dispatch path, which runs them on
/// the reference engine, so the guarantee holds for every machine.
pub fn run_shared_batch(plan: &PhasePlan, machine: &QsmMachine, input: &[Word]) -> Result<PlanRun> {
    plan.validate()?;
    let PlanBody::Shared(phases) = &plan.body else {
        return Err(ModelError::BadConfig(format!(
            "plan '{}': run_shared_batch interprets shared-memory plans",
            plan.family
        )));
    };
    let OutputDecl::Region { base, len } = plan.output else {
        unreachable!("validate() ties shared plans to Region outputs");
    };
    if machine.options().instrumented() {
        let program = IrProgram::new(plan)?;
        let result = machine.run(&program, input)?;
        return Ok(PlanRun {
            ledger: result.ledger,
            output: result.memory.slice(base, len),
        });
    }

    let finish = plan.finish_phases()?;
    // validate() guarantees some processor retires in the final phase and
    // none issues afterwards, so the machine would execute exactly
    // `phases.len()` phases — the limit check can happen up front.
    let limit = machine.max_phases();
    if phases.len() > limit {
        return Err(ModelError::PhaseLimitExceeded { limit });
    }

    let mut memory = Memory::with_limit(DEFAULT_MEM_LIMIT);
    memory.load(0, input)?;
    let mut rng = ChaCha8Rng::seed_from_u64(machine.seed());
    let mut ledger = machine.options().new_ledger();

    // Entry indices per phase, sorted by pid: the generic path visits
    // processors in pid order, and pid order is what fixes both delivery
    // order within a write bucket and the RNG stream.
    let order: Vec<Vec<usize>> = phases
        .iter()
        .map(|phase| {
            let mut idx: Vec<usize> = (0..phase.procs.len()).collect();
            idx.sort_unstable_by_key(|&i| phase.procs[i].pid);
            idx
        })
        .collect();

    let mut regs: Vec<Vec<Word>> = vec![Vec::new(); plan.procs];
    // Values delivered to each pid by the previous phase's reads, plus the
    // list of pids holding any — the machine discards deliveries to
    // processors that skip a phase, so stale buffers are cleared wholesale.
    let mut pending: Vec<Vec<Word>> = vec![Vec::new(); plan.procs];
    let mut delivered_to: Vec<usize> = Vec::new();

    let mut read_table = ContentionTable::default();
    let mut writes = WriteRouter::default();
    let mut new_reads: Vec<(usize, Addr)> = Vec::new();

    for (t, phase) in phases.iter().enumerate() {
        machine.options().check_cancel(t)?;
        read_table.begin_phase();
        writes.begin_phase();
        new_reads.clear();
        let mut m_op: u64 = 0;
        let mut m_rw: u64 = 0;
        let mut any_access = false;

        for &i in &order[t] {
            let entry = &phase.procs[i];
            let pid = entry.pid;
            apply_update(entry.update, &mut regs[pid], &pending[pid]);
            let fire = match entry.guard {
                Guard::Always => true,
                Guard::NonZero => regs[pid].first().copied().unwrap_or(0) != 0,
            };
            if !fire {
                continue;
            }
            let r_i = entry.reads.len() as u64;
            let w_i = entry.writes.len() as u64;
            m_op = m_op.max(entry.local_ops + r_i + w_i);
            m_rw = m_rw.max(r_i.max(w_i));
            any_access |= r_i + w_i > 0;
            for &addr in &entry.reads {
                read_table.incr(addr);
                new_reads.push((pid, addr));
            }
            for w in &entry.writes {
                writes.push(w.addr, w.value.eval(&regs[pid]));
            }
        }

        // Deliveries are consumed exactly once: processors without an entry
        // this phase (or past their finish) have theirs discarded, like the
        // machine's take-and-drop.
        for pid in delivered_to.drain(..) {
            pending[pid].clear();
        }

        // Model rule: a cell may be read or written in a phase, not both.
        // Sorted written-address order keeps the reported cell identical to
        // the machine's.
        writes.route();
        for &addr in writes.sorted_addrs() {
            if read_table.contains(addr) {
                return Err(ModelError::ReadWriteConflict { addr, phase: t });
            }
        }

        // Value reads against pre-write memory; deliveries reach only
        // processors still active after this phase.
        for &(pid, addr) in &new_reads {
            let v = memory.get(addr);
            if finish[pid] > t {
                pending[pid].push(v);
                delivered_to.push(pid);
            }
        }
        // Commit in sorted-address order, arbitrating each cell's
        // concurrent writers; the RNG advances only on multi-writer cells.
        for (addr, values) in writes.groups() {
            let value = if values.len() == 1 {
                values[0]
            } else {
                values[rng.gen_range(0..values.len())]
            };
            memory.set(addr, value)?;
        }

        let write_contention = writes.max_contention();
        let kappa = if any_access {
            read_table.max_contention().max(write_contention)
        } else {
            1
        };
        let kappa = match machine.flavor() {
            // Unit-time concurrent reads: only write contention queues.
            QsmFlavor::QsmUnitConcurrentReads => write_contention,
            _ => kappa,
        };
        let cost = machine.phase_cost(m_op, m_rw, kappa);
        ledger.push(PhaseCost {
            m_op,
            m_rw: m_rw.max(1),
            kappa,
            cost,
        });
    }

    Ok(PlanRun {
        ledger,
        output: memory.slice(base, len),
    })
}

/// Batch interpreter for message-passing (BSP) plans: executes the
/// superstep loop directly over the plan's component lists — pre-sorted by
/// pid once, no per-component closure dispatch — with double-buffered
/// inboxes.
///
/// Observationally identical to `machine.run(&IrBspProgram::new(plan)?,
/// input)`: same [`CostLedger`] (every active component contributes its
/// inbox size to `w` whether or not it has an entry), same `(src, tag)`
/// inbox ordering, same errors. The differential suite in
/// `tests/batch_equiv.rs` enforces this against [`execute_plan_reference`].
///
/// Instrumented machines (fault plans, trace recording) transparently fall
/// back to the closure-dispatch path, which runs them on the reference
/// engine.
pub fn run_msg_batch(plan: &PhasePlan, machine: &BspMachine, input: &[Word]) -> Result<PlanRun> {
    plan.validate()?;
    let PlanBody::Msg { init, steps } = &plan.body else {
        return Err(ModelError::BadConfig(format!(
            "plan '{}': run_msg_batch interprets message-passing plans",
            plan.family
        )));
    };
    if machine.options().instrumented() {
        let program = IrBspProgram::new(plan)?;
        let result = machine.run(&program, input)?;
        return Ok(PlanRun {
            ledger: result.ledger,
            output: result
                .states
                .iter()
                .map(|regs| regs.first().copied().unwrap_or(0))
                .collect(),
        });
    }

    let finish = plan.finish_phases()?;
    // validate() pins the machine width to the plan's component count and
    // guarantees some component retires in the final superstep, so the
    // machine would execute exactly `steps.len()` supersteps.
    let p = machine.p();
    let limit = machine.max_phases();
    if steps.len() > limit {
        return Err(ModelError::PhaseLimitExceeded { limit });
    }

    let mut regs: Vec<Vec<Word>> = machine
        .partition(input)
        .iter()
        .map(|local| {
            vec![match init {
                InitRule::Const(v) => *v,
                InitRule::FoldLocal(op) => op.fold(local),
            }]
        })
        .collect();

    // Entry indices per superstep, sorted by pid, so the component loop can
    // walk plan entries with a cursor instead of a hash lookup.
    let order: Vec<Vec<usize>> = steps
        .iter()
        .map(|step| {
            let mut idx: Vec<usize> = (0..step.comps.len()).collect();
            idx.sort_unstable_by_key(|&i| step.comps[i].pid);
            idx
        })
        .collect();

    let mut ledger = machine.options().new_ledger();
    let mut inboxes: Vec<Vec<Msg>> = vec![Vec::new(); p];
    let mut next_inboxes: Vec<Vec<Msg>> = vec![Vec::new(); p];
    let mut received: Vec<u64> = vec![0; p];
    let mut inbox_vals: Vec<Word> = Vec::new();

    for (t, step) in steps.iter().enumerate() {
        machine.options().check_cancel(t)?;
        for ib in next_inboxes.iter_mut() {
            ib.clear();
        }
        received.fill(0);
        let mut w: u64 = 0;
        let mut max_sent: u64 = 0;
        let mut cursor = 0usize;

        for pid in 0..p {
            // A component is active through its finish superstep and
            // skipped afterwards, like the machine's `active` flags.
            if t > finish[pid] {
                continue;
            }
            let recv = inboxes[pid].len() as u64;
            let mut ops: u64 = 0;
            let mut sent: u64 = 0;
            while cursor < order[t].len() && step.comps[order[t][cursor]].pid < pid {
                cursor += 1;
            }
            if cursor < order[t].len() && step.comps[order[t][cursor]].pid == pid {
                let entry = &step.comps[order[t][cursor]];
                inbox_vals.clear();
                inbox_vals.extend(inboxes[pid].iter().map(|m| m.value));
                apply_update(entry.update, &mut regs[pid], &inbox_vals);
                ops = entry.local_ops;
                sent = entry.sends.len() as u64;
                for send in &entry.sends {
                    // validate() already rejected out-of-range destinations.
                    let msg = Msg {
                        src: pid,
                        tag: send.tag,
                        value: send.value.eval(&regs[pid]),
                    };
                    received[send.dest] += 1;
                    next_inboxes[send.dest].push(msg);
                }
            }
            w = w.max(ops + sent + recv);
            max_sent = max_sent.max(sent);
        }

        for ib in next_inboxes.iter_mut() {
            ib.sort_unstable_by_key(|m| (m.src, m.tag));
        }
        let h = max_sent.max(received.iter().copied().max().unwrap_or(0));
        let cost = machine.superstep_cost(w, h);
        ledger.push(PhaseCost {
            m_op: w,
            m_rw: h.max(1),
            kappa: 1,
            cost,
        });
        std::mem::swap(&mut inboxes, &mut next_inboxes);
    }

    Ok(PlanRun {
        ledger,
        output: regs
            .iter()
            .map(|r| r.first().copied().unwrap_or(0))
            .collect(),
    })
}
