//! Plan compilation: lowering an analyzed [`PhasePlan`] into a flat,
//! straight-line execution schedule.
//!
//! The batch interpreter ([`crate::interp::run_shared_batch`]) still walks
//! plan nodes generically every phase: it re-derives request tables,
//! re-counts contention, and re-arbitrates writes that static analysis
//! already proved race-free at plan time. [`compile_plan`] does that work
//! *once*, producing a [`CompiledPlan`] — per-phase dense tables of
//! pre-resolved source/target addresses with contention counts and ledger
//! rows baked in — and [`run_compiled_batch`] replays it as memcpy-shaped
//! gather/scatter/fold loops over contiguous slices: no per-processor
//! dispatch, no hash routing, no runtime arbitration, no conflict checks.
//!
//! Eligibility is decided conservatively under the saturating-schedule
//! convention (every guard fires):
//!
//! * shared-memory plans: no phase may read and write the same cell, and
//!   every cell with more than one saturating writer must receive one
//!   common constant (the analyzer's common-write certificate) — then the
//!   conflict check and the arbitration RNG are provably unobservable;
//! * BSP plans: no superstep may carry two messages with the same
//!   `(source, tag)` key to one destination — then the `(src, tag)` inbox
//!   sort has a unique answer and slots can be assigned at compile time;
//! * GSM plans are analyze-only and never compile.
//!
//! Ineligible plans are *reported*, not rejected: [`compile_plan`] returns
//! [`CompileOutcome::Ineligible`] naming the exact node and reason (the
//! `compile-ineligible` analyzer lint surfaces it), and the convenience
//! entry points fall back to the checked interpreter. Configurations the
//! compiled loop does not replicate at run time — fault plans, trace
//! recording, memory-limit edge cases — also fall back, so the observable
//! behaviour (outputs, ledgers, errors, arbitration) is bit-identical to
//! [`crate::interp::execute_plan`] in every configuration; the
//! differential suite in `tests/compiled_equiv.rs` enforces this.

use crate::census::PhaseCensus;
use crate::interp::{
    execute_plan_cancellable, run_msg_batch, run_shared_batch, shared_machine, PlanRun,
};
use crate::plan::{
    apply_update, Guard, InitRule, ModelKind, OutputDecl, PhasePlan, PlanBody, SharedPhase, Update,
    ValueRule,
};
use parbounds_models::{
    Addr, BspMachine, CancelToken, Memory, ModelError, PhaseCost, QsmFlavor, QsmMachine, Result,
    Word, DEFAULT_MEM_LIMIT,
};

/// The result of [`compile_plan`]: either a compiled schedule or a precise
/// explanation of why the plan must stay on the checked interpreter.
#[derive(Debug, Clone)]
pub enum CompileOutcome {
    /// The plan lowered to a straight-line schedule.
    Compiled(CompiledPlan),
    /// The plan cannot take the compiled fast path; the payload names the
    /// first offending node.
    Ineligible(Ineligibility),
}

/// Why a plan cannot take the compiled fast path, pinned to the first
/// offending node. Feeds the `compile-ineligible` analyzer lint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ineligibility {
    /// Phase / superstep index of the offending node, if any.
    pub phase: Option<usize>,
    /// Processor id of the offending node, if any.
    pub pid: Option<usize>,
    /// Shared-memory cell of the offending node, if any.
    pub addr: Option<Addr>,
    /// Human-readable description of the node itself.
    pub node: String,
    /// Why that node blocks compilation.
    pub reason: String,
}

impl Ineligibility {
    /// One-line `node: reason` rendering for lint messages and CLI output.
    pub fn describe(&self) -> String {
        format!("{}: {}", self.node, self.reason)
    }
}

/// Value source of one compiled store slot.
#[derive(Debug, Clone, Copy)]
enum StoreSrc {
    /// Known at compile time (constant rules, and every certified
    /// common-write cell).
    Const(Word),
    /// Evaluated against the named processor's registers at run time.
    Proc(usize, ValueRule),
}

/// One pre-resolved write: destination cell and value source.
#[derive(Debug, Clone, Copy)]
struct StoreSlot {
    addr: Addr,
    src: StoreSrc,
}

/// One pre-resolved delivered read: the receiving pid and the source cell.
/// Reads whose receiver retires this phase are compiled out (their
/// contention is already in the baked ledger row).
#[derive(Debug, Clone, Copy)]
struct GatherSlot {
    pid: usize,
    addr: Addr,
}

/// The pre-counted ledger row of a fully static phase: `m_rw` is kept raw
/// (the cost formula sees the unfloored value; the ledger floors at 1) and
/// both contention flavors are precomputed so the executor just selects by
/// machine flavor.
#[derive(Debug, Clone, Copy)]
struct StaticCost {
    m_op: u64,
    m_rw: u64,
    kappa_std: u64,
    kappa_unit: u64,
}

/// A phase in which every guard is [`Guard::Always`]: the request set, the
/// contention counts, and the entire ledger row are compile-time facts.
#[derive(Debug, Clone)]
struct StaticPhase {
    /// `(pid, update)` in pid order, [`Update::Keep`] entries elided.
    updates: Vec<(usize, Update)>,
    /// Delivered reads in pid order (entry read order preserved per pid).
    gathers: Vec<GatherSlot>,
    /// Commits in ascending address order, one slot per cell.
    stores: Vec<StoreSlot>,
    cost: StaticCost,
}

/// One compiled read of a guarded entry: `slot` indexes the phase's dense
/// read-contention counters, `deliver` is the compile-time liveness fact
/// `finish[pid] > t`.
#[derive(Debug, Clone, Copy)]
struct GuardedRead {
    slot: usize,
    addr: Addr,
    deliver: bool,
}

/// One entry of a guarded phase, pre-resolved: reads carry dense counter
/// slots, writes carry dense write-slot ids.
#[derive(Debug, Clone)]
struct GuardedEntry {
    pid: usize,
    update: Update,
    guard: Guard,
    local_ops: u64,
    reads: Vec<GuardedRead>,
    writes: Vec<(usize, ValueRule)>,
}

/// A phase with data-dependent guards (the OR write tree): the request
/// set is decided at run time, but addresses, counter slots, and delivery
/// targets are still pre-resolved, and eligibility already proved the
/// phase free of conflicts and of observable arbitration.
#[derive(Debug, Clone)]
struct GuardedPhase {
    /// All entries in pid order.
    entries: Vec<GuardedEntry>,
    /// Number of distinct saturating read cells (dense counter width).
    read_slots: usize,
    /// Distinct saturating write cells in ascending address order.
    write_slots: Vec<Addr>,
}

#[derive(Debug, Clone)]
enum CompiledPhase {
    Static(StaticPhase),
    Guarded(GuardedPhase),
}

/// A compiled shared-memory plan: the flat phase schedule plus the memory
/// extent.
#[derive(Debug, Clone)]
struct CompiledShared {
    procs: usize,
    base: Addr,
    len: usize,
    /// Arena size hint: one word per cell any request or the output can
    /// touch. The executor allocates exactly this, once.
    planned_cells: usize,
    /// Largest cell any (saturating) write targets; runs whose machine
    /// memory limit is at or below it fall back to the checked
    /// interpreter, which owns the limit-error behaviour.
    max_write_addr: Option<Addr>,
    phases: Vec<CompiledPhase>,
}

/// One compiled BSP component step: the register update plus sends with
/// compile-time arena slots (the `(src, tag)` inbox sort is baked into the
/// slot assignment).
#[derive(Debug, Clone)]
struct CompiledComp {
    pid: usize,
    update: Update,
    sends: Vec<(usize, ValueRule)>,
}

/// One compiled superstep: components in pid order, each pid's slice of
/// the current inbox arena, the next arena's size, and the pre-counted
/// `(w, h)` ledger row.
#[derive(Debug, Clone)]
struct CompiledStep {
    comps: Vec<CompiledComp>,
    inbox_ranges: Vec<(usize, usize)>,
    next_len: usize,
    w: u64,
    h: u64,
}

/// A compiled message-passing plan.
#[derive(Debug, Clone)]
struct CompiledMsg {
    procs: usize,
    init: InitRule,
    steps: Vec<CompiledStep>,
    /// Arena size hint: the largest inbox arena any superstep needs.
    max_arena: usize,
}

#[derive(Debug, Clone)]
enum CompiledKind {
    Shared(CompiledShared),
    Msg(CompiledMsg),
}

/// A plan lowered to a straight-line schedule by [`compile_plan`]: dense
/// per-phase request tables with contention counts and arena size hints
/// baked in. Run it with [`run_compiled_batch`] /
/// [`run_compiled_msg_batch`], or [`execute_compiled_cancellable`] to
/// dispatch on the plan's model. A `CompiledPlan` is only meaningful
/// against the exact plan it was compiled from.
#[derive(Debug, Clone)]
pub struct CompiledPlan {
    kind: CompiledKind,
}

impl CompiledPlan {
    /// True for shared-memory schedules, false for BSP.
    pub fn is_shared(&self) -> bool {
        matches!(self.kind, CompiledKind::Shared(_))
    }

    /// Number of phases (shared) or supersteps (BSP).
    pub fn num_phases(&self) -> usize {
        match &self.kind {
            CompiledKind::Shared(cs) => cs.phases.len(),
            CompiledKind::Msg(cm) => cm.steps.len(),
        }
    }

    /// Arena size hint: cells the shared executor allocates, or the
    /// largest inbox arena a BSP superstep needs.
    pub fn arena_cells(&self) -> usize {
        match &self.kind {
            CompiledKind::Shared(cs) => cs.planned_cells,
            CompiledKind::Msg(cm) => cm.max_arena,
        }
    }
}

/// Compiles `plan` into a straight-line schedule, or explains why it must
/// stay on the checked interpreter. `Err` is reserved for invalid plans
/// (the same validation failures every run path reports); a *valid* plan
/// always yields `Ok` with one of the two outcomes.
pub fn compile_plan(plan: &PhasePlan) -> Result<CompileOutcome> {
    plan.validate()?;
    match &plan.body {
        PlanBody::Shared(_) => compile_shared(plan),
        PlanBody::Msg { .. } => compile_msg(plan),
    }
}

/// Shared-memory eligibility for one counted phase: no read/write overlap,
/// and every multi-writer cell a certified common write. Returns the first
/// offending node in address order.
fn check_shared_phase(t: usize, label: &str, census: &PhaseCensus) -> Option<Ineligibility> {
    let first_overlap = census.read_write_overlap().next().map(|(addr, ..)| addr);
    for (addr, group) in census.write_groups() {
        if first_overlap == Some(addr) {
            return Some(Ineligibility {
                phase: Some(t),
                pid: None,
                addr: Some(addr),
                node: format!("phase {t} '{label}', cell {addr}"),
                reason: "cell is read and written in the same phase; the compiled path \
                         elides the conflict check"
                    .into(),
            });
        }
        if group.len() > 1 {
            let mut common: Option<Word> = None;
            for &(pid, rule) in group {
                let ValueRule::Const(v) = rule else {
                    return Some(Ineligibility {
                        phase: Some(t),
                        pid: Some(pid),
                        addr: Some(addr),
                        node: format!("phase {t} '{label}', cell {addr} (pid {pid})"),
                        reason: format!(
                            "{} concurrent writers with a non-constant value rule need \
                             runtime arbitration",
                            group.len()
                        ),
                    });
                };
                match common {
                    None => common = Some(v),
                    Some(c) if c == v => {}
                    Some(c) => {
                        return Some(Ineligibility {
                            phase: Some(t),
                            pid: Some(pid),
                            addr: Some(addr),
                            node: format!("phase {t} '{label}', cell {addr} (pid {pid})"),
                            reason: format!(
                                "{} concurrent writers race with differing constants \
                                 ({c} vs {v}); arbitration is observable",
                                group.len()
                            ),
                        });
                    }
                }
            }
        }
    }
    None
}

fn compile_shared(plan: &PhasePlan) -> Result<CompileOutcome> {
    let PlanBody::Shared(phases) = &plan.body else {
        unreachable!("compile_shared dispatches shared bodies only");
    };
    if !matches!(
        plan.model,
        ModelKind::Qsm { .. } | ModelKind::SQsm { .. } | ModelKind::QsmUnitCr { .. }
    ) {
        return Ok(CompileOutcome::Ineligible(Ineligibility {
            phase: None,
            pid: None,
            addr: None,
            node: format!("plan '{}' (model {})", plan.family, plan.model.name()),
            reason: "GSM plans are analyze-only; there is no compiled executor".into(),
        }));
    }
    let OutputDecl::Region { base, len } = plan.output else {
        unreachable!("validate() ties shared plans to Region outputs");
    };
    let finish = plan.finish_phases()?;

    // One pass per phase: census, eligibility, memory extent, lowering.
    let mut census = PhaseCensus::default();
    let mut max_addr: Option<Addr> = None;
    let mut max_write_addr: Option<Addr> = None;
    let mut compiled = Vec::with_capacity(phases.len());
    for (t, phase) in phases.iter().enumerate() {
        census.count(phase);
        if let Some(ineligible) = check_shared_phase(t, &phase.label, &census) {
            return Ok(CompileOutcome::Ineligible(ineligible));
        }
        if let Some(&(a, _)) = census.reads().last() {
            max_addr = Some(max_addr.map_or(a, |m| m.max(a)));
        }
        if let Some(&a) = census.write_cells().last() {
            max_addr = Some(max_addr.map_or(a, |m| m.max(a)));
            max_write_addr = Some(max_write_addr.map_or(a, |m| m.max(a)));
        }
        let mut order: Vec<usize> = (0..phase.procs.len()).collect();
        order.sort_unstable_by_key(|&i| phase.procs[i].pid);
        let is_static = phase.procs.iter().all(|e| matches!(e.guard, Guard::Always));
        compiled.push(if is_static {
            CompiledPhase::Static(lower_static_phase(phase, &order, &census, &finish, t))
        } else {
            CompiledPhase::Guarded(lower_guarded_phase(phase, &order, &census, &finish, t))
        });
    }
    // Saturating: a cell at `usize::MAX` must size a paged arena, not wrap
    // to an empty flat one.
    let planned_cells = max_addr
        .map_or(0, |a| a.saturating_add(1))
        .max(base + len)
        .max(1);

    Ok(CompileOutcome::Compiled(CompiledPlan {
        kind: CompiledKind::Shared(CompiledShared {
            procs: plan.procs,
            base,
            len,
            planned_cells,
            max_write_addr,
            phases: compiled,
        }),
    }))
}

fn lower_static_phase(
    phase: &SharedPhase,
    order: &[usize],
    census: &PhaseCensus,
    finish: &[usize],
    t: usize,
) -> StaticPhase {
    let mut updates = Vec::new();
    let mut gathers = Vec::new();
    for &i in order {
        let entry = &phase.procs[i];
        if !matches!(entry.update, Update::Keep) {
            updates.push((entry.pid, entry.update));
        }
        // Reads whose receiver retires this phase cost contention (already
        // in the census) but deliver nothing: compiled out.
        if finish[entry.pid] > t {
            for &addr in &entry.reads {
                gathers.push(GatherSlot {
                    pid: entry.pid,
                    addr,
                });
            }
        }
    }
    let stores = census
        .write_groups()
        .map(|(addr, group)| {
            let src = if group.len() > 1 {
                // Eligibility proved all writers share one constant.
                let ValueRule::Const(v) = group[0].1 else {
                    unreachable!("eligibility pinned multi-writer cells to constants");
                };
                StoreSrc::Const(v)
            } else {
                let (pid, rule) = group[0];
                if rule.is_const() {
                    StoreSrc::Const(rule.eval(&[]))
                } else {
                    StoreSrc::Proc(pid, rule)
                }
            };
            StoreSlot { addr, src }
        })
        .collect();
    StaticPhase {
        updates,
        gathers,
        stores,
        cost: StaticCost {
            m_op: census.m_op(),
            m_rw: census.m_rw(),
            kappa_std: census.kappa(false),
            kappa_unit: census.kappa(true),
        },
    }
}

fn lower_guarded_phase(
    phase: &SharedPhase,
    order: &[usize],
    census: &PhaseCensus,
    finish: &[usize],
    t: usize,
) -> GuardedPhase {
    let entries = order
        .iter()
        .map(|&i| {
            let entry = &phase.procs[i];
            GuardedEntry {
                pid: entry.pid,
                update: entry.update,
                guard: entry.guard,
                local_ops: entry.local_ops,
                reads: entry
                    .reads
                    .iter()
                    .map(|&addr| GuardedRead {
                        slot: census
                            .read_slot(addr)
                            .expect("the census counts every read"),
                        addr,
                        deliver: finish[entry.pid] > t,
                    })
                    .collect(),
                writes: entry
                    .writes
                    .iter()
                    .map(|w| {
                        let slot = census.write_slot(w.addr);
                        (slot.expect("the census counts every write"), w.value)
                    })
                    .collect(),
            }
        })
        .collect();
    GuardedPhase {
        entries,
        read_slots: census.reads().len(),
        write_slots: census.write_cells().to_vec(),
    }
}

fn compile_msg(plan: &PhasePlan) -> Result<CompileOutcome> {
    let PlanBody::Msg { init, steps } = &plan.body else {
        unreachable!("compile_msg dispatches message bodies only");
    };
    let p = plan.procs;
    let finish = plan.finish_phases()?;
    let mut compiled_steps = Vec::with_capacity(steps.len());
    let mut max_arena = 0usize;
    // Inbox layout of the *current* superstep, produced by the previous
    // one: per-pid arena ranges and sizes.
    let mut cur_ranges: Vec<(usize, usize)> = vec![(0, 0); p];
    for (t, step) in steps.iter().enumerate() {
        let mut order: Vec<usize> = (0..step.comps.len()).collect();
        order.sort_unstable_by_key(|&i| step.comps[i].pid);

        // Flatten this step's sends and assign arena slots for the next
        // inbox: dest-major, then the machine's (src, tag) sort order.
        let mut flat: Vec<(usize, usize, Word, usize, usize)> = Vec::new();
        for (ci, comp) in step.comps.iter().enumerate() {
            for (si, send) in comp.sends.iter().enumerate() {
                flat.push((send.dest, comp.pid, send.tag, ci, si));
            }
        }
        flat.sort_unstable_by_key(|&(dest, src, tag, _, _)| (dest, src, tag));
        for pair in flat.windows(2) {
            let (d0, s0, tag0, ..) = pair[0];
            let (d1, s1, tag1, ..) = pair[1];
            if d0 == d1 && s0 == s1 && tag0 == tag1 {
                return Ok(CompileOutcome::Ineligible(Ineligibility {
                    phase: Some(t),
                    pid: Some(s0),
                    addr: None,
                    node: format!(
                        "superstep {t} '{}', message (src {s0}, tag {tag0}) to dest {d0}",
                        step.label
                    ),
                    reason: "duplicate (source, tag) key in one superstep leaves the inbox \
                             sort order unstable"
                        .into(),
                }));
            }
        }
        let mut slot_of: Vec<Vec<usize>> = step
            .comps
            .iter()
            .map(|c| vec![usize::MAX; c.sends.len()])
            .collect();
        let mut next_ranges: Vec<(usize, usize)> = vec![(0, 0); p];
        let mut received: Vec<u64> = vec![0; p];
        {
            let mut i = 0usize;
            while i < flat.len() {
                let dest = flat[i].0;
                let start = i;
                while i < flat.len() && flat[i].0 == dest {
                    let (_, _, _, ci, si) = flat[i];
                    slot_of[ci][si] = i;
                    i += 1;
                }
                next_ranges[dest] = (start, i);
                received[dest] = (i - start) as u64;
            }
        }

        // Pre-count the ledger row exactly as the interpreter would.
        let mut w: u64 = 0;
        let mut max_sent: u64 = 0;
        let mut cursor = 0usize;
        for pid in 0..p {
            if t > finish[pid] {
                continue;
            }
            let recv = (cur_ranges[pid].1 - cur_ranges[pid].0) as u64;
            let mut ops: u64 = 0;
            let mut sent: u64 = 0;
            while cursor < order.len() && step.comps[order[cursor]].pid < pid {
                cursor += 1;
            }
            if cursor < order.len() && step.comps[order[cursor]].pid == pid {
                let entry = &step.comps[order[cursor]];
                ops = entry.local_ops;
                sent = entry.sends.len() as u64;
            }
            w = w.max(ops + sent + recv);
            max_sent = max_sent.max(sent);
        }
        let h = max_sent.max(received.iter().copied().max().unwrap_or(0));

        let comps = order
            .iter()
            .map(|&ci| {
                let comp = &step.comps[ci];
                CompiledComp {
                    pid: comp.pid,
                    update: comp.update,
                    sends: comp
                        .sends
                        .iter()
                        .enumerate()
                        .map(|(si, send)| (slot_of[ci][si], send.value))
                        .collect(),
                }
            })
            .collect();
        max_arena = max_arena.max(flat.len());
        compiled_steps.push(CompiledStep {
            comps,
            inbox_ranges: cur_ranges.clone(),
            next_len: flat.len(),
            w,
            h,
        });
        cur_ranges = next_ranges;
    }
    Ok(CompileOutcome::Compiled(CompiledPlan {
        kind: CompiledKind::Msg(CompiledMsg {
            procs: p,
            init: *init,
            steps: compiled_steps,
            max_arena,
        }),
    }))
}

/// Runs a compiled shared-memory schedule on `machine`, bit-identical to
/// [`run_shared_batch`] on the plan it was compiled from. Configurations
/// the straight-line loop does not replicate — fault plans, trace
/// recording, a footprint that could trip [`DEFAULT_MEM_LIMIT`] — fall
/// back to the checked interpreter (which is why `plan` is passed alongside
/// its compiled form).
pub fn run_compiled_batch(
    plan: &PhasePlan,
    compiled: &CompiledPlan,
    machine: &QsmMachine,
    input: &[Word],
) -> Result<PlanRun> {
    let CompiledKind::Shared(cs) = &compiled.kind else {
        return Err(ModelError::BadConfig(format!(
            "plan '{}': run_compiled_batch runs shared-memory schedules",
            plan.family
        )));
    };
    if machine.options().instrumented()
        || input.len() > DEFAULT_MEM_LIMIT
        || cs.max_write_addr.is_some_and(|a| a >= DEFAULT_MEM_LIMIT)
    {
        return run_shared_batch(plan, machine, input);
    }
    let limit = machine.max_phases();
    if cs.phases.len() > limit {
        return Err(ModelError::PhaseLimitExceeded { limit });
    }
    run_compiled_shared_seq(cs, machine, input)
}

fn ledger_row(
    machine: &QsmMachine,
    m_op: u64,
    m_rw: u64,
    kappa_std: u64,
    kappa_unit: u64,
) -> PhaseCost {
    let kappa = match machine.flavor() {
        QsmFlavor::QsmUnitConcurrentReads => kappa_unit,
        _ => kappa_std,
    };
    PhaseCost {
        m_op,
        m_rw: m_rw.max(1),
        kappa,
        cost: machine.phase_cost(m_op, m_rw, kappa),
    }
}

/// Arena cell count above which the compiled executor switches
/// from one flat allocation to chunked pages allocated on first touch.
/// Below the bound (2^22 words = 32 MiB) the straight-line loop keeps its
/// single dense array; above it — million-scale or high-base layouts —
/// footprint must track touched pages, not the planned address extent.
pub const PAGED_ARENA_MIN_CELLS: usize = 1 << 22;

/// The compiled executor's cell storage: flat for small planned extents
/// (the dense fast path), paged on first touch for million-scale ones.
/// Both back the same get/set contract, so the schedule's results are
/// bit-identical either way.
enum Arena {
    Flat(Vec<Word>),
    Paged(Memory),
}

impl Arena {
    fn new(planned_cells: usize, input: &[Word]) -> Arena {
        if planned_cells <= PAGED_ARENA_MIN_CELLS {
            let mut cells = vec![0 as Word; planned_cells];
            let ncopy = input.len().min(cells.len());
            cells[..ncopy].copy_from_slice(&input[..ncopy]);
            Arena::Flat(cells)
        } else {
            let mut mem = Memory::with_limit(usize::MAX);
            let ncopy = input.len().min(planned_cells);
            // Limit is usize::MAX, so the load cannot fail.
            mem.load(0, &input[..ncopy]).expect("unbounded arena load");
            Arena::Paged(mem)
        }
    }

    #[inline]
    fn get(&self, addr: Addr) -> Word {
        match self {
            Arena::Flat(cells) => cells[addr],
            Arena::Paged(mem) => mem.get(addr),
        }
    }

    #[inline]
    fn set(&mut self, addr: Addr, value: Word) {
        match self {
            Arena::Flat(cells) => cells[addr] = value,
            Arena::Paged(mem) => mem.set(addr, value).expect("unbounded arena set"),
        }
    }

    fn slice(&self, base: Addr, len: usize) -> Vec<Word> {
        match self {
            Arena::Flat(cells) => cells[base..base + len].to_vec(),
            Arena::Paged(mem) => mem.slice(base, len),
        }
    }
}

fn run_compiled_shared_seq(
    cs: &CompiledShared,
    machine: &QsmMachine,
    input: &[Word],
) -> Result<PlanRun> {
    let mut cells = Arena::new(cs.planned_cells, input);
    let mut ledger = machine.options().new_ledger();
    let mut regs: Vec<Vec<Word>> = vec![Vec::new(); cs.procs];
    let mut pending: Vec<Vec<Word>> = vec![Vec::new(); cs.procs];
    let mut delivered: Vec<usize> = Vec::new();
    // Guarded-phase scratch, reused across phases.
    let mut read_counts: Vec<u64> = Vec::new();
    let mut write_counts: Vec<u64> = Vec::new();
    let mut write_vals: Vec<Word> = Vec::new();
    let mut fired_reads: Vec<(usize, Addr, bool)> = Vec::new();

    for (t, phase) in cs.phases.iter().enumerate() {
        machine.options().check_cancel(t)?;
        match phase {
            CompiledPhase::Static(sp) => {
                for &(pid, update) in &sp.updates {
                    apply_update(update, &mut regs[pid], &pending[pid]);
                }
                for pid in delivered.drain(..) {
                    pending[pid].clear();
                }
                for g in &sp.gathers {
                    let v = cells.get(g.addr);
                    pending[g.pid].push(v);
                    delivered.push(g.pid);
                }
                for s in &sp.stores {
                    let v = match s.src {
                        StoreSrc::Const(v) => v,
                        StoreSrc::Proc(pid, rule) => rule.eval(&regs[pid]),
                    };
                    cells.set(s.addr, v);
                }
                let c = sp.cost;
                ledger.push(ledger_row(
                    machine,
                    c.m_op,
                    c.m_rw,
                    c.kappa_std,
                    c.kappa_unit,
                ));
            }
            CompiledPhase::Guarded(gp) => {
                read_counts.clear();
                read_counts.resize(gp.read_slots, 0);
                write_counts.clear();
                write_counts.resize(gp.write_slots.len(), 0);
                write_vals.clear();
                write_vals.resize(gp.write_slots.len(), 0);
                fired_reads.clear();
                let mut m_op: u64 = 0;
                let mut m_rw: u64 = 0;
                let mut any_access = false;
                for e in &gp.entries {
                    apply_update(e.update, &mut regs[e.pid], &pending[e.pid]);
                    let fire = match e.guard {
                        Guard::Always => true,
                        Guard::NonZero => regs[e.pid].first().copied().unwrap_or(0) != 0,
                    };
                    if !fire {
                        continue;
                    }
                    let r_i = e.reads.len() as u64;
                    let w_i = e.writes.len() as u64;
                    m_op = m_op.max(e.local_ops + r_i + w_i);
                    m_rw = m_rw.max(r_i.max(w_i));
                    any_access |= r_i + w_i > 0;
                    for r in &e.reads {
                        read_counts[r.slot] += 1;
                        fired_reads.push((e.pid, r.addr, r.deliver));
                    }
                    for &(wslot, rule) in &e.writes {
                        write_counts[wslot] += 1;
                        write_vals[wslot] = rule.eval(&regs[e.pid]);
                    }
                }
                for pid in delivered.drain(..) {
                    pending[pid].clear();
                }
                for &(pid, addr, deliver) in &fired_reads {
                    let v = cells.get(addr);
                    if deliver {
                        pending[pid].push(v);
                        delivered.push(pid);
                    }
                }
                for (wslot, &addr) in gp.write_slots.iter().enumerate() {
                    if write_counts[wslot] > 0 {
                        cells.set(addr, write_vals[wslot]);
                    }
                }
                let read_c = read_counts.iter().copied().max().unwrap_or(0);
                let write_c = write_counts.iter().copied().max().unwrap_or(0);
                let kappa_std = if any_access { read_c.max(write_c) } else { 1 };
                ledger.push(ledger_row(machine, m_op, m_rw, kappa_std, write_c.max(1)));
            }
        }
    }

    Ok(PlanRun {
        ledger,
        output: cells.slice(cs.base, cs.len),
    })
}

/// Runs a compiled BSP schedule on `machine`, bit-identical to
/// [`run_msg_batch`] on the plan it was compiled from. Fault plans, trace
/// recording, and machine-width mismatches fall back to the checked
/// interpreter.
pub fn run_compiled_msg_batch(
    plan: &PhasePlan,
    compiled: &CompiledPlan,
    machine: &BspMachine,
    input: &[Word],
) -> Result<PlanRun> {
    let CompiledKind::Msg(cm) = &compiled.kind else {
        return Err(ModelError::BadConfig(format!(
            "plan '{}': run_compiled_msg_batch runs message-passing schedules",
            plan.family
        )));
    };
    if machine.options().instrumented() || machine.p() != cm.procs {
        return run_msg_batch(plan, machine, input);
    }
    let limit = machine.max_phases();
    if cm.steps.len() > limit {
        return Err(ModelError::PhaseLimitExceeded { limit });
    }

    let mut regs: Vec<Vec<Word>> = machine
        .partition(input)
        .iter()
        .map(|local| {
            vec![match cm.init {
                InitRule::Const(v) => v,
                InitRule::FoldLocal(op) => op.fold(local),
            }]
        })
        .collect();
    let mut ledger = machine.options().new_ledger();
    let mut cur: Vec<Word> = Vec::new();
    let mut next: Vec<Word> = Vec::with_capacity(cm.max_arena);
    for (t, step) in cm.steps.iter().enumerate() {
        machine.options().check_cancel(t)?;
        next.clear();
        next.resize(step.next_len, 0);
        for comp in &step.comps {
            let (lo, hi) = step.inbox_ranges[comp.pid];
            apply_update(comp.update, &mut regs[comp.pid], &cur[lo..hi]);
            for &(slot, rule) in &comp.sends {
                next[slot] = rule.eval(&regs[comp.pid]);
            }
        }
        ledger.push(PhaseCost {
            m_op: step.w,
            m_rw: step.h.max(1),
            kappa: 1,
            cost: machine.superstep_cost(step.w, step.h),
        });
        std::mem::swap(&mut cur, &mut next);
    }

    Ok(PlanRun {
        ledger,
        output: regs
            .iter()
            .map(|r| r.first().copied().unwrap_or(0))
            .collect(),
    })
}

/// Runs a compiled schedule on the machine its plan's [`ModelKind`] names,
/// with a cooperative [`CancelToken`] checked at every phase boundary —
/// the compiled counterpart of [`execute_plan_cancellable`].
pub fn execute_compiled_cancellable(
    plan: &PhasePlan,
    compiled: &CompiledPlan,
    input: &[Word],
    cancel: &CancelToken,
) -> Result<PlanRun> {
    match plan.model {
        ModelKind::Qsm { .. } | ModelKind::SQsm { .. } | ModelKind::QsmUnitCr { .. } => {
            let machine = shared_machine(plan)
                .expect("matched shared flavors")
                .with_cancel(cancel.clone());
            run_compiled_batch(plan, compiled, &machine, input)
        }
        ModelKind::Bsp { p, g, l } => {
            let machine = BspMachine::new(p, g, l)?.with_cancel(cancel.clone());
            run_compiled_msg_batch(plan, compiled, &machine, input)
        }
        ModelKind::Gsm { .. } => Err(ModelError::BadConfig(format!(
            "plan '{}': GSM plans are analyze-only (no IR interpreter)",
            plan.family
        ))),
    }
}

/// Compile-and-run convenience: compiles `plan`, runs the schedule if
/// eligible, and transparently falls back to the checked interpreter
/// ([`crate::interp::execute_plan`]) otherwise. One-shot callers should
/// prefer this; callers running one plan many times should compile once
/// and call [`execute_compiled_cancellable`] per run.
pub fn execute_plan_compiled(plan: &PhasePlan, input: &[Word]) -> Result<PlanRun> {
    execute_plan_compiled_cancellable(plan, input, &CancelToken::new())
}

/// [`execute_plan_compiled`] with a cooperative [`CancelToken`].
pub fn execute_plan_compiled_cancellable(
    plan: &PhasePlan,
    input: &[Word],
    cancel: &CancelToken,
) -> Result<PlanRun> {
    match compile_plan(plan)? {
        CompileOutcome::Compiled(compiled) => {
            execute_compiled_cancellable(plan, &compiled, input, cancel)
        }
        CompileOutcome::Ineligible(_) => execute_plan_cancellable(plan, input, cancel),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::combinators::{
        broadcast, bsp_fan_in_reduce, bsp_prefix_scan, dart_round, fan_in_read_tree,
        fan_in_write_tree, prefix_sweep, scatter_gather,
    };
    use crate::interp::execute_plan;
    use crate::plan::CombineOp;

    fn qsm() -> ModelKind {
        ModelKind::Qsm { g: 4 }
    }

    fn compile_ok(plan: &PhasePlan) -> CompiledPlan {
        match compile_plan(plan).unwrap() {
            CompileOutcome::Compiled(c) => c,
            CompileOutcome::Ineligible(why) => {
                panic!("plan '{}' ineligible: {}", plan.family, why.describe())
            }
        }
    }

    #[test]
    fn every_section8_combinator_compiles() {
        compile_ok(&fan_in_write_tree(13, 3, qsm()));
        compile_ok(&fan_in_read_tree(
            14,
            2,
            CombineOp::Xor,
            ModelKind::SQsm { g: 3 },
        ));
        compile_ok(&broadcast(17, 3, qsm()));
        compile_ok(&prefix_sweep(16, 4, CombineOp::Sum, qsm()));
        let sources = [2usize, 0, 1];
        let dests = [3usize, 4, 5];
        compile_ok(&scatter_gather(&sources, &dests, qsm()));
        compile_ok(&bsp_fan_in_reduce(5, 2, CombineOp::Sum, 4, 16));
        compile_ok(&bsp_prefix_scan(5, 2, CombineOp::Sum, 4, 16));
    }

    #[test]
    fn racy_darts_are_ineligible_with_located_reason() {
        let plan = dart_round(&[(0, ValueRule::Const(1)), (0, ValueRule::Const(2))], qsm());
        let CompileOutcome::Ineligible(why) = compile_plan(&plan).unwrap() else {
            panic!("racy darts must not compile");
        };
        assert_eq!(why.phase, Some(0));
        assert_eq!(why.addr, Some(0));
        assert!(
            why.describe().contains("differing constants"),
            "{}",
            why.describe()
        );
    }

    #[test]
    fn gsm_plans_are_ineligible() {
        let mut plan = dart_round(&[(5, ValueRule::Const(1))], qsm());
        plan.model = ModelKind::Gsm {
            alpha: 4,
            beta: 4,
            gamma: 16,
        };
        let CompileOutcome::Ineligible(why) = compile_plan(&plan).unwrap() else {
            panic!("GSM plans must not compile");
        };
        assert!(why.reason.contains("analyze-only"), "{}", why.reason);
    }

    #[test]
    fn compiled_matches_interpreted_on_shared_families() {
        for n in [1usize, 2, 9, 14, 33] {
            let input: Vec<Word> = (0..n as Word).map(|x| x % 2).collect();
            for plan in [
                fan_in_write_tree(n, 3, qsm()),
                fan_in_read_tree(n, 2, CombineOp::Xor, ModelKind::SQsm { g: 3 }),
                prefix_sweep(n, 2, CombineOp::Sum, ModelKind::QsmUnitCr { g: 2 }),
            ] {
                let want = execute_plan(&plan, &input).unwrap();
                let got = execute_plan_compiled(&plan, &input).unwrap();
                assert_eq!(got, want, "family {} n={n}", plan.family);
            }
        }
    }

    #[test]
    fn compiled_matches_interpreted_on_bsp_families() {
        for p in [1usize, 2, 4, 7] {
            let input: Vec<Word> = (0..19).collect();
            for plan in [
                bsp_fan_in_reduce(p, 2, CombineOp::Sum, 4, 16),
                bsp_prefix_scan(p, 3, CombineOp::Sum, 4, 16),
            ] {
                let want = execute_plan(&plan, &input).unwrap();
                let got = execute_plan_compiled(&plan, &input).unwrap();
                assert_eq!(got, want, "family {} p={p}", plan.family);
            }
        }
    }

    #[test]
    fn compiled_plan_reports_layout() {
        let compiled = compile_ok(&prefix_sweep(16, 4, CombineOp::Sum, qsm()));
        assert!(compiled.is_shared());
        assert!(compiled.num_phases() > 0);
        assert!(compiled.arena_cells() >= 16);
        let bsp = compile_ok(&bsp_fan_in_reduce(4, 2, CombineOp::Or, 4, 16));
        assert!(!bsp.is_shared());
    }

    #[test]
    fn ineligible_plans_fall_back_transparently() {
        let plan = dart_round(&[(0, ValueRule::Const(1)), (0, ValueRule::Const(2))], qsm());
        let want = execute_plan(&plan, &[]).unwrap();
        let got = execute_plan_compiled(&plan, &[]).unwrap();
        assert_eq!(got, want);
    }
}
