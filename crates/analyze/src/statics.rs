//! Static plan analysis: cost prediction, race certification and lints
//! over a [`PhasePlan`] — all without executing anything.
//!
//! The dynamic passes of this crate look at what a run *did*; this module
//! looks at what a declared schedule *must* do. Because a [`PhasePlan`]
//! names every request of every processor in every phase, the per-phase
//! `(m_op, m_rw, κ)` triple (or BSP `(w, h)` pair) can be read straight
//! off the plan and folded through the model's Section 2 cost formula,
//! producing the *exact* [`CostLedger`] the simulator will measure —
//! [`cross_validate`] asserts that equality cell for cell.
//!
//! The analysis is **saturating**: every [`Guard`](parbounds_ir::Guard)
//! is assumed to fire. For data-independent families the prediction is
//! therefore exact on every input; for guarded families (the OR write
//! tree) it is a worst case, attained on the all-ones input the family
//! ships for cross-validation.
//!
//! Three entry points mirror the three dynamic axes:
//!
//! 1. [`predict_ledger`] — the symbolic cost ledger.
//! 2. [`certify_writes`] — race-freedom by static write-set disjointness:
//!    a cell written by two processors in one phase is safe only if both
//!    provably store the same constant (the arbitrary-winner rule of
//!    Section 2.1 cannot perturb a common write).
//! 3. [`lint_plan`] — the same rule table as the dynamic trace lints
//!    ([`crate::rules`]), applied pre-execution, plus [`Rule::DeadPhase`],
//!    which only a static view can see.

use std::collections::BTreeMap;

use parbounds_algo::broadcast::broadcast_cost_max;
use parbounds_algo::ir_families::{
    broadcast_plan, bsp_prefix_scan_plan, bsp_reduce_plan, or_write_tree_padded_plan,
    or_write_tree_plan, parity_read_tree_plan, prefix_sweep_plan, racy_plan, scatter_gather_plan,
};
use parbounds_algo::or_tree::{or_default_fanin, or_write_tree_cost_max};
use parbounds_algo::reduce::tree_reduce_cost;
use parbounds_ir::{
    compile_plan, execute_plan, CompileOutcome, ModelKind, OutputDecl, PhasePlan, PlanBody,
    ValueRule,
};
use parbounds_models::{
    Addr, BspMachine, CancelToken, CostLedger, GsmMachine, ModelError, PhaseCost, QsmMachine,
    Result, Word,
};

use crate::diagnostics::{Diagnostic, Location, Rule, Severity};
use crate::rules;

/// Folds a plan through its model's cost formula and returns the ledger
/// the simulator will produce, without executing. Saturating: guarded
/// requests are assumed issued.
pub fn predict_ledger(plan: &PhasePlan) -> Result<CostLedger> {
    predict_ledger_with(plan, &CancelToken::new())
}

/// [`predict_ledger`] with a cooperative [`CancelToken`]: the fold checks
/// the token at every phase boundary and stops with
/// [`ModelError::DeadlineExceeded`] once it trips, so even static analysis
/// of adversarially long plans respects a caller's deadline.
pub fn predict_ledger_with(plan: &PhasePlan, cancel: &CancelToken) -> Result<CostLedger> {
    plan.validate()?;
    let mut ledger = CostLedger::new();
    match &plan.body {
        PlanBody::Shared(phases) => {
            for (t, phase) in phases.iter().enumerate() {
                cancel.check(t)?;
                let mut m_op = 0u64;
                let mut m_rw = 0u64;
                let mut any_access = false;
                let mut reads: BTreeMap<Addr, u64> = BTreeMap::new();
                let mut writes: BTreeMap<Addr, u64> = BTreeMap::new();
                for e in &phase.procs {
                    let r = e.reads.len() as u64;
                    let w = e.writes.len() as u64;
                    m_op = m_op.max(e.local_ops + r + w);
                    m_rw = m_rw.max(r.max(w));
                    any_access |= r + w > 0;
                    for &a in &e.reads {
                        *reads.entry(a).or_insert(0) += 1;
                    }
                    for ws in &e.writes {
                        *writes.entry(ws.addr).or_insert(0) += 1;
                    }
                }
                let write_contention = writes.values().copied().max().unwrap_or(1);
                match plan.model {
                    ModelKind::Qsm { g } | ModelKind::SQsm { g } | ModelKind::QsmUnitCr { g } => {
                        let read_contention = reads.values().copied().max().unwrap_or(1);
                        let kappa = match plan.model {
                            // Unit-cost concurrent reads: only write
                            // contention queues.
                            ModelKind::QsmUnitCr { .. } => write_contention,
                            _ if any_access => read_contention.max(write_contention),
                            _ => 1,
                        };
                        let machine = match plan.model {
                            ModelKind::SQsm { .. } => QsmMachine::sqsm(g),
                            ModelKind::QsmUnitCr { .. } => QsmMachine::qsm_unit_cr(g),
                            _ => QsmMachine::qsm(g),
                        };
                        let cost = machine.phase_cost(m_op, m_rw, kappa);
                        ledger.push(PhaseCost {
                            m_op,
                            m_rw: m_rw.max(1),
                            kappa,
                            cost,
                        });
                    }
                    ModelKind::Gsm { alpha, beta, gamma } => {
                        // Strong queuing charges reads and writes alike.
                        let kappa = if any_access {
                            reads
                                .values()
                                .chain(writes.values())
                                .copied()
                                .max()
                                .unwrap_or(1)
                        } else {
                            1
                        };
                        let machine = GsmMachine::new(alpha, beta, gamma);
                        let cost = machine.phase_cost(m_rw.max(1), kappa);
                        ledger.push(PhaseCost {
                            m_op: 0,
                            m_rw: m_rw.max(1),
                            kappa,
                            cost,
                        });
                    }
                    ModelKind::Bsp { .. } => unreachable!("validate ties the BSP to Msg bodies"),
                }
            }
        }
        PlanBody::Msg { steps, .. } => {
            let ModelKind::Bsp { p, g, l } = plan.model else {
                unreachable!("validate ties Msg bodies to the BSP");
            };
            let machine = BspMachine::new(p, g, l)?;
            let finish = plan.finish_phases()?;
            // Messages awaiting consumption at the start of each superstep.
            let mut inbox = vec![0u64; p];
            for (t, step) in steps.iter().enumerate() {
                cancel.check(t)?;
                let mut declared = vec![(0u64, 0u64); p];
                let mut received = vec![0u64; p];
                let mut next_inbox = vec![0u64; p];
                for e in &step.comps {
                    declared[e.pid] = (e.local_ops, e.sends.len() as u64);
                    for s in &e.sends {
                        // Every send counts toward h; only sends to a
                        // component still alive next superstep are ever
                        // consumed (Section 2.1.3 delivery rule).
                        received[s.dest] += 1;
                        if finish[s.dest] > t {
                            next_inbox[s.dest] += 1;
                        }
                    }
                }
                let mut w = 0u64;
                let mut max_sent = 0u64;
                for (pid, &(ops, sent)) in declared.iter().enumerate() {
                    if finish[pid] >= t {
                        w = w.max(ops + sent + inbox[pid]);
                        max_sent = max_sent.max(sent);
                    }
                }
                let h = max_sent.max(received.iter().copied().max().unwrap_or(0));
                let cost = machine.superstep_cost(w, h);
                ledger.push(PhaseCost {
                    m_op: w,
                    m_rw: h.max(1),
                    kappa: 1,
                    cost,
                });
                inbox = next_inbox;
            }
        }
    }
    Ok(ledger)
}

/// A `(phase, cell, writers)` triple the certifier could not prove safe.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StaticRaceWitness {
    /// Phase with the contended write.
    pub phase: usize,
    /// The contended cell.
    pub addr: Addr,
    /// The processors writing it in that phase.
    pub pids: Vec<usize>,
}

/// The outcome of static write-set disjointness certification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WriteCertificate {
    /// Every phase's write sets are pairwise disjoint, except possibly
    /// cells where all writers store the same compile-time constant — a
    /// common write the arbitrary-winner rule cannot perturb.
    RaceFree {
        /// Number of phases certified.
        phases: usize,
        /// Multi-writer cells that needed the equal-constant argument.
        common_value_cells: usize,
    },
    /// Some cell has writers whose values are not provably equal: the
    /// arbitration winner is observable and the plan is refused a
    /// certificate.
    Racy {
        /// One witness per non-disjoint `(phase, cell)`.
        witnesses: Vec<StaticRaceWitness>,
    },
}

impl WriteCertificate {
    /// True when the plan was certified race-free.
    pub fn is_race_free(&self) -> bool {
        matches!(self, WriteCertificate::RaceFree { .. })
    }
}

/// Certifies race-freedom by static write-set disjointness. Sound under
/// the saturating convention: guards can only *remove* writes, and a
/// subset of equal-constant writers is still an equal-constant set.
pub fn certify_writes(plan: &PhasePlan) -> Result<WriteCertificate> {
    plan.validate()?;
    let phases = plan.num_phases();
    let PlanBody::Shared(shared) = &plan.body else {
        // Message passing has no shared cells: nothing to arbitrate.
        return Ok(WriteCertificate::RaceFree {
            phases,
            common_value_cells: 0,
        });
    };
    let mut witnesses = Vec::new();
    let mut common = 0usize;
    for (t, phase) in shared.iter().enumerate() {
        let mut writers: BTreeMap<Addr, Vec<(usize, ValueRule)>> = BTreeMap::new();
        for e in &phase.procs {
            for w in &e.writes {
                writers.entry(w.addr).or_default().push((e.pid, w.value));
            }
        }
        for (addr, list) in writers {
            if list.len() < 2 {
                continue;
            }
            let common_write = match list[0].1 {
                ValueRule::Const(v0) => list.iter().all(|&(_, v)| v == ValueRule::Const(v0)),
                _ => false,
            };
            if common_write {
                common += 1;
            } else {
                witnesses.push(StaticRaceWitness {
                    phase: t,
                    addr,
                    pids: list.iter().map(|&(pid, _)| pid).collect(),
                });
            }
        }
    }
    if witnesses.is_empty() {
        Ok(WriteCertificate::RaceFree {
            phases,
            common_value_cells: common,
        })
    } else {
        Ok(WriteCertificate::Racy { witnesses })
    }
}

/// Runs the shared rule table of [`crate::rules`] over a plan without
/// executing it, plus the static-only [`Rule::DeadPhase`] check.
pub fn lint_plan(plan: &PhasePlan) -> Result<Vec<Diagnostic>> {
    plan.validate()?;
    let model = plan.model.name();
    let mut diags = Vec::new();
    match &plan.body {
        PlanBody::Shared(phases) => {
            let mut writes_at: BTreeMap<Addr, Vec<usize>> = BTreeMap::new();
            let mut reads_at: BTreeMap<Addr, Vec<usize>> = BTreeMap::new();
            for (t, phase) in phases.iter().enumerate() {
                let mut reads: BTreeMap<Addr, u64> = BTreeMap::new();
                let mut writes: BTreeMap<Addr, u64> = BTreeMap::new();
                let mut dead = true;
                for e in &phase.procs {
                    if !e.reads.is_empty() || !e.writes.is_empty() || e.local_ops > 0 {
                        dead = false;
                    }
                    if !e.reads.is_empty() && phase.finish.contains(&e.pid) {
                        diags.push(Diagnostic::new(
                            Rule::DeadRead,
                            Location {
                                model,
                                phase: t,
                                pid: Some(e.pid),
                                addr: None,
                            },
                            rules::dead_read(e.reads.len()),
                        ));
                    }
                    for &a in &e.reads {
                        *reads.entry(a).or_insert(0) += 1;
                        reads_at.entry(a).or_default().push(t);
                    }
                    for w in &e.writes {
                        *writes.entry(w.addr).or_insert(0) += 1;
                        writes_at.entry(w.addr).or_default().push(t);
                        if matches!(plan.model, ModelKind::Gsm { .. })
                            && plan.input_cells > 0
                            && w.addr < plan.input_cells
                        {
                            diags.push(Diagnostic::new(
                                Rule::GsmGammaViolation,
                                Location {
                                    model,
                                    phase: t,
                                    pid: Some(e.pid),
                                    addr: Some(w.addr),
                                },
                                rules::gsm_gamma_violation(w.addr, plan.input_cells),
                            ));
                        }
                    }
                }
                if dead && phase.finish.is_empty() {
                    diags.push(Diagnostic::new(
                        Rule::DeadPhase,
                        Location {
                            model,
                            phase: t,
                            pid: None,
                            addr: None,
                        },
                        rules::dead_phase(&phase.label),
                    ));
                }
                for (&addr, &r) in &reads {
                    if let Some(&w) = writes.get(&addr) {
                        diags.push(Diagnostic::new(
                            Rule::SamePhaseReadWrite,
                            Location {
                                model,
                                phase: t,
                                pid: None,
                                addr: Some(addr),
                            },
                            rules::same_phase_read_write(r, w),
                        ));
                    }
                }
                if let Some(bound) = plan.contention_bound {
                    for (&addr, &k) in reads.iter().chain(writes.iter()) {
                        if k <= bound {
                            continue;
                        }
                        diags.push(Diagnostic::new(
                            Rule::ContentionOverBound,
                            Location {
                                model,
                                phase: t,
                                pid: None,
                                addr: Some(addr),
                            },
                            rules::contention_over_bound(k, bound),
                        ));
                        if matches!(plan.model, ModelKind::SQsm { .. }) {
                            diags.push(Diagnostic::new(
                                Rule::SqsmAsymmetry,
                                Location {
                                    model,
                                    phase: t,
                                    pid: None,
                                    addr: Some(addr),
                                },
                                rules::sqsm_asymmetry(k, bound),
                            ));
                        }
                    }
                }
            }
            if let OutputDecl::Region { base, len } = plan.output {
                for (&addr, wts) in &writes_at {
                    if addr >= base && addr < base + len {
                        continue;
                    }
                    let last_write = *wts.iter().max().expect("non-empty by construction");
                    let consumed = reads_at
                        .get(&addr)
                        .is_some_and(|rs| rs.iter().any(|&r| r > last_write));
                    if !consumed {
                        diags.push(Diagnostic::new(
                            Rule::UnconsumedWrite,
                            Location {
                                model,
                                phase: last_write,
                                pid: None,
                                addr: Some(addr),
                            },
                            rules::unconsumed_write(),
                        ));
                    }
                }
            }
        }
        PlanBody::Msg { steps, .. } => {
            let ModelKind::Bsp { p, .. } = plan.model else {
                unreachable!("validate ties Msg bodies to the BSP");
            };
            let finish = plan.finish_phases()?;
            let mut inbox = vec![0u64; p];
            for (t, step) in steps.iter().enumerate() {
                let mut next_inbox = vec![0u64; p];
                let mut declared_sent = vec![0u64; p];
                let mut dead = true;
                for e in &step.comps {
                    if !e.sends.is_empty() || e.local_ops > 0 {
                        dead = false;
                    }
                    declared_sent[e.pid] = e.sends.len() as u64;
                    for s in &e.sends {
                        if finish[s.dest] <= t {
                            diags.push(Diagnostic::new(
                                Rule::BspUndeliverableSend,
                                Location {
                                    model,
                                    phase: t,
                                    pid: Some(e.pid),
                                    addr: None,
                                },
                                rules::bsp_undeliverable_send(
                                    s.tag,
                                    s.value,
                                    s.dest,
                                    finish[s.dest],
                                ),
                            ));
                        } else {
                            next_inbox[s.dest] += 1;
                        }
                    }
                }
                if dead && step.finish.is_empty() && inbox.iter().all(|&c| c == 0) {
                    diags.push(Diagnostic::new(
                        Rule::DeadPhase,
                        Location {
                            model,
                            phase: t,
                            pid: None,
                            addr: None,
                        },
                        rules::dead_phase(&step.label),
                    ));
                }
                if let Some(bound) = plan.contention_bound {
                    for (pid, &sent) in declared_sent.iter().enumerate() {
                        if finish[pid] < t {
                            continue;
                        }
                        let recv = inbox[pid];
                        let h = sent.max(recv);
                        if h > bound {
                            diags.push(Diagnostic::new(
                                Rule::ContentionOverBound,
                                Location {
                                    model,
                                    phase: t,
                                    pid: Some(pid),
                                    addr: None,
                                },
                                rules::h_over_bound(h, sent, recv, bound),
                            ));
                        }
                    }
                }
                inbox = next_inbox;
            }
        }
    }
    diags.extend(crate::symbolic::lint_plan_symbolic(plan)?);
    Ok(diags)
}

/// Statics handoff to the plan compiler: decides whether `plan` can take
/// the compiled straight-line fast path (`ir::compile`) and, if not,
/// reports the first offending node as a [`Rule::CompileIneligible`]
/// warning through the shared rule table. An empty report means
/// [`parbounds_ir::compile_plan`] yields a schedule; the warning means the
/// plan still runs, on the checked interpreter.
pub fn lint_compile(plan: &PhasePlan) -> Result<Vec<Diagnostic>> {
    match compile_plan(plan)? {
        CompileOutcome::Compiled(_) => Ok(Vec::new()),
        CompileOutcome::Ineligible(why) => Ok(vec![Diagnostic::new(
            Rule::CompileIneligible,
            Location {
                model: plan.model.name(),
                phase: why.phase.unwrap_or(0),
                pid: why.pid,
                addr: why.addr,
            },
            rules::compile_ineligible(&why.node, &why.reason),
        )]),
    }
}

/// Everything the static analyzer can say about a plan, bundled.
#[derive(Debug)]
pub struct StaticAnalysis {
    /// The predicted cost ledger.
    pub predicted: CostLedger,
    /// The race-freedom certificate (or its refusal).
    pub certificate: WriteCertificate,
    /// Static lint findings.
    pub diagnostics: Vec<Diagnostic>,
}

/// Runs all three static passes over a plan.
pub fn analyze_plan(plan: &PhasePlan) -> Result<StaticAnalysis> {
    Ok(StaticAnalysis {
        predicted: predict_ledger(plan)?,
        certificate: certify_writes(plan)?,
        diagnostics: lint_plan(plan)?,
    })
}

/// The static prediction next to the measured execution of the same plan.
#[derive(Debug)]
pub struct CrossValidation {
    /// Ledger derived without executing.
    pub predicted: CostLedger,
    /// Ledger the simulator measured.
    pub measured: CostLedger,
    /// The executed plan's declared output.
    pub output: Vec<Word>,
}

impl CrossValidation {
    /// True when prediction and measurement agree cell for cell.
    pub fn matches(&self) -> bool {
        self.predicted == self.measured
    }
}

/// Predicts the ledger, executes the plan on `input`, and returns both.
pub fn cross_validate(plan: &PhasePlan, input: &[Word]) -> Result<CrossValidation> {
    let predicted = predict_ledger(plan)?;
    let run = execute_plan(plan, input)?;
    Ok(CrossValidation {
        predicted,
        measured: run.ledger,
        output: run.output,
    })
}

/// The Section 8 families lifted onto the IR and cross-validated by
/// `parbounds analyze --static --all` (the `racy-plan` fixture is
/// reachable via `--family` but deliberately excluded here).
pub const IR_FAMILIES: [&str; 7] = [
    "or-write-tree",
    "parity-read-tree",
    "broadcast",
    "prefix-sweep",
    "scatter-gather",
    "bsp-reduce",
    "bsp-prefix-scan",
];

/// Gap used by the standard static suite (matches the dynamic suite).
pub const SUITE_G: u64 = 8;
/// BSP width used by the standard static suite.
pub const SUITE_BSP_P: usize = 16;
/// BSP latency used by the standard static suite.
pub const SUITE_BSP_L: u64 = 8 * SUITE_G;

/// One family's static report: prediction, measurement, certificate,
/// lints and (where the paper gives one) the closed-form anchor.
#[derive(Debug)]
pub struct StaticFamilyReport {
    /// Family name.
    pub family: &'static str,
    /// Model name ("QSM", "s-QSM", "BSP", "GSM").
    pub model: &'static str,
    /// Number of phases / supersteps in the plan.
    pub phases: usize,
    /// Predicted total time.
    pub predicted_time: u64,
    /// Measured total time.
    pub measured_time: u64,
    /// Whether predicted and measured ledgers agree cell for cell.
    pub matches: bool,
    /// The write-disjointness certificate.
    pub certificate: WriteCertificate,
    /// Static lint findings.
    pub diagnostics: Vec<Diagnostic>,
    /// Closed-form cost from the paper's analysis, when exact enough to
    /// anchor against (§8 OR/Parity trees; the broadcast upper bound).
    pub formula: Option<u64>,
}

impl StaticFamilyReport {
    /// Clean = ledgers agree, certificate granted, no error-severity
    /// findings.
    pub fn clean(&self) -> bool {
        self.matches
            && self.certificate.is_race_free()
            && self
                .diagnostics
                .iter()
                .all(|d| d.severity != Severity::Error)
    }
}

/// Builds the plan (and a matching input) for one named [`IR_FAMILIES`]
/// entry at problem size `n` (floored to 8). This is the same registry
/// [`analyze_static_family`] analyzes; it is public so callers (e.g. the
/// CLI) can run additional plan-level lints such as [`lint_compile`]
/// without re-deriving the Section 8 schedules.
pub fn ir_family_plan(
    family: &str,
    n: usize,
    seed: u64,
) -> Result<(&'static str, PhasePlan, Vec<Word>)> {
    let n = n.max(8);
    let (name, (plan, input)) = match family {
        "or-write-tree" => ("or-write-tree", or_write_tree_plan(n, SUITE_G)),
        "or-write-tree-padded" => (
            "or-write-tree-padded",
            or_write_tree_padded_plan(n, SUITE_G),
        ),
        "parity-read-tree" => ("parity-read-tree", parity_read_tree_plan(n, SUITE_G, seed)),
        "broadcast" => ("broadcast", broadcast_plan(n, SUITE_G)),
        "prefix-sweep" => ("prefix-sweep", prefix_sweep_plan(n, SUITE_G, seed)),
        "scatter-gather" => ("scatter-gather", scatter_gather_plan(n, SUITE_G, seed)),
        "bsp-reduce" => (
            "bsp-reduce",
            bsp_reduce_plan(SUITE_BSP_P, SUITE_G, SUITE_BSP_L, n, seed),
        ),
        "bsp-prefix-scan" => (
            "bsp-prefix-scan",
            bsp_prefix_scan_plan(SUITE_BSP_P, SUITE_G, SUITE_BSP_L, n, seed),
        ),
        "racy-plan" => ("racy-plan", racy_plan()),
        other => {
            return Err(ModelError::BadConfig(format!(
                "unknown static analysis family '{other}' (see `parbounds analyze --list`)"
            )))
        }
    };
    Ok((name, plan, input))
}

/// Builds, statically analyzes and cross-validates one named family at
/// problem size `n` (floored to 8).
pub fn analyze_static_family(family: &str, n: usize, seed: u64) -> Result<StaticFamilyReport> {
    let n = n.max(8);
    let (name, plan, input) = ir_family_plan(family, n, seed)?;
    let cv = cross_validate(&plan, &input)?;
    let certificate = certify_writes(&plan)?;
    let diagnostics = lint_plan(&plan)?;
    let formula = match name {
        "or-write-tree" => Some(or_write_tree_cost_max(
            n,
            or_default_fanin(SUITE_G),
            SUITE_G,
        )),
        "parity-read-tree" => Some(tree_reduce_cost(n, 2, SUITE_G)),
        "broadcast" => Some(broadcast_cost_max(
            n,
            (SUITE_G as usize + 1).max(2),
            SUITE_G,
        )),
        _ => None,
    };
    Ok(StaticFamilyReport {
        family: name,
        model: plan.model.name(),
        phases: plan.num_phases(),
        predicted_time: cv.predicted.total_time(),
        measured_time: cv.measured.total_time(),
        matches: cv.matches(),
        certificate,
        diagnostics,
        formula,
    })
}

/// The full static suite over [`IR_FAMILIES`].
#[derive(Debug)]
pub struct StaticReport {
    /// One report per family, in [`IR_FAMILIES`] order.
    pub families: Vec<StaticFamilyReport>,
}

impl StaticReport {
    /// True when every family is [`StaticFamilyReport::clean`].
    pub fn clean(&self) -> bool {
        self.families.iter().all(StaticFamilyReport::clean)
    }

    /// Text rendering, one line per family plus finding details.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(
            "static plan analysis (predicted ledger \u{b7} write-set certificate \u{b7} plan lints)\n",
        );
        out.push_str(&"-".repeat(96));
        out.push('\n');
        for f in &self.families {
            let marker = if f.matches { "exact" } else { "DIVERGES" };
            let cert = match &f.certificate {
                WriteCertificate::RaceFree {
                    common_value_cells: 0,
                    ..
                } => "disjoint write sets".to_string(),
                WriteCertificate::RaceFree {
                    common_value_cells, ..
                } => format!("race-free ({common_value_cells} common-write cell(s))"),
                WriteCertificate::Racy { witnesses } => {
                    format!("RACY ({} witness(es))", witnesses.len())
                }
            };
            out.push_str(&format!(
                "{:<17} {:<5} phases: {:<3} predicted: {:<7} measured: {:<7} [{marker:<8}] race: {:<34} lint: {}\n",
                f.family,
                f.model,
                f.phases,
                f.predicted_time,
                f.measured_time,
                cert,
                f.diagnostics.len(),
            ));
            for d in &f.diagnostics {
                out.push_str(&format!("    {d}\n"));
            }
            if let WriteCertificate::Racy { witnesses } = &f.certificate {
                for w in witnesses {
                    out.push_str(&format!(
                        "    witness: phase {} cell {} written by pids {:?}\n",
                        w.phase, w.addr, w.pids
                    ));
                }
            }
        }
        out.push_str(if self.clean() {
            "result: clean\n"
        } else {
            "result: NOT CLEAN\n"
        });
        out
    }
}

/// Runs [`analyze_static_family`] for every entry of [`IR_FAMILIES`].
pub fn analyze_static_all(n: usize, seed: u64) -> Result<StaticReport> {
    let families = IR_FAMILIES
        .iter()
        .map(|f| analyze_static_family(f, n, seed))
        .collect::<Result<Vec<_>>>()?;
    Ok(StaticReport { families })
}

#[cfg(test)]
mod tests {
    use super::*;
    use parbounds_ir::{CompStep, Guard, MsgStep, ProcPhase, SharedPhase, Update};

    fn shared_fixture(model: ModelKind, phases: Vec<SharedPhase>) -> PhasePlan {
        PhasePlan {
            family: "fixture".into(),
            model,
            procs: 2,
            input_cells: 0,
            contention_bound: None,
            output: OutputDecl::Region { base: 10, len: 1 },
            body: PlanBody::Shared(phases),
        }
    }

    fn bsp_fixture(steps: Vec<MsgStep>, bound: Option<u64>) -> PhasePlan {
        PhasePlan {
            family: "fixture".into(),
            model: ModelKind::Bsp { p: 2, g: 2, l: 4 },
            procs: 2,
            input_cells: 0,
            contention_bound: bound,
            output: OutputDecl::ComponentState,
            body: PlanBody::Msg {
                init: parbounds_ir::InitRule::Const(0),
                steps,
            },
        }
    }

    #[test]
    fn gsm_prediction_matches_hand_computed_costs() {
        let mut read = SharedPhase::new("read");
        read.procs
            .push(ProcPhase::idle(0).update(Update::Load).read(0));
        read.procs
            .push(ProcPhase::idle(1).update(Update::Load).read(1));
        let mut write = SharedPhase::new("write");
        write
            .procs
            .push(ProcPhase::idle(0).write(10, ValueRule::Reg(0)));
        write
            .procs
            .push(ProcPhase::idle(1).write(11, ValueRule::Reg(0)));
        write.finish = vec![0, 1];
        let mut plan = shared_fixture(
            ModelKind::Gsm {
                alpha: 4,
                beta: 4,
                gamma: 4,
            },
            vec![read, write],
        );
        plan.output = OutputDecl::Region { base: 10, len: 2 };
        let ledger = predict_ledger(&plan).unwrap();
        // μ = 4, one big-step per phase: m_rw = 1 ≤ α, κ = 1 ≤ β.
        let want = PhaseCost {
            m_op: 0,
            m_rw: 1,
            kappa: 1,
            cost: 4,
        };
        assert_eq!(ledger.phases(), &[want, want]);
    }

    #[test]
    fn certifier_grants_common_writes_and_refuses_racy_plans() {
        let (or_plan, _) = or_write_tree_plan(33, 8);
        match certify_writes(&or_plan).unwrap() {
            WriteCertificate::RaceFree {
                common_value_cells, ..
            } => assert!(common_value_cells > 0, "OR tree relies on common writes"),
            other => panic!("OR tree should certify, got {other:?}"),
        }

        let (racy, _) = racy_plan();
        match certify_writes(&racy).unwrap() {
            WriteCertificate::Racy { witnesses } => {
                assert_eq!(witnesses.len(), 1);
                assert_eq!(witnesses[0].addr, 0);
                assert_eq!(witnesses[0].pids, vec![0, 1, 2, 3]);
            }
            other => panic!("racy plan must be refused, got {other:?}"),
        }
    }

    #[test]
    fn compile_lint_clears_every_suite_family() {
        for family in IR_FAMILIES {
            let (_, plan, _) = ir_family_plan(family, 64, 42).unwrap();
            let diags = lint_compile(&plan).unwrap();
            assert!(
                diags.is_empty(),
                "{family} should take the compiled path, got {diags:?}"
            );
        }
    }

    #[test]
    fn compile_lint_flags_racy_plan_as_ineligible() {
        let (racy, _) = racy_plan();
        let diags = lint_compile(&racy).unwrap();
        assert_eq!(diags.len(), 1);
        let d = &diags[0];
        assert_eq!(d.rule, Rule::CompileIneligible);
        assert_eq!(d.rule.name(), "compile-ineligible");
        assert_eq!(d.severity, Severity::Warning);
        assert_eq!(d.location.addr, Some(0));
        assert!(
            d.message.contains("blocks plan compilation"),
            "shared rule table must phrase the finding: {}",
            d.message
        );
    }

    #[test]
    fn lints_flag_dead_phase_dead_read_and_unconsumed_write() {
        let mut p0 = SharedPhase::new("reads");
        p0.procs.push(ProcPhase::idle(0).read(0));
        p0.procs.push(ProcPhase::idle(1).read(1));
        let dead = SharedPhase::new("nothing happens");
        let mut last = SharedPhase::new("writes");
        last.procs
            .push(ProcPhase::idle(0).write(10, ValueRule::Const(1)));
        last.procs
            .push(ProcPhase::idle(1).read(5).write(11, ValueRule::Const(2)));
        last.finish = vec![0, 1];
        let plan = shared_fixture(ModelKind::Qsm { g: 4 }, vec![p0, dead, last]);
        let diags = lint_plan(&plan).unwrap();
        let rules_hit: Vec<Rule> = diags.iter().map(|d| d.rule).collect();
        assert!(rules_hit.contains(&Rule::DeadPhase));
        assert!(rules_hit.contains(&Rule::DeadRead));
        // Cell 11 is outside the declared output [10, 11) and never read.
        assert!(rules_hit.contains(&Rule::UnconsumedWrite));
        assert_eq!(diags.len(), 3);
    }

    #[test]
    fn lints_flag_same_phase_conflict_and_sqsm_contention() {
        let mut clash = SharedPhase::new("clash");
        clash.procs.push(ProcPhase::idle(0).read(3).read(0));
        clash
            .procs
            .push(ProcPhase::idle(1).read(0).write(3, ValueRule::Const(1)));
        let mut last = SharedPhase::new("out");
        last.procs
            .push(ProcPhase::idle(0).write(10, ValueRule::Const(0)));
        last.finish = vec![0, 1];
        let mut plan = shared_fixture(ModelKind::SQsm { g: 4 }, vec![clash, last]);
        plan.contention_bound = Some(1);
        let diags = lint_plan(&plan).unwrap();
        let errors: Vec<Rule> = diags
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .map(|d| d.rule)
            .collect();
        assert!(errors.contains(&Rule::SamePhaseReadWrite), "{diags:?}");
        // Cell 0 has two concurrent readers against a declared bound of 1.
        assert!(errors.contains(&Rule::ContentionOverBound), "{diags:?}");
        assert!(
            diags.iter().any(|d| d.rule == Rule::SqsmAsymmetry),
            "{diags:?}"
        );
    }

    #[test]
    fn lints_flag_gsm_gamma_violation() {
        let mut phase = SharedPhase::new("clobber input");
        phase
            .procs
            .push(ProcPhase::idle(0).write(1, ValueRule::Const(9)));
        phase
            .procs
            .push(ProcPhase::idle(1).write(10, ValueRule::Const(9)));
        phase.finish = vec![0, 1];
        let mut plan = shared_fixture(
            ModelKind::Gsm {
                alpha: 4,
                beta: 4,
                gamma: 4,
            },
            vec![phase],
        );
        plan.input_cells = 2;
        let diags = lint_plan(&plan).unwrap();
        assert!(diags.iter().any(|d| d.rule == Rule::GsmGammaViolation
            && d.location.addr == Some(1)
            && d.severity == Severity::Error));
    }

    #[test]
    fn lints_flag_undeliverable_sends_and_h_over_bound() {
        let mut s0 = MsgStep::new("send into the void");
        s0.comps
            .push(CompStep::idle(0).send(1, 0, ValueRule::Const(1)).send(
                1,
                1,
                ValueRule::Const(2),
            ));
        s0.comps.push(CompStep::idle(1));
        s0.finish = vec![1];
        let mut s1 = MsgStep::new("wrap up");
        s1.comps.push(CompStep::idle(0).update(Update::Keep));
        s1.finish = vec![0];
        let plan = bsp_fixture(vec![s0, s1], Some(1));
        let diags = lint_plan(&plan).unwrap();
        let undeliverable = diags
            .iter()
            .filter(|d| d.rule == Rule::BspUndeliverableSend)
            .count();
        assert_eq!(undeliverable, 2, "{diags:?}");
        // Component 0 sends 2 messages against a declared h-bound of 1.
        assert!(
            diags
                .iter()
                .any(|d| d.rule == Rule::ContentionOverBound && d.location.pid == Some(0)),
            "{diags:?}"
        );
    }

    #[test]
    fn static_suite_is_clean_and_racy_fixture_is_not() {
        let report = analyze_static_all(48, 7).unwrap();
        assert_eq!(report.families.len(), IR_FAMILIES.len());
        assert!(report.clean(), "{}", report.render());
        let rendered = report.render();
        assert!(rendered.contains("result: clean"));
        assert!(rendered.contains("or-write-tree"));

        let racy = analyze_static_family("racy-plan", 48, 7).unwrap();
        assert!(!racy.clean());
        assert!(racy.matches, "even a racy plan's cost is predictable");
        assert!(!racy.certificate.is_race_free());

        assert!(analyze_static_family("no-such-family", 48, 7).is_err());
    }

    #[test]
    fn guard_annotation_does_not_change_the_saturating_prediction() {
        // Two plans differing only in guards predict the same ledger.
        let mut a0 = SharedPhase::new("write");
        a0.procs
            .push(ProcPhase::idle(0).write(10, ValueRule::Const(1)));
        a0.procs.push(
            ProcPhase::idle(1)
                .guard(Guard::NonZero)
                .write(10, ValueRule::Const(1)),
        );
        a0.finish = vec![0, 1];
        let guarded = shared_fixture(ModelKind::Qsm { g: 4 }, vec![a0.clone()]);
        let mut unguarded = guarded.clone();
        if let PlanBody::Shared(ref mut ph) = unguarded.body {
            for e in &mut ph[0].procs {
                *e = e.clone().guard(Guard::Always);
            }
        }
        assert_eq!(
            predict_ledger(&guarded).unwrap(),
            predict_ledger(&unguarded).unwrap()
        );
    }
}
