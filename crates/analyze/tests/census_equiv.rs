//! Differential oracle for the static passes. `oracle` holds the
//! `BTreeMap` implementations of `predict_ledger`, `certify_writes`,
//! `lint_plan` and the shared-memory eligibility check of `compile_plan`
//! that the one-census-per-phase passes replaced, copied unchanged; every
//! test asserts that the product passes give the same ledgers,
//! certificates (witness and pid order included), diagnostics (rule,
//! location, message and order) and `Ineligibility`. Eligible plans whose
//! cells stay below 2^22 also run compiled against the interpreter.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use parbounds_analyze::{
    certify_writes, ir_family_plan, lint_plan, predict_ledger, Diagnostic, Rule, IR_FAMILIES,
};
use parbounds_ir::{
    compile_plan, execute_compiled_cancellable, execute_plan, CombineOp, CompileOutcome, Guard,
    ModelKind, OutputDecl, PhasePlan, PlanBody, ProcPhase, SharedPhase, Update, ValueRule,
};
use parbounds_models::{Addr, CancelToken, Word};
use proptest::prelude::*;
use proptest::TestRng;

/// The map-based passes, as they were before the request census.
mod oracle {
    use std::collections::BTreeMap;

    use parbounds_analyze::rules;
    use parbounds_analyze::{Diagnostic, Location, Rule, StaticRaceWitness, WriteCertificate};
    use parbounds_ir::ValueRule;
    use parbounds_ir::{Ineligibility, ModelKind, OutputDecl, PhasePlan, PlanBody, SharedPhase};
    use parbounds_models::{
        Addr, BspMachine, CancelToken, CostLedger, GsmMachine, PhaseCost, QsmMachine, Result, Word,
    };

    /// `predict_ledger` with a cooperative [`CancelToken`]: the fold checks
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
                        ModelKind::Qsm { g }
                        | ModelKind::SQsm { g }
                        | ModelKind::QsmUnitCr { g } => {
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
                        ModelKind::Bsp { .. } => {
                            unreachable!("validate ties the BSP to Msg bodies")
                        }
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

    /// Runs the shared rule table of [`rules`] over a plan without
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
        diags.extend(parbounds_analyze::symbolic::lint_plan_symbolic(plan)?);
        Ok(diags)
    }

    /// Read multiplicity per address under the saturating schedule.
    type ReadMap = BTreeMap<Addr, u64>;
    /// Saturating writers per address: `(pid, value rule)` in arrival order.
    type WriteMap = BTreeMap<Addr, Vec<(usize, ValueRule)>>;

    /// Per-phase saturating request maps: read multiplicities and write
    /// groups, both in address order.
    fn phase_maps(phase: &SharedPhase) -> (ReadMap, WriteMap) {
        let mut reads: BTreeMap<Addr, u64> = BTreeMap::new();
        let mut writes: BTreeMap<Addr, Vec<(usize, ValueRule)>> = BTreeMap::new();
        for entry in &phase.procs {
            for &addr in &entry.reads {
                *reads.entry(addr).or_insert(0) += 1;
            }
            for w in &entry.writes {
                writes.entry(w.addr).or_default().push((entry.pid, w.value));
            }
        }
        (reads, writes)
    }

    /// Shared-memory eligibility for one phase: no read/write overlap, and
    /// every multi-writer cell a certified common write. Returns the first
    /// offending node.
    fn check_shared_phase(
        t: usize,
        label: &str,
        reads: &ReadMap,
        writes: &WriteMap,
    ) -> Option<Ineligibility> {
        for (&addr, group) in writes {
            if reads.contains_key(&addr) {
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

    /// `compile_plan`'s verdict on a shared plan before lowering: the GSM
    /// refusal, then pass 1's per-phase check (BSP plans answer `None`; their
    /// compiler is unchanged).
    pub fn compile_eligibility(plan: &PhasePlan) -> Result<Option<Ineligibility>> {
        plan.validate()?;
        let PlanBody::Shared(phases) = &plan.body else {
            return Ok(None);
        };
        if !matches!(
            plan.model,
            ModelKind::Qsm { .. } | ModelKind::SQsm { .. } | ModelKind::QsmUnitCr { .. }
        ) {
            return Ok(Some(Ineligibility {
                phase: None,
                pid: None,
                addr: None,
                node: format!("plan '{}' (model {})", plan.family, plan.model.name()),
                reason: "GSM plans are analyze-only; there is no compiled executor".into(),
            }));
        }
        for (t, phase) in phases.iter().enumerate() {
            let (reads, writes) = phase_maps(phase);
            if let Some(ineligible) = check_shared_phase(t, &phase.label, &reads, &writes) {
                return Ok(Some(ineligible));
            }
        }
        Ok(None)
    }
}

/// The comparable content of a diagnostic: rule, severity, location and
/// message.
fn key(d: &Diagnostic) -> (Rule, String, String) {
    (
        d.rule,
        format!("{:?} {:?}", d.severity, d.location),
        d.message.clone(),
    )
}

/// Asserts that every static pass agrees with its oracle on `plan`, and
/// returns whether the plan compiled.
fn assert_passes_agree(plan: &PhasePlan, what: &str) -> bool {
    let want = oracle::predict_ledger_with(plan, &CancelToken::new());
    let got = predict_ledger(plan);
    assert_eq!(format!("{got:?}"), format!("{want:?}"), "{what}: ledger");

    let want = oracle::certify_writes(plan).map_err(|e| e.to_string());
    let got = certify_writes(plan).map_err(|e| e.to_string());
    assert_eq!(got, want, "{what}: certificate");

    let want = oracle::lint_plan(plan).map(|ds| ds.iter().map(key).collect::<Vec<_>>());
    let got = lint_plan(plan).map(|ds| ds.iter().map(key).collect::<Vec<_>>());
    assert_eq!(
        format!("{got:?}"),
        format!("{want:?}"),
        "{what}: diagnostics"
    );

    let want = oracle::compile_eligibility(plan).map_err(|e| e.to_string());
    let got = compile_plan(plan).map_err(|e| e.to_string());
    match (got, want) {
        (Ok(CompileOutcome::Compiled(_)), Ok(None)) => true,
        (Ok(CompileOutcome::Ineligible(why)), Ok(Some(want))) => {
            assert_eq!(why, want, "{what}: ineligibility");
            false
        }
        (Err(got), Err(want)) => {
            assert_eq!(got, want, "{what}: compile error");
            false
        }
        (got, want) => panic!("{what}: compile outcome {got:?} vs oracle {want:?}"),
    }
}

/// The largest cell a shared plan names, or the end of its output region
/// if that is larger (0 for a BSP plan).
fn max_cell(plan: &PhasePlan) -> Addr {
    let PlanBody::Shared(phases) = &plan.body else {
        return 0;
    };
    let OutputDecl::Region { base, len } = plan.output else {
        unreachable!("shared plans declare a region");
    };
    let requests = phases.iter().flat_map(|p| &p.procs).flat_map(|e| {
        let writes = e.writes.iter().map(|w| w.addr);
        e.reads.iter().copied().chain(writes)
    });
    requests.fold(base + len, Addr::max)
}

/// The oracle comparison plus, for compiled plans with a flat arena, the
/// compiled run against the interpreter.
fn check(plan: &PhasePlan, input: &[Word], what: &str) {
    if assert_passes_agree(plan, what) && max_cell(plan) < 1 << 22 {
        let Ok(CompileOutcome::Compiled(cp)) = compile_plan(plan) else {
            unreachable!("compiled above");
        };
        let fast = execute_compiled_cancellable(plan, &cp, input, &CancelToken::new());
        let slow = execute_plan(plan, input);
        assert_eq!(fast.unwrap(), slow.unwrap(), "{what}: compiled run");
    }
}

#[test]
fn ir_families_agree_with_the_map_oracle() {
    for n in [8usize, 9, 64, 1000, 4096] {
        for family in IR_FAMILIES.iter().chain(&["or-write-tree-padded"]) {
            let (_, plan, input) = ir_family_plan(family, n, 17).unwrap();
            check(&plan, &input, &format!("{family} n={n}"));
        }
    }
    let (_, racy, input) = ir_family_plan("racy-plan", 8, 0).unwrap();
    check(&racy, &input, "racy-plan");
}

#[test]
fn gsm_plans_with_input_cells_agree_with_the_map_oracle() {
    for family in [
        "or-write-tree",
        "broadcast",
        "prefix-sweep",
        "scatter-gather",
    ] {
        let (_, mut plan, _) = ir_family_plan(family, 64, 3).unwrap();
        plan.model = ModelKind::Gsm {
            alpha: 4,
            beta: 2,
            gamma: 3,
        };
        plan.input_cells = 8;
        plan.contention_bound = Some(2);
        check(&plan, &[], &format!("GSM {family}"));
    }
}

/// SplitMix64: the per-case plan generator, seeded from the proptest shim.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn one_in(&mut self, n: usize) -> bool {
        self.below(n) == 0
    }
}

/// Where a random plan's cells come from.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Cells {
    /// `[0, 10)`: dense, so cells repeat and writers collide.
    Dense,
    /// `2^30 + [0, 10)`.
    High,
    /// `{2^40, usize::MAX - 2, .., usize::MAX}`.
    Far,
    /// Any of the three, per request.
    Mixed,
}

fn cell(rng: &mut Mix, cells: Cells) -> Addr {
    match cells {
        Cells::Dense => rng.below(10),
        Cells::High => (1 << 30) + rng.below(10),
        Cells::Far if rng.one_in(2) => 1 << 40,
        Cells::Far => usize::MAX - rng.below(3),
        Cells::Mixed => {
            let pick = [Cells::Dense, Cells::High, Cells::Far][rng.below(3)];
            cell(rng, pick)
        }
    }
}

/// A random shared plan that is valid by construction: every pid finishes
/// exactly once and issues nothing afterwards, and some pid finishes in
/// the last phase.
fn random_plan(seed: u64, model: ModelKind, cells: Cells, bound: Option<u64>) -> PhasePlan {
    let rng = &mut Mix(seed);
    let procs = 1 + rng.below(8);
    let nphases = 1 + rng.below(5);
    let mut finish: Vec<usize> = (0..procs).map(|_| rng.below(nphases)).collect();
    finish[rng.below(procs)] = nphases - 1;
    let mut phases = Vec::with_capacity(nphases);
    for t in 0..nphases {
        let mut phase = SharedPhase::new(format!("phase-{t}"));
        let empty = rng.one_in(6);
        for (pid, &last) in finish.iter().enumerate() {
            if empty || last < t || rng.one_in(5) {
                continue;
            }
            let update = [
                Update::Keep,
                Update::Load,
                Update::Fold(CombineOp::Sum),
                Update::Accum(CombineOp::Or),
            ][rng.below(4)];
            let guard = if rng.one_in(4) {
                Guard::NonZero
            } else {
                Guard::Always
            };
            let mut e = ProcPhase::idle(pid)
                .update(update)
                .guard(guard)
                .local_ops(rng.below(3) as u64);
            for _ in 0..rng.below(4) {
                e = e.read(cell(rng, cells));
            }
            for _ in 0..rng.below(3) {
                let value = match rng.below(6) {
                    0..=3 => ValueRule::Const(rng.below(2) as Word),
                    4 => ValueRule::Reg(rng.below(2)),
                    _ => ValueRule::FoldRegs(CombineOp::Sum),
                };
                e = e.write(cell(rng, cells), value);
            }
            phase.procs.push(e);
        }
        // Arrival order is entry order, not pid order.
        let split = rng.below(phase.procs.len() + 1);
        phase.procs.rotate_left(split);
        phase.finish = (0..procs).filter(|&pid| finish[pid] == t).collect();
        phases.push(phase);
    }
    let base = if cells == Cells::High { 1 << 30 } else { 0 } + rng.below(10);
    PhasePlan {
        family: format!("random-{seed:x}"),
        model,
        procs,
        input_cells: rng.below(4),
        contention_bound: bound,
        output: OutputDecl::Region {
            base,
            len: 1 + rng.below(3),
        },
        body: PlanBody::Shared(phases),
    }
}

/// What the random plans must cover, in `COVERAGE` order.
const COVERAGE: [&str; 14] = [
    "QSM",
    "s-QSM",
    "unit-CR QSM",
    "GSM",
    "cells at 2^30",
    "cells at 2^40 or usize::MAX - k",
    "a cell repeated within one entry",
    "multi-writer cell, equal constants",
    "multi-writer cell, unequal constants",
    "multi-writer cell with a Reg rule",
    "NonZero guard",
    "empty phase",
    "dead read",
    "contention bound set",
];

/// The coverage flags one plan raises.
fn covers(plan: &PhasePlan) -> [bool; 14] {
    let PlanBody::Shared(phases) = &plan.body else {
        unreachable!("random plans are shared");
    };
    let finish = plan.finish_phases().unwrap();
    let mut hit = [false; 14];
    hit[0] = matches!(plan.model, ModelKind::Qsm { .. });
    hit[1] = matches!(plan.model, ModelKind::SQsm { .. });
    hit[2] = matches!(plan.model, ModelKind::QsmUnitCr { .. });
    hit[3] = matches!(plan.model, ModelKind::Gsm { .. });
    hit[13] = plan.contention_bound.is_some();
    for (t, phase) in phases.iter().enumerate() {
        hit[11] |= phase.procs.is_empty();
        let mut writers: BTreeMap<Addr, Vec<ValueRule>> = BTreeMap::new();
        for e in &phase.procs {
            let mut cells = e.reads.clone();
            cells.extend(e.writes.iter().map(|w| w.addr));
            hit[4] |= cells.iter().any(|&a| a >> 30 == 1);
            hit[5] |= cells.iter().any(|&a| a >= 1 << 40);
            let mut reads = e.reads.clone();
            reads.sort_unstable();
            hit[6] |= reads.windows(2).any(|w| w[0] == w[1]);
            hit[10] |= e.guard == Guard::NonZero;
            hit[12] |= !e.reads.is_empty() && finish[e.pid] == t;
            for w in &e.writes {
                writers.entry(w.addr).or_default().push(w.value);
            }
        }
        for group in writers.values().filter(|g| g.len() > 1) {
            let all_const = group.iter().all(|v| v.is_const());
            hit[7] |= all_const && group.iter().all(|v| *v == group[0]);
            hit[8] |= all_const && group.iter().any(|v| *v != group[0]);
            hit[9] |= group.iter().any(|v| matches!(v, ValueRule::Reg(_)));
        }
    }
    hit
}

/// 256 random valid shared plans, drawn through the proptest shim's
/// deterministic generator: the product passes must agree with the oracle
/// on every one, and together the plans must cover every `COVERAGE` item.
#[test]
fn random_shared_plans_agree_with_the_map_oracle() {
    let rng = &mut TestRng::for_test("census_equiv::random_shared_plans");
    let case = (
        any::<u64>(),
        0usize..4,
        0usize..4,
        1u64..5,
        prop::option::of(1u64..4),
    );
    let mut covered = [false; 14];
    for i in 0..256 {
        let (seed, model, cells, g, bound) = case.generate(rng);
        let model = match model {
            0 => ModelKind::Qsm { g },
            1 => ModelKind::SQsm { g },
            2 => ModelKind::QsmUnitCr { g },
            _ => ModelKind::Gsm {
                alpha: g,
                beta: 1 + seed % 3,
                gamma: 2,
            },
        };
        let cells = [Cells::Dense, Cells::High, Cells::Far, Cells::Mixed][cells];
        let plan = random_plan(seed, model, cells, bound);
        plan.validate().unwrap();
        let input: Vec<Word> = (0..plan.input_cells + 2).map(|x| (x % 3) as Word).collect();
        check(
            &plan,
            &input,
            &format!("case {i} ({cells:?}, seed {seed:#x})"),
        );
        for (c, h) in covered.iter_mut().zip(covers(&plan)) {
            *c |= h;
        }
    }
    for (what, hit) in COVERAGE.iter().zip(covered) {
        assert!(hit, "no random plan covered: {what}");
    }
}

/// One phase in which 2^17 processors each read a cell and finish: every
/// entry is a dead read, and the lint is linear in the entries (a
/// `finish` list scan per entry took 2.0 s here).
#[test]
fn dead_read_lint_is_linear() {
    let n = 1usize << 17;
    let mut phase = SharedPhase::new("read and retire");
    phase.procs = (0..n).map(|pid| ProcPhase::idle(pid).read(pid)).collect();
    phase.finish = (0..n).collect();
    let plan = PhasePlan {
        family: "dead-reads".into(),
        model: ModelKind::Qsm { g: 2 },
        procs: n,
        input_cells: 0,
        contention_bound: None,
        output: OutputDecl::Region { base: 0, len: 1 },
        body: PlanBody::Shared(vec![phase]),
    };
    let start = Instant::now();
    let diags = lint_plan(&plan).unwrap();
    let elapsed = start.elapsed();
    assert_eq!(diags.len(), n);
    assert!(diags.iter().all(|d| d.rule == Rule::DeadRead));
    assert!(
        elapsed < Duration::from_millis(500),
        "lint of {n} dead reads took {elapsed:?}"
    );
}
