//! # parbounds-analyze
//!
//! Model-conformance analyzer for the SPAA'98 simulators: audits programs
//! and executions of the QSM, s-QSM, BSP and GSM machines on three axes.
//!
//! 1. **Race / determinism detection** ([`race`]): replays a program under
//!    perturbed concurrent-write arbitration ([`WinnerPolicy`] adversaries
//!    and, for small choice spaces, exhaustive scripted enumeration) and
//!    reports observable-output divergence with a minimized witness — the
//!    cell, phase and contending processors of the first divergent
//!    arbitration. The QSM resolves concurrent writes *arbitrarily*
//!    (Section 2.1), so any algorithm whose output depends on the winner
//!    is wrong.
//! 2. **Trace lints** ([`lints`]): typed [`Diagnostic`]s over
//!    [`ExecTrace`]/[`GsmTrace`]/BSP superstep traces — same-phase
//!    read/write conflicts, per-cell queue contention over a declared
//!    bound, s-QSM read/write asymmetry, BSP sends that can never be
//!    delivered, GSM γ-region violations, dead reads and unconsumed
//!    writes.
//! 3. **Cost contracts** ([`contracts`]): each algorithm family declares
//!    its asymptotic envelope (a
//!    [`CostContract`](parbounds_models::CostContract)); the checker fits
//!    measured ledger sweeps against it and fails on super-envelope
//!    growth.
//! 4. **Static plan analysis** ([`statics`]): for schedules declared as a
//!    `parbounds-ir` [`PhasePlan`](parbounds_ir::PhasePlan), predicts the
//!    exact per-phase `(m_op, m_rw, κ)` / BSP `h` ledger *without
//!    executing*, certifies race-freedom by write-set disjointness, and
//!    applies the same rule table as the dynamic lints ([`rules`] is the
//!    single source of truth for both passes). [`cross_validate`] then
//!    runs the plan and asserts predicted == measured, cell for cell.
//!
//! [`suite`] wires all Section 8 families through the dynamic analyses and
//! [`statics`] cross-validates the IR-lifted families; the `parbounds
//! lint` / `parbounds analyze --static` CLI subcommands render the results
//! and exit non-zero when anything is flagged.
//!
//! [`WinnerPolicy`]: parbounds_models::WinnerPolicy
//! [`ExecTrace`]: parbounds_models::ExecTrace
//! [`GsmTrace`]: parbounds_models::GsmTrace

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod contracts;
pub mod diagnostics;
pub mod lints;
pub mod race;
pub mod rules;
pub mod statics;
pub mod suite;
pub mod symbolic;

pub use contracts::{check_contract, ContractPoint, ContractReport};
pub use diagnostics::{Diagnostic, Location, Rule, Severity};
pub use lints::{
    lint_bsp_trace, lint_gsm_trace, lint_qsm_trace, BspLintConfig, LintConfig, OutputSpec,
};
pub use race::{detect_races_qsm, detect_races_with, Probe, RaceConfig, RaceReport, RaceWitness};
pub use statics::{
    analyze_plan, analyze_static_all, analyze_static_family, certify_writes, cross_validate,
    ir_family_plan, lint_compile, lint_plan, predict_ledger, predict_ledger_with, CrossValidation,
    StaticAnalysis, StaticFamilyReport, StaticRaceWitness, StaticReport, WriteCertificate,
    IR_FAMILIES,
};
pub use suite::{analyze_all, analyze_family, AnalysisReport, FamilyReport, SuiteConfig, FAMILIES};
pub use symbolic::{
    analyze_symbolic_all, analyze_symbolic_family, check_all_families, check_claims, check_family,
    predict_ledger_symbolic, recognize_plan, table1_fixture, theta, ClaimCheck, FamilyConformance,
    GridPoint, PlanSymbolicCheck, SymExpr, SymLedger, SymbolicFamilyReport, SymbolicReport, Theta,
    SYMBOLIC_FAMILIES,
};
