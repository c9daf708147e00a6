//! The single source of truth for lint rule messages.
//!
//! Both analysis paths — the dynamic trace lints in [`crate::lints`] and
//! the static plan analyzer in [`crate::statics`] — flag the same model
//! rules, and they must say the same thing when they do: a CI log line
//! produced from a trace has to be greppable against one produced from a
//! plan. Every message template therefore lives here, keyed by the
//! [`Rule`](crate::diagnostics::Rule) it accompanies, and the two passes
//! only differ in *where* their measurements come from.

use std::fmt::Display;

use parbounds_models::{Addr, Word};

/// [`Rule::SamePhaseReadWrite`](crate::diagnostics::Rule::SamePhaseReadWrite):
/// a cell saw both reads and writes in one phase.
pub fn same_phase_read_write(reads: u64, writes: u64) -> String {
    format!("cell has {reads} read(s) and {writes} write(s) in the same phase")
}

/// [`Rule::ContentionOverBound`](crate::diagnostics::Rule::ContentionOverBound):
/// per-cell queue contention beyond the family's declared bound.
pub fn contention_over_bound(k: u64, bound: u64) -> String {
    format!("contention {k} exceeds declared bound {bound}")
}

/// [`Rule::SqsmAsymmetry`](crate::diagnostics::Rule::SqsmAsymmetry):
/// contention beyond the declared symmetric bound on an s-QSM.
pub fn sqsm_asymmetry(k: u64, bound: u64) -> String {
    format!(
        "contention {k} > {bound} is charged g·κ on the s-QSM; \
         restructure toward symmetric fan-in"
    )
}

/// [`Rule::DeadRead`](crate::diagnostics::Rule::DeadRead): reads issued in
/// a processor's final phase are never delivered.
pub fn dead_read(n: usize) -> String {
    format!("{n} read(s) issued in the processor's final phase are never delivered")
}

/// [`Rule::GsmGammaViolation`](crate::diagnostics::Rule::GsmGammaViolation):
/// a write into the γ-packed read-only input region.
pub fn gsm_gamma_violation(addr: Addr, input_cells: usize) -> String {
    format!("write into γ-packed input cell {addr} (input region is [0, {input_cells}))")
}

/// [`Rule::BspUndeliverableSend`](crate::diagnostics::Rule::BspUndeliverableSend):
/// a message addressed to a component that already finished. `value` is the
/// concrete word on the dynamic path and the value *rule* on the static one.
pub fn bsp_undeliverable_send(
    tag: Word,
    value: impl Display,
    dest: usize,
    finished_step: usize,
) -> String {
    format!(
        "message (tag {tag}, value {value}) sent to component {dest}, which \
         finished in superstep {finished_step} — next-superstep delivery is lost"
    )
}

/// [`Rule::ContentionOverBound`](crate::diagnostics::Rule::ContentionOverBound)
/// on the BSP: a component routing more than the declared h-relation.
pub fn h_over_bound(h: u64, sent: u64, recv: u64, bound: u64) -> String {
    format!(
        "component routes {h} messages (sent {sent}, received {recv}), \
         exceeding the declared h-relation bound {bound}"
    )
}

/// [`Rule::UnconsumedWrite`](crate::diagnostics::Rule::UnconsumedWrite):
/// a written cell whose final value nothing reads.
pub fn unconsumed_write() -> String {
    "cell is written but its final value is never read and is not a declared output".to_string()
}

/// [`Rule::DeadPhase`](crate::diagnostics::Rule::DeadPhase): a phase that
/// issues no requests, charges no work, and retires no processor.
pub fn dead_phase(label: &str) -> String {
    format!(
        "phase '{label}' issues no requests, charges no work, and retires no \
         processor — it only pays the model's idle minimum"
    )
}

/// [`Rule::CompileIneligible`](crate::diagnostics::Rule::CompileIneligible):
/// a node blocks the compiled straight-line fast path; `node` names it and
/// `reason` quotes the violated eligibility rule.
pub fn compile_ineligible(node: &str, reason: &str) -> String {
    format!(
        "{node} blocks plan compilation: {reason} — the plan runs on the \
         checked interpreter instead of the straight-line schedule"
    )
}

/// [`Rule::TruncatedTrace`](crate::diagnostics::Rule::TruncatedTrace): the
/// trace stopped recording at the phase cap, so the lint pass only audited
/// a prefix of the run.
pub fn truncated_trace(recorded: usize, total: usize) -> String {
    format!(
        "trace retains {recorded} of {total} executed phases (trace_phase_cap \
         hit) — lints only audited the recorded prefix; raise the cap for a \
         full audit"
    )
}

/// [`Rule::SymbolicMismatch`](crate::diagnostics::Rule::SymbolicMismatch):
/// a plan recognized as a family instance whose symbolic ledger, evaluated
/// at the plan's parameter point, disagrees with the numeric prediction.
pub fn symbolic_mismatch(family: &str, n: u64, p: u64, g: u64, l: u64) -> String {
    format!(
        "plan is a recognized '{family}' instance but its symbolic ledger \
         evaluated at (n={n}, p={p}, g={g}, L={l}) differs from the numeric \
         prediction — the family's closed form no longer describes this \
         schedule"
    )
}

/// [`Rule::AuditGap`](crate::diagnostics::Rule::AuditGap): a swept family
/// whose lower-bound audit is missing or covers a smaller `n` than the
/// upper-bound sweep.
pub fn audit_gap(family: &str, audited_n: Option<u64>, swept_n: u64) -> String {
    match audited_n {
        None => format!(
            "family '{family}' is swept symbolically up to n={swept_n} but has \
             no adversary lower-bound audit registered — its Table 1 pairing \
             is one-sided"
        ),
        Some(a) => format!(
            "family '{family}' is swept symbolically up to n={swept_n} but its \
             adversary lower-bound audit only covers n={a} — the audit lags \
             the sweep"
        ),
    }
}

/// [`Rule::BoundRegression`](crate::diagnostics::Rule::BoundRegression):
/// a family's derived Θ-normal form strictly dominates its Table 1 row.
pub fn bound_regression(family: &str, derived: &str, fixture: &str) -> String {
    format!(
        "family '{family}' derives to {derived}, which strictly dominates \
         its Table 1 bound {fixture} — the schedule asymptotically overpays \
         the paper's analysis"
    )
}
