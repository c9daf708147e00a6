//! Typed diagnostics emitted by the lint pass.

use std::fmt;

use parbounds_models::Addr;

/// How serious a diagnostic is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Advisory: the execution is model-legal but wasteful or suspicious
    /// (dead reads, unconsumed writes, asymmetric s-QSM access).
    Warning,
    /// The execution violates a model-legality rule of Section 2 or a
    /// bound the family declared.
    Error,
}

/// The model-legality and hygiene rules the lint pass checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Rule {
    /// A cell was both read and written in the same phase. Section 2.1
    /// forbids this ("each shared-memory location can be either read or
    /// written, but not both, in the same phase"); the engines reject it
    /// at run time, so seeing it in a trace means the trace was produced
    /// by an external engine (e.g. an emulator) that skipped the check.
    SamePhaseReadWrite,
    /// Per-cell queue contention in some phase exceeded the bound the
    /// family declared (`κ` beyond the declared fan-in means the measured
    /// cost no longer tracks the family's Table 1 analysis).
    ContentionOverBound,
    /// On an s-QSM run, per-cell contention exceeded the declared
    /// symmetric-access bound. The s-QSM charges contention through the
    /// gap (`g·κ`, Section 2.1), so QSM-style high-fan-in access — cheap
    /// where only `κ` is charged — wastes the symmetric charging here.
    SqsmAsymmetry,
    /// A BSP message was sent to a component that had already finished in
    /// the sending superstep (or earlier): delivery happens *next*
    /// superstep (Section 2.1.3), so the message is silently lost —
    /// usually an off-by-one that effectively addressed the send to the
    /// sending superstep.
    BspUndeliverableSend,
    /// A GSM write landed in the γ-packed input region. The initial
    /// placement invariant of Section 2.2 (each cell holds information
    /// about at most γ inputs, disjoint across cells) underpins the
    /// lower-bound accounting; programs must treat `[0, ⌈n/γ⌉)` as
    /// read-only.
    GsmGammaViolation,
    /// A processor issued reads in the phase it returned `Done`: the
    /// engine discards those deliveries (they can never be consumed), yet
    /// the phase still paid `g·m_rw` for them.
    DeadRead,
    /// A cell outside the declared output region was written but never
    /// subsequently read: the write's information is lost, which usually
    /// indicates a wrong address computation or an undeclared output.
    UnconsumedWrite,
    /// A phase (or superstep) of a declared plan issues no requests,
    /// charges no local work, and retires no processor: it contributes
    /// nothing yet still pays the model's per-phase minimum (`g`, or `L`
    /// on the BSP). Only the static analyzer can see this — a dynamic
    /// trace cannot distinguish a dead phase from a data-dependent quiet
    /// one.
    DeadPhase,
    /// The trace retained fewer phases than the run executed (the
    /// [`trace_phase_cap`] was hit). Every phase-indexed lint above only
    /// saw a prefix of the execution, so a clean report does not certify
    /// the whole run; re-run with a larger cap for a full audit.
    ///
    /// [`trace_phase_cap`]: parbounds_models::ExecOptions::trace_phase_cap
    TruncatedTrace,
    /// A plan recognized as an instance of a symbolically-covered §8
    /// family whose symbolic ledger, evaluated at the plan's parameter
    /// point, disagrees with the numeric `predict_ledger` cell for cell.
    /// Either the schedule silently diverged from the family's recipe or
    /// the closed-form derivation is stale — both break the Table 1
    /// conformance story.
    SymbolicMismatch,
    /// A family's derived Θ-normal-form total strictly dominates its
    /// Table 1 row: the schedule asymptotically overpays the bound the
    /// paper proves for the problem. Both normal forms are quoted in the
    /// message.
    BoundRegression,
    /// A §8 family carried through the symbolic upper-bound sweep whose
    /// adversary-side *lower-bound audit* is missing or lags behind: either
    /// the family has no entry in the audit registry at all, or the largest
    /// `n` its audit covered is smaller than the largest `n` the sweep
    /// exercised. Until the audit catches up, the family's Table 1 pairing
    /// is one-sided — the upper bound is checked at sizes where the lower
    /// bound is not.
    AuditGap,
    /// The plan cannot take the compiled straight-line fast path
    /// (`ir::compile`): a node breaks one of the eligibility rules — a
    /// same-phase read/write cell (the compiled loop elides the conflict
    /// check), a multi-writer cell without a certified common constant
    /// (arbitration would be observable), a duplicate BSP `(source, tag)`
    /// inbox key (slot order would be unstable), or an analyze-only GSM
    /// model. The plan still runs correctly on the checked interpreter —
    /// it just keeps paying per-phase routing and arbitration.
    CompileIneligible,
}

impl Rule {
    /// Default severity of the rule.
    pub fn severity(self) -> Severity {
        match self {
            Rule::SamePhaseReadWrite
            | Rule::ContentionOverBound
            | Rule::BspUndeliverableSend
            | Rule::GsmGammaViolation
            | Rule::SymbolicMismatch
            | Rule::BoundRegression
            | Rule::AuditGap => Severity::Error,
            Rule::SqsmAsymmetry
            | Rule::DeadRead
            | Rule::UnconsumedWrite
            | Rule::DeadPhase
            | Rule::TruncatedTrace
            | Rule::CompileIneligible => Severity::Warning,
        }
    }

    /// Stable machine-readable name (used by the CLI renderer).
    pub fn name(self) -> &'static str {
        match self {
            Rule::SamePhaseReadWrite => "same-phase-read-write",
            Rule::ContentionOverBound => "contention-over-bound",
            Rule::SqsmAsymmetry => "sqsm-asymmetry",
            Rule::BspUndeliverableSend => "bsp-undeliverable-send",
            Rule::GsmGammaViolation => "gsm-gamma-violation",
            Rule::DeadRead => "dead-read",
            Rule::UnconsumedWrite => "unconsumed-write",
            Rule::DeadPhase => "dead-phase",
            Rule::TruncatedTrace => "truncated-trace",
            Rule::SymbolicMismatch => "symbolic-mismatch",
            Rule::BoundRegression => "bound-regression",
            Rule::AuditGap => "audit-gap",
            Rule::CompileIneligible => "compile-ineligible",
        }
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Where in an execution a diagnostic points.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Location {
    /// The model the trace came from (`"QSM"`, `"s-QSM"`, `"BSP"`,
    /// `"GSM"`).
    pub model: &'static str,
    /// Phase / superstep index.
    pub phase: usize,
    /// Processor or component, when the rule localizes to one.
    pub pid: Option<usize>,
    /// Shared-memory cell, when the rule localizes to one.
    pub addr: Option<Addr>,
}

impl fmt::Display for Location {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} phase {}", self.model, self.phase)?;
        if let Some(pid) = self.pid {
            write!(f, " pid {pid}")?;
        }
        if let Some(addr) = self.addr {
            write!(f, " cell {addr}")?;
        }
        Ok(())
    }
}

/// One finding of the lint pass.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// The violated rule.
    pub rule: Rule,
    /// Severity (normally [`Rule::severity`]).
    pub severity: Severity,
    /// Where the violation happened.
    pub location: Location,
    /// Human-readable detail.
    pub message: String,
}

impl Diagnostic {
    /// Builds a diagnostic at the rule's default severity.
    pub fn new(rule: Rule, location: Location, message: String) -> Self {
        Diagnostic {
            rule,
            severity: rule.severity(),
            location,
            message,
        }
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let sev = match self.severity {
            Severity::Error => "error",
            Severity::Warning => "warning",
        };
        write!(
            f,
            "{sev}[{}] {}: {}",
            self.rule, self.location, self.message
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rules_know_their_severity_and_name() {
        assert_eq!(Rule::SamePhaseReadWrite.severity(), Severity::Error);
        assert_eq!(Rule::DeadRead.severity(), Severity::Warning);
        assert_eq!(Rule::GsmGammaViolation.name(), "gsm-gamma-violation");
        assert!(Severity::Warning < Severity::Error);
    }

    #[test]
    fn display_is_compact_and_complete() {
        let d = Diagnostic::new(
            Rule::ContentionOverBound,
            Location {
                model: "QSM",
                phase: 3,
                pid: None,
                addr: Some(17),
            },
            "contention 9 > declared bound 4".into(),
        );
        let s = d.to_string();
        assert_eq!(
            s,
            "error[contention-over-bound] QSM phase 3 cell 17: contention 9 > declared bound 4"
        );
    }
}
