//! The degree auditor — Theorems 3.1 and 7.2 as executable checks.
//!
//! The deterministic Parity/OR lower bounds track, phase by phase, an upper
//! bound on the *degree* of the integer polynomials describing processor
//! states and cell contents: with `τ_j` the maximum number of read/write
//! requests by any processor in phase `j` and `τ'_j` the maximum contention,
//! the degree after phase `l` is at most
//!
//! ```text
//! b_l = Π_{j=1..l} (3 + τ_j + 2·τ'_j)   (b_0 = 1)
//! ```
//!
//! and a correct Parity algorithm on `r` effective inputs must reach
//! `b_l ≥ r` because `deg(Parity_r) = r` (verified exhaustively in
//! `parbounds-boolean`). Chaining the inequalities of the proof yields
//! `r ≤ (6μ)^{T/μ}`, i.e. `T ≥ μ·log r / log 6μ`.
//!
//! The auditor instruments *real executions* on the GSM simulator: it reads
//! `(τ_j, τ'_j)` off the per-phase ledger/trace of any program, computes the
//! recurrence (in the log domain, so no overflow), and checks both
//! inequalities. Applied to our own Parity algorithms (whose correctness on
//! all `2^r` inputs is established by exhaustive execution) this *validates*
//! the theorem's accounting on concrete machines; applied to a would-be
//! too-fast algorithm it pinpoints the phase budget it would have to break.

use parbounds_models::{GsmMachine, GsmProgram, GsmTrace, Result, Word};

/// Per-phase quantities and the running degree cap of one execution.
#[derive(Debug, Clone)]
pub struct DegreeAudit {
    /// `(τ_j, τ'_j)` per phase: max requests per processor, max contention.
    pub taus: Vec<(u64, u64)>,
    /// `log2(b_l)` after every phase (log-domain product of the recurrence).
    pub log2_degree_cap: Vec<f64>,
    /// Total big-steps `Σ τ''_j = Σ max(⌈τ/α⌉, ⌈τ'/β⌉)`.
    pub big_steps: u64,
    /// The machine's `μ`.
    pub mu: u64,
}

impl DegreeAudit {
    /// Builds the audit from a traced GSM execution.
    pub fn from_trace(machine: &GsmMachine, trace: &GsmTrace) -> Self {
        let mut taus = Vec::with_capacity(trace.phases.len());
        let mut log2_degree_cap = Vec::with_capacity(trace.phases.len());
        let mut acc = 0f64; // log2(b_0) = 0
        let mut big_steps = 0;
        for phase in &trace.phases {
            let tau = phase
                .reads
                .iter()
                .zip(phase.writes.iter())
                .map(|(r, w)| r.len().max(w.len()) as u64)
                .max()
                .unwrap_or(0)
                .max(1);
            // Contention: per-cell access counts across all processors.
            let mut counts = std::collections::HashMap::new();
            for r in &phase.reads {
                for &(addr, _) in r {
                    *counts.entry(addr).or_insert(0u64) += 1;
                }
            }
            for w in &phase.writes {
                for &(addr, _) in w {
                    *counts.entry(addr).or_insert(0u64) += 1;
                }
            }
            let tau_p = counts.values().copied().max().unwrap_or(0).max(1);
            acc += ((3 + tau + 2 * tau_p) as f64).log2();
            taus.push((tau, tau_p));
            log2_degree_cap.push(acc);
            big_steps += phase.big_steps;
        }
        DegreeAudit {
            taus,
            log2_degree_cap,
            big_steps,
            mu: machine.mu(),
        }
    }

    /// Final `log2(b_l)`.
    pub fn final_log2_cap(&self) -> f64 {
        self.log2_degree_cap.last().copied().unwrap_or(0.0)
    }

    /// The degree-cap inequality of Theorem 3.1: a correct algorithm for a
    /// degree-`d` function must satisfy `b_l ≥ d`.
    pub fn supports_degree(&self, d: usize) -> bool {
        self.final_log2_cap() >= (d.max(1) as f64).log2() - 1e-9
    }

    /// The chained inequality `r ≤ (6μ)^{T/μ}` ⇔
    /// `T/μ ≥ log r / log 6μ`, using the execution's realized time
    /// `T = μ·Σ τ''_j`.
    pub fn satisfies_time_bound(&self, r: usize) -> bool {
        let t_over_mu = self.big_steps as f64;
        let need = (r.max(2) as f64).log2() / ((6 * self.mu) as f64).log2();
        t_over_mu + 1e-9 >= need
    }

    /// The Theorem 3.1 lower-bound value `μ·log r / log 6μ` for comparison
    /// against measured times.
    pub fn theorem_3_1_bound(mu: u64, r: usize) -> f64 {
        mu as f64 * (r.max(2) as f64).log2() / ((6 * mu.max(1)) as f64).log2()
    }
}

/// Outcome of auditing a parity program exhaustively.
#[derive(Debug)]
pub struct ParityAuditReport {
    /// Whether the program computed parity correctly on every input.
    pub correct: bool,
    /// The audit of the worst (longest) execution.
    pub worst: DegreeAudit,
    /// Largest measured time across inputs.
    pub max_time: u64,
}

/// Runs `make_program` on **every** `r`-bit input on `machine`, checks that
/// the output cell `out` holds the parity, and audits the degree recurrence
/// of the worst execution. `r` must be small (exhaustive `2^r` runs).
pub fn audit_parity_program<P, F>(
    machine: &GsmMachine,
    make_program: F,
    out: usize,
    r: usize,
) -> Result<ParityAuditReport>
where
    P: GsmProgram,
    F: Fn() -> P,
{
    assert!(r <= 16, "exhaustive audit limited to r <= 16 inputs");
    let mut correct = true;
    let mut worst: Option<DegreeAudit> = None;
    let mut max_time = 0;
    for mask in 0..1u32 << r {
        let input: Vec<Word> = (0..r).map(|i| Word::from(mask >> i & 1 == 1)).collect();
        let (res, trace) = machine.run_traced(&make_program(), &input)?;
        let expected = Word::from(mask.count_ones() % 2 == 1);
        let got = res.memory.get(out).last().copied().unwrap_or(0) & 1;
        if got != expected {
            correct = false;
        }
        max_time = max_time.max(res.time());
        let audit = DegreeAudit::from_trace(machine, &trace);
        let better = match &worst {
            Some(w) => audit.big_steps > w.big_steps,
            None => true,
        };
        if better {
            worst = Some(audit);
        }
    }
    Ok(ParityAuditReport {
        correct,
        worst: worst.expect("at least one input"),
        max_time,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use parbounds_models::{GsmEnv, GsmFnProgram, Status};

    /// A simple binary-tree parity program on the GSM: processor j at level
    /// l reads two cells of the previous level, writes the XOR.
    fn tree_parity_program(r: usize) -> impl GsmProgram<Proc = ()> + use<> {
        // Cells: input at [0, r); level l at r + offsets. One proc per
        // internal node; pid encodes (level, node) via precomputed table.
        let mut nodes = Vec::new();
        let mut width = r;
        let mut level = 1usize;
        let mut bases = vec![0usize];
        let mut next = r;
        while width > 1 {
            let w2 = width.div_ceil(2);
            bases.push(next);
            for j in 0..w2 {
                nodes.push((level, j, width));
            }
            next += w2;
            width = w2;
            level += 1;
        }
        let bases2 = bases.clone();
        let nodes2 = nodes.clone();
        GsmFnProgram::new(
            nodes.len().max(1),
            move |_pid| (),
            move |pid, _st, env: &mut GsmEnv<'_>| {
                if nodes2.is_empty() {
                    // r == 1: copy input bit to cell 1... handled by caller.
                    return Status::Done;
                }
                let (level, j, prev_width) = nodes2[pid];
                let read_phase = 2 * (level - 1);
                let t = env.phase();
                if t < read_phase {
                    Status::Active
                } else if t == read_phase {
                    env.read(bases2[level - 1] + 2 * j);
                    if 2 * j + 1 < prev_width {
                        env.read(bases2[level - 1] + 2 * j + 1);
                    }
                    Status::Active
                } else {
                    let x: Word = env
                        .delivered()
                        .iter()
                        .map(|(_, c)| c.iter().map(|&v| v & 1).fold(0, |a, b| a ^ b))
                        .fold(0, |a, b| a ^ b);
                    env.write(bases2[level] + j, x);
                    Status::Done
                }
            },
        )
    }

    fn out_cell(r: usize) -> usize {
        // Root cell address: mirrors the layout in tree_parity_program.
        let mut width = r;
        let mut next = r;
        let mut base = 0;
        while width > 1 {
            let w2 = width.div_ceil(2);
            base = next;
            next += w2;
            width = w2;
        }
        base
    }

    #[test]
    fn audit_confirms_correct_tree_parity() {
        for r in [2usize, 3, 5, 8] {
            let m = GsmMachine::new(1, 1, 1);
            let report =
                audit_parity_program(&m, || tree_parity_program(r), out_cell(r), r).unwrap();
            assert!(report.correct, "r={r}");
            // Theorem 3.1: the degree recurrence must reach deg(parity_r)=r.
            assert!(report.worst.supports_degree(r), "r={r}");
            assert!(report.worst.satisfies_time_bound(r), "r={r}");
            // And the measured time respects the theorem's bound.
            assert!(
                report.max_time as f64 >= DegreeAudit::theorem_3_1_bound(1, r) - 1e-9,
                "r={r}: {} < bound",
                report.max_time
            );
        }
    }

    #[test]
    fn audit_detects_incorrect_algorithm() {
        // A program that just writes 0: fails correctness, and its single
        // trivial phase caps the degree at 3 + 1 + 2 = 6 < 8 = r, so the
        // audit certifies it cannot compute Parity_8 either.
        let m = GsmMachine::new(1, 1, 1);
        let make = || {
            GsmFnProgram::new(
                1,
                |_| (),
                |_, _, env: &mut GsmEnv<'_>| {
                    env.write(100, 0);
                    Status::Done
                },
            )
        };
        let report = audit_parity_program(&m, make, 100, 8).unwrap();
        assert!(!report.correct);
        assert!(!report.worst.supports_degree(8));
        // Degree 6 is within the one-phase cap, of course.
        assert!(report.worst.supports_degree(6));
    }

    #[test]
    fn degree_cap_grows_with_contention() {
        // A phase with contention kappa contributes log2(3 + tau + 2kappa).
        let m = GsmMachine::new(1, 1, 1);
        let heavy = GsmFnProgram::new(
            8,
            |_| (),
            |pid, _, env: &mut GsmEnv<'_>| {
                env.write(0, pid as Word);
                Status::Done
            },
        );
        let (_, trace) = m.run_traced(&heavy, &[]).unwrap();
        let audit = DegreeAudit::from_trace(&m, &trace);
        assert_eq!(audit.taus, vec![(1, 8)]);
        assert!((audit.final_log2_cap() - (3f64 + 1.0 + 16.0).log2()).abs() < 1e-9);
    }

    #[test]
    fn big_steps_track_machine_accounting() {
        // alpha=2: 4 requests per proc = 2 big-steps.
        let m = GsmMachine::new(2, 4, 1);
        let prog = GsmFnProgram::new(
            4,
            |_| (),
            |pid, _, env: &mut GsmEnv<'_>| {
                for j in 0..4 {
                    env.write(10 + pid * 4 + j, 1);
                }
                Status::Done
            },
        );
        let (res, trace) = m.run_traced(&prog, &[]).unwrap();
        let audit = DegreeAudit::from_trace(&m, &trace);
        assert_eq!(audit.big_steps, 2);
        assert_eq!(res.time(), audit.mu * audit.big_steps);
    }

    #[test]
    fn theorem_bound_value_is_monotone() {
        assert!(DegreeAudit::theorem_3_1_bound(2, 1024) > DegreeAudit::theorem_3_1_bound(2, 16));
        assert!(DegreeAudit::theorem_3_1_bound(8, 1024) > DegreeAudit::theorem_3_1_bound(2, 1024));
    }
}
