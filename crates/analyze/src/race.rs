//! Determinism / race detection by arbitration perturbation.
//!
//! The QSM resolves concurrent writes to a cell *arbitrarily* (Section
//! 2.1): a correct algorithm must produce the same observable output no
//! matter which writer wins. This module replays a program under a set of
//! adversarial [`WinnerPolicy`]s (and, when the arbitration space is small
//! enough, exhaustively over *every* resolution via scripted odometer
//! enumeration) and reports the first observable-output divergence, with a
//! minimized witness naming the cell, phase and contending processors.

use std::ops::Range;

use parbounds_models::faults::advance_script;
use parbounds_models::{
    Addr, FaultLog, FaultPlan, Program, QsmMachine, Result, WinnerPolicy, Word,
};

/// One perturbed execution: the observable output plus the fault log
/// (whose [`parbounds_models::ChoicePoint`]s localize divergences).
#[derive(Debug, Clone)]
pub struct Probe {
    /// The canonical observable output of the run.
    pub output: Vec<Word>,
    /// The run's fault log (carries the arbitration choice points).
    pub faults: Option<FaultLog>,
}

/// Configuration of the race detector.
#[derive(Debug, Clone)]
pub struct RaceConfig {
    /// Seed of the baseline ([`WinnerPolicy::SeededRandom`]) run.
    pub seed: u64,
    /// Adversarial arbitration policies to replay under.
    pub policies: Vec<WinnerPolicy>,
    /// Extra seeds for additional randomized replays.
    pub extra_seeds: Vec<u64>,
    /// If the product of choice radices is at most this, enumerate the
    /// *entire* arbitration space with scripted winners.
    pub exhaustive_limit: u64,
}

impl RaceConfig {
    /// The default detector: four adversarial policies, two extra seeds,
    /// exhaustive enumeration up to 64 resolutions.
    pub fn new(seed: u64) -> Self {
        RaceConfig {
            seed,
            policies: vec![
                WinnerPolicy::FirstWriter,
                WinnerPolicy::LastWriter,
                WinnerPolicy::MinValue,
                WinnerPolicy::MaxValue,
            ],
            extra_seeds: vec![seed ^ 0x9e37_79b9_7f4a_7c15, seed.wrapping_add(1)],
            exhaustive_limit: 64,
        }
    }
}

/// A minimized divergence witness: the first arbitration at which a
/// perturbed run departed from the baseline.
#[derive(Debug, Clone)]
pub struct RaceWitness {
    /// The policy (or scripted resolution) that exposed the divergence.
    pub policy: WinnerPolicy,
    /// Phase of the divergent arbitration.
    pub phase: usize,
    /// The contended cell.
    pub addr: Addr,
    /// Number of concurrent writers at the choice point.
    pub writers: usize,
    /// Processors that wrote the cell in that phase (filled by the
    /// program-level wrappers via a traced replay; empty otherwise).
    pub contending_pids: Vec<usize>,
    /// Observable output of the baseline run.
    pub baseline_output: Vec<Word>,
    /// Observable output of the divergent run.
    pub divergent_output: Vec<Word>,
}

/// Outcome of a race-detection session.
#[derive(Debug, Clone)]
pub struct RaceReport {
    /// Number of executions performed (baseline included).
    pub runs: usize,
    /// The first divergence found, if any.
    pub witness: Option<RaceWitness>,
    /// True if every resolution of every arbitration was enumerated (the
    /// verdict is then a proof over the explored choice space, not a
    /// sample).
    pub exhaustive: bool,
}

impl RaceReport {
    /// True when no perturbation changed the observable output.
    pub fn is_deterministic(&self) -> bool {
        self.witness.is_none()
    }
}

/// Locates the first choice point at which two fault logs disagree.
///
/// Returns `(phase, addr, writers)` of the divergent arbitration: either
/// the first index where the logs arbitrate *different* (phase, cell)
/// pairs (control-flow divergence — the perturbation changed what the
/// program did next), or where they chose different winners at the same
/// point. Falls back to the last common choice point when the logs are
/// equal prefixes of one another.
fn first_divergence(base: &FaultLog, other: &FaultLog) -> Option<(usize, Addr, usize)> {
    let b = &base.write_choices;
    let o = &other.write_choices;
    for i in 0..b.len().max(o.len()) {
        match (b.get(i), o.get(i)) {
            (Some(x), Some(y)) => {
                if (x.phase, x.addr) != (y.phase, y.addr) || x.chosen != y.chosen {
                    return Some((y.phase, y.addr, y.writers));
                }
            }
            (Some(x), None) => return Some((x.phase, x.addr, x.writers)),
            (None, Some(y)) => return Some((y.phase, y.addr, y.writers)),
            (None, None) => unreachable!(),
        }
    }
    b.last().map(|c| (c.phase, c.addr, c.writers))
}

/// Core detector over an abstract runner.
///
/// `run` executes the program under the given fault plan and returns the
/// observable output; the detector owns the perturbation schedule. Use the
/// program-level wrappers ([`detect_races_qsm`]) unless you are auditing
/// something that is not a QSM program (e.g. a whole algorithm entry
/// point).
pub fn detect_races_with(
    cfg: &RaceConfig,
    mut run: impl FnMut(&FaultPlan) -> Result<Probe>,
) -> Result<RaceReport> {
    let baseline = run(&FaultPlan::new(cfg.seed))?;
    let mut runs = 1;
    let base_log = baseline.faults.clone().unwrap_or_default();

    // No real arbitration happened (the engines log a choice point per
    // written cell, but radix-1 "choices" cannot diverge): there is
    // nothing to perturb, and the scheduled replays would all retrace the
    // baseline.
    let contended = base_log.write_choices.iter().any(|c| c.writers > 1);
    if !contended && !base_log.choices_truncated {
        return Ok(RaceReport {
            runs,
            witness: None,
            exhaustive: true,
        });
    }

    let mut plans: Vec<(WinnerPolicy, FaultPlan)> = Vec::new();
    for policy in &cfg.policies {
        plans.push((
            policy.clone(),
            FaultPlan::new(cfg.seed).with_winner(policy.clone()),
        ));
    }
    for &seed in &cfg.extra_seeds {
        plans.push((WinnerPolicy::SeededRandom, FaultPlan::new(seed)));
    }

    for (policy, plan) in plans {
        let probe = run(&plan)?;
        runs += 1;
        if probe.output != baseline.output {
            let log = probe.faults.clone().unwrap_or_default();
            let (phase, addr, writers) = first_divergence(&base_log, &log).unwrap_or((0, 0, 0));
            return Ok(RaceReport {
                runs,
                witness: Some(RaceWitness {
                    policy,
                    phase,
                    addr,
                    writers,
                    contending_pids: Vec::new(),
                    baseline_output: baseline.output,
                    divergent_output: probe.output,
                }),
                exhaustive: false,
            });
        }
    }

    // Exhaustive scripted enumeration when the choice space is small. The
    // radices come from the baseline; a resolution that changes control
    // flow grows its own choice sequence, which the odometer handles by
    // treating missing digits as zero.
    let radices = base_log.choice_radices();
    let space: u64 = radices
        .iter()
        .try_fold(1u64, |acc, &r| acc.checked_mul(r as u64))
        .unwrap_or(u64::MAX);
    let exhaustive = !base_log.choices_truncated && space <= cfg.exhaustive_limit;
    if exhaustive {
        let mut script = vec![0usize; radices.len()];
        loop {
            let policy = WinnerPolicy::Scripted(script.clone());
            let plan = FaultPlan::new(cfg.seed).with_winner(policy.clone());
            let probe = run(&plan)?;
            runs += 1;
            if probe.output != baseline.output {
                let log = probe.faults.clone().unwrap_or_default();
                let (phase, addr, writers) = first_divergence(&base_log, &log).unwrap_or((0, 0, 0));
                return Ok(RaceReport {
                    runs,
                    witness: Some(RaceWitness {
                        policy,
                        phase,
                        addr,
                        writers,
                        contending_pids: Vec::new(),
                        baseline_output: baseline.output,
                        divergent_output: probe.output,
                    }),
                    exhaustive: false,
                });
            }
            if !advance_script(&mut script, &radices) {
                break;
            }
        }
    }

    Ok(RaceReport {
        runs,
        witness: None,
        exhaustive,
    })
}

/// Race-checks a QSM program: replays it under perturbed arbitration and
/// compares the `observe` region of final memory.
///
/// On divergence the witness is enriched with the contending processor
/// ids via one traced replay under the divergent policy.
pub fn detect_races_qsm<P: Program>(
    machine: &QsmMachine,
    program: &P,
    input: &[Word],
    observe: Range<Addr>,
    cfg: &RaceConfig,
) -> Result<RaceReport> {
    let mut report = detect_races_with(cfg, |plan| {
        let m = machine.clone().with_faults(plan.clone());
        let res = m.run(program, input)?;
        Ok(Probe {
            output: res.memory.slice(observe.start, observe.len()),
            faults: res.faults,
        })
    })?;

    if let Some(w) = report.witness.as_mut() {
        let m = machine
            .clone()
            .with_faults(FaultPlan::new(cfg.seed).with_winner(w.policy.clone()));
        let (_, trace) = m.run_traced(program, input)?;
        if let Some(pt) = trace.phases.get(w.phase) {
            w.contending_pids = pt
                .writes
                .iter()
                .enumerate()
                .filter(|(_, ws)| ws.iter().any(|&(a, _)| a == w.addr))
                .map(|(pid, _)| pid)
                .collect();
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use parbounds_models::{FnProgram, PhaseEnv, Status};

    /// Every processor writes its own pid to cell 0: a textbook race —
    /// the observable output is whatever writer the arbiter picks.
    fn racy_program(p: usize) -> impl Program<Proc = ()> {
        FnProgram::new(
            p,
            |_pid| (),
            |pid, _st: &mut (), env: &mut PhaseEnv<'_>| {
                env.write(0, pid as Word + 1);
                Status::Done
            },
        )
    }

    /// Every processor writes the SAME value to cell 0: concurrent but
    /// confluent, so arbitration cannot be observed.
    fn confluent_program(p: usize) -> impl Program<Proc = ()> {
        FnProgram::new(
            p,
            |_pid| (),
            |_pid, _st: &mut (), env: &mut PhaseEnv<'_>| {
                env.write(0, 7);
                Status::Done
            },
        )
    }

    #[test]
    fn racy_program_yields_witness() {
        let machine = QsmMachine::qsm(2);
        let report =
            detect_races_qsm(&machine, &racy_program(4), &[], 0..1, &RaceConfig::new(11)).unwrap();
        let w = report.witness.expect("race must be detected");
        assert_eq!(w.addr, 0);
        assert_eq!(w.writers, 4);
        assert_eq!(w.contending_pids, vec![0, 1, 2, 3]);
        assert_ne!(w.baseline_output, w.divergent_output);
    }

    #[test]
    fn confluent_program_is_deterministic_and_exhaustively_verified() {
        let machine = QsmMachine::qsm(2);
        let report = detect_races_qsm(
            &machine,
            &confluent_program(4),
            &[],
            0..1,
            &RaceConfig::new(3),
        )
        .unwrap();
        assert!(report.is_deterministic());
        // One choice point of radix 4 ≤ the default exhaustive limit.
        assert!(report.exhaustive);
        assert!(report.runs > 1);
    }

    #[test]
    fn race_free_program_skips_perturbation() {
        let prog = FnProgram::new(
            2,
            |_pid| (),
            |pid, _st: &mut (), env: &mut PhaseEnv<'_>| {
                env.write(10 + pid, pid as Word);
                Status::Done
            },
        );
        let machine = QsmMachine::qsm(2);
        let report = detect_races_qsm(&machine, &prog, &[], 10..12, &RaceConfig::new(5)).unwrap();
        assert!(report.is_deterministic());
        assert!(report.exhaustive);
        assert_eq!(report.runs, 1);
    }
}
