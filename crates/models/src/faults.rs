//! Fault injection and execution hardening for the model simulators.
//!
//! The paper's upper bounds are statements about *expected* behaviour under
//! the models' nondeterminism — most importantly the QSM's arbitrary-write
//! rule, under which a correct algorithm must produce the right answer for
//! **every** choice of concurrent-write winners, not just the ones a seeded
//! RNG happens to pick. A [`FaultPlan`] makes that nondeterminism (and a
//! family of execution faults layered on top) an explicit, reproducible
//! machine parameter:
//!
//! * **Winner policies** ([`WinnerPolicy`]) replace the default seeded
//!   arbitration of concurrent writes with adversarial (first/last writer,
//!   min/max value) or *scripted* choices. Scripted winners plus the choice
//!   points recorded in the [`FaultLog`] allow exhaustive enumeration of
//!   every arbitration outcome on small instances (see [`advance_script`]).
//! * **Message faults** (BSP only): each point-to-point message is
//!   independently dropped with probability `drop_prob` and duplicated with
//!   probability `dup_prob`.
//! * **Processor faults**: a processor can be *stalled* at a global phase
//!   (it skips the phase; its pending deliveries and inbox are retained and
//!   it resumes at its own next local phase) or *crashed* (the engine
//!   aborts the run with [`ModelError::FaultAborted`] — a crashed
//!   shared-state computation is never reported as an `Ok` result).
//! * **Budget guards**: a cost budget (total model time) and a phase budget
//!   turn runaway degraded executions into typed errors
//!   ([`ModelError::CostBudgetExceeded`], [`ModelError::PhaseLimitExceeded`])
//!   instead of hangs.
//!
//! Plans are attached to machines with `with_faults` (on
//! [`crate::QsmMachine`], [`crate::BspMachine`] and [`crate::GsmMachine`]),
//! so *any* program — every Section 8 algorithm unchanged — runs under the
//! plan; the engines report what was injected in the `faults` field of
//! their run results.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use std::collections::HashSet;

use crate::error::{ModelError, Result};
use crate::shared::{Addr, Word};

/// Cap on recorded write-arbitration choice points (enough for exhaustive
/// enumeration on small instances without unbounded logs on big ones).
pub const MAX_LOGGED_CHOICES: usize = 1 << 16;

/// How concurrent writes to one cell are arbitrated.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WinnerPolicy {
    /// Uniform random winner from the plan's seeded RNG (the default; this
    /// is also what a machine without a fault plan does with its own seed).
    SeededRandom,
    /// The lowest-pid writer wins (writers are considered in pid order).
    FirstWriter,
    /// The highest-pid writer wins.
    LastWriter,
    /// The smallest written value wins.
    MinValue,
    /// The largest written value wins.
    MaxValue,
    /// Choice `i` of the run takes index `script[i] % writers` among the
    /// cell's writers in pid order (missing digits read as 0). Combined
    /// with the radices recorded in [`FaultLog::write_choices`] this
    /// enumerates the full arbitration space — see [`advance_script`].
    Scripted(Vec<usize>),
}

/// A reproducible description of the faults to inject into one execution.
///
/// Built with a fluent API:
///
/// ```
/// use parbounds_models::{FaultPlan, WinnerPolicy};
///
/// let plan = FaultPlan::new(42)
///     .with_winner(WinnerPolicy::MinValue)
///     .with_drop_prob(0.2)
///     .with_stall(3, 5)
///     .with_cost_budget(1_000_000);
/// assert_eq!(plan.seed(), 42);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    winner: WinnerPolicy,
    drop_prob: f64,
    dup_prob: f64,
    crashes: Vec<(usize, usize)>,
    stalls: Vec<(usize, usize)>,
    cost_budget: Option<u64>,
    phase_budget: Option<usize>,
}

impl FaultPlan {
    /// A fault-free plan (seeded-random winners, no faults, no budgets).
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            winner: WinnerPolicy::SeededRandom,
            drop_prob: 0.0,
            dup_prob: 0.0,
            crashes: Vec::new(),
            stalls: Vec::new(),
            cost_budget: None,
            phase_budget: None,
        }
    }

    /// Replaces the RNG seed (used by retry-with-reseed wrappers).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the concurrent-write arbitration policy.
    pub fn with_winner(mut self, winner: WinnerPolicy) -> Self {
        self.winner = winner;
        self
    }

    /// Sets the per-message drop probability (BSP only). Panics unless
    /// `0 ≤ p ≤ 1`.
    pub fn with_drop_prob(mut self, p: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&p),
            "drop probability {p} outside [0, 1]"
        );
        self.drop_prob = p;
        self
    }

    /// Sets the per-message duplication probability (BSP only). Panics
    /// unless `0 ≤ p ≤ 1`.
    pub fn with_dup_prob(mut self, p: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&p),
            "dup probability {p} outside [0, 1]"
        );
        self.dup_prob = p;
        self
    }

    /// Crashes processor `pid` at global phase/superstep `phase`: the engine
    /// aborts with [`ModelError::FaultAborted`] when the phase is reached.
    pub fn with_crash(mut self, pid: usize, phase: usize) -> Self {
        self.crashes.push((pid, phase));
        self
    }

    /// Stalls processor `pid` at global phase/superstep `phase`: it skips
    /// the phase (deliveries retained) and resumes afterwards.
    pub fn with_stall(mut self, pid: usize, phase: usize) -> Self {
        self.stalls.push((pid, phase));
        self
    }

    /// Aborts the run with [`ModelError::CostBudgetExceeded`] once total
    /// model time exceeds `budget`.
    pub fn with_cost_budget(mut self, budget: u64) -> Self {
        self.cost_budget = Some(budget);
        self
    }

    /// Caps the number of phases/supersteps (tightens the machine's own
    /// `max_phases`; overruns give [`ModelError::PhaseLimitExceeded`]).
    pub fn with_phase_budget(mut self, budget: usize) -> Self {
        self.phase_budget = Some(budget);
        self
    }

    /// The plan's RNG seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The winner policy.
    pub fn winner(&self) -> &WinnerPolicy {
        &self.winner
    }

    /// Per-message drop probability.
    pub fn drop_prob(&self) -> f64 {
        self.drop_prob
    }

    /// Per-message duplication probability.
    pub fn dup_prob(&self) -> f64 {
        self.dup_prob
    }

    /// Scheduled crashes as `(pid, phase)` pairs.
    pub fn crashes(&self) -> &[(usize, usize)] {
        &self.crashes
    }

    /// Scheduled stalls as `(pid, phase)` pairs.
    pub fn stalls(&self) -> &[(usize, usize)] {
        &self.stalls
    }

    /// The cost budget, if any.
    pub fn cost_budget(&self) -> Option<u64> {
        self.cost_budget
    }

    /// The phase budget, if any.
    pub fn phase_budget(&self) -> Option<usize> {
        self.phase_budget
    }

    /// Does this plan inject anything that can change the *result* of a run
    /// (as opposed to only bounding it)? Winner policies count: under the
    /// arbitrary-write rule a correct program must tolerate every winner,
    /// so harnesses verify outputs whenever this is true.
    pub fn perturbs_execution(&self) -> bool {
        self.winner != WinnerPolicy::SeededRandom
            || self.drop_prob > 0.0
            || self.dup_prob > 0.0
            || !self.crashes.is_empty()
            || !self.stalls.is_empty()
    }
}

/// One recorded concurrent-write arbitration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChoicePoint {
    /// Global phase of the arbitration.
    pub phase: usize,
    /// The contended cell.
    pub addr: Addr,
    /// Number of concurrent writers (the radix of this choice).
    pub writers: usize,
    /// Index of the winner among the writers in pid order.
    pub chosen: usize,
}

/// What an execution's fault injector actually did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultLog {
    /// Messages dropped (BSP).
    pub dropped: u64,
    /// Messages duplicated (BSP).
    pub duplicated: u64,
    /// Stall faults applied.
    pub stalls_applied: u64,
    /// Concurrent-write arbitrations, in deterministic (phase, address)
    /// order — the coordinate system for [`WinnerPolicy::Scripted`].
    pub write_choices: Vec<ChoicePoint>,
    /// True if more than [`MAX_LOGGED_CHOICES`] arbitrations occurred and
    /// the log was truncated (exhaustive enumeration is then impossible).
    pub choices_truncated: bool,
}

impl FaultLog {
    /// The radix (writer count) of every recorded choice point, for
    /// [`advance_script`].
    pub fn choice_radices(&self) -> Vec<usize> {
        self.write_choices.iter().map(|c| c.writers).collect()
    }

    /// Total injected perturbations (a scalar for degradation tables).
    pub fn events(&self) -> u64 {
        self.dropped + self.duplicated + self.stalls_applied
    }
}

/// Per-run fault state: the plan, its RNG, the script cursor and the log.
///
/// The engines create one injector per execution; algorithm code never
/// touches this type directly.
#[derive(Debug)]
pub struct FaultInjector {
    plan: FaultPlan,
    rng: ChaCha8Rng,
    cursor: usize,
    log: FaultLog,
    crash_set: HashSet<(usize, usize)>,
    stall_set: HashSet<(usize, usize)>,
}

impl FaultInjector {
    /// Builds the injector for one execution of `plan`.
    pub fn new(plan: &FaultPlan) -> Self {
        FaultInjector {
            rng: ChaCha8Rng::seed_from_u64(plan.seed),
            cursor: 0,
            log: FaultLog::default(),
            crash_set: plan.crashes.iter().copied().collect(),
            stall_set: plan.stalls.iter().copied().collect(),
            plan: plan.clone(),
        }
    }

    /// Is processor `pid` scheduled to crash at global phase `phase`?
    pub fn crash_at(&self, pid: usize, phase: usize) -> bool {
        self.crash_set.contains(&(pid, phase))
    }

    /// Applies (and logs) a stall of `pid` at `phase` if one is scheduled.
    pub fn stall_at(&mut self, pid: usize, phase: usize) -> bool {
        let hit = self.stall_set.contains(&(pid, phase));
        if hit {
            self.log.stalls_applied += 1;
        }
        hit
    }

    /// Decides (and logs) whether the next message is dropped.
    pub fn drop_message(&mut self) -> bool {
        let hit = self.plan.drop_prob > 0.0 && self.rng.gen_bool(self.plan.drop_prob);
        if hit {
            self.log.dropped += 1;
        }
        hit
    }

    /// Decides (and logs) whether the next message is duplicated.
    pub fn duplicate_message(&mut self) -> bool {
        let hit = self.plan.dup_prob > 0.0 && self.rng.gen_bool(self.plan.dup_prob);
        if hit {
            self.log.duplicated += 1;
        }
        hit
    }

    /// Arbitrates one cell's concurrent writes under the plan's policy.
    /// `values` holds the written values in pid order and must be
    /// non-empty; the winning value is returned and the choice logged.
    pub fn pick_winner(&mut self, phase: usize, addr: Addr, values: &[Word]) -> Word {
        debug_assert!(!values.is_empty());
        let idx = match &self.plan.winner {
            WinnerPolicy::SeededRandom => self.rng.gen_range(0..values.len()),
            WinnerPolicy::FirstWriter => 0,
            WinnerPolicy::LastWriter => values.len() - 1,
            WinnerPolicy::MinValue => {
                let mut best = 0;
                for (i, &v) in values.iter().enumerate() {
                    if v < values[best] {
                        best = i;
                    }
                }
                best
            }
            WinnerPolicy::MaxValue => {
                let mut best = 0;
                for (i, &v) in values.iter().enumerate() {
                    if v > values[best] {
                        best = i;
                    }
                }
                best
            }
            WinnerPolicy::Scripted(script) => {
                let digit = script.get(self.cursor).copied().unwrap_or(0);
                digit % values.len()
            }
        };
        self.cursor += 1;
        if self.log.write_choices.len() < MAX_LOGGED_CHOICES {
            self.log.write_choices.push(ChoicePoint {
                phase,
                addr,
                writers: values.len(),
                chosen: idx,
            });
        } else {
            self.log.choices_truncated = true;
        }
        values[idx]
    }

    /// Enforces the plan's cost budget against the running total.
    pub fn check_cost(&self, total: u64) -> Result<()> {
        match self.plan.cost_budget {
            Some(budget) if total > budget => Err(ModelError::CostBudgetExceeded {
                budget,
                cost: total,
            }),
            _ => Ok(()),
        }
    }

    /// The effective phase limit: the machine's own limit tightened by the
    /// plan's phase budget.
    pub fn effective_phase_limit(&self, machine_limit: usize) -> usize {
        self.plan
            .phase_budget
            .map_or(machine_limit, |b| b.min(machine_limit))
    }

    /// Consumes the injector, yielding its log.
    pub fn into_log(self) -> FaultLog {
        self.log
    }
}

/// Advances a [`WinnerPolicy::Scripted`] digit vector to the next point of
/// the arbitration space, odometer style. `radices[i]` is the writer count
/// of choice `i` as recorded by the *previous* run's
/// [`FaultLog::choice_radices`]; returns `false` once the space is
/// exhausted.
///
/// Exhaustively checking a program against the arbitrary-write rule is a
/// loop: run with `Scripted(script)`, read back the radices, and advance:
///
/// ```
/// use parbounds_models::faults::advance_script;
///
/// let mut script = Vec::new();
/// let mut seen = Vec::new();
/// loop {
///     // ... run with WinnerPolicy::Scripted(script.clone()), check output,
///     // and read the radices from the run's FaultLog; here a fixed shape:
///     let radices = vec![2, 3];
///     seen.push(script.clone());
///     if !advance_script(&mut script, &radices) {
///         break;
///     }
/// }
/// assert_eq!(seen.len(), 6); // every (i, j) in 2 x 3
/// ```
pub fn advance_script(script: &mut Vec<usize>, radices: &[usize]) -> bool {
    script.resize(radices.len(), 0);
    for i in (0..radices.len()).rev() {
        script[i] += 1;
        if script[i] < radices[i].max(1) {
            return true;
        }
        script[i] = 0;
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_builder_round_trips() {
        let plan = FaultPlan::new(7)
            .with_winner(WinnerPolicy::LastWriter)
            .with_drop_prob(0.25)
            .with_dup_prob(0.1)
            .with_crash(2, 9)
            .with_stall(0, 1)
            .with_cost_budget(500)
            .with_phase_budget(64);
        assert_eq!(plan.seed(), 7);
        assert_eq!(plan.winner(), &WinnerPolicy::LastWriter);
        assert_eq!(plan.drop_prob(), 0.25);
        assert_eq!(plan.dup_prob(), 0.1);
        assert_eq!(plan.crashes(), &[(2, 9)]);
        assert_eq!(plan.stalls(), &[(0, 1)]);
        assert_eq!(plan.cost_budget(), Some(500));
        assert_eq!(plan.phase_budget(), Some(64));
        assert!(plan.perturbs_execution());
        assert!(!FaultPlan::new(7).perturbs_execution());
        assert!(!FaultPlan::new(7).with_cost_budget(5).perturbs_execution());
    }

    #[test]
    #[should_panic(expected = "outside [0, 1]")]
    fn plan_rejects_bad_probability() {
        let _ = FaultPlan::new(0).with_drop_prob(1.5);
    }

    #[test]
    fn winner_policies_pick_the_documented_index() {
        let vals = [30, 10, 20];
        let pick = |w: WinnerPolicy| {
            let mut inj = FaultInjector::new(&FaultPlan::new(1).with_winner(w));
            inj.pick_winner(0, 0, &vals)
        };
        assert_eq!(pick(WinnerPolicy::FirstWriter), 30);
        assert_eq!(pick(WinnerPolicy::LastWriter), 20);
        assert_eq!(pick(WinnerPolicy::MinValue), 10);
        assert_eq!(pick(WinnerPolicy::MaxValue), 30);
        assert_eq!(pick(WinnerPolicy::Scripted(vec![1])), 10);
        assert_eq!(pick(WinnerPolicy::Scripted(vec![5])), 20); // 5 % 3
        assert_eq!(pick(WinnerPolicy::Scripted(vec![])), 30); // missing digit = 0
    }

    #[test]
    fn seeded_random_winner_is_deterministic_and_logged() {
        let plan = FaultPlan::new(99);
        let run = || {
            let mut inj = FaultInjector::new(&plan);
            let a = inj.pick_winner(0, 4, &[1, 2, 3, 4]);
            let b = inj.pick_winner(1, 9, &[5, 6]);
            (a, b, inj.into_log())
        };
        let (a1, b1, log1) = run();
        let (a2, b2, log2) = run();
        assert_eq!((a1, b1), (a2, b2));
        assert_eq!(log1, log2);
        assert_eq!(log1.write_choices.len(), 2);
        assert_eq!(log1.write_choices[0].writers, 4);
        assert_eq!(log1.choice_radices(), vec![4, 2]);
    }

    #[test]
    fn message_fault_rates_are_roughly_honoured() {
        let mut inj = FaultInjector::new(&FaultPlan::new(3).with_drop_prob(0.5));
        let drops = (0..2000).filter(|_| inj.drop_message()).count();
        assert!((800..1200).contains(&drops), "drops {drops}");
        let log = inj.into_log();
        assert_eq!(log.dropped as usize, drops);
        assert_eq!(log.duplicated, 0);

        let mut none = FaultInjector::new(&FaultPlan::new(3));
        assert!((0..100).all(|_| !none.drop_message() && !none.duplicate_message()));
    }

    #[test]
    fn budgets_and_schedules_are_enforced() {
        let plan = FaultPlan::new(0)
            .with_cost_budget(10)
            .with_crash(1, 2)
            .with_stall(0, 3);
        let mut inj = FaultInjector::new(&plan);
        assert!(inj.check_cost(10).is_ok());
        assert_eq!(
            inj.check_cost(11),
            Err(ModelError::CostBudgetExceeded {
                budget: 10,
                cost: 11
            })
        );
        assert!(inj.crash_at(1, 2));
        assert!(!inj.crash_at(1, 3));
        assert!(inj.stall_at(0, 3));
        assert!(!inj.stall_at(0, 4));
        assert_eq!(inj.effective_phase_limit(100), 100);
        let tight = FaultInjector::new(&FaultPlan::new(0).with_phase_budget(5));
        assert_eq!(tight.effective_phase_limit(100), 5);
        assert_eq!(inj.into_log().stalls_applied, 1);
    }

    #[test]
    fn advance_script_enumerates_the_product() {
        let radices = [2usize, 1, 3];
        let mut script = Vec::new();
        let mut seen = vec![];
        loop {
            seen.push(script.clone());
            if !advance_script(&mut script, &radices) {
                break;
            }
        }
        // Radices (2, 1, 3) enumerate a product space of 6 scripts, the
        // first being the empty script (all digits default 0).
        assert_eq!(seen.len(), 6);
        let mut dedup: Vec<Vec<usize>> = seen
            .iter()
            .map(|s| {
                let mut v = s.clone();
                v.resize(3, 0);
                v
            })
            .collect();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), 6);
    }

    #[test]
    fn choice_log_truncates_at_the_cap() {
        let mut inj = FaultInjector::new(&FaultPlan::new(1));
        for i in 0..MAX_LOGGED_CHOICES + 10 {
            inj.pick_winner(i, 0, &[1, 2]);
        }
        let log = inj.into_log();
        assert_eq!(log.write_choices.len(), MAX_LOGGED_CHOICES);
        assert!(log.choices_truncated);
    }
}
