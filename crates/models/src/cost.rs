//! Cost accounting shared by all model simulators.
//!
//! Every machine in this crate executes a bulk-synchronous program as a
//! sequence of *phases* (QSM/s-QSM/GSM terminology) or *supersteps* (BSP
//! terminology). Each phase is charged exactly the cost formula of its model
//! as defined in Section 2 of MacKenzie & Ramachandran (SPAA 1998). The
//! [`CostLedger`] records the raw per-phase quantities so that callers can
//! re-derive costs, check the *rounds* predicate of Section 2.3, or audit
//! degree-growth recurrences (see the `parbounds-adversary` crate).

/// Raw, model-independent measurements for a single phase/superstep.
///
/// The fields use the paper's notation:
/// * `m_op`: maximum local computation performed by any processor
///   (`max_i c_i`),
/// * `m_rw`: maximum number of shared-memory reads or writes issued by any
///   processor (`max{1, max_i {r_i, w_i}}`), or for the BSP the maximum
///   number of messages sent or received by any processor (`h`),
/// * `kappa`: maximum contention — the maximum over all locations of the
///   number of processors reading that location or the number writing it.
///   A phase with no reads or writes has contention 1. Not meaningful on the
///   BSP, where it is recorded as 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseCost {
    /// `max_i c_i` — maximum local operations by any processor.
    pub m_op: u64,
    /// `max{1, max_i {r_i, w_i}}` — maximum reads-or-writes by any processor.
    pub m_rw: u64,
    /// Maximum contention at any cell (1 if no accesses).
    pub kappa: u64,
    /// The model-specific time charged for this phase.
    pub cost: u64,
}

impl PhaseCost {
    /// A phase in which nothing happened (still charged the model minimum).
    pub fn idle(min_cost: u64) -> Self {
        PhaseCost {
            m_op: 0,
            m_rw: 1,
            kappa: 1,
            cost: min_cost,
        }
    }
}

/// Append-only record of the phases of one execution.
///
/// The ledger is the interface between "running an algorithm" and "comparing
/// against the paper's bounds": the total time of an algorithm is the sum of
/// its phase costs (Section 2.1), and the number of *rounds* is the number
/// of phases provided every phase satisfies the round budget (Section 2.3).
///
/// Every summary the bound checks consume (total time, phase count, maxima,
/// the rounds predicate) is folded into running aggregates on [`push`], so
/// reading them is O(1) regardless of phase count. The per-phase vector is
/// retained by default (analyzers and the serve wire codec walk it); a
/// ledger built with [`CostLedger::streaming`] drops it, making the
/// ledger's footprint O(1) in the number of phases — this is what the
/// million-scale sweeps run with.
///
/// [`push`]: CostLedger::push
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CostLedger {
    phases: Vec<PhaseCost>,
    streaming: bool,
    num_phases: usize,
    total_time: u64,
    max_phase_cost: u64,
    max_kappa: u64,
    max_rw: u64,
}

impl CostLedger {
    /// Creates an empty ledger that retains per-phase records.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty retaining ledger with room for `phases` phases, so
    /// a ledger of known length (e.g. one decoded from the wire) holds no
    /// spare capacity.
    pub fn with_capacity(phases: usize) -> Self {
        CostLedger {
            phases: Vec::with_capacity(phases),
            ..Self::default()
        }
    }

    /// Creates an empty *streaming* ledger: phases fold into the running
    /// aggregates only, [`CostLedger::phases`] stays empty, and the
    /// ledger's memory is O(1) in the number of phases. All aggregate
    /// accessors return exactly the values a retaining ledger would.
    pub fn streaming() -> Self {
        CostLedger {
            streaming: true,
            ..Self::default()
        }
    }

    /// Whether this ledger drops per-phase records (built with
    /// [`CostLedger::streaming`]).
    pub fn is_streaming(&self) -> bool {
        self.streaming
    }

    /// Records one phase.
    pub fn push(&mut self, phase: PhaseCost) {
        self.num_phases += 1;
        self.total_time += phase.cost;
        self.max_phase_cost = self.max_phase_cost.max(phase.cost);
        self.max_kappa = self.max_kappa.max(phase.kappa);
        self.max_rw = self.max_rw.max(phase.m_rw);
        if !self.streaming {
            self.phases.push(phase);
        }
    }

    /// Number of phases (equivalently supersteps) executed.
    pub fn num_phases(&self) -> usize {
        self.num_phases
    }

    /// Total time: the sum of the per-phase costs.
    pub fn total_time(&self) -> u64 {
        self.total_time
    }

    /// The most expensive single phase.
    pub fn max_phase_cost(&self) -> u64 {
        self.max_phase_cost
    }

    /// Maximum contention observed in any phase.
    pub fn max_contention(&self) -> u64 {
        if self.num_phases == 0 {
            1
        } else {
            self.max_kappa
        }
    }

    /// Maximum `m_rw` observed in any phase.
    pub fn max_rw(&self) -> u64 {
        if self.num_phases == 0 {
            1
        } else {
            self.max_rw
        }
    }

    /// Per-phase records, in execution order. Empty for a streaming ledger
    /// even when [`CostLedger::num_phases`] is nonzero.
    pub fn phases(&self) -> &[PhaseCost] {
        &self.phases
    }

    /// Section 2.3 rounds predicate: every phase must fit in `budget` time.
    ///
    /// On a QSM or s-QSM a *round* is a phase that takes `O(g·n/p)` time; on
    /// a BSP it is a superstep routing an `O(n/p)`-relation with
    /// `O(g·n/p + L)` work. The caller computes the concrete budget (with
    /// its constant) via [`round_budget_qsm`] / [`round_budget_bsp`] and the
    /// ledger checks conformance. (Every phase fits iff the most expensive
    /// one does, so the check reads the running maximum.)
    pub fn is_round_respecting(&self, budget: u64) -> bool {
        self.max_phase_cost <= budget
    }

    /// Number of rounds, i.e. number of phases, if every phase fits in
    /// `budget`; `None` if some phase overruns the budget (the computation
    /// does not "compute in rounds" for that budget).
    pub fn rounds(&self, budget: u64) -> Option<usize> {
        if self.is_round_respecting(budget) {
            Some(self.num_phases())
        } else {
            None
        }
    }

    /// Work = processor-time product for `p` processors.
    ///
    /// Section 2.3: a `p`-processor QSM/s-QSM algorithm performs *linear
    /// work* if this product is `O(g·n)`.
    pub fn work(&self, p: u64) -> u64 {
        self.total_time().saturating_mul(p)
    }
}

/// Round budget for a `p`-processor QSM or s-QSM on an `n`-element input:
/// `slack · g · ceil(n/p)` (Section 2.3, with an explicit slack constant).
pub fn round_budget_qsm(n: u64, p: u64, g: u64, slack: u64) -> u64 {
    slack * g * n.div_ceil(p.max(1)).max(1)
}

/// Round budget for a `p`-processor BSP: a superstep routing an
/// `O(n/p)`-relation and doing `O(g·n/p + L)` work costs at most
/// `slack · (g·ceil(n/p) + L)` (Section 2.3).
pub fn round_budget_bsp(n: u64, p: u64, g: u64, l: u64, slack: u64) -> u64 {
    slack * (g * n.div_ceil(p.max(1)).max(1) + l)
}

/// Round budget for a `p`-processor GSM(α, β, γ): a round is a phase taking
/// `O(μ·n/(λ·p))` time where `μ = max{α,β}`, `λ = min{α,β}` (Section 2.3).
pub fn round_budget_gsm(n: u64, p: u64, alpha: u64, beta: u64, slack: u64) -> u64 {
    let mu = alpha.max(beta).max(1);
    let lambda = alpha.min(beta).max(1);
    slack * mu * n.div_ceil(lambda * p.max(1)).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ledger(costs: &[(u64, u64, u64, u64)]) -> CostLedger {
        let mut l = CostLedger::new();
        for &(m_op, m_rw, kappa, cost) in costs {
            l.push(PhaseCost {
                m_op,
                m_rw,
                kappa,
                cost,
            });
        }
        l
    }

    #[test]
    fn total_time_is_sum_of_phase_costs() {
        let l = ledger(&[(1, 1, 1, 4), (2, 3, 1, 12), (0, 1, 5, 5)]);
        assert_eq!(l.total_time(), 21);
        assert_eq!(l.num_phases(), 3);
        assert_eq!(l.max_phase_cost(), 12);
    }

    #[test]
    fn empty_ledger_is_zero_cost() {
        let l = CostLedger::new();
        assert_eq!(l.total_time(), 0);
        assert_eq!(l.num_phases(), 0);
        assert_eq!(l.max_phase_cost(), 0);
        assert_eq!(l.max_contention(), 1);
        assert!(l.is_round_respecting(0));
        assert_eq!(l.rounds(0), Some(0));
    }

    #[test]
    fn rounds_predicate_rejects_overrunning_phase() {
        let l = ledger(&[(1, 1, 1, 4), (1, 1, 1, 9)]);
        assert!(l.is_round_respecting(9));
        assert_eq!(l.rounds(9), Some(2));
        assert!(!l.is_round_respecting(8));
        assert_eq!(l.rounds(8), None);
    }

    #[test]
    fn qsm_round_budget_matches_definition() {
        // n = 64, p = 8, g = 2, slack 1: g * n/p = 16.
        assert_eq!(round_budget_qsm(64, 8, 2, 1), 16);
        // Ceiling division: n = 65, p = 8 -> ceil = 9.
        assert_eq!(round_budget_qsm(65, 8, 2, 1), 18);
        // slack scales linearly.
        assert_eq!(round_budget_qsm(64, 8, 2, 3), 48);
    }

    #[test]
    fn bsp_round_budget_includes_latency() {
        assert_eq!(round_budget_bsp(64, 8, 2, 10, 1), 26);
        assert_eq!(round_budget_bsp(64, 8, 2, 10, 2), 52);
    }

    #[test]
    fn gsm_round_budget_uses_mu_over_lambda() {
        // alpha=1, beta=4: mu=4, lambda=1, n=32, p=4 -> 4 * ceil(32/4) = 32.
        assert_eq!(round_budget_gsm(32, 4, 1, 4, 1), 32);
        // alpha=beta=1: mu=lambda=1 -> n/p.
        assert_eq!(round_budget_gsm(32, 4, 1, 1, 1), 8);
    }

    #[test]
    fn work_is_processor_time_product() {
        let l = ledger(&[(1, 2, 1, 8), (1, 1, 1, 2)]);
        assert_eq!(l.work(16), 160);
    }

    #[test]
    fn streaming_ledger_matches_retaining_aggregates() {
        let costs = [(1, 1, 1, 4), (2, 3, 7, 12), (0, 1, 5, 5), (9, 2, 1, 1)];
        let full = ledger(&costs);
        let mut streaming = CostLedger::streaming();
        for &(m_op, m_rw, kappa, cost) in &costs {
            streaming.push(PhaseCost {
                m_op,
                m_rw,
                kappa,
                cost,
            });
        }
        assert!(streaming.is_streaming() && !full.is_streaming());
        assert!(streaming.phases().is_empty(), "streaming retains nothing");
        assert_eq!(streaming.num_phases(), full.num_phases());
        assert_eq!(streaming.total_time(), full.total_time());
        assert_eq!(streaming.max_phase_cost(), full.max_phase_cost());
        assert_eq!(streaming.max_contention(), full.max_contention());
        assert_eq!(streaming.max_rw(), full.max_rw());
        for budget in [0, 1, 11, 12, 13] {
            assert_eq!(
                streaming.is_round_respecting(budget),
                full.is_round_respecting(budget)
            );
            assert_eq!(streaming.rounds(budget), full.rounds(budget));
        }
        assert_eq!(streaming.work(16), full.work(16));
        // Empty streaming ledgers share the empty-ledger conventions.
        let empty = CostLedger::streaming();
        assert_eq!(empty.max_contention(), 1);
        assert_eq!(empty.max_rw(), 1);
        assert_eq!(empty.max_phase_cost(), 0);
    }

    #[test]
    fn presized_ledger_equals_a_grown_one() {
        let costs = [(1, 1, 1, 4), (2, 3, 7, 12), (0, 1, 5, 5)];
        let mut presized = CostLedger::with_capacity(costs.len());
        assert_eq!(presized, CostLedger::new());
        for &(m_op, m_rw, kappa, cost) in &costs {
            presized.push(PhaseCost {
                m_op,
                m_rw,
                kappa,
                cost,
            });
        }
        assert!(!presized.is_streaming());
        assert_eq!(presized, ledger(&costs));
    }

    #[test]
    fn idle_phase_has_unit_contention() {
        let p = PhaseCost::idle(3);
        assert_eq!(p.kappa, 1);
        assert_eq!(p.m_rw, 1);
        assert_eq!(p.cost, 3);
    }
}
