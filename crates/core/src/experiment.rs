//! Experiment runner: pairs *measured* algorithm costs on the simulators
//! with the *analytic* Table 1 bounds, producing the rows the benchmark
//! harness prints (one generator per sub-table — see DESIGN.md's
//! experiment index).

use parbounds_algo::{
    bsp_algos, lac, or_tree, parity, prefix, reduce, rounds as algo_rounds, workloads,
};
use parbounds_models::{BspMachine, CostLedger, ModelError, QsmMachine, Result, Word};
use parbounds_tables::{
    best_lower_bound, upper_bound_rounds, upper_bound_time, Metric, Mode, Model, Params, Problem,
};

/// One measured-vs-bound row of a regenerated table.
#[derive(Debug, Clone, PartialEq)]
pub struct TableRow {
    /// The problem.
    pub problem: Problem,
    /// The model.
    pub model: Model,
    /// Parameters the row was produced at.
    pub params: Params,
    /// Deterministic lower bound (strongest registry entry).
    pub det_lb: f64,
    /// Randomized lower bound.
    pub rand_lb: f64,
    /// Section 8 upper-bound formula value.
    pub upper_formula: f64,
    /// Measured cost of our implementation of the Section 8 algorithm
    /// (`None` where the row has no implemented upper bound).
    pub measured: Option<f64>,
    /// Name of the measured algorithm.
    pub algorithm: &'static str,
}

impl TableRow {
    /// `measured / upper_formula`: flat across a sweep ⇔ the implementation
    /// realizes the claimed shape.
    pub fn shape_ratio(&self) -> Option<f64> {
        self.measured.map(|m| m / self.upper_formula.max(1e-9))
    }

    /// Measured must sit at or above the (deterministic for det algorithms,
    /// randomized for randomized ones) lower bound, up to `slack`.
    pub fn measured_respects_lower_bound(&self, randomized: bool, slack: f64) -> bool {
        let lb = if randomized {
            self.rand_lb
        } else {
            self.det_lb
        };
        self.measured.is_none_or(|m| m * slack >= lb)
    }
}

/// Library-level verification: a row whose algorithm produced a wrong
/// output is reported as a typed error, never a panic (and never a silent
/// wrong measurement).
fn verified(ok: bool, phases: usize, what: &str) -> Result<()> {
    if ok {
        Ok(())
    } else {
        Err(ModelError::FaultAborted {
            phase: phases,
            reason: format!("{what} output failed verification"),
        })
    }
}

/// Rounds-respecting check as a typed error: a phase that overran its
/// round budget is exactly a cost-budget violation.
fn round_respecting(ledger: &CostLedger, budget: u64) -> Result<()> {
    if ledger.is_round_respecting(budget) {
        Ok(())
    } else {
        Err(ModelError::CostBudgetExceeded {
            budget,
            cost: ledger.max_phase_cost(),
        })
    }
}

fn row(
    problem: Problem,
    model: Model,
    params: Params,
    measured: Option<f64>,
    algorithm: &'static str,
) -> TableRow {
    let det_lb = best_lower_bound(problem, model, Mode::Deterministic, Metric::Time, &params)
        .unwrap_or(f64::NAN);
    let rand_lb = best_lower_bound(problem, model, Mode::Randomized, Metric::Time, &params)
        .unwrap_or(f64::NAN);
    let upper_formula = upper_bound_time(problem, model, &params).unwrap_or(f64::NAN);
    TableRow {
        problem,
        model,
        params,
        det_lb,
        rand_lb,
        upper_formula,
        measured,
        algorithm,
    }
}

/// A pregenerated Section 8 table-row workload: the seeded input a
/// `*_time_row_on` call would otherwise generate inline. Benchmarks
/// comparing two engine configurations on the same row use this to hoist
/// the (engine-independent, allocation-heavy) input generation out of
/// their timed regions, so the timing compares the engines rather than
/// the workload generator.
#[derive(Debug, Clone)]
pub struct RowInput {
    problem: Problem,
    n: usize,
    seed: u64,
    /// Random bits for Parity/Or; sparse LAC items for Lac.
    data: Vec<Word>,
    /// LAC occupancy bound `h = max(n/8, 1)`; 0 for the bit problems.
    h: usize,
}

/// Generates the seeded workload for one `(problem, n, seed)` row.
pub fn row_input(problem: Problem, n: usize, seed: u64) -> RowInput {
    let (data, h) = match problem {
        Problem::Parity | Problem::Or => (workloads::random_bits(n, seed), 0),
        Problem::Lac => {
            let h = (n / 8).max(1);
            (workloads::sparse_items(n, h, seed), h)
        }
    };
    RowInput {
        problem,
        n,
        seed,
        data,
        h,
    }
}

/// Regenerates one row of sub-table 1 (QSM time): runs the Section 8 QSM
/// algorithm for `problem` on an n-bit workload and pairs it with the
/// bounds.
pub fn qsm_time_row(problem: Problem, n: usize, g: u64, seed: u64) -> Result<TableRow> {
    qsm_time_row_on(&QsmMachine::qsm(g), problem, n, seed)
}

/// [`qsm_time_row`] on a caller-supplied machine: the row's `g` comes from
/// the machine, and the run policy the machine carries (tracing, faults,
/// the reference engines) applies. This is what lets the hot-path
/// benchmark run the same workload on the dense and the reference engine.
pub fn qsm_time_row_on(
    machine: &QsmMachine,
    problem: Problem,
    n: usize,
    seed: u64,
) -> Result<TableRow> {
    qsm_time_row_on_input(machine, &row_input(problem, n, seed))
}

/// [`qsm_time_row_on`] over a pregenerated [`RowInput`].
pub fn qsm_time_row_on_input(machine: &QsmMachine, input: &RowInput) -> Result<TableRow> {
    let g = machine.g();
    let params = Params::qsm(input.n as f64, g as f64);
    let (measured, name) = match input.problem {
        Problem::Parity => {
            let k = parity::parity_helper_default_k(machine);
            let out = parity::parity_pattern_helper(machine, &input.data, k)?;
            (out.run.time() as f64, "pattern-helper parity (k = log g)")
        }
        Problem::Or => {
            let out = or_tree::or_write_tree(machine, &input.data, or_tree::or_default_fanin(g))?;
            (out.run.time() as f64, "write-combining OR tree (k = g)")
        }
        Problem::Lac => {
            let out = lac::lac_dart_accel(machine, &input.data, input.h, input.seed ^ 0xd1ce)?;
            verified(out.verify(&input.data), out.run.ledger.num_phases(), "LAC")?;
            (
                out.run.ledger.total_time() as f64,
                "accelerated dart LAC (h = n/8)",
            )
        }
    };
    Ok(row(input.problem, Model::Qsm, params, Some(measured), name))
}

/// Sub-table 1 variant: Parity on the QSM with unit-time concurrent reads
/// (the `Θ(g·log n/log g)` row). Returns `(measured, Θ-formula)`.
pub fn qsm_unit_cr_parity(n: usize, g: u64, seed: u64) -> Result<(f64, f64)> {
    let machine = QsmMachine::qsm_unit_cr(g);
    let bits = workloads::random_bits(n, seed);
    let k = parity::parity_helper_default_k(&machine);
    let out = parity::parity_pattern_helper(&machine, &bits, k)?;
    let params = Params::qsm(n as f64, g as f64);
    Ok((
        out.run.time() as f64,
        parbounds_tables::parity_unit_cr_upper(&params),
    ))
}

/// Regenerates one row of sub-table 2 (s-QSM time).
pub fn sqsm_time_row(problem: Problem, n: usize, g: u64, seed: u64) -> Result<TableRow> {
    sqsm_time_row_on(&QsmMachine::sqsm(g), problem, n, seed)
}

/// [`sqsm_time_row`] on a caller-supplied (s-QSM-flavored) machine.
pub fn sqsm_time_row_on(
    machine: &QsmMachine,
    problem: Problem,
    n: usize,
    seed: u64,
) -> Result<TableRow> {
    sqsm_time_row_on_input(machine, &row_input(problem, n, seed))
}

/// [`sqsm_time_row_on`] over a pregenerated [`RowInput`].
pub fn sqsm_time_row_on_input(machine: &QsmMachine, input: &RowInput) -> Result<TableRow> {
    let g = machine.g();
    let params = Params::qsm(input.n as f64, g as f64);
    let (measured, name) = match input.problem {
        Problem::Parity => {
            let out = reduce::parity_read_tree(machine, &input.data, 2)?;
            (out.run.time() as f64, "binary read tree (Θ(g·log n))")
        }
        Problem::Or => {
            let out = or_tree::or_write_tree(machine, &input.data, 2)?;
            (out.run.time() as f64, "binary write tree")
        }
        Problem::Lac => {
            let out = lac::lac_dart_accel(machine, &input.data, input.h, input.seed ^ 0xd1ce)?;
            verified(out.verify(&input.data), out.run.ledger.num_phases(), "LAC")?;
            (
                out.run.ledger.total_time() as f64,
                "accelerated dart LAC (h = n/8)",
            )
        }
    };
    Ok(row(
        input.problem,
        Model::SQsm,
        params,
        Some(measured),
        name,
    ))
}

/// Regenerates one row of sub-table 3 (BSP time).
pub fn bsp_time_row(
    problem: Problem,
    n: usize,
    g: u64,
    l: u64,
    p: usize,
    seed: u64,
) -> Result<TableRow> {
    bsp_time_row_on(&BspMachine::new(p, g, l)?, problem, n, seed)
}

/// [`bsp_time_row`] on a caller-supplied machine; `(p, g, L)` come from the
/// machine.
pub fn bsp_time_row_on(
    machine: &BspMachine,
    problem: Problem,
    n: usize,
    seed: u64,
) -> Result<TableRow> {
    bsp_time_row_on_input(machine, &row_input(problem, n, seed))
}

/// [`bsp_time_row_on`] over a pregenerated [`RowInput`].
pub fn bsp_time_row_on_input(machine: &BspMachine, input: &RowInput) -> Result<TableRow> {
    let (p, g, l) = (machine.p(), machine.g(), machine.l());
    let params = Params::bsp(input.n as f64, g as f64, l as f64, p as f64);
    let (measured, name) = match input.problem {
        Problem::Parity => {
            let out = bsp_algos::bsp_parity(machine, &input.data)?;
            (Some(out.time() as f64), "fan-in L/g reduction tree")
        }
        Problem::Or => {
            let out = bsp_algos::bsp_or(machine, &input.data)?;
            (Some(out.time() as f64), "fan-in L/g reduction tree")
        }
        Problem::Lac => {
            let out = bsp_algos::bsp_lac_dart(machine, &input.data, input.h, input.seed ^ 0xd1ce)?;
            verified(out.verify(&input.data), out.ledger.num_phases(), "BSP LAC")?;
            (
                Some(out.ledger.total_time() as f64),
                "message dart-throwing LAC",
            )
        }
    };
    Ok(row(input.problem, Model::Bsp, params, measured, name))
}

/// One measured row of sub-table 4 (rounds of p-processor algorithms).
#[derive(Debug, Clone)]
pub struct RoundsRow {
    /// The problem.
    pub problem: Problem,
    /// The model.
    pub model: Model,
    /// Parameters.
    pub params: Params,
    /// Rounds lower bound (randomized — the sub-table's entries).
    pub lower: f64,
    /// Rounds upper-bound formula.
    pub upper_formula: f64,
    /// Measured rounds of our rounds-respecting algorithm, with the
    /// round budget it respected.
    pub measured: Option<(usize, u64)>,
    /// Algorithm name.
    pub algorithm: &'static str,
}

/// Regenerates one cell of sub-table 4.
pub fn rounds_row(
    problem: Problem,
    model: Model,
    n: usize,
    g: u64,
    l: u64,
    p: usize,
    seed: u64,
) -> Result<RoundsRow> {
    let params = match model {
        Model::Bsp => Params::bsp(n as f64, g as f64, l as f64, p as f64),
        _ => Params::qsm(n as f64, g as f64).with_p(p as f64),
    };
    let lower = best_lower_bound(problem, model, Mode::Randomized, Metric::Rounds, &params)
        .unwrap_or(f64::NAN);
    let upper_formula = upper_bound_rounds(problem, model, &params);
    let (measured, name): (Option<(usize, u64)>, &'static str) = match model {
        Model::Qsm | Model::SQsm => {
            let machine = if model == Model::Qsm {
                QsmMachine::qsm(g)
            } else {
                QsmMachine::sqsm(g)
            };
            let budget = parbounds_models::round_budget_qsm(n as u64, p as u64, g, 2);
            match problem {
                Problem::Or if model == Model::Qsm => {
                    let bits = workloads::random_bits(n, seed);
                    let out = algo_rounds::or_in_rounds_qsm(&machine, &bits, p)?;
                    round_respecting(&out.run.ledger, budget)?;
                    (
                        Some((out.run.ledger.num_phases(), budget)),
                        "write-combining OR, fan-in g·n/p",
                    )
                }
                Problem::Or | Problem::Parity => {
                    let bits = workloads::random_bits(n, seed);
                    let op = if problem == Problem::Or {
                        parbounds_algo::util::ReduceOp::Or
                    } else {
                        parbounds_algo::util::ReduceOp::Xor
                    };
                    let out = algo_rounds::reduce_in_rounds(&machine, &bits, p, op)?;
                    round_respecting(&out.run.ledger, budget)?;
                    (
                        Some((out.run.ledger.num_phases(), budget)),
                        "fan-in n/p reduction in rounds",
                    )
                }
                Problem::Lac => {
                    let h = (n / 8).max(1);
                    let items = workloads::sparse_items(n, h, seed);
                    let out = lac::lac_prefix(&machine, &items, p)?;
                    verified(
                        out.verify(&items),
                        out.run.ledger.num_phases(),
                        "prefix LAC",
                    )?;
                    round_respecting(&out.run.ledger, budget)?;
                    (
                        Some((out.run.ledger.num_phases(), budget)),
                        "prefix-sums exact compaction",
                    )
                }
            }
        }
        Model::Bsp => {
            let machine = BspMachine::new(p, g, l)?;
            let budget = parbounds_models::round_budget_bsp(n as u64, p as u64, g, l, 2);
            match problem {
                Problem::Or | Problem::Parity => {
                    let bits = workloads::random_bits(n, seed);
                    let k = (n / p).max(2);
                    let op = if problem == Problem::Or {
                        parbounds_algo::util::ReduceOp::Or
                    } else {
                        parbounds_algo::util::ReduceOp::Xor
                    };
                    let out = bsp_algos::bsp_reduce(&machine, &bits, k, op)?;
                    round_respecting(&out.ledger, budget)?;
                    (
                        Some((out.supersteps(), budget)),
                        "fan-in n/p reduction in rounds",
                    )
                }
                Problem::Lac => (None, "(no rounds-respecting BSP compaction implemented)"),
            }
        }
    };
    Ok(RoundsRow {
        problem,
        model,
        params,
        lower,
        upper_formula,
        measured,
        algorithm: name,
    })
}

/// The prefix-sums rounds count, exposed for sweep assertions.
pub fn prefix_rounds(n: usize, p: usize) -> usize {
    prefix::prefix_rounds_count(n, p)
}

/// A measured row for the Section 6.2 *related problems* — Load Balancing
/// and Padded Sort — which by Theorem 6.1 obey the same lower bounds as
/// LAC.
#[derive(Debug, Clone)]
pub struct RelatedRow {
    /// "load-balancing" or "padded-sort".
    pub problem: &'static str,
    /// The model the run used.
    pub model: Model,
    /// Parameters.
    pub params: Params,
    /// The LAC randomized lower bound (transferred by Theorem 6.1).
    pub lac_rand_lb: f64,
    /// Measured total model time.
    pub measured: f64,
    /// Phases/rounds used.
    pub phases: usize,
}

/// Measures Load Balancing on the QSM/s-QSM against the transferred LAC
/// lower bound. The workload: `h ≈ n/2` objects spread over `n` sources.
pub fn load_balance_row(model: Model, n: usize, g: u64, p: usize, seed: u64) -> Result<RelatedRow> {
    let machine = match model {
        Model::Qsm => QsmMachine::qsm(g),
        Model::SQsm => QsmMachine::sqsm(g),
        Model::Bsp => {
            return Err(ModelError::BadConfig(
                "load-balance rows are shared-memory (QSM/s-QSM only)".into(),
            ))
        }
    };
    let mut r = workloads::rng(seed);
    use rand::Rng;
    let counts: Vec<i64> = (0..n).map(|_| r.gen_range(0..2)).collect();
    let out = parbounds_algo::balance::load_balance(&machine, &counts, p.min(n))?;
    verified(out.verify(&counts), out.total_phases(), "load balancing")?;
    let params = Params::qsm(n as f64, g as f64).with_p(p as f64);
    let lac_rand_lb =
        best_lower_bound(Problem::Lac, model, Mode::Randomized, Metric::Time, &params)
            .unwrap_or(f64::NAN);
    Ok(RelatedRow {
        problem: "load-balancing",
        model,
        params,
        lac_rand_lb,
        measured: out.total_time() as f64,
        phases: out.total_phases(),
    })
}

/// Measures Padded Sort on the QSM/s-QSM against the transferred LAC lower
/// bound, on `n` uniform values.
pub fn padded_sort_row(model: Model, n: usize, g: u64, seed: u64) -> Result<RelatedRow> {
    let machine = match model {
        Model::Qsm => QsmMachine::qsm(g),
        Model::SQsm => QsmMachine::sqsm(g),
        Model::Bsp => {
            return Err(ModelError::BadConfig(
                "padded-sort rows are shared-memory (QSM/s-QSM only)".into(),
            ))
        }
    };
    let values = workloads::uniform_values(n, seed);
    let out = parbounds_algo::padded_sort::padded_sort_default(&machine, &values, seed ^ 0x9a)?;
    let phases: usize = out.runs.iter().map(|r| r.ledger.num_phases()).sum();
    verified(out.verify(&values), phases, "padded sort")?;
    let params = Params::qsm(n as f64, g as f64);
    let lac_rand_lb =
        best_lower_bound(Problem::Lac, model, Mode::Randomized, Metric::Time, &params)
            .unwrap_or(f64::NAN);
    Ok(RelatedRow {
        problem: "padded-sort",
        model,
        params,
        lac_rand_lb,
        measured: out.total_time() as f64,
        phases: out.runs.iter().map(|r| r.ledger.num_phases()).sum(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn qsm_rows_have_measured_above_lower_bound() {
        for problem in [Problem::Parity, Problem::Or] {
            let row = qsm_time_row(problem, 1 << 12, 8, 1).unwrap();
            // Deterministic algorithms: measured must dominate det LB
            // (constants: allow modest slack on the LB side).
            assert!(
                row.measured_respects_lower_bound(false, 1.0),
                "{problem:?}: {row:?}"
            );
            assert!(row.measured.unwrap() > 0.0);
        }
        let row = qsm_time_row(Problem::Lac, 1 << 12, 8, 1).unwrap();
        assert!(row.measured_respects_lower_bound(true, 1.0), "{row:?}");
    }

    #[test]
    fn sqsm_parity_row_is_tight() {
        // Θ(g log n): measured / formula must be a small constant.
        let row = sqsm_time_row(Problem::Parity, 1 << 12, 4, 2).unwrap();
        let ratio = row.shape_ratio().unwrap();
        assert!((1.0..=4.0).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn bsp_rows_measure() {
        for problem in [Problem::Parity, Problem::Or] {
            let row = bsp_time_row(problem, 1 << 12, 2, 16, 64, 3).unwrap();
            assert!(row.measured.unwrap() > 0.0);
            assert!(row.measured_respects_lower_bound(false, 2.0), "{row:?}");
        }
    }

    #[test]
    fn unit_cr_parity_is_within_constant_of_theta() {
        let (measured, theta) = qsm_unit_cr_parity(1 << 12, 16, 4).unwrap();
        let ratio = measured / theta;
        assert!((0.5..=8.0).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn rounds_rows_respect_budgets_and_bounds() {
        let (n, g, l, p) = (1 << 12, 4, 16, 1 << 8);
        for problem in [Problem::Lac, Problem::Or, Problem::Parity] {
            for model in [Model::Qsm, Model::SQsm, Model::Bsp] {
                let row = rounds_row(problem, model, n, g, l, p, 5).unwrap();
                assert!(row.lower.is_finite());
                if let Some((rounds, _)) = row.measured {
                    // Measured rounds within a constant factor of formula.
                    assert!(
                        (rounds as f64) <= 16.0 * row.upper_formula + 8.0,
                        "{problem:?} {model:?}: {rounds} vs {}",
                        row.upper_formula
                    );
                }
            }
        }
    }
}
