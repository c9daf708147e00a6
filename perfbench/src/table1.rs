//! `table1-rows`: one pass regenerates every §8 Table-1 time row.
//!
//! Eleven rows: QSM and s-QSM (g = 8) × OR/Parity/LAC, GSM(1, 8, 1)
//! OR/Parity, and BSP (p = 4096, g = 8, L = 64) × OR/Parity/LAC. The timed
//! QSM, s-QSM and BSP rows are the product's own
//! `parbounds::{qsm,sqsm,bsp}_time_row_on_input` calls, on the inputs
//! `row_input` makes for the workload seed during set-up. The GSM rows have
//! no row function, so they call `algo::gsm_algos` directly.
//!
//! A `TableRow` carries the model time but not the result or the phase
//! count. So each stretch first runs, once and untimed, the algorithms
//! those functions dispatch to on the same inputs, checks their result,
//! model time and phases, and then checks every timed row's model time
//! against that direct run.

use std::time::Duration;

use parbounds::algo::{bsp_algos, gsm_algos, lac, or_tree, parity, reduce, workloads};
use parbounds::models::{BspMachine, GsmMachine, QsmMachine, Word};
use parbounds::tables::Problem;
use parbounds::{
    bsp_time_row_on_input, qsm_time_row_on_input, row_input, sqsm_time_row_on_input, RowInput,
    TableRow,
};

use crate::trace::Tracer;
use crate::{batch_timing, run_passes, stats, Measurement, Metric, Workload};

/// Problem size of the benchmark's rows.
pub const N: usize = 1 << 20;

/// The gap `g` of every machine.
const G: u64 = 8;

/// Golden `(result, model time, phases)` of the rows, by seed.
pub const GOLDEN: &str = include_str!("../golden/table1-rows.tsv");

/// One Table-1 time row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Row {
    /// QSM write-combining OR tree (k = g).
    QsmOr,
    /// QSM pattern-helper Parity (k = log g).
    QsmParity,
    /// QSM accelerated dart LAC (h = n/8).
    QsmLac,
    /// s-QSM binary write tree OR.
    SqsmOr,
    /// s-QSM binary read tree Parity.
    SqsmParity,
    /// s-QSM accelerated dart LAC.
    SqsmLac,
    /// GSM strong-queuing OR tree.
    GsmOr,
    /// GSM strong-queuing Parity tree.
    GsmParity,
    /// BSP fan-in L/g OR tree.
    BspOr,
    /// BSP fan-in L/g Parity tree.
    BspParity,
    /// BSP message dart-throwing LAC.
    BspLac,
}

/// Every row, in pass order.
pub const ROWS: [Row; 11] = [
    Row::QsmOr,
    Row::QsmParity,
    Row::QsmLac,
    Row::SqsmOr,
    Row::SqsmParity,
    Row::SqsmLac,
    Row::GsmOr,
    Row::GsmParity,
    Row::BspOr,
    Row::BspParity,
    Row::BspLac,
];

impl Row {
    /// Short name, as in the golden file.
    pub fn name(self) -> &'static str {
        match self {
            Row::QsmOr => "qsm.or",
            Row::QsmParity => "qsm.parity",
            Row::QsmLac => "qsm.lac",
            Row::SqsmOr => "sqsm.or",
            Row::SqsmParity => "sqsm.parity",
            Row::SqsmLac => "sqsm.lac",
            Row::GsmOr => "gsm.or",
            Row::GsmParity => "gsm.parity",
            Row::BspOr => "bsp.or",
            Row::BspParity => "bsp.parity",
            Row::BspLac => "bsp.lac",
        }
    }

    /// Span name: the model layer the row's engine belongs to.
    pub fn span(self) -> String {
        format!("models.{}", self.name())
    }

    /// Whether the row is a randomized LAC row, whose cost depends on the
    /// seed.
    pub fn is_lac(self) -> bool {
        matches!(self, Row::QsmLac | Row::SqsmLac | Row::BspLac)
    }

    fn is_or(self) -> bool {
        matches!(self, Row::QsmOr | Row::SqsmOr | Row::GsmOr | Row::BspOr)
    }

    /// The Table-1 problem the row solves.
    fn problem(self) -> Problem {
        if self.is_lac() {
            Problem::Lac
        } else if self.is_or() {
            Problem::Or
        } else {
            Problem::Parity
        }
    }
}

/// A row's observable outcome: for OR/Parity the computed bit, for LAC
/// the number of items placed; then total model time and phase count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RowOut {
    /// OR/Parity bit, or LAC items placed.
    pub result: u64,
    /// Total model time.
    pub time: u64,
    /// Phases (supersteps) executed.
    pub phases: usize,
}

/// The seeded data of `row_input`, made by the same generators, for the
/// direct runs and the checks that need to see it.
#[derive(Debug)]
pub struct Inputs {
    seed: u64,
    bits: Vec<Word>,
    items: Vec<Word>,
    h: usize,
}

impl Inputs {
    /// `row_input`'s generators for Parity/OR (shared) and LAC.
    pub fn new(n: usize, seed: u64) -> Self {
        let h = (n / 8).max(1);
        Inputs {
            seed,
            bits: workloads::random_bits(n, seed),
            items: workloads::sparse_items(n, h, seed),
            h,
        }
    }
}

/// `row_input(problem, n, seed)` for each problem, as the product's row
/// functions take them.
#[derive(Debug)]
pub struct RowInputs {
    or: RowInput,
    parity: RowInput,
    lac: RowInput,
}

impl RowInputs {
    /// The three inputs of `n` items for `seed`.
    pub fn new(n: usize, seed: u64) -> Self {
        RowInputs {
            or: row_input(Problem::Or, n, seed),
            parity: row_input(Problem::Parity, n, seed),
            lac: row_input(Problem::Lac, n, seed),
        }
    }

    fn get(&self, problem: Problem) -> &RowInput {
        match problem {
            Problem::Or => &self.or,
            Problem::Parity => &self.parity,
            Problem::Lac => &self.lac,
        }
    }
}

fn bsp_machine() -> parbounds::models::Result<BspMachine> {
    BspMachine::new(4096, G, 64)
}

/// The product's Table-1 row for `row`; `None` for the GSM rows, which
/// have no row function.
pub fn product_row(row: Row, inputs: &RowInputs) -> Option<parbounds::models::Result<TableRow>> {
    let input = inputs.get(row.problem());
    Some(match row {
        Row::QsmOr | Row::QsmParity | Row::QsmLac => {
            qsm_time_row_on_input(&QsmMachine::qsm(G), input)
        }
        Row::SqsmOr | Row::SqsmParity | Row::SqsmLac => {
            sqsm_time_row_on_input(&QsmMachine::sqsm(G), input)
        }
        Row::BspOr | Row::BspParity | Row::BspLac => {
            bsp_machine().and_then(|machine| bsp_time_row_on_input(&machine, input))
        }
        Row::GsmOr | Row::GsmParity => return None,
    })
}

/// Runs one row's algorithm directly, with the machine, parameters and LAC
/// seed the product's row function uses; `Ok(None)` for a LAC row whose
/// placement failed `verify`.
pub fn run_row(row: Row, inputs: &Inputs) -> parbounds::models::Result<Option<RowOut>> {
    let lac_seed = inputs.seed ^ 0xd1ce;
    let shared = |out: parbounds::algo::Outcome| RowOut {
        result: out.value as u64,
        time: out.run.time(),
        phases: out.run.phases(),
    };
    let qsm_lac = |machine: &QsmMachine| -> parbounds::models::Result<Option<RowOut>> {
        let out = lac::lac_dart_accel(machine, &inputs.items, inputs.h, lac_seed)?;
        Ok(out.verify(&inputs.items).then(|| RowOut {
            result: out.dest().iter().filter(|&&v| v != 0).count() as u64,
            time: out.run.time(),
            phases: out.run.phases(),
        }))
    };
    let bsp_out = |out: bsp_algos::BspOutcome| RowOut {
        result: out.value as u64,
        time: out.time(),
        phases: out.supersteps(),
    };
    let gsm_out = |out: gsm_algos::GsmOutcome| RowOut {
        result: out.value as u64,
        time: out.run.time(),
        phases: out.run.ledger.num_phases(),
    };
    let bits = &inputs.bits;
    Ok(Some(match row {
        Row::QsmOr => shared(or_tree::or_write_tree(
            &QsmMachine::qsm(G),
            bits,
            or_tree::or_default_fanin(G),
        )?),
        Row::QsmParity => {
            let machine = QsmMachine::qsm(G);
            let k = parity::parity_helper_default_k(&machine);
            shared(parity::parity_pattern_helper(&machine, bits, k)?)
        }
        Row::QsmLac => return qsm_lac(&QsmMachine::qsm(G)),
        Row::SqsmOr => shared(or_tree::or_write_tree(&QsmMachine::sqsm(G), bits, 2)?),
        Row::SqsmParity => shared(reduce::parity_read_tree(&QsmMachine::sqsm(G), bits, 2)?),
        Row::SqsmLac => return qsm_lac(&QsmMachine::sqsm(G)),
        Row::GsmOr => gsm_out(gsm_algos::gsm_or(&GsmMachine::new(1, G, 1), bits)?),
        Row::GsmParity => gsm_out(gsm_algos::gsm_parity(&GsmMachine::new(1, G, 1), bits)?),
        Row::BspOr => bsp_out(bsp_algos::bsp_or(&bsp_machine()?, bits)?),
        Row::BspParity => bsp_out(bsp_algos::bsp_parity(&bsp_machine()?, bits)?),
        Row::BspLac => {
            let out = bsp_algos::bsp_lac_dart(&bsp_machine()?, &inputs.items, inputs.h, lac_seed)?;
            if !out.verify(&inputs.items) {
                return Ok(None);
            }
            RowOut {
                result: out.placed.len() as u64,
                time: out.ledger.total_time(),
                phases: out.ledger.num_phases(),
            }
        }
    }))
}

/// What a row must produce: the input's own OR/Parity bit or item count,
/// and the golden model time and phases where the golden file has them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Expected {
    /// OR/Parity bit, or LAC item count, computed from the input.
    pub result: u64,
    /// Golden `(model time, phases)`, if stored for this seed.
    pub golden: Option<(u64, usize)>,
}

/// Looks up the golden line for `row` at `seed`: an exact seed line first,
/// then a `*` line for rows whose cost does not depend on the input.
pub fn golden(text: &str, row: Row, seed: u64) -> Option<(u64, usize)> {
    let mut any = None;
    for line in text.lines() {
        let fields: Vec<&str> = line.split_whitespace().collect();
        let [name, at, time, phases] = fields[..] else {
            continue;
        };
        if name != row.name() {
            continue;
        }
        let parsed = (time.parse().ok()?, phases.parse().ok()?);
        if at == "*" {
            any = Some(parsed);
        } else if at.parse() == Ok(seed) {
            return Some(parsed);
        }
    }
    any
}

/// The expected outcome of `row` on `inputs`.
pub fn expected(row: Row, inputs: &Inputs, golden_text: &str) -> Expected {
    let result = if row.is_lac() {
        inputs.items.iter().filter(|&&v| v != 0).count() as u64
    } else if row.is_or() {
        u64::from(inputs.bits.iter().any(|&b| b != 0))
    } else {
        inputs.bits.iter().fold(0, |acc, &b| acc ^ (b & 1)) as u64
    };
    Expected {
        result,
        golden: golden(golden_text, row, inputs.seed),
    }
}

/// The `table1-rows` workload.
#[derive(Debug, Clone)]
pub struct Table1 {
    /// Problem size of every row.
    pub n: usize,
    /// Golden file text, for inputs of size `n`.
    pub golden: &'static str,
}

impl Default for Table1 {
    fn default() -> Self {
        Table1 {
            n: N,
            golden: GOLDEN,
        }
    }
}

/// Set-up state: the product's inputs, the same data for the direct runs,
/// each row's expected outcome and, once the first stretch has made it,
/// each product row's checked direct run.
#[derive(Debug)]
pub struct State {
    row_inputs: RowInputs,
    inputs: Inputs,
    expected: Vec<Expected>,
    direct: Option<Vec<Option<Checked>>>,
}

/// A row's outcome after its checks, or what was wrong with it.
type Checked = Result<RowOut, String>;

/// What a timed row call returned.
enum Timed {
    Product(parbounds::models::Result<TableRow>),
    Direct(parbounds::models::Result<Option<RowOut>>),
}

impl Workload for Table1 {
    type State = State;

    fn setup(&self, seed: u64, tracer: &mut Tracer) -> State {
        let row_inputs = tracer.span("algo.workloads.row_input", 0, |_| {
            RowInputs::new(self.n, seed)
        });
        let inputs = Inputs::new(self.n, seed);
        let expected = ROWS
            .iter()
            .map(|&r| expected(r, &inputs, self.golden))
            .collect();
        State {
            row_inputs,
            inputs,
            expected,
            direct: None,
        }
    }

    fn measure(&self, state: &mut State, budget: Duration, tracer: &mut Tracer) -> Measurement {
        let State {
            row_inputs,
            inputs,
            expected,
            direct,
        } = state;
        let direct = direct.get_or_insert_with(|| {
            ROWS.iter()
                .zip(expected.iter())
                .map(|(&row, &want)| {
                    let has_row_fn = !matches!(row, Row::GsmOr | Row::GsmParity);
                    has_row_fn.then(|| checked(row, run_row(row, inputs), want))
                })
                .collect()
        });
        let mut m = Measurement::default();
        let mut counts = (0u64, 0u64);
        let samples = run_passes(budget, ROWS.len(), tracer, |t, op, i| {
            let row = ROWS[i];
            let timed = t.span(&row.span(), op, |_| match product_row(row, row_inputs) {
                Some(out) => Timed::Product(out),
                None => Timed::Direct(run_row(row, inputs)),
            });
            m.attempted += 1;
            let (phases, time) = match verdict(row, timed, expected[i], direct[i].as_ref()) {
                Ok(out) => (out.phases as u64, out.time),
                Err(e) => {
                    m.fail(e);
                    (0, 0)
                }
            };
            // Totals of the latest pass: every pass runs the same rows.
            counts = if i == 0 {
                (phases, time)
            } else {
                (counts.0 + phases, counts.1 + time)
            };
        });
        batch_timing(&mut m, &samples, ROWS.len());
        if tracer.is_on() {
            m.layers = layer_metrics(tracer, counts);
        }
        m
    }
}

/// Checks a direct run against the row's expected outcome.
fn checked(row: Row, out: parbounds::models::Result<Option<RowOut>>, want: Expected) -> Checked {
    match out {
        Ok(Some(out)) => {
            let golden_ok = want.golden.is_none_or(|g| g == (out.time, out.phases));
            if out.result == want.result && golden_ok {
                Ok(out)
            } else {
                Err(format!(
                    "{}: got (result {}, time {}, phases {}), want result {} and golden {:?}",
                    row.name(),
                    out.result,
                    out.time,
                    out.phases,
                    want.result,
                    want.golden
                ))
            }
        }
        Ok(None) => Err(format!("{}: placement failed verify", row.name())),
        Err(e) => Err(format!("{}: {e}", row.name())),
    }
}

/// Checks a timed row: a direct (GSM) run against its expected outcome, a
/// product row's model time against its checked direct run.
fn verdict(row: Row, timed: Timed, want: Expected, direct: Option<&Checked>) -> Checked {
    let reported = match timed {
        Timed::Direct(out) => return checked(row, out, want),
        Timed::Product(out) => out.map_err(|e| format!("{}: {e}", row.name()))?.measured,
    };
    let direct = direct
        .ok_or_else(|| format!("{}: no direct run to check against", row.name()))?
        .clone()?;
    if reported == Some(direct.time as f64) {
        Ok(direct)
    } else {
        Err(format!(
            "{}: row reports model time {reported:?}, its direct run {}",
            row.name(),
            direct.time
        ))
    }
}

/// Per-layer metrics of a traced stretch: each row's time inside its row
/// call (median over passes) and the exact per-pass phase and model-time
/// totals.
fn layer_metrics(tracer: &Tracer, (phases, model_time): (u64, u64)) -> Vec<Metric> {
    let per_pass = tracer.self_ms_per_root("pass");
    let mut out: Vec<Metric> = ROWS
        .iter()
        .map(|row| {
            let span = row.span();
            let ms: Vec<f64> = per_pass
                .iter()
                .map(|p| p.get(&span).copied().unwrap_or(0.0))
                .collect();
            Metric::new(format!("{span}_ms"), stats::median(&ms), "ms")
        })
        .collect();
    let row_input = tracer.durations_ms("algo.workloads.row_input");
    out.push(Metric::new(
        "algo.workloads.row_input_ms",
        stats::median(&row_input),
        "ms",
    ));
    out.push(Metric::new("sim.phases", phases as f64, "count"));
    out.push(Metric::new("sim.model_time", model_time as f64, "count"));
    out
}
