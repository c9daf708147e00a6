//! Hot-path wall-clock benchmark: the dense fast paths (engine request
//! routing, arena reuse, IR batch interpretation) against the reference
//! engines they replaced.
//!
//! Every point runs the *same* workload twice — once on the default dense
//! engines, once on the reference engines (`with_reference_routing()`, the
//! pre-fast-path map-based engines) — records best-of-`reps` wall-clock
//! for both, and checks the two runs' measured model costs are identical.
//! A speedup claim over a run that computed something else would be
//! meaningless, so equality is part of the benchmark result, and the
//! `table_hotpath` binary fails on any mismatch.
//!
//! The grid carries two suites:
//!
//! * **`hot`** — request-dense microbenchmarks of the routing layer itself
//!   (high-contention scatter phases, BSP message exchanges, the IR batch
//!   interpreter on wide static schedules). Wall-clock here is dominated by
//!   the subsystem this PR replaced, so these points are the headline
//!   speedup the perf trajectory tracks.
//! * **`e2e`** — the end-to-end Section 8 table rows (seeded input
//!   generation hoisted out of the timed region: it is engine-independent
//!   and would otherwise dominate the small BSP rows, drowning the engine
//!   comparison in generator noise). These spend most of their time in
//!   per-processor program logic that is *shared* by both paths, so their
//!   speedups are structurally smaller; they are reported to show the
//!   fast path's effect on user-visible table regeneration.
//! * **`compiled`** — the straight-line compiled schedules
//!   ([`run_compiled_batch`] on a plan lowered once, outside the timer)
//!   against the PR 4 dense batch interpreter ([`execute_plan`]) on the
//!   same plan. Equality here is three-way: the compiled run must match
//!   both the interpreted run and the reference run bit for bit.

use std::time::Instant;

use parbounds::ir::{
    compile_plan, execute_plan, execute_plan_reference, fan_in_read_tree, fan_in_write_tree,
    prefix_sweep, run_compiled_batch, CombineOp, CompileOutcome, CompiledPlan, ModelKind,
    PhasePlan,
};
use parbounds::models::{
    BspFnProgram, BspMachine, FnProgram, GsmEnv, GsmFnProgram, GsmMachine, PhaseEnv, Program,
    QsmMachine, Status, Superstep, Word,
};
use parbounds::tables::Problem;
use parbounds::{bsp_time_row_on_input, qsm_time_row_on_input, row_input, sqsm_time_row_on_input};

use crate::par_sweep;

/// One benchmarked grid point: a workload at size `n`, timed on both paths.
#[derive(Debug, Clone)]
pub struct HotPoint {
    /// Engine exercised: "QSM", "s-QSM", "BSP", or "IR".
    pub engine: &'static str,
    /// Workload name.
    pub workload: String,
    /// Input size.
    pub n: usize,
    /// Best-of-reps wall-clock of the dense fast path, seconds.
    pub dense_s: f64,
    /// Best-of-reps wall-clock of the reference path, seconds.
    pub reference_s: f64,
    /// Whether the two paths produced identical measured results.
    pub equal: bool,
    /// Which suite the point belongs to: `"hot"` (routing-layer
    /// microbenchmark, part of the headline geomean), `"e2e"` (Section 8
    /// table row, reported for context), or `"compiled"` (straight-line
    /// compiled schedule vs the dense interpreter it was lowered from).
    pub suite: &'static str,
}

impl HotPoint {
    /// Wall-clock speedup of the fast path over the reference path.
    pub fn speedup(&self) -> f64 {
        self.reference_s / self.dense_s.max(1e-12)
    }
}

/// The full benchmark result: every grid point plus run configuration.
#[derive(Debug, Clone)]
pub struct HotReport {
    /// Benchmarked points.
    pub points: Vec<HotPoint>,
    /// Host threads available when the report was produced (the width
    /// the grid points sweep across; see [`crate::par_sweep`]).
    pub host_threads: usize,
    /// Repetitions per point (best-of).
    pub reps: u32,
    /// Whether this was the reduced smoke grid.
    pub smoke: bool,
}

impl HotReport {
    /// Largest input size in the grid.
    pub fn largest_n(&self) -> usize {
        self.points.iter().map(|p| p.n).max().unwrap_or(0)
    }

    fn geomean_at_largest_n(&self, suite: &str) -> f64 {
        let n = self.largest_n();
        let at: Vec<f64> = self
            .points
            .iter()
            .filter(|p| p.n == n && p.suite == suite)
            .map(HotPoint::speedup)
            .collect();
        if at.is_empty() {
            return 1.0;
        }
        (at.iter().map(|s| s.ln()).sum::<f64>() / at.len() as f64).exp()
    }

    /// Geometric-mean speedup of the `hot` suite on the largest-`n` sweep —
    /// the headline number the perf trajectory tracks (routing-layer
    /// microbenchmarks, where the replaced subsystem dominates wall-clock).
    pub fn largest_n_geomean_speedup(&self) -> f64 {
        self.geomean_at_largest_n("hot")
    }

    /// Geometric-mean speedup of the end-to-end Section 8 rows at the
    /// largest `n` (program logic shared by both paths dilutes these).
    pub fn largest_n_e2e_geomean_speedup(&self) -> f64 {
        self.geomean_at_largest_n("e2e")
    }

    /// Geometric-mean speedup of the compiled straight-line schedules over
    /// the dense batch interpreter at the largest `n` — the headline number
    /// of the plan-compilation work.
    pub fn largest_n_compiled_geomean_speedup(&self) -> f64 {
        self.geomean_at_largest_n("compiled")
    }

    /// The slowest point of the whole grid relative to its reference —
    /// the "dense never loses" floor. Returns the minimum speedup across
    /// every suite and size together with the point that attains it.
    pub fn min_speedup(&self) -> Option<(f64, &HotPoint)> {
        self.points
            .iter()
            .map(|p| (p.speedup(), p))
            .min_by(|a, b| a.0.total_cmp(&b.0))
    }

    /// True when every point's dense run matched its reference run.
    pub fn all_equal(&self) -> bool {
        self.points.iter().all(|p| p.equal)
    }

    /// Renders the report as JSON (hand-rolled: the workspace carries no
    /// serialization dependency).
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\n");
        s.push_str("  \"bench\": \"table_hotpath\",\n");
        s.push_str(&format!("  \"smoke\": {},\n", self.smoke));
        s.push_str(&format!("  \"reps\": {},\n", self.reps));
        s.push_str(&format!("  \"largest_n\": {},\n", self.largest_n()));
        s.push_str(&format!(
            "  \"largest_n_geomean_speedup\": {:.4},\n",
            self.largest_n_geomean_speedup()
        ));
        s.push_str(&format!(
            "  \"largest_n_e2e_geomean_speedup\": {:.4},\n",
            self.largest_n_e2e_geomean_speedup()
        ));
        s.push_str(&format!(
            "  \"compiled_geomean_speedup\": {:.4},\n",
            self.largest_n_compiled_geomean_speedup()
        ));
        s.push_str(&format!(
            "  \"min_speedup\": {:.4},\n",
            self.min_speedup().map(|(v, _)| v).unwrap_or(1.0)
        ));
        s.push_str(&format!("  \"all_equal\": {},\n", self.all_equal()));
        s.push_str(&format!("  \"host_threads\": {},\n", self.host_threads));
        s.push_str("  \"points\": [\n");
        for (i, p) in self.points.iter().enumerate() {
            // Microsecond-scale smoke rows round to "0.000000" at fixed
            // 6-digit seconds, so every duration also carries an integer
            // nanosecond field; the seconds fields stay for existing
            // consumers.
            s.push_str(&format!(
                "    {{\"engine\": \"{}\", \"workload\": \"{}\", \"suite\": \"{}\", \
                 \"n\": {}, \
                 \"dense_s\": {:.6}, \"dense_ns\": {}, \
                 \"reference_s\": {:.6}, \"reference_ns\": {}, \"speedup\": {:.3}, \
                 \"equal\": {}}}{}\n",
                p.engine,
                p.workload,
                p.suite,
                p.n,
                p.dense_s,
                whole_ns(p.dense_s),
                p.reference_s,
                whole_ns(p.reference_s),
                p.speedup(),
                p.equal,
                if i + 1 < self.points.len() { "," } else { "" }
            ));
        }
        s.push_str("  ]\n}\n");
        s
    }
}

/// A seconds measurement as whole nanoseconds, for the JSON fields where
/// fixed 6-digit seconds would underflow to zero.
fn whole_ns(seconds: f64) -> u64 {
    (seconds * 1e9).round().max(0.0) as u64
}

/// Wall-clock floor for one timed batch. Microsecond-scale runs are
/// dominated by cold caches and timer overhead when measured one call at
/// a time, which systematically penalizes whichever side is timed first;
/// batching until the timed region clears this floor makes sub-50us
/// workloads measurable (noise well under the `--check-floor` margin)
/// without affecting large ones (batch size 1).
const MIN_TIMED_BATCH_S: f64 = 1e-2;

/// One untimed warmup call (absorbing first-touch effects: page faults,
/// allocator growth, lazy initialization) that also calibrates how many
/// calls a timed region needs to clear [`MIN_TIMED_BATCH_S`].
fn calibrate<T>(f: &mut impl FnMut() -> T) -> (u64, T) {
    let t0 = Instant::now();
    let out = f();
    let warm = t0.elapsed().as_secs_f64();
    let batch = if warm > 0.0 {
        ((MIN_TIMED_BATCH_S / warm).ceil() as u64).clamp(1, 4096)
    } else {
        4096
    };
    (batch, out)
}

/// Times one batch of `batch` calls, returning the per-call mean.
fn timed_batch<T>(batch: u64, f: &mut impl FnMut() -> T, out: &mut T) -> f64 {
    let t0 = Instant::now();
    for _ in 0..batch {
        *out = f();
    }
    t0.elapsed().as_secs_f64() / batch as f64
}

/// Times a dense/reference pair over **alternating** batches, keeping the
/// best rep per side. Consecutive same-side blocks let a burst of host
/// interference (scheduler steal, frequency excursions) land entirely on
/// one side and bias the ratio; alternation spreads any burst across
/// both. Microsecond-scale pairs (batch > 1) get extra alternations —
/// they are the ones where a single polluted batch would dominate.
fn best_of_pair<T, U>(
    reps: u32,
    mut fa: impl FnMut() -> T,
    mut fb: impl FnMut() -> U,
) -> ((f64, T), (f64, U)) {
    let (batch_a, mut out_a) = calibrate(&mut fa);
    let (batch_b, mut out_b) = calibrate(&mut fb);
    let reps = if batch_a > 1 || batch_b > 1 {
        reps.max(5)
    } else {
        reps.max(1)
    };
    let mut best_a = f64::INFINITY;
    let mut best_b = f64::INFINITY;
    for _ in 0..reps {
        best_a = best_a.min(timed_batch(batch_a, &mut fa, &mut out_a));
        best_b = best_b.min(timed_batch(batch_b, &mut fb, &mut out_b));
    }
    ((best_a, out_a), (best_b, out_b))
}

const SEED: u64 = 0xbe7c;

/// A grid point descriptor, expanded by [`run_grid`].
#[derive(Debug, Clone, Copy)]
enum Spec {
    Qsm(Problem, usize, u64),
    Sqsm(Problem, usize, u64),
    Bsp(Problem, usize, u64, u64, usize),
    QsmScatter(usize),
    SqsmScatter(usize),
    GsmScatter(usize),
    BspExchange(usize),
    IrReadTree(usize, u64),
    IrPrefix(usize, u64),
    IrcReadTree(usize, u64),
    IrcPrefix(usize, u64),
    IrcWriteTree(usize, u64),
}

/// Lowers `plan` once (outside the timer — one-shot compilation is the
/// point of the compiled path) and times the straight-line schedule
/// against the dense batch interpreter on the same plan. The equality gate
/// is three-way: compiled == interpreted == reference.
fn run_compiled_spec(
    plan: &PhasePlan,
    machine: &QsmMachine,
    input: &[Word],
    workload: String,
    n: usize,
    reps: u32,
) -> HotPoint {
    let compiled: CompiledPlan = match compile_plan(plan) {
        Ok(CompileOutcome::Compiled(c)) => c,
        Ok(CompileOutcome::Ineligible(why)) => {
            panic!(
                "'{}' must take the compiled path: {}",
                plan.family,
                why.describe()
            )
        }
        Err(e) => panic!("'{}' failed to compile: {e}", plan.family),
    };
    let ((ds, dr), (rs, rr)) = best_of_pair(
        reps,
        || run_compiled_batch(plan, &compiled, machine, input),
        || execute_plan(plan, input),
    );
    let reference = execute_plan_reference(plan, input);
    HotPoint {
        engine: "IR",
        workload,
        n,
        dense_s: ds,
        reference_s: rs,
        equal: matches!(
            (&dr, &rr, &reference),
            (Ok(c), Ok(i), Ok(r)) if c == i && i == r
        ),
        suite: "compiled",
    }
}

/// Request-dense scatter rounds: `n` processors each issue two reads across
/// the input region and two writes into `n/8` high-contention cells per
/// phase, for [`SCATTER_PHASES`] phases. Per-processor program logic is a
/// handful of adds, so wall-clock is dominated by the engine's request
/// routing — exactly the subsystem the dense tables replaced.
fn scatter_program(n: usize) -> impl Program<Proc = Word> {
    let buckets = (n / 8).max(1);
    FnProgram::new(
        n,
        |_pid| 0 as Word,
        move |pid, acc: &mut Word, env: &mut PhaseEnv<'_>| {
            let t = env.phase();
            *acc += env.delivered().iter().map(|&(_, v)| v).sum::<Word>();
            for j in 0..2usize {
                env.read((pid * 7 + t * 13 + j * 29) % n);
                env.write(n + ((pid + j * 11) % buckets), *acc + pid as Word);
            }
            if t + 1 >= SCATTER_PHASES {
                Status::Done
            } else {
                Status::Active
            }
        },
    )
}

const SCATTER_PHASES: usize = 8;
const EXCHANGE_STEPS: usize = 32;
const EXCHANGE_FANOUT: usize = 16;

/// GSM variant of the scatter rounds: same access pattern as
/// [`scatter_program`], but reads deliver full accumulated cell contents
/// (strong queuing), so the engine's routing layer moves strictly more
/// data per request. Reads stay in the γ-packed input region (read-only by
/// the Section 2.2 placement invariant); writes land above it.
fn gsm_scatter_program(n: usize) -> impl parbounds::models::GsmProgram<Proc = Word> {
    let buckets = (n / 8).max(1);
    GsmFnProgram::new(
        n,
        |_pid| 0 as Word,
        move |pid, acc: &mut Word, env: &mut GsmEnv<'_>| {
            let t = env.phase();
            *acc += env
                .delivered()
                .iter()
                .map(|(_, c)| c.iter().sum::<Word>())
                .sum::<Word>();
            for j in 0..2usize {
                env.read((pid * 7 + t * 13 + j * 29) % n);
                env.write(n + ((pid + j * 11) % buckets), *acc + pid as Word);
            }
            if t + 1 >= SCATTER_PHASES {
                Status::Done
            } else {
                Status::Active
            }
        },
    )
}

fn run_gsm_scatter(n: usize, reps: u32) -> HotPoint {
    let prog = gsm_scatter_program(n);
    let input: Vec<Word> = (0..n as Word).collect();
    let machine = GsmMachine::new(1, 2, 1);
    let dense = machine.clone();
    let reference = machine.with_reference_routing();
    let ((ds, dr), (rs, rr)) = best_of_pair(
        reps,
        || dense.run(&prog, &input),
        || reference.run(&prog, &input),
    );
    HotPoint {
        engine: "GSM",
        workload: "scatter/8x2rw".into(),
        n,
        dense_s: ds,
        reference_s: rs,
        equal: match (dr, rr) {
            (Ok(d), Ok(r)) => d.ledger == r.ledger && d.memory == r.memory,
            _ => false,
        },
        suite: "hot",
    }
}

/// Message-exchange supersteps: every component sends [`EXCHANGE_FANOUT`]
/// point-to-point messages per superstep for [`EXCHANGE_STEPS`] supersteps.
/// The reference engine allocates fresh per-destination inboxes every
/// superstep; the pooled engine recycles them, which is what this point
/// measures.
fn exchange_program(p: usize) -> impl parbounds::models::BspProgram<Proc = Word> {
    BspFnProgram::new(
        |_pid: usize, local: &[Word]| local.iter().sum::<Word>(),
        move |pid: usize, acc: &mut Word, ctx: &mut Superstep| {
            let t = ctx.step();
            // Masked: the fold otherwise grows ~fanout× per superstep and
            // overflows a Word within a few supersteps.
            *acc = (*acc + ctx.inbox().iter().map(|m| m.value).sum::<Word>()) & 0x7fff_ffff;
            for j in 0..EXCHANGE_FANOUT {
                ctx.send((pid * 31 + j * 97 + t) % p, j as Word, *acc);
            }
            if t + 1 >= EXCHANGE_STEPS {
                Status::Done
            } else {
                Status::Active
            }
        },
    )
}

/// The `p` a size-`n` point runs BSP workloads at.
fn bsp_p(n: usize) -> usize {
    (n / 64).clamp(4, 1024)
}

fn run_scatter(machine: QsmMachine, engine: &'static str, n: usize, reps: u32) -> HotPoint {
    let prog = scatter_program(n);
    let input: Vec<Word> = (0..n as Word).collect();
    let dense = machine.clone();
    let reference = machine.with_reference_routing();
    let ((ds, dr), (rs, rr)) = best_of_pair(
        reps,
        || dense.run(&prog, &input),
        || reference.run(&prog, &input),
    );
    HotPoint {
        engine,
        workload: "scatter/8x2rw".into(),
        n,
        dense_s: ds,
        reference_s: rs,
        equal: match (dr, rr) {
            (Ok(d), Ok(r)) => d.ledger == r.ledger && d.memory == r.memory,
            _ => false,
        },
        suite: "hot",
    }
}

fn run_spec(spec: Spec, reps: u32) -> HotPoint {
    match spec {
        Spec::Qsm(problem, n, g) => {
            let dense = QsmMachine::qsm(g);
            let reference = QsmMachine::qsm(g).with_reference_routing();
            let input = row_input(problem, n, SEED);
            let ((ds, dr), (rs, rr)) = best_of_pair(
                reps,
                || qsm_time_row_on_input(&dense, &input),
                || qsm_time_row_on_input(&reference, &input),
            );
            HotPoint {
                engine: "QSM",
                workload: format!("{problem:?}/g={g}"),
                n,
                dense_s: ds,
                reference_s: rs,
                equal: match (dr, rr) {
                    (Ok(d), Ok(r)) => d.measured == r.measured,
                    _ => false,
                },
                suite: "e2e",
            }
        }
        Spec::Sqsm(problem, n, g) => {
            let dense = QsmMachine::sqsm(g);
            let reference = QsmMachine::sqsm(g).with_reference_routing();
            let input = row_input(problem, n, SEED);
            let ((ds, dr), (rs, rr)) = best_of_pair(
                reps,
                || sqsm_time_row_on_input(&dense, &input),
                || sqsm_time_row_on_input(&reference, &input),
            );
            HotPoint {
                engine: "s-QSM",
                workload: format!("{problem:?}/g={g}"),
                n,
                dense_s: ds,
                reference_s: rs,
                equal: match (dr, rr) {
                    (Ok(d), Ok(r)) => d.measured == r.measured,
                    _ => false,
                },
                suite: "e2e",
            }
        }
        Spec::Bsp(problem, n, g, l, p) => {
            let dense = BspMachine::new(p, g, l).expect("valid BSP config");
            let reference = dense.clone().with_reference_routing();
            let input = row_input(problem, n, SEED);
            let ((ds, dr), (rs, rr)) = best_of_pair(
                reps,
                || bsp_time_row_on_input(&dense, &input),
                || bsp_time_row_on_input(&reference, &input),
            );
            HotPoint {
                engine: "BSP",
                workload: format!("{problem:?}/p={p}"),
                n,
                dense_s: ds,
                reference_s: rs,
                equal: match (dr, rr) {
                    (Ok(d), Ok(r)) => d.measured == r.measured,
                    _ => false,
                },
                suite: "e2e",
            }
        }
        Spec::QsmScatter(n) => run_scatter(QsmMachine::qsm(4), "QSM", n, reps),
        Spec::SqsmScatter(n) => run_scatter(QsmMachine::sqsm(4), "s-QSM", n, reps),
        Spec::GsmScatter(n) => run_gsm_scatter(n, reps),
        Spec::BspExchange(n) => {
            let p = bsp_p(n);
            let prog = exchange_program(p);
            let input: Vec<Word> = (0..(p * 4) as Word).collect();
            let dense = BspMachine::new(p, 2, 16).expect("valid BSP config");
            let reference = dense.clone().with_reference_routing();
            let ((ds, dr), (rs, rr)) = best_of_pair(
                reps,
                || dense.run(&prog, &input),
                || reference.run(&prog, &input),
            );
            HotPoint {
                engine: "BSP",
                workload: format!("exchange/p={p}"),
                n,
                dense_s: ds,
                reference_s: rs,
                equal: match (dr, rr) {
                    (Ok(d), Ok(r)) => d.ledger == r.ledger && d.states == r.states,
                    _ => false,
                },
                suite: "hot",
            }
        }
        Spec::IrReadTree(n, g) => {
            let plan = fan_in_read_tree(n, 3, CombineOp::Sum, ModelKind::SQsm { g });
            let input: Vec<Word> = (0..n as Word).collect();
            let ((ds, dr), (rs, rr)) = best_of_pair(
                reps,
                || execute_plan(&plan, &input),
                || execute_plan_reference(&plan, &input),
            );
            HotPoint {
                engine: "IR",
                workload: format!("read_tree/g={g}"),
                n,
                dense_s: ds,
                reference_s: rs,
                equal: matches!((dr, rr), (Ok(d), Ok(r)) if d == r),
                suite: "hot",
            }
        }
        Spec::IrPrefix(n, g) => {
            let plan = prefix_sweep(n, 4, CombineOp::Sum, ModelKind::Qsm { g });
            let input: Vec<Word> = (0..n as Word).collect();
            let ((ds, dr), (rs, rr)) = best_of_pair(
                reps,
                || execute_plan(&plan, &input),
                || execute_plan_reference(&plan, &input),
            );
            HotPoint {
                engine: "IR",
                workload: format!("prefix_sweep/g={g}"),
                n,
                dense_s: ds,
                reference_s: rs,
                equal: matches!((dr, rr), (Ok(d), Ok(r)) if d == r),
                suite: "hot",
            }
        }
        Spec::IrcReadTree(n, g) => {
            let plan = fan_in_read_tree(n, 3, CombineOp::Sum, ModelKind::SQsm { g });
            let input: Vec<Word> = (0..n as Word).collect();
            run_compiled_spec(
                &plan,
                &QsmMachine::sqsm(g),
                &input,
                format!("read_tree/g={g}"),
                n,
                reps,
            )
        }
        Spec::IrcPrefix(n, g) => {
            let plan = prefix_sweep(n, 4, CombineOp::Sum, ModelKind::Qsm { g });
            let input: Vec<Word> = (0..n as Word).collect();
            run_compiled_spec(
                &plan,
                &QsmMachine::qsm(g),
                &input,
                format!("prefix_sweep/g={g}"),
                n,
                reps,
            )
        }
        Spec::IrcWriteTree(n, g) => {
            // All-ones input saturates every guard, so the guarded-store
            // machinery is fully exercised, not skipped.
            let plan = fan_in_write_tree(n, 4, ModelKind::Qsm { g });
            let input: Vec<Word> = vec![1; n.max(1)];
            run_compiled_spec(
                &plan,
                &QsmMachine::qsm(g),
                &input,
                format!("write_tree/g={g}"),
                n,
                reps,
            )
        }
    }
}

/// Runs the full grid: every engine × workload at every `n` in `ns`, each
/// timed best-of-`reps` on both paths. Points sweep in parallel (see
/// [`crate::par_sweep`]); each individual timing is single-threaded.
pub fn run_grid(ns: &[usize], reps: u32, smoke: bool) -> HotReport {
    let mut specs = Vec::new();
    for &n in ns {
        specs.push(Spec::QsmScatter(n));
        specs.push(Spec::SqsmScatter(n));
        specs.push(Spec::GsmScatter(n));
        specs.push(Spec::BspExchange(n));
        specs.push(Spec::IrReadTree(n, 4));
        specs.push(Spec::IrPrefix(n, 2));
        specs.push(Spec::IrcReadTree(n, 4));
        specs.push(Spec::IrcPrefix(n, 2));
        specs.push(Spec::IrcWriteTree(n, 4));
        for problem in [Problem::Parity, Problem::Or, Problem::Lac] {
            specs.push(Spec::Qsm(problem, n, 8));
            specs.push(Spec::Sqsm(problem, n, 4));
            specs.push(Spec::Bsp(problem, n, 4, 16, bsp_p(n).min(512)));
        }
    }
    let points = par_sweep(&specs, |&spec| run_spec(spec, reps));
    HotReport {
        points,
        host_threads: std::thread::available_parallelism()
            .map(|v| v.get())
            .unwrap_or(1),
        reps,
        smoke,
    }
}

/// The default size sweep of the hot-path table (matches
/// [`crate::n_sweep`], whose largest point is `2^16`).
pub fn default_ns() -> Vec<usize> {
    crate::n_sweep()
}

/// The reduced grid for CI smoke runs: small sizes, still every engine.
pub fn smoke_ns() -> Vec<usize> {
    vec![1 << 8, 1 << 10]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_grid_runs_and_agrees() {
        let report = run_grid(&[64], 1, true);
        assert!(report.all_equal(), "dense and reference paths diverged");
        assert!(report.points.len() > 5);
        // Satellite coverage: the GSM dense-routing row is part of the grid.
        assert!(report
            .points
            .iter()
            .any(|p| p.engine == "GSM" && p.suite == "hot"));
        // Satellite coverage: the compiled suite rows are part of the grid
        // and their three-way equality (compiled == interpreted ==
        // reference) held.
        assert!(report
            .points
            .iter()
            .any(|p| p.suite == "compiled" && p.equal));
        assert!(report.largest_n_compiled_geomean_speedup() > 0.0);
        assert!(report.host_threads >= 1);
        let json = report.to_json();
        assert!(json.contains("\"bench\": \"table_hotpath\""));
        assert!(json.contains("\"all_equal\": true"));
        assert!(json.contains("\"compiled_geomean_speedup\""));
        assert!(json.contains("\"host_threads\""));
    }
}
