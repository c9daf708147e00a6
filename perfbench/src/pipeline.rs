//! `plan-pipeline`: one pass takes each of the 7 `analyze::IR_FAMILIES`
//! through `ir_family_plan → predict_ledger → certify_writes → lint_plan →
//! compile_plan → execute_compiled_cancellable → execute_plan`, then
//! `check_family` with `predict_ledger_symbolic(..).eval_ledger` at the
//! suite point, then `adversary::audit_family`.

use std::time::Duration;

use parbounds::adversary::audit_family;
use parbounds::analyze::symbolic::suite_point;
use parbounds::analyze::{
    certify_writes, check_family, ir_family_plan, lint_plan, predict_ledger,
    predict_ledger_symbolic, Severity, IR_FAMILIES,
};
use parbounds::ir::{compile_plan, execute_compiled_cancellable, execute_plan, CompileOutcome};
use parbounds::models::CancelToken;

use crate::trace::Tracer;
use crate::{batch_timing, run_passes, stats, Measurement, Metric, Workload};

/// Problem size every family is built at.
pub const N: usize = 1 << 16;

/// Stage spans of one family pipeline, in call order.
pub const STAGES: [&str; 9] = [
    "algo.ir_families.build",
    "analyze.statics.predict",
    "analyze.statics.certify",
    "analyze.statics.lint",
    "ir.compile",
    "ir.compiled.exec",
    "ir.interp.exec",
    "analyze.symbolic",
    "adversary.audit",
];

/// The `plan-pipeline` workload.
#[derive(Debug, Clone)]
pub struct Pipeline {
    /// Problem size every family is built at.
    pub n: usize,
}

impl Default for Pipeline {
    fn default() -> Self {
        Pipeline { n: N }
    }
}

/// Set-up state: the workload seed (each family's input comes from it).
#[derive(Debug)]
pub struct State {
    seed: u64,
}

/// Runs one family's pipeline and returns the compiled phase count, or a
/// description of the first wrong output.
pub fn run_family(
    family: &str,
    n: usize,
    seed: u64,
    op: u64,
    t: &mut Tracer,
) -> Result<u64, String> {
    let err = |stage: &str, e: &dyn std::fmt::Display| format!("{family}: {stage}: {e}");
    let (_, plan, input) = t
        .span(STAGES[0], op, |_| ir_family_plan(family, n, seed))
        .map_err(|e| err("build", &e))?;
    let predicted = t
        .span(STAGES[1], op, |_| predict_ledger(&plan))
        .map_err(|e| err("predict", &e))?;
    let cert = t
        .span(STAGES[2], op, |_| certify_writes(&plan))
        .map_err(|e| err("certify", &e))?;
    let lints = t
        .span(STAGES[3], op, |_| lint_plan(&plan))
        .map_err(|e| err("lint", &e))?;
    let compiled = match t.span(STAGES[4], op, |_| compile_plan(&plan)) {
        Ok(CompileOutcome::Compiled(cp)) => cp,
        Ok(CompileOutcome::Ineligible(why)) => return Err(err("compile", &why.describe())),
        Err(e) => return Err(err("compile", &e)),
    };
    let fast = t
        .span(STAGES[5], op, |_| {
            execute_compiled_cancellable(&plan, &compiled, &input, &CancelToken::new())
        })
        .map_err(|e| err("compiled exec", &e))?;
    let interp = t
        .span(STAGES[6], op, |_| execute_plan(&plan, &input))
        .map_err(|e| err("interpreted exec", &e))?;
    let (conformance, symbolic) = t.span(STAGES[7], op, |_| {
        let conformance = check_family(family);
        let symbolic =
            predict_ledger_symbolic(family).map(|l| l.eval_ledger(suite_point(family, n)));
        (conformance, symbolic)
    });
    let audit = t
        .span(STAGES[8], op, |_| audit_family(family, n))
        .map_err(|e| err("audit", &e))?;

    let conformance = conformance.map_err(|e| err("symbolic", &e))?;
    let symbolic = symbolic
        .map_err(|e| err("symbolic", &e))?
        .map_err(|e| err("symbolic eval", &e))?;
    let checks = [
        (
            predicted == fast.ledger,
            "compiled ledger differs from prediction",
        ),
        (
            predicted == interp.ledger,
            "interpreted ledger differs from prediction",
        ),
        (
            fast.output == interp.output,
            "compiled output differs from interpreted",
        ),
        (cert.is_race_free(), "write certificate refused"),
        (
            lints.iter().all(|d| d.severity != Severity::Error),
            "error-severity lint",
        ),
        (
            conformance.equivalent && !conformance.regression,
            "symbolic bound not Θ-equivalent to Table 1",
        ),
        (
            symbolic == predicted,
            "symbolic ledger differs from prediction",
        ),
        (audit.passed(), "adversary audit failed"),
    ];
    match checks.iter().find(|(ok, _)| !ok) {
        Some((_, what)) => Err(format!("{family}: {what}")),
        None => Ok(compiled.num_phases() as u64),
    }
}

impl Workload for Pipeline {
    type State = State;

    /// Warms every family's whole pipeline at `n / 16`; the pipeline's own
    /// inputs are built inside each pass, by `ir_family_plan`. A warm-up of
    /// a few milliseconds would time mostly page faults, whose cost swings
    /// far more with other load on the host than the pipeline's does.
    fn setup(&self, seed: u64, _tracer: &mut Tracer) -> State {
        for family in IR_FAMILIES {
            let _ = run_family(family, self.n / 16, seed, 0, &mut Tracer::new(false));
        }
        State { seed }
    }

    fn measure(&self, state: &mut State, budget: Duration, tracer: &mut Tracer) -> Measurement {
        let mut m = Measurement::default();
        let mut compiled_phases = 0;
        let samples = run_passes(budget, IR_FAMILIES.len(), tracer, |t, op, i| {
            let family = IR_FAMILIES[i];
            m.attempted += 1;
            let out = t.span(&format!("family.{family}"), op, |t| {
                run_family(family, self.n, state.seed, op, t)
            });
            if i == 0 {
                compiled_phases = 0;
            }
            match out {
                Ok(phases) => compiled_phases += phases,
                Err(e) => m.fail(e),
            }
        });
        batch_timing(&mut m, &samples, IR_FAMILIES.len());
        if tracer.is_on() {
            m.layers = layer_metrics(tracer, compiled_phases);
        }
        m
    }
}

/// Per-layer metrics of a traced stretch: per-pass self time of each
/// stage (summed over families), each family's whole pipeline, and the
/// exact compiled phase count, as medians over passes.
fn layer_metrics(tracer: &Tracer, compiled_phases: u64) -> Vec<Metric> {
    let per_pass = tracer.self_ms_per_root("pass");
    let median_of = |name: &str| {
        let ms: Vec<f64> = per_pass
            .iter()
            .map(|p| p.get(name).copied().unwrap_or(0.0))
            .collect();
        stats::median(&ms)
    };
    let mut out: Vec<Metric> = STAGES
        .iter()
        .map(|s| Metric::new(format!("{s}_ms"), median_of(s), "ms"))
        .collect();
    for family in IR_FAMILIES {
        let ms = tracer.durations_ms(&format!("family.{family}"));
        out.push(Metric::new(
            format!("family.{family}_ms"),
            stats::median(&ms),
            "ms",
        ));
    }
    out.push(Metric::new(
        "ir.compiled_phases",
        compiled_phases as f64,
        "count",
    ));
    out
}
