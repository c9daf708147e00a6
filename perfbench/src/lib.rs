//! End-to-end and per-layer benchmark of `parbounds`.
//!
//! Three seeded workloads drive the public API the way its users do:
//!
//! * [`table1`] regenerates every §8 Table-1 time row at `n = 2^20`
//!   (the closed-form engines of `models` plus the `algorithms` programs);
//! * [`pipeline`] takes every IR family at `n = 2^16` through the static
//!   analyser, the plan compiler, both executors, the symbolic checker and
//!   the adversary audit;
//! * [`serve`] runs a closed loop of client connections against the
//!   cost-oracle service.
//!
//! Each workload checks its outputs, so a wrong answer fails the run. A
//! traced run wraps every call into a layer in a [`trace::Tracer`] span
//! from this crate; nothing inside the product is instrumented.

pub mod host;
pub mod pipeline;
pub mod serve;
pub mod stats;
pub mod table1;
pub mod trace;

use std::time::{Duration, Instant};

/// What one measured stretch of a workload produced.
#[derive(Debug, Default)]
pub struct Measurement {
    /// Operations attempted: Table-1 rows, family pipelines or requests.
    pub attempted: u64,
    /// Operations whose output was wrong, failed, degraded or shed.
    pub failed: u64,
    /// A description of each of the first few failures.
    pub failures: Vec<String>,
    /// Latency samples in milliseconds: each request of a service run, or
    /// each operation (row, family pipeline) of a batch workload at its
    /// fastest pass, see [`best_of_passes`].
    pub latency_ms: Vec<f64>,
    /// Operations per host second: for a service run, completed requests
    /// over the stretch's wall time; for a batch workload, see
    /// [`batch_timing`].
    pub ops_per_s: f64,
    /// Per-layer metrics, filled only when the stretch was traced.
    pub layers: Vec<Metric>,
}

impl Measurement {
    /// Records one failed operation, keeping the first few descriptions.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(what);
        }
    }
}

/// One named metric with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit, e.g. `ms`, `1/s` or `count`.
    pub unit: &'static str,
}

impl Metric {
    /// Builds a metric.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// The end-to-end metrics of an untraced stretch, in `BENCHMARK.json`
/// order: operations per second, the median and 99th-percentile latency,
/// peak resident memory and the median set-up time.
pub fn end_to_end(m: &Measurement, setup_s: f64, peak_rss_mb: f64) -> Vec<Metric> {
    vec![
        Metric::new("ops_per_s", m.ops_per_s, "1/s"),
        Metric::new("latency_p50_ms", stats::quantile(&m.latency_ms, 0.5), "ms"),
        Metric::new("latency_p99_ms", stats::quantile(&m.latency_ms, 0.99), "ms"),
        Metric::new("peak_rss_mb", peak_rss_mb, "MiB"),
        Metric::new("setup_s", setup_s, "s"),
    ]
}

/// Every per-layer metric and its unit. A traced run prints all of them;
/// the layers its workload leaves idle read 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("trace.overhead_pct", "%"),
    ("algo.workloads.row_input_ms", "ms"),
    ("models.qsm.or_ms", "ms"),
    ("models.qsm.parity_ms", "ms"),
    ("models.qsm.lac_ms", "ms"),
    ("models.sqsm.or_ms", "ms"),
    ("models.sqsm.parity_ms", "ms"),
    ("models.sqsm.lac_ms", "ms"),
    ("models.gsm.or_ms", "ms"),
    ("models.gsm.parity_ms", "ms"),
    ("models.bsp.or_ms", "ms"),
    ("models.bsp.parity_ms", "ms"),
    ("models.bsp.lac_ms", "ms"),
    ("sim.phases", "count"),
    ("sim.model_time", "count"),
    ("algo.ir_families.build_ms", "ms"),
    ("analyze.statics.predict_ms", "ms"),
    ("analyze.statics.certify_ms", "ms"),
    ("analyze.statics.lint_ms", "ms"),
    ("ir.compile_ms", "ms"),
    ("ir.compiled.exec_ms", "ms"),
    ("ir.interp.exec_ms", "ms"),
    ("analyze.symbolic_ms", "ms"),
    ("adversary.audit_ms", "ms"),
    ("family.or-write-tree_ms", "ms"),
    ("family.parity-read-tree_ms", "ms"),
    ("family.broadcast_ms", "ms"),
    ("family.prefix-sweep_ms", "ms"),
    ("family.scatter-gather_ms", "ms"),
    ("family.bsp-reduce_ms", "ms"),
    ("family.bsp-prefix-scan_ms", "ms"),
    ("ir.compiled_phases", "count"),
    ("serve.hit_p50_ms", "ms"),
    ("serve.hit_p99_ms", "ms"),
    ("serve.miss_p50_ms", "ms"),
    ("serve.miss_p99_ms", "ms"),
    ("serve.kind.static_p50_ms", "ms"),
    ("serve.kind.lint_p50_ms", "ms"),
    ("serve.kind.certify_p50_ms", "ms"),
    ("serve.kind.run_p50_ms", "ms"),
    ("serve.kind.compare_p50_ms", "ms"),
    ("serve.kind.symbolic_p50_ms", "ms"),
    ("serve.kind.audit_p50_ms", "ms"),
    ("serve.kind.static_count", "count"),
    ("serve.kind.lint_count", "count"),
    ("serve.kind.certify_count", "count"),
    ("serve.kind.run_count", "count"),
    ("serve.kind.compare_count", "count"),
    ("serve.kind.symbolic_count", "count"),
    ("serve.kind.audit_count", "count"),
    ("serve.share.repeat", "ratio"),
    ("serve.share.cached", "ratio"),
    ("serve.share.inline", "ratio"),
    ("serve.wire.decode_us", "us"),
    ("serve.wire.encode_us", "us"),
    ("serve.resolve_ms", "ms"),
    ("serve.predict_ms", "ms"),
    ("serve.cache_key_us", "us"),
    ("serve.cache.hit_ratio", "ratio"),
    ("serve.cache.evictions", "count"),
    ("serve.analyses", "count"),
    ("serve.compiled_plans", "count"),
    ("serve.degraded", "count"),
    ("serve.shed", "count"),
];

/// Runs passes of `ops` operations inside a `pass` span, calling
/// `op(tracer, op id, index)` for each, at least once and then again while
/// one more pass of the mean length so far still ends within `budget`.
/// Returns each operation's host time (ms) in pass order.
pub fn run_passes(
    budget: Duration,
    ops: usize,
    tracer: &mut trace::Tracer,
    mut op: impl FnMut(&mut trace::Tracer, u64, usize),
) -> Vec<f64> {
    let start = Instant::now();
    let mut samples_ms = Vec::new();
    for pass in 1u32.. {
        tracer.span("pass", u64::from(pass), |t| {
            for i in 0..ops {
                let t0 = Instant::now();
                op(t, u64::from(pass) * ops as u64 + i as u64, i);
                samples_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            }
        });
        let spent = start.elapsed();
        if spent + spent / pass > budget {
            break;
        }
    }
    samples_ms
}

/// Each operation's fastest time over the passes, from samples (ms) in
/// pass order with `ops` operations per pass. Other load on the host only
/// ever slows an operation down, and it comes and goes within seconds, so
/// the fastest pass is the least disturbed one; the repository's own
/// hot-path benchmark times best-of-reps for the same reason.
pub fn best_of_passes(samples_ms: &[f64], ops: usize) -> Vec<f64> {
    (0..ops)
        .map(|i| {
            samples_ms
                .iter()
                .skip(i)
                .step_by(ops)
                .copied()
                .fold(f64::INFINITY, f64::min)
        })
        .collect()
}

/// Fills a batch workload's latency with each operation's best-of-passes
/// time, and its throughput with one pass's operations over their sum.
pub fn batch_timing(m: &mut Measurement, samples_ms: &[f64], ops: usize) {
    m.latency_ms = best_of_passes(samples_ms, ops);
    m.ops_per_s = ops as f64 / (m.latency_ms.iter().sum::<f64>() / 1e3);
}

/// A workload: a seeded set-up, then measured stretches over that state.
pub trait Workload {
    /// Inputs, schedule or running service the stretches use.
    type State;

    /// Builds the state from the workload seed. Timed as `setup_s`.
    fn setup(&self, seed: u64, tracer: &mut trace::Tracer) -> Self::State;

    /// Runs operations until `budget` has passed (at least one pass), and
    /// checks every output. Spans go to `tracer` when it is on.
    fn measure(
        &self,
        state: &mut Self::State,
        budget: Duration,
        tracer: &mut trace::Tracer,
    ) -> Measurement;
}
