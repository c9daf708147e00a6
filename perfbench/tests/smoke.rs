//! Tiny-size smoke runs of every workload on two seeds, exact-count
//! repeatability, and agreement between the metric lists and
//! `BENCHMARK.json`.

use std::time::Duration;

use parbounds::serve::json::{self, Json};
use perfbench::pipeline::Pipeline;
use perfbench::serve::{Serve, INLINE_PER_FAMILY, MIX};
use perfbench::table1::{self, Row, Table1, ROWS};
use perfbench::trace::Tracer;
use perfbench::{Measurement, Workload, PER_LAYER};

fn table1() -> Table1 {
    Table1 {
        n: 1 << 10,
        golden: "",
    }
}

fn pipeline() -> Pipeline {
    Pipeline { n: 64 }
}

/// One connection replays exactly one schedule block, so the order of
/// requests, and with it every oracle counter, is fixed.
fn serve() -> Serve {
    let mut s = Serve {
        sizes: [16, 32, 64],
        inline_n: 16,
        connections: 1,
        workers: 2,
        requests: 0,
    };
    s.requests = s.block_len();
    s
}

/// One traced stretch: set-up plus measurement. A zero budget runs one
/// pass of a batch workload; the serve schedule bounds its own length.
fn traced<W: Workload>(w: &W, seed: u64, budget: Duration) -> Measurement {
    let mut tracer = Tracer::new(true);
    let mut state = w.setup(seed, &mut tracer);
    let m = w.measure(&mut state, budget, &mut tracer);
    assert!(m.attempted > 0);
    assert_eq!(m.failed, 0, "wrong outputs: {:?}", m.failures);
    assert!(m.ops_per_s > 0.0);
    for layer in &m.layers {
        assert!(
            PER_LAYER
                .iter()
                .any(|&(name, unit)| name == layer.name && unit == layer.unit),
            "{} ({}) is missing from PER_LAYER",
            layer.name,
            layer.unit
        );
    }
    m
}

fn layer(m: &Measurement, name: &str) -> f64 {
    m.layers
        .iter()
        .find(|l| l.name == name)
        .unwrap_or_else(|| panic!("no layer metric {name}"))
        .value
}

#[test]
fn table1_rows_smoke_and_counts_repeat() {
    for seed in [1, 2] {
        let a = traced(&table1(), seed, Duration::ZERO);
        let b = traced(&table1(), seed, Duration::ZERO);
        assert_eq!(a.attempted, ROWS.len() as u64);
        for name in ["sim.phases", "sim.model_time"] {
            assert!(layer(&a, name) > 0.0);
            assert_eq!(layer(&a, name), layer(&b, name), "{name} at seed {seed}");
        }
    }
}

#[test]
fn table1_rows_fail_on_a_wrong_golden_value() {
    let w = Table1 {
        n: 1 << 10,
        golden: "qsm.or * 1 1\n",
    };
    let mut state = w.setup(1, &mut Tracer::new(false));
    let m = w.measure(&mut state, Duration::ZERO, &mut Tracer::new(false));
    assert_eq!(m.failed, 1, "{:?}", m.failures);
    assert!(m.failures[0].starts_with("qsm.or"));
}

#[test]
fn plan_pipeline_smoke_and_counts_repeat() {
    for seed in [1, 2] {
        let a = traced(&pipeline(), seed, Duration::ZERO);
        let b = traced(&pipeline(), seed, Duration::ZERO);
        assert_eq!(a.attempted, 7);
        assert!(layer(&a, "ir.compiled_phases") > 0.0);
        assert_eq!(
            layer(&a, "ir.compiled_phases"),
            layer(&b, "ir.compiled_phases")
        );
    }
}

#[test]
fn oracle_serve_smoke_and_counters_repeat_on_one_connection() {
    let counters = [
        "serve.share.cached",
        "serve.cache.hit_ratio",
        "serve.cache.evictions",
        "serve.analyses",
        "serve.compiled_plans",
        "serve.degraded",
        "serve.shed",
    ];
    let w = serve();
    for seed in [1, 2] {
        let a = traced(&w, seed, Duration::from_secs(600));
        let b = traced(&w, seed, Duration::from_secs(600));
        assert_eq!(a.attempted, w.block_len() as u64);
        for name in counters {
            assert_eq!(layer(&a, name), layer(&b, name), "{name} at seed {seed}");
        }
        assert!(layer(&a, "serve.cache.hit_ratio") >= 0.5);
        assert_eq!(layer(&a, "serve.share.repeat"), 0.5);
        assert!(layer(&a, "serve.wire.decode_us") > 0.0);
    }
}

#[test]
fn serve_schedule_is_seeded_and_balanced() {
    let w = Serve::default();
    let a = w.schedule(7);
    assert_eq!(a, w.schedule(7));
    assert_ne!(a, w.schedule(8));
    let block = &a[..w.block_len()];
    let repeats = block.iter().filter(|s| s.first.is_some()).count();
    assert_eq!(repeats * 2, block.len());
    for (i, spec) in block.iter().enumerate() {
        if let Some(first) = spec.first {
            assert!(first < i);
            assert_eq!(block[first].seed, spec.seed);
        }
    }
    let fresh: Vec<_> = block.iter().filter(|s| s.first.is_none()).collect();
    let inline = fresh.iter().filter(|s| s.inline).count();
    assert_eq!(inline, 7 * INLINE_PER_FAMILY);
    // Family requests of each kind follow the mix for all 7 families and
    // 3 sizes.
    for (kind, count) in MIX {
        let family = fresh.iter().filter(|s| !s.inline && s.kind == kind).count();
        assert_eq!(family, 7 * 3 * count, "{}", kind.name());
    }
}

#[test]
fn batch_timing_takes_each_operations_fastest_pass() {
    let mut m = Measurement::default();
    // Two passes of two operations, in pass order.
    perfbench::batch_timing(&mut m, &[300.0, 500.0, 100.0, 700.0], 2);
    assert_eq!(m.latency_ms, vec![100.0, 500.0]);
    assert!((m.ops_per_s - 2.0 / 0.6).abs() < 1e-9);
}

#[test]
fn golden_file_covers_every_row() {
    for row in ROWS {
        assert!(
            table1::golden(table1::GOLDEN, row, 0).is_some(),
            "no golden line for {}",
            row.name()
        );
    }
    let text = "qsm.lac 3 10 2\nqsm.lac * 1 1\nqsm.or * 5 6\n";
    assert_eq!(table1::golden(text, Row::QsmLac, 3), Some((10, 2)));
    assert_eq!(table1::golden(text, Row::QsmLac, 4), Some((1, 1)));
    assert_eq!(table1::golden(text, Row::QsmOr, 9), Some((5, 6)));
    assert_eq!(table1::golden(text, Row::BspOr, 0), None);
}

/// `(name, unit)` of every metric in one list of `BENCHMARK.json`.
fn declared(list: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let mut text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
    // The wire parser reads integers only: drop the fractional bounds.
    while let Some(at) = text.find(", \"bound\":") {
        let end = at + text[at..].find('}').expect("bound ends its object");
        text.replace_range(at..end, "");
    }
    let doc = json::parse(&text).expect("BENCHMARK.json is JSON");
    doc.get(list)
        .and_then(Json::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k| {
                m.get(k)
                    .and_then(Json::as_str)
                    .expect("name and unit")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn metric_lists_match_benchmark_json() {
    let m = Measurement::default();
    let e2e: Vec<(String, String)> = perfbench::end_to_end(&m, 1.0, 1.0)
        .into_iter()
        .map(|x| (x.name, x.unit.to_string()))
        .collect();
    assert_eq!(e2e, declared("end_to_end"));
    let per_layer: Vec<(String, String)> = PER_LAYER
        .iter()
        .map(|&(n, u)| (n.to_string(), u.to_string()))
        .collect();
    assert_eq!(per_layer, declared("per_layer"));
}
