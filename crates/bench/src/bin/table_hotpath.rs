#![forbid(unsafe_code)]

//! Wall-clock benchmark of the execution fast paths: dense request
//! routing + arena reuse in the QSM/s-QSM/GSM/BSP engines and the IR batch
//! interpreter against the reference (pre-fast-path) engines, on the
//! Section 8 workloads.
//!
//! ```text
//! cargo run --release -p parbounds-bench --bin table_hotpath -- \
//!     [--smoke] [--out BENCH_PR5.json] [--threads N] \
//!     [--check-speedup X] [--check-compiled X] [--check-floor X]
//! ```
//!
//! Exits nonzero if any point's dense run disagrees with its reference run
//! (the equivalence gate); if `--check-speedup X` is given and the
//! geometric-mean speedup on the largest-`n` sweep falls below `X`; if
//! `--check-compiled X` is given and the compiled-suite geomean at the
//! largest `n` falls below `X`; or if `--check-floor X` is given and ANY
//! point of any suite or size comes in below `X` — the "dense never
//! loses to reference" assertion.

use parbounds_bench::hotpath::{default_ns, run_grid, smoke_ns};
use parbounds_bench::init_threads_from_cli;

fn main() {
    let args = init_threads_from_cli().unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    });
    let mut smoke = false;
    let mut out: Option<String> = None;
    let mut check_speedup: Option<f64> = None;
    let mut check_compiled: Option<f64> = None;
    let mut check_floor: Option<f64> = None;
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--out" => out = Some(it.next().unwrap_or_else(|| usage("--out needs a path"))),
            "--check-speedup" => {
                let v = it
                    .next()
                    .unwrap_or_else(|| usage("--check-speedup needs a number"));
                check_speedup = Some(v.parse().unwrap_or_else(|_| {
                    usage("--check-speedup expects a number");
                }));
            }
            "--check-compiled" => {
                let v = it
                    .next()
                    .unwrap_or_else(|| usage("--check-compiled needs a number"));
                check_compiled = Some(v.parse().unwrap_or_else(|_| {
                    usage("--check-compiled expects a number");
                }));
            }
            "--check-floor" => {
                let v = it
                    .next()
                    .unwrap_or_else(|| usage("--check-floor needs a number"));
                check_floor = Some(v.parse().unwrap_or_else(|_| {
                    usage("--check-floor expects a number");
                }));
            }
            other => usage(&format!("unknown argument: {other}")),
        }
    }

    let (ns, reps) = if smoke {
        (smoke_ns(), 1)
    } else {
        (default_ns(), 3)
    };
    let report = run_grid(&ns, reps, smoke);

    println!(
        "{:<5} {:<6} {:<18} {:>8} | {:>12} {:>12} {:>8} | equal",
        "suite", "engine", "workload", "n", "dense (s)", "ref (s)", "speedup"
    );
    println!("{}", "-".repeat(90));
    for p in &report.points {
        println!(
            "{:<5} {:<6} {:<18} {:>8} | {:>12.6} {:>12.6} {:>8.2} | {}",
            p.suite,
            p.engine,
            p.workload,
            p.n,
            p.dense_s,
            p.reference_s,
            p.speedup(),
            if p.equal { "yes" } else { "NO" }
        );
    }
    println!();
    println!(
        "largest-n (n = {}) hot-suite geomean speedup: {:.2}x",
        report.largest_n(),
        report.largest_n_geomean_speedup()
    );
    println!(
        "largest-n (n = {}) end-to-end geomean speedup: {:.2}x",
        report.largest_n(),
        report.largest_n_e2e_geomean_speedup()
    );
    println!(
        "largest-n (n = {}) compiled-vs-interpreter geomean speedup: {:.2}x",
        report.largest_n(),
        report.largest_n_compiled_geomean_speedup()
    );
    if let Some((got, p)) = report.min_speedup() {
        println!(
            "slowest point vs reference: {got:.2}x ({} {} {} n = {})",
            p.suite, p.engine, p.workload, p.n
        );
    }

    if let Some(path) = out {
        std::fs::write(&path, report.to_json()).unwrap_or_else(|e| {
            eprintln!("failed to write {path}: {e}");
            std::process::exit(1);
        });
        println!("wrote {path}");
    }

    if !report.all_equal() {
        eprintln!("FAIL: dense fast path diverged from the reference engines");
        std::process::exit(1);
    }
    if let Some(x) = check_speedup {
        let got = report.largest_n_geomean_speedup();
        if got < x {
            eprintln!("FAIL: largest-n geomean speedup {got:.2}x < required {x:.2}x");
            std::process::exit(1);
        }
    }
    if let Some(x) = check_compiled {
        let got = report.largest_n_compiled_geomean_speedup();
        if got < x {
            eprintln!("FAIL: compiled-suite geomean speedup {got:.2}x < required {x:.2}x");
            std::process::exit(1);
        }
    }
    if let Some(x) = check_floor {
        if let Some((got, p)) = report.min_speedup() {
            if got < x {
                eprintln!(
                    "FAIL: dense lost to reference: {} {} {} n={} at {got:.2}x < floor {x:.2}x",
                    p.suite, p.engine, p.workload, p.n
                );
                std::process::exit(1);
            }
        }
    }
}

fn usage(msg: &str) -> ! {
    eprintln!("{msg}");
    eprintln!(
        "usage: table_hotpath [--smoke] [--out PATH] [--threads N] \
         [--check-speedup X] [--check-compiled X] [--check-floor X]"
    );
    std::process::exit(2);
}
