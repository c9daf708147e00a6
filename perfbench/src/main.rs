//! Benchmark command.
//!
//! ```text
//! perfbench --workload <table1-rows|plan-pipeline|oracle-serve> --seed <n>
//!           --seconds <s> --trace <0|1>
//! perfbench --emit-golden <seeds>
//! ```
//!
//! With `--trace 0` it prints every end-to-end metric; with `--trace 1` it
//! measures half the time untraced and half traced, prints every per-layer
//! metric plus the tracing overhead, and writes the spans as JSON next to
//! the executable. The last line of standard output is one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`. The exit code is 1
//! when any output was wrong, 2 on a usage error.
//!
//! `--emit-golden <seeds>` prints the golden file of `table1-rows` for
//! seeds `0..seeds`.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use perfbench::host::{peak_rss_mb, HostFacts};
use perfbench::pipeline::Pipeline;
use perfbench::serve::Serve;
use perfbench::table1::{self, Table1, ROWS};
use perfbench::trace::Tracer;
use perfbench::{end_to_end, stats, Measurement, Metric, Workload, PER_LAYER};

/// Set-ups per run; `setup_s` is the median of all but the first
/// `SETUP_WARMUP`. The first few of a process are slower (fresh pages from
/// the kernel, caches still cold) by a varying count, which would otherwise
/// move the median between runs.
const SETUP_REPS: usize = 16;

/// Leading set-ups left out of `setup_s`.
const SETUP_WARMUP: usize = 5;

const USAGE: &str = "usage: perfbench --workload <table1-rows|plan-pipeline|oracle-serve> \
--seed <n> --seconds <s> --trace <0|1>\n       perfbench --emit-golden <seeds>";

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} expects a whole number, got '{value}'"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(format!("--trace expects 0 or 1, got '{value}'")),
            },
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds
            .filter(|&s| s > 0)
            .ok_or("--seconds must be at least 1")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if let [flag, seeds] = &raw[..] {
        if flag == "--emit-golden" {
            return match seeds.parse() {
                Ok(seeds) => emit_golden(seeds),
                Err(_) => usage_error(&format!("--emit-golden expects a count, got '{seeds}'")),
            };
        }
    }
    let args = match parse_args(&raw) {
        Ok(args) => args,
        Err(e) => return usage_error(&e),
    };
    match args.workload.as_str() {
        "table1-rows" => run(&Table1::default(), &args),
        "plan-pipeline" => run(&Pipeline::default(), &args),
        "oracle-serve" => run(&Serve::default(), &args),
        other => usage_error(&format!("unknown workload '{other}'")),
    }
}

fn usage_error(msg: &str) -> ExitCode {
    eprintln!("error: {msg}\n{USAGE}");
    ExitCode::from(2)
}

fn run<W: Workload>(workload: &W, args: &Args) -> ExitCode {
    let host = HostFacts::collect(&PathBuf::from("."));
    println!("host: {}", host.to_json());
    let budget = Duration::from_secs(args.seconds);

    let mut setup_s = Vec::new();
    let mut state = None;
    for _ in 0..SETUP_REPS {
        drop(state.take());
        let t0 = Instant::now();
        state = Some(workload.setup(args.seed, &mut Tracer::new(false)));
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let mut state = state.expect("at least one set-up");
    let setup_ms: Vec<String> = setup_s.iter().map(|s| format!("{:.1}", s * 1e3)).collect();
    println!("set-ups (ms): {}", setup_ms.join(" "));
    let setup_s = stats::median(&setup_s[SETUP_WARMUP..]);

    let (m, metrics, tracer) = if args.trace {
        let plain = workload.measure(&mut state, budget / 2, &mut Tracer::new(false));
        drop(state);
        let mut tracer = Tracer::new(true);
        let mut state = workload.setup(args.seed, &mut tracer);
        let mut traced = workload.measure(&mut state, budget / 2, &mut tracer);
        let overhead = (plain.ops_per_s / traced.ops_per_s - 1.0) * 100.0;
        println!(
            "tracing overhead: {overhead:.2}% ({:.4} ops/s untraced, {:.4} ops/s traced)",
            plain.ops_per_s, traced.ops_per_s
        );
        traced
            .layers
            .push(Metric::new("trace.overhead_pct", overhead, "%"));
        let metrics = PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let found = traced.layers.iter().find(|l| l.name == name);
                Metric::new(name, found.map_or(0.0, |l| l.value), unit)
            })
            .collect();
        traced.attempted += plain.attempted;
        traced.failed += plain.failed;
        traced.failures.extend(plain.failures);
        (traced, metrics, Some(tracer))
    } else {
        let m = workload.measure(&mut state, budget, &mut Tracer::new(false));
        let Some(rss) = peak_rss_mb() else {
            eprintln!("error: peak resident memory is unavailable on this platform");
            return ExitCode::from(1);
        };
        println!("latency samples: {}", m.latency_ms.len());
        let metrics = end_to_end(&m, setup_s, rss);
        (m, metrics, None)
    };

    for metric in &metrics {
        println!("{} = {} {}", metric.name, metric.value, metric.unit);
    }
    for failure in &m.failures {
        eprintln!("wrong output: {failure}");
    }
    if let Some(tracer) = tracer {
        write_trace(args, &host, &metrics, &tracer);
    }
    let correct = m.failed == 0 && m.attempted > 0;
    println!("{}", result_json(correct, &m, &metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn result_json(correct: bool, m: &Measurement, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|x| {
            let value = if x.value.is_finite() { x.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                x.name, x.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        m.attempted,
        m.failed,
        body.join(", ")
    )
}

/// Writes the spans, host facts and per-layer metrics next to the
/// executable (inside the build directory).
fn write_trace(args: &Args, host: &HostFacts, metrics: &[Metric], tracer: &Tracer) {
    let Some(dir) = std::env::current_exe()
        .ok()
        .and_then(|p| p.parent().map(PathBuf::from))
    else {
        return;
    };
    let path = dir.join(format!("trace-{}-seed{}.json", args.workload, args.seed));
    let metrics: Vec<String> = metrics
        .iter()
        .map(|x| format!("\"{}\": {}", x.name, x.value))
        .collect();
    let text = format!(
        "{{\"host\": {}, \"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"metrics\": {{{}}}, \"spans\": {}}}\n",
        host.to_json(),
        args.workload,
        args.seed,
        args.seconds,
        metrics.join(", "),
        tracer.to_json()
    );
    match std::fs::write(&path, text) {
        Ok(()) => println!("trace: {} ({} spans)", path.display(), tracer.spans().len()),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }
}

/// Prints the golden file of `table1-rows` for seeds `0..seeds`. LAC rows
/// get a line per seed; every other row gets one `*` line, after its cost
/// is seen to agree on the first three seeds.
fn emit_golden(seeds: u64) -> ExitCode {
    println!("# row  seed  model_time  phases   (result is checked against the input itself)");
    println!(
        "# n = {}; regenerate with: perfbench --emit-golden {seeds}",
        table1::N
    );
    for row in ROWS {
        let mut lines = Vec::new();
        for seed in 0..seeds {
            match table1::run_row(row, &table1::Inputs::new(table1::N, seed)) {
                Ok(Some(out)) => lines.push((seed, out.time, out.phases)),
                other => {
                    eprintln!("error: {} at seed {seed}: {other:?}", row.name());
                    return ExitCode::from(1);
                }
            }
            if seed == 2
                && !row.is_lac()
                && lines.iter().all(|l| (l.1, l.2) == (lines[0].1, lines[0].2))
            {
                println!("{}  *  {}  {}", row.name(), lines[0].1, lines[0].2);
                lines.clear();
                break;
            }
        }
        for (seed, time, phases) in lines {
            println!("{}  {seed}  {time}  {phases}", row.name());
        }
    }
    ExitCode::SUCCESS
}
