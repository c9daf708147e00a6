//! `parbounds` — run the SPAA'98 algorithms on the model simulators from
//! the command line and compare against the Table 1 bounds.
//!
//! `parbounds help` prints every subcommand with its flags.

#![forbid(unsafe_code)]

mod args;

use args::Args;

use parbounds::adversary::{
    audit_parity_program, or_success_rate, probe_k_or, DegreeAudit, OrDistribution,
};
use parbounds::algo::{bsp_algos, emulation, gsm_algos, lac, or_tree, parity, reduce, workloads};
use parbounds::models::{
    BspMachine, GsmEnv, GsmFnProgram, GsmMachine, GsmProgram, ModelError, QsmMachine, Status, Word,
};
use parbounds::tables::{
    best_lower_bound, render_rounds_table, render_time_table, upper_bound_time, Metric, Mode,
    Model, Params, Problem,
};

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match run(argv) {
        Ok(()) => {}
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!();
            eprintln!("{}", usage());
            std::process::exit(2);
        }
    }
}

fn usage() -> &'static str {
    "usage:
  parbounds tables    [--n N --g G --l L --p P]
  parbounds run       --problem parity|or|lac --model qsm|sqsm|qsm-cr|gsm|bsp \\
                      [--n N --g G --l L --p P --seed S --compiled]
  parbounds audit     [--r R --alpha A --beta B]
  parbounds audit     --symbolic [--all | --family F] [--n N --list]
  parbounds audit     --symbolic --mc [--family F --n N --seed S --samples K]
  parbounds audit     --symbolic --differential [--max-r R]
  parbounds audit     --symbolic --lint-gap [--n N]
  parbounds adversary [--n N --mu MU --trials T]
  parbounds emulate   [--n N --p P --g G --l L]
  parbounds faults    [--n N --seed S]
  parbounds lint      [--all | --family F] [--n N --seed S --list]
  parbounds analyze   --static [--all | --family F] [--n N --seed S --list --compiled]
  parbounds analyze   --symbolic [--all | --family F] [--n N --list]
  parbounds serve     [--addr HOST:PORT | --stdio] [--workers K --queue-cap Q \\
                      --deadline-ms D --budget B --cache-cap C]
  parbounds soak      [--smoke] [--seed S --requests R --clients C --workers K --out PATH]
  parbounds sweep     [--model qsm|sqsm --problem parity|or|lac --ns N1,N2,.. --gs G1,G2,..
                      --seed S --shards K [--shard-id I] --out PATH]"
}

fn run(argv: Vec<String>) -> Result<(), String> {
    let args = Args::parse(argv)?;
    match args.command.as_str() {
        "tables" => cmd_tables(&args),
        "run" => cmd_run(&args),
        "audit" => cmd_audit(&args),
        "adversary" => cmd_adversary(&args),
        "emulate" => cmd_emulate(&args),
        "faults" => cmd_faults(&args),
        "lint" => cmd_lint(&args),
        "analyze" => cmd_analyze(&args),
        "serve" => cmd_serve(&args),
        "soak" => cmd_soak(&args),
        "sweep" => cmd_sweep(&args),
        "" | "help" | "--help" | "-h" => {
            println!("{}", usage());
            Ok(())
        }
        other => Err(format!("unknown subcommand '{other}'")),
    }
}

fn cmd_tables(args: &Args) -> Result<(), String> {
    args.assert_known(&["n", "g", "l", "p"])?;
    let n = args.u64("n", 1 << 20)? as f64;
    let g = args.u64("g", 8)? as f64;
    let l = args.u64("l", 64)? as f64;
    let p = args.u64("p", 4096)? as f64;
    let pr = Params { n, g, l, p };
    println!("{}", render_time_table(Model::Qsm, &pr));
    println!();
    println!("{}", render_time_table(Model::SQsm, &pr));
    println!();
    println!("{}", render_time_table(Model::Bsp, &pr));
    println!();
    println!("{}", render_rounds_table(&pr));
    Ok(())
}

/// Machine-grid knobs a `run --compiled` invocation carries to the plan
/// builders: input size, gap/latency/processor parameters and workload
/// seed.
struct CompiledRunCfg {
    n: usize,
    g: u64,
    l: u64,
    p: usize,
    seed: u64,
}

/// `parbounds run --compiled`: lifts the `(problem, model)` pair onto its
/// PhaseIR family, compiles the plan to a straight-line schedule
/// (`ir::compile`), and runs it. Pairs without a PhaseIR lift are a typed
/// `BadConfig`.
fn run_compiled_lift(
    problem: &str,
    model: &str,
    cfg: &CompiledRunCfg,
) -> Result<(Word, u64, usize, &'static str), String> {
    use parbounds::algo::or_tree::or_default_fanin;
    use parbounds::ir::{
        bsp_fan_in_reduce, compile_plan, fan_in_read_tree, fan_in_write_tree, run_compiled_batch,
        run_compiled_msg_batch, CombineOp, CompileOutcome, ModelKind, PhasePlan,
    };

    let &CompiledRunCfg { n, g, l, p, seed } = cfg;
    let bsp_k = ((l / g.max(1)) as usize).max(2);
    let (plan, algo): (PhasePlan, &'static str) = match (problem, model) {
        ("parity", "sqsm") => (
            fan_in_read_tree(n, 2, CombineOp::Xor, ModelKind::SQsm { g }),
            "binary read tree (compiled)",
        ),
        ("or", "qsm") => (
            fan_in_write_tree(n, or_default_fanin(g), ModelKind::Qsm { g }),
            "write-combining tree (compiled)",
        ),
        ("or", "sqsm") => (
            fan_in_write_tree(n, 2, ModelKind::SQsm { g }),
            "binary write tree (compiled)",
        ),
        ("parity", "bsp") => (
            bsp_fan_in_reduce(p, bsp_k, CombineOp::Xor, g, l),
            "fan-in L/g reduction (compiled)",
        ),
        ("or", "bsp") => (
            bsp_fan_in_reduce(p, bsp_k, CombineOp::Or, g, l),
            "fan-in L/g reduction (compiled)",
        ),
        (pb, md) => {
            return Err(ModelError::BadConfig(format!(
                "--compiled has no PhaseIR lift for problem '{pb}' on model '{md}' \
                 (compiled pairs: parity/or on sqsm, or on qsm, parity/or on bsp)"
            ))
            .to_string())
        }
    };
    let cp = match compile_plan(&plan).map_err(|e| e.to_string())? {
        CompileOutcome::Compiled(cp) => cp,
        CompileOutcome::Ineligible(why) => {
            return Err(format!(
                "plan '{}' cannot take the compiled path: {}",
                plan.family,
                why.describe()
            ))
        }
    };
    let bits = workloads::random_bits(n, seed);
    let run = if let ModelKind::Bsp { p, g, l } = plan.model {
        let m = BspMachine::new(p, g, l).map_err(|e| e.to_string())?;
        run_compiled_msg_batch(&plan, &cp, &m, &bits).map_err(|e| e.to_string())?
    } else {
        let m = match plan.model {
            ModelKind::Qsm { g } => QsmMachine::qsm(g),
            ModelKind::SQsm { g } => QsmMachine::sqsm(g),
            _ => unreachable!("compiled lifts are QSM/s-QSM/BSP"),
        };
        run_compiled_batch(&plan, &cp, &m, &bits).map_err(|e| e.to_string())?
    };
    let value = run.output.first().copied().unwrap_or(0);
    Ok((
        value,
        run.ledger.total_time(),
        run.ledger.num_phases(),
        algo,
    ))
}

fn cmd_run(args: &Args) -> Result<(), String> {
    args.assert_known(&["problem", "model", "n", "g", "l", "p", "seed", "compiled"])?;
    let n = args.usize("n", 4096)?;
    let g = args.u64("g", 8)?;
    let l = args.u64("l", 8 * g)?;
    let p = args.usize("p", 64)?;
    let seed = args.u64("seed", 42)?;
    let problem = args.str("problem", "parity");
    let model = args.str("model", "qsm");
    // `--compiled` runs the problem's PhaseIR lift through the plan
    // compiler instead of the closure-dispatch algorithms.
    let compiled = args.flag("compiled");

    let bits = workloads::random_bits(n, seed);
    let items = workloads::sparse_items(n, (n / 8).max(1), seed);

    let (value, time, phases, algo): (Word, u64, usize, &str) = if compiled {
        run_compiled_lift(
            problem.as_str(),
            model.as_str(),
            &CompiledRunCfg { n, g, l, p, seed },
        )?
    } else {
        match (problem.as_str(), model.as_str()) {
            ("parity", "qsm") => {
                let m = QsmMachine::qsm(g);
                let k = parity::parity_helper_default_k(&m);
                let o = parity::parity_pattern_helper(&m, &bits, k).map_err(|e| e.to_string())?;
                (o.value, o.run.time(), o.run.phases(), "pattern-helper")
            }
            ("parity", "qsm-cr") => {
                let m = QsmMachine::qsm_unit_cr(g);
                let k = parity::parity_helper_default_k(&m);
                let o = parity::parity_pattern_helper(&m, &bits, k).map_err(|e| e.to_string())?;
                (
                    o.value,
                    o.run.time(),
                    o.run.phases(),
                    "pattern-helper (unit CR)",
                )
            }
            ("parity", "sqsm") => {
                let m = QsmMachine::sqsm(g);
                let o = reduce::parity_read_tree(&m, &bits, 2).map_err(|e| e.to_string())?;
                (o.value, o.run.time(), o.run.phases(), "binary read tree")
            }
            ("parity", "gsm") => {
                let m = GsmMachine::new(1, g, 1);
                let o = gsm_algos::gsm_parity(&m, &bits).map_err(|e| e.to_string())?;
                (
                    o.value,
                    o.run.time(),
                    o.run.ledger.num_phases(),
                    "strong-queuing tree",
                )
            }
            ("parity", "bsp") => {
                let m = BspMachine::new(p, g, l).map_err(|e| e.to_string())?;
                let o = bsp_algos::bsp_parity(&m, &bits).map_err(|e| e.to_string())?;
                (o.value, o.time(), o.supersteps(), "fan-in L/g reduction")
            }
            ("or", "qsm") => {
                let m = QsmMachine::qsm(g);
                let o = or_tree::or_write_tree(&m, &bits, g as usize).map_err(|e| e.to_string())?;
                (
                    o.value,
                    o.run.time(),
                    o.run.phases(),
                    "write-combining tree",
                )
            }
            ("or", "sqsm") => {
                let m = QsmMachine::sqsm(g);
                let o = or_tree::or_write_tree(&m, &bits, 2).map_err(|e| e.to_string())?;
                (o.value, o.run.time(), o.run.phases(), "binary write tree")
            }
            ("or", "gsm") => {
                let m = GsmMachine::new(1, g, 1);
                let o = gsm_algos::gsm_or(&m, &bits).map_err(|e| e.to_string())?;
                (
                    o.value,
                    o.run.time(),
                    o.run.ledger.num_phases(),
                    "strong-queuing tree",
                )
            }
            ("or", "bsp") => {
                let m = BspMachine::new(p, g, l).map_err(|e| e.to_string())?;
                let o = bsp_algos::bsp_or(&m, &bits).map_err(|e| e.to_string())?;
                (o.value, o.time(), o.supersteps(), "fan-in L/g reduction")
            }
            ("lac", "qsm" | "sqsm") => {
                let m = if model == "qsm" {
                    QsmMachine::qsm(g)
                } else {
                    QsmMachine::sqsm(g)
                };
                let o =
                    lac::lac_dart(&m, &items, (n / 8).max(1), seed).map_err(|e| e.to_string())?;
                if !o.verify(&items) {
                    return Err("LAC verification failed".into());
                }
                let placed = o.dest().iter().filter(|&&v| v != 0).count() as Word;
                (placed, o.run.time(), o.run.phases(), "dart-throwing")
            }
            ("lac", "bsp") => {
                let m = BspMachine::new(p, g, l).map_err(|e| e.to_string())?;
                let o = bsp_algos::bsp_lac_dart(&m, &items, (n / 8).max(1), seed)
                    .map_err(|e| e.to_string())?;
                if !o.verify(&items) {
                    return Err("BSP LAC verification failed".into());
                }
                (
                    o.placed.len() as Word,
                    o.ledger.total_time(),
                    o.ledger.num_phases(),
                    "message darts",
                )
            }
            (pb, md) => return Err(format!("no algorithm for problem '{pb}' on model '{md}'")),
        }
    };

    println!("problem   : {problem} (n = {n})");
    println!(
        "model     : {model} (g = {g}{})",
        if model == "bsp" {
            format!(", L = {l}, p = {p}")
        } else {
            String::new()
        }
    );
    println!("algorithm : {algo}");
    let routing = if compiled {
        "compiled straight-line schedule"
    } else {
        "dense"
    };
    println!("routing   : {routing}");
    println!("result    : {value}");
    println!("model time: {time}   phases/supersteps: {phases}");

    // Bound context where the registry covers the model.
    let table_model = match model.as_str() {
        "qsm" | "qsm-cr" => Some(Model::Qsm),
        "sqsm" => Some(Model::SQsm),
        "bsp" => Some(Model::Bsp),
        _ => None,
    };
    let table_problem = match problem.as_str() {
        "parity" => Problem::Parity,
        "or" => Problem::Or,
        _ => Problem::Lac,
    };
    if let Some(tm) = table_model {
        let pr = Params {
            n: n as f64,
            g: g as f64,
            l: l as f64,
            p: p as f64,
        };
        if let Some(lb) =
            best_lower_bound(table_problem, tm, Mode::Deterministic, Metric::Time, &pr)
        {
            println!("det LB    : {lb:.1}");
        }
        if let Some(lb) = best_lower_bound(table_problem, tm, Mode::Randomized, Metric::Time, &pr) {
            println!("rand LB   : {lb:.1}");
        }
        if let Some(ub) = upper_bound_time(table_problem, tm, &pr) {
            println!(
                "UB formula: {ub:.1}   measured/UB = {:.2}",
                time as f64 / ub
            );
        }
    }
    Ok(())
}

fn cmd_faults(args: &Args) -> Result<(), String> {
    args.assert_known(&["n", "seed"])?;
    let n = args.usize("n", 64)?;
    let seed = args.u64("seed", 7)?;
    let grid = parbounds::degradation_grid(n, seed).map_err(|e| e.to_string())?;
    println!("robustness / graceful-degradation grid (n = {n}, seed = {seed})");
    println!();
    print!("{}", grid.render());
    println!();
    println!(
        "{} of {} cells completed with a verified answer; the rest degraded to typed errors.",
        grid.completed(),
        grid.rows.len()
    );
    Ok(())
}

fn cmd_lint(args: &Args) -> Result<(), String> {
    args.assert_known(&["all", "family", "n", "seed", "list"])?;
    use parbounds::analyze::{analyze_all, analyze_family, AnalysisReport, SuiteConfig, FAMILIES};

    if args.flag("list") {
        println!("registered analysis families:");
        for f in FAMILIES {
            println!("  {f}");
        }
        println!("  racy-fixture (deliberately racy demo; never clean)");
        return Ok(());
    }

    let n = args.usize("n", 256)?;
    let seed = args.u64("seed", 42)?;
    let cfg = SuiteConfig::standard(n, seed);
    let family = args.str("family", "");

    let report = if family.is_empty() || args.flag("all") {
        analyze_all(&cfg).map_err(|e| e.to_string())?
    } else {
        AnalysisReport {
            families: vec![analyze_family(&family, &cfg).map_err(|e| e.to_string())?],
        }
    };
    print!("{}", report.render());
    if !report.clean() {
        std::process::exit(1);
    }
    Ok(())
}

fn cmd_analyze(args: &Args) -> Result<(), String> {
    args.assert_known(&[
        "static", "symbolic", "all", "family", "n", "seed", "list", "compiled",
    ])?;
    use parbounds::analyze::{
        analyze_static_all, analyze_static_family, ir_family_plan, lint_compile, StaticReport,
        IR_FAMILIES,
    };
    use parbounds::tables::{render_static_table, StaticRow};

    if args.flag("symbolic") {
        return cmd_analyze_symbolic(args);
    }
    if !args.flag("static") {
        return Err(
            "parbounds analyze requires --static (pre-execution plan analysis) or \
             --symbolic (Θ-normal-form ledgers vs Table 1); dynamic trace analysis \
             lives under `parbounds lint`"
                .into(),
        );
    }
    if args.flag("list") {
        println!("registered PhaseIR families:");
        for f in IR_FAMILIES {
            println!("  {f}");
        }
        println!("  racy-plan (deliberately racy fixture; never clean)");
        return Ok(());
    }

    let n = args.usize("n", 256)?;
    let seed = args.u64("seed", 42)?;
    let family = args.str("family", "");

    let report = if family.is_empty() || args.flag("all") {
        analyze_static_all(n, seed).map_err(|e| e.to_string())?
    } else {
        StaticReport {
            families: vec![analyze_static_family(&family, n, seed).map_err(|e| e.to_string())?],
        }
    };
    print!("{}", report.render());
    println!();
    let rows: Vec<StaticRow> = report
        .families
        .iter()
        .map(|f| StaticRow {
            family: f.family.to_string(),
            model: f.model.to_string(),
            phases: f.phases,
            predicted: f.predicted_time,
            measured: Some(f.measured_time),
            formula: f.formula,
        })
        .collect();
    print!("{}", render_static_table(&rows));
    // `--compiled`: report each analyzed plan's eligibility for the
    // straight-line compiled fast path (the compile-ineligible lint). A
    // flagged plan still runs — on the checked interpreter — but the
    // report exits non-zero so CI can pin which families compile.
    let mut compile_clean = true;
    if args.flag("compiled") {
        println!();
        println!("plan compilation eligibility:");
        for f in &report.families {
            let (_, plan, _) = ir_family_plan(f.family, n, seed).map_err(|e| e.to_string())?;
            let diags = lint_compile(&plan).map_err(|e| e.to_string())?;
            if diags.is_empty() {
                println!(
                    "  {:<17} compiled ({} phase(s), straight-line)",
                    f.family,
                    plan.num_phases()
                );
            } else {
                compile_clean = false;
                for d in &diags {
                    println!("  {:<17} {d}", f.family);
                }
            }
        }
    }
    if !report.clean() || !compile_clean {
        std::process::exit(1);
    }
    Ok(())
}

/// `parbounds analyze --symbolic`: the Θ-normal-form conformance suite —
/// derive each family's symbolic ledger, compare its normal form against
/// the Table 1 fixture, verify the Claim 2.1/2.2 mappings, and anchor the
/// algebra with a bit-identical evaluation at the suite point.
fn cmd_analyze_symbolic(args: &Args) -> Result<(), String> {
    use parbounds::analyze::symbolic::{
        analyze_symbolic_all, analyze_symbolic_family, check_claims, SymbolicReport,
        SYMBOLIC_FAMILIES,
    };
    use parbounds::tables::{render_symbolic_table, SymbolicRow};

    if args.flag("list") {
        println!("symbolically covered PhaseIR families:");
        for f in SYMBOLIC_FAMILIES {
            println!("  {f}");
        }
        println!("  or-write-tree-padded (deliberately padded fixture; trips bound-regression)");
        return Ok(());
    }

    let n = args.usize("n", 256)?;
    let family = args.str("family", "");
    let report = if family.is_empty() || args.flag("all") {
        analyze_symbolic_all(n).map_err(|e| e.to_string())?
    } else {
        SymbolicReport {
            families: vec![analyze_symbolic_family(&family, n).map_err(|e| e.to_string())?],
            claims: check_claims().map_err(|e| e.to_string())?,
        }
    };

    let rows: Vec<SymbolicRow> = report
        .families
        .iter()
        .map(|f| SymbolicRow {
            family: f.conformance.family.to_string(),
            model: f.conformance.model.to_string(),
            derived: f.conformance.derived.to_string(),
            fixture: f.conformance.fixture.to_string(),
            verdict: f.conformance.verdict().to_string(),
            symbolic: f.symbolic_total,
            numeric: f.numeric_total,
        })
        .collect();
    print!("{}", render_symbolic_table(&rows));

    println!();
    println!("symbolic-vs-numeric grid differential:");
    for f in &report.families {
        let d = &f.differential;
        if d.clean() {
            println!("  {:<20} {} point(s), bit-identical", d.family, d.points);
        } else {
            println!(
                "  {:<20} {} point(s), {} MISMATCH(ES):",
                d.family,
                d.points,
                d.mismatches.len()
            );
            for m in &d.mismatches {
                println!("    {m}");
            }
        }
    }

    println!();
    println!("cross-model mapping claims:");
    for c in &report.claims {
        let verdict = if c.holds { "holds" } else { "FAILS" };
        println!("  {:<40} {} ≡ {} … {verdict}", c.claim, c.mapped, c.row);
    }

    if !report.clean() {
        std::process::exit(1);
    }
    Ok(())
}

/// `parbounds serve`: the cost-oracle service over TCP (or stdio, one
/// line-delimited JSON request per line — handy for piping and tests).
fn cmd_serve(args: &Args) -> Result<(), String> {
    args.assert_known(&[
        "addr",
        "stdio",
        "workers",
        "queue-cap",
        "deadline-ms",
        "budget",
        "cache-cap",
    ])?;
    use parbounds::serve::{OracleConfig, Server, ServerConfig};
    use std::time::Duration;

    let stdio = args.flag("stdio");
    let addr = args.str("addr", "127.0.0.1:7411");
    let cfg = ServerConfig {
        workers: args.usize("workers", 0)?,
        queue_cap: args.usize("queue-cap", 64)?,
        oracle: OracleConfig {
            cache_cap: args.usize("cache-cap", 1024)?,
            default_deadline: Duration::from_millis(args.u64("deadline-ms", 2_000)?),
            tenant_budget: args.u64("budget", u64::MAX)?,
        },
        ..ServerConfig::default()
    };
    if cfg.queue_cap == 0 {
        return Err(ModelError::BadConfig("--queue-cap must be positive".into()).to_string());
    }

    let server = std::sync::Arc::new(Server::start(cfg));
    if stdio {
        let stdin = std::io::stdin();
        let stdout = std::io::stdout();
        server.serve_connection(stdin.lock(), stdout.lock());
        return Ok(());
    }
    let listener = std::net::TcpListener::bind(&addr)
        .map_err(|e| ModelError::Io(format!("cannot bind {addr}: {e}")).to_string())?;
    eprintln!("parbounds serve: listening on {addr}");
    server
        .serve_tcp(listener)
        .map_err(|e| ModelError::Io(format!("accept loop failed: {e}")).to_string())
}

/// `parbounds soak`: the chaos/soak harness. Exits nonzero when any
/// robustness invariant is violated; `--out PATH` writes the JSON report.
fn cmd_soak(args: &Args) -> Result<(), String> {
    args.assert_known(&[
        "smoke", "seed", "requests", "clients", "batches", "workers", "out",
    ])?;
    use parbounds_bench::soak::{run_soak, SoakConfig};

    let base = SoakConfig::smoke();
    let cfg = SoakConfig {
        seed: args.u64("seed", base.seed)?,
        requests: args.usize("requests", base.requests)?,
        clients: args.usize("clients", base.clients)?,
        batches: args.usize("batches", base.batches)?,
        workers: args.usize("workers", base.workers)?,
        ..base
    };
    if cfg.requests == 0 || cfg.clients == 0 || cfg.batches == 0 {
        return Err(ModelError::BadConfig(
            "--requests, --clients and --batches must be positive".into(),
        )
        .to_string());
    }

    let report = run_soak(&cfg);
    print!("{}", report.render());
    if let Some(path) = {
        let p = args.str("out", "");
        if p.is_empty() {
            None
        } else {
            Some(p)
        }
    } {
        std::fs::write(&path, report.to_json(&cfg))
            .map_err(|e| ModelError::Io(format!("cannot write {path}: {e}")).to_string())?;
        println!("report written to {path}");
    }
    if !report.passed() {
        std::process::exit(1);
    }
    Ok(())
}

/// Parses a comma-separated list of positive integers (`--ns 256,1024`).
fn csv_u64(text: &str, key: &str) -> Result<Vec<u64>, String> {
    let vals: Result<Vec<u64>, _> = text.split(',').map(|t| t.trim().parse::<u64>()).collect();
    match vals {
        Ok(v) if !v.is_empty() && !v.contains(&0) => Ok(v),
        _ => Err(ModelError::BadConfig(format!(
            "--{key} expects a comma-separated list of positive integers, got '{text}'"
        ))
        .to_string()),
    }
}

/// `parbounds sweep`: the shape sweep over an `(n, g)` grid, optionally
/// sharded across K processes.
///
/// Output is NDJSON — one row line per grid point in grid order, then one
/// flatness summary line — and is *byte-identical* whether the grid ran in
/// this process or was farmed out with `--shards K` (the parent re-spawns
/// this binary once per shard with `--shard-id i`, merges the children's
/// lines by grid index, and re-renders). `--shard-id` is the child mode:
/// it emits only its strided slice of rows and no summary.
fn cmd_sweep(args: &Args) -> Result<(), String> {
    args.assert_known(&[
        "model", "problem", "ns", "gs", "seed", "shards", "shard-id", "out",
    ])?;
    use parbounds::shard::{
        decode_row, encode_row, merge_shards, parse_model, parse_problem, sweep_point_row,
        sweep_shard_rows, validate_shards,
    };
    use parbounds::sweep::flatness_of_rows;
    use parbounds::{grid, TableRow};

    let model = parse_model(&args.str("model", "qsm")).map_err(|e| e.to_string())?;
    let problem = parse_problem(&args.str("problem", "parity")).map_err(|e| e.to_string())?;
    let ns: Vec<usize> = csv_u64(&args.str("ns", "256,1024,4096"), "ns")?
        .into_iter()
        .map(|v| v as usize)
        .collect();
    let gs = csv_u64(&args.str("gs", "2,8"), "gs")?;
    let seed = args.u64("seed", 42)?;
    let points = grid(&ns, &gs);

    // Shard-flag validation, all as typed BadConfig: an explicit
    // `--shards 0`, a shard id at or past the shard count, and a bare
    // `--shard-id` with no `--shards`.
    let sharded = args.has("shards") || args.has("shard-id");
    let shards = args.usize("shards", 1)?;
    let shard_id = if args.has("shard-id") {
        if !args.has("shards") {
            return Err(ModelError::BadConfig(
                "--shard-id requires --shards (the shard count names the stride)".into(),
            )
            .to_string());
        }
        Some(args.usize("shard-id", 0)?)
    } else {
        None
    };
    if sharded {
        validate_shards(shards, shard_id).map_err(|e| e.to_string())?;
    }

    // Child mode: emit this shard's strided slice as NDJSON and exit.
    if let Some(id) = shard_id {
        let rows = sweep_shard_rows(model, problem, &points, shards, id, seed)
            .map_err(|e| e.to_string())?;
        for (i, row) in &rows {
            println!("{}", encode_row(*i, row));
        }
        return Ok(());
    }

    let rows: Vec<TableRow> = if sharded {
        // Parent mode: one child process per shard, merged by grid index.
        let exe = std::env::current_exe()
            .map_err(|e| ModelError::Io(format!("cannot locate own binary: {e}")).to_string())?;
        let children: Vec<std::process::Child> = (0..shards)
            .map(|id| {
                std::process::Command::new(&exe)
                    .args([
                        "sweep",
                        "--model",
                        &args.str("model", "qsm"),
                        "--problem",
                        &args.str("problem", "parity"),
                        "--ns",
                        &args.str("ns", "256,1024,4096"),
                        "--gs",
                        &args.str("gs", "2,8"),
                        "--seed",
                        &seed.to_string(),
                        "--shards",
                        &shards.to_string(),
                        "--shard-id",
                        &id.to_string(),
                    ])
                    .stdout(std::process::Stdio::piped())
                    .spawn()
                    .map_err(|e| {
                        ModelError::Io(format!("cannot spawn shard {id}: {e}")).to_string()
                    })
            })
            .collect::<Result<_, String>>()?;
        let mut indexed = Vec::with_capacity(points.len());
        for (id, child) in children.into_iter().enumerate() {
            let out = child
                .wait_with_output()
                .map_err(|e| ModelError::Io(format!("shard {id} failed: {e}")).to_string())?;
            if !out.status.success() {
                return Err(format!("shard {id} exited with {}", out.status));
            }
            let text = String::from_utf8(out.stdout).map_err(|e| {
                ModelError::Io(format!("shard {id}: non-utf8 output: {e}")).to_string()
            })?;
            for line in text.lines().filter(|l| !l.trim().is_empty()) {
                indexed.push(decode_row(line).map_err(|e| e.to_string())?);
            }
        }
        merge_shards(indexed, points.len()).map_err(|e| e.to_string())?
    } else {
        points
            .iter()
            .map(|pt| sweep_point_row(model, problem, pt, seed))
            .collect::<Result<_, _>>()
            .map_err(|e| e.to_string())?
    };

    let flat = flatness_of_rows(&rows).map_err(|e| e.to_string())?;
    let mut out = String::new();
    for (i, row) in rows.iter().enumerate() {
        out.push_str(&encode_row(i, row));
        out.push('\n');
    }
    out.push_str(&format!(
        "{{\"flatness\":{{\"min\":{},\"max\":{},\"geo_mean\":{},\"spread\":{}}},\"rows\":{}}}\n",
        flat.min,
        flat.max,
        flat.geo_mean,
        flat.spread(),
        rows.len()
    ));
    print!("{out}");
    let path = args.str("out", "");
    if !path.is_empty() {
        std::fs::write(&path, &out)
            .map_err(|e| ModelError::Io(format!("cannot write {path}: {e}")).to_string())?;
        eprintln!("sweep written to {path}");
    }
    Ok(())
}

fn cmd_audit(args: &Args) -> Result<(), String> {
    args.assert_known(&[
        "r",
        "alpha",
        "beta",
        "symbolic",
        "all",
        "family",
        "n",
        "mc",
        "seed",
        "samples",
        "list",
        "differential",
        "max-r",
        "lint-gap",
    ])?;
    if args.flag("symbolic") {
        return cmd_audit_symbolic(args);
    }
    let r = args.usize("r", 8)?;
    if r > 14 {
        return Err("--r must be <= 14 (exhaustive over 2^r inputs)".into());
    }
    let alpha = args.u64("alpha", 1)?;
    let beta = args.u64("beta", 1)?;
    let machine = GsmMachine::new(alpha, beta, 1);
    let (prog, out) = tree_parity(r);
    drop(prog);
    let report =
        audit_parity_program(&machine, || tree_parity(r).0, out, r).map_err(|e| e.to_string())?;
    println!("degree audit: tree parity, r = {r}, GSM({alpha}, {beta}, 1)");
    println!("correct on all 2^{r} inputs : {}", report.correct);
    println!(
        "degree cap log2(b_l)       : {:.2} (needs >= log2 r = {:.2}) -> {}",
        report.worst.final_log2_cap(),
        (r as f64).log2(),
        if report.worst.supports_degree(r) {
            "OK"
        } else {
            "VIOLATION"
        }
    );
    println!(
        "measured worst time        : {} (Theorem 3.1 value {:.2})",
        report.max_time,
        DegreeAudit::theorem_3_1_bound(machine.mu(), r)
    );
    Ok(())
}

/// `parbounds audit --symbolic`: the memoized lower-bound audit suite.
/// Walks each registered family's budget-respecting refinement trajectory
/// at large `n`, checks every step t-good in the log domain, and pairs the
/// Know-completion lower bound (Θ-normal form) with the Table 1 upper
/// fixture. `--differential` gates the memoized closed forms against the
/// `2^r` enumeration; `--mc` runs the seeded Monte-Carlo adversary;
/// `--lint-gap` runs the audit-gap lint over the swept families (the
/// padded fixture has deliberately no audit, so this exits nonzero).
fn cmd_audit_symbolic(args: &Args) -> Result<(), String> {
    use parbounds::adversary::symbolic::{
        audit_all, audit_family, lint_audit_gap, mc_audit, paper_horizon, AuditStyle, AuditVerdict,
        AUDIT_FAMILIES,
    };
    use parbounds::tables::{render_audit_table, AuditRow};

    if args.flag("list") {
        println!("families with registered lower-bound audits:");
        for f in AUDIT_FAMILIES {
            let style = match f.style {
                AuditStyle::Fold(op) => format!("fold ({op:?})"),
                AuditStyle::Spread => "spread".into(),
                AuditStyle::Single => "single-round".into(),
            };
            println!("  {:<18} {style}", f.name);
        }
        println!("  or-write-tree-padded (swept but unaudited; trips the audit-gap lint)");
        return Ok(());
    }

    let n = args.usize("n", 4096)?;

    if args.flag("differential") {
        let max_r = args.usize("max-r", 6)?;
        let (comparisons, mismatches) =
            parbounds::adversary::symbolic::audit_differential(max_r).map_err(|e| e.to_string())?;
        println!(
            "audit differential: memoized vs enumerative goodness, n <= {max_r}, \
             fans 2-3, XOR and OR"
        );
        println!("comparisons : {comparisons}");
        println!("mismatches  : {}", mismatches.len());
        for m in mismatches.iter().take(5) {
            println!(
                "  shape {:?} t={} exact {:?} memo {:?}",
                m.shape, m.t, m.exact, m.memo
            );
        }
        if !mismatches.is_empty() {
            std::process::exit(1);
        }
        return Ok(());
    }

    if args.flag("lint-gap") {
        let diags = lint_audit_gap(n as u64, n as u64);
        println!("audit-gap lint over the symbolic sweep registry (n = {n}):");
        if diags.is_empty() {
            println!("  clean: every swept family has an up-to-date audit");
            return Ok(());
        }
        for d in &diags {
            println!("  {d}");
        }
        std::process::exit(1);
    }

    if args.flag("mc") {
        let family = args.str("family", "parity-read-tree");
        let seed = args.u64("seed", 42)?;
        let samples = args.u64("samples", 64)?;
        let out = mc_audit(&family, n, seed, samples).map_err(|e| e.to_string())?;
        println!(
            "Monte-Carlo adversary: {} at size {}, fan {}, t = {} (Know completion)",
            out.family, out.size, out.fan, out.t
        );
        let e = out.estimate;
        println!(
            "seed {} / {} samples : {} trace flips",
            out.seed, e.samples, e.successes
        );
        println!(
            "sensitivity          : {:.3} (95% Wilson [{:.3}, {:.3}])",
            e.p_hat, e.lo, e.hi
        );
        if e.successes == 0 {
            println!("VIOLATION: root trace insensitive at Know-completion time");
            std::process::exit(1);
        }
        return Ok(());
    }

    let family = args.str("family", "");
    let outcomes = if family.is_empty() || args.flag("all") {
        audit_all(n).map_err(|e| e.to_string())?
    } else {
        vec![audit_family(&family, n).map_err(|e| e.to_string())?]
    };
    let rows: Vec<AuditRow> = outcomes
        .iter()
        .map(|o| AuditRow {
            family: o.family.to_string(),
            size: o.size,
            fan: o.fan,
            steps: o.steps_checked,
            clamped: o.budget_clamped,
            lower: o.lower_theta.to_string(),
            upper: o.upper_theta.to_string(),
            verdict: match o.verdict {
                AuditVerdict::Violation => "VIOLATION".into(),
                v => v.name().to_string(),
            },
        })
        .collect();
    print!("{}", render_audit_table(&rows));
    println!();
    println!(
        "trajectory accounting (paper horizon ⌊n^(1/3)⌋ = {}):",
        paper_horizon(n as u64)
    );
    for o in &outcomes {
        println!(
            "  {:<18} levels {:>2}, Know complete at t = {:>2}, {} live set entries ({})",
            o.family,
            o.levels,
            o.t_know,
            o.peak_set_entries,
            if o.all_good {
                "all steps t-good"
            } else {
                "NOT t-good"
            }
        );
    }
    if outcomes.iter().any(|o| !o.passed()) {
        std::process::exit(1);
    }
    Ok(())
}

fn cmd_adversary(args: &Args) -> Result<(), String> {
    args.assert_known(&["n", "mu", "trials"])?;
    let n = args.usize("n", 1 << 12)?;
    let mu = args.u64("mu", 2)?;
    let trials = args.usize("trials", 3000)?;
    let dist = OrDistribution::new(n, mu, 1);
    println!(
        "OR adversary: n = {n}, mu = {mu}, {} mixture components",
        dist.num_components()
    );
    let honest = |input: &[Word]| Word::from(input.iter().any(|&b| b != 0));
    println!(
        "honest OR        : {:.3}",
        or_success_rate(honest, &dist, trials, 1)
    );
    for k in [1usize, 4, 16, 64, n / 4] {
        println!(
            "probe {k:>6}     : {:.3}",
            or_success_rate(probe_k_or(k), &dist, trials, k as u64)
        );
    }
    println!(
        "constant 0       : {:.3}",
        or_success_rate(|_| 0, &dist, trials, 9)
    );
    Ok(())
}

fn cmd_emulate(args: &Args) -> Result<(), String> {
    args.assert_known(&["n", "p", "g", "l"])?;
    let n = args.usize("n", 256)?;
    let p = args.usize("p", 8)?;
    let g = args.u64("g", 2)?;
    let l = args.u64("l", 16)?;
    let bits = workloads::random_bits(n, 7);
    let expected = bits.iter().sum::<Word>() % 2;
    let probe = QsmMachine::qsm(g);
    let bsp = BspMachine::new(p, g, l).map_err(|e| e.to_string())?;
    // Emulate the s-QSM binary-tree parity program... use the read tree via
    // a simple tournament (same program the emulation tests use).
    let prog = tournament_parity(n);
    let out =
        emulation::emulate_qsm_on_bsp(&bsp, &probe, &prog, &bits).map_err(|e| e.to_string())?;
    println!("QSM-on-BSP emulation: tournament parity, n = {n}, BSP({p}, {g}, {l})");
    println!("emulated result : {} (expected {expected})", out.get(2 * n));
    println!(
        "QSM phases      : {}   native QSM time: {}",
        out.qsm_phases, out.qsm_time
    );
    println!(
        "BSP supersteps  : {}   emulated BSP time: {} ({}x native)",
        out.ledger.num_phases(),
        out.bsp_time(),
        out.bsp_time() / out.qsm_time.max(1)
    );
    if out.get(2 * n) != expected {
        return Err("emulated result mismatch".into());
    }
    Ok(())
}

/// Fan-in-2 GSM tree parity used by the audit subcommand.
fn tree_parity(r: usize) -> (impl GsmProgram<Proc = ()> + use<>, usize) {
    let mut nodes = Vec::new();
    let mut bases = vec![0usize];
    let (mut width, mut next, mut level, mut out) = (r, r, 1usize, 0usize);
    while width > 1 {
        let w2 = width.div_ceil(2);
        bases.push(next);
        out = next;
        for j in 0..w2 {
            nodes.push((level, j, width));
        }
        next += w2;
        width = w2;
        level += 1;
    }
    let prog = GsmFnProgram::new(
        nodes.len().max(1),
        move |_| (),
        move |pid, _, env: &mut GsmEnv<'_>| {
            let (level, j, prev_width) = nodes[pid];
            let read_phase = 2 * (level - 1);
            match env.phase() {
                t if t < read_phase => Status::Active,
                t if t == read_phase => {
                    env.read(bases[level - 1] + 2 * j);
                    if 2 * j + 1 < prev_width {
                        env.read(bases[level - 1] + 2 * j + 1);
                    }
                    Status::Active
                }
                _ => {
                    let x: Word = env
                        .delivered()
                        .iter()
                        .map(|(_, c)| c.iter().fold(0, |a, &b| a ^ (b & 1)))
                        .fold(0, |a, b| a ^ b);
                    env.write(bases[level] + j, x);
                    Status::Done
                }
            }
        },
    );
    (prog, out)
}

/// QSM tournament parity (result at cell 2n) — the emulation demo program.
fn tournament_parity(n: usize) -> impl parbounds::models::Program<Proc = Word> {
    use parbounds::models::{FnProgram, PhaseEnv};
    let rounds = {
        let mut l = 0;
        let mut w = n.max(1);
        while w > 1 {
            w = w.div_ceil(2);
            l += 1;
        }
        l
    };
    FnProgram::new(
        n.max(1),
        |_| 0 as Word,
        move |pid, st: &mut Word, env: &mut PhaseEnv<'_>| {
            let t = env.phase();
            if t == 0 {
                env.read(pid);
                return Status::Active;
            }
            if t == 1 {
                *st = env.delivered()[0].1 & 1;
                env.write(n + pid, *st);
                return if pid < n.div_ceil(2) {
                    Status::Active
                } else {
                    Status::Done
                };
            }
            let r = t / 2;
            let width = n.div_ceil(1 << r);
            let prev_width = n.div_ceil(1 << (r - 1));
            if t % 2 == 0 {
                let partner = pid + width;
                if partner < prev_width {
                    env.read(n + partner);
                }
                Status::Active
            } else {
                if let Some(&(_, v)) = env.delivered().first() {
                    *st ^= v & 1;
                }
                env.write(n + pid, *st);
                if r >= rounds {
                    env.write(2 * n, *st);
                    Status::Done
                } else if pid < n.div_ceil(1 << (r + 1)) {
                    Status::Active
                } else {
                    Status::Done
                }
            }
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_flag_is_rejected_as_unknown() {
        for line in [
            "run --problem or --model sqsm --n 96 --parallel 2",
            "analyze --static --family or-write-tree --parallel 2",
        ] {
            let argv: Vec<String> = line.split_whitespace().map(String::from).collect();
            let err = run(argv).unwrap_err();
            assert!(err.starts_with("unknown flag --parallel "), "{line}: {err}");
        }
    }

    #[test]
    fn reference_flag_is_rejected_as_unknown() {
        for line in [
            "run --problem or --model qsm --n 96 --reference",
            "sweep --model qsm --problem or --ns 64 --gs 2 --reference",
        ] {
            let argv: Vec<String> = line.split_whitespace().map(String::from).collect();
            let err = run(argv).unwrap_err();
            let listed = err.starts_with("unknown flag --reference (expected one of [");
            assert!(listed && err.ends_with("])"), "{line}: {err}");
        }
    }

    #[test]
    fn compiled_pairs_without_a_lift_are_rejected() {
        // Pairs without a PhaseIR lift are a typed BadConfig, not a crash.
        let argv: Vec<String> = "run --problem lac --model qsm --n 64 --compiled"
            .split_whitespace()
            .map(String::from)
            .collect();
        let err = run(argv).unwrap_err();
        assert!(err.contains("no PhaseIR lift"), "{err}");
    }

    #[test]
    fn run_accepts_compiled() {
        for line in [
            "run --problem or --model qsm --n 96 --compiled",
            "run --problem parity --model sqsm --n 96 --compiled",
            "run --problem parity --model bsp --n 96 --p 8 --compiled",
        ] {
            let argv: Vec<String> = line.split_whitespace().map(String::from).collect();
            run(argv).unwrap_or_else(|e| panic!("{line}: {e}"));
        }
    }

    #[test]
    fn sweep_single_process_and_child_modes_run() {
        // Single-process mode over a tiny grid (includes the default path).
        for line in [
            "sweep --model qsm --problem or --ns 64,256 --gs 2 --seed 3",
            "sweep --model sqsm --problem parity --ns 256 --gs 2,4 --seed 3",
        ] {
            let argv: Vec<String> = line.split_whitespace().map(String::from).collect();
            run(argv).unwrap_or_else(|e| panic!("{line}: {e}"));
        }
        // Child mode: one strided slice, no summary. (The parent's real
        // process-spawn path is exercised by ci.sh against the release
        // binary — a test binary cannot re-spawn itself as `parbounds`.)
        let argv: Vec<String> =
            "sweep --model qsm --problem or --ns 64,256 --gs 2 --seed 3 --shards 2 --shard-id 1"
                .split_whitespace()
                .map(String::from)
                .collect();
        run(argv).unwrap();
    }

    #[test]
    fn sweep_shard_flags_are_validated_as_typed_errors() {
        let cases = [
            (
                "sweep --ns 64 --gs 2 --shards 0",
                "--shards must be positive",
            ),
            (
                "sweep --ns 64 --gs 2 --shards 2 --shard-id 2",
                "out of range",
            ),
            ("sweep --ns 64 --gs 2 --shard-id 0", "requires --shards"),
            ("sweep --ns 64 --gs 0", "positive integers"),
            ("sweep --model gsm", "unknown model"),
            ("sweep --problem sort", "unknown problem"),
        ];
        for (line, needle) in cases {
            let argv: Vec<String> = line.split_whitespace().map(String::from).collect();
            let err = run(argv).unwrap_err();
            assert!(err.contains(needle), "{line}: {err}");
        }
    }

    #[test]
    fn audit_symbolic_subcommands_run_end_to_end() {
        for line in [
            "audit --symbolic --family parity-read-tree --n 512",
            "audit --symbolic --mc --family parity-read-tree --n 256 --seed 7 --samples 8",
            "audit --symbolic --list",
        ] {
            let argv: Vec<String> = line.split_whitespace().map(String::from).collect();
            run(argv).unwrap_or_else(|e| panic!("{line}: {e}"));
        }
        // Unknown family surfaces the registry in the error.
        let argv: Vec<String> = "audit --symbolic --family no-such-family"
            .split_whitespace()
            .map(String::from)
            .collect();
        let err = run(argv).unwrap_err();
        assert!(err.contains("no lower-bound audit registered"), "{err}");
    }
}
