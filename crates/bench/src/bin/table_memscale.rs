#![forbid(unsafe_code)]

//! Million-scale memory-footprint benchmark: runs the Section 8 OR-tree,
//! parity, and prefix workloads up to `n = 2^24` under the chunked-page
//! storage and records, per run, elapsed nanoseconds, peak heap bytes
//! (when built with `--features count-alloc`, which registers the counting
//! global allocator), and the pages the final shared memory actually
//! touched — plus shard-scaling rows asserting the sharded sweep merge is
//! identical to the single-process sweep.
//!
//! ```text
//! cargo run --release -p parbounds-bench --features count-alloc \
//!     --bin table_memscale -- [--smoke] [--out BENCH_PR10.json] \
//!     [--check-bytes B]
//! ```
//!
//! Exits nonzero if any run's result fails its self-check, if the shard
//! merge is not identical to the single-process sweep, or if
//! `--check-bytes B` is given (requires `count-alloc`) and any footprint
//! row's peak heap bytes exceed `B` — the ci.sh memory-ceiling gate.

use std::time::Instant;

use parbounds::algo::util::ReduceOp;
use parbounds::algo::{or_tree, prefix, reduce, workloads};
use parbounds::models::{QsmMachine, Word, PAGE_WORDS};
use parbounds::shard::{decode_row, encode_row, sweep_point_row, sweep_shard_rows};
use parbounds::tables::{Model, Problem};
use parbounds::{grid, merge_shards, TableRow};

#[cfg(feature = "count-alloc")]
#[global_allocator]
static ALLOC: parbounds_alloc::CountingAlloc = parbounds_alloc::CountingAlloc::new();

/// Whether the binary was built with the counting allocator registered.
const COUNTING: bool = cfg!(feature = "count-alloc");

fn peak_bytes() -> usize {
    #[cfg(feature = "count-alloc")]
    {
        ALLOC.peak_bytes()
    }
    #[cfg(not(feature = "count-alloc"))]
    {
        0
    }
}

fn reset_peak() {
    #[cfg(feature = "count-alloc")]
    ALLOC.reset_peak();
}

const SEED: u64 = 0xbe7c;

struct FootprintRow {
    workload: &'static str,
    n: usize,
    elapsed_ns: u128,
    peak_bytes: usize,
    pages_touched: usize,
    phases: usize,
    ok: bool,
}

/// One measured workload run: peak-reset, run, self-check, account.
fn footprint(
    workload: &'static str,
    n: usize,
    run: impl FnOnce() -> (bool, usize, usize),
) -> FootprintRow {
    reset_peak();
    let t0 = Instant::now();
    let (ok, pages_touched, phases) = run();
    let elapsed_ns = t0.elapsed().as_nanos();
    FootprintRow {
        workload,
        n,
        elapsed_ns,
        peak_bytes: peak_bytes(),
        pages_touched,
        phases,
        ok,
    }
}

fn or_tree_row(n: usize) -> FootprintRow {
    footprint("or-write-tree", n, || {
        let bits = workloads::random_bits(n, SEED);
        let expect = Word::from(bits.iter().any(|&b| b != 0));
        let machine = QsmMachine::qsm(8).with_streaming_ledger();
        let out = or_tree::or_write_tree(&machine, &bits, 8).expect("or-tree run failed");
        (
            out.value == expect,
            out.run.memory.pages_touched(),
            out.run.ledger.num_phases(),
        )
    })
}

// Parity at scale runs the fan-in-8 read tree (≈ n/8 processors): the
// pattern-helper variant spawns n·2^k/k helper processors, whose per-proc
// engine state — not cell storage — dominates at 2^24 (gigabytes); the
// read tree exercises the same paged cells at a processor count that
// keeps the footprint column about storage.
fn parity_row(n: usize) -> FootprintRow {
    footprint("parity-read-tree", n, || {
        let bits = workloads::random_bits(n, SEED);
        let expect = bits.iter().fold(0, |a, &b| a ^ (b & 1));
        let machine = QsmMachine::sqsm(8).with_streaming_ledger();
        let out = reduce::parity_read_tree(&machine, &bits, 8).expect("parity run failed");
        (
            out.value == expect,
            out.run.memory.pages_touched(),
            out.run.ledger.num_phases(),
        )
    })
}

fn prefix_row(n: usize) -> FootprintRow {
    footprint("prefix-sums", n, || {
        let bits = workloads::random_bits(n, SEED);
        let expect: Word = bits.iter().sum();
        let machine = QsmMachine::sqsm(2).with_streaming_ledger();
        let p = (n / 64).max(1);
        let out =
            prefix::prefix_in_rounds(&machine, &bits, p, ReduceOp::Sum).expect("prefix run failed");
        (
            out.values.last() == Some(&expect),
            out.run.memory.pages_touched(),
            out.run.ledger.num_phases(),
        )
    })
}

struct ShardRow {
    shards: usize,
    elapsed_ns: u128,
    merged_identical: bool,
}

/// Times the sweep grid at 1 and `shards` shards (in-process, through the
/// NDJSON wire codec exactly as the process-per-shard executor uses it)
/// and checks the merged rows are identical to the single-process rows.
fn shard_scaling(shards: usize, ns: &[usize]) -> Vec<ShardRow> {
    let points = grid(ns, &[2, 8]);
    let t0 = Instant::now();
    let single: Vec<TableRow> = points
        .iter()
        .map(|pt| sweep_point_row(Model::Qsm, Problem::Or, pt, SEED).expect("sweep row"))
        .collect();
    let single_ns = t0.elapsed().as_nanos();
    let t0 = Instant::now();
    let mut collected = Vec::new();
    for shard_id in 0..shards {
        for (i, row) in sweep_shard_rows(Model::Qsm, Problem::Or, &points, shards, shard_id, SEED)
            .expect("shard rows")
        {
            let line = encode_row(i, &row);
            collected.push(decode_row(&line).expect("shard line decode"));
        }
    }
    let merged = merge_shards(collected, points.len()).expect("shard merge");
    let sharded_ns = t0.elapsed().as_nanos();
    vec![
        ShardRow {
            shards: 1,
            elapsed_ns: single_ns,
            merged_identical: true,
        },
        ShardRow {
            shards,
            elapsed_ns: sharded_ns,
            merged_identical: merged == single,
        },
    ]
}

fn to_json(smoke: bool, rows: &[FootprintRow], scaling: &[ShardRow]) -> String {
    let mut s = String::from("{\n");
    s.push_str("  \"bench\": \"table_memscale\",\n");
    s.push_str(&format!("  \"smoke\": {smoke},\n"));
    s.push_str(&format!("  \"count_alloc\": {COUNTING},\n"));
    s.push_str(&format!("  \"page_words\": {PAGE_WORDS},\n"));
    s.push_str("  \"footprint\": [\n");
    for (i, r) in rows.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"workload\": \"{}\", \"n\": {}, \"elapsed_ns\": {}, \
             \"peak_bytes\": {}, \"pages_touched\": {}, \"phases\": {}, \"ok\": {}}}{}\n",
            r.workload,
            r.n,
            r.elapsed_ns,
            r.peak_bytes,
            r.pages_touched,
            r.phases,
            r.ok,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    s.push_str("  ],\n");
    s.push_str("  \"shard_scaling\": [\n");
    for (i, r) in scaling.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"shards\": {}, \"elapsed_ns\": {}, \"merged_identical\": {}}}{}\n",
            r.shards,
            r.elapsed_ns,
            r.merged_identical,
            if i + 1 < scaling.len() { "," } else { "" }
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

fn main() {
    let args = parbounds_bench::init_threads_from_cli().unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    });
    let mut smoke = false;
    let mut out: Option<String> = None;
    let mut check_bytes: Option<usize> = None;
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--out" => out = Some(it.next().unwrap_or_else(|| usage("--out needs a path"))),
            "--check-bytes" => {
                let v = it
                    .next()
                    .unwrap_or_else(|| usage("--check-bytes needs a byte count"));
                check_bytes = Some(
                    v.parse()
                        .unwrap_or_else(|_| usage("--check-bytes expects an integer byte count")),
                );
            }
            other => usage(&format!("unknown argument: {other}")),
        }
    }
    if check_bytes.is_some() && !COUNTING {
        usage("--check-bytes requires a build with --features count-alloc");
    }

    // The full grid climbs to n = 2^24 (the million-scale demonstration);
    // smoke stops at 2^20 so the ci gate stays fast.
    let ns: Vec<usize> = if smoke {
        vec![1 << 16, 1 << 20]
    } else {
        vec![1 << 20, 1 << 22, 1 << 24]
    };
    let sweep_ns: Vec<usize> = if smoke {
        vec![1 << 8, 1 << 10]
    } else {
        vec![1 << 10, 1 << 13]
    };

    let mut rows = Vec::new();
    for &n in &ns {
        rows.push(or_tree_row(n));
        rows.push(parity_row(n));
        rows.push(prefix_row(n));
    }
    let scaling = shard_scaling(2, &sweep_ns);

    println!(
        "memory footprint (counting allocator {}):",
        if COUNTING {
            "ON"
        } else {
            "off — peak_bytes read 0"
        }
    );
    println!(
        "{:<22} {:>9} | {:>14} {:>14} {:>8} {:>8} | ok",
        "workload", "n", "elapsed (ns)", "peak bytes", "pages", "phases"
    );
    println!("{}", "-".repeat(92));
    for r in &rows {
        println!(
            "{:<22} {:>9} | {:>14} {:>14} {:>8} {:>8} | {}",
            r.workload,
            r.n,
            r.elapsed_ns,
            r.peak_bytes,
            r.pages_touched,
            r.phases,
            if r.ok { "yes" } else { "NO" }
        );
    }
    println!();
    println!(
        "shard scaling (qsm OR sweep, {} points):",
        grid(&sweep_ns, &[2, 8]).len()
    );
    for r in &scaling {
        println!(
            "  shards = {}: {} ns, merge identical: {}",
            r.shards,
            r.elapsed_ns,
            if r.merged_identical { "yes" } else { "NO" }
        );
    }

    if let Some(path) = out {
        std::fs::write(&path, to_json(smoke, &rows, &scaling)).unwrap_or_else(|e| {
            eprintln!("failed to write {path}: {e}");
            std::process::exit(1);
        });
        println!("wrote {path}");
    }

    if rows.iter().any(|r| !r.ok) {
        eprintln!("FAIL: a workload produced a wrong answer");
        std::process::exit(1);
    }
    if scaling.iter().any(|r| !r.merged_identical) {
        eprintln!("FAIL: sharded sweep merge diverged from the single-process sweep");
        std::process::exit(1);
    }
    if let Some(ceiling) = check_bytes {
        for r in &rows {
            if r.peak_bytes > ceiling {
                eprintln!(
                    "FAIL: {} n={} peaked at {} heap bytes > ceiling {}",
                    r.workload, r.n, r.peak_bytes, ceiling
                );
                std::process::exit(1);
            }
        }
    }
}

fn usage(msg: &str) -> ! {
    eprintln!("{msg}");
    eprintln!("usage: table_memscale [--smoke] [--out PATH] [--threads N] [--check-bytes B]");
    std::process::exit(2);
}
