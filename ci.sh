#!/usr/bin/env bash
# Tier-1 verification pipeline. Run from the repository root.
set -euo pipefail
cd "$(dirname "$0")"

cargo build --release
cargo test -q
# The benchmark's own checks, against this tree: serve answers, repeats
# equal to their first answer, run ledgers equal to the static
# prediction, and the table1 golden file.
cargo test --release -q --manifest-path perfbench/Cargo.toml
cargo fmt --check
cargo clippy --all-targets -- -D warnings
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --quiet

# Model-conformance gate: every Section 8 family must come out of the
# analyzer clean (zero lints, determinism verified, contracts satisfied),
# and the deliberately racy fixture must be flagged (exit 1).
target/release/parbounds lint --all
if target/release/parbounds lint --family racy-fixture >/dev/null; then
    echo "ci: racy fixture was NOT flagged by 'parbounds lint'" >&2
    exit 1
fi

# Static-analysis gate: every IR-lifted family's pre-execution ledger
# prediction must match the measured ledger cell for cell, with a granted
# race-freedom certificate (exit 1 on any divergence), and the racy plan
# fixture must be refused a certificate (exit 1 from the analyzer).
target/release/parbounds analyze --static --all
if target/release/parbounds analyze --static --family racy-plan >/dev/null; then
    echo "ci: racy plan was NOT flagged by 'parbounds analyze --static'" >&2
    exit 1
fi

# Plan-compilation gate: every Section 8 family must be eligible for the
# straight-line compiled schedule (the analyzer prints per-family
# eligibility and exits 1 on any compile-ineligible family), and the racy
# fixture is the inverse witness — it must exit nonzero AND the output
# must name the compile-ineligible rule with the blocking node.
target/release/parbounds analyze --static --all --compiled
# The same gate at n = 65536 puts prefix-sweep's ~2.7M-request plan through
# every static pass and the compiler; the exit code is the only check.
target/release/parbounds analyze --static --all --compiled --n 65536 >/dev/null
if target/release/parbounds analyze --static --family racy-plan --compiled >/dev/null; then
    echo "ci: racy plan was NOT refused under 'analyze --static --compiled'" >&2
    exit 1
fi
(target/release/parbounds analyze --static --family racy-plan --compiled || true) \
    | grep "compile-ineligible" >/dev/null || {
    echo "ci: compile-ineligible lint output missing the rule name" >&2
    exit 1
}

# Symbolic-conformance gate: every covered family's Θ-normal-form ledger
# must be Θ-equivalent to its Table 1 row, the Claim 2.1/2.2 model
# mappings must hold symbolically, and the symbolic ledgers must evaluate
# bit-identically to the numeric predictor on the CI grid (exit 1 on any
# inequivalence, regression, claim failure, or cell-level divergence).
# Inverse check: the deliberately padded write tree derives Θ(g·log n) —
# strictly dominating its Table 1 row Θ(g·log n / log g) — and must trip
# the bound-regression lint (exit 1 from the analyzer).
target/release/parbounds analyze --symbolic --all
if target/release/parbounds analyze --symbolic --family or-write-tree-padded >/dev/null; then
    echo "ci: padded plan did NOT trip bound-regression under '--symbolic'" >&2
    exit 1
fi

# Audit-conformance gate: the memoized symbolic adversary must agree with
# the enumerative 2^r goodness checker field for field wherever the
# enumeration is feasible (exit 1 on any mismatch), every registered
# family's budget-respecting refinement trajectory must stay t-good at
# n = 4096 with no lower bound exceeding its Table 1 upper (exit 1 on a
# violation verdict), and the fixed-seed Monte-Carlo adversary must
# witness root-trace sensitivity at the Know-completion time. Inverse
# check: the padded fixture is swept symbolically but deliberately has no
# lower-bound audit, so the audit-gap lint must exit nonzero and name it.
target/release/parbounds audit --symbolic --differential --max-r 6
target/release/parbounds audit --symbolic --all --n 4096
target/release/parbounds audit --symbolic --mc --family parity-read-tree \
    --n 4096 --seed 42 --samples 16 >/dev/null
if target/release/parbounds audit --symbolic --lint-gap >/dev/null; then
    echo "ci: audit-gap lint did NOT flag the unaudited padded fixture" >&2
    exit 1
fi
(target/release/parbounds audit --symbolic --lint-gap || true) | grep "audit-gap" >/dev/null || {
    echo "ci: audit-gap lint output missing the 'audit-gap' rule name" >&2
    exit 1
}

# Execution fast-path gate: the reduced hot-path grid (now including the
# compiled straight-line schedules, whose three-way equality —
# compiled == interpreted == reference — is part of all_equal) must
# produce bit-identical results on every path (the binary exits 1 on any
# divergence). Timing batches each point until the timed region is long
# enough to measure, so microsecond points are no longer pure noise; the
# smoke floor of 0.5x is a coarse tripwire against a real dense-path
# regression (the strict >= 1.0x "dense never loses" floor and the
# compiled >= 1.5x geomean are enforced on the committed full run in
# BENCH_PR9.json, where reps = 3 makes them stable).
cargo run --release -q -p parbounds-bench --bin table_hotpath -- \
    --smoke --check-floor 0.5 \
    --out target/bench_smoke.json > target/hotpath_smoke.log

# Memory-ceiling gate: the n = 2^20 family smoke grid must complete under
# a hard 256 MiB peak-heap ceiling with the counting allocator registered.
# The 2^20 rows peak at 81.6 MB (or-write-tree), 55.4 MB
# (parity-read-tree) and 107.8 MB (prefix-sums) since the dense engines
# keep one live list and one delivery arena, so the ceiling trips on a
# ~2.5x storage regression of the largest row. The binary also asserts
# each workload's self-check and that the in-process 2-shard sweep merge
# is identical to the single-process rows.
cargo run --release -q -p parbounds-bench --features count-alloc \
    --bin table_memscale -- --smoke --check-bytes 268435456 >/dev/null

# Sharded-sweep gate: the process-per-shard executor (real child
# processes, NDJSON over pipes, deterministic merge) must produce stdout
# byte-identical to the single-process sweep on the same grid.
target/release/parbounds sweep --model qsm --problem or \
    --ns 1024,4096 --gs 2,8 --seed 7 > target/sweep_single.ndjson
target/release/parbounds sweep --model qsm --problem or \
    --ns 1024,4096 --gs 2,8 --seed 7 --shards 2 > target/sweep_sharded.ndjson
diff target/sweep_single.ndjson target/sweep_sharded.ndjson || {
    echo "ci: sharded sweep output diverged from the single-process sweep" >&2
    exit 1
}

# Service soak gate: ~10 seconds of chaos against the in-process oracle
# service at a fixed seed — seeded fault injection (malformed frames,
# disconnects, deadline trips, duplicate storms, a budget-exhausting
# tenant) with the robustness invariants enforced: zero panics, every
# degraded answer a valid static ledger, cache-consistent full answers,
# monotone cumulative hit rate, bounded cache, no latency past 2x the
# deadline budget, no malformed frame (one fills the 1 MiB frame cap with
# a single string, so decode must stay linear) answered past the default
# deadline. Exits 1 on any violation; the JSON report goes under target/,
# leaving the committed BENCH_PR6.json as it is.
cargo run --release -q -p parbounds-cli -- soak --smoke --out target/soak_smoke.json
