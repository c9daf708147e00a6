//! Chaos-driven soak harness for the cost-oracle service.
//!
//! Replays thousands of seeded mixed queries against an in-process
//! [`Server`] while injecting the faults a hostile or unlucky client
//! population produces — malformed frames, oversized frames, mid-request
//! disconnects, deterministic deadline trips, budget-exhausting tenants,
//! hostile plans addressing cells far past the memory limit, and
//! concurrent duplicate storms — and checks the service's invariants the
//! whole way:
//!
//! * **zero panics** — every response is a full answer, a typed error, or
//!   a degraded static fallback; a worker that dies mid-request is a
//!   violation;
//! * **valid degraded answers** — every `degraded: true` response carries
//!   exactly the plan's static ledger;
//! * **cache consistency** — two full answers for the same
//!   `(kind, plan, input)` are identical, the hit rate over identically
//!   distributed batches is monotone non-decreasing, and the cache never
//!   exceeds its capacity;
//! * **deadline discipline** — no request's wall latency exceeds twice
//!   its deadline budget, and a connection answers a malformed frame and
//!   the valid one after it within the default deadline, even when one
//!   string fills the malformed frame to the frame cap;
//! * **bounded hostile plans** — an inline plan writing cell 2^50 draws a
//!   typed `model_rule` error, and one reading cell `usize::MAX` runs,
//!   each within the default deadline (no address-sized allocation).
//!
//! Everything is seeded: two soaks with the same [`SoakConfig`] replay
//! the same request schedule.

use std::collections::HashMap;
use std::io::Write as _;
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use parbounds::analyze::{ir_family_plan, predict_ledger, IR_FAMILIES};
use parbounds::ir::{
    dart_round, scatter_gather, ModelKind, PhasePlan, PlanBody, ProcPhase, ValueRule,
};
use parbounds::models::CostLedger;
use parbounds::serve::{
    json, Answer, ErrorCode, OracleConfig, PlanSource, QueryKind, Request, Response, Server,
    ServerConfig,
};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Soak knobs. Everything downstream is derived deterministically from
/// these.
#[derive(Debug, Clone, Copy)]
pub struct SoakConfig {
    /// Master seed for the request schedule.
    pub seed: u64,
    /// Total requests across all batches and clients.
    pub requests: usize,
    /// Concurrent client threads.
    pub clients: usize,
    /// Sequential batches (the monotone-hit-rate check runs per batch).
    pub batches: usize,
    /// Server worker threads (0 = auto).
    pub workers: usize,
    /// Admission-queue depth.
    pub queue_cap: usize,
    /// Cache capacity (ready answers).
    pub cache_cap: usize,
    /// Per-tenant predicted-cost budget.
    pub tenant_budget: u64,
    /// Default request deadline, milliseconds.
    pub deadline_ms: u64,
}

impl SoakConfig {
    /// The CI smoke configuration: ≥5k mixed requests, fixed seed, sized
    /// to finish in a few seconds on a release build.
    pub fn smoke() -> Self {
        SoakConfig {
            seed: 0x5eed_50a8,
            requests: 5_500,
            clients: 8,
            batches: 4,
            workers: 0,
            queue_cap: 256,
            cache_cap: 512,
            tenant_budget: 2_000_000,
            deadline_ms: 2_000,
        }
    }
}

/// Latency percentiles in microseconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct Percentiles {
    /// Median.
    pub p50: u64,
    /// 90th percentile.
    pub p90: u64,
    /// 99th percentile.
    pub p99: u64,
    /// Worst case.
    pub max: u64,
}

/// What the soak observed.
#[derive(Debug, Clone, Default)]
pub struct SoakReport {
    /// Requests submitted through the typed path.
    pub submitted: usize,
    /// Full (non-degraded) successful answers.
    pub ok_full: usize,
    /// Answers served from the cache.
    pub cached: usize,
    /// Degraded static-fallback answers.
    pub degraded: usize,
    /// Requests shed with `overloaded`.
    pub shed: usize,
    /// Other typed errors (budget, deadline, model-rule).
    pub typed_errors: usize,
    /// Typed `budget_exhausted` refusals drawn by the spender storm.
    pub budget_refusals: usize,
    /// Malformed/oversized frames pushed through the connection loop.
    pub wire_faults: usize,
    /// Responses received on fault-injected connections.
    pub wire_responses: usize,
    /// Cumulative cache hit rate after each batch.
    pub batch_hit_rates: Vec<f64>,
    /// Wall time of the whole soak, milliseconds.
    pub elapsed_ms: u64,
    /// Requests per second over the typed path.
    pub throughput_rps: f64,
    /// Latency distribution of typed submissions.
    pub latency_us: Percentiles,
    /// Invariant violations. Empty means the soak passed.
    pub violations: Vec<String>,
}

impl SoakReport {
    /// True when no invariant was violated.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }

    /// Human-readable summary.
    pub fn render(&self) -> String {
        let mut out = String::new();
        use std::fmt::Write as _;
        let _ = writeln!(
            out,
            "soak: {} typed requests in {} ms ({:.0} req/s)",
            self.submitted, self.elapsed_ms, self.throughput_rps
        );
        let _ = writeln!(
            out,
            "  full answers {}  cached {}  degraded {}  shed {}  typed errors {}  budget refusals {}",
            self.ok_full, self.cached, self.degraded, self.shed, self.typed_errors,
            self.budget_refusals
        );
        let _ = writeln!(
            out,
            "  wire faults {} (responses {})",
            self.wire_faults, self.wire_responses
        );
        let rates: Vec<String> = self
            .batch_hit_rates
            .iter()
            .map(|r| format!("{:.3}", r))
            .collect();
        let _ = writeln!(out, "  cache hit rate by batch: [{}]", rates.join(", "));
        let _ = writeln!(
            out,
            "  latency us: p50 {}  p90 {}  p99 {}  max {}",
            self.latency_us.p50, self.latency_us.p90, self.latency_us.p99, self.latency_us.max
        );
        if self.passed() {
            let _ = writeln!(out, "  PASS: all invariants held");
        } else {
            for v in &self.violations {
                let _ = writeln!(out, "  VIOLATION: {v}");
            }
        }
        out
    }

    /// The report as a JSON object (for `BENCH_PR6.json`).
    pub fn to_json(&self, cfg: &SoakConfig) -> String {
        use json::Json;
        let obj = Json::Obj(vec![
            ("seed".into(), Json::Num(i128::from(cfg.seed))),
            ("requests".into(), Json::Num(self.submitted as i128)),
            ("ok_full".into(), Json::Num(self.ok_full as i128)),
            ("cached".into(), Json::Num(self.cached as i128)),
            ("degraded".into(), Json::Num(self.degraded as i128)),
            ("shed".into(), Json::Num(self.shed as i128)),
            ("typed_errors".into(), Json::Num(self.typed_errors as i128)),
            (
                "budget_refusals".into(),
                Json::Num(self.budget_refusals as i128),
            ),
            ("wire_faults".into(), Json::Num(self.wire_faults as i128)),
            ("elapsed_ms".into(), Json::Num(i128::from(self.elapsed_ms))),
            (
                "throughput_rps".into(),
                Json::Num(self.throughput_rps as i128),
            ),
            (
                "batch_hit_rate_milli".into(),
                Json::Arr(
                    self.batch_hit_rates
                        .iter()
                        .map(|r| Json::Num((r * 1000.0) as i128))
                        .collect(),
                ),
            ),
            (
                "latency_us".into(),
                Json::Obj(vec![
                    ("p50".into(), Json::Num(i128::from(self.latency_us.p50))),
                    ("p90".into(), Json::Num(i128::from(self.latency_us.p90))),
                    ("p99".into(), Json::Num(i128::from(self.latency_us.p99))),
                    ("max".into(), Json::Num(i128::from(self.latency_us.max))),
                ]),
            ),
            (
                "violations".into(),
                Json::Arr(
                    self.violations
                        .iter()
                        .map(|v| Json::Str(v.clone()))
                        .collect(),
                ),
            ),
        ]);
        obj.render()
    }
}

/// One precomputed plan the chaos schedule draws from.
struct PoolEntry {
    family: &'static str,
    n: usize,
    seed: u64,
    phases: usize,
    predicted: CostLedger,
}

/// Shared mutable state the client threads fold their observations into.
#[derive(Default)]
struct Tally {
    ok_full: usize,
    cached: usize,
    degraded: usize,
    shed: usize,
    typed_errors: usize,
    wire_faults: usize,
    wire_responses: usize,
    latencies_us: Vec<u64>,
    violations: Vec<String>,
    /// Fingerprints of full answers per (kind, pool index): cache
    /// consistency means they never change.
    fingerprints: HashMap<(u8, usize), u64>,
}

/// Builds the request pool: the seven clean §8 families at three sizes
/// and a few seeds each.
fn build_pool() -> Vec<PoolEntry> {
    let mut pool = Vec::new();
    for &family in IR_FAMILIES.iter() {
        for &n in &[16usize, 64, 256] {
            for seed in 0..3u64 {
                let (name, plan, _input) =
                    ir_family_plan(family, n, seed).expect("pool family builds");
                let predicted = predict_ledger(&plan).expect("pool plan predicts");
                pool.push(PoolEntry {
                    family: name,
                    n,
                    seed,
                    phases: plan.num_phases(),
                    predicted,
                });
            }
        }
    }
    pool
}

fn kind_code(kind: QueryKind) -> u8 {
    match kind {
        QueryKind::Static => 0,
        QueryKind::Lint => 1,
        QueryKind::Certify => 2,
        QueryKind::Run => 3,
        QueryKind::Compare => 4,
        QueryKind::Symbolic => 5,
        QueryKind::Audit => 6,
    }
}

/// A writer that fails after a fixed number of bytes — a client that
/// disconnects mid-response.
struct Disconnecting {
    remaining: usize,
}

impl std::io::Write for Disconnecting {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        if self.remaining == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::BrokenPipe,
                "client disconnected",
            ));
        }
        let n = buf.len().min(self.remaining);
        self.remaining -= n;
        Ok(n)
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Runs the soak and returns the report. Deterministic request schedule;
/// concurrency interleaving (and hence exact cached/shed counts) varies,
/// the invariants never.
pub fn run_soak(cfg: &SoakConfig) -> SoakReport {
    let pool = Arc::new(build_pool());
    let server = Arc::new(Server::start(ServerConfig {
        workers: cfg.workers,
        queue_cap: cfg.queue_cap,
        retry_after_ms: 10,
        max_frame_bytes: 1 << 20,
        oracle: OracleConfig {
            cache_cap: cfg.cache_cap,
            default_deadline: Duration::from_millis(cfg.deadline_ms),
            tenant_budget: cfg.tenant_budget,
        },
    }));
    let tally = Arc::new(Mutex::new(Tally::default()));
    let started = Instant::now();
    let per_batch = (cfg.requests / cfg.batches.max(1)).max(1);
    let mut batch_hit_rates = Vec::new();

    for batch in 0..cfg.batches.max(1) {
        let per_client = (per_batch / cfg.clients.max(1)).max(1);
        let handles: Vec<_> = (0..cfg.clients.max(1))
            .map(|client| {
                let pool = Arc::clone(&pool);
                let server = Arc::clone(&server);
                let tally = Arc::clone(&tally);
                let seed = cfg
                    .seed
                    .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                    .wrapping_add((batch * 1000 + client) as u64);
                let deadline_ms = cfg.deadline_ms;
                thread::spawn(move || {
                    client_loop(&server, &pool, &tally, seed, per_client, deadline_ms)
                })
            })
            .collect();
        for h in handles {
            if h.join().is_err() {
                tally
                    .lock()
                    .expect("tally lock")
                    .violations
                    .push(format!("client thread panicked in batch {batch}"));
            }
        }
        batch_hit_rates.push(server.oracle().cache_stats().hit_rate());
    }

    chaos_hostile_plans(&server, &tally);

    // Budget-exhausting storm: after the batches, the "spender" tenant
    // hammers the costliest plan until its budget runs dry. The refusal
    // must arrive as a typed `budget_exhausted`, never a panic or a
    // mangled answer.
    let mut budget_refusals = 0usize;
    if cfg.tenant_budget < u64::MAX {
        let costly = pool
            .iter()
            .max_by_key(|e| e.predicted.total_time())
            .expect("pool is non-empty");
        let cost = costly.predicted.total_time().max(1);
        let cap = (cfg.tenant_budget / cost).saturating_add(2).min(100_000);
        for i in 0..cap {
            let resp = server.submit(Request {
                id: 1_000_000 + i,
                tenant: "spender".to_string(),
                kind: QueryKind::Run,
                deadline_ms: Some(cfg.deadline_ms),
                trip_at_phase: None,
                plan: PlanSource::Family {
                    name: costly.family.to_string(),
                    n: costly.n,
                    seed: costly.seed,
                },
                input: None,
            });
            if let Err(err) = &resp.result {
                if err.code == ErrorCode::BudgetExhausted {
                    budget_refusals += 1;
                    break;
                }
                tally.lock().expect("tally lock").violations.push(format!(
                    "spender storm drew {:?}: {}",
                    err.code, err.message
                ));
                break;
            }
        }
        if budget_refusals == 0 {
            tally
                .lock()
                .expect("tally lock")
                .violations
                .push("spender tenant never drew a typed budget refusal".to_string());
        }
    }

    let elapsed = started.elapsed();
    let mut t = Arc::try_unwrap(tally)
        .map(|m| m.into_inner().expect("tally lock"))
        .unwrap_or_else(|arc| arc.lock().expect("tally lock").clone_out());

    // Invariant: identically distributed batches drive the cumulative hit
    // rate monotonically up (duplicates only accumulate).
    for w in batch_hit_rates.windows(2) {
        if w[1] < w[0] - 1e-9 {
            t.violations.push(format!(
                "cache hit rate regressed across batches: {:.4} -> {:.4}",
                w[0], w[1]
            ));
        }
    }
    // Invariant: bounded memory — the cache respects its capacity.
    let stats = server.oracle().cache_stats();
    if stats.entries > cfg.cache_cap {
        t.violations.push(format!(
            "cache holds {} entries, capacity {}",
            stats.entries, cfg.cache_cap
        ));
    }
    // Invariant: deadline discipline — no typed request took more than
    // twice its deadline budget end to end.
    let cap_us = cfg.deadline_ms.saturating_mul(2).saturating_mul(1000);
    if let Some(&worst) = t.latencies_us.iter().max() {
        if worst > cap_us {
            t.violations.push(format!(
                "request latency {worst}us exceeded 2x the {}ms deadline budget",
                cfg.deadline_ms
            ));
        }
    }

    t.latencies_us.sort_unstable();
    let pct = |p: f64| -> u64 {
        if t.latencies_us.is_empty() {
            0
        } else {
            let idx = ((t.latencies_us.len() - 1) as f64 * p).round() as usize;
            t.latencies_us[idx]
        }
    };
    let submitted = t.latencies_us.len();
    SoakReport {
        submitted,
        ok_full: t.ok_full,
        cached: t.cached,
        degraded: t.degraded,
        shed: t.shed,
        typed_errors: t.typed_errors,
        budget_refusals,
        wire_faults: t.wire_faults,
        wire_responses: t.wire_responses,
        batch_hit_rates,
        elapsed_ms: elapsed.as_millis().min(u128::from(u64::MAX)) as u64,
        throughput_rps: submitted as f64 / elapsed.as_secs_f64().max(1e-9),
        latency_us: Percentiles {
            p50: pct(0.50),
            p90: pct(0.90),
            p99: pct(0.99),
            max: t.latencies_us.last().copied().unwrap_or(0),
        },
        violations: t.violations,
    }
}

impl Tally {
    /// Clone the contents out from behind a still-shared Arc (only hit if
    /// a client thread leaked its Arc by panicking).
    fn clone_out(&self) -> Tally {
        Tally {
            ok_full: self.ok_full,
            cached: self.cached,
            degraded: self.degraded,
            shed: self.shed,
            typed_errors: self.typed_errors,
            wire_faults: self.wire_faults,
            wire_responses: self.wire_responses,
            latencies_us: self.latencies_us.clone(),
            violations: self.violations.clone(),
            fingerprints: self.fingerprints.clone(),
        }
    }
}

fn client_loop(
    server: &Server,
    pool: &[PoolEntry],
    tally: &Mutex<Tally>,
    seed: u64,
    requests: usize,
    deadline_ms: u64,
) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    for i in 0..requests {
        let roll: f64 = rng.gen_range(0.0..1.0);
        if roll < 0.02 {
            chaos_wire_frame(server, &mut rng, tally);
            continue;
        }
        if roll < 0.03 {
            chaos_disconnect(server, &mut rng, pool, tally);
            continue;
        }

        // A duplicate storm concentrates 20% of traffic on 4 hot keys;
        // the rest spreads over the whole pool.
        let idx = if rng.gen_bool(0.2) {
            rng.gen_range(0..4usize.min(pool.len()))
        } else {
            rng.gen_range(0..pool.len())
        };
        let entry = &pool[idx];
        let kind = match rng.gen_range(0..100u32) {
            0..=19 => QueryKind::Static,
            20..=29 => QueryKind::Lint,
            30..=39 => QueryKind::Certify,
            40..=74 => QueryKind::Run,
            _ => QueryKind::Compare,
        };
        // 5% of measured requests come from the "spender" tenant, which
        // eventually exhausts its budget and must get typed refusals.
        let tenant = if kind.is_measured() && rng.gen_bool(0.05) {
            "spender".to_string()
        } else {
            format!("tenant-{}", rng.gen_range(0..4u32))
        };
        // 8% of measured requests trip their deadline at a deterministic
        // phase boundary — the degradation path under test.
        let trip = if kind.is_measured() && rng.gen_bool(0.08) {
            Some(rng.gen_range(0..entry.phases.max(1)))
        } else {
            None
        };
        let req = Request {
            id: i as u64,
            tenant,
            kind,
            deadline_ms: Some(deadline_ms),
            trip_at_phase: trip,
            plan: PlanSource::Family {
                name: entry.family.to_string(),
                n: entry.n,
                seed: entry.seed,
            },
            input: None,
        };

        let begun = Instant::now();
        let resp = server.submit(req);
        let latency_us = begun.elapsed().as_micros().min(u128::from(u64::MAX)) as u64;
        observe(tally, entry, kind, idx, &resp, latency_us);
    }
}

/// Validates one typed response against the invariants and folds it into
/// the tally.
fn observe(
    tally: &Mutex<Tally>,
    entry: &PoolEntry,
    kind: QueryKind,
    idx: usize,
    resp: &Response,
    latency_us: u64,
) {
    let mut t = tally.lock().expect("tally lock");
    t.latencies_us.push(latency_us);
    match &resp.result {
        Ok(answer) => {
            if resp.degraded {
                t.degraded += 1;
                // Degraded answers must be the plan's exact static ledger.
                match answer {
                    Answer::Ledger { ledger } if *ledger == entry.predicted => {}
                    other => t.violations.push(format!(
                        "degraded answer for {}#{} is not the static ledger: {other:?}",
                        entry.family, entry.n
                    )),
                }
            } else {
                t.ok_full += 1;
                if resp.cached {
                    t.cached += 1;
                }
                // Cache consistency: a full answer for a key never changes.
                let fp = json::fnv1a(answer.to_json().render().as_bytes());
                match t.fingerprints.insert((kind_code(kind), idx), fp) {
                    Some(prev) if prev != fp => t.violations.push(format!(
                        "cache consistency: answer changed for {:?} {}#{}",
                        kind, entry.family, entry.n
                    )),
                    _ => {}
                }
            }
        }
        Err(err) => match err.code {
            ErrorCode::Overloaded => {
                t.shed += 1;
                if err.retry_after_ms.is_none() {
                    t.violations
                        .push("overloaded response without retry_after_ms".to_string());
                }
            }
            ErrorCode::BudgetExhausted | ErrorCode::DeadlineExceeded | ErrorCode::ModelRule => {
                t.typed_errors += 1;
            }
            ErrorCode::BadRequest | ErrorCode::Io => {
                // The typed path never sends malformed frames; these mean
                // a worker died or the service mangled a valid request.
                t.violations
                    .push(format!("unexpected {:?}: {}", err.code, err.message));
            }
        },
    }
}

/// Pushes a deliberately broken frame (garbage bytes, truncated JSON, an
/// oversized frame, a wrong-schema object, or a wrong-schema object whose
/// one string fills it to just under the frame cap) through the connection
/// loop and checks the connection answers with a typed error and stays up,
/// both answers within the oracle's default deadline.
fn chaos_wire_frame(server: &Server, rng: &mut ChaCha8Rng, tally: &Mutex<Tally>) {
    let frame = match rng.gen_range(0..5u32) {
        0 => "not json at all".to_string(),
        1 => "{\"id\":1,\"kind\":\"static\"".to_string(), // truncated
        2 => format!("{{\"pad\":\"{}\"}}", "x".repeat(2 << 20)), // oversized
        3 => "{\"id\":9,\"kind\":\"warp\",\"family\":{\"name\":\"or-write-tree\"}}".to_string(),
        _ => {
            // No plan, and a tenant that fills the frame: decode must stay
            // linear in the frame to answer in time.
            let shell = "{\"id\":9,\"kind\":\"static\",\"tenant\":\"\"}";
            let fill = server.config().max_frame_bytes - shell.len() - 1;
            format!(
                "{{\"id\":9,\"kind\":\"static\",\"tenant\":\"{}\"}}",
                "x".repeat(fill)
            )
        }
    };
    // Follow the bad frame with a good one: the connection must survive.
    let good = Request {
        id: 77,
        tenant: "chaos".to_string(),
        kind: QueryKind::Static,
        deadline_ms: None,
        trip_at_phase: None,
        plan: PlanSource::Family {
            name: "or-write-tree".to_string(),
            n: 16,
            seed: 0,
        },
        input: None,
    }
    .to_json()
    .render();
    let input = format!("{frame}\n{good}\n");
    let mut out = Vec::new();
    let begun = Instant::now();
    server.serve_connection(input.as_bytes(), &mut out);
    let took = begun.elapsed();
    let text = String::from_utf8_lossy(&out);
    let lines: Vec<&str> = text.lines().collect();

    let mut t = tally.lock().expect("tally lock");
    t.wire_faults += 1;
    t.wire_responses += lines.len();
    let deadline = server.config().oracle.default_deadline;
    if took > deadline {
        t.violations.push(format!(
            "a {}-byte malformed frame and a valid one took {took:?} to answer, past the {deadline:?} deadline",
            frame.len()
        ));
    }
    if lines.len() != 2 {
        t.violations.push(format!(
            "connection produced {} responses to 2 frames (1 malformed)",
            lines.len()
        ));
        return;
    }
    let bad_ok = json::parse(lines[0])
        .ok()
        .and_then(|v| Response::from_json(&v).ok())
        .is_some_and(|r| {
            matches!(
                r.result,
                Err(ref e) if e.code == ErrorCode::BadRequest
            )
        });
    if !bad_ok {
        t.violations.push(format!(
            "malformed frame not answered bad_request: {}",
            lines[0]
        ));
    }
    let good_ok = json::parse(lines[1])
        .ok()
        .and_then(|v| Response::from_json(&v).ok())
        .is_some_and(|r| r.result.is_ok());
    if !good_ok {
        t.violations.push(format!(
            "connection did not serve a valid frame after a malformed one: {}",
            lines[1]
        ));
    }
}

/// The hostile-plan fault class: inline plans whose requests reach far
/// past the address limit, each sent on its own connection. A one-entry
/// scatter into cell 2^50 must draw a typed `model_rule` error, and a
/// compile-ineligible plan (two writers racing on cell 0) that also reads
/// cell `usize::MAX` must run, each answered within the default deadline.
fn chaos_hostile_plans(server: &Server, tally: &Mutex<Tally>) {
    let model = ModelKind::Qsm { g: 2 };
    let far_write = scatter_gather(&[0], &[1 << 50], model);
    let mut far_read = dart_round(&[(0, ValueRule::Const(1)), (0, ValueRule::Const(2))], model);
    far_read.procs = 3;
    if let PlanBody::Shared(phases) = &mut far_read.body {
        phases[0].procs.push(ProcPhase::idle(2).read(usize::MAX));
        phases[0].finish.push(2);
    }
    let cases: [(&str, PhasePlan, bool); 2] = [
        ("write of cell 2^50", far_write, false),
        ("read of cell usize::MAX", far_read, true),
    ];
    let deadline = server.config().oracle.default_deadline;
    for (what, plan, runs) in cases {
        let frame = Request {
            id: 66,
            tenant: "chaos".to_string(),
            kind: QueryKind::Run,
            deadline_ms: None,
            trip_at_phase: None,
            plan: PlanSource::Inline(plan),
            input: None,
        }
        .to_json()
        .render();
        let mut out = Vec::new();
        let begun = Instant::now();
        server.serve_connection(format!("{frame}\n").as_bytes(), &mut out);
        let took = begun.elapsed();
        let answer = String::from_utf8_lossy(&out);
        let typed = json::parse(answer.trim_end())
            .ok()
            .and_then(|v| Response::from_json(&v).ok())
            .is_some_and(|r| match r.result {
                Ok(Answer::Run { .. }) => runs,
                Err(e) => !runs && e.code == ErrorCode::ModelRule,
                Ok(_) => false,
            });

        let mut t = tally.lock().expect("tally lock");
        t.wire_faults += 1;
        t.wire_responses += answer.lines().count();
        if took > deadline {
            t.violations.push(format!(
                "a hostile plan ({what}) took {took:?} to answer, past the {deadline:?} deadline"
            ));
        }
        if !typed {
            t.violations.push(format!(
                "a hostile plan ({what}) drew the wrong answer: {answer}"
            ));
        }
    }
}

/// Submits a valid request on a connection whose client disconnects
/// mid-response; the server must shrug it off (no panic, no violation).
fn chaos_disconnect(
    server: &Server,
    rng: &mut ChaCha8Rng,
    pool: &[PoolEntry],
    tally: &Mutex<Tally>,
) {
    let entry = &pool[rng.gen_range(0..pool.len())];
    let req = Request {
        id: 13,
        tenant: "chaos".to_string(),
        kind: QueryKind::Static,
        deadline_ms: None,
        trip_at_phase: None,
        plan: PlanSource::Family {
            name: entry.family.to_string(),
            n: entry.n,
            seed: entry.seed,
        },
        input: None,
    };
    let mut frames = Vec::new();
    let _ = writeln!(frames, "{}", req.to_json().render());
    let _ = writeln!(frames, "{}", req.to_json().render());
    // Allow a handful of bytes through, then break the pipe.
    let cut = rng.gen_range(0..32usize);
    server.serve_connection(frames.as_slice(), Disconnecting { remaining: cut });
    let mut t = tally.lock().expect("tally lock");
    t.wire_faults += 1;
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A miniature soak: the full chaos schedule at a size quick enough
    /// for the unit suite, all invariants enforced.
    #[test]
    fn mini_soak_holds_all_invariants() {
        let cfg = SoakConfig {
            requests: 400,
            clients: 4,
            batches: 2,
            tenant_budget: 150_000,
            ..SoakConfig::smoke()
        };
        let report = run_soak(&cfg);
        assert!(report.passed(), "soak violations: {:#?}", report.violations);
        assert!(report.submitted >= 300, "typed path exercised");
        assert!(report.ok_full > 0);
        assert!(report.degraded > 0, "chaos must exercise degradation");
        assert!(report.wire_faults > 0, "chaos must exercise the wire");
        assert!(report.budget_refusals > 0, "spender storm must exhaust");
        assert!(
            report.batch_hit_rates.len() == 2
                && report.batch_hit_rates[1] >= report.batch_hit_rates[0]
        );
        // The JSON render is parseable.
        let parsed = json::parse(&report.to_json(&cfg)).unwrap();
        assert_eq!(
            parsed.get("requests").and_then(json::Json::as_usize),
            Some(report.submitted)
        );
    }
}
