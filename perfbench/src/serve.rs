//! `oracle-serve`: a closed loop of client connections against the
//! cost-oracle [`Server`].
//!
//! Each connection is one `UnixStream::pair` whose server end runs
//! `Server::serve_connection`; a client thread writes one frame, waits for
//! the response line, and only then sends its next frame. A request is
//! timed from the frame write to the response read.
//!
//! No recorded traffic of the service exists, so the mix is part evidence,
//! part assumption. The kind shares of family requests follow the
//! repository's service soak (`crates/bench/src/soak.rs`): 20% static,
//! 10% lint, 10% certify, 35% run and 25% compare. The soak predates the
//! symbolic and audit kinds; giving each one request in 22 is an
//! assumption. So are the sizes `n ∈ {2^8, 2^10, 2^12}`, the half of the
//! frames that repeat an earlier frame, and the one fresh request in about
//! eight of the kinds that accept inline plans that carries one (at
//! `n = 2^8`, through `plan_to_json`/`plan_from_json`). A traced run
//! reports the shares it measured (`serve.share.*`, `serve.kind.*_count`).
//!
//! The schedule is made from the workload seed in blocks. A block holds
//! that mix exactly for every family and size, each fresh request with a
//! fresh input seed, in a seeded order. After each fresh request comes a
//! repeat of one of the block's fresh requests not yet repeated. The mix
//! is the same in every block, so runs on different seeds do the same
//! amount of work.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::io::{BufRead, BufReader, Write};
use std::net::Shutdown;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use parbounds::analyze::{ir_family_plan, predict_ledger, IR_FAMILIES};
use parbounds::models::CostLedger;
use parbounds::serve::json;
use parbounds::serve::{
    Answer, ErrorCode, PlanSource, QueryKind, Request, Response, Server, ServerConfig,
};

use crate::trace::Tracer;
use crate::{stats, Measurement, Metric, Workload};

/// Every query kind, in wire order, with its fresh family requests per
/// `(family, n)` in a schedule block: the soak's shares of the first five
/// (20/10/10/35/25 in 100) scaled to 20, and one each for the two kinds
/// the soak does not send.
pub const MIX: [(QueryKind, usize); 7] = [
    (QueryKind::Static, 4),
    (QueryKind::Lint, 2),
    (QueryKind::Certify, 2),
    (QueryKind::Run, 7),
    (QueryKind::Compare, 5),
    (QueryKind::Symbolic, 1),
    (QueryKind::Audit, 1),
];

/// The first `INLINE_KINDS` of [`MIX`] accept inline plans.
const INLINE_KINDS: usize = 5;

/// Inline-plan requests per family per block: with 20 family requests of
/// those kinds per size, 60 per family, about one fresh request of those
/// kinds in eight is inline.
pub const INLINE_PER_FAMILY: usize = 8;

/// One scheduled request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Spec {
    /// What to compute.
    pub kind: QueryKind,
    /// IR family the plan comes from.
    pub family: &'static str,
    /// Problem size.
    pub n: usize,
    /// Input seed of the family plan.
    pub seed: u64,
    /// Whether the frame carries the plan inline.
    pub inline: bool,
    /// For a repeat, the index of the request it repeats.
    pub first: Option<usize>,
}

/// splitmix64: a small seeded generator for schedule decisions.
#[derive(Debug)]
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// The `oracle-serve` workload.
#[derive(Debug, Clone)]
pub struct Serve {
    /// Problem sizes of family requests.
    pub sizes: [usize; 3],
    /// Problem size of inline plans.
    pub inline_n: usize,
    /// Client connections, each with one client thread.
    pub connections: usize,
    /// Server worker threads. One by default, so on a 2-core host the
    /// second core runs the connection and client threads. With two, every
    /// core is busy, and the figures move about twice as far with other
    /// load on the host as those of the single-threaded workloads.
    pub workers: usize,
    /// Requests in the schedule; a stretch stops early when they run out.
    pub requests: usize,
}

impl Default for Serve {
    fn default() -> Self {
        Serve {
            sizes: [1 << 8, 1 << 10, 1 << 12],
            inline_n: 1 << 8,
            connections: 2,
            workers: 1,
            requests: 40_000,
        }
    }
}

impl Serve {
    /// Requests per schedule block: a fresh request and a repeat for each
    /// family request of the [`MIX`] and each inline plan.
    pub fn block_len(&self) -> usize {
        let per_size: usize = MIX.iter().map(|&(_, count)| count).sum();
        2 * IR_FAMILIES.len() * (per_size * self.sizes.len() + INLINE_PER_FAMILY)
    }

    /// The fresh requests of block `b`, before shuffling: the [`MIX`] for
    /// every family and size, plus `INLINE_PER_FAMILY` inline plans per
    /// family whose kinds cycle, in the mix's proportions, through the
    /// kinds that accept them.
    fn block(&self, b: usize) -> Vec<(QueryKind, &'static str, usize, bool)> {
        let inline_kinds: Vec<QueryKind> = MIX[..INLINE_KINDS]
            .iter()
            .flat_map(|&(kind, count)| std::iter::repeat_n(kind, count))
            .collect();
        let mut fresh = Vec::new();
        for (f, family) in IR_FAMILIES.into_iter().enumerate() {
            for (kind, count) in MIX {
                for n in self.sizes {
                    fresh.extend(std::iter::repeat_n((kind, family, n, false), count));
                }
            }
            for j in 0..INLINE_PER_FAMILY {
                let kind = inline_kinds[(INLINE_PER_FAMILY * b + j + f) % inline_kinds.len()];
                fresh.push((kind, family, self.inline_n, true));
            }
        }
        fresh
    }

    /// The seeded schedule.
    pub fn schedule(&self, seed: u64) -> Vec<Spec> {
        let mut rng = SplitMix(seed);
        let mut out: Vec<Spec> = Vec::with_capacity(self.requests + self.block_len());
        for b in 0.. {
            if out.len() >= self.requests {
                break;
            }
            let mut fresh = self.block(b);
            for i in (1..fresh.len()).rev() {
                fresh.swap(i, rng.below(i + 1));
            }
            let mut pool = Vec::new();
            for (kind, family, n, inline) in fresh {
                pool.push(out.len());
                out.push(Spec {
                    kind,
                    family,
                    n,
                    seed: rng.next() >> 32,
                    inline,
                    first: None,
                });
                let first = pool.swap_remove(rng.below(pool.len()));
                out.push(Spec {
                    first: Some(first),
                    ..out[first].clone()
                });
            }
        }
        out.truncate(self.requests);
        out
    }
}

/// The request a spec describes, with correlation id `id`.
pub fn request(spec: &Spec, id: u64) -> Result<Request, String> {
    let (plan, input) = if spec.inline {
        let (_, plan, input) =
            ir_family_plan(spec.family, spec.n, spec.seed).map_err(|e| e.to_string())?;
        (PlanSource::Inline(plan), Some(input))
    } else {
        let family = PlanSource::Family {
            name: spec.family.to_string(),
            n: spec.n,
            seed: spec.seed,
        };
        (family, None)
    };
    Ok(Request {
        id,
        tenant: "bench".to_string(),
        kind: spec.kind,
        deadline_ms: None,
        trip_at_phase: None,
        plan,
        input,
    })
}

/// Set-up state: the schedule and a started, warmed server.
#[derive(Debug)]
pub struct State {
    schedule: Vec<Spec>,
    server: Server,
}

/// What the client saw for one request.
#[derive(Debug)]
struct Sample {
    idx: usize,
    start: Instant,
    end: Instant,
    cached: bool,
    verdict: Verdict,
    shed: bool,
    /// The frame and response line, kept for the layer replay.
    wire: Option<(String, String)>,
}

/// A request's checked answer: its hash and, for `run`, its ledger; or
/// what was wrong with it.
type Verdict = Result<(u64, Option<CostLedger>), String>;

/// Checks one response line; returns whether it was served from the cache,
/// whether it was shed, and the verdict.
fn judge(line: &str) -> (bool, bool, Verdict) {
    let resp = match json::parse(line.trim_end()).and_then(|v| Response::from_json(&v)) {
        Ok(r) => r,
        Err(e) => return (false, false, Err(format!("unreadable response: {e}"))),
    };
    let shed = matches!(&resp.result, Err(e) if e.code == ErrorCode::Overloaded);
    let verdict = match resp.result {
        Err(e) => Err(format!("{}: {}", e.code.name(), e.message)),
        Ok(_) if resp.degraded => Err("degraded answer".to_string()),
        Ok(Answer::Compare { matches: false, .. }) => Err("compare: ledgers differ".to_string()),
        Ok(Answer::Symbolic { matches: false, .. }) => Err("symbolic: ledgers differ".to_string()),
        Ok(answer) => {
            let mut h = DefaultHasher::new();
            answer.to_json().render().hash(&mut h);
            let ledger = match answer {
                Answer::Run { ledger, .. } => Some(ledger),
                _ => None,
            };
            Ok((h.finish(), ledger))
        }
    };
    (resp.cached, shed, verdict)
}

/// One client connection's closed loop.
fn client(
    stream: UnixStream,
    schedule: &[Spec],
    next: &AtomicUsize,
    deadline: Instant,
    keep_wire: usize,
) -> Vec<Sample> {
    let mut samples = Vec::new();
    let mut reader = BufReader::new(stream.try_clone().expect("clone a unix stream"));
    let mut writer = stream;
    let mut line = String::new();
    loop {
        let idx = next.fetch_add(1, Ordering::Relaxed);
        if idx >= schedule.len() || Instant::now() >= deadline {
            break;
        }
        let mut frame = match request(&schedule[idx], idx as u64 + 1) {
            Ok(req) => req.to_json().render(),
            Err(e) => {
                let now = Instant::now();
                samples.push(Sample {
                    idx,
                    start: now,
                    end: now,
                    cached: false,
                    verdict: Err(e),
                    shed: false,
                    wire: None,
                });
                continue;
            }
        };
        frame.push('\n');
        line.clear();
        let start = Instant::now();
        let io = writer
            .write_all(frame.as_bytes())
            .and_then(|()| reader.read_line(&mut line));
        let end = Instant::now();
        let (cached, shed, verdict) = match io {
            Ok(0) => (false, false, Err("connection closed".to_string())),
            Ok(_) => judge(&line),
            Err(e) => (false, false, Err(format!("i/o: {e}"))),
        };
        let wire = (idx < keep_wire).then(|| (frame, line.clone()));
        samples.push(Sample {
            idx,
            start,
            end,
            cached,
            verdict,
            shed,
            wire,
        });
    }
    let _ = writer.shutdown(Shutdown::Write);
    samples
}

impl Workload for Serve {
    type State = State;

    /// Makes the schedule, starts the server and warms it with one request
    /// of each kind for each family at each size but the largest, on an
    /// input seed the schedule never uses (its seeds are below 2^32).
    fn setup(&self, seed: u64, _tracer: &mut Tracer) -> State {
        let schedule = self.schedule(seed);
        let server = Server::start(ServerConfig {
            workers: self.workers,
            ..ServerConfig::default()
        });
        for n in &self.sizes[..self.sizes.len() - 1] {
            for family in IR_FAMILIES {
                for (kind, _) in MIX {
                    let warm = Spec {
                        kind,
                        family,
                        n: *n,
                        seed: u64::MAX,
                        inline: false,
                        first: None,
                    };
                    let req = request(&warm, 0).expect("a registered family");
                    let _ = server.submit(req);
                }
            }
        }
        State { schedule, server }
    }

    fn measure(&self, state: &mut State, budget: Duration, tracer: &mut Tracer) -> Measurement {
        let keep_wire = if tracer.is_on() { self.block_len() } else { 0 };
        let next = AtomicUsize::new(0);
        let start = Instant::now();
        let deadline = start + budget;
        let server = &state.server;
        let schedule = &state.schedule;
        let mut samples: Vec<Sample> = std::thread::scope(|s| {
            let clients: Vec<_> = (0..self.connections)
                .map(|_| {
                    let (near, far) = UnixStream::pair().expect("create a unix stream pair");
                    let reader = BufReader::new(far.try_clone().expect("clone a unix stream"));
                    s.spawn(move || server.serve_connection(reader, far));
                    let next = &next;
                    s.spawn(move || client(near, schedule, next, deadline, keep_wire))
                })
                .collect();
            clients
                .into_iter()
                .flat_map(|c| c.join().expect("client thread panicked"))
                .collect()
        });
        samples.sort_by_key(|s| s.idx);

        let mut m = Measurement {
            attempted: samples.len() as u64,
            ops_per_s: throughput(&samples, start),
            latency_ms: samples.iter().map(latency_ms).collect(),
            ..Measurement::default()
        };
        check(&mut m, &samples, schedule);
        if tracer.is_on() {
            for s in &samples {
                tracer.record("serve.request", s.idx as u64 + 1, s.start, s.end);
            }
            m.layers = layer_metrics(tracer, &samples, schedule, server);
        }
        m
    }
}

/// Completed requests per second of wall time, from the start of the
/// stretch to the last response.
fn throughput(samples: &[Sample], start: Instant) -> f64 {
    match samples.iter().map(|s| s.end).max() {
        Some(last) => samples.len() as f64 / (last - start).as_secs_f64(),
        None => 0.0,
    }
}

fn latency_ms(s: &Sample) -> f64 {
    (s.end - s.start).as_secs_f64() * 1e3
}

/// Fails every request with a bad verdict, every repeat whose answer
/// differs from its first answer, and every fresh `run` whose ledger
/// differs from the static prediction.
fn check(m: &mut Measurement, samples: &[Sample], schedule: &[Spec]) {
    let by_idx = |i: usize| {
        samples
            .binary_search_by_key(&i, |s| s.idx)
            .ok()
            .map(|k| &samples[k])
    };
    for s in samples {
        let spec = &schedule[s.idx];
        let what = format!(
            "request {} ({} {} n={})",
            s.idx + 1,
            spec.kind.name(),
            spec.family,
            spec.n
        );
        match (&s.verdict, spec.first) {
            (Err(e), _) => m.fail(format!("{what}: {e}")),
            (Ok((hash, _)), Some(first)) => {
                if let Some(Ok((first_hash, _))) = by_idx(first).map(|f| &f.verdict) {
                    if first_hash != hash {
                        m.fail(format!("{what}: answer differs from request {}", first + 1));
                    }
                }
            }
            (Ok((_, Some(ledger))), None) => {
                let predicted = request(spec, 0).and_then(|req| {
                    let plan = match req.plan {
                        PlanSource::Inline(plan) => plan,
                        PlanSource::Family { name, n, seed } => {
                            ir_family_plan(&name, n, seed).map_err(|e| e.to_string())?.1
                        }
                    };
                    predict_ledger(&plan).map_err(|e| e.to_string())
                });
                if predicted.as_ref() != Ok(ledger) {
                    m.fail(format!(
                        "{what}: run ledger differs from the static prediction"
                    ));
                }
            }
            (Ok(_), None) => {}
        }
    }
}

/// Per-layer metrics of a traced stretch: latency split by cache outcome
/// and kind, the wire codec and the per-request resolve/predict/cache-key
/// work timed again on the first block's frames, and the oracle counters.
fn layer_metrics(
    tracer: &mut Tracer,
    samples: &[Sample],
    schedule: &[Spec],
    server: &Server,
) -> Vec<Metric> {
    let lat = |keep: &dyn Fn(&Sample) -> bool| -> Vec<f64> {
        samples.iter().filter(|s| keep(s)).map(latency_ms).collect()
    };
    let hits = lat(&|s| s.cached);
    let misses = lat(&|s| !s.cached);
    let mut out = vec![
        Metric::new("serve.hit_p50_ms", stats::quantile(&hits, 0.5), "ms"),
        Metric::new("serve.hit_p99_ms", stats::quantile(&hits, 0.99), "ms"),
        Metric::new("serve.miss_p50_ms", stats::quantile(&misses, 0.5), "ms"),
        Metric::new("serve.miss_p99_ms", stats::quantile(&misses, 0.99), "ms"),
    ];
    for (kind, _) in MIX {
        let of_kind = lat(&|s| schedule[s.idx].kind == kind);
        let name = format!("serve.kind.{}_p50_ms", kind.name());
        out.push(Metric::new(name, stats::quantile(&of_kind, 0.5), "ms"));
        let name = format!("serve.kind.{}_count", kind.name());
        out.push(Metric::new(name, of_kind.len() as f64, "count"));
    }
    // The traffic shares the run actually had, so a claim about one path
    // can name the share of requests it affects.
    let share = |keep: &dyn Fn(&Sample) -> bool| {
        samples.iter().filter(|s| keep(s)).count() as f64 / samples.len().max(1) as f64
    };
    out.extend([
        Metric::new(
            "serve.share.repeat",
            share(&|s| schedule[s.idx].first.is_some()),
            "ratio",
        ),
        Metric::new("serve.share.cached", share(&|s| s.cached), "ratio"),
        Metric::new(
            "serve.share.inline",
            share(&|s| schedule[s.idx].inline),
            "ratio",
        ),
    ]);

    replay_layers(tracer, samples);
    let mean_of = |name: &str, scale: f64| stats::mean(&tracer.durations_ms(name)) * scale;
    out.push(Metric::new(
        "serve.wire.decode_us",
        mean_of("serve.wire.decode", 1e3),
        "us",
    ));
    out.push(Metric::new(
        "serve.wire.encode_us",
        mean_of("serve.wire.encode", 1e3),
        "us",
    ));
    out.push(Metric::new(
        "serve.resolve_ms",
        mean_of("serve.resolve", 1.0),
        "ms",
    ));
    out.push(Metric::new(
        "serve.predict_ms",
        mean_of("serve.predict", 1.0),
        "ms",
    ));
    out.push(Metric::new(
        "serve.cache_key_us",
        mean_of("serve.cache_key", 1e3),
        "us",
    ));

    let oracle = server.oracle();
    let cache = oracle.cache_stats();
    let shed = samples.iter().filter(|s| s.shed).count();
    out.extend([
        Metric::new("serve.cache.hit_ratio", cache.hit_rate(), "ratio"),
        Metric::new("serve.cache.evictions", cache.evictions as f64, "count"),
        Metric::new(
            "serve.analyses",
            oracle.analyses_performed() as f64,
            "count",
        ),
        Metric::new(
            "serve.compiled_plans",
            oracle.compiled_plans_cached() as f64,
            "count",
        ),
        Metric::new("serve.degraded", oracle.degraded_served() as f64, "count"),
        Metric::new("serve.shed", shed as f64, "count"),
    ]);
    out
}

/// Times, on the kept frames, the work the server repeats for every
/// request, hit or miss: decoding the frame, resolving the family plan,
/// predicting its ledger, computing the cache key, and encoding the
/// response. Each becomes a span of the request's operation id.
fn replay_layers(tracer: &mut Tracer, samples: &[Sample]) {
    for s in samples {
        let Some((frame, line)) = &s.wire else {
            continue;
        };
        let op = s.idx as u64 + 1;
        let t0 = Instant::now();
        let req = json::parse(frame.trim_end()).and_then(|v| Request::from_json(&v));
        tracer.record("serve.wire.decode", op, t0, Instant::now());
        let Ok(req) = req else { continue };
        let resolved = match &req.plan {
            PlanSource::Inline(plan) => Ok((plan.clone(), req.input.clone().unwrap_or_default())),
            PlanSource::Family { name, n, seed } => {
                let t0 = Instant::now();
                let built = ir_family_plan(name, *n, *seed);
                tracer.record("serve.resolve", op, t0, Instant::now());
                built.map(|(_, plan, input)| (plan, input))
            }
        };
        if let Ok((plan, input)) = resolved {
            let t0 = Instant::now();
            let _ = std::hint::black_box(predict_ledger(&plan));
            tracer.record("serve.predict", op, t0, Instant::now());
            let t0 = Instant::now();
            std::hint::black_box(req.cache_key(&plan, &input));
            tracer.record("serve.cache_key", op, t0, Instant::now());
        }
        if let Ok(resp) = json::parse(line.trim_end()).and_then(|v| Response::from_json(&v)) {
            let t0 = Instant::now();
            std::hint::black_box(resp.to_json().render());
            tracer.record("serve.wire.encode", op, t0, Instant::now());
        }
    }
}
