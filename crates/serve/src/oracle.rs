//! The cost oracle: resolves, analyzes and executes one request.
//!
//! The oracle is the pure request→response core the server's worker pool
//! calls. It owns the single-flight cache and the tenant budgets, and
//! implements the degradation state machine:
//!
//! ```text
//! resolve plan ──bad──▶ bad_request
//!   │ok
//! predict ledger (static, fresh token)
//!   │
//! measured kind? ──yes──▶ charge tenant budget ──over──▶ budget_exhausted
//!   │no                       │ok
//! cache lookup (single-flight)│
//!   │lead                     │
//! compute under deadline token│execute under deadline token
//!   │                         ├─ ok ───────▶ answer (cached for next time)
//!   │                         └─ deadline ─▶ static ledger, degraded: true
//! ```
//!
//! Errors are never cached; degraded answers are never cached (a later,
//! less-loaded request should get the chance to produce the full answer).

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use parbounds_analyze::{certify_writes, ir_family_plan, lint_plan, predict_ledger_with};
use parbounds_ir::{
    compile_plan, execute_compiled_cancellable, execute_plan_cancellable, CompileOutcome,
    CompiledPlan, PhasePlan,
};
use parbounds_models::{CancelToken, ModelError, Word};

use crate::budget::TenantBudgets;
use crate::cache::{CacheSnapshot, Lease, OracleCache};
use crate::json::Fnv1a;
use crate::wire::{
    Answer, ErrorCode, PlanSource, QueryKind, Request, Response, WireDiag, WireError,
};

/// Bounded FIFO cache of compiled plans, keyed by the plan's content
/// address alone (no input, kind, or tenant): the answer cache dedups
/// identical questions, but the *schedule* is reusable across different
/// inputs and across `run`/`compare` kinds, so the one-shot `ir::compile`
/// lowering is paid once per distinct plan. Ineligible plans are cached
/// as `None` so the eligibility scan is not repeated per request either.
#[derive(Debug)]
struct CompiledCache {
    cap: usize,
    inner: Mutex<CompiledCacheInner>,
}

#[derive(Debug, Default)]
struct CompiledCacheInner {
    map: HashMap<u64, Option<Arc<CompiledPlan>>>,
    fifo: VecDeque<u64>,
}

impl CompiledCache {
    fn new(cap: usize) -> Self {
        CompiledCache {
            cap: cap.max(1),
            inner: Mutex::new(CompiledCacheInner::default()),
        }
    }

    /// Number of distinct plans currently cached (compiled or ineligible).
    fn len(&self) -> usize {
        self.inner
            .lock()
            .expect("compiled cache lock poisoned")
            .map
            .len()
    }

    /// Returns the cached compilation of `plan`, compiling on miss.
    /// `None` means the plan is compile-ineligible and callers should use
    /// the checked interpreter.
    fn get_or_compile(&self, plan: &PhasePlan) -> Result<Option<Arc<CompiledPlan>>, ModelError> {
        let key = Fnv1a::hash_of(plan);
        if let Some(hit) = self
            .inner
            .lock()
            .expect("compiled cache lock poisoned")
            .map
            .get(&key)
        {
            return Ok(hit.clone());
        }
        // Compile outside the lock: lowering is pure and idempotent, so a
        // racing duplicate costs one redundant compile, never a stall.
        let compiled = match compile_plan(plan)? {
            CompileOutcome::Compiled(cp) => Some(Arc::new(cp)),
            CompileOutcome::Ineligible(_) => None,
        };
        let mut st = self.inner.lock().expect("compiled cache lock poisoned");
        // A racing duplicate may have landed the entry first; keep theirs
        // so the cached Arc identity is stable.
        if let Some(hit) = st.map.get(&key) {
            return Ok(hit.clone());
        }
        if st.fifo.len() >= self.cap {
            if let Some(old) = st.fifo.pop_front() {
                st.map.remove(&old);
            }
        }
        st.fifo.push_back(key);
        st.map.insert(key, compiled.clone());
        Ok(compiled)
    }
}

/// Oracle tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct OracleConfig {
    /// Ready answers the content-addressed cache retains.
    pub cache_cap: usize,
    /// Deadline applied when a request names none.
    pub default_deadline: Duration,
    /// Predicted-model-time budget per tenant.
    pub tenant_budget: u64,
}

impl Default for OracleConfig {
    fn default() -> Self {
        OracleConfig {
            cache_cap: 1024,
            default_deadline: Duration::from_millis(2_000),
            tenant_budget: u64::MAX,
        }
    }
}

/// The request→response core shared by every worker.
#[derive(Debug)]
pub struct Oracle {
    cache: OracleCache,
    compiled: CompiledCache,
    budgets: TenantBudgets,
    cfg: OracleConfig,
    analyses: AtomicU64,
    degraded: AtomicU64,
}

impl Oracle {
    /// Builds an oracle from its config.
    pub fn new(cfg: OracleConfig) -> Self {
        Oracle {
            cache: OracleCache::new(cfg.cache_cap),
            compiled: CompiledCache::new(cfg.cache_cap),
            budgets: TenantBudgets::new(cfg.tenant_budget),
            cfg,
            analyses: AtomicU64::new(0),
            degraded: AtomicU64::new(0),
        }
    }

    /// Number of distinct plans whose compilation (or ineligibility) is
    /// currently cached.
    pub fn compiled_plans_cached(&self) -> usize {
        self.compiled.len()
    }

    /// Executes `plan` on `input` through the per-plan compiled cache:
    /// eligible plans replay their straight-line schedule (lowered once
    /// per distinct plan, reused across inputs and query kinds),
    /// ineligible ones take the checked interpreter. Both paths are
    /// bit-identical, so answers and the answer cache are unaffected.
    fn execute_cached(
        &self,
        plan: &PhasePlan,
        input: &[Word],
        token: &CancelToken,
    ) -> Result<parbounds_ir::PlanRun, ModelError> {
        match self.compiled.get_or_compile(plan)? {
            Some(cp) => execute_compiled_cancellable(plan, &cp, input, token),
            None => execute_plan_cancellable(plan, input, token),
        }
    }

    /// Number of answers actually computed (cache leaders), the
    /// observable the single-flight tests assert on.
    pub fn analyses_performed(&self) -> u64 {
        self.analyses.load(Ordering::Relaxed)
    }

    /// Number of degraded (static-fallback) answers served.
    pub fn degraded_served(&self) -> u64 {
        self.degraded.load(Ordering::Relaxed)
    }

    /// Cache counters.
    pub fn cache_stats(&self) -> CacheSnapshot {
        self.cache.stats()
    }

    /// Predicted cost charged to `tenant` so far.
    pub fn tenant_spent(&self, tenant: &str) -> u64 {
        self.budgets.spent(tenant)
    }

    /// True when the content address `key` currently has a cached answer
    /// (used by the cancellation tests to prove cancelled runs leave no
    /// partial state behind).
    pub fn cache_contains(&self, key: u64) -> bool {
        self.cache.contains(key)
    }

    /// Handles one request end to end. Never panics on malformed input —
    /// every failure mode maps to a typed error or a degraded answer.
    pub fn handle(&self, req: &Request) -> Response {
        match self.try_handle(req) {
            Ok(resp) => resp,
            Err(err) => Response {
                id: req.id,
                result: Err(wire_error(&err)),
                cached: false,
                degraded: false,
            },
        }
    }

    fn try_handle(&self, req: &Request) -> Result<Response, ModelError> {
        // 1. Resolve the plan and input.
        let (plan, input) = self.resolve(req)?;
        plan.validate()?;

        // 2. The static prediction, under a fresh token: it doubles as the
        //    budget gatekeeper and the degraded answer, so it must not be
        //    poisoned by an already-tripped request deadline. It is cheap
        //    (no execution), but a hostile million-phase plan is still
        //    bounded by the server default deadline.
        let predicted = predict_ledger_with(
            &plan,
            &CancelToken::with_deadline(self.cfg.default_deadline),
        )?;

        // 3. Measured kinds charge the tenant the predicted model time up
        //    front; refusal is the models' own CostBudgetExceeded.
        if req.kind.is_measured() {
            self.budgets
                .try_charge(&req.tenant, predicted.total_time())?;
        }

        // 4. Single-flight cache.
        let key = req.cache_key(&plan, &input);
        match self.cache.get_or_begin(key) {
            Lease::Hit(answer) => Ok(Response {
                id: req.id,
                result: Ok((*answer).clone()),
                cached: true,
                degraded: false,
            }),
            Lease::Lead => {
                let token = self.request_token(req);
                self.analyses.fetch_add(1, Ordering::Relaxed);
                match self.compute(req, &plan, &input, &predicted, &token) {
                    Ok(answer) => {
                        let answer = Arc::new(answer);
                        self.cache.fulfill(key, Arc::clone(&answer));
                        Ok(Response {
                            id: req.id,
                            result: Ok((*answer).clone()),
                            cached: false,
                            degraded: false,
                        })
                    }
                    Err(ModelError::DeadlineExceeded { .. }) if req.kind.is_measured() => {
                        // Graceful degradation: the measured run blew its
                        // deadline, but the static ledger is already in
                        // hand. Not cached — the next request should get a
                        // chance at the full answer.
                        self.cache.abandon(key);
                        self.degraded.fetch_add(1, Ordering::Relaxed);
                        Ok(Response {
                            id: req.id,
                            result: Ok(Answer::Ledger { ledger: predicted }),
                            cached: false,
                            degraded: true,
                        })
                    }
                    Err(err) => {
                        self.cache.abandon(key);
                        Err(err)
                    }
                }
            }
        }
    }

    /// Builds the cancellation token governing the measured/analyzed part
    /// of a request: a deterministic phase trip when the request asks for
    /// one (tests, chaos), otherwise the wall-clock deadline.
    fn request_token(&self, req: &Request) -> CancelToken {
        if let Some(phase) = req.trip_at_phase {
            CancelToken::tripping_at_phase(phase)
        } else {
            let ms = req.deadline_ms.map(Duration::from_millis);
            CancelToken::with_deadline(ms.unwrap_or(self.cfg.default_deadline))
        }
    }

    fn resolve(&self, req: &Request) -> Result<(PhasePlan, Vec<Word>), ModelError> {
        match &req.plan {
            PlanSource::Inline(plan) => {
                let input = req
                    .input
                    .clone()
                    .unwrap_or_else(|| vec![0; plan.input_cells]);
                Ok((plan.clone(), input))
            }
            PlanSource::Family { name, n, seed } => {
                let (_, plan, canonical) = ir_family_plan(name, *n, *seed)?;
                Ok((plan, req.input.clone().unwrap_or(canonical)))
            }
        }
    }

    fn compute(
        &self,
        req: &Request,
        plan: &PhasePlan,
        input: &[Word],
        predicted: &parbounds_models::CostLedger,
        token: &CancelToken,
    ) -> Result<Answer, ModelError> {
        match req.kind {
            QueryKind::Static => Ok(Answer::Ledger {
                // Re-fold under the request token so an explicit phase
                // trip or tight deadline is honoured deterministically.
                ledger: predict_ledger_with(plan, token)?,
            }),
            QueryKind::Lint => Ok(Answer::Lint {
                diagnostics: lint_plan(plan)?
                    .into_iter()
                    .map(|d| WireDiag {
                        severity: format!("{:?}", d.severity).to_lowercase(),
                        rule: format!("{:?}", d.rule),
                        message: d.message,
                    })
                    .collect(),
            }),
            QueryKind::Certify => {
                let cert = certify_writes(plan)?;
                let witnesses = match &cert {
                    parbounds_analyze::WriteCertificate::Racy { witnesses } => witnesses.len(),
                    parbounds_analyze::WriteCertificate::RaceFree { .. } => 0,
                };
                Ok(Answer::Certificate {
                    race_free: cert.is_race_free(),
                    phases: plan.num_phases(),
                    witnesses,
                })
            }
            QueryKind::Run => {
                let run = self.execute_cached(plan, input, token)?;
                Ok(Answer::Run {
                    ledger: run.ledger,
                    output: run.output,
                })
            }
            QueryKind::Compare => {
                let run = self.execute_cached(plan, input, token)?;
                let matches = *predicted == run.ledger;
                Ok(Answer::Compare {
                    predicted: predicted.clone(),
                    measured: run.ledger,
                    matches,
                    output: run.output,
                })
            }
            QueryKind::Symbolic => {
                // Per-family derivation: only family plans name one. The
                // suite point mirrors what `resolve` instantiated, so the
                // evaluated symbolic ledger must equal `predicted` cell
                // for cell.
                let PlanSource::Family { name, n, .. } = &req.plan else {
                    return Err(ModelError::BadConfig(
                        "symbolic queries require a family plan source (the \
                         Θ-derivation is per family, not per inline schedule)"
                            .into(),
                    ));
                };
                let conf = parbounds_analyze::check_family(name)?;
                let pt = parbounds_analyze::symbolic::suite_point(name, *n);
                let ledger = parbounds_analyze::predict_ledger_symbolic(name)?;
                let evaluated = ledger
                    .eval_ledger(pt)
                    .map_err(|e| ModelError::BadConfig(format!("symbolic eval of {name}: {e}")))?;
                Ok(Answer::Symbolic {
                    family: conf.family.to_string(),
                    derived: conf.derived.to_string(),
                    fixture: conf.fixture.to_string(),
                    equivalent: conf.equivalent,
                    regression: conf.regression,
                    matches: evaluated == *predicted,
                    total: evaluated.total_time(),
                })
            }
            QueryKind::Audit => {
                // The adversary audit is per family and input-independent,
                // like the symbolic derivation; the resolved plan/input are
                // unused beyond admission costing.
                let PlanSource::Family { name, n, .. } = &req.plan else {
                    return Err(ModelError::BadConfig(
                        "audit queries require a family plan source (the \
                         lower-bound audit is per family, not per inline schedule)"
                            .into(),
                    ));
                };
                let o = parbounds_adversary::audit_family(name, *n)?;
                Ok(Answer::Audit {
                    family: o.family.to_string(),
                    size: o.size,
                    fan: o.fan,
                    steps: o.steps_checked,
                    clamped: o.budget_clamped,
                    all_good: o.all_good,
                    lower: o.lower_theta.to_string(),
                    upper: o.upper_theta.to_string(),
                    verdict: o.verdict.name().to_string(),
                })
            }
        }
    }
}

/// Maps a [`ModelError`] to its typed wire error.
pub fn wire_error(err: &ModelError) -> WireError {
    let code = match err {
        ModelError::BadConfig(_) => ErrorCode::BadRequest,
        ModelError::CostBudgetExceeded { .. } => ErrorCode::BudgetExhausted,
        ModelError::DeadlineExceeded { .. } => ErrorCode::DeadlineExceeded,
        ModelError::Io(_) => ErrorCode::Io,
        _ => ErrorCode::ModelRule,
    };
    WireError {
        code,
        message: err.to_string(),
        retry_after_ms: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parbounds_ir::{dart_round, execute_plan, prefix_sweep, CombineOp, ModelKind, ValueRule};

    fn sweep_plan(n: usize) -> PhasePlan {
        prefix_sweep(n, 4, CombineOp::Sum, ModelKind::Qsm { g: 2 })
    }

    #[test]
    fn compiled_cache_reuses_one_lowering_per_plan() {
        let oracle = Oracle::new(OracleConfig::default());
        let token = CancelToken::with_deadline(Duration::from_secs(10));
        let plan = sweep_plan(64);
        for seed in 0..3 {
            let input: Vec<Word> = (0..64).map(|x: Word| x ^ seed).collect();
            let got = oracle.execute_cached(&plan, &input, &token).unwrap();
            assert_eq!(got, execute_plan(&plan, &input).unwrap());
        }
        assert_eq!(
            oracle.compiled_plans_cached(),
            1,
            "three runs of one plan must share one compilation"
        );
    }

    #[test]
    fn compiled_cache_caches_ineligibility_and_falls_back() {
        let oracle = Oracle::new(OracleConfig::default());
        let token = CancelToken::with_deadline(Duration::from_secs(10));
        let targets: Vec<(usize, ValueRule)> = (0..4)
            .map(|pid| (0usize, ValueRule::Const(pid as Word + 1)))
            .collect();
        let racy = dart_round(&targets, ModelKind::Qsm { g: 8 });
        let input: Vec<Word> = Vec::new();
        let got = oracle.execute_cached(&racy, &input, &token).unwrap();
        assert_eq!(got, execute_plan(&racy, &input).unwrap());
        // The racy plan is compile-ineligible; its verdict is cached so the
        // eligibility scan runs once, and repeats stay on the interpreter.
        assert_eq!(oracle.compiled_plans_cached(), 1);
        oracle.execute_cached(&racy, &input, &token).unwrap();
        assert_eq!(oracle.compiled_plans_cached(), 1);
    }

    #[test]
    fn inline_copy_of_a_family_request_is_served_from_the_cache() {
        let oracle = Oracle::new(OracleConfig::default());
        let family = Request {
            id: 1,
            tenant: "a".to_string(),
            kind: QueryKind::Run,
            deadline_ms: None,
            trip_at_phase: None,
            plan: PlanSource::Family {
                name: "broadcast".to_string(),
                n: 64,
                seed: 3,
            },
            input: None,
        };
        let first = oracle.handle(&family);
        assert!(first.result.is_ok() && !first.cached);

        let (_, plan, input) = ir_family_plan("broadcast", 64, 3).unwrap();
        let inline = Request {
            id: 2,
            tenant: "b".to_string(),
            plan: PlanSource::Inline(plan),
            input: Some(input),
            ..family
        };
        let second = oracle.handle(&inline);
        assert!(second.cached, "the inline copy asks the family's question");
        assert_eq!(second.result, first.result);
        assert_eq!(oracle.analyses_performed(), 1);
    }

    /// Inline plans whose requests reach far past the address limit get
    /// their typed answers within a second: a one-entry scatter into cell
    /// 2^50 is a model-rule error, and a compile-ineligible plan (two
    /// writers racing on cell 0) that also reads cell `usize::MAX` runs.
    #[test]
    fn far_address_plans_get_typed_answers_promptly() {
        use crate::wire::ErrorCode;
        use parbounds_ir::{scatter_gather, PlanBody, ProcPhase};
        use std::time::Instant;

        let model = ModelKind::Qsm { g: 2 };
        let far_write = scatter_gather(&[0], &[1 << 50], model);
        let mut far_read = dart_round(&[(0, ValueRule::Const(1)), (0, ValueRule::Const(2))], model);
        far_read.procs = 3;
        let PlanBody::Shared(phases) = &mut far_read.body else {
            unreachable!("dart rounds are shared-memory plans")
        };
        phases[0].procs.push(ProcPhase::idle(2).read(usize::MAX));
        phases[0].finish.push(2);

        let oracle = Oracle::new(OracleConfig::default());
        for (plan, runs) in [(far_write, false), (far_read, true)] {
            let req = Request {
                id: 1,
                tenant: "hostile".to_string(),
                kind: QueryKind::Run,
                deadline_ms: None,
                trip_at_phase: None,
                plan: PlanSource::Inline(plan),
                input: None,
            };
            let begun = Instant::now();
            let resp = oracle.handle(&req);
            assert!(begun.elapsed() < Duration::from_secs(1), "{resp:?}");
            match resp.result {
                Ok(Answer::Run { .. }) if runs => {}
                Err(e) if !runs && e.code == ErrorCode::ModelRule => {}
                other => panic!("unexpected answer: {other:?}"),
            }
        }
    }

    #[test]
    fn compiled_cache_is_bounded_fifo() {
        let cache = CompiledCache::new(2);
        for n in [8usize, 16, 32, 64] {
            cache.get_or_compile(&sweep_plan(n)).unwrap();
            assert!(cache.len() <= 2);
        }
        // Oldest entries were evicted; the newest survives.
        let key = Fnv1a::hash_of(&sweep_plan(64));
        assert!(cache
            .inner
            .lock()
            .expect("compiled cache lock poisoned")
            .map
            .contains_key(&key));
    }
}
