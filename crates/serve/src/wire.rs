//! The line-delimited JSON wire protocol: typed requests, typed
//! responses, and a complete [`PhasePlan`] codec.
//!
//! One request or response per line. A request names a tenant, a query
//! kind, a deadline, and a plan — either inline (the full PhasePlan
//! encoding) or by §8 family name. Responses carry either a typed answer
//! or a typed error; `cached` and `degraded` flags tell the client how
//! the answer was produced.

use parbounds_ir::{
    CombineOp, CompStep, Guard, InitRule, ModelKind, MsgStep, OutputDecl, PhasePlan, PlanBody,
    ProcPhase, SendSpec, SharedPhase, Update, ValueRule, WriteSpec,
};
use parbounds_models::{CostLedger, PhaseCost, Word};

use crate::json::{Fnv1a, Json};

/// What the client wants the oracle to do with the plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QueryKind {
    /// Fold the plan through the model's cost formula without executing.
    Static,
    /// Run the static lint table.
    Lint,
    /// Certify race-freedom by static write-set disjointness.
    Certify,
    /// Execute the plan on the cost-exact simulator.
    Run,
    /// Predict, execute, and report whether the ledgers agree.
    Compare,
    /// Derive the family's Θ-normal-form symbolic ledger, compare it
    /// against its Table 1 row, and anchor the algebra by evaluating at
    /// the suite point. Family plans only (the derivation is per family,
    /// not per inline schedule); input-independent, so permanently
    /// cacheable.
    Symbolic,
    /// Run the family's adversary lower-bound audit: walk the
    /// budget-respecting refinement trajectory with the memoized
    /// `Know`/`AffProc`/`AffCell` analysis, check every step t-good, and
    /// pair the Know-completion lower bound with the Table 1 upper
    /// fixture. Family plans only; input-independent and deterministic,
    /// so permanently cacheable.
    Audit,
}

impl QueryKind {
    /// Wire name of the kind.
    pub fn name(self) -> &'static str {
        match self {
            QueryKind::Static => "static",
            QueryKind::Lint => "lint",
            QueryKind::Certify => "certify",
            QueryKind::Run => "run",
            QueryKind::Compare => "compare",
            QueryKind::Symbolic => "symbolic",
            QueryKind::Audit => "audit",
        }
    }

    fn from_name(name: &str) -> Option<Self> {
        Some(match name {
            "static" => QueryKind::Static,
            "lint" => QueryKind::Lint,
            "certify" => QueryKind::Certify,
            "run" => QueryKind::Run,
            "compare" => QueryKind::Compare,
            "symbolic" => QueryKind::Symbolic,
            "audit" => QueryKind::Audit,
            _ => return None,
        })
    }

    /// True for the kinds that execute the plan on a simulator (and are
    /// therefore subject to tenant budgets and degradation).
    pub fn is_measured(self) -> bool {
        matches!(self, QueryKind::Run | QueryKind::Compare)
    }
}

/// Where the plan comes from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanSource {
    /// A full inline plan.
    Inline(PhasePlan),
    /// A named §8 family built server-side at size `n` with seed `seed`.
    Family {
        /// Family name (see `parbounds analyze --list`).
        name: String,
        /// Problem size (floored to 8 server-side).
        n: usize,
        /// Input seed.
        seed: u64,
    },
}

/// One client request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Client-chosen correlation id, echoed verbatim in the response.
    pub id: u64,
    /// Tenant name for budget accounting.
    pub tenant: String,
    /// What to compute.
    pub kind: QueryKind,
    /// Per-request deadline in milliseconds; `None` uses the server
    /// default.
    pub deadline_ms: Option<u64>,
    /// Deterministic cancellation for tests and chaos injection: trip the
    /// run's [`CancelToken`](parbounds_models::CancelToken) at this phase
    /// boundary instead of arming a wall-clock deadline.
    pub trip_at_phase: Option<usize>,
    /// The plan.
    pub plan: PlanSource,
    /// Input words; defaults to the family's canonical input (family
    /// plans) or all-zeros (inline plans).
    pub input: Option<Vec<Word>>,
}

/// One lint finding on the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireDiag {
    /// "warning" or "error".
    pub severity: String,
    /// Rule name (the `Rule` variant, rendered).
    pub rule: String,
    /// Human-readable message.
    pub message: String,
}

/// A successful oracle answer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Answer {
    /// A static cost ledger. Also the shape of every degraded answer: when
    /// a measured run exceeds its deadline the service falls back to this.
    Ledger {
        /// The predicted ledger.
        ledger: CostLedger,
    },
    /// Static lint findings.
    Lint {
        /// The findings, in rule-table order.
        diagnostics: Vec<WireDiag>,
    },
    /// A race-freedom certificate (or its refusal).
    Certificate {
        /// Whether the plan was certified race-free.
        race_free: bool,
        /// Phases certified.
        phases: usize,
        /// Number of `(phase, cell)` witnesses when refused.
        witnesses: usize,
    },
    /// A measured execution.
    Run {
        /// The measured ledger.
        ledger: CostLedger,
        /// The plan's declared output.
        output: Vec<Word>,
    },
    /// Prediction next to measurement.
    Compare {
        /// Ledger derived without executing.
        predicted: CostLedger,
        /// Ledger the simulator measured.
        measured: CostLedger,
        /// Whether they agree cell for cell.
        matches: bool,
        /// The plan's declared output.
        output: Vec<Word>,
    },
    /// The family's symbolic ledger in Θ-normal form, checked against its
    /// Table 1 row and anchored at the suite point.
    Symbolic {
        /// Family name the derivation covers.
        family: String,
        /// Θ-normal form derived from the symbolic ledger.
        derived: String,
        /// The family's Table 1 row in Θ-normal form.
        fixture: String,
        /// Derived ≡Θ fixture.
        equivalent: bool,
        /// Derived strictly dominates the fixture (bound regression).
        regression: bool,
        /// Symbolic total evaluated at the request's suite point equals
        /// the numeric prediction cell for cell.
        matches: bool,
        /// The evaluated symbolic total at that point.
        total: u64,
    },
    /// The family's adversary lower-bound audit: trajectory facts plus
    /// the Θ-normal-form lower bound paired with its Table 1 upper.
    Audit {
        /// Family name the audit covers.
        family: String,
        /// Audited size (`n` on shared models, `p` on the BSP).
        size: u64,
        /// Tree fan-in used.
        fan: u64,
        /// Refinement steps whose t-goodness was checked.
        steps: usize,
        /// Steps clamped by the `r_t` fixing budget.
        clamped: usize,
        /// Every checked step satisfied the §5.2 conditions.
        all_good: bool,
        /// Audited lower bound in Θ-normal form.
        lower: String,
        /// Table 1 upper bound in Θ-normal form.
        upper: String,
        /// Pairing verdict (`tight`, `consistent`, `violation`).
        verdict: String,
    },
}

/// Typed error codes a response can carry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// Unparsable frame, unknown family, or an invalid plan.
    BadRequest,
    /// The request's deadline elapsed before an answer was produced (and
    /// no static fallback was available).
    DeadlineExceeded,
    /// The admission queue is full; retry after the hinted delay.
    Overloaded,
    /// The tenant's cost budget cannot cover the request's predicted cost.
    BudgetExhausted,
    /// The plan violates a model rule of Section 2.
    ModelRule,
    /// An I/O failure in the request path.
    Io,
}

impl ErrorCode {
    /// Wire name of the code.
    pub fn name(self) -> &'static str {
        match self {
            ErrorCode::BadRequest => "bad_request",
            ErrorCode::DeadlineExceeded => "deadline_exceeded",
            ErrorCode::Overloaded => "overloaded",
            ErrorCode::BudgetExhausted => "budget_exhausted",
            ErrorCode::ModelRule => "model_rule",
            ErrorCode::Io => "io",
        }
    }
}

/// A typed wire error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    /// The error class.
    pub code: ErrorCode,
    /// Human-readable detail.
    pub message: String,
    /// Backpressure hint, set only for [`ErrorCode::Overloaded`].
    pub retry_after_ms: Option<u64>,
}

/// One response frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// The request's correlation id (0 when the frame was unparsable).
    pub id: u64,
    /// The answer or the typed error.
    pub result: Result<Answer, WireError>,
    /// True when the answer was served from the content-addressed cache.
    pub cached: bool,
    /// True when a measured run exceeded its deadline and the service
    /// fell back to the static-analysis answer.
    pub degraded: bool,
}

impl Response {
    /// An error response with no successful answer.
    pub fn error(id: u64, code: ErrorCode, message: impl Into<String>) -> Self {
        Response {
            id,
            result: Err(WireError {
                code,
                message: message.into(),
                retry_after_ms: None,
            }),
            cached: false,
            degraded: false,
        }
    }

    /// The typed `Overloaded` shed-load response.
    pub fn overloaded(id: u64, retry_after_ms: u64) -> Self {
        Response {
            id,
            result: Err(WireError {
                code: ErrorCode::Overloaded,
                message: "admission queue full".to_string(),
                retry_after_ms: Some(retry_after_ms),
            }),
            cached: false,
            degraded: false,
        }
    }
}

// ---------------------------------------------------------------------------
// Request codec
// ---------------------------------------------------------------------------

impl Request {
    /// Encodes the request as a wire object.
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("id".to_string(), Json::Num(i128::from(self.id))),
            ("tenant".to_string(), Json::Str(self.tenant.clone())),
            ("kind".to_string(), Json::Str(self.kind.name().to_string())),
        ];
        if let Some(ms) = self.deadline_ms {
            fields.push(("deadline_ms".to_string(), Json::Num(i128::from(ms))));
        }
        if let Some(p) = self.trip_at_phase {
            fields.push(("trip_at_phase".to_string(), Json::Num(p as i128)));
        }
        match &self.plan {
            PlanSource::Inline(plan) => fields.push(("plan".to_string(), plan_to_json(plan))),
            PlanSource::Family { name, n, seed } => fields.push((
                "family".to_string(),
                Json::Obj(vec![
                    ("name".to_string(), Json::Str(name.clone())),
                    ("n".to_string(), Json::Num(*n as i128)),
                    ("seed".to_string(), Json::Num(i128::from(*seed))),
                ]),
            )),
        }
        if let Some(input) = &self.input {
            fields.push(("input".to_string(), words_to_json(input)));
        }
        Json::Obj(fields)
    }

    /// Decodes a request from a parsed wire object.
    pub fn from_json(v: &Json) -> Result<Request, String> {
        let id = v.get("id").and_then(Json::as_u64).ok_or("missing 'id'")?;
        let tenant = v
            .get("tenant")
            .and_then(Json::as_str)
            .unwrap_or("anonymous")
            .to_string();
        let kind = v
            .get("kind")
            .and_then(Json::as_str)
            .and_then(QueryKind::from_name)
            .ok_or("missing or unknown 'kind'")?;
        let deadline_ms = match v.get("deadline_ms") {
            None | Some(Json::Null) => None,
            Some(ms) => Some(ms.as_u64().ok_or("'deadline_ms' must be a u64")?),
        };
        let trip_at_phase = match v.get("trip_at_phase") {
            None | Some(Json::Null) => None,
            Some(p) => Some(p.as_usize().ok_or("'trip_at_phase' must be a usize")?),
        };
        let plan = match (v.get("plan"), v.get("family")) {
            (Some(p), None) => PlanSource::Inline(plan_from_json(p)?),
            (None, Some(f)) => PlanSource::Family {
                name: f
                    .get("name")
                    .and_then(Json::as_str)
                    .ok_or("family missing 'name'")?
                    .to_string(),
                n: f.get("n").and_then(Json::as_usize).unwrap_or(64),
                seed: f.get("seed").and_then(Json::as_u64).unwrap_or(0),
            },
            (Some(_), Some(_)) => return Err("give 'plan' or 'family', not both".to_string()),
            (None, None) => return Err("missing 'plan' or 'family'".to_string()),
        };
        let input = match v.get("input") {
            None | Some(Json::Null) => None,
            Some(arr) => Some(words_from_json(arr)?),
        };
        Ok(Request {
            id,
            tenant,
            kind,
            deadline_ms,
            trip_at_phase,
            plan,
            input,
        })
    }

    /// The request's content address: the structural [`Fnv1a`] hash of
    /// `(kind, plan, input)`. A plan's fields are exactly what
    /// [`plan_to_json`] encodes, so an inline plan and the family request
    /// it copies share a key. Tenant, id and deadline are deliberately
    /// excluded — two tenants asking the same question share the answer.
    /// The key is process-local: it is never persisted or sent.
    pub fn cache_key(&self, resolved_plan: &PhasePlan, resolved_input: &[Word]) -> u64 {
        Fnv1a::hash_of(&(self.kind.name(), resolved_plan, resolved_input))
    }
}

// ---------------------------------------------------------------------------
// Response codec
// ---------------------------------------------------------------------------

fn ledger_to_json(ledger: &CostLedger) -> Json {
    Json::Obj(vec![
        (
            "total_time".to_string(),
            Json::Num(i128::from(ledger.total_time())),
        ),
        (
            "phases".to_string(),
            Json::Arr(
                ledger
                    .phases()
                    .iter()
                    .map(|p| {
                        Json::Obj(vec![
                            ("m_op".to_string(), Json::Num(i128::from(p.m_op))),
                            ("m_rw".to_string(), Json::Num(i128::from(p.m_rw))),
                            ("kappa".to_string(), Json::Num(i128::from(p.kappa))),
                            ("cost".to_string(), Json::Num(i128::from(p.cost))),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

fn ledger_from_json(v: &Json) -> Result<CostLedger, String> {
    let mut ledger = CostLedger::new();
    for p in v
        .get("phases")
        .and_then(Json::as_arr)
        .ok_or("ledger missing 'phases'")?
    {
        ledger.push(PhaseCost {
            m_op: p.get("m_op").and_then(Json::as_u64).ok_or("bad m_op")?,
            m_rw: p.get("m_rw").and_then(Json::as_u64).ok_or("bad m_rw")?,
            kappa: p.get("kappa").and_then(Json::as_u64).ok_or("bad kappa")?,
            cost: p.get("cost").and_then(Json::as_u64).ok_or("bad cost")?,
        });
    }
    Ok(ledger)
}

fn words_to_json(words: &[Word]) -> Json {
    Json::Arr(words.iter().map(|&w| Json::Num(i128::from(w))).collect())
}

fn words_from_json(v: &Json) -> Result<Vec<Word>, String> {
    v.as_arr()
        .ok_or("expected an array of words")?
        .iter()
        .map(|w| w.as_i64().ok_or("word out of range".to_string()))
        .collect()
}

impl Answer {
    /// Encodes the answer as a wire object.
    pub fn to_json(&self) -> Json {
        match self {
            Answer::Ledger { ledger } => Json::Obj(vec![
                ("kind".to_string(), Json::Str("ledger".to_string())),
                ("ledger".to_string(), ledger_to_json(ledger)),
            ]),
            Answer::Lint { diagnostics } => Json::Obj(vec![
                ("kind".to_string(), Json::Str("lint".to_string())),
                (
                    "diagnostics".to_string(),
                    Json::Arr(
                        diagnostics
                            .iter()
                            .map(|d| {
                                Json::Obj(vec![
                                    ("severity".to_string(), Json::Str(d.severity.clone())),
                                    ("rule".to_string(), Json::Str(d.rule.clone())),
                                    ("message".to_string(), Json::Str(d.message.clone())),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ]),
            Answer::Certificate {
                race_free,
                phases,
                witnesses,
            } => Json::Obj(vec![
                ("kind".to_string(), Json::Str("certificate".to_string())),
                ("race_free".to_string(), Json::Bool(*race_free)),
                ("phases".to_string(), Json::Num(*phases as i128)),
                ("witnesses".to_string(), Json::Num(*witnesses as i128)),
            ]),
            Answer::Run { ledger, output } => Json::Obj(vec![
                ("kind".to_string(), Json::Str("run".to_string())),
                ("ledger".to_string(), ledger_to_json(ledger)),
                ("output".to_string(), words_to_json(output)),
            ]),
            Answer::Compare {
                predicted,
                measured,
                matches,
                output,
            } => Json::Obj(vec![
                ("kind".to_string(), Json::Str("compare".to_string())),
                ("predicted".to_string(), ledger_to_json(predicted)),
                ("measured".to_string(), ledger_to_json(measured)),
                ("matches".to_string(), Json::Bool(*matches)),
                ("output".to_string(), words_to_json(output)),
            ]),
            Answer::Symbolic {
                family,
                derived,
                fixture,
                equivalent,
                regression,
                matches,
                total,
            } => Json::Obj(vec![
                ("kind".to_string(), Json::Str("symbolic".to_string())),
                ("family".to_string(), Json::Str(family.clone())),
                ("derived".to_string(), Json::Str(derived.clone())),
                ("fixture".to_string(), Json::Str(fixture.clone())),
                ("equivalent".to_string(), Json::Bool(*equivalent)),
                ("regression".to_string(), Json::Bool(*regression)),
                ("matches".to_string(), Json::Bool(*matches)),
                ("total".to_string(), Json::Num(i128::from(*total))),
            ]),
            Answer::Audit {
                family,
                size,
                fan,
                steps,
                clamped,
                all_good,
                lower,
                upper,
                verdict,
            } => Json::Obj(vec![
                ("kind".to_string(), Json::Str("audit".to_string())),
                ("family".to_string(), Json::Str(family.clone())),
                ("size".to_string(), Json::Num(i128::from(*size))),
                ("fan".to_string(), Json::Num(i128::from(*fan))),
                ("steps".to_string(), Json::Num(*steps as i128)),
                ("clamped".to_string(), Json::Num(*clamped as i128)),
                ("all_good".to_string(), Json::Bool(*all_good)),
                ("lower".to_string(), Json::Str(lower.clone())),
                ("upper".to_string(), Json::Str(upper.clone())),
                ("verdict".to_string(), Json::Str(verdict.clone())),
            ]),
        }
    }

    /// Decodes an answer from a wire object.
    pub fn from_json(v: &Json) -> Result<Answer, String> {
        match v.get("kind").and_then(Json::as_str) {
            Some("ledger") => Ok(Answer::Ledger {
                ledger: ledger_from_json(v.get("ledger").ok_or("missing 'ledger'")?)?,
            }),
            Some("lint") => Ok(Answer::Lint {
                diagnostics: v
                    .get("diagnostics")
                    .and_then(Json::as_arr)
                    .ok_or("missing 'diagnostics'")?
                    .iter()
                    .map(|d| {
                        Ok(WireDiag {
                            severity: d
                                .get("severity")
                                .and_then(Json::as_str)
                                .ok_or("bad diag")?
                                .to_string(),
                            rule: d
                                .get("rule")
                                .and_then(Json::as_str)
                                .ok_or("bad diag")?
                                .to_string(),
                            message: d
                                .get("message")
                                .and_then(Json::as_str)
                                .ok_or("bad diag")?
                                .to_string(),
                        })
                    })
                    .collect::<Result<Vec<_>, String>>()?,
            }),
            Some("certificate") => Ok(Answer::Certificate {
                race_free: v
                    .get("race_free")
                    .and_then(Json::as_bool)
                    .ok_or("bad certificate")?,
                phases: v
                    .get("phases")
                    .and_then(Json::as_usize)
                    .ok_or("bad certificate")?,
                witnesses: v
                    .get("witnesses")
                    .and_then(Json::as_usize)
                    .ok_or("bad certificate")?,
            }),
            Some("run") => Ok(Answer::Run {
                ledger: ledger_from_json(v.get("ledger").ok_or("missing 'ledger'")?)?,
                output: words_from_json(v.get("output").ok_or("missing 'output'")?)?,
            }),
            Some("compare") => Ok(Answer::Compare {
                predicted: ledger_from_json(v.get("predicted").ok_or("missing 'predicted'")?)?,
                measured: ledger_from_json(v.get("measured").ok_or("missing 'measured'")?)?,
                matches: v
                    .get("matches")
                    .and_then(Json::as_bool)
                    .ok_or("bad 'matches'")?,
                output: words_from_json(v.get("output").ok_or("missing 'output'")?)?,
            }),
            Some("symbolic") => Ok(Answer::Symbolic {
                family: v
                    .get("family")
                    .and_then(Json::as_str)
                    .ok_or("missing 'family'")?
                    .to_string(),
                derived: v
                    .get("derived")
                    .and_then(Json::as_str)
                    .ok_or("missing 'derived'")?
                    .to_string(),
                fixture: v
                    .get("fixture")
                    .and_then(Json::as_str)
                    .ok_or("missing 'fixture'")?
                    .to_string(),
                equivalent: v
                    .get("equivalent")
                    .and_then(Json::as_bool)
                    .ok_or("bad 'equivalent'")?,
                regression: v
                    .get("regression")
                    .and_then(Json::as_bool)
                    .ok_or("bad 'regression'")?,
                matches: v
                    .get("matches")
                    .and_then(Json::as_bool)
                    .ok_or("bad 'matches'")?,
                total: v.get("total").and_then(Json::as_u64).ok_or("bad 'total'")?,
            }),
            Some("audit") => {
                let s = |k: &str| {
                    v.get(k)
                        .and_then(Json::as_str)
                        .map(str::to_string)
                        .ok_or(format!("missing '{k}'"))
                };
                Ok(Answer::Audit {
                    family: s("family")?,
                    size: v.get("size").and_then(Json::as_u64).ok_or("bad 'size'")?,
                    fan: v.get("fan").and_then(Json::as_u64).ok_or("bad 'fan'")?,
                    steps: v
                        .get("steps")
                        .and_then(Json::as_usize)
                        .ok_or("bad 'steps'")?,
                    clamped: v
                        .get("clamped")
                        .and_then(Json::as_usize)
                        .ok_or("bad 'clamped'")?,
                    all_good: v
                        .get("all_good")
                        .and_then(Json::as_bool)
                        .ok_or("bad 'all_good'")?,
                    lower: s("lower")?,
                    upper: s("upper")?,
                    verdict: s("verdict")?,
                })
            }
            _ => Err("unknown answer kind".to_string()),
        }
    }
}

impl Response {
    /// Encodes the response as a wire object.
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("id".to_string(), Json::Num(i128::from(self.id))),
            ("ok".to_string(), Json::Bool(self.result.is_ok())),
            ("cached".to_string(), Json::Bool(self.cached)),
            ("degraded".to_string(), Json::Bool(self.degraded)),
        ];
        match &self.result {
            Ok(answer) => fields.push(("answer".to_string(), answer.to_json())),
            Err(err) => {
                let mut e = vec![
                    ("code".to_string(), Json::Str(err.code.name().to_string())),
                    ("message".to_string(), Json::Str(err.message.clone())),
                ];
                if let Some(ms) = err.retry_after_ms {
                    e.push(("retry_after_ms".to_string(), Json::Num(i128::from(ms))));
                }
                fields.push(("error".to_string(), Json::Obj(e)));
            }
        }
        Json::Obj(fields)
    }

    /// Decodes a response from a wire object.
    pub fn from_json(v: &Json) -> Result<Response, String> {
        let id = v.get("id").and_then(Json::as_u64).ok_or("missing 'id'")?;
        let ok = v.get("ok").and_then(Json::as_bool).ok_or("missing 'ok'")?;
        let cached = v.get("cached").and_then(Json::as_bool).unwrap_or(false);
        let degraded = v.get("degraded").and_then(Json::as_bool).unwrap_or(false);
        let result = if ok {
            Ok(Answer::from_json(
                v.get("answer").ok_or("ok response missing 'answer'")?,
            )?)
        } else {
            let e = v.get("error").ok_or("error response missing 'error'")?;
            let code = match e.get("code").and_then(Json::as_str) {
                Some("bad_request") => ErrorCode::BadRequest,
                Some("deadline_exceeded") => ErrorCode::DeadlineExceeded,
                Some("overloaded") => ErrorCode::Overloaded,
                Some("budget_exhausted") => ErrorCode::BudgetExhausted,
                Some("model_rule") => ErrorCode::ModelRule,
                Some("io") => ErrorCode::Io,
                _ => return Err("unknown error code".to_string()),
            };
            Err(WireError {
                code,
                message: e
                    .get("message")
                    .and_then(Json::as_str)
                    .unwrap_or("")
                    .to_string(),
                retry_after_ms: e.get("retry_after_ms").and_then(Json::as_u64),
            })
        };
        Ok(Response {
            id,
            result,
            cached,
            degraded,
        })
    }
}

// ---------------------------------------------------------------------------
// PhasePlan codec
// ---------------------------------------------------------------------------

fn op_to_json(op: CombineOp) -> Json {
    Json::Str(
        match op {
            CombineOp::Sum => "sum",
            CombineOp::Or => "or",
            CombineOp::Xor => "xor",
            CombineOp::Max => "max",
        }
        .to_string(),
    )
}

fn op_from_json(v: &Json) -> Result<CombineOp, String> {
    match v.as_str() {
        Some("sum") => Ok(CombineOp::Sum),
        Some("or") => Ok(CombineOp::Or),
        Some("xor") => Ok(CombineOp::Xor),
        Some("max") => Ok(CombineOp::Max),
        _ => Err("unknown combine op".to_string()),
    }
}

fn update_to_json(u: Update) -> Json {
    match u {
        Update::Keep => Json::Obj(vec![("kind".to_string(), Json::Str("keep".to_string()))]),
        Update::Load => Json::Obj(vec![("kind".to_string(), Json::Str("load".to_string()))]),
        Update::Fold(op) => Json::Obj(vec![
            ("kind".to_string(), Json::Str("fold".to_string())),
            ("op".to_string(), op_to_json(op)),
        ]),
        Update::Accum(op) => Json::Obj(vec![
            ("kind".to_string(), Json::Str("accum".to_string())),
            ("op".to_string(), op_to_json(op)),
        ]),
    }
}

fn update_from_json(v: &Json) -> Result<Update, String> {
    match v.get("kind").and_then(Json::as_str) {
        Some("keep") => Ok(Update::Keep),
        Some("load") => Ok(Update::Load),
        Some("fold") => Ok(Update::Fold(op_from_json(
            v.get("op").ok_or("fold missing 'op'")?,
        )?)),
        Some("accum") => Ok(Update::Accum(op_from_json(
            v.get("op").ok_or("accum missing 'op'")?,
        )?)),
        _ => Err("unknown update kind".to_string()),
    }
}

fn value_to_json(v: ValueRule) -> Json {
    match v {
        ValueRule::Const(w) => Json::Obj(vec![
            ("kind".to_string(), Json::Str("const".to_string())),
            ("v".to_string(), Json::Num(i128::from(w))),
        ]),
        ValueRule::Reg(i) => Json::Obj(vec![
            ("kind".to_string(), Json::Str("reg".to_string())),
            ("i".to_string(), Json::Num(i as i128)),
        ]),
        ValueRule::FoldRegs(op) => Json::Obj(vec![
            ("kind".to_string(), Json::Str("fold_regs".to_string())),
            ("op".to_string(), op_to_json(op)),
        ]),
    }
}

fn value_from_json(v: &Json) -> Result<ValueRule, String> {
    match v.get("kind").and_then(Json::as_str) {
        Some("const") => Ok(ValueRule::Const(
            v.get("v")
                .and_then(Json::as_i64)
                .ok_or("const missing 'v'")?,
        )),
        Some("reg") => Ok(ValueRule::Reg(
            v.get("i")
                .and_then(Json::as_usize)
                .ok_or("reg missing 'i'")?,
        )),
        Some("fold_regs") => Ok(ValueRule::FoldRegs(op_from_json(
            v.get("op").ok_or("fold_regs missing 'op'")?,
        )?)),
        _ => Err("unknown value rule".to_string()),
    }
}

fn usizes_to_json(xs: &[usize]) -> Json {
    Json::Arr(xs.iter().map(|&x| Json::Num(x as i128)).collect())
}

fn usizes_from_json(v: &Json) -> Result<Vec<usize>, String> {
    v.as_arr()
        .ok_or("expected an array of indices")?
        .iter()
        .map(|x| x.as_usize().ok_or("index out of range".to_string()))
        .collect()
}

/// Encodes a plan as its canonical wire object.
pub fn plan_to_json(plan: &PhasePlan) -> Json {
    let model = match plan.model {
        ModelKind::Qsm { g } => Json::Obj(vec![
            ("kind".to_string(), Json::Str("qsm".to_string())),
            ("g".to_string(), Json::Num(i128::from(g))),
        ]),
        ModelKind::SQsm { g } => Json::Obj(vec![
            ("kind".to_string(), Json::Str("sqsm".to_string())),
            ("g".to_string(), Json::Num(i128::from(g))),
        ]),
        ModelKind::QsmUnitCr { g } => Json::Obj(vec![
            ("kind".to_string(), Json::Str("qsm_unit_cr".to_string())),
            ("g".to_string(), Json::Num(i128::from(g))),
        ]),
        ModelKind::Bsp { p, g, l } => Json::Obj(vec![
            ("kind".to_string(), Json::Str("bsp".to_string())),
            ("p".to_string(), Json::Num(p as i128)),
            ("g".to_string(), Json::Num(i128::from(g))),
            ("l".to_string(), Json::Num(i128::from(l))),
        ]),
        ModelKind::Gsm { alpha, beta, gamma } => Json::Obj(vec![
            ("kind".to_string(), Json::Str("gsm".to_string())),
            ("alpha".to_string(), Json::Num(i128::from(alpha))),
            ("beta".to_string(), Json::Num(i128::from(beta))),
            ("gamma".to_string(), Json::Num(i128::from(gamma))),
        ]),
    };
    let output = match plan.output {
        OutputDecl::Region { base, len } => Json::Obj(vec![
            ("kind".to_string(), Json::Str("region".to_string())),
            ("base".to_string(), Json::Num(base as i128)),
            ("len".to_string(), Json::Num(len as i128)),
        ]),
        OutputDecl::ComponentState => Json::Obj(vec![(
            "kind".to_string(),
            Json::Str("component_state".to_string()),
        )]),
    };
    let body = match &plan.body {
        PlanBody::Shared(phases) => Json::Obj(vec![
            ("kind".to_string(), Json::Str("shared".to_string())),
            (
                "phases".to_string(),
                Json::Arr(
                    phases
                        .iter()
                        .map(|phase| {
                            Json::Obj(vec![
                                ("label".to_string(), Json::Str(phase.label.clone())),
                                ("finish".to_string(), usizes_to_json(&phase.finish)),
                                (
                                    "procs".to_string(),
                                    Json::Arr(phase.procs.iter().map(proc_to_json).collect()),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
        ]),
        PlanBody::Msg { init, steps } => {
            let init_json = match init {
                InitRule::Const(w) => Json::Obj(vec![
                    ("kind".to_string(), Json::Str("const".to_string())),
                    ("v".to_string(), Json::Num(i128::from(*w))),
                ]),
                InitRule::FoldLocal(op) => Json::Obj(vec![
                    ("kind".to_string(), Json::Str("fold_local".to_string())),
                    ("op".to_string(), op_to_json(*op)),
                ]),
            };
            Json::Obj(vec![
                ("kind".to_string(), Json::Str("msg".to_string())),
                ("init".to_string(), init_json),
                (
                    "steps".to_string(),
                    Json::Arr(
                        steps
                            .iter()
                            .map(|step| {
                                Json::Obj(vec![
                                    ("label".to_string(), Json::Str(step.label.clone())),
                                    ("finish".to_string(), usizes_to_json(&step.finish)),
                                    (
                                        "comps".to_string(),
                                        Json::Arr(step.comps.iter().map(comp_to_json).collect()),
                                    ),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ])
        }
    };
    Json::Obj(vec![
        ("family".to_string(), Json::Str(plan.family.clone())),
        ("model".to_string(), model),
        ("procs".to_string(), Json::Num(plan.procs as i128)),
        (
            "input_cells".to_string(),
            Json::Num(plan.input_cells as i128),
        ),
        (
            "contention_bound".to_string(),
            match plan.contention_bound {
                Some(b) => Json::Num(i128::from(b)),
                None => Json::Null,
            },
        ),
        ("output".to_string(), output),
        ("body".to_string(), body),
    ])
}

fn proc_to_json(e: &ProcPhase) -> Json {
    Json::Obj(vec![
        ("pid".to_string(), Json::Num(e.pid as i128)),
        ("update".to_string(), update_to_json(e.update)),
        (
            "guard".to_string(),
            Json::Str(
                match e.guard {
                    Guard::Always => "always",
                    Guard::NonZero => "non_zero",
                }
                .to_string(),
            ),
        ),
        ("reads".to_string(), usizes_to_json(&e.reads)),
        (
            "writes".to_string(),
            Json::Arr(
                e.writes
                    .iter()
                    .map(|w| {
                        Json::Obj(vec![
                            ("addr".to_string(), Json::Num(w.addr as i128)),
                            ("value".to_string(), value_to_json(w.value)),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("local_ops".to_string(), Json::Num(i128::from(e.local_ops))),
    ])
}

fn comp_to_json(e: &CompStep) -> Json {
    Json::Obj(vec![
        ("pid".to_string(), Json::Num(e.pid as i128)),
        ("update".to_string(), update_to_json(e.update)),
        (
            "sends".to_string(),
            Json::Arr(
                e.sends
                    .iter()
                    .map(|s| {
                        Json::Obj(vec![
                            ("dest".to_string(), Json::Num(s.dest as i128)),
                            ("tag".to_string(), Json::Num(i128::from(s.tag))),
                            ("value".to_string(), value_to_json(s.value)),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("local_ops".to_string(), Json::Num(i128::from(e.local_ops))),
    ])
}

/// Decodes a plan from its wire object. The caller still runs
/// [`PhasePlan::validate`]; this only checks structure.
pub fn plan_from_json(v: &Json) -> Result<PhasePlan, String> {
    let m = v.get("model").ok_or("plan missing 'model'")?;
    let model = match m.get("kind").and_then(Json::as_str) {
        Some("qsm") => ModelKind::Qsm {
            g: m.get("g").and_then(Json::as_u64).ok_or("qsm missing 'g'")?,
        },
        Some("sqsm") => ModelKind::SQsm {
            g: m.get("g")
                .and_then(Json::as_u64)
                .ok_or("sqsm missing 'g'")?,
        },
        Some("qsm_unit_cr") => ModelKind::QsmUnitCr {
            g: m.get("g")
                .and_then(Json::as_u64)
                .ok_or("qsm_unit_cr missing 'g'")?,
        },
        Some("bsp") => ModelKind::Bsp {
            p: m.get("p")
                .and_then(Json::as_usize)
                .ok_or("bsp missing 'p'")?,
            g: m.get("g").and_then(Json::as_u64).ok_or("bsp missing 'g'")?,
            l: m.get("l").and_then(Json::as_u64).ok_or("bsp missing 'l'")?,
        },
        Some("gsm") => ModelKind::Gsm {
            alpha: m
                .get("alpha")
                .and_then(Json::as_u64)
                .ok_or("gsm missing 'alpha'")?,
            beta: m
                .get("beta")
                .and_then(Json::as_u64)
                .ok_or("gsm missing 'beta'")?,
            gamma: m
                .get("gamma")
                .and_then(Json::as_u64)
                .ok_or("gsm missing 'gamma'")?,
        },
        _ => return Err("unknown model kind".to_string()),
    };
    let o = v.get("output").ok_or("plan missing 'output'")?;
    let output = match o.get("kind").and_then(Json::as_str) {
        Some("region") => OutputDecl::Region {
            base: o
                .get("base")
                .and_then(Json::as_usize)
                .ok_or("region missing 'base'")?,
            len: o
                .get("len")
                .and_then(Json::as_usize)
                .ok_or("region missing 'len'")?,
        },
        Some("component_state") => OutputDecl::ComponentState,
        _ => return Err("unknown output kind".to_string()),
    };
    let b = v.get("body").ok_or("plan missing 'body'")?;
    let body = match b.get("kind").and_then(Json::as_str) {
        Some("shared") => {
            let mut phases = Vec::new();
            for p in b
                .get("phases")
                .and_then(Json::as_arr)
                .ok_or("shared body missing 'phases'")?
            {
                let mut phase =
                    SharedPhase::new(p.get("label").and_then(Json::as_str).unwrap_or_default());
                phase.finish = usizes_from_json(p.get("finish").ok_or("phase missing 'finish'")?)?;
                for e in p
                    .get("procs")
                    .and_then(Json::as_arr)
                    .ok_or("phase missing 'procs'")?
                {
                    phase.procs.push(proc_from_json(e)?);
                }
                phases.push(phase);
            }
            PlanBody::Shared(phases)
        }
        Some("msg") => {
            let i = b.get("init").ok_or("msg body missing 'init'")?;
            let init = match i.get("kind").and_then(Json::as_str) {
                Some("const") => InitRule::Const(
                    i.get("v")
                        .and_then(Json::as_i64)
                        .ok_or("init missing 'v'")?,
                ),
                Some("fold_local") => {
                    InitRule::FoldLocal(op_from_json(i.get("op").ok_or("init missing 'op'")?)?)
                }
                _ => return Err("unknown init rule".to_string()),
            };
            let mut steps = Vec::new();
            for s in b
                .get("steps")
                .and_then(Json::as_arr)
                .ok_or("msg body missing 'steps'")?
            {
                let mut step =
                    MsgStep::new(s.get("label").and_then(Json::as_str).unwrap_or_default());
                step.finish = usizes_from_json(s.get("finish").ok_or("step missing 'finish'")?)?;
                for e in s
                    .get("comps")
                    .and_then(Json::as_arr)
                    .ok_or("step missing 'comps'")?
                {
                    step.comps.push(comp_from_json(e)?);
                }
                steps.push(step);
            }
            PlanBody::Msg { init, steps }
        }
        _ => return Err("unknown body kind".to_string()),
    };
    Ok(PhasePlan {
        family: v
            .get("family")
            .and_then(Json::as_str)
            .unwrap_or("inline")
            .to_string(),
        model,
        procs: v
            .get("procs")
            .and_then(Json::as_usize)
            .ok_or("plan missing 'procs'")?,
        input_cells: v
            .get("input_cells")
            .and_then(Json::as_usize)
            .ok_or("plan missing 'input_cells'")?,
        contention_bound: match v.get("contention_bound") {
            None | Some(Json::Null) => None,
            Some(b) => Some(b.as_u64().ok_or("bad 'contention_bound'")?),
        },
        output,
        body,
    })
}

fn proc_from_json(e: &Json) -> Result<ProcPhase, String> {
    let mut p = ProcPhase::idle(
        e.get("pid")
            .and_then(Json::as_usize)
            .ok_or("proc missing 'pid'")?,
    );
    p.update = update_from_json(e.get("update").ok_or("proc missing 'update'")?)?;
    p.guard = match e.get("guard").and_then(Json::as_str) {
        Some("always") => Guard::Always,
        Some("non_zero") => Guard::NonZero,
        _ => return Err("unknown guard".to_string()),
    };
    p.reads = usizes_from_json(e.get("reads").ok_or("proc missing 'reads'")?)?;
    for w in e
        .get("writes")
        .and_then(Json::as_arr)
        .ok_or("proc missing 'writes'")?
    {
        p.writes.push(WriteSpec {
            addr: w
                .get("addr")
                .and_then(Json::as_usize)
                .ok_or("write missing 'addr'")?,
            value: value_from_json(w.get("value").ok_or("write missing 'value'")?)?,
        });
    }
    p.local_ops = e
        .get("local_ops")
        .and_then(Json::as_u64)
        .ok_or("proc missing 'local_ops'")?;
    Ok(p)
}

fn comp_from_json(e: &Json) -> Result<CompStep, String> {
    let mut c = CompStep::idle(
        e.get("pid")
            .and_then(Json::as_usize)
            .ok_or("comp missing 'pid'")?,
    );
    c.update = update_from_json(e.get("update").ok_or("comp missing 'update'")?)?;
    for s in e
        .get("sends")
        .and_then(Json::as_arr)
        .ok_or("comp missing 'sends'")?
    {
        c.sends.push(SendSpec {
            dest: s
                .get("dest")
                .and_then(Json::as_usize)
                .ok_or("send missing 'dest'")?,
            tag: s
                .get("tag")
                .and_then(Json::as_i64)
                .ok_or("send missing 'tag'")?,
            value: value_from_json(s.get("value").ok_or("send missing 'value'")?)?,
        });
    }
    c.local_ops = e
        .get("local_ops")
        .and_then(Json::as_u64)
        .ok_or("comp missing 'local_ops'")?;
    Ok(c)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;
    use parbounds_analyze::ir_family_plan;
    use parbounds_analyze::statics::IR_FAMILIES;

    #[test]
    fn plan_codec_round_trips_every_family() {
        for family in IR_FAMILIES.iter().chain(std::iter::once(&"racy-plan")) {
            let (_, plan, _) = ir_family_plan(family, 64, 7).unwrap();
            let encoded = plan_to_json(&plan).render();
            let decoded = plan_from_json(&parse(&encoded).unwrap()).unwrap();
            assert_eq!(plan, decoded, "round trip for {family}");
        }
    }

    #[test]
    fn request_codec_round_trips() {
        let (_, plan, input) = ir_family_plan("broadcast", 32, 3).unwrap();
        let req = Request {
            id: 42,
            tenant: "acme".to_string(),
            kind: QueryKind::Compare,
            deadline_ms: Some(250),
            trip_at_phase: None,
            plan: PlanSource::Inline(plan),
            input: Some(input),
        };
        let text = req.to_json().render();
        let back = Request::from_json(&parse(&text).unwrap()).unwrap();
        assert_eq!(req, back);
    }

    #[test]
    fn cache_key_ignores_tenant_and_id() {
        let (_, plan, input) = ir_family_plan("or-write-tree", 32, 1).unwrap();
        let mut a = Request {
            id: 1,
            tenant: "a".to_string(),
            kind: QueryKind::Static,
            deadline_ms: Some(10),
            trip_at_phase: None,
            plan: PlanSource::Inline(plan.clone()),
            input: None,
        };
        let mut b = a.clone();
        b.id = 999;
        b.tenant = "b".to_string();
        b.deadline_ms = None;
        assert_eq!(a.cache_key(&plan, &input), b.cache_key(&plan, &input));
        a.kind = QueryKind::Run;
        assert_ne!(a.cache_key(&plan, &input), b.cache_key(&plan, &input));
    }

    #[test]
    fn cache_key_addresses_the_plan_content() {
        let (_, plan, input) = ir_family_plan("prefix-sweep", 64, 2).unwrap();
        let family = Request {
            id: 1,
            tenant: "a".to_string(),
            kind: QueryKind::Run,
            deadline_ms: None,
            trip_at_phase: None,
            plan: PlanSource::Family {
                name: "prefix-sweep".to_string(),
                n: 64,
                seed: 2,
            },
            input: None,
        };
        let key = family.cache_key(&plan, &input);

        // The inline copy of the family plan, decoded off the wire, asks the
        // same question and gets the same key.
        let mut inline = family.clone();
        inline.plan = PlanSource::Inline(plan.clone());
        inline.input = Some(input.clone());
        let inline = Request::from_json(&parse(&inline.to_json().render()).unwrap()).unwrap();
        let PlanSource::Inline(decoded) = &inline.plan else {
            panic!("an inline request decodes to an inline plan");
        };
        assert_eq!(
            inline.cache_key(decoded, inline.input.as_ref().unwrap()),
            key
        );

        let mut other_kind = family.clone();
        other_kind.kind = QueryKind::Compare;
        assert_ne!(other_kind.cache_key(&plan, &input), key, "kind");

        let mut other_input = input.clone();
        other_input[5] += 1;
        assert_ne!(family.cache_key(&plan, &other_input), key, "input word");

        let mut moved = plan.clone();
        let PlanBody::Shared(phases) = &mut moved.body else {
            panic!("prefix-sweep is a shared-memory plan");
        };
        let write = phases
            .iter_mut()
            .flat_map(|p| &mut p.procs)
            .flat_map(|e| &mut e.writes)
            .next()
            .expect("prefix-sweep writes");
        write.addr += 1;
        assert_ne!(family.cache_key(&moved, &input), key, "write address");

        let mut relabelled = plan.clone();
        let PlanBody::Shared(phases) = &mut relabelled.body else {
            panic!("prefix-sweep is a shared-memory plan");
        };
        phases[0].label.push('\'');
        assert_ne!(family.cache_key(&relabelled, &input), key, "phase label");
    }

    #[test]
    fn response_codec_round_trips_answers_and_errors() {
        let mut ledger = CostLedger::new();
        ledger.push(PhaseCost {
            m_op: 3,
            m_rw: 1,
            kappa: 2,
            cost: 8,
        });
        let ok = Response {
            id: 5,
            result: Ok(Answer::Run {
                ledger,
                output: vec![1, -2, 3],
            }),
            cached: true,
            degraded: false,
        };
        let back = Response::from_json(&parse(&ok.to_json().render()).unwrap()).unwrap();
        assert_eq!(ok, back);

        let err = Response::overloaded(9, 15);
        let back = Response::from_json(&parse(&err.to_json().render()).unwrap()).unwrap();
        assert_eq!(err, back);
        assert_eq!(
            back.result.unwrap_err().retry_after_ms,
            Some(15),
            "retry hint survives the wire"
        );
    }

    #[test]
    fn symbolic_codec_round_trips_unicode_normal_forms() {
        assert_eq!(QueryKind::from_name("symbolic"), Some(QueryKind::Symbolic));
        assert!(!QueryKind::Symbolic.is_measured());
        let resp = Response {
            id: 7,
            result: Ok(Answer::Symbolic {
                family: "or-write-tree".to_string(),
                derived: "Θ(g·log n/(log g))".to_string(),
                fixture: "Θ(g·log n/(log g))".to_string(),
                equivalent: true,
                regression: false,
                matches: true,
                total: 64,
            }),
            cached: false,
            degraded: false,
        };
        let back = Response::from_json(&parse(&resp.to_json().render()).unwrap()).unwrap();
        assert_eq!(resp, back);
    }

    #[test]
    fn audit_codec_round_trips_and_stays_unmeasured() {
        assert_eq!(QueryKind::from_name("audit"), Some(QueryKind::Audit));
        assert!(
            !QueryKind::Audit.is_measured(),
            "audits are static analyses: no tenant budget charge"
        );
        let resp = Response {
            id: 11,
            result: Ok(Answer::Audit {
                family: "parity-read-tree".to_string(),
                size: 4096,
                fan: 2,
                steps: 24,
                clamped: 1,
                all_good: true,
                lower: "Θ(g·log n)".to_string(),
                upper: "Θ(g·log n)".to_string(),
                verdict: "tight".to_string(),
            }),
            cached: true,
            degraded: false,
        };
        let back = Response::from_json(&parse(&resp.to_json().render()).unwrap()).unwrap();
        assert_eq!(resp, back);
    }
}
