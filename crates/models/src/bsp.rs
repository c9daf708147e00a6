//! The Bulk-Synchronous Parallel (BSP) model of Valiant (Section 2.1.3).
//!
//! `p` processor/memory components communicate by point-to-point messages.
//! A computation is a sequence of supersteps; messages sent in a superstep
//! arrive before the next superstep starts. With `w` the maximum local work,
//! `h` the maximum number of messages sent or received by any component
//! (the superstep routes an `h`-relation), the superstep costs
//! `max(w, g·h, L)`. The paper assumes `L ≥ g` throughout, and so does this
//! machine. Input is partitioned uniformly: component `i` is assigned either
//! `⌈n/p⌉` or `⌊n/p⌋` inputs.

use crate::cancel::CancelToken;
use crate::cost::{CostLedger, PhaseCost};
use crate::error::{ModelError, Result};
use crate::exec::{ExecOptions, Routing};
use crate::faults::{FaultInjector, FaultLog, FaultPlan};
use crate::shared::{Status, Word};

/// A point-to-point message. `tag` lets algorithms multiplex message kinds
/// or carry addresses; `value` is the payload word.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Msg {
    /// Sending component.
    pub src: usize,
    /// Algorithm-chosen tag.
    pub tag: Word,
    /// Payload.
    pub value: Word,
}

/// Per-component view of one superstep.
#[derive(Debug)]
pub struct Superstep<'a> {
    step: usize,
    inbox: &'a [Msg],
    pub(crate) outbox: Vec<(usize, Msg)>,
    pub(crate) ops: u64,
}

impl<'a> Superstep<'a> {
    fn new(step: usize, inbox: &'a [Msg]) -> Self {
        Superstep {
            step,
            inbox,
            outbox: Vec::new(),
            ops: 0,
        }
    }

    /// Like [`Superstep::new`] but around a recycled (empty) outbox buffer,
    /// so steady-state supersteps of the fast path do no allocation.
    fn with_buffer(step: usize, inbox: &'a [Msg], outbox: Vec<(usize, Msg)>) -> Self {
        debug_assert!(outbox.is_empty());
        Superstep {
            step,
            inbox,
            outbox,
            ops: 0,
        }
    }

    /// Index of the current superstep (0-based).
    pub fn step(&self) -> usize {
        self.step
    }

    /// Messages that arrived from the previous superstep, sorted by
    /// `(src, tag)` for determinism (the BSP delivers in arbitrary order;
    /// algorithms must not rely on arrival order, and the deterministic
    /// sort makes runs reproducible).
    pub fn inbox(&self) -> &[Msg] {
        self.inbox
    }

    /// Send a message to component `dest`, arriving next superstep.
    pub fn send(&mut self, dest: usize, tag: Word, value: Word) {
        self.outbox.push((
            dest,
            Msg {
                src: usize::MAX,
                tag,
                value,
            },
        ));
    }

    /// Charge `k` units of local computation (`w_i`). Sends and receives
    /// are charged one op each automatically.
    pub fn local_ops(&mut self, k: u64) {
        self.ops += k;
    }
}

/// A BSP program: per-component state initialized from the component's
/// input partition, advanced one superstep at a time.
pub trait BspProgram {
    /// Per-component private state.
    type Proc;

    /// Create component `pid`'s state from its slice of the input.
    fn create(&self, pid: usize, local_input: &[Word]) -> Self::Proc;

    /// Execute one superstep for component `pid`.
    fn superstep(&self, pid: usize, state: &mut Self::Proc, ctx: &mut Superstep<'_>) -> Status;
}

/// A BSP program defined by closures.
pub struct BspFnProgram<S, I, F>
where
    I: Fn(usize, &[Word]) -> S,
    F: Fn(usize, &mut S, &mut Superstep<'_>) -> Status,
{
    init: I,
    step: F,
}

impl<S, I, F> BspFnProgram<S, I, F>
where
    I: Fn(usize, &[Word]) -> S,
    F: Fn(usize, &mut S, &mut Superstep<'_>) -> Status,
{
    /// Builds a closure-backed BSP program.
    pub fn new(init: I, step: F) -> Self {
        BspFnProgram { init, step }
    }
}

impl<S, I, F> BspProgram for BspFnProgram<S, I, F>
where
    I: Fn(usize, &[Word]) -> S,
    F: Fn(usize, &mut S, &mut Superstep<'_>) -> Status,
{
    type Proc = S;

    fn create(&self, pid: usize, local_input: &[Word]) -> S {
        (self.init)(pid, local_input)
    }

    fn superstep(&self, pid: usize, state: &mut S, ctx: &mut Superstep<'_>) -> Status {
        (self.step)(pid, state, ctx)
    }
}

/// Full record of what every component sent and received per superstep.
///
/// Populated by [`BspMachine::run_traced`] or by any run of a machine built
/// [`BspMachine::with_tracing`]; consumed by the `parbounds-analyze` lint
/// pass (e.g. to find sends addressed to components that have already
/// finished and can never receive the delivery).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BspTrace {
    /// One entry per superstep, in execution order. At most
    /// [`ExecOptions::trace_phase_cap`] supersteps are retained.
    pub steps: Vec<BspStepTrace>,
    /// Number of supersteps the run actually executed.
    pub total_steps: usize,
    /// True if the run executed more supersteps than the trace retained.
    pub truncated: bool,
}

/// One superstep of a [`BspTrace`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BspStepTrace {
    /// `sent[pid]` = the `(dest, msg)` pairs component `pid` sent this
    /// superstep (with `msg.src` stamped, before fault injection).
    pub sent: Vec<Vec<(usize, Msg)>>,
    /// `received[pid]` = the inbox component `pid` consumed this superstep
    /// (sorted by `(src, tag)`).
    pub received: Vec<Vec<Msg>>,
    /// `executed[pid]` is true if the component ran this superstep (false
    /// once it is done, or while an injected stall delays it).
    pub executed: Vec<bool>,
    /// `finished[pid]` is true if the component returned [`Status::Done`]
    /// this superstep — later deliveries to it are silently lost.
    pub finished: Vec<bool>,
}

/// Outcome of a BSP run.
#[derive(Debug)]
pub struct BspRunResult<S> {
    /// Final per-component states (the distributed "output memory").
    pub states: Vec<S>,
    /// Per-superstep cost records.
    pub ledger: CostLedger,
    /// What the fault injector did, if the machine carried a [`FaultPlan`].
    pub faults: Option<FaultLog>,
    /// Full message trace, if the machine was built
    /// [`BspMachine::with_tracing`] (or the run used
    /// [`BspMachine::run_traced`]). `None` on untraced runs.
    pub trace: Option<BspTrace>,
}

impl<S> BspRunResult<S> {
    /// Total BSP time.
    pub fn time(&self) -> u64 {
        self.ledger.total_time()
    }

    /// Number of supersteps executed.
    pub fn supersteps(&self) -> usize {
        self.ledger.num_phases()
    }
}

/// The BSP machine: `p` components, bandwidth gap `g`, latency `L ≥ g`.
#[derive(Debug, Clone)]
pub struct BspMachine {
    p: usize,
    g: u64,
    l: u64,
    max_steps: usize,
    faults: Option<FaultPlan>,
    cancel: Option<CancelToken>,
    opts: ExecOptions,
}

impl BspMachine {
    /// A BSP(p, g, L). Fails if `p = 0` or `L < g` (the paper assumes
    /// `L ≥ g` throughout).
    pub fn new(p: usize, g: u64, l: u64) -> Result<Self> {
        if p == 0 {
            return Err(ModelError::BadConfig(
                "BSP needs at least one component".into(),
            ));
        }
        let g = g.max(1);
        if l < g {
            return Err(ModelError::BadConfig(format!(
                "BSP requires L >= g (got L={l}, g={g})"
            )));
        }
        Ok(BspMachine {
            p,
            g,
            l,
            max_steps: 1 << 20,
            faults: None,
            cancel: None,
            opts: ExecOptions::default(),
        })
    }

    /// Sets the runaway-protection superstep limit.
    pub fn with_max_steps(mut self, max_steps: usize) -> Self {
        self.max_steps = max_steps;
        self
    }

    /// The runaway-protection superstep limit.
    pub fn max_steps(&self) -> usize {
        self.max_steps
    }

    /// Attaches a [`FaultPlan`]: message drops/duplications, component
    /// stalls/crashes and budget guards apply to every subsequent run,
    /// which reports a [`FaultLog`] in [`BspRunResult::faults`].
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Detaches any fault plan (used to obtain fault-free baselines).
    pub fn without_faults(mut self) -> Self {
        self.faults = None;
        self
    }

    /// The attached fault plan, if any.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.faults.as_ref()
    }

    /// Attaches a [`CancelToken`]: every subsequent run checks it at each
    /// superstep boundary and stops with [`ModelError::DeadlineExceeded`]
    /// once it trips, before the superstep's effects are applied.
    pub fn with_cancel(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// The attached cancellation token, if any.
    pub fn cancel_token(&self) -> Option<&CancelToken> {
        self.cancel.as_ref()
    }

    /// Superstep-boundary cancellation checkpoint (no-op without a token).
    fn check_cancel(&self, step: usize) -> Result<()> {
        match &self.cancel {
            Some(token) => token.check(step),
            None => Ok(()),
        }
    }

    /// Makes every subsequent [`BspMachine::run`] record a full
    /// [`BspTrace`] into [`BspRunResult::trace`] (for algorithm entry
    /// points that call `run` internally, e.g. the analyzer's lint pass).
    pub fn with_tracing(mut self) -> Self {
        self.opts.record_trace = true;
        self
    }

    /// Replaces the execution options wholesale.
    pub fn with_options(mut self, opts: ExecOptions) -> Self {
        self.opts = opts;
        self
    }

    /// Selects the execution strategy ([`Routing::Dense`] = the pooled
    /// fast path, default).
    pub fn with_routing(mut self, routing: Routing) -> Self {
        self.opts.routing = routing;
        self
    }

    /// Executes through the original per-superstep-allocating reference
    /// path.
    pub fn with_reference_routing(self) -> Self {
        self.with_routing(Routing::Reference)
    }

    /// Sets the maximum number of supersteps a recorded trace retains.
    pub fn with_trace_cap(mut self, cap: usize) -> Self {
        self.opts.trace_phase_cap = cap;
        self
    }

    /// Folds run ledgers into running aggregates without retaining
    /// per-superstep records. See
    /// [`crate::QsmMachine::with_streaming_ledger`].
    pub fn with_streaming_ledger(mut self) -> Self {
        self.opts.streaming_ledger = true;
        self
    }

    /// The execution options currently in force.
    pub fn options(&self) -> ExecOptions {
        self.opts
    }

    /// Number of components.
    pub fn p(&self) -> usize {
        self.p
    }

    /// Bandwidth gap `g`.
    pub fn g(&self) -> u64 {
        self.g
    }

    /// Latency / synchronization parameter `L`.
    pub fn l(&self) -> u64 {
        self.l
    }

    /// Superstep cost `max(w, g·h, L)`.
    pub fn superstep_cost(&self, w: u64, h: u64) -> u64 {
        w.max(self.g * h).max(self.l)
    }

    /// Partitions `input` uniformly: component `i` gets a contiguous slice
    /// of size `⌈n/p⌉` or `⌊n/p⌋` (the first `n mod p` components get the
    /// larger share).
    pub fn partition<'a>(&self, input: &'a [Word]) -> Vec<&'a [Word]> {
        let n = input.len();
        let base = n / self.p;
        let extra = n % self.p;
        let mut out = Vec::with_capacity(self.p);
        let mut at = 0;
        for i in 0..self.p {
            let len = base + usize::from(i < extra);
            out.push(&input[at..at + len]);
            at += len;
        }
        out
    }

    /// Runs `program` on `input` partitioned across the components.
    pub fn run<P: BspProgram>(&self, program: &P, input: &[Word]) -> Result<BspRunResult<P::Proc>> {
        self.execute(program, input, self.opts.record_trace)
    }

    /// Runs `program` and records a full [`BspTrace`].
    pub fn run_traced<P: BspProgram>(
        &self,
        program: &P,
        input: &[Word],
    ) -> Result<(BspRunResult<P::Proc>, BspTrace)> {
        let mut result = self.execute(program, input, true)?;
        let trace = result.trace.take().unwrap_or_default();
        Ok((result, trace))
    }

    fn execute<P: BspProgram>(
        &self,
        program: &P,
        input: &[Word],
        want_trace: bool,
    ) -> Result<BspRunResult<P::Proc>> {
        match self.opts.routing {
            Routing::Dense => self.execute_pooled(program, input, want_trace),
            Routing::Reference => self.execute_reference(program, input, want_trace),
        }
    }

    /// The original execution path, kept as the executable specification
    /// the pooled fast path is differentially tested against.
    fn execute_reference<P: BspProgram>(
        &self,
        program: &P,
        input: &[Word],
        want_trace: bool,
    ) -> Result<BspRunResult<P::Proc>> {
        let cap = self.opts.trace_phase_cap;
        let mut trace = want_trace.then(BspTrace::default);
        let parts = self.partition(input);
        let mut states: Vec<P::Proc> = parts
            .iter()
            .enumerate()
            .map(|(pid, sl)| program.create(pid, sl))
            .collect();
        let mut active = vec![true; self.p];
        let mut inboxes: Vec<Vec<Msg>> = vec![Vec::new(); self.p];
        let mut ledger = self.opts.new_ledger();
        let mut injector = self.faults.as_ref().map(FaultInjector::new);
        let step_limit = injector
            .as_ref()
            .map_or(self.max_steps, |i| i.effective_phase_limit(self.max_steps));
        // Each component's own superstep counter: advances only when it
        // actually executes, so an injected stall is a pure delay from the
        // program's point of view. Without faults this equals the global
        // superstep number.
        let mut local_step: Vec<usize> = vec![0; self.p];

        let mut step_no = 0usize;
        while active.iter().any(|&a| a) {
            if step_no >= step_limit {
                return Err(ModelError::PhaseLimitExceeded { limit: step_limit });
            }
            self.check_cancel(step_no)?;
            let mut next_inboxes: Vec<Vec<Msg>> = vec![Vec::new(); self.p];
            let mut w: u64 = 0;
            let mut max_sent: u64 = 0;
            let mut received: Vec<u64> = vec![0; self.p];
            let mut stalled: Vec<usize> = Vec::new();
            let mut step_trace =
                trace
                    .as_ref()
                    .filter(|t| t.steps.len() < cap)
                    .map(|_| BspStepTrace {
                        sent: vec![Vec::new(); self.p],
                        received: vec![Vec::new(); self.p],
                        executed: vec![false; self.p],
                        finished: vec![false; self.p],
                    });

            for pid in 0..self.p {
                if !active[pid] {
                    continue;
                }
                if let Some(inj) = injector.as_mut() {
                    if inj.crash_at(pid, step_no) {
                        return Err(ModelError::FaultAborted {
                            phase: step_no,
                            reason: format!("component {pid} crashed"),
                        });
                    }
                    if inj.stall_at(pid, step_no) {
                        // Skip the superstep; the inbox is retained and
                        // merged with next superstep's arrivals.
                        stalled.push(pid);
                        continue;
                    }
                }
                let inbox = std::mem::take(&mut inboxes[pid]);
                let mut ctx = Superstep::new(local_step[pid], &inbox);
                let status = program.superstep(pid, &mut states[pid], &mut ctx);
                local_step[pid] += 1;

                let sent = ctx.outbox.len() as u64;
                let recv = inbox.len() as u64;
                w = w.max(ctx.ops + sent + recv);
                max_sent = max_sent.max(sent);
                if let Some(st) = step_trace.as_mut() {
                    st.executed[pid] = true;
                    st.received[pid] = inbox.clone();
                }

                for (dest, mut msg) in ctx.outbox {
                    if dest >= self.p {
                        return Err(ModelError::BadProcessor {
                            pid: dest,
                            num_procs: self.p,
                        });
                    }
                    msg.src = pid;
                    if let Some(st) = step_trace.as_mut() {
                        st.sent[pid].push((dest, msg));
                    }
                    // Per-message faults: a drop delivers zero copies, a
                    // duplication two. `sent` above counts every attempt;
                    // `received` counts what actually arrives.
                    let copies = match injector.as_mut() {
                        Some(inj) => {
                            if inj.drop_message() {
                                0
                            } else if inj.duplicate_message() {
                                2
                            } else {
                                1
                            }
                        }
                        None => 1,
                    };
                    for _ in 0..copies {
                        received[dest] += 1;
                        next_inboxes[dest].push(msg);
                    }
                }
                if status == Status::Done {
                    active[pid] = false;
                    if let Some(st) = step_trace.as_mut() {
                        st.finished[pid] = true;
                    }
                }
            }

            // Stalled components keep their undelivered inbox alongside the
            // new arrivals (the sort below merges them deterministically).
            for pid in stalled {
                let retained = std::mem::take(&mut inboxes[pid]);
                next_inboxes[pid].splice(0..0, retained);
            }
            for ib in next_inboxes.iter_mut() {
                ib.sort_unstable_by_key(|m| (m.src, m.tag));
            }

            let h = max_sent.max(received.iter().copied().max().unwrap_or(0));
            let cost = self.superstep_cost(w, h);
            ledger.push(PhaseCost {
                m_op: w,
                m_rw: h.max(1),
                kappa: 1,
                cost,
            });
            if let Some(inj) = injector.as_ref() {
                inj.check_cost(ledger.total_time())?;
            }
            if let Some(t) = trace.as_mut() {
                t.total_steps += 1;
                match step_trace {
                    Some(st) => t.steps.push(st),
                    None => t.truncated = true,
                }
            }
            inboxes = next_inboxes;
            step_no += 1;
        }

        Ok(BspRunResult {
            states,
            ledger,
            faults: injector.map(FaultInjector::into_log),
            trace,
        })
    }

    /// The pooled fast path: inbox double-buffering and outbox arena reuse
    /// make steady-state supersteps allocation-free. Observationally
    /// identical to [`BspMachine::execute_reference`].
    fn execute_pooled<P: BspProgram>(
        &self,
        program: &P,
        input: &[Word],
        want_trace: bool,
    ) -> Result<BspRunResult<P::Proc>> {
        let cap = self.opts.trace_phase_cap;
        let mut trace = want_trace.then(BspTrace::default);
        let parts = self.partition(input);
        let mut states: Vec<P::Proc> = parts
            .iter()
            .enumerate()
            .map(|(pid, sl)| program.create(pid, sl))
            .collect();
        let mut active = vec![true; self.p];
        let mut inboxes: Vec<Vec<Msg>> = vec![Vec::new(); self.p];
        // Double buffer for next-superstep deliveries: swapped with
        // `inboxes` at the end of each step so capacities are recycled.
        let mut next_inboxes: Vec<Vec<Msg>> = vec![Vec::new(); self.p];
        let mut ledger = self.opts.new_ledger();
        let mut injector = self.faults.as_ref().map(FaultInjector::new);
        let step_limit = injector
            .as_ref()
            .map_or(self.max_steps, |i| i.effective_phase_limit(self.max_steps));
        let mut local_step: Vec<usize> = vec![0; self.p];

        // Per-run scratch, allocated once and reused across supersteps.
        let mut received: Vec<u64> = vec![0; self.p];
        let mut stalled: Vec<usize> = Vec::new();
        let mut outbox_buf: Vec<(usize, Msg)> = Vec::new();

        let mut step_no = 0usize;
        while active.iter().any(|&a| a) {
            if step_no >= step_limit {
                return Err(ModelError::PhaseLimitExceeded { limit: step_limit });
            }
            self.check_cancel(step_no)?;
            for ib in next_inboxes.iter_mut() {
                ib.clear();
            }
            received.fill(0);
            stalled.clear();
            let mut w: u64 = 0;
            let mut max_sent: u64 = 0;
            let mut step_trace =
                trace
                    .as_ref()
                    .filter(|t| t.steps.len() < cap)
                    .map(|_| BspStepTrace {
                        sent: vec![Vec::new(); self.p],
                        received: vec![Vec::new(); self.p],
                        executed: vec![false; self.p],
                        finished: vec![false; self.p],
                    });

            for pid in 0..self.p {
                if !active[pid] {
                    continue;
                }
                if let Some(inj) = injector.as_mut() {
                    if inj.crash_at(pid, step_no) {
                        return Err(ModelError::FaultAborted {
                            phase: step_no,
                            reason: format!("component {pid} crashed"),
                        });
                    }
                    if inj.stall_at(pid, step_no) {
                        stalled.push(pid);
                        continue;
                    }
                }
                let inbox = std::mem::take(&mut inboxes[pid]);
                let mut ctx = Superstep::with_buffer(
                    local_step[pid],
                    &inbox,
                    std::mem::take(&mut outbox_buf),
                );
                let status = program.superstep(pid, &mut states[pid], &mut ctx);
                local_step[pid] += 1;

                let sent = ctx.outbox.len() as u64;
                let recv = inbox.len() as u64;
                w = w.max(ctx.ops + sent + recv);
                max_sent = max_sent.max(sent);
                if let Some(st) = step_trace.as_mut() {
                    st.executed[pid] = true;
                    st.received[pid] = inbox.clone();
                }

                let mut outbox = ctx.outbox;
                for (dest, mut msg) in outbox.drain(..) {
                    if dest >= self.p {
                        return Err(ModelError::BadProcessor {
                            pid: dest,
                            num_procs: self.p,
                        });
                    }
                    msg.src = pid;
                    if let Some(st) = step_trace.as_mut() {
                        st.sent[pid].push((dest, msg));
                    }
                    let copies = match injector.as_mut() {
                        Some(inj) => {
                            if inj.drop_message() {
                                0
                            } else if inj.duplicate_message() {
                                2
                            } else {
                                1
                            }
                        }
                        None => 1,
                    };
                    for _ in 0..copies {
                        received[dest] += 1;
                        next_inboxes[dest].push(msg);
                    }
                }
                outbox_buf = outbox;
                if status == Status::Done {
                    active[pid] = false;
                    if let Some(st) = step_trace.as_mut() {
                        st.finished[pid] = true;
                    }
                }
                // Recycle the consumed inbox: after the end-of-step swap it
                // becomes a delivery buffer for a later superstep.
                let mut ib = inbox;
                ib.clear();
                inboxes[pid] = ib;
            }

            for &pid in &stalled {
                let retained = std::mem::take(&mut inboxes[pid]);
                next_inboxes[pid].splice(0..0, retained);
            }
            for ib in next_inboxes.iter_mut() {
                ib.sort_unstable_by_key(|m| (m.src, m.tag));
            }

            let h = max_sent.max(received.iter().copied().max().unwrap_or(0));
            let cost = self.superstep_cost(w, h);
            ledger.push(PhaseCost {
                m_op: w,
                m_rw: h.max(1),
                kappa: 1,
                cost,
            });
            if let Some(inj) = injector.as_ref() {
                inj.check_cost(ledger.total_time())?;
            }
            if let Some(t) = trace.as_mut() {
                t.total_steps += 1;
                match step_trace {
                    Some(st) => t.steps.push(st),
                    None => t.truncated = true,
                }
            }
            std::mem::swap(&mut inboxes, &mut next_inboxes);
            step_no += 1;
        }

        Ok(BspRunResult {
            states,
            ledger,
            faults: injector.map(FaultInjector::into_log),
            trace,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_l_less_than_g() {
        assert!(BspMachine::new(4, 8, 2).is_err());
        assert!(BspMachine::new(0, 1, 1).is_err());
        assert!(BspMachine::new(4, 2, 8).is_ok());
    }

    #[test]
    fn superstep_cost_matches_definition() {
        let m = BspMachine::new(4, 2, 10).unwrap();
        assert_eq!(m.superstep_cost(3, 1), 10); // L dominates
        assert_eq!(m.superstep_cost(3, 50), 100); // g*h dominates
        assert_eq!(m.superstep_cost(500, 50), 500); // w dominates
    }

    #[test]
    fn partition_is_uniform_ceil_floor() {
        let m = BspMachine::new(4, 1, 1).unwrap();
        let input: Vec<Word> = (0..10).collect();
        let parts = m.partition(&input);
        let sizes: Vec<usize> = parts.iter().map(|s| s.len()).collect();
        assert_eq!(sizes, vec![3, 3, 2, 2]);
        let flat: Vec<Word> = parts.concat();
        assert_eq!(flat, input);
    }

    #[test]
    fn partition_handles_fewer_inputs_than_procs() {
        let m = BspMachine::new(8, 1, 1).unwrap();
        let input: Vec<Word> = vec![1, 2, 3];
        let sizes: Vec<usize> = m.partition(&input).iter().map(|s| s.len()).collect();
        assert_eq!(sizes, vec![1, 1, 1, 0, 0, 0, 0, 0]);
    }

    /// Sum reduction to component 0 via direct sends.
    #[test]
    fn message_passing_sum() {
        let prog = BspFnProgram::new(
            |_, local: &[Word]| (local.iter().sum::<Word>(), 0i64),
            |pid, st: &mut (Word, Word), ctx: &mut Superstep<'_>| match ctx.step() {
                0 => {
                    if pid != 0 {
                        ctx.send(0, 0, st.0);
                        Status::Done
                    } else {
                        Status::Active
                    }
                }
                _ => {
                    st.1 = st.0 + ctx.inbox().iter().map(|m| m.value).sum::<Word>();
                    Status::Done
                }
            },
        );
        let m = BspMachine::new(4, 2, 5).unwrap();
        let input: Vec<Word> = (1..=12).collect();
        let res = m.run(&prog, &input).unwrap();
        assert_eq!(res.states[0].1, 78);
        // Superstep 0: each non-root sends 1 message, root receives 3:
        // h = 3, w small -> cost = max(w, 2*3, 5) = 6. Superstep 1: only
        // local work at root; cost = L = 5.
        assert_eq!(res.ledger.phases()[0].cost, 6);
        assert_eq!(res.ledger.phases()[1].cost, 5);
        assert_eq!(res.time(), 11);
    }

    #[test]
    fn inbox_is_sorted_by_src_then_tag() {
        let prog = BspFnProgram::new(
            |_, _: &[Word]| Vec::<(usize, Word)>::new(),
            |pid, seen: &mut Vec<(usize, Word)>, ctx: &mut Superstep<'_>| match ctx.step() {
                0 => {
                    if pid > 0 {
                        ctx.send(0, (10 - pid) as Word, pid as Word);
                        Status::Done
                    } else {
                        Status::Active
                    }
                }
                _ => {
                    seen.extend(ctx.inbox().iter().map(|m| (m.src, m.value)));
                    Status::Done
                }
            },
        );
        let m = BspMachine::new(4, 1, 1).unwrap();
        let res = m.run(&prog, &[]).unwrap();
        assert_eq!(res.states[0], vec![(1, 1), (2, 2), (3, 3)]);
    }

    #[test]
    fn bad_destination_is_rejected() {
        let prog = BspFnProgram::new(
            |_, _: &[Word]| (),
            |_, _, ctx: &mut Superstep<'_>| {
                ctx.send(99, 0, 0);
                Status::Done
            },
        );
        let m = BspMachine::new(4, 1, 1).unwrap();
        assert!(matches!(
            m.run(&prog, &[]),
            Err(ModelError::BadProcessor { pid: 99, .. })
        ));
    }

    #[test]
    fn every_superstep_costs_at_least_l() {
        let prog = BspFnProgram::new(
            |_, _: &[Word]| (),
            |_, _, ctx: &mut Superstep<'_>| {
                if ctx.step() < 3 {
                    Status::Active
                } else {
                    Status::Done
                }
            },
        );
        let m = BspMachine::new(2, 2, 7).unwrap();
        let res = m.run(&prog, &[]).unwrap();
        assert_eq!(res.supersteps(), 4);
        assert_eq!(res.time(), 28);
    }

    #[test]
    fn trace_records_sends_receipts_and_completion() {
        let prog = BspFnProgram::new(
            |_, _: &[Word]| (),
            |pid, _, ctx: &mut Superstep<'_>| match ctx.step() {
                0 => {
                    if pid == 1 {
                        ctx.send(0, 7, 42);
                        Status::Done
                    } else {
                        Status::Active
                    }
                }
                _ => Status::Done,
            },
        );
        let m = BspMachine::new(2, 1, 1).unwrap();
        assert!(m.run(&prog, &[]).unwrap().trace.is_none());
        let (_, trace) = m.run_traced(&prog, &[]).unwrap();
        assert_eq!(trace.steps.len(), 2);
        let msg = Msg {
            src: 1,
            tag: 7,
            value: 42,
        };
        assert_eq!(trace.steps[0].sent[1], vec![(0, msg)]);
        assert_eq!(trace.steps[0].finished, vec![false, true]);
        assert_eq!(trace.steps[1].received[0], vec![msg]);
        assert_eq!(trace.steps[1].executed, vec![true, false]);
        let traced = m.clone().with_tracing().run(&prog, &[]).unwrap();
        assert_eq!(traced.trace.unwrap().steps.len(), 2);
    }

    #[test]
    fn runaway_program_hits_step_limit() {
        let prog = BspFnProgram::new(
            |_, _: &[Word]| (),
            |_, _, _: &mut Superstep<'_>| Status::Active,
        );
        let m = BspMachine::new(2, 1, 1).unwrap().with_max_steps(5);
        assert!(matches!(
            m.run(&prog, &[]),
            Err(ModelError::PhaseLimitExceeded { limit: 5 })
        ));
    }
}
