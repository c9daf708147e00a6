//! One machine shell for every model.
//!
//! The models of Section 2 differ only in how a phase's requests are
//! resolved and charged. A [`Machine`] pairs a model's own parameters
//! ([`Qsm`](crate::Qsm), [`Gsm`](crate::Gsm) or [`Bsp`](crate::Bsp)) with
//! the run policy every model shares ([`ExecOptions`]), and the builders
//! and getters over that policy are written here once. Constructors, cost
//! rules and `run`/`run_traced` live with each model.

use crate::cancel::CancelToken;
use crate::exec::ExecOptions;
use crate::faults::FaultPlan;

/// A machine: model parameters `M` plus the shared run policy.
/// [`QsmMachine`](crate::QsmMachine), [`GsmMachine`](crate::GsmMachine)
/// and [`BspMachine`](crate::BspMachine) are its three instances.
#[derive(Debug, Clone)]
pub struct Machine<M> {
    pub(crate) model: M,
    pub(crate) opts: ExecOptions,
}

impl<M> Machine<M> {
    /// A machine for `model` under the default run policy.
    pub(crate) fn with_model(model: M) -> Self {
        let opts = ExecOptions::default();
        Machine { model, opts }
    }

    /// Sets the runaway-protection phase (superstep) limit.
    pub fn with_max_phases(mut self, max_phases: usize) -> Self {
        self.opts.max_phases = max_phases;
        self
    }

    /// Attaches a [`FaultPlan`]: every subsequent run injects the faults
    /// that apply to its model and reports a [`FaultLog`](crate::FaultLog).
    /// (GSM cells merge all writes, so winner policies do not apply there;
    /// only the BSP has messages to drop or duplicate.) Faulted runs execute
    /// on the model's reference engine.
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.opts.faults = Some(plan);
        self
    }

    /// Detaches any fault plan (used to obtain fault-free baselines).
    pub fn without_faults(mut self) -> Self {
        self.opts.faults = None;
        self
    }

    /// Attaches a [`CancelToken`]: every subsequent run checks it at each
    /// phase boundary and stops with
    /// [`ModelError::DeadlineExceeded`](crate::ModelError::DeadlineExceeded)
    /// once it trips, before the phase's effects are applied.
    pub fn with_cancel(mut self, token: CancelToken) -> Self {
        self.opts.cancel = Some(token);
        self
    }

    /// Makes every subsequent `run` record a trace into its result, so
    /// algorithm entry points that call `run` internally expose traces
    /// (the analyzer's lint pass relies on it). Traced runs execute on the
    /// model's reference engine.
    pub fn with_tracing(mut self) -> Self {
        self.opts.record_trace = true;
        self
    }

    /// Sets the maximum number of phases a recorded trace retains.
    pub fn with_trace_cap(mut self, cap: usize) -> Self {
        self.opts.trace_phase_cap = cap;
        self
    }

    /// Folds run ledgers into running aggregates instead of retaining
    /// per-phase records (see
    /// [`CostLedger::streaming`](crate::cost::CostLedger::streaming)); the
    /// million-scale sweeps run with this on.
    pub fn with_streaming_ledger(mut self) -> Self {
        self.opts.streaming_ledger = true;
        self
    }

    /// Runs on the original map-based engines, the executable
    /// specification the differential suites test the fast engines
    /// against. Algorithm entry points run `machine.run` themselves, so
    /// this test oracle is selected on the machine.
    pub fn with_reference_routing(mut self) -> Self {
        self.opts.reference = true;
        self
    }

    /// The run policy currently in force.
    pub fn options(&self) -> &ExecOptions {
        &self.opts
    }

    /// The attached fault plan, if any.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.opts.faults.as_ref()
    }

    /// The attached cancellation token, if any.
    pub fn cancel_token(&self) -> Option<&CancelToken> {
        self.opts.cancel.as_ref()
    }

    /// The runaway-protection phase (superstep) limit.
    pub fn max_phases(&self) -> usize {
        self.opts.max_phases
    }
}
