//! # parbounds-models
//!
//! Cost-exact simulators for the four models of parallel computation studied
//! in MacKenzie & Ramachandran, *Computational Bounds for Fundamental
//! Problems on General-Purpose Parallel Models* (SPAA 1998):
//!
//! * [`QsmMachine`] — the Queuing Shared Memory model QSM(g), its symmetric
//!   variant s-QSM(g), the QRQW PRAM special case (g = 1), and the
//!   unit-time-concurrent-reads variant of Theorem 3.1;
//! * [`GsmMachine`] — the Generalized Shared Memory lower-bound model
//!   GSM(α, β, γ) with strong-queuing (information-merging) cells;
//! * [`BspMachine`] — Valiant's Bulk-Synchronous Parallel model BSP(p, g, L).
//!
//! All three are one [`Machine`]: the model's own parameters plus the run
//! policy every model shares ([`ExecOptions`]).
//!
//! Programs are bulk-synchronous descriptions (traits [`Program`],
//! [`GsmProgram`], [`BspProgram`]); the machines execute them and charge
//! *exactly* the per-phase cost formulas of Section 2 of the paper, recording
//! everything in a [`CostLedger`]. The ledger supports the Section 2.3
//! *rounds* predicate, and the traced execution modes expose the raw
//! `Trace(v, t, f)` material the paper's lower-bound proofs quantify over.
//!
//! ## Quick example
//!
//! ```
//! use parbounds_models::{FnProgram, PhaseEnv, QsmMachine, Status, Word};
//!
//! // Two processors each read one input cell, then write it back shifted.
//! let prog = FnProgram::new(
//!     2,
//!     |_pid| 0 as Word,
//!     |pid, acc: &mut Word, env: &mut PhaseEnv<'_>| match env.phase() {
//!         0 => { env.read(pid); Status::Active }
//!         _ => {
//!             *acc = env.delivered()[0].1;
//!             env.write(100 + pid, *acc);
//!             Status::Done
//!         }
//!     },
//! );
//! let machine = QsmMachine::qsm(4);
//! let result = machine.run(&prog, &[10, 32]).unwrap();
//! assert_eq!(result.memory.get(100), 10);
//! assert_eq!(result.memory.get(101), 32);
//! // Each phase moves one word per processor: cost g per phase.
//! assert_eq!(result.time(), 8);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bsp;
pub mod cancel;
pub mod contract;
mod cost;
mod error;
pub mod exec;
pub mod faults;
mod gsm;
mod machine;
mod qsm;
mod shared;
pub mod work;

pub use bsp::{
    Bsp, BspFnProgram, BspMachine, BspProgram, BspRunResult, BspStepTrace, BspTrace, Msg, Superstep,
};
pub use cancel::CancelToken;
pub use contract::{ContractMetric, ContractParams, CostContract};
pub use cost::{round_budget_bsp, round_budget_gsm, round_budget_qsm, CostLedger, PhaseCost};
pub use error::{ModelError, Result};
pub use exec::{ExecOptions, DEFAULT_TRACE_PHASE_CAP, LANE_PAGE_WORDS};
pub use faults::{ChoicePoint, FaultInjector, FaultLog, FaultPlan, WinnerPolicy};
pub use gsm::{
    CellContent, Gsm, GsmEnv, GsmFnProgram, GsmMachine, GsmMemory, GsmPhaseTrace, GsmProgram,
    GsmRunResult, GsmTrace,
};
pub use machine::Machine;
pub use qsm::{ExecTrace, PhaseTrace, Qsm, QsmFlavor, QsmMachine, RunResult};
pub use shared::{
    Addr, FnProgram, Memory, PhaseEnv, Program, Status, Word, DEFAULT_MEM_LIMIT, PAGE_SHIFT,
    PAGE_WORDS,
};
