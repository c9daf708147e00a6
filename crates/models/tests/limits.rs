//! Execution-hardening regression tests: every engine ships with a finite
//! default phase limit, and a program that never terminates comes back as
//! a typed [`ModelError::PhaseLimitExceeded`] on all four models — never a
//! hang, never a panic. Address and processor-count limits are typed
//! errors too.

use parbounds_models::{
    BspFnProgram, BspMachine, FaultPlan, FnProgram, GsmEnv, GsmFnProgram, GsmMachine, ModelError,
    PhaseEnv, QsmMachine, Status, Superstep, Word, DEFAULT_MEM_LIMIT,
};

/// The default limit shared by all engines.
const DEFAULT_LIMIT: usize = 1 << 20;

#[test]
fn default_phase_limits_are_finite_on_all_four_engines() {
    assert_eq!(QsmMachine::qsm(4).max_phases(), DEFAULT_LIMIT);
    assert_eq!(QsmMachine::sqsm(4).max_phases(), DEFAULT_LIMIT);
    assert_eq!(
        BspMachine::new(4, 2, 4).unwrap().max_phases(),
        DEFAULT_LIMIT
    );
    assert_eq!(GsmMachine::new(2, 2, 4).max_phases(), DEFAULT_LIMIT);
}

/// A shared-memory program that spins forever.
fn spinning_qsm() -> impl parbounds_models::Program<Proc = ()> {
    FnProgram::new(2, |_pid| (), |_pid, _s: &mut (), _env| Status::Active)
}

#[test]
fn infinite_loop_on_qsm_returns_phase_limit_exceeded() {
    let err = QsmMachine::qsm(4)
        .with_max_phases(64)
        .run(&spinning_qsm(), &[])
        .unwrap_err();
    assert!(
        matches!(err, ModelError::PhaseLimitExceeded { limit: 64 }),
        "{err:?}"
    );
}

#[test]
fn infinite_loop_on_sqsm_returns_phase_limit_exceeded() {
    let err = QsmMachine::sqsm(4)
        .with_max_phases(64)
        .run(&spinning_qsm(), &[])
        .unwrap_err();
    assert!(
        matches!(err, ModelError::PhaseLimitExceeded { limit: 64 }),
        "{err:?}"
    );
}

#[test]
fn infinite_loop_on_bsp_returns_phase_limit_exceeded() {
    let prog = BspFnProgram::new(
        |_pid, _local: &[Word]| (),
        |_pid, _s: &mut (), _ctx| Status::Active,
    );
    let machine = BspMachine::new(4, 2, 4).unwrap().with_max_phases(64);
    let err = machine.run(&prog, &[1, 2, 3, 4]).unwrap_err();
    assert!(
        matches!(err, ModelError::PhaseLimitExceeded { limit: 64 }),
        "{err:?}"
    );
}

#[test]
fn infinite_loop_on_gsm_returns_phase_limit_exceeded() {
    let prog = GsmFnProgram::new(2, |_pid| (), |_pid, _s: &mut (), _env| Status::Active);
    let err = GsmMachine::new(2, 2, 4)
        .with_max_phases(64)
        .run(&prog, &[])
        .unwrap_err();
    assert!(
        matches!(err, ModelError::PhaseLimitExceeded { limit: 64 }),
        "{err:?}"
    );
}

#[test]
fn fault_plan_phase_budget_tightens_the_machine_limit() {
    // A plan budget below the machine limit wins …
    let machine = QsmMachine::qsm(4)
        .with_max_phases(64)
        .with_faults(FaultPlan::new(1).with_phase_budget(8));
    let err = machine.run(&spinning_qsm(), &[]).unwrap_err();
    assert!(
        matches!(err, ModelError::PhaseLimitExceeded { limit: 8 }),
        "{err:?}"
    );

    // … and a looser plan budget never loosens the machine limit.
    let machine = QsmMachine::qsm(4)
        .with_max_phases(64)
        .with_faults(FaultPlan::new(1).with_phase_budget(1 << 19));
    let err = machine.run(&spinning_qsm(), &[]).unwrap_err();
    assert!(
        matches!(err, ModelError::PhaseLimitExceeded { limit: 64 }),
        "{err:?}"
    );
}

/// A GSM program whose single processor writes 7 at `addr`, reads it back
/// and copies what it saw into cell 1.
fn gsm_far_write(addr: usize) -> impl parbounds_models::GsmProgram<Proc = ()> {
    GsmFnProgram::new(
        1,
        |_pid| (),
        move |_pid, _s: &mut (), env: &mut GsmEnv<'_>| match env.phase() {
            0 => {
                env.write(addr, 7);
                Status::Active
            }
            1 => {
                env.read(addr);
                Status::Active
            }
            _ => {
                let seen: Word = env.contents(addr).unwrap_or(&[]).iter().sum();
                env.write(1, seen);
                Status::Done
            }
        },
    )
}

#[test]
fn gsm_writes_stop_at_the_shared_address_limit() {
    assert_eq!(DEFAULT_MEM_LIMIT, 1 << 34);
    let machine = GsmMachine::new(1, 1, 1);
    for m in [machine.clone(), machine.with_reference_routing()] {
        let err = m.run(&gsm_far_write(1 << 34), &[]).unwrap_err();
        assert_eq!(
            err,
            ModelError::MemoryLimitExceeded {
                addr: 1 << 34,
                limit: 1 << 34
            }
        );
        let last = (1 << 34) - 1;
        let res = m.run(&gsm_far_write(last), &[]).unwrap();
        assert_eq!(res.memory.get(last), &[7]);
        assert_eq!(res.memory.get(1), &[7]);
        let cells: Vec<(usize, Vec<Word>)> =
            res.memory.cells().map(|(a, c)| (a, c.to_vec())).collect();
        assert_eq!(cells, vec![(1, vec![7]), (last, vec![7])], "address order");
    }
}

#[test]
fn dense_engines_refuse_more_processors_than_u32_pids() {
    let n = u32::MAX as usize + 1;
    let qsm = FnProgram::new(n, |_pid| (), |_pid, _s: &mut (), _env| Status::Done);
    let err = QsmMachine::qsm(1).run(&qsm, &[]).unwrap_err();
    assert!(matches!(err, ModelError::BadConfig(_)), "{err:?}");
    let gsm = GsmFnProgram::new(n, |_pid| (), |_pid, _s: &mut (), _env| Status::Done);
    let err = GsmMachine::new(1, 1, 1).run(&gsm, &[]).unwrap_err();
    assert!(matches!(err, ModelError::BadConfig(_)), "{err:?}");
}

/// Active for phases 0 and 1, done in phase 2: a three-phase run.
fn third_phase_status(phase: usize) -> Status {
    if phase < 2 {
        Status::Active
    } else {
        Status::Done
    }
}

#[test]
fn qsm_trace_past_the_phase_cap_is_truncated() {
    let prog = FnProgram::new(
        1,
        |_pid| (),
        |_pid, _s: &mut (), env: &mut PhaseEnv<'_>| {
            env.write(env.phase(), 1);
            third_phase_status(env.phase())
        },
    );
    let machine = QsmMachine::qsm(2).with_trace_cap(2).with_tracing();
    let trace = machine.run(&prog, &[]).unwrap().trace.expect("traced run");
    assert_eq!(trace.phases.len(), 2);
    assert_eq!(trace.total_phases, 3);
    assert!(trace.truncated);
}

#[test]
fn gsm_trace_past_the_phase_cap_is_truncated() {
    let prog = GsmFnProgram::new(
        1,
        |_pid| (),
        |_pid, _s: &mut (), env: &mut GsmEnv<'_>| {
            env.write(env.phase(), 1);
            third_phase_status(env.phase())
        },
    );
    let machine = GsmMachine::new(1, 1, 1).with_trace_cap(2).with_tracing();
    let trace = machine.run(&prog, &[]).unwrap().trace.expect("traced run");
    assert_eq!(trace.phases.len(), 2);
    assert_eq!(trace.total_phases, 3);
    assert!(trace.truncated);
}

#[test]
fn bsp_trace_past_the_step_cap_is_truncated() {
    let prog = BspFnProgram::new(
        |_pid, _local: &[Word]| (),
        |pid, _s: &mut (), ctx: &mut Superstep<'_>| {
            ctx.send(1 - pid, 0, ctx.step() as Word);
            third_phase_status(ctx.step())
        },
    );
    let machine = BspMachine::new(2, 1, 1)
        .unwrap()
        .with_trace_cap(2)
        .with_tracing();
    let trace = machine.run(&prog, &[]).unwrap().trace.expect("traced run");
    assert_eq!(trace.steps.len(), 2);
    assert_eq!(trace.total_steps, 3);
    assert!(trace.truncated);
}
