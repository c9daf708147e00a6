//! Failure injection: programs that violate the model rules must be
//! rejected with the right error — never silently reinterpreted — on every
//! engine. The paper's bounds quantify over *legal* programs, so the
//! simulators' rejection behaviour is part of their correctness contract.

use parbounds_models::{
    BspFnProgram, BspMachine, FnProgram, GsmEnv, GsmFnProgram, GsmMachine, ModelError, PhaseEnv,
    QsmMachine, Status, Superstep, Word,
};

#[test]
fn qsm_rejects_read_write_conflicts_in_every_flavor() {
    let mk = || {
        FnProgram::new(
            2,
            |_| (),
            |pid, _, env: &mut PhaseEnv<'_>| {
                if pid == 0 {
                    env.read(42);
                } else {
                    env.write(42, 1);
                }
                Status::Done
            },
        )
    };
    for machine in [
        QsmMachine::qsm(2),
        QsmMachine::sqsm(2),
        QsmMachine::qrqw(),
        QsmMachine::qsm_unit_cr(2),
        QsmMachine::qsm_gd(8, 3),
    ] {
        let err = machine.run(&mk(), &[]).unwrap_err();
        assert!(
            matches!(err, ModelError::ReadWriteConflict { addr: 42, phase: 0 }),
            "{err}"
        );
    }
}

#[test]
fn same_processor_self_conflict_is_also_rejected() {
    // Even a single processor may not read and write one cell in a phase.
    let prog = FnProgram::new(
        1,
        |_| (),
        |_, _, env: &mut PhaseEnv<'_>| {
            env.read(7);
            env.write(7, 1);
            Status::Done
        },
    );
    assert!(matches!(
        QsmMachine::qsm(1).run(&prog, &[]),
        Err(ModelError::ReadWriteConflict { addr: 7, .. })
    ));
}

#[test]
fn conflicts_in_later_phases_report_the_phase() {
    let prog = FnProgram::new(
        2,
        |_| (),
        |pid, _, env: &mut PhaseEnv<'_>| match env.phase() {
            0 => Status::Active,
            1 => Status::Active,
            _ => {
                if pid == 0 {
                    env.read(5);
                } else {
                    env.write(5, 9);
                }
                Status::Done
            }
        },
    );
    assert!(matches!(
        QsmMachine::qsm(1).run(&prog, &[]),
        Err(ModelError::ReadWriteConflict { addr: 5, phase: 2 })
    ));
}

#[test]
fn gsm_rejects_conflicts_and_bsp_rejects_bad_destinations() {
    let gsm_prog = GsmFnProgram::new(
        2,
        |_| (),
        |pid, _, env: &mut GsmEnv<'_>| {
            if pid == 0 {
                env.read(3);
            } else {
                env.write(3, 1);
            }
            Status::Done
        },
    );
    assert!(matches!(
        GsmMachine::new(1, 1, 1).run(&gsm_prog, &[]),
        Err(ModelError::ReadWriteConflict { addr: 3, .. })
    ));

    let bsp_prog = BspFnProgram::new(
        |_, _: &[Word]| (),
        |_, _, ctx: &mut Superstep<'_>| {
            ctx.send(1_000_000, 0, 0);
            Status::Done
        },
    );
    assert!(matches!(
        BspMachine::new(4, 1, 2).unwrap().run(&bsp_prog, &[]),
        Err(ModelError::BadProcessor {
            pid: 1_000_000,
            num_procs: 4
        })
    ));
}

#[test]
fn runaway_programs_hit_phase_limits_everywhere() {
    let qsm = FnProgram::new(1, |_| (), |_, _, _: &mut PhaseEnv<'_>| Status::Active);
    assert!(matches!(
        QsmMachine::qsm(1).with_max_phases(7).run(&qsm, &[]),
        Err(ModelError::PhaseLimitExceeded { limit: 7 })
    ));
    let gsm = GsmFnProgram::new(1, |_| (), |_, _, _: &mut GsmEnv<'_>| Status::Active);
    assert!(matches!(
        GsmMachine::new(1, 1, 1).with_max_phases(7).run(&gsm, &[]),
        Err(ModelError::PhaseLimitExceeded { limit: 7 })
    ));
    let bsp = BspFnProgram::new(
        |_, _: &[Word]| (),
        |_, _, _: &mut Superstep<'_>| Status::Active,
    );
    assert!(matches!(
        BspMachine::new(2, 1, 1)
            .unwrap()
            .with_max_phases(7)
            .run(&bsp, &[]),
        Err(ModelError::PhaseLimitExceeded { limit: 7 })
    ));
}

#[test]
fn memory_limit_is_enforced() {
    let prog = FnProgram::new(
        1,
        |_| (),
        |_, _, env: &mut PhaseEnv<'_>| {
            env.write(1 << 34, 1);
            Status::Done
        },
    );
    let err = QsmMachine::qsm(1).run(&prog, &[]).unwrap_err();
    assert!(matches!(err, ModelError::MemoryLimitExceeded { .. }));
}

#[test]
fn bad_configs_are_rejected_up_front() {
    assert!(matches!(
        BspMachine::new(0, 1, 1),
        Err(ModelError::BadConfig(_))
    ));
    assert!(matches!(
        BspMachine::new(4, 8, 2),
        Err(ModelError::BadConfig(_))
    )); // L < g
    let empty = FnProgram::new(0, |_| (), |_, _, _: &mut PhaseEnv<'_>| Status::Done);
    assert!(matches!(
        QsmMachine::qsm(1).run(&empty, &[]),
        Err(ModelError::BadConfig(_))
    ));
    let empty_gsm = GsmFnProgram::new(0, |_| (), |_, _, _: &mut GsmEnv<'_>| Status::Done);
    assert!(matches!(
        GsmMachine::new(1, 1, 1).run(&empty_gsm, &[]),
        Err(ModelError::BadConfig(_))
    ));
}

#[test]
fn errors_do_not_corrupt_the_machine_value() {
    // A machine is a value; a failed run must not poison later runs.
    let machine = QsmMachine::qsm(2);
    let bad = FnProgram::new(
        2,
        |_| (),
        |pid, _, env: &mut PhaseEnv<'_>| {
            if pid == 0 {
                env.read(1);
            } else {
                env.write(1, 1);
            }
            Status::Done
        },
    );
    assert!(machine.run(&bad, &[]).is_err());
    let good = FnProgram::new(
        1,
        |_| (),
        |_, _, env: &mut PhaseEnv<'_>| {
            env.write(0, 5);
            Status::Done
        },
    );
    let res = machine.run(&good, &[]).unwrap();
    assert_eq!(res.memory.get(0), 5);
}
