//! Differential proof that the dense fast paths are the reference semantics.
//!
//! Every machine runs each program twice — once on the default dense
//! engines and once with `with_reference_routing()` (the original
//! map-based engines) — and the full run records must match bit for bit:
//! committed memory, per-phase [`parbounds_models::CostLedger`]s and
//! errors. Programs come from the Section 8 algorithm families in
//! `parbounds-algo` plus property-generated random request schedules, so
//! RNG arbitration and conflict errors are pinned. The machines are
//! untraced and carry no fault plan: an instrumented run (a
//! [`FaultPlan`] or tracing) goes to the reference engine whatever the
//! machine, so only uninstrumented machines put the fast engines under
//! test. The fault-plan tests instead pin that routing, and the reference
//! engine's stall, crash and budget semantics.

use proptest::prelude::*;

use parbounds_algo::broadcast::broadcast;
use parbounds_algo::bsp_algos::{bsp_broadcast, bsp_prefix_sums, bsp_reduce, bsp_sort_odd_even};
use parbounds_algo::gsm_algos::{gsm_parity, gsm_tree_reduce};
use parbounds_algo::lac::lac_dart;
use parbounds_algo::or_tree::or_write_tree;
use parbounds_algo::parity::parity_pattern_helper;
use parbounds_algo::prefix::prefix_in_rounds;
use parbounds_algo::reduce::{parity_read_tree, tree_reduce};
use parbounds_algo::util::ReduceOp;
use parbounds_models::{BspMachine, FaultPlan, FnProgram, GsmMachine, QsmMachine, Status, Word};

fn bits(n: usize, stride: usize) -> Vec<Word> {
    (0..n).map(|i| Word::from(i % stride == 0)).collect()
}

/// Runs `f` on the dense and the reference variant of `machine` and asserts
/// the outcomes are identical (both the success records and the errors).
fn qsm_equiv<T>(
    machine: QsmMachine,
    label: &str,
    f: impl Fn(&QsmMachine) -> parbounds_models::Result<T>,
    run_of: impl Fn(&T) -> &parbounds_models::RunResult,
) {
    let dense = f(&machine);
    let reference = f(&machine.with_reference_routing());
    match (&dense, &reference) {
        (Ok(d), Ok(r)) => {
            let (d, r) = (run_of(d), run_of(r));
            assert_eq!(d.ledger, r.ledger, "{label}: ledger");
            assert_eq!(d.memory, r.memory, "{label}: memory");
            assert_eq!(d.faults, r.faults, "{label}: fault log");
            assert_eq!(d.trace, r.trace, "{label}: trace");
        }
        (Err(de), Err(re)) => {
            assert_eq!(format!("{de}"), format!("{re}"), "{label}: error");
        }
        _ => panic!("{label}: divergent outcomes (dense vs reference)"),
    }
}

#[test]
fn or_write_tree_dense_matches_reference() {
    for flavor in [
        QsmMachine::qsm(3),
        QsmMachine::sqsm(3),
        QsmMachine::qsm_unit_cr(3),
    ] {
        for n in [1usize, 2, 9, 33, 128] {
            for k in [2usize, 4] {
                let input = bits(n, 3);
                qsm_equiv(
                    flavor.clone(),
                    &format!("or_write_tree n={n} k={k}"),
                    move |m| or_write_tree(m, &input, k),
                    |o| &o.run,
                );
            }
        }
    }
}

#[test]
fn read_trees_dense_matches_reference() {
    for op in [ReduceOp::Sum, ReduceOp::Or, ReduceOp::Xor, ReduceOp::Max] {
        for n in [1usize, 5, 27, 100] {
            let input: Vec<Word> = (0..n as Word).map(|x| 2 * x - 9).collect();
            qsm_equiv(
                QsmMachine::sqsm(2),
                &format!("tree_reduce {op:?} n={n}"),
                move |m| tree_reduce(m, &input, 3, op),
                |o| &o.run,
            );
        }
    }
}

#[test]
fn prefix_and_broadcast_dense_match_reference() {
    for n in [1usize, 8, 31, 64] {
        let input: Vec<Word> = (0..n as Word).collect();
        for p in [1usize, 2, 7] {
            if p > n {
                continue;
            }
            let input = input.clone();
            qsm_equiv(
                QsmMachine::qsm(2),
                &format!("prefix n={n} p={p}"),
                move |m| prefix_in_rounds(m, &input, p, ReduceOp::Sum),
                |o| &o.run,
            );
        }
        qsm_equiv(
            QsmMachine::sqsm(4),
            &format!("broadcast n={n}"),
            move |m| broadcast(m, 77, n, 4),
            |o| &o.run,
        );
    }
}

#[test]
fn parity_helper_dense_matches_reference() {
    for n in [4usize, 16, 64] {
        let input = bits(n, 2);
        qsm_equiv(
            QsmMachine::qsm(8),
            &format!("parity_pattern_helper n={n}"),
            move |m| parity_pattern_helper(m, &input, 4),
            |o| &o.run,
        );
    }
}

#[test]
fn lac_dart_dense_matches_reference() {
    // Dart throwing stresses multi-writer arbitration: many processors
    // contend for the same destination cells, so the machine RNG stream is
    // consumed heavily and any reordering in the fast path would surface.
    for n in [8usize, 32] {
        let input: Vec<Word> = (0..n).map(|i| Word::from(i % 3 != 0)).collect();
        for seed in [7u64, 0xfeed] {
            let input = input.clone();
            qsm_equiv(
                QsmMachine::qsm(2),
                &format!("lac_dart n={n} seed={seed}"),
                move |m| lac_dart(m, &input, 2 * n, seed),
                |o| &o.run,
            );
        }
    }
}

#[test]
fn qsm_fault_plans_dense_matches_reference() {
    // A machine with a fault plan runs on the reference engine on both
    // sides, so this pins the routing: a fast engine that ignored the plan
    // would answer differently. Stalls perturb delivery timing; the
    // injected phase budget must still be honoured.
    let input = bits(64, 2);
    for plan in [
        FaultPlan::new(11).with_stall(0, 1).with_stall(3, 2),
        FaultPlan::new(12).with_crash(2, 3),
        FaultPlan::new(13).with_phase_budget(2),
    ] {
        let input = input.clone();
        qsm_equiv(
            QsmMachine::qsm(3).with_faults(plan).with_tracing(),
            "or_write_tree under faults",
            move |m| or_write_tree(m, &input, 2),
            |o| &o.run,
        );
    }
    // Read tree, fan-in 4 over 64 bits: pids 0..15 read at phase 0 and
    // write at 1, pids 16..19 read at 2 and write at 3, pid 20 reads at 4.
    // Plan 14: pid 5 holds its 4 deliveries through two stalls while its
    // neighbours consume theirs, and the level-2 readers of phase 2 read
    // meanwhile. Plan 16: pid 0 writes its (nonzero) parity late, at phase
    // 3, into a cell pid 16 read at phase 2; pid 16 then stalls through
    // phases 3 and 4 and must still see the value it read, not the later
    // write.
    for plan in [
        FaultPlan::new(14).with_stall(5, 1).with_stall(5, 2),
        FaultPlan::new(16)
            .with_stall(0, 1)
            .with_stall(0, 2)
            .with_stall(16, 3)
            .with_stall(16, 4),
    ] {
        let tree_input = bits(64, 4);
        qsm_equiv(
            QsmMachine::qsm(3).with_faults(plan).with_tracing(),
            "parity_read_tree under stalls",
            move |m| parity_read_tree(m, &tree_input, 4),
            |o| &o.run,
        );
    }
    // Pattern helper, k = 4: checker 1 of team 0 (its bit matches, so it
    // never writes) stalls twice, and verifier 4 holds its team cell
    // across a stall before deciding.
    let helper_input = bits(16, 2);
    qsm_equiv(
        QsmMachine::qsm(8)
            .with_faults(
                FaultPlan::new(15)
                    .with_stall(1, 1)
                    .with_stall(1, 2)
                    .with_stall(4, 3),
            )
            .with_tracing(),
        "parity_pattern_helper under stalls",
        move |m| parity_pattern_helper(m, &helper_input, 4),
        |o| &o.run,
    );
}

#[test]
fn gsm_trees_dense_match_reference() {
    for (alpha, beta, gamma) in [(1u64, 1u64, 1u64), (4, 2, 8), (2, 8, 4)] {
        for n in [1usize, 16, 70] {
            let input = bits(n, 2);
            let machine = GsmMachine::new(alpha, beta, gamma);
            let dense = gsm_tree_reduce(&machine, &input, 3, ReduceOp::Sum);
            let reference = gsm_tree_reduce(
                &machine.clone().with_reference_routing(),
                &input,
                3,
                ReduceOp::Sum,
            );
            let (d, r) = (dense.unwrap(), reference.unwrap());
            assert_eq!(d.value, r.value, "GSM value α={alpha} β={beta} n={n}");
            assert_eq!(d.run.ledger, r.run.ledger, "GSM ledger");
            assert_eq!(d.run.memory, r.run.memory, "GSM memory");
            assert_eq!(d.run.trace, r.run.trace, "GSM trace");
            assert_eq!(d.run.faults, r.run.faults, "GSM faults");
            let d = gsm_parity(&machine, &input).unwrap();
            let r = gsm_parity(&machine.clone().with_reference_routing(), &input).unwrap();
            assert_eq!(d.value, r.value);
            assert_eq!(d.run.ledger, r.run.ledger);
        }
    }
}

#[test]
fn gsm_fault_plans_dense_match_reference() {
    // Both sides run on the reference engine (a fault plan is attached),
    // so this pins the routing and the spec engine's stall semantics.
    // Fan-in-8 tree over 64 cells: pids 0..63 are leaves (read at phase
    // 0, write at 1), 64..71 the level-1 nodes (read at 2, write at 3) and
    // 72 the root (read at 4, write at 5). In plan 31, leaves 0 and 5
    // stall between their read and their write, leaf 0 twice, so they
    // hold their cell contents while nodes 65..71 read fresh ones; each
    // parent stalls until its late children have written, so no
    // information is lost. In plan 34, leaf 1 writes after node 64 read
    // their cell, and node 64 holds its contents through two stalls: it
    // must deliver what it read, so the root misses leaf 1's 1.
    let input: Vec<Word> = (0..64).collect();
    let all = input.iter().sum::<Word>();
    for (plan, sum) in [
        (
            FaultPlan::new(31)
                .with_stall(0, 1)
                .with_stall(0, 2)
                .with_stall(5, 1)
                .with_stall(64, 2)
                .with_stall(64, 3)
                .with_stall(72, 4)
                .with_stall(72, 5),
            Some(all),
        ),
        (
            FaultPlan::new(34)
                .with_stall(1, 1)
                .with_stall(1, 2)
                .with_stall(64, 3)
                .with_stall(64, 4)
                .with_stall(72, 4)
                .with_stall(72, 5),
            Some(all - 1),
        ),
        (FaultPlan::new(32).with_crash(3, 1), None),
        (FaultPlan::new(33).with_phase_budget(3), None),
    ] {
        let machine = GsmMachine::new(1, 8, 1).with_faults(plan).with_tracing();
        let dense = gsm_tree_reduce(&machine, &input, 8, ReduceOp::Sum);
        let reference =
            gsm_tree_reduce(&machine.with_reference_routing(), &input, 8, ReduceOp::Sum);
        match (&dense, &reference) {
            (Ok(d), Ok(r)) => {
                assert_eq!(Some(d.value), sum, "GSM value under stalls");
                assert_eq!(d.value, r.value, "GSM value");
                assert_eq!(d.run.ledger, r.run.ledger, "GSM ledger");
                assert_eq!(d.run.memory, r.run.memory, "GSM memory");
                assert_eq!(d.run.trace, r.run.trace, "GSM trace");
                assert_eq!(d.run.faults, r.run.faults, "GSM fault log");
            }
            (Err(de), Err(re)) => {
                assert_eq!(sum, None, "GSM run failed: {de}");
                assert_eq!(format!("{de}"), format!("{re}"));
            }
            _ => panic!("divergent GSM fault outcomes (dense vs reference)"),
        }
    }
}

/// Requests far past the address limit. Pids 0 and 1 read `far` in
/// phase 0 and copy what they saw to cells 10 and 11 in phase 1; pid 2
/// writes cell 3, or `far` in phase 1 (`mode` 1) or in phase 0, against
/// the reads (`mode` 2). The dense lanes must count the far cell without
/// sizing anything by its address and answer as the reference engines do.
fn far_program(far: usize, mode: u8) -> impl parbounds_models::Program<Proc = ()> {
    FnProgram::new(
        3,
        |_pid| (),
        move |pid, _, env: &mut parbounds_models::PhaseEnv<'_>| match (pid, env.phase()) {
            (0 | 1, 0) => {
                env.read(far);
                Status::Active
            }
            (0 | 1, _) => {
                env.write(10 + pid, env.value(far).unwrap_or(-1));
                Status::Done
            }
            (_, 0) => {
                env.write(if mode == 2 { far } else { 3 }, 9);
                Status::Active
            }
            _ => {
                env.write(if mode == 1 { far } else { 3 }, 9);
                Status::Done
            }
        },
    )
}

/// [`far_program`] on the GSM, where a far read delivers an empty cell.
fn far_gsm_program(far: usize, mode: u8) -> impl parbounds_models::GsmProgram<Proc = ()> {
    parbounds_models::GsmFnProgram::new(
        3,
        |_pid| (),
        move |pid, _, env: &mut parbounds_models::GsmEnv<'_>| match (pid, env.phase()) {
            (0 | 1, 0) => {
                env.read(far);
                Status::Active
            }
            (0 | 1, _) => {
                env.write(10 + pid, env.contents(far).map_or(-1, |c| c.len() as Word));
                Status::Done
            }
            (_, 0) => {
                env.write(if mode == 2 { far } else { 3 }, 9);
                Status::Active
            }
            _ => {
                env.write(if mode == 1 { far } else { 3 }, 9);
                Status::Done
            }
        },
    )
}

#[test]
fn far_addresses_dense_match_reference() {
    use parbounds_models::{ModelError, DEFAULT_MEM_LIMIT};
    for far in [1usize << 40, 1 << 50, usize::MAX] {
        for mode in 0..3u8 {
            let want = match mode {
                0 => None,
                1 => Some(ModelError::MemoryLimitExceeded {
                    addr: far,
                    limit: DEFAULT_MEM_LIMIT,
                }),
                _ => Some(ModelError::ReadWriteConflict {
                    addr: far,
                    phase: 0,
                }),
            };
            let prog = far_program(far, mode);
            let got = QsmMachine::qsm(2).run(&prog, &[]);
            assert_eq!(
                got.as_ref().err(),
                want.as_ref(),
                "QSM far={far} mode={mode}"
            );
            if let Ok(run) = &got {
                assert_eq!(run.memory.slice(10, 2), vec![0, 0], "a far read sees 0");
                assert_eq!(run.ledger.phases()[0].kappa, 2, "far reads queue");
            }
            qsm_equiv(
                QsmMachine::qsm(2),
                &format!("far={far} mode={mode}"),
                move |m| m.run(&prog, &[]),
                |r| r,
            );

            let prog = far_gsm_program(far, mode);
            let machine = GsmMachine::new(1, 1, 1);
            let dense = machine.run(&prog, &[]);
            let reference = machine.with_reference_routing().run(&prog, &[]);
            assert_eq!(
                dense.as_ref().err(),
                want.as_ref(),
                "GSM far={far} mode={mode}"
            );
            match (&dense, &reference) {
                (Ok(d), Ok(r)) => {
                    assert_eq!(d.memory.get(10), &[0], "a far read sees an empty cell");
                    assert_eq!(d.ledger, r.ledger, "GSM ledger");
                    assert_eq!(d.memory, r.memory, "GSM memory");
                    assert_eq!(d.trace, r.trace, "GSM trace");
                }
                (Err(de), Err(re)) => assert_eq!(de, re),
                _ => panic!("divergent GSM far-address outcomes"),
            }
        }
    }
}

#[test]
fn bsp_families_pooled_match_reference() {
    for p in [1usize, 4, 7] {
        let machine = BspMachine::new(p, 2, 8).unwrap();
        let input: Vec<Word> = (0..23).collect();

        let d = bsp_reduce(&machine, &input, 2, ReduceOp::Sum).unwrap();
        let r = bsp_reduce(
            &machine.clone().with_reference_routing(),
            &input,
            2,
            ReduceOp::Sum,
        )
        .unwrap();
        assert_eq!(d.value, r.value, "bsp_reduce p={p}");
        assert_eq!(d.ledger, r.ledger);
        assert_eq!(d.trace, r.trace);

        let d = bsp_prefix_sums(&machine, &input, 2).unwrap();
        let r = bsp_prefix_sums(&machine.clone().with_reference_routing(), &input, 2).unwrap();
        assert_eq!(d.concat(), r.concat(), "bsp_prefix p={p}");
        assert_eq!(d.ledger, r.ledger);

        let input: Vec<Word> = (0..17).rev().collect();
        let d = bsp_sort_odd_even(&machine, &input).unwrap();
        let r = bsp_sort_odd_even(&machine.clone().with_reference_routing(), &input).unwrap();
        assert_eq!(d.concat(), r.concat(), "bsp_sort p={p}");
        assert_eq!(d.ledger, r.ledger);

        let d = bsp_broadcast(&machine, 99).unwrap();
        let r = bsp_broadcast(&machine.clone().with_reference_routing(), 99).unwrap();
        assert_eq!(d, r, "bsp_broadcast p={p}");
    }
}

/// A faulted machine runs on the reference engine on both sides: this pins
/// the routing, since a pooled engine that ignored the plan would answer
/// differently.
#[test]
fn bsp_fault_plans_pooled_match_reference() {
    let machine = BspMachine::new(6, 2, 4).unwrap();
    let input: Vec<Word> = (0..30).collect();
    for plan in [
        FaultPlan::new(21).with_drop_prob(0.2),
        FaultPlan::new(22).with_dup_prob(0.3),
        FaultPlan::new(23).with_stall(1, 0).with_stall(4, 1),
    ] {
        let d = bsp_reduce(
            &machine.clone().with_faults(plan.clone()),
            &input,
            2,
            ReduceOp::Sum,
        );
        let r = bsp_reduce(
            &machine.clone().with_faults(plan).with_reference_routing(),
            &input,
            2,
            ReduceOp::Sum,
        );
        match (&d, &r) {
            (Ok(d), Ok(r)) => {
                assert_eq!(d.value, r.value);
                assert_eq!(d.ledger, r.ledger);
            }
            (Err(de), Err(re)) => assert_eq!(format!("{de}"), format!("{re}")),
            _ => panic!("divergent BSP fault outcomes"),
        }
    }
}

#[test]
fn bsp_bad_destination_pooled_matches_reference_error() {
    let prog = parbounds_models::BspFnProgram::new(
        |_, _: &[Word]| (),
        |pid, _, ctx: &mut parbounds_models::Superstep<'_>| {
            if pid == 2 {
                ctx.send(99, 0, 0);
            }
            Status::Done
        },
    );
    let machine = BspMachine::new(4, 1, 1).unwrap();
    let pooled = machine.run(&prog, &[]).unwrap_err();
    let reference = machine
        .with_reference_routing()
        .run(&prog, &[])
        .unwrap_err();
    assert_eq!(format!("{pooled}"), format!("{reference}"));
}

/// A data-driven random schedule: request descriptors `(pid, phase, addr,
/// write)` are replayed verbatim, so a generated schedule can contain
/// arbitrary contention — including same-phase read/write conflicts, whose
/// error both paths must report identically.
fn random_schedule(
    n_procs: usize,
    n_phases: usize,
    reqs: Vec<(usize, usize, usize, bool)>,
) -> impl parbounds_models::Program<Proc = Word> {
    FnProgram::new(
        n_procs,
        |_pid| 0 as Word,
        move |pid, acc, env| {
            let t = env.phase();
            for &(rp, rt, addr, write) in &reqs {
                if rp % n_procs == pid && rt % n_phases == t {
                    if write {
                        env.write(addr, (pid + t) as Word);
                    } else {
                        env.read(addr);
                    }
                }
            }
            *acc += env.delivered().iter().map(|&(_, v)| v).sum::<Word>();
            if t + 1 >= n_phases {
                Status::Done
            } else {
                Status::Active
            }
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random request schedules: dense and reference paths agree on the
    /// full run record — or fail with the same error.
    #[test]
    fn random_schedules_dense_matches_reference(
        n_procs in 1usize..9,
        n_phases in 1usize..5,
        g in 1u64..6,
        reqs in proptest::collection::vec(
            (0usize..16, 0usize..4, 0usize..24, any::<bool>()), 0..48),
    ) {
        let prog = random_schedule(n_procs, n_phases, reqs);
        let input: Vec<Word> = (0..8).collect();
        for machine in [
            QsmMachine::qsm(g),
            QsmMachine::sqsm(g),
            QsmMachine::qsm_unit_cr(g),
        ] {
            let dense = machine.run(&prog, &input);
            let reference = machine.with_reference_routing().run(&prog, &input);
            match (&dense, &reference) {
                (Ok(d), Ok(r)) => {
                    prop_assert_eq!(&d.ledger, &r.ledger);
                    prop_assert_eq!(&d.memory, &r.memory);
                    prop_assert_eq!(&d.trace, &r.trace);
                }
                (Err(de), Err(re)) => {
                    prop_assert_eq!(format!("{de}"), format!("{re}"));
                }
                _ => prop_assert!(false, "divergent outcomes"),
            }
        }
    }
}
