//! Differential proof that the dense fast paths are the reference semantics.
//!
//! Every machine runs each program twice — once with [`Routing::Dense`]
//! (the default) and once with [`Routing::Reference`] (the original
//! map-based engines) — and the full run records must match bit for bit:
//! committed memory, per-phase [`parbounds_models::CostLedger`]s,
//! execution traces (including truncation metadata), and, under a seeded
//! [`FaultPlan`], the [`parbounds_models::FaultLog`]. Programs come from
//! the Section 8 algorithm families in `parbounds-algo` plus
//! property-generated random request schedules, so arbitration (RNG and
//! scripted), conflict errors, and stall/crash interleavings are all
//! pinned.

use proptest::prelude::*;

use parbounds_algo::broadcast::broadcast;
use parbounds_algo::bsp_algos::{bsp_broadcast, bsp_prefix_sums, bsp_reduce, bsp_sort_odd_even};
use parbounds_algo::gsm_algos::{gsm_parity, gsm_tree_reduce};
use parbounds_algo::lac::lac_dart;
use parbounds_algo::or_tree::or_write_tree;
use parbounds_algo::parity::parity_pattern_helper;
use parbounds_algo::prefix::prefix_in_rounds;
use parbounds_algo::reduce::tree_reduce;
use parbounds_algo::util::ReduceOp;
use parbounds_models::{
    BspMachine, FaultPlan, FnProgram, GsmMachine, QsmMachine, Routing, Status, Word,
};

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
    let dense = f(&machine.clone().with_routing(Routing::Dense));
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
                    flavor.clone().with_tracing(),
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
                QsmMachine::sqsm(2).with_tracing(),
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
                QsmMachine::qsm(2).with_tracing(),
                &format!("prefix n={n} p={p}"),
                move |m| prefix_in_rounds(m, &input, p, ReduceOp::Sum),
                |o| &o.run,
            );
        }
        qsm_equiv(
            QsmMachine::sqsm(4).with_tracing(),
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
            QsmMachine::qsm(8).with_tracing(),
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
    // Stalls perturb delivery timing; the scripted winner policy and the
    // injected phase budget must be consumed identically on both paths.
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
}

#[test]
fn gsm_trees_dense_match_reference() {
    for (alpha, beta, gamma) in [(1u64, 1u64, 1u64), (4, 2, 8), (2, 8, 4)] {
        for n in [1usize, 16, 70] {
            let input = bits(n, 2);
            let machine = GsmMachine::new(alpha, beta, gamma);
            let dense = gsm_tree_reduce(&machine.clone().with_tracing(), &input, 3, ReduceOp::Sum);
            let reference = gsm_tree_reduce(
                &machine.clone().with_tracing().with_reference_routing(),
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
fn bsp_families_pooled_match_reference() {
    for p in [1usize, 4, 7] {
        let machine = BspMachine::new(p, 2, 8).unwrap();
        let input: Vec<Word> = (0..23).collect();

        let d = bsp_reduce(&machine.clone().with_tracing(), &input, 2, ReduceOp::Sum).unwrap();
        let r = bsp_reduce(
            &machine.clone().with_tracing().with_reference_routing(),
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
            QsmMachine::qsm(g).with_tracing(),
            QsmMachine::sqsm(g),
            QsmMachine::qsm_unit_cr(g).with_trace_cap(2).with_tracing(),
        ] {
            let dense = machine.clone().with_routing(Routing::Dense).run(&prog, &input);
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
