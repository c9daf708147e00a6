//! Differential suite for the plan compiler: the straight-line compiled
//! executor ([`parbounds_ir::run_compiled_batch`] /
//! [`parbounds_ir::run_compiled_msg_batch`]) must return exactly the same
//! [`PlanRun`](parbounds_ir::PlanRun) — per-phase ledger rows, phase
//! count, output words, and (via output equality on multi-writer
//! fixtures) arbitration winners — as the batch interpreter and the
//! closure-dispatch reference grounding, for every Section 8 family,
//! across `(n, p, g, L)` grids. Property tests add guarded trees whose
//! firing leaves are clumped in one window and rotated scatter/gather
//! routings.

use parbounds_ir::{
    broadcast, bsp_fan_in_reduce, bsp_prefix_scan, compile_plan, execute_plan,
    execute_plan_compiled, execute_plan_reference, fan_in_read_tree, fan_in_write_tree,
    prefix_sweep, run_compiled_batch, run_compiled_msg_batch, scatter_gather, CombineOp,
    CompileOutcome, CompiledPlan, ModelKind, PhasePlan, PAGED_ARENA_MIN_CELLS,
};
use parbounds_models::{BspMachine, QsmMachine, Word};
use proptest::prelude::*;

/// All shared-memory model kinds at a given gap.
fn shared_models(g: u64) -> Vec<ModelKind> {
    vec![
        ModelKind::Qsm { g },
        ModelKind::SQsm { g },
        ModelKind::QsmUnitCr { g },
    ]
}

/// Builds the machine a shared plan grounds on.
fn shared_machine(model: ModelKind) -> QsmMachine {
    match model {
        ModelKind::Qsm { g } => QsmMachine::qsm(g),
        ModelKind::SQsm { g } => QsmMachine::sqsm(g),
        ModelKind::QsmUnitCr { g } => QsmMachine::qsm_unit_cr(g),
        other => panic!("not a compiled shared model: {other:?}"),
    }
}

/// Compiles a plan the suite expects to be eligible.
fn compiled(plan: &PhasePlan) -> CompiledPlan {
    match compile_plan(plan).unwrap() {
        CompileOutcome::Compiled(c) => c,
        CompileOutcome::Ineligible(why) => {
            panic!("'{}' should compile, but: {}", plan.family, why.describe())
        }
    }
}

/// Three-way check on a shared plan: compiled == interpreted ==
/// reference, ledger row for ledger row.
fn assert_shared_tri(plan: &PhasePlan, input: &[Word]) {
    let reference = execute_plan_reference(plan, input).unwrap();
    let interpreted = execute_plan(plan, input).unwrap();
    assert_eq!(
        interpreted, reference,
        "interpreter diverges from reference for '{}'",
        plan.family
    );
    let cp = compiled(plan);
    let machine = shared_machine(plan.model);
    let got = run_compiled_batch(plan, &cp, &machine, input).unwrap();
    assert_eq!(
        got.ledger, reference.ledger,
        "compiled ledger diverges for '{}'",
        plan.family
    );
    assert_eq!(
        got.output, reference.output,
        "compiled output diverges for '{}'",
        plan.family
    );
}

/// Three-way check on a BSP plan.
fn assert_bsp_tri(plan: &PhasePlan, input: &[Word]) {
    let reference = execute_plan_reference(plan, input).unwrap();
    let interpreted = execute_plan(plan, input).unwrap();
    assert_eq!(
        interpreted, reference,
        "interpreter diverges from reference for '{}'",
        plan.family
    );
    let cp = compiled(plan);
    let ModelKind::Bsp { p, g, l } = plan.model else {
        panic!("BSP fixture must carry a BSP model");
    };
    let machine = BspMachine::new(p, g, l).unwrap();
    let got = run_compiled_msg_batch(plan, &cp, &machine, input).unwrap();
    assert_eq!(
        got, reference,
        "compiled BSP diverges for '{}'",
        plan.family
    );
}

fn bits(n: usize, stride: usize) -> Vec<Word> {
    (0..n).map(|i| Word::from(i % stride == 0)).collect()
}

fn ramp(n: usize) -> Vec<Word> {
    (0..n as Word).map(|x| 3 * x - 7).collect()
}

#[test]
fn compiled_write_trees_match() {
    for model in shared_models(3) {
        for n in [1usize, 2, 5, 16, 33, 100] {
            for k in [2usize, 3, 8] {
                let plan = fan_in_write_tree(n, k, model);
                assert_shared_tri(&plan, &bits(n, 3));
                assert_shared_tri(&plan, &vec![0; n]);
                assert_shared_tri(&plan, &vec![1; n]);
            }
        }
    }
}

#[test]
fn compiled_read_trees_match() {
    for model in shared_models(2) {
        for op in [
            CombineOp::Sum,
            CombineOp::Or,
            CombineOp::Xor,
            CombineOp::Max,
        ] {
            for n in [1usize, 2, 9, 14, 40] {
                let plan = fan_in_read_tree(n, 3, op, model);
                assert_shared_tri(&plan, &ramp(n));
            }
        }
    }
}

#[test]
fn compiled_broadcast_matches() {
    for model in shared_models(5) {
        for n in [1usize, 2, 6, 17, 64] {
            for k in [2usize, 4] {
                let plan = broadcast(n, k, model);
                assert_shared_tri(&plan, &[42]);
            }
        }
    }
}

#[test]
fn compiled_prefix_sweeps_match() {
    for model in shared_models(1) {
        for (n, k) in [(1usize, 2usize), (4, 2), (13, 2), (16, 4), (31, 5), (57, 3)] {
            let plan = prefix_sweep(n, k, CombineOp::Sum, model);
            assert_shared_tri(&plan, &ramp(n));
            let plan = prefix_sweep(n, k, CombineOp::Max, model);
            assert_shared_tri(&plan, &ramp(n));
        }
    }
}

#[test]
fn compiled_scatter_gather_matches() {
    for model in shared_models(4) {
        let sources = [2usize, 0, 1, 5, 4, 3];
        let dests = [7usize, 9, 8, 6, 11, 10];
        let plan = scatter_gather(&sources, &dests, model);
        assert_shared_tri(&plan, &[10, 20, 30, 40, 50, 60]);
    }
}

/// Sparse plans whose planned address space exceeds
/// [`PAGED_ARENA_MIN_CELLS`] ground the compiled executor on the paged
/// arena; the run must stay identical to the interpreter and reference grounding
/// even though the arena never materializes the dense cell array.
#[test]
fn compiled_sparse_high_addresses_use_paged_arena_identically() {
    let n = 8usize;
    let sources: Vec<usize> = (0..n).collect();
    let dests: Vec<usize> = (0..n)
        .map(|i| PAGED_ARENA_MIN_CELLS + 1 + i * 50_021)
        .collect();
    for g in [1u64, 3] {
        for model in shared_models(g) {
            let plan = scatter_gather(&sources, &dests, model);
            let input: Vec<Word> = (0..n as Word).map(|w| w * 7 + 1).collect();
            assert_shared_tri(&plan, &input);
        }
    }
}

#[test]
fn compiled_bsp_plans_match() {
    for (g, l) in [(1u64, 1u64), (2, 8), (4, 16)] {
        for p in [1usize, 2, 4, 7, 13] {
            for k in [2usize, 3] {
                for op in [CombineOp::Sum, CombineOp::Max, CombineOp::Xor] {
                    let input: Vec<Word> = (0..(3 * p + 1) as Word).map(|x| 2 * x - 5).collect();
                    let plan = bsp_fan_in_reduce(p, k, op, g, l);
                    assert_bsp_tri(&plan, &input);
                    let plan = bsp_prefix_scan(p, k, op, g, l);
                    assert_bsp_tri(&plan, &input);
                }
            }
        }
    }
}

/// Error paths must match the interpreter verbatim: the compiled executor
/// reports the same phase-limit error the checked path does.
#[test]
fn compiled_honors_phase_limit_like_interpreter() {
    let plan = prefix_sweep(16, 2, CombineOp::Sum, ModelKind::Qsm { g: 1 });
    let cp = compiled(&plan);
    let machine = QsmMachine::qsm(1).with_max_phases(2);
    let got = run_compiled_batch(&plan, &cp, &machine, &ramp(16));
    let want = parbounds_ir::run_shared_batch(&plan, &machine, &ramp(16));
    assert!(got.is_err() && want.is_err());
    assert_eq!(
        format!("{}", got.unwrap_err()),
        format!("{}", want.unwrap_err())
    );
}

/// Traced machines take the checked interpreter (traces need the routing
/// engine), transparently and bit-identically.
#[test]
fn compiled_falls_back_for_traced_machines() {
    let plan = fan_in_read_tree(9, 3, CombineOp::Sum, ModelKind::SQsm { g: 2 });
    let cp = compiled(&plan);
    let machine = QsmMachine::sqsm(2).with_tracing();
    let traced = run_compiled_batch(&plan, &cp, &machine, &ramp(9)).unwrap();
    let plain = execute_plan(&plan, &ramp(9)).unwrap();
    assert_eq!(traced, plain);
}

/// `execute_plan_compiled` on an ineligible plan must still run (checked
/// interpreter) and agree with the reference, including the seeded
/// arbitration winner.
#[test]
fn ineligible_plans_still_agree_via_fallback() {
    use parbounds_ir::{dart_round, ValueRule};
    let targets: Vec<(usize, ValueRule)> = (0..24)
        .map(|i| (100 + i % 3, ValueRule::Const(i as Word)))
        .collect();
    for model in shared_models(2) {
        let plan = dart_round(&targets, model);
        assert!(matches!(
            compile_plan(&plan).unwrap(),
            CompileOutcome::Ineligible(_)
        ));
        let via_compiled = execute_plan_compiled(&plan, &[]).unwrap();
        let reference = execute_plan_reference(&plan, &[]).unwrap();
        assert_eq!(via_compiled, reference);
    }
}

/// Builds an input whose ones are concentrated in one window of the leaf
/// range: in the guarded OR tree only those leaves fire.
fn skewed_bits(n: usize, start: usize, len: usize) -> Vec<Word> {
    (0..n)
        .map(|i| Word::from(i >= start && i < start + len))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random guarded trees with all firing leaves clumped in one window:
    /// the compiled path must stay bit-identical to the interpreter.
    #[test]
    fn compiled_guarded_skew_matches_interpreter(
        n in 8usize..80,
        k in 2usize..5,
        window in 0u8..4,
        g in 1u64..5,
    ) {
        let plan = fan_in_write_tree(n, k, ModelKind::Qsm { g });
        let wlen = (n / 4).max(1);
        let start = (window as usize * n / 4).min(n - wlen);
        let input = skewed_bits(n, start, wlen);
        let want = execute_plan(&plan, &input).unwrap();
        let cp = compiled(&plan);
        let machine = shared_machine(plan.model);
        let got = run_compiled_batch(&plan, &cp, &machine, &input).unwrap();
        prop_assert_eq!(got, want);
    }

    /// Random permutation routings (scatter/gather) with sources rotated
    /// and destinations spread: the compiled path must stay bit-identical
    /// to the interpreter.
    #[test]
    fn compiled_scatter_skew_matches_interpreter(
        n in 1usize..48,
        rot in 0usize..48,
        spread in 1usize..4,
    ) {
        let sources: Vec<usize> = (0..n).map(|i| (i + rot) % n).collect();
        let dests: Vec<usize> = (0..n).map(|i| n + i * spread).collect();
        let plan = scatter_gather(&sources, &dests, ModelKind::SQsm { g: 2 });
        let input = ramp(n);
        let want = execute_plan(&plan, &input).unwrap();
        let cp = compiled(&plan);
        let machine = shared_machine(plan.model);
        let got = run_compiled_batch(&plan, &cp, &machine, &input).unwrap();
        prop_assert_eq!(got, want);
    }

    /// Random BSP grids: compiled message schedules replay the precounted
    /// `(w, h)` ledger and the register outputs exactly.
    #[test]
    fn compiled_bsp_random_grids_match(
        p in 1usize..14,
        k in 2usize..4,
        g in 1u64..6,
        l in 1u64..20,
        extra in 0usize..9,
    ) {
        // BSP machines require L >= g.
        let l = l.max(g);
        let input: Vec<Word> = (0..(p + extra) as Word).map(|x| (5 * x) ^ 11).collect();
        let plan = bsp_fan_in_reduce(p, k, CombineOp::Sum, g, l);
        let want = execute_plan(&plan, &input).unwrap();
        let cp = compiled(&plan);
        let machine = BspMachine::new(p, g, l).unwrap();
        let got = run_compiled_msg_batch(&plan, &cp, &machine, &input).unwrap();
        prop_assert_eq!(got, want);
    }
}
