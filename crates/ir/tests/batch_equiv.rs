//! Differential suite: the batch interpreters ([`parbounds_ir::execute_plan`]
//! for shared and BSP plans, [`parbounds_ir::run_shared_batch`] /
//! [`parbounds_ir::run_msg_batch`] directly) must return exactly the same
//! [`PlanRun`] — ledger, phase count, output — as the closure-dispatch
//! grounding [`parbounds_ir::execute_plan_reference`], for every Section 8
//! family the combinators build, on every model kind the IR schedules,
//! across fan-ins and gap parameters.

use parbounds_ir::{
    broadcast, bsp_fan_in_reduce, bsp_prefix_scan, dart_round, execute_plan,
    execute_plan_reference, fan_in_read_tree, fan_in_write_tree, prefix_sweep, run_msg_batch,
    run_shared_batch, scatter_gather, CombineOp, ModelKind, PhasePlan, ValueRule,
};
use parbounds_models::{BspMachine, QsmMachine, Word};

/// All shared-memory model kinds at a given gap.
fn shared_models(g: u64) -> Vec<ModelKind> {
    vec![
        ModelKind::Qsm { g },
        ModelKind::SQsm { g },
        ModelKind::QsmUnitCr { g },
    ]
}

/// Asserts batch == reference on `plan` for `input` and returns the run.
fn assert_equiv(plan: &PhasePlan, input: &[Word]) {
    let batch = execute_plan(plan, input);
    let reference = execute_plan_reference(plan, input);
    match (&batch, &reference) {
        (Ok(b), Ok(r)) => {
            assert_eq!(b.ledger, r.ledger, "ledger mismatch for '{}'", plan.family);
            assert_eq!(b.output, r.output, "output mismatch for '{}'", plan.family);
            assert_eq!(
                b.ledger.num_phases(),
                r.ledger.num_phases(),
                "phase count mismatch for '{}'",
                plan.family
            );
        }
        (Err(be), Err(re)) => {
            assert_eq!(
                format!("{be}"),
                format!("{re}"),
                "error mismatch for '{}'",
                plan.family
            );
        }
        _ => panic!(
            "divergent outcomes for '{}': batch={batch:?} reference={reference:?}",
            plan.family
        ),
    }
}

fn bits(n: usize, stride: usize) -> Vec<Word> {
    (0..n).map(|i| Word::from(i % stride == 0)).collect()
}

fn ramp(n: usize) -> Vec<Word> {
    (0..n as Word).map(|x| 3 * x - 7).collect()
}

#[test]
fn write_trees_match_reference() {
    for model in shared_models(3) {
        for n in [1usize, 2, 5, 16, 33, 100] {
            for k in [2usize, 3, 8] {
                let plan = fan_in_write_tree(n, k, model);
                assert_equiv(&plan, &bits(n, 3));
                assert_equiv(&plan, &vec![0; n]);
            }
        }
    }
}

#[test]
fn read_trees_match_reference() {
    for model in shared_models(2) {
        for op in [
            CombineOp::Sum,
            CombineOp::Or,
            CombineOp::Xor,
            CombineOp::Max,
        ] {
            for n in [1usize, 2, 9, 14, 40] {
                let plan = fan_in_read_tree(n, 3, op, model);
                assert_equiv(&plan, &ramp(n));
            }
        }
    }
}

#[test]
fn broadcast_matches_reference() {
    for model in shared_models(5) {
        for n in [1usize, 2, 6, 17, 64] {
            for k in [2usize, 4] {
                let plan = broadcast(n, k, model);
                assert_equiv(&plan, &[42]);
            }
        }
    }
}

#[test]
fn prefix_sweeps_match_reference() {
    for model in shared_models(1) {
        for (n, k) in [(1usize, 2usize), (4, 2), (13, 2), (16, 4), (31, 5), (57, 3)] {
            let plan = prefix_sweep(n, k, CombineOp::Sum, model);
            assert_equiv(&plan, &ramp(n));
            let plan = prefix_sweep(n, k, CombineOp::Max, model);
            assert_equiv(&plan, &ramp(n));
        }
    }
}

#[test]
fn scatter_gather_matches_reference() {
    for model in shared_models(4) {
        let sources = [2usize, 0, 1, 5, 4, 3];
        let dests = [7usize, 9, 8, 6, 11, 10];
        let plan = scatter_gather(&sources, &dests, model);
        assert_equiv(&plan, &[10, 20, 30, 40, 50, 60]);
    }
}

#[test]
fn dart_rounds_match_reference_including_rng_arbitration() {
    // Many processors throwing darts at few cells: multi-writer arbitration
    // consumes the RNG, so equality here pins the consumption order.
    for model in shared_models(2) {
        let targets: Vec<(usize, ValueRule)> = (0..24)
            .map(|i| (100 + i % 3, ValueRule::Const(i as Word)))
            .collect();
        let plan = dart_round(&targets, model);
        assert_equiv(&plan, &[]);
    }
}

#[test]
fn batch_respects_machine_seed_and_flavor() {
    // Same plan, different seeds: batch must track the machine's RNG, and
    // the two paths must agree seed for seed.
    let targets: Vec<(usize, ValueRule)> =
        (0..16).map(|i| (7, ValueRule::Const(i as Word))).collect();
    let plan = dart_round(&targets, ModelKind::Qsm { g: 2 });
    let mut outputs = Vec::new();
    for seed in [1u64, 2, 0xdead_beef] {
        let machine = QsmMachine::qsm(2).with_seed(seed);
        let batch = run_shared_batch(&plan, &machine, &[]).unwrap();
        let reference = {
            let program = parbounds_ir::IrProgram::new(&plan).unwrap();
            let result = machine.run(&program, &[]).unwrap();
            result.memory.get(7)
        };
        assert_eq!(batch.output[0], reference, "seed {seed}");
        outputs.push(batch.output[0]);
    }
    // Sanity: with 16 writers the winner should vary across seeds.
    assert!(outputs.windows(2).any(|w| w[0] != w[1]));
}

#[test]
fn batch_honors_phase_limit_like_machine() {
    let plan = prefix_sweep(16, 2, CombineOp::Sum, ModelKind::Qsm { g: 1 });
    let machine = QsmMachine::qsm(1).with_max_phases(2);
    let batch = run_shared_batch(&plan, &machine, &ramp(16));
    let reference = machine.run(&parbounds_ir::IrProgram::new(&plan).unwrap(), &ramp(16));
    assert!(batch.is_err() && reference.is_err());
    assert_eq!(
        format!("{}", batch.unwrap_err()),
        format!("{}", reference.unwrap_err())
    );
}

#[test]
fn batch_falls_back_for_traced_machines() {
    let plan = fan_in_read_tree(9, 3, CombineOp::Sum, ModelKind::SQsm { g: 2 });
    let machine = QsmMachine::sqsm(2).with_tracing();
    let traced = run_shared_batch(&plan, &machine, &ramp(9)).unwrap();
    let plain = execute_plan(&plan, &ramp(9)).unwrap();
    assert_eq!(traced.ledger, plain.ledger);
    assert_eq!(traced.output, plain.output);
}

#[test]
fn bsp_plans_match_reference() {
    for (g, l) in [(1u64, 1u64), (2, 8), (4, 16)] {
        for p in [1usize, 2, 5, 8, 13] {
            for k in [2usize, 3] {
                for op in [CombineOp::Sum, CombineOp::Max, CombineOp::Xor] {
                    let input: Vec<Word> = (0..(3 * p + 1) as Word).map(|x| 2 * x - 5).collect();
                    let plan = bsp_fan_in_reduce(p, k, op, g, l);
                    assert_equiv(&plan, &input);
                    let plan = bsp_prefix_scan(p, k, op, g, l);
                    assert_equiv(&plan, &input);
                }
            }
        }
    }
}

#[test]
fn msg_batch_falls_back_for_traced_machines() {
    let plan = bsp_prefix_scan(6, 2, CombineOp::Sum, 2, 8);
    let input: Vec<Word> = (0..20).collect();
    let machine = BspMachine::new(6, 2, 8).unwrap().with_tracing();
    let traced = run_msg_batch(&plan, &machine, &input).unwrap();
    let plain = execute_plan(&plan, &input).unwrap();
    assert_eq!(traced.ledger, plain.ledger);
    assert_eq!(traced.output, plain.output);
}

#[test]
fn msg_batch_rejects_shared_plans() {
    let plan = broadcast(4, 2, ModelKind::Qsm { g: 1 });
    let machine = BspMachine::new(4, 1, 1).unwrap();
    assert!(run_msg_batch(&plan, &machine, &[1]).is_err());
}

#[test]
fn guarded_plans_match_reference_on_both_branches() {
    // The OR write-tree is the guarded family: leaves fire only on ones.
    for model in shared_models(2) {
        for n in [8usize, 27] {
            let plan = fan_in_write_tree(n, 3, model);
            assert_equiv(&plan, &vec![1; n]); // every guard fires
            assert_equiv(&plan, &vec![0; n]); // no guard fires
            let mut one = vec![0; n];
            one[n - 1] = 1;
            assert_equiv(&plan, &one); // a single sparse path
        }
    }
}
