//! PhaseIR: a declarative schedule representation for the general-purpose
//! parallel models of MacKenzie & Ramachandran (SPAA 1998).
//!
//! The bounds of the paper are statements about *schedules*, not runs: the
//! communication pattern of an OR tree or a BSP prefix sweep is
//! data-independent, so its per-phase `(m_op, m_rw, κ)` / `h`-relation —
//! and hence its exact Section 2 cost — can be derived once, symbolically,
//! for all parameters. This crate provides:
//!
//! * [`plan`] — the IR itself: [`plan::PhasePlan`], a sequence of phase
//!   descriptors listing every read, write, send, and halt explicitly,
//!   with value flow restricted to a tiny fold/accumulate register
//!   machine so that guards are the only data dependence;
//! * [`combinators`] — builders (`FanInTree`, `Broadcast`, `PrefixSweep`,
//!   `Scatter/Gather`, `DartRound`, BSP reduce/scan) assembling plans for
//!   the Section 8 families, mirroring the hand-written programs in
//!   `parbounds-algo` request for request;
//! * [`interp`] — generic IR→`Program` interpreters grounding one plan on
//!   the QSM/s-QSM simulators or the BSP machine, so the same definition
//!   both *runs* and is *analyzed statically* (see `parbounds-analyze`),
//!   and the two ledgers can be compared cell for cell;
//! * [`census`] — [`census::PhaseCensus`], the sorted request census of
//!   one shared phase (`m_op`, `m_rw`, per-cell read and write queues)
//!   that every static pass and the compiler count a phase with;
//! * [`compile`] — a one-shot compiler lowering an eligible plan into a
//!   straight-line [`compile::CompiledPlan`] schedule (pre-resolved dense
//!   request tables, contention counts and ledger rows baked in) with a
//!   bit-identical executor that skips routing, conflict checks, and
//!   arbitration on phases proved race-free at plan time.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod census;
pub mod combinators;
pub mod compile;
pub mod interp;
pub mod plan;
pub mod shape;

pub use census::PhaseCensus;
pub use combinators::{
    broadcast, bsp_fan_in_reduce, bsp_prefix_scan, dart_round, fan_in_read_tree, fan_in_write_tree,
    prefix_sweep, scatter_gather,
};
pub use compile::{
    compile_plan, execute_compiled_cancellable, execute_plan_compiled,
    execute_plan_compiled_cancellable, run_compiled_batch, run_compiled_msg_batch, CompileOutcome,
    CompiledPlan, Ineligibility, PAGED_ARENA_MIN_CELLS,
};
pub use interp::{
    execute_plan, execute_plan_cancellable, execute_plan_reference, run_msg_batch,
    run_shared_batch, IrBspProgram, IrProgram, PlanRun,
};
pub use plan::{
    apply_update, CombineOp, CompStep, Guard, InitRule, ModelKind, MsgStep, OutputDecl, PhasePlan,
    PlanBody, ProcPhase, SendSpec, SharedPhase, Update, ValueRule, WriteSpec,
};
pub use shape::{
    ceil_log, family_shape, shape_for_combinator, FamilyShape, FanRecipe, ShapePoint, Skeleton,
    FAMILY_SHAPES,
};

#[cfg(test)]
mod tests {
    use super::*;
    use parbounds_models::Word;

    fn qsm() -> ModelKind {
        ModelKind::Qsm { g: 4 }
    }

    #[test]
    fn combine_ops_match_reduce_semantics() {
        assert_eq!(CombineOp::Sum.fold(&[3, 4, 5]), 12);
        assert_eq!(CombineOp::Or.fold(&[0, 7, 0]), 1);
        assert_eq!(CombineOp::Or.fold(&[]), 0);
        assert_eq!(CombineOp::Xor.fold(&[1, 1, 1]), 1);
        assert_eq!(CombineOp::Xor.fold(&[3, 5]), 0); // low bits 1^1
        assert_eq!(CombineOp::Max.fold(&[-7, -3]), -3);
        assert_eq!(CombineOp::Max.identity(), Word::MIN);
    }

    #[test]
    fn apply_update_covers_all_rules() {
        let mut regs = vec![5];
        apply_update(Update::Keep, &mut regs, &[9]);
        assert_eq!(regs, vec![5]);
        apply_update(Update::Load, &mut regs, &[9, 8]);
        assert_eq!(regs, vec![9, 8]);
        apply_update(Update::Fold(CombineOp::Sum), &mut regs, &[1, 2, 3]);
        assert_eq!(regs, vec![6]);
        apply_update(Update::Accum(CombineOp::Sum), &mut regs, &[4]);
        assert_eq!(regs, vec![10]);
        // Accum on empty delivery is a no-op; on an empty file it seeds
        // the identity first.
        apply_update(Update::Accum(CombineOp::Sum), &mut regs, &[]);
        assert_eq!(regs, vec![10]);
        let mut empty = Vec::new();
        apply_update(Update::Accum(CombineOp::Sum), &mut empty, &[7]);
        assert_eq!(empty, vec![7]);
    }

    #[test]
    fn validate_accepts_every_combinator() {
        for n in [1, 2, 3, 7, 16, 33] {
            fan_in_write_tree(n, 2, qsm()).validate().unwrap();
            fan_in_read_tree(n, 3, CombineOp::Xor, ModelKind::SQsm { g: 2 })
                .validate()
                .unwrap();
            broadcast(n, 4, qsm()).validate().unwrap();
            prefix_sweep(n, 2, CombineOp::Sum, qsm())
                .validate()
                .unwrap();
        }
        for p in [1, 2, 5, 8] {
            bsp_fan_in_reduce(p, 2, CombineOp::Sum, 4, 16)
                .validate()
                .unwrap();
            bsp_prefix_scan(p, 3, CombineOp::Sum, 4, 16)
                .validate()
                .unwrap();
        }
        let sources = [2, 0, 1];
        let dests = [3, 4, 5];
        scatter_gather(&sources, &dests, qsm()).validate().unwrap();
        dart_round(&[(0, ValueRule::Const(1)), (1, ValueRule::Const(2))], qsm())
            .validate()
            .unwrap();
    }

    #[test]
    fn validate_rejects_model_body_mismatch() {
        let mut plan = fan_in_write_tree(4, 2, qsm());
        plan.model = ModelKind::Bsp { p: 4, g: 1, l: 1 };
        assert!(plan.validate().is_err());
        let mut bsp = bsp_fan_in_reduce(4, 2, CombineOp::Sum, 4, 16);
        bsp.model = qsm();
        assert!(bsp.validate().is_err());
    }

    #[test]
    fn validate_rejects_requests_after_finish() {
        let mut plan = dart_round(&[(0, ValueRule::Const(1))], qsm());
        if let PlanBody::Shared(phases) = &mut plan.body {
            let mut extra = SharedPhase::new("ghost");
            extra.procs.push(ProcPhase::idle(0));
            extra.finish.push(0); // double finish
            phases.push(extra);
        }
        assert!(plan.validate().is_err());
    }

    #[test]
    fn validate_requires_every_proc_to_finish() {
        let mut plan = dart_round(&[(0, ValueRule::Const(1)), (1, ValueRule::Const(2))], qsm());
        if let PlanBody::Shared(phases) = &mut plan.body {
            phases[0].finish.retain(|&pid| pid != 1);
        }
        assert!(plan.validate().is_err());
    }

    #[test]
    fn or_write_tree_plan_computes_or() {
        let plan = fan_in_write_tree(13, 3, qsm());
        let mut bits = vec![0 as Word; 13];
        assert_eq!(execute_plan(&plan, &bits).unwrap().output, vec![0]);
        bits[11] = 1;
        assert_eq!(execute_plan(&plan, &bits).unwrap().output, vec![1]);
    }

    #[test]
    fn read_tree_plan_reduces() {
        for n in [1usize, 2, 9, 14] {
            let input: Vec<Word> = (0..n as Word).map(|x| x % 2).collect();
            let plan = fan_in_read_tree(n, 2, CombineOp::Xor, ModelKind::SQsm { g: 3 });
            let want = CombineOp::Xor.fold(&input);
            assert_eq!(execute_plan(&plan, &input).unwrap().output, vec![want]);
        }
    }

    #[test]
    fn broadcast_plan_replicates_cell_zero() {
        for n in [1usize, 2, 6, 17] {
            let plan = broadcast(n, 3, qsm());
            let run = execute_plan(&plan, &[42]).unwrap();
            assert_eq!(run.output, vec![42; n]);
        }
    }

    #[test]
    fn prefix_sweep_plan_matches_serial_scan() {
        for (n, k) in [(1usize, 2usize), (4, 2), (9, 3), (13, 2), (16, 4), (31, 5)] {
            let input: Vec<Word> = (0..n as Word).map(|x| 3 * x + 1).collect();
            let plan = prefix_sweep(n, k, CombineOp::Sum, qsm());
            let run = execute_plan(&plan, &input).unwrap();
            let want: Vec<Word> = input
                .iter()
                .scan(0, |acc, &x| {
                    *acc += x;
                    Some(*acc)
                })
                .collect();
            assert_eq!(run.output, want, "n={n} k={k}");
        }
    }

    #[test]
    fn prefix_sweep_plan_handles_max_and_or() {
        let input: Vec<Word> = vec![2, -5, 9, 1, 9, 0, 11];
        let plan = prefix_sweep(input.len(), 3, CombineOp::Max, qsm());
        let run = execute_plan(&plan, &input).unwrap();
        assert_eq!(run.output, vec![2, 2, 9, 9, 9, 9, 11]);
    }

    #[test]
    fn scatter_gather_plan_permutes() {
        let sources = [2usize, 0, 1];
        let dests = [3usize, 4, 5];
        let plan = scatter_gather(&sources, &dests, qsm());
        let run = execute_plan(&plan, &[10, 20, 30]).unwrap();
        assert_eq!(run.output, vec![30, 10, 20]);
    }

    #[test]
    fn bsp_reduce_plan_folds_partitions() {
        for p in [1usize, 2, 4, 7] {
            let input: Vec<Word> = (0..19).collect();
            let plan = bsp_fan_in_reduce(p, 2, CombineOp::Sum, 4, 16);
            let run = execute_plan(&plan, &input).unwrap();
            assert_eq!(run.output[0], input.iter().sum::<Word>());
        }
    }

    #[test]
    fn bsp_prefix_scan_plan_scans_partitions() {
        let p = 5;
        let input: Vec<Word> = (1..=10).collect();
        let plan = bsp_prefix_scan(p, 2, CombineOp::Sum, 4, 16);
        let run = execute_plan(&plan, &input).unwrap();
        // Partitions of 10 over 5 components: 2 each; prefix of partition sums.
        assert_eq!(run.output, vec![3, 10, 21, 36, 55]);
    }

    #[test]
    fn gsm_plans_are_analyze_only() {
        let mut plan = dart_round(&[(5, ValueRule::Const(1))], qsm());
        plan.model = ModelKind::Gsm {
            alpha: 4,
            beta: 4,
            gamma: 16,
        };
        assert!(execute_plan(&plan, &[]).is_err());
    }
}
