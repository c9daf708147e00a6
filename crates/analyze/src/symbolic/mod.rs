//! Symbolic cost layer: Θ-normal-form static ledgers for the §8 plan
//! families, and the Table 1 bound-conformance machinery on top of them.
//!
//! * [`expr`] — the [`SymExpr`] algebra over free `n, p, g, L` with
//!   exact (bit-identical) evaluation semantics;
//! * [`mod@theta`] — Θ-normal forms and the dominance decision procedure;
//! * [`ledgers`] — per-family symbolic ledgers
//!   ([`predict_ledger_symbolic`]);
//! * [`conformance`] — Table 1 fixtures, Claim 2.1/2.2 checks, and the
//!   symbolic-vs-numeric grid differential.
//!
//! This module also hosts the *plan-level* entry points used by
//! [`crate::statics::lint_plan`] / [`crate::statics::analyze_plan`]:
//! [`recognize_plan`] decides whether a concrete [`PhasePlan`] is an
//! instance of a covered family (matching the fan recipe and the exact
//! phase count of the parameterized shape in `parbounds_ir::shape`), and
//! [`lint_plan_symbolic`] turns symbolic/numeric divergence and Table 1
//! regressions into ordinary [`Diagnostic`]s through the shared rule
//! table.

pub mod conformance;
pub mod expr;
pub mod ledgers;
pub mod theta;

pub use conformance::{
    bsp_grid, check_all_families, check_claims, check_family, default_grid, grid_differential,
    shared_grid, table1_fixture, ClaimCheck, DifferentialReport, FamilyConformance,
};
pub use expr::{GridPoint, SymError, SymExpr};
pub use ledgers::{
    predict_ledger_symbolic, SymGroup, SymLedger, SymModel, SymPhase, SYMBOLIC_FAMILIES,
};
pub use theta::{theta, Atom, Monomial, Theta};

use parbounds_ir::{shape_for_combinator, ModelKind, PhasePlan, ShapePoint};
use parbounds_models::{CostLedger, ModelError};

use crate::diagnostics::{Diagnostic, Location, Rule};
use crate::rules;
use crate::statics::{predict_ledger, SUITE_BSP_L, SUITE_BSP_P, SUITE_G};

/// The parameter point the standard static suite instantiates `family`
/// at for problem size `n` (mirrors `statics::ir_family_plan`, including
/// its floor of `n` at 8).
pub fn suite_point(family: &str, n: usize) -> GridPoint {
    let n = n.max(8) as u64;
    match family {
        "bsp-reduce" | "bsp-prefix-scan" => {
            GridPoint::bsp(SUITE_BSP_P as u64, SUITE_G, SUITE_BSP_L)
        }
        _ => GridPoint::shared(n, SUITE_G),
    }
}

/// Number of internal nodes of the `k = 2` read tree over `n` leaves —
/// the processor count `fan_in_read_tree` declares. Used to reject
/// read-tree plans built with a non-recipe fan-in whose depth happens to
/// coincide.
fn binary_read_tree_procs(n: u64) -> u64 {
    let mut width = n.max(1);
    let mut procs = 0;
    while width > 1 {
        width = width.div_ceil(2);
        procs += width;
    }
    procs
}

/// Decides whether `plan` is an instance of a symbolically-covered
/// family, and at which parameter point.
///
/// The match is deliberately conservative — combinator tag, model kind,
/// declared contention bound equal to the family recipe's, and the exact
/// phase count of the parameterized shape — so the symbolic lint can
/// treat any later ledger divergence as an error rather than a guess.
pub fn recognize_plan(plan: &PhasePlan) -> Option<(&'static str, GridPoint)> {
    let shape = shape_for_combinator(&plan.family)?;
    let spt: ShapePoint =
        shape.point_from_plan(plan.model, plan.procs as u64, plan.input_cells as u64)?;
    if shape.size(spt) < 2 {
        return None; // degenerate single-leaf shapes have special forms
    }
    if shape.phase_count(spt) != plan.num_phases() as u64 {
        return None;
    }
    let k = shape.recipe.fan(spt);
    let recipe_bound = match shape.name {
        "or-write-tree" | "or-write-tree-padded" => Some(k),
        "parity-read-tree" | "scatter-gather" => Some(1),
        _ => Some((k - 1).max(1)),
    };
    if plan.contention_bound != recipe_bound {
        return None;
    }
    if shape.name == "parity-read-tree" && plan.procs as u64 != binary_read_tree_procs(spt.n) {
        return None;
    }
    let pt = match plan.model {
        ModelKind::Bsp { .. } => GridPoint::bsp(spt.p, spt.g, spt.l),
        _ => GridPoint {
            n: spt.n,
            p: spt.p,
            g: spt.g,
            l: spt.l,
        },
    };
    Some((shape.name, pt))
}

/// The symbolic side of one plan's static analysis.
#[derive(Debug, Clone)]
pub struct PlanSymbolicCheck {
    /// Recognized family.
    pub family: &'static str,
    /// The parameter point the plan instantiates.
    pub point: GridPoint,
    /// Symbolic ledger evaluated at `point` equals the numeric
    /// prediction cell for cell.
    pub matches_numeric: bool,
    /// Θ-normal form of the family's derived total.
    pub derived: Theta,
    /// Θ-normal form of the family's Table 1 fixture.
    pub fixture: Theta,
    /// The derived bound strictly dominates the fixture.
    pub regression: bool,
}

/// Runs the symbolic checks for a plan, if it is recognized. `Ok(None)`
/// means the plan is outside symbolic coverage (not an error: most
/// ad-hoc plans are).
pub fn check_plan(plan: &PhasePlan) -> Result<Option<PlanSymbolicCheck>, ModelError> {
    check_plan_against(plan, || predict_ledger(plan))
}

/// [`check_plan`] against a numeric ledger from `numeric`, called only
/// when the plan is recognized: the linter passes the ledger it already
/// counted.
fn check_plan_against(
    plan: &PhasePlan,
    numeric: impl FnOnce() -> Result<CostLedger, ModelError>,
) -> Result<Option<PlanSymbolicCheck>, ModelError> {
    let Some((family, point)) = recognize_plan(plan) else {
        return Ok(None);
    };
    let ledger = predict_ledger_symbolic(family)?;
    let symbolic = ledger
        .eval_ledger(point)
        .map_err(|e| ModelError::BadConfig(format!("symbolic eval of {family}: {e}")))?;
    let numeric = numeric()?;
    let conf = check_family(family)?;
    Ok(Some(PlanSymbolicCheck {
        family,
        point,
        matches_numeric: symbolic == numeric,
        derived: conf.derived,
        fixture: conf.fixture,
        regression: conf.regression,
    }))
}

/// The symbolic lint pass appended to [`crate::statics::lint_plan`]:
/// emits [`Rule::SymbolicMismatch`] when the recognized family's ledger
/// evaluated at the plan's point diverges from the numeric prediction,
/// and [`Rule::BoundRegression`] when the family's derived Θ-form
/// strictly dominates its Table 1 row (both normal forms are quoted in
/// the message).
pub fn lint_plan_symbolic(plan: &PhasePlan) -> Result<Vec<Diagnostic>, ModelError> {
    lint_plan_symbolic_against(plan, || predict_ledger(plan))
}

/// [`lint_plan_symbolic`] against a numeric ledger from `numeric` (see
/// [`check_plan_against`]).
pub(crate) fn lint_plan_symbolic_against(
    plan: &PhasePlan,
    numeric: impl FnOnce() -> Result<CostLedger, ModelError>,
) -> Result<Vec<Diagnostic>, ModelError> {
    let Some(check) = check_plan_against(plan, numeric)? else {
        return Ok(Vec::new());
    };
    let model = plan.model.name();
    let mut diags = Vec::new();
    if !check.matches_numeric {
        diags.push(Diagnostic::new(
            Rule::SymbolicMismatch,
            Location {
                model,
                phase: 0,
                pid: None,
                addr: None,
            },
            rules::symbolic_mismatch(
                check.family,
                check.point.n,
                check.point.p,
                check.point.g,
                check.point.l,
            ),
        ));
    }
    if check.regression {
        diags.push(Diagnostic::new(
            Rule::BoundRegression,
            Location {
                model,
                phase: 0,
                pid: None,
                addr: None,
            },
            rules::bound_regression(
                check.family,
                &check.derived.to_string(),
                &check.fixture.to_string(),
            ),
        ));
    }
    Ok(diags)
}

/// One family's full symbolic report: Θ-conformance, grid differential,
/// and the suite-point evaluation next to the numeric prediction.
#[derive(Debug, Clone)]
pub struct SymbolicFamilyReport {
    /// Θ-equivalence outcome.
    pub conformance: FamilyConformance,
    /// Symbolic-vs-numeric differential on the family's CI grid.
    pub differential: DifferentialReport,
    /// Phase count of the symbolic ledger at the suite point.
    pub phases: u64,
    /// Symbolic total at the suite point.
    pub symbolic_total: u64,
    /// Numeric `predict_ledger` total at the same point.
    pub numeric_total: u64,
}

impl SymbolicFamilyReport {
    /// Clean = Θ-equivalent to the paper row, no regression, and a
    /// bit-identical differential (the suite point is part of that).
    pub fn clean(&self) -> bool {
        self.conformance.equivalent
            && !self.conformance.regression
            && self.differential.clean()
            && self.symbolic_total == self.numeric_total
    }
}

/// Builds the symbolic report for one family at suite size `n`.
pub fn analyze_symbolic_family(family: &str, n: usize) -> Result<SymbolicFamilyReport, ModelError> {
    let conformance = check_family(family)?;
    let differential = grid_differential(family, &default_grid(family))?;
    let pt = suite_point(family, n);
    let ledger = predict_ledger_symbolic(family)?;
    let evaluated = ledger
        .eval_ledger(pt)
        .map_err(|e| ModelError::BadConfig(format!("symbolic eval of {family}: {e}")))?;
    let numeric = conformance::numeric_ledger_at(family, pt)?;
    Ok(SymbolicFamilyReport {
        conformance,
        phases: evaluated.num_phases() as u64,
        symbolic_total: evaluated.total_time(),
        numeric_total: numeric.total_time(),
        differential,
    })
}

/// The full symbolic conformance suite: every covered family plus the
/// Claim 2.1/2.2 mapping checks.
#[derive(Debug, Clone)]
pub struct SymbolicReport {
    /// Per-family reports, in registry order.
    pub families: Vec<SymbolicFamilyReport>,
    /// Cross-model mapping checks.
    pub claims: Vec<ClaimCheck>,
}

impl SymbolicReport {
    /// True when every family is clean and every claim holds.
    pub fn clean(&self) -> bool {
        self.families.iter().all(SymbolicFamilyReport::clean) && self.claims.iter().all(|c| c.holds)
    }
}

/// Runs [`analyze_symbolic_family`] over [`SYMBOLIC_FAMILIES`] and
/// [`check_claims`].
pub fn analyze_symbolic_all(n: usize) -> Result<SymbolicReport, ModelError> {
    let families = SYMBOLIC_FAMILIES
        .iter()
        .map(|f| analyze_symbolic_family(f, n))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(SymbolicReport {
        families,
        claims: check_claims()?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use parbounds_algo::ir_families as fam;

    #[test]
    fn recognition_accepts_family_instances_and_rejects_lookalikes() {
        let (plan, _) = fam::or_write_tree_plan(64, 8);
        let (name, pt) = recognize_plan(&plan).expect("recipe instance recognized");
        assert_eq!(name, "or-write-tree");
        assert_eq!((pt.n, pt.g), (64, 8));

        // Non-recipe fan-in: same combinator, k ≠ max(2, g).
        let odd = parbounds_ir::fan_in_write_tree(64, 5, ModelKind::Qsm { g: 8 });
        assert!(recognize_plan(&odd).is_none());

        // Non-recipe read tree (k = 3) must be rejected even when the
        // depth coincides, via the processor-count witness.
        let k3 = parbounds_ir::fan_in_read_tree(
            9,
            3,
            parbounds_ir::CombineOp::Xor,
            ModelKind::SQsm { g: 2 },
        );
        assert!(recognize_plan(&k3).is_none());

        // Scatter/gather with duplicate destinations (bound > 1).
        let dup = parbounds_ir::scatter_gather(&[0, 1, 2], &[5, 5, 6], ModelKind::Qsm { g: 4 });
        assert!(recognize_plan(&dup).is_none());

        let (racy, _) = fam::racy_plan();
        assert!(recognize_plan(&racy).is_none());
    }

    #[test]
    fn check_plan_matches_numeric_for_every_suite_family() {
        for family in SYMBOLIC_FAMILIES {
            let (_, plan, _) = crate::statics::ir_family_plan(family, 64, 3).unwrap();
            let check = check_plan(&plan).unwrap().unwrap_or_else(|| {
                panic!("{family} instance not recognized");
            });
            assert_eq!(check.family, family);
            assert!(check.matches_numeric, "{family} symbolic != numeric");
            assert!(!check.regression, "{family} flagged as regression");
        }
    }

    #[test]
    fn padded_plan_lints_with_both_normal_forms() {
        let (plan, _) = fam::or_write_tree_padded_plan(64, 8);
        let diags = lint_plan_symbolic(&plan).unwrap();
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].rule, Rule::BoundRegression);
        assert!(
            diags[0].message.contains("Θ(g·log n)"),
            "{}",
            diags[0].message
        );
        assert!(
            diags[0].message.contains("Θ(g·log n/(log g))"),
            "{}",
            diags[0].message
        );
    }

    #[test]
    fn suite_report_is_clean_and_padded_family_is_not() {
        let report = analyze_symbolic_all(64).unwrap();
        assert!(report.clean());
        assert_eq!(report.families.len(), SYMBOLIC_FAMILIES.len());
        let padded = analyze_symbolic_family("or-write-tree-padded", 64).unwrap();
        assert!(!padded.clean());
        assert!(padded.conformance.regression);
        // The padded ledger still evaluates bit-identically — the
        // regression is asymptotic, not a modelling error.
        assert!(padded.differential.clean());
        assert_eq!(padded.symbolic_total, padded.numeric_total);
    }
}
