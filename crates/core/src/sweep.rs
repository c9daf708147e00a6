//! Parameter-sweep helpers: cartesian sweeps over `(n, g, L, p)` points and
//! the *flatness* statistic the shape checks rest on (`measured/formula`
//! constant across a sweep ⇔ the claimed asymptotic shape is realized).

use parbounds_models::{ModelError, Result};
use parbounds_tables::{Model, Problem};

use crate::experiment::TableRow;
use crate::shard::sweep_point_row;

/// A sweep point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Point {
    /// Input size.
    pub n: usize,
    /// Gap.
    pub g: u64,
    /// BSP latency.
    pub l: u64,
    /// Processors.
    pub p: usize,
}

/// The cartesian product of the given axes (l fixed to `8·g`, p to `n`
/// unless overridden later — the shared-memory default).
pub fn grid(ns: &[usize], gs: &[u64]) -> Vec<Point> {
    let mut out = Vec::with_capacity(ns.len() * gs.len());
    for &n in ns {
        for &g in gs {
            out.push(Point {
                n,
                g,
                l: 8 * g,
                p: n,
            });
        }
    }
    out
}

/// Summary statistics of a ratio column.
#[derive(Debug, Clone, Copy)]
pub struct Flatness {
    /// Smallest ratio in the sweep.
    pub min: f64,
    /// Largest ratio.
    pub max: f64,
    /// Geometric mean.
    pub geo_mean: f64,
}

impl Flatness {
    /// Computes the statistics of a non-empty ratio list.
    pub fn of(ratios: &[f64]) -> Flatness {
        assert!(!ratios.is_empty(), "no ratios to summarize");
        let min = ratios.iter().cloned().fold(f64::MAX, f64::min);
        let max = ratios.iter().cloned().fold(f64::MIN, f64::max);
        let geo_mean =
            (ratios.iter().map(|r| r.max(1e-300).ln()).sum::<f64>() / ratios.len() as f64).exp();
        Flatness { min, max, geo_mean }
    }

    /// `max/min` — 1.0 means perfectly flat.
    pub fn spread(&self) -> f64 {
        self.max / self.min
    }

    /// Is the sweep flat within the multiplicative factor `tol`?
    pub fn is_flat(&self, tol: f64) -> bool {
        self.spread() <= tol
    }
}

/// Runs a QSM-time sweep for `problem` and returns the rows plus the
/// flatness of `measured/upper-formula` (over the rows that measured).
///
/// Sweep machines run with a *streaming* ledger: every row only reads the
/// ledger's running aggregates (total time, phase count, max phase cost),
/// so retaining the per-phase vector across a grid of million-phase runs
/// would be pure overhead — this keeps sweep memory O(1) in phase count
/// while producing value-identical rows.
pub fn qsm_shape_sweep(
    problem: Problem,
    points: &[Point],
    seed: u64,
) -> Result<(Vec<TableRow>, Flatness)> {
    shape_sweep(Model::Qsm, problem, points, seed)
}

/// The s-QSM analogue of [`qsm_shape_sweep`] (streaming ledgers likewise).
pub fn sqsm_shape_sweep(
    problem: Problem,
    points: &[Point],
    seed: u64,
) -> Result<(Vec<TableRow>, Flatness)> {
    shape_sweep(Model::SQsm, problem, points, seed)
}

fn shape_sweep(
    model: Model,
    problem: Problem,
    points: &[Point],
    seed: u64,
) -> Result<(Vec<TableRow>, Flatness)> {
    let rows: Vec<TableRow> = points
        .iter()
        .map(|pt| sweep_point_row(model, problem, pt, seed))
        .collect::<Result<_>>()?;
    let flat = flatness_of_rows(&rows)?;
    Ok((rows, flat))
}

/// Flatness of the measured rows, as a typed error (not a panic) when no
/// row measured anything.
pub fn flatness_of_rows(rows: &[TableRow]) -> Result<Flatness> {
    let ratios: Vec<f64> = rows.iter().filter_map(|r| r.shape_ratio()).collect();
    if ratios.is_empty() {
        return Err(ModelError::BadConfig(
            "sweep produced no measured rows".into(),
        ));
    }
    Ok(Flatness::of(&ratios))
}

/// Outcome of a [`checkpointed_sweep`]: the rows that succeeded, how many
/// attempts each point needed, and the points that were given up on (with
/// the error of their final attempt). A transient failure — a faulted or
/// budget-limited run — no longer torpedoes the entire grid.
#[derive(Debug)]
pub struct SweepReport<T> {
    /// `(point, row)` for every point that eventually succeeded.
    pub rows: Vec<(Point, T)>,
    /// `(point, attempts)` for points that needed more than one attempt.
    pub retried: Vec<(Point, usize)>,
    /// `(point, final error)` for points that failed every attempt.
    pub failed: Vec<(Point, ModelError)>,
}

impl<T> SweepReport<T> {
    /// Did every point of the grid produce a row?
    pub fn is_complete(&self) -> bool {
        self.failed.is_empty()
    }
}

/// Runs `f` over the grid with per-cell checkpointing: each failed cell is
/// retried up to `max_attempts` times (the attempt index is passed to `f`
/// so callers can reseed / back off), and a cell that fails every attempt
/// is recorded in [`SweepReport::failed`] instead of aborting the sweep.
pub fn checkpointed_sweep<T>(
    points: &[Point],
    max_attempts: usize,
    mut f: impl FnMut(&Point, usize) -> Result<T>,
) -> SweepReport<T> {
    assert!(max_attempts >= 1, "need at least one attempt");
    let mut report = SweepReport {
        rows: Vec::new(),
        retried: Vec::new(),
        failed: Vec::new(),
    };
    for pt in points {
        let mut last_err = None;
        for attempt in 0..max_attempts {
            match f(pt, attempt) {
                Ok(row) => {
                    report.rows.push((*pt, row));
                    if attempt > 0 {
                        report.retried.push((*pt, attempt + 1));
                    }
                    last_err = None;
                    break;
                }
                Err(e) => last_err = Some(e),
            }
        }
        if let Some(e) = last_err {
            report.failed.push((*pt, e));
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_is_cartesian() {
        let g = grid(&[16, 64], &[2, 4, 8]);
        assert_eq!(g.len(), 6);
        assert_eq!(
            g[0],
            Point {
                n: 16,
                g: 2,
                l: 16,
                p: 16
            }
        );
        assert_eq!(
            g[5],
            Point {
                n: 64,
                g: 8,
                l: 64,
                p: 64
            }
        );
    }

    #[test]
    fn flatness_statistics() {
        let f = Flatness::of(&[2.0, 4.0]);
        assert_eq!(f.min, 2.0);
        assert_eq!(f.max, 4.0);
        assert!((f.geo_mean - 8f64.sqrt()).abs() < 1e-12);
        assert_eq!(f.spread(), 2.0);
        assert!(f.is_flat(2.0));
        assert!(!f.is_flat(1.9));
    }

    #[test]
    fn qsm_parity_sweep_is_flat() {
        let points = grid(&[1 << 8, 1 << 11], &[2, 8]);
        let (rows, flat) = qsm_shape_sweep(Problem::Parity, &points, 1).unwrap();
        assert_eq!(rows.len(), 4);
        assert!(flat.is_flat(2.0), "spread {}", flat.spread());
        // Every measured value dominates the deterministic lower bound.
        for r in &rows {
            assert!(r.measured_respects_lower_bound(false, 1.0));
        }
    }

    #[test]
    fn checkpointed_sweep_first_try_success_records_no_retries() {
        let points = grid(&[16, 32], &[2]);
        let report = checkpointed_sweep(&points, 3, |pt, _attempt| Ok(pt.n as u64));
        assert_eq!(report.rows.len(), 2);
        assert!(report.retried.is_empty());
        assert!(report.failed.is_empty());
        assert!(report.is_complete());
    }

    #[test]
    fn checkpointed_sweep_retries_transient_failures_with_backoff() {
        let points = grid(&[16], &[2, 4]);
        // The g=4 cell fails its first two attempts, then succeeds.
        let report = checkpointed_sweep(&points, 4, |pt, attempt| {
            if pt.g == 4 && attempt < 2 {
                Err(ModelError::FaultAborted {
                    phase: attempt,
                    reason: "transient".into(),
                })
            } else {
                Ok(pt.g)
            }
        });
        assert_eq!(report.rows.len(), 2);
        assert_eq!(
            report.retried,
            vec![(
                Point {
                    n: 16,
                    g: 4,
                    l: 32,
                    p: 16
                },
                3
            )]
        );
        assert!(report.is_complete());
    }

    #[test]
    fn checkpointed_sweep_records_permanent_failures_without_panicking() {
        let points = grid(&[16, 32], &[2]);
        let report = checkpointed_sweep(&points, 3, |pt, _attempt| {
            if pt.n == 32 {
                Err(ModelError::CostBudgetExceeded { budget: 1, cost: 2 })
            } else {
                Ok(())
            }
        });
        assert_eq!(report.rows.len(), 1);
        assert!(!report.is_complete());
        assert_eq!(report.failed.len(), 1);
        assert_eq!(report.failed[0].0.n, 32);
        assert!(matches!(
            report.failed[0].1,
            ModelError::CostBudgetExceeded { .. }
        ));
    }

    #[test]
    fn sqsm_lac_sweep_tracks_the_lower_bound_shape() {
        let points = grid(&[1 << 10, 1 << 13], &[2, 8]);
        let (rows, _) = sqsm_shape_sweep(Problem::Lac, &points, 2).unwrap();
        // measured / (g·loglog n) flat: the accelerated LAC result.
        let ratios: Vec<f64> = rows
            .iter()
            .map(|r| {
                let loglog = (r.params.n.log2()).log2();
                r.measured.unwrap() / (r.params.g * loglog)
            })
            .collect();
        let flat = Flatness::of(&ratios);
        assert!(flat.is_flat(2.0), "spread {}", flat.spread());
    }
}
