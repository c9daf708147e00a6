//! Pattern-helper Parity — the Section 8 upper bound that "emulates the
//! depth-2 unbounded fan-in circuit for parity".
//!
//! Parity is not write-combinable (unlike OR), so the tree trick of
//! [`crate::or_tree`] does not apply directly. Instead, each group of `k`
//! bits is handled by `2^k` *teams*, one per candidate pattern
//! `a ∈ {0,1}^k` (the minterms of the depth-2 circuit). Team `a` has `k`
//! *checkers* and one *verifier*:
//!
//! 1. checker `i` of every team reads bit `i` of the group — each bit cell
//!    is read by `2^k` checkers concurrently;
//! 2. each checker whose bit disagrees with its pattern writes a 1 into its
//!    team cell (≤ `k` writers per cell);
//! 3. each verifier reads its team cell — exactly one team (the one whose
//!    pattern equals the input) finds it untouched;
//! 4. the matching verifier alone writes `parity(a)` to the group's output
//!    cell.
//!
//! Per level a QSM charges `max(g, 2^k) + max(g, k) + 2g`: choosing
//! `k = ⌊log₂ g⌋` keeps the read contention `2^k ≤ g` below the gap and
//! yields total time `O(g·log n / log log g)` — the paper's Parity upper
//! bound. Under *unit-time concurrent reads* step 1 is free, `k` can grow
//! to `g`, and the total drops to `Θ(g·log n / log g)`, matching the
//! Theorem 3.1 lower bound (the "`Θ` with concur. reads" entry of
//! sub-table 1).

use parbounds_models::{Addr, PhaseEnv, Program, QsmFlavor, QsmMachine, Result, Status, Word};

use crate::util::Layout;
use crate::Outcome;

/// Hard cap on the group size: teams number `2^k`, so this bounds the
/// simulated processor count at `O(n·2^K)`.
pub const MAX_GROUP_BITS: usize = 12;

/// Cap used by [`parity_helper_default_k`]: `2^8·(8+1) ≈ 2300` simulated
/// helpers per group keeps default runs fast while still exhibiting the
/// `log g` denominator for every simulated gap `g ≤ 256`.
pub const DEFAULT_GROUP_BITS_CAP: usize = 8;

#[derive(Debug, Clone, Copy)]
struct ProcDesc {
    level: u32,
    group: u32,
    pattern: u32,
    /// Checker index within the group, or `u32::MAX` for the verifier.
    idx: u32,
}

struct LevelPlan {
    /// Base address of this level's value cells (level 0 = input).
    value_base: Addr,
    /// Base address of each group's `2^c` team cells, where the group size
    /// `c` equals `k` except possibly for the last group.
    team_bases: Vec<Addr>,
}

struct ParityHelperProgram {
    k: usize,
    levels: Vec<LevelPlan>,
    procs: Vec<ProcDesc>,
    out: Addr,
}

impl ParityHelperProgram {
    fn new(n: usize, k: usize, layout: &mut Layout) -> Self {
        assert!(n > 0, "parity of an empty input is 0; give >= 1 bits");
        assert!(
            (2..=MAX_GROUP_BITS).contains(&k),
            "group size k must be in 2..={MAX_GROUP_BITS}, got {k}"
        );
        let mut levels = Vec::new();
        let mut procs = Vec::new();
        let mut width = n;
        let mut value_base: Addr = 0;
        let mut level = 0u32;
        while width > 1 {
            let num_groups = width.div_ceil(k);
            let mut team_bases = Vec::with_capacity(num_groups);
            for group in 0..num_groups {
                let c = k.min(width - group * k);
                team_bases.push(layout.alloc(1 << c));
                for pattern in 0..1u32 << c {
                    for idx in 0..c as u32 {
                        procs.push(ProcDesc {
                            level,
                            group: group as u32,
                            pattern,
                            idx,
                        });
                    }
                    procs.push(ProcDesc {
                        level,
                        group: group as u32,
                        pattern,
                        idx: u32::MAX,
                    });
                }
            }
            let next_base = layout.alloc(num_groups);
            levels.push(LevelPlan {
                value_base,
                team_bases,
            });
            value_base = next_base;
            width = num_groups;
            level += 1;
        }
        // `value_base` now addresses the single root cell.
        let out = value_base;
        if levels.is_empty() {
            // n == 1: a single courier copies the input bit to a fresh out
            // cell so the interface is uniform.
            let out = layout.alloc(1);
            levels.push(LevelPlan {
                value_base: 0,
                team_bases: vec![],
            });
            procs.push(ProcDesc {
                level: 0,
                group: 0,
                pattern: 0,
                idx: u32::MAX,
            });
            return ParityHelperProgram {
                k,
                levels,
                procs,
                out,
            };
        }
        ParityHelperProgram {
            k,
            levels,
            procs,
            out,
        }
    }

    fn is_trivial(&self) -> bool {
        self.levels[0].team_bases.is_empty()
    }
}

impl Program for ParityHelperProgram {
    type Proc = ();

    fn num_procs(&self) -> usize {
        self.procs.len()
    }

    fn create(&self, _pid: usize) {}

    fn phase(&self, pid: usize, _st: &mut (), env: &mut PhaseEnv<'_>) -> Status {
        if self.is_trivial() {
            // Courier: read input bit, write it out.
            return match env.phase() {
                0 => {
                    env.read(0);
                    Status::Active
                }
                _ => {
                    env.write(self.out, env.delivered()[0].1 & 1);
                    Status::Done
                }
            };
        }
        let d = self.procs[pid];
        let plan = &self.levels[d.level as usize];
        let base_phase = 4 * d.level as usize;
        let t = env.phase();
        if t < base_phase {
            return Status::Active;
        }
        let group = d.group as usize;
        let team_cell = plan.team_bases[group] + d.pattern as usize;
        if d.idx != u32::MAX {
            // Checker.
            match t - base_phase {
                0 => {
                    env.read(plan.value_base + group * self.k + d.idx as usize);
                    Status::Active
                }
                1 => {
                    let bit = env.delivered()[0].1 & 1;
                    let want = (d.pattern >> d.idx) & 1;
                    if bit != Word::from(want) {
                        env.write(team_cell, 1);
                    }
                    Status::Done
                }
                _ => unreachable!("checker lived past its write phase"),
            }
        } else {
            // Verifier.
            match t - base_phase {
                0 | 1 => Status::Active,
                2 => {
                    env.read(team_cell);
                    Status::Active
                }
                3 => {
                    if env.delivered()[0].1 == 0 {
                        // Our pattern matched: publish the group parity.
                        let next_base = if (d.level as usize) + 1 < self.levels.len() {
                            self.levels[d.level as usize + 1].value_base
                        } else {
                            self.out
                        };
                        let par = Word::from(d.pattern.count_ones() % 2);
                        env.write(next_base + group, par);
                    }
                    Status::Done
                }
                _ => unreachable!("verifier lived past its publish phase"),
            }
        }
    }
}

/// ```
/// use parbounds_algo::parity::parity_pattern_helper;
/// use parbounds_models::QsmMachine;
///
/// let machine = QsmMachine::qsm(16);
/// let bits = vec![1, 0, 1, 1, 0, 0, 1, 0, 1];
/// let out = parity_pattern_helper(&machine, &bits, 4).unwrap();
/// assert_eq!(out.value, 1); // five ones
/// ```
/// Computes parity of `bits` with the pattern-helper scheme, group size `k`.
pub fn parity_pattern_helper(machine: &QsmMachine, bits: &[Word], k: usize) -> Result<Outcome> {
    if bits.is_empty() {
        return parity_pattern_helper(machine, &[0], k);
    }
    let mut layout = Layout::new(bits.len());
    let prog = ParityHelperProgram::new(bits.len(), k, &mut layout);
    let out = prog.out;
    let run = machine.run(&prog, bits)?;
    let value = run.memory.get(out);
    Ok(Outcome { value, run })
}

/// The Section 8 group-size choice for a machine: `⌊log₂ g⌋` on a plain QSM
/// (keeps read contention `2^k ≤ g`), `g` itself (capped) when concurrent
/// reads are unit-time, and 2 on an s-QSM (where contention always pays the
/// gap, see [`crate::reduce`] for the preferred s-QSM algorithm).
pub fn parity_helper_default_k(machine: &QsmMachine) -> usize {
    let g = machine.g();
    match machine.flavor() {
        QsmFlavor::Qsm => (63 - g.leading_zeros() as usize).clamp(2, DEFAULT_GROUP_BITS_CAP),
        QsmFlavor::QsmUnitConcurrentReads => (g as usize).clamp(2, DEFAULT_GROUP_BITS_CAP),
        QsmFlavor::SQsm => 2,
        // QSM(g, d): read contention costs d·κ, so keep d·2^k ≤ g.
        QsmFlavor::QsmGd(d) => {
            (63 - (g / d.max(1)).max(2).leading_zeros() as usize).clamp(2, DEFAULT_GROUP_BITS_CAP)
        }
    }
}

/// Exact per-level worst-case phase costs of the helper scheme on `machine`,
/// summed: `Σ_levels [cost(read κ=2^c) + cost(write κ≤c) + 2g]`.
pub fn parity_pattern_helper_cost_max(machine: &QsmMachine, n: usize, k: usize) -> u64 {
    let g = machine.g();
    if n <= 1 {
        return 2 * g;
    }
    let mut total = 0;
    let mut width = n;
    while width > 1 {
        let c = k.min(width) as u64;
        let read_kappa = 1u64 << c;
        let read_cost = match machine.flavor() {
            QsmFlavor::Qsm => g.max(read_kappa),
            QsmFlavor::QsmUnitConcurrentReads => g,
            QsmFlavor::SQsm => g.max(g * read_kappa),
            QsmFlavor::QsmGd(d) => g.max(d * read_kappa),
        };
        let write_cost = match machine.flavor() {
            QsmFlavor::Qsm | QsmFlavor::QsmUnitConcurrentReads => g.max(c),
            QsmFlavor::SQsm => g.max(g * c),
            QsmFlavor::QsmGd(d) => g.max(d * c),
        };
        total += read_cost + write_cost + 2 * g;
        width = width.div_ceil(k);
    }
    total
}

/// Declared cost envelope of the pattern-helper Parity algorithm at the
/// default group width: `O(g·lg n / lg lg g)` QSM time (Section 8).
pub fn cost_contract() -> parbounds_models::CostContract {
    parbounds_models::CostContract::new("parity-helper", "QSM", "O(g·lg n / lg lg g)", |p| {
        p.g * p.lg_n() / p.g.max(4.0).log2().log2().max(1.0)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use parbounds_models::QsmMachine;

    fn bits(n: usize, seed: u64) -> Vec<Word> {
        (0..n)
            .map(|i| {
                let mut z = seed.wrapping_add((i as u64).wrapping_mul(0x9e3779b97f4a7c15));
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
                (z >> 23 & 1) as Word
            })
            .collect()
    }

    #[test]
    fn exhaustive_correctness_small_n() {
        let m = QsmMachine::qsm(4);
        for n in 1..=8usize {
            for mask in 0..1u32 << n {
                let input: Vec<Word> = (0..n).map(|i| Word::from(mask >> i & 1 == 1)).collect();
                let expected = Word::from(mask.count_ones() % 2 == 1);
                for k in [2usize, 3] {
                    let out = parity_pattern_helper(&m, &input, k).unwrap();
                    assert_eq!(out.value, expected, "n={n} mask={mask:b} k={k}");
                }
            }
        }
    }

    #[test]
    fn correctness_at_scale() {
        let m = QsmMachine::qsm(8);
        for n in [64usize, 100, 256, 1000] {
            for k in [2usize, 3, 4] {
                let input = bits(n, n as u64 + k as u64);
                let expected = input.iter().sum::<Word>() % 2;
                let out = parity_pattern_helper(&m, &input, k).unwrap();
                assert_eq!(out.value, expected, "n={n} k={k}");
            }
        }
    }

    #[test]
    fn cost_never_exceeds_closed_form() {
        for flavor in [
            QsmMachine::qsm(8),
            QsmMachine::qsm_unit_cr(8),
            QsmMachine::sqsm(8),
        ] {
            let n = 256;
            let k = 3;
            let out = parity_pattern_helper(&flavor, &bits(n, 1), k).unwrap();
            let bound = parity_pattern_helper_cost_max(&flavor, n, k);
            assert!(
                out.run.time() <= bound,
                "{:?}: {} > {bound}",
                flavor.flavor(),
                out.run.time()
            );
        }
    }

    #[test]
    fn read_contention_is_2_to_k_and_is_free_under_unit_cr() {
        let n = 64;
        let k = 4;
        let plain = parity_pattern_helper(&QsmMachine::qsm(4), &bits(n, 9), k).unwrap();
        let unit = parity_pattern_helper(&QsmMachine::qsm_unit_cr(4), &bits(n, 9), k).unwrap();
        // Plain QSM sees the 2^k = 16 read contention in its ledger.
        assert_eq!(plain.run.ledger.max_contention(), 16);
        // Same phases, but the unit-CR machine charges less overall.
        assert!(unit.run.time() < plain.run.time());
    }

    #[test]
    fn choosing_k_log_g_keeps_level_cost_at_g() {
        // With k = log2(g), every phase of a level costs at most g (reads:
        // 2^k = g; writes: k <= g; publishes: g).
        let g = 16u64;
        let k = 4; // log2(16)
        let m = QsmMachine::qsm(g);
        let out = parity_pattern_helper(&m, &bits(256, 2), k).unwrap();
        assert_eq!(out.run.ledger.max_phase_cost(), g);
    }

    #[test]
    fn default_k_choices() {
        assert_eq!(parity_helper_default_k(&QsmMachine::qsm(16)), 4);
        assert_eq!(parity_helper_default_k(&QsmMachine::qsm(2)), 2);
        assert_eq!(parity_helper_default_k(&QsmMachine::qsm_unit_cr(6)), 6);
        assert_eq!(
            parity_helper_default_k(&QsmMachine::qsm_unit_cr(1 << 20)),
            DEFAULT_GROUP_BITS_CAP
        );
        assert_eq!(parity_helper_default_k(&QsmMachine::sqsm(16)), 2);
    }

    #[test]
    fn single_bit_input() {
        let m = QsmMachine::qsm(4);
        assert_eq!(parity_pattern_helper(&m, &[1], 2).unwrap().value, 1);
        assert_eq!(parity_pattern_helper(&m, &[0], 2).unwrap().value, 0);
        assert_eq!(parity_pattern_helper(&m, &[], 2).unwrap().value, 0);
    }

    #[test]
    #[should_panic(expected = "group size k")]
    fn oversized_k_is_rejected() {
        let m = QsmMachine::qsm(4);
        let _ = parity_pattern_helper(&m, &[1, 0, 1], MAX_GROUP_BITS + 1);
    }

    #[test]
    fn helper_beats_read_tree_on_qsm_with_large_g() {
        // The point of the construction: with g = 256 and k = 8 the helper
        // scheme levels cost O(g) and depth is log_8 n, vs the read tree's
        // 3g per level at depth log_2 n.
        let n = 1 << 10;
        let g = 256u64;
        let m = QsmMachine::qsm(g);
        let input = bits(n, 3);
        let helper = parity_pattern_helper(&m, &input, 8).unwrap();
        let tree = crate::reduce::parity_read_tree(&m, &input, 2).unwrap();
        assert_eq!(helper.value, tree.value);
        assert!(
            helper.run.time() < tree.run.time(),
            "helper {} >= tree {}",
            helper.run.time(),
            tree.run.time()
        );
    }
}
