//! The **modified** Random Adversary of Section 7.1, executable: instead of
//! fixing inputs one by one, the adversary restricts a *set of input maps*
//! phase by phase (RANDOMRESTRICT), and only fully fixes the input
//! (RANDOMFIX) when the algorithm's possible behaviour already forces a
//! large step — the structure of the Section 7 REFINE (lines (1)–(20)).
//!
//! On machines small enough for exhaustive enumeration the set of input
//! maps is explicit (`Vec<mask>`), the mixture distribution `D` of
//! Section 7.3 assigns each mask a weight, and every `Max…(t, F)` quantity
//! is computed exactly from precomputed per-mask request tables — the same
//! material [`crate::random_adversary::GsmRefine`] uses for the Section 5
//! adversary.

use rand::Rng;

use parbounds_models::{GsmMachine, GsmProgram, Result, Word};

use crate::or_adversary::OrDistribution;

/// A set of still-possible input maps with the §7 mixture weights.
#[derive(Debug, Clone)]
pub struct MapSet {
    /// The masks still possible.
    pub masks: Vec<u32>,
    /// `weights[i]` = `P_D(masks[i])` (unnormalized within the set).
    pub weights: Vec<f64>,
}

impl MapSet {
    /// Total probability mass of the set under `D`.
    pub fn mass(&self) -> f64 {
        self.weights.iter().sum()
    }

    /// Splits into `(in_subset, rest)` by a predicate.
    fn split(&self, pred: impl Fn(u32) -> bool) -> (MapSet, MapSet) {
        let mut yes = MapSet {
            masks: vec![],
            weights: vec![],
        };
        let mut no = MapSet {
            masks: vec![],
            weights: vec![],
        };
        for (&m, &w) in self.masks.iter().zip(&self.weights) {
            let side = if pred(m) { &mut yes } else { &mut no };
            side.masks.push(m);
            side.weights.push(w);
        }
        (yes, no)
    }
}

/// The §7.3 mixture `D` over `r`-bit masks, materialized: the all-zeros
/// atom carries mass 1/2; each `H_i` contributes `1/(2·#components)` spread
/// binomially by its density.
pub fn materialize_distribution(dist: &OrDistribution, r: usize) -> MapSet {
    assert!(r <= 16, "materialization limited to r <= 16");
    let comps = dist.densities.len() as f64;
    let mut weights = vec![0.0; 1 << r];
    weights[0] += 0.5;
    for &p in &dist.densities {
        for (mask, w) in weights.iter_mut().enumerate() {
            let ones = (mask as u32).count_ones() as i32;
            *w += (0.5 / comps) * p.powi(ones) * (1.0 - p).powi(r as i32 - ones);
        }
    }
    MapSet {
        masks: (0..1u32 << r).collect(),
        weights,
    }
}

/// RANDOMFIX: draws one complete input map from `D` restricted to the set.
pub fn random_fix<R: Rng>(set: &MapSet, rng: &mut R) -> u32 {
    let total = set.mass();
    assert!(total > 0.0, "empty or null set");
    let mut x = rng.gen::<f64>() * total;
    for (&m, &w) in set.masks.iter().zip(&set.weights) {
        x -= w;
        if x <= 0.0 {
            return m;
        }
    }
    *set.masks.last().unwrap()
}

/// RANDOMRESTRICT: returns either `subset` (with probability
/// `mass(subset)/mass(set)`) or its complement within `set`.
pub fn random_restrict<R: Rng>(
    set: &MapSet,
    subset_pred: impl Fn(u32) -> bool,
    rng: &mut R,
) -> (MapSet, bool) {
    let (yes, no) = set.split(subset_pred);
    let p = if set.mass() > 0.0 {
        yes.mass() / set.mass()
    } else {
        0.0
    };
    if rng.gen::<f64>() < p {
        (yes, true)
    } else {
        (no, false)
    }
}

/// The outcome of one §7 REFINE call.
#[derive(Debug)]
pub struct OrRefineStep {
    /// Lower bound on the phase's big-steps.
    pub x: u64,
    /// TRUE once the input map is fully defined (lines (4)/(10)/(17)).
    pub done: bool,
    /// The fixed mask, if `done`.
    pub fixed: Option<u32>,
}

/// The Section 7 REFINE against a concrete small GSM program.
pub struct OrRefine {
    r: usize,
    threshold: u64,
    /// `rw[mask][phase]` = max per-processor requests.
    rw: Vec<Vec<u64>>,
    /// `contention[mask][phase]` = max per-cell contention.
    contention: Vec<Vec<u64>>,
    /// Current set of possible maps.
    pub set: MapSet,
    /// Which mixture component index the H_t tested at step t refers to.
    next_h: usize,
    densities: Vec<f64>,
}

impl OrRefine {
    /// Precomputes the request tables and materializes `D`.
    pub fn build<P, F>(
        machine: &GsmMachine,
        make_program: F,
        r: usize,
        dist: &OrDistribution,
        threshold: u64,
    ) -> Result<Self>
    where
        P: GsmProgram,
        F: Fn() -> P,
    {
        assert!(r <= 12);
        let mut rw = Vec::with_capacity(1 << r);
        let mut contention = Vec::with_capacity(1 << r);
        for mask in 0..1u32 << r {
            let input: Vec<Word> = (0..r).map(|i| Word::from(mask >> i & 1 == 1)).collect();
            let (_, trace) = machine.run_traced(&make_program(), &input)?;
            let mut per_rw = Vec::with_capacity(trace.phases.len());
            let mut per_cont = Vec::with_capacity(trace.phases.len());
            for phase in &trace.phases {
                per_rw.push(
                    phase
                        .reads
                        .iter()
                        .zip(&phase.writes)
                        .map(|(r, w)| r.len().max(w.len()) as u64)
                        .max()
                        .unwrap_or(0),
                );
                let mut counts = std::collections::HashMap::new();
                for rs in &phase.reads {
                    for &(a, _) in rs {
                        *counts.entry(a).or_insert(0u64) += 1;
                    }
                }
                for ws in &phase.writes {
                    for &(a, _) in ws {
                        *counts.entry(a).or_insert(0u64) += 1;
                    }
                }
                per_cont.push(counts.values().copied().max().unwrap_or(0));
            }
            rw.push(per_rw);
            contention.push(per_cont);
        }
        Ok(OrRefine {
            r,
            threshold,
            rw,
            contention,
            set: materialize_distribution(dist, r),
            next_h: 0,
            densities: dist.densities.clone(),
        })
    }

    fn max_rw(&self, phase: usize) -> u64 {
        self.set
            .masks
            .iter()
            .map(|&m| self.rw[m as usize].get(phase).copied().unwrap_or(0))
            .max()
            .unwrap_or(0)
    }

    fn max_contention(&self, phase: usize) -> u64 {
        self.set
            .masks
            .iter()
            .map(|&m| self.contention[m as usize].get(phase).copied().unwrap_or(0))
            .max()
            .unwrap_or(0)
    }

    /// One REFINE call at phase `t` (the §7 procedure):
    /// * if the maximum possible per-processor traffic or per-cell
    ///   contention over the surviving maps reaches the threshold, the
    ///   adversary RANDOMFIXes the input (lines (3)–(13)) — the algorithm
    ///   has committed to an expensive step;
    /// * otherwise it RANDOMRESTRICTs against the next `H_t`-flavoured
    ///   subset (here: "has at least one group of ones at density `d_t`" ≈
    ///   the maps `H_t` is likeliest to produce); drawing the subset ends
    ///   the game with a fixed map (line (17)), drawing the complement
    ///   continues with `x = 1`.
    pub fn refine<R: Rng>(&mut self, t: usize, rng: &mut R) -> OrRefineStep {
        let rw = self.max_rw(t);
        let kappa = self.max_contention(t);
        if rw >= self.threshold || kappa >= self.threshold {
            // Force the expensive behaviour: fix toward the maximizing map.
            let target: u32 = *self
                .set
                .masks
                .iter()
                .max_by_key(|&&m| {
                    self.rw[m as usize]
                        .get(t)
                        .copied()
                        .unwrap_or(0)
                        .max(self.contention[m as usize].get(t).copied().unwrap_or(0))
                })
                .unwrap();
            let fixed = if self.set.masks.contains(&target) {
                target
            } else {
                random_fix(&self.set, rng)
            };
            let x = self.rw[fixed as usize]
                .get(t)
                .copied()
                .unwrap_or(1)
                .max(self.contention[fixed as usize].get(t).copied().unwrap_or(1))
                .max(1);
            self.set = MapSet {
                masks: vec![fixed],
                weights: vec![1.0],
            };
            return OrRefineStep {
                x,
                done: true,
                fixed: Some(fixed),
            };
        }
        // RANDOMRESTRICT against the H_t-typical subset: masks whose
        // population matches density d_t within a factor of 2 (nonzero).
        let d = self.densities.get(self.next_h).copied().unwrap_or(1e-9);
        self.next_h = (self.next_h + 1).min(self.densities.len().saturating_sub(1));
        let r = self.r as f64;
        let expect = (d * r).max(1.0);
        let (set, took_subset) = random_restrict(
            &self.set,
            |m| {
                let ones = m.count_ones() as f64;
                ones >= 1.0 && ones <= 2.0 * expect
            },
            rng,
        );
        if set.masks.is_empty() {
            // Degenerate split; keep the old set.
            return OrRefineStep {
                x: 1,
                done: false,
                fixed: None,
            };
        }
        self.set = set;
        if took_subset {
            let fixed = random_fix(&self.set.clone(), rng);
            self.set = MapSet {
                masks: vec![fixed],
                weights: vec![1.0],
            };
            OrRefineStep {
                x: 1,
                done: true,
                fixed: Some(fixed),
            }
        } else {
            OrRefineStep {
                x: 1,
                done: false,
                fixed: None,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parbounds_models::{GsmEnv, GsmFnProgram, Status};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn or_tree(r: usize) -> impl GsmProgram<Proc = ()> + use<> {
        // Fan-in-2 OR tree on the GSM.
        let mut nodes = Vec::new();
        let mut bases = vec![0usize];
        let (mut width, mut next, mut level) = (r, r, 1usize);
        while width > 1 {
            let w2 = width.div_ceil(2);
            bases.push(next);
            for j in 0..w2 {
                nodes.push((level, j, width));
            }
            next += w2;
            width = w2;
            level += 1;
        }
        GsmFnProgram::new(
            nodes.len().max(1),
            move |_| (),
            move |pid, _, env: &mut GsmEnv<'_>| {
                let (level, j, prev_width) = nodes[pid];
                let read_phase = 2 * (level - 1);
                match env.phase() {
                    t if t < read_phase => Status::Active,
                    t if t == read_phase => {
                        env.read(bases[level - 1] + 2 * j);
                        if 2 * j + 1 < prev_width {
                            env.read(bases[level - 1] + 2 * j + 1);
                        }
                        Status::Active
                    }
                    _ => {
                        let x = Word::from(
                            env.delivered()
                                .iter()
                                .any(|(_, c)| c.iter().any(|&b| b != 0)),
                        );
                        env.write(bases[level] + j, x);
                        Status::Done
                    }
                }
            },
        )
    }

    #[test]
    fn materialized_distribution_is_a_probability() {
        let d = OrDistribution::new(256, 2, 1);
        let set = materialize_distribution(&d, 8);
        assert!((set.mass() - 1.0).abs() < 1e-9, "mass {}", set.mass());
        // The zero mask holds at least half the mass.
        assert!(set.weights[0] >= 0.5);
    }

    #[test]
    fn random_fix_respects_the_weights() {
        let d = OrDistribution::new(256, 2, 1);
        let set = materialize_distribution(&d, 8);
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let zeros = (0..4000)
            .filter(|_| random_fix(&set, &mut rng) == 0)
            .count();
        assert!(zeros >= 1800, "zeros {zeros}"); // ~>= the 1/2 atom
    }

    #[test]
    fn random_restrict_partitions_mass() {
        let d = OrDistribution::new(256, 2, 1);
        let set = materialize_distribution(&d, 8);
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let mut took = 0;
        let trials = 3000;
        for _ in 0..trials {
            let (_, yes) = random_restrict(&set, |m| m == 0, &mut rng);
            took += usize::from(yes);
        }
        // P(subset) = weight of the zero mask: the 1/2 atom plus the
        // all-zero mass of the sparse H_i components (~0.79 here).
        let rate = took as f64 / trials as f64;
        assert!((0.5..0.95).contains(&rate), "rate {rate}");
        assert!(
            (rate - set.weights[0]).abs() < 0.05,
            "rate {rate} vs weight {}",
            set.weights[0]
        );
    }

    #[test]
    fn refine_drives_the_or_tree_without_breaking() {
        let r = 8;
        let machine = GsmMachine::new(1, 1, 1);
        let dist = OrDistribution::new(r, machine.mu(), 1);
        let mut refine = OrRefine::build(&machine, || or_tree(r), r, &dist, 64).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let mut total = 0u64;
        for t in 0..32 {
            let step = refine.refine(t, &mut rng);
            total += step.x;
            if step.done {
                assert_eq!(refine.set.masks.len(), 1);
                break;
            }
            assert!(!refine.set.masks.is_empty());
        }
        assert!(total >= 1);
    }

    #[test]
    fn low_threshold_triggers_randomfix_immediately() {
        // The tree's first phase has m_rw = 2: threshold 2 fires line (4).
        let r = 8;
        let machine = GsmMachine::new(1, 1, 1);
        let dist = OrDistribution::new(r, 1, 1);
        let mut refine = OrRefine::build(&machine, || or_tree(r), r, &dist, 2).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let step = refine.refine(0, &mut rng);
        assert!(step.done);
        assert!(step.x >= 2);
    }

    #[test]
    fn generated_inputs_follow_d_through_the_adversary() {
        // Lemma 4.1 analogue for the modified adversary: run REFINE to
        // completion many times; the all-zeros rate must match the atom.
        let r = 6;
        let machine = GsmMachine::new(1, 1, 1);
        let dist = OrDistribution::new(r, 1, 1);
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let mut zeros = 0;
        let trials = 1500;
        for _ in 0..trials {
            let mut refine = OrRefine::build(&machine, || or_tree(r), r, &dist, u64::MAX).unwrap();
            let mut t = 0;
            let fixed = loop {
                let step = refine.refine(t, &mut rng);
                t += 1;
                if let Some(m) = step.fixed {
                    break m;
                }
                if t > 64 {
                    break random_fix(&refine.set, &mut rng);
                }
            };
            zeros += usize::from(fixed == 0);
        }
        let rate = zeros as f64 / trials as f64;
        assert!((0.40..0.85).contains(&rate), "all-zeros rate {rate}");
    }
}
