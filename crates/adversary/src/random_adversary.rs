//! The Random Adversary technique (Sections 4 and 5), executable.
//!
//! The framework pieces map one-to-one onto the paper:
//!
//! * [`PartialInput`] — partial input maps `f : I → {*, 0, 1}` with the
//!   refinement order;
//! * [`random_set`] — the RANDOMSET procedure: fixes the requested unset
//!   inputs one at a time according to the conditional distribution
//!   (Fact 4.1: any interleaving of RANDOMSET calls generates exactly the
//!   target distribution — tested statistically below);
//! * [`Refine`] + [`generate`] — the REFINE/GENERATE driver of Section 4.3;
//! * [`GsmRefine`] — the Section 5 REFINE instantiated against a *real*
//!   small GSM program: it finds the processor (then cell) with the maximum
//!   possible next-phase traffic over all refinements, pins the certificate
//!   of that behaviour with RANDOMSET, and returns the resulting big-step
//!   lower bound for the phase. All "maximum possible over refinements"
//!   quantities are computed exactly by exhaustive enumeration.

use rand::Rng;

use parbounds_models::{GsmMachine, GsmProgram, Result, Word};

use crate::mask::{RefinementMasks, TooManyInputs};
use crate::traces::{Entity, TraceEnsemble};

/// A partial input map over `r` boolean inputs. `None` is the paper's `*`.
pub type PartialInput = Vec<Option<bool>>;

/// The all-unset map `f_*`.
pub fn f_star(r: usize) -> PartialInput {
    vec![None; r]
}

/// Does `fine` refine `coarse` (`fine ≤ coarse`)?
pub fn refines(fine: &PartialInput, coarse: &PartialInput) -> bool {
    coarse
        .iter()
        .zip(fine.iter())
        .all(|(c, f)| c.is_none() || c == f)
}

/// Does complete input `mask` refine `f`? Typed [`TooManyInputs`] error
/// beyond 32 inputs instead of shifting out of range; the wide-input
/// counterpart is [`crate::mask::BitMask::refines`].
pub fn mask_refines(mask: u32, f: &PartialInput) -> std::result::Result<bool, TooManyInputs> {
    if f.len() > 32 {
        return Err(TooManyInputs {
            len: f.len(),
            limit: 32,
        });
    }
    Ok(f.iter()
        .enumerate()
        .all(|(i, v)| v.is_none_or(|b| (mask >> i & 1 == 1) == b)))
}

/// Lazy iterator over all complete inputs refining `f` — exactly the
/// `2^unset` subcube members, produced without materializing or
/// filtering the full `2^r` cube.
pub fn refinement_masks(f: &PartialInput) -> std::result::Result<RefinementMasks, TooManyInputs> {
    RefinementMasks::over(f)
}

/// An input distribution over `{0,1}^r`, queried through the conditionals
/// RANDOMSET needs.
pub trait InputDistribution {
    /// Number of inputs `r`.
    fn num_inputs(&self) -> usize;
    /// `P(x_i = 1 | the assignments already fixed in f)`.
    fn conditional_p_one(&self, i: usize, f: &PartialInput) -> f64;
}

/// Independent fair bits — the Parity/LAC adversary distribution.
#[derive(Debug, Clone, Copy)]
pub struct UniformBits(pub usize);

impl InputDistribution for UniformBits {
    fn num_inputs(&self) -> usize {
        self.0
    }
    fn conditional_p_one(&self, _i: usize, _f: &PartialInput) -> f64 {
        0.5
    }
}

/// Independent biased bits (each 1 with probability `p`) — the `H_i`
/// building blocks of the Section 7 OR distribution.
#[derive(Debug, Clone, Copy)]
pub struct BiasedBits {
    /// Number of inputs.
    pub n: usize,
    /// Per-bit probability of a 1.
    pub p: f64,
}

impl InputDistribution for BiasedBits {
    fn num_inputs(&self) -> usize {
        self.n
    }
    fn conditional_p_one(&self, _i: usize, _f: &PartialInput) -> f64 {
        self.p
    }
}

/// RANDOMSET: fixes every input of `s` that is still `*` in `f`, one at a
/// time, by the conditional distribution.
pub fn random_set<D: InputDistribution, R: Rng>(
    dist: &D,
    f: &mut PartialInput,
    s: &[usize],
    rng: &mut R,
) {
    for &i in s {
        if f[i].is_none() {
            let p = dist.conditional_p_one(i, f);
            f[i] = Some(rng.gen_bool(p.clamp(0.0, 1.0)));
        }
    }
}

/// A REFINE procedure (Section 4.3): inspects the algorithm at step `t`
/// under partial input `f`, refines `f` (only via RANDOMSET), and returns a
/// lower bound `x ≥ 1` on the cost of the step.
pub trait Refine<D: InputDistribution> {
    /// One REFINE call.
    fn refine<R: Rng>(&mut self, t: u64, f: &mut PartialInput, dist: &D, rng: &mut R) -> u64;
}

/// GENERATE (Section 4.3): drives REFINE until the accumulated step bound
/// reaches `t_limit`, then completes the map with RANDOMSET. Returns the
/// trajectory of `(t, f_t)` snapshots and the final complete input.
pub fn generate<D: InputDistribution, RF: Refine<D>, R: Rng>(
    refiner: &mut RF,
    dist: &D,
    t_limit: u64,
    rng: &mut R,
) -> (Vec<(u64, PartialInput)>, u32) {
    let r = dist.num_inputs();
    let mut f = f_star(r);
    let mut t = 0u64;
    let mut trajectory = vec![(0, f.clone())];
    while t <= t_limit {
        let x = refiner.refine(t, &mut f, dist, rng).max(1);
        t += x;
        trajectory.push((t, f.clone()));
    }
    let unset: Vec<usize> = (0..r).filter(|&i| f[i].is_none()).collect();
    random_set(dist, &mut f, &unset, rng);
    let mask = f
        .iter()
        .enumerate()
        .fold(0u32, |m, (i, v)| m | (u32::from(v.unwrap()) << i));
    (trajectory, mask)
}

/// The Section 5 REFINE instantiated against a concrete small GSM program.
///
/// Per-phase request tables for every complete input are precomputed by
/// exhaustive traced runs, so `MaxProc`, `MaxRWP`, `MaxCell` and `MaxRWC`
/// are *exact* maxima over the refinements of the current partial map, and
/// the certificates pinning them come from the trace ensemble.
pub struct GsmRefine {
    r: usize,
    alpha: u64,
    beta: u64,
    /// `rw[mask][phase][pid]` = max(#reads, #writes) of `pid` in `phase`.
    rw: Vec<Vec<Vec<u32>>>,
    /// `contention[mask][phase]` = (cell, count) with the max contention.
    contention: Vec<Vec<(usize, u32)>>,
    /// Trace ensemble for certificates.
    ensemble: TraceEnsemble,
    /// Inputs fixed by this refiner across all calls (for budget checks).
    pub inputs_fixed: usize,
}

impl GsmRefine {
    /// Precomputes the exhaustive tables for `make_program` on `machine`.
    pub fn build<P, F>(machine: &GsmMachine, make_program: F, r: usize) -> Result<Self>
    where
        P: GsmProgram,
        F: Fn() -> P,
    {
        assert!(r <= 10, "exhaustive REFINE limited to r <= 10");
        let ensemble = TraceEnsemble::build(machine, &make_program, r)?;
        let mut rw = Vec::with_capacity(1 << r);
        let mut contention = Vec::with_capacity(1 << r);
        for mask in 0..1u32 << r {
            let input: Vec<Word> = (0..r).map(|i| Word::from(mask >> i & 1 == 1)).collect();
            let (_, trace) = machine.run_traced(&make_program(), &input)?;
            let mut per_phase_rw = Vec::with_capacity(trace.phases.len());
            let mut per_phase_cont = Vec::with_capacity(trace.phases.len());
            for phase in &trace.phases {
                let procs = phase.reads.len();
                let mut v = Vec::with_capacity(procs);
                let mut counts: std::collections::HashMap<usize, u32> = Default::default();
                for pid in 0..procs {
                    v.push(phase.reads[pid].len().max(phase.writes[pid].len()) as u32);
                    for &(a, _) in &phase.reads[pid] {
                        *counts.entry(a).or_insert(0) += 1;
                    }
                    for &(a, _) in &phase.writes[pid] {
                        *counts.entry(a).or_insert(0) += 1;
                    }
                }
                let max = counts.into_iter().max_by_key(|&(_, c)| c).unwrap_or((0, 0));
                per_phase_rw.push(v);
                per_phase_cont.push((max.0, max.1));
            }
            rw.push(per_phase_rw);
            contention.push(per_phase_cont);
        }
        Ok(GsmRefine {
            r,
            alpha: machine.alpha(),
            beta: machine.beta(),
            rw,
            contention,
            ensemble,
            inputs_fixed: 0,
        })
    }

    fn max_rw_at(&self, mask: u32, phase: usize) -> (usize, u32) {
        self.rw[mask as usize]
            .get(phase)
            .map(|v| {
                v.iter()
                    .enumerate()
                    .max_by_key(|&(_, &c)| c)
                    .map(|(pid, &c)| (pid, c))
                    .unwrap_or((0, 0))
            })
            .unwrap_or((0, 0))
    }

    fn contention_at(&self, mask: u32, phase: usize) -> (usize, u32) {
        self.contention[mask as usize]
            .get(phase)
            .copied()
            .unwrap_or((0, 0))
    }
}

impl<D: InputDistribution> Refine<D> for GsmRefine {
    fn refine<R: Rng>(&mut self, t: u64, f: &mut PartialInput, dist: &D, rng: &mut R) -> u64 {
        let phase = t as usize;
        // The exhaustive REFINE asserts r <= 10 at build time, so u32
        // mask enumeration cannot fail here.
        let masks = |f: &PartialInput| refinement_masks(f).expect("r <= 10 fits u32 masks");
        // Lines (4)-(10): force the max-traffic processor's behaviour.
        let max_count_rw;
        loop {
            let (h, pid, _count) = masks(f)
                .map(|m| {
                    let (pid, c) = self.max_rw_at(m, phase);
                    (m, pid, c)
                })
                .max_by_key(|&(_, _, c)| c)
                .expect("at least one refinement");
            // Certificate of the processor's trace through `phase` on h
            // (its phase-(t+1) behaviour is a function of that trace).
            let cert = self.ensemble.cert(Entity::Proc(pid), (phase + 1).max(1), h);
            let cert_vars: Vec<usize> = (0..self.r)
                .filter(|&i| cert >> i & 1 == 1 && f[i].is_none())
                .collect();
            self.inputs_fixed += cert_vars.len();
            random_set(dist, f, &cert_vars, rng);
            if mask_refines(h, f).expect("r <= 10 fits u32 masks") || cert_vars.is_empty() {
                max_count_rw = self.max_rw_at(h, phase).1 as u64;
                break;
            }
        }
        // Lines (12)-(21): force the max-contention cell's traffic.
        let max_contention;
        loop {
            let (h, cell, _count) = masks(f)
                .map(|m| {
                    let (cell, c) = self.contention_at(m, phase);
                    (m, cell, c)
                })
                .max_by_key(|&(_, _, c)| c)
                .expect("at least one refinement");
            let cert = self
                .ensemble
                .cert(Entity::Cell(cell), (phase + 1).max(1), h);
            let cert_vars: Vec<usize> = (0..self.r)
                .filter(|&i| cert >> i & 1 == 1 && f[i].is_none())
                .collect();
            self.inputs_fixed += cert_vars.len();
            random_set(dist, f, &cert_vars, rng);
            if mask_refines(h, f).expect("r <= 10 fits u32 masks") || cert_vars.is_empty() {
                max_contention = self.contention_at(h, phase).1 as u64;
                break;
            }
        }
        max_count_rw
            .div_ceil(self.alpha)
            .max(max_contention.div_ceil(self.beta))
            .max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parbounds_models::{GsmEnv, GsmFnProgram, Status};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn refinement_order_basics() {
        let coarse: PartialInput = vec![None, Some(true), None];
        let fine: PartialInput = vec![Some(false), Some(true), None];
        assert!(refines(&fine, &coarse));
        assert!(!refines(&coarse, &fine));
        assert!(refines(&coarse, &f_star(3)));
        assert!(mask_refines(0b010, &coarse).unwrap());
        assert!(!mask_refines(0b001, &coarse).unwrap());
        let it = refinement_masks(&coarse).unwrap();
        assert_eq!(it.num_masks(), 4);
        assert_eq!(it.count(), 4);
        // Beyond 32 inputs the u32 enumeration reports a typed error.
        assert!(mask_refines(0, &f_star(33)).is_err());
        assert!(refinement_masks(&f_star(33)).is_err());
    }

    /// Fact 4.1: any interleaving of RANDOMSET calls produces the target
    /// distribution. Fix inputs in two stages and chi-square-ish check
    /// uniformity of the final maps.
    #[test]
    fn randomset_preserves_the_distribution() {
        let dist = UniformBits(4);
        let mut rng = ChaCha8Rng::seed_from_u64(42);
        let trials = 16000;
        let mut counts = [0u32; 16];
        for _ in 0..trials {
            let mut f = f_star(4);
            random_set(&dist, &mut f, &[2, 0], &mut rng);
            random_set(&dist, &mut f, &[1, 3, 2], &mut rng); // 2 already set
            let mask = f
                .iter()
                .enumerate()
                .fold(0u32, |m, (i, v)| m | (u32::from(v.unwrap()) << i));
            counts[mask as usize] += 1;
        }
        let expect = trials as f64 / 16.0;
        for (mask, &c) in counts.iter().enumerate() {
            assert!(
                (c as f64 - expect).abs() < 5.0 * expect.sqrt(),
                "mask {mask:04b}: {c} vs {expect}"
            );
        }
    }

    #[test]
    fn biased_distribution_is_respected() {
        let dist = BiasedBits { n: 1, p: 0.125 };
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let mut ones = 0;
        for _ in 0..8000 {
            let mut f = f_star(1);
            random_set(&dist, &mut f, &[0], &mut rng);
            ones += u32::from(f[0].unwrap());
        }
        assert!((800..1200).contains(&ones), "ones = {ones}");
    }

    /// Parity tree on 4 bits as the target program for GsmRefine.
    fn parity4() -> impl GsmProgram<Proc = ()> {
        GsmFnProgram::new(
            3,
            |_| (),
            |pid, _, env: &mut GsmEnv<'_>| {
                // pids 0,1: level-1 nodes; pid 2: root.
                match (pid, env.phase()) {
                    (0 | 1, 0) => {
                        env.read(2 * pid);
                        env.read(2 * pid + 1);
                        Status::Active
                    }
                    (0 | 1, 1) => {
                        let x = env
                            .delivered()
                            .iter()
                            .map(|(_, c)| c.first().copied().unwrap_or(0))
                            .fold(0, |a, b| a ^ (b & 1));
                        env.write(4 + pid, x);
                        Status::Done
                    }
                    (2, 2) => {
                        env.read(4);
                        env.read(5);
                        Status::Active
                    }
                    (2, 3) => {
                        let x = env
                            .delivered()
                            .iter()
                            .map(|(_, c)| c.first().copied().unwrap_or(0))
                            .fold(0, |a, b| a ^ (b & 1));
                        env.write(6, x);
                        Status::Done
                    }
                    _ => Status::Active,
                }
            },
        )
    }

    #[test]
    fn gsm_refine_reports_true_phase_costs() {
        let m = GsmMachine::new(1, 1, 1);
        let mut refiner = GsmRefine::build(&m, parity4, 4).unwrap();
        let dist = UniformBits(4);
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let mut f = f_star(4);
        // Phase 0: both level-1 nodes issue 2 reads; contention 1.
        let x0 = Refine::<UniformBits>::refine(&mut refiner, 0, &mut f, &dist, &mut rng);
        assert_eq!(x0, 2, "phase 0 has m_rw = 2");
        // The refinement never sets more inputs than exist.
        assert!(refiner.inputs_fixed <= 4);
        // All returned bounds are >= 1 and the trajectory stays refinable.
        let x1 = Refine::<UniformBits>::refine(&mut refiner, 1, &mut f, &dist, &mut rng);
        assert!(x1 >= 1);
        assert!(refinement_masks(&f).unwrap().num_masks() >= 1);
    }

    #[test]
    fn generate_drives_to_the_time_limit_and_completes_the_map() {
        let m = GsmMachine::new(1, 1, 1);
        let mut refiner = GsmRefine::build(&m, parity4, 4).unwrap();
        let dist = UniformBits(4);
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let (trajectory, mask) = generate(&mut refiner, &dist, 3, &mut rng);
        assert!(trajectory.last().unwrap().0 > 3);
        assert!(mask < 16);
        // Trajectory is a refinement chain.
        for w in trajectory.windows(2) {
            assert!(refines(&w[1].1, &w[0].1));
        }
    }

    /// Lemma 4.1-flavoured check: the complete inputs produced by GENERATE
    /// (through this REFINE) are distributed by D — uniformly here.
    #[test]
    fn generate_output_distribution_is_unbiased() {
        let m = GsmMachine::new(1, 1, 1);
        let dist = UniformBits(4);
        let mut counts = [0u32; 16];
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let trials = 4000;
        let mut refiner = GsmRefine::build(&m, parity4, 4).unwrap();
        for _ in 0..trials {
            let (_, mask) = generate(&mut refiner, &dist, 2, &mut rng);
            counts[mask as usize] += 1;
        }
        let expect = trials as f64 / 16.0;
        for (mask, &c) in counts.iter().enumerate() {
            assert!(
                (c as f64 - expect).abs() < 6.0 * expect.sqrt(),
                "mask {mask:04b}: {c} vs {expect}"
            );
        }
    }
}
