//! Exhaustive trace analysis: the `Trace`, `States`, `Know`, `AffProc`,
//! `AffCell` and `Cert` machinery of Section 5.1, computed *exactly* on
//! small GSM machines by running the program on every input map.
//!
//! The Random Adversary proofs quantify over these sets; on machines with
//! `r ≤ ~12` boolean inputs we can enumerate all `2^r` input maps, record
//! the full `Trace(v, t, f)` of every processor and cell, and compute the
//! sets by definition. The unit and integration tests then check the
//! *invariants the proofs assert* — e.g. that `|Know|` grows at most as the
//! Lemma 5.1 recurrences allow, and that `deg(States)` obeys the degree
//! bounds — against real executions.

use std::collections::HashMap;
use std::hash::{Hash, Hasher};

use parbounds_boolean::{certificate_set_at, BoolFn, IntPoly};
use parbounds_models::{GsmMachine, GsmProgram, GsmTrace, Result, Word};

/// A processor or cell, the `v` of `Trace(v, t, f)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Entity {
    /// Processor `pid`.
    Proc(usize),
    /// Shared-memory cell `addr`.
    Cell(usize),
}

/// Exhaustive ensemble of traces of one program over all `2^r` input maps.
pub struct TraceEnsemble {
    r: usize,
    phases: usize,
    num_procs: usize,
    cells: Vec<usize>,
    /// `trace_key[input][entity]` = hash of `Trace(entity, t, input)` per
    /// prefix length `t` — `keys[input][entity_index][t]`.
    keys: Vec<HashMap<Entity, Vec<u64>>>,
}

fn hash_one(x: impl Hash) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    x.hash(&mut h);
    h.finish()
}

impl TraceEnsemble {
    /// Runs `make_program()` on every `r`-bit input and records all traces.
    /// `r ≤ 12` keeps this exhaustive step tractable.
    pub fn build<P, F>(machine: &GsmMachine, make_program: F, r: usize) -> Result<Self>
    where
        P: GsmProgram,
        F: Fn() -> P,
    {
        assert!(r <= 12, "exhaustive ensemble limited to r <= 12");
        let mut keys = Vec::with_capacity(1 << r);
        let mut phases = 0;
        let mut num_procs = 0;
        let mut cells: Vec<usize> = Vec::new();
        for mask in 0..1u32 << r {
            let input: Vec<Word> = (0..r).map(|i| Word::from(mask >> i & 1 == 1)).collect();
            let prog = make_program();
            num_procs = prog.num_procs();
            let (_, trace) = machine.run_traced(&prog, &input)?;
            phases = phases.max(trace.phases.len());
            let per_entity = Self::keys_of(&trace, num_procs, &mut cells, machine, &input);
            keys.push(per_entity);
        }
        cells.sort_unstable();
        cells.dedup();
        Ok(TraceEnsemble {
            r,
            phases,
            num_procs,
            cells,
            keys,
        })
    }

    /// Computes incremental trace hashes per entity for one execution.
    fn keys_of(
        trace: &GsmTrace,
        num_procs: usize,
        cells_acc: &mut Vec<usize>,
        machine: &GsmMachine,
        input: &[Word],
    ) -> HashMap<Entity, Vec<u64>> {
        let mut out: HashMap<Entity, Vec<u64>> = HashMap::new();
        // Processor traces: the sequence of (cell, contents) read sets.
        for pid in 0..num_procs {
            let mut acc: u64 = hash_one(pid);
            let mut v = Vec::with_capacity(trace.phases.len());
            for phase in &trace.phases {
                let reads = phase.reads.get(pid).map(|r| r.as_slice()).unwrap_or(&[]);
                acc = hash_one((acc, reads));
                v.push(acc);
            }
            out.insert(Entity::Proc(pid), v);
        }
        // Cell traces: contents at the end of each phase. Reconstruct by
        // replaying writes onto the initial placement.
        let mut contents: HashMap<usize, Vec<Word>> = HashMap::new();
        for (i, &b) in input.iter().enumerate() {
            contents
                .entry(i / machine.gamma() as usize)
                .or_default()
                .push(b);
        }
        let mut touched: Vec<usize> = contents.keys().copied().collect();
        for phase in &trace.phases {
            for w in &phase.writes {
                for &(addr, _) in w {
                    touched.push(addr);
                }
            }
        }
        touched.sort_unstable();
        touched.dedup();
        for &addr in &touched {
            if !cells_acc.contains(&addr) {
                cells_acc.push(addr);
            }
        }
        let mut cell_keys: HashMap<usize, Vec<u64>> =
            touched.iter().map(|&a| (a, Vec::new())).collect();
        for phase in &trace.phases {
            for w in &phase.writes {
                for &(addr, value) in w {
                    contents.entry(addr).or_default().push(value);
                }
            }
            for &addr in &touched {
                let c = contents.get(&addr).map(|v| v.as_slice()).unwrap_or(&[]);
                let v = cell_keys.get_mut(&addr).unwrap();
                let prev = v.last().copied().unwrap_or_else(|| hash_one(addr));
                v.push(hash_one((prev, c)));
            }
        }
        for (addr, v) in cell_keys {
            out.insert(Entity::Cell(addr), v);
        }
        out
    }

    /// Number of boolean inputs.
    pub fn num_inputs(&self) -> usize {
        self.r
    }

    /// Maximum number of phases across inputs.
    pub fn num_phases(&self) -> usize {
        self.phases
    }

    /// All processors and touched cells.
    pub fn entities(&self) -> Vec<Entity> {
        let mut v: Vec<Entity> = (0..self.num_procs).map(Entity::Proc).collect();
        v.extend(self.cells.iter().map(|&a| Entity::Cell(a)));
        v
    }

    /// Trace key of `v` after phase `t` on input `mask` (0 = before any
    /// phase is not represented; `t` counts completed phases, 1-based).
    /// Two inputs share a key iff `Trace(v, t, ·)` is identical on them —
    /// the public handle the t-goodness checker groups states by.
    pub fn trace_key(&self, v: Entity, t: usize, mask: u32) -> u64 {
        self.key(v, t, mask)
    }

    fn key(&self, v: Entity, t: usize, mask: u32) -> u64 {
        debug_assert!(t >= 1);
        self.keys[mask as usize]
            .get(&v)
            .map(|ks| {
                ks.get(t - 1)
                    .copied()
                    .unwrap_or_else(|| *ks.last().unwrap())
            })
            .unwrap_or_else(|| hash_one(v))
    }

    /// `|States(v, t, f*)|`: distinct traces of `v` after `t` phases.
    pub fn num_states(&self, v: Entity, t: usize) -> usize {
        let mut set = std::collections::HashSet::new();
        for mask in 0..1u32 << self.r {
            set.insert(self.key(v, t, mask));
        }
        set.len()
    }

    /// `Know(v, t, f*)`: the set of inputs the trace of `v` depends on,
    /// as a bitmask. For total functions over the cube this is exactly the
    /// junta support of the trace map.
    pub fn know(&self, v: Entity, t: usize) -> u32 {
        let mut support = 0u32;
        for i in 0..self.r {
            let bit = 1u32 << i;
            for mask in 0..1u32 << self.r {
                if mask & bit == 0 && self.key(v, t, mask) != self.key(v, t, mask | bit) {
                    support |= bit;
                    break;
                }
            }
        }
        support
    }

    /// `AffProc(i, t, f*)`: processors whose trace depends on input `i`.
    pub fn aff_proc(&self, i: usize, t: usize) -> Vec<usize> {
        (0..self.num_procs)
            .filter(|&pid| self.know(Entity::Proc(pid), t) & (1 << i) != 0)
            .collect()
    }

    /// `AffCell(i, t, f*)`: cells whose trace depends on input `i`.
    pub fn aff_cell(&self, i: usize, t: usize) -> Vec<usize> {
        self.cells
            .iter()
            .copied()
            .filter(|&a| self.know(Entity::Cell(a), t) & (1 << i) != 0)
            .collect()
    }

    /// `deg(States(v, t, f*))`: the maximum degree of the characteristic
    /// function of any trace class of `v` at `t` (Section 5.2's quantity),
    /// computed exactly via the integer polynomial representation.
    pub fn states_degree(&self, v: Entity, t: usize) -> usize {
        let mut classes: HashMap<u64, Vec<u32>> = HashMap::new();
        for mask in 0..1u32 << self.r {
            classes.entry(self.key(v, t, mask)).or_default().push(mask);
        }
        classes
            .values()
            .map(|members| {
                let set: std::collections::HashSet<u32> = members.iter().copied().collect();
                let f = BoolFn::from_fn(self.r, |a| set.contains(&a));
                IntPoly::of(&f).degree()
            })
            .max()
            .unwrap_or(0)
    }

    /// Trace keys of ONE execution of `prog` on `input` — the same
    /// per-entity incremental `Trace(v, t, ·)` hash chain the exhaustive
    /// ensemble records, but computed for a single concrete input, so it
    /// works at any `n`. The Monte-Carlo adversary samples refinements and
    /// compares these keys across bit flips to estimate trace sensitivity
    /// at sizes where the `2^r` ensemble is unbuildable. Index a returned
    /// vector at `t - 1` for the key after `t` completed phases (vectors
    /// may be shorter than the run for entities that stop changing; the
    /// last entry is the stable key, matching [`TraceEnsemble::trace_key`]).
    pub fn single_run_keys<P: GsmProgram>(
        machine: &GsmMachine,
        prog: &P,
        input: &[Word],
    ) -> Result<HashMap<Entity, Vec<u64>>> {
        let (_, trace) = machine.run_traced(prog, input)?;
        let mut cells = Vec::new();
        Ok(Self::keys_of(
            &trace,
            prog.num_procs(),
            &mut cells,
            machine,
            input,
        ))
    }

    /// `Cert(v, t, f)`-style certificate: the lexicographically smallest
    /// minimum input set that pins `v`'s trace on input `mask`, via the
    /// certificate machinery of `parbounds-boolean` applied to the
    /// trace-class indicator.
    pub fn cert(&self, v: Entity, t: usize, mask: u32) -> u32 {
        let target = self.key(v, t, mask);
        let f = BoolFn::from_fn(self.r, |a| self.key(v, t, a) == target);
        certificate_set_at(&f, mask)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parbounds_models::{GsmEnv, GsmFnProgram, Status};

    /// Two processors: proc 0 reads input cell 0; proc 1 reads cell 1 and
    /// then, iff its bit is 1, reads cell 0 too.
    fn two_proc_program() -> impl GsmProgram<Proc = Option<Word>> {
        GsmFnProgram::new(
            2,
            |_| None,
            |pid, st: &mut Option<Word>, env: &mut GsmEnv<'_>| match env.phase() {
                0 => {
                    env.read(pid);
                    Status::Active
                }
                1 => {
                    let bit = env.delivered()[0].1.first().copied().unwrap_or(0);
                    *st = Some(bit);
                    if pid == 1 && bit == 1 {
                        env.read(0);
                        Status::Active
                    } else {
                        Status::Done
                    }
                }
                _ => Status::Done,
            },
        )
    }

    #[test]
    fn know_sets_are_exact() {
        let m = GsmMachine::new(1, 1, 1);
        let ens = TraceEnsemble::build(&m, two_proc_program, 2).unwrap();
        // After phase 1 (reads delivered at phase 2's view, but the trace
        // records the read contents at the read phase itself): proc 0 knows
        // x0, proc 1 knows x1.
        assert_eq!(ens.know(Entity::Proc(0), 1), 0b01);
        assert_eq!(ens.know(Entity::Proc(1), 1), 0b10);
        // After phase 2, proc 1's trace depends on x0 as well (it read cell
        // 0 when x1 = 1).
        assert_eq!(ens.know(Entity::Proc(1), 2), 0b11);
        assert_eq!(ens.know(Entity::Proc(0), 2), 0b01);
    }

    #[test]
    fn aff_sets_mirror_know() {
        let m = GsmMachine::new(1, 1, 1);
        let ens = TraceEnsemble::build(&m, two_proc_program, 2).unwrap();
        assert_eq!(ens.aff_proc(0, 2), vec![0, 1]);
        assert_eq!(ens.aff_proc(1, 2), vec![1]);
    }

    #[test]
    fn single_run_keys_agree_with_the_ensemble() {
        let m = GsmMachine::new(1, 1, 1);
        let ens = TraceEnsemble::build(&m, two_proc_program, 2).unwrap();
        for mask in 0..4u32 {
            let input: Vec<Word> = (0..2).map(|i| Word::from(mask >> i & 1 == 1)).collect();
            let prog = two_proc_program();
            let keys = TraceEnsemble::single_run_keys(&m, &prog, &input).unwrap();
            for (v, ks) in &keys {
                for t in 1..=ks.len() {
                    assert_eq!(ks[t - 1], ens.trace_key(*v, t, mask), "{v:?} t={t}");
                }
            }
        }
    }

    #[test]
    fn states_count_matches_information() {
        let m = GsmMachine::new(1, 1, 1);
        let ens = TraceEnsemble::build(&m, two_proc_program, 2).unwrap();
        // Proc 0 has 2 states after phase 1 (x0 = 0 or 1).
        assert_eq!(ens.num_states(Entity::Proc(0), 1), 2);
        // Proc 1 after phase 2: x1=0 (one state), x1=1 with x0 in {0,1}
        // (two states) = 3.
        assert_eq!(ens.num_states(Entity::Proc(1), 2), 3);
    }

    #[test]
    fn states_degree_is_bounded_by_know_size() {
        let m = GsmMachine::new(1, 1, 1);
        let ens = TraceEnsemble::build(&m, two_proc_program, 2).unwrap();
        for v in ens.entities() {
            for t in 1..=ens.num_phases() {
                let deg = ens.states_degree(v, t);
                let know = ens.know(v, t).count_ones() as usize;
                assert!(deg <= know, "{v:?} t={t}: deg {deg} > know {know}");
            }
        }
    }

    #[test]
    fn cert_is_within_know_and_pins_trace() {
        let m = GsmMachine::new(1, 1, 1);
        let ens = TraceEnsemble::build(&m, two_proc_program, 2).unwrap();
        // For proc 1 at t=2 on input x=00: certificate is {x1} (x1=0 alone
        // pins the trace: no second read happens).
        let c = ens.cert(Entity::Proc(1), 2, 0b00);
        assert_eq!(c, 0b10);
        // On input x=11 the certificate must include both variables.
        let c = ens.cert(Entity::Proc(1), 2, 0b11);
        assert_eq!(c, 0b11);
        for mask in 0..4 {
            let know = ens.know(Entity::Proc(1), 2);
            assert_eq!(ens.cert(Entity::Proc(1), 2, mask) & !know, 0);
        }
    }

    #[test]
    fn input_cells_know_their_inputs() {
        let m = GsmMachine::new(1, 1, 2); // gamma = 2: both bits in cell 0
        let prog = || {
            GsmFnProgram::new(
                1,
                |_| (),
                |_, _, env: &mut GsmEnv<'_>| {
                    if env.phase() == 0 {
                        env.read(0);
                        Status::Active
                    } else {
                        Status::Done
                    }
                },
            )
        };
        let ens = TraceEnsemble::build(&m, prog, 2).unwrap();
        // Cell 0 initially holds both inputs: it "knows" x0 and x1.
        assert_eq!(ens.know(Entity::Cell(0), 1), 0b11);
        // The single processor learns both bits by reading the cell.
        assert_eq!(ens.know(Entity::Proc(0), 1), 0b11);
    }
}
