//! QSM-on-BSP emulation — the "bridging model" simulation underlying the
//! paper's model relationships (Gibbons–Matias–Ramachandran's question
//! "can a shared-memory model serve as a bridging model?" and the phase
//! simulations inside Claim 2.1).
//!
//! Any QSM [`Program`] runs unchanged on a [`BspMachine`]: shared-memory
//! cells are distributed across the components by their owner map, and
//! each QSM phase becomes **two supersteps** —
//!
//! 1. *request*: components run the phase callback for the QSM processors
//!    they host, send `WRITE(addr, v)` and `READ(addr, who)` messages to
//!    the cells' owners;
//! 2. *serve*: owners commit writes (first message in the deterministic
//!    inbox order wins — a legal arbitrary-write resolution) and mail read
//!    replies back; replies are folded into the processors' next-phase
//!    deliveries.
//!
//! The emulation is *two-pass deterministic*: a probe run on a
//! [`QsmMachine`] first establishes the exact phase count (the machines
//! are deterministic), so the BSP program needs no termination protocol.
//! The measured BSP ledger exposes the emulation cost — per QSM phase,
//! an `h`-relation of the phase's aggregate read/write traffic plus the
//! `max(…, L)` superstep floor — making the
//! `T_BSP = O((g·traffic + L)·phases)` overhead of shared-memory
//! emulation measurable rather than asserted.

use std::collections::HashMap;

use parbounds_models::{
    Addr, BspMachine, BspProgram, CostLedger, PhaseEnv, Program, QsmMachine, Result, Status,
    Superstep, Word,
};

/// Outcome of an emulated run.
#[derive(Debug)]
pub struct EmulationOutcome {
    /// Final contents of every cell ever written (or preloaded), as held
    /// by the owning components.
    pub memory: HashMap<Addr, Word>,
    /// The BSP cost of the emulation.
    pub ledger: CostLedger,
    /// QSM phases emulated (supersteps = 2·phases + 1).
    pub qsm_phases: usize,
    /// The reference QSM run's total time, for overhead comparisons.
    pub qsm_time: u64,
}

impl EmulationOutcome {
    /// Reads an emulated cell (0 if never touched).
    pub fn get(&self, addr: Addr) -> Word {
        self.memory.get(&addr).copied().unwrap_or(0)
    }

    /// Total BSP time of the emulation.
    pub fn bsp_time(&self) -> u64 {
        self.ledger.total_time()
    }
}

/// Message-tag packing: bits 60.. hold the kind; for replies, bits 30..60
/// hold the requesting QSM pid and bits 0..30 the address (both therefore
/// bounded by 2^30, far beyond simulation scales). Reads carry the pid in
/// the value; writes carry the payload in the value.
const KIND_WRITE: Word = 0;
const KIND_READ: Word = 1;
const KIND_REPLY: Word = 2;
const KIND_SHIFT: u32 = 60;
const PID_SHIFT: u32 = 30;
const LOW_MASK: Word = (1 << PID_SHIFT) - 1;

struct EmulatorProg<'a, P: Program> {
    inner: &'a P,
    p: usize,
    n_procs: usize,
    total_phases: usize,
    input: &'a [Word],
}

struct HostedProc<P> {
    pid: usize,
    state: P,
    active: bool,
    /// Addresses requested last phase, in request order.
    requests: Vec<Addr>,
    /// Replies received (addr → value).
    replies: HashMap<Addr, Word>,
}

struct CompState<P> {
    hosted: Vec<HostedProc<P>>,
    owned: HashMap<Addr, Word>,
}

impl<P: Program> EmulatorProg<'_, P> {
    fn owner(&self, addr: Addr) -> usize {
        addr % self.p
    }
}

impl<P: Program> BspProgram for EmulatorProg<'_, P> {
    type Proc = CompState<P::Proc>;

    fn create(&self, pid: usize, _local: &[Word]) -> CompState<P::Proc> {
        // Host QSM processors round-robin; own input cells by addr % p.
        let hosted = (0..self.n_procs)
            .filter(|i| i % self.p == pid)
            .map(|i| HostedProc {
                pid: i,
                state: self.inner.create(i),
                active: true,
                requests: Vec::new(),
                replies: HashMap::new(),
            })
            .collect();
        let owned = self
            .input
            .iter()
            .enumerate()
            .filter(|&(a, _)| a % self.p == pid)
            .map(|(a, &v)| (a, v))
            .collect();
        CompState { hosted, owned }
    }

    fn superstep(
        &self,
        _pid: usize,
        st: &mut CompState<P::Proc>,
        ctx: &mut Superstep<'_>,
    ) -> Status {
        let step = ctx.step();
        let phase = step / 2;
        if step % 2 == 0 {
            // Request superstep: first fold in the replies from the
            // previous serve superstep.
            for m in ctx.inbox() {
                debug_assert_eq!(m.tag >> KIND_SHIFT, KIND_REPLY);
                let qpid = ((m.tag >> PID_SHIFT) & LOW_MASK) as usize;
                let addr = (m.tag & LOW_MASK) as usize;
                if let Some(h) = st.hosted.iter_mut().find(|h| h.pid == qpid) {
                    h.replies.insert(addr, m.value);
                }
            }
            ctx.local_ops(ctx.inbox().len() as u64);
            if phase >= self.total_phases {
                return Status::Done;
            }
            // Run the QSM phase callback for every hosted active processor.
            for h in st.hosted.iter_mut().filter(|h| h.active) {
                let delivered: Vec<(Addr, Word)> = h
                    .requests
                    .iter()
                    .map(|&a| (a, h.replies.get(&a).copied().unwrap_or(0)))
                    .collect();
                let mut env = PhaseEnv::new(phase, &delivered);
                let status = self.inner.phase(h.pid, &mut h.state, &mut env);
                let (reads, writes, ops) = env.into_requests();
                ctx.local_ops(ops + (reads.len() + writes.len()) as u64);
                h.requests = reads.clone();
                h.replies.clear();
                for addr in reads {
                    debug_assert!(addr < 1 << PID_SHIFT, "address exceeds packing range");
                    ctx.send(
                        self.owner(addr),
                        (KIND_READ << KIND_SHIFT) | addr as Word,
                        h.pid as Word,
                    );
                }
                for (addr, value) in writes {
                    debug_assert!(addr < 1 << PID_SHIFT, "address exceeds packing range");
                    ctx.send(
                        self.owner(addr),
                        (KIND_WRITE << KIND_SHIFT) | addr as Word,
                        value,
                    );
                }
                if status == Status::Done {
                    h.active = false;
                }
            }
            Status::Active
        } else {
            // Serve superstep: commit writes (first in deterministic inbox
            // order wins per cell), then answer reads against the post-write
            // contents (reads and writes to one cell never share a QSM
            // phase, so the order is immaterial for legal programs).
            let mut committed: HashMap<Addr, ()> = HashMap::new();
            let mut reads: Vec<(Addr, usize)> = Vec::new();
            for m in ctx.inbox() {
                let kind = m.tag >> KIND_SHIFT;
                let addr = (m.tag & LOW_MASK) as usize;
                match kind {
                    KIND_WRITE => {
                        if committed.insert(addr, ()).is_none() {
                            st.owned.insert(addr, m.value);
                        }
                    }
                    KIND_READ => reads.push((addr, m.value as usize)),
                    _ => unreachable!("replies only arrive at request supersteps"),
                }
            }
            ctx.local_ops(ctx.inbox().len() as u64);
            for (addr, qpid) in reads {
                let value = st.owned.get(&addr).copied().unwrap_or(0);
                let packed =
                    (KIND_REPLY << KIND_SHIFT) | ((qpid as Word) << PID_SHIFT) | addr as Word;
                ctx.send(qpid % self.p, packed, value);
            }
            Status::Active
        }
    }
}

/// Runs the QSM `program` on `bsp` by distributed-memory emulation.
///
/// `probe` supplies the QSM cost model for the reference run that (a)
/// validates the program and measures its native QSM time and (b) fixes
/// the phase count the lockstep emulation executes.
/// ```
/// use parbounds_algo::emulation::emulate_qsm_on_bsp;
/// use parbounds_models::{BspMachine, FnProgram, PhaseEnv, QsmMachine, Status};
///
/// // A tiny QSM program: each processor copies input cell i to cell 10+i.
/// let prog = FnProgram::new(
///     3,
///     |_| (),
///     |pid, _, env: &mut PhaseEnv<'_>| match env.phase() {
///         0 => { env.read(pid); Status::Active }
///         _ => { env.write(10 + pid, env.delivered()[0].1); Status::Done }
///     },
/// );
/// let probe = QsmMachine::qsm(2);
/// let bsp = BspMachine::new(2, 1, 4).unwrap();
/// let out = emulate_qsm_on_bsp(&bsp, &probe, &prog, &[7, 8, 9]).unwrap();
/// assert_eq!([out.get(10), out.get(11), out.get(12)], [7, 8, 9]);
/// ```
pub fn emulate_qsm_on_bsp<P: Program>(
    bsp: &BspMachine,
    probe: &QsmMachine,
    program: &P,
    input: &[Word],
) -> Result<EmulationOutcome> {
    let reference = probe.run(program, input)?;
    let total_phases = reference.phases();
    let prog = EmulatorProg {
        inner: program,
        p: bsp.p(),
        n_procs: program.num_procs(),
        total_phases,
        input,
    };
    let res = bsp.run(&prog, input)?;
    let mut memory = HashMap::new();
    for comp in &res.states {
        for (&a, &v) in &comp.owned {
            memory.insert(a, v);
        }
    }
    Ok(EmulationOutcome {
        memory,
        ledger: res.ledger,
        qsm_phases: total_phases,
        qsm_time: reference.time(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reduce::tree_reduce_cost;
    use crate::workloads::random_bits;
    use parbounds_models::FnProgram;

    /// The fan-in-2 parity read-tree as a plain QSM program (reusing the
    /// public constructor via a thin adapter is impossible since programs
    /// are built inside `tree_reduce`; re-derive a small one here).
    fn parity_prog(n: usize) -> impl Program<Proc = Word> {
        // One processor per input bit; tournament by halving: in round r,
        // procs below n/2^r read partner values written last round.
        let rounds = crate::util::ceil_log(n, 2) as usize;
        FnProgram::new(
            n.max(1),
            |_| 0 as Word,
            move |pid, st: &mut Word, env: &mut PhaseEnv<'_>| {
                let t = env.phase();
                // Phase 0: read own bit into a scratch cell region.
                if t == 0 {
                    env.read(pid);
                    return Status::Active;
                }
                if t == 1 {
                    *st = env.delivered()[0].1 & 1;
                    env.write(n + pid, *st);
                    return if pid < n.div_ceil(2) {
                        Status::Active
                    } else {
                        Status::Done
                    };
                }
                // Round r (1-based) occupies phases 2r and 2r+1.
                let r = t / 2;
                let width = n.div_ceil(1 << r); // survivors after this round
                let prev_width = n.div_ceil(1 << (r - 1));
                if t % 2 == 0 {
                    let partner = pid + width;
                    if partner < prev_width {
                        env.read(n + partner);
                    }
                    Status::Active
                } else {
                    if let Some(&(_, v)) = env.delivered().first() {
                        *st ^= v & 1;
                    }
                    env.write(n + pid, *st);
                    if r >= rounds || pid < n.div_ceil(1 << (r + 1)) {
                        if r >= rounds {
                            env.write(2 * n, *st);
                            Status::Done
                        } else {
                            Status::Active
                        }
                    } else {
                        Status::Done
                    }
                }
            },
        )
    }

    #[test]
    fn emulated_parity_matches_native() {
        for n in [4usize, 16, 100] {
            let bits = random_bits(n, n as u64);
            let expected = bits.iter().sum::<Word>() % 2;
            let probe = QsmMachine::qsm(4);
            // Validate natively first.
            let native = probe.run(&parity_prog(n), &bits).unwrap();
            assert_eq!(native.memory.get(2 * n), expected, "native n={n}");
            for p in [1usize, 2, 8] {
                let bsp = BspMachine::new(p, 2, 8).unwrap();
                let out = emulate_qsm_on_bsp(&bsp, &probe, &parity_prog(n), &bits).unwrap();
                assert_eq!(out.get(2 * n), expected, "n={n} p={p}");
                assert_eq!(out.qsm_phases, native.phases());
            }
        }
    }

    #[test]
    fn emulation_supersteps_are_two_per_phase() {
        let n = 64;
        let bits = random_bits(n, 3);
        let probe = QsmMachine::qsm(2);
        let bsp = BspMachine::new(4, 2, 8).unwrap();
        let out = emulate_qsm_on_bsp(&bsp, &probe, &parity_prog(n), &bits).unwrap();
        assert_eq!(out.ledger.num_phases(), 2 * out.qsm_phases + 1);
    }

    #[test]
    fn emulation_cost_has_the_claimed_shape() {
        // T_BSP <= O(g_bsp·(per-phase traffic) + L) per phase. For the
        // tournament tree the per-phase traffic concentrates on the scratch
        // cells' owners; with p components each superstep routes at most
        // O(n/p + n/2^r) messages at any single component.
        let n = 256;
        let bits = random_bits(n, 5);
        let probe = QsmMachine::qsm(1);
        let (g, l, p) = (2u64, 16u64, 16usize);
        let bsp = BspMachine::new(p, g, l).unwrap();
        let out = emulate_qsm_on_bsp(&bsp, &probe, &parity_prog(n), &bits).unwrap();
        let phases = out.qsm_phases as u64;
        // Loose but meaningful envelope: every superstep costs at least L
        // and at most max(L, g·n) (the first fan-in phase).
        assert!(out.bsp_time() >= l * (2 * phases));
        assert!(out.bsp_time() <= (2 * phases + 1) * (l + 3 * g * n as u64 / p as u64 + g * 8));
    }

    #[test]
    fn arbitrary_write_emulation_is_legal() {
        // All processors write distinct values to one cell: the emulated
        // winner must be one of them.
        let n = 8;
        let prog = || {
            FnProgram::new(
                n,
                |_| (),
                |pid, _, env: &mut PhaseEnv<'_>| {
                    env.write(100, 1000 + pid as Word);
                    Status::Done
                },
            )
        };
        let probe = QsmMachine::qsm(1);
        let bsp = BspMachine::new(3, 1, 2).unwrap();
        let out = emulate_qsm_on_bsp(&bsp, &probe, &prog(), &[]).unwrap();
        let v = out.get(100);
        assert!((1000..1000 + n as Word).contains(&v), "{v}");
    }

    #[test]
    fn single_component_emulation_degenerates_cleanly() {
        let n = 32;
        let bits = random_bits(n, 7);
        let probe = QsmMachine::qsm(2);
        let bsp = BspMachine::new(1, 1, 1).unwrap();
        let out = emulate_qsm_on_bsp(&bsp, &probe, &parity_prog(n), &bits).unwrap();
        assert_eq!(out.get(2 * n), bits.iter().sum::<Word>() % 2);
    }

    #[test]
    fn cost_reference_uses_native_qsm_ledger() {
        let n = 64;
        let input: Vec<Word> = (0..n as Word).collect();
        let probe = QsmMachine::qsm(4);
        let bsp = BspMachine::new(4, 2, 8).unwrap();
        let out = emulate_qsm_on_bsp(&bsp, &probe, &parity_prog(n), &input).unwrap();
        assert!(out.qsm_time > 0);
        // Same order of magnitude as the read-tree closed form on this
        // machine (the tournament is a fan-in-2 tree plus bookkeeping).
        assert!(out.qsm_time <= 4 * tree_reduce_cost(n, 2, 4));
    }
}
