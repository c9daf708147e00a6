//! The saturating request census of one shared-memory phase.
//!
//! Every static pass over a shared plan needs the same per-phase facts:
//! the §2 maxima `m_op` and `m_rw`, and the per-cell read and write queue
//! lengths that give κ. [`PhaseCensus::count`] derives them in one walk
//! over the phase's entries and then sorts the requests — read addresses,
//! and writes by `(address, arrival)` — so cost and footprint follow the
//! request count, never the address: a cell at `usize::MAX` is one more
//! key. One census is reused across the phases of a pass, keeping its
//! buffers.

use crate::plan::{SharedPhase, ValueRule};
use parbounds_models::Addr;

/// What one shared-memory phase requests under the saturating schedule
/// (every guard fires): the `(m_op, m_rw)` maxima, the distinct read cells
/// with their multiplicities, and the distinct written cells with their
/// writers, both in ascending address order.
#[derive(Debug, Clone, Default)]
pub struct PhaseCensus {
    m_op: u64,
    m_rw: u64,
    any_access: bool,
    reads: Vec<(Addr, u64)>,
    write_cells: Vec<Addr>,
    /// Written cell `i`'s writers are `writers[bounds[i]..bounds[i + 1]]`.
    write_bounds: Vec<usize>,
    writers: Vec<(usize, ValueRule)>,
    // Scratch reused across phases.
    read_keys: Vec<Addr>,
    write_keys: Vec<(Addr, usize)>,
    arrivals: Vec<(usize, ValueRule)>,
}

impl PhaseCensus {
    /// Replaces the census with that of `phase`.
    pub fn count(&mut self, phase: &SharedPhase) {
        self.m_op = 0;
        self.m_rw = 0;
        self.any_access = false;
        self.read_keys.clear();
        self.write_keys.clear();
        self.arrivals.clear();
        for e in &phase.procs {
            let r = e.reads.len() as u64;
            let w = e.writes.len() as u64;
            self.m_op = self.m_op.max(e.local_ops + r + w);
            self.m_rw = self.m_rw.max(r.max(w));
            self.any_access |= r + w > 0;
            self.read_keys.extend_from_slice(&e.reads);
            for ws in &e.writes {
                self.write_keys.push((ws.addr, self.arrivals.len()));
                self.arrivals.push((e.pid, ws.value));
            }
        }
        self.read_keys.sort_unstable();
        self.reads.clear();
        for &a in &self.read_keys {
            match self.reads.last_mut() {
                Some((last, k)) if *last == a => *k += 1,
                _ => self.reads.push((a, 1)),
            }
        }
        // Arrival indices are unique, so the unstable sort keeps each
        // cell's writers in arrival order.
        self.write_keys.sort_unstable();
        self.write_cells.clear();
        self.write_bounds.clear();
        self.writers.clear();
        for &(a, i) in &self.write_keys {
            if self.write_cells.last() != Some(&a) {
                self.write_cells.push(a);
                self.write_bounds.push(self.writers.len());
            }
            self.writers.push(self.arrivals[i]);
        }
        self.write_bounds.push(self.writers.len());
    }

    /// Largest `local_ops + reads + writes` of any entry.
    pub fn m_op(&self) -> u64 {
        self.m_op
    }

    /// Largest `max(reads, writes)` of any entry, unfloored.
    pub fn m_rw(&self) -> u64 {
        self.m_rw
    }

    /// True when some entry issues a read or a write.
    pub fn any_access(&self) -> bool {
        self.any_access
    }

    /// Distinct read cells in ascending order, each with its multiplicity.
    pub fn reads(&self) -> &[(Addr, u64)] {
        &self.reads
    }

    /// Distinct written cells in ascending order.
    pub fn write_cells(&self) -> &[Addr] {
        &self.write_cells
    }

    /// Each written cell, ascending, with its `(pid, value rule)` writers
    /// in arrival order (entry order, then write order within an entry).
    pub fn write_groups(&self) -> impl Iterator<Item = (Addr, &[(usize, ValueRule)])> + '_ {
        self.write_cells
            .iter()
            .zip(self.write_bounds.windows(2))
            .map(|(&a, b)| (a, &self.writers[b[0]..b[1]]))
    }

    /// Index of `addr` in [`PhaseCensus::reads`], if the phase reads it.
    pub(crate) fn read_slot(&self, addr: Addr) -> Option<usize> {
        self.reads.binary_search_by_key(&addr, |&(a, _)| a).ok()
    }

    /// Index of `addr` in [`PhaseCensus::write_cells`], if the phase
    /// writes it.
    pub(crate) fn write_slot(&self, addr: Addr) -> Option<usize> {
        self.write_cells.binary_search(&addr).ok()
    }

    /// The cells both read and written, ascending, with their read and
    /// write counts.
    pub fn read_write_overlap(&self) -> impl Iterator<Item = (Addr, u64, u64)> + '_ {
        let mut groups = self.write_groups().peekable();
        self.reads.iter().filter_map(move |&(addr, r)| {
            while groups.next_if(|&(a, _)| a < addr).is_some() {}
            match groups.peek() {
                Some(&(a, g)) if a == addr => Some((addr, r, g.len() as u64)),
                _ => None,
            }
        })
    }

    /// The phase's κ as the routing engines report it: the longest read or
    /// write queue (1 for a phase with no requests), or only the longest
    /// write queue, floored at 1, when concurrent reads are unit cost.
    pub fn kappa(&self, unit_cost_reads: bool) -> u64 {
        let group_lens = self.write_bounds.windows(2).map(|b| (b[1] - b[0]) as u64);
        let writes = group_lens.max().unwrap_or(0);
        if unit_cost_reads {
            writes.max(1)
        } else if self.any_access {
            self.reads.iter().map(|&(_, k)| k).fold(writes, u64::max)
        } else {
            1
        }
    }
}
