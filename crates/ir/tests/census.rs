//! The request census of one shared phase, on cells at both ends of the
//! address range and across reuse.

use parbounds_ir::{PhaseCensus, ProcPhase, SharedPhase, ValueRule};

#[test]
fn census_groups_requests_by_cell_in_arrival_order() {
    let mut phase = SharedPhase::new("mixed");
    phase.procs.push(
        ProcPhase::idle(3)
            .read(usize::MAX)
            .read(7)
            .read(7)
            .write(9, ValueRule::Reg(0))
            .local_ops(2),
    );
    phase.procs.push(
        ProcPhase::idle(1)
            .read(9)
            .write(usize::MAX, ValueRule::Const(4))
            .write(9, ValueRule::Const(5)),
    );
    let mut c = PhaseCensus::default();
    c.count(&phase);
    assert_eq!((c.m_op(), c.m_rw(), c.any_access()), (6, 3, true));
    assert_eq!(c.reads(), &[(7, 2), (9, 1), (usize::MAX, 1)]);
    let groups: Vec<_> = c.write_groups().collect();
    assert_eq!(
        groups,
        vec![
            (9, &[(3, ValueRule::Reg(0)), (1, ValueRule::Const(5))][..]),
            (usize::MAX, &[(1, ValueRule::Const(4))][..]),
        ]
    );
    let overlap: Vec<_> = c.read_write_overlap().collect();
    assert_eq!(overlap, vec![(9, 1, 2), (usize::MAX, 1, 1)]);
    assert_eq!(c.write_cells(), &[9, usize::MAX]);
    assert_eq!((c.kappa(false), c.kappa(true)), (2, 2));

    // Reuse: an empty phase leaves nothing behind.
    c.count(&SharedPhase::new("empty"));
    assert_eq!(
        (c.m_op(), c.any_access(), c.kappa(false), c.kappa(true)),
        (0, false, 1, 1)
    );
    assert!(c.reads().is_empty() && c.write_groups().next().is_none());
}
