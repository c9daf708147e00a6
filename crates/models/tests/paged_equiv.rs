//! Differential proof that the chunked paged [`Memory`] is semantically a
//! dense flat array.
//!
//! Property tests drive random `set`/`load`/`get`/`slice` op sequences
//! through a [`Memory`] and a plain `Vec<Word>` mirror and require
//! cell-for-cell agreement; further tests pin the *logical* equality
//! semantics (an absent page equals an all-zero page, however the zeros
//! were produced) and the sparse-footprint guarantee (far-apart addresses
//! allocate only the pages they touch).

use proptest::prelude::*;

use parbounds_models::{Memory, Word, PAGE_WORDS};

/// Address space the op-sequence tests roam over: several pages, so page
/// boundaries and fresh-page allocation are both exercised.
const SPAN: usize = 4 * PAGE_WORDS;

#[derive(Debug, Clone)]
enum MemOp {
    Set(usize, Word),
    Load(usize, Vec<Word>),
}

fn mem_op() -> impl Strategy<Value = MemOp> {
    (
        any::<bool>(),
        0..SPAN - 64,
        any::<Word>(),
        prop::collection::vec(any::<Word>(), 0..64),
    )
        .prop_map(|(is_set, a, v, vs)| {
            if is_set {
                MemOp::Set(a, v)
            } else {
                MemOp::Load(a, vs)
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any op sequence leaves the paged memory cell-for-cell equal to a
    /// dense flat mirror, for every probe address and every slice.
    #[test]
    fn op_sequences_match_flat_mirror(
        ops in prop::collection::vec(mem_op(), 1..48),
        probes in prop::collection::vec(0..SPAN, 8),
    ) {
        let mut paged = Memory::with_limit(SPAN);
        let mut flat = vec![0 as Word; SPAN];
        for op in &ops {
            match op {
                MemOp::Set(a, v) => {
                    paged.set(*a, *v).unwrap();
                    flat[*a] = *v;
                }
                MemOp::Load(a, vs) => {
                    paged.load(*a, vs).unwrap();
                    flat[*a..*a + vs.len()].copy_from_slice(vs);
                }
            }
        }
        for &p in &probes {
            prop_assert_eq!(paged.get(p), flat[p], "probe at {}", p);
        }
        prop_assert_eq!(paged.slice(0, SPAN), flat.clone());
        // A memory rebuilt by one dense load of the touched prefix is
        // logically equal, even though its page allocation differs (the
        // rebuild materializes every page up to the extent; the original
        // only the pages its ops landed on).
        let mut rebuilt = Memory::with_limit(SPAN);
        rebuilt.load(0, &flat[..paged.extent()]).unwrap();
        prop_assert_eq!(&paged, &rebuilt);
    }

    /// Writing zeros allocates pages but never breaks logical equality:
    /// at the same extent, a memory that zero-wrote many scattered pages
    /// equals one that touched only the final address.
    #[test]
    fn zero_writes_preserve_logical_equality(addrs in prop::collection::vec(0..SPAN, 1..16)) {
        let top = *addrs.iter().max().unwrap();
        let mut lean = Memory::with_limit(SPAN);
        lean.set(top, 0).unwrap();
        let mut zeroed = Memory::with_limit(SPAN);
        for &a in &addrs {
            zeroed.set(a, 0).unwrap();
        }
        prop_assert!(zeroed.pages_touched() >= lean.pages_touched());
        prop_assert_eq!(&lean, &zeroed);
        prop_assert_eq!(&zeroed, &lean);
    }
}

/// A sparse write pattern touches only the pages it lands on: two writes a
/// gigacell apart cost two pages, not a dense array.
#[test]
fn sparse_writes_allocate_only_touched_pages() {
    let mut mem = Memory::with_limit(1 << 30);
    mem.set(3, 7).unwrap();
    mem.set((1 << 30) - 1, 9).unwrap();
    assert_eq!(mem.pages_touched(), 2);
    assert_eq!(mem.get(3), 7);
    assert_eq!(mem.get((1 << 30) - 1), 9);
    assert_eq!(mem.get(1 << 20), 0, "untouched gap reads as zero");
    assert!(
        mem.footprint_bytes() < 4 * PAGE_WORDS * std::mem::size_of::<Word>(),
        "footprint stays near two pages, got {}",
        mem.footprint_bytes()
    );
}
