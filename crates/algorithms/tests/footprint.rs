#![forbid(unsafe_code)]

//! Peak heap of three Section 8 runs at n = 2^16, counted by the
//! workspace's counting allocator. The ceilings hold the dense engines to
//! storage per live processor and per in-flight delivery, and the GSM to
//! paged cells.
//!
//! The allocator counts the whole process, so this binary holds a single
//! test: a second one running in parallel would pollute the peaks.

use parbounds_algo::gsm_algos::gsm_parity;
use parbounds_algo::or_tree::or_write_tree;
use parbounds_algo::parity::parity_pattern_helper;
use parbounds_algo::workloads::random_bits;
use parbounds_alloc::CountingAlloc;
use parbounds_models::{GsmMachine, QsmMachine, Word};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

const N: usize = 1 << 16;
const MIB: usize = 1 << 20;

/// Peak heap bytes of `run`, counted from the live size at the call.
fn peak_of<T>(run: impl FnOnce() -> T) -> (T, usize) {
    ALLOC.reset_peak();
    let out = run();
    (out, ALLOC.peak_bytes())
}

#[test]
fn section8_runs_stay_under_their_heap_ceilings() {
    let bits = random_bits(N, 16);
    let parity = bits.iter().sum::<Word>() & 1;
    let any = Word::from(bits.iter().any(|&b| b != 0));

    let (out, peak) = peak_of(|| parity_pattern_helper(&QsmMachine::qsm(8), &bits, 3).unwrap());
    assert_eq!(out.value, parity);
    assert!(peak <= 80 * MIB, "parity_pattern_helper k=3: {peak} bytes");
    drop(out);

    let (out, peak) = peak_of(|| gsm_parity(&GsmMachine::new(1, 8, 1), &bits).unwrap());
    assert_eq!(out.value, parity);
    assert!(peak <= 20 * MIB, "gsm_parity: {peak} bytes");
    drop(out);

    let (out, peak) = peak_of(|| or_write_tree(&QsmMachine::qsm(8), &bits, 8).unwrap());
    assert_eq!(out.value, any);
    assert!(peak <= 8 * MIB, "or_write_tree k=8: {peak} bytes");
}
