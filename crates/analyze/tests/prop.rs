//! Property tests for the model-conformance analyzer: a seeded racy
//! program must be flagged under *every* detector seed, the clean Section
//! 8 families must stay diagnostic-free under arbitrary workload seeds,
//! and the diagnostics of the racy fixture must be stable across seeds
//! (the findings describe the program, not the detector's randomness).

use parbounds_analyze::{analyze_family, detect_races_qsm, RaceConfig, SuiteConfig};
use parbounds_models::{FnProgram, PhaseEnv, QsmMachine, Status, Word};
use proptest::prelude::*;

/// `p` processors race to write distinct values into cell 0.
fn racy_program(p: usize) -> impl parbounds_models::Program<Proc = ()> {
    FnProgram::new(
        p,
        |_pid| (),
        |pid, _st: &mut (), env: &mut PhaseEnv<'_>| {
            env.write(0, pid as Word + 1);
            Status::Done
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The detector must expose the race no matter how it is seeded: the
    /// adversarial policies (FirstWriter vs LastWriter at minimum) pick
    /// different winners among the distinct written values.
    #[test]
    fn racy_program_always_flagged(seed in any::<u64>(), p in 2usize..6) {
        let machine = QsmMachine::qsm(4);
        let report = detect_races_qsm(
            &machine,
            &racy_program(p),
            &[],
            0..1,
            &RaceConfig::new(seed),
        )?;
        let w = report.witness.expect("race must be detected at every seed");
        prop_assert_eq!(w.addr, 0);
        prop_assert_eq!(w.writers, p);
        prop_assert!(w.baseline_output != w.divergent_output);
    }

    /// Every registered family stays clean (zero diagnostics, determinism
    /// verified, contract satisfied) under arbitrary workload seeds — the
    /// suite's cleanliness is a property of the algorithms, not of the
    /// particular seed `parbounds lint` defaults to.
    #[test]
    fn clean_families_stay_clean(seed in any::<u64>()) {
        let cfg = SuiteConfig::quick(seed);
        for family in parbounds_analyze::FAMILIES {
            let report = analyze_family(family, &cfg)?;
            prop_assert!(
                report.clean(),
                "family {} not clean under seed {}: {:?}",
                family,
                seed,
                report.diagnostics
            );
        }
    }

    /// The racy fixture's findings are invariant across detector seeds:
    /// same lint diagnostics, same witness cell and writer count. (The
    /// winning policy and the concrete outputs may differ — what must not
    /// wobble is the localization of the defect.)
    #[test]
    fn racy_fixture_diagnostics_stable(seed in any::<u64>()) {
        let a = analyze_family("racy-fixture", &SuiteConfig::quick(seed))?;
        let b = analyze_family("racy-fixture", &SuiteConfig::quick(seed.wrapping_mul(31).wrapping_add(7)))?;
        prop_assert!(!a.clean() && !b.clean());

        let render = |r: &parbounds_analyze::FamilyReport| {
            r.diagnostics.iter().map(ToString::to_string).collect::<Vec<_>>()
        };
        prop_assert_eq!(render(&a), render(&b));

        let wa = a.race.as_ref().and_then(|r| r.witness.as_ref()).expect("witness");
        let wb = b.race.as_ref().and_then(|r| r.witness.as_ref()).expect("witness");
        prop_assert_eq!(wa.addr, wb.addr);
        prop_assert_eq!(wa.writers, wb.writers);
    }
}
