//! F3/E6 — the reuse claim of Figure 3: the language-independent monadic
//! parameters (contexts, stores, counting, GC, collecting domains) drive all
//! three language substrates without modification.

use std::collections::BTreeSet;

use monadic_ai::core::analyse::{self, Gc};
use monadic_ai::core::Name;
use monadic_ai::cps::convert::cps_convert;
use monadic_ai::{cps, fj, lambda};

#[test]
fn the_same_context_types_drive_all_three_languages() {
    // The *types* below are the proof: `MonoCtx` and `KCallCtx<1>` from
    // mai-core instantiate analyses for CPS, the CESK machine and FJ alike,
    // through the one Kleene solve of `mai_core::analyse`.
    let cps_program = cps::programs::identity_application();
    let _cps_mono: cps::analysis::MonoShared = analyse::kleene(&cps_program, Gc::Off);
    let _cps_one: cps::analysis::KCfaShared<1> = analyse::kleene(&cps_program, Gc::Off);

    let cesk_term = lambda::programs::identity_application();
    let _cesk_mono: lambda::analysis::MonoCeskShared = analyse::kleene(&cesk_term, Gc::Off);
    let _cesk_one: lambda::analysis::KCeskShared<1> = analyse::kleene(&cesk_term, Gc::Off);

    let fj_program = fj::programs::pair_fst();
    let _fj_mono: fj::analysis::MonoFjShared = analyse::kleene(&fj_program, Gc::Off);
    let _fj_one: fj::analysis::KFjShared<1> = analyse::kleene(&fj_program, Gc::Off);
}

#[test]
fn church_arithmetic_is_consistent_across_cps_and_cesk() {
    for (m, n, expected) in [(2usize, 2usize, 4usize), (2, 3, 8), (3, 2, 9)] {
        let term = lambda::programs::church_exponentiation(m, n);
        // CESK concrete evaluation decodes the numeral.
        assert_eq!(lambda::decode_church_numeral(&term), expected);
        // The CPS conversion of the same term halts concretely.
        let program = cps_convert(&term);
        assert!(cps::interpret_with_limit(&program, 2_000_000).halted());
        // Both abstract interpreters terminate on the smallest instance
        // (kept small so the whole suite stays fast in debug builds).
        if (m, n) == (2, 2) {
            assert!(!cps::analyse_mono(&program).is_empty());
            assert!(!lambda::analyse_mono(&term).is_empty());
        }
    }
}

#[test]
fn garbage_collection_and_counting_apply_to_every_substrate() {
    // GC'd and counting analyses exist (and terminate) for each language.
    let cps_program = cps::programs::garbage_chain(3);
    assert!(!cps::analyse_kcfa_shared_gc::<1>(&cps_program).is_empty());
    assert!(!cps::analyse_kcfa_with_count::<1>(&cps_program).is_empty());

    let term = lambda::programs::blur(2);
    assert!(!lambda::analyse_kcfa_shared_gc::<1>(&term).is_empty());
    assert!(!lambda::analyse_kcfa_with_count::<1>(&term).is_empty());

    let fj_program = fj::programs::two_cells();
    assert!(!fj::analyse_kcfa_shared_gc::<1>(&fj_program).is_empty());
    assert!(!fj::analyse_kcfa_with_count::<1>(&fj_program).is_empty());
}

#[test]
fn context_insensitive_java_analysis_conflates_exactly_like_the_lambda_ones() {
    // The hallmark of context-insensitivity is the same in all three
    // languages: distinct call/allocation sites collapse into one abstract
    // binding.
    let fan = cps::programs::fan_out(4);
    let cps_flows = cps::flow_map_of_store(cps::analyse_mono(&fan).store());
    assert_eq!(cps_flows[&Name::from("x")].len(), 4);

    let fj_program = fj::programs::two_cells();
    let fj_flows = fj::class_flow_map(fj::analyse_mono(&fj_program).store());
    let cell_classes: BTreeSet<_> = fj_flows
        .iter()
        .filter(|(name, _)| name.as_str() == "Cell.content")
        .flat_map(|(_, classes)| classes.clone())
        .collect();
    assert_eq!(cell_classes.len(), 2);
}
