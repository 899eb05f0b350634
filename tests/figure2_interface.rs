//! F2/E1 — the semantic interface of Figure 2: one `mnext`, many monads.
//!
//! The same transition function drives the concrete interpreter (a
//! deterministic state monad over a real heap), the fresh-address concrete
//! collecting semantics and the abstract interpreters; on terminating,
//! deterministic programs they must agree about what the program does.

use monadic_ai::cps::programs::{identity_application, omega, standard_corpus};
use monadic_ai::cps::{
    analyse_concrete_collecting, analyse_kcfa_shared, analyse_mono, interpret_with_limit, PState,
};

#[test]
fn concrete_interpreter_and_collecting_semantics_agree_on_termination() {
    // The corpus' terminating programs halt within a few hundred steps; the
    // divergent ones (omega) grow the concrete collecting semantics' state
    // set every Kleene iteration, and each iteration re-steps all of it.
    // 2k steps / 128 Kleene iterations classify the whole corpus correctly
    // and keep the suite fast.
    for (name, program) in standard_corpus() {
        let concrete = interpret_with_limit(&program, 2_000);
        let collecting = analyse_concrete_collecting(&program, 128);
        let collecting_halts = collecting
            .value()
            .distinct_states()
            .iter()
            .any(PState::is_final);
        assert_eq!(
            concrete.halted(),
            collecting_halts,
            "{name}: concrete interpreter and concrete collecting semantics disagree"
        );
        // A halting verdict must never rest on a truncated iterate: when
        // the concrete run halts, the collecting run must actually have
        // converged (the divergent programs are the only ones allowed to
        // exhaust the Kleene bound).
        assert!(
            collecting.converged() || !concrete.halted(),
            "{name}: halting classified from a truncated Kleene iterate"
        );
    }
}

#[test]
fn every_abstract_interpreter_covers_the_concrete_run() {
    // If the concrete run halts, the abstract analyses must keep an exit
    // state reachable (soundness of the abstraction).
    for (name, program) in standard_corpus() {
        let concrete = interpret_with_limit(&program, 2_000);
        if !concrete.halted() {
            continue;
        }
        assert!(
            analyse_mono(&program)
                .distinct_states()
                .iter()
                .any(PState::is_final),
            "{name}: 0CFA lost the final state"
        );
        assert!(
            analyse_kcfa_shared::<1>(&program)
                .distinct_states()
                .iter()
                .any(PState::is_final),
            "{name}: 1CFA lost the final state"
        );
    }
}

#[test]
fn the_abstract_semantics_is_finite_even_when_the_concrete_one_diverges() {
    let divergent = omega();
    assert!(!interpret_with_limit(&divergent, 2_000).halted());
    // The abstract interpreter terminates (Kleene iteration over a finite
    // lattice) even though the program does not.
    let result = analyse_mono(&divergent);
    assert!(!result.is_empty());
    assert!(!result.distinct_states().iter().any(PState::is_final));
}

#[test]
fn the_concrete_interpreter_is_deterministic() {
    let program = identity_application();
    let a = interpret_with_limit(&program, 10_000);
    let b = interpret_with_limit(&program, 10_000);
    assert_eq!(a.halted(), b.halted());
    assert_eq!(a.state(), b.state());
}
