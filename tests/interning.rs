//! Hash-consed state interning: the id-indexed engine layer and its
//! supporting cast (the `Interner`, the persistent environments, the
//! pooled names) preserve structural semantics exactly.
//!
//! The unit suites of `mai-core` cover each piece in isolation; these
//! integration tests drive them through whole analyses: interner ids must
//! agree with structural equality on real machine states, the id-indexed
//! engine must agree with every other solver on the scaled k-CFA
//! worst-case family, the intern statistics must account for every
//! configuration, and environment sharing must be observable end to end.

use monadic_ai::core::analyse::{self, Gc};
use monadic_ai::core::intern::{EnvId, InternKey, Interner, StateId};
use monadic_ai::core::Name;
use monadic_ai::cps;
use monadic_ai::cps::analysis::KCfaShared;
use monadic_ai::cps::programs::{kcfa_worst_case, kcfa_worst_case_scaled};

/// Interner ids agree with structural equality on real abstract machine
/// states (the property tests of `mai-core` cover synthetic values; this
/// drives full CPS states through the same law).
#[test]
fn interner_ids_agree_with_structural_equality_on_machine_states() {
    let program = kcfa_worst_case_scaled(2, 2);
    let result = cps::analyse_kcfa_shared::<1>(&program);
    let states: Vec<_> = result.states().iter().cloned().collect();

    let mut interner: Interner<_, StateId> = Interner::new();
    let ids: Vec<StateId> = states.iter().map(|s| interner.intern(s.clone())).collect();
    // Distinct states get distinct ids; re-interning is a hit on the same id.
    assert_eq!(interner.len(), states.len());
    for (state, id) in states.iter().zip(ids.iter()) {
        assert_eq!(interner.intern(state.clone()), *id);
        assert_eq!(interner.resolve(*id), state);
        assert_eq!(interner.get(state), Some(*id));
    }
    assert_eq!(interner.hits(), states.len());
    // Ids are dense: they index the value table in insertion order.
    for (index, id) in ids.iter().enumerate() {
        assert_eq!(id.index(), index);
    }
}

/// The id-indexed engine, the structural engine and Kleene iteration agree
/// on the scaled worst-case family — the E10 workloads — and the intern
/// statistics account for every configuration.
#[test]
fn interned_engine_agrees_on_the_scaled_worst_case_family() {
    for (n, width) in [(3usize, 2usize), (4, 2), (3, 4)] {
        let program = kcfa_worst_case_scaled(n, width);
        let kleene = cps::analyse_kcfa_shared::<1>(&program);
        let (interned, stats) = analyse::worklist::<KCfaShared<1>>(&program, Gc::Off);
        let (structural, structural_stats) =
            analyse::structural::<KCfaShared<1>>(&program, Gc::Off);

        assert_eq!(interned, kleene, "kcfa-worst-{n}w{width}: interned differs");
        assert_eq!(
            structural, kleene,
            "kcfa-worst-{n}w{width}: structural differs"
        );

        // Intern accounting: one miss per distinct configuration, hits for
        // every re-derivation, and the id space is exactly the state set.
        assert_eq!(stats.distinct_states, interned.len());
        assert_eq!(stats.intern_misses, interned.len());
        assert!(stats.intern_hits > 0);
        assert!(stats.intern_hit_rate() > 0.0 && stats.intern_hit_rate() < 1.0);

        // The engines run the same frontier strategy; the id-indexed
        // engine's tighter read sets may re-step strictly less, never more.
        assert!(stats.states_stepped <= structural_stats.states_stepped);
        assert!(stats.store_joins <= structural_stats.store_joins);
        assert!(stats.iterations <= structural_stats.iterations);
        assert_eq!(stats.rebuild_rounds, 0);
    }
}

/// `distinct_env_count` (the language-boundary half of the intern stats)
/// counts structurally distinct environments, and stays below the
/// configuration count.
#[test]
fn distinct_env_counts_are_consistent() {
    let program = kcfa_worst_case(3);
    let result = cps::analyse_kcfa_shared::<1>(&program);
    let envs = cps::distinct_env_count(&result);
    assert!(envs > 0);
    assert!(envs <= result.len());

    // An EnvId interner over the same environments agrees.
    let mut interner: Interner<_, EnvId> = Interner::new();
    for (ps, _) in result.states() {
        interner.intern(ps.env.clone());
    }
    assert_eq!(interner.len(), envs);
}

/// Copy-on-write environments share allocations end to end: states whose
/// environments are structurally equal compare equal regardless of whether
/// they share the allocation, and the pooled names make variable lookups
/// pointer-cheap.
#[test]
fn cow_environments_and_pooled_names_preserve_structure() {
    let program = kcfa_worst_case(2);
    let a = cps::analyse_kcfa_shared::<1>(&program);
    let b = cps::analyse_kcfa_shared::<1>(&program);
    // Two independent runs build environments in fresh allocations…
    assert_eq!(a, b, "independent runs must agree structurally");

    // …while the global name pool deduplicates every identifier: the same
    // variable parsed twice shares one allocation.
    let x1 = Name::from("chooser");
    let x2 = Name::new(String::from("chooser"));
    assert!(x1.ptr_eq(&x2));

    // Environment maps expose BTreeMap-like structural views.
    for (ps, _) in a.states() {
        for (var, _addr) in ps.env.iter() {
            assert!(!var.as_str().is_empty());
        }
    }
}
