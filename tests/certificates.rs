//! Fixpoint certificates and exact read sets on workloads where Kleene
//! iteration is too slow to act as the oracle.
//!
//! `certify` re-steps every state of a fixpoint once against its final
//! store and checks that every successor is in the state set and every
//! branch store is below the final store.  It uses no step cache,
//! dependency index, read journal or interner, so a read the engine's
//! journal missed — a state not re-stepped after the cell it read grew —
//! fails here rather than silently shrinking the fixpoint.
//!
//! Deep identity nesting is the workload where the `StateRoots` closure
//! and the journaled read set differ most: the store-allocated
//! continuation chain is reachable from every state, so the closure spans
//! half the store while a step fetches one or two addresses.

use monadic_ai::core::engine::{certify, with_state_gc};
use monadic_ai::core::store::BasicStore;
use monadic_ai::core::{KCallCtx, MonoAddr, MonoCtx};
use monadic_ai::lambda::parser::parse_term;
use monadic_ai::lambda::{Storable, Term};
use monadic_ai::{cps, fj, lambda};

/// The depths of the identity-nesting family the certificate and the
/// read-set bound run at.
const DEPTHS: [usize; 2] = [150, 600];

/// `((λ (y) y) ((λ (y) y) … (λ (x) x)))` with `depth` applications.
fn identity_nesting(depth: usize) -> Term {
    let mut text = "((λ (y) y) ".repeat(depth);
    text.push_str("(λ (x) x)");
    text.push_str(&")".repeat(depth));
    parse_term(&text).expect("identity nesting parses")
}

#[test]
fn direct_fixpoints_of_deep_identity_nesting_are_certified() {
    type Store = BasicStore<MonoAddr, Storable<MonoAddr>>;
    for depth in DEPTHS {
        let (fixpoint, _) = lambda::analyse_mono_direct(&identity_nesting(depth));
        let report = certify(&fixpoint, &lambda::direct::mnext_direct::<MonoCtx, Store>);
        assert!(report.certified(), "depth {depth}: {report}");
        assert_eq!(report.states, fixpoint.len());
    }
}

#[test]
fn deep_identity_nesting_reads_a_constant_number_of_addresses_per_step() {
    for depth in DEPTHS {
        let (_, stats) = lambda::analyse_mono_direct(&identity_nesting(depth));
        assert!(
            stats.dep_edges <= 2 * stats.states_stepped,
            "depth {depth}: {} dependency edges over {} steps",
            stats.dep_edges,
            stats.states_stepped
        );
    }
}

#[test]
fn direct_fixpoint_of_the_cps_lanes_is_certified() {
    let program = cps::programs::kcfa_worst_case_scaled(12, 20);
    let (fixpoint, _) = cps::analysis::analyse_kcfa_shared_direct::<1>(&program);
    let report = certify(
        &fixpoint,
        &cps::direct::mnext_direct::<KCallCtx<1>, cps::analysis::KStore>,
    );
    assert!(report.certified(), "{report}");
    assert_eq!(report.states, fixpoint.len());
}

#[test]
fn gc_direct_fixpoint_of_nested_fj_cells_is_certified() {
    let program = fj::programs::nested_cells(40);
    let (fixpoint, _) = fj::analysis::analyse_kcfa_shared_gc_direct::<1>(&program);
    let table = program.table.clone();
    let step = with_state_gc(move |ps, ctx, store| {
        fj::direct::mnext_direct::<KCallCtx<1>, fj::analysis::KFjStore>(&table, ps, ctx, store)
    });
    let report = certify(&fixpoint, &step);
    assert!(report.certified(), "{report}");
    assert_eq!(report.states, fixpoint.len());
}
