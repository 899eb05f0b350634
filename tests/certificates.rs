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
//!
//! Certificates also cover fixpoints that byte-equality with the
//! sequential engine cannot check: a widened and narrowed multi-cell
//! interval solve on the elastic phase, whose widening points depend on
//! merge timing.

use std::collections::BTreeSet;

use monadic_ai::core::engine::{
    certify, with_state_gc, Budget, DirectCollecting, ParallelCollecting, ParallelConfig,
    SolveFrom, WidenPolicy,
};
use monadic_ai::core::lattice::{Interval, Lattice, MeetLattice};
use monadic_ai::core::store::{BasicStore, IntervalStore, StoreLike};
use monadic_ai::core::{KCallCtx, MonoAddr, MonoCtx, SharedStoreDomain, StateRoots};
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

/// States of the multi-cell interval machine.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
struct Cells(u8);

impl StateRoots for Cells {
    type Addr = u8;

    fn state_roots(&self) -> BTreeSet<u8> {
        match self.0 {
            1 | 5 => [0u8].into_iter().collect(),
            3 => [1u8].into_iter().collect(),
            _ => BTreeSet::new(),
        }
    }
}

type CellStore = IntervalStore<u8>;
type CellDomain = SharedStoreDomain<Cells, u64, CellStore>;

/// `0 ⟨a, b := 0, 0⟩ → {1, 3, 5}`, then three threads over three cells:
/// `1` counts `a` up to 10 (exit to 2), `3` counts `b` without bound
/// (exit to 4), and `5` copies `a` into cell 2 (to 6).  Widening sends
/// all three cells to `[0, +∞)`; one narrowing pass recovers `a ≤ 10`,
/// the second carries it into the copy.
fn cells_step(ps: Cells, g: u64, s: CellStore) -> Vec<((Cells, u64), CellStore)> {
    match ps.0 {
        0 => {
            let s = s
                .bind(0u8, Interval::singleton(0))
                .bind(1u8, Interval::singleton(0));
            vec![
                ((Cells(1), g), s.clone()),
                ((Cells(3), g), s.clone()),
                ((Cells(5), g), s),
            ]
        }
        1 => {
            let below_cap = s.fetch(&0u8).meet(Interval::at_most(9));
            let mut branches = vec![((Cells(2), g), s.clone())];
            if !below_cap.is_bottom() {
                let counted = s.replace(0u8, below_cap + Interval::singleton(1));
                branches.push(((Cells(1), g), counted));
            }
            branches
        }
        3 => {
            let counted = s.fetch(&1u8) + Interval::singleton(1);
            vec![
                ((Cells(4), g), s.clone()),
                ((Cells(3), g), s.replace(1u8, counted)),
            ]
        }
        5 => {
            let a = s.fetch(&0u8);
            vec![((Cells(6), g), s.replace(2u8, a))]
        }
        _ => vec![((ps, g), s)],
    }
}

#[test]
fn widened_multi_cell_fixpoints_are_certified_on_every_driver() {
    let budget = Budget::unlimited().with_widening(WidenPolicy::after_growths(3));
    let (outcome, _) =
        <CellDomain as DirectCollecting<Cells, u64, CellStore>>::explore_frontier_governed(
            &cells_step,
            SolveFrom::Fresh(Cells(0)),
            &budget,
        );
    let sequential = outcome.into_complete();
    // The machine exercises both narrowing passes: the cap comes back on
    // cell 0 and, one pass later, on its copy; the unbounded cell keeps
    // its widened bound.
    assert_eq!(sequential.store().fetch(&0u8), Interval::range(0, 10));
    assert_eq!(sequential.store().fetch(&1u8), Interval::at_least(0));
    assert_eq!(sequential.store().fetch(&2u8), Interval::range(0, 10));

    let barrier = [2, 4].map(ParallelConfig::barrier);
    let elastic = [(2, 2), (2, 4), (4, 2), (4, 4)].map(|(t, e)| ParallelConfig::elastic(t, e));
    let mut fixpoints = vec![("sequential".to_owned(), sequential)];
    for config in barrier.into_iter().chain(elastic) {
        let (outcome, _) = CellDomain::explore_frontier_parallel_governed(
            &cells_step,
            SolveFrom::Fresh(Cells(0)),
            config,
            &budget,
        )
        .expect("no worker panics");
        fixpoints.push((format!("{config:?}"), outcome.into_complete()));
    }
    // Elastic widening points depend on merge timing, so its fixpoint is
    // a sound post-fixpoint, not necessarily the sequential bytes: the
    // certificate is the check.
    for (driver, fixpoint) in &fixpoints {
        let report = certify(fixpoint, &cells_step);
        assert!(report.certified(), "{driver}: {report}");
        assert_eq!(report.states, 7, "{driver}: {report}");
    }
}
