//! The fixpoint certificate: an engine-independent check that a
//! shared-store domain is a post-fixpoint of its step function.
//!
//! Every solver in [`crate::engine`] trusts the same machinery: its step
//! cache, its reverse dependency index, the store's read journal and the
//! interner.  [`certify`] uses none of it.  It re-steps every
//! `(state, guts)` pair of the domain once, against the domain's own store
//! (unarmed), and checks the two halves of `F(x) ⊑ x` with nothing but set
//! membership and the lattice order:
//!
//! * every successor is in the state set;
//! * every branch store is ⊑ the domain's store.
//!
//! A dependency an engine missed — a read the journal did not see, so a
//! state was not re-stepped when the cell it read grew — leaves a
//! successor or a binding the fixpoint lacks, and shows up here.  The cost
//! is one step per state, however the engine got there.

use std::fmt;

use crate::collect::SharedStoreDomain;
use crate::lattice::Lattice;

use super::StepFn;

/// What [`certify`] found.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CertReport<Ps, G> {
    /// `(state, guts)` pairs re-stepped: the domain's whole state set.
    pub states: usize,
    /// Branches the re-steps produced.
    pub branches: usize,
    /// `(stepped pair, successor)` for every successor missing from the
    /// state set.
    pub missing_successors: Vec<((Ps, G), (Ps, G))>,
    /// Every stepped pair with a branch store that is not ⊑ the domain's
    /// store.
    pub escaping_stores: Vec<(Ps, G)>,
}

impl<Ps, G> CertReport<Ps, G> {
    /// Whether the domain is a post-fixpoint: no successor missing, no
    /// branch store above the domain's store.
    pub fn certified(&self) -> bool {
        self.missing_successors.is_empty() && self.escaping_stores.is_empty()
    }
}

impl<Ps, G> fmt::Display for CertReport<Ps, G> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} states, {} branches, {} missing successors, {} escaping stores",
            if self.certified() {
                "certified"
            } else {
                "NOT certified"
            },
            self.states,
            self.branches,
            self.missing_successors.len(),
            self.escaping_stores.len()
        )
    }
}

/// Certifies that `domain` is a post-fixpoint of `step`: re-steps every
/// `(state, guts)` pair once against the domain's store and reports every
/// successor missing from the state set and every branch store that is
/// not ⊑ the store.
///
/// Uses no cache, dependency index, read journal or interner, so it does
/// not share the assumptions of the engines it checks.  It does not check
/// that the initial state is in the set; callers that know it can.
pub fn certify<Ps, G, S, F>(domain: &SharedStoreDomain<Ps, G, S>, step: &F) -> CertReport<Ps, G>
where
    Ps: Clone + Ord,
    G: Clone + Ord,
    S: Lattice + Clone,
    F: StepFn<Ps, G, S>,
{
    let mut report = CertReport {
        states: 0,
        branches: 0,
        missing_successors: Vec::new(),
        escaping_stores: Vec::new(),
    };
    for key in domain.states() {
        report.states += 1;
        let mut escaped = false;
        for (successor, branch_store) in
            step.step(key.0.clone(), key.1.clone(), domain.store().clone())
        {
            report.branches += 1;
            if !domain.states().contains(&successor) {
                report.missing_successors.push((key.clone(), successor));
            }
            escaped |= !branch_store.leq(domain.store());
        }
        if escaped {
            report.escaping_stores.push(key.clone());
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use super::*;
    use crate::collect::explore_fp;
    use crate::engine::{FrontierCollecting, StateRoots};
    use crate::gc::Touches;
    use crate::monad::{
        gets_nd_set, MonadFamily, MonadPlus, MonadState, MonadTrans, StateT, StorePassing, VecM,
    };
    use crate::store::{BasicStore, StoreLike};

    #[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
    struct Ptr(u8);

    impl Touches<u8> for Ptr {
        fn touches(&self) -> BTreeSet<u8> {
            [self.0].into_iter().collect()
        }
    }

    /// States of the toy machine below.  State 1's roots name the cell it
    /// inspects, so the `StateRoots` closure covers it.
    #[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
    struct Toy(u32);

    impl StateRoots for Toy {
        type Addr = u8;

        fn state_roots(&self) -> BTreeSet<u8> {
            if self.0 == 1 {
                [0u8].into_iter().collect()
            } else {
                BTreeSet::new()
            }
        }
    }

    type S = BasicStore<u8, Ptr>;
    type M = StorePassing<u64, S>;
    type Domain = SharedStoreDomain<Toy, u64, S>;

    /// `0 → {1, 2}`, `2 → 3`, `3` writes `Ptr(5)` into cell 0 and goes to
    /// `4`, and `1` follows every pointer in cell 0 to `10 + ptr`.  State 1
    /// finds its pointers through `BasicStore::iter()`, which is not a
    /// journaled read: the engine steps it while cell 0 is still empty,
    /// records no dependency, and never re-steps it after state 3's write.
    fn iter_reading_step(st: Toy) -> <M as MonadFamily>::M<Toy> {
        match st.0 {
            0 => M::mplus(M::pure(Toy(1)), M::pure(Toy(2))),
            1 => {
                let peeked =
                    <M as MonadTrans>::lift(gets_nd_set::<StateT<S, VecM>, S, Ptr, _>(|store| {
                        store
                            .iter()
                            .filter(|(a, _)| **a == 0)
                            .flat_map(|(_, ptrs)| ptrs.iter().cloned())
                            .collect()
                    }));
                M::bind(peeked, |ptr| M::pure(Toy(10 + u32::from(ptr.0))))
            }
            2 => M::pure(Toy(3)),
            3 => {
                let write = <M as MonadTrans>::lift(<StateT<S, VecM> as MonadState<S>>::modify(
                    |store: S| store.bind(0u8, [Ptr(5)].into_iter().collect()),
                ));
                M::bind(write, |_| M::pure(Toy(4)))
            }
            _ => M::pure(st),
        }
    }

    fn desugared(ps: Toy, g: u64, s: S) -> Vec<((Toy, u64), S)> {
        crate::monad::run_store_passing(iter_reading_step(ps), g, s)
    }

    #[test]
    fn certify_rejects_a_fixpoint_built_from_an_unjournaled_read() {
        let kleene: Domain = explore_fp::<M, Toy, _, _>(iter_reading_step, Toy(0));
        let (engine, _) =
            <Domain as FrontierCollecting<M, Toy>>::explore_frontier(&iter_reading_step, Toy(0));
        // The structural baseline closes state 1's roots over the store, so
        // it does see cell 0 and agrees with Kleene.
        let (structural, _) = <Domain as FrontierCollecting<M, Toy>>::explore_frontier_structural(
            &iter_reading_step,
            Toy(0),
        );
        assert_eq!(structural, kleene);
        assert!(kleene.states().contains(&(Toy(15), 0)));
        assert_ne!(engine, kleene, "the unjournaled read went unnoticed");

        let report = certify(&engine, &desugared);
        assert!(!report.certified(), "{report}");
        assert_eq!(
            report.missing_successors,
            vec![((Toy(1), 0), (Toy(15), 0))],
            "{report}"
        );
        assert!(report.escaping_stores.is_empty());

        let oracle = certify(&kleene, &desugared);
        assert!(oracle.certified(), "{oracle}");
        assert_eq!(oracle.states, kleene.len());
    }

    #[test]
    fn certify_reports_a_store_that_is_too_small() {
        let kleene: Domain = explore_fp::<M, Toy, _, _>(iter_reading_step, Toy(0));
        let shrunk = Domain::from_parts(kleene.states().clone(), S::bottom());
        let report = certify(&shrunk, &desugared);
        assert!(!report.certified());
        // Only state 3 writes; every other branch threads the (empty)
        // store through unchanged.
        assert_eq!(report.escaping_stores, vec![(Toy(3), 0)]);
        assert!(report.missing_successors.is_empty());
    }
}
