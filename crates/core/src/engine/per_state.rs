//! Frontier reachability for the heap-cloning domain.
//!
//! In [`PerStateDomain`] every element is a closed `((state, guts), store)`
//! triple: stepping it consults nothing outside the triple itself, so the
//! least fixed point of `inject ⊔ applyStep` is plain transitive closure.
//! Kleene iteration recomputes the successors of *every* triple on *every*
//! pass; the worklist steps each triple exactly once.
//!
//! The seen-set is a hash-consing [`Interner`]: every triple is assigned a
//! dense [`StateId`] on first sight, so the membership test that used to be
//! a `BTreeSet` insert — a deep structural `Ord` walk over the state, the
//! guts *and* the cloned store, per comparison, per tree level — becomes
//! one deep hash plus (usually) one equality check, and the worklist is a
//! queue of plain `u32`s.  The domain itself is assembled once at the end,
//! from the interner's value table.  Because every triple is stepped
//! exactly once, the incremental and structural solvers coincide here
//! ([`FrontierCollecting::explore_frontier_structural`] keeps its
//! default).
//!
//! ## Infinite-height co-domains
//!
//! The shared-store engines' widening points
//! ([`WidenPolicy`](super::governor::WidenPolicy)) have no analogue here:
//! a widening point is an *address of one accumulated store*, but this
//! domain clones the store into every triple, so a counting loop over an
//! infinite-height co-domain (an
//! [`IntervalStore`](crate::store::IntervalStore) address fed by `n + 1`)
//! mints a **fresh, distinct triple per iteration** — there is nothing to
//! widen without collapsing triples that the domain's very definition
//! keeps apart.  On such domains this driver does not terminate; run it
//! under a [`Budget`] (the governed solve exhausts cleanly with a resume
//! seed) or switch to the shared-store domain, whose engines terminate by
//! widening.  The differential suite pins both behaviours.

use std::collections::VecDeque;
use std::hash::Hash;

use crate::addr::HasInitial;
use crate::collect::PerStateDomain;
use crate::intern::{InternKey, Interner, StateId};
use crate::lattice::Lattice;
use crate::monad::{run_store_passing, MonadFamily, StorePassing, Value};
use crate::telemetry::{label_of, RoundTrace, Stopwatch, TraceSink};

use super::governor::{Budget, Outcome, ResumeSeed, SolveFrom};
use super::shared::STATE_LABEL_MAX;
use super::{DirectCollecting, EngineStats, FrontierCollecting, StepFn};
use crate::telemetry::GovernorTrace;

impl<Ps, G, S> FrontierCollecting<StorePassing<G, S>, Ps> for PerStateDomain<Ps, G, S>
where
    Ps: Value + Ord + Hash,
    G: Value + Ord + Hash + HasInitial,
    S: Value + Ord + Hash + Lattice,
{
    fn explore_frontier_traced<F, T>(step: &F, initial: Ps, sink: &mut T) -> (Self, EngineStats)
    where
        F: Fn(Ps) -> <StorePassing<G, S> as MonadFamily>::M<Ps> + Sync,
        T: TraceSink,
        Ps: std::fmt::Debug,
    {
        // Run the Rc-closure carrier through the carrier-neutral solver.
        let direct = |ps: Ps, g: G, s: S| run_store_passing(step(ps), g, s);
        <Self as DirectCollecting<Ps, G, S>>::explore_frontier_direct_traced(&direct, initial, sink)
    }
}

impl<Ps, G, S> DirectCollecting<Ps, G, S> for PerStateDomain<Ps, G, S>
where
    Ps: Value + Ord + Hash,
    G: Value + Ord + Hash + HasInitial,
    S: Value + Ord + Hash + Lattice,
{
    type Seed = ResumeSeed<((Ps, G), S), ()>;

    fn explore_frontier_governed_traced<F, T>(
        step: &F,
        from: SolveFrom<Ps, Self::Seed>,
        budget: &Budget,
        sink: &mut T,
    ) -> (Outcome<Self, Self::Seed>, EngineStats)
    where
        F: StepFn<Ps, G, S>,
        T: TraceSink,
        Ps: std::fmt::Debug,
    {
        let armed = sink.enabled();
        let mut stats = EngineStats::default();
        // The interner is the seen-set: a triple's first intern is its
        // discovery, and the id doubles as the worklist entry.
        let mut interner: Interner<((Ps, G), S), StateId> = Interner::new();
        let mut frontier: VecDeque<StateId> = VecDeque::new();

        match from {
            SolveFrom::Fresh(initial) => {
                let injected = ((initial, G::initial()), S::bottom());
                frontier.push_back(interner.intern(injected));
                stats.store_joins += 1;
            }
            SolveFrom::Resume(seed) => {
                // Re-seed with every carried triple: the closed units need
                // no dependency rebuild, just one re-step each to recover
                // the successors the partial run had not yet enqueued.
                for triple in seed.states {
                    let id = interner.intern(triple);
                    frontier.push_back(id);
                    stats.store_joins += 1;
                }
            }
        }
        stats.peak_frontier = frontier.len();

        // The FIFO has no round structure of its own, so the trace groups
        // pops into BFS *generations*: the initial triple is generation 1,
        // everything it discovers is generation 2, and so on — the
        // per-state analogue of a frontier round.  The budget is checked
        // at generation boundaries.
        let mut round = 0usize;
        let mut generation_size = frontier.len();
        let mut generation_left = generation_size;
        let mut generation_joins = 0usize;
        let mut generation_watch = Stopwatch::start(armed);

        let mut exhausted = budget.exhausted(0, 0);
        if let Some(reason) = exhausted {
            sink.governor(GovernorTrace { round: 0, reason });
        }
        while exhausted.is_none() {
            let Some(id) = frontier.pop_front() else {
                break;
            };
            stats.iterations += 1;
            stats.states_stepped += 1;
            // The triple clone out of the interner is the step's store
            // clone (an Arc bump on the persistent spine).
            stats.spine_clones += 1;
            let ((ps, guts), store) = interner.resolve(id).clone();
            let mut step_watch = Stopwatch::start(armed);
            for successor in step.step(ps, guts, store) {
                let known = interner.len();
                let succ_id = interner.intern(successor);
                if succ_id.index() >= known {
                    stats.store_joins += 1;
                    generation_joins += 1;
                    frontier.push_back(succ_id);
                }
            }
            if armed {
                sink.state_cost(id, step_watch.lap_ns(), || {
                    label_of(&interner.resolve(id).0 .0, STATE_LABEL_MAX)
                });
            }
            stats.peak_frontier = stats.peak_frontier.max(frontier.len());
            generation_left -= 1;
            if generation_left == 0 {
                round += 1;
                sink.round(RoundTrace {
                    round,
                    frontier: generation_size,
                    stepped: generation_size,
                    joins: generation_joins,
                    delta_width: 0,
                    rebuild: false,
                    step_ns: generation_watch.lap_ns(),
                    join_ns: 0,
                    sync_ns: 0,
                });
                generation_size = frontier.len();
                generation_left = generation_size;
                generation_joins = 0;
                if let Some(reason) = budget.exhausted(round, stats.states_stepped) {
                    sink.governor(GovernorTrace { round, reason });
                    exhausted = Some(reason);
                }
            }
        }

        stats.intern_hits = interner.hits();
        stats.intern_misses = interner.misses();
        stats.distinct_states = interner.len();
        let domain = PerStateDomain::from_elements(interner.values().iter().cloned());
        match exhausted {
            None => (Outcome::Complete(domain), stats),
            Some(reason) => {
                let resume_seed = Box::new(ResumeSeed {
                    states: interner.values().to_vec(),
                    store: (),
                });
                (
                    Outcome::Exhausted {
                        partial: domain,
                        reason,
                        resume_seed,
                    },
                    stats,
                )
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collect::explore_fp;
    use crate::monad::{MonadPlus, MonadState, MonadTrans, StateT, VecM};
    use std::collections::BTreeSet;

    type G = u64;
    type S = BTreeSet<u32>;
    type M = StorePassing<G, S>;

    fn step(n: u32) -> <M as MonadFamily>::M<u32> {
        if n >= 6 {
            return M::pure(n);
        }
        let record = <M as MonadTrans>::lift(<StateT<S, VecM> as MonadState<S>>::modify(
            move |mut s: S| {
                s.insert(n);
                s
            },
        ));
        M::bind(record, move |_| M::mplus(M::pure(n + 1), M::pure(n + 3)))
    }

    #[test]
    fn worklist_equals_kleene_on_a_branching_toy_machine() {
        let kleene: PerStateDomain<u32, G, S> = explore_fp::<M, u32, _, _>(step, 0);
        let (worklist, stats) =
            <PerStateDomain<u32, G, S> as FrontierCollecting<M, u32>>::explore_frontier(&step, 0);
        assert_eq!(worklist, kleene);
        // Each of the triples was stepped exactly once.
        assert_eq!(stats.states_stepped, worklist.len());
        assert_eq!(stats.iterations, stats.states_stepped);
        assert!(stats.peak_frontier >= 1);
        assert_eq!(stats.cache_hits, 0);
        assert_eq!(stats.store_joins_applied, 0);
        assert_eq!(stats.widen_applied, 0);
        // The interner is the seen-set: one miss per distinct triple, one
        // hit per re-derived duplicate.
        assert_eq!(stats.distinct_states, worklist.len());
        assert_eq!(stats.intern_misses, worklist.len());
    }

    #[test]
    fn worklist_steps_fewer_states_than_kleene_resteps() {
        use std::cell::Cell;
        use std::rc::Rc;

        // Count how many times Kleene iteration invokes the step function.
        let kleene_steps = Rc::new(Cell::new(0usize));
        let counter = Rc::clone(&kleene_steps);
        let counted = move |n: u32| {
            counter.set(counter.get() + 1);
            step(n)
        };
        let _: PerStateDomain<u32, G, S> = explore_fp::<M, u32, _, _>(counted, 0);

        let (_, stats) =
            <PerStateDomain<u32, G, S> as FrontierCollecting<M, u32>>::explore_frontier(&step, 0);
        assert!(
            stats.states_stepped < kleene_steps.get(),
            "worklist stepped {} states, Kleene {}",
            stats.states_stepped,
            kleene_steps.get()
        );
    }
}
