//! The collecting-semantics fixed point (paper §5.2, §5.3.3, §6.5).
//!
//! The paper's key engineering move is to *decouple* the monadic transition
//! function (`mnext`) from the monotone fixed-point computation that drives
//! it.  The interface between the two is the `Collecting` class:
//!
//! ```text
//! class Collecting m a fp | fp → a, fp → m where
//!   applyStep :: (a → m a) → fp → fp
//!   inject    :: a → fp
//! ```
//!
//! Different instances of `Collecting` realise different *global* analysis
//! strategies over the *same* semantics: per-state stores ("heap cloning"),
//! a single shared (widened) store, garbage-collected transitions, and so
//! on.  This module provides:
//!
//! * the [`Collecting`] trait and the generic drivers [`explore_fp`] /
//!   [`run_analysis`],
//! * [`PerStateDomain`] — the heap-cloning domain `P(((PΣ, g), s))` of
//!   §5.3.3,
//! * [`SharedStoreDomain`] — the widened domain `(P((PΣ, g)), s)` of §6.5,
//!   related to the former by an explicit Galois connection,
//! * [`with_gc`] — weaving a [`GcStrategy`] into a
//!   step function (§6.4).

mod per_state;
mod shared;

pub use per_state::PerStateDomain;
pub use shared::SharedStoreDomain;

use crate::engine::governor::{Budget, Outcome};
use crate::gc::GcStrategy;
use crate::lattice::{kleene_it, kleene_it_widened, narrow_it, Lattice, WidenLattice};
use crate::monad::{MonadFamily, Value};
use crate::telemetry::{RoundTrace, Stopwatch, TraceSink};

/// The paper's `Collecting` class: an analysis domain `Self` (`fp`) that
/// knows how to inject an initial program state and how to push every state
/// it contains through a monadic step function.
pub trait Collecting<M: MonadFamily, A: Value>: Lattice {
    /// Wraps an initial (partial) state into the analysis domain
    /// (the paper's `inject`).
    fn inject(a: A) -> Self;

    /// Runs the monadic step function from every state in the domain and
    /// collects the results (the paper's `applyStep`).
    fn apply_step<F>(step: &F, fp: &Self) -> Self
    where
        F: Fn(A) -> M::M<A>;
}

/// Computes the collecting semantics as the least fixed point
/// `lfp (λX. inject(c) ⊔ applyStep(step, X))` by Kleene iteration
/// (the paper's `exploreFP`).
pub fn explore_fp<M, A, Fp, F>(step: F, initial: A) -> Fp
where
    M: MonadFamily,
    A: Value,
    Fp: Collecting<M, A>,
    F: Fn(A) -> M::M<A>,
{
    kleene_it(|fp: &Fp| Fp::inject(initial.clone()).join(Fp::apply_step(&step, fp)))
}

/// [`explore_fp`] with a [`TraceSink`]: the same Kleene iteration, with
/// one [`RoundTrace`] per pass recording how many states the pass
/// re-stepped (for Kleene iteration the frontier *is* every accumulated
/// state) and the pass's wall-clock split into the `applyStep` evaluation
/// (`step_ns`) and the iterate join (`join_ns`).
///
/// Computes exactly the fixpoint [`explore_fp`] computes; the step
/// counter is a `Cell` bump per transition, only present on this traced
/// entry point, so the untraced driver is untouched.
pub fn explore_fp_traced<M, A, Fp, F, T>(step: F, initial: A, sink: &mut T) -> Fp
where
    M: MonadFamily,
    A: Value,
    Fp: Collecting<M, A>,
    F: Fn(A) -> M::M<A>,
    T: TraceSink,
{
    let stepped = std::cell::Cell::new(0usize);
    let counted = |a: A| {
        stepped.set(stepped.get() + 1);
        step(a)
    };
    let armed = sink.enabled();
    let mut current = Fp::bottom();
    let mut round = 0usize;
    loop {
        round += 1;
        stepped.set(0);
        let mut watch = Stopwatch::start(armed);
        let next = Fp::inject(initial.clone()).join(Fp::apply_step(&counted, &current));
        let step_ns = watch.lap_ns();
        let grew = current.join_in_place(next);
        sink.round(RoundTrace {
            round,
            frontier: stepped.get(),
            stepped: stepped.get(),
            joins: 1,
            delta_width: 0,
            rebuild: false,
            step_ns,
            join_ns: watch.lap_ns(),
            sync_ns: 0,
        });
        if !grew {
            return current;
        }
    }
}

/// Governed [`explore_fp`]: the same Kleene iteration, consulting
/// `budget` before every pass.  Rounds are Kleene passes; steps are
/// individual state transitions (counted through the step function, the
/// same `Cell` bump [`explore_fp_traced`] uses).  Returns the outcome
/// and the number of passes performed.
///
/// An `Exhausted` outcome's resume seed is the accumulated iterate;
/// [`explore_fp_resume`] continues the ascent from it and reaches the
/// identical least fixed point a one-shot run reaches.
///
/// A round budget is how to explore a domain of unbounded height (for
/// example the fresh-address concrete collecting semantics of §5.3 on a
/// non-terminating program): the solve ends `Exhausted` with
/// [`ExhaustReason::RoundBudget`](crate::engine::ExhaustReason::RoundBudget)
/// instead of diverging.
pub fn explore_fp_governed<M, A, Fp, F>(
    step: F,
    initial: A,
    budget: &Budget,
) -> (Outcome<Fp, Fp>, usize)
where
    M: MonadFamily,
    A: Value,
    Fp: Collecting<M, A>,
    F: Fn(A) -> M::M<A>,
{
    explore_fp_resume(step, initial, Fp::bottom(), budget)
}

/// Continues a governed exploration from a previously-returned resume
/// seed (or any sound under-approximation of the fixpoint).
pub fn explore_fp_resume<M, A, Fp, F>(
    step: F,
    initial: A,
    seed: Fp,
    budget: &Budget,
) -> (Outcome<Fp, Fp>, usize)
where
    M: MonadFamily,
    A: Value,
    Fp: Collecting<M, A>,
    F: Fn(A) -> M::M<A>,
{
    let steps = std::cell::Cell::new(0usize);
    let counted = |a: A| {
        steps.set(steps.get() + 1);
        step(a)
    };
    let mut current = seed;
    let mut rounds = 0usize;
    loop {
        if let Some(reason) = budget.exhausted(rounds, steps.get()) {
            let resume_seed = Box::new(current.clone());
            return (
                Outcome::Exhausted {
                    partial: current,
                    reason,
                    resume_seed,
                },
                rounds,
            );
        }
        let next = Fp::inject(initial.clone()).join(Fp::apply_step(&counted, &current));
        if !current.join_in_place(next) {
            return (Outcome::Complete(current), rounds);
        }
        rounds += 1;
    }
}

/// Widened [`explore_fp`]: the naive Kleene oracle for analysis domains of
/// **infinite height**, such as [`SharedStoreDomain`] over an
/// [`IntervalStore`](crate::store::IntervalStore) co-domain.
///
/// Ascends by plain join for `delay` rounds, then switches the
/// accumulation point to [`WidenLattice::widen_in_place`]
/// ([`kleene_it_widened`]) so the chain provably stabilises, and finally
/// walks precision back with up to `narrow_passes` descending rounds
/// ([`narrow_it`]).  This whole-domain widening is *coarser* than the
/// engines' per-address widening points — it widens every address from
/// round `delay` on — so its result is an upper bound of theirs, not a
/// byte-identity oracle; it is the reference for *termination* and
/// soundness, the differential role [`explore_fp`] plays on finite-height
/// domains.
pub fn explore_fp_widened<M, A, Fp, F>(
    step: F,
    initial: A,
    delay: usize,
    narrow_passes: usize,
) -> Fp
where
    M: MonadFamily,
    A: Value,
    Fp: Collecting<M, A> + WidenLattice,
    F: Fn(A) -> M::M<A>,
{
    let functional = |fp: &Fp| Fp::inject(initial.clone()).join(Fp::apply_step(&step, fp));
    let post = kleene_it_widened(functional, delay);
    narrow_it(post, functional, narrow_passes)
}

/// The paper's `runAnalysis`, generalised over the injected state: runs the
/// analysis determined by the chosen monad `M`, semantic step function
/// `step` and analysis domain `Fp`.
///
/// The three degrees of freedom the paper lists at the end of §5.2 are the
/// three type parameters here: the monad `M`, the semantics behind `step`,
/// and the lattice/fixed-point pair `Fp`.
pub fn run_analysis<M, A, Fp, F>(step: F, initial: A) -> Fp
where
    M: MonadFamily,
    A: Value,
    Fp: Collecting<M, A>,
    F: Fn(A) -> M::M<A>,
{
    explore_fp::<M, A, Fp, F>(step, initial)
}

/// Wraps a step function so that every transition is followed by the
/// garbage-collection action of `strategy` (the paper's `STEP-GC` rule,
/// woven into `applyStep` in §6.4).
///
/// The returned closure can be passed to [`explore_fp`] / [`run_analysis`]
/// in place of the bare step function.
pub fn with_gc<M, Ps, F, G>(step: F, strategy: G) -> impl Fn(Ps) -> M::M<Ps>
where
    M: MonadFamily,
    Ps: Value,
    F: Fn(Ps) -> M::M<Ps>,
    G: GcStrategy<M, Ps>,
{
    move |ps: Ps| {
        let strategy = strategy.clone();
        M::bind(step(ps), move |stepped: Ps| {
            let keep = stepped.clone();
            M::bind(strategy.collect(&stepped), move |_| M::pure(keep.clone()))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gc::NoGc;
    use crate::monad::{MonadPlus, VecM};
    use std::collections::BTreeSet;

    /// A miniature "analysis domain": just the set of reached numbers, with
    /// the list monad as the analysis monad (no store, no guts).
    #[derive(Debug, Clone, PartialEq, Eq, Default)]
    struct Reached(BTreeSet<u32>);

    impl Lattice for Reached {
        fn bottom() -> Self {
            Reached(BTreeSet::new())
        }

        fn join(mut self, other: Self) -> Self {
            self.0.extend(other.0);
            self
        }

        fn leq(&self, other: &Self) -> bool {
            self.0.is_subset(&other.0)
        }
    }

    impl Collecting<VecM, u32> for Reached {
        fn inject(a: u32) -> Self {
            Reached([a].into_iter().collect())
        }

        fn apply_step<F>(step: &F, fp: &Self) -> Self
        where
            F: Fn(u32) -> Vec<u32>,
        {
            Reached(fp.0.iter().flat_map(|n| step(*n)).collect())
        }
    }

    fn collatz_ish(n: u32) -> Vec<u32> {
        // A branching transition bounded to keep the domain finite.
        if n >= 20 {
            VecM::mzero()
        } else {
            VecM::mplus(VecM::pure(n + 3), VecM::pure(n + 5))
        }
    }

    #[test]
    fn explore_fp_reaches_the_closure() {
        let result: Reached = explore_fp::<VecM, u32, Reached, _>(collatz_ish, 0);
        assert!(result.0.contains(&0));
        assert!(result.0.contains(&3));
        assert!(result.0.contains(&5));
        assert!(result.0.contains(&8));
        // Everything reached is generated by +3/+5 steps from 0 below the cap.
        assert!(result.0.iter().all(|n| *n <= 24));
        // And the result is a fixed point: stepping it again adds nothing new.
        let again = Reached::apply_step(&collatz_ish, &result).join(Reached::inject(0));
        assert!(again.leq(&result));
    }

    #[test]
    fn run_analysis_is_explore_fp() {
        let a: Reached = run_analysis::<VecM, u32, Reached, _>(collatz_ish, 0);
        let b: Reached = explore_fp::<VecM, u32, Reached, _>(collatz_ish, 0);
        assert_eq!(a, b);
    }

    #[test]
    fn bounded_exploration_converges_on_finite_domains() {
        // A round budget the finite domain never reaches changes nothing:
        // the solve is complete, on the one-shot fixpoint.
        let one_shot: Reached = explore_fp::<VecM, u32, Reached, _>(collatz_ish, 0);
        let budget = Budget::unlimited().with_max_rounds(100);
        let (outcome, rounds) =
            explore_fp_governed::<VecM, u32, Reached, _>(collatz_ish, 0, &budget);
        assert!(rounds < 100);
        assert!(outcome.is_complete());
        assert_eq!(outcome.into_complete(), one_shot);
    }

    #[test]
    fn bounded_exploration_detects_divergence() {
        use crate::engine::governor::ExhaustReason;
        // A divergent exploration under a round budget stops after exactly
        // that many passes, each of which reached one more number.
        let unbounded = |n: u32| VecM::pure(n + 1);
        for max_rounds in [1usize, 5, 10] {
            let budget = Budget::unlimited().with_max_rounds(max_rounds);
            let (outcome, rounds) =
                explore_fp_governed::<VecM, u32, Reached, _>(unbounded, 0, &budget);
            assert_eq!(rounds, max_rounds);
            assert!(!outcome.is_complete());
            assert_eq!(outcome.exhaust_reason(), Some(ExhaustReason::RoundBudget));
            assert_eq!(outcome.value().0.len(), max_rounds);
        }
    }

    #[test]
    fn governed_unlimited_matches_explore_fp() {
        let one_shot: Reached = explore_fp::<VecM, u32, Reached, _>(collatz_ish, 0);
        let (outcome, _) =
            explore_fp_governed::<VecM, u32, Reached, _>(collatz_ish, 0, &Budget::unlimited());
        assert_eq!(outcome.into_complete(), one_shot);
    }

    #[test]
    fn governed_exploration_resumes_to_one_shot_fixpoint() {
        let one_shot: Reached = explore_fp::<VecM, u32, Reached, _>(collatz_ish, 0);
        let budget = Budget::unlimited().with_max_rounds(2);
        let (outcome, rounds) =
            explore_fp_governed::<VecM, u32, Reached, _>(collatz_ish, 0, &budget);
        assert_eq!(rounds, 2);
        let Outcome::Exhausted { resume_seed, .. } = outcome else {
            panic!("two rounds cannot close the collatz-ish domain");
        };
        let (resumed, _) = explore_fp_resume::<VecM, u32, Reached, _>(
            collatz_ish,
            0,
            *resume_seed,
            &Budget::unlimited(),
        );
        assert_eq!(resumed.into_complete(), one_shot);
    }

    #[test]
    fn governed_step_budget_fires() {
        use crate::engine::governor::ExhaustReason;
        let unbounded = |n: u32| VecM::pure(n + 1);
        let budget = Budget::unlimited().with_max_steps(25);
        let (outcome, _) = explore_fp_governed::<VecM, u32, Reached, _>(unbounded, 0, &budget);
        assert_eq!(outcome.exhaust_reason(), Some(ExhaustReason::StepBudget));
    }

    #[test]
    fn with_gc_using_no_gc_changes_nothing() {
        let plain: Reached = explore_fp::<VecM, u32, Reached, _>(collatz_ish, 0);
        let wrapped: Reached =
            explore_fp::<VecM, u32, Reached, _>(with_gc::<VecM, u32, _, _>(collatz_ish, NoGc), 0);
        assert_eq!(plain, wrapped);
    }
}
