//! The analysis monads.
//!
//! The paper expresses its semantic interfaces against an arbitrary Haskell
//! `Monad m`, and recovers specific interpreters and analyses by choosing a
//! concrete monad: the `IO` monad for the concrete interpreter, and the
//! `StorePassing s g = StateT g (StateT s [])` monad stack for the
//! collecting/abstract semantics.
//!
//! Rust has no higher-kinded types, but *generic associated types* express
//! the same `* -> *` abstraction: a [`MonadFamily`] is a (usually zero-sized)
//! marker type whose associated type constructor `M<A>` is the monad.  This
//! module provides:
//!
//! * [`MonadFamily`] — `return`/`pure` and `>>=`/`bind`, plus derived
//!   combinators.
//! * [`MonadPlus`] — non-deterministic choice (`mzero`/`mplus`), the
//!   mechanism by which abstraction-induced branching is "captured,
//!   explained and throttled entirely monadically" (paper §3.1).
//! * [`MonadState`] — access to a state component carried by the monad
//!   (the store, the time-stamp, abstract counters, …).
//! * [`MonadTrans`] — explicit `lift`ing through one transformer layer,
//!   exactly as the paper's `StorePassing` instances use Haskell's `lift`.
//! * Concrete families: [`IdM`], [`VecM`], [`StateM`], [`StateT`] and the
//!   assembled [`StorePassing`] stack.
//! * [`combinators`] — `map_m`, `sequence_m`, `gets_nd_set` and friends.
//!
//! ### Design notes (faithfulness vs. Rust) — one semantics, three instances
//!
//! Monadic values built from [`StateT`] are reference-counted closures
//! (`Rc<dyn Fn(S) -> …>`), so they can be run several times — which is
//! required because the non-determinism at the bottom of the stack re-runs
//! continuations once per branch.  Consequently all payload types carried by
//! a monad must implement [`Value`] (`Clone + 'static`); this corresponds to
//! the ubiquitous `(Ord a, Eq a)`-style constraints of the Haskell original
//! and is harmless for the finite machine states the framework manipulates.
//!
//! Each language's `mnext` is written once, against [`StepMonad`]: a monad
//! whose computations run against an explicit context `Cx` that every
//! interface operation takes and every `bind` continuation receives.  The
//! semantics then has three instances:
//!
//! * the **closure carrier** — [`StorePassing`], what `analyse_*` and
//!   `analyse_*_worklist` run.  Every [`MonadFamily`] is a `StepMonad`
//!   with `Cx = ()`: its state lives inside its closures.  Maximally
//!   faithful, and the oracle; its cost is one `Rc` allocation per `bind`
//!   plus the capture clones those binds force;
//! * the **concrete heap** — [`StateM`] over each language's heap, the
//!   paper's §4 interpreter, also with `Cx = ()`;
//! * the **direct carrier** — [`direct::Direct`], what `analyse_*_direct`
//!   and every parallel driver run.  Its context is the `(guts, store)`
//!   pair itself and a computation is its eagerly evaluated branch vector
//!   ([`direct::Branches`], one branch held inline), so `bind` is a
//!   monomorphized loop and no `Rc<dyn Fn>` is ever allocated.
//!
//! The engines take the direct carrier's output through
//! [`StepFn`](crate::engine::StepFn), the closure carrier's through
//! [`run_store_passing`]; see the README's carrier table for when each
//! wins.

pub mod direct;

use std::rc::Rc;

mod identity;
mod nondet;
mod state;
mod state_t;

pub mod combinators;

pub use combinators::{foldr_m, gets_nd_set, join_m, map_m, msum, sequence_m, when_m};
pub use direct::{Branches, Direct};
pub use identity::IdM;
pub use nondet::VecM;
pub use state::{eval_state, exec_state, run_state, StateM};
pub use state_t::{run_state_t, StateT};

/// A value that may be carried by an analysis monad.
///
/// This is a "trait alias" for `Clone + 'static`.  Every machine state,
/// environment, abstract value and address in the framework satisfies it.
pub trait Value: Clone + 'static {}

impl<T: Clone + 'static> Value for T {}

/// A family of monadic computations, encoded with a generic associated type.
///
/// A `MonadFamily` plays the role of Haskell's `Monad m` class; the family
/// itself is a marker type (e.g. [`VecM`] or [`StateT<S, N>`](StateT)) and
/// `Self::M<A>` is the type of computations producing an `A`.
///
/// # Laws
///
/// Implementations are expected to satisfy the monad laws up to observable
/// behaviour (verified by property tests in this crate for the provided
/// families):
///
/// * left identity: `bind(pure(a), k) ≡ k(a)`
/// * right identity: `bind(m, pure) ≡ m`
/// * associativity: `bind(bind(m, k), h) ≡ bind(m, |a| bind(k(a), h))`
///
/// ```rust
/// use mai_core::monad::{MonadFamily, VecM};
/// let m = VecM::pure(21u64);
/// let n = VecM::bind(m, |x| VecM::pure(x * 2));
/// assert_eq!(n, vec![42]);
/// ```
pub trait MonadFamily {
    /// The type of computations in this monad producing values of type `A`.
    type M<A: Value>: Clone + 'static;

    /// Haskell's `return` / `pure`: the computation that immediately yields
    /// `a` with no effect.
    fn pure<A: Value>(a: A) -> Self::M<A>;

    /// Haskell's `>>=`: sequence `m` with the continuation `k`.
    ///
    /// The continuation may be invoked zero, one or many times (many times
    /// in the presence of non-determinism), which is why it is a `Fn` and
    /// why monadic payloads must be [`Value`].
    fn bind<A: Value, B: Value, F>(m: Self::M<A>, k: F) -> Self::M<B>
    where
        F: Fn(A) -> Self::M<B> + 'static;

    /// Functorial map, derived from [`bind`](MonadFamily::bind) and
    /// [`pure`](MonadFamily::pure).
    fn fmap<A: Value, B: Value, F>(m: Self::M<A>, f: F) -> Self::M<B>
    where
        F: Fn(A) -> B + 'static,
    {
        Self::bind(m, move |a| Self::pure(f(a)))
    }

    /// Haskell's `>>`: sequence two computations, discarding the first
    /// result.
    fn then<A: Value, B: Value>(m: Self::M<A>, n: Self::M<B>) -> Self::M<B> {
        Self::bind(m, move |_| n.clone())
    }
}

/// Monads with non-deterministic choice (Haskell's `MonadPlus`).
///
/// In the paper, the non-determinism introduced by abstracting an
/// operational semantics (a variable may be bound to *several* abstract
/// closures) is threaded through `MonadPlus`; the analysis literally
/// enumerates branches with `mplus`.
///
/// ```rust
/// use mai_core::monad::{MonadFamily, MonadPlus, VecM};
/// let m: Vec<u8> = VecM::mplus(VecM::pure(1), VecM::mplus(VecM::mzero(), VecM::pure(2)));
/// assert_eq!(m, vec![1, 2]);
/// ```
pub trait MonadPlus: MonadFamily {
    /// The failing computation (no results).
    fn mzero<A: Value>() -> Self::M<A>;

    /// Non-deterministic choice between two computations.
    fn mplus<A: Value>(x: Self::M<A>, y: Self::M<A>) -> Self::M<A>;
}

/// Monads carrying a state component of type `S` (Haskell's `MonadState`).
///
/// The `StorePassing` stack implements `MonadState<G>` for its *outer* state
/// (the analysis "guts": the time-stamp / context); the inner store is
/// reached through [`MonadTrans::lift`], exactly as the paper's instances
/// do.
pub trait MonadState<S: Value>: MonadFamily {
    /// Yields the current state.
    fn get() -> Self::M<S>;

    /// Replaces the current state.
    fn put(s: S) -> Self::M<()>;

    /// Applies a function to the current state.
    fn modify<F>(f: F) -> Self::M<()>
    where
        F: Fn(S) -> S + 'static,
    {
        Self::bind(Self::get(), move |s| Self::put(f(s)))
    }

    /// Projects a value out of the current state.
    fn gets<A: Value, F>(f: F) -> Self::M<A>
    where
        F: Fn(&S) -> A + 'static,
    {
        Self::bind(Self::get(), move |s| Self::pure(f(&s)))
    }
}

/// A monad transformer: a family built on top of a `Base` family, with an
/// explicit `lift` (Haskell's `MonadTrans`).
pub trait MonadTrans: MonadFamily {
    /// The underlying monad this transformer wraps.
    type Base: MonadFamily;

    /// Lifts a computation of the base monad into the transformed monad.
    fn lift<A: Value>(m: <Self::Base as MonadFamily>::M<A>) -> Self::M<A>;
}

/// The one trait each language's `mnext` is written against: a monad whose
/// computations run against an explicit context.
///
/// The transition threads the context by hand — every semantic-interface
/// operation takes the current `cx`, and `bind`'s continuation receives the
/// context its branch produced — so one transition body serves carriers
/// that keep their state in closures and carriers that keep it in plain
/// values alike:
///
/// * every [`MonadFamily`] is a `StepMonad` with `Cx = ()` (its state lives
///   inside its closures); `bind` forwards to [`MonadFamily::bind`];
/// * the direct carrier [`Direct<G, S>`](direct::Direct) has `Cx = (G, S)`:
///   a computation is the eagerly evaluated vector of `((value, guts),
///   store)` branches, and `bind` calls its continuation in place, once
///   per branch.
///
/// `bind`'s continuation is `'static` because closure carriers keep it.
///
/// # Laws
///
/// Over observable runs (checked in `tests/monad_laws.rs`):
///
/// * left identity: `bind(pure(a, cx), k) ≡ k(a, cx)`
/// * right identity: `bind(m, pure) ≡ m`
/// * associativity: `bind(bind(m, k), h) ≡ bind(m, |a, cx| bind(k(a, cx), h))`
///
/// ```rust
/// use mai_core::monad::{Direct, StepMonad, VecM};
///
/// // A closure carrier: the context is `()`.
/// let m = <VecM as StepMonad>::bind(vec![1u8, 2], |x, ()| vec![x * 10]);
/// assert_eq!(m, vec![10, 20]);
///
/// // The direct carrier: the context is the `(guts, store)` pair.
/// type D = Direct<u32, u32>;
/// let m = D::bind(D::pure((), (7, 100)), |(), (g, s)| D::pure(s, (g, s * 2)));
/// assert_eq!(m.into_vec(), vec![((100, 7), 200)]);
/// ```
pub trait StepMonad {
    /// The context a computation runs against: `()` for closure carriers,
    /// the `(guts, store)` pair for the direct carrier.
    type Cx: 'static;

    /// The type of computations producing values of type `A`.
    type M<A: Value>: 'static;

    /// The computation that yields `a` on the context `cx`, unchanged.
    fn pure<A: Value>(a: A, cx: Self::Cx) -> Self::M<A>;

    /// Sequencing: feeds every branch of `m`, with the context it produced,
    /// to `k`.
    fn bind<A: Value, B: Value, F>(m: Self::M<A>, k: F) -> Self::M<B>
    where
        F: Fn(A, Self::Cx) -> Self::M<B> + 'static;

    /// Haskell's `m >> return b`: runs `m` for its effects and yields `b`
    /// on every branch.
    fn then_pure<A: Value, B: Value>(m: Self::M<A>, b: B) -> Self::M<B>
    where
        Self: Sized,
    {
        Self::bind(m, move |_, cx| Self::pure(b.clone(), cx))
    }

    /// Haskell's `mapM f xs`: runs `f` on each element left to right,
    /// threading the context, and collects one result per element.
    fn map_m<I, A, F>(xs: I, f: F, cx: Self::Cx) -> Self::M<Vec<A>>
    where
        I: IntoIterator,
        I::Item: Value,
        A: Value,
        F: Fn(I::Item, Self::Cx) -> Self::M<A> + 'static,
        Self: Sized,
    {
        map_m_from::<Self, _, _, _>(
            Rc::new(xs.into_iter().collect()),
            0,
            Vec::new(),
            Rc::new(f),
            cx,
        )
    }

    /// Haskell's `mapM_ f xs`: [`map_m`](StepMonad::map_m), discarding
    /// the results.
    fn for_each_m<I, F>(xs: I, f: F, cx: Self::Cx) -> Self::M<()>
    where
        I: IntoIterator,
        I::Item: Value,
        F: Fn(I::Item, Self::Cx) -> Self::M<()> + 'static,
        Self: Sized,
    {
        Self::bind(Self::map_m(xs, f, cx), |_, cx| Self::pure((), cx))
    }
}

/// The default [`StepMonad::map_m`]: bind element `i`, then recurse with
/// the grown accumulator.
fn map_m_from<M, X, A, F>(
    xs: Rc<Vec<X>>,
    i: usize,
    done: Vec<A>,
    f: Rc<F>,
    cx: M::Cx,
) -> M::M<Vec<A>>
where
    M: StepMonad,
    X: Value,
    A: Value,
    F: Fn(X, M::Cx) -> M::M<A> + 'static,
{
    let Some(x) = xs.get(i).cloned() else {
        return M::pure(done, cx);
    };
    let rest = Rc::clone(&xs);
    let k = Rc::clone(&f);
    M::bind(f(x, cx), move |a, cx| {
        let mut done = done.clone();
        done.push(a);
        map_m_from::<M, X, A, F>(Rc::clone(&rest), i + 1, done, Rc::clone(&k), cx)
    })
}

impl<F: MonadFamily> StepMonad for F {
    type Cx = ();
    type M<A: Value> = F::M<A>;

    fn pure<A: Value>(a: A, (): ()) -> F::M<A> {
        <F as MonadFamily>::pure(a)
    }

    fn bind<A: Value, B: Value, K>(m: F::M<A>, k: K) -> F::M<B>
    where
        K: Fn(A, ()) -> F::M<B> + 'static,
    {
        <F as MonadFamily>::bind(m, move |a| k(a, ()))
    }
}

/// The paper's analysis monad (§5.3.1):
///
/// ```text
/// type StorePassing s g = StateT g (StateT s [])
/// ```
///
/// reading the stack "inside-out", a computation of type
/// `StorePassing<G, S>::M<A>` is a function `G -> S -> Vec<((A, G), S)>`:
/// given the analysis guts (time-stamp/context) and the store it produces a
/// *set* of results, each paired with an updated guts and store.
///
/// `G` is the "guts" (outer state: the context/time component), `S` is the
/// store.  Use [`run_store_passing`] to run a computation to this desugared
/// form.
pub type StorePassing<G, S> = StateT<G, StateT<S, VecM>>;

/// Runs a [`StorePassing`] computation, exposing the desugared
/// `g -> s -> Vec<((a, g), s)>` shape described in §5.3.1 of the paper.
///
/// ```rust
/// use mai_core::monad::{run_store_passing, MonadFamily, MonadState, StorePassing};
///
/// type M = StorePassing<u32, u32>;
/// let m = <M as MonadState<u32>>::modify(|t| t + 1);
/// let results = run_store_passing::<u32, u32, ()>(m, 7, 100);
/// assert_eq!(results, vec![(((), 8), 100)]);
/// ```
pub fn run_store_passing<G: Value, S: Value, A: Value>(
    m: <StorePassing<G, S> as MonadFamily>::M<A>,
    guts: G,
    store: S,
) -> Vec<((A, G), S)> {
    run_state_t::<S, VecM, (A, G)>(run_state_t::<G, StateT<S, VecM>, A>(m, guts), store)
}

#[cfg(test)]
mod tests {
    use super::{
        run_store_passing, MonadFamily, MonadPlus, MonadState, MonadTrans, StateT, StorePassing,
        VecM,
    };

    type Sp = StorePassing<u64, u64>;

    #[test]
    fn store_passing_threads_both_states() {
        // Increment the guts, then (via lift) double the store.
        let m = Sp::bind(<Sp as MonadState<u64>>::modify(|t| t + 1), |_| {
            <Sp as MonadTrans>::lift(<StateT<u64, VecM> as MonadState<u64>>::modify(|s| s * 2))
        });
        let out = run_store_passing::<u64, u64, ()>(m, 1, 10);
        assert_eq!(out, vec![(((), 2), 20)]);
    }

    #[test]
    fn store_passing_nondeterminism_duplicates_state_threads() {
        // Two branches, each then increments the guts independently.
        let branches: <Sp as MonadFamily>::M<u64> = Sp::mplus(Sp::pure(10), Sp::pure(20));
        let m = Sp::bind(branches, |v| {
            Sp::bind(<Sp as MonadState<u64>>::modify(move |t| t + v), move |_| {
                Sp::pure(v)
            })
        });
        let out = run_store_passing::<u64, u64, u64>(m, 0, 0);
        assert_eq!(out, vec![((10, 10), 0), ((20, 20), 0)]);
    }

    #[test]
    fn then_discards_first_result() {
        let m = VecM::then(VecM::pure("ignored"), VecM::pure(5u8));
        assert_eq!(m, vec![5]);
    }

    #[test]
    fn fmap_maps_over_all_branches() {
        let m = VecM::fmap(vec![1u8, 2, 3], |x| x * 10);
        assert_eq!(m, vec![10, 20, 30]);
    }
}
