//! Abstract garbage collection (paper §6.4).
//!
//! Abstract GC prunes store bindings that are unreachable from the current
//! state, exactly as an ordinary garbage collector would — the payoff being
//! a (often dramatic) precision improvement, because dead bindings no longer
//! pollute joins when abstract addresses are re-used.
//!
//! The machinery factors into three language-independent pieces:
//!
//! * [`Touches`] — "which addresses does this entity touch directly?"
//!   (the paper's `T̂`); language crates implement it for their values and
//!   partial states.
//! * [`reachable`] — the transitive closure of the touch relation through
//!   the store (the paper's `R̂`), provided once here.
//! * [`GcStrategy`] — the `GarbageCollector` class of the paper: a monadic
//!   action run after every transition.  [`NoGc`] is the default no-op;
//!   [`ReachableGc`] restricts the store to the addresses reachable from
//!   the stepped state (the paper's `Γ̂`), for every language at once.

use std::collections::BTreeSet;

use crate::addr::Address;
use crate::engine::StateRoots;
use crate::monad::{MonadFamily, MonadState, MonadTrans, StateT, StorePassing, Value, VecM};
use crate::store::StoreLike;

/// Entities that directly touch a set of addresses (the paper's `T̂`).
///
/// Typical implementers are abstract values (a closure touches the range of
/// its environment), machine states (a state touches whatever its control
/// expression's free variables map to) and continuations.
pub trait Touches<A: Ord> {
    /// The set of addresses touched directly by `self`.
    fn touches(&self) -> BTreeSet<A>;
}

impl<A: Ord, T: Touches<A>> Touches<A> for BTreeSet<T> {
    fn touches(&self) -> BTreeSet<A> {
        self.iter().flat_map(Touches::touches).collect()
    }
}

impl<A: Ord, T: Touches<A>> Touches<A> for Vec<T> {
    fn touches(&self) -> BTreeSet<A> {
        self.iter().flat_map(Touches::touches).collect()
    }
}

impl<A: Ord, T: Touches<A>> Touches<A> for Option<T> {
    fn touches(&self) -> BTreeSet<A> {
        self.iter().flat_map(Touches::touches).collect()
    }
}

impl<A: Ord, T: Touches<A>, U: Touches<A>> Touches<A> for (T, U) {
    fn touches(&self) -> BTreeSet<A> {
        let mut out = self.0.touches();
        out.extend(self.1.touches());
        out
    }
}

/// Computes the set of addresses reachable from `roots` by following the
/// abstract adjacency relation `â ;^σ̂ â′ ⟺ â′ ∈ T̂(σ̂(â))`
/// (the paper's `R̂`).
///
/// ```rust
/// use std::collections::BTreeSet;
/// use mai_core::gc::{reachable, Touches};
/// use mai_core::store::{BasicStore, StoreLike};
///
/// // A tiny "heap of pointers": each value is the address it points to.
/// #[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
/// struct Ptr(u8);
/// impl Touches<u8> for Ptr {
///     fn touches(&self) -> BTreeSet<u8> { [self.0].into_iter().collect() }
/// }
///
/// let store: BasicStore<u8, Ptr> = BasicStore::new()
///     .bind(1, [Ptr(2)].into_iter().collect())
///     .bind(2, [Ptr(2)].into_iter().collect())
///     .bind(3, [Ptr(1)].into_iter().collect()); // unreachable from 1
/// let live = reachable([1u8].into_iter().collect(), &store);
/// assert_eq!(live, [1u8, 2].into_iter().collect());
/// ```
pub fn reachable<A, S>(roots: BTreeSet<A>, store: &S) -> BTreeSet<A>
where
    A: Address,
    S: StoreLike<A>,
    S::D: Touches<A>,
{
    let mut seen: BTreeSet<A> = BTreeSet::new();
    let mut frontier: Vec<A> = roots.into_iter().collect();
    while let Some(addr) = frontier.pop() {
        if !seen.insert(addr.clone()) {
            continue;
        }
        // Borrow the binding when the store can lend it — the sweep visits
        // every live address, so per-address co-domain clones add up.
        let touched = match store.fetch_ref(&addr) {
            Some(binding) => binding.touches(),
            None => store.fetch(&addr).touches(),
        };
        for next in touched {
            if !seen.contains(&next) {
                frontier.push(next);
            }
        }
    }
    seen
}

/// The paper's `GarbageCollector` class: a strategy object providing the
/// monadic `gc` action run after each transition.
///
/// Strategies are small, cloneable values (rather than blanket trait
/// implementations on the monad) so that language crates can provide their
/// own without running into coherence restrictions; they are woven into the
/// fixed-point computation by [`crate::collect::with_gc`].
pub trait GcStrategy<M: MonadFamily, Ps: Value>: Clone + 'static {
    /// The monadic garbage-collection action for the (already stepped)
    /// partial state `ps`.
    fn collect(&self, ps: &Ps) -> M::M<()>;
}

/// The default garbage-collection strategy: do nothing
/// (the paper's default `gc = return ()`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct NoGc;

impl<M: MonadFamily, Ps: Value> GcStrategy<M, Ps> for NoGc {
    fn collect(&self, _ps: &Ps) -> M::M<()> {
        M::pure(())
    }
}

/// Abstract garbage collection on the closure carrier (paper §6.4): restrict
/// the store to the addresses reachable from the stepped state's
/// [`StateRoots`].  One strategy serves every language, because each
/// language's roots are its states' [`Touches`]; the direct carrier's
/// counterpart is [`with_state_gc`](crate::engine::with_state_gc).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ReachableGc;

impl<G, S, Ps> GcStrategy<StorePassing<G, S>, Ps> for ReachableGc
where
    G: Value,
    Ps: StateRoots + Value,
    S: StoreLike<Ps::Addr>,
    S::D: Touches<Ps::Addr>,
{
    fn collect(&self, ps: &Ps) -> <StorePassing<G, S> as MonadFamily>::M<()> {
        let roots = ps.state_roots();
        <StorePassing<G, S> as MonadTrans>::lift(<StateT<S, VecM> as MonadState<S>>::modify(
            move |store: S| {
                let live = reachable(roots.clone(), &store);
                store.filter_store(|a| live.contains(a))
            },
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::monad::VecM;
    use crate::store::BasicStore;

    #[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
    struct Ptrs(Vec<u8>);

    impl Touches<u8> for Ptrs {
        fn touches(&self) -> BTreeSet<u8> {
            self.0.iter().copied().collect()
        }
    }

    fn store_from(edges: &[(u8, &[u8])]) -> BasicStore<u8, Ptrs> {
        edges.iter().fold(BasicStore::new(), |s, (a, targets)| {
            s.bind(*a, [Ptrs(targets.to_vec())].into_iter().collect())
        })
    }

    #[test]
    fn reachability_follows_chains() {
        let store = store_from(&[(1, &[2]), (2, &[3]), (3, &[]), (4, &[5]), (5, &[])]);
        assert_eq!(
            reachable([1u8].into_iter().collect(), &store),
            [1u8, 2, 3].into_iter().collect()
        );
    }

    #[test]
    fn reachability_handles_cycles() {
        let store = store_from(&[(1, &[2]), (2, &[1]), (3, &[3])]);
        assert_eq!(
            reachable([1u8].into_iter().collect(), &store),
            [1u8, 2].into_iter().collect()
        );
    }

    #[test]
    fn unbound_roots_are_still_reachable_themselves() {
        let store = store_from(&[]);
        assert_eq!(
            reachable([7u8].into_iter().collect(), &store),
            [7u8].into_iter().collect()
        );
    }

    #[test]
    fn empty_roots_reach_nothing() {
        let store = store_from(&[(1, &[2])]);
        assert!(reachable(BTreeSet::new(), &store).is_empty());
    }

    #[test]
    fn touches_lifts_through_containers() {
        let direct = Ptrs(vec![1, 2]);
        let set: BTreeSet<Ptrs> = [direct.clone()].into_iter().collect();
        let vec = vec![direct.clone()];
        let opt = Some(direct.clone());
        let pair = (direct, Ptrs(vec![9]));
        assert_eq!(Touches::<u8>::touches(&set), [1u8, 2].into_iter().collect());
        assert_eq!(Touches::<u8>::touches(&vec), [1u8, 2].into_iter().collect());
        assert_eq!(Touches::<u8>::touches(&opt), [1u8, 2].into_iter().collect());
        assert_eq!(
            Touches::<u8>::touches(&pair),
            [1u8, 2, 9].into_iter().collect()
        );
        assert!(Touches::<u8>::touches(&Option::<Ptrs>::None).is_empty());
    }

    #[test]
    fn no_gc_is_a_pure_no_op() {
        let m = <NoGc as GcStrategy<VecM, u8>>::collect(&NoGc, &5);
        assert_eq!(m, vec![()]);
    }
}
