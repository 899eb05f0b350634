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
//!   the store (the paper's `R̂`), provided once here.  It is the full
//!   sweep, which every GC'd step run through
//!   [`StepFn::step`](crate::engine::StepFn::step) pays per branch: the
//!   per-state engine, the structural baseline,
//!   [`certify`](crate::engine::certify), the narrowing post-pass and
//!   [`ReachableGc`].  The id-indexed shared-store engine instead searches
//!   with the same traversal only until it has discovered a branch's own
//!   writes (see [`with_state_gc`](crate::engine::with_state_gc)), and
//!   sweeps in full only when one of them is out of reach.  The traversal
//!   tests an address when it first discovers it, roots included, so such
//!   a search stops as soon as the last write comes into view: a write
//!   bound next to the roots costs a couple of addresses, however long the
//!   continuation chain behind them is.
//! * [`GcStrategy`] — the `GarbageCollector` class of the paper: a monadic
//!   action run after every transition.  [`NoGc`] is the default no-op;
//!   [`ReachableGc`] restricts the store to the addresses reachable from
//!   the stepped state (the paper's `Γ̂`), for every language at once.

use std::collections::BTreeSet;

use crate::addr::Address;
use crate::engine::StateRoots;
use crate::env::PSet;
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

impl<A: Ord, T: Touches<A>> Touches<A> for PSet<T> {
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
/// #[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
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
    walk(roots, store, |_| false).0
}

/// Searches the closure of `roots` through `store` only as far as it takes
/// to discover every address of `targets`.  Returns `None` when it finds
/// them all, without walking the rest of the closure; otherwise it finishes
/// the walk and returns the whole closure, the same set [`reachable`]
/// returns.  Either way it adds the number of addresses it discovered to
/// `visited`.
///
/// This is abstract GC as a filter on a branch's own writes (see
/// [`with_state_gc`](crate::engine::with_state_gc)): `None` means GC keeps
/// every write, and the closure names the writes it drops and the bindings
/// that decided it.  Each address is tested when the walk first discovers
/// it, so a search whose targets are roots, or bound next to them, costs
/// as many addresses as it finds, however deep the closure is.
pub(crate) fn reachable_unless_found<A, S>(
    roots: BTreeSet<A>,
    store: &S,
    targets: &BTreeSet<A>,
    visited: &mut usize,
) -> Option<BTreeSet<A>>
where
    A: Address,
    S: StoreLike<A>,
    S::D: Touches<A>,
{
    let mut missing = targets.len();
    if missing == 0 {
        return None;
    }
    let (seen, found) = walk(roots, store, |addr| {
        missing -= usize::from(targets.contains(addr));
        missing == 0
    });
    *visited += seen.len();
    (!found).then_some(seen)
}

/// The one traversal behind [`reachable`] and [`reachable_unless_found`]:
/// a depth-first walk of the closure of `roots` through `store` that calls
/// `stop` on each address on discovery — a root when the walk starts, any
/// other address when a fetched binding first touches it — and so before
/// fetching its binding.  Returns the discovered set and whether `stop`
/// cut the walk short.
fn walk<A, S>(
    roots: BTreeSet<A>,
    store: &S,
    mut stop: impl FnMut(&A) -> bool,
) -> (BTreeSet<A>, bool)
where
    A: Address,
    S: StoreLike<A>,
    S::D: Touches<A>,
{
    let mut seen: BTreeSet<A> = BTreeSet::new();
    let mut frontier: Vec<A> = Vec::with_capacity(roots.len());
    for root in roots {
        if stop(&root) {
            seen.insert(root);
            return (seen, true);
        }
        seen.insert(root.clone());
        frontier.push(root);
    }
    while let Some(addr) = frontier.pop() {
        // Borrow the binding when the store can lend it — the sweep visits
        // every live address, so per-address co-domain clones add up.
        let touched = match store.fetch_ref(&addr) {
            Some(binding) => binding.touches(),
            None => store.fetch(&addr).touches(),
        };
        for next in touched {
            if seen.contains(&next) {
                continue;
            }
            seen.insert(next.clone());
            if stop(&next) {
                return (seen, true);
            }
            frontier.push(next);
        }
    }
    (seen, false)
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

    #[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
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

    /// `reachable_unless_found` from `roots` to `targets`, without the
    /// visit count.
    fn search(store: &BasicStore<u8, Ptrs>, roots: &[u8], targets: &[u8]) -> Option<BTreeSet<u8>> {
        let roots = roots.iter().copied().collect();
        reachable_unless_found(roots, store, &targets.iter().copied().collect(), &mut 0)
    }

    #[test]
    fn the_search_stops_once_every_target_is_found() {
        let store = store_from(&[(1, &[2]), (2, &[3]), (3, &[]), (4, &[1])]);
        assert_eq!(search(&store, &[1], &[]), None);
        assert_eq!(search(&store, &[1], &[1]), None);
        assert_eq!(search(&store, &[1], &[3, 2]), None);
        // One target out of reach: the whole closure, as `reachable` has it.
        let closure = reachable([1u8].into_iter().collect(), &store);
        assert_eq!(search(&store, &[1], &[2, 4]), Some(closure.clone()));
        assert_eq!(search(&store, &[1], &[9]), Some(closure));
    }

    #[test]
    fn a_found_search_reads_only_what_it_walked() {
        // 1 → 2 → 3: finding 2 fetches the binding of 1 and no other.
        let mut store = store_from(&[(1, &[2]), (2, &[3]), (3, &[])]);
        let journal = crate::store::StoreDelta::arm_read_journal(&mut store);
        assert_eq!(search(&store, &[1], &[2]), None);
        assert_eq!(journal.take(), vec![1]);
    }

    #[test]
    fn a_target_that_is_a_root_fetches_nothing() {
        // The target is tested when it is discovered, and roots are
        // discovered before any binding is fetched.
        let mut store = store_from(&[(1, &[2]), (2, &[3]), (3, &[]), (5, &[1])]);
        let journal = crate::store::StoreDelta::arm_read_journal(&mut store);
        let mut visited = 0;
        let roots: BTreeSet<u8> = [1u8, 5].into_iter().collect();
        let targets: BTreeSet<u8> = [5u8].into_iter().collect();
        assert_eq!(
            reachable_unless_found(roots, &store, &targets, &mut visited),
            None
        );
        assert_eq!(journal.take(), Vec::<u8>::new());
        assert_eq!(visited, 2);
    }

    #[test]
    fn the_search_counts_the_addresses_it_discovers() {
        // A chain 1 → 2 → … → 9: a target next to the root costs two
        // addresses, however long the chain behind it is; a target out of
        // reach costs the whole closure.
        let edges: Vec<(u8, Vec<u8>)> = (1u8..10).map(|a| (a, vec![a + 1])).collect();
        let store = edges.iter().fold(BasicStore::new(), |s, (a, next)| {
            s.bind(*a, [Ptrs(next.clone())].into_iter().collect())
        });
        let count = |targets: &[u8]| {
            let mut visited = 0;
            let targets = targets.iter().copied().collect();
            reachable_unless_found([1u8].into_iter().collect(), &store, &targets, &mut visited);
            visited
        };
        assert_eq!(count(&[2]), 2);
        assert_eq!(count(&[1]), 1);
        assert_eq!(count(&[42]), 10);
        assert_eq!(count(&[]), 0);
    }

    proptest::proptest! {
        #[test]
        fn prop_search_agrees_with_the_closure(
            edges in proptest::collection::vec((0u8..12, 0u8..12), 0..30),
            roots in proptest::collection::btree_set(0u8..12, 0..4),
            targets in proptest::collection::btree_set(0u8..14, 0..4),
        ) {
            let mut adjacency: std::collections::BTreeMap<u8, Vec<u8>> = Default::default();
            for (from, to) in &edges {
                adjacency.entry(*from).or_default().push(*to);
            }
            let store = adjacency.iter().fold(BasicStore::new(), |s, (a, next)| {
                s.bind(*a, [Ptrs(next.clone())].into_iter().collect())
            });
            let closure = reachable(roots.clone(), &store);
            let mut visited = 0;
            let found = reachable_unless_found(roots.clone(), &store, &targets, &mut visited);
            if targets.is_subset(&closure) {
                proptest::prop_assert_eq!(found, None);
                proptest::prop_assert!(visited <= closure.len());
            } else {
                proptest::prop_assert_eq!(found, Some(closure.clone()));
                proptest::prop_assert_eq!(visited, closure.len());
            }
        }
    }

    #[test]
    fn empty_roots_reach_nothing() {
        let store = store_from(&[(1, &[2])]);
        assert!(reachable(BTreeSet::new(), &store).is_empty());
    }

    #[test]
    fn touches_lifts_through_containers() {
        let direct = Ptrs(vec![1, 2]);
        let set: PSet<Ptrs> = [direct.clone()].into_iter().collect();
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
