//! The counting store: abstract counting layered on the store (paper §6.3).

use std::collections::BTreeSet;
use std::fmt;
use std::hash::Hash;

use crate::addr::Address;
use crate::env::PSet;
use crate::lattice::{AbsNat, Lattice};
use crate::pmap::PMap;

use super::{ReadJournal, ReadTap, StoreLike};

/// A store that additionally tracks, for every address, an [`AbsNat`]
/// abstract count of how many times it has been allocated/bound:
///
/// ```text
/// type CountingStore a d = a ⇀ (d, AbsNat)
/// ```
///
/// Because counts live inside the store, abstract counting requires *no*
/// change to the semantics or to the analysis logic: a `CountingStore` can
/// be plugged into the `StorePassing` monad wherever a
/// [`BasicStore`](super::BasicStore) was used, implicitly extending the
/// abstract state-space with the `Ĉount` component of §6.3.
///
/// Like [`BasicStore`](super::BasicStore), the binding spine is a
/// persistent [`PMap`] (clone = `Arc` bump, writes copy one trie path,
/// diffs/joins skip shared subtrees) and the per-address value sets, the
/// [`StoreLike`] co-domain, are [`PSet`]s on the same trie, so a bind
/// copies one path of the set it grows; each entry is the pair lattice
/// `(value set, count)`.  `Debug` prints in trie order.
///
/// `fetch`, `fetch_ref`, `contains` (through `fetch`) and
/// [`Counter::count`] are journaled reads
/// ([`StoreDelta::arm_read_journal`](super::StoreDelta::arm_read_journal));
/// [`CountingStore::iter`] is not.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct CountingStore<A: Ord, V: Ord> {
    bindings: PMap<A, (PSet<V>, AbsNat)>,
    reads: ReadTap<A>,
}

impl<A: Address, V: Ord + Hash + Clone> CountingStore<A, V> {
    /// Creates an empty counting store.
    pub fn new() -> Self {
        CountingStore {
            bindings: PMap::new(),
            reads: ReadTap::default(),
        }
    }

    /// Iterates over `(address, values, count)` triples, in the spine's
    /// deterministic (hash) order.  Not a journaled read.
    pub fn iter(&self) -> impl Iterator<Item = (&A, &PSet<V>, AbsNat)> {
        self.bindings.iter().map(|(a, (vs, n))| (a, vs, *n))
    }

    /// The number of addresses whose abstract count is exactly one — the
    /// addresses for which strong updates and must-alias facts are sound.
    pub fn single_count(&self) -> usize {
        self.bindings
            .values()
            .filter(|(_, n)| *n == AbsNat::One)
            .count()
    }

    /// The total number of `(address, value)` facts in the store.
    pub fn fact_count(&self) -> usize {
        self.bindings.values().map(|(vs, _)| vs.len()).sum()
    }
}

impl<A: Address + fmt::Debug, V: Ord + fmt::Debug> fmt::Debug for CountingStore<A, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map()
            .entries(self.bindings.iter().map(|(a, (vs, n))| (a, (vs, n))))
            .finish()
    }
}

impl<A: Address, V: Ord + Hash + Clone> Lattice for CountingStore<A, V> {
    fn bottom() -> Self {
        CountingStore::new()
    }

    fn join(mut self, other: Self) -> Self {
        self.join_in_place(other);
        self
    }

    fn leq(&self, other: &Self) -> bool {
        // The `(value set, count)` entries are pair lattices; missing keys
        // read as ⊥ on either side.
        self.bindings.leq_map(&other.bindings)
    }

    fn join_in_place(&mut self, other: Self) -> bool {
        self.bindings.join_map_in_place(other.bindings)
    }

    fn is_bottom(&self) -> bool {
        self.bindings.is_bottom_map()
    }
}

/// Counted power-set co-domains have finite height over any fixed program
/// (the count component saturates at ∞), so the defaults (widen = join,
/// narrow = no-op) are a sound, terminating widening pair.
impl<A: Address, V: Ord + Hash + Clone> crate::lattice::WidenLattice for CountingStore<A, V> {}

impl<A, V> StoreLike<A> for CountingStore<A, V>
where
    A: Address,
    V: Ord + Hash + Clone + fmt::Debug + Send + Sync + 'static,
{
    type D = PSet<V>;

    fn bind_in_place(&mut self, a: A, d: Self::D) -> bool {
        // σ ⊔ [â ↦ d],  μ ⊕ [â ↦ 1] — installed through the spine's
        // sharing-preserving upsert, so a saturated no-op bind (count
        // already ∞, values already present) copies nothing.
        self.bindings.upsert_with(a, |entry| match entry {
            Some((vs, n)) => {
                let mut joined = vs.clone();
                let grew = joined.join_in_place(d);
                let bumped = *n + AbsNat::One;
                let count_changed = bumped != *n;
                if grew || count_changed {
                    Some((joined, bumped))
                } else {
                    None
                }
            }
            // The count went 0 → 1, so the binding always changed.
            None => Some((d, AbsNat::One)),
        })
    }

    fn replace(mut self, a: A, d: Self::D) -> Self {
        // Strong update of the value; the count is unchanged (the address
        // still corresponds to however many concrete allocations it did).
        let count = self
            .bindings
            .get(&a)
            .map(|(_, n)| *n)
            .unwrap_or(AbsNat::Zero);
        self.bindings.insert(a, (d, count));
        self
    }

    fn fetch(&self, a: &A) -> Self::D {
        self.reads.record(a);
        self.bindings
            .get(a)
            .map(|(vs, _)| vs.clone())
            .unwrap_or_default()
    }

    fn fetch_ref(&self, a: &A) -> Option<&Self::D> {
        self.reads.record(a);
        self.bindings.get(a).map(|(vs, _)| vs)
    }

    fn filter_store<F>(mut self, keep: F) -> Self
    where
        F: Fn(&A) -> bool,
    {
        self.bindings.retain(keep);
        self
    }

    fn restrict_to(mut self, addrs: &BTreeSet<A>) -> Self {
        self.bindings = self.bindings.restricted_to(addrs);
        self
    }

    fn addresses(&self) -> BTreeSet<A> {
        self.bindings.keys().cloned().collect()
    }

    fn binding_count(&self) -> usize {
        self.bindings.len()
    }
}

impl<A, V> super::StoreDelta<A> for CountingStore<A, V>
where
    A: Address,
    V: Ord + Hash + Clone + fmt::Debug + Send + Sync + 'static,
{
    fn changed_addresses(&self, other: &Self) -> BTreeSet<A> {
        // Counts are part of the observable binding: an address whose value
        // set is unchanged but whose count was bumped still counts as
        // changed.
        self.bindings.changed_keys(&other.bindings)
    }

    fn widen_in_place_delta(
        &mut self,
        other: Self,
        _widen_at: &BTreeSet<A>,
        adopted_bytes: &mut usize,
    ) -> BTreeSet<A> {
        // The `(value set, count)` entries are pair lattices, so the spine
        // merge reports count-only growth too.
        self.bindings
            .join_in_place_delta(other.bindings, adopted_bytes)
    }

    fn arm_read_journal(&mut self) -> ReadJournal<A> {
        self.reads.arm()
    }
}

/// The paper's `ACounter` class: stores that can report how often an
/// address has been allocated.
///
/// Because the counter is parameterized over addresses it is independent of
/// any specific semantics and "can be used with any other semantics" —
/// which is exactly how the language crates use it.
pub trait Counter<A: Address>: StoreLike<A> {
    /// The abstract allocation count of `a` (the paper's `count σ a`).
    fn count(&self, a: &A) -> AbsNat;

    /// A *sound* update: strong (replacing) when the count certifies that
    /// `a` stands for at most one concrete address, weak (joining)
    /// otherwise.  This is the "dependent enhancement" of §6.3 that
    /// counting enables.
    #[must_use]
    fn update_sound(self, a: A, d: Self::D) -> Self {
        if self.count(&a).is_at_most_one() {
            self.replace(a, d)
        } else {
            self.bind(a, d)
        }
    }
}

impl<A, V> Counter<A> for CountingStore<A, V>
where
    A: Address,
    V: Ord + Hash + Clone + fmt::Debug + Send + Sync + 'static,
{
    fn count(&self, a: &A) -> AbsNat {
        self.reads.record(a);
        self.bindings
            .get(a)
            .map(|(_, n)| *n)
            .unwrap_or(AbsNat::Zero)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    type S = CountingStore<u8, u8>;

    fn set(xs: &[u8]) -> PSet<u8> {
        xs.iter().copied().collect()
    }

    #[test]
    fn counts_track_allocations() {
        let s = S::new();
        assert_eq!(s.count(&1), AbsNat::Zero);
        let s = s.bind(1, set(&[5]));
        assert_eq!(s.count(&1), AbsNat::One);
        let s = s.bind(1, set(&[6]));
        assert_eq!(s.count(&1), AbsNat::Many);
        assert_eq!(s.fetch(&1), set(&[5, 6]));
    }

    #[test]
    fn single_count_reports_must_alias_addresses() {
        let s = S::new()
            .bind(1, set(&[5]))
            .bind(2, set(&[6]))
            .bind(2, set(&[7]));
        assert_eq!(s.single_count(), 1);
        assert_eq!(s.fact_count(), 3);
    }

    #[test]
    fn sound_update_is_strong_for_singletons_weak_otherwise() {
        let once = S::new().bind(1, set(&[5]));
        let strongly = once.clone().update_sound(1, set(&[9]));
        assert_eq!(strongly.fetch(&1), set(&[9]));

        let twice = once.bind(1, set(&[6]));
        let weakly = twice.update_sound(1, set(&[9]));
        assert_eq!(weakly.fetch(&1), set(&[5, 6, 9]));
    }

    #[test]
    fn replace_keeps_the_count() {
        let s = S::new().bind(1, set(&[5])).bind(1, set(&[6]));
        let replaced = s.replace(1, set(&[7]));
        assert_eq!(replaced.fetch(&1), set(&[7]));
        assert_eq!(replaced.count(&1), AbsNat::Many);
    }

    #[test]
    fn join_joins_values_and_counts() {
        let a = S::new().bind(1, set(&[5]));
        let b = S::new().bind(1, set(&[6]));
        let j = a.clone().join(b.clone());
        assert_eq!(j.fetch(&1), set(&[5, 6]));
        // Join is a lattice join of counts (max), not abstract addition.
        assert_eq!(j.count(&1), AbsNat::One);
        assert!(a.leq(&j) && b.leq(&j));
    }

    #[test]
    fn filter_store_drops_counts_too() {
        let s = S::new().bind(1, set(&[5])).bind(2, set(&[6]));
        let s = s.filter_store(|a| *a == 1);
        assert_eq!(s.count(&2), AbsNat::Zero);
        assert_eq!(s.addresses(), [1u8].into_iter().collect());
    }

    #[test]
    fn saturated_binds_copy_nothing() {
        // Drive address 1 to (count = ∞, values ⊇ {5}); a further identical
        // bind is a no-op and must keep the spine allocation intact.
        let mut s = S::new().bind(1, set(&[5])).bind(1, set(&[5]));
        let snapshot = s.clone();
        assert!(!s.bind_in_place(1, set(&[5])));
        assert_eq!(s, snapshot);
        assert!(snapshot.bindings.shared_spine_bytes() > 0);
    }

    proptest! {
        #[test]
        fn prop_count_abstracts_number_of_binds(
            binds in proptest::collection::vec(0u8..4, 0..10)
        ) {
            let mut s = S::new();
            let mut concrete: BTreeMap<u8, usize> = BTreeMap::new();
            for a in binds {
                s = s.bind(a, set(&[a]));
                *concrete.entry(a).or_insert(0) += 1;
            }
            for (a, n) in concrete {
                prop_assert_eq!(s.count(&a), AbsNat::abstraction(n));
            }
        }

        #[test]
        fn prop_lattice_laws(
            xs in proptest::collection::vec((0u8..4, 0u8..4), 0..10),
            ys in proptest::collection::vec((0u8..4, 0u8..4), 0..10),
        ) {
            let mk = |items: Vec<(u8, u8)>| {
                items.into_iter().fold(S::new(), |s, (a, v)| s.bind(a, set(&[v])))
            };
            let a = mk(xs);
            let b = mk(ys);
            let j = a.clone().join(b.clone());
            prop_assert!(a.leq(&j));
            prop_assert!(b.leq(&j));
            prop_assert_eq!(a.clone().join(a.clone()), a);
        }

        #[test]
        fn prop_join_in_place_law_and_delta(
            xs in proptest::collection::vec((0u8..4, 0u8..4), 0..10),
            ys in proptest::collection::vec((0u8..4, 0u8..4), 0..10),
        ) {
            use crate::store::StoreDelta;
            let mk = |items: Vec<(u8, u8)>| {
                items.into_iter().fold(S::new(), |s, (a, v)| s.bind(a, set(&[v])))
            };
            let a = mk(xs);
            let b = mk(ys);

            let mut inplace = a.clone();
            let changed = inplace.join_in_place(b.clone());
            prop_assert_eq!(&inplace, &a.clone().join(b.clone()));
            prop_assert_eq!(changed, !b.leq(&a));

            // Count-only growth must show up in the delta: joining a store
            // whose counts are higher changes those addresses even when the
            // value sets coincide.
            let mut delta_store = a.clone();
            let delta = delta_store.join_in_place_delta(b.clone());
            prop_assert_eq!(&delta_store, &inplace);
            prop_assert_eq!(delta.is_empty(), !changed);
            for addr in 0u8..4 {
                let grew = !b.fetch(&addr).leq(&a.fetch(&addr))
                    || !b.count(&addr).leq(&a.count(&addr));
                prop_assert_eq!(delta.contains(&addr), grew, "address {}", addr);
            }
        }

        #[test]
        fn prop_bind_in_place_matches_bind(
            xs in proptest::collection::vec((0u8..4, 0u8..4), 0..10),
            a in 0u8..4,
            v in 0u8..4,
        ) {
            let mk = |items: Vec<(u8, u8)>| {
                items.into_iter().fold(S::new(), |s, (a, v)| s.bind(a, set(&[v])))
            };
            let s = mk(xs);
            let mut inplace = s.clone();
            let changed = inplace.bind_in_place(a, set(&[v]));
            prop_assert_eq!(&inplace, &s.clone().bind(a, set(&[v])));
            // A bind changes the binding unless the count was already
            // saturated *and* the value already present.
            let expected = !s.fetch(&a).contains(&v) || s.count(&a) != AbsNat::Many;
            prop_assert_eq!(changed, expected);
        }
    }
}
