//! The plain power-set store.

use std::borrow::Cow;
use std::collections::BTreeSet;
use std::fmt;
use std::hash::Hash;
use std::sync::{Mutex, PoisonError};

use crate::addr::Address;
use crate::env::PSet;
use crate::hash::FxHashMap;
use crate::lattice::Lattice;
use crate::pmap::PMap;

use super::{FanOut, OldPath, OldRead, ReadJournal, ReadTap, StoreLike};

/// The standard abstract store of the abstracted abstract machine:
/// a point-wise map from addresses to *sets* of values,
/// `Ŝtore = Âddr → P(D̂)`.
///
/// `bind` performs the weak update `σ ⊔ [â ↦ {d̂}]`; `replace` performs a
/// strong update.  The store is itself a lattice (point-wise join), an
/// ordered value (so it can participate in power-set analysis domains) and
/// printable.
///
/// Internally the binding *spine* is a persistent [`PMap`] — an Arc-shared
/// hash trie keyed by the addresses' Fx hashes — and each value set, the
/// [`StoreLike`] co-domain, is a [`PSet`] on the same trie.  Cloning a
/// store — which the store-passing monad does once per transition — is
/// therefore an `Arc` bump; a write copies only the O(log n) spine path
/// and the O(log w) path of the value it adds to a w-value set; `fetch`
/// hands out the store's own set; and diffing, ordering or joining two
/// stores short-circuits on pointer identity for every subtree, of the
/// spine or of a set, that was merely carried along.  `Debug` prints both
/// in trie order.
///
/// `fetch`, `fetch_ref`, `contains` and `fan_out` are journaled reads
/// ([`StoreDelta::arm_read_journal`](super::StoreDelta::arm_read_journal));
/// [`BasicStore::iter`] is not.  The store remembers bindings for
/// semi-naive re-steps ([`StoreDelta::arm_re_step`](super::StoreDelta::arm_re_step)):
/// its baseline is the previous pre-store restricted to what the step read,
/// and a binding that is pointer-equal to the remembered one is unchanged
/// without a look at its values.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct BasicStore<A: Ord, V: Ord> {
    bindings: PMap<A, PSet<V>>,
    reads: ReadTap<A, Remembered<A, V>>,
}

/// What a semi-naive re-step of a [`BasicStore`] remembers of the previous
/// step: its pre-store restricted to the addresses it read.
struct Remembered<A, V: Ord> {
    bindings: PMap<A, PSet<V>>,
    /// Per address a fan-out read this step: the binding the new values
    /// were computed from and those values, so each address's difference
    /// is computed once per step, not once per path.
    grown: Mutex<FxHashMap<A, Grown<V>>>,
}

/// A binding read by a fan-out on a semi-naive re-step, with its new
/// values.
type Grown<V> = (PSet<V>, NewValues<V>);

/// The values of a binding a semi-naive re-step's previous step did not
/// see (`None`: there are none).
type NewValues<V> = Option<PSet<V>>;

impl<A: Address, V: Ord + Hash + Clone> Remembered<A, V> {
    /// Whether a plain read of `a` sees what the previous step saw.
    fn unchanged(&self, a: &A, now: Option<&PSet<V>>) -> bool {
        match (self.bindings.get(a), now) {
            (Some(then), Some(now)) => then == now,
            (None, None) => true,
            (Some(one), None) | (None, Some(one)) => one.is_empty(),
        }
    }

    /// The values of `now`, the binding at `a`, that the previous step did
    /// not see: `now \ then`, by the trie diff, which skips the subtrees
    /// the two bindings share.
    fn grown_at(&self, a: &A, now: Option<&PSet<V>>) -> NewValues<V> {
        let now = now?;
        let then = self.bindings.get(a);
        if then.is_some_and(|then| then.ptr_eq(now)) {
            return None;
        }
        let mut grown = self.grown.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some((seen, new)) = grown.get(a) {
            if seen.ptr_eq(now) {
                return new.clone();
            }
        }
        let new = match then {
            Some(then) => now.difference(then),
            None => now.clone(),
        };
        let new = (!new.is_empty()).then_some(new);
        grown.insert(a.clone(), (now.clone(), new.clone()));
        new
    }
}

impl<A: Address, V: Ord + Hash + Clone> BasicStore<A, V> {
    /// Creates an empty store.
    pub fn new() -> Self {
        BasicStore {
            bindings: PMap::new(),
            reads: ReadTap::default(),
        }
    }

    /// Iterates over the bindings of the store, in the spine's
    /// deterministic (hash) order.  Not a journaled read: a transition
    /// that inspects the store this way is invisible to the engines'
    /// dependency tracking.
    pub fn iter(&self) -> impl Iterator<Item = (&A, &PSet<V>)> {
        self.bindings.iter()
    }

    /// The total number of `(address, value)` facts in the store — the
    /// usual "size of the flow relation" precision metric.
    pub fn fact_count(&self) -> usize {
        self.bindings.values().map(PSet::len).sum()
    }

    /// The number of addresses whose value set is a singleton — a common
    /// precision metric (more singletons means more definite flows).
    pub fn singleton_count(&self) -> usize {
        self.bindings.values().filter(|vs| vs.len() == 1).count()
    }

    /// How many trie nodes the binding spine uses.
    pub fn spine_nodes(&self) -> usize {
        self.bindings.spine_nodes()
    }
}

impl<A: Address + fmt::Debug, V: Ord + fmt::Debug> fmt::Debug for BasicStore<A, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.bindings.iter()).finish()
    }
}

impl<A: Address, V: Ord + Hash + Clone> Lattice for BasicStore<A, V> {
    fn bottom() -> Self {
        BasicStore::new()
    }

    fn join(mut self, other: Self) -> Self {
        self.bindings.join_map_in_place(other.bindings);
        self
    }

    fn leq(&self, other: &Self) -> bool {
        self.bindings.leq_map(&other.bindings)
    }

    fn join_in_place(&mut self, other: Self) -> bool {
        self.bindings.join_map_in_place(other.bindings)
    }

    fn is_bottom(&self) -> bool {
        self.bindings.is_bottom_map()
    }
}

/// Power-set co-domains have finite height over any fixed program, so the
/// defaults (widen = join, narrow = no-op) are a sound, terminating
/// widening pair.
impl<A: Address, V: Ord + Hash + Clone> crate::lattice::WidenLattice for BasicStore<A, V> {}

impl<A, V> StoreLike<A> for BasicStore<A, V>
where
    A: Address,
    V: Ord + Hash + Clone + fmt::Debug + Send + Sync + 'static,
{
    type D = PSet<V>;

    fn bind_in_place(&mut self, a: A, d: Self::D) -> bool {
        self.bindings.join_at_in_place(a, d)
    }

    fn replace(mut self, a: A, d: Self::D) -> Self {
        // A strong update can leave a binding below the store it replaced,
        // so its branch is never dropped as a replay.
        self.reads.mark_fresh();
        self.bindings.insert(a, d);
        self
    }

    fn fetch(&self, a: &A) -> Self::D {
        self.read(a).cloned().unwrap_or_default()
    }

    fn fetch_ref(&self, a: &A) -> Option<&Self::D> {
        self.read(a)
    }

    fn fan_out(&self, a: &A) -> FanOut<'_, Self::D> {
        let now = self.bindings.get(a);
        let old = self.reads.record(a).map(|OldRead { baseline, last }| {
            let new = baseline.grown_at(a, now);
            if last && now.map_or(0, PSet::len) > new.as_ref().map_or(0, PSet::len) {
                self.reads.prune();
            }
            OldPath { new, last }
        });
        let binding = now.map_or_else(|| Cow::Owned(PSet::new()), Cow::Borrowed);
        FanOut { binding, old }
    }

    fn mark_fresh(&mut self) {
        self.reads.mark_fresh();
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

impl<A, V> super::StoreDelta<A> for BasicStore<A, V>
where
    A: Address,
    V: Ord + Hash + Clone + fmt::Debug + Send + Sync + 'static,
{
    fn changed_addresses(&self, other: &Self) -> BTreeSet<A> {
        self.bindings.changed_keys(&other.bindings)
    }

    fn widen_in_place_delta(
        &mut self,
        other: Self,
        _widen_at: &BTreeSet<A>,
        adopted_bytes: &mut usize,
    ) -> BTreeSet<A> {
        self.bindings
            .join_in_place_delta(other.bindings, adopted_bytes)
    }

    fn arm_read_journal(&mut self) -> ReadJournal<A> {
        self.reads.arm()
    }

    fn remember(&self, reads: &[A]) -> Option<Self> {
        Some(BasicStore {
            bindings: self.bindings.restricted_to(reads),
            reads: ReadTap::default(),
        })
    }

    fn arm_re_step(&mut self, remembered: &Self, longest_path: u32) -> ReadJournal<A> {
        let baseline = Remembered {
            bindings: remembered.bindings.clone(),
            grown: Mutex::default(),
        };
        self.reads.arm_re_step(baseline, longest_path)
    }

    fn is_old_branch(&self) -> bool {
        self.reads.is_old()
    }
}

impl<A: Address, V: Ord + Hash + Clone> BasicStore<A, V> {
    /// A plain journaled read of `a`.  On an old path of a semi-naive
    /// re-step, a binding that differs from the remembered one ends the
    /// semi-naive step.
    fn read(&self, a: &A) -> Option<&PSet<V>> {
        let now = self.bindings.get(a);
        if let Some(OldRead { baseline, .. }) = self.reads.record(a) {
            if !baseline.unchanged(a, now) {
                self.reads.diverge();
            }
        }
        now
    }
}

impl<A: Address, V: Ord + Hash + Clone> FromIterator<(A, PSet<V>)> for BasicStore<A, V> {
    fn from_iter<T: IntoIterator<Item = (A, PSet<V>)>>(iter: T) -> Self {
        let mut store = BasicStore::new();
        for (a, d) in iter {
            store.bindings.join_at_in_place(a, d);
        }
        store
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    type S = BasicStore<u8, u8>;

    fn set(xs: &[u8]) -> PSet<u8> {
        xs.iter().copied().collect()
    }

    #[test]
    fn bind_is_a_weak_update() {
        let s = S::new().bind(1, set(&[10])).bind(1, set(&[20]));
        assert_eq!(s.fetch(&1), set(&[10, 20]));
        assert_eq!(s.fact_count(), 2);
        assert_eq!(s.singleton_count(), 0);
    }

    #[test]
    fn replace_is_a_strong_update() {
        let s = S::new().bind(1, set(&[10, 20])).replace(1, set(&[30]));
        assert_eq!(s.fetch(&1), set(&[30]));
        assert_eq!(s.singleton_count(), 1);
    }

    #[test]
    fn fetch_of_unbound_address_is_bottom() {
        assert_eq!(S::new().fetch(&9), PSet::new());
    }

    #[test]
    fn filter_store_restricts_the_domain() {
        let s = S::new()
            .bind(1, set(&[1]))
            .bind(2, set(&[2]))
            .bind(3, set(&[3]))
            .filter_store(|a| *a != 2);
        assert_eq!(s.addresses(), BTreeSet::from([1, 3]));
        assert!(!s.contains(&2));
    }

    #[test]
    fn from_iterator_joins_duplicate_addresses() {
        let s: S = vec![(1u8, set(&[1])), (1, set(&[2]))].into_iter().collect();
        assert_eq!(s.fetch(&1), set(&[1, 2]));
    }

    #[test]
    fn store_clone_shares_the_spine() {
        let s = S::new().bind(1, set(&[1])).bind(2, set(&[2]));
        let snapshot = s.clone();
        // The clone shares the whole spine, so shared bytes are visible
        // from either handle.
        assert!(snapshot.bindings.shared_spine_bytes() > 0);
        assert!(s.spine_nodes() > 0);
        // Growing one handle leaves the other untouched.
        let grown = s.clone().bind(3, set(&[3]));
        assert!(!snapshot.contains(&3));
        assert!(grown.contains(&3));
    }

    #[test]
    fn fetch_and_fan_out_hand_out_the_stores_own_set() {
        let s = S::new().bind(1, set(&[1, 2, 3]));
        let own = s.bindings.get(&1).expect("bound");
        assert!(s.fetch(&1).ptr_eq(own));
        assert!(s.fetch_ref(&1).is_some_and(|vs| vs.ptr_eq(own)));
        let fanned = s.fan_out(&1);
        assert!(matches!(fanned.binding, Cow::Borrowed(vs) if vs.ptr_eq(own)));
        assert!(fanned.old.is_none(), "an unarmed store has no baseline");
        assert!(s.fetch(&9).is_empty() && s.fan_out(&9).binding.is_empty());
    }

    #[test]
    fn binding_one_value_copies_one_path_of_a_shared_set() {
        let snapshot: BasicStore<u8, u16> = BasicStore::new()
            .bind(0, (0..1000).collect())
            .bind(1, (0..1000).collect());
        let mut grown = snapshot.clone();
        assert!(grown.bind_in_place(1, [1000].into_iter().collect()));
        let (now, then) = (&grown.bindings, &snapshot.bindings);
        // The bind copied the new value's path through the set and left
        // every other node of it shared with the snapshot's set…
        let (set_now, set_then) = (now.get(&1).unwrap().trie(), then.get(&1).unwrap().trie());
        assert_eq!(set_now.nodes_not_in(set_then), set_now.path_nodes(&1000));
        // …and copied the address's path through the spine, where the
        // other binding is still the snapshot's own set.
        assert_eq!(now.nodes_not_in(then), now.path_nodes(&1));
        assert!(now.get(&0).unwrap().ptr_eq(then.get(&0).unwrap()));
        assert_eq!(snapshot.fetch(&1).len(), 1000);
    }

    /// The remembered side of a semi-naive re-step, binding `then` at
    /// address 0 (`None`: unbound).
    fn remembered(then: Option<PSet<u8>>) -> Remembered<u8, u8> {
        Remembered {
            bindings: then.into_iter().map(|vs| (0u8, vs)).collect(),
            grown: Mutex::default(),
        }
    }

    proptest! {
        #[test]
        fn prop_new_values_are_now_minus_then(
            then in proptest::collection::vec(0u8..40, 0..30),
            added in proptest::collection::vec(0u8..40, 0..10),
            unrelated in proptest::collection::vec(0u8..40, 0..30),
            baseline in 0u8..5,
        ) {
            let then: PSet<u8> = then.into_iter().collect();
            // `now` grows `then` in place (sharing its trie), except for
            // the unrelated baseline, built apart.
            let mut now = then.clone();
            for v in &added {
                now.insert(*v);
            }
            let (then, now) = match baseline {
                0 => (Some(then), now),
                1 => (Some(now.clone()), now),
                2 => (Some(PSet::new()), now),
                3 => (None, now),
                _ => (Some(unrelated.into_iter().collect()), now),
            };
            let reference: BTreeSet<u8> = now
                .iter()
                .filter(|v| !then.as_ref().is_some_and(|then| then.contains(v)))
                .copied()
                .collect();
            let memory = remembered(then);
            for _ in 0..2 {
                // The second read of the same binding hits the per-step
                // cache and must agree.
                let new = memory.grown_at(&0, Some(&now));
                prop_assert_eq!(new.is_none(), reference.is_empty());
                let got: BTreeSet<u8> = new.iter().flat_map(PSet::iter).copied().collect();
                prop_assert_eq!(&got, &reference);
            }
            prop_assert!(memory.grown_at(&0, None).is_none());
        }

        #[test]
        fn prop_bind_only_grows_the_store(
            addrs in proptest::collection::vec((0u8..8, 0u8..8), 0..20)
        ) {
            let mut s = S::new();
            for (a, v) in addrs {
                let next = s.clone().bind(a, set(&[v]));
                prop_assert!(s.leq(&next));
                prop_assert!(next.fetch(&a).contains(&v));
                s = next;
            }
        }

        #[test]
        fn prop_store_join_is_pointwise(
            xs in proptest::collection::vec((0u8..6, 0u8..6), 0..12),
            ys in proptest::collection::vec((0u8..6, 0u8..6), 0..12),
            probe in 0u8..6,
        ) {
            let s1: S = xs.into_iter().map(|(a, v)| (a, set(&[v]))).collect();
            let s2: S = ys.into_iter().map(|(a, v)| (a, set(&[v]))).collect();
            let joined = s1.clone().join(s2.clone());
            prop_assert_eq!(
                joined.fetch(&probe),
                s1.fetch(&probe).join(s2.fetch(&probe))
            );
            prop_assert!(s1.leq(&joined) && s2.leq(&joined));
        }

        #[test]
        fn prop_join_in_place_law_and_delta(
            xs in proptest::collection::vec((0u8..6, 0u8..6), 0..12),
            ys in proptest::collection::vec((0u8..6, 0u8..6), 0..12),
        ) {
            use crate::store::StoreDelta;
            let s1: S = xs.into_iter().map(|(a, v)| (a, set(&[v]))).collect();
            let s2: S = ys.into_iter().map(|(a, v)| (a, set(&[v]))).collect();

            let mut inplace = s1.clone();
            let changed = inplace.join_in_place(s2.clone());
            prop_assert_eq!(&inplace, &s1.clone().join(s2.clone()));
            prop_assert_eq!(changed, !s2.leq(&s1));

            // The delta fold produces the same store and reports exactly the
            // addresses whose binding grew.
            let mut delta_store = s1.clone();
            let delta = delta_store.join_in_place_delta(s2.clone());
            prop_assert_eq!(&delta_store, &inplace);
            prop_assert_eq!(delta.is_empty(), !changed);
            for a in 0u8..6 {
                let grew = !s2.fetch(&a).leq(&s1.fetch(&a));
                prop_assert_eq!(delta.contains(&a), grew, "address {}", a);
            }
        }

        #[test]
        fn prop_bind_in_place_matches_bind(
            xs in proptest::collection::vec((0u8..6, 0u8..6), 0..12),
            a in 0u8..6,
            v in 0u8..6,
        ) {
            let s: S = xs.into_iter().map(|(a, v)| (a, set(&[v]))).collect();
            let mut inplace = s.clone();
            let changed = inplace.bind_in_place(a, set(&[v]));
            prop_assert_eq!(&inplace, &s.clone().bind(a, set(&[v])));
            prop_assert_eq!(changed, !s.fetch(&a).contains(&v));
        }

        #[test]
        fn prop_filter_then_fetch_is_bottom_for_dropped(
            xs in proptest::collection::vec((0u8..6, 0u8..6), 0..12),
            dropped in 0u8..6,
        ) {
            let s: S = xs.into_iter().map(|(a, v)| (a, set(&[v]))).collect();
            let filtered = s.filter_store(|a| *a != dropped);
            prop_assert!(filtered.fetch(&dropped).is_empty());
        }
    }
}
