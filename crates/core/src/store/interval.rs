//! The numeric abstract store: addresses bound to [`Interval`]s.
//!
//! [`BasicStore`](super::BasicStore) and
//! [`CountingStore`](super::CountingStore) have power-set co-domains, so
//! over any fixed program their height is finite and plain join-driven
//! fixpoint iteration terminates.  [`IntervalStore`] is the store the
//! engines' widening machinery exists for: its co-domain is the
//! infinite-height [`Interval`] lattice, so an address fed by a counting
//! loop grows forever under `⊔` and the engines must switch that
//! address's accumulation to `▽` ([`StoreDelta::widen_in_place_delta`])
//! to terminate.
//!
//! The representation mirrors `BasicStore`: a persistent [`PMap`] spine
//! (cloning is an `Arc` bump; a write copies one root-to-leaf path), with
//! the co-domain a `Copy` interval instead of a value set.

use std::collections::BTreeSet;
use std::fmt;

use crate::addr::Address;
use crate::lattice::{Interval, Lattice, WidenLattice};
use crate::pmap::PMap;

use super::{ReadJournal, ReadTap, StoreDelta, StoreLike};

/// A point-wise map from addresses to [`Interval`]s:
/// `Ŝtore = Âddr → Interval`.
///
/// `bind` is the weak update `σ ⊔ [â ↦ ι]`; `replace` is a strong update.
/// The store is a lattice point-wise, a [`WidenLattice`] point-wise (every
/// address is its own widening point), and a [`StoreDelta`] whose
/// [`StoreDelta::widen_in_place_delta`] actually widens — the one store
/// whose fold differs from its join, which makes the fixpoint engines
/// terminate on numeric domains.
///
/// The store also journals its writes when armed
/// ([`StoreDelta::arm_write_journal`]): `journal`, when present, maps each
/// address written since arming to the written values (weak updates join,
/// strong updates replace — mirroring the writes).  The journal is
/// operational metadata for the engines' narrowing post-pass, **not**
/// part of the store's value: equality, ordering and hashing see the
/// bindings only, so an armed snapshot compares equal to its unarmed
/// original.  The same holds for the read journal
/// ([`StoreDelta::arm_read_journal`]), which `fetch`, `fetch_ref` and
/// `contains` record into; [`IntervalStore::iter`] is not a journaled
/// read.
#[derive(Clone, Default)]
pub struct IntervalStore<A: Ord> {
    bindings: PMap<A, Interval>,
    journal: Option<PMap<A, Interval>>,
    reads: ReadTap<A>,
}

impl<A: Ord + Eq> PartialEq for IntervalStore<A> {
    fn eq(&self, other: &Self) -> bool {
        self.bindings == other.bindings
    }
}

impl<A: Ord + Eq> Eq for IntervalStore<A> {}

impl<A: Ord> PartialOrd for IntervalStore<A> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl<A: Ord> Ord for IntervalStore<A> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.bindings.cmp(&other.bindings)
    }
}

impl<A: Ord + std::hash::Hash> std::hash::Hash for IntervalStore<A> {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.bindings.hash(state);
    }
}

impl<A: Address> IntervalStore<A> {
    /// Creates an empty store.
    pub fn new() -> Self {
        IntervalStore {
            bindings: PMap::new(),
            journal: None,
            reads: ReadTap::default(),
        }
    }

    /// Iterates over the bindings, in the spine's deterministic (hash)
    /// order.
    pub fn iter(&self) -> impl Iterator<Item = (&A, &Interval)> {
        self.bindings.iter()
    }

    /// The number of addresses bound to an interval with at least one
    /// finite bound — the precision metric narrowing improves.
    pub fn finite_bound_count(&self) -> usize {
        self.bindings
            .values()
            .filter(|i| {
                i.bounds().is_some_and(|(lo, hi)| {
                    matches!(lo, crate::lattice::Lo::At(_))
                        || matches!(hi, crate::lattice::Hi::At(_))
                })
            })
            .count()
    }
}

impl<A: Address + fmt::Debug> fmt::Debug for IntervalStore<A> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.bindings.iter()).finish()
    }
}

impl<A: Address> Lattice for IntervalStore<A> {
    fn bottom() -> Self {
        IntervalStore::new()
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

impl<A: Address> WidenLattice for IntervalStore<A> {
    /// Point-wise widening: every address of `other` is treated as a
    /// widening point.
    fn widen_in_place(&mut self, other: Self) -> bool {
        let everywhere: BTreeSet<A> = other.bindings.keys().cloned().collect();
        !self
            .widen_in_place_delta(other, &everywhere, &mut 0)
            .is_empty()
    }

    /// Point-wise narrowing of `self`'s bindings against `other`'s.
    ///
    /// **Precondition (the caller's obligation):** wherever `other` binds
    /// an address `a`, `other[a]` must be an upper bound of *every*
    /// producer's contribution at `a` — including a producer whose write
    /// reproduced the current binding exactly.  Addresses `other` does
    /// not bind are left untouched: a missing binding means the image is
    /// *silent* about the address — **no producer wrote it at all** — not
    /// that the address's value is `⊥`.  The engines' narrowing post-pass
    /// meets this contract by assembling the image from per-branch write
    /// journals ([`StoreDelta::take_write_journal`]), which record every
    /// write verbatim; a value-level diff against the accumulator would
    /// *not* meet it, because a write of exactly the current value is
    /// invisible to a diff and its exclusion would let another producer's
    /// tighter write unsoundly narrow the address.
    fn narrow_in_place(&mut self, other: Self) -> bool {
        let mut changed = false;
        let addrs: Vec<A> = self.bindings.keys().cloned().collect();
        for a in addrs {
            let Some(refined) = other.bindings.get(&a).copied() else {
                continue;
            };
            let mut cur = *self.bindings.get(&a).expect("key just listed");
            if cur.narrow_in_place(refined) {
                self.bindings.insert(a, cur);
                changed = true;
            }
        }
        changed
    }
}

impl<A: Address> StoreLike<A> for IntervalStore<A> {
    type D = Interval;

    fn bind_in_place(&mut self, a: A, d: Self::D) -> bool {
        if let Some(journal) = &mut self.journal {
            journal.join_at_in_place(a.clone(), d);
        }
        self.bindings.join_at_in_place(a, d)
    }

    fn replace(mut self, a: A, d: Self::D) -> Self {
        if let Some(journal) = &mut self.journal {
            journal.insert(a.clone(), d);
        }
        self.bindings.insert(a, d);
        self
    }

    fn fetch(&self, a: &A) -> Self::D {
        self.reads.record(a);
        self.bindings.get(a).copied().unwrap_or(Interval::Empty)
    }

    fn fetch_ref(&self, a: &A) -> Option<&Self::D> {
        self.reads.record(a);
        self.bindings.get(a)
    }

    fn contains(&self, a: &A) -> bool {
        self.reads.record(a);
        self.bindings.get(a).is_some_and(|i| !i.is_bottom())
    }

    // Restriction filters the *bindings* only: an armed snapshot keeps its
    // journal intact, so a write that abstract GC later drops from the
    // branch store still reaches the narrowing image (a larger image can
    // only block tightening — sound).
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

impl<A: Address> StoreDelta<A> for IntervalStore<A> {
    fn changed_addresses(&self, other: &Self) -> BTreeSet<A> {
        self.bindings.changed_keys(&other.bindings)
    }

    fn widen_in_place_delta(
        &mut self,
        other: Self,
        widen_at: &BTreeSet<A>,
        adopted_bytes: &mut usize,
    ) -> BTreeSet<A> {
        if widen_at.is_empty() {
            return self
                .bindings
                .join_in_place_delta(other.bindings, adopted_bytes);
        }
        let mut changed = BTreeSet::new();
        for (a, v) in other.bindings.iter() {
            if widen_at.contains(a) {
                let mut cur = self.bindings.get(a).copied().unwrap_or(Interval::Empty);
                if cur.widen_in_place(*v) {
                    self.bindings.insert(a.clone(), cur);
                    changed.insert(a.clone());
                }
            } else if self.bindings.join_at_in_place(a.clone(), *v) {
                changed.insert(a.clone());
            }
        }
        changed
    }

    fn arm_write_journal(&mut self) {
        self.journal = Some(PMap::new());
    }

    fn take_write_journal(&mut self) -> Option<Self> {
        self.journal.take().map(|journal| IntervalStore {
            bindings: journal,
            journal: None,
            reads: ReadTap::default(),
        })
    }

    fn arm_read_journal(&mut self) -> ReadJournal<A> {
        self.reads.arm()
    }
}

impl<A: Address> FromIterator<(A, Interval)> for IntervalStore<A> {
    fn from_iter<T: IntoIterator<Item = (A, Interval)>>(iter: T) -> Self {
        let mut store = IntervalStore::new();
        for (a, d) in iter {
            store.bind_in_place(a, d);
        }
        store
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    type S = IntervalStore<u8>;

    #[test]
    fn bind_is_a_weak_update() {
        let s = S::new()
            .bind(1, Interval::singleton(3))
            .bind(1, Interval::singleton(7));
        assert_eq!(s.fetch(&1), Interval::range(3, 7));
        assert_eq!(s.fetch(&9), Interval::Empty);
        assert!(s.contains(&1) && !s.contains(&9));
    }

    #[test]
    fn replace_is_a_strong_update() {
        let s = S::new()
            .bind(1, Interval::range(0, 9))
            .replace(1, Interval::singleton(4));
        assert_eq!(s.fetch(&1), Interval::singleton(4));
    }

    #[test]
    fn widen_delta_widens_only_designated_addresses() {
        let mut s = S::new()
            .bind(1, Interval::range(0, 1))
            .bind(2, Interval::range(0, 1));
        let delta: S = [(1u8, Interval::range(0, 2)), (2, Interval::range(0, 2))]
            .into_iter()
            .collect();
        let widen_at = [1u8].into_iter().collect();
        let changed = s.widen_in_place_delta(delta, &widen_at, &mut 0);
        assert_eq!(changed, [1u8, 2].into_iter().collect());
        // Address 1 widened its unstable bound away; address 2 only joined.
        assert_eq!(s.fetch(&1), Interval::at_least(0));
        assert_eq!(s.fetch(&2), Interval::range(0, 2));
    }

    #[test]
    fn widen_delta_with_no_points_is_the_join_delta() {
        let base = S::new().bind(1, Interval::range(0, 1));
        let delta: S = [(1u8, Interval::range(0, 2))].into_iter().collect();

        let mut widened = base.clone();
        let w_changed = widened.widen_in_place_delta(delta.clone(), &BTreeSet::new(), &mut 0);
        let mut joined = base;
        let j_changed = joined.join_in_place_delta(delta);
        assert_eq!(widened, joined);
        assert_eq!(w_changed, j_changed);
    }

    #[test]
    fn narrowing_recovers_finite_bounds_pointwise() {
        let mut s = S::new()
            .bind(1, Interval::at_least(0))
            .bind(2, Interval::range(0, 5));
        let image: S = [(1u8, Interval::range(0, 10)), (2, Interval::range(0, 5))]
            .into_iter()
            .collect();
        assert!(s.narrow_in_place(image));
        assert_eq!(s.fetch(&1), Interval::range(0, 10));
        assert_eq!(s.fetch(&2), Interval::range(0, 5));
        assert_eq!(s.finite_bound_count(), 2);
    }

    #[test]
    fn journal_records_writes_not_diffs() {
        let mut s = S::new().bind(1, Interval::at_least(0));
        s.arm_write_journal();
        // A strong update that *reproduces* the current binding diffs as
        // unchanged but is a real producer contribution — the journal must
        // record it (the narrowing image's soundness depends on this).
        let mut s = s.replace(1, Interval::at_least(0));
        // Weak updates join into the journal entry exactly as they join
        // into the bindings.
        s.bind_in_place(2, Interval::singleton(3));
        s.bind_in_place(2, Interval::singleton(7));
        let journal = s.take_write_journal().expect("store was armed");
        assert_eq!(journal.fetch(&1), Interval::at_least(0));
        assert_eq!(journal.fetch(&2), Interval::range(3, 7));
        // Untouched addresses stay silent: silence means "no producer
        // wrote this", which narrow_in_place must not confuse with ⊥.
        assert!(!journal.contains(&3));
        // Taking disarms: a second take has nothing to report.
        assert!(s.take_write_journal().is_none());
    }

    #[test]
    fn take_without_arming_is_none() {
        let mut s = S::new().bind(1, Interval::singleton(0));
        assert!(s.take_write_journal().is_none());
    }

    #[test]
    fn journal_propagates_through_clone_and_branching() {
        let mut pre = S::new().bind(1, Interval::range(0, 9));
        pre.arm_write_journal();
        // Store-passing branches clone the armed snapshot; each branch's
        // journal accumulates independently after the split.
        let mut exit = pre.clone();
        let body = pre.replace(1, Interval::singleton(4));
        let exit_journal = exit.take_write_journal().expect("clone stays armed");
        assert!(!exit_journal.contains(&1), "pass-through wrote nothing");
        let mut body = body;
        let body_journal = body.take_write_journal().expect("branch stays armed");
        assert_eq!(body_journal.fetch(&1), Interval::singleton(4));
    }

    #[test]
    fn journal_survives_gc_restriction() {
        let mut s = S::new();
        s.arm_write_journal();
        let s = s
            .bind(1, Interval::singleton(2))
            .bind(2, Interval::singleton(5));
        // Abstract GC restricts the *bindings*; the journal keeps the
        // dropped write so it still reaches the narrowing image.
        let mut s = s.restrict_to(&[1u8].into_iter().collect());
        assert!(!s.contains(&2));
        let journal = s.take_write_journal().expect("restriction keeps the arm");
        assert_eq!(journal.fetch(&2), Interval::singleton(5));
    }

    #[test]
    fn identity_ignores_the_journal() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};

        let plain = S::new().bind(1, Interval::range(0, 3));
        let mut armed = plain.clone();
        armed.arm_write_journal();
        let armed = armed.replace(1, Interval::range(0, 3));
        // Stores live inside state-space keys: arming (and the journal
        // entries it accumulates) must be invisible to Eq/Ord/Hash.
        assert_eq!(plain, armed);
        assert_eq!(plain.cmp(&armed), std::cmp::Ordering::Equal);
        let digest = |s: &S| {
            let mut h = DefaultHasher::new();
            s.hash(&mut h);
            h.finish()
        };
        assert_eq!(digest(&plain), digest(&armed));
    }

    proptest! {
        /// The widen-delta law: the result is an upper bound of both
        /// stores, and the reported addresses are exactly those whose
        /// binding changed.
        #[test]
        fn prop_widen_delta_is_upper_bound_with_exact_delta(
            // The vendored proptest has no signed-range strategy, so lows
            // are sampled as offsets and shifted into [-5, 5).
            xs in proptest::collection::vec((0u8..6, 0u64..10, 0u64..5), 0..10),
            ys in proptest::collection::vec((0u8..6, 0u64..10, 0u64..5), 0..10),
            points in proptest::collection::btree_set(0u8..6, 0..6),
        ) {
            let mk = |entries: &[(u8, u64, u64)]| -> S {
                entries
                    .iter()
                    .map(|&(a, lo, len)| {
                        let lo = lo as i64 - 5;
                        (a, Interval::range(lo, lo + len as i64))
                    })
                    .collect()
            };
            let s1 = mk(&xs);
            let s2 = mk(&ys);
            let mut widened = s1.clone();
            let changed = widened.widen_in_place_delta(s2.clone(), &points, &mut 0);
            prop_assert!(s1.leq(&widened));
            prop_assert!(s2.leq(&widened));
            for a in 0u8..6 {
                prop_assert_eq!(
                    changed.contains(&a),
                    widened.fetch(&a) != s1.fetch(&a),
                    "address {}", a
                );
            }
        }
    }
}
