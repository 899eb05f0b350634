//! Abstract stores (paper §6.2) and abstract counting (§6.3).
//!
//! The store is the one component the systematic abstraction threads through
//! everything: cutting the recursion in the state-space, carrying abstract
//! values, and — depending on its representation — enabling abstract
//! counting, strong updates and garbage collection.  The paper makes the
//! analysis *store-generic* through the `StoreLike` class; this module
//! provides that trait plus the two store representations used in the
//! paper's experiments:
//!
//! * [`BasicStore`] — a point-wise map from addresses to sets of values;
//! * [`CountingStore`] — the same map additionally tracking an [`AbsNat`](crate::lattice::AbsNat)
//!   allocation count per address (the `Ĉount` component of §6.3), with
//!   [`Counter`] exposing the counts and sound strong updates.

mod basic;
mod counting;
mod interval;

pub use basic::BasicStore;
pub use counting::{Counter, CountingStore};
pub use interval::IntervalStore;

use std::collections::BTreeSet;
use std::fmt::Debug;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

use crate::addr::Address;
use crate::lattice::Lattice;

/// The paper's `StoreLike a s d` class: an abstract store `s` mapping
/// addresses `a` to elements of a co-domain lattice `d`.
///
/// The co-domain is an associated type (the functional dependency `s → d`
/// of the Haskell original).  All operations are value-oriented — they
/// consume and return stores — because stores live inside analysis domains
/// that are themselves immutable lattice elements.
///
/// ```rust
/// use mai_core::store::{BasicStore, StoreLike};
/// use std::collections::BTreeSet;
///
/// let store: BasicStore<u32, &'static str> = BasicStore::empty_store();
/// let store = store.bind(1, ["closure-a"].into_iter().collect());
/// let store = store.bind(1, ["closure-b"].into_iter().collect());
/// let fetched: BTreeSet<&str> = store.fetch(&1);
/// assert_eq!(fetched.len(), 2); // weak update: both closures flow to address 1
/// ```
///
/// ## Journaled reads
///
/// [`StoreLike::fetch`], [`StoreLike::fetch_ref`], [`StoreLike::contains`]
/// and [`Counter::count`] are the store's **reads**: on a snapshot armed
/// with [`StoreDelta::arm_read_journal`] (and on every store derived from
/// it) each of them records the address it looked at.  The id-indexed
/// engines take that journal as the step's read set, so a transition may
/// depend on the pre-store only through these methods.  Everything else —
/// [`StoreLike::addresses`], [`StoreLike::binding_count`], the stores'
/// `iter()`, diffs and joins — is invisible to dependency tracking: a
/// semantics that decides successors from it is not re-stepped when the
/// store it looked at grows, and the engine returns a smaller fixpoint
/// than Kleene iteration (which
/// [`certify`](crate::engine::certify) rejects).
pub trait StoreLike<A: Address>: Lattice + Ord + Debug + Send + Sync + 'static {
    /// The co-domain of the store: what an address denotes.
    ///
    /// Both the store and its co-domain are `Send + Sync`: the sharded
    /// parallel engine ([`crate::engine::parallel`]) hands each worker a
    /// snapshot of the global store and collects per-shard delta stores
    /// across the sync barrier, so stores must be shareable across threads.
    /// Every store in the tree is already structurally thread-safe (the
    /// [`PMap`](crate::pmap) spine and [`CowSet`](crate::env::CowSet)
    /// values are `Arc`-shared).
    type D: Lattice + Ord + Clone + Debug + Send + Sync + 'static;

    /// The empty store `σ₀`.
    fn empty_store() -> Self {
        Self::bottom()
    }

    /// Weak update: joins `d` into the binding of `a`
    /// (the paper's `bind σ a d`).
    #[must_use]
    fn bind(mut self, a: A, d: Self::D) -> Self {
        self.bind_in_place(a, d);
        self
    }

    /// In-place weak update: joins `d` into the binding of `a` without
    /// consuming the store, reporting whether the store *observably* changed
    /// (same standard as [`StoreDelta`]: any per-address data counts, e.g. a
    /// [`CountingStore`] allocation-count bump with an unchanged value set
    /// still reports `true`).
    fn bind_in_place(&mut self, a: A, d: Self::D) -> bool;

    /// Strong update: replaces the binding of `a` with `d`
    /// (the paper's `replace σ a d`).
    ///
    /// Strong updates are only *sound* when the caller knows the abstract
    /// address stands for at most one concrete address — which is exactly
    /// the information a [`CountingStore`] provides.
    #[must_use]
    fn replace(self, a: A, d: Self::D) -> Self;

    /// Looks up the binding of `a`, returning the co-domain `⊥` for unbound
    /// addresses (the paper's `fetch σ a`).
    fn fetch(&self, a: &A) -> Self::D;

    /// Borrows the binding of `a` without materialising it, when the store
    /// representation can (`None` both for unbound addresses and for stores
    /// that cannot lend their bindings — callers fall back to
    /// [`StoreLike::fetch`]).  The garbage collector's reachability sweep
    /// visits every live address once per transition, so skipping the
    /// per-address co-domain clone matters.
    fn fetch_ref(&self, _a: &A) -> Option<&Self::D> {
        None
    }

    /// Restricts the store to the addresses satisfying `keep`
    /// (the paper's `filterStore`, used by abstract garbage collection).
    #[must_use]
    fn filter_store<F>(self, keep: F) -> Self
    where
        F: Fn(&A) -> bool;

    /// The store restricted to exactly the given addresses — semantically
    /// `filter_store(|a| addrs.contains(a))`, but representations with a
    /// persistent spine extract the k requested bindings by descent
    /// (O(k · log n)) instead of walking the whole spine.  The engines use
    /// this to cache a step's contribution restricted to its changed
    /// addresses.
    #[must_use]
    fn restrict_to(self, addrs: &BTreeSet<A>) -> Self {
        self.filter_store(|a| addrs.contains(a))
    }

    /// The set of addresses currently bound.  Used by the garbage
    /// collector's reachability sweep and by precision metrics.
    fn addresses(&self) -> BTreeSet<A>;

    /// Whether the address is currently bound to something other than `⊥`.
    fn contains(&self, a: &A) -> bool {
        !self.fetch(a).is_bottom()
    }

    /// The number of bound addresses.
    fn binding_count(&self) -> usize {
        self.addresses().len()
    }

    /// Approximate bytes of store structure this snapshot shares with
    /// *other live snapshots* (`Arc`-shared spine nodes with a reference
    /// count above one).  Stores without a persistent spine report 0.  The
    /// fixpoint engines sample this at the end of a run
    /// ([`EngineStats::store_bytes_shared`](crate::engine::EngineStats)) so
    /// that structural-sharing regressions are as observable as step/join
    /// regressions.
    fn shared_spine_bytes(&self) -> usize {
        0
    }
}

/// Materialises the elements bound at `a` through a projection, borrowing
/// the binding when the store can lend it and falling back to
/// [`StoreLike::fetch`] otherwise — `fetch_ref`'s `None` does **not** mean
/// "unbound" for an arbitrary store, it may also mean "cannot lend", so
/// every caller of `fetch_ref` needs this exact fallback.  Shared here so
/// the languages' direct-style transition functions cannot drift from the
/// lending contract.
pub fn fetch_filtered<A, S, X, T, P>(store: &S, a: &A, project: P) -> Vec<T>
where
    A: Address,
    S: StoreLike<A, D = BTreeSet<X>>,
    X: Ord + Clone + Debug + 'static,
    P: Fn(&X) -> Option<&T>,
    T: Clone,
{
    match store.fetch_ref(a) {
        Some(set) => set.iter().filter_map(|x| project(x).cloned()).collect(),
        None => store
            .fetch(a)
            .iter()
            .filter_map(|x| project(x).cloned())
            .collect(),
    }
}

/// One armed step's read journal, shared by every store connected to it.
struct Journal<A> {
    /// The addresses read so far; `None` once the journal is closed.
    reads: Mutex<Option<Vec<A>>>,
    /// Cleared when the journal closes and checked before locking, so a
    /// read on a store whose journal was taken costs one load, not a lock.
    /// It guards no data (`reads` is closed under the lock), so `Relaxed`
    /// suffices.
    open: AtomicBool,
}

type SharedReads<A> = Arc<Journal<A>>;

/// A store's connection to a read journal: the field through which a
/// journaling store records its [journaled reads](StoreLike#journaled-reads).
///
/// Unarmed (the default) it records nothing.  [`ReadTap::arm`] connects it
/// to a fresh journal; cloning the store clones the connection, so every
/// store derived from an armed snapshot — each branch of a step, each
/// GC-filtered result — records into the **same** journal.  That sharing is
/// what makes a read count even when it produced no branch: a fetch that
/// comes back empty leaves no successor and no branch store to carry a
/// private journal, but the read still depends on the address.
///
/// The tap is operational metadata, not part of the store's value: every
/// tap compares equal, orders equal and hashes to nothing, so a store type
/// can keep its derived `Eq`, `Ord` and `Hash` with a tap field in it.
pub struct ReadTap<A>(Option<SharedReads<A>>);

impl<A: Clone + PartialEq> ReadTap<A> {
    /// Connects this tap to a fresh, open journal and returns the
    /// engine's handle on it (replacing any earlier connection).
    pub fn arm(&mut self) -> ReadJournal<A> {
        let journal: SharedReads<A> = Arc::new(Journal {
            reads: Mutex::new(Some(Vec::new())),
            open: AtomicBool::new(true),
        });
        self.0 = Some(Arc::clone(&journal));
        ReadJournal(journal)
    }

    /// Records a read of `a`, if the tap is connected to an open journal.
    /// A read of the address recorded last is not recorded again: a fetch
    /// repeated on every branch of a fan-out stays one entry.
    #[inline]
    pub fn record(&self, a: &A) {
        let Some(journal) = &self.0 else { return };
        if !journal.open.load(Ordering::Relaxed) {
            return;
        }
        // A push either happens or not, so a poisoned journal is still a
        // valid record of the reads before the panic.
        let mut reads = journal.reads.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(log) = reads.as_mut() {
            if log.last() != Some(a) {
                log.push(a.clone());
            }
        }
    }
}

impl<A> Clone for ReadTap<A> {
    fn clone(&self) -> Self {
        ReadTap(self.0.clone())
    }
}

impl<A> Default for ReadTap<A> {
    fn default() -> Self {
        ReadTap(None)
    }
}

impl<A> PartialEq for ReadTap<A> {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

impl<A> Eq for ReadTap<A> {}

impl<A> PartialOrd for ReadTap<A> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl<A> Ord for ReadTap<A> {
    fn cmp(&self, _: &Self) -> std::cmp::Ordering {
        std::cmp::Ordering::Equal
    }
}

impl<A> Hash for ReadTap<A> {
    fn hash<H: Hasher>(&self, _: &mut H) {}
}

/// The engine's handle on a read journal armed by
/// [`StoreDelta::arm_read_journal`].
#[must_use = "an armed journal records until it is taken"]
pub struct ReadJournal<A>(SharedReads<A>);

impl<A> ReadJournal<A> {
    /// The addresses read since arming, in read order (an address may
    /// repeat, though not twice in a row), and closes the journal: stores
    /// still connected to it record nothing more (a later `take` returns
    /// nothing), so the engine's own probes after the step do not count,
    /// and the record is freed here rather than when the last branch
    /// store drops.
    pub fn take(&self) -> Vec<A> {
        self.0.open.store(false, Ordering::Relaxed);
        self.0
            .reads
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take()
            .unwrap_or_default()
    }
}

/// Stores that can report *which addresses* differ between two snapshots —
/// the primitive the worklist engine's dependency invalidation
/// ([`crate::engine`]) is built on.
///
/// The contract is: `self` and `other` are observationally identical at
/// every address **not** in the returned set.  "Observationally" includes
/// any auxiliary per-address data the store carries (e.g. the abstract
/// counts of a [`CountingStore`]), not just the [`StoreLike::fetch`] value
/// set — a cached transition may be replayed only if *nothing* it could
/// have read at the address changed.  The diff is symmetric: an address
/// bound on either side but not the other (or bound to different contents)
/// is reported.
pub trait StoreDelta<A: Address>: StoreLike<A> {
    /// The addresses whose binding differs between `self` and `other`.
    fn changed_addresses(&self, other: &Self) -> BTreeSet<A>;

    /// In-place join that reports *which addresses grew*: grows `self` to
    /// `self ⊔ other` and returns every address whose binding observably
    /// changed (value set or auxiliary data such as counts).
    ///
    /// This is the incremental engine's accumulation primitive: folding a
    /// step's result store into the running global store yields the delta
    /// for dependency invalidation directly, with no snapshot clone and no
    /// after-the-fact [`StoreDelta::changed_addresses`] diff.  The returned
    /// set is exactly `joined.changed_addresses(old_self)` restricted to
    /// growth (a join can only grow), and the flag-free join law holds:
    /// the set is empty iff `other ⊑ old_self`.
    fn join_in_place_delta(&mut self, other: Self) -> BTreeSet<A>;

    /// Like [`StoreDelta::join_in_place_delta`], but accumulating with the
    /// co-domain's *widening* at the addresses in `widen_at` (plain join
    /// everywhere else).  This is the engines' widening point: when a
    /// store's co-domain has infinite height (e.g.
    /// [`Interval`](crate::lattice::Interval)), an address that keeps
    /// growing round after round is designated a widening point and its
    /// accumulation switches from `⊔` to `▽`, so the per-address chain —
    /// and with it the fixpoint iteration — stabilises.
    ///
    /// The default ignores `widen_at` and joins: for finite-height
    /// co-domains (power-sets, counted power-sets) the join *is* a
    /// terminating widening, and the engines' behaviour is unchanged.
    /// Stores over infinite-height co-domains
    /// ([`IntervalStore`]) override it.
    fn widen_in_place_delta(&mut self, other: Self, widen_at: &BTreeSet<A>) -> BTreeSet<A> {
        let _ = widen_at;
        self.join_in_place_delta(other)
    }

    /// Arms read journaling on this snapshot: from now on every
    /// [journaled read](StoreLike#journaled-reads) on this store **or on
    /// any store derived from it** (by `clone`, branch threading, GC
    /// filtering) records its address in one shared journal, until
    /// [`ReadJournal::take`] closes it.
    ///
    /// The id-indexed engines arm a clone of the pre-store before each
    /// step and take the journal as the step's read set — exactly the
    /// addresses the transition looked at, where the [`StateRoots`]
    /// closure over the store is every address it *could* look at.
    /// There is no default: a store that did not journal would silently
    /// lose every dependency of every step.
    ///
    /// [`StateRoots`]: crate::engine::StateRoots
    fn arm_read_journal(&mut self) -> ReadJournal<A>;

    /// Arms write journaling on this store snapshot: from now on, every
    /// semantic write ([`StoreLike::bind_in_place`] / [`StoreLike::bind`]
    /// and [`StoreLike::replace`]) performed on this snapshot **or on any
    /// store derived from it** (by `clone`, branch threading, GC
    /// filtering) is recorded in a journal the derived store carries.
    ///
    /// The engines' narrowing post-pass arms the pre-store it hands to a
    /// re-stepped state so that each result branch reports exactly what
    /// that branch *wrote* — a store's value being unchanged after a step
    /// cannot distinguish "the branch did not write the address" from
    /// "the branch wrote exactly the current value", and the narrowing
    /// image must include the latter (see
    /// [`StoreDelta::take_write_journal`]).
    ///
    /// The default is a no-op: stores without journaling stay valid, and
    /// the narrowing pass falls back to a coarser (but still sound)
    /// image for them.  Accumulation folds
    /// ([`StoreDelta::join_in_place_delta`] /
    /// [`StoreDelta::widen_in_place_delta`]) are *not* writes and are
    /// never journaled.
    fn arm_write_journal(&mut self) {}

    /// Takes this snapshot's write journal, as a store binding **exactly
    /// the addresses written** since [`StoreDelta::arm_write_journal`],
    /// each to the written co-domain values (weak updates join into the
    /// journal entry; strong updates replace it, mirroring the writes
    /// themselves).  Returns `None` when the store does not journal (or
    /// was never armed); the journal is cleared by the take.
    ///
    /// This is the soundness primitive of the narrowing post-pass: the
    /// decreasing image at an address must be an upper bound of **every**
    /// producer's written contribution there, including a producer whose
    /// write reproduced the current binding exactly.  The journal reports
    /// such a write verbatim, where a value-level diff against the
    /// accumulator would silently drop it.
    fn take_write_journal(&mut self) -> Option<Self>
    where
        Self: Sized,
    {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_store_is_bottom_and_has_no_bindings() {
        let s: BasicStore<u8, u8> = BasicStore::empty_store();
        assert!(s.is_bottom());
        assert_eq!(s.binding_count(), 0);
        assert!(!s.contains(&3));
    }

    #[test]
    fn contains_reflects_bindings() {
        let s: BasicStore<u8, u8> = BasicStore::empty_store().bind(4, [9u8].into_iter().collect());
        assert!(s.contains(&4));
        assert!(!s.contains(&5));
        assert_eq!(s.binding_count(), 1);
    }
}
