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

use std::borrow::Cow;
use std::collections::BTreeSet;
use std::fmt::Debug;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
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
/// use mai_core::env::PSet;
/// use mai_core::store::{BasicStore, StoreLike};
///
/// let store: BasicStore<u32, &'static str> = BasicStore::empty_store();
/// let store = store.bind(1, ["closure-a"].into_iter().collect());
/// let store = store.bind(1, ["closure-b"].into_iter().collect());
/// let fetched: PSet<&str> = store.fetch(&1);
/// assert_eq!(fetched.len(), 2); // weak update: both closures flow to address 1
/// ```
///
/// ## Journaled reads
///
/// [`StoreLike::fetch`], [`StoreLike::fetch_ref`], [`StoreLike::contains`],
/// [`StoreLike::fan_out`] and [`Counter::count`] are the store's **reads**:
/// on a snapshot armed with [`StoreDelta::arm_read_journal`] (and on every
/// store derived from it) each of them records the address it looked at.
/// The id-indexed engines take that journal as the step's read set, so a
/// transition may depend on the pre-store only through these methods.
/// Everything else — [`StoreLike::addresses`], [`StoreLike::binding_count`],
/// the stores' `iter()`, diffs and joins — is invisible to dependency
/// tracking: a semantics that decides successors from it is not re-stepped
/// when the store it looked at grows, and the engine returns a smaller
/// fixpoint than Kleene iteration (which
/// [`certify`](crate::engine::certify) rejects).
///
/// The same reads drive **semi-naive re-steps**
/// ([`StoreDelta::arm_re_step`]).  Each read call counts on the reading
/// store's path.  On an old path — one that so far chose and read only
/// what the previous step saw — [`StoreLike::fan_out`] tells the branches
/// that choose a new value from the ones that replay the previous step,
/// and any other read of a binding that differs from the remembered one
/// ends the semi-naive step ([`ReadJournal::diverged`]).  A strong update
/// ([`StoreLike::replace`]) marks its path fresh.  Stores that cannot
/// remember a binding keep the defaults: no baseline, full re-steps.  A
/// path is the store it threads, so a transition must read through the
/// store of the branch it is on: a copy kept from before a fan-out and
/// read after it is not on the branch's path, and a re-step may drop the
/// branch before that read happens.  The languages' `mnext` only ever
/// read the context their branch was handed.
pub trait StoreLike<A: Address>: Lattice + Ord + Debug + Send + Sync + 'static {
    /// The co-domain of the store: what an address denotes.  The
    /// power-set stores ([`BasicStore`], [`CountingStore`]) bind each
    /// address to a [`PSet`](crate::env::PSet), a persistent set on the
    /// spine's own trie, and lend or hand out that very set: a `fetch` is
    /// an `Arc` bump, and a bind of one value copies one path of it.
    ///
    /// Both the store and its co-domain are `Send + Sync`: the sharded
    /// parallel engine ([`crate::engine::parallel`]) hands each worker a
    /// snapshot of the global store and collects per-shard delta stores
    /// across the sync barrier, so stores must be shareable across threads.
    /// Every store in the tree is already structurally thread-safe (the
    /// [`PMap`](crate::pmap) spine and the [`PSet`](crate::env::PSet)
    /// values on it are `Arc`-shared).
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

    /// A fan-out read of `a`: the binding the direct carrier gives one
    /// branch per value of ([`Branches::fetch_each`]), and, on an old path
    /// of a semi-naive re-step, which of its values are new.  A journaled
    /// read.  The default lends the binding through
    /// [`StoreLike::fetch_ref`] (falling back to [`StoreLike::fetch`] —
    /// `None` there does not mean "unbound" for every store) and knows no
    /// baseline.
    ///
    /// [`Branches::fetch_each`]: crate::monad::Branches::fetch_each
    fn fan_out(&self, a: &A) -> FanOut<'_, Self::D> {
        let binding = match self.fetch_ref(a) {
            Some(d) => Cow::Borrowed(d),
            None => Cow::Owned(self.fetch(a)),
        };
        FanOut { binding, old: None }
    }

    /// Marks this branch store's path fresh: it chose something the
    /// previous step did not see.  A no-op for stores without a baseline.
    fn mark_fresh(&mut self) {}
}

/// What a fan-out read of one address sees ([`StoreLike::fan_out`]): the
/// binding to branch on and, on an old path of a semi-naive re-step, which
/// of its values are new.
pub struct FanOut<'s, D: Clone> {
    /// The binding at the address, borrowed when the store can lend it.
    pub binding: Cow<'s, D>,
    /// `Some` on an old path of a semi-naive re-step, `None` on a full
    /// step and on a fresh path (where every branch inherits the path's
    /// mark).
    pub old: Option<OldPath<D>>,
}

/// A fan-out read on an old path: a branch that chooses a value outside
/// `new` stays old, one that chooses a value in `new` is fresh.
pub struct OldPath<D> {
    /// The values of the binding that the previous step did not see
    /// (`None`: there are none).  Computed once per address and step.
    pub new: Option<D>,
    /// This read reaches the previous step's longest path.  An old path
    /// replays a path of the previous step, so a branch that chooses an
    /// old value here can read nothing more and never become fresh: the
    /// fan-out drops it.
    pub last: bool,
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
    /// On a semi-naive re-step, the previous step's longest path in read
    /// calls; unused on a full step.
    prior_longest: u32,
    /// The most read calls any one path of this step has made so far.
    longest: AtomicU32,
    /// Set when a plain read on an old path saw a changed binding.
    diverged: AtomicBool,
    /// Set when a fan-out dropped an old branch.
    pruned: AtomicBool,
}

type SharedReads<A> = Arc<Journal<A>>;

/// The bit of a path mark that says the path chose or read something new;
/// the bits below it count the path's read calls.
const FRESH: u32 = 1 << 31;

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
/// [`ReadTap::arm_re_step`] arms a semi-naive re-step instead: the tap
/// also holds `B`, the store's memory of what the previous step saw, and
/// each store carries its own **path mark** — the read calls its path has
/// made and whether it chose or read something new.  A clone copies the
/// mark, so each branch of a fan-out continues its parent's path.
///
/// The tap is operational metadata, not part of the store's value: every
/// tap compares equal, orders equal and hashes to nothing, so a store type
/// can keep its derived `Eq`, `Ord` and `Hash` with a tap field in it.
pub struct ReadTap<A, B = ()> {
    journal: Option<SharedReads<A>>,
    /// What the previous step saw, on a semi-naive re-step.
    baseline: Option<Arc<B>>,
    /// This path's read calls, plus the [`FRESH`] bit.
    path: AtomicU32,
}

/// A journaled read on an old path of a semi-naive re-step
/// ([`ReadTap::record`]).
pub struct OldRead<'t, B> {
    /// What the previous step saw.
    pub baseline: &'t B,
    /// This read reaches the previous step's longest path (see
    /// [`OldPath::last`]).
    pub last: bool,
}

impl<A: Clone + PartialEq, B> ReadTap<A, B> {
    /// Connects this tap to a fresh, open journal and returns the
    /// engine's handle on it (replacing any earlier connection): a full
    /// step, with no baseline.
    pub fn arm(&mut self) -> ReadJournal<A> {
        self.connect(None, 0)
    }

    /// Like [`ReadTap::arm`], for a semi-naive re-step against
    /// `baseline`, whose step's longest path made `prior_longest` read
    /// calls.  The armed store starts an old path.
    pub fn arm_re_step(&mut self, baseline: B, prior_longest: u32) -> ReadJournal<A> {
        self.connect(Some(Arc::new(baseline)), prior_longest)
    }

    fn connect(&mut self, baseline: Option<Arc<B>>, prior_longest: u32) -> ReadJournal<A> {
        let journal: SharedReads<A> = Arc::new(Journal {
            reads: Mutex::new(Some(Vec::new())),
            open: AtomicBool::new(true),
            prior_longest,
            longest: AtomicU32::new(0),
            diverged: AtomicBool::new(false),
            pruned: AtomicBool::new(false),
        });
        self.journal = Some(Arc::clone(&journal));
        self.baseline = baseline;
        self.path = AtomicU32::new(0);
        ReadJournal(journal)
    }

    /// Records a read of `a`, if the tap is connected to an open journal,
    /// and counts it on this store's path.  A read of the address recorded
    /// last is not recorded again: a fetch repeated on every branch of a
    /// fan-out stays one entry.  Returns the baseline when the read is on
    /// an old path of a semi-naive re-step.
    #[inline]
    pub fn record(&self, a: &A) -> Option<OldRead<'_, B>> {
        let journal = self.journal.as_ref()?;
        if !journal.open.load(Ordering::Relaxed) {
            return None;
        }
        let mark = self.path.fetch_add(1, Ordering::Relaxed) + 1;
        let calls = mark & !FRESH;
        journal.longest.fetch_max(calls, Ordering::Relaxed);
        // A push either happens or not, so a poisoned journal is still a
        // valid record of the reads before the panic.
        let mut reads = journal.reads.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(log) = reads.as_mut() {
            if log.last() != Some(a) {
                log.push(a.clone());
            }
        }
        drop(reads);
        let baseline = self.baseline.as_deref()?;
        (mark & FRESH == 0).then_some(OldRead {
            baseline,
            last: calls >= journal.prior_longest,
        })
    }

    /// A plain read on an old path saw a binding that differs from the
    /// remembered one: the path is fresh, and the step is no longer
    /// semi-naive (see [`ReadJournal::diverged`]).
    pub fn diverge(&self) {
        self.mark_fresh();
        if let Some(journal) = &self.journal {
            journal.diverged.store(true, Ordering::Relaxed);
        }
    }

    /// A fan-out on an old path dropped the branches that chose an old
    /// value (see [`ReadJournal::pruned`]).
    pub fn prune(&self) {
        if let Some(journal) = &self.journal {
            journal.pruned.store(true, Ordering::Relaxed);
        }
    }

    /// Marks this store's path fresh.
    pub fn mark_fresh(&self) {
        self.path.fetch_or(FRESH, Ordering::Relaxed);
    }

    /// Whether this store ends an old path of a semi-naive re-step.
    pub fn is_old(&self) -> bool {
        self.baseline.is_some() && self.path.load(Ordering::Relaxed) & FRESH == 0
    }
}

impl<A, B> Clone for ReadTap<A, B> {
    fn clone(&self) -> Self {
        ReadTap {
            journal: self.journal.clone(),
            baseline: self.baseline.clone(),
            path: AtomicU32::new(self.path.load(Ordering::Relaxed)),
        }
    }
}

impl<A, B> Default for ReadTap<A, B> {
    fn default() -> Self {
        ReadTap {
            journal: None,
            baseline: None,
            path: AtomicU32::new(0),
        }
    }
}

impl<A, B> PartialEq for ReadTap<A, B> {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

impl<A, B> Eq for ReadTap<A, B> {}

impl<A, B> PartialOrd for ReadTap<A, B> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl<A, B> Ord for ReadTap<A, B> {
    fn cmp(&self, _: &Self) -> std::cmp::Ordering {
        std::cmp::Ordering::Equal
    }
}

impl<A, B> Hash for ReadTap<A, B> {
    fn hash<H: Hasher>(&self, _: &mut H) {}
}

/// The engine's handle on a read journal armed by
/// [`StoreDelta::arm_read_journal`] or [`StoreDelta::arm_re_step`].
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

    /// The most journaled read calls any one path of the step made,
    /// repeated reads of one address included.
    pub fn longest_path(&self) -> u32 {
        self.0.longest.load(Ordering::Relaxed)
    }

    /// Whether a plain read (anything but a fan-out) on an old path saw a
    /// changed binding.  The path's continuation then ran on an input the
    /// previous step never gave it, so the step is not semi-naive.
    pub fn diverged(&self) -> bool {
        self.0.diverged.load(Ordering::Relaxed)
    }

    /// Whether a fan-out dropped an old branch.  A step that pruned
    /// nothing enumerated every branch, as a full step does.
    pub fn pruned(&self) -> bool {
        self.0.pruned.load(Ordering::Relaxed)
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
    /// Folding a step's result store into the running global store this
    /// way yields the delta for dependency invalidation directly, with no
    /// snapshot clone and no after-the-fact
    /// [`StoreDelta::changed_addresses`] diff.  The returned set is exactly
    /// `joined.changed_addresses(old_self)` restricted to growth (a join
    /// can only grow), and the flag-free join law holds: the set is empty
    /// iff `other ⊑ old_self`.  Provided: a
    /// [`StoreDelta::widen_in_place_delta`] with no widening point.
    fn join_in_place_delta(&mut self, other: Self) -> BTreeSet<A> {
        self.widen_in_place_delta(other, &BTreeSet::new(), &mut 0)
    }

    /// The engines' accumulation primitive: like
    /// [`StoreDelta::join_in_place_delta`], but accumulating with the
    /// co-domain's *widening* at the addresses in `widen_at` (plain join
    /// everywhere else), and adding to `adopted_bytes` the nominal bytes of
    /// the spine nodes of `other` that `self` now holds by reference.
    ///
    /// `widen_at` is the engines' widening point: when a store's co-domain
    /// has infinite height (e.g. [`Interval`](crate::lattice::Interval)),
    /// an address that keeps growing round after round is designated a
    /// widening point and its accumulation switches from `⊔` to `▽`, so
    /// the per-address chain — and with it the fixpoint iteration —
    /// stabilises.  For finite-height co-domains (power-sets, counted
    /// power-sets) the join *is* a terminating widening, so their stores
    /// ignore `widen_at`.
    ///
    /// `adopted_bytes` is the persistent spine's report
    /// ([`PMap::join_in_place_delta`](crate::pmap::PMap::join_in_place_delta)):
    /// a delta subtree whose keys `self` lacked is hung in by reference,
    /// not copied.  The engines sum it over a round's folds; its peak over
    /// rounds is
    /// [`EngineStats::store_bytes_shared`](crate::engine::EngineStats::store_bytes_shared).
    /// A store without a persistent spine adopts nothing and leaves it
    /// alone.
    fn widen_in_place_delta(
        &mut self,
        other: Self,
        widen_at: &BTreeSet<A>,
        adopted_bytes: &mut usize,
    ) -> BTreeSet<A>;

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

    /// This store restricted to `reads` (sorted), as the baseline of a
    /// later semi-naive re-step of the step that read them: what each read
    /// saw, with every value set shared, not copied.  `None` (the default)
    /// for a store that cannot remember a binding; the engine then
    /// re-steps in full.
    fn remember(&self, reads: &[A]) -> Option<Self>
    where
        Self: Sized,
    {
        let _ = reads;
        None
    }

    /// Arms a **semi-naive re-step** on this snapshot: journals reads like
    /// [`StoreDelta::arm_read_journal`], and also marks every path *old*
    /// until it chooses or reads something `remembered` — what
    /// [`StoreDelta::remember`] returned for the previous step — does not
    /// hold.  `longest_path` is the most read calls any path of the
    /// previous step made ([`ReadJournal::longest_path`]).  An old branch
    /// replays a branch of the previous step; the engine drops it
    /// ([`StoreDelta::is_old_branch`]).  The default arms a full step.
    fn arm_re_step(&mut self, remembered: &Self, longest_path: u32) -> ReadJournal<A>
    where
        Self: Sized,
    {
        let _ = (remembered, longest_path);
        self.arm_read_journal()
    }

    /// Whether this branch store ends an old path of a semi-naive
    /// re-step.  The default: never.
    fn is_old_branch(&self) -> bool {
        false
    }

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
