//! Hash-consed interning: dense integer ids for structurally-equal values.
//!
//! The polyvariant machines treat abstract states as first-class map keys,
//! so every `BTreeMap<(Ps, G), …>` lookup in the fixpoint engines used to
//! pay a deep structural `Ord` walk over the whole state — environment,
//! continuation, context — and every frontier round deep-cloned states
//! wholesale.  *Abstracting Definitional Interpreters* leans on sharing of
//! configurations for exactly this reason: once each distinct state is
//! mapped to a dense id, clone and equality become O(1) and every engine
//! table (step cache, reverse dependency index, seen-set, frontier) becomes
//! a flat `Vec` indexed by the id.
//!
//! [`Interner<T, I>`] is that map: a per-run hash-consing table from values
//! to dense ids, keyed by precomputed [Fx hashes](crate::hash) so a value is
//! deeply hashed exactly once (on intern) and deeply compared only against
//! the rare same-hash candidates.  [`StateId`] and [`EnvId`] are the two id
//! currencies of the framework — machine states (paired with their guts)
//! and environments — kept as distinct newtypes so they cannot be mixed up.
//!
//! Interning is *per run*: an id is meaningful only relative to the
//! interner that produced it, and the engines un-intern (resolve) back to
//! structural values only at the language boundary.
//!
//! Two interners are provided.  [`Interner`] is the single-threaded table
//! the sequential engines use.  [`ShardedInterner`] is its thread-safe
//! counterpart for the sharded parallel engine
//! ([`crate::engine::parallel`]): the table is split into
//! [`STRIPES`] lock stripes selected by the value's precomputed Fx hash,
//! so workers interning unrelated states almost never contend, and the
//! hit/miss accounting lives in atomics.  Ids are minted *per stripe*
//! (`id = local_index · STRIPES + stripe`), which keeps allocation
//! lock-free across stripes while still yielding a dense-enough id space
//! for flat `Vec` engine tables — and, crucially, makes the *set* of ids
//! minted for a given set of distinct values deterministic (each value's
//! stripe is a pure function of its hash), even though the id⇄value
//! assignment within a stripe depends on thread interleaving.

use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

use crate::hash::{fx_hash_of, FxHashMap};

/// A dense integer id handed out by an [`Interner`].
///
/// Implementations are trivial `u32` newtypes; the trait exists so the
/// interner (and the engines built on it) can be generic over the id
/// currency while keeping [`StateId`] and [`EnvId`] unmixable.
pub trait InternKey: Copy + Eq + Ord + std::hash::Hash + fmt::Debug + 'static {
    /// Wraps a dense index as an id.
    fn from_index(index: usize) -> Self;

    /// The dense index of this id (always `< interner.len()`).
    fn index(self) -> usize;
}

macro_rules! intern_key {
    ($(#[$doc:meta])* $name:ident, $prefix:literal) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub struct $name(u32);

        impl InternKey for $name {
            #[inline]
            fn from_index(index: usize) -> Self {
                debug_assert!(index <= u32::MAX as usize);
                $name(index as u32)
            }

            #[inline]
            fn index(self) -> usize {
                self.0 as usize
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }
    };
}

intern_key! {
    /// The id of an interned `(state, guts)` pair — the engines' currency.
    StateId, "σ"
}

intern_key! {
    /// The id of an interned environment.
    EnvId, "ρ"
}

/// A per-run hash-consing table: every distinct value is assigned a dense
/// id on first sight and the same id forever after.
///
/// The table stores each value exactly once (in insertion order) and keys
/// the lookup by the value's precomputed [Fx hash](crate::hash::fx_hash_of),
/// so interning an already-seen value costs one hash walk plus (usually) one
/// deep equality check, and everything downstream can work with O(1)
/// id copies and comparisons instead.
///
/// ```rust
/// use mai_core::intern::{Interner, StateId};
///
/// let mut interner: Interner<String, StateId> = Interner::new();
/// let a = interner.intern("state".to_string());
/// let b = interner.intern("state".to_string());
/// let c = interner.intern("other".to_string());
/// assert_eq!(a, b);           // ids agree with structural equality
/// assert_ne!(a, c);
/// assert_eq!(interner.resolve(a), "state");
/// assert_eq!(interner.len(), 2);
/// assert_eq!((interner.hits(), interner.misses()), (1, 2));
/// ```
#[derive(Debug, Clone)]
pub struct Interner<T, I: InternKey = StateId> {
    /// Precomputed hash → candidate ids (almost always a single candidate).
    buckets: FxHashMap<u64, Vec<I>>,
    /// The interned values, indexed by id (insertion order).
    values: Vec<T>,
    hits: usize,
}

impl<T, I: InternKey> Default for Interner<T, I> {
    fn default() -> Self {
        Interner {
            buckets: FxHashMap::default(),
            values: Vec::new(),
            hits: 0,
        }
    }
}

impl<T: std::hash::Hash + Eq, I: InternKey> Interner<T, I> {
    /// Creates an empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns a value, returning its dense id: the existing id if a
    /// structurally-equal value was interned before, a fresh one otherwise.
    pub fn intern(&mut self, value: T) -> I {
        let hash = fx_hash_of(&value);
        let candidates = self.buckets.entry(hash).or_default();
        for &id in candidates.iter() {
            if self.values[id.index()] == value {
                self.hits += 1;
                return id;
            }
        }
        let id = I::from_index(self.values.len());
        candidates.push(id);
        self.values.push(value);
        id
    }

    /// The id of an already-interned value, if any (no stats, no insert).
    pub fn get(&self, value: &T) -> Option<I> {
        let candidates = self.buckets.get(&fx_hash_of(value))?;
        candidates
            .iter()
            .copied()
            .find(|id| &self.values[id.index()] == value)
    }

    /// Un-interns an id back to the value it stands for.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not produced by this interner.
    pub fn resolve(&self, id: I) -> &T {
        &self.values[id.index()]
    }

    /// How many distinct values have been interned.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether nothing has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The interned values in id (insertion) order; `values()[id.index()]`
    /// is `resolve(id)`.
    pub fn values(&self) -> &[T] {
        &self.values
    }

    /// Consumes the interner, returning the values in id order.
    pub(crate) fn into_values(self) -> Vec<T> {
        self.values
    }

    /// How many [`Interner::intern`] calls found an existing id.
    pub fn hits(&self) -> usize {
        self.hits
    }

    /// How many [`Interner::intern`] calls allocated a fresh id — by
    /// construction, one per distinct value, so this is [`Interner::len`].
    pub fn misses(&self) -> usize {
        self.values.len()
    }
}

/// How many lock stripes a [`ShardedInterner`] uses (a power of two, so
/// stripe selection is a mask).  16 stripes keep contention negligible at
/// the 4–8 worker threads the parallel engine targets while bounding the
/// id-space slack of per-stripe minting.
pub const STRIPES: usize = 16;

/// One lock stripe of a [`ShardedInterner`]: a miniature [`Interner`] over
/// the values whose hash lands on this stripe, minting *local* indices.
struct Stripe<T, I> {
    /// Precomputed hash → candidate ids (almost always a single candidate).
    buckets: FxHashMap<u64, Vec<I>>,
    /// The interned values, indexed by **local** index (insertion order
    /// within this stripe).
    values: Vec<T>,
}

impl<T, I> Default for Stripe<T, I> {
    fn default() -> Self {
        Stripe {
            buckets: FxHashMap::default(),
            values: Vec::new(),
        }
    }
}

/// The thread-safe, lock-striped hash-consing table of the parallel engine.
///
/// Functionally equivalent to [`Interner`] — every distinct value gets one
/// id, ids agree with structural equality — but safely shareable across
/// worker threads: interning takes one stripe mutex (selected by the
/// value's Fx hash, so distinct states spread across [`STRIPES`] locks) and
/// the hit/miss counters are relaxed atomics.
///
/// The id encoding is `local_index * STRIPES + stripe`: dense within each
/// stripe, globally unique, and bounded by [`ShardedInterner::id_bound`]
/// (at most `STRIPES - 1` unused slots per occupied local level), so flat
/// `Vec` engine tables indexed by [`InternKey::index`] stay practical.
///
/// ```rust
/// use mai_core::intern::{ShardedInterner, StateId};
///
/// let interner: ShardedInterner<String, StateId> = ShardedInterner::new();
/// let a = interner.intern("state".to_string());
/// let b = interner.intern("state".to_string());
/// let c = interner.intern("other".to_string());
/// assert_eq!(a, b);           // ids agree with structural equality
/// assert_ne!(a, c);
/// assert_eq!(interner.resolve_cloned(a), "state");
/// assert_eq!(interner.len(), 2);
/// assert_eq!((interner.hits(), interner.misses()), (1, 2));
/// ```
pub struct ShardedInterner<T, I: InternKey = StateId> {
    stripes: Vec<Mutex<Stripe<T, I>>>,
    hits: AtomicUsize,
    misses: AtomicUsize,
    /// How many *hot-path* stripe locks ([`ShardedInterner::intern`] /
    /// [`ShardedInterner::resolve_cloned`]) have been taken — the
    /// contention gauge a per-worker memo is meant to drive down.
    /// Coordinator-side bulk scans (`watermarks`, `fresh_since`, …) run
    /// once per round and are deliberately not counted.
    acquisitions: AtomicUsize,
}

impl<T, I: InternKey> Default for ShardedInterner<T, I> {
    fn default() -> Self {
        ShardedInterner {
            stripes: (0..STRIPES)
                .map(|_| Mutex::new(Stripe::default()))
                .collect(),
            hits: AtomicUsize::new(0),
            misses: AtomicUsize::new(0),
            acquisitions: AtomicUsize::new(0),
        }
    }
}

impl<T: std::hash::Hash + Eq, I: InternKey> ShardedInterner<T, I> {
    /// Creates an empty sharded interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// The stripe a hash selects (the Fx-hash striping of the lock table).
    #[inline]
    fn stripe_of(hash: u64) -> usize {
        (hash as usize) & (STRIPES - 1)
    }

    /// Interns a value, returning its dense id: the existing id if a
    /// structurally-equal value was interned before (by any thread), a
    /// fresh one otherwise.  Takes exactly one stripe lock.
    pub fn intern(&self, value: T) -> I {
        self.intern_fresh(value).0
    }

    /// Like [`ShardedInterner::intern`], but also reports whether *this
    /// call* minted the id (`true` exactly once per distinct value, for
    /// whichever thread won the race).  The elastic parallel engine uses
    /// the flag to route freshly-discovered states into the minting
    /// worker's own sub-frontier without a global fresh-scan per epoch.
    pub fn intern_fresh(&self, value: T) -> (I, bool) {
        let hash = fx_hash_of(&value);
        let stripe_index = Self::stripe_of(hash);
        self.acquisitions.fetch_add(1, Ordering::Relaxed);
        // A panicked worker poisons its stripe mid-`intern_fresh` only
        // between infallible Vec pushes, so the table stays consistent:
        // recover the guard instead of cascading the panic into every
        // other worker that shares the stripe.
        let mut stripe = self.stripes[stripe_index]
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let Stripe { buckets, values } = &mut *stripe;
        let candidates = buckets.entry(hash).or_default();
        for &id in candidates.iter() {
            if values[id.index() / STRIPES] == value {
                self.hits.fetch_add(1, Ordering::Relaxed);
                return (id, false);
            }
        }
        let id = I::from_index(values.len() * STRIPES + stripe_index);
        candidates.push(id);
        values.push(value);
        self.misses.fetch_add(1, Ordering::Relaxed);
        (id, true)
    }

    /// Un-interns an id back to (a clone of) the value it stands for.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not produced by this interner.
    pub fn resolve_cloned(&self, id: I) -> T
    where
        T: Clone,
    {
        self.acquisitions.fetch_add(1, Ordering::Relaxed);
        self.peek_cloned(id)
    }

    /// [`ShardedInterner::resolve_cloned`] without counting the stripe
    /// acquisition.
    pub(crate) fn peek_cloned(&self, id: I) -> T
    where
        T: Clone,
    {
        let stripe = self.stripes[id.index() % STRIPES]
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        stripe.values[id.index() / STRIPES].clone()
    }

    /// The id of an already-interned value, if any (no stats, no insert):
    /// the debug check of semi-naive re-steps looks successors up with it.
    #[cfg(debug_assertions)]
    pub(crate) fn get(&self, value: &T) -> Option<I> {
        let hash = fx_hash_of(value);
        let stripe = self.stripes[Self::stripe_of(hash)]
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let candidates = stripe.buckets.get(&hash)?;
        candidates
            .iter()
            .copied()
            .find(|id| &stripe.values[id.index() / STRIPES] == value)
    }

    /// How many distinct values have been interned (across all stripes).
    pub fn len(&self) -> usize {
        self.stripes
            .iter()
            .map(|s| {
                s.lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .values
                    .len()
            })
            .sum()
    }

    /// Whether nothing has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// An exclusive upper bound on every id handed out so far — the size a
    /// flat `Vec` table indexed by [`InternKey::index`] must have.  At most
    /// `STRIPES - 1` of the covered slots are unoccupied per level of
    /// stripe imbalance.
    pub fn id_bound(&self) -> usize {
        self.stripes
            .iter()
            .enumerate()
            .map(|(stripe_index, s)| {
                let len = s
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .values
                    .len();
                if len == 0 {
                    0
                } else {
                    (len - 1) * STRIPES + stripe_index + 1
                }
            })
            .max()
            .unwrap_or(0)
    }

    /// The per-stripe value counts — a *watermark* the parallel engine
    /// snapshots at the start of a round; ids minted later are exactly
    /// those reported by [`ShardedInterner::fresh_since`] for it.
    pub fn watermarks(&self) -> Vec<usize> {
        self.stripes
            .iter()
            .map(|s| {
                s.lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .values
                    .len()
            })
            .collect()
    }

    /// Every id minted since the watermark was taken, in ascending id
    /// order.  The *set* is deterministic for a deterministic round (which
    /// values exist is a pure function of the round's steps), even though
    /// which thread minted each id is not.
    pub fn fresh_since(&self, watermarks: &[usize]) -> Vec<I> {
        let mut fresh: Vec<I> = Vec::new();
        for (stripe_index, s) in self.stripes.iter().enumerate() {
            let len = s
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .values
                .len();
            for local in watermarks[stripe_index]..len {
                fresh.push(I::from_index(local * STRIPES + stripe_index));
            }
        }
        fresh.sort_unstable();
        fresh
    }

    /// Every `(id, value)` interned so far, cloned out in ascending id
    /// order — the language-boundary un-intern of the parallel engine.
    pub fn entries_cloned(&self) -> Vec<(I, T)>
    where
        T: Clone,
    {
        let mut out: Vec<(I, T)> = Vec::new();
        for (stripe_index, s) in self.stripes.iter().enumerate() {
            let stripe = s.lock().unwrap_or_else(PoisonError::into_inner);
            for (local, value) in stripe.values.iter().enumerate() {
                out.push((I::from_index(local * STRIPES + stripe_index), value.clone()));
            }
        }
        out.sort_unstable_by_key(|(id, _)| *id);
        out
    }

    /// How many [`ShardedInterner::intern`] calls found an existing id.
    pub fn hits(&self) -> usize {
        self.hits.load(Ordering::Relaxed)
    }

    /// How many [`ShardedInterner::intern`] calls allocated a fresh id —
    /// one per distinct value, so this equals [`ShardedInterner::len`].
    pub fn misses(&self) -> usize {
        self.misses.load(Ordering::Relaxed)
    }

    /// How many hot-path stripe locks have been taken so far (one per
    /// [`ShardedInterner::intern`] / [`ShardedInterner::resolve_cloned`]
    /// call) — the contention gauge [`WorkerInternCache`] exists to
    /// reduce.
    pub fn stripe_acquisitions(&self) -> usize {
        self.acquisitions.load(Ordering::Relaxed)
    }
}

/// A small per-worker id⇄value memo fronting a shared [`ShardedInterner`].
///
/// The parallel engines resolve and re-intern the same hot states round
/// after round, and every such call takes a stripe mutex on the shared
/// table.  A worker-private memo answers re-touched values without any
/// lock: one bounded Fx-hash table caches `id → value` (serving
/// [`WorkerInternCache::resolve_cloned`] directly and providing the deep
/// comparison for [`WorkerInternCache::intern_fresh`] candidates), and a
/// companion `hash → candidate ids` index makes the value→id direction a
/// hash probe.  On overflow the memo is simply cleared — it is a cache,
/// never the source of truth, so eviction cannot affect results.
///
/// Hits and misses are counted locally and merged into
/// [`EngineStats`](crate::engine::EngineStats) as
/// `worker_cache_hits`/`worker_cache_misses` by the elastic driver.
#[derive(Debug)]
pub struct WorkerInternCache<T, I: InternKey = StateId> {
    /// Precomputed hash → candidate ids (mirrors the interner's buckets).
    by_hash: FxHashMap<u64, Vec<I>>,
    /// id index → cached value (the single value store of the memo).
    by_id: FxHashMap<usize, T>,
    /// Clear-on-full bound on `by_id` (entries, not bytes).
    capacity: usize,
    hits: usize,
    misses: usize,
}

/// The default [`WorkerInternCache`] bound: generously above the hot-set
/// size of the committed workloads while keeping the worst-case memo
/// footprint (states can be large) moderate.
pub const WORKER_CACHE_CAPACITY: usize = 1 << 14;

impl<T: std::hash::Hash + Eq + Clone, I: InternKey> WorkerInternCache<T, I> {
    /// Creates an empty memo bounded at `capacity` entries (minimum 1).
    pub fn new(capacity: usize) -> Self {
        WorkerInternCache {
            by_hash: FxHashMap::default(),
            by_id: FxHashMap::default(),
            capacity: capacity.max(1),
            hits: 0,
            misses: 0,
        }
    }

    /// Memoised [`ShardedInterner::intern`]: lock-free on a memo hit.
    pub fn intern(&mut self, interner: &ShardedInterner<T, I>, value: T) -> I {
        self.intern_fresh(interner, value).0
    }

    /// Memoised [`ShardedInterner::intern_fresh`]: lock-free on a memo
    /// hit (a memoised value is never fresh).
    pub fn intern_fresh(&mut self, interner: &ShardedInterner<T, I>, value: T) -> (I, bool) {
        let hash = fx_hash_of(&value);
        if let Some(candidates) = self.by_hash.get(&hash) {
            for &id in candidates {
                if self.by_id.get(&id.index()) == Some(&value) {
                    self.hits += 1;
                    return (id, false);
                }
            }
        }
        self.misses += 1;
        let (id, minted) = interner.intern_fresh(value.clone());
        self.insert(hash, id, value);
        (id, minted)
    }

    /// Memoised [`ShardedInterner::resolve_cloned`]: lock-free on a memo
    /// hit.
    pub fn resolve_cloned(&mut self, interner: &ShardedInterner<T, I>, id: I) -> T {
        if let Some(value) = self.by_id.get(&id.index()) {
            self.hits += 1;
            return value.clone();
        }
        self.misses += 1;
        let value = interner.resolve_cloned(id);
        self.insert(fx_hash_of(&value), id, value.clone());
        value
    }

    fn insert(&mut self, hash: u64, id: I, value: T) {
        if self.by_id.len() >= self.capacity {
            self.by_id.clear();
            self.by_hash.clear();
        }
        self.by_hash.entry(hash).or_default().push(id);
        self.by_id.insert(id.index(), value);
    }

    /// How many memo lookups (either direction) were answered locally.
    pub fn hits(&self) -> usize {
        self.hits
    }

    /// How many memo lookups fell through to the shared interner.
    pub fn misses(&self) -> usize {
        self.misses
    }

    /// Drains the hit/miss counters (for per-phase stats merging),
    /// leaving the memo contents intact.
    pub fn take_counters(&mut self) -> (usize, usize) {
        (
            std::mem::take(&mut self.hits),
            std::mem::take(&mut self.misses),
        )
    }
}

/// Counts the distinct values of an iterator by interning them — the
/// implementation behind CPS's `distinct_env_count` (the language-boundary
/// half of the engine's intern statistics).
pub fn distinct_count<T: std::hash::Hash + Eq, I: IntoIterator<Item = T>>(items: I) -> usize {
    let mut interner: Interner<T, EnvId> = Interner::new();
    for item in items {
        interner.intern(item);
    }
    interner.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn ids_are_dense_and_stable() {
        let mut i: Interner<u64, StateId> = Interner::new();
        let ids: Vec<StateId> = (0..100).map(|n| i.intern(n % 10)).collect();
        assert_eq!(i.len(), 10);
        assert_eq!(i.misses(), 10);
        assert_eq!(i.hits(), 90);
        for (n, id) in ids.iter().enumerate() {
            assert_eq!(*i.resolve(*id), (n % 10) as u64);
            assert!(id.index() < i.len());
        }
        // Values are stored in first-sight order.
        assert_eq!(i.values(), &[0, 1, 2, 3, 4, 5, 6, 7, 8, 9]);
    }

    #[test]
    fn get_does_not_insert() {
        let mut i: Interner<&'static str, EnvId> = Interner::new();
        assert_eq!(i.get(&"x"), None);
        let id = i.intern("x");
        assert_eq!(i.get(&"x"), Some(id));
        assert_eq!(i.len(), 1);
    }

    #[test]
    fn state_and_env_ids_display_distinctly() {
        assert_eq!(StateId::from_index(3).to_string(), "σ3");
        assert_eq!(EnvId::from_index(3).to_string(), "ρ3");
    }

    #[test]
    fn sharded_interner_agrees_with_sequential_semantics() {
        let sharded: ShardedInterner<(u16, u16), StateId> = ShardedInterner::new();
        let values: Vec<(u16, u16)> = (0..200).map(|n| (n % 40, n % 7)).collect();
        let ids: Vec<StateId> = values.iter().map(|v| sharded.intern(*v)).collect();
        // Ids agree with structural equality and resolution round-trips.
        for (a, ia) in values.iter().zip(ids.iter()) {
            for (b, ib) in values.iter().zip(ids.iter()) {
                assert_eq!(a == b, ia == ib);
            }
            assert_eq!(sharded.resolve_cloned(*ia), *a);
        }
        // Accounting: one miss per distinct value, the rest hits.
        let distinct: std::collections::BTreeSet<_> = values.iter().collect();
        assert_eq!(sharded.len(), distinct.len());
        assert_eq!(sharded.misses(), distinct.len());
        assert_eq!(sharded.hits() + sharded.misses(), values.len());
        // Every id is inside the declared bound and the bound is tight
        // enough for flat tables (≤ STRIPES - 1 slack per stripe level).
        let bound = sharded.id_bound();
        for id in &ids {
            assert!(id.index() < bound);
        }
        assert!(bound <= sharded.len() * STRIPES);
        // entries_cloned un-interns everything, in ascending id order.
        let entries = sharded.entries_cloned();
        assert_eq!(entries.len(), distinct.len());
        assert!(entries.windows(2).all(|w| w[0].0 < w[1].0));
    }

    #[test]
    fn sharded_interner_watermarks_report_fresh_ids() {
        let sharded: ShardedInterner<u32, StateId> = ShardedInterner::new();
        let a = sharded.intern(1);
        let b = sharded.intern(2);
        let marks = sharded.watermarks();
        assert!(sharded.fresh_since(&marks).is_empty());
        let c = sharded.intern(3);
        let _again = sharded.intern(1); // hit: not fresh
        let fresh = sharded.fresh_since(&marks);
        assert_eq!(fresh, vec![c]);
        assert!(!fresh.contains(&a) && !fresh.contains(&b));
    }

    /// The loom-free lock-striping agreement test: several threads intern
    /// overlapping value ranges concurrently; afterwards the table must be
    /// indistinguishable from a sequential build — ids agree with
    /// structural equality, every value resolves, and misses equal the
    /// distinct count (no value was ever interned twice).
    #[test]
    fn sharded_interner_threads_agree_on_ids() {
        let sharded: ShardedInterner<(u8, u8), StateId> = ShardedInterner::new();
        let threads = 4;
        std::thread::scope(|scope| {
            for t in 0..threads {
                let sharded = &sharded;
                scope.spawn(move || {
                    // Overlapping ranges: every value is interned by at
                    // least two threads, racing on the same stripes.
                    for round in 0..3u8 {
                        for n in 0..128u8 {
                            let value = ((n + t) % 128, round % 2);
                            let id = sharded.intern(value);
                            assert_eq!(sharded.resolve_cloned(id), value);
                            // A second intern from this thread must agree.
                            assert_eq!(sharded.intern(value), id);
                        }
                    }
                });
            }
        });
        // 128 × 2 distinct values, interned exactly once each.
        assert_eq!(sharded.len(), 256);
        assert_eq!(sharded.misses(), 256);
        assert_eq!(
            sharded.hits() + sharded.misses(),
            threads as usize * 3 * 128 * 2
        );
        // Post-hoc sequential interning returns the established ids.
        let mut seen = std::collections::BTreeSet::new();
        for (id, value) in sharded.entries_cloned() {
            assert_eq!(sharded.intern(value), id);
            assert!(seen.insert(id), "duplicate id {id:?}");
        }
    }

    #[test]
    fn intern_fresh_reports_minting_exactly_once() {
        let sharded: ShardedInterner<u32, StateId> = ShardedInterner::new();
        let (a, minted_a) = sharded.intern_fresh(7);
        let (b, minted_b) = sharded.intern_fresh(7);
        assert_eq!(a, b);
        assert!(minted_a);
        assert!(!minted_b);
        // The hot-path gauge counts both intern calls and resolves.
        let before = sharded.stripe_acquisitions();
        let _ = sharded.resolve_cloned(a);
        let _ = sharded.intern(7);
        assert_eq!(sharded.stripe_acquisitions(), before + 2);
    }

    #[test]
    fn worker_cache_agrees_with_interner_and_skips_stripe_locks() {
        let sharded: ShardedInterner<(u8, u8), StateId> = ShardedInterner::new();
        let mut memo: WorkerInternCache<(u8, u8), StateId> = WorkerInternCache::new(64);
        // 30 distinct pairs (lcm(30, 6) = 30), comfortably under the
        // 64-entry capacity so the memo never clears mid-test.
        let values: Vec<(u8, u8)> = (0..120u16)
            .map(|n| ((n % 30) as u8, (n % 6) as u8))
            .collect();
        let direct: Vec<StateId> = values.iter().map(|v| sharded.intern(*v)).collect();
        let locks_before = sharded.stripe_acquisitions();
        let memoed: Vec<StateId> = values.iter().map(|v| memo.intern(&sharded, *v)).collect();
        assert_eq!(direct, memoed);
        // Only the first sight of each distinct value fell through.
        let distinct: std::collections::BTreeSet<_> = values.iter().collect();
        assert_eq!(memo.misses(), distinct.len());
        assert_eq!(memo.hits(), values.len() - distinct.len());
        assert_eq!(sharded.stripe_acquisitions(), locks_before + distinct.len());
        // Resolution is served from the memo once cached.
        let locks_before = sharded.stripe_acquisitions();
        for (v, id) in values.iter().zip(direct.iter()) {
            assert_eq!(memo.resolve_cloned(&sharded, *id), *v);
        }
        assert_eq!(sharded.stripe_acquisitions(), locks_before);
        // take_counters drains without touching the cached contents.
        let (h, m) = memo.take_counters();
        assert!(h > 0 && m > 0);
        assert_eq!((memo.hits(), memo.misses()), (0, 0));
        assert_eq!(memo.intern(&sharded, values[0]), direct[0]);
        assert_eq!((memo.hits(), memo.misses()), (1, 0));
    }

    #[test]
    fn worker_cache_overflow_clears_but_stays_correct() {
        let sharded: ShardedInterner<u32, StateId> = ShardedInterner::new();
        let mut memo: WorkerInternCache<u32, StateId> = WorkerInternCache::new(8);
        for round in 0..3u32 {
            for n in 0..100u32 {
                let id = memo.intern(&sharded, n);
                assert_eq!(sharded.intern(n), id);
                assert_eq!(memo.resolve_cloned(&sharded, id), n);
            }
            assert_eq!(sharded.len(), 100, "round {round}");
        }
    }

    proptest! {
        /// The hash-consing law: ids agree with structural equality.
        #[test]
        fn prop_ids_agree_with_structural_equality(
            values in proptest::collection::vec((0u8..16, 0u8..16), 0..64)
        ) {
            let mut interner: Interner<(u8, u8), StateId> = Interner::new();
            let ids: Vec<StateId> =
                values.iter().map(|v| interner.intern(*v)).collect();
            for (a, ia) in values.iter().zip(ids.iter()) {
                for (b, ib) in values.iter().zip(ids.iter()) {
                    prop_assert_eq!(a == b, ia == ib);
                }
            }
            // Resolution round-trips.
            for (v, id) in values.iter().zip(ids.iter()) {
                prop_assert_eq!(interner.resolve(*id), v);
            }
            // Accounting: every intern is a hit or a miss, misses == len.
            prop_assert_eq!(interner.hits() + interner.misses(), values.len());
            prop_assert_eq!(interner.misses(), interner.len());
        }
    }
}
