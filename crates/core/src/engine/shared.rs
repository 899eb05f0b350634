//! Incremental, dependency-invalidating solvers for the shared-store domain.
//!
//! With a single widened store (§6.5) a `(state, guts)` pair is *not* a
//! closed unit: its successors depend on the global store, which other
//! states keep widening.  Naive Kleene iteration handles this by re-stepping
//! every pair every round.  The solvers here memoise each pair's step
//! outcome together with its *read set* and maintain **one running
//! accumulated domain**.  The id-indexed engine's read set is exact: the
//! step runs on a store armed with a read journal
//! ([`StoreDelta::arm_read_journal`]), which records every address the
//! transition fetched on any branch, including fetches that came back
//! empty and every address an abstract-GC sweep visited.  The structural
//! baseline keeps the older, larger read set: the [`reachable`] closure of
//! the pair's [`StateRoots`], which bounds what a transition may fetch.
//! Both add the write targets a step still binds.  The journal needs one
//! contract from the semantics: it reads the store only through the
//! journaled methods ([`StoreLike`]'s *Journaled reads*).  A transition
//! that decides its successors from anything else, such as a store's
//! `iter()`, is not re-stepped when what it looked at grows, and the
//! engine returns a smaller fixpoint than Kleene iteration, which
//! [`certify`](super::certify) rejects.  Per round they
//!
//! 1. step only the *frontier* — states with no cached outcome (newly
//!    discovered) plus states invalidated through a reverse dependency
//!    index (address → dependent states) by the previous round's
//!    per-address store deltas;
//! 2. fold only those re-stepped contributions into the running domain
//!    with the change-tracking, delta-reporting in-place joins of the
//!    lattice layer ([`Lattice::join_in_place`](crate::lattice::Lattice),
//!    [`StoreDelta::join_in_place_delta`]), obtaining the next round's
//!    invalidations directly from the fold — no snapshot clone, no
//!    whole-store diff, no whole-domain `==`.
//!
//! A round therefore costs O(|frontier| × store-join).  The structural-key
//! engine ([`FrontierCollecting::explore_frontier_structural`]) keys every table
//! by the *full state structure*: each `BTreeMap<(Ps, G), …>` lookup pays a
//! deep `Ord` walk over the whole state (environment, continuation,
//! context), the reverse dependency index stores a deep clone of every
//! dependent state per address, and every frontier round clones states
//! wholesale.  Once joins are O(frontier), that state identity work
//! dominates the run.
//!
//! This module's default solver ([`FrontierCollecting::explore_frontier`])
//! is the **id-indexed** engine: a hash-consing [`Interner`] maps every
//! distinct `(state, guts)` pair to a dense [`StateId`] the moment it is
//! produced, so clone and equality become O(1) and each engine table
//! becomes a flat `Vec` indexed by the id (step cache) or a small id-set
//! (frontier, reverse dependency index).  States are deeply hashed exactly
//! once — on intern — and un-interned back to structural values only at the
//! language boundary, when the final [`SharedStoreDomain`] is assembled.
//! The frontier/fold strategy (and therefore the round structure, the
//! rebuild defence and the computed fixpoint) is exactly the PR-2 engine's.
//!
//! ## Why folding only the frontier is exact
//!
//! The accumulated domain only ever grows, and every cached contribution
//! was folded into it the round it was computed.  A non-frontier state's
//! cached contribution is therefore already below the running domain, and —
//! because none of its read dependencies changed since (else it would be on
//! the frontier) — re-running its transition would reproduce that cached
//! contribution exactly (the §6.4 garbage-collection argument: a transition
//! is a pure function of the state, the guts and the store restricted to
//! what it reads).  So `current ⊔ f(current)`, the accumulated Kleene
//! iterate computed by [`explore_fp`](crate::collect::explore_fp), equals
//! `current ⊔ (inject ⊔ Σ frontier contributions)` — the fold the engines
//! perform.  As defence in depth, whenever a re-stepped contribution
//! *shrank* — evidence the step function is not monotone on the current
//! iterate, which no well-behaved configuration of this framework
//! exhibits (GC'd contributions shrink only relative to *other* states'
//! stores, not across rounds), but a hand-written semantics could — the
//! engines abandon the fast path for that round: they re-step **every**
//! cached pair against the same pre-store and fold all of the fresh
//! contributions, making the round literally the accumulated Kleene
//! iterate `current ⊔ f(current)` with no reliance on cached outcomes at
//! all ([`EngineStats::rebuild_rounds`] counts these rounds; the engine's
//! unit tests force one with a deliberately non-monotone machine).
//!
//! Two observationally equivalent solvers are exposed:
//!
//! * [`FrontierCollecting::explore_frontier`] — the id-indexed incremental
//!   accumulator, governed and traced (the default behind
//!   `analyse_*_worklist` and `analyse_*_direct`);
//! * [`FrontierCollecting::explore_frontier_structural`] — the PR-2
//!   structural-key accumulator, unbudgeted and join-only: the E10
//!   baseline and one of the reference solves behind the benchmark's
//!   recorded expectations.
//!
//! Both remain differential-testing oracles for each other, with
//! [`explore_fp`](crate::collect::explore_fp) as the ground truth.

use std::collections::{BTreeMap, BTreeSet};
use std::hash::Hash;

use crate::addr::HasInitial;
use crate::collect::{Collecting, SharedStoreDomain};
use crate::gc::{reachable, Touches};
use crate::hash::{FxHashMap, FxHashSet};
use crate::intern::{InternKey, Interner, StateId};
use crate::monad::{run_store_passing, MonadFamily, StorePassing, Value};
use crate::store::{StoreDelta, StoreLike};
use crate::telemetry::{label_of, RoundTrace, Stopwatch, TraceSink};

use super::governor::{Budget, Outcome, ResumeSeed, SolveFrom};
use super::{
    narrow_store_post_pass, DirectCollecting, EngineStats, FrontierCollecting, StateRoots, StepFn,
    WidenTracker,
};
use crate::lattice::WidenLattice;
use crate::telemetry::{GovernorTrace, GovernorTraceKind};

/// The resume seed of every shared-store engine: the `(state, guts)`
/// pairs discovered so far plus the accumulated store.
pub type SharedResumeSeed<Ps, G, S> = ResumeSeed<(Ps, G), S>;

/// The `(outcome, stats)` pair every governed shared-store solve returns.
pub type SharedGovernedSolve<Ps, G, S> = (
    Outcome<SharedStoreDomain<Ps, G, S>, SharedResumeSeed<Ps, G, S>>,
    EngineStats,
);

/// How many characters of a state's `Debug` rendering become its hot-spot
/// attribution label.
pub(super) const STATE_LABEL_MAX: usize = 96;

/// How many characters of an address's `Debug` rendering become its
/// join-traffic attribution label.
pub(super) const ADDR_LABEL_MAX: usize = 64;

/// The memoised outcome of stepping one `(state, guts)` pair, in the
/// structural engine.
struct CacheEntry<Ps, G, S, A> {
    /// The successor pairs the step produced.
    successors: BTreeSet<(Ps, G)>,
    /// The join of the per-branch result stores.
    store: S,
    /// Every address the transition may have read:
    ///
    /// * the reachable closure of the pair's roots in the pre-store (what
    ///   the semantics may `fetch`),
    /// * the closure of each successor's roots in that branch's result
    ///   store (which bounds what the result store copied out of the
    ///   pre-store), and
    /// * every address the step visibly wrote — `bind` *reads* the written
    ///   address's current binding (it joins values and, in a counting
    ///   store, increments the count on top of it), so a write target is a
    ///   read dependency too.
    deps: BTreeSet<A>,
}

/// The memo table of the structural engine, keyed by `(state, guts)`.
type StepCache<Ps, G, S, A> = BTreeMap<(Ps, G), CacheEntry<Ps, G, S, A>>;

/// The reverse dependency index of the structural incremental engine: for
/// every address, the cached pairs whose outcome may depend on it.
type Dependents<Ps, G, A> = BTreeMap<A, BTreeSet<(Ps, G)>>;

/// The memoised outcome of stepping one interned pair, in the id-indexed
/// engine: same content as [`CacheEntry`], except that successors are dense
/// ids, the table itself is a flat `Vec` indexed by [`StateId`] — and the
/// store contribution is kept as a *delta*.
///
/// A step's raw result store is the whole threaded store plus its writes,
/// so caching (and folding) it verbatim costs O(|store|) per contribution —
/// the structural engines pay exactly that.  Because the accumulated store
/// only ever grows and every binding the step merely passed through is
/// already below it, folding only the bindings the step *changed* relative
/// to its pre-store joins to the identical result; the delta is typically a
/// handful of addresses.
pub(super) struct InternedEntry<S, A> {
    /// The successor ids the step produced (sorted, deduplicated).
    pub(super) successors: Vec<StateId>,
    /// The join of the per-branch result stores, restricted to the
    /// addresses the step changed relative to its pre-store.
    pub(super) delta: S,
    /// The step's read set (sorted, deduplicated): every address its
    /// transition read, from the store's read journal (see
    /// [`step_entry`]), plus the write targets the result still binds —
    /// `bind` reads the binding it joins into (see [`CacheEntry::deps`]).
    pub(super) deps: Vec<A>,
}

/// The flat memo table of the id-indexed engine (`None` = not yet stepped).
pub(super) type InternedCache<S, A> = Vec<Option<InternedEntry<S, A>>>;

/// The reverse dependency index of the id-indexed engine.
pub(super) type IdDependents<A> = FxHashMap<A, FxHashSet<StateId>>;

/// Steps `key`, installs the outcome in the cache and the reverse
/// dependency index (replacing any previous entry), updates the step/
/// re-enqueue counters, and reports whether the fresh contribution *shrank*
/// relative to the cached one — the signal that the step function is not
/// monotone on this round's iterate and the fast path must be abandoned.
fn step_and_cache<Ps, G, S, F>(
    step: &F,
    key: &(Ps, G),
    store: &S,
    cache: &mut StepCache<Ps, G, S, Ps::Addr>,
    dependents: &mut Dependents<Ps, G, Ps::Addr>,
    stats: &mut EngineStats,
) -> bool
where
    Ps: Value + Ord + StateRoots,
    G: Value + Ord,
    S: StoreLike<Ps::Addr> + StoreDelta<Ps::Addr> + Value,
    S::D: Touches<Ps::Addr>,
    F: StepFn<Ps, G, S>,
{
    stats.states_stepped += 1;
    stats.spine_clones += 1;
    let entry = step_pair(step, key, store);
    stats.dep_edges += entry.deps.len();
    let mut shrank = false;
    if let Some(old) = cache.get(key) {
        stats.reenqueued += 1;
        shrank = !(old.successors.is_subset(&entry.successors) && old.store.leq(&entry.store));
        for a in &old.deps {
            if let Some(keys) = dependents.get_mut(a) {
                keys.remove(key);
            }
        }
    }
    for a in &entry.deps {
        dependents.entry(a.clone()).or_default().insert(key.clone());
    }
    cache.insert(key.clone(), entry);
    shrank
}

/// Executes one monadic step of `key` against `store`, packaging the
/// successors, the joined result store and the read-dependency set.
fn step_pair<Ps, G, S, F>(step: &F, key: &(Ps, G), store: &S) -> CacheEntry<Ps, G, S, Ps::Addr>
where
    Ps: Value + Ord + StateRoots,
    G: Value + Ord,
    S: StoreLike<Ps::Addr> + StoreDelta<Ps::Addr> + Value,
    S::D: Touches<Ps::Addr>,
    F: StepFn<Ps, G, S>,
{
    let (ps, guts) = key;
    let mut successors = BTreeSet::new();
    let mut out_store = S::bottom();
    let mut deps = reachable(ps.state_roots(), store);
    for ((ps2, g2), s2) in step.step(ps.clone(), guts.clone(), store.clone()) {
        deps.extend(reachable(ps2.state_roots(), &s2));
        // Write targets are read dependencies (see the CacheEntry docs);
        // keep only the addresses the result still binds — an address a
        // GC'd step filtered away no longer influences the outcome, and it
        // can only become relevant again through a change at an address
        // that *is* in the closure.
        let result_addrs = s2.addresses();
        deps.extend(
            s2.changed_addresses(store)
                .into_iter()
                .filter(|a| result_addrs.contains(a)),
        );
        successors.insert((ps2, g2));
        out_store.join_in_place(s2);
    }
    CacheEntry {
        successors,
        store: out_store,
        deps,
    }
}

/// Executes one monadic step of an already-resolved `(state, guts)` pair
/// against `store`, interning every successor through the supplied closure
/// (successor discovery *is* the intern miss) and packaging the id-level
/// cache entry.  The intern sink is abstract so the same stepping core
/// serves the sequential engine (a `&mut` [`Interner`]) and the parallel
/// engine (a shared [`ShardedInterner`](crate::intern::ShardedInterner)).
///
/// The read set is **journaled**, not inferred: the step runs on a clone
/// of `store` armed with [`StoreDelta::arm_read_journal`], so every
/// address the transition fetched — on any branch, including a fetch that
/// came back empty and left no branch at all, and every address an
/// abstract-GC sweep visited on a branch store — lands in one journal,
/// which is taken (and closed) the moment the step returns.
pub(super) fn step_entry<Ps, G, S, F, IN>(
    step: &F,
    ps: Ps,
    guts: G,
    store: &S,
    mut intern: IN,
) -> InternedEntry<S, Ps::Addr>
where
    Ps: Value + Ord + Hash + StateRoots,
    G: Value + Ord + Hash,
    S: StoreLike<Ps::Addr> + StoreDelta<Ps::Addr> + Value,
    F: StepFn<Ps, G, S>,
    IN: FnMut((Ps, G)) -> StateId,
{
    let mut pre = store.clone();
    let journal = pre.arm_read_journal();
    let branches = step.step(ps, guts, pre);
    let mut deps = journal.take();
    let mut successors: Vec<StateId> = Vec::new();
    let mut delta = S::bottom();
    for ((ps2, g2), s2) in branches {
        // Write targets are read dependencies (see `CacheEntry::deps`):
        // keep the changed addresses the branch still binds.  An address a
        // GC'd branch dropped no longer influences the outcome; whether it
        // stays dropped is decided by the sweep, whose reads are already
        // in the journal.
        let changed = s2.changed_addresses(store);
        deps.extend(changed.iter().filter(|a| s2.contains(a)).cloned());
        successors.push(intern((ps2, g2)));
        // Keep only what the branch changed: every other binding of `s2`
        // was copied out of the pre-store and is already below the
        // accumulated store the entry will be folded into.  `restrict_to`
        // extracts the handful of changed bindings by descent instead of
        // walking the whole spine.  Folding into an unarmed bottom leaves
        // the cached delta disconnected from the journal.
        delta.join_in_place(s2.restrict_to(&changed));
    }
    successors.sort_unstable();
    successors.dedup();
    deps.sort_unstable();
    deps.dedup();
    // The journal repeats an address once per branch that read it; the
    // cache keeps the entry, so give back the repeats' capacity.
    deps.shrink_to_fit();
    InternedEntry {
        successors,
        delta,
        deps,
    }
}

/// Whether the sorted id slice `old` is a subset of the sorted id slice
/// `new` (the successor half of the monotonicity check, on ids).
pub(super) fn sorted_subset(old: &[StateId], new: &[StateId]) -> bool {
    let mut it = new.iter();
    'outer: for o in old {
        for n in it.by_ref() {
            match n.cmp(o) {
                std::cmp::Ordering::Less => continue,
                std::cmp::Ordering::Equal => continue 'outer,
                std::cmp::Ordering::Greater => return false,
            }
        }
        return false;
    }
    true
}

/// The id-indexed analogue of [`step_and_cache`]: steps `id`, installs the
/// outcome in the flat cache and the id-level reverse dependency index, and
/// reports whether the fresh contribution shrank.
fn step_and_cache_interned<Ps, G, S, F>(
    step: &F,
    id: StateId,
    store: &S,
    interner: &mut Interner<(Ps, G), StateId>,
    cache: &mut InternedCache<S, Ps::Addr>,
    dependents: &mut IdDependents<Ps::Addr>,
    stats: &mut EngineStats,
) -> bool
where
    Ps: Value + Ord + Hash + StateRoots,
    Ps::Addr: Hash,
    G: Value + Ord + Hash,
    S: StoreLike<Ps::Addr> + StoreDelta<Ps::Addr> + Value,
    S::D: Touches<Ps::Addr>,
    F: StepFn<Ps, G, S>,
{
    stats.states_stepped += 1;
    stats.spine_clones += 1;
    let (ps, guts) = interner.resolve(id).clone();
    let entry = step_entry(step, ps, guts, store, |k| interner.intern(k));
    stats.dep_edges += entry.deps.len();
    // Interning the successors may have minted fresh ids; keep the flat
    // cache as long as the id space.
    if cache.len() < interner.len() {
        cache.resize_with(interner.len(), || None);
    }
    let slot = &mut cache[id.index()];
    let mut shrank = false;
    if let Some(old) = slot.as_ref() {
        stats.reenqueued += 1;
        // The non-monotonicity detector, on ids: a re-step that loses a
        // successor.  The structural engine additionally compares full
        // result stores, but with delta entries the store half is vacuous —
        // the old delta was folded into the accumulated store the round it
        // was computed, so it is below every later pre-store by
        // construction.  A shrinking store contribution therefore cannot
        // un-grow the accumulator; what it *can* do is drop a successor,
        // which is exactly what this check watches.
        shrank = !sorted_subset(&old.successors, &entry.successors);
        for a in &old.deps {
            if let Some(ids) = dependents.get_mut(a) {
                ids.remove(&id);
            }
        }
    }
    for a in &entry.deps {
        dependents.entry(a.clone()).or_default().insert(id);
    }
    *slot = Some(entry);
    shrank
}

impl<Ps, G, S> FrontierCollecting<StorePassing<G, S>, Ps> for SharedStoreDomain<Ps, G, S>
where
    Ps: Value + Ord + Hash + StateRoots,
    Ps::Addr: Hash,
    G: Value + Ord + Hash + HasInitial,
    S: StoreLike<Ps::Addr> + StoreDelta<Ps::Addr> + WidenLattice + Value,
    S::D: Touches<Ps::Addr>,
{
    fn explore_frontier_traced<F, T>(step: &F, initial: Ps, sink: &mut T) -> (Self, EngineStats)
    where
        F: Fn(Ps) -> <StorePassing<G, S> as MonadFamily>::M<Ps> + Sync,
        T: TraceSink,
        Ps: std::fmt::Debug,
    {
        // Run the Rc-closure carrier through the carrier-neutral solver:
        // desugar each monadic step with `run_store_passing`.
        let direct = |ps: Ps, g: G, s: S| run_store_passing(step(ps), g, s);
        <Self as DirectCollecting<Ps, G, S>>::explore_frontier_direct_traced(&direct, initial, sink)
    }

    fn explore_frontier_structural_traced<F, T>(
        step: &F,
        initial: Ps,
        sink: &mut T,
    ) -> (Self, EngineStats)
    where
        F: Fn(Ps) -> <StorePassing<G, S> as MonadFamily>::M<Ps> + Sync,
        T: TraceSink,
        Ps: std::fmt::Debug,
    {
        let direct = |ps: Ps, g: G, s: S| run_store_passing(step(ps), g, s);
        explore_structural(&direct, initial, sink)
    }
}

impl<Ps, G, S> DirectCollecting<Ps, G, S> for SharedStoreDomain<Ps, G, S>
where
    Ps: Value + Ord + Hash + StateRoots,
    Ps::Addr: Hash,
    G: Value + Ord + Hash + HasInitial,
    S: StoreLike<Ps::Addr> + StoreDelta<Ps::Addr> + WidenLattice + Value,
    S::D: Touches<Ps::Addr>,
{
    type Seed = SharedResumeSeed<Ps, G, S>;

    fn explore_frontier_governed_traced<F, T>(
        step: &F,
        from: SolveFrom<Ps, Self::Seed>,
        budget: &Budget,
        sink: &mut T,
    ) -> (Outcome<Self, Self::Seed>, EngineStats)
    where
        F: StepFn<Ps, G, S>,
        T: TraceSink,
        Ps: std::fmt::Debug,
    {
        // One flag gates every telemetry side channel: clock samples and
        // label formatting happen only when a real sink listens, and no
        // counter below ever consults it — tracing cannot perturb the
        // solve.
        let armed = sink.enabled();
        let mut stats = EngineStats::default();
        // Per-address growth bookkeeping for the budget's widening policy:
        // decides which addresses the fold accumulates with ▽ instead of ⊔.
        // Inert (empty point set, so the widened fold *is* the join fold)
        // whenever widening is off.
        let mut widen: WidenTracker<Ps::Addr> = WidenTracker::new(&budget.widen);
        // The hash-consing table: every distinct (state, guts) pair gets a
        // dense StateId on first sight.  The interner doubles as the
        // seen-set and, at the end, as the domain's state set.
        let mut interner: Interner<(Ps, G), StateId> = Interner::new();
        // The flat memo table and the id-level reverse dependency index.
        let mut cache: InternedCache<S, Ps::Addr> = Vec::new();
        let mut dependents: IdDependents<Ps::Addr> = FxHashMap::default();
        // The running accumulated store (the states half of the running
        // domain is the interner itself).  A resumed solve re-steps every
        // carried state once — rebuilding the dependency index the
        // partial run discarded — and then converges normally.
        let mut store: S;
        let mut frontier: BTreeSet<StateId>;
        match from {
            SolveFrom::Fresh(initial) => {
                store = S::bottom();
                let initial_id = interner.intern((initial, G::initial()));
                frontier = [initial_id].into_iter().collect();
            }
            SolveFrom::Resume(seed) => {
                store = seed.store;
                frontier = seed
                    .states
                    .into_iter()
                    .map(|key| interner.intern(key))
                    .collect();
            }
        }

        let mut exhausted = None;
        while !frontier.is_empty() {
            // The round-boundary governance check: one branch and one
            // relaxed atomic load for an unlimited budget, no clock.
            if let Some(reason) = budget.exhausted(stats.iterations, stats.states_stepped) {
                sink.governor(GovernorTrace {
                    round: stats.iterations,
                    kind: GovernorTraceKind::Exhausted(reason),
                });
                exhausted = Some(reason);
                break;
            }
            stats.iterations += 1;
            // Ids below this watermark were known when the round began;
            // everything interned during the round is a fresh discovery.
            let known = interner.len();
            let frontier_len = frontier.len();
            let mut stepped_this_round = frontier_len;
            let mut phase_watch = Stopwatch::start(armed);

            // Step phase: every frontier pair against the same pre-store
            // (the folds below land only after the whole frontier was
            // stepped, so the round sees one consistent iterate).
            let mut shrank = false;
            for &id in &frontier {
                let mut step_watch = Stopwatch::start(armed);
                shrank |= step_and_cache_interned(
                    step,
                    id,
                    &store,
                    &mut interner,
                    &mut cache,
                    &mut dependents,
                    &mut stats,
                );
                if armed {
                    let ns = step_watch.lap_ns();
                    let label = label_of(&interner.resolve(id).0, STATE_LABEL_MAX);
                    sink.state_cost(&label, ns);
                }
            }

            // Rebuild round: a contribution shrank, so the step function is
            // not monotone on this iterate and the fast path's
            // dependency-validity argument is off the table.  Re-step
            // *every* cached pair against the same pre-store and fold all
            // of the fresh contributions — the round becomes literally the
            // accumulated Kleene iterate `current ⊔ f(current)`, with no
            // reliance on cached outcomes at all.
            let fold_ids: Vec<StateId> = if shrank {
                stats.rebuild_rounds += 1;
                stats.peak_frontier = stats.peak_frontier.max(known);
                let rest: Vec<StateId> = (0..known)
                    .map(StateId::from_index)
                    .filter(|id| !frontier.contains(id))
                    .collect();
                stepped_this_round += rest.len();
                for &id in &rest {
                    // Further shrinkage is immaterial: the whole round is
                    // already being recomputed from scratch.
                    step_and_cache_interned(
                        step,
                        id,
                        &store,
                        &mut interner,
                        &mut cache,
                        &mut dependents,
                        &mut stats,
                    );
                }
                (0..known).map(StateId::from_index).collect()
            } else {
                stats.peak_frontier = stats.peak_frontier.max(frontier.len());
                // Everything off the frontier is served from the
                // accumulated domain without being visited at all.
                stats.cache_hits += known - frontier.len();
                frontier.iter().copied().collect()
            };

            let step_ns = phase_watch.lap_ns();

            // Fold phase: only the re-stepped contributions — and only
            // their store *deltas* — with the per-address growth report
            // falling straight out of the in-place join.
            let mut changed_addrs: BTreeSet<Ps::Addr> = BTreeSet::new();
            for &id in &fold_ids {
                let entry = cache[id.index()].as_ref().expect("fold of an unstepped id");
                stats.store_joins += 1;
                stats.spine_clones += 1;
                if armed {
                    // Join-traffic attribution: which addresses this
                    // contribution bound, and which of them actually grew.
                    let bound = entry.delta.addresses();
                    let changed = store.widen_in_place_delta(entry.delta.clone(), widen.points());
                    for a in &bound {
                        sink.join_traffic(&label_of(a, ADDR_LABEL_MAX), changed.contains(a));
                    }
                    changed_addrs.extend(changed);
                } else {
                    changed_addrs
                        .extend(store.widen_in_place_delta(entry.delta.clone(), widen.points()));
                }
            }
            let (joined, widened) = widen.classify(&changed_addrs);
            stats.store_joins_applied += joined;
            stats.widen_applied += widened;
            widen.record(&changed_addrs);
            // Sample spine sharing while this round's delta adoptions are
            // still live in the cache (peak over rounds).
            stats.store_bytes_shared = stats.store_bytes_shared.max(store.shared_spine_bytes());
            sink.round(RoundTrace {
                round: stats.iterations,
                frontier: frontier_len,
                stepped: stepped_this_round,
                joins: fold_ids.len(),
                delta_width: changed_addrs.len(),
                rebuild: shrank,
                step_ns,
                join_ns: phase_watch.lap_ns(),
                sync_ns: 0,
            });

            // Next frontier: freshly discovered pairs (ids minted during
            // this round have no cached outcome yet) plus every cached
            // dependent of an address that grew.
            let mut next: BTreeSet<StateId> =
                (known..interner.len()).map(StateId::from_index).collect();
            for a in &changed_addrs {
                if let Some(ids) = dependents.get(a) {
                    next.extend(ids.iter().copied());
                }
            }
            frontier = next;
        }

        stats.intern_hits = interner.hits();
        stats.intern_misses = interner.misses();
        stats.distinct_states = interner.len();
        // Un-intern only here, at the boundary: the structural domain is
        // assembled once, from the interner's value table.
        let states: BTreeSet<(Ps, G)> = interner.values().iter().cloned().collect();
        match exhausted {
            None => {
                // The decreasing pass: only after a *complete* widened
                // solve (an exhausted partial is not a post-fixpoint, so
                // narrowing it would not be meaningful).
                if budget.widen.enabled && budget.widen.narrow_passes > 0 {
                    narrow_store_post_pass(
                        &states,
                        &mut store,
                        step,
                        budget.widen.narrow_passes,
                        budget,
                    );
                }
                (
                    Outcome::Complete(SharedStoreDomain::from_parts(states, store)),
                    stats,
                )
            }
            Some(reason) => {
                let resume_seed = Box::new(ResumeSeed {
                    states: interner.values().to_vec(),
                    store: store.clone(),
                });
                (
                    Outcome::Exhausted {
                        partial: SharedStoreDomain::from_parts(states, store),
                        reason,
                        resume_seed,
                    },
                    stats,
                )
            }
        }
    }
}

/// The PR-2 *structural-key* incremental accumulator over the
/// carrier-neutral step shape (see
/// [`FrontierCollecting::explore_frontier_structural`]).  It is a baseline,
/// so it runs unbudgeted and join-only: no budget check, no resume seed, no
/// widening points and no narrowing pass.
fn explore_structural<Ps, G, S, F, T>(
    step: &F,
    initial: Ps,
    sink: &mut T,
) -> (SharedStoreDomain<Ps, G, S>, EngineStats)
where
    Ps: Value + Ord + StateRoots,
    G: Value + Ord + HasInitial,
    S: StoreLike<Ps::Addr> + StoreDelta<Ps::Addr> + Value,
    S::D: Touches<Ps::Addr>,
    F: StepFn<Ps, G, S>,
    T: TraceSink,
{
    let armed = sink.enabled();
    let mut stats = EngineStats::default();
    let mut cache: StepCache<Ps, G, S, Ps::Addr> = BTreeMap::new();
    // The reverse dependency index: for every address, the cached pairs
    // whose outcome may depend on it.  Maintained alongside the cache so
    // a store delta invalidates exactly its dependents — no per-round
    // scan of all states.
    let mut dependents: Dependents<Ps, G, Ps::Addr> = BTreeMap::new();
    // The running accumulated domain, seeded with inject(initial).
    let mut current: SharedStoreDomain<Ps, G, S> =
        Collecting::<StorePassing<G, S>, Ps>::inject(initial);
    let mut frontier: BTreeSet<(Ps, G)> = current.states().clone();

    while !frontier.is_empty() {
        stats.iterations += 1;
        let frontier_len = frontier.len();
        let mut stepped_this_round = frontier_len;
        let mut phase_watch = Stopwatch::start(armed);

        // Step phase: every frontier pair against the same pre-store
        // (the folds below land only after the whole frontier was
        // stepped, so the round sees one consistent iterate).
        let mut shrank = false;
        for key in &frontier {
            shrank |= step_and_cache(
                step,
                key,
                current.store(),
                &mut cache,
                &mut dependents,
                &mut stats,
            );
        }

        // Rebuild round: see `explore_frontier` — identical defence,
        // structural keys.
        let fold_keys: Vec<(Ps, G)> = if shrank {
            stats.rebuild_rounds += 1;
            stats.peak_frontier = stats.peak_frontier.max(current.len());
            let rest: Vec<(Ps, G)> = current
                .states()
                .iter()
                .filter(|key| !frontier.contains(*key))
                .cloned()
                .collect();
            stepped_this_round += rest.len();
            for key in &rest {
                // Further shrinkage is immaterial: the whole round is
                // already being recomputed from scratch.
                step_and_cache(
                    step,
                    key,
                    current.store(),
                    &mut cache,
                    &mut dependents,
                    &mut stats,
                );
            }
            current.states().iter().cloned().collect()
        } else {
            stats.peak_frontier = stats.peak_frontier.max(frontier.len());
            // Everything off the frontier is served from the
            // accumulated domain without being visited at all.
            stats.cache_hits += current.len() - frontier.len();
            frontier.iter().cloned().collect()
        };
        let step_ns = phase_watch.lap_ns();
        let mut changed_addrs: BTreeSet<Ps::Addr> = BTreeSet::new();
        let mut discovered: Vec<(Ps, G)> = Vec::new();
        for key in &fold_keys {
            let entry = &cache[key];
            stats.store_joins += 1;
            stats.spine_clones += 1;
            for succ in &entry.successors {
                if current.insert_state(succ.clone()) {
                    discovered.push(succ.clone());
                }
            }
            changed_addrs.extend(current.store_mut().join_in_place_delta(entry.store.clone()));
        }
        stats.store_joins_applied += changed_addrs.len();
        stats.store_bytes_shared = stats
            .store_bytes_shared
            .max(current.store().shared_spine_bytes());
        sink.round(RoundTrace {
            round: stats.iterations,
            frontier: frontier_len,
            stepped: stepped_this_round,
            joins: fold_keys.len(),
            delta_width: changed_addrs.len(),
            rebuild: shrank,
            step_ns,
            join_ns: phase_watch.lap_ns(),
            sync_ns: 0,
        });

        // Next frontier: freshly discovered pairs (no cached outcome
        // yet) plus every cached dependent of an address that grew.
        let mut next: BTreeSet<(Ps, G)> = discovered.into_iter().collect();
        for a in &changed_addrs {
            if let Some(keys) = dependents.get(a) {
                next.extend(keys.iter().cloned());
            }
        }
        frontier = next;
    }
    (current, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collect::explore_fp;
    use crate::monad::{MonadPlus, MonadState, MonadTrans, StateT, VecM};

    /// A heap value that is itself an address (a one-cell pointer).
    #[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
    struct Ptr(u8);

    impl Touches<u8> for Ptr {
        fn touches(&self) -> BTreeSet<u8> {
            [self.0].into_iter().collect()
        }
    }

    /// Toy machine states are small numbers marching down a chain
    /// `0 → 1 → … → 6`.  Only state 1 *reads* the shared cell 0 and only
    /// state 4 *writes* it, so the engine should leave most of the chain
    /// untouched across rounds, and re-enqueue state 1 exactly when
    /// state 4's write lands.
    #[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
    struct St(u32);

    impl StateRoots for St {
        type Addr = u8;

        fn state_roots(&self) -> BTreeSet<u8> {
            if self.0 == 1 {
                [0u8].into_iter().collect()
            } else {
                BTreeSet::new()
            }
        }
    }

    type G = u64;
    type S = crate::store::BasicStore<u8, Ptr>;
    type M = StorePassing<G, S>;

    fn step(st: St) -> <M as MonadFamily>::M<St> {
        let n = st.0;
        match n {
            1 => {
                // Reads cell 0: one successor per stored pointer, plus the
                // unconditional next chain state.
                let fetched =
                    <M as MonadTrans>::lift(
                        crate::monad::gets_nd_set::<StateT<S, VecM>, S, Ptr, _>(move |store| {
                            store.fetch(&0u8)
                        }),
                    );
                let via_heap = M::bind(fetched, move |ptr| M::pure(St(ptr.0 as u32 + 1)));
                M::mplus(M::pure(St(2)), via_heap)
            }
            4 => {
                // Writes cell 0, widening what state 1 can observe.
                let write = <M as MonadTrans>::lift(<StateT<S, VecM> as MonadState<S>>::modify(
                    move |store: S| store.bind(0u8, [Ptr(9)].into_iter().collect()),
                ));
                M::bind(write, move |_| M::pure(St(5)))
            }
            n if n >= 6 => M::pure(st),
            _ => M::pure(St(n + 1)),
        }
    }

    #[test]
    fn sorted_subset_matches_set_semantics() {
        let ids = |xs: &[usize]| -> Vec<StateId> {
            xs.iter().copied().map(StateId::from_index).collect()
        };
        assert!(sorted_subset(&ids(&[]), &ids(&[])));
        assert!(sorted_subset(&ids(&[]), &ids(&[1, 2])));
        assert!(sorted_subset(&ids(&[1]), &ids(&[0, 1, 2])));
        assert!(sorted_subset(&ids(&[0, 2]), &ids(&[0, 1, 2])));
        assert!(!sorted_subset(&ids(&[3]), &ids(&[0, 1, 2])));
        assert!(!sorted_subset(&ids(&[0, 3]), &ids(&[0, 1, 2])));
        assert!(!sorted_subset(&ids(&[1]), &ids(&[])));
    }

    #[test]
    fn interned_equals_kleene_and_structural() {
        let kleene: SharedStoreDomain<St, G, S> = explore_fp::<M, St, _, _>(step, St(0));
        let (interned, stats) =
            <SharedStoreDomain<St, G, S> as FrontierCollecting<M, St>>::explore_frontier(
                &step,
                St(0),
            );
        let (structural, structural_stats) = <SharedStoreDomain<St, G, S> as FrontierCollecting<
            M,
            St,
        >>::explore_frontier_structural(&step, St(0));
        assert_eq!(interned, kleene);
        assert_eq!(structural, kleene);
        assert!(stats.cache_hits > 0, "expected cache hits: {stats}");
        assert!(stats.store_joins_applied > 0);
        assert_eq!(stats.widen_applied, 0);
        assert!(stats.iterations > 1);
        // The id-indexed engine never does more logical work than the
        // structural engine — and may do strictly less: its delta-shaped
        // cache entries need tighter read sets (no successor closures on
        // drop-free branches), so fewer store growths re-enqueue it.
        assert!(stats.iterations <= structural_stats.iterations);
        assert!(stats.states_stepped <= structural_stats.states_stepped);
        assert!(stats.store_joins <= structural_stats.store_joins);
        assert_eq!(
            stats.store_joins_applied,
            structural_stats.store_joins_applied
        );
        // On this GC-free machine every round stays on the fast path, so
        // joins == steps (one fold per re-stepped pair).
        assert_eq!(stats.rebuild_rounds, 0);
        assert_eq!(stats.store_joins, stats.states_stepped);
        // Intern accounting: every distinct pair interned once; each step
        // re-interns its successors, so hits dominate after round one.
        assert_eq!(stats.distinct_states, interned.len());
        assert_eq!(stats.intern_misses, stats.distinct_states);
        assert!(stats.intern_hits > 0);
        assert!(stats.intern_hit_rate() > 0.0);
        // The structural engine does not intern at all.
        assert_eq!(structural_stats.intern_misses, 0);
    }

    #[test]
    fn worklist_steps_strictly_fewer_states_than_kleene() {
        use std::cell::Cell;
        use std::rc::Rc;

        let kleene_steps = Rc::new(Cell::new(0usize));
        let counter = Rc::clone(&kleene_steps);
        let counted = move |st: St| {
            counter.set(counter.get() + 1);
            step(st)
        };
        let _: SharedStoreDomain<St, G, S> = explore_fp::<M, St, _, _>(counted, St(0));

        let (_, stats) =
            <SharedStoreDomain<St, G, S> as FrontierCollecting<M, St>>::explore_frontier(
                &step,
                St(0),
            );
        assert!(
            stats.states_stepped < kleene_steps.get(),
            "worklist stepped {} states, Kleene {}",
            stats.states_stepped,
            kleene_steps.get()
        );
    }

    /// A state whose roots point at the cell the non-monotone machine
    /// inspects (cell 9 for state 0, so its dependency is registered).
    #[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
    struct NmSt(u32);

    impl StateRoots for NmSt {
        type Addr = u8;

        fn state_roots(&self) -> BTreeSet<u8> {
            if self.0 == 0 {
                [9u8].into_iter().collect()
            } else {
                BTreeSet::new()
            }
        }
    }

    /// A deliberately *non-monotone* machine: state 0 emits an extra
    /// successor only while cell 9 is still empty, and state 2 later writes
    /// that cell.  Re-stepping state 0 after the write shrinks its successor
    /// set, which no configuration of the framework's own semantics does —
    /// exactly the situation the rebuild round exists for.
    fn nonmonotone_step(st: NmSt) -> <StorePassing<G, S> as MonadFamily>::M<NmSt> {
        type M = StorePassing<G, S>;
        match st.0 {
            0 => {
                let peeked =
                    <M as MonadTrans>::lift(
                        crate::monad::gets_nd_set::<StateT<S, VecM>, S, Ptr, _>(move |store| {
                            if store.fetch(&9u8).is_empty() {
                                [Ptr(7)].into_iter().collect()
                            } else {
                                BTreeSet::new()
                            }
                        }),
                    );
                let extra = M::bind(peeked, move |ptr| M::pure(NmSt(ptr.0 as u32 + 1)));
                M::mplus(M::pure(NmSt(1)), extra)
            }
            1 => M::pure(NmSt(2)),
            2 => {
                let write = <M as MonadTrans>::lift(<StateT<S, VecM> as MonadState<S>>::modify(
                    move |store: S| store.bind(9u8, [Ptr(3)].into_iter().collect()),
                ));
                M::bind(write, move |_| M::pure(NmSt(3)))
            }
            _ => M::pure(st),
        }
    }

    #[test]
    fn nonmonotone_contributions_trigger_a_real_rebuild_round() {
        let kleene: SharedStoreDomain<NmSt, G, S> =
            explore_fp::<StorePassing<G, S>, NmSt, _, _>(nonmonotone_step, NmSt(0));
        let (interned, stats) = <SharedStoreDomain<NmSt, G, S> as FrontierCollecting<
            StorePassing<G, S>,
            NmSt,
        >>::explore_frontier(&nonmonotone_step, NmSt(0));
        let (structural, structural_stats) = <SharedStoreDomain<NmSt, G, S> as FrontierCollecting<
            StorePassing<G, S>,
            NmSt,
        >>::explore_frontier_structural(&nonmonotone_step, NmSt(0));

        // The write to cell 9 invalidates state 0, whose re-step *shrinks*
        // its successor set — both incremental engines must leave the fast
        // path…
        assert!(
            stats.rebuild_rounds > 0,
            "expected a rebuild round: {stats}"
        );
        assert!(structural_stats.rebuild_rounds > 0);
        // …and still agree bit-for-bit with the accumulated Kleene iterate.
        assert_eq!(interned, kleene);
        assert_eq!(structural, kleene);
        // The shrunken-away successor (state 8, reached through Ptr(7))
        // stays in the accumulated domain: cumulative semantics never
        // un-discovers a state.
        assert!(interned.states().iter().any(|(ps, _)| ps.0 == 8));
    }

    /// States of the narrowing-soundness machine below.  States 1 and 2
    /// both read cell 0, so both are re-enqueued as the loop widens it.
    #[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
    struct NarrowSt(u32);

    impl StateRoots for NarrowSt {
        type Addr = u8;

        fn state_roots(&self) -> BTreeSet<u8> {
            if self.0 == 1 || self.0 == 2 {
                [0u8].into_iter().collect()
            } else {
                BTreeSet::new()
            }
        }
    }

    /// Regression test: the narrowing post-pass must treat a strong update
    /// that *reproduces* the widened binding as a producer contribution.
    ///
    /// The machine is
    ///
    /// ```text
    /// 0: x := 0                        → {1, 2, 3}
    /// 1: x := x + 1                    → {1, 4}   (unbounded loop; widens
    ///                                              cell 0 to [0,+∞))
    /// 2: y := x                        → {4}      (strong-updates cell 1 to
    ///                                              exactly [0,+∞))
    /// 3: y := [0,5]                    → {4}
    /// 4: halt
    /// ```
    ///
    /// Cell 1's sound binding is `[0,+∞) ⊔ [0,5] = [0,+∞)`: the copier at
    /// state 2 really can deposit any value `x` takes.  An image built from
    /// each branch's *changed* addresses drops the copier (its write equals
    /// the accumulated binding, so nothing diffs), sees only state 3's
    /// `[0,5]`, and narrows cell 1 to the unsound `[0,5]`.  The write
    /// journal records both strong updates, keeping the image at `[0,+∞)`.
    #[test]
    fn narrowing_keeps_reproducing_strong_updates_in_the_image() {
        use super::super::governor::WidenPolicy;
        use crate::lattice::Interval;
        use crate::store::IntervalStore;

        type IS = IntervalStore<u8>;
        let step = |ps: NarrowSt, g: u64, s: IS| -> Vec<((NarrowSt, u64), IS)> {
            match ps.0 {
                0 => {
                    let s = s.bind(0u8, Interval::singleton(0));
                    vec![
                        ((NarrowSt(1), g), s.clone()),
                        ((NarrowSt(2), g), s.clone()),
                        ((NarrowSt(3), g), s),
                    ]
                }
                1 => {
                    let x = s.fetch(&0u8);
                    let incremented = x + Interval::singleton(1);
                    vec![
                        ((NarrowSt(4), g), s.clone()),
                        ((NarrowSt(1), g), s.replace(0u8, incremented)),
                    ]
                }
                2 => {
                    let x = s.fetch(&0u8);
                    vec![((NarrowSt(4), g), s.replace(1u8, x))]
                }
                3 => vec![((NarrowSt(4), g), s.replace(1u8, Interval::range(0, 5)))],
                _ => vec![((ps, g), s)],
            }
        };

        let budget = Budget::unlimited().with_widening(WidenPolicy::after_growths(3));
        let (outcome, _) = <SharedStoreDomain<NarrowSt, u64, IS> as DirectCollecting<
            NarrowSt,
            u64,
            IS,
        >>::explore_frontier_governed(
            &step, SolveFrom::Fresh(NarrowSt(0)), &budget
        );
        let fixpoint = outcome.into_complete();

        // The loop cell widens to [0,+∞) and narrowing cannot tighten it
        // (the loop really is unbounded).
        assert_eq!(fixpoint.store().fetch(&0u8), Interval::at_least(0));
        // The copied cell must stay [0,+∞): the reproducing strong update
        // at state 2 is a real producer even though it never diffs.
        assert_eq!(fixpoint.store().fetch(&1u8), Interval::at_least(0));
    }

    /// States of the read-journal edge-case machines.  No state has roots,
    /// so the `StateRoots` closure is empty everywhere and only the read
    /// journal can see what state 1 reads.
    #[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
    struct Rd(u32);

    impl StateRoots for Rd {
        type Addr = u8;

        fn state_roots(&self) -> BTreeSet<u8> {
            BTreeSet::new()
        }
    }

    /// `0 → {1, 2}`, `2 → 3`, and `3` writes `Ptr(5)` into cell 0 and goes
    /// to `4`.  State 1 follows every pointer in cell 0 to `10 + ptr` — a
    /// round before state 3's write, while the cell is still empty — and,
    /// with `fallthrough`, also always steps to 9.
    fn reader_step(fallthrough: bool) -> impl Fn(Rd) -> <M as MonadFamily>::M<Rd> {
        move |st: Rd| match st.0 {
            0 => M::mplus(M::pure(Rd(1)), M::pure(Rd(2))),
            1 => {
                let fetched = <M as MonadTrans>::lift(crate::monad::gets_nd_set::<
                    StateT<S, VecM>,
                    S,
                    Ptr,
                    _,
                >(|store| store.fetch(&0u8)));
                let via_heap = M::bind(fetched, |ptr| M::pure(Rd(10 + u32::from(ptr.0))));
                if fallthrough {
                    M::mplus(M::pure(Rd(9)), via_heap)
                } else {
                    via_heap
                }
            }
            2 => M::pure(Rd(3)),
            3 => {
                let write = <M as MonadTrans>::lift(<StateT<S, VecM> as MonadState<S>>::modify(
                    |store: S| store.bind(0u8, [Ptr(5)].into_iter().collect()),
                ));
                M::bind(write, |_| M::pure(Rd(4)))
            }
            _ => M::pure(st),
        }
    }

    /// Solves `reader_step(fallthrough)` and asserts that state 1 was
    /// re-stepped after the write: its first step saw an empty cell, so
    /// only a re-step reaches the pointer's target, state 15.
    fn assert_reader_sees_the_later_write(fallthrough: bool) {
        let step = reader_step(fallthrough);
        let kleene: SharedStoreDomain<Rd, G, S> = explore_fp::<M, Rd, _, _>(&step, Rd(0));
        let (engine, _) =
            <SharedStoreDomain<Rd, G, S> as FrontierCollecting<M, Rd>>::explore_frontier(
                &step,
                Rd(0),
            );
        assert_eq!(engine, kleene);
        assert!(engine.states().iter().any(|(ps, _)| ps.0 == 15));
    }

    #[test]
    fn an_empty_fetch_with_no_successors_is_still_a_dependency() {
        // State 1's first step has no branch at all: its read must reach
        // the journal through the armed pre-store, not a branch store.
        assert_reader_sees_the_later_write(false);
    }

    #[test]
    fn a_reader_without_roots_is_re_enqueued_by_a_write_to_its_cell() {
        assert_reader_sees_the_later_write(true);
    }

    /// Arms a clone of `plain`, checks that arming changes neither equality,
    /// order nor hash, that reads through the armed store and a store
    /// derived from it land in one journal, and that the journal records
    /// nothing once taken.
    fn assert_journal_is_not_part_of_the_value<St>(plain: St)
    where
        St: StoreDelta<u8> + Hash + Clone,
    {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::Hasher;

        let digest = |s: &St| {
            let mut h = DefaultHasher::new();
            s.hash(&mut h);
            h.finish()
        };
        let mut armed = plain.clone();
        let journal = armed.arm_read_journal();
        assert_eq!(armed, plain);
        assert_eq!(armed.cmp(&plain), std::cmp::Ordering::Equal);
        assert_eq!(digest(&armed), digest(&plain));

        let branch = armed.clone();
        let _ = branch.fetch(&1);
        let _ = armed.fetch_ref(&2);
        assert!(!branch.contains(&3));
        assert_eq!(journal.take(), vec![1, 2, 3]);
        let _ = branch.fetch(&1);
        assert!(armed.contains(&1));
        assert!(
            journal.take().is_empty(),
            "the journal recorded after the take"
        );
    }

    #[test]
    fn an_armed_store_is_the_same_value_and_stops_recording_after_the_take() {
        use crate::lattice::Interval;
        use crate::store::{Counter, CountingStore, IntervalStore};

        let ptrs: BTreeSet<Ptr> = [Ptr(7)].into_iter().collect();
        assert_journal_is_not_part_of_the_value(S::new().bind(1, ptrs.clone()));
        let counting = CountingStore::<u8, Ptr>::new().bind(1, ptrs);
        assert_journal_is_not_part_of_the_value(counting.clone());
        assert_journal_is_not_part_of_the_value(
            IntervalStore::new().bind(1, Interval::singleton(7)),
        );

        // The counting store's allocation count is a read too.
        let mut armed = counting;
        let journal = armed.arm_read_journal();
        let _ = armed.count(&4);
        assert_eq!(journal.take(), vec![4]);
    }

    #[test]
    fn invalidation_is_observable_when_states_share_cells() {
        for (_, stats) in [
            <SharedStoreDomain<St, G, S> as FrontierCollecting<M, St>>::explore_frontier(
                &step,
                St(0),
            ),
            <SharedStoreDomain<St, G, S> as FrontierCollecting<M, St>>::explore_frontier_structural(
                &step,
                St(0),
            ),
        ] {
            // The toy machine's states write into each other's read cells,
            // so at least one previously-stepped state must have been
            // re-enqueued by every engine.
            assert!(stats.reenqueued > 0, "expected re-enqueues: {stats}");
        }
    }
}
