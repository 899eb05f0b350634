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
//! empty.  Abstract GC adds the addresses its sweep visited only where it
//! drops a write (see *Abstract GC as a write filter* below).  The
//! structural baseline keeps the older, larger read set: the [`reachable`]
//! closure of the pair's [`StateRoots`], which bounds what a transition may
//! fetch.
//! Both add the write targets a step still binds.  The journal needs one
//! contract from the semantics: it reads the store only through the
//! journaled methods ([`StoreLike`]'s *Journaled reads*).  A transition
//! that decides its successors from anything else, such as a store's
//! `iter()`, is not re-stepped when what it looked at grows, and the
//! engine returns a smaller fixpoint than Kleene iteration, which
//! [`certify`](super::certify) rejects.
//!
//! ## The round loop
//!
//! The id-indexed engine is one round loop, [`solve_shared`], driven by a
//! [`StepPhase`]: the only thing the sequential, barrier and elastic
//! drivers supply is how one set of state ids is stepped against the
//! round's pre-store.  The sequential phase loops over [`step_entry`] on a
//! single-threaded [`Interner`]; the two parallel phases run on the worker
//! pool of the [`parallel`](super::parallel) module.  A phase also names
//! its [`PhaseKind`], for the three things the loop does differently per
//! driver (sync rounds, the elastic rebuild and merge traces).  Everything
//! else is written here, once.  A round
//!
//! 1. checks the budget at the round boundary;
//! 2. steps the *frontier* — states with no cached outcome (newly
//!    discovered) plus states invalidated through the reverse dependency
//!    index (address → dependent states) by the previous round's
//!    per-address store deltas — all against the same pre-store;
//! 3. installs the fresh entries in the flat cache and the reverse
//!    dependency index, checking each re-step against its cached entry for
//!    a lost successor (the rebuild defence below);
//! 4. folds only the re-stepped contributions — only their store *deltas*
//!    — into the running store, in ascending id order, with the
//!    change-tracking, delta-reporting in-place joins of the lattice layer
//!    ([`Lattice::join_in_place`](crate::lattice::Lattice),
//!    [`StoreDelta::widen_in_place_delta`]), widening at the addresses the
//!    budget's policy designated; the next round's invalidations fall
//!    straight out of the fold — no snapshot clone, no whole-store diff,
//!    no whole-domain `==`;
//! 5. re-seeds the frontier with the ids minted this round that no phase
//!    stepped, plus every cached dependent of an address that grew.
//!
//! A round therefore costs O(|frontier| × store-join).  After the last
//! round the loop un-interns the states, runs the narrowing post-pass of a
//! complete widened solve, and packs the [`Outcome`] with its resume seed.
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
//! `current ⊔ (inject ⊔ Σ frontier contributions)` — the fold the loop
//! performs.  As defence in depth, whenever a re-stepped contribution
//! *shrank* — evidence the step function is not monotone on the current
//! iterate, which no well-behaved configuration of this framework
//! exhibits (GC'd contributions shrink only relative to *other* states'
//! stores, not across rounds), but a hand-written semantics could — the
//! loop abandons the fast path for that round: it re-steps **every**
//! cached pair against the same pre-store and folds all of the fresh
//! contributions, making the round literally the accumulated Kleene
//! iterate `current ⊔ f(current)` with no reliance on cached outcomes at
//! all ([`EngineStats::rebuild_rounds`] counts these rounds; the engine's
//! unit tests force one with a deliberately non-monotone machine).
//!
//! ## Abstract GC as a write filter
//!
//! Abstract GC (§6.4, [`with_state_gc`](super::with_state_gc)) restricts
//! each branch's store to what its successor can reach.  Here a branch
//! contributes only the bindings it changed.  Every other binding the
//! sweep would drop was copied from the pre-store, so it is already in the
//! accumulated store.  GC therefore decides one thing: which of the
//! branch's own writes survive.  [`step_entry`] steps through
//! [`StepFn::step_before_gc`] and takes the read journal, which closes it.
//! Then, on each branch, [`StepFn::filter_writes`] searches from the
//! successor's roots only until it has discovered every changed address
//! (each address is tested when the search first sees it, roots first, so
//! a write next to the roots stops it after a couple of addresses;
//! [`EngineStats::gc_filter_visited`] counts them):
//!
//! * **All found:** the writes are kept, and the search's reads are not
//!   dependencies.  From fixed roots, reachability is monotone in the
//!   store, and the accumulated store only grows.  So every later re-step
//!   keeps the same writes, including Kleene's re-step against any later
//!   iterate.
//! * **Some not found:** the search finishes the sweep, drops the writes it
//!   did not reach, and adds every address it visited to the read set.  The
//!   closure of the roots depends only on the bindings at the addresses it
//!   visits.  So the visited set is exactly the set a later growth must
//!   touch to connect a dropped write, and such a growth re-enqueues the
//!   state.
//!
//! Successors do not depend on GC, so the rebuild defence is unaffected.
//! Every consumer that calls [`StepFn::step`] keeps the full sweep and stays
//! a check that does not share this argument: the per-state engine (whose
//! store is part of the state), the structural baseline below,
//! [`certify`](super::certify), the narrowing post-pass, and the closure
//! carrier's [`ReachableGc`](crate::gc::ReachableGc), which sweeps inside
//! the monad.
//!
//! ## Semi-naive re-steps
//!
//! A transition's result is a union over the values its fetches choose
//! (the `StorePassing` bind, §5.3.1), so a re-step against a grown store
//! only has to enumerate the choices that include something new — the
//! semi-naive rule of Datalog evaluation.  A cached entry remembers three
//! things: its pre-store restricted to the addresses its step read
//! ([`StoreDelta::remember`], every value set shared), those reads apart
//! from its write targets, and the most journaled read calls any one path
//! of the step made.  [`solve_shared`] hands that baseline to the re-step,
//! which arms the pre-store with it ([`StoreDelta::arm_re_step`]).  Each
//! path starts *old*:
//!
//! * a fan-out ([`Branches::fetch_each`](crate::monad::Branches::fetch_each))
//!   makes the branch that chooses a value outside the remembered binding
//!   *fresh*; an old choice continues the old path;
//! * an old path replays a path of the previous step, so it makes at most
//!   the previous longest path's read calls, and the fan-out that reaches
//!   that count drops its old choices on the spot — they could read
//!   nothing more and never become fresh;
//! * a strong update marks its path fresh;
//! * any other read of a binding that differs from the remembered one
//!   ([`ReadJournal::diverged`](crate::store::ReadJournal::diverged))
//!   gives its continuation an input the previous step never gave it.  The
//!   step is then a full re-step: its branches are all kept when no
//!   fan-out dropped one, and it is re-run without a baseline otherwise.
//!
//! [`step_entry`] interns, restricts and folds only the fresh branches, and
//! [`install`] merges them into the cached entry: successors are the cached
//! ones ∪ the fresh ones, the delta is the fresh delta, the reads are the
//! cached reads ∪ this step's, and the deps are those reads ∪ the fresh
//! branches' write targets.  That **equals a full re-step against the same
//! pre-store**.  An old branch chose and read exactly what a branch of the
//! previous step did, so it reaches the same successor (cached) with the
//! same writes, which the previous round folded below this pre-store: its
//! delta and write targets are empty.  Every path of the previous step is
//! replayed this way — its choices are still in the grown bindings and its
//! plain reads saw no change, or the step is full — so the reads of the
//! old paths are the cached reads.  Successor ids, fold order, `dep_edges`
//! and every counter but [`EngineStats::branches_folded`] are therefore
//! those of full re-steps.  Debug builds check it: every merged entry is
//! compared with a full re-step against the same pre-store (successors,
//! delta, reads, deps), touching no counter and interning nothing, so
//! `cargo test` runs the check across the whole suite and release builds
//! pay nothing.
//!
//! Full re-steps remain for a state's first step, rebuild rounds and
//! resumed solves (no cached entry); for stores that cannot remember a
//! binding ([`CountingStore`](crate::store::CountingStore),
//! [`IntervalStore`](crate::store::IntervalStore): the trait default);
//! for entries whose GC write filter dropped a write, whose fate depends
//! on reads the journal does not see; for the elastic phase, which steps
//! against worker views; and for everything outside this engine — the
//! structural baseline, Kleene iteration, [`certify`](super::certify) and
//! the narrowing pass.  The barrier phase re-steps against the same
//! baselines as the sequential phase, so their counters stay equal.
//!
//! The rebuild defence below compares a re-step's successors with the
//! cached ones, and a merged entry holds the cached successors by
//! construction, so **the shrink check covers only full re-steps**.  What
//! it can no longer see is a merged entry, which differs from its cache by
//! new fan-out choices alone; every re-step whose plain read saw a changed
//! binding — the way a non-monotone step shrinks — is a full re-step and
//! still reaches the check.
//!
//! ## Two solvers
//!
//! * [`FrontierCollecting::explore_frontier`] — the id-indexed incremental
//!   accumulator above, governed and traced (the default behind
//!   `analyse::worklist` and `analyse::direct`).  A hash-consing
//!   [`Interner`] maps every distinct `(state, guts)` pair to a dense
//!   [`StateId`] the moment it is produced, so clone and equality become
//!   O(1) and each engine table becomes a flat `Vec` indexed by the id
//!   (step cache) or a small id-set (frontier, reverse dependency index).
//!   States are deeply hashed exactly once — on intern — and un-interned
//!   back to structural values only at the language boundary.
//! * [`FrontierCollecting::explore_frontier_structural`] — the
//!   structural-key accumulator, unbudgeted and join-only: the E10
//!   baseline and one of the reference solves behind the benchmark's
//!   recorded expectations.  It keys every table by the *full state
//!   structure* (each `BTreeMap<(Ps, G), …>` lookup pays a deep `Ord`
//!   walk, the reverse dependency index stores a deep clone of every
//!   dependent state), and keeps its own loop, so that it shares none of
//!   the id-indexed engine's machinery.
//!
//! Both remain differential-testing oracles for each other, with
//! [`explore_fp`](crate::collect::explore_fp) as the ground truth.

use std::collections::{BTreeMap, BTreeSet};
use std::hash::Hash;

use crate::addr::{Address, HasInitial};
use crate::collect::{Collecting, SharedStoreDomain};
use crate::gc::{reachable, Touches};
use crate::hash::{FxHashMap, FxHashSet};
use crate::intern::{InternKey, Interner, StateId};
use crate::monad::{run_store_passing, MonadFamily, StorePassing, Value};
use crate::store::{StoreDelta, StoreLike};
use crate::telemetry::{label_of, MergeTrace, RoundTrace, Stopwatch, TraceSink};

use super::governor::{Budget, Outcome, ResumeSeed, SolveFrom};
use super::{
    narrow_store_post_pass, DirectCollecting, EngineStats, FrontierCollecting, StateRoots, StepFn,
    WidenTracker,
};
use crate::lattice::WidenLattice;
use crate::telemetry::GovernorTrace;

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
const ADDR_LABEL_MAX: usize = 64;

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
pub(crate) struct InternedEntry<S, A> {
    /// The successor ids the step produced (sorted, deduplicated).
    successors: Vec<StateId>,
    /// The join of the per-branch result stores, restricted to the
    /// addresses the step changed relative to its pre-store.
    pub(crate) delta: S,
    /// The step's read set (sorted, deduplicated): every address its
    /// transition read, from the store's read journal (see
    /// [`step_entry`]), plus the write targets the result still binds —
    /// `bind` reads the binding it joins into (see [`CacheEntry::deps`]) —
    /// plus, on a branch where abstract GC dropped a write, every address
    /// its sweep visited.
    pub(crate) deps: Vec<A>,
    /// What a later re-step of this pair may run semi-naive against;
    /// `None` where it must re-step in full.
    baseline: Option<Baseline<S, A>>,
    /// The entry came from a semi-naive re-step: it holds only the fresh
    /// branches' successors, and [`install`] adds the cached ones.
    merge: bool,
    /// The branches this step interned and folded
    /// ([`EngineStats::branches_folded`]).
    branches: usize,
    /// The addresses its GC write filter visited
    /// ([`EngineStats::gc_filter_visited`]).
    gc_visited: usize,
}

/// What a cached entry remembers of its step for a semi-naive re-step
/// (see the module docs).  A clone is an `Arc` bump (plus a copy of
/// `unbound`, which is almost always empty).
#[derive(Clone)]
pub(crate) struct Baseline<S, A> {
    /// The step's pre-store restricted to the addresses it read
    /// ([`StoreDelta::remember`]): the value set each read saw.
    pre: S,
    /// The reads `pre` does not bind.  With `pre`'s addresses, these are
    /// the step's journaled reads, kept apart from the write targets in
    /// the entry's deps.
    unbound: Vec<A>,
    /// The most journaled read calls any one path of the step made.
    longest: u32,
}

impl<S: StoreLike<A>, A: Address> Baseline<S, A> {
    /// The step's journaled reads, sorted and deduplicated.
    fn reads(&self) -> Vec<A> {
        let mut reads: Vec<A> = self.pre.addresses().into_iter().collect();
        reads.extend(self.unbound.iter().cloned());
        reads.sort_unstable();
        reads
    }
}

/// One id to step, with the baseline it may re-step semi-naive against.
pub(crate) type Job<S, A> = (StateId, Option<Baseline<S, A>>);

/// The flat memo table of the id-indexed engine (`None` = not yet stepped).
type InternedCache<S, A> = Vec<Option<InternedEntry<S, A>>>;

/// The reverse dependency index of the id-indexed engine.
type IdDependents<A> = FxHashMap<A, FxHashSet<StateId>>;

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
/// serves every [`StepPhase`]: a `&mut` [`Interner`], a shared
/// [`ShardedInterner`](crate::intern::ShardedInterner), or a worker's
/// memo in front of one.
///
/// The read set is **journaled**, not inferred: the step runs on a clone
/// of `store` armed with [`StoreDelta::arm_read_journal`], so every
/// address the transition fetched — on any branch, including a fetch that
/// came back empty and left no branch at all — lands in one journal,
/// which is taken (and closed) the moment the step returns.  Abstract GC
/// runs after that, as [`StepFn::filter_writes`] on each branch of
/// [`StepFn::step_before_gc`] (the module docs' write filter), and adds
/// its own reads only when it drops a write.
///
/// With a `baseline` the step is a semi-naive re-step
/// ([`StoreDelta::arm_re_step`]): old branches are skipped, and the entry
/// holds the fresh branches plus the baseline's reads, for [`install`] to
/// merge (see the module docs).
pub(crate) fn step_entry<Ps, G, S, F, IN>(
    step: &F,
    ps: Ps,
    guts: G,
    store: &S,
    baseline: Option<&Baseline<S, Ps::Addr>>,
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
    let (journal, pair) = match baseline {
        Some(b) => (
            pre.arm_re_step(&b.pre, b.longest),
            Some((ps.clone(), guts.clone())),
        ),
        None => (pre.arm_read_journal(), None),
    };
    let branches = step.step_before_gc(ps, guts, pre);
    let mut reads = journal.take();
    // A plain read that saw a changed binding on an old path fed its
    // continuation an input the previous step never gave it: the step is
    // a full re-step, so the shrink check sees it.  If no fan-out dropped
    // an old branch, the branches already are the full step's.
    let baseline = match (baseline, pair) {
        (Some(_), Some((ps, guts))) if journal.diverged() => {
            if journal.pruned() {
                drop(branches);
                return step_entry(step, ps, guts, store, None, intern);
            }
            None
        }
        (baseline, _) => baseline,
    };
    let mut successors: Vec<StateId> = Vec::new();
    let mut delta = S::bottom();
    let mut deps: Vec<Ps::Addr> = Vec::new();
    let mut dropped_write = false;
    let mut folded = 0usize;
    let mut gc_visited = 0usize;
    for ((ps2, g2), s2) in branches {
        // An old branch replays a branch of the previous step: its
        // successor is cached, and its writes were folded below `store`.
        if baseline.is_some() && s2.is_old_branch() {
            continue;
        }
        folded += 1;
        // GC drops the writes the successor cannot reach.  A dropped write
        // no longer influences the outcome; whether it stays dropped
        // depends on the bindings the sweep visited, which the filter adds
        // to `deps`.  The journal is closed, so a sweep that found every
        // write records nothing: those reads are not dependencies.
        let mut changed = s2.changed_addresses(store);
        let written = changed.len();
        gc_visited += step.filter_writes(&ps2, &s2, &mut changed, &mut deps);
        dropped_write |= changed.len() < written;
        // Write targets are read dependencies (see `CacheEntry::deps`):
        // keep the changed addresses the branch still binds.
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
    let semi_naive = baseline.is_some();
    let mut longest = journal.longest_path();
    if let Some(b) = baseline {
        reads.extend(b.reads());
        longest = longest.max(b.longest);
    }
    successors.sort_unstable();
    successors.dedup();
    reads.sort_unstable();
    reads.dedup();
    deps.extend(reads.iter().cloned());
    deps.sort_unstable();
    deps.dedup();
    // The journal repeats an address once per branch that read it; the
    // cache keeps the entry, so give back the repeats' capacity.
    deps.shrink_to_fit();
    // A dropped write's fate depends on reads the journal does not see,
    // so its entry re-steps in full.
    let baseline = if dropped_write {
        None
    } else {
        store.remember(&reads).map(|pre| {
            let bound = pre.addresses();
            reads.retain(|a| !bound.contains(a));
            reads.shrink_to_fit();
            Baseline {
                pre,
                unbound: reads,
                longest,
            }
        })
    };
    InternedEntry {
        successors,
        delta,
        deps,
        merge: semi_naive,
        baseline,
        branches: folded,
        gc_visited,
    }
}

/// The union of two sorted, deduplicated id slices.
fn sorted_union(a: &[StateId], b: &[StateId]) -> Vec<StateId> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut a, mut b) = (a.iter().peekable(), b.iter().peekable());
    while let (Some(&&x), Some(&&y)) = (a.peek(), b.peek()) {
        out.push(x.min(y));
        if x <= y {
            a.next();
        }
        if y <= x {
            b.next();
        }
    }
    out.extend(a.chain(b));
    out
}

/// Whether the sorted id slice `old` is a subset of the sorted id slice
/// `new` (the successor half of the monotonicity check, on ids).
fn sorted_subset(old: &[StateId], new: &[StateId]) -> bool {
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

/// What one step phase produced.
pub(crate) struct PhaseRun<S, A> {
    /// One `(id, entry)` per id the phase stepped, in no particular order.
    pub(crate) entries: Vec<(StateId, InternedEntry<S, A>)>,
    /// The timing gauges the phase observed (steals, epochs, stale
    /// merges, memo traffic, shard imbalance).  Work is counted when the
    /// entries are installed, not here.
    pub(crate) gauges: EngineStats,
    /// The slowest worker's busy time: the round's step share.
    pub(crate) busy_ns: u64,
    /// The phase's wall time; what exceeds `busy_ns` is sync overhead.
    pub(crate) wall_ns: u64,
}

/// Which driver a [`StepPhase`] belongs to: the three things
/// [`solve_shared`] does differently for one.  A parallel round ends at a
/// sync barrier ([`EngineStats::sync_rounds`]); an elastic round steps
/// against worker views rather than the pre-store, so its rebuild
/// re-steps the phase's own ids too, and it reports a [`MergeTrace`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum PhaseKind {
    /// One thread, every id in turn.
    Sequential,
    /// The worker pool, every id against the pre-store.
    Barrier,
    /// The worker pool, epochs over private views.
    Elastic,
}

/// How a driver steps one set of state ids against a round's pre-store —
/// the only part of a shared-store solve that differs between the
/// sequential, barrier and elastic drivers.  [`solve_shared`] owns the
/// rest.
pub(crate) trait StepPhase<Ps: StateRoots, G, S> {
    /// Which driver this is.
    fn kind(&self) -> PhaseKind;

    /// Interns a pair, returning its id.
    fn intern(&mut self, pair: (Ps, G)) -> StateId;

    /// Marks the start of a round for [`StepPhase::minted`].
    fn mark(&mut self);

    /// Every id interned since the last [`StepPhase::mark`], ascending.
    fn minted(&self) -> Vec<StateId>;

    /// Steps each job's id against `store`, the round's pre-store, semi-
    /// naive where the job carries a baseline (a phase may ignore it and
    /// step in full).  A `rebuild` phase re-steps states for the rebuild
    /// defence and must step each against `store` itself.
    fn run<T: TraceSink>(
        &mut self,
        jobs: Vec<Job<S, Ps::Addr>>,
        store: &S,
        rebuild: bool,
        round: usize,
        sink: &mut T,
    ) -> PhaseRun<S, Ps::Addr>;

    /// The pair behind `id` and the id of a pair, touching no counter: the
    /// debug check of semi-naive re-steps re-steps through these.
    #[cfg(debug_assertions)]
    fn peek(&self, id: StateId) -> (Ps, G);

    /// See [`StepPhase::peek`].
    #[cfg(debug_assertions)]
    fn lookup(&self, pair: &(Ps, G)) -> Option<StateId>;

    /// Consumes the phase: records the intern counters in `stats` and
    /// returns every interned pair, in the resume seed's order.
    fn into_pairs(self, stats: &mut EngineStats) -> Vec<(Ps, G)>;
}

/// The sequential step phase: every id in turn, on the single-threaded
/// [`Interner`].
struct SequentialPhase<'f, Ps, G, F> {
    step: &'f F,
    interner: Interner<(Ps, G), StateId>,
    /// The interner's length at the last mark.
    mark: usize,
}

impl<Ps, G, S, F> StepPhase<Ps, G, S> for SequentialPhase<'_, Ps, G, F>
where
    Ps: Value + Ord + Hash + StateRoots + std::fmt::Debug,
    G: Value + Ord + Hash,
    S: StoreLike<Ps::Addr> + StoreDelta<Ps::Addr> + Value,
    F: StepFn<Ps, G, S>,
{
    fn kind(&self) -> PhaseKind {
        PhaseKind::Sequential
    }

    fn intern(&mut self, pair: (Ps, G)) -> StateId {
        self.interner.intern(pair)
    }

    fn mark(&mut self) {
        self.mark = self.interner.len();
    }

    fn minted(&self) -> Vec<StateId> {
        (self.mark..self.interner.len())
            .map(StateId::from_index)
            .collect()
    }

    fn run<T: TraceSink>(
        &mut self,
        jobs: Vec<Job<S, Ps::Addr>>,
        store: &S,
        _rebuild: bool,
        _round: usize,
        sink: &mut T,
    ) -> PhaseRun<S, Ps::Addr> {
        let armed = sink.enabled();
        let mut phase_watch = Stopwatch::start(armed);
        let mut entries = Vec::with_capacity(jobs.len());
        for (id, baseline) in jobs {
            let mut step_watch = Stopwatch::start(armed);
            let (ps, guts) = self.interner.resolve(id).clone();
            let interner = &mut self.interner;
            let entry = step_entry(self.step, ps, guts, store, baseline.as_ref(), |k| {
                interner.intern(k)
            });
            if armed {
                let ns = step_watch.lap_ns();
                sink.state_cost(id, ns, || {
                    label_of(&self.interner.resolve(id).0, STATE_LABEL_MAX)
                });
            }
            entries.push((id, entry));
        }
        let ns = phase_watch.lap_ns();
        PhaseRun {
            entries,
            gauges: EngineStats::default(),
            busy_ns: ns,
            wall_ns: ns,
        }
    }

    #[cfg(debug_assertions)]
    fn peek(&self, id: StateId) -> (Ps, G) {
        self.interner.resolve(id).clone()
    }

    #[cfg(debug_assertions)]
    fn lookup(&self, pair: &(Ps, G)) -> Option<StateId> {
        self.interner.get(pair)
    }

    fn into_pairs(self, stats: &mut EngineStats) -> Vec<(Ps, G)> {
        stats.intern_hits = self.interner.hits();
        stats.intern_misses = self.interner.misses();
        stats.distinct_states = self.interner.len();
        self.interner.into_values()
    }
}

/// Installs freshly stepped entries in the flat cache and the reverse
/// dependency index, replacing any previous entry (a semi-naive entry is
/// merged with it first), and counts their work.  Reports whether a
/// re-step *shrank* — the signal that the step function is not monotone on
/// this round's iterate.
fn install<S, A>(
    entries: Vec<(StateId, InternedEntry<S, A>)>,
    cache: &mut InternedCache<S, A>,
    dependents: &mut IdDependents<A>,
    stats: &mut EngineStats,
) -> bool
where
    A: Clone + Eq + Hash,
{
    let mut shrank = false;
    for (id, mut entry) in entries {
        stats.states_stepped += 1;
        stats.spine_clones += 1;
        stats.dep_edges += entry.deps.len();
        stats.branches_folded += entry.branches;
        stats.gc_filter_visited += entry.gc_visited;
        if cache.len() <= id.index() {
            cache.resize_with(id.index() + 1, || None);
        }
        let slot = &mut cache[id.index()];
        if let Some(old) = slot.take() {
            stats.reenqueued += 1;
            // A semi-naive entry holds its fresh branches only; the old
            // ones replay cached successors (see the module docs).
            if entry.merge {
                entry.successors = sorted_union(&old.successors, &entry.successors);
            }
            // The non-monotonicity detector, on ids: a re-step that loses
            // a successor.  The structural engine additionally compares
            // full result stores, but with delta entries the store half is
            // vacuous — the old delta was folded into the accumulated
            // store the round it was computed, so it is below every later
            // pre-store by construction.
            shrank |= !sorted_subset(&old.successors, &entry.successors);
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
    }
    shrank
}

/// The debug build's check of the semi-naive argument: re-steps each
/// merged id in full against the same pre-store and asserts that the
/// merged entry has the full step's successors, delta, read set and deps.
/// It interns nothing and counts nothing, so the solve it checks is the
/// release build's solve.
#[cfg(debug_assertions)]
fn check_semi_naive<Ps, G, S, F, P>(
    phase: &P,
    step: &F,
    store: &S,
    cache: &InternedCache<S, Ps::Addr>,
    merged: &[StateId],
) where
    Ps: Value + Ord + Hash + StateRoots,
    G: Value + Ord + Hash,
    S: StoreLike<Ps::Addr> + StoreDelta<Ps::Addr> + Value,
    F: StepFn<Ps, G, S>,
    P: StepPhase<Ps, G, S>,
{
    for &id in merged {
        let (ps, guts) = phase.peek(id);
        let full = step_entry(step, ps, guts, store, None, |pair| {
            phase
                .lookup(&pair)
                .expect("a full re-step reached a state its semi-naive re-step missed")
        });
        let entry = cache[id.index()]
            .as_ref()
            .expect("a merged entry is installed");
        let reads = |e: &InternedEntry<S, Ps::Addr>| e.baseline.as_ref().map(Baseline::reads);
        assert_eq!(entry.successors, full.successors, "{id}: successors");
        assert!(entry.delta == full.delta, "{id}: delta");
        assert_eq!(entry.deps, full.deps, "{id}: deps");
        assert_eq!(reads(entry), reads(&full), "{id}: reads");
    }
}

/// The id-indexed shared-store solve, governed and traced: the one round
/// loop behind every driver (see the module docs), with `phase` stepping
/// each round's ids.  Starts fresh or from a resume seed; a resumed solve
/// re-steps every carried state once — rebuilding the cache and dependency
/// index the partial run discarded — and then converges normally.
pub(crate) fn solve_shared<Ps, G, S, F, T, P>(
    mut phase: P,
    step: &F,
    from: SolveFrom<Ps, SharedResumeSeed<Ps, G, S>>,
    budget: &Budget,
    sink: &mut T,
) -> SharedGovernedSolve<Ps, G, S>
where
    Ps: Value + Ord + Hash + StateRoots,
    Ps::Addr: Hash,
    G: Value + Ord + Hash + HasInitial,
    S: StoreLike<Ps::Addr> + StoreDelta<Ps::Addr> + WidenLattice + Value,
    F: StepFn<Ps, G, S>,
    T: TraceSink,
    P: StepPhase<Ps, G, S>,
{
    // One flag gates every telemetry side channel: clock samples and
    // label formatting happen only when a real sink listens, and no
    // counter below ever consults it — tracing cannot perturb the solve.
    let armed = sink.enabled();
    let kind = phase.kind();
    let mut stats = EngineStats::default();
    // Per-address growth bookkeeping for the budget's widening policy:
    // decides which addresses the fold accumulates with ▽ instead of ⊔.
    // Inert (empty point set, so the widened fold *is* the join fold)
    // whenever widening is off.
    let mut widen: WidenTracker<Ps::Addr> = WidenTracker::new(&budget.widen);
    let mut cache: InternedCache<S, Ps::Addr> = Vec::new();
    let mut dependents: IdDependents<Ps::Addr> = FxHashMap::default();
    // The running accumulated store, and every id interned before the
    // current round in intern order (the states a rebuild re-steps).
    let (mut store, mut known): (S, Vec<StateId>) = match from {
        SolveFrom::Fresh(initial) => (S::bottom(), vec![phase.intern((initial, G::initial()))]),
        SolveFrom::Resume(seed) => (
            seed.store,
            seed.states
                .into_iter()
                .map(|pair| phase.intern(pair))
                .collect(),
        ),
    };
    let mut frontier: BTreeSet<StateId> = known.iter().copied().collect();

    let mut exhausted = None;
    while !frontier.is_empty() {
        // The round-boundary governance check: one branch and one relaxed
        // atomic load for an unlimited budget, no clock.  Mid-phase only
        // the cancel token is polled, by the parallel workers.
        if let Some(reason) = budget.exhausted(stats.iterations, stats.states_stepped) {
            sink.governor(GovernorTrace {
                round: stats.iterations,
                reason,
            });
            exhausted = Some(reason);
            break;
        }
        stats.iterations += 1;
        if kind != PhaseKind::Sequential {
            stats.sync_rounds += 1;
        }
        let round = stats.iterations;
        phase.mark();

        // Step phase: every frontier pair against the same pre-store (the
        // folds below land only after the whole frontier was stepped, so
        // the round sees one consistent iterate).
        // A cached pair re-steps semi-naive against its baseline; a pair
        // stepped for the first time has none.
        let jobs = frontier
            .iter()
            .map(|&id| {
                let cached = cache.get(id.index()).and_then(Option::as_ref);
                (id, cached.and_then(|entry| entry.baseline.clone()))
            })
            .collect();
        let run = phase.run(jobs, &store, false, round, sink);
        let (mut busy_ns, mut wall_ns) = (run.busy_ns, run.wall_ns);
        let stale = run.gauges.stale_merges > 0;
        stats.merge(&run.gauges);
        let mut stepped = run.entries.len();
        // The ids stepped this round, whose contributions it folds in
        // ascending order (pool phases return them in worker order).
        let mut fold: Vec<StateId> = run.entries.iter().map(|(id, _)| *id).collect();
        fold.sort_unstable();
        #[cfg(debug_assertions)]
        let merged: Vec<StateId> = run
            .entries
            .iter()
            .filter(|(_, entry)| entry.merge)
            .map(|(id, _)| *id)
            .collect();
        let mut join_watch = Stopwatch::start(armed);
        let shrank = install(run.entries, &mut cache, &mut dependents, &mut stats);
        let mut join_ns = join_watch.lap_ns();
        #[cfg(debug_assertions)]
        check_semi_naive(&phase, step, &store, &cache, &merged);

        if shrank {
            // Rebuild round: a contribution shrank, so the step function
            // is not monotone on this iterate and the fast path's
            // dependency-validity argument is off the table.  Re-step
            // *every* known pair against the same pre-store and fold all
            // of the fresh contributions — the round becomes literally the
            // accumulated Kleene iterate `current ⊔ f(current)`.  Elastic
            // workers stepped against their private views, so their ids
            // are re-stepped too.
            stats.rebuild_rounds += 1;
            let mut rest: BTreeSet<StateId> = known.iter().copied().collect();
            if kind == PhaseKind::Elastic {
                rest.extend(fold.iter().copied());
            } else {
                rest.retain(|id| fold.binary_search(id).is_err());
            }
            let rebuild = phase.run(
                rest.into_iter().map(|id| (id, None)).collect(),
                &store,
                true,
                round,
                sink,
            );
            fold.extend(rebuild.entries.iter().map(|(id, _)| *id));
            fold.sort_unstable();
            fold.dedup();
            stats.peak_frontier = stats.peak_frontier.max(fold.len());
            busy_ns += rebuild.busy_ns;
            wall_ns += rebuild.wall_ns;
            stats.merge(&rebuild.gauges);
            stepped += rebuild.entries.len();
            join_watch.lap_ns();
            // Further shrinkage is immaterial: the whole round is already
            // being recomputed from scratch.
            install(rebuild.entries, &mut cache, &mut dependents, &mut stats);
        } else {
            stats.peak_frontier = stats.peak_frontier.max(frontier.len());
            // Everything off the frontier is served from the accumulated
            // domain without being visited at all.
            stats.cache_hits += known.len() - frontier.len();
        }

        // Fold phase: only the re-stepped contributions — and only their
        // store *deltas* — with the per-address growth report and the
        // spine adopted by reference falling straight out of the in-place
        // join.
        let mut changed_addrs: BTreeSet<Ps::Addr> = BTreeSet::new();
        let mut adopted = 0;
        for &id in &fold {
            let entry = cache[id.index()].as_ref().expect("fold of an unstepped id");
            stats.store_joins += 1;
            stats.spine_clones += 1;
            if armed {
                // Join-traffic attribution: which addresses this
                // contribution bound, and which of them actually grew.
                let bound = entry.delta.addresses();
                let changed =
                    store.widen_in_place_delta(entry.delta.clone(), widen.points(), &mut adopted);
                for a in &bound {
                    sink.join_traffic(&label_of(a, ADDR_LABEL_MAX), changed.contains(a));
                }
                changed_addrs.extend(changed);
            } else {
                changed_addrs.extend(store.widen_in_place_delta(
                    entry.delta.clone(),
                    widen.points(),
                    &mut adopted,
                ));
            }
        }
        let (joined, widened) = widen.classify(&changed_addrs);
        stats.store_joins_applied += joined;
        stats.widen_applied += widened;
        widen.record(&changed_addrs);
        stats.store_bytes_shared = stats.store_bytes_shared.max(adopted);
        join_ns += join_watch.lap_ns();
        // The round's phase split: the slowest worker's busy time is the
        // step share, install and fold are the join share, and whatever
        // remains of the phase walls is barrier/coordination overhead.
        sink.round(RoundTrace {
            round,
            frontier: frontier.len(),
            stepped,
            joins: fold.len(),
            delta_width: changed_addrs.len(),
            rebuild: shrank,
            step_ns: busy_ns,
            join_ns,
            sync_ns: wall_ns.saturating_sub(busy_ns),
        });
        if kind == PhaseKind::Elastic {
            sink.merge(MergeTrace {
                round,
                entries: fold.len(),
                changed: changed_addrs.len(),
                stale,
                merge_ns: join_ns,
            });
        }

        // Next frontier: the ids minted this round that no phase stepped
        // (discoveries, and the ids an elastic worker minted but parked),
        // plus every cached dependent of an address that grew.
        let minted = phase.minted();
        let mut next: BTreeSet<StateId> = minted
            .iter()
            .copied()
            .filter(|id| cache.get(id.index()).and_then(Option::as_ref).is_none())
            .collect();
        known.extend(minted);
        for a in &changed_addrs {
            if let Some(ids) = dependents.get(a) {
                next.extend(ids.iter().copied());
            }
        }
        frontier = next;
    }

    // Un-intern only here, at the boundary: the structural domain is
    // assembled once, from the interned pairs.
    let pairs = phase.into_pairs(&mut stats);
    let states: BTreeSet<(Ps, G)> = pairs.iter().cloned().collect();
    let outcome = match exhausted {
        None => {
            // The decreasing pass: only after a *complete* widened solve
            // (an exhausted partial is not a post-fixpoint, so narrowing
            // it would not be meaningful).  It is a pure function of the
            // final (states, store) pair, so every driver that reached the
            // same widened fixpoint narrows to the same store.
            if budget.widen.enabled && budget.widen.narrow_passes > 0 {
                narrow_store_post_pass(
                    &states,
                    &mut store,
                    step,
                    budget.widen.narrow_passes,
                    budget,
                );
            }
            Outcome::Complete(SharedStoreDomain::from_parts(states, store))
        }
        Some(reason) => {
            let resume_seed = Box::new(ResumeSeed {
                states: pairs,
                store: store.clone(),
            });
            Outcome::Exhausted {
                partial: SharedStoreDomain::from_parts(states, store),
                reason,
                resume_seed,
            }
        }
    };
    (outcome, stats)
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
        let phase = SequentialPhase {
            step,
            interner: Interner::new(),
            mark: 0,
        };
        solve_shared(phase, step, from, budget, sink)
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
        let mut adopted = 0;
        for key in &fold_keys {
            let entry = &cache[key];
            stats.store_joins += 1;
            stats.spine_clones += 1;
            for succ in &entry.successors {
                if current.insert_state(succ.clone()) {
                    discovered.push(succ.clone());
                }
            }
            changed_addrs.extend(current.store_mut().widen_in_place_delta(
                entry.store.clone(),
                &BTreeSet::new(),
                &mut adopted,
            ));
        }
        stats.store_joins_applied += changed_addrs.len();
        stats.store_bytes_shared = stats.store_bytes_shared.max(adopted);
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
                            store.fetch(&0u8).iter().cloned().collect()
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
                let fetched =
                    <M as MonadTrans>::lift(
                        crate::monad::gets_nd_set::<StateT<S, VecM>, S, Ptr, _>(|store| {
                            store.fetch(&0u8).iter().cloned().collect()
                        }),
                    );
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

    /// Solves `step` from `initial` on the sequential phase, the barrier
    /// phase (1, 2 and 4 threads) and the elastic phase (2 threads × 2 and
    /// 4 epochs), and asserts that every fixpoint equals `kleene` and is
    /// certified.  The machines handed in read a cell before another state
    /// writes it, so only a re-step after the write reaches Kleene's
    /// fixpoint.  The pool phases matter too: elastic's staleness check
    /// reads the entries' `deps`, so a read-set gap on a worker would show
    /// up there.
    fn assert_reader_sees_the_later_write<P, F>(
        step: &F,
        initial: P,
        kleene: &SharedStoreDomain<P, G, S>,
    ) where
        P: Value + Ord + Hash + StateRoots<Addr = u8> + Send + Sync + std::fmt::Debug,
        F: StepFn<P, G, S>,
    {
        use super::super::{certify, ParallelCollecting, ParallelConfig};

        let (sequential, _) =
            <SharedStoreDomain<P, G, S> as DirectCollecting<P, G, S>>::explore_frontier_direct(
                step,
                initial.clone(),
            );
        let mut solves = vec![("sequential".to_string(), sequential)];
        let barrier = [1, 2, 4].map(ParallelConfig::barrier);
        let elastic = [2, 4].map(|epochs| ParallelConfig::elastic(2, epochs));
        for config in barrier.into_iter().chain(elastic) {
            let (pooled, _) =
                <SharedStoreDomain<P, G, S> as ParallelCollecting<P, G, S>>::explore_frontier_parallel(
                    step,
                    initial.clone(),
                    config,
                );
            solves.push((format!("{config:?}"), pooled));
        }
        for (phase, fixpoint) in solves {
            assert_eq!(&fixpoint, kleene, "{phase}");
            let report = certify(&fixpoint, step);
            assert!(report.certified(), "{phase}: {report}");
        }
    }

    /// Runs [`reader_step`] through every phase: state 1's first step saw
    /// an empty cell, so only a re-step reaches the pointer's target, state
    /// 15.
    fn assert_every_phase_re_steps_the_reader(fallthrough: bool) {
        let step = reader_step(fallthrough);
        let kleene: SharedStoreDomain<Rd, G, S> = explore_fp::<M, Rd, _, _>(&step, Rd(0));
        assert!(kleene.states().iter().any(|(ps, _)| ps.0 == 15));
        let direct = |ps: Rd, g: G, s: S| run_store_passing(step(ps), g, s);
        assert_reader_sees_the_later_write(&direct, Rd(0), &kleene);
    }

    /// A state rendered as a long string and then a number, so that two
    /// states can share their hot-spot label.
    #[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
    struct Padded(String, u8);

    impl StateRoots for Padded {
        type Addr = u8;

        fn state_roots(&self) -> BTreeSet<u8> {
            BTreeSet::new()
        }
    }

    /// Two states whose renderings agree in their first
    /// [`STATE_LABEL_MAX`] characters are two hot states, each stepped
    /// once, on every engine that attributes step costs: the sequential
    /// phase, both pool phases (through their worker buffers) and the
    /// per-state engine.
    #[test]
    fn states_sharing_a_label_are_separate_hot_states() {
        use super::super::{ParallelCollecting, ParallelConfig};
        use crate::collect::PerStateDomain;
        use crate::telemetry::TraceBuffer;

        type Shared = SharedStoreDomain<Padded, G, S>;
        let step = |ps: Padded, g: G, s: S| match ps.1 {
            0 => vec![((Padded(ps.0, 1), g), s)],
            _ => Vec::new(),
        };
        let initial = Padded("x".repeat(STATE_LABEL_MAX), 0);
        let last = Padded(initial.0.clone(), 1);
        assert_eq!(
            label_of(&initial, STATE_LABEL_MAX),
            label_of(&last, STATE_LABEL_MAX)
        );

        let mut traces = Vec::new();
        let mut trace = TraceBuffer::new();
        Shared::explore_frontier_direct_traced(&step, initial.clone(), &mut trace);
        traces.push(("sequential".to_string(), trace));
        for config in [ParallelConfig::barrier(2), ParallelConfig::elastic(2, 2)] {
            let mut trace = TraceBuffer::new();
            Shared::explore_frontier_parallel_traced(&step, initial.clone(), config, &mut trace);
            traces.push((format!("{config:?}"), trace));
        }
        let mut trace = TraceBuffer::new();
        <PerStateDomain<Padded, G, S> as DirectCollecting<Padded, G, S>>::explore_frontier_direct_traced(
            &step,
            initial.clone(),
            &mut trace,
        );
        traces.push(("per-state".to_string(), trace));

        for (engine, trace) in traces {
            let hot = trace.top_states(10);
            assert_eq!(hot.len(), 2, "{engine}: {hot:?}");
            assert!(hot.iter().all(|h| h.steps == 1), "{engine}: {hot:?}");
        }
    }

    #[test]
    fn an_empty_fetch_with_no_successors_is_still_a_dependency() {
        // State 1's first step has no branch at all: its read must reach
        // the journal through the armed pre-store, not a branch store.
        assert_every_phase_re_steps_the_reader(false);
    }

    #[test]
    fn a_reader_without_roots_is_re_enqueued_by_a_write_to_its_cell() {
        assert_every_phase_re_steps_the_reader(true);
    }

    /// The cells of the GC machine: state 1 writes `W`, state 4 writes a
    /// pointer to `W` into `R`.
    const W: u8 = 1;
    const R: u8 = 2;

    /// States of the GC machine.  State 3's only root is cell `R`.
    #[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
    struct Gc(u32);

    impl StateRoots for Gc {
        type Addr = u8;

        fn state_roots(&self) -> BTreeSet<u8> {
            if self.0 == 3 {
                [R].into_iter().collect()
            } else {
                BTreeSet::new()
            }
        }
    }

    /// `0 → {1, 2}`, `1` writes `W := {Ptr(7)}` and goes to `3`, `2 → 4`,
    /// and `4` writes `R := {Ptr(W)}` and goes to `3`.  Under abstract GC
    /// the write to `W` survives only once `R` points at it: state 1 is
    /// stepped while `R` is still empty, so GC drops `W`, and only a
    /// re-step after state 4's write keeps it.  The read that makes that
    /// re-step happen is the GC sweep's visit of `R`.
    fn gc_machine(st: Gc) -> <M as MonadFamily>::M<Gc> {
        let write = |cell: u8, ptr: u8, next: u32| {
            let write = <M as MonadTrans>::lift(<StateT<S, VecM> as MonadState<S>>::modify(
                move |store: S| store.bind(cell, [Ptr(ptr)].into_iter().collect()),
            ));
            M::bind(write, move |_| M::pure(Gc(next)))
        };
        match st.0 {
            0 => M::mplus(M::pure(Gc(1)), M::pure(Gc(2))),
            1 => write(W, 7, 3),
            2 => M::pure(Gc(4)),
            4 => write(R, W, 3),
            _ => M::pure(st),
        }
    }

    #[test]
    fn a_write_reachable_only_after_another_cell_grows_is_kept() {
        use super::super::with_state_gc;
        use crate::collect::with_gc;
        use crate::gc::ReachableGc;

        let kleene: SharedStoreDomain<Gc, G, S> =
            explore_fp::<M, Gc, _, _>(with_gc::<M, Gc, _, _>(gc_machine, ReachableGc), Gc(0));
        assert_eq!(kleene.store().fetch(&W), [Ptr(7)].into_iter().collect());
        let direct = with_state_gc(|ps: Gc, g: G, s: S| run_store_passing(gc_machine(ps), g, s));
        assert_reader_sees_the_later_write(&direct, Gc(0), &kleene);

        // State 1 has no reads, so a semi-naive re-step would replay its
        // one branch as old and drop it, write and all.  An entry whose GC
        // dropped a write re-steps in full instead.  Branches folded, round
        // by round: 0 makes two; 1 (dropping W) and 2 one each; 3 and 4 one
        // each; 4's write to R re-steps 1 in full (one branch, W kept) and
        // 4 semi-naive (old, none); W's growth re-steps 1, now semi-naive
        // (old, none).  A semi-naive round-4 re-step of 1 would fold six.
        let (fixpoint, stats) =
            <SharedStoreDomain<Gc, G, S> as DirectCollecting<Gc, G, S>>::explore_frontier_direct(
                &direct,
                Gc(0),
            );
        assert_eq!(fixpoint, kleene);
        assert_eq!(stats.states_stepped, 8, "{stats}");
        assert_eq!(stats.branches_folded, 7, "{stats}");
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

        let ptrs: crate::env::PSet<Ptr> = [Ptr(7)].into_iter().collect();
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
