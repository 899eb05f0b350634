//! The **barrier-elastic** sharded parallel driver: epoch-based lazy
//! shard merging on top of the PR-5 pool.
//!
//! The barrier engine ([`super`]) synchronises every round: workers step
//! the frontier against one store snapshot, then *everyone* meets at the
//! join-on-sync barrier where the coordinator folds the per-shard deltas.
//! When consecutive rounds touch disjoint address sets — the lanes-shaped
//! `kcfa_worst_case_scaled` family is the committed example — that
//! barrier is pure coordination cost: each worker's next work item is a
//! state *it just minted itself*, and nothing it reads was written by
//! another shard.
//!
//! This driver lets workers keep going.  Between two barriers each worker
//! advances a private **sub-frontier** for up to
//! [`ParallelConfig::epochs`] *epochs*:
//!
//! * epoch 1 steps the worker's slice of the published frontier (always
//!   to completion — this is what guarantees global progress per round);
//! * the ids a worker's own `intern_fresh` calls *mint* form its next
//!   epoch's sub-frontier (a state interned first by this worker is
//!   stepped by this worker — sub-frontiers stay disjoint by
//!   construction);
//! * every step runs against the worker's private **view**: the round's
//!   store snapshot joined with the worker's own accumulated deltas, so
//!   chains advance within a single round instead of one barrier per
//!   link.
//!
//! ## The staleness argument
//!
//! A worker never sees another shard's epoch deltas until the merge, so a
//! step may read a *stale* binding.  That is safe, for the reason the
//! ROADMAP asks to be made explicit:
//!
//! 1. **Every view is bounded**: `snapshot ⊑ view ⊑ snapshot ⊔ (all
//!    round deltas) = next snapshot ⊑ final store`.  For the
//!    effectively-monotone step functions of the analyses (more store ⇒
//!    more flows), stepping against a smaller store can only *miss*
//!    successors/bindings, never invent wrong ones — and extra steps
//!    against a larger view are harmless for the same reason.
//! 2. **Missed deltas re-enqueue the reader.**  Each installed entry
//!    records the addresses its step read (`deps`), and the merge folds
//!    *every* delta produced this round, reporting exactly the addresses
//!    that grew.  A stale reader's address is in that changed set, so the
//!    reverse dependency index re-seeds the reader into the next
//!    frontier, where it re-steps against a store that *includes* the
//!    missed delta.  Fixpoint iteration then converges exactly as the
//!    sequential engine does.
//! 3. **Staleness is also bounded eagerly**: each shard owns the
//!    addresses that hash to it and bumps a per-shard atomic **epoch
//!    counter** whenever an epoch produced a delta.  A worker that reads
//!    an address whose owner has published a newer epoch than the
//!    worker's phase-start snapshot stops elastic progression and
//!    requests the merge ([`EngineStats::stale_merges`]), so shards
//!    racing on the same addresses degrade gracefully towards the
//!    barrier engine instead of piling up re-work.
//!
//! The consequence, and the contract the differential suite pins: the
//! **fixpoint is byte-identical to the sequential direct engine**, while
//! the *work counters* (steps, epochs, memo traffic) are
//! timing-dependent — an elastic run may legitimately step a state more
//! (or fewer) times than the barrier engine.  Only fixpoint equality is
//! asserted; never step-count parity.  `epochs = 1` delegates to the
//! barrier engine, counters and all.
//!
//! Non-monotone steps keep the PR-2 defence: a re-step whose successor
//! set shrinks aborts elastic progression immediately and triggers a
//! single-epoch *rebuild* phase that re-steps every known state against
//! the same pre-store, exactly as the barrier engine does.
//!
//! ## Per-worker intern memos
//!
//! Every `resolve_cloned`/`intern` in the barrier engine's hot loop takes
//! a stripe mutex on the shared [`ShardedInterner`].  Elastic workers
//! front it with a private [`WorkerInternCache`] that persists across
//! phases, so re-touched states are resolved and re-interned without any
//! lock; the hit/miss counters surface as
//! `EngineStats::worker_cache_hits/misses` and the remaining stripe
//! traffic as [`EngineStats::stripe_acquisitions`].

use std::any::Any;
use std::collections::BTreeSet;
use std::hash::Hash;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError, RwLock};

use crate::addr::HasInitial;
use crate::collect::SharedStoreDomain;
use crate::gc::Touches;
use crate::hash::{fx_hash_of, FxHashMap};
use crate::intern::{
    InternKey, ShardedInterner, StateId, WorkerInternCache, WORKER_CACHE_CAPACITY,
};
use crate::monad::Value;
use crate::store::{StoreDelta, StoreLike};
use crate::telemetry::{
    label_of, GovernorTrace, GovernorTraceKind, MergeTrace, RoundTrace, Stopwatch, TraceSink,
    WorkerBuffer,
};

use super::super::governor::{fault_point, Budget, CancelToken, ExhaustReason, Outcome, SolveFrom};
use super::super::shared::{
    sorted_subset, step_entry, IdDependents, InternedCache, InternedEntry, SharedGovernedSolve,
    SharedResumeSeed, ADDR_LABEL_MAX, STATE_LABEL_MAX,
};
#[cfg(test)]
use super::super::ParallelCollecting;
use super::super::{narrow_store_post_pass, EngineStats, StateRoots, StepFn, WidenTracker};
use super::{install_entries, solve_parallel_governed, ParallelConfig, SpinBarrier};
use crate::lattice::WidenLattice;

/// The shard that *owns* an address: the publisher of its epoch counter.
/// A pure function of the address, so every worker agrees without
/// coordination.
#[inline]
fn owner_of<A: Hash>(addr: &A, shards: usize) -> usize {
    (fx_hash_of(addr) as usize) % shards
}

/// One elastic phase, as published to the worker pool: per-worker
/// sub-frontier slices (no stealing — elastic shard ownership is what
/// keeps sub-frontiers disjoint), the round's store snapshot, and the
/// epoch budget (1 for rebuild phases).
struct ElasticPhase<S> {
    /// Per-worker initial sub-frontiers (disjoint, ascending ids).
    shards: Vec<Vec<StateId>>,
    /// The pre-round store snapshot every view starts from.
    store: S,
    /// Maximum epochs a worker may run before the merge.
    epochs: usize,
    /// Whether workers should record into their trace buffers.
    trace: bool,
    /// The governing budget's cancellation flag: polled inside
    /// interruptible epochs (epoch 1 always completes — that is the
    /// progress guarantee), so cancel latency is bounded by one epoch.
    cancel: CancelToken,
}

/// One worker's output for an elastic phase.  `unstepped` carries the
/// fresh ids the worker minted but did not step before exiting (epoch
/// budget, stale read, or merge request) — the coordinator seeds them
/// into the next round's frontier.
struct ElasticOutcome<S, A> {
    worker: usize,
    entries: Vec<(StateId, InternedEntry<S, A>)>,
    stats: EngineStats,
    shrank: bool,
    processed: usize,
    unstepped: Vec<StateId>,
    trace: WorkerBuffer,
}

/// The body of one worker for one elastic phase: run up to `phase.epochs`
/// epochs over the private sub-frontier, stepping against the private
/// view, minting the next epoch from own-fresh ids, and exiting early on
/// drain, stale read, shrink, or a merge request from another shard.
#[allow(clippy::too_many_arguments)]
fn run_elastic_worker_phase<Ps, G, S, F>(
    me: usize,
    step: &F,
    phase: &ElasticPhase<S>,
    interner: &ShardedInterner<(Ps, G), StateId>,
    cache: &InternedCache<S, Ps::Addr>,
    shard_epochs: &[AtomicUsize],
    merge_requested: &AtomicBool,
    memo: &mut WorkerInternCache<(Ps, G), StateId>,
) -> ElasticOutcome<S, Ps::Addr>
where
    Ps: Value + Ord + Hash + StateRoots + Send + Sync,
    Ps::Addr: Hash,
    G: Value + Ord + Hash + Send + Sync,
    S: StoreLike<Ps::Addr> + StoreDelta<Ps::Addr> + Value,
    S::D: Touches<Ps::Addr>,
    F: StepFn<Ps, G, S>,
{
    let mut outcome = ElasticOutcome {
        worker: me,
        entries: Vec::new(),
        stats: EngineStats::default(),
        shrank: false,
        processed: 0,
        unstepped: Vec::new(),
        trace: WorkerBuffer::default(),
    };
    let trace = phase.trace;
    let shards = shard_epochs.len();
    // Single-epoch phases (rebuild rounds, and the `epochs = 1` knob
    // before it delegates) skip the elastic machinery entirely: no view
    // folding, no staleness detection, no publication.
    let multi_epoch = phase.epochs > 1;
    let mut busy_watch = Stopwatch::start(trace);
    // The phase-start snapshot of every shard's published epoch: a read
    // of an address whose owner has moved past this is a stale read.
    let epoch_base: Vec<usize> = shard_epochs
        .iter()
        .map(|e| e.load(Ordering::Acquire))
        .collect();
    // The private view: the round snapshot plus this worker's own folded
    // deltas.  One whole-store clone per phase (spine-shared, so cheap).
    let mut view: Option<S> = multi_epoch.then(|| phase.store.clone());
    let mut frontier: Vec<StateId> = phase.shards[me].clone();
    let mut stale = false;
    let mut epoch = 0usize;
    loop {
        epoch += 1;
        outcome.stats.epochs_run += 1;
        let mut epoch_watch = Stopwatch::start(trace);
        let mut fresh: Vec<StateId> = Vec::new();
        let mut epoch_changed = false;
        let stepped_before = outcome.processed;
        // Epoch 1 always runs to completion: every published frontier id
        // is stepped every round, which is what guarantees the solve
        // makes progress no matter how eagerly other shards request
        // merges.  Later epochs are best-effort and yield promptly.
        let interruptible = epoch > 1;
        let mut cut = frontier.len();
        for (i, &id) in frontier.iter().enumerate() {
            if interruptible
                && (stale || merge_requested.load(Ordering::Relaxed) || phase.cancel.is_cancelled())
            {
                cut = i;
                break;
            }
            fault_point(me);
            outcome.stats.states_stepped += 1;
            outcome.stats.spine_clones += 1;
            outcome.processed += 1;
            let mut step_watch = Stopwatch::start(trace);
            let (ps, guts) = memo.resolve_cloned(interner, id);
            let base = view.as_ref().unwrap_or(&phase.store);
            let entry = step_entry(step, ps, guts, base, |k| {
                let (sid, minted) = memo.intern_fresh(interner, k);
                if minted {
                    fresh.push(sid);
                }
                sid
            });
            outcome.stats.dep_edges += entry.deps.len();
            if trace {
                outcome.trace.costs.push((id, step_watch.lap_ns()));
            }
            if let Some(old) = cache.get(id.index()).and_then(Option::as_ref) {
                outcome.stats.reenqueued += 1;
                if !sorted_subset(&old.successors, &entry.successors) {
                    // Non-monotone re-step: abandon elastic progression
                    // at once — the coordinator will run a rebuild phase
                    // from the unmerged pre-store.
                    outcome.shrank = true;
                    stale = true;
                }
            }
            if multi_epoch {
                // Staleness: did this step read an address whose owner
                // shard has published since our snapshot?  (Our own
                // shard's writes are in the view already.)
                for a in &entry.deps {
                    let owner = owner_of(a, shards);
                    if owner != me
                        && shard_epochs[owner].load(Ordering::Acquire) > epoch_base[owner]
                    {
                        stale = true;
                    }
                }
                // Fold our own delta into the private view so our chains
                // advance within this round.
                outcome.stats.spine_clones += 1;
                let changed = view
                    .as_mut()
                    .expect("multi-epoch phase has a view")
                    .join_in_place_delta(entry.delta.clone());
                epoch_changed |= !changed.is_empty();
            }
            outcome.entries.push((id, entry));
        }
        // Publish before recording/exiting: other shards reading our
        // addresses must see that our accumulated delta grew this epoch.
        if epoch_changed {
            shard_epochs[me].fetch_add(1, Ordering::Release);
        }
        if trace {
            outcome.trace.epochs.push((
                epoch,
                outcome.processed - stepped_before,
                fresh.len(),
                stale,
                epoch_watch.lap_ns(),
            ));
        }
        if cut < frontier.len() {
            // Interrupted mid-epoch: park the rest (all fresh-minted this
            // phase, so they have no entries yet) for the next frontier.
            outcome.unstepped.extend_from_slice(&frontier[cut..]);
            outcome.unstepped.extend(fresh);
            break;
        }
        if stale {
            outcome.stats.stale_merges += 1;
            merge_requested.store(true, Ordering::Release);
            outcome.unstepped.extend(fresh);
            break;
        }
        if fresh.is_empty() {
            // Sub-frontier drained: our only possible next work comes
            // from the dependency-index re-seed, which needs the merge.
            if multi_epoch && outcome.processed > 0 {
                merge_requested.store(true, Ordering::Release);
            }
            break;
        }
        if epoch == phase.epochs
            || merge_requested.load(Ordering::Acquire)
            || phase.cancel.is_cancelled()
        {
            outcome.unstepped.extend(fresh);
            break;
        }
        frontier = fresh;
    }
    outcome.trace.busy_ns = busy_watch.lap_ns();
    outcome
}

/// The governed elastic solve: the one implementation behind both the
/// classic and the governed elastic entry points (see
/// [`ParallelCollecting::explore_frontier_elastic_traced`]).
///
/// Returns `Err` with the original panic payload when a worker panicked;
/// the pool is always drained and shut down first.
pub(super) fn solve_elastic_governed<Ps, G, S, F, T>(
    step: &F,
    from: SolveFrom<Ps, SharedResumeSeed<Ps, G, S>>,
    config: ParallelConfig,
    budget: &Budget,
    sink: &mut T,
) -> Result<SharedGovernedSolve<Ps, G, S>, Box<dyn Any + Send>>
where
    Ps: Value + Ord + Hash + StateRoots + Send + Sync + std::fmt::Debug,
    Ps::Addr: Hash,
    G: Value + Ord + Hash + HasInitial + Send + Sync,
    S: StoreLike<Ps::Addr> + StoreDelta<Ps::Addr> + WidenLattice + Value,
    S::D: Touches<Ps::Addr>,
    F: StepFn<Ps, G, S>,
    T: TraceSink,
{
    let threads = config.threads.max(1);
    let epochs = config.epochs.max(1);
    if epochs == 1 {
        // One epoch per round *is* the barrier protocol — delegate so the
        // knob is exactly equivalent (work counters included).
        return solve_parallel_governed(step, from, threads, budget, sink);
    }
    let armed = sink.enabled();
    let mut stats = EngineStats::default();
    // Widening bookkeeping lives only at the coordinator's lazy merge:
    // worker views fold their own deltas with the plain join (an epoch is
    // bounded, so elastic progression cannot diverge between merges), and
    // points are selected from merge-round growth.  Point selection is
    // therefore timing-dependent here — which is why `widen_applied` is
    // exempt from cross-engine gating for this driver — and so, in
    // general, is the widened post-fixpoint itself: merge timing feeds the
    // tracker different growth counts, so different addresses can cross
    // the threshold and widen, and `▽` is not monotone in where it is
    // applied.  Every outcome is a sound post-fixpoint of the same
    // semantics (termination needs only *some* eventually-widened
    // accumulation per unstable address), but byte-identity with the
    // sequential engines is a per-workload property, not a driver
    // guarantee: it holds when every point-selection schedule saturates
    // the same bounds (e.g. the E16 counting loop, whose single cell
    // widens its unstable upper bound to +∞ under any schedule), and the
    // bench harness asserts elastic parity only on such workloads.
    let mut widen: WidenTracker<Ps::Addr> = WidenTracker::new(&budget.widen);
    let interner: ShardedInterner<(Ps, G), StateId> = ShardedInterner::new();
    let cache_lock: RwLock<InternedCache<S, Ps::Addr>> = RwLock::new(Vec::new());
    let mut dependents: IdDependents<Ps::Addr> = FxHashMap::default();
    let mut known_ids: Vec<StateId> = Vec::new();

    // Fresh solves inject the initial pair; resumed solves re-intern the
    // carried pairs (the whole set forms the first frontier) and start
    // from the carried store — see the barrier engine for the argument.
    let (mut store, initial_frontier): (S, BTreeSet<StateId>) = match from {
        SolveFrom::Fresh(initial) => {
            let initial_id = interner.intern((initial, G::initial()));
            known_ids.push(initial_id);
            (S::bottom(), [initial_id].into_iter().collect())
        }
        SolveFrom::Resume(seed) => {
            for pair in seed.states {
                known_ids.push(interner.intern(pair));
            }
            (seed.store, known_ids.iter().copied().collect())
        }
    };

    // Per-shard published epoch counters and the cooperative merge flag —
    // the only coordination the elastic step phase has.
    let shard_epochs: Vec<AtomicUsize> = (0..threads).map(|_| AtomicUsize::new(0)).collect();
    let merge_requested = AtomicBool::new(false);

    let phase_slot: RwLock<Option<ElasticPhase<S>>> = RwLock::new(None);
    let outcomes: Mutex<Vec<ElasticOutcome<S, Ps::Addr>>> = Mutex::new(Vec::new());
    let worker_panics: Mutex<Vec<Box<dyn std::any::Any + Send>>> = Mutex::new(Vec::new());
    let start_barrier = SpinBarrier::new(threads + 1);
    let done_barrier = SpinBarrier::new(threads + 1);

    // The coordinator's own memo, for the inline singleton-phase path.
    let mut inline_memo: WorkerInternCache<(Ps, G), StateId> =
        WorkerInternCache::new(WORKER_CACHE_CAPACITY);

    let solve = std::thread::scope(|scope| {
        for me in 0..threads {
            let interner = &interner;
            let cache_lock = &cache_lock;
            let phase_slot = &phase_slot;
            let outcomes = &outcomes;
            let start_barrier = &start_barrier;
            let done_barrier = &done_barrier;
            let worker_panics = &worker_panics;
            let shard_epochs = &shard_epochs;
            let merge_requested = &merge_requested;
            scope.spawn(move || {
                // The worker's memo persists across phases: the hot
                // states of round r are usually re-touched in round r+1.
                let mut memo: WorkerInternCache<(Ps, G), StateId> =
                    WorkerInternCache::new(WORKER_CACHE_CAPACITY);
                loop {
                    start_barrier.wait();
                    let keep_going = catch_unwind(AssertUnwindSafe(|| {
                        let guard = phase_slot.read().unwrap_or_else(PoisonError::into_inner);
                        let Some(phase) = guard.as_ref() else {
                            return false;
                        };
                        let cache = cache_lock.read().unwrap_or_else(PoisonError::into_inner);
                        let mut outcome = run_elastic_worker_phase(
                            me,
                            step,
                            phase,
                            interner,
                            &cache,
                            shard_epochs,
                            merge_requested,
                            &mut memo,
                        );
                        drop(cache);
                        let (hits, misses) = memo.take_counters();
                        outcome.stats.worker_cache_hits = hits;
                        outcome.stats.worker_cache_misses = misses;
                        outcomes
                            .lock()
                            .unwrap_or_else(PoisonError::into_inner)
                            .push(outcome);
                        true
                    }));
                    match keep_going {
                        Ok(true) => done_barrier.wait(),
                        Ok(false) => return,
                        Err(payload) => {
                            worker_panics
                                .lock()
                                .unwrap_or_else(PoisonError::into_inner)
                                .push(payload);
                            done_barrier.wait();
                        }
                    }
                }
            });
        }

        // Publishes one elastic phase (step or rebuild, selected by the
        // epoch budget) and collects the merged outcomes.  Returns
        // `(shrank, wall_ns, max_busy_ns)`.
        let mut run_phase = |ids: Vec<StateId>,
                             store: &S,
                             phase_epochs: usize,
                             stats: &mut EngineStats,
                             results: &mut Vec<(StateId, InternedEntry<S, Ps::Addr>)>,
                             unstepped: &mut Vec<StateId>,
                             round: usize,
                             sink: &mut T|
         -> (bool, u64, u64) {
            merge_requested.store(false, Ordering::Release);
            // A singleton (or empty) frontier still benefits from
            // elasticity — the epoch loop chases the chain inline on the
            // coordinator without waking the pool at all.
            if ids.len() <= 1 {
                let phase = ElasticPhase {
                    shards: {
                        let mut shards = vec![Vec::new(); threads];
                        shards[0] = ids;
                        shards
                    },
                    store: store.clone(),
                    epochs: phase_epochs,
                    trace: armed,
                    cancel: budget.cancel.clone(),
                };
                let cache = cache_lock.read().unwrap_or_else(PoisonError::into_inner);
                let mut outcome = run_elastic_worker_phase(
                    0,
                    step,
                    &phase,
                    &interner,
                    &cache,
                    &shard_epochs,
                    &merge_requested,
                    &mut inline_memo,
                );
                drop(cache);
                let (hits, misses) = inline_memo.take_counters();
                outcome.stats.worker_cache_hits = hits;
                outcome.stats.worker_cache_misses = misses;
                stats.merge(&outcome.stats);
                let busy = outcome.trace.busy_ns;
                if armed {
                    outcome.trace.drain_into(
                        round,
                        outcome.worker,
                        outcome.processed,
                        busy,
                        sink,
                        |id| label_of(&interner.resolve_cloned(id).0, STATE_LABEL_MAX),
                    );
                }
                results.extend(outcome.entries);
                unstepped.extend(outcome.unstepped);
                return (outcome.shrank, busy, busy);
            }
            let len = ids.len();
            let shards: Vec<Vec<StateId>> = (0..threads)
                .map(|t| ids[t * len / threads..(t + 1) * len / threads].to_vec())
                .collect();
            *phase_slot.write().unwrap_or_else(PoisonError::into_inner) = Some(ElasticPhase {
                shards,
                store: store.clone(),
                epochs: phase_epochs,
                trace: armed,
                cancel: budget.cancel.clone(),
            });
            let mut wall_watch = Stopwatch::start(armed);
            start_barrier.wait();
            done_barrier.wait();
            let wall_ns = wall_watch.lap_ns();
            *phase_slot.write().unwrap_or_else(PoisonError::into_inner) = None;
            if let Some(payload) = worker_panics
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .pop()
            {
                resume_unwind(payload);
            }
            let mut shrank = false;
            let mut max_busy_ns = 0u64;
            let (mut max_processed, mut min_processed) = (0usize, usize::MAX);
            for outcome in
                std::mem::take(&mut *outcomes.lock().unwrap_or_else(PoisonError::into_inner))
            {
                shrank |= outcome.shrank;
                max_processed = max_processed.max(outcome.processed);
                min_processed = min_processed.min(outcome.processed);
                max_busy_ns = max_busy_ns.max(outcome.trace.busy_ns);
                stats.merge(&outcome.stats);
                if armed {
                    outcome.trace.drain_into(
                        round,
                        outcome.worker,
                        outcome.processed,
                        wall_ns,
                        sink,
                        |id| label_of(&interner.resolve_cloned(id).0, STATE_LABEL_MAX),
                    );
                }
                results.extend(outcome.entries);
                unstepped.extend(outcome.unstepped);
            }
            stats.shard_imbalance = stats
                .shard_imbalance
                .max(max_processed - min_processed.min(max_processed));
            (shrank, wall_ns, max_busy_ns)
        };

        let solve = catch_unwind(AssertUnwindSafe(|| {
            let mut frontier: BTreeSet<StateId> = initial_frontier;
            let mut exhausted: Option<ExhaustReason> = None;
            while !frontier.is_empty() {
                // Budget boundary: once per merge round, on the
                // coordinator; mid-round, only the cancel token is polled
                // (by the workers, inside interruptible epochs).
                if let Some(reason) = budget.exhausted(stats.iterations, stats.states_stepped) {
                    sink.governor(GovernorTrace {
                        round: stats.iterations,
                        kind: GovernorTraceKind::Exhausted(reason),
                    });
                    exhausted = Some(reason);
                    break;
                }
                stats.iterations += 1;
                stats.sync_rounds += 1;
                let known = known_ids.len();
                let marks = interner.watermarks();
                let stale_before = stats.stale_merges;

                let frontier_vec: Vec<StateId> = frontier.iter().copied().collect();
                let frontier_len = frontier_vec.len();
                let mut results: Vec<(StateId, InternedEntry<S, Ps::Addr>)> = Vec::new();
                let mut unstepped: Vec<StateId> = Vec::new();
                let round = stats.iterations;
                let (shrank, mut wall_ns, mut busy_ns) = run_phase(
                    frontier_vec,
                    &store,
                    epochs,
                    &mut stats,
                    &mut results,
                    &mut unstepped,
                    round,
                    sink,
                );
                let mut stepped_this_round = results.len();

                // Rebuild defence: a re-step shrank somewhere in the
                // elastic phase, so recompute *everything* stepped so far
                // — every known id plus every id this round touched —
                // against the same unmerged pre-store, in one plain
                // barrier-style epoch.  Install replaces the elastic
                // entries wholesale, exactly like the sequential rebuild.
                if shrank {
                    stats.rebuild_rounds += 1;
                    let mut rebuild_ids: BTreeSet<StateId> = known_ids.iter().copied().collect();
                    rebuild_ids.extend(results.iter().map(|(id, _)| *id));
                    stats.peak_frontier = stats.peak_frontier.max(rebuild_ids.len());
                    stepped_this_round += rebuild_ids.len();
                    let (_, rebuild_wall, rebuild_busy) = run_phase(
                        rebuild_ids.into_iter().collect(),
                        &store,
                        1,
                        &mut stats,
                        &mut results,
                        &mut unstepped,
                        round,
                        sink,
                    );
                    wall_ns += rebuild_wall;
                    busy_ns += rebuild_busy;
                } else {
                    stats.peak_frontier = stats.peak_frontier.max(frontier.len());
                    stats.cache_hits += known - frontier.len();
                }

                // The lazy merge: install every entry this round produced
                // (for a duplicated id the later phase's entry wins),
                // then fold each touched id's delta once, ascending.
                let mut fold_ids: Vec<StateId> = results.iter().map(|(id, _)| *id).collect();
                fold_ids.sort_unstable();
                fold_ids.dedup();
                let mut join_watch = Stopwatch::start(armed);
                let mut cache = cache_lock.write().unwrap_or_else(PoisonError::into_inner);
                install_entries(results, interner.id_bound(), &mut cache, &mut dependents);
                let mut changed_addrs: BTreeSet<Ps::Addr> = BTreeSet::new();
                for &id in &fold_ids {
                    let entry = cache[id.index()].as_ref().expect("fold of an unstepped id");
                    stats.store_joins += 1;
                    stats.spine_clones += 1;
                    if armed {
                        let bound = entry.delta.addresses();
                        let changed =
                            store.widen_in_place_delta(entry.delta.clone(), widen.points());
                        for a in &bound {
                            sink.join_traffic(&label_of(a, ADDR_LABEL_MAX), changed.contains(a));
                        }
                        changed_addrs.extend(changed);
                    } else {
                        changed_addrs.extend(
                            store.widen_in_place_delta(entry.delta.clone(), widen.points()),
                        );
                    }
                }
                // Next frontier, part 1: fresh ids nobody stepped (the
                // parked `unstepped` ids, plus any minted by a rebuild
                // phase) — precisely the fresh ids with no entry.
                let fresh = interner.fresh_since(&marks);
                known_ids.extend(fresh.iter().copied());
                let mut next: BTreeSet<StateId> = unstepped.into_iter().collect();
                for id in fresh {
                    if cache.get(id.index()).and_then(Option::as_ref).is_none() {
                        next.insert(id);
                    }
                }
                drop(cache);
                let join_ns = join_watch.lap_ns();
                let (joined, widened) = widen.classify(&changed_addrs);
                stats.store_joins_applied += joined;
                stats.widen_applied += widened;
                widen.record(&changed_addrs);
                stats.store_bytes_shared = stats.store_bytes_shared.max(store.shared_spine_bytes());
                sink.round(RoundTrace {
                    round,
                    frontier: frontier_len,
                    stepped: stepped_this_round,
                    joins: fold_ids.len(),
                    delta_width: changed_addrs.len(),
                    rebuild: shrank,
                    step_ns: busy_ns,
                    join_ns,
                    sync_ns: wall_ns.saturating_sub(busy_ns),
                });
                sink.merge(MergeTrace {
                    round,
                    entries: fold_ids.len(),
                    changed: changed_addrs.len(),
                    stale: stats.stale_merges > stale_before,
                    merge_ns: join_ns,
                });
                // Next frontier, part 2: the dependency-index re-seed —
                // this is where a stale reader gets its second chance.
                for a in &changed_addrs {
                    if let Some(ids) = dependents.get(a) {
                        next.extend(ids.iter().copied());
                    }
                }
                frontier = next;
            }
            exhausted
        }));

        *phase_slot.write().unwrap_or_else(PoisonError::into_inner) = None;
        start_barrier.wait();
        solve
    });

    // A worker panicked: the pool is drained and joined — hand the
    // payload back for the caller to re-raise or convert.
    let exhausted = solve?;

    stats.intern_hits = interner.hits();
    stats.intern_misses = interner.misses();
    stats.distinct_states = interner.len();
    stats.stripe_acquisitions = interner.stripe_acquisitions();
    let states: BTreeSet<(Ps, G)> = interner
        .entries_cloned()
        .into_iter()
        .map(|(_, value)| value)
        .collect();
    let outcome = match exhausted {
        None => {
            // The decreasing pass runs on the final (states, store) pair
            // only — the *refinement* is engine-independent, but the pair
            // it refines is whatever the elastic ascent widened to, which
            // timing-dependent point selection can make differ from the
            // sequential engines' (see the widening comment at the top of
            // this solve).
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
            let resume_seed = Box::new(SharedResumeSeed {
                states: states.iter().cloned().collect(),
                store: store.clone(),
            });
            Outcome::Exhausted {
                partial: SharedStoreDomain::from_parts(states, store),
                reason,
                resume_seed,
            }
        }
    };
    Ok((outcome, stats))
}

#[cfg(test)]
mod tests {
    use super::super::super::DirectCollecting;
    use super::super::tests::{direct_step, nonmonotone_step, Dom, NmSt, St, G, S};
    use super::*;
    use crate::monad::run_store_passing;
    use crate::telemetry::TraceBuffer;

    const EPOCH_GRID: [usize; 3] = [1, 2, 8];
    const THREAD_GRID: [usize; 3] = [1, 2, 4];

    #[test]
    fn elastic_matches_sequential_fixpoint_across_the_grid() {
        let (sequential, seq_stats) =
            <Dom as DirectCollecting<St, G, S>>::explore_frontier_direct(&direct_step, St(0));
        for threads in THREAD_GRID {
            for epochs in EPOCH_GRID {
                let (elastic, stats) =
                    <Dom as ParallelCollecting<St, G, S>>::explore_frontier_elastic(
                        &direct_step,
                        St(0),
                        ParallelConfig { threads, epochs },
                    );
                assert_eq!(
                    elastic, sequential,
                    "fixpoint diverged at {threads} threads, {epochs} epochs"
                );
                // Fixpoint-level invariants only: elastic step counts are
                // legitimately timing-dependent, so no step-count parity.
                assert_eq!(stats.distinct_states, seq_stats.distinct_states);
                assert_eq!(stats.sync_rounds, stats.iterations);
                assert!(stats.states_stepped >= seq_stats.distinct_states);
                if epochs > 1 {
                    assert!(stats.epochs_run >= stats.iterations);
                    assert!(
                        stats.worker_cache_hits + stats.worker_cache_misses > 0,
                        "the worker memo must see traffic"
                    );
                }
            }
        }
    }

    #[test]
    fn one_epoch_is_exactly_the_barrier_engine() {
        for threads in THREAD_GRID {
            let (barrier, barrier_stats) =
                <Dom as ParallelCollecting<St, G, S>>::explore_frontier_parallel(
                    &direct_step,
                    St(0),
                    threads,
                );
            let (elastic, elastic_stats) =
                <Dom as ParallelCollecting<St, G, S>>::explore_frontier_elastic(
                    &direct_step,
                    St(0),
                    ParallelConfig { threads, epochs: 1 },
                );
            assert_eq!(elastic, barrier);
            // Full delegation: even the timing-dependent counters come
            // from the same code path (modulo steal/stripe timing).
            assert_eq!(elastic_stats.iterations, barrier_stats.iterations);
            assert_eq!(elastic_stats.states_stepped, barrier_stats.states_stepped);
            assert_eq!(elastic_stats.epochs_run, 0);
            assert_eq!(elastic_stats.worker_cache_hits, 0);
        }
    }

    #[test]
    fn elastic_rebuild_defence_matches_sequential() {
        type NmDom = SharedStoreDomain<NmSt, G, S>;
        let nm_direct = |ps: NmSt, g: G, s: S| run_store_passing(nonmonotone_step(ps), g, s);
        let (sequential, seq_stats) =
            <NmDom as DirectCollecting<NmSt, G, S>>::explore_frontier_direct(&nm_direct, NmSt(0));
        assert!(seq_stats.rebuild_rounds > 0, "oracle must rebuild");
        for threads in [1usize, 3] {
            for epochs in [2usize, 8] {
                let (elastic, stats) =
                    <NmDom as ParallelCollecting<NmSt, G, S>>::explore_frontier_elastic(
                        &nm_direct,
                        NmSt(0),
                        ParallelConfig { threads, epochs },
                    );
                assert_eq!(
                    elastic, sequential,
                    "rebuild diverged at {threads} threads, {epochs} epochs"
                );
                assert!(stats.rebuild_rounds > 0);
            }
        }
    }

    #[test]
    fn elastic_worker_panic_propagates() {
        let poisoned_step = |ps: St, g: G, s: S| {
            if ps.0 == 3 {
                panic!("boom at state 3");
            }
            direct_step(ps, g, s)
        };
        for threads in [1usize, 2, 4] {
            let caught = catch_unwind(AssertUnwindSafe(|| {
                <Dom as ParallelCollecting<St, G, S>>::explore_frontier_elastic(
                    &poisoned_step,
                    St(0),
                    ParallelConfig { threads, epochs: 4 },
                )
            }));
            let payload = caught.expect_err("the step panic must propagate");
            let message = payload
                .downcast_ref::<&str>()
                .copied()
                .unwrap_or("<non-str payload>");
            assert!(message.contains("boom"), "unexpected payload: {message}");
        }
    }

    #[test]
    fn zero_config_clamps_to_one_thread_one_epoch() {
        let (domain, _) = <Dom as ParallelCollecting<St, G, S>>::explore_frontier_elastic(
            &direct_step,
            St(0),
            ParallelConfig {
                threads: 0,
                epochs: 0,
            },
        );
        let (sequential, _) =
            <Dom as DirectCollecting<St, G, S>>::explore_frontier_direct(&direct_step, St(0));
        assert_eq!(domain, sequential);
    }

    #[test]
    fn traced_elastic_records_epochs_and_merges() {
        let mut buf = TraceBuffer::new();
        let (traced, traced_stats) =
            <Dom as ParallelCollecting<St, G, S>>::explore_frontier_elastic_traced(
                &direct_step,
                St(0),
                ParallelConfig {
                    threads: 2,
                    epochs: 4,
                },
                &mut buf,
            );
        let (untraced, untraced_stats) =
            <Dom as ParallelCollecting<St, G, S>>::explore_frontier_elastic(
                &direct_step,
                St(0),
                ParallelConfig {
                    threads: 2,
                    epochs: 4,
                },
            );
        // Tracing must never change the fixpoint; counters may differ
        // (epoch timing), but the round structure is sink-independent at
        // the fixpoint level.
        assert_eq!(traced, untraced);
        assert_eq!(traced_stats.distinct_states, untraced_stats.distinct_states);
        assert_eq!(buf.rounds.len(), traced_stats.iterations);
        assert_eq!(buf.merges.len(), traced_stats.iterations);
        assert_eq!(
            buf.epochs.len(),
            traced_stats.epochs_run,
            "one epoch trace per epoch run"
        );
        assert!(buf.epochs.iter().all(|e| e.epoch >= 1 && e.epoch <= 4));
        let json = buf.chrome_trace_json();
        assert!(json.contains("\"cat\":\"epoch\""));
        assert!(json.contains("\"cat\":\"merge\""));
    }
}
