//! The work-stealing sharded parallel driver for the shared-store engine.
//!
//! The store-passing monad makes the global store the single serialization
//! point of the analysis; once PR 4 removed the last `Rc` from the fast
//! path (direct branch-vector carrier, `Arc`-shared [`PMap`](crate::pmap)
//! spine), nothing about a *round* of the id-indexed incremental engine
//! ([`DirectCollecting::explore_frontier_direct`](super::DirectCollecting))
//! is inherently sequential: every frontier pair is stepped against the
//! **same** pre-round store, and the per-pair contributions only meet in
//! the fold.  This module parallelises exactly that structure.
//!
//! ## The join-on-sync protocol
//!
//! The driver owns a **persistent pool** of worker threads (spawned once
//! per solve, coordinated by two spin-then-park barriers — no thread is
//! spawned per round).  A solver round is a bulk-synchronous step/sync
//! pair:
//!
//! 1. **Shard** — the round's frontier (a sorted `Vec` of [`StateId`]s) is
//!    split into one contiguous range per worker.  Each worker drains its
//!    shard through an atomic cursor; when its range is empty it
//!    **steals** a chunk of `StateId`s from the most-loaded remaining
//!    shard ([`EngineStats::steal_events`] counts these, and
//!    [`EngineStats::shard_imbalance`] records how uneven the final
//!    per-worker loads were).
//! 2. **Step** — each worker steps its claimed pairs against a snapshot of
//!    the global accumulated store (an `Arc` bump per step, exactly like
//!    the sequential engine), resolving and interning states through the
//!    lock-striped [`ShardedInterner`] and accumulating a private list of
//!    `(id, entry)` results, where each entry's store contribution is the
//!    *delta* restricted to the addresses the step changed.  Workers share
//!    the step function, the store snapshot, the interner and a read-only
//!    view of the memo cache — nothing else, so the only synchronisation
//!    inside a round is the interner's stripe locks.
//! 3. **Join on sync** — at the barrier the coordinator installs the fresh
//!    entries in the flat cache and the reverse dependency index, then
//!    folds every re-stepped contribution into the global accumulator with
//!    [`StoreDelta::join_in_place_delta`] in ascending id order (structural
//!    sharing preserved: one-sided delta subtrees are adopted by
//!    reference, exactly as in the sequential fold).  The per-address
//!    growth report falls out of the fold, and the next frontier is
//!    **re-seeded through the PR-3 reverse dependency index**: freshly
//!    interned ids plus every cached dependent of an address that grew.
//!
//! ## Why the fixpoint (and the work counters) match the sequential engine
//!
//! The sequential engine's exactness argument (see the `shared` sibling
//! module's docs) only needs each round to step
//! its whole frontier against one consistent iterate and to fold the
//! resulting deltas afterwards — it never relies on the *order* in which
//! the frontier is stepped.  The parallel driver preserves the round
//! structure bit-for-bit:
//!
//! * which pairs are stepped each round (the frontier) is a deterministic
//!   set — it depends only on the previous round's per-address growth and
//!   the dependency index, both of which are order-independent;
//! * store joins are commutative/associative, and the [`PMap`](crate::pmap)
//!   spine is canonical, so folding the same set of deltas in any order
//!   yields a byte-identical accumulator;
//! * `StateId`s minted by the sharded interner differ run-to-run in their
//!   numeric assignment, but the *set* of interned states is again
//!   deterministic, and ids never escape the engine (the domain is
//!   un-interned at the boundary).
//!
//! Monotonicity gives the rest: every contribution folded at a sync
//! barrier was computed against a store below the post-sync accumulator,
//! so re-running it later could only reproduce or grow it — the same §6.4
//! argument the sequential engine makes, which is also why the
//! non-monotone *rebuild* defence carries over unchanged (a shrinking
//! re-step triggers a full re-step of every cached pair against the same
//! pre-store, again sharded across the pool).
//!
//! Consequently `analyse_*_parallel` produces **byte-identical fixpoints
//! and identical deterministic work counters** (steps, joins, rounds,
//! widenings, re-enqueues, intern traffic) to `analyse_*_direct` at every
//! thread count — asserted across the committed differential matrix at
//! 1, 2 and 4 threads.  Only the timing-dependent gauges
//! (`steal_events`, `shard_imbalance`) and the physical-sharing sample
//! (`store_bytes_shared`, which depends on fold adoption order) may vary.

pub mod elastic;

use std::any::Any;
use std::collections::BTreeSet;
use std::hash::Hash;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError, RwLock};

use crate::addr::HasInitial;
use crate::collect::SharedStoreDomain;
use crate::gc::Touches;
use crate::hash::FxHashMap;
use crate::intern::{InternKey, ShardedInterner, StateId};
use crate::monad::Value;
use crate::store::{StoreDelta, StoreLike};
use crate::telemetry::{
    label_of, GovernorTrace, GovernorTraceKind, NoopSink, RoundTrace, Stopwatch, TraceSink,
    WorkerBuffer,
};

use super::governor::{
    fault_point, Budget, CancelToken, EngineError, ExhaustReason, LadderReport, LadderRung,
    Outcome, SolveFrom,
};
use super::shared::{
    sorted_subset, step_entry, IdDependents, InternedCache, InternedEntry, SharedGovernedSolve,
    SharedResumeSeed, ADDR_LABEL_MAX, STATE_LABEL_MAX,
};
use super::{
    narrow_store_post_pass, DirectCollecting, EngineStats, ParallelCollecting, StateRoots, StepFn,
    WidenTracker,
};
use crate::lattice::WidenLattice;

/// The knob set of the parallel drivers: how many workers, and how many
/// *epochs* each worker may advance its private sub-frontier between two
/// sync barriers.
///
/// `epochs = 1` selects exactly the PR-5 **barrier** engine (every round
/// ends in a join-on-sync barrier; work counters deterministic at every
/// thread count).  `epochs > 1` selects the **elastic** engine
/// ([`elastic`]): workers run up to `epochs` epochs on self-discovered
/// work before the lazy merge, trading counter determinism (epoch/steal
/// timing varies run to run) for less barrier time — the fixpoint itself
/// stays byte-identical to the sequential direct engine either way.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParallelConfig {
    /// Worker threads (clamped to ≥ 1 by the drivers).
    pub threads: usize,
    /// Maximum epochs between barriers (clamped to ≥ 1; 1 = barrier
    /// engine).
    pub epochs: usize,
}

impl ParallelConfig {
    /// The PR-5 barrier engine: one epoch per round.
    pub fn barrier(threads: usize) -> Self {
        ParallelConfig { threads, epochs: 1 }
    }

    /// The elastic engine with the given epoch budget.
    pub fn elastic(threads: usize, epochs: usize) -> Self {
        ParallelConfig { threads, epochs }
    }
}

/// A sense-reversing **hybrid** (spin-then-park) barrier for the round
/// protocol.
///
/// `std::sync::Barrier` parks every waiter on a condvar; waking `threads`
/// parked workers costs tens of microseconds each, which is the same
/// order as an entire solver round on the target workloads — measured, a
/// condvar-only pool left the first-awake worker draining whole frontiers
/// alone (`shard_imbalance ≈ frontier`).  Pure spinning is just as wrong
/// in the other direction: on a machine with fewer cores than parties
/// (including the single-CPU CI container) spinners burn the core the
/// working thread needs.  So waiters spin for a short bounded burst —
/// only when the host actually has more than one CPU — and then park on a
/// condvar with a timeout as a missed-wakeup backstop.
struct SpinBarrier {
    /// Parties that have arrived in the current generation.
    arrived: AtomicUsize,
    /// The generation counter; bumping it releases the waiters.
    generation: AtomicUsize,
    /// Total parties (workers + coordinator).
    parties: usize,
    /// How long to spin before parking (0 on single-CPU hosts).
    spins: u32,
    /// The parking lot for waiters that out-spun their budget.
    lock: Mutex<()>,
    condvar: std::sync::Condvar,
}

impl SpinBarrier {
    fn new(parties: usize) -> Self {
        let multicore = std::thread::available_parallelism()
            .map(|n| n.get() > 1)
            .unwrap_or(false);
        SpinBarrier {
            arrived: AtomicUsize::new(0),
            generation: AtomicUsize::new(0),
            parties,
            spins: if multicore { 1 << 12 } else { 0 },
            lock: Mutex::new(()),
            condvar: std::sync::Condvar::new(),
        }
    }

    /// Blocks until all parties have arrived.
    fn wait(&self) {
        let generation = self.generation.load(Ordering::Acquire);
        if self.arrived.fetch_add(1, Ordering::AcqRel) + 1 == self.parties {
            // Last arrival: reset the count, release the generation, wake
            // any parked waiters (under the lock, so a waiter cannot check
            // the generation and park between the store and the notify).
            self.arrived.store(0, Ordering::Release);
            // Barrier locks tolerate poisoning: a worker that panicked
            // while holding (or racing for) the lock must not cascade into
            // a coordinator panic — the round protocol drains the pool and
            // surfaces the original payload instead.
            let _guard = self.lock.lock().unwrap_or_else(PoisonError::into_inner);
            self.generation.store(generation + 1, Ordering::Release);
            self.condvar.notify_all();
        } else {
            for _ in 0..self.spins {
                if self.generation.load(Ordering::Acquire) != generation {
                    return;
                }
                std::hint::spin_loop();
            }
            let mut guard = self.lock.lock().unwrap_or_else(PoisonError::into_inner);
            while self.generation.load(Ordering::Acquire) == generation {
                // The timeout is a backstop only; the release path holds
                // the lock while bumping the generation, so wakeups are
                // not missable.
                let (g, _timeout) = self
                    .condvar
                    .wait_timeout(guard, std::time::Duration::from_millis(1))
                    .unwrap_or_else(PoisonError::into_inner);
                guard = g;
            }
        }
    }
}

/// One step phase, as published to the worker pool: the ids to step (the
/// frontier, or the rebuild rest), a snapshot of the pre-round store, and
/// the shard claim state.
struct Phase<S> {
    /// The ids to step, sorted ascending.
    ids: Vec<StateId>,
    /// The pre-round store snapshot every step runs against.
    store: S,
    /// Per-shard claim cursors (monotone; a claim past the shard end is
    /// discarded, so concurrent owner/thief claims are race-free).
    cursors: Vec<AtomicUsize>,
    /// Per-shard exclusive end indices into `ids`.
    ends: Vec<usize>,
    /// How many consecutive ids one claim takes.
    chunk: usize,
    /// Whether workers should record into their trace buffers.  Purely an
    /// observability flag: no counter and no scheduling decision reads it.
    trace: bool,
    /// The governing budget's cancellation flag: workers poll it before
    /// each chunk claim and stop claiming once it is set, so cancel
    /// latency is bounded by one chunk of one phase.
    cancel: CancelToken,
}

/// One worker's output for a phase: the entries it computed, its per-shard
/// work stats, whether any re-step shrank, how many pairs it processed
/// (own shard plus stolen chunks), and — when the phase is traced — its
/// private lock-free [`WorkerBuffer`] for the coordinator to drain at the
/// barrier.
struct ShardOutcome<S, A> {
    worker: usize,
    entries: Vec<(StateId, InternedEntry<S, A>)>,
    stats: EngineStats,
    shrank: bool,
    processed: usize,
    trace: WorkerBuffer,
}

/// The body of one worker for one phase: claim chunks (own shard first,
/// then steal from the most-loaded shard), step each claimed pair against
/// the phase's store snapshot, and check re-steps for shrinkage against
/// the read-only cache view.
fn run_worker_phase<Ps, G, S, F>(
    me: usize,
    step: &F,
    phase: &Phase<S>,
    interner: &ShardedInterner<(Ps, G), StateId>,
    cache: &InternedCache<S, Ps::Addr>,
) -> ShardOutcome<S, Ps::Addr>
where
    Ps: Value + Ord + Hash + StateRoots + Send + Sync,
    Ps::Addr: Hash,
    G: Value + Ord + Hash + Send + Sync,
    S: StoreLike<Ps::Addr> + StoreDelta<Ps::Addr> + Value,
    S::D: Touches<Ps::Addr>,
    F: StepFn<Ps, G, S>,
{
    let mut outcome = ShardOutcome {
        worker: me,
        entries: Vec::new(),
        stats: EngineStats::default(),
        shrank: false,
        processed: 0,
        trace: WorkerBuffer::default(),
    };
    let Phase {
        ids,
        store,
        cursors,
        ends,
        chunk,
        trace,
        cancel,
    } = phase;
    let mut busy_watch = Stopwatch::start(*trace);
    // Once our own shard is drained we stop touching its cursor: the
    // extra fetch_add per steal attempt would be pure cache-line traffic.
    let mut own_drained = false;
    loop {
        // Cooperative cancellation: stop claiming as soon as the token is
        // set.  Already-claimed chunks finish (their contributions are
        // sound and folded); unclaimed ids stay in the resume seed.
        if cancel.is_cancelled() {
            break;
        }
        // Claim from our own shard first; once drained, steal a chunk
        // from the most-loaded other shard.
        let mut claimed: Option<(usize, usize)> = None;
        if !own_drained {
            let own_start = cursors[me].fetch_add(*chunk, Ordering::Relaxed);
            if own_start < ends[me] {
                claimed = Some((own_start, ends[me]));
            } else {
                own_drained = true;
            }
        }
        if claimed.is_none() {
            loop {
                let victim = (0..cursors.len())
                    .filter(|&v| v != me)
                    .max_by_key(|&v| ends[v].saturating_sub(cursors[v].load(Ordering::Relaxed)));
                let Some(victim) = victim else { break };
                if ends[victim].saturating_sub(cursors[victim].load(Ordering::Relaxed)) == 0 {
                    break;
                }
                let start = cursors[victim].fetch_add(*chunk, Ordering::Relaxed);
                if start < ends[victim] {
                    outcome.stats.steal_events += 1;
                    if *trace {
                        outcome.trace.victims.push(victim);
                    }
                    claimed = Some((start, ends[victim]));
                    break;
                }
            }
            if claimed.is_none() {
                break;
            }
        }
        let Some((start, end)) = claimed else { break };
        for &id in &ids[start..(start + chunk).min(end)] {
            fault_point(me);
            outcome.stats.states_stepped += 1;
            outcome.stats.spine_clones += 1;
            outcome.processed += 1;
            let mut step_watch = Stopwatch::start(*trace);
            let (ps, guts) = interner.resolve_cloned(id);
            let entry = step_entry(step, ps, guts, store, |k| interner.intern(k));
            outcome.stats.dep_edges += entry.deps.len();
            if *trace {
                // Raw `(id, ns)` only — labels are resolved by the
                // coordinator at the barrier, never on the hot path.
                outcome.trace.costs.push((id, step_watch.lap_ns()));
            }
            if let Some(old) = cache.get(id.index()).and_then(Option::as_ref) {
                outcome.stats.reenqueued += 1;
                // The same shrink detector as the sequential engine: a
                // re-step that loses a successor abandons the fast path.
                outcome.shrank |= !sorted_subset(&old.successors, &entry.successors);
            }
            outcome.entries.push((id, entry));
        }
    }
    outcome.trace.busy_ns = busy_watch.lap_ns();
    outcome
}

/// Installs a phase's freshly computed entries into the flat cache and the
/// reverse dependency index (replacing any previous entry), exactly as the
/// sequential `step_and_cache_interned` does — just after the barrier
/// instead of during the step.
fn install_entries<S, A>(
    results: Vec<(StateId, InternedEntry<S, A>)>,
    id_bound: usize,
    cache: &mut InternedCache<S, A>,
    dependents: &mut IdDependents<A>,
) where
    A: Clone + Eq + Hash,
{
    if cache.len() < id_bound {
        cache.resize_with(id_bound, || None);
    }
    for (id, entry) in results {
        let slot = &mut cache[id.index()];
        if let Some(old) = slot.take() {
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
}

/// The governed barrier-parallel solver — the one implementation behind
/// both the classic and the governed entry points.
///
/// Returns `Err` with the *original* panic payload when a worker (or the
/// coordinator's inline singleton path) panicked: the pool is always
/// drained and shut down first, so the caller decides whether to re-raise
/// it (classic entry points) or convert it to a clean
/// [`EngineError::WorkerPanicked`] (governed entry points).
pub(crate) fn solve_parallel_governed<Ps, G, S, F, T>(
    step: &F,
    from: SolveFrom<Ps, SharedResumeSeed<Ps, G, S>>,
    threads: usize,
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
    let threads = threads.max(1);
    let armed = sink.enabled();
    let mut stats = EngineStats::default();
    // Coordinator-only widening bookkeeping: points are selected (and ▽
    // applied) exclusively at the join-on-sync fold, so the round
    // structure — and with it the widened fixpoint — matches the
    // sequential direct engine's at every thread count.
    let mut widen: WidenTracker<Ps::Addr> = WidenTracker::new(&budget.widen);
    // The lock-striped hash-consing table, shared by all workers.
    let interner: ShardedInterner<(Ps, G), StateId> = ShardedInterner::new();
    // The flat memo cache, behind a RwLock: workers hold read locks
    // during a phase (for the shrink check), the coordinator write-locks
    // between barriers to install entries.  Never contended — the
    // barriers separate the two access modes in time.
    let cache_lock: RwLock<InternedCache<S, Ps::Addr>> = RwLock::new(Vec::new());
    // Coordinator-only state: the reverse dependency index, the global
    // accumulated store, and the sorted list of every id minted before
    // the current round (the "known" set the rebuild defence re-steps).
    let mut dependents: IdDependents<Ps::Addr> = FxHashMap::default();
    let mut known_ids: Vec<StateId> = Vec::new();

    // Fresh solves start from the injected initial pair and a bottom
    // store; resumed solves re-intern every carried pair (all of them
    // form the first frontier, re-stepped once to rebuild the memo
    // cache and dependency index the partial run discarded) and start
    // from the carried store.
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

    // The pool protocol: the coordinator publishes a `Phase` (or `None`
    // to shut down) and releases the start barrier; workers run the
    // phase, deposit their outcomes, and meet it at the done barrier.
    let phase_slot: RwLock<Option<Phase<S>>> = RwLock::new(None);
    let outcomes: Mutex<Vec<ShardOutcome<S, Ps::Addr>>> = Mutex::new(Vec::new());
    // Panic payloads from workers: a worker that panics (a panicking
    // user step function, say) must still arrive at the done barrier,
    // or the coordinator would wait on it forever — so the panic is
    // caught, parked here, and surfaced to the coordinator right
    // after the barrier.  Lock accesses on this path tolerate
    // poisoning (a poisoned mutex here must not turn into a second,
    // barrier-skipping panic).
    let worker_panics: Mutex<Vec<Box<dyn std::any::Any + Send>>> = Mutex::new(Vec::new());
    let start_barrier = SpinBarrier::new(threads + 1);
    let done_barrier = SpinBarrier::new(threads + 1);

    let solve = std::thread::scope(|scope| {
        for me in 0..threads {
            let interner = &interner;
            let cache_lock = &cache_lock;
            let phase_slot = &phase_slot;
            let outcomes = &outcomes;
            let start_barrier = &start_barrier;
            let done_barrier = &done_barrier;
            let worker_panics = &worker_panics;
            scope.spawn(move || loop {
                start_barrier.wait();
                let keep_going = catch_unwind(AssertUnwindSafe(|| {
                    let guard = phase_slot.read().unwrap_or_else(PoisonError::into_inner);
                    let Some(phase) = guard.as_ref() else {
                        return false;
                    };
                    let cache = cache_lock.read().unwrap_or_else(PoisonError::into_inner);
                    let outcome = run_worker_phase(me, step, phase, interner, &cache);
                    drop(cache);
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
            });
        }

        // Publishes one step phase to the pool and collects the merged
        // outcomes (entries + per-shard stats + shrink flag), draining
        // each worker's trace buffer into the sink at the barrier.
        // Returns `(shrank, wall_ns, max_busy_ns)`: the coordinator-
        // observed phase wall and the slowest worker's busy time, the
        // raw material of the step/sync decomposition (both 0 when the
        // sink is disarmed).
        let run_phase = |ids: Vec<StateId>,
                         store: &S,
                         stats: &mut EngineStats,
                         results: &mut Vec<(StateId, InternedEntry<S, Ps::Addr>)>,
                         round: usize,
                         sink: &mut T|
         -> (bool, u64, u64) {
            // A singleton (or empty) phase has no parallelism by
            // definition: step it inline on the coordinator and spare
            // the pool a wake/park cycle.  Deterministic counters are
            // unaffected — the work is identical, there is just no
            // sync traffic for it.
            if ids.len() <= 1 {
                let phase = Phase {
                    ends: vec![ids.len()],
                    ids,
                    store: store.clone(),
                    cursors: vec![AtomicUsize::new(0)],
                    chunk: 1,
                    trace: armed,
                    cancel: budget.cancel.clone(),
                };
                let cache = cache_lock.read().unwrap_or_else(PoisonError::into_inner);
                let outcome = run_worker_phase(0, step, &phase, &interner, &cache);
                drop(cache);
                stats.merge(&outcome.stats);
                let busy = outcome.trace.busy_ns;
                if armed {
                    // The inline path *is* worker 0 for this phase; its
                    // wall is its busy time (no barrier to wait on).
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
                return (outcome.shrank, busy, busy);
            }
            let ends: Vec<usize> = (1..=threads).map(|t| t * ids.len() / threads).collect();
            let cursors: Vec<AtomicUsize> = (0..threads)
                .map(|t| AtomicUsize::new(t * ids.len() / threads))
                .collect();
            let chunk = (ids.len() / (threads * 8)).max(1);
            *phase_slot.write().unwrap_or_else(PoisonError::into_inner) = Some(Phase {
                ids,
                store: store.clone(),
                cursors,
                ends,
                chunk,
                trace: armed,
                cancel: budget.cancel.clone(),
            });
            let mut wall_watch = Stopwatch::start(armed);
            start_barrier.wait();
            done_barrier.wait();
            let wall_ns = wall_watch.lap_ns();
            // Drop the store snapshot promptly (it holds spine refs).
            *phase_slot.write().unwrap_or_else(PoisonError::into_inner) = None;
            // A worker panicked mid-phase: every worker still reached
            // the barrier (panics are caught and parked), so the pool
            // is quiescent — re-raise on the coordinator, whose own
            // catch-and-shutdown path below unwinds the solve.
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
                // The budget is consulted once per sync round, on the
                // coordinator; mid-phase, only the cancel token is
                // polled (by the workers, between chunk claims).
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

                // Step phase: the whole frontier against the same pre-store.
                let frontier_vec: Vec<StateId> = frontier.iter().copied().collect();
                let frontier_len = frontier_vec.len();
                let mut stepped_this_round = frontier_len;
                let mut results: Vec<(StateId, InternedEntry<S, Ps::Addr>)> = Vec::new();
                let round = stats.iterations;
                let (shrank, mut wall_ns, mut busy_ns) = run_phase(
                    frontier_vec.clone(),
                    &store,
                    &mut stats,
                    &mut results,
                    round,
                    sink,
                );

                // Rebuild round (same defence as the sequential engine): a
                // contribution shrank, so re-step *every* known pair
                // against the same pre-store — again sharded — and fold
                // all of them.
                let fold_ids: Vec<StateId> = if shrank {
                    stats.rebuild_rounds += 1;
                    stats.peak_frontier = stats.peak_frontier.max(known);
                    let rest: Vec<StateId> = known_ids
                        .iter()
                        .copied()
                        .filter(|id| !frontier.contains(id))
                        .collect();
                    stepped_this_round += rest.len();
                    // Further shrinkage is immaterial: the whole round is
                    // already being recomputed from scratch.
                    let (_, rebuild_wall, rebuild_busy) =
                        run_phase(rest, &store, &mut stats, &mut results, round, sink);
                    wall_ns += rebuild_wall;
                    busy_ns += rebuild_busy;
                    known_ids.clone()
                } else {
                    stats.peak_frontier = stats.peak_frontier.max(frontier.len());
                    // Everything off the frontier is served from the
                    // accumulated domain without being visited at all.
                    stats.cache_hits += known - frontier.len();
                    frontier_vec
                };

                // Join on sync: install the entries, then fold only the
                // re-stepped contributions — and only their store *deltas*
                // — in ascending id order, with the per-address growth
                // report falling straight out of the in-place join.
                let mut join_watch = Stopwatch::start(armed);
                let mut cache = cache_lock.write().unwrap_or_else(PoisonError::into_inner);
                install_entries(results, interner.id_bound(), &mut cache, &mut dependents);
                let mut changed_addrs: BTreeSet<Ps::Addr> = BTreeSet::new();
                for &id in &fold_ids {
                    // A missing entry is only possible when cancellation
                    // stopped the workers mid-phase: the unstepped pair
                    // stays in the resume seed and is re-stepped on
                    // resume, so skipping its fold loses nothing.
                    let Some(entry) = cache[id.index()].as_ref() else {
                        debug_assert!(budget.cancel.is_cancelled());
                        continue;
                    };
                    stats.store_joins += 1;
                    stats.spine_clones += 1;
                    if armed {
                        // Attribute join traffic per address: every
                        // address the delta binds is one join record,
                        // widened when the fold reports it grew.
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
                drop(cache);
                let (joined, widened) = widen.classify(&changed_addrs);
                stats.store_joins_applied += joined;
                stats.widen_applied += widened;
                widen.record(&changed_addrs);
                stats.store_bytes_shared = stats.store_bytes_shared.max(store.shared_spine_bytes());
                // The round's phase split: the slowest worker's busy
                // time is the step share, the coordinator's fold is the
                // join share, and whatever remains of the phase walls is
                // barrier/coordination overhead — the sync share.
                sink.round(RoundTrace {
                    round: stats.iterations,
                    frontier: frontier_len,
                    stepped: stepped_this_round,
                    joins: fold_ids.len(),
                    delta_width: changed_addrs.len(),
                    rebuild: shrank,
                    step_ns: busy_ns,
                    join_ns: join_watch.lap_ns(),
                    sync_ns: wall_ns.saturating_sub(busy_ns),
                });

                // Next frontier: freshly discovered pairs (ids minted
                // during this round have no cached outcome yet) plus every
                // cached dependent of an address that grew — the reverse
                // dependency index re-seeding.
                let fresh = interner.fresh_since(&marks);
                known_ids.extend(fresh.iter().copied());
                let mut next: BTreeSet<StateId> = fresh.into_iter().collect();
                for a in &changed_addrs {
                    if let Some(ids) = dependents.get(a) {
                        next.extend(ids.iter().copied());
                    }
                }
                frontier = next;
            }
            exhausted
        }));

        // Shut the pool down: a `None` phase is the stop signal.
        // This runs on the panic path too — otherwise the scope's
        // implicit join would wait forever on workers parked at the
        // start barrier — and only *then* is the panic surfaced.
        *phase_slot.write().unwrap_or_else(PoisonError::into_inner) = None;
        start_barrier.wait();
        solve
    });

    // A worker (or the coordinator's inline path) panicked: the pool
    // is already drained and joined, so hand the payload back for the
    // caller to re-raise or convert.
    let exhausted = solve?;

    stats.intern_hits = interner.hits();
    stats.intern_misses = interner.misses();
    stats.distinct_states = interner.len();
    stats.stripe_acquisitions = interner.stripe_acquisitions();
    // Un-intern only here, at the boundary: the structural domain is
    // assembled once, from the interner's value table.
    let states: BTreeSet<(Ps, G)> = interner
        .entries_cloned()
        .into_iter()
        .map(|(_, value)| value)
        .collect();
    let outcome = match exhausted {
        None => {
            // Decreasing pass after stabilization (coordinator-only, on
            // the final pair): pure function of (states, store), so the
            // narrowed fixpoint is byte-identical to the sequential
            // engines' at every thread count.
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

impl<Ps, G, S> ParallelCollecting<Ps, G, S> for SharedStoreDomain<Ps, G, S>
where
    Ps: Value + Ord + Hash + StateRoots + Send + Sync,
    Ps::Addr: Hash,
    G: Value + Ord + Hash + HasInitial + Send + Sync,
    S: StoreLike<Ps::Addr> + StoreDelta<Ps::Addr> + WidenLattice + Value,
    S::D: Touches<Ps::Addr>,
{
    type Seed = SharedResumeSeed<Ps, G, S>;

    fn explore_frontier_parallel_governed_traced<F, T>(
        step: &F,
        from: SolveFrom<Ps, Self::Seed>,
        threads: usize,
        budget: &Budget,
        sink: &mut T,
    ) -> Result<(Outcome<Self, Self::Seed>, EngineStats), EngineError>
    where
        F: StepFn<Ps, G, S>,
        T: TraceSink,
        Ps: std::fmt::Debug,
    {
        solve_parallel_governed(step, from, threads, budget, sink)
            .map_err(|payload| EngineError::worker_panicked(payload.as_ref()))
    }

    fn explore_frontier_elastic_governed_traced<F, T>(
        step: &F,
        from: SolveFrom<Ps, Self::Seed>,
        config: ParallelConfig,
        budget: &Budget,
        sink: &mut T,
    ) -> Result<(Outcome<Self, Self::Seed>, EngineStats), EngineError>
    where
        F: StepFn<Ps, G, S>,
        T: TraceSink,
        Ps: std::fmt::Debug,
    {
        elastic::solve_elastic_governed(step, from, config, budget, sink)
            .map_err(|payload| EngineError::worker_panicked(payload.as_ref()))
    }

    fn explore_frontier_parallel_traced<F, T>(
        step: &F,
        initial: Ps,
        threads: usize,
        sink: &mut T,
    ) -> (Self, EngineStats)
    where
        F: StepFn<Ps, G, S>,
        T: TraceSink,
        Ps: std::fmt::Debug,
    {
        // The classic entry point re-raises the original panic payload, so
        // a panicking user step function propagates exactly as it would
        // out of the sequential engines.
        match solve_parallel_governed(
            step,
            SolveFrom::Fresh(initial),
            threads,
            &Budget::unlimited(),
            sink,
        ) {
            Ok((outcome, stats)) => (outcome.into_complete(), stats),
            Err(payload) => resume_unwind(payload),
        }
    }

    fn explore_frontier_elastic_traced<F, T>(
        step: &F,
        initial: Ps,
        config: ParallelConfig,
        sink: &mut T,
    ) -> (Self, EngineStats)
    where
        F: StepFn<Ps, G, S>,
        T: TraceSink,
        Ps: std::fmt::Debug,
    {
        match elastic::solve_elastic_governed(
            step,
            SolveFrom::Fresh(initial),
            config,
            &Budget::unlimited(),
            sink,
        ) {
            Ok((outcome, stats)) => (outcome.into_complete(), stats),
            Err(payload) => resume_unwind(payload),
        }
    }
}

/// The `(outcome, stats, report)` triple the degradation ladder returns.
pub type LadderSolve<Ps, G, S> = (
    Outcome<SharedStoreDomain<Ps, G, S>, SharedResumeSeed<Ps, G, S>>,
    EngineStats,
    LadderReport,
);

/// [`explore_frontier_ladder_traced`] without a sink.
pub fn explore_frontier_ladder<Ps, G, S, F>(
    step: &F,
    initial: Ps,
    config: ParallelConfig,
    budget: &Budget,
) -> LadderSolve<Ps, G, S>
where
    Ps: Value + Ord + Hash + StateRoots + Send + Sync + std::fmt::Debug,
    Ps::Addr: Hash,
    G: Value + Ord + Hash + HasInitial + Send + Sync,
    S: StoreLike<Ps::Addr> + StoreDelta<Ps::Addr> + WidenLattice + Value,
    S::D: Touches<Ps::Addr>,
    F: StepFn<Ps, G, S>,
{
    explore_frontier_ladder_traced(step, initial, config, budget, &mut NoopSink)
}

/// The degradation ladder: elastic → barrier → sequential-direct.
///
/// Tries the requested parallel driver first (elastic when
/// `config.epochs > 1`, otherwise straight to barrier); when a rung fails
/// with [`EngineError::WorkerPanicked`] the fault is recorded, a
/// [`GovernorTraceKind::RungFaulted`] event is emitted, and the next rung
/// runs the *same* solve from scratch.  The last rung is the sequential
/// direct engine, which shares no pool and never consults the fault plan,
/// so a faulted parallel solve still returns the byte-identical fixpoint
/// (every rung computes the same least fixpoint by the engine-equivalence
/// ladder).  The returned [`LadderReport`] says which rung answered and
/// what the faulted rungs reported.
pub fn explore_frontier_ladder_traced<Ps, G, S, F, T>(
    step: &F,
    initial: Ps,
    config: ParallelConfig,
    budget: &Budget,
    sink: &mut T,
) -> LadderSolve<Ps, G, S>
where
    Ps: Value + Ord + Hash + StateRoots + Send + Sync + std::fmt::Debug,
    Ps::Addr: Hash,
    G: Value + Ord + Hash + HasInitial + Send + Sync,
    S: StoreLike<Ps::Addr> + StoreDelta<Ps::Addr> + WidenLattice + Value,
    S::D: Touches<Ps::Addr>,
    F: StepFn<Ps, G, S>,
    T: TraceSink,
{
    let mut faults: Vec<(LadderRung, EngineError)> = Vec::new();
    if config.epochs > 1 {
        match SharedStoreDomain::explore_frontier_elastic_governed_traced(
            step,
            SolveFrom::Fresh(initial.clone()),
            config,
            budget,
            sink,
        ) {
            Ok((outcome, stats)) => {
                let report = LadderReport {
                    rung: LadderRung::Elastic,
                    faults,
                };
                return (outcome, stats, report);
            }
            Err(error) => {
                sink.governor(GovernorTrace {
                    round: 0,
                    kind: GovernorTraceKind::RungFaulted(LadderRung::Elastic),
                });
                faults.push((LadderRung::Elastic, error));
            }
        }
    }
    match SharedStoreDomain::explore_frontier_parallel_governed_traced(
        step,
        SolveFrom::Fresh(initial.clone()),
        config.threads,
        budget,
        sink,
    ) {
        Ok((outcome, stats)) => {
            let report = LadderReport {
                rung: LadderRung::Barrier,
                faults,
            };
            return (outcome, stats, report);
        }
        Err(error) => {
            sink.governor(GovernorTrace {
                round: 0,
                kind: GovernorTraceKind::RungFaulted(LadderRung::Barrier),
            });
            faults.push((LadderRung::Barrier, error));
        }
    }
    // The last rung cannot fault: the sequential direct engine runs no
    // pool and never consults the fault plan.
    let (outcome, stats) =
        <SharedStoreDomain<Ps, G, S> as DirectCollecting<Ps, G, S>>::explore_frontier_governed_traced(
            step,
            SolveFrom::Fresh(initial),
            budget,
            sink,
        );
    let report = LadderReport {
        rung: LadderRung::SequentialDirect,
        faults,
    };
    (outcome, stats, report)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::super::{DirectCollecting, FrontierCollecting};
    use super::*;
    use crate::monad::{
        gets_nd_set, run_store_passing, MonadFamily, MonadPlus, MonadState, MonadTrans, StateT,
        StorePassing, VecM,
    };
    use crate::store::BasicStore;

    /// A heap value that is itself an address (a one-cell pointer).
    #[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
    pub(crate) struct Ptr(pub(crate) u8);

    impl Touches<u8> for Ptr {
        fn touches(&self) -> BTreeSet<u8> {
            [self.0].into_iter().collect()
        }
    }

    /// The same read/write toy chain as the sequential engine's tests:
    /// state 1 reads cell 0, state 4 writes it.
    #[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
    pub(crate) struct St(pub(crate) u32);

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

    pub(crate) type G = u64;
    pub(crate) type S = BasicStore<u8, Ptr>;
    type M = StorePassing<G, S>;
    pub(crate) type Dom = SharedStoreDomain<St, G, S>;

    fn step(st: St) -> <M as MonadFamily>::M<St> {
        let n = st.0;
        match n {
            1 => {
                let fetched = <M as MonadTrans>::lift(gets_nd_set::<StateT<S, VecM>, S, Ptr, _>(
                    move |store| store.fetch(&0u8),
                ));
                let via_heap = M::bind(fetched, move |ptr| M::pure(St(ptr.0 as u32 + 1)));
                M::mplus(M::pure(St(2)), via_heap)
            }
            4 => {
                let write = <M as MonadTrans>::lift(<StateT<S, VecM> as MonadState<S>>::modify(
                    move |store: S| store.bind(0u8, [Ptr(9)].into_iter().collect()),
                ));
                M::bind(write, move |_| M::pure(St(5)))
            }
            n if n >= 6 => M::pure(st),
            _ => M::pure(St(n + 1)),
        }
    }

    pub(crate) fn direct_step(ps: St, g: G, s: S) -> Vec<((St, G), S)> {
        run_store_passing(step(ps), g, s)
    }

    #[test]
    fn parallel_matches_sequential_fixpoint_and_work_counters() {
        let (sequential, seq_stats) =
            <Dom as DirectCollecting<St, G, S>>::explore_frontier_direct(&direct_step, St(0));
        for threads in [1usize, 2, 4] {
            let (parallel, par_stats) =
                <Dom as ParallelCollecting<St, G, S>>::explore_frontier_parallel(
                    &direct_step,
                    St(0),
                    threads,
                );
            assert_eq!(
                parallel, sequential,
                "fixpoint diverged at {threads} threads"
            );
            // Every deterministic work counter must agree with the
            // sequential direct engine; only the timing gauges and the
            // fold-order-dependent sharing sample may differ.
            assert_eq!(par_stats.iterations, seq_stats.iterations);
            assert_eq!(par_stats.states_stepped, seq_stats.states_stepped);
            assert_eq!(par_stats.cache_hits, seq_stats.cache_hits);
            assert_eq!(par_stats.reenqueued, seq_stats.reenqueued);
            assert_eq!(par_stats.store_joins_applied, seq_stats.store_joins_applied);
            assert_eq!(par_stats.widen_applied, seq_stats.widen_applied);
            assert_eq!(par_stats.widen_applied, 0);
            assert_eq!(par_stats.store_joins, seq_stats.store_joins);
            assert_eq!(par_stats.rebuild_rounds, seq_stats.rebuild_rounds);
            assert_eq!(par_stats.peak_frontier, seq_stats.peak_frontier);
            assert_eq!(par_stats.intern_hits, seq_stats.intern_hits);
            assert_eq!(par_stats.intern_misses, seq_stats.intern_misses);
            assert_eq!(par_stats.distinct_states, seq_stats.distinct_states);
            assert_eq!(par_stats.spine_clones, seq_stats.spine_clones);
            // The parallel driver reports its sync barriers; the
            // sequential engine has none.
            assert_eq!(par_stats.sync_rounds, par_stats.iterations);
            assert_eq!(seq_stats.sync_rounds, 0);
        }
    }

    /// A panicking step function must *propagate* out of the solve (like
    /// the sequential engines), not deadlock the pool: the worker's panic
    /// is caught, carried over the done barrier, re-raised on the
    /// coordinator, and the pool is shut down before the scope joins.
    #[test]
    fn worker_panic_propagates_instead_of_deadlocking() {
        let poisoned_step = |ps: St, g: G, s: S| {
            if ps.0 == 3 {
                panic!("boom at state 3");
            }
            direct_step(ps, g, s)
        };
        for threads in [1usize, 2, 4] {
            let caught = catch_unwind(AssertUnwindSafe(|| {
                <Dom as ParallelCollecting<St, G, S>>::explore_frontier_parallel(
                    &poisoned_step,
                    St(0),
                    threads,
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

    /// The non-monotone machine of the sequential tests: the rebuild
    /// defence must fire — and still agree with Kleene — in parallel.
    #[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
    pub(crate) struct NmSt(pub(crate) u32);

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

    pub(crate) fn nonmonotone_step(st: NmSt) -> <StorePassing<G, S> as MonadFamily>::M<NmSt> {
        type M = StorePassing<G, S>;
        match st.0 {
            0 => {
                let peeked = <M as MonadTrans>::lift(gets_nd_set::<StateT<S, VecM>, S, Ptr, _>(
                    move |store| {
                        if store.fetch(&9u8).is_empty() {
                            [Ptr(7)].into_iter().collect()
                        } else {
                            BTreeSet::new()
                        }
                    },
                ));
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
    fn parallel_rebuild_round_matches_sequential() {
        type NmDom = SharedStoreDomain<NmSt, G, S>;
        let nm_direct = |ps: NmSt, g: G, s: S| run_store_passing(nonmonotone_step(ps), g, s);
        let (sequential, seq_stats) =
            <NmDom as DirectCollecting<NmSt, G, S>>::explore_frontier_direct(&nm_direct, NmSt(0));
        assert!(seq_stats.rebuild_rounds > 0, "oracle must rebuild");
        for threads in [1usize, 3] {
            let (parallel, par_stats) =
                <NmDom as ParallelCollecting<NmSt, G, S>>::explore_frontier_parallel(
                    &nm_direct,
                    NmSt(0),
                    threads,
                );
            assert_eq!(parallel, sequential);
            assert_eq!(par_stats.rebuild_rounds, seq_stats.rebuild_rounds);
            assert_eq!(par_stats.states_stepped, seq_stats.states_stepped);
            assert_eq!(par_stats.store_joins, seq_stats.store_joins);
        }
        // And both agree with the Rc-carrier oracle engine.
        let (oracle, _) = <NmDom as FrontierCollecting<StorePassing<G, S>, NmSt>>::explore_frontier(
            &nonmonotone_step,
            NmSt(0),
        );
        assert_eq!(oracle, sequential);
    }

    #[test]
    fn zero_threads_clamps_to_one() {
        let (domain, stats) = <Dom as ParallelCollecting<St, G, S>>::explore_frontier_parallel(
            &direct_step,
            St(0),
            0,
        );
        let (sequential, _) =
            <Dom as DirectCollecting<St, G, S>>::explore_frontier_direct(&direct_step, St(0));
        assert_eq!(domain, sequential);
        assert_eq!(stats.steal_events, 0, "one worker has nobody to steal from");
    }
}
