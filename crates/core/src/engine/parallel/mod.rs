//! The parallel step phases of the shared-store engine, and the worker
//! pool that runs them.
//!
//! The round loop, the rebuild defence, the widened fold and the re-seed
//! are written once, in the `shared` sibling module
//! (`solve_shared`); a parallel driver only decides how one set of
//! state ids is stepped against the round's pre-store.  Both parallel
//! phases run on one **persistent pool** of worker threads, spawned once
//! per solve and coordinated by two spin-then-park barriers (no thread is
//! spawned per round).  The coordinator publishes a phase — the ids,
//! a snapshot of the pre-store and the shard layout — and releases the
//! start barrier; each worker runs the phase body, deposits its entries,
//! and meets the coordinator at the done barrier.  A singleton (or empty)
//! phase has no parallelism and runs inline on the coordinator as worker
//! 0.  A worker that panics still reaches the done barrier; its payload is
//! re-raised on the coordinator, and the pool is shut down on every exit
//! path before the panic leaves the solve.
//!
//! The **barrier** phase (`ParallelConfig::epochs = 1`) splits the ids
//! into one contiguous range per worker.  Each worker drains its range
//! through an atomic cursor; once it is empty it **steals** a chunk from
//! the most-loaded remaining range ([`EngineStats::steal_events`] counts
//! these, and [`EngineStats::shard_imbalance`] records how uneven the
//! final per-worker loads were).  Workers share the step function, the
//! store snapshot and the lock-striped [`ShardedInterner`] — nothing
//! else, so the only synchronisation inside a phase is the interner's
//! stripe locks.  The **elastic** phase ([`elastic`]) runs every phase
//! but a rebuild as epochs over private sub-frontiers instead.
//!
//! ## Why the barrier phase reproduces the sequential engine
//!
//! The round loop's exactness argument only needs each round to step its
//! whole frontier against one consistent iterate and to fold the
//! resulting deltas afterwards — it never relies on the *order* in which
//! the frontier is stepped, and the barrier phase steps every id against
//! the pre-store itself:
//!
//! * which pairs are stepped each round (the frontier) is a deterministic
//!   set — it depends only on the previous round's per-address growth and
//!   the dependency index, both of which are order-independent;
//! * the loop folds the same set of deltas in ascending id order, and
//!   store joins are commutative and associative on a canonical
//!   [`PMap`](crate::pmap) spine, so the accumulator is byte-identical;
//! * `StateId`s minted by the sharded interner differ run-to-run in their
//!   numeric assignment, but the *set* of interned states is again
//!   deterministic, and ids never escape the engine (the domain is
//!   un-interned at the boundary).
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
use std::hash::Hash;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError, RwLock};

use crate::addr::HasInitial;
use crate::collect::SharedStoreDomain;
use crate::gc::Touches;
use crate::intern::{ShardedInterner, StateId, WorkerInternCache, WORKER_CACHE_CAPACITY};
use crate::monad::Value;
use crate::store::{StoreDelta, StoreLike};
use crate::telemetry::{
    label_of, GovernorTrace, GovernorTraceKind, NoopSink, Stopwatch, TraceSink, WorkerBuffer,
};

use super::governor::{
    fault_point, Budget, CancelToken, EngineError, LadderReport, LadderRung, Outcome, SolveFrom,
};
use super::shared::{
    solve_shared, step_entry, InternedEntry, PhaseRun, SharedGovernedSolve, SharedResumeSeed,
    StepPhase, STATE_LABEL_MAX,
};
use super::{DirectCollecting, EngineStats, ParallelCollecting, StateRoots, StepFn};
use crate::lattice::WidenLattice;

/// The knob set of the parallel drivers: how many workers, and how many
/// *epochs* each worker may advance its private sub-frontier between two
/// sync barriers.
///
/// `epochs = 1` selects the **barrier** phase (every round ends in a
/// join-on-sync barrier; work counters deterministic at every thread
/// count).  `epochs > 1` selects the **elastic** phase ([`elastic`]):
/// workers run up to `epochs` epochs on self-discovered work before the
/// lazy merge, trading counter determinism (epoch/steal timing varies run
/// to run) for less barrier time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParallelConfig {
    /// Worker threads (clamped to ≥ 1 by the drivers).
    pub threads: usize,
    /// Maximum epochs between barriers (clamped to ≥ 1; 1 = barrier
    /// phase).
    pub epochs: usize,
}

impl ParallelConfig {
    /// The barrier phase: one epoch per round.
    pub fn barrier(threads: usize) -> Self {
        ParallelConfig { threads, epochs: 1 }
    }

    /// The elastic phase with the given epoch budget.
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

/// One step phase, as published to the worker pool: the ids to step, a
/// snapshot of the pre-round store, and the shard layout.
struct Phase<S> {
    /// The ids to step, ascending.
    ids: Vec<StateId>,
    /// The pre-round store snapshot every step runs against.
    store: S,
    /// The epoch budget: 1 runs the stealing body, more the epoch body.
    epochs: usize,
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
    /// The governing budget's cancellation flag, polled by the workers
    /// between claims (barrier) or inside interruptible epochs (elastic).
    cancel: CancelToken,
}

impl<S> Phase<S> {
    /// Lays `ids` out as `shards` contiguous ranges.
    fn new(
        ids: Vec<StateId>,
        store: S,
        epochs: usize,
        shards: usize,
        trace: bool,
        cancel: CancelToken,
    ) -> Self {
        let len = ids.len();
        Phase {
            ends: (1..=shards).map(|t| t * len / shards).collect(),
            cursors: (0..shards)
                .map(|t| AtomicUsize::new(t * len / shards))
                .collect(),
            chunk: (len / (shards * 8)).max(1),
            ids,
            store,
            epochs,
            trace,
            cancel,
        }
    }

    /// The ids first assigned to `shard`.
    fn shard(&self, shard: usize) -> &[StateId] {
        let start = shard * self.ids.len() / self.ends.len();
        &self.ids[start..self.ends[shard]]
    }
}

/// One worker's output for a phase: the entries it computed (one per id
/// it stepped, own range plus stolen chunks), its timing gauges, and —
/// when the phase is traced — its private lock-free [`WorkerBuffer`] for
/// the coordinator to drain at the barrier.
struct WorkerOutcome<S, A> {
    worker: usize,
    entries: Vec<(StateId, InternedEntry<S, A>)>,
    gauges: EngineStats,
    trace: WorkerBuffer,
}

/// The barrier phase body of one worker: claim chunks (own range first,
/// then steal from the most-loaded range) and step each claimed pair
/// against the phase's store snapshot.
fn run_stealing<Ps, G, S, F>(
    me: usize,
    step: &F,
    phase: &Phase<S>,
    interner: &ShardedInterner<(Ps, G), StateId>,
) -> WorkerOutcome<S, Ps::Addr>
where
    Ps: Value + Ord + Hash + StateRoots,
    G: Value + Ord + Hash,
    S: StoreLike<Ps::Addr> + StoreDelta<Ps::Addr> + Value,
    F: StepFn<Ps, G, S>,
{
    let mut outcome = WorkerOutcome {
        worker: me,
        entries: Vec::new(),
        gauges: EngineStats::default(),
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
        ..
    } = phase;
    let mut busy_watch = Stopwatch::start(*trace);
    // Once our own range is drained we stop touching its cursor: the extra
    // fetch_add per steal attempt would be pure cache-line traffic.
    let mut own_drained = false;
    loop {
        // Cooperative cancellation: stop claiming as soon as the token is
        // set.  Already-claimed chunks finish (their contributions are
        // sound and folded); unclaimed ids stay in the resume seed.
        if cancel.is_cancelled() {
            break;
        }
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
                    outcome.gauges.steal_events += 1;
                    if *trace {
                        outcome.trace.victims.push(victim);
                    }
                    claimed = Some((start, ends[victim]));
                    break;
                }
            }
        }
        let Some((start, end)) = claimed else { break };
        for &id in &ids[start..(start + chunk).min(end)] {
            fault_point(me);
            let mut step_watch = Stopwatch::start(*trace);
            let (ps, guts) = interner.resolve_cloned(id);
            let entry = step_entry(step, ps, guts, store, |k| interner.intern(k));
            if *trace {
                // Raw `(id, ns)` only — labels are resolved by the
                // coordinator at the barrier, never on the hot path.
                outcome.trace.costs.push((id, step_watch.lap_ns()));
            }
            outcome.entries.push((id, entry));
        }
    }
    outcome.trace.busy_ns = busy_watch.lap_ns();
    outcome
}

/// The per-shard epoch counters and the cooperative merge flag — the only
/// coordination the elastic phase has inside a phase.
struct EpochClock {
    /// Per-shard published epochs: bumped whenever a shard's epoch grew
    /// its private view.
    shard_epochs: Vec<AtomicUsize>,
    /// Set by a worker that wants the lazy merge now.
    merge_requested: AtomicBool,
}

/// Everything the coordinator and the workers of one solve share.
struct Pool<Ps, G, S, A> {
    interner: ShardedInterner<(Ps, G), StateId>,
    clock: EpochClock,
    /// The published phase; `None` between phases and as the stop signal.
    slot: RwLock<Option<Phase<S>>>,
    outcomes: Mutex<Vec<WorkerOutcome<S, A>>>,
    /// Panic payloads from workers: a worker that panics (a panicking user
    /// step function, say) must still arrive at the done barrier, or the
    /// coordinator would wait on it forever — so the panic is caught,
    /// parked here, and surfaced to the coordinator right after the
    /// barrier.  Lock accesses on this path tolerate poisoning (a poisoned
    /// mutex here must not turn into a second, barrier-skipping panic).
    panics: Mutex<Vec<Box<dyn Any + Send>>>,
    start: SpinBarrier,
    done: SpinBarrier,
}

impl<Ps, G, S> Pool<Ps, G, S, Ps::Addr>
where
    Ps: Value + Ord + Hash + StateRoots + Send + Sync,
    Ps::Addr: Hash,
    G: Value + Ord + Hash + Send + Sync,
    S: StoreLike<Ps::Addr> + StoreDelta<Ps::Addr> + Value,
{
    fn new(threads: usize) -> Self {
        Pool {
            interner: ShardedInterner::new(),
            clock: EpochClock {
                shard_epochs: (0..threads).map(|_| AtomicUsize::new(0)).collect(),
                merge_requested: AtomicBool::new(false),
            },
            slot: RwLock::new(None),
            outcomes: Mutex::new(Vec::new()),
            panics: Mutex::new(Vec::new()),
            start: SpinBarrier::new(threads + 1),
            done: SpinBarrier::new(threads + 1),
        }
    }

    /// Runs worker `me`'s body for one phase; `memo` is the worker's
    /// private intern memo, which persists across phases.
    fn run_body<F: StepFn<Ps, G, S>>(
        &self,
        me: usize,
        step: &F,
        phase: &Phase<S>,
        memo: &mut WorkerInternCache<(Ps, G), StateId>,
    ) -> WorkerOutcome<S, Ps::Addr> {
        if phase.epochs > 1 {
            elastic::run_epochs(me, step, phase, &self.interner, &self.clock, memo)
        } else {
            run_stealing(me, step, phase, &self.interner)
        }
    }

    /// One worker thread: run every published phase until the stop signal.
    fn work<F: StepFn<Ps, G, S>>(&self, me: usize, step: &F) {
        // The memo persists across phases: the hot states of round r are
        // usually re-touched in round r+1.
        let mut memo = WorkerInternCache::new(WORKER_CACHE_CAPACITY);
        loop {
            self.start.wait();
            let ran = catch_unwind(AssertUnwindSafe(|| {
                let guard = self.slot.read().unwrap_or_else(PoisonError::into_inner);
                let Some(phase) = guard.as_ref() else {
                    return false;
                };
                let outcome = self.run_body(me, step, phase, &mut memo);
                self.outcomes
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .push(outcome);
                true
            }));
            match ran {
                Ok(true) => self.done.wait(),
                Ok(false) => return,
                Err(payload) => {
                    self.panics
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner)
                        .push(payload);
                    self.done.wait();
                }
            }
        }
    }
}

/// The parallel [`StepPhase`]: publishes each phase to the pool (or runs
/// a singleton inline) and merges the worker outcomes.
struct PoolPhase<'p, Ps, G, S, F, A> {
    pool: &'p Pool<Ps, G, S, A>,
    step: &'p F,
    threads: usize,
    epochs: usize,
    cancel: CancelToken,
    /// The interner's per-stripe watermarks at the last mark.
    marks: Vec<usize>,
    /// The coordinator's own memo, for inline elastic phases.
    memo: WorkerInternCache<(Ps, G), StateId>,
}

impl<Ps, G, S, F> StepPhase<Ps, G, S> for PoolPhase<'_, Ps, G, S, F, Ps::Addr>
where
    Ps: Value + Ord + Hash + StateRoots + Send + Sync + std::fmt::Debug,
    Ps::Addr: Hash,
    G: Value + Ord + Hash + Send + Sync,
    S: StoreLike<Ps::Addr> + StoreDelta<Ps::Addr> + Value,
    F: StepFn<Ps, G, S>,
{
    fn rung(&self) -> LadderRung {
        if self.epochs > 1 {
            LadderRung::Elastic
        } else {
            LadderRung::Barrier
        }
    }

    fn intern(&mut self, pair: (Ps, G)) -> StateId {
        self.pool.interner.intern(pair)
    }

    fn mark(&mut self) {
        self.marks = self.pool.interner.watermarks();
    }

    fn minted(&self) -> Vec<StateId> {
        self.pool.interner.fresh_since(&self.marks)
    }

    fn run<T: TraceSink>(
        &mut self,
        ids: Vec<StateId>,
        store: &S,
        rebuild: bool,
        round: usize,
        sink: &mut T,
    ) -> PhaseRun<S, Ps::Addr> {
        let armed = sink.enabled();
        let pool = self.pool;
        // A rebuild steps against the pre-store itself: one epoch.
        let epochs = if rebuild { 1 } else { self.epochs };
        // A singleton (or empty) phase has no parallelism by definition:
        // step it inline on the coordinator as worker 0 and spare the
        // pool a wake/park cycle (an elastic one still chases its chain
        // through the epochs).  The work is identical; there is just no
        // sync traffic for it.
        let inline = ids.len() <= 1;
        let shards = if inline { 1 } else { self.threads };
        let phase = Phase::new(
            ids,
            store.clone(),
            epochs,
            shards,
            armed,
            self.cancel.clone(),
        );
        pool.clock.merge_requested.store(false, Ordering::Release);
        let mut wall_watch = Stopwatch::start(armed);
        let outcomes = if inline {
            vec![pool.run_body(0, self.step, &phase, &mut self.memo)]
        } else {
            *pool.slot.write().unwrap_or_else(PoisonError::into_inner) = Some(phase);
            pool.start.wait();
            pool.done.wait();
            // Drop the store snapshot promptly (it holds spine refs).
            *pool.slot.write().unwrap_or_else(PoisonError::into_inner) = None;
            // A worker panicked mid-phase: every worker still reached the
            // barrier (panics are caught and parked), so the pool is
            // quiescent — re-raise on the coordinator, whose caller shuts
            // the pool down before the panic leaves the solve.
            if let Some(payload) = pool
                .panics
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .pop()
            {
                resume_unwind(payload);
            }
            std::mem::take(&mut *pool.outcomes.lock().unwrap_or_else(PoisonError::into_inner))
        };
        let measured_wall = wall_watch.lap_ns();
        let mut run = PhaseRun {
            entries: Vec::new(),
            gauges: EngineStats::default(),
            busy_ns: 0,
            wall_ns: 0,
        };
        let (mut max_processed, mut min_processed) = (0usize, usize::MAX);
        for outcome in outcomes {
            let processed = outcome.entries.len();
            let busy = outcome.trace.busy_ns;
            // The inline path *is* worker 0 for this phase; its wall is
            // its busy time (no barrier to wait on).
            let wall = if inline { busy } else { measured_wall };
            max_processed = max_processed.max(processed);
            min_processed = min_processed.min(processed);
            run.busy_ns = run.busy_ns.max(busy);
            run.wall_ns = wall;
            run.gauges.merge(&outcome.gauges);
            if armed {
                outcome
                    .trace
                    .drain_into(round, outcome.worker, processed, wall, sink, |id| {
                        label_of(&pool.interner.resolve_cloned(id).0, STATE_LABEL_MAX)
                    });
            }
            run.entries.extend(outcome.entries);
        }
        run.gauges.shard_imbalance = max_processed - min_processed.min(max_processed);
        run
    }

    fn into_pairs(self, stats: &mut EngineStats) -> Vec<(Ps, G)> {
        let interner = &self.pool.interner;
        stats.intern_hits = interner.hits();
        stats.intern_misses = interner.misses();
        stats.distinct_states = interner.len();
        stats.stripe_acquisitions = interner.stripe_acquisitions();
        // Value order, not id order: sharded ids differ run to run, and
        // the resume seed should not.
        let mut pairs: Vec<(Ps, G)> = interner
            .entries_cloned()
            .into_iter()
            .map(|(_, pair)| pair)
            .collect();
        pairs.sort();
        pairs
    }
}

/// The governed parallel solve: the shared round loop over the pool's step
/// phase — barrier when `config.epochs = 1`, elastic otherwise.
///
/// Returns `Err` with the *original* panic payload when a worker (or the
/// coordinator's inline singleton path) panicked: the pool is always
/// drained and shut down first, so the caller decides whether to re-raise
/// it (classic entry points) or convert it to a clean
/// [`EngineError::WorkerPanicked`] (governed entry points).
fn solve_on_pool<Ps, G, S, F, T>(
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
    F: StepFn<Ps, G, S>,
    T: TraceSink,
{
    let threads = config.threads.max(1);
    let pool: Pool<Ps, G, S, Ps::Addr> = Pool::new(threads);
    std::thread::scope(|scope| {
        for me in 0..threads {
            let pool = &pool;
            scope.spawn(move || pool.work(me, step));
        }
        let phase = PoolPhase {
            pool: &pool,
            step,
            threads,
            epochs: config.epochs.max(1),
            cancel: budget.cancel.clone(),
            marks: Vec::new(),
            memo: WorkerInternCache::new(WORKER_CACHE_CAPACITY),
        };
        let solve = catch_unwind(AssertUnwindSafe(|| {
            solve_shared(phase, step, from, budget, sink)
        }));
        // Shut the pool down: a `None` phase is the stop signal.  This
        // runs on the panic path too — otherwise the scope's implicit join
        // would wait forever on workers parked at the start barrier — and
        // only *then* is the panic handed back.
        *pool.slot.write().unwrap_or_else(PoisonError::into_inner) = None;
        pool.start.wait();
        solve
    })
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
        config: ParallelConfig,
        budget: &Budget,
        sink: &mut T,
    ) -> Result<(Outcome<Self, Self::Seed>, EngineStats), EngineError>
    where
        F: StepFn<Ps, G, S>,
        T: TraceSink,
        Ps: std::fmt::Debug,
    {
        solve_on_pool(step, from, config, budget, sink)
            .map_err(|payload| EngineError::worker_panicked(payload.as_ref()))
    }

    fn explore_frontier_parallel_traced<F, T>(
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
        // The classic entry point re-raises the original panic payload, so
        // a panicking user step function propagates exactly as it would
        // out of the sequential engines.
        match solve_on_pool(
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
    let mut rungs = vec![(LadderRung::Barrier, ParallelConfig::barrier(config.threads))];
    if config.epochs > 1 {
        rungs.insert(0, (LadderRung::Elastic, config));
    }
    for (rung, config) in rungs {
        match SharedStoreDomain::explore_frontier_parallel_governed_traced(
            step,
            SolveFrom::Fresh(initial.clone()),
            config,
            budget,
            sink,
        ) {
            Ok((outcome, stats)) => return (outcome, stats, LadderReport { rung, faults }),
            Err(error) => {
                sink.governor(GovernorTrace {
                    round: 0,
                    kind: GovernorTraceKind::RungFaulted(rung),
                });
                faults.push((rung, error));
            }
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
    use std::collections::BTreeSet;

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
                    ParallelConfig::barrier(threads),
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
                    ParallelConfig::barrier(threads),
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
                    ParallelConfig::barrier(threads),
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
            ParallelConfig::barrier(0),
        );
        let (sequential, _) =
            <Dom as DirectCollecting<St, G, S>>::explore_frontier_direct(&direct_step, St(0));
        assert_eq!(domain, sequential);
        assert_eq!(stats.steal_events, 0, "one worker has nobody to steal from");
    }
}
