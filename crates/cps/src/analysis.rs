//! Abstract interpretation of CPS: the `StorePassing` instance of the
//! semantic interface, abstract garbage collection, and the k-CFA analysis
//! family (paper §5.3, §6 and §8).
//!
//! Everything in this module is assembled from language-independent parts of
//! `mai-core`: the [`StorePassing`] monad, [`Context`]s for polyvariance,
//! [`StoreLike`] stores (plain or counting), the per-state / shared-store
//! [`Collecting`] domains, and the garbage-collection reachability engine.
//! The only CPS-specific ingredients are the [`CpsInterface`] instance below
//! and the [`Touches`](mai_core::gc::Touches) instances of [`crate::semantics`].

use std::collections::{BTreeMap, BTreeSet};

use mai_core::addr::{Context, NamedAddress};
use mai_core::collect::{
    explore_fp_bounded, run_analysis, with_gc, Collecting, PerStateDomain, SharedStoreDomain,
};
use mai_core::engine::{
    explore_frontier_ladder, with_state_gc, Budget, DirectCollecting, EngineError, EngineStats,
    FrontierCollecting, LadderReport, Outcome, ParallelCollecting, ParallelConfig,
    SharedResumeSeed, SolveFrom,
};
use mai_core::gc::ReachableGc;
use mai_core::lattice::{KleeneOutcome, Lattice};
use mai_core::monad::{
    gets_nd_set, MonadFamily, MonadState, MonadTrans, StateT, StorePassing, Value, VecM,
};
use mai_core::name::Name;
use mai_core::store::{BasicStore, CountingStore, StoreLike};
use mai_core::{ConcreteCtx, KCallAddr, KCallCtx, MonoAddr, MonoCtx};

use crate::semantics::{mnext, CpsInterface, Env, PState, Val};
use crate::syntax::{AExp, CExp, Lambda, Var};

/// The abstract (and concrete-collecting) implementation of the CPS semantic
/// interface over the paper's `StorePassing` monad (§5.3.2, generalised to
/// arbitrary contexts in §6.1 and arbitrary stores in §6.2).
///
/// * `fun`/`arg` on a variable reference go through `lift ∘ getsNDSet`,
///   turning the set of closures at the variable's address into monadic
///   non-determinism;
/// * `write` joins a singleton into the store (a weak update);
/// * `alloc` consults the context (the outer state) through `valloc`;
/// * `tick` advances the context across the call site being executed.
impl<C, S> CpsInterface<C::Addr> for StorePassing<C, S>
where
    C: Context,
    S: StoreLike<C::Addr, D = BTreeSet<Val<C::Addr>>> + Value,
{
    fn fun(env: &Env<C::Addr>, e: &AExp, (): ()) -> Self::M<Val<C::Addr>> {
        match e {
            AExp::Lam(lam) => <Self as MonadFamily>::pure(Val::closure(lam.clone(), env.clone())),
            AExp::Ref(v) => {
                let addr = env.get(v).cloned();
                Self::lift(gets_nd_set::<StateT<S, VecM>, S, Val<C::Addr>, _>(
                    move |store| match &addr {
                        Some(a) => store.fetch(a),
                        None => BTreeSet::new(),
                    },
                ))
            }
        }
    }

    fn arg(env: &Env<C::Addr>, e: &AExp, cx: ()) -> Self::M<Val<C::Addr>> {
        Self::fun(env, e, cx)
    }

    fn write(addr: C::Addr, val: Val<C::Addr>, (): ()) -> Self::M<()> {
        Self::lift(<StateT<S, VecM> as MonadState<S>>::modify(move |store| {
            store.bind(addr.clone(), [val.clone()].into_iter().collect())
        }))
    }

    fn alloc(var: &Var, (): ()) -> Self::M<C::Addr> {
        let var = var.clone();
        <Self as MonadState<C>>::gets(move |ctx| ctx.valloc(&var))
    }

    fn tick(_proc: &Val<C::Addr>, ps: &PState<C::Addr>, (): ()) -> Self::M<()> {
        let site = ps.site();
        <Self as MonadState<C>>::modify(move |ctx| ctx.advance(site))
    }
}

/// [`mnext`] on the closure carrier, in the `Fn(state) -> M<state>` shape
/// the closure-carrier engines take.
fn closure_mnext<C, S>(
    ps: PState<C::Addr>,
) -> <StorePassing<C, S> as MonadFamily>::M<PState<C::Addr>>
where
    C: Context,
    S: StoreLike<C::Addr, D = BTreeSet<Val<C::Addr>>> + Value,
{
    mnext::<StorePassing<C, S>, C::Addr>(ps, ())
}

/// Runs the monadically-parameterized analysis of a CPS program with an
/// arbitrary combination of context `C`, store `S` and collecting domain
/// `Fp` — the paper's `runAnalysis` with its three degrees of freedom
/// spelled out as type parameters.
pub fn analyse<C, S, Fp>(program: &CExp) -> Fp
where
    C: Context,
    S: StoreLike<C::Addr, D = BTreeSet<Val<C::Addr>>> + Value,
    Fp: Collecting<StorePassing<C, S>, PState<C::Addr>>,
{
    run_analysis::<StorePassing<C, S>, _, Fp, _>(
        closure_mnext::<C, S>,
        PState::inject(program.clone()),
    )
}

/// Like [`analyse`], but performs abstract garbage collection after every
/// transition (the `STEP-GC` rule of §6.4).
pub fn analyse_gc<C, S, Fp>(program: &CExp) -> Fp
where
    C: Context,
    S: StoreLike<C::Addr, D = BTreeSet<Val<C::Addr>>> + Value,
    Fp: Collecting<StorePassing<C, S>, PState<C::Addr>>,
{
    run_analysis::<StorePassing<C, S>, _, Fp, _>(
        with_gc::<StorePassing<C, S>, PState<C::Addr>, _, _>(closure_mnext::<C, S>, ReachableGc),
        PState::inject(program.clone()),
    )
}

/// Like [`analyse`], but solved by the frontier-driven worklist engine
/// instead of naive Kleene iteration, additionally reporting
/// [`EngineStats`].  Computes exactly the same fixpoint (the engine replays
/// the Kleene iterate sequence, serving unchanged states from its step
/// cache), so `analyse` remains the reference oracle.
pub fn analyse_worklist<C, S, Fp>(program: &CExp) -> (Fp, EngineStats)
where
    C: Context,
    S: StoreLike<C::Addr, D = BTreeSet<Val<C::Addr>>> + Value,
    Fp: FrontierCollecting<StorePassing<C, S>, PState<C::Addr>>,
{
    Fp::explore_frontier(&closure_mnext::<C, S>, PState::inject(program.clone()))
}

/// Like [`analyse_gc`], but solved by the worklist engine.
pub fn analyse_gc_worklist<C, S, Fp>(program: &CExp) -> (Fp, EngineStats)
where
    C: Context,
    S: StoreLike<C::Addr, D = BTreeSet<Val<C::Addr>>> + Value,
    Fp: FrontierCollecting<StorePassing<C, S>, PState<C::Addr>>,
{
    Fp::explore_frontier(
        &with_gc::<StorePassing<C, S>, PState<C::Addr>, _, _>(closure_mnext::<C, S>, ReachableGc),
        PState::inject(program.clone()),
    )
}

/// Like [`analyse_worklist`], but evaluated on the **direct-style step
/// carrier**: the engine runs [`crate::direct::mnext_direct`] — the same
/// Figure-2 semantics with `bind` as plain function composition on an
/// explicit `(context, store)` context — instead of desugaring the
/// `Rc`-closure monad per step.  Identical fixpoint and identical work
/// counters (the solver code is shared); only the per-step constant factor
/// differs.  The `Rc` carrier remains the differential-testing oracle.
pub fn analyse_worklist_direct<C, S, Fp>(program: &CExp) -> (Fp, EngineStats)
where
    C: Context,
    S: StoreLike<C::Addr, D = BTreeSet<Val<C::Addr>>> + Value,
    Fp: DirectCollecting<PState<C::Addr>, C, S>,
{
    Fp::explore_frontier_direct(
        &crate::direct::mnext_direct::<C, S>,
        PState::inject(program.clone()),
    )
}

/// Like [`analyse_gc_worklist`], but on the direct-style carrier: abstract
/// GC runs as a per-branch store restriction ([`with_state_gc`]) after
/// each direct transition.
pub fn analyse_gc_worklist_direct<C, S, Fp>(program: &CExp) -> (Fp, EngineStats)
where
    C: Context,
    S: StoreLike<C::Addr, D = BTreeSet<Val<C::Addr>>> + Value,
    Fp: DirectCollecting<PState<C::Addr>, C, S>,
{
    Fp::explore_frontier_direct(
        &with_state_gc(crate::direct::mnext_direct::<C, S>),
        PState::inject(program.clone()),
    )
}

/// Like [`analyse_worklist_direct`], but *governed*: the solve consults
/// `budget` at every round boundary and returns an [`Outcome`] — either
/// the complete fixpoint or an `Exhausted` partial whose resume seed
/// reaches the identical fixpoint when handed back to
/// [`analyse_resume_governed`].  With `Budget::unlimited()` the result and
/// every deterministic work counter are byte-identical to
/// [`analyse_worklist_direct`] (the ungoverned entry point *is* this one,
/// applied to the unlimited budget).
pub fn analyse_worklist_governed<C, S, Fp>(
    program: &CExp,
    budget: &Budget,
) -> (Outcome<Fp, Fp::Seed>, EngineStats)
where
    C: Context,
    S: StoreLike<C::Addr, D = BTreeSet<Val<C::Addr>>> + Value,
    Fp: DirectCollecting<PState<C::Addr>, C, S>,
{
    Fp::explore_frontier_governed(
        &crate::direct::mnext_direct::<C, S>,
        SolveFrom::Fresh(PState::inject(program.clone())),
        budget,
    )
}

/// Resumes an exhausted governed solve from its carried seed.  Monotone
/// accumulation guarantees the resumed solve reaches exactly the fixpoint
/// the one-shot solve would have.
pub fn analyse_resume_governed<C, S, Fp>(
    seed: Fp::Seed,
    budget: &Budget,
) -> (Outcome<Fp, Fp::Seed>, EngineStats)
where
    C: Context,
    S: StoreLike<C::Addr, D = BTreeSet<Val<C::Addr>>> + Value,
    Fp: DirectCollecting<PState<C::Addr>, C, S>,
{
    Fp::explore_frontier_governed(
        &crate::direct::mnext_direct::<C, S>,
        SolveFrom::Resume(seed),
        budget,
    )
}

/// [`analyse_worklist_elastic`], governed: budget and cancellation are
/// checked at every epoch boundary (cancel latency is at most one epoch).
pub fn analyse_worklist_elastic_governed<C, S, Fp>(
    program: &CExp,
    config: ParallelConfig,
    budget: &Budget,
) -> Result<(Outcome<Fp, Fp::Seed>, EngineStats), EngineError>
where
    C: Context,
    S: StoreLike<C::Addr, D = BTreeSet<Val<C::Addr>>> + Value,
    Fp: ParallelCollecting<PState<C::Addr>, C, S>,
{
    Fp::explore_frontier_parallel_governed(
        &crate::direct::mnext_direct::<C, S>,
        SolveFrom::Fresh(PState::inject(program.clone())),
        config,
        budget,
    )
}

/// The outcome type of a ladder solve over the shared-store CPS domain.
pub type LadderOutcome<C, S> = Outcome<
    SharedStoreDomain<PState<<C as Context>::Addr>, C, S>,
    SharedResumeSeed<PState<<C as Context>::Addr>, C, S>,
>;

/// [`analyse_worklist_elastic`] behind the full degradation ladder:
/// elastic → barrier → sequential direct.  A faulted parallel rung is
/// reported in the [`LadderReport`]; the returned fixpoint is byte-identical
/// to [`analyse_worklist_direct`] no matter which rung completed.
pub fn analyse_worklist_ladder<C, S>(
    program: &CExp,
    config: ParallelConfig,
    budget: &Budget,
) -> (LadderOutcome<C, S>, EngineStats, LadderReport)
where
    C: Context + std::hash::Hash,
    S: StoreLike<C::Addr, D = BTreeSet<Val<C::Addr>>>
        + mai_core::store::StoreDelta<C::Addr>
        + mai_core::lattice::WidenLattice
        + Value,
{
    explore_frontier_ladder(
        &crate::direct::mnext_direct::<C, S>,
        PState::inject(program.clone()),
        config,
        budget,
    )
}

/// Like [`analyse_worklist_direct`], but solved by the **sharded parallel
/// driver** ([`mai_core::engine::parallel`]) on `threads` worker threads:
/// the frontier is sharded across workers (work-stealing by `StateId`
/// ranges), each worker steps against a snapshot of the global store, and
/// per-shard deltas are joined at a sync barrier each round.  Byte-identical
/// fixpoint — and identical deterministic work counters — to
/// [`analyse_worklist_direct`] at every thread count; the sequential direct
/// engine remains the determinism oracle.
pub fn analyse_worklist_parallel<C, S, Fp>(program: &CExp, threads: usize) -> (Fp, EngineStats)
where
    C: Context,
    S: StoreLike<C::Addr, D = BTreeSet<Val<C::Addr>>> + Value,
    Fp: ParallelCollecting<PState<C::Addr>, C, S>,
{
    Fp::explore_frontier_parallel(
        &crate::direct::mnext_direct::<C, S>,
        PState::inject(program.clone()),
        ParallelConfig::barrier(threads),
    )
}

/// [`analyse_worklist_direct`] with a [`TraceSink`](mai_core::telemetry::TraceSink)
/// observing the solve: per-round phase timings, store-join traffic and
/// hot-state attribution.  Identical fixpoint and identical deterministic
/// work counters at every sink — with
/// [`NoopSink`](mai_core::telemetry::NoopSink) this *is*
/// [`analyse_worklist_direct`], monomorphized back to the untraced code.
pub fn analyse_worklist_direct_traced<C, S, Fp, T>(
    program: &CExp,
    sink: &mut T,
) -> (Fp, EngineStats)
where
    C: Context,
    S: StoreLike<C::Addr, D = BTreeSet<Val<C::Addr>>> + Value,
    Fp: DirectCollecting<PState<C::Addr>, C, S>,
    T: mai_core::telemetry::TraceSink,
{
    Fp::explore_frontier_direct_traced(
        &crate::direct::mnext_direct::<C, S>,
        PState::inject(program.clone()),
        sink,
    )
}

/// Like [`analyse_gc_worklist_direct`], but solved by the sharded parallel
/// driver (abstract GC as the per-branch [`with_state_gc`] store
/// restriction, inside each worker).
pub fn analyse_gc_worklist_parallel<C, S, Fp>(program: &CExp, threads: usize) -> (Fp, EngineStats)
where
    C: Context,
    S: StoreLike<C::Addr, D = BTreeSet<Val<C::Addr>>> + Value,
    Fp: ParallelCollecting<PState<C::Addr>, C, S>,
{
    Fp::explore_frontier_parallel(
        &with_state_gc(crate::direct::mnext_direct::<C, S>),
        PState::inject(program.clone()),
        ParallelConfig::barrier(threads),
    )
}

/// Like [`analyse_worklist_parallel`], but solved by the **barrier-elastic
/// driver** ([`mai_core::engine::parallel::elastic`]): workers advance
/// private sub-frontiers for up to [`ParallelConfig::epochs`] epochs
/// between barriers, merging per-shard store deltas lazily.  The fixpoint
/// stays byte-identical to [`analyse_worklist_direct`]; the *work
/// counters* become timing-dependent (`epochs = 1` delegates to the
/// barrier engine, deterministic counters and all).
pub fn analyse_worklist_elastic<C, S, Fp>(
    program: &CExp,
    config: ParallelConfig,
) -> (Fp, EngineStats)
where
    C: Context,
    S: StoreLike<C::Addr, D = BTreeSet<Val<C::Addr>>> + Value,
    Fp: ParallelCollecting<PState<C::Addr>, C, S>,
{
    Fp::explore_frontier_parallel(
        &crate::direct::mnext_direct::<C, S>,
        PState::inject(program.clone()),
        config,
    )
}

/// [`analyse_worklist_elastic`] with a
/// [`TraceSink`](mai_core::telemetry::TraceSink) observing the solve
/// (per-round, per-worker, per-epoch and per-merge profiles).
pub fn analyse_worklist_elastic_traced<C, S, Fp, T>(
    program: &CExp,
    config: ParallelConfig,
    sink: &mut T,
) -> (Fp, EngineStats)
where
    C: Context,
    S: StoreLike<C::Addr, D = BTreeSet<Val<C::Addr>>> + Value,
    Fp: ParallelCollecting<PState<C::Addr>, C, S>,
    T: mai_core::telemetry::TraceSink,
{
    Fp::explore_frontier_parallel_traced(
        &crate::direct::mnext_direct::<C, S>,
        PState::inject(program.clone()),
        config,
        sink,
    )
}

/// Like [`analyse_gc_worklist_parallel`], but on the barrier-elastic
/// driver.
pub fn analyse_gc_worklist_elastic<C, S, Fp>(
    program: &CExp,
    config: ParallelConfig,
) -> (Fp, EngineStats)
where
    C: Context,
    S: StoreLike<C::Addr, D = BTreeSet<Val<C::Addr>>> + Value,
    Fp: ParallelCollecting<PState<C::Addr>, C, S>,
{
    Fp::explore_frontier_parallel(
        &with_state_gc(crate::direct::mnext_direct::<C, S>),
        PState::inject(program.clone()),
        config,
    )
}

/// [`analyse_worklist_parallel`] with a
/// [`TraceSink`](mai_core::telemetry::TraceSink) observing the solve:
/// per-round phase timings **plus one
/// [`WorkerSpan`](mai_core::telemetry::WorkerSpan) per worker per round**
/// and a [`StealTrace`](mai_core::telemetry::StealTrace) per stolen chunk —
/// the decomposition of E12's sync overhead.
pub fn analyse_worklist_parallel_traced<C, S, Fp, T>(
    program: &CExp,
    threads: usize,
    sink: &mut T,
) -> (Fp, EngineStats)
where
    C: Context,
    S: StoreLike<C::Addr, D = BTreeSet<Val<C::Addr>>> + Value,
    Fp: ParallelCollecting<PState<C::Addr>, C, S>,
    T: mai_core::telemetry::TraceSink,
{
    Fp::explore_frontier_parallel_traced(
        &crate::direct::mnext_direct::<C, S>,
        PState::inject(program.clone()),
        ParallelConfig::barrier(threads),
        sink,
    )
}

/// Like [`analyse_worklist`], but solved by the PR-2 *structural-key*
/// incremental engine (states as `BTreeMap` keys instead of interned ids).
/// Same fixpoint and same frontier strategy; kept as a differential-testing
/// oracle and the E10 benchmark baseline.
pub fn analyse_worklist_structural<C, S, Fp>(program: &CExp) -> (Fp, EngineStats)
where
    C: Context,
    S: StoreLike<C::Addr, D = BTreeSet<Val<C::Addr>>> + Value,
    Fp: FrontierCollecting<StorePassing<C, S>, PState<C::Addr>>,
{
    Fp::explore_frontier_structural(&closure_mnext::<C, S>, PState::inject(program.clone()))
}

/// Like [`analyse_gc_worklist`], but solved by the structural-key engine.
pub fn analyse_gc_worklist_structural<C, S, Fp>(program: &CExp) -> (Fp, EngineStats)
where
    C: Context,
    S: StoreLike<C::Addr, D = BTreeSet<Val<C::Addr>>> + Value,
    Fp: FrontierCollecting<StorePassing<C, S>, PState<C::Addr>>,
{
    Fp::explore_frontier_structural(
        &with_gc::<StorePassing<C, S>, PState<C::Addr>, _, _>(closure_mnext::<C, S>, ReachableGc),
        PState::inject(program.clone()),
    )
}

/// The plain store used by the k-CFA family: addresses are
/// variable × call-string pairs, values are CPS closures.
pub type KStore = BasicStore<KCallAddr, Val<KCallAddr>>;

/// The counting store used by `analyseWithCount` (§8.3).
pub type KCountingStore = CountingStore<KCallAddr, Val<KCallAddr>>;

/// The heap-cloning ("per-state store") k-CFA analysis domain (§8.1).
pub type KCfaPerState<const K: usize> = PerStateDomain<PState<KCallAddr>, KCallCtx<K>, KStore>;

/// The shared-store (widened) k-CFA analysis domain (§8.2).
pub type KCfaShared<const K: usize> = SharedStoreDomain<PState<KCallAddr>, KCallCtx<K>, KStore>;

/// The shared-store k-CFA domain with abstract counting (§8.3).
pub type KCfaCounting<const K: usize> =
    SharedStoreDomain<PState<KCallAddr>, KCallCtx<K>, KCountingStore>;

/// The monovariant (0CFA) shared-store analysis domain.
pub type MonoShared =
    SharedStoreDomain<PState<MonoAddr>, MonoCtx, BasicStore<MonoAddr, Val<MonoAddr>>>;

/// The paper's `analyseKCFA` (§8.1): a k-CFA analysis with a per-state
/// ("cloned") store.
pub fn analyse_kcfa<const K: usize>(program: &CExp) -> KCfaPerState<K> {
    analyse::<KCallCtx<K>, KStore, _>(program)
}

/// The paper's `analyseShared` (§8.2): k-CFA with a single widened store.
pub fn analyse_kcfa_shared<const K: usize>(program: &CExp) -> KCfaShared<K> {
    analyse::<KCallCtx<K>, KStore, _>(program)
}

/// The paper's `analyseWithCount` (§8.3): k-CFA with a shared *counting*
/// store, enabling cardinality bounds.
///
/// Note that with a single widened store the global Kleene iteration
/// re-executes transitions against the accumulated store, so counts
/// saturate quickly; they remain a *sound* upper bound on allocation
/// multiplicity (which is all §6.3 requires).  For the precise per-path
/// counts used by must-alias reasoning, use
/// [`analyse_kcfa_count_cloned`], which pairs the counting store with the
/// heap-cloning domain.
pub fn analyse_kcfa_with_count<const K: usize>(program: &CExp) -> KCfaCounting<K> {
    analyse::<KCallCtx<K>, KCountingStore, _>(program)
}

/// The heap-cloning k-CFA domain with abstract counting: every explored
/// configuration carries its own counting store, so counts reflect the
/// allocations actually performed along each path.
pub type KCfaCountingPerState<const K: usize> =
    PerStateDomain<PState<KCallAddr>, KCallCtx<K>, KCountingStore>;

/// k-CFA with per-state *counting* stores: the configuration of abstract
/// counting used for must-alias / strong-update reasoning (§6.3).
pub fn analyse_kcfa_count_cloned<const K: usize>(program: &CExp) -> KCfaCountingPerState<K> {
    analyse::<KCallCtx<K>, KCountingStore, _>(program)
}

/// k-CFA with a shared store and abstract garbage collection (§6.4).
pub fn analyse_kcfa_shared_gc<const K: usize>(program: &CExp) -> KCfaShared<K> {
    analyse_gc::<KCallCtx<K>, KStore, _>(program)
}

/// k-CFA with a per-state store and abstract garbage collection.
pub fn analyse_kcfa_gc<const K: usize>(program: &CExp) -> KCfaPerState<K> {
    analyse_gc::<KCallCtx<K>, KStore, _>(program)
}

/// The classical monovariant analysis (0CFA, §2.3.1) with a shared store.
pub fn analyse_mono(program: &CExp) -> MonoShared {
    analyse::<MonoCtx, BasicStore<MonoAddr, Val<MonoAddr>>, _>(program)
}

/// [`analyse_kcfa`] solved by the worklist engine (per-state stores).
pub fn analyse_kcfa_worklist<const K: usize>(program: &CExp) -> (KCfaPerState<K>, EngineStats) {
    analyse_worklist::<KCallCtx<K>, KStore, _>(program)
}

/// [`analyse_kcfa_shared`] solved by the worklist engine with store-delta
/// dependency invalidation.
pub fn analyse_kcfa_shared_worklist<const K: usize>(
    program: &CExp,
) -> (KCfaShared<K>, EngineStats) {
    analyse_worklist::<KCallCtx<K>, KStore, _>(program)
}

/// [`analyse_kcfa_shared`] solved by the PR-2 structural-key incremental
/// engine — the baseline the E10 experiment measures the id-indexed engine
/// against.
pub fn analyse_kcfa_shared_structural<const K: usize>(
    program: &CExp,
) -> (KCfaShared<K>, EngineStats) {
    analyse_worklist_structural::<KCallCtx<K>, KStore, _>(program)
}

/// [`analyse_kcfa_shared_worklist`] on the direct-style carrier — the E11
/// fast path (no `Rc<dyn Fn>` per bind, persistent-spine store clones).
pub fn analyse_kcfa_shared_direct<const K: usize>(program: &CExp) -> (KCfaShared<K>, EngineStats) {
    analyse_worklist_direct::<KCallCtx<K>, KStore, _>(program)
}

/// [`analyse_kcfa_shared_direct`] with a
/// [`TraceSink`](mai_core::telemetry::TraceSink) observing the solve.
pub fn analyse_kcfa_shared_direct_traced<const K: usize, T>(
    program: &CExp,
    sink: &mut T,
) -> (KCfaShared<K>, EngineStats)
where
    T: mai_core::telemetry::TraceSink,
{
    analyse_worklist_direct_traced::<KCallCtx<K>, KStore, _, T>(program, sink)
}

/// [`analyse_kcfa_shared_gc_worklist`] on the direct-style carrier.
pub fn analyse_kcfa_shared_gc_direct<const K: usize>(
    program: &CExp,
) -> (KCfaShared<K>, EngineStats) {
    analyse_gc_worklist_direct::<KCallCtx<K>, KStore, _>(program)
}

/// [`analyse_kcfa_with_count_worklist`] (shared counting store) on the
/// direct-style carrier.
pub fn analyse_kcfa_with_count_direct<const K: usize>(
    program: &CExp,
) -> (KCfaCounting<K>, EngineStats) {
    analyse_worklist_direct::<KCallCtx<K>, KCountingStore, _>(program)
}

/// [`analyse_kcfa_shared_direct`] solved by the sharded parallel driver —
/// the E12 measurement subject.
pub fn analyse_kcfa_shared_parallel<const K: usize>(
    program: &CExp,
    threads: usize,
) -> (KCfaShared<K>, EngineStats) {
    analyse_worklist_parallel::<KCallCtx<K>, KStore, _>(program, threads)
}

/// [`analyse_kcfa_shared_parallel`] with a
/// [`TraceSink`](mai_core::telemetry::TraceSink) observing the solve —
/// the E13 measurement subject (per-round, per-worker profiles).
pub fn analyse_kcfa_shared_parallel_traced<const K: usize, T>(
    program: &CExp,
    threads: usize,
    sink: &mut T,
) -> (KCfaShared<K>, EngineStats)
where
    T: mai_core::telemetry::TraceSink,
{
    analyse_worklist_parallel_traced::<KCallCtx<K>, KStore, _, T>(program, threads, sink)
}

/// [`analyse_kcfa_shared_gc_direct`] solved by the sharded parallel driver.
pub fn analyse_kcfa_shared_gc_parallel<const K: usize>(
    program: &CExp,
    threads: usize,
) -> (KCfaShared<K>, EngineStats) {
    analyse_gc_worklist_parallel::<KCallCtx<K>, KStore, _>(program, threads)
}

/// [`analyse_kcfa_shared_direct`] solved by the barrier-elastic driver —
/// the E14 measurement subject.
pub fn analyse_kcfa_shared_elastic<const K: usize>(
    program: &CExp,
    config: ParallelConfig,
) -> (KCfaShared<K>, EngineStats) {
    analyse_worklist_elastic::<KCallCtx<K>, KStore, _>(program, config)
}

/// [`analyse_kcfa_shared_elastic`] with a
/// [`TraceSink`](mai_core::telemetry::TraceSink) observing the solve
/// (per-round, per-worker, per-epoch and per-merge profiles).
pub fn analyse_kcfa_shared_elastic_traced<const K: usize, T>(
    program: &CExp,
    config: ParallelConfig,
    sink: &mut T,
) -> (KCfaShared<K>, EngineStats)
where
    T: mai_core::telemetry::TraceSink,
{
    analyse_worklist_elastic_traced::<KCallCtx<K>, KStore, _, T>(program, config, sink)
}

/// The resume seed of a governed shared-store k-CFA solve.
pub type KCfaSeed<const K: usize> = SharedResumeSeed<PState<KCallAddr>, KCallCtx<K>, KStore>;

/// [`analyse_kcfa_shared_direct`], governed by a [`Budget`].
pub fn analyse_kcfa_shared_governed<const K: usize>(
    program: &CExp,
    budget: &Budget,
) -> (Outcome<KCfaShared<K>, KCfaSeed<K>>, EngineStats) {
    analyse_worklist_governed::<KCallCtx<K>, KStore, _>(program, budget)
}

/// Resumes an exhausted [`analyse_kcfa_shared_governed`] solve.
pub fn analyse_kcfa_shared_resume<const K: usize>(
    seed: KCfaSeed<K>,
    budget: &Budget,
) -> (Outcome<KCfaShared<K>, KCfaSeed<K>>, EngineStats) {
    analyse_resume_governed::<KCallCtx<K>, KStore, _>(seed, budget)
}

/// [`analyse_kcfa_shared_elastic`], governed by a [`Budget`].
pub fn analyse_kcfa_shared_elastic_governed<const K: usize>(
    program: &CExp,
    config: ParallelConfig,
    budget: &Budget,
) -> Result<(Outcome<KCfaShared<K>, KCfaSeed<K>>, EngineStats), EngineError> {
    analyse_worklist_elastic_governed::<KCallCtx<K>, KStore, _>(program, config, budget)
}

/// [`analyse_kcfa_shared_elastic`] behind the degradation ladder
/// (elastic → barrier → sequential direct).
pub fn analyse_kcfa_shared_ladder<const K: usize>(
    program: &CExp,
    config: ParallelConfig,
    budget: &Budget,
) -> (
    Outcome<KCfaShared<K>, KCfaSeed<K>>,
    EngineStats,
    LadderReport,
) {
    analyse_worklist_ladder::<KCallCtx<K>, KStore>(program, config, budget)
}

/// How many distinct environments the states of a shared-store fixpoint
/// carry, measured with an [`EnvId`](mai_core::intern::EnvId) interner —
/// the language-boundary half of the engine's intern statistics
/// ([`EngineStats::distinct_envs`]).  With copy-on-write environments this
/// is also (a lower bound on) how many environment allocations the whole
/// run needed.
pub fn distinct_env_count<A, G, S>(result: &SharedStoreDomain<PState<A>, G, S>) -> usize
where
    A: mai_core::addr::Address + std::hash::Hash,
    G: Ord + Clone,
    S: Lattice,
{
    mai_core::intern::distinct_count(result.states().iter().map(|(ps, _)| ps.env.clone()))
}

/// [`analyse_kcfa_with_count`] solved by the worklist engine (shared
/// counting store; count bumps participate in dependency invalidation).
pub fn analyse_kcfa_with_count_worklist<const K: usize>(
    program: &CExp,
) -> (KCfaCounting<K>, EngineStats) {
    analyse_worklist::<KCallCtx<K>, KCountingStore, _>(program)
}

/// [`analyse_kcfa_count_cloned`] solved by the worklist engine.
pub fn analyse_kcfa_count_cloned_worklist<const K: usize>(
    program: &CExp,
) -> (KCfaCountingPerState<K>, EngineStats) {
    analyse_worklist::<KCallCtx<K>, KCountingStore, _>(program)
}

/// [`analyse_kcfa_shared_gc`] solved by the worklist engine: abstract GC
/// composes with the engine because a GC'd transition still only depends on
/// the store restricted to the state's reachable addresses.
pub fn analyse_kcfa_shared_gc_worklist<const K: usize>(
    program: &CExp,
) -> (KCfaShared<K>, EngineStats) {
    analyse_gc_worklist::<KCallCtx<K>, KStore, _>(program)
}

/// [`analyse_kcfa_gc`] solved by the worklist engine.
pub fn analyse_kcfa_gc_worklist<const K: usize>(program: &CExp) -> (KCfaPerState<K>, EngineStats) {
    analyse_gc_worklist::<KCallCtx<K>, KStore, _>(program)
}

/// [`analyse_mono`] solved by the worklist engine.
pub fn analyse_mono_worklist(program: &CExp) -> (MonoShared, EngineStats) {
    analyse_worklist::<MonoCtx, BasicStore<MonoAddr, Val<MonoAddr>>, _>(program)
}

/// The per-state domain of the fresh-address concrete collecting semantics
/// (§5.3): concrete contexts, concrete addresses, one store per state.
pub type ConcreteCollectingDomain = PerStateDomain<
    PState<<ConcreteCtx as Context>::Addr>,
    ConcreteCtx,
    BasicStore<<ConcreteCtx as Context>::Addr, Val<<ConcreteCtx as Context>::Addr>>,
>;

/// The fresh-address *concrete collecting semantics* of §5.3, explored for
/// at most `max_iterations` Kleene steps (its domain has unbounded height,
/// so exhaustive exploration of a non-terminating program would diverge —
/// the paper makes the same caveat).
pub fn analyse_concrete_collecting(
    program: &CExp,
    max_iterations: usize,
) -> KleeneOutcome<ConcreteCollectingDomain> {
    type S = BasicStore<<ConcreteCtx as Context>::Addr, Val<<ConcreteCtx as Context>::Addr>>;
    explore_fp_bounded::<StorePassing<ConcreteCtx, S>, _, _, _>(
        closure_mnext::<ConcreteCtx, S>,
        PState::inject(program.clone()),
        max_iterations,
    )
}

/// The abstract errors observable in a set of reachable states: the
/// power-set of error messages carried by stuck ([`CExp::Error`]) states.
/// This is the analysis-level output of the error layer threaded through
/// [`mnext`] — a program point that abstracts to
/// a stuck configuration (unbound variable, arity mismatch) shows up
/// here instead of vanishing as a silently dropped branch.
pub fn abstract_errors<'a, A, I>(states: I) -> BTreeSet<String>
where
    A: 'a,
    I: IntoIterator<Item = &'a PState<A>>,
{
    states
        .into_iter()
        .filter_map(|ps| ps.error().map(str::to_owned))
        .collect()
}

/// A flow set: which λ-abstractions may be bound to each variable.
pub type FlowMap = BTreeMap<Name, BTreeSet<Lambda>>;

/// Extracts the flow map (variable ↦ set of λ-abstractions) from any store
/// whose addresses remember their variable.
pub fn flow_map_of_store<A, S>(store: &S) -> FlowMap
where
    A: NamedAddress,
    S: StoreLike<A, D = BTreeSet<Val<A>>>,
{
    let mut flows: FlowMap = BTreeMap::new();
    for addr in store.addresses() {
        let entry = flows.entry(addr.variable().clone()).or_default();
        for val in store.fetch(&addr) {
            entry.insert(val.lambda().clone());
        }
    }
    flows
}

/// Precision and size metrics of an analysis result, used by the
/// experiment harness and the regression tests.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct AnalysisMetrics {
    /// Number of abstract configurations explored (states × guts × stores
    /// for per-state domains, states × guts for shared-store domains).
    pub configurations: usize,
    /// Number of distinct partial states (program point + environment).
    pub distinct_states: usize,
    /// Number of bound addresses in the (joined) store.
    pub store_bindings: usize,
    /// Number of `(address, value)` facts in the (joined) store.
    pub store_facts: usize,
    /// Number of addresses with a singleton flow set — the headline
    /// precision metric (higher is more precise for the same program).
    pub singleton_flows: usize,
}

impl AnalysisMetrics {
    /// Metrics of a shared-store analysis result.
    pub fn of_shared<Ps, C, A>(result: &SharedStoreDomain<Ps, C, BasicStore<A, Val<A>>>) -> Self
    where
        Ps: Ord + Clone,
        C: Ord + Clone,
        A: NamedAddress,
    {
        let store = result.store();
        AnalysisMetrics {
            configurations: result.len(),
            distinct_states: result.distinct_states().len(),
            store_bindings: store.binding_count(),
            store_facts: store.fact_count(),
            singleton_flows: store.singleton_count(),
        }
    }

    /// Metrics of a per-state-store analysis result (stores are joined
    /// before being measured).
    pub fn of_per_state<Ps, C, A>(result: &PerStateDomain<Ps, C, BasicStore<A, Val<A>>>) -> Self
    where
        Ps: Ord + Clone,
        C: Ord + Clone,
        A: NamedAddress,
        Val<A>: Ord,
    {
        let joined: BasicStore<A, Val<A>> =
            Lattice::join_all(result.iter().map(|(_, s)| s.clone()));
        AnalysisMetrics {
            configurations: result.len(),
            distinct_states: result.distinct_states().len(),
            store_bindings: joined.binding_count(),
            store_facts: joined.fact_count(),
            singleton_flows: joined.singleton_count(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;

    fn identity_program() -> CExp {
        parse_program("((λ (x k) (k x)) (λ (y j) (j y)) (λ (r) exit))").unwrap()
    }

    /// Two different functions bound to the same variable through two calls:
    /// a monovariant analysis must conflate them, a 1-CFA analysis must not.
    fn two_call_sites() -> CExp {
        parse_program(
            "((λ (id k0)
                 (id (λ (a) exit)
                     (λ (f1) (id (λ (b) exit) (λ (f2) (f1 f2))))))
              (λ (x k) (k x))
              (λ (r) exit))",
        )
        .unwrap()
    }

    #[test]
    fn identity_program_reaches_exit_under_every_analysis() {
        let p = identity_program();
        assert!(analyse_mono(&p)
            .distinct_states()
            .iter()
            .any(PState::is_final));
        assert!(analyse_kcfa::<1>(&p)
            .distinct_states()
            .iter()
            .any(PState::is_final));
        assert!(analyse_kcfa_shared::<1>(&p)
            .distinct_states()
            .iter()
            .any(PState::is_final));
        assert!(analyse_kcfa_with_count::<1>(&p)
            .distinct_states()
            .iter()
            .any(PState::is_final));
        assert!(analyse_kcfa_shared_gc::<1>(&p)
            .distinct_states()
            .iter()
            .any(PState::is_final));
    }

    #[test]
    fn stuck_programs_surface_as_abstract_errors() {
        // The operator references an unbound variable, so the only way
        // this program can end is the error state.
        let open = parse_program("(free (λ (r) exit))").unwrap();
        let mono = analyse_mono(&open);
        let states = mono.distinct_states();
        let errors = abstract_errors(states.iter());
        assert!(
            errors.iter().any(|m| m.contains("unbound variable `free`")),
            "expected an unbound-variable error, got {errors:?}"
        );
        assert!(!states.iter().any(PState::is_final));

        // An arity mismatch surfaces the same way.
        let mismatch = parse_program("((λ (x k) (k x)) (λ (y) exit))").unwrap();
        let shared = analyse_kcfa_shared::<1>(&mismatch);
        let errors = abstract_errors(shared.distinct_states().iter());
        assert!(
            errors.iter().any(|m| m.contains("arity mismatch")),
            "expected an arity-mismatch error, got {errors:?}"
        );

        // A well-formed program reports no abstract errors.
        let closed = analyse_mono(&identity_program());
        assert!(abstract_errors(closed.distinct_states().iter()).is_empty());
    }

    #[test]
    fn flow_map_of_identity_program_binds_x_to_the_argument_lambda() {
        let p = identity_program();
        let result = analyse_mono(&p);
        let flows = flow_map_of_store(result.store());
        let x_flows = &flows[&Name::from("x")];
        assert_eq!(x_flows.len(), 1);
        assert_eq!(x_flows.iter().next().unwrap().params()[0], Name::from("y"));
    }

    #[test]
    fn monovariant_analysis_conflates_what_one_cfa_distinguishes() {
        let p = two_call_sites();
        let mono = analyse_mono(&p);
        let kcfa = analyse_kcfa_shared::<1>(&p);
        let mono_flows = flow_map_of_store(mono.store());
        let kcfa_flows = flow_map_of_store(kcfa.store());
        // Under 0CFA the identity's parameter x receives both argument
        // lambdas; the analysis result itself is still sound.
        assert!(mono_flows[&Name::from("x")].len() >= 2);
        // Under 1CFA the binding is split per call site, so at least as many
        // singleton flows exist overall and strictly more address bindings.
        let mono_metrics = AnalysisMetrics::of_shared(&mono);
        let kcfa_metrics = AnalysisMetrics::of_shared(&kcfa);
        assert!(kcfa_metrics.store_bindings > mono_metrics.store_bindings);
        assert!(kcfa_flows.contains_key(&Name::from("x")));
    }

    #[test]
    fn shared_store_overapproximates_per_state_store() {
        let p = two_call_sites();
        let cloned = analyse_kcfa::<1>(&p);
        let shared = analyse_kcfa_shared::<1>(&p);
        // Every state explored with heap cloning is also reached with the
        // widened store.
        for ps in cloned.distinct_states() {
            assert!(shared.distinct_states().contains(&ps));
        }
        // And every per-state store is below the widened store.
        for (_, store) in cloned.iter() {
            assert!(store.leq(shared.store()));
        }
    }

    #[test]
    fn counting_store_certifies_linear_bindings() {
        use mai_core::store::Counter;

        let p = identity_program();
        // With per-state counting stores, every variable in this program is
        // bound exactly once along every path.
        let cloned = analyse_kcfa_count_cloned::<1>(&p);
        let mut saw_binding = false;
        for (_, store) in cloned.iter() {
            for addr in store.addresses() {
                saw_binding = true;
                assert_eq!(store.count(&addr), mai_core::AbsNat::One);
            }
        }
        assert!(saw_binding);

        // The widened (shared-store) counting analysis is a sound upper
        // bound: it never reports a *lower* count than any per-path store.
        let shared = analyse_kcfa_with_count::<1>(&p);
        for (_, store) in cloned.iter() {
            for addr in store.addresses() {
                assert!(store.count(&addr).leq(&shared.store().count(&addr)));
            }
        }
    }

    #[test]
    fn gc_never_loses_reachable_results_and_can_only_shrink_the_store() {
        let p = two_call_sites();
        let plain = analyse_kcfa_shared::<0>(&p);
        let gced = analyse_kcfa_shared_gc::<0>(&p);
        assert!(gced.distinct_states().iter().any(PState::is_final));
        let plain_metrics = AnalysisMetrics::of_shared(&plain);
        let gc_metrics = AnalysisMetrics::of_shared(&gced);
        assert!(gc_metrics.store_facts <= plain_metrics.store_facts);
    }

    #[test]
    fn concrete_collecting_semantics_of_terminating_program_converges() {
        let out = analyse_concrete_collecting(&identity_program(), 64);
        assert!(out.converged());
        assert!(out.value().distinct_states().iter().any(PState::is_final));
    }

    #[test]
    fn metrics_are_internally_consistent() {
        let p = identity_program();
        let shared = analyse_kcfa_shared::<1>(&p);
        let m = AnalysisMetrics::of_shared(&shared);
        assert!(m.singleton_flows <= m.store_bindings);
        assert!(m.store_bindings <= m.store_facts);
        assert!(m.distinct_states <= m.configurations);

        let cloned = analyse_kcfa::<1>(&p);
        let mc = AnalysisMetrics::of_per_state(&cloned);
        assert!(mc.distinct_states <= mc.configurations);
    }
}
