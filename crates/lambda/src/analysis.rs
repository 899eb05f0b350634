//! Abstract interpretation of the direct-style λ-calculus.
//!
//! The implementation of [`CeskInterface`] for the `StorePassing` monad is
//! assembled from exactly the same language-independent parameters used for
//! CPS (contexts, stores, counting stores, garbage collection, per-state or
//! shared-store domains) — this module is the concrete evidence for the
//! paper's reuse claim (Figure 3 and §1.2).

use std::collections::BTreeSet;

use mai_core::addr::{Context, NamedAddress};
use mai_core::collect::{run_analysis, with_gc, Collecting, PerStateDomain, SharedStoreDomain};
use mai_core::engine::{
    explore_frontier_ladder, with_state_gc, Budget, DirectCollecting, EngineError, EngineStats,
    FrontierCollecting, LadderReport, Outcome, ParallelCollecting, ParallelConfig,
    SharedResumeSeed, SolveFrom,
};
use mai_core::gc::ReachableGc;
use mai_core::monad::{
    gets_nd_set, MonadFamily, MonadState, MonadTrans, StateT, StorePassing, Value, VecM,
};
use mai_core::name::{Label, Name};
use mai_core::store::{BasicStore, CountingStore, StoreLike};
use mai_core::{KCallAddr, KCallCtx, MonoAddr, MonoCtx};

use crate::machine::{
    kont_name, mnext, CeskInterface, Closure, Env, Kont, KontKind, PState, Storable,
};
use crate::syntax::{Term, Var};

impl<C, S> CeskInterface<C::Addr> for StorePassing<C, S>
where
    C: Context,
    S: StoreLike<C::Addr, D = BTreeSet<Storable<C::Addr>>> + Value,
{
    fn lookup(env: &Env<C::Addr>, var: &Var, (): ()) -> Self::M<Closure<C::Addr>> {
        let addr = env.get(var).cloned();
        Self::lift(gets_nd_set::<StateT<S, VecM>, S, Closure<C::Addr>, _>(
            move |store| match &addr {
                Some(a) => store
                    .fetch(a)
                    .iter()
                    .filter_map(Storable::as_val)
                    .cloned()
                    .collect(),
                None => BTreeSet::new(),
            },
        ))
    }

    fn kont_at(addr: &C::Addr, (): ()) -> Self::M<Kont<C::Addr>> {
        let addr = addr.clone();
        Self::lift(gets_nd_set::<StateT<S, VecM>, S, Kont<C::Addr>, _>(
            move |store| {
                store
                    .fetch(&addr)
                    .iter()
                    .filter_map(Storable::as_kont)
                    .cloned()
                    .collect()
            },
        ))
    }

    fn bind_val(addr: C::Addr, val: Closure<C::Addr>, (): ()) -> Self::M<()> {
        Self::lift(<StateT<S, VecM> as MonadState<S>>::modify(move |store| {
            store.bind(
                addr.clone(),
                [Storable::Val(val.clone())].into_iter().collect(),
            )
        }))
    }

    fn bind_kont(addr: C::Addr, kont: Kont<C::Addr>, (): ()) -> Self::M<()> {
        Self::lift(<StateT<S, VecM> as MonadState<S>>::modify(move |store| {
            store.bind(
                addr.clone(),
                [Storable::Kont(kont.clone())].into_iter().collect(),
            )
        }))
    }

    fn alloc_val(var: &Var, (): ()) -> Self::M<C::Addr> {
        let var = var.clone();
        <Self as MonadState<C>>::gets(move |ctx| ctx.valloc(&var))
    }

    fn alloc_kont(site: Label, kind: KontKind, (): ()) -> Self::M<C::Addr> {
        let name = kont_name(site, kind);
        <Self as MonadState<C>>::gets(move |ctx| ctx.valloc(&name))
    }

    fn tick(site: Label, (): ()) -> Self::M<()> {
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
    S: StoreLike<C::Addr, D = BTreeSet<Storable<C::Addr>>> + Value,
{
    mnext::<StorePassing<C, S>, C::Addr>(ps, ())
}

/// Runs the CESK analysis with an arbitrary context, store and collecting
/// domain.
pub fn analyse<C, S, Fp>(term: &Term) -> Fp
where
    C: Context,
    S: StoreLike<C::Addr, D = BTreeSet<Storable<C::Addr>>> + Value,
    Fp: Collecting<StorePassing<C, S>, PState<C::Addr>>,
{
    run_analysis::<StorePassing<C, S>, _, Fp, _>(
        closure_mnext::<C, S>,
        PState::inject(term.clone()),
    )
}

/// Like [`analyse`], with abstract garbage collection after every step.
pub fn analyse_with_gc<C, S, Fp>(term: &Term) -> Fp
where
    C: Context,
    S: StoreLike<C::Addr, D = BTreeSet<Storable<C::Addr>>> + Value,
    Fp: Collecting<StorePassing<C, S>, PState<C::Addr>>,
{
    run_analysis::<StorePassing<C, S>, _, Fp, _>(
        with_gc::<StorePassing<C, S>, PState<C::Addr>, _, _>(closure_mnext::<C, S>, ReachableGc),
        PState::inject(term.clone()),
    )
}

/// Like [`analyse`], but solved by the frontier-driven worklist engine
/// instead of naive Kleene iteration, additionally reporting
/// [`EngineStats`].  Computes exactly the same fixpoint.
pub fn analyse_worklist<C, S, Fp>(term: &Term) -> (Fp, EngineStats)
where
    C: Context,
    S: StoreLike<C::Addr, D = BTreeSet<Storable<C::Addr>>> + Value,
    Fp: FrontierCollecting<StorePassing<C, S>, PState<C::Addr>>,
{
    Fp::explore_frontier(&closure_mnext::<C, S>, PState::inject(term.clone()))
}

/// Like [`analyse_with_gc`], but solved by the worklist engine.
pub fn analyse_with_gc_worklist<C, S, Fp>(term: &Term) -> (Fp, EngineStats)
where
    C: Context,
    S: StoreLike<C::Addr, D = BTreeSet<Storable<C::Addr>>> + Value,
    Fp: FrontierCollecting<StorePassing<C, S>, PState<C::Addr>>,
{
    Fp::explore_frontier(
        &with_gc::<StorePassing<C, S>, PState<C::Addr>, _, _>(closure_mnext::<C, S>, ReachableGc),
        PState::inject(term.clone()),
    )
}

/// Like [`analyse_worklist`], but evaluated on the **direct-style step
/// carrier** ([`crate::direct::mnext_direct`]): the same CESK semantics
/// with `bind` as plain function composition — no `Rc<dyn Fn>` per bind.
/// Identical fixpoint; the `Rc` carrier remains the oracle.
pub fn analyse_worklist_direct<C, S, Fp>(term: &Term) -> (Fp, EngineStats)
where
    C: Context,
    S: StoreLike<C::Addr, D = BTreeSet<Storable<C::Addr>>> + Value,
    Fp: DirectCollecting<PState<C::Addr>, C, S>,
{
    Fp::explore_frontier_direct(
        &crate::direct::mnext_direct::<C, S>,
        PState::inject(term.clone()),
    )
}

/// [`analyse_worklist_direct`] with a
/// [`TraceSink`](mai_core::telemetry::TraceSink) observing the solve:
/// per-round phase timings, store-join traffic and hot-state attribution.
/// Identical fixpoint and identical deterministic work counters at every
/// sink.
pub fn analyse_worklist_direct_traced<C, S, Fp, T>(term: &Term, sink: &mut T) -> (Fp, EngineStats)
where
    C: Context,
    S: StoreLike<C::Addr, D = BTreeSet<Storable<C::Addr>>> + Value,
    Fp: DirectCollecting<PState<C::Addr>, C, S>,
    T: mai_core::telemetry::TraceSink,
{
    Fp::explore_frontier_direct_traced(
        &crate::direct::mnext_direct::<C, S>,
        PState::inject(term.clone()),
        sink,
    )
}

/// Like [`analyse_with_gc_worklist`], but on the direct-style carrier
/// (per-branch store restriction via
/// [`with_state_gc`]).
pub fn analyse_with_gc_worklist_direct<C, S, Fp>(term: &Term) -> (Fp, EngineStats)
where
    C: Context,
    S: StoreLike<C::Addr, D = BTreeSet<Storable<C::Addr>>> + Value,
    Fp: DirectCollecting<PState<C::Addr>, C, S>,
{
    Fp::explore_frontier_direct(
        &with_state_gc(crate::direct::mnext_direct::<C, S>),
        PState::inject(term.clone()),
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
pub fn analyse_worklist_parallel<C, S, Fp>(term: &Term, threads: usize) -> (Fp, EngineStats)
where
    C: Context,
    S: StoreLike<C::Addr, D = BTreeSet<Storable<C::Addr>>> + Value,
    Fp: ParallelCollecting<PState<C::Addr>, C, S>,
{
    Fp::explore_frontier_parallel(
        &crate::direct::mnext_direct::<C, S>,
        PState::inject(term.clone()),
        ParallelConfig::barrier(threads),
    )
}

/// Like [`analyse_with_gc_worklist_direct`], but solved by the sharded
/// parallel driver (abstract GC as the per-branch [`with_state_gc`] store
/// restriction, inside each worker).
pub fn analyse_with_gc_parallel<C, S, Fp>(term: &Term, threads: usize) -> (Fp, EngineStats)
where
    C: Context,
    S: StoreLike<C::Addr, D = BTreeSet<Storable<C::Addr>>> + Value,
    Fp: ParallelCollecting<PState<C::Addr>, C, S>,
{
    Fp::explore_frontier_parallel(
        &with_state_gc(crate::direct::mnext_direct::<C, S>),
        PState::inject(term.clone()),
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
pub fn analyse_worklist_elastic<C, S, Fp>(term: &Term, config: ParallelConfig) -> (Fp, EngineStats)
where
    C: Context,
    S: StoreLike<C::Addr, D = BTreeSet<Storable<C::Addr>>> + Value,
    Fp: ParallelCollecting<PState<C::Addr>, C, S>,
{
    Fp::explore_frontier_parallel(
        &crate::direct::mnext_direct::<C, S>,
        PState::inject(term.clone()),
        config,
    )
}

/// Like [`analyse_with_gc_parallel`], but on the barrier-elastic driver.
pub fn analyse_with_gc_elastic<C, S, Fp>(term: &Term, config: ParallelConfig) -> (Fp, EngineStats)
where
    C: Context,
    S: StoreLike<C::Addr, D = BTreeSet<Storable<C::Addr>>> + Value,
    Fp: ParallelCollecting<PState<C::Addr>, C, S>,
{
    Fp::explore_frontier_parallel(
        &with_state_gc(crate::direct::mnext_direct::<C, S>),
        PState::inject(term.clone()),
        config,
    )
}

/// Like [`analyse_worklist_direct`], but *governed*: the solve consults
/// `budget` at every round boundary and returns an [`Outcome`] — either the
/// complete fixpoint or an `Exhausted` partial whose resume seed reaches
/// the identical fixpoint when handed back to
/// [`analyse_resume_governed`].  With `Budget::unlimited()` the result and
/// every deterministic work counter are byte-identical to
/// [`analyse_worklist_direct`] (the ungoverned entry point *is* this one,
/// applied to the unlimited budget).
pub fn analyse_worklist_governed<C, S, Fp>(
    term: &Term,
    budget: &Budget,
) -> (Outcome<Fp, Fp::Seed>, EngineStats)
where
    C: Context,
    S: StoreLike<C::Addr, D = BTreeSet<Storable<C::Addr>>> + Value,
    Fp: DirectCollecting<PState<C::Addr>, C, S>,
{
    Fp::explore_frontier_governed(
        &crate::direct::mnext_direct::<C, S>,
        SolveFrom::Fresh(PState::inject(term.clone())),
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
    S: StoreLike<C::Addr, D = BTreeSet<Storable<C::Addr>>> + Value,
    Fp: DirectCollecting<PState<C::Addr>, C, S>,
{
    Fp::explore_frontier_governed(
        &crate::direct::mnext_direct::<C, S>,
        SolveFrom::Resume(seed),
        budget,
    )
}

/// [`analyse_worklist_parallel`], governed: budget and cancellation are
/// checked at every barrier, and a panicked worker surfaces as a clean
/// [`EngineError`] instead of deadlocking the pool.
pub fn analyse_worklist_parallel_governed<C, S, Fp>(
    term: &Term,
    threads: usize,
    budget: &Budget,
) -> Result<(Outcome<Fp, Fp::Seed>, EngineStats), EngineError>
where
    C: Context,
    S: StoreLike<C::Addr, D = BTreeSet<Storable<C::Addr>>> + Value,
    Fp: ParallelCollecting<PState<C::Addr>, C, S>,
{
    Fp::explore_frontier_parallel_governed(
        &crate::direct::mnext_direct::<C, S>,
        SolveFrom::Fresh(PState::inject(term.clone())),
        ParallelConfig::barrier(threads),
        budget,
    )
}

/// [`analyse_worklist_elastic`], governed: budget and cancellation are
/// checked at every epoch boundary (cancel latency is at most one epoch).
pub fn analyse_worklist_elastic_governed<C, S, Fp>(
    term: &Term,
    config: ParallelConfig,
    budget: &Budget,
) -> Result<(Outcome<Fp, Fp::Seed>, EngineStats), EngineError>
where
    C: Context,
    S: StoreLike<C::Addr, D = BTreeSet<Storable<C::Addr>>> + Value,
    Fp: ParallelCollecting<PState<C::Addr>, C, S>,
{
    Fp::explore_frontier_parallel_governed(
        &crate::direct::mnext_direct::<C, S>,
        SolveFrom::Fresh(PState::inject(term.clone())),
        config,
        budget,
    )
}

/// [`analyse_worklist_elastic`] behind the full degradation ladder:
/// elastic → barrier → sequential direct.  A faulted parallel rung is
/// reported in the [`LadderReport`]; the returned fixpoint is byte-identical
/// to [`analyse_worklist_direct`] no matter which rung completed.
pub fn analyse_worklist_ladder<C, S>(
    term: &Term,
    config: ParallelConfig,
    budget: &Budget,
) -> (LadderOutcome<C, S>, EngineStats, LadderReport)
where
    C: Context + std::hash::Hash,
    S: StoreLike<C::Addr, D = BTreeSet<Storable<C::Addr>>>
        + mai_core::store::StoreDelta<C::Addr>
        + mai_core::lattice::WidenLattice
        + Value,
{
    explore_frontier_ladder(
        &crate::direct::mnext_direct::<C, S>,
        PState::inject(term.clone()),
        config,
        budget,
    )
}

/// The outcome type of a ladder solve over the shared-store CESK domain.
pub type LadderOutcome<C, S> = Outcome<
    SharedStoreDomain<PState<<C as Context>::Addr>, C, S>,
    SharedResumeSeed<PState<<C as Context>::Addr>, C, S>,
>;

/// Like [`analyse_worklist`], but solved by the PR-2 *structural-key*
/// incremental engine (states as `BTreeMap` keys instead of interned ids) —
/// a differential-testing oracle and the E10 benchmark baseline.
pub fn analyse_worklist_structural<C, S, Fp>(term: &Term) -> (Fp, EngineStats)
where
    C: Context,
    S: StoreLike<C::Addr, D = BTreeSet<Storable<C::Addr>>> + Value,
    Fp: FrontierCollecting<StorePassing<C, S>, PState<C::Addr>>,
{
    Fp::explore_frontier_structural(&closure_mnext::<C, S>, PState::inject(term.clone()))
}

/// Like [`analyse_with_gc_worklist`], but solved by the structural-key
/// engine.
pub fn analyse_with_gc_worklist_structural<C, S, Fp>(term: &Term) -> (Fp, EngineStats)
where
    C: Context,
    S: StoreLike<C::Addr, D = BTreeSet<Storable<C::Addr>>> + Value,
    Fp: FrontierCollecting<StorePassing<C, S>, PState<C::Addr>>,
{
    Fp::explore_frontier_structural(
        &with_gc::<StorePassing<C, S>, PState<C::Addr>, _, _>(closure_mnext::<C, S>, ReachableGc),
        PState::inject(term.clone()),
    )
}

/// The plain store of the k-CFA CESK family.
pub type KCeskStore = BasicStore<KCallAddr, Storable<KCallAddr>>;

/// The counting store of the k-CFA CESK family.
pub type KCeskCountingStore = CountingStore<KCallAddr, Storable<KCallAddr>>;

/// The shared-store k-CFA analysis domain for the CESK machine.
pub type KCeskShared<const K: usize> =
    SharedStoreDomain<PState<KCallAddr>, KCallCtx<K>, KCeskStore>;

/// The per-state-store ("heap cloning") k-CFA analysis domain for the CESK
/// machine.
pub type KCeskPerState<const K: usize> = PerStateDomain<PState<KCallAddr>, KCallCtx<K>, KCeskStore>;

/// The shared-store monovariant analysis domain for the CESK machine.
pub type MonoCeskShared =
    SharedStoreDomain<PState<MonoAddr>, MonoCtx, BasicStore<MonoAddr, Storable<MonoAddr>>>;

/// k-CFA over the CESK machine with a shared (widened) store.
pub fn analyse_kcfa_shared<const K: usize>(term: &Term) -> KCeskShared<K> {
    analyse::<KCallCtx<K>, KCeskStore, _>(term)
}

/// k-CFA over the CESK machine with per-state stores.
pub fn analyse_kcfa<const K: usize>(term: &Term) -> KCeskPerState<K> {
    analyse::<KCallCtx<K>, KCeskStore, _>(term)
}

/// k-CFA over the CESK machine with a shared *counting* store.
pub fn analyse_kcfa_with_count<const K: usize>(
    term: &Term,
) -> SharedStoreDomain<PState<KCallAddr>, KCallCtx<K>, KCeskCountingStore> {
    analyse::<KCallCtx<K>, KCeskCountingStore, _>(term)
}

/// k-CFA over the CESK machine with a shared store and abstract GC.
pub fn analyse_kcfa_shared_gc<const K: usize>(term: &Term) -> KCeskShared<K> {
    analyse_with_gc::<KCallCtx<K>, KCeskStore, _>(term)
}

/// Monovariant (0CFA) analysis of the CESK machine with a shared store.
pub fn analyse_mono(term: &Term) -> MonoCeskShared {
    analyse::<MonoCtx, BasicStore<MonoAddr, Storable<MonoAddr>>, _>(term)
}

/// [`analyse_kcfa_shared`] solved by the worklist engine.
pub fn analyse_kcfa_shared_worklist<const K: usize>(term: &Term) -> (KCeskShared<K>, EngineStats) {
    analyse_worklist::<KCallCtx<K>, KCeskStore, _>(term)
}

/// [`analyse_kcfa`] solved by the worklist engine (per-state stores).
pub fn analyse_kcfa_worklist<const K: usize>(term: &Term) -> (KCeskPerState<K>, EngineStats) {
    analyse_worklist::<KCallCtx<K>, KCeskStore, _>(term)
}

/// [`analyse_kcfa_with_count`] solved by the worklist engine.
pub fn analyse_kcfa_with_count_worklist<const K: usize>(
    term: &Term,
) -> (
    SharedStoreDomain<PState<KCallAddr>, KCallCtx<K>, KCeskCountingStore>,
    EngineStats,
) {
    analyse_worklist::<KCallCtx<K>, KCeskCountingStore, _>(term)
}

/// [`analyse_kcfa_shared_gc`] solved by the worklist engine.
pub fn analyse_kcfa_shared_gc_worklist<const K: usize>(
    term: &Term,
) -> (KCeskShared<K>, EngineStats) {
    analyse_with_gc_worklist::<KCallCtx<K>, KCeskStore, _>(term)
}

/// [`analyse_kcfa_shared`] solved by the PR-2 structural-key incremental
/// engine — the E10 benchmark baseline.
pub fn analyse_kcfa_shared_structural<const K: usize>(
    term: &Term,
) -> (KCeskShared<K>, EngineStats) {
    analyse_worklist_structural::<KCallCtx<K>, KCeskStore, _>(term)
}

/// How many distinct environments the states of a shared-store CESK
/// fixpoint carry (top-level state environments; closures and frames share
/// them through the copy-on-write representation), measured with an
/// [`EnvId`](mai_core::intern::EnvId) interner — the language-boundary half
/// of [`EngineStats::distinct_envs`].
pub fn distinct_env_count<A, G, S>(result: &SharedStoreDomain<PState<A>, G, S>) -> usize
where
    A: mai_core::addr::Address + std::hash::Hash,
    G: Ord + Clone,
    S: mai_core::lattice::Lattice,
{
    mai_core::intern::distinct_count(result.states().iter().map(|(ps, _)| ps.env.clone()))
}

/// [`analyse_mono`] solved by the worklist engine.
pub fn analyse_mono_worklist(term: &Term) -> (MonoCeskShared, EngineStats) {
    analyse_worklist::<MonoCtx, BasicStore<MonoAddr, Storable<MonoAddr>>, _>(term)
}

/// [`analyse_kcfa_shared_worklist`] on the direct-style carrier.
pub fn analyse_kcfa_shared_direct<const K: usize>(term: &Term) -> (KCeskShared<K>, EngineStats) {
    analyse_worklist_direct::<KCallCtx<K>, KCeskStore, _>(term)
}

/// [`analyse_kcfa_shared_direct`] with a
/// [`TraceSink`](mai_core::telemetry::TraceSink) observing the solve.
pub fn analyse_kcfa_shared_direct_traced<const K: usize, T>(
    term: &Term,
    sink: &mut T,
) -> (KCeskShared<K>, EngineStats)
where
    T: mai_core::telemetry::TraceSink,
{
    analyse_worklist_direct_traced::<KCallCtx<K>, KCeskStore, _, T>(term, sink)
}

/// [`analyse_mono_worklist`] on the direct-style carrier.
pub fn analyse_mono_direct(term: &Term) -> (MonoCeskShared, EngineStats) {
    analyse_worklist_direct::<MonoCtx, BasicStore<MonoAddr, Storable<MonoAddr>>, _>(term)
}

/// [`analyse_kcfa_shared_direct`] solved by the sharded parallel driver.
pub fn analyse_kcfa_shared_parallel<const K: usize>(
    term: &Term,
    threads: usize,
) -> (KCeskShared<K>, EngineStats) {
    analyse_worklist_parallel::<KCallCtx<K>, KCeskStore, _>(term, threads)
}

/// [`analyse_mono_direct`] solved by the sharded parallel driver.
pub fn analyse_mono_parallel(term: &Term, threads: usize) -> (MonoCeskShared, EngineStats) {
    analyse_worklist_parallel::<MonoCtx, BasicStore<MonoAddr, Storable<MonoAddr>>, _>(term, threads)
}

/// [`analyse_mono_direct`] solved by the barrier-elastic driver.
pub fn analyse_mono_elastic(term: &Term, config: ParallelConfig) -> (MonoCeskShared, EngineStats) {
    analyse_worklist_elastic::<MonoCtx, BasicStore<MonoAddr, Storable<MonoAddr>>, _>(term, config)
}

/// The resume seed of a governed shared-store k-CFA solve.
pub type KCeskSeed<const K: usize> = SharedResumeSeed<PState<KCallAddr>, KCallCtx<K>, KCeskStore>;

/// [`analyse_kcfa_shared_direct`], governed by a [`Budget`].
pub fn analyse_kcfa_shared_governed<const K: usize>(
    term: &Term,
    budget: &Budget,
) -> (Outcome<KCeskShared<K>, KCeskSeed<K>>, EngineStats) {
    analyse_worklist_governed::<KCallCtx<K>, KCeskStore, _>(term, budget)
}

/// Resumes an exhausted [`analyse_kcfa_shared_governed`] solve.
pub fn analyse_kcfa_shared_resume<const K: usize>(
    seed: KCeskSeed<K>,
    budget: &Budget,
) -> (Outcome<KCeskShared<K>, KCeskSeed<K>>, EngineStats) {
    analyse_resume_governed::<KCallCtx<K>, KCeskStore, _>(seed, budget)
}

/// [`analyse_kcfa_shared_parallel`], governed by a [`Budget`].
pub fn analyse_kcfa_shared_parallel_governed<const K: usize>(
    term: &Term,
    threads: usize,
    budget: &Budget,
) -> Result<(Outcome<KCeskShared<K>, KCeskSeed<K>>, EngineStats), EngineError> {
    analyse_worklist_parallel_governed::<KCallCtx<K>, KCeskStore, _>(term, threads, budget)
}

/// [`analyse_kcfa_shared_parallel`] on the barrier-elastic driver,
/// governed by a [`Budget`].
pub fn analyse_kcfa_shared_elastic_governed<const K: usize>(
    term: &Term,
    config: ParallelConfig,
    budget: &Budget,
) -> Result<(Outcome<KCeskShared<K>, KCeskSeed<K>>, EngineStats), EngineError> {
    analyse_worklist_elastic_governed::<KCallCtx<K>, KCeskStore, _>(term, config, budget)
}

/// [`analyse_kcfa_shared_direct`] behind the degradation ladder
/// (elastic → barrier → sequential direct).
pub fn analyse_kcfa_shared_ladder<const K: usize>(
    term: &Term,
    config: ParallelConfig,
    budget: &Budget,
) -> (
    Outcome<KCeskShared<K>, KCeskSeed<K>>,
    EngineStats,
    LadderReport,
) {
    analyse_worklist_ladder::<KCallCtx<K>, KCeskStore>(term, config, budget)
}

/// The abstract errors observable in a set of reachable states: the
/// power-set of error messages carried by stuck states.  This is the
/// analysis-level output of the error layer threaded through
/// [`mnext`] — a program point that abstracts to a stuck configuration
/// (an unbound variable, say) shows up here instead of vanishing as a
/// silently dropped branch.
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

/// Which λ-abstraction parameters each variable may be bound to, extracted
/// from a CESK store (continuation entries are ignored).
pub fn flow_map_of_store<A, S>(store: &S) -> std::collections::BTreeMap<Name, BTreeSet<Var>>
where
    A: NamedAddress,
    S: StoreLike<A, D = BTreeSet<Storable<A>>>,
{
    let mut flows: std::collections::BTreeMap<Name, BTreeSet<Var>> =
        std::collections::BTreeMap::new();
    for addr in store.addresses() {
        for storable in store.fetch(&addr) {
            if let Storable::Val(clo) = storable {
                flows
                    .entry(addr.variable().clone())
                    .or_default()
                    .insert(clo.param.clone());
            }
        }
    }
    flows
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::syntax::TermBuilder;

    /// `(λx. x) (λy. y)` — the identity applied to the identity.
    fn identity_app() -> Term {
        let mut b = TermBuilder::new();
        b.app(
            Term::lam("x", Term::var("x")),
            Term::lam("y", Term::var("y")),
        )
    }

    /// `let f = λx. x in (f (λa. a), then f (λb. b))` — encoded with
    /// applications so that f is called at two distinct sites.
    fn two_sites() -> Term {
        let mut b = TermBuilder::new();
        let first = b.app(Term::var("f"), Term::lam("a", Term::var("a")));
        let second = b.app(Term::var("f"), Term::lam("b", Term::var("b")));
        let use_both = b.app(first, second);
        b.let_in("f", Term::lam("x", Term::var("x")), use_both)
    }

    #[test]
    fn identity_application_halts_abstractly() {
        let t = identity_app();
        let mono = analyse_mono(&t);
        assert!(mono.distinct_states().iter().any(PState::is_final));
        let one = analyse_kcfa_shared::<1>(&t);
        assert!(one.distinct_states().iter().any(PState::is_final));
        let counted = analyse_kcfa_with_count::<1>(&t);
        assert!(counted.distinct_states().iter().any(PState::is_final));
        let gced = analyse_kcfa_shared_gc::<1>(&t);
        assert!(gced.distinct_states().iter().any(PState::is_final));
    }

    #[test]
    fn the_result_of_the_identity_application_is_the_argument() {
        let t = identity_app();
        let result = analyse_mono(&t);
        let halts: BTreeSet<Var> = result
            .distinct_states()
            .iter()
            .filter_map(|ps| ps.result().map(|c| c.param.clone()))
            .collect();
        assert_eq!(halts, [Name::from("y")].into_iter().collect());
    }

    #[test]
    fn monovariant_flows_conflate_the_two_sites() {
        let t = two_sites();
        let mono = analyse_mono(&t);
        let flows = flow_map_of_store(mono.store());
        assert_eq!(
            flows[&Name::from("x")],
            [Name::from("a"), Name::from("b")].into_iter().collect()
        );
    }

    #[test]
    fn one_cfa_keeps_the_two_sites_apart() {
        let t = two_sites();
        let one = analyse_kcfa_shared::<1>(&t);
        // Every (x, call-string) binding is a singleton under 1-CFA.
        let store = one.store();
        for addr in store.addresses() {
            if addr.variable() == &Name::from("x") {
                let vals: BTreeSet<_> = store
                    .fetch(&addr)
                    .iter()
                    .filter_map(Storable::as_val)
                    .map(|c| c.param.clone())
                    .collect();
                assert_eq!(vals.len(), 1, "1-CFA conflated bindings of x");
            }
        }
    }

    #[test]
    fn per_state_and_shared_store_agree_on_reachable_states() {
        let t = identity_app();
        let cloned = analyse_kcfa::<1>(&t);
        let shared = analyse_kcfa_shared::<1>(&t);
        for ps in cloned.distinct_states() {
            assert!(shared.distinct_states().contains(&ps));
        }
    }

    #[test]
    fn unbound_variables_surface_as_abstract_errors() {
        let mut b = TermBuilder::new();
        let t = b.app(Term::lam("x", Term::var("x")), Term::var("free"));
        let mono = analyse_mono(&t);
        let states = mono.distinct_states();
        let errors = abstract_errors(states.iter());
        assert!(
            errors.iter().any(|m| m.contains("unbound variable `free`")),
            "expected an unbound-variable error, got {errors:?}"
        );
        // The stuck branch is the only way this program can end: no
        // halted state is reachable.
        assert!(!states.iter().any(PState::is_final));

        // A closed program reports no abstract errors.
        let closed = analyse_mono(&identity_app());
        assert!(abstract_errors(closed.distinct_states().iter()).is_empty());
    }

    #[test]
    fn gc_only_shrinks_the_store() {
        let t = two_sites();
        let plain = analyse_mono(&t);
        let gced: MonoCeskShared =
            analyse_with_gc::<MonoCtx, BasicStore<MonoAddr, Storable<MonoAddr>>, _>(&t);
        assert!(gced.store().fact_count() <= plain.store().fact_count());
        assert!(gced.distinct_states().iter().any(PState::is_final));
    }
}
