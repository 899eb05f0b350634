//! Abstract interpretation of Featherweight Java.
//!
//! The `StorePassing` instance of [`FjInterface`] is assembled from the same
//! language-independent parameters as the λ-calculi substrates: contexts for
//! call-site sensitivity, plain or counting stores, abstract garbage
//! collection and the per-state / shared-store collecting domains.  Nothing
//! in `mai-core` was written with objects in mind, yet everything applies —
//! the paper's claim that "context-sensitivity for Java and for the lambda
//! calculus is the same monad".

use std::collections::{BTreeMap, BTreeSet};

use mai_core::addr::{Context, NamedAddress};
use mai_core::collect::{run_analysis, with_gc, Collecting, PerStateDomain, SharedStoreDomain};
use mai_core::engine::{
    with_state_gc, DirectCollecting, EngineStats, FrontierCollecting, ParallelCollecting,
    ParallelConfig,
};
use mai_core::gc::ReachableGc;
use mai_core::monad::{gets_nd_set, MonadState, MonadTrans, StateT, StorePassing, Value, VecM};
use mai_core::name::{Label, Name};
use mai_core::store::{BasicStore, CountingStore, StoreLike};
use mai_core::{KCallAddr, KCallCtx, MonoAddr, MonoCtx};

use crate::machine::{kont_name, mnext, Env, FjInterface, Kont, KontKind, Obj, PState, Storable};
use crate::syntax::{ClassName, ClassTable, Program, VarName};

impl<C, S> FjInterface<C::Addr> for StorePassing<C, S>
where
    C: Context,
    S: StoreLike<C::Addr, D = BTreeSet<Storable<C::Addr>>> + Value,
{
    fn lookup(env: &Env<C::Addr>, var: &VarName, (): ()) -> Self::M<Obj<C::Addr>> {
        let addr = env.get(var).cloned();
        Self::lift(gets_nd_set::<StateT<S, VecM>, S, Obj<C::Addr>, _>(
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

    fn fetch(addr: &C::Addr, (): ()) -> Self::M<Obj<C::Addr>> {
        let addr = addr.clone();
        Self::lift(gets_nd_set::<StateT<S, VecM>, S, Obj<C::Addr>, _>(
            move |store| {
                store
                    .fetch(&addr)
                    .iter()
                    .filter_map(Storable::as_val)
                    .cloned()
                    .collect()
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

    fn bind_val(addr: C::Addr, val: Obj<C::Addr>, (): ()) -> Self::M<()> {
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

    fn alloc(name: &Name, (): ()) -> Self::M<C::Addr> {
        let name = name.clone();
        <Self as MonadState<C>>::gets(move |ctx| ctx.valloc(&name))
    }

    fn alloc_kont(site: Label, kind: KontKind, (): ()) -> Self::M<C::Addr> {
        let name = kont_name(site, kind);
        <Self as MonadState<C>>::gets(move |ctx| ctx.valloc(&name))
    }

    fn tick(site: Label, (): ()) -> Self::M<()> {
        <Self as MonadState<C>>::modify(move |ctx| ctx.advance(site))
    }
}

/// Runs the Featherweight Java analysis with an arbitrary context, store and
/// collecting domain.
pub fn analyse<C, S, Fp>(program: &Program) -> Fp
where
    C: Context,
    S: StoreLike<C::Addr, D = BTreeSet<Storable<C::Addr>>> + Value,
    Fp: Collecting<StorePassing<C, S>, PState<C::Addr>>,
{
    let table = program.table.clone();
    run_analysis::<StorePassing<C, S>, _, Fp, _>(
        move |ps| mnext::<StorePassing<C, S>, C::Addr>(&table, ps, ()),
        PState::inject(program.main.clone()),
    )
}

/// Like [`analyse`], with abstract garbage collection after every step.
pub fn analyse_with_gc<C, S, Fp>(program: &Program) -> Fp
where
    C: Context,
    S: StoreLike<C::Addr, D = BTreeSet<Storable<C::Addr>>> + Value,
    Fp: Collecting<StorePassing<C, S>, PState<C::Addr>>,
{
    let table = program.table.clone();
    run_analysis::<StorePassing<C, S>, _, Fp, _>(
        with_gc::<StorePassing<C, S>, PState<C::Addr>, _, _>(
            move |ps| mnext::<StorePassing<C, S>, C::Addr>(&table, ps, ()),
            ReachableGc,
        ),
        PState::inject(program.main.clone()),
    )
}

/// Like [`analyse`], but solved by the frontier-driven worklist engine
/// instead of naive Kleene iteration, additionally reporting
/// [`EngineStats`].  Computes exactly the same fixpoint.
pub fn analyse_worklist<C, S, Fp>(program: &Program) -> (Fp, EngineStats)
where
    C: Context,
    S: StoreLike<C::Addr, D = BTreeSet<Storable<C::Addr>>> + Value,
    Fp: FrontierCollecting<StorePassing<C, S>, PState<C::Addr>>,
{
    let table = program.table.clone();
    Fp::explore_frontier(
        &move |ps| mnext::<StorePassing<C, S>, C::Addr>(&table, ps, ()),
        PState::inject(program.main.clone()),
    )
}

/// Like [`analyse_with_gc`], but solved by the worklist engine.
pub fn analyse_with_gc_worklist<C, S, Fp>(program: &Program) -> (Fp, EngineStats)
where
    C: Context,
    S: StoreLike<C::Addr, D = BTreeSet<Storable<C::Addr>>> + Value,
    Fp: FrontierCollecting<StorePassing<C, S>, PState<C::Addr>>,
{
    let table = program.table.clone();
    Fp::explore_frontier(
        &with_gc::<StorePassing<C, S>, PState<C::Addr>, _, _>(
            move |ps| mnext::<StorePassing<C, S>, C::Addr>(&table, ps, ()),
            ReachableGc,
        ),
        PState::inject(program.main.clone()),
    )
}

/// Like [`analyse_worklist`], but evaluated on the **direct-style step
/// carrier** ([`crate::direct::mnext_direct`]): the same FJ machine
/// semantics with `bind` as plain function composition — no `Rc<dyn Fn>`
/// per bind.  Identical fixpoint; the `Rc` carrier remains the oracle.
pub fn analyse_worklist_direct<C, S, Fp>(program: &Program) -> (Fp, EngineStats)
where
    C: Context,
    S: StoreLike<C::Addr, D = BTreeSet<Storable<C::Addr>>> + Value,
    Fp: DirectCollecting<PState<C::Addr>, C, S>,
{
    let table = program.table.clone();
    Fp::explore_frontier_direct(
        &move |ps, ctx, store| crate::direct::mnext_direct::<C, S>(&table, ps, ctx, store),
        PState::inject(program.main.clone()),
    )
}

/// [`analyse_worklist_direct`] with a
/// [`TraceSink`](mai_core::telemetry::TraceSink) observing the solve:
/// per-round phase timings, store-join traffic and hot-state attribution.
/// Identical fixpoint and identical deterministic work counters at every
/// sink.
pub fn analyse_worklist_direct_traced<C, S, Fp, T>(
    program: &Program,
    sink: &mut T,
) -> (Fp, EngineStats)
where
    C: Context,
    S: StoreLike<C::Addr, D = BTreeSet<Storable<C::Addr>>> + Value,
    Fp: DirectCollecting<PState<C::Addr>, C, S>,
    T: mai_core::telemetry::TraceSink,
{
    let table = program.table.clone();
    Fp::explore_frontier_direct_traced(
        &move |ps, ctx, store| crate::direct::mnext_direct::<C, S>(&table, ps, ctx, store),
        PState::inject(program.main.clone()),
        sink,
    )
}

/// Like [`analyse_with_gc_worklist`], but on the direct-style carrier
/// (per-branch store restriction via
/// [`with_state_gc`]).
pub fn analyse_with_gc_worklist_direct<C, S, Fp>(program: &Program) -> (Fp, EngineStats)
where
    C: Context,
    S: StoreLike<C::Addr, D = BTreeSet<Storable<C::Addr>>> + Value,
    Fp: DirectCollecting<PState<C::Addr>, C, S>,
{
    let table = program.table.clone();
    Fp::explore_frontier_direct(
        &with_state_gc(move |ps, ctx, store| {
            crate::direct::mnext_direct::<C, S>(&table, ps, ctx, store)
        }),
        PState::inject(program.main.clone()),
    )
}

/// Like [`analyse_with_gc_worklist_direct`], but solved by the sharded
/// parallel driver (abstract GC as the per-branch [`with_state_gc`] store
/// restriction, inside each worker).
pub fn analyse_with_gc_parallel<C, S, Fp>(program: &Program, threads: usize) -> (Fp, EngineStats)
where
    C: Context,
    S: StoreLike<C::Addr, D = BTreeSet<Storable<C::Addr>>> + Value,
    Fp: ParallelCollecting<PState<C::Addr>, C, S>,
{
    let table = program.table.clone();
    Fp::explore_frontier_parallel(
        &with_state_gc(move |ps, ctx, store| {
            crate::direct::mnext_direct::<C, S>(&table, ps, ctx, store)
        }),
        PState::inject(program.main.clone()),
        threads,
    )
}

/// Like [`analyse_with_gc_parallel`], but on the barrier-elastic driver.
pub fn analyse_with_gc_elastic<C, S, Fp>(
    program: &Program,
    config: ParallelConfig,
) -> (Fp, EngineStats)
where
    C: Context,
    S: StoreLike<C::Addr, D = BTreeSet<Storable<C::Addr>>> + Value,
    Fp: ParallelCollecting<PState<C::Addr>, C, S>,
{
    let table = program.table.clone();
    Fp::explore_frontier_elastic(
        &with_state_gc(move |ps, ctx, store| {
            crate::direct::mnext_direct::<C, S>(&table, ps, ctx, store)
        }),
        PState::inject(program.main.clone()),
        config,
    )
}

/// Like [`analyse_worklist`], but solved by the PR-2 *structural-key*
/// incremental engine (states as `BTreeMap` keys instead of interned ids) —
/// a differential-testing oracle and the E10 benchmark baseline.
pub fn analyse_worklist_structural<C, S, Fp>(program: &Program) -> (Fp, EngineStats)
where
    C: Context,
    S: StoreLike<C::Addr, D = BTreeSet<Storable<C::Addr>>> + Value,
    Fp: FrontierCollecting<StorePassing<C, S>, PState<C::Addr>>,
{
    let table = program.table.clone();
    Fp::explore_frontier_structural(
        &move |ps| mnext::<StorePassing<C, S>, C::Addr>(&table, ps, ()),
        PState::inject(program.main.clone()),
    )
}

/// Like [`analyse_with_gc_worklist`], but solved by the structural-key
/// engine.
pub fn analyse_with_gc_worklist_structural<C, S, Fp>(program: &Program) -> (Fp, EngineStats)
where
    C: Context,
    S: StoreLike<C::Addr, D = BTreeSet<Storable<C::Addr>>> + Value,
    Fp: FrontierCollecting<StorePassing<C, S>, PState<C::Addr>>,
{
    let table = program.table.clone();
    Fp::explore_frontier_structural(
        &with_gc::<StorePassing<C, S>, PState<C::Addr>, _, _>(
            move |ps| mnext::<StorePassing<C, S>, C::Addr>(&table, ps, ()),
            ReachableGc,
        ),
        PState::inject(program.main.clone()),
    )
}

/// The plain store of the call-site-sensitive FJ analyses.
pub type KFjStore = BasicStore<KCallAddr, Storable<KCallAddr>>;

/// The counting store of the call-site-sensitive FJ analyses.
pub type KFjCountingStore = CountingStore<KCallAddr, Storable<KCallAddr>>;

/// Shared-store k-call-site-sensitive FJ analysis domain.
pub type KFjShared<const K: usize> = SharedStoreDomain<PState<KCallAddr>, KCallCtx<K>, KFjStore>;

/// Per-state-store k-call-site-sensitive FJ analysis domain.
pub type KFjPerState<const K: usize> = PerStateDomain<PState<KCallAddr>, KCallCtx<K>, KFjStore>;

/// Shared-store monovariant FJ analysis domain.
pub type MonoFjShared =
    SharedStoreDomain<PState<MonoAddr>, MonoCtx, BasicStore<MonoAddr, Storable<MonoAddr>>>;

/// k-call-site-sensitive analysis with a shared (widened) store.
pub fn analyse_kcfa_shared<const K: usize>(program: &Program) -> KFjShared<K> {
    analyse::<KCallCtx<K>, KFjStore, _>(program)
}

/// k-call-site-sensitive analysis with per-state stores (heap cloning).
pub fn analyse_kcfa<const K: usize>(program: &Program) -> KFjPerState<K> {
    analyse::<KCallCtx<K>, KFjStore, _>(program)
}

/// k-call-site-sensitive analysis with a shared counting store.
pub fn analyse_kcfa_with_count<const K: usize>(
    program: &Program,
) -> SharedStoreDomain<PState<KCallAddr>, KCallCtx<K>, KFjCountingStore> {
    analyse::<KCallCtx<K>, KFjCountingStore, _>(program)
}

/// k-call-site-sensitive analysis with a shared store and abstract GC.
pub fn analyse_kcfa_shared_gc<const K: usize>(program: &Program) -> KFjShared<K> {
    analyse_with_gc::<KCallCtx<K>, KFjStore, _>(program)
}

/// Monovariant (context-insensitive) analysis with a shared store.
pub fn analyse_mono(program: &Program) -> MonoFjShared {
    analyse::<MonoCtx, BasicStore<MonoAddr, Storable<MonoAddr>>, _>(program)
}

/// [`analyse_kcfa_shared`] solved by the worklist engine.
pub fn analyse_kcfa_shared_worklist<const K: usize>(
    program: &Program,
) -> (KFjShared<K>, EngineStats) {
    analyse_worklist::<KCallCtx<K>, KFjStore, _>(program)
}

/// [`analyse_kcfa_shared`] solved by the PR-2 structural-key incremental
/// engine — the E10 benchmark baseline.
pub fn analyse_kcfa_shared_structural<const K: usize>(
    program: &Program,
) -> (KFjShared<K>, EngineStats) {
    analyse_worklist_structural::<KCallCtx<K>, KFjStore, _>(program)
}

/// How many distinct environments the states of a shared-store FJ fixpoint
/// carry, measured with an [`EnvId`](mai_core::intern::EnvId) interner —
/// the language-boundary half of [`EngineStats::distinct_envs`].
pub fn distinct_env_count<A, G, S>(result: &SharedStoreDomain<PState<A>, G, S>) -> usize
where
    A: mai_core::addr::Address + std::hash::Hash,
    G: Ord + Clone,
    S: mai_core::lattice::Lattice,
{
    mai_core::intern::distinct_count(result.states().iter().map(|(ps, _)| ps.env.clone()))
}

/// [`analyse_kcfa`] solved by the worklist engine (per-state stores).
pub fn analyse_kcfa_worklist<const K: usize>(program: &Program) -> (KFjPerState<K>, EngineStats) {
    analyse_worklist::<KCallCtx<K>, KFjStore, _>(program)
}

/// [`analyse_kcfa_with_count`] solved by the worklist engine.
pub fn analyse_kcfa_with_count_worklist<const K: usize>(
    program: &Program,
) -> (
    SharedStoreDomain<PState<KCallAddr>, KCallCtx<K>, KFjCountingStore>,
    EngineStats,
) {
    analyse_worklist::<KCallCtx<K>, KFjCountingStore, _>(program)
}

/// [`analyse_kcfa_shared_gc`] solved by the worklist engine.
pub fn analyse_kcfa_shared_gc_worklist<const K: usize>(
    program: &Program,
) -> (KFjShared<K>, EngineStats) {
    analyse_with_gc_worklist::<KCallCtx<K>, KFjStore, _>(program)
}

/// [`analyse_kcfa_shared_worklist`] on the direct-style carrier.
pub fn analyse_kcfa_shared_direct<const K: usize>(
    program: &Program,
) -> (KFjShared<K>, EngineStats) {
    analyse_worklist_direct::<KCallCtx<K>, KFjStore, _>(program)
}

/// [`analyse_kcfa_shared_direct`] with a
/// [`TraceSink`](mai_core::telemetry::TraceSink) observing the solve.
pub fn analyse_kcfa_shared_direct_traced<const K: usize, T>(
    program: &Program,
    sink: &mut T,
) -> (KFjShared<K>, EngineStats)
where
    T: mai_core::telemetry::TraceSink,
{
    analyse_worklist_direct_traced::<KCallCtx<K>, KFjStore, _, T>(program, sink)
}

/// [`analyse_kcfa_shared_gc_worklist`] on the direct-style carrier.
pub fn analyse_kcfa_shared_gc_direct<const K: usize>(
    program: &Program,
) -> (KFjShared<K>, EngineStats) {
    analyse_with_gc_worklist_direct::<KCallCtx<K>, KFjStore, _>(program)
}

/// [`analyse_mono_worklist`] on the direct-style carrier.
pub fn analyse_mono_direct(program: &Program) -> (MonoFjShared, EngineStats) {
    analyse_worklist_direct::<MonoCtx, BasicStore<MonoAddr, Storable<MonoAddr>>, _>(program)
}

/// [`analyse_kcfa_shared_gc_direct`] solved by the barrier-elastic driver.
pub fn analyse_kcfa_shared_gc_elastic<const K: usize>(
    program: &Program,
    config: ParallelConfig,
) -> (KFjShared<K>, EngineStats) {
    analyse_with_gc_elastic::<KCallCtx<K>, KFjStore, _>(program, config)
}

/// [`analyse_mono`] solved by the worklist engine.
pub fn analyse_mono_worklist(program: &Program) -> (MonoFjShared, EngineStats) {
    analyse_worklist::<MonoCtx, BasicStore<MonoAddr, Storable<MonoAddr>>, _>(program)
}

/// Which classes may flow to each variable or field cell, extracted from an
/// FJ store (continuation entries are ignored).  This is the standard
/// "points-to / class analysis" view of the result.
pub fn class_flow_map<A, S>(store: &S) -> BTreeMap<Name, BTreeSet<ClassName>>
where
    A: NamedAddress,
    S: StoreLike<A, D = BTreeSet<Storable<A>>>,
{
    let mut flows: BTreeMap<Name, BTreeSet<ClassName>> = BTreeMap::new();
    for addr in store.addresses() {
        for storable in store.fetch(&addr) {
            if let Storable::Val(obj) = storable {
                flows
                    .entry(addr.variable().clone())
                    .or_default()
                    .insert(obj.class.clone());
            }
        }
    }
    flows
}

/// The set of dynamic classes the program's `main` expression may evaluate
/// to, according to a shared-store analysis result.
pub fn result_classes<Ps, C, S>(result: &SharedStoreDomain<Ps, C, S>) -> BTreeSet<ClassName>
where
    Ps: Ord + Clone + ResultClass,
    C: Ord + Clone,
    S: mai_core::Lattice,
{
    result
        .distinct_states()
        .iter()
        .filter_map(ResultClass::result_class)
        .collect()
}

/// The set of abstract error messages among the reachable states — the
/// observable output of the abstract error layer.  Stuck states are final
/// for [`mnext`] (they self-loop), so the fixpoint's power-set of reachable
/// states collects every way the program may go wrong (failed casts,
/// unknown classes, arity mismatches, unbound variables).
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

/// States that may report the class of their halt value.
pub trait ResultClass {
    /// The dynamic class of the halt value, if this state is a halt state.
    fn result_class(&self) -> Option<ClassName>;
}

impl<A> ResultClass for PState<A> {
    fn result_class(&self) -> Option<ClassName> {
        self.result().map(|obj| obj.class.clone())
    }
}

/// A typed façade bundling a program with the analyses most examples need.
#[derive(Debug, Clone)]
pub struct FjAnalyser {
    program: Program,
}

impl FjAnalyser {
    /// Creates an analyser for a (well-formed) program.
    pub fn new(program: Program) -> Self {
        FjAnalyser { program }
    }

    /// The underlying class table.
    pub fn table(&self) -> &ClassTable {
        &self.program.table
    }

    /// Monovariant class analysis of the program: variable/field → classes.
    pub fn mono_class_flows(&self) -> BTreeMap<Name, BTreeSet<ClassName>> {
        class_flow_map(analyse_mono(&self.program).store())
    }

    /// The classes the program may evaluate to under 1-call-site
    /// sensitivity.
    pub fn result_classes_1cfa(&self) -> BTreeSet<ClassName> {
        result_classes(&analyse_kcfa_shared::<1>(&self.program))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::programs;

    #[test]
    fn pair_program_halts_under_every_analysis() {
        let program = programs::pair_fst();
        assert!(analyse_mono(&program)
            .distinct_states()
            .iter()
            .any(PState::is_final));
        assert!(analyse_kcfa_shared::<1>(&program)
            .distinct_states()
            .iter()
            .any(PState::is_final));
        assert!(analyse_kcfa_with_count::<1>(&program)
            .distinct_states()
            .iter()
            .any(PState::is_final));
        assert!(analyse_kcfa_shared_gc::<1>(&program)
            .distinct_states()
            .iter()
            .any(PState::is_final));
    }

    #[test]
    fn pair_fst_returns_exactly_class_a() {
        let program = programs::pair_fst();
        let shared = analyse_kcfa_shared::<1>(&program);
        assert_eq!(
            result_classes(&shared),
            [Name::from("A")].into_iter().collect()
        );
    }

    #[test]
    fn monovariant_container_analysis_conflates_two_cells() {
        let program = programs::two_cells();
        let mono = analyse_mono(&program);
        let flows = class_flow_map(mono.store());
        // Under the monovariant analysis the single abstract cell for the
        // field `Cell.content` receives both A and B.
        let cell = flows
            .iter()
            .find(|(name, _)| name.as_str() == "Cell.content")
            .map(|(_, classes)| classes.clone())
            .unwrap_or_default();
        assert!(cell.contains(&Name::from("A")));
        assert!(cell.contains(&Name::from("B")));
    }

    #[test]
    fn one_cfa_separates_the_two_cells_results() {
        let program = programs::two_cells();
        // The program's result is the content of the *first* cell, so a
        // 1-call-site-sensitive analysis should (at least) include A; the
        // monovariant one necessarily also reports B.
        let mono_result = result_classes(&analyse_mono(&program));
        let one_result = result_classes(&analyse_kcfa_shared::<1>(&program));
        assert!(mono_result.contains(&Name::from("A")));
        assert!(mono_result.contains(&Name::from("B")));
        assert!(one_result.contains(&Name::from("A")));
        assert!(one_result.len() <= mono_result.len());
    }

    #[test]
    fn gc_only_shrinks_the_store() {
        let program = programs::two_cells();
        let plain = analyse_kcfa_shared::<0>(&program);
        let gced = analyse_kcfa_shared_gc::<0>(&program);
        assert!(gced.store().fact_count() <= plain.store().fact_count());
        assert!(gced.distinct_states().iter().any(PState::is_final));
    }

    #[test]
    fn failed_downcasts_lead_to_stuck_not_halt() {
        let program = programs::bad_downcast();
        let result = analyse_mono(&program);
        assert!(result.distinct_states().iter().any(PState::is_stuck));
        assert!(!result.distinct_states().iter().any(PState::is_final));
    }

    #[test]
    fn stuck_states_surface_as_abstract_errors() {
        // A failed downcast is an observable analysis fact.
        let result = analyse_mono(&programs::bad_downcast());
        let errors = abstract_errors(result.distinct_states().iter());
        assert!(
            errors.iter().any(|m| m.contains("failed cast")),
            "unexpected error set: {errors:?}"
        );

        // An unbound variable errors through the pure env-miss check.
        let open = Program {
            table: programs::bad_downcast().table,
            main: crate::syntax::Expr::var("free"),
        };
        let result = analyse_mono(&open);
        let errors = abstract_errors(result.distinct_states().iter());
        assert!(
            errors.iter().any(|m| m.contains("unbound variable `free`")),
            "unexpected error set: {errors:?}"
        );
        assert!(!result.distinct_states().iter().any(PState::is_final));

        // A well-behaved program reports no errors.
        let result = analyse_mono(&programs::pair_fst());
        assert!(abstract_errors(result.distinct_states().iter()).is_empty());
    }

    #[test]
    fn analyser_facade_reports_flows_and_results() {
        let analyser = FjAnalyser::new(programs::pair_fst());
        let flows = analyser.mono_class_flows();
        assert!(!flows.is_empty());
        assert_eq!(
            analyser.result_classes_1cfa(),
            [Name::from("A")].into_iter().collect()
        );
        assert!(analyser.table().class(&Name::from("Pair")).is_some());
    }
}
