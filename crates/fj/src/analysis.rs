//! Abstract interpretation of Featherweight Java.
//!
//! The `StorePassing` instance of [`FjInterface`] is assembled from the same
//! language-independent parameters as the λ-calculi substrates: contexts for
//! call-site sensitivity, plain or counting stores, abstract garbage
//! collection and the per-state / shared-store collecting domains.  Nothing
//! in `mai-core` was written with objects in mind, yet everything applies —
//! the paper's claim that "context-sensitivity for Java and for the lambda
//! calculus is the same monad".
//!
//! The FJ [`Machine`] instance hands `mnext`, closed over the program's
//! class table, to the solves of [`mai_core::analyse`], so every engine
//! solves every domain type below ([`KFjShared`], [`KFjPerState`],
//! [`MonoFjShared`]):
//!
//! ```rust
//! use mai_core::analyse::{self, Gc};
//! use mai_fj::analysis::{result_classes, KFjShared};
//! use mai_fj::programs::pair_fst;
//!
//! let program = pair_fst();
//! let (fixpoint, _stats) = analyse::direct::<KFjShared<1>>(&program, Gc::On);
//! assert_eq!(fixpoint, analyse::kleene::<KFjShared<1>>(&program, Gc::On));
//! assert_eq!(result_classes(&fixpoint).len(), 1);
//! ```
//!
//! The named analyses ([`analyse_kcfa`], [`analyse_kcfa_shared`],
//! [`analyse_kcfa_with_count`], [`analyse_kcfa_shared_gc`],
//! [`analyse_mono`]) are one-line Kleene solves.  The `_worklist`,
//! `_structural`, `_direct`, `_parallel` and `_elastic` names serve the
//! source→answer benchmark (`perfbench/`) until it calls
//! [`mai_core::analyse`] itself.

use std::collections::{BTreeMap, BTreeSet};

use mai_core::addr::{Context, NamedAddress};
use mai_core::analyse::{self, Domain, Gc, Machine};
use mai_core::collect::{PerStateDomain, SharedStoreDomain};
use mai_core::engine::{
    Budget, EngineStats, FrontierCollecting, ParallelCollecting, ParallelConfig,
};
use mai_core::env::PSet;
use mai_core::monad::{
    gets_nd_set, MonadFamily, MonadState, MonadTrans, StateT, StorePassing, Value, VecM,
};
use mai_core::name::{Label, Name};
use mai_core::store::{BasicStore, CountingStore, StoreLike};
use mai_core::telemetry::NoopSink;
use mai_core::{KCallAddr, KCallCtx, MonoAddr, MonoCtx};

use crate::direct::{mnext_direct, Successors};
use crate::machine::{kont_name, mnext, Env, FjInterface, Kont, KontKind, Obj, PState, Storable};
use crate::syntax::{ClassName, Program, VarName};

impl<C, S> FjInterface<C::Addr> for StorePassing<C, S>
where
    C: Context,
    S: StoreLike<C::Addr, D = PSet<Storable<C::Addr>>> + Value,
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

/// The Featherweight Java machine, as the solves of [`mai_core::analyse`]
/// see it: both steps read the program's class table.
impl<C, S> Machine<C, S> for PState<C::Addr>
where
    C: Context,
    S: StoreLike<C::Addr, D = PSet<Storable<C::Addr>>> + Value,
{
    type Program = Program;

    fn initial(program: &Program) -> Self {
        PState::inject(program.main.clone())
    }

    fn step(program: &Program, state: Self) -> <StorePassing<C, S> as MonadFamily>::M<Self> {
        mnext::<StorePassing<C, S>, C::Addr>(&program.table, state, ())
    }

    fn step_direct(program: &Program, state: Self, ctx: C, store: S) -> Successors<C, S> {
        mnext_direct(&program.table, state, ctx, store)
    }
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
    analyse::kleene(program, Gc::Off)
}

/// k-call-site-sensitive analysis with per-state stores (heap cloning).
pub fn analyse_kcfa<const K: usize>(program: &Program) -> KFjPerState<K> {
    analyse::kleene(program, Gc::Off)
}

/// k-call-site-sensitive analysis with a shared counting store.
pub fn analyse_kcfa_with_count<const K: usize>(
    program: &Program,
) -> SharedStoreDomain<PState<KCallAddr>, KCallCtx<K>, KFjCountingStore> {
    analyse::kleene(program, Gc::Off)
}

/// k-call-site-sensitive analysis with a shared store and abstract GC.
pub fn analyse_kcfa_shared_gc<const K: usize>(program: &Program) -> KFjShared<K> {
    analyse::kleene(program, Gc::On)
}

/// Monovariant (context-insensitive) analysis with a shared store.
pub fn analyse_mono(program: &Program) -> MonoFjShared {
    analyse::kleene(program, Gc::Off)
}

/// [`analyse_kcfa_shared_gc`] solved by the id-indexed engine on the
/// closure carrier.
pub fn analyse_kcfa_shared_gc_worklist<const K: usize>(
    program: &Program,
) -> (KFjShared<K>, EngineStats) {
    analyse::worklist(program, Gc::On)
}

/// [`analyse_kcfa_shared_gc`] solved by the id-indexed engine on the
/// direct carrier.
pub fn analyse_kcfa_shared_gc_direct<const K: usize>(
    program: &Program,
) -> (KFjShared<K>, EngineStats) {
    analyse::direct(program, Gc::On)
}

/// [`analyse_kcfa_shared_gc_direct`] solved by the barrier-elastic driver.
pub fn analyse_kcfa_shared_gc_elastic<const K: usize>(
    program: &Program,
    config: ParallelConfig,
) -> (KFjShared<K>, EngineStats) {
    analyse::complete(analyse::parallel(
        program,
        Gc::On,
        config,
        &Budget::unlimited(),
        &mut NoopSink,
    ))
}

/// The structural-key baseline with abstract GC, over any context `C`,
/// store `S` and shared-store domain `Fp`.
pub fn analyse_with_gc_worklist_structural<C, S, Fp>(program: &Program) -> (Fp, EngineStats)
where
    C: Context,
    S: StoreLike<C::Addr, D = PSet<Storable<C::Addr>>> + Value,
    Fp: Domain<State = PState<C::Addr>, Guts = C, Store = S>
        + FrontierCollecting<StorePassing<C, S>, PState<C::Addr>>,
{
    analyse::structural(program, Gc::On)
}

/// The barrier-parallel driver with abstract GC, over any context `C`,
/// store `S` and shared-store domain `Fp`.
pub fn analyse_with_gc_parallel<C, S, Fp>(program: &Program, threads: usize) -> (Fp, EngineStats)
where
    C: Context,
    S: StoreLike<C::Addr, D = PSet<Storable<C::Addr>>> + Value,
    Fp: Domain<State = PState<C::Addr>, Guts = C, Store = S>
        + ParallelCollecting<PState<C::Addr>, C, S>,
{
    let config = ParallelConfig::barrier(threads);
    analyse::complete(analyse::parallel(
        program,
        Gc::On,
        config,
        &Budget::unlimited(),
        &mut NoopSink,
    ))
}

/// Which classes may flow to each variable or field cell, extracted from an
/// FJ store (continuation entries are ignored).  This is the standard
/// "points-to / class analysis" view of the result.
pub fn class_flow_map<A, S>(store: &S) -> BTreeMap<Name, BTreeSet<ClassName>>
where
    A: NamedAddress,
    S: StoreLike<A, D = PSet<Storable<A>>>,
{
    let mut flows: BTreeMap<Name, BTreeSet<ClassName>> = BTreeMap::new();
    for addr in store.addresses() {
        for storable in &store.fetch(&addr) {
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
}
