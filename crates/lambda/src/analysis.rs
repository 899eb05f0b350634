//! Abstract interpretation of the direct-style λ-calculus.
//!
//! The implementation of [`CeskInterface`] for the `StorePassing` monad is
//! assembled from exactly the same language-independent parameters used for
//! CPS (contexts, stores, counting stores, garbage collection, per-state or
//! shared-store domains) — this module is the concrete evidence for the
//! paper's reuse claim (Figure 3 and §1.2).
//!
//! The CESK [`Machine`] instance hands `mnext` to the solves of
//! [`mai_core::analyse`], so every engine solves every domain type below
//! ([`KCeskShared`], [`KCeskPerState`], [`MonoCeskShared`]):
//!
//! ```rust
//! use mai_core::analyse::{self, Gc};
//! use mai_lambda::analysis::KCeskShared;
//! use mai_lambda::programs::identity_application;
//!
//! let term = identity_application();
//! let kleene: KCeskShared<1> = analyse::kleene(&term, Gc::Off);
//! let (worklist, _stats) = analyse::worklist::<KCeskShared<1>>(&term, Gc::Off);
//! assert_eq!(worklist, kleene);
//! ```
//!
//! The named analyses ([`analyse_kcfa`], [`analyse_kcfa_shared`],
//! [`analyse_kcfa_with_count`], [`analyse_kcfa_shared_gc`],
//! [`analyse_mono`]) are one-line Kleene solves.  The `_worklist`,
//! `_structural`, `_direct`, `_parallel` and `_elastic` names serve the
//! source→answer benchmark (`perfbench/`) until it calls
//! [`mai_core::analyse`] itself.

use std::collections::BTreeSet;

use mai_core::addr::{Context, NamedAddress};
use mai_core::analyse::{self, Domain, Gc, Machine};
use mai_core::collect::{PerStateDomain, SharedStoreDomain};
use mai_core::engine::{
    Budget, DirectCollecting, EngineStats, FrontierCollecting, ParallelConfig, SharedResumeSeed,
};
use mai_core::env::PSet;
use mai_core::monad::{
    gets_nd_set, MonadFamily, MonadState, MonadTrans, StateT, StorePassing, Value, VecM,
};
use mai_core::name::{Label, Name};
use mai_core::store::{BasicStore, CountingStore, StoreLike};
use mai_core::telemetry::{NoopSink, TraceSink};
use mai_core::{KCallAddr, KCallCtx, MonoAddr, MonoCtx};

use crate::direct::{mnext_direct, Successors};
use crate::machine::{
    kont_name, mnext, CeskInterface, Closure, Env, Kont, KontKind, PState, Storable,
};
use crate::syntax::{Term, Var};

impl<C, S> CeskInterface<C::Addr> for StorePassing<C, S>
where
    C: Context,
    S: StoreLike<C::Addr, D = PSet<Storable<C::Addr>>> + Value,
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

/// The CESK machine, as the solves of [`mai_core::analyse`] see it.
impl<C, S> Machine<C, S> for PState<C::Addr>
where
    C: Context,
    S: StoreLike<C::Addr, D = PSet<Storable<C::Addr>>> + Value,
{
    type Program = Term;

    fn initial(term: &Term) -> Self {
        PState::inject(term.clone())
    }

    fn step(_: &Term, state: Self) -> <StorePassing<C, S> as MonadFamily>::M<Self> {
        mnext::<StorePassing<C, S>, C::Addr>(state, ())
    }

    fn step_direct(_: &Term, state: Self, ctx: C, store: S) -> Successors<C, S> {
        mnext_direct(state, ctx, store)
    }
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

/// The resume seed of a governed shared-store k-CFA solve.
pub type KCeskSeed<const K: usize> = SharedResumeSeed<PState<KCallAddr>, KCallCtx<K>, KCeskStore>;

/// k-CFA over the CESK machine with a shared (widened) store.
pub fn analyse_kcfa_shared<const K: usize>(term: &Term) -> KCeskShared<K> {
    analyse::kleene(term, Gc::Off)
}

/// k-CFA over the CESK machine with per-state stores.
pub fn analyse_kcfa<const K: usize>(term: &Term) -> KCeskPerState<K> {
    analyse::kleene(term, Gc::Off)
}

/// k-CFA over the CESK machine with a shared *counting* store.
pub fn analyse_kcfa_with_count<const K: usize>(
    term: &Term,
) -> SharedStoreDomain<PState<KCallAddr>, KCallCtx<K>, KCeskCountingStore> {
    analyse::kleene(term, Gc::Off)
}

/// k-CFA over the CESK machine with a shared store and abstract GC.
pub fn analyse_kcfa_shared_gc<const K: usize>(term: &Term) -> KCeskShared<K> {
    analyse::kleene(term, Gc::On)
}

/// Monovariant (0CFA) analysis of the CESK machine with a shared store.
pub fn analyse_mono(term: &Term) -> MonoCeskShared {
    analyse::kleene(term, Gc::Off)
}

/// [`analyse_mono`] solved by the id-indexed engine on the closure carrier.
pub fn analyse_mono_worklist(term: &Term) -> (MonoCeskShared, EngineStats) {
    analyse::worklist(term, Gc::Off)
}

/// [`analyse_mono`] solved by the id-indexed engine on the direct carrier.
pub fn analyse_mono_direct(term: &Term) -> (MonoCeskShared, EngineStats) {
    analyse::direct(term, Gc::Off)
}

/// [`analyse_mono_direct`] solved by the barrier-parallel driver.
pub fn analyse_mono_parallel(term: &Term, threads: usize) -> (MonoCeskShared, EngineStats) {
    let config = ParallelConfig::barrier(threads);
    analyse::complete(analyse::parallel(
        term,
        Gc::Off,
        config,
        &Budget::unlimited(),
        &mut NoopSink,
    ))
}

/// [`analyse_mono_direct`] solved by the barrier-elastic driver.
pub fn analyse_mono_elastic(term: &Term, config: ParallelConfig) -> (MonoCeskShared, EngineStats) {
    analyse::complete(analyse::parallel(
        term,
        Gc::Off,
        config,
        &Budget::unlimited(),
        &mut NoopSink,
    ))
}

/// The structural-key baseline over any context `C`, store `S` and
/// shared-store domain `Fp`.
pub fn analyse_worklist_structural<C, S, Fp>(term: &Term) -> (Fp, EngineStats)
where
    C: Context,
    S: StoreLike<C::Addr, D = PSet<Storable<C::Addr>>> + Value,
    Fp: Domain<State = PState<C::Addr>, Guts = C, Store = S>
        + FrontierCollecting<StorePassing<C, S>, PState<C::Addr>>,
{
    analyse::structural(term, Gc::Off)
}

/// The direct-carrier solve over any context `C`, store `S` and domain
/// `Fp`, with a [`TraceSink`] observing it.
pub fn analyse_worklist_direct_traced<C, S, Fp, T>(term: &Term, sink: &mut T) -> (Fp, EngineStats)
where
    C: Context,
    S: StoreLike<C::Addr, D = PSet<Storable<C::Addr>>> + Value,
    Fp: Domain<State = PState<C::Addr>, Guts = C, Store = S>
        + DirectCollecting<PState<C::Addr>, C, S>,
    T: TraceSink,
{
    analyse::complete(analyse::governed(
        term,
        Gc::Off,
        None,
        &Budget::unlimited(),
        sink,
    ))
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
    S: StoreLike<A, D = PSet<Storable<A>>>,
{
    let mut flows: std::collections::BTreeMap<Name, BTreeSet<Var>> =
        std::collections::BTreeMap::new();
    for addr in store.addresses() {
        for storable in &store.fetch(&addr) {
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
        let gced: MonoCeskShared = analyse::kleene(&t, Gc::On);
        assert!(gced.store().fact_count() <= plain.store().fact_count());
        assert!(gced.distinct_states().iter().any(PState::is_final));
    }
}
