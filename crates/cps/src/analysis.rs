//! Abstract interpretation of CPS: the `StorePassing` instance of the
//! semantic interface, the CPS [`Machine`], and the k-CFA analysis family
//! (paper §5.3, §6 and §8).
//!
//! Everything in this module is assembled from language-independent parts of
//! `mai-core`: the [`StorePassing`] monad, [`Context`]s for polyvariance,
//! [`StoreLike`] stores (plain or counting), the per-state / shared-store
//! domains, abstract garbage collection and the solves of
//! [`mai_core::analyse`].  The only CPS-specific ingredients are the
//! [`CpsInterface`] instance below, the [`Machine`] instance that hands
//! `mnext` to the solves, and the [`Touches`](mai_core::gc::Touches)
//! instances of [`crate::semantics`].
//!
//! The §8 family is a set of domain types — [`KCfaPerState`] (§8.1),
//! [`KCfaShared`] (§8.2), [`KCfaCounting`] (§8.3), [`KCfaCountingPerState`]
//! and [`MonoShared`] — and every engine solves every one of them, with or
//! without abstract GC (§6.4):
//!
//! ```rust
//! use mai_core::analyse::{self, Gc};
//! use mai_cps::analysis::KCfaShared;
//! use mai_cps::parse_program;
//!
//! let program = parse_program("((λ (x k) (k x)) (λ (y j) (j y)) (λ (r) exit))").unwrap();
//! let kleene: KCfaShared<1> = analyse::kleene(&program, Gc::On);
//! let (direct, _stats) = analyse::direct::<KCfaShared<1>>(&program, Gc::On);
//! assert_eq!(direct, kleene);
//! ```
//!
//! The paper's named analyses are one-line Kleene solves:
//! [`analyse_kcfa`], [`analyse_kcfa_shared`], [`analyse_kcfa_with_count`],
//! [`analyse_kcfa_count_cloned`], [`analyse_kcfa_shared_gc`],
//! [`analyse_kcfa_gc`] and [`analyse_mono`].  The `_worklist`,
//! `_structural`, `_direct`, `_parallel` and `_elastic` names serve the
//! source→answer benchmark (`perfbench/`) until it calls
//! [`mai_core::analyse`] itself.

use std::collections::{BTreeMap, BTreeSet};

use mai_core::addr::{Context, NamedAddress};
use mai_core::analyse::{self, Gc, Machine};
use mai_core::collect::{explore_fp_governed, PerStateDomain, SharedStoreDomain};
use mai_core::engine::{Budget, EngineStats, Outcome, ParallelConfig, SharedResumeSeed};
use mai_core::env::PSet;
use mai_core::lattice::Lattice;
use mai_core::monad::{
    gets_nd_set, MonadFamily, MonadState, MonadTrans, StateT, StorePassing, Value, VecM,
};
use mai_core::name::Name;
use mai_core::store::{BasicStore, CountingStore, StoreLike};
use mai_core::telemetry::{NoopSink, TraceSink};
use mai_core::{ConcreteCtx, KCallAddr, KCallCtx, MonoAddr, MonoCtx};

use crate::direct::{mnext_direct, Successors};
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
    S: StoreLike<C::Addr, D = PSet<Val<C::Addr>>> + Value,
{
    fn fun(env: &Env<C::Addr>, e: &AExp, (): ()) -> Self::M<Val<C::Addr>> {
        match e {
            AExp::Lam(lam) => <Self as MonadFamily>::pure(Val::closure(lam.clone(), env.clone())),
            AExp::Ref(v) => {
                let addr = env.get(v).cloned();
                Self::lift(gets_nd_set::<StateT<S, VecM>, S, Val<C::Addr>, _>(
                    move |store| match &addr {
                        Some(a) => store.fetch(a).iter().cloned().collect(),
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

/// The CPS machine, as the solves of [`mai_core::analyse`] see it.
impl<C, S> Machine<C, S> for PState<C::Addr>
where
    C: Context,
    S: StoreLike<C::Addr, D = PSet<Val<C::Addr>>> + Value,
{
    type Program = CExp;

    fn initial(program: &CExp) -> Self {
        PState::inject(program.clone())
    }

    fn step(_: &CExp, state: Self) -> <StorePassing<C, S> as MonadFamily>::M<Self> {
        mnext::<StorePassing<C, S>, C::Addr>(state, ())
    }

    fn step_direct(_: &CExp, state: Self, ctx: C, store: S) -> Successors<C, S> {
        mnext_direct(state, ctx, store)
    }
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

/// The heap-cloning k-CFA domain with abstract counting: every explored
/// configuration carries its own counting store, so counts reflect the
/// allocations actually performed along each path.
pub type KCfaCountingPerState<const K: usize> =
    PerStateDomain<PState<KCallAddr>, KCallCtx<K>, KCountingStore>;

/// The monovariant (0CFA) shared-store analysis domain.
pub type MonoShared =
    SharedStoreDomain<PState<MonoAddr>, MonoCtx, BasicStore<MonoAddr, Val<MonoAddr>>>;

/// The resume seed of a governed shared-store k-CFA solve.
pub type KCfaSeed<const K: usize> = SharedResumeSeed<PState<KCallAddr>, KCallCtx<K>, KStore>;

/// The paper's `analyseKCFA` (§8.1): a k-CFA analysis with a per-state
/// ("cloned") store.
pub fn analyse_kcfa<const K: usize>(program: &CExp) -> KCfaPerState<K> {
    analyse::kleene(program, Gc::Off)
}

/// The paper's `analyseShared` (§8.2): k-CFA with a single widened store.
pub fn analyse_kcfa_shared<const K: usize>(program: &CExp) -> KCfaShared<K> {
    analyse::kleene(program, Gc::Off)
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
    analyse::kleene(program, Gc::Off)
}

/// k-CFA with per-state *counting* stores: the configuration of abstract
/// counting used for must-alias / strong-update reasoning (§6.3).
pub fn analyse_kcfa_count_cloned<const K: usize>(program: &CExp) -> KCfaCountingPerState<K> {
    analyse::kleene(program, Gc::Off)
}

/// k-CFA with a shared store and abstract garbage collection (§6.4).
pub fn analyse_kcfa_shared_gc<const K: usize>(program: &CExp) -> KCfaShared<K> {
    analyse::kleene(program, Gc::On)
}

/// k-CFA with a per-state store and abstract garbage collection.
pub fn analyse_kcfa_gc<const K: usize>(program: &CExp) -> KCfaPerState<K> {
    analyse::kleene(program, Gc::On)
}

/// The classical monovariant analysis (0CFA, §2.3.1) with a shared store.
pub fn analyse_mono(program: &CExp) -> MonoShared {
    analyse::kleene(program, Gc::Off)
}

/// [`analyse_kcfa_shared`] solved by the id-indexed engine on the closure
/// carrier.
pub fn analyse_kcfa_shared_worklist<const K: usize>(
    program: &CExp,
) -> (KCfaShared<K>, EngineStats) {
    analyse::worklist(program, Gc::Off)
}

/// [`analyse_kcfa_shared`] solved by the structural-key baseline.
pub fn analyse_kcfa_shared_structural<const K: usize>(
    program: &CExp,
) -> (KCfaShared<K>, EngineStats) {
    analyse::structural(program, Gc::Off)
}

/// [`analyse_kcfa_shared`] solved by the id-indexed engine on the direct
/// carrier.
pub fn analyse_kcfa_shared_direct<const K: usize>(program: &CExp) -> (KCfaShared<K>, EngineStats) {
    analyse::direct(program, Gc::Off)
}

/// [`analyse_kcfa_shared_direct`] with a
/// [`TraceSink`] observing the solve.
pub fn analyse_kcfa_shared_direct_traced<const K: usize, T: TraceSink>(
    program: &CExp,
    sink: &mut T,
) -> (KCfaShared<K>, EngineStats) {
    analyse::complete(analyse::governed(
        program,
        Gc::Off,
        None,
        &Budget::unlimited(),
        sink,
    ))
}

/// [`analyse_kcfa_shared_direct`] solved by the barrier-parallel driver.
pub fn analyse_kcfa_shared_parallel<const K: usize>(
    program: &CExp,
    threads: usize,
) -> (KCfaShared<K>, EngineStats) {
    let config = ParallelConfig::barrier(threads);
    analyse::complete(analyse::parallel(
        program,
        Gc::Off,
        config,
        &Budget::unlimited(),
        &mut NoopSink,
    ))
}

/// [`analyse_kcfa_shared_direct`] solved by the barrier-elastic driver.
pub fn analyse_kcfa_shared_elastic<const K: usize>(
    program: &CExp,
    config: ParallelConfig,
) -> (KCfaShared<K>, EngineStats) {
    analyse::complete(analyse::parallel(
        program,
        Gc::Off,
        config,
        &Budget::unlimited(),
        &mut NoopSink,
    ))
}

/// How many distinct environments the states of a shared-store fixpoint
/// carry, measured with an [`EnvId`](mai_core::intern::EnvId) interner —
/// the language-boundary half of the engine's intern statistics
/// ([`EngineStats::distinct_envs`]).  Each distinct environment has its
/// own trie root, so this is also a lower bound on how many environment
/// allocations the whole run needed.
pub fn distinct_env_count<A, G, S>(result: &SharedStoreDomain<PState<A>, G, S>) -> usize
where
    A: mai_core::addr::Address + std::hash::Hash,
    G: Ord + Clone,
    S: Lattice,
{
    mai_core::intern::distinct_count(result.states().iter().map(|(ps, _)| ps.env.clone()))
}

/// The per-state domain of the fresh-address concrete collecting semantics
/// (§5.3): concrete contexts, concrete addresses, one store per state.
pub type ConcreteCollectingDomain = PerStateDomain<
    PState<<ConcreteCtx as Context>::Addr>,
    ConcreteCtx,
    BasicStore<<ConcreteCtx as Context>::Addr, Val<<ConcreteCtx as Context>::Addr>>,
>;

/// The fresh-address *concrete collecting semantics* of §5.3, explored for
/// at most `max_iterations` Kleene rounds (its domain has unbounded height,
/// so exhaustive exploration of a non-terminating program would diverge —
/// the paper makes the same caveat).  A program whose exploration does not
/// close within the bound ends `Exhausted` with
/// [`ExhaustReason::RoundBudget`](mai_core::engine::ExhaustReason::RoundBudget);
/// its resume seed is the accumulated iterate.
pub fn analyse_concrete_collecting(
    program: &CExp,
    max_iterations: usize,
) -> Outcome<ConcreteCollectingDomain, ConcreteCollectingDomain> {
    type S = BasicStore<<ConcreteCtx as Context>::Addr, Val<<ConcreteCtx as Context>::Addr>>;
    explore_fp_governed::<StorePassing<ConcreteCtx, S>, _, _, _>(
        |state| mnext::<StorePassing<ConcreteCtx, S>, _>(state, ()),
        PState::inject(program.clone()),
        &Budget::unlimited().with_max_rounds(max_iterations),
    )
    .0
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
    S: StoreLike<A, D = PSet<Val<A>>>,
{
    let mut flows: FlowMap = BTreeMap::new();
    for addr in store.addresses() {
        let entry = flows.entry(addr.variable().clone()).or_default();
        for val in &store.fetch(&addr) {
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
        assert!(out.is_complete());
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
        assert!(cloned.distinct_states().len() <= cloned.len());
    }
}
