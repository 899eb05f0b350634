//! The worklist engines are observationally equivalent to Kleene iteration.
//!
//! The id-indexed (interned) incremental engine (`mai_core::engine`, the
//! default behind `analyse_*_worklist`), the retained PR-2 structural-key
//! incremental engine (`analyse_*_structural`) and the retained PR-1
//! rescanning engine (`analyse_*_rescan`) all promise to compute *exactly*
//! the fixpoint `explore_fp` computes, for every combination of the
//! paper's degrees of freedom: context sensitivity (mono / 0CFA / 1CFA),
//! store representation (basic / counting) and abstract GC (on / off),
//! with per-state or shared stores, across all three language substrates.
//! These tests assert `==` on the analysis domains over the benchmark
//! corpus, that the engines do strictly less work than Kleene iteration on
//! the k-CFA worst-case family, and that the incremental engines fold
//! O(|frontier|) contributions per round where the rescanning engine
//! re-joins O(|states|).

use std::cell::Cell;
use std::rc::Rc;

use monadic_ai::core::collect::explore_fp;
use monadic_ai::core::store::{BasicStore, CountingStore};
use monadic_ai::core::{KCallAddr, KCallCtx, MonoAddr, MonoCtx, StorePassing};
use monadic_ai::cps::programs::{
    fan_out, garbage_chain, id_chain, identity_application, kcfa_worst_case, standard_corpus,
};
use monadic_ai::cps::{PState, Val};
use monadic_ai::{cps, fj, lambda};

/// Asserts Kleene / incremental-worklist / rescanning-worklist agreement
/// for one CPS shared-store configuration, with and without abstract GC.
macro_rules! check_cps_shared {
    ($name:expr, $program:expr, $label:expr, $ctx:ty, $store:ty) => {{
        type Domain = monadic_ai::core::SharedStoreDomain<
            PState<<$ctx as monadic_ai::core::addr::Context>::Addr>,
            $ctx,
            $store,
        >;
        let program = $program;
        let kleene: Domain = cps::analyse::<$ctx, $store, _>(program);
        let (worklist, stats): (Domain, _) = cps::analyse_worklist::<$ctx, $store, _>(program);
        assert_eq!(
            worklist, kleene,
            "{}/{}: worklist differs from Kleene (no gc)",
            $name, $label
        );
        assert!(stats.states_stepped > 0);
        // The id-indexed default engine interned every configuration.
        assert_eq!(
            stats.distinct_states,
            worklist.len(),
            "{}/{}",
            $name,
            $label
        );
        assert_eq!(stats.intern_misses, worklist.len(), "{}/{}", $name, $label);
        let (structural, structural_stats): (Domain, _) =
            cps::analyse_worklist_structural::<$ctx, $store, _>(program);
        assert_eq!(
            structural, kleene,
            "{}/{}: structural engine differs from Kleene (no gc)",
            $name, $label
        );
        // Same frontier strategy with tighter read sets: the id-indexed
        // engine never does more logical work than the structural one.
        assert!(
            stats.states_stepped <= structural_stats.states_stepped,
            "{}/{}",
            $name,
            $label
        );
        assert!(
            stats.store_joins <= structural_stats.store_joins,
            "{}/{}",
            $name,
            $label
        );
        let (rescan, rescan_stats): (Domain, _) =
            cps::analyse_worklist_rescan::<$ctx, $store, _>(program);
        assert_eq!(
            rescan, kleene,
            "{}/{}: rescanning engine differs from Kleene (no gc)",
            $name, $label
        );
        // GC-free contributions are monotone, so the incremental engine
        // never leaves the fast path and folds exactly one contribution per
        // stepped pair — never more than the rescanning engine's per-round
        // full re-join.
        assert_eq!(stats.rebuild_rounds, 0, "{}/{}", $name, $label);
        assert_eq!(
            stats.store_joins, stats.states_stepped,
            "{}/{}",
            $name, $label
        );
        assert!(
            stats.store_joins <= rescan_stats.store_joins,
            "{}/{}",
            $name,
            $label
        );

        let kleene_gc: Domain = cps::analyse_gc::<$ctx, $store, _>(program);
        let (worklist_gc, _): (Domain, _) = cps::analyse_gc_worklist::<$ctx, $store, _>(program);
        assert_eq!(
            worklist_gc, kleene_gc,
            "{}/{}: worklist differs from Kleene (gc)",
            $name, $label
        );
        let (structural_gc, _): (Domain, _) =
            cps::analyse_gc_worklist_structural::<$ctx, $store, _>(program);
        assert_eq!(
            structural_gc, kleene_gc,
            "{}/{}: structural engine differs from Kleene (gc)",
            $name, $label
        );
        let (rescan_gc, _): (Domain, _) =
            cps::analyse_gc_worklist_rescan::<$ctx, $store, _>(program);
        assert_eq!(
            rescan_gc, kleene_gc,
            "{}/{}: rescanning engine differs from Kleene (gc)",
            $name, $label
        );
    }};
}

/// The full shared-store configuration matrix of the acceptance criteria:
/// {mono, 0CFA, 1CFA} × {basic, counting} × {gc on, gc off} over the CPS
/// corpus.
#[test]
fn cps_shared_store_matrix_agrees_with_kleene_across_the_corpus() {
    for (name, program) in standard_corpus() {
        check_cps_shared!(
            name,
            &program,
            "mono/basic",
            MonoCtx,
            BasicStore<MonoAddr, Val<MonoAddr>>
        );
        check_cps_shared!(
            name,
            &program,
            "mono/counting",
            MonoCtx,
            CountingStore<MonoAddr, Val<MonoAddr>>
        );
        check_cps_shared!(
            name,
            &program,
            "0cfa/basic",
            KCallCtx<0>,
            BasicStore<KCallAddr, Val<KCallAddr>>
        );
        check_cps_shared!(
            name,
            &program,
            "0cfa/counting",
            KCallCtx<0>,
            CountingStore<KCallAddr, Val<KCallAddr>>
        );
        check_cps_shared!(
            name,
            &program,
            "1cfa/basic",
            KCallCtx<1>,
            BasicStore<KCallAddr, Val<KCallAddr>>
        );
        check_cps_shared!(
            name,
            &program,
            "1cfa/counting",
            KCallCtx<1>,
            CountingStore<KCallAddr, Val<KCallAddr>>
        );
    }
}

/// Per-state ("heap cloning") domains: the engine is plain frontier
/// reachability and must reproduce the Kleene closure exactly, gc on/off,
/// basic and counting stores.
#[test]
fn cps_per_state_domains_agree_with_kleene() {
    let programs = vec![
        ("identity", identity_application()),
        ("id-chain-4", id_chain(4)),
        ("fan-out-4", fan_out(4)),
        ("garbage-chain-4", garbage_chain(4)),
    ];
    for (name, program) in programs {
        let kleene = cps::analyse_kcfa::<1>(&program);
        let (worklist, stats) = cps::analyse_kcfa_worklist::<1>(&program);
        assert_eq!(worklist, kleene, "{name}: per-state 1CFA differs");
        // Frontier reachability steps each configuration exactly once.
        assert_eq!(stats.states_stepped, worklist.len(), "{name}");

        let kleene_gc = cps::analyse_kcfa_gc::<1>(&program);
        let (worklist_gc, _) = cps::analyse_kcfa_gc_worklist::<1>(&program);
        assert_eq!(worklist_gc, kleene_gc, "{name}: per-state 1CFA+GC differs");

        let kleene_count = cps::analyse_kcfa_count_cloned::<1>(&program);
        let (worklist_count, _) = cps::analyse_kcfa_count_cloned_worklist::<1>(&program);
        assert_eq!(
            worklist_count, kleene_count,
            "{name}: per-state counting differs"
        );
    }
}

/// The acceptance-criteria benchmark: on `kcfa_worst_case` the worklist
/// engine must step strictly fewer states than Kleene iteration while
/// computing the identical fixpoint (asserted via `EngineStats` against an
/// instrumented `explore_fp`).
#[test]
fn worklist_steps_strictly_fewer_states_than_kleene_on_kcfa_worst_case() {
    type Ctx = KCallCtx<1>;
    type Store = cps::analysis::KStore;
    type M = StorePassing<Ctx, Store>;
    type Domain = cps::analysis::KCfaShared<1>;

    for n in [2usize, 3] {
        let program = kcfa_worst_case(n);
        let kleene_steps = Rc::new(Cell::new(0usize));
        let counter = Rc::clone(&kleene_steps);
        let counted_step = move |ps: PState<KCallAddr>| {
            counter.set(counter.get() + 1);
            monadic_ai::cps::mnext::<M, KCallAddr>(ps, ())
        };
        let kleene: Domain =
            explore_fp::<M, _, _, _>(counted_step, PState::inject(program.clone()));

        let (worklist, stats) = cps::analyse_kcfa_shared_worklist::<1>(&program);
        assert_eq!(worklist, kleene, "kcfa-worst-{n}: fixpoints differ");
        assert!(
            stats.states_stepped < kleene_steps.get(),
            "kcfa-worst-{n}: worklist stepped {} states, Kleene stepped {}",
            stats.states_stepped,
            kleene_steps.get()
        );
        assert!(stats.cache_hits > 0, "kcfa-worst-{n}: no cache hits");
    }
}

/// The E9 acceptance criterion on `kcfa_worst_case`: the incremental
/// engine's contribution joins per round are O(|frontier|) where the
/// rescanning engine (like naive Kleene iteration) re-joins O(|states|)
/// cached contributions per round.
#[test]
fn incremental_engine_joins_per_frontier_not_per_state() {
    for n in [2usize, 3, 4] {
        let program = kcfa_worst_case(n);
        let (incremental, stats) = cps::analyse_kcfa_shared_worklist::<1>(&program);
        let (rescan, rescan_stats) = cps::analyse_kcfa_shared_rescan::<1>(&program);
        assert_eq!(incremental, rescan, "kcfa-worst-{n}: fixpoints differ");

        // Fast path throughout: one fold per stepped pair, so total joins
        // track the frontier sizes (Σ_r |frontier_r| = states_stepped)…
        assert_eq!(stats.rebuild_rounds, 0, "kcfa-worst-{n}");
        assert_eq!(stats.store_joins, stats.states_stepped, "kcfa-worst-{n}");
        // …while the rescanning engine re-joins every cached contribution
        // every round (Σ_r |states_r| ≥ iterations × final-state-count / 2).
        assert!(
            stats.store_joins < rescan_stats.store_joins,
            "kcfa-worst-{n}: incremental joined {} contributions, rescan {}",
            stats.store_joins,
            rescan_stats.store_joins
        );
        // The per-round average drops from O(|states|) to O(|frontier|):
        // the rescanning engine's joins/round equals the (growing) state
        // count, the incremental engine's stays a small constant frontier.
        assert!(
            stats.joins_per_round() < rescan_stats.joins_per_round(),
            "kcfa-worst-{n}: joins/round {} vs {}",
            stats.joins_per_round(),
            rescan_stats.joins_per_round()
        );
        assert!(
            rescan_stats.joins_per_round() >= incremental.len() as f64 / 2.0,
            "kcfa-worst-{n}: rescan joins/round should scale with |states|"
        );
    }
}

/// The same engine drives the CESK machine unchanged.
#[test]
fn cesk_worklist_agrees_with_kleene() {
    let corpus = vec![
        ("identity", lambda::programs::identity_application()),
        ("church-2x2", lambda::programs::church_multiplication(2, 2)),
        ("let-chain-4", lambda::programs::let_chain(4)),
        ("omega", lambda::programs::omega()),
    ];
    for (name, term) in corpus {
        let mono = lambda::analyse_mono(&term);
        let (mono_wl, _) = lambda::analyse_mono_worklist(&term);
        assert_eq!(mono_wl, mono, "{name}: CESK mono differs");

        let one = lambda::analyse_kcfa_shared::<1>(&term);
        let (one_wl, _) = lambda::analyse_kcfa_shared_worklist::<1>(&term);
        assert_eq!(one_wl, one, "{name}: CESK 1CFA differs");
        let (one_structural, _) = lambda::analyse_kcfa_shared_structural::<1>(&term);
        assert_eq!(one_structural, one, "{name}: CESK 1CFA structural differs");
        let (one_rescan, _) = lambda::analyse_kcfa_shared_rescan::<1>(&term);
        assert_eq!(one_rescan, one, "{name}: CESK 1CFA rescan differs");

        let counted = lambda::analyse_kcfa_with_count::<1>(&term);
        let (counted_wl, _) = lambda::analyse_kcfa_with_count_worklist::<1>(&term);
        assert_eq!(counted_wl, counted, "{name}: CESK counting differs");

        let gced = lambda::analyse_kcfa_shared_gc::<1>(&term);
        let (gced_wl, _) = lambda::analyse_kcfa_shared_gc_worklist::<1>(&term);
        assert_eq!(gced_wl, gced, "{name}: CESK 1CFA+GC differs");
        let (gced_rescan, _) = lambda::analyse_with_gc_worklist_rescan::<
            KCallCtx<1>,
            monadic_ai::core::BasicStore<KCallAddr, lambda::Storable<KCallAddr>>,
            lambda::analysis::KCeskShared<1>,
        >(&term);
        assert_eq!(gced_rescan, gced, "{name}: CESK 1CFA+GC rescan differs");
    }
}

/// …and Featherweight Java, completing the three-language wiring.
#[test]
fn fj_worklist_agrees_with_kleene() {
    for (name, program) in fj::programs::standard_corpus() {
        let mono = fj::analyse_mono(&program);
        let (mono_wl, _) = fj::analyse_mono_worklist(&program);
        assert_eq!(mono_wl, mono, "{name}: FJ mono differs");

        let one = fj::analyse_kcfa_shared::<1>(&program);
        let (one_wl, _) = fj::analyse_kcfa_shared_worklist::<1>(&program);
        assert_eq!(one_wl, one, "{name}: FJ 1CFA differs");
        let (one_structural, _) = fj::analyse_kcfa_shared_structural::<1>(&program);
        assert_eq!(one_structural, one, "{name}: FJ 1CFA structural differs");
        let (one_rescan, _) = fj::analyse_kcfa_shared_rescan::<1>(&program);
        assert_eq!(one_rescan, one, "{name}: FJ 1CFA rescan differs");

        let counted = fj::analyse_kcfa_with_count::<1>(&program);
        let (counted_wl, _) = fj::analyse_kcfa_with_count_worklist::<1>(&program);
        assert_eq!(counted_wl, counted, "{name}: FJ counting differs");

        let gced = fj::analyse_kcfa_shared_gc::<1>(&program);
        let (gced_wl, _) = fj::analyse_kcfa_shared_gc_worklist::<1>(&program);
        assert_eq!(gced_wl, gced, "{name}: FJ 1CFA+GC differs");
        let (gced_rescan, _) = fj::analyse_with_gc_worklist_rescan::<
            KCallCtx<1>,
            monadic_ai::core::BasicStore<KCallAddr, fj::Storable<KCallAddr>>,
            fj::analysis::KFjShared<1>,
        >(&program);
        assert_eq!(gced_rescan, gced, "{name}: FJ 1CFA+GC rescan differs");
    }
}

/// The per-state engine also reproduces the heap-cloning results for the
/// other two languages.
#[test]
fn per_state_worklist_agrees_across_languages() {
    let term = lambda::programs::identity_application();
    let cesk_kleene = lambda::analyse_kcfa::<1>(&term);
    let (cesk_wl, _) = lambda::analyse_kcfa_worklist::<1>(&term);
    assert_eq!(cesk_wl, cesk_kleene);

    let program = fj::programs::pair_fst();
    let fj_kleene = fj::analyse_kcfa::<1>(&program);
    let (fj_wl, _) = fj::analyse_kcfa_worklist::<1>(&program);
    assert_eq!(fj_wl, fj_kleene);
}

/// EngineStats invariants that hold for every run.
#[test]
fn engine_stats_are_internally_consistent() {
    let program = kcfa_worst_case(2);
    let (result, stats) = cps::analyse_kcfa_shared_worklist::<1>(&program);
    assert!(!result.is_empty());
    // Every distinct (state, guts) pair was stepped at least once, and
    // re-enqueues are the only source of repeat steps.
    assert!(stats.states_stepped >= result.len());
    assert_eq!(stats.states_stepped - stats.reenqueued, result.len());
    assert!(stats.iterations > 0);
    assert!(stats.peak_frontier > 0);
    assert!(stats.peak_frontier <= stats.states_stepped);
}
