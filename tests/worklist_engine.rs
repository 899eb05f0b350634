//! The worklist engines are observationally equivalent to Kleene iteration.
//!
//! The id-indexed (interned) incremental engine (`mai_core::engine`, behind
//! `analyse::worklist` and `analyse::direct`), the retained structural-key
//! incremental engine (`analyse::structural`) and the parallel drivers
//! (`analyse::parallel`) all promise to compute
//! *exactly* the fixpoint `explore_fp` computes, for every combination of
//! the paper's degrees of freedom: context sensitivity (mono / 0CFA /
//! 1CFA), store representation (basic / counting) and abstract GC (on /
//! off), with per-state or shared stores, across all three language
//! substrates.  These tests assert `==` on the analysis domains over the
//! benchmark corpus, that the engines do strictly less work than Kleene
//! iteration on the k-CFA worst-case family, and that the incremental
//! engine folds O(|frontier|) contributions per round where re-joining
//! every cached contribution would cost O(|states|).

use std::cell::Cell;
use std::rc::Rc;

use monadic_ai::core::analyse::{self, Gc};
use monadic_ai::core::collect::explore_fp;
use monadic_ai::core::engine::{Budget, ParallelConfig};
use monadic_ai::core::{KCallAddr, KCallCtx, NoopSink, StorePassing};
use monadic_ai::cps::analysis::{KCfaCountingPerState, KCfaPerState, KCfaShared};
use monadic_ai::cps::programs::{
    fan_out, garbage_chain, id_chain, identity_application, kcfa_worst_case, standard_corpus,
};
use monadic_ai::cps::{PState, Val};
use monadic_ai::fj::Storable as FjStorable;
use monadic_ai::lambda::Storable;
use monadic_ai::{cps, fj, lambda};

#[macro_use]
mod common;
use common::{CeskDomain, CpsDomain, FjDomain};

/// The full shared-store configuration matrix of the acceptance criteria:
/// {mono, 0CFA, 1CFA} × {basic, counting} × {gc on, gc off} × every engine
/// over the CPS corpus.
#[test]
fn cps_shared_store_matrix_agrees_with_kleene_across_the_corpus() {
    for (name, program) in standard_corpus() {
        parity_matrix!(format!("CPS {name}"), &program, CpsDomain, Val);
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
        let (worklist, stats) = analyse::worklist::<KCfaPerState<1>>(&program, Gc::Off);
        assert_eq!(worklist, kleene, "{name}: per-state 1CFA differs");
        // Frontier reachability steps each configuration exactly once.
        assert_eq!(stats.states_stepped, worklist.len(), "{name}");

        let kleene_gc = cps::analyse_kcfa_gc::<1>(&program);
        let (worklist_gc, _) = analyse::worklist::<KCfaPerState<1>>(&program, Gc::On);
        assert_eq!(worklist_gc, kleene_gc, "{name}: per-state 1CFA+GC differs");

        let kleene_count = cps::analyse_kcfa_count_cloned::<1>(&program);
        let (worklist_count, _) = analyse::worklist::<KCfaCountingPerState<1>>(&program, Gc::Off);
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
    type Domain = KCfaShared<1>;

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

        let (worklist, stats) = analyse::worklist::<Domain>(&program, Gc::Off);
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

/// On `kcfa_worst_case` the incremental engine's contribution joins per
/// round are O(|frontier|): a solver that re-joins every cached
/// contribution each round (naive Kleene iteration does) pays O(|states|).
#[test]
fn incremental_engine_joins_per_frontier_not_per_state() {
    for n in 2usize..=4 {
        let program = kcfa_worst_case(n);
        let (fixpoint, stats) = analyse::worklist::<KCfaShared<1>>(&program, Gc::Off);
        // Fast path throughout: one fold per stepped pair, so total joins
        // track the frontier sizes (Σ_r |frontier_r| = states_stepped)…
        assert_eq!(stats.rebuild_rounds, 0, "kcfa-worst-{n}");
        assert_eq!(stats.store_joins, stats.states_stepped, "kcfa-worst-{n}");
        // …and the per-round average stays a small constant frontier, below
        // the O(|states|) floor of re-joining every cached contribution.
        assert!(
            stats.joins_per_round() < fixpoint.len() as f64 / 2.0,
            "kcfa-worst-{n}: joins/round {} vs |states|/2 = {}",
            stats.joins_per_round(),
            fixpoint.len() as f64 / 2.0
        );
    }
}

/// The same engine drives the CESK machine unchanged, over the full
/// matrix.
#[test]
fn cesk_worklist_agrees_with_kleene() {
    let corpus = vec![
        ("identity", lambda::programs::identity_application()),
        ("church-2x2", lambda::programs::church_multiplication(2, 2)),
        ("let-chain-4", lambda::programs::let_chain(4)),
        ("omega", lambda::programs::omega()),
    ];
    for (name, term) in corpus {
        parity_matrix!(format!("CESK {name}"), &term, CeskDomain, Storable);
    }
}

/// …and Featherweight Java, completing the three-language wiring.  The
/// elastic driver, which the benchmark times on GC'd 1CFA, must land on
/// the Kleene fixpoint too.
#[test]
fn fj_worklist_agrees_with_kleene() {
    let nested = (1..=4).map(|n| (format!("nested-cells-{n}"), fj::programs::nested_cells(n)));
    let corpus = fj::programs::standard_corpus()
        .into_iter()
        .map(|(name, program)| (name.to_string(), program))
        .chain(nested);
    for (name, program) in corpus {
        parity_matrix!(format!("FJ {name}"), &program, FjDomain, FjStorable);
        let gced = fj::analyse_kcfa_shared_gc::<1>(&program);
        let (elastic, _) = analyse::parallel::<fj::analysis::KFjShared<1>, _>(
            &program,
            Gc::On,
            ParallelConfig::elastic(2, 4),
            &Budget::unlimited(),
            &mut NoopSink,
        );
        assert_eq!(
            elastic.into_complete(),
            gced,
            "{name}: FJ 1CFA+GC elastic differs"
        );
    }
}

/// The per-state engine also reproduces the heap-cloning results for the
/// other two languages.
#[test]
fn per_state_worklist_agrees_across_languages() {
    let term = lambda::programs::identity_application();
    let cesk_kleene = lambda::analyse_kcfa::<1>(&term);
    let (cesk_wl, _) = analyse::worklist::<lambda::analysis::KCeskPerState<1>>(&term, Gc::Off);
    assert_eq!(cesk_wl, cesk_kleene);

    let program = fj::programs::pair_fst();
    let fj_kleene = fj::analyse_kcfa::<1>(&program);
    let (fj_wl, _) = analyse::worklist::<fj::analysis::KFjPerState<1>>(&program, Gc::Off);
    assert_eq!(fj_wl, fj_kleene);
}

/// EngineStats invariants that hold for every run.
#[test]
fn engine_stats_are_internally_consistent() {
    let program = kcfa_worst_case(2);
    let (result, stats) = analyse::worklist::<KCfaShared<1>>(&program, Gc::Off);
    assert!(!result.is_empty());
    // Every distinct (state, guts) pair was stepped at least once, and
    // re-enqueues are the only source of repeat steps.
    assert!(stats.states_stepped >= result.len());
    assert_eq!(stats.states_stepped - stats.reenqueued, result.len());
    assert!(stats.iterations > 0);
    assert!(stats.peak_frontier > 0);
    assert!(stats.peak_frontier <= stats.states_stepped);
}
