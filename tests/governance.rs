//! Governance of the engines: budgets, cancellation, resumable partials,
//! panic containment and the degradation ladder.
//!
//! The suite pins four properties over the *same committed corpus* the
//! differential suite replays (`tests/common`):
//!
//! 1. **Governed-off parity** — `Budget::unlimited()` runs are
//!    byte-identical to the classic entry points, fixpoint *and* every
//!    deterministic work counter, sequentially and at every committed
//!    thread count.  The governed solver is the single implementation,
//!    so this pins the "wrapper passes unlimited" contract.
//! 2. **Resume soundness** — an `Exhausted` partial's seed, resumed (on
//!    the same driver or any other), converges onto exactly the one-shot
//!    fixpoint; chaining arbitrarily many tight budgets changes nothing.
//! 3. **Cancel latency** — a cancellation raised *inside* a step is
//!    observed within one round (sequential) or one epoch (elastic),
//!    asserted from traced telemetry, not timing.
//! 4. **Fault containment** (`--features fault-inject`) — deterministically
//!    injected worker panics surface as clean [`EngineError`]s, never
//!    deadlocks, and the degradation ladder still produces the
//!    byte-identical sequential fixpoint.

use std::collections::BTreeSet;

use mai_core::engine::{
    Budget, CancelToken, DirectCollecting, EngineStats, ExhaustReason, Outcome, ParallelCollecting,
    ParallelConfig, SolveFrom,
};
use mai_core::store::BasicStore;
use mai_core::telemetry::{GovernorTraceKind, TraceBuffer};
use mai_core::KCallCtx;
use mai_lambda::analysis as la;
use mai_lambda::Term;

mod common;
use common::{term_from_seed, COMMITTED_SEEDS, PARALLEL_THREADS};

/// Zeroes the timing gauges ([`EngineStats::work`]) and the
/// fold-order-dependent `store_bytes_shared` sample, which legitimately
/// vary between parallel runs — the same exemptions the differential
/// suite's counter parity grants.  Everything else must match exactly.
fn deterministic_counters(stats: EngineStats) -> EngineStats {
    EngineStats {
        store_bytes_shared: 0,
        ..stats.work()
    }
}

/// Runs a barrier or elastic solve under an empty fault plan.  The plan a
/// fault test installs is process-global, so a parallel solve running
/// beside that test would step through its injected faults; holding the
/// plan's serial lock keeps the two apart.  Without the `fault-inject`
/// feature there is no plan, and this only calls `solve`.
fn without_faults<R>(solve: impl FnOnce() -> R) -> R {
    #[cfg(feature = "fault-inject")]
    let _serial = mai_core::engine::FaultPlan::new().install();
    solve()
}

/// The resume chain is provably finite (each resumed round steps at least
/// one state of a finite abstract space), but a regression that dropped
/// the seed's accumulated store could loop — bound the chain defensively.
const MAX_RESUME_CHAIN: usize = 10_000;

// ---------------------------------------------------------------------------
// Governed-off parity
// ---------------------------------------------------------------------------

#[test]
fn unlimited_budget_is_byte_identical_to_the_classic_engines() {
    for seed in COMMITTED_SEEDS {
        let term = term_from_seed(seed);
        let (direct, direct_stats) = la::analyse_kcfa_shared_direct::<1>(&term);
        let (outcome, stats) = la::analyse_kcfa_shared_governed::<1>(&term, &Budget::unlimited());
        assert!(
            outcome.is_complete(),
            "unlimited budget exhausted on seed {seed:#x}"
        );
        assert_eq!(
            outcome.into_complete(),
            direct,
            "governed-off CESK fixpoint differs on seed {seed:#x}"
        );
        assert_eq!(
            stats, direct_stats,
            "governed-off CESK work counters differ on seed {seed:#x}"
        );

        let program = mai_cps::cps_convert(&term);
        let (c_direct, c_direct_stats) =
            mai_cps::analysis::analyse_kcfa_shared_direct::<1>(&program);
        let (c_outcome, c_stats) =
            mai_cps::analysis::analyse_kcfa_shared_governed::<1>(&program, &Budget::unlimited());
        assert_eq!(
            c_outcome.into_complete(),
            c_direct,
            "governed-off CPS fixpoint differs on seed {seed:#x}"
        );
        assert_eq!(
            c_stats, c_direct_stats,
            "governed-off CPS work counters differ on seed {seed:#x}"
        );
    }
}

#[test]
fn unlimited_budget_is_byte_identical_to_the_classic_parallel_driver() {
    for seed in COMMITTED_SEEDS {
        let term = term_from_seed(seed);
        for threads in PARALLEL_THREADS {
            let (classic, classic_stats) =
                without_faults(|| la::analyse_kcfa_shared_parallel::<1>(&term, threads));
            let (outcome, stats) = without_faults(|| {
                la::analyse_kcfa_shared_parallel_governed::<1>(&term, threads, &Budget::unlimited())
            })
            .expect("no worker fault without an installed fault plan");
            assert_eq!(
                outcome.into_complete(),
                classic,
                "governed-off parallel fixpoint differs on seed {seed:#x} at {threads} threads"
            );
            assert_eq!(
                deterministic_counters(stats),
                deterministic_counters(classic_stats),
                "governed-off parallel work counters differ on seed {seed:#x} at {threads} threads"
            );
        }
    }
}

#[test]
fn unlimited_budget_matches_the_classic_elastic_driver_fixpoint() {
    // Elastic work counters are timing-dependent by design (see the
    // differential suite), so only fixpoint identity is demanded here.
    for seed in COMMITTED_SEEDS {
        let term = term_from_seed(seed);
        let (direct, _) = la::analyse_kcfa_shared_direct::<1>(&term);
        let config = ParallelConfig {
            threads: 2,
            epochs: 4,
        };
        let (outcome, _) = without_faults(|| {
            la::analyse_kcfa_shared_elastic_governed::<1>(&term, config, &Budget::unlimited())
        })
        .expect("no worker fault without an installed fault plan");
        assert_eq!(
            outcome.into_complete(),
            direct,
            "governed-off elastic fixpoint differs on seed {seed:#x}"
        );
    }
}

// ---------------------------------------------------------------------------
// Resume soundness
// ---------------------------------------------------------------------------

/// Chains `analyse_kcfa_shared_resume` under `budget` until completion,
/// starting from an already-obtained outcome.
fn drain_resume_chain(
    mut outcome: Outcome<la::KCeskShared<1>, la::KCeskSeed<1>>,
    budget: &Budget,
    ctx: &str,
) -> la::KCeskShared<1> {
    for _ in 0..MAX_RESUME_CHAIN {
        match outcome {
            Outcome::Complete(value) => return value,
            Outcome::Exhausted {
                reason,
                resume_seed,
                ..
            } => {
                assert_eq!(reason, ExhaustReason::RoundBudget, "{ctx}: wrong reason");
                outcome = la::analyse_kcfa_shared_resume::<1>(*resume_seed, budget).0;
            }
        }
    }
    panic!("{ctx}: resume chain failed to converge in {MAX_RESUME_CHAIN} links")
}

#[test]
fn exhausted_partials_resume_onto_the_one_shot_fixpoint() {
    let tight = Budget::unlimited().with_max_rounds(1);
    for seed in COMMITTED_SEEDS {
        let term = term_from_seed(seed);
        let (oracle, _) = la::analyse_kcfa_shared_direct::<1>(&term);
        let ctx = format!("seed {seed:#x}");

        // One tight round, then a single unlimited resume.
        let (first, _) = la::analyse_kcfa_shared_governed::<1>(&term, &tight);
        match first {
            Outcome::Complete(value) => assert_eq!(value, oracle, "{ctx}: one-round completion"),
            Outcome::Exhausted { resume_seed, .. } => {
                let (resumed, _) =
                    la::analyse_kcfa_shared_resume::<1>(*resume_seed, &Budget::unlimited());
                assert_eq!(
                    resumed.into_complete(),
                    oracle,
                    "{ctx}: unlimited resume diverged from the one-shot fixpoint"
                );
            }
        }

        // The worst case: every link of the chain is one round.
        let (chained, _) = la::analyse_kcfa_shared_governed::<1>(&term, &tight);
        let fixpoint = drain_resume_chain(chained, &tight, &ctx);
        assert_eq!(
            fixpoint, oracle,
            "{ctx}: one-round resume chain diverged from the one-shot fixpoint"
        );
    }
}

#[test]
fn parallel_exhaustion_resumes_on_either_driver() {
    let tight = Budget::unlimited().with_max_rounds(1);
    for seed in COMMITTED_SEEDS {
        let term = term_from_seed(seed);
        let (oracle, _) = la::analyse_kcfa_shared_direct::<1>(&term);
        for threads in PARALLEL_THREADS {
            let ctx = format!("seed {seed:#x} at {threads} threads");
            let (outcome, _) = without_faults(|| {
                la::analyse_kcfa_shared_parallel_governed::<1>(&term, threads, &tight)
            })
            .expect("no worker fault without an installed fault plan");
            match outcome {
                Outcome::Complete(value) => {
                    assert_eq!(value, oracle, "{ctx}: one-round completion")
                }
                Outcome::Exhausted { resume_seed, .. } => {
                    // The seed is driver-agnostic: resume sequentially …
                    let (seq, _) = la::analyse_kcfa_shared_resume::<1>(
                        (*resume_seed).clone(),
                        &Budget::unlimited(),
                    );
                    assert_eq!(
                        seq.into_complete(),
                        oracle,
                        "{ctx}: sequential resume of a parallel partial"
                    );
                    // … and on the parallel driver it came from.
                    let (par, _) = without_faults(|| {
                        la::KCeskShared::<1>::explore_frontier_parallel_governed(
                            &mai_lambda::direct::mnext_direct::<KCallCtx<1>, la::KCeskStore>,
                            SolveFrom::Resume(*resume_seed),
                            threads,
                            &Budget::unlimited(),
                        )
                    })
                    .expect("no worker fault without an installed fault plan");
                    assert_eq!(
                        par.into_complete(),
                        oracle,
                        "{ctx}: parallel resume of a parallel partial"
                    );
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Budgets on the concrete interpreters (the unified PR-1 step limits)
// ---------------------------------------------------------------------------

/// Ω — the canonical diverging term.
fn omega() -> Term {
    let mut b = mai_lambda::syntax::TermBuilder::new();
    let self_app = |b: &mut mai_lambda::syntax::TermBuilder| {
        let app = b.app(Term::var("x"), Term::var("x"));
        Term::lam("x", app)
    };
    let f = self_app(&mut b);
    let a = self_app(&mut b);
    b.app(f, a)
}

#[test]
fn step_budgets_halt_divergent_concrete_runs() {
    let term = omega();
    let budget = Budget::unlimited().with_max_steps(50);
    assert!(matches!(
        mai_lambda::concrete::evaluate_governed(&term, &budget),
        mai_lambda::concrete::Outcome::OutOfFuel { .. }
    ));
    let program = mai_cps::cps_convert(&term);
    assert!(matches!(
        mai_cps::concrete::interpret_governed(&program, &budget),
        mai_cps::concrete::Outcome::OutOfFuel { .. }
    ));
}

#[test]
fn cancellation_stops_a_concrete_run_before_its_first_step() {
    let token = CancelToken::new();
    token.cancel();
    let budget = Budget::unlimited().with_cancel(token);
    assert!(matches!(
        mai_lambda::concrete::evaluate_governed(&omega(), &budget),
        mai_lambda::concrete::Outcome::OutOfFuel { .. }
    ));
    let fj = mai_fj::programs::pair_fst();
    assert!(matches!(
        mai_fj::concrete::run_governed(&fj, &budget),
        mai_fj::concrete::Outcome::OutOfFuel { .. }
    ));
}

#[test]
fn fj_budgeted_run_resumes_nothing_but_reports_fuel() {
    let fj = mai_fj::programs::pair_fst();
    let out = mai_fj::concrete::run_governed(&fj, &Budget::unlimited().with_max_steps(1));
    assert!(matches!(out, mai_fj::concrete::Outcome::OutOfFuel { .. }));
    // The same program under an unlimited budget still halts normally.
    let out = mai_fj::concrete::run_governed(&fj, &Budget::unlimited());
    assert!(out.halted());
}

// ---------------------------------------------------------------------------
// Traced cancel latency on a crafted chain machine
// ---------------------------------------------------------------------------

/// A heap value for the chain machines (never actually bound; the store
/// exists to satisfy the shared-store domain shape).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
struct Probe(u8);

impl mai_core::gc::Touches<u8> for Probe {
    fn touches(&self) -> BTreeSet<u8> {
        BTreeSet::new()
    }
}

/// A state of the crafted chain machines.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
struct Chain(u32);

impl mai_core::StateRoots for Chain {
    type Addr = u8;

    fn state_roots(&self) -> BTreeSet<u8> {
        BTreeSet::new()
    }
}

type ChainStore = BasicStore<u8, Probe>;
type ChainDom = mai_core::SharedStoreDomain<Chain, u64, ChainStore>;

#[test]
fn sequential_cancellation_lands_within_one_round() {
    // The chain 0 → 1 → … → 10 steps exactly one state per round, so
    // state `n` is stepped in round `n + 1`.  The step of state 3 (round
    // 4) raises cancellation *mid-round*; the governor observes it at
    // that round's boundary, so exactly 4 rounds are recorded.
    let token = CancelToken::new();
    let cancel = token.clone();
    let step = move |ps: Chain, g: u64, s: ChainStore| {
        if ps.0 == 3 {
            cancel.cancel();
        }
        if ps.0 >= 10 {
            vec![]
        } else {
            vec![((Chain(ps.0 + 1), g), s)]
        }
    };
    let budget = Budget::unlimited().with_cancel(token);
    let mut sink = TraceBuffer::new();
    let (outcome, stats): (Outcome<ChainDom, _>, _) = ChainDom::explore_frontier_governed_traced(
        &step,
        SolveFrom::Fresh(Chain(0)),
        &budget,
        &mut sink,
    );
    assert_eq!(outcome.exhaust_reason(), Some(ExhaustReason::Cancelled));
    assert_eq!(stats.iterations, 4, "cancel latency exceeded one round");
    assert_eq!(sink.rounds.len(), 4, "cancel latency exceeded one round");
    assert!(
        sink.governor_events
            .iter()
            .any(|e| e.kind == GovernorTraceKind::Exhausted(ExhaustReason::Cancelled)),
        "no governor event recorded for the cancellation"
    );
}

/// The forked chain for the elastic latency test: 0 forks into two long
/// arms (1…64 and 1001…1064) so both workers stay busy for many epochs
/// when ungoverned.
fn forked_step(
    cancel_at: u32,
    token: CancelToken,
) -> impl Fn(Chain, u64, ChainStore) -> Vec<((Chain, u64), ChainStore)> {
    move |ps: Chain, g: u64, s: ChainStore| {
        if ps.0 == cancel_at {
            token.cancel();
        }
        match ps.0 {
            0 => vec![((Chain(1), g), s.clone()), ((Chain(1001), g), s)],
            n if n < 64 => vec![((Chain(n + 1), g), s)],
            n if (1001..1064).contains(&n) => vec![((Chain(n + 1), g), s)],
            _ => vec![],
        }
    }
}

#[test]
fn elastic_cancellation_lands_within_one_epoch() {
    let token = CancelToken::new();
    let step = forked_step(0, token.clone());
    let budget = Budget::unlimited().with_cancel(token);
    let mut sink = TraceBuffer::new();
    let config = ParallelConfig {
        threads: 2,
        epochs: 8,
    };
    let (outcome, _stats) = without_faults(|| {
        ChainDom::explore_frontier_elastic_governed_traced(
            &step,
            SolveFrom::Fresh(Chain(0)),
            config,
            &budget,
            &mut sink,
        )
    })
    .expect("no worker fault without an installed fault plan");
    assert_eq!(outcome.exhaust_reason(), Some(ExhaustReason::Cancelled));
    // Cancellation was raised by the very first step, so no worker may
    // run past its next interruptible epoch boundary: every recorded
    // epoch is 1 (in flight when the flag rose) or 2 (already scheduled).
    assert!(
        sink.epochs.iter().all(|e| e.epoch <= 2),
        "a worker ran epochs past the cancellation: {:?}",
        sink.epochs
    );
    assert_eq!(
        sink.rounds.len(),
        1,
        "cancellation was not observed at the first barrier"
    );
    // The partial really is partial — an ungoverned run discovers the
    // whole 130-state space.
    let (full, _) =
        ChainDom::explore_frontier_direct(&forked_step(u32::MAX, CancelToken::new()), Chain(0));
    assert!(
        outcome.value().states().len() < full.states().len(),
        "cancelled run still explored the full space"
    );
}

#[test]
fn elastic_round_budget_partial_resumes_onto_the_full_fixpoint() {
    let (full, _) =
        ChainDom::explore_frontier_direct(&forked_step(u32::MAX, CancelToken::new()), Chain(0));
    let step = forked_step(u32::MAX, CancelToken::new());
    let config = ParallelConfig {
        threads: 2,
        epochs: 2,
    };
    let (outcome, _) = without_faults(|| {
        ChainDom::explore_frontier_elastic_governed(
            &step,
            SolveFrom::Fresh(Chain(0)),
            config,
            &Budget::unlimited().with_max_rounds(1),
        )
    })
    .expect("no worker fault without an installed fault plan");
    match outcome {
        Outcome::Complete(value) => assert_eq!(value, full),
        Outcome::Exhausted {
            reason,
            resume_seed,
            ..
        } => {
            assert_eq!(reason, ExhaustReason::RoundBudget);
            // Cross-driver resume: the elastic partial continues on the
            // sequential engine and lands on the identical fixpoint.
            let (resumed, _): (Outcome<ChainDom, _>, _) = ChainDom::explore_frontier_governed(
                &step,
                SolveFrom::Resume(*resume_seed),
                &Budget::unlimited(),
            );
            assert_eq!(resumed.into_complete(), full);
        }
    }
}

// ---------------------------------------------------------------------------
// Deterministic fault injection (feature-gated)
// ---------------------------------------------------------------------------

#[cfg(feature = "fault-inject")]
mod faults {
    use super::*;
    use mai_core::engine::{EngineError, FaultPlan, LadderRung};

    /// The committed thread counts the fault matrix replays at (a faulted
    /// singleton pool is covered by the ladder tests).
    const FAULT_THREADS: [usize; 2] = [2, 4];

    #[test]
    fn injected_worker_panic_surfaces_as_a_clean_error() {
        let term = term_from_seed(COMMITTED_SEEDS[1]);
        for threads in FAULT_THREADS {
            // The first frontier is the singleton initial state, stepped
            // on the coordinator's inline path as worker 0 — so the
            // (0, 0) fault fires deterministically on every program.
            let guard = FaultPlan::new().panic_at(0, 0).install();
            let result = la::analyse_kcfa_shared_parallel_governed::<1>(
                &term,
                threads,
                &Budget::unlimited(),
            );
            drop(guard);
            match result {
                Err(EngineError::WorkerPanicked { message }) => assert!(
                    message.contains("injected fault"),
                    "unexpected panic message: {message}"
                ),
                other => panic!("expected a contained worker panic, got {other:?}"),
            }
        }
    }

    #[test]
    fn ladder_degrades_from_elastic_to_barrier() {
        let term = term_from_seed(COMMITTED_SEEDS[2]);
        let (oracle, _) = la::analyse_kcfa_shared_direct::<1>(&term);
        let config = ParallelConfig {
            threads: 2,
            epochs: 2,
        };
        // Worker 0's step counter persists across rungs within one
        // install, so (0, 0) fires in the elastic rung and is already
        // spent when the barrier rung steps worker 0 again (nth = 1).
        let guard = FaultPlan::new().panic_at(0, 0).install();
        let (outcome, _, report) =
            la::analyse_kcfa_shared_ladder::<1>(&term, config, &Budget::unlimited());
        drop(guard);
        assert!(report.degraded());
        assert_eq!(report.rung, LadderRung::Barrier);
        assert_eq!(report.faults.len(), 1);
        assert_eq!(report.faults[0].0, LadderRung::Elastic);
        assert_eq!(
            outcome.into_complete(),
            oracle,
            "degraded ladder fixpoint differs from the sequential oracle"
        );
    }

    #[test]
    fn ladder_falls_all_the_way_to_the_sequential_engine() {
        let term = term_from_seed(COMMITTED_SEEDS[3]);
        let (oracle, _) = la::analyse_kcfa_shared_direct::<1>(&term);
        let config = ParallelConfig {
            threads: 2,
            epochs: 2,
        };
        // Elastic faults at worker 0's step 0, barrier at its step 1; the
        // sequential rung never consults the plan.
        let guard = FaultPlan::new().panic_at(0, 0).panic_at(0, 1).install();
        let (outcome, _, report) =
            la::analyse_kcfa_shared_ladder::<1>(&term, config, &Budget::unlimited());
        drop(guard);
        assert_eq!(report.rung, LadderRung::SequentialDirect);
        assert_eq!(
            report.faults.iter().map(|(r, _)| *r).collect::<Vec<_>>(),
            vec![LadderRung::Elastic, LadderRung::Barrier]
        );
        assert_eq!(
            outcome.into_complete(),
            oracle,
            "fully-degraded ladder fixpoint differs from the sequential oracle"
        );
    }

    #[test]
    fn single_epoch_ladder_skips_the_elastic_rung() {
        let term = term_from_seed(COMMITTED_SEEDS[4]);
        let (oracle, _) = la::analyse_kcfa_shared_direct::<1>(&term);
        let config = ParallelConfig {
            threads: 2,
            epochs: 1,
        };
        let guard = FaultPlan::new().panic_at(0, 0).install();
        let (outcome, _, report) =
            la::analyse_kcfa_shared_ladder::<1>(&term, config, &Budget::unlimited());
        drop(guard);
        assert_eq!(report.rung, LadderRung::SequentialDirect);
        assert_eq!(
            report.faults.iter().map(|(r, _)| *r).collect::<Vec<_>>(),
            vec![LadderRung::Barrier]
        );
        assert_eq!(outcome.into_complete(), oracle);
    }

    #[test]
    fn injected_delays_perturb_timing_but_not_the_fixpoint() {
        let term = term_from_seed(COMMITTED_SEEDS[5]);
        let (classic, classic_stats) =
            without_faults(|| la::analyse_kcfa_shared_parallel::<1>(&term, 2));
        let guard = FaultPlan::new()
            .delay_at(0, 0, 2)
            .delay_at(1, 1, 2)
            .install();
        let (outcome, stats) =
            la::analyse_kcfa_shared_parallel_governed::<1>(&term, 2, &Budget::unlimited())
                .expect("delays must not fault the pool");
        drop(guard);
        assert_eq!(outcome.into_complete(), classic);
        assert_eq!(
            deterministic_counters(stats),
            deterministic_counters(classic_stats),
            "a delayed worker changed the deterministic work counters"
        );
    }

    #[test]
    fn cps_ladder_survives_the_full_fault_cascade() {
        let term = term_from_seed(COMMITTED_SEEDS[6]);
        let program = mai_cps::cps_convert(&term);
        let (oracle, _) = mai_cps::analysis::analyse_kcfa_shared_direct::<1>(&program);
        let config = ParallelConfig {
            threads: 2,
            epochs: 2,
        };
        let guard = FaultPlan::new().panic_at(0, 0).panic_at(0, 1).install();
        let (outcome, _, report) = mai_cps::analysis::analyse_kcfa_shared_ladder::<1>(
            &program,
            config,
            &Budget::unlimited(),
        );
        drop(guard);
        assert_eq!(report.rung, LadderRung::SequentialDirect);
        assert_eq!(outcome.into_complete(), oracle);
    }
}
