//! Governance of the engines: budgets, cancellation, resumable partials
//! and panic containment.
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
//! 4. **Panic containment** — a step that panics on one chosen state
//!    re-raises its original payload out of every governed pool solve,
//!    after the pool has shut down, and a step that sleeps on chosen
//!    states changes no fixpoint and no barrier work counter.  Every
//!    containment solve runs under a deadline, so a regression fails
//!    instead of hanging.

use std::collections::BTreeSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;
use std::time::Duration;

use mai_core::analyse::{self, Gc};
use mai_core::engine::{
    Budget, CancelToken, DirectCollecting, EngineStats, ExhaustReason, Outcome, ParallelCollecting,
    ParallelConfig, SolveFrom,
};
use mai_core::store::BasicStore;
use mai_core::telemetry::{NoopSink, TraceBuffer};
use mai_core::{KCallAddr, KCallCtx};
use mai_lambda::analysis as la;
use mai_lambda::{PState, Term};

mod common;
use common::{term_from_seed, COMMITTED_SEEDS, PARALLEL_THREADS};

/// The governed 1CFA shared-store CESK solve of `term`: fresh, or resumed
/// from `resume`.
fn governed(
    term: &Term,
    resume: Option<la::KCeskSeed<1>>,
    budget: &Budget,
) -> (Outcome<la::KCeskShared<1>, la::KCeskSeed<1>>, EngineStats) {
    analyse::governed(term, Gc::Off, resume, budget, &mut NoopSink)
}

/// The 1CFA shared-store CESK solve of `term` on a parallel driver.
fn parallel(
    term: &Term,
    config: ParallelConfig,
    budget: &Budget,
) -> (Outcome<la::KCeskShared<1>, la::KCeskSeed<1>>, EngineStats) {
    analyse::parallel(term, Gc::Off, config, budget, &mut NoopSink)
}

/// Zeroes the timing gauges ([`EngineStats::work`]) and
/// `store_bytes_shared` (the bytes a round's fold adopted by reference,
/// which depend on the fold order), which legitimately vary between
/// parallel runs — the same exemptions the differential
/// suite's counter parity grants.  Everything else must match exactly.
fn deterministic_counters(stats: EngineStats) -> EngineStats {
    EngineStats {
        store_bytes_shared: 0,
        ..stats.work()
    }
}

/// A state of the seeds' CESK machine.
type Cesk = PState<KCallAddr>;

/// What one step of the seeds' machine returns.
type Branches = Vec<((Cesk, KCallCtx<1>), la::KCeskStore)>;

/// The seeds' direct step.
fn direct_step(ps: Cesk, g: KCallCtx<1>, s: la::KCeskStore) -> Branches {
    mai_lambda::direct::mnext_direct::<KCallCtx<1>, la::KCeskStore>(ps, g, s)
}

/// Three states of a fixpoint — its least, middle and greatest — for a
/// step to single out.
fn chosen_states(fixpoint: &la::KCeskShared<1>) -> BTreeSet<Cesk> {
    let states: Vec<&Cesk> = fixpoint.states().iter().map(|(ps, _)| ps).collect();
    [0, states.len() / 2, states.len() - 1]
        .into_iter()
        .map(|i| states[i].clone())
        .collect()
}

/// The direct step, sleeping 2 ms before it steps any `chosen` state: a
/// slow worker that computes exactly what the direct step computes.
fn sleepy_step(
    chosen: BTreeSet<Cesk>,
) -> impl Fn(Cesk, KCallCtx<1>, la::KCeskStore) -> Branches + Sync {
    move |ps, g, s| {
        if chosen.contains(&ps) {
            std::thread::sleep(Duration::from_millis(2));
        }
        direct_step(ps, g, s)
    }
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
        let (direct, direct_stats) = la::KCeskShared::<1>::explore_frontier_direct(
            &direct_step,
            PState::inject(term.clone()),
        );
        let (outcome, stats) = governed(&term, None, &Budget::unlimited());
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
        type CpsDomain = mai_cps::analysis::KCfaShared<1>;
        let (c_direct, c_direct_stats) = CpsDomain::explore_frontier_direct(
            &mai_cps::mnext_direct::<KCallCtx<1>, mai_cps::analysis::KStore>,
            mai_cps::PState::inject(program.clone()),
        );
        let (c_outcome, c_stats) = analyse::governed::<CpsDomain, _>(
            &program,
            Gc::Off,
            None,
            &Budget::unlimited(),
            &mut NoopSink,
        );
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
            let (classic, classic_stats) = la::KCeskShared::<1>::explore_frontier_parallel(
                &direct_step,
                PState::inject(term.clone()),
                ParallelConfig::barrier(threads),
            );
            let governed = parallel(
                &term,
                ParallelConfig::barrier(threads),
                &Budget::unlimited(),
            );
            // One more input: the same solve with a worker that sleeps on
            // a few states.  Slowing a worker changes only the schedule.
            let sleepy = la::KCeskShared::<1>::explore_frontier_parallel_governed(
                &sleepy_step(chosen_states(&classic)),
                SolveFrom::Fresh(PState::inject(term.clone())),
                ParallelConfig::barrier(threads),
                &Budget::unlimited(),
            );
            for (step, (outcome, stats)) in [("direct", governed), ("sleepy", sleepy)] {
                assert_eq!(
                    outcome.into_complete(),
                    classic,
                    "governed-off {step} parallel fixpoint differs on seed {seed:#x} at {threads} threads"
                );
                assert_eq!(
                    deterministic_counters(stats),
                    deterministic_counters(classic_stats),
                    "governed-off {step} parallel work counters differ on seed {seed:#x} at {threads} threads"
                );
            }
        }
    }
}

#[test]
fn unlimited_budget_matches_the_classic_elastic_driver_fixpoint() {
    // Elastic work counters are timing-dependent by design (see the
    // differential suite), so only fixpoint identity is demanded here.
    for seed in COMMITTED_SEEDS {
        let term = term_from_seed(seed);
        let (direct, _) = analyse::direct::<la::KCeskShared<1>>(&term, Gc::Off);
        let config = ParallelConfig {
            threads: 2,
            epochs: 4,
        };
        let governed = parallel(&term, config, &Budget::unlimited());
        let sleepy = la::KCeskShared::<1>::explore_frontier_parallel_governed(
            &sleepy_step(chosen_states(&direct)),
            SolveFrom::Fresh(PState::inject(term.clone())),
            config,
            &Budget::unlimited(),
        );
        for (step, (outcome, _)) in [("direct", governed), ("sleepy", sleepy)] {
            assert_eq!(
                outcome.into_complete(),
                direct,
                "governed-off {step} elastic fixpoint differs on seed {seed:#x}"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Resume soundness
// ---------------------------------------------------------------------------

/// Chains resumed [`governed`] solves of `term` under `budget` until
/// completion, starting from an already-obtained outcome.
fn drain_resume_chain(
    term: &Term,
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
                outcome = governed(term, Some(*resume_seed), budget).0;
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
        let (oracle, _) = analyse::direct::<la::KCeskShared<1>>(&term, Gc::Off);
        let ctx = format!("seed {seed:#x}");

        // One tight round, then a single unlimited resume.
        let (first, _) = governed(&term, None, &tight);
        match first {
            Outcome::Complete(value) => assert_eq!(value, oracle, "{ctx}: one-round completion"),
            Outcome::Exhausted { resume_seed, .. } => {
                let (resumed, _) = governed(&term, Some(*resume_seed), &Budget::unlimited());
                assert_eq!(
                    resumed.into_complete(),
                    oracle,
                    "{ctx}: unlimited resume diverged from the one-shot fixpoint"
                );
            }
        }

        // The worst case: every link of the chain is one round.
        let (chained, _) = governed(&term, None, &tight);
        let fixpoint = drain_resume_chain(&term, chained, &tight, &ctx);
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
        let (oracle, _) = analyse::direct::<la::KCeskShared<1>>(&term, Gc::Off);
        for threads in PARALLEL_THREADS {
            let ctx = format!("seed {seed:#x} at {threads} threads");
            let (outcome, _) = parallel(&term, ParallelConfig::barrier(threads), &tight);
            match outcome {
                Outcome::Complete(value) => {
                    assert_eq!(value, oracle, "{ctx}: one-round completion")
                }
                Outcome::Exhausted { resume_seed, .. } => {
                    // The seed is driver-agnostic: resume sequentially …
                    let (seq, _) =
                        governed(&term, Some((*resume_seed).clone()), &Budget::unlimited());
                    assert_eq!(
                        seq.into_complete(),
                        oracle,
                        "{ctx}: sequential resume of a parallel partial"
                    );
                    // … and on the parallel driver it came from.
                    let (par, _) = la::KCeskShared::<1>::explore_frontier_parallel_governed(
                        &mai_lambda::direct::mnext_direct::<KCallCtx<1>, la::KCeskStore>,
                        SolveFrom::Resume(*resume_seed),
                        ParallelConfig::barrier(threads),
                        &Budget::unlimited(),
                    );
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

    // A concrete step costs the same at step 200,000 as at step 1: an
    // allocation must not copy the heap.  Each long run spends its whole
    // budget (its allocations scale with the short run's) within the
    // deadline.
    let lambda_allocations = |steps: usize| {
        within_deadline("the λ Ω run", move || {
            let budget = Budget::unlimited().with_max_steps(steps);
            match mai_lambda::concrete::evaluate_governed(&omega(), &budget) {
                mai_lambda::concrete::Outcome::OutOfFuel { heap, .. } => heap.allocation_count(),
                other => panic!("Ω halted: {other:?}"),
            }
        })
    };
    let cps_allocations = |steps: usize| {
        within_deadline("the CPS Ω run", move || {
            let budget = Budget::unlimited().with_max_steps(steps);
            let program = mai_cps::cps_convert(&omega());
            match mai_cps::concrete::interpret_governed(&program, &budget) {
                mai_cps::concrete::Outcome::OutOfFuel { heap, .. } => heap.allocation_count(),
                other => panic!("CPS Ω halted: {other:?}"),
            }
        })
    };
    for (language, allocations) in [
        ("λ", &lambda_allocations as &dyn Fn(usize) -> u64),
        ("CPS", &cps_allocations),
    ] {
        let (short, long) = (allocations(20_000), allocations(200_000));
        assert!(short > 0, "{language}: Ω allocated nothing");
        assert!(
            long.abs_diff(10 * short) <= 10,
            "{language}: {long} allocations in 200,000 steps against {short} in 20,000"
        );
    }
    let halted = within_deadline("FJ nested_cells(4000)", || {
        let program = mai_fj::programs::nested_cells(4000);
        mai_fj::concrete::run_governed(&program, &Budget::unlimited()).halted()
    });
    assert!(halted, "FJ nested_cells(4000) did not halt");
}

/// Runs `run` on its own thread and fails unless it returns within 60 s.
fn within_deadline<R: Send + 'static>(what: &str, run: impl FnOnce() -> R + Send + 'static) -> R {
    use std::sync::mpsc::{channel, RecvTimeoutError};
    let (done, result) = channel();
    std::thread::spawn(move || {
        let _ = done.send(run());
    });
    match result.recv_timeout(std::time::Duration::from_secs(60)) {
        Ok(value) => value,
        Err(RecvTimeoutError::Timeout) => panic!("{what} did not finish within 60 s"),
        Err(RecvTimeoutError::Disconnected) => panic!("{what} panicked"),
    }
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
            .any(|e| e.reason == ExhaustReason::Cancelled),
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
    let (outcome, _stats) = ChainDom::explore_frontier_parallel_governed_traced(
        &step,
        SolveFrom::Fresh(Chain(0)),
        config,
        &budget,
        &mut sink,
    );
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
    let (outcome, _) = ChainDom::explore_frontier_parallel_governed(
        &step,
        SolveFrom::Fresh(Chain(0)),
        config,
        &Budget::unlimited().with_max_rounds(1),
    );
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
// Panic containment
// ---------------------------------------------------------------------------

/// The payload the containment test's step panics with.
const CHOSEN_PANIC: &str = "the step reached the chosen state";

/// The first state the sequential engine steps in its widest round, if
/// that round steps two states or more: a round the barrier phase steps on
/// its workers rather than inline.
fn state_in_a_wide_round(term: &Term) -> Option<Cesk> {
    let order = Mutex::new(Vec::new());
    let recording = |ps: Cesk, g: KCallCtx<1>, s: la::KCeskStore| {
        order.lock().unwrap().push(ps.clone());
        direct_step(ps, g, s)
    };
    let mut trace = TraceBuffer::new();
    la::KCeskShared::<1>::explore_frontier_direct_traced(
        &recording,
        PState::inject(term.clone()),
        &mut trace,
    );
    let widest = trace
        .rounds
        .iter()
        .max_by_key(|r| r.stepped)
        .expect("a solve has rounds");
    if widest.stepped < 2 {
        return None;
    }
    let before: usize = trace.rounds[..widest.round - 1]
        .iter()
        .map(|r| r.stepped)
        .sum();
    Some(order.into_inner().unwrap().swap_remove(before))
}

#[test]
fn a_panicking_step_reraises_its_payload_out_of_every_pool() {
    let (term, chosen) = COMMITTED_SEEDS
        .into_iter()
        .map(term_from_seed)
        .find_map(|term| Some((term.clone(), state_in_a_wide_round(&term)?)))
        .expect("a committed seed has a round that steps two states");
    let configs = [
        ParallelConfig::barrier(2),
        ParallelConfig::barrier(4),
        ParallelConfig::elastic(2, 2),
        ParallelConfig::elastic(4, 4),
    ];
    for config in configs {
        let (term, chosen) = (term.clone(), chosen.clone());
        let what = format!("the panicking {config:?} solve");
        let message = within_deadline(&what, move || {
            let step = move |ps: Cesk, g: KCallCtx<1>, s: la::KCeskStore| {
                if ps == chosen {
                    std::panic::panic_any(CHOSEN_PANIC);
                }
                direct_step(ps, g, s)
            };
            let caught = catch_unwind(AssertUnwindSafe(|| {
                la::KCeskShared::<1>::explore_frontier_parallel_governed(
                    &step,
                    SolveFrom::Fresh(PState::inject(term)),
                    config,
                    &Budget::unlimited(),
                )
            }));
            let payload = caught.err()?;
            payload.downcast_ref::<&str>().map(|m| m.to_string())
        });
        assert_eq!(
            message.as_deref(),
            Some(CHOSEN_PANIC),
            "{config:?}: the original payload must propagate"
        );
    }
}
