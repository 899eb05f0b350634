//! Randomized differential testing of the analysis engines and carriers.
//!
//! A proptest generator produces small (possibly open, possibly diverging)
//! λ-terms; each term is analysed as a CESK machine (`mai-lambda`) and,
//! through the CPS transform, as a CPS machine (`mai-cps`), across the
//! configuration matrix context ∈ {0CFA (mono), k-CFA k=0, k-CFA k=1} ×
//! store ∈ {basic, counting} × {plain, abstract GC}, and each
//! configuration is solved by every engine and carrier in the tree:
//!
//! * naive Kleene iteration (`analyse::kleene` — the paper's literal
//!   algorithm, the ground truth),
//! * the structural-key incremental engine (`analyse::structural`),
//! * the id-indexed engine on the `Rc`-closure carrier
//!   (`analyse::worklist`),
//! * the id-indexed engine on the direct-style carrier
//!   (`analyse::direct`),
//! * the sharded parallel driver (`analyse::parallel`), run at 1, 2 and
//!   4 worker threads.
//!
//! All four sequential solvers must produce bit-identical fixpoints, and
//! the parallel driver must additionally reproduce the sequential direct
//! engine's *deterministic work counters* (steps, joins, rounds,
//! widenings, re-enqueues, intern traffic) at every thread count — only
//! its timing gauges (`steal_events`, `shard_imbalance`) and the
//! fold-order-dependent `store_bytes_shared` adoption count may vary.  Two
//! drivers run the suite: a `proptest!` block (deterministic fixed-seed
//! stub; case count pinned in CI via `PROPTEST_CASES`) covering the 1CFA
//! shared-store configuration on every case, and an explicit list of
//! **committed seeds** (below) that replays the *full* matrix reproducibly — change a
//! seed and the whole derived program corpus changes, so the list is part
//! of the reviewable surface.

use std::collections::BTreeSet;

use mai_core::analyse::{self, Gc};
use mai_core::engine::{Budget, ParallelConfig};
use mai_core::store::BasicStore;
use mai_core::{KCallAddr, KCallCtx, NoopSink};
use mai_cps::Val;
use mai_lambda::syntax::TermBuilder;
use mai_lambda::{Storable, Term};
use proptest::prelude::*;

// The committed seeds, the deterministic λ-term generator and the engine
// parity check live in `tests/common` so the governance and worklist
// suites replay the same corpus and the same checks.
#[macro_use]
mod common;
use common::{
    assert_parallel_counters, shape_strategy, term_from_seed, to_term, CeskDomain, CpsDomain,
    COMMITTED_SEEDS, PARALLEL_THREADS,
};

/// The full configuration matrix for one generated term, both languages:
/// {mono, k-CFA k=0, k-CFA k=1} × {basic, counting} × {plain, GC} × every
/// engine of [`common::engine_parity`].
fn full_matrix(term: &Term) {
    parity_matrix!("CESK", term, CeskDomain, Storable);
    // CPS side, through the CPS transform.
    parity_matrix!("CPS", &mai_cps::cps_convert(term), CpsDomain, Val);
}

#[test]
fn committed_seeds_replay_the_full_matrix() {
    for seed in COMMITTED_SEEDS {
        let term = term_from_seed(seed);
        full_matrix(&term);
    }
}

/// The epoch budgets every elastic differential run is replayed at:
/// the barrier-delegation point, the smallest genuinely-elastic budget,
/// and a deep budget that lets sub-frontiers run well ahead of the merge.
const ELASTIC_EPOCHS: [usize; 3] = [1, 2, 8];

/// The barrier-elastic driver against the sequential direct oracle over
/// the committed corpus: λ and CPS, plain and GC'd, 1CFA shared store, at
/// every `threads × epochs` point of the committed grid.  Only **fixpoint
/// equality** is asserted — elastic work counters are timing-dependent by
/// design (a worker may legitimately re-step a state it saw stale), so
/// unlike [`assert_parallel_counters`] no step/join parity is demanded.
#[test]
fn elastic_matches_direct_across_committed_seeds() {
    type LDom = CeskDomain<KCallCtx<1>, BasicStore<KCallAddr, Storable<KCallAddr>>>;
    type CDom = CpsDomain<KCallCtx<1>, BasicStore<KCallAddr, Val<KCallAddr>>>;

    for seed in COMMITTED_SEEDS {
        let term = term_from_seed(seed);
        let program = mai_cps::cps_convert(&term);
        for gc in [Gc::Off, Gc::On] {
            let (l_direct, _) = analyse::direct::<LDom>(&term, gc);
            let (c_direct, _) = analyse::direct::<CDom>(&program, gc);
            for threads in PARALLEL_THREADS {
                for epochs in ELASTIC_EPOCHS {
                    let config = ParallelConfig { threads, epochs };
                    let ctx =
                        format!("seed {seed:#x}, GC {gc:?} at {threads} threads, {epochs} epochs");
                    let (l, _) = analyse::parallel::<LDom, _>(
                        &term,
                        gc,
                        config,
                        &Budget::unlimited(),
                        &mut NoopSink,
                    );
                    assert_eq!(
                        l.into_complete(),
                        l_direct,
                        "CESK elastic != direct for {ctx}"
                    );
                    let (c, _) = analyse::parallel::<CDom, _>(
                        &program,
                        gc,
                        config,
                        &Budget::unlimited(),
                        &mut NoopSink,
                    );
                    assert_eq!(
                        c.into_complete(),
                        c_direct,
                        "CPS elastic != direct for {ctx}"
                    );
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The crafted two-shard staleness workload
// ---------------------------------------------------------------------------

/// A heap value for the staleness machine: a tag the reader's branching
/// depends on.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
struct Cell(u8);

impl mai_core::gc::Touches<u8> for Cell {
    fn touches(&self) -> BTreeSet<u8> {
        BTreeSet::new()
    }
}

/// A state of the two-shard staleness machine (see [`staleness_step`]).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
struct TwoShard(u32);

impl mai_core::StateRoots for TwoShard {
    type Addr = u8;

    fn state_roots(&self) -> BTreeSet<u8> {
        if self.0 == 11 {
            [0u8].into_iter().collect()
        } else {
            BTreeSet::new()
        }
    }
}

type StaleStore = BasicStore<u8, Cell>;

/// The two-shard staleness workload: the initial state forks a **writer
/// chain** (`1 → 2 → 3 ⟨binds addr 0 := Cell(9)⟩ → 4`) and a **reader
/// chain** (`10 → 11 ⟨reads addr 0⟩ → …`).  Under the elastic driver with
/// `epochs ≥ 2` and ≥ 2 workers the chains advance in separate
/// sub-frontiers, so the reader's epoch-2 step of state 11 can run before
/// the writer's shard has published its delta — the read is **stale** and
/// the value-dependent successor `20 + 9` is missed.  The merge then
/// reports address 0 as changed, the reverse dependency index re-seeds
/// state 11 into the next frontier, and the re-step against the merged
/// store produces exactly the successors the direct engine saw — which is
/// the staleness argument this test pins: the fixpoint is identical no
/// matter how late any shard's delta was published.
fn staleness_step(ps: TwoShard, g: u64, s: StaleStore) -> Vec<((TwoShard, u64), StaleStore)> {
    use mai_core::store::StoreLike;
    match ps.0 {
        0 => vec![((TwoShard(1), g), s.clone()), ((TwoShard(10), g), s)],
        3 => {
            let bound = s.bind(0u8, [Cell(9)].into_iter().collect());
            vec![((TwoShard(4), g), bound)]
        }
        11 => {
            let mut branches = vec![((TwoShard(12), g), s.clone())];
            for Cell(v) in s.fetch(&0u8) {
                branches.push(((TwoShard(20 + v as u32), g), s.clone()));
            }
            branches
        }
        n if n == 4 || n == 12 || n >= 20 => vec![((ps, g), s)],
        n => vec![((TwoShard(n + 1), g), s)],
    }
}

#[test]
fn stale_shard_delta_reconverges_through_the_dependency_index() {
    use mai_core::engine::{DirectCollecting, ParallelCollecting, ParallelConfig};
    type Dom = mai_core::SharedStoreDomain<TwoShard, u64, StaleStore>;

    let (direct, _) = <Dom as DirectCollecting<TwoShard, u64, StaleStore>>::explore_frontier_direct(
        &staleness_step,
        TwoShard(0),
    );
    // The reader really does consume the writer's delta: the
    // value-dependent successor is in the oracle fixpoint.
    assert!(
        direct.states().iter().any(|(ps, _)| *ps == TwoShard(29)),
        "oracle never saw the heap-dependent successor — workload is vacuous"
    );
    for threads in PARALLEL_THREADS {
        for epochs in ELASTIC_EPOCHS {
            let (elastic, stats) =
                <Dom as ParallelCollecting<TwoShard, u64, StaleStore>>::explore_frontier_parallel(
                    &staleness_step,
                    TwoShard(0),
                    ParallelConfig { threads, epochs },
                );
            assert_eq!(
                elastic, direct,
                "stale delta not re-converged at {threads} threads, {epochs} epochs"
            );
            assert_eq!(stats.sync_rounds, stats.iterations);
        }
    }
}

// ---------------------------------------------------------------------------
// The committed interval counting-loop workloads (infinite-height domain)
// ---------------------------------------------------------------------------

/// A program point of the interval counting loop (see [`counting_step`]).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
struct CountSt(u8);

impl mai_core::StateRoots for CountSt {
    type Addr = u8;

    fn state_roots(&self) -> BTreeSet<u8> {
        // Only the loop head reads the counter cell, so only it re-enters
        // the frontier when the cell grows — the re-enqueue channel the
        // engines' widening-point selection watches.
        if self.0 == 1 {
            [0u8].into_iter().collect()
        } else {
            BTreeSet::new()
        }
    }
}

type IStore = mai_core::store::IntervalStore<u8>;
type IDom = mai_core::SharedStoreDomain<CountSt, u64, IStore>;

/// The counting-loop workload over the infinite-height interval domain:
/// `0 ⟨x := 0⟩ → 1 ⟨loop head: exit | x := (x ⊓ guard) + 1; goto 1⟩ → 2`.
/// Under plain join the loop-head contribution grows `x` by one every
/// round — the latent non-termination the engines' widening machinery
/// exists for.  `cap = None` counts without bound; `cap = Some(c)` guards
/// the increment with `x < c`, which the narrowing post-pass can recover
/// after the widened ascent overshoots to `+∞`.
fn counting_step(
    cap: Option<i64>,
) -> impl Fn(CountSt, u64, IStore) -> Vec<((CountSt, u64), IStore)> + Sync {
    use mai_core::lattice::{Interval, Lattice, MeetLattice};
    use mai_core::store::StoreLike;
    move |ps, g, s| match ps.0 {
        0 => vec![((CountSt(1), g), s.bind(0u8, Interval::singleton(0)))],
        1 => {
            let x = s.fetch(&0u8);
            let body = match cap {
                Some(c) => x.meet(Interval::at_most(c - 1)),
                None => x,
            };
            let mut branches = vec![((CountSt(2), g), s.clone())];
            if !body.is_bottom() {
                let incremented = body + Interval::singleton(1);
                branches.push(((CountSt(1), g), s.replace(0u8, incremented)));
            }
            branches
        }
        _ => vec![((ps, g), s)],
    }
}

/// The same loop on the `Rc`-closure carrier (`StorePassing`), desugared
/// by `run_store_passing` exactly as the language crates' `mnext` is —
/// the carrier-duality half of the interval workload.
fn m_counting_step(
    cap: Option<i64>,
) -> impl Fn(
    CountSt,
) -> <mai_core::monad::StorePassing<u64, IStore> as mai_core::monad::MonadFamily>::M<CountSt> {
    use mai_core::lattice::{Interval, Lattice, MeetLattice};
    use mai_core::monad::{
        MonadFamily, MonadPlus, MonadState, MonadTrans, StateT, StorePassing, VecM,
    };
    use mai_core::store::StoreLike;
    type M = StorePassing<u64, IStore>;
    move |ps| match ps.0 {
        0 => {
            let write =
                <M as MonadTrans>::lift(<StateT<IStore, VecM> as MonadState<IStore>>::modify(
                    move |s: IStore| s.bind(0u8, Interval::singleton(0)),
                ));
            M::bind(write, |_| M::pure(CountSt(1)))
        }
        1 => {
            let fetched = <M as MonadTrans>::lift(
                <StateT<IStore, VecM> as MonadState<IStore>>::gets(|s: &IStore| s.fetch(&0u8)),
            );
            M::bind(fetched, move |x: Interval| {
                let body = match cap {
                    Some(c) => x.meet(Interval::at_most(c - 1)),
                    None => x,
                };
                let exit = M::pure(CountSt(2));
                if body.is_bottom() {
                    exit
                } else {
                    let incremented = body + Interval::singleton(1);
                    let write = <M as MonadTrans>::lift(<StateT<IStore, VecM> as MonadState<
                        IStore,
                    >>::modify(
                        move |s: IStore| s.replace(0u8, incremented),
                    ));
                    M::mplus(exit, M::bind(write, |_| M::pure(CountSt(1))))
                }
            })
        }
        _ => M::pure(ps),
    }
}

#[test]
fn interval_counting_loop_diverges_without_widening_and_converges_with_it() {
    use mai_core::engine::{Budget, ParallelConfig, WidenPolicy};
    use mai_core::lattice::Interval;
    use mai_core::monad::run_store_passing;
    use mai_core::store::StoreLike;
    use mai_core::{DirectCollecting, ExhaustReason, Outcome, ParallelCollecting, SolveFrom};

    for (cap, expected) in [
        (None, Interval::at_least(0)),
        (Some(10), Interval::range(0, 10)),
    ] {
        let step = counting_step(cap);
        let label = match cap {
            None => "uncapped",
            Some(_) => "capped",
        };

        // Without widening the uncapped ascent never stabilises: a step
        // budget is the only thing that stops it, and it must report
        // cleanly as budget exhaustion (an under-approximation), not
        // convergence.  The capped loop has finite height, so join-only
        // iteration legitimately completes — and pins the precision the
        // narrowing pass must recover after widening overshoots.
        let fuel = Budget::unlimited().with_max_steps(64);
        let (join_only, _) =
            <IDom as DirectCollecting<CountSt, u64, IStore>>::explore_frontier_governed(
                &step,
                SolveFrom::Fresh(CountSt(0)),
                &fuel,
            );
        match cap {
            None => assert_eq!(
                join_only.exhaust_reason(),
                Some(ExhaustReason::StepBudget),
                "{label}: join-only iteration must starve the step budget"
            ),
            Some(_) => {
                let Outcome::Complete(finite) = join_only else {
                    panic!("{label}: join-only iteration of a finite chain must converge")
                };
                assert_eq!(
                    finite.store().fetch(&0u8),
                    expected,
                    "{label}: join-only counter bound"
                );
            }
        }

        // With widening the same solve completes, and the outcome shape
        // keeps widening-forced convergence distinguishable from budget
        // exhaustion.
        let widened = Budget::unlimited().with_widening(WidenPolicy::after_growths(3));
        let (outcome, seq_stats) =
            <IDom as DirectCollecting<CountSt, u64, IStore>>::explore_frontier_governed(
                &step,
                SolveFrom::Fresh(CountSt(0)),
                &widened,
            );
        let Outcome::Complete(sequential) = outcome else {
            panic!("{label}: widened direct solve must converge");
        };
        assert_eq!(
            sequential.store().fetch(&0u8),
            expected,
            "{label}: widened (then narrowed) counter bound"
        );
        assert!(seq_stats.widen_applied > 0, "{label}: widening never fired");

        // Carrier duality: the Rc-closure step desugars to the identical
        // solve — fixpoint and every work counter byte-for-byte.
        let m_step = m_counting_step(cap);
        let rc_step = move |ps: CountSt, g: u64, s: IStore| run_store_passing(m_step(ps), g, s);
        let (rc_outcome, rc_stats) =
            <IDom as DirectCollecting<CountSt, u64, IStore>>::explore_frontier_governed(
                &rc_step,
                SolveFrom::Fresh(CountSt(0)),
                &widened,
            );
        let Outcome::Complete(rc) = rc_outcome else {
            panic!("{label}: widened Rc-carrier solve must converge");
        };
        assert_eq!(rc, sequential, "{label}: Rc carrier != direct carrier");
        assert_eq!(rc_stats, seq_stats, "{label}: Rc carrier work counters");

        // The barrier-parallel driver widens at the coordinator only, so
        // the fixpoint *and* the deterministic counters reproduce the
        // sequential direct engine at every thread count.
        for threads in PARALLEL_THREADS {
            let (outcome, par_stats) =
                <IDom as ParallelCollecting<CountSt, u64, IStore>>::explore_frontier_parallel_governed(
                    &step,
                    SolveFrom::Fresh(CountSt(0)),
                    ParallelConfig::barrier(threads),
                    &widened,
                );
            let Outcome::Complete(parallel) = outcome else {
                panic!("{label}: widened parallel solve must converge at {threads} threads");
            };
            assert_eq!(
                parallel, sequential,
                "{label}: parallel != direct at {threads} threads"
            );
            assert_parallel_counters(
                &format!("interval {label}"),
                threads,
                &seq_stats,
                &par_stats,
            );

            // The elastic driver re-steps states it saw stale, so its
            // widening counters are timing-dependent by design — only the
            // fixpoint is pinned, at every (threads, epochs) grid point.
            for epochs in ELASTIC_EPOCHS {
                let (outcome, _) =
                    <IDom as ParallelCollecting<CountSt, u64, IStore>>::explore_frontier_parallel_governed(
                        &step,
                        SolveFrom::Fresh(CountSt(0)),
                        ParallelConfig { threads, epochs },
                        &widened,
                    );
                let Outcome::Complete(elastic) = outcome else {
                    panic!(
                        "{label}: widened elastic solve must converge at {threads} threads, {epochs} epochs"
                    );
                };
                assert_eq!(
                    elastic, sequential,
                    "{label}: elastic != direct at {threads} threads, {epochs} epochs"
                );
            }
        }

        // Soundness against the whole-domain widened Kleene oracle: the
        // engines' per-address widening points are at least as precise,
        // never unsound.
        let oracle: IDom = mai_core::collect::explore_fp_widened::<
            mai_core::monad::StorePassing<u64, IStore>,
            CountSt,
            IDom,
            _,
        >(m_counting_step(cap), CountSt(0), 3, 2);
        assert!(
            mai_core::Lattice::leq(&sequential, &oracle),
            "{label}: engine fixpoint is not below the widened Kleene oracle"
        );
    }
}

#[test]
fn committed_seeds_derive_a_stable_corpus() {
    // The corpus is part of the reviewable surface: if the generator or a
    // seed changes, this digest moves and the diff shows it.
    let rendered: Vec<String> = COMMITTED_SEEDS
        .iter()
        .map(|seed| term_from_seed(*seed).to_string())
        .collect();
    // At least one generated program must actually exercise application
    // (the matrix on a corpus of bare variables would be vacuous).
    assert!(rendered.iter().any(|t| t.contains('(')));
    let digest = mai_core::fx_hash_of(&rendered);
    assert_eq!(
        digest, 0x576f_8cb3_103b_c135,
        "committed differential corpus changed: {rendered:#?}"
    );
}

/// `Term` with the derived order: the reference `Term::cmp` must agree
/// with, compared by value all the way down (no pointer shortcut).
#[derive(PartialEq, Eq, PartialOrd, Ord)]
enum Mirror {
    Var(mai_core::Name),
    Lam(mai_core::Name, Box<Mirror>),
    App(mai_core::Label, Box<Mirror>, Box<Mirror>),
    Let(mai_core::Label, mai_core::Name, Box<Mirror>, Box<Mirror>),
}

fn mirror(term: &Term) -> Mirror {
    match term {
        Term::Var(v) => Mirror::Var(v.clone()),
        Term::Lam { param, body, .. } => Mirror::Lam(param.clone(), Box::new(mirror(body))),
        Term::App {
            label, func, arg, ..
        } => Mirror::App(*label, Box::new(mirror(func)), Box::new(mirror(arg))),
        Term::Let {
            label,
            name,
            rhs,
            body,
            ..
        } => Mirror::Let(
            *label,
            name.clone(),
            Box::new(mirror(rhs)),
            Box::new(mirror(body)),
        ),
    }
}

/// Every subterm of `term`, each a clone that shares its children with it.
fn subterms(term: &Term, out: &mut Vec<Term>) {
    out.push(term.clone());
    match term {
        Term::Var(_) => {}
        Term::Lam { body, .. } => subterms(body, out),
        Term::App { func, arg, .. } => {
            subterms(func, out);
            subterms(arg, out);
        }
        Term::Let { rhs, body, .. } => {
            subterms(rhs, out);
            subterms(body, out);
        }
    }
}

proptest! {
    /// Any two random terms and their subterms are ordered as the derived
    /// order orders them, and equal ones hash alike.  The first term is
    /// built twice: subterms of one build share children (the pointer
    /// shortcut decides), the two builds share none (the walk decides).
    #[test]
    fn prop_term_order_is_the_derived_order(
        pair in (shape_strategy(), shape_strategy())
    ) {
        let mut terms = Vec::new();
        for shape in [&pair.0, &pair.1, &pair.0] {
            subterms(&to_term(shape, &mut TermBuilder::new()), &mut terms);
        }
        let mirrors: Vec<Mirror> = terms.iter().map(mirror).collect();
        for (a, ma) in terms.iter().zip(&mirrors) {
            for (b, mb) in terms.iter().zip(&mirrors) {
                prop_assert_eq!(a.cmp(b), ma.cmp(mb), "{} vs {}", a, b);
                prop_assert_eq!(a.cmp(b) == std::cmp::Ordering::Equal, a == b);
                if a == b {
                    prop_assert_eq!(mai_core::fx_hash_of(a), mai_core::fx_hash_of(b));
                }
            }
        }
    }

    /// Every subterm of a random term reads from its cache the free
    /// variables a walk finds.
    #[test]
    fn prop_cached_free_variables_equal_the_walk(shape in shape_strategy()) {
        let mut terms = Vec::new();
        subterms(&to_term(&shape, &mut TermBuilder::new()), &mut terms);
        for term in &terms {
            let cached: std::collections::BTreeSet<_> = term.cached_free_vars().cloned().collect();
            prop_assert_eq!(cached, term.free_vars(), "{}", term);
        }
    }

    /// Every random term: the 1CFA shared-store configuration (the one the
    /// benchmarks run) across every engine, both languages, with and
    /// without GC.
    #[test]
    fn prop_engines_agree_on_random_terms(shape in shape_strategy()) {
        let term = to_term(&shape, &mut TermBuilder::new());
        common::engine_parity::<CeskDomain<KCallCtx<1>, BasicStore<KCallAddr, Storable<KCallAddr>>>>(
            "CESK 1cfa/basic",
            &term,
        );
        let program = mai_cps::cps_convert(&term);
        common::engine_parity::<CpsDomain<KCallCtx<1>, BasicStore<KCallAddr, Val<KCallAddr>>>>(
            "CPS 1cfa/basic",
            &program,
        );
    }
}
