//! Randomized differential testing of the analysis engines and carriers.
//!
//! A proptest generator produces small (possibly open, possibly diverging)
//! λ-terms; each term is analysed as a CESK machine (`mai-lambda`) and,
//! through the CPS transform, as a CPS machine (`mai-cps`), across the
//! configuration matrix context ∈ {0CFA (mono), k-CFA k=0, k-CFA k=1} ×
//! store ∈ {basic, counting} × {plain, abstract GC}, and each
//! configuration is solved by every engine and carrier in the tree:
//!
//! * naive Kleene iteration (`analyse*` — the paper's literal algorithm,
//!   the ground truth),
//! * the PR-2 structural-key incremental engine (`analyse_*_structural`),
//! * the PR-3 id-indexed engine on the `Rc`-closure carrier
//!   (`analyse_*_worklist`),
//! * the id-indexed engine on the direct-style carrier
//!   (`analyse_*_direct`),
//! * the sharded parallel driver (`analyse_*_parallel`), run at 1, 2 and
//!   4 worker threads.
//!
//! All four sequential solvers must produce bit-identical fixpoints, and
//! the parallel driver must additionally reproduce the sequential direct
//! engine's *deterministic work counters* (steps, joins, rounds,
//! widenings, re-enqueues, intern traffic) at every thread count — only
//! its timing gauges (`steal_events`, `shard_imbalance`) and the
//! fold-order-dependent `store_bytes_shared` sample may vary.  Two drivers run the
//! suite: a `proptest!` block (deterministic fixed-seed stub; case count
//! pinned in CI via `PROPTEST_CASES`) covering the 1CFA shared-store
//! configuration on every case, and an explicit list of **committed
//! seeds** (below) that replays the *full* matrix reproducibly — change a
//! seed and the whole derived program corpus changes, so the list is part
//! of the reviewable surface.

use std::collections::BTreeSet;

use mai_core::engine::EngineStats;
use mai_core::store::{BasicStore, CountingStore};
use mai_core::{KCallAddr, KCallCtx, MonoAddr, MonoCtx};
use mai_lambda::syntax::TermBuilder;
use mai_lambda::Term;
use proptest::prelude::*;

// The committed seeds and the deterministic λ-term generator live in
// `tests/common` so the governance suite replays the same corpus.
mod common;
use common::{shape_strategy, term_from_seed, to_term, COMMITTED_SEEDS, PARALLEL_THREADS};

// ---------------------------------------------------------------------------
// The per-configuration engine pentagon
// ---------------------------------------------------------------------------

/// Asserts that a parallel run reproduced the sequential direct engine's
/// deterministic work counters (the timing gauges `steal_events` /
/// `shard_imbalance` and the fold-order-dependent `store_bytes_shared`
/// sample are exempt by design; `sync_rounds` must equal the parallel
/// run's own round count).
fn assert_parallel_counters(label: &str, threads: usize, seq: &EngineStats, par: &EngineStats) {
    let ctx = format!("{label} at {threads} threads");
    assert_eq!(par.iterations, seq.iterations, "{ctx}: iterations");
    assert_eq!(
        par.states_stepped, seq.states_stepped,
        "{ctx}: states_stepped"
    );
    assert_eq!(par.cache_hits, seq.cache_hits, "{ctx}: cache_hits");
    assert_eq!(par.reenqueued, seq.reenqueued, "{ctx}: reenqueued");
    assert_eq!(
        par.store_joins_applied, seq.store_joins_applied,
        "{ctx}: store_joins_applied"
    );
    assert_eq!(par.widen_applied, seq.widen_applied, "{ctx}: widen_applied");
    assert_eq!(par.store_joins, seq.store_joins, "{ctx}: store_joins");
    assert_eq!(
        par.rebuild_rounds, seq.rebuild_rounds,
        "{ctx}: rebuild_rounds"
    );
    assert_eq!(par.peak_frontier, seq.peak_frontier, "{ctx}: peak_frontier");
    assert_eq!(par.intern_hits, seq.intern_hits, "{ctx}: intern_hits");
    assert_eq!(par.intern_misses, seq.intern_misses, "{ctx}: intern_misses");
    assert_eq!(
        par.distinct_states, seq.distinct_states,
        "{ctx}: distinct_states"
    );
    assert_eq!(par.spine_clones, seq.spine_clones, "{ctx}: spine_clones");
    assert_eq!(par.dep_edges, seq.dep_edges, "{ctx}: dep_edges");
    assert_eq!(par.sync_rounds, par.iterations, "{ctx}: sync_rounds");
}

/// Solves one CESK configuration with all five engine/carrier combinations
/// (four sequential plus the parallel driver, and the GC'd variants of
/// each) and asserts them identical.
fn cesk_pentagon<C, S>(term: &Term)
where
    C: mai_core::addr::Context + std::hash::Hash,
    S: mai_core::store::StoreLike<C::Addr, D = BTreeSet<mai_lambda::Storable<C::Addr>>>
        + mai_core::store::StoreDelta<C::Addr>
        + mai_core::monad::Value
        + mai_core::lattice::WidenLattice,
{
    use mai_lambda::analysis as la;
    type Dom<C, S> =
        mai_core::SharedStoreDomain<mai_lambda::PState<<C as mai_core::addr::Context>::Addr>, C, S>;

    let kleene: Dom<C, S> = la::analyse::<C, S, _>(term);
    let (interned, _): (Dom<C, S>, _) = la::analyse_worklist::<C, S, _>(term);
    let (structural, _): (Dom<C, S>, _) = la::analyse_worklist_structural::<C, S, _>(term);
    let (direct, direct_stats): (Dom<C, S>, _) = la::analyse_worklist_direct::<C, S, _>(term);
    assert_eq!(interned, kleene, "CESK interned != Kleene");
    assert_eq!(structural, kleene, "CESK structural != Kleene");
    assert_eq!(direct, kleene, "CESK direct != Kleene");
    for threads in PARALLEL_THREADS {
        let (parallel, par_stats): (Dom<C, S>, _) =
            la::analyse_worklist_parallel::<C, S, _>(term, threads);
        assert_eq!(
            parallel, kleene,
            "CESK parallel != Kleene at {threads} threads"
        );
        assert_parallel_counters("CESK", threads, &direct_stats, &par_stats);
    }

    let gc_kleene: Dom<C, S> = la::analyse_with_gc::<C, S, _>(term);
    let (gc_interned, _): (Dom<C, S>, _) = la::analyse_with_gc_worklist::<C, S, _>(term);
    let (gc_structural, _): (Dom<C, S>, _) =
        la::analyse_with_gc_worklist_structural::<C, S, _>(term);
    let (gc_direct, gc_direct_stats): (Dom<C, S>, _) =
        la::analyse_with_gc_worklist_direct::<C, S, _>(term);
    assert_eq!(gc_interned, gc_kleene, "CESK gc interned != Kleene");
    assert_eq!(gc_structural, gc_kleene, "CESK gc structural != Kleene");
    assert_eq!(gc_direct, gc_kleene, "CESK gc direct != Kleene");
    for threads in PARALLEL_THREADS {
        let (gc_parallel, gc_par_stats): (Dom<C, S>, _) =
            la::analyse_with_gc_parallel::<C, S, _>(term, threads);
        assert_eq!(
            gc_parallel, gc_kleene,
            "CESK gc parallel != Kleene at {threads} threads"
        );
        assert_parallel_counters("CESK gc", threads, &gc_direct_stats, &gc_par_stats);
    }
}

/// Solves one CPS configuration with all five engine/carrier combinations
/// (four sequential plus the parallel driver, and the GC'd variants) and
/// asserts them identical.
fn cps_pentagon<C, S>(program: &mai_cps::CExp)
where
    C: mai_core::addr::Context + std::hash::Hash,
    S: mai_core::store::StoreLike<C::Addr, D = BTreeSet<mai_cps::Val<C::Addr>>>
        + mai_core::store::StoreDelta<C::Addr>
        + mai_core::monad::Value
        + mai_core::lattice::WidenLattice,
{
    use mai_cps::analysis as ca;
    type Dom<C, S> =
        mai_core::SharedStoreDomain<mai_cps::PState<<C as mai_core::addr::Context>::Addr>, C, S>;

    let kleene: Dom<C, S> = ca::analyse::<C, S, _>(program);
    let (interned, _): (Dom<C, S>, _) = ca::analyse_worklist::<C, S, _>(program);
    let (structural, _): (Dom<C, S>, _) = ca::analyse_worklist_structural::<C, S, _>(program);
    let (direct, direct_stats): (Dom<C, S>, _) = ca::analyse_worklist_direct::<C, S, _>(program);
    assert_eq!(interned, kleene, "CPS interned != Kleene");
    assert_eq!(structural, kleene, "CPS structural != Kleene");
    assert_eq!(direct, kleene, "CPS direct != Kleene");
    for threads in PARALLEL_THREADS {
        let (parallel, par_stats): (Dom<C, S>, _) =
            ca::analyse_worklist_parallel::<C, S, _>(program, threads);
        assert_eq!(
            parallel, kleene,
            "CPS parallel != Kleene at {threads} threads"
        );
        assert_parallel_counters("CPS", threads, &direct_stats, &par_stats);
    }

    let gc_kleene: Dom<C, S> = ca::analyse_gc::<C, S, _>(program);
    let (gc_interned, _): (Dom<C, S>, _) = ca::analyse_gc_worklist::<C, S, _>(program);
    let (gc_structural, _): (Dom<C, S>, _) = ca::analyse_gc_worklist_structural::<C, S, _>(program);
    let (gc_direct, gc_direct_stats): (Dom<C, S>, _) =
        ca::analyse_gc_worklist_direct::<C, S, _>(program);
    assert_eq!(gc_interned, gc_kleene, "CPS gc interned != Kleene");
    assert_eq!(gc_structural, gc_kleene, "CPS gc structural != Kleene");
    assert_eq!(gc_direct, gc_kleene, "CPS gc direct != Kleene");
    for threads in PARALLEL_THREADS {
        let (gc_parallel, gc_par_stats): (Dom<C, S>, _) =
            ca::analyse_gc_worklist_parallel::<C, S, _>(program, threads);
        assert_eq!(
            gc_parallel, gc_kleene,
            "CPS gc parallel != Kleene at {threads} threads"
        );
        assert_parallel_counters("CPS gc", threads, &gc_direct_stats, &gc_par_stats);
    }
}

/// The full configuration matrix for one generated term, both languages:
/// {mono, k-CFA k=0, k-CFA k=1} × {basic, counting} × {plain, GC} × five
/// engines.
fn full_matrix(term: &Term) {
    type LStorable<A> = mai_lambda::Storable<A>;
    type CVal<A> = mai_cps::Val<A>;

    // CESK side.
    cesk_pentagon::<MonoCtx, BasicStore<MonoAddr, LStorable<MonoAddr>>>(term);
    cesk_pentagon::<MonoCtx, CountingStore<MonoAddr, LStorable<MonoAddr>>>(term);
    cesk_pentagon::<KCallCtx<0>, BasicStore<KCallAddr, LStorable<KCallAddr>>>(term);
    cesk_pentagon::<KCallCtx<0>, CountingStore<KCallAddr, LStorable<KCallAddr>>>(term);
    cesk_pentagon::<KCallCtx<1>, BasicStore<KCallAddr, LStorable<KCallAddr>>>(term);
    cesk_pentagon::<KCallCtx<1>, CountingStore<KCallAddr, LStorable<KCallAddr>>>(term);

    // CPS side, through the CPS transform.
    let program = mai_cps::cps_convert(term);
    cps_pentagon::<MonoCtx, BasicStore<MonoAddr, CVal<MonoAddr>>>(&program);
    cps_pentagon::<MonoCtx, CountingStore<MonoAddr, CVal<MonoAddr>>>(&program);
    cps_pentagon::<KCallCtx<0>, BasicStore<KCallAddr, CVal<KCallAddr>>>(&program);
    cps_pentagon::<KCallCtx<0>, CountingStore<KCallAddr, CVal<KCallAddr>>>(&program);
    cps_pentagon::<KCallCtx<1>, BasicStore<KCallAddr, CVal<KCallAddr>>>(&program);
    cps_pentagon::<KCallCtx<1>, CountingStore<KCallAddr, CVal<KCallAddr>>>(&program);
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
    use mai_core::engine::ParallelConfig;
    use mai_cps::analysis as ca;
    use mai_lambda::analysis as la;
    type Ctx = KCallCtx<1>;
    type LStore = BasicStore<KCallAddr, mai_lambda::Storable<KCallAddr>>;
    type CStore = BasicStore<KCallAddr, mai_cps::Val<KCallAddr>>;
    type LDom = mai_core::SharedStoreDomain<mai_lambda::PState<KCallAddr>, Ctx, LStore>;
    type CDom = mai_core::SharedStoreDomain<mai_cps::PState<KCallAddr>, Ctx, CStore>;

    for seed in COMMITTED_SEEDS {
        let term = term_from_seed(seed);
        let program = mai_cps::cps_convert(&term);
        let (l_direct, _): (LDom, _) = la::analyse_worklist_direct::<Ctx, LStore, _>(&term);
        let (l_gc_direct, _): (LDom, _) =
            la::analyse_with_gc_worklist_direct::<Ctx, LStore, _>(&term);
        let (c_direct, _): (CDom, _) = ca::analyse_worklist_direct::<Ctx, CStore, _>(&program);
        let (c_gc_direct, _): (CDom, _) =
            ca::analyse_gc_worklist_direct::<Ctx, CStore, _>(&program);
        for threads in PARALLEL_THREADS {
            for epochs in ELASTIC_EPOCHS {
                let config = ParallelConfig { threads, epochs };
                let ctx = format!("seed {seed:#x} at {threads} threads, {epochs} epochs");
                let (l, _): (LDom, _) =
                    la::analyse_worklist_elastic::<Ctx, LStore, _>(&term, config);
                assert_eq!(l, l_direct, "CESK elastic != direct for {ctx}");
                let (lg, _): (LDom, _) =
                    la::analyse_with_gc_elastic::<Ctx, LStore, _>(&term, config);
                assert_eq!(lg, l_gc_direct, "CESK gc elastic != direct for {ctx}");
                let (c, _): (CDom, _) =
                    ca::analyse_worklist_elastic::<Ctx, CStore, _>(&program, config);
                assert_eq!(c, c_direct, "CPS elastic != direct for {ctx}");
                let (cg, _): (CDom, _) =
                    ca::analyse_gc_worklist_elastic::<Ctx, CStore, _>(&program, config);
                assert_eq!(cg, c_gc_direct, "CPS gc elastic != direct for {ctx}");
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
                )
                .expect("parallel widened solve must not fault");
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
                    )
                    .expect("elastic widened solve must not fault");
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

proptest! {
    /// Every random term: the 1CFA shared-store configuration (the one the
    /// benchmarks run) across all five engines, both languages, plus the
    /// GC'd direct-vs-Rc pair.
    #[test]
    fn prop_engines_agree_on_random_terms(shape in shape_strategy()) {
        let term = to_term(&shape, &mut TermBuilder::new());
        cesk_pentagon::<KCallCtx<1>, BasicStore<KCallAddr, mai_lambda::Storable<KCallAddr>>>(&term);
        let program = mai_cps::cps_convert(&term);
        cps_pentagon::<KCallCtx<1>, BasicStore<KCallAddr, mai_cps::Val<KCallAddr>>>(&program);
    }
}
