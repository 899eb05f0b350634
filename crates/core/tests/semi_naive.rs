//! Semi-naive re-steps, checked against full ones.
//!
//! Each machine below is one step function run on two stores: a
//! [`BasicStore`], which remembers bindings and so re-steps semi-naive, and
//! [`Full`], the same store without that memory, so it re-steps in full.
//! Both solves must reach the fixpoint of a plain Kleene loop written here,
//! pass [`certify`], and do the same work — except that the semi-naive
//! solve folds fewer branches.  The machines are built to break the semi-naive
//! argument where it is thin: one path that fans out twice over a grown
//! address, paths of different lengths in one transition (some ending in
//! an empty fetch), plain reads of changed bindings on the direct and on
//! the closure carrier.  Debug builds additionally compare every merged
//! entry with a full re-step inside the engine.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicUsize, Ordering};

use mai_core::collect::SharedStoreDomain;
use mai_core::engine::{
    certify, Budget, DirectCollecting, EngineStats, ParallelCollecting, ParallelConfig, SolveFrom,
    StateRoots, StepFn, WidenPolicy,
};
use mai_core::env::PSet;
use mai_core::lattice::{Interval, Lattice, WidenLattice};
use mai_core::monad::{
    gets_nd_set, run_store_passing, Branches, Direct, MonadFamily, MonadPlus, MonadState,
    MonadTrans, StateT, StepMonad, StorePassing, Value, VecM,
};
use mai_core::store::{
    BasicStore, CountingStore, IntervalStore, ReadJournal, StoreDelta, StoreLike,
};
use mai_core::Touches;

/// A heap value that points at a cell.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
struct Ptr(u8);

impl Touches<u8> for Ptr {
    fn touches(&self) -> BTreeSet<u8> {
        [self.0].into_iter().collect()
    }
}

/// Machine states are numbers; no state has roots.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
struct St(u32);

impl StateRoots for St {
    type Addr = u8;

    fn state_roots(&self) -> BTreeSet<u8> {
        BTreeSet::new()
    }
}

type G = u64;
type Basic = BasicStore<u8, Ptr>;
type Counting = CountingStore<u8, Ptr>;

/// A [`BasicStore`] that cannot remember a binding: every method but
/// `StoreDelta::remember` forwards, so the engine re-steps it in full.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
struct Full(Basic);

impl Lattice for Full {
    fn bottom() -> Self {
        Full(Basic::bottom())
    }

    fn join(self, other: Self) -> Self {
        Full(self.0.join(other.0))
    }

    fn leq(&self, other: &Self) -> bool {
        self.0.leq(&other.0)
    }

    fn join_in_place(&mut self, other: Self) -> bool {
        self.0.join_in_place(other.0)
    }

    fn is_bottom(&self) -> bool {
        self.0.is_bottom()
    }
}

impl WidenLattice for Full {}

impl StoreLike<u8> for Full {
    type D = PSet<Ptr>;

    fn bind_in_place(&mut self, a: u8, d: Self::D) -> bool {
        self.0.bind_in_place(a, d)
    }

    fn replace(self, a: u8, d: Self::D) -> Self {
        Full(self.0.replace(a, d))
    }

    fn fetch(&self, a: &u8) -> Self::D {
        self.0.fetch(a)
    }

    fn fetch_ref(&self, a: &u8) -> Option<&Self::D> {
        self.0.fetch_ref(a)
    }

    fn filter_store<F: Fn(&u8) -> bool>(self, keep: F) -> Self {
        Full(self.0.filter_store(keep))
    }

    fn restrict_to(self, addrs: &BTreeSet<u8>) -> Self {
        Full(self.0.restrict_to(addrs))
    }

    fn addresses(&self) -> BTreeSet<u8> {
        self.0.addresses()
    }

    fn contains(&self, a: &u8) -> bool {
        self.0.contains(a)
    }
}

impl StoreDelta<u8> for Full {
    fn changed_addresses(&self, other: &Self) -> BTreeSet<u8> {
        self.0.changed_addresses(&other.0)
    }

    fn widen_in_place_delta(
        &mut self,
        other: Self,
        widen_at: &BTreeSet<u8>,
        adopted_bytes: &mut usize,
    ) -> BTreeSet<u8> {
        self.0
            .widen_in_place_delta(other.0, widen_at, adopted_bytes)
    }

    fn arm_read_journal(&mut self) -> ReadJournal<u8> {
        self.0.arm_read_journal()
    }
}
type Successors<S> = Vec<((St, G), S)>;
type D<S> = Direct<G, S>;

/// The stores the machines run on.
trait Cells: StoreDelta<u8, D = PSet<Ptr>> + WidenLattice + Value + std::hash::Hash {}

impl<S: StoreDelta<u8, D = PSet<Ptr>> + WidenLattice + Value + std::hash::Hash> Cells for S {}

/// The cells every machine's store is compared at.
const CELLS: [u8; 4] = [0, 1, 2, 3];

/// One branch per pointer in `cell`, each continued by `k` with the
/// pointer's target.
fn each<S: Cells, K>(cell: u8, cx: (G, S), k: K) -> Branches<St, G, S>
where
    K: Fn(u32, (G, S)) -> Branches<St, G, S> + 'static,
{
    D::<S>::bind(
        Branches::fetch_each(&cell, |p: &Ptr| Some(p), cx),
        move |p, cx| k(u32::from(p.0), cx),
    )
}

/// The writer chain from state 10: state `10 + i` performs the writes
/// `rounds[i]` and steps to `11 + i`, so each round of the solve grows the
/// cells a little more.
fn writer<S: Cells>(rounds: &[&[(u8, u8)]], n: u32, (g, mut s): (G, S)) -> Successors<S> {
    match rounds.get((n - 10) as usize) {
        Some(writes) => {
            for &(cell, ptr) in *writes {
                s.bind_in_place(cell, [Ptr(ptr)].into_iter().collect());
            }
            vec![((St(n + 1), g), s)]
        }
        None => Vec::new(),
    }
}

/// `(f f)` and `(f x x)`: state 1 fans out twice over cell 0 on one path,
/// state 2 over cell 0 and then twice over cell 1.  The prune bound must
/// count the repeated reads of one address.
fn twice<S: Cells>(ps: St, g: G, s: S) -> Successors<S> {
    const WRITES: &[&[(u8, u8)]] = &[&[(0, 1)], &[(1, 5)], &[(0, 2)], &[(1, 6)], &[(0, 3)]];
    match ps.0 {
        0 => vec![
            ((St(1), g), s.clone()),
            ((St(2), g), s.clone()),
            ((St(10), g), s),
        ],
        1 => each(0, (g, s), |x, cx| {
            each(0, cx, move |y, cx| D::<S>::pure(St(100 + 10 * x + y), cx))
        })
        .into_vec(),
        2 => each(0, (g, s), |x, cx| {
            each(1, cx, move |y, cx| {
                each(1, cx, move |z, cx| {
                    D::<S>::pure(St(1000 + 100 * x + 10 * y + z), cx)
                })
            })
        })
        .into_vec(),
        n => writer(WRITES, n, (g, s)),
    }
}

/// Three paths of different lengths in one transition: none, three and
/// one read calls.  The long path ends in an empty fetch before its cells
/// fill, so the longest path of a step is one that made no branch.
fn lengths<S: Cells>(ps: St, g: G, s: S) -> Successors<S> {
    const WRITES: &[&[(u8, u8)]] = &[&[(1, 1)], &[(0, 5)], &[(2, 7)], &[(2, 8)], &[(0, 6)]];
    match ps.0 {
        0 => vec![((St(1), g), s.clone()), ((St(10), g), s)],
        1 => {
            let mut out = D::<S>::pure(St(200), (g, s.clone()));
            out.append(each(1, (g, s.clone()), |a, cx| {
                each(0, cx, move |b, cx| {
                    each(2, cx, move |c, cx| {
                        D::<S>::pure(St(3000 + 100 * a + 10 * b + c), cx)
                    })
                })
            }));
            out.append(each(0, (g, s), |b, cx| D::<S>::pure(St(400 + b), cx)));
            out.into_vec()
        }
        n => writer(WRITES, n, (g, s)),
    }
}

/// Plain reads beside fan-outs.  State 1 fans out over cell 0 and then
/// asks whether cell 1 is bound; state 2 has one path that fans out over
/// cell 0 (reaching the longest path, so it drops old choices) and one
/// that only asks about cell 1, so a growth of cell 1 meets a pruned
/// step.
fn plain<S: Cells>(ps: St, g: G, s: S) -> Successors<S> {
    const WRITES: &[&[(u8, u8)]] = &[
        &[(0, 1)],
        &[(0, 2)],
        &[(1, 9)],
        &[(0, 3)],
        &[(0, 4), (1, 8)],
    ];
    let bound = |cx: &(G, S)| u32::from(cx.1.contains(&1));
    match ps.0 {
        0 => vec![
            ((St(1), g), s.clone()),
            ((St(2), g), s.clone()),
            ((St(10), g), s),
        ],
        1 => each(0, (g, s), move |x, cx| {
            let hit = bound(&cx);
            D::<S>::pure(St(500 + 10 * hit + x), cx)
        })
        .into_vec(),
        2 => {
            let mut out = each(0, (g, s.clone()), |x, cx| D::<S>::pure(St(700 + x), cx));
            let cx = (g, s);
            let hit = bound(&cx);
            out.append(D::<S>::pure(St(800 + hit), cx));
            out.into_vec()
        }
        n => writer(WRITES, n, (g, s)),
    }
}

/// The closure carrier: state 1 reads cell 0 with a plain `fetch` inside
/// `gets_nd_set` and follows every pointer.
fn rc_reader<S: Cells>(ps: St) -> <StorePassing<G, S> as MonadFamily>::M<St> {
    type M<T> = StorePassing<G, T>;
    let pure = |st: St| <M<S> as MonadFamily>::pure(st);
    match ps.0 {
        0 => <M<S> as MonadPlus>::mplus(pure(St(1)), pure(St(10))),
        1 => {
            let fetched =
                <M<S> as MonadTrans>::lift(gets_nd_set::<StateT<S, VecM>, S, Ptr, _>(|s: &S| {
                    s.fetch(&0).iter().cloned().collect()
                }));
            <M<S> as MonadFamily>::bind(fetched, move |p| pure(St(20 + u32::from(p.0))))
        }
        n @ 10..=12 => {
            let write = <M<S> as MonadTrans>::lift(<StateT<S, VecM> as MonadState<S>>::modify(
                move |s: S| s.bind(0, [Ptr(n as u8 - 9)].into_iter().collect()),
            ));
            <M<S> as MonadFamily>::bind(write, move |_| pure(St(n + 1)))
        }
        _ => <M<S> as MonadPlus>::mzero(),
    }
}

/// A plain Kleene loop over the direct-style step: the oracle shares
/// nothing with the engine.
fn kleene<S: Cells, F: StepFn<St, G, S>>(step: &F) -> SharedStoreDomain<St, G, S> {
    let mut states: BTreeSet<(St, G)> = [(St(0), 0)].into_iter().collect();
    let mut store = S::bottom();
    loop {
        let mut next = (states.clone(), store.clone());
        for (ps, g) in &states {
            for (pair, s) in step.step(ps.clone(), *g, store.clone()) {
                next.0.insert(pair);
                next.1.join_in_place(s);
            }
        }
        if next == (states.clone(), store.clone()) {
            return SharedStoreDomain::from_parts(states, store);
        }
        (states, store) = next;
    }
}

/// Solves `step` on `S` sequentially and on the barrier phase, checks both
/// against the Kleene oracle and `certify`, checks that the barrier phase
/// did the sequential work, and returns the fixpoint and the counters.
fn solve<S: Cells, F: StepFn<St, G, S>>(step: &F) -> (SharedStoreDomain<St, G, S>, EngineStats) {
    type Dom<S> = SharedStoreDomain<St, G, S>;
    let (fixpoint, stats) =
        <Dom<S> as DirectCollecting<St, G, S>>::explore_frontier_direct(step, St(0));
    assert_eq!(fixpoint, kleene(step));
    assert!(certify(&fixpoint, step).certified());
    let (pooled, pooled_stats) =
        <Dom<S> as ParallelCollecting<St, G, S>>::explore_frontier_parallel(
            step,
            St(0),
            ParallelConfig::barrier(2),
        );
    assert_eq!(pooled, fixpoint);
    assert_eq!(
        (
            pooled_stats.states_stepped,
            pooled_stats.dep_edges,
            pooled_stats.branches_folded
        ),
        (stats.states_stepped, stats.dep_edges, stats.branches_folded)
    );
    (fixpoint, stats)
}

/// Runs `basic` semi-naive and `full` (the same step on [`Full`]) in
/// full, asserts they agree on the fixpoint and on every work counter but
/// the branches folded, and returns both branch counts.
fn semi_naive_vs_full<B, F>(basic: &B, full: &F) -> (usize, usize)
where
    B: StepFn<St, G, Basic>,
    F: StepFn<St, G, Full>,
{
    let (semi, semi_stats) = solve(basic);
    let (full, full_stats) = solve(full);
    assert_eq!(semi.states(), full.states());
    for cell in CELLS {
        assert_eq!(
            semi.store().fetch(&cell),
            full.store().fetch(&cell),
            "cell {cell}"
        );
    }
    let work = |s: &EngineStats| {
        (
            s.iterations,
            s.states_stepped,
            s.reenqueued,
            s.store_joins,
            s.store_joins_applied,
            s.dep_edges,
            s.rebuild_rounds,
            s.intern_misses,
        )
    };
    assert_eq!(work(&semi_stats), work(&full_stats));
    (semi_stats.branches_folded, full_stats.branches_folded)
}

/// `step` with every branch it produces counted in `produced`.
fn counted<'c, S, F>(step: F, produced: &'c AtomicUsize) -> impl StepFn<St, G, S> + 'c
where
    S: 'c,
    F: StepFn<St, G, S> + 'c,
{
    move |ps: St, g: G, s: S| {
        let out = step.step(ps, g, s);
        produced.fetch_add(out.len(), Ordering::Relaxed);
        out
    }
}

/// A full solve folds every branch its steps produce.
fn assert_folds_every_branch<S: Cells, F: StepFn<St, G, S>>(step: F) {
    let produced = AtomicUsize::new(0);
    let step = counted(step, &produced);
    let (_, stats) =
        <SharedStoreDomain<St, G, S> as DirectCollecting<St, G, S>>::explore_frontier_direct(
            &step,
            St(0),
        );
    assert_eq!(stats.branches_folded, produced.load(Ordering::Relaxed));
}

#[test]
fn one_path_fans_out_twice_over_the_same_grown_address() {
    let (semi, full) = semi_naive_vs_full(&twice::<Basic>, &twice::<Full>);
    assert!(
        semi < full,
        "semi-naive folded {semi} branches, full {full}"
    );
}

#[test]
fn paths_of_different_lengths_share_one_transition() {
    let (semi, full) = semi_naive_vs_full(&lengths::<Basic>, &lengths::<Full>);
    assert!(
        semi < full,
        "semi-naive folded {semi} branches, full {full}"
    );
}

#[test]
fn a_plain_read_of_a_changed_binding_makes_the_re_step_full() {
    let (semi, full) = semi_naive_vs_full(&plain::<Basic>, &plain::<Full>);
    assert!(
        semi < full,
        "semi-naive folded {semi} branches, full {full}"
    );
}

#[test]
fn a_plain_read_of_a_grown_address_through_the_closure_carrier() {
    let basic = |ps: St, g: G, s: Basic| run_store_passing(rc_reader::<Basic>(ps), g, s);
    let full = |ps: St, g: G, s: Full| run_store_passing(rc_reader::<Full>(ps), g, s);
    let (semi, full) = semi_naive_vs_full(&basic, &full);
    // Every re-step of the reader sees cell 0 changed, so it is full.
    assert!(semi <= full);
    let (fixpoint, _) = solve(&basic);
    for ptr in 1..=3 {
        assert!(fixpoint.states().contains(&(St(20 + ptr), 0)));
    }
}

#[test]
fn counting_and_interval_solves_fold_every_branch() {
    assert_folds_every_branch(twice::<Full>);
    assert_folds_every_branch(twice::<Counting>);
    assert_folds_every_branch(lengths::<Counting>);
    assert_folds_every_branch(plain::<Counting>);

    // A loop that widens: 0 sets cell 0 to [0, 0], 1 increments it
    // forever and also exits to 2.
    type Cell = IntervalStore<u8>;
    let produced = AtomicUsize::new(0);
    let step = counted(
        |ps: St, g: G, s: Cell| match ps.0 {
            0 => vec![((St(1), g), s.bind(0, Interval::singleton(0)))],
            1 => {
                let next = s.fetch(&0) + Interval::singleton(1);
                vec![((St(2), g), s.clone()), ((St(1), g), s.replace(0, next))]
            }
            _ => Vec::new(),
        },
        &produced,
    );
    // No narrowing pass: it re-steps through `StepFn::step` outside the
    // engine's fold.
    let budget =
        Budget::unlimited().with_widening(WidenPolicy::after_growths(3).with_narrow_passes(0));
    let (outcome, stats) =
        <SharedStoreDomain<St, G, Cell> as DirectCollecting<St, G, Cell>>::explore_frontier_governed(
            &step,
            SolveFrom::Fresh(St(0)),
            &budget,
        );
    assert_eq!(
        outcome.into_complete().store().fetch(&0),
        Interval::at_least(0)
    );
    assert!(stats.widen_applied > 0);
    assert_eq!(stats.branches_folded, produced.load(Ordering::Relaxed));
}
