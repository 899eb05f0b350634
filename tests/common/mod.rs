//! Shared corpus machinery for the root integration suites.
//!
//! The committed seeds and the deterministic λ-term generator they drive
//! are used by both `tests/differential.rs` (the engine matrix) and
//! `tests/governance.rs` (budgets, resume, panics), so the corpus the two
//! suites exercise is literally the same set of programs.  The engine
//! parity check, [`engine_parity`], serves the differential and the
//! worklist suites for all three languages.  Each seed
//! drives a deterministic xorshift generator from which a λ-term is
//! drawn; the corpus they induce is fixed until this list (or the
//! generator) changes, so the list is part of the reviewable surface.

#![allow(dead_code)]

use std::fmt;

use mai_core::analyse::{self, Domain, Gc, Program};
use mai_core::engine::{
    Budget, DirectCollecting, EngineStats, FrontierCollecting, ParallelCollecting, ParallelConfig,
};
use mai_core::lattice::Lattice;
use mai_core::{NoopSink, SharedStoreDomain, StorePassing};
use mai_lambda::syntax::TermBuilder;
use mai_lambda::Term;
use proptest::prelude::*;
use proptest::test_runner::Rng;

/// The committed seeds driving the full-matrix replays.
pub const COMMITTED_SEEDS: [u64; 10] = [
    0x0000_0000_DEAD_BEEF,
    0x0123_4567_89AB_CDEF,
    0x1BAD_B002_CAFE_F00D,
    0x2C3A_4D5E_6F70_8192,
    0x3141_5926_5358_9793,
    0x4242_4242_4242_4242,
    0x5A5A_5A5A_A5A5_A5A5,
    0x6B8B_4567_327B_23C6,
    0x7FFF_FFFF_FFFF_FFF1,
    0x8000_0000_0000_0001,
];

/// The thread counts every parallel differential run is replayed at.
pub const PARALLEL_THREADS: [usize; 3] = [1, 2, 4];

/// The label-free shape of a generated term; conversion assigns labels
/// through a `TermBuilder` in a deterministic traversal order.
#[derive(Debug, Clone)]
pub enum Shape {
    /// A variable reference from the 3-name pool (may be unbound — the
    /// machines treat unbound lookups as stuck, which the engines must
    /// agree on too).
    Var(u8),
    /// λ-abstraction over a pool name.
    Lam(u8, Box<Shape>),
    /// Application.
    App(Box<Shape>, Box<Shape>),
    /// `let` binding of a pool name.
    Let(u8, Box<Shape>, Box<Shape>),
}

pub fn shape_strategy() -> BoxedStrategy<Shape> {
    let leaf = prop_oneof![
        (0u8..3).prop_map(Shape::Var),
        ((0u8..3), (0u8..3)).prop_map(|(p, v)| Shape::Lam(p, Box::new(Shape::Var(v)))),
    ];
    leaf.prop_recursive(3, 24, 2, |inner| {
        prop_oneof![
            ((0u8..3), inner.clone()).prop_map(|(p, b)| Shape::Lam(p, Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(f, a)| Shape::App(Box::new(f), Box::new(a))),
            ((0u8..3), inner.clone(), inner.clone()).prop_map(|(n, r, b)| Shape::Let(
                n,
                Box::new(r),
                Box::new(b)
            )),
        ]
    })
}

fn pool_name(i: u8) -> String {
    format!("v{}", i % 3)
}

pub fn to_term(shape: &Shape, b: &mut TermBuilder) -> Term {
    match shape {
        Shape::Var(i) => Term::var(pool_name(*i)),
        Shape::Lam(p, body) => {
            let body = to_term(body, b);
            Term::lam(pool_name(*p), body)
        }
        Shape::App(f, a) => {
            let f = to_term(f, b);
            let a = to_term(a, b);
            b.app(f, a)
        }
        Shape::Let(n, rhs, body) => {
            let rhs = to_term(rhs, b);
            let body = to_term(body, b);
            b.let_in(&pool_name(*n), rhs, body)
        }
    }
}

/// Draws one λ-term from a seeded deterministic generator.
pub fn term_from_seed(seed: u64) -> Term {
    let mut rng = Rng::new(seed);
    let shape = shape_strategy().generate(&mut rng);
    to_term(&shape, &mut TermBuilder::new())
}

/// Asserts that a parallel run reproduced the sequential direct engine's
/// deterministic work counters (the timing gauges `steal_events` /
/// `shard_imbalance` and `store_bytes_shared`, the bytes a round's fold
/// adopted by reference, which depend on the fold order, are exempt by
/// design; `sync_rounds` must equal the parallel run's own round count).
pub fn assert_parallel_counters(label: &str, threads: usize, seq: &EngineStats, par: &EngineStats) {
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
    assert_eq!(
        par.branches_folded, seq.branches_folded,
        "{ctx}: branches_folded"
    );
    assert_eq!(
        par.gc_filter_visited, seq.gc_filter_visited,
        "{ctx}: gc_filter_visited"
    );
    assert_eq!(par.sync_rounds, par.iterations, "{ctx}: sync_rounds");
}

/// How many `(state, guts)` pairs a shared-store fixpoint holds.
pub trait Pairs {
    /// The number of pairs.
    fn pairs(&self) -> usize;
}

impl<Ps: Ord + Clone, G: Ord + Clone, S: Lattice> Pairs for SharedStoreDomain<Ps, G, S> {
    fn pairs(&self) -> usize {
        self.len()
    }
}

/// Solves one shared-store configuration `D` of `program` with every
/// engine and carrier, with and without abstract GC, and asserts them
/// identical: Kleene iteration (the oracle), the id-indexed engine on the
/// closure carrier, the structural baseline, the id-indexed engine on the
/// direct carrier, and the barrier-parallel driver at every thread count
/// of [`PARALLEL_THREADS`].
///
/// The barrier driver must also reproduce the direct engine's
/// deterministic work counters ([`assert_parallel_counters`]).  Without
/// GC the closure-carrier run must intern every pair once, never rebuild,
/// fold one contribution per stepped pair, and do no more work than the
/// structural baseline.
pub fn engine_parity<D>(label: &str, program: &Program<D>)
where
    D: Domain
        + FrontierCollecting<StorePassing<D::Guts, D::Store>, D::State>
        + DirectCollecting<D::State, D::Guts, D::Store>
        + ParallelCollecting<D::State, D::Guts, D::Store>
        + Pairs
        + PartialEq
        + fmt::Debug,
{
    for gc in [Gc::Off, Gc::On] {
        let ctx = format!("{label}, GC {gc:?}");
        let kleene: D = analyse::kleene(program, gc);
        let (worklist, stats) = analyse::worklist::<D>(program, gc);
        let (structural, structural_stats) = analyse::structural::<D>(program, gc);
        let (direct, direct_stats) = analyse::direct::<D>(program, gc);
        assert_eq!(worklist, kleene, "{ctx}: closure worklist != Kleene");
        assert_eq!(structural, kleene, "{ctx}: structural != Kleene");
        assert_eq!(direct, kleene, "{ctx}: direct != Kleene");
        if gc == Gc::Off {
            assert!(stats.states_stepped > 0, "{ctx}");
            assert_eq!(stats.distinct_states, worklist.pairs(), "{ctx}");
            assert_eq!(stats.intern_misses, worklist.pairs(), "{ctx}");
            // Same frontier strategy with tighter read sets: the
            // id-indexed engine never does more logical work than the
            // structural one.
            assert!(
                stats.states_stepped <= structural_stats.states_stepped,
                "{ctx}"
            );
            assert!(stats.store_joins <= structural_stats.store_joins, "{ctx}");
            // GC-free contributions are monotone, so the incremental
            // engine never leaves the fast path and folds exactly one
            // contribution per stepped pair.
            assert_eq!(stats.rebuild_rounds, 0, "{ctx}");
            assert_eq!(stats.store_joins, stats.states_stepped, "{ctx}");
        }
        for threads in PARALLEL_THREADS {
            let config = ParallelConfig::barrier(threads);
            let (parallel, par_stats) = analyse::complete(analyse::parallel::<D, _>(
                program,
                gc,
                config,
                &Budget::unlimited(),
                &mut NoopSink,
            ));
            assert_eq!(
                parallel, kleene,
                "{ctx}: parallel != Kleene at {threads} threads"
            );
            assert_parallel_counters(&ctx, threads, &direct_stats, &par_stats);
        }
    }
}

/// Runs [`engine_parity`] on the six configurations {mono, k = 0, k = 1} ×
/// {basic, counting store} of one machine.  `$dom<C, S>` names the
/// machine's shared-store domain and `$val<A>` its store values.
#[allow(unused_macros)]
macro_rules! parity_matrix {
    ($label:expr, $program:expr, $dom:ident, $val:ident) => {{
        use mai_core::store::{BasicStore, CountingStore};
        use mai_core::{KCallAddr, KCallCtx, MonoAddr, MonoCtx};
        let (label, program) = ($label, $program);
        common::engine_parity::<$dom<MonoCtx, BasicStore<MonoAddr, $val<MonoAddr>>>>(
            &format!("{label} mono/basic"),
            program,
        );
        common::engine_parity::<$dom<MonoCtx, CountingStore<MonoAddr, $val<MonoAddr>>>>(
            &format!("{label} mono/counting"),
            program,
        );
        common::engine_parity::<$dom<KCallCtx<0>, BasicStore<KCallAddr, $val<KCallAddr>>>>(
            &format!("{label} 0cfa/basic"),
            program,
        );
        common::engine_parity::<$dom<KCallCtx<0>, CountingStore<KCallAddr, $val<KCallAddr>>>>(
            &format!("{label} 0cfa/counting"),
            program,
        );
        common::engine_parity::<$dom<KCallCtx<1>, BasicStore<KCallAddr, $val<KCallAddr>>>>(
            &format!("{label} 1cfa/basic"),
            program,
        );
        common::engine_parity::<$dom<KCallCtx<1>, CountingStore<KCallAddr, $val<KCallAddr>>>>(
            &format!("{label} 1cfa/counting"),
            program,
        );
    }};
}

/// The shared-store domain of the CESK machine over context `C` and store `S`.
pub type CeskDomain<C, S> =
    SharedStoreDomain<mai_lambda::PState<<C as mai_core::addr::Context>::Addr>, C, S>;

/// The shared-store domain of the CPS machine over context `C` and store `S`.
pub type CpsDomain<C, S> =
    SharedStoreDomain<mai_cps::PState<<C as mai_core::addr::Context>::Addr>, C, S>;

/// The shared-store domain of the FJ machine over context `C` and store `S`.
pub type FjDomain<C, S> =
    SharedStoreDomain<mai_fj::PState<<C as mai_core::addr::Context>::Addr>, C, S>;
