//! One solve surface over every language's machine.
//!
//! The paper's thesis is that once `mnext` is written against the semantic
//! interface, the monad and a few orthogonal parameters determine the
//! analysis (§5.2, §8).  This module writes that product once:
//!
//! * a language implements [`Machine`] on its state type — a program's
//!   initial state, `mnext` on the closure carrier
//!   ([`StorePassing`]) and `mnext` on the direct carrier
//!   ([`Direct`](crate::monad::Direct));
//! * the analysis domain type names context, store and store sharing
//!   ([`PerStateDomain`] or [`SharedStoreDomain`]), read back through
//!   [`Domain`];
//! * each solve below names one engine, and takes abstract GC, the budget,
//!   the trace sink and the [`ParallelConfig`] as arguments.
//!
//! ```text
//! analyse::kleene::<D>(&program, gc)                    // Kleene iteration, the oracle
//! analyse::worklist::<D>(&program, gc)                  // closure carrier, id-indexed engine
//! analyse::structural::<D>(&program, gc)                // closure carrier, structural baseline
//! analyse::direct::<D>(&program, gc)                    // direct carrier, id-indexed engine
//! analyse::governed::<D, _>(&program, gc, resume, &budget, &mut sink)
//! analyse::parallel::<D, _>(&program, gc, config, &budget, &mut sink)
//! ```
//!
//! Every engine computes the Kleene fixpoint; they differ in how much work
//! they redo (see [`engine`](crate::engine)).  On the closure carrier GC is
//! [`with_gc`] with [`ReachableGc`]; on the direct carrier the engine is
//! handed [`with_state_gc`]'s step itself, so the id-indexed shared-store
//! engine runs GC as a filter on each branch's writes
//! ([`StepFn::filter_writes`](crate::engine::StepFn::filter_writes)).

use std::fmt;

use crate::collect::{explore_fp, with_gc, Collecting, PerStateDomain, SharedStoreDomain};
use crate::engine::{
    with_state_gc, Budget, DirectCollecting, EngineStats, FrontierCollecting, Outcome,
    ParallelCollecting, ParallelConfig, SolveFrom, StateRoots,
};
use crate::gc::{ReachableGc, Touches};
use crate::monad::{MonadFamily, StorePassing, Value};
use crate::store::StoreLike;
use crate::telemetry::{NoopSink, TraceSink};

/// Whether a solve runs abstract garbage collection after every step
/// (the `STEP-GC` rule of §6.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Gc {
    /// Every binding stays in the store.
    Off,
    /// Each successor's store keeps only what the successor's roots reach.
    On,
}

/// A language's abstract machine under context `G` and store `S`: the only
/// code a language writes to reach every solve in this module.
pub trait Machine<G: Value, S: Value>: StateRoots + Value + fmt::Debug {
    /// What the machine analyses.
    type Program: Sync;

    /// The program's initial state.
    fn initial(program: &Self::Program) -> Self;

    /// `mnext` on the closure carrier.
    fn step(program: &Self::Program, state: Self) -> <StorePassing<G, S> as MonadFamily>::M<Self>;

    /// `mnext` on the direct carrier.
    fn step_direct(program: &Self::Program, state: Self, guts: G, store: S) -> Vec<((Self, G), S)>;
}

/// An analysis domain read as its parameters: the machine state, the
/// context (`guts`) and the store.
pub trait Domain: Sized {
    /// The machine state.
    type State: Machine<Self::Guts, Self::Store>;
    /// The context.
    type Guts: Value;
    /// The store.
    type Store: StoreLike<Addr<Self>, D: Touches<Addr<Self>>> + Value;
}

/// The address type of a domain's states.
pub type Addr<D> = <<D as Domain>::State as StateRoots>::Addr;

/// The program a domain's machine analyses.
pub type Program<D> =
    <<D as Domain>::State as Machine<<D as Domain>::Guts, <D as Domain>::Store>>::Program;

/// The closure-carrier monad of a domain.
type Carrier<D> = StorePassing<<D as Domain>::Guts, <D as Domain>::Store>;

/// The successor branches of one direct step of a domain's machine.
type Successors<D> = Vec<(
    (<D as Domain>::State, <D as Domain>::Guts),
    <D as Domain>::Store,
)>;

impl<Ps, G, S> Domain for SharedStoreDomain<Ps, G, S>
where
    Ps: Machine<G, S> + Ord,
    G: Value + Ord,
    S: StoreLike<Ps::Addr, D: Touches<Ps::Addr>> + Value,
{
    type State = Ps;
    type Guts = G;
    type Store = S;
}

impl<Ps, G, S> Domain for PerStateDomain<Ps, G, S>
where
    Ps: Machine<G, S> + Ord,
    G: Value + Ord,
    S: StoreLike<Ps::Addr, D: Touches<Ps::Addr>> + Value,
{
    type State = Ps;
    type Guts = G;
    type Store = S;
}

fn initial<D: Domain>(program: &Program<D>) -> D::State {
    <D::State as Machine<D::Guts, D::Store>>::initial(program)
}

fn closure_step<D: Domain>(
    program: &Program<D>,
) -> impl Fn(D::State) -> <Carrier<D> as MonadFamily>::M<D::State> + Sync + '_ {
    move |state| <D::State as Machine<D::Guts, D::Store>>::step(program, state)
}

fn direct_step<D: Domain>(
    program: &Program<D>,
) -> impl Fn(D::State, D::Guts, D::Store) -> Successors<D> + Sync + '_ {
    move |state, guts, store| {
        <D::State as Machine<D::Guts, D::Store>>::step_direct(program, state, guts, store)
    }
}

/// Naive Kleene iteration on the closure carrier: the paper's
/// `runAnalysis`, and the oracle every other solve is tested against.
pub fn kleene<D>(program: &Program<D>, gc: Gc) -> D
where
    D: Domain + Collecting<Carrier<D>, D::State>,
{
    let step = closure_step::<D>(program);
    match gc {
        Gc::Off => explore_fp::<Carrier<D>, _, D, _>(step, initial::<D>(program)),
        Gc::On => explore_fp::<Carrier<D>, _, D, _>(
            with_gc::<Carrier<D>, _, _, _>(step, ReachableGc),
            initial::<D>(program),
        ),
    }
}

/// The id-indexed frontier engine on the closure carrier
/// ([`FrontierCollecting::explore_frontier`]).
pub fn worklist<D>(program: &Program<D>, gc: Gc) -> (D, EngineStats)
where
    D: Domain + FrontierCollecting<Carrier<D>, D::State>,
{
    let step = closure_step::<D>(program);
    match gc {
        Gc::Off => D::explore_frontier(&step, initial::<D>(program)),
        Gc::On => D::explore_frontier(
            &with_gc::<Carrier<D>, _, _, _>(step, ReachableGc),
            initial::<D>(program),
        ),
    }
}

/// The structural-key baseline on the closure carrier
/// ([`FrontierCollecting::explore_frontier_structural`]).
pub fn structural<D>(program: &Program<D>, gc: Gc) -> (D, EngineStats)
where
    D: Domain + FrontierCollecting<Carrier<D>, D::State>,
{
    let step = closure_step::<D>(program);
    match gc {
        Gc::Off => D::explore_frontier_structural(&step, initial::<D>(program)),
        Gc::On => D::explore_frontier_structural(
            &with_gc::<Carrier<D>, _, _, _>(step, ReachableGc),
            initial::<D>(program),
        ),
    }
}

/// The governed solve on the direct carrier
/// ([`DirectCollecting::explore_frontier_governed_traced`]): fresh from the
/// program's initial state, or resumed from the seed of an `Exhausted`
/// outcome, with `sink` observing it.
pub fn governed<D, T>(
    program: &Program<D>,
    gc: Gc,
    resume: Option<D::Seed>,
    budget: &Budget,
    sink: &mut T,
) -> (Outcome<D, D::Seed>, EngineStats)
where
    D: Domain + DirectCollecting<D::State, D::Guts, D::Store>,
    T: TraceSink,
{
    let from = match resume {
        None => SolveFrom::Fresh(initial::<D>(program)),
        Some(seed) => SolveFrom::Resume(seed),
    };
    let step = direct_step::<D>(program);
    match gc {
        Gc::Off => D::explore_frontier_governed_traced(&step, from, budget, sink),
        Gc::On => D::explore_frontier_governed_traced(&with_state_gc(step), from, budget, sink),
    }
}

/// [`governed`], fresh, unbudgeted and untraced: the fast sequential solve.
pub fn direct<D>(program: &Program<D>, gc: Gc) -> (D, EngineStats)
where
    D: Domain + DirectCollecting<D::State, D::Guts, D::Store>,
{
    complete(governed(
        program,
        gc,
        None,
        &Budget::unlimited(),
        &mut NoopSink,
    ))
}

/// The parallel solve on the direct carrier
/// ([`ParallelCollecting::explore_frontier_parallel_governed_traced`]):
/// `config` selects the barrier or the elastic step phase.
pub fn parallel<D, T>(
    program: &Program<D>,
    gc: Gc,
    config: ParallelConfig,
    budget: &Budget,
    sink: &mut T,
) -> (Outcome<D, D::Seed>, EngineStats)
where
    D: Domain + ParallelCollecting<D::State, D::Guts, D::Store>,
    T: TraceSink,
{
    let from = SolveFrom::Fresh(initial::<D>(program));
    let step = direct_step::<D>(program);
    match gc {
        Gc::Off => D::explore_frontier_parallel_governed_traced(&step, from, config, budget, sink),
        Gc::On => D::explore_frontier_parallel_governed_traced(
            &with_state_gc(step),
            from,
            config,
            budget,
            sink,
        ),
    }
}

/// The fixpoint of a solve whose budget cannot run out, with its stats.
///
/// # Panics
///
/// If the outcome is `Exhausted`.
pub fn complete<D, Seed>((outcome, stats): (Outcome<D, Seed>, EngineStats)) -> (D, EngineStats) {
    (outcome.into_complete(), stats)
}
