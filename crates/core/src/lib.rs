//! # mai-core — the language-independent core of *Monadic Abstract Interpreters*
//!
//! This crate is the Rust counterpart of the "meta-level" half of Figure 3 in
//! the paper *Monadic Abstract Interpreters* (Sergey et al., PLDI 2013): the
//! pieces of a static analysis that are independent of any particular
//! programming language and of any particular semantics.
//!
//! The central idea of the paper is that, once a small-step semantics is
//! refactored into *monadic normal form* against a small semantic interface,
//! the **monad** — together with a handful of orthogonal type-class-like
//! parameters — determines every classical property of the resulting
//! analysis:
//!
//! * [`monad`] — the analysis monads themselves: a GAT-encoded monad
//!   hierarchy with the identity monad, the non-determinism (list) monad,
//!   the state monad and the state-transformer, from which the paper's
//!   `StorePassing` monad (`StateT g (StateT s [])`) is assembled; plus
//!   the explicit-context [`monad::StepMonad`] every language's `mnext` is
//!   written against, and its allocation-free direct instance.
//! * [`lattice`] — complete lattices, Kleene iteration and Galois
//!   connections (§5.1–§5.2 of the paper).
//! * [`addr`] — `Addressable` contexts controlling polyvariance and
//!   context-sensitivity (§6.1): concrete fresh addresses, the monovariant
//!   0CFA allocator and k-CFA call-string contexts.
//! * [`store`] — `StoreLike` abstract stores (§6.2) and the counting store
//!   implementing abstract counting (§6.3).
//! * [`gc`] — abstract garbage collection (§6.4) as a reusable reachability
//!   engine plus a pluggable [`gc::GcStrategy`] ([`gc::ReachableGc`] serves
//!   every language).
//! * [`collect`] — the `Collecting` fixed-point interface (§5.2), the
//!   per-state-store ("heap-cloning") analysis domain (§5.3.3) and the
//!   shared-store widened domain obtained through a Galois connection
//!   (§6.5).
//! * [`engine`] — the frontier-driven worklist fixpoint engine: a drop-in
//!   replacement for naive Kleene iteration that only re-steps states whose
//!   store dependencies changed, with instrumentation for the experiment
//!   harness.
//! * [`analyse`] — the solves, written once over every language's machine:
//!   a language implements [`analyse::Machine`], and a call such as
//!   `analyse::direct::<D>(&program, Gc::On)` picks the engine by name, the
//!   context and store by the domain type `D`, and GC by argument.
//! * [`intern`] — hash-consed state/environment interning: dense `u32` ids
//!   with precomputed hashes, the identity currency of the id-indexed
//!   engines (with [`hash`] supplying the fast deterministic hasher).
//! * [`telemetry`] — zero-cost-when-off structured tracing for the
//!   engines: per-round phase timings, per-worker spans, hot-spot
//!   attribution and Chrome-trace/CSV exporters.
//! * [`mod@env`] — persistent environments and the stores' value sets
//!   ([`env::PSet`]), both on the [`pmap`] trie the store spine uses, so
//!   extending an environment or growing a flow set copies one path.
//! * [`name`] — globally pooled identifiers and program-point labels shared
//!   by all language substrates.
//! * [`sexp`] — a small s-expression reader used by the CPS and
//!   direct-style λ-calculus front ends.
//!
//! Language substrates (CPS, direct-style λ-calculus, Featherweight Java)
//! live in their own crates and only supply a semantic interface, a
//! monadic `mnext` step function and its [`analyse::Machine`] instance;
//! every knob above is reused unchanged —
//! which is precisely the unification the paper claims.
//!
//! ## Quick taste
//!
//! ```rust
//! use mai_core::monad::{MonadFamily, MonadPlus, VecM};
//!
//! // The non-determinism monad: the same list monad the paper uses to model
//! // the branching introduced by abstraction.
//! let branches = VecM::mplus(VecM::pure(1u32), VecM::pure(2u32));
//! let doubled = VecM::bind(branches, |n| VecM::pure(n * 2));
//! assert_eq!(doubled, vec![2, 4]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod addr;
pub mod analyse;
pub mod collect;
pub mod engine;
pub mod env;
pub mod gc;
pub mod hash;
pub mod intern;
pub mod lattice;
pub mod monad;
pub mod name;
pub mod pmap;
pub mod sexp;
pub mod store;
pub mod telemetry;

pub use addr::{
    Address, BoundedAddr, BoundedCtx, ConcreteAddr, ConcreteCtx, Context, HasInitial, KCallAddr,
    KCallCtx, MonoAddr, MonoCtx, NamedAddress,
};
pub use collect::{
    explore_fp, explore_fp_traced, run_analysis, Collecting, PerStateDomain, SharedStoreDomain,
};
pub use engine::{
    explore_worklist_direct_traced_stats, with_state_gc, Budget, CancelToken, DirectCollecting,
    EngineStats, ExhaustReason, FrontierCollecting, Outcome, ParallelCollecting, ParallelConfig,
    ResumeSeed, SharedResumeSeed, SolveFrom, StateRoots, StepFn,
};
pub use env::PSet;
pub use gc::{reachable, GcStrategy, NoGc, ReachableGc, Touches};
pub use hash::{fx_hash_of, FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use intern::{EnvId, InternKey, Interner, ShardedInterner, StateId};
pub use lattice::{kleene_it, AbsNat, Lattice};
pub use monad::{MonadFamily, MonadPlus, MonadState, MonadTrans, StorePassing, Value};
pub use name::{Label, Name};
pub use pmap::PMap;
pub use store::{BasicStore, Counter, CountingStore, StoreDelta, StoreLike};
pub use telemetry::{
    GovernorTrace, HotAddr, HotState, NoopSink, PhaseTotals, RoundTrace, StealTrace, TraceBuffer,
    TraceSink, WorkerSpan,
};
