//! # monadic-ai — Monadic Abstract Interpreters in Rust
//!
//! A reproduction of *Monadic Abstract Interpreters* (Sergey, Devriese,
//! Might, Midtgaard, Darais, Clarke, Piessens — PLDI 2013), packaged as a
//! workspace façade.  The paper shows that once a small-step semantics is
//! refactored into monadic normal form against a small semantic interface,
//! the **monad** — together with a handful of orthogonal type-class-like
//! parameters — determines every classical property of a static analysis:
//! non-determinism, polyvariance, context-sensitivity, abstract counting,
//! abstract garbage collection and heap cloning vs. shared-store widening.
//!
//! The workspace members are re-exported here:
//!
//! * [`core`] (`mai-core`) — the language-independent framework: GAT-based
//!   monads ([`core::monad`]), lattices and Kleene iteration
//!   ([`core::lattice`]), polyvariance contexts ([`core::addr`]), abstract
//!   stores and counting ([`core::store`]), abstract GC ([`core::gc`]),
//!   the collecting-semantics domains ([`core::collect`]) and the solves
//!   every language's machine runs ([`core::analyse`]).
//! * [`cps`] (`mai-cps`) — the CPS λ-calculus the paper develops in full.
//! * [`lambda`] (`mai-lambda`) — the direct-style λ-calculus on a CESK
//!   machine.
//! * [`fj`] (`mai-fj`) — Featherweight Java.
//!
//! ## Quick start
//!
//! ```rust
//! use monadic_ai::core::analyse::{self, Gc};
//! use monadic_ai::cps::analysis::{KCfaShared, MonoShared};
//! use monadic_ai::cps::{flow_map_of_store, parse_program};
//!
//! let program = parse_program("((λ (x k) (k x)) (λ (y j) (j y)) (λ (r) exit))").unwrap();
//! let result: MonoShared = analyse::kleene(&program, Gc::Off);
//! let flows = flow_map_of_store(result.store());
//! assert_eq!(flows[&monadic_ai::core::Name::from("x")].len(), 1);
//!
//! // 1-CFA with abstract GC, on the fast engine: the same fixpoint as Kleene.
//! let (fast, _stats) = analyse::direct::<KCfaShared<1>>(&program, Gc::On);
//! assert_eq!(fast, analyse::kleene::<KCfaShared<1>>(&program, Gc::On));
//! ```
//!
//! See the `examples/` directory for larger walk-throughs and `mai-bench`
//! for the experiment harness described in `EXPERIMENTS.md`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use mai_core as core;
pub use mai_cps as cps;
pub use mai_fj as fj;
pub use mai_lambda as lambda;
