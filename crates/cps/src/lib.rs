//! # mai-cps — continuation-passing-style λ-calculus
//!
//! The CPS substrate of the *Monadic Abstract Interpreters* reproduction:
//! the language the paper develops in full (§2–§8).
//!
//! * [`syntax`] — the grammar of Figure 1, with labelled call sites.
//! * [`parser`] — a Scheme-like concrete syntax.
//! * [`semantics`] — the monadic semantic interface `CPSInterface`
//!   (Figure 2), partial states, values, and the single transition rule
//!   [`semantics::mnext`] written once against the interface.
//! * [`concrete`] — the concrete interpreter of §4, recovered by choosing a
//!   deterministic state monad over a real heap.
//! * [`analysis`] — the `StorePassing` instance (§5.3, §6), the CPS
//!   [`Machine`](mai_core::analyse::Machine) that every solve of
//!   [`mai_core::analyse`] runs, and the k-CFA analysis family of §8 as
//!   domain types (`KCfaPerState`, `KCfaShared`, `KCfaCounting`, the
//!   monovariant `MonoShared`) with the paper's named analyses
//!   (`analyse_kcfa`, `analyse_kcfa_shared`, `analyse_kcfa_with_count`,
//!   GC'd variants, `analyse_mono`) and the fresh-address concrete
//!   collecting semantics.
//! * [`programs`] — benchmark programs and generators.
//! * [`convert`] — a CPS transform from the direct-style λ-calculus of
//!   `mai-lambda`, used to obtain realistic workloads (Church arithmetic).
//!
//! ```rust
//! use mai_cps::parser::parse_program;
//! use mai_cps::analysis::{analyse_mono, flow_map_of_store};
//!
//! let program = parse_program("((λ (x k) (k x)) (λ (y j) (j y)) (λ (r) exit))").unwrap();
//! let result = analyse_mono(&program);
//! let flows = flow_map_of_store(result.store());
//! // The analysis discovers that x may only be bound to (λ (y j) (j y)).
//! assert_eq!(flows[&mai_core::Name::from("x")].len(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod concrete;
pub mod convert;
pub mod direct;
pub mod parser;
pub mod programs;
pub mod semantics;
pub mod syntax;

pub use analysis::{
    abstract_errors, analyse_concrete_collecting, analyse_kcfa, analyse_kcfa_count_cloned,
    analyse_kcfa_gc, analyse_kcfa_shared, analyse_kcfa_shared_direct,
    analyse_kcfa_shared_direct_traced, analyse_kcfa_shared_elastic, analyse_kcfa_shared_gc,
    analyse_kcfa_shared_structural, analyse_kcfa_shared_worklist, analyse_kcfa_with_count,
    analyse_mono, distinct_env_count, flow_map_of_store, AnalysisMetrics, FlowMap,
};
pub use concrete::{interpret, interpret_with_limit, Heap, HeapAddr, Outcome};
pub use convert::cps_convert;
pub use direct::mnext_direct;
pub use parser::{parse_program, ParseCpsError};
pub use semantics::{mnext, CpsInterface, Env, PState, Val};
pub use syntax::{AExp, CExp, Lambda, Var};
