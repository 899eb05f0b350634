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
//! * [`analysis`] — the `StorePassing` instance (§5.3, §6), abstract
//!   garbage collection and the k-CFA analysis family of §8
//!   (`analyse_kcfa`, `analyse_kcfa_shared`, `analyse_kcfa_with_count`,
//!   GC'd variants, the monovariant 0CFA, and the fresh-address concrete
//!   collecting semantics).
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
    abstract_errors, analyse, analyse_concrete_collecting, analyse_gc, analyse_gc_worklist,
    analyse_gc_worklist_rescan, analyse_gc_worklist_structural, analyse_kcfa,
    analyse_kcfa_count_cloned, analyse_kcfa_count_cloned_worklist, analyse_kcfa_gc,
    analyse_kcfa_gc_worklist, analyse_kcfa_shared, analyse_kcfa_shared_gc,
    analyse_kcfa_shared_gc_worklist, analyse_kcfa_shared_rescan, analyse_kcfa_shared_structural,
    analyse_kcfa_shared_worklist, analyse_kcfa_with_count, analyse_kcfa_with_count_worklist,
    analyse_kcfa_worklist, analyse_mono, analyse_mono_worklist, analyse_worklist,
    analyse_worklist_rescan, analyse_worklist_structural, distinct_env_count, flow_map_of_store,
    AnalysisMetrics, FlowMap,
};
pub use analysis::{
    analyse_gc_worklist_direct, analyse_kcfa_direct, analyse_kcfa_shared_direct,
    analyse_kcfa_shared_direct_traced, analyse_kcfa_shared_elastic,
    analyse_kcfa_shared_elastic_traced, analyse_kcfa_shared_gc_direct,
    analyse_kcfa_shared_gc_elastic, analyse_kcfa_shared_parallel_traced,
    analyse_kcfa_with_count_direct, analyse_kcfa_with_count_elastic, analyse_mono_direct,
    analyse_mono_elastic, analyse_worklist_direct, analyse_worklist_direct_traced,
    analyse_worklist_elastic_traced, analyse_worklist_parallel_traced,
};
pub use concrete::{interpret, interpret_with_limit, Heap, HeapAddr, Outcome};
pub use convert::cps_convert;
pub use direct::mnext_direct;
pub use parser::{parse_program, ParseCpsError};
pub use semantics::{mnext, CpsInterface, Env, PState, Val};
pub use syntax::{AExp, CExp, Lambda, Var};
