//! # mai-fj — Featherweight Java
//!
//! The third language substrate of the *Monadic Abstract Interpreters*
//! reproduction: Featherweight Java (Igarashi, Pierce & Wadler), analysed by
//! exactly the same monadic parameters — contexts, stores, counting,
//! garbage collection, per-state vs. shared stores — as the two λ-calculi.
//!
//! * [`syntax`] — expressions, class declarations and class tables with the
//!   standard *fields*/*mtype*/*mbody*/subtyping lookups.
//! * [`typecheck`] — the Featherweight Java type system.
//! * [`machine`] — the monadic abstract machine (store-allocated objects
//!   and continuations) behind the semantic interface
//!   [`machine::FjInterface`].
//! * [`concrete`] — the concrete interpreter.
//! * [`analysis`] — the monovariant and k-call-site-sensitive analyses,
//!   counting stores, abstract GC and class-flow extraction.
//! * [`programs`] — well-typed example programs and generators.
//!
//! ```rust
//! use mai_fj::programs::pair_fst;
//! use mai_fj::analysis::{analyse_kcfa_shared, result_classes};
//!
//! let program = pair_fst();
//! let result = analyse_kcfa_shared::<1>(&program);
//! assert_eq!(
//!     result_classes(&result),
//!     [mai_core::Name::from("A")].into_iter().collect()
//! );
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod concrete;
pub mod direct;
pub mod machine;
pub mod programs;
pub mod syntax;
pub mod typecheck;

pub use analysis::{
    abstract_errors, analyse, analyse_kcfa, analyse_kcfa_shared, analyse_kcfa_shared_gc,
    analyse_kcfa_shared_gc_worklist, analyse_kcfa_shared_rescan, analyse_kcfa_shared_structural,
    analyse_kcfa_shared_worklist, analyse_kcfa_with_count, analyse_kcfa_with_count_worklist,
    analyse_kcfa_worklist, analyse_mono, analyse_mono_worklist, analyse_with_gc,
    analyse_with_gc_worklist, analyse_with_gc_worklist_rescan, analyse_with_gc_worklist_structural,
    analyse_worklist, analyse_worklist_rescan, analyse_worklist_structural, class_flow_map,
    distinct_env_count, result_classes, FjAnalyser,
};
pub use analysis::{
    analyse_kcfa_shared_direct, analyse_kcfa_shared_direct_traced, analyse_kcfa_shared_elastic,
    analyse_kcfa_shared_elastic_traced, analyse_kcfa_shared_gc_direct,
    analyse_kcfa_shared_gc_elastic, analyse_kcfa_shared_parallel_traced,
    analyse_kcfa_with_count_direct, analyse_mono_direct, analyse_mono_elastic,
    analyse_with_gc_worklist_direct, analyse_worklist_direct, analyse_worklist_direct_traced,
    analyse_worklist_elastic_traced, analyse_worklist_parallel_traced,
};
pub use concrete::{run, run_with_limit, Outcome};
pub use direct::mnext_direct;
pub use machine::{mnext, Control, Env, FjInterface, Kont, KontKind, Obj, PState, Storable};
pub use syntax::{ClassDecl, ClassTable, Expr, ExprBuilder, MethodDecl, Program};
pub use typecheck::{check_program, type_of, TypeEnv, TypeError};
