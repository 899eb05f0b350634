//! # mai-lambda — direct-style λ-calculus on a CESK machine
//!
//! The second language substrate of the *Monadic Abstract Interpreters*
//! reproduction.  The paper's own implementation replays its monadic
//! refactoring for a direct-style λ-calculus evaluated by a CESK machine
//! with store-allocated continuations; this crate is that replay in Rust:
//!
//! * [`syntax`] — terms (variables, λ, application, `let`) with labelled
//!   program points, plus Church-encoding builders.
//! * [`parser`] — a Scheme-like concrete syntax.
//! * [`machine`] — the monadic CESK machine: values, store-allocated
//!   continuations, the semantic interface [`machine::CeskInterface`] and
//!   the transition function [`machine::mnext`].
//! * [`concrete`] — the concrete interpreter (deterministic state monad
//!   over a real heap), including a Church-numeral decoder used for
//!   adequacy tests.
//! * [`analysis`] — the abstract interpreters, assembled from the *same*
//!   `mai-core` monads, contexts, stores and GC as the CPS and
//!   Featherweight Java substrates.
//! * [`programs`] — benchmark terms (Church arithmetic, blur, let-chains).
//!
//! ```rust
//! use mai_lambda::parser::parse_term;
//! use mai_lambda::analysis::analyse_mono;
//!
//! let term = parse_term("((λ (x) x) (λ (y) y))").unwrap();
//! let result = analyse_mono(&term);
//! assert!(result.distinct_states().iter().any(|s| s.is_final()));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod concrete;
pub mod direct;
pub mod machine;
pub mod parser;
pub mod programs;
pub mod syntax;

pub use analysis::{
    abstract_errors, analyse, analyse_kcfa, analyse_kcfa_shared, analyse_kcfa_shared_gc,
    analyse_kcfa_shared_gc_worklist, analyse_kcfa_shared_rescan, analyse_kcfa_shared_structural,
    analyse_kcfa_shared_worklist, analyse_kcfa_with_count, analyse_kcfa_with_count_worklist,
    analyse_kcfa_worklist, analyse_mono, analyse_mono_worklist, analyse_with_gc,
    analyse_with_gc_worklist, analyse_with_gc_worklist_rescan, analyse_with_gc_worklist_structural,
    analyse_worklist, analyse_worklist_rescan, analyse_worklist_structural, distinct_env_count,
    flow_map_of_store,
};
pub use analysis::{
    analyse_kcfa_shared_direct, analyse_kcfa_shared_direct_traced, analyse_kcfa_shared_elastic,
    analyse_kcfa_shared_elastic_traced, analyse_kcfa_shared_gc_direct,
    analyse_kcfa_shared_gc_elastic, analyse_kcfa_shared_parallel_traced,
    analyse_kcfa_with_count_direct, analyse_mono_direct, analyse_mono_elastic,
    analyse_with_gc_worklist_direct, analyse_worklist_direct, analyse_worklist_direct_traced,
    analyse_worklist_elastic_traced, analyse_worklist_parallel_traced,
};
pub use concrete::{decode_church_numeral, evaluate, evaluate_with_limit, Outcome};
pub use direct::mnext_direct;
pub use machine::{mnext, CeskInterface, Closure, Control, Env, Kont, KontKind, PState, Storable};
pub use parser::{parse_term, ParseTermError};
pub use syntax::{church_numeral, Term, TermBuilder, Var};
