//! The instances of one semantics agree.
//!
//! Each language writes `mnext` once; the closure carrier, the direct
//! carrier and the concrete heap are three instances of its semantic
//! interface.  These checks compare what the instances compute, not how:
//!
//! * Featherweight Java: the closure carrier's fixpoints equal the direct
//!   carrier's over the standard corpus and the nested-cells family,
//!   with and without abstract GC;
//! * λ-calculus: whenever the concrete interpreter halts on a committed
//!   seed or a standard-corpus term, its result is among the `Halted`
//!   closures of both carriers' monovariant and 1-CFA fixpoints — an
//!   oracle that shares no code with the abstract instances or the
//!   engines.

use std::collections::BTreeSet;
use std::sync::Arc;

use mai_core::engine::Budget;
use mai_fj::analysis as fa;
use mai_fj::programs as fp;
use mai_lambda::analysis as la;
use mai_lambda::concrete::{evaluate_governed, Outcome};
use mai_lambda::programs as lp;
use mai_lambda::{PState, Term};

mod common;
use common::{term_from_seed, COMMITTED_SEEDS};

#[test]
fn fj_closure_and_direct_fixpoints_agree() {
    let corpus = fp::standard_corpus()
        .into_iter()
        .map(|(name, program)| (name.to_owned(), program))
        .chain((1..=4).map(|n| (format!("nested-cells-{n}"), fp::nested_cells(n))));
    for (name, program) in corpus {
        assert_eq!(
            fa::analyse_mono(&program),
            fa::analyse_mono_direct(&program).0,
            "{name}: 0CFA"
        );
        assert_eq!(
            fa::analyse_kcfa_shared::<1>(&program),
            fa::analyse_kcfa_shared_direct::<1>(&program).0,
            "{name}: 1CFA"
        );
        assert_eq!(
            fa::analyse_kcfa_shared_gc::<1>(&program),
            fa::analyse_kcfa_shared_gc_direct::<1>(&program).0,
            "{name}: 1CFA with abstract GC"
        );
    }
}

/// The `(param, body)` of every `Halted` closure among `states`.
fn halted<'a, A: 'a, G: 'a>(
    states: impl IntoIterator<Item = &'a (PState<A>, G)>,
) -> BTreeSet<(String, Arc<Term>)> {
    states
        .into_iter()
        .filter_map(|(ps, _)| ps.result())
        .map(|v| (v.param.to_string(), v.body.clone()))
        .collect()
}

#[test]
fn lambda_concrete_results_are_covered_by_both_carriers() {
    // The committed seeds' halting terms all return a λ written in the
    // program text; the standard corpus adds results that flow through
    // bindings (Church arithmetic, let chains), so a lost store write fails.
    let seeds = COMMITTED_SEEDS
        .iter()
        .map(|seed| (format!("seed {seed:#x}"), term_from_seed(*seed)));
    let corpus = lp::standard_corpus()
        .into_iter()
        .map(|(name, term)| (name.to_owned(), term));
    // Divergent terms make the fresh-address interpreter quadratic, so the
    // budget stays small; a term that runs out of fuel is skipped.
    let budget = Budget::unlimited().with_max_steps(2_000);
    let mut halting = 0;
    for (name, term) in seeds.chain(corpus) {
        let Outcome::Halted { value, .. } = evaluate_governed(&term, &budget) else {
            continue;
        };
        halting += 1;
        let result = (value.param.to_string(), value.body.clone());
        let fixpoints = [
            ("closure 0CFA", halted(la::analyse_mono(&term).states())),
            (
                "direct 0CFA",
                halted(la::analyse_mono_direct(&term).0.states()),
            ),
            (
                "closure 1CFA",
                halted(la::analyse_kcfa_shared::<1>(&term).states()),
            ),
            (
                "direct 1CFA",
                halted(la::analyse_kcfa_shared_direct::<1>(&term).0.states()),
            ),
        ];
        for (carrier, results) in fixpoints {
            assert!(
                results.contains(&result),
                "{name}: {carrier} misses the concrete result λ{}. {}",
                result.0,
                result.1
            );
        }
    }
    assert!(halting > 0, "no term halts concretely");
}
