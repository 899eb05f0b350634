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
//!   engines;
//! * CPS: whenever the concrete interpreter halts on a standard-corpus
//!   program or the k-CFA worst case, every binding reachable from its
//!   final environment is in the flow map of the 0CFA fixpoint and of
//!   both carriers' 1-CFA fixpoints.

use std::collections::BTreeSet;
use std::sync::Arc;

use mai_core::analyse::{self, Gc};
use mai_core::engine::Budget;
use mai_core::name::Name;
use mai_cps::analysis as ca;
use mai_cps::programs as cp;
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
            analyse::direct::<fa::MonoFjShared>(&program, Gc::Off).0,
            "{name}: 0CFA"
        );
        assert_eq!(
            fa::analyse_kcfa_shared::<1>(&program),
            analyse::direct::<fa::KFjShared<1>>(&program, Gc::Off).0,
            "{name}: 1CFA"
        );
        assert_eq!(
            fa::analyse_kcfa_shared_gc::<1>(&program),
            analyse::direct::<fa::KFjShared<1>>(&program, Gc::On).0,
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
    // A term that runs out of fuel (a divergent one) is skipped.
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
                halted(
                    analyse::direct::<la::MonoCeskShared>(&term, Gc::Off)
                        .0
                        .states(),
                ),
            ),
            (
                "closure 1CFA",
                halted(la::analyse_kcfa_shared::<1>(&term).states()),
            ),
            (
                "direct 1CFA",
                halted(
                    analyse::direct::<la::KCeskShared<1>>(&term, Gc::Off)
                        .0
                        .states(),
                ),
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

/// Every `(variable, λ)` binding reachable from the final environment of a
/// halted CPS run, following the environments closures captured.
fn concrete_cps_bindings(outcome: &mai_cps::Outcome) -> Vec<(Name, mai_cps::Lambda)> {
    let heap = outcome.heap();
    let mut pending: Vec<(Name, mai_cps::HeapAddr)> = outcome
        .state()
        .env
        .iter()
        .map(|(v, a)| (v.clone(), a.clone()))
        .collect();
    let mut seen = BTreeSet::new();
    let mut bindings = Vec::new();
    while let Some((var, addr)) = pending.pop() {
        if !seen.insert(addr.clone()) {
            continue;
        }
        let val = heap
            .read(&addr)
            .unwrap_or_else(|| panic!("the concrete heap has no binding for {var}"));
        bindings.push((var, val.lambda().clone()));
        let mai_cps::Val::Clo { env, .. } = val;
        pending.extend(env.iter().map(|(v, a)| (v.clone(), a.clone())));
    }
    bindings
}

#[test]
fn cps_concrete_bindings_are_in_every_flow_map() {
    let corpus = cp::standard_corpus()
        .into_iter()
        .map(|(name, program)| (name.to_owned(), program))
        .chain([("kcfa-worst-case-2".to_owned(), cp::kcfa_worst_case(2))]);
    let budget = Budget::unlimited().with_max_steps(100_000);
    let mut halting = 0;
    for (name, program) in corpus {
        let outcome = mai_cps::concrete::interpret_governed(&program, &budget);
        if !outcome.halted() {
            continue;
        }
        halting += 1;
        let flows = [
            (
                "0CFA",
                mai_cps::flow_map_of_store(ca::analyse_mono(&program).store()),
            ),
            (
                "closure 1CFA",
                mai_cps::flow_map_of_store(ca::analyse_kcfa_shared::<1>(&program).store()),
            ),
            (
                "direct 1CFA",
                mai_cps::flow_map_of_store(
                    analyse::direct::<ca::KCfaShared<1>>(&program, Gc::Off)
                        .0
                        .store(),
                ),
            ),
        ];
        let bindings = concrete_cps_bindings(&outcome);
        assert!(!bindings.is_empty(), "{name}: no concrete bindings");
        for (var, lambda) in bindings {
            for (analysis, flow) in &flows {
                assert!(
                    flow.get(&var).is_some_and(|lams| lams.contains(&lambda)),
                    "{name}: the {analysis} flow map misses the concrete binding of {var}"
                );
            }
        }
    }
    // Every corpus program but Ω halts.
    assert_eq!(halting, cp::standard_corpus().len());
}
