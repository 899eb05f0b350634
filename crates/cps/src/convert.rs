//! CPS transformation from the direct-style λ-calculus of `mai-lambda`.
//!
//! The paper's CPS development and its direct-style (CESK) development are
//! two views of the same programs; this module provides the call-by-value
//! CPS transform connecting them, which the benchmark harness uses to run
//! identical workloads (Church arithmetic, blur, let-chains) through both
//! substrates.

use mai_core::name::{LabelSupply, Name};
use mai_lambda::syntax::Term;

use crate::syntax::{AExp, CExp, Lambda};

/// A call-by-value CPS converter with its own supplies of fresh labels and
/// fresh administrative variables.
#[derive(Debug, Default)]
pub struct CpsConverter {
    labels: LabelSupply,
    gensym: u64,
}

impl CpsConverter {
    /// Creates a fresh converter.
    pub fn new() -> Self {
        CpsConverter {
            labels: LabelSupply::new(),
            gensym: 0,
        }
    }

    fn fresh(&mut self, hint: &str) -> Name {
        self.gensym += 1;
        Name::from(format!("${hint}{}", self.gensym))
    }

    /// Converts a direct-style term into a whole CPS *program* whose final
    /// continuation binds the result to `$result` and exits.
    pub fn program(&mut self, term: &Term) -> CExp {
        let halt = AExp::lam(vec![Name::from("$result")], CExp::Exit);
        self.convert(term, halt)
    }

    /// The Fischer-style call-by-value CPS transform `⟦term⟧ k`.
    pub fn convert(&mut self, term: &Term, k: AExp) -> CExp {
        match term {
            Term::Var(x) => {
                let label = self.labels.fresh();
                CExp::call(label, k, vec![AExp::Ref(x.clone())])
            }
            Term::Lam { param, body, .. } => {
                let kv = self.fresh("k");
                let body_cps = self.convert(body, AExp::Ref(kv.clone()));
                let label = self.labels.fresh();
                CExp::call(
                    label,
                    k,
                    vec![AExp::Lam(Lambda::new(vec![param.clone(), kv], body_cps))],
                )
            }
            Term::App { func, arg, .. } => {
                let fv = self.fresh("f");
                let vv = self.fresh("v");
                let label = self.labels.fresh();
                let apply =
                    CExp::call(label, AExp::Ref(fv.clone()), vec![AExp::Ref(vv.clone()), k]);
                let arg_cps = self.convert(arg, AExp::Lam(Lambda::new(vec![vv], apply)));
                self.convert(func, AExp::Lam(Lambda::new(vec![fv], arg_cps)))
            }
            Term::Let {
                name, rhs, body, ..
            } => {
                let body_cps = self.convert(body, k);
                self.convert(rhs, AExp::Lam(Lambda::new(vec![name.clone()], body_cps)))
            }
        }
    }
}

/// Converts a closed direct-style term into a CPS program.
///
/// ```rust
/// use mai_cps::convert::cps_convert;
/// use mai_lambda::parser::parse_term;
///
/// let term = parse_term("((λ (x) x) (λ (y) y))").unwrap();
/// let program = cps_convert(&term);
/// assert!(program.is_closed());
/// ```
pub fn cps_convert(term: &Term) -> CExp {
    CpsConverter::new().program(term)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::analyse_mono;
    use crate::concrete::{interpret_with_limit, Outcome};
    use crate::semantics::PState;
    use mai_lambda::syntax::{church_numeral, TermBuilder};

    fn decode_cps_church(numeral: &Term) -> usize {
        // Apply the numeral to a counting function and decode by counting
        // the heap cells allocated for the counter's parameter, exactly as
        // the direct-style decoder does.
        let mut b = TermBuilder::new();
        let applied = b.apps(
            numeral.clone(),
            vec![
                Term::lam("cf", Term::var("cf")),
                Term::lam("cx", Term::var("cx")),
            ],
        );
        let program = cps_convert(&applied);
        match interpret_with_limit(&program, 1_000_000) {
            Outcome::Halted { heap, .. } => heap.allocations_for(&Name::from("cf")),
            Outcome::OutOfFuel { .. } => panic!("church decoding diverged"),
            Outcome::Stuck { state, .. } => panic!("church decoding got stuck at {state:?}"),
        }
    }

    #[test]
    fn converted_programs_are_closed_cps() {
        for (name, term) in mai_lambda::programs::standard_corpus() {
            let program = cps_convert(&term);
            assert!(program.is_closed(), "{name} converted to an open program");
            assert!(program.call_site_count() > 0, "{name} lost its call sites");
        }
    }

    #[test]
    fn conversion_preserves_church_arithmetic() {
        let mut b = TermBuilder::new();
        for n in 0..4 {
            let numeral = church_numeral(&mut b, n);
            assert_eq!(decode_cps_church(&numeral), n);
        }
        assert_eq!(
            decode_cps_church(&mai_lambda::programs::church_addition(2, 3)),
            5
        );
        assert_eq!(
            decode_cps_church(&mai_lambda::programs::church_multiplication(2, 3)),
            6
        );
        assert_eq!(
            decode_cps_church(&mai_lambda::programs::church_exponentiation(2, 3)),
            8
        );
    }

    #[test]
    fn converted_identity_halts_concretely_and_abstractly() {
        let program = cps_convert(&mai_lambda::programs::identity_application());
        assert!(interpret_with_limit(&program, 10_000).halted());
        let result = analyse_mono(&program);
        assert!(result.distinct_states().iter().any(PState::is_final));
    }

    #[test]
    fn converted_omega_still_diverges_concretely_but_analyses_finitely() {
        let program = cps_convert(&mai_lambda::programs::omega());
        assert!(!interpret_with_limit(&program, 2_000).halted());
        let result = analyse_mono(&program);
        assert!(!result.is_empty());
    }

    #[test]
    fn administrative_variables_do_not_capture_source_variables() {
        // A source program that uses names colliding with the converter's
        // hints must still convert to a closed, well-behaved program.
        let term = mai_lambda::parser::parse_term("(let (f (λ (v) v)) (f (λ (k) k)))").unwrap();
        let program = cps_convert(&term);
        assert!(program.is_closed());
        assert!(interpret_with_limit(&program, 10_000).halted());
    }
}
