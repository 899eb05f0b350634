//! A parser for the direct-style λ-calculus.
//!
//! Grammar (s-expressions):
//!
//! ```text
//! e ::= x                      variable
//!     | (λ (x) e)              abstraction  (`lambda` also accepted;
//!     | (λ (x y …) e)           multi-parameter lambdas are curried)
//!     | (let (x e₁) e₂)        let-binding
//!     | (e₀ e₁ e₂ …)           application  (left-associated)
//! ```

use std::error::Error;
use std::fmt;

use mai_core::name::{LabelSupply, Name};
use mai_core::sexp::{parse_one, ParseSexpError, Sexp};

use crate::syntax::{Term, Var};

/// An error produced while parsing a direct-style term.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseTermError {
    /// The underlying s-expression was malformed.
    Sexp(ParseSexpError),
    /// A form was malformed (bad lambda, bad let, empty application, …).
    Malformed(String),
    /// A keyword was used as a variable.
    ReservedWord(String),
}

impl fmt::Display for ParseTermError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseTermError::Sexp(e) => write!(f, "malformed s-expression: {}", e),
            ParseTermError::Malformed(msg) => write!(f, "malformed term: {}", msg),
            ParseTermError::ReservedWord(w) => write!(f, "reserved word used as variable: {}", w),
        }
    }
}

impl Error for ParseTermError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ParseTermError::Sexp(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ParseSexpError> for ParseTermError {
    fn from(e: ParseSexpError) -> Self {
        ParseTermError::Sexp(e)
    }
}

const KEYWORDS: &[&str] = &["λ", "lambda", "let"];

fn parse_var(atom: &str) -> Result<Var, ParseTermError> {
    if KEYWORDS.contains(&atom) {
        return Err(ParseTermError::ReservedWord(atom.to_string()));
    }
    Ok(Name::from(atom))
}

fn parse_term_sexp(sexp: &Sexp, labels: &mut LabelSupply) -> Result<Term, ParseTermError> {
    match sexp {
        Sexp::Atom(a) => Ok(Term::Var(parse_var(a)?)),
        Sexp::List(items) => {
            if items.is_empty() {
                return Err(ParseTermError::Malformed("empty application".to_string()));
            }
            match items[0].as_atom() {
                Some(head) if head == "λ" || head == "lambda" => {
                    if items.len() != 3 {
                        return Err(ParseTermError::Malformed(
                            "lambda expects a parameter list and a body".to_string(),
                        ));
                    }
                    let params = match &items[1] {
                        Sexp::List(ps) if !ps.is_empty() => ps
                            .iter()
                            .map(|p| {
                                p.as_atom()
                                    .ok_or_else(|| {
                                        ParseTermError::Malformed(
                                            "parameters must be identifiers".to_string(),
                                        )
                                    })
                                    .and_then(parse_var)
                            })
                            .collect::<Result<Vec<_>, _>>()?,
                        _ => {
                            return Err(ParseTermError::Malformed(
                                "lambda expects a non-empty parenthesised parameter list"
                                    .to_string(),
                            ))
                        }
                    };
                    let body = parse_term_sexp(&items[2], labels)?;
                    Ok(params
                        .into_iter()
                        .rev()
                        .fold(body, |acc, p| Term::lam(p, acc)))
                }
                Some("let") => {
                    if items.len() != 3 {
                        return Err(ParseTermError::Malformed(
                            "let expects a binding and a body".to_string(),
                        ));
                    }
                    let (name, rhs) = match &items[1] {
                        Sexp::List(binding) if binding.len() == 2 => {
                            let name = binding[0]
                                .as_atom()
                                .ok_or_else(|| {
                                    ParseTermError::Malformed("let binds an identifier".to_string())
                                })
                                .and_then(parse_var)?;
                            let rhs = parse_term_sexp(&binding[1], labels)?;
                            (name, rhs)
                        }
                        _ => {
                            return Err(ParseTermError::Malformed(
                                "let expects a (name term) binding".to_string(),
                            ))
                        }
                    };
                    let body = parse_term_sexp(&items[2], labels)?;
                    Ok(Term::let_in(labels.fresh(), name, rhs, body))
                }
                _ => {
                    // Application, left-associated over all operands.
                    if items.len() == 1 {
                        return Err(ParseTermError::Malformed(
                            "an application needs at least one operand".to_string(),
                        ));
                    }
                    let terms = items
                        .iter()
                        .map(|s| parse_term_sexp(s, labels))
                        .collect::<Result<Vec<_>, _>>()?;
                    let mut iter = terms.into_iter();
                    let mut acc = iter.next().expect("non-empty");
                    for t in iter {
                        acc = Term::app(labels.fresh(), acc, t);
                    }
                    Ok(acc)
                }
            }
        }
    }
}

/// Parses a direct-style term from its s-expression concrete syntax.
///
/// # Errors
///
/// Returns [`ParseTermError`] when the input is not a well-formed term.
///
/// ```rust
/// use mai_lambda::parser::parse_term;
/// let t = parse_term("(let (id (λ (x) x)) (id id))").unwrap();
/// assert!(t.is_closed());
/// ```
pub fn parse_term(input: &str) -> Result<Term, ParseTermError> {
    let sexp = parse_one(input)?;
    let mut labels = LabelSupply::new();
    parse_term_sexp(&sexp, &mut labels)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_variables_lambdas_lets_and_applications() {
        let t = parse_term("(let (id (λ (x) x)) (id (lambda (y) y)))").unwrap();
        assert!(t.is_closed());
        assert_eq!(t.labels().len(), 2); // one let, one application
    }

    #[test]
    fn multi_parameter_lambdas_are_curried() {
        let t = parse_term("(λ (a b) a)").unwrap();
        match t {
            Term::Lam { param, body, .. } => {
                assert_eq!(param, Name::from("a"));
                assert!(matches!(body.as_ref(), Term::Lam { .. }));
            }
            _ => panic!("expected lambda"),
        }
    }

    #[test]
    fn applications_left_associate() {
        let t = parse_term("(f a b)").unwrap();
        match t {
            Term::App { func, arg, .. } => {
                assert_eq!(arg.as_ref(), &Term::var("b"));
                assert!(matches!(func.as_ref(), Term::App { .. }));
            }
            _ => panic!("expected application"),
        }
    }

    #[test]
    fn malformed_forms_are_rejected() {
        assert!(matches!(
            parse_term("()").unwrap_err(),
            ParseTermError::Malformed(_)
        ));
        assert!(matches!(
            parse_term("(λ (x))").unwrap_err(),
            ParseTermError::Malformed(_)
        ));
        assert!(matches!(
            parse_term("(λ () x)").unwrap_err(),
            ParseTermError::Malformed(_)
        ));
        assert!(matches!(
            parse_term("(let (x) x)").unwrap_err(),
            ParseTermError::Malformed(_)
        ));
        assert!(matches!(
            parse_term("(f)").unwrap_err(),
            ParseTermError::Malformed(_)
        ));
        assert!(matches!(
            parse_term("(f x").unwrap_err(),
            ParseTermError::Sexp(_)
        ));
        assert!(matches!(
            parse_term("(λ (let) let)").unwrap_err(),
            ParseTermError::ReservedWord(_)
        ));
    }

    #[test]
    fn parse_round_trips_through_display() {
        for text in [
            "(λ (x) x)",
            "((λ (x) x) (λ (y) y))",
            "(let (f (λ (x) x)) (f f))",
        ] {
            let parsed = parse_term(text).unwrap();
            let reparsed = parse_term(&parsed.to_string()).unwrap();
            assert_eq!(parsed.to_string(), reparsed.to_string());
        }
    }

    #[test]
    fn errors_display_and_chain() {
        let err = parse_term("(f x").unwrap_err();
        assert!(!err.to_string().is_empty());
        assert!(std::error::Error::source(&err).is_some());
    }
}
