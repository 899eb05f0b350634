//! A small s-expression reader.
//!
//! The CPS and direct-style λ-calculus front ends use a Scheme-like concrete
//! syntax (`(λ (x k) (k x))`), so the core crate provides one shared,
//! well-tested s-expression layer: a tokenizer, a parser producing [`Sexp`]
//! trees, and a pretty-printer.

use std::error::Error;
use std::fmt;

/// An s-expression: an atom or a parenthesised list of s-expressions.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Sexp {
    /// A bare token.
    Atom(String),
    /// A parenthesised sequence.
    List(Vec<Sexp>),
}

impl Sexp {
    /// Convenience constructor for atoms.
    pub fn atom(s: impl Into<String>) -> Self {
        Sexp::Atom(s.into())
    }

    /// Convenience constructor for lists.
    pub fn list(items: Vec<Sexp>) -> Self {
        Sexp::List(items)
    }

    /// The atom's text, if this is an atom.
    pub fn as_atom(&self) -> Option<&str> {
        match self {
            Sexp::Atom(s) => Some(s),
            Sexp::List(_) => None,
        }
    }

    /// The list's items, if this is a list.
    pub fn as_list(&self) -> Option<&[Sexp]> {
        match self {
            Sexp::Atom(_) => None,
            Sexp::List(items) => Some(items),
        }
    }
}

/// Drops a tree of any depth in constant stack: children move onto an
/// explicit stack instead of being dropped recursively, so a deeply nested
/// parse result cannot overflow the stack when it goes out of scope.
impl Drop for Sexp {
    fn drop(&mut self) {
        let Sexp::List(items) = self else { return };
        let mut pending = std::mem::take(items);
        while let Some(mut node) = pending.pop() {
            if let Sexp::List(children) = &mut node {
                pending.append(children);
            }
        }
    }
}

impl fmt::Display for Sexp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Sexp::Atom(s) => write!(f, "{}", s),
            Sexp::List(items) => {
                write!(f, "(")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, " ")?;
                    }
                    write!(f, "{}", item)?;
                }
                write!(f, ")")
            }
        }
    }
}

/// An error produced while reading s-expressions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseSexpError {
    /// A closing parenthesis with no matching opener.
    UnexpectedClose {
        /// Byte offset of the offending token.
        position: usize,
    },
    /// The input ended while a list was still open.
    UnexpectedEnd,
    /// Extra tokens after a complete s-expression (only reported by
    /// [`parse_one`]).
    TrailingTokens {
        /// Byte offset where the extra material starts.
        position: usize,
    },
    /// The input contained no s-expression at all (only reported by
    /// [`parse_one`]).
    Empty,
}

impl fmt::Display for ParseSexpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseSexpError::UnexpectedClose { position } => {
                write!(f, "unexpected ')' at byte {}", position)
            }
            ParseSexpError::UnexpectedEnd => write!(f, "unexpected end of input inside a list"),
            ParseSexpError::TrailingTokens { position } => {
                write!(f, "trailing tokens after expression at byte {}", position)
            }
            ParseSexpError::Empty => write!(f, "no expression found"),
        }
    }
}

impl Error for ParseSexpError {}

#[derive(Debug, Clone, PartialEq, Eq)]
enum Token {
    Open(usize),
    Close(usize),
    Atom(usize, String),
}

fn tokenize(input: &str) -> Vec<Token> {
    let mut tokens = Vec::new();
    let bytes: Vec<char> = input.chars().collect();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i];
        match c {
            ';' => {
                // Comment until end of line.
                while i < bytes.len() && bytes[i] != '\n' {
                    i += 1;
                }
            }
            '(' | '[' => {
                tokens.push(Token::Open(i));
                i += 1;
            }
            ')' | ']' => {
                tokens.push(Token::Close(i));
                i += 1;
            }
            c if c.is_whitespace() => {
                i += 1;
            }
            _ => {
                let start = i;
                let mut atom = String::new();
                while i < bytes.len()
                    && !bytes[i].is_whitespace()
                    && !matches!(bytes[i], '(' | ')' | '[' | ']' | ';')
                {
                    atom.push(bytes[i]);
                    i += 1;
                }
                tokens.push(Token::Atom(start, atom));
            }
        }
    }
    tokens
}

/// Parses every top-level s-expression in the input.
///
/// Comments start with `;` and run to the end of the line; square brackets
/// are accepted as synonyms for parentheses.
///
/// # Errors
///
/// Returns [`ParseSexpError`] on unbalanced parentheses.
///
/// ```rust
/// use mai_core::sexp::{parse_all, Sexp};
/// let forms = parse_all("(f x) y ; comment\n(g)").unwrap();
/// assert_eq!(forms.len(), 3);
/// assert_eq!(forms[1], Sexp::atom("y"));
/// ```
pub fn parse_all(input: &str) -> Result<Vec<Sexp>, ParseSexpError> {
    let tokens = tokenize(input);
    let mut stack: Vec<Vec<Sexp>> = vec![Vec::new()];
    for token in tokens {
        match token {
            Token::Open(_) => stack.push(Vec::new()),
            Token::Close(position) => {
                let finished = stack.pop().expect("stack never empty");
                match stack.last_mut() {
                    Some(parent) => parent.push(Sexp::List(finished)),
                    None => return Err(ParseSexpError::UnexpectedClose { position }),
                }
            }
            Token::Atom(_, text) => stack
                .last_mut()
                .expect("stack never empty")
                .push(Sexp::Atom(text)),
        }
    }
    if stack.len() != 1 {
        return Err(ParseSexpError::UnexpectedEnd);
    }
    Ok(stack.pop().expect("stack never empty"))
}

/// Parses exactly one s-expression, rejecting trailing material.
///
/// # Errors
///
/// Returns [`ParseSexpError`] on unbalanced parentheses, empty input, or
/// extra tokens after the first complete expression.
pub fn parse_one(input: &str) -> Result<Sexp, ParseSexpError> {
    let forms = parse_all(input)?;
    let mut iter = forms.into_iter();
    match (iter.next(), iter.next()) {
        (Some(form), None) => Ok(form),
        (Some(_), Some(_)) => Err(ParseSexpError::TrailingTokens { position: 0 }),
        (None, _) => Err(ParseSexpError::Empty),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn parses_nested_lists() {
        let parsed = parse_one("(f (g x) y)").unwrap();
        assert_eq!(
            parsed,
            Sexp::list(vec![
                Sexp::atom("f"),
                Sexp::list(vec![Sexp::atom("g"), Sexp::atom("x")]),
                Sexp::atom("y"),
            ])
        );
    }

    #[test]
    fn square_brackets_are_parentheses() {
        assert_eq!(parse_one("[f x]").unwrap(), parse_one("(f x)").unwrap());
    }

    #[test]
    fn comments_are_ignored() {
        let parsed = parse_all("; a program\n(f x) ; trailing\n").unwrap();
        assert_eq!(parsed.len(), 1);
    }

    #[test]
    fn unbalanced_parens_are_rejected() {
        assert_eq!(parse_one("(f x"), Err(ParseSexpError::UnexpectedEnd));
        assert!(matches!(
            parse_one("f x)"),
            Err(ParseSexpError::TrailingTokens { .. })
                | Err(ParseSexpError::UnexpectedClose { .. })
        ));
        assert!(matches!(
            parse_all(")"),
            Err(ParseSexpError::UnexpectedClose { .. })
        ));
    }

    #[test]
    fn empty_input_is_rejected_by_parse_one() {
        assert_eq!(parse_one("  ; nothing here\n"), Err(ParseSexpError::Empty));
        assert!(parse_all("").unwrap().is_empty());
    }

    #[test]
    fn unicode_atoms_survive() {
        let parsed = parse_one("(λ (x) x)").unwrap();
        assert_eq!(parsed.as_list().unwrap()[0], Sexp::atom("λ"));
    }

    #[test]
    fn display_round_trips_simple_forms() {
        let text = "(f (g x) y)";
        let parsed = parse_one(text).unwrap();
        assert_eq!(parsed.to_string(), text);
    }

    #[test]
    fn error_messages_are_nonempty() {
        for err in [
            ParseSexpError::UnexpectedClose { position: 3 },
            ParseSexpError::UnexpectedEnd,
            ParseSexpError::TrailingTokens { position: 0 },
            ParseSexpError::Empty,
        ] {
            assert!(!err.to_string().is_empty());
        }
    }

    #[test]
    fn a_deeply_nested_list_drops_on_a_small_stack() {
        const DEPTH: usize = 100_000;
        let text = format!("{}{}", "(".repeat(DEPTH), ")".repeat(DEPTH));
        std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(move || {
                let parsed = parse_one(&text).expect("balanced parentheses parse");
                assert!(parsed.as_list().is_some());
                drop(parsed);
            })
            .expect("spawn a 2 MiB thread")
            .join()
            .expect("parse and drop on a 2 MiB stack");
    }

    fn arb_sexp() -> impl Strategy<Value = Sexp> {
        let leaf = "[a-z][a-z0-9]{0,5}".prop_map(Sexp::Atom);
        leaf.prop_recursive(4, 32, 5, |inner| {
            proptest::collection::vec(inner, 0..5).prop_map(Sexp::List)
        })
    }

    proptest! {
        #[test]
        fn prop_print_then_parse_round_trips(sexp in arb_sexp()) {
            let printed = sexp.to_string();
            let reparsed = parse_one(&printed).unwrap();
            prop_assert_eq!(reparsed, sexp);
        }
    }
}
