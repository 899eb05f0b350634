//! Syntax of the continuation-passing-style λ-calculus (paper Figure 1).
//!
//! CPS partitions the λ-calculus into two worlds: *atomic expressions*
//! (variable references and λ-abstractions, evaluation of which always
//! terminates and has no effect) and *call sites* (the application of a
//! function to atomic arguments), plus a distinguished `exit` call.

use std::fmt;
use std::sync::Arc;

use mai_core::name::{Label, Name};

/// A variable.  CPS variables are plain [`Name`]s.
pub type Var = Name;

/// A λ-abstraction `(λ (v₁ … vₙ) call)`.
///
/// The fields are private (read through [`Lambda::params`] /
/// [`Lambda::body`]): the cached free-variable set and the label-based
/// `Hash` are only sound while an abstraction is immutable after
/// construction, so no mutation is exposed.
#[derive(Clone)]
pub struct Lambda {
    /// The formal parameters, shared by every clone of this abstraction
    /// (a closure value is cloned into every branch that fetches it).
    params: Arc<[Var]>,
    /// The body — always a call site in CPS.
    body: Arc<CExp>,
    /// The lazily computed free variables, shared by every clone of this
    /// abstraction.  Free-variable sets drive the `Touches` instances (and
    /// through them abstract GC and the engines' read-dependency sets), so
    /// every transition used to recompute this subtree walk many times
    /// over.  Not part of the value: equality, ordering and hashing ignore
    /// it.
    free: std::sync::Arc<std::sync::OnceLock<std::collections::BTreeSet<Var>>>,
}

impl PartialEq for Lambda {
    fn eq(&self, other: &Self) -> bool {
        self.params == other.params && self.body == other.body
    }
}

impl Eq for Lambda {}

impl PartialOrd for Lambda {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Lambda {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.params
            .cmp(&other.params)
            .then_with(|| self.body.cmp(&other.body))
    }
}

/// Hashing a λ-abstraction must not walk its whole body: abstract machine
/// states embed program fragments, and the hash-consing engine layer hashes
/// states constantly.  The head label of the body identifies the call site
/// (labels are unique within a program), so `params + head label` is a
/// cheap digest that is consistent with the structural `Eq` — equal lambdas
/// have equal parameter lists and equal (hence equally-labelled) bodies.
/// Distinct lambdas from *different* programs may collide; hash users
/// resolve that with their equality checks, as they must anyway.
impl std::hash::Hash for Lambda {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.params.hash(state);
        self.body.label().hash(state);
    }
}

impl Lambda {
    /// Creates a λ-abstraction.
    pub fn new(params: Vec<Var>, body: CExp) -> Self {
        Lambda {
            params: params.into(),
            body: Arc::new(body),
            free: std::sync::Arc::new(std::sync::OnceLock::new()),
        }
    }

    /// The formal parameters.
    pub fn params(&self) -> &[Var] {
        &self.params
    }

    /// The body — always a call site in CPS.
    pub fn body(&self) -> &Arc<CExp> {
        &self.body
    }

    /// The free variables of this λ-abstraction.
    pub fn free_vars(&self) -> std::collections::BTreeSet<Var> {
        self.free_vars_ref().clone()
    }

    /// The free variables, borrowed from the per-abstraction cache (the
    /// subtree walk happens once per abstraction, not once per query).
    pub fn free_vars_ref(&self) -> &std::collections::BTreeSet<Var> {
        self.free.get_or_init(|| {
            let mut free = self.body.free_vars();
            for p in self.params.iter() {
                free.remove(p);
            }
            free
        })
    }
}

impl fmt::Debug for Lambda {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self)
    }
}

impl fmt::Display for Lambda {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(λ (")?;
        for (i, p) in self.params.iter().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            write!(f, "{}", p)?;
        }
        write!(f, ") {})", self.body)
    }
}

/// An atomic expression: a variable reference or a λ-abstraction.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum AExp {
    /// A variable reference.
    Ref(Var),
    /// A λ-abstraction.
    Lam(Lambda),
}

impl AExp {
    /// Convenience constructor for a variable reference.
    pub fn var(name: impl Into<Name>) -> Self {
        AExp::Ref(name.into())
    }

    /// Convenience constructor for a λ-abstraction.
    pub fn lam(params: Vec<Var>, body: CExp) -> Self {
        AExp::Lam(Lambda::new(params, body))
    }

    /// The free variables of this atomic expression.
    pub fn free_vars(&self) -> std::collections::BTreeSet<Var> {
        match self {
            AExp::Ref(v) => [v.clone()].into_iter().collect(),
            AExp::Lam(lam) => lam.free_vars(),
        }
    }
}

impl fmt::Debug for AExp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self)
    }
}

impl fmt::Display for AExp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AExp::Ref(v) => write!(f, "{}", v),
            AExp::Lam(lam) => write!(f, "{}", lam),
        }
    }
}

/// A call expression: either the application of a function to atomic
/// arguments, or the distinguished `exit` expression that halts the
/// machine.
///
/// Every call site carries a [`Label`] identifying it as a program point;
/// the k-CFA context machinery records sequences of these labels.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum CExp {
    /// `(f æ₁ … æₙ)` — apply `f` to the arguments.
    Call {
        /// The program-point label of this call site.
        label: Label,
        /// The operator position.
        f: AExp,
        /// The operand positions.
        args: Vec<AExp>,
    },
    /// The final state of the machine.
    Exit,
    /// A stuck control point, carrying an abstract error message.
    ///
    /// **Not source syntax**: the parser and builders never produce it.
    /// In CPS the machine's control component *is* a call expression, so
    /// the abstract error layer lives here — [`crate::semantics::mnext`]
    /// manufactures an `Error` state when a transition gets stuck (an
    /// unbound variable, an arity mismatch), making stuckness a
    /// reachable, observable state instead of a silently dropped branch.
    Error(String),
}

/// Call expressions hash by their label alone (see [`Lambda`]'s `Hash` for
/// the rationale): within one program the label determines the call site,
/// so the digest is consistent with the structural `Eq` at O(1) cost
/// instead of a full-subtree walk per machine-state hash.
impl std::hash::Hash for CExp {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        std::mem::discriminant(self).hash(state);
        self.label().hash(state);
    }
}

impl CExp {
    /// Creates a call expression.
    pub fn call(label: Label, f: AExp, args: Vec<AExp>) -> Self {
        CExp::Call { label, f, args }
    }

    /// The label of this call site ([`Label::none`] for `exit` and error
    /// states).
    pub fn label(&self) -> Label {
        match self {
            CExp::Call { label, .. } => *label,
            CExp::Exit | CExp::Error(_) => Label::none(),
        }
    }

    /// Whether this is the `exit` expression.
    pub fn is_exit(&self) -> bool {
        matches!(self, CExp::Exit)
    }

    /// The free variables of this call expression.
    pub fn free_vars(&self) -> std::collections::BTreeSet<Var> {
        match self {
            CExp::Call { f, args, .. } => {
                let mut free = f.free_vars();
                for a in args {
                    free.extend(a.free_vars());
                }
                free
            }
            CExp::Exit | CExp::Error(_) => std::collections::BTreeSet::new(),
        }
    }

    /// All call-site labels occurring in this expression (including inside
    /// nested λ-abstractions).  Useful for sanity checks and for sizing
    /// benchmark programs.
    pub fn labels(&self) -> std::collections::BTreeSet<Label> {
        fn go_cexp(e: &CExp, out: &mut std::collections::BTreeSet<Label>) {
            if let CExp::Call { label, f, args } = e {
                out.insert(*label);
                go_aexp(f, out);
                for a in args {
                    go_aexp(a, out);
                }
            }
        }
        fn go_aexp(e: &AExp, out: &mut std::collections::BTreeSet<Label>) {
            if let AExp::Lam(lam) = e {
                go_cexp(&lam.body, out);
            }
        }
        let mut out = std::collections::BTreeSet::new();
        go_cexp(self, &mut out);
        out
    }

    /// The number of call sites in the program.
    pub fn call_site_count(&self) -> usize {
        self.labels().len()
    }

    /// All λ-abstractions occurring in this expression, in syntactic order.
    pub fn lambdas(&self) -> Vec<Lambda> {
        fn go_cexp(e: &CExp, out: &mut Vec<Lambda>) {
            if let CExp::Call { f, args, .. } = e {
                go_aexp(f, out);
                for a in args {
                    go_aexp(a, out);
                }
            }
        }
        fn go_aexp(e: &AExp, out: &mut Vec<Lambda>) {
            if let AExp::Lam(lam) = e {
                out.push(lam.clone());
                go_cexp(&lam.body, out);
            }
        }
        let mut out = Vec::new();
        go_cexp(self, &mut out);
        out
    }

    /// Whether the program is closed (no free variables).
    pub fn is_closed(&self) -> bool {
        self.free_vars().is_empty()
    }
}

impl fmt::Debug for CExp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self)
    }
}

impl fmt::Display for CExp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CExp::Call { f: op, args, .. } => {
                write!(f, "({}", op)?;
                for a in args {
                    write!(f, " {}", a)?;
                }
                write!(f, ")")
            }
            CExp::Exit => write!(f, "exit"),
            CExp::Error(msg) => write!(f, "(error {:?})", msg),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CExp {
        // ((λ (x k) (k x)) (λ (y j) (j y)) (λ (r) exit))
        CExp::call(
            Label::new(1),
            AExp::lam(
                vec![Name::from("x"), Name::from("k")],
                CExp::call(Label::new(2), AExp::var("k"), vec![AExp::var("x")]),
            ),
            vec![
                AExp::lam(
                    vec![Name::from("y"), Name::from("j")],
                    CExp::call(Label::new(3), AExp::var("j"), vec![AExp::var("y")]),
                ),
                AExp::lam(vec![Name::from("r")], CExp::Exit),
            ],
        )
    }

    #[test]
    fn free_vars_of_closed_program_is_empty() {
        assert!(sample().is_closed());
    }

    #[test]
    fn free_vars_sees_through_binders() {
        let open = CExp::call(
            Label::new(1),
            AExp::lam(
                vec![Name::from("x")],
                CExp::call(Label::new(2), AExp::var("f"), vec![AExp::var("x")]),
            ),
            vec![AExp::var("y")],
        );
        let free = open.free_vars();
        assert!(free.contains(&Name::from("f")));
        assert!(free.contains(&Name::from("y")));
        assert!(!free.contains(&Name::from("x")));
    }

    #[test]
    fn labels_collects_all_call_sites() {
        let labels = sample().labels();
        assert_eq!(
            labels,
            [Label::new(1), Label::new(2), Label::new(3)]
                .into_iter()
                .collect()
        );
        assert_eq!(sample().call_site_count(), 3);
    }

    #[test]
    fn lambdas_are_enumerated_in_syntactic_order() {
        let lambdas = sample().lambdas();
        assert_eq!(lambdas.len(), 3);
        assert_eq!(lambdas[0].params[0], Name::from("x"));
        assert_eq!(lambdas[2].params[0], Name::from("r"));
    }

    #[test]
    fn display_renders_readable_sexps() {
        assert_eq!(
            sample().to_string(),
            "((λ (x k) (k x)) (λ (y j) (j y)) (λ (r) exit))"
        );
        assert_eq!(CExp::Exit.to_string(), "exit");
    }

    #[test]
    fn exit_has_the_reserved_label() {
        assert_eq!(CExp::Exit.label(), Label::none());
        assert!(CExp::Exit.is_exit());
        assert!(!sample().is_exit());
    }

    #[test]
    fn syntax_is_ordered_and_hashable() {
        use std::collections::BTreeSet;
        let mut set = BTreeSet::new();
        set.insert(sample());
        set.insert(sample());
        set.insert(CExp::Exit);
        assert_eq!(set.len(), 2);
    }
}
