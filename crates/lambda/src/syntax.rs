//! Syntax of the direct-style λ-calculus.
//!
//! The paper's accompanying implementation replays the monadic refactoring
//! for a direct-style λ-calculus evaluated by a CESK machine; this module is
//! the syntax for that substrate.  Applications and `let`-bindings carry
//! [`Label`]s so that the same k-CFA context machinery applies unchanged.

use std::cmp::Ordering;
use std::collections::BTreeSet;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, OnceLock};

use mai_core::name::{Label, LabelSupply, Name};

/// A variable.
pub type Var = Name;

/// A direct-style λ-term.
///
/// Machine states embed the term they evaluate, so the engines hash and
/// order terms on every intern and every set operation, and a derived
/// `Hash` or `Ord` would walk the whole remaining program each time.  The
/// hand-written impls below cost O(1) per state where the program's
/// sharing allows it; `Eq` stays derived, since `Arc`'s `Eq` already
/// answers pointer-equal children without a walk.
///
/// Each compound node caches its free variables ([`Term::cached_free_vars`]),
/// which abstract GC reads on every step; the cache takes no part in
/// equality, order or hashing.
#[derive(Clone, PartialEq, Eq)]
pub enum Term {
    /// A variable reference.
    Var(Var),
    /// A λ-abstraction `(λ (x) e)`.
    Lam {
        /// The formal parameter.
        param: Var,
        /// The body.
        body: Arc<Term>,
        /// The node's free variables, filled on first use.
        free: FreeVarCache,
    },
    /// An application `(e₀ e₁)`, labelled as a program point.
    App {
        /// The program-point label of this application.
        label: Label,
        /// The operator.
        func: Arc<Term>,
        /// The operand.
        arg: Arc<Term>,
        /// The node's free variables, filled on first use.
        free: FreeVarCache,
    },
    /// A `let`-binding `(let (x e₁) e₂)`, labelled as a program point.
    ///
    /// `let` is not strictly necessary (it is sugar for an application) but
    /// keeping it primitive makes the generated workloads and the CESK
    /// machine's behaviour easier to read.
    Let {
        /// The program-point label of this binding.
        label: Label,
        /// The bound variable.
        name: Var,
        /// The bound term.
        rhs: Arc<Term>,
        /// The body.
        body: Arc<Term>,
        /// The node's free variables, filled on first use.
        free: FreeVarCache,
    },
}

/// The free variables of one compound [`Term`] node, filled the first time
/// they are asked for, from its children's caches.  Not part of the term:
/// any two caches compare equal.  A clone of a filled cache shares its set.
#[derive(Clone, Default)]
pub struct FreeVarCache(OnceLock<Arc<BTreeSet<Var>>>);

impl PartialEq for FreeVarCache {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

impl Eq for FreeVarCache {}

/// Hashes the constructor and the field that names the node: the variable
/// of a `Var`, the label of an `App` or `Let`, and for a `Lam`, which has no
/// label, its parameter plus the same head of its body.  Labels are unique
/// within a program, so this is a cheap digest consistent with the
/// structural `Eq` (equal terms have equal heads).  Distinct terms of
/// different programs may collide; hash users resolve that with `Eq`, as
/// they must anyway.  CPS's `Lambda` and `CExp` hash the same way.
impl Hash for Term {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.hash_head(state);
        if let Term::Lam { body, .. } = self {
            body.hash_head(state);
        }
    }
}

impl PartialOrd for Term {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// The derived order (`Var < Lam < App < Let`, fields in declaration
/// order), except that pointer-equal children compare `Equal` without a
/// walk: `Arc`'s `Ord`, unlike its `Eq`, has no pointer shortcut, and the
/// states of one program share their subterms with it.
impl Ord for Term {
    fn cmp(&self, other: &Self) -> Ordering {
        fn child(a: &Arc<Term>, b: &Arc<Term>) -> Ordering {
            if Arc::ptr_eq(a, b) {
                Ordering::Equal
            } else {
                a.as_ref().cmp(b.as_ref())
            }
        }
        match (self, other) {
            (Term::Var(a), Term::Var(b)) => a.cmp(b),
            (
                Term::Lam {
                    param: pa,
                    body: ba,
                    ..
                },
                Term::Lam {
                    param: pb,
                    body: bb,
                    ..
                },
            ) => pa.cmp(pb).then_with(|| child(ba, bb)),
            (
                Term::App {
                    label: la,
                    func: fa,
                    arg: aa,
                    ..
                },
                Term::App {
                    label: lb,
                    func: fb,
                    arg: ab,
                    ..
                },
            ) => la
                .cmp(lb)
                .then_with(|| child(fa, fb))
                .then_with(|| child(aa, ab)),
            (
                Term::Let {
                    label: la,
                    name: na,
                    rhs: ra,
                    body: ba,
                    ..
                },
                Term::Let {
                    label: lb,
                    name: nb,
                    rhs: rb,
                    body: bb,
                    ..
                },
            ) => la
                .cmp(lb)
                .then_with(|| na.cmp(nb))
                .then_with(|| child(ra, rb))
                .then_with(|| child(ba, bb)),
            _ => self.rank().cmp(&other.rank()),
        }
    }
}

impl Term {
    /// The constructor's position in declaration order.
    fn rank(&self) -> u8 {
        match self {
            Term::Var(_) => 0,
            Term::Lam { .. } => 1,
            Term::App { .. } => 2,
            Term::Let { .. } => 3,
        }
    }

    /// Hashes the constructor and the field that names this node (see
    /// `Hash for Term`).
    fn hash_head<H: Hasher>(&self, state: &mut H) {
        std::mem::discriminant(self).hash(state);
        match self {
            Term::Var(name) | Term::Lam { param: name, .. } => name.hash(state),
            Term::App { label, .. } | Term::Let { label, .. } => label.hash(state),
        }
    }

    /// A variable reference.
    pub fn var(name: impl Into<Name>) -> Self {
        Term::Var(name.into())
    }

    /// A λ-abstraction.
    pub fn lam(param: impl Into<Name>, body: Term) -> Self {
        Term::Lam {
            param: param.into(),
            body: Arc::new(body),
            free: FreeVarCache::default(),
        }
    }

    /// Nested λ-abstractions over several parameters (curried).
    pub fn lams(params: &[&str], body: Term) -> Self {
        params.iter().rev().fold(body, |acc, p| Term::lam(*p, acc))
    }

    /// An application with an explicit label.
    pub fn app(label: Label, func: Term, arg: Term) -> Self {
        Term::App {
            label,
            func: Arc::new(func),
            arg: Arc::new(arg),
            free: FreeVarCache::default(),
        }
    }

    /// A `let`-binding with an explicit label.
    pub fn let_in(label: Label, name: impl Into<Name>, rhs: Term, body: Term) -> Self {
        Term::Let {
            label,
            name: name.into(),
            rhs: Arc::new(rhs),
            body: Arc::new(body),
            free: FreeVarCache::default(),
        }
    }

    /// The free variables of this term.
    pub fn free_vars(&self) -> BTreeSet<Var> {
        match self {
            Term::Var(v) => [v.clone()].into_iter().collect(),
            Term::Lam { param, body, .. } => {
                let mut free = body.free_vars();
                free.remove(param);
                free
            }
            Term::App { func, arg, .. } => {
                let mut free = func.free_vars();
                free.extend(arg.free_vars());
                free
            }
            Term::Let {
                name, rhs, body, ..
            } => {
                let mut free = body.free_vars();
                free.remove(name);
                free.extend(rhs.free_vars());
                free
            }
        }
    }

    /// The free variables, each once and in order, read from the per-node
    /// cache: the same set as [`Term::free_vars`], without its walk.  The
    /// first query below an unfilled node fills every unfilled node under
    /// it, bottom-up on an explicit stack (no recursion), from the
    /// children's caches.
    pub fn cached_free_vars(&self) -> impl Iterator<Item = &Var> + '_ {
        let (var, set) = match self {
            Term::Var(v) => (Some(v), None),
            _ => (None, Some(self.free_set().iter())),
        };
        var.into_iter().chain(set.into_iter().flatten())
    }

    /// The node's free-variable cache; `None` for a variable.
    fn cache(&self) -> Option<&FreeVarCache> {
        match self {
            Term::Var(_) => None,
            Term::Lam { free, .. } | Term::App { free, .. } | Term::Let { free, .. } => Some(free),
        }
    }

    /// The cached free variables of a compound node, filling the caches
    /// below it first (see [`Term::cached_free_vars`]).
    fn free_set(&self) -> &BTreeSet<Var> {
        let cache = self.cache().expect("a compound node");
        if cache.0.get().is_none() {
            let mut stack: Vec<(&Term, bool)> = vec![(self, false)];
            while let Some((term, ready)) = stack.pop() {
                let Some(cache) = term.cache() else { continue };
                if cache.0.get().is_some() {
                    continue;
                }
                if ready {
                    // Every child is filled: a racing filler computed
                    // the same set, so losing the race is harmless.
                    let _ = cache.0.set(term.free_from_children());
                } else {
                    stack.push((term, true));
                    stack.extend(term.children().map(|child| (child, false)));
                }
            }
        }
        cache.0.get().expect("filled above")
    }

    /// The immediate subterms.
    fn children(&self) -> impl Iterator<Item = &Term> {
        let (a, b) = match self {
            Term::Var(_) => (None, None),
            Term::Lam { body, .. } => (Some(body), None),
            Term::App { func, arg, .. } => (Some(func), Some(arg)),
            Term::Let { rhs, body, .. } => (Some(rhs), Some(body)),
        };
        a.into_iter().chain(b).map(Arc::as_ref)
    }

    /// The free variables of a compound node from its children's caches,
    /// which must be filled.  Every empty set is one shared allocation.
    fn free_from_children(&self) -> Arc<BTreeSet<Var>> {
        static EMPTY: OnceLock<Arc<BTreeSet<Var>>> = OnceLock::new();
        // `scoped` is the child the node's binder, if any, scopes over.
        let (scoped, bound, other) = match self {
            Term::Var(_) => unreachable!("variables have no cache"),
            Term::Lam { param, body, .. } => (body, Some(param), None),
            Term::App { func, arg, .. } => (func, None, Some(arg)),
            Term::Let {
                name, rhs, body, ..
            } => (body, Some(name), Some(rhs)),
        };
        let mut free: BTreeSet<Var> = scoped
            .cached_free_vars()
            .filter(|v| Some(*v) != bound)
            .cloned()
            .collect();
        if let Some(other) = other {
            free.extend(other.cached_free_vars().cloned());
        }
        if free.is_empty() {
            EMPTY.get_or_init(Arc::default).clone()
        } else {
            Arc::new(free)
        }
    }

    /// Whether the term is closed.
    pub fn is_closed(&self) -> bool {
        self.free_vars().is_empty()
    }

    /// All application/`let` labels in the term.
    pub fn labels(&self) -> BTreeSet<Label> {
        let mut out = BTreeSet::new();
        self.collect_labels(&mut out);
        out
    }

    fn collect_labels(&self, out: &mut BTreeSet<Label>) {
        if let Term::App { label, .. } | Term::Let { label, .. } = self {
            out.insert(*label);
        }
        for child in self.children() {
            child.collect_labels(out);
        }
    }

    /// The number of AST nodes — a simple program-size metric.
    pub fn size(&self) -> usize {
        1 + self.children().map(Term::size).sum::<usize>()
    }
}

impl fmt::Debug for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self)
    }
}

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Term::Var(v) => write!(f, "{}", v),
            Term::Lam { param, body, .. } => write!(f, "(λ ({}) {})", param, body),
            Term::App { func, arg, .. } => write!(f, "({} {})", func, arg),
            Term::Let {
                name, rhs, body, ..
            } => write!(f, "(let ({} {}) {})", name, rhs, body),
        }
    }
}

/// A builder that assigns fresh labels to applications and `let`s, for
/// constructing terms programmatically.
#[derive(Debug, Default)]
pub struct TermBuilder {
    labels: LabelSupply,
}

impl TermBuilder {
    /// Creates a fresh builder.
    pub fn new() -> Self {
        TermBuilder {
            labels: LabelSupply::new(),
        }
    }

    /// An application with a fresh label.
    pub fn app(&mut self, func: Term, arg: Term) -> Term {
        Term::app(self.labels.fresh(), func, arg)
    }

    /// Left-nested application of a function to several arguments.
    pub fn apps(&mut self, func: Term, args: Vec<Term>) -> Term {
        args.into_iter().fold(func, |acc, a| self.app(acc, a))
    }

    /// A `let`-binding with a fresh label.
    pub fn let_in(&mut self, name: &str, rhs: Term, body: Term) -> Term {
        Term::let_in(self.labels.fresh(), name, rhs, body)
    }
}

/// The Church numeral `n` as a direct-style term `λf. λx. fⁿ x`.
pub fn church_numeral(builder: &mut TermBuilder, n: usize) -> Term {
    let mut body = Term::var("x");
    for _ in 0..n {
        body = builder.app(Term::var("f"), body);
    }
    Term::lams(&["f", "x"], body)
}

/// Church addition `λm. λn. λf. λx. m f (n f x)`.
pub fn church_add(builder: &mut TermBuilder) -> Term {
    let nfx = {
        let nf = builder.app(Term::var("n"), Term::var("f"));
        builder.app(nf, Term::var("x"))
    };
    let mf = builder.app(Term::var("m"), Term::var("f"));
    let body = builder.app(mf, nfx);
    Term::lams(&["m", "n", "f", "x"], body)
}

/// Church multiplication `λm. λn. λf. m (n f)`.
pub fn church_mul(builder: &mut TermBuilder) -> Term {
    let nf = builder.app(Term::var("n"), Term::var("f"));
    let body = builder.app(Term::var("m"), nf);
    Term::lams(&["m", "n", "f"], body)
}

/// Church exponentiation `λm. λn. n m`.
pub fn church_exp(builder: &mut TermBuilder) -> Term {
    let body = builder.app(Term::var("n"), Term::var("m"));
    Term::lams(&["m", "n"], body)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn free_variables_respect_binders() {
        let t = Term::lam("x", Term::var("x"));
        assert!(t.is_closed());
        let open = Term::lam("x", Term::var("y"));
        assert_eq!(open.free_vars(), [Name::from("y")].into_iter().collect());
    }

    #[test]
    fn let_binds_only_in_the_body() {
        let mut b = TermBuilder::new();
        // (let (x x) x): the rhs reference to x is free.
        let t = b.let_in("x", Term::var("x"), Term::var("x"));
        assert_eq!(t.free_vars(), [Name::from("x")].into_iter().collect());
    }

    #[test]
    fn builders_assign_unique_labels() {
        let mut b = TermBuilder::new();
        let t = b.apps(
            Term::var("f"),
            vec![Term::var("a"), Term::var("b"), Term::var("c")],
        );
        assert_eq!(t.labels().len(), 3);
    }

    #[test]
    fn church_numerals_are_closed_and_grow_linearly() {
        let mut b = TermBuilder::new();
        for n in 0..6 {
            let c = church_numeral(&mut b, n);
            assert!(c.is_closed());
            assert_eq!(c.size(), 3 + 2 * n);
        }
        assert!(church_add(&mut b).is_closed());
        assert!(church_mul(&mut b).is_closed());
        assert!(church_exp(&mut b).is_closed());
    }

    #[test]
    fn display_is_readable() {
        let t = Term::lam("x", Term::var("x"));
        assert_eq!(t.to_string(), "(λ (x) x)");
        let mut b = TermBuilder::new();
        let a = b.app(Term::var("f"), Term::var("y"));
        assert_eq!(a.to_string(), "(f y)");
        let l = b.let_in("z", Term::var("a"), Term::var("z"));
        assert_eq!(l.to_string(), "(let (z a) z)");
    }

    /// Counts the writes a hash makes, whatever their width.
    #[derive(Default)]
    struct CountingHasher(usize);

    impl Hasher for CountingHasher {
        fn finish(&self) -> u64 {
            self.0 as u64
        }

        fn write(&mut self, _: &[u8]) {
            self.0 += 1;
        }
    }

    fn hash_writes(term: &Term) -> usize {
        let mut hasher = CountingHasher::default();
        term.hash(&mut hasher);
        hasher.0
    }

    /// `((λ (y) y) ((λ (y) y) … (λ (x) x)))` with `depth` identity
    /// applications.
    fn identity_nesting(depth: usize) -> Term {
        let source = format!(
            "{}(λ (x) x){}",
            "((λ (y) y) ".repeat(depth),
            ")".repeat(depth)
        );
        crate::parse_term(&source).expect("identity nesting parses")
    }

    /// `Term` with the derived order: the reference `Term::cmp` must agree
    /// with, compared by value all the way down.
    #[derive(PartialEq, Eq, PartialOrd, Ord)]
    enum Mirror {
        Var(Name),
        Lam(Name, Box<Mirror>),
        App(Label, Box<Mirror>, Box<Mirror>),
        Let(Label, Name, Box<Mirror>, Box<Mirror>),
    }

    fn mirror(term: &Term) -> Mirror {
        match term {
            Term::Var(v) => Mirror::Var(v.clone()),
            Term::Lam { param, body, .. } => Mirror::Lam(param.clone(), Box::new(mirror(body))),
            Term::App {
                label, func, arg, ..
            } => Mirror::App(*label, Box::new(mirror(func)), Box::new(mirror(arg))),
            Term::Let {
                label,
                name,
                rhs,
                body,
                ..
            } => Mirror::Let(
                *label,
                name.clone(),
                Box::new(mirror(rhs)),
                Box::new(mirror(body)),
            ),
        }
    }

    /// Every subterm of `term`, each a clone that shares its children with
    /// `term`.
    fn subterms(term: &Term, out: &mut Vec<Term>) {
        out.push(term.clone());
        match term {
            Term::Var(_) => {}
            Term::Lam { body, .. } => subterms(body, out),
            Term::App { func, arg, .. } => {
                subterms(func, out);
                subterms(arg, out);
            }
            Term::Let { rhs, body, .. } => {
                subterms(rhs, out);
                subterms(body, out);
            }
        }
    }

    #[test]
    fn hashing_a_term_does_not_walk_it() {
        // The deep parse and drop recurse once per level; give them room.
        let writes = std::thread::Builder::new()
            .stack_size(64 << 20)
            .spawn(|| {
                [10, 10_000].map(|depth| {
                    let term = identity_nesting(depth);
                    let Term::App { func, .. } = &term else {
                        panic!("identity nesting is an application");
                    };
                    (hash_writes(&term), hash_writes(func))
                })
            })
            .expect("spawn")
            .join()
            .expect("deep terms hash");
        assert_eq!(writes[0], writes[1]);
    }

    #[test]
    fn equal_terms_of_separate_parses_hash_and_order_alike() {
        let source = "(let (id (λ (x) x)) (let (k (λ (a b) a)) ((k id) (id (λ (y) y)))))";
        let first = crate::parse_term(source).expect("parses");
        let second = crate::parse_term(source).expect("parses");
        let (Term::Let { rhs: r1, .. }, Term::Let { rhs: r2, .. }) = (&first, &second) else {
            panic!("the program is a let");
        };
        assert!(!Arc::ptr_eq(r1, r2));
        assert_eq!(first, second);
        assert_eq!(
            mai_core::hash::fx_hash_of(&first),
            mai_core::hash::fx_hash_of(&second)
        );
        assert_eq!(first.cmp(&second), Ordering::Equal);
        // Subterms of one parse share children with it (the pointer
        // shortcut decides), those of the other parse do not (the walk
        // decides); the order must be the derived one either way.  A
        // different program of the same shape numbers its labels alike,
        // so its nodes meet equal labels over different children.
        let other = crate::parse_term("(let (id (λ (x) x)) (let (k (λ (a b) b)) ((id k) (k id))))")
            .expect("parses");
        let mut terms = Vec::new();
        for term in [&first, &second, &other] {
            subterms(term, &mut terms);
        }
        let mirrors: Vec<Mirror> = terms.iter().map(mirror).collect();
        for (a, ma) in terms.iter().zip(&mirrors) {
            for (b, mb) in terms.iter().zip(&mirrors) {
                assert_eq!(a.cmp(b), ma.cmp(mb), "{a} vs {b}");
                assert_eq!(a.cmp(b) == Ordering::Equal, a == b, "{a} vs {b}");
                if a == b {
                    assert_eq!(mai_core::hash::fx_hash_of(a), mai_core::hash::fx_hash_of(b));
                }
            }
        }
    }

    #[test]
    fn cached_free_variables_equal_the_walk_on_every_subterm() {
        let mut b = TermBuilder::new();
        let xz = b.app(Term::var("x"), Term::var("z"));
        let shadowing = b.let_in("x", Term::var("x"), Term::lam("y", xz));
        let mut programs: Vec<Term> = crate::programs::standard_corpus()
            .into_iter()
            .map(|(_, term)| term)
            .collect();
        programs.extend([shadowing, identity_nesting(50)]);
        for program in &programs {
            let mut terms = Vec::new();
            subterms(program, &mut terms);
            // Fill from the root down, then read every subterm's own cache.
            assert_eq!(
                program.cached_free_vars().cloned().collect::<BTreeSet<_>>(),
                program.free_vars(),
                "{program}"
            );
            for term in &terms {
                let cached: Vec<&Var> = term.cached_free_vars().collect();
                assert!(cached.windows(2).all(|w| w[0] < w[1]), "{term}");
                assert_eq!(
                    cached.into_iter().cloned().collect::<BTreeSet<_>>(),
                    term.free_vars(),
                    "{term}"
                );
            }
        }
    }

    #[test]
    fn the_cache_is_not_part_of_the_term() {
        let source = "(let (id (λ (x) x)) ((id id) (λ (y) (id y))))";
        let filled = crate::parse_term(source).expect("parses");
        let fresh = crate::parse_term(source).expect("parses");
        assert_eq!(filled.cached_free_vars().count(), 0);
        assert_eq!(filled, fresh);
        assert_eq!(filled.cmp(&fresh), Ordering::Equal);
        assert_eq!(
            mai_core::hash::fx_hash_of(&filled),
            mai_core::hash::fx_hash_of(&fresh)
        );
    }

    #[test]
    fn lams_curry_in_the_right_order() {
        let t = Term::lams(&["a", "b"], Term::var("a"));
        match t {
            Term::Lam { param, body, .. } => {
                assert_eq!(param, Name::from("a"));
                match body.as_ref() {
                    Term::Lam { param, .. } => assert_eq!(param, &Name::from("b")),
                    _ => panic!("expected nested lambda"),
                }
            }
            _ => panic!("expected lambda"),
        }
    }
}
