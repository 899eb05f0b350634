//! The monadic CESK machine for the direct-style λ-calculus.
//!
//! This is the second language the paper's implementation replays the
//! monadic refactoring for: a CESK machine whose continuations are
//! *store-allocated* (as in "Abstracting Abstract Machines"), refactored so
//! that the store, the continuation store and time all live behind the
//! analysis monad.  The semantic interface [`CeskInterface`] plays the role
//! `CPSInterface` plays for CPS; the transition function [`mnext`] is again
//! written once and reused by the concrete interpreter and every analysis.

use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

use mai_core::addr::Address;
use mai_core::engine::StateRoots;
use mai_core::env::CowMap;
use mai_core::gc::Touches;
use mai_core::monad::StepMonad;
use mai_core::name::{Label, Name};

use crate::syntax::{Term, Var};

/// An environment: a finite map from variables to addresses, shared
/// copy-on-write — cloning an environment into a closure, frame or
/// successor state is a reference-count bump, and the map is copied only
/// when a shared handle is extended.
pub type Env<A> = CowMap<Var, A>;

/// A reference to a continuation: `None` is the halt continuation, `Some`
/// points at a store-allocated continuation.
pub type KontRef<A> = Option<A>;

/// A denotable value: a closure.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Closure<A> {
    /// The formal parameter.
    pub param: Var,
    /// The body.
    pub body: Arc<Term>,
    /// The captured environment.
    pub env: Env<A>,
}

impl<A: fmt::Debug> fmt::Debug for Closure<A> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "⟨λ{}. {}, {:?}⟩", self.param, self.body, self.env)
    }
}

impl<A: Address> Touches<A> for Closure<A> {
    fn touches(&self) -> BTreeSet<A> {
        let mut free = self.body.free_vars();
        free.remove(&self.param);
        free.iter()
            .filter_map(|v| self.env.get(v).cloned())
            .collect()
    }
}

/// A continuation frame, store-allocated.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Kont<A> {
    /// Evaluate the argument next (the operator has just been evaluated).
    Ar {
        /// The label of the application this frame belongs to.
        site: Label,
        /// The argument term still to be evaluated.
        arg: Arc<Term>,
        /// The environment in which to evaluate it.
        env: Env<A>,
        /// The rest of the continuation.
        next: KontRef<A>,
    },
    /// Apply the already-evaluated operator to the value being produced.
    Fn {
        /// The label of the application this frame belongs to.
        site: Label,
        /// The evaluated operator.
        closure: Closure<A>,
        /// The rest of the continuation.
        next: KontRef<A>,
    },
    /// Bind a `let` variable and continue with the body.
    LetK {
        /// The label of the `let` this frame belongs to.
        site: Label,
        /// The bound variable.
        name: Var,
        /// The body of the `let`.
        body: Arc<Term>,
        /// The environment of the `let`.
        env: Env<A>,
        /// The rest of the continuation.
        next: KontRef<A>,
    },
}

impl<A: fmt::Debug> fmt::Debug for Kont<A> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Kont::Ar { site, arg, .. } => write!(f, "Ar@{}({})", site, arg),
            Kont::Fn { site, closure, .. } => write!(f, "Fn@{}({:?})", site, closure),
            Kont::LetK { site, name, .. } => write!(f, "Let@{}({})", site, name),
        }
    }
}

impl<A: Address> Touches<A> for Kont<A> {
    fn touches(&self) -> BTreeSet<A> {
        match self {
            Kont::Ar { arg, env, next, .. } => {
                let mut out: BTreeSet<A> = arg
                    .free_vars()
                    .iter()
                    .filter_map(|v| env.get(v).cloned())
                    .collect();
                out.extend(next.clone());
                out
            }
            Kont::Fn { closure, next, .. } => {
                let mut out = closure.touches();
                out.extend(next.clone());
                out
            }
            Kont::LetK {
                name,
                body,
                env,
                next,
                ..
            } => {
                let mut free = body.free_vars();
                free.remove(name);
                let mut out: BTreeSet<A> =
                    free.iter().filter_map(|v| env.get(v).cloned()).collect();
                out.extend(next.clone());
                out
            }
        }
    }
}

/// What lives at a store address: a value or a continuation frame.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Storable<A> {
    /// A value.
    Val(Closure<A>),
    /// A continuation.
    Kont(Kont<A>),
}

impl<A> Storable<A> {
    /// The value, if this storable is one.
    pub fn as_val(&self) -> Option<&Closure<A>> {
        match self {
            Storable::Val(v) => Some(v),
            Storable::Kont(_) => None,
        }
    }

    /// The continuation, if this storable is one.
    pub fn as_kont(&self) -> Option<&Kont<A>> {
        match self {
            Storable::Val(_) => None,
            Storable::Kont(k) => Some(k),
        }
    }
}

impl<A: fmt::Debug> fmt::Debug for Storable<A> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Storable::Val(v) => write!(f, "{:?}", v),
            Storable::Kont(k) => write!(f, "{:?}", k),
        }
    }
}

impl<A: Address> Touches<A> for Storable<A> {
    fn touches(&self) -> BTreeSet<A> {
        match self {
            Storable::Val(v) => v.touches(),
            Storable::Kont(k) => k.touches(),
        }
    }
}

/// The control component of a CESK partial state.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Control<A> {
    /// Evaluating a term.
    Eval(Arc<Term>),
    /// Returning a value to the continuation.
    Value(Closure<A>),
    /// The machine has halted with this value.
    Halted(Closure<A>),
    /// The machine is stuck on an abstract error (e.g. an unbound
    /// variable), carried as a message.  Error states are final — they
    /// self-loop like `Halted` — so the abstraction of a stuck execution
    /// is an observable analysis fact instead of a silently dropped
    /// branch (an `Either`-style error layer, with the analysis'
    /// power-set of reachable states collecting the set of messages).
    Error(String),
}

impl<A: fmt::Debug> fmt::Debug for Control<A> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Control::Eval(t) => write!(f, "eval {}", t),
            Control::Value(v) => write!(f, "value {:?}", v),
            Control::Halted(v) => write!(f, "halted {:?}", v),
            Control::Error(msg) => write!(f, "error {}", msg),
        }
    }
}

/// A partial CESK state: control, environment and continuation pointer.
/// The store (value *and* continuation store) and the time live in the
/// monad.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PState<A> {
    /// The control component.
    pub control: Control<A>,
    /// The environment (only meaningful while evaluating).
    pub env: Env<A>,
    /// The continuation pointer.
    pub kont: KontRef<A>,
}

impl<A> PState<A> {
    /// The initial state of a program: evaluate it in the empty environment
    /// with the halt continuation.
    pub fn inject(term: Term) -> Self {
        PState {
            control: Control::Eval(Arc::new(term)),
            env: Env::new(),
            kont: None,
        }
    }

    /// Whether the machine has halted.
    pub fn is_final(&self) -> bool {
        matches!(self.control, Control::Halted(_))
    }

    /// The halt value, if the machine has halted.
    pub fn result(&self) -> Option<&Closure<A>> {
        match &self.control {
            Control::Halted(v) => Some(v),
            _ => None,
        }
    }

    /// Whether the machine is stuck on an abstract error.
    pub fn is_error(&self) -> bool {
        matches!(self.control, Control::Error(_))
    }

    /// The error message, if the machine is stuck.
    pub fn error(&self) -> Option<&str> {
        match &self.control {
            Control::Error(msg) => Some(msg),
            _ => None,
        }
    }
}

impl<A: fmt::Debug> fmt::Debug for PState<A> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "⟨{:?}, {:?}, {:?}⟩", self.control, self.env, self.kont)
    }
}

impl<A: Address> Touches<A> for PState<A> {
    fn touches(&self) -> BTreeSet<A> {
        let mut out: BTreeSet<A> = match &self.control {
            Control::Eval(t) => t
                .free_vars()
                .iter()
                .filter_map(|v| self.env.get(v).cloned())
                .collect(),
            Control::Value(v) | Control::Halted(v) => v.touches(),
            Control::Error(_) => BTreeSet::new(),
        };
        out.extend(self.kont.clone());
        out
    }
}

/// The worklist engine's view of a state's read set: the same roots abstract
/// GC starts from ([`Touches`]), with the address type pinned down so the
/// engine can close them over the shared store.
impl<A: Address> StateRoots for PState<A> {
    type Addr = A;

    fn state_roots(&self) -> BTreeSet<A> {
        self.touches()
    }
}

/// The semantic interface of the direct-style λ-calculus: how the CESK
/// machine interacts with values, continuations, the store and time.
/// The analysis monads and context/store/GC parameters plugged into it are
/// exactly the ones used for CPS — this is the reuse claim of the paper's
/// Figure 3.  Every operation takes the context `cx` it runs against
/// ([`StepMonad::Cx`]).
pub trait CeskInterface<A: Address>: StepMonad {
    /// Looks up the value of a variable.
    fn lookup(env: &Env<A>, var: &Var, cx: Self::Cx) -> Self::M<Closure<A>>;

    /// Fetches a continuation frame from the store.
    fn kont_at(addr: &A, cx: Self::Cx) -> Self::M<Kont<A>>;

    /// Binds a value in the store.
    fn bind_val(addr: A, val: Closure<A>, cx: Self::Cx) -> Self::M<()>;

    /// Binds a continuation frame in the store.
    fn bind_kont(addr: A, kont: Kont<A>, cx: Self::Cx) -> Self::M<()>;

    /// Allocates an address for a variable binding.
    fn alloc_val(var: &Var, cx: Self::Cx) -> Self::M<A>;

    /// Allocates an address for a continuation of the given kind created
    /// at `site`.
    fn alloc_kont(site: Label, kind: KontKind, cx: Self::Cx) -> Self::M<A>;

    /// Advances time across the call/binding at `site`.
    fn tick(site: Label, cx: Self::Cx) -> Self::M<()>;
}

/// The kind of continuation frame being allocated.  Allocating frames of
/// different kinds at different (synthetic) names keeps, say, the `Ar` and
/// `Fn` frames of one application apart even under a monovariant context —
/// a standard precision refinement of store-allocated continuations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum KontKind {
    /// An argument-evaluation frame.
    Ar,
    /// A function-application frame.
    Fn,
    /// A `let`-binding frame.
    Let,
}

impl KontKind {
    /// A short tag used in synthetic continuation names.
    pub fn tag(self) -> &'static str {
        match self {
            KontKind::Ar => "ar",
            KontKind::Fn => "fn",
            KontKind::Let => "let",
        }
    }
}

/// The synthetic variable name under which continuations of a given kind
/// allocated at a given program point are stored.
pub fn kont_name(site: Label, kind: KontKind) -> Name {
    // Minted once per transition at every allocation site: served from the
    // global synthetic-name cache, so the format and pool lookup happen
    // only on first sight of a (kind, site) pair.
    Name::synthetic("$kont-", kind.tag(), site.index())
}

/// The monadic transition function of the CESK machine — the analogue of
/// the paper's `mnext` for the direct-style λ-calculus.  Written once
/// against [`CeskInterface`]; every interpreter and analysis of this crate
/// reuses it unchanged.
pub fn mnext<M, A>(ps: PState<A>, cx: M::Cx) -> M::M<PState<A>>
where
    M: CeskInterface<A>,
    A: Address,
{
    match ps.control {
        Control::Eval(term) => step_eval::<M, A>(&term, ps.env, ps.kont, cx),
        Control::Value(value) => step_value::<M, A>(value, ps.kont, cx),
        Control::Halted(_) | Control::Error(_) => M::pure(ps, cx),
    }
}

/// Allocates a frame of `kind` at `site`, stores it, and continues by
/// evaluating `control` under `env` with the frame as continuation.
fn push_frame<M, A>(
    site: Label,
    kind: KontKind,
    frame: Kont<A>,
    control: Arc<Term>,
    env: Env<A>,
    cx: M::Cx,
) -> M::M<PState<A>>
where
    M: CeskInterface<A>,
    A: Address,
{
    M::bind(M::alloc_kont(site, kind, cx), move |addr, cx| {
        let next = PState {
            control: Control::Eval(control.clone()),
            env: env.clone(),
            kont: Some(addr.clone()),
        };
        M::then_pure(M::bind_kont(addr, frame.clone(), cx), next)
    })
}

/// Binds `name` to `value` at a fresh address (after ticking at `site`)
/// and continues by evaluating `body` under the extended environment.
fn bind_and_eval<M, A>(
    site: Label,
    name: Var,
    value: Closure<A>,
    body: Arc<Term>,
    env: Env<A>,
    next: KontRef<A>,
    cx: M::Cx,
) -> M::M<PState<A>>
where
    M: CeskInterface<A>,
    A: Address,
{
    M::bind(M::tick(site, cx), move |(), cx| {
        let (name, value, body, env, next) = (
            name.clone(),
            value.clone(),
            body.clone(),
            env.clone(),
            next.clone(),
        );
        M::bind(M::alloc_val(&name, cx), move |vaddr, cx| {
            let mut env = env.clone();
            env.insert(name.clone(), vaddr.clone());
            let next = PState {
                control: Control::Eval(body.clone()),
                env,
                kont: next.clone(),
            };
            M::then_pure(M::bind_val(vaddr, value.clone(), cx), next)
        })
    })
}

fn step_eval<M, A>(term: &Term, env: Env<A>, kont: KontRef<A>, cx: M::Cx) -> M::M<PState<A>>
where
    M: CeskInterface<A>,
    A: Address,
{
    match term {
        // The environment lives in the state, not the monad, so an
        // unbound variable is detected *before* the monadic lookup — the
        // check (and the error successor it produces) is identical on
        // every carrier, concrete or abstract.
        Term::Var(v) if env.get(v).is_none() => M::pure(
            PState {
                control: Control::Error(format!("unbound variable `{}`", v)),
                env: Env::new(),
                kont,
            },
            cx,
        ),
        Term::Var(v) => M::bind(M::lookup(&env, v, cx), move |value, cx| {
            M::pure(
                PState {
                    control: Control::Value(value),
                    env: Env::new(),
                    kont: kont.clone(),
                },
                cx,
            )
        }),
        Term::Lam { param, body } => M::pure(
            PState {
                control: Control::Value(Closure {
                    param: param.clone(),
                    body: body.clone(),
                    env,
                }),
                env: Env::new(),
                kont,
            },
            cx,
        ),
        Term::App { label, func, arg } => {
            let frame = Kont::Ar {
                site: *label,
                arg: arg.clone(),
                env: env.clone(),
                next: kont,
            };
            push_frame::<M, A>(*label, KontKind::Ar, frame, func.clone(), env, cx)
        }
        Term::Let {
            label,
            name,
            rhs,
            body,
        } => {
            let frame = Kont::LetK {
                site: *label,
                name: name.clone(),
                body: body.clone(),
                env: env.clone(),
                next: kont,
            };
            push_frame::<M, A>(*label, KontKind::Let, frame, rhs.clone(), env, cx)
        }
    }
}

fn step_value<M, A>(value: Closure<A>, kont: KontRef<A>, cx: M::Cx) -> M::M<PState<A>>
where
    M: CeskInterface<A>,
    A: Address,
{
    let Some(addr) = kont else {
        return M::pure(
            PState {
                control: Control::Halted(value),
                env: Env::new(),
                kont: None,
            },
            cx,
        );
    };
    M::bind(M::kont_at(&addr, cx), move |frame, cx| match frame {
        Kont::Ar {
            site,
            arg,
            env,
            next,
        } => {
            let fn_frame = Kont::Fn {
                site,
                closure: value.clone(),
                next,
            };
            push_frame::<M, A>(site, KontKind::Fn, fn_frame, arg, env, cx)
        }
        Kont::Fn {
            site,
            closure,
            next,
        } => bind_and_eval::<M, A>(
            site,
            closure.param,
            value.clone(),
            closure.body,
            closure.env,
            next,
            cx,
        ),
        Kont::LetK {
            site,
            name,
            body,
            env,
            next,
        } => bind_and_eval::<M, A>(site, name, value.clone(), body, env, next, cx),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mai_core::name::Label;

    #[test]
    fn inject_starts_at_eval_with_halt_continuation() {
        let ps: PState<u32> = PState::inject(Term::lam("x", Term::var("x")));
        assert!(matches!(ps.control, Control::Eval(_)));
        assert!(ps.kont.is_none());
        assert!(!ps.is_final());
        assert!(ps.result().is_none());
    }

    #[test]
    fn closure_touches_free_variables_only() {
        let body = Term::app(Label::new(1), Term::var("f"), Term::var("x"));
        let clo: Closure<u32> = Closure {
            param: Name::from("x"),
            body: Arc::new(body),
            env: [(Name::from("f"), 7u32), (Name::from("x"), 8)]
                .into_iter()
                .collect(),
        };
        assert_eq!(clo.touches(), [7u32].into_iter().collect());
    }

    #[test]
    fn kont_touches_include_the_rest_of_the_stack() {
        let clo: Closure<u32> = Closure {
            param: Name::from("x"),
            body: Arc::new(Term::var("x")),
            env: Env::new(),
        };
        let k: Kont<u32> = Kont::Fn {
            site: Label::new(2),
            closure: clo,
            next: Some(42),
        };
        assert!(Touches::<u32>::touches(&k).contains(&42));
    }

    #[test]
    fn state_touches_include_the_continuation_pointer() {
        let ps: PState<u32> = PState {
            control: Control::Eval(Arc::new(Term::var("y"))),
            env: [(Name::from("y"), 3u32)].into_iter().collect(),
            kont: Some(9),
        };
        assert_eq!(ps.touches(), [3u32, 9].into_iter().collect());
    }

    #[test]
    fn storable_projections_are_exclusive() {
        let clo: Closure<u32> = Closure {
            param: Name::from("x"),
            body: Arc::new(Term::var("x")),
            env: Env::new(),
        };
        let v = Storable::Val(clo.clone());
        let k = Storable::Kont(Kont::Fn {
            site: Label::new(1),
            closure: clo,
            next: None,
        });
        assert!(v.as_val().is_some() && v.as_kont().is_none());
        assert!(k.as_kont().is_some() && k.as_val().is_none());
    }

    #[test]
    fn kont_names_are_per_site_and_per_kind() {
        assert_ne!(
            kont_name(Label::new(1), KontKind::Ar),
            kont_name(Label::new(2), KontKind::Ar)
        );
        assert_ne!(
            kont_name(Label::new(1), KontKind::Ar),
            kont_name(Label::new(1), KontKind::Fn)
        );
        assert_eq!(
            kont_name(Label::new(3), KontKind::Let),
            kont_name(Label::new(3), KontKind::Let)
        );
    }
}
