//! The monadic abstract machine for Featherweight Java.
//!
//! Objects are allocated in the store (one address per field), and method
//! calls, constructions, field accesses and casts are sequenced with
//! store-allocated continuation frames — the same "abstracting abstract
//! machines" recipe used for the λ-calculi, expressed once against the
//! semantic interface [`FjInterface`] so that the monad (and with it every
//! analysis parameter) stays exchangeable.

use std::cmp::Ordering;
use std::collections::BTreeSet;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use mai_core::addr::Address;
use mai_core::engine::StateRoots;
use mai_core::gc::Touches;
use mai_core::monad::StepMonad;
use mai_core::name::{Label, Name};
use mai_core::pmap::PMap;

use crate::syntax::{
    this_var, ClassName, ClassTable, Expr, FieldName, FreeVarTable, MethodBody, MethodName, VarName,
};

/// An environment: variable → address, on the store's persistent trie —
/// cloning an environment into a frame or successor state is a
/// reference-count bump, and extending a shared one copies one O(log n)
/// path.
pub type Env<A> = PMap<VarName, A>;

/// A reference to a continuation; `None` is the halt continuation.
pub type KontRef<A> = Option<A>;

/// A runtime object: its dynamic class and the addresses of its fields, in
/// the canonical field order of the class table.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Obj<A> {
    /// The dynamic class of the object.
    pub class: ClassName,
    /// The addresses of its fields (inherited fields first).
    pub fields: Vec<A>,
}

impl<A: fmt::Debug> fmt::Debug for Obj<A> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}{:?}", self.class, self.fields)
    }
}

impl<A: Address> Touches<A> for Obj<A> {
    fn touches(&self) -> BTreeSet<A> {
        self.fields.iter().cloned().collect()
    }
}

/// The argument expressions a frame has still to evaluate: the whole
/// argument list of its call or construction, shared with the program, the
/// position of the next one, and the [`FreeVarTable`] of the body they
/// belong to.
///
/// It compares, orders and hashes as the slice of arguments still to come
/// (the table is not part of the value), so a frame orders and hashes as
/// it did when it held a copy of that slice; two handles on the same
/// position of the same list compare `Equal` without a walk.
#[derive(Clone, Default)]
pub struct PendingArgs {
    args: Arc<[Expr]>,
    next: usize,
    free: FreeVarTable,
}

impl PendingArgs {
    /// Every argument of `args` still to come, from the body whose table is
    /// `free`.
    pub fn new(args: Arc<[Expr]>, free: FreeVarTable) -> Self {
        PendingArgs {
            args,
            next: 0,
            free,
        }
    }

    /// The arguments still to be evaluated.
    pub fn remaining(&self) -> &[Expr] {
        &self.args[self.next..]
    }

    /// The next argument, as a control to evaluate, and the arguments
    /// after it; `None` when none remain.
    fn split_first<A>(&self) -> Option<(Control<A>, PendingArgs)> {
        let first = self.args.get(self.next)?;
        let rest = PendingArgs {
            next: self.next + 1,
            ..self.clone()
        };
        Some((
            Control::Eval(Arc::new(first.clone()), self.free.clone()),
            rest,
        ))
    }
}

impl PartialEq for PendingArgs {
    fn eq(&self, other: &Self) -> bool {
        (Arc::ptr_eq(&self.args, &other.args) && self.next == other.next)
            || self.remaining() == other.remaining()
    }
}

impl Eq for PendingArgs {}

impl PartialOrd for PendingArgs {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for PendingArgs {
    fn cmp(&self, other: &Self) -> Ordering {
        if Arc::ptr_eq(&self.args, &other.args) && self.next == other.next {
            Ordering::Equal
        } else {
            self.remaining().cmp(other.remaining())
        }
    }
}

impl Hash for PendingArgs {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.remaining().hash(state);
    }
}

/// A continuation frame.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Kont<A> {
    /// After evaluating the receiver of a field access, project the field.
    FieldK {
        /// The label of the field access.
        site: Label,
        /// The accessed field.
        field: FieldName,
        /// The rest of the continuation.
        next: KontRef<A>,
    },
    /// After evaluating the receiver of a call, evaluate the arguments.
    CallRcvK {
        /// The label of the call.
        site: Label,
        /// The invoked method.
        method: MethodName,
        /// The argument expressions, still to be evaluated.
        args: PendingArgs,
        /// The environment the arguments are evaluated in.
        env: Env<A>,
        /// The rest of the continuation.
        next: KontRef<A>,
    },
    /// Evaluating the arguments of a call, receiver already evaluated.
    CallArgsK {
        /// The label of the call.
        site: Label,
        /// The invoked method.
        method: MethodName,
        /// The evaluated receiver.
        receiver: Obj<A>,
        /// The evaluated arguments so far.
        done: Vec<Obj<A>>,
        /// The argument expressions still to be evaluated.
        rest: PendingArgs,
        /// The environment the arguments are evaluated in.
        env: Env<A>,
        /// The rest of the continuation.
        next: KontRef<A>,
    },
    /// Evaluating the constructor arguments of `new C(…)`.
    NewK {
        /// The label of the construction.
        site: Label,
        /// The class being constructed.
        class: ClassName,
        /// The evaluated arguments so far.
        done: Vec<Obj<A>>,
        /// The argument expressions still to be evaluated.
        rest: PendingArgs,
        /// The environment the arguments are evaluated in.
        env: Env<A>,
        /// The rest of the continuation.
        next: KontRef<A>,
    },
    /// After evaluating the subject of a cast, check it.
    CastK {
        /// The label of the cast.
        site: Label,
        /// The target class.
        class: ClassName,
        /// The rest of the continuation.
        next: KontRef<A>,
    },
}

impl<A: fmt::Debug> fmt::Debug for Kont<A> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Kont::FieldK { field, .. } => write!(f, "·.{}", field),
            Kont::CallRcvK { method, .. } => write!(f, "·.{}(…)", method),
            Kont::CallArgsK { method, done, .. } => {
                write!(f, "call {}[{} done]", method, done.len())
            }
            Kont::NewK { class, done, .. } => write!(f, "new {}[{} done]", class, done.len()),
            Kont::CastK { class, .. } => write!(f, "({}) ·", class),
        }
    }
}

impl<A: Address> Touches<A> for Kont<A> {
    fn touches(&self) -> BTreeSet<A> {
        fn env_touch<A: Address>(env: &Env<A>) -> BTreeSet<A> {
            env.values().cloned().collect()
        }
        let mut out = BTreeSet::new();
        match self {
            Kont::FieldK { next, .. } | Kont::CastK { next, .. } => {
                out.extend(next.clone());
            }
            Kont::CallRcvK { env, next, .. } => {
                out.extend(env_touch(env));
                out.extend(next.clone());
            }
            Kont::CallArgsK {
                receiver,
                done,
                env,
                next,
                ..
            } => {
                out.extend(receiver.touches());
                for o in done {
                    out.extend(o.touches());
                }
                out.extend(env_touch(env));
                out.extend(next.clone());
            }
            Kont::NewK {
                done, env, next, ..
            } => {
                for o in done {
                    out.extend(o.touches());
                }
                out.extend(env_touch(env));
                out.extend(next.clone());
            }
        }
        out
    }
}

/// What lives at a store address: an object value or a continuation frame.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Storable<A> {
    /// An object.
    Val(Obj<A>),
    /// A continuation frame.
    Kont(Kont<A>),
}

impl<A> Storable<A> {
    /// The object, if this storable is one.
    pub fn as_val(&self) -> Option<&Obj<A>> {
        match self {
            Storable::Val(v) => Some(v),
            Storable::Kont(_) => None,
        }
    }

    /// The continuation, if this storable is one.
    pub fn as_kont(&self) -> Option<&Kont<A>> {
        match self {
            Storable::Kont(k) => Some(k),
            Storable::Val(_) => None,
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

/// The control component of an FJ machine state.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Control<A> {
    /// Evaluating an expression, with the [`FreeVarTable`] of the body it
    /// belongs to (which takes no part in equality, order or hashing).
    Eval(Arc<Expr>, FreeVarTable),
    /// Returning an object to the continuation.
    Value(Obj<A>),
    /// The machine has halted with this object.
    Halted(Obj<A>),
    /// The machine is stuck (failed downcast, missing method, …); the
    /// string records why.  Stuck states step to themselves.
    Stuck(String),
}

impl<A: fmt::Debug> fmt::Debug for Control<A> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Control::Eval(e, _) => write!(f, "eval {}", e),
            Control::Value(v) => write!(f, "value {:?}", v),
            Control::Halted(v) => write!(f, "halted {:?}", v),
            Control::Stuck(why) => write!(f, "stuck: {}", why),
        }
    }
}

/// A partial machine state: control, environment and continuation pointer.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PState<A> {
    /// The control component.
    pub control: Control<A>,
    /// The environment (meaningful while evaluating).
    pub env: Env<A>,
    /// The continuation pointer.
    pub kont: KontRef<A>,
}

impl<A> PState<A> {
    /// The initial state of a program's `main` expression.  Builds the
    /// free-variable table of `main` (once per program).
    pub fn inject(main: Expr) -> Self {
        let free = FreeVarTable::of(&main);
        PState {
            control: Control::Eval(Arc::new(main), free),
            env: Env::new(),
            kont: None,
        }
    }

    /// Whether the machine has halted normally.
    pub fn is_final(&self) -> bool {
        matches!(self.control, Control::Halted(_))
    }

    /// Whether the machine is stuck.
    pub fn is_stuck(&self) -> bool {
        matches!(self.control, Control::Stuck(_))
    }

    /// The abstract error message, if the machine is stuck.  Stuck states
    /// are final for [`mnext`] (they self-loop), so the analysis' power-set
    /// of reachable states collects them — the FJ face of the `Either`-style
    /// abstract error layer shared with the two λ-calculi.
    pub fn error(&self) -> Option<&str> {
        match &self.control {
            Control::Stuck(why) => Some(why),
            _ => None,
        }
    }

    /// The result object, if the machine has halted.
    pub fn result(&self) -> Option<&Obj<A>> {
        match &self.control {
            Control::Halted(v) => Some(v),
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
            Control::Eval(e, free) => free
                .free_vars(e)
                .iter()
                .filter_map(|v| self.env.get(v).cloned())
                .collect(),
            Control::Value(v) | Control::Halted(v) => v.touches(),
            Control::Stuck(_) => BTreeSet::new(),
        };
        out.extend(self.kont.clone());
        out
    }
}

/// The roots abstract GC starts from ([`Touches`]), with the address type
/// pinned down so abstract GC
/// ([`ReachableGc`](mai_core::gc::ReachableGc),
/// [`with_state_gc`](mai_core::engine::with_state_gc)) and the structural
/// baseline engine can close them over the store.  The id-indexed engines
/// take a step's read set from the store's read journal instead; under GC
/// they search from these roots only until they have discovered a branch's
/// writes.
/// The free variables behind an evaluating state's roots come from its
/// body's [`FreeVarTable`], so computing the roots costs the roots, not a
/// walk of the rest of the program.
impl<A: Address> StateRoots for PState<A> {
    type Addr = A;

    fn state_roots(&self) -> BTreeSet<A> {
        self.touches()
    }
}

/// The semantic interface of Featherweight Java: how the machine interacts
/// with the store, addresses and time.  The same `StorePassing` monad,
/// contexts, stores and garbage collector used for CPS and the CESK machine
/// implement it (see `crate::analysis`), which is the reuse claim of the
/// paper.  Every operation takes the context `cx` it runs against
/// ([`StepMonad::Cx`]).
pub trait FjInterface<A: Address>: StepMonad {
    /// Looks up a variable.
    fn lookup(env: &Env<A>, var: &VarName, cx: Self::Cx) -> Self::M<Obj<A>>;

    /// Fetches the object(s) stored at an address (used for field reads).
    fn fetch(addr: &A, cx: Self::Cx) -> Self::M<Obj<A>>;

    /// Fetches a continuation frame.
    fn kont_at(addr: &A, cx: Self::Cx) -> Self::M<Kont<A>>;

    /// Binds an object in the store.
    fn bind_val(addr: A, val: Obj<A>, cx: Self::Cx) -> Self::M<()>;

    /// Binds a continuation frame in the store.
    fn bind_kont(addr: A, kont: Kont<A>, cx: Self::Cx) -> Self::M<()>;

    /// Allocates an address for the given (variable or field) name.
    fn alloc(name: &Name, cx: Self::Cx) -> Self::M<A>;

    /// Allocates an address for a continuation of the given kind created
    /// at `site`.
    fn alloc_kont(site: Label, kind: KontKind, cx: Self::Cx) -> Self::M<A>;

    /// Advances time across the program point `site`.
    fn tick(site: Label, cx: Self::Cx) -> Self::M<()>;
}

/// The kind of continuation frame being allocated; frames of different
/// kinds created at the same program point are kept at distinct synthetic
/// names so that even a monovariant context does not conflate them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum KontKind {
    /// A field-projection frame.
    Field,
    /// A receiver-evaluation frame.
    Rcv,
    /// An argument-evaluation frame.
    Args,
    /// A constructor-argument frame.
    New,
    /// A cast frame.
    Cast,
}

impl KontKind {
    /// A short tag used in synthetic continuation names.
    pub fn tag(self) -> &'static str {
        match self {
            KontKind::Field => "field",
            KontKind::Rcv => "rcv",
            KontKind::Args => "args",
            KontKind::New => "new",
            KontKind::Cast => "cast",
        }
    }
}

/// The synthetic name under which continuations of a given kind created at
/// a site are allocated.
pub fn kont_name(site: Label, kind: KontKind) -> Name {
    // Minted once per transition at every allocation site: served from the
    // global synthetic-name cache, so the format and pool lookup happen
    // only on first sight of a (kind, site) pair.
    Name::synthetic("$kont-", kind.tag(), site.index())
}

/// The synthetic name under which the field `field` of a `new class(…)`
/// allocation is stored.
pub fn field_name(class: &ClassName, field: &FieldName) -> Name {
    Name::from(format!("{}.{}", class, field))
}

fn stuck<A: Address>(why: impl Into<String>) -> PState<A> {
    PState {
        control: Control::Stuck(why.into()),
        env: Env::new(),
        kont: None,
    }
}

/// The monadic transition function of the Featherweight Java machine,
/// parameterized by the class table and written once against
/// [`FjInterface`].
pub fn mnext<M, A>(table: &ClassTable, ps: PState<A>, cx: M::Cx) -> M::M<PState<A>>
where
    M: FjInterface<A>,
    A: Address,
{
    match ps.control {
        Control::Eval(expr, free) => step_eval::<M, A>(table, &expr, free, ps.env, ps.kont, cx),
        Control::Value(value) => step_value::<M, A>(table, value, ps.kont, cx),
        Control::Halted(_) | Control::Stuck(_) => M::pure(ps, cx),
    }
}

/// Allocates a frame of `kind` at `site`, stores it, and continues with
/// `control` (evaluating an expression) under `env`, with the frame as
/// continuation.
fn push_frame_and_eval<M, A>(
    site: Label,
    kind: KontKind,
    frame: Kont<A>,
    control: Control<A>,
    env: Env<A>,
    cx: M::Cx,
) -> M::M<PState<A>>
where
    M: FjInterface<A>,
    A: Address,
{
    M::bind(M::alloc_kont(site, kind, cx), move |addr, cx| {
        let next = PState {
            control: control.clone(),
            env: env.clone(),
            kont: Some(addr.clone()),
        };
        M::then_pure(M::bind_kont(addr, frame.clone(), cx), next)
    })
}

/// Steps the evaluation of `expr`, a subexpression of the body whose
/// free-variable table is `free`.
fn step_eval<M, A>(
    table: &ClassTable,
    expr: &Expr,
    free: FreeVarTable,
    env: Env<A>,
    kont: KontRef<A>,
    cx: M::Cx,
) -> M::M<PState<A>>
where
    M: FjInterface<A>,
    A: Address,
{
    match expr {
        // The environment lives in the state, not the monad, so an unbound
        // variable is detected *before* the monadic lookup — the check (and
        // the stuck successor it produces) is identical on every carrier.
        Expr::Var(v) if env.get(v).is_none() => {
            M::pure(stuck(format!("unbound variable `{}`", v)), cx)
        }
        Expr::Var(v) => M::bind(M::lookup(&env, v, cx), move |obj, cx| {
            M::pure(
                PState {
                    control: Control::Value(obj),
                    env: Env::new(),
                    kont: kont.clone(),
                },
                cx,
            )
        }),
        Expr::FieldAccess {
            label,
            object,
            field,
        } => push_frame_and_eval::<M, A>(
            *label,
            KontKind::Field,
            Kont::FieldK {
                site: *label,
                field: field.clone(),
                next: kont,
            },
            Control::Eval(object.clone(), free),
            env,
            cx,
        ),
        Expr::MethodCall {
            label,
            object,
            method,
            args,
        } => push_frame_and_eval::<M, A>(
            *label,
            KontKind::Rcv,
            Kont::CallRcvK {
                site: *label,
                method: method.clone(),
                args: PendingArgs::new(args.clone(), free.clone()),
                env: env.clone(),
                next: kont,
            },
            Control::Eval(object.clone(), free),
            env,
            cx,
        ),
        Expr::New { label, class, args } => {
            if table.fields(class).is_err() {
                return M::pure(stuck(format!("new of unknown class {class}")), cx);
            }
            match PendingArgs::new(args.clone(), free).split_first() {
                None => construct::<M, A>(table, *label, class.clone(), Vec::new(), kont, cx),
                Some((first, rest)) => push_frame_and_eval::<M, A>(
                    *label,
                    KontKind::New,
                    Kont::NewK {
                        site: *label,
                        class: class.clone(),
                        done: Vec::new(),
                        rest,
                        env: env.clone(),
                        next: kont,
                    },
                    first,
                    env,
                    cx,
                ),
            }
        }
        Expr::Cast {
            label,
            class,
            object,
        } => push_frame_and_eval::<M, A>(
            *label,
            KontKind::Cast,
            Kont::CastK {
                site: *label,
                class: class.clone(),
                next: kont,
            },
            Control::Eval(object.clone(), free),
            env,
            cx,
        ),
    }
}

/// Allocates an address per name (after ticking at `site`), writes
/// `values` into them in order, and continues with `then(addrs)`.
fn bind_all<M, A, K>(
    site: Label,
    names: Vec<Name>,
    values: Vec<Obj<A>>,
    cx: M::Cx,
    then: K,
) -> M::M<PState<A>>
where
    M: FjInterface<A>,
    A: Address,
    K: Fn(&[A]) -> PState<A> + 'static,
{
    let then = Arc::new(then);
    M::bind(M::tick(site, cx), move |(), cx| {
        let (values, then) = (values.clone(), then.clone());
        let addrs = M::map_m(names.iter().cloned(), |n, cx| M::alloc(&n, cx), cx);
        M::bind(addrs, move |addrs, cx| {
            let next = then(&addrs);
            let writes = addrs.into_iter().zip(values.iter().cloned());
            M::then_pure(
                M::for_each_m(writes, |(a, o), cx| M::bind_val(a, o, cx), cx),
                next,
            )
        })
    })
}

/// Allocates addresses for every field of `class`, writes the argument
/// objects into them, and returns the freshly constructed object.
fn construct<M, A>(
    table: &ClassTable,
    site: Label,
    class: ClassName,
    args: Vec<Obj<A>>,
    kont: KontRef<A>,
    cx: M::Cx,
) -> M::M<PState<A>>
where
    M: FjInterface<A>,
    A: Address,
{
    let fields = match table.fields(&class) {
        Ok(fields) => fields,
        Err(e) => return M::pure(stuck(e.to_string()), cx),
    };
    if fields.len() != args.len() {
        let why = format!(
            "new {class} expected {} arguments, got {}",
            fields.len(),
            args.len()
        );
        return M::pure(stuck(why), cx);
    }
    let names: Vec<Name> = fields.iter().map(|(_, f)| field_name(&class, f)).collect();
    bind_all::<M, A, _>(site, names, args, cx, move |addrs| PState {
        control: Control::Value(Obj {
            class: class.clone(),
            fields: addrs.to_vec(),
        }),
        env: Env::new(),
        kont: kont.clone(),
    })
}

/// Invokes `method` on `receiver` with the given evaluated arguments.
fn invoke<M, A>(
    table: &ClassTable,
    site: Label,
    method: &MethodName,
    receiver: Obj<A>,
    args: Vec<Obj<A>>,
    kont: KontRef<A>,
    cx: M::Cx,
) -> M::M<PState<A>>
where
    M: FjInterface<A>,
    A: Address,
{
    let (_, decl, body) = match table.method(method, &receiver.class) {
        Ok(found) => found,
        Err(e) => return M::pure(stuck(e.to_string()), cx),
    };
    if decl.params.len() != args.len() {
        let why = format!(
            "method {method} expected {} arguments, got {}",
            decl.params.len(),
            args.len()
        );
        return M::pure(stuck(why), cx);
    }
    let names: Vec<Name> = std::iter::once(this_var())
        .chain(decl.params.iter().map(|(_, n)| n.clone()))
        .collect();
    let values: Vec<Obj<A>> = std::iter::once(receiver).chain(args).collect();
    let MethodBody { expr, free } = body.clone();
    let params = names.clone();
    bind_all::<M, A, _>(site, names, values, cx, move |addrs| PState {
        control: Control::Eval(expr.clone(), free.clone()),
        env: params.iter().cloned().zip(addrs.iter().cloned()).collect(),
        kont: kont.clone(),
    })
}

fn step_value<M, A>(
    table: &ClassTable,
    value: Obj<A>,
    kont: KontRef<A>,
    cx: M::Cx,
) -> M::M<PState<A>>
where
    M: FjInterface<A>,
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
    let table = table.clone();
    M::bind(M::kont_at(&addr, cx), move |frame, cx| {
        let value = value.clone();
        match frame {
            Kont::FieldK { field, next, .. } => {
                let index = match table.field_index(&value.class, &field) {
                    Ok(i) => i,
                    Err(e) => return M::pure(stuck(e.to_string()), cx),
                };
                let Some(field_addr) = value.fields.get(index) else {
                    let why = format!(
                        "object of class {} has no slot for field {}",
                        value.class, field
                    );
                    return M::pure(stuck(why), cx);
                };
                M::bind(M::fetch(field_addr, cx), move |obj, cx| {
                    M::pure(
                        PState {
                            control: Control::Value(obj),
                            env: Env::new(),
                            kont: next.clone(),
                        },
                        cx,
                    )
                })
            }
            Kont::CallRcvK {
                site,
                method,
                args,
                env,
                next,
            } => match args.split_first() {
                None => invoke::<M, A>(&table, site, &method, value, Vec::new(), next, cx),
                Some((first, rest)) => push_frame_and_eval::<M, A>(
                    site,
                    KontKind::Args,
                    Kont::CallArgsK {
                        site,
                        method,
                        receiver: value,
                        done: Vec::new(),
                        rest,
                        env: env.clone(),
                        next,
                    },
                    first,
                    env,
                    cx,
                ),
            },
            Kont::CallArgsK {
                site,
                method,
                receiver,
                mut done,
                rest,
                env,
                next,
            } => {
                done.push(value);
                match rest.split_first() {
                    None => invoke::<M, A>(&table, site, &method, receiver, done, next, cx),
                    Some((first, rest)) => push_frame_and_eval::<M, A>(
                        site,
                        KontKind::Args,
                        Kont::CallArgsK {
                            site,
                            method,
                            receiver,
                            done,
                            rest,
                            env: env.clone(),
                            next,
                        },
                        first,
                        env,
                        cx,
                    ),
                }
            }
            Kont::NewK {
                site,
                class,
                mut done,
                rest,
                env,
                next,
            } => {
                done.push(value);
                match rest.split_first() {
                    None => construct::<M, A>(&table, site, class, done, next, cx),
                    Some((first, rest)) => push_frame_and_eval::<M, A>(
                        site,
                        KontKind::New,
                        Kont::NewK {
                            site,
                            class,
                            done,
                            rest,
                            env: env.clone(),
                            next,
                        },
                        first,
                        env,
                        cx,
                    ),
                }
            }
            Kont::CastK { class, next, .. } => match table.is_subtype(&value.class, &class) {
                Ok(true) => M::pure(
                    PState {
                        control: Control::Value(value),
                        env: Env::new(),
                        kont: next,
                    },
                    cx,
                ),
                Ok(false) => M::pure(
                    stuck(format!("failed cast of {} to {}", value.class, class)),
                    cx,
                ),
                Err(e) => M::pure(stuck(e.to_string()), cx),
            },
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::syntax::{class, ExprBuilder};

    #[test]
    fn inject_and_projections() {
        let mut b = ExprBuilder::new();
        let ps: PState<u32> = PState::inject(b.new_object("A", vec![]));
        assert!(!ps.is_final());
        assert!(!ps.is_stuck());
        assert!(ps.result().is_none());
        assert!(ps.kont.is_none());
    }

    #[test]
    fn objects_touch_their_fields_and_konts_touch_their_parts() {
        let obj: Obj<u32> = Obj {
            class: Name::from("Pair"),
            fields: vec![1, 2],
        };
        assert_eq!(obj.touches(), [1u32, 2].into_iter().collect());

        let k: Kont<u32> = Kont::CallArgsK {
            site: Label::new(1),
            method: Name::from("m"),
            receiver: obj.clone(),
            done: vec![Obj {
                class: Name::from("A"),
                fields: vec![7],
            }],
            rest: PendingArgs::default(),
            env: [(Name::from("x"), 9u32)].into_iter().collect(),
            next: Some(11),
        };
        assert_eq!(
            Touches::<u32>::touches(&k),
            [1u32, 2, 7, 9, 11].into_iter().collect()
        );
    }

    #[test]
    fn state_touches_follow_the_control() {
        let obj: Obj<u32> = Obj {
            class: Name::from("A"),
            fields: vec![4],
        };
        let ps = PState {
            control: Control::Value(obj),
            env: Env::new(),
            kont: Some(5u32),
        };
        assert_eq!(ps.touches(), [4u32, 5].into_iter().collect());
        let stuck_state: PState<u32> = stuck("why");
        assert!(stuck_state.touches().is_empty());
        assert!(stuck_state.is_stuck());
    }

    /// States order and hash by their expressions: a control evaluating an
    /// expression orders as the expression, whichever free-variable table
    /// it carries, and a frame's pending arguments order and hash as the
    /// slice of arguments still to come.  Two builds of the corpus share
    /// no allocation, so the walk decides between them.
    #[test]
    fn controls_and_frames_order_and_hash_as_their_expressions() {
        use crate::syntax::tests::{bodies, subexpressions};
        use mai_core::hash::fx_hash_of;
        let programs: Vec<crate::Program> = [
            crate::programs::standard_corpus(),
            crate::programs::standard_corpus(),
        ]
        .concat()
        .into_iter()
        .map(|(_, program)| program)
        .collect();
        let bodies: Vec<Expr> = programs.iter().flat_map(bodies).collect();
        let mut exprs = Vec::new();
        for body in &bodies {
            subexpressions(body, &mut exprs);
        }
        let tables = [FreeVarTable::default(), FreeVarTable::of(&bodies[0])];
        let controls: Vec<Control<u32>> = exprs
            .iter()
            .enumerate()
            .map(|(i, e)| Control::Eval(Arc::new((*e).clone()), tables[i % 2].clone()))
            .collect();
        for (a, ca) in exprs.iter().zip(&controls) {
            for (b, cb) in exprs.iter().zip(&controls) {
                assert_eq!(ca.cmp(cb), a.cmp(b), "{a} vs {b}");
                assert_eq!(ca == cb, a == b, "{a} vs {b}");
                if a == b {
                    assert_eq!(fx_hash_of(ca), fx_hash_of(cb), "{a}");
                }
            }
        }
        let pending: Vec<PendingArgs> = exprs
            .iter()
            .filter_map(|e| match e {
                Expr::MethodCall { args, .. } | Expr::New { args, .. } => Some(args.clone()),
                _ => None,
            })
            .flat_map(|args| {
                let mut at = PendingArgs::new(args, FreeVarTable::default());
                let mut all = vec![at.clone()];
                while let Some((_, rest)) = at.split_first::<u32>() {
                    all.push(rest.clone());
                    at = rest;
                }
                all
            })
            .collect();
        assert!(pending.len() > 20);
        for a in &pending {
            assert_eq!(fx_hash_of(a), fx_hash_of(&a.remaining().to_vec()));
            for b in &pending {
                assert_eq!(a.cmp(b), a.remaining().cmp(b.remaining()));
                assert_eq!(a == b, a.remaining() == b.remaining());
            }
        }
    }

    #[test]
    fn helper_names_are_deterministic() {
        assert_eq!(
            kont_name(Label::new(3), KontKind::Rcv),
            kont_name(Label::new(3), KontKind::Rcv)
        );
        assert_ne!(
            kont_name(Label::new(3), KontKind::Rcv),
            kont_name(Label::new(4), KontKind::Rcv)
        );
        assert_ne!(
            kont_name(Label::new(3), KontKind::Rcv),
            kont_name(Label::new(3), KontKind::Args)
        );
        assert_eq!(
            field_name(&Name::from("Pair"), &Name::from("first")).as_str(),
            "Pair.first"
        );
    }

    #[test]
    fn storable_projections() {
        let obj: Obj<u32> = Obj {
            class: Name::from("A"),
            fields: vec![],
        };
        let v = Storable::Val(obj.clone());
        let k: Storable<u32> = Storable::Kont(Kont::FieldK {
            site: Label::new(1),
            field: Name::from("f"),
            next: None,
        });
        assert!(v.as_val().is_some() && v.as_kont().is_none());
        assert!(k.as_kont().is_some() && k.as_val().is_none());
        let _ = class("A", "Object", &[], vec![]); // silence unused import lint in this test module
    }
}
