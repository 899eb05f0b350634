//! The monadic abstract machine for Featherweight Java.
//!
//! Objects are allocated in the store (one address per field), and method
//! calls, constructions, field accesses and casts are sequenced with
//! store-allocated continuation frames — the same "abstracting abstract
//! machines" recipe used for the λ-calculi, expressed once against the
//! semantic interface [`FjInterface`] so that the monad (and with it every
//! analysis parameter) stays exchangeable.

use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

use mai_core::addr::Address;
use mai_core::engine::StateRoots;
use mai_core::env::CowMap;
use mai_core::gc::Touches;
use mai_core::monad::StepMonad;
use mai_core::name::{Label, Name};

use crate::syntax::{this_var, ClassName, ClassTable, Expr, FieldName, MethodName, VarName};

/// An environment: variable → address, shared copy-on-write — cloning an
/// environment into a frame or successor state is a reference-count bump,
/// and the map is copied only when a shared handle is extended.
pub type Env<A> = CowMap<VarName, A>;

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
        args: Vec<Expr>,
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
        rest: Vec<Expr>,
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
        rest: Vec<Expr>,
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
    /// Evaluating an expression.
    Eval(Arc<Expr>),
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
            Control::Eval(e) => write!(f, "eval {}", e),
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
    /// The initial state of a program's `main` expression.
    pub fn inject(main: Expr) -> Self {
        PState {
            control: Control::Eval(Arc::new(main)),
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
            Control::Eval(e) => e
                .free_vars()
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

/// The worklist engine's view of a state's read set: the same roots abstract
/// GC starts from ([`Touches`]), with the address type pinned down so the
/// engine can close them over the shared store.
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
        Control::Eval(expr) => step_eval::<M, A>(table, &expr, ps.env, ps.kont, cx),
        Control::Value(value) => step_value::<M, A>(table, value, ps.kont, cx),
        Control::Halted(_) | Control::Stuck(_) => M::pure(ps, cx),
    }
}

/// Allocates a frame of `kind` at `site`, stores it, and continues by
/// evaluating `next_control` under `env` with the frame as continuation.
fn push_frame_and_eval<M, A>(
    site: Label,
    kind: KontKind,
    frame: Kont<A>,
    next_control: Arc<Expr>,
    env: Env<A>,
    cx: M::Cx,
) -> M::M<PState<A>>
where
    M: FjInterface<A>,
    A: Address,
{
    M::bind(M::alloc_kont(site, kind, cx), move |addr, cx| {
        let next = PState {
            control: Control::Eval(next_control.clone()),
            env: env.clone(),
            kont: Some(addr.clone()),
        };
        M::then_pure(M::bind_kont(addr, frame.clone(), cx), next)
    })
}

fn step_eval<M, A>(
    table: &ClassTable,
    expr: &Expr,
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
            object.clone(),
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
                args: args.clone(),
                env: env.clone(),
                next: kont,
            },
            object.clone(),
            env,
            cx,
        ),
        Expr::New { label, class, args } => {
            if table.fields(class).is_err() {
                return M::pure(stuck(format!("new of unknown class {class}")), cx);
            }
            match args.split_first() {
                None => construct::<M, A>(table, *label, class.clone(), Vec::new(), kont, cx),
                Some((first, rest)) => push_frame_and_eval::<M, A>(
                    *label,
                    KontKind::New,
                    Kont::NewK {
                        site: *label,
                        class: class.clone(),
                        done: Vec::new(),
                        rest: rest.to_vec(),
                        env: env.clone(),
                        next: kont,
                    },
                    Arc::new(first.clone()),
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
            object.clone(),
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
    let (_, decl) = match table.mbody(method, &receiver.class) {
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
    let body = Arc::new(decl.body.clone());
    let params = names.clone();
    bind_all::<M, A, _>(site, names, values, cx, move |addrs| PState {
        control: Control::Eval(body.clone()),
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
                        rest: rest.to_vec(),
                        env: env.clone(),
                        next,
                    },
                    Arc::new(first.clone()),
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
                    Some((first, remaining)) => push_frame_and_eval::<M, A>(
                        site,
                        KontKind::Args,
                        Kont::CallArgsK {
                            site,
                            method,
                            receiver,
                            done,
                            rest: remaining.to_vec(),
                            env: env.clone(),
                            next,
                        },
                        Arc::new(first.clone()),
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
                    Some((first, remaining)) => push_frame_and_eval::<M, A>(
                        site,
                        KontKind::New,
                        Kont::NewK {
                            site,
                            class,
                            done,
                            rest: remaining.to_vec(),
                            env: env.clone(),
                            next,
                        },
                        Arc::new(first.clone()),
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
            rest: vec![],
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
