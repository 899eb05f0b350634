//! The monadic semantic interface of CPS and its single transition rule
//! (paper §3, Figure 2).
//!
//! This module is the heart of the reproduction: the [`CpsInterface`] trait
//! is the paper's `CPSInterface m a` type class, and [`mnext`] is its
//! *final* `mnext` — written once, against the interface, and never changed
//! again.  Everything else (concrete interpretation, 0CFA, k-CFA, abstract
//! counting, garbage collection, store widening) is obtained by choosing a
//! different monad and interface implementation: the closure carrier in
//! [`crate::analysis`], the concrete heap in [`crate::concrete`] and the
//! direct carrier the fixpoint engines run in [`crate::direct`].

use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

use mai_core::addr::Address;
use mai_core::engine::StateRoots;
use mai_core::env::CowMap;
use mai_core::gc::Touches;
use mai_core::monad::StepMonad;
use mai_core::name::Label;

use crate::syntax::{AExp, CExp, Lambda, Var};

/// An environment: a finite map from variables to addresses
/// (`Env a = Var ⇀ a`), shared copy-on-write — cloning an environment into
/// a closure or successor state is a reference-count bump, and the map is
/// copied only when a shared handle is extended.
pub type Env<A> = CowMap<Var, A>;

/// A denotable value.  CPS is so small that closures are the only kind of
/// value (`Val a = Clo (Lambda, Env a)`).
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Val<A> {
    /// A closure: a λ-abstraction paired with its environment.
    Clo {
        /// The code of the closure.
        lambda: Lambda,
        /// The captured environment.
        env: Env<A>,
    },
}

impl<A> Val<A> {
    /// Creates a closure value.
    pub fn closure(lambda: Lambda, env: Env<A>) -> Self {
        Val::Clo { lambda, env }
    }

    /// The λ-abstraction of this closure.
    pub fn lambda(&self) -> &Lambda {
        match self {
            Val::Clo { lambda, .. } => lambda,
        }
    }

    /// The captured environment of this closure.
    pub fn env(&self) -> &Env<A> {
        match self {
            Val::Clo { env, .. } => env,
        }
    }
}

impl<A: fmt::Debug> fmt::Debug for Val<A> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Val::Clo { lambda, env } => write!(f, "⟨{}, {:?}⟩", lambda, env),
        }
    }
}

/// A closure touches the addresses its environment assigns to the free
/// variables of its code (the paper's `T̂(æ, ρ̂)`, restricted to the
/// variables that can actually be referenced).
impl<A: Address> Touches<A> for Val<A> {
    fn touches(&self) -> BTreeSet<A> {
        let Val::Clo { lambda, env } = self;
        lambda
            .free_vars_ref()
            .iter()
            .filter_map(|v| env.get(v).cloned())
            .collect()
    }
}

/// A *partial* state: the machine state with the store (and the time) pulled
/// out into the monad (`PΣ a = (CExp, Env a)` — paper §3.3/§3.4).
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PState<A> {
    /// The control component: the call being executed.
    pub call: CExp,
    /// The environment in force.
    pub env: Env<A>,
}

impl<A> PState<A> {
    /// Creates a partial state.
    pub fn new(call: CExp, env: Env<A>) -> Self {
        PState { call, env }
    }

    /// The injector `I(call) = (call, [])`: the initial state of a program.
    pub fn inject(program: CExp) -> Self {
        PState {
            call: program,
            env: Env::new(),
        }
    }

    /// Whether this state has halted.
    pub fn is_final(&self) -> bool {
        self.call.is_exit()
    }

    /// Whether this state is stuck on an abstract error.
    pub fn is_error(&self) -> bool {
        matches!(self.call, CExp::Error(_))
    }

    /// The error message, if this state is stuck.
    pub fn error(&self) -> Option<&str> {
        match &self.call {
            CExp::Error(msg) => Some(msg),
            _ => None,
        }
    }

    /// The label of the call site this state is about to execute.
    pub fn site(&self) -> Label {
        self.call.label()
    }
}

impl<A: fmt::Debug> fmt::Debug for PState<A> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "⟨{}, {:?}⟩", self.call, self.env)
    }
}

/// A state touches the addresses its environment assigns to the free
/// variables of its control expression (the paper's `T̂(call, ρ̂, σ̂, t̂)`).
impl<A: Address> Touches<A> for PState<A> {
    fn touches(&self) -> BTreeSet<A> {
        self.call
            .free_vars()
            .iter()
            .filter_map(|v| self.env.get(v).cloned())
            .collect()
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

/// The paper's `CPSInterface m a` (Figure 2): the five operations through
/// which the CPS semantics interacts with values, the store and time.
///
/// Implementations choose the step monad `Self` and the address type `A`;
/// [`mnext`] is written once against this interface.  Every operation
/// takes the context `cx` it runs against ([`StepMonad::Cx`]: `()` for the
/// closure carriers, the `(context, store)` pair for the direct one).
///
/// * [`fun`](CpsInterface::fun) evaluates the operator position and
///   branches once per callee;
/// * [`arg`](CpsInterface::arg) evaluates operand positions and, in the
///   abstract instances, branches once per operand value — so a call
///   steps to the *product* of its callees and its operands' values;
/// * [`write`](CpsInterface::write) is the paper's `(↦)`: binds an address
///   to a value in the store carried by the monad;
/// * [`alloc`](CpsInterface::alloc) allocates an address for a variable,
///   consulting whatever context the monad carries;
/// * [`tick`](CpsInterface::tick) advances the monad's internal notion of
///   time across a call.
pub trait CpsInterface<A: Address>: StepMonad {
    /// Evaluates an atomic expression in operator position.
    fn fun(env: &Env<A>, e: &AExp, cx: Self::Cx) -> Self::M<Val<A>>;

    /// Evaluates an atomic expression in operand position.
    fn arg(env: &Env<A>, e: &AExp, cx: Self::Cx) -> Self::M<Val<A>>;

    /// Binds `addr ↦ val` in the store carried by the monad.
    fn write(addr: A, val: Val<A>, cx: Self::Cx) -> Self::M<()>;

    /// Allocates an address for the variable `var`.
    fn alloc(var: &Var, cx: Self::Cx) -> Self::M<A>;

    /// Advances time across the application of `proc` at state `ps`.
    fn tick(proc: &Val<A>, ps: &PState<A>, cx: Self::Cx) -> Self::M<()>;
}

/// The single transition rule of CPS in monadic normal form — the paper's
/// final `mnext` (Figure 2), transcribed bind-for-bind:
///
/// ```text
/// mnext ps@(Call f aes, ρ) = do
///   proc@(Clo (vs ⇒ call′, ρ′)) ← fun ρ f
///   tick proc ps
///   as ← mapM alloc vs
///   ds ← mapM (arg ρ) aes
///   let ρ′′ = ρ′ // [v ⇒ a | v ← vs | a ← as]
///   sequence [a ↦ d | a ← as | d ← ds]
///   return (call′, ρ′′)
/// mnext ς = return ς
/// ```
///
/// Exit states step to themselves.  Stuck transitions — an unbound
/// variable in operator or operand position, or an arity mismatch between
/// callee and call — step to an [`CExp::Error`] state (which then steps to
/// itself): the error layer.  Both checks are *pure* (the environment and
/// the callee's parameter list live outside the monad), so every carrier,
/// concrete or abstract, produces the identical error successor.
pub fn mnext<M, A>(ps: PState<A>, cx: M::Cx) -> M::M<PState<A>>
where
    M: CpsInterface<A>,
    A: Address,
{
    let (f, args): (AExp, Arc<[AExp]>) = match &ps.call {
        CExp::Call { f, args, .. } => (f.clone(), args[..].into()),
        CExp::Exit | CExp::Error(_) => return M::pure(ps, cx),
    };
    if let Some(v) = first_unbound(&ps.env, &f, &args) {
        return M::pure(
            PState::new(CExp::Error(format!("unbound variable `{}`", v)), Env::new()),
            cx,
        );
    }
    let env = ps.env.clone();
    M::bind(M::fun(&env, &f, cx), move |proc, cx| {
        if proc.lambda().params().len() != args.len() {
            return M::pure(
                PState::new(
                    CExp::Error(arity_mismatch(proc.lambda(), args.len())),
                    Env::new(),
                ),
                cx,
            );
        }
        let (env, args) = (env.clone(), args.clone());
        M::bind(M::tick(&proc, &ps, cx), move |(), cx| {
            let (env, args, proc) = (env.clone(), args.clone(), proc.clone());
            let addrs = M::map_m(
                proc.lambda().params().iter().cloned(),
                |v, cx| M::alloc(&v, cx),
                cx,
            );
            M::bind(addrs, move |addrs, cx| {
                // ρ′′ = ρ′ // [v ⇒ a]
                let mut next_env = proc.env().clone();
                for (v, a) in proc.lambda().params().iter().zip(&addrs) {
                    next_env.insert(v.clone(), a.clone());
                }
                let body = proc.lambda().body().clone();
                let (env, args) = (env.clone(), args.clone());
                let ds = M::map_m(0..args.len(), move |i, cx| M::arg(&env, &args[i], cx), cx);
                M::bind(ds, move |ds, cx| {
                    // sequence [a ↦ d]
                    let writes = addrs.iter().cloned().zip(ds);
                    let next = PState::new((*body).clone(), next_env.clone());
                    M::then_pure(
                        M::for_each_m(writes, |(a, d), cx| M::write(a, d, cx), cx),
                        next,
                    )
                })
            })
        })
    })
}

/// The first unbound variable reference of a call, operator position
/// first, operands left to right.
fn first_unbound<A>(env: &Env<A>, f: &AExp, args: &[AExp]) -> Option<Var> {
    std::iter::once(f).chain(args.iter()).find_map(|e| match e {
        AExp::Ref(v) if env.get(v).is_none() => Some(v.clone()),
        _ => None,
    })
}

/// The arity-mismatch message for applying `lambda` to `got` arguments.
fn arity_mismatch(lambda: &Lambda, got: usize) -> String {
    format!(
        "arity mismatch: callee takes {} arguments, call passes {}",
        lambda.params().len(),
        got
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use mai_core::name::Name;

    #[test]
    fn inject_starts_with_an_empty_environment() {
        let ps: PState<u32> = PState::inject(CExp::Exit);
        assert!(ps.env.is_empty());
        assert!(ps.is_final());
        assert_eq!(ps.site(), Label::none());
    }

    #[test]
    fn closures_touch_only_their_free_variables() {
        // (λ (x) (f x)) with env {f ↦ 1, g ↦ 2, x ↦ 3}
        let lam = Lambda::new(
            vec![Name::from("x")],
            CExp::call(Label::new(1), AExp::var("f"), vec![AExp::var("x")]),
        );
        let env: Env<u32> = [
            (Name::from("f"), 1u32),
            (Name::from("g"), 2),
            (Name::from("x"), 3),
        ]
        .into_iter()
        .collect();
        let val = Val::closure(lam, env);
        assert_eq!(val.touches(), [1u32].into_iter().collect());
    }

    #[test]
    fn states_touch_the_addresses_of_their_free_variables() {
        let call = CExp::call(Label::new(1), AExp::var("f"), vec![AExp::var("x")]);
        let env: Env<u32> = [(Name::from("f"), 10u32), (Name::from("x"), 20)]
            .into_iter()
            .collect();
        let ps = PState::new(call, env);
        assert_eq!(ps.touches(), [10u32, 20].into_iter().collect());
    }

    #[test]
    fn val_accessors_expose_code_and_environment() {
        let lam = Lambda::new(vec![Name::from("x")], CExp::Exit);
        let env: Env<u32> = [(Name::from("y"), 5u32)].into_iter().collect();
        let v = Val::closure(lam.clone(), env.clone());
        assert_eq!(v.lambda(), &lam);
        assert_eq!(v.env(), &env);
    }

    #[test]
    fn debug_renderings_are_nonempty() {
        let ps: PState<u32> = PState::inject(CExp::Exit);
        assert!(!format!("{:?}", ps).is_empty());
        let v: Val<u32> = Val::closure(Lambda::new(vec![], CExp::Exit), Env::new());
        assert!(!format!("{:?}", v).is_empty());
    }
}
