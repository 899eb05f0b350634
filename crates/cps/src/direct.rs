//! The direct instance of the CPS semantics.
//!
//! [`mnext`] runs on the direct-style step carrier ([`Direct`]) with the
//! `(context, store)` pair as its explicit context: `fun`/`arg` fan a
//! fetched binding out into one branch per value, `write` is an in-place
//! weak update on the branch's own store, `alloc` consults the context and
//! `tick` advances it.  No `Rc<dyn Fn>` is allocated, and the branches come
//! out in the order the closure carrier enumerates them.

use std::collections::BTreeSet;

use mai_core::addr::Context;
use mai_core::monad::{Branches, Direct, StepMonad};
use mai_core::store::{fetch_filtered, StoreLike};

use crate::semantics::{mnext, CpsInterface, Env, PState, Val};
use crate::syntax::{AExp, Var};

impl<C, S> CpsInterface<C::Addr> for Direct<C, S>
where
    C: Context,
    S: StoreLike<C::Addr, D = BTreeSet<Val<C::Addr>>>,
{
    fn fun(env: &Env<C::Addr>, e: &AExp, (ctx, store): (C, S)) -> Branches<Val<C::Addr>, C, S> {
        match e {
            AExp::Lam(lam) => Self::pure(Val::closure(lam.clone(), env.clone()), (ctx, store)),
            AExp::Ref(v) => {
                let vals = match env.get(v) {
                    Some(a) => fetch_filtered(&store, a, |v| Some(v)),
                    None => Vec::new(),
                };
                Branches::each(vals, (ctx, store))
            }
        }
    }

    fn arg(env: &Env<C::Addr>, e: &AExp, cx: (C, S)) -> Branches<Val<C::Addr>, C, S> {
        Self::fun(env, e, cx)
    }

    fn write(addr: C::Addr, val: Val<C::Addr>, (ctx, mut store): (C, S)) -> Branches<(), C, S> {
        store.bind_in_place(addr, [val].into_iter().collect());
        Self::pure((), (ctx, store))
    }

    fn alloc(var: &Var, (ctx, store): (C, S)) -> Branches<C::Addr, C, S> {
        Self::pure(ctx.valloc(var), (ctx, store))
    }

    fn tick(
        _proc: &Val<C::Addr>,
        ps: &PState<C::Addr>,
        (ctx, store): (C, S),
    ) -> Branches<(), C, S> {
        Self::pure((), (ctx.advance(ps.site()), store))
    }
}

/// The successor branches of one transition, in the engines' shape.
pub type Successors<C, S> = Vec<((PState<<C as Context>::Addr>, C), S)>;

/// [`mnext`] on the direct carrier, as the engines' step function.
pub fn mnext_direct<C, S>(ps: PState<C::Addr>, ctx: C, store: S) -> Successors<C, S>
where
    C: Context,
    S: StoreLike<C::Addr, D = BTreeSet<Val<C::Addr>>>,
{
    mnext::<Direct<C, S>, C::Addr>(ps, (ctx, store)).into_vec()
}
