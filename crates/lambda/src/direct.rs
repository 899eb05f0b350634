//! The direct instance of the CESK semantics.
//!
//! [`mnext`] runs on the direct-style step carrier ([`Direct`]) with the
//! `(context, store)` pair as its explicit context: `lookup`/`kont_at` fan
//! the fetched set out into one branch per element through
//! [`Branches::fetch_each`], `bind_*` are in-place weak updates on the
//! branch's own store, `alloc_*` consult the context and `tick` advances
//! it.  No `Rc<dyn Fn>` is allocated.  The branches are the closure
//! carrier's, in the fetched set's trie order rather than its sorted
//! order.  On a semi-naive re-step the
//! fan-out makes only the branches that choose a value or frame the
//! previous step did not see.

use mai_core::addr::Context;
use mai_core::env::PSet;
use mai_core::monad::{Branches, Direct, StepMonad};
use mai_core::name::Label;
use mai_core::store::StoreLike;

use crate::machine::{
    kont_name, mnext, CeskInterface, Closure, Env, Kont, KontKind, PState, Storable,
};
use crate::syntax::Var;

impl<C, S> CeskInterface<C::Addr> for Direct<C, S>
where
    C: Context,
    S: StoreLike<C::Addr, D = PSet<Storable<C::Addr>>>,
{
    fn lookup(
        env: &Env<C::Addr>,
        var: &Var,
        (ctx, store): (C, S),
    ) -> Branches<Closure<C::Addr>, C, S> {
        match env.get(var) {
            Some(a) => Branches::fetch_each(a, Storable::as_val, (ctx, store)),
            None => Branches::none(),
        }
    }

    fn kont_at(addr: &C::Addr, cx: (C, S)) -> Branches<Kont<C::Addr>, C, S> {
        Branches::fetch_each(addr, Storable::as_kont, cx)
    }

    fn bind_val(
        addr: C::Addr,
        val: Closure<C::Addr>,
        (ctx, mut store): (C, S),
    ) -> Branches<(), C, S> {
        store.bind_in_place(addr, [Storable::Val(val)].into_iter().collect());
        Self::pure((), (ctx, store))
    }

    fn bind_kont(
        addr: C::Addr,
        kont: Kont<C::Addr>,
        (ctx, mut store): (C, S),
    ) -> Branches<(), C, S> {
        store.bind_in_place(addr, [Storable::Kont(kont)].into_iter().collect());
        Self::pure((), (ctx, store))
    }

    fn alloc_val(var: &Var, (ctx, store): (C, S)) -> Branches<C::Addr, C, S> {
        Self::pure(ctx.valloc(var), (ctx, store))
    }

    fn alloc_kont(site: Label, kind: KontKind, (ctx, store): (C, S)) -> Branches<C::Addr, C, S> {
        Self::pure(ctx.valloc(&kont_name(site, kind)), (ctx, store))
    }

    fn tick(site: Label, (ctx, store): (C, S)) -> Branches<(), C, S> {
        Self::pure((), (ctx.advance(site), store))
    }
}

/// The successor branches of one transition, in the engines' shape.
pub type Successors<C, S> = Vec<((PState<<C as Context>::Addr>, C), S)>;

/// [`mnext`] on the direct carrier, as the engines' step function.
pub fn mnext_direct<C, S>(ps: PState<C::Addr>, ctx: C, store: S) -> Successors<C, S>
where
    C: Context,
    S: StoreLike<C::Addr, D = PSet<Storable<C::Addr>>>,
{
    mnext::<Direct<C, S>, C::Addr>(ps, (ctx, store)).into_vec()
}
