//! The direct instance of the Featherweight Java semantics.
//!
//! [`mnext`] runs on the direct-style step carrier ([`Direct`]) with the
//! `(context, store)` pair as its explicit context: `lookup`/`fetch`/
//! `kont_at` fan the fetched set out into one branch per element, `bind_*`
//! are in-place weak updates on the branch's own store, `alloc*` consult
//! the context and `tick` advances it.  No `Rc<dyn Fn>` is allocated, and
//! the branches come out in the order the closure carrier enumerates them.

use std::collections::BTreeSet;

use mai_core::addr::Context;
use mai_core::monad::{Branches, Direct, StepMonad};
use mai_core::name::{Label, Name};
use mai_core::store::{fetch_filtered, StoreLike};

use crate::machine::{kont_name, mnext, Env, FjInterface, Kont, KontKind, Obj, PState, Storable};
use crate::syntax::{ClassTable, VarName};

impl<C, S> FjInterface<C::Addr> for Direct<C, S>
where
    C: Context,
    S: StoreLike<C::Addr, D = BTreeSet<Storable<C::Addr>>>,
{
    fn lookup(env: &Env<C::Addr>, var: &VarName, cx: (C, S)) -> Branches<Obj<C::Addr>, C, S> {
        match env.get(var) {
            Some(a) => Self::fetch(a, cx),
            None => Branches::none(),
        }
    }

    fn fetch(addr: &C::Addr, (ctx, store): (C, S)) -> Branches<Obj<C::Addr>, C, S> {
        let objs = fetch_filtered(&store, addr, Storable::as_val);
        Branches::each(objs, (ctx, store))
    }

    fn kont_at(addr: &C::Addr, (ctx, store): (C, S)) -> Branches<Kont<C::Addr>, C, S> {
        let frames = fetch_filtered(&store, addr, Storable::as_kont);
        Branches::each(frames, (ctx, store))
    }

    fn bind_val(addr: C::Addr, val: Obj<C::Addr>, (ctx, mut store): (C, S)) -> Branches<(), C, S> {
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

    fn alloc(name: &Name, (ctx, store): (C, S)) -> Branches<C::Addr, C, S> {
        Self::pure(ctx.valloc(name), (ctx, store))
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
pub fn mnext_direct<C, S>(
    table: &ClassTable,
    ps: PState<C::Addr>,
    ctx: C,
    store: S,
) -> Successors<C, S>
where
    C: Context,
    S: StoreLike<C::Addr, D = BTreeSet<Storable<C::Addr>>>,
{
    mnext::<Direct<C, S>, C::Addr>(table, ps, (ctx, store)).into_vec()
}
