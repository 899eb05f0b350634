//! The monad-law property suite — both carriers, observable behaviour.
//!
//! The monad laws (left identity, right identity, associativity) are
//! checked for the plain state monad [`StateM`], the non-determinism
//! carrier [`VecM`], the assembled `StorePassing` stack and the
//! direct-style carrier [`Direct`], all over **observable `(result,
//! guts, store)` runs** — `Rc`-closure computations cannot be compared as
//! values, only by running them.  On top of the per-carrier laws, a
//! randomized program AST is interpreted — by one interpreter written
//! against [`StepMonad`], as each language's `mnext` is — on *both* the
//! `Rc` and the direct carrier, and the two are asserted equal
//! run-for-run, which is what licenses the engines to select either
//! carrier per entry point.

use std::collections::BTreeSet;

use mai_core::monad::{
    run_state, run_store_passing, Branches, Direct, MonadFamily, MonadPlus, MonadState, MonadTrans,
    StateM, StateT, StepMonad, StorePassing, VecM,
};
use proptest::prelude::*;

// ---------------------------------------------------------------------------
// StateM
// ---------------------------------------------------------------------------

/// A small family of continuations `u64 -> StateM<u64>::M<u64>`, indexed so
/// the property can draw them randomly.
fn state_k(select: u8) -> impl Fn(u64) -> <StateM<u64> as MonadFamily>::M<u64> {
    type C = StateM<u64>;
    move |x: u64| match select % 4 {
        0 => <C as MonadFamily>::pure(x.wrapping_mul(3)),
        1 => <C as MonadState<u64>>::gets(move |s| s.wrapping_add(x)),
        2 => <C as MonadFamily>::then(
            <C as MonadState<u64>>::modify(move |s| s.wrapping_add(x)),
            <C as MonadFamily>::pure(x),
        ),
        _ => <C as MonadFamily>::bind(<C as MonadState<u64>>::get(), move |s| {
            <C as MonadFamily>::then(
                <C as MonadState<u64>>::put(s ^ x),
                <C as MonadFamily>::pure(s.wrapping_sub(x)),
            )
        }),
    }
}

proptest! {
    #[test]
    fn prop_state_monad_laws(a in any::<u64>(), s0 in any::<u64>(), ka in 0u8..4, kb in 0u8..4) {
        type C = StateM<u64>;
        let k = state_k(ka);
        let h = state_k(kb);

        // Left identity: bind(pure(a), k) == k(a).
        prop_assert_eq!(
            run_state(<C as MonadFamily>::bind(<C as MonadFamily>::pure(a), state_k(ka)), s0),
            run_state(k(a), s0)
        );
        // Right identity: bind(m, pure) == m.
        let m = k(a);
        prop_assert_eq!(run_state(<C as MonadFamily>::bind(m.clone(), <C as MonadFamily>::pure), s0), run_state(m.clone(), s0));
        // Associativity.
        let lhs = <C as MonadFamily>::bind(<C as MonadFamily>::bind(m.clone(), state_k(kb)), state_k(ka));
        let rhs = <C as MonadFamily>::bind(m, move |x| <C as MonadFamily>::bind(h(x), state_k(ka)));
        prop_assert_eq!(run_state(lhs, s0), run_state(rhs, s0));
    }
}

// ---------------------------------------------------------------------------
// VecM (the non-determinism carrier)
// ---------------------------------------------------------------------------

fn vec_k(select: u8) -> impl Fn(u8) -> Vec<u8> {
    move |x: u8| match select % 4 {
        0 => <VecM as MonadFamily>::pure(x.wrapping_mul(2)),
        1 => VecM::mzero(),
        2 => VecM::mplus(
            <VecM as MonadFamily>::pure(x),
            <VecM as MonadFamily>::pure(x.wrapping_add(1)),
        ),
        _ => vec![x, x, x.wrapping_add(7)],
    }
}

proptest! {
    #[test]
    fn prop_nondet_monad_laws(
        a in any::<u8>(),
        m in proptest::collection::vec(any::<u8>(), 0..5),
        ka in 0u8..4,
        kb in 0u8..4,
    ) {
        let k = vec_k(ka);
        let h = vec_k(kb);

        // Left identity.
        prop_assert_eq!(<VecM as MonadFamily>::bind(<VecM as MonadFamily>::pure(a), vec_k(ka)), k(a));
        // Right identity.
        prop_assert_eq!(<VecM as MonadFamily>::bind(m.clone(), <VecM as MonadFamily>::pure), m.clone());
        // Associativity.
        let lhs = <VecM as MonadFamily>::bind(<VecM as MonadFamily>::bind(m.clone(), vec_k(ka)), vec_k(kb));
        let rhs = <VecM as MonadFamily>::bind(m.clone(), move |x| <VecM as MonadFamily>::bind(k(x), vec_k(kb)));
        prop_assert_eq!(lhs, rhs);
        // mzero is the unit of mplus and annihilates bind.
        let _ = &h;
        prop_assert_eq!(VecM::mplus(VecM::mzero(), m.clone()), m.clone());
        prop_assert_eq!(VecM::mplus(m.clone(), VecM::mzero()), m);
        prop_assert_eq!(<VecM as MonadFamily>::bind(VecM::mzero::<u8>(), vec_k(kb)), Vec::<u8>::new());
    }
}

// ---------------------------------------------------------------------------
// StorePassing (Rc carrier) vs Direct — one program AST, one interpreter
// ---------------------------------------------------------------------------

type G = u64;
type S = BTreeSet<u8>;
type Rc = StorePassing<G, S>;
type D = Direct<G, S>;

/// A small monadic program over guts `u64` and store `BTreeSet<u8>`,
/// generated randomly and interpreted into both carriers.
#[derive(Debug, Clone)]
enum Prog {
    /// `pure v`
    Pure(u8),
    /// Advance the guts deterministically, yield the tick tag.
    Tick(u8),
    /// Weak-update the store with a value, yield it.
    Write(u8),
    /// Read the store: one branch per element at most `cap` (bounded
    /// non-determinism straight out of the state, like `gets_nd_set`).
    ReadBranch(u8),
    /// Non-deterministic choice.
    Plus(Box<Prog>, Box<Prog>),
    /// Sequencing: run the left, feed its result into the right via an
    /// offset (exercises bind's context threading).
    Seq(Box<Prog>, Box<Prog>),
}

fn prog_strategy() -> BoxedStrategy<Prog> {
    let leaf = prop_oneof![
        (0u8..16).prop_map(Prog::Pure),
        (0u8..16).prop_map(Prog::Tick),
        (0u8..16).prop_map(Prog::Write),
        (0u8..6).prop_map(Prog::ReadBranch),
    ];
    leaf.prop_recursive(3, 16, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Prog::Plus(Box::new(a), Box::new(b))),
            (inner.clone(), inner).prop_map(|(a, b)| Prog::Seq(Box::new(a), Box::new(b))),
        ]
    })
}

/// The program's effects — the analogue of a language's semantic
/// interface, implemented once per carrier.
trait ProgEffects: StepMonad<Cx: Clone> {
    fn tick(v: u8, cx: Self::Cx) -> Self::M<u8>;
    fn write(v: u8, cx: Self::Cx) -> Self::M<u8>;
    fn read_branch(cap: u8, cx: Self::Cx) -> Self::M<u8>;
    fn plus(x: Self::M<u8>, y: Self::M<u8>) -> Self::M<u8>;
}

impl ProgEffects for Rc {
    fn tick(v: u8, (): ()) -> <Rc as MonadFamily>::M<u8> {
        <Rc as MonadFamily>::bind(
            <Rc as MonadState<G>>::modify(move |g| g.wrapping_mul(31).wrapping_add(v as u64)),
            move |_| <Rc as MonadFamily>::pure(v),
        )
    }

    fn write(v: u8, (): ()) -> <Rc as MonadFamily>::M<u8> {
        <Rc as MonadFamily>::bind(
            <Rc as MonadTrans>::lift(<StateT<S, VecM> as MonadState<S>>::modify(
                move |mut s: S| {
                    s.insert(v);
                    s
                },
            )),
            move |_| <Rc as MonadFamily>::pure(v),
        )
    }

    fn read_branch(cap: u8, (): ()) -> <Rc as MonadFamily>::M<u8> {
        <Rc as MonadTrans>::lift(mai_core::monad::gets_nd_set::<StateT<S, VecM>, S, u8, _>(
            move |s| s.iter().copied().filter(|v| *v < cap).collect(),
        ))
    }

    fn plus(
        x: <Rc as MonadFamily>::M<u8>,
        y: <Rc as MonadFamily>::M<u8>,
    ) -> <Rc as MonadFamily>::M<u8> {
        Rc::mplus(x, y)
    }
}

impl ProgEffects for D {
    fn tick(v: u8, (g, s): (G, S)) -> Branches<u8, G, S> {
        D::pure(v, (g.wrapping_mul(31).wrapping_add(v as u64), s))
    }

    fn write(v: u8, (g, mut s): (G, S)) -> Branches<u8, G, S> {
        s.insert(v);
        D::pure(v, (g, s))
    }

    fn read_branch(cap: u8, (g, s): (G, S)) -> Branches<u8, G, S> {
        let values = s.iter().copied().filter(|v| *v < cap).collect();
        Branches::each(values, (g, s))
    }

    fn plus(mut x: Branches<u8, G, S>, y: Branches<u8, G, S>) -> Branches<u8, G, S> {
        x.append(y);
        x
    }
}

/// Interprets the program — written once, against [`StepMonad`].
fn interp<M: ProgEffects>(p: &Prog, cx: M::Cx) -> M::M<u8> {
    match p {
        Prog::Pure(v) => M::pure(*v, cx),
        Prog::Tick(v) => M::tick(*v, cx),
        Prog::Write(v) => M::write(*v, cx),
        Prog::ReadBranch(cap) => M::read_branch(*cap, cx),
        Prog::Plus(a, b) => M::plus(interp::<M>(a, cx.clone()), interp::<M>(b, cx)),
        Prog::Seq(a, b) => {
            let b = (**b).clone();
            M::bind(interp::<M>(a, cx), move |x, cx| {
                M::bind(interp::<M>(&b, cx), move |y, cx| {
                    M::pure(x.wrapping_add(y), cx)
                })
            })
        }
    }
}

fn interp_rc(p: &Prog) -> <Rc as MonadFamily>::M<u8> {
    interp::<Rc>(p, ())
}

fn interp_direct(p: &Prog, guts: G, store: S) -> Branches<u8, G, S> {
    interp::<D>(p, (guts, store))
}

/// `fmap` on the direct carrier.
fn fmap_direct(m: Branches<u8, G, S>, f: impl Fn(u8) -> u8 + 'static) -> Branches<u8, G, S> {
    D::bind(m, move |y, cx| D::pure(f(y), cx))
}

proptest! {
    /// The two carriers are observationally identical on every generated
    /// program: same branches, same values, same guts, same stores, same
    /// order.
    #[test]
    fn prop_direct_carrier_equals_rc_carrier(
        p in prog_strategy(),
        guts in any::<u64>(),
        seed in proptest::collection::btree_set(0u8..8, 0..4),
    ) {
        let rc: Vec<((u8, G), S)> = run_store_passing(interp_rc(&p), guts, seed.clone());
        let direct = interp_direct(&p, guts, seed).into_vec();
        prop_assert_eq!(rc, direct);
    }

    /// The direct carrier satisfies the monad laws over observable branch
    /// vectors, with continuations drawn from the same program family.
    #[test]
    fn prop_direct_monad_laws(
        a in 0u8..16,
        p in prog_strategy(),
        q in prog_strategy(),
        guts in any::<u64>(),
        seed in proptest::collection::btree_set(0u8..8, 0..4),
    ) {
        let m = interp_direct(&p, guts, seed.clone());
        let k = move |x: u8, (g, s): (G, S)| {
            fmap_direct(interp_direct(&p, g, s), move |y| y.wrapping_add(x))
        };
        let h = move |x: u8, (g, s): (G, S)| {
            fmap_direct(interp_direct(&q, g, s), move |y| y ^ x)
        };

        // Left identity.
        prop_assert_eq!(
            D::bind(D::pure(a, (guts, seed.clone())), k.clone()),
            k(a, (guts, seed.clone()))
        );
        // Right identity.
        prop_assert_eq!(D::bind(m.clone(), D::pure), m.clone());
        // Associativity.
        let lhs = D::bind(D::bind(m.clone(), k.clone()), h.clone());
        let rhs = D::bind(m, move |x, cx| D::bind(k(x, cx), h.clone()));
        prop_assert_eq!(lhs, rhs);
    }

    /// The Rc `StorePassing` stack satisfies the monad laws over observable
    /// runs, with continuations drawn from the program family.
    #[test]
    fn prop_store_passing_monad_laws(
        a in 0u8..16,
        p in prog_strategy(),
        q in prog_strategy(),
        guts in any::<u64>(),
        seed in proptest::collection::btree_set(0u8..8, 0..4),
    ) {
        let pk = p.clone();
        let k = move |x: u8| {
            <Rc as MonadFamily>::fmap(interp_rc(&pk), move |y: u8| y.wrapping_add(x))
        };
        let qk = q.clone();
        let h = move |x: u8| <Rc as MonadFamily>::fmap(interp_rc(&qk), move |y: u8| y ^ x);

        // Left identity.
        prop_assert_eq!(
            run_store_passing(<Rc as MonadFamily>::bind(<Rc as MonadFamily>::pure(a), k.clone()), guts, seed.clone()),
            run_store_passing(k(a), guts, seed.clone())
        );
        // Right identity.
        let m = interp_rc(&p);
        prop_assert_eq!(
            run_store_passing(<Rc as MonadFamily>::bind(m.clone(), <Rc as MonadFamily>::pure), guts, seed.clone()),
            run_store_passing(m.clone(), guts, seed.clone())
        );
        // Associativity.
        let lhs = <Rc as MonadFamily>::bind(<Rc as MonadFamily>::bind(m.clone(), k.clone()), h.clone());
        let rhs = <Rc as MonadFamily>::bind(m, move |x| <Rc as MonadFamily>::bind(k(x), h.clone()));
        prop_assert_eq!(
            run_store_passing(lhs, guts, seed.clone()),
            run_store_passing(rhs, guts, seed)
        );
    }
}
