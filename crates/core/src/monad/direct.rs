//! The direct-style (allocation-free) step carrier.
//!
//! The paper's `StorePassing` monad is encoded in this crate as
//! reference-counted closures: a computation is an `Rc<dyn Fn(S) -> …>`,
//! and every [`MonadFamily::bind`](super::MonadFamily::bind) allocates a
//! fresh `Rc` wrapping the continuation.  That encoding is maximally
//! faithful to the Haskell original, but it makes every transition pay one
//! heap allocation *per bind* plus the closure-capture clones those binds
//! force.
//!
//! [`Direct`] is the [`StepMonad`] instance the fixpoint engines run the
//! very same `mnext` on: its context is the `(guts, store)` pair itself,
//! a computation is not a closure but its *result* — the eagerly
//! evaluated [`Branches`] — and `bind` feeds each branch, with its own
//! context, to the continuation in place.  No `Rc<dyn Fn>` is ever
//! allocated; a one-branch computation is held inline, and with the
//! persistent [`PMap`](crate::pmap) spine the per-branch store is an `Arc`
//! bump away.  The observable behaviour is that of the closure carrier:
//!
//! ```text
//! run_store_passing(mnext(ps, ()), g, s)  ==  mnext(ps, (g, s)).into_vec()
//! ```
//!
//! which `tests/monad_laws.rs` checks over randomized programs written once
//! against [`StepMonad`].

use std::marker::PhantomData;

use super::{StepMonad, Value};

/// The branches of a direct-style computation, in the engines'
/// `((value, guts), store)` shape: the desugared `g -> s -> [((a, g), s)]`
/// of the paper's `StorePassing` (§5.3.1) with the function arrow already
/// applied.  The common single-branch case is held inline, so a
/// deterministic chain of binds allocates no vector at all.
#[derive(Debug, Clone)]
pub enum Branches<A, G, S> {
    /// Exactly one branch.
    One(((A, G), S)),
    /// Any number of branches (`Many(vec![])` is `mzero`).
    Many(Vec<((A, G), S)>),
}

impl<A, G, S> Branches<A, G, S> {
    /// No branches.
    pub fn none() -> Self {
        Branches::Many(Vec::new())
    }

    /// One branch per value, each on its own copy of the context (the
    /// last value takes `cx` itself): how fetching a set-valued binding
    /// fans out into non-determinism.
    pub fn each(values: Vec<A>, (guts, store): (G, S)) -> Self
    where
        G: Clone,
        S: Clone,
    {
        let mut values = values.into_iter();
        let Some(mut last) = values.next() else {
            return Branches::none();
        };
        let mut out = Vec::with_capacity(values.len() + 1);
        for next in values {
            out.push(((last, guts.clone()), store.clone()));
            last = next;
        }
        if out.is_empty() {
            return Branches::One(((last, guts), store));
        }
        out.push(((last, guts), store));
        Branches::Many(out)
    }

    /// The branches, in order.
    fn as_slice(&self) -> &[((A, G), S)] {
        match self {
            Branches::One(b) => std::slice::from_ref(b),
            Branches::Many(v) => v,
        }
    }

    /// Non-deterministic choice (`mplus`): the branches of `self`, then
    /// those of `other`.
    pub fn append(&mut self, other: Self) {
        let mut all = std::mem::replace(self, Branches::none()).into_vec();
        all.extend(other.into_vec());
        *self = Branches::Many(all);
    }

    /// The branches as the engines' transition currency.
    pub fn into_vec(self) -> Vec<((A, G), S)> {
        match self {
            Branches::One(b) => vec![b],
            Branches::Many(v) => v,
        }
    }

    /// `bind` with a borrowing continuation: the carrier's own loops use
    /// this, the `'static` bound of [`StepMonad::bind`] being for closure
    /// carriers only.
    fn then<B, K>(self, mut k: K) -> Branches<B, G, S>
    where
        K: FnMut(A, (G, S)) -> Branches<B, G, S>,
    {
        match self {
            Branches::One(((a, g), s)) => k(a, (g, s)),
            Branches::Many(bs) => {
                let mut out = Vec::with_capacity(bs.len());
                for ((a, g), s) in bs {
                    match k(a, (g, s)) {
                        Branches::One(b) => out.push(b),
                        Branches::Many(more) => out.extend(more),
                    }
                }
                Branches::Many(out)
            }
        }
    }

    /// [`Branches::then`] for a continuation that consumes `x`: moved into
    /// a one-branch computation, cloned per branch otherwise.
    fn then_with<X: Clone, B, K>(self, x: X, mut k: K) -> Branches<B, G, S>
    where
        K: FnMut(A, X, (G, S)) -> Branches<B, G, S>,
    {
        match self {
            Branches::One(((a, g), s)) => k(a, x, (g, s)),
            many => many.then(|a, cx| k(a, x.clone(), cx)),
        }
    }
}

/// Branch vectors are equal when they hold the same branches in the same
/// order, however they are represented.
impl<A: PartialEq, G: PartialEq, S: PartialEq> PartialEq for Branches<A, G, S> {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<A: Eq, G: Eq, S: Eq> Eq for Branches<A, G, S> {}

/// The direct-style carrier: a [`StepMonad`] whose context is the
/// `(guts, store)` pair and whose computations are [`Branches`].
///
/// ```rust
/// use mai_core::monad::{Branches, Direct, StepMonad};
///
/// type M = Direct<u32, u32>;
/// // Branch on two values, write each into the store.
/// let m = M::bind(Branches::each(vec![1, 2], (0, 10)), |v, (g, s)| {
///     M::pure(v, (g, s + v))
/// });
/// assert_eq!(m.into_vec(), vec![((1, 0), 11), ((2, 0), 12)]);
/// ```
pub struct Direct<G, S>(PhantomData<(G, S)>);

impl<G: Value + Send + Sync, S: Value + Send + Sync> StepMonad for Direct<G, S> {
    type Cx = (G, S);
    type M<A: Value> = Branches<A, G, S>;

    #[inline]
    fn pure<A: Value>(a: A, (guts, store): (G, S)) -> Branches<A, G, S> {
        Branches::One(((a, guts), store))
    }

    #[inline]
    fn bind<A: Value, B: Value, F>(m: Branches<A, G, S>, k: F) -> Branches<B, G, S>
    where
        F: Fn(A, (G, S)) -> Branches<B, G, S> + 'static,
    {
        m.then(k)
    }

    /// `b` is moved into the last branch and cloned only for the others.
    fn then_pure<A: Value, B: Value>(m: Branches<A, G, S>, b: B) -> Branches<B, G, S> {
        match m {
            Branches::One(((_, g), s)) => Branches::One(((b, g), s)),
            Branches::Many(bs) => {
                let mut b = Some(b);
                let last = bs.len().saturating_sub(1);
                let bs = bs.into_iter().enumerate().map(|(i, ((_, g), s))| {
                    let b = if i == last { b.take() } else { b.clone() };
                    ((b.expect("moved only into the last branch"), g), s)
                });
                Branches::Many(bs.collect())
            }
        }
    }

    /// One pass per element over the accumulated branches; a branch's
    /// accumulator is moved into its last successor and cloned only for
    /// the others, so a deterministic `mapM` builds one vector.
    fn map_m<I, A, F>(xs: I, f: F, cx: (G, S)) -> Branches<Vec<A>, G, S>
    where
        I: IntoIterator,
        I::Item: Value,
        A: Value,
        F: Fn(I::Item, (G, S)) -> Branches<A, G, S> + 'static,
    {
        let xs = xs.into_iter();
        let mut acc = Self::pure(Vec::with_capacity(xs.size_hint().0), cx);
        for x in xs {
            acc = acc.then_with(x, |mut done, x, cx| match f(x, cx) {
                Branches::One(((a, g), s)) => {
                    done.push(a);
                    Branches::One(((done, g), s))
                }
                Branches::Many(bs) => {
                    let mut out = Vec::with_capacity(bs.len());
                    let mut bs = bs.into_iter().peekable();
                    while let Some(((a, g), s)) = bs.next() {
                        let mut done = match bs.peek() {
                            Some(_) => done.clone(),
                            None => std::mem::take(&mut done),
                        };
                        done.push(a);
                        out.push(((done, g), s));
                    }
                    Branches::Many(out)
                }
            });
        }
        acc
    }

    /// A plain loop: no accumulator, no intermediate vector.
    fn for_each_m<I, F>(xs: I, f: F, cx: (G, S)) -> Branches<(), G, S>
    where
        I: IntoIterator,
        I::Item: Value,
        F: Fn(I::Item, (G, S)) -> Branches<(), G, S> + 'static,
    {
        let mut acc = Self::pure((), cx);
        for x in xs {
            acc = acc.then_with(x, |(), x, cx| f(x, cx));
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::monad::{
        run_store_passing, MonadFamily, MonadState, MonadTrans, StateT, StorePassing, VecM,
    };

    type G = u64;
    type S = u64;
    type D = Direct<G, S>;
    type Rc = StorePassing<G, S>;

    /// A sample program written once against [`StepMonad`] with the
    /// carrier-specific effects passed in: tick the guts, branch on the
    /// store value, write back per branch.
    fn sample<M: StepMonad>(
        tick: fn(M::Cx) -> M::M<()>,
        read: fn(M::Cx) -> M::M<u64>,
        write: fn(u64, M::Cx) -> M::M<()>,
        cx: M::Cx,
    ) -> M::M<u64> {
        M::bind(tick(cx), move |(), cx| {
            M::bind(read(cx), move |v, cx| {
                M::bind(write(v, cx), move |(), cx| M::pure(v, cx))
            })
        })
    }

    fn sample_rc() -> <Rc as MonadFamily>::M<u64> {
        sample::<Rc>(
            |()| <Rc as MonadState<G>>::modify(|t| t + 1),
            |()| {
                <Rc as MonadTrans>::lift(crate::monad::gets_nd_set::<StateT<S, VecM>, S, u64, _>(
                    |s| [*s, *s + 10].into_iter().collect(),
                ))
            },
            |v, ()| {
                <Rc as MonadTrans>::lift(<StateT<S, VecM> as MonadState<S>>::modify(move |s| s + v))
            },
            (),
        )
    }

    fn sample_direct(guts: G, store: S) -> Branches<u64, G, S> {
        sample::<D>(
            |(g, s)| D::pure((), (g + 1, s)),
            |(g, s)| Branches::each(vec![s, s + 10], (g, s)),
            |v, (g, s)| D::pure((), (g, s + v)),
            (guts, store),
        )
    }

    #[test]
    fn direct_carrier_matches_the_rc_oracle() {
        for (guts, store) in [(0u64, 5u64), (3, 0), (7, 100)] {
            let rc: Vec<((u64, G), S)> = run_store_passing(sample_rc(), guts, store);
            let direct = sample_direct(guts, store).into_vec();
            assert_eq!(rc, direct, "carriers diverged at ({guts}, {store})");
        }
    }

    #[test]
    fn bind_is_branch_concatenation_in_order() {
        let two = Branches::each(vec![1u8, 2], (0, 0));
        let m = D::bind(two, |v, cx| Branches::each(vec![(v, 'a'), (v, 'b')], cx));
        let vals: Vec<(u8, char)> = m.into_vec().into_iter().map(|((v, _), _)| v).collect();
        assert_eq!(vals, vec![(1, 'a'), (1, 'b'), (2, 'a'), (2, 'b')]);
    }

    #[test]
    fn monad_laws_hold_observationally() {
        let k = |x: u64, (g, s): (G, S)| D::pure(x + s, (g + 1, s));
        // Left identity.
        assert_eq!(D::bind(D::pure(3, (7, 9)), k), k(3, (7, 9)));
        // Right identity.
        let m = sample_direct(2, 4);
        assert_eq!(D::bind(m.clone(), D::pure), m);
        // Associativity.
        let h = |x: u64, (g, s): (G, S)| {
            let mut m = D::pure(x, (g, s));
            m.append(D::pure(x * 2, (g, s + 1)));
            m
        };
        let lhs = D::bind(D::bind(m.clone(), k), h);
        let rhs = D::bind(m, move |a, cx| D::bind(k(a, cx), h));
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn mzero_annihilates_and_mplus_is_union() {
        let none: Branches<u8, G, S> = Branches::none();
        assert!(D::bind(none.clone(), D::pure::<u8>).into_vec().is_empty());
        let one = D::pure(1u8, (0, 0));
        let mut left = none.clone();
        left.append(one.clone());
        assert_eq!(left, one);
        let mut right = one.clone();
        right.append(none);
        assert_eq!(right, one);
        // mapM over a branching step enumerates the product, leftmost
        // outermost, as the list monad does.
        let m = D::map_m(
            vec![2u8, 3],
            |n, cx| Branches::each((0..n).collect(), cx),
            (0, 0),
        );
        let vals: Vec<Vec<u8>> = m.into_vec().into_iter().map(|((v, _), _)| v).collect();
        assert_eq!(
            vals,
            vec![
                vec![0, 0],
                vec![0, 1],
                vec![0, 2],
                vec![1, 0],
                vec![1, 1],
                vec![1, 2]
            ]
        );
    }
}
