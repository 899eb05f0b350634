//! Lattices, Kleene iteration and Galois connections (paper §5.1–§5.2, §6.5).
//!
//! The collecting semantics of the paper is computed as the least fixed
//! point of a monotone functional over a complete lattice, by Kleene
//! iteration.  This module provides:
//!
//! * the [`Lattice`] trait (join semi-lattice with bottom — the part of the
//!   paper's `Lattice` class actually used by the framework, extended with
//!   the in-place, change-tracking `join_in_place` the incremental fixpoint
//!   engines are built on) together with the optional [`MeetLattice`] and
//!   [`TopLattice`] extensions,
//! * instances for the container types used by the systematic abstraction
//!   of abstract machines: unit, booleans, pairs, options, power-sets and
//!   point-wise maps (§5.2),
//! * [`AbsNat`], the abstract-counting lattice `{0, 1, ∞}` with its
//!   abstract addition `⊕` (§6.3),
//! * [`Flat`], the classic flat lattice used to abstract base values,
//! * [`kleene_it`], the ascending Kleene iteration of equation (1), and
//! * [`GaloisConnection`], used to derive the shared-store widening of
//!   §6.5.
//!
//! ### Deviation from the paper
//!
//! The paper's `Lattice` class also lists `⊤` and `⊓`; its own Haskell
//! instances leave `⊤` undefined for power-sets over infinite carriers.  We
//! split those members into [`TopLattice`] and [`MeetLattice`] so that the
//! power-set instances do not have to provide partial functions.

mod absnat;
mod galois;
mod instances;
mod interval;
mod kleene;

pub use absnat::AbsNat;
pub use galois::GaloisConnection;
pub use instances::{Flat, PointwiseExt};
pub use interval::{Hi, Interval, Lo};
pub use kleene::{kleene_it, kleene_it_widened, narrow_it};

/// A join semi-lattice with a least element.
///
/// This is the portion of the paper's `Lattice` type class that the
/// framework relies on: `⊥`, `⊔` and `⊑`.  All analysis domains (stores,
/// power-sets of states, products of both) implement it.
///
/// # Laws
///
/// * `join` is associative, commutative and idempotent;
/// * `bottom` is the unit of `join`;
/// * `leq(a, b)` iff `join(a.clone(), b.clone()) == b`;
/// * `join_in_place` agrees with `join` and its change flag equals
///   `!(other ⊑ self)`.
///
/// These laws are checked by property tests for all the provided instances.
///
/// ```rust
/// use std::collections::BTreeSet;
/// use mai_core::lattice::Lattice;
///
/// let a: BTreeSet<u8> = [1, 2].into_iter().collect();
/// let b: BTreeSet<u8> = [2, 3].into_iter().collect();
/// let ab = a.clone().join(b.clone());
/// assert!(a.leq(&ab) && b.leq(&ab));
/// assert_eq!(BTreeSet::<u8>::bottom(), BTreeSet::new());
/// ```
pub trait Lattice: Sized + Clone {
    /// The least element `⊥`.
    fn bottom() -> Self;

    /// The least upper bound `⊔` of two elements.
    #[must_use]
    fn join(self, other: Self) -> Self;

    /// The partial order `⊑`.
    fn leq(&self, other: &Self) -> bool;

    /// In-place, change-tracking join: grows `self` to `self ⊔ other` and
    /// reports whether anything grew.
    ///
    /// # Law
    ///
    /// Writing `old` for the value of `self` before the call,
    ///
    /// * `self == old.join(other)` afterwards (structurally — the same
    ///   representation `join` would have produced), and
    /// * the returned flag equals `!other.leq(&old)`.
    ///
    /// The change flag is what lets fixpoint drivers ([`kleene_it`], the
    /// incremental engine in [`crate::engine`]) detect convergence without
    /// comparing whole domains per round.  Instances should override the
    /// default with a non-allocating implementation; the default falls back
    /// to one `leq` plus a value-passing `join`.
    fn join_in_place(&mut self, other: Self) -> bool {
        let changed = !other.leq(self);
        let old = std::mem::replace(self, Self::bottom());
        *self = old.join(other);
        changed
    }

    /// Whether this element is `⊥`.
    ///
    /// The default allocates a fresh `bottom()` and runs `leq`; instances
    /// with a cheap emptiness check should override it.
    fn is_bottom(&self) -> bool {
        self.leq(&Self::bottom())
    }

    /// Joins every element of an iterator, starting from `⊥`
    /// (the paper's `joinWith` specialised to the identity).
    fn join_all<I: IntoIterator<Item = Self>>(items: I) -> Self {
        let mut acc = Self::bottom();
        for item in items {
            acc.join_in_place(item);
        }
        acc
    }
}

/// Lattices that also possess a greatest lower bound `⊓`.
pub trait MeetLattice: Lattice {
    /// The greatest lower bound of two elements.
    #[must_use]
    fn meet(self, other: Self) -> Self;
}

/// Lattices that possess a greatest element `⊤`.
pub trait TopLattice: Lattice {
    /// The greatest element.
    fn top() -> Self;
}

/// Lattices with a widening/narrowing pair — the termination device for
/// *infinite-height* domains such as [`Interval`].
///
/// On a finite-height lattice, ascending Kleene iteration terminates
/// because every strictly ascending chain is finite.  [`Interval`] breaks
/// that: `[0,0] ⊑ [0,1] ⊑ …` ascends forever.  Widening `▽` replaces the
/// join at selected accumulation points so that the iteration sequence
/// `x_{n+1} = x_n ▽ f(x_n)` is still an upper-bound chain but provably
/// stabilises; narrowing `△` then walks the over-approximation back down
/// without ever dropping below a fixpoint.
///
/// # Laws
///
/// * **Upper bound**: `a ⊑ a ▽ b` and `b ⊑ a ▽ b` (widening covers the
///   join, so a widened iterate is still a post-fixpoint candidate);
/// * **Termination**: for every sequence `y_n`, the chain
///   `x_{n+1} = x_n ▽ y_n` stabilises after finitely many strict growths;
/// * **Narrowing**: if `b ⊑ a` then `b ⊑ a △ b ⊑ a`, and every chain
///   `x_{n+1} = x_n △ y_n` with `y_n ⊑ x_n` stabilises.
///
/// The defaults — widen as plain join, narrow as the identity on `self` —
/// satisfy all three laws **on finite-height lattices only**; they make
/// every existing finite domain a `WidenLattice` for free without changing
/// its semantics.  Infinite-height domains must override both.
pub trait WidenLattice: Lattice {
    /// In-place widening: grows `self` to `self ▽ other`, reporting
    /// whether anything changed.  Defaults to [`Lattice::join_in_place`],
    /// which is a correct widening exactly when the lattice has finite
    /// height.
    fn widen_in_place(&mut self, other: Self) -> bool {
        self.join_in_place(other)
    }

    /// In-place narrowing: refines `self` to `self △ other` (with
    /// `other ⊑ self`), reporting whether anything changed.  Defaults to
    /// keeping `self` — the trivial narrowing, sound for every lattice.
    fn narrow_in_place(&mut self, other: Self) -> bool {
        let _ = other;
        false
    }

    /// Value-passing widening `self ▽ other`.
    #[must_use]
    fn widen(mut self, other: Self) -> Self {
        self.widen_in_place(other);
        self
    }

    /// Value-passing narrowing `self △ other`.
    #[must_use]
    fn narrow(mut self, other: Self) -> Self {
        self.narrow_in_place(other);
        self
    }
}

/// The paper's `joinWith` (§5.3.3): map a function over a collection and
/// join the results in a lattice.
///
/// ```rust
/// use mai_core::lattice::join_with;
/// use std::collections::BTreeSet;
///
/// let inputs = vec![1u8, 2, 3];
/// let joined: BTreeSet<u8> = join_with(|x| [x * 2].into_iter().collect(), inputs);
/// assert_eq!(joined, [2u8, 4, 6].into_iter().collect());
/// ```
pub fn join_with<A, L, F, I>(f: F, items: I) -> L
where
    L: Lattice,
    F: Fn(A) -> L,
    I: IntoIterator<Item = A>,
{
    let mut acc = L::bottom();
    for x in items {
        acc.join_in_place(f(x));
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{BTreeMap, BTreeSet};

    #[test]
    fn join_all_of_nothing_is_bottom() {
        let joined: BTreeSet<u8> = Lattice::join_all(std::iter::empty());
        assert!(joined.is_bottom());
    }

    #[test]
    fn join_with_maps_then_joins() {
        let out: BTreeMap<u8, BTreeSet<u8>> = join_with(
            |k: u8| {
                let mut m = BTreeMap::new();
                m.insert(k % 2, [k].into_iter().collect());
                m
            },
            vec![1u8, 2, 3],
        );
        assert_eq!(out[&1], [1u8, 3].into_iter().collect());
        assert_eq!(out[&0], [2u8].into_iter().collect());
    }

    #[test]
    fn is_bottom_detects_bottom_only() {
        assert!(<(u8,)>::default().0 == 0); // sanity for the test below
        assert!(BTreeSet::<u8>::new().is_bottom());
        assert!(!([1u8].into_iter().collect::<BTreeSet<_>>()).is_bottom());
    }
}
