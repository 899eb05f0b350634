//! The lattice-law property suite.
//!
//! Every [`Lattice`] instance reachable from the stores — the old
//! `BTreeMap` point-wise carrier, the new persistent [`PMap`] carrier, the
//! persistent [`PSet`] value sets on the same trie, the counting entries
//! and the assembled stores themselves — is checked against the full law
//! set:
//!
//! * `join` is **commutative**, **associative** and **idempotent**;
//! * `bottom` is the **identity** of `join`, and `is_bottom` agrees with
//!   `leq(⊥)`;
//! * `leq` is consistent with `join` (both operands are below the join,
//!   and the order is reflexive);
//! * the PR-2 **in-place law**: `join_in_place` produces the same value as
//!   `join` and its change flag equals `!(other ⊑ self)` — and re-joining
//!   an absorbed value reports no change.
//!
//! When the store representation changes (as it did when the spine moved
//! from `BTreeMap` to `PMap`), these are exactly the obligations that must
//! be re-established — see *Verified Functional Programming of an Abstract
//! Interpreter* (Franceschino et al.), which mechanises the same law set.

use std::collections::{BTreeMap, BTreeSet};

use mai_core::env::PSet;
use mai_core::lattice::{AbsNat, Flat, Interval, Lattice, WidenLattice};
use mai_core::pmap::PMap;
use mai_core::store::{BasicStore, CountingStore, StoreLike};
use proptest::prelude::*;
use proptest::strategy::one_of;

/// The whole law set for one pair (plus one associativity witness).
fn assert_lattice_laws<L>(a: L, b: L, c: L)
where
    L: Lattice + PartialEq + std::fmt::Debug,
{
    // Commutativity.
    assert_eq!(a.clone().join(b.clone()), b.clone().join(a.clone()));
    // Associativity.
    assert_eq!(
        a.clone().join(b.clone()).join(c.clone()),
        a.clone().join(b.clone().join(c.clone()))
    );
    // Idempotence.
    assert_eq!(a.clone().join(a.clone()), a);
    // Bottom identity (both sides).
    assert_eq!(L::bottom().join(a.clone()), a);
    assert_eq!(a.clone().join(L::bottom()), a);
    // leq / join consistency and reflexivity.
    let j = a.clone().join(b.clone());
    assert!(a.leq(&j) && b.leq(&j));
    assert!(a.leq(&a));
    assert!(L::bottom().leq(&a));
    // The in-place law: same value as join, flag == !(other ⊑ self).
    let mut acc = a.clone();
    let changed = acc.join_in_place(b.clone());
    assert_eq!(acc, a.clone().join(b.clone()));
    assert_eq!(changed, !b.leq(&a));
    // Re-joining an absorbed value never reports growth.
    assert!(!acc.join_in_place(b.clone()));
    // is_bottom agrees with the order.
    assert_eq!(a.is_bottom(), a.leq(&L::bottom()));
    assert!(L::bottom().is_bottom());
}

/// Declares one law-checked instance: a module running the law set over
/// triples drawn from the given strategy.
macro_rules! lattice_laws {
    ($name:ident, $ty:ty, $strat:expr) => {
        mod $name {
            use super::*;

            proptest! {
                #[test]
                fn prop_laws(a in $strat, b in $strat, c in $strat) {
                    let _ = &c;
                    assert_lattice_laws::<$ty>(a, b, c);
                }
            }
        }
    };
}

fn absnat() -> BoxedStrategy<AbsNat> {
    one_of(vec![
        Just(AbsNat::Zero).boxed(),
        Just(AbsNat::One).boxed(),
        Just(AbsNat::Many).boxed(),
    ])
}

fn flat() -> BoxedStrategy<Flat<u8>> {
    prop_oneof![
        Just(Flat::Bottom),
        (0u8..4).prop_map(Flat::Exactly),
        Just(Flat::Top),
    ]
}

fn btree_set() -> BoxedStrategy<BTreeSet<u8>> {
    proptest::collection::btree_set(0u8..6, 0..5).boxed()
}

fn pset() -> BoxedStrategy<PSet<u8>> {
    proptest::collection::vec(0u8..6, 0..5)
        .prop_map(|xs| xs.into_iter().collect())
        .boxed()
}

/// The *old* point-wise map carrier: `BTreeMap` with set values (no
/// explicit-⊥ bindings — the shape the stores actually produce).
fn btree_map_carrier() -> BoxedStrategy<BTreeMap<u8, BTreeSet<u8>>> {
    proptest::collection::vec((0u8..5, 1u8..6), 0..8)
        .prop_map(|pairs| {
            let mut map: BTreeMap<u8, BTreeSet<u8>> = BTreeMap::new();
            for (k, v) in pairs {
                map.entry(k).or_default().insert(v);
            }
            map
        })
        .boxed()
}

/// The *new* persistent spine carrier: `PMap` with persistent set values,
/// built through the joining insert exactly as the stores do.
fn pmap_carrier() -> BoxedStrategy<PMap<u8, PSet<u8>>> {
    proptest::collection::vec((0u8..5, 1u8..6), 0..8)
        .prop_map(|pairs| {
            let mut map: PMap<u8, PSet<u8>> = PMap::new();
            for (k, v) in pairs {
                map.join_at_in_place(k, [v].into_iter().collect());
            }
            map
        })
        .boxed()
}

/// A counting-store entry: the pair lattice of a value set and a count.
fn counting_entry() -> BoxedStrategy<(PSet<u8>, AbsNat)> {
    (pset(), absnat()).boxed()
}

/// Arbitrary intervals over a small window of ℤ, including the unbounded
/// shapes.  The vendored proptest only implements `Strategy` for unsigned
/// ranges, so bounds are sampled as offsets and shifted into `[-5, 6]`.
fn interval() -> BoxedStrategy<Interval> {
    let small = || (0u8..12).prop_map(|n| n as i64 - 5);
    prop_oneof![
        Just(Interval::Empty),
        small().prop_map(Interval::singleton),
        small().prop_map(Interval::at_least),
        small().prop_map(Interval::at_most),
        (small(), small()).prop_map(|(a, b)| Interval::range(a.min(b), a.max(b))),
        Just(Interval::Range(
            mai_core::lattice::Lo::NegInf,
            mai_core::lattice::Hi::PosInf
        )),
    ]
    .boxed()
}

fn basic_store() -> BoxedStrategy<BasicStore<u8, u8>> {
    proptest::collection::vec((0u8..5, 0u8..6), 0..8)
        .prop_map(|pairs| {
            pairs.into_iter().fold(BasicStore::new(), |s, (a, v)| {
                s.bind(a, [v].into_iter().collect())
            })
        })
        .boxed()
}

fn counting_store() -> BoxedStrategy<CountingStore<u8, u8>> {
    proptest::collection::vec((0u8..5, 0u8..6), 0..8)
        .prop_map(|pairs| {
            pairs.into_iter().fold(CountingStore::new(), |s, (a, v)| {
                s.bind(a, [v].into_iter().collect())
            })
        })
        .boxed()
}

lattice_laws!(unit_laws, (), Just(()));
lattice_laws!(bool_laws, bool, any::<bool>());
lattice_laws!(absnat_laws, AbsNat, absnat());
lattice_laws!(flat_laws, Flat<u8>, flat());
lattice_laws!(
    option_laws,
    Option<AbsNat>,
    prop_oneof![Just(None), absnat().prop_map(Some),]
);
lattice_laws!(pair_laws, (AbsNat, BTreeSet<u8>), (absnat(), btree_set()));
lattice_laws!(power_set_laws, BTreeSet<u8>, btree_set());
lattice_laws!(pset_laws, PSet<u8>, pset());
lattice_laws!(
    btreemap_carrier_laws,
    BTreeMap<u8, BTreeSet<u8>>,
    btree_map_carrier()
);
lattice_laws!(pmap_carrier_laws, PMap<u8, PSet<u8>>, pmap_carrier());
lattice_laws!(counting_entry_laws, (PSet<u8>, AbsNat), counting_entry());
lattice_laws!(basic_store_laws, BasicStore<u8, u8>, basic_store());
lattice_laws!(counting_store_laws, CountingStore<u8, u8>, counting_store());
lattice_laws!(interval_laws, Interval, interval());

/// The widening laws that make `Interval` — an *infinite-height* lattice —
/// safe to iterate: `▽` is an upper bound of both arguments, it absorbs
/// like the join on the flag side, and every widened chain
/// `x_{n+1} = x_n ▽ f(x_n)` stabilises in finitely many steps.
mod interval_widening_laws {
    use super::*;

    proptest! {
        #[test]
        fn prop_widen_is_an_upper_bound(a in interval(), b in interval()) {
            let mut w = a;
            let changed = w.widen_in_place(b);
            prop_assert!(a.leq(&w), "{a:?} ⋢ {a:?} ▽ {b:?} = {w:?}");
            prop_assert!(b.leq(&w), "{b:?} ⋢ {a:?} ▽ {b:?} = {w:?}");
            // The flag mirrors the join law: no growth ⟺ other ⊑ self.
            prop_assert_eq!(changed, !b.leq(&a));
            // Re-widening an absorbed value never reports growth.
            prop_assert!(!{ let mut w2 = w; w2.widen_in_place(b) });
        }

        #[test]
        fn prop_narrow_refines_within_the_order(a in interval(), b in interval()) {
            // Narrowing from a value below self stays between it and self:
            // b ⊑ a  ⟹  b ⊑ (a △ b) ⊑ a.
            if b.leq(&a) {
                let mut n = a;
                n.narrow_in_place(b);
                prop_assert!(b.leq(&n), "{b:?} ⋢ {a:?} △ {b:?} = {n:?}");
                prop_assert!(n.leq(&a), "{a:?} △ {b:?} = {n:?} ⋢ {a:?}");
            }
        }

        #[test]
        fn prop_widened_chains_stabilise(start in interval(), step in 1u8..4) {
            // The ascending chain x ↦ x + [step, step] never stabilises
            // under plain join (infinite height); under widening it must,
            // within a small bound.  64 steps is far beyond the 2 or 3 an
            // interval can take (each bound jumps to ±∞ at most once).
            let step = Interval::singleton(step as i64);
            let mut x = start;
            let mut stable = false;
            for _ in 0..64 {
                let next = x + step;
                if !x.widen_in_place(next) {
                    stable = true;
                    break;
                }
            }
            prop_assert!(stable, "widened chain failed to stabilise at {x:?}");
        }

        #[test]
        fn prop_join_chains_do_not_stabilise_without_widening(lo in 0u8..5) {
            // The counterpoint pinning why widening is *needed*: the same
            // chain under plain join grows forever (here: checked to keep
            // growing for 64 steps from any small singleton).
            let mut x = Interval::singleton(lo as i64);
            for _ in 0..64 {
                let next = x + Interval::singleton(1);
                prop_assert!(x.join_in_place(next), "join chain stabilised at {x:?}");
            }
        }
    }
}

/// The two carriers implement the *same* point-wise lattice: building the
/// identical content on both and joining the identical other side yields
/// identical fetch results and identical change flags.
mod carriers_agree {
    use super::*;

    fn both(pairs: &[(u8, u8)]) -> (BTreeMap<u8, BTreeSet<u8>>, PMap<u8, PSet<u8>>) {
        let mut old: BTreeMap<u8, BTreeSet<u8>> = BTreeMap::new();
        let mut new: PMap<u8, PSet<u8>> = PMap::new();
        for (k, v) in pairs {
            old.entry(*k).or_default().insert(*v);
            new.join_at_in_place(*k, [*v].into_iter().collect());
        }
        (old, new)
    }

    proptest! {
        #[test]
        fn prop_joins_and_flags_agree(
            xs in proptest::collection::vec((0u8..5, 1u8..6), 0..8),
            ys in proptest::collection::vec((0u8..5, 1u8..6), 0..8),
        ) {
            let (old_a, new_a) = both(&xs);
            let (old_b, new_b) = both(&ys);

            prop_assert_eq!(old_a.leq(&old_b), new_a.leq(&new_b));
            prop_assert_eq!(old_a.is_bottom(), new_a.is_bottom());

            let mut old_acc = old_a.clone();
            let mut new_acc = new_a.clone();
            let old_flag = old_acc.join_in_place(old_b);
            let new_flag = new_acc.join_in_place(new_b);
            prop_assert_eq!(old_flag, new_flag);
            // Same point-wise content, key by key.
            for k in 0u8..5 {
                let old_v: Option<BTreeSet<u8>> = old_acc.get(&k).cloned();
                let new_v: Option<BTreeSet<u8>> =
                    new_acc.get(&k).map(|s| s.iter().copied().collect());
                prop_assert_eq!(old_v, new_v, "key {}", k);
            }
        }
    }
}

/// `PMap`'s `PartialOrd` asks only `V: PartialOrd` (so derived orders over
/// environments compile); whenever `V: Ord` it must agree with `Ord` and
/// `Eq`, and for a partial `V` it must still be the lexicographic order of
/// the trie-order entries.
mod pmap_order {
    use super::*;
    use std::cmp::Ordering;

    fn map<V: Clone>(pairs: &[(u8, V)]) -> PMap<u8, V> {
        pairs.iter().cloned().collect()
    }

    proptest! {
        #[test]
        fn prop_partial_order_agrees_with_order_and_equality(
            xs in proptest::collection::vec((0u8..6, 0u8..4), 0..6),
            ys in proptest::collection::vec((0u8..6, 0u8..4), 0..6),
        ) {
            let (a, b) = (map(&xs), map(&ys));
            prop_assert_eq!(a.partial_cmp(&b), Some(a.cmp(&b)));
            prop_assert_eq!(a.cmp(&b) == Ordering::Equal, a == b);
            prop_assert_eq!(b.cmp(&a), a.cmp(&b).reverse());
            prop_assert_eq!(a.partial_cmp(&a.clone()), Some(Ordering::Equal));
            // Sets order through the same trie.
            let (sa, sb): (PSet<u8>, PSet<u8>) =
                (xs.iter().map(|p| p.0).collect(), ys.iter().map(|p| p.0).collect());
            prop_assert_eq!(sa.partial_cmp(&sb), Some(sa.cmp(&sb)));
            prop_assert_eq!(sa.cmp(&sb) == Ordering::Equal, sa == sb);
        }

        #[test]
        fn prop_partial_order_is_lexicographic_over_entries(
            xs in proptest::collection::vec((0u8..6, 0u8..4), 0..6),
            ys in proptest::collection::vec((0u8..6, 0u8..4), 0..6),
        ) {
            // `f64` values are only partially ordered (`NaN`).
            let floats = |pairs: &[(u8, u8)]| -> Vec<(u8, f64)> {
                pairs
                    .iter()
                    .map(|&(k, v)| (k, if v == 0 { f64::NAN } else { f64::from(v) }))
                    .collect()
            };
            let (a, b) = (map(&floats(&xs)), map(&floats(&ys)));
            prop_assert_eq!(a.partial_cmp(&b), a.iter().partial_cmp(b.iter()));
        }
    }
}
