//! Persistent environments and value sets, on the store's hash trie.
//!
//! Machine states carry environments (`Var ⇀ Addr`) inside closures,
//! continuation frames and the states themselves, and the monadic step
//! functions clone and extend them constantly: every `bind` continuation
//! captures its environment by value, every successor state embeds one, and
//! every call extends its callee's captured environment with the
//! parameters.  The stores, in turn, bind each address to a set of values
//! that grows a value at a time.
//!
//! Both are persistent [`PMap`]s, the trie the store spine is built on:
//! each language's environment is a `PMap<Var, A>`, and [`PSet`] is the
//! value set of [`BasicStore`](crate::store::BasicStore) and
//! [`CountingStore`](crate::store::CountingStore).  Cloning either is an
//! `Arc` bump.  Extending an environment by one variable, or binding one
//! more value into a set, copies one O(log n) path and shares every other
//! node with the original.  Equality, `⊑`, joins and diffs skip the
//! subtrees two snapshots share by pointer, and hashing replays the trie's
//! cached per-node digests, so interning a state whose environment was
//! hashed before is O(1) in the environment.  Iteration is in trie order,
//! not key order.
//!
//! ```rust
//! use mai_core::pmap::PMap;
//!
//! let mut base: PMap<&'static str, u32> = PMap::new();
//! base.insert("x", 1);
//! let captured = base.clone();          // O(1): shares the whole trie
//! let mut extended = captured.clone();
//! extended.insert("y", 2);              // copies one path, here
//! assert_eq!(base, captured);
//! assert_eq!(captured.get(&"y"), None);
//! assert_eq!(extended.get(&"y"), Some(&2));
//! ```

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

use crate::lattice::{Lattice, WidenLattice};
use crate::pmap::{self, PMap};

/// A persistent set: the keys of a [`PMap`] that binds each member to
/// `true`, the top of the two-point lattice `false ⊑ true`.  An absent key
/// reads as that lattice's ⊥, so the map's joins report every new member
/// as growth (a `()` marker would not: `()` is ⊥).
///
/// ```rust
/// use mai_core::env::PSet;
/// use mai_core::lattice::Lattice;
///
/// let a: PSet<u32> = [1, 2].into_iter().collect();
/// let b = a.clone();                    // O(1)
/// assert!(a.ptr_eq(&b));
/// let grown = a.clone().join([3].into_iter().collect());
/// assert!(a.leq(&grown) && !grown.leq(&a));
/// assert!(grown.contains(&3) && !a.contains(&3));
/// ```
pub struct PSet<T>(PMap<T, bool>);

impl<T> PSet<T> {
    /// Creates an empty set.
    pub fn new() -> Self {
        PSet(PMap::new())
    }

    /// The number of members.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Iterates over the members in trie (hash) order: deterministic for
    /// a given content, but not sorted.
    pub fn iter(&self) -> Iter<'_, T> {
        Iter(self.0.iter())
    }

    /// Whether two sets share the same root allocation (an O(1) witness of
    /// equality; the converse need not hold).
    pub fn ptr_eq(&self, other: &Self) -> bool {
        self.0.ptr_eq(&other.0)
    }

    /// The trie under the set, for the tests' sharing probes.
    #[cfg(test)]
    pub(crate) fn trie(&self) -> &PMap<T, bool> {
        &self.0
    }
}

impl<T: Hash + Eq> PSet<T> {
    /// Whether `value` is a member.
    pub fn contains(&self, value: &T) -> bool {
        self.0.contains_key(value)
    }
}

impl<T: Hash + Eq + Ord + Clone> PSet<T> {
    /// Inserts a member, copying one trie path when it is new.  Returns
    /// whether it was new; a present member copies nothing.
    pub fn insert(&mut self, value: T) -> bool {
        self.0.join_at_in_place(value, true)
    }

    /// The members of `self` that `then` lacks (`self \ then`).  The trie
    /// diff ([`PMap::changed_keys`]) skips every subtree the two sets
    /// share by pointer, so a set grown from `then` by k members costs
    /// about k paths, not a walk of either set.
    #[must_use]
    pub fn difference(&self, then: &Self) -> Self {
        self.0
            .changed_keys(&then.0)
            .into_iter()
            .filter(|v| self.contains(v))
            .collect()
    }
}

/// The borrowed member iterator of a [`PSet`], in trie order.
pub struct Iter<'a, T>(pmap::Iter<'a, T, bool>);

impl<'a, T> Iterator for Iter<'a, T> {
    type Item = &'a T;

    fn next(&mut self) -> Option<&'a T> {
        self.0.next().map(|(v, _)| v)
    }
}

impl<'a, T> IntoIterator for &'a PSet<T> {
    type Item = &'a T;
    type IntoIter = Iter<'a, T>;

    fn into_iter(self) -> Iter<'a, T> {
        self.iter()
    }
}

/// The members, cloned out of the shared trie, in trie order.
impl<T: Clone> IntoIterator for PSet<T> {
    type Item = T;
    type IntoIter = std::vec::IntoIter<T>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter().cloned().collect::<Vec<T>>().into_iter()
    }
}

impl<T: Hash + Eq + Ord + Clone> FromIterator<T> for PSet<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut set = PSet::new();
        for value in iter {
            set.insert(value);
        }
        set
    }
}

impl<T> Default for PSet<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> Clone for PSet<T> {
    fn clone(&self) -> Self {
        PSet(self.0.clone())
    }
}

impl<T: fmt::Debug> fmt::Debug for PSet<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl<T: Eq> PartialEq for PSet<T> {
    fn eq(&self, other: &Self) -> bool {
        self.0 == other.0
    }
}

impl<T: Eq> Eq for PSet<T> {}

impl<T: Ord> PartialOrd for PSet<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// The trie's order ([`PMap`]'s `Ord`): total and a function of the
/// members, but not the order a `BTreeSet` would give.
impl<T: Ord> Ord for PSet<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.cmp(&other.0)
    }
}

impl<T: Hash> Hash for PSet<T> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.0.hash(state);
    }
}

/// The power-set lattice, on the trie's own joins: a join adopts the
/// subtrees only `other` has by reference and skips the shared ones.
impl<T: Hash + Eq + Ord + Clone> Lattice for PSet<T> {
    fn bottom() -> Self {
        Self::new()
    }

    fn join(mut self, other: Self) -> Self {
        self.0.join_map_in_place(other.0);
        self
    }

    fn leq(&self, other: &Self) -> bool {
        self.0.leq_map(&other.0)
    }

    fn join_in_place(&mut self, other: Self) -> bool {
        self.0.join_map_in_place(other.0)
    }

    fn is_bottom(&self) -> bool {
        self.is_empty()
    }
}

// Power-sets over a program's finite value space: the default widening
// (join) terminates, so the finite-height defaults apply.
impl<T: Hash + Eq + Ord + Clone> WidenLattice for PSet<T> {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::fx_hash_of;

    /// An environment shape: variables to addresses.
    type Env = PMap<u16, u32>;

    #[test]
    fn clone_is_shared_until_mutated() {
        let mut a: Env = Env::new();
        a.insert(1, 10);
        let b = a.clone();
        assert!(a.ptr_eq(&b));
        let mut c = b.clone();
        c.insert(2, 20);
        assert!(!a.ptr_eq(&c));
        assert_eq!(a.len(), 1);
        assert_eq!(c.len(), 2);
        // The original handles still share.
        assert!(a.ptr_eq(&b));
        // So do sets.
        let mut s: PSet<u8> = [1].into_iter().collect();
        let t = s.clone();
        assert!(s.ptr_eq(&t));
        assert!(!s.insert(1), "a present member must not copy");
        assert!(s.ptr_eq(&t));
        assert!(s.insert(2));
        assert!(!s.ptr_eq(&t) && t.len() == 1 && s.len() == 2);
    }

    #[test]
    fn equality_and_order_are_structural() {
        let a: Env = [(1, 10), (2, 20)].into_iter().collect();
        let b: Env = [(2, 20), (1, 10)].into_iter().collect();
        assert_eq!(a, b);
        assert_eq!(a.cmp(&b), Ordering::Equal);
        assert_eq!(a.partial_cmp(&b), Some(Ordering::Equal));
        let c: Env = [(1, 10), (3, 30)].into_iter().collect();
        assert_ne!(a, c);
        assert_ne!(a.cmp(&c), Ordering::Equal);
        assert_eq!(a.cmp(&c), c.cmp(&a).reverse());
        assert_eq!(a.partial_cmp(&c), Some(a.cmp(&c)));
        // Hash agrees with structural equality.
        assert_eq!(fx_hash_of(&a), fx_hash_of(&b));
    }

    #[test]
    fn mutating_one_handle_never_disturbs_the_other() {
        let base: Env = [(1, 1)].into_iter().collect();
        let mut ext = base.clone();
        ext.insert(2, 2);
        assert_eq!(base.get(&2), None);
        assert_eq!(ext.get(&2), Some(&2));
        let mut kept = ext.clone();
        kept.retain(|v| *v != 1);
        assert_eq!(kept.get(&1), None);
        assert_eq!(ext.get(&1), Some(&1));
        let mut all = ext.clone();
        all.retain(|_| true);
        assert!(all.ptr_eq(&ext), "keeping every binding must not copy");
    }

    #[test]
    fn cached_hash_is_invalidated_by_mutation() {
        let mut m: Env = [(1, 10)].into_iter().collect();
        let h1 = fx_hash_of(&m);
        m.insert(2, 20);
        let h2 = fx_hash_of(&m);
        assert_ne!(h1, h2, "mutation must refresh the cached digest");
        // Equal maps built separately agree, shared or not.
        let rebuilt: Env = [(2, 20), (1, 10)].into_iter().collect();
        assert_eq!(fx_hash_of(&m), fx_hash_of(&rebuilt));
        m.retain(|v| *v != 2);
        assert_eq!(
            fx_hash_of(&m),
            fx_hash_of(&[(1, 10)].into_iter().collect::<Env>())
        );
        // Sets replay the same cached digests.
        let mut s: PSet<u8> = [1].into_iter().collect();
        let h = fx_hash_of(&s);
        s.insert(2);
        assert_ne!(fx_hash_of(&s), h);
        assert_eq!(
            fx_hash_of(&s),
            fx_hash_of(&[2u8, 1].into_iter().collect::<PSet<u8>>())
        );
    }

    #[test]
    fn pset_shares_and_joins_like_a_power_set() {
        let a: PSet<u8> = [1, 2].into_iter().collect();
        let b = a.clone();
        assert!(a.ptr_eq(&b));
        assert_eq!(a, b);
        assert!(a.leq(&b));
        // Join with sharing short-circuit reports no growth.
        let mut acc = a.clone();
        assert!(!acc.join_in_place(b.clone()));
        assert!(acc.ptr_eq(&a));
        // Genuine growth copies a path and reports it.
        assert!(acc.join_in_place([3].into_iter().collect()));
        assert!(!a.contains(&3) && acc.contains(&3));
        assert_eq!(acc.len(), 3);
        assert_eq!(a.clone().join([3].into_iter().collect()), acc);
        // Bottom adoption: joining into an empty set adopts the allocation.
        let mut bot: PSet<u8> = PSet::bottom();
        assert!(bot.is_bottom());
        assert!(bot.join_in_place(a.clone()));
        assert!(bot.ptr_eq(&a));
        // Structural semantics everywhere.
        let rebuilt: PSet<u8> = [2, 1].into_iter().collect();
        assert_eq!(a, rebuilt);
        assert_eq!(a.cmp(&rebuilt), Ordering::Equal);
        assert_eq!(fx_hash_of(&a), fx_hash_of(&rebuilt));
        let mut members: Vec<u8> = a.iter().copied().collect();
        members.sort_unstable();
        assert_eq!(members, vec![1, 2]);
        assert_eq!((&a).into_iter().count(), 2);
        assert_eq!(rebuilt.into_iter().count(), 2);
        // Difference: the members the other set lacks.
        assert_eq!(acc.difference(&a), [3].into_iter().collect());
        assert!(a.difference(&acc).is_empty());
        assert!(acc.difference(&acc.clone()).is_empty());
    }

    #[test]
    fn iteration_order_is_a_function_of_content() {
        let m: Env = [(3, 30), (1, 10), (2, 20)].into_iter().collect();
        let n: Env = [(2, 20), (3, 30), (1, 10)].into_iter().collect();
        let pairs: Vec<(u16, u32)> = (&m).into_iter().map(|(k, v)| (*k, *v)).collect();
        assert_eq!(pairs, n.iter().map(|(k, v)| (*k, *v)).collect::<Vec<_>>());
        let mut keys: Vec<u16> = m.keys().copied().collect();
        keys.sort_unstable();
        assert_eq!(keys, vec![1, 2, 3]);
        assert_eq!(m.values().copied().sum::<u32>(), 60);
        assert!(m.contains_key(&1) && !m.contains_key(&9));
        assert!(!m.is_empty());
        assert!(Env::default().is_empty());
        let s: PSet<u16> = [3, 1, 2].into_iter().collect();
        let t: PSet<u16> = [2, 3, 1].into_iter().collect();
        assert!(s.iter().eq(t.iter()));
    }

    #[test]
    fn binding_one_value_into_a_shared_set_copies_one_path() {
        let held: PSet<u32> = (0..1000).collect();
        // `insert` and a singleton join each copy the new member's path
        // and share every other node with the set the snapshot holds.
        let mut inserted = held.clone();
        assert!(inserted.insert(1000));
        let mut joined = held.clone();
        assert!(joined.join_in_place([1000].into_iter().collect()));
        for grown in [&inserted, &joined] {
            let path = grown.trie().path_nodes(&1000);
            assert!(path >= 2, "1,001 members need more than one level");
            assert_eq!(grown.trie().nodes_not_in(held.trie()), path);
            assert_eq!(grown.len(), 1001);
        }
        assert_eq!(held.len(), 1000);
        assert!(!held.contains(&1000));
    }

    #[test]
    fn extending_a_shared_environment_copies_one_path() {
        let captured: Env = (0..1000).map(|v| (v, u32::from(v) * 7)).collect();
        let mut extended = captured.clone();
        extended.insert(1000, 1);
        let path = extended.path_nodes(&1000);
        assert!(path >= 2);
        assert_eq!(extended.nodes_not_in(&captured), path);
        // Rebinding a variable the environment has copies its path too.
        let mut shadowed = captured.clone();
        shadowed.insert(500, 0);
        assert_eq!(shadowed.nodes_not_in(&captured), shadowed.path_nodes(&500));
        assert_eq!(captured.get(&500), Some(&3500));
    }
}
