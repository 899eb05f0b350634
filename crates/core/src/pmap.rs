//! A persistent, structurally-shared hash trie — the store spine.
//!
//! After PR 3 made state identity O(1), the remaining hot cost of every
//! engine was the store spine itself: `BasicStore` kept its bindings in a
//! flat `BTreeMap`, so the one store clone the store-passing monad performs
//! per transition copied the whole spine (O(n) nodes), and joining or
//! diffing two stores walked both in full even when they shared almost all
//! of their content — which, in a fixpoint engine folding small deltas into
//! one big accumulated store, they always do.
//!
//! [`PMap`] replaces that spine with a hash-array-mapped trie whose nodes
//! are shared behind [`Arc`]s and whose keys are placed by their
//! [Fx hash](crate::hash) (the same deterministic hash the PR-3 interning
//! layer precomputes for states):
//!
//! * **clone is O(1)** — bumping the root's reference count; writes copy
//!   only the O(log n) path from the root to the touched leaf;
//! * **eq / leq / diff / join short-circuit on pointer identity** per
//!   subtree: two snapshots that share structure are compared only where
//!   they actually diverged;
//! * **[`PMap::join_in_place`] preserves sharing** — subtrees present on
//!   only one side are adopted by reference, and subtrees equal by pointer
//!   are skipped entirely, so folding a k-address delta into an n-address
//!   accumulator costs O(k · log n), not O(n);
//! * **[`PMap::join_at_in_place`] and [`PMap::upsert_with`] are
//!   single-descent** — the join/update decision is carried down one
//!   copy-on-write descent (the way the internal `join_entry` always
//!   worked), with the replacement path built on the unwind only where the
//!   binding actually changed, instead of a read pre-check descent followed
//!   by a second write descent;
//! * **every node caches a content digest** — hashing a whole map is one
//!   `OnceLock` read per already-digested subtree, so the per-state
//!   engine's whole-store interning hash, and the hash of a machine
//!   state's environment, is O(1) amortised: a write invalidates only the
//!   O(log n) freshly-built path, and the next hash recomputes exactly
//!   those nodes.
//!
//! The trie shape is *canonical*: it is a pure function of the key/value
//! content (collision leaves keep their entries sorted by key, a branch
//! never holds a lone leaf child), so structural equality can recurse over
//! nodes, and the iteration order — and with it [`Ord`] and [`Hash`] — is
//! deterministic for a given content.
//!
//! The co-domain is an arbitrary [`Lattice`] for the joining operations;
//! plain map operations need only `Clone`.  [`BasicStore`](crate::store::BasicStore)
//! and [`CountingStore`](crate::store::CountingStore) are rebased on this
//! spine, which is what makes the whole-store clone in the step monad an
//! `Arc` bump and the engines' delta folds proportional to the delta.
//! Because every node is `Arc`-shared (never `Rc`), the spine is `Send +
//! Sync` whenever its keys and values are — the property the sharded
//! parallel engine ([`crate::engine::parallel`]) relies on to hand store
//! snapshots to its workers and join per-shard deltas at the sync barrier.
//!
//! The same trie holds the stores' value sets and the machines'
//! environments ([`crate::env`]): a [`PSet`](crate::env::PSet) is a
//! `PMap<T, bool>`, and each language's `Env<A>` is a `PMap<Var, A>`.  A
//! store, its flow sets and every environment a state or closure captures
//! are therefore one persistent structure: binding one more value into a
//! w-value set, or extending a captured w-entry environment by one
//! variable, copies one O(log w) path, and the joins, diffs and
//! comparisons above skip the rest by pointer.  Iteration — and with it
//! the `Debug` output of stores, environments and machine states — is in
//! trie order, not key order; equality, hashing and the orders stay
//! functions of the content, so fixpoints compare equal as values however
//! they were built.

use std::cmp::Ordering;
use std::collections::BTreeSet;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, OnceLock};

use crate::hash::{fx_hash_of, FxHasher};
use crate::lattice::Lattice;

/// Bits of the key hash consumed per trie level.
const BITS: u32 = 5;

/// The fan-out of a branch node (`2^BITS`).
const FANOUT: u64 = 1 << BITS;

/// The 5-bit fragment of `hash` addressed at `level`.
#[inline]
fn fragment(hash: u64, level: u32) -> u32 {
    ((hash >> (level * BITS)) % FANOUT) as u32
}

/// One node of the trie: the structural content plus a lazily computed,
/// per-subtree content digest (see [`node_digest`]).
struct Node<K, V> {
    /// The cached Fx content digest of this subtree, computed on first
    /// hash and carried by clones (a clone has identical content).  Every
    /// in-place mutation through `Arc::make_mut` resets it; nodes rebuilt
    /// on a copy-on-write path start empty, so after a k-deep write only
    /// the k fresh path nodes need re-digesting — untouched subtrees keep
    /// their digests, which is what makes whole-map hashing O(1) amortised.
    digest: OnceLock<u64>,
    /// The structural content.
    kind: NodeKind<K, V>,
}

/// The structural content of a [`Node`].
///
/// Invariants (canonical form — the shape is a pure function of content):
///
/// * a `Leaf` holds at least one entry, all entries share the full 64-bit
///   `hash`, and entries are sorted by key;
/// * a `Branch` holds at least one child, its `bitmap` has exactly one set
///   bit per child (children sorted by fragment), and it never holds a
///   *single* child that is a `Leaf` (such a branch collapses to the leaf).
enum NodeKind<K, V> {
    Leaf {
        /// The shared Fx hash of every key in this leaf.
        hash: u64,
        /// The entries (same hash, sorted by key; length 1 outside
        /// genuine 64-bit collisions).
        entries: Vec<(K, V)>,
    },
    Branch {
        /// Which of the 32 fragments have a child.
        bitmap: u32,
        /// The children, one per set bitmap bit, in fragment order.
        children: Vec<Arc<Node<K, V>>>,
        /// Total entries in this subtree.
        len: usize,
    },
}

impl<K: Clone, V: Clone> Clone for Node<K, V> {
    fn clone(&self) -> Self {
        Node {
            // The clone has identical content, so the cached digest (if
            // any) remains valid; in-place mutators reset it explicitly
            // after `Arc::make_mut`.
            digest: self.digest.clone(),
            kind: match &self.kind {
                NodeKind::Leaf { hash, entries } => NodeKind::Leaf {
                    hash: *hash,
                    entries: entries.clone(),
                },
                NodeKind::Branch {
                    bitmap,
                    children,
                    len,
                } => NodeKind::Branch {
                    bitmap: *bitmap,
                    children: children.clone(),
                    len: *len,
                },
            },
        }
    }
}

impl<K, V> Node<K, V> {
    /// A fresh leaf node (digest not yet computed).
    fn leaf(hash: u64, entries: Vec<(K, V)>) -> Self {
        Node {
            digest: OnceLock::new(),
            kind: NodeKind::Leaf { hash, entries },
        }
    }

    /// A fresh branch node (digest not yet computed).
    fn branch(bitmap: u32, children: Vec<Arc<Node<K, V>>>, len: usize) -> Self {
        Node {
            digest: OnceLock::new(),
            kind: NodeKind::Branch {
                bitmap,
                children,
                len,
            },
        }
    }

    /// Resets the cached digest; must be called by every in-place mutation
    /// (after `Arc::make_mut`, before the content changes).
    fn reset_digest(&mut self) {
        self.digest = OnceLock::new();
    }

    fn len(&self) -> usize {
        match &self.kind {
            NodeKind::Leaf { entries, .. } => entries.len(),
            NodeKind::Branch { len, .. } => *len,
        }
    }

    /// The position of `frag`'s child in `children`, if present.
    fn child_index(bitmap: u32, frag: u32) -> Result<usize, usize> {
        let bit = 1u32 << frag;
        let below = (bitmap & (bit - 1)).count_ones() as usize;
        if bitmap & bit != 0 {
            Ok(below)
        } else {
            Err(below)
        }
    }
}

/// The content digest of a subtree: leaves digest their entries, branches
/// fold their children's digests — so the digest of an untouched subtree is
/// one `OnceLock` read, and re-digesting after a write costs only the
/// freshly built path.  A pure function of the canonical content, hence
/// consistent with structural equality.
fn node_digest<K: Hash, V: Hash>(node: &Node<K, V>) -> u64 {
    *node.digest.get_or_init(|| {
        let mut hasher = FxHasher::default();
        match &node.kind {
            NodeKind::Leaf { hash, entries } => {
                hasher.write_u8(0);
                hasher.write_u64(*hash);
                for (k, v) in entries {
                    k.hash(&mut hasher);
                    v.hash(&mut hasher);
                }
            }
            NodeKind::Branch {
                bitmap, children, ..
            } => {
                hasher.write_u8(1);
                hasher.write_u32(*bitmap);
                for child in children {
                    hasher.write_u64(node_digest(child));
                }
            }
        }
        hasher.finish()
    })
}

/// A persistent hash-trie map with `Arc`-shared structure.  See the
/// [module docs](self) for the representation and the sharing guarantees.
///
/// ```rust
/// use mai_core::pmap::PMap;
///
/// let mut base: PMap<u32, &'static str> = PMap::new();
/// base.insert(1, "one");
/// let snapshot = base.clone();       // O(1): shares the whole spine
/// base.insert(2, "two");             // copies only the root path
/// assert_eq!(snapshot.len(), 1);
/// assert_eq!(base.get(&2), Some(&"two"));
/// ```
pub struct PMap<K, V> {
    root: Option<Arc<Node<K, V>>>,
}

impl<K, V> Default for PMap<K, V> {
    fn default() -> Self {
        PMap { root: None }
    }
}

impl<K, V> Clone for PMap<K, V> {
    fn clone(&self) -> Self {
        PMap {
            root: self.root.clone(),
        }
    }
}

impl<K, V> PMap<K, V> {
    /// Creates an empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// The number of entries.
    pub fn len(&self) -> usize {
        self.root.as_ref().map_or(0, |n| n.len())
    }

    /// Whether the map has no entries.
    pub fn is_empty(&self) -> bool {
        self.root.is_none()
    }

    /// Whether two maps share the same root allocation (an O(1) witness of
    /// structural equality; the converse need not hold).
    pub fn ptr_eq(&self, other: &Self) -> bool {
        match (&self.root, &other.root) {
            (None, None) => true,
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }

    /// Iterates over the entries in trie (hash) order — deterministic for a
    /// given content, but *not* the key order a `BTreeMap` would use.
    pub fn iter(&self) -> Iter<'_, K, V> {
        Iter {
            stack: match &self.root {
                Some(root) => vec![Frame {
                    node: root.as_ref(),
                    next: 0,
                }],
                None => Vec::new(),
            },
        }
    }

    /// Iterates over the keys in trie order.
    pub fn keys(&self) -> impl Iterator<Item = &K> {
        self.iter().map(|(k, _)| k)
    }

    /// Iterates over the values in trie order.
    pub fn values(&self) -> impl Iterator<Item = &V> {
        self.iter().map(|(_, v)| v)
    }

    /// How many trie nodes the spine currently uses.
    pub fn spine_nodes(&self) -> usize {
        fn walk<K, V>(node: &Arc<Node<K, V>>) -> usize {
            match &node.as_ref().kind {
                NodeKind::Leaf { .. } => 1,
                NodeKind::Branch { children, .. } => 1 + children.iter().map(walk).sum::<usize>(),
            }
        }
        self.root.as_ref().map_or(0, walk)
    }

    /// Approximate bytes of spine structure this map shares with other
    /// live snapshots: the summed [`node_bytes`] of every node whose `Arc`
    /// strong count exceeds one.  A whole-spine walk, so only the tests use
    /// it, as a probe on what the joins report in
    /// [`PMap::join_in_place_delta`]'s `adopted_bytes`.
    #[cfg(test)]
    pub(crate) fn shared_spine_bytes(&self) -> usize {
        fn walk<K, V>(node: &Arc<Node<K, V>>) -> usize {
            let own = if Arc::strong_count(node) > 1 {
                node_bytes(node.as_ref())
            } else {
                0
            };
            own + match &node.as_ref().kind {
                NodeKind::Leaf { .. } => 0,
                NodeKind::Branch { children, .. } => children.iter().map(walk).sum(),
            }
        }
        self.root.as_ref().map_or(0, walk)
    }

    /// How many nodes of this map are not nodes of `other` (by pointer): a
    /// probe of what a write copied.  After `b = a.clone()` and one write
    /// into `b`, every node off the written path is still `a`'s, so the
    /// probe reads the path's length ([`PMap::path_nodes`]).
    #[cfg(test)]
    pub(crate) fn nodes_not_in(&self, other: &Self) -> usize {
        fn mark<K, V>(node: &Arc<Node<K, V>>, seen: &mut std::collections::HashSet<usize>) {
            seen.insert(Arc::as_ptr(node) as usize);
            if let NodeKind::Branch { children, .. } = &node.kind {
                children.iter().for_each(|child| mark(child, seen));
            }
        }
        fn count<K, V>(node: &Arc<Node<K, V>>, seen: &std::collections::HashSet<usize>) -> usize {
            if seen.contains(&(Arc::as_ptr(node) as usize)) {
                return 0;
            }
            1 + match &node.kind {
                NodeKind::Leaf { .. } => 0,
                NodeKind::Branch { children, .. } => children.iter().map(|c| count(c, seen)).sum(),
            }
        }
        let mut seen = std::collections::HashSet::new();
        if let Some(root) = &other.root {
            mark(root, &mut seen);
        }
        self.root.as_ref().map_or(0, |root| count(root, &seen))
    }
}

/// The nominal footprint of one trie node: a fixed header plus a fixed cost
/// per leaf entry or branch child.  These are **not** `std::mem::size_of`
/// figures: the adoption report built from them
/// ([`EngineStats::store_bytes_shared`](crate::engine::EngineStats::store_bytes_shared))
/// is gated by `mai-bench --check-regress` against a committed baseline,
/// and real layouts vary across targets and compiler versions, so a rustc
/// upgrade must not be able to move the number.
fn node_bytes<K, V>(node: &Node<K, V>) -> usize {
    /// Nominal bytes of a node header (any variant).
    const NODE: usize = 48;
    /// Nominal bytes per leaf entry.
    const ENTRY: usize = 32;
    /// Nominal bytes per branch child pointer.
    const CHILD: usize = 8;
    NODE + match &node.kind {
        NodeKind::Leaf { entries, .. } => entries.len() * ENTRY,
        NodeKind::Branch { children, .. } => children.len() * CHILD,
    }
}

impl<K: Hash + Eq, V> PMap<K, V> {
    /// Looks up a key.
    pub fn get(&self, key: &K) -> Option<&V> {
        let root = self.root.as_ref()?;
        lookup_node(root, fx_hash_of(key), key, 0)
    }

    /// Whether the key is present.
    pub fn contains_key(&self, key: &K) -> bool {
        self.get(key).is_some()
    }

    /// How many nodes the descent to `key`'s leaf passes, root and leaf
    /// included (0 when `key` is not bound): the nodes a write of `key`
    /// may copy.
    #[cfg(test)]
    pub(crate) fn path_nodes(&self, key: &K) -> usize {
        let hash = fx_hash_of(key);
        let mut node = match &self.root {
            Some(root) if lookup_node(root, hash, key, 0).is_some() => root,
            _ => return 0,
        };
        let mut nodes = 1;
        let mut level = 0;
        while let NodeKind::Branch {
            bitmap, children, ..
        } = &node.kind
        {
            let i = Node::<K, V>::child_index(*bitmap, fragment(hash, level))
                .expect("the key is bound below this branch");
            node = &children[i];
            nodes += 1;
            level += 1;
        }
        nodes
    }
}

/// Builds the chain of branches separating two leaves whose hashes agree on
/// every fragment up to (but excluding) some deeper level.
fn split<K, V>(
    a: Arc<Node<K, V>>,
    a_hash: u64,
    b: Arc<Node<K, V>>,
    b_hash: u64,
    level: u32,
) -> Arc<Node<K, V>> {
    debug_assert_ne!(a_hash, b_hash);
    let fa = fragment(a_hash, level);
    let fb = fragment(b_hash, level);
    let len = a.len() + b.len();
    if fa == fb {
        let child = split(a, a_hash, b, b_hash, level + 1);
        Arc::new(Node::branch(1 << fa, vec![child], len))
    } else {
        let (children, bitmap) = if fa < fb {
            (vec![a, b], (1u32 << fa) | (1u32 << fb))
        } else {
            (vec![b, a], (1u32 << fa) | (1u32 << fb))
        };
        Arc::new(Node::branch(bitmap, children, len))
    }
}

impl<K: Hash + Eq + Ord + Clone, V: Clone> PMap<K, V> {
    /// Inserts a binding, replacing (and returning) any existing value for
    /// the key.  Copies only the root-to-leaf path; every untouched subtree
    /// stays shared.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        let hash = fx_hash_of(&key);
        match &mut self.root {
            None => {
                self.root = Some(Arc::new(Node::leaf(hash, vec![(key, value)])));
                None
            }
            Some(root) => insert_node(root, 0, hash, key, value),
        }
    }

    /// Inserts or updates the binding of `key` through `decide`, preserving
    /// sharing when nothing changes: `decide` sees the current value (if
    /// any) and returns the replacement, or `None` to leave the map — and
    /// every shared subtree — untouched.  Returns whether a replacement was
    /// installed.
    ///
    /// The decision is carried down **one** descent: `decide` runs at the
    /// key's position in the trie, and the copy-on-write replacement path is
    /// built on the unwind only when it returned `Some` — there is no
    /// separate `get` pre-check descent.
    pub fn upsert_with<F>(&mut self, key: K, decide: F) -> bool
    where
        F: FnOnce(Option<&V>) -> Option<V>,
    {
        let hash = fx_hash_of(&key);
        match &mut self.root {
            None => match decide(None) {
                Some(value) => {
                    self.root = Some(Arc::new(Node::leaf(hash, vec![(key, value)])));
                    true
                }
                None => false,
            },
            Some(root) => match upsert_node(root, 0, hash, &key, decide) {
                Some(replacement) => {
                    *root = replacement;
                    true
                }
                None => false,
            },
        }
    }

    /// The restriction of the map to the given keys, built by direct
    /// descent: O(k · log n) for k keys instead of the O(n) full-spine walk
    /// [`PMap::retain`] performs — the difference between "extract this
    /// handful of changed bindings" and "filter the whole store", which is
    /// what makes the engines' per-branch delta extraction proportional to
    /// the delta.  Entry values are shared, not deep-copied.
    pub fn restricted_to<'a, I>(&self, keys: I) -> Self
    where
        K: 'a,
        I: IntoIterator<Item = &'a K>,
    {
        let mut out = PMap::new();
        for key in keys {
            if let Some(value) = self.get(key) {
                out.insert(key.clone(), value.clone());
            }
        }
        out
    }

    /// Restricts the map to the keys satisfying `keep`.  Untouched subtrees
    /// keep their allocations; emptied branches collapse canonically.
    pub fn retain<F>(&mut self, keep: F)
    where
        F: Fn(&K) -> bool,
    {
        fn walk<K: Clone, V: Clone>(
            node: &Arc<Node<K, V>>,
            keep: &impl Fn(&K) -> bool,
        ) -> Option<Arc<Node<K, V>>> {
            match &node.as_ref().kind {
                NodeKind::Leaf { hash, entries } => {
                    let kept: Vec<(K, V)> =
                        entries.iter().filter(|(k, _)| keep(k)).cloned().collect();
                    if kept.len() == entries.len() {
                        Some(Arc::clone(node))
                    } else if kept.is_empty() {
                        None
                    } else {
                        Some(Arc::new(Node::leaf(*hash, kept)))
                    }
                }
                NodeKind::Branch {
                    bitmap, children, ..
                } => {
                    let mut new_children: Vec<Arc<Node<K, V>>> = Vec::new();
                    let mut new_bitmap = 0u32;
                    let mut changed = false;
                    let mut frags = (0..32).filter(|f| bitmap & (1 << f) != 0);
                    for child in children {
                        let frag = frags.next().expect("bitmap/children agree");
                        match walk(child, keep) {
                            Some(kept_child) => {
                                changed |= !Arc::ptr_eq(child, &kept_child);
                                new_bitmap |= 1 << frag;
                                new_children.push(kept_child);
                            }
                            None => changed = true,
                        }
                    }
                    if !changed {
                        return Some(Arc::clone(node));
                    }
                    match new_children.len() {
                        0 => None,
                        1 if matches!(new_children[0].as_ref().kind, NodeKind::Leaf { .. }) => {
                            // Canonical collapse: a lone leaf child replaces
                            // the branch (and cascades upward).
                            Some(new_children.pop().expect("one child"))
                        }
                        _ => {
                            let len = new_children.iter().map(|c| c.len()).sum();
                            Some(Arc::new(Node::branch(new_bitmap, new_children, len)))
                        }
                    }
                }
            }
        }
        if let Some(root) = &self.root {
            self.root = walk(root, &keep);
        }
    }
}

/// The single-descent upsert behind [`PMap::upsert_with`]: locates the key,
/// runs `decide` at its position, and builds the replacement path on the
/// unwind — or returns `None` having touched (and copied) nothing.
fn upsert_node<K: Hash + Eq + Ord + Clone, V: Clone, F>(
    node: &Arc<Node<K, V>>,
    level: u32,
    hash: u64,
    key: &K,
    decide: F,
) -> Option<Arc<Node<K, V>>>
where
    F: FnOnce(Option<&V>) -> Option<V>,
{
    match &node.as_ref().kind {
        NodeKind::Leaf {
            hash: leaf_hash,
            entries,
        } => {
            if *leaf_hash != hash {
                // Vacant (off this leaf's hash): a `Some` decision splits.
                let value = decide(None)?;
                let fresh = Arc::new(Node::leaf(hash, vec![(key.clone(), value)]));
                return Some(split(Arc::clone(node), *leaf_hash, fresh, hash, level));
            }
            match entries.binary_search_by(|(k, _)| k.cmp(key)) {
                Ok(i) => {
                    let value = decide(Some(&entries[i].1))?;
                    let mut entries = entries.clone();
                    entries[i].1 = value;
                    Some(Arc::new(Node::leaf(hash, entries)))
                }
                Err(i) => {
                    let value = decide(None)?;
                    let mut entries = entries.clone();
                    entries.insert(i, (key.clone(), value));
                    Some(Arc::new(Node::leaf(hash, entries)))
                }
            }
        }
        NodeKind::Branch {
            bitmap,
            children,
            len,
        } => {
            let frag = fragment(hash, level);
            match Node::<K, V>::child_index(*bitmap, frag) {
                Ok(i) => {
                    let replacement = upsert_node(&children[i], level + 1, hash, key, decide)?;
                    let grown = replacement.len() - children[i].len();
                    let mut children = children.clone();
                    children[i] = replacement;
                    Some(Arc::new(Node::branch(*bitmap, children, len + grown)))
                }
                Err(i) => {
                    let value = decide(None)?;
                    let mut children = children.clone();
                    children.insert(i, Arc::new(Node::leaf(hash, vec![(key.clone(), value)])));
                    Some(Arc::new(Node::branch(
                        bitmap | (1 << frag),
                        children,
                        len + 1,
                    )))
                }
            }
        }
    }
}

/// Inserts into an existing node, returning the displaced value (if any).
fn insert_node<K: Hash + Eq + Ord + Clone, V: Clone>(
    node: &mut Arc<Node<K, V>>,
    level: u32,
    hash: u64,
    key: K,
    value: V,
) -> Option<V> {
    // A same-hash leaf or a branch is mutated in place (copy-on-write);
    // a different-hash leaf splits into a branch chain.
    if let NodeKind::Leaf {
        hash: leaf_hash, ..
    } = &node.as_ref().kind
    {
        if *leaf_hash != hash {
            let fresh = Arc::new(Node::leaf(hash, vec![(key, value)]));
            let old_hash = *leaf_hash;
            *node = split(Arc::clone(node), old_hash, fresh, hash, level);
            return None;
        }
    }
    let inner = Arc::make_mut(node);
    inner.reset_digest();
    match &mut inner.kind {
        NodeKind::Leaf { entries, .. } => match entries.binary_search_by(|(k, _)| k.cmp(&key)) {
            Ok(i) => Some(std::mem::replace(&mut entries[i].1, value)),
            Err(i) => {
                entries.insert(i, (key, value));
                None
            }
        },
        NodeKind::Branch {
            bitmap,
            children,
            len,
        } => {
            let frag = fragment(hash, level);
            match Node::<K, V>::child_index(*bitmap, frag) {
                Ok(i) => {
                    let old = insert_node(&mut children[i], level + 1, hash, key, value);
                    if old.is_none() {
                        *len += 1;
                    }
                    old
                }
                Err(i) => {
                    children.insert(i, Arc::new(Node::leaf(hash, vec![(key, value)])));
                    *bitmap |= 1 << frag;
                    *len += 1;
                    None
                }
            }
        }
    }
}

impl<K: Hash + Eq + Clone, V: Lattice> PMap<K, V> {
    /// Joins `value` into the binding of `key` (the point-wise
    /// `σ ⊔ [k ↦ v]`), reporting whether the binding grew.  When nothing
    /// grows, the spine — including every shared subtree — is left
    /// untouched, so repeated no-op binds at a fixpoint never copy.
    ///
    /// The join is carried down **one** descent (`join_at_node`): the
    /// growth decision happens at the key's leaf and the copy-on-write
    /// replacement path is built on the unwind — the growing-bind path no
    /// longer pays a read pre-check descent followed by a write descent.
    pub fn join_at_in_place(&mut self, key: K, value: V) -> bool
    where
        K: Ord,
    {
        let hash = fx_hash_of(&key);
        match &mut self.root {
            None => {
                // Structural join semantics: an explicit ⊥ binding is
                // inserted but is no semantic growth.
                let grew = !value.is_bottom();
                self.root = Some(Arc::new(Node::leaf(hash, vec![(key, value)])));
                grew
            }
            Some(root) => {
                let (replacement, grew) = join_at_node(root, 0, hash, key, value);
                if let Some(replacement) = replacement {
                    *root = replacement;
                }
                grew
            }
        }
    }

    /// Grows `self` to `self ⊔ other`, reporting whether anything grew.
    /// Subtrees equal by pointer are skipped without a walk; subtrees
    /// present only in `other` are adopted by reference.
    pub fn join_map_in_place(&mut self, other: Self) -> bool
    where
        K: Ord,
    {
        let mut grew = false;
        self.merge_from(other, &mut |_k| grew = true, &mut 0);
        grew
    }

    /// Like [`PMap::join_map_in_place`], additionally reporting *which keys*
    /// grew — the per-address delta the incremental engines' dependency
    /// invalidation is built on — and adding to `adopted_bytes` the
    /// nominal bytes of every node of `other` the join hung into `self` by
    /// reference: `other`'s root when `self` was empty, a branch child
    /// `self` lacked, or a leaf whose keys were all vacant.  The adopted
    /// node's descendants are reached only through it and are not counted
    /// again; a join whose keys were all bound already adopts nothing.
    /// Sizes are nominal: a fixed header plus a fixed cost per entry or
    /// child.
    pub fn join_in_place_delta(&mut self, other: Self, adopted_bytes: &mut usize) -> BTreeSet<K>
    where
        K: Ord,
    {
        let mut changed = BTreeSet::new();
        self.merge_from(
            other,
            &mut |k| {
                changed.insert(k.clone());
            },
            adopted_bytes,
        );
        changed
    }

    /// The shared merge engine behind the in-place joins: `on_grew` is
    /// invoked once per key whose binding semantically grew, and `adopted`
    /// grows by the nominal bytes of every `other` node hung into `self` by
    /// reference.
    fn merge_from(&mut self, other: Self, on_grew: &mut dyn FnMut(&K), adopted: &mut usize)
    where
        K: Ord,
    {
        match (self.root.as_mut(), other.root) {
            (_, None) => {}
            (None, Some(theirs)) => {
                report_subtree(&theirs, on_grew);
                *adopted += node_bytes(theirs.as_ref());
                self.root = Some(theirs);
            }
            (Some(ours), Some(theirs)) => {
                if let Some(merged) = merge_nodes(ours, &theirs, 0, on_grew, adopted) {
                    *ours = merged;
                }
            }
        }
    }

    /// Point-wise order: every binding of `self` is below the corresponding
    /// binding of `other` (missing keys read as `⊥`).  Shared subtrees are
    /// accepted without a walk.
    pub fn leq_map(&self, other: &Self) -> bool {
        match (&self.root, &other.root) {
            (None, _) => true,
            (Some(a), None) => node_all_bottom(a),
            (Some(a), Some(b)) => node_leq(a, b, 0),
        }
    }

    /// Whether every binding is `⊥` (missing keys are implicitly `⊥`, so an
    /// empty map is bottom and explicit `⊥` bindings keep it bottom).
    pub fn is_bottom_map(&self) -> bool {
        match &self.root {
            None => true,
            Some(root) => node_all_bottom(root),
        }
    }
}

/// The single-descent join behind [`PMap::join_at_in_place`]: carries the
/// value down to the key's position, decides growth there, and builds the
/// replacement path on the unwind.  Returns the replacement node (or `None`
/// when nothing changed structurally — in which case nothing was copied)
/// together with whether the binding *semantically* grew (an explicit `⊥`
/// insert changes the structure without growing).
fn join_at_node<K: Hash + Eq + Ord + Clone, V: Lattice>(
    node: &Arc<Node<K, V>>,
    level: u32,
    hash: u64,
    key: K,
    value: V,
) -> (Option<Arc<Node<K, V>>>, bool) {
    match &node.as_ref().kind {
        NodeKind::Leaf {
            hash: leaf_hash,
            entries,
        } => {
            if *leaf_hash != hash {
                // Vacant (off this leaf's hash): structural insert, growth
                // iff the value is not ⊥.
                let grew = !value.is_bottom();
                let fresh = Arc::new(Node::leaf(hash, vec![(key, value)]));
                return (
                    Some(split(Arc::clone(node), *leaf_hash, fresh, hash, level)),
                    grew,
                );
            }
            match entries.binary_search_by(|(k, _)| k.cmp(&key)) {
                Ok(i) => {
                    if value.leq(&entries[i].1) {
                        // No growth: the descent read, copied nothing.
                        return (None, false);
                    }
                    let mut entries = entries.clone();
                    entries[i].1.join_in_place(value);
                    (Some(Arc::new(Node::leaf(hash, entries))), true)
                }
                Err(i) => {
                    let grew = !value.is_bottom();
                    let mut entries = entries.clone();
                    entries.insert(i, (key, value));
                    (Some(Arc::new(Node::leaf(hash, entries))), grew)
                }
            }
        }
        NodeKind::Branch {
            bitmap,
            children,
            len,
        } => {
            let frag = fragment(hash, level);
            match Node::<K, V>::child_index(*bitmap, frag) {
                Ok(i) => {
                    let (replacement, grew) =
                        join_at_node(&children[i], level + 1, hash, key, value);
                    match replacement {
                        None => (None, grew),
                        Some(replacement) => {
                            let grown = replacement.len() - children[i].len();
                            let mut children = children.clone();
                            children[i] = replacement;
                            (
                                Some(Arc::new(Node::branch(*bitmap, children, len + grown))),
                                grew,
                            )
                        }
                    }
                }
                Err(i) => {
                    let grew = !value.is_bottom();
                    let mut children = children.clone();
                    children.insert(i, Arc::new(Node::leaf(hash, vec![(key, value)])));
                    (
                        Some(Arc::new(Node::branch(
                            bitmap | (1 << frag),
                            children,
                            len + 1,
                        ))),
                        grew,
                    )
                }
            }
        }
    }
}

impl<K: Hash + Eq + Clone + Ord, V: PartialEq + Clone> PMap<K, V> {
    /// The symmetric key-wise diff: every key bound on one side but not the
    /// other, or bound to different values.  Shared subtrees contribute
    /// nothing without being walked.
    pub fn changed_keys(&self, other: &Self) -> BTreeSet<K> {
        let mut out = BTreeSet::new();
        diff_nodes(self.root.as_ref(), other.root.as_ref(), 0, &mut out);
        out
    }
}

/// Reports every non-`⊥` key of a subtree (used when a whole subtree is
/// adopted from the other side of a join).
fn report_subtree<K, V: Lattice>(node: &Arc<Node<K, V>>, on_grew: &mut dyn FnMut(&K)) {
    match &node.as_ref().kind {
        NodeKind::Leaf { entries, .. } => {
            for (k, v) in entries {
                if !v.is_bottom() {
                    on_grew(k);
                }
            }
        }
        NodeKind::Branch { children, .. } => {
            for child in children {
                report_subtree(child, on_grew);
            }
        }
    }
}

/// Whether every entry of a subtree is `⊥`.
fn node_all_bottom<K, V: Lattice>(node: &Arc<Node<K, V>>) -> bool {
    match &node.as_ref().kind {
        NodeKind::Leaf { entries, .. } => entries.iter().all(|(_, v)| v.is_bottom()),
        NodeKind::Branch { children, .. } => children.iter().all(node_all_bottom),
    }
}

/// Looks a key up inside a subtree rooted at `level`.
fn lookup_node<'a, K: Eq, V>(
    node: &'a Arc<Node<K, V>>,
    hash: u64,
    key: &K,
    mut level: u32,
) -> Option<&'a V> {
    let mut node = node;
    loop {
        match &node.as_ref().kind {
            NodeKind::Leaf {
                hash: leaf_hash,
                entries,
            } => {
                if *leaf_hash != hash {
                    return None;
                }
                return entries.iter().find(|(k, _)| k == key).map(|(_, v)| v);
            }
            NodeKind::Branch {
                bitmap, children, ..
            } => match Node::<K, V>::child_index(*bitmap, fragment(hash, level)) {
                Ok(i) => {
                    node = &children[i];
                    level += 1;
                }
                Err(_) => return None,
            },
        }
    }
}

/// Point-wise `⊑` between aligned subtrees.
fn node_leq<K: Hash + Eq, V: Lattice>(
    a: &Arc<Node<K, V>>,
    b: &Arc<Node<K, V>>,
    level: u32,
) -> bool {
    if Arc::ptr_eq(a, b) {
        return true;
    }
    match (&a.as_ref().kind, &b.as_ref().kind) {
        (NodeKind::Leaf { hash, entries }, _) => {
            entries
                .iter()
                .all(|(k, v)| match lookup_node(b, *hash, k, level) {
                    Some(vb) => v.leq(vb),
                    None => v.is_bottom(),
                })
        }
        (NodeKind::Branch { children, .. }, NodeKind::Leaf { .. }) => {
            // `b` covers a single hash: any `a` entry off that hash must be
            // ⊥; entries on it are probed individually.
            children.iter().all(|child| node_leq(child, b, level + 1))
        }
        (
            NodeKind::Branch {
                bitmap: ba,
                children: ca,
                ..
            },
            NodeKind::Branch {
                bitmap: bb,
                children: cb,
                ..
            },
        ) => {
            let mut frags = (0..32).filter(|f| ba & (1 << f) != 0);
            ca.iter().all(|child| {
                let frag = frags.next().expect("bitmap/children agree");
                match Node::<K, V>::child_index(*bb, frag) {
                    Ok(i) => node_leq(child, &cb[i], level + 1),
                    Err(_) => node_all_bottom(child),
                }
            })
        }
    }
}

/// Structural equality between aligned subtrees (pointer fast path).
fn node_eq<K: Eq, V: PartialEq>(a: &Arc<Node<K, V>>, b: &Arc<Node<K, V>>) -> bool {
    if Arc::ptr_eq(a, b) {
        return true;
    }
    match (&a.as_ref().kind, &b.as_ref().kind) {
        (
            NodeKind::Leaf {
                hash: ha,
                entries: ea,
            },
            NodeKind::Leaf {
                hash: hb,
                entries: eb,
            },
        ) => ha == hb && ea == eb,
        (
            NodeKind::Branch {
                bitmap: ba,
                children: ca,
                ..
            },
            NodeKind::Branch {
                bitmap: bb,
                children: cb,
                ..
            },
        ) => ba == bb && ca.iter().zip(cb).all(|(x, y)| node_eq(x, y)),
        _ => false,
    }
}

/// Collects every key of a subtree into `out`.
fn collect_keys<K: Clone + Ord, V>(node: &Arc<Node<K, V>>, out: &mut BTreeSet<K>) {
    match &node.as_ref().kind {
        NodeKind::Leaf { entries, .. } => out.extend(entries.iter().map(|(k, _)| k.clone())),
        NodeKind::Branch { children, .. } => {
            for child in children {
                collect_keys(child, out);
            }
        }
    }
}

/// The symmetric diff of two aligned (same hash-prefix) optional subtrees.
fn diff_nodes<K: Hash + Eq + Clone + Ord, V: PartialEq>(
    a: Option<&Arc<Node<K, V>>>,
    b: Option<&Arc<Node<K, V>>>,
    level: u32,
    out: &mut BTreeSet<K>,
) {
    match (a, b) {
        (None, None) => {}
        (Some(x), None) | (None, Some(x)) => collect_keys(x, out),
        (Some(a), Some(b)) => {
            if Arc::ptr_eq(a, b) {
                return;
            }
            match (&a.as_ref().kind, &b.as_ref().kind) {
                (
                    NodeKind::Branch {
                        bitmap: ba,
                        children: ca,
                        ..
                    },
                    NodeKind::Branch {
                        bitmap: bb,
                        children: cb,
                        ..
                    },
                ) => {
                    for frag in 0..32 {
                        let ia = Node::<K, V>::child_index(*ba, frag).ok();
                        let ib = Node::<K, V>::child_index(*bb, frag).ok();
                        if ia.is_some() || ib.is_some() {
                            diff_nodes(ia.map(|i| &ca[i]), ib.map(|i| &cb[i]), level + 1, out);
                        }
                    }
                }
                // At least one side is a leaf: probe entry-by-entry in both
                // directions.
                (NodeKind::Leaf { hash, entries }, _) => {
                    for (k, v) in entries {
                        if lookup_node(b, *hash, k, level) != Some(v) {
                            out.insert(k.clone());
                        }
                    }
                    diff_missing_from(b, a, level, out);
                }
                (_, NodeKind::Leaf { hash, entries }) => {
                    for (k, v) in entries {
                        if lookup_node(a, *hash, k, level) != Some(v) {
                            out.insert(k.clone());
                        }
                    }
                    diff_missing_from(a, b, level, out);
                }
            }
        }
    }
}

/// Adds every key of `walk` that is absent from `other` (values already
/// compared by the caller from the other direction).
fn diff_missing_from<K: Hash + Eq + Clone + Ord, V: PartialEq>(
    walk: &Arc<Node<K, V>>,
    other: &Arc<Node<K, V>>,
    level: u32,
    out: &mut BTreeSet<K>,
) {
    match &walk.as_ref().kind {
        NodeKind::Leaf { hash, entries } => {
            for (k, _) in entries {
                if lookup_node(other, *hash, k, level).is_none() {
                    out.insert(k.clone());
                }
            }
        }
        NodeKind::Branch { children, .. } => {
            for child in children {
                diff_missing_from(child, other, level + 1, out);
            }
        }
    }
}

/// Merges subtree `b` into subtree `a` (both rooted at the same hash
/// prefix), returning the replacement node — or `None` when `a` absorbs `b`
/// without changing, in which case nothing was copied.  `on_grew` fires for
/// every key whose binding semantically grew; `adopted` grows by the
/// nominal bytes of every `b` node the result holds by reference.
fn merge_nodes<K: Hash + Eq + Clone + Ord, V: Lattice>(
    a: &Arc<Node<K, V>>,
    b: &Arc<Node<K, V>>,
    level: u32,
    on_grew: &mut dyn FnMut(&K),
    adopted: &mut usize,
) -> Option<Arc<Node<K, V>>> {
    if Arc::ptr_eq(a, b) {
        return None;
    }
    match (&a.as_ref().kind, &b.as_ref().kind) {
        (
            NodeKind::Leaf {
                hash: ha,
                entries: ea,
            },
            NodeKind::Leaf {
                hash: hb,
                entries: eb,
            },
        ) => {
            if ha == hb {
                // Same collision bucket: key-wise join.
                enum Op {
                    Skip,
                    Join,
                    Insert,
                }
                let mut merged: Option<Vec<(K, V)>> = None;
                for (k, vb) in eb {
                    let op = {
                        let view = merged.as_deref().unwrap_or(ea);
                        match view.binary_search_by(|(ka, _)| ka.cmp(k)) {
                            Ok(i) if vb.leq(&view[i].1) => Op::Skip,
                            Ok(_) => Op::Join,
                            Err(_) => Op::Insert,
                        }
                    };
                    match op {
                        Op::Skip => {}
                        Op::Join => {
                            on_grew(k);
                            let entries = merged.get_or_insert_with(|| ea.clone());
                            let i = entries
                                .binary_search_by(|(ka, _)| ka.cmp(k))
                                .expect("key known present");
                            entries[i].1.join_in_place(vb.clone());
                        }
                        Op::Insert => {
                            if !vb.is_bottom() {
                                on_grew(k);
                            }
                            let entries = merged.get_or_insert_with(|| ea.clone());
                            let at = entries
                                .binary_search_by(|(ka, _)| ka.cmp(k))
                                .expect_err("key known absent");
                            entries.insert(at, (k.clone(), vb.clone()));
                        }
                    }
                }
                merged.map(|entries| Arc::new(Node::leaf(*ha, entries)))
            } else {
                // Disjoint hashes: every `b` entry is an addition, and
                // `b` survives, shared, under the split.
                report_subtree(b, on_grew);
                *adopted += node_bytes(b.as_ref());
                Some(split(Arc::clone(a), *ha, Arc::clone(b), *hb, level))
            }
        }
        (
            NodeKind::Branch {
                bitmap: ba,
                children: ca,
                ..
            },
            NodeKind::Branch {
                bitmap: bb,
                children: cb,
                ..
            },
        ) => {
            let mut changed = false;
            let mut new_children: Vec<Arc<Node<K, V>>> = Vec::new();
            let mut ib = 0usize;
            let mut ia = 0usize;
            for frag in 0..32 {
                let in_a = ba & (1 << frag) != 0;
                let in_b = bb & (1 << frag) != 0;
                match (in_a, in_b) {
                    (true, true) => {
                        match merge_nodes(&ca[ia], &cb[ib], level + 1, on_grew, adopted) {
                            Some(node) => {
                                changed = true;
                                new_children.push(node);
                            }
                            None => new_children.push(Arc::clone(&ca[ia])),
                        }
                        ia += 1;
                        ib += 1;
                    }
                    (true, false) => {
                        new_children.push(Arc::clone(&ca[ia]));
                        ia += 1;
                    }
                    (false, true) => {
                        // Adopt the whole `b` subtree by reference.
                        report_subtree(&cb[ib], on_grew);
                        *adopted += node_bytes(cb[ib].as_ref());
                        changed = true;
                        new_children.push(Arc::clone(&cb[ib]));
                        ib += 1;
                    }
                    (false, false) => {}
                }
            }
            if !changed {
                return None;
            }
            let len = new_children.iter().map(|c| c.len()).sum();
            Some(Arc::new(Node::branch(ba | bb, new_children, len)))
        }
        (NodeKind::Branch { .. }, NodeKind::Leaf { hash, entries }) => {
            // The common fold shape: a small (usually single-entry) delta
            // leaf joining a large accumulator branch.  When every `b` key
            // is vacant in `a` the whole leaf is *adopted by reference* —
            // the accumulator's spine then genuinely shares the cached
            // delta's allocation (and no entry is copied).
            if entries
                .iter()
                .all(|(k, _)| lookup_node(a, *hash, k, level).is_none())
            {
                for (k, vb) in entries {
                    if !vb.is_bottom() {
                        on_grew(k);
                    }
                }
                let mut node = Arc::clone(a);
                adopt_leaf(&mut node, level, *hash, b, adopted);
                return Some(node);
            }
            // Otherwise join each `b` entry into the branch individually.
            let mut result: Option<Arc<Node<K, V>>> = None;
            for (k, vb) in entries {
                let base = result.as_ref().unwrap_or(a);
                let (grew, vacant) = match lookup_node(base, *hash, k, level) {
                    Some(va) => (!vb.leq(va), false),
                    None => (!vb.is_bottom(), true),
                };
                if grew {
                    on_grew(k);
                }
                if grew || vacant {
                    let mut node = Arc::clone(base);
                    join_entry(&mut node, level, *hash, k, vb);
                    result = Some(node);
                }
            }
            result
        }
        (NodeKind::Leaf { hash, entries }, NodeKind::Branch { .. }) => {
            // The union lives in `b`'s (larger) shape: start from `b`,
            // join `a`'s entries in, and report `b`'s own contributions —
            // everything `b` binds beyond what `a` already had.
            report_beyond(b, a, level, on_grew);
            let mut node = Arc::clone(b);
            for (k, va) in entries {
                join_entry(&mut node, level, *hash, k, va);
            }
            *adopted += held_bytes(&node, b, level);
            Some(node)
        }
    }
}

/// The nominal bytes of the nodes of `b` that `node` holds by reference,
/// where `node` is `b` with the paths to some keys copied by
/// [`join_entry`] (both rooted at `level`).  A copied path node is not
/// counted; the `b` nodes hanging off it are, and so is a `b` leaf that a
/// [`split`] pushed one level down.
fn held_bytes<K, V>(node: &Arc<Node<K, V>>, b: &Arc<Node<K, V>>, level: u32) -> usize {
    if Arc::ptr_eq(node, b) {
        return node_bytes(b.as_ref());
    }
    let NodeKind::Branch {
        bitmap: bn,
        children: cn,
        ..
    } = &node.as_ref().kind
    else {
        return 0;
    };
    let child = |frag: u32| Node::<K, V>::child_index(*bn, frag).ok().map(|i| &cn[i]);
    match &b.as_ref().kind {
        NodeKind::Leaf { hash, .. } => {
            child(fragment(*hash, level)).map_or(0, |c| held_bytes(c, b, level + 1))
        }
        NodeKind::Branch {
            bitmap: bb,
            children: cb,
            ..
        } => (0..FANOUT as u32)
            .filter(|frag| bb & (1 << frag) != 0)
            .zip(cb)
            .map(|(frag, cb)| child(frag).map_or(0, |c| held_bytes(c, cb, level + 1)))
            .sum(),
    }
}

/// Hangs the leaf `b` (whose keys are all vacant in the subtree) into the
/// trie by reference, copying only the descent path, and adds `b`'s nominal
/// bytes to `adopted` when it is hung whole (a same-hash collision bucket
/// copies its entries instead).
fn adopt_leaf<K: Hash + Eq + Clone + Ord, V: Lattice>(
    node: &mut Arc<Node<K, V>>,
    level: u32,
    hash: u64,
    b: &Arc<Node<K, V>>,
    adopted: &mut usize,
) {
    if let NodeKind::Leaf {
        hash: leaf_hash, ..
    } = &node.as_ref().kind
    {
        let old_hash = *leaf_hash;
        if old_hash != hash {
            // Two distinct hashes: both leaves survive, shared, under a
            // fresh branch chain.
            *adopted += node_bytes(b.as_ref());
            *node = split(Arc::clone(node), old_hash, Arc::clone(b), hash, level);
        } else {
            // Same-hash collision bucket with disjoint keys: the entries
            // must merge into one canonical leaf.
            let NodeKind::Leaf { entries: eb, .. } = &b.as_ref().kind else {
                unreachable!("adopt_leaf is only called with a leaf");
            };
            let eb = eb.clone();
            let inner = Arc::make_mut(node);
            inner.reset_digest();
            let NodeKind::Leaf { entries, .. } = &mut inner.kind else {
                unreachable!("checked to be a leaf above");
            };
            entries.extend(eb);
            entries.sort_by(|(ka, _), (kb, _)| ka.cmp(kb));
        }
        return;
    }
    let inner = Arc::make_mut(node);
    inner.reset_digest();
    match &mut inner.kind {
        NodeKind::Leaf { .. } => unreachable!("handled above"),
        NodeKind::Branch {
            bitmap,
            children,
            len,
        } => {
            let frag = fragment(hash, level);
            match Node::<K, V>::child_index(*bitmap, frag) {
                Ok(i) => {
                    let before = children[i].len();
                    adopt_leaf(&mut children[i], level + 1, hash, b, adopted);
                    *len += children[i].len() - before;
                }
                Err(i) => {
                    *adopted += node_bytes(b.as_ref());
                    children.insert(i, Arc::clone(b));
                    *bitmap |= 1 << frag;
                    *len += b.len();
                }
            }
        }
    }
}

/// Reports every key of `b` whose binding exceeds its binding in `a`
/// (missing in `a` reads as `⊥`) — the growth report for a subtree adopted
/// shape-first from `b`.
fn report_beyond<K: Hash + Eq + Clone, V: Lattice>(
    b: &Arc<Node<K, V>>,
    a: &Arc<Node<K, V>>,
    a_level: u32,
    on_grew: &mut dyn FnMut(&K),
) {
    match &b.as_ref().kind {
        NodeKind::Leaf { hash, entries } => {
            for (k, vb) in entries {
                let grew = match lookup_node(a, *hash, k, a_level) {
                    Some(va) => !vb.leq(va),
                    None => !vb.is_bottom(),
                };
                if grew {
                    on_grew(k);
                }
            }
        }
        NodeKind::Branch { children, .. } => {
            for child in children {
                report_beyond(child, a, a_level, on_grew);
            }
        }
    }
}

/// Joins one value into a subtree at a known hash/key, copying only the
/// descent path.  The caller has already decided the entry must change (or
/// be inserted).
fn join_entry<K: Hash + Eq + Clone + Ord, V: Lattice>(
    node: &mut Arc<Node<K, V>>,
    level: u32,
    hash: u64,
    key: &K,
    value: &V,
) {
    if let NodeKind::Leaf {
        hash: leaf_hash, ..
    } = &node.as_ref().kind
    {
        if *leaf_hash != hash {
            let fresh = Arc::new(Node::leaf(hash, vec![(key.clone(), value.clone())]));
            let old_hash = *leaf_hash;
            *node = split(Arc::clone(node), old_hash, fresh, hash, level);
            return;
        }
    }
    let inner = Arc::make_mut(node);
    inner.reset_digest();
    match &mut inner.kind {
        NodeKind::Leaf { entries, .. } => match entries.binary_search_by(|(k, _)| k.cmp(key)) {
            Ok(i) => {
                entries[i].1.join_in_place(value.clone());
            }
            Err(i) => entries.insert(i, (key.clone(), value.clone())),
        },
        NodeKind::Branch {
            bitmap,
            children,
            len,
        } => {
            let frag = fragment(hash, level);
            match Node::<K, V>::child_index(*bitmap, frag) {
                Ok(i) => {
                    let before = children[i].len();
                    join_entry(&mut children[i], level + 1, hash, key, value);
                    *len += children[i].len() - before;
                }
                Err(i) => {
                    children.insert(
                        i,
                        Arc::new(Node::leaf(hash, vec![(key.clone(), value.clone())])),
                    );
                    *bitmap |= 1 << frag;
                    *len += 1;
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Iteration
// ---------------------------------------------------------------------------

struct Frame<'a, K, V> {
    node: &'a Node<K, V>,
    next: usize,
}

/// The borrowed entry iterator of a [`PMap`], in trie (hash) order.
pub struct Iter<'a, K, V> {
    stack: Vec<Frame<'a, K, V>>,
}

impl<'a, K, V> Iterator for Iter<'a, K, V> {
    type Item = (&'a K, &'a V);

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            let frame = self.stack.last_mut()?;
            match &frame.node.kind {
                NodeKind::Leaf { entries, .. } => {
                    if frame.next < entries.len() {
                        let (k, v) = &entries[frame.next];
                        frame.next += 1;
                        return Some((k, v));
                    }
                    self.stack.pop();
                }
                NodeKind::Branch { children, .. } => {
                    if frame.next < children.len() {
                        let child = children[frame.next].as_ref();
                        frame.next += 1;
                        self.stack.push(Frame {
                            node: child,
                            next: 0,
                        });
                    } else {
                        self.stack.pop();
                    }
                }
            }
        }
    }
}

impl<'a, K, V> IntoIterator for &'a PMap<K, V> {
    type Item = (&'a K, &'a V);
    type IntoIter = Iter<'a, K, V>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

// ---------------------------------------------------------------------------
// Structural trait plumbing
// ---------------------------------------------------------------------------

impl<K: Eq, V: PartialEq> PartialEq for PMap<K, V> {
    fn eq(&self, other: &Self) -> bool {
        match (&self.root, &other.root) {
            (None, None) => true,
            (Some(a), Some(b)) => node_eq(a, b),
            _ => false,
        }
    }
}

impl<K: Eq, V: Eq> Eq for PMap<K, V> {}

/// Lexicographic over the trie-order entry sequence, like [`Ord`] (with
/// which it agrees whenever `V: Ord`).  Only `V: PartialOrd` is asked for,
/// so that a `#[derive(PartialOrd)]` over a type holding a `PMap<K, A>`
/// compiles under the derive's `A: PartialOrd` bound.
impl<K: Ord, V: PartialOrd> PartialOrd for PMap<K, V> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        if self.ptr_eq(other) {
            return Some(Ordering::Equal);
        }
        self.iter().partial_cmp(other.iter())
    }
}

impl<K: Ord, V: Ord> Ord for PMap<K, V> {
    /// Lexicographic order over the trie-order entry sequence.  The
    /// sequence is a pure function of the content (the trie is canonical),
    /// so this is a lawful total order consistent with `Eq` — it is *not*
    /// the key-lexicographic order a `BTreeMap` would produce, but nothing
    /// in the framework relies on a specific order, only on a consistent
    /// one.
    fn cmp(&self, other: &Self) -> Ordering {
        if self.ptr_eq(other) {
            return Ordering::Equal;
        }
        self.iter().cmp(other.iter())
    }
}

impl<K: Hash, V: Hash> Hash for PMap<K, V> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        // Feed the cached per-subtree digest to the caller's hasher: the
        // digest is a pure function of the canonical content, so this stays
        // consistent with the structural `PartialEq` — and costs one
        // `OnceLock` read per already-digested subtree instead of a full
        // entry walk.  This is what makes the per-state engine's
        // whole-store interning hash O(1) amortised.
        state.write_usize(self.len());
        if let Some(root) = &self.root {
            state.write_u64(node_digest(root));
        }
    }
}

impl<K: fmt::Debug, V: fmt::Debug> fmt::Debug for PMap<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

impl<K: Hash + Eq + Ord + Clone, V: Clone> FromIterator<(K, V)> for PMap<K, V> {
    fn from_iter<T: IntoIterator<Item = (K, V)>>(iter: T) -> Self {
        let mut map = PMap::new();
        for (k, v) in iter {
            map.insert(k, v);
        }
        map
    }
}

impl<K, V> Lattice for PMap<K, V>
where
    K: Hash + Eq + Ord + Clone,
    V: Lattice,
{
    fn bottom() -> Self {
        PMap::new()
    }

    fn join(mut self, other: Self) -> Self {
        self.join_map_in_place(other);
        self
    }

    fn leq(&self, other: &Self) -> bool {
        self.leq_map(other)
    }

    fn join_in_place(&mut self, other: Self) -> bool {
        self.join_map_in_place(other)
    }

    fn is_bottom(&self) -> bool {
        self.is_bottom_map()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::{BTreeMap, BTreeSet};

    type M = PMap<u16, BTreeSet<u8>>;

    fn set(xs: &[u8]) -> BTreeSet<u8> {
        xs.iter().copied().collect()
    }

    fn from_pairs(pairs: &[(u16, u8)]) -> M {
        let mut m = M::new();
        for (k, v) in pairs {
            m.join_at_in_place(*k, set(&[*v]));
        }
        m
    }

    fn as_btree(m: &M) -> BTreeMap<u16, BTreeSet<u8>> {
        m.iter().map(|(k, v)| (*k, v.clone())).collect()
    }

    #[test]
    fn insert_get_and_replace() {
        let mut m: PMap<u32, &'static str> = PMap::new();
        assert!(m.is_empty());
        assert_eq!(m.insert(1, "one"), None);
        assert_eq!(m.insert(2, "two"), None);
        assert_eq!(m.insert(1, "uno"), Some("one"));
        assert_eq!(m.len(), 2);
        assert_eq!(m.get(&1), Some(&"uno"));
        assert_eq!(m.get(&3), None);
        assert!(m.contains_key(&2) && !m.contains_key(&3));
    }

    #[test]
    fn clone_shares_until_written() {
        let mut a = from_pairs(&[(1, 1), (2, 2), (3, 3)]);
        let b = a.clone();
        assert!(a.ptr_eq(&b));
        a.insert(4, set(&[4]));
        assert!(!a.ptr_eq(&b));
        assert_eq!(b.len(), 3);
        assert_eq!(a.len(), 4);
        // The snapshot still shares the untouched subtrees.
        assert!(b.shared_spine_bytes() > 0);
    }

    #[test]
    fn join_at_in_place_reports_growth_and_preserves_sharing() {
        let mut m = from_pairs(&[(1, 1)]);
        let snapshot = m.clone();
        // A no-op bind must not copy anything.
        assert!(!m.join_at_in_place(1, set(&[1])));
        assert!(m.ptr_eq(&snapshot));
        // A growing bind copies the path and reports.
        assert!(m.join_at_in_place(1, set(&[2])));
        assert_eq!(m.get(&1), Some(&set(&[1, 2])));
        assert_eq!(snapshot.get(&1), Some(&set(&[1])));
        // An explicit ⊥ insert is structural but not semantic growth.
        assert!(!m.join_at_in_place(9, BTreeSet::new()));
        assert!(m.contains_key(&9));
        assert!(!PMap::<u16, BTreeSet<u8>>::new().join_at_in_place(7, BTreeSet::new()));
    }

    #[test]
    fn upsert_with_is_single_descent_and_preserves_sharing() {
        let mut m = from_pairs(&[(1, 1), (2, 2), (3, 3)]);
        let snapshot = m.clone();
        // A `None` decision touches nothing — same allocation.
        assert!(!m.upsert_with(2, |v| {
            assert_eq!(v, Some(&set(&[2])));
            None
        }));
        assert!(m.ptr_eq(&snapshot));
        // A `None` decision on a vacant key also touches nothing.
        assert!(!m.upsert_with(99, |v| {
            assert_eq!(v, None);
            None
        }));
        assert!(m.ptr_eq(&snapshot));
        // A replacement installs and leaves the snapshot at the old value.
        assert!(m.upsert_with(2, |v| v.map(|s| {
            let mut s = s.clone();
            s.insert(9);
            s
        })));
        assert_eq!(m.get(&2), Some(&set(&[2, 9])));
        assert_eq!(snapshot.get(&2), Some(&set(&[2])));
        // A vacant-key insert through the decision closure.
        assert!(m.upsert_with(42, |v| {
            assert_eq!(v, None);
            Some(set(&[7]))
        }));
        assert_eq!(m.get(&42), Some(&set(&[7])));
        assert_eq!(m.len(), 4);
        // Upsert into the empty map.
        let mut empty: M = PMap::new();
        assert!(!empty.upsert_with(1, |_| None));
        assert!(empty.is_empty());
        assert!(empty.upsert_with(1, |_| Some(set(&[1]))));
        assert_eq!(empty.get(&1), Some(&set(&[1])));
    }

    #[test]
    fn cached_digests_survive_clones_and_track_mutation() {
        let pairs: Vec<(u16, u8)> = (0..64).map(|i| (i as u16, (i % 5) as u8)).collect();
        let mut m = from_pairs(&pairs);
        let h1 = fx_hash_of(&m);
        // A clone replays the cached digest.
        let snapshot = m.clone();
        assert_eq!(fx_hash_of(&snapshot), h1);
        // Hashing twice is stable.
        assert_eq!(fx_hash_of(&m), h1);
        // Every mutation path refreshes the digest: insert…
        m.insert(1000, set(&[1]));
        let h2 = fx_hash_of(&m);
        assert_ne!(h1, h2);
        // …join_at_in_place…
        assert!(m.join_at_in_place(3, set(&[9])));
        let h3 = fx_hash_of(&m);
        assert_ne!(h2, h3);
        // …upsert_with…
        assert!(m.upsert_with(3, |v| v.map(|s| {
            let mut s = s.clone();
            s.insert(10);
            s
        })));
        let h4 = fx_hash_of(&m);
        assert_ne!(h3, h4);
        // …join_map_in_place…
        assert!(m.join_map_in_place(from_pairs(&[(2000, 2)])));
        let h5 = fx_hash_of(&m);
        assert_ne!(h4, h5);
        // …and retain.
        m.retain(|k| *k < 500);
        let h6 = fx_hash_of(&m);
        assert_ne!(h5, h6);
        // Throughout, the digest stays a pure content function: a map
        // rebuilt from scratch with the same content hashes identically.
        let rebuilt: M = m.iter().map(|(k, v)| (*k, v.clone())).collect();
        assert_eq!(m, rebuilt);
        assert_eq!(fx_hash_of(&m), fx_hash_of(&rebuilt));
        // The untouched snapshot still hashes as before.
        assert_eq!(fx_hash_of(&snapshot), h1);
    }

    #[test]
    fn retain_collapses_canonically() {
        let pairs: Vec<(u16, u8)> = (0..200).map(|i| (i as u16, (i % 7) as u8)).collect();
        let full = from_pairs(&pairs);
        let mut kept = full.clone();
        kept.retain(|k| *k % 2 == 0);
        assert_eq!(kept.len(), 100);
        // Canonical form: the filtered map equals one built from scratch.
        let rebuilt = from_pairs(
            &pairs
                .iter()
                .copied()
                .filter(|(k, _)| k % 2 == 0)
                .collect::<Vec<_>>(),
        );
        assert_eq!(kept, rebuilt);
        assert_eq!(kept.cmp(&rebuilt), Ordering::Equal);
        assert_eq!(
            crate::hash::fx_hash_of(&kept),
            crate::hash::fx_hash_of(&rebuilt)
        );
        // Retaining everything returns the same allocation.
        let mut same = full.clone();
        same.retain(|_| true);
        assert!(same.ptr_eq(&full));
        // Retaining nothing empties the map.
        let mut none = full.clone();
        none.retain(|_| false);
        assert!(none.is_empty());
    }

    #[test]
    fn ord_and_hash_are_content_functions() {
        let a = from_pairs(&[(3, 1), (1, 2), (2, 3)]);
        let b = from_pairs(&[(2, 3), (3, 1), (1, 2)]);
        assert_eq!(a, b);
        assert_eq!(a.cmp(&b), Ordering::Equal);
        assert_eq!(crate::hash::fx_hash_of(&a), crate::hash::fx_hash_of(&b));
        let c = from_pairs(&[(3, 1), (1, 2)]);
        assert_ne!(a, c);
        assert_ne!(a.cmp(&c), Ordering::Equal);
    }

    #[test]
    fn join_adopts_disjoint_subtrees_by_reference() {
        let a = from_pairs(&[(1, 1)]);
        let b = from_pairs(&[(2, 2), (3, 3)]);
        let mut joined = a.clone();
        let mut adopted = 0;
        assert_eq!(joined.join_in_place_delta(b.clone(), &mut adopted).len(), 2);
        assert_eq!(joined.len(), 3);
        // `b`'s spine is now shared with `joined`, and the join said so.
        assert!(adopted > 0);
        assert!(b.shared_spine_bytes() > 0);
        // Joining the (smaller) original back is a no-op that copies nothing.
        let before = joined.clone();
        assert!(!joined.join_map_in_place(a));
        assert!(joined.ptr_eq(&before));
    }

    #[test]
    fn join_of_bound_keys_adopts_nothing() {
        let pairs: Vec<(u16, u8)> = (0..64).map(|i| (i, 1)).collect();
        let mut acc = from_pairs(&pairs);
        // Every key of the delta is bound already: growing values copies
        // paths, re-joining known values copies nothing, and neither hangs
        // a delta node into the accumulator.
        for (grow, delta) in [
            (true, from_pairs(&[(3, 2), (40, 2)])),
            (false, from_pairs(&[(3, 1), (40, 2), (63, 1)])),
        ] {
            let mut adopted = 0;
            let grew = acc.join_in_place_delta(delta.clone(), &mut adopted);
            assert_eq!(!grew.is_empty(), grow);
            assert_eq!(adopted, 0);
            assert_eq!(delta.shared_spine_bytes(), 0);
        }
    }

    /// A key whose `Hash` collapses to two buckets: every map with three or
    /// more of these keys holds genuine 64-bit hash collisions, driving the
    /// multi-entry collision-leaf paths (bucket insert, same-hash leaf
    /// merge, `adopt_leaf`'s entry union, retain/diff over buckets) that
    /// well-distributed keys never reach.
    #[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Debug)]
    struct Colliding(u8);

    impl std::hash::Hash for Colliding {
        fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
            state.write_u8(self.0 % 2);
        }
    }

    type CM = PMap<Colliding, BTreeSet<u8>>;

    fn colliding_from(pairs: &[(u8, u8)]) -> CM {
        let mut m = CM::new();
        for (k, v) in pairs {
            m.join_at_in_place(Colliding(*k), set(&[*v]));
        }
        m
    }

    fn colliding_as_btree(m: &CM) -> BTreeMap<u8, BTreeSet<u8>> {
        m.iter().map(|(k, v)| (k.0, v.clone())).collect()
    }

    #[test]
    fn collision_buckets_insert_replace_and_retain() {
        let mut m = CM::new();
        for k in 0u8..8 {
            assert_eq!(m.insert(Colliding(k), set(&[k])), None);
        }
        assert_eq!(m.len(), 8);
        // Replacement inside a bucket returns the displaced value.
        assert_eq!(m.insert(Colliding(3), set(&[9])), Some(set(&[3])));
        for k in 0u8..8 {
            let expected = if k == 3 { set(&[9]) } else { set(&[k]) };
            assert_eq!(m.get(&Colliding(k)), Some(&expected), "key {k}");
        }
        // Retain filters within buckets and stays canonical.
        m.retain(|k| k.0 < 4);
        assert_eq!(m.len(), 4);
        let rebuilt = colliding_from(&[(0, 0), (1, 1), (2, 2), (3, 9)]);
        assert_eq!(m, rebuilt);
        assert_eq!(
            crate::hash::fx_hash_of(&m),
            crate::hash::fx_hash_of(&rebuilt)
        );
    }

    proptest! {
        #[test]
        fn prop_collision_buckets_agree_with_btreemap_reference(
            xs in proptest::collection::vec((0u8..8, 0u8..5), 0..16),
            ys in proptest::collection::vec((0u8..8, 0u8..5), 0..16),
        ) {
            let a = colliding_from(&xs);
            let b = colliding_from(&ys);
            // Content identical to the structural reference.
            let mut reference: BTreeMap<u8, BTreeSet<u8>> = BTreeMap::new();
            for (k, v) in &xs {
                reference.entry(*k).or_default().insert(*v);
            }
            prop_assert_eq!(colliding_as_btree(&a), reference);

            // Join through the collision-leaf merge paths, with the flag
            // law and the delta report intact.
            let mut joined = a.clone();
            let grew = joined.join_map_in_place(b.clone());
            prop_assert_eq!(grew, !b.leq_map(&a));
            // A fresh build of `a` shares nothing, so what it shares after
            // the join is exactly what the join reports it adopted from `b`.
            let mut delta_map = colliding_from(&xs);
            let mut adopted = 0;
            let delta = delta_map.join_in_place_delta(b.clone(), &mut adopted);
            prop_assert_eq!(&delta_map, &joined);
            prop_assert_eq!(adopted, delta_map.shared_spine_bytes());
            for k in 0u8..8 {
                let va = a.get(&Colliding(k)).cloned().unwrap_or_default();
                let vb = b.get(&Colliding(k)).cloned().unwrap_or_default();
                prop_assert_eq!(
                    delta.contains(&Colliding(k)),
                    !vb.is_subset(&va),
                    "key {}",
                    k
                );
                prop_assert_eq!(
                    joined.get(&Colliding(k)).cloned().unwrap_or_default(),
                    va.union(&vb).copied().collect::<BTreeSet<u8>>()
                );
            }

            // Symmetric diff across buckets.
            let changed = a.changed_keys(&b);
            for k in 0u8..8 {
                let expected = a.get(&Colliding(k)) != b.get(&Colliding(k));
                prop_assert_eq!(changed.contains(&Colliding(k)), expected, "key {}", k);
            }

            // Idempotent re-join, and lattice laws through the buckets.
            let snapshot = joined.clone();
            prop_assert!(!joined.join_map_in_place(b.clone()));
            prop_assert_eq!(&joined, &snapshot);
            prop_assert_eq!(a.clone().join(b.clone()), b.clone().join(a.clone()));
        }
    }

    proptest! {
        #[test]
        fn prop_pmap_agrees_with_btreemap_reference(
            xs in proptest::collection::vec((0u16..64, 0u8..6), 0..40),
            probe in 0u16..64,
        ) {
            let m = from_pairs(&xs);
            let mut reference: BTreeMap<u16, BTreeSet<u8>> = BTreeMap::new();
            for (k, v) in &xs {
                reference.entry(*k).or_default().insert(*v);
            }
            prop_assert_eq!(as_btree(&m), reference.clone());
            prop_assert_eq!(m.len(), reference.len());
            prop_assert_eq!(m.get(&probe), reference.get(&probe));
        }

        #[test]
        fn prop_join_matches_pointwise_reference(
            xs in proptest::collection::vec((0u16..48, 0u8..6), 0..30),
            ys in proptest::collection::vec((0u16..48, 0u8..6), 0..30),
        ) {
            let a = from_pairs(&xs);
            let b = from_pairs(&ys);

            // Reference join on BTreeMaps.
            let mut reference = as_btree(&a);
            for (k, v) in as_btree(&b) {
                reference.entry(k).or_default().extend(v);
            }

            let mut joined = a.clone();
            let grew = joined.join_map_in_place(b.clone());
            prop_assert_eq!(as_btree(&joined), reference);
            prop_assert_eq!(grew, !b.leq_map(&a));
            prop_assert!(a.leq_map(&joined) && b.leq_map(&joined));
            // Idempotence and the flag law on re-join.
            let again = joined.clone();
            prop_assert!(!joined.join_map_in_place(b.clone()));
            prop_assert_eq!(&joined, &again);

            // Delta join: same result, exactly the grown keys reported, and
            // (on a fresh build of `a`, which shares nothing) exactly the
            // spine it shares with `b` reported as adopted.
            let mut delta_map = from_pairs(&xs);
            let mut adopted = 0;
            let delta = delta_map.join_in_place_delta(b.clone(), &mut adopted);
            prop_assert_eq!(&delta_map, &joined);
            prop_assert_eq!(adopted, delta_map.shared_spine_bytes());
            for k in 0u16..48 {
                let va = a.get(&k).cloned().unwrap_or_default();
                let vb = b.get(&k).cloned().unwrap_or_default();
                prop_assert_eq!(delta.contains(&k), !vb.is_subset(&va), "key {}", k);
            }

            // Symmetric diff against the reference.
            let changed = a.changed_keys(&b);
            for k in 0u16..48 {
                let expected = a.get(&k) != b.get(&k);
                prop_assert_eq!(changed.contains(&k), expected, "key {}", k);
            }
        }

        #[test]
        fn prop_join_at_agrees_with_insert_reference_and_caches_digests(
            xs in proptest::collection::vec((0u16..48, 0u8..6), 0..30),
            key in 0u16..48,
            v in 0u8..6,
        ) {
            let m = from_pairs(&xs);
            // join_at_in_place against the BTreeMap reference.
            let mut joined = m.clone();
            let grew = joined.join_at_in_place(key, set(&[v]));
            let mut reference = as_btree(&m);
            let slot = reference.entry(key).or_default();
            let expected_grew = !slot.contains(&v);
            slot.insert(v);
            prop_assert_eq!(grew, expected_grew);
            prop_assert_eq!(as_btree(&joined), reference);
            // No-growth re-bind copies nothing.
            let snapshot = joined.clone();
            prop_assert!(!joined.join_at_in_place(key, set(&[v])));
            prop_assert!(joined.ptr_eq(&snapshot));
            // Digest equality across structurally equal maps.
            let rebuilt: M = joined.iter().map(|(k, s)| (*k, s.clone())).collect();
            prop_assert_eq!(fx_hash_of(&joined), fx_hash_of(&rebuilt));
        }

        #[test]
        fn prop_retain_matches_reference(
            xs in proptest::collection::vec((0u16..48, 0u8..6), 0..30),
            modulus in 2u16..5,
        ) {
            let mut m = from_pairs(&xs);
            m.retain(|k| k % modulus != 0);
            let mut reference: BTreeMap<u16, BTreeSet<u8>> = BTreeMap::new();
            for (k, v) in &xs {
                if k % modulus != 0 {
                    reference.entry(*k).or_default().insert(*v);
                }
            }
            prop_assert_eq!(as_btree(&m), reference);
        }

        #[test]
        fn prop_lattice_laws_hold(
            xs in proptest::collection::vec((0u16..32, 0u8..5), 0..20),
            ys in proptest::collection::vec((0u16..32, 0u8..5), 0..20),
            zs in proptest::collection::vec((0u16..32, 0u8..5), 0..20),
        ) {
            let a = from_pairs(&xs);
            let b = from_pairs(&ys);
            let c = from_pairs(&zs);
            // Commutativity, associativity, idempotence, bottom identity.
            prop_assert_eq!(a.clone().join(b.clone()), b.clone().join(a.clone()));
            prop_assert_eq!(
                a.clone().join(b.clone()).join(c.clone()),
                a.clone().join(b.clone().join(c.clone()))
            );
            prop_assert_eq!(a.clone().join(a.clone()), a.clone());
            prop_assert_eq!(M::bottom().join(a.clone()), a.clone());
            prop_assert!(M::bottom().is_bottom());
            prop_assert!(M::bottom().leq(&a));
        }
    }
}
