//! Dense node handles and flat, cache-friendly collections.
//!
//! The protocol crates originally kept per-node state in nested
//! `BTreeMap<NodeId, _>` / `BTreeSet<NodeId>` structures. Those are
//! pointer-rich: every entry is a separate heap node, lookups chase
//! cache-cold pointers, and clones on the broadcast hot path allocate per
//! message. At the fleet sizes the paper targets (§8: hundreds of nodes;
//! ROADMAP: 10⁴–10⁵) this dominates the simulator's wall-clock.
//!
//! This module provides the memory-lean replacements used across `core`,
//! `workload` and `baselines`:
//!
//! * [`NodeTable`] — the explicit registry mapping public
//!   [`NodeId`](elink_topology::NodeId)s to
//!   dense [`NodeHandle`]s (`u32`). Node ids in this codebase are already
//!   dense `0..n`, so the mapping is a checked cast; the registry makes the
//!   narrowing explicit, owns the `n ≤ u32::MAX` invariant, and gives
//!   struct-of-arrays columns ([`NodeTable::column`]) a single authority
//!   for their length.
//! * [`FlatMap`] / [`FlatSet`] — sorted-vector map/set with binary-search
//!   lookup. One contiguous allocation, no per-entry boxes, and iteration
//!   order identical to the `BTreeMap`/`BTreeSet` they replace (ascending
//!   by key) — which is what keeps `CostBook` and `JsonlTrace` output
//!   byte-identical across the refactor.
//!
//! # Handle lifetimes
//!
//! A [`NodeHandle`] is valid for exactly the lifetime of the [`NodeTable`]
//! that issued it (in practice: one simulation run over one topology).
//! Handles are plain indices — they carry no generation tag — so they must
//! never be stored across runs or across tables of different sizes; debug
//! builds assert bounds on every translation.

use elink_topology::NodeId;

/// Dense `u32` handle for a node, issued by a [`NodeTable`].
///
/// Handles order and compare exactly like the [`NodeId`]s they stand for
/// (the registry preserves order), so `FlatMap<NodeHandle, _>` iterates in
/// the same sequence as the `BTreeMap<NodeId, _>` it replaces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeHandle(u32);

impl NodeHandle {
    /// The raw dense index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Registry translating public [`NodeId`]s to dense [`NodeHandle`]s.
///
/// Owns the fleet-size invariant (`n ≤ u32::MAX`) and is the single
/// authority for the length of struct-of-arrays columns.
#[derive(Debug, Clone)]
pub struct NodeTable {
    n: u32,
}

impl NodeTable {
    /// Builds a registry for a fleet of `n` nodes with ids `0..n`.
    ///
    /// # Panics
    /// Panics if `n` exceeds `u32::MAX`.
    pub fn new(n: usize) -> Self {
        assert!(u32::try_from(n).is_ok(), "fleet too large for u32 handles");
        NodeTable { n: n as u32 }
    }

    /// Number of registered nodes.
    pub fn len(&self) -> usize {
        self.n as usize
    }

    /// Whether the fleet is empty.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The dense handle for a node id.
    ///
    /// # Panics
    /// Debug-asserts that the id is registered (`id < n`).
    #[inline]
    pub fn handle(&self, id: NodeId) -> NodeHandle {
        debug_assert!(id < self.n as usize, "node id {id} out of table range");
        NodeHandle(id as u32)
    }

    /// The public node id behind a handle.
    #[inline]
    pub fn id(&self, h: NodeHandle) -> NodeId {
        debug_assert!(h.0 < self.n, "stale handle {h:?} for table of {}", self.n);
        h.0 as usize
    }

    /// Allocates a struct-of-arrays column: one `T` per registered node,
    /// indexable by [`NodeHandle::index`].
    pub fn column<T: Clone>(&self, fill: T) -> Vec<T> {
        vec![fill; self.len()]
    }

    /// Iterates all handles in ascending id order.
    pub fn handles(&self) -> impl Iterator<Item = NodeHandle> {
        (0..self.n).map(NodeHandle)
    }
}

/// A map stored as a single sorted vector of `(key, value)` pairs.
///
/// Lookup is binary search (`O(log n)` like `BTreeMap`, but on one
/// contiguous allocation); insert/remove shift the tail (`O(n)` worst
/// case, cheap at the per-node map sizes seen here — children lists,
/// pending phases — which are bounded by node degree or quadtree fanout).
/// Iteration is ascending by key, matching `BTreeMap`.
#[derive(Debug, Clone, Default)]
pub struct FlatMap<K, V> {
    entries: Vec<(K, V)>,
}

impl<K: Ord + Copy, V> FlatMap<K, V> {
    /// An empty map (no allocation until the first insert).
    pub fn new() -> Self {
        FlatMap {
            entries: Vec::new(),
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the map is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Removes all entries, keeping capacity.
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    #[inline]
    fn position(&self, key: &K) -> Result<usize, usize> {
        self.entries.binary_search_by(|(k, _)| k.cmp(key))
    }

    /// The value for `key`, if present.
    #[inline]
    pub fn get(&self, key: &K) -> Option<&V> {
        self.position(key).ok().map(|i| &self.entries[i].1)
    }

    /// Mutable access to the value for `key`, if present.
    #[inline]
    pub fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        match self.position(key) {
            Ok(i) => Some(&mut self.entries[i].1),
            Err(_) => None,
        }
    }

    /// Whether `key` is present.
    #[inline]
    pub fn contains_key(&self, key: &K) -> bool {
        self.position(key).is_ok()
    }

    /// Inserts `key → value`, returning the previous value if any.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        match self.position(&key) {
            Ok(i) => Some(std::mem::replace(&mut self.entries[i].1, value)),
            Err(i) => {
                self.entries.insert(i, (key, value));
                None
            }
        }
    }

    /// Removes `key`, returning its value if it was present.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        match self.position(key) {
            Ok(i) => Some(self.entries.remove(i).1),
            Err(_) => None,
        }
    }

    /// The value for `key`, inserting `default()` first if absent
    /// (`BTreeMap::entry(k).or_insert_with(f)` equivalent).
    pub fn or_insert_with(&mut self, key: K, default: impl FnOnce() -> V) -> &mut V {
        let i = match self.position(&key) {
            Ok(i) => i,
            Err(i) => {
                self.entries.insert(i, (key, default()));
                i
            }
        };
        &mut self.entries[i].1
    }

    /// Entries in ascending key order.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        self.entries.iter().map(|(k, v)| (k, v))
    }

    /// Mutable values in ascending key order.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (&K, &mut V)> {
        self.entries.iter_mut().map(|(k, v)| (&*k, v))
    }

    /// Keys in ascending order.
    pub fn keys(&self) -> impl Iterator<Item = &K> {
        self.entries.iter().map(|(k, _)| k)
    }

    /// Values in ascending key order.
    pub fn values(&self) -> impl Iterator<Item = &V> {
        self.entries.iter().map(|(_, v)| v)
    }

    /// Keeps only entries for which the predicate holds.
    pub fn retain(&mut self, mut pred: impl FnMut(&K, &mut V) -> bool) {
        self.entries.retain_mut(|(k, v)| pred(k, v));
    }
}

/// A set stored as a single sorted vector. See [`FlatMap`] for the
/// layout/complexity trade-off; iteration is ascending, matching
/// `BTreeSet`.
#[derive(Debug, Clone, Default)]
pub struct FlatSet<K> {
    items: Vec<K>,
}

impl<K: Ord + Copy> FlatSet<K> {
    /// An empty set (no allocation until the first insert).
    pub fn new() -> Self {
        FlatSet { items: Vec::new() }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Whether `key` is a member.
    #[inline]
    pub fn contains(&self, key: &K) -> bool {
        self.items.binary_search(key).is_ok()
    }

    /// Inserts `key`; returns `true` if it was newly added.
    pub fn insert(&mut self, key: K) -> bool {
        match self.items.binary_search(&key) {
            Ok(_) => false,
            Err(i) => {
                self.items.insert(i, key);
                true
            }
        }
    }

    /// Removes `key`; returns `true` if it was present.
    pub fn remove(&mut self, key: &K) -> bool {
        match self.items.binary_search(key) {
            Ok(i) => {
                self.items.remove(i);
                true
            }
            Err(_) => false,
        }
    }

    /// Elements in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = &K> {
        self.items.iter()
    }

    /// Removes all elements, keeping capacity.
    pub fn clear(&mut self) {
        self.items.clear();
    }
}

/// Splits the symmetric difference of two sorted, deduplicated id slices
/// into `(adds, removes)`: ids present in `new` but not `old`, and ids
/// present in `old` but not `new`. One O(|old| + |new|) merge walk — this
/// is the result-delta primitive of the standing-query repair path, where
/// `old` is a subscriber's acknowledged view and `new` the freshly repaired
/// answer.
pub fn diff_sorted(old: &[NodeId], new: &[NodeId]) -> (Vec<NodeId>, Vec<NodeId>) {
    debug_assert!(old.windows(2).all(|w| w[0] < w[1]), "old must be sorted");
    debug_assert!(new.windows(2).all(|w| w[0] < w[1]), "new must be sorted");
    let mut adds = Vec::new();
    let mut removes = Vec::new();
    let (mut i, mut j) = (0, 0);
    while i < old.len() && j < new.len() {
        match old[i].cmp(&new[j]) {
            std::cmp::Ordering::Equal => {
                i += 1;
                j += 1;
            }
            std::cmp::Ordering::Less => {
                removes.push(old[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                adds.push(new[j]);
                j += 1;
            }
        }
    }
    removes.extend_from_slice(&old[i..]);
    adds.extend_from_slice(&new[j..]);
    (adds, removes)
}

/// Applies a `(adds, removes)` delta to a sorted view in place, preserving
/// sortedness. Adds and removes are set operations (idempotent), so a delta
/// applied to the exact base it was computed against reproduces the new
/// set.
pub fn apply_diff_sorted(view: &mut Vec<NodeId>, adds: &[NodeId], removes: &[NodeId]) {
    for &r in removes {
        if let Ok(i) = view.binary_search(&r) {
            view.remove(i);
        }
    }
    for &a in adds {
        if let Err(i) = view.binary_search(&a) {
            view.insert(i, a);
        }
    }
}

/// Merges pairwise-disjoint runs of ids into one ascending list in linear
/// time: each id sets its bit in a bitset sized to the largest id, and the
/// set bits are read back in order. This costs O(Σ|run| + max id / 64),
/// where concatenating and sorting costs O(m log m). It is how a query
/// coordinator combines the per-cluster answers of a convergecast: the
/// clusters partition the nodes, so their runs are disjoint by
/// construction. Debug builds assert that no id appears twice.
pub fn merge_runs<'a>(runs: impl IntoIterator<Item = &'a [NodeId]>) -> Vec<NodeId> {
    let mut words: Vec<u64> = Vec::new();
    let mut len = 0;
    for run in runs {
        for &id in run {
            let (w, bit) = (id / 64, 1u64 << (id % 64));
            if w >= words.len() {
                words.resize(w + 1, 0);
            }
            debug_assert!(words[w] & bit == 0, "id {id} appears in two runs");
            words[w] |= bit;
            len += 1;
        }
    }
    let mut out = Vec::with_capacity(len);
    for (w, &word) in words.iter().enumerate() {
        let mut bits = word;
        while bits != 0 {
            out.push(w * 64 + bits.trailing_zeros() as usize);
            bits &= bits - 1;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{BTreeMap, BTreeSet};

    fn merged(runs: &[&[NodeId]]) -> Vec<NodeId> {
        merge_runs(runs.iter().copied())
    }

    #[test]
    fn merge_runs_of_nothing_is_empty() {
        assert_eq!(merged(&[]), Vec::<NodeId>::new());
        assert_eq!(merged(&[&[], &[]]), Vec::<NodeId>::new());
    }

    #[test]
    fn merge_runs_keeps_a_single_run_and_skips_empty_ones() {
        assert_eq!(merged(&[&[2, 5, 9]]), vec![2, 5, 9]);
        assert_eq!(merged(&[&[], &[2, 5, 9], &[]]), vec![2, 5, 9]);
    }

    #[test]
    fn merge_runs_interleaves_across_word_boundaries() {
        // Ids on both sides of 64 and 128, a largest id (199) that is not
        // the last bit of its word, and runs that interleave.
        let runs: [&[NodeId]; 4] = [&[0, 63, 130], &[1, 64, 199], &[127, 128], &[62, 65]];
        assert_eq!(
            merged(&runs),
            vec![0, 1, 62, 63, 64, 65, 127, 128, 130, 199]
        );
        // Runs arriving in any order, each sorted or not, merge alike.
        let rev: [&[NodeId]; 4] = [&[65, 62], &[128, 127], &[199, 64, 1], &[130, 63, 0]];
        assert_eq!(merged(&rev), merged(&runs));
    }

    #[test]
    fn merge_runs_equals_sort_of_the_concatenation() {
        // Deal a scrambled permutation of 0..n (n = 301, not a multiple
        // of 64) into uneven runs.
        let n = 301;
        let mut ids: Vec<NodeId> = (0..n).collect();
        let mut x: u64 = 0x9E3779B97F4A7C15;
        for i in (1..n).rev() {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ids.swap(i, (x >> 33) as usize % (i + 1));
        }
        let runs: Vec<&[NodeId]> = ids[..250].chunks(37).collect();
        let mut expect = ids[..250].to_vec();
        expect.sort_unstable();
        assert_eq!(merge_runs(runs), expect);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "appears in two runs")]
    fn merge_runs_rejects_overlapping_runs_in_debug_builds() {
        merged(&[&[3, 70], &[70]]);
    }

    #[test]
    fn node_table_round_trips_ids() {
        let table = NodeTable::new(5);
        assert_eq!(table.len(), 5);
        for id in 0..5 {
            assert_eq!(table.id(table.handle(id)), id);
        }
        let ids: Vec<_> = table.handles().map(|h| table.id(h)).collect();
        assert_eq!(ids, vec![0, 1, 2, 3, 4]);
        assert_eq!(table.column(0u8).len(), 5);
    }

    #[test]
    fn handles_order_like_ids() {
        let table = NodeTable::new(10);
        assert!(table.handle(3) < table.handle(7));
        assert_eq!(table.handle(4), table.handle(4));
    }

    #[test]
    fn flat_map_matches_btreemap_semantics() {
        let mut flat: FlatMap<u32, i64> = FlatMap::new();
        let mut tree: BTreeMap<u32, i64> = BTreeMap::new();
        // Deterministic scrambled workload of inserts/removes/updates.
        let mut x: u64 = 0x243F6A8885A308D3;
        for step in 0..500 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let key = (x >> 33) as u32 % 64;
            match step % 4 {
                0 | 1 => {
                    assert_eq!(flat.insert(key, step), tree.insert(key, step));
                }
                2 => {
                    assert_eq!(flat.remove(&key), tree.remove(&key));
                }
                _ => {
                    *flat.or_insert_with(key, || -1) += 1;
                    *tree.entry(key).or_insert(-1) += 1;
                }
            }
            assert_eq!(flat.get(&key), tree.get(&key));
            assert_eq!(flat.len(), tree.len());
        }
        // Iteration order must be identical (ascending by key).
        let a: Vec<_> = flat.iter().map(|(k, v)| (*k, *v)).collect();
        let b: Vec<_> = tree.iter().map(|(k, v)| (*k, *v)).collect();
        assert_eq!(a, b);
        let ka: Vec<_> = flat.keys().copied().collect();
        let kb: Vec<_> = tree.keys().copied().collect();
        assert_eq!(ka, kb);
    }

    #[test]
    fn flat_map_mutation_helpers() {
        let mut m: FlatMap<u8, Vec<u8>> = FlatMap::new();
        m.or_insert_with(2, Vec::new).push(9);
        m.or_insert_with(2, Vec::new).push(8);
        assert_eq!(m.get(&2), Some(&vec![9, 8]));
        *m.get_mut(&2).unwrap() = vec![7];
        assert!(m.contains_key(&2));
        m.insert(1, vec![1]);
        m.insert(3, vec![3]);
        m.retain(|k, _| *k != 2);
        let keys: Vec<_> = m.keys().copied().collect();
        assert_eq!(keys, vec![1, 3]);
        for (_, v) in m.iter_mut() {
            v.push(0);
        }
        assert_eq!(m.values().map(Vec::len).sum::<usize>(), 4);
        m.clear();
        assert!(m.is_empty());
    }

    #[test]
    fn flat_set_matches_btreeset_semantics() {
        let mut flat: FlatSet<u32> = FlatSet::new();
        let mut tree: BTreeSet<u32> = BTreeSet::new();
        let mut x: u64 = 0x13198A2E03707344;
        for step in 0..500 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let key = (x >> 33) as u32 % 48;
            if step % 3 == 0 {
                assert_eq!(flat.remove(&key), tree.remove(&key));
            } else {
                assert_eq!(flat.insert(key), tree.insert(key));
            }
            assert_eq!(flat.contains(&key), tree.contains(&key));
            assert_eq!(flat.len(), tree.len());
        }
        let a: Vec<_> = flat.iter().copied().collect();
        let b: Vec<_> = tree.iter().copied().collect();
        assert_eq!(a, b);
        flat.clear();
        assert!(flat.is_empty());
    }
}
