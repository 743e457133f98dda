//! The hash backend: a flat hash map with hash-based slice indexes.
//!
//! A view is a hash map from key tuples (`Vec<Value>`) to aggregate values ([`Number`]).
//! Trigger statements with loop variables need to enumerate the entries of a map that
//! match a *partially* bound key ("give me all `(nation, cid)` entries with this
//! nation"); to keep that proportional to the number of matching entries — rather than to
//! the size of the map, which would silently reintroduce a dependence on the database
//! size — the storage maintains secondary indexes for exactly the key-position patterns
//! the compiled program needs. Index maintenance is a constant amount of extra work per
//! write.
//!
//! This is the default [`ViewStorage`](crate::storage::ViewStorage) backend: O(1) probes
//! and writes, and the backend the lowered executor's zero-allocation steady state was
//! tuned on. Its limitation is structural: hash indexes serve exactly the patterns
//! registered for them, so every additional pattern costs a full parallel index — the
//! trade-off the ordered backend inverts.

use std::collections::{HashMap, HashSet};

use dbring_algebra::{Number, Semiring};
use dbring_relations::Value;

use super::{StorageFootprint, ViewStorage};

/// One secondary index: the values at a pattern's key positions, mapped to the set of
/// full keys having those values.
type SliceIndex = HashMap<Vec<Value>, HashSet<Vec<Value>>>;

/// One materialized map: key tuples of a fixed arity mapping to aggregate values, plus the
/// slice indexes registered for it.
#[derive(Clone, Debug, Default)]
pub struct HashViewStorage {
    key_arity: usize,
    data: HashMap<Vec<Value>, Number>,
    /// For each registered pattern (a sorted list of key positions), the index over it.
    indexes: HashMap<Vec<usize>, SliceIndex>,
}

impl HashViewStorage {
    /// Iterates over all `(key, value)` entries in arbitrary order.
    pub fn iter(&self) -> impl Iterator<Item = (&Vec<Value>, &Number)> {
        self.data.iter()
    }

    /// The registered index patterns (sorted position lists).
    pub fn index_patterns(&self) -> impl Iterator<Item = &Vec<usize>> {
        self.indexes.keys()
    }

    /// Adds `delta` to an *existing* entry, pruning it (with index removal) when the sum
    /// reaches zero; returns `false` without touching anything if the entry is absent.
    /// Shared by `add` and `add_ref` so the accumulate / prune / index-maintenance
    /// invariants live in one place.
    fn accumulate_existing(&mut self, key: &[Value], delta: Number) -> bool {
        let Some(value) = self.data.get_mut(key) else {
            return false;
        };
        let sum = value.add(&delta);
        if sum.is_zero() {
            let (owned, _) = self
                .data
                .remove_entry(key)
                .expect("entry present: just read");
            Self::index_remove(&mut self.indexes, &owned);
        } else {
            *value = sum;
        }
        true
    }

    /// Records a newly inserted key in every index.
    fn index_insert(indexes: &mut HashMap<Vec<usize>, SliceIndex>, key: &[Value]) {
        for (pattern, index) in indexes.iter_mut() {
            let slice_key: Vec<Value> = pattern.iter().map(|&i| key[i].clone()).collect();
            index.entry(slice_key).or_default().insert(key.to_vec());
        }
    }

    /// Removes a pruned key from every index.
    fn index_remove(indexes: &mut HashMap<Vec<usize>, SliceIndex>, key: &[Value]) {
        for (pattern, index) in indexes.iter_mut() {
            let slice_key: Vec<Value> = pattern.iter().map(|&i| key[i].clone()).collect();
            if let Some(set) = index.get_mut(&slice_key) {
                set.remove(key);
                if set.is_empty() {
                    index.remove(&slice_key);
                }
            }
        }
    }
}

impl ViewStorage for HashViewStorage {
    const BACKEND: super::StorageBackend = super::StorageBackend::Hash;

    fn new(key_arity: usize) -> Self {
        HashViewStorage {
            key_arity,
            data: HashMap::new(),
            indexes: HashMap::new(),
        }
    }

    fn key_arity(&self) -> usize {
        self.key_arity
    }

    fn len(&self) -> usize {
        self.data.len()
    }

    fn get(&self, key: &[Value]) -> Number {
        self.data.get(key).copied().unwrap_or(Number::Int(0))
    }

    /// Adds `delta` to the value under `key`, maintaining indexes and pruning zeros.
    ///
    /// The key is consumed; it is cloned only for index maintenance on first insertion
    /// (an update of an existing entry, or any write to an unindexed map, never clones).
    fn add(&mut self, key: Vec<Value>, delta: Number) {
        assert_eq!(key.len(), self.key_arity, "key arity mismatch");
        if delta.is_zero() {
            return;
        }
        if self.accumulate_existing(&key, delta) {
            return;
        }
        Self::index_insert(&mut self.indexes, &key);
        self.data.insert(key, delta);
    }

    /// Adds `delta` to the value under `key`, cloning the key *only* when the entry does
    /// not already exist — the steady-state write path of the executor performs no heap
    /// allocation at all.
    fn add_ref(&mut self, key: &[Value], delta: Number) {
        assert_eq!(key.len(), self.key_arity, "key arity mismatch");
        if delta.is_zero() {
            return;
        }
        if self.accumulate_existing(key, delta) {
            return;
        }
        let owned: Vec<Value> = key.to_vec();
        Self::index_insert(&mut self.indexes, &owned);
        self.data.insert(owned, delta);
    }

    /// Registers a slice index over the given key positions (deduplicated, ignored if the
    /// pattern covers all positions or none). Entries already present are backfilled, so
    /// an index registered after writes serves exactly the same matches as one registered
    /// up front.
    fn register_index(&mut self, mut positions: Vec<usize>) {
        positions.sort_unstable();
        positions.dedup();
        if positions.is_empty() || positions.len() >= self.key_arity {
            return;
        }
        if self.indexes.contains_key(&positions) {
            return;
        }
        let mut index = SliceIndex::new();
        for key in self.data.keys() {
            let slice_key: Vec<Value> = positions.iter().map(|&i| key[i].clone()).collect();
            index.entry(slice_key).or_default().insert(key.clone());
        }
        self.indexes.insert(positions, index);
    }

    fn for_each(&self, mut visit: impl FnMut(&[Value], Number)) {
        for (k, v) in &self.data {
            visit(k, *v);
        }
    }

    /// Visits every entry whose key matches `values` at the given positions, without
    /// materializing the matches (the executor's allocation-free enumeration path).
    ///
    /// Resolution order: empty pattern → all entries, registered index → index probe,
    /// otherwise a full scan. Positions must be sorted.
    fn for_each_slice(
        &self,
        positions: &[usize],
        values: &[Value],
        mut visit: impl FnMut(&[Value], Number),
    ) {
        assert_eq!(positions.len(), values.len());
        if positions.is_empty() {
            for (k, v) in &self.data {
                visit(k, *v);
            }
            return;
        }
        if let Some(index) = self.indexes.get(positions) {
            if let Some(keys) = index.get(values) {
                for k in keys {
                    let (k, v) = self
                        .data
                        .get_key_value(k)
                        .expect("index entry without a primary entry");
                    visit(k, *v);
                }
            }
            return;
        }
        self.for_each_slice_scan(positions, values, visit);
    }

    /// The staged-ingest landing pass: one hash lookup per key serves both the
    /// pre-image capture and the accumulate/prune/insert — the same write semantics
    /// as the default `add_ref` loop, minus the second probe the trait default pays.
    fn apply_sorted_logged(
        &mut self,
        deltas: &[(&[Value], Number)],
        mut log: impl FnMut(&[Value], Number),
    ) {
        debug_assert!(
            deltas.windows(2).all(|w| w[0].0 < w[1].0),
            "apply_sorted_logged requires strictly ascending keys"
        );
        for (key, delta) in deltas {
            assert_eq!(key.len(), self.key_arity, "key arity mismatch");
            match self.data.get_mut(*key) {
                Some(value) => {
                    log(key, *value);
                    if delta.is_zero() {
                        continue;
                    }
                    let sum = value.add(delta);
                    if sum.is_zero() {
                        let (owned, _) = self
                            .data
                            .remove_entry(*key)
                            .expect("entry present: just read");
                        Self::index_remove(&mut self.indexes, &owned);
                    } else {
                        *value = sum;
                    }
                }
                None => {
                    log(key, Number::Int(0));
                    if delta.is_zero() {
                        continue;
                    }
                    let owned: Vec<Value> = key.to_vec();
                    Self::index_insert(&mut self.indexes, &owned);
                    self.data.insert(owned, *delta);
                }
            }
        }
    }

    fn footprint(&self) -> StorageFootprint {
        StorageFootprint {
            entries: self.data.len(),
            indexes: self.indexes.len(),
            index_entries: self
                .indexes
                .values()
                .map(|index| index.values().map(HashSet::len).sum::<usize>())
                .sum(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::slice_entries;
    use super::*;

    fn key(vals: &[i64]) -> Vec<Value> {
        vals.iter().map(|&v| Value::int(v)).collect()
    }

    fn slice(
        m: &HashViewStorage,
        positions: &[usize],
        values: &[Value],
    ) -> Vec<(Vec<Value>, Number)> {
        slice_entries(m, positions, values)
    }

    #[test]
    fn get_add_and_prune() {
        let mut m = HashViewStorage::new(2);
        assert_eq!(m.get(&key(&[1, 2])), Number::Int(0));
        m.add(key(&[1, 2]), Number::Int(5));
        m.add(key(&[1, 3]), Number::Int(7));
        assert_eq!(m.get(&key(&[1, 2])), Number::Int(5));
        assert_eq!(m.len(), 2);
        m.add(key(&[1, 2]), Number::Int(-5));
        assert_eq!(m.get(&key(&[1, 2])), Number::Int(0));
        assert_eq!(m.len(), 1);
        assert!(!m.is_empty());
        m.add(key(&[1, 3]), Number::Int(0));
        assert_eq!(m.len(), 1);
        assert_eq!(m.key_arity(), 2);
    }

    #[test]
    fn set_overwrites() {
        let mut m = HashViewStorage::new(1);
        m.set(key(&[1]), Number::Int(10));
        assert_eq!(m.get(&key(&[1])), Number::Int(10));
        m.set(key(&[1]), Number::Int(3));
        assert_eq!(m.get(&key(&[1])), Number::Int(3));
        m.set(key(&[1]), Number::Int(0));
        assert!(m.is_empty());
    }

    #[test]
    #[should_panic]
    fn arity_mismatch_panics() {
        let mut m = HashViewStorage::new(2);
        m.add(key(&[1]), Number::Int(1));
    }

    #[test]
    fn slices_with_and_without_index() {
        let mut indexed = HashViewStorage::new(2);
        indexed.register_index(vec![0]);
        let mut scanned = HashViewStorage::new(2);
        for (a, b, v) in [(1, 10, 2), (1, 11, 3), (2, 10, 4), (2, 12, 5)] {
            indexed.add(key(&[a, b]), Number::Int(v));
            scanned.add(key(&[a, b]), Number::Int(v));
        }
        for store in [&indexed, &scanned] {
            let mut hits: Vec<i64> = slice(store, &[0], &key(&[1]))
                .iter()
                .map(|(_, v)| v.as_i64().unwrap())
                .collect();
            hits.sort_unstable();
            assert_eq!(hits, vec![2, 3]);
            assert!(slice(store, &[0], &key(&[9])).is_empty());
            // Slicing on the second position works too (scan fallback for `indexed`).
            assert_eq!(slice(store, &[1], &key(&[10])).len(), 2);
            // Empty pattern = all entries.
            assert_eq!(slice(store, &[], &[]).len(), 4);
        }
    }

    #[test]
    fn index_tracks_removals() {
        let mut m = HashViewStorage::new(2);
        m.register_index(vec![0]);
        m.add(key(&[1, 10]), Number::Int(2));
        m.add(key(&[1, 11]), Number::Int(3));
        assert_eq!(slice(&m, &[0], &key(&[1])).len(), 2);
        m.add(key(&[1, 10]), Number::Int(-2));
        assert_eq!(slice(&m, &[0], &key(&[1])).len(), 1);
        m.add(key(&[1, 11]), Number::Int(-3));
        assert!(slice(&m, &[0], &key(&[1])).is_empty());
        // Re-inserting after pruning works.
        m.add(key(&[1, 10]), Number::Int(9));
        assert_eq!(slice(&m, &[0], &key(&[1])).len(), 1);
    }

    #[test]
    fn degenerate_index_patterns_are_ignored() {
        let mut m = HashViewStorage::new(2);
        m.register_index(vec![]);
        m.register_index(vec![0, 1]);
        m.register_index(vec![1, 0, 1]);
        assert_eq!(m.index_patterns().count(), 0);
        m.register_index(vec![1]);
        assert_eq!(m.index_patterns().count(), 1);
    }

    /// Regression: registering an index *after* entries exist used to leave the index
    /// empty, silently dropping every pre-existing entry from subsequent enumerations.
    /// Registration must backfill.
    #[test]
    fn late_index_registration_backfills_existing_entries() {
        let mut m = HashViewStorage::new(2);
        m.add(key(&[1, 10]), Number::Int(2));
        m.add(key(&[1, 11]), Number::Int(3));
        m.add(key(&[2, 10]), Number::Int(4));
        m.register_index(vec![0]);
        assert_eq!(slice(&m, &[0], &key(&[1])).len(), 2);
        assert_eq!(slice(&m, &[0], &key(&[2])).len(), 1);
        // The backfilled index keeps tracking later writes and prunes.
        m.add(key(&[1, 12]), Number::Int(1));
        assert_eq!(slice(&m, &[0], &key(&[1])).len(), 3);
        m.add(key(&[1, 10]), Number::Int(-2));
        assert_eq!(slice(&m, &[0], &key(&[1])).len(), 2);
        // Re-registering the same pattern is a no-op (the live index survives).
        m.register_index(vec![0]);
        assert_eq!(slice(&m, &[0], &key(&[1])).len(), 2);
        assert_eq!(m.footprint().indexes, 1);
        assert_eq!(m.footprint().index_entries, m.len());
    }

    #[test]
    fn add_ref_matches_add_including_index_maintenance() {
        let mut by_ref = HashViewStorage::new(2);
        let mut by_value = HashViewStorage::new(2);
        for m in [&mut by_ref, &mut by_value] {
            m.register_index(vec![0]);
        }
        let trace: &[(&[i64], i64)] = &[
            (&[1, 10], 2),
            (&[1, 11], 3),
            (&[1, 10], -2), // prunes
            (&[2, 10], 4),
            (&[1, 10], 7), // re-inserts after pruning
            (&[2, 10], -4),
        ];
        for (k, d) in trace {
            by_ref.add_ref(&key(k), Number::Int(*d));
            by_value.add(key(k), Number::Int(*d));
        }
        assert_eq!(by_ref.len(), by_value.len());
        for (k, v) in by_value.iter() {
            assert_eq!(by_ref.get(k), *v);
        }
        assert_eq!(slice(&by_ref, &[0], &key(&[1])).len(), 2);
        assert_eq!(slice(&by_ref, &[0], &key(&[2])).len(), 0);
        // Zero deltas are ignored on both paths.
        by_ref.add_ref(&key(&[5, 5]), Number::Int(0));
        assert_eq!(by_ref.get(&key(&[5, 5])), Number::Int(0));
    }

    #[test]
    fn for_each_slice_agrees_with_materialized_slices() {
        let mut m = HashViewStorage::new(2);
        m.register_index(vec![0]);
        for (a, b, v) in [(1, 10, 2), (1, 11, 3), (2, 10, 4)] {
            m.add(key(&[a, b]), Number::Int(v));
        }
        for (positions, values) in [
            (vec![0], key(&[1])),
            (vec![1], key(&[10])), // scan fallback
            (vec![], vec![]),      // all entries
            (vec![0], key(&[9])),  // no matches
        ] {
            let mut visited = 0usize;
            let mut sum = 0i64;
            m.for_each_slice(&positions, &values, |_, v| {
                visited += 1;
                sum += v.as_i64().unwrap();
            });
            let expected = slice(&m, &positions, &values);
            assert_eq!(visited, expected.len());
            assert_eq!(
                sum,
                expected
                    .iter()
                    .map(|(_, v)| v.as_i64().unwrap())
                    .sum::<i64>()
            );
        }
    }

    #[test]
    fn float_values_are_supported() {
        let mut m = HashViewStorage::new(1);
        m.add(key(&[1]), Number::Float(2.5));
        m.add(key(&[1]), Number::Int(1));
        assert_eq!(m.get(&key(&[1])), Number::Float(3.5));
    }

    #[test]
    fn footprint_counts_entries_and_index_entries() {
        let mut m = HashViewStorage::new(2);
        m.register_index(vec![0]);
        m.register_index(vec![1]);
        for (a, b) in [(1, 10), (1, 11), (2, 10)] {
            m.add(key(&[a, b]), Number::Int(1));
        }
        let fp = m.footprint();
        assert_eq!(fp.entries, 3);
        assert_eq!(fp.indexes, 2);
        assert_eq!(fp.index_entries, 6); // every entry appears once per index
    }
}
