//! The ordered backend: a `BTreeMap` keyed on the full tuple, with sorted-prefix range
//! scans standing in for slice indexes.
//!
//! Keys sort lexicographically, so every enumeration over a *prefix* pattern (key
//! positions `0..k`) is a contiguous range scan of the primary structure — no secondary
//! index, no index maintenance on writes, and it works even for patterns nobody
//! registered. A registered *non-prefix* pattern is served by a permuted-key index: an
//! ordered set holding each key re-ordered so the pattern's positions come first, which
//! turns the pattern into a prefix of the permuted space and makes the same range-scan
//! trick apply (the full key is reconstructed through the inverse permutation before it
//! reaches the visitor, so callers never see the permuted layout). Unregistered
//! non-prefix patterns fall back to a full scan, exactly like the hash backend.
//!
//! Probes and writes are O(log n) against the hash backend's O(1) — the price paid for
//! matching entries being physically adjacent, which is what sort-merge-style batched
//! maintenance and leapfrog-triejoin-style multiway joins (Veldhuizen) want underneath
//! them, and what makes an mmap/columnar spill-to-disk variant practical later.

use std::collections::{BTreeMap, BTreeSet};
use std::ops::Bound;

use dbring_algebra::{Number, Semiring};
use dbring_relations::Value;

use super::{StorageFootprint, ViewStorage};

/// A secondary ordered index for one registered non-prefix pattern: the keys of the map,
/// permuted so the pattern's positions come first.
#[derive(Clone, Debug)]
struct PermutedIndex {
    /// `perm[j]` is the original key position stored at permuted slot `j`: the pattern's
    /// positions in ascending order, then the remaining positions in ascending order.
    perm: Vec<usize>,
    /// The permuted keys, ordered — entries matching a pattern binding form a contiguous
    /// range under the binding as a prefix.
    keys: BTreeSet<Vec<Value>>,
}

impl PermutedIndex {
    fn permute(&self, key: &[Value]) -> Vec<Value> {
        self.perm.iter().map(|&i| key[i].clone()).collect()
    }

    fn insert(&mut self, key: &[Value]) {
        self.keys.insert(self.permute(key));
    }

    fn remove(&mut self, key: &[Value]) {
        self.keys.remove(&self.permute(key));
    }
}

/// One materialized map over ordered storage: a `BTreeMap` from full key tuples to
/// aggregate values, plus permuted-key indexes for the registered non-prefix patterns.
#[derive(Clone, Debug, Default)]
pub struct OrderedViewStorage {
    key_arity: usize,
    data: BTreeMap<Vec<Value>, Number>,
    /// Permuted indexes, one per registered non-prefix pattern (prefix patterns need
    /// none: the primary structure already serves them).
    indexes: BTreeMap<Vec<usize>, PermutedIndex>,
}

/// Whether sorted positions form the contiguous prefix `0..positions.len()`.
fn is_prefix(positions: &[usize]) -> bool {
    positions.iter().enumerate().all(|(i, &p)| i == p)
}

impl OrderedViewStorage {
    /// Iterates over all `(key, value)` entries in ascending key order.
    pub fn iter(&self) -> impl Iterator<Item = (&Vec<Value>, &Number)> {
        self.data.iter()
    }

    /// The patterns served by a permuted index (prefix patterns never appear here — the
    /// primary order serves them directly).
    pub fn index_patterns(&self) -> impl Iterator<Item = &Vec<usize>> {
        self.indexes.keys()
    }

    /// Accumulates `delta` into an existing entry, pruning it (and its index entries)
    /// when the sum reaches zero; returns `false` untouched if the entry is absent.
    fn accumulate_existing(&mut self, key: &[Value], delta: Number) -> bool {
        let Some(value) = self.data.get_mut(key) else {
            return false;
        };
        let sum = value.add(&delta);
        if sum.is_zero() {
            self.data.remove(key);
            for index in self.indexes.values_mut() {
                index.remove(key);
            }
        } else {
            *value = sum;
        }
        true
    }
}

impl ViewStorage for OrderedViewStorage {
    const BACKEND: super::StorageBackend = super::StorageBackend::Ordered;

    fn new(key_arity: usize) -> Self {
        OrderedViewStorage {
            key_arity,
            data: BTreeMap::new(),
            indexes: BTreeMap::new(),
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

    fn add(&mut self, key: Vec<Value>, delta: Number) {
        assert_eq!(key.len(), self.key_arity, "key arity mismatch");
        if delta.is_zero() {
            return;
        }
        if self.accumulate_existing(&key, delta) {
            return;
        }
        for index in self.indexes.values_mut() {
            index.insert(&key);
        }
        self.data.insert(key, delta);
    }

    fn add_ref(&mut self, key: &[Value], delta: Number) {
        assert_eq!(key.len(), self.key_arity, "key arity mismatch");
        if delta.is_zero() {
            return;
        }
        if self.accumulate_existing(key, delta) {
            return;
        }
        for index in self.indexes.values_mut() {
            index.insert(key);
        }
        self.data.insert(key.to_vec(), delta);
    }

    /// Accumulates a strictly-ascending delta batch with one **sequential merge pass**:
    /// the sorted primary structure and the sorted batch are zipped into a fresh map,
    /// summing where keys collide, pruning zero sums (with index removal) and inserting
    /// new keys (with index insertion) as the merge encounters them. Cost O(n + k) plus
    /// the bulk rebuild — the batch counterpart of the range scans the primary sort
    /// order already gives enumeration.
    ///
    /// Small batches (k ≪ n) fall back to the per-key `add_ref` loop: rebuilding an
    /// n-entry tree to land a handful of deltas would waste the merge.
    fn apply_sorted(&mut self, deltas: &[(&[Value], Number)]) {
        debug_assert!(
            deltas.windows(2).all(|w| w[0].0 < w[1].0),
            "apply_sorted requires strictly ascending keys"
        );
        // Merge only when the batch is within ~a factor of the map size; otherwise the
        // O(k log n) point path beats the O(n + k) rebuild.
        if deltas.len() * 8 < self.data.len() {
            for (key, delta) in deltas {
                self.add_ref(key, *delta);
            }
            return;
        }
        let key_arity = self.key_arity;
        let old = std::mem::take(&mut self.data);
        let mut merged: Vec<(Vec<Value>, Number)> = Vec::with_capacity(old.len() + deltas.len());
        let mut di = 0usize;
        let insert_new = |indexes: &mut BTreeMap<Vec<usize>, PermutedIndex>,
                          merged: &mut Vec<(Vec<Value>, Number)>,
                          key: &[Value],
                          delta: Number| {
            assert_eq!(key.len(), key_arity, "key arity mismatch");
            if delta.is_zero() {
                return;
            }
            for index in indexes.values_mut() {
                index.insert(key);
            }
            merged.push((key.to_vec(), delta));
        };
        for (key, value) in old {
            while di < deltas.len() && deltas[di].0 < key.as_slice() {
                insert_new(&mut self.indexes, &mut merged, deltas[di].0, deltas[di].1);
                di += 1;
            }
            if di < deltas.len() && deltas[di].0 == key.as_slice() {
                let sum = value.add(&deltas[di].1);
                di += 1;
                if sum.is_zero() {
                    for index in self.indexes.values_mut() {
                        index.remove(&key);
                    }
                } else {
                    merged.push((key, sum));
                }
            } else {
                merged.push((key, value));
            }
        }
        for (key, delta) in &deltas[di..] {
            insert_new(&mut self.indexes, &mut merged, key, *delta);
        }
        // `merged` is ascending by construction, so the bulk build is a linear pass.
        self.data = merged.into_iter().collect();
    }

    /// The staged-ingest landing pass: pre-images are captured inside the same
    /// merge (or, for small runs, the same tree descent) that lands the write, so
    /// staging pays no second lookup per key. Write semantics are exactly
    /// [`apply_sorted`](ViewStorage::apply_sorted)'s, including the small-batch
    /// point-path fallback and its threshold.
    fn apply_sorted_logged(
        &mut self,
        deltas: &[(&[Value], Number)],
        mut log: impl FnMut(&[Value], Number),
    ) {
        debug_assert!(
            deltas.windows(2).all(|w| w[0].0 < w[1].0),
            "apply_sorted_logged requires strictly ascending keys"
        );
        if deltas.len() * 8 < self.data.len() {
            // Point path: one descent per key serves both capture and write.
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
                            self.data.remove(*key);
                            for index in self.indexes.values_mut() {
                                index.remove(key);
                            }
                        } else {
                            *value = sum;
                        }
                    }
                    None => {
                        log(key, Number::Int(0));
                        if delta.is_zero() {
                            continue;
                        }
                        for index in self.indexes.values_mut() {
                            index.insert(key);
                        }
                        self.data.insert(key.to_vec(), *delta);
                    }
                }
            }
            return;
        }
        // Merge path: the zip already visits every delta key — collisions log the
        // old value, fresh keys log zero.
        let key_arity = self.key_arity;
        let old = std::mem::take(&mut self.data);
        let mut merged: Vec<(Vec<Value>, Number)> = Vec::with_capacity(old.len() + deltas.len());
        let mut di = 0usize;
        let insert_new = |indexes: &mut BTreeMap<Vec<usize>, PermutedIndex>,
                          merged: &mut Vec<(Vec<Value>, Number)>,
                          key: &[Value],
                          delta: Number,
                          log: &mut dyn FnMut(&[Value], Number)| {
            assert_eq!(key.len(), key_arity, "key arity mismatch");
            log(key, Number::Int(0));
            if delta.is_zero() {
                return;
            }
            for index in indexes.values_mut() {
                index.insert(key);
            }
            merged.push((key.to_vec(), delta));
        };
        for (key, value) in old {
            while di < deltas.len() && deltas[di].0 < key.as_slice() {
                insert_new(
                    &mut self.indexes,
                    &mut merged,
                    deltas[di].0,
                    deltas[di].1,
                    &mut log,
                );
                di += 1;
            }
            if di < deltas.len() && deltas[di].0 == key.as_slice() {
                log(&key, value);
                let sum = value.add(&deltas[di].1);
                di += 1;
                if sum.is_zero() {
                    for index in self.indexes.values_mut() {
                        index.remove(&key);
                    }
                } else {
                    merged.push((key, sum));
                }
            } else {
                merged.push((key, value));
            }
        }
        for (key, delta) in &deltas[di..] {
            insert_new(&mut self.indexes, &mut merged, key, *delta, &mut log);
        }
        self.data = merged.into_iter().collect();
    }

    /// Registers a pattern. Degenerate patterns are ignored; *prefix* patterns are
    /// accepted but build no structure (the primary sort order already enumerates them
    /// via a range scan); non-prefix patterns get a permuted index, backfilled from the
    /// entries already present.
    fn register_index(&mut self, mut positions: Vec<usize>) {
        positions.sort_unstable();
        positions.dedup();
        if positions.is_empty() || positions.len() >= self.key_arity {
            return;
        }
        if is_prefix(&positions) || self.indexes.contains_key(&positions) {
            return;
        }
        let mut perm = positions.clone();
        perm.extend((0..self.key_arity).filter(|p| !positions.contains(p)));
        let mut index = PermutedIndex {
            perm,
            keys: BTreeSet::new(),
        };
        for key in self.data.keys() {
            index.insert(key);
        }
        self.indexes.insert(positions, index);
    }

    fn for_each(&self, mut visit: impl FnMut(&[Value], Number)) {
        for (k, v) in &self.data {
            visit(k, *v);
        }
    }

    /// Visits every entry whose key matches `values` at the given positions.
    ///
    /// Resolution order: empty pattern → all entries; prefix pattern (registered or not)
    /// → range scan of the primary structure; registered non-prefix pattern → range scan
    /// of its permuted index, reconstructing original-order keys into a scratch buffer
    /// and probing the primary map for each match's value (O(log n) per match — the
    /// trade-off for not duplicating values into every index, which would make each
    /// accumulate of an existing entry touch every index); otherwise a full scan.
    /// Positions must be sorted.
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
        // Range bounds borrow `values` as `&[Value]` (`Vec<Value>: Borrow<[Value]>`),
        // so the scans below allocate nothing for the start key.
        let from = (Bound::Included(values), Bound::Unbounded);
        if is_prefix(positions) {
            // Keys extending `values` sort directly after it and form a contiguous run.
            for (k, v) in self.data.range::<[Value], _>(from) {
                if !k.starts_with(values) {
                    break;
                }
                visit(k, *v);
            }
            return;
        }
        if let Some(index) = self.indexes.get(positions) {
            let mut full_key = vec![Value::Int(0); self.key_arity];
            for permuted in index.keys.range::<[Value], _>(from) {
                if !permuted.starts_with(values) {
                    break;
                }
                for (j, &original) in index.perm.iter().enumerate() {
                    full_key[original] = permuted[j].clone();
                }
                let value = self
                    .data
                    .get(&full_key)
                    .copied()
                    .expect("index entry without a primary entry");
                visit(&full_key, value);
            }
            return;
        }
        self.for_each_slice_scan(positions, values, visit);
    }

    fn footprint(&self) -> StorageFootprint {
        StorageFootprint {
            entries: self.data.len(),
            indexes: self.indexes.len(),
            index_entries: self.indexes.values().map(|i| i.keys.len()).sum(),
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
        m: &OrderedViewStorage,
        positions: &[usize],
        values: &[Value],
    ) -> Vec<(Vec<Value>, Number)> {
        slice_entries(m, positions, values)
    }

    #[test]
    fn get_add_and_prune() {
        let mut m = OrderedViewStorage::new(2);
        assert_eq!(m.get(&key(&[1, 2])), Number::Int(0));
        m.add(key(&[1, 2]), Number::Int(5));
        m.add(key(&[1, 3]), Number::Int(7));
        assert_eq!(m.get(&key(&[1, 2])), Number::Int(5));
        assert_eq!(m.len(), 2);
        m.add(key(&[1, 2]), Number::Int(-5));
        assert_eq!(m.get(&key(&[1, 2])), Number::Int(0));
        assert_eq!(m.len(), 1);
        m.add(key(&[1, 3]), Number::Int(0));
        assert_eq!(m.len(), 1);
        assert_eq!(m.key_arity(), 2);
        assert!(!m.is_empty());
    }

    #[test]
    #[should_panic]
    fn arity_mismatch_panics() {
        let mut m = OrderedViewStorage::new(2);
        m.add_ref(&key(&[1]), Number::Int(1));
    }

    #[test]
    fn prefix_patterns_range_scan_without_any_index() {
        let mut m = OrderedViewStorage::new(3);
        for (a, b, c) in [(1, 10, 100), (1, 10, 101), (1, 11, 100), (2, 10, 100)] {
            m.add(key(&[a, b, c]), Number::Int(1));
        }
        // No registration at all: prefix slices still cost only the matching range.
        assert_eq!(slice(&m, &[0], &key(&[1])).len(), 3);
        assert_eq!(slice(&m, &[0, 1], &key(&[1, 10])).len(), 2);
        assert_eq!(slice(&m, &[0, 1], &key(&[1, 12])).len(), 0);
        assert_eq!(slice(&m, &[], &[]).len(), 4);
        // Registering a prefix pattern builds no secondary structure.
        m.register_index(vec![0]);
        m.register_index(vec![0, 1]);
        assert_eq!(m.footprint().indexes, 0);
        assert_eq!(slice(&m, &[0], &key(&[1])).len(), 3);
    }

    #[test]
    fn prefix_scan_stops_at_the_end_of_the_matching_run() {
        let mut m = OrderedViewStorage::new(2);
        for (a, b) in [(1, 10), (2, 10), (2, 11), (3, 5)] {
            m.add(key(&[a, b]), Number::Int(1));
        }
        let hits = slice(&m, &[0], &key(&[2]));
        assert_eq!(hits.len(), 2);
        assert!(hits.iter().all(|(k, _)| k[0] == Value::int(2)));
    }

    #[test]
    fn non_prefix_patterns_use_a_permuted_index() {
        let mut m = OrderedViewStorage::new(2);
        m.register_index(vec![1]);
        for (a, b, v) in [(1, 10, 2), (1, 11, 3), (2, 10, 4), (2, 12, 5)] {
            m.add(key(&[a, b]), Number::Int(v));
        }
        assert_eq!(m.footprint().indexes, 1);
        assert_eq!(m.footprint().index_entries, 4);
        let mut hits: Vec<i64> = slice(&m, &[1], &key(&[10]))
            .iter()
            .map(|(_, v)| v.as_i64().unwrap())
            .collect();
        hits.sort_unstable();
        assert_eq!(hits, vec![2, 4]);
        // Keys reach the visitor in original position order.
        for (k, _) in slice(&m, &[1], &key(&[10])) {
            assert_eq!(k[1], Value::int(10));
        }
        // Pruning maintains the permuted index.
        m.add(key(&[1, 10]), Number::Int(-2));
        assert_eq!(slice(&m, &[1], &key(&[10])).len(), 1);
        assert_eq!(m.footprint().index_entries, 3);
        // Re-insertion after pruning works.
        m.add(key(&[1, 10]), Number::Int(9));
        assert_eq!(slice(&m, &[1], &key(&[10])).len(), 2);
    }

    #[test]
    fn unregistered_non_prefix_patterns_fall_back_to_scan() {
        let mut m = OrderedViewStorage::new(3);
        for (a, b, c) in [(1, 10, 7), (2, 11, 7), (3, 10, 8)] {
            m.add(key(&[a, b, c]), Number::Int(1));
        }
        assert_eq!(slice(&m, &[2], &key(&[7])).len(), 2);
        assert_eq!(slice(&m, &[1, 2], &key(&[10, 7])).len(), 1);
    }

    #[test]
    fn late_index_registration_backfills_existing_entries() {
        let mut m = OrderedViewStorage::new(2);
        m.add(key(&[1, 10]), Number::Int(2));
        m.add(key(&[2, 10]), Number::Int(3));
        m.add(key(&[3, 11]), Number::Int(4));
        m.register_index(vec![1]);
        assert_eq!(slice(&m, &[1], &key(&[10])).len(), 2);
        assert_eq!(slice(&m, &[1], &key(&[11])).len(), 1);
        assert_eq!(m.footprint().index_entries, 3);
        // Registration is idempotent and degenerate patterns stay ignored.
        m.register_index(vec![1]);
        m.register_index(vec![]);
        m.register_index(vec![0, 1]);
        m.register_index(vec![1, 1]);
        assert_eq!(m.index_patterns().count(), 1);
    }

    #[test]
    fn add_ref_matches_add_including_index_maintenance() {
        let mut by_ref = OrderedViewStorage::new(2);
        let mut by_value = OrderedViewStorage::new(2);
        for m in [&mut by_ref, &mut by_value] {
            m.register_index(vec![1]);
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
        assert_eq!(by_ref.footprint(), by_value.footprint());
        assert_eq!(slice(&by_ref, &[1], &key(&[10])).len(), 1);
        by_ref.add_ref(&key(&[5, 5]), Number::Int(0));
        assert_eq!(by_ref.get(&key(&[5, 5])), Number::Int(0));
    }

    #[test]
    fn iteration_is_sorted_and_floats_are_supported() {
        let mut m = OrderedViewStorage::new(1);
        m.add(key(&[3]), Number::Int(1));
        m.add(key(&[1]), Number::Float(2.5));
        m.add(key(&[2]), Number::Int(2));
        m.add(key(&[1]), Number::Int(1));
        assert_eq!(m.get(&key(&[1])), Number::Float(3.5));
        let keys: Vec<i64> = m.iter().map(|(k, _)| k[0].as_int().unwrap()).collect();
        assert_eq!(keys, vec![1, 2, 3]);
    }

    #[test]
    fn mixed_value_types_keep_slices_correct() {
        // Prefix scans only rely on Ord being consistent with Eq, so heterogeneous
        // prefixes (ints next to strings) must still slice exactly.
        let mut m = OrderedViewStorage::new(2);
        m.add(vec![Value::str("FR"), Value::int(1)], Number::Int(1));
        m.add(vec![Value::str("FR"), Value::int(2)], Number::Int(1));
        m.add(vec![Value::str("DE"), Value::int(1)], Number::Int(1));
        m.add(vec![Value::int(7), Value::int(1)], Number::Int(1));
        assert_eq!(slice(&m, &[0], &[Value::str("FR")]).len(), 2);
        assert_eq!(slice(&m, &[0], &[Value::str("DE")]).len(), 1);
        assert_eq!(slice(&m, &[0], &[Value::int(7)]).len(), 1);
        assert_eq!(slice(&m, &[0], &[Value::str("IT")]).len(), 0);
    }
}
