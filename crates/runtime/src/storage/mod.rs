//! Pluggable view storage: the [`ViewStorage`] trait and its backends.
//!
//! The paper's constant-ops-per-update guarantee (Theorem 7.1) asks very little of the
//! structure holding a materialized view: point probes by fully bound key, accumulation
//! of ring deltas with zero-pruning, and enumeration of the entries matching a
//! *partially* bound key in time proportional to the number of matches. Anything
//! offering those operations can sit under the executor — which is exactly what
//! [`ViewStorage`] captures, so that backends with different physical trade-offs can be
//! swapped in and compared without touching the execution layer:
//!
//! * [`HashViewStorage`] — a hash map with hash-based slice indexes for the registered
//!   key-position patterns. O(1) probes and writes; the default, and the backend the
//!   zero-allocation steady state of the lowered executor was tuned on.
//! * [`OrderedViewStorage`] — a `BTreeMap` keyed on the full tuple. O(log n) probes and
//!   writes, but partial-key enumeration over *prefix* patterns needs no secondary
//!   structure at all (a sorted range scan), and non-prefix patterns are served by
//!   ordered permuted-key indexes whose range scans keep matching entries physically
//!   adjacent — the index shape that sort-merge-style batched maintenance and
//!   leapfrog-triejoin-style multiway joins build on.
//!
//! Both executors ([`Executor`](crate::executor::Executor) and
//! [`InterpretedExecutor`](crate::interp::InterpretedExecutor)) are generic over the
//! backend with `HashViewStorage` as the default, so existing code is unaffected;
//! [`StorageBackend`] names the backends for runtime selection (strategy registry,
//! experiment CLIs), and [`StorageFootprint`] is the common memory proxy the
//! `exp_storage` experiment compares.

use std::collections::BTreeMap;
use std::fmt;

use dbring_algebra::{Number, Ring, Semiring};
use dbring_relations::Value;

mod hash;
mod ordered;

pub use hash::HashViewStorage;
pub use ordered::OrderedViewStorage;

/// The default backend's former name, kept so type names in downstream signatures keep
/// resolving. (Operations moved from inherent methods to the [`ViewStorage`] trait, so
/// calling them requires the trait in scope; the allocating `slice` helper is gone —
/// use [`ViewStorage::for_each_slice`].)
pub type MapStorage = HashViewStorage;

/// The storage contract a materialized view must satisfy for the executors to run
/// trigger programs over it.
///
/// All keys of one map share a fixed arity; values live in the [`Number`] ring and
/// entries whose value reaches zero are pruned (a map never stores explicit zeros, so
/// `len` is the number of non-zero groups). Enumeration callbacks receive the full key
/// in *original position order* regardless of how the backend physically arranges it.
///
/// The trait is deliberately generic (not object-safe): the executors monomorphize over
/// the backend, so going through the trait costs nothing on the hot path.
pub trait ViewStorage: Clone + fmt::Debug {
    /// The [`StorageBackend`] value naming this backend, so code that is generic over
    /// the backend type can reach the value-level registries (boxed engines, strategy
    /// names, experiment CLIs) without a parallel name parameter. Purely a *name*:
    /// typed construction (`Executor::<S>::with_backend`, the `IncrementalView`
    /// facade) always builds `S` itself and never routes through this value, so a
    /// backend outside the enum should name whichever in-tree backend it most
    /// resembles.
    const BACKEND: StorageBackend;

    /// Creates an empty map whose keys have the given arity.
    fn new(key_arity: usize) -> Self;

    /// The key arity.
    fn key_arity(&self) -> usize;

    /// Number of entries with a non-zero value.
    fn len(&self) -> usize;

    /// Whether the map has no non-zero entries.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The value stored under `key` (zero if absent).
    fn get(&self, key: &[Value]) -> Number;

    /// Adds `delta` to the value under `key`, maintaining indexes and pruning zeros.
    /// The key is consumed (backends may reuse the allocation on first insertion).
    ///
    /// # Panics
    /// Panics if the key arity does not match.
    fn add(&mut self, key: Vec<Value>, delta: Number);

    /// Adds `delta` to the value under `key`, cloning the key *only* when the entry
    /// does not already exist — the executor's steady-state write path.
    ///
    /// # Panics
    /// Panics if the key arity does not match.
    fn add_ref(&mut self, key: &[Value], delta: Number);

    /// Accumulates a consolidated batch of ring deltas whose keys are **strictly
    /// ascending** (sorted, no duplicates) — the batch-execution write path, fed by
    /// [`DeltaBatch`](dbring_relations::DeltaBatch)-driven triggers that buffer,
    /// sort and consolidate their writes per map. The keys are borrowed (they point
    /// into the executor's reusable write buffers), so a backend clones only what it
    /// actually inserts.
    ///
    /// The default is a per-key [`add_ref`](ViewStorage::add_ref) loop (the right thing
    /// for hash backends, where sortedness buys nothing); ordered backends override it
    /// with a single sequential merge pass so a large batch costs O(n + k) instead of
    /// O(k log n). Zero deltas are ignored either way, and index maintenance and
    /// zero-pruning behave exactly as `add_ref`.
    fn apply_sorted(&mut self, deltas: &[(&[Value], Number)]) {
        debug_assert!(
            deltas.windows(2).all(|w| w[0].0 < w[1].0),
            "apply_sorted requires strictly ascending keys"
        );
        for (key, delta) in deltas {
            self.add_ref(key, *delta);
        }
    }

    /// Applies a sorted, consolidated run exactly like
    /// [`apply_sorted`](ViewStorage::apply_sorted) while reporting each delta key's
    /// **pre-image** — the value held before the run landed (zero ⇔ absent) — to
    /// `log`. This is staged ingest's capture-and-land step: the executor feeds the
    /// pre-images straight into its undo log, and on rollback restores them via
    /// [`restore`](ViewStorage::restore).
    ///
    /// Every delta key is reported exactly once, **including** zero-delta keys (a
    /// spurious log entry restores a value to itself — harmless — while a missing one
    /// would leak a write). Keys in a run are unique, so the report order is
    /// backend-defined.
    ///
    /// The default probes each key with [`get`](ViewStorage::get) and then delegates
    /// to `apply_sorted` — always correct, but it pays a second lookup per key.
    /// Both in-tree backends override it to capture the pre-image inside the landing
    /// pass itself, which is what keeps the logged flush within a few percent of a
    /// plain `apply_sorted`.
    fn apply_sorted_logged(
        &mut self,
        deltas: &[(&[Value], Number)],
        mut log: impl FnMut(&[Value], Number),
    ) {
        for (key, _) in deltas {
            log(key, self.get(key));
        }
        self.apply_sorted(deltas);
    }

    /// Overwrites the value under `key` (used by initialization).
    fn set(&mut self, key: Vec<Value>, value: Number) {
        let delta = value.add(&self.get(&key).neg());
        self.add(key, delta);
    }

    /// Restores the value under `key` to an exact previously-observed `value`
    /// (zero ⇔ absent), **byte-identically** — the rollback primitive behind
    /// staged batch execution. Unlike [`set`](ViewStorage::set), which lands an
    /// arithmetic delta and therefore cannot reproduce a float bit pattern
    /// exactly (`0.1 + (0.4 - 0.3 - 0.1)` need not be `0.1`), `restore` first
    /// cancels the current entry with its own negation (`x + (-x)` is exactly
    /// zero in the [`Number`] ring, so the entry is pruned with full index
    /// maintenance) and then, if `value` is non-zero, inserts it verbatim via the
    /// absent-key path of [`add_ref`](ViewStorage::add_ref). The default works on
    /// any backend; backends with a cheaper direct overwrite may override it, as
    /// long as the result is bit-exact.
    fn restore(&mut self, key: &[Value], value: Number) {
        let current = self.get(key);
        if !current.is_zero() {
            self.add_ref(key, current.neg());
        }
        if !value.is_zero() {
            self.add_ref(key, value);
        }
    }

    /// Registers a slice index over the given key positions (deduplicated; degenerate
    /// patterns covering no or all positions are ignored). Entries already present are
    /// backfilled, so registration order and insertion order may be interleaved freely.
    fn register_index(&mut self, positions: Vec<usize>);

    /// Visits every `(key, value)` entry, in backend-defined order.
    fn for_each(&self, visit: impl FnMut(&[Value], Number));

    /// Visits every entry whose key matches `values` at the given positions, without
    /// materializing the matches. Positions must be sorted and distinct.
    ///
    /// With a registered index for the pattern (or, for ordered backends, a pattern the
    /// physical layout already serves) the cost is proportional to the number of
    /// matches — times at most a per-match probe of the primary structure (O(1) hash /
    /// O(log n) ordered), never to the size of the map; otherwise the backend falls
    /// back to a full scan. An empty pattern visits every entry.
    fn for_each_slice(
        &self,
        positions: &[usize],
        values: &[Value],
        visit: impl FnMut(&[Value], Number),
    );

    /// The index-free fallback for [`for_each_slice`]: visits matching entries by
    /// scanning every entry and filtering on the bound positions. Backends call this
    /// when no physical structure serves the pattern, so the match semantics live in
    /// exactly one place.
    ///
    /// [`for_each_slice`]: ViewStorage::for_each_slice
    fn for_each_slice_scan(
        &self,
        positions: &[usize],
        values: &[Value],
        mut visit: impl FnMut(&[Value], Number),
    ) {
        self.for_each(|k, v| {
            if positions
                .iter()
                .zip(values.iter())
                .all(|(&i, v)| &k[i] == v)
            {
                visit(k, v);
            }
        });
    }

    /// The memory proxy for this map: entry and index-entry counts.
    fn footprint(&self) -> StorageFootprint;

    /// The entries as a sorted table (a convenience for result reporting and tests).
    fn to_table(&self) -> BTreeMap<Vec<Value>, Number> {
        let mut out = BTreeMap::new();
        self.for_each(|k, v| {
            out.insert(k.to_vec(), v);
        });
        out
    }
}

/// The storage backends a view can run on, for runtime selection (strategy names,
/// experiment CLIs). Compile-time selection just names the backend type directly.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum StorageBackend {
    /// [`HashViewStorage`]: hash map + hash slice indexes (the default).
    Hash,
    /// [`OrderedViewStorage`]: `BTreeMap` + sorted range scans / permuted-key indexes.
    Ordered,
}

impl StorageBackend {
    /// Every backend, in registry order.
    pub const ALL: [StorageBackend; 2] = [StorageBackend::Hash, StorageBackend::Ordered];

    /// The backend's short name ("hash", "ordered") as used in strategy names
    /// (`recursive-ivm@ordered`) and experiment output.
    pub fn name(self) -> &'static str {
        match self {
            StorageBackend::Hash => "hash",
            StorageBackend::Ordered => "ordered",
        }
    }

    /// Parses a backend name as produced by [`StorageBackend::name`].
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "hash" => Some(StorageBackend::Hash),
            "ordered" => Some(StorageBackend::Ordered),
            _ => None,
        }
    }
}

impl fmt::Display for StorageBackend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for StorageBackend {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        StorageBackend::parse(s).ok_or_else(|| format!("unknown storage backend {s:?}"))
    }
}

/// A backend-independent memory proxy: how many entries a map (or a whole view
/// hierarchy) holds, and how much secondary-index structure sits next to them. Wall
/// clock varies per machine; these counts are exact and comparable across backends.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StorageFootprint {
    /// Non-zero entries in the primary structure.
    pub entries: usize,
    /// Secondary index structures maintained (one per registered non-degenerate
    /// pattern the backend cannot serve from its physical layout).
    pub indexes: usize,
    /// Total entries across all secondary index structures.
    pub index_entries: usize,
}

impl StorageFootprint {
    /// Component-wise sum (for aggregating over a view hierarchy).
    pub fn merge(self, other: StorageFootprint) -> StorageFootprint {
        StorageFootprint {
            entries: self.entries + other.entries,
            indexes: self.indexes + other.indexes,
            index_entries: self.index_entries + other.index_entries,
        }
    }
}

/// Test helper: materializes a slice enumeration as an owned vector, so backend tests
/// can assert on match sets without closure plumbing.
#[cfg(test)]
pub(crate) fn slice_entries<S: ViewStorage>(
    storage: &S,
    positions: &[usize],
    values: &[Value],
) -> Vec<(Vec<Value>, Number)> {
    let mut out = Vec::new();
    storage.for_each_slice(positions, values, |k, v| out.push((k.to_vec(), v)));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(vals: &[i64]) -> Vec<Value> {
        vals.iter().map(|&v| Value::int(v)).collect()
    }

    #[test]
    fn backend_names_round_trip() {
        for backend in StorageBackend::ALL {
            assert_eq!(StorageBackend::parse(backend.name()), Some(backend));
            assert_eq!(backend.to_string(), backend.name());
            assert_eq!(backend.name().parse::<StorageBackend>(), Ok(backend));
        }
        assert_eq!(StorageBackend::parse("mmap"), None);
        assert!("mmap".parse::<StorageBackend>().is_err());
    }

    #[test]
    fn footprints_merge_componentwise() {
        let a = StorageFootprint {
            entries: 3,
            indexes: 1,
            index_entries: 3,
        };
        let b = StorageFootprint {
            entries: 2,
            indexes: 0,
            index_entries: 0,
        };
        let m = a.merge(b);
        assert_eq!(m.entries, 5);
        assert_eq!(m.indexes, 1);
        assert_eq!(m.index_entries, 3);
        assert_eq!(StorageFootprint::default().entries, 0);
    }

    /// `apply_sorted` must be indistinguishable from the equivalent `add_ref` loop on
    /// every backend — same tables, same pruning, same index maintenance — for batches
    /// small (point path) and large (the ordered backend's merge path) relative to the
    /// map, including zero deltas, zero-sum pruning and brand-new keys.
    #[test]
    fn apply_sorted_matches_the_add_ref_loop_on_both_backends() {
        fn check<S: ViewStorage>() {
            for batch_scale in [1usize, 12] {
                let mut batched = S::new(2);
                let mut looped = S::new(2);
                for m in [&mut batched, &mut looped] {
                    m.register_index(vec![1]);
                    for i in 0..64i64 {
                        m.add(key(&[i, i % 4]), Number::Int(i + 1));
                    }
                }
                // scale 1 keeps the batch below the merge threshold (point path on the
                // ordered backend); scale 12 crosses it (merge path).
                let mut deltas: Vec<(Vec<Value>, Number)> = Vec::new();
                for i in 0..(batch_scale as i64) {
                    // Mix: existing keys (some summed to zero), new keys, zero deltas.
                    deltas.push((key(&[3 * i, 3 * i % 4]), Number::Int(-(3 * i + 1))));
                    deltas.push((key(&[3 * i + 1, (3 * i + 1) % 4]), Number::Int(5)));
                    deltas.push((key(&[100 + i, 0]), Number::Int(7)));
                    deltas.push((key(&[200 + i, 1]), Number::Int(0)));
                }
                deltas.sort_unstable_by(|a, b| a.0.cmp(&b.0));
                deltas.dedup_by(|a, b| a.0 == b.0);
                let refs: Vec<(&[Value], Number)> =
                    deltas.iter().map(|(k, d)| (k.as_slice(), *d)).collect();
                batched.apply_sorted(&refs);
                for (k, d) in &deltas {
                    looped.add_ref(k, *d);
                }
                assert_eq!(batched.to_table(), looped.to_table());
                assert_eq!(batched.len(), looped.len());
                assert_eq!(batched.footprint(), looped.footprint());
                // Index maintenance survived the batch: slices still see every entry.
                for n in 0..4 {
                    let mut via_batch = slice_entries(&batched, &[1], &key(&[n]));
                    let mut via_loop = slice_entries(&looped, &[1], &key(&[n]));
                    via_batch.sort_unstable_by(|a, b| a.0.cmp(&b.0));
                    via_loop.sort_unstable_by(|a, b| a.0.cmp(&b.0));
                    assert_eq!(via_batch, via_loop);
                }
            }
        }
        check::<HashViewStorage>();
        check::<OrderedViewStorage>();
    }

    /// `apply_sorted_logged` must land exactly what `apply_sorted` lands *and* report
    /// exactly the pre-images a probe loop before the batch would have seen — one log
    /// call per delta key, zero for absent keys, on every backend and on both sides
    /// of the ordered backend's point/merge threshold. This is the invariant the
    /// staged-ingest undo log is built on.
    #[test]
    fn apply_sorted_logged_matches_a_probe_loop_plus_apply_sorted() {
        fn check<S: ViewStorage>() {
            for batch_scale in [1usize, 12] {
                let mut logged = S::new(2);
                let mut probed = S::new(2);
                for m in [&mut logged, &mut probed] {
                    m.register_index(vec![1]);
                    for i in 0..64i64 {
                        m.add(key(&[i, i % 4]), Number::Int(i + 1));
                    }
                }
                // Same mix as the apply_sorted parity test: zero-sum prunes,
                // accumulations, brand-new keys and zero deltas, at a scale below
                // (1) and above (12) the ordered backend's merge threshold.
                let mut deltas: Vec<(Vec<Value>, Number)> = Vec::new();
                for i in 0..(batch_scale as i64) {
                    deltas.push((key(&[3 * i, 3 * i % 4]), Number::Int(-(3 * i + 1))));
                    deltas.push((key(&[3 * i + 1, (3 * i + 1) % 4]), Number::Int(5)));
                    deltas.push((key(&[100 + i, 0]), Number::Int(7)));
                    deltas.push((key(&[200 + i, 1]), Number::Int(0)));
                }
                deltas.sort_unstable_by(|a, b| a.0.cmp(&b.0));
                deltas.dedup_by(|a, b| a.0 == b.0);
                let refs: Vec<(&[Value], Number)> =
                    deltas.iter().map(|(k, d)| (k.as_slice(), *d)).collect();
                let mut expected: Vec<(Vec<Value>, Number)> = refs
                    .iter()
                    .map(|(k, _)| (k.to_vec(), probed.get(k)))
                    .collect();
                probed.apply_sorted(&refs);
                let mut captured: Vec<(Vec<Value>, Number)> = Vec::new();
                logged.apply_sorted_logged(&refs, |k, pre| captured.push((k.to_vec(), pre)));
                // Log order is backend-defined; contents are not.
                captured.sort_unstable_by(|a, b| a.0.cmp(&b.0));
                expected.sort_unstable_by(|a, b| a.0.cmp(&b.0));
                let label = format!("{:?} scale={batch_scale}", S::BACKEND);
                assert_eq!(captured, expected, "pre-image log diverged ({label})");
                assert_eq!(logged.to_table(), probed.to_table(), "{label}");
                assert_eq!(logged.len(), probed.len(), "{label}");
                assert_eq!(logged.footprint(), probed.footprint(), "{label}");
                for n in 0..4 {
                    let mut via_logged = slice_entries(&logged, &[1], &key(&[n]));
                    let mut via_probed = slice_entries(&probed, &[1], &key(&[n]));
                    via_logged.sort_unstable_by(|a, b| a.0.cmp(&b.0));
                    via_probed.sort_unstable_by(|a, b| a.0.cmp(&b.0));
                    assert_eq!(via_logged, via_probed, "{label} slice {n}");
                }
            }
        }
        check::<HashViewStorage>();
        check::<OrderedViewStorage>();
    }

    /// Regression (shared across backends): registering an index *after* entries exist —
    /// including permuted-key (non-prefix) patterns, and after zero-sum removals — must
    /// serve exactly the matches a scan over the live entries finds. The hash backend
    /// had this bug (fixed in an earlier change); this pins both backends to the same
    /// contract so the ordered backend cannot regress to it either.
    #[test]
    fn late_index_registration_backfill_parity_across_backends() {
        fn scan_matches<S: ViewStorage>(
            m: &S,
            positions: &[usize],
            values: &[Value],
        ) -> Vec<(Vec<Value>, Number)> {
            let mut out = Vec::new();
            m.for_each_slice_scan(positions, values, |k, v| out.push((k.to_vec(), v)));
            out.sort_unstable_by(|a, b| a.0.cmp(&b.0));
            out
        }
        fn check<S: ViewStorage>() {
            let mut m = S::new(3);
            for (a, b, c, v) in [
                (1, 10, 7, 2),
                (1, 11, 7, 3),
                (2, 10, 8, 4),
                (2, 12, 7, 5),
                (3, 10, 7, 6),
            ] {
                m.add(key(&[a, b, c]), Number::Int(v));
            }
            // Zero-sum removals *before* registration: the index must not resurrect them.
            m.add(key(&[1, 11, 7]), Number::Int(-3));
            m.add(key(&[2, 10, 8]), Number::Int(-4));
            // Late registration of permuted (non-prefix) patterns over existing entries.
            m.register_index(vec![2]);
            m.register_index(vec![1, 2]);
            for (positions, values) in [
                (vec![2], key(&[7])),
                (vec![2], key(&[8])),
                (vec![1, 2], key(&[10, 7])),
                (vec![1, 2], key(&[11, 7])),
            ] {
                let mut indexed = slice_entries(&m, &positions, &values);
                indexed.sort_unstable_by(|a, b| a.0.cmp(&b.0));
                assert_eq!(
                    indexed,
                    scan_matches(&m, &positions, &values),
                    "backfilled index diverged from a scan on pattern {positions:?}"
                );
            }
            // Registered indexes keep tracking writes and zero-sum removals afterwards.
            m.add(key(&[4, 13, 7]), Number::Int(9));
            m.add(key(&[1, 10, 7]), Number::Int(-2));
            for (positions, values) in [(vec![2], key(&[7])), (vec![1, 2], key(&[13, 7]))] {
                let mut indexed = slice_entries(&m, &positions, &values);
                indexed.sort_unstable_by(|a, b| a.0.cmp(&b.0));
                assert_eq!(indexed, scan_matches(&m, &positions, &values));
            }
        }
        check::<HashViewStorage>();
        check::<OrderedViewStorage>();
    }

    /// `restore` must reproduce a previously-observed entry state bit-exactly on
    /// both backends: floats come back with their original bit pattern (where a
    /// `set` of the arithmetic difference would not), zero restores prune, and
    /// index maintenance tracks every transition.
    #[test]
    fn restore_is_bit_exact_on_both_backends() {
        fn check<S: ViewStorage>() {
            let mut m = S::new(1);
            m.register_index(vec![0]);
            // 0.1 + 0.2 is famously not 0.3; capture the pre-image and restore it.
            m.add(key(&[1]), Number::Float(0.1));
            let before = m.get(&key(&[1]));
            m.add(key(&[1]), Number::Float(0.2));
            m.restore(&key(&[1]), before);
            assert_eq!(m.get(&key(&[1])).as_f64().to_bits(), 0.1f64.to_bits());
            // Restoring zero prunes the entry (and its index postings).
            m.restore(&key(&[1]), Number::Int(0));
            assert_eq!(m.len(), 0);
            assert!(slice_entries(&m, &[0], &key(&[1])).is_empty());
            // Restoring a non-zero value onto an absent key inserts it verbatim.
            m.restore(&key(&[2]), Number::Float(0.3));
            assert_eq!(m.get(&key(&[2])).as_f64().to_bits(), 0.3f64.to_bits());
            assert_eq!(slice_entries(&m, &[0], &key(&[2])).len(), 1);
        }
        check::<HashViewStorage>();
        check::<OrderedViewStorage>();
    }

    /// The trait's provided `set` and `to_table` behave identically on both backends.
    #[test]
    fn provided_methods_work_on_both_backends() {
        fn check<S: ViewStorage>() {
            let mut m = S::new(2);
            m.set(key(&[1, 2]), Number::Int(5));
            m.set(key(&[1, 3]), Number::Int(7));
            m.set(key(&[1, 2]), Number::Int(2));
            assert_eq!(m.get(&key(&[1, 2])), Number::Int(2));
            m.set(key(&[1, 3]), Number::Int(0));
            assert_eq!(m.len(), 1);
            assert!(!m.is_empty());
            let table = m.to_table();
            assert_eq!(table.len(), 1);
            assert_eq!(table[&key(&[1, 2])], Number::Int(2));
        }
        check::<HashViewStorage>();
        check::<OrderedViewStorage>();
    }
}
