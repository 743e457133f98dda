//! Published read-only view snapshots: the read side of the serving story.
//!
//! The ingest side of this runtime mutates [`ViewStorage`](crate::ViewStorage) maps
//! in place under `&mut` access, so a reader holding `&Ring` blocks the writer (and
//! vice versa). This module decouples the two with an epoch-published, RCU-style
//! snapshot per view:
//!
//! * [`ViewSnapshot`] — an immutable, `Arc`-shared image of one view's output table
//!   as of one commit: a shared *base* run plus at most one *recent* run of the
//!   entries changed since the base was built (a zero there is a tombstone). Each run
//!   stores its keys flat, `arity` values per entry in one `Vec`, so building or
//!   dropping a run is two allocations however many groups it holds. Cloning a
//!   snapshot is an `Arc` clone; a point lookup is at most two binary searches
//!   (recent, then base), and a small Bloom filter over the recent run's keys lets
//!   most lookups of keys it does not hold skip the first; iteration and prefix
//!   scans merge the two runs in key order.
//!   Reads take no lock, so any number of threads can read one snapshot while the
//!   writer keeps ingesting.
//! * [`OutputDelta`] — the output entries one committed batch wrote, sorted by key,
//!   each with the value it holds now. [`ViewSnapshot::merged`] publishes a commit
//!   in proportion to this delta: it is merged into the predecessor's recent run and
//!   the base `Arc` is shared, not copied. When the recent run outgrows
//!   ≈ √(2·|base|·|Δ|) entries it is folded into a new base — the size at which the
//!   fold's O(|base|) cost, spread over the commits since the last fold, balances the
//!   O(|recent|) merge each commit pays, so a commit costs O(√(|base|·|Δ|)) amortized
//!   instead of O(|base|). This is DBSP's integration operator (a running sum of
//!   output deltas) laid out as a stable/recent split.
//! * [`SnapshotStore`] — the per-view publication slots. A writer *publishes* a fresh
//!   snapshot at a quiescent point (a batch-commit boundary); readers *acquire* the
//!   current snapshot. Acquire takes a shared lock on the slot table plus one per-slot
//!   mutex held only for an `Arc` clone — never for the duration of a read — and
//!   publication swaps a pointer, so writers never wait for readers to finish. Views
//!   are addressable by name through a name → slot map kept under the table lock, so
//!   acquiring by name locks one slot mutex, not every slot's.
//!
//! The store tracks view lifecycle alongside the published data: a quarantined view's
//! slot is flagged so acquisition fails *up front* ([`SnapshotAccess::Poisoned`])
//! instead of serving a table that reflects a half-applied batch, and a dropped
//! view's slot releases its snapshot promptly ([`SnapshotAccess::Dropped`]) so the
//! memory is reclaimed as soon as the last outstanding reader handle goes away.

use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};
use std::sync::{Arc, Mutex, RwLock};

use dbring_algebra::{Number, Semiring};
use dbring_relations::Value;

/// One sorted run of `(key, value)` entries with unique keys, stored flat: entry
/// `i`'s key is `keys[i * arity..(i + 1) * arity]`, its value `values[i]`. The
/// number of entries is `values.len()`, which also covers arity-0 views (one empty
/// key, no key values).
#[derive(Debug, Default)]
struct Run {
    arity: usize,
    keys: Vec<Value>,
    values: Vec<Number>,
}

impl Run {
    fn with_capacity(arity: usize, entries: usize) -> Self {
        Run {
            arity,
            keys: Vec::with_capacity(arity * entries),
            values: Vec::with_capacity(entries),
        }
    }

    fn len(&self) -> usize {
        self.values.len()
    }

    fn key(&self, i: usize) -> &[Value] {
        &self.keys[i * self.arity..(i + 1) * self.arity]
    }

    /// Appends an entry; keys must arrive strictly ascending.
    fn push(&mut self, key: &[Value], value: Number) {
        debug_assert_eq!(key.len(), self.arity);
        debug_assert!(self.len() == 0 || self.key(self.len() - 1) < key);
        self.keys.extend_from_slice(key);
        self.values.push(value);
    }

    /// Binary search for `key`: its index, or where it would be inserted.
    fn search(&self, key: &[Value]) -> Result<usize, usize> {
        let i = self.partition_point(|k| k < key);
        if i < self.len() && self.key(i) == key {
            Ok(i)
        } else {
            Err(i)
        }
    }

    /// The first index whose key does not satisfy `pred` (keys satisfying it must
    /// form a prefix of the run). The loop halves a window without an early exit,
    /// so each step is a conditional move rather than a branch a random probe
    /// mispredicts.
    fn partition_point(&self, pred: impl Fn(&[Value]) -> bool) -> usize {
        let mut size = self.len();
        if size == 0 {
            return 0;
        }
        let mut base = 0;
        while size > 1 {
            let half = size / 2;
            let mid = base + half;
            if pred(self.key(mid)) {
                base = mid;
            }
            size -= half;
        }
        base + usize::from(pred(self.key(base)))
    }

    /// The index range of the entries whose key begins with `prefix`.
    fn prefix_range(&self, prefix: &[Value]) -> Range<usize> {
        let start = self.partition_point(|k| prefix_cmp(k, prefix) == Ordering::Less);
        let end = self.partition_point(|k| prefix_cmp(k, prefix) != Ordering::Greater);
        start..end
    }
}

/// Compares a key against a prefix, considering only the key's first
/// `prefix.len()` components (a key shorter than the prefix compares `Less`,
/// so it can never match).
fn prefix_cmp(key: &[Value], prefix: &[Value]) -> Ordering {
    key[..key.len().min(prefix.len())].cmp(prefix)
}

/// A two-probe Bloom filter over the keys of a recent run, about 8 bits per key:
/// a lookup it rules out (all but ~5% of keys absent from the run) skips the
/// recent run's binary search and goes straight to the base.
#[derive(Debug, Default)]
struct KeyFilter {
    bits: Vec<u64>,
    /// `64 - log2(bit count)`: a probe is the top bits of a 64-bit hash.
    shift: u32,
}

impl KeyFilter {
    fn new(run: &Run) -> Self {
        if run.len() == 0 {
            return KeyFilter::default();
        }
        let size = (8 * run.len()).next_power_of_two().max(64);
        let mut filter = KeyFilter {
            bits: vec![0; size / 64],
            shift: 64 - size.trailing_zeros(),
        };
        for i in 0..run.len() {
            for bit in filter.probes(run.key(i)) {
                filter.bits[bit / 64] |= 1 << (bit % 64);
            }
        }
        filter
    }

    /// Two bit positions from one multiplicative hash: its top bits, and the top
    /// bits of its 32-bit rotation (independent while the filter has ≤ 2³² bits).
    fn probes(&self, key: &[Value]) -> [usize; 2] {
        let mut hasher = KeyHasher(0);
        key.hash(&mut hasher);
        let h = hasher.0;
        [
            (h >> self.shift) as usize,
            (h.rotate_left(32) >> self.shift) as usize,
        ]
    }

    fn may_contain(&self, key: &[Value]) -> bool {
        !self.bits.is_empty()
            && self
                .probes(key)
                .iter()
                .all(|&bit| self.bits[bit / 64] & (1 << (bit % 64)) != 0)
    }
}

/// A fast multiplicative hasher for the filter (keys come from committed view
/// output, so collision flooding can only cost a lookup its shortcut).
struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }

    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }
}

/// Merges an older and a newer run (over index ranges) in key order. On equal keys
/// the newer entry wins and the older one is skipped. With `skip_zeros`, zero
/// values (tombstones) are dropped from the output instead of yielded.
struct Merge<'a> {
    older: &'a Run,
    newer: &'a Run,
    o: Range<usize>,
    n: Range<usize>,
    skip_zeros: bool,
}

impl<'a> Merge<'a> {
    fn full(older: &'a Run, newer: &'a Run, skip_zeros: bool) -> Self {
        Merge {
            older,
            newer,
            o: 0..older.len(),
            n: 0..newer.len(),
            skip_zeros,
        }
    }

    /// Collects the merge into a fresh run of the given arity.
    fn collect_run(self, arity: usize) -> Run {
        let mut run = Run::with_capacity(arity, self.o.len() + self.n.len());
        for (key, value) in self {
            run.push(key, value);
        }
        run
    }
}

impl<'a> Iterator for Merge<'a> {
    type Item = (&'a [Value], Number);

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            let take_newer = match (self.o.is_empty(), self.n.is_empty()) {
                (true, true) => return None,
                (false, true) => false,
                (true, false) => true,
                (false, false) => {
                    match self
                        .older
                        .key(self.o.start)
                        .cmp(self.newer.key(self.n.start))
                    {
                        Ordering::Less => false,
                        Ordering::Greater => true,
                        Ordering::Equal => {
                            self.o.start += 1;
                            true
                        }
                    }
                }
            };
            let (run, range) = if take_newer {
                (self.newer, &mut self.n)
            } else {
                (self.older, &mut self.o)
            };
            let i = range.start;
            range.start += 1;
            let value = run.values[i];
            if !(self.skip_zeros && value.is_zero()) {
                return Some((run.key(i), value));
            }
        }
    }
}

/// The output entries one committed batch wrote: every written key once, ascending,
/// paired with the value it holds after the commit (zero means the group was
/// removed), plus the net change in the number of groups — learned from each key's
/// value before the batch, so publishing never has to count the whole table.
///
/// Built by [`ViewEngine::output_delta`](crate::ViewEngine::output_delta) from the
/// staged undo log and consumed by [`ViewSnapshot::merged`].
#[derive(Debug, Default)]
pub struct OutputDelta {
    run: Run,
    len_change: isize,
}

impl OutputDelta {
    /// An empty delta for keys of the given arity, with room for `entries` keys.
    pub(crate) fn with_capacity(arity: usize, entries: usize) -> Self {
        OutputDelta {
            run: Run::with_capacity(arity, entries),
            len_change: 0,
        }
    }

    /// Records that `key` went from `before` to `after` (zero ⇔ absent). Keys must
    /// be pushed strictly ascending.
    pub(crate) fn push(&mut self, key: &[Value], before: Number, after: Number) {
        self.run.push(key, after);
        self.len_change += isize::from(!after.is_zero()) - isize::from(!before.is_zero());
    }

    /// Number of changed keys.
    pub fn len(&self) -> usize {
        self.run.len()
    }

    /// Whether the batch wrote no output key.
    pub fn is_empty(&self) -> bool {
        self.run.len() == 0
    }

    /// The changed keys in ascending order, each with its value after the commit
    /// (zero for a removed group).
    pub fn iter(&self) -> impl Iterator<Item = (&[Value], Number)> {
        (0..self.run.len()).map(move |i| (self.run.key(i), self.run.values[i]))
    }
}

/// An immutable point-in-time image of one view's output table, shared by `Arc`.
///
/// A snapshot is produced by the ingest side at a batch-commit quiescent point and
/// never changes afterwards: updates ingested later publish *new* snapshots and can
/// never perturb one already handed out. It is a shared base run plus at most one
/// recent run of overrides (see the [module docs](self)); a snapshot published by
/// [`ViewSnapshot::merged`] shares its base with its predecessor. `Clone` is an `Arc`
/// clone, and every accessor takes `&self` over immutable data, so snapshots are
/// `Send + Sync` and freely shared across reader threads with zero locking on the
/// read path.
#[derive(Clone)]
pub struct ViewSnapshot {
    inner: Arc<SnapshotInner>,
}

struct SnapshotInner {
    name: Arc<str>,
    epoch: u64,
    ingested: u64,
    /// Live entries only (no zeros), shared with every snapshot merged on top of it.
    base: Arc<Run>,
    /// Entries changed since `base` was built; a zero is a tombstone for a group
    /// removed since. Shared with the predecessor when a commit changed nothing.
    recent: Arc<Run>,
    /// Membership filter over `recent`'s keys, built with it.
    filter: Arc<KeyFilter>,
    /// Number of live groups: base plus recent, less tombstones and overrides.
    len: usize,
}

impl ViewSnapshot {
    /// Builds a base-only snapshot from entries already sorted ascending by unique
    /// key (the order a `BTreeMap` iterates in), with no zero values.
    pub fn new(
        name: Arc<str>,
        epoch: u64,
        ingested: u64,
        entries: Vec<(Vec<Value>, Number)>,
    ) -> Self {
        let arity = entries.first().map_or(0, |(key, _)| key.len());
        let mut base = Run::with_capacity(arity, entries.len());
        for (key, value) in &entries {
            debug_assert!(!value.is_zero());
            base.push(key, *value);
        }
        let len = base.len();
        ViewSnapshot {
            inner: Arc::new(SnapshotInner {
                name,
                epoch,
                ingested,
                base: Arc::new(base),
                recent: Arc::new(Run::with_capacity(arity, 0)),
                filter: Arc::default(),
                len,
            }),
        }
    }

    /// The successor of this snapshot after one committed batch whose output
    /// changes are `delta`: the delta is merged into this snapshot's recent run and
    /// the base is shared, so the work is O(|recent| + |Δ|), not O(|table|). Once
    /// the recent run exceeds √(2·|base|·|Δ|) entries it is folded into a new base
    /// (O(|base|)), which keeps a commit at O(√(|base|·|Δ|)) amortized and a lookup
    /// at two binary searches. `self` is untouched.
    pub fn merged(&self, epoch: u64, ingested: u64, delta: &OutputDelta) -> ViewSnapshot {
        let old = &*self.inner;
        let len = old.len as isize + delta.len_change;
        debug_assert!(len >= 0, "the group count cannot go negative");
        let (base, recent, filter) = if delta.is_empty() {
            (
                Arc::clone(&old.base),
                Arc::clone(&old.recent),
                Arc::clone(&old.filter),
            )
        } else {
            let arity = delta.run.arity;
            let recent = Merge::full(&old.recent, &delta.run, false).collect_run(arity);
            let (r, b, d) = (recent.len(), old.base.len(), delta.len());
            if r.saturating_mul(r) > b.saturating_mul(d).saturating_mul(2) {
                let base = Merge::full(&old.base, &recent, true).collect_run(arity);
                (
                    Arc::new(base),
                    Arc::new(Run::with_capacity(arity, 0)),
                    Arc::default(),
                )
            } else {
                let filter = KeyFilter::new(&recent);
                (Arc::clone(&old.base), Arc::new(recent), Arc::new(filter))
            }
        };
        ViewSnapshot {
            inner: Arc::new(SnapshotInner {
                name: Arc::clone(&old.name),
                epoch,
                ingested,
                base,
                recent,
                filter,
                len: len as usize,
            }),
        }
    }

    /// The name of the view this snapshot was published from.
    pub fn name(&self) -> &str {
        &self.inner.name
    }

    /// The store-wide publication epoch this snapshot was published at. Strictly
    /// increasing per publication round, so two snapshots of one view are ordered
    /// by epoch.
    pub fn epoch(&self) -> u64 {
        self.inner.epoch
    }

    /// How many single-tuple updates the ring had ingested when this snapshot was
    /// published — the snapshot equals the view's table after exactly that prefix
    /// of the update stream.
    pub fn ingested(&self) -> u64 {
        self.inner.ingested
    }

    /// Number of groups (rows) in the snapshot.
    pub fn len(&self) -> usize {
        self.inner.len
    }

    /// Whether the snapshot holds no groups.
    pub fn is_empty(&self) -> bool {
        self.inner.len == 0
    }

    /// The sizes of the two runs: entries in the shared base run, and entries in
    /// the recent run (tombstones included). A diagnostic of the publication
    /// layout; a freshly built or just-folded snapshot has an empty recent run.
    pub fn runs(&self) -> (usize, usize) {
        (self.inner.base.len(), self.inner.recent.len())
    }

    /// Point lookup: the value stored under `key`, if the group is present. At
    /// most two binary searches: the recent run (skipped when its filter rules the
    /// key out), then the base.
    pub fn get(&self, key: &[Value]) -> Option<Number> {
        let inner = &*self.inner;
        if inner.filter.may_contain(key) {
            if let Ok(i) = inner.recent.search(key) {
                return Some(inner.recent.values[i]).filter(|v| !v.is_zero());
            }
        }
        inner.base.search(key).ok().map(|i| inner.base.values[i])
    }

    /// Point lookup with the ring's absent-means-zero convention (the snapshot
    /// counterpart of a live view's `value()`).
    pub fn value(&self, key: &[Value]) -> Number {
        self.get(key).unwrap_or(Number::Int(0))
    }

    /// Iterates every `(key, value)` group in ascending key order.
    pub fn iter(&self) -> impl Iterator<Item = (&[Value], Number)> {
        Merge::full(&self.inner.base, &self.inner.recent, true)
    }

    /// Prefix scan: every group whose key begins with `prefix`, in ascending key
    /// order, located by binary search in each run (no full-table walk).
    pub fn prefix_scan<'a>(
        &'a self,
        prefix: &[Value],
    ) -> impl Iterator<Item = (&'a [Value], Number)> {
        let inner = &*self.inner;
        Merge {
            older: &inner.base,
            newer: &inner.recent,
            o: inner.base.prefix_range(prefix),
            n: inner.recent.prefix_range(prefix),
            skip_zeros: true,
        }
    }

    /// The snapshot as an owned `BTreeMap` — an explicit O(n) export for tests and
    /// bulk consumers, *not* part of the per-request read path.
    pub fn table(&self) -> BTreeMap<Vec<Value>, Number> {
        self.iter().map(|(k, v)| (k.to_vec(), v)).collect()
    }
}

impl fmt::Debug for ViewSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ViewSnapshot")
            .field("name", &self.inner.name)
            .field("epoch", &self.inner.epoch)
            .field("ingested", &self.inner.ingested)
            .field("len", &self.inner.len)
            .field("runs", &self.runs())
            .finish()
    }
}

/// What acquiring a view's snapshot slot found.
#[derive(Clone, Debug)]
pub enum SnapshotAccess {
    /// The current published snapshot.
    Published(ViewSnapshot),
    /// The view is quarantined (its engine failed mid-ingest); the carried name is
    /// for the error message. Nothing is served until the view is repaired.
    Poisoned(Arc<str>),
    /// The view was dropped; its snapshot has been released.
    Dropped,
    /// No view was ever registered in this slot.
    Unknown,
}

/// One view's publication slot.
enum SlotState {
    Published(ViewSnapshot),
    Poisoned(Arc<str>),
    Dropped,
}

/// The slot table: the slots themselves plus the name → slot map of the live
/// (published or poisoned) ones, kept sorted by name — a lookup is a binary
/// search over a handful of names, cheaper than hashing one.
#[derive(Default)]
struct Slots {
    cells: Vec<Mutex<SlotState>>,
    names: Vec<(Arc<str>, u32)>,
}

impl Slots {
    fn search(&self, name: &str) -> Result<usize, usize> {
        self.names.binary_search_by(|(n, _)| (**n).cmp(name))
    }
}

/// The per-view snapshot publication slots, shared between one writer and any
/// number of readers via `Arc<SnapshotStore>`.
///
/// Slot indices parallel the owning engine registry's slots: registered in creation
/// order, never reused. The writer publishes at quiescent points with
/// [`SnapshotStore::publish`]; readers acquire with [`SnapshotStore::acquire`]. A
/// slot's name is fixed when it is registered and resolves through
/// [`SnapshotStore::find`] until the slot is evicted. Slot access is O(1) — a
/// shared lock on the slot table (taken exclusively only to register or evict a
/// view) plus a per-slot mutex held just long enough to clone or swap an `Arc`.
pub struct SnapshotStore {
    slots: RwLock<Slots>,
    epoch: AtomicU64,
}

impl SnapshotStore {
    /// An empty store (no slots, epoch 0).
    pub fn new() -> Self {
        SnapshotStore {
            slots: RwLock::new(Slots::default()),
            epoch: AtomicU64::new(0),
        }
    }

    /// Registers the next slot with its initial snapshot and returns the slot index.
    /// The snapshot's name now resolves to this slot.
    pub fn register(&self, snapshot: ViewSnapshot) -> u32 {
        let mut slots = self.slots.write().expect("snapshot store lock poisoned");
        let slot = slots.cells.len() as u32;
        let name = Arc::clone(&snapshot.inner.name);
        match slots.search(&name) {
            Ok(i) => slots.names[i].1 = slot,
            Err(i) => slots.names.insert(i, (name, slot)),
        }
        slots.cells.push(Mutex::new(SlotState::Published(snapshot)));
        slot
    }

    /// Registers the next slot already dropped (used when mirroring a store whose
    /// owning ring has tombstoned slots — indices must stay aligned).
    pub fn register_dropped(&self) {
        let mut slots = self.slots.write().expect("snapshot store lock poisoned");
        slots.cells.push(Mutex::new(SlotState::Dropped));
    }

    /// Number of slots ever registered (dropped slots included — indices are stable).
    pub fn len(&self) -> usize {
        self.slots
            .read()
            .expect("snapshot store lock poisoned")
            .cells
            .len()
    }

    /// Whether no slot was ever registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Draws the next publication epoch (strictly increasing for the store's life).
    pub fn next_epoch(&self) -> u64 {
        self.epoch.fetch_add(1, AtomicOrdering::Relaxed) + 1
    }

    /// Swaps `slot`'s published snapshot for a fresh one (clearing any quarantine
    /// flag — the repair path republishes through here). The displaced snapshot's
    /// memory is freed once the last reader clone of it goes away.
    pub fn publish(&self, slot: u32, snapshot: ViewSnapshot) {
        let slots = self.slots.read().expect("snapshot store lock poisoned");
        let mut state = slots.cells[slot as usize]
            .lock()
            .expect("snapshot slot lock poisoned");
        *state = SlotState::Published(snapshot);
    }

    /// Flags `slot` as quarantined: acquisition reports
    /// [`SnapshotAccess::Poisoned`] until a repair republishes. The stale snapshot
    /// is released immediately — it predates the failure, but serving it would
    /// silently freeze the view, so the poisoning is surfaced instead.
    pub fn poison(&self, slot: u32) {
        let slots = self.slots.read().expect("snapshot store lock poisoned");
        let mut state = slots.cells[slot as usize]
            .lock()
            .expect("snapshot slot lock poisoned");
        if let SlotState::Published(snapshot) = &*state {
            let name = Arc::clone(&snapshot.inner.name);
            *state = SlotState::Poisoned(name);
        }
    }

    /// Releases `slot`'s snapshot for good (the view was dropped) and frees its
    /// name. Readers still holding a previously acquired [`ViewSnapshot`] keep it
    /// alive until they drop it; new acquisitions report [`SnapshotAccess::Dropped`].
    pub fn evict(&self, slot: u32) {
        let mut slots = self.slots.write().expect("snapshot store lock poisoned");
        let state = std::mem::replace(
            &mut *slots.cells[slot as usize]
                .lock()
                .expect("snapshot slot lock poisoned"),
            SlotState::Dropped,
        );
        let name = match &state {
            SlotState::Published(snapshot) => &snapshot.inner.name,
            SlotState::Poisoned(name) => name,
            SlotState::Dropped => return,
        };
        if let Ok(i) = slots.search(name) {
            if slots.names[i].1 == slot {
                slots.names.remove(i);
            }
        }
    }

    /// Acquires `slot`'s current snapshot — O(1), independent of view size.
    pub fn acquire(&self, slot: u32) -> SnapshotAccess {
        let slots = self.slots.read().expect("snapshot store lock poisoned");
        let Some(cell) = slots.cells.get(slot as usize) else {
            return SnapshotAccess::Unknown;
        };
        let state = cell.lock().expect("snapshot slot lock poisoned");
        match &*state {
            SlotState::Published(snapshot) => SnapshotAccess::Published(snapshot.clone()),
            SlotState::Poisoned(name) => SnapshotAccess::Poisoned(name.clone()),
            SlotState::Dropped => SnapshotAccess::Dropped,
        }
    }

    /// The slot index of the live (published or poisoned) view named `name`, if
    /// any — a binary search of the name map under the table's shared lock, no
    /// slot mutex.
    pub fn find(&self, name: &str) -> Option<u32> {
        let slots = self.slots.read().expect("snapshot store lock poisoned");
        slots.search(name).ok().map(|i| slots.names[i].1)
    }

    /// Total groups currently held across all published snapshots — the store's
    /// memory-proxy footprint (dropped and poisoned slots contribute zero).
    pub fn published_entries(&self) -> usize {
        let slots = self.slots.read().expect("snapshot store lock poisoned");
        slots
            .cells
            .iter()
            .map(|cell| {
                let state = cell.lock().expect("snapshot slot lock poisoned");
                match &*state {
                    SlotState::Published(snapshot) => snapshot.len(),
                    _ => 0,
                }
            })
            .sum()
    }
}

impl Default for SnapshotStore {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Debug for SnapshotStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SnapshotStore")
            .field("slots", &self.len())
            .field("epoch", &self.epoch.load(AtomicOrdering::Relaxed))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(vals: &[i64]) -> Vec<Value> {
        vals.iter().copied().map(Value::int).collect()
    }

    fn snap(name: &str, entries: &[(&[i64], i64)]) -> ViewSnapshot {
        ViewSnapshot::new(
            Arc::from(name),
            1,
            0,
            entries
                .iter()
                .map(|(k, v)| (key(k), Number::Int(*v)))
                .collect(),
        )
    }

    #[test]
    fn snapshots_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ViewSnapshot>();
        assert_send_sync::<SnapshotStore>();
    }

    #[test]
    fn point_lookups_and_absent_means_zero() {
        let s = snap("v", &[(&[1, 1], 10), (&[1, 2], 20), (&[2, 1], 30)]);
        assert_eq!(s.value(&key(&[1, 2])), Number::Int(20));
        assert_eq!(s.get(&key(&[9, 9])), None);
        assert_eq!(s.value(&key(&[9, 9])), Number::Int(0));
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn prefix_scans_return_the_contiguous_run() {
        let s = snap(
            "v",
            &[
                (&[1, 1], 10),
                (&[1, 2], 20),
                (&[2, 1], 30),
                (&[2, 5], 40),
                (&[3, 0], 50),
            ],
        );
        let hits: Vec<i64> = s
            .prefix_scan(&key(&[2]))
            .map(|(_, v)| match v {
                Number::Int(i) => i,
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(hits, vec![30, 40]);
        assert_eq!(s.prefix_scan(&key(&[7])).count(), 0);
        // An empty prefix scans everything.
        assert_eq!(s.prefix_scan(&[]).count(), 5);
    }

    #[test]
    fn store_lifecycle_publish_poison_evict() {
        let store = SnapshotStore::new();
        let slot = store.register(snap("v", &[(&[1], 5)]));
        assert!(matches!(store.acquire(slot), SnapshotAccess::Published(_)));
        assert_eq!(store.find("v"), Some(slot));
        assert_eq!(store.published_entries(), 1);

        store.poison(slot);
        match store.acquire(slot) {
            SnapshotAccess::Poisoned(name) => assert_eq!(&*name, "v"),
            other => panic!("expected poisoned, got {other:?}"),
        }
        assert_eq!(store.published_entries(), 0);
        // Poisoned views are still name-addressable (the error must name them).
        assert_eq!(store.find("v"), Some(slot));

        let epoch = store.next_epoch();
        store.publish(slot, snap("v", &[(&[1], 6), (&[2], 7)]));
        assert!(epoch >= 1);
        assert!(matches!(store.acquire(slot), SnapshotAccess::Published(_)));
        assert_eq!(store.published_entries(), 2);

        store.evict(slot);
        assert!(matches!(store.acquire(slot), SnapshotAccess::Dropped));
        assert_eq!(store.find("v"), None);
        assert!(matches!(store.acquire(99), SnapshotAccess::Unknown));
    }

    #[test]
    fn acquired_snapshots_survive_later_publications_and_evictions() {
        let store = SnapshotStore::new();
        let slot = store.register(snap("v", &[(&[1], 5)]));
        let held = match store.acquire(slot) {
            SnapshotAccess::Published(s) => s,
            other => panic!("{other:?}"),
        };
        store.publish(slot, snap("v", &[(&[1], 99)]));
        store.evict(slot);
        // The handle acquired earlier still reads its point-in-time data.
        assert_eq!(held.value(&key(&[1])), Number::Int(5));
    }

    /// A delta over `(key, before, after)` triples, keys ascending.
    fn delta(changes: &[(&[i64], i64, i64)]) -> OutputDelta {
        let arity = changes.first().map_or(1, |(k, _, _)| k.len());
        let mut d = OutputDelta::with_capacity(arity, changes.len());
        for (k, before, after) in changes {
            d.push(&key(k), Number::Int(*before), Number::Int(*after));
        }
        d
    }

    fn table_of(entries: &[(&[i64], i64)]) -> BTreeMap<Vec<Value>, Number> {
        entries
            .iter()
            .map(|(k, v)| (key(k), Number::Int(*v)))
            .collect()
    }

    #[test]
    fn merging_tombstones_hides_removed_groups_everywhere() {
        // A wide base keeps the two small deltas below the fold threshold.
        let entries: Vec<(Vec<i64>, i64)> =
            (0..50).map(|i| (vec![i / 10, i % 10], i + 1)).collect();
        let refs: Vec<(&[i64], i64)> = entries.iter().map(|(k, v)| (k.as_slice(), *v)).collect();
        let s0 = snap("v", &refs);
        // Remove (1, 3), change (1, 4), add (1, 99).
        let s1 = s0.merged(
            2,
            1,
            &delta(&[(&[1, 3], 14, 0), (&[1, 4], 15, 7), (&[1, 99], 0, 5)]),
        );
        assert_eq!(
            s1.runs(),
            (50, 3),
            "the base is shared, the delta is the recent run"
        );
        assert!(Arc::ptr_eq(&s0.inner.base, &s1.inner.base));
        assert_eq!(s1.len(), 50);
        assert_eq!(
            s1.get(&key(&[1, 3])),
            None,
            "a tombstone hides the base entry"
        );
        assert_eq!(s1.get(&key(&[1, 4])), Some(Number::Int(7)));
        assert_eq!(s1.get(&key(&[1, 99])), Some(Number::Int(5)));
        assert_eq!(s1.get(&key(&[1, 5])), Some(Number::Int(16)));
        let scanned: Vec<(Vec<Value>, Number)> = s1
            .prefix_scan(&key(&[1]))
            .map(|(k, v)| (k.to_vec(), v))
            .collect();
        let mut want = table_of(&refs);
        want.remove(&key(&[1, 3]));
        want.insert(key(&[1, 4]), Number::Int(7));
        want.insert(key(&[1, 99]), Number::Int(5));
        let want_scan: Vec<(Vec<Value>, Number)> = want
            .iter()
            .filter(|(k, _)| k[0] == Value::int(1))
            .map(|(k, v)| (k.clone(), *v))
            .collect();
        assert_eq!(scanned, want_scan);
        assert_eq!(s1.table(), want);
        // Re-inserting the removed group overrides its tombstone in the recent run.
        let s2 = s1.merged(3, 2, &delta(&[(&[1, 3], 0, 9)]));
        assert_eq!(s2.runs(), (50, 3));
        assert_eq!(s2.get(&key(&[1, 3])), Some(Number::Int(9)));
        assert_eq!(s2.len(), 51);
        // The predecessors are untouched.
        assert_eq!(s0.table(), table_of(&refs));
        assert_eq!(s1.table(), want);
    }

    #[test]
    fn an_oversized_recent_run_folds_into_a_new_base() {
        let s0 = snap("v", &[(&[1], 1), (&[2], 2), (&[3], 3), (&[4], 4)]);
        // |recent| = 3 > sqrt(2 * 4 * 1)? 9 > 8: the third one-key commit folds.
        let s1 = s0.merged(2, 1, &delta(&[(&[2], 2, 0)]));
        let s2 = s1.merged(3, 2, &delta(&[(&[5], 0, 5)]));
        assert_eq!(s2.runs(), (4, 2));
        let s3 = s2.merged(4, 3, &delta(&[(&[1], 1, 10)]));
        assert_eq!(
            s3.runs(),
            (4, 0),
            "folded: tombstone dropped, overrides applied"
        );
        assert!(!Arc::ptr_eq(&s2.inner.base, &s3.inner.base));
        assert_eq!(s3.len(), 4);
        assert_eq!(
            s3.table(),
            table_of(&[(&[1], 10), (&[3], 3), (&[4], 4), (&[5], 5)])
        );
        // The snapshot held across the fold still reads its own state.
        assert_eq!(
            s2.table(),
            table_of(&[(&[1], 1), (&[3], 3), (&[4], 4), (&[5], 5)])
        );
        assert_eq!(s2.get(&key(&[2])), None);
        // An empty delta republishes the same runs.
        let s4 = s3.merged(5, 3, &OutputDelta::default());
        assert!(Arc::ptr_eq(&s3.inner.base, &s4.inner.base));
        assert!(Arc::ptr_eq(&s3.inner.recent, &s4.inner.recent));
        assert_eq!((s4.epoch(), s4.len()), (5, 4));
    }

    #[test]
    fn arity_zero_views_and_empty_starts_merge_like_any_other() {
        let empty = ViewSnapshot::new(Arc::from("total"), 0, 0, Vec::new());
        let s1 = empty.merged(1, 1, &delta(&[(&[], 0, 42)]));
        assert_eq!(s1.get(&[]), Some(Number::Int(42)));
        assert_eq!(
            (s1.len(), s1.runs()),
            (1, (1, 0)),
            "an empty base folds at once"
        );
        let s2 = s1.merged(2, 2, &delta(&[(&[], 42, 0)]));
        assert_eq!(s2.get(&[]), None);
        assert!(s2.is_empty());
        assert_eq!(s2.iter().count(), 0);
        assert_eq!(s2.prefix_scan(&[]).count(), 0);
    }

    #[test]
    fn the_recent_filter_keeps_every_key_and_rules_out_most_others() {
        let mut run = Run::with_capacity(2, 1_000);
        for i in 0..1_000 {
            run.push(&key(&[i, 2 * i]), Number::Int(1));
        }
        let filter = KeyFilter::new(&run);
        assert!((0..1_000).all(|i| filter.may_contain(&key(&[i, 2 * i]))));
        let false_hits = (0..10_000)
            .filter(|&i| filter.may_contain(&key(&[i, 2 * i + 1])))
            .count();
        assert!(
            false_hits < 1_000,
            "{false_hits} of 10 000 absent keys passed"
        );
        assert!(!KeyFilter::default().may_contain(&key(&[1, 2])));
    }

    #[test]
    fn names_resolve_to_the_newest_live_slot() {
        let store = SnapshotStore::new();
        let first = store.register(snap("v", &[(&[1], 5)]));
        store.register_dropped();
        store.evict(first);
        assert_eq!(store.find("v"), None);
        let second = store.register(snap("v", &[(&[1], 6)]));
        assert_eq!(store.find("v"), Some(second));
        // Evicting the old slot again must not unmap the new one.
        store.evict(first);
        assert_eq!(store.find("v"), Some(second));
        assert_eq!(store.len(), 3);
    }
}
