//! Property tests for the snapshot read path: a published [`ViewSnapshot`] is always
//! a *batch-consistent prefix* of the update stream, and once acquired it never
//! changes — no matter the storage backend or a concurrently running writer.
//!
//! 1. **Prefix equivalence**: after every committed batch, each view's snapshot table
//!    equals the table of a plain reference ring that replayed exactly that prefix —
//!    on both the hash and the ordered backend.
//! 2. **Immutability**: snapshots held across later batches still compare equal to
//!    the prefix table they were acquired at.
//! 3. **No torn reads**: with a real writer thread committing batches while reader
//!    threads acquire concurrently, every observed snapshot matches a precomputed
//!    oracle table for its `ingested()` count — a reader can never see half a batch.
//! 4. **Quarantine**: a view poisoned mid-batch surfaces [`Error::ViewPoisoned`] at
//!    snapshot-acquire time, and repairs republish readable snapshots.
//! 5. **Release on drop** (footprint regression): `drop_view` evicts the published
//!    snapshot promptly; only handles already acquired keep the data alive.
//! 6. **Delta publication oracle**: a commit publishes by merging the batch's output
//!    delta into the predecessor snapshot; after every batch that snapshot must read
//!    exactly like a base-only [`ViewSnapshot::new`] built from a full
//!    `output_table()` export — `table`, `len`, `iter` order, prefix scans and point
//!    lookups — on both backends, including arity-0 views, views registered empty or
//!    mid-stream, groups deleted to zero and re-inserted, and batches that straddle a
//!    fold of the recent run into the base. Snapshots held across a fold stay
//!    bit-identical.

use std::collections::BTreeMap;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use dbring::fault::with_fault;
use dbring::{
    Catalog, Error, FaultOp, FaultPlan, FaultStorage, HashViewStorage, Number, Ring, RingBuilder,
    StorageBackend, Update, Value, ViewDef, ViewSnapshot,
};
use proptest::prelude::*;

fn catalog() -> Catalog {
    let mut c = Catalog::new();
    c.declare("R", &["A", "B"]).unwrap();
    c.declare("S", &["X"]).unwrap();
    c
}

/// Probe-only, self-join, single- and multi-relation shapes, all integer-valued so
/// snapshot tables compare bit-exactly against reference tables.
const VIEWS: &[(&str, &str)] = &[
    ("r_by_a", "q[a] := Sum(R(a, b) * b)"),
    ("r_selfjoin", "q := Sum(R(a, b) * R(a2, b) * (a = a2))"),
    ("s_count", "q := Sum(S(x))"),
    ("rs_join", "q[a] := Sum(R(a, b) * S(b))"),
];

fn arb_update() -> impl Strategy<Value = Update> {
    prop_oneof![
        (0i64..4, 0i64..3, any::<bool>()).prop_map(|(a, b, ins)| {
            let values = vec![Value::int(a), Value::int(b)];
            if ins {
                Update::insert("R", values)
            } else {
                Update::delete("R", values)
            }
        }),
        (0i64..3, any::<bool>()).prop_map(|(x, ins)| {
            let values = vec![Value::int(x)];
            if ins {
                Update::insert("S", values)
            } else {
                Update::delete("S", values)
            }
        }),
    ]
}

/// Every backend the snapshot contract must hold on.
const BACKENDS: [StorageBackend; 2] = [StorageBackend::Hash, StorageBackend::Ordered];

fn build_ring(backend: StorageBackend) -> Ring {
    let mut ring = RingBuilder::new(catalog()).backend(backend).build();
    for (name, text) in VIEWS {
        ring.create_view(*name, ViewDef::Agca(text)).unwrap();
    }
    ring
}

type Tables = Vec<(String, BTreeMap<Vec<Value>, Number>)>;

fn reference_tables(ring: &Ring) -> Tables {
    ring.views()
        .map(|v| (v.name().to_string(), v.table()))
        .collect()
}

fn snapshot_tables(ring: &Ring) -> Vec<(String, ViewSnapshot)> {
    VIEWS
        .iter()
        .map(|(name, _)| (name.to_string(), ring.snapshot_named(name).unwrap()))
        .collect()
}

/// Drives properties 1 and 2 for one backend: batch-by-batch prefix equivalence,
/// plus immutability of every snapshot acquired along the way.
fn check_prefix_equivalence(
    backend: StorageBackend,
    updates: &[Update],
    batch_size: usize,
) -> Result<(), TestCaseError> {
    let mut live = build_ring(backend);
    let mut reference = build_ring(backend);
    let _handle = live.reader(); // serving mode on: every commit publishes

    // (snapshot, the prefix table it must keep answering with)
    let mut held: Vec<(ViewSnapshot, BTreeMap<Vec<Value>, Number>)> = Vec::new();
    let mut last_epoch: HashMap<String, u64> = HashMap::new();

    for chunk in updates.chunks(batch_size) {
        live.apply_batch(chunk).unwrap();
        reference.apply_batch(chunk).unwrap();

        let expected = reference_tables(&reference);
        for (name, snapshot) in snapshot_tables(&live) {
            let want = &expected.iter().find(|(n, _)| *n == name).unwrap().1;
            prop_assert_eq!(
                &snapshot.table(),
                want,
                "snapshot of {} diverged from the replayed prefix (backend {:?})",
                name,
                backend
            );
            // Views untouched by the batch keep their (still-current) older
            // publication, so `ingested` may lag but never lead.
            prop_assert!(snapshot.ingested() <= live.updates_ingested());
            let seen = last_epoch.entry(name.clone()).or_insert(0);
            prop_assert!(
                snapshot.epoch() >= *seen,
                "publication epoch of {} went backwards",
                &name
            );
            *seen = snapshot.epoch();
            held.push((snapshot, want.clone()));
        }
    }

    // Property 2: every snapshot acquired above is frozen at its prefix.
    for (snapshot, want) in &held {
        prop_assert_eq!(
            &snapshot.table(),
            want,
            "held snapshot of {} changed under later ingest",
            snapshot.name()
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Properties 1 + 2 over random streams and batch sizes, on both backends.
    #[test]
    fn snapshots_are_immutable_replay_prefixes(
        updates in prop::collection::vec(arb_update(), 1..32),
        batch_size in 1usize..8,
    ) {
        for backend in BACKENDS {
            check_prefix_equivalence(backend, &updates, batch_size)?;
        }
    }
}

/// A deterministic pseudo-random stream (no RNG dependency in the oracle test).
fn synthetic_stream(len: usize) -> Vec<Update> {
    let mut state = 0x2545F4914F6CDD1Du64;
    (0..len)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let a = ((state >> 33) % 4) as i64;
            let b = ((state >> 21) % 3) as i64;
            match (state >> 13) % 4 {
                0 => Update::delete("R", vec![Value::int(a), Value::int(b)]),
                1 => Update::insert("S", vec![Value::int(b)]),
                2 => Update::delete("S", vec![Value::int(b)]),
                _ => Update::insert("R", vec![Value::int(a), Value::int(b)]),
            }
        })
        .collect()
}

/// Property 3: concurrent readers never observe a torn batch. The oracle maps every
/// committed prefix length to its expected table, computed on a reference ring
/// *before* the live run — so reader assertions race nothing.
#[test]
fn concurrent_readers_see_only_committed_prefixes() {
    const BATCH: usize = 16;
    const STREAM: usize = 960;
    let stream = synthetic_stream(STREAM);

    // Oracle: expected r_by_a table per committed-prefix `updates_ingested` count.
    // The counter advances by normalized batch weight, so it is read off the
    // reference ring rather than recomputed from raw chunk lengths.
    let mut reference = build_ring(StorageBackend::Hash);
    let mut oracle: HashMap<u64, BTreeMap<Vec<Value>, Number>> = HashMap::new();
    oracle.insert(0, reference.view_named("r_by_a").unwrap().table());
    for chunk in stream.chunks(BATCH) {
        reference.apply_batch(chunk).unwrap();
        oracle.insert(
            reference.updates_ingested(),
            reference.view_named("r_by_a").unwrap().table(),
        );
    }
    let final_ingested = reference.updates_ingested();
    let oracle = Arc::new(oracle);

    let mut live = build_ring(StorageBackend::Hash);
    let handle = live.reader();
    let done = Arc::new(AtomicBool::new(false));

    let readers: Vec<_> = (0..4)
        .map(|_| {
            let handle = handle.clone();
            let done = Arc::clone(&done);
            let oracle = Arc::clone(&oracle);
            std::thread::spawn(move || {
                let mut observed = 0usize;
                let mut last_ingested = 0u64;
                while !done.load(Ordering::Relaxed) {
                    let snapshot = handle.snapshot_named("r_by_a").unwrap();
                    let expected = oracle.get(&snapshot.ingested()).unwrap_or_else(|| {
                        panic!(
                            "snapshot at ingested={} is not a committed prefix",
                            snapshot.ingested()
                        )
                    });
                    assert_eq!(
                        &snapshot.table(),
                        expected,
                        "torn read at ingested={}",
                        snapshot.ingested()
                    );
                    assert!(snapshot.ingested() >= last_ingested);
                    last_ingested = snapshot.ingested();
                    observed += 1;
                }
                observed
            })
        })
        .collect();

    for chunk in stream.chunks(BATCH) {
        live.apply_batch(chunk).unwrap();
    }
    done.store(true, Ordering::Relaxed);
    let total: usize = readers.into_iter().map(|r| r.join().unwrap()).sum();
    assert!(total > 0, "readers never ran");
    assert_eq!(
        handle.snapshot_named("r_by_a").unwrap().table(),
        oracle[&final_ingested],
        "final snapshot != full replay"
    );
}

/// Property 4: a poisoned view surfaces `ViewPoisoned` at acquire time; healthy
/// siblings keep serving; repair republishes a readable snapshot.
#[test]
fn poisoned_views_refuse_snapshot_acquire_until_repaired() {
    let mut ring = RingBuilder::new(catalog()).build();
    let poisoned_id = ring
        .create_view_with::<FaultStorage<HashViewStorage>>("r_by_a", ViewDef::Agca(VIEWS[0].1))
        .unwrap();
    ring.create_view("s_count", ViewDef::Agca(VIEWS[2].1))
        .unwrap();
    let handle = ring.reader();

    let healthy = vec![
        Update::insert("R", vec![Value::int(1), Value::int(2)]),
        Update::insert("S", vec![Value::int(2)]),
    ];
    ring.apply_batch(&healthy).unwrap();
    let pre_poison = handle.snapshot_named("r_by_a").unwrap();

    // Panic r_by_a's storage at its batch flush: the batch lands nowhere and the
    // view is quarantined. (The flush is the one storage operation every batch is
    // guaranteed to perform on this trigger shape.)
    let batch = vec![Update::insert("R", vec![Value::int(2), Value::int(1)])];
    let outcome = with_fault(FaultPlan::new(FaultOp::ApplySorted, 0), || {
        ring.apply_batch(&batch)
    });
    assert!(outcome.is_err(), "injected panic must fail the batch");

    assert!(
        matches!(
            handle.snapshot_named("r_by_a"),
            Err(Error::ViewPoisoned { .. })
        ),
        "poisoned view must refuse snapshot acquire"
    );
    // The snapshot acquired before the poisoning still serves its old prefix.
    assert_eq!(pre_poison.value(&[Value::int(1)]), Number::Int(2));
    // Healthy siblings are unaffected.
    assert_eq!(
        handle.snapshot_named("s_count").unwrap().value(&[]),
        Number::Int(1)
    );

    let id = poisoned_id;
    ring.repair_view(id).unwrap();
    assert_eq!(
        handle
            .snapshot_named("r_by_a")
            .unwrap()
            .value(&[Value::int(1)]),
        Number::Int(2),
        "repair must republish a readable snapshot"
    );
}

/// Property 5 (footprint regression): `drop_view` releases the published snapshot
/// promptly — the store's footprint returns to zero even while an already-acquired
/// handle keeps its own (Arc-held) copy alive and readable.
#[test]
fn drop_view_releases_published_snapshots() {
    let mut ring = RingBuilder::new(catalog()).build();
    let id = ring
        .create_view("r_by_a", ViewDef::Agca(VIEWS[0].1))
        .unwrap();
    let handle = ring.reader();

    let batch: Vec<Update> = (0..8)
        .map(|i| Update::insert("R", vec![Value::int(i % 4), Value::int(1 + i % 2)]))
        .collect();
    ring.apply_batch(&batch).unwrap();

    assert!(ring.snapshot_footprint() > 0, "published entries expected");
    let held = handle.snapshot_named("r_by_a").unwrap();
    let held_table = held.table();
    assert!(!held_table.is_empty());

    ring.drop_view(id).unwrap();
    assert_eq!(
        ring.snapshot_footprint(),
        0,
        "drop_view must evict the published snapshot"
    );
    assert!(matches!(
        handle.snapshot_named("r_by_a"),
        Err(Error::UnknownView { .. })
    ));
    // The acquired handle's data is Arc-held: still readable, still frozen.
    assert_eq!(held.table(), held_table);

    // Recreating a view after the drop serves fresh snapshots again.
    ring.create_view("r_by_a", ViewDef::Agca(VIEWS[0].1))
        .unwrap();
    ring.apply_batch(&batch).unwrap();
    assert!(ring.snapshot_footprint() > 0);
    assert!(handle.snapshot_named("r_by_a").is_ok());
}

/// The views of property 6: [`VIEWS`] plus an arity-2 view, so prefix scans cover
/// proper prefixes and the wider key domain makes folds frequent.
const DELTA_VIEWS: &[(&str, &str)] = &[
    ("r_by_a", "q[a] := Sum(R(a, b) * b)"),
    ("r_selfjoin", "q := Sum(R(a, b) * R(a2, b) * (a = a2))"),
    ("s_count", "q := Sum(S(x))"),
    ("rs_join", "q[a] := Sum(R(a, b) * S(b))"),
    ("r_pairs", "q[a, b] := Sum(R(a, b))"),
];

/// A view created once the ring is already serving and has ingested half the stream.
const LATE_VIEW: (&str, &str) = ("r_pairs_late", "q[b, a] := Sum(R(a, b))");

/// Everything a reader can observe of a snapshot, with values rendered exactly
/// (`Int` and `Float` apart), plus every prefix scan and point lookup over `probes`.
fn observe(snapshot: &ViewSnapshot, probes: &[Vec<Value>]) -> String {
    let entries: Vec<(Vec<Value>, Number)> =
        snapshot.iter().map(|(k, v)| (k.to_vec(), v)).collect();
    let mut out = format!("len {} entries {:?}\n", snapshot.len(), entries);
    for probe in probes {
        for cut in 0..=probe.len() {
            let scan: Vec<(Vec<Value>, Number)> = snapshot
                .prefix_scan(&probe[..cut])
                .map(|(k, v)| (k.to_vec(), v))
                .collect();
            out += &format!("scan {:?} {:?}\n", &probe[..cut], scan);
        }
        out += &format!("get {:?} {:?}\n", probe, snapshot.get(probe));
    }
    out
}

/// Probe keys of the given arity over a domain a little wider than the streams',
/// so lookups hit present, removed and never-present groups.
fn probes(arity: usize) -> Vec<Vec<Value>> {
    let mut keys = vec![Vec::new()];
    for _ in 0..arity {
        keys = keys
            .into_iter()
            .flat_map(|k| {
                (-1i64..6).map(move |x| {
                    let mut k = k.clone();
                    k.push(Value::int(x));
                    k
                })
            })
            .collect();
    }
    keys
}

/// The group-key arity of a property-6 view.
fn view_arity(name: &str) -> usize {
    match name {
        "r_selfjoin" | "s_count" => 0,
        "r_by_a" | "rs_join" => 1,
        _ => 2,
    }
}

/// How one view's publications looked over a run.
#[derive(Default)]
struct Layout {
    /// Commits that published a non-empty recent run over the shared base.
    layered: usize,
    /// Commits whose recent run was folded into a new base.
    folds: usize,
}

/// Drives property 6 on one backend; returns the per-view publication layouts seen.
fn check_delta_publication(
    backend: StorageBackend,
    updates: &[Update],
    batch_size: usize,
) -> Result<HashMap<String, Layout>, TestCaseError> {
    let mut ring = RingBuilder::new(catalog()).backend(backend).build();
    for (name, text) in DELTA_VIEWS {
        ring.create_view(*name, ViewDef::Agca(text)).unwrap();
    }
    // Serving starts on the empty ring: every view is registered empty and then
    // filled by deltas alone.
    let handle = ring.reader();
    let mut names: Vec<&str> = DELTA_VIEWS.iter().map(|(name, _)| *name).collect();
    let mut layouts: HashMap<String, Layout> = HashMap::new();
    let mut last_runs: HashMap<String, (usize, usize)> = HashMap::new();
    // Every snapshot acquired, with what it showed when it was acquired.
    let mut held: Vec<(ViewSnapshot, String)> = Vec::new();
    let chunks: Vec<&[Update]> = updates.chunks(batch_size).collect();
    for (i, chunk) in chunks.iter().enumerate() {
        if i == chunks.len() / 2 {
            ring.create_view(LATE_VIEW.0, ViewDef::Agca(LATE_VIEW.1))
                .unwrap();
            names.push(LATE_VIEW.0);
        }
        ring.apply_batch(chunk).unwrap();
        for &name in &names {
            let published = handle.snapshot_named(name).unwrap();
            let full = ViewSnapshot::new(
                Arc::from(name),
                0,
                0,
                ring.view_named(name).unwrap().table().into_iter().collect(),
            );
            let probes = probes(view_arity(name));
            let seen = observe(&published, &probes);
            prop_assert_eq!(
                &seen,
                &observe(&full, &probes),
                "delta-published snapshot of {} != full export (backend {:?}, batch {})",
                name,
                backend,
                i
            );
            prop_assert_eq!(published.table(), full.table());
            let layout = layouts.entry(name.to_string()).or_default();
            let runs = published.runs();
            let before = last_runs.insert(name.to_string(), runs).unwrap_or((0, 0));
            if runs.1 > 0 {
                layout.layered += 1;
            } else if before.1 > 0 {
                layout.folds += 1;
            }
            held.push((published, seen));
        }
    }
    // Held snapshots — including those acquired just before a fold — are frozen.
    for (snapshot, seen) in &held {
        let probes = probes(view_arity(snapshot.name()));
        prop_assert_eq!(
            &observe(snapshot, &probes),
            seen,
            "held snapshot of {} changed",
            snapshot.name()
        );
    }
    Ok(layouts)
}

/// `updates`, then their negation (every group back to zero), then `updates`
/// again (every group re-inserted).
fn delete_and_reinsert(updates: &[Update]) -> Vec<Update> {
    let negated = updates.iter().map(|u| {
        let mut u = u.clone();
        u.multiplicity = -u.multiplicity;
        u
    });
    updates
        .iter()
        .cloned()
        .chain(negated)
        .chain(updates.iter().cloned())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Property 6 over random streams and batch sizes, on both backends.
    #[test]
    fn delta_published_snapshots_equal_full_exports(
        updates in prop::collection::vec(arb_update(), 1..32),
        batch_size in 1usize..8,
    ) {
        let stream = delete_and_reinsert(&updates);
        for backend in BACKENDS {
            check_delta_publication(backend, &stream, batch_size)?;
        }
    }
}

/// Property 6 on a fixed stream wide enough that the arity-2 view's recent run
/// both layers over the base and folds into it, several times, on both backends.
#[test]
fn delta_publication_straddles_folds() {
    let stream = delete_and_reinsert(&synthetic_stream(160));
    for backend in BACKENDS {
        let layouts = check_delta_publication(backend, &stream, 2).unwrap();
        let pairs = &layouts["r_pairs"];
        assert!(
            pairs.layered > 0 && pairs.folds > 1,
            "expected layered commits and folds on {backend:?}, saw {} and {}",
            pairs.layered,
            pairs.folds
        );
        assert!(layouts[LATE_VIEW.0].folds > 0, "the late view never folded");
    }
}
