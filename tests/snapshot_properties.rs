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
