//! Property tests for the [`dbring::Ring`] engine's two load-bearing equivalences,
//! across both storage backends:
//!
//! 1. **Late-registration backfill**: a view created after N random updates must equal
//!    the same view replayed from scratch over those updates — at the registration
//!    point and after arbitrary further maintenance.
//! 2. **Routed shared-batch ingest**: one ring maintaining k views from one chunked
//!    stream must reach exactly the tables *and* `ExecStats` of k independently
//!    maintained views (the amortization moves normalization, never ring work).

use dbring::{
    Catalog, IncrementalView, RingBuilder, StorageBackend, Update, Value, ViewDef, ViewId,
};
use proptest::prelude::*;

fn catalog() -> Catalog {
    let mut c = Catalog::new();
    c.declare("R", &["A", "B"]).unwrap();
    c.declare("S", &["X"]).unwrap();
    c
}

/// The standing views: coverage over probe-only, enumerating, multi-relation and
/// scalar-guard shapes, all integer-valued so tables compare bit-exactly.
const VIEWS: &[(&str, &str)] = &[
    ("r_by_a", "q[a] := Sum(R(a, b) * b)"),
    ("r_selfjoin", "q := Sum(R(a, b) * R(a2, b) * (a = a2))"),
    ("s_count", "q := Sum(S(x))"),
    ("rs_join", "q[a] := Sum(R(a, b) * S(b))"),
];

/// Random single-tuple updates over a small domain (collisions and deletions are
/// common, so consolidation and zero-crossings get exercised).
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

fn backends() -> [StorageBackend; 2] {
    [StorageBackend::Hash, StorageBackend::Ordered]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A view registered after the stream equals the same view replayed from scratch,
    /// on every backend — and the two stay equal under further mixed ingest.
    #[test]
    fn late_registration_equals_replay_from_scratch(
        prefix in prop::collection::vec(arb_update(), 1..50),
        suffix in prop::collection::vec(arb_update(), 0..30),
    ) {
        for backend in backends() {
            let mut ring = RingBuilder::new(catalog()).backend(backend).build();
            ring.apply_batch(&prefix).unwrap();
            let ids: Vec<ViewId> = VIEWS
                .iter()
                .map(|(name, text)| ring.create_view(*name, ViewDef::Agca(text)).unwrap())
                .collect();

            for (i, (name, text)) in VIEWS.iter().enumerate() {
                let mut replayed = IncrementalView::from_agca(&catalog(), text).unwrap();
                replayed.apply_all(&prefix).unwrap();
                prop_assert_eq!(
                    ring.view(ids[i]).unwrap().table(),
                    replayed.table(),
                    "late view {} diverges from replay on {} after backfill",
                    name,
                    backend
                );

                // Further maintenance keeps them in lockstep (half one-update batches,
                // half one batch, over the backfilled state).
                let (head, tail) = suffix.split_at(suffix.len() / 2);
                let mut fork = ring.clone();
                for update in head {
                    fork.apply(update).unwrap();
                }
                fork.apply_batch(tail).unwrap();
                replayed.apply_all(head).unwrap();
                replayed.apply_batch(tail).unwrap();
                prop_assert_eq!(
                    fork.view(ids[i]).unwrap().table(),
                    replayed.table(),
                    "late view {} diverges from replay on {} after further ingest",
                    name,
                    backend
                );
            }
        }
    }

    /// One ring, k views, chunked shared-batch ingest == k independent views, in
    /// tables and exact work counters, on every backend.
    #[test]
    fn routed_shared_batches_equal_independent_views(
        stream in prop::collection::vec(arb_update(), 1..60),
        chunk in 1usize..16,
    ) {
        for backend in backends() {
            let mut ring = RingBuilder::new(catalog()).backend(backend).build();
            let ids: Vec<ViewId> = VIEWS
                .iter()
                .map(|(name, text)| ring.create_view(*name, ViewDef::Agca(text)).unwrap())
                .collect();
            for piece in stream.chunks(chunk) {
                ring.apply_batch(piece).unwrap();
            }
            for (i, (name, text)) in VIEWS.iter().enumerate() {
                let mut solo = IncrementalView::from_agca(&catalog(), text).unwrap();
                for piece in stream.chunks(chunk) {
                    solo.apply_batch(piece).unwrap();
                }
                let hosted = ring.view(ids[i]).unwrap();
                prop_assert_eq!(
                    hosted.table(),
                    solo.table(),
                    "tables diverge for {} on {}",
                    name,
                    backend
                );
                prop_assert_eq!(
                    hosted.stats(),
                    solo.stats(),
                    "work counters diverge for {} on {}",
                    name,
                    backend
                );
            }
        }
    }
}
