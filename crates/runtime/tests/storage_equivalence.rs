//! Equivalence of the hash- and ordered-backed executors, mirroring
//! `lowered_equivalence.rs` one layer down.
//!
//! The [`ViewStorage`] contract promises that a backend only changes *where* entries
//! physically live, never *which* entries a probe or partial-key enumeration sees. If
//! that holds, both executors must produce identical output tables, identical view
//! hierarchies, and — because [`ExecStats`] counts one operation per visited entry —
//! *exactly* equal work counters on every backend, for random mixed-multiplicity traces.
//! (Work parity with the reference interpreter is `lowered_equivalence.rs`'s job; here
//! the lowered executor on the hash backend is the reference for the ordered one.)
//! A backend whose index misses an entry (the `register_index` backfill regression) or
//! whose range scan over- or under-shoots fails these tests, not just a benchmark.

use dbring_agca::ast::Query;
use dbring_agca::eval::eval_all_groups;
use dbring_agca::parser::parse_query;
use dbring_algebra::{Number, Semiring};
use dbring_compiler::compile;
use dbring_relations::{Database, DeltaBatch, Update, Value};
use dbring_runtime::{ExecStats, Executor, HashViewStorage, OrderedViewStorage, ViewStorage};
use proptest::prelude::*;
use std::collections::BTreeMap;

fn catalog() -> Database {
    let mut db = Database::new();
    db.declare("C", &["cid", "nation"]).unwrap();
    db.declare("R", &["A"]).unwrap();
    db
}

/// Queries covering every plan-op shape: probes, enumerates (grouped and ungrouped,
/// prefix and non-prefix slice patterns), guards, and scalar value terms.
fn corpus() -> Vec<Query> {
    [
        "q1[c] := Sum(C(c, n) * C(c2, n))",
        "q2 := Sum(R(x) * R(y) * (x = y))",
        "q3[n] := Sum(C(c, n) * n)",
        "q4 := Sum(C(c, n) * R(n) * (n >= 1))",
    ]
    .iter()
    .map(|text| parse_query(text).unwrap())
    .collect()
}

/// A random update with mixed multiplicities: plain inserts/deletes plus batched
/// |multiplicity| > 1 updates (which the executor must unroll into single-tuple
/// firings).
fn arb_update() -> impl Strategy<Value = Update> {
    prop_oneof![
        (0i64..5, 0i64..3, -2i64..=2).prop_map(|(c, n, m)| Update {
            relation: "C".to_string(),
            values: vec![Value::int(c), Value::int(n)],
            multiplicity: if m == 0 { 1 } else { m },
        }),
        (0i64..4, -3i64..=3).prop_map(|(a, m)| Update {
            relation: "R".to_string(),
            values: vec![Value::int(a)],
            multiplicity: if m == 0 { -1 } else { m },
        }),
    ]
}

/// Drops zero-valued groups (the executors prune them; the evaluator may report them).
fn nonzero(table: BTreeMap<Vec<Value>, Number>) -> BTreeMap<Vec<Value>, Number> {
    table.into_iter().filter(|(_, v)| !v.is_zero()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn hash_and_ordered_backends_agree(
        trace in prop::collection::vec(arb_update(), 1..50),
    ) {
        let catalog = catalog();
        for query in corpus() {
            let program = compile(&catalog, &query).unwrap();
            let mut lowered_hash = Executor::<HashViewStorage>::with_backend(program.clone());
            let mut lowered_ordered = Executor::<OrderedViewStorage>::with_backend(program);
            let mut db = catalog.clone();
            for update in &trace {
                lowered_hash.apply(update).unwrap();
                lowered_ordered.apply(update).unwrap();
                db.apply(update).unwrap();
            }
            // (a) Final-state correctness against from-scratch evaluation.
            let reference = nonzero(eval_all_groups(&query, &db).unwrap());
            prop_assert_eq!(
                nonzero(lowered_ordered.output_table()),
                reference,
                "ordered backend diverged from the reference evaluator on {}",
                &query.name
            );
            // (b) Backend equivalence: tables, hierarchy size, and exactly equal work
            // counters.
            prop_assert_eq!(lowered_hash.output_table(), lowered_ordered.output_table());
            prop_assert_eq!(lowered_hash.total_entries(), lowered_ordered.total_entries());
            prop_assert_eq!(
                lowered_hash.stats(),
                lowered_ordered.stats(),
                "lowered work counters diverged across backends on {}",
                &query.name
            );
            // Entry counts agree across backends even though index layouts differ.
            prop_assert_eq!(
                lowered_hash.storage_footprint().entries,
                lowered_ordered.storage_footprint().entries
            );
        }
    }
}

/// A deterministic Fisher–Yates permutation of a trace, driven by a cheap LCG so the
/// proptest input fully determines the order (the offline proptest stand-in has no
/// `Shuffle` strategy).
fn permute(mut trace: Vec<Update>, mut seed: u64) -> Vec<Update> {
    for i in (1..trace.len()).rev() {
        seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let j = (seed >> 33) as usize % (i + 1);
        trace.swap(i, j);
    }
    trace
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The batch path's correctness bar: `apply_batch` over *any* chunking of *any*
    /// permutation of a mixed-multiplicity trace ends in exactly the tables the
    /// per-tuple `apply_all` reaches, on every backend, and both backends do exactly
    /// the same batch work. (The maintained views depend only on the net delta, which
    /// permutation, chunking and in-batch consolidation all preserve.)
    #[test]
    fn apply_batch_matches_per_tuple_apply_all_across_backends(
        trace in prop::collection::vec(arb_update(), 1..60),
        chunk in 1usize..9,
        perm_seed in 0u64..u64::MAX,
    ) {
        fn batched<S: ViewStorage>(
            program: &dbring_compiler::TriggerProgram,
            chunks: &[&[Update]],
        ) -> Executor<S> {
            let mut exec = Executor::<S>::with_backend(program.clone());
            for chunk in chunks {
                exec.apply_batch(&DeltaBatch::from_updates(*chunk)).unwrap();
            }
            exec
        }
        let catalog = catalog();
        let permuted = permute(trace.clone(), perm_seed);
        let chunks: Vec<&[Update]> = permuted.chunks(chunk).collect();
        for query in corpus() {
            let program = compile(&catalog, &query).unwrap();
            let mut reference = Executor::new(program.clone());
            reference.apply_all(&trace).unwrap();
            let expected = reference.output_table();
            let expected_entries = reference.total_entries();
            let hash = batched::<HashViewStorage>(&program, &chunks);
            let ordered = batched::<OrderedViewStorage>(&program, &chunks);
            prop_assert_eq!(&hash.output_table(), &expected, "hash diverged on {}", &query.name);
            prop_assert_eq!(&ordered.output_table(), &expected, "ordered diverged on {}", &query.name);
            // The whole view hierarchy (not just the output map) converged too.
            prop_assert_eq!(hash.total_entries(), expected_entries);
            prop_assert_eq!(ordered.total_entries(), expected_entries);
            // Both backends account the batch work identically.
            prop_assert_eq!(hash.stats(), ordered.stats());
        }
    }
}

/// Deterministic parity over the synthetic workload streams (larger and more structured
/// than the proptest traces: indexed enumerations, three-way joins, deletes, floats).
#[test]
fn exec_stats_agree_across_backends_on_workload_streams() {
    use dbring_workloads::{customers_by_nation, orders_lineitems, rst_sum_join, WorkloadConfig};
    let config = WorkloadConfig {
        seed: 23,
        initial_size: 120,
        stream_length: 200,
        domain_size: 12,
        delete_fraction: 0.3,
    };
    for workload in [
        customers_by_nation(config),
        rst_sum_join(config),
        orders_lineitems(config),
    ] {
        let program = compile(&workload.catalog, &workload.query).unwrap();
        let mut hash = Executor::<HashViewStorage>::with_backend(program.clone());
        let mut ordered = Executor::<OrderedViewStorage>::with_backend(program);
        for update in workload.initial.iter().chain(&workload.stream) {
            hash.apply(update).unwrap();
            ordered.apply(update).unwrap();
        }
        assert_eq!(
            hash.stats(),
            ordered.stats(),
            "stats diverged on workload {}",
            workload.name
        );
        assert_ne!(
            hash.stats(),
            ExecStats::default(),
            "workload {} did no work",
            workload.name
        );
        assert_eq!(
            hash.output_table(),
            ordered.output_table(),
            "tables diverged on workload {}",
            workload.name
        );
        let (hfp, ofp) = (hash.storage_footprint(), ordered.storage_footprint());
        assert_eq!(hfp.entries, ofp.entries, "{}", workload.name);
        assert!(
            ofp.index_entries <= hfp.index_entries,
            "ordered backend should never carry more index entries ({} vs {}) on {}",
            ofp.index_entries,
            hfp.index_entries,
            workload.name
        );
    }
}

/// The ordered backend preserves the constant-work guarantee: per-update arithmetic ops
/// for a loop-free trigger program stay bounded as the maps grow.
#[test]
fn constant_work_per_update_holds_on_the_ordered_backend() {
    let catalog = catalog();
    let q = parse_query("q2 := Sum(R(x) * R(y) * (x = y))").unwrap();
    let mut exec = Executor::<OrderedViewStorage>::with_backend(compile(&catalog, &q).unwrap());
    let mut worst = 0u64;
    for i in 0..2_000i64 {
        let before = exec.stats().arithmetic_ops();
        exec.apply(&Update::insert("R", vec![Value::int(i % 7)]))
            .unwrap();
        worst = worst.max(exec.stats().arithmetic_ops() - before);
    }
    assert!(worst <= 12, "per-update ops grew to {worst}");
    assert!(exec.total_entries() > 7);
}

/// Initialization from a non-empty database works identically on both backends.
#[test]
fn initialization_matches_streaming_on_the_ordered_backend() {
    let catalog = catalog();
    let query = parse_query("q1[c] := Sum(C(c, n) * C(c2, n))").unwrap();
    let program = compile(&catalog, &query).unwrap();
    let updates: Vec<Update> = (0..30)
        .map(|i| {
            Update::insert(
                "C",
                vec![
                    Value::int(i),
                    Value::str(["FR", "DE", "IT"][(i % 3) as usize]),
                ],
            )
        })
        .collect();
    let mut db = catalog.clone();
    db.apply_all(&updates).unwrap();
    let mut streamed = Executor::<OrderedViewStorage>::with_backend(program.clone());
    streamed.apply_all(&updates).unwrap();
    let mut initialized = Executor::<OrderedViewStorage>::with_backend(program);
    initialized.initialize_from(&db).unwrap();
    assert_eq!(streamed.output_table(), initialized.output_table());
    let more = Update::insert("C", vec![Value::int(100), Value::str("FR")]);
    streamed.apply(&more).unwrap();
    initialized.apply(&more).unwrap();
    assert_eq!(streamed.output_table(), initialized.output_table());
}
