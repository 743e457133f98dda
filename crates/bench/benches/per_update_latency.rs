//! Criterion bench: per-update maintenance latency of the lowered (slot-resolved,
//! allocation-lean) executor's single-tuple trigger firing, across initial database
//! sizes. Reference numbers live in `EXPERIMENTS.md` (E8 also records the retired
//! interpreted reference path).
//!
//! Run with: `cargo bench -p dbring-bench --bench per_update_latency`
//! (append `-- lowered` to filter, as CI does).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dbring::{compile, Executor};
use dbring_workloads::{customers_by_nation, self_join_count, WorkloadConfig};
use std::hint::black_box;

type WorkloadMaker = fn(usize) -> dbring_workloads::Workload;

fn bench_per_update(c: &mut Criterion) {
    let cases: Vec<(&str, WorkloadMaker)> = vec![
        ("self_join_count", |n| {
            self_join_count(WorkloadConfig {
                seed: 7,
                initial_size: n,
                stream_length: 512,
                domain_size: 100,
                delete_fraction: 0.2,
            })
        }),
        ("customers_by_nation", |n| {
            customers_by_nation(WorkloadConfig {
                seed: 8,
                initial_size: n,
                stream_length: 512,
                domain_size: 12,
                delete_fraction: 0.2,
            })
        }),
    ];

    let mut group = c.benchmark_group("per_update_latency");
    group.sample_size(20);
    group.warm_up_time(std::time::Duration::from_millis(200));
    group.measurement_time(std::time::Duration::from_secs(1));

    for (name, make) in cases {
        for size in [1_000usize, 10_000] {
            let workload = make(size);
            let program = compile(&workload.catalog, &workload.query).unwrap();

            group.bench_function(BenchmarkId::new(format!("{name}/lowered"), size), |b| {
                let mut exec = Executor::new(program.clone());
                exec.apply_all(&workload.initial).unwrap();
                let mut i = 0usize;
                b.iter(|| {
                    let update = &workload.stream[i % workload.stream.len()];
                    exec.apply(black_box(update)).unwrap();
                    i += 1;
                });
            });
        }
    }

    group.finish();
}

criterion_group!(benches, bench_per_update);
criterion_main!(benches);
