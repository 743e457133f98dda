//! The in-process workloads, `ingest` and `serve_wide`: one writer thread in a
//! closed loop of `Ring::apply_batch` calls, and a snapshot reader.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use dbring::{Ring, RingBuilder, RingHandle, Update, ViewDef};

use crate::args::{Args, Workload};
use crate::cpu::Clock;
use crate::data::{catalog, read_key, Inputs, Op, Rng, Table, BATCH, READ_VIEW, VIEWS};
use crate::report::{peak_rss_mb, Rate, Report, Samples};
use crate::{READ_PERCENTILE, WRITE_PERCENTILE};

/// Updates in the initial load.
pub const INITIAL: usize = 200_000;
/// Distinct batches in the measured stream (cycled).
pub const STREAM_BATCHES: usize = 64;
/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 3;
/// Share of `ingest`'s run spent writing; the rest reads the quiescent ring.
pub const INGEST_WRITE_SHARE: f64 = 0.8;

/// The workload's inputs for `seed`.
pub fn inputs(workload: Workload, seed: u64) -> Inputs {
    Inputs::new(seed, workload.customers(), INITIAL, STREAM_BATCHES * BATCH)
}

/// A ring with the default settings and the six views.
pub fn build_ring() -> Ring {
    let mut ring = RingBuilder::new(catalog()).build();
    for (name, sql) in VIEWS {
        ring.create_view(name, ViewDef::Sql(sql))
            .expect("the dashboard views compile against their catalog");
    }
    ring
}

/// Applies `ops` in `BATCH`-sized `apply_batch` calls, handing each batch to
/// `each` after the ring took it. Returns the number of failed batches.
pub fn load(ring: &mut Ring, ops: &[Op], mut each: impl FnMut(&[Update])) -> u64 {
    let mut failed = 0;
    for chunk in ops.chunks(BATCH) {
        let updates: Vec<Update> = chunk.iter().map(Op::update).collect();
        if ring.apply_batch(&updates).is_err() {
            failed += 1;
        }
        each(&updates);
    }
    failed
}

/// The measured stream as ready-made batches.
pub fn stream_batches(inputs: &Inputs) -> Vec<Vec<Update>> {
    inputs
        .stream
        .chunks(BATCH)
        .map(|chunk| chunk.iter().map(Op::update).collect())
        .collect()
}

/// Called after each batch with the ring, the batch's index and updates, and the
/// call's start and latency in ns.
pub type BatchHook<'a> = dyn FnMut(&Ring, usize, &[Update], Instant, u64) + 'a;

/// What the writer loop did.
#[derive(Debug, Default)]
pub struct Writes {
    /// Batches applied (failed ones included).
    pub batches: usize,
    /// Updates handed to the ring in committed batches.
    pub updates: usize,
    /// Latency of each `apply_batch` call.
    pub latency: Samples,
    /// Batches the ring rejected.
    pub failed: u64,
    /// Committed updates per second of the loop.
    pub rate: Rate,
    /// CPU time of each `apply_batch` call: the process's, less the threads the
    /// loop was told to leave out.
    pub cpu: Samples,
    /// CPU time of the committed calls, in all.
    pub cpu_ns: u64,
    /// Wall-clock time of the loop.
    pub elapsed: Duration,
}

/// Applies the cycled stream back to back until `done(batches, elapsed)` holds.
/// Each call's CPU time is the process's less that of the threads in `others`
/// (a reader running beside the loop). `hook` sees each batch after the ring
/// took it, with the call's start and latency.
pub fn write_loop(
    ring: &mut Ring,
    batches: &[Vec<Update>],
    done: impl Fn(usize, Duration) -> bool,
    others: &[Clock],
    hook: &mut BatchHook,
) -> Writes {
    let process = Clock::process();
    let cpu_now = || {
        let others: u64 = others.iter().map(|c| c.now_ns()).sum();
        process.now_ns().wrapping_sub(others)
    };
    let mut out = Writes::default();
    let started = Instant::now();
    out.rate = Rate::default();
    while !done(out.batches, started.elapsed()) {
        let updates = &batches[out.batches % batches.len()];
        let c = cpu_now();
        let t = Instant::now();
        let ok = ring.apply_batch(updates).is_ok();
        let ns = t.elapsed().as_nanos() as u64;
        let cpu = (cpu_now().wrapping_sub(c) as i64).max(0) as u64;
        out.latency.push(ns);
        out.cpu.push(cpu);
        if ok {
            out.updates += updates.len();
            out.rate
                .add(t, t + Duration::from_nanos(ns), updates.len() as u64);
            out.cpu_ns += cpu;
        } else {
            out.failed += 1;
        }
        hook(ring, out.batches, updates, t, ns);
        out.batches += 1;
    }
    out.elapsed = started.elapsed();
    out
}

/// What a reader loop did.
#[derive(Debug, Default)]
pub struct Reads {
    /// Reads completed.
    pub count: u64,
    /// Reads that failed or returned a wrong value.
    pub failed: u64,
    /// Acquire-by-name plus lookup, per read.
    pub latency: Samples,
    /// Reads per second of the loop.
    pub rate: Rate,
    /// CPU time of the reading thread over the loop.
    pub cpu_ns: u64,
    /// Traced only: `snapshot_named` alone.
    pub by_name: Samples,
    /// Traced only: `snapshot(id)` alone.
    pub by_id: Samples,
    /// Traced only: `get` alone.
    pub get: Samples,
    /// Wall-clock time of the loop.
    pub elapsed: Duration,
    /// The first few failures.
    pub errors: Vec<String>,
}

impl Reads {
    fn fail(&mut self, message: String) {
        self.failed += 1;
        if self.errors.len() < 5 {
            self.errors.push(message);
        }
    }
}

/// Reads `READ_VIEW` at uniform keys until `stop()`: acquire by name, then look up.
/// Checks that `ingested()` never goes backwards and, when `expected` is given
/// (the ring is quiescent), that every value equals it. With `traced`, also
/// times acquire-by-name, acquire-by-id and lookup separately.
pub fn read_loop(
    handle: &RingHandle,
    customers: i64,
    seed: u64,
    expected: Option<&Table>,
    traced: bool,
    stop: &dyn Fn() -> bool,
) -> Reads {
    let mut out = Reads::default();
    let mut rng = Rng::new(seed ^ 0x0DD5_EED5);
    let id = handle.view_id(READ_VIEW);
    let mut last_ingested = 0;
    let cpu = Clock::this_thread();
    let cpu_started = cpu.now_ns();
    let started = Instant::now();
    out.rate = Rate::default();
    while !stop() {
        let key = read_key(&mut rng, customers);
        let t0 = Instant::now();
        let snapshot = match handle.snapshot_named(READ_VIEW) {
            Ok(snapshot) => snapshot,
            Err(e) => {
                out.fail(format!("acquire {READ_VIEW}: {e}"));
                continue;
            }
        };
        let t1 = Instant::now();
        let value = snapshot.get(&key);
        let t2 = Instant::now();
        out.latency.push((t2 - t0).as_nanos() as u64);
        out.rate.add(t0, t2, 1);
        out.count += 1;
        if traced {
            out.by_name.push((t1 - t0).as_nanos() as u64);
            out.get.push((t2 - t1).as_nanos() as u64);
            let t3 = Instant::now();
            let by_id = id.map(|id| handle.snapshot(id));
            out.by_id.push(t3.elapsed().as_nanos() as u64);
            if !matches!(by_id, Some(Ok(_))) {
                out.fail(format!("acquire {READ_VIEW} by id failed"));
            }
        }
        if snapshot.ingested() < last_ingested {
            out.fail(format!(
                "ingested() went back from {last_ingested} to {}",
                snapshot.ingested()
            ));
        }
        last_ingested = snapshot.ingested();
        if let Some(table) = expected {
            if value != table.get(key.as_slice()).copied() {
                out.fail(format!("{READ_VIEW}{key:?} read {value:?}"));
            }
        }
    }
    out.elapsed = started.elapsed();
    out.cpu_ns = cpu.now_ns() - cpu_started;
    out
}

/// Compares every view of `ring` with the oracle over the initial load plus the
/// first `applied` stream updates.
pub fn check_tables(ring: &Ring, inputs: &Inputs, applied: usize, report: &mut Report) {
    match inputs.oracle(applied).tables() {
        Ok(expected) => {
            for (name, _) in VIEWS {
                let got = ring.view_named(name).map(|v| v.table());
                report.check(got.as_ref().ok() == expected.get(name), || {
                    format!("view {name} differs from the oracle")
                });
            }
        }
        Err(e) => report.check(false, || format!("oracle failed: {e}")),
    }
}

/// Builds and loads the ring `SETUPS` times, keeping the last; records `setup_s`,
/// the median CPU time of a set-up (see `crate::cpu`), and notes the wall clock.
pub fn setup(inputs: &Inputs, report: &mut Report) -> Ring {
    let process = Clock::process();
    let mut cpu = Samples::default();
    let mut wall = Samples::default();
    let mut ring = None;
    for _ in 0..SETUPS {
        drop(ring.take());
        let c = process.now_ns();
        let t = Instant::now();
        let mut fresh = build_ring();
        let failed = load(&mut fresh, &inputs.initial, |_| {});
        wall.push(t.elapsed().as_nanos() as u64);
        cpu.push(process.now_ns() - c);
        report.count(inputs.initial.len().div_ceil(BATCH) as u64, failed);
        ring = Some(fresh);
    }
    let median = |s: &Samples| s.quantile(0.5).expect("at least one set-up") / 1e9;
    report.metric("setup_s", median(&cpu), "s");
    report.note("setup_samples", format!("n={}", cpu.len()));
    report.note("setup_wall_s", median(&wall));
    ring.expect("at least one set-up")
}

/// The gating run of `ingest` or `serve_wide`.
pub fn run(args: &Args, report: &mut Report) {
    let inputs = inputs(args.workload, args.seed);
    let batches = stream_batches(&inputs);
    let mut ring = setup(&inputs, report);
    report.note("ingest_threads", ring.ingest_threads());
    let customers = args.workload.customers();
    let (writes, reads) = match args.workload {
        Workload::Ingest => {
            let write_time = args.seconds.mul_f64(INGEST_WRITE_SHARE);
            let writes = write_loop(
                &mut ring,
                &batches,
                |_, e| e >= write_time,
                &[],
                &mut |_, _, _, _, _| {},
            );
            let table = ring
                .view_named(READ_VIEW)
                .map(|v| v.table())
                .unwrap_or_default();
            let handle = ring.reader();
            let read_time = args.seconds - write_time;
            let started = Instant::now();
            let reads = read_loop(&handle, customers, args.seed, Some(&table), false, &|| {
                started.elapsed() >= read_time
            });
            (writes, reads)
        }
        Workload::ServeWide => {
            let seconds = args.seconds;
            serve_wide(
                &mut ring,
                &batches,
                |_, elapsed| elapsed >= seconds,
                (customers, args.seed),
                false,
                &mut |_, _, _, _, _| {},
                report,
            )
        }
        Workload::Tcp => unreachable!("tcp runs over the wire"),
    };
    finish(&ring, &inputs, &writes, &reads, report);
}

/// `serve_wide`'s measured phase: a reader thread of `(customers, seed)` beside
/// the writer loop, until `done`. Checks that a snapshot held from the start
/// never changes.
pub fn serve_wide(
    ring: &mut Ring,
    batches: &[Vec<Update>],
    done: impl Fn(usize, Duration) -> bool,
    (customers, seed): (i64, u64),
    traced: bool,
    hook: &mut BatchHook,
    report: &mut Report,
) -> (Writes, Reads) {
    let handle = ring.reader();
    let held = handle.snapshot_named(READ_VIEW);
    let held_copy = held.as_ref().map(|s| (s.table(), s.ingested(), s.epoch()));
    let stop = AtomicBool::new(false);
    let (writes, reads) = std::thread::scope(|scope| {
        let (clock_tx, clock_rx) = std::sync::mpsc::channel();
        let (handle, stop) = (&handle, &stop);
        let reader = scope.spawn(move || {
            clock_tx
                .send(Clock::of_this_thread())
                .expect("the writer waits for the reader's clock");
            read_loop(handle, customers, seed, None, traced, &|| {
                stop.load(Ordering::Relaxed)
            })
        });
        let reader_clock = clock_rx.recv().expect("the reader starts");
        let writes = write_loop(ring, batches, done, &[reader_clock], hook);
        stop.store(true, Ordering::Relaxed);
        (writes, reader.join().expect("reader thread panicked"))
    });
    let unchanged = match (&held, &held_copy) {
        (Ok(s), Ok(copy)) => (s.table(), s.ingested(), s.epoch()) == *copy,
        _ => false,
    };
    report.check(unchanged, || {
        "a held snapshot changed or was not acquired".to_string()
    });
    (writes, reads)
}

/// `n` per second of `cpu_ns`.
fn per_cpu_second(n: usize, cpu_ns: u64) -> f64 {
    n as f64 * 1e9 / cpu_ns as f64
}

/// Checks the final state and records the end-to-end metrics shared by both
/// in-process workloads.
pub fn finish(ring: &Ring, inputs: &Inputs, writes: &Writes, reads: &Reads, report: &mut Report) {
    report.count(writes.batches as u64, writes.failed);
    report.count(reads.count + reads.failed, reads.failed);
    for e in &reads.errors {
        report.fail(e.clone());
    }
    if writes.failed > 0 {
        report.fail(format!("{} batches failed", writes.failed));
    }
    report.metric("peak_rss_mb", peak_rss_mb(false), "MB");
    check_tables(ring, inputs, writes.batches * BATCH, report);
    if ring.serving() {
        let published = ring.snapshot_named(READ_VIEW).map(|s| s.table());
        let live = ring.view_named(READ_VIEW).map(|v| v.table());
        report.check(published.ok() == live.ok(), || {
            "the last published snapshot differs from the view".to_string()
        });
    }
    // Throughput and batch time are CPU time (see `crate::cpu`), over the whole
    // run: a median over windows would jump between the host's fast and slow
    // levels. A read is far shorter than a scheduler slice, so its wall-clock
    // latency rarely contains a lost core.
    report.metric(
        "upd_per_s",
        per_cpu_second(writes.updates, writes.cpu_ns),
        "1/s",
    );
    report.latency("write", &writes.cpu, WRITE_PERCENTILE, 1e3, "us");
    report.metric(
        "reads_per_s",
        per_cpu_second(reads.count as usize, reads.cpu_ns),
        "1/s",
    );
    report.latency("read", &reads.latency, READ_PERCENTILE, 1.0, "ns");
    let wall_us = |q| writes.latency.quantile(q).map_or(f64::NAN, |ns| ns / 1e3);
    report.note(
        "wall_clock",
        format!(
            "upd_per_s={} write_p50_us={} write_p95_us={} reads_per_s={}",
            writes.rate.per_second(writes.elapsed),
            wall_us(0.5),
            wall_us(0.95),
            reads.rate.per_second(reads.elapsed),
        ),
    );
    report.note("upd_per_s_by_second", writes.rate.seconds(writes.elapsed));
    report.note("reads_per_s_by_second", reads.rate.seconds(reads.elapsed));
    report.note("batches", writes.batches);
    report.note("reads", reads.count);
}
