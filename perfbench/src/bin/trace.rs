//! The traced run: one workload's per-layer metrics.
//!
//! ```text
//! perfbench-trace --workload ingest|serve_wide|tcp --seed N --seconds S
//!                 [--server PATH] [--spans PATH]
//! ```
//!
//! Spans are recorded only here, around calls into each layer. A shadow pipeline
//! replays every batch the real ring takes through the layers' public functions:
//! `BatchNormalizer::normalize`, `EngineRegistry::apply_batch`, a sequential
//! per-engine `stage_batch`/`commit_staged` on cloned engines,
//! `Snapshot::apply_delta_batch`, and `output_table` + `ViewSnapshot::new` +
//! `SnapshotStore::publish` for the touched slots. The run fails unless the shadow
//! ends with the real ring's tables and exact `ExecStats`.

use std::fs::File;
use std::io::{BufWriter, Write};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dbring::{
    boxed_engine, compile, eval_all_groups, parse_sql, BatchNormalizer, EngineRegistry, ExecStats,
    ParallelConfig, Ring, SnapshotStore, StorageBackend, Update, ViewEngine, ViewSnapshot,
};
use dbring_perfbench::args::{Args, Workload};
use dbring_perfbench::data::{catalog, Op, BATCH, READ_VIEW, VIEWS};
use dbring_perfbench::inproc::{self, Reads, Writes};
use dbring_perfbench::report::{Report, Samples};
use dbring_perfbench::wire::Conn;
use dbring_perfbench::{main_with, tcp, COUNT_BATCHES};
use dbring_relations::Snapshot;

/// Share of the write time spent untraced on a clone, for `trace_overhead`.
const UNTRACED_SHARE: f64 = 0.3;
/// Single-request probes per kind on `tcp`.
const PROBES: usize = 16;
/// Stream updates the `tcp` run replays in process.
const REPLAY_UPDATES: usize = 4_096;
/// How long the `tcp` run reads its in-process replay ring.
const REPLAY_READ: Duration = Duration::from_millis(500);

/// One timed interval at a layer boundary.
struct Span {
    name: &'static str,
    parent: Option<usize>,
    /// The batch or request the span belongs to.
    id: u64,
    start: Instant,
    end: Instant,
}

/// Spans kept in memory and written out when the run ends.
struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Records a finished span and returns its index.
    fn record(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        id: u64,
        start: Instant,
        end: Instant,
    ) -> usize {
        self.spans.push(Span {
            name,
            parent,
            id,
            start,
            end,
        });
        self.spans.len() - 1
    }

    /// Opens a span that [`Tracer::close`] ends.
    fn open(&mut self, name: &'static str, parent: Option<usize>, id: u64) -> usize {
        let now = Instant::now();
        self.record(name, parent, id, now, now)
    }

    fn close(&mut self, span: usize) {
        self.spans[span].end = Instant::now();
    }

    /// Each span's duration minus the part its children cover.
    fn self_times(&self) -> Vec<u64> {
        let mut out: Vec<u64> = self
            .spans
            .iter()
            .map(|s| (s.end - s.start).as_nanos() as u64)
            .collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                out[p] = out[p].saturating_sub((s.end - s.start).as_nanos() as u64);
            }
        }
        out
    }

    /// Total self time per span name.
    fn self_total(&self, name: &str) -> u64 {
        let times = self.self_times();
        self.spans
            .iter()
            .zip(times)
            .filter(|(s, _)| s.name == name)
            .map(|(_, t)| t)
            .sum()
    }

    /// Writes `index parent name id start_ns end_ns self_ns` lines.
    fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = BufWriter::new(File::create(path)?);
        writeln!(out, "index\tparent\tname\tid\tstart_ns\tend_ns\tself_ns")?;
        for (i, (s, self_ns)) in self.spans.iter().zip(self.self_times()).enumerate() {
            let parent = s.parent.map_or(String::from("-"), |p| p.to_string());
            writeln!(
                out,
                "{i}\t{parent}\t{}\t{}\t{}\t{}\t{self_ns}",
                s.name,
                s.id,
                (s.start - self.epoch).as_nanos(),
                (s.end - self.epoch).as_nanos()
            )?;
        }
        out.flush()
    }
}

/// Counts taken over a fixed prefix of batches, so they repeat exactly.
#[derive(Debug, Default)]
struct Counts {
    updates: u64,
    distinct: u64,
    copied: u64,
    ops: u64,
    bindings: u64,
    entries: usize,
    support: usize,
    published: usize,
}

/// The layers replayed through their own public functions.
struct Shadow {
    normalizer: BatchNormalizer,
    registry: EngineRegistry,
    /// Clones of the registry's engines, applied one by one.
    sequential: Vec<Box<dyn ViewEngine>>,
    base: Snapshot,
    store: SnapshotStore,
    /// What `store` holds, kept for the final comparison.
    published: Vec<ViewSnapshot>,
    names: Vec<Arc<str>>,
    serving: bool,
    ingested: u64,
    distinct: u64,
    copied: u64,
    failed: u64,
}

impl Shadow {
    /// The six views on the ring's default engine and dispatch settings.
    fn new() -> Shadow {
        let catalog = catalog();
        let mut registry = EngineRegistry::with_parallelism(ParallelConfig::default());
        let store = SnapshotStore::new();
        let mut published = Vec::new();
        let mut names = Vec::new();
        for (name, sql) in VIEWS {
            let query = parse_sql(sql, &catalog).expect("dashboard SQL parses");
            let program = compile(&catalog, &query).expect("dashboard views compile");
            registry.register(boxed_engine(program, StorageBackend::Hash));
            let empty = ViewSnapshot::new(Arc::from(name), 0, 0, Vec::new());
            store.register(empty.clone());
            published.push(empty);
            names.push(Arc::from(name));
        }
        Shadow {
            normalizer: BatchNormalizer::new(),
            registry,
            sequential: Vec::new(),
            base: Snapshot::new(),
            store,
            published,
            names,
            serving: false,
            ingested: 0,
            distinct: 0,
            copied: 0,
            failed: 0,
        }
    }

    /// Applies a set-up batch untimed, on the registry and base only.
    fn load(&mut self, updates: &[Update]) {
        let batch = self.normalizer.normalize(updates);
        if self.registry.apply_batch(&batch).is_err() {
            self.failed += 1;
        }
        self.base.apply_delta_batch(&batch);
        self.ingested += batch.total_weight();
    }

    /// Clones the registry's engines for the sequential replay.
    fn fork_sequential(&mut self) {
        self.sequential = self
            .registry
            .engines()
            .map(|(_, e)| e.boxed_clone())
            .collect();
    }

    /// Publishes every view, as the ring does when serving starts.
    fn start_serving(&mut self) {
        self.serving = true;
        let all: Vec<u32> = (0..self.names.len() as u32).collect();
        self.publish(&all);
    }

    fn publish(&mut self, slots: &[u32]) {
        let epoch = self.store.next_epoch();
        for &slot in slots {
            let engine = self.registry.engine(slot).expect("shadow slots stay live");
            let entries: Vec<_> = engine.output_table().into_iter().collect();
            self.copied += entries.len() as u64;
            let name = Arc::clone(&self.names[slot as usize]);
            let snapshot = ViewSnapshot::new(name, epoch, self.ingested, entries);
            self.store.publish(slot, snapshot.clone());
            self.published[slot as usize] = snapshot;
        }
    }

    /// Replays one batch through every layer, recording a span per layer call.
    fn step(&mut self, updates: &[Update], id: u64, tracer: &mut Tracer) {
        let root = tracer.open("shadow.batch", None, id);
        let s = tracer.open("relations.intern.normalize", Some(root), id);
        let batch = self.normalizer.normalize(updates);
        tracer.close(s);
        self.distinct += batch.len() as u64;

        let s = tracer.open("runtime.registry.apply_batch", Some(root), id);
        let applied = self.registry.apply_batch(&batch);
        tracer.close(s);
        if applied.is_err() {
            self.failed += 1;
        }

        let mut touched: Vec<u32> = Vec::new();
        for group in batch.groups() {
            touched.extend_from_slice(self.registry.readers_of(group.relation()));
        }
        touched.sort_unstable();
        touched.dedup();

        let seq = tracer.open("runtime.executor.sequential", Some(root), id);
        for &slot in &touched {
            let engine = &mut self.sequential[slot as usize];
            let s = tracer.open("runtime.executor.stage_batch", Some(seq), id);
            let staged = engine.stage_batch(&batch);
            tracer.close(s);
            match staged {
                Ok(token) => {
                    let s = tracer.open("runtime.executor.commit_staged", Some(seq), id);
                    engine.commit_staged(token);
                    tracer.close(s);
                }
                Err(_) => self.failed += 1,
            }
        }
        tracer.close(seq);

        let s = tracer.open("relations.snapshot.apply_delta_batch", Some(root), id);
        self.base.apply_delta_batch(&batch);
        tracer.close(s);
        self.ingested += batch.total_weight();

        if self.serving {
            let s = tracer.open("runtime.snapshot.publish", Some(root), id);
            self.publish(&touched);
            tracer.close(s);
        }
        tracer.close(root);
    }
}

fn ring_stats(ring: &Ring) -> Vec<ExecStats> {
    ring.views().map(|v| v.stats()).collect()
}

fn stat_sums(stats: &[ExecStats]) -> (u64, u64) {
    stats.iter().fold((0, 0), |(ops, b), s| {
        (ops + s.arithmetic_ops(), b + s.bindings_enumerated)
    })
}

/// Fails unless the shadow holds exactly the real ring's state: every engine's
/// table and `ExecStats`, the base snapshot's view results, and (when serving)
/// the published tables.
fn check_shadow(
    ring: &Ring,
    shadow: &Shadow,
    expected: &std::collections::BTreeMap<String, dbring_perfbench::data::Table>,
    report: &mut Report,
) {
    report.check(shadow.failed == 0, || {
        format!("{} shadow batches failed", shadow.failed)
    });
    let catalog = catalog();
    let base = shadow.base.to_database(&catalog);
    for (slot, view) in ring.views().enumerate() {
        let name = view.name().to_string();
        let registry = shadow
            .registry
            .engine(slot as u32)
            .expect("shadow slots stay live");
        let sequential = &shadow.sequential[slot];
        report.check(
            registry.output_table() == view.table() && sequential.output_table() == view.table(),
            || format!("shadow tables of {name} differ from the ring"),
        );
        report.check(
            registry.stats() == view.stats() && sequential.stats() == view.stats(),
            || {
                format!(
                    "shadow ExecStats of {name} differ from the ring: {:?} vs {:?}",
                    registry.stats(),
                    view.stats()
                )
            },
        );
        let from_base = base.as_ref().ok().and_then(|db| {
            let query = parse_sql(VIEWS[slot].1, &catalog).ok()?;
            eval_all_groups(&query, db).ok()
        });
        report.check(from_base.as_ref() == expected.get(&name), || {
            format!("shadow base snapshot gives a different {name}")
        });
        if shadow.serving {
            let ours = shadow.published[slot].table();
            let theirs = ring.snapshot(view.id()).ok().map(|s| s.table());
            report.check(theirs == Some(ours), || {
                format!("shadow publication of {name} differs from the ring")
            });
        }
    }
}

/// What the in-process layer run measured.
struct LayerRun {
    traced: Writes,
    untraced: Writes,
    reads: Reads,
    counts: Counts,
    publish_ns: u64,
}

/// When a phase of writes stops.
#[derive(Clone, Copy)]
enum Until {
    /// After this long; when traced, also after at least `COUNT_BATCHES` batches
    /// and an even number of them (the shadow runs batches in pairs).
    Time(Duration),
    /// After exactly this many batches.
    Batches(usize),
}

impl Until {
    fn done(self, traced: bool) -> impl Fn(usize, Duration) -> bool {
        move |n, elapsed| match self {
            Until::Time(t) => elapsed >= t && (!traced || n >= COUNT_BATCHES && n % 2 == 0),
            Until::Batches(b) => n >= b && (!traced || n % 2 == 0),
        }
    }
}

/// How the ring is read.
#[derive(Clone, Copy)]
enum ReadMode {
    /// A reader thread beside the writer (`serve_wide`).
    Concurrent,
    /// After the writes, on the quiescent ring, for this long.
    After(Duration),
}

/// Runs the untraced phase on a clone of `ring` and then the traced phase on
/// `ring` with the shadow replaying each batch; takes exact counts over the first
/// `count_batches` traced batches.
#[allow(clippy::too_many_arguments)]
fn layers(
    ring: &mut Ring,
    shadow: &mut Shadow,
    batches: &[Vec<Update>],
    until: (Until, Until),
    count_batches: usize,
    read: ReadMode,
    args: &Args,
    tracer: &mut Tracer,
    report: &mut Report,
) -> LayerRun {
    let customers = args.workload.customers();
    let mut clone = ring.clone();
    let untraced = match read {
        ReadMode::Concurrent => {
            let reader = (customers, args.seed);
            let noop = &mut |_: &Ring, _, _: &[Update], _, _| {};
            inproc::serve_wide(
                &mut clone,
                batches,
                until.0.done(false),
                reader,
                false,
                noop,
                report,
            )
            .0
        }
        ReadMode::After(_) => inproc::write_loop(
            &mut clone,
            batches,
            until.0.done(false),
            &[],
            &mut |_, _, _, _, _| {},
        ),
    };
    drop(clone);

    shadow.fork_sequential();
    if let ReadMode::Concurrent = read {
        // Serving starts before the first batch, outside its publication time.
        ring.reader();
        shadow.start_serving();
        shadow.copied = 0;
    }
    let stats0 = stat_sums(&ring_stats(ring));
    let publish0 = ring.snapshot_publish_ns();
    let mut counts = Counts::default();
    let mut publish_ns = 0;
    let mut hook = |ring: &Ring, n: usize, updates: &[Update], start: Instant, ns: u64| {
        let id = n as u64;
        tracer.record(
            "core.ring.apply_batch",
            None,
            id,
            start,
            start + Duration::from_nanos(ns),
        );
        // The shadow takes batches in pairs, the second before the ring does, so
        // the ring and the shadow each run half their batches on warm caches.
        if n.is_multiple_of(2) {
            shadow.step(updates, id, tracer);
            shadow.step(&batches[(n + 1) % batches.len()], id + 1, tracer);
        }
        if n + 1 == count_batches {
            let (ops, bindings) = stat_sums(&ring_stats(ring));
            counts = Counts {
                updates: (count_batches * updates.len()) as u64,
                distinct: shadow.distinct,
                copied: shadow.copied,
                ops: ops - stats0.0,
                bindings: bindings - stats0.1,
                entries: ring.views().map(|v| v.total_entries()).sum(),
                support: shadow.base.total_support(),
                published: ring.snapshot_footprint(),
            };
        }
    };
    let (traced, reads) = match read {
        ReadMode::Concurrent => {
            let reader = (customers, args.seed);
            inproc::serve_wide(
                ring,
                batches,
                until.1.done(true),
                reader,
                true,
                &mut hook,
                report,
            )
        }
        ReadMode::After(read_time) => {
            let writes = inproc::write_loop(ring, batches, until.1.done(true), &[], &mut hook);
            publish_ns = ring.snapshot_publish_ns() - publish0;
            let table = ring
                .view_named(READ_VIEW)
                .map(|v| v.table())
                .unwrap_or_default();
            let handle = ring.reader();
            let started = Instant::now();
            let reads =
                inproc::read_loop(&handle, customers, args.seed, Some(&table), true, &|| {
                    started.elapsed() >= read_time
                });
            (writes, reads)
        }
    };
    if let ReadMode::Concurrent = read {
        publish_ns = ring.snapshot_publish_ns() - publish0;
    }
    LayerRun {
        publish_ns,
        traced,
        untraced,
        reads,
        counts,
    }
}

fn per(value: f64, base: f64) -> f64 {
    if base > 0.0 {
        value / base
    } else {
        0.0
    }
}

/// Turns a layer run into the in-process per-layer metrics.
fn layer_metrics(run: &LayerRun, tracer: &Tracer, report: &mut Report) {
    let upd = run.traced.updates as f64;
    let ring_ns = tracer.self_total("core.ring.apply_batch") as f64;
    let normalize = tracer.self_total("relations.intern.normalize") as f64;
    let registry = tracer.self_total("runtime.registry.apply_batch") as f64;
    let stage = tracer.self_total("runtime.executor.stage_batch") as f64;
    let commit = tracer.self_total("runtime.executor.commit_staged") as f64;
    let base = tracer.self_total("relations.snapshot.apply_delta_batch") as f64;
    let publish = tracer.self_total("runtime.snapshot.publish") as f64;
    let c = &run.counts;
    let cu = c.updates as f64;

    report.metric(
        "relations.intern.normalize_ns_per_upd",
        per(normalize, upd),
        "ns/upd",
    );
    report.metric(
        "relations.intern.distinct_per_upd",
        per(c.distinct as f64, cu),
        "count/upd",
    );
    report.metric(
        "runtime.registry.apply_batch_ns_per_upd",
        per(registry, upd),
        "ns/upd",
    );
    report.metric(
        "runtime.registry.dispatch_overhead_ns_per_upd",
        per(registry - stage - commit, upd),
        "ns/upd",
    );
    report.metric(
        "runtime.executor.stage_ns_per_upd",
        per(stage, upd),
        "ns/upd",
    );
    report.metric(
        "runtime.executor.commit_ns_per_upd",
        per(commit, upd),
        "ns/upd",
    );
    report.metric(
        "runtime.executor.ops_per_upd",
        per(c.ops as f64, cu),
        "ops/upd",
    );
    report.metric(
        "runtime.executor.bindings_per_upd",
        per(c.bindings as f64, cu),
        "count/upd",
    );
    report.metric("runtime.storage.entries", c.entries as f64, "count");
    report.metric(
        "relations.snapshot.apply_ns_per_upd",
        per(base, upd),
        "ns/upd",
    );
    report.metric("relations.snapshot.support", c.support as f64, "count");
    report.metric(
        "runtime.snapshot.publish_ns_per_upd",
        per(run.publish_ns as f64, upd),
        "ns/upd",
    );
    report.metric(
        "runtime.snapshot.publish_share",
        per(run.publish_ns as f64, ring_ns),
        "ratio",
    );
    report.metric(
        "runtime.snapshot.entries_copied_per_upd",
        per(c.copied as f64, cu),
        "count/upd",
    );
    report.metric(
        "runtime.snapshot.published_entries",
        c.published as f64,
        "count",
    );
    report.metric(
        "runtime.snapshot.acquire_by_name_ns",
        run.reads.by_name.quantile(0.5).unwrap_or(f64::NAN),
        "ns",
    );
    report.metric(
        "runtime.snapshot.acquire_by_id_ns",
        run.reads.by_id.quantile(0.5).unwrap_or(f64::NAN),
        "ns",
    );
    report.metric(
        "runtime.snapshot.get_ns",
        run.reads.get.quantile(0.5).unwrap_or(f64::NAN),
        "ns",
    );
    report.metric(
        "core.ring.apply_batch_ns_per_upd",
        per(ring_ns, upd),
        "ns/upd",
    );
    report.metric(
        "core.ring.layer_coverage",
        per(normalize + registry + base + publish, ring_ns),
        "ratio",
    );
    let rate = |w: &Writes| per(w.updates as f64, w.elapsed.as_secs_f64());
    report.metric(
        "core.ring.trace_overhead",
        per(rate(&run.untraced), rate(&run.traced)),
        "ratio",
    );
    report.note("count_updates", c.updates);
    report.note("traced_batches", run.traced.batches);
    report.note("untraced_batches", run.untraced.batches);
    report.note(
        "untraced_write_p50_us",
        run.untraced
            .latency
            .quantile(0.5)
            .map_or(f64::NAN, |v| v / 1e3),
    );
    report.count(run.untraced.batches as u64, run.untraced.failed);
    report.count(run.traced.batches as u64, run.traced.failed);
    report.count(run.reads.count + run.reads.failed, run.reads.failed);
    for e in &run.reads.errors {
        report.fail(e.clone());
    }
}

/// Metrics of a layer that is not on this workload's path.
fn absent(report: &mut Report, names: &[(&str, &'static str)], why: &str) {
    for (name, unit) in names {
        report.metric(name, 0.0, unit);
        report.note(name, why);
    }
}

const SERVER_METRICS: [(&str, &str); 6] = [
    ("server.ping_rtt_us", "us"),
    ("server.ingest_hop_us", "us"),
    ("server.get_overhead_us", "us"),
    ("server.upd_per_commit", "upd"),
    ("server.publish_ns_per_upd", "ns/upd"),
    ("server.flush_rtt_us", "us"),
];

/// `ingest` and `serve_wide`.
fn run_inproc(args: &Args, tracer: &mut Tracer, report: &mut Report) {
    let inputs = inproc::inputs(args.workload, args.seed);
    let batches = inproc::stream_batches(&inputs);
    let mut ring = inproc::build_ring();
    let mut shadow = Shadow::new();
    let failed = inproc::load(&mut ring, &inputs.initial, |b| shadow.load(b));
    report.count(inputs.initial.len().div_ceil(BATCH) as u64, failed);
    report.note("ingest_threads", ring.ingest_threads());
    let untraced = args.seconds.mul_f64(UNTRACED_SHARE);
    let (write_time, read) = match args.workload {
        Workload::Ingest => {
            let w = args.seconds.mul_f64(inproc::INGEST_WRITE_SHARE);
            (w, ReadMode::After(args.seconds - w))
        }
        _ => (args.seconds, ReadMode::Concurrent),
    };
    let until = (
        Until::Time(untraced.min(write_time)),
        Until::Time(write_time - untraced.min(write_time)),
    );
    let run = layers(
        &mut ring,
        &mut shadow,
        &batches,
        until,
        COUNT_BATCHES,
        read,
        args,
        tracer,
        report,
    );
    layer_metrics(&run, tracer, report);
    absent(report, &SERVER_METRICS, "no server on this workload's path");
    match inputs.oracle(run.traced.batches * BATCH).tables() {
        Ok(expected) => {
            inproc::check_tables(&ring, &inputs, run.traced.batches * BATCH, report);
            check_shadow(&ring, &shadow, &expected, report);
        }
        Err(e) => report.check(false, || format!("oracle failed: {e}")),
    }
}

/// Median of `samples` in µs.
fn median_us(samples: &Samples) -> f64 {
    samples.quantile(0.5).map_or(f64::NAN, |v| v / 1e3)
}

/// Times single-request round trips; `requests` yields each request and the
/// reply it must get (by prefix).
fn probe(conn: &mut Conn, requests: &[(String, &str)], report: &mut Report) -> Samples {
    let mut out = Samples::default();
    for (request, want) in requests {
        let sent = Instant::now();
        let ok = match conn.request(request) {
            Ok((reply, at)) if reply.starts_with(want) => {
                out.push((at - sent).as_nanos() as u64);
                true
            }
            _ => false,
        };
        report.check(ok, || format!("probe {request:?} failed"));
    }
    out
}

/// `TABLE`'s `END` counts and `STATS`'s `publish_ns` for the read view.
fn server_counters(conn: &mut Conn) -> Option<(u64, u64, u64)> {
    let rows = conn
        .request_rows(&format!("TABLE {} {READ_VIEW}", tcp::TENANT))
        .ok()?;
    let (ingested, epoch) = tcp::end_counts(&rows)?;
    let (stats, _) = conn.request(&format!("STATS {}", tcp::TENANT)).ok()?;
    let publish = stats
        .split_whitespace()
        .find_map(|f| f.strip_prefix("publish_ns="))?
        .parse()
        .ok()?;
    Some((ingested, epoch, publish))
}

/// `tcp`: the server layer over the wire, then the in-process layers replayed at
/// the server's measured commit size.
fn run_tcp(args: &Args, tracer: &mut Tracer, report: &mut Report) {
    let exe = args
        .server
        .as_deref()
        .expect("checked by the argument parser");
    let inputs = tcp::inputs(args.seed);
    let mut session = match tcp::setup(exe, &inputs) {
        Ok(s) => s,
        Err(e) => return report.check(false, || format!("set-up failed: {e}")),
    };
    let t = tcp::TENANT;
    let ping = probe(
        &mut session.writer,
        &vec![("PING".to_string(), "OK pong"); PROBES],
        report,
    );
    // Insert-delete pairs of one tuple: real ingest hops that leave no trace.
    let pair: Vec<(String, &str)> = (0..PROBES)
        .map(|i| {
            let op = Op {
                returns: false,
                cust: 0,
                cents: 100,
                qty: 1,
                delete: i % 2 == 1,
            };
            (op.request(t), "OK queued")
        })
        .collect();
    let insert = probe(&mut session.writer, &pair, report);
    let get = probe(
        &mut session.reader,
        &vec![(format!("GET {t} {READ_VIEW} 0"), "VALUE "); PROBES],
        report,
    );
    probe(
        &mut session.writer,
        &[(format!("FLUSH {t}"), "OK ingested=")],
        report,
    );
    let before = server_counters(&mut session.writer);
    let (writes, reads) = tcp::measure(&mut session, &inputs, args.seed, args.seconds, true);
    let after = server_counters(&mut session.writer);
    tcp::account(&writes, &reads, report);
    for (i, w) in writes.windows.iter().chain(&reads.windows).enumerate() {
        let root = tracer.record(
            w.kind,
            None,
            i as u64,
            w.sent,
            *w.replies.last().unwrap_or(&w.sent),
        );
        for at in &w.replies {
            tracer.record("server.request", Some(root), i as u64, w.sent, *at);
        }
    }
    tcp::check_tables(&mut session.writer, &inputs, writes.sent, report);
    let closed = session.close();
    report.check(closed.is_ok(), || format!("shutdown: {closed:?}"));

    let counters = match (before, after) {
        (Some((i0, e0, p0)), Some((i1, e1, p1))) if e1 > e0 && i1 > i0 => Some((
            per((i1 - i0) as f64, (e1 - e0) as f64),
            per((p1 - p0) as f64, (i1 - i0) as f64),
        )),
        _ => None,
    };
    report.check(counters.is_some(), || {
        "TABLE/STATS counters unreadable".to_string()
    });
    let (upd_per_commit, publish_per_upd) = counters.unwrap_or((f64::NAN, f64::NAN));

    // The in-process layers at the server's commit size.
    let batch = (upd_per_commit.round() as usize).clamp(1, BATCH);
    // An even number of whole batches: the shadow takes them in pairs.
    let batches = (REPLAY_UPDATES / batch / 2).max(1) * 2;
    let applied = batches * batch;
    let replay: Vec<Vec<Update>> = (0..batches)
        .map(|b| {
            (b * batch..(b + 1) * batch)
                .map(|i| inputs.stream_op(i).update())
                .collect()
        })
        .collect();
    let mut ring = inproc::build_ring();
    let mut shadow = Shadow::new();
    let failed = inproc::load(&mut ring, &inputs.initial, |b| shadow.load(b));
    report.count(1, failed);
    let _serving = ring.reader();
    shadow.start_serving();
    shadow.copied = 0;
    let until = (Until::Batches(replay.len()), Until::Batches(replay.len()));
    let run = layers(
        &mut ring,
        &mut shadow,
        &replay,
        until,
        replay.len(),
        ReadMode::After(REPLAY_READ),
        args,
        tracer,
        report,
    );
    layer_metrics(&run, tracer, report);
    report.note("replay_batch", batch);

    let ping_us = median_us(&ping);
    report.metric("server.ping_rtt_us", ping_us, "us");
    report.metric("server.ingest_hop_us", median_us(&insert) - ping_us, "us");
    report.metric(
        "server.get_overhead_us",
        median_us(&get)
            - run
                .reads
                .latency
                .quantile(0.5)
                .map_or(f64::NAN, |v| v / 1e3),
        "us",
    );
    report.metric("server.upd_per_commit", upd_per_commit, "upd");
    report.metric("server.publish_ns_per_upd", publish_per_upd, "ns/upd");
    report.metric("server.flush_rtt_us", median_us(&writes.flush), "us");
    match inputs.oracle(applied).tables() {
        Ok(expected) => {
            inproc::check_tables(&ring, &inputs, applied, report);
            check_shadow(&ring, &shadow, &expected, report);
        }
        Err(e) => report.check(false, || format!("oracle failed: {e}")),
    }
}

fn main() -> std::process::ExitCode {
    main_with(|args, report| {
        let mut tracer = Tracer::new();
        match args.workload {
            Workload::Ingest | Workload::ServeWide => run_inproc(args, &mut tracer, report),
            Workload::Tcp => run_tcp(args, &mut tracer, report),
        }
        report.note("spans", tracer.spans.len());
        if let Some(path) = &args.spans {
            if let Err(e) = tracer.write(path) {
                report.check(false, || format!("writing spans: {e}"));
            }
        }
    })
}
