//! The `tcp` workload: `dbring-serve` as a child process on loopback, one
//! pipelining writer connection and one pipelining reader connection.

use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use crate::args::{Args, Workload};
use crate::data::{read_key, Inputs, Rng, COLUMNS, READ_VIEW, VIEWS};
use crate::report::{peak_rss_mb, Report, Samples};
use crate::wire::{expect_reply, Conn, Server};
use crate::{READ_PERCENTILE, WRITE_PERCENTILE};

/// The tenant every request addresses.
pub const TENANT: &str = "t";
/// Updates loaded over the wire during set-up.
pub const INITIAL: usize = 2_000;
/// Distinct updates in the writer's stream (cycled).
pub const STREAM: usize = 16_384;
/// Requests per pipelined window.
pub const WINDOW: usize = 32;
/// The writer sends `FLUSH` after this many updates.
pub const FLUSH_EVERY: usize = 256;
/// Server set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 3;

/// The workload's inputs for `seed`.
pub fn inputs(seed: u64) -> Inputs {
    Inputs::new(seed, Workload::Tcp.customers(), INITIAL, STREAM)
}

/// A started, loaded server with its writer and reader connections.
pub struct Session {
    /// The server child.
    pub server: Server,
    /// The connection that writes.
    pub writer: Conn,
    /// The connection that reads.
    pub reader: Conn,
}

impl Session {
    /// Quits both connections, then shuts the server down and waits for it.
    pub fn close(self) -> Result<(), String> {
        let quit = self.writer.quit().and(self.reader.quit());
        let shutdown = self.server.shutdown();
        quit.and(shutdown)
    }
}

/// Starts a server, declares the schema and views, loads the initial updates in
/// pipelined windows and flushes them.
pub fn setup(exe: &Path, inputs: &Inputs) -> Result<Session, String> {
    let server = Server::spawn(exe)?;
    let mut writer = Conn::connect(server.addr)?;
    for relation in ["Sales", "Returns"] {
        let (reply, _) = writer.request(&format!(
            "DECLARE {TENANT} {relation} {}",
            COLUMNS.join(" ")
        ))?;
        expect_reply(&reply, &format!("OK declared {relation}"))?;
    }
    for (name, sql) in VIEWS {
        let (reply, _) = writer.request(&format!("VIEW {TENANT} {name} {sql}"))?;
        if !reply.starts_with(&format!("OK created {name} ")) {
            return Err(format!("VIEW {name}: {reply:?}"));
        }
    }
    for chunk in inputs.initial.chunks(WINDOW) {
        let requests: Vec<String> = chunk.iter().map(|op| op.request(TENANT)).collect();
        let (_, replies) = writer.window(&requests)?;
        for (reply, _) in replies {
            expect_reply(&reply, "OK queued")?;
        }
    }
    let (reply, _) = writer.request(&format!("FLUSH {TENANT}"))?;
    if !reply.starts_with("OK ingested=") {
        return Err(format!("FLUSH: {reply:?}"));
    }
    let reader = Conn::connect(server.addr)?;
    Ok(Session {
        server,
        writer,
        reader,
    })
}

/// One pipelined window as the client saw it (kept by traced runs).
#[derive(Clone, Debug)]
pub struct Window {
    /// `"write"`, `"flush"` or `"read"`.
    pub kind: &'static str,
    /// When the window was sent.
    pub sent: Instant,
    /// When each reply arrived.
    pub replies: Vec<Instant>,
}

/// What the writer connection did.
#[derive(Debug, Default)]
pub struct WriterResult {
    /// Stream updates acked and then confirmed by a `FLUSH`.
    pub confirmed: usize,
    /// Stream updates sent.
    pub sent: usize,
    /// Requests sent (updates and flushes).
    pub requests: u64,
    /// Requests that failed.
    pub failed: u64,
    /// Per update: window send to its `OK queued`.
    pub write: Samples,
    /// Per `FLUSH`: round trip.
    pub flush: Samples,
    /// Wall-clock time of the loop.
    pub elapsed: Duration,
    /// Windows, when traced.
    pub windows: Vec<Window>,
    /// The first few failures.
    pub errors: Vec<String>,
}

/// What the reader connection did.
#[derive(Debug, Default)]
pub struct ReaderResult {
    /// `GET`s answered with a `VALUE`.
    pub reads: u64,
    /// `GET`s that failed.
    pub failed: u64,
    /// Per `GET`: window send to its reply.
    pub read: Samples,
    /// Wall-clock time of the loop.
    pub elapsed: Duration,
    /// Windows, when traced.
    pub windows: Vec<Window>,
    /// The first few failures.
    pub errors: Vec<String>,
}

fn note_error(errors: &mut Vec<String>, message: String) {
    if errors.len() < 5 {
        errors.push(message);
    }
}

/// The writer's closed loop: windows of `WINDOW` updates, a `FLUSH` after every
/// `FLUSH_EVERY` updates, until `seconds` have passed at a `FLUSH` boundary.
/// Gives up on the first broken connection.
pub fn write_loop(
    conn: &mut Conn,
    inputs: &Inputs,
    seconds: Duration,
    traced: bool,
) -> WriterResult {
    let mut out = WriterResult::default();
    let started = Instant::now();
    let mut next = 0usize;
    let flush = format!("FLUSH {TENANT}");
    'run: while started.elapsed() < seconds {
        let mut pending = 0;
        while pending < FLUSH_EVERY {
            let requests: Vec<String> = (next..next + WINDOW)
                .map(|i| inputs.stream_op(i).request(TENANT))
                .collect();
            out.requests += WINDOW as u64;
            let (sent, replies) = match conn.window(&requests) {
                Ok(r) => r,
                Err(e) => {
                    out.failed += WINDOW as u64;
                    note_error(&mut out.errors, format!("write window: {e}"));
                    break 'run;
                }
            };
            for (reply, at) in &replies {
                if reply == "OK queued" {
                    out.write.push((*at - sent).as_nanos() as u64);
                } else {
                    out.failed += 1;
                    note_error(&mut out.errors, format!("write reply {reply:?}"));
                }
            }
            if traced {
                out.windows.push(Window {
                    kind: "write",
                    sent,
                    replies: replies.iter().map(|(_, at)| *at).collect(),
                });
            }
            next += WINDOW;
            out.sent = next;
            pending += WINDOW;
        }
        out.requests += 1;
        let sent = Instant::now();
        match conn.request(&flush) {
            Ok((reply, at)) if reply.starts_with("OK ingested=") => {
                out.flush.push((at - sent).as_nanos() as u64);
                out.confirmed += pending;
                if traced {
                    out.windows.push(Window {
                        kind: "flush",
                        sent,
                        replies: vec![at],
                    });
                }
            }
            Ok((reply, _)) => {
                out.failed += 1;
                note_error(&mut out.errors, format!("flush reply {reply:?}"));
                break 'run;
            }
            Err(e) => {
                out.failed += 1;
                note_error(&mut out.errors, format!("flush: {e}"));
                break 'run;
            }
        }
    }
    out.elapsed = started.elapsed();
    out
}

/// The reader's closed loop: windows of `WINDOW` `GET`s at uniform keys until
/// `stop`. Gives up on the first broken connection.
pub fn read_loop(conn: &mut Conn, seed: u64, stop: &AtomicBool, traced: bool) -> ReaderResult {
    let mut out = ReaderResult::default();
    let mut rng = Rng::new(seed ^ 0x0DD5_EED5);
    let customers = Workload::Tcp.customers();
    let started = Instant::now();
    while !stop.load(Ordering::Relaxed) {
        let requests: Vec<String> = (0..WINDOW)
            .map(|_| {
                let [key] = read_key(&mut rng, customers);
                format!("GET {TENANT} {READ_VIEW} {key}")
            })
            .collect();
        let (sent, replies) = match conn.window(&requests) {
            Ok(r) => r,
            Err(e) => {
                out.failed += WINDOW as u64;
                note_error(&mut out.errors, format!("read window: {e}"));
                break;
            }
        };
        for (reply, at) in &replies {
            let value = reply.strip_prefix("VALUE ").map(str::parse::<i64>);
            if let Some(Ok(_)) = value {
                out.reads += 1;
                out.read.push((*at - sent).as_nanos() as u64);
            } else {
                out.failed += 1;
                note_error(&mut out.errors, format!("read reply {reply:?}"));
            }
        }
        if traced {
            out.windows.push(Window {
                kind: "read",
                sent,
                replies: replies.iter().map(|(_, at)| *at).collect(),
            });
        }
    }
    out.elapsed = started.elapsed();
    out
}

/// Runs the writer and reader side by side for `seconds`.
pub fn measure(
    session: &mut Session,
    inputs: &Inputs,
    seed: u64,
    seconds: Duration,
    traced: bool,
) -> (WriterResult, ReaderResult) {
    let stop = AtomicBool::new(false);
    let Session { writer, reader, .. } = session;
    std::thread::scope(|scope| {
        let reads = scope.spawn(|| read_loop(reader, seed, &stop, traced));
        let writes = write_loop(writer, inputs, seconds, traced);
        stop.store(true, Ordering::Relaxed);
        (writes, reads.join().expect("reader thread panicked"))
    })
}

/// A view's rows as the server renders them, from the oracle.
fn expected_rows(table: &crate::data::Table) -> Vec<String> {
    table
        .iter()
        .map(|(key, value)| {
            let mut line = String::from("ROW");
            for v in key {
                line.push(' ');
                line.push_str(&v.to_string());
            }
            format!("{line} {value}")
        })
        .collect()
}

/// The `END rows=.. ingested=.. epoch=..` line's `ingested` and `epoch`.
pub fn end_counts(lines: &[String]) -> Option<(u64, u64)> {
    let end = lines.last()?.strip_prefix("END ")?;
    let mut ingested = None;
    let mut epoch = None;
    for field in end.split_whitespace() {
        if let Some(v) = field.strip_prefix("ingested=") {
            ingested = v.parse().ok();
        } else if let Some(v) = field.strip_prefix("epoch=") {
            epoch = v.parse().ok();
        }
    }
    Some((ingested?, epoch?))
}

/// Compares every view's `TABLE` with the oracle over the initial load plus the
/// first `applied` stream updates.
pub fn check_tables(conn: &mut Conn, inputs: &Inputs, applied: usize, report: &mut Report) {
    let expected = match inputs.oracle(applied).tables() {
        Ok(tables) => tables,
        Err(e) => return report.check(false, || format!("oracle failed: {e}")),
    };
    for (name, _) in VIEWS {
        let ok = match conn.request_rows(&format!("TABLE {TENANT} {name}")) {
            Ok(mut lines) => {
                let end = lines.pop();
                end.is_some_and(|l| l.starts_with("END "))
                    && expected.get(name).map(expected_rows) == Some(lines)
            }
            Err(_) => false,
        };
        report.check(ok, || format!("TABLE {name} differs from the oracle"));
    }
}

/// Sets the server up `SETUPS` times, closing all but the last; records `setup_s`.
pub fn setup_all(exe: &Path, inputs: &Inputs, report: &mut Report) -> Result<Session, String> {
    let mut times = Samples::default();
    let mut session = None;
    for _ in 0..SETUPS {
        if let Some(s) = session.take() {
            Session::close(s)?;
        }
        let t = Instant::now();
        session = Some(setup(exe, inputs)?);
        times.push(t.elapsed().as_nanos() as u64);
        report.count(1, 0);
    }
    report.metric(
        "setup_s",
        times.quantile(0.5).expect("set-ups ran") / 1e9,
        "s",
    );
    report.note("setup_samples", format!("n={}", times.len()));
    Ok(session.expect("set-ups ran"))
}

/// Records the failures and counts of both loops.
pub fn account(writes: &WriterResult, reads: &ReaderResult, report: &mut Report) {
    report.count(writes.requests, writes.failed);
    report.count(reads.reads + reads.failed, reads.failed);
    for e in writes.errors.iter().chain(&reads.errors) {
        report.fail(e.clone());
    }
}

/// The gating run of `tcp`.
pub fn run(args: &Args, report: &mut Report) {
    let exe = args
        .server
        .as_deref()
        .expect("checked by the argument parser");
    let inputs = inputs(args.seed);
    let mut session = match setup_all(exe, &inputs, report) {
        Ok(s) => s,
        Err(e) => return report.check(false, || format!("set-up failed: {e}")),
    };
    let (writes, reads) = measure(&mut session, &inputs, args.seed, args.seconds, false);
    account(&writes, &reads, report);
    check_tables(&mut session.writer, &inputs, writes.sent, report);
    let closed = session.close();
    report.check(closed.is_ok(), || format!("shutdown: {closed:?}"));
    report.metric(
        "upd_per_s",
        writes.confirmed as f64 / writes.elapsed.as_secs_f64(),
        "1/s",
    );
    report.latency("write", &writes.write, WRITE_PERCENTILE, 1e3, "us");
    report.metric(
        "reads_per_s",
        reads.reads as f64 / reads.elapsed.as_secs_f64(),
        "1/s",
    );
    report.latency("read", &reads.read, READ_PERCENTILE, 1.0, "ns");
    report.metric("peak_rss_mb", peak_rss_mb(true), "MB");
    report.note(
        "flush_p50_us",
        writes.flush.quantile(0.5).map_or(f64::NAN, |v| v / 1e3),
    );
    report.note("flush_samples", format!("n={}", writes.flush.len()));
}
