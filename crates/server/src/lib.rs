//! A small threaded serving front end over [`dbring`]: tenants map to independent
//! [`Ring`] shards, writes flow through a per-tenant ingest thread, and reads are
//! answered from lock-free [`ViewSnapshot`](dbring::ViewSnapshot) handles without ever
//! touching the writer.
//!
//! ## Architecture
//!
//! ```text
//!   TCP connections (one handler thread each)
//!        │ writes: DECLARE / VIEW / INSERT / DELETE / FLUSH   (mpsc round-trip)
//!        ▼
//!   per-tenant ingest thread ── owns the &mut Ring, batches updates between
//!        │                      quiescent points, publishes snapshots on commit
//!        │ reads: GET / TABLE / SCAN                    (no ingest round-trip)
//!        ▼
//!   RingHandle ── Arc-shared snapshot store; O(1) acquire, lock-free reads
//! ```
//!
//! Each tenant's ingest thread owns its [`Ring`] exclusively (the `RingHandle` split:
//! writers never wait for readers, readers never block the writer). Updates accumulate
//! into a batch and are committed when the request queue drains — a **quiescent point**
//! — or when the batch reaches [`ServerConfig::batch_max`], or on an explicit `FLUSH`.
//! Snapshot publication happens inside the ring at exactly those commit points, so a
//! reader always observes a batch-consistent prefix of the tenant's update stream.
//!
//! ## Protocol
//!
//! Line-delimited text, one request per line, whitespace-separated tokens. Values
//! parse as integer, then float, then (optionally double-quoted) string. Responses are
//! one or more lines; every response ends with a line starting `OK`, `ERR`, `VALUE`,
//! or `END`.
//!
//! | Request | Reply |
//! |---|---|
//! | `PING` | `OK pong` |
//! | `DECLARE <tenant> <relation> <col>...` | `OK declared <relation>` |
//! | `VIEW <tenant> <name> <sql>...` | `OK created <name> ...` |
//! | `DROP <tenant> <view>` | `OK dropped <view>` |
//! | `INSERT <tenant> <relation> <val>...` | `OK queued` |
//! | `DELETE <tenant> <relation> <val>...` | `OK queued` |
//! | `FLUSH <tenant>` | `OK ingested=<n>` |
//! | `GET <tenant> <view> <key>...` | `VALUE <number>` |
//! | `TABLE <tenant> <view>` | `ROW <key>... <number>` lines, then `END ...` |
//! | `SCAN <tenant> <view> <prefix>...` | `ROW` lines, then `END ...` |
//! | `STATS <tenant>` | `OK <key=value>...` |
//! | `QUIT` | `OK bye` (closes the connection) |
//! | `SHUTDOWN` | `OK shutting down` (stops the whole server) |
//!
//! Relations must be declared before the tenant's first view or update (a ring's
//! catalog is fixed when the ring is built). `INSERT`/`DELETE` validate the relation
//! name and arity synchronously but apply asynchronously; `GET` after `FLUSH` is
//! guaranteed to observe the flushed rows.
//!
//! A request line longer than [`MAX_LINE_BYTES`] gets `ERR line too long` and the
//! connection is closed. `SHUTDOWN` closes every other live connection too, so an
//! idle client cannot keep the server from stopping.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, Sender, TryRecvError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

use dbring::{
    Catalog, Number, Ring, RingBuilder, RingHandle, StorageBackend, Update, Value, ViewDef,
};

/// The longest request line accepted, in bytes, not counting the newline. A longer
/// line is answered with `ERR line too long` and closes its connection, so one
/// client cannot make a handler buffer without bound.
pub const MAX_LINE_BYTES: usize = 64 * 1024;

/// Server-wide configuration: the storage backend new tenant rings are built on and
/// the batch size that forces a commit even without a quiescent point.
#[derive(Clone, Copy, Debug)]
pub struct ServerConfig {
    /// Storage backend for every tenant ring ([`StorageBackend::Hash`] by default).
    pub backend: StorageBackend,
    /// Commit the pending batch once it holds this many updates, even if more
    /// requests are queued (bounds snapshot staleness under sustained ingest).
    pub batch_max: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            backend: StorageBackend::Hash,
            batch_max: 256,
        }
    }
}

/// A request routed to a tenant's ingest thread, paired with a reply channel.
struct Request {
    command: Command,
    reply: Sender<Result<String, String>>,
}

/// Commands the ingest thread executes while holding the tenant's `&mut Ring`.
enum Command {
    Declare {
        relation: String,
        columns: Vec<String>,
    },
    CreateView {
        name: String,
        sql: String,
    },
    DropView {
        name: String,
    },
    Ingest {
        update: Update,
    },
    Flush,
    Stats,
    Stop,
}

/// State shared between a tenant's ingest thread and connection handlers.
struct TenantShared {
    /// Set exactly once, when the tenant transitions from schema-building to serving
    /// (its ring is built). Read paths clone the handle out and never lock again.
    reader: Mutex<Option<RingHandle>>,
}

struct Tenant {
    requests: Sender<Request>,
    shared: Arc<TenantShared>,
    worker: Mutex<Option<JoinHandle<()>>>,
}

/// The tenant's ring, or the catalog still being declared before the first view.
/// The ring is boxed: `Core` lives on the ingest thread's stack frame and a `Ring`
/// is a large value to move through enum reassignment.
enum Core {
    Building(Catalog),
    Serving(Box<Ring>),
}

struct ServerState {
    config: ServerConfig,
    addr: SocketAddr,
    tenants: Mutex<HashMap<String, Arc<Tenant>>>,
    shutdown: AtomicBool,
    /// A clone of every open client socket, by connection id, so shutdown can close
    /// the sockets whose handlers sit blocked in a read.
    connections: Mutex<HashMap<u64, TcpStream>>,
}

/// A serving front end bound to a TCP address. [`Server::run`] accepts connections
/// until a client issues `SHUTDOWN`.
pub struct Server {
    listener: TcpListener,
    state: Arc<ServerState>,
}

impl Server {
    /// Binds to `addr` (use port 0 to let the OS pick) with the given configuration.
    pub fn bind(addr: impl ToSocketAddrs, config: ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let state = Arc::new(ServerState {
            config,
            addr: listener.local_addr()?,
            tenants: Mutex::new(HashMap::new()),
            shutdown: AtomicBool::new(false),
            connections: Mutex::new(HashMap::new()),
        });
        Ok(Server { listener, state })
    }

    /// The bound address (useful after binding port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.state.addr
    }

    /// Accepts and serves connections until `SHUTDOWN`; each connection gets its own
    /// handler thread. On `SHUTDOWN` every open client socket is closed, so handlers
    /// waiting on idle clients return. Returns once every handler has exited and
    /// every tenant ingest thread has drained and exited.
    pub fn run(self) -> io::Result<()> {
        let mut handlers: Vec<JoinHandle<()>> = Vec::new();
        for (id, stream) in (0u64..).zip(self.listener.incoming()) {
            if self.state.shutdown.load(Ordering::SeqCst) {
                break;
            }
            // Reap finished handlers so their handles do not pile up.
            let (finished, live): (Vec<_>, Vec<_>) = std::mem::take(&mut handlers)
                .into_iter()
                .partition(JoinHandle::is_finished);
            handlers = live;
            for handle in finished {
                let _ = handle.join();
            }
            let stream = stream?;
            // A socket that cannot be cloned for shutdown is dropped, as one that
            // cannot be read would be.
            let Ok(registered) = stream.try_clone() else {
                continue;
            };
            self.state
                .connections
                .lock()
                .unwrap()
                .insert(id, registered);
            let state = Arc::clone(&self.state);
            handlers.push(std::thread::spawn(move || {
                // Connection errors (client hangs up mid-line) only affect that client.
                let _ = handle_connection(&state, stream, id);
                state.connections.lock().unwrap().remove(&id);
            }));
        }
        for (_, stream) in self.state.connections.lock().unwrap().drain() {
            let _ = stream.shutdown(Shutdown::Both);
        }
        for handle in handlers {
            let _ = handle.join();
        }
        // Stop every tenant worker and wait for its final flush.
        let tenants: Vec<Arc<Tenant>> = self
            .state
            .tenants
            .lock()
            .unwrap()
            .drain()
            .map(|(_, t)| t)
            .collect();
        for tenant in tenants {
            let _ = roundtrip(&tenant, Command::Stop);
            if let Some(worker) = tenant.worker.lock().unwrap().take() {
                let _ = worker.join();
            }
        }
        Ok(())
    }
}

/// Sends one command to the tenant's ingest thread and waits for the reply.
fn roundtrip(tenant: &Tenant, command: Command) -> Result<String, String> {
    let (reply, rx) = mpsc::channel();
    tenant
        .requests
        .send(Request { command, reply })
        .map_err(|_| "tenant worker stopped".to_string())?;
    rx.recv().map_err(|_| "tenant worker stopped".to_string())?
}

/// Serves one client until it quits, hangs up, sends an oversized line or stops the
/// server. `id` is the connection's key in [`ServerState::connections`].
fn handle_connection(state: &Arc<ServerState>, stream: TcpStream, id: u64) -> io::Result<()> {
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut out = stream;
    let mut buf = Vec::new();
    loop {
        buf.clear();
        // Read at most one byte past the cap: enough to tell a full-length line
        // from an oversized one without buffering the rest.
        let limit = MAX_LINE_BYTES as u64 + 1;
        if (&mut reader).take(limit).read_until(b'\n', &mut buf)? == 0 {
            return Ok(());
        }
        if buf.last() == Some(&b'\n') {
            buf.pop();
        } else if buf.len() > MAX_LINE_BYTES {
            writeln!(out, "ERR line too long")?;
            out.flush()?;
            return Ok(());
        }
        let line =
            std::str::from_utf8(&buf).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        let (lines, after) = dispatch(state, trimmed);
        for reply_line in &lines {
            writeln!(out, "{reply_line}")?;
        }
        out.flush()?;
        match after {
            After::Continue => {}
            After::Close => return Ok(()),
            After::Shutdown => {
                // The reply is out; take this socket off the list `run` closes, then
                // wake the accept loop so it can observe the flag and drain tenants.
                state.connections.lock().unwrap().remove(&id);
                state.shutdown.store(true, Ordering::SeqCst);
                let _ = TcpStream::connect(state.addr);
                return Ok(());
            }
        }
    }
}

/// What the connection handler does after sending a reply.
enum After {
    /// Read the next request.
    Continue,
    /// Close this connection (`QUIT`).
    Close,
    /// Close this connection and stop the server (`SHUTDOWN`).
    Shutdown,
}

/// Parses one request line and produces the response lines plus what the handler
/// does next.
fn dispatch(state: &Arc<ServerState>, line: &str) -> (Vec<String>, After) {
    let tokens: Vec<&str> = line.split_whitespace().collect();
    let verb = tokens[0].to_ascii_uppercase();
    let reply = match verb.as_str() {
        "PING" => Ok(vec!["OK pong".to_string()]),
        "QUIT" => return (vec!["OK bye".to_string()], After::Close),
        "SHUTDOWN" => return (vec!["OK shutting down".to_string()], After::Shutdown),
        "DECLARE" => with_args(&tokens, 3, |t| {
            let tenant = tenant_entry(state, t[1]);
            let command = Command::Declare {
                relation: t[2].to_string(),
                columns: t[3..].iter().map(|c| c.to_string()).collect(),
            };
            roundtrip(&tenant, command).map(ok_line)
        }),
        "VIEW" => with_args(&tokens, 4, |t| {
            let tenant = tenant_entry(state, t[1]);
            let command = Command::CreateView {
                name: t[2].to_string(),
                // SQL is whitespace-insensitive, so rejoining tokens is lossless
                // for the Section 5 subset the parser accepts.
                sql: t[3..].join(" "),
            };
            roundtrip(&tenant, command).map(ok_line)
        }),
        "DROP" => with_args(&tokens, 3, |t| {
            let tenant = tenant_entry(state, t[1]);
            roundtrip(
                &tenant,
                Command::DropView {
                    name: t[2].to_string(),
                },
            )
            .map(ok_line)
        }),
        "INSERT" | "DELETE" => with_args(&tokens, 3, |t| {
            let tenant = known_tenant(state, t[1])?;
            let values: Vec<Value> = t[3..].iter().copied().map(parse_value).collect();
            let update = if verb == "INSERT" {
                Update::insert(t[2], values)
            } else {
                Update::delete(t[2], values)
            };
            roundtrip(&tenant, Command::Ingest { update }).map(ok_line)
        }),
        "FLUSH" => with_args(&tokens, 2, |t| {
            let tenant = known_tenant(state, t[1])?;
            roundtrip(&tenant, Command::Flush).map(ok_line)
        }),
        "STATS" => with_args(&tokens, 2, |t| {
            let tenant = known_tenant(state, t[1])?;
            roundtrip(&tenant, Command::Stats).map(ok_line)
        }),
        "GET" => with_args(&tokens, 3, |t| {
            let snapshot = acquire(state, t[1], t[2])?;
            let key: Vec<Value> = t[3..].iter().copied().map(parse_value).collect();
            Ok(vec![format!("VALUE {}", snapshot.value(&key))])
        }),
        "TABLE" => with_args(&tokens, 3, |t| {
            let snapshot = acquire(state, t[1], t[2])?;
            Ok(render_rows(snapshot.iter(), &snapshot))
        }),
        "SCAN" => with_args(&tokens, 3, |t| {
            let snapshot = acquire(state, t[1], t[2])?;
            let prefix: Vec<Value> = t[3..].iter().copied().map(parse_value).collect();
            Ok(render_rows(snapshot.prefix_scan(&prefix), &snapshot))
        }),
        _ => Err(format!("unknown command {verb}")),
    };
    match reply {
        Ok(lines) => (lines, After::Continue),
        Err(message) => (vec![format!("ERR {message}")], After::Continue),
    }
}

/// Runs `body` if the request has at least `min` tokens, else an arity error.
fn with_args<'a>(
    tokens: &[&'a str],
    min: usize,
    body: impl FnOnce(&[&'a str]) -> Result<Vec<String>, String>,
) -> Result<Vec<String>, String> {
    if tokens.len() < min {
        return Err(format!(
            "{} needs at least {} arguments",
            tokens[0].to_ascii_uppercase(),
            min - 1
        ));
    }
    body(tokens)
}

fn ok_line(detail: String) -> Vec<String> {
    vec![format!("OK {detail}")]
}

/// Returns the tenant, creating it (and its ingest thread) on first use.
fn tenant_entry(state: &Arc<ServerState>, name: &str) -> Arc<Tenant> {
    let mut tenants = state.tenants.lock().unwrap();
    if let Some(tenant) = tenants.get(name) {
        return Arc::clone(tenant);
    }
    let (requests, rx) = mpsc::channel();
    let shared = Arc::new(TenantShared {
        reader: Mutex::new(None),
    });
    let worker_shared = Arc::clone(&shared);
    let config = state.config;
    let worker = std::thread::spawn(move || tenant_loop(rx, worker_shared, config));
    let tenant = Arc::new(Tenant {
        requests,
        shared,
        worker: Mutex::new(Some(worker)),
    });
    tenants.insert(name.to_string(), Arc::clone(&tenant));
    tenant
}

/// Returns an existing tenant, or an error: reads and ingest never auto-create.
fn known_tenant(state: &Arc<ServerState>, name: &str) -> Result<Arc<Tenant>, String> {
    state
        .tenants
        .lock()
        .unwrap()
        .get(name)
        .cloned()
        .ok_or_else(|| format!("unknown tenant {name}"))
}

/// Acquires a point-in-time snapshot of `view` for `tenant` — no ingest round-trip;
/// this is the lock-free read path.
fn acquire(
    state: &Arc<ServerState>,
    tenant: &str,
    view: &str,
) -> Result<dbring::ViewSnapshot, String> {
    let tenant = known_tenant(state, tenant)?;
    let handle = tenant
        .shared
        .reader
        .lock()
        .unwrap()
        .clone()
        .ok_or_else(|| "tenant has no views yet".to_string())?;
    handle.snapshot_named(view).map_err(|e| e.to_string())
}

fn render_rows<'a>(
    rows: impl Iterator<Item = (&'a [Value], Number)>,
    snapshot: &dbring::ViewSnapshot,
) -> Vec<String> {
    let mut lines = Vec::new();
    for (key, value) in rows {
        let mut line = String::from("ROW");
        for v in key {
            line.push(' ');
            line.push_str(&v.to_string());
        }
        line.push(' ');
        line.push_str(&value.to_string());
        lines.push(line);
    }
    lines.push(format!(
        "END rows={} ingested={} epoch={}",
        lines.len(),
        snapshot.ingested(),
        snapshot.epoch()
    ));
    lines
}

/// Parses a protocol token: integer, then float, then (optionally quoted) string.
fn parse_value(token: &str) -> Value {
    if let Ok(i) = token.parse::<i64>() {
        return Value::int(i);
    }
    if let Ok(f) = token.parse::<f64>() {
        return Value::float(f);
    }
    let unquoted = token
        .strip_prefix('"')
        .and_then(|rest| rest.strip_suffix('"'))
        .unwrap_or(token);
    Value::str(unquoted)
}

/// The tenant ingest loop: owns the tenant's [`Ring`] exclusively, accumulates
/// updates into a batch, and commits (publishing snapshots) at quiescent points —
/// when the request queue drains, the batch hits `batch_max`, or on explicit `FLUSH`.
fn tenant_loop(rx: Receiver<Request>, shared: Arc<TenantShared>, config: ServerConfig) {
    let mut core = Core::Building(Catalog::new());
    let mut pending: Vec<Update> = Vec::new();
    let mut last_error: Option<String> = None;
    loop {
        let request = match rx.try_recv() {
            Ok(request) => request,
            Err(TryRecvError::Empty) => {
                // Queue drained: a quiescent point. Commit what we have so readers
                // observe it, then block for the next request.
                flush(&mut core, &mut pending, &mut last_error);
                match rx.recv() {
                    Ok(request) => request,
                    Err(_) => break,
                }
            }
            Err(TryRecvError::Disconnected) => break,
        };
        let stop = matches!(request.command, Command::Stop);
        let reply = handle_command(
            request.command,
            &mut core,
            &mut pending,
            &mut last_error,
            &shared,
            &config,
        );
        let _ = request.reply.send(reply);
        if pending.len() >= config.batch_max {
            flush(&mut core, &mut pending, &mut last_error);
        }
        if stop {
            break;
        }
    }
    flush(&mut core, &mut pending, &mut last_error);
}

fn handle_command(
    command: Command,
    core: &mut Core,
    pending: &mut Vec<Update>,
    last_error: &mut Option<String>,
    shared: &TenantShared,
    config: &ServerConfig,
) -> Result<String, String> {
    match command {
        Command::Declare { relation, columns } => match core {
            Core::Building(catalog) => {
                let cols: Vec<&str> = columns.iter().map(|c| c.as_str()).collect();
                catalog
                    .declare(&relation, &cols)
                    .map_err(|e| e.to_string())?;
                Ok(format!("declared {relation}"))
            }
            Core::Serving(_) => {
                Err("relations must be declared before the first view or update".to_string())
            }
        },
        Command::CreateView { name, sql } => {
            let ring = ensure_serving(core, shared, config);
            flush_ring(ring, pending, last_error);
            let id = ring
                .create_view(&name, ViewDef::Sql(&sql))
                .map_err(|e| e.to_string())?;
            Ok(format!("created {name} as {id}"))
        }
        Command::DropView { name } => {
            let ring = serving_ring(core)?;
            flush_ring(ring, pending, last_error);
            let id = ring
                .view_id(&name)
                .ok_or_else(|| format!("unknown view {name}"))?;
            ring.drop_view(id).map_err(|e| e.to_string())?;
            Ok(format!("dropped {name}"))
        }
        Command::Ingest { update } => {
            let ring = ensure_serving(core, shared, config);
            match ring.catalog().columns(&update.relation) {
                None => Err(format!("unknown relation {}", update.relation)),
                Some(cols) if cols.len() != update.values.len() => Err(format!(
                    "{} expects {} values, got {}",
                    update.relation,
                    cols.len(),
                    update.values.len()
                )),
                Some(_) => {
                    pending.push(update);
                    Ok("queued".to_string())
                }
            }
        }
        Command::Flush => {
            let ring = serving_ring(core)?;
            flush_ring(ring, pending, last_error);
            match last_error.take() {
                Some(error) => Err(error),
                None => Ok(format!("ingested={}", ring.updates_ingested())),
            }
        }
        Command::Stats => match core {
            Core::Building(catalog) => Ok(format!(
                "building relations={}",
                catalog.relation_names().count()
            )),
            Core::Serving(ring) => Ok(format!(
                "views={} ingested={} pending={} publish_ns={} snapshot_entries={}",
                ring.len(),
                ring.updates_ingested(),
                pending.len(),
                ring.snapshot_publish_ns(),
                ring.snapshot_footprint()
            )),
        },
        Command::Stop => Ok("stopping".to_string()),
    }
}

/// Builds the tenant's ring on first view/update, freezing the catalog and handing
/// a [`RingHandle`] to the read path.
fn ensure_serving<'a>(
    core: &'a mut Core,
    shared: &TenantShared,
    config: &ServerConfig,
) -> &'a mut Ring {
    if let Core::Building(catalog) = core {
        let ring = RingBuilder::new(std::mem::take(catalog))
            .backend(config.backend)
            .build();
        *shared.reader.lock().unwrap() = Some(ring.reader());
        *core = Core::Serving(Box::new(ring));
    }
    match core {
        Core::Serving(ring) => ring,
        Core::Building(_) => unreachable!("just transitioned to serving"),
    }
}

fn serving_ring(core: &mut Core) -> Result<&mut Ring, String> {
    match core {
        Core::Serving(ring) => Ok(ring),
        Core::Building(_) => Err("tenant has no views yet".to_string()),
    }
}

fn flush(core: &mut Core, pending: &mut Vec<Update>, last_error: &mut Option<String>) {
    if let Core::Serving(ring) = core {
        flush_ring(ring, pending, last_error);
    }
}

/// Commits the pending batch. Ingest is failure-atomic: on error the whole batch is
/// rolled back by the ring; the error is surfaced on the next `FLUSH`.
fn flush_ring(ring: &mut Ring, pending: &mut Vec<Update>, last_error: &mut Option<String>) {
    if pending.is_empty() {
        return;
    }
    if let Err(error) = ring.apply_batch(pending) {
        *last_error = Some(error.to_string());
    }
    pending.clear();
}
