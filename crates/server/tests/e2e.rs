//! End-to-end tests for the serving front end: a real `Server` on an ephemeral TCP
//! port, scripted clients, snapshot-read semantics, tenant isolation, and shutdown.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use dbring::StorageBackend;
use dbring_server::{Server, ServerConfig, MAX_LINE_BYTES};

/// A tiny line-protocol client over a real TCP connection.
struct Client {
    reader: BufReader<TcpStream>,
    out: TcpStream,
}

impl Client {
    fn connect(addr: SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect");
        Client {
            reader: BufReader::new(stream.try_clone().expect("clone stream")),
            out: stream,
        }
    }

    /// Sends one request and reads a single reply line.
    fn send(&mut self, line: &str) -> String {
        writeln!(self.out, "{line}").expect("send");
        self.out.flush().expect("flush");
        let mut reply = String::new();
        self.reader.read_line(&mut reply).expect("reply");
        reply.trim_end().to_string()
    }

    /// Sends one request and reads reply lines until the `END` terminator.
    fn send_multi(&mut self, line: &str) -> Vec<String> {
        writeln!(self.out, "{line}").expect("send");
        self.out.flush().expect("flush");
        let mut lines = Vec::new();
        loop {
            let mut reply = String::new();
            self.reader.read_line(&mut reply).expect("reply");
            let reply = reply.trim_end().to_string();
            let done = reply.starts_with("END") || reply.starts_with("ERR");
            lines.push(reply);
            if done {
                return lines;
            }
        }
    }
}

fn start(config: ServerConfig) -> (SocketAddr, std::thread::JoinHandle<std::io::Result<()>>) {
    let server = Server::bind(("127.0.0.1", 0), config).expect("bind");
    let addr = server.local_addr();
    let handle = std::thread::spawn(move || server.run());
    (addr, handle)
}

fn shutdown(addr: SocketAddr, handle: std::thread::JoinHandle<std::io::Result<()>>) {
    let mut client = Client::connect(addr);
    assert_eq!(client.send("SHUTDOWN"), "OK shutting down");
    handle.join().expect("server thread").expect("server run");
}

#[test]
fn declare_view_ingest_read_roundtrip() {
    let (addr, handle) = start(ServerConfig::default());
    let mut c = Client::connect(addr);

    assert_eq!(c.send("PING"), "OK pong");
    assert_eq!(
        c.send("DECLARE t1 Sales cust price qty"),
        "OK declared Sales"
    );
    assert_eq!(
        c.send("VIEW t1 revenue SELECT cust, SUM(price * qty) AS revenue FROM Sales GROUP BY cust"),
        "OK created revenue as view#0"
    );
    assert_eq!(c.send("INSERT t1 Sales 1 10 2"), "OK queued");
    assert_eq!(c.send("INSERT t1 Sales 2 3 3"), "OK queued");
    assert_eq!(c.send("FLUSH t1"), "OK ingested=2");
    assert_eq!(c.send("GET t1 revenue 1"), "VALUE 20");
    assert_eq!(c.send("GET t1 revenue 2"), "VALUE 9");
    // Absent group keys read as the ring zero, not an error.
    assert_eq!(c.send("GET t1 revenue 42"), "VALUE 0");

    let table = c.send_multi("TABLE t1 revenue");
    assert_eq!(table.len(), 3);
    assert_eq!(table[0], "ROW 1 20");
    assert_eq!(table[1], "ROW 2 9");
    assert!(
        table[2].starts_with("END rows=2 ingested=2 epoch="),
        "unexpected terminator: {}",
        table[2]
    );

    drop(c);
    shutdown(addr, handle);
}

#[test]
fn tenants_are_isolated_rings() {
    let (addr, handle) = start(ServerConfig::default());
    let mut c = Client::connect(addr);

    for tenant in ["alpha", "beta"] {
        assert_eq!(c.send(&format!("DECLARE {tenant} R x")), "OK declared R");
        assert_eq!(
            c.send(&format!(
                "VIEW {tenant} total SELECT SUM(x) AS total FROM R"
            )),
            "OK created total as view#0"
        );
    }
    assert_eq!(c.send("INSERT alpha R 5"), "OK queued");
    assert_eq!(c.send("FLUSH alpha"), "OK ingested=1");
    // beta's ring is untouched by alpha's ingest.
    assert_eq!(c.send("GET alpha total"), "VALUE 5");
    assert_eq!(c.send("GET beta total"), "VALUE 0");
    assert_eq!(c.send("FLUSH beta"), "OK ingested=0");

    drop(c);
    shutdown(addr, handle);
}

#[test]
fn reads_come_from_published_snapshots() {
    // batch_max 1000 ≫ the test's updates: nothing commits until the queue drains
    // or an explicit FLUSH, so this exercises the quiescent-point publication.
    let config = ServerConfig {
        backend: StorageBackend::Ordered,
        batch_max: 1000,
    };
    let (addr, handle) = start(config);
    let mut c = Client::connect(addr);

    c.send("DECLARE t R k v");
    c.send("VIEW t by_k SELECT k, SUM(v) AS s FROM R GROUP BY k");
    for i in 0..50 {
        assert_eq!(c.send(&format!("INSERT t R {} 1", i % 5)), "OK queued");
    }
    assert_eq!(c.send("FLUSH t"), "OK ingested=50");
    for k in 0..5 {
        assert_eq!(c.send(&format!("GET t by_k {k}")), "VALUE 10");
    }
    // SCAN narrows to the keys matching the given prefix.
    let scan = c.send_multi("SCAN t by_k 3");
    assert_eq!(scan.len(), 2);
    assert_eq!(scan[0], "ROW 3 10");
    assert!(
        scan[1].starts_with("END rows=1 ingested=50 epoch="),
        "unexpected terminator: {}",
        scan[1]
    );

    drop(c);
    shutdown(addr, handle);
}

#[test]
fn errors_are_per_request_and_recoverable() {
    let (addr, handle) = start(ServerConfig::default());
    let mut c = Client::connect(addr);

    assert_eq!(c.send("GET ghost v 1"), "ERR unknown tenant ghost");
    assert_eq!(
        c.send("DECLARE t Sales cust price qty"),
        "OK declared Sales"
    );
    assert_eq!(
        c.send("VIEW t rev SELECT cust, SUM(price) AS r FROM Sales GROUP BY cust"),
        "OK created rev as view#0"
    );
    // The catalog is frozen once the ring is built.
    assert_eq!(
        c.send("DECLARE t Late x"),
        "ERR relations must be declared before the first view or update"
    );
    assert_eq!(c.send("INSERT t Nope 1"), "ERR unknown relation Nope");
    assert_eq!(
        c.send("INSERT t Sales 1 2"),
        "ERR Sales expects 3 values, got 2"
    );
    assert_eq!(c.send("GET t nope 1"), "ERR no live view nope on this ring");
    assert_eq!(c.send("BOGUS"), "ERR unknown command BOGUS");
    // The tenant still works after every error above.
    assert_eq!(c.send("INSERT t Sales 1 2 3"), "OK queued");
    assert_eq!(c.send("FLUSH t"), "OK ingested=1");
    assert_eq!(c.send("GET t rev 1"), "VALUE 2");

    drop(c);
    shutdown(addr, handle);
}

#[test]
fn drop_view_releases_and_later_reads_error() {
    let (addr, handle) = start(ServerConfig::default());
    let mut c = Client::connect(addr);

    c.send("DECLARE t R x");
    c.send("VIEW t total SELECT SUM(x) AS total FROM R");
    c.send("INSERT t R 7");
    assert_eq!(c.send("FLUSH t"), "OK ingested=1");
    assert_eq!(c.send("GET t total"), "VALUE 7");
    assert_eq!(c.send("DROP t total"), "OK dropped total");
    assert_eq!(c.send("GET t total"), "ERR no live view total on this ring");

    drop(c);
    shutdown(addr, handle);
}

#[test]
fn concurrent_clients_share_a_tenant() {
    let (addr, handle) = start(ServerConfig::default());
    let mut admin = Client::connect(addr);
    admin.send("DECLARE t R k v");
    admin.send("VIEW t by_k SELECT k, SUM(v) AS s FROM R GROUP BY k");

    // Four writer connections race into the same tenant's ingest queue.
    let writers: Vec<_> = (0..4)
        .map(|w| {
            std::thread::spawn(move || {
                let mut c = Client::connect(addr);
                for _ in 0..25 {
                    assert_eq!(c.send(&format!("INSERT t R {w} 1")), "OK queued");
                }
            })
        })
        .collect();
    for w in writers {
        w.join().expect("writer");
    }
    assert_eq!(admin.send("FLUSH t"), "OK ingested=100");
    for k in 0..4 {
        assert_eq!(admin.send(&format!("GET t by_k {k}")), "VALUE 25");
    }

    drop(admin);
    shutdown(addr, handle);
}

/// A rejected update is reported to the connection that queued it, and only to it:
/// another client's `FLUSH` stays `OK` and its rows land; the offender's `FLUSH` gets
/// the error once, then the record is cleared.
#[test]
fn rejections_reach_only_the_connection_that_caused_them() {
    let (addr, handle) = start(ServerConfig::default());
    let mut a = Client::connect(addr);
    let mut b = Client::connect(addr);
    a.send("DECLARE t Sales cust cents");
    a.send("VIEW t revenue SELECT cust, SUM(cents) AS r FROM Sales GROUP BY cust");
    assert_eq!(a.send("INSERT t Sales 1 100"), "OK queued");
    assert_eq!(a.send("INSERT t Sales 2 200"), "OK queued");
    // Catalog-valid, so it is queued; the view's SUM rejects the string at commit.
    assert_eq!(b.send("INSERT t Sales 3 \"oops\""), "OK queued");
    assert_eq!(a.send("FLUSH t"), "OK ingested=2");
    let reply = b.send("FLUSH t");
    assert!(
        reply.starts_with("ERR 1 queued update(s) rejected since the last FLUSH; first: "),
        "{reply}"
    );
    assert_eq!(b.send("FLUSH t"), "OK ingested=2");
    assert_eq!(a.send("GET t revenue 1"), "VALUE 100");
    assert_eq!(a.send("GET t revenue 2"), "VALUE 200");
    assert_eq!(a.send("GET t revenue 3"), "VALUE 0");

    drop((a, b));
    shutdown(addr, handle);
}

/// An idle client must not keep `SHUTDOWN` from ending the server: its handler sits
/// in a blocking read until the server closes the socket.
#[test]
fn shutdown_returns_while_an_idle_client_is_connected() {
    let (addr, handle) = start(ServerConfig::default());
    let mut idle = Client::connect(addr);
    assert_eq!(idle.send("PING"), "OK pong");

    let mut stopper = Client::connect(addr);
    assert_eq!(stopper.send("SHUTDOWN"), "OK shutting down");
    let (done, finished) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let _ = done.send(handle.join().expect("server thread"));
    });
    let result = finished
        .recv_timeout(Duration::from_secs(5))
        .expect("run() returned within 5 s despite the idle client");
    result.expect("server run");

    // The idle client sees its connection closed.
    let mut rest = String::new();
    assert_eq!(idle.reader.read_line(&mut rest).unwrap_or(0), 0);
}

/// A request line over the cap gets `ERR line too long` and loses its connection;
/// other clients keep being served.
#[test]
fn oversized_request_lines_are_refused() {
    let (addr, handle) = start(ServerConfig::default());
    let mut other = Client::connect(addr);

    let mut flood = Client::connect(addr);
    flood
        .reader
        .get_ref()
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("read timeout");
    // No newline anywhere: an unbounded reader would wait for one forever.
    let line = vec![b'x'; MAX_LINE_BYTES + 1];
    flood.out.write_all(&line).expect("send");
    flood.out.flush().expect("flush");
    let mut reply = String::new();
    flood
        .reader
        .read_line(&mut reply)
        .expect("a reply before the read timeout");
    assert_eq!(reply.trim_end(), "ERR line too long");
    let mut rest = String::new();
    assert_eq!(
        flood.reader.read_line(&mut rest).unwrap_or(0),
        0,
        "the connection is closed"
    );

    assert_eq!(other.send("PING"), "OK pong");
    // A line of exactly the cap is still a request.
    let padded = format!("PING{}", " ".repeat(MAX_LINE_BYTES - 4));
    assert_eq!(other.send(&padded), "OK pong");

    drop(other);
    shutdown(addr, handle);
}
