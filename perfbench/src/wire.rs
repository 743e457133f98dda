//! A line-protocol client for `dbring-serve` and the server child process.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// How long a reply may take before the request counts as failed.
pub const READ_TIMEOUT: Duration = Duration::from_secs(5);

/// One client connection. Sends each window of requests with a single `write` on
/// a `TCP_NODELAY` socket, so the numbers measure the server.
pub struct Conn {
    reader: BufReader<TcpStream>,
    out: TcpStream,
    buf: Vec<u8>,
}

/// A reply line and when it was read.
pub type Reply = (String, Instant);

impl Conn {
    /// Connects with `TCP_NODELAY` and a bounded read timeout.
    pub fn connect(addr: SocketAddr) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream
            .set_read_timeout(Some(READ_TIMEOUT))
            .map_err(|e| e.to_string())?;
        Ok(Conn {
            reader: BufReader::new(stream.try_clone().map_err(|e| e.to_string())?),
            out: stream,
            buf: Vec::new(),
        })
    }

    /// Sends `requests` in one write and reads one reply line per request. Returns
    /// the send time and each reply with its arrival time; stops at the first
    /// short read or timeout.
    pub fn window(&mut self, requests: &[String]) -> Result<(Instant, Vec<Reply>), String> {
        self.buf.clear();
        for r in requests {
            self.buf.extend_from_slice(r.as_bytes());
            self.buf.push(b'\n');
        }
        let sent = Instant::now();
        self.out
            .write_all(&self.buf)
            .map_err(|e| format!("send: {e}"))?;
        let mut replies = Vec::with_capacity(requests.len());
        for _ in requests {
            replies.push(self.line()?);
        }
        Ok((sent, replies))
    }

    /// One request, one reply line.
    pub fn request(&mut self, request: &str) -> Result<Reply, String> {
        let (_, mut replies) = self.window(std::slice::from_ref(&request.to_string()))?;
        Ok(replies.pop().expect("one reply per request"))
    }

    /// A request whose reply ends with an `END` or `ERR` line; returns all lines.
    pub fn request_rows(&mut self, request: &str) -> Result<Vec<String>, String> {
        self.out
            .write_all(format!("{request}\n").as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        let mut lines = Vec::new();
        loop {
            let (line, _) = self.line()?;
            let done = line.starts_with("END") || line.starts_with("ERR");
            lines.push(line);
            if done {
                return Ok(lines);
            }
        }
    }

    fn line(&mut self) -> Result<Reply, String> {
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(0) => Err("connection closed".to_string()),
            Ok(_) => Ok((line.trim_end().to_string(), Instant::now())),
            Err(e) => Err(format!("read: {e}")),
        }
    }

    /// Says `QUIT` and closes.
    pub fn quit(mut self) -> Result<(), String> {
        let (reply, _) = self.request("QUIT")?;
        expect_reply(&reply, "OK bye")
    }
}

/// `Ok` when `reply` is exactly `want`.
pub fn expect_reply(reply: &str, want: &str) -> Result<(), String> {
    if reply == want {
        Ok(())
    } else {
        Err(format!("expected {want:?}, got {reply:?}"))
    }
}

/// A `dbring-serve` child on a loopback port chosen by the OS.
pub struct Server {
    child: Child,
    /// Where it listens.
    pub addr: SocketAddr,
}

impl Server {
    /// Starts the executable and waits for its `LISTENING <port>` line.
    pub fn spawn(exe: &Path) -> Result<Server, String> {
        let mut child = Command::new(exe)
            .args(["--port", "0"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", exe.display()))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut line = String::new();
        let read = BufReader::new(stdout).read_line(&mut line);
        let port = line
            .trim()
            .strip_prefix("LISTENING ")
            .and_then(|p| p.parse::<u16>().ok());
        let mut server = Server {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        match (read, port) {
            (Ok(_), Some(port)) => {
                server.addr.set_port(port);
                Ok(server)
            }
            _ => Err(format!("server did not report its port: {line:?}")),
        }
    }

    /// Sends `SHUTDOWN` on a fresh connection and waits for the process to exit.
    /// Every other connection must have quit first: the server joins its handlers.
    pub fn shutdown(mut self) -> Result<(), String> {
        let result = Conn::connect(self.addr).and_then(|mut c| {
            let (reply, _) = c.request("SHUTDOWN")?;
            expect_reply(&reply, "OK shutting down")
        });
        let deadline = Instant::now() + READ_TIMEOUT;
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return result,
                Ok(Some(status)) => return Err(format!("server exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => {
                    // `Drop` kills and reaps it.
                    return Err("server did not exit after SHUTDOWN".to_string());
                }
            }
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}
