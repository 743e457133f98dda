//! Command-line arguments shared by both binaries.

use std::path::PathBuf;
use std::time::Duration;

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// 100-group views, one writer, no reader: the engines and base upkeep.
    Ingest,
    /// 10 000-group views, one writer and one snapshot reader: publication.
    ServeWide,
    /// `dbring-serve` on loopback with a pipelining writer and reader.
    Tcp,
}

impl Workload {
    /// Customers per view.
    pub fn customers(self) -> i64 {
        match self {
            Workload::ServeWide => 10_000,
            Workload::Ingest | Workload::Tcp => 100,
        }
    }

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Ingest => "ingest",
            Workload::ServeWide => "serve_wide",
            Workload::Tcp => "tcp",
        }
    }
}

/// Parsed arguments.
#[derive(Clone, Debug)]
pub struct Args {
    /// Which workload to run.
    pub workload: Workload,
    /// Seed for every generated input.
    pub seed: u64,
    /// How long the measured phase runs.
    pub seconds: Duration,
    /// The `dbring-serve` executable (required for `tcp`).
    pub server: Option<PathBuf>,
    /// Where the traced run writes its spans.
    pub spans: Option<PathBuf>,
}

/// Parses `--workload W --seed N --seconds S [--server PATH] [--spans PATH]`.
pub fn parse() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut server = None;
    let mut spans = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(match value.as_str() {
                    "ingest" => Workload::Ingest,
                    "serve_wide" => Workload::ServeWide,
                    "tcp" => Workload::Tcp,
                    other => return Err(format!("unknown workload {other}")),
                })
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| e.to_string())?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| e.to_string())?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
                seconds = Some(Duration::from_secs_f64(s));
            }
            "--server" => server = Some(PathBuf::from(value)),
            "--spans" => spans = Some(PathBuf::from(value)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload == Workload::Tcp && server.is_none() {
        return Err("--server is required for tcp".to_string());
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        server,
        spans,
    })
}
