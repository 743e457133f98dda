//! The dbring benchmark harness: seeded sales-dashboard inputs, the three
//! workloads, correctness oracles and the JSON result lines.
//!
//! Everything in this library calls only the `dbring` facade and the
//! `dbring-serve` line protocol, so the gating binary builds whatever the layers
//! underneath become. The traced binary (`src/bin/trace.rs`) adds a shadow
//! pipeline over the layers' own public functions.

pub mod args;
pub mod cpu;
pub mod data;
pub mod inproc;
pub mod report;
pub mod tcp;
pub mod wire;

/// The write percentile the gate holds. `serve_wide`'s batch time on a shared
/// host switches for seconds at a time between a fast and a slow level, about
/// 17 and 26 ms of CPU time, and its median lands on one level or the other with
/// the mix of a run (spread 0.15 over eight 12 s runs, against 0.04 for its
/// p95). The median stays in the detail line; `upd_per_s` is the mean.
pub const WRITE_PERCENTILE: u8 = 95;
/// The read percentile the gate holds. A read on `serve_wide` takes well under
/// a microsecond, and its slowest tenth comes from caches that the writer, other
/// processes and other guests on the host pollute: on a shared host its p99
/// spread by 0.42 to 0.52 of its median across ten runs and its p90 by 0.16
/// across five, against a bound of at most 0.25. The tail stays in the detail
/// line.
pub const READ_PERCENTILE: u8 = 50;

/// Batches over which a traced in-process run takes its exact counts.
pub const COUNT_BATCHES: usize = 64;

/// Runs `body` on parsed arguments, prints the detail and result lines, and
/// returns the process exit code: 0 only when every check passed.
pub fn main_with(body: impl FnOnce(&args::Args, &mut report::Report)) -> std::process::ExitCode {
    let args = match args::parse() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}");
            return std::process::ExitCode::from(2);
        }
    };
    let mut report = report::Report::default();
    report.note("workload", args.workload.name());
    report.note("seed", args.seed);
    report.note("seconds", args.seconds.as_secs_f64());
    body(&args, &mut report);
    report.print();
    if report.correct() {
        std::process::ExitCode::SUCCESS
    } else {
        std::process::ExitCode::FAILURE
    }
}
