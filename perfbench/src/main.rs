//! The gating run: one workload, its end-to-end metrics, untraced.
//!
//! ```text
//! perfbench --workload ingest|serve_wide|tcp --seed N --seconds S [--server PATH]
//! ```

use dbring_perfbench::args::Workload;
use dbring_perfbench::{inproc, main_with, tcp};

fn main() -> std::process::ExitCode {
    main_with(|args, report| match args.workload {
        Workload::Ingest | Workload::ServeWide => inproc::run(args, report),
        Workload::Tcp => tcp::run(args, report),
    })
}
