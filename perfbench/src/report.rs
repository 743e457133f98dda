//! Samples, percentiles, peak memory and the JSON lines a run prints.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Most samples a [`Samples`] keeps; past this it keeps every second one.
const KEEP: usize = 1 << 18;

/// Latency samples of one kind, in nanoseconds. Memory stays bounded: once
/// `KEEP` samples are held, every second one is dropped and from then on only
/// every second sample is kept (then every fourth, and so on), an unbiased
/// thinning of a long run.
#[derive(Clone, Debug)]
pub struct Samples {
    ns: Vec<u64>,
    seen: usize,
    stride: usize,
}

impl Default for Samples {
    fn default() -> Self {
        Samples {
            ns: Vec::new(),
            seen: 0,
            stride: 1,
        }
    }
}

impl Samples {
    /// Records one sample.
    pub fn push(&mut self, ns: u64) {
        if self.seen.is_multiple_of(self.stride) {
            if self.ns.len() == KEEP {
                let mut i = 0;
                self.ns.retain(|_| {
                    i += 1;
                    i % 2 == 1
                });
                self.stride *= 2;
            }
            if self.seen.is_multiple_of(self.stride) {
                self.ns.push(ns);
            }
        }
        self.seen += 1;
    }

    /// Number of samples recorded (kept or thinned out).
    pub fn len(&self) -> usize {
        self.seen
    }

    /// Whether no sample was recorded.
    pub fn is_empty(&self) -> bool {
        self.seen == 0
    }

    /// The `q`-quantile of the kept samples (nearest rank), or `None` without
    /// samples.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.ns.is_empty() {
            return None;
        }
        let mut sorted = self.ns.clone();
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        Some(*sorted.select_nth_unstable(rank - 1).1 as f64)
    }

    /// Number of samples kept.
    pub fn kept(&self) -> usize {
        self.ns.len()
    }
}

/// Completions counted per second of a run. Its rate is the median over whole
/// seconds, which a brief stall of the machine does not drag down.
#[derive(Clone, Debug)]
pub struct Rate {
    started: Instant,
    per_second: Vec<f64>,
}

impl Default for Rate {
    fn default() -> Self {
        Rate {
            started: Instant::now(),
            per_second: Vec::new(),
        }
    }
}

impl Rate {
    /// Counts `n` completions of work that ran from `start` to `end`, shared
    /// among the seconds it overlapped in proportion to the overlap.
    pub fn add(&mut self, start: Instant, end: Instant, n: u64) {
        let from = start.saturating_duration_since(self.started).as_secs_f64();
        let to = end.saturating_duration_since(self.started).as_secs_f64();
        let last = to as usize;
        if self.per_second.len() <= last {
            self.per_second.resize(last + 1, 0.0);
        }
        if to <= from {
            self.per_second[last] += n as f64;
            return;
        }
        for second in from as usize..=last {
            let overlap = to.min(second as f64 + 1.0) - from.max(second as f64);
            self.per_second[second] += n as f64 * overlap / (to - from);
        }
    }

    /// The count of each whole second within `elapsed`, rounded.
    pub fn seconds(&self, elapsed: Duration) -> String {
        let whole = (elapsed.as_secs() as usize).min(self.per_second.len());
        let counts: Vec<String> = self.per_second[..whole]
            .iter()
            .map(|c| format!("{c:.0}"))
            .collect();
        counts.join(" ")
    }

    /// Completions per second: the median over the whole seconds within
    /// `elapsed`, or the plain average when fewer than three fit.
    pub fn per_second(&self, elapsed: Duration) -> f64 {
        let whole = (elapsed.as_secs() as usize).min(self.per_second.len());
        if whole < 3 {
            return self.per_second.iter().sum::<f64>() / elapsed.as_secs_f64();
        }
        let mut counts = self.per_second[..whole].to_vec();
        counts.sort_unstable_by(f64::total_cmp);
        if whole % 2 == 1 {
            counts[whole / 2]
        } else {
            (counts[whole / 2 - 1] + counts[whole / 2]) / 2.0
        }
    }
}

/// How many samples lie beyond the `q`-quantile of `n` samples.
pub fn beyond(n: usize, q: f64) -> usize {
    n - ((q * n as f64).ceil() as usize).min(n)
}

/// Peak resident set size in MB, from `getrusage`: of this process, or of the
/// largest child it has waited for.
pub fn peak_rss_mb(children: bool) -> f64 {
    // `struct rusage` on 64-bit Linux: two `timeval`s, then 14 `long`s, the first
    // of which is `ru_maxrss` in KiB.
    extern "C" {
        fn getrusage(who: i32, usage: *mut [i64; 18]) -> i32;
    }
    let mut usage = [0i64; 18];
    let who = if children { -1 } else { 0 };
    // SAFETY: `usage` is a writable buffer of exactly `sizeof(struct rusage)` on
    // 64-bit Linux, and `who` is RUSAGE_SELF or RUSAGE_CHILDREN.
    let rc = unsafe { getrusage(who, &mut usage) };
    if rc != 0 {
        return f64::NAN;
    }
    usage[4] as f64 / 1024.0
}

/// A run's result: the pass/fail counts, the named metrics, and detail notes.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted: batches, reads, requests and correctness checks.
    pub attempted: u64,
    /// Operations that failed, correctness mismatches included.
    pub failed: u64,
    metrics: Vec<(String, f64, &'static str)>,
    notes: Vec<(String, String)>,
    /// Human-readable descriptions of each failure (the first few).
    pub errors: Vec<String>,
}

impl Report {
    /// Records `n` attempts of which `failed` failed.
    pub fn count(&mut self, n: u64, failed: u64) {
        self.attempted += n;
        self.failed += failed;
    }

    /// Records one correctness check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.count(1, u64::from(!ok));
        if !ok {
            self.fail(what());
        }
    }

    /// Records a failure description (the count is kept by [`Report::count`]).
    pub fn fail(&mut self, message: String) {
        if self.errors.len() < 20 {
            self.errors.push(message);
        }
    }

    /// Sets a metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    /// Adds a detail note printed before the result line.
    pub fn note(&mut self, key: &str, value: impl ToString) {
        self.notes.push((key.to_string(), value.to_string()));
    }

    /// Sets the `p`th percentile of `samples` as `<stem>_p<p>_<unit>`, scaled
    /// from ns by `scale`, and notes the sample count, how many samples lie beyond
    /// that percentile, and p50 to the maximum.
    pub fn latency(
        &mut self,
        stem: &str,
        samples: &Samples,
        p: u8,
        scale: f64,
        unit: &'static str,
    ) {
        let q = f64::from(p) / 100.0;
        let value = samples.quantile(q).map_or(f64::NAN, |v| v / scale);
        self.metric(&format!("{stem}_p{p}_{unit}"), value, unit);
        let n = samples.kept();
        let beyond = beyond(n, q);
        let enough = if beyond >= 10 { "" } else { ": too few" };
        self.note(
            &format!("{stem}_samples"),
            format!("n={n} of {}, {beyond} beyond p{p}{enough}", samples.len()),
        );
        let shape: Vec<String> = [0.5, 0.9, 0.95, 0.99, 0.999, 1.0]
            .iter()
            .filter_map(|&q| Some(format!("p{}={}", q * 100.0, samples.quantile(q)? / scale)))
            .collect();
        self.note(&format!("{stem}_shape_{unit}"), shape.join(" "));
    }

    /// Whether every check passed and every metric is a finite number.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.metrics.iter().all(|(_, v, _)| v.is_finite())
    }

    /// The detail line: notes and failures.
    pub fn detail_json(&self) -> String {
        let mut out = String::from("{\"detail\": {");
        for (i, (k, v)) in self.notes.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "{}: {}", json_str(k), json_str(v));
        }
        out.push_str("}, \"errors\": [");
        for (i, e) in self.errors.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&json_str(e));
        }
        out.push_str("]}");
        out
    }

    /// The result line: `correct`, `attempted`, `failed` and `metrics`.
    pub fn result_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let value = if value.is_finite() {
                format!("{value:?}")
            } else {
                "null".to_string()
            };
            let _ = write!(
                out,
                "{}: {{\"value\": {value}, \"unit\": {}}}",
                json_str(name),
                json_str(unit)
            );
        }
        out.push_str("}}");
        out
    }

    /// Prints the detail line and then the result line.
    pub fn print(&self) {
        println!("{}", self.detail_json());
        println!("{}", self.result_json());
    }
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
