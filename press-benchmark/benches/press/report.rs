//! One workload run's result: named metrics with units, correctness
//! checks, human-readable notes, and the single JSON line that closes
//! the run's standard output.

use std::time::{Duration, Instant};

/// One measured value.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Everything one `--workload` run prints.
pub struct Report {
    pub workload: &'static str,
    pub metrics: Vec<Metric>,
    /// Context printed above the result: sample and batch counts, and
    /// figures that are reported but not gated.
    pub notes: Vec<String>,
    /// Named correctness checks; any `false` makes the run incorrect.
    pub checks: Vec<(String, bool)>,
    pub attempted: u64,
    pub failed: u64,
}

impl Report {
    pub fn new(workload: &'static str) -> Report {
        Report {
            workload,
            metrics: Vec::new(),
            notes: Vec::new(),
            checks: Vec::new(),
            attempted: 0,
            failed: 0,
        }
    }

    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    pub fn note(&mut self, text: impl Into<String>) {
        self.notes.push(text.into());
    }

    /// Records a check; a name checked again must pass every time.
    pub fn check(&mut self, name: impl Into<String>, ok: bool) {
        let name = name.into();
        match self.checks.iter_mut().find(|(n, _)| *n == name) {
            Some((_, all)) => *all &= ok,
            None => self.checks.push((name, ok)),
        }
    }

    /// Whether every check passed, no operation failed and every metric
    /// is a finite number (JSON has no NaN or infinity).
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|(_, ok)| *ok)
            && self.failed == 0
            && self.attempted > 0
            && self.metrics.iter().all(|m| m.value.is_finite())
    }

    /// The result line: `correct`, `attempted`, `failed`, and every
    /// metric with its unit. Values keep all their digits (Rust's `{}`
    /// prints the shortest string that round-trips the `f64`).
    pub fn json_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let v = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// Prints notes, one line per metric, the checks line, and the JSON
    /// result as the last line.
    pub fn print(&self) {
        for n in &self.notes {
            println!("  {n}");
        }
        for m in &self.metrics {
            println!("  {:<34} {:>16.4} {}", m.name, m.value, m.unit);
        }
        let failing: Vec<&str> = self
            .checks
            .iter()
            .filter(|(_, ok)| !ok)
            .map(|(name, _)| name.as_str())
            .collect();
        println!(
            "checks {}: {} of {} passed, {} of {} operations failed{}{}",
            self.workload,
            self.checks.len() - failing.len(),
            self.checks.len(),
            self.failed,
            self.attempted,
            if failing.is_empty() {
                ""
            } else {
                "; failing: "
            },
            failing.join(", ")
        );
        println!("{}", self.json_line());
    }
}

/// Median of `values` (mean of the middle pair for even lengths).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of nothing");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First quartile, median and third quartile, computed exactly as
/// Python's `statistics.quantiles(values, n=4)` (the default
/// "exclusive" method), so spreads match what other tools report.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let ld = data.len();
    if ld == 1 {
        return (data[0], data[0], data[0]);
    }
    let (n, m) = (4usize, ld + 1);
    let cut = |i: usize| {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        (data[j - 1] * (n as f64 - delta) + data[j] * delta) / n as f64
    };
    (cut(1), cut(2), cut(3))
}

/// Nearest-rank percentile (`q` in `(0, 1]`) of an ascending slice.
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of nothing");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Times `batches` batches of `ops` operations after one discarded
/// warm-up batch and returns the median nanoseconds per operation.
pub fn ns_per_op(batches: usize, ops: usize, mut batch: impl FnMut(usize)) -> f64 {
    batch(ops);
    let samples: Vec<f64> = (0..batches)
        .map(|_| {
            let t = Instant::now();
            batch(ops);
            t.elapsed().as_nanos() as f64 / ops as f64
        })
        .collect();
    median(&samples)
}

/// Runs `f` `times` times and returns the median wall time in seconds
/// with the last result.
pub fn median_secs<T>(times: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut last = None;
    let secs: Vec<f64> = (0..times)
        .map(|_| {
            let t = Instant::now();
            last = Some(f());
            t.elapsed().as_secs_f64()
        })
        .collect();
    (median(&secs), last.expect("at least one run"))
}

/// Records `peak_rss_mb`: this process's peak resident set size in MiB
/// (`VmHWM`). Fails a check where `/proc` cannot tell.
pub fn record_peak_rss(r: &mut Report) {
    let kb = std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        });
    r.check("peak RSS is readable", kb.is_some());
    r.metric("peak_rss_mb", kb.unwrap_or(0.0) / 1024.0, "MB");
}

/// The duration `fraction` of `seconds`.
pub fn share(seconds: f64, fraction: f64) -> Duration {
    Duration::from_secs_f64(seconds * fraction)
}
