//! Result printing: a stamp line, a human-readable table, and a final
//! JSON line (`correct`, `attempted`, `failed`, `metrics`) for tools.

use crate::workload::Workload;

/// One named metric with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

impl Metric {
    /// A metric.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// Everything one run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Metrics, in print order.
    pub metrics: Vec<Metric>,
    /// Operations attempted (execs).
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// Output checks that failed. Empty means correct.
    pub mismatches: Vec<String>,
    /// Free-form lines printed above the table.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Whether every output check passed and every value is a number.
    pub fn correct(&self) -> bool {
        self.mismatches.is_empty() && self.metrics.iter().all(|m| m.value.is_finite())
    }
}

/// Print the stamp, the notes, the metric table and, last, the JSON line.
pub fn print(workload: &Workload, seed: u64, outcome: &Outcome) {
    println!(
        "# stamp: rev={} nproc={} workload={} seed={} cells={} cell_hours={}",
        git_rev(),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        workload.name(),
        seed,
        workload.cells(seed).len(),
        workload.cell_hours(),
    );
    for note in &outcome.notes {
        println!("# {note}");
    }
    for m in &outcome.metrics {
        println!("{:<34} {:>18.6} {}", m.name, m.value, m.unit);
    }
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct(),
        outcome.attempted.max(1),
        outcome.failed,
        metrics.join(", ")
    );
}

/// A JSON number; non-finite values (which also make the run incorrect)
/// print as 0 so the line stays parseable.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Peak resident set of this process so far, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The checked-out revision, read from `.git` without running git;
/// `unknown` outside a git checkout.
fn git_rev() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".to_string(),
    };
    let Some(refname) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(rev) = std::fs::read_to_string(format!(".git/{refname}")) {
        return rev.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(refname).map(|rev| rev.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".to_string())
}
