//! The run's result: metrics with units and sample counts, provenance, and
//! the one-line JSON summary that ends standard output.

use crate::trace::json_string;
use crate::workload::{host_cores, Workload};
use std::fmt::Write as _;

/// Seed kept out of every run made while the benchmark was tuned, so a
/// later performance claim can be confirmed on inputs nobody tuned for.
pub const HELD_OUT_SEED: u64 = 7_340_033;

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// How many measurements the value summarises (0 when the layer does
    /// not run on this workload).
    pub samples: usize,
}

impl Metric {
    pub fn new(name: &'static str, unit: &'static str, value: f64, samples: usize) -> Metric {
        Metric { name, unit, value, samples }
    }
}

/// Everything one invocation reports.
#[derive(Debug, Default)]
pub struct RunResult {
    pub attempted: u64,
    pub failed: u64,
    pub check_failures: usize,
    pub metrics: Vec<Metric>,
    /// `key=value` facts printed with the provenance block.
    pub notes: Vec<(String, String)>,
}

impl RunResult {
    pub fn note(&mut self, key: &str, value: impl std::fmt::Display) {
        self.notes.push((key.to_owned(), value.to_string()));
    }

    pub fn push(&mut self, name: &'static str, unit: &'static str, value: f64, samples: usize) {
        self.metrics.push(Metric::new(name, unit, value, samples));
    }

    /// Whether the outputs checked out and every metric is a finite number.
    pub fn correct(&self) -> bool {
        self.check_failures == 0 && self.metrics.iter().all(|m| m.value.is_finite())
    }

    /// The final line: `correct`, `attempted`, `failed` and `metrics`.
    pub fn summary_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let value = if m.value.is_finite() { format!("{:?}", m.value) } else { "null".into() };
            let _ = write!(
                out,
                "{sep}{}: {{\"value\": {value}, \"unit\": {}}}",
                json_string(m.name),
                json_string(m.unit)
            );
        }
        out.push_str("}}");
        out
    }

    /// Human-readable block: provenance, then one line per metric with its
    /// unit and sample count.
    pub fn print_report(&self, w: &Workload, seed: u64, seconds: u64, trace: bool) {
        let f = torchsparse_runtime::cpu_features();
        let features: Vec<&str> = [("avx2", f.avx2), ("fma", f.fma), ("f16c", f.f16c)]
            .iter()
            .filter(|(_, on)| *on)
            .map(|(n, _)| *n)
            .collect();
        println!(
            "perfbench workload={} seed={seed} seconds={seconds} trace={}",
            w.name, trace as u8
        );
        println!("  why: {}", w.why);
        println!(
            "  provenance: clock=measured_wall host_cores={} cpu_features={} threads={} scale={} \
             voxels={} gflop_band={:?} git_rev={} held_out_seed={HELD_OUT_SEED}",
            host_cores(),
            if features.is_empty() { "none".to_owned() } else { features.join(",") },
            w.threads(),
            w.scale,
            w.voxels,
            w.gflop,
            git_rev(),
        );
        for (k, v) in &self.notes {
            println!("  {k}: {v}");
        }
        for m in &self.metrics {
            println!("  {:<34} {:>14.4} {:<8} n={}", m.name, m.value, m.unit, m.samples);
        }
        println!(
            "  attempted={} failed={} check_failures={}",
            self.attempted, self.failed, self.check_failures
        );
    }
}

/// The checkout's git revision, when the checkout is a git repository.
fn git_rev() -> String {
    if !std::path::Path::new(".git").exists() {
        return "unknown".to_owned();
    }
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_owned())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_owned())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_has_exactly_the_contract_keys() {
        let mut r = RunResult { attempted: 120, failed: 0, ..RunResult::default() };
        r.push("latency_ms_p50", "ms", 201.25, 110);
        r.push("setup_s", "s", 0.3, 5);
        assert_eq!(
            r.summary_json(),
            "{\"correct\": true, \"attempted\": 120, \"failed\": 0, \"metrics\": {\
             \"latency_ms_p50\": {\"value\": 201.25, \"unit\": \"ms\"}, \
             \"setup_s\": {\"value\": 0.3, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn a_non_finite_metric_or_failed_check_is_incorrect() {
        let mut r = RunResult::default();
        r.push("x", "ms", f64::NAN, 1);
        assert!(!r.correct());
        assert!(r.summary_json().contains("\"value\": null"));
        let r = RunResult { check_failures: 1, ..RunResult::default() };
        assert!(!r.correct());
    }
}
