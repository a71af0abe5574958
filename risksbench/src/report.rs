//! The metric catalogue, the run outcome every workload fills in, and the
//! one-line JSON result the benchmark prints last.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics (`--trace 0`), `(name, unit)`. Every workload emits
/// every one of them; see README.md for what each means per workload.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("reports_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (`--trace 1`), `(name, unit)`. A layer that is not on a
/// workload's path does no work there and reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("solutions.report_ns", "ns"),
    ("service.ingest_batch_self_ns", "ns"),
    ("service.drain_ms", "ms"),
    ("service.snapshot_p50_ms", "ms"),
    ("service.snapshot_tail_ms", "ms"),
    ("service.snapshot_tail_pct", "%"),
    ("service.snapshot_samples", "count"),
    ("net_client.push_ns", "ns"),
    ("net_client.finish_ms", "ms"),
    ("net_client.connect_ms", "ms"),
    ("net_client.snapshot_p50_ms", "ms"),
    ("net_client.snapshot_tail_ms", "ms"),
    ("net_client.snapshot_tail_pct", "%"),
    ("net_client.snapshot_samples", "count"),
    ("net.bind_ms", "ms"),
    ("net.finish_ms", "ms"),
    ("net.ingested_reports", "count"),
    ("net.rejected_connections", "count"),
    ("net.reaped_sessions", "count"),
    ("monitor.max_late_ms", "ms"),
    ("pipeline.observe_s", "s"),
    ("attacks.fit_s", "s"),
    ("reident.index_build_s", "s"),
    ("attack_pipeline.evaluate_s", "s"),
    ("datasets.synth_s", "s"),
    ("stage.sanitize_ns", "ns"),
    ("stage.compact_push_ns", "ns"),
    ("stage.frame_encode_ns", "ns"),
    ("stage.crc_ns", "ns"),
    ("stage.crc_mb_s", "MB/s"),
    ("stage.frame_decode_ns", "ns"),
    ("stage.validate_ns", "ns"),
    ("stage.absorb_ns", "ns"),
    ("stage.merge_us", "us"),
    ("stage.estimate_us", "us"),
    ("wire.bytes_per_report", "B"),
    ("wire.frames", "count"),
    ("trace.overhead_pct", "%"),
];

/// What one workload run produced: metric values, the operation tally and
/// every failed output check.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Metric values by catalogue name.
    pub values: BTreeMap<&'static str, f64>,
    /// Operations attempted (reports, connects, snapshots, finishes, passes).
    pub attempted: u64,
    /// Operations that returned an error, panicked or lost their report.
    pub failed: u64,
    /// Failed output checks; any entry makes the run incorrect.
    pub errors: Vec<String>,
    /// Digest of the checked result (drained estimates or attack outcome),
    /// printed so runs of different workloads can be compared by hand.
    pub digest: u64,
}

impl Outcome {
    /// Records a metric value.
    ///
    /// # Panics
    /// Panics on a name missing from the catalogue — a benchmark bug.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|&(n, _)| n == name),
            "metric {name} is not in the catalogue"
        );
        self.values.insert(name, value);
    }

    /// Records a failed output check unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(what());
        }
    }

    /// Counts `attempted` operations of which `failed` failed.
    pub fn ops(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    /// Whether every output check passed and no operation failed.
    pub fn correct(&self) -> bool {
        self.errors.is_empty() && self.failed == 0
    }

    /// The result line: the catalogue for this mode, each metric with its
    /// unit. A per-layer metric the workload did not set reads 0 (its layer
    /// did no work); a missing end-to-end metric is a benchmark bug and
    /// makes the run incorrect.
    pub fn result_line(&mut self, trace: bool) -> String {
        let catalogue = if trace { PER_LAYER } else { END_TO_END };
        let mut metrics = String::new();
        for (i, &(name, unit)) in catalogue.iter().enumerate() {
            let value = match self.values.get(name) {
                Some(v) if v.is_finite() => *v,
                _ if trace => 0.0,
                _ => {
                    self.errors
                        .push(format!("end-to-end metric {name} was not measured"));
                    0.0
                }
            };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                metrics,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed
        )
    }
}

/// Median (mean of the middle pair for even counts); 0 for no samples.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank percentile `pct` (0–100]; 0 for no samples.
pub fn percentile(values: &[f64], pct: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (pct / 100.0 * v.len() as f64).ceil() as usize;
    v.get(rank.max(1) - 1).copied().unwrap_or(0.0)
}

/// The highest of the percentiles 50, 90, 99 and 99.9 that has at least ten
/// samples beyond it, as `(percentile, nearest-rank value)`; `(0, 0)` when
/// fewer than 20 samples exist.
pub fn tail(values: &[f64]) -> (f64, f64) {
    let n = values.len() as f64;
    [99.9, 99.0, 90.0, 50.0]
        .into_iter()
        .find(|pct| n - (pct / 100.0 * n).ceil() >= 10.0)
        .map_or((0.0, 0.0), |pct| (pct, percentile(values, pct)))
}

/// Order-sensitive digest of a sequence of `u64` words.
pub fn digest(words: impl IntoIterator<Item = u64>) -> u64 {
    words.into_iter().fold(0x005E_EDD1_6E57_u64, |h, w| {
        ldp_protocols::hash::mix3(h, w, 0xD16E)
    })
}

/// Bit-exact digest of per-attribute estimates.
pub fn estimates_digest(estimates: &[Vec<f64>]) -> u64 {
    digest(estimates.iter().flatten().map(|v| v.to_bits()))
}

/// This process's peak resident set (`VmHWM`) in MiB, or 0 when
/// `/proc/self/status` is unavailable.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&v), (90.0, 90.0));
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&v), (99.0, 990.0));
        assert_eq!(tail(&v[..15]), (0.0, 0.0));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(percentile(&v, 10.0), 2.0);
        assert_eq!(percentile(&v[..8], 10.0), 1.0);
        assert_eq!(percentile(&[], 10.0), 0.0);
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
