//! # perfbench — one benchmark of the IA-32 Execution Layer on two clocks
//!
//! Runs one of three workloads (`spec_int`, `mixed`, `fleet`) from a
//! single-threaded process, checks every guest result against the
//! interpreter oracle, and reports metrics on the simulated Itanium
//! clock (deterministic) and the host clock (median of several passes).
//! See `perfbench/README.md` for the workloads and the metric table.

pub mod calib;
pub mod metrics;
pub mod paper;
pub mod replay;
pub mod report;
pub mod run;
pub mod spans;
pub mod workload;

/// Resets the process's peak resident set size (Linux
/// `/proc/self/clear_refs`); returns whether the reset took effect.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Peak resident set size in MB (2^20 bytes), from `VmHWM` in
/// `/proc/self/status`; 0 where that is unavailable.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
