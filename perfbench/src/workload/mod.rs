//! The three workloads. Each runs its set-up several times (reporting the
//! median), measures one untraced pass, and in a traced run a second,
//! traced pass over the same inputs; then it checks every output.

pub mod fleet;
pub mod frame;
pub mod refs;
pub mod serve;

use crate::report::{Checks, Metrics};
use crate::stats;
use std::path::PathBuf;
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;

/// What the command line asks of one run.
#[derive(Debug, Clone)]
pub struct RunArgs {
    /// Seed of every input schedule.
    pub seed: u64,
    /// Measured seconds (split evenly over the two passes of a traced run).
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
    /// The `asdr-shardd` executable.
    pub shardd: PathBuf,
    /// Scratch directory for sockets, bundles and span dumps.
    pub work_dir: PathBuf,
}

impl RunArgs {
    /// Seconds each measured pass runs.
    pub fn pass_seconds(&self) -> f64 {
        if self.trace {
            self.seconds / 2.0
        } else {
            self.seconds
        }
    }
}

/// A finished run.
#[derive(Debug, Default)]
pub struct RunResult {
    /// End-to-end metrics of the untraced pass.
    pub e2e: Metrics,
    /// Per-layer metrics of the traced pass (traced runs only).
    pub layers: Metrics,
    /// Output checks over every pass.
    pub checks: Checks,
    /// Requests (or frames) attempted over every measured pass.
    pub attempted: u64,
    /// Of those, refused or failed.
    pub failed: u64,
}

impl RunResult {
    /// Counts a pass's requests and checks that attempted = succeeded +
    /// failed.
    pub fn count(&mut self, pass: &str, attempted: usize, succeeded: usize, failed: usize) {
        self.checks.check(attempted == succeeded + failed, || {
            format!("{pass}: attempted {attempted} != succeeded {succeeded} + failed {failed}")
        });
        self.attempted += attempted as u64;
        self.failed += failed as u64;
    }
}

/// Runs `setup` [`SETUP_REPS`] times, handing every result but the last to
/// `teardown`; returns the last and the median set-up seconds.
pub fn repeated_setup<T>(
    mut setup: impl FnMut() -> Result<T, String>,
    mut teardown: impl FnMut(T),
) -> Result<(T, f64), String> {
    let mut secs = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for _ in 0..SETUP_REPS {
        if let Some(prev) = last.take() {
            teardown(prev);
        }
        let t0 = Instant::now();
        last = Some(setup()?);
        secs.push(t0.elapsed().as_secs_f64());
    }
    let median = stats::median(&secs).expect("at least one set-up").value;
    Ok((last.expect("at least one set-up"), median))
}

/// `obs.overhead_pct`: how much slower the traced pass's median latency
/// was than the untraced one's, percent.
pub fn overhead_pct(untraced_p50: f64, traced_p50: f64) -> f64 {
    100.0 * (traced_p50 / untraced_p50 - 1.0)
}

/// Seconds from `t0` to `at` (0 when `at` is earlier).
pub fn secs_since(t0: Instant, at: Instant) -> f64 {
    at.saturating_duration_since(t0).as_secs_f64()
}

/// Per-phase durations (ms) of the program's own `asdr_obs` spans.
pub fn obs_phases(spans: impl IntoIterator<Item = (String, u64)>) -> Vec<(String, Vec<f64>)> {
    let mut by: std::collections::BTreeMap<String, Vec<f64>> = Default::default();
    for (phase, dur_us) in spans {
        if dur_us > 0 {
            by.entry(phase).or_default().push(dur_us as f64 / 1e3);
        }
    }
    by.into_iter().collect()
}

/// Adds the `obs.*_ms_p50` metrics and prints every phase.
pub fn report_obs_phases(phases: &[(String, Vec<f64>)], layers: &mut Metrics) {
    println!("asdr_obs phases (program's own spans, traced pass):");
    for (phase, ms) in phases {
        let p50 = stats::median(ms);
        let p95 = stats::tail(ms, 95.0);
        println!(
            "  {phase:<12} n={:<5} p50 {:>9.3} ms  tail {:>9.3} ms (p{:.1})",
            ms.len(),
            p50.map_or(0.0, |p| p.value),
            p95.map_or(0.0, |p| p.value),
            p95.map_or(0.0, |p| p.pct)
        );
        let name = match phase.as_str() {
            "store" => "obs.store_ms_p50",
            "probe" => "obs.probe_ms_p50",
            "render" => "obs.render_ms_p50",
            _ => continue,
        };
        layers.pct(name, p50, "ms");
    }
}
