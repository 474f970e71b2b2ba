//! The benchmark's statistics: percentiles that never claim more than the
//! sample supports, open-loop latency from the due time, latency-limit
//! accounting in which a failure is a miss, and generator lateness.

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_SUPPORT: usize = 10;

/// A percentile as reported: which percentile it really is, its value and
/// the sample count behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pct {
    /// The percentile actually reported, 0–100.
    pub pct: f64,
    /// Its value.
    pub value: f64,
    /// Samples it was taken from.
    pub n: usize,
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The nearest-rank median, or `None` for no samples.
pub fn median(samples: &[f64]) -> Option<Pct> {
    let v = sorted(samples);
    let n = v.len();
    (n > 0).then(|| Pct { pct: 50.0, value: v[n.div_ceil(2) - 1], n })
}

/// The highest nearest-rank percentile not above `want` that has at least
/// [`TAIL_SUPPORT`] samples beyond it. With fewer than
/// `TAIL_SUPPORT + 1` samples no percentile qualifies and the maximum is
/// reported as the 100th; `None` for no samples.
pub fn tail(samples: &[f64], want: f64) -> Option<Pct> {
    let v = sorted(samples);
    let n = v.len();
    if n == 0 {
        return None;
    }
    if n <= TAIL_SUPPORT {
        return Some(Pct { pct: 100.0, value: v[n - 1], n });
    }
    let wanted_rank = ((want / 100.0) * n as f64).ceil() as usize;
    let rank = wanted_rank.clamp(1, n - TAIL_SUPPORT);
    Some(Pct { pct: 100.0 * rank as f64 / n as f64, value: v[rank - 1], n })
}

/// Arithmetic mean, 0 for no samples.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// Open-loop latency in ms: from when the request was *due* (not when the
/// generator got round to sending it) to its completion, both in seconds
/// from the schedule start. A stalled generator therefore charges its stall
/// to every request it delayed.
pub fn latency_from_due_ms(due_s: f64, done_s: f64) -> f64 {
    (done_s - due_s) * 1e3
}

/// How late the generator sent a request, ms (never negative: an early
/// send is on time).
pub fn lateness_ms(due_s: f64, sent_s: f64) -> f64 {
    ((sent_s - due_s) * 1e3).max(0.0)
}

/// Share of attempted requests that completed within `limit_ms`. Each entry
/// is one attempted request: its latency, or `None` when it was refused or
/// failed, which counts as a miss.
pub fn within_limit_frac(outcomes: &[Option<f64>], limit_ms: f64) -> f64 {
    if outcomes.is_empty() {
        return 0.0;
    }
    let met = outcomes.iter().filter(|o| o.is_some_and(|ms| ms <= limit_ms)).count();
    met as f64 / outcomes.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_reports_the_highest_percentile_the_sample_supports() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        // p95 would leave 5 samples beyond it; p90 leaves exactly 10
        assert_eq!(tail(&hundred, 95.0), Some(Pct { pct: 90.0, value: 90.0, n: 100 }));
        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&thousand, 95.0), Some(Pct { pct: 95.0, value: 950.0, n: 1000 }));
        // 200 samples: p95 leaves exactly 10 beyond
        let two_hundred: Vec<f64> = (1..=200).rev().map(f64::from).collect();
        assert_eq!(tail(&two_hundred, 95.0).unwrap().value, 190.0);
        let few = [3.0, 1.0, 2.0];
        assert_eq!(tail(&few, 95.0), Some(Pct { pct: 100.0, value: 3.0, n: 3 }));
        assert_eq!(tail(&[], 95.0), None);
    }

    #[test]
    fn median_is_nearest_rank() {
        assert_eq!(median(&[5.0, 1.0, 3.0]).unwrap().value, 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]).unwrap().value, 2.0);
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn open_loop_latency_runs_from_the_due_time() {
        // due at 1.0 s, sent 0.3 s late at 1.3 s, served in 0.1 s
        let (due, sent, done) = (1.0, 1.3, 1.4);
        assert!((latency_from_due_ms(due, done) - 400.0).abs() < 1e-9);
        assert!((lateness_ms(due, sent) - 300.0).abs() < 1e-9);
        // the stall is charged: latency from the send alone would be 100 ms
        assert!(latency_from_due_ms(due, done) > latency_from_due_ms(sent, done));
    }

    #[test]
    fn generator_lateness_is_never_negative() {
        assert_eq!(lateness_ms(2.0, 1.9), 0.0);
        assert!((lateness_ms(2.0, 2.0005) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn refused_and_failed_requests_miss_the_limit() {
        let outcomes = [Some(100.0), Some(600.0), None, Some(500.0), None];
        // met: 100 and 500 (inclusive); the two failures are misses
        assert!((within_limit_frac(&outcomes, 500.0) - 0.4).abs() < 1e-12);
        assert_eq!(within_limit_frac(&[None, None], 500.0), 0.0);
        assert_eq!(within_limit_frac(&[], 500.0), 0.0);
    }
}
