//! The benchmark's own arithmetic: order statistics over timing samples
//! and the open-loop schedule that latency and generator lag are
//! counted against.

use std::time::{Duration, Instant};

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `samples` by linear interpolation
/// between the two nearest order statistics (the "type 7" rule of R and
/// NumPy). `NaN` for an empty sample.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// The median of `samples` (`NaN` for an empty sample).
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// The fast quartile of per-instance seconds. Interference from
/// whatever else shares the host (cores, caches, memory bus) only ever
/// slows an instance down and comes in bursts of seconds, so the lower
/// quartile of a run is far steadier from run to run than its median,
/// while still moving with any change to the work itself.
pub fn fast_time(times: &[f64]) -> f64 {
    percentile(times, 0.25)
}

/// The fast quartile of per-instance rates (work per second): the upper
/// quartile, for the reason given at [`fast_time`].
pub fn fast_rate(rates: &[f64]) -> f64 {
    percentile(rates, 0.75)
}

/// How many of `n` samples lie above the `q`-quantile. A percentile is
/// worth reporting only when at least ten samples lie beyond it.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    n - (q * n as f64).ceil() as usize
}

/// An open-loop arrival schedule: job `i` is due `i / rate` seconds after
/// `start`, whether or not earlier jobs have finished.
#[derive(Clone, Copy, Debug)]
pub struct OpenLoop {
    /// When job 0 is due.
    pub start: Instant,
    /// Offered jobs per second.
    pub rate: f64,
}

impl OpenLoop {
    /// When job `i` is due to be sent.
    pub fn due(&self, i: usize) -> Instant {
        self.start + Duration::from_secs_f64(i as f64 / self.rate)
    }

    /// Submit-to-done latency of job `i`, counted from its due time (not
    /// from when it was actually sent), so a stalled generator charges
    /// its stall to every job it delayed.
    pub fn latency(&self, i: usize, done: Instant) -> f64 {
        done.saturating_duration_since(self.due(i)).as_secs_f64()
    }

    /// How late job `i` was sent (zero if it went out on time).
    pub fn lag(&self, i: usize, sent: Instant) -> f64 {
        sent.saturating_duration_since(self.due(i)).as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_order_statistics() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 1.0), 4.0);
        assert_eq!(median(&xs), 2.5);
        assert!((percentile(&xs, 0.95) - 3.85).abs() < 1e-12);
        assert_eq!(median(&[7.0]), 7.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn p95_of_a_hundred_ranks_is_near_the_top() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert!((percentile(&xs, 0.95) - 95.05).abs() < 1e-9);
        assert_eq!(median(&xs), 50.5);
    }

    #[test]
    fn samples_beyond_counts_the_tail() {
        assert_eq!(samples_beyond(200, 0.95), 10);
        assert_eq!(samples_beyond(199, 0.95), 9);
        assert_eq!(samples_beyond(20, 0.5), 10);
    }

    #[test]
    fn latency_counts_from_the_due_time_and_lag_from_the_send() {
        let start = Instant::now();
        let sched = OpenLoop { start, rate: 4.0 };
        // Job 2 is due 0.5 s in; sent 0.1 s late, done 0.3 s after sending.
        let sent = start + Duration::from_millis(600);
        let done = start + Duration::from_millis(900);
        assert!((sched.lag(2, sent) - 0.1).abs() < 1e-9);
        assert!((sched.latency(2, done) - 0.4).abs() < 1e-9);
        // A job sent early has no lag.
        assert_eq!(sched.lag(3, start), 0.0);
    }
}
