//! Prometheus text-format metrics for the `/metrics` endpoint.
//!
//! Plain atomics — no metrics crate exists in the offline environment,
//! and the exposition format (version 0.0.4) is simple enough to render
//! by hand. Counters are monotonic over the server's lifetime; gauges
//! (jobs by state, queue depth, rounds/sec) are computed at scrape time.

use crate::job::JobStore;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Instant;

/// Shared counters, updated by HTTP handlers and job runners.
pub struct Metrics {
    started: Instant,
    /// HTTP requests handled (any route, any status).
    pub http_requests: AtomicU64,
    /// Jobs accepted by `POST /jobs`.
    pub jobs_submitted: AtomicU64,
    /// Jobs that reached a terminal state.
    pub jobs_completed: AtomicU64,
    /// Simulation rounds executed, across all jobs and seeds.
    pub rounds: AtomicU64,
    /// NDJSON events emitted to job logs.
    pub events: AtomicU64,
    /// Checkpoints captured.
    pub checkpoints: AtomicU64,
    /// Bytes of snapshot frames persisted to the jobs dir.
    pub snapshot_bytes: AtomicU64,
    /// Jobs currently waiting for cores (maintained by the orchestrator).
    pub queue_depth: AtomicUsize,
}

impl Default for Metrics {
    fn default() -> Self {
        Metrics {
            started: Instant::now(),
            http_requests: AtomicU64::new(0),
            jobs_submitted: AtomicU64::new(0),
            jobs_completed: AtomicU64::new(0),
            rounds: AtomicU64::new(0),
            events: AtomicU64::new(0),
            checkpoints: AtomicU64::new(0),
            snapshot_bytes: AtomicU64::new(0),
            queue_depth: AtomicUsize::new(0),
        }
    }
}

impl Metrics {
    /// Adds one to a counter.
    pub fn inc(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n` to a counter.
    pub fn add(counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }

    /// Renders the Prometheus text exposition.
    pub fn render(&self, store: &JobStore) -> String {
        let mut out = String::with_capacity(2048);
        let mut counter = |name: &str, help: &str, value: u64| {
            out.push_str(&format!(
                "# HELP {name} {help}\n# TYPE {name} counter\n{name} {value}\n"
            ));
        };
        counter(
            "stoneage_server_http_requests_total",
            "HTTP requests handled.",
            self.http_requests.load(Ordering::Relaxed),
        );
        counter(
            "stoneage_server_jobs_submitted_total",
            "Jobs accepted for execution.",
            self.jobs_submitted.load(Ordering::Relaxed),
        );
        counter(
            "stoneage_server_jobs_completed_total",
            "Jobs that reached a terminal state.",
            self.jobs_completed.load(Ordering::Relaxed),
        );
        let rounds = self.rounds.load(Ordering::Relaxed);
        counter(
            "stoneage_server_rounds_total",
            "Simulation rounds executed across all jobs.",
            rounds,
        );
        counter(
            "stoneage_server_events_total",
            "Observer events emitted to job streams.",
            self.events.load(Ordering::Relaxed),
        );
        counter(
            "stoneage_server_checkpoints_total",
            "Snapshot checkpoints captured.",
            self.checkpoints.load(Ordering::Relaxed),
        );
        counter(
            "stoneage_server_snapshot_bytes_total",
            "Snapshot frame bytes persisted to the jobs dir.",
            self.snapshot_bytes.load(Ordering::Relaxed),
        );

        let counts = store.counts();
        out.push_str(
            "# HELP stoneage_server_jobs Jobs retained in the store, by state.\n\
             # TYPE stoneage_server_jobs gauge\n",
        );
        for (state, count) in ["queued", "running", "done", "failed", "cancelled"]
            .iter()
            .zip(counts)
        {
            out.push_str(&format!(
                "stoneage_server_jobs{{state=\"{state}\"}} {count}\n"
            ));
        }
        let mut gauge = |name: &str, help: &str, value: f64| {
            out.push_str(&format!(
                "# HELP {name} {help}\n# TYPE {name} gauge\n{name} {value}\n"
            ));
        };
        gauge(
            "stoneage_server_queue_depth",
            "Jobs waiting for cores.",
            self.queue_depth.load(Ordering::Relaxed) as f64,
        );
        let uptime = self.started.elapsed().as_secs_f64();
        gauge(
            "stoneage_server_uptime_seconds",
            "Seconds since the server started.",
            uptime,
        );
        gauge(
            "stoneage_server_rounds_per_second",
            "Lifetime average simulation rounds per second.",
            if uptime > 0.0 {
                rounds as f64 / uptime
            } else {
                0.0
            },
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_is_prometheus_text() {
        let metrics = Metrics::default();
        Metrics::inc(&metrics.http_requests);
        Metrics::add(&metrics.rounds, 42);
        let store = JobStore::new(4);
        let text = metrics.render(&store);
        assert!(text.contains("# TYPE stoneage_server_http_requests_total counter"));
        assert!(text.contains("stoneage_server_http_requests_total 1"));
        assert!(text.contains("stoneage_server_rounds_total 42"));
        assert!(text.contains("stoneage_server_jobs{state=\"queued\"} 0"));
        assert!(text.contains("# TYPE stoneage_server_queue_depth gauge"));
        // Every line is either a comment or `name[{labels}] value`.
        for line in text.lines() {
            assert!(
                line.starts_with('#')
                    || line
                        .split_once(' ')
                        .is_some_and(|(name, v)| !name.is_empty() && v.parse::<f64>().is_ok()),
                "bad exposition line: {line}"
            );
        }
    }
}
