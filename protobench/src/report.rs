//! What one benchmark run reports: its metrics, its operation counts,
//! the host it ran on, and the one-line JSON result.

use std::fmt::Write as _;
use std::process::Command;

/// One named, unit-bearing measurement.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json` (or a workload detail).
    pub name: &'static str,
    /// Unit, e.g. `s`, `1/s`, `count`.
    pub unit: &'static str,
    /// Value as measured.
    pub value: f64,
}

impl Metric {
    /// A metric.
    pub fn new(name: &'static str, unit: &'static str, value: f64) -> Metric {
        Metric { name, unit, value }
    }
}

/// The result of one workload run.
#[derive(Default)]
pub struct Run {
    /// Operations attempted (instances solved or jobs submitted).
    pub attempted: u64,
    /// Operations that failed: wrong outputs, budget hits, simulated
    /// statistics that differ from a repeat or from the recorded values,
    /// non-2xx responses, failed or cancelled jobs.
    pub failed: u64,
    /// One line per failure, for the log.
    pub failures: Vec<String>,
    /// The end-to-end metrics (untraced run) or the per-layer metrics
    /// (traced run), in `BENCHMARK.json` order.
    pub metrics: Vec<Metric>,
    /// Workload-specific figures printed to the log under their own
    /// names (e.g. `rounds_per_s`, `job.queue_wait_p95_s`).
    pub details: Vec<Metric>,
    /// The largest `Outcome::workers` any instance actually used.
    pub workers_used: usize,
    /// Simulated statistics per instance (or per distinct job spec), in
    /// the form `expected.json` records them.
    pub stats: Vec<String>,
}

impl Run {
    /// Counts one attempted operation, failed if `error` is set.
    pub fn check(&mut self, error: Option<String>) {
        self.attempted += 1;
        if let Some(e) = error {
            self.fail(e);
        }
    }

    /// Counts one failure of an already-attempted operation.
    pub fn fail(&mut self, error: String) {
        self.failed += 1;
        self.failures.push(error);
    }

    /// Failed operations over attempted ones.
    pub fn error_rate(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The single-line JSON result the benchmark ends its output with.
    pub fn json_line(&self) -> String {
        let mut metrics = String::new();
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                metrics.push_str(", ");
            }
            let _ = write!(
                metrics,
                r#""{}": {{"value": {}, "unit": "{}"}}"#,
                m.name,
                json_number(m.value),
                m.unit
            );
        }
        format!(
            r#"{{"correct": {}, "attempted": {}, "failed": {}, "metrics": {{{metrics}}}}}"#,
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed
        )
    }
}

/// A finite number in full precision; JSON has no NaN or infinity, so
/// those become `null`.
fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_string()
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// CPUs this process may run on (what `nproc` prints).
pub fn host_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Where and how the numbers were taken, as `key: value` lines.
pub fn provenance(workers_used: usize) -> Vec<(&'static str, String)> {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let cpu_model = cpuinfo
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        .unwrap_or_else(|| "unknown".into());
    let cache = |level: u8| {
        (0..8)
            .find_map(|i| {
                let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{i}");
                let lvl = std::fs::read_to_string(format!("{dir}/level")).ok()?;
                (lvl.trim() == level.to_string())
                    .then(|| std::fs::read_to_string(format!("{dir}/size")).ok())
                    .flatten()
            })
            .map_or_else(|| "unknown".into(), |s| s.trim().to_string())
    };
    vec![
        // Only a git checkout of its own: never ask a repository above.
        (
            "commit",
            if std::path::Path::new(".git").exists() {
                command_line("git", &["rev-parse", "HEAD"])
            } else {
                "unknown (not a git checkout)".into()
            },
        ),
        ("host_cpus", host_cpus().to_string()),
        ("cpu_model", cpu_model),
        ("l2", cache(2)),
        ("l3", cache(3)),
        ("rustc", command_line("rustc", &["--version"])),
        ("parallel_feature", "on".into()),
        ("workers_used", workers_used.to_string()),
    ]
}

/// First line of a command's standard output, or `unknown`.
fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| {
            String::from_utf8(o.stdout)
                .ok()
                .and_then(|s| s.lines().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_has_exactly_the_contract_keys() {
        let mut run = Run::default();
        run.check(None);
        run.check(Some("wrong output".into()));
        run.metrics.push(Metric::new("setup_s", "s", 0.5));
        run.metrics.push(Metric::new("bad", "s", f64::NAN));
        let line = run.json_line();
        let v = stoneage_wire::parse(&line).expect("result line is JSON");
        assert_eq!(v["correct"].as_bool(), Some(false));
        assert_eq!(v["attempted"].as_i64(), Some(2));
        assert_eq!(v["failed"].as_i64(), Some(1));
        assert_eq!(v["metrics"]["setup_s"]["value"].as_f64(), Some(0.5));
        assert_eq!(v["metrics"]["setup_s"]["unit"].as_str(), Some("s"));
        assert_eq!(run.error_rate(), 0.5);
    }

    #[test]
    fn peak_rss_is_positive_on_linux() {
        assert!(peak_rss_mib() > 0.0);
    }
}
