//! `protobench`: the repository's end-to-end benchmark.
//!
//! ```text
//! protobench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload of the paper's protocols through public APIs only,
//! checks every output and every simulated statistic, and ends its
//! standard output with one JSON line:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones of `BENCHMARK.json`; with `--trace 1`
//! the run records spans around the same calls and reports the
//! per-layer ones, writing the spans to
//! `$CARGO_TARGET_DIR/protobench-traces/`. The log on standard error
//! carries provenance and the workload-specific figures by name and
//! unit. Any wrong output or statistic mismatch makes the exit code 1.
//!
//! Workloads (see `WORKLOADS.md` for why each exists):
//! `mis-gnp`, `color-tree`, `async-mis`, `server-mix`.

mod asynchronous;
mod lockstep;
mod observe;
mod report;
mod service;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use report::{provenance, Run};
use stats::median;
use stoneage_wire::Value;
use trace::Trace;

const USAGE: &str =
    "usage: protobench --workload <mis-gnp|color-tree|async-mis|server-mix> --seed <n> \
     --seconds <s> --trace <0|1>";

/// Parsed command line.
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Workload seed: every graph and job spec derives from it.
    pub seed: u64,
    /// How long the run measures.
    pub seconds: f64,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
}

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = || format!("bad value {value:?} for {flag}");
            match flag.as_str() {
                "--workload" => workload = Some(value.clone()),
                "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
                "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
                "--trace" => trace = Some(value.parse::<u8>().map_err(|_| bad())?),
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        let seconds = seconds.ok_or("--seconds is required")?;
        if !(seconds > 0.0 && seconds <= 120.0) {
            return Err("--seconds must be in (0, 120]".into());
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds,
            trace: match trace.ok_or("--trace is required")? {
                0 => false,
                1 => true,
                _ => return Err("--trace must be 0 or 1".into()),
            },
        })
    }
}

/// A well-mixed 64-bit seed for `(seed, stream, index)` (SplitMix64
/// finaliser), so every graph, instance and job derives from `--seed`.
pub fn derive(seed: u64, stream: u64, index: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(index.wrapping_mul(0xd1b5_4a32_d192_ed03));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Set-up repeats at least this many times and for at least
/// [`SETUP_MIN_S`] seconds; `setup_s` is the median repeat.
const SETUP_REPEATS: usize = 3;
const SETUP_MIN_S: f64 = 0.5;

/// Runs `build` repeatedly (see [`SETUP_REPEATS`]) and keeps the last
/// result. Returns the median seconds, the result and every repeat's
/// seconds.
pub fn setup<T>(mut trace: Option<&mut Trace>, mut build: impl FnMut() -> T) -> (f64, T, Vec<f64>) {
    let mut times: Vec<f64> = Vec::new();
    let mut last = None;
    while times.len() < SETUP_REPEATS || times.iter().sum::<f64>() < SETUP_MIN_S {
        drop(last.take());
        let start = Instant::now();
        last = Some(build());
        let end = Instant::now();
        if let Some(t) = trace.as_deref_mut() {
            t.record("setup", None, start, end);
        }
        times.push((end - start).as_secs_f64());
    }
    (median(&times), last.expect("set-up ran"), times)
}

/// Simulated statistics recorded in `expected.json` for the baseline and
/// held-out seeds: one string per instance index, per workload and seed.
pub struct Expected {
    by_seed: Vec<(u64, Vec<String>)>,
}

impl Expected {
    fn load(workload: &str) -> Expected {
        let doc = stoneage_wire::parse(include_str!("../expected.json"))
            .expect("expected.json is valid JSON");
        let by_seed = match doc.get("expected").and_then(|e| e.get(workload)) {
            Some(Value::Object(seeds)) => seeds
                .iter()
                .filter_map(|(seed, list)| {
                    let list = list
                        .as_array()?
                        .iter()
                        .filter_map(|s| s.as_str().map(str::to_string))
                        .collect();
                    Some((seed.parse().ok()?, list))
                })
                .collect(),
            _ => Vec::new(),
        };
        Expected { by_seed }
    }

    /// The recorded statistics of instance `k` under `seed`, if any.
    pub fn get(&self, seed: u64, k: usize) -> Option<&str> {
        self.by_seed
            .iter()
            .find(|(s, _)| *s == seed)
            .and_then(|(_, list)| list.get(k))
            .map(String::as_str)
    }
}

/// Adds per-name self times to the log and writes the spans out.
pub fn finish_trace(run: &mut Run, trace: Trace, args: &Args) {
    for (name, t) in trace.totals() {
        eprintln!(
            "protobench: span {name:<24} count {:>7}  total {:>10.6} s  self {:>10.6} s",
            t.count, t.total, t.self_time
        );
    }
    let dir = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("protobench/target"))
        .join("protobench-traces");
    let path = dir.join(format!("{}-seed{}.ndjson", args.workload, args.seed));
    let header = format!(
        r#"{{"workload":"{}","seed":{},"seconds":{}}}"#,
        args.workload, args.seed, args.seconds
    );
    match trace.write_ndjson(&path, &header) {
        Ok(()) => eprintln!("protobench: spans written to {}", path.display()),
        Err(e) => run.fail(format!("writing spans to {}: {e}", path.display())),
    }
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("protobench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let expected = Expected::load(&args.workload);
    let run: Run = match args.workload.as_str() {
        "mis-gnp" => lockstep::mis_gnp(&args, &expected),
        "color-tree" => lockstep::color_tree(&args, &expected),
        "async-mis" => asynchronous::async_mis(&args, &expected),
        "server-mix" => service::server_mix(&args, &expected),
        other => {
            eprintln!("protobench: unknown workload {other:?}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    for (key, value) in provenance(run.workers_used) {
        eprintln!("protobench: {key:<24} {value}");
    }
    for m in run.details.iter().chain(&run.metrics) {
        eprintln!("protobench: {:<28} {:>16.6} {}", m.name, m.value, m.unit);
    }
    for (k, stats) in run.stats.iter().enumerate() {
        eprintln!("protobench: stats {k} {stats}");
    }
    for f in &run.failures {
        eprintln!("protobench: FAILED {f}");
    }
    println!("{}", run.json_line());
    if run.failed == 0 && run.attempted > 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        Args::parse(s.split_whitespace().map(str::to_string))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = args("--workload mis-gnp --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("mis-gnp", 7, 10.0, true)
        );
        assert!(args("--workload mis-gnp --seed 7 --seconds 10").is_err());
        assert!(args("--workload mis-gnp --seed x --seconds 10 --trace 0").is_err());
        assert!(args("--workload mis-gnp --seed 1 --seconds 10 --trace 2").is_err());
    }

    #[test]
    fn derived_seeds_are_deterministic_and_distinct() {
        assert_eq!(derive(1, 2, 3), derive(1, 2, 3));
        assert_ne!(derive(1, 2, 3), derive(1, 2, 4));
        assert_ne!(derive(1, 2, 3), derive(1, 3, 3));
        assert_ne!(derive(1, 0, 0), derive(2, 0, 0));
    }

    #[test]
    fn expected_json_parses() {
        let e = Expected::load("mis-gnp");
        assert!(e.by_seed.iter().all(|(_, list)| !list.is_empty()));
    }
}
