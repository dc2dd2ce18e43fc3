//! `server-mix`: an in-process `stoneage-server` on loopback, driven by
//! one generator thread with one connection at a time.
//!
//! The job mix cycles through three classes in fixed proportions:
//! (a) `mis` on gnp with a checkpoint cadence and a `round` event every
//! round, (b) `coloring` on a random tree, (c) `selfstab_mis` on gnp
//! under a crash/restart churn plan and a duplicate-fault plan. An
//! open-loop phase sends jobs at [`OFFERED_RATE`] (independent users do
//! not wait for each other), timing each job from its due send time;
//! bursts of [`BURST_JOBS`] submitted at once then measure capacity.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use stoneage_core::MultiFsm;
use stoneage_graph::{validate, Graph};
use stoneage_protocols::{decode_coloring, decode_mis, ColoringProtocol, MisProtocol, SelfStabMis};
use stoneage_server::{
    client, outcome_fingerprint, parse_spec, JobSpec, ProtocolId, Server, ServerConfig,
};
use stoneage_sim::{Observer, Simulation, SnapState, Snapshot};

use crate::observe::{LayerStats, RoundTracer};
use crate::report::{peak_rss_mib, Metric, Run};
use crate::stats::{fast_rate, median, percentile, samples_beyond, OpenLoop};
use crate::trace::Trace;
use crate::{derive, setup, Args, Expected};

/// Offered load of the open-loop phase, jobs per second, fixed once: a
/// quarter to a half of the burst capacity (180–340 jobs/s on a 2-CPU
/// host, depending on how busy its neighbours are).
const OFFERED_RATE: f64 = 80.0;
/// Share of `--seconds` spent in the open-loop phase.
const OPEN_SHARE: f64 = 0.6;
/// Jobs submitted at once in each burst, and the fewest bursts a run
/// makes; `work_per_s` is the fast quartile of the bursts' rates.
const BURST_JOBS: usize = 250;
const MIN_BURSTS: usize = 2;
/// Jobs the server retains: finished ones are evicted oldest-first past
/// this, so memory plateaus early in every run.
const MAX_JOBS: usize = 600;
/// Distinct specs per job class; each recurs, so repeats must agree.
const VARIANTS: u64 = 16;
const CLASSES: u64 = 3;
/// Pause between two status polls.
const POLL_GAP: Duration = Duration::from_micros(250);
/// A generator this late at the 95th percentile invalidates the run.
const MAX_LAG_P95_S: f64 = 0.1;

/// Round budget of every job: a wedged run fails fast.
const BUDGET: u64 = 1_000;
/// Churn plans tried per class (c) spec before giving up.
const ATTEMPTS: u64 = 8;
const MIS_NODES: u64 = 2_000;
const TREE_NODES: u64 = 2_000;
const SELFSTAB_NODES: u64 = 1_000;

/// Seeds in specs stay well inside JSON's exact-integer range.
fn spec_seed(seed: u64, stream: u64, index: u64) -> u64 {
    derive(seed, stream, index) & 0x7fff_ffff
}

/// The JSON body of distinct spec `s` (class `s % 3`, variant `s / 3`).
/// `attempt` re-draws the class (c) churn plan: a node that crashes and
/// restarts early can wedge the self-stabilizing MIS, and the mix keeps
/// only plans whose direct run terminates.
fn spec_body(seed: u64, s: u64, attempt: u64) -> String {
    let (class, variant) = (s % CLASSES, s / CLASSES);
    let g = spec_seed(seed, 10 + class, variant);
    let run = spec_seed(seed, 20 + class, variant * 16 + attempt);
    match class {
        0 => format!(
            r#"{{"graph": {{"family": "gnp", "n": {MIS_NODES}, "p": {}, "seed": {g}}},
                "protocol": "mis", "seeds": [{run}], "budget": {BUDGET},
                "checkpoint_every": 10, "events_every": 1}}"#,
            8.0 / MIS_NODES as f64
        ),
        1 => format!(
            r#"{{"graph": {{"family": "tree", "n": {TREE_NODES}, "seed": {g}}},
                "protocol": "coloring", "seeds": [{run}], "budget": {BUDGET}}}"#
        ),
        _ => {
            let node = run % SELFSTAB_NODES;
            format!(
                r#"{{"graph": {{"family": "gnp", "n": {SELFSTAB_NODES}, "p": {}, "seed": {g}}},
                    "protocol": "selfstab_mis", "seeds": [{run}], "budget": {BUDGET},
                    "churn": [{{"round": 20, "event": "crash", "node": {node}}},
                              {{"round": 25, "event": "restart", "node": {node}}}],
                    "faults": {{"seed": {run}, "duplicate": [0.05, 2]}}}}"#,
                8.0 / SELFSTAB_NODES as f64
            )
        }
    }
}

/// One distinct spec with its direct-builder reference.
struct Reference {
    body: String,
    spec: JobSpec,
    fingerprint: String,
    /// Graph build, run and validation seconds, no observer.
    direct_s: f64,
}

/// Runs `spec` directly through the builder, as the server's runner
/// would (same graph, seed, cadence, churn and faults) but without its
/// observer unless one is given.
fn direct<P>(
    protocol: &P,
    spec: &JobSpec,
    g: &Graph,
    valid: fn(&Graph, &[u64]) -> bool,
    observer: Option<&mut dyn Observer<P::State>>,
) -> Result<Direct, String>
where
    P: MultiFsm + Sync,
    P::State: SnapState + Send + Sync,
{
    let seed = spec.seeds[0];
    let mut sim = Simulation::sync(protocol, g).seed(seed).budget(spec.budget);
    if spec.checkpoint_every > 0 {
        sim = sim.checkpoint_every(spec.checkpoint_every);
    }
    if let Some(plan) = &spec.churn {
        sim = sim.with_churn(plan);
    }
    if let Some(plan) = &spec.faults {
        sim = sim.with_faults(plan);
    }
    if let Some(obs) = observer {
        sim = sim.observe(obs);
    }
    let start = Instant::now();
    let o = sim.run().map_err(|e| format!("direct run: {e}"))?;
    let run_s = start.elapsed().as_secs_f64();
    let v0 = Instant::now();
    if !valid(g, &o.outputs) {
        return Err("direct run outputs fail the validator".into());
    }
    let validate_s = v0.elapsed().as_secs_f64();
    let rounds = o.rounds().unwrap_or(0);
    let messages = o.messages_sent().unwrap_or(0);
    Ok(Direct {
        fingerprint: outcome_fingerprint(&o.outputs, rounds, messages),
        rounds,
        messages,
        run_s,
        validate_s,
    })
}

/// What a direct builder run of a spec produced.
struct Direct {
    fingerprint: u64,
    rounds: u64,
    messages: u64,
    /// Seconds inside `run()`.
    run_s: f64,
    /// Seconds the output validator took.
    validate_s: f64,
}

fn is_mis(g: &Graph, out: &[u64]) -> bool {
    validate::is_maximal_independent_set(g, &decode_mis(out))
}

fn is_3_coloring(g: &Graph, out: &[u64]) -> bool {
    validate::is_proper_k_coloring(g, &decode_coloring(out), 3)
}

/// Dispatches [`direct`] on the spec's protocol.
fn direct_any(spec: &JobSpec, g: &Graph, tracer: Option<&mut LayerStats>) -> Result<u64, String> {
    macro_rules! go {
        ($p:expr, $valid:expr) => {{
            let p = $p;
            match tracer {
                None => direct(&p, spec, g, $valid, None).map(|d| d.fingerprint),
                Some(layers) => {
                    let untraced = direct(&p, spec, g, $valid, None)?;
                    let mut t = RoundTracer::new(&p, g.node_count());
                    let traced = direct(&p, spec, g, $valid, Some(&mut t))?;
                    // The cut ends where `run()` returned: before validation.
                    let end = t.start_time() + std::time::Duration::from_secs_f64(traced.run_s);
                    layers.cuts.push(t.finish(end));
                    layers.untraced.push(untraced.run_s);
                    layers.steps.push(traced.rounds as f64);
                    layers.messages.push(traced.messages as f64);
                    layers.validate.push(traced.validate_s);
                    if untraced.fingerprint != traced.fingerprint {
                        return Err("traced direct run differs from untraced".into());
                    }
                    Ok(traced.fingerprint)
                }
            }
        }};
    }
    match spec.protocol {
        ProtocolId::Mis => go!(MisProtocol::new(), is_mis),
        ProtocolId::Coloring => go!(ColoringProtocol::new(), is_3_coloring),
        ProtocolId::SelfStabMis => go!(SelfStabMis::new(), is_mis),
        other => Err(format!("protocol {} is not in the mix", other.as_str())),
    }
}

/// Builds every distinct spec and its direct reference.
fn references(seed: u64, run: &mut Run, expected: &Expected) -> Vec<Reference> {
    run.stats.clear();
    (0..CLASSES * VARIANTS)
        .map(|s| {
            let mut tried = Vec::new();
            let (body, spec, fingerprint, direct_s) = (0..ATTEMPTS)
                .find_map(|attempt| {
                    let body = spec_body(seed, s, attempt);
                    let spec = parse_spec(body.as_bytes()).expect("the mix's specs are valid");
                    let start = Instant::now();
                    let g = spec.graph.build();
                    match direct_any(&spec, &g, None) {
                        Ok(fp) => Some((
                            body,
                            spec,
                            format!("{fp:#018x}"),
                            start.elapsed().as_secs_f64(),
                        )),
                        Err(e) => {
                            tried.push(e);
                            None
                        }
                    }
                })
                .unwrap_or_else(|| {
                    run.fail(format!("spec {s}: no terminating variant: {tried:?}"));
                    let body = spec_body(seed, s, 0);
                    let spec = parse_spec(body.as_bytes()).expect("the mix's specs are valid");
                    (body, spec, String::new(), f64::NAN)
                });
            let stats = format!("fingerprint={fingerprint}");
            if let Some(r) = expected.get(seed, s as usize) {
                if r != stats {
                    run.fail(format!(
                        "spec {s}: simulated statistics {stats} differ from {r}"
                    ));
                }
            }
            run.stats.push(stats);
            Reference {
                body,
                spec,
                fingerprint,
                direct_s,
            }
        })
        .collect()
}

/// The job index `j` of either phase maps to distinct spec `j % 12`.
fn spec_of(j: usize) -> usize {
    j % (CLASSES * VARIANTS) as usize
}

/// A submitted job as the generator saw it.
struct Job {
    /// Index in the phase's submission order.
    j: usize,
    id: i64,
    submitted: Instant,
    /// The first poll that read `running`.
    running: Option<Instant>,
    /// The poll that read a terminal state (the submit time until then).
    done: Instant,
}

/// One generator: submits and polls over loopback, one request at a
/// time, and records the HTTP spans when tracing.
struct Generator<'a> {
    addr: String,
    refs: &'a [Reference],
    trace: Option<&'a mut Trace>,
    run: &'a mut Run,
    submit_s: Vec<f64>,
    status_s: Vec<f64>,
}

impl Generator<'_> {
    fn request(
        &mut self,
        name: &'static str,
        method: &str,
        path: &str,
        body: &[u8],
    ) -> Option<client::Response> {
        let start = Instant::now();
        let resp = client::request(&self.addr, method, path, body);
        let end = Instant::now();
        if let Some(t) = self.trace.as_deref_mut() {
            t.record(name, None, start, end);
        }
        let dt = (end - start).as_secs_f64();
        match name {
            "http.submit" => self.submit_s.push(dt),
            "http.status" => self.status_s.push(dt),
            _ => {}
        }
        match resp {
            Ok(r) if (200..300).contains(&r.status) => Some(r),
            Ok(r) => {
                self.run.fail(format!("{method} {path}: HTTP {}", r.status));
                None
            }
            Err(e) => {
                self.run.fail(format!("{method} {path}: {e}"));
                None
            }
        }
    }

    /// Submits job `j`; counts it as attempted.
    fn submit(&mut self, j: usize) -> Option<Job> {
        self.run.check(None);
        let refs = self.refs;
        let body = refs[spec_of(j)].body.as_bytes();
        let resp = self.request("http.submit", "POST", "/jobs", body)?;
        let Some(id) = resp.json()["id"].as_i64() else {
            self.run.fail("submit response has no job id".into());
            return None;
        };
        let submitted = Instant::now();
        Some(Job {
            j,
            id,
            submitted,
            running: None,
            done: submitted,
        })
    }

    /// Polls `job` once; true once it is terminal (or its status cannot
    /// be read), with its outcome checked and failures counted.
    fn poll(&mut self, job: &mut Job) -> bool {
        let resp = self.request("http.status", "GET", &format!("/jobs/{}", job.id), &[]);
        let now = Instant::now();
        let Some(resp) = resp else {
            job.done = now;
            return true;
        };
        let doc = resp.json();
        let state = doc["state"].as_str().unwrap_or("");
        match state {
            "queued" => false,
            "running" => {
                job.running.get_or_insert(now);
                false
            }
            // The status document reads a job's results before its
            // state, so a job finishing in between reads `done` with no
            // results yet; the next poll sees both.
            "done" if doc["results"][0]["fingerprint"].as_str().is_none() => false,
            _ => {
                let want = &self.refs[spec_of(job.j)].fingerprint;
                let got = doc["results"][0]["fingerprint"].as_str().unwrap_or("");
                if state != "done" {
                    let error = &doc["error"];
                    self.run
                        .fail(format!("job {} ended {state}: {error}", job.id));
                } else if got != want {
                    self.run.fail(format!(
                        "job {} fingerprint {got} differs from the direct run's {want}",
                        job.id
                    ));
                }
                job.done = now;
                true
            }
        }
    }
}

pub fn server_mix(args: &Args, expected: &Expected) -> Run {
    let mut run = Run {
        workers_used: 1,
        ..Run::default()
    };
    let mut trace = args.trace.then(Trace::new);
    // Set-up: start the server and compute every distinct spec's direct
    // reference (graph build, run, validation).
    let mut setup_run = Run::default();
    let (setup_s, (server, refs), _) = setup(trace.as_mut(), || {
        let server = Server::start(ServerConfig {
            cores: 2,
            max_jobs: MAX_JOBS,
            jobs_dir: None,
            ..ServerConfig::default()
        })
        .expect("bind a loopback port");
        setup_run = Run::default();
        let refs = references(args.seed, &mut setup_run, expected);
        (server, refs)
    });
    run.failed += setup_run.failed;
    run.failures.append(&mut setup_run.failures);
    run.stats = setup_run.stats;
    let addr = server.addr().to_string();

    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let open_secs = args.seconds * OPEN_SHARE;
    let total = (OFFERED_RATE * open_secs).round().max(1.0) as usize;
    let sched = OpenLoop {
        start: Instant::now() + Duration::from_millis(10),
        rate: OFFERED_RATE,
    };
    let mut gen = Generator {
        addr: addr.clone(),
        refs: &refs,
        trace: trace.as_mut(),
        run: &mut run,
        submit_s: Vec::new(),
        status_s: Vec::new(),
    };
    // Open loop: send each job when due, poll the pending ones
    // round-robin in between.
    let (mut pending, mut open_done) = (VecDeque::new(), Vec::new());
    let mut lags = Vec::new();
    let mut next = 0;
    while next < total || !pending.is_empty() {
        let now = Instant::now();
        if next < total && sched.due(next) <= now {
            lags.push(sched.lag(next, now));
            pending.extend(gen.submit(next));
            next += 1;
        } else if let Some(mut job) = pending.pop_front() {
            if gen.poll(&mut job) {
                open_done.push(job);
            } else {
                pending.push_back(job);
            }
            std::thread::sleep(POLL_GAP);
        } else {
            std::thread::sleep(sched.due(next).saturating_duration_since(now));
        }
    }
    let latencies: Vec<f64> = open_done
        .iter()
        .map(|f| sched.latency(f.j, f.done))
        .collect();
    // The traced run samples the open loop's jobs (event streams,
    // snapshot frames) before the bursts can evict them.
    let layers = gen
        .trace
        .as_deref_mut()
        .map(|t| service_layers(&addr, &refs, &open_done, gen.run, t));
    // Bursts, until the run's time is up: each submits the same mix at
    // once. Completion is watched in submission order: the oldest job is
    // polled until it is done, so the last completion is seen within one
    // poll instead of one sweep over every queued job.
    let (mut bursts, mut burst_jobs) = (Vec::new(), 0);
    while bursts.len() < MIN_BURSTS || Instant::now() < deadline {
        let start = Instant::now();
        let mut done = Vec::new();
        for j in 0..BURST_JOBS {
            pending.extend(gen.submit(j));
        }
        while let Some(job) = pending.front_mut() {
            if gen.poll(job) {
                done.extend(pending.pop_front());
            } else {
                std::thread::sleep(POLL_GAP);
            }
        }
        let end = done.iter().map(|f| f.done).max().unwrap_or(start);
        bursts.push(done.len() as f64 / (end - start).as_secs_f64());
        burst_jobs += done.len();
    }
    let (submit_s, status_s) = (
        std::mem::take(&mut gen.submit_s),
        std::mem::take(&mut gen.status_s),
    );
    drop(gen);

    let p50 = median(&latencies);
    let p95 = percentile(&latencies, 0.95);
    let lag_p95 = percentile(&lags, 0.95);
    if lag_p95 > MAX_LAG_P95_S {
        run.fail(format!(
            "open-loop generator ran {lag_p95:.3} s late at p95"
        ));
    }
    if samples_beyond(latencies.len(), 0.95) < 10 {
        eprintln!(
            "protobench: only {} open-loop jobs; p95 has fewer than 10 samples beyond it",
            latencies.len()
        );
    }
    // The traced run's service-layer figures are already in `details`.
    let sampled = std::mem::take(&mut run.details);
    run.details = vec![
        Metric::new("job_latency_p50_s", "s", p50),
        Metric::new("job_latency_p95_s", "s", p95),
        Metric::new("jobs_per_s", "1/s", median(&bursts)),
        Metric::new("error_rate", "ratio", run.error_rate()),
        Metric::new("open_loop.jobs", "count", latencies.len() as f64),
        Metric::new("open_loop.offered_per_s", "1/s", OFFERED_RATE),
        Metric::new("bursts", "count", bursts.len() as f64),
        Metric::new("burst.jobs", "count", burst_jobs as f64),
        Metric::new("gen.lag_p95_s", "s", lag_p95),
    ];
    run.details.extend(sampled);
    run.metrics = match trace {
        None => vec![
            Metric::new("setup_s", "s", setup_s),
            Metric::new("op_s", "s", p50),
            Metric::new("work_per_s", "1/s", fast_rate(&bursts)),
            Metric::new("peak_rss_mib", "MiB", peak_rss_mib()),
        ],
        Some(t) => {
            let layers = layers.expect("traced runs collect layer stats");
            // Queue wait and run time are taken in the open loop, where
            // they are what a user sees; in the burst they mostly measure
            // the backlog.
            let finished = &open_done[..];
            let queue: Vec<f64> = finished
                .iter()
                .filter_map(|f| f.running.map(|r| (r - f.submitted).as_secs_f64()))
                .collect();
            let run_s: Vec<f64> = finished
                .iter()
                .filter_map(|f| f.running.map(|r| (f.done - r).as_secs_f64()))
                .collect();
            let overhead: Vec<f64> = finished
                .iter()
                .filter_map(|f| {
                    let run_s = (f.done - f.running?).as_secs_f64();
                    Some(run_s / refs[spec_of(f.j)].direct_s)
                })
                .collect();
            run.details.extend([
                Metric::new("http.submit_p50_s", "s", median(&submit_s)),
                Metric::new("http.submit_p95_s", "s", percentile(&submit_s, 0.95)),
                Metric::new("http.status_s", "s", median(&status_s)),
                Metric::new("job.queue_wait_p50_s", "s", median(&queue)),
                Metric::new("job.queue_wait_p95_s", "s", percentile(&queue, 0.95)),
                Metric::new("job.run_s", "s", median(&run_s)),
                Metric::new("runner.overhead", "ratio", median(&overhead)),
            ]);
            run.details.push(layers.accounted());
            let m = layers.metrics();
            crate::finish_trace(&mut run, t, args);
            m
        }
    };
    server.shutdown();
    run
}

/// The traced run's extra calls: event drains, snapshot frames,
/// `/metrics`, spec parsing, and observed direct runs of every spec.
fn service_layers(
    addr: &str,
    refs: &[Reference],
    finished: &[Job],
    run: &mut Run,
    t: &mut Trace,
) -> LayerStats {
    let timed = |t: &mut Trace, name: &'static str, f: &mut dyn FnMut()| -> f64 {
        let start = Instant::now();
        f();
        let end = Instant::now();
        t.record(name, None, start, end);
        (end - start).as_secs_f64()
    };
    // Event streams and snapshot frames of checkpointing (class a) jobs.
    let (mut drain, mut lines, mut frames) = (Vec::new(), Vec::new(), Vec::new());
    // The newest ones: the server evicts finished jobs oldest-first.
    for f in finished
        .iter()
        .rev()
        .filter(|f| spec_of(f.j).is_multiple_of(CLASSES as usize))
        .take(10)
    {
        let mut n = 0usize;
        drain.push(timed(
            t,
            "http.events_drain",
            &mut || match client::EventStream::open(addr, &format!("/jobs/{}/events", f.id)) {
                Ok(mut s) => {
                    while let Ok(Some(_)) = s.next_line() {
                        n += 1;
                    }
                }
                Err(e) => run.fail(format!("events of job {}: {e}", f.id)),
            },
        ));
        lines.push(n as f64);
        match client::request(addr, "GET", &format!("/jobs/{}/snapshot", f.id), &[]) {
            Ok(r) if r.status == 200 => frames.push(r.body),
            Ok(r) => run.fail(format!("snapshot of job {}: HTTP {}", f.id, r.status)),
            Err(e) => run.fail(format!("snapshot of job {}: {e}", f.id)),
        }
    }
    let (mut from_s, mut to_s) = (Vec::new(), Vec::new());
    for bytes in &frames {
        let mut snap: Option<Snapshot> = None;
        from_s.push(timed(t, "snapshot.from_bytes", &mut || {
            snap = Snapshot::from_bytes(bytes).ok();
        }));
        match snap {
            Some(s) => {
                let mut again = Vec::new();
                to_s.push(timed(t, "snapshot.to_bytes", &mut || again = s.to_bytes()));
                if &again != bytes {
                    run.fail("snapshot frame does not round-trip".into());
                }
            }
            None => run.fail("snapshot frame does not decode".into()),
        }
    }
    let mut metrics_s = Vec::new();
    for _ in 0..5 {
        metrics_s.push(timed(t, "http.metrics", &mut || {
            if !matches!(client::request(addr, "GET", "/metrics", &[]), Ok(r) if r.status == 200) {
                run.fail("GET /metrics failed".into());
            }
        }));
    }
    let (mut wire_s, mut spec_s) = (Vec::new(), Vec::new());
    for r in refs {
        for _ in 0..20 {
            wire_s.push(timed(t, "wire.parse", &mut || {
                std::hint::black_box(stoneage_wire::parse(std::hint::black_box(&r.body)).ok());
            }));
            spec_s.push(timed(t, "spec.parse", &mut || {
                std::hint::black_box(parse_spec(std::hint::black_box(r.body.as_bytes())).ok());
            }));
        }
    }
    // Observed direct runs of every distinct spec: the simulator layers
    // under the server's jobs.
    let mut layers = LayerStats::default();
    for (s, r) in refs.iter().enumerate() {
        let root = t.open("direct", None);
        let start = Instant::now();
        let g = r.spec.graph.build();
        let end = Instant::now();
        t.record("graph.build", Some(root), start, end);
        layers.graph_build.push((end - start).as_secs_f64());
        match direct_any(&r.spec, &g, Some(&mut layers)) {
            Ok(fp) if format!("{fp:#018x}") == r.fingerprint => {}
            Ok(_) => run.fail(format!("spec {s}: direct run differs from set-up")),
            Err(e) => run.fail(format!("spec {s}: {e}")),
        }
        if let Some(cut) = layers.cuts.last() {
            cut.record(t, root);
        }
        t.close(root);
    }
    run.details.extend([
        Metric::new("http.events_drain_s", "s", median(&drain)),
        Metric::new("http.events_lines", "count", median(&lines)),
        Metric::new("http.metrics_s", "s", median(&metrics_s)),
        Metric::new(
            "snapshot.bytes",
            "B",
            median(&frames.iter().map(|f| f.len() as f64).collect::<Vec<_>>()),
        ),
        Metric::new("snapshot.to_bytes_s", "s", median(&to_s)),
        Metric::new("snapshot.from_bytes_s", "s", median(&from_s)),
        Metric::new("wire.parse_s", "s", median(&wire_s)),
        Metric::new("spec.parse_s", "s", median(&spec_s)),
    ]);
    layers
}
