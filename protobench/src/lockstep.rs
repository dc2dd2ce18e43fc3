//! The lockstep workloads: the paper's MIS on a sparse random graph
//! (`mis-gnp`) and its tree 3-coloring (`color-tree`), both on the
//! serial Sync backend. The traced run also times every instance on the
//! two-worker schedule, for the parallel layer's metrics.

use std::time::{Duration, Instant};

use stoneage_core::MultiFsm;
use stoneage_graph::{generators, validate, Graph};
use stoneage_protocols::{decode_coloring, decode_mis, ColoringProtocol, MisProtocol};
use stoneage_sim::{ExecError, MergeStrategy, Observer, Outcome, ParallelPolicy, Simulation};

use crate::observe::{LayerStats, RoundTracer};
use crate::report::{host_cpus, peak_rss_mib, Metric, Run};
use crate::stats::{fast_rate, fast_time, median, percentile};
use crate::trace::Trace;
use crate::{derive, setup, Args, Expected};

/// `mis-gnp`: gnp(n, average degree 8). Its CSR and ports (~7 MB)
/// outgrow a 2 MiB L2.
const MIS_NODES: usize = 100_000;
/// `color-tree`: uniform random tree.
const TREE_NODES: usize = 100_000;
/// Worker count of the traced run's parallel counterpart.
const PAR_WORKERS: usize = 2;

/// One lockstep workload: a protocol, its graph family and its output
/// check.
struct Lockstep<'a, P> {
    protocol: &'a P,
    graph: fn(u64) -> Graph,
    valid: fn(&Graph, &[u64]) -> bool,
    /// Per-protocol model statistic: rounds over this function of n.
    model: (&'static str, fn(f64) -> f64),
}

pub fn mis_gnp(args: &Args, expected: &Expected) -> Run {
    Lockstep {
        protocol: &MisProtocol::new(),
        graph: |seed| generators::gnp(MIS_NODES, 8.0 / MIS_NODES as f64, seed),
        valid: |g, out| validate::is_maximal_independent_set(g, &decode_mis(out)),
        model: ("mis.rounds_per_log2n_sq", |n| n.log2().powi(2)),
    }
    .run(args, expected)
}

pub fn color_tree(args: &Args, expected: &Expected) -> Run {
    Lockstep {
        protocol: &ColoringProtocol::new(),
        graph: |seed| generators::random_tree(TREE_NODES, seed),
        valid: |g, out| validate::is_proper_k_coloring(g, &decode_coloring(out), 3),
        model: ("coloring.rounds_per_log2n", f64::log2),
    }
    .run(args, expected)
}

/// Untraced runs of each instance; its time is the best of them.
const REPEATS: usize = 2;

/// The simulated statistics an instance must reproduce exactly.
fn sim_stats<P: MultiFsm>(o: &Outcome<P>) -> String {
    format!(
        "rounds={} messages={}",
        o.rounds().unwrap_or(0),
        o.messages_sent().unwrap_or(0)
    )
}

impl<P> Lockstep<'_, P>
where
    P: MultiFsm + Sync,
    P::State: Send + Sync,
{
    /// One `run()` on `workers` workers, optionally observed; returns the
    /// outcome and the instants around the call.
    fn solve(
        &self,
        g: &Graph,
        seed: u64,
        workers: usize,
        observer: Option<&mut dyn Observer<P::State>>,
    ) -> (Result<Outcome<P>, ExecError>, Instant, Instant) {
        let mut sim = Simulation::sync(self.protocol, g).seed(seed);
        if workers > 1 {
            sim = sim.parallel(ParallelPolicy::forced(workers, MergeStrategy::default()));
        }
        if let Some(obs) = observer {
            sim = sim.observe(obs);
        }
        let start = Instant::now();
        let out = sim.run();
        (out, start, Instant::now())
    }

    /// Checks one outcome: it exists, its outputs are valid, and its
    /// statistics equal the reference (a repeat or a recorded value).
    fn check(
        &self,
        g: &Graph,
        out: &Result<Outcome<P>, ExecError>,
        reference: &[Option<&str>],
    ) -> Option<String> {
        let o = match out {
            Ok(o) => o,
            Err(e) => return Some(format!("run failed: {e}")),
        };
        if !(self.valid)(g, &o.outputs) {
            return Some("outputs fail the validator".into());
        }
        let stats = sim_stats(o);
        reference
            .iter()
            .flatten()
            .find(|r| **r != stats)
            .map(|r| format!("simulated statistics {stats} differ from {r}"))
    }

    fn run(&self, args: &Args, expected: &Expected) -> Run {
        let mut trace = args.trace.then(Trace::new);
        let (setup_s, g, builds) = setup(trace.as_mut(), || (self.graph)(derive(args.seed, 0, 0)));
        let n = g.node_count() as f64;
        let mut run = Run::default();
        let mut layers = LayerStats {
            graph_build: builds,
            ..LayerStats::default()
        };
        // Per instance: the best of its untraced repeats (identical work,
        // so the faster one saw less interference from the host).
        let mut times = Vec::new();
        let mut work = Vec::new();
        let (mut speedups, mut par_rounds, mut par_workers) = (Vec::new(), Vec::new(), 0);
        let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
        for k in 0.. {
            let seed = derive(args.seed, 1, k);
            let recorded = expected.get(args.seed, k as usize);
            let mut first: Option<String> = None;
            // Each instance runs twice untraced; the traced run adds an
            // observed repeat and the two-worker schedule, all of which
            // must agree bit for bit.
            let root = trace.as_mut().map(|t| t.open("instance", None));
            let (mut best, mut instance_rounds) = (f64::INFINITY, 0);
            for _ in 0..REPEATS {
                let (out, start, end) = self.solve(&g, seed, 1, None);
                if let (Some(t), Some(root)) = (trace.as_mut(), root) {
                    t.record("sim.run.untraced", Some(root), start, end);
                }
                run.check(self.check(&g, &out, &[first.as_deref(), recorded]));
                if let Ok(o) = &out {
                    first.get_or_insert_with(|| sim_stats(o));
                    instance_rounds = o.rounds().unwrap_or(0);
                    run.workers_used = run.workers_used.max(o.workers);
                }
                best = best.min((end - start).as_secs_f64());
            }
            work.push(instance_rounds as f64);
            times.push(best);
            if let (Some(t), Some(root)) = (trace.as_mut(), root) {
                let mut tracer = RoundTracer::new(self.protocol, g.node_count());
                let (out, _, end) = self.solve(&g, seed, 1, Some(&mut tracer));
                let cut = tracer.finish(end);
                cut.record(t, root);
                run.check(self.check(&g, &out, &[first.as_deref()]));
                if let Ok(o) = &out {
                    let v0 = Instant::now();
                    (self.valid)(&g, &o.outputs);
                    let v1 = Instant::now();
                    t.record("validate", Some(root), v0, v1);
                    layers.validate.push((v1 - v0).as_secs_f64());
                    layers.steps.push(o.rounds().unwrap_or(0) as f64);
                    layers.messages.push(o.messages_sent().unwrap_or(0) as f64);
                }
                layers.untraced.push(best);
                layers.cuts.push(cut);
                // The same instance on two workers: untraced for the
                // speed-up, observed for the tail of its round spans. A
                // host with fewer CPUs than workers can show neither.
                if host_cpus() >= PAR_WORKERS {
                    let (out, start, end) = self.solve(&g, seed, PAR_WORKERS, None);
                    t.record("par.run.untraced", Some(root), start, end);
                    run.check(self.check(&g, &out, &[first.as_deref()]));
                    speedups.push(best / (end - start).as_secs_f64());
                    if let Ok(o) = &out {
                        par_workers = par_workers.max(o.workers);
                    }
                    let mut tracer = RoundTracer::new(self.protocol, g.node_count());
                    let (out, start, end) = self.solve(&g, seed, PAR_WORKERS, Some(&mut tracer));
                    t.record("par.run", Some(root), start, end);
                    run.check(self.check(&g, &out, &[first.as_deref()]));
                    par_rounds.extend(tracer.finish(end).steps().into_iter().map(|s| s.0));
                }
                t.close(root);
            }
            run.stats.push(first.unwrap_or_default());
            if Instant::now() >= deadline {
                break;
            }
        }
        let rates: Vec<f64> = work.iter().zip(&times).map(|(w, t)| w / t).collect();
        let per_instance = median(&work);
        run.details = vec![
            Metric::new("solve_s", "s", median(&times)),
            Metric::new("rounds_per_s", "1/s", median(&rates)),
            Metric::new("error_rate", "ratio", run.error_rate()),
            Metric::new("instances", "count", times.len() as f64),
            Metric::new("nodes", "count", n),
            Metric::new(self.model.0, "ratio", per_instance / (self.model.1)(n)),
        ];
        run.metrics = match trace {
            None => vec![
                Metric::new("setup_s", "s", setup_s),
                Metric::new("op_s", "s", fast_time(&times)),
                Metric::new("work_per_s", "1/s", fast_rate(&rates)),
                Metric::new("peak_rss_mib", "MiB", peak_rss_mib()),
            ],
            Some(t) => {
                if par_workers == 0 {
                    eprintln!("protobench: fewer than {PAR_WORKERS} CPUs; par.* not reported");
                } else {
                    run.details.extend([
                        Metric::new("par.speedup", "ratio", median(&speedups)),
                        Metric::new(
                            "par.round_p95_over_p50",
                            "ratio",
                            percentile(&par_rounds, 0.95) / median(&par_rounds),
                        ),
                        Metric::new("par.workers_used", "count", par_workers as f64),
                    ]);
                }
                run.details.push(layers.accounted());
                let m = layers.metrics();
                crate::finish_trace(&mut run, t, args);
                m
            }
        };
        run
    }
}
