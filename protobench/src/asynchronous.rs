//! `async-mis`: the paper's MIS compiled through `SingleLetter`
//! (Theorem 3.4) and `Synchronized` (Theorem 3.1), run on the Async
//! backend under the `UniformRandom` adversary with the default
//! calendar-wheel scheduler, on a fresh gnp(100, avg degree 8) per
//! instance.

use std::time::{Duration, Instant};

use stoneage_core::{SingleLetter, Synchronized};
use stoneage_graph::{generators, validate, Graph};
use stoneage_protocols::{decode_mis, MisProtocol};
use stoneage_sim::adversary::UniformRandom;
use stoneage_sim::{Detail, ExecError, Observer, Outcome, Simulation};

use crate::observe::{LayerStats, StepTracer};
use crate::report::{peak_rss_mib, Metric, Run};
use crate::stats::{fast_rate, fast_time, median};
use crate::trace::Trace;
use crate::{derive, setup, Args, Expected};

const NODES: usize = 100;
/// Untraced runs of each instance; its time is the best of them.
const REPEATS: usize = 2;
/// The tracer marks a step boundary every this many node steps per node.
const WINDOW_SWEEPS: u64 = 16;

type Pipeline = Synchronized<SingleLetter<MisProtocol>>;

/// The Async counters an instance must reproduce exactly.
struct Counts {
    steps: u64,
    deliveries: u64,
    lost: u64,
    messages: u64,
    time_units: f64,
}

fn counts(o: &Outcome<Pipeline>) -> Option<Counts> {
    match o.detail {
        Detail::Async {
            total_steps,
            deliveries,
            lost_overwrites,
            messages_sent,
            ..
        } => Some(Counts {
            steps: total_steps,
            deliveries,
            lost: lost_overwrites,
            messages: messages_sent,
            time_units: o.cost.value(),
        }),
        _ => None,
    }
}

fn sim_stats(c: &Counts) -> String {
    format!(
        "steps={} deliveries={} lost={} time_units={}",
        c.steps, c.deliveries, c.lost, c.time_units
    )
}

fn solve(
    p: &Pipeline,
    g: &Graph,
    adversary: &UniformRandom,
    seed: u64,
    observer: Option<&mut dyn Observer<<Pipeline as stoneage_core::Protocol>::State>>,
) -> (Result<Outcome<Pipeline>, ExecError>, Instant, Instant) {
    let mut sim = Simulation::asynchronous(p, g, adversary).seed(seed);
    if let Some(obs) = observer {
        sim = sim.observe(obs);
    }
    let start = Instant::now();
    let out = sim.run();
    (out, start, Instant::now())
}

fn check(
    g: &Graph,
    out: &Result<Outcome<Pipeline>, ExecError>,
    refs: &[Option<&str>],
) -> Option<String> {
    let o = match out {
        Ok(o) => o,
        Err(e) => return Some(format!("run failed: {e}")),
    };
    if !validate::is_maximal_independent_set(g, &decode_mis(&o.outputs)) {
        return Some("outputs are not a maximal independent set".into());
    }
    let Some(c) = counts(o) else {
        return Some("not an Async outcome".into());
    };
    let stats = sim_stats(&c);
    refs.iter()
        .flatten()
        .find(|r| **r != stats)
        .map(|r| format!("simulated statistics {stats} differ from {r}"))
}

pub fn async_mis(args: &Args, expected: &Expected) -> Run {
    let p: Pipeline = Synchronized::new(SingleLetter::new(MisProtocol::new()));
    let adversary = UniformRandom {
        seed: derive(args.seed, 2, 0),
    };
    let mut trace = args.trace.then(Trace::new);
    // Every instance has a graph of its own: at 100 nodes the graph sets
    // much of the work, and a run should not hinge on one draw.
    let graph = |k| generators::gnp(NODES, 8.0 / NODES as f64, derive(args.seed, 0, k));
    let (setup_s, _, builds) = setup(trace.as_mut(), || graph(0));
    let mut run = Run {
        workers_used: 1,
        ..Run::default()
    };
    let mut layers = LayerStats {
        graph_build: builds,
        ..LayerStats::default()
    };
    let (mut times, mut all) = (Vec::new(), Vec::new());
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    for k in 0.. {
        let seed = derive(args.seed, 1, k);
        let g = graph(k);
        let recorded = expected.get(args.seed, k as usize);
        let mut first: Option<String> = None;
        let root = trace.as_mut().map(|t| t.open("instance", None));
        // The instance's time is the best of its untraced repeats.
        let mut best = f64::INFINITY;
        for _ in 0..REPEATS {
            let (out, start, end) = solve(&p, &g, &adversary, seed, None);
            if let (Some(t), Some(root)) = (trace.as_mut(), root) {
                t.record("sim.run.untraced", Some(root), start, end);
            }
            run.check(check(&g, &out, &[first.as_deref(), recorded]));
            if let Some(c) = out.as_ref().ok().and_then(counts) {
                if first.is_none() {
                    first = Some(sim_stats(&c));
                    all.push(c);
                }
            }
            best = best.min((end - start).as_secs_f64());
        }
        times.push(best);
        if let (Some(t), Some(root)) = (trace.as_mut(), root) {
            let mut tracer = StepTracer::new(&p, NODES, WINDOW_SWEEPS * NODES as u64);
            let (out, _, end) = solve(&p, &g, &adversary, seed, Some(&mut tracer));
            let cut = tracer.finish(end);
            cut.record(t, root);
            run.check(check(&g, &out, &[first.as_deref()]));
            if let Ok(o) = &out {
                let v0 = Instant::now();
                validate::is_maximal_independent_set(&g, &decode_mis(&o.outputs));
                let v1 = Instant::now();
                t.record("validate", Some(root), v0, v1);
                layers.validate.push((v1 - v0).as_secs_f64());
                if let Some(c) = counts(o) {
                    layers.steps.push(c.steps as f64);
                    layers.messages.push(c.messages as f64);
                }
            }
            layers.untraced.push(best);
            layers.cuts.push(cut);
            t.close(root);
        }
        run.stats.push(first.unwrap_or_default());
        if Instant::now() >= deadline {
            break;
        }
    }
    let per = |f: fn(&Counts) -> f64| median(&all.iter().map(f).collect::<Vec<_>>());
    let rates: Vec<f64> = all
        .iter()
        .zip(&times)
        .map(|(c, t)| (c.steps + c.deliveries) as f64 / t)
        .collect();
    let events_per_s = median(&rates);
    run.details = vec![
        Metric::new("solve_s", "s", median(&times)),
        Metric::new("events_per_s", "1/s", events_per_s),
        Metric::new("error_rate", "ratio", run.error_rate()),
        Metric::new("instances", "count", times.len() as f64),
        Metric::new("async.steps", "count", per(|c| c.steps as f64)),
        Metric::new("async.deliveries", "count", per(|c| c.deliveries as f64)),
        Metric::new("async.lost_overwrites", "count", per(|c| c.lost as f64)),
        Metric::new("async.time_units", "count", per(|c| c.time_units)),
        Metric::new(
            "async.useful_delivery_ratio",
            "ratio",
            per(|c| 1.0 - c.lost as f64 / c.deliveries as f64),
        ),
        Metric::new("async.ns_per_event", "ns", 1e9 / events_per_s),
    ];
    run.metrics = match trace {
        None => vec![
            Metric::new("setup_s", "s", setup_s),
            Metric::new("op_s", "s", fast_time(&times)),
            Metric::new("work_per_s", "1/s", fast_rate(&rates)),
            Metric::new("peak_rss_mib", "MiB", peak_rss_mib()),
        ],
        Some(t) => {
            run.details.push(layers.accounted());
            let m = layers.metrics();
            crate::finish_trace(&mut run, t, args);
            m
        }
    };
    run
}
