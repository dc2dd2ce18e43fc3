//! Outside-in tracing of `Simulation::run` through the public `Observer`
//! hooks, and the per-layer metrics derived from it.
//!
//! A lockstep run is cut at its `on_round_end` callbacks: `sim.init` runs
//! from the `run()` call to the first callback, each `sim.round` from the
//! end of one callback to the start of the next, and `sim.finish` from
//! the last callback to the return of `run()`. The observer's own work
//! (counting undecided nodes) is a `trace.observe` span, so the engine
//! spans exclude it and the spans tile the whole call. An asynchronous
//! run is cut the same way every `window` node steps; its tracer's
//! per-step bookkeeping stays inside those spans.

use std::time::Instant;

use stoneage_sim::{Observer, Protocol};

use crate::report::Metric;
use crate::stats::{median, percentile};
use crate::trace::Trace;

/// Share of undecided nodes at or above which a step counts as dense.
pub const DENSE_SHARE: f64 = 0.1;

/// One step boundary seen by a tracer.
#[derive(Clone, Copy, Debug)]
struct Mark {
    /// When the callback was entered (the engine's step ended).
    entry: Instant,
    /// When the callback returned (the engine's next step began).
    exit: Instant,
    /// Undecided nodes after the step.
    undecided: usize,
}

/// The cut of one traced `run()` call.
#[derive(Clone, Debug)]
pub struct RunCut {
    start: Instant,
    end: Instant,
    n: usize,
    marks: Vec<Mark>,
    /// Node updates applied to nodes that had not yet decided.
    active_updates: u64,
    /// All node updates.
    updates: u64,
}

impl RunCut {
    /// Seconds from the `run()` call to the first step boundary.
    pub fn init(&self) -> f64 {
        let first = self.marks.first().map_or(self.end, |m| m.entry);
        (first - self.start).as_secs_f64()
    }

    /// Seconds from the last step boundary to the return of `run()`.
    pub fn finish(&self) -> f64 {
        let last = self.marks.last().map_or(self.start, |m| m.exit);
        self.end.saturating_duration_since(last).as_secs_f64()
    }

    /// Engine seconds of each step after the first, with whether the
    /// step began with at least [`DENSE_SHARE`] of the nodes undecided.
    pub fn steps(&self) -> Vec<(f64, bool)> {
        self.marks
            .windows(2)
            .map(|w| {
                let span = (w[1].entry - w[0].exit).as_secs_f64();
                (span, w[0].undecided as f64 >= DENSE_SHARE * self.n as f64)
            })
            .collect()
    }

    /// Seconds the tracer itself spent inside callbacks.
    pub fn observe(&self) -> f64 {
        self.marks
            .iter()
            .map(|m| (m.exit - m.entry).as_secs_f64())
            .sum()
    }

    /// Engine seconds: the whole call minus the tracer's callbacks.
    pub fn engine(&self) -> f64 {
        (self.end - self.start).as_secs_f64() - self.observe()
    }

    /// Share of node updates spent on nodes that could still change.
    pub fn active_fraction(&self) -> f64 {
        self.active_updates as f64 / self.updates.max(1) as f64
    }

    /// Records this cut as spans under `parent`.
    pub fn record(&self, trace: &mut Trace, parent: usize) {
        let run = trace.record("sim.run", Some(parent), self.start, self.end);
        let first = self.marks.first().map_or(self.end, |m| m.entry);
        trace.record("sim.init", Some(run), self.start, first);
        for w in self.marks.windows(2) {
            trace.record("sim.round", Some(run), w[0].exit, w[1].entry);
        }
        for m in &self.marks {
            trace.record("trace.observe", Some(run), m.entry, m.exit);
        }
        let last = self.marks.last().map_or(self.start, |m| m.exit);
        trace.record("sim.finish", Some(run), last, self.end);
    }
}

/// Lockstep tracer: a step is one round.
pub struct RoundTracer<'p, P> {
    protocol: &'p P,
    cut: RunCut,
}

impl<'p, P: Protocol> RoundTracer<'p, P> {
    /// A tracer for an `n`-node run about to start; make it right before
    /// the `run()` call.
    pub fn new(protocol: &'p P, n: usize) -> Self {
        let now = Instant::now();
        RoundTracer {
            protocol,
            cut: RunCut {
                start: now,
                end: now,
                n,
                marks: Vec::new(),
                active_updates: 0,
                updates: 0,
            },
        }
    }

    /// When the tracer was made: right before the `run()` call it traces.
    pub fn start_time(&self) -> Instant {
        self.cut.start
    }

    /// Stamps the return of `run()` and hands back the cut.
    pub fn finish(mut self, end: Instant) -> RunCut {
        self.cut.end = end;
        self.cut
    }
}

impl<P: Protocol> Observer<P::State> for RoundTracer<'_, P> {
    fn on_round_end(&mut self, _round: u64, states: &[P::State]) {
        let entry = Instant::now();
        let before = self.cut.marks.last().map_or(self.cut.n, |m| m.undecided);
        let undecided = states
            .iter()
            .filter(|s| self.protocol.output(s).is_none())
            .count();
        self.cut.active_updates += before as u64;
        self.cut.updates += self.cut.n as u64;
        self.cut.marks.push(Mark {
            entry,
            exit: Instant::now(),
            undecided,
        });
    }
}

/// Asynchronous tracer: a step is `window` node steps. The clock is read
/// only at window boundaries, so `sim.finish` also holds the steps after
/// the last full window.
pub struct StepTracer<'p, P> {
    protocol: &'p P,
    window: u64,
    decided: Vec<bool>,
    undecided: usize,
    cut: RunCut,
}

impl<'p, P: Protocol> StepTracer<'p, P> {
    /// A tracer for an `n`-node run about to start, marking every
    /// `window` steps; make it right before the `run()` call.
    pub fn new(protocol: &'p P, n: usize, window: u64) -> Self {
        let now = Instant::now();
        StepTracer {
            protocol,
            window,
            decided: vec![false; n],
            undecided: n,
            cut: RunCut {
                start: now,
                end: now,
                n,
                marks: Vec::new(),
                active_updates: 0,
                updates: 0,
            },
        }
    }

    /// Stamps the return of `run()` and hands back the cut.
    pub fn finish(mut self, end: Instant) -> RunCut {
        self.cut.end = end;
        self.cut
    }
}

impl<P: Protocol> Observer<P::State> for StepTracer<'_, P> {
    fn on_step(&mut self, _time: f64, v: u32, _t: u64, state: &P::State) {
        self.cut.updates += 1;
        let v = v as usize;
        if !self.decided[v] {
            self.cut.active_updates += 1;
            if self.protocol.output(state).is_some() {
                self.decided[v] = true;
                self.undecided -= 1;
            }
        }
        if self.cut.updates.is_multiple_of(self.window) {
            let now = Instant::now();
            self.cut.marks.push(Mark {
                entry: now,
                exit: now,
                undecided: self.undecided,
            });
        }
    }
}

/// Per-instance facts the traced runs collect, turned into the generic
/// per-layer metrics every workload reports.
#[derive(Default)]
pub struct LayerStats {
    /// Graph generation seconds.
    pub graph_build: Vec<f64>,
    /// Traced cuts of `run()`.
    pub cuts: Vec<RunCut>,
    /// Untraced `run()` seconds of the same instances, in the same order
    /// (the best of the instance's untraced repeats).
    pub untraced: Vec<f64>,
    /// Simulated steps per instance (rounds, or async node steps).
    pub steps: Vec<f64>,
    /// Messages sent per instance.
    pub messages: Vec<f64>,
    /// Output validation seconds.
    pub validate: Vec<f64>,
}

impl LayerStats {
    /// The generic per-layer metrics, in `BENCHMARK.json` order.
    pub fn metrics(&self) -> Vec<Metric> {
        let all: Vec<(f64, bool)> = self.cuts.iter().flat_map(RunCut::steps).collect();
        let spans: Vec<f64> = all.iter().map(|s| s.0).collect();
        let pick = |dense: bool| -> Vec<f64> {
            all.iter().filter(|s| s.1 == dense).map(|s| s.0).collect()
        };
        let step_p50 = median(&spans);
        let of = |f: fn(&RunCut) -> f64| -> Vec<f64> { self.cuts.iter().map(f).collect() };
        let overhead: Vec<f64> = self
            .cuts
            .iter()
            .zip(&self.untraced)
            .map(|(c, u)| (c.end - c.start).as_secs_f64() / u)
            .collect();
        vec![
            Metric::new("graph.build_s", "s", median(&self.graph_build)),
            Metric::new("sim.init_s", "s", median(&of(RunCut::init))),
            Metric::new("sim.step_p50_s", "s", step_p50),
            Metric::new(
                "sim.step_tail_ratio",
                "ratio",
                percentile(&spans, 0.95) / step_p50,
            ),
            Metric::new("sim.dense_step_s", "s", median(&pick(true))),
            Metric::new("sim.sparse_step_s", "s", median(&pick(false))),
            Metric::new("sim.finish_s", "s", median(&of(RunCut::finish))),
            Metric::new(
                "sim.active_fraction",
                "ratio",
                median(&of(RunCut::active_fraction)),
            ),
            Metric::new("sim.steps", "count", median(&self.steps)),
            Metric::new("sim.messages", "count", median(&self.messages)),
            Metric::new("validate_s", "s", median(&self.validate)),
            Metric::new("trace.overhead", "ratio", median(&overhead)),
        ]
    }

    /// How much of the untraced `run()` time the engine spans account
    /// for. `sim.init` + `sim.round` + `sim.finish` tile the traced call
    /// minus the tracer's own callbacks, so this is near 1 when the spans
    /// explain the solve time.
    pub fn accounted(&self) -> Metric {
        let ratios: Vec<f64> = self
            .cuts
            .iter()
            .zip(&self.untraced)
            .map(|(c, u)| c.engine() / u)
            .collect();
        Metric::new("trace.accounted", "ratio", median(&ratios))
    }
}
