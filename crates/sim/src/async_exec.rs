//! The fully asynchronous event-driven executor.
//!
//! Implements the execution semantics of the paper's Section 2 faithfully:
//!
//! * node `v`'s step `t` lasts `L_{v,t}` time (adversary-chosen); the
//!   transition function is applied instantaneously at the end of the step;
//! * a transmitted letter is delivered to the port `ψ_u(v)` of each
//!   neighbor `u` after a delay `D_{v,t,u}` (adversary-chosen), subject to
//!   per-edge FIFO order;
//! * a port stores **only the last delivered letter** — there is no buffer,
//!   so a message can be overwritten before the receiver ever observes it
//!   (the executor counts these losses);
//! * at its step, a node observes `f_b(#λ(q))`, the truncated count of its
//!   query letter over its ports.
//!
//! The run-time is reported both as raw completion time and normalized by
//! the largest `L`/`D` parameter consumed — the paper's **time unit**.
//!
//! # One event loop
//!
//! Every asynchronous run — churn-free or under a churn plan, with or
//! without a fault plan — executes on one event loop, monomorphised over
//! its event queue and its churn hook. The queue is the one
//! [`crate::Simulation::scheduler`] selects:
//!
//! * [`SchedulerKind::CalendarWheel`] (the default) — the hierarchical
//!   timing wheel of [`crate::schedule`], O(1) amortized per push and pop;
//! * [`SchedulerKind::BinaryHeap`] — one global binary heap over the same
//!   `(time, seq)` order, `O(log m)` per push and pop: the reference
//!   queue the wheel is differentially tested against, and the
//!   benchmark baseline.
//!
//! Both pop events in the exact same `(time, seq)` order, so outcomes are
//! bit-identical per seed on either queue — pinned by differential and
//! fingerprint tests in `tests/async_wheel.rs`. The churn hook is `()` on
//! a churn-free run, which builds no universe graph and pays nothing per
//! event, and the churn controller under a churn plan.
//!
//! A step hands out one `seq` per letter it schedules. On a churn-free
//! run, each maximal run of equal arrival times in a broadcast travels as
//! one run event occupying the run's contiguous `seq` range, so it sorts
//! exactly where its letters would one by one and nothing can interleave
//! them. Every other letter is its own event: a churn run stamps every
//! step and letter with its node's incarnation (one event cannot carry a
//! stamp per receiver), and a sender the fault plan touches enqueues its
//! faulted fan — corrupted letters, and duplicates FIFO-bumped after
//! their original — with consecutive seqs.
//!
//! The loop gathers the consecutive deliveries of one instant into a
//! batch, counting each against the event budget as it is popped, drops
//! the stale and tombstoned ones, and applies the rest grouped per
//! receiver ([`FlatPorts::deliver_run`]). Every arrival on a directed
//! edge, duplicate or not, is bumped strictly past the edge's FIFO
//! watermark, so the slots of a batch are pairwise distinct and the
//! grouped application is bit-identical to one delivery per pop.
//!
//! # Churn
//!
//! Boundaries are expressed in **absolute time**: the event stamped with
//! round `r` applies at time `t = r`, before any queue event with time
//! ≥ `t` — the boundary wins a tie. The loop applies a due boundary
//! before the event it precedes (pushing that event back with its own
//! `(time, seq)`), and on a drained queue the next boundary outright: all
//! live nodes may be gone while a restart is still scheduled. A crash
//! bumps its node's incarnation, so its pending step and every letter in
//! flight to it go stale and are dropped when popped, without purging
//! the queue; a restart schedules the new incarnation's first step.
//! In-flight letters crossing an edge-delete boundary bounce off the
//! tombstoned slot; letters in flight across a delete + re-insert window
//! do land (the channel was re-established before arrival).
//!
//! Delivery runs on the flat engine ([`crate::engine`]): each transmission
//! resolves its receiver-side port slot through the graph's precomputed
//! reverse-slot map at *enqueue* time, and a step's observation reads the
//! incrementally maintained letter count in O(1) instead of scanning the
//! node's ports.

use rand::rngs::SmallRng;
use rand::SeedableRng;

use stoneage_core::{BoundedCount, Fsm, Letter, Protocol};
use stoneage_graph::{Graph, NodeId, TopologyEvent};

use crate::churn::{self, ChurnCtl, DEAD_OUTPUT};
use crate::engine::{FlatPorts, TOMBSTONE};
use crate::faults::{self, faulted_sends, FaultCtx, FaultLayer, FaultSummary};
use crate::pipeline::BoundaryHook;
use crate::schedule::{CalendarQueue, EventQueue, HeapQueue};
use crate::sim::{Cost, Detail, Observer, Outcome, Simulation};
use crate::snapshot::BacklogKind::{Deliver, Step};
use crate::snapshot::{self, AsyncCapture, BacklogEvent, SnapArgs, BODY_KIND};
use crate::{splitmix64, Adversary, ExecError};

/// Which event queue drives the asynchronous executor. See the module
/// docs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SchedulerKind {
    /// The calendar-queue / hierarchical timing wheel of
    /// [`crate::schedule`], with per-edge batched delivery.
    #[default]
    CalendarWheel,
    /// The preserved global binary-heap path: the differential oracle and
    /// benchmark baseline.
    BinaryHeap,
}

/// The event budget of a run that sets none.
const MAX_EVENTS: u64 = 200_000_000;

/// What a queued event does. A step or letter carries `inc`, the
/// incarnation of its node when it was scheduled (0 on a churn-free
/// run): a crash bumps the node's incarnation, so the event goes stale.
#[derive(Clone, Copy, Debug)]
enum Kind {
    /// `Step(node, inc)`: the node applies its next transition.
    Step(NodeId, u32),
    /// `Deliver(node, slot, letter, inc)`: a letter lands in `slot` of
    /// `node`, the receiver-side CSR slot read from the reverse-slot map
    /// at transmission time.
    Deliver(NodeId, u32, Letter, u32),
    /// `Run(v, from, len, letter)`: deliveries to neighbors
    /// `from..from + len` of `v` (sender-side port indices), all
    /// arriving at the same instant. Consumes `len` consecutive `seq`
    /// values starting at the event's own. Churn-free runs only.
    Run(NodeId, u32, u32, Letter),
}

/// The receivers of `v`'s ports `from..from + len` with their
/// receiver-side flat slots, via the precomputed reverse-slot map.
fn targets(g: &Graph, v: NodeId, from: u32, len: u32) -> impl Iterator<Item = (NodeId, u32)> + '_ {
    let range = from as usize..(from + len) as usize;
    let (nbrs, rev) = (&g.neighbors(v)[range.clone()], &g.reverse_slots(v)[range]);
    nbrs.iter().copied().zip(rev.iter().copied())
}

/// The churn hook of the event loop, on top of the lockstep pipeline's
/// [`BoundaryHook`] (setup, resume cursor, termination, liveness,
/// summary): the churn controller on churn runs, `()` on churn-free
/// runs.
pub(crate) trait AsyncHook: BoundaryHook {
    /// Whether events carry incarnation stamps. Without them, a run of
    /// equal arrivals can travel as one [`Kind::Run`].
    const STAMPED: bool;
    /// The time of the next unapplied boundary.
    #[inline]
    fn next_boundary(&self) -> Option<f64> {
        None
    }
    /// Applies the next boundary to the liveness overlay. If the event
    /// is effective, also patches the store (clearing the patched slots'
    /// pending marks), reboots a restarted node into its protocol's
    /// restart state, and returns the event.
    fn boundary<P: Protocol>(
        &mut self,
        _protocol: &P,
        _states: &mut [P::State],
        _ports: &mut FlatPorts,
        _pending: &mut [bool],
    ) -> Option<TopologyEvent> {
        None
    }
}

/// A churn-free run: no stamps, no boundaries.
impl AsyncHook for () {
    const STAMPED: bool = false;
}

/// The engine state of an asynchronous run: everything a snapshot
/// captures except the event queue and the loop counters.
struct Exec<'a, P: Fsm> {
    protocol: &'a P,
    graph: &'a Graph,
    b: u8,
    states: Vec<P::State>,
    /// Flat CSR-indexed port store with incremental per-letter counts:
    /// a step's observation is an O(1) count lookup, not a port scan.
    ports: FlatPorts,
    /// `pending[slot]`: a letter arrived at this port after the owner's
    /// last step. Flat, same CSR layout as the port store.
    pending: Vec<bool>,
    /// FIFO watermark per directed edge, indexed by the *sender's* CSR
    /// slot for `v → neighbors(v)[k]`.
    last_arrival: Vec<f64>,
    rngs: Vec<SmallRng>,
    step_counts: Vec<u64>,
    unfinished: usize,
    max_param: f64,
    total_steps: u64,
    messages_sent: u64,
    deliveries: u64,
    lost_overwrites: u64,
}

impl<'a, P: Fsm> Exec<'a, P> {
    fn new(protocol: &'a P, graph: &'a Graph, inputs: &[usize], seed: u64) -> Self {
        let n = graph.node_count();
        let sigma = protocol.alphabet().len();
        let sigma0 = protocol.initial_letter();
        let states: Vec<P::State> = inputs.iter().map(|&i| protocol.initial_state(i)).collect();
        let unfinished = states
            .iter()
            .filter(|q| protocol.output(q).is_none())
            .count();
        Exec {
            protocol,
            graph,
            b: protocol.bound(),
            states,
            ports: FlatPorts::new(graph, sigma, sigma0),
            pending: vec![false; graph.port_slot_count()],
            last_arrival: vec![0.0; graph.port_slot_count()],
            rngs: (0..n as u64)
                .map(|v| SmallRng::seed_from_u64(splitmix64(seed ^ splitmix64(v ^ 0xABCD))))
                .collect(),
            step_counts: vec![1; n],
            unfinished,
            max_param: 0.0,
            total_steps: 0,
            messages_sent: 0,
            deliveries: 0,
            lost_overwrites: 0,
        }
    }

    /// Splices a decoded snapshot into a fresh engine: every field the
    /// capture serialized, with the port counts recomputed canonically
    /// from the letter array.
    fn from_resume(
        protocol: &'a P,
        graph: &'a Graph,
        res: snapshot::AsyncResume<P::State>,
    ) -> Self {
        Exec {
            protocol,
            graph,
            b: protocol.bound(),
            states: res.states,
            ports: FlatPorts::from_letters(graph, protocol.alphabet().len(), res.letters),
            pending: res.pending,
            last_arrival: res.last_arrival,
            rngs: res.rngs,
            step_counts: res.step_counts,
            unfinished: res.unfinished as usize,
            max_param: res.max_param,
            total_steps: res.total_steps,
            messages_sent: res.messages_sent,
            deliveries: res.deliveries,
            lost_overwrites: res.lost_overwrites,
        }
    }

    /// One port write with overwrite-loss accounting.
    #[inline]
    fn deliver(&mut self, node: NodeId, slot: usize, letter: Letter) {
        if self.pending[slot] {
            self.lost_overwrites += 1;
        }
        self.pending[slot] = true;
        self.ports.deliver(node as usize, slot, letter);
        self.deliveries += 1;
    }

    /// Applies a batch of same-instant deliveries grouped by receiver:
    /// the deliveries to one node merge their count updates into a
    /// single pass. The slots are pairwise distinct (module docs), so
    /// the pending flags, overwrite-loss accounting, letter swaps, and
    /// net count deltas are all order-independent: the result is
    /// bit-identical to one [`Exec::deliver`] per letter in pop order.
    fn deliver_batch(
        &mut self,
        batch: &mut [(NodeId, u32, Letter)],
        group: &mut Vec<(u32, Letter)>,
        deltas: &mut Vec<(u16, i64)>,
    ) {
        batch.sort_unstable_by_key(|&(node, slot, _)| (node, slot));
        for writes in batch.chunk_by(|a, b| a.0 == b.0) {
            let node = writes[0].0;
            if let [(_, slot, letter)] = *writes {
                self.deliver(node, slot as usize, letter);
                continue;
            }
            group.clear();
            for &(_, slot, letter) in writes {
                if self.pending[slot as usize] {
                    self.lost_overwrites += 1;
                }
                self.pending[slot as usize] = true;
                group.push((slot, letter));
            }
            self.ports.deliver_run(node as usize, group, deltas);
            self.deliveries += group.len() as u64;
        }
    }

    /// Applies node `v`'s pending transition: clears its pending marks,
    /// observes the query-letter count, samples δ, and maintains the
    /// undecided counter. Returns the step index and the emission.
    #[inline]
    fn apply_step(&mut self, v: NodeId) -> (u64, Option<Letter>) {
        let vi = v as usize;
        let t = self.step_counts[vi];
        self.total_steps += 1;
        let base = self.graph.csr_offset(v);
        self.pending[base..base + self.graph.degree(v)]
            .iter_mut()
            .for_each(|p| *p = false);

        let query = self.protocol.query(&self.states[vi]);
        let count = self.ports.count(vi, query) as usize;
        let transitions = self
            .protocol
            .delta(&self.states[vi], BoundedCount::from_count(count, self.b));
        let (next, emission) = transitions.draw(&mut self.rngs[vi]);
        let was_output = self.protocol.output(&self.states[vi]).is_some();
        let is_output = self.protocol.output(&next).is_some();
        self.states[vi] = next;
        match (was_output, is_output) {
            (false, true) => self.unfinished -= 1,
            (true, false) => self.unfinished += 1,
            _ => {}
        }
        (t, emission)
    }

    /// Computes the FIFO-bumped arrival time of `v`'s step-`t` broadcast
    /// at every neighbor, in port order, into `arrivals`: the delay
    /// draws, `max_param` folding, and the per-edge watermark update.
    fn compute_arrivals<A: Adversary + ?Sized>(
        &mut self,
        adversary: &A,
        v: NodeId,
        t: u64,
        now: f64,
        arrivals: &mut Vec<f64>,
    ) {
        let nbrs = self.graph.neighbors(v);
        let base = self.graph.csr_offset(v);
        arrivals.clear();
        arrivals.resize(nbrs.len(), 0.0);
        adversary.fill_delays(v, t, nbrs, arrivals);
        for (k, a) in arrivals.iter_mut().enumerate() {
            let d = *a;
            debug_assert!(
                d.is_finite() && d >= 0.0,
                "adversary delay must be finite and non-negative, got {d} for \
                 step {t} of node {v} toward port {k}"
            );
            self.max_param = self.max_param.max(d);
            // FIFO: never deliver before an earlier transmission on the
            // same directed edge.
            let mut arrival = now + d;
            if arrival <= self.last_arrival[base + k] {
                arrival = self.last_arrival[base + k] * (1.0 + 1e-12) + 1e-12;
            }
            self.last_arrival[base + k] = arrival;
            *a = arrival;
        }
    }

    /// The next step length for `(v, t)`, folded into the time unit.
    #[inline]
    fn step_length<A: Adversary + ?Sized>(&mut self, adversary: &A, v: NodeId, t: u64) -> f64 {
        let l = adversary.step_length(v, t);
        debug_assert!(
            l.is_finite() && l > 0.0,
            "adversary step length must be finite and positive, got {l} for \
             step {t} of node {v}"
        );
        self.max_param = self.max_param.max(l);
        l
    }
}

/// Target mean events per calendar bucket; see [`crate::schedule`] for
/// why a small handful is the sweet spot.
const TARGET_EVENTS_PER_TICK: f64 = 4.0;

/// Picks the calendar bucket width for `adversary` on `graph`:
/// `target / rate` with `rate ≈ (|V| + Σ deg) / mean_step` — every step
/// reschedules itself and fans out at most `deg(v)` deliveries per unit
/// of simulated time. The step scale comes from the policy's
/// [`Adversary::time_scale_hint`] or a small deterministic sample.
/// Performance-only: any positive width yields identical outcomes.
fn choose_bucket_width<A: Adversary + ?Sized>(adversary: &A, graph: &Graph) -> f64 {
    let n = graph.node_count().max(1);
    let scale = adversary.time_scale_hint().unwrap_or_else(|| {
        // Deterministic probe of the oblivious parameter sequences: a
        // handful of early step lengths across a node stride.
        let probes = n.min(16);
        let stride = (n / probes).max(1);
        let mut sum = 0.0;
        let mut count = 0u32;
        for i in 0..probes {
            let v = (i * stride) as NodeId;
            for t in 1..=2u64 {
                sum += adversary.step_length(v, t);
                count += 1;
            }
        }
        sum / count as f64
    });
    let rate = (n + graph.degree_sum()) as f64 / scale.max(f64::MIN_POSITIVE);
    TARGET_EVENTS_PER_TICK / rate
}

/// The asynchronous executor: runs `sim`'s protocol under `adversary`
/// on the queue `sim` selects — with the churn controller as hook under
/// a churn plan (on the plan's universe graph), with `()` otherwise —
/// invoking `observer` after every node step, and returns the unified
/// outcome. `inputs` are validated by the builder.
pub(crate) fn exec<P, O>(
    sim: &Simulation<'_, P>,
    inputs: &[usize],
    adversary: &dyn Adversary,
    snap: &SnapArgs<'_, P::State>,
    observer: &mut O,
) -> Result<Outcome<P>, ExecError>
where
    P: Fsm,
    O: Observer<P::State> + ?Sized,
{
    let sigma = sim.protocol.alphabet().len();
    let start = Start {
        sim,
        inputs,
        adversary,
        snap,
    };
    match sim.churn {
        None => {
            let fctx = faults::compile(sim.faults, sim.graph, sigma)?;
            start.on_queue(sim.graph, fctx.as_ref(), (), observer)
        }
        Some(plan) => {
            let universe = plan.universe(sim.graph).map_err(churn::plan_config)?;
            let fctx = faults::compile(sim.faults, &universe, sigma)?;
            let sigma0 = sim.protocol.initial_letter();
            let ctl = ChurnCtl::new(plan, sim.graph, &universe, inputs, sigma0)?;
            start.on_queue(&universe, fctx.as_ref(), ctl, observer)
        }
    }
}

/// The builder's side of a run: what [`exec`] was handed.
struct Start<'a, 'g, P: Protocol> {
    sim: &'a Simulation<'g, P>,
    inputs: &'a [usize],
    adversary: &'a dyn Adversary,
    snap: &'a SnapArgs<'a, P::State>,
}

impl<'a, P: Fsm> Start<'a, '_, P> {
    /// Runs the loop on `graph` (the plan's universe under churn) and
    /// the queue the builder selects.
    fn on_queue<H, O>(
        self,
        graph: &'a Graph,
        fctx: Option<&'a FaultCtx>,
        hook: H,
        observer: &'a mut O,
    ) -> Result<Outcome<P>, ExecError>
    where
        H: AsyncHook,
        O: Observer<P::State> + ?Sized,
    {
        match self.sim.scheduler {
            SchedulerKind::CalendarWheel => {
                let width = choose_bucket_width(self.adversary, graph);
                self.run(CalendarQueue::new(width), graph, fctx, hook, observer)
            }
            SchedulerKind::BinaryHeap => self.run(HeapQueue::new(), graph, fctx, hook, observer),
        }
    }

    /// Starts fresh or splices the resume snapshot in, runs the event
    /// loop to an output configuration, and builds the outcome.
    fn run<Q, H, O>(
        self,
        queue: Q,
        graph: &'a Graph,
        fctx: Option<&'a FaultCtx>,
        mut hook: H,
        observer: &'a mut O,
    ) -> Result<Outcome<P>, ExecError>
    where
        Q: EventQueue<Kind>,
        H: AsyncHook,
        O: Observer<P::State> + ?Sized,
    {
        let (protocol, snap) = (self.sim.protocol, self.snap);
        let (n, slots) = (graph.node_count(), graph.port_slot_count());
        debug_assert_eq!(self.inputs.len(), n, "the builder validates input length");
        // Letter events carry the receiver's flat CSR slot as u32; fail
        // fast rather than silently wrapping on graphs beyond that
        // addressing limit (~2.1B directed port slots).
        assert!(
            u32::try_from(slots).is_ok(),
            "graph has {slots} directed port slots, exceeding the async engine's u32 slot addressing"
        );
        let (ex, tally, incarnation, resumed) = match snap.resume {
            Some(s) => {
                let mut res = snapshot::decode_async(s, &snap.codec(), n, slots)?;
                if res.faults.is_some() != fctx.is_some() {
                    return Err(BODY_KIND.into());
                }
                // The restored store already reflects the setup patches
                // and every boundary up to the cursor; only the hook's
                // overlay, counters and cursor need rebuilding.
                let (incarnation, cursor) = res.churn.take().unzip();
                hook.resume(cursor)?;
                let resumed = (std::mem::take(&mut res.backlog), res.events, res.seq);
                let tally = res.faults.unwrap_or_default();
                let ex = Exec::from_resume(protocol, graph, res);
                (ex, tally, incarnation, Some(resumed))
            }
            None => {
                let mut ex = Exec::new(protocol, graph, self.inputs, self.sim.seed);
                hook.setup(&mut ex.ports);
                (ex, FaultSummary::default(), None, None)
            }
        };
        let stamped = if H::STAMPED { n } else { 0 };
        let mut run = Run {
            ex,
            adversary: self.adversary,
            queue,
            seq: 0,
            events: 0,
            max_events: self.sim.budget.unwrap_or(MAX_EVENTS),
            incarnation: incarnation.unwrap_or_else(|| vec![0; stamped]),
            hook,
            faults: FaultLayer::new(fctx, tally),
            observer,
            snap,
        };
        let completion_time = match resumed {
            Some((backlog, events, seq)) => {
                for BacklogEvent { time, seq, kind } in backlog {
                    let kind = match kind {
                        Step { node, inc } => Kind::Step(node, inc),
                        Deliver {
                            node,
                            slot,
                            letter,
                            inc,
                        } => Kind::Deliver(node, slot, letter, inc),
                    };
                    run.queue.push(time, seq, kind);
                }
                (run.events, run.seq) = (events, seq);
                run.drive()?
            }
            // A churn-free run that starts in an output configuration is
            // complete at time 0; a churn run checks completion only
            // after a step or an effective boundary.
            None if !H::STAMPED && run.ex.unfinished == 0 => 0.0,
            None => {
                for node in 0..n as NodeId {
                    let l = run.ex.step_length(run.adversary, node, 1);
                    run.push(l, Kind::Step(node, 0));
                }
                run.drive()?
            }
        };
        Ok(run.outcome(completion_time))
    }
}

/// One asynchronous run in progress: the engine state plus the queue,
/// the loop counters and the hooks.
struct Run<'a, P: Fsm, Q, H, O: ?Sized> {
    ex: Exec<'a, P>,
    adversary: &'a dyn Adversary,
    queue: Q,
    /// The next tie-break rank to hand out.
    seq: u64,
    /// Events popped so far, stale ones included.
    events: u64,
    max_events: u64,
    /// Per-node incarnations; empty on a churn-free run.
    incarnation: Vec<u32>,
    hook: H,
    faults: FaultLayer<'a>,
    observer: &'a mut O,
    snap: &'a SnapArgs<'a, P::State>,
}

impl<P, Q, H, O> Run<'_, P, Q, H, O>
where
    P: Fsm,
    Q: EventQueue<Kind>,
    H: AsyncHook,
    O: Observer<P::State> + ?Sized,
{
    /// Schedules `kind` at `time` under the next seq, taking one seq
    /// per letter of a [`Kind::Run`].
    #[inline]
    fn push(&mut self, time: f64, kind: Kind) {
        self.queue.push(time, self.seq, kind);
        self.seq += match kind {
            Kind::Run(_, _, len, _) => len as u64,
            Kind::Step(..) | Kind::Deliver(..) => 1,
        };
    }

    /// The incarnation stamp of an event for node `u`.
    #[inline]
    fn stamp(&self, u: NodeId) -> u32 {
        if H::STAMPED {
            self.incarnation[u as usize]
        } else {
            0
        }
    }

    /// Counts one popped event against the budget.
    #[inline]
    fn count(&mut self) -> Result<(), ExecError> {
        self.events += 1;
        if self.events > self.max_events {
            return Err(ExecError::EventLimit {
                limit: self.max_events,
                unfinished: self.ex.unfinished,
            });
        }
        Ok(())
    }

    /// Runs the event loop until the run completes; returns the time it
    /// completed at.
    fn drive(&mut self) -> Result<f64, ExecError> {
        let mut arrivals: Vec<f64> = Vec::new();
        let mut fan: Vec<(NodeId, u32, f64, Letter)> = Vec::new();
        // Delivery-batch scratch: `held` parks the one event popped past
        // a batch's end, `batch` gathers the batch, and `group` and
        // `deltas` are the grouped write's scratch.
        let mut held: Option<(f64, u64, Kind)> = None;
        let mut batch: Vec<(NodeId, u32, Letter)> = Vec::new();
        let mut group: Vec<(u32, Letter)> = Vec::new();
        let mut deltas: Vec<(u16, i64)> = Vec::new();
        loop {
            let head = held.take().or_else(|| self.queue.pop());
            if let Some(tb) = self.hook.next_boundary() {
                if head.is_none_or(|(time, _, _)| tb <= time) {
                    // An effective boundary that leaves the run decided
                    // completes it, and so does any boundary on a drained
                    // queue: no live node is left to step.
                    let effective = self.boundary(tb);
                    let decided = self.ex.unfinished == 0 && self.hook.exhausted();
                    if decided && (effective || head.is_none()) {
                        return Ok(tb);
                    }
                    if let Some((time, seq, kind)) = head {
                        self.queue.push(time, seq, kind);
                    }
                    continue;
                }
            }
            let Some((time, _, kind)) = head else {
                unreachable!(
                    "the queue cannot drain while the run is incomplete: every \
                     live node always has a pending step event and pending \
                     boundaries are applied on a drained queue"
                );
            };
            if let Kind::Step(node, inc) = kind {
                self.count()?;
                // A pre-crash step of a crashed (possibly since
                // restarted) node is dropped, not rescheduled: the
                // restart boundary scheduled the new incarnation's
                // first step.
                if self.stamp(node) == inc && self.step(node, inc, time, &mut arrivals, &mut fan) {
                    return Ok(time);
                }
                continue;
            }
            // Gather every consecutive delivery at exactly this instant,
            // each counted as the heap pops it, so an event limit hit
            // mid-batch reports what one pop per letter would have
            // (deliveries never change `unfinished`). A letter to a
            // stale incarnation (its receiver crashed) or to a
            // tombstoned slot (the edge or the receiver is down) is
            // dropped without delivery accounting.
            batch.clear();
            let mut next = Some(kind);
            while let Some(kind) = next.take() {
                match kind {
                    Kind::Deliver(node, slot, letter, inc) => {
                        self.count()?;
                        if !H::STAMPED
                            || (self.stamp(node) == inc
                                && self.ex.ports.letter_at(slot as usize) != TOMBSTONE)
                        {
                            batch.push((node, slot, letter));
                        }
                    }
                    Kind::Run(v, from, len, letter) => {
                        for (u, slot) in targets(self.ex.graph, v, from, len) {
                            self.count()?;
                            batch.push((u, slot, letter));
                        }
                    }
                    Kind::Step(..) => unreachable!("steps never enter a delivery batch"),
                }
                match self.queue.pop() {
                    Some((t, _, k)) if t == time && !matches!(k, Kind::Step(..)) => next = Some(k),
                    other => held = other,
                }
            }
            if let [(node, slot, letter)] = batch[..] {
                self.ex.deliver(node, slot as usize, letter);
            } else {
                self.ex.deliver_batch(&mut batch, &mut group, &mut deltas);
            }
        }
    }

    /// Applies node `v`'s step at `time`, schedules its broadcast and
    /// its next step, and checkpoints on cadence. Returns whether the
    /// run is complete.
    #[inline]
    fn step(
        &mut self,
        v: NodeId,
        inc: u32,
        time: f64,
        arrivals: &mut Vec<f64>,
        fan: &mut Vec<(NodeId, u32, f64, Letter)>,
    ) -> bool {
        let vi = v as usize;
        let (t, emission) = self.ex.apply_step(v);
        if let Some(letter) = emission {
            self.ex.messages_sent += 1;
            let adversary = self.adversary;
            self.ex.compute_arrivals(adversary, v, t, time, arrivals);
            self.broadcast(v, t, letter, arrivals, fan);
        }

        self.observer.on_step(time, v, t, &self.ex.states[vi]);

        if self.ex.unfinished == 0 && self.hook.exhausted() {
            return true;
        }

        self.ex.step_counts[vi] = t + 1;
        let l = self.ex.step_length(self.adversary, v, t + 1);
        self.push(time + l, Kind::Step(v, inc));

        if self.snap.every > 0 && self.ex.total_steps.is_multiple_of(self.snap.every) {
            self.checkpoint();
        }
        false
    }

    /// Schedules `v`'s step-`t` broadcast of `l`, arriving at `arrivals`
    /// in port order.
    #[inline]
    fn broadcast(
        &mut self,
        v: NodeId,
        t: u64,
        l: Letter,
        arrivals: &[f64],
        fan: &mut Vec<(NodeId, u32, f64, Letter)>,
    ) {
        let graph = self.ex.graph;
        if let Some(ctx) = self.faults.ctx.filter(|ctx| ctx.affects_sender(v)) {
            let tally = &mut self.faults.tally;
            let watermarks = &mut self.ex.last_arrival;
            faulted_sends(ctx, tally, graph, watermarks, v, t, arrivals, l, fan);
            for &(u, slot, arrival, l) in fan.iter() {
                let inc = self.stamp(u);
                self.push(arrival, Kind::Deliver(u, slot, l, inc));
            }
            return;
        }
        // Partition the broadcast into maximal runs of equal arrival time
        // (bitwise-equal f64s — the adversary's latency schedule lands
        // directly in shared buckets). A churn run sends every letter
        // alone, each stamped with its receiver's incarnation.
        let (nbrs, rev) = (graph.neighbors(v), graph.reverse_slots(v));
        let mut k = 0;
        while k < nbrs.len() {
            let mut end = k + 1;
            while !H::STAMPED && end < nbrs.len() && arrivals[end] == arrivals[k] {
                end += 1;
            }
            let kind = if end - k == 1 {
                Kind::Deliver(nbrs[k], rev[k], l, self.stamp(nbrs[k]))
            } else {
                Kind::Run(v, k as u32, (end - k) as u32, l)
            };
            self.push(arrivals[k], kind);
            k = end;
        }
    }

    /// Applies the boundary due at `tb` and its engine-side consequences
    /// — a crash bumps the node's incarnation and takes it out of the
    /// undecided counter; a restart bumps it, puts the rebooted node
    /// back in, and schedules its first step. Returns whether the event
    /// was effective.
    fn boundary(&mut self, tb: f64) -> bool {
        let ex = &mut self.ex;
        let hook = &mut self.hook;
        let Some(ev) = hook.boundary(ex.protocol, &mut ex.states, &mut ex.ports, &mut ex.pending)
        else {
            return false;
        };
        match ev {
            TopologyEvent::Crash(v) => {
                self.incarnation[v as usize] += 1;
                if ex.protocol.output(&ex.states[v as usize]).is_none() {
                    ex.unfinished -= 1;
                }
            }
            TopologyEvent::Restart(node) => {
                let vi = node as usize;
                self.incarnation[vi] += 1;
                if ex.protocol.output(&ex.states[vi]).is_none() {
                    ex.unfinished += 1;
                }
                let l = ex.step_length(self.adversary, node, ex.step_counts[vi]);
                let inc = self.incarnation[vi];
                self.push(tb + l, Kind::Step(node, inc));
            }
            TopologyEvent::EdgeInsert(..) | TopologyEvent::EdgeDelete(..) => {}
        }
        true
    }

    /// Hands the observer a [`crate::Snapshot`] of the step boundary just
    /// taken: the engine state, the loop counters, the churn cursor and
    /// incarnations, the fault tally, and the queued events — each
    /// [`Kind::Run`] expanded into its letters with their exact
    /// consecutive seqs, so the bytes are the same on either queue.
    fn checkpoint(&mut self) {
        let graph = self.ex.graph;
        let mut backlog = Vec::new();
        let letter = |node, slot, letter, inc| Deliver {
            node,
            slot,
            letter,
            inc,
        };
        for (time, seq, &kind) in self.queue.entries() {
            let mut push = |seq, kind| backlog.push(BacklogEvent { time, seq, kind });
            match kind {
                Kind::Step(node, inc) => push(seq, Step { node, inc }),
                Kind::Deliver(node, slot, l, inc) => push(seq, letter(node, slot, l, inc)),
                Kind::Run(v, from, len, l) => {
                    for (i, (u, slot)) in targets(graph, v, from, len).enumerate() {
                        push(seq + i as u64, letter(u, slot, l, 0));
                    }
                }
            }
        }
        let ex = &self.ex;
        let capture = AsyncCapture {
            total_steps: ex.total_steps,
            events: self.events,
            seq: self.seq,
            messages_sent: ex.messages_sent,
            deliveries: ex.deliveries,
            lost_overwrites: ex.lost_overwrites,
            max_param: ex.max_param,
            unfinished: ex.unfinished as u64,
            states: &ex.states,
            letters: ex.ports.letters(),
            pending: &ex.pending,
            last_arrival: &ex.last_arrival,
            step_counts: &ex.step_counts,
            rngs: &ex.rngs,
            churn: self.hook.cursor().map(|c| (&self.incarnation[..], c)),
            faults: self.faults.capture(),
            backlog,
        };
        let snapshot = snapshot::encode_async(self.snap.meta, &self.snap.codec(), capture);
        self.observer.on_checkpoint(&snapshot);
    }

    /// The outcome of a run completed at `completion_time`. Crashed nodes
    /// are exempt from termination: they report the output they had
    /// decided before crashing, or [`DEAD_OUTPUT`].
    fn outcome(self, completion_time: f64) -> Outcome<P> {
        let ex = self.ex;
        let outputs = (ex.states.iter().enumerate())
            .map(|(v, q)| match ex.protocol.output(q) {
                Some(out) => out,
                None if self.hook.live(v) => panic!("live nodes are decided at termination"),
                None => DEAD_OUTPUT,
            })
            .collect();
        // Only a run complete at time 0, before scheduling its first
        // step, consumed no parameter.
        let m = ex.max_param;
        let time_unit = if m > 0.0 { m } else { 1.0 };
        Outcome {
            outputs,
            states: ex.states,
            cost: Cost::TimeUnits(completion_time / time_unit),
            workers: 1,
            detail: Detail::Async {
                completion_time,
                time_unit,
                total_steps: ex.total_steps,
                messages_sent: ex.messages_sent,
                deliveries: ex.deliveries,
                lost_overwrites: ex.lost_overwrites,
                churn: self.hook.summary(),
                faults: self.faults.capture(),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::{Exponential, Lockstep, SlowEdges, SlowNodes, UniformRandom};
    use stoneage_core::{
        Alphabet, AsMulti, Synchronized, TableProtocol, TableProtocolBuilder, Transitions,
    };
    use stoneage_graph::generators;

    /// Deterministic protocol: beep at step 1, then output 1 + f_b(#beeps).
    /// σ₀ is a distinct "quiet" letter, so the count genuinely reflects
    /// *delivered* beeps — which makes the protocol synchrony-dependent.
    fn count_neighbors(b: u8) -> TableProtocol {
        let alphabet = Alphabet::new(["beep", "quiet"]);
        let mut builder = TableProtocolBuilder::new("count", alphabet, b, Letter(1));
        let start = builder.add_state("start", Letter(0));
        let listen = builder.add_state("listen", Letter(0));
        builder.add_input_state(start);
        builder.set_transition_all(start, Transitions::det(listen, Some(Letter(0))));
        for o in 0..=b {
            let out = builder.add_output_state(format!("out{o}"), Letter(0), 1 + o as u64);
            builder.set_transition(listen, o, Transitions::det(out, None));
            builder.set_transition_all(out, Transitions::det(out, None));
        }
        builder.build().unwrap()
    }

    /// The synchronized counter on `g` under `adv`, on the default queue.
    fn run(
        b: u8,
        g: &Graph,
        adv: &dyn Adversary,
        seed: u64,
    ) -> Outcome<Synchronized<TableProtocol>> {
        let p = Synchronized::new(count_neighbors(b));
        Simulation::asynchronous(&p, g, adv)
            .seed(seed)
            .run()
            .unwrap()
    }

    #[test]
    fn lockstep_async_matches_sync_for_unsynchronized_protocol() {
        let g = generators::star(6);
        let p = count_neighbors(3);
        let sync_out = Simulation::sync(&AsMulti(p.clone()), &g).seed(1).run();
        let async_out = Simulation::asynchronous(&p, &g, &Lockstep).seed(1).run();
        assert_eq!(async_out.unwrap().outputs, sync_out.unwrap().outputs);
    }

    #[test]
    fn unsynchronized_protocol_breaks_under_asynchrony() {
        // The raw counting protocol relies on synchrony; an adversarial
        // schedule derails it (this is exactly why Theorem 3.1 exists): a
        // node whose two steps both fire before any beep is delivered
        // observes 0 neighbors.
        let g = generators::star(8);
        let p = count_neighbors(3);
        let reference = Simulation::asynchronous(&p, &g, &Lockstep).run().unwrap();
        let any_diff = (0..20).any(|seed| {
            let adv = Exponential { seed, mean: 0.5 };
            let out = Simulation::asynchronous(&p, &g, &adv).seed(seed).run();
            out.unwrap().outputs != reference.outputs
        });
        assert!(
            any_diff,
            "expected at least one adversarial schedule to break the \
             unsynchronized protocol"
        );
    }

    #[test]
    fn synchronized_protocol_is_correct_under_every_adversary() {
        // The synchronizer makes the deterministic counting protocol yield
        // its unique correct outputs under arbitrary schedules.
        let g = generators::star(5);
        let mut expected = vec![1 + 3u64]; // center, degree 4 truncated to ≥3
        expected.extend(std::iter::repeat_n(1 + 1, 4));
        for (i, adv) in crate::adversary::standard_panel(7).iter().enumerate() {
            let out = run(3, &g, adv, 100 + i as u64);
            assert_eq!(out.outputs, expected, "adversary {}", adv.name());
            assert!(out.cost.value() > 0.0);
            assert!(matches!(out.detail, Detail::Async { time_unit, .. } if time_unit > 0.0));
        }
    }

    #[test]
    fn async_execution_is_deterministic_per_seeds() {
        let g = generators::gnp(20, 0.2, 3);
        let adv = UniformRandom { seed: 5 };
        let (a, b) = (run(2, &g, &adv, 9), run(2, &g, &adv, 9));
        assert_eq!(a.outputs, b.outputs);
        assert_eq!(a.states, b.states);
        assert_eq!(a.detail, b.detail);
    }

    #[test]
    fn schedulers_agree_regardless_of_bucket_width() {
        // The reference heap and the calendar wheel at the width it
        // chooses must agree on every outcome field. Pathological widths
        // are covered at the queue, by `schedule::tests`.
        let g = generators::gnp(18, 0.25, 2);
        let p = Synchronized::new(count_neighbors(2));
        let adv = UniformRandom { seed: 8 };
        let [heap, wheel] = [SchedulerKind::BinaryHeap, SchedulerKind::CalendarWheel].map(|k| {
            let sim = Simulation::asynchronous(&p, &g, &adv).seed(3);
            sim.scheduler(k).run().unwrap()
        });
        assert_eq!(wheel.outputs, heap.outputs);
        assert_eq!(wheel.states, heap.states);
        assert_eq!(wheel.cost, heap.cost);
        assert_eq!(wheel.detail, heap.detail);
    }

    #[test]
    fn event_limit_is_reported() {
        let g = generators::path(4);
        let p = Synchronized::new(count_neighbors(1));
        let adv = UniformRandom { seed: 1 };
        for scheduler in [SchedulerKind::CalendarWheel, SchedulerKind::BinaryHeap] {
            let sim = Simulation::asynchronous(&p, &g, &adv).budget(50);
            let err = sim.scheduler(scheduler).run().unwrap_err();
            assert!(
                matches!(err, ExecError::EventLimit { limit: 50, .. }),
                "{scheduler:?}"
            );
        }
    }

    #[test]
    fn normalized_time_is_scale_invariant() {
        // Scaling all adversary parameters by a constant must not change
        // the normalized run-time (the paper's measure).
        #[derive(Clone, Copy)]
        struct Scaled<A>(A, f64);
        impl<A: Adversary> Adversary for Scaled<A> {
            fn step_length(&self, v: NodeId, t: u64) -> f64 {
                self.1 * self.0.step_length(v, t)
            }
            fn delay(&self, v: NodeId, t: u64, u: NodeId) -> f64 {
                self.1 * self.0.delay(v, t, u)
            }
            fn name(&self) -> &'static str {
                "scaled"
            }
        }
        let completion = |out: &Outcome<_>| match out.detail {
            Detail::Async {
                completion_time, ..
            } => completion_time,
            _ => unreachable!("an asynchronous run"),
        };
        let g = generators::cycle(6);
        let base = UniformRandom { seed: 2 };
        let a = run(1, &g, &base, 4);
        let b = run(1, &g, &Scaled(base, 100.0), 4);
        assert!((a.cost.value() - b.cost.value()).abs() < 1e-6);
        assert!((completion(&b) / completion(&a) - 100.0).abs() < 1e-3);
    }

    #[test]
    fn lost_overwrites_occur_on_slow_receivers() {
        // A very slow receiver cannot observe every message of a fast
        // sender; the no-buffer semantics must register losses.
        let adv = SlowNodes {
            seed: 3,
            fraction: 0.5,
            factor: 50.0,
        };
        let out = run(1, &generators::path(2), &adv, 8);
        // Not asserting a specific count — just exercising the path; with
        // factor 50 some loss is overwhelmingly likely but not certain.
        assert!(matches!(out.detail, Detail::Async { deliveries, .. } if deliveries > 0));
    }

    #[test]
    fn isolated_nodes_complete_alone() {
        let g = stoneage_graph::Graph::empty(4);
        let out = run(2, &g, &Exponential { seed: 1, mean: 0.3 }, 0);
        assert_eq!(out.outputs, vec![1, 1, 1, 1]);
    }

    #[test]
    fn slow_edges_still_converge() {
        let adv = SlowEdges {
            seed: 6,
            fraction: 0.3,
            factor: 20.0,
        };
        let out = run(3, &generators::complete(5), &adv, 2);
        assert_eq!(out.outputs, vec![4, 4, 4, 4, 4]);
    }

    #[test]
    fn input_mismatch_is_reported() {
        let g = generators::path(3);
        let p = count_neighbors(1);
        let err = Simulation::asynchronous(&p, &g, &Lockstep)
            .inputs(&[0])
            .run();
        assert!(matches!(
            err.unwrap_err(),
            ExecError::InputLengthMismatch { .. }
        ));
    }

    /// An adversary that violates the model contract with a NaN delay.
    #[derive(Clone, Copy)]
    struct NanDelay;
    impl Adversary for NanDelay {
        fn step_length(&self, _v: NodeId, _t: u64) -> f64 {
            1.0
        }
        fn delay(&self, _v: NodeId, _t: u64, _u: NodeId) -> f64 {
            f64::NAN
        }
        fn name(&self) -> &'static str {
            "nan-delay"
        }
    }

    /// An adversary that violates the model contract with a zero step
    /// length (which would wedge simulated time).
    #[derive(Clone, Copy)]
    struct ZeroStep;
    impl Adversary for ZeroStep {
        fn step_length(&self, _v: NodeId, _t: u64) -> f64 {
            0.0
        }
        fn delay(&self, _v: NodeId, _t: u64, _u: NodeId) -> f64 {
            1.0
        }
        fn name(&self) -> &'static str {
            "zero-step"
        }
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn misbehaving_adversary_delay_is_caught_on_heap() {
        let g = generators::path(2);
        let p = Synchronized::new(count_neighbors(1));
        let sim = Simulation::asynchronous(&p, &g, &NanDelay);
        let _ = sim.scheduler(SchedulerKind::BinaryHeap).run();
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn misbehaving_adversary_delay_is_caught_on_wheel() {
        let g = generators::path(2);
        let p = Synchronized::new(count_neighbors(1));
        let sim = Simulation::asynchronous(&p, &g, &NanDelay);
        let _ = sim.scheduler(SchedulerKind::CalendarWheel).run();
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "finite and positive")]
    fn misbehaving_adversary_step_length_is_caught() {
        let _ = run(1, &generators::path(2), &ZeroStep, 0);
    }

    #[test]
    fn chosen_bucket_width_is_positive_and_scales_with_rate() {
        let small = generators::gnp(20, 0.2, 1);
        let large = generators::gnp(2000, 4.0 / 2000.0, 1);
        let adv = UniformRandom { seed: 4 };
        let ws = choose_bucket_width(&adv, &small);
        let wl = choose_bucket_width(&adv, &large);
        assert!(ws > 0.0 && ws.is_finite());
        assert!(wl > 0.0 && wl.is_finite());
        // More nodes and edges → denser event stream → narrower buckets.
        assert!(wl < ws);
    }
}
