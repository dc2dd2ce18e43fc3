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
//! # Scheduling
//!
//! Two schedulers drive the event loop, selected by
//! [`AsyncConfig::scheduler`]:
//!
//! * [`SchedulerKind::CalendarWheel`] (the default) — the hierarchical
//!   timing wheel of [`crate::schedule`]. Pushes and pops are O(1)
//!   amortized, and a broadcast's same-arrival-time deliveries are
//!   **batched per edge run**: one bucket entry drains a whole run with a
//!   single [`FlatPorts`] write pass instead of one heap pop per letter
//!   (under quantized or lockstep-like latency schedules this collapses a
//!   `deg(v)`-way fan-out into one event). On top of the per-edge runs,
//!   the drain **coalesces per receiver**: consecutive same-instant
//!   deliveries *to one node* from different senders merge their
//!   pending-flag and count updates into a single grouped write pass
//!   ([`FlatPorts::deliver_run`]) — safe because per-edge FIFO makes
//!   same-instant slots distinct, so the grouped application is
//!   bit-identical to the heap path's per-letter order.
//! * [`SchedulerKind::BinaryHeap`] — the original single global
//!   `BinaryHeap<Reverse<Event>>`, preserved verbatim as the differential
//!   oracle and benchmark baseline; its push/pop costs the `O(log m)`
//!   factor the wheel removes.
//!
//! Both paths share every piece of execution state and apply events in the
//! **exact same `(time, seq)` order**: the wheel orders candidate events
//! of the current bucket by their exact time and tie-breaking sequence
//! number, and batches occupy contiguous `seq` ranges, so no foreign event
//! can interleave a batch that the heap would have split. Outcomes are
//! bit-identical per seed — pinned by differential and fingerprint tests
//! in `tests/async_wheel.rs`.
//!
//! Delivery runs on the flat engine ([`crate::engine`]): each transmission
//! resolves its receiver-side port slot through the graph's precomputed
//! reverse-port map at *enqueue* time, and a step's observation reads the
//! incrementally maintained letter count in O(1) instead of scanning the
//! node's ports.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use rand::rngs::SmallRng;
use rand::SeedableRng;

use stoneage_core::{BoundedCount, Fsm, Letter};
use stoneage_graph::{Graph, NodeId};

use crate::engine::FlatPorts;
use crate::faults::{faulted_sends, FaultLayer, FaultSummary, FaultsArg};
use crate::schedule::CalendarQueue;
use crate::snapshot::{
    self, AsyncCapture, BacklogEvent, BacklogKind, SnapArgs, Snapshot, SnapshotError,
};
use crate::sync_exec::compile_faults;
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

/// Configuration of an asynchronous execution.
#[derive(Clone, Copy, Debug)]
pub struct AsyncConfig {
    /// Master seed for the per-node protocol RNGs (the adversary carries
    /// its own seed — obliviousness demands the streams be independent).
    pub seed: u64,
    /// Event budget: exceeding it aborts with [`ExecError::EventLimit`].
    pub max_events: u64,
    /// Event queue driving the run. Outcomes are bit-identical across
    /// kinds; only throughput differs.
    pub scheduler: SchedulerKind,
    /// Explicit calendar bucket width in simulated time units, overriding
    /// the executor's estimate (see [`crate::schedule`] for the
    /// trade-off). Ignored by the heap scheduler. Performance-only: it
    /// cannot affect outcomes.
    pub bucket_width: Option<f64>,
}

impl Default for AsyncConfig {
    fn default() -> Self {
        AsyncConfig {
            seed: 0,
            max_events: 200_000_000,
            scheduler: SchedulerKind::CalendarWheel,
            bucket_width: None,
        }
    }
}

impl AsyncConfig {
    /// A config with the given seed and the default event budget.
    pub fn seeded(seed: u64) -> Self {
        AsyncConfig {
            seed,
            ..Default::default()
        }
    }

    /// This config with the given scheduler kind.
    pub fn with_scheduler(mut self, scheduler: SchedulerKind) -> Self {
        self.scheduler = scheduler;
        self
    }
}

/// Result of an asynchronous execution that reached an output
/// configuration.
#[derive(Clone, Debug)]
pub struct AsyncOutcome {
    /// Per-node outputs, decoded from the output states.
    pub outputs: Vec<u64>,
    /// Raw time at which the first output configuration was reached.
    pub completion_time: f64,
    /// The paper's **time unit**: the largest step-length or delay
    /// parameter consumed before completion.
    pub time_unit: f64,
    /// `completion_time / time_unit` — the paper's run-time measure
    /// `T_Π(I, A, R)`.
    pub normalized_time: f64,
    /// Total node steps executed.
    pub total_steps: u64,
    /// Total non-`ε` transmissions (each fans out to all neighbors).
    pub messages_sent: u64,
    /// Total port writes.
    pub deliveries: u64,
    /// Deliveries that overwrote a letter the receiving node had not yet
    /// had a step to observe — messages *lost* to the no-buffer semantics.
    pub lost_overwrites: u64,
}

/// Events of the preserved binary-heap path: one entry per delivery.
#[derive(Clone, Copy, Debug)]
enum HeapKind {
    /// Node applies its next transition.
    Step(NodeId),
    /// A letter lands in the flat port store at `slot` (a CSR slot of
    /// `node`, precomputed from the reverse-port map at transmission
    /// time — no lookup happens at delivery time).
    Deliver {
        node: NodeId,
        slot: u32,
        letter: Letter,
    },
}

/// Events of the calendar-wheel path. Identical to [`HeapKind`] except
/// that a run of same-arrival-time deliveries of one broadcast collapses
/// into a single [`WheelKind::DeliverRun`] occupying the run's contiguous
/// `seq` range.
#[derive(Clone, Copy, Debug)]
enum WheelKind {
    /// Node applies its next transition.
    Step(NodeId),
    /// A single delivery (run of length 1), slot precomputed.
    Deliver {
        node: NodeId,
        slot: u32,
        letter: Letter,
    },
    /// Deliveries to neighbors `from..from + len` of `v` (sender-side
    /// port indices), all arriving at the same instant: drained with one
    /// flat write pass. Consumes `len` consecutive `seq` values starting
    /// at the event's own.
    DeliverRun {
        v: NodeId,
        from: u32,
        len: u32,
        letter: Letter,
    },
}

#[derive(Clone, Copy, Debug)]
struct Event {
    time: f64,
    seq: u64,
    kind: HeapKind,
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}

impl Eq for Event {}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.time
            .total_cmp(&other.time)
            .then(self.seq.cmp(&other.seq))
    }
}

/// Hook invoked by the asynchronous executor after every applied node
/// step, with the event time and the node's post-transition state. Used
/// by the Lemma 3.2 / (S1) validation tests to watch phase skew between
/// neighbors without touching the engine. Subsumed by the unified
/// [`crate::sim::Observer`]; kept so existing observers keep compiling
/// (adapt them with [`crate::sim::AdaptAsync`]).
pub trait AsyncObserver<S> {
    /// Called after node `v` applied its step `t` at time `time`.
    fn on_step(&mut self, time: f64, v: NodeId, t: u64, state: &S);

    /// Called with each checkpoint snapshot the executor captures (only
    /// when [`crate::Simulation::checkpoint_every`] is set). The default
    /// does nothing.
    fn on_checkpoint(&mut self, _snapshot: &Snapshot) {}
}

impl<S, O: AsyncObserver<S> + ?Sized> AsyncObserver<S> for &mut O {
    fn on_step(&mut self, time: f64, v: NodeId, t: u64, state: &S) {
        (**self).on_step(time, v, t, state);
    }

    fn on_checkpoint(&mut self, snapshot: &Snapshot) {
        (**self).on_checkpoint(snapshot);
    }
}

/// An observer that does nothing.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoopAsyncObserver;

impl<S> AsyncObserver<S> for NoopAsyncObserver {
    fn on_step(&mut self, _time: f64, _v: NodeId, _t: u64, _state: &S) {}
}

/// The shared execution state of both scheduler paths: everything except
/// the event queue itself. Keeping it single ensures the wheel rewrite
/// cannot drift from the preserved heap semantics.
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

    /// Serializes a step boundary into a [`Snapshot`]: the shared state
    /// plus the loop counters and the caller-collected event backlog.
    #[allow(clippy::too_many_arguments)]
    fn checkpoint<S2>(
        &self,
        snap: &SnapArgs<'_, P::State>,
        events: u64,
        seq: u64,
        churn: Option<(&[u32], u64)>,
        faults: Option<FaultSummary>,
        backlog: Vec<BacklogEvent>,
        observer: &mut S2,
    ) where
        S2: AsyncObserver<P::State> + ?Sized,
    {
        let codec = snap.codec();
        let s = snapshot::encode_async(
            snap.meta,
            &codec,
            AsyncCapture {
                total_steps: self.total_steps,
                events,
                seq,
                messages_sent: self.messages_sent,
                deliveries: self.deliveries,
                lost_overwrites: self.lost_overwrites,
                max_param: self.max_param,
                unfinished: self.unfinished as u64,
                states: &self.states,
                letters: self.ports.letters(),
                pending: &self.pending,
                last_arrival: &self.last_arrival,
                step_counts: &self.step_counts,
                rngs: &self.rngs,
                churn,
                faults,
                backlog,
            },
        );
        observer.on_checkpoint(&s);
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

    /// Applies a group of same-instant deliveries **to one receiver**
    /// (from different senders) with a single count-update pass — the
    /// wheel loop's per-receiver coalescing. The slots are pairwise
    /// distinct (per-edge FIFO forbids two same-instant arrivals on one
    /// directed edge), so the pending flags, overwrite-loss accounting,
    /// letter swaps, and net count deltas are all order-independent:
    /// the result is bit-identical to per-letter [`Exec::deliver`] calls
    /// in the heap path's order.
    #[inline]
    fn deliver_grouped(
        &mut self,
        node: NodeId,
        writes: &[(u32, Letter)],
        deltas: &mut Vec<(u16, i64)>,
    ) {
        for &(slot, _) in writes {
            let slot = slot as usize;
            if self.pending[slot] {
                self.lost_overwrites += 1;
            }
            self.pending[slot] = true;
        }
        self.ports.deliver_run(node as usize, writes, deltas);
        self.deliveries += writes.len() as u64;
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
    /// at every neighbor, in port order, into `arrivals`. The delay draws,
    /// `max_param` folding, and the per-edge watermark update are the
    /// single transcription both scheduler paths share.
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

    fn outcome(self, completion_time: f64) -> (AsyncOutcome, Vec<P::State>) {
        let outputs = self
            .states
            .iter()
            .map(|q| self.protocol.output(q).expect("output configuration"))
            .collect();
        (
            AsyncOutcome {
                outputs,
                completion_time,
                time_unit: self.max_param,
                normalized_time: completion_time / self.max_param,
                total_steps: self.total_steps,
                messages_sent: self.messages_sent,
                deliveries: self.deliveries,
                lost_overwrites: self.lost_overwrites,
            },
            self.states,
        )
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
fn choose_bucket_width<A: Adversary + ?Sized>(
    adversary: &A,
    graph: &Graph,
    override_width: Option<f64>,
) -> f64 {
    if let Some(w) = override_width {
        if w.is_finite() && w > 0.0 {
            return w;
        }
    }
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

/// The asynchronous engine: runs `protocol` under `adversary`, invoking
/// `observer` after every node step, and returns the final per-node
/// state vector next to the legacy outcome. The single transcription of
/// the event loop — the [`crate::Simulation`] builder and (through it)
/// every legacy `run_async*` shim land here.
///
/// Inputs are validated by the builder; this function assumes
/// `inputs.len() == graph.node_count()`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn exec_async<P: Fsm, A: Adversary + ?Sized, O: AsyncObserver<P::State>>(
    protocol: &P,
    graph: &Graph,
    inputs: &[usize],
    adversary: &A,
    config: &AsyncConfig,
    observer: &mut O,
    snap: &SnapArgs<'_, P::State>,
    faults: FaultsArg<'_>,
) -> Result<(AsyncOutcome, Vec<P::State>), ExecError> {
    let n = graph.node_count();
    debug_assert_eq!(inputs.len(), n, "the builder validates input length");

    // Deliver events carry the receiver's flat CSR slot as u32; fail fast
    // rather than silently wrapping on graphs beyond that addressing limit
    // (~2.1B directed port slots).
    assert!(
        u32::try_from(graph.port_slot_count()).is_ok(),
        "graph has {} directed port slots, exceeding the async engine's u32 slot addressing",
        graph.port_slot_count()
    );

    let (fctx, fout) = compile_faults(faults, graph, protocol.alphabet().len())?;
    let (ex, seed, tally) = match snap.resume {
        Some(s) => {
            let mut res = snapshot::decode_async(s, &snap.codec(), n, graph.port_slot_count())?;
            if res.churn.is_some() || res.faults.is_some() != fctx.is_some() {
                return Err(ExecError::Snapshot(SnapshotError::DigestMismatch {
                    field: "snapshot body kind",
                }));
            }
            let seed = AsyncSeed {
                backlog: std::mem::take(&mut res.backlog),
                events: res.events,
                seq: res.seq,
            };
            let tally = res.faults.unwrap_or_default();
            (Exec::from_resume(protocol, graph, res), Some(seed), tally)
        }
        None => (
            Exec::new(protocol, graph, inputs, config.seed),
            None,
            FaultSummary::default(),
        ),
    };

    if seed.is_none() && ex.unfinished == 0 {
        if let Some(out) = fout {
            *out = Some(tally);
        }
        let outputs = ex
            .states
            .iter()
            .map(|q| protocol.output(q).expect("checked"))
            .collect();
        return Ok((
            AsyncOutcome {
                outputs,
                completion_time: 0.0,
                time_unit: 1.0,
                normalized_time: 0.0,
                total_steps: 0,
                messages_sent: 0,
                deliveries: 0,
                lost_overwrites: 0,
            },
            ex.states,
        ));
    }

    let mut layer = FaultLayer::new(fctx.as_ref(), tally);
    let result = if layer.ctx.is_some() {
        // Faulted runs always drive the heap: the wheel's `DeliverRun`
        // batching assumes one letter per run and pairwise-distinct
        // receiver slots, which corruption and duplication break. Sound
        // because the two schedulers are pinned bit-identical.
        run_heap_loop(ex, adversary, config, observer, snap, seed, &mut layer)
    } else {
        match config.scheduler {
            SchedulerKind::BinaryHeap => {
                run_heap_loop(ex, adversary, config, observer, snap, seed, &mut layer)
            }
            SchedulerKind::CalendarWheel => {
                run_wheel_loop(ex, adversary, config, observer, snap, seed, &mut layer)
            }
        }
    };
    if let Some(out) = fout {
        *out = Some(layer.tally);
    }
    result
}

/// The queue-side remainder of a decoded async snapshot: the serialized
/// event backlog and the loop-owned global counters. The loops seed their
/// queue from the backlog *instead of* the per-node initial step events.
struct AsyncSeed {
    backlog: Vec<BacklogEvent>,
    events: u64,
    seq: u64,
}

/// The preserved binary-heap event loop: one heap entry per delivery,
/// `O(log m)` per push/pop. Kept as the oracle the wheel is differentially
/// tested against, and as the benchmark baseline.
fn run_heap_loop<P: Fsm, A: Adversary + ?Sized, O: AsyncObserver<P::State>>(
    mut ex: Exec<'_, P>,
    adversary: &A,
    config: &AsyncConfig,
    observer: &mut O,
    snap: &SnapArgs<'_, P::State>,
    resume: Option<AsyncSeed>,
    faults: &mut FaultLayer<'_>,
) -> Result<(AsyncOutcome, Vec<P::State>), ExecError> {
    let n = ex.graph.node_count();
    let mut seq = 0u64;
    let mut events = 0u64;
    let mut heap: BinaryHeap<Reverse<Event>> = BinaryHeap::new();
    let push = |heap: &mut BinaryHeap<Reverse<Event>>, seq: &mut u64, time: f64, kind| {
        heap.push(Reverse(Event {
            time,
            seq: *seq,
            kind,
        }));
        *seq += 1;
    };

    match resume {
        Some(seed) => {
            for e in seed.backlog {
                heap.push(Reverse(Event {
                    time: e.time,
                    seq: e.seq,
                    kind: match e.kind {
                        BacklogKind::Step { node, .. } => HeapKind::Step(node),
                        BacklogKind::Deliver {
                            node, slot, letter, ..
                        } => HeapKind::Deliver { node, slot, letter },
                    },
                }));
            }
            events = seed.events;
            seq = seed.seq;
        }
        None => {
            for v in 0..n as NodeId {
                let l = ex.step_length(adversary, v, 1);
                push(&mut heap, &mut seq, l, HeapKind::Step(v));
            }
        }
    }

    let mut arrivals: Vec<f64> = Vec::new();
    let mut fan: Vec<(NodeId, u32, f64, Letter)> = Vec::new();
    let mut completion_time = None;
    while let Some(Reverse(event)) = heap.pop() {
        events += 1;
        if events > config.max_events {
            return Err(ExecError::EventLimit {
                limit: config.max_events,
                unfinished: ex.unfinished,
            });
        }
        match event.kind {
            HeapKind::Deliver { node, slot, letter } => {
                ex.deliver(node, slot as usize, letter);
            }
            HeapKind::Step(v) => {
                let vi = v as usize;
                let (t, emission) = ex.apply_step(v);

                if let Some(letter) = emission {
                    ex.messages_sent += 1;
                    ex.compute_arrivals(adversary, v, t, event.time, &mut arrivals);
                    match faults.ctx {
                        Some(ctx) if ctx.affects_sender(v) => {
                            faulted_sends(
                                ctx,
                                &mut faults.tally,
                                ex.graph,
                                &mut ex.last_arrival,
                                v,
                                t,
                                &arrivals,
                                letter,
                                &mut fan,
                            );
                            for &(u, slot, arrival, l) in &fan {
                                push(
                                    &mut heap,
                                    &mut seq,
                                    arrival,
                                    HeapKind::Deliver {
                                        node: u,
                                        slot,
                                        letter: l,
                                    },
                                );
                            }
                        }
                        _ => {
                            let nbrs = ex.graph.neighbors(v);
                            let rev = ex.graph.reverse_ports(v);
                            for (k, (&u, &rp)) in nbrs.iter().zip(rev).enumerate() {
                                // The receiver-side flat slot, via the
                                // precomputed reverse-port map.
                                let slot = (ex.graph.csr_offset(u) + rp as usize) as u32;
                                push(
                                    &mut heap,
                                    &mut seq,
                                    arrivals[k],
                                    HeapKind::Deliver {
                                        node: u,
                                        slot,
                                        letter,
                                    },
                                );
                            }
                        }
                    }
                }

                observer.on_step(event.time, v, t, &ex.states[vi]);

                if ex.unfinished == 0 {
                    completion_time = Some(event.time);
                    break;
                }

                ex.step_counts[vi] = t + 1;
                let l = ex.step_length(adversary, v, t + 1);
                push(&mut heap, &mut seq, event.time + l, HeapKind::Step(v));

                if snap.every > 0 && ex.total_steps.is_multiple_of(snap.every) {
                    let backlog = heap
                        .iter()
                        .map(|Reverse(e)| BacklogEvent {
                            time: e.time,
                            seq: e.seq,
                            kind: match e.kind {
                                HeapKind::Step(node) => BacklogKind::Step { node, inc: 0 },
                                HeapKind::Deliver { node, slot, letter } => BacklogKind::Deliver {
                                    node,
                                    slot,
                                    letter,
                                    inc: 0,
                                },
                            },
                        })
                        .collect();
                    ex.checkpoint(snap, events, seq, None, faults.capture(), backlog, observer);
                }
            }
        }
    }

    let completion_time = completion_time.expect(
        "event queue cannot drain before an output configuration: every \
         unfinished node always has a pending step event",
    );
    Ok(ex.outcome(completion_time))
}

/// The calendar-wheel event loop: O(1) amortized scheduling, and runs of
/// same-arrival deliveries of one broadcast drain as a single batched
/// flat-write pass. Bit-identical to [`run_heap_loop`] per seed.
fn run_wheel_loop<P: Fsm, A: Adversary + ?Sized, O: AsyncObserver<P::State>>(
    mut ex: Exec<'_, P>,
    adversary: &A,
    config: &AsyncConfig,
    observer: &mut O,
    snap: &SnapArgs<'_, P::State>,
    resume: Option<AsyncSeed>,
    faults: &mut FaultLayer<'_>,
) -> Result<(AsyncOutcome, Vec<P::State>), ExecError> {
    // Faulted runs are routed to the heap loop by `exec_async`.
    debug_assert!(faults.ctx.is_none());
    let n = ex.graph.node_count();
    let width = choose_bucket_width(adversary, ex.graph, config.bucket_width);
    let mut wheel: CalendarQueue<WheelKind> = CalendarQueue::new(width);
    let mut seq = 0u64;
    let mut events = 0u64;

    match resume {
        Some(seed) => {
            // The snapshot backlog carries each delivery individually with
            // its exact `(time, seq)`, so re-pushing them (no runs) drains
            // in the same order — a run's grouped drain and its expanded
            // per-letter events gather into the identical batch.
            for e in seed.backlog {
                let kind = match e.kind {
                    BacklogKind::Step { node, .. } => WheelKind::Step(node),
                    BacklogKind::Deliver {
                        node, slot, letter, ..
                    } => WheelKind::Deliver { node, slot, letter },
                };
                wheel.push(e.time, e.seq, kind);
            }
            events = seed.events;
            seq = seed.seq;
        }
        None => {
            for v in 0..n as NodeId {
                let l = ex.step_length(adversary, v, 1);
                wheel.push(l, seq, WheelKind::Step(v));
                seq += 1;
            }
        }
    }

    let mut arrivals: Vec<f64> = Vec::new();
    let mut completion_time = None;
    // Per-receiver coalescing scratch: `batch` gathers the maximal run of
    // consecutive same-instant delivery events (across senders), `held`
    // parks the one event popped past the run's end, `deltas` is the
    // count-merge scratch of `deliver_grouped`.
    let mut held: Option<(f64, u64, WheelKind)> = None;
    let mut batch: Vec<(NodeId, u32, Letter)> = Vec::new();
    let mut group: Vec<(u32, Letter)> = Vec::new();
    let mut deltas: Vec<(u16, i64)> = Vec::new();
    while let Some((time, _, kind)) = held.take().or_else(|| wheel.pop()) {
        match kind {
            WheelKind::Deliver { .. } | WheelKind::DeliverRun { .. } => {
                // Gather every consecutive delivery event at exactly this
                // instant, then apply them grouped by receiver: arrivals
                // of *different* broadcasts colliding on one node merge
                // their pending-flag and count updates into one pass.
                // Deliveries never change `unfinished` and the budget is
                // counted per delivery as it is gathered, so hitting the
                // event limit mid-batch reports exactly what the heap
                // path's per-letter pops would have; and because same-
                // instant deliveries always hit distinct slots (per-edge
                // FIFO), the grouped application is bit-identical.
                batch.clear();
                let mut next = Some(kind);
                while let Some(kind) = next.take() {
                    match kind {
                        WheelKind::Deliver { node, slot, letter } => {
                            events += 1;
                            if events > config.max_events {
                                return Err(ExecError::EventLimit {
                                    limit: config.max_events,
                                    unfinished: ex.unfinished,
                                });
                            }
                            batch.push((node, slot, letter));
                        }
                        WheelKind::DeliverRun {
                            v,
                            from,
                            len,
                            letter,
                        } => {
                            let nbrs = ex.graph.neighbors(v);
                            let rev = ex.graph.reverse_ports(v);
                            for k in from as usize..(from + len) as usize {
                                events += 1;
                                if events > config.max_events {
                                    return Err(ExecError::EventLimit {
                                        limit: config.max_events,
                                        unfinished: ex.unfinished,
                                    });
                                }
                                let u = nbrs[k];
                                let slot = (ex.graph.csr_offset(u) + rev[k] as usize) as u32;
                                batch.push((u, slot, letter));
                            }
                        }
                        WheelKind::Step(_) => unreachable!("steps never enter a delivery batch"),
                    }
                    if let Some((t2, s2, k2)) = wheel.pop() {
                        if t2 == time && !matches!(k2, WheelKind::Step(_)) {
                            next = Some(k2);
                        } else {
                            held = Some((t2, s2, k2));
                        }
                    }
                }
                if let [(node, slot, letter)] = batch[..] {
                    ex.deliver(node, slot as usize, letter);
                } else {
                    batch.sort_unstable_by_key(|&(node, slot, _)| (node, slot));
                    let mut i = 0;
                    while i < batch.len() {
                        let node = batch[i].0;
                        let mut j = i + 1;
                        while j < batch.len() && batch[j].0 == node {
                            j += 1;
                        }
                        if j - i == 1 {
                            ex.deliver(node, batch[i].1 as usize, batch[i].2);
                        } else {
                            group.clear();
                            group.extend(
                                batch[i..j].iter().map(|&(_, slot, letter)| (slot, letter)),
                            );
                            ex.deliver_grouped(node, &group, &mut deltas);
                        }
                        i = j;
                    }
                }
            }
            WheelKind::Step(v) => {
                events += 1;
                if events > config.max_events {
                    return Err(ExecError::EventLimit {
                        limit: config.max_events,
                        unfinished: ex.unfinished,
                    });
                }
                let vi = v as usize;
                let (t, emission) = ex.apply_step(v);

                if let Some(letter) = emission {
                    ex.messages_sent += 1;
                    ex.compute_arrivals(adversary, v, t, time, &mut arrivals);
                    // Partition the broadcast into maximal runs of equal
                    // arrival time (bitwise-equal f64s — the adversary's
                    // latency schedule lands directly in shared buckets).
                    // A run of length `r` occupies `r` contiguous seqs, so
                    // its single event sorts exactly where the heap path's
                    // `r` per-letter events would, and nothing can
                    // interleave them.
                    let nbrs = ex.graph.neighbors(v);
                    let rev = ex.graph.reverse_ports(v);
                    let deg = nbrs.len();
                    let mut k = 0usize;
                    while k < deg {
                        let arrival = arrivals[k];
                        let mut end = k + 1;
                        while end < deg && arrivals[end] == arrival {
                            end += 1;
                        }
                        let run = (end - k) as u32;
                        if run == 1 {
                            let slot = (ex.graph.csr_offset(nbrs[k]) + rev[k] as usize) as u32;
                            wheel.push(
                                arrival,
                                seq,
                                WheelKind::Deliver {
                                    node: nbrs[k],
                                    slot,
                                    letter,
                                },
                            );
                        } else {
                            wheel.push(
                                arrival,
                                seq,
                                WheelKind::DeliverRun {
                                    v,
                                    from: k as u32,
                                    len: run,
                                    letter,
                                },
                            );
                        }
                        seq += run as u64;
                        k = end;
                    }
                }

                observer.on_step(time, v, t, &ex.states[vi]);

                if ex.unfinished == 0 {
                    completion_time = Some(time);
                    break;
                }

                ex.step_counts[vi] = t + 1;
                let l = ex.step_length(adversary, v, t + 1);
                wheel.push(time + l, seq, WheelKind::Step(v));
                seq += 1;

                if snap.every > 0 && ex.total_steps.is_multiple_of(snap.every) {
                    // `held` is provably `None` here: it is taken at the
                    // loop head and only re-set inside the delivery-batch
                    // arm, so the wheel holds the complete backlog. Runs
                    // are expanded into per-letter deliveries with their
                    // exact consecutive seqs — the snapshot bytes are
                    // identical to the heap scheduler's.
                    debug_assert!(held.is_none());
                    let mut backlog = Vec::new();
                    for (time, seq, kind) in wheel.entries() {
                        match *kind {
                            WheelKind::Step(node) => backlog.push(BacklogEvent {
                                time,
                                seq,
                                kind: BacklogKind::Step { node, inc: 0 },
                            }),
                            WheelKind::Deliver { node, slot, letter } => {
                                backlog.push(BacklogEvent {
                                    time,
                                    seq,
                                    kind: BacklogKind::Deliver {
                                        node,
                                        slot,
                                        letter,
                                        inc: 0,
                                    },
                                })
                            }
                            WheelKind::DeliverRun {
                                v,
                                from,
                                len,
                                letter,
                            } => {
                                let nbrs = ex.graph.neighbors(v);
                                let rev = ex.graph.reverse_ports(v);
                                for (i, k) in (from as usize..(from + len) as usize).enumerate() {
                                    let u = nbrs[k];
                                    let slot = (ex.graph.csr_offset(u) + rev[k] as usize) as u32;
                                    backlog.push(BacklogEvent {
                                        time,
                                        seq: seq + i as u64,
                                        kind: BacklogKind::Deliver {
                                            node: u,
                                            slot,
                                            letter,
                                            inc: 0,
                                        },
                                    });
                                }
                            }
                        }
                    }
                    ex.checkpoint(snap, events, seq, None, faults.capture(), backlog, observer);
                }
            }
        }
    }

    let completion_time = completion_time.expect(
        "event queue cannot drain before an output configuration: every \
         unfinished node always has a pending step event",
    );
    Ok(ex.outcome(completion_time))
}

/// Events of the churn-aware heap loop: like [`HeapKind`], plus the
/// receiver/stepper **incarnation** the event was enqueued under. A crash
/// bumps its node's incarnation, so every in-flight letter addressed to
/// the pre-crash node and every pending step of it goes stale and is
/// dropped on pop — exactly the "crash drops in-flight letters" semantics
/// — without purging the queue.
#[derive(Clone, Copy, Debug)]
enum ChurnKind {
    /// Node applies its next transition (if its incarnation still matches).
    Step(NodeId, u32),
    /// A letter lands at `slot` of `node` (if the incarnation matches and
    /// the slot is alive).
    Deliver {
        node: NodeId,
        slot: u32,
        letter: Letter,
        inc: u32,
    },
}

/// The asynchronous engine under a churn plan. Boundaries are expressed
/// in **absolute time**: the event stamped with round `r` applies at time
/// `t = r`, before any queue event with time ≥ `t` is processed (and
/// between same-instant events deterministically — the boundary always
/// wins the tie). Always drives a binary-heap loop regardless of
/// [`AsyncConfig::scheduler`]: the calendar wheel's batched
/// `DeliverRun` events resolve receiver slots lazily against a port map
/// assumed static for the run, an assumption churn breaks; the heap pays
/// `O(log m)` but needs no such invariant. In-flight letters crossing an
/// edge-delete boundary bounce off the tombstoned slot; letters in
/// flight across a delete + re-insert window do land (the channel was
/// re-established before arrival).
#[allow(clippy::too_many_arguments)]
pub(crate) fn exec_async_churn<P, A, O>(
    protocol: &P,
    base: &Graph,
    inputs: &[usize],
    adversary: &A,
    config: &AsyncConfig,
    plan: &crate::churn::ChurnPlan,
    observer: &mut O,
    snap: &SnapArgs<'_, P::State>,
    faults: FaultsArg<'_>,
) -> Result<(AsyncOutcome, Vec<P::State>, crate::churn::ChurnSummary), ExecError>
where
    P: Fsm,
    A: Adversary + ?Sized,
    O: AsyncObserver<P::State>,
{
    use crate::churn::{ChurnCtl, DEAD_OUTPUT};
    use crate::engine::TOMBSTONE;

    let universe = plan.universe(base).map_err(|e| ExecError::Config {
        reason: format!("churn plan: {e}"),
    })?;
    let n = universe.node_count();
    debug_assert_eq!(inputs.len(), n, "the builder validates input length");
    assert!(
        u32::try_from(universe.port_slot_count()).is_ok(),
        "universe graph has {} directed port slots, exceeding the async engine's u32 slot addressing",
        universe.port_slot_count()
    );

    let (fctx, fout) = compile_faults(faults, &universe, protocol.alphabet().len())?;
    let mut ctl = ChurnCtl::new(plan, base, &universe, protocol.initial_letter())?;
    let mut seq = 0u64;
    let mut events = 0u64;
    let mut heap: BinaryHeap<Reverse<Event2>> = BinaryHeap::new();
    let mut tally = FaultSummary::default();
    let (mut ex, mut incarnation) = match snap.resume {
        Some(s) => {
            let mut res = snapshot::decode_async(s, &snap.codec(), n, universe.port_slot_count())?;
            if res.faults.is_some() != fctx.is_some() {
                return Err(ExecError::Snapshot(SnapshotError::DigestMismatch {
                    field: "snapshot body kind",
                }));
            }
            tally = res.faults.unwrap_or_default();
            let Some((incarnation, cursor)) = res.churn.take() else {
                return Err(ExecError::Snapshot(SnapshotError::DigestMismatch {
                    field: "snapshot body kind",
                }));
            };
            // The restored store already reflects the setup patches and
            // every boundary up to the cursor; only the overlay replica,
            // effectiveness counters, and cursor need rebuilding.
            ctl.fast_forward(&universe, cursor)?;
            for e in std::mem::take(&mut res.backlog) {
                let kind = match e.kind {
                    BacklogKind::Step { node, inc } => ChurnKind::Step(node, inc),
                    BacklogKind::Deliver {
                        node,
                        slot,
                        letter,
                        inc,
                    } => ChurnKind::Deliver {
                        node,
                        slot,
                        letter,
                        inc,
                    },
                };
                heap.push(Reverse(Event2 {
                    time: e.time,
                    seq: e.seq,
                    kind,
                }));
            }
            events = res.events;
            seq = res.seq;
            (Exec::from_resume(protocol, &universe, res), incarnation)
        }
        None => {
            let mut ex = Exec::new(protocol, &universe, inputs, config.seed);
            ctl.setup(&mut ex.ports);
            for v in 0..n as NodeId {
                let l = ex.step_length(adversary, v, 1);
                heap.push(Reverse(Event2 {
                    time: l,
                    seq,
                    kind: ChurnKind::Step(v, 0),
                }));
                seq += 1;
            }
            (ex, vec![0u32; n])
        }
    };

    let mut layer = FaultLayer::new(fctx.as_ref(), tally);
    let mut arrivals: Vec<f64> = Vec::new();
    let mut fan: Vec<(NodeId, u32, f64, Letter)> = Vec::new();
    let mut now = 0.0f64;
    let completion_time;
    'run: loop {
        let head = heap.pop();
        let horizon = head.as_ref().map_or(f64::INFINITY, |Reverse(e)| e.time);
        // Apply every boundary due at or before the next queue event
        // (or, with a drained queue, the next boundary outright — all
        // live nodes may be gone while a restart is still scheduled).
        while ctl.peek_round().is_some_and(|r| (r as f64) <= horizon) {
            let tb = ctl.peek_round().unwrap() as f64;
            now = now.max(tb);
            let (ev, effective) = ctl.apply_next(&universe);
            if !effective {
                continue;
            }
            match ev {
                stoneage_graph::TopologyEvent::Crash(v) => {
                    let vi = v as usize;
                    incarnation[vi] += 1;
                    if protocol.output(&ex.states[vi]).is_none() {
                        ex.unfinished -= 1;
                    }
                }
                stoneage_graph::TopologyEvent::Restart(v) => {
                    let vi = v as usize;
                    incarnation[vi] += 1;
                    ex.states[vi] = protocol.restart_state(inputs[vi]);
                    if protocol.output(&ex.states[vi]).is_none() {
                        ex.unfinished += 1;
                    }
                    let t = ex.step_counts[vi];
                    let l = ex.step_length(adversary, v, t);
                    heap.push(Reverse(Event2 {
                        time: tb + l,
                        seq,
                        kind: ChurnKind::Step(v, incarnation[vi]),
                    }));
                    seq += 1;
                }
                _ => {}
            }
            // A patched slot never carries a stale pending mark: retired
            // slots have no observable letter, revived ones hold σ₀ as a
            // fresh registration would.
            for p in ctl.patches() {
                ex.pending[p.slot as usize] = false;
            }
            ctl.patch_ports(&universe, &mut ex.ports);
            if ex.unfinished == 0 && ctl.exhausted() {
                completion_time = tb;
                break 'run;
            }
        }
        let Some(Reverse(event)) = head else {
            unreachable!(
                "the queue cannot drain while the run is incomplete: every \
                 live node always has a pending step event and pending \
                 boundaries are applied on a drained queue"
            );
        };
        now = event.time;
        events += 1;
        if events > config.max_events {
            return Err(ExecError::EventLimit {
                limit: config.max_events,
                unfinished: ex.unfinished,
            });
        }
        match event.kind {
            ChurnKind::Deliver {
                node,
                slot,
                letter,
                inc,
            } => {
                // Stale incarnation: the letter was in flight toward a
                // node that crashed; tombstoned slot: the edge (or the
                // receiver) is currently down. Either way the letter is
                // dropped without delivery accounting.
                if inc == incarnation[node as usize]
                    && ex.ports.letter_at(slot as usize) != TOMBSTONE
                {
                    ex.deliver(node, slot as usize, letter);
                }
            }
            ChurnKind::Step(v, inc) => {
                let vi = v as usize;
                if inc != incarnation[vi] {
                    // A pre-crash step of a crashed (possibly since
                    // restarted) node: dropped, not rescheduled — the
                    // restart boundary scheduled the fresh incarnation's
                    // first step.
                    continue;
                }
                let (t, emission) = ex.apply_step(v);

                if let Some(letter) = emission {
                    ex.messages_sent += 1;
                    ex.compute_arrivals(adversary, v, t, event.time, &mut arrivals);
                    match layer.ctx {
                        Some(ctx) if ctx.affects_sender(v) => {
                            faulted_sends(
                                ctx,
                                &mut layer.tally,
                                ex.graph,
                                &mut ex.last_arrival,
                                v,
                                t,
                                &arrivals,
                                letter,
                                &mut fan,
                            );
                            for &(u, slot, arrival, l) in &fan {
                                heap.push(Reverse(Event2 {
                                    time: arrival,
                                    seq,
                                    kind: ChurnKind::Deliver {
                                        node: u,
                                        slot,
                                        letter: l,
                                        inc: incarnation[u as usize],
                                    },
                                }));
                                seq += 1;
                            }
                        }
                        _ => {
                            let nbrs = ex.graph.neighbors(v);
                            let rev = ex.graph.reverse_ports(v);
                            for (k, (&u, &rp)) in nbrs.iter().zip(rev).enumerate() {
                                let slot = (ex.graph.csr_offset(u) + rp as usize) as u32;
                                heap.push(Reverse(Event2 {
                                    time: arrivals[k],
                                    seq,
                                    kind: ChurnKind::Deliver {
                                        node: u,
                                        slot,
                                        letter,
                                        inc: incarnation[u as usize],
                                    },
                                }));
                                seq += 1;
                            }
                        }
                    }
                }

                observer.on_step(event.time, v, t, &ex.states[vi]);

                if ex.unfinished == 0 && ctl.exhausted() {
                    completion_time = event.time;
                    break 'run;
                }

                ex.step_counts[vi] = t + 1;
                let l = ex.step_length(adversary, v, t + 1);
                heap.push(Reverse(Event2 {
                    time: event.time + l,
                    seq,
                    kind: ChurnKind::Step(v, inc),
                }));
                seq += 1;

                if snap.every > 0 && ex.total_steps.is_multiple_of(snap.every) {
                    let backlog = heap
                        .iter()
                        .map(|Reverse(e)| BacklogEvent {
                            time: e.time,
                            seq: e.seq,
                            kind: match e.kind {
                                ChurnKind::Step(node, inc) => BacklogKind::Step { node, inc },
                                ChurnKind::Deliver {
                                    node,
                                    slot,
                                    letter,
                                    inc,
                                } => BacklogKind::Deliver {
                                    node,
                                    slot,
                                    letter,
                                    inc,
                                },
                            },
                        })
                        .collect();
                    ex.checkpoint(
                        snap,
                        events,
                        seq,
                        Some((&incarnation, ctl.cursor())),
                        layer.capture(),
                        backlog,
                        observer,
                    );
                }
            }
        }
    }

    if let Some(out) = fout {
        *out = Some(layer.tally);
    }
    let summary = ctl.finish();
    let outputs = ex
        .states
        .iter()
        .zip(&summary.live_nodes)
        .map(|(q, &live)| {
            if live {
                protocol.output(q).expect("live nodes are decided")
            } else {
                protocol.output(q).unwrap_or(DEAD_OUTPUT)
            }
        })
        .collect();
    let time_unit = if ex.max_param > 0.0 {
        ex.max_param
    } else {
        1.0
    };
    let outcome = AsyncOutcome {
        outputs,
        completion_time,
        time_unit,
        normalized_time: completion_time / time_unit,
        total_steps: ex.total_steps,
        messages_sent: ex.messages_sent,
        deliveries: ex.deliveries,
        lost_overwrites: ex.lost_overwrites,
    };
    Ok((outcome, ex.states, summary))
}

/// The event record of the churn heap loop — [`Event`] with the
/// incarnation-stamped [`ChurnKind`].
#[derive(Clone, Copy, Debug)]
struct Event2 {
    time: f64,
    seq: u64,
    kind: ChurnKind,
}

impl PartialEq for Event2 {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}

impl Eq for Event2 {}

impl PartialOrd for Event2 {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Event2 {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.time
            .total_cmp(&other.time)
            .then(self.seq.cmp(&other.seq))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::{Exponential, Lockstep, SlowEdges, SlowNodes, UniformRandom};
    use crate::sim::Simulation;
    use crate::SyncConfig;
    use stoneage_core::MultiFsm;
    use stoneage_core::{
        Alphabet, AsMulti, Synchronized, TableProtocol, TableProtocolBuilder, Transitions,
    };
    use stoneage_graph::generators;

    // In-crate builder twins (testkit's harness links the other build of
    // this crate; see the note in `sync_exec`'s tests).

    /// Builder twin of the legacy `run_async`.
    fn run_async<P: Fsm, A: Adversary + ?Sized>(
        protocol: &P,
        graph: &Graph,
        adversary: &A,
        config: &AsyncConfig,
    ) -> Result<AsyncOutcome, ExecError> {
        let mut options = crate::AsyncOptions::new(&adversary).with_scheduler(config.scheduler);
        options.bucket_width = config.bucket_width;
        Simulation::asynchronous(protocol, graph, &adversary)
            .seed(config.seed)
            .budget(config.max_events)
            .backend(crate::Backend::Async(options))
            .run()
            .map(|o| o.into_async_outcome().expect("async backend"))
    }

    /// Builder twin of the legacy `run_async_with_inputs`.
    fn run_async_with_inputs<P: Fsm, A: Adversary + ?Sized>(
        protocol: &P,
        graph: &Graph,
        inputs: &[usize],
        adversary: &A,
        config: &AsyncConfig,
    ) -> Result<AsyncOutcome, ExecError> {
        Simulation::asynchronous(protocol, graph, &adversary)
            .seed(config.seed)
            .budget(config.max_events)
            .inputs(inputs)
            .run()
            .map(|o| o.into_async_outcome().expect("async backend"))
    }

    /// Builder twin of the legacy `run_sync`.
    fn run_sync<P>(
        protocol: &P,
        graph: &Graph,
        config: &SyncConfig,
    ) -> Result<crate::SyncOutcome, ExecError>
    where
        P: MultiFsm + Sync,
        P::State: Send + Sync,
    {
        Simulation::sync(protocol, graph)
            .seed(config.seed)
            .budget(config.max_rounds)
            .run()
            .map(|o| o.into_sync_outcome().expect("sync backend"))
    }

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

    #[test]
    fn lockstep_async_matches_sync_for_unsynchronized_protocol() {
        let g = generators::star(6);
        let p = count_neighbors(3);
        let sync_out = run_sync(&AsMulti(p.clone()), &g, &SyncConfig::seeded(1)).unwrap();
        let async_out = run_async(&p, &g, &Lockstep, &AsyncConfig::seeded(1)).unwrap();
        assert_eq!(async_out.outputs, sync_out.outputs);
    }

    #[test]
    fn unsynchronized_protocol_breaks_under_asynchrony() {
        // The raw counting protocol relies on synchrony; an adversarial
        // schedule derails it (this is exactly why Theorem 3.1 exists): a
        // node whose two steps both fire before any beep is delivered
        // observes 0 neighbors.
        let g = generators::star(8);
        let p = count_neighbors(3);
        let reference = run_async(&p, &g, &Lockstep, &AsyncConfig::seeded(0))
            .unwrap()
            .outputs;
        let mut any_diff = false;
        for seed in 0..20 {
            let adv = Exponential { seed, mean: 0.5 };
            let out = run_async(&p, &g, &adv, &AsyncConfig::seeded(seed)).unwrap();
            if out.outputs != reference {
                any_diff = true;
                break;
            }
        }
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
        let p = Synchronized::new(count_neighbors(3));
        let mut expected = vec![1 + 3u64]; // center, degree 4 truncated to ≥3
        expected.extend(std::iter::repeat_n(1 + 1, 4));
        for (i, adv) in crate::adversary::standard_panel(7).iter().enumerate() {
            let out = run_async(&p, &g, adv, &AsyncConfig::seeded(100 + i as u64)).unwrap();
            assert_eq!(out.outputs, expected, "adversary {}", adv.name());
            assert!(out.normalized_time > 0.0);
            assert!(out.time_unit > 0.0);
        }
    }

    #[test]
    fn async_execution_is_deterministic_per_seeds() {
        let g = generators::gnp(20, 0.2, 3);
        let p = Synchronized::new(count_neighbors(2));
        let adv = UniformRandom { seed: 5 };
        let a = run_async(&p, &g, &adv, &AsyncConfig::seeded(9)).unwrap();
        let b = run_async(&p, &g, &adv, &AsyncConfig::seeded(9)).unwrap();
        assert_eq!(a.outputs, b.outputs);
        assert_eq!(a.completion_time, b.completion_time);
        assert_eq!(a.total_steps, b.total_steps);
    }

    #[test]
    fn schedulers_agree_regardless_of_bucket_width() {
        // Pathological explicit widths (one giant bucket; every event past
        // the wheel horizon) must not change a single outcome field.
        let g = generators::gnp(18, 0.25, 2);
        let p = Synchronized::new(count_neighbors(2));
        let adv = UniformRandom { seed: 8 };
        let heap = run_async(
            &p,
            &g,
            &adv,
            &AsyncConfig::seeded(3).with_scheduler(SchedulerKind::BinaryHeap),
        )
        .unwrap();
        for width in [None, Some(1e9), Some(1e-9), Some(0.37)] {
            let cfg = AsyncConfig {
                bucket_width: width,
                ..AsyncConfig::seeded(3)
            };
            let wheel = run_async(&p, &g, &adv, &cfg).unwrap();
            assert_eq!(wheel.outputs, heap.outputs, "width {width:?}");
            assert_eq!(
                wheel.completion_time, heap.completion_time,
                "width {width:?}"
            );
            assert_eq!(wheel.total_steps, heap.total_steps, "width {width:?}");
            assert_eq!(wheel.deliveries, heap.deliveries, "width {width:?}");
            assert_eq!(
                wheel.lost_overwrites, heap.lost_overwrites,
                "width {width:?}"
            );
        }
    }

    #[test]
    fn event_limit_is_reported() {
        let g = generators::path(4);
        let p = Synchronized::new(count_neighbors(1));
        let adv = UniformRandom { seed: 1 };
        for scheduler in [SchedulerKind::CalendarWheel, SchedulerKind::BinaryHeap] {
            let err = run_async(
                &p,
                &g,
                &adv,
                &AsyncConfig {
                    max_events: 50,
                    ..AsyncConfig::seeded(0).with_scheduler(scheduler)
                },
            )
            .unwrap_err();
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
        let g = generators::cycle(6);
        let p = Synchronized::new(count_neighbors(1));
        let base = UniformRandom { seed: 2 };
        let a = run_async(&p, &g, &base, &AsyncConfig::seeded(4)).unwrap();
        let b = run_async(&p, &g, &Scaled(base, 100.0), &AsyncConfig::seeded(4)).unwrap();
        assert!((a.normalized_time - b.normalized_time).abs() < 1e-6);
        assert!((b.completion_time / a.completion_time - 100.0).abs() < 1e-3);
    }

    #[test]
    fn lost_overwrites_occur_on_slow_receivers() {
        // A very slow receiver cannot observe every message of a fast
        // sender; the no-buffer semantics must register losses.
        let g = generators::path(2);
        let p = Synchronized::new(count_neighbors(1));
        let adv = SlowNodes {
            seed: 3,
            fraction: 0.5,
            factor: 50.0,
        };
        let out = run_async(&p, &g, &adv, &AsyncConfig::seeded(8)).unwrap();
        // Not asserting a specific count — just exercising the path; with
        // factor 50 some loss is overwhelmingly likely but not certain.
        assert!(out.deliveries > 0);
    }

    #[test]
    fn isolated_nodes_complete_alone() {
        let g = stoneage_graph::Graph::empty(4);
        let p = Synchronized::new(count_neighbors(2));
        let adv = Exponential { seed: 1, mean: 0.3 };
        let out = run_async(&p, &g, &adv, &AsyncConfig::seeded(0)).unwrap();
        assert_eq!(out.outputs, vec![1, 1, 1, 1]);
    }

    #[test]
    fn slow_edges_still_converge() {
        let g = generators::complete(5);
        let p = Synchronized::new(count_neighbors(3));
        let adv = SlowEdges {
            seed: 6,
            fraction: 0.3,
            factor: 20.0,
        };
        let out = run_async(&p, &g, &adv, &AsyncConfig::seeded(2)).unwrap();
        assert_eq!(out.outputs, vec![4, 4, 4, 4, 4]);
    }

    #[test]
    fn input_mismatch_is_reported() {
        let g = generators::path(3);
        let p = count_neighbors(1);
        let err =
            run_async_with_inputs(&p, &g, &[0], &Lockstep, &AsyncConfig::default()).unwrap_err();
        assert!(matches!(err, ExecError::InputLengthMismatch { .. }));
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
        let _ = run_async(
            &p,
            &g,
            &NanDelay,
            &AsyncConfig::seeded(0).with_scheduler(SchedulerKind::BinaryHeap),
        );
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn misbehaving_adversary_delay_is_caught_on_wheel() {
        let g = generators::path(2);
        let p = Synchronized::new(count_neighbors(1));
        let _ = run_async(
            &p,
            &g,
            &NanDelay,
            &AsyncConfig::seeded(0).with_scheduler(SchedulerKind::CalendarWheel),
        );
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "finite and positive")]
    fn misbehaving_adversary_step_length_is_caught() {
        let g = generators::path(2);
        let p = Synchronized::new(count_neighbors(1));
        let _ = run_async(&p, &g, &ZeroStep, &AsyncConfig::seeded(0));
    }

    #[test]
    fn chosen_bucket_width_is_positive_and_scales_with_rate() {
        let small = generators::gnp(20, 0.2, 1);
        let large = generators::gnp(2000, 4.0 / 2000.0, 1);
        let adv = UniformRandom { seed: 4 };
        let ws = choose_bucket_width(&adv, &small, None);
        let wl = choose_bucket_width(&adv, &large, None);
        assert!(ws > 0.0 && ws.is_finite());
        assert!(wl > 0.0 && wl.is_finite());
        // More nodes and edges → denser event stream → narrower buckets.
        assert!(wl < ws);
        // Explicit override wins.
        assert_eq!(choose_bucket_width(&adv, &small, Some(0.125)), 0.125);
    }
}
