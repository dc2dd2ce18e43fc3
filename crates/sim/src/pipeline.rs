//! The shared **round pipeline** of the lockstep executors.
//!
//! Before this module, the synchronous and scoped executors each carried
//! two hand-rolled transcriptions of the same round loop (serial and
//! parallel — four loops total), and every scheduling improvement had to
//! be made four times. The pipeline extracts the loop once, parameterized
//! over the two things that actually differ:
//!
//! * **the per-node step** — how a node transitions and how its emission
//!   resolves into deliveries (a broadcast for `MultiFsm`, the
//!   port-select draw plus witness record for
//!   [`crate::scoped::ScopedMultiFsm`]); and
//! * **the delivery strategy** — where resolved writes land: a serial
//!   replay buffer, or the per-worker destination-sharded
//!   [`crate::parbuf::DeliveryBuffer`]s merged under the policy's
//!   [`crate::parbuf::MergeStrategy`].
//!
//! Every path executes on the epoch-split [`PortPlanes`] store: phase 1
//! of round *r* observes the frozen read plane, phase-2 deliveries land
//! on the write plane, and the plane swap at the round boundary is a
//! pure epoch flip (see the [`crate::engine`] docs for the no-copy
//! argument).
//!
//! # One join per round: the fused schedule
//!
//! The parallel pipeline runs in one of two modes
//! ([`crate::parbuf::RoundMode`]):
//!
//! * **Joined** — the historical schedule: one worker scope for
//!   phase 1 + 2a, a join, then the phase-2b merge (itself a second
//!   scope under the destination-sharded strategy). Two joins per round.
//! * **Fused** — phase 2b of round *r* is deferred into the worker scope
//!   of round *r + 1*: each worker takes the
//!   [`crate::engine::PlaneShard`] for its own node range, first lands
//!   every buffer's bucket destined to that shard (the write plane of
//!   the previous epoch), freezes the shard into the read plane, and
//!   runs phase 1 + 2a of the new round against it. **Exactly one scope
//!   join per round.**
//!
//! Fused is bit-identical to Joined (and hence to the serial engines)
//! because nothing observable moves:
//!
//! * a node's observation reads only its own count row and CSR slots,
//!   both inside the worker's own shard — which that worker brought up
//!   to date before its first read, so every phase-1 observation of
//!   round *r* sees exactly the end-of-round-*r − 1* store;
//! * scoped target draws read only the sender's own ports (same shard)
//!   and consume the sender's private RNG stream in the same
//!   transition-then-target order;
//! * the deferred buckets replay in fixed worker order per shard, the
//!   same order the joined merge uses, and per-round slot uniqueness +
//!   commutative counts make the landed bytes order-independent anyway
//!   (the [`crate::parbuf`] argument);
//! * rounds end on the same undecided-counter zero crossing, and a
//!   terminal round's unlanded buffers are discarded in both modes
//!   (the store is dead once outputs are collected).
//!
//! The differential matrices in `tests/flat_engine.rs` and
//! `tests/scoped_parallel.rs` pin `Fused ≡ Joined ≡ serial` across
//! worker counts, merge strategies, and graph families, and the pinned
//! fingerprint constants are unchanged from their pre-pipeline values.
//!
//! # Who runs a chunk: the work-stealing schedule
//!
//! Orthogonal to the round mode, [`crate::parbuf::ChunkScheduler`]
//! picks how phase 1 + 2a is dealt to workers. `Static` hands each
//! worker its own [`crate::parbuf::ShardPlan`] chunk — zero scheduling
//! cost, but a hub-heavy chunk serializes the round. `Stealing` cuts
//! each shard into [`crate::parbuf::ChunkPlan`] descriptors seeded onto
//! the owning worker's deque (shard-to-worker pinning: a worker starts
//! on exactly the senders whose phase-2b shard it lands under the fused
//! schedule), pops its own deque front-first, and when dry steals from
//! the back of the longest other deque.
//!
//! Stealing is bit-identical to the static schedule because the round's
//! data flow is schedule-free (the [`crate::parbuf`] module docs give
//! the full argument): every node reads only the frozen plane and its
//! private RNG, every write is bucketed by *destination* shard in
//! whichever worker's buffer resolved it, and both merges replay
//! buckets in an order independent of who filled them. The one
//! schedule-dependent artifact — the order scoped witnesses are
//! recorded in — is repaired after the join: each chunk records into
//! its own witness, and the chunk witnesses are absorbed in ascending
//! chunk index (= ascending sender order, the serial transcript).
//! Under [`RoundMode::Fused`] the per-worker plane shards live behind
//! `RwLock`s: each worker write-locks its own shard to land + freeze
//! it, a barrier separates landing from observation, and tasks then
//! read-lock the (frozen) shard their senders live in — a task only
//! ever reads its own shard, so the locks never contend with writers.
//!
//! # Quiescent nodes are not stepped
//!
//! The paper's protocols end in silent sinks, and long stretches of a
//! run leave most nodes parked in a silent self-loop (a delayed MIS
//! node, a colored tree node). `node_round` therefore skips a node
//! when
//!
//! * its last executed step drew from a **single-choice** set (no RNG
//!   draw), emitted `ε`, and left its state unchanged — the *quiet*
//!   mark; and
//! * none of its port counts has changed since — the *changed* mark,
//!   set by the engine on every count-row mutation of a quiet node
//!   (landing, the sharded merge, fault writes, churn retire/revive;
//!   see the [`crate::engine`] docs) — and nothing but δ has written
//!   its state since (a churn restart clears *quiet*).
//!
//! The skip is exact. δ reads only `(q, f_b(counts))` and is a pure
//! function of them (the contract on `MultiFsm::delta` and
//! [`crate::scoped::ScopedMultiFsm::delta`]), so re-running the step
//! would return the same single choice: no RNG draw, no emission (hence
//! no delivery, no fault decision, no scoped witness, no message), the
//! same state (hence no undecided-counter change). Skipping it changes
//! no byte of the run, which is why the skip has no switch: the pinned
//! fingerprints, the reference-engine differential tests and the
//! serial ≡ parallel matrices all run through it. Because it lives in
//! `node_round`, every schedule — serial, joined, fused, stealing,
//! churn, scoped — inherits it. The marks start cleared on fresh and
//! resumed runs alike, so the first round of any run steps every node.
//!
//! # Scratch reuse
//!
//! All per-round scratch lives for the whole run and is cleared, not
//! reallocated: the serial write buffer, the per-worker
//! [`crate::parbuf::DeliveryBuffer`]s, the per-worker [`ObsVec`]s
//! (previously rebuilt every round inside the worker closures), and the
//! per-worker witness vectors (drained into the run-level witness each
//! round).

use rand::rngs::SmallRng;
use stoneage_core::{Letter, ObsVec};
use stoneage_graph::{Graph, NodeId};

use crate::engine::{FlatPorts, PlaneShard, PortPlanes};
#[cfg(feature = "parallel")]
use crate::faults::FaultSink;
use crate::faults::{FaultLayer, FaultSummary};
#[cfg(feature = "parallel")]
use crate::parbuf::{
    self, ChunkPlan, ChunkScheduler, DeliveryBuffer, ParallelPolicy, RoundMode, ShardPlan,
    StealStats,
};
use crate::scoped::ScopedDelivery;
use crate::snapshot::{encode_lockstep, LockstepCapture, SnapPlumb};
use crate::sync_exec::SyncObserver;

/// Read access to a frozen plane: the observation surface phase 1 and
/// the scoped target draws run against, plus the node's own skip marks.
/// Implemented by the whole-store read plane ([`FlatPorts`]) and by a
/// worker's own frozen [`PlaneShard`].
pub(crate) trait PortRead {
    /// Refills `obs` with `f_b` of node `v`'s exact per-letter counts.
    fn refill_obs(&self, v: usize, obs: &mut ObsVec, b: u8);
    /// The exact count of `letter` over `v`'s ports.
    fn count(&self, v: usize, letter: Letter) -> u32;
    /// Node `v`'s ports as a slice.
    fn ports_of(&self, graph: &Graph, v: NodeId) -> &[Letter];
    /// Whether `v` may skip this round (module docs).
    fn is_quiescent(&self, v: usize) -> bool;
    /// Records `v`'s executed step and whether it was quiet.
    fn note_step(&self, v: usize, quiet: bool);
}

impl PortRead for FlatPorts {
    #[inline]
    fn refill_obs(&self, v: usize, obs: &mut ObsVec, b: u8) {
        FlatPorts::refill_obs(self, v, obs, b)
    }
    #[inline]
    fn count(&self, v: usize, letter: Letter) -> u32 {
        FlatPorts::count(self, v, letter)
    }
    #[inline]
    fn ports_of(&self, graph: &Graph, v: NodeId) -> &[Letter] {
        FlatPorts::ports_of(self, graph, v)
    }
    #[inline]
    fn is_quiescent(&self, v: usize) -> bool {
        FlatPorts::is_quiescent(self, v)
    }
    #[inline]
    fn note_step(&self, v: usize, quiet: bool) {
        FlatPorts::note_step(self, v, quiet)
    }
}

impl PortRead for PlaneShard<'_> {
    #[inline]
    fn refill_obs(&self, v: usize, obs: &mut ObsVec, b: u8) {
        PlaneShard::refill_obs(self, v, obs, b)
    }
    #[inline]
    fn count(&self, v: usize, letter: Letter) -> u32 {
        PlaneShard::count(self, v, letter)
    }
    #[inline]
    fn ports_of(&self, graph: &Graph, v: NodeId) -> &[Letter] {
        PlaneShard::ports_of(self, graph, v)
    }
    #[inline]
    fn is_quiescent(&self, v: usize) -> bool {
        PlaneShard::is_quiescent(self, v)
    }
    #[inline]
    fn note_step(&self, v: usize, quiet: bool) {
        PlaneShard::note_step(self, v, quiet)
    }
}

/// Where phase-2a resolution lands its writes. Deliveries must never
/// touch the port store directly — they are applied (or merged) only
/// after every node of the round has observed and resolved against the
/// frozen read plane.
pub(crate) trait DeliverySink {
    /// Buffers the full broadcast of `letter` from `v` through the
    /// reverse-port map, counting one non-`ε` transmission.
    fn broadcast(&mut self, graph: &Graph, v: NodeId, letter: Letter);
    /// Buffers a single delivery to `u` at absolute flat `slot`.
    fn send_one(&mut self, u: NodeId, slot: usize, letter: Letter);
    /// Counts one non-`ε` transmission without buffering any delivery —
    /// the fault layer decomposes a covered broadcast into per-port
    /// [`DeliverySink::send_one`] decisions but the transmission itself
    /// still happened (the fault is on the channel, not the sender).
    fn note_sent(&mut self);
}

/// The serial delivery strategy: one flat `(receiver, slot, letter)`
/// buffer replayed onto the write plane at the end of the round
/// ([`PortPlanes::land_serial`]). Cleared and reused across rounds.
#[derive(Default)]
pub(crate) struct SerialWrites {
    pub(crate) writes: Vec<(u32, u32, Letter)>,
    pub(crate) sent: u64,
}

impl SerialWrites {
    pub(crate) fn begin_round(&mut self) {
        self.writes.clear();
        self.sent = 0;
    }
}

impl DeliverySink for SerialWrites {
    #[inline]
    fn broadcast(&mut self, graph: &Graph, v: NodeId, letter: Letter) {
        self.sent += 1;
        let nbrs = graph.neighbors(v);
        let rev = graph.reverse_ports(v);
        for (&u, &rp) in nbrs.iter().zip(rev) {
            self.writes
                .push((u, (graph.csr_offset(u) + rp as usize) as u32, letter));
        }
    }
    #[inline]
    fn send_one(&mut self, u: NodeId, slot: usize, letter: Letter) {
        self.writes.push((u, slot as u32, letter));
    }
    #[inline]
    fn note_sent(&mut self) {
        self.sent += 1;
    }
}

/// The parallel delivery strategy: a worker-private [`DeliveryBuffer`]
/// bucketed by destination shard.
#[cfg(feature = "parallel")]
pub(crate) struct ShardedSink<'a> {
    pub(crate) buffer: &'a mut DeliveryBuffer,
    pub(crate) plan: &'a ShardPlan,
}

#[cfg(feature = "parallel")]
impl DeliverySink for ShardedSink<'_> {
    #[inline]
    fn broadcast(&mut self, graph: &Graph, v: NodeId, letter: Letter) {
        self.buffer.broadcast(graph, self.plan, v, letter);
    }
    #[inline]
    fn send_one(&mut self, u: NodeId, slot: usize, letter: Letter) {
        self.buffer.push(self.plan, u, slot, letter);
    }
    #[inline]
    fn note_sent(&mut self) {
        self.buffer.sent += 1;
    }
}

/// The per-protocol half of the pipeline: how one node transitions and
/// how its emission resolves into deliveries. One implementation per
/// lockstep transition flavor (`MultiFsm` in `sync_exec`,
/// `ScopedMultiFsm` in `scoped`); the pipeline supplies the loop, the
/// scheduling, and the undecided-counter bookkeeping around it.
pub(crate) trait RoundStep {
    /// Per-node protocol state.
    type State: Clone + Eq;
    /// What phase 1 records for phase-2a resolution.
    type Emission: Copy;
    /// Run-level extra output accumulated in sender order (the scoped
    /// delivery transcript; `()` for plain sync).
    type Witness: Default;

    /// The observation bound `b` of the protocol.
    fn bound(&self) -> u8;
    /// Whether `q` is an output state (drives the undecided counter).
    fn decided(&self, q: &Self::State) -> bool;
    /// The state a crashed node is reborn into when a churn plan
    /// restarts it (delegates to `Protocol::restart_state`; only the
    /// churn drivers call this).
    fn restart_state(&self, input: usize) -> Self::State;
    /// Phase 1 of one node: transition from the frozen observation,
    /// consuming the node's RNG stream exactly as the legacy engines
    /// did. The flag is `true` iff δ offered a single choice (so no
    /// draw was made).
    fn transition(
        &self,
        q: &Self::State,
        obs: &ObsVec,
        rng: &mut SmallRng,
    ) -> (Self::State, Self::Emission, bool);
    /// Whether `emission` is `ε`: it resolves to no delivery and draws
    /// nothing.
    fn silent(emission: &Self::Emission) -> bool;
    /// Phase 2a of one node: resolve the emission against the frozen
    /// plane into `sink` (and `witness`), consuming any target draws
    /// from the node's own RNG stream.
    #[allow(clippy::too_many_arguments)]
    fn resolve<Pr: PortRead, Sk: DeliverySink>(
        &self,
        round: u64,
        v: NodeId,
        emission: Self::Emission,
        graph: &Graph,
        ports: &Pr,
        rng: &mut SmallRng,
        sink: &mut Sk,
        witness: &mut Self::Witness,
    );
    /// Drains `from` (one worker's per-round witness) into `into` — the
    /// round-major, worker-order concatenation that reproduces the
    /// serial witness order. (Only the parallel schedules split the
    /// witness per worker; the serial pipeline writes into the run-level
    /// witness directly.)
    #[cfg_attr(not(feature = "parallel"), allow(dead_code))]
    fn absorb(into: &mut Self::Witness, from: &mut Self::Witness);
    /// The scoped-delivery transcript inside `witness`, if this flavor
    /// records one — serialized into boundary snapshots and restored on
    /// resume (`None` for plain sync, whose witness is `()`).
    fn witness_slice(witness: &Self::Witness) -> Option<&[ScopedDelivery]>;
}

/// Why a pipeline run ended.
pub(crate) enum RoundEnd {
    /// Every node reached an output state after `rounds` rounds.
    Done {
        /// Rounds until the first output configuration.
        rounds: u64,
        /// Total non-`ε` transmissions.
        sent: u64,
    },
    /// The round budget ran out with `unfinished` nodes undecided.
    Limit {
        /// The configured budget.
        limit: u64,
        /// Nodes not yet in an output state.
        unfinished: usize,
    },
}

/// Emits a boundary checkpoint to the observer when the plumbing's
/// cadence lands on `round`. Called by every lockstep schedule after the
/// round has fully committed — deliveries landed, epoch flipped, witness
/// absorbed, `on_round_end` delivered — and only when the run continues:
/// a terminal round is never checkpointed (the run is over; there is
/// nothing to resume).
#[allow(clippy::too_many_arguments)]
pub(crate) fn boundary_checkpoint<St, O>(
    plumb: &SnapPlumb<St::State>,
    round: u64,
    sent: u64,
    undecided: isize,
    planes: &PortPlanes,
    states: &[St::State],
    rngs: &[SmallRng],
    witness: &St::Witness,
    churn_next: Option<u64>,
    faults: Option<FaultSummary>,
    observer: &mut O,
) where
    St: RoundStep,
    O: SyncObserver<St::State>,
{
    if plumb.every == 0 || !round.is_multiple_of(plumb.every) {
        return;
    }
    let codec = plumb
        .codec
        .expect("active snapshot plumbing always carries a codec");
    let snap = encode_lockstep(
        plumb.meta,
        &codec,
        &LockstepCapture {
            round,
            sent,
            undecided: undecided as u64,
            planes,
            states,
            rngs,
            witness: St::witness_slice(witness),
            churn_next,
            faults,
        },
    );
    observer.on_checkpoint(&snap);
}

/// Phase 1 + 2a of one node against a frozen plane; returns the
/// undecided-counter delta. The single transcription of the per-node
/// round semantics — every schedule (serial, joined, fused, stealing,
/// churn) runs this, and with it the quiescent-node skip (module docs).
#[allow(clippy::too_many_arguments)]
#[inline]
pub(crate) fn node_round<St: RoundStep, Pr: PortRead, Sk: DeliverySink>(
    step: &St,
    graph: &Graph,
    ports: &Pr,
    round: u64,
    v: usize,
    state: &mut St::State,
    rng: &mut SmallRng,
    obs: &mut ObsVec,
    sink: &mut Sk,
    witness: &mut St::Witness,
) -> isize {
    if ports.is_quiescent(v) {
        return 0;
    }
    ports.refill_obs(v, obs, step.bound());
    let (next, emission, single) = step.transition(state, obs, rng);
    ports.note_step(v, single && St::silent(&emission) && next == *state);
    let delta = match (step.decided(state), step.decided(&next)) {
        (false, true) => -1,
        (true, false) => 1,
        _ => 0,
    };
    *state = next;
    step.resolve(
        round,
        v as NodeId,
        emission,
        graph,
        ports,
        rng,
        sink,
        witness,
    );
    delta
}

/// The serial round pipeline: one pass per round over all nodes
/// (phase 1 + 2a fused per node — bit-identical to the legacy two-pass
/// loops because every port read hits the frozen read plane and each
/// node's RNG stream is private), then the buffered writes land on the
/// write plane and the epoch flips.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_serial<St, O>(
    step: &St,
    graph: &Graph,
    planes: &mut PortPlanes,
    states: &mut [St::State],
    rngs: &mut [SmallRng],
    max_rounds: u64,
    observer: &mut O,
    witness: &mut St::Witness,
    plumb: &SnapPlumb<St::State>,
    faults: &mut FaultLayer<'_>,
) -> RoundEnd
where
    St: RoundStep,
    O: SyncObserver<St::State>,
{
    let n = states.len();
    let (start, mut sent, mut undecided) = match &plumb.resume {
        Some(r) => (r.round, r.sent, r.undecided as isize),
        None => (
            0,
            0,
            states.iter().filter(|q| !step.decided(q)).count() as isize,
        ),
    };
    if plumb.resume.is_none() && undecided == 0 {
        return RoundEnd::Done { rounds: 0, sent };
    }
    let mut obs = ObsVec::zeroed(planes.sigma());
    let mut sink = SerialWrites::default();
    for round in start + 1..=max_rounds {
        sink.begin_round();
        {
            let ports = planes.read();
            let mut fsink = faults.sink(&mut sink, round);
            for v in 0..n {
                undecided += node_round(
                    step,
                    graph,
                    ports,
                    round,
                    v,
                    &mut states[v],
                    &mut rngs[v],
                    &mut obs,
                    &mut fsink,
                    witness,
                );
            }
        }
        sent += sink.sent;
        planes.land_serial(&sink.writes);
        observer.on_round_end(round, states);
        if undecided == 0 {
            return RoundEnd::Done {
                rounds: round,
                sent,
            };
        }
        boundary_checkpoint::<St, _>(
            plumb,
            round,
            sent,
            undecided,
            planes,
            states,
            rngs,
            witness,
            None,
            faults.capture(),
            observer,
        );
    }
    RoundEnd::Limit {
        limit: max_rounds,
        unfinished: undecided as usize,
    }
}

/// One unit of stealable phase-1+2a work: a [`ChunkPlan`] descriptor
/// bundled with the disjoint `&mut` windows of the state and RNG arrays
/// it owns. Built fresh each round (the borrows last one scope) and
/// moved between deques; the *data* never moves.
#[cfg(feature = "parallel")]
pub(crate) struct StealTask<'a, S> {
    /// Position in the [`ChunkPlan`] — ascending node order, the key
    /// per-chunk witnesses are re-sorted by after the join.
    pub(crate) index: usize,
    /// First node of the chunk.
    pub(crate) base: usize,
    /// The shard whose deque the task was seeded onto (under the fused
    /// schedule, also the plane shard its senders read).
    pub(crate) shard: usize,
    pub(crate) states: &'a mut [S],
    pub(crate) rngs: &'a mut [SmallRng],
}

/// Deals one [`StealTask`] per chunk onto the owning worker's deque, in
/// ascending node order (so a worker drains its own shard front-to-back
/// — the cache-friendly direction — while thieves take from the back).
#[cfg(feature = "parallel")]
pub(crate) fn seed_deques<'a, S>(
    chunks: &ChunkPlan,
    workers: usize,
    mut states: &'a mut [S],
    mut rngs: &'a mut [SmallRng],
) -> Vec<std::sync::Mutex<std::collections::VecDeque<StealTask<'a, S>>>> {
    let mut deques: Vec<std::collections::VecDeque<StealTask<'a, S>>> = (0..workers)
        .map(|_| std::collections::VecDeque::new())
        .collect();
    for (index, c) in chunks.chunks().iter().enumerate() {
        let (state_c, state_rest) = states.split_at_mut(c.end - c.start);
        let (rng_c, rng_rest) = rngs.split_at_mut(c.end - c.start);
        states = state_rest;
        rngs = rng_rest;
        deques[c.shard].push_back(StealTask {
            index,
            base: c.start,
            shard: c.shard,
            states: state_c,
            rngs: rng_c,
        });
    }
    deques.into_iter().map(std::sync::Mutex::new).collect()
}

/// Worker `w`'s next task: the front of its own deque, or — when dry —
/// the back of the currently longest other deque (`true` marks a
/// steal). Returns `None` once every deque is empty; a lost race with
/// another thief just rescans.
#[cfg(feature = "parallel")]
pub(crate) fn next_task<'a, S>(
    w: usize,
    deques: &[std::sync::Mutex<std::collections::VecDeque<StealTask<'a, S>>>],
) -> Option<(StealTask<'a, S>, bool)> {
    if let Some(t) = deques[w].lock().unwrap().pop_front() {
        return Some((t, false));
    }
    loop {
        let mut best: Option<(usize, usize)> = None;
        for (i, d) in deques.iter().enumerate() {
            if i == w {
                continue;
            }
            let len = d.lock().unwrap().len();
            if len > 0 && best.is_none_or(|(blen, _)| len > blen) {
                best = Some((len, i));
            }
        }
        let (_, victim) = best?;
        if let Some(t) = deques[victim].lock().unwrap().pop_back() {
            return Some((t, true));
        }
    }
}

/// What one stealing worker hands back at the join: its undecided
/// delta, fault tally, per-chunk witnesses (keyed by chunk index for
/// the post-join re-sort), and its steal/chunk counters.
#[cfg(feature = "parallel")]
pub(crate) type StealYield<W> = (isize, FaultSummary, Vec<(usize, W)>, u64, u64);

/// Folds the per-worker [`StealYield`]s into the run accumulators:
/// undecided delta, fault summaries, steal counters, and — the one
/// schedule-dependent artifact stealing creates — the per-chunk
/// witnesses, re-sorted to ascending chunk index (= ascending sender
/// order, the serial transcript) before absorption.
#[cfg(feature = "parallel")]
pub(crate) fn absorb_steal_yields<St: RoundStep>(
    results: Vec<StealYield<St::Witness>>,
    undecided: &mut isize,
    faults: &mut FaultLayer<'_>,
    witness: &mut St::Witness,
    steals: &mut StealStats,
) {
    let mut pairs = Vec::new();
    for (delta, tally, wits, nsteals, nchunks) in results {
        *undecided += delta;
        faults.absorb(&tally);
        steals.steals += nsteals;
        steals.chunks += nchunks;
        pairs.extend(wits);
    }
    pairs.sort_unstable_by_key(|&(i, _)| i);
    for (_, mut w) in pairs {
        St::absorb(witness, &mut w);
    }
}

/// The parallel round pipeline, scheduled per the policy's resolved
/// [`RoundMode`]: `Joined` (phase 1 + 2a scope, join, phase-2b merge —
/// two joins per round) or `Fused` (previous round's phase 2b landed on
/// per-worker plane shards inside the next round's scope — one join per
/// round) — each crossed with the resolved [`ChunkScheduler`] (static
/// shard chunks or work-stealing deques). Bit-identical to
/// [`run_serial`] for every seed, worker count, merge strategy, round
/// mode, and scheduler; only the [`StealStats`] out-param is
/// timing-dependent.
#[cfg(feature = "parallel")]
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_parallel<St, O>(
    step: &St,
    graph: &Graph,
    planes: &mut PortPlanes,
    states: &mut [St::State],
    rngs: &mut [SmallRng],
    policy: &ParallelPolicy,
    max_rounds: u64,
    observer: &mut O,
    witness: &mut St::Witness,
    plumb: &SnapPlumb<St::State>,
    faults: &mut FaultLayer<'_>,
    steals: &mut StealStats,
) -> RoundEnd
where
    St: RoundStep + Sync,
    St::State: Send + Sync,
    St::Witness: Send,
    O: SyncObserver<St::State>,
{
    let (start, mut sent, mut undecided) = match &plumb.resume {
        Some(r) => (r.round, r.sent, r.undecided as isize),
        None => (
            0,
            0,
            states.iter().filter(|q| !step.decided(q)).count() as isize,
        ),
    };
    if plumb.resume.is_none() && undecided == 0 {
        return RoundEnd::Done { rounds: 0, sent };
    }
    let sigma = planes.sigma();
    let plan = ShardPlan::new(graph, policy.resolve_workers());
    let workers = plan.workers();
    // Per-worker scratch, hoisted out of the round loop: cleared and
    // reused across rounds instead of reallocated.
    let mut buffers: Vec<DeliveryBuffer> =
        (0..workers).map(|_| DeliveryBuffer::new(workers)).collect();
    let mut obs: Vec<ObsVec> = (0..workers).map(|_| ObsVec::zeroed(sigma)).collect();
    let mut witnesses: Vec<St::Witness> = (0..workers).map(|_| St::Witness::default()).collect();

    match (policy.resolve_round(), policy.resolve_scheduler()) {
        (RoundMode::Joined, ChunkScheduler::Stealing) => {
            let chunks = ChunkPlan::new(graph, &plan);
            for round in start + 1..=max_rounds {
                let ports = planes.read();
                let fctx = faults.ctx;
                let results: Vec<StealYield<St::Witness>> = {
                    let deques = seed_deques(&chunks, workers, &mut *states, &mut *rngs);
                    let deques = &deques;
                    std::thread::scope(|scope| {
                        let handles: Vec<_> = buffers
                            .iter_mut()
                            .zip(obs.iter_mut())
                            .enumerate()
                            .map(|(w, (buffer, obs))| {
                                let plan = &plan;
                                scope.spawn(move || {
                                    buffer.clear();
                                    let mut sink = ShardedSink { buffer, plan };
                                    let mut ftally = FaultSummary::default();
                                    let mut fsink =
                                        FaultSink::wrap(&mut sink, fctx, round, &mut ftally);
                                    let mut delta = 0isize;
                                    let mut wits = Vec::new();
                                    let (mut nsteals, mut nchunks) = (0u64, 0u64);
                                    while let Some((task, stolen)) = next_task(w, deques) {
                                        nchunks += 1;
                                        nsteals += stolen as u64;
                                        let StealTask {
                                            index,
                                            base,
                                            states: state_c,
                                            rngs: rng_c,
                                            ..
                                        } = task;
                                        let mut wit = St::Witness::default();
                                        for i in 0..state_c.len() {
                                            delta += node_round(
                                                step,
                                                graph,
                                                ports,
                                                round,
                                                base + i,
                                                &mut state_c[i],
                                                &mut rng_c[i],
                                                obs,
                                                &mut fsink,
                                                &mut wit,
                                            );
                                        }
                                        wits.push((index, wit));
                                    }
                                    (delta, ftally, wits, nsteals, nchunks)
                                })
                            })
                            .collect();
                        handles
                            .into_iter()
                            .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
                            .collect()
                    })
                };
                absorb_steal_yields::<St>(results, &mut undecided, faults, witness, steals);
                sent += buffers.iter().map(|b| b.sent).sum::<u64>();
                parbuf::merge(policy.merge, planes.write(), graph, &plan, &buffers);
                planes.advance();
                observer.on_round_end(round, states);
                if undecided == 0 {
                    return RoundEnd::Done {
                        rounds: round,
                        sent,
                    };
                }
                boundary_checkpoint::<St, _>(
                    plumb,
                    round,
                    sent,
                    undecided,
                    planes,
                    states,
                    rngs,
                    witness,
                    None,
                    faults.capture(),
                    observer,
                );
            }
        }
        (RoundMode::Fused, ChunkScheduler::Stealing) => {
            let chunks = ChunkPlan::new(graph, &plan);
            let mut landing = buffers;
            let mut filling: Vec<DeliveryBuffer> =
                (0..workers).map(|_| DeliveryBuffer::new(workers)).collect();
            for round in start + 1..=max_rounds {
                // The plane shards go behind RwLocks so tasks can read
                // whichever (frozen) shard their senders live in; the
                // barrier separates the exclusive land+freeze writes
                // from the shared reads.
                let shard_cells: Vec<std::sync::RwLock<PlaneShard>> = planes
                    .epoch_shards(graph, plan.bounds())
                    .into_iter()
                    .map(std::sync::RwLock::new)
                    .collect();
                let shard_cells = &shard_cells;
                let barrier = std::sync::Barrier::new(workers);
                let barrier = &barrier;
                let landing_ref = &landing;
                let fctx = faults.ctx;
                let results: Vec<StealYield<St::Witness>> = {
                    let deques = seed_deques(&chunks, workers, &mut *states, &mut *rngs);
                    let deques = &deques;
                    std::thread::scope(|scope| {
                        let handles: Vec<_> = filling
                            .iter_mut()
                            .zip(obs.iter_mut())
                            .enumerate()
                            .map(|(w, (buffer, obs))| {
                                let plan = &plan;
                                scope.spawn(move || {
                                    // Deferred phase 2b of the previous
                                    // round, exactly as the static fused
                                    // schedule: this worker owns shard w.
                                    {
                                        let mut shard = shard_cells[w].write().unwrap();
                                        for prev in landing_ref {
                                            for wr in prev.bucket(w) {
                                                shard.land(
                                                    wr.node as usize,
                                                    wr.slot as usize,
                                                    wr.letter,
                                                );
                                            }
                                        }
                                        shard.freeze();
                                    }
                                    barrier.wait();
                                    buffer.clear();
                                    let mut sink = ShardedSink { buffer, plan };
                                    let mut ftally = FaultSummary::default();
                                    let mut fsink =
                                        FaultSink::wrap(&mut sink, fctx, round, &mut ftally);
                                    let mut delta = 0isize;
                                    let mut wits = Vec::new();
                                    let (mut nsteals, mut nchunks) = (0u64, 0u64);
                                    while let Some((task, stolen)) = next_task(w, deques) {
                                        nchunks += 1;
                                        nsteals += stolen as u64;
                                        let StealTask {
                                            index,
                                            base,
                                            shard: task_shard,
                                            states: state_c,
                                            rngs: rng_c,
                                        } = task;
                                        // A task reads only the shard its
                                        // senders live in (observation =
                                        // own count row + slots; scoped
                                        // draws = own ports), all frozen
                                        // behind the barrier.
                                        let shard = shard_cells[task_shard].read().unwrap();
                                        let mut wit = St::Witness::default();
                                        for i in 0..state_c.len() {
                                            delta += node_round(
                                                step,
                                                graph,
                                                &*shard,
                                                round,
                                                base + i,
                                                &mut state_c[i],
                                                &mut rng_c[i],
                                                obs,
                                                &mut fsink,
                                                &mut wit,
                                            );
                                        }
                                        wits.push((index, wit));
                                    }
                                    (delta, ftally, wits, nsteals, nchunks)
                                })
                            })
                            .collect();
                        handles
                            .into_iter()
                            .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
                            .collect()
                    })
                };
                planes.advance();
                std::mem::swap(&mut landing, &mut filling);
                absorb_steal_yields::<St>(results, &mut undecided, faults, witness, steals);
                sent += landing.iter().map(|b| b.sent).sum::<u64>();
                observer.on_round_end(round, states);
                if undecided == 0 {
                    return RoundEnd::Done {
                        rounds: round,
                        sent,
                    };
                }
                if plumb.every > 0 && round % plumb.every == 0 {
                    // Same deferred-phase-2b flush as the static fused
                    // boundary: land this round's buffers serially and
                    // clear them so the next scope lands nothing.
                    let ports = planes.write();
                    for ci in 0..workers {
                        for prev in landing.iter() {
                            for w in prev.bucket(ci) {
                                ports.deliver(w.node as usize, w.slot as usize, w.letter);
                            }
                        }
                    }
                    for b in landing.iter_mut() {
                        b.clear();
                    }
                    boundary_checkpoint::<St, _>(
                        plumb,
                        round,
                        sent,
                        undecided,
                        planes,
                        states,
                        rngs,
                        witness,
                        None,
                        faults.capture(),
                        observer,
                    );
                }
            }
        }
        (RoundMode::Joined, ChunkScheduler::Static) => {
            for round in start + 1..=max_rounds {
                // Phase 1 + 2a, one scope: disjoint &mut chunks over
                // states, RNGs, buffers, and scratch; shared reads of
                // the frozen read plane, the graph, and the fault plan
                // (whose decisions are pure hashes — no shared state).
                let ports = planes.read();
                let fctx = faults.ctx;
                let results: Vec<(isize, FaultSummary)> = std::thread::scope(|scope| {
                    let handles: Vec<_> = plan
                        .chunks_mut(&mut *states)
                        .into_iter()
                        .zip(plan.chunks_mut(&mut *rngs))
                        .zip(buffers.iter_mut())
                        .zip(obs.iter_mut())
                        .zip(witnesses.iter_mut())
                        .enumerate()
                        .map(|(ci, ((((state_c, rng_c), buffer), obs), wit))| {
                            let base = plan.bounds()[ci];
                            let plan = &plan;
                            scope.spawn(move || {
                                buffer.clear();
                                let mut sink = ShardedSink { buffer, plan };
                                let mut ftally = FaultSummary::default();
                                let mut fsink =
                                    FaultSink::wrap(&mut sink, fctx, round, &mut ftally);
                                let mut delta = 0isize;
                                for i in 0..state_c.len() {
                                    delta += node_round(
                                        step,
                                        graph,
                                        ports,
                                        round,
                                        base + i,
                                        &mut state_c[i],
                                        &mut rng_c[i],
                                        obs,
                                        &mut fsink,
                                        wit,
                                    );
                                }
                                (delta, ftally)
                            })
                        })
                        .collect();
                    handles
                        .into_iter()
                        .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
                        .collect()
                });
                undecided += results.iter().map(|&(d, _)| d).sum::<isize>();
                for (_, t) in &results {
                    faults.absorb(t);
                }
                sent += buffers.iter().map(|b| b.sent).sum::<u64>();
                for w in witnesses.iter_mut() {
                    St::absorb(witness, w);
                }
                // Phase 2b: merge the buffers into the write plane (the
                // second join of the round under the sharded strategy).
                parbuf::merge(policy.merge, planes.write(), graph, &plan, &buffers);
                planes.advance();
                observer.on_round_end(round, states);
                if undecided == 0 {
                    return RoundEnd::Done {
                        rounds: round,
                        sent,
                    };
                }
                boundary_checkpoint::<St, _>(
                    plumb,
                    round,
                    sent,
                    undecided,
                    planes,
                    states,
                    rngs,
                    witness,
                    None,
                    faults.capture(),
                    observer,
                );
            }
        }
        (RoundMode::Fused, ChunkScheduler::Static) => {
            // Double-buffered delivery generations: `landing` holds the
            // previous round's buffers (read by every worker during the
            // deferred phase 2b), `filling` receives this round's.
            let mut landing = buffers;
            let mut filling: Vec<DeliveryBuffer> =
                (0..workers).map(|_| DeliveryBuffer::new(workers)).collect();
            for round in start + 1..=max_rounds {
                let shards = planes.epoch_shards(graph, plan.bounds());
                let landing_ref = &landing;
                let fctx = faults.ctx;
                let results: Vec<(isize, FaultSummary)> = std::thread::scope(|scope| {
                    let handles: Vec<_> = shards
                        .into_iter()
                        .zip(plan.chunks_mut(&mut *states))
                        .zip(plan.chunks_mut(&mut *rngs))
                        .zip(filling.iter_mut())
                        .zip(obs.iter_mut())
                        .zip(witnesses.iter_mut())
                        .enumerate()
                        .map(
                            |(ci, (((((mut shard, state_c), rng_c), buffer), obs), wit))| {
                                let base = plan.bounds()[ci];
                                let plan = &plan;
                                scope.spawn(move || {
                                    // Deferred phase 2b of the previous
                                    // round: land every buffer's bucket for
                                    // this worker's shard on the write
                                    // plane, in fixed worker order.
                                    for prev in landing_ref {
                                        for w in prev.bucket(ci) {
                                            shard.land(w.node as usize, w.slot as usize, w.letter);
                                        }
                                    }
                                    // The shard is now this round's frozen
                                    // read plane.
                                    shard.freeze();
                                    buffer.clear();
                                    let mut sink = ShardedSink { buffer, plan };
                                    let mut ftally = FaultSummary::default();
                                    let mut fsink =
                                        FaultSink::wrap(&mut sink, fctx, round, &mut ftally);
                                    let mut delta = 0isize;
                                    for i in 0..state_c.len() {
                                        delta += node_round(
                                            step,
                                            graph,
                                            &shard,
                                            round,
                                            base + i,
                                            &mut state_c[i],
                                            &mut rng_c[i],
                                            obs,
                                            &mut fsink,
                                            wit,
                                        );
                                    }
                                    (delta, ftally)
                                })
                            },
                        )
                        .collect();
                    handles
                        .into_iter()
                        .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
                        .collect()
                });
                // The single join of the round is behind us; flip the
                // epoch and swap the buffer generations.
                planes.advance();
                std::mem::swap(&mut landing, &mut filling);
                undecided += results.iter().map(|&(d, _)| d).sum::<isize>();
                for (_, t) in &results {
                    faults.absorb(t);
                }
                sent += landing.iter().map(|b| b.sent).sum::<u64>();
                for w in witnesses.iter_mut() {
                    St::absorb(witness, w);
                }
                observer.on_round_end(round, states);
                if undecided == 0 {
                    // The terminal round's buffers are never landed: the
                    // store is dead once outputs are collected, so the
                    // bytes the joined schedule's terminal merge writes
                    // are unobservable.
                    return RoundEnd::Done {
                        rounds: round,
                        sent,
                    };
                }
                if plumb.every > 0 && round % plumb.every == 0 {
                    // A fused boundary still owes the store this round's
                    // deliveries — they normally land inside the next
                    // round's scope. Land them now, in the same fixed
                    // worker order per shard, and clear the buffers so
                    // the deferred landing becomes a no-op; per-round
                    // slot uniqueness + commutative counts make the
                    // store bytes identical either way.
                    let ports = planes.write();
                    for ci in 0..workers {
                        for prev in landing.iter() {
                            for w in prev.bucket(ci) {
                                ports.deliver(w.node as usize, w.slot as usize, w.letter);
                            }
                        }
                    }
                    for b in landing.iter_mut() {
                        b.clear();
                    }
                    boundary_checkpoint::<St, _>(
                        plumb,
                        round,
                        sent,
                        undecided,
                        planes,
                        states,
                        rngs,
                        witness,
                        None,
                        faults.capture(),
                        observer,
                    );
                }
            }
        }
    }
    RoundEnd::Limit {
        limit: max_rounds,
        unfinished: undecided as usize,
    }
}
