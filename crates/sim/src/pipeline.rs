//! The **round pipeline** of the lockstep executors: one serial round
//! loop, one parallel round loop, and one executor over both.
//!
//! `exec` runs every lockstep configuration of the [`crate::Simulation`]
//! builder — the Sync and Scoped backends, serial or parallel, with or
//! without churn, message faults and checkpoints. It is parameterized
//! over the three things that actually differ:
//!
//! * **the per-node step** (`RoundStep`) — how a node transitions and
//!   how its emission resolves into deliveries (a broadcast for
//!   `MultiFsm`, the port-select draw plus witness record for
//!   [`crate::scoped::ScopedMultiFsm`]), together with the flavour's RNG
//!   salt, witness kind, snapshot backend byte and outcome detail;
//! * **the delivery strategy** — where resolved writes land: a serial
//!   replay buffer, or the per-worker destination-sharded
//!   [`crate::parbuf::DeliveryBuffer`]s merged under the policy's
//!   [`crate::parbuf::MergeStrategy`];
//! * **the round-boundary hook** (`BoundaryHook`) — what happens
//!   between rounds: the churn controller on churn runs, `()` on
//!   churn-free runs.
//!
//! Every path executes on the epoch-split [`PortPlanes`] store: phase 1
//! of round *r* observes the frozen read plane, phase-2 deliveries land
//! on the write plane, and the plane swap at the round boundary is a
//! pure epoch flip (see the [`crate::engine`] docs for the no-copy
//! argument).
//!
//! # The boundary hook
//!
//! After a round's deliveries have landed and its epoch has flipped, the
//! hook gets the store: the churn controller applies the crash, restart
//! and edge events due after the round (see [`crate::churn`]), resets
//! restarted nodes and keeps the undecided counter. Only then does the
//! observer see the round, and only then is a checkpoint taken. The hook
//! also decides three things inside the loop: which nodes run a round (a
//! crashed node does not, and draws nothing from its RNG), whether the
//! run may end (not while events remain), and the churn cursor a
//! checkpoint records. Its churn-free form is `()`, a zero-sized type
//! whose every answer is a constant: every node runs, nothing is due, the
//! run may end as soon as every node has decided. It costs nothing per
//! node and needs no universe graph.
//!
//! # One join per round: the fused schedule
//!
//! The parallel loop runs in one of two modes
//! ([`crate::parbuf::RoundMode`]):
//!
//! * **Joined** — one worker scope for phase 1 + 2a, a join, then the
//!   phase-2b merge (itself a second scope under the destination-sharded
//!   strategy). Two joins per round.
//! * **Fused** — phase 2b of round *r* is deferred into the worker scope
//!   of round *r + 1*: each worker takes the
//!   [`crate::engine::PlaneShard`] for its own node range, first lands
//!   every buffer's bucket destined to that shard (the write plane of
//!   the previous epoch), freezes the shard into the read plane, and
//!   runs phase 1 + 2a of the new round against it. **Exactly one scope
//!   join per round.**
//!
//! Fused is bit-identical to Joined (and hence to the serial loop)
//! because nothing observable moves:
//!
//! * a node's observation reads only its own count row and CSR slots,
//!   both inside the shard its chunk reads — which that shard's owner
//!   brought up to date before any read, so every phase-1 observation of
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
//!   (the store is dead once outputs are collected);
//! * whenever the store itself is handed out — to the boundary hook, or
//!   to a checkpoint — the deferred buffers are first **flushed**: landed
//!   serially in the same shard-major worker order and cleared, so the
//!   next scope lands nothing. Flush-before-patch is load-bearing under
//!   churn (see [`crate::churn`]).
//!
//! The differential matrices in `tests/flat_engine.rs`,
//! `tests/scoped_parallel.rs`, `tests/churn.rs` and
//! `tests/observer_transcripts.rs` pin `Fused ≡ Joined ≡ serial` across
//! worker counts, merge strategies, graph families and plans, observer
//! calls included.
//!
//! # Who runs a chunk: the work-stealing schedule
//!
//! Orthogonal to the round mode, [`crate::parbuf::ChunkScheduler`]
//! picks how phase 1 + 2a is dealt to workers. Both schedules deal
//! chunk descriptors onto per-worker deques. `Static` deals one chunk
//! per worker — its own [`crate::parbuf::ShardPlan`] shard — and never
//! steals: zero scheduling cost, but a hub-heavy chunk serializes the
//! round. `Stealing` cuts each shard into
//! [`crate::parbuf::ChunkPlan`] descriptors seeded onto the owning
//! worker's deque (shard-to-worker pinning: a worker starts on exactly
//! the senders whose phase-2b shard it lands under the fused schedule),
//! pops its own deque front-first, and when dry steals from the back of
//! the longest other deque.
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
//! Under the fused schedule the per-worker plane shards live behind
//! `RwLock`s: each worker write-locks its own shard to land + freeze
//! it, and tasks then read-lock the (frozen) shard their senders live
//! in. A stolen task may read another worker's shard, so under
//! `Stealing` a barrier separates landing from observation; a static
//! worker reads only its own shard and needs none.
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
//! Per-round scratch lives for the whole run and is cleared, not
//! reallocated: the serial write buffer, the per-worker
//! [`crate::parbuf::DeliveryBuffer`]s, the per-worker [`ObsVec`]s, and
//! the per-worker lists of chunk witnesses (drained into the run-level
//! witness each round).

use rand::rngs::SmallRng;
use rand::SeedableRng;
use stoneage_core::{Letter, ObsVec, Protocol};
use stoneage_graph::{Graph, NodeId};

use crate::churn::{self, ChurnCtl, ChurnSummary, DEAD_OUTPUT};
use crate::engine::{FlatPorts, PlaneShard, PortPlanes};
#[cfg(feature = "parallel")]
use crate::faults::FaultSink;
use crate::faults::{self, FaultCtx, FaultLayer, FaultSummary};
#[cfg(feature = "parallel")]
use crate::parbuf::{self, ChunkPlan, ChunkScheduler, ParallelPolicy, RoundMode, ShardPlan};
use crate::parbuf::{DeliveryBuffer, StealStats};
use crate::scoped::ScopedDelivery;
use crate::sim::{Cost, Detail, Observer, Outcome, Simulation};
use crate::snapshot::{self, encode_lockstep, LockstepCapture, SnapArgs, BODY_KIND};
use crate::{splitmix64, ExecError};

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
struct SerialWrites {
    writes: Vec<(u32, u32, Letter)>,
    sent: u64,
}

impl SerialWrites {
    fn begin_round(&mut self) {
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
struct ShardedSink<'a> {
    buffer: &'a mut DeliveryBuffer,
    plan: &'a ShardPlan,
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

/// The per-flavour half of the pipeline: how one node transitions and
/// how its emission resolves into deliveries, plus what distinguishes
/// the flavour's runs — RNG salt, witness kind, snapshot backend byte
/// and outcome detail. One implementation per lockstep transition
/// flavour (`MultiFsm` in `sync_exec`, `ScopedMultiFsm` in `scoped`);
/// the pipeline supplies the loops, the scheduling, and the
/// undecided-counter bookkeeping around it.
pub(crate) trait RoundStep {
    /// Per-node protocol state.
    type State: Clone + Eq;
    /// The protocol this step runs.
    type Proto: Protocol<State = Self::State>;
    /// What phase 1 records for phase-2a resolution.
    type Emission: Copy;
    /// Run-level extra output accumulated in sender order (the scoped
    /// delivery transcript; `()` for plain sync).
    type Witness: Default;

    /// Salt of the per-node RNG streams: node `v` draws from
    /// `splitmix64(seed ^ splitmix64(v ^ SALT))`, a pure function of
    /// `(seed, node id)` shared by every schedule.
    const SALT: u64;
    /// The backend byte stamped into the flavour's snapshot headers.
    const BACKEND: u8;

    /// The protocol this step runs.
    fn protocol(&self) -> &Self::Proto;
    /// Whether `q` is an output state (drives the undecided counter).
    fn decided(&self, q: &Self::State) -> bool {
        self.protocol().output(q).is_some()
    }
    /// Phase 1 of one node: transition from the frozen observation,
    /// consuming the node's RNG stream. The flag is `true` iff δ offered
    /// a single choice (so no draw was made).
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
    /// Drains `from` (one chunk's per-round witness) into `into` — the
    /// round-major, chunk-order concatenation that reproduces the
    /// serial witness order. (Only the parallel loop splits the witness
    /// per chunk; the serial loop writes into the run-level witness
    /// directly.)
    #[cfg_attr(not(feature = "parallel"), allow(dead_code))]
    fn absorb(into: &mut Self::Witness, from: &mut Self::Witness);
    /// The scoped-delivery transcript inside `witness`, if this flavour
    /// records one — serialized into boundary snapshots.
    fn witness_slice(witness: &Self::Witness) -> Option<&[ScopedDelivery]>;
    /// The witness a resumed run continues from a snapshot's transcript,
    /// or `None` if the snapshot carries the other flavour's witness
    /// kind (it belongs to another backend).
    fn restore_witness(witness: Option<Vec<ScopedDelivery>>) -> Option<Self::Witness>;
    /// The flavour's [`Detail`] of a finished run.
    fn detail(
        witness: Self::Witness,
        sent: u64,
        churn: Option<ChurnSummary>,
        faults: Option<FaultSummary>,
    ) -> Detail;
}

/// The round-boundary hook of the pipeline (module docs): the churn
/// controller on churn runs, `()` on churn-free runs.
pub(crate) trait BoundaryHook {
    /// Whether node `v` takes part in rounds (a crashed node does not).
    fn live(&self, v: usize) -> bool;
    /// Whether a boundary is due after `round`.
    fn due(&self, round: u64) -> bool;
    /// Applies the boundary after `round` (0: before the first round)
    /// to the store, the states and the undecided counter.
    fn apply<St: RoundStep>(
        &mut self,
        round: u64,
        step: &St,
        states: &mut [St::State],
        undecided: &mut isize,
        ports: &mut FlatPorts,
    );
    /// Whether every scheduled boundary has been applied: the run may
    /// end only then.
    fn exhausted(&self) -> bool;
    /// Prepares a fresh store before the first round.
    fn setup(&mut self, ports: &mut FlatPorts);
    /// Restores the hook of a resumed run from the snapshot's cursor,
    /// rejecting a snapshot that carries no cursor when the hook needs
    /// one or carries one when it does not.
    fn resume(&mut self, cursor: Option<u64>) -> Result<(), ExecError>;
    /// The cursor a checkpoint records.
    fn cursor(&self) -> Option<u64>;
    /// What the hook did, for the outcome.
    fn summary(&self) -> Option<ChurnSummary>;
}

impl BoundaryHook for () {
    #[inline]
    fn live(&self, _v: usize) -> bool {
        true
    }
    #[inline]
    fn due(&self, _round: u64) -> bool {
        false
    }
    fn apply<St: RoundStep>(
        &mut self,
        _round: u64,
        _step: &St,
        _states: &mut [St::State],
        _undecided: &mut isize,
        _ports: &mut FlatPorts,
    ) {
    }
    fn exhausted(&self) -> bool {
        true
    }
    fn setup(&mut self, _ports: &mut FlatPorts) {}
    fn resume(&mut self, cursor: Option<u64>) -> Result<(), ExecError> {
        match cursor {
            Some(_) => Err(BODY_KIND.into()),
            None => Ok(()),
        }
    }
    fn cursor(&self) -> Option<u64> {
        None
    }
    fn summary(&self) -> Option<ChurnSummary> {
        None
    }
}

/// The lockstep executor: runs `step`'s protocol as `sim` configures it
/// — serial, or parallel when the policy asks for it; with the churn
/// controller as boundary hook under a churn plan (on the plan's
/// universe graph), with `()` otherwise — and returns the unified
/// outcome. `inputs` are validated by the builder.
pub(crate) fn exec<St, O>(
    step: &St,
    sim: &Simulation<'_, St::Proto>,
    inputs: &[usize],
    snap: SnapArgs<'_, St::State>,
    observer: O,
) -> Result<Outcome<St::Proto>, ExecError>
where
    St: RoundStep + Sync,
    St::State: Send + Sync,
    St::Witness: Send,
    O: Observer<St::State>,
{
    let sigma = step.protocol().alphabet().len();
    match sim.churn {
        None => {
            let fctx = faults::compile(sim.faults, sim.graph, sigma)?;
            lockstep(
                step,
                sim,
                sim.graph,
                inputs,
                snap,
                fctx.as_ref(),
                (),
                observer,
            )
        }
        Some(plan) => {
            let universe = plan.universe(sim.graph).map_err(churn::plan_config)?;
            let fctx = faults::compile(sim.faults, &universe, sigma)?;
            let sigma0 = step.protocol().initial_letter();
            let ctl = ChurnCtl::new(plan, sim.graph, &universe, inputs, sigma0)?;
            lockstep(
                step,
                sim,
                &universe,
                inputs,
                snap,
                fctx.as_ref(),
                ctl,
                observer,
            )
        }
    }
}

/// [`exec`] once the run graph, fault plan and boundary hook are known:
/// starts fresh or splices the resume snapshot in, runs the serial or
/// parallel loop, and builds the outcome.
#[allow(clippy::too_many_arguments)]
fn lockstep<St, H, O>(
    step: &St,
    sim: &Simulation<'_, St::Proto>,
    graph: &Graph,
    inputs: &[usize],
    snap: SnapArgs<'_, St::State>,
    fctx: Option<&FaultCtx>,
    mut hook: H,
    observer: O,
) -> Result<Outcome<St::Proto>, ExecError>
where
    St: RoundStep + Sync,
    St::State: Send + Sync,
    St::Witness: Send,
    H: BoundaryHook + Sync,
    O: Observer<St::State>,
{
    let protocol = step.protocol();
    let sigma = protocol.alphabet().len();
    let (planes, states, rngs, witness, tally, resume) = match snap.resume {
        Some(s) => {
            let splice = snapshot::resume_lockstep(s, &snap.codec(), graph, sigma)?;
            let Some(witness) = St::restore_witness(splice.witness) else {
                return Err(BODY_KIND.into());
            };
            if splice.faults.is_some() != fctx.is_some() {
                return Err(BODY_KIND.into());
            }
            hook.resume(splice.churn_next)?;
            let tally = splice.faults.unwrap_or_default();
            (
                splice.planes,
                splice.states,
                splice.rngs,
                witness,
                tally,
                Some(splice.point),
            )
        }
        None => {
            let mut planes = PortPlanes::new(graph, sigma, protocol.initial_letter());
            hook.setup(planes.write());
            let states = inputs.iter().map(|&i| protocol.initial_state(i)).collect();
            let rngs = (0..graph.node_count() as u64)
                .map(|v| SmallRng::seed_from_u64(splitmix64(sim.seed ^ splitmix64(v ^ St::SALT))))
                .collect();
            (
                planes,
                states,
                rngs,
                St::Witness::default(),
                FaultSummary::default(),
                None,
            )
        }
    };
    let mut run = Lockstep {
        step,
        graph,
        planes,
        states,
        rngs,
        witness,
        hook,
        observer,
        faults: FaultLayer::new(fctx, tally),
        snap,
        sent: 0,
        undecided: 0,
        max_rounds: sim
            .budget
            .unwrap_or(crate::SyncConfig::default().max_rounds),
    };
    let start = match resume {
        Some(point) => {
            run.sent = point.sent;
            run.undecided = point.undecided as isize;
            point.round
        }
        None => {
            run.undecided = run.states.iter().filter(|q| !step.decided(q)).count() as isize;
            // Round-0 events apply before the first observation. A
            // resumed run skips this: its store already includes every
            // boundary up to its round.
            let ports = run.planes.write();
            run.hook
                .apply(0, step, &mut run.states, &mut run.undecided, ports);
            0
        }
    };
    let (done, workers, steals) = 'run: {
        if resume.is_none() && run.undecided == 0 && run.hook.exhausted() {
            break 'run (Some(0), 1, StealStats::default());
        }
        #[cfg(feature = "parallel")]
        {
            let n = sim.graph.node_count();
            if let Some(policy) = sim.policy.filter(|p| !p.use_serial(n)) {
                let mut steals = StealStats::default();
                let done = run_parallel(&mut run, &policy, start, &mut steals);
                // The shard plan clamps to the node count — report what
                // actually runs, not the raw policy value.
                break 'run (done, policy.resolve_workers().min(n.max(1)), steals);
            }
        }
        (run_serial(&mut run, start), 1, StealStats::default())
    };
    let Some(rounds) = done else {
        return Err(ExecError::RoundLimit {
            limit: run.max_rounds,
            unfinished: run.undecided as usize,
        });
    };
    // Crashed nodes are exempt from termination: they report the output
    // they had decided before crashing, or DEAD_OUTPUT.
    let outputs = (run.states.iter().enumerate())
        .map(|(v, q)| match protocol.output(q) {
            Some(out) => out,
            None if run.hook.live(v) => panic!("live nodes are decided at termination"),
            None => DEAD_OUTPUT,
        })
        .collect();
    let detail = St::detail(
        run.witness,
        run.sent,
        run.hook.summary(),
        run.faults.capture(),
    );
    Ok(Outcome {
        outputs,
        states: run.states,
        cost: Cost::Rounds(rounds),
        workers,
        steals,
        detail,
    })
}

/// One lockstep run in progress: everything the round loops read and
/// write besides their own scratch.
struct Lockstep<'a, St: RoundStep, H, O> {
    step: &'a St,
    graph: &'a Graph,
    planes: PortPlanes,
    states: Vec<St::State>,
    rngs: Vec<SmallRng>,
    witness: St::Witness,
    hook: H,
    observer: O,
    faults: FaultLayer<'a>,
    snap: SnapArgs<'a, St::State>,
    /// Non-`ε` transmissions so far.
    sent: u64,
    /// Live nodes not in an output state.
    undecided: isize,
    max_rounds: u64,
}

impl<St, H, O> Lockstep<'_, St, H, O>
where
    St: RoundStep,
    H: BoundaryHook,
    O: Observer<St::State>,
{
    /// Ends round `round` once its deliveries have landed and its epoch
    /// has flipped — except those the fused schedule still defers in
    /// `landing`, which are flushed before the store is handed to the
    /// boundary hook or a checkpoint. Applies the boundary, reports the
    /// round to the observer, and takes a due checkpoint unless the run
    /// is over (there is nothing to resume). Returns whether it is.
    fn end_round(&mut self, round: u64, landing: &mut [DeliveryBuffer]) -> bool {
        if self.hook.due(round) {
            let ports = self.planes.write();
            flush(ports, landing);
            self.hook.apply(
                round,
                self.step,
                &mut self.states,
                &mut self.undecided,
                ports,
            );
        }
        self.observer.on_round_end(round, &self.states);
        if self.undecided == 0 && self.hook.exhausted() {
            return true;
        }
        if self.snap.every > 0 && round.is_multiple_of(self.snap.every) {
            flush(self.planes.write(), landing);
            let snap = encode_lockstep(
                self.snap.meta,
                &self.snap.codec(),
                &LockstepCapture {
                    round,
                    sent: self.sent,
                    undecided: self.undecided as u64,
                    planes: &self.planes,
                    states: &self.states,
                    rngs: &self.rngs,
                    witness: St::witness_slice(&self.witness),
                    churn_next: self.hook.cursor(),
                    faults: self.faults.capture(),
                },
            );
            self.observer.on_checkpoint(&snap);
        }
        false
    }
}

/// Lands the fused schedule's deferred deliveries on the write plane —
/// shard-major, in fixed worker order, the order the next scope would
/// have used — and clears them, so that scope lands nothing. Per-round
/// slot uniqueness + commutative counts make the store bytes identical
/// either way.
fn flush(ports: &mut FlatPorts, landing: &mut [DeliveryBuffer]) {
    for shard in 0..landing.len() {
        for prev in landing.iter() {
            for w in prev.bucket(shard) {
                ports.deliver(w.node as usize, w.slot as usize, w.letter);
            }
        }
    }
    for b in landing.iter_mut() {
        b.clear();
    }
}

/// Phase 1 + 2a of one node against a frozen plane; returns the
/// undecided-counter delta. The single transcription of the per-node
/// round semantics — every schedule (serial, joined, fused, stealing,
/// churn) runs this, and with it the quiescent-node skip (module docs).
#[allow(clippy::too_many_arguments)]
#[inline]
fn node_round<St: RoundStep, Pr: PortRead, Sk: DeliverySink>(
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
    ports.refill_obs(v, obs, step.protocol().bound());
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

/// [`node_round`] over the live nodes among `base..base + states.len()`;
/// returns the summed undecided-counter delta.
#[allow(clippy::too_many_arguments)]
#[inline]
fn run_nodes<St, H, Pr, Sk>(
    step: &St,
    graph: &Graph,
    hook: &H,
    ports: &Pr,
    round: u64,
    base: usize,
    states: &mut [St::State],
    rngs: &mut [SmallRng],
    obs: &mut ObsVec,
    sink: &mut Sk,
    witness: &mut St::Witness,
) -> isize
where
    St: RoundStep,
    H: BoundaryHook,
    Pr: PortRead,
    Sk: DeliverySink,
{
    let mut delta = 0;
    for (i, (state, rng)) in states.iter_mut().zip(rngs).enumerate() {
        if hook.live(base + i) {
            delta += node_round(
                step,
                graph,
                ports,
                round,
                base + i,
                state,
                rng,
                obs,
                sink,
                witness,
            );
        }
    }
    delta
}

/// The serial round loop: one pass per round over all live nodes
/// (phase 1 + 2a fused per node — every port read hits the frozen read
/// plane and each node's RNG stream is private), then the buffered
/// writes land on the write plane, the epoch flips, and the round ends
/// ([`Lockstep::end_round`]). Returns the round the run finished in, or
/// `None` when the budget ran out.
fn run_serial<St, H, O>(run: &mut Lockstep<'_, St, H, O>, start: u64) -> Option<u64>
where
    St: RoundStep,
    H: BoundaryHook,
    O: Observer<St::State>,
{
    let mut obs = ObsVec::zeroed(run.planes.sigma());
    let mut sink = SerialWrites::default();
    for round in start + 1..=run.max_rounds {
        sink.begin_round();
        let mut fsink = run.faults.sink(&mut sink, round);
        run.undecided += run_nodes(
            run.step,
            run.graph,
            &run.hook,
            run.planes.read(),
            round,
            0,
            &mut run.states,
            &mut run.rngs,
            &mut obs,
            &mut fsink,
            &mut run.witness,
        );
        run.sent += sink.sent;
        run.planes.land_serial(&sink.writes);
        if run.end_round(round, &mut []) {
            return Some(round);
        }
    }
    None
}

/// One unit of phase-1+2a work (stealable under the stealing schedule):
/// a [`ChunkPlan`] descriptor bundled with the disjoint `&mut` windows of
/// the state and RNG arrays it owns. Built fresh each round (the borrows last one scope) and
/// moved between deques; the *data* never moves.
#[cfg(feature = "parallel")]
struct StealTask<'a, S> {
    /// Position in the [`ChunkPlan`] — ascending node order, the key
    /// per-chunk witnesses are re-sorted by after the join.
    index: usize,
    /// First node of the chunk.
    base: usize,
    /// The shard whose deque the task was seeded onto (under the fused
    /// schedule, also the plane shard its senders read).
    shard: usize,
    states: &'a mut [S],
    rngs: &'a mut [SmallRng],
}

/// Deals one [`StealTask`] per chunk onto the owning worker's deque, in
/// ascending node order (so a worker drains its own shard front-to-back
/// — the cache-friendly direction — while thieves take from the back).
#[cfg(feature = "parallel")]
fn seed_deques<'a, S>(
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

/// Worker `w`'s next task: the front of its own deque, or — when dry and
/// `steal` is set — the back of the currently longest other deque
/// (`true` marks a steal). Returns `None` once there is nothing left to
/// take; a lost race with another thief just rescans.
#[cfg(feature = "parallel")]
fn next_task<'a, S>(
    w: usize,
    deques: &[std::sync::Mutex<std::collections::VecDeque<StealTask<'a, S>>>],
    steal: bool,
) -> Option<(StealTask<'a, S>, bool)> {
    if let Some(t) = deques[w].lock().unwrap().pop_front() {
        return Some((t, false));
    }
    if !steal {
        return None;
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

/// What one worker hands back at the join: its undecided delta, fault
/// tally, and steal/chunk counters. (Its chunk witnesses go to its own
/// scratch vector.)
#[cfg(feature = "parallel")]
type StealYield = (isize, FaultSummary, u64, u64);

/// The read plane of one parallel round: the whole store (Joined), or
/// one lockable [`PlaneShard`] per worker (Fused).
#[cfg(feature = "parallel")]
enum Plane<'a> {
    Whole(&'a FlatPorts),
    Shards(Vec<std::sync::RwLock<PlaneShard<'a>>>),
}

/// The parallel round loop, scheduled per the policy's resolved
/// [`RoundMode`] (`Joined`: phase 1 + 2a scope, join, phase-2b merge;
/// `Fused`: the previous round's phase 2b landed on per-worker plane
/// shards inside the next round's scope) and [`ChunkScheduler`] (one
/// static shard chunk per worker, or work-stealing deques). The round
/// then ends exactly as on the serial loop ([`Lockstep::end_round`]).
/// Bit-identical to [`run_serial`] for every seed, worker count, merge
/// strategy, round mode, and scheduler; only the [`StealStats`]
/// out-param is timing-dependent.
#[cfg(feature = "parallel")]
fn run_parallel<St, H, O>(
    run: &mut Lockstep<'_, St, H, O>,
    policy: &ParallelPolicy,
    start: u64,
    steals: &mut StealStats,
) -> Option<u64>
where
    St: RoundStep + Sync,
    St::State: Send + Sync,
    St::Witness: Send,
    H: BoundaryHook + Sync,
    O: Observer<St::State>,
{
    let graph = run.graph;
    // Planned once per run. Under churn the graph is the closed
    // universe: churn patches rewrite slots inside the fixed CSR layout,
    // never the slot map, so the slot-balanced bounds stay valid across
    // every boundary (`tests/stealing.rs` pins this).
    let plan = ShardPlan::new(graph, policy.resolve_workers());
    let workers = plan.workers();
    let fused = policy.resolve_round() == RoundMode::Fused;
    let stealing = policy.resolve_scheduler() == ChunkScheduler::Stealing;
    let chunks = if stealing {
        ChunkPlan::new(graph, &plan)
    } else {
        ChunkPlan::per_shard(&plan)
    };
    // Double-buffered delivery generations: `filling` receives this
    // round's writes; under Fused, `landing` holds the previous round's,
    // landed by every worker during the deferred phase 2b.
    let buffers =
        || -> Vec<DeliveryBuffer> { (0..workers).map(|_| DeliveryBuffer::new(workers)).collect() };
    let (mut filling, mut landing) = (buffers(), buffers());
    let mut obs: Vec<ObsVec> = (0..workers)
        .map(|_| ObsVec::zeroed(run.planes.sigma()))
        .collect();
    // Per-worker chunk witnesses keyed by chunk index, and their merge.
    let mut wits: Vec<Vec<(usize, St::Witness)>> = (0..workers).map(|_| Vec::new()).collect();
    let mut sorted: Vec<(usize, St::Witness)> = Vec::new();
    for round in start + 1..=run.max_rounds {
        let results: Vec<StealYield> = {
            let (step, hook, fctx) = (run.step, &run.hook, run.faults.ctx);
            let plane = if fused {
                let shards = run.planes.epoch_shards(graph, plan.bounds());
                Plane::Shards(shards.into_iter().map(std::sync::RwLock::new).collect())
            } else {
                Plane::Whole(run.planes.read())
            };
            let (plane, landing_ref) = (&plane, &landing);
            let barrier = std::sync::Barrier::new(workers);
            let barrier = &barrier;
            let deques = seed_deques(&chunks, workers, &mut run.states, &mut run.rngs);
            let deques = &deques;
            std::thread::scope(|scope| {
                let handles: Vec<_> = filling
                    .iter_mut()
                    .zip(obs.iter_mut())
                    .zip(wits.iter_mut())
                    .enumerate()
                    .map(|(w, ((buffer, obs), wits))| {
                        let plan = &plan;
                        scope.spawn(move || {
                            if let Plane::Shards(cells) = plane {
                                // Deferred phase 2b of the previous round:
                                // this worker owns shard w.
                                let mut shard = cells[w]
                                    .write()
                                    .expect("no worker panics holding a plane shard");
                                for prev in landing_ref {
                                    for wr in prev.bucket(w) {
                                        shard.land(wr.node as usize, wr.slot as usize, wr.letter);
                                    }
                                }
                                shard.freeze();
                                drop(shard);
                                if stealing {
                                    barrier.wait();
                                }
                            }
                            buffer.clear();
                            let mut sink = ShardedSink { buffer, plan };
                            let mut tally = FaultSummary::default();
                            let mut fsink = FaultSink::wrap(&mut sink, fctx, round, &mut tally);
                            let mut delta = 0isize;
                            let (mut nsteals, mut nchunks) = (0u64, 0u64);
                            while let Some((task, stolen)) = next_task(w, deques, stealing) {
                                nchunks += stealing as u64;
                                nsteals += stolen as u64;
                                let mut wit = St::Witness::default();
                                let (base, states, rngs) = (task.base, task.states, task.rngs);
                                delta += match plane {
                                    Plane::Whole(ports) => run_nodes(
                                        step, graph, hook, *ports, round, base, states, rngs, obs,
                                        &mut fsink, &mut wit,
                                    ),
                                    // A task reads only the shard its senders
                                    // live in (observation = own count row +
                                    // slots; scoped draws = own ports), frozen
                                    // by now.
                                    Plane::Shards(cells) => run_nodes(
                                        step,
                                        graph,
                                        hook,
                                        &*cells[task.shard]
                                            .read()
                                            .expect("no worker panics holding a plane shard"),
                                        round,
                                        base,
                                        states,
                                        rngs,
                                        obs,
                                        &mut fsink,
                                        &mut wit,
                                    ),
                                };
                                wits.push((task.index, wit));
                            }
                            (delta, tally, nsteals, nchunks)
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
                    .collect()
            })
        };
        for (delta, tally, nsteals, nchunks) in results {
            run.undecided += delta;
            run.faults.absorb(&tally);
            steals.steals += nsteals;
            steals.chunks += nchunks;
        }
        // The one schedule-dependent artifact stealing creates: the chunk
        // witnesses, re-sorted to ascending chunk index (= ascending
        // sender order, the serial transcript) before absorption.
        sorted.extend(wits.iter_mut().flat_map(|w| w.drain(..)));
        sorted.sort_unstable_by_key(|&(i, _)| i);
        for (_, mut w) in sorted.drain(..) {
            St::absorb(&mut run.witness, &mut w);
        }
        if fused {
            // The single join of the round is behind us: flip the epoch
            // and swap the buffer generations.
            run.planes.advance();
            std::mem::swap(&mut landing, &mut filling);
            run.sent += landing.iter().map(|b| b.sent).sum::<u64>();
        } else {
            // Phase 2b: merge the buffers into the write plane (the
            // second join of the round under the sharded strategy).
            run.sent += filling.iter().map(|b| b.sent).sum::<u64>();
            parbuf::merge(policy.merge, run.planes.write(), graph, &plan, &filling);
            run.planes.advance();
        }
        if run.end_round(round, &mut landing) {
            // A fused terminal round's buffers are never landed: the
            // store is dead once outputs are collected.
            return Some(round);
        }
    }
    None
}
