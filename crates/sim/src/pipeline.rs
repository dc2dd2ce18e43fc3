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
//! Every path executes on one [`FlatPorts`] store, split in time: phase 1
//! of round *r* reads it frozen, and round *r*'s deliveries land only
//! after the round's last read (see the [`crate::engine`] docs for why
//! one copy suffices).
//!
//! # The boundary hook
//!
//! After a round's deliveries have landed, the hook gets the store: the
//! churn controller applies the crash, restart and edge events due after
//! the round (see [`crate::churn`]), resets restarted nodes and keeps
//! the undecided counter. Only then does the observer see the round, and
//! only then is a checkpoint taken. The hook also decides three things
//! inside the loop: which nodes run a round (a crashed node does not,
//! and draws nothing from its RNG), whether the run may end (not while
//! events remain), and the churn cursor a checkpoint records. Its churn-free form is `()`, a zero-sized type
//! whose every answer is a constant: every node runs, nothing is due, the
//! run may end as soon as every node has decided. It costs nothing per
//! node and needs no universe graph.
//!
//! # The parallel round
//!
//! The parallel loop runs phase 1 + 2a of each round in one worker
//! scope. Worker `w` steps the live frontier nodes of its own
//! [`crate::parbuf::ShardPlan`] shard — its window of the state and RNG
//! arrays — against the frozen store, into its own
//! [`crate::parbuf::DeliveryBuffer`] and its own witness, and writes
//! only its own shard's words of next round's frontier. After the join
//! the witnesses are absorbed in worker order, the policy's
//! [`crate::parbuf::MergeStrategy`] lands the buffers on the store (the
//! destination-sharded merge in a scope of its own), and the round ends
//! as on the serial loop. The round is bit-identical to the serial one
//! because nothing observable depends on the threads:
//!
//! * a node reads only the frozen store and its own RNG stream, and
//!   scoped target draws read only the sender's own ports;
//! * every write is bucketed by destination shard in its sender's
//!   buffer, and both merges replay the buckets in fixed worker order
//!   (the [`crate::parbuf`] argument);
//! * shards are contiguous and ascending, so absorbing the per-worker
//!   witnesses in worker order reproduces the serial sender order.
//!
//! The differential matrices in `tests/flat_engine.rs`,
//! `tests/scoped_parallel.rs`, `tests/churn.rs` and
//! `tests/observer_transcripts.rs` pin `parallel ≡ serial` across
//! worker counts, merge strategies, graph families (the hub-heavy
//! skewed ones included) and plans, observer calls included.
//!
//! # Only the frontier is stepped
//!
//! The paper's protocols end in silent sinks, and long stretches of a
//! run leave most nodes parked in a silent self-loop (a delayed MIS
//! node, a colored tree node). A round therefore steps only the live
//! nodes of its **frontier**, in ascending order, and skips the rest. A
//! node is in round *r + 1*'s frontier when
//!
//! * its step in round *r* was not a single silent self-loop: it drew
//!   from more than one choice (an RNG draw), emitted, or changed its
//!   state; or
//! * a count of its changed after that: a landed write (serial landing,
//!   either merge, fault writes) or a churn retire/revive that reported
//!   a change (see the [`crate::engine`] docs); or
//! * something other than δ wrote its state: a churn restart.
//!
//! A node that stays out of the frontier is one whose last step was a
//! single silent self-loop against the counts it still has. The skip is
//! exact. δ reads only `(q, f_b(counts))` and is a pure function of
//! them (the contract on `MultiFsm::delta` and
//! [`crate::scoped::ScopedMultiFsm::delta`]), so re-running the step
//! would return the same single choice: no RNG draw, no emission (hence
//! no delivery, no fault decision, no scoped witness, no message), the
//! same state (hence no undecided-counter change). Skipping it changes
//! no byte of the run, which is why the skip has no switch: the pinned
//! fingerprints, the reference-engine differential tests and the
//! serial ≡ parallel matrices all run through it. `node_round` reports
//! whether its step was a silent self-loop, and every schedule —
//! serial, parallel, churn, scoped — builds the next frontier from that
//! and from the landing, so a round costs O(stepped + deliveries + |V|/64)
//! rather than a pass over every node.
//!
//! The frontier is two bitsets, this round's and next round's, one bit
//! per node (a `Frontier`, after Ligra's vertexSubset: Shun and
//! Blelloch, PPoPP '13). Each [`crate::parbuf::ShardPlan`] shard's bits
//! start at a word boundary, so no word is shared by two shards and a
//! parallel worker or merge shard writes only its own words, with no
//! atomics. Fresh and resumed runs alike start with every bit set, so
//! the first round of any run steps every live node; snapshots carry no
//! frontier.
//!
//! # Scratch reuse
//!
//! Per-round scratch lives for the whole run and is cleared, not
//! reallocated: the serial write buffer, and one `WorkerScratch` per
//! parallel worker holding its [`crate::parbuf::DeliveryBuffer`], its
//! [`ObsVec`] and its witness (drained into the run-level witness each
//! round). Each `WorkerScratch` sits on cache lines of its own, so two
//! workers never write the same line.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use stoneage_core::{BoundedCount, Letter, ObsVec, Protocol};
use stoneage_graph::{Graph, NodeId};

use crate::churn::{self, ChurnCtl, ChurnSummary, DEAD_OUTPUT};
use crate::engine::FlatPorts;
use crate::faults::{self, FaultCtx, FaultLayer, FaultSink, FaultSummary};
use crate::parbuf::{self, DeliveryBuffer, ParallelPolicy, ShardPlan};
use crate::scoped::ScopedDelivery;
use crate::sim::{Cost, Detail, Observer, Outcome, Simulation};
use crate::snapshot::{self, encode_lockstep, LockstepCapture, SnapArgs, BODY_KIND};
use crate::{splitmix64, ExecError};

/// The round budget of a run that sets none.
const MAX_ROUNDS: u64 = 1_000_000;

/// Where phase-2a resolution lands its writes. Deliveries must never
/// touch the port store directly — they are applied (or merged) only
/// after every node of the round has observed and resolved against the
/// frozen store.
pub(crate) trait DeliverySink {
    /// Buffers the full broadcast of `letter` from `v` through the
    /// reverse-slot map, counting one non-`ε` transmission.
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
/// buffer that [`run_serial`] lands on the store at the end of the
/// round. Cleared and reused across rounds.
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
        for (&u, &slot) in graph.neighbors(v).iter().zip(graph.reverse_slots(v)) {
            self.writes.push((u, slot, letter));
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
struct ShardedSink<'a> {
    buffer: &'a mut DeliveryBuffer,
    plan: &'a ShardPlan,
}

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
    /// store into `sink` (and `witness`), consuming any target draws
    /// from the node's own RNG stream.
    #[allow(clippy::too_many_arguments)]
    fn resolve<Sk: DeliverySink>(
        &self,
        round: u64,
        v: NodeId,
        emission: Self::Emission,
        graph: &Graph,
        ports: &FlatPorts,
        rng: &mut SmallRng,
        sink: &mut Sk,
        witness: &mut Self::Witness,
    );
    /// Drains `from` (one worker's per-round witness) into `into` — the
    /// round-major, worker-order concatenation that reproduces the
    /// serial witness order. (Only the parallel loop splits the witness
    /// per worker; the serial loop writes into the run-level witness
    /// directly.)
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
    /// to the store, the states and the undecided counter, putting every
    /// node it restarts or whose counts it changes into next round's
    /// `frontier`.
    fn apply<St: RoundStep>(
        &mut self,
        round: u64,
        step: &St,
        states: &mut [St::State],
        undecided: &mut isize,
        ports: &mut FlatPorts,
        frontier: &mut Frontier,
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
        _frontier: &mut Frontier,
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
    let (ports, states, rngs, witness, tally, resume) = match snap.resume {
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
                splice.ports,
                splice.states,
                splice.rngs,
                witness,
                tally,
                Some(splice.point),
            )
        }
        None => {
            let mut ports = FlatPorts::new(graph, sigma, protocol.initial_letter());
            hook.setup(&mut ports);
            let states = inputs.iter().map(|&i| protocol.initial_state(i)).collect();
            let rngs = (0..graph.node_count() as u64)
                .map(|v| SmallRng::seed_from_u64(splitmix64(sim.seed ^ splitmix64(v ^ St::SALT))))
                .collect();
            (
                ports,
                states,
                rngs,
                St::Witness::default(),
                FaultSummary::default(),
                None,
            )
        }
    };
    let n = sim.graph.node_count();
    let parallel = sim.policy.filter(|p| !p.use_serial(n));
    // Planned once per run. Under churn the graph is the closed
    // universe: churn patches rewrite slots inside the fixed CSR layout,
    // never the slot map, so the slot-balanced bounds stay valid across
    // every boundary (`tests/churn.rs` pins this). A serial run is one
    // shard.
    let plan = ShardPlan::new(graph, parallel.map_or(1, |p| p.resolve_workers()));
    let mut run = Lockstep {
        step,
        graph,
        ports,
        states,
        rngs,
        witness,
        hook,
        observer,
        faults: FaultLayer::new(fctx, tally),
        snap,
        frontier: Frontier::full(plan.bounds()),
        sent: 0,
        undecided: 0,
        max_rounds: sim.budget.unwrap_or(MAX_ROUNDS),
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
            run.hook.apply(
                0,
                step,
                &mut run.states,
                &mut run.undecided,
                &mut run.ports,
                &mut run.frontier,
            );
            0
        }
    };
    let (done, workers) = if resume.is_none() && run.undecided == 0 && run.hook.exhausted() {
        (Some(0), 1)
    } else if let Some(policy) = parallel {
        // The shard plan clamps to the node count — report what actually
        // runs, not the raw policy value.
        let done = run_parallel(&mut run, &policy, &plan, start);
        (done, policy.resolve_workers().min(n.max(1)))
    } else {
        (run_serial(&mut run, start), 1)
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
        detail,
    })
}

/// One lockstep run in progress: everything the round loops read and
/// write besides their own scratch.
struct Lockstep<'a, St: RoundStep, H, O> {
    step: &'a St,
    graph: &'a Graph,
    ports: FlatPorts,
    states: Vec<St::State>,
    rngs: Vec<SmallRng>,
    witness: St::Witness,
    hook: H,
    observer: O,
    faults: FaultLayer<'a>,
    snap: SnapArgs<'a, St::State>,
    /// The nodes the next round steps (module docs).
    frontier: Frontier,
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
    /// Ends round `round` once its deliveries have landed: applies the
    /// boundary, reports the round to the observer, and takes a due
    /// checkpoint unless the run is over (there is nothing to resume).
    /// Returns whether it is.
    fn end_round(&mut self, round: u64) -> bool {
        if self.hook.due(round) {
            self.hook.apply(
                round,
                self.step,
                &mut self.states,
                &mut self.undecided,
                &mut self.ports,
                &mut self.frontier,
            );
        }
        self.observer.on_round_end(round, &self.states);
        if self.undecided == 0 && self.hook.exhausted() {
            return true;
        }
        if self.snap.every > 0 && round.is_multiple_of(self.snap.every) {
            let snap = encode_lockstep(
                self.snap.meta,
                &self.snap.codec(),
                &LockstepCapture {
                    round,
                    sent: self.sent,
                    undecided: self.undecided as u64,
                    ports: &self.ports,
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

/// Phase 1 + 2a of one node against the frozen store. Returns the
/// undecided-counter delta and whether the node must step next round:
/// `false` exactly for a single silent self-loop (module docs). The
/// single transcription of the per-node round semantics — every
/// schedule (serial, parallel, churn) runs this.
#[allow(clippy::too_many_arguments)]
#[inline]
fn node_round<St: RoundStep, Sk: DeliverySink>(
    step: &St,
    graph: &Graph,
    ports: &FlatPorts,
    round: u64,
    v: usize,
    state: &mut St::State,
    rng: &mut SmallRng,
    obs: &mut ObsVec,
    sink: &mut Sk,
    witness: &mut St::Witness,
) -> (isize, bool) {
    ports.refill_obs(v, obs, step.protocol().bound());
    let (next, emission, single) = step.transition(state, obs, rng);
    let busy = !(single && St::silent(&emission) && next == *state);
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
    (delta, busy)
}

/// [`node_round`] over the live nodes of this round's `frontier` shard,
/// in ascending order, keeping each busy one in next round's; returns
/// the summed undecided-counter delta. `states` and `rngs` are the
/// shard's windows.
#[allow(clippy::too_many_arguments)]
#[inline]
fn run_nodes<St, H, Sk>(
    step: &St,
    graph: &Graph,
    hook: &H,
    ports: &FlatPorts,
    round: u64,
    frontier: &mut FrontierShard<'_>,
    states: &mut [St::State],
    rngs: &mut [SmallRng],
    obs: &mut ObsVec,
    sink: &mut Sk,
    witness: &mut St::Witness,
) -> isize
where
    St: RoundStep,
    H: BoundaryHook,
    Sk: DeliverySink,
{
    let base = frontier.base();
    let mut delta = 0;
    frontier.step_each(|v| {
        if !hook.live(v) {
            // A crashed node drops out; its restart puts it back.
            return false;
        }
        let (d, busy) = node_round(
            step,
            graph,
            ports,
            round,
            v,
            &mut states[v - base],
            &mut rngs[v - base],
            obs,
            sink,
            witness,
        );
        delta += d;
        busy
    });
    delta
}

/// The serial round loop: one pass per round over the live frontier
/// nodes (phase 1 + 2a fused per node — every port read hits the frozen
/// store and each node's RNG stream is private), then the buffered
/// writes land and the round ends ([`Lockstep::end_round`]). Returns
/// the round the run finished in, or `None` when the budget ran out.
fn run_serial<St, H, O>(run: &mut Lockstep<'_, St, H, O>, start: u64) -> Option<u64>
where
    St: RoundStep,
    H: BoundaryHook,
    O: Observer<St::State>,
{
    let mut obs = ObsVec::zeroed(run.ports.sigma());
    let mut sink = SerialWrites::default();
    for round in start + 1..=run.max_rounds {
        sink.begin_round();
        run.frontier.advance();
        let mut frontier = run
            .frontier
            .shards()
            .next()
            .expect("a serial run is one shard");
        let mut fsink = FaultSink::new(&mut sink, run.faults.ctx, round, &mut run.faults.tally);
        run.undecided += run_nodes(
            run.step,
            run.graph,
            &run.hook,
            &run.ports,
            round,
            &mut frontier,
            &mut run.states,
            &mut run.rngs,
            &mut obs,
            &mut fsink,
            &mut run.witness,
        );
        run.sent += sink.sent;
        for &(node, slot, letter) in &sink.writes {
            if run.ports.deliver(node as usize, slot as usize, letter) {
                frontier.insert(node as usize);
            }
        }
        if run.end_round(round) {
            return Some(round);
        }
    }
    None
}

/// One parallel worker's round scratch, built once per run. Aligned to
/// 128 bytes (a cache-line pair, which adjacent-line prefetch moves
/// together) so that no two workers' scratch shares a line: each worker
/// writes its buffer's counters and bucket headers, its observation and
/// its witness on every step.
#[repr(align(128))]
struct WorkerScratch<W> {
    obs: ObsVec,
    buffer: DeliveryBuffer,
    witness: W,
}

impl<W: Default> WorkerScratch<W> {
    /// Bytes of spare capacity behind a worker's observation counts, so
    /// that the counts it rewrites on every step sit at least two line
    /// pairs away from any other worker's.
    const OBS_PAD: usize = 256;

    fn new(sigma: usize, shards: usize) -> Self {
        let mut counts = Vec::with_capacity(sigma + Self::OBS_PAD);
        counts.resize(sigma, BoundedCount::zero());
        WorkerScratch {
            obs: ObsVec::new(counts),
            buffer: DeliveryBuffer::new(shards),
            witness: W::default(),
        }
    }
}

/// The parallel round loop (module docs): one worker scope per round in
/// which worker `w` runs phase 1 + 2a over the frontier of its own
/// [`ShardPlan`] shard, then the witness absorb in worker order, the
/// policy's merge and [`Lockstep::end_round`]. Bit-identical to
/// [`run_serial`] for every seed, worker count and merge strategy.
fn run_parallel<St, H, O>(
    run: &mut Lockstep<'_, St, H, O>,
    policy: &ParallelPolicy,
    plan: &ShardPlan,
    start: u64,
) -> Option<u64>
where
    St: RoundStep + Sync,
    St::State: Send + Sync,
    St::Witness: Send,
    H: BoundaryHook + Sync,
    O: Observer<St::State>,
{
    let graph = run.graph;
    let workers = plan.workers();
    let mut scratch: Vec<WorkerScratch<St::Witness>> = (0..workers)
        .map(|_| WorkerScratch::new(run.ports.sigma(), workers))
        .collect();
    for round in start + 1..=run.max_rounds {
        run.frontier.advance();
        let (step, hook, fctx, ports) = (run.step, &run.hook, run.faults.ctx, &run.ports);
        let shards = (plan.chunks_mut(&mut run.states).into_iter())
            .zip(plan.chunks_mut(&mut run.rngs))
            .zip(run.frontier.shards());
        let results: Vec<(isize, FaultSummary)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (scratch.iter_mut().zip(shards))
                .map(|(scratch, ((states, rngs), mut frontier))| {
                    scope.spawn(move || {
                        scratch.buffer.clear();
                        let buffer = &mut scratch.buffer;
                        let mut sink = ShardedSink { buffer, plan };
                        let mut tally = FaultSummary::default();
                        let mut fsink = FaultSink::new(&mut sink, fctx, round, &mut tally);
                        let delta = run_nodes(
                            step,
                            graph,
                            hook,
                            ports,
                            round,
                            &mut frontier,
                            states,
                            rngs,
                            &mut scratch.obs,
                            &mut fsink,
                            &mut scratch.witness,
                        );
                        (delta, tally)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
                .collect()
        });
        for ((delta, tally), scratch) in results.into_iter().zip(&mut scratch) {
            run.undecided += delta;
            run.faults.tally.merge(&tally);
            St::absorb(&mut run.witness, &mut scratch.witness);
        }
        let buffers: Vec<&DeliveryBuffer> = scratch.iter().map(|s| &s.buffer).collect();
        run.sent += buffers.iter().map(|b| b.sent).sum::<u64>();
        parbuf::merge(
            policy.merge,
            &mut run.ports,
            graph,
            plan,
            &buffers,
            &mut run.frontier,
        );
        if run.end_round(round) {
            return Some(round);
        }
    }
    None
}

/// The lockstep step set (module docs, "Only the frontier is stepped"):
/// this round's nodes and next round's, one bit per node. Shard `s` of
/// the plan it is laid out over owns a run of whole words in each set,
/// so two shards never share a word.
pub(crate) struct Frontier {
    /// Shard `s` is the node range `nodes[s]..nodes[s + 1]`.
    nodes: Vec<usize>,
    /// Shard `s`'s bits are words `words[s]..words[s + 1]` of each set;
    /// bit `i` of them is node `nodes[s] + i`.
    words: Vec<usize>,
    /// This round's nodes.
    cur: Vec<u64>,
    /// Next round's nodes.
    next: Vec<u64>,
}

impl Frontier {
    /// A frontier over the shards of the ascending node `bounds` (a
    /// [`ShardPlan`]'s) whose next round is every node: how every fresh
    /// and every resumed run starts.
    pub(crate) fn full(bounds: &[usize]) -> Self {
        let (mut words, mut next) = (vec![0], Vec::new());
        for b in bounds.windows(2) {
            let len = b[1] - b[0];
            next.extend((0..len / 64).map(|_| u64::MAX));
            if len % 64 != 0 {
                next.push((1 << (len % 64)) - 1);
            }
            words.push(next.len());
        }
        Frontier {
            nodes: bounds.to_vec(),
            words,
            cur: vec![0; next.len()],
            next,
        }
    }

    /// Starts a round: next round's nodes become this round's, and next
    /// round's set starts empty.
    pub(crate) fn advance(&mut self) {
        std::mem::swap(&mut self.cur, &mut self.next);
        self.next.fill(0);
    }

    /// Puts node `v` into next round's set.
    pub(crate) fn insert(&mut self, v: usize) {
        let s = self.nodes[1..].partition_point(|&b| b <= v);
        let i = v - self.nodes[s];
        self.next[self.words[s] + i / 64] |= 1 << (i % 64);
    }

    /// One view per shard, in shard order: the shard's words of this
    /// round's set to read and of next round's set to write.
    pub(crate) fn shards(&mut self) -> impl Iterator<Item = FrontierShard<'_>> {
        let cur = &self.cur;
        let mut next = &mut self.next[..];
        (self.nodes.windows(2).zip(self.words.windows(2))).map(move |(b, w)| {
            let (head, tail) = std::mem::take(&mut next).split_at_mut(w[1] - w[0]);
            next = tail;
            FrontierShard {
                base: b[0],
                len: b[1] - b[0],
                cur: &cur[w[0]..w[1]],
                next: head,
            }
        })
    }
}

/// One shard's view of a [`Frontier`] ([`Frontier::shards`]).
pub(crate) struct FrontierShard<'a> {
    base: usize,
    len: usize,
    cur: &'a [u64],
    next: &'a mut [u64],
}

impl FrontierShard<'_> {
    /// The shard's first node.
    pub(crate) fn base(&self) -> usize {
        self.base
    }

    /// Calls `f` on this round's nodes of the shard in ascending order,
    /// putting each node for which it returns `true` into next round's
    /// set.
    #[inline]
    pub(crate) fn step_each(&mut self, mut f: impl FnMut(usize) -> bool) {
        for (w, (&word, next)) in self.cur.iter().zip(self.next.iter_mut()).enumerate() {
            let mut bits = word;
            while bits != 0 {
                let b = bits.trailing_zeros();
                bits &= bits - 1;
                if f(self.base + w * 64 + b as usize) {
                    *next |= 1 << b;
                }
            }
        }
    }

    /// Puts node `v`, which must be the shard's, into next round's set.
    #[inline]
    pub(crate) fn insert(&mut self, v: usize) {
        let i = v - self.base;
        debug_assert!(i < self.len, "node {v} is outside the shard");
        self.next[i / 64] |= 1 << (i % 64);
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Starts a round of `f` and lists its nodes, shard by shard, keeping
    /// none for the next round.
    pub(crate) fn take_round(f: &mut Frontier) -> Vec<usize> {
        f.advance();
        let mut nodes = Vec::new();
        for mut shard in f.shards() {
            shard.step_each(|v| {
                nodes.push(v);
                false
            });
        }
        nodes
    }

    #[test]
    fn a_run_starts_with_every_bit_set() {
        for bounds in [vec![0, 300], vec![0, 64], vec![0, 0, 5, 5, 130]] {
            let mut f = Frontier::full(&bounds);
            let n = *bounds.last().unwrap();
            assert_eq!(take_round(&mut f), (0..n).collect::<Vec<_>>(), "{bounds:?}");
            // Nothing was kept, so the next round is empty.
            assert!(take_round(&mut f).is_empty(), "{bounds:?}");
        }
    }

    #[test]
    fn iteration_is_ascending_and_keeps_what_the_step_asks_for() {
        let mut f = Frontier::full(&[0, 300]);
        f.advance();
        let mut shard = f.shards().next().unwrap();
        // Keep the multiples of 7; land writes on a scattered few.
        shard.step_each(|v| v % 7 == 0);
        for v in [299, 3, 64, 63, 128, 3, 70] {
            shard.insert(v);
        }
        let mut want: Vec<usize> = (0..300).filter(|v| v % 7 == 0).collect();
        want.extend([299, 3, 64, 63, 128]);
        want.sort_unstable();
        want.dedup();
        assert_eq!(take_round(&mut f), want);
    }

    #[test]
    fn shard_bounds_may_cut_a_word_but_shards_never_share_one() {
        // 7 shards over 300 nodes: every interior bound cuts a word.
        let bounds = [0, 43, 86, 129, 172, 215, 258, 300];
        let mut f = Frontier::full(&bounds);
        for (s, b) in bounds.windows(2).enumerate() {
            assert_eq!(f.words[s + 1] - f.words[s], (b[1] - b[0]).div_ceil(64));
        }
        assert_eq!(take_round(&mut f), (0..300).collect::<Vec<_>>());
        for s in 0..7 {
            let (lo, hi) = (bounds[s], bounds[s + 1]);
            // A bit set through one (merge) shard's view lands only in
            // that shard's words, where `Frontier::insert` puts it too.
            let (mut viewed, mut direct) = (Frontier::full(&bounds), Frontier::full(&bounds));
            take_round(&mut viewed);
            take_round(&mut direct);
            for v in lo..hi {
                viewed.shards().nth(s).unwrap().insert(v);
                direct.insert(v);
            }
            assert_eq!(viewed.next, direct.next, "shard {s}");
            for (w, &word) in viewed.next.iter().enumerate() {
                let own = (f.words[s]..f.words[s + 1]).contains(&w);
                assert_eq!(word != 0, own, "shard {s}, word {w}");
            }
            // Its shard's view steps it, and no other view does.
            viewed.advance();
            for (t, mut shard) in viewed.shards().enumerate() {
                let mut mine = Vec::new();
                shard.step_each(|v| {
                    mine.push(v);
                    false
                });
                let want: Vec<usize> = if t == s { (lo..hi).collect() } else { vec![] };
                assert_eq!(mine, want, "shard {s}, view {t}");
            }
        }
    }
}
