//! Deterministic **churn fault injection** for the lockstep engines:
//! seeded schedules of node crash/restart and edge insert/delete events,
//! applied to a running simulation at round boundaries, with incremental
//! patching of the flat port store and a full-rebuild differential
//! oracle.
//!
//! # Model
//!
//! The CSR [`Graph`] stays immutable; a [`ChurnPlan`] names a *universe*
//! (the base graph plus any [`ChurnPlan::with_extra_edge`] edges, which
//! start disabled) and a seeded, round-stamped event schedule over it.
//! A [`stoneage_graph::DynamicGraph`] overlay tracks which nodes and
//! edges are currently live:
//!
//! * **Crash** — the node's state freezes, it stops taking rounds, and
//!   every incident port slot (both directions) is retired: the letters
//!   held in them are dropped and later deliveries to them bounce off
//!   ([`crate::engine::TOMBSTONE`]).
//! * **Restart** — the node reboots into its protocol's
//!   [`stoneage_core::Protocol::restart_state`] and re-registers: every
//!   incident live slot is revived to the initial letter `σ₀`, exactly
//!   the state a fresh registration would see.
//! * **EdgeInsert / EdgeDelete** — toggle one universe edge; the two
//!   directed slots are revived to `σ₀` / retired together.
//!
//! # Epoch-boundary bit-identity
//!
//! Events are applied **only at round boundaries** — after a round's
//! phase-2b deliveries have landed and the epoch has flipped, before the
//! next round's phase-1 observations. Inside any round the engine is
//! therefore exactly the churn-free pipeline of [`crate::pipeline`]: all
//! observations read a frozen plane, all RNG streams are per-node, and
//! the plane swap is a pure epoch flip. The boundary patch itself is a
//! deterministic pure function of the event sequence (the
//! [`stoneage_graph::DynamicGraph`] replica and the emitted
//! [`stoneage_graph::SlotPatch`]es are). Consequently the serial, joined,
//! and fused schedules stay **bit-identical** under churn:
//!
//! * the joined schedule patches right after its phase-2b merge and
//!   epoch flip — the same store state the serial engine patches;
//! * the fused schedule defers phase 2b of round *r* into round
//!   *r + 1*'s worker scope, so at a churn boundary it first **flushes**
//!   the deferred buffers serially (landing exactly the writes the next
//!   scope would have landed — order is immaterial by per-round slot
//!   uniqueness, but the flush replays the fixed shard-major worker
//!   order anyway), then patches. Flush-before-patch is load-bearing: a
//!   write buffered for a slot that the boundary *revives* must be
//!   dropped by the tombstone guard and then overwritten with `σ₀`, not
//!   land on the fresh slot;
//! * a crashed node is skipped without drawing from its RNG, so every
//!   other node's stream — and its own stream across a restart — is
//!   untouched on every schedule.
//!
//! The same argument covers the two [`PatchMode`]s: incremental
//! retire/revive patching and the full-rebuild [`ChurnOracle`] path
//! produce byte-identical stores after **every** event (both the flat
//! letters and the count representations are canonical), which the churn
//! differential matrix in `tests/churn.rs` pins across graph families,
//! backends, worker counts, and round modes. A run with an *empty* plan
//! is bit-identical to the plain engine: the universe CSR is canonical
//! (same edge set ⇒ same bytes), no slot is ever tombstoned, and the
//! tombstone guards compare against a letter value no alphabet contains.
//!
//! # Example
//!
//! ```
//! use stoneage_core::{Alphabet, AsMulti, Letter, TableProtocolBuilder, Transitions};
//! use stoneage_graph::{generators, TopologyEvent};
//! use stoneage_sim::churn::ChurnPlan;
//! use stoneage_sim::Simulation;
//!
//! // Beep once, then output how many beeps were heard (truncated at 3).
//! let mut b = TableProtocolBuilder::new("count", Alphabet::new(["beep"]), 3, Letter(0));
//! let start = b.add_state("start", Letter(0));
//! let listen = b.add_state("listen", Letter(0));
//! b.add_input_state(start);
//! b.set_transition_all(start, Transitions::det(listen, Some(Letter(0))));
//! for o in 0..=3 {
//!     let out = b.add_output_state(format!("out{o}"), Letter(0), o as u64);
//!     b.set_transition(listen, o, Transitions::det(out, None));
//!     b.set_transition_all(out, Transitions::det(out, None));
//! }
//! let protocol = AsMulti(b.build().unwrap());
//!
//! // Crash node 0 after round 1, bring it back after round 3.
//! let graph = generators::cycle(6);
//! let plan = ChurnPlan::new()
//!     .at(1, TopologyEvent::Crash(0))
//!     .at(3, TopologyEvent::Restart(0));
//! let outcome = Simulation::sync(&protocol, &graph)
//!     .seed(7)
//!     .with_churn(&plan)
//!     .run()
//!     .unwrap();
//!
//! let summary = outcome.churn().expect("churn runs carry a summary");
//! assert_eq!((summary.crashes, summary.restarts), (1, 1));
//! assert!(summary.live_nodes.iter().all(|&l| l), "node 0 was restarted");
//! // Node 0's neighbors lost its port letters to the crash and observed
//! // one beep instead of two; node 0 itself re-ran after the restart.
//! assert_eq!(outcome.outputs, vec![2, 1, 2, 2, 2, 1]);
//! ```

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use stoneage_core::{Letter, MultiFsm, ObsVec};
use stoneage_graph::{
    DynamicGraph, Graph, GraphBuilder, NodeId, SlotOp, SlotPatch, TopologyError, TopologyEvent,
};

use crate::engine::{FlatPorts, PortPlanes};
#[cfg(feature = "parallel")]
use crate::faults::FaultSink;
use crate::faults::{FaultLayer, FaultSummary, FaultsArg};
#[cfg(feature = "parallel")]
use crate::parbuf::{
    self, ChunkPlan, ChunkScheduler, DeliveryBuffer, ParallelPolicy, RoundMode, ShardPlan,
    StealStats,
};
#[cfg(feature = "parallel")]
use crate::pipeline::{
    absorb_steal_yields, next_task, seed_deques, ShardedSink, StealTask, StealYield,
};
use crate::pipeline::{boundary_checkpoint, node_round, RoundEnd, RoundStep, SerialWrites};
use crate::scoped::{scoped_rngs, ScopedDelivery, ScopedMultiFsm, ScopedOutcome, ScopedStep};
use crate::sim::Observer;
use crate::snapshot::{self, SnapArgs, SnapPlumb, SnapshotError};
use crate::sync_exec::{
    compile_faults, seed_rngs, SyncConfig, SyncObserver, SyncOutcome, SyncStep,
};
use crate::{splitmix64, ExecError};

/// The output value reported for a node that is **dead** (crashed and
/// never restarted) when a churn run terminates — crashed nodes are
/// exempt from the all-decided termination condition, so they may end in
/// a non-output state. No protocol output collides with it (outputs are
/// small decoded values).
pub const DEAD_OUTPUT: u64 = u64::MAX;

/// How the churn layer brings the port store up to date after an event.
///
/// Both modes produce byte-identical stores after every event (see the
/// [module docs](self)); `Rebuild` exists as the differential oracle and
/// as the baseline the `churn_sweep` benchmark measures patching against.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum PatchMode {
    /// Apply the exact [`SlotPatch`]es the event emitted —
    /// O(changed slots) per event.
    #[default]
    Incremental,
    /// Rebuild the whole store from scratch through [`ChurnOracle`] —
    /// O(|V| + |E|) per event.
    Rebuild,
}

/// A deterministic, round-stamped topology fault schedule.
///
/// Build one with the fluent methods ([`ChurnPlan::at`],
/// [`ChurnPlan::with_extra_edge`], [`ChurnPlan::with_mode`]) or generate
/// a seeded random one with [`ChurnPlan::random`]. Events stamped with
/// round `r` are applied at the boundary **after** round `r` completes
/// (round 0 = before the first round); events within one round apply in
/// insertion order, so `Crash(v)` followed by `Restart(v)` at the same
/// round models an instant reboot. Ineffective events (crashing a dead
/// node, inserting an enabled edge) are silent no-ops; malformed events
/// are rejected as [`ExecError::Config`] before the run starts.
#[derive(Clone, Debug, Default)]
pub struct ChurnPlan {
    events: Vec<(u64, TopologyEvent)>,
    extra_edges: Vec<(NodeId, NodeId)>,
    mode: PatchMode,
}

impl ChurnPlan {
    /// An empty plan (no events, no extra edges, incremental patching).
    /// Running under an empty plan is bit-identical to the plain engine.
    pub fn new() -> Self {
        Self::default()
    }

    /// This plan with `event` scheduled at the boundary after `round`.
    pub fn at(mut self, round: u64, event: TopologyEvent) -> Self {
        self.events.push((round, event));
        self
    }

    /// This plan with the edge `{u, v}` added to the universe graph in
    /// the **disabled** state, so a later
    /// [`TopologyEvent::EdgeInsert`] can bring it up. An extra edge
    /// already present in the base graph is ignored (it is part of the
    /// universe and starts enabled).
    pub fn with_extra_edge(mut self, u: NodeId, v: NodeId) -> Self {
        self.extra_edges.push(if u < v { (u, v) } else { (v, u) });
        self
    }

    /// This plan with the given [`PatchMode`].
    pub fn with_mode(mut self, mode: PatchMode) -> Self {
        self.mode = mode;
        self
    }

    /// The scheduled events, in insertion order.
    pub fn events(&self) -> &[(u64, TopologyEvent)] {
        &self.events
    }

    /// The extra (initially disabled) universe edges.
    pub fn extra_edges(&self) -> &[(NodeId, NodeId)] {
        &self.extra_edges
    }

    /// The configured patch mode.
    pub fn mode(&self) -> PatchMode {
        self.mode
    }

    /// The largest event round, or `None` for an event-free plan.
    pub fn last_round(&self) -> Option<u64> {
        self.events.iter().map(|&(r, _)| r).max()
    }

    /// The **universe graph** of this plan over `base`: the base edges
    /// plus the extra edges, as a canonical CSR. With no extra edges
    /// this is byte-identical to `base` (the CSR construction is
    /// canonical in the edge set), which is what makes empty-plan churn
    /// runs bit-identical to the plain engine.
    pub fn universe(&self, base: &Graph) -> Result<Graph, TopologyError> {
        let mut b = GraphBuilder::new(base.node_count());
        for (u, v) in base.edges() {
            b.add_edge(u, v);
        }
        for &(u, v) in &self.extra_edges {
            b.try_add_edge(u, v)?;
        }
        Ok(b.build())
    }

    /// A seeded random plan over `base`: up to `events` *effective*
    /// events (each is replayed against a local liveness replica and
    /// kept only if it changes something) stamped with uniform rounds in
    /// `1..=max_round`, plus a few random non-edges as extra universe
    /// edges so `EdgeInsert` has something to insert. Deterministic in
    /// `(base, seed, events, max_round)`.
    pub fn random(base: &Graph, seed: u64, events: usize, max_round: u64) -> ChurnPlan {
        let mut rng = SmallRng::seed_from_u64(splitmix64(seed ^ 0xC0FF_EE00));
        let n = base.node_count();
        let mut plan = ChurnPlan::new();
        if n >= 2 {
            let want = (events / 4).clamp(1, 8);
            let mut tries = 0;
            while plan.extra_edges.len() < want && tries < 64 {
                tries += 1;
                let u = rng.gen_range(0..n) as NodeId;
                let v = rng.gen_range(0..n) as NodeId;
                let key = if u < v { (u, v) } else { (v, u) };
                if u != v && !base.has_edge(u, v) && !plan.extra_edges.contains(&key) {
                    plan.extra_edges.push(key);
                }
            }
        }
        let universe = plan
            .universe(base)
            .expect("extra edges were drawn in range");
        if n == 0 || max_round == 0 {
            return plan;
        }
        let edges: Vec<(NodeId, NodeId)> = universe.edges().collect();
        let mut replica = DynamicGraph::new(&universe);
        let mut patches = Vec::new();
        for &(u, v) in &plan.extra_edges {
            replica
                .apply(&universe, TopologyEvent::EdgeDelete(u, v), &mut patches)
                .expect("extra edges are universe edges");
        }
        let mut rounds: Vec<u64> = (0..events)
            .map(|_| rng.gen_range(0..max_round) + 1)
            .collect();
        rounds.sort_unstable();
        for r in rounds {
            // Draw candidates until one is effective (bounded retries so
            // degenerate graphs cannot loop forever).
            for _ in 0..16 {
                let ev = match rng.gen_range(0..4u32) {
                    0 => TopologyEvent::Crash(rng.gen_range(0..n) as NodeId),
                    1 => TopologyEvent::Restart(rng.gen_range(0..n) as NodeId),
                    k => {
                        if edges.is_empty() {
                            continue;
                        }
                        let (u, v) = edges[rng.gen_range(0..edges.len())];
                        if k == 2 {
                            TopologyEvent::EdgeInsert(u, v)
                        } else {
                            TopologyEvent::EdgeDelete(u, v)
                        }
                    }
                };
                patches.clear();
                if replica
                    .apply(&universe, ev, &mut patches)
                    .expect("candidates are drawn in range")
                {
                    plan.events.push((r, ev));
                    break;
                }
            }
        }
        plan
    }
}

/// What a churn run did to the topology, reported through
/// [`crate::Detail`] on the [`crate::Outcome`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChurnSummary {
    /// Effective crash events applied.
    pub crashes: u64,
    /// Effective restart events applied.
    pub restarts: u64,
    /// Effective edge-insert events applied.
    pub edge_inserts: u64,
    /// Effective edge-delete events applied.
    pub edge_deletes: u64,
    /// The final live flag of every node, indexed by node id.
    pub live_nodes: Vec<bool>,
}

impl ChurnSummary {
    /// Number of live nodes at the end of the run.
    pub fn live_count(&self) -> usize {
        self.live_nodes.iter().filter(|&&l| l).count()
    }
}

/// The full-rebuild reference path of the churn differential oracle:
/// reconstructs the entire port store from the universe graph and the
/// current liveness overlay after an event, instead of applying the
/// event's incremental slot patches. [`PatchMode::Rebuild`] routes every
/// boundary through this; the churn differential matrix pins it
/// byte-identical to incremental patching after every event.
#[derive(Clone, Copy, Debug)]
pub struct ChurnOracle {
    sigma0: Letter,
}

impl ChurnOracle {
    /// An oracle rebuilding against the initial letter `σ₀`.
    pub fn new(sigma0: Letter) -> Self {
        ChurnOracle { sigma0 }
    }

    /// The store rebuilt from scratch: dead slots hold
    /// [`crate::engine::TOMBSTONE`], revived slots `σ₀`, live slots their
    /// current letter; all counts recomputed by scanning.
    pub fn rebuild(
        &self,
        universe: &Graph,
        overlay: &DynamicGraph,
        ports: &FlatPorts,
    ) -> FlatPorts {
        ports.rebuilt_for_churn(universe, self.sigma0, |v, k| {
            overlay.slot_live(universe, v, k)
        })
    }
}

/// The engine-side churn controller: owns the liveness overlay, walks
/// the (round-sorted) event schedule, patches the port store, and
/// accumulates the [`ChurnSummary`]. One per run; shared by every
/// schedule (serial, joined, fused) and both lockstep step flavors.
pub(crate) struct ChurnCtl<'p> {
    plan: &'p ChurnPlan,
    /// The plan's events stably sorted by round (insertion order within
    /// a round is the application order).
    events: Vec<(u64, TopologyEvent)>,
    overlay: DynamicGraph,
    oracle: ChurnOracle,
    next: usize,
    patches: Vec<SlotPatch>,
    /// Retire patches disabling the extra universe edges before round 1.
    setup_patches: Vec<SlotPatch>,
    crashes: u64,
    restarts: u64,
    edge_inserts: u64,
    edge_deletes: u64,
}

impl<'p> ChurnCtl<'p> {
    /// Validates the whole plan eagerly (a dry run against a scratch
    /// replica — malformed events become [`ExecError::Config`] before
    /// the run starts) and prepares the overlay with the plan's extra
    /// edges disabled.
    pub(crate) fn new(
        plan: &'p ChurnPlan,
        base: &Graph,
        universe: &Graph,
        sigma0: Letter,
    ) -> Result<Self, ExecError> {
        let mut events = plan.events.clone();
        events.sort_by_key(|&(r, _)| r);
        let mut overlay = DynamicGraph::new(universe);
        let mut setup_patches = Vec::new();
        for &(u, v) in &plan.extra_edges {
            if base.has_edge(u, v) {
                continue; // part of the base universe; starts enabled
            }
            overlay
                .apply(
                    universe,
                    TopologyEvent::EdgeDelete(u, v),
                    &mut setup_patches,
                )
                .map_err(|e| ExecError::Config {
                    reason: format!("churn plan: {e}"),
                })?;
        }
        let mut scratch = overlay.clone();
        let mut sink = Vec::new();
        for &(_, ev) in &events {
            scratch
                .apply(universe, ev, &mut sink)
                .map_err(|e| ExecError::Config {
                    reason: format!("churn plan: {e}"),
                })?;
        }
        Ok(ChurnCtl {
            plan,
            events,
            overlay,
            oracle: ChurnOracle::new(sigma0),
            next: 0,
            patches: Vec::new(),
            setup_patches,
            crashes: 0,
            restarts: 0,
            edge_inserts: 0,
            edge_deletes: 0,
        })
    }

    /// Retires the slots of the plan's disabled extra edges on the fresh
    /// store, before the run starts.
    pub(crate) fn setup(&mut self, ports: &mut FlatPorts) {
        for p in &self.setup_patches {
            debug_assert_eq!(p.op, SlotOp::Retire);
            ports.retire_slot(p.node as usize, p.slot as usize);
        }
    }

    /// The live flag of every node, indexed by node id.
    pub(crate) fn live(&self) -> &[bool] {
        self.overlay.live_nodes()
    }

    /// Whether events remain to be applied.
    pub(crate) fn exhausted(&self) -> bool {
        self.next == self.events.len()
    }

    /// Whether any event is due at the boundary after `round`.
    #[cfg(feature = "parallel")]
    pub(crate) fn has_pending(&self, round: u64) -> bool {
        self.peek_round().is_some_and(|r| r <= round)
    }

    /// The round of the next unapplied event, if any.
    pub(crate) fn peek_round(&self) -> Option<u64> {
        self.events.get(self.next).map(|&(r, _)| r)
    }

    /// Applies the next scheduled event to the liveness overlay (the
    /// caller checked one exists via [`ChurnCtl::peek_round`]), leaving
    /// its slot patches in [`ChurnCtl::patches`] and counting it if
    /// effective. The caller is responsible for the engine-side
    /// consequences (state resets, undecided bookkeeping, port patching
    /// via [`ChurnCtl::patch_ports`]).
    pub(crate) fn apply_next(&mut self, universe: &Graph) -> (TopologyEvent, bool) {
        let (_, ev) = self.events[self.next];
        self.next += 1;
        self.patches.clear();
        let effective = self
            .overlay
            .apply(universe, ev, &mut self.patches)
            .expect("the plan was validated eagerly");
        if effective {
            match ev {
                TopologyEvent::Crash(_) => self.crashes += 1,
                TopologyEvent::Restart(_) => self.restarts += 1,
                TopologyEvent::EdgeInsert(..) => self.edge_inserts += 1,
                TopologyEvent::EdgeDelete(..) => self.edge_deletes += 1,
            }
        }
        (ev, effective)
    }

    /// The slot patches of the event last applied by
    /// [`ChurnCtl::apply_next`].
    pub(crate) fn patches(&self) -> &[SlotPatch] {
        &self.patches
    }

    /// Brings `ports` up to date after an effective [`ChurnCtl::apply_next`],
    /// per the plan's [`PatchMode`]: incremental retire/revive of the
    /// event's own slots, or a full [`ChurnOracle`] rebuild.
    pub(crate) fn patch_ports(&self, universe: &Graph, ports: &mut FlatPorts) {
        match self.plan.mode {
            PatchMode::Incremental => {
                for p in &self.patches {
                    match p.op {
                        SlotOp::Retire => ports.retire_slot(p.node as usize, p.slot as usize),
                        SlotOp::Revive => {
                            ports.revive_slot(p.node as usize, p.slot as usize, self.oracle.sigma0)
                        }
                    }
                }
            }
            PatchMode::Rebuild => {
                *ports = self.oracle.rebuild(universe, &self.overlay, ports);
            }
        }
    }

    /// Applies every event due at the boundary after `round`: updates
    /// the overlay, patches `ports` (incrementally or via the
    /// [`ChurnOracle`] per the plan's [`PatchMode`] — after **every**
    /// effective event, so same-round crash + restart sequences agree
    /// bit-for-bit between the modes), resets restarted nodes to their
    /// [`RoundStep::restart_state`], and maintains the undecided
    /// counter. Crashed nodes leave the counter (they are exempt from
    /// termination); restarted ones re-enter it.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn boundary<St: RoundStep>(
        &mut self,
        universe: &Graph,
        round: u64,
        step: &St,
        inputs: &[usize],
        states: &mut [St::State],
        undecided: &mut isize,
        ports: &mut FlatPorts,
    ) {
        while self.peek_round().is_some_and(|r| r <= round) {
            let (ev, effective) = self.apply_next(universe);
            if !effective {
                continue;
            }
            match ev {
                TopologyEvent::Crash(v) => {
                    if !step.decided(&states[v as usize]) {
                        *undecided -= 1;
                    }
                }
                TopologyEvent::Restart(v) => {
                    states[v as usize] = step.restart_state(inputs[v as usize]);
                    // A state write δ did not make: the node must step
                    // next round even if no delivery changes its counts.
                    ports.wake(v as usize);
                    if !step.decided(&states[v as usize]) {
                        *undecided += 1;
                    }
                }
                TopologyEvent::EdgeInsert(..) | TopologyEvent::EdgeDelete(..) => {}
            }
            self.patch_ports(universe, ports);
        }
    }

    /// The schedule cursor: how many events [`ChurnCtl::apply_next`] has
    /// consumed. Captured into snapshots so a resumed run can
    /// [`ChurnCtl::fast_forward`] to the same position.
    pub(crate) fn cursor(&self) -> u64 {
        self.next as u64
    }

    /// Replays the first `k` events against the liveness overlay without
    /// touching any engine state — the snapshot's port store, protocol
    /// states, and undecided counter already reflect them. Rebuilds
    /// exactly the overlay, effectiveness counters, and cursor the
    /// checkpointing run had at its boundary, so the eventual
    /// [`ChurnCtl::finish`] summary is bit-identical. Fails if `k` walks
    /// past the end of the schedule (a snapshot from a different plan).
    pub(crate) fn fast_forward(&mut self, universe: &Graph, k: u64) -> Result<(), ExecError> {
        if k > self.events.len() as u64 {
            return Err(ExecError::Snapshot(SnapshotError::DigestMismatch {
                field: "churn cursor",
            }));
        }
        for _ in 0..k {
            let _ = self.apply_next(universe);
        }
        self.patches.clear();
        Ok(())
    }

    /// The run's churn summary.
    pub(crate) fn finish(&self) -> ChurnSummary {
        ChurnSummary {
            crashes: self.crashes,
            restarts: self.restarts,
            edge_inserts: self.edge_inserts,
            edge_deletes: self.edge_deletes,
            live_nodes: self.overlay.live_nodes().to_vec(),
        }
    }
}

/// The serial churn round loop: [`crate::pipeline::run_serial`] with a
/// live-node filter, a boundary patch between rounds, and the
/// plan-exhaustion termination condition (a run may be all-decided while
/// a restart is still scheduled).
#[allow(clippy::too_many_arguments)]
fn run_serial_churn<St, O>(
    step: &St,
    universe: &Graph,
    planes: &mut PortPlanes,
    states: &mut [St::State],
    rngs: &mut [SmallRng],
    inputs: &[usize],
    ctl: &mut ChurnCtl<'_>,
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
    if plumb.resume.is_none() {
        // Round-0 events apply before the first observation. A resumed
        // run skips this: the snapshot store already includes every
        // boundary up to its round, and fast-forward replayed the
        // schedule cursor.
        ctl.boundary(
            universe,
            0,
            step,
            inputs,
            states,
            &mut undecided,
            planes.write(),
        );
        if undecided == 0 && ctl.exhausted() {
            return RoundEnd::Done { rounds: 0, sent };
        }
    }
    let mut obs = ObsVec::zeroed(planes.sigma());
    let mut sink = SerialWrites::default();
    for round in start + 1..=max_rounds {
        sink.begin_round();
        {
            let ports = planes.read();
            let live = ctl.live();
            let mut fsink = faults.sink(&mut sink, round);
            for v in 0..n {
                if !live[v] {
                    continue;
                }
                undecided += node_round(
                    step,
                    universe,
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
        ctl.boundary(
            universe,
            round,
            step,
            inputs,
            states,
            &mut undecided,
            planes.write(),
        );
        observer.on_round_end(round, states);
        if undecided == 0 && ctl.exhausted() {
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
            Some(ctl.cursor()),
            faults.capture(),
            observer,
        );
    }
    RoundEnd::Limit {
        limit: max_rounds,
        unfinished: undecided as usize,
    }
}

/// The parallel churn round loop: [`crate::pipeline::run_parallel`] with
/// the same live-node filter, boundary patch, and termination condition
/// as [`run_serial_churn`]. On the fused schedule, a boundary with due
/// events first flushes the deferred phase-2b buffers serially (see the
/// [module docs](self) for why flush-before-patch is load-bearing).
/// Both round modes compose with the work-stealing
/// [`ChunkScheduler`] exactly as in the churn-free pipeline — the live
/// filter is applied per node inside whichever chunk a task carries, so
/// the set of nodes that run a round is schedule-independent.
#[cfg(feature = "parallel")]
#[allow(clippy::too_many_arguments)]
fn run_parallel_churn<St, O>(
    step: &St,
    universe: &Graph,
    planes: &mut PortPlanes,
    states: &mut [St::State],
    rngs: &mut [SmallRng],
    inputs: &[usize],
    ctl: &mut ChurnCtl<'_>,
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
    if plumb.resume.is_none() {
        ctl.boundary(
            universe,
            0,
            step,
            inputs,
            states,
            &mut undecided,
            planes.write(),
        );
        if undecided == 0 && ctl.exhausted() {
            return RoundEnd::Done { rounds: 0, sent };
        }
    }
    let sigma = planes.sigma();
    // Planned ONCE per run, over the closed universe: churn patches
    // mutate letters and tombstones inside the fixed CSR layout
    // (`csr_offset` never changes — crash/restart/edge events rewrite
    // slots, not the slot *map*), so the slot-balanced bounds stay
    // valid and identically balanced across every boundary. No
    // per-epoch re-plan exists to amortize; `tests/stealing.rs` pins
    // the bounds' churn-invariance.
    let plan = ShardPlan::new(universe, policy.resolve_workers());
    let workers = plan.workers();
    let mut buffers: Vec<DeliveryBuffer> =
        (0..workers).map(|_| DeliveryBuffer::new(workers)).collect();
    let mut obs: Vec<ObsVec> = (0..workers).map(|_| ObsVec::zeroed(sigma)).collect();
    let mut witnesses: Vec<St::Witness> = (0..workers).map(|_| St::Witness::default()).collect();

    match (policy.resolve_round(), policy.resolve_scheduler()) {
        (RoundMode::Joined, ChunkScheduler::Stealing) => {
            let chunks = ChunkPlan::new(universe, &plan);
            for round in start + 1..=max_rounds {
                let ports = planes.read();
                let live = ctl.live();
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
                                            if !live[base + i] {
                                                continue;
                                            }
                                            delta += node_round(
                                                step,
                                                universe,
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
                parbuf::merge(policy.merge, planes.write(), universe, &plan, &buffers);
                planes.advance();
                ctl.boundary(
                    universe,
                    round,
                    step,
                    inputs,
                    states,
                    &mut undecided,
                    planes.write(),
                );
                observer.on_round_end(round, states);
                if undecided == 0 && ctl.exhausted() {
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
                    Some(ctl.cursor()),
                    faults.capture(),
                    observer,
                );
            }
        }
        (RoundMode::Fused, ChunkScheduler::Stealing) => {
            let chunks = ChunkPlan::new(universe, &plan);
            let mut landing = buffers;
            let mut filling: Vec<DeliveryBuffer> =
                (0..workers).map(|_| DeliveryBuffer::new(workers)).collect();
            for round in start + 1..=max_rounds {
                let shard_cells: Vec<_> = planes
                    .epoch_shards(universe, plan.bounds())
                    .into_iter()
                    .map(std::sync::RwLock::new)
                    .collect();
                let shard_cells = &shard_cells;
                let barrier = std::sync::Barrier::new(workers);
                let barrier = &barrier;
                let landing_ref = &landing;
                let live = ctl.live();
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
                                        let shard = shard_cells[task_shard].read().unwrap();
                                        let mut wit = St::Witness::default();
                                        for i in 0..state_c.len() {
                                            if !live[base + i] {
                                                continue;
                                            }
                                            delta += node_round(
                                                step,
                                                universe,
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
                if ctl.has_pending(round) {
                    // Flush-before-patch, exactly as the static fused arm.
                    let ports = planes.write();
                    for ci in 0..workers {
                        for prev in &landing {
                            for w in prev.bucket(ci) {
                                ports.deliver(w.node as usize, w.slot as usize, w.letter);
                            }
                        }
                    }
                    for b in landing.iter_mut() {
                        b.clear();
                    }
                    ctl.boundary(universe, round, step, inputs, states, &mut undecided, ports);
                }
                observer.on_round_end(round, states);
                if undecided == 0 && ctl.exhausted() {
                    return RoundEnd::Done {
                        rounds: round,
                        sent,
                    };
                }
                if plumb.every > 0 && round % plumb.every == 0 {
                    {
                        let ports = planes.write();
                        for ci in 0..workers {
                            for prev in &landing {
                                for w in prev.bucket(ci) {
                                    ports.deliver(w.node as usize, w.slot as usize, w.letter);
                                }
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
                        Some(ctl.cursor()),
                        faults.capture(),
                        observer,
                    );
                }
            }
        }
        (RoundMode::Joined, ChunkScheduler::Static) => {
            for round in start + 1..=max_rounds {
                let ports = planes.read();
                let live = ctl.live();
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
                                    if !live[base + i] {
                                        continue;
                                    }
                                    delta += node_round(
                                        step,
                                        universe,
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
                parbuf::merge(policy.merge, planes.write(), universe, &plan, &buffers);
                planes.advance();
                ctl.boundary(
                    universe,
                    round,
                    step,
                    inputs,
                    states,
                    &mut undecided,
                    planes.write(),
                );
                observer.on_round_end(round, states);
                if undecided == 0 && ctl.exhausted() {
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
                    Some(ctl.cursor()),
                    faults.capture(),
                    observer,
                );
            }
        }
        (RoundMode::Fused, ChunkScheduler::Static) => {
            let mut landing = buffers;
            let mut filling: Vec<DeliveryBuffer> =
                (0..workers).map(|_| DeliveryBuffer::new(workers)).collect();
            for round in start + 1..=max_rounds {
                let shards = planes.epoch_shards(universe, plan.bounds());
                let landing_ref = &landing;
                let live = ctl.live();
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
                                    for prev in landing_ref {
                                        for w in prev.bucket(ci) {
                                            shard.land(w.node as usize, w.slot as usize, w.letter);
                                        }
                                    }
                                    shard.freeze();
                                    buffer.clear();
                                    let mut sink = ShardedSink { buffer, plan };
                                    let mut ftally = FaultSummary::default();
                                    let mut fsink =
                                        FaultSink::wrap(&mut sink, fctx, round, &mut ftally);
                                    let mut delta = 0isize;
                                    for i in 0..state_c.len() {
                                        if !live[base + i] {
                                            continue;
                                        }
                                        delta += node_round(
                                            step,
                                            universe,
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
                if ctl.has_pending(round) {
                    // Flush the deferred phase 2b of this round before
                    // patching: land each buffer's buckets in the fixed
                    // shard-major worker order the next scope would have
                    // used, then clear so that scope lands nothing.
                    let ports = planes.write();
                    for ci in 0..workers {
                        for prev in &landing {
                            for w in prev.bucket(ci) {
                                ports.deliver(w.node as usize, w.slot as usize, w.letter);
                            }
                        }
                    }
                    for b in landing.iter_mut() {
                        b.clear();
                    }
                    ctl.boundary(universe, round, step, inputs, states, &mut undecided, ports);
                }
                observer.on_round_end(round, states);
                if undecided == 0 && ctl.exhausted() {
                    return RoundEnd::Done {
                        rounds: round,
                        sent,
                    };
                }
                if plumb.every > 0 && round % plumb.every == 0 {
                    // Commit the deferred phase 2b before capturing, the
                    // same flush-and-clear a churn boundary performs (a
                    // no-op if one just did): the snapshot must hold the
                    // complete end-of-round store.
                    {
                        let ports = planes.write();
                        for ci in 0..workers {
                            for prev in &landing {
                                for w in prev.bucket(ci) {
                                    ports.deliver(w.node as usize, w.slot as usize, w.letter);
                                }
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
                        Some(ctl.cursor()),
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

/// Decodes the terminal states of a churn run: live nodes report their
/// protocol output (termination guarantees they are decided); dead nodes
/// report the output they had decided before crashing, or
/// [`DEAD_OUTPUT`] if they crashed undecided.
fn churn_outputs<S>(
    states: &[S],
    live: &[bool],
    mut output: impl FnMut(&S) -> Option<u64>,
) -> Vec<u64> {
    states
        .iter()
        .zip(live)
        .map(|(q, &l)| {
            if l {
                output(q).expect("live nodes are decided at termination")
            } else {
                output(q).unwrap_or(DEAD_OUTPUT)
            }
        })
        .collect()
}

/// Shared start-or-resume path of the four churn executors: fresh
/// engine state (with the extra-edge setup patches applied) on a plain
/// start, or the snapshot splice — store, states, RNG streams, witness
/// transcript, churn cursor — on resume. On resume [`ChurnCtl::setup`]
/// is skipped (the restored store already reflects the setup patches and
/// every boundary up to the snapshot round) and the controller is
/// fast-forwarded to the snapshot's cursor instead. A snapshot without a
/// churn cursor, or with the wrong witness kind for the backend, is
/// rejected as a body-kind mismatch.
#[allow(clippy::type_complexity, clippy::too_many_arguments)]
fn churn_start<S>(
    universe: &Graph,
    sigma: usize,
    sigma0: Letter,
    initial: impl FnOnce() -> Vec<S>,
    seed: impl FnOnce(usize) -> Vec<SmallRng>,
    ctl: &mut ChurnCtl<'_>,
    snap: &SnapArgs<'_, S>,
    scoped: bool,
    faulted: bool,
) -> Result<
    (
        Vec<S>,
        PortPlanes,
        Vec<SmallRng>,
        Vec<ScopedDelivery>,
        SnapPlumb<S>,
        FaultSummary,
    ),
    ExecError,
> {
    match snap.resume {
        Some(s) => {
            let splice = snapshot::resume_lockstep(s, &snap.codec(), universe, sigma)?;
            let Some(cursor) = splice.churn_next else {
                return Err(ExecError::Snapshot(SnapshotError::DigestMismatch {
                    field: "snapshot body kind",
                }));
            };
            let witness = match (scoped, splice.witness) {
                (true, Some(w)) => w,
                (false, None) => Vec::new(),
                _ => {
                    return Err(ExecError::Snapshot(SnapshotError::DigestMismatch {
                        field: "snapshot body kind",
                    }))
                }
            };
            if splice.faults.is_some() != faulted {
                return Err(ExecError::Snapshot(SnapshotError::DigestMismatch {
                    field: "snapshot body kind",
                }));
            }
            ctl.fast_forward(universe, cursor)?;
            Ok((
                splice.states,
                splice.planes,
                splice.rngs,
                witness,
                SnapPlumb::from_args(snap, Some(splice.point)),
                splice.faults.unwrap_or_default(),
            ))
        }
        None => {
            let mut planes = PortPlanes::new(universe, sigma, sigma0);
            ctl.setup(planes.write());
            Ok((
                initial(),
                planes,
                seed(universe.node_count()),
                Vec::new(),
                SnapPlumb::from_args(snap, None),
                FaultSummary::default(),
            ))
        }
    }
}

/// The serial sync engine under a churn plan: the exact
/// [`crate::sync_exec::exec_sync`] pipeline with the churn controller
/// spliced into the round boundaries.
#[allow(clippy::too_many_arguments)]
pub(crate) fn exec_sync_churn<P, O>(
    protocol: &P,
    base: &Graph,
    inputs: &[usize],
    config: &SyncConfig,
    plan: &ChurnPlan,
    observer: &mut O,
    snap: &SnapArgs<'_, P::State>,
    faults: FaultsArg<'_>,
) -> Result<(SyncOutcome, Vec<P::State>, ChurnSummary), ExecError>
where
    P: MultiFsm,
    O: SyncObserver<P::State>,
{
    let universe = plan.universe(base).map_err(plan_config)?;
    let n = universe.node_count();
    debug_assert_eq!(inputs.len(), n, "the builder validates input length");
    let (fctx, fout) = compile_faults(faults, &universe, protocol.alphabet().len())?;
    let mut ctl = ChurnCtl::new(plan, base, &universe, protocol.initial_letter())?;
    let (mut states, mut planes, mut rngs, _, plumb, tally) = churn_start(
        &universe,
        protocol.alphabet().len(),
        protocol.initial_letter(),
        || inputs.iter().map(|&i| protocol.initial_state(i)).collect(),
        |n| seed_rngs(n, config.seed),
        &mut ctl,
        snap,
        false,
        fctx.is_some(),
    )?;
    let mut layer = FaultLayer::new(fctx.as_ref(), tally);
    let end = run_serial_churn(
        &SyncStep(protocol),
        &universe,
        &mut planes,
        &mut states,
        &mut rngs,
        inputs,
        &mut ctl,
        config.max_rounds,
        observer,
        &mut (),
        &plumb,
        &mut layer,
    );
    if let Some(out) = fout {
        *out = Some(layer.tally);
    }
    sync_churn_end(protocol, states, end, ctl.finish())
}

/// The parallel twin of [`exec_sync_churn`], bit-identical to it for
/// every seed, policy, worker count, and round mode.
#[cfg(feature = "parallel")]
#[allow(clippy::too_many_arguments)]
pub(crate) fn exec_sync_churn_parallel<P, O>(
    protocol: &P,
    base: &Graph,
    inputs: &[usize],
    config: &SyncConfig,
    plan: &ChurnPlan,
    policy: &ParallelPolicy,
    observer: &mut O,
    snap: &SnapArgs<'_, P::State>,
    faults: FaultsArg<'_>,
    steals: &mut StealStats,
) -> Result<(SyncOutcome, Vec<P::State>, ChurnSummary), ExecError>
where
    P: MultiFsm + Sync,
    P::State: Send + Sync,
    O: SyncObserver<P::State>,
{
    let universe = plan.universe(base).map_err(plan_config)?;
    let n = universe.node_count();
    debug_assert_eq!(inputs.len(), n, "the builder validates input length");
    let (fctx, fout) = compile_faults(faults, &universe, protocol.alphabet().len())?;
    let mut ctl = ChurnCtl::new(plan, base, &universe, protocol.initial_letter())?;
    let (mut states, mut planes, mut rngs, _, plumb, tally) = churn_start(
        &universe,
        protocol.alphabet().len(),
        protocol.initial_letter(),
        || inputs.iter().map(|&i| protocol.initial_state(i)).collect(),
        |n| seed_rngs(n, config.seed),
        &mut ctl,
        snap,
        false,
        fctx.is_some(),
    )?;
    let mut layer = FaultLayer::new(fctx.as_ref(), tally);
    let end = run_parallel_churn(
        &SyncStep(protocol),
        &universe,
        &mut planes,
        &mut states,
        &mut rngs,
        inputs,
        &mut ctl,
        policy,
        config.max_rounds,
        observer,
        &mut (),
        &plumb,
        &mut layer,
        steals,
    );
    if let Some(out) = fout {
        *out = Some(layer.tally);
    }
    sync_churn_end(protocol, states, end, ctl.finish())
}

/// The serial scoped engine under a churn plan.
#[allow(clippy::too_many_arguments)]
pub(crate) fn exec_scoped_churn<P, O>(
    protocol: &P,
    base: &Graph,
    inputs: &[usize],
    seed: u64,
    max_rounds: u64,
    plan: &ChurnPlan,
    observer: &mut O,
    snap: &SnapArgs<'_, P::State>,
    faults: FaultsArg<'_>,
) -> Result<(ScopedOutcome, Vec<P::State>, ChurnSummary), ExecError>
where
    P: ScopedMultiFsm,
    O: SyncObserver<P::State>,
{
    let universe = plan.universe(base).map_err(plan_config)?;
    let n = universe.node_count();
    debug_assert_eq!(inputs.len(), n, "the builder validates input length");
    let (fctx, fout) = compile_faults(faults, &universe, protocol.alphabet().len())?;
    let mut ctl = ChurnCtl::new(plan, base, &universe, protocol.initial_letter())?;
    let (mut states, mut planes, mut rngs, mut scoped_deliveries, plumb, tally) = churn_start(
        &universe,
        protocol.alphabet().len(),
        protocol.initial_letter(),
        || inputs.iter().map(|&i| protocol.initial_state(i)).collect(),
        |n| scoped_rngs(n, seed),
        &mut ctl,
        snap,
        true,
        fctx.is_some(),
    )?;
    let mut layer = FaultLayer::new(fctx.as_ref(), tally);
    let end = run_serial_churn(
        &ScopedStep(protocol),
        &universe,
        &mut planes,
        &mut states,
        &mut rngs,
        inputs,
        &mut ctl,
        max_rounds,
        observer,
        &mut scoped_deliveries,
        &plumb,
        &mut layer,
    );
    if let Some(out) = fout {
        *out = Some(layer.tally);
    }
    scoped_churn_end(protocol, states, scoped_deliveries, end, ctl.finish())
}

/// The parallel twin of [`exec_scoped_churn`].
#[cfg(feature = "parallel")]
#[allow(clippy::too_many_arguments)]
pub(crate) fn exec_scoped_churn_parallel<P, O>(
    protocol: &P,
    base: &Graph,
    inputs: &[usize],
    seed: u64,
    max_rounds: u64,
    plan: &ChurnPlan,
    policy: &ParallelPolicy,
    observer: &mut O,
    snap: &SnapArgs<'_, P::State>,
    faults: FaultsArg<'_>,
    steals: &mut StealStats,
) -> Result<(ScopedOutcome, Vec<P::State>, ChurnSummary), ExecError>
where
    P: ScopedMultiFsm + Sync,
    P::State: Send + Sync,
    O: SyncObserver<P::State>,
{
    let universe = plan.universe(base).map_err(plan_config)?;
    let n = universe.node_count();
    debug_assert_eq!(inputs.len(), n, "the builder validates input length");
    let (fctx, fout) = compile_faults(faults, &universe, protocol.alphabet().len())?;
    let mut ctl = ChurnCtl::new(plan, base, &universe, protocol.initial_letter())?;
    let (mut states, mut planes, mut rngs, mut scoped_deliveries, plumb, tally) = churn_start(
        &universe,
        protocol.alphabet().len(),
        protocol.initial_letter(),
        || inputs.iter().map(|&i| protocol.initial_state(i)).collect(),
        |n| scoped_rngs(n, seed),
        &mut ctl,
        snap,
        true,
        fctx.is_some(),
    )?;
    let mut layer = FaultLayer::new(fctx.as_ref(), tally);
    let end = run_parallel_churn(
        &ScopedStep(protocol),
        &universe,
        &mut planes,
        &mut states,
        &mut rngs,
        inputs,
        &mut ctl,
        policy,
        max_rounds,
        observer,
        &mut scoped_deliveries,
        &plumb,
        &mut layer,
        steals,
    );
    if let Some(out) = fout {
        *out = Some(layer.tally);
    }
    scoped_churn_end(protocol, states, scoped_deliveries, end, ctl.finish())
}

fn plan_config(e: TopologyError) -> ExecError {
    ExecError::Config {
        reason: format!("churn plan: {e}"),
    }
}

fn sync_churn_end<P: MultiFsm>(
    protocol: &P,
    states: Vec<P::State>,
    end: RoundEnd,
    summary: ChurnSummary,
) -> Result<(SyncOutcome, Vec<P::State>, ChurnSummary), ExecError> {
    match end {
        RoundEnd::Done { rounds, sent } => {
            let outputs = churn_outputs(&states, &summary.live_nodes, |q| protocol.output(q));
            Ok((
                SyncOutcome {
                    outputs,
                    rounds,
                    messages_sent: sent,
                },
                states,
                summary,
            ))
        }
        RoundEnd::Limit { limit, unfinished } => Err(ExecError::RoundLimit { limit, unfinished }),
    }
}

fn scoped_churn_end<P: ScopedMultiFsm>(
    protocol: &P,
    states: Vec<P::State>,
    scoped_deliveries: Vec<ScopedDelivery>,
    end: RoundEnd,
    summary: ChurnSummary,
) -> Result<(ScopedOutcome, Vec<P::State>, ChurnSummary), ExecError> {
    match end {
        RoundEnd::Done { rounds, .. } => {
            let outputs = churn_outputs(&states, &summary.live_nodes, |q| protocol.output(q));
            Ok((
                ScopedOutcome {
                    outputs,
                    rounds,
                    scoped_deliveries,
                },
                states,
                summary,
            ))
        }
        RoundEnd::Limit { limit, unfinished } => Err(ExecError::RoundLimit { limit, unfinished }),
    }
}

/// One churn event as seen by a [`StabilizationObserver`], with the
/// measured re-stabilization lag.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StabilizationRecord {
    /// The boundary round the event was applied at.
    pub at_round: u64,
    /// The (effective) event.
    pub event: TopologyEvent,
    /// Rounds from the event to the first subsequent round whose states
    /// satisfy the stabilization predicate again, or `None` if the run
    /// ended before that happened. The paper's protocols are **not**
    /// self-stabilizing, so `None` is a real measurement — e.g. crashing
    /// a `Win` MIS node can leave its `Lose` neighbors permanently
    /// uncovered.
    pub restabilized_after: Option<u64>,
}

/// An [`Observer`] measuring **rounds-to-re-stabilize** per churn event:
/// it replays the same plan against its own liveness replica (the engine
/// applies boundary patches *before* firing `on_round_end`, so the
/// replica is always in sync with the engine's overlay when the
/// predicate runs) and records, for every effective event, how many
/// rounds passed until the predicate held again. Pair it with the
/// predicates in `stoneage-protocols`' `stabilization` module.
pub struct StabilizationObserver<F> {
    universe: Graph,
    replica: DynamicGraph,
    events: Vec<(u64, TopologyEvent)>,
    next: usize,
    patches: Vec<SlotPatch>,
    predicate: F,
    records: Vec<StabilizationRecord>,
}

impl<F> StabilizationObserver<F> {
    /// An observer for `plan` over `base`, judging stabilization with
    /// `predicate` — a function of the universe graph, the current
    /// liveness overlay, and the post-round states. Fails like the
    /// engine does on a malformed plan.
    pub fn new(base: &Graph, plan: &ChurnPlan, predicate: F) -> Result<Self, ExecError> {
        let universe = plan.universe(base).map_err(plan_config)?;
        let mut replica = DynamicGraph::new(&universe);
        let mut patches = Vec::new();
        for &(u, v) in plan.extra_edges() {
            if base.has_edge(u, v) {
                continue;
            }
            replica
                .apply(&universe, TopologyEvent::EdgeDelete(u, v), &mut patches)
                .map_err(plan_config)?;
        }
        patches.clear();
        let mut events = plan.events.clone();
        events.sort_by_key(|&(r, _)| r);
        Ok(StabilizationObserver {
            universe,
            replica,
            events,
            next: 0,
            patches,
            predicate,
            records: Vec::new(),
        })
    }

    /// The per-event records collected so far (one per effective event,
    /// in application order).
    pub fn records(&self) -> &[StabilizationRecord] {
        &self.records
    }

    /// Consumes the observer, returning its records.
    pub fn into_records(self) -> Vec<StabilizationRecord> {
        self.records
    }

    /// Whether the run **wedged**: at least one effective event was never
    /// followed by a round satisfying the predicate again
    /// (`restabilized_after == None`). The paper's protocols are not
    /// self-stabilizing, so this is a real outcome — e.g. restarting a
    /// node amid halted decided MIS neighbors; the
    /// `stoneage_protocols::selfstab` variants exist to make it false.
    pub fn wedged(&self) -> bool {
        self.records.iter().any(|r| r.restabilized_after.is_none())
    }
}

impl<S, F> Observer<S> for StabilizationObserver<F>
where
    F: FnMut(&Graph, &DynamicGraph, &[S]) -> bool,
{
    fn on_round_end(&mut self, round: u64, states: &[S]) {
        while self.next < self.events.len() && self.events[self.next].0 <= round {
            let (at, ev) = self.events[self.next];
            self.next += 1;
            self.patches.clear();
            if self
                .replica
                .apply(&self.universe, ev, &mut self.patches)
                .unwrap_or(false)
            {
                self.records.push(StabilizationRecord {
                    at_round: at,
                    event: ev,
                    restabilized_after: None,
                });
            }
        }
        if (self.predicate)(&self.universe, &self.replica, states) {
            for r in self.records.iter_mut() {
                if r.restabilized_after.is_none() {
                    r.restabilized_after = Some(round - r.at_round);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stoneage_graph::generators;

    #[test]
    fn random_plans_are_deterministic_and_effective() {
        let g = generators::gnp(40, 0.15, 3);
        let a = ChurnPlan::random(&g, 9, 12, 30);
        let b = ChurnPlan::random(&g, 9, 12, 30);
        assert_eq!(a.events(), b.events());
        assert_eq!(a.extra_edges(), b.extra_edges());
        assert!(!a.events().is_empty());
        // Every generated event must be effective when replayed in order.
        let universe = a.universe(&g).unwrap();
        let mut d = DynamicGraph::new(&universe);
        let mut p = Vec::new();
        for &(u, v) in a.extra_edges() {
            d.apply(&universe, TopologyEvent::EdgeDelete(u, v), &mut p)
                .unwrap();
        }
        for &(_, ev) in a.events() {
            assert!(d.apply(&universe, ev, &mut p).unwrap(), "{ev:?}");
        }
    }

    #[test]
    fn universe_without_extras_is_byte_identical() {
        let g = generators::random_tree(60, 5);
        let u = ChurnPlan::new().universe(&g).unwrap();
        assert_eq!(g, u);
    }

    #[test]
    fn malformed_plans_are_config_errors() {
        let g = generators::path(4);
        let plan = ChurnPlan::new().at(2, TopologyEvent::Crash(99));
        let err = ChurnCtl::new(&plan, &g, &g, Letter(0)).err().unwrap();
        assert!(matches!(err, ExecError::Config { ref reason }
            if reason.contains("out of range")));
        let plan = ChurnPlan::new().at(1, TopologyEvent::EdgeInsert(0, 3));
        let err = ChurnCtl::new(&plan, &g, &g, Letter(0)).err().unwrap();
        assert!(matches!(err, ExecError::Config { ref reason }
            if reason.contains("not part of the universe")));
    }

    #[test]
    fn oracle_rebuild_matches_incremental_patch() {
        let g = generators::gnp(30, 0.2, 11);
        let mut inc = FlatPorts::new(&g, 3, Letter(1));
        let mut overlay = DynamicGraph::new(&g);
        let oracle = ChurnOracle::new(Letter(1));
        let mut patches = Vec::new();
        // Deliver some traffic so stores are not in the initial state.
        for v in g.nodes() {
            inc.broadcast(&g, v, Letter(v as u16 % 3));
        }
        let events = [
            TopologyEvent::Crash(3),
            TopologyEvent::Crash(7),
            TopologyEvent::Restart(3),
            TopologyEvent::EdgeDelete(g.edges().next().unwrap().0, g.edges().next().unwrap().1),
        ];
        for ev in events {
            patches.clear();
            if overlay.apply(&g, ev, &mut patches).unwrap() {
                let rebuilt = oracle.rebuild(&g, &overlay, &inc);
                for p in &patches {
                    match p.op {
                        SlotOp::Retire => inc.retire_slot(p.node as usize, p.slot as usize),
                        SlotOp::Revive => {
                            inc.revive_slot(p.node as usize, p.slot as usize, Letter(1))
                        }
                    }
                }
                assert_eq!(inc.dense_counts(&g), rebuilt.dense_counts(&g), "{ev:?}");
                for s in 0..g.port_slot_count() {
                    assert_eq!(
                        inc.letter_at(s),
                        rebuilt.letter_at(s),
                        "slot {s} after {ev:?}"
                    );
                }
            }
        }
    }
}
