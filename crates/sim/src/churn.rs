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
//! A churn run is the ordinary lockstep [`crate::pipeline`] on the
//! plan's universe graph, with the churn controller as the pipeline's
//! round-boundary hook. Events are applied **only at round boundaries**
//! — after a round's phase-2b deliveries have landed and the epoch has
//! flipped, before the observer sees the round and before the next
//! round's phase-1 observations. Inside any round the engine is
//! therefore exactly the churn-free pipeline: all observations read a
//! frozen plane, all RNG streams are per-node, and the plane swap is a
//! pure epoch flip. The boundary patch itself is a deterministic pure
//! function of the event sequence (the
//! [`stoneage_graph::DynamicGraph`] replica and the emitted
//! [`stoneage_graph::SlotPatch`]es are). Consequently the serial, joined,
//! and fused schedules stay **bit-identical** under churn:
//!
//! * the joined schedule patches right after its phase-2b merge and
//!   epoch flip — the same store state the serial loop patches;
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

use stoneage_core::{Letter, Protocol};
use stoneage_graph::{
    DynamicGraph, Graph, GraphBuilder, NodeId, SlotOp, SlotPatch, TopologyError, TopologyEvent,
};

use crate::async_exec::AsyncHook;
use crate::engine::FlatPorts;
use crate::pipeline::{BoundaryHook, RoundStep};
use crate::sim::Observer;
use crate::snapshot::{SnapshotError, BODY_KIND};
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
/// accumulates the [`ChurnSummary`]. One per run; the lockstep
/// pipeline's [`BoundaryHook`] on every schedule and both lockstep step
/// flavours, and the async event loop's [`AsyncHook`] on either queue.
pub(crate) struct ChurnCtl<'p> {
    plan: &'p ChurnPlan,
    /// The universe graph the run executes on.
    universe: &'p Graph,
    /// The run's inputs: a restarted node reboots from its own.
    inputs: &'p [usize],
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
        universe: &'p Graph,
        inputs: &'p [usize],
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
                .map_err(plan_config)?;
        }
        let mut scratch = overlay.clone();
        let mut sink = Vec::new();
        for &(_, ev) in &events {
            scratch
                .apply(universe, ev, &mut sink)
                .map_err(plan_config)?;
        }
        Ok(ChurnCtl {
            plan,
            universe,
            inputs,
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

    /// Whether events remain to be applied.
    pub(crate) fn exhausted(&self) -> bool {
        self.next == self.events.len()
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
    pub(crate) fn apply_next(&mut self) -> (TopologyEvent, bool) {
        let (_, ev) = self.events[self.next];
        self.next += 1;
        self.patches.clear();
        let effective = self
            .overlay
            .apply(self.universe, ev, &mut self.patches)
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
    pub(crate) fn patch_ports(&self, ports: &mut FlatPorts) {
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
                *ports = self.oracle.rebuild(self.universe, &self.overlay, ports);
            }
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
    pub(crate) fn fast_forward(&mut self, k: u64) -> Result<(), ExecError> {
        if k > self.events.len() as u64 {
            return Err(ExecError::Snapshot(SnapshotError::DigestMismatch {
                field: "churn cursor",
            }));
        }
        for _ in 0..k {
            let _ = self.apply_next();
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

/// The churn controller as the lockstep pipeline's boundary hook: a
/// crashed node sits rounds out, and the run ends only once the
/// schedule is exhausted (a run may be all-decided while a restart is
/// still scheduled).
impl BoundaryHook for ChurnCtl<'_> {
    #[inline]
    fn live(&self, v: usize) -> bool {
        self.overlay.live_nodes()[v]
    }

    fn due(&self, round: u64) -> bool {
        self.peek_round().is_some_and(|r| r <= round)
    }

    /// Applies every event due at the boundary after `round`: updates
    /// the overlay, patches `ports` (incrementally or via the
    /// [`ChurnOracle`] per the plan's [`PatchMode`] — after **every**
    /// effective event, so same-round crash + restart sequences agree
    /// bit-for-bit between the modes), resets restarted nodes to their
    /// protocol's `restart_state`, and maintains the undecided counter.
    /// Crashed nodes leave the counter (they are exempt from
    /// termination); restarted ones re-enter it.
    fn apply<St: RoundStep>(
        &mut self,
        round: u64,
        step: &St,
        states: &mut [St::State],
        undecided: &mut isize,
        ports: &mut FlatPorts,
    ) {
        while self.due(round) {
            let (ev, effective) = self.apply_next();
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
                    let v = v as usize;
                    states[v] = step.protocol().restart_state(self.inputs[v]);
                    // A state write δ did not make: the node must step
                    // next round even if no delivery changes its counts.
                    ports.wake(v);
                    if !step.decided(&states[v]) {
                        *undecided += 1;
                    }
                }
                TopologyEvent::EdgeInsert(..) | TopologyEvent::EdgeDelete(..) => {}
            }
            self.patch_ports(ports);
        }
    }

    fn exhausted(&self) -> bool {
        ChurnCtl::exhausted(self)
    }

    fn setup(&mut self, ports: &mut FlatPorts) {
        ChurnCtl::setup(self, ports)
    }

    /// On resume the restored store already reflects the setup patches
    /// and every boundary up to the snapshot round, so only the overlay,
    /// counters and cursor are rebuilt. A snapshot without a cursor
    /// belongs to a churn-free run.
    fn resume(&mut self, cursor: Option<u64>) -> Result<(), ExecError> {
        match cursor {
            Some(k) => self.fast_forward(k),
            None => Err(BODY_KIND.into()),
        }
    }

    fn cursor(&self) -> Option<u64> {
        Some(ChurnCtl::cursor(self))
    }

    fn summary(&self) -> Option<ChurnSummary> {
        Some(self.finish())
    }
}

/// The churn controller as the async event loop's hook: boundaries
/// apply at absolute time `t = r` (see the `async_exec` module docs),
/// and every event is stamped with its node's incarnation.
impl AsyncHook for ChurnCtl<'_> {
    const STAMPED: bool = true;
    fn next_boundary(&self) -> Option<f64> {
        self.peek_round().map(|r| r as f64)
    }
    fn boundary<P: Protocol>(
        &mut self,
        protocol: &P,
        states: &mut [P::State],
        ports: &mut FlatPorts,
        pending: &mut [bool],
    ) -> Option<TopologyEvent> {
        let (ev, effective) = self.apply_next();
        if !effective {
            return None;
        }
        if let TopologyEvent::Restart(v) = ev {
            states[v as usize] = protocol.restart_state(self.inputs[v as usize]);
        }
        // A patched slot never carries a stale pending mark: retired
        // slots have no observable letter, revived ones hold σ₀ as a
        // fresh registration would.
        for p in self.patches() {
            pending[p.slot as usize] = false;
        }
        self.patch_ports(ports);
        Some(ev)
    }
}

/// A malformed plan as the builder's configuration error.
pub(crate) fn plan_config(e: TopologyError) -> ExecError {
    ExecError::Config {
        reason: format!("churn plan: {e}"),
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
        let err = ChurnCtl::new(&plan, &g, &g, &[], Letter(0)).err().unwrap();
        assert!(matches!(err, ExecError::Config { ref reason }
            if reason.contains("out of range")));
        let plan = ChurnPlan::new().at(1, TopologyEvent::EdgeInsert(0, 3));
        let err = ChurnCtl::new(&plan, &g, &g, &[], Letter(0)).err().unwrap();
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
