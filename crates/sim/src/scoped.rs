//! The **port-select extension** of the nFSM model, used only by the
//! maximal-matching protocol.
//!
//! Section 1 of the paper announces an efficient maximal-matching protocol
//! "but this requires a small unavoidable modification of the nFSM model
//! that goes beyond the scope of the current version of the paper". A
//! broadcast-only node cannot distinguish, or be distinguished by, one
//! particular neighbor — yet a matching is precisely a set of
//! distinguished pairs — so *some* symmetry-breaking addressing primitive
//! is unavoidable. We adopt the smallest one we could design that
//! preserves requirement (M4) (constant-size FSMs, no port numbers in the
//! program): a transmission may be **scoped to a single uniformly random
//! port among those currently holding a given letter**. The FSM names
//! only letters; the engine resolves the port choice with the node's own
//! randomness.
//!
//! This module provides the extended protocol trait and a lockstep
//! synchronous engine for it. The engine also reports every scoped
//! delivery, which is how the matching runner extracts the matched pairs
//! (a node's constant-size output cannot name its partner; the *edge* is
//! the engine-level witness).

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use stoneage_core::{Choices, Letter, ObsVec, Protocol};
use stoneage_graph::{Graph, NodeId};

use crate::engine::PortPlanes;
use crate::faults::{FaultLayer, FaultSummary, FaultsArg};
#[cfg(feature = "parallel")]
use crate::parbuf::{ParallelPolicy, StealStats};
use crate::pipeline::{self, DeliverySink, PortRead, RoundEnd, RoundStep};
use crate::snapshot::{self, SnapArgs, SnapPlumb, SnapshotError};
use crate::sync_exec::compile_faults;
use crate::{splitmix64, ExecError};

/// An emission under the port-select extension.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ScopedEmission {
    /// Transmit nothing (`ε`).
    Silent,
    /// Ordinary nFSM broadcast to all neighbors.
    Broadcast(Letter),
    /// Deliver `send` to **one** uniformly random port currently holding
    /// `holding`; silently does nothing when no port qualifies.
    ToOnePortHolding {
        /// The letter to transmit.
        send: Letter,
        /// The qualifying port content.
        holding: Letter,
    },
}

/// A transition choice set under the port-select extension, held in the
/// same allocation-free [`Choices`] container as
/// [`stoneage_core::Transitions`].
#[derive(Clone, Debug)]
pub struct ScopedTransitions<S> {
    /// Candidate `(next state, emission)` pairs, drawn uniformly.
    pub choices: Choices<(S, ScopedEmission)>,
}

impl<S> ScopedTransitions<S> {
    /// A deterministic transition.
    pub fn det(state: S, emission: ScopedEmission) -> Self {
        ScopedTransitions {
            choices: [(state, emission)].into(),
        }
    }

    /// A uniform choice among the given pairs — a `Vec`, an array of up
    /// to three pairs, or a collected [`Choices`].
    ///
    /// # Panics
    /// Panics if `choices` is empty.
    pub fn uniform(choices: impl Into<Choices<(S, ScopedEmission)>>) -> Self {
        let choices = choices.into();
        assert!(!choices.is_empty());
        ScopedTransitions { choices }
    }
}

/// A multi-letter-query protocol under the port-select extension: the
/// third transition flavor over the shared
/// [`Protocol`] base (next to
/// [`stoneage_core::Fsm`] and [`stoneage_core::MultiFsm`]).
pub trait ScopedMultiFsm: Protocol {
    /// The transition function. The same contract as
    /// [`stoneage_core::MultiFsm::delta`]: a pure function of `q` and
    /// `obs` (no interior mutability, no global state), whose only
    /// randomness is the engine's uniform draw among the returned
    /// choices and the port draw of a
    /// [`ScopedEmission::ToOnePortHolding`] emission. The lockstep
    /// pipeline's quiescent-node skip is exact only under this contract.
    fn delta(&self, q: &Self::State, obs: &ObsVec) -> ScopedTransitions<Self::State>;
}

/// One scoped (port-selected) delivery, as witnessed by the engine.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ScopedDelivery {
    /// Round of the transmission.
    pub round: u64,
    /// The transmitting node.
    pub from: NodeId,
    /// The selected recipient.
    pub to: NodeId,
    /// The letter delivered.
    pub letter: Letter,
}

/// Result of a scoped synchronous execution.
#[derive(Clone, Debug)]
pub struct ScopedOutcome {
    /// Per-node outputs.
    pub outputs: Vec<u64>,
    /// Rounds until the first output configuration.
    pub rounds: u64,
    /// Every port-selected delivery, in round order.
    pub scoped_deliveries: Vec<ScopedDelivery>,
}

/// Resolves a `ToOnePortHolding` emission of `v` against the frozen
/// ports: `None` when no port qualifies, otherwise the index of the
/// uniformly drawn qualifying port.
///
/// The incremental per-letter counts give the number of qualifying ports
/// up front — O(1) in the dense layout, a binary search over `v`'s live
/// `(letter, count)` pairs in the sparse layout (|Σ| >
/// [`crate::engine::SPARSE_SIGMA_THRESHOLD`]) — so the draw happens
/// *before* any port scan and the scan early-exits at the drawn
/// qualifying port instead of collecting every candidate. The draw is
/// `gen_range(0 .. count)`, exactly the draw the collect-then-index
/// implementation made (`count` equals the candidate-list length), so
/// per-node RNG streams and therefore outcomes are unchanged.
#[inline]
fn select_scoped_port<Pr: PortRead, R: Rng>(
    graph: &Graph,
    ports: &Pr,
    v: NodeId,
    holding: Letter,
    rng: &mut R,
) -> Option<usize> {
    let count = ports.count(v as usize, holding) as usize;
    if count == 0 {
        return None;
    }
    let j = rng.gen_range(0..count);
    let mut seen = 0usize;
    for (k, &l) in ports.ports_of(graph, v).iter().enumerate() {
        if l == holding {
            if seen == j {
                return Some(k);
            }
            seen += 1;
        }
    }
    unreachable!("incremental counts track every stored letter")
}

/// The [`RoundStep`] of the port-select extension: draw the transition
/// uniformly, then resolve the emission — broadcasts through the
/// reverse-port map, port-selected sends via the early-exit count-draw
/// of [`select_scoped_port`] (consuming the sender's own RNG stream) —
/// and record every scoped delivery in the witness transcript.
pub(crate) struct ScopedStep<'p, P>(pub(crate) &'p P);

impl<P: ScopedMultiFsm> RoundStep for ScopedStep<'_, P> {
    type State = P::State;
    type Emission = ScopedEmission;
    type Witness = Vec<ScopedDelivery>;

    fn bound(&self) -> u8 {
        self.0.bound()
    }

    fn decided(&self, q: &P::State) -> bool {
        self.0.output(q).is_some()
    }

    fn restart_state(&self, input: usize) -> P::State {
        self.0.restart_state(input)
    }

    fn transition(
        &self,
        q: &P::State,
        obs: &ObsVec,
        rng: &mut SmallRng,
    ) -> (P::State, ScopedEmission, bool) {
        let choices = self.0.delta(q, obs).choices;
        let single = choices.len() == 1;
        let (next, emission) = choices.draw(rng);
        (next, emission, single)
    }

    fn silent(emission: &ScopedEmission) -> bool {
        *emission == ScopedEmission::Silent
    }

    fn resolve<Pr: PortRead, Sk: DeliverySink>(
        &self,
        round: u64,
        v: NodeId,
        emission: ScopedEmission,
        graph: &Graph,
        ports: &Pr,
        rng: &mut SmallRng,
        sink: &mut Sk,
        witness: &mut Vec<ScopedDelivery>,
    ) {
        match emission {
            ScopedEmission::Silent => {}
            ScopedEmission::Broadcast(letter) => sink.broadcast(graph, v, letter),
            ScopedEmission::ToOnePortHolding { send, holding } => {
                if let Some(k) = select_scoped_port(graph, ports, v, holding, rng) {
                    let u = graph.neighbors(v)[k];
                    let rp = graph.reverse_ports(v)[k] as usize;
                    sink.send_one(u, graph.csr_offset(u) + rp, send);
                    witness.push(ScopedDelivery {
                        round,
                        from: v,
                        to: u,
                        letter: send,
                    });
                }
            }
        }
    }

    fn absorb(into: &mut Vec<ScopedDelivery>, from: &mut Vec<ScopedDelivery>) {
        into.append(from);
    }

    fn witness_slice(witness: &Vec<ScopedDelivery>) -> Option<&[ScopedDelivery]> {
        Some(witness)
    }
}

/// The per-node RNG streams of the scoped engines: a pure function of
/// `(seed, node id)` with a salt distinguishing them from the plain sync
/// streams, shared by the serial and parallel schedules.
pub(crate) fn scoped_rngs(n: usize, seed: u64) -> Vec<SmallRng> {
    (0..n as u64)
        .map(|v| SmallRng::seed_from_u64(splitmix64(seed ^ splitmix64(v ^ 0x5C0B))))
        .collect()
}

/// The engine state a scoped run starts from — fresh, or spliced from a
/// resume snapshot (which must carry a witness transcript, no churn
/// cursor, and a fault tally exactly when the run wires a fault plan; a
/// mismatch means it belongs to another backend/configuration). The
/// restored transcript already holds every scoped delivery up to the
/// snapshot boundary, so the resumed run's witness is the full-run
/// witness.
type ScopedStart<S> = (
    Vec<S>,
    PortPlanes,
    Vec<SmallRng>,
    Vec<ScopedDelivery>,
    SnapPlumb<S>,
    FaultSummary,
);

fn scoped_start<P: ScopedMultiFsm>(
    protocol: &P,
    graph: &Graph,
    inputs: &[usize],
    seed: u64,
    snap: &SnapArgs<'_, P::State>,
    faulted: bool,
) -> Result<ScopedStart<P::State>, ExecError> {
    let sigma = protocol.alphabet().len();
    if let Some(s) = snap.resume {
        let splice = snapshot::resume_lockstep(s, &snap.codec(), graph, sigma)?;
        let (Some(witness), None) = (splice.witness, splice.churn_next) else {
            return Err(ExecError::Snapshot(SnapshotError::DigestMismatch {
                field: "snapshot body kind",
            }));
        };
        if splice.faults.is_some() != faulted {
            return Err(ExecError::Snapshot(SnapshotError::DigestMismatch {
                field: "snapshot body kind",
            }));
        }
        let tally = splice.faults.unwrap_or_default();
        let plumb = SnapPlumb::from_args(snap, Some(splice.point));
        Ok((
            splice.states,
            splice.planes,
            splice.rngs,
            witness,
            plumb,
            tally,
        ))
    } else {
        Ok((
            inputs.iter().map(|&i| protocol.initial_state(i)).collect(),
            PortPlanes::new(graph, sigma, protocol.initial_letter()),
            scoped_rngs(graph.node_count(), seed),
            Vec::new(),
            SnapPlumb::from_args(snap, None),
            FaultSummary::default(),
        ))
    }
}

fn scoped_end<P: ScopedMultiFsm>(
    protocol: &P,
    states: Vec<P::State>,
    scoped_deliveries: Vec<ScopedDelivery>,
    end: RoundEnd,
) -> Result<(ScopedOutcome, Vec<P::State>), ExecError> {
    match end {
        RoundEnd::Done { rounds, .. } => {
            let outputs = states.iter().map(|q| protocol.output(q).unwrap()).collect();
            Ok((
                ScopedOutcome {
                    outputs,
                    rounds,
                    scoped_deliveries,
                },
                states,
            ))
        }
        RoundEnd::Limit { limit, unfinished } => Err(ExecError::RoundLimit { limit, unfinished }),
    }
}

/// The scoped synchronous engine: the shared [`crate::pipeline`] round
/// loop over an epoch-split [`PortPlanes`] store, invoking `observer`
/// after every round, returning the final per-node state vector next to
/// the legacy outcome. The [`crate::Simulation`] builder and (through
/// it) the legacy `run_scoped*` shims land here.
///
/// Inputs are validated by the builder; the legacy shims pass all zeros,
/// which reproduces the historical `initial_state(0)` seeding exactly.
#[allow(clippy::too_many_arguments)]
pub(crate) fn exec_scoped<P, O>(
    protocol: &P,
    graph: &Graph,
    inputs: &[usize],
    seed: u64,
    max_rounds: u64,
    observer: &mut O,
    snap: &SnapArgs<'_, P::State>,
    faults: FaultsArg<'_>,
) -> Result<(ScopedOutcome, Vec<P::State>), ExecError>
where
    P: ScopedMultiFsm,
    O: crate::sync_exec::SyncObserver<P::State>,
{
    debug_assert_eq!(
        inputs.len(),
        graph.node_count(),
        "the builder validates input length"
    );
    let (fctx, fout) = compile_faults(faults, graph, protocol.alphabet().len())?;
    let (mut states, mut planes, mut rngs, mut scoped_deliveries, plumb, tally) =
        scoped_start(protocol, graph, inputs, seed, snap, fctx.is_some())?;
    let mut layer = FaultLayer::new(fctx.as_ref(), tally);
    let end = pipeline::run_serial(
        &ScopedStep(protocol),
        graph,
        &mut planes,
        &mut states,
        &mut rngs,
        max_rounds,
        observer,
        &mut scoped_deliveries,
        &plumb,
        &mut layer,
    );
    if let Some(out) = fout {
        *out = Some(layer.tally);
    }
    scoped_end(protocol, states, scoped_deliveries, end)
}

/// The parallel twin of [`exec_scoped`], on the shared
/// [`crate::pipeline`] parallel round loop: worker `i` owns a contiguous
/// node chunk and, per round, applies each of its nodes' transitions and
/// immediately resolves the node's emission — broadcasts through the
/// reverse-port map, port-selected sends via the same early-exit
/// count-draw the serial engine uses — into a private
/// [`crate::parbuf::DeliveryBuffer`] plus a worker-local
/// [`ScopedDelivery`] transcript. Phase 2b runs per the policy's
/// [`crate::parbuf::RoundMode`]: merged between rounds (`Joined`) or
/// deferred into the next round's worker scope over per-worker
/// [`crate::engine::PlaneShard`]s (`Fused`, one join per round).
///
/// Bit-identical to [`exec_scoped`] for every seed, worker count, merge
/// strategy, and round mode:
///
/// * a node's RNG draws happen in the serial order (transition draw, then
///   target draw) because both phases of a node run back to back on its
///   own stream, and target selection reads only the frozen read plane —
///   which no worker mutates while any observation of the round can see
///   it;
/// * the scoped-delivery witness list is the round-major concatenation
///   of the worker transcripts in worker order, i.e. ascending sender
///   order — exactly the serial engine's push order;
/// * the landed port store is byte-identical by the slot-uniqueness /
///   commutative-counts argument of the [`crate::parbuf`] module docs.
///
/// `observer` fires after each round's states are complete — the same
/// post-round states the serial engine reports. The
/// [`crate::Simulation`] builder delegates to the serial engine when
/// [`ParallelPolicy::use_serial`] says the instance is too small, so
/// this function always runs the chunked machinery.
#[cfg(feature = "parallel")]
#[allow(clippy::too_many_arguments)]
pub(crate) fn exec_scoped_parallel<P, O>(
    protocol: &P,
    graph: &Graph,
    inputs: &[usize],
    seed: u64,
    max_rounds: u64,
    policy: &ParallelPolicy,
    observer: &mut O,
    snap: &SnapArgs<'_, P::State>,
    faults: FaultsArg<'_>,
    steals: &mut StealStats,
) -> Result<(ScopedOutcome, Vec<P::State>), ExecError>
where
    P: ScopedMultiFsm + Sync,
    P::State: Send + Sync,
    O: crate::sync_exec::SyncObserver<P::State>,
{
    debug_assert_eq!(
        inputs.len(),
        graph.node_count(),
        "the builder validates input length"
    );
    let (fctx, fout) = compile_faults(faults, graph, protocol.alphabet().len())?;
    // The identical per-node streams (or restored mid-run streams) of
    // the serial engine.
    let (mut states, mut planes, mut rngs, mut scoped_deliveries, plumb, tally) =
        scoped_start(protocol, graph, inputs, seed, snap, fctx.is_some())?;
    let mut layer = FaultLayer::new(fctx.as_ref(), tally);
    let end = pipeline::run_parallel(
        &ScopedStep(protocol),
        graph,
        &mut planes,
        &mut states,
        &mut rngs,
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
    scoped_end(protocol, states, scoped_deliveries, end)
}

#[cfg(test)]
mod tests {
    use super::*;
    use stoneage_core::Alphabet;
    use stoneage_graph::generators;

    // In-crate builder twin (testkit's harness links the other build of
    // this crate; see the note in `sync_exec`'s tests).

    /// Builder twin of the legacy `run_scoped`.
    fn run_scoped<P>(
        protocol: &P,
        graph: &Graph,
        seed: u64,
        max_rounds: u64,
    ) -> Result<ScopedOutcome, ExecError>
    where
        P: ScopedMultiFsm + Sync,
        P::State: Send + Sync,
    {
        crate::Simulation::scoped(protocol, graph)
            .seed(seed)
            .budget(max_rounds)
            .run()
            .map(|o| o.into_scoped_outcome().expect("scoped backend"))
    }

    /// Toy scoped protocol: node 0-behavior is id-free — every node beeps
    /// FREE once, then pokes exactly one FREE port with POKE, then outputs
    /// how many pokes it got (b = 2).
    #[derive(Clone, Debug)]
    struct Poke {
        alphabet: Alphabet,
    }

    impl Poke {
        fn new() -> Self {
            Poke {
                alphabet: Alphabet::new(["INIT", "FREE", "POKE"]),
            }
        }
    }

    #[derive(Clone, PartialEq, Eq, Debug)]
    enum PokeState {
        Announce,
        Poke,
        Wait,
        Done(u64),
    }

    impl Protocol for Poke {
        type State = PokeState;

        fn alphabet(&self) -> &Alphabet {
            &self.alphabet
        }

        fn bound(&self) -> u8 {
            2
        }

        fn initial_letter(&self) -> Letter {
            Letter(0)
        }

        fn initial_state(&self, _input: usize) -> PokeState {
            PokeState::Announce
        }

        fn output(&self, q: &PokeState) -> Option<u64> {
            match q {
                PokeState::Done(v) => Some(*v),
                _ => None,
            }
        }
    }

    impl ScopedMultiFsm for Poke {
        fn delta(&self, q: &PokeState, obs: &ObsVec) -> ScopedTransitions<PokeState> {
            match q {
                PokeState::Announce => {
                    ScopedTransitions::det(PokeState::Poke, ScopedEmission::Broadcast(Letter(1)))
                }
                PokeState::Poke => ScopedTransitions::det(
                    PokeState::Wait,
                    ScopedEmission::ToOnePortHolding {
                        send: Letter(2),
                        holding: Letter(1),
                    },
                ),
                PokeState::Wait => ScopedTransitions::det(
                    PokeState::Done(obs.get(Letter(2)).raw() as u64),
                    ScopedEmission::Silent,
                ),
                PokeState::Done(v) => {
                    ScopedTransitions::det(PokeState::Done(*v), ScopedEmission::Silent)
                }
            }
        }
    }

    #[test]
    fn each_node_pokes_exactly_one_neighbor() {
        let g = generators::complete(6);
        let out = run_scoped(&Poke::new(), &g, 3, 100).unwrap();
        // 6 nodes × 1 scoped send each.
        assert_eq!(out.scoped_deliveries.len(), 6);
        // Total pokes received equals pokes sent; counts are truncated at
        // b = 2 in outputs but deliveries are exact.
        let mut received = [0usize; 6];
        for d in &out.scoped_deliveries {
            assert_eq!(d.letter, Letter(2));
            assert_ne!(d.from, d.to);
            received[d.to as usize] += 1;
        }
        for (v, &r) in received.iter().enumerate() {
            assert_eq!(out.outputs[v], r.min(2) as u64);
        }
    }

    #[test]
    fn scoping_with_no_qualifying_port_is_silent() {
        // Isolated nodes: no FREE port ever, no deliveries.
        let g = stoneage_graph::Graph::empty(3);
        let out = run_scoped(&Poke::new(), &g, 0, 100).unwrap();
        assert!(out.scoped_deliveries.is_empty());
        assert_eq!(out.outputs, vec![0, 0, 0]);
    }

    #[test]
    fn scoped_runs_are_deterministic_per_seed() {
        let g = generators::gnp(20, 0.3, 1);
        let a = run_scoped(&Poke::new(), &g, 7, 100).unwrap();
        let b = run_scoped(&Poke::new(), &g, 7, 100).unwrap();
        assert_eq!(a.scoped_deliveries, b.scoped_deliveries);
        assert_eq!(a.outputs, b.outputs);
    }

    #[test]
    fn target_choice_is_random_across_seeds() {
        let g = generators::star(5);
        let targets: std::collections::HashSet<NodeId> = (0..30)
            .map(|seed| {
                let out = run_scoped(&Poke::new(), &g, seed, 100).unwrap();
                out.scoped_deliveries
                    .iter()
                    .find(|d| d.from == 0)
                    .unwrap()
                    .to
            })
            .collect();
        assert!(targets.len() > 1, "center should poke varying leaves");
    }
}
