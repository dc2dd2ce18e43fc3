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
//! This module provides the extended protocol trait and its per-node
//! step for the shared lockstep [`crate::pipeline`] (the
//! [`crate::Backend::Scoped`] backend). The step also records every
//! scoped delivery, which is how the matching runner extracts the
//! matched pairs (a node's constant-size output cannot name its partner;
//! the *edge* is the engine-level witness).

use rand::rngs::SmallRng;
use rand::Rng;

use stoneage_core::{Choices, Letter, ObsVec, Protocol};
use stoneage_graph::{Graph, NodeId};

use crate::churn::ChurnSummary;
use crate::faults::FaultSummary;
use crate::pipeline::{DeliverySink, PortRead, RoundStep};
use crate::sim::Detail;
use crate::snapshot;

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
    type Proto = P;
    type Emission = ScopedEmission;
    type Witness = Vec<ScopedDelivery>;

    /// Distinguishes the scoped streams from the plain sync ones.
    const SALT: u64 = 0x5C0B;
    const BACKEND: u8 = snapshot::BACKEND_SCOPED;

    fn protocol(&self) -> &P {
        self.0
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

    fn restore_witness(witness: Option<Vec<ScopedDelivery>>) -> Option<Vec<ScopedDelivery>> {
        witness
    }

    fn detail(
        witness: Vec<ScopedDelivery>,
        _sent: u64,
        churn: Option<ChurnSummary>,
        faults: Option<FaultSummary>,
    ) -> Detail {
        Detail::Scoped {
            scoped_deliveries: witness,
            churn,
            faults,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ExecError;
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
