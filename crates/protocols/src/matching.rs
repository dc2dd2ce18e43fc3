//! Maximal matching under the **port-select extension** — the paper's
//! deferred result (Section 1: "we also develop an efficient algorithm
//! that computes a maximal matching in arbitrary graphs, but this requires
//! a small unavoidable modification of the nFSM model").
//!
//! The extension (see [`stoneage_sim::scoped`]) lets a transmission be
//! scoped to one uniformly random port holding a given letter. On top of
//! it, matching is a proposal dance in four-round phases (`b = 1`):
//!
//! 1. every free node broadcasts `FREE`;
//! 2. each free node flips a coin; *proposers* scope a `PROPOSE` to one
//!    random `FREE` port (a node with no free neighbor instead retires,
//!    broadcasting `GONE`);
//! 3. *listeners* holding a `PROPOSE` scope an `ACCEPT` back to one random
//!    `PROPOSE` port — this pins the matched edge;
//! 4. proposers that hear an `ACCEPT`, and the listeners that sent one,
//!    broadcast `MATCHED` and halt; everyone else retries.
//!
//! Because a `PROPOSE` is delivered to exactly one listener and each
//! proposer sends exactly one, every `ACCEPT` lands at a proposer that
//! proposed to that very listener: the accepted edges form a matching by
//! construction. A node's constant-size output can only say *whether* it
//! matched; the matched *edges* are recovered from the engine's scoped
//! delivery log (the `ACCEPT` deliveries), which
//! [`run_matching`] does.

use stoneage_core::{Alphabet, Letter, ObsVec};
use stoneage_graph::{Graph, NodeId};
use stoneage_sim::{ExecError, ScopedEmission, ScopedMultiFsm, ScopedTransitions, Simulation};

const L_FREE: Letter = Letter(1);
const L_PROPOSE: Letter = Letter(2);
const L_ACCEPT: Letter = Letter(3);
const L_MATCHED: Letter = Letter(4);
const L_GONE: Letter = Letter(5);

/// A state of the matching protocol (suffix = position in the 4-round
/// phase).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum MatchingState {
    /// Free, about to broadcast `FREE` (round 1).
    F1,
    /// Free, about to coin-flip into proposer/listener (round 2).
    F2,
    /// Proposer idling through round 3.
    P3,
    /// Proposer checking for an `ACCEPT` (round 4).
    P4,
    /// Listener checking for proposals (round 3).
    L3,
    /// Listener that accepted; announces the match (round 4).
    A4,
    /// Listener without proposals, idling round 4.
    L4,
    /// Output: matched.
    DoneMatched,
    /// Output: unmatched, with no free neighbor left.
    DoneUnmatched,
}

/// The maximal-matching protocol as a [`ScopedMultiFsm`] with `b = 1`.
#[derive(Clone, Debug)]
pub struct MatchingProtocol {
    alphabet: Alphabet,
}

impl Default for MatchingProtocol {
    fn default() -> Self {
        Self::new()
    }
}

impl MatchingProtocol {
    /// Builds the protocol.
    pub fn new() -> Self {
        MatchingProtocol {
            alphabet: Alphabet::new(["INIT", "FREE", "PROPOSE", "ACCEPT", "MATCHED", "GONE"]),
        }
    }
}

impl stoneage_core::Protocol for MatchingProtocol {
    type State = MatchingState;

    fn alphabet(&self) -> &Alphabet {
        &self.alphabet
    }

    fn bound(&self) -> u8 {
        1
    }

    fn initial_letter(&self) -> Letter {
        Letter(0)
    }

    fn initial_state(&self, _input: usize) -> MatchingState {
        MatchingState::F1
    }

    fn output(&self, q: &MatchingState) -> Option<u64> {
        match q {
            MatchingState::DoneMatched => Some(1),
            MatchingState::DoneUnmatched => Some(0),
            _ => None,
        }
    }
}

impl ScopedMultiFsm for MatchingProtocol {
    fn delta(&self, q: &MatchingState, obs: &ObsVec) -> ScopedTransitions<MatchingState> {
        use MatchingState as S;
        match q {
            S::F1 => ScopedTransitions::det(S::F2, ScopedEmission::Broadcast(L_FREE)),
            S::F2 => {
                if obs.get(L_FREE).is_zero() {
                    // No free neighbor can ever appear again: retire.
                    return ScopedTransitions::det(
                        S::DoneUnmatched,
                        ScopedEmission::Broadcast(L_GONE),
                    );
                }
                ScopedTransitions::uniform([
                    (
                        S::P3,
                        ScopedEmission::ToOnePortHolding {
                            send: L_PROPOSE,
                            holding: L_FREE,
                        },
                    ),
                    (S::L3, ScopedEmission::Silent),
                ])
            }
            S::P3 => ScopedTransitions::det(S::P4, ScopedEmission::Silent),
            S::P4 => {
                if obs.get(L_ACCEPT).is_zero() {
                    ScopedTransitions::det(S::F1, ScopedEmission::Silent)
                } else {
                    ScopedTransitions::det(S::DoneMatched, ScopedEmission::Broadcast(L_MATCHED))
                }
            }
            S::L3 => {
                if obs.get(L_PROPOSE).is_zero() {
                    ScopedTransitions::det(S::L4, ScopedEmission::Silent)
                } else {
                    ScopedTransitions::det(
                        S::A4,
                        ScopedEmission::ToOnePortHolding {
                            send: L_ACCEPT,
                            holding: L_PROPOSE,
                        },
                    )
                }
            }
            S::A4 => ScopedTransitions::det(S::DoneMatched, ScopedEmission::Broadcast(L_MATCHED)),
            S::L4 => ScopedTransitions::det(S::F1, ScopedEmission::Silent),
            S::DoneMatched => ScopedTransitions::det(S::DoneMatched, ScopedEmission::Silent),
            S::DoneUnmatched => ScopedTransitions::det(S::DoneUnmatched, ScopedEmission::Silent),
        }
    }
}

/// Result of a matching run.
#[derive(Clone, Debug)]
pub struct MatchingOutcome {
    /// The matched edges, recovered from the `ACCEPT` deliveries.
    pub matched: Vec<(NodeId, NodeId)>,
    /// Per-node outputs (1 = matched).
    pub outputs: Vec<u64>,
    /// Synchronous rounds used.
    pub rounds: u64,
}

/// Runs the matching protocol and extracts the matched edges.
pub fn run_matching(
    graph: &Graph,
    seed: u64,
    max_rounds: u64,
) -> Result<MatchingOutcome, ExecError> {
    let out = Simulation::scoped(&MatchingProtocol::new(), graph)
        .seed(seed)
        .budget(max_rounds)
        .run()?;
    let matched = (out.scoped_deliveries().expect("a scoped run").iter())
        .filter(|d| d.letter == L_ACCEPT)
        .map(|d| (d.to, d.from)) // (proposer, listener)
        .collect();
    Ok(MatchingOutcome {
        matched,
        rounds: out.rounds().expect("a lockstep run"),
        outputs: out.outputs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use stoneage_graph::{generators, validate};

    #[test]
    fn produces_maximal_matchings_across_families() {
        let graphs = [
            ("path", generators::path(30)),
            ("cycle", generators::cycle(17)),
            ("complete", generators::complete(10)),
            ("star", generators::star(12)),
            ("gnp", generators::gnp(50, 0.1, 3)),
            ("tree", generators::random_tree(40, 5)),
            ("two", generators::path(2)),
            ("empty", stoneage_graph::Graph::empty(4)),
        ];
        for (name, g) in &graphs {
            for seed in 0..8 {
                let out = run_matching(g, seed, 100_000)
                    .unwrap_or_else(|e| panic!("{name} seed {seed}: {e}"));
                assert!(
                    validate::is_maximal_matching(g, &out.matched),
                    "{name} seed {seed}: {:?}",
                    out.matched
                );
                // Outputs agree with the recovered edges.
                let mut touched = vec![false; g.node_count()];
                for &(a, b) in &out.matched {
                    touched[a as usize] = true;
                    touched[b as usize] = true;
                }
                for (v, &t) in touched.iter().enumerate() {
                    assert_eq!(out.outputs[v] == 1, t, "{name} node {v}");
                }
            }
        }
    }

    #[test]
    fn phases_are_four_rounds() {
        // Matches complete at round 4 of a phase; retirements (no free
        // neighbor) complete at round 2 — the terminal round is one of
        // those two positions.
        let g = generators::gnp(30, 0.2, 1);
        let out = run_matching(&g, 2, 100_000).unwrap();
        assert!(
            out.rounds.is_multiple_of(4) || out.rounds % 4 == 2,
            "rounds = {}",
            out.rounds
        );
    }

    #[test]
    fn isolated_nodes_retire_unmatched() {
        let g = stoneage_graph::Graph::empty(3);
        let out = run_matching(&g, 0, 100).unwrap();
        assert!(out.matched.is_empty());
        assert_eq!(out.outputs, vec![0, 0, 0]);
    }

    #[test]
    fn rounds_scale_gently_with_n() {
        for &n in &[64usize, 256, 1024] {
            let g = generators::gnp(n, 6.0 / n as f64, 11);
            let out = run_matching(&g, 11, 1_000_000).unwrap();
            let bound = 40.0 * (n as f64).log2();
            assert!((out.rounds as f64) < bound, "n={n}: {} rounds", out.rounds);
        }
    }
}
