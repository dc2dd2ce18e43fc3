//! A minimal single-letter **wave** (broadcast) protocol.
//!
//! Source nodes (input symbol 1) beep; every node that hears a beep beeps
//! once itself and outputs 1. On a connected graph with a source, the
//! synchronous round complexity is *exactly* `ecc(sources) + 1`, which
//! makes the wave an ideal calibration subject for the synchronizer
//! overhead experiment (E7): the paper's Theorem 3.1 predicts the
//! asynchronous simulation completes within a constant factor of that.
//!
//! The protocol also demonstrates per-node *inputs* (the choice of initial
//! state from `Q_I`, Section 2) — something the MIS and coloring protocols
//! do not exercise.

use stoneage_core::{Alphabet, Letter, TableProtocol, TableProtocolBuilder, Transitions};

/// Builds the wave protocol as an explicit [`TableProtocol`] (`b = 1`).
///
/// Input symbols: `0` = idle node, `1` = source. Output: every node
/// outputs 1 once the wave reaches it; the execution reaches an output
/// configuration when the wave has covered the graph (never, on a graph
/// with an uncovered component — callers should pass connected graphs or
/// put a source in every component).
pub fn wave_protocol() -> TableProtocol {
    let alphabet = Alphabet::new(["BEEP", "QUIET"]);
    let beep = Letter(0);
    let quiet = Letter(1);
    let mut b = TableProtocolBuilder::new("wave", alphabet, 1, quiet);
    let idle = b.add_state("idle", beep);
    let src = b.add_state("source", beep);
    let done = b.add_output_state("done", beep, 1);
    b.add_input_state(idle); // input 0
    b.add_input_state(src); // input 1
    b.set_transition(idle, 0, Transitions::det(idle, None));
    b.set_transition(idle, 1, Transitions::det(done, Some(beep)));
    b.set_transition_all(src, Transitions::det(done, Some(beep)));
    b.set_transition_all(done, Transitions::det(done, None));
    b.build().expect("wave protocol is well-formed")
}

/// Convenience: the input vector marking exactly the given sources.
pub fn wave_inputs(n: usize, sources: &[u32]) -> Vec<usize> {
    let mut inputs = vec![0usize; n];
    for &s in sources {
        inputs[s as usize] = 1;
    }
    inputs
}

#[cfg(test)]
mod tests {
    use super::*;
    use stoneage_core::AsMulti;
    use stoneage_graph::{generators, traversal, Graph};
    use stoneage_sim::{ExecError, Simulation};

    /// Rounds until the wave from `inputs`' sources covers `g`, within
    /// `budget` rounds.
    fn wave_rounds(g: &Graph, inputs: &[usize], budget: u64) -> Result<u64, ExecError> {
        let p = AsMulti(wave_protocol());
        let out = Simulation::sync(&p, g)
            .inputs(inputs)
            .budget(budget)
            .run()?;
        assert!(out.outputs.iter().all(|&o| o == 1));
        Ok(out.rounds().unwrap())
    }

    #[test]
    fn wave_rounds_equal_eccentricity_plus_one() {
        for (g, src) in [
            (generators::path(20), 0u32),
            (generators::path(21), 10),
            (generators::cycle(16), 3),
            (generators::random_tree(50, 4), 7),
            (generators::grid(5, 8), 0),
        ] {
            let inputs = wave_inputs(g.node_count(), &[src]);
            let ecc = traversal::eccentricity(&g, src) as u64;
            assert_eq!(wave_rounds(&g, &inputs, 1_000), Ok(ecc + 1), "graph {g:?}");
        }
    }

    #[test]
    fn multiple_sources_use_min_distance() {
        let g = generators::path(30);
        let inputs = wave_inputs(30, &[0, 29]);
        // Farthest node from {0, 29} on P_30 is at distance 14.
        assert_eq!(wave_rounds(&g, &inputs, 1_000), Ok(15));
    }

    #[test]
    fn waveless_graph_never_terminates() {
        let g = generators::path(4);
        let inputs = wave_inputs(4, &[]);
        let err = wave_rounds(&g, &inputs, 100).unwrap_err();
        assert!(matches!(err, ExecError::RoundLimit { .. }));
    }

    #[test]
    fn source_only_graph_finishes_in_one_round() {
        assert_eq!(wave_rounds(&Graph::empty(1), &[1], 1_000), Ok(1));
    }
}
