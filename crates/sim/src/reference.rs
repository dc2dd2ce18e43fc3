//! The pre-flat **reference executor**, kept as a differential-testing
//! oracle and benchmark baseline.
//!
//! This is the synchronous engine as it stood before the flat delivery
//! engine ([`crate::engine`]): nested `Vec<Vec<Letter>>` ports, a
//! per-delivery `port_of` binary search, a freshly collected [`ObsVec`]
//! per node per round, and a full O(|V|) output scan for termination.
//! The flat sync engine behind [`crate::Simulation`] must produce
//! **bit-identical** outcomes to this
//! executor for every `(protocol, graph, seed)` — that contract is pinned
//! by `tests/flat_engine.rs` — and the engine-throughput bench measures
//! the flat engine's speedup against it.
//!
//! Do not "optimize" this module; its value is being the slow, obviously
//! correct transcription of the semantics.

// The naive engine is kept textually close to the pre-flat executor, index
// loops included.
#![allow(clippy::needless_range_loop)]

use rand::rngs::SmallRng;
use rand::SeedableRng;

use stoneage_core::{BoundedCount, Letter, MultiFsm, ObsVec};
use stoneage_graph::Graph;

use crate::sim::{Cost, Detail, Outcome};
use crate::{splitmix64, ExecError};

/// Runs `protocol` on the naive reference engine with per-node `inputs`
/// and a budget of `max_rounds` rounds. Node `v` draws from the same
/// stream of `seed` as on the flat sync engine, so the two outcomes
/// agree field for field.
pub fn run_sync_reference<P: MultiFsm>(
    protocol: &P,
    graph: &Graph,
    inputs: &[usize],
    seed: u64,
    max_rounds: u64,
) -> Result<Outcome<P>, ExecError> {
    let n = graph.node_count();
    if inputs.len() != n {
        return Err(ExecError::InputLengthMismatch {
            nodes: n,
            inputs: inputs.len(),
        });
    }
    let sigma = protocol.alphabet().len();
    let b = protocol.bound();
    let sigma0 = protocol.initial_letter();

    let mut states: Vec<P::State> = inputs.iter().map(|&i| protocol.initial_state(i)).collect();
    // ports[v][k] = last letter delivered from graph.neighbors(v)[k].
    let mut ports: Vec<Vec<Letter>> = (0..n)
        .map(|v| vec![sigma0; graph.degree(v as u32)])
        .collect();
    let mut rngs: Vec<SmallRng> = (0..n as u64)
        .map(|v| SmallRng::seed_from_u64(splitmix64(seed ^ splitmix64(v))))
        .collect();

    let mut messages_sent = 0u64;
    let mut counts = vec![0usize; sigma];
    let mut emissions: Vec<Option<Letter>> = vec![None; n];

    let finished = |states: &[P::State]| states.iter().all(|q| protocol.output(q).is_some());

    if finished(&states) {
        return Ok(outcome(protocol, states, 0, messages_sent));
    }

    for round in 1..=max_rounds {
        // Phase 1: every node observes its ports and applies δ.
        for (v, port_row) in ports.iter().enumerate() {
            counts.iter_mut().for_each(|c| *c = 0);
            for &l in port_row {
                counts[l.index()] += 1;
            }
            let obs = ObsVec::new(
                counts
                    .iter()
                    .map(|&c| BoundedCount::from_count(c, b))
                    .collect(),
            );
            let transitions = protocol.delta(&states[v], &obs);
            let (next, emission) = transitions.sample(&mut rngs[v]);
            states[v] = next.clone();
            emissions[v] = *emission;
        }
        // Phase 2: deliver all emissions (ε leaves ports untouched).
        for v in 0..n {
            if let Some(letter) = emissions[v] {
                messages_sent += 1;
                for &u in graph.neighbors(v as u32) {
                    let port = graph
                        .port_of(u, v as u32)
                        .expect("neighbor lists are symmetric");
                    ports[u as usize][port] = letter;
                }
            }
        }
        if finished(&states) {
            return Ok(outcome(protocol, states, round, messages_sent));
        }
    }
    let unfinished = states
        .iter()
        .filter(|q| protocol.output(q).is_none())
        .count();
    Err(ExecError::RoundLimit {
        limit: max_rounds,
        unfinished,
    })
}

/// The outcome of a run that reached an output configuration.
fn outcome<P: MultiFsm>(
    protocol: &P,
    states: Vec<P::State>,
    rounds: u64,
    messages_sent: u64,
) -> Outcome<P> {
    Outcome {
        outputs: (states.iter())
            .map(|q| protocol.output(q).expect("checked"))
            .collect(),
        states,
        cost: Cost::Rounds(rounds),
        workers: 1,
        detail: Detail::Sync {
            messages_sent,
            churn: None,
            faults: None,
        },
    }
}
