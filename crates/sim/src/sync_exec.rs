#![allow(clippy::needless_range_loop)]

//! The lockstep synchronous backend's per-node step, on the flat
//! delivery engine.
//!
//! Implements the *locally synchronous environment* of Section 3.1 in its
//! strongest (lockstep) form, which trivially satisfies the two
//! synchronization properties: (S1) all nodes are in the same round, and
//! (S2) at the end of round `t + 1`, the port `ψ_u(v)` stores the message
//! transmitted by `v` in round `t` (or the last message transmitted prior
//! to round `t` — `ε` emissions do not overwrite ports).
//!
//! [`SyncStep`] is the [`RoundStep`] of this backend; the round loops,
//! the parallel schedules, churn, faults and checkpoints are the shared
//! [`crate::pipeline`], over the epoch-split
//! [`crate::engine::PortPlanes`] store. A round allocates nothing: ports
//! live in a flat CSR-indexed store with incremental per-letter counts
//! ([`crate::engine::FlatPorts`]), observations refill a scratch
//! [`ObsVec`], deliveries resolve through the graph's precomputed
//! reverse-port map into a reused write buffer, and termination is
//! detected by an undecided-node counter updated on state transitions.
//! Outputs are bit-identical per seed to the naive reference executor
//! ([`crate::reference::run_sync_reference`]), which is kept as a
//! differential-testing oracle.
//!
//! The backend runs [`MultiFsm`] protocols directly (multiple-letter
//! queries are free in a synchronous environment by Theorem 3.4); run
//! single-letter [`stoneage_core::Fsm`] protocols through
//! [`stoneage_core::AsMulti`].

use rand::rngs::SmallRng;

use stoneage_core::{Letter, MultiFsm, ObsVec};
use stoneage_graph::{Graph, NodeId};

use crate::churn::ChurnSummary;
use crate::faults::FaultSummary;
use crate::pipeline::{DeliverySink, PortRead, RoundStep};
use crate::scoped::ScopedDelivery;
use crate::sim::Detail;
use crate::snapshot;

/// Configuration of a synchronous execution.
#[derive(Clone, Copy, Debug)]
pub struct SyncConfig {
    /// Master seed for the per-node protocol RNGs.
    pub seed: u64,
    /// Round budget: exceeding it aborts with [`crate::ExecError::RoundLimit`].
    pub max_rounds: u64,
}

impl Default for SyncConfig {
    fn default() -> Self {
        SyncConfig {
            seed: 0,
            max_rounds: 1_000_000,
        }
    }
}

impl SyncConfig {
    /// A config with the given seed and the default round budget.
    pub fn seeded(seed: u64) -> Self {
        SyncConfig {
            seed,
            ..Default::default()
        }
    }
}

/// Result of a synchronous execution that reached an output configuration.
#[derive(Clone, Debug)]
pub struct SyncOutcome {
    /// Per-node outputs, decoded from the output states.
    pub outputs: Vec<u64>,
    /// Rounds until the first output configuration (the paper's run-time
    /// measure in the synchronous setting).
    pub rounds: u64,
    /// Total non-`ε` transmissions.
    pub messages_sent: u64,
}

/// The [`RoundStep`] of plain `MultiFsm` protocols: sample δ, then
/// resolve any non-`ε` emission as a full broadcast (which consumes no
/// randomness and reads no ports — the simplest pipeline step).
pub(crate) struct SyncStep<'p, P>(pub(crate) &'p P);

impl<P: MultiFsm> RoundStep for SyncStep<'_, P> {
    type State = P::State;
    type Proto = P;
    type Emission = Option<Letter>;
    type Witness = ();

    const SALT: u64 = 0;
    const BACKEND: u8 = snapshot::BACKEND_SYNC;

    fn protocol(&self) -> &P {
        self.0
    }

    fn transition(
        &self,
        q: &P::State,
        obs: &ObsVec,
        rng: &mut SmallRng,
    ) -> (P::State, Option<Letter>, bool) {
        let transitions = self.0.delta(q, obs);
        let single = transitions.len() == 1;
        let (next, emission) = transitions.draw(rng);
        (next, emission, single)
    }

    fn silent(emission: &Option<Letter>) -> bool {
        emission.is_none()
    }

    fn resolve<Pr: PortRead, Sk: DeliverySink>(
        &self,
        _round: u64,
        v: NodeId,
        emission: Option<Letter>,
        graph: &Graph,
        _ports: &Pr,
        _rng: &mut SmallRng,
        sink: &mut Sk,
        _witness: &mut (),
    ) {
        if let Some(letter) = emission {
            sink.broadcast(graph, v, letter);
        }
    }

    fn absorb(_into: &mut (), _from: &mut ()) {}

    fn witness_slice(_witness: &()) -> Option<&[ScopedDelivery]> {
        None
    }

    fn restore_witness(witness: Option<Vec<ScopedDelivery>>) -> Option<()> {
        witness.is_none().then_some(())
    }

    fn detail(
        _witness: (),
        sent: u64,
        churn: Option<ChurnSummary>,
        faults: Option<FaultSummary>,
    ) -> Detail {
        Detail::Sync {
            messages_sent: sent,
            churn,
            faults,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::{Observer, Simulation};
    use crate::ExecError;
    use stoneage_core::{Alphabet, AsMulti, TableProtocol, TableProtocolBuilder, Transitions};
    use stoneage_graph::generators;

    // These in-crate unit tests cannot use `stoneage_testkit::harness`
    // (the dev-dependency cycle links testkit against the *other* build
    // of this crate, so its types don't unify with `crate::` under
    // cfg(test)) — so the builder-backed twins live here.

    /// Builder twin of the legacy `run_sync`.
    fn run_sync<P>(
        protocol: &P,
        graph: &Graph,
        config: &SyncConfig,
    ) -> Result<SyncOutcome, ExecError>
    where
        P: MultiFsm + Sync,
        P::State: Send + Sync,
    {
        Simulation::sync(protocol, graph)
            .seed(config.seed)
            .budget(config.max_rounds)
            .run()
            .map(|o| o.into_sync_outcome().expect("sync backend"))
    }

    /// Builder twin of the legacy `run_sync_with_inputs`.
    fn run_sync_with_inputs<P>(
        protocol: &P,
        graph: &Graph,
        inputs: &[usize],
        config: &SyncConfig,
    ) -> Result<SyncOutcome, ExecError>
    where
        P: MultiFsm + Sync,
        P::State: Send + Sync,
    {
        Simulation::sync(protocol, graph)
            .seed(config.seed)
            .budget(config.max_rounds)
            .inputs(inputs)
            .run()
            .map(|o| o.into_sync_outcome().expect("sync backend"))
    }

    /// Builder twin of the legacy `run_sync_observed`.
    fn run_sync_observed<P, O>(
        protocol: &P,
        graph: &Graph,
        inputs: &[usize],
        config: &SyncConfig,
        observer: &mut O,
    ) -> Result<SyncOutcome, ExecError>
    where
        P: MultiFsm + Sync,
        P::State: Send + Sync,
        O: Observer<P::State>,
    {
        Simulation::sync(protocol, graph)
            .seed(config.seed)
            .budget(config.max_rounds)
            .inputs(inputs)
            .observe(observer)
            .run()
            .map(|o| o.into_sync_outcome().expect("sync backend"))
    }

    /// Single-letter protocol: round 1 every node beeps; from round 2 a
    /// node outputs 1 + f₂(#beeps heard).
    fn count_neighbors(b: u8) -> TableProtocol {
        let alphabet = Alphabet::new(["beep"]);
        let mut builder = TableProtocolBuilder::new("count", alphabet, b, Letter(0));
        let start = builder.add_state("start", Letter(0));
        let listen = builder.add_state("listen", Letter(0));
        builder.add_input_state(start);
        builder.set_transition_all(start, Transitions::det(listen, Some(Letter(0))));
        for o in 0..=b {
            let out = builder.add_output_state(format!("out{o}"), Letter(0), 1 + o as u64);
            builder.set_transition(listen, o, Transitions::det(out, None));
            builder.set_transition_all(out, Transitions::det(out, None));
        }
        builder.build().unwrap()
    }

    #[test]
    fn counting_protocol_observes_degrees() {
        // On a star with b = 3: center sees ≥3 beeps, leaves see 1.
        let g = generators::star(6);
        let p = AsMulti(count_neighbors(3));
        let out = run_sync(&p, &g, &SyncConfig::seeded(1)).unwrap();
        assert_eq!(out.rounds, 2);
        assert_eq!(out.outputs[0], 1 + 3); // truncated: ≥3
        for v in 1..6 {
            assert_eq!(out.outputs[v], 1 + 1);
        }
        // Every node transmitted exactly once.
        assert_eq!(out.messages_sent, 6);
    }

    #[test]
    fn one_two_many_truncation_is_visible() {
        // With b = 1 (the beeping bound) the center of a star cannot
        // distinguish its high degree from 1.
        let g = generators::star(6);
        let p = AsMulti(count_neighbors(1));
        let out = run_sync(&p, &g, &SyncConfig::seeded(1)).unwrap();
        assert_eq!(out.outputs[0], 2);
        assert_eq!(out.outputs[1], 2);
    }

    #[test]
    fn isolated_nodes_observe_zero() {
        let g = stoneage_graph::Graph::empty(3);
        let p = AsMulti(count_neighbors(2));
        let out = run_sync(&p, &g, &SyncConfig::seeded(0)).unwrap();
        assert_eq!(out.outputs, vec![1, 1, 1]);
    }

    #[test]
    fn round_limit_is_reported() {
        // A protocol that never reaches an output state.
        let alphabet = Alphabet::new(["x"]);
        let mut b = TableProtocolBuilder::new("spin", alphabet, 1, Letter(0));
        let s = b.add_state("s", Letter(0));
        b.add_input_state(s);
        b.set_transition_all(s, Transitions::det(s, None));
        let p = AsMulti(b.build().unwrap());
        let g = generators::path(3);
        let err = run_sync(
            &p,
            &g,
            &SyncConfig {
                seed: 0,
                max_rounds: 10,
            },
        )
        .unwrap_err();
        assert_eq!(
            err,
            ExecError::RoundLimit {
                limit: 10,
                unfinished: 3
            }
        );
    }

    #[test]
    fn input_mismatch_is_reported() {
        let p = AsMulti(count_neighbors(1));
        let g = generators::path(3);
        let err = run_sync_with_inputs(&p, &g, &[0, 0], &SyncConfig::default()).unwrap_err();
        assert!(matches!(err, ExecError::InputLengthMismatch { .. }));
    }

    #[test]
    fn per_node_inputs_select_initial_states() {
        // Two input states with different outputs reachable immediately.
        let alphabet = Alphabet::new(["x"]);
        let mut b = TableProtocolBuilder::new("inputs", alphabet, 1, Letter(0));
        let a0 = b.add_state("a0", Letter(0));
        let a1 = b.add_state("a1", Letter(0));
        let o0 = b.add_output_state("o0", Letter(0), 100);
        let o1 = b.add_output_state("o1", Letter(0), 200);
        b.add_input_state(a0);
        b.add_input_state(a1);
        b.set_transition_all(a0, Transitions::det(o0, None));
        b.set_transition_all(a1, Transitions::det(o1, None));
        b.set_transition_all(o0, Transitions::det(o0, None));
        b.set_transition_all(o1, Transitions::det(o1, None));
        let p = AsMulti(b.build().unwrap());
        let g = generators::path(4);
        let out = run_sync_with_inputs(&p, &g, &[0, 1, 1, 0], &SyncConfig::default()).unwrap();
        assert_eq!(out.outputs, vec![100, 200, 200, 100]);
    }

    #[test]
    fn epsilon_emissions_do_not_overwrite_ports() {
        // Node observes `beep` in round 2 even though the beeper goes
        // silent afterwards: ports retain the last letter.
        let alphabet = Alphabet::new(["beep", "noop"]);
        let mut b = TableProtocolBuilder::new("retain", alphabet, 1, Letter(1));
        let start = b.add_state("start", Letter(0));
        let wait1 = b.add_state("wait1", Letter(0));
        let wait2 = b.add_state("wait2", Letter(0));
        let no = b.add_output_state("no", Letter(0), 0);
        let yes = b.add_output_state("yes", Letter(0), 1);
        b.add_input_state(start);
        // Beep once at round 1, then silence.
        b.set_transition_all(start, Transitions::det(wait1, Some(Letter(0))));
        b.set_transition_all(wait1, Transitions::det(wait2, None));
        // Round 3: check whether the old beep is still in the port.
        b.set_transition(wait2, 0, Transitions::det(no, None));
        b.set_transition(wait2, 1, Transitions::det(yes, None));
        b.set_transition_all(no, Transitions::det(no, None));
        b.set_transition_all(yes, Transitions::det(yes, None));
        let p = AsMulti(b.build().unwrap());
        let g = generators::path(2);
        let out = run_sync(&p, &g, &SyncConfig::seeded(3)).unwrap();
        assert_eq!(out.outputs, vec![1, 1]);
    }

    #[test]
    fn observer_sees_every_round() {
        struct Counter(u64);
        impl<S> Observer<S> for Counter {
            fn on_round_end(&mut self, round: u64, _states: &[S]) {
                self.0 = round;
            }
        }
        let p = AsMulti(count_neighbors(1));
        let g = generators::cycle(5);
        let mut obs = Counter(0);
        let inputs = vec![0; 5];
        let out = run_sync_observed(&p, &g, &inputs, &SyncConfig::seeded(0), &mut obs).unwrap();
        assert_eq!(obs.0, out.rounds);
    }

    #[test]
    fn determinism_per_seed() {
        let g = generators::gnp(30, 0.2, 5);
        let p = AsMulti(count_neighbors(2));
        let a = run_sync(&p, &g, &SyncConfig::seeded(7)).unwrap();
        let b = run_sync(&p, &g, &SyncConfig::seeded(7)).unwrap();
        assert_eq!(a.outputs, b.outputs);
        assert_eq!(a.rounds, b.rounds);
    }

    #[test]
    fn zero_round_outcome_for_instant_output() {
        // Protocol whose input state is already an output state.
        let alphabet = Alphabet::new(["x"]);
        let mut b = TableProtocolBuilder::new("done", alphabet, 1, Letter(0));
        let d = b.add_output_state("d", Letter(0), 9);
        b.add_input_state(d);
        b.set_transition_all(d, Transitions::det(d, None));
        let p = AsMulti(b.build().unwrap());
        let g = generators::path(2);
        let out = run_sync(&p, &g, &SyncConfig::default()).unwrap();
        assert_eq!(out.rounds, 0);
        assert_eq!(out.outputs, vec![9, 9]);
    }
}
