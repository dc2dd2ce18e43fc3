#![allow(clippy::needless_range_loop)]

//! The lockstep synchronous round executor, on the flat delivery engine.
//!
//! Implements the *locally synchronous environment* of Section 3.1 in its
//! strongest (lockstep) form, which trivially satisfies the two
//! synchronization properties: (S1) all nodes are in the same round, and
//! (S2) at the end of round `t + 1`, the port `ψ_u(v)` stores the message
//! transmitted by `v` in round `t` (or the last message transmitted prior
//! to round `t` — `ε` emissions do not overwrite ports).
//!
//! The round loop is the shared [`crate::pipeline`] over the epoch-split
//! [`crate::engine::PortPlanes`] store and allocates nothing per round:
//! ports live in a flat CSR-indexed store with incremental per-letter
//! counts ([`crate::engine::FlatPorts`]), observations refill a scratch
//! [`ObsVec`], deliveries resolve through the graph's precomputed
//! reverse-port map into a reused write buffer, and termination is
//! detected by an undecided-node counter updated on state transitions.
//! Outputs are bit-identical per seed to the naive reference executor
//! ([`crate::reference::run_sync_reference`]), which is kept as a
//! differential-testing oracle.
//!
//! The executor runs [`MultiFsm`] protocols directly (multiple-letter
//! queries are free in a synchronous environment by Theorem 3.4); run
//! single-letter [`stoneage_core::Fsm`] protocols through
//! [`stoneage_core::AsMulti`].

use rand::rngs::SmallRng;
use rand::SeedableRng;

use stoneage_core::{Letter, MultiFsm, ObsVec};
use stoneage_graph::{Graph, NodeId};

use crate::engine::PortPlanes;
use crate::faults::{fault_config, FaultCtx, FaultLayer, FaultSummary, FaultsArg};
#[cfg(feature = "parallel")]
use crate::parbuf::{ParallelPolicy, StealStats};
use crate::pipeline::{self, DeliverySink, PortRead, RoundEnd, RoundStep};
use crate::snapshot::{self, SnapArgs, SnapPlumb, Snapshot, SnapshotError};
use crate::{splitmix64, ExecError};

/// Configuration of a synchronous execution.
#[derive(Clone, Copy, Debug)]
pub struct SyncConfig {
    /// Master seed for the per-node protocol RNGs.
    pub seed: u64,
    /// Round budget: exceeding it aborts with [`ExecError::RoundLimit`].
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

/// Hook invoked by the synchronous executor at the end of every round,
/// with the full post-round state vector. Used by the analysis
/// experiments (tournament lengths, edge decay) to instrument protocols
/// from outside. Subsumed by the unified [`crate::sim::Observer`]; kept
/// so existing observers keep compiling (adapt them with
/// [`crate::sim::AdaptSync`]).
pub trait SyncObserver<S> {
    /// Called after round `round` (1-based) has been applied to all nodes.
    fn on_round_end(&mut self, round: u64, states: &[S]);

    /// Called with every boundary checkpoint the run takes (the
    /// [`crate::Simulation::checkpoint_every`] cadence). Default: ignore.
    fn on_checkpoint(&mut self, _snapshot: &Snapshot) {}
}

impl<S, O: SyncObserver<S> + ?Sized> SyncObserver<S> for &mut O {
    fn on_round_end(&mut self, round: u64, states: &[S]) {
        (**self).on_round_end(round, states);
    }
    fn on_checkpoint(&mut self, snapshot: &Snapshot) {
        (**self).on_checkpoint(snapshot);
    }
}

/// An observer that does nothing.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoopObserver;

impl<S> SyncObserver<S> for NoopObserver {
    fn on_round_end(&mut self, _round: u64, _states: &[S]) {}
}

/// The per-node RNG streams: a pure function of `(seed, node id)`, shared
/// by the serial and parallel executors so their draws are identical.
pub(crate) fn seed_rngs(n: usize, seed: u64) -> Vec<SmallRng> {
    (0..n as u64)
        .map(|v| SmallRng::seed_from_u64(splitmix64(seed ^ splitmix64(v))))
        .collect()
}

fn collect_outputs<P: MultiFsm>(protocol: &P, states: &[P::State]) -> Vec<u64> {
    states
        .iter()
        .map(|q| protocol.output(q).expect("output configuration"))
        .collect()
}

/// The [`RoundStep`] of plain `MultiFsm` protocols: sample δ, then
/// resolve any non-`ε` emission as a full broadcast (which consumes no
/// randomness and reads no ports — the simplest pipeline step).
pub(crate) struct SyncStep<'p, P>(pub(crate) &'p P);

impl<P: MultiFsm> RoundStep for SyncStep<'_, P> {
    type State = P::State;
    type Emission = Option<Letter>;
    type Witness = ();

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

    fn witness_slice(_witness: &()) -> Option<&[crate::scoped::ScopedDelivery]> {
        None
    }
}

/// The engine state a plain-sync run starts from: fresh initial states,
/// planes, and RNG streams — or, when the snapshot args carry a resume
/// snapshot, the spliced mid-run state plus the loop's resume point. A
/// sync snapshot body must carry neither a witness transcript nor a
/// churn cursor, and must carry a fault tally exactly when the run wires
/// a fault plan; a mismatch means the snapshot belongs to another
/// backend or configuration.
type SyncStart<S> = (
    Vec<S>,
    PortPlanes,
    Vec<SmallRng>,
    SnapPlumb<S>,
    FaultSummary,
);

fn sync_start<P: MultiFsm>(
    protocol: &P,
    graph: &Graph,
    inputs: &[usize],
    seed: u64,
    snap: &SnapArgs<'_, P::State>,
    faulted: bool,
) -> Result<SyncStart<P::State>, ExecError> {
    let sigma = protocol.alphabet().len();
    if let Some(s) = snap.resume {
        let splice = snapshot::resume_lockstep(s, &snap.codec(), graph, sigma)?;
        if splice.witness.is_some()
            || splice.churn_next.is_some()
            || splice.faults.is_some() != faulted
        {
            return Err(ExecError::Snapshot(SnapshotError::DigestMismatch {
                field: "snapshot body kind",
            }));
        }
        let tally = splice.faults.unwrap_or_default();
        let plumb = SnapPlumb::from_args(snap, Some(splice.point));
        Ok((splice.states, splice.planes, splice.rngs, plumb, tally))
    } else {
        Ok((
            inputs.iter().map(|&i| protocol.initial_state(i)).collect(),
            PortPlanes::new(graph, sigma, protocol.initial_letter()),
            seed_rngs(graph.node_count(), seed),
            SnapPlumb::from_args(snap, None),
            FaultSummary::default(),
        ))
    }
}

/// Compiles the optional fault wiring into `(ctx, out-slot)` — the shared
/// prologue of every executor entry point. Plan validation failures
/// surface as [`ExecError::Config`] before the run starts.
pub(crate) fn compile_faults<'a>(
    faults: FaultsArg<'a>,
    graph: &Graph,
    sigma: usize,
) -> Result<(Option<FaultCtx>, Option<&'a mut Option<FaultSummary>>), ExecError> {
    match faults {
        Some(w) => {
            let ctx = FaultCtx::new(w.plan, graph, sigma).map_err(fault_config)?;
            Ok((Some(ctx), Some(w.out)))
        }
        None => Ok((None, None)),
    }
}

fn sync_end<P: MultiFsm>(
    protocol: &P,
    states: Vec<P::State>,
    end: RoundEnd,
) -> Result<(SyncOutcome, Vec<P::State>), ExecError> {
    match end {
        RoundEnd::Done { rounds, sent } => {
            let outputs = collect_outputs(protocol, &states);
            Ok((
                SyncOutcome {
                    outputs,
                    rounds,
                    messages_sent: sent,
                },
                states,
            ))
        }
        RoundEnd::Limit { limit, unfinished } => Err(ExecError::RoundLimit { limit, unfinished }),
    }
}

/// The serial synchronous engine: the shared [`crate::pipeline`] round
/// loop over an epoch-split [`PortPlanes`] store, invoking `observer`
/// after every round, returning the final per-node state vector next to
/// the legacy outcome. The [`crate::Simulation`] builder and (through
/// it) every legacy `run_sync*` shim land here.
///
/// Inputs are validated by the builder; this function assumes
/// `inputs.len() == graph.node_count()`.
pub(crate) fn exec_sync<P: MultiFsm, O: SyncObserver<P::State>>(
    protocol: &P,
    graph: &Graph,
    inputs: &[usize],
    config: &SyncConfig,
    observer: &mut O,
    snap: &SnapArgs<'_, P::State>,
    faults: FaultsArg<'_>,
) -> Result<(SyncOutcome, Vec<P::State>), ExecError> {
    debug_assert_eq!(
        inputs.len(),
        graph.node_count(),
        "the builder validates input length"
    );
    let (fctx, fout) = compile_faults(faults, graph, protocol.alphabet().len())?;
    let (mut states, mut planes, mut rngs, plumb, tally) =
        sync_start(protocol, graph, inputs, config.seed, snap, fctx.is_some())?;
    let mut layer = FaultLayer::new(fctx.as_ref(), tally);
    let end = pipeline::run_serial(
        &SyncStep(protocol),
        graph,
        &mut planes,
        &mut states,
        &mut rngs,
        config.max_rounds,
        observer,
        &mut (),
        &plumb,
        &mut layer,
    );
    if let Some(out) = fout {
        *out = Some(layer.tally);
    }
    sync_end(protocol, states, end)
}

/// The fully parallel synchronous executor: the shared
/// [`crate::pipeline`] parallel round loop, scheduled per the policy's
/// [`crate::parbuf::RoundMode`] — `Joined` (phase 1 + 2a scope, join,
/// phase-2b merge under the policy's
/// [`crate::parbuf::MergeStrategy`]) or `Fused` (the previous round's
/// phase 2b landed on per-worker [`crate::engine::PlaneShard`]s inside
/// the next round's scope; one join per round).
///
/// Because every node owns an independent seeded RNG, phase 1 reads only
/// the frozen read plane, and every flat slot is written at most once
/// per round (see the [`crate::parbuf`] and [`crate::pipeline`] module
/// docs for the full argument), outputs, rounds, and message counts are
/// **bit-identical** to [`exec_sync`] for every seed, policy, worker
/// count, merge strategy, and round mode. The [`crate::Simulation`]
/// builder delegates to the serial engine outright when
/// [`ParallelPolicy::use_serial`] says the instance is too small, so
/// this function always runs the chunked machinery.
///
/// `observer` fires after each round's states are complete — the same
/// post-round states the serial engine reports.
///
/// (The `rayon` crate is not vendored in this offline build; the `rayon`
/// cargo feature is an alias of `parallel` and selects this same
/// `std::thread`-based implementation.)
#[cfg(feature = "parallel")]
#[allow(clippy::too_many_arguments)]
pub(crate) fn exec_sync_parallel<P, O>(
    protocol: &P,
    graph: &Graph,
    inputs: &[usize],
    config: &SyncConfig,
    policy: &ParallelPolicy,
    observer: &mut O,
    snap: &SnapArgs<'_, P::State>,
    faults: FaultsArg<'_>,
    steals: &mut StealStats,
) -> Result<(SyncOutcome, Vec<P::State>), ExecError>
where
    P: MultiFsm + Sync,
    P::State: Send + Sync,
    O: SyncObserver<P::State>,
{
    debug_assert_eq!(
        inputs.len(),
        graph.node_count(),
        "the builder validates input length"
    );
    let (fctx, fout) = compile_faults(faults, graph, protocol.alphabet().len())?;
    let (mut states, mut planes, mut rngs, plumb, tally) =
        sync_start(protocol, graph, inputs, config.seed, snap, fctx.is_some())?;
    let mut layer = FaultLayer::new(fctx.as_ref(), tally);
    let end = pipeline::run_parallel(
        &SyncStep(protocol),
        graph,
        &mut planes,
        &mut states,
        &mut rngs,
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
    sync_end(protocol, states, end)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::{AdaptSync, Simulation};
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
        O: SyncObserver<P::State>,
    {
        let mut adapter = AdaptSync(observer);
        Simulation::sync(protocol, graph)
            .seed(config.seed)
            .budget(config.max_rounds)
            .inputs(inputs)
            .observe(&mut adapter)
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
        impl<S> SyncObserver<S> for Counter {
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
