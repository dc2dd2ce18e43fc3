//! Edge cases of the lockstep pipeline's quiescent-node skip.
//!
//! A round steps only its frontier, so a node whose last executed step
//! drew a single silent self-loop while none of its port counts changed
//! is skipped (see the `pipeline` module docs). The skip has no switch,
//! so every case here compares the skipping engine with an oracle:
//!
//! * the naive reference executor (`run_sync_reference`), for plain
//!   runs, compared on the whole outcome (final states included);
//! * a **never-quiet twin** of a deterministic table protocol, whose only
//!   difference is that each wait loop is `uniform([(q, ε), (q, ε)])`
//!   instead of `det(q, ε)` — a silent self-loop that still draws, which
//!   the engine must step every round. The extra draws feed no other
//!   choice, so the twin's run is the same run with every node stepped;
//! * the `ChurnOracle` full rebuild, which puts the same nodes into the
//!   frontier as incremental patching from the event's patches rather
//!   than from the store's reports;
//! * the uninterrupted run, for a resumed run (whose frontier starts
//!   full).
//!
//! Each case runs on the serial engine and across the testkit's
//! lockstep matrix: worker counts × merge strategies.

use stoneage_core::{Alphabet, AsMulti, Letter, Protocol, TableProtocol, TableProtocolBuilder};
use stoneage_core::{MultiFsm, Transitions};
use stoneage_graph::{generators, Graph, GraphBuilder, TopologyEvent};
use stoneage_protocols::SelfStabMis;
use stoneage_sim::{
    run_sync_reference, ChurnPlan, ExecError, FaultPlan, LinkFault, Observer, Outcome,
    ParallelPolicy, PatchMode, Simulation, Snapshot,
};
use stoneage_testkit::count_neighbors;

const BEEP: Letter = Letter(0);
const IDLE: Letter = Letter(1);
const NOISE: Letter = Letter(2);

/// A wake-up relay over `["beep", "idle", "noise"]` (σ₀ = `idle`, b = 1).
/// The input-1 node idles one round, transmits `fire` once and outputs 2.
/// Every input-0 node waits silently until it hears a beep, then relays
/// the beep and outputs 1 — or, with `coin`, flips a fair coin for output
/// 0 or 1 after relaying. With `wait_draws` the wait loop is the
/// never-quiet `uniform([(wait, ε), (wait, ε)])`.
fn relay(fire: Letter, wait_draws: bool, coin: bool) -> AsMulti<TableProtocol> {
    let alphabet = Alphabet::new(["beep", "idle", "noise"]);
    let mut b = TableProtocolBuilder::new("relay", alphabet, 1, IDLE);
    let wait = b.add_state("wait", BEEP);
    let start = b.add_state("start", BEEP);
    let delay = b.add_state("delay", BEEP);
    let flip = b.add_state("flip", BEEP);
    b.add_input_state(wait);
    b.add_input_state(start);
    let fired = b.add_output_state("fired", BEEP, 2);
    let out0 = b.add_output_state("out0", BEEP, 0);
    let out1 = b.add_output_state("out1", BEEP, 1);
    b.set_transition_all(start, Transitions::det(delay, None));
    b.set_transition_all(delay, Transitions::det(fired, Some(fire)));
    let stay = if wait_draws {
        Transitions::uniform(vec![(wait, None), (wait, None)])
    } else {
        Transitions::det(wait, None)
    };
    b.set_transition(wait, 0, stay);
    let heard = if coin { flip } else { out1 };
    b.set_transition(wait, 1, Transitions::det(heard, Some(BEEP)));
    b.set_transition_all(flip, Transitions::uniform(vec![(out0, None), (out1, None)]));
    for sink in [fired, out0, out1] {
        b.set_transition_all(sink, Transitions::det(sink, None));
    }
    AsMulti(b.build().expect("relay table is well-formed"))
}

/// Node 0 starts the relay; everyone else waits.
fn starter_inputs(g: &Graph) -> Vec<usize> {
    (0..g.node_count()).map(|v| usize::from(v == 0)).collect()
}

/// Connected families, so every relay run can finish.
fn connected_family() -> Vec<(&'static str, Graph)> {
    vec![
        ("path", generators::path(40)),
        ("tree", generators::random_tree(150, 11)),
        ("grid", generators::grid(10, 12)),
    ]
}

/// The serial engine plus every cell of the testkit's lockstep matrix.
fn cells() -> Vec<(String, Option<ParallelPolicy>)> {
    let parallel = stoneage_testkit::lockstep_policies()
        .into_iter()
        .map(|(name, policy)| (name, Some(policy)));
    std::iter::once(("serial".to_string(), None))
        .chain(parallel)
        .collect()
}

/// Applies a matrix cell's policy to a builder.
fn on<'a, P>(b: Simulation<'a, P>, policy: &Option<ParallelPolicy>) -> Simulation<'a, P>
where
    P: MultiFsm + Sync,
    P::State: Send + Sync,
{
    match policy {
        Some(policy) => b.parallel(*policy),
        None => b,
    }
}

/// Everything an outcome carries except the worker count — or the
/// error.
fn transcript<P: Protocol>(result: &Result<Outcome<P>, ExecError>) -> String {
    match result {
        Ok(o) => format!(
            "{:?} | {:?} | {:?} | {:?}",
            o.outputs, o.states, o.cost, o.detail
        ),
        Err(e) => format!("error: {e:?}"),
    }
}

/// A silent self-loop that still draws (`uniform([(q, ε), (q, ε)])`) is
/// never skipped: its draws move the node's RNG stream, so skipping it
/// would change every later coin flip. The reference executor steps
/// every node every round.
#[test]
fn random_silent_self_loop_is_never_skipped() {
    let p = relay(BEEP, true, true);
    for (name, g) in connected_family() {
        let inputs = starter_inputs(&g);
        for seed in 1..4u64 {
            let reference = run_sync_reference(&p, &g, &inputs, seed, 1_000_000);
            let outputs = &reference.as_ref().expect("relay terminates").outputs;
            assert!(
                outputs.iter().filter(|&&o| o == 0).count() > 5,
                "{name}: the coin must decide something"
            );
            for (cell, policy) in cells() {
                let out = on(Simulation::sync(&p, &g).seed(seed).inputs(&inputs), &policy).run();
                let tag = format!("{name}/seed{seed}/{cell}");
                assert_eq!(transcript(&out), transcript(&reference), "{tag}");
            }
        }
    }
}

/// `SelfStabMis`'s output states are not absorbing: a decided node
/// re-announces when it hears the wake letter, so a quiet decided node
/// must wake on every count change. Plain runs match the reference
/// executor; churned runs (whose restarts wake decided neighbors) match
/// the `ChurnOracle` rebuild.
#[test]
fn selfstab_mis_output_states_are_not_absorbing() {
    let p = SelfStabMis::new();
    let family = [
        ("gnp", generators::gnp(120, 0.06, 3)),
        ("tree", generators::random_tree(150, 11)),
        ("grid", generators::grid(10, 12)),
    ];
    let mut recovered = 0;
    for (name, g) in &family {
        for seed in 1..3u64 {
            let inputs = vec![0; g.node_count()];
            let reference = run_sync_reference(&p, g, &inputs, seed, 1_000_000);
            assert!(reference.is_ok(), "{name}: MIS terminates");
            let plan = ChurnPlan::random(g, 40 + seed, 8, 6)
                .at(2, TopologyEvent::Crash(1))
                .at(9, TopologyEvent::Restart(1));
            let rebuilt = Simulation::sync(&p, g)
                .seed(seed)
                .budget(1_000)
                .with_churn(&plan.clone().with_mode(PatchMode::Rebuild))
                .run();
            recovered += usize::from(rebuilt.is_ok());
            for (cell, policy) in cells() {
                let tag = format!("{name}/seed{seed}/{cell}");
                let out = on(Simulation::sync(&p, g).seed(seed), &policy).run();
                assert_eq!(transcript(&out), transcript(&reference), "{tag}: plain");
                let churned = on(
                    Simulation::sync(&p, g)
                        .seed(seed)
                        .budget(1_000)
                        .with_churn(&plan),
                    &policy,
                )
                .run();
                assert_eq!(transcript(&churned), transcript(&rebuilt), "{tag}: churned");
            }
        }
    }
    assert!(
        recovered >= 4,
        "only {recovered} of 6 churned runs recovered"
    );
}

/// A path with one extra node of degree 0 (the last).
fn path_plus_isolated(n: usize) -> Graph {
    let mut b = GraphBuilder::new(n + 1);
    for v in 1..n as u32 {
        b.add_edge(v - 1, v);
    }
    b.build()
}

/// A churn restart of a node with no live edge touches no count, so only
/// the restart itself can wake the node: the restarted node must step
/// from its restart state, exactly as under the `ChurnOracle` rebuild.
/// Covers a node of degree 0 and a node whose edges were all deleted.
#[test]
fn restart_of_a_node_without_live_edges_wakes_it() {
    let p = AsMulti(count_neighbors(3));
    let g = path_plus_isolated(6);
    let plans = [
        (
            "isolated",
            ChurnPlan::new()
                .at(3, TopologyEvent::Crash(6))
                .at(5, TopologyEvent::Restart(6)),
        ),
        (
            "cut-off",
            ChurnPlan::new()
                .at(1, TopologyEvent::EdgeDelete(0, 1))
                .at(3, TopologyEvent::Crash(0))
                .at(5, TopologyEvent::Restart(0)),
        ),
    ];
    for (name, plan) in &plans {
        let rebuilt = Simulation::sync(&p, &g)
            .seed(7)
            .budget(50)
            .with_churn(&plan.clone().with_mode(PatchMode::Rebuild))
            .run();
        let oracle = rebuilt.as_ref().expect("the restarted node decides");
        assert!(oracle.rounds().expect("sync outcome") > 5, "{name}");
        for (cell, policy) in cells() {
            let out = on(
                Simulation::sync(&p, &g).seed(7).budget(50).with_churn(plan),
                &policy,
            )
            .run();
            assert_eq!(transcript(&out), transcript(&rebuilt), "{name}/{cell}");
        }
    }
    // The restarted isolated node heard nothing: output 1 + f₃(0).
    let out = Simulation::sync(&p, &g)
        .seed(7)
        .budget(50)
        .with_churn(&plans[0].1)
        .run()
        .expect("the restarted node decides");
    assert_eq!(out.outputs[6], 1);
}

/// Runs the relay `p` (or its never-quiet twin) with `faults` on one
/// matrix cell.
fn faulted(
    p: &AsMulti<TableProtocol>,
    g: &Graph,
    seed: u64,
    faults: &FaultPlan,
    policy: &Option<ParallelPolicy>,
) -> Result<Outcome<AsMulti<TableProtocol>>, ExecError> {
    let inputs = starter_inputs(g);
    on(
        Simulation::sync(p, g)
            .seed(seed)
            .budget(200)
            .inputs(&inputs)
            .with_faults(faults),
        policy,
    )
    .run()
}

/// Compares the relay firing `fire` with its never-quiet twin under
/// `faults` on every matrix cell, returning the twin's result.
fn assert_matches_twin(
    fire: Letter,
    g: &Graph,
    faults: &FaultPlan,
    tag: &str,
) -> Result<Outcome<AsMulti<TableProtocol>>, ExecError> {
    let (p, twin) = (relay(fire, false, false), relay(fire, true, false));
    let oracle = faulted(&twin, g, 3, faults, &None);
    for (cell, policy) in cells() {
        let out = faulted(&p, g, 3, faults, &policy);
        assert_eq!(transcript(&out), transcript(&oracle), "{tag}/{cell}");
    }
    oracle
}

/// A fault plan that drops the only delivery that would wake a quiet
/// node leaves it asleep — and leaves the rest of the run exactly as the
/// every-node oracle has it.
#[test]
fn dropped_wake_up_leaves_a_quiet_node_asleep() {
    let path = generators::path(3);
    let drop_it = FaultPlan::new(1).on_edge(0, 1, LinkFault::Drop, 1.0);
    let out = assert_matches_twin(BEEP, &path, &drop_it, "only wake-up dropped");
    assert_eq!(
        out.err(),
        Some(ExecError::RoundLimit {
            limit: 200,
            unfinished: 2
        })
    );
    for (name, g) in connected_family() {
        for seed in 0..3 {
            let plan = FaultPlan::new(seed).drop_rate(0.2);
            let _ = assert_matches_twin(BEEP, &g, &plan, &format!("{name}/drop{seed}"));
        }
    }
}

/// A duplicated or corrupted delivery into a quiet node changes (or,
/// for a duplicate, re-writes) its counts through the same engine write
/// as a clean delivery. A corrupt that turns `noise` into `beep` is the
/// only wake-up the waiting node gets.
#[test]
fn duplicated_or_corrupted_delivery_wakes_a_quiet_node_exactly() {
    let path = generators::path(3);
    let corrupt = FaultPlan::new(1).on_edge(0, 1, LinkFault::Corrupt(BEEP), 1.0);
    let out = assert_matches_twin(NOISE, &path, &corrupt, "corrupt wakes")
        .expect("the corrupted delivery wakes the relay");
    assert_eq!(out.outputs, vec![2, 1, 1]);
    let clean = assert_matches_twin(NOISE, &path, &FaultPlan::new(1), "noise alone");
    assert!(clean.is_err(), "noise alone wakes nobody");

    let duplicate = FaultPlan::new(1).on_edge(0, 1, LinkFault::Duplicate(2), 1.0);
    let out = assert_matches_twin(BEEP, &path, &duplicate, "duplicate")
        .expect("a duplicated wake-up still wakes");
    assert_eq!(out.outputs, vec![2, 1, 1]);

    for (name, g) in connected_family() {
        for seed in 0..3 {
            let mixed = FaultPlan::new(seed)
                .duplicate_rate(0.3, 2)
                .corrupt_rate(0.1, NOISE)
                .corrupt_rate(0.1, BEEP);
            let _ = assert_matches_twin(NOISE, &g, &mixed, &format!("{name}/noise{seed}"));
            let _ = assert_matches_twin(BEEP, &g, &mixed, &format!("{name}/beep{seed}"));
        }
    }
}

/// Collects every checkpoint frame, and the share of nodes parked in a
/// wait loop or a sink at each round end.
struct Frames {
    snaps: Vec<Snapshot>,
    parked: Vec<f64>,
}

impl Observer<u16> for Frames {
    fn on_round_end(&mut self, _round: u64, states: &[u16]) {
        // State ids of `relay`: 0 = wait, 4.. = sinks.
        let parked = states.iter().filter(|&&q| q == 0 || q >= 4).count();
        self.parked.push(parked as f64 / states.len() as f64);
    }

    fn on_checkpoint(&mut self, snapshot: &Snapshot) {
        self.snaps.push(snapshot.clone());
    }
}

/// A run split at a boundary where most nodes sit in a quiet loop and
/// resumed — with a full frontier, so the first resumed round steps
/// every node — is bit-identical to the uninterrupted run, on every
/// matrix cell for the resumed leg.
#[test]
fn resume_at_a_mostly_quiet_boundary_matches_the_uninterrupted_run() {
    let p = relay(BEEP, false, true);
    let g = generators::path(60);
    let inputs = starter_inputs(&g);
    for seed in 1..3u64 {
        let full = Simulation::sync(&p, &g).seed(seed).inputs(&inputs).run();
        let mut frames = Frames {
            snaps: Vec::new(),
            parked: Vec::new(),
        };
        let checkpointed = Simulation::sync(&p, &g)
            .seed(seed)
            .inputs(&inputs)
            .checkpoint_every(25)
            .observe(&mut frames)
            .run();
        assert_eq!(transcript(&checkpointed), transcript(&full), "seed{seed}");
        let snap = frames.snaps.first().expect("a frame at round 25");
        assert!(
            frames.parked[24] > 0.9,
            "seed{seed}: only {} parked at the split",
            frames.parked[24]
        );
        for (cell, policy) in cells() {
            let resumed = on(
                Simulation::sync(&p, &g)
                    .seed(seed)
                    .inputs(&inputs)
                    .resume_from(snap),
                &policy,
            )
            .run();
            assert_eq!(transcript(&resumed), transcript(&full), "seed{seed}/{cell}");
        }
    }
}
