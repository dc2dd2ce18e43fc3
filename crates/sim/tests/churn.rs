//! Differential and determinism tests for the churn fault-injection
//! subsystem (`stoneage_sim::churn`).
//!
//! The contract under test, from strongest to weakest:
//!
//! 1. **Patched ≡ rebuilt.** For every plan, the incrementally patched
//!    engine (`PatchMode::Incremental` — per-slot retire/revive on the
//!    live `FlatPorts`) is bit-identical to the full-rebuild reference
//!    path (`PatchMode::Rebuild` — `ChurnOracle::rebuild` reconstructs
//!    the port store from the overlay after every boundary), across
//!    graph families, protocols, seeds, and backends.
//! 2. **Serial ≡ parallel.** The same plan reproduces the serial
//!    outcome for every adversarial worker count, on the skewed
//!    families too (epoch-boundary event application keeps
//!    the frozen-read-plane argument intact — see the `churn` module
//!    docs), and the shard plan built once over the universe stays valid
//!    across every boundary.
//! 3. **Empty plan ≡ churn-free engine.** `with_churn(&ChurnPlan::new())`
//!    is bit-identical to not calling `with_churn` at all, on all three
//!    backends — the churn drivers are pure supersets.
//! 4. **Pinned fingerprints.** A recorded churn panel guards against
//!    silent drift, exactly like the churn-free pinned panels.

use proptest::prelude::*;
use stoneage_core::{AsMulti, Synchronized};
use stoneage_graph::{generators, Graph, NodeId, TopologyEvent};
use stoneage_sim::adversary::UniformRandom;
use stoneage_sim::{ChurnPlan, Observer, Outcome, PatchMode, SchedulerKind, Simulation};
use stoneage_testkit::{
    async_fingerprint, churn_fingerprint, count_neighbors, count_neighbors_quiet, random_beeper,
    run_churn_pinned, scoped_fingerprint, sync_fingerprint, Poke, CHURN_PINNED_CASES,
};

fn graph_family() -> Vec<(&'static str, Graph)> {
    vec![
        ("gnp", generators::gnp(120, 0.06, 3)),
        ("tree", generators::random_tree(150, 11)),
        ("grid", generators::grid(10, 12)),
    ]
}

/// A seeded random plan for `g`, plus a deliberate crash → restart pair
/// on node 0 so every run exercises both lifecycle events even when the
/// random schedule happens to skip one.
fn plan_for(g: &Graph, seed: u64) -> ChurnPlan {
    let mut plan = ChurnPlan::random(g, seed, 8, 6);
    plan = plan.at(1, TopologyEvent::Crash(0));
    plan = plan.at(3, TopologyEvent::Restart(0));
    plan
}

type SyncP = AsMulti<stoneage_core::TableProtocol>;

fn run_sync_churn(protocol: &SyncP, g: &Graph, seed: u64, plan: &ChurnPlan) -> Outcome<SyncP> {
    let sim = Simulation::sync(protocol, g).seed(seed).with_churn(plan);
    sim.run().expect("churn runs terminate")
}

fn run_scoped_churn(protocol: &Poke, g: &Graph, seed: u64, plan: &ChurnPlan) -> Outcome<Poke> {
    let sim = Simulation::scoped(protocol, g).seed(seed).with_churn(plan);
    sim.run().expect("churn runs terminate")
}

/// Contract 1 on the synchronous backend: incremental patching ≡ the
/// `ChurnOracle` full rebuild, bit for bit, on every family × protocol ×
/// seed cell.
#[test]
fn sync_incremental_patch_matches_oracle_rebuild() {
    for (name, g) in graph_family() {
        for seed in 0..4 {
            let plan = plan_for(&g, 100 + seed);
            let inc = plan.clone().with_mode(PatchMode::Incremental);
            let reb = plan.clone().with_mode(PatchMode::Rebuild);
            for protocol in [AsMulti(count_neighbors(3)), AsMulti(random_beeper(5, 2))] {
                let a = run_sync_churn(&protocol, &g, seed, &inc);
                let b = run_sync_churn(&protocol, &g, seed, &reb);
                assert_eq!(a.outputs, b.outputs, "{name}/seed{seed}: outputs");
                assert_eq!(a.states, b.states, "{name}/seed{seed}: states");
                assert_eq!(a.cost, b.cost, "{name}/seed{seed}: rounds");
                // Messages and churn summaries.
                assert_eq!(a.detail, b.detail, "{name}/seed{seed}: detail");
            }
        }
    }
}

/// Contract 1 on the scoped backend, including the full scoped-delivery
/// witness transcript.
#[test]
fn scoped_incremental_patch_matches_oracle_rebuild() {
    let p = Poke::new();
    for (name, g) in graph_family() {
        for seed in 0..3 {
            let plan = plan_for(&g, 300 + seed);
            let [a, b] = [PatchMode::Incremental, PatchMode::Rebuild]
                .map(|mode| run_scoped_churn(&p, &g, seed, &plan.clone().with_mode(mode)));
            assert_eq!(
                scoped_fingerprint(&a),
                scoped_fingerprint(&b),
                "{name}/seed{seed}"
            );
            assert_eq!(a.churn(), b.churn(), "{name}/seed{seed}: summaries");
        }
    }
}

/// Contract 1 on the asynchronous backend (default queue): the patched
/// event loop matches the oracle rebuild on every counter and the exact
/// completion-time bits.
#[test]
fn async_incremental_patch_matches_oracle_rebuild() {
    let p = Synchronized::new(count_neighbors_quiet(2));
    for (name, g) in graph_family() {
        let adv = UniformRandom { seed: 13 };
        for seed in 0..3 {
            let plan = plan_for(&g, 500 + seed);
            let [a, b] = [PatchMode::Incremental, PatchMode::Rebuild].map(|mode| {
                let plan = plan.clone().with_mode(mode);
                let sim = Simulation::asynchronous(&p, &g, &adv).seed(seed);
                sim.with_churn(&plan).run().expect("churn runs terminate")
            });
            assert_eq!(
                async_fingerprint(&a),
                async_fingerprint(&b),
                "{name}/seed{seed}"
            );
            assert_eq!(a.churn(), b.churn(), "{name}/seed{seed}: summaries");
        }
    }
}

/// Contract 3: the empty plan is bit-identical to the churn-free engine
/// on all three backends, and reports an all-live, all-zero summary.
#[test]
fn empty_plan_is_bit_identical_to_churn_free_engine() {
    let empty = ChurnPlan::new();
    for (name, g) in graph_family() {
        let sync_p = AsMulti(random_beeper(4, 2));
        let with = run_sync_churn(&sync_p, &g, 7, &empty);
        let summary = with.churn().expect("a churn run");
        let without = Simulation::sync(&sync_p, &g).seed(7).run().unwrap();
        assert_eq!(
            sync_fingerprint(&with),
            sync_fingerprint(&without),
            "{name}: sync"
        );
        assert_eq!(summary.live_count(), g.node_count(), "{name}: all live");
        assert_eq!(
            summary.crashes + summary.restarts + summary.edge_inserts + summary.edge_deletes,
            0,
            "{name}: no events"
        );

        let poke = Poke::new();
        let with = run_scoped_churn(&poke, &g, 7, &empty);
        let without = Simulation::scoped(&poke, &g).seed(7).run().unwrap();
        assert_eq!(
            scoped_fingerprint(&with),
            scoped_fingerprint(&without),
            "{name}: scoped"
        );

        let async_p = Synchronized::new(count_neighbors_quiet(2));
        let adv = UniformRandom { seed: 5 };
        let with = Simulation::asynchronous(&async_p, &g, &adv)
            .seed(7)
            .with_churn(&empty)
            .run()
            .unwrap();
        let without = Simulation::asynchronous(&async_p, &g, &adv)
            .seed(7)
            .scheduler(SchedulerKind::BinaryHeap)
            .run()
            .unwrap();
        assert_eq!(
            async_fingerprint(&with),
            async_fingerprint(&without),
            "{name}: async (vs heap scheduler)"
        );
    }
}

/// Counts `on_step` calls whose time is earlier than the step before.
#[derive(Default)]
struct StepOrder {
    last: f64,
    inversions: u32,
}

impl<S> Observer<S> for StepOrder {
    fn on_step(&mut self, time: f64, _v: NodeId, _t: u64, _state: &S) {
        if time < self.last {
            self.inversions += 1;
        }
        self.last = time;
    }
}

/// The async loop applies a boundary before any event at or after its
/// time, and on a drained queue the next boundary outright, on both
/// queues. Crashing every node drains the queue long before a later
/// restart; the run must then finish as the Sync backend does. A
/// restarted node's first step can come before an event already due;
/// no observer may see step times go backwards.
#[test]
fn async_churn_boundaries_apply_in_time_order() {
    let queues = [SchedulerKind::CalendarWheel, SchedulerKind::BinaryHeap];
    let p = Synchronized::new(count_neighbors_quiet(2));
    let run = |g: &Graph, plan: &ChurnPlan, seed: u64, queue, observer: &mut StepOrder| {
        let adv = UniformRandom { seed };
        Simulation::asynchronous(&p, g, &adv)
            .seed(seed)
            .with_churn(plan)
            .scheduler(queue)
            .observe(observer)
            .run()
    };

    let g = generators::cycle(4);
    let crash_all = (0..4).fold(ChurnPlan::new(), |plan, v| {
        plan.at(1, TopologyEvent::Crash(v))
    });
    let restart_all = (0..4).fold(crash_all.clone(), |plan, v| {
        plan.at(50, TopologyEvent::Restart(v))
    });
    let restart_one = crash_all.clone().at(50, TopologyEvent::Restart(0));
    // The queue drains after the crashes; the last boundary is a no-op.
    let crash_again = crash_all.at(5, TopologyEvent::Crash(0));
    for (name, plan) in [
        ("restart-all", restart_all),
        ("restart-0", restart_one),
        ("crash-again", crash_again),
    ] {
        let sync = run_sync_churn(&AsMulti(count_neighbors_quiet(2)), &g, 7, &plan);
        for queue in queues {
            let mut order = StepOrder::default();
            let async_outcome = run(&g, &plan, 7, queue, &mut order)
                .unwrap_or_else(|e| panic!("{name}/{queue:?}: {e}"));
            assert_eq!(async_outcome.outputs, sync.outputs, "{name}/{queue:?}");
            assert_eq!(async_outcome.churn(), sync.churn(), "{name}/{queue:?}");
            assert_eq!(order.inversions, 0, "{name}/{queue:?}");
        }
    }

    let g = generators::cycle(6);
    let plan = (1..6)
        .fold(ChurnPlan::new(), |plan, v| {
            plan.at(1, TopologyEvent::Crash(v))
        })
        .at(7, TopologyEvent::Restart(1));
    let mut out_of_order = Vec::new();
    for seed in 0..50 {
        for queue in queues {
            let mut order = StepOrder::default();
            run(&g, &plan, seed, queue, &mut order)
                .unwrap_or_else(|e| panic!("seed {seed}/{queue:?}: {e}"));
            if order.inversions > 0 {
                out_of_order.push(format!("seed {seed}/{queue:?}"));
            }
        }
    }
    assert!(
        out_of_order.is_empty(),
        "steps ran out of time order: {out_of_order:?}"
    );
}

/// Crashed-undecided nodes report `DEAD_OUTPUT`; dead-but-decided nodes
/// keep their last output; the summary's live set matches the plan.
#[test]
fn dead_node_outputs_and_live_set() {
    let g = generators::cycle(6);
    let p = AsMulti(count_neighbors(3));
    // Crash node 2 before it can decide (its decision lands at round 2).
    let plan = ChurnPlan::new().at(1, TopologyEvent::Crash(2));
    let out = run_sync_churn(&p, &g, 0, &plan);
    let summary = out.churn().expect("a churn run");
    assert_eq!(out.outputs[2], stoneage_sim::churn::DEAD_OUTPUT);
    assert!(!summary.live_nodes[2]);
    assert_eq!(summary.live_count(), 5);
    // Crash it after everyone decided: the decided output survives.
    let plan = ChurnPlan::new().at(4, TopologyEvent::Crash(2));
    let out = run_sync_churn(&p, &g, 0, &plan);
    assert_eq!(out.outputs[2], 3, "cycle node heard both neighbors");
    assert!(!out.churn().expect("a churn run").live_nodes[2]);
}

/// Contract 4: pinned churn fingerprints. Recorded when the subsystem
/// landed; a fixed (case, seed) cell must reproduce its hash forever. If
/// a deliberate semantics change invalidates them, re-derive with
/// `cargo run -p stoneage-bench --bin fingerprint` and justify in the
/// commit message.
#[test]
fn pinned_churn_fingerprints() {
    let mut drift = Vec::new();
    for (i, (name, seed)) in CHURN_PINNED_CASES.iter().enumerate() {
        let got = churn_fingerprint(&run_churn_pinned(name, *seed));
        let want = PINNED_CHURN[i].2;
        if got != want {
            drift.push(format!("(\"{name}\", {seed}, {got:#018x}) != {want:#018x}"));
        }
    }
    assert!(
        drift.is_empty(),
        "pinned churn fingerprints changed:\n{}",
        drift.join("\n")
    );
}

const PINNED_CHURN: [(&str, u64, u64); 4] = [
    ("gnp-churn", 1, 0x443c24bf21b2d369),
    ("tree-churn", 3, 0xe4bf85e47318fa80),
    ("tree-churn", 4, 0x2745995fb1ece220),
    ("grid-churn", 5, 0x5ac2ede07da7ce10),
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Differential property over random instances and random plans: the
    /// incrementally patched sync engine is bit-identical to the oracle
    /// rebuild (and the summaries agree).
    #[test]
    fn patched_matches_oracle_on_random_instances(
        n in 2usize..60,
        pr in 0.0f64..0.35,
        gseed in 0u64..300,
        pseed in 0u64..300,
        seed in 0u64..300,
        events in 1usize..10,
    ) {
        let g = generators::gnp(n, pr, gseed);
        let plan = ChurnPlan::random(&g, pseed, events, 6);
        let protocol = AsMulti(random_beeper(4, 2));
        let a = run_sync_churn(&protocol, &g, seed, &plan.clone().with_mode(PatchMode::Incremental));
        let b = run_sync_churn(&protocol, &g, seed, &plan.clone().with_mode(PatchMode::Rebuild));
        prop_assert_eq!(churn_fingerprint(&a), churn_fingerprint(&b));
        prop_assert_eq!(a.outputs, b.outputs);
        prop_assert_eq!(a.states, b.states);
    }
}

mod parallel {
    use super::*;
    use stoneage_sim::parbuf::ShardPlan;
    use stoneage_sim::{MergeStrategy, ParallelPolicy};
    use stoneage_testkit::{adversarial_worker_counts as worker_counts, skewed_graph_family};

    fn run_sync_churn_par(
        protocol: &SyncP,
        g: &Graph,
        seed: u64,
        plan: &ChurnPlan,
        policy: ParallelPolicy,
    ) -> Outcome<SyncP> {
        let sim = Simulation::sync(protocol, g).seed(seed).with_churn(plan);
        sim.parallel(policy).run().expect("churn runs terminate")
    }

    fn run_scoped_churn_par(
        protocol: &Poke,
        g: &Graph,
        seed: u64,
        plan: &ChurnPlan,
        policy: ParallelPolicy,
    ) -> Outcome<Poke> {
        let sim = Simulation::scoped(protocol, g).seed(seed).with_churn(plan);
        sim.parallel(policy).run().expect("churn runs terminate")
    }

    /// Contract 2: the full adversarial matrix — worker counts × patch
    /// modes, over the uniform and the skewed families — reproduces the
    /// serial churn outcome bit for bit, on both lockstep backends.
    #[test]
    fn parallel_churn_matrix_matches_serial() {
        let sync_p = AsMulti(random_beeper(5, 2));
        let poke = Poke::new();
        for (name, g) in graph_family().into_iter().chain(skewed_graph_family()) {
            for seed in 0..2 {
                let plan = plan_for(&g, 700 + seed);
                let serial_sync = run_sync_churn(&sync_p, &g, seed, &plan);
                let serial_scoped = run_scoped_churn(&poke, &g, seed, &plan);
                for workers in worker_counts() {
                    for mode in [PatchMode::Incremental, PatchMode::Rebuild] {
                        let cell = plan.clone().with_mode(mode);
                        let policy =
                            ParallelPolicy::forced(workers, MergeStrategy::DestinationSharded);
                        let ctx = format!("{name}/seed{seed}/w{workers}/{mode:?}");
                        let p_out = run_sync_churn_par(&sync_p, &g, seed, &cell, policy);
                        assert_eq!(
                            sync_fingerprint(&p_out),
                            sync_fingerprint(&serial_sync),
                            "{ctx}: sync"
                        );
                        assert_eq!(p_out.churn(), serial_sync.churn(), "{ctx}: sync summary");
                        let s_out = run_scoped_churn_par(&poke, &g, seed, &cell, policy);
                        assert_eq!(
                            scoped_fingerprint(&s_out),
                            scoped_fingerprint(&serial_scoped),
                            "{ctx}: scoped"
                        );
                        let summary = serial_scoped.churn();
                        assert_eq!(s_out.churn(), summary, "{ctx}: scoped summary");
                    }
                }
            }
        }
    }

    /// The parallel path reproduces the pinned churn fingerprints at
    /// every worker count.
    #[test]
    fn parallel_reproduces_pinned_churn_fingerprints() {
        for (i, (name, seed)) in CHURN_PINNED_CASES.iter().enumerate() {
            let (g, p, plan) = stoneage_testkit::churn_pinned_case(name);
            let p = AsMulti(p);
            for workers in worker_counts() {
                let policy = ParallelPolicy::forced(workers, MergeStrategy::DestinationSharded);
                let out = run_sync_churn_par(&p, &g, *seed, &plan, policy);
                assert_eq!(
                    churn_fingerprint(&out),
                    PINNED_CHURN[i].2,
                    "{name}/seed{seed}/w{workers}"
                );
            }
        }
    }

    /// The documented churn contract of the planner (see
    /// `pipeline::run_parallel`): the shard plan is built **once** over
    /// the closed universe CSR and stays valid for the whole run — churn
    /// patches toggle letters and tombstones inside the fixed layout,
    /// never the slot counts the planner balances on. Pinned here as (a)
    /// full coverage of the universe including crashed/extra-edge nodes
    /// and (b) rebuild determinism: re-planning at any later boundary
    /// would reproduce the identical bounds, so skipping the re-plan is
    /// free.
    #[test]
    fn churn_patches_leave_shard_plan_valid() {
        let g = generators::power_law(200, 2, 0.85, 11);
        let plan = ChurnPlan::random(&g, 31, 10, 8)
            .at(1, TopologyEvent::Crash(0))
            .at(3, TopologyEvent::Restart(0));
        let universe = plan.universe(&g).expect("universe closes");
        for workers in [1, 2, 4, 7] {
            let bounds = ShardPlan::new(&universe, workers);
            assert_eq!(*bounds.bounds().first().unwrap(), 0);
            assert_eq!(
                *bounds.bounds().last().unwrap(),
                universe.node_count(),
                "w{workers}: plan must cover every universe node, live or not"
            );
            assert!(
                bounds.bounds().windows(2).all(|w| w[0] <= w[1]),
                "w{workers}: bounds must ascend"
            );
            assert_eq!(
                bounds.bounds(),
                ShardPlan::new(&universe, workers).bounds(),
                "w{workers}: re-planning over the immutable universe CSR must be a no-op"
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// Random instances × random plans × the parallel matrix: every
        /// cell matches the serial churn engine.
        #[test]
        fn parallel_churn_matches_serial_on_random_instances(
            n in 2usize..50,
            pr in 0.0f64..0.3,
            gseed in 0u64..200,
            pseed in 0u64..200,
            seed in 0u64..200,
            widx in 0usize..4,
        ) {
            let g = generators::gnp(n, pr, gseed);
            let plan = ChurnPlan::random(&g, pseed, 6, 5);
            let protocol = AsMulti(random_beeper(4, 2));
            let workers = worker_counts()[widx % worker_counts().len()];
            let policy = ParallelPolicy::forced(workers, MergeStrategy::DestinationSharded);
            let a = run_sync_churn(&protocol, &g, seed, &plan);
            let b = run_sync_churn_par(&protocol, &g, seed, &plan, policy);
            prop_assert_eq!(churn_fingerprint(&a), churn_fingerprint(&b));
        }
    }
}
