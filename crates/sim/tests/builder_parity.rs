//! Builder-parity suite: `Simulation::run()` is **bit-identical** to the
//! retired legacy `run_*` free functions.
//!
//! The legacy functions are gone (see the README migration table), so
//! parity is pinned the only way that survives their removal: against
//! **recorded fingerprint constants**. Every constant below was captured
//! from the legacy entry points while they still existed, then verified
//! unchanged against the builder — a builder regression that diverges
//! from the retired semantics moves a fingerprint and fails the suite.
//! The scheduler-differential and parallel-vs-serial tests additionally
//! pin the builder against its own independent engines, and the
//! `ExecError::Config` tests pin the builder's invalid-state reporting
//! (zero budget, zero checkpoint cadence, parallel policy on an
//! asynchronous simulation) — errors, not panics. A backend the
//! protocol cannot drive needs no test: the constructor fixes the
//! backend, so no builder can select another one.

use proptest::prelude::*;
use stoneage_core::{AsMulti, Protocol, Synchronized};
use stoneage_graph::{generators, Graph};
use stoneage_sim::adversary::{standard_panel, UniformRandom};
use stoneage_sim::{Cost, ExecError, Observer, Outcome, SchedulerKind, Simulation};
use stoneage_testkit::{
    async_fingerprint, count_neighbors, count_neighbors_quiet, fnv1a, random_beeper,
    scoped_fingerprint, sync_fingerprint, Poke,
};

fn graph_family() -> Vec<(&'static str, Graph)> {
    vec![
        ("gnp", generators::gnp(90, 0.07, 5)),
        ("tree", generators::random_tree(120, 9)),
        ("grid", generators::grid(9, 11)),
    ]
}

/// Combined fingerprints over (protocol × graph family × seeds 0..4) of
/// the sync backend, recorded from the legacy `run_sync` entry point
/// before its removal. The builder must keep reproducing them forever.
const SYNC_LEGACY_PINNED: [(&str, u64); 2] = [
    ("count_neighbors(3)", 0x419bb613ae9b2325),
    ("random_beeper(5,2)", 0xf985923346c7f302),
];

#[test]
fn sync_builder_reproduces_legacy_pinned_fingerprints() {
    for (name, pinned) in SYNC_LEGACY_PINNED {
        let protocol = match name {
            "count_neighbors(3)" => count_neighbors(3),
            _ => random_beeper(5, 2),
        };
        let p = AsMulti(protocol);
        let mut prints = Vec::new();
        for (gname, g) in graph_family() {
            let inputs = vec![0usize; g.node_count()];
            for seed in 0..4 {
                let built = Simulation::sync(&p, &g).seed(seed).run().unwrap();
                // Explicit all-zero inputs are the documented default:
                // the two call shapes must not diverge.
                let sim = Simulation::sync(&p, &g).seed(seed).inputs(&inputs);
                let built_inputs = sim.run().unwrap();
                assert_eq!(
                    sync_fingerprint(&built),
                    sync_fingerprint(&built_inputs),
                    "{name}/{gname}/seed{seed} (inputs)"
                );
                prints.push(sync_fingerprint(&built));
            }
        }
        assert_eq!(fnv1a(0, prints), pinned, "{name}");
    }
}

/// A counting observer shared by the observed and unobserved runs.
struct LastRound(u64);

impl<S> Observer<S> for LastRound {
    fn on_round_end(&mut self, round: u64, _states: &[S]) {
        self.0 = round;
    }
}

#[test]
fn observed_runs_agree_and_fire_identically() {
    let p = AsMulti(count_neighbors(2));
    let g = generators::gnp(60, 0.1, 3);
    let inputs = vec![0usize; g.node_count()];

    let plain = Simulation::sync(&p, &g)
        .seed(11)
        .inputs(&inputs)
        .run()
        .unwrap();

    let mut built_obs = LastRound(0);
    let built = Simulation::sync(&p, &g)
        .seed(11)
        .inputs(&inputs)
        .observe(&mut built_obs)
        .run()
        .unwrap();

    assert_eq!(
        sync_fingerprint(&plain),
        sync_fingerprint(&built),
        "attaching an observer must not perturb the run"
    );
    assert_eq!(
        Some(built_obs.0),
        built.rounds(),
        "observer saw every round"
    );
}

/// Combined fingerprint over (graph family × standard adversary panel)
/// of the async backend, recorded from the legacy `run_async` entry
/// point before its removal. Both schedulers must reproduce it.
const ASYNC_LEGACY_PINNED: u64 = 0xc0f7be3f8b4b0b30;

#[test]
fn async_builder_reproduces_legacy_pinned_on_both_schedulers() {
    let p = Synchronized::new(count_neighbors_quiet(2));
    let mut prints = Vec::new();
    for (name, g) in graph_family() {
        for (i, adv) in standard_panel(19).iter().enumerate() {
            let seed = 400 + i as u64;
            let mut by_scheduler = Vec::new();
            for scheduler in [SchedulerKind::CalendarWheel, SchedulerKind::BinaryHeap] {
                let sim = Simulation::asynchronous(&p, &g, adv).seed(seed);
                let built = sim.scheduler(scheduler).run().unwrap();
                by_scheduler.push(async_fingerprint(&built));
            }
            assert_eq!(
                by_scheduler[0],
                by_scheduler[1],
                "{name}/{}: wheel and heap must agree bit-for-bit",
                adv.name()
            );
            prints.push(by_scheduler[0]);
        }
    }
    assert_eq!(fnv1a(0, prints), ASYNC_LEGACY_PINNED);
}

#[test]
fn async_explicit_zero_inputs_match_the_default() {
    let p = Synchronized::new(count_neighbors_quiet(2));
    let g = generators::gnp(50, 0.12, 7);
    let inputs = vec![0usize; g.node_count()];
    let adv = UniformRandom { seed: 9 };
    let defaulted = Simulation::asynchronous(&p, &g, &adv)
        .seed(3)
        .run()
        .unwrap();
    let explicit = Simulation::asynchronous(&p, &g, &adv)
        .seed(3)
        .inputs(&inputs)
        .run()
        .unwrap();
    assert_eq!(async_fingerprint(&defaulted), async_fingerprint(&explicit));
}

/// Combined fingerprint over (graph family × seeds 0..4) of the scoped
/// backend — witness transcript included in each per-case hash —
/// recorded from the legacy `run_scoped` entry point before its removal.
const SCOPED_LEGACY_PINNED: u64 = 0xe738dfa3ac68d68c;

#[test]
fn scoped_builder_reproduces_legacy_pinned_including_the_witness() {
    let mut prints = Vec::new();
    for (name, g) in graph_family() {
        for seed in 0..4 {
            let built = Simulation::scoped(&Poke::new(), &g)
                .seed(seed)
                .budget(100)
                .run()
                .unwrap();
            let again = Simulation::scoped(&Poke::new(), &g)
                .seed(seed)
                .budget(100)
                .run()
                .unwrap();
            assert_eq!(
                built.scoped_deliveries(),
                again.scoped_deliveries(),
                "{name}/seed{seed}: witness transcript must be reproducible"
            );
            prints.push(scoped_fingerprint(&built));
        }
    }
    assert_eq!(fnv1a(0, prints), SCOPED_LEGACY_PINNED);
}

#[test]
fn unified_outcome_carries_states_cost_and_workers() {
    let p = AsMulti(count_neighbors(2));
    let g = generators::gnp(40, 0.15, 2);
    let out = Simulation::sync(&p, &g).seed(1).run().unwrap();
    assert_eq!(out.states.len(), g.node_count());
    assert_eq!(out.workers, 1, "serial path reports one worker");
    // Final states decode to exactly the reported outputs.
    let decoded: Vec<u64> = out.states.iter().map(|s| p.output(s).unwrap()).collect();
    assert_eq!(decoded, out.outputs);
    assert!(matches!(out.cost, Cost::Rounds(r) if r == out.rounds().unwrap()));
}

/// Bounded by `Protocol` alone: `Outcome` stores `P::State`, never `P`,
/// so cloning an outcome or unwrapping an expected error must ask no
/// `Clone` or `Debug` of the protocol type itself.
fn clone_and_expect_err<P: Protocol>(
    done: &Outcome<P>,
    failed: Result<Outcome<P>, ExecError>,
) -> (Outcome<P>, ExecError) {
    (done.clone(), failed.expect_err("the run fails"))
}

#[test]
fn outcome_clone_and_debug_ask_nothing_of_the_protocol_type() {
    let p = AsMulti(count_neighbors(2));
    let g = generators::gnp(40, 0.15, 2);
    let out = Simulation::sync(&p, &g).seed(1).run().unwrap();
    assert!(out.rounds().unwrap() > 1);
    let failed = Simulation::sync(&p, &g).seed(1).budget(1).run();
    let (copy, err) = clone_and_expect_err(&out, failed);
    assert_eq!(format!("{copy:?}"), format!("{out:?}"));
    assert!(matches!(err, ExecError::RoundLimit { limit: 1, .. }));
}

#[test]
fn builder_validates_inputs_for_every_backend() {
    let bad = vec![0usize; 3];
    let g = generators::path(5);

    let p = AsMulti(count_neighbors(1));
    let err = Simulation::sync(&p, &g).inputs(&bad).run().unwrap_err();
    assert_eq!(
        err,
        ExecError::InputLengthMismatch {
            nodes: 5,
            inputs: 3
        }
    );

    let pf = count_neighbors_quiet(1);
    let adv = UniformRandom { seed: 1 };
    let err = Simulation::asynchronous(&pf, &g, &adv)
        .inputs(&bad)
        .run()
        .unwrap_err();
    assert_eq!(
        err,
        ExecError::InputLengthMismatch {
            nodes: 5,
            inputs: 3
        }
    );

    let err = Simulation::scoped(&Poke::new(), &g)
        .inputs(&bad)
        .run()
        .unwrap_err();
    assert_eq!(
        err,
        ExecError::InputLengthMismatch {
            nodes: 5,
            inputs: 3
        }
    );
}

#[test]
fn invalid_builder_states_are_config_errors_not_panics() {
    let g = generators::path(4);
    let p = AsMulti(count_neighbors(1));
    let pf = count_neighbors_quiet(1);
    let adv = UniformRandom { seed: 2 };
    let poke = Poke::new();
    let config = |cell: &str, err: Option<ExecError>| {
        assert!(
            matches!(err, Some(ExecError::Config { .. })),
            "{cell}: {err:?}"
        );
    };

    // A zero budget or checkpoint cadence, on every constructor. (The
    // policy-on-Async check lives in the `parallel` module below.)
    config(
        "sync budget",
        Simulation::sync(&p, &g).budget(0).run().err(),
    );
    let sim = Simulation::sync(&p, &g).checkpoint_every(0);
    config("sync cadence", sim.run().err());
    config(
        "scoped budget",
        Simulation::scoped(&poke, &g).budget(0).run().err(),
    );
    let sim = Simulation::scoped(&poke, &g).checkpoint_every(0);
    config("scoped cadence", sim.run().err());
    let asynchronous = || Simulation::asynchronous(&pf, &g, &adv);
    config("async budget", asynchronous().budget(0).run().err());
    config(
        "async cadence",
        asynchronous().checkpoint_every(0).run().err(),
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Builder setters are order-independent: any permutation of the
    /// configuration chain yields the bit-identical outcome.
    #[test]
    fn builder_field_order_does_not_affect_outcomes(
        n in 2usize..50,
        pr in 0.0f64..0.3,
        gseed in 0u64..200,
        seed in 0u64..200,
        budget in 50u64..5000,
        perm in 0usize..6,
    ) {
        let g = generators::gnp(n, pr, gseed);
        let p = AsMulti(random_beeper(4, 2));
        let inputs = vec![0usize; n];

        // Reference order: seed, budget, inputs.
        let reference = Simulation::sync(&p, &g)
            .seed(seed)
            .budget(budget)
            .inputs(&inputs)
            .run();

        // One of the five other permutations of the same three setters.
        let permuted = match perm {
            0 => Simulation::sync(&p, &g).seed(seed).inputs(&inputs).budget(budget).run(),
            1 => Simulation::sync(&p, &g).budget(budget).seed(seed).inputs(&inputs).run(),
            2 => Simulation::sync(&p, &g).budget(budget).inputs(&inputs).seed(seed).run(),
            3 => Simulation::sync(&p, &g).inputs(&inputs).seed(seed).budget(budget).run(),
            4 => Simulation::sync(&p, &g).inputs(&inputs).budget(budget).seed(seed).run(),
            _ => Simulation::sync(&p, &g).seed(seed).budget(budget).inputs(&inputs).run(),
        };

        match (reference, permuted) {
            (Ok(a), Ok(b)) => {
                prop_assert_eq!(&a.outputs, &b.outputs);
                prop_assert_eq!(sync_fingerprint(&a), sync_fingerprint(&b));
            }
            (Err(a), Err(b)) => prop_assert_eq!(a, b),
            (a, b) => prop_assert!(false, "outcome kinds diverge: {:?} vs {:?}", a, b),
        }
    }
}

mod parallel {
    use super::*;
    use stoneage_graph::TopologyEvent;
    use stoneage_sim::{ChurnPlan, MergeStrategy, ParallelPolicy};
    use stoneage_testkit::adversarial_worker_counts;

    #[test]
    fn parallel_builder_matches_the_serial_oracle_for_every_worker_count() {
        let p = AsMulti(random_beeper(5, 2));
        for (name, g) in graph_family() {
            let serial = Simulation::sync(&p, &g).seed(7).run().unwrap();
            let scoped_serial = Simulation::scoped(&Poke::new(), &g)
                .seed(7)
                .budget(100)
                .run()
                .unwrap();
            for workers in adversarial_worker_counts() {
                let policy = ParallelPolicy::forced(workers, MergeStrategy::DestinationSharded);
                let built = Simulation::sync(&p, &g)
                    .seed(7)
                    .parallel(policy)
                    .run()
                    .unwrap();
                assert_eq!(
                    built.workers,
                    workers.min(g.node_count()),
                    "{name}/w{workers}: Outcome::workers must surface the count the \
                     shard plan actually runs"
                );
                assert_eq!(
                    sync_fingerprint(&serial),
                    sync_fingerprint(&built),
                    "{name}/w{workers}"
                );

                let built = Simulation::scoped(&Poke::new(), &g)
                    .seed(7)
                    .budget(100)
                    .parallel(policy)
                    .run()
                    .unwrap();
                assert_eq!(
                    built.workers,
                    workers.min(g.node_count()),
                    "{name}/w{workers} (scoped)"
                );
                assert_eq!(
                    scoped_fingerprint(&scoped_serial),
                    scoped_fingerprint(&built),
                    "{name}/w{workers} (scoped)"
                );
            }
        }
    }

    #[test]
    fn default_policy_clamps_workers_to_available_parallelism() {
        let hw = std::thread::available_parallelism()
            .map(|t| t.get())
            .unwrap_or(1);
        let resolved = ParallelPolicy::default().resolve_workers();
        assert_eq!(resolved, hw.max(1), "documented floor of 1, clamp to hw");
        // The small-instance fallback reports the serial path.
        let p = AsMulti(count_neighbors(2));
        let g = generators::gnp(30, 0.2, 1);
        let out = Simulation::sync(&p, &g)
            .parallel(ParallelPolicy::default())
            .run()
            .unwrap();
        assert_eq!(out.workers, 1, "small instance delegates to serial");
    }

    #[test]
    fn parallel_policy_on_async_backend_is_a_config_error() {
        let p = count_neighbors_quiet(1);
        let g = generators::path(4);
        let adv = UniformRandom { seed: 1 };
        let plan = ChurnPlan::new().at(1, TopologyEvent::Crash(0));
        for churn in [None, Some(&plan)] {
            let mut sim =
                Simulation::asynchronous(&p, &g, &adv).parallel(ParallelPolicy::default());
            if let Some(plan) = churn {
                sim = sim.with_churn(plan);
            }
            let Err(ExecError::Config { reason }) = sim.run() else {
                panic!("churn {}: the policy must be rejected", churn.is_some());
            };
            assert!(reason.contains("ParallelPolicy"), "{reason}");
        }
    }
}
