//! Differential tests for the parallel scoped (port-select) executor.
//!
//! The contract under test: the parallel scoped executor — phase 1 +
//! 2a of each shard on its own `std::thread::scope` worker,
//! sharded-write-buffer merge per `stoneage_sim::parbuf` — produces
//! outcomes **bit-identical per seed** to the serial one, including the
//! full scoped-delivery witness transcript (order and all), across graph
//! families (the hub-heavy skewed ones included), adversarial worker
//! counts, and both merge strategies.

use proptest::prelude::*;
use stoneage_graph::{generators, Graph};
use stoneage_sim::{ExecError, MergeStrategy, Outcome, ParallelPolicy, Simulation};
use stoneage_testkit::{
    adversarial_worker_counts as worker_counts, scoped_fingerprint, skewed_graph_family, Poke,
};

/// [`Poke`] on `g` from `seed` within `budget` rounds: serially and
/// under `policy`.
fn serial_and_parallel(
    g: &Graph,
    seed: u64,
    budget: u64,
    policy: ParallelPolicy,
) -> [Result<Outcome<Poke>, ExecError>; 2] {
    let p = Poke::new();
    let sim = || Simulation::scoped(&p, g).seed(seed).budget(budget);
    [sim().run(), sim().parallel(policy).run()]
}

fn assert_same_outcome(ctx: &str, [serial, par]: [Result<Outcome<Poke>, ExecError>; 2]) {
    match (par, serial) {
        (Ok(p), Ok(s)) => {
            assert_eq!(p.outputs, s.outputs, "{ctx}: outputs diverge");
            assert_eq!(p.states, s.states, "{ctx}: states diverge");
            assert_eq!(p.rounds(), s.rounds(), "{ctx}: rounds diverge");
            assert_eq!(
                p.scoped_deliveries(),
                s.scoped_deliveries(),
                "{ctx}: delivery transcripts diverge"
            );
            assert_eq!(
                scoped_fingerprint(&p),
                scoped_fingerprint(&s),
                "{ctx}: fingerprints diverge"
            );
        }
        (Err(p), Err(s)) => assert_eq!(p, s, "{ctx}: errors diverge"),
        (p, s) => panic!(
            "{ctx}: outcome kinds diverge: parallel {:?} vs serial {:?}",
            p.err(),
            s.err()
        ),
    }
}

fn graph_family() -> Vec<(&'static str, Graph)> {
    vec![
        ("gnp", generators::gnp(120, 0.06, 3)),
        ("gnp-dense", generators::gnp(50, 0.3, 17)),
        ("tree", generators::random_tree(150, 11)),
        ("grid", generators::grid(10, 12)),
        ("star", generators::star(40)),
        ("complete", generators::complete(25)),
        ("empty", Graph::empty(20)),
    ]
}

/// [`graph_family`] plus the skewed families, on which the slot-balanced
/// shard plan cuts the node range very unevenly: the witness order must
/// survive shards of wildly different sizes.
fn parallel_family() -> Vec<(&'static str, Graph)> {
    let mut family = graph_family();
    family.extend(skewed_graph_family());
    family
}

/// The auto policy (hardware workers, serial fallback on small graphs)
/// must be indistinguishable from the serial engine.
#[test]
fn auto_parallel_matches_serial() {
    for (name, g) in graph_family() {
        for seed in 0..4 {
            let runs = serial_and_parallel(&g, seed, 100, ParallelPolicy::default());
            assert_same_outcome(&format!("auto/{name}/seed{seed}"), runs);
        }
    }
}

/// Forced worker counts × merge strategies on every family: each cell of
/// the matrix runs the real chunked phases and buffered merge (no
/// serial fallback) and must reproduce the serial outcome — outputs,
/// rounds, and the exact scoped-delivery transcript.
#[test]
fn forced_worker_matrix_matches_serial() {
    for (name, g) in parallel_family() {
        for seed in 10..13 {
            for workers in worker_counts() {
                for merge in [
                    MergeStrategy::DestinationSharded,
                    MergeStrategy::BufferReplay,
                ] {
                    let policy = ParallelPolicy::forced(workers, merge);
                    let runs = serial_and_parallel(&g, seed, 100, policy);
                    let ctx = format!("matrix/{name}/seed{seed}/w{workers}/{merge:?}");
                    assert_same_outcome(&ctx, runs);
                }
            }
        }
    }
}

/// Above the small-graph fallback floor the auto path genuinely runs the
/// chunked machinery — and must still match the serial engine.
#[test]
fn chunked_path_matches_serial_on_large_graph() {
    let g = generators::gnp(6000, 8.0 / 6000.0, 5);
    for seed in 0..2 {
        let runs = serial_and_parallel(&g, seed, 100, ParallelPolicy::default());
        assert_same_outcome(&format!("large/seed{seed}"), runs);
    }
}

/// Round-limit errors must agree too (the spinning phase of Poke cannot
/// spin, so cap the budget below its round count on a path).
#[test]
fn round_limit_is_identical() {
    let g = generators::gnp(80, 0.1, 2);
    for max_rounds in [1u64, 2] {
        for workers in worker_counts() {
            let policy = ParallelPolicy::forced(workers, MergeStrategy::DestinationSharded);
            let runs = serial_and_parallel(&g, 1, max_rounds, policy);
            assert_same_outcome(&format!("limit{max_rounds}/w{workers}"), runs);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Differential property over random instances, seeds, worker
    /// counts, and merge strategies: the forced parallel scoped executor
    /// is bit-identical to the serial one — fingerprint equality covers
    /// outputs, rounds, and the whole delivery transcript.
    #[test]
    fn parallel_matches_serial_on_random_instances(
        n in 2usize..60,
        pr in 0.0f64..0.4,
        gseed in 0u64..300,
        seed in 0u64..300,
        widx in 0usize..4,
        sharded in 0usize..2,
    ) {
        let g = generators::gnp(n, pr, gseed);
        let workers = worker_counts()[widx % worker_counts().len()];
        let merge = if sharded == 1 {
            MergeStrategy::DestinationSharded
        } else {
            MergeStrategy::BufferReplay
        };
        let policy = ParallelPolicy::forced(workers, merge);
        match serial_and_parallel(&g, seed, 100, policy) {
            [Ok(s), Ok(p)] => {
                prop_assert_eq!(scoped_fingerprint(&p), scoped_fingerprint(&s));
                prop_assert_eq!(&p.outputs, &s.outputs);
                prop_assert_eq!(p.scoped_deliveries(), s.scoped_deliveries());
            }
            [s, p] => prop_assert!(false, "outcome kinds diverge: {:?} vs {:?}", s.err(), p.err()),
        }
    }

    /// The same property on random skewed power-law instances — small
    /// hubs, random attachment counts — under the replay merge.
    #[test]
    fn parallel_matches_serial_on_random_skewed_instances(
        n in 10usize..80,
        m in 1usize..4,
        gseed in 0u64..300,
        seed in 0u64..300,
        widx in 0usize..4,
    ) {
        let g = generators::power_law(n, m.min(n - 1), 0.9, gseed);
        let workers = worker_counts()[widx % worker_counts().len()];
        let policy = ParallelPolicy::forced(workers, MergeStrategy::BufferReplay);
        match serial_and_parallel(&g, seed, 100, policy) {
            [Ok(s), Ok(p)] => {
                prop_assert_eq!(scoped_fingerprint(&p), scoped_fingerprint(&s));
                prop_assert_eq!(&p.outputs, &s.outputs);
                prop_assert_eq!(p.scoped_deliveries(), s.scoped_deliveries());
            }
            [s, p] => prop_assert!(false, "outcome kinds diverge: {:?} vs {:?}", s.err(), p.err()),
        }
    }
}
