//! Equivalence and determinism tests for the flat delivery engine.
//!
//! The contract under test: the sync backend of
//! [`stoneage_sim::Simulation`] (flat CSR port
//! store, reverse-port-map deliveries, incremental observation counts,
//! undecided-node termination counter) produces outcomes **bit-identical
//! per seed** to the naive pre-flat executor preserved in
//! [`stoneage_sim::reference`] — across graph families, protocols
//! (deterministic and randomized), and failure modes (round-limit):
//! outputs, final states, rounds and message counts all agree.
//! A pinned snapshot additionally guards against silent drift in future
//! engine changes, and the parallel schedule — chunked phase 1
//! *and* the sharded-write-buffer phase 2 of `stoneage_sim::parbuf` —
//! must match the serial engine exactly for every worker count and merge
//! strategy.
//!
//! The protocol builders, fnv1a hash, and pinned case instances live in
//! `stoneage-testkit` (shared with `tests/async_wheel.rs` and the
//! `stoneage-bench` fingerprint bin); the pinned hash *constants* stay
//! here so this suite fails on its own recorded numbers.

use proptest::prelude::*;
use stoneage_core::{
    Alphabet, AsMulti, Letter, MultiFsm, TableProtocol, TableProtocolBuilder, Transitions,
};
use stoneage_graph::{generators, Graph};
use stoneage_sim::{run_sync_reference, ExecError, Outcome, Protocol, Simulation};
use stoneage_testkit::{count_neighbors, random_beeper, run_sync_pinned, sync_fingerprint};

/// Protocol that never reaches an output state (round-limit path).
fn spinner() -> TableProtocol {
    let alphabet = Alphabet::new(["x"]);
    let mut b = TableProtocolBuilder::new("spin", alphabet, 1, Letter(0));
    let s = b.add_state("s", Letter(0));
    b.add_input_state(s);
    b.set_transition_all(s, Transitions::det(s, Some(Letter(0))));
    b.build().unwrap()
}

/// Both runs reached the same outputs, final states, rounds and message
/// count, or failed with the same error.
fn assert_same_outcome<P: Protocol>(
    ctx: &str,
    flat: Result<Outcome<P>, ExecError>,
    reference: Result<Outcome<P>, ExecError>,
) {
    match (flat, reference) {
        (Ok(f), Ok(r)) => {
            assert_eq!(f.outputs, r.outputs, "{ctx}: outputs diverge");
            assert_eq!(f.states, r.states, "{ctx}: final states diverge");
            assert_eq!(f.rounds(), r.rounds(), "{ctx}: rounds diverge");
            assert_eq!(f.detail, r.detail, "{ctx}: message counts diverge");
        }
        (Err(f), Err(r)) => assert_eq!(f, r, "{ctx}: errors diverge"),
        (f, r) => panic!(
            "{ctx}: outcome kinds diverge: flat {:?} vs reference {:?}",
            f.map(|o| o.outputs),
            r.map(|o| o.outputs)
        ),
    }
}

/// `p` on `g` from `seed` within `budget` rounds: the flat engine and
/// the reference executor.
fn both<P>(p: &P, g: &Graph, seed: u64, budget: u64) -> [Result<Outcome<P>, ExecError>; 2]
where
    P: MultiFsm + Sync,
    P::State: Send + Sync,
{
    let inputs = vec![0usize; g.node_count()];
    let flat = Simulation::sync(p, g).seed(seed).budget(budget).run();
    [flat, run_sync_reference(p, g, &inputs, seed, budget)]
}

fn graph_family() -> Vec<(&'static str, Graph)> {
    vec![
        ("gnp", generators::gnp(150, 0.05, 3)),
        ("gnp-dense", generators::gnp(60, 0.3, 17)),
        ("tree", generators::random_tree(200, 11)),
        ("grid", generators::grid(12, 13)),
        ("star", generators::star(40)),
        ("empty", Graph::empty(25)),
    ]
}

#[test]
fn flat_engine_matches_reference_on_deterministic_protocol() {
    let p = AsMulti(count_neighbors(3));
    for (name, g) in graph_family() {
        for seed in 0..5 {
            let [flat, reference] = both(&p, &g, seed, 1_000_000);
            assert_same_outcome(&format!("{name}/seed{seed}"), flat, reference);
        }
    }
}

#[test]
fn flat_engine_matches_reference_on_randomized_protocol() {
    let p = AsMulti(random_beeper(6, 2));
    for (name, g) in graph_family() {
        for seed in 40..46 {
            let [flat, reference] = both(&p, &g, seed, 1_000_000);
            assert_same_outcome(&format!("{name}/seed{seed}"), flat, reference);
        }
    }
}

#[test]
fn flat_engine_matches_reference_on_round_limit() {
    let p = AsMulti(spinner());
    let g = generators::gnp(30, 0.2, 1);
    let [flat, reference] = both(&p, &g, 5, 20);
    assert_same_outcome("spinner", flat, reference);
}

#[test]
fn sparse_count_layout_matches_reference_executor() {
    // A beeper protocol over an alphabet padded past
    // `stoneage_sim::engine::SPARSE_SIGMA_THRESHOLD`, so the flat engine
    // runs its *sparse* per-node observation counts end-to-end. The naive
    // reference executor has no count layout at all, so agreement pins
    // sparse correctness through a whole execution, not just unit ops.
    let names: Vec<String> = (0..60).map(|i| format!("l{i}")).collect();
    let alphabet = Alphabet::new(names);
    let mut builder = TableProtocolBuilder::new("padded", alphabet, 2, Letter(59));
    let start = builder.add_state("start", Letter(0));
    let listen = builder.add_state("listen", Letter(0));
    builder.add_input_state(start);
    builder.set_transition_all(start, Transitions::det(listen, Some(Letter(0))));
    for o in 0..=2 {
        let out = builder.add_output_state(format!("out{o}"), Letter(0), 1 + o as u64);
        builder.set_transition(listen, o, Transitions::det(out, None));
        builder.set_transition_all(out, Transitions::det(out, None));
    }
    let p = AsMulti(builder.build().unwrap());
    for (name, g) in graph_family() {
        for seed in 20..23 {
            let [flat, reference] = both(&p, &g, seed, 1_000_000);
            assert_same_outcome(&format!("sparse/{name}/seed{seed}"), flat, reference);
        }
    }
}

#[test]
fn flat_engine_matches_reference_with_inputs() {
    let p = AsMulti(count_neighbors(2));
    let g = generators::random_tree(80, 4);
    let inputs = vec![0usize; 80];
    assert_same_outcome(
        "with-inputs",
        Simulation::sync(&p, &g).seed(9).inputs(&inputs).run(),
        run_sync_reference(&p, &g, &inputs, 9, 1_000_000),
    );
}

/// Pinned end-to-end snapshot: these fingerprints were recorded when the
/// flat engine landed and must never change for a fixed seed — they pin
/// the "outputs are bit-identical per seed before/after" acceptance
/// criterion against future engine rewrites. If a deliberate
/// semantics-affecting change ever invalidates them, re-derive the
/// constants with `cargo run -p stoneage-bench --bin fingerprint` and
/// justify the change in the commit message.
#[test]
fn pinned_outcome_fingerprints() {
    let expected: [(&str, u64, u64); 6] = PINNED;
    let mut drift = Vec::new();
    for (name, seed, want) in expected {
        let got = sync_fingerprint(&run_sync_pinned(name, seed));
        if got != want {
            drift.push(format!("(\"{name}\", {seed}, {got:#018x}) != {want:#018x}"));
        }
    }
    assert!(
        drift.is_empty(),
        "pinned fingerprints changed:\n{}",
        drift.join("\n")
    );
}

const PINNED: [(&str, u64, u64); 6] = [
    ("gnp-count", 1, 0xc85fc85bcd116721),
    ("gnp-count2", 2, 0xcd6d79cac8f4bf07),
    ("tree-rbeep", 1, 0x46f361ad3970fc82),
    ("tree-rbeep", 2, 0x61aeeecf8ca512a2),
    ("grid-rbeep", 7, 0xb6d1c231dc733bc1),
    ("grid-rbeep", 8, 0x095411f9df84d0a0),
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Differential property: on arbitrary gnp instances and seeds, the
    /// flat engine and the reference engine agree exactly (which in turn
    /// exercises the incremental-count and reverse-port-map paths against
    /// the scan-and-search baseline every round).
    #[test]
    fn flat_matches_reference_on_random_instances(
        n in 1usize..70,
        p in 0.0f64..0.35,
        gseed in 0u64..400,
        seed in 0u64..400,
    ) {
        let g = generators::gnp(n, p, gseed);
        let protocol = AsMulti(random_beeper(4, 2));
        match both(&protocol, &g, seed, 1_000_000) {
            [Ok(f), Ok(r)] => {
                prop_assert_eq!(f.outputs, r.outputs);
                prop_assert_eq!(f.states, r.states);
                prop_assert_eq!(f.cost, r.cost);
                prop_assert_eq!(f.detail, r.detail);
            }
            [f, r] => prop_assert!(false, "outcome kinds diverge: {:?} vs {:?}", f.err(), r.err()),
        }
    }
}

mod parallel {
    use super::*;
    use stoneage_sim::{MergeStrategy, ParallelPolicy};
    use stoneage_testkit::{adversarial_worker_counts as worker_counts, skewed_graph_family};

    /// `p` on `g` from `seed`, serial and under `policy`.
    fn serial_and_parallel<P>(
        p: &P,
        g: &Graph,
        seed: u64,
        policy: ParallelPolicy,
    ) -> [Result<Outcome<P>, ExecError>; 2]
    where
        P: MultiFsm + Sync,
        P::State: Send + Sync,
    {
        let serial = Simulation::sync(p, g).seed(seed).run();
        [
            serial,
            Simulation::sync(p, g).seed(seed).parallel(policy).run(),
        ]
    }

    /// Seed determinism of the auto parallel path: chunked
    /// phase 1 plus the sharded-buffer phase 2 must be indistinguishable
    /// from the serial engine for every seed.
    #[test]
    fn parallel_matches_serial_exactly() {
        let policy = ParallelPolicy::default();
        for (name, g) in graph_family() {
            for seed in 100..104 {
                let det = AsMulti(count_neighbors(2));
                let [serial, par] = serial_and_parallel(&det, &g, seed, policy);
                assert_same_outcome(&format!("par-det/{name}/seed{seed}"), par, serial);
                let rnd = AsMulti(random_beeper(5, 2));
                let [serial, par] = serial_and_parallel(&rnd, &g, seed, policy);
                assert_same_outcome(&format!("par-rnd/{name}/seed{seed}"), par, serial);
            }
        }
    }

    /// Forced worker counts × both merge strategies, on graphs far below
    /// the serial-fallback floor: every cell of the matrix must
    /// reproduce the serial outcome bit for bit. This is the tentpole's
    /// differential guard — `DestinationSharded` is pitted against the
    /// `BufferReplay` oracle by sharing the serial expectation. The
    /// skewed families (a hub-heavy power law and hub-and-spoke) make
    /// the slot-balanced shard plan cut the node range very unevenly.
    #[test]
    fn forced_worker_matrix_matches_serial() {
        let p = AsMulti(random_beeper(5, 2));
        for (name, g) in graph_family().into_iter().chain(skewed_graph_family()) {
            for seed in 200..203 {
                for workers in worker_counts() {
                    for merge in [
                        MergeStrategy::DestinationSharded,
                        MergeStrategy::BufferReplay,
                    ] {
                        let policy = ParallelPolicy::forced(workers, merge);
                        let [serial, par] = serial_and_parallel(&p, &g, seed, policy);
                        let ctx = format!("matrix/{name}/seed{seed}/w{workers}/{merge:?}");
                        assert_same_outcome(&ctx, par, serial);
                    }
                }
            }
        }
    }

    /// The parallel path also reproduces the pinned fingerprints — at
    /// every adversarial worker count, through the real buffered
    /// phase 2.
    #[test]
    fn parallel_reproduces_pinned_fingerprints() {
        let g = generators::gnp(120, 0.06, 9);
        let p = AsMulti(count_neighbors(3));
        for workers in worker_counts() {
            let policy = ParallelPolicy::forced(workers, MergeStrategy::DestinationSharded);
            let out = Simulation::sync(&p, &g).seed(1).parallel(policy).run();
            assert_eq!(
                sync_fingerprint(&out.unwrap()),
                PINNED[0].2,
                "workers {workers}"
            );
        }
    }

    /// Above the small-graph fallback threshold (4096 nodes) the auto
    /// chunked path actually runs — and must still be bit-identical to
    /// the serial engine.
    #[test]
    fn parallel_chunked_path_matches_serial() {
        let g = generators::gnp(6000, 8.0 / 6000.0, 5);
        for seed in 0..3 {
            let rnd = AsMulti(random_beeper(5, 2));
            let [serial, par] = serial_and_parallel(&rnd, &g, seed, ParallelPolicy::default());
            assert_same_outcome(&format!("par-chunked/seed{seed}"), par, serial);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// Differential property over random instances, seeds, worker
        /// counts, and merge strategies: the forced parallel sync engine
        /// is bit-identical to the serial engine (fingerprint equality
        /// covers outputs, rounds, and message counts).
        #[test]
        fn parallel_matches_serial_on_random_instances(
            n in 2usize..60,
            pr in 0.0f64..0.35,
            gseed in 0u64..300,
            seed in 0u64..300,
            widx in 0usize..4,
            sharded in 0usize..2,
        ) {
            let g = generators::gnp(n, pr, gseed);
            let protocol = AsMulti(random_beeper(4, 2));
            let workers = worker_counts()[widx % worker_counts().len()];
            let merge = if sharded == 1 {
                MergeStrategy::DestinationSharded
            } else {
                MergeStrategy::BufferReplay
            };
            let policy = ParallelPolicy::forced(workers, merge);
            match serial_and_parallel(&protocol, &g, seed, policy) {
                [Ok(s), Ok(p)] => {
                    prop_assert_eq!(sync_fingerprint(&p), sync_fingerprint(&s));
                    prop_assert_eq!(p.outputs, s.outputs);
                }
                [s, p] => prop_assert!(false, "outcome kinds diverge: {:?} vs {:?}", s.err(), p.err()),
            }
        }
    }
}
