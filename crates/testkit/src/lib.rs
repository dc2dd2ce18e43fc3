//! Shared deterministic fixtures for the engine test suites and the
//! `stoneage-bench` `fingerprint` bin.
//!
//! The pinned-fingerprint panels used to be duplicated between
//! `crates/sim/tests/flat_engine.rs`, `crates/sim/tests/async_wheel.rs`,
//! and the fingerprint bin so the tests stayed hermetic. With three
//! copies the panel had grown past the point where drift between copies
//! was a bigger risk than the shared dependency, so the fixtures live
//! here now — **one** transcription of each protocol builder, the fnv1a
//! outcome hashes, and the pinned case *instances*. The pinned hash
//! constants themselves stay in the test files: a test still fails on its
//! own recorded numbers, not on values this crate could silently move.
//!
//! Nothing here is randomized at fixture level: every builder is a pure
//! function of its arguments, and every case table is a fixed instance,
//! so two processes running the same case always hash identical outcomes
//! (the CI determinism job relies on this).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use stoneage_core::{
    Alphabet, AsMulti, Letter, ObsVec, Protocol, Synchronized, TableProtocol, TableProtocolBuilder,
    Transitions,
};
use stoneage_graph::{generators, Graph, NodeId, TopologyEvent};
use stoneage_sim::{
    AsyncOptions, AsyncOutcome, Backend, ChurnPlan, ChurnSummary, FaultPlan, FaultSummary,
    LinkFault, Observer, SchedulerKind, ScopedEmission, ScopedMultiFsm, ScopedTransitions,
    Simulation, SnapState, SnapWriter, Snapshot, SyncOutcome,
};

/// Builder-backed twins of the retired legacy `run_*` free functions,
/// with the legacy call shapes.
///
/// The `run_*` shims were deleted from `stoneage_sim` (the builder is
/// the only entry point now), but many test suites and the experiment
/// harness are written against the legacy shapes; these wrappers route
/// those call sites through the unified [`Simulation`] builder from
/// **one** place, so a builder signature change doesn't ripple through
/// a dozen local copies. (The
/// `parallel`-schedule twins stay local to the few `--features
/// parallel` suites that need them: this crate cannot observe which
/// features its `stoneage-sim` was built with.)
pub mod harness {
    use stoneage_core::{Fsm, MultiFsm};
    use stoneage_graph::Graph;
    use stoneage_sim::{
        Adversary, AsyncConfig, AsyncOptions, AsyncOutcome, Backend, ExecError, Observer,
        ScopedMultiFsm, ScopedOutcome, Simulation, SyncConfig, SyncOutcome,
    };

    /// Builder twin of the legacy `run_sync`.
    pub fn run_sync<P>(
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
    pub fn run_sync_with_inputs<P>(
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
    pub fn run_sync_observed<P, O>(
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

    /// Builder twin of the legacy `run_async`. Forwards every
    /// [`AsyncConfig`] field, scheduler and bucket width included.
    pub fn run_async<P: Fsm, A: Adversary + ?Sized>(
        protocol: &P,
        graph: &Graph,
        adversary: &A,
        config: &AsyncConfig,
    ) -> Result<AsyncOutcome, ExecError> {
        let mut options = AsyncOptions::new(&adversary).with_scheduler(config.scheduler);
        options.bucket_width = config.bucket_width;
        Simulation::asynchronous(protocol, graph, &adversary)
            .seed(config.seed)
            .budget(config.max_events)
            .backend(Backend::Async(options))
            .run()
            .map(|o| o.into_async_outcome().expect("async backend"))
    }

    /// Builder twin of the legacy `run_async_with_inputs`. Forwards
    /// every [`AsyncConfig`] field.
    pub fn run_async_with_inputs<P: Fsm, A: Adversary + ?Sized>(
        protocol: &P,
        graph: &Graph,
        inputs: &[usize],
        adversary: &A,
        config: &AsyncConfig,
    ) -> Result<AsyncOutcome, ExecError> {
        let mut options = AsyncOptions::new(&adversary).with_scheduler(config.scheduler);
        options.bucket_width = config.bucket_width;
        Simulation::asynchronous(protocol, graph, &adversary)
            .seed(config.seed)
            .budget(config.max_events)
            .backend(Backend::Async(options))
            .inputs(inputs)
            .run()
            .map(|o| o.into_async_outcome().expect("async backend"))
    }

    /// Builder twin of the legacy `run_scoped`.
    pub fn run_scoped<P>(
        protocol: &P,
        graph: &Graph,
        seed: u64,
        max_rounds: u64,
    ) -> Result<ScopedOutcome, ExecError>
    where
        P: ScopedMultiFsm + Sync,
        P::State: Send + Sync,
    {
        Simulation::scoped(protocol, graph)
            .seed(seed)
            .budget(max_rounds)
            .run()
            .map(|o| o.into_scoped_outcome().expect("scoped backend"))
    }
}

/// Deterministic single-letter protocol over `["beep"]`: every node beeps
/// in round 1, then outputs `1 + f_b(#beeps heard)`. The synchronous
/// suites' workhorse — its outputs encode the truncated degree profile.
pub fn count_neighbors(b: u8) -> TableProtocol {
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

/// The asynchronous suites' variant of [`count_neighbors`]: σ₀ is a
/// distinct `"quiet"` letter, so the observed count genuinely reflects
/// *delivered* beeps — which makes the protocol synchrony-dependent (the
/// property the async differential tests need).
pub fn count_neighbors_quiet(b: u8) -> TableProtocol {
    let alphabet = Alphabet::new(["beep", "quiet"]);
    let mut builder = TableProtocolBuilder::new("count", alphabet, b, Letter(1));
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

/// Randomized protocol: for `phases` rounds each node flips a three-way
/// coin between beeping, idling loudly, and staying silent (exercising
/// the per-node RNG streams, whose draw order no engine rewrite may
/// perturb), then outputs the truncated count of beeps it heard last.
pub fn random_beeper(phases: usize, b: u8) -> TableProtocol {
    let alphabet = Alphabet::new(["beep", "idle"]);
    let mut builder = TableProtocolBuilder::new("rbeep", alphabet, b, Letter(1));
    let states: Vec<_> = (0..phases)
        .map(|i| builder.add_state(format!("r{i}"), Letter(0)))
        .collect();
    builder.add_input_state(states[0]);
    for i in 0..phases {
        if i + 1 < phases {
            let next = states[i + 1];
            builder.set_transition_all(
                states[i],
                Transitions::uniform(vec![
                    (next, Some(Letter(0))),
                    (next, None),
                    (next, Some(Letter(1))),
                ]),
            );
        } else {
            for o in 0..=b {
                let out = builder.add_output_state(format!("out{o}"), Letter(0), o as u64);
                builder.set_transition(states[i], o, Transitions::det(out, None));
                builder.set_transition_all(out, Transitions::det(out, None));
            }
        }
    }
    builder.build().unwrap()
}

/// The adversarial worker counts of the parallel differential matrices:
/// serial-fallback territory (1), the smallest real split (2), a count
/// that never divides the test graphs evenly (7), and whatever this
/// machine actually has — sorted and deduplicated.
pub fn adversarial_worker_counts() -> Vec<usize> {
    let hw = std::thread::available_parallelism()
        .map(|t| t.get())
        .unwrap_or(1);
    let mut ws = vec![1, 2, 7, hw];
    ws.sort_unstable();
    ws.dedup();
    ws
}

/// Both round-pipeline schedules, for the `Fused ≡ Joined ≡ serial`
/// differential matrices: the historical two-join round (the oracle) and
/// the one-join fused round.
pub fn round_modes() -> [stoneage_sim::RoundMode; 2] {
    [
        stoneage_sim::RoundMode::Joined,
        stoneage_sim::RoundMode::Fused,
    ]
}

/// Both chunk schedulers, for the `stealing ≡ static ≡ serial`
/// differential matrices: the shard-owned static schedule (the oracle)
/// and the work-stealing deque schedule.
pub fn chunk_schedulers() -> [stoneage_sim::ChunkScheduler; 2] {
    [
        stoneage_sim::ChunkScheduler::Static,
        stoneage_sim::ChunkScheduler::Stealing,
    ]
}

/// Every parallel cell of the lockstep differential matrices, named for
/// failure messages: each [`adversarial_worker_counts`] entry × both
/// merge strategies × [`round_modes`] × [`chunk_schedulers`]. (Running a
/// cell needs `stoneage-sim`'s `parallel` feature; callers pair this
/// with the serial run themselves.)
pub fn lockstep_policies() -> Vec<(String, stoneage_sim::ParallelPolicy)> {
    use stoneage_sim::{MergeStrategy, ParallelPolicy};
    let mut cells = Vec::new();
    for workers in adversarial_worker_counts() {
        for merge in [
            MergeStrategy::DestinationSharded,
            MergeStrategy::BufferReplay,
        ] {
            for round in round_modes() {
                for scheduler in chunk_schedulers() {
                    cells.push((
                        format!("w{workers}/{merge:?}/{round:?}/{scheduler:?}"),
                        ParallelPolicy::forced(workers, merge)
                            .with_round(round)
                            .with_scheduler(scheduler),
                    ));
                }
            }
        }
    }
    cells
}

/// The skewed graph instances of the work-stealing differential
/// matrices: a preferential-attachment power law (one heavy hub, long
/// degree tail) and the hub-and-spoke stress family whose hub shard
/// carries almost all port slots. Fixed seeds — every caller sees the
/// same instances, so pinned hashes built on them never move.
pub fn skewed_graph_family() -> Vec<(&'static str, Graph)> {
    vec![
        ("power-law", generators::power_law(300, 2, 0.85, 42)),
        ("hub-spoke", generators::hub_and_spoke(3, 60)),
    ]
}

/// The fnv1a-64 word hash all outcome fingerprints build on.
pub fn fnv1a(seed: u64, words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xcbf29ce484222325u64 ^ seed;
    for w in words {
        for byte in w.to_le_bytes() {
            h ^= byte as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
    }
    h
}

/// Fingerprint of a synchronous outcome: rounds, message count, and the
/// full output vector.
pub fn sync_fingerprint(out: &SyncOutcome) -> u64 {
    fnv1a(
        out.rounds ^ (out.messages_sent << 20),
        out.outputs.iter().copied(),
    )
}

/// Fingerprint of an asynchronous outcome: every counter plus the exact
/// bits of the completion time and time unit.
pub fn async_fingerprint(out: &AsyncOutcome) -> u64 {
    fnv1a(
        out.total_steps ^ (out.messages_sent << 16) ^ (out.deliveries << 32),
        out.outputs.iter().copied().chain([
            out.completion_time.to_bits(),
            out.time_unit.to_bits(),
            out.lost_overwrites,
        ]),
    )
}

/// Fingerprint of a scoped outcome: rounds, outputs, and the full scoped
/// delivery transcript (round, endpoints, letter of every port-selected
/// send) — any reordering or drift in the witness list changes the hash.
pub fn scoped_fingerprint(out: &stoneage_sim::ScopedOutcome) -> u64 {
    fnv1a(
        out.rounds ^ ((out.scoped_deliveries.len() as u64) << 24),
        out.outputs
            .iter()
            .copied()
            .chain(out.scoped_deliveries.iter().flat_map(|d| {
                [
                    d.round,
                    ((d.from as u64) << 32) | d.to as u64,
                    d.letter.0 as u64,
                ]
            })),
    )
}

/// The `(case name, seed)` pairs of the pinned synchronous panel.
pub const SYNC_PINNED_CASES: [(&str, u64); 6] = [
    ("gnp-count", 1),
    ("gnp-count2", 2),
    ("tree-rbeep", 1),
    ("tree-rbeep", 2),
    ("grid-rbeep", 7),
    ("grid-rbeep", 8),
];

/// Runs a protocol synchronously through the unified builder, returning
/// the legacy outcome shape the fingerprint helpers hash.
fn sync_via_builder(protocol: TableProtocol, graph: &Graph, seed: u64) -> SyncOutcome {
    Simulation::sync(&AsMulti(protocol), graph)
        .seed(seed)
        .run()
        .expect("pinned cases terminate")
        .into_sync_outcome()
        .expect("sync backend")
}

/// Runs one case of the pinned synchronous panel. Panics on an unknown
/// case name; the instances must never change (the recorded hashes in
/// `crates/sim/tests/flat_engine.rs` pin their outcomes).
pub fn run_sync_pinned(name: &str, seed: u64) -> SyncOutcome {
    match name {
        "gnp-count" => sync_via_builder(count_neighbors(3), &generators::gnp(120, 0.06, 9), seed),
        "gnp-count2" => sync_via_builder(count_neighbors(2), &generators::gnp(90, 0.1, 23), seed),
        "tree-rbeep" => {
            sync_via_builder(random_beeper(5, 2), &generators::random_tree(150, 21), seed)
        }
        "grid-rbeep" => sync_via_builder(random_beeper(4, 3), &generators::grid(10, 14), seed),
        other => panic!("unknown pinned sync case {other}"),
    }
}

/// Fingerprint of a synchronous outcome *plus* its churn summary: the
/// sync fingerprint words followed by the effective event counts and the
/// final live-node set. Any drift in outputs, cost, applied events, or
/// liveness changes the hash.
pub fn churn_fingerprint(out: &SyncOutcome, summary: &ChurnSummary) -> u64 {
    fnv1a(
        out.rounds
            ^ (out.messages_sent << 18)
            ^ (summary.crashes << 40)
            ^ (summary.restarts << 44)
            ^ (summary.edge_inserts << 48)
            ^ (summary.edge_deletes << 52),
        out.outputs
            .iter()
            .copied()
            .chain(summary.live_nodes.iter().map(|&l| l as u64)),
    )
}

/// The `(case name, seed)` pairs of the pinned churn panel.
pub const CHURN_PINNED_CASES: [(&str, u64); 4] = [
    ("gnp-churn", 1),
    ("tree-churn", 3),
    ("tree-churn", 4),
    ("grid-churn", 5),
];

/// The instance behind one pinned churn case: base graph, protocol, and
/// the seeded fault schedule (a pure function of the case name — the
/// plan seed is fixed per case so the schedule never depends on the
/// protocol seed being varied).
pub fn churn_pinned_case(name: &str) -> (Graph, TableProtocol, ChurnPlan) {
    match name {
        "gnp-churn" => {
            let g = generators::gnp(120, 0.06, 9);
            let plan = ChurnPlan::random(&g, 31, 10, 8);
            (g, count_neighbors(3), plan)
        }
        "tree-churn" => {
            let g = generators::random_tree(150, 21);
            let plan = ChurnPlan::random(&g, 47, 8, 7);
            (g, random_beeper(5, 2), plan)
        }
        "grid-churn" => {
            let g = generators::grid(10, 14);
            let plan = ChurnPlan::random(&g, 59, 12, 6);
            (g, random_beeper(4, 3), plan)
        }
        other => panic!("unknown pinned churn case {other}"),
    }
}

/// Runs one case of the pinned churn panel through the unified builder
/// on the serial synchronous backend, returning the legacy outcome and
/// the churn summary the fingerprint hashes.
pub fn run_churn_pinned(name: &str, seed: u64) -> (SyncOutcome, ChurnSummary) {
    let (g, p, plan) = churn_pinned_case(name);
    let outcome = Simulation::sync(&AsMulti(p), &g)
        .seed(seed)
        .with_churn(&plan)
        .run()
        .expect("pinned churn cases terminate");
    let summary = outcome.churn().expect("churn plan was set").clone();
    let out = outcome.into_sync_outcome().expect("sync backend");
    (out, summary)
}

/// Fingerprint of a synchronous outcome *plus* its fault summary: the
/// sync fingerprint words followed by the exact decision and injection
/// tallies. Any drift in outputs, cost, or the per-rule fault decisions
/// changes the hash.
pub fn fault_fingerprint(out: &SyncOutcome, summary: &FaultSummary) -> u64 {
    fnv1a(
        out.rounds ^ (out.messages_sent << 18),
        out.outputs.iter().copied().chain([
            summary.evaluated,
            summary.dropped,
            summary.duplicated,
            summary.corrupted,
        ]),
    )
}

/// The `(case name, seed)` pairs of the pinned message-fault panel.
pub const FAULT_PINNED_CASES: [(&str, u64); 4] = [
    ("gnp-drop", 1),
    ("gnp-mixed", 2),
    ("tree-corrupt", 3),
    ("grid-dup", 5),
];

/// The instance behind one pinned fault case: base graph, protocol, and
/// the seeded fault plan (a pure function of the case name — the plan
/// seed is fixed per case, so varying the protocol seed never moves the
/// per-channel fault decisions).
pub fn fault_pinned_case(name: &str) -> (Graph, TableProtocol, FaultPlan) {
    match name {
        "gnp-drop" => {
            let g = generators::gnp(120, 0.06, 9);
            let plan = FaultPlan::new(101).drop_rate(0.08);
            (g, count_neighbors(3), plan)
        }
        "gnp-mixed" => {
            let g = generators::gnp(90, 0.1, 23);
            // All three fault kinds plus a per-edge override, so the pinned
            // hash witnesses the rule-order semantics too.
            let plan = FaultPlan::new(202)
                .drop_rate(0.05)
                .duplicate_rate(0.04, 2)
                .corrupt_rate(0.03, Letter(0))
                .on_edge(0, 5, LinkFault::Drop, 0.5);
            (g, count_neighbors(2), plan)
        }
        "tree-corrupt" => {
            let g = generators::random_tree(150, 21);
            let plan = FaultPlan::new(303).corrupt_rate(0.1, Letter(1));
            (g, random_beeper(5, 2), plan)
        }
        "grid-dup" => {
            let g = generators::grid(10, 14);
            let plan = FaultPlan::new(404).duplicate_rate(0.12, 1);
            (g, random_beeper(4, 3), plan)
        }
        other => panic!("unknown pinned fault case {other}"),
    }
}

/// Runs one case of the pinned fault panel through the unified builder
/// on the serial synchronous backend, returning the legacy outcome and
/// the fault summary the fingerprint hashes.
pub fn run_fault_pinned(name: &str, seed: u64) -> (SyncOutcome, FaultSummary) {
    let (g, p, plan) = fault_pinned_case(name);
    let outcome = Simulation::sync(&AsMulti(p), &g)
        .seed(seed)
        .with_faults(&plan)
        .run()
        .expect("pinned fault cases terminate");
    let summary = *outcome.faults().expect("fault plan was set");
    let out = outcome.into_sync_outcome().expect("sync backend");
    (out, summary)
}

/// The `(case name, seed)` pairs of the pinned asynchronous panel.
pub const ASYNC_PINNED_CASES: [(&str, u64); 3] = [
    ("gnp-async", 4242),
    ("tree-async", 77),
    ("grid-async", 9000),
];

/// The instance behind one pinned asynchronous case: graph, synchronized
/// protocol, and the adversary seed.
pub fn async_pinned_case(name: &str) -> (Graph, Synchronized<TableProtocol>, u64) {
    match name {
        "gnp-async" => (
            generators::gnp(90, 0.07, 19),
            Synchronized::new(count_neighbors_quiet(2)),
            4,
        ),
        "tree-async" => (
            generators::random_tree(120, 23),
            Synchronized::new(random_beeper(4, 2)),
            5,
        ),
        "grid-async" => (
            generators::grid(9, 11),
            Synchronized::new(random_beeper(3, 3)),
            6,
        ),
        other => panic!("unknown pinned async case {other}"),
    }
}

/// Runs one case of the pinned asynchronous panel under the given
/// scheduler (the heap and wheel paths must reproduce the same hash).
pub fn run_async_pinned(name: &str, seed: u64, scheduler: SchedulerKind) -> AsyncOutcome {
    let (g, p, adv_seed) = async_pinned_case(name);
    let adv = stoneage_sim::adversary::UniformRandom { seed: adv_seed };
    Simulation::asynchronous(&p, &g, &adv)
        .seed(seed)
        .backend(Backend::Async(
            AsyncOptions::new(&adv).with_scheduler(scheduler),
        ))
        .run()
        .expect("pinned cases terminate")
        .into_async_outcome()
        .expect("async backend")
}

/// Fingerprint of an asynchronous run: the [`async_fingerprint`] words,
/// then the churn summary (effective event counts and final live set)
/// and the fault tallies, each when present.
pub fn async_run_fingerprint(
    out: &AsyncOutcome,
    churn: Option<&ChurnSummary>,
    faults: Option<&FaultSummary>,
) -> u64 {
    let present = (churn.is_some() as u64) | (faults.is_some() as u64) << 1;
    let churn = churn.into_iter().flat_map(|c| {
        [c.crashes, c.restarts, c.edge_inserts, c.edge_deletes]
            .into_iter()
            .chain(c.live_nodes.iter().map(|&l| l as u64))
    });
    let faults = faults
        .into_iter()
        .flat_map(|f| [f.evaluated, f.dropped, f.duplicated, f.corrupted]);
    fnv1a(async_fingerprint(out) ^ present, churn.chain(faults))
}

/// An [`Observer`] folding every call it receives into one fnv1a hash:
/// each `on_round_end` (the round and the `SnapState` bytes of every
/// state), each `on_step` (the time's bits, the node, the step index and
/// the state's bytes) and each `on_checkpoint` (the frame's
/// `to_bytes()`). It also checks that `on_step` times never decrease.
#[derive(Debug)]
pub struct Transcript {
    /// The hash so far.
    pub hash: u64,
    last_step: f64,
}

impl Default for Transcript {
    fn default() -> Self {
        Transcript {
            hash: 0,
            last_step: f64::NEG_INFINITY,
        }
    }
}

impl Transcript {
    /// Folds one record: a tag, a position word and a byte string.
    pub fn fold(&mut self, tag: u64, at: u64, bytes: &[u8]) {
        let head = [tag, at, bytes.len() as u64];
        self.hash = fnv1a(
            self.hash,
            head.into_iter().chain(bytes.iter().map(|&b| b as u64)),
        );
    }
}

impl<S: SnapState> Observer<S> for Transcript {
    fn on_round_end(&mut self, round: u64, states: &[S]) {
        let mut w = SnapWriter::new();
        for q in states {
            q.encode(&mut w);
        }
        self.fold(1, round, &w.into_bytes());
    }

    fn on_step(&mut self, time: f64, v: NodeId, t: u64, state: &S) {
        assert!(
            time >= self.last_step,
            "step {t} of node {v} at time {time} follows a step at {}",
            self.last_step
        );
        self.last_step = time;
        let mut w = SnapWriter::new();
        w.u64(v as u64);
        w.u64(t);
        state.encode(&mut w);
        self.fold(3, time.to_bits(), &w.into_bytes());
    }

    fn on_checkpoint(&mut self, snapshot: &Snapshot) {
        self.fold(2, snapshot.boundary(), &snapshot.to_bytes());
    }
}

/// The plan combinations of the async observer-transcript panel.
pub const ASYNC_TRANSCRIPT_PLANS: [&str; 4] = ["none", "churn", "faults", "churn+faults"];

/// The async observer-transcript instance: the synchronized quiet
/// counter on a small gnp with a checkpoint every 40 steps, under `plan`
/// (one of [`ASYNC_TRANSCRIPT_PLANS`]) on `scheduler`. The churn plan is
/// a seeded random plan plus a crash/restart pair of node 0 and an edge
/// delete, so letters in flight to a crashed node and to a deleted edge
/// are both dropped; the fault plan injects duplicates only (drops and
/// corruption can starve the synchronizer), with one per-edge rule.
/// Returns the [`Transcript`] hash, ending with the outcome's
/// [`async_run_fingerprint`].
pub fn async_transcript(plan: &str, scheduler: SchedulerKind) -> u64 {
    let g = generators::gnp(40, 0.12, 6);
    let p = Synchronized::new(count_neighbors_quiet(2));
    let adv = stoneage_sim::adversary::UniformRandom { seed: 3 };
    let (u, v) = (1, g.neighbors(1)[0]);
    let churn = ChurnPlan::random(&g, 29, 8, 10)
        .at(7, TopologyEvent::Crash(0))
        .at(8, TopologyEvent::EdgeDelete(u, v))
        .at(9, TopologyEvent::Restart(0));
    let faults =
        FaultPlan::new(41)
            .duplicate_rate(0.2, 2)
            .on_edge(u, v, LinkFault::Duplicate(1), 0.5);
    let mut observer = Transcript::default();
    let mut sim = Simulation::asynchronous(&p, &g, &adv)
        .seed(8)
        .budget(2_000_000)
        .checkpoint_every(40)
        .backend(Backend::Async(
            AsyncOptions::new(&adv).with_scheduler(scheduler),
        ));
    if plan.starts_with("churn") {
        sim = sim.with_churn(&churn);
    }
    if plan.ends_with("faults") {
        sim = sim.with_faults(&faults);
    }
    let outcome = sim
        .observe(&mut observer)
        .run()
        .unwrap_or_else(|e| panic!("async transcript {plan}: {e}"));
    if plan.starts_with("churn") {
        let c = outcome.churn().expect("churn summary");
        assert!(
            c.crashes > 0 && c.restarts > 0 && c.edge_deletes > 0,
            "{plan}"
        );
    }
    if plan.ends_with("faults") {
        assert!(
            outcome.faults().expect("fault summary").duplicated > 0,
            "{plan}"
        );
    }
    let (churn, faults) = (outcome.churn().cloned(), outcome.faults().copied());
    let out = outcome.into_async_outcome().expect("async backend");
    let fp = async_run_fingerprint(&out, churn.as_ref(), faults.as_ref());
    observer.fold(4, 0, &fp.to_le_bytes());
    observer.hash
}

/// A small id-free scoped protocol for the port-select executor tests:
/// every node broadcasts FREE once, then sends POKE to exactly one
/// uniformly random port still holding FREE, waits a round, and outputs
/// `f_2(#POKE received)`. Exercises both scoped-emission kinds, the
/// engine-level delivery witness, and the per-node RNG draws of the
/// target selection.
#[derive(Clone, Debug)]
pub struct Poke {
    alphabet: Alphabet,
}

impl Poke {
    /// A fresh instance (the protocol is stateless beyond its alphabet).
    pub fn new() -> Self {
        Poke {
            alphabet: Alphabet::new(["INIT", "FREE", "POKE"]),
        }
    }
}

impl Default for Poke {
    fn default() -> Self {
        Poke::new()
    }
}

/// States of [`Poke`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum PokeState {
    /// About to broadcast FREE.
    Announce,
    /// About to poke one FREE port.
    Poke,
    /// Waiting one round for pokes to land.
    Wait,
    /// Terminal, carrying the truncated poke count.
    Done(u64),
}

impl Protocol for Poke {
    type State = PokeState;

    fn alphabet(&self) -> &Alphabet {
        &self.alphabet
    }

    fn bound(&self) -> u8 {
        2
    }

    fn initial_letter(&self) -> Letter {
        Letter(0)
    }

    fn initial_state(&self, _input: usize) -> PokeState {
        PokeState::Announce
    }

    fn output(&self, q: &PokeState) -> Option<u64> {
        match q {
            PokeState::Done(v) => Some(*v),
            _ => None,
        }
    }
}

impl stoneage_sim::SnapState for PokeState {
    fn encode(&self, w: &mut stoneage_sim::SnapWriter) {
        match self {
            PokeState::Announce => w.u8(0),
            PokeState::Poke => w.u8(1),
            PokeState::Wait => w.u8(2),
            PokeState::Done(v) => {
                w.u8(3);
                w.u64(*v);
            }
        }
    }
    fn decode(r: &mut stoneage_sim::SnapReader<'_>) -> Result<Self, stoneage_sim::SnapshotError> {
        Ok(match r.u8()? {
            0 => PokeState::Announce,
            1 => PokeState::Poke,
            2 => PokeState::Wait,
            3 => PokeState::Done(r.u64()?),
            _ => {
                return Err(stoneage_sim::SnapshotError::DigestMismatch {
                    field: "poke state tag",
                })
            }
        })
    }
}

impl ScopedMultiFsm for Poke {
    fn delta(&self, q: &PokeState, obs: &ObsVec) -> ScopedTransitions<PokeState> {
        match q {
            PokeState::Announce => {
                ScopedTransitions::det(PokeState::Poke, ScopedEmission::Broadcast(Letter(1)))
            }
            PokeState::Poke => ScopedTransitions::det(
                PokeState::Wait,
                ScopedEmission::ToOnePortHolding {
                    send: Letter(2),
                    holding: Letter(1),
                },
            ),
            PokeState::Wait => ScopedTransitions::det(
                PokeState::Done(obs.get(Letter(2)).raw() as u64),
                ScopedEmission::Silent,
            ),
            PokeState::Done(v) => {
                ScopedTransitions::det(PokeState::Done(*v), ScopedEmission::Silent)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_is_stable() {
        assert_eq!(fnv1a(0, [0u64]), fnv1a(0, [0u64]));
        assert_ne!(fnv1a(0, [1u64]), fnv1a(0, [2u64]));
        assert_ne!(fnv1a(1, [7u64]), fnv1a(2, [7u64]));
    }

    #[test]
    fn pinned_case_tables_are_runnable() {
        // Every named case must construct and terminate — the hash
        // constants live with the tests, but a broken instance would fail
        // every consumer at once.
        for (name, seed) in SYNC_PINNED_CASES {
            let _ = run_sync_pinned(name, seed);
        }
        for (name, seed) in CHURN_PINNED_CASES {
            let (_, summary) = run_churn_pinned(name, seed);
            // The random plans must actually inject faults — a plan that
            // degenerated to a no-op would pin a meaningless hash.
            assert!(
                summary.crashes + summary.restarts + summary.edge_inserts + summary.edge_deletes
                    > 0,
                "{name} plan is a no-op"
            );
        }
        for (name, seed) in FAULT_PINNED_CASES {
            let (_, summary) = run_fault_pinned(name, seed);
            // The plans must actually fire — an all-miss schedule would
            // pin a hash indistinguishable from the fault-free run.
            assert!(summary.injected() > 0, "{name} plan never fired");
        }
        for (name, seed) in ASYNC_PINNED_CASES {
            let a = run_async_pinned(name, seed, SchedulerKind::BinaryHeap);
            let b = run_async_pinned(name, seed, SchedulerKind::CalendarWheel);
            assert_eq!(async_fingerprint(&a), async_fingerprint(&b), "{name}");
        }
    }
}
