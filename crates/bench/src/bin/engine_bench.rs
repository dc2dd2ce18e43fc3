//! Emits the `BENCH_engine.json` perf-trajectory snapshot:
//!
//! * **sync section** — rounds/sec of the flat delivery engine vs the
//!   preserved naive reference executor on gnp(50k, avg deg 8);
//! * **async sweep** — events/sec (and derived rounds/sec) of the
//!   calendar-wheel scheduler vs the binary-heap reference scheduler on
//!   gnp / tree / grid instances under a uniform-random adversary, also
//!   under the churn sweep's dense plan and the fault sweep's mixed plan
//!   (wheel and heap each);
//! * **parallel sweep** (`--features parallel` builds) — rounds/sec of
//!   the serial flat engine vs the fully parallel engine (chunked
//!   phase 1 + sharded-write-buffer phase 2) at several worker counts on
//!   the same gnp instance;
//! * **round-pipeline sweep** (`--features parallel` builds) — the
//!   two-join `RoundMode::Joined` schedule vs the one-join
//!   `RoundMode::Fused` schedule (phase 2b deferred onto per-worker
//!   plane shards) at worker counts {2, 4, available} on gnp / tree /
//!   grid instances;
//! * **steal sweep** (`--features parallel` builds) — the static
//!   slot-balanced chunk schedule vs the work-stealing scheduler
//!   (`ChunkScheduler::Stealing`) on skewed power-law / hub-and-spoke
//!   instances (plus a uniform gnp control) under an RNG-heavy prober
//!   workload, where the static schedule's slot balance mis-predicts
//!   per-node cost;
//! * **churn sweep** — rounds/sec of the incrementally patched engine vs
//!   the `ChurnOracle` full-rebuild reference under a dense fault
//!   schedule, plus per-event re-stabilization rounds of MIS / coloring
//!   / matching recorded by a `StabilizationObserver`;
//! * **snapshot sweep** — the checkpoint/resume layer's cost vs graph
//!   size: rounds/sec with an every-round `checkpoint_every(1)` cadence
//!   vs the plain engine (the overhead the `--max-snapshot-overhead`
//!   gate bounds), `Snapshot::to_bytes` / `from_bytes` frame throughput,
//!   and rounds/sec of the resumed remainder of a mid-run frame;
//! * **fault sweep** — rounds/sec of the sync engine with an active
//!   mixed drop/duplicate/corrupt `FaultPlan` vs the fault-free engine
//!   (the overhead the `--max-fault-overhead` gate bounds), plus a
//!   paper-MIS-vs-self-stabilizing-MIS recovery record under a
//!   restart-amid-halted-neighbors schedule (the paper protocol wedges;
//!   the `selfstab` variant re-stabilizes in a few rounds);
//! * **server sweep** — submit-to-done jobs/sec of a batch of small MIS
//!   jobs through the `stoneage-server` HTTP orchestrator vs direct
//!   `Simulation` builder runs, one core each (the overhead the
//!   `--max-server-overhead` gate bounds).
//!
//! ```text
//! engine_bench                          # writes BENCH_engine.json in the cwd
//! engine_bench --out path.json          # custom output path
//! engine_bench --quick                  # CI-sized instances (n = 5k)
//! engine_bench --min-async-speedup 1.0  # exit(1) if any wheel entry
//!                                       # regresses below that ratio
//! engine_bench --min-parallel-speedup 1.5
//!                                       # exit(1) if the parallel engine at
//!                                       # 4+ workers falls below that ratio
//!                                       # (skipped with a warning when the
//!                                       # host has fewer than 4 CPUs)
//! engine_bench --min-fused-speedup 1.0  # exit(1) if the fused pipeline at
//!                                       # 4+ workers falls below that ratio
//!                                       # of the joined pipeline (same
//!                                       # self-skip below 4 CPUs)
//! engine_bench --min-steal-speedup 1.3   # exit(1) if the stealing scheduler
//!                                       # at 4+ workers falls below that
//!                                       # ratio of the static schedule on
//!                                       # any skewed family (same self-skip
//!                                       # below 4 CPUs)
//! engine_bench --min-churn-patch-speedup 1.5
//!                                       # exit(1) if incremental churn
//!                                       # patching falls below that ratio of
//!                                       # the full rebuild (self-skips on
//!                                       # instances under 20k nodes)
//! engine_bench --max-snapshot-overhead 2.0
//!                                       # exit(1) if the every-round
//!                                       # checkpoint cadence slows the sync
//!                                       # engine by more than that factor on
//!                                       # any family
//! engine_bench --max-server-overhead 3.0
//!                                       # exit(1) if the HTTP orchestrator
//!                                       # slows a batch of small jobs by more
//!                                       # than that factor over direct runs
//! engine_bench --max-fault-overhead 2.0
//!                                       # exit(1) if the active FaultPlan
//!                                       # slows the sync engine by more than
//!                                       # that factor on any family
//! ```
//!
//! The sync workload is the same blinker protocol as `benches/engine.rs`:
//! every round every node broadcasts, every delivery flips its port's
//! letter, so both the reverse-port-map write path and the incremental
//! count maintenance run at full tilt. The async workload runs the same
//! blinker under `UniformRandom` to a fixed event budget, so heap and
//! wheel execute the *identical* event sequence (they are bit-identical
//! per seed) and differ only in scheduling cost. Each measurement takes
//! the best of several repetitions.

use std::io::Write as _;
use std::time::Instant;

use stoneage_bench::json::Value;
use stoneage_core::{Alphabet, AsMulti, Letter, TableProtocol, TableProtocolBuilder, Transitions};
use stoneage_graph::{generators, Graph, TopologyEvent};
use stoneage_sim::adversary::UniformRandom;
use stoneage_sim::{
    run_sync_reference, AsyncOptions, Backend, ChurnPlan, ExecError, FaultPlan, PatchMode,
    SchedulerKind, Simulation, StabilizationObserver, SyncConfig, SyncOutcome,
};

fn blinker() -> TableProtocol {
    let alphabet = Alphabet::new(["a", "b"]);
    let mut builder = TableProtocolBuilder::new("blinker", alphabet, 1, Letter(0));
    let s0 = builder.add_state("s0", Letter(0));
    let s1 = builder.add_state("s1", Letter(1));
    builder.add_input_state(s0);
    builder.set_transition_all(s0, Transitions::det(s1, Some(Letter(0))));
    builder.set_transition_all(s1, Transitions::det(s0, Some(Letter(1))));
    builder.build().unwrap()
}

/// The steal-sweep workload: a never-terminating prober whose every
/// transition is a uniform three-way choice, so each node burns an RNG
/// draw per round and per-*node* work dominates per-slot work. That is
/// exactly the cost profile the slot-balanced static `ShardPlan`
/// mis-predicts on node-count-skewed graphs — a hub shard holds a few
/// giant-degree nodes (few RNG draws) while spoke shards hold thousands
/// — and the work-stealing scheduler absorbs.
#[cfg(feature = "parallel")]
fn prober() -> TableProtocol {
    let alphabet = Alphabet::new(["a", "b"]);
    let mut builder = TableProtocolBuilder::new("prober", alphabet, 1, Letter(0));
    let s0 = builder.add_state("s0", Letter(0));
    let s1 = builder.add_state("s1", Letter(1));
    builder.add_input_state(s0);
    builder.set_transition_all(
        s0,
        Transitions::uniform(vec![
            (s1, Some(Letter(0))),
            (s1, Some(Letter(1))),
            (s0, None),
        ]),
    );
    builder.set_transition_all(
        s1,
        Transitions::uniform(vec![
            (s0, Some(Letter(1))),
            (s0, Some(Letter(0))),
            (s1, None),
        ]),
    );
    builder.build().unwrap()
}

fn measure(rounds: u64, reps: usize, run: impl Fn() -> Result<SyncOutcome, ExecError>) -> f64 {
    // Warm-up.
    let _ = run();
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let start = Instant::now();
        let err = run().expect_err("workload never terminates");
        assert!(matches!(err, ExecError::RoundLimit { .. }));
        best = best.min(start.elapsed().as_secs_f64());
    }
    rounds as f64 / best
}

/// Best-rep events/sec of one async scheduler on a fixed event budget,
/// under an optional churn plan and an optional fault plan, plus the
/// unfinished-node frontier at the budget (a cheap differential guard
/// across schedulers).
fn measure_async(
    g: &Graph,
    scheduler: SchedulerKind,
    max_events: u64,
    reps: usize,
    churn: Option<&ChurnPlan>,
    faults: Option<&FaultPlan>,
) -> (f64, usize) {
    let p = blinker();
    let adv = UniformRandom { seed: 11 };
    let run = || {
        let mut sim = Simulation::asynchronous(&p, g, &adv)
            .seed(1)
            .budget(max_events)
            .backend(Backend::Async(
                AsyncOptions::new(&adv).with_scheduler(scheduler),
            ));
        if let Some(plan) = churn {
            sim = sim.with_churn(plan);
        }
        if let Some(plan) = faults {
            sim = sim.with_faults(plan);
        }
        sim.run()
            .map(|o| o.into_async_outcome().expect("async backend"))
    };
    // Warm-up.
    let warm = run().expect_err("blinker never terminates");
    let unfinished = match warm {
        ExecError::EventLimit { unfinished, .. } => unfinished,
        other => panic!("expected EventLimit, got {other:?}"),
    };
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let start = Instant::now();
        let err = run().expect_err("blinker never terminates");
        assert!(matches!(err, ExecError::EventLimit { .. }));
        best = best.min(start.elapsed().as_secs_f64());
    }
    (max_events as f64 / best, unfinished)
}

/// One serial-vs-parallel measurement of the sync engine.
#[cfg(feature = "parallel")]
struct ParEntry {
    workers: usize,
    /// The worker count the engine actually ran with, surfaced by
    /// `Outcome::workers` — the snapshot records it instead of guessing
    /// from `host_cpus`.
    workers_used: usize,
    rounds_per_sec: f64,
    speedup: f64,
}

/// Measures the fully parallel sync engine (chunked phase 1 + sharded
/// buffered phase 2) against the serial `flat` baseline on the same
/// instance, at worker counts {2, 4, available}. Worker counts beyond
/// the host's CPUs are still measured (the OS time-slices them) so the
/// recorded sweep is comparable across hosts, but the gate in `main`
/// only enforces counts the hardware can actually run.
#[cfg(feature = "parallel")]
fn parallel_sweep(
    g: &Graph,
    config: &stoneage_sim::SyncConfig,
    rounds: u64,
    reps: usize,
    serial_rps: f64,
) -> (Vec<ParEntry>, usize) {
    use stoneage_sim::{MergeStrategy, ParallelPolicy};
    let hw = std::thread::available_parallelism()
        .map(|t| t.get())
        .unwrap_or(1);
    let mut worker_counts = vec![2usize, 4, hw];
    worker_counts.sort_unstable();
    worker_counts.dedup();
    worker_counts.retain(|&w| w >= 2);
    let p = AsMulti(blinker());
    let inputs = vec![0usize; g.node_count()];
    let mut entries = Vec::new();
    for w in worker_counts {
        let policy = ParallelPolicy::forced(w, MergeStrategy::DestinationSharded);
        // The count the engine will actually run with — `Outcome::workers`
        // surfaces this on completed runs; the blinker workload always
        // ends at the round budget (an Err), so resolve it from the
        // policy the same way the builder does.
        let workers_used = if policy.use_serial(g.node_count()) {
            1
        } else {
            policy.resolve_workers().min(g.node_count().max(1))
        };
        let rps = measure(rounds, reps, || {
            Simulation::sync(&p, g)
                .seed(config.seed)
                .budget(config.max_rounds)
                .inputs(&inputs)
                .parallel(policy)
                .run()
                .map(|o| o.into_sync_outcome().expect("sync backend"))
        });
        let entry = ParEntry {
            workers: w,
            workers_used,
            rounds_per_sec: rps,
            speedup: rps / serial_rps,
        };
        eprintln!(
            "  parallel[w={} used={}]: {:>8.1} rounds/sec ({:.2}x serial)",
            entry.workers, entry.workers_used, entry.rounds_per_sec, entry.speedup
        );
        entries.push(entry);
    }
    (entries, hw)
}

/// One joined-vs-fused measurement of the parallel round pipeline.
#[cfg(feature = "parallel")]
struct RoundPipelineEntry {
    family: &'static str,
    n: usize,
    workers: usize,
    workers_used: usize,
    joined_rounds_per_sec: f64,
    fused_rounds_per_sec: f64,
    /// fused / joined.
    speedup: f64,
}

/// Measures the two round-pipeline schedules — `RoundMode::Joined` (two
/// scope joins per round) vs `RoundMode::Fused` (one) — on the same
/// instances and worker counts, per graph family. Worker counts beyond
/// the host's CPUs are still recorded for cross-host comparability; the
/// gate in `main` only enforces counts the hardware can genuinely run.
#[cfg(feature = "parallel")]
fn round_pipeline_sweep(quick: bool, rounds: u64, reps: usize) -> (Vec<RoundPipelineEntry>, usize) {
    use stoneage_sim::{MergeStrategy, ParallelPolicy, RoundMode};
    let n: usize = if quick { 5_000 } else { 50_000 };
    let side = (n as f64).sqrt().ceil() as usize;
    let graphs: [(&'static str, Graph); 3] = [
        ("gnp", generators::gnp(n, 8.0 / n as f64, 7)),
        ("tree", generators::random_tree(n, 13)),
        ("grid", generators::grid(side, side)),
    ];
    let hw = std::thread::available_parallelism()
        .map(|t| t.get())
        .unwrap_or(1);
    let mut worker_counts = vec![2usize, 4, hw];
    worker_counts.sort_unstable();
    worker_counts.dedup();
    worker_counts.retain(|&w| w >= 2);
    let p = AsMulti(blinker());
    let config = SyncConfig {
        seed: 1,
        max_rounds: rounds,
    };
    let mut entries = Vec::new();
    for (family, g) in &graphs {
        let nodes = g.node_count();
        eprintln!(
            "engine_bench[round_pipeline]: {family}(n = {nodes}), joined vs fused, \
             {rounds} rounds x {reps} reps"
        );
        let inputs = vec![0usize; nodes];
        for &w in &worker_counts {
            let rps = |round: RoundMode| {
                let policy =
                    ParallelPolicy::forced(w, MergeStrategy::DestinationSharded).with_round(round);
                measure(rounds, reps, || {
                    Simulation::sync(&p, g)
                        .seed(config.seed)
                        .budget(config.max_rounds)
                        .inputs(&inputs)
                        .parallel(policy)
                        .run()
                        .map(|o| o.into_sync_outcome().expect("sync backend"))
                })
            };
            let joined = rps(RoundMode::Joined);
            let fused = rps(RoundMode::Fused);
            let entry = RoundPipelineEntry {
                family,
                n: nodes,
                workers: w,
                workers_used: w.min(nodes.max(1)),
                joined_rounds_per_sec: joined,
                fused_rounds_per_sec: fused,
                speedup: fused / joined,
            };
            eprintln!(
                "  {family}[w={}]: joined {:>8.1} r/s, fused {:>8.1} r/s ({:.2}x)",
                entry.workers,
                entry.joined_rounds_per_sec,
                entry.fused_rounds_per_sec,
                entry.speedup
            );
            entries.push(entry);
        }
    }
    (entries, hw)
}

/// One static-vs-stealing measurement of the chunk scheduler.
#[cfg(feature = "parallel")]
struct StealEntry {
    family: &'static str,
    /// Whether the instance is degree-skewed. The `--min-steal-speedup`
    /// gate only enforces skewed entries; gnp rides along as the uniform
    /// control where stealing should be ~neutral.
    skewed: bool,
    n: usize,
    workers: usize,
    workers_used: usize,
    static_rounds_per_sec: f64,
    stealing_rounds_per_sec: f64,
    /// stealing / static.
    speedup: f64,
    /// Chunk descriptors per round under the stealing schedule — a pure
    /// function of graph and worker count, so deterministic.
    chunks_per_round: u64,
    /// Chunks stolen across one completed probe run (timing-dependent;
    /// recorded for colour, never gated).
    steals_observed: u64,
}

/// Measures the static chunk schedule vs `ChunkScheduler::Stealing` per
/// graph family on the RNG-heavy [`prober`] workload. The skewed
/// families are where the slot-balanced static `ShardPlan` goes wrong:
/// it equalizes port *slots*, so a shard owning the hub holds few nodes
/// and the spoke shards hold thousands, and when per-node cost (an RNG
/// draw per transition) dominates per-slot cost the spoke workers run
/// long while the hub worker idles. Stealing splits every shard into
/// fine chunks and lets the idle worker drain the stragglers. Worker
/// counts beyond the host's CPUs are still recorded for cross-host
/// comparability; the gate in `main` only enforces counts the hardware
/// can genuinely run.
#[cfg(feature = "parallel")]
fn steal_sweep(quick: bool, rounds: u64, reps: usize) -> (Vec<StealEntry>, usize) {
    use stoneage_sim::parbuf::{ChunkPlan, ShardPlan};
    use stoneage_sim::{ChunkScheduler, MergeStrategy, ParallelPolicy};
    let n: usize = if quick { 5_000 } else { 50_000 };
    let graphs: [(&'static str, bool, Graph); 3] = [
        ("power-law", true, generators::power_law(n, 2, 0.95, 7)),
        ("hub-spoke", true, generators::hub_and_spoke(4, n / 4)),
        ("gnp", false, generators::gnp(n, 8.0 / n as f64, 7)),
    ];
    let hw = std::thread::available_parallelism()
        .map(|t| t.get())
        .unwrap_or(1);
    let mut worker_counts = vec![2usize, 4, hw];
    worker_counts.sort_unstable();
    worker_counts.dedup();
    worker_counts.retain(|&w| w >= 2);
    let p = AsMulti(prober());
    let mut entries = Vec::new();
    for (family, skewed, g) in &graphs {
        let nodes = g.node_count();
        eprintln!(
            "engine_bench[steal]: {family}(n = {nodes}), static vs stealing, \
             {rounds} rounds x {reps} reps"
        );
        let inputs = vec![0usize; nodes];
        for &w in &worker_counts {
            let rps = |scheduler: ChunkScheduler| {
                let policy = ParallelPolicy::forced(w, MergeStrategy::DestinationSharded)
                    .with_scheduler(scheduler);
                measure(rounds, reps, || {
                    Simulation::sync(&p, g)
                        .seed(1)
                        .budget(rounds)
                        .inputs(&inputs)
                        .parallel(policy)
                        .run()
                        .map(|o| o.into_sync_outcome().expect("sync backend"))
                })
            };
            let static_rps = rps(ChunkScheduler::Static);
            let stealing_rps = rps(ChunkScheduler::Stealing);
            let workers_used = w.min(nodes.max(1));
            let chunks_per_round = ChunkPlan::new(g, &ShardPlan::new(g, workers_used)).len() as u64;
            // The prober always ends at the round budget (an Err), so its
            // Outcome — and steal counters — never materialize. Run one
            // *terminating* protocol under the same stealing policy to
            // record a real steal tally for the snapshot.
            let steals_observed =
                Simulation::sync(&AsMulti(stoneage_testkit::count_neighbors(3)), g)
                    .seed(1)
                    .parallel(
                        ParallelPolicy::forced(w, MergeStrategy::DestinationSharded)
                            .with_stealing(),
                    )
                    .run()
                    .map(|o| o.steals.steals)
                    .unwrap_or(0);
            let entry = StealEntry {
                family,
                skewed: *skewed,
                n: nodes,
                workers: w,
                workers_used,
                static_rounds_per_sec: static_rps,
                stealing_rounds_per_sec: stealing_rps,
                speedup: stealing_rps / static_rps,
                chunks_per_round,
                steals_observed,
            };
            eprintln!(
                "  {family}[w={}]: static {:>8.1} r/s, stealing {:>8.1} r/s ({:.2}x, \
                 {} chunks/round, {} steals on probe)",
                entry.workers,
                entry.static_rounds_per_sec,
                entry.stealing_rounds_per_sec,
                entry.speedup,
                entry.chunks_per_round,
                entry.steals_observed
            );
            entries.push(entry);
        }
    }
    (entries, hw)
}

/// One incremental-vs-rebuild measurement of the churn patch path.
struct ChurnEntry {
    family: &'static str,
    n: usize,
    edges: usize,
    /// Scheduled topology events per run.
    events: usize,
    incremental_rounds_per_sec: f64,
    rebuild_rounds_per_sec: f64,
    /// incremental / rebuild.
    patch_speedup: f64,
}

/// A dense fault schedule for the churn sweep: every round toggles a
/// fixed set of edges (delete on odd rounds, re-insert on even) and
/// flips node 0 between crashed and restarted, so both the slot
/// retire/revive path and the lifecycle path run every boundary.
fn churn_sweep_plan(g: &Graph, rounds: u64) -> ChurnPlan {
    let toggled: Vec<(u32, u32)> = g.edges().take(8).collect();
    let mut plan = ChurnPlan::new();
    for r in 1..rounds {
        for &(u, v) in &toggled {
            let ev = if r % 2 == 1 {
                TopologyEvent::EdgeDelete(u, v)
            } else {
                TopologyEvent::EdgeInsert(u, v)
            };
            plan = plan.at(r, ev);
        }
        let life = if r % 2 == 1 {
            TopologyEvent::Crash(0)
        } else {
            TopologyEvent::Restart(0)
        };
        plan = plan.at(r, life);
    }
    plan
}

/// Measures incremental port-map patching against the `ChurnOracle`
/// full-rebuild reference on the same dense fault schedule, per graph
/// family. Both paths are bit-identical (pinned by the churn
/// differential suite); only the boundary cost differs — incremental
/// touches O(deg) slots per event, the rebuild reconstructs the whole
/// O(|E|) port store.
fn churn_sweep(quick: bool, rounds: u64, reps: usize) -> Vec<ChurnEntry> {
    let n: usize = if quick { 5_000 } else { 50_000 };
    let side = (n as f64).sqrt().ceil() as usize;
    let graphs: [(&'static str, Graph); 3] = [
        ("gnp", generators::gnp(n, 8.0 / n as f64, 7)),
        ("tree", generators::random_tree(n, 13)),
        ("grid", generators::grid(side, side)),
    ];
    let p = AsMulti(blinker());
    let mut entries = Vec::new();
    for (family, g) in &graphs {
        let nodes = g.node_count();
        let plan = churn_sweep_plan(g, rounds);
        let events = plan.events().len();
        eprintln!(
            "engine_bench[churn]: {family}(n = {nodes}), {events} events over {rounds} rounds \
             x {reps} reps, incremental vs rebuild"
        );
        let rps = |mode: PatchMode| {
            let moded = plan.clone().with_mode(mode);
            measure(rounds, reps, || {
                Simulation::sync(&p, g)
                    .seed(1)
                    .budget(rounds)
                    .with_churn(&moded)
                    .run()
                    .map(|o| o.into_sync_outcome().expect("sync backend"))
            })
        };
        let incremental = rps(PatchMode::Incremental);
        let rebuild = rps(PatchMode::Rebuild);
        let entry = ChurnEntry {
            family,
            n: nodes,
            edges: g.edge_count(),
            events,
            incremental_rounds_per_sec: incremental,
            rebuild_rounds_per_sec: rebuild,
            patch_speedup: incremental / rebuild,
        };
        eprintln!(
            "  {family}: incremental {:>8.1} r/s, rebuild {:>8.1} r/s ({:.2}x)",
            entry.incremental_rounds_per_sec, entry.rebuild_rounds_per_sec, entry.patch_speedup
        );
        entries.push(entry);
    }
    entries
}

/// One checkpoint/resume cost measurement of the snapshot layer.
struct SnapshotEntry {
    family: &'static str,
    n: usize,
    edges: usize,
    /// Serialized size of one mid-run frame.
    frame_bytes: usize,
    plain_rounds_per_sec: f64,
    /// With `checkpoint_every(1)` — a full frame captured every round,
    /// the worst-case cadence.
    checkpointed_rounds_per_sec: f64,
    /// plain / checkpointed; what `--max-snapshot-overhead` bounds.
    overhead: f64,
    /// `Snapshot::to_bytes` frames/sec over the captured frames.
    write_frames_per_sec: f64,
    /// `Snapshot::from_bytes` frames/sec over the serialized frames.
    restore_frames_per_sec: f64,
    /// Rounds/sec of the remainder when resuming a mid-run frame.
    resume_rounds_per_sec: f64,
}

/// Collects checkpoint frames off a benchmark run.
#[derive(Default)]
struct KeepFrames {
    snaps: Vec<stoneage_sim::Snapshot>,
}

impl<S> stoneage_sim::Observer<S> for KeepFrames {
    fn on_checkpoint(&mut self, snapshot: &stoneage_sim::Snapshot) {
        self.snaps.push(snapshot.clone());
    }
}

/// Measures the checkpoint/resume layer against graph size: the
/// slowdown of an every-round checkpoint cadence over the plain sync
/// engine, the byte-level frame write/restore throughput, and the
/// throughput of a resumed remainder. Checkpointed and plain runs are
/// bit-identical (pinned by `crates/sim/tests/snapshot_resume.rs`);
/// only the capture cost differs.
fn snapshot_sweep(quick: bool, rounds: u64, reps: usize) -> Vec<SnapshotEntry> {
    let n: usize = if quick { 5_000 } else { 50_000 };
    let side = (n as f64).sqrt().ceil() as usize;
    let graphs: [(&'static str, Graph); 3] = [
        ("gnp", generators::gnp(n, 8.0 / n as f64, 7)),
        ("tree", generators::random_tree(n, 13)),
        ("grid", generators::grid(side, side)),
    ];
    let p = AsMulti(blinker());
    let mut entries = Vec::new();
    for (family, g) in &graphs {
        let nodes = g.node_count();
        eprintln!(
            "engine_bench[snapshot]: {family}(n = {nodes}), checkpoint_every(1) over \
             {rounds} rounds x {reps} reps"
        );
        let plain = measure(rounds, reps, || {
            Simulation::sync(&p, g)
                .seed(1)
                .budget(rounds)
                .run()
                .map(|o| o.into_sync_outcome().expect("sync backend"))
        });
        let checkpointed = measure(rounds, reps, || {
            let mut obs = KeepFrames::default();
            Simulation::sync(&p, g)
                .seed(1)
                .budget(rounds)
                .checkpoint_every(1)
                .observe(&mut obs)
                .run()
                .map(|o| o.into_sync_outcome().expect("sync backend"))
        });

        // One capture pass to get real frames for the byte-level and
        // resume measurements.
        let mut obs = KeepFrames::default();
        let _ = Simulation::sync(&p, g)
            .seed(1)
            .budget(rounds)
            .checkpoint_every(1)
            .observe(&mut obs)
            .run();
        let frames = obs.snaps;
        assert!(!frames.is_empty(), "cadence 1 must capture frames");

        let mut best_write = f64::INFINITY;
        for _ in 0..reps {
            let start = Instant::now();
            for f in &frames {
                std::hint::black_box(f.to_bytes());
            }
            best_write = best_write.min(start.elapsed().as_secs_f64());
        }
        let serialized: Vec<Vec<u8>> = frames.iter().map(|f| f.to_bytes()).collect();
        let mut best_restore = f64::INFINITY;
        for _ in 0..reps {
            let start = Instant::now();
            for b in &serialized {
                std::hint::black_box(
                    stoneage_sim::Snapshot::from_bytes(b).expect("round-trip parses"),
                );
            }
            best_restore = best_restore.min(start.elapsed().as_secs_f64());
        }

        let snap = &frames[frames.len() / 2];
        let remaining = rounds - snap.boundary();
        let resume = measure(remaining, reps, || {
            Simulation::sync(&p, g)
                .seed(1)
                .budget(rounds)
                .resume_from(snap)
                .run()
                .map(|o| o.into_sync_outcome().expect("sync backend"))
        });

        let entry = SnapshotEntry {
            family,
            n: nodes,
            edges: g.edge_count(),
            frame_bytes: snap.to_bytes().len(),
            plain_rounds_per_sec: plain,
            checkpointed_rounds_per_sec: checkpointed,
            overhead: plain / checkpointed,
            write_frames_per_sec: frames.len() as f64 / best_write,
            restore_frames_per_sec: serialized.len() as f64 / best_restore,
            resume_rounds_per_sec: resume,
        };
        eprintln!(
            "  {family}: plain {:>8.1} r/s, checkpointed {:>8.1} r/s ({:.2}x overhead), \
             frame {} B, write {:.0} f/s, restore {:.0} f/s, resume {:>8.1} r/s",
            entry.plain_rounds_per_sec,
            entry.checkpointed_rounds_per_sec,
            entry.overhead,
            entry.frame_bytes,
            entry.write_frames_per_sec,
            entry.restore_frames_per_sec,
            entry.resume_rounds_per_sec
        );
        entries.push(entry);
    }
    entries
}

/// One faulted-vs-clean measurement of the delivery-boundary fault layer.
struct FaultEntry {
    family: &'static str,
    n: usize,
    edges: usize,
    clean_rounds_per_sec: f64,
    faulted_rounds_per_sec: f64,
    /// clean / faulted; what `--max-fault-overhead` bounds.
    overhead: f64,
}

/// The fault sweep's mixed plan: 5% drops, 3% single duplicates, 2%
/// corrupts on every channel.
fn fault_sweep_plan() -> FaultPlan {
    FaultPlan::new(17)
        .drop_rate(0.05)
        .duplicate_rate(0.03, 1)
        .corrupt_rate(0.02, Letter(0))
}

/// Measures the sync engine with an active mixed `FaultPlan` (5% drops,
/// 3% single duplicates, 2% corrupts) against the fault-free engine on
/// the same instances, per graph family. Fault decisions are positional
/// hashes of (plan stream, receiver slot, round) evaluated at the
/// delivery boundary, so the cost is one hash chain per delivery — the
/// overhead this sweep records and `--max-fault-overhead` bounds.
fn fault_sweep(quick: bool, rounds: u64, reps: usize) -> Vec<FaultEntry> {
    let n: usize = if quick { 5_000 } else { 50_000 };
    let side = (n as f64).sqrt().ceil() as usize;
    let graphs: [(&'static str, Graph); 3] = [
        ("gnp", generators::gnp(n, 8.0 / n as f64, 7)),
        ("tree", generators::random_tree(n, 13)),
        ("grid", generators::grid(side, side)),
    ];
    let p = AsMulti(blinker());
    let plan = fault_sweep_plan();
    let mut entries = Vec::new();
    for (family, g) in &graphs {
        let nodes = g.node_count();
        eprintln!(
            "engine_bench[faults]: {family}(n = {nodes}), mixed 10% fault plan over \
             {rounds} rounds x {reps} reps, faulted vs clean"
        );
        let clean = measure(rounds, reps, || {
            Simulation::sync(&p, g)
                .seed(1)
                .budget(rounds)
                .run()
                .map(|o| o.into_sync_outcome().expect("sync backend"))
        });
        let faulted = measure(rounds, reps, || {
            Simulation::sync(&p, g)
                .seed(1)
                .budget(rounds)
                .with_faults(&plan)
                .run()
                .map(|o| o.into_sync_outcome().expect("sync backend"))
        });
        let entry = FaultEntry {
            family,
            n: nodes,
            edges: g.edge_count(),
            clean_rounds_per_sec: clean,
            faulted_rounds_per_sec: faulted,
            overhead: clean / faulted,
        };
        eprintln!(
            "  {family}: clean {:>8.1} r/s, faulted {:>8.1} r/s ({:.2}x overhead)",
            entry.clean_rounds_per_sec, entry.faulted_rounds_per_sec, entry.overhead
        );
        entries.push(entry);
    }
    entries
}

fn topology_event_json(ev: &TopologyEvent) -> Value {
    let (kind, a, b) = match *ev {
        TopologyEvent::Crash(v) => ("crash", v as u64, None),
        TopologyEvent::Restart(v) => ("restart", v as u64, None),
        TopologyEvent::EdgeInsert(u, v) => ("edge_insert", u as u64, Some(v as u64)),
        TopologyEvent::EdgeDelete(u, v) => ("edge_delete", u as u64, Some(v as u64)),
    };
    let mut fields = vec![
        ("kind".to_owned(), kind.into()),
        ("node".to_owned(), a.into()),
    ];
    if let Some(b) = b {
        fields.push(("other".to_owned(), b.into()));
    }
    Value::Object(fields)
}

/// Renders stabilization records; an event the run never re-stabilized
/// from reports `"wedged": true` rather than a bare null, so snapshot
/// diffs surface wedges by name.
fn stabilization_records_array(records: &[stoneage_sim::StabilizationRecord]) -> Value {
    Value::Array(
        records
            .iter()
            .map(|r| {
                let mut fields = vec![
                    ("at_round".to_owned(), r.at_round.into()),
                    ("event".to_owned(), topology_event_json(&r.event)),
                ];
                match r.restabilized_after {
                    Some(d) => fields.push(("restabilized_after".to_owned(), d.into())),
                    None => fields.push(("wedged".to_owned(), Value::Bool(true))),
                }
                Value::Object(fields)
            })
            .collect(),
    )
}

fn stabilization_records_json(records: &[stoneage_sim::StabilizationRecord], rounds: u64) -> Value {
    Value::Object(vec![
        ("rounds_to_terminate".to_owned(), rounds.into()),
        ("records".to_owned(), stabilization_records_array(records)),
    ])
}

/// The paper's MIS vs its self-stabilizing wake-up-broadcast variant
/// under the schedule that wedges the former: a leaf of a star crashes
/// mid-tournament and restarts long after every survivor has decided
/// and halted. The restarted paper-MIS node re-reads the halted ports'
/// initial letters forever and never decides (the run hits its round
/// budget with `wedged: true`); `SelfStabMis` decided nodes re-announce
/// their letter on observing a wake-up and the restarted node decides a
/// few rounds after the restart. Both runs also carry an active
/// message-fault plan (duplicates-only — observably idempotent on
/// lockstep ports, so it perturbs nothing while proving the churn ×
/// faults composition injects), composing topology and channel faults
/// in one schedule.
fn mis_restart_recovery_json() -> Value {
    use stoneage_protocols::{stabilization, MisProtocol, SelfStabMis};
    let g = generators::star(32);
    let plan = ChurnPlan::new()
        .at(2, TopologyEvent::Crash(2))
        .at(90, TopologyEvent::Restart(2));
    let fplan = FaultPlan::new(31).duplicate_rate(0.05, 1);
    let budget = 2_000u64;

    let paper_json = {
        let p = MisProtocol::new();
        let mut obs = StabilizationObserver::new(&g, &plan, stabilization::mis_stabilized)
            .expect("valid plan");
        let res = Simulation::sync(&p, &g)
            .seed(5)
            .budget(budget)
            .with_churn(&plan)
            .with_faults(&fplan)
            .observe(&mut obs)
            .run();
        let rounds = match &res {
            Ok(o) => o.rounds().map(Value::from).unwrap_or(Value::Null),
            Err(ExecError::RoundLimit { .. }) => Value::Null,
            Err(other) => panic!("paper MIS under restart: unexpected {other:?}"),
        };
        Value::Object(vec![
            ("terminated".to_owned(), Value::Bool(res.is_ok())),
            ("rounds_to_terminate".to_owned(), rounds),
            ("wedged".to_owned(), Value::Bool(obs.wedged())),
            (
                "records".to_owned(),
                stabilization_records_array(obs.records()),
            ),
        ])
    };

    let selfstab_json = {
        let p = SelfStabMis::new();
        let mut obs = StabilizationObserver::new(&g, &plan, stabilization::mis_stabilized)
            .expect("valid plan");
        let outcome = Simulation::sync(&p, &g)
            .seed(5)
            .budget(budget)
            .with_churn(&plan)
            .with_faults(&fplan)
            .observe(&mut obs)
            .run()
            .expect("selfstab MIS recovers from the restart");
        Value::Object(vec![
            ("terminated".to_owned(), Value::Bool(true)),
            (
                "rounds_to_terminate".to_owned(),
                outcome.rounds().expect("sync outcome").into(),
            ),
            ("wedged".to_owned(), Value::Bool(obs.wedged())),
            (
                "faults_injected".to_owned(),
                outcome.faults().map(|f| f.injected()).unwrap_or(0).into(),
            ),
            (
                "records".to_owned(),
                stabilization_records_array(obs.records()),
            ),
        ])
    };

    Value::Object(vec![
        (
            "note".to_owned(),
            "star(32), leaf 2 crashes at round 2 and restarts at round 90, after every \
             survivor has decided and halted, under an active duplicates-only FaultPlan; \
             the paper protocol wedges, the selfstab wake-up-broadcast variant \
             re-stabilizes"
                .into(),
        ),
        ("paper".to_owned(), paper_json),
        ("selfstab".to_owned(), selfstab_json),
    ])
}

/// Re-stabilization measurements: each of the paper's protocols runs
/// under a small crash / edge-churn schedule with a
/// [`StabilizationObserver`] watching its correctness predicate over
/// the live subgraph; the records give rounds-to-re-stabilize per event.
/// Fixed small instances — this is an experiment record, not a
/// throughput measurement.
///
/// Event choice matters: the paper's lockstep protocols are *not*
/// self-stabilizing, and a restarted node whose decided neighbors have
/// halted re-reads their ports as the initial letter σ₀ forever — MIS
/// wedges in `UP0` (delayed by a phantom `DOWN1`) and the tree coloring
/// can decide a conflicting color. Crashes and edge churn are absorbed
/// (letter retirement only *clears* delay conditions), so MIS and
/// coloring get crash/edge schedules; the request/response-shaped
/// matching protocol genuinely recovers from a post-stabilization
/// restart, so its schedule demonstrates one.
fn stabilization_section() -> Value {
    use stoneage_protocols::{stabilization, ColoringProtocol, MatchingProtocol, MisProtocol};

    // MIS on a gnp instance: crash two nodes mid-tournament; the
    // survivors re-run the affected neighborhoods.
    let mis_json = {
        let g = generators::gnp(400, 8.0 / 400.0, 7);
        let plan = ChurnPlan::new()
            .at(3, TopologyEvent::Crash(5))
            .at(20, TopologyEvent::Crash(11));
        let p = MisProtocol::new();
        let mut obs = StabilizationObserver::new(&g, &plan, stabilization::mis_stabilized)
            .expect("valid plan");
        let outcome = Simulation::sync(&p, &g)
            .seed(2)
            .with_churn(&plan)
            .observe(&mut obs)
            .run()
            .expect("MIS terminates under churn");
        stabilization_records_json(obs.records(), outcome.rounds().unwrap())
    };

    // Tree 3-coloring: crash a node mid-run, then delete and re-insert a
    // tree edge after natural stabilization (~round 68) — the engine
    // keeps stepping until the last scheduled event has been applied.
    let coloring_json = {
        let g = generators::random_tree(300, 13);
        let (u, v) = g.edges().next().expect("tree has edges");
        let plan = ChurnPlan::new()
            .at(6, TopologyEvent::Crash(7))
            .at(72, TopologyEvent::EdgeDelete(u, v))
            .at(80, TopologyEvent::EdgeInsert(u, v));
        let p = ColoringProtocol::new();
        let mut obs = StabilizationObserver::new(&g, &plan, stabilization::coloring_stabilized)
            .expect("valid plan");
        let outcome = Simulation::sync(&p, &g)
            .seed(3)
            .with_churn(&plan)
            .observe(&mut obs)
            .run()
            .expect("coloring terminates under churn");
        stabilization_records_json(obs.records(), outcome.rounds().unwrap())
    };

    // Maximal matching on the scoped backend: crash a node after the
    // matching stabilizes (~round 34), then restart it — the restarted
    // node re-runs its proposal handshake against live neighbors and the
    // predicate is re-satisfied within a few rounds.
    let matching_json = {
        let g = generators::gnp(300, 8.0 / 300.0, 9);
        let plan = ChurnPlan::new()
            .at(40, TopologyEvent::Crash(4))
            .at(46, TopologyEvent::Restart(4));
        let p = MatchingProtocol::new();
        let mut obs = StabilizationObserver::new(&g, &plan, stabilization::matching_stabilized)
            .expect("valid plan");
        let outcome = Simulation::scoped(&p, &g)
            .seed(4)
            .with_churn(&plan)
            .observe(&mut obs)
            .run()
            .expect("matching terminates under churn");
        stabilization_records_json(obs.records(), outcome.rounds().unwrap())
    };

    Value::Object(vec![
        (
            "note".to_owned(),
            "rounds to re-satisfy the protocol's live-subgraph correctness predicate after \
             each topology event (wedged: true = never re-stabilized before termination)"
                .into(),
        ),
        ("mis".to_owned(), mis_json),
        ("coloring".to_owned(), coloring_json),
        ("matching".to_owned(), matching_json),
        (
            "mis_restart_recovery".to_owned(),
            mis_restart_recovery_json(),
        ),
    ])
}

struct AsyncEntry {
    family: &'static str,
    n: usize,
    edges: usize,
    heap_eps: f64,
    wheel_eps: f64,
    heap_rps: f64,
    wheel_rps: f64,
    speedup: f64,
    /// Events/sec under `churn_sweep_plan`, heap then wheel.
    churn_eps: (f64, f64),
    /// Events/sec under `fault_sweep_plan`, heap then wheel.
    fault_eps: (f64, f64),
}

/// Boundaries of the async churn plan: one per unit of simulated time,
/// past the end of every family's run (a blinker step lasts 0.5 on
/// average).
const ASYNC_CHURN_ROUNDS: u64 = 32;

fn async_sweep(quick: bool, reps: usize) -> (Vec<AsyncEntry>, u64) {
    let n: usize = if quick { 5_000 } else { 50_000 };
    let max_events: u64 = if quick { 400_000 } else { 4_000_000 };
    let avg_deg = 8.0;
    let side = (n as f64).sqrt().ceil() as usize;
    let graphs: [(&'static str, Graph); 3] = [
        ("gnp", generators::gnp(n, avg_deg / n as f64, 7)),
        ("tree", generators::random_tree(n, 13)),
        ("grid", generators::grid(side, side)),
    ];
    let faults = fault_sweep_plan();
    let mut entries = Vec::new();
    for (family, g) in graphs {
        let nodes = g.node_count();
        let edges = g.edge_count();
        eprintln!(
            "engine_bench[async]: {family}(n = {nodes}, |E| = {edges}), \
             {max_events} events x {reps} reps; plain, churn, faults"
        );
        let churn = churn_sweep_plan(&g, ASYNC_CHURN_ROUNDS);
        // Heap and wheel on one plan; they must reach the same frontier.
        let pair = |churn: Option<&ChurnPlan>, faults: Option<&FaultPlan>| {
            let (heap_eps, heap_unfinished) = measure_async(
                &g,
                SchedulerKind::BinaryHeap,
                max_events,
                reps,
                churn,
                faults,
            );
            let (wheel_eps, wheel_unfinished) = measure_async(
                &g,
                SchedulerKind::CalendarWheel,
                max_events,
                reps,
                churn,
                faults,
            );
            assert_eq!(
                heap_unfinished, wheel_unfinished,
                "schedulers reached different frontiers — bit-identity is broken"
            );
            (heap_eps, wheel_eps)
        };
        let (heap_eps, wheel_eps) = pair(None, None);
        let churn_eps = pair(Some(&churn), None);
        let fault_eps = pair(None, Some(&faults));
        // A blinker "round" is one step of every node plus its full
        // fan-out: n + 2|E| events. Deterministic given the topology, so
        // rounds/sec is comparable across schedulers and snapshots.
        let events_per_round = (nodes + 2 * edges) as f64;
        let entry = AsyncEntry {
            family,
            n: nodes,
            edges,
            heap_eps,
            wheel_eps,
            heap_rps: heap_eps / events_per_round,
            wheel_rps: wheel_eps / events_per_round,
            speedup: wheel_eps / heap_eps,
            churn_eps,
            fault_eps,
        };
        eprintln!(
            "  heap:  {:>12.0} events/sec ({:.1} rounds/sec)",
            entry.heap_eps, entry.heap_rps
        );
        eprintln!(
            "  wheel: {:>12.0} events/sec ({:.1} rounds/sec)",
            entry.wheel_eps, entry.wheel_rps
        );
        eprintln!("  speedup: {:.2}x", entry.speedup);
        for (label, (heap, wheel)) in [("churn", churn_eps), ("faults", fault_eps)] {
            eprintln!(
                "  {label}: heap {heap:>12.0}, wheel {wheel:>12.0} events/sec ({:.2}x)",
                wheel / heap
            );
        }
        entries.push(entry);
    }
    (entries, max_events)
}

struct ServerSweepEntry {
    jobs: usize,
    n: usize,
    direct_jobs_per_sec: f64,
    server_jobs_per_sec: f64,
    overhead: f64,
}

/// Submit-to-done throughput of the `stoneage-server` job orchestrator:
/// the same batch of small MIS jobs run directly through the
/// `Simulation` builder and end-to-end over loopback HTTP (submit →
/// poll to terminal). Both sides run one job at a time (the server gets
/// a one-core budget), so the ratio isolates orchestration overhead —
/// HTTP parse, spec validation, store and channel hops, thread spawn,
/// status polling — which the `--max-server-overhead` gate bounds.
fn server_sweep(quick: bool) -> ServerSweepEntry {
    use stoneage_protocols::MisProtocol;
    use stoneage_server::{client, Server, ServerConfig};

    let jobs = if quick { 8 } else { 24 };
    let n = 512usize;
    let p = 8.0 / n as f64;
    eprintln!("engine_bench[server]: {jobs} MIS jobs on gnp(n = {n}) direct vs over HTTP");

    // Direct: graph build + run per job, like the server's runner does.
    let protocol = MisProtocol::new();
    let start = Instant::now();
    for i in 0..jobs {
        let g = generators::gnp(n, p, 5);
        Simulation::sync(&protocol, &g)
            .seed(i as u64 + 1)
            .budget(100_000)
            .run()
            .expect("the MIS protocol terminates");
    }
    let direct_jobs_per_sec = jobs as f64 / start.elapsed().as_secs_f64();

    let server = Server::start(ServerConfig {
        cores: 1,
        max_jobs: jobs + 4,
        jobs_dir: None,
        ..ServerConfig::default()
    })
    .expect("bind loopback");
    let addr = server.addr().to_string();
    let start = Instant::now();
    let ids: Vec<i64> = (0..jobs)
        .map(|i| {
            let spec = format!(
                r#"{{"graph": {{"family": "gnp", "n": {n}, "p": {p}, "seed": 5}},
                    "protocol": "mis", "seeds": [{}]}}"#,
                i as u64 + 1
            );
            let resp =
                client::request(&addr, "POST", "/jobs", spec.as_bytes()).expect("submit job");
            assert_eq!(resp.status, 201, "submit refused");
            resp.json()["id"].as_i64().expect("job id")
        })
        .collect();
    for id in ids {
        loop {
            let doc = client::request(&addr, "GET", &format!("/jobs/{id}"), &[])
                .expect("job status")
                .json();
            match doc["state"].as_str() {
                Some("done") => break,
                Some("failed") | Some("cancelled") => {
                    panic!("server job {id} did not finish: {doc}")
                }
                _ => std::thread::sleep(std::time::Duration::from_micros(200)),
            }
        }
    }
    let server_jobs_per_sec = jobs as f64 / start.elapsed().as_secs_f64();
    server.shutdown();

    let entry = ServerSweepEntry {
        jobs,
        n,
        direct_jobs_per_sec,
        server_jobs_per_sec,
        overhead: direct_jobs_per_sec / server_jobs_per_sec,
    };
    eprintln!("  direct: {:>8.1} jobs/sec", entry.direct_jobs_per_sec);
    eprintln!("  server: {:>8.1} jobs/sec", entry.server_jobs_per_sec);
    eprintln!("  overhead: {:.2}x", entry.overhead);
    entry
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out_path = "BENCH_engine.json".to_owned();
    let mut n = 50_000usize;
    let mut quick = false;
    let mut min_async_speedup: Option<f64> = None;
    let mut min_parallel_speedup: Option<f64> = None;
    let mut min_fused_speedup: Option<f64> = None;
    let mut min_steal_speedup: Option<f64> = None;
    let mut min_churn_patch_speedup: Option<f64> = None;
    let mut max_snapshot_overhead: Option<f64> = None;
    let mut max_fault_overhead: Option<f64> = None;
    let mut max_server_overhead: Option<f64> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--quick" => {
                n = 5_000;
                quick = true;
            }
            "--out" => {
                i += 1;
                out_path = args.get(i).expect("--out needs a path").clone();
            }
            "--min-async-speedup" => {
                i += 1;
                let v = args
                    .get(i)
                    .expect("--min-async-speedup needs a ratio")
                    .parse::<f64>()
                    .expect("--min-async-speedup needs a number");
                min_async_speedup = Some(v);
            }
            "--min-parallel-speedup" => {
                i += 1;
                let v = args
                    .get(i)
                    .expect("--min-parallel-speedup needs a ratio")
                    .parse::<f64>()
                    .expect("--min-parallel-speedup needs a number");
                if cfg!(not(feature = "parallel")) {
                    eprintln!(
                        "--min-parallel-speedup requires a `--features parallel` build \
                         of stoneage-bench"
                    );
                    std::process::exit(2);
                }
                min_parallel_speedup = Some(v);
            }
            "--min-fused-speedup" => {
                i += 1;
                let v = args
                    .get(i)
                    .expect("--min-fused-speedup needs a ratio")
                    .parse::<f64>()
                    .expect("--min-fused-speedup needs a number");
                if cfg!(not(feature = "parallel")) {
                    eprintln!(
                        "--min-fused-speedup requires a `--features parallel` build \
                         of stoneage-bench"
                    );
                    std::process::exit(2);
                }
                min_fused_speedup = Some(v);
            }
            "--min-steal-speedup" => {
                i += 1;
                let v = args
                    .get(i)
                    .expect("--min-steal-speedup needs a ratio")
                    .parse::<f64>()
                    .expect("--min-steal-speedup needs a number");
                if cfg!(not(feature = "parallel")) {
                    eprintln!(
                        "--min-steal-speedup requires a `--features parallel` build \
                         of stoneage-bench"
                    );
                    std::process::exit(2);
                }
                min_steal_speedup = Some(v);
            }
            "--min-churn-patch-speedup" => {
                i += 1;
                let v = args
                    .get(i)
                    .expect("--min-churn-patch-speedup needs a ratio")
                    .parse::<f64>()
                    .expect("--min-churn-patch-speedup needs a number");
                min_churn_patch_speedup = Some(v);
            }
            "--max-snapshot-overhead" => {
                i += 1;
                let v = args
                    .get(i)
                    .expect("--max-snapshot-overhead needs a ratio")
                    .parse::<f64>()
                    .expect("--max-snapshot-overhead needs a number");
                max_snapshot_overhead = Some(v);
            }
            "--max-fault-overhead" => {
                i += 1;
                let v = args
                    .get(i)
                    .expect("--max-fault-overhead needs a ratio")
                    .parse::<f64>()
                    .expect("--max-fault-overhead needs a number");
                max_fault_overhead = Some(v);
            }
            "--max-server-overhead" => {
                i += 1;
                let v = args
                    .get(i)
                    .expect("--max-server-overhead needs a ratio")
                    .parse::<f64>()
                    .expect("--max-server-overhead needs a number");
                max_server_overhead = Some(v);
            }
            other => {
                eprintln!(
                    "unknown flag {other}; usage: engine_bench [--quick] [--out path] \
                     [--min-async-speedup ratio] [--min-parallel-speedup ratio] \
                     [--min-fused-speedup ratio] [--min-steal-speedup ratio] \
                     [--min-churn-patch-speedup ratio] \
                     [--max-snapshot-overhead ratio] [--max-fault-overhead ratio] \
                     [--max-server-overhead ratio]"
                );
                std::process::exit(2);
            }
        }
        i += 1;
    }

    let avg_deg = 8.0;
    let rounds = 20u64;
    let reps = 5usize;
    let g = generators::gnp(n, avg_deg / n as f64, 7);
    let p = AsMulti(blinker());
    let config = SyncConfig {
        seed: 1,
        max_rounds: rounds,
    };

    eprintln!(
        "engine_bench: gnp(n = {n}, avg deg {avg_deg}), |E| = {}, {rounds} rounds x {reps} reps",
        g.edge_count()
    );
    let reference = measure(rounds, reps, || run_sync_reference(&p, &g, &config));
    eprintln!("  reference: {reference:.1} rounds/sec");
    let flat = measure(rounds, reps, || {
        Simulation::sync(&p, &g)
            .seed(config.seed)
            .budget(config.max_rounds)
            .run()
            .map(|o| o.into_sync_outcome().expect("sync backend"))
    });
    eprintln!("  flat:      {flat:.1} rounds/sec");
    let speedup = flat / reference;
    eprintln!("  speedup:   {speedup:.2}x");

    #[cfg(feature = "parallel")]
    let (par_entries, workers_available) = {
        eprintln!("engine_bench[parallel]: serial vs parallel flat engine, same instance");
        parallel_sweep(&g, &config, rounds, reps, flat)
    };

    #[cfg(feature = "parallel")]
    let (pipeline_entries, _) = round_pipeline_sweep(quick, rounds, if quick { 3 } else { reps });

    #[cfg(feature = "parallel")]
    let (steal_entries, steal_hw) = steal_sweep(quick, rounds, if quick { 3 } else { reps });

    let (async_entries, async_events) = async_sweep(quick, if quick { 3 } else { reps });

    let churn_entries = churn_sweep(quick, rounds, if quick { 3 } else { reps });
    let snapshot_entries = snapshot_sweep(quick, rounds, if quick { 3 } else { reps });
    let fault_entries = fault_sweep(quick, rounds, if quick { 3 } else { reps });
    let server_entry = server_sweep(quick);
    eprintln!("engine_bench[stabilization]: recording re-stabilization rounds per event");
    let stabilization_json = stabilization_section();

    let async_json = Value::Object(vec![
        (
            "workload".to_owned(),
            "blinker broadcast to a fixed event budget".into(),
        ),
        ("adversary".to_owned(), "uniform".into()),
        ("max_events".to_owned(), async_events.into()),
        (
            "entries".to_owned(),
            Value::Array(
                async_entries
                    .iter()
                    .map(|e| {
                        Value::Object(vec![
                            ("family".to_owned(), e.family.into()),
                            ("n".to_owned(), e.n.into()),
                            ("edges".to_owned(), e.edges.into()),
                            ("heap_events_per_sec".to_owned(), e.heap_eps.into()),
                            ("wheel_events_per_sec".to_owned(), e.wheel_eps.into()),
                            ("heap_rounds_per_sec".to_owned(), e.heap_rps.into()),
                            ("wheel_rounds_per_sec".to_owned(), e.wheel_rps.into()),
                            ("speedup".to_owned(), e.speedup.into()),
                            ("churn_heap_events_per_sec".to_owned(), e.churn_eps.0.into()),
                            (
                                "churn_wheel_events_per_sec".to_owned(),
                                e.churn_eps.1.into(),
                            ),
                            ("fault_heap_events_per_sec".to_owned(), e.fault_eps.0.into()),
                            (
                                "fault_wheel_events_per_sec".to_owned(),
                                e.fault_eps.1.into(),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);

    #[cfg(feature = "parallel")]
    let parallel_json = Value::Object(vec![
        (
            "workload".to_owned(),
            "blinker broadcast; parallel = chunked phase 1 + sharded phase-2 write buffers".into(),
        ),
        ("merge".to_owned(), "destination_sharded".into()),
        ("workers_available".to_owned(), workers_available.into()),
        (
            "default_policy_workers".to_owned(),
            stoneage_sim::ParallelPolicy::default()
                .resolve_workers()
                .into(),
        ),
        ("serial_rounds_per_sec".to_owned(), flat.into()),
        (
            "entries".to_owned(),
            Value::Array(
                par_entries
                    .iter()
                    .map(|e| {
                        Value::Object(vec![
                            ("workers".to_owned(), e.workers.into()),
                            ("workers_used".to_owned(), e.workers_used.into()),
                            ("rounds_per_sec".to_owned(), e.rounds_per_sec.into()),
                            ("speedup".to_owned(), e.speedup.into()),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    #[cfg(not(feature = "parallel"))]
    let parallel_json = Value::Object(vec![
        ("enabled".to_owned(), Value::Bool(false)),
        (
            "note".to_owned(),
            "build stoneage-bench with --features parallel to record the sweep".into(),
        ),
    ]);

    #[cfg(feature = "parallel")]
    let round_pipeline_json = Value::Object(vec![
        (
            "workload".to_owned(),
            "blinker broadcast; joined = two scope joins per round, fused = phase 2b deferred \
             onto per-worker plane shards (one join)"
                .into(),
        ),
        ("merge".to_owned(), "destination_sharded".into()),
        (
            "workers_available".to_owned(),
            std::thread::available_parallelism()
                .map(|t| t.get())
                .unwrap_or(1)
                .into(),
        ),
        (
            "entries".to_owned(),
            Value::Array(
                pipeline_entries
                    .iter()
                    .map(|e| {
                        Value::Object(vec![
                            ("family".to_owned(), e.family.into()),
                            ("n".to_owned(), e.n.into()),
                            ("workers".to_owned(), e.workers.into()),
                            ("workers_used".to_owned(), e.workers_used.into()),
                            (
                                "joined_rounds_per_sec".to_owned(),
                                e.joined_rounds_per_sec.into(),
                            ),
                            (
                                "fused_rounds_per_sec".to_owned(),
                                e.fused_rounds_per_sec.into(),
                            ),
                            ("speedup".to_owned(), e.speedup.into()),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    #[cfg(not(feature = "parallel"))]
    let round_pipeline_json = Value::Object(vec![
        ("enabled".to_owned(), Value::Bool(false)),
        (
            "note".to_owned(),
            "build stoneage-bench with --features parallel to record the sweep".into(),
        ),
    ]);

    #[cfg(feature = "parallel")]
    let steal_json = Value::Object(vec![
        (
            "workload".to_owned(),
            "randomized prober (uniform 3-way transition per node per round), so per-node \
             RNG cost dominates per-slot cost; static slot-balanced chunks vs work-stealing \
             chunk deques"
                .into(),
        ),
        ("merge".to_owned(), "destination_sharded".into()),
        ("workers_available".to_owned(), steal_hw.into()),
        (
            "entries".to_owned(),
            Value::Array(
                steal_entries
                    .iter()
                    .map(|e| {
                        Value::Object(vec![
                            ("family".to_owned(), e.family.into()),
                            ("skewed".to_owned(), Value::Bool(e.skewed)),
                            ("n".to_owned(), e.n.into()),
                            ("workers".to_owned(), e.workers.into()),
                            ("workers_used".to_owned(), e.workers_used.into()),
                            (
                                "static_rounds_per_sec".to_owned(),
                                e.static_rounds_per_sec.into(),
                            ),
                            (
                                "stealing_rounds_per_sec".to_owned(),
                                e.stealing_rounds_per_sec.into(),
                            ),
                            ("speedup".to_owned(), e.speedup.into()),
                            ("chunks_per_round".to_owned(), e.chunks_per_round.into()),
                            ("steals_observed".to_owned(), e.steals_observed.into()),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    #[cfg(not(feature = "parallel"))]
    let steal_json = Value::Object(vec![
        ("enabled".to_owned(), Value::Bool(false)),
        (
            "note".to_owned(),
            "build stoneage-bench with --features parallel to record the sweep".into(),
        ),
    ]);

    let json = Value::Object(vec![
        ("bench".to_owned(), "engine_throughput".into()),
        // Absolute throughputs are host-dependent; recording the CPU
        // count keeps cross-snapshot comparisons interpretable (e.g. a
        // 1-CPU container cannot show parallel speedups).
        (
            "host_cpus".to_owned(),
            std::thread::available_parallelism()
                .map(|t| t.get())
                .unwrap_or(1)
                .into(),
        ),
        (
            "workload".to_owned(),
            "blinker broadcast, every port overwritten per round".into(),
        ),
        (
            "graph".to_owned(),
            Value::Object(vec![
                ("family".to_owned(), "gnp".into()),
                ("n".to_owned(), n.into()),
                ("avg_degree".to_owned(), avg_deg.into()),
                ("edges".to_owned(), g.edge_count().into()),
                ("seed".to_owned(), 7u64.into()),
            ]),
        ),
        ("rounds_per_run".to_owned(), rounds.into()),
        ("reps".to_owned(), reps.into()),
        (
            "baseline_reference_rounds_per_sec".to_owned(),
            reference.into(),
        ),
        ("flat_rounds_per_sec".to_owned(), flat.into()),
        ("speedup".to_owned(), speedup.into()),
        ("parallel_sweep".to_owned(), parallel_json),
        ("round_pipeline".to_owned(), round_pipeline_json),
        ("steal_sweep".to_owned(), steal_json),
        ("async_sweep".to_owned(), async_json),
        (
            "churn_sweep".to_owned(),
            Value::Object(vec![
                (
                    "workload".to_owned(),
                    "blinker broadcast under a dense fault schedule (8 edge toggles + 1 \
                     crash/restart per round); incremental slot patching vs ChurnOracle \
                     full rebuild, bit-identical outcomes"
                        .into(),
                ),
                (
                    "entries".to_owned(),
                    Value::Array(
                        churn_entries
                            .iter()
                            .map(|e| {
                                Value::Object(vec![
                                    ("family".to_owned(), e.family.into()),
                                    ("n".to_owned(), e.n.into()),
                                    ("edges".to_owned(), e.edges.into()),
                                    ("events".to_owned(), e.events.into()),
                                    (
                                        "incremental_rounds_per_sec".to_owned(),
                                        e.incremental_rounds_per_sec.into(),
                                    ),
                                    (
                                        "rebuild_rounds_per_sec".to_owned(),
                                        e.rebuild_rounds_per_sec.into(),
                                    ),
                                    ("patch_speedup".to_owned(), e.patch_speedup.into()),
                                ])
                            })
                            .collect(),
                    ),
                ),
                ("stabilization".to_owned(), stabilization_json),
            ]),
        ),
        (
            "snapshot_sweep".to_owned(),
            Value::Object(vec![
                (
                    "workload".to_owned(),
                    "blinker broadcast; checkpointed = a full Snapshot frame captured every \
                     round (checkpoint_every(1), the worst-case cadence), bit-identical to \
                     the plain run; write/restore = Snapshot::to_bytes / from_bytes over the \
                     captured frames; resume = throughput of the remainder after resume_from \
                     on a mid-run frame"
                        .into(),
                ),
                (
                    "entries".to_owned(),
                    Value::Array(
                        snapshot_entries
                            .iter()
                            .map(|e| {
                                Value::Object(vec![
                                    ("family".to_owned(), e.family.into()),
                                    ("n".to_owned(), e.n.into()),
                                    ("edges".to_owned(), e.edges.into()),
                                    ("frame_bytes".to_owned(), e.frame_bytes.into()),
                                    (
                                        "plain_rounds_per_sec".to_owned(),
                                        e.plain_rounds_per_sec.into(),
                                    ),
                                    (
                                        "checkpointed_rounds_per_sec".to_owned(),
                                        e.checkpointed_rounds_per_sec.into(),
                                    ),
                                    ("overhead".to_owned(), e.overhead.into()),
                                    (
                                        "write_frames_per_sec".to_owned(),
                                        e.write_frames_per_sec.into(),
                                    ),
                                    (
                                        "restore_frames_per_sec".to_owned(),
                                        e.restore_frames_per_sec.into(),
                                    ),
                                    (
                                        "resume_rounds_per_sec".to_owned(),
                                        e.resume_rounds_per_sec.into(),
                                    ),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ]),
        ),
        (
            "fault_sweep".to_owned(),
            Value::Object(vec![
                (
                    "workload".to_owned(),
                    "blinker broadcast under a mixed FaultPlan (5% drops, 3% single \
                     duplicates, 2% corrupts) applied at the delivery boundary; one \
                     positional hash chain per delivery, bit-identical across backends, \
                     worker counts, and round modes"
                        .into(),
                ),
                (
                    "entries".to_owned(),
                    Value::Array(
                        fault_entries
                            .iter()
                            .map(|e| {
                                Value::Object(vec![
                                    ("family".to_owned(), e.family.into()),
                                    ("n".to_owned(), e.n.into()),
                                    ("edges".to_owned(), e.edges.into()),
                                    (
                                        "clean_rounds_per_sec".to_owned(),
                                        e.clean_rounds_per_sec.into(),
                                    ),
                                    (
                                        "faulted_rounds_per_sec".to_owned(),
                                        e.faulted_rounds_per_sec.into(),
                                    ),
                                    ("overhead".to_owned(), e.overhead.into()),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ]),
        ),
        (
            "server_sweep".to_owned(),
            Value::Object(vec![
                (
                    "workload".to_owned(),
                    "small MIS jobs, submit-to-done over loopback HTTP vs direct builder \
                     runs, one core each; overhead = direct / server jobs-per-sec"
                        .into(),
                ),
                ("jobs".to_owned(), server_entry.jobs.into()),
                ("n".to_owned(), server_entry.n.into()),
                (
                    "direct_jobs_per_sec".to_owned(),
                    server_entry.direct_jobs_per_sec.into(),
                ),
                (
                    "server_jobs_per_sec".to_owned(),
                    server_entry.server_jobs_per_sec.into(),
                ),
                ("overhead".to_owned(), server_entry.overhead.into()),
            ]),
        ),
    ]);
    let mut f = std::fs::File::create(&out_path).expect("create bench output");
    writeln!(f, "{}", json.to_string_pretty()).unwrap();
    eprintln!("wrote {out_path}");

    if let Some(min) = min_async_speedup {
        let mut failed = false;
        for e in &async_entries {
            if e.speedup < min {
                eprintln!(
                    "REGRESSION: async wheel at {:.2}x of heap on {} (required >= {min:.2}x)",
                    e.speedup, e.family
                );
                failed = true;
            }
        }
        if failed {
            std::process::exit(1);
        }
        eprintln!("async wheel within budget: all families >= {min:.2}x of heap");
    }

    // The parallel gate enforces the speedup only at worker counts the
    // hardware can genuinely run in parallel (>= 4 workers, like the
    // acceptance target): on a narrower host the sweep is still recorded
    // but gating time-sliced threads would only measure the OS scheduler.
    #[cfg(feature = "parallel")]
    if let Some(min) = min_parallel_speedup {
        let gated: Vec<&ParEntry> = par_entries
            .iter()
            .filter(|e| e.workers >= 4 && e.workers <= workers_available)
            .collect();
        if gated.is_empty() {
            eprintln!(
                "parallel gate skipped: host has {workers_available} CPUs, \
                 need >= 4 workers to enforce >= {min:.2}x"
            );
        } else {
            let mut failed = false;
            for e in gated {
                if e.speedup < min {
                    eprintln!(
                        "REGRESSION: parallel engine at {:.2}x of serial with {} workers \
                         (required >= {min:.2}x)",
                        e.speedup, e.workers
                    );
                    failed = true;
                }
            }
            if failed {
                std::process::exit(1);
            }
            eprintln!(
                "parallel engine within budget: all gated worker counts >= {min:.2}x of serial"
            );
        }
    }
    // The fused gate mirrors the parallel gate: fused must hold its own
    // against joined only at worker counts with genuine hardware behind
    // them (a time-sliced "4 workers" on a 1-CPU host measures the OS
    // scheduler, not the dropped scope join).
    #[cfg(feature = "parallel")]
    if let Some(min) = min_fused_speedup {
        let hw = std::thread::available_parallelism()
            .map(|t| t.get())
            .unwrap_or(1);
        let gated: Vec<&RoundPipelineEntry> = pipeline_entries
            .iter()
            .filter(|e| e.workers >= 4 && e.workers <= hw)
            .collect();
        if gated.is_empty() {
            eprintln!(
                "fused gate skipped: host has {hw} CPUs, need >= 4 workers to enforce >= \
                 {min:.2}x"
            );
        } else {
            let mut failed = false;
            for e in gated {
                if e.speedup < min {
                    eprintln!(
                        "REGRESSION: fused pipeline at {:.2}x of joined on {} with {} workers \
                         (required >= {min:.2}x)",
                        e.speedup, e.family, e.workers
                    );
                    failed = true;
                }
            }
            if failed {
                std::process::exit(1);
            }
            eprintln!("fused pipeline within budget: all gated entries >= {min:.2}x of joined");
        }
    }
    // The steal gate enforces the stealing scheduler's win only on the
    // skewed families (the uniform gnp control is recorded but stealing
    // has nothing to absorb there) and, like the parallel and fused
    // gates, only at worker counts with genuine hardware behind them.
    #[cfg(feature = "parallel")]
    if let Some(min) = min_steal_speedup {
        let gated: Vec<&StealEntry> = steal_entries
            .iter()
            .filter(|e| e.skewed && e.workers >= 4 && e.workers <= steal_hw)
            .collect();
        if gated.is_empty() {
            eprintln!(
                "steal gate skipped: host has {steal_hw} CPUs, need >= 4 workers to enforce \
                 >= {min:.2}x"
            );
        } else {
            let mut failed = false;
            for e in gated {
                if e.speedup < min {
                    eprintln!(
                        "REGRESSION: stealing scheduler at {:.2}x of static on {} with {} \
                         workers (required >= {min:.2}x)",
                        e.speedup, e.family, e.workers
                    );
                    failed = true;
                }
            }
            if failed {
                std::process::exit(1);
            }
            eprintln!(
                "stealing scheduler within budget: all gated skewed entries >= {min:.2}x \
                 of static"
            );
        }
    }
    // The churn gate self-skips on tiny instances: below ~20k nodes the
    // whole-store rebuild is cheap enough that the ratio mostly measures
    // allocator noise, not the patch path.
    if let Some(min) = min_churn_patch_speedup {
        let gated: Vec<&ChurnEntry> = churn_entries.iter().filter(|e| e.n >= 20_000).collect();
        if gated.is_empty() {
            eprintln!(
                "churn patch gate skipped: instances are below 20k nodes (use a full run, \
                 not --quick, to enforce >= {min:.2}x)"
            );
        } else {
            let mut failed = false;
            for e in gated {
                if e.patch_speedup < min {
                    eprintln!(
                        "REGRESSION: incremental churn patching at {:.2}x of rebuild on {} \
                         (required >= {min:.2}x)",
                        e.patch_speedup, e.family
                    );
                    failed = true;
                }
            }
            if failed {
                std::process::exit(1);
            }
            eprintln!("churn patching within budget: all families >= {min:.2}x of rebuild");
        }
    }
    // The snapshot gate bounds the worst-case capture cost: an
    // every-round full-frame cadence may not slow the sync engine past
    // the given factor on any family. Real deployments checkpoint far
    // less often, so their overhead is a fraction of what this gate
    // enforces.
    if let Some(max) = max_snapshot_overhead {
        let mut failed = false;
        for e in &snapshot_entries {
            if e.overhead > max {
                eprintln!(
                    "REGRESSION: checkpoint_every(1) costs {:.2}x over the plain engine on {} \
                     (required <= {max:.2}x)",
                    e.overhead, e.family
                );
                failed = true;
            }
        }
        if failed {
            std::process::exit(1);
        }
        eprintln!("snapshot capture within budget: all families <= {max:.2}x overhead");
    }
    // The fault gate bounds the per-delivery decision cost: an active
    // mixed plan may not slow the sync engine past the given factor on
    // any family. The layer is a straight hash chain per delivery, so a
    // regression here means the decision table walk or the duplicate
    // write path grew a hidden cost.
    if let Some(max) = max_fault_overhead {
        let mut failed = false;
        for e in &fault_entries {
            if e.overhead > max {
                eprintln!(
                    "REGRESSION: active FaultPlan costs {:.2}x over the clean engine on {} \
                     (required <= {max:.2}x)",
                    e.overhead, e.family
                );
                failed = true;
            }
        }
        if failed {
            std::process::exit(1);
        }
        eprintln!("fault layer within budget: all families <= {max:.2}x overhead");
    }
    // The server gate bounds the end-to-end orchestration tax: HTTP,
    // validation, store, scheduler, and polling together may not slow a
    // batch of small jobs past the given factor over direct builder
    // runs. Real jobs are bigger, so their relative overhead is smaller
    // than what this gate enforces.
    if let Some(max) = max_server_overhead {
        if server_entry.overhead > max {
            eprintln!(
                "REGRESSION: server submit-to-done costs {:.2}x over direct runs \
                 (required <= {max:.2}x)",
                server_entry.overhead
            );
            std::process::exit(1);
        }
        eprintln!(
            "server orchestration within budget: {:.2}x <= {max:.2}x overhead",
            server_entry.overhead
        );
    }
    #[cfg(not(feature = "parallel"))]
    let _ = (min_parallel_speedup, min_fused_speedup, min_steal_speedup);
}
