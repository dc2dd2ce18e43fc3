//! Differential and determinism tests for the message-fault subsystem
//! (`stoneage_sim::faults`).
//!
//! The contract under test, from strongest to weakest:
//!
//! 1. **Decisions are positional, not sequential.** A fault decision is
//!    a pure hash of `(plan stream, receiver slot, time index, rule
//!    index)`, so the same plan reproduces the same injections under any
//!    evaluation order: serial ≡ every worker count × round mode
//!    (`parallel` feature), and a double run is bit-identical.
//! 2. **Empty plan ≡ fault-free engine.** Wiring in a rule-less plan is
//!    bit-identical to not calling `with_faults` at all on all three
//!    backends, and reports an all-zero summary.
//! 3. **Rate-1 rules have exact closed-form effects.** `drop_rate(1.0)`
//!    silences every channel; `corrupt_rate(1.0, l)` rewrites every
//!    delivery; `duplicate_rate(1.0, k)` multiplies every observed count
//!    `k+1`-fold under the async model's per-delivery counting.
//! 4. **Invalid plans are typed `ExecError::Config`**, never a panic or
//!    a silently ignored rule.
//! 5. **Checkpoint/resume mid-plan is bit-identical** — the tally rides
//!    in the snapshot and the positional decisions need no replay.
//! 6. **Pinned fingerprints.** A recorded fault panel guards against
//!    silent drift in the decision hash or the injection semantics.

use proptest::prelude::*;
use stoneage_core::{AsMulti, Letter, Synchronized};
use stoneage_graph::{generators, Graph, TopologyEvent};
use stoneage_sim::adversary::UniformRandom;
use stoneage_sim::{
    AsyncOptions, Backend, ChurnPlan, ExecError, FaultPlan, FaultSummary, LinkFault, Observer,
    SchedulerKind, Simulation, Snapshot, SyncOutcome,
};
use stoneage_testkit::{
    async_fingerprint, count_neighbors, count_neighbors_quiet, fault_fingerprint, random_beeper,
    run_fault_pinned, scoped_fingerprint, sync_fingerprint, Poke, FAULT_PINNED_CASES,
};

fn graph_family() -> Vec<(&'static str, Graph)> {
    vec![
        ("gnp", generators::gnp(120, 0.06, 3)),
        ("tree", generators::random_tree(150, 11)),
        ("grid", generators::grid(10, 12)),
    ]
}

/// A mixed plan exercising every fault kind plus a per-edge override on
/// the first edge of `g`.
fn plan_for(g: &Graph, seed: u64) -> FaultPlan {
    let mut plan = FaultPlan::new(seed)
        .drop_rate(0.06)
        .duplicate_rate(0.05, 2)
        .corrupt_rate(0.04, Letter(0));
    if let Some((u, v)) = first_edge(g) {
        plan = plan.on_edge(u, v, LinkFault::Drop, 0.5);
    }
    plan
}

fn first_edge(g: &Graph) -> Option<(u32, u32)> {
    (0..g.node_count() as u32).find_map(|u| g.neighbors(u).first().map(|&v| (u, v)))
}

/// A duplicates-only plan for the asynchronous legs. Drops and corrupts
/// can legitimately starve a synchronizer forever (a silent decided
/// node never retransmits its dropped final pulse — see
/// `async_fault_kinds_have_model_level_effects`), so the async
/// differential cells inject only liveness-safe duplicates, with a
/// per-edge rule to exercise the per-channel gating.
fn async_plan_for(g: &Graph, seed: u64) -> FaultPlan {
    let mut plan = FaultPlan::new(seed).duplicate_rate(0.25, 2);
    if let Some((u, v)) = first_edge(g) {
        plan = plan.on_edge(u, v, LinkFault::Duplicate(1), 0.5);
    }
    plan
}

fn run_sync_faulted(
    protocol: &AsMulti<stoneage_core::TableProtocol>,
    g: &Graph,
    seed: u64,
    plan: &FaultPlan,
) -> (SyncOutcome, FaultSummary) {
    let outcome = Simulation::sync(protocol, g)
        .seed(seed)
        .with_faults(plan)
        .run()
        .expect("faulted runs terminate");
    let summary = *outcome.faults().expect("plan was set");
    (outcome.into_sync_outcome().expect("sync backend"), summary)
}

/// Contract 2: the rule-less plan is bit-identical to the fault-free
/// engine on all three backends, and its summary is exactly zero.
#[test]
fn empty_plan_is_bit_identical_to_fault_free_engine() {
    let empty = FaultPlan::new(99);
    for (name, g) in graph_family() {
        let sync_p = AsMulti(random_beeper(4, 2));
        let (with, summary) = run_sync_faulted(&sync_p, &g, 7, &empty);
        let without = Simulation::sync(&sync_p, &g)
            .seed(7)
            .run()
            .unwrap()
            .into_sync_outcome()
            .unwrap();
        assert_eq!(
            sync_fingerprint(&with),
            sync_fingerprint(&without),
            "{name}: sync"
        );
        assert_eq!(summary, FaultSummary::default(), "{name}: zero summary");

        let poke = Poke::new();
        let with = Simulation::scoped(&poke, &g)
            .seed(7)
            .with_faults(&empty)
            .run()
            .unwrap()
            .into_scoped_outcome()
            .unwrap();
        let without = Simulation::scoped(&poke, &g)
            .seed(7)
            .run()
            .unwrap()
            .into_scoped_outcome()
            .unwrap();
        assert_eq!(
            scoped_fingerprint(&with),
            scoped_fingerprint(&without),
            "{name}: scoped"
        );

        // The empty plan runs on the default wheel and the fault-free
        // reference on the explicit heap backend, so this also crosses
        // the two queues (heap ≡ wheel is the async suite's own
        // contract).
        let async_p = Synchronized::new(count_neighbors_quiet(2));
        let adv = UniformRandom { seed: 5 };
        let with = Simulation::asynchronous(&async_p, &g, &adv)
            .seed(7)
            .with_faults(&empty)
            .run()
            .unwrap()
            .into_async_outcome()
            .unwrap();
        let without = Simulation::asynchronous(&async_p, &g, &adv)
            .seed(7)
            .backend(Backend::Async(
                AsyncOptions::new(&adv).with_scheduler(SchedulerKind::BinaryHeap),
            ))
            .run()
            .unwrap()
            .into_async_outcome()
            .unwrap();
        assert_eq!(
            async_fingerprint(&with),
            async_fingerprint(&without),
            "{name}: async (vs heap scheduler)"
        );
    }
}

/// Contract 1 (weak form): a faulted run is a pure function of its
/// configuration — two identical invocations agree bit for bit, and the
/// plan actually fires.
#[test]
fn faulted_runs_are_deterministic_on_all_backends() {
    for (name, g) in graph_family() {
        let plan = plan_for(&g, 1000);
        let sync_p = AsMulti(random_beeper(4, 2));
        let (a, sa) = run_sync_faulted(&sync_p, &g, 3, &plan);
        let (b, sb) = run_sync_faulted(&sync_p, &g, 3, &plan);
        assert_eq!(
            fault_fingerprint(&a, &sa),
            fault_fingerprint(&b, &sb),
            "{name}: sync"
        );
        assert!(sa.injected() > 0, "{name}: plan never fired");
        assert!(sa.evaluated >= sa.injected(), "{name}: tally sanity");

        let poke = Poke::new();
        let run_scoped = || {
            let outcome = Simulation::scoped(&poke, &g)
                .seed(3)
                .with_faults(&plan)
                .run()
                .expect("faulted runs terminate");
            let summary = *outcome.faults().expect("plan was set");
            (outcome.into_scoped_outcome().unwrap(), summary)
        };
        let (a, sa) = run_scoped();
        let (b, sb) = run_scoped();
        assert_eq!(
            scoped_fingerprint(&a),
            scoped_fingerprint(&b),
            "{name}: scoped"
        );
        assert_eq!(sa, sb, "{name}: scoped summaries");

        let async_p = Synchronized::new(count_neighbors_quiet(2));
        let adv = UniformRandom { seed: 13 };
        let aplan = async_plan_for(&g, 1000);
        let run_async = || {
            let outcome = Simulation::asynchronous(&async_p, &g, &adv)
                .seed(3)
                .with_faults(&aplan)
                .run()
                .expect("faulted runs terminate");
            let summary = *outcome.faults().expect("plan was set");
            (outcome.into_async_outcome().unwrap(), summary)
        };
        let (a, sa) = run_async();
        let (b, sb) = run_async();
        assert_eq!(
            async_fingerprint(&a),
            async_fingerprint(&b),
            "{name}: async"
        );
        assert_eq!(sa, sb, "{name}: async summaries");
        assert!(sa.injected() > 0, "{name}: async plan never fired");
    }
}

/// Contract 1: faults compose with churn, deterministically, and both
/// summaries surface on the same outcome.
#[test]
fn faults_compose_with_churn_deterministically() {
    for (name, g) in graph_family() {
        let churn = ChurnPlan::random(&g, 21, 6, 5)
            .at(1, TopologyEvent::Crash(0))
            .at(3, TopologyEvent::Restart(0));
        let fplan = plan_for(&g, 2000);
        let sync_p = AsMulti(random_beeper(4, 2));
        let run = || {
            let outcome = Simulation::sync(&sync_p, &g)
                .seed(5)
                .with_churn(&churn)
                .with_faults(&fplan)
                .run()
                .expect("terminates");
            let cs = outcome.churn().expect("churn set").clone();
            let fs = *outcome.faults().expect("faults set");
            (outcome.into_sync_outcome().unwrap(), cs, fs)
        };
        let (a, ca, fa) = run();
        let (b, cb, fb) = run();
        assert_eq!(sync_fingerprint(&a), sync_fingerprint(&b), "{name}: sync");
        assert_eq!(ca, cb, "{name}: churn summaries");
        assert_eq!(fa, fb, "{name}: fault summaries");

        let async_p = Synchronized::new(count_neighbors_quiet(2));
        let adv = UniformRandom { seed: 17 };
        let aplan = async_plan_for(&g, 2000);
        let run = || {
            let outcome = Simulation::asynchronous(&async_p, &g, &adv)
                .seed(5)
                .with_churn(&churn)
                .with_faults(&aplan)
                .run()
                .expect("terminates");
            let fs = *outcome.faults().expect("faults set");
            (outcome.into_async_outcome().unwrap(), fs)
        };
        let (a, fa) = run();
        let (b, fb) = run();
        assert_eq!(
            async_fingerprint(&a),
            async_fingerprint(&b),
            "{name}: async"
        );
        assert_eq!(fa, fb, "{name}: async fault summaries");
    }
}

/// Contract 3, drop: with every channel silenced, the quiet-σ₀ counter
/// hears nothing — every port still holds `quiet` when the count is
/// taken, so every node outputs `1 + f_b(0) = 1`. (The quiet variant is
/// essential: `count_neighbors`' σ₀ *is* the beep letter, so dropped
/// deliveries are indistinguishable from delivered ones on pristine
/// lockstep ports.)
#[test]
fn total_drop_silences_every_channel() {
    let g = generators::cycle(8);
    let p = AsMulti(count_neighbors_quiet(3));
    let plan = FaultPlan::new(7).drop_rate(1.0);
    let (out, summary) = run_sync_faulted(&p, &g, 0, &plan);
    assert!(out.outputs.iter().all(|&o| o == 1), "{:?}", out.outputs);
    assert_eq!(summary.dropped, summary.evaluated);
    assert_eq!(summary.dropped, 16, "one beep per directed cycle edge");
}

/// Contract 3, corrupt: rewriting every beep into the same letter the
/// protocol counts leaves the outcome identical (a corruption the
/// receiver cannot distinguish), while the tally records every rewrite.
#[test]
fn total_corrupt_to_same_letter_is_observably_identity() {
    let g = generators::cycle(8);
    let p = AsMulti(count_neighbors(3));
    let plan = FaultPlan::new(7).corrupt_rate(1.0, Letter(0));
    let (out, summary) = run_sync_faulted(&p, &g, 0, &plan);
    let clean = Simulation::sync(&p, &g)
        .seed(0)
        .run()
        .unwrap()
        .into_sync_outcome()
        .unwrap();
    assert_eq!(out.outputs, clean.outputs);
    assert_eq!(summary.corrupted, summary.evaluated);
}

/// Contract 3, corrupt under a two-letter alphabet: rewriting every
/// beep into the distinct `quiet` letter (= σ₀) silences the observed
/// counts on the lockstep backend.
#[test]
fn total_corrupt_to_quiet_silences_the_counts() {
    let g = generators::cycle(8);
    let p = AsMulti(count_neighbors_quiet(3));
    let plan = FaultPlan::new(7).corrupt_rate(1.0, Letter(1));
    let (out, summary) = run_sync_faulted(&p, &g, 0, &plan);
    assert!(out.outputs.iter().all(|&o| o == 1), "{:?}", out.outputs);
    assert_eq!(summary.corrupted, summary.evaluated);
}

/// Contract 3, duplicate: ports hold the *last* letter, so same-letter
/// duplicates are observably idempotent on the lockstep backend — the
/// outcome is bit-identical to the fault-free run while the tally
/// records every multiplied delivery.
#[test]
fn total_duplication_is_idempotent_on_lockstep_ports() {
    let g = generators::cycle(8);
    let p = AsMulti(count_neighbors_quiet(3));
    let plan = FaultPlan::new(7).duplicate_rate(1.0, 2);
    let (out, summary) = run_sync_faulted(&p, &g, 0, &plan);
    let clean = Simulation::sync(&p, &g)
        .seed(0)
        .run()
        .unwrap()
        .into_sync_outcome()
        .unwrap();
    assert_eq!(sync_fingerprint(&out), sync_fingerprint(&clean));
    assert_eq!(summary.duplicated, summary.evaluated);
    assert!(summary.duplicated > 0);
}

/// Contract 3 on the async backend: total drop starves the synchronizer
/// (no node ever hears a neighbor's pulse), so the run exhausts its
/// event budget with a typed [`ExecError::EventLimit`] — and duplicates
/// enqueue real extra deliveries (visible in the delivery counter)
/// without perturbing what the ports resolve to.
#[test]
fn async_fault_kinds_have_model_level_effects() {
    let g = generators::cycle(8);
    let p = Synchronized::new(count_neighbors_quiet(2));
    let adv = UniformRandom { seed: 3 };

    let drop_all = FaultPlan::new(7).drop_rate(1.0);
    let err = Simulation::asynchronous(&p, &g, &adv)
        .seed(0)
        .budget(30_000)
        .with_faults(&drop_all)
        .run()
        .expect_err("a fully severed network cannot synchronize");
    assert!(matches!(err, ExecError::EventLimit { .. }), "{err}");

    let dup_all = FaultPlan::new(7).duplicate_rate(1.0, 2);
    let outcome = Simulation::asynchronous(&p, &g, &adv)
        .seed(0)
        .with_faults(&dup_all)
        .run()
        .unwrap();
    let summary = *outcome.faults().unwrap();
    let dup = outcome.into_async_outcome().unwrap();
    let clean = Simulation::asynchronous(&p, &g, &adv)
        .seed(0)
        .backend(Backend::Async(
            AsyncOptions::new(&adv).with_scheduler(SchedulerKind::BinaryHeap),
        ))
        .run()
        .unwrap()
        .into_async_outcome()
        .unwrap();
    assert_eq!(summary.duplicated, summary.evaluated);
    assert!(summary.duplicated > 0);
    assert!(
        dup.deliveries > clean.deliveries,
        "duplicates must surface as extra deliveries ({} vs {})",
        dup.deliveries,
        clean.deliveries
    );
}

/// Contract 4: every malformed plan surfaces as a typed
/// [`ExecError::Config`] at build time, on the builder path.
#[test]
fn invalid_plans_are_typed_config_errors() {
    let g = generators::cycle(4);
    let p = AsMulti(count_neighbors(3));
    let run = |plan: &FaultPlan| {
        Simulation::sync(&p, &g)
            .seed(0)
            .with_faults(plan)
            .run()
            .expect_err("invalid plan must be rejected")
    };
    for plan in [
        FaultPlan::new(1).drop_rate(1.5),
        FaultPlan::new(1).drop_rate(-0.1),
        FaultPlan::new(1).drop_rate(f64::NAN),
        FaultPlan::new(1).corrupt_rate(0.5, Letter(99)),
        FaultPlan::new(1).duplicate_rate(0.5, 0),
        FaultPlan::new(1).on_edge(0, 2, LinkFault::Drop, 0.5), // not a cycle edge
        FaultPlan::new(1).on_edge(0, 9, LinkFault::Drop, 0.5), // out of range
        FaultPlan::new(1).on_edge(1, 1, LinkFault::Drop, 0.5), // self-loop
    ] {
        assert!(matches!(run(&plan), ExecError::Config { .. }));
    }
}

/// Contract 6: pinned fault fingerprints. Recorded when the subsystem
/// landed; a fixed (case, seed) cell must reproduce its hash forever. If
/// a deliberate semantics change invalidates them, re-derive with
/// `cargo run -p stoneage-bench --bin fingerprint` and justify in the
/// commit message.
#[test]
fn pinned_fault_fingerprints() {
    let mut drift = Vec::new();
    for (i, (name, seed)) in FAULT_PINNED_CASES.iter().enumerate() {
        let (out, summary) = run_fault_pinned(name, *seed);
        let got = fault_fingerprint(&out, &summary);
        let want = PINNED_FAULTS[i].2;
        if got != want {
            drift.push(format!("(\"{name}\", {seed}, {got:#018x}) != {want:#018x}"));
        }
    }
    assert!(
        drift.is_empty(),
        "pinned fault fingerprints changed:\n{}",
        drift.join("\n")
    );
}

const PINNED_FAULTS: [(&str, u64, u64); 4] = [
    ("gnp-drop", 1, 0xa2cc399741c5a9a1),
    ("gnp-mixed", 2, 0x96263f5d4382abac),
    ("tree-corrupt", 3, 0x94d40135c0c953f7),
    ("grid-dup", 5, 0x58c4295750acb7a8),
];

/// Collects every checkpoint frame the run hands out.
#[derive(Default)]
struct Collect {
    snaps: Vec<Snapshot>,
}

impl<S> Observer<S> for Collect {
    fn on_checkpoint(&mut self, snapshot: &Snapshot) {
        self.snaps.push(snapshot.clone());
    }
}

/// Contract 5 on the lockstep backends: resume from every mid-plan frame
/// (including through the byte round-trip) lands on the uninterrupted
/// outcome and the final tally.
#[test]
fn lockstep_resume_mid_fault_plan_is_bit_identical() {
    let g = generators::gnp(60, 0.08, 5);
    let plan = plan_for(&g, 3000);

    let p = AsMulti(count_neighbors(3));
    let full = Simulation::sync(&p, &g)
        .seed(7)
        .with_faults(&plan)
        .run()
        .unwrap();
    let want = format!("{:?} | {:?}", full.outputs, full.faults());
    let mut obs = Collect::default();
    let out = Simulation::sync(&p, &g)
        .seed(7)
        .with_faults(&plan)
        .checkpoint_every(1)
        .observe(&mut obs)
        .run()
        .unwrap();
    assert_eq!(
        format!("{:?} | {:?}", out.outputs, out.faults()),
        want,
        "sync: cadence perturbed the run"
    );
    assert!(!obs.snaps.is_empty());
    for snap in &obs.snaps {
        let decoded = Snapshot::from_bytes(&snap.to_bytes()).expect("round-trip");
        let resumed = Simulation::sync(&p, &g)
            .seed(7)
            .with_faults(&plan)
            .resume_from(&decoded)
            .run()
            .unwrap();
        assert_eq!(
            format!("{:?} | {:?}", resumed.outputs, resumed.faults()),
            want,
            "sync: resume at boundary {} diverged",
            snap.boundary()
        );
    }

    let poke = Poke::new();
    let full = Simulation::scoped(&poke, &g)
        .seed(7)
        .with_faults(&plan)
        .run()
        .unwrap();
    let want = format!("{:?} | {:?}", full.outputs, full.faults());
    let mut obs = Collect::default();
    Simulation::scoped(&poke, &g)
        .seed(7)
        .with_faults(&plan)
        .checkpoint_every(1)
        .observe(&mut obs)
        .run()
        .unwrap();
    assert!(!obs.snaps.is_empty());
    for snap in &obs.snaps {
        let resumed = Simulation::scoped(&poke, &g)
            .seed(7)
            .with_faults(&plan)
            .resume_from(snap)
            .run()
            .unwrap();
        assert_eq!(
            format!("{:?} | {:?}", resumed.outputs, resumed.faults()),
            want,
            "scoped: resume at boundary {} diverged",
            snap.boundary()
        );
    }
}

/// One async-backend builder cell for the mid-plan resume matrix. A
/// free function (not a closure) so every call picks fresh borrow
/// lifetimes.
fn mk_async_faulted<'a>(
    p: &'a Synchronized<stoneage_core::TableProtocol>,
    g: &'a Graph,
    adv: &'a UniformRandom,
    fplan: &'a FaultPlan,
    churn: Option<&'a ChurnPlan>,
) -> Simulation<'a, Synchronized<stoneage_core::TableProtocol>> {
    let mut b = Simulation::asynchronous(p, g, adv)
        .seed(5)
        .with_faults(fplan);
    if let Some(plan) = churn {
        b = b.with_churn(plan);
    }
    b
}

/// Contract 5 on the async backend, with and without churn composed in.
#[test]
fn async_resume_mid_fault_plan_is_bit_identical() {
    let g = generators::gnp(40, 0.1, 3);
    let p = Synchronized::new(count_neighbors_quiet(2));
    let adv = UniformRandom { seed: 11 };
    let fplan = async_plan_for(&g, 4000);
    let churn = ChurnPlan::random(&g, 23, 5, 4)
        .at(1, TopologyEvent::Crash(0))
        .at(3, TopologyEvent::Restart(0));
    for churn in [None, Some(&churn)] {
        let full = mk_async_faulted(&p, &g, &adv, &fplan, churn).run().unwrap();
        let want = format!("{:?} | {:?} | {:?}", full.outputs, full.faults(), full.cost);
        let steps = full.clone().into_async_outcome().unwrap().total_steps;
        let mut obs = Collect::default();
        mk_async_faulted(&p, &g, &adv, &fplan, churn)
            .checkpoint_every((steps / 4).max(1))
            .observe(&mut obs)
            .run()
            .unwrap();
        assert!(!obs.snaps.is_empty(), "churn={}", churn.is_some());
        for snap in &obs.snaps {
            let decoded = Snapshot::from_bytes(&snap.to_bytes()).expect("round-trip");
            let resumed = mk_async_faulted(&p, &g, &adv, &fplan, churn)
                .resume_from(&decoded)
                .run()
                .unwrap();
            assert_eq!(
                format!(
                    "{:?} | {:?} | {:?}",
                    resumed.outputs,
                    resumed.faults(),
                    resumed.cost
                ),
                want,
                "churn={}: resume at boundary {} diverged",
                churn.is_some(),
                snap.boundary()
            );
        }
    }
}

/// A frame captured under one fault plan refuses to resume under a
/// different plan (or none): the plan is folded into the config digest.
#[test]
fn resume_under_a_different_fault_plan_is_rejected() {
    let g = generators::gnp(30, 0.12, 5);
    let p = AsMulti(count_neighbors(3));
    let plan = FaultPlan::new(1).drop_rate(0.1);
    let mut obs = Collect::default();
    Simulation::sync(&p, &g)
        .seed(7)
        .with_faults(&plan)
        .checkpoint_every(1)
        .observe(&mut obs)
        .run()
        .unwrap();
    let snap = obs.snaps.first().expect("at least one frame").clone();

    // Same plan resumes fine.
    assert!(Simulation::sync(&p, &g)
        .seed(7)
        .with_faults(&plan)
        .resume_from(&snap)
        .run()
        .is_ok());
    // No plan: rejected.
    assert!(matches!(
        Simulation::sync(&p, &g).seed(7).resume_from(&snap).run(),
        Err(ExecError::Snapshot(_))
    ));
    // Different seed: rejected.
    let other = FaultPlan::new(2).drop_rate(0.1);
    assert!(matches!(
        Simulation::sync(&p, &g)
            .seed(7)
            .with_faults(&other)
            .resume_from(&snap)
            .run(),
        Err(ExecError::Snapshot(_))
    ));
    // Different rate bits: rejected.
    let other = FaultPlan::new(1).drop_rate(0.1000001);
    assert!(matches!(
        Simulation::sync(&p, &g)
            .seed(7)
            .with_faults(&other)
            .resume_from(&snap)
            .run(),
        Err(ExecError::Snapshot(_))
    ));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Contract 1 over random instances and random plans: a faulted run
    /// reproduces itself, and the tally's components always sum
    /// consistently.
    #[test]
    fn faulted_runs_reproduce_on_random_instances(
        n in 2usize..60,
        pr in 0.0f64..0.35,
        gseed in 0u64..300,
        fseed in 0u64..300,
        seed in 0u64..300,
        drop in 0.0f64..0.3,
        dup in 0.0f64..0.3,
    ) {
        let g = generators::gnp(n, pr, gseed);
        let plan = FaultPlan::new(fseed)
            .drop_rate(drop)
            .duplicate_rate(dup, 1)
            .corrupt_rate(0.05, Letter(0));
        let protocol = AsMulti(random_beeper(4, 2));
        let (a, sa) = run_sync_faulted(&protocol, &g, seed, &plan);
        let (b, sb) = run_sync_faulted(&protocol, &g, seed, &plan);
        prop_assert_eq!(fault_fingerprint(&a, &sa), fault_fingerprint(&b, &sb));
        prop_assert!(sa.injected() <= sa.evaluated);
    }
}

#[cfg(feature = "parallel")]
mod parallel {
    use super::*;
    use stoneage_sim::{MergeStrategy, ParallelPolicy};
    use stoneage_testkit::{adversarial_worker_counts as worker_counts, round_modes};

    fn run_sync_faulted_par(
        protocol: &AsMulti<stoneage_core::TableProtocol>,
        g: &Graph,
        seed: u64,
        plan: &FaultPlan,
        policy: &ParallelPolicy,
    ) -> (SyncOutcome, FaultSummary) {
        let outcome = Simulation::sync(protocol, g)
            .seed(seed)
            .with_faults(plan)
            .parallel(*policy)
            .run()
            .expect("faulted runs terminate");
        let summary = *outcome.faults().expect("plan was set");
        (outcome.into_sync_outcome().expect("sync backend"), summary)
    }

    /// Contract 1 (strong form): the full adversarial matrix — worker
    /// counts × round modes — reproduces the serial faulted outcome bit
    /// for bit, on both lockstep backends, with and without churn.
    #[test]
    fn parallel_faulted_matrix_matches_serial() {
        let sync_p = AsMulti(random_beeper(5, 2));
        let poke = Poke::new();
        for (name, g) in graph_family() {
            for seed in 0..2 {
                let plan = plan_for(&g, 5000 + seed);
                let (serial_sync, serial_sync_sum) = run_sync_faulted(&sync_p, &g, seed, &plan);
                let serial_scoped = Simulation::scoped(&poke, &g)
                    .seed(seed)
                    .with_faults(&plan)
                    .run()
                    .unwrap();
                let serial_scoped_sum = *serial_scoped.faults().unwrap();
                let serial_scoped = serial_scoped.into_scoped_outcome().unwrap();
                for workers in worker_counts() {
                    for round in round_modes() {
                        let policy =
                            ParallelPolicy::forced(workers, MergeStrategy::DestinationSharded)
                                .with_round(round);
                        let ctx = format!("{name}/seed{seed}/w{workers}/{round:?}");
                        let (p_out, p_sum) =
                            run_sync_faulted_par(&sync_p, &g, seed, &plan, &policy);
                        assert_eq!(
                            sync_fingerprint(&p_out),
                            sync_fingerprint(&serial_sync),
                            "{ctx}: sync"
                        );
                        assert_eq!(p_sum, serial_sync_sum, "{ctx}: sync summary");
                        let s_out = Simulation::scoped(&poke, &g)
                            .seed(seed)
                            .with_faults(&plan)
                            .parallel(policy)
                            .run()
                            .unwrap();
                        let s_sum = *s_out.faults().unwrap();
                        let s_out = s_out.into_scoped_outcome().unwrap();
                        assert_eq!(
                            scoped_fingerprint(&s_out),
                            scoped_fingerprint(&serial_scoped),
                            "{ctx}: scoped"
                        );
                        assert_eq!(s_sum, serial_scoped_sum, "{ctx}: scoped summary");
                    }
                }
            }
        }
    }

    /// Faults + churn + the parallel matrix: every cell matches the
    /// serial composed engine.
    #[test]
    fn parallel_faults_compose_with_churn() {
        let sync_p = AsMulti(random_beeper(4, 2));
        for (name, g) in graph_family() {
            let churn = ChurnPlan::random(&g, 21, 6, 5)
                .at(1, TopologyEvent::Crash(0))
                .at(3, TopologyEvent::Restart(0));
            let fplan = plan_for(&g, 6000);
            let run = |policy: Option<ParallelPolicy>| {
                let mut b = Simulation::sync(&sync_p, &g)
                    .seed(5)
                    .with_churn(&churn)
                    .with_faults(&fplan);
                if let Some(pol) = policy {
                    b = b.parallel(pol);
                }
                let outcome = b.run().expect("terminates");
                let cs = outcome.churn().unwrap().clone();
                let fs = *outcome.faults().unwrap();
                (outcome.into_sync_outcome().unwrap(), cs, fs)
            };
            let (want, want_cs, want_fs) = run(None);
            for workers in worker_counts() {
                for round in round_modes() {
                    let policy = ParallelPolicy::forced(workers, MergeStrategy::DestinationSharded)
                        .with_round(round);
                    let (got, cs, fs) = run(Some(policy));
                    let ctx = format!("{name}/w{workers}/{round:?}");
                    assert_eq!(sync_fingerprint(&got), sync_fingerprint(&want), "{ctx}");
                    assert_eq!(cs, want_cs, "{ctx}: churn summary");
                    assert_eq!(fs, want_fs, "{ctx}: fault summary");
                }
            }
        }
    }

    /// The parallel path reproduces the pinned fault fingerprints at
    /// every worker count and in both round modes.
    #[test]
    fn parallel_reproduces_pinned_fault_fingerprints() {
        for (i, (name, seed)) in FAULT_PINNED_CASES.iter().enumerate() {
            let (g, p, plan) = stoneage_testkit::fault_pinned_case(name);
            let p = AsMulti(p);
            for workers in worker_counts() {
                for round in round_modes() {
                    let policy = ParallelPolicy::forced(workers, MergeStrategy::DestinationSharded)
                        .with_round(round);
                    let (out, summary) = run_sync_faulted_par(&p, &g, *seed, &plan, &policy);
                    assert_eq!(
                        fault_fingerprint(&out, &summary),
                        super::PINNED_FAULTS[i].2,
                        "{name}/seed{seed}/w{workers}/{round:?}"
                    );
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// Random instances × random plans × the parallel matrix: every
        /// cell matches the serial faulted engine.
        #[test]
        fn parallel_faulted_matches_serial_on_random_instances(
            n in 2usize..50,
            pr in 0.0f64..0.3,
            gseed in 0u64..200,
            fseed in 0u64..200,
            seed in 0u64..200,
            widx in 0usize..4,
            fused in 0usize..2,
        ) {
            let g = generators::gnp(n, pr, gseed);
            let plan = FaultPlan::new(fseed)
                .drop_rate(0.08)
                .duplicate_rate(0.06, 2)
                .corrupt_rate(0.05, Letter(0));
            let protocol = AsMulti(random_beeper(4, 2));
            let workers = worker_counts()[widx % worker_counts().len()];
            let round = round_modes()[fused];
            let policy = ParallelPolicy::forced(workers, MergeStrategy::DestinationSharded)
                .with_round(round);
            let (a, sa) = run_sync_faulted(&protocol, &g, seed, &plan);
            let (b, sb) = run_sync_faulted_par(&protocol, &g, seed, &plan, &policy);
            prop_assert_eq!(fault_fingerprint(&a, &sa), fault_fingerprint(&b, &sb));
        }
    }
}
