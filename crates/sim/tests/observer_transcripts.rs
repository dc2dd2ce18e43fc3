//! What an observer sees, on every lockstep schedule and on both async
//! queues.
//!
//! The round pipeline calls `Observer::on_round_end` once per round,
//! after the round's churn boundary has been applied, and
//! `Observer::on_checkpoint` at every checkpoint boundary, after the
//! fused schedule has flushed its deferred deliveries. The async event
//! loop calls `Observer::on_step` after every node step and
//! `Observer::on_checkpoint` on its step cadence. The outcome pins
//! elsewhere see only the end of a run; this suite pins the whole
//! transcript an observer receives, folded by the testkit's
//! `Transcript`:
//!
//! * every `on_round_end` call: the round and the `SnapState` bytes of
//!   every state;
//! * every `on_step` call: the time's bits, the node, the step index and
//!   the state's bytes (the observer also checks that step times never
//!   decrease);
//! * every `on_checkpoint` call: the frame's `to_bytes()`.
//!
//! Both lockstep flavours run with a checkpoint cadence (`SelfStabMis`
//! on `Simulation::sync`, `Poke` on `Simulation::scoped`) under four
//! plans: none, churn, message faults, and churn with faults. The
//! serial transcript must equal a constant recorded before the churn
//! loops were folded into the round pipeline, and under the `parallel`
//! feature every cell of the testkit's lockstep matrix must reproduce
//! the serial transcript.
//!
//! The async flavour runs the testkit's `async_transcript` instance
//! under the same four plans, and each transcript also folds the
//! outcome's fingerprint with its churn and fault summaries. Both queues
//! must equal one constant per plan, recorded when every churn or fault
//! run still executed on the binary heap whatever queue was asked for.

use stoneage_core::Protocol;
use stoneage_graph::{generators, Graph, TopologyEvent};
use stoneage_protocols::SelfStabMis;
use stoneage_sim::{
    ChurnPlan, ExecError, FaultPlan, Outcome, ParallelPolicy, SchedulerKind, Simulation,
};
use stoneage_testkit::{async_transcript, Poke, Transcript, ASYNC_TRANSCRIPT_PLANS};

/// The four plan combinations every flavour runs under.
const PLANS: [&str; 4] = ["none", "churn", "faults", "churn+faults"];

/// A seeded random churn plan plus a crash/restart pair of node 0.
fn churn_plan(g: &Graph, max_round: u64) -> ChurnPlan {
    ChurnPlan::random(g, 17, 10, max_round)
        .at(2, TopologyEvent::Crash(0))
        .at(4, TopologyEvent::Restart(0))
}

/// Message drops plus duplicates on every channel. The drop rate is
/// low because a dropped letter leaves a stale port behind for good,
/// which can wedge MIS; the run must still reach an output
/// configuration.
fn fault_plan() -> FaultPlan {
    FaultPlan::new(23).drop_rate(0.002).duplicate_rate(0.1, 1)
}

/// The instance graph of both flavours.
fn graph() -> Graph {
    generators::gnp(90, 0.06, 4)
}

/// The serial engine plus, under the `parallel` feature, every cell of
/// the testkit's lockstep matrix.
fn cells() -> Vec<(String, Option<ParallelPolicy>)> {
    let serial = std::iter::once(("serial".to_string(), None));
    #[cfg(feature = "parallel")]
    let parallel = stoneage_testkit::lockstep_policies()
        .into_iter()
        .map(|(name, policy)| (name, Some(policy)));
    #[cfg(not(feature = "parallel"))]
    let parallel = std::iter::empty();
    serial.chain(parallel).collect()
}

/// Configures `sim` with `plan` (one of [`PLANS`]) and `policy`.
fn configure<'a, P: Protocol>(
    mut sim: Simulation<'a, P>,
    plan: &str,
    churn: &'a ChurnPlan,
    faults: &'a FaultPlan,
    policy: &Option<ParallelPolicy>,
) -> Simulation<'a, P> {
    if plan.starts_with("churn") {
        sim = sim.with_churn(churn);
    }
    if plan.ends_with("faults") {
        sim = sim.with_faults(faults);
    }
    #[cfg(feature = "parallel")]
    if let Some(policy) = policy {
        sim = sim.parallel(*policy);
    }
    #[cfg(not(feature = "parallel"))]
    let _ = policy;
    sim
}

/// Checks that the run finished and that its plans did something.
fn check<P: Protocol>(outcome: Result<Outcome<P>, ExecError>, flavour: &str, plan: &str) {
    let o = outcome.unwrap_or_else(|e| panic!("{flavour}/{plan}: {e}"));
    if plan.starts_with("churn") {
        let churn = o.churn().expect("churn summary");
        assert!(churn.crashes > 0 && churn.restarts > 0, "{flavour}/{plan}");
    }
    if plan.ends_with("faults") {
        let faults = o.faults().expect("fault summary");
        assert!(
            faults.dropped > 0 && faults.duplicated > 0,
            "{flavour}/{plan}"
        );
    }
}

/// The transcript of `SelfStabMis` on the sync backend.
fn sync_transcript(plan: &str, policy: &Option<ParallelPolicy>) -> u64 {
    let g = graph();
    let p = SelfStabMis::new();
    let (churn, faults) = (churn_plan(&g, 24), fault_plan());
    let mut observer = Transcript::default();
    let sim = Simulation::sync(&p, &g)
        .seed(5)
        .budget(5_000)
        .checkpoint_every(3);
    let outcome = configure(sim, plan, &churn, &faults, policy)
        .observe(&mut observer)
        .run();
    check(outcome, "sync", plan);
    observer.hash
}

/// The transcript of `Poke` on the scoped backend.
fn scoped_transcript(plan: &str, policy: &Option<ParallelPolicy>) -> u64 {
    let g = graph();
    let p = Poke::new();
    let (churn, faults) = (churn_plan(&g, 6), fault_plan());
    let mut observer = Transcript::default();
    let sim = Simulation::scoped(&p, &g)
        .seed(9)
        .budget(1_000)
        .checkpoint_every(1);
    let outcome = configure(sim, plan, &churn, &faults, policy)
        .observe(&mut observer)
        .run();
    check(outcome, "scoped", plan);
    observer.hash
}

/// Serial transcripts per plan ([`PLANS`] order), recorded before the
/// churn loops were folded into the round pipeline.
const SYNC_PINNED: [u64; 4] = [
    0xf86ef3850c2a60e7,
    0xe6ba040f03c49483,
    0x11a71fc216ec3eb7,
    0x42f52872af97817b,
];
const SCOPED_PINNED: [u64; 4] = [
    0x05c02c1bdb1c522d,
    0x42b04a5902f3f0a2,
    0x61804ec16758705f,
    0xeea722b89f316832,
];

#[test]
fn serial_transcripts_match_the_recorded_constants() {
    let sync: Vec<u64> = PLANS.iter().map(|p| sync_transcript(p, &None)).collect();
    let scoped: Vec<u64> = PLANS.iter().map(|p| scoped_transcript(p, &None)).collect();
    assert_eq!(sync, SYNC_PINNED, "sync transcripts");
    assert_eq!(scoped, SCOPED_PINNED, "scoped transcripts");
}

#[test]
fn every_schedule_delivers_the_serial_transcript() {
    for plan in PLANS {
        let sync = sync_transcript(plan, &None);
        let scoped = scoped_transcript(plan, &None);
        for (name, policy) in cells() {
            assert_eq!(sync_transcript(plan, &policy), sync, "sync/{plan}/{name}");
            assert_eq!(
                scoped_transcript(plan, &policy),
                scoped,
                "scoped/{plan}/{name}"
            );
        }
    }
}

/// Async transcripts per plan ([`ASYNC_TRANSCRIPT_PLANS`] order),
/// recorded from the heap before churn and fault runs could run on the
/// calendar wheel. Re-derive with `cargo run -p stoneage-bench --bin
/// fingerprint`.
const ASYNC_PINNED: [u64; 4] = [
    0xe2b8b42fdca4b523,
    0xd9889771efca180c,
    0x3213eacf2b3a0a0e,
    0x77166999028e7d1d,
];

#[test]
fn async_transcripts_match_the_recorded_constants_on_both_queues() {
    for queue in [SchedulerKind::CalendarWheel, SchedulerKind::BinaryHeap] {
        let got: Vec<u64> = ASYNC_TRANSCRIPT_PLANS
            .iter()
            .map(|plan| async_transcript(plan, queue))
            .collect();
        assert_eq!(got, ASYNC_PINNED, "{queue:?} transcripts");
    }
}
