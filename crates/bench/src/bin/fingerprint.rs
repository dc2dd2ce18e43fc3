//! Deterministic execution fingerprints, printed to stdout.
//!
//! Runs the fixed panel of synchronous and asynchronous cases that the
//! pinned tests in `crates/sim/tests/` guard — the case instances,
//! protocol builders, and hashes all come from `stoneage-testkit`, so
//! this bin and the test suites cannot drift apart — and prints one
//! `case scheduler seed fingerprint` line each. Two invocations must
//! emit byte-identical output — the CI `determinism` job runs this twice
//! and diffs; any divergence means an engine picked up nondeterminism
//! (time, address, or iteration-order dependence).
//!
//! Also the tool to re-derive the pinned constants after a *deliberate*
//! semantics change (`PINNED` in `crates/sim/tests/flat_engine.rs`,
//! `PINNED_ASYNC` in `crates/sim/tests/async_wheel.rs`, `ASYNC_PINNED`
//! in `crates/sim/tests/observer_transcripts.rs`).

use stoneage_sim::SchedulerKind;
use stoneage_testkit::{
    async_fingerprint, async_transcript, run_async_pinned, run_sync_pinned, sync_fingerprint,
    ASYNC_PINNED_CASES, ASYNC_TRANSCRIPT_PLANS, SYNC_PINNED_CASES,
};

fn main() {
    // Synchronous pinned panel (mirrors tests/flat_engine.rs).
    for (name, seed) in SYNC_PINNED_CASES {
        let fp = sync_fingerprint(&run_sync_pinned(name, seed));
        println!("sync  {name:<12} -          seed={seed:<6} fp={fp:#018x}");
    }

    // Asynchronous pinned panel (mirrors tests/async_wheel.rs), on both
    // schedulers — the lines must agree pairwise and across runs.
    for (name, seed) in ASYNC_PINNED_CASES {
        for (label, scheduler) in [
            ("heap", SchedulerKind::BinaryHeap),
            ("wheel", SchedulerKind::CalendarWheel),
        ] {
            let fp = async_fingerprint(&run_async_pinned(name, seed, scheduler));
            println!("async {name:<12} {label:<9} seed={seed:<6} fp={fp:#018x}");
        }
    }

    // Async observer transcripts under churn and fault plans (mirrors
    // `ASYNC_PINNED` in tests/observer_transcripts.rs), on both queues.
    for plan in ASYNC_TRANSCRIPT_PLANS {
        for (label, scheduler) in [
            ("heap", SchedulerKind::BinaryHeap),
            ("wheel", SchedulerKind::CalendarWheel),
        ] {
            let fp = async_transcript(plan, scheduler);
            println!("transcript {plan:<12} {label:<9} fp={fp:#018x}");
        }
    }
}
