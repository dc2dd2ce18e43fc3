//! Allocation budget of the async hot path.
//!
//! In steady state the async event loop allocates nothing per event: the
//! calendar wheel keeps each bucket's storage when it drains the bucket,
//! and `SingleLetter`'s gather state is a fixed-size value, so the copy
//! of it the synchronizer makes on every compiled step never touches the
//! heap. This suite counts heap allocations with a per-thread counting
//! global allocator and bounds them:
//!
//! * the compiled MIS pipeline `Synchronized<SingleLetter<MisProtocol>>`
//!   on the calendar wheel under `UniformRandom` — with no plan, under a
//!   crash-and-restart churn plan and under a duplicating fault plan —
//!   makes fewer than 1 allocation per 100 events (steps plus
//!   deliveries);
//! * a warmed [`CalendarQueue`] makes at most 1 allocation per 1,000
//!   pop+push pairs.
//!
//! The `unsafe impl GlobalAlloc` lives only in this test binary; every
//! library crate keeps `#![forbid(unsafe_code)]`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use stoneage_core::{SingleLetter, Synchronized};
use stoneage_graph::{generators, TopologyEvent};
use stoneage_protocols::MisProtocol;
use stoneage_sim::adversary::UniformRandom;
use stoneage_sim::{CalendarQueue, ChurnPlan, Detail, FaultPlan, Simulation};

/// The system allocator, counting every allocation and reallocation
/// made on the calling thread. The test harness runs tests on parallel
/// threads, so one global counter would mix their counts.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // A const-initialized `Cell` has no destructor and never allocates;
    // `try_with` keeps an allocation during thread teardown harmless.
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards its arguments to `System` unchanged, so
// `Counting` upholds exactly the contract `System` does.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: the caller upholds this method's `GlobalAlloc` contract,
        // which is the same for `System`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: the caller upholds this method's `GlobalAlloc` contract,
        // which is the same for `System`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        // SAFETY: the caller upholds this method's `GlobalAlloc` contract,
        // which is the same for `System`, and `ptr` came from `System`:
        // this allocator hands out only blocks `System` allocated.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds this method's `GlobalAlloc` contract,
        // which is the same for `System`, and `ptr` came from `System`:
        // this allocator hands out only blocks `System` allocated.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Runs `f`; returns its result and the allocations it made on this
/// thread.
fn counted<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let r = f();
    (r, ALLOCATIONS.with(Cell::get) - before)
}

/// Runs the compiled MIS pipeline on a small gnp under `plan` (`"none"`,
/// `"churn"` or `"faults"`); returns the run's allocations and events.
fn pipeline_allocations(plan: &str) -> (u64, u64) {
    let g = generators::gnp(40, 0.1, 3);
    let p = Synchronized::new(SingleLetter::new(MisProtocol::new()));
    let adv = UniformRandom { seed: 5 };
    // A crash and a restart of the busiest node early in the run, while
    // every node is still undecided.
    let hub = (0..40).max_by_key(|&v| g.degree(v)).expect("nodes");
    let churn = ChurnPlan::new()
        .at(4, TopologyEvent::Crash(hub))
        .at(9, TopologyEvent::Restart(hub));
    let faults = FaultPlan::new(7).duplicate_rate(0.1, 1);
    let (outcome, allocations) = counted(|| {
        let mut sim = Simulation::asynchronous(&p, &g, &adv).seed(1);
        match plan {
            "churn" => sim = sim.with_churn(&churn),
            "faults" => sim = sim.with_faults(&faults),
            _ => {}
        }
        sim.run()
    });
    let outcome = outcome.unwrap_or_else(|e| panic!("{plan}: {e}"));
    match plan {
        "churn" => {
            let c = outcome.churn().expect("churn summary");
            assert_eq!((c.crashes, c.restarts), (1, 1), "{plan}");
        }
        "faults" => assert!(outcome.faults().expect("fault summary").duplicated > 0),
        _ => {}
    }
    let Detail::Async {
        total_steps,
        deliveries,
        ..
    } = outcome.detail
    else {
        unreachable!("an asynchronous run");
    };
    (allocations, total_steps + deliveries)
}

fn assert_pipeline_budget(plan: &str) {
    let (allocations, events) = pipeline_allocations(plan);
    assert!(
        events > 100_000,
        "{plan}: {events} events are too few to amortize setup"
    );
    assert!(
        allocations * 100 < events,
        "{plan}: {allocations} allocations over {events} events ({:.4} per event)",
        allocations as f64 / events as f64
    );
}

#[test]
fn compiled_mis_allocates_under_one_per_hundred_events() {
    assert_pipeline_budget("none");
}

#[test]
fn compiled_mis_under_churn_allocates_under_one_per_hundred_events() {
    assert_pipeline_budget("churn");
}

#[test]
fn compiled_mis_under_faults_allocates_under_one_per_hundred_events() {
    assert_pipeline_budget("faults");
}

#[test]
fn warmed_calendar_queue_allocates_at_most_one_per_thousand_pairs() {
    // A hold model: pop the earliest event, push one a random delay
    // later. Most delays stay on level 0; one in eight reaches levels 1
    // and 2, so cascades run throughout.
    let mut s = 0x9E37_79B9_7F4A_7C15u64;
    let mut delay = move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        let unit = (s >> 11) as f64 / (1u64 << 53) as f64;
        if s.is_multiple_of(8) {
            unit * 20_000.0
        } else {
            unit * 60.0
        }
    };
    let mut q = CalendarQueue::new(0.25);
    let mut seq = 0u64;
    for _ in 0..2_000 {
        q.push(delay(), seq, seq);
        seq += 1;
    }
    let mut hold = |q: &mut CalendarQueue<u64>, pairs: u64| {
        for _ in 0..pairs {
            let (t, _, _) = q.pop().expect("the hold model keeps the queue full");
            q.push(t + delay(), seq, seq);
            seq += 1;
        }
    };
    // Warm up until every bucket has held its peak load.
    hold(&mut q, 200_000);
    let pairs = 200_000;
    let ((), allocations) = counted(|| hold(&mut q, pairs));
    assert!(
        allocations * 1_000 <= pairs,
        "{allocations} allocations over {pairs} pop+push pairs"
    );
}
