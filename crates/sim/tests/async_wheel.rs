//! Differential and determinism tests for the calendar-wheel async
//! scheduler.
//!
//! The contract under test: the async backend of
//! [`stoneage_sim::Simulation`] on
//! [`SchedulerKind::CalendarWheel`] (hierarchical timing wheel, per-edge
//! batched delivery) produces outcomes **bit-identical per seed** to the
//! preserved [`SchedulerKind::BinaryHeap`] path — across graph families,
//! adversary policies (including latency schedules that collide many
//! arrivals into one bucket), protocols, event budgets, and bucket
//! widths. Pinned fingerprints on gnp/tree/grid additionally guard both
//! paths against silent drift.
//!
//! The protocol builders, fnv1a hash, and pinned case instances live in
//! `stoneage-testkit` (shared with `tests/flat_engine.rs` and the
//! `stoneage-bench` fingerprint bin); the pinned hash *constants* stay
//! here so this suite fails on its own recorded numbers. These tests
//! also pin the wheel drain's per-receiver coalescing: the quantized and
//! constant adversaries collide many different senders' arrivals onto
//! one instant at shared receivers, which is exactly the grouped-write
//! path.

use proptest::prelude::*;
use stoneage_core::Synchronized;
use stoneage_graph::{generators, Graph, NodeId, TopologyEvent};
use stoneage_sim::{
    Adversary, AsyncConfig, AsyncOptions, AsyncOutcome, Backend, ChurnPlan, ExecError, FaultPlan,
    LinkFault, SchedulerKind, Simulation,
};
use stoneage_testkit::harness::run_async;
use stoneage_testkit::{
    async_fingerprint, async_run_fingerprint, count_neighbors_quiet as count_neighbors,
    random_beeper, run_async_pinned, ASYNC_PINNED_CASES,
};

/// An adversary whose parameters are all multiples of one quantum: whole
/// neighborhoods of arrivals collide onto identical instants, so the
/// wheel files them into shared buckets and batched per-edge runs — the
/// stress case for the batching path (and, historically, for calendar
/// queue implementations).
#[derive(Clone, Copy)]
struct Quantized {
    seed: u64,
    quantum: f64,
}

fn mix(seed: u64, a: u64, b: u64, c: u64) -> u64 {
    let mut x = seed ^ 0x9E3779B97F4A7C15 ^ a.rotate_left(17) ^ b.rotate_left(31) ^ c;
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D049BB133111EB);
    x ^ (x >> 31)
}

impl Adversary for Quantized {
    fn step_length(&self, v: NodeId, t: u64) -> f64 {
        self.quantum * (1 + mix(self.seed, 1, v as u64, t) % 8) as f64
    }

    fn delay(&self, v: NodeId, t: u64, u: NodeId) -> f64 {
        self.quantum * (1 + mix(self.seed, 2, (v as u64) << 32 | u as u64, t) % 4) as f64
    }

    fn name(&self) -> &'static str {
        "quantized"
    }
}

/// A constant-parameter adversary: *every* arrival of a broadcast lands
/// on the same instant, so each broadcast drains as a single batched run.
#[derive(Clone, Copy)]
struct Constant {
    step: f64,
    delay: f64,
}

impl Adversary for Constant {
    fn step_length(&self, _v: NodeId, _t: u64) -> f64 {
        self.step
    }

    fn delay(&self, _v: NodeId, _t: u64, _u: NodeId) -> f64 {
        self.delay
    }

    fn name(&self) -> &'static str {
        "constant"
    }
}

fn heap_cfg(seed: u64) -> AsyncConfig {
    AsyncConfig::seeded(seed).with_scheduler(SchedulerKind::BinaryHeap)
}

fn wheel_cfg(seed: u64) -> AsyncConfig {
    AsyncConfig::seeded(seed).with_scheduler(SchedulerKind::CalendarWheel)
}

/// Bit-exact equality over every outcome field.
fn assert_same(ctx: &str, wheel: &AsyncOutcome, heap: &AsyncOutcome) {
    assert_eq!(wheel.outputs, heap.outputs, "{ctx}: outputs");
    assert_eq!(
        wheel.completion_time.to_bits(),
        heap.completion_time.to_bits(),
        "{ctx}: completion_time {} vs {}",
        wheel.completion_time,
        heap.completion_time
    );
    assert_eq!(
        wheel.time_unit.to_bits(),
        heap.time_unit.to_bits(),
        "{ctx}: time_unit"
    );
    assert_eq!(wheel.total_steps, heap.total_steps, "{ctx}: total_steps");
    assert_eq!(
        wheel.messages_sent, heap.messages_sent,
        "{ctx}: messages_sent"
    );
    assert_eq!(wheel.deliveries, heap.deliveries, "{ctx}: deliveries");
    assert_eq!(
        wheel.lost_overwrites, heap.lost_overwrites,
        "{ctx}: lost_overwrites"
    );
}

fn graph_family() -> Vec<(&'static str, Graph)> {
    vec![
        ("gnp", generators::gnp(120, 0.05, 3)),
        ("gnp-dense", generators::gnp(50, 0.3, 17)),
        ("tree", generators::random_tree(150, 11)),
        ("grid", generators::grid(10, 12)),
        ("star", generators::star(40)),
        ("empty", Graph::empty(20)),
    ]
}

#[test]
fn wheel_matches_heap_across_families_and_adversaries() {
    let p = Synchronized::new(count_neighbors(2));
    for (name, g) in graph_family() {
        for (i, adv) in stoneage_sim::adversary::standard_panel(13)
            .iter()
            .enumerate()
        {
            let seed = 900 + i as u64;
            let heap = run_async(&p, &g, adv, &heap_cfg(seed)).unwrap();
            let wheel = run_async(&p, &g, adv, &wheel_cfg(seed)).unwrap();
            assert_same(&format!("{name}/{}", adv.name()), &wheel, &heap);
        }
    }
}

#[test]
fn wheel_matches_heap_on_randomized_protocol() {
    let p = Synchronized::new(random_beeper(4, 2));
    for (name, g) in graph_family() {
        for seed in 70..73 {
            let adv = stoneage_sim::adversary::Exponential { seed, mean: 0.4 };
            let heap = run_async(&p, &g, &adv, &heap_cfg(seed)).unwrap();
            let wheel = run_async(&p, &g, &adv, &wheel_cfg(seed)).unwrap();
            assert_same(&format!("{name}/seed{seed}"), &wheel, &heap);
        }
    }
}

/// `async_fingerprint` of every colliding cell (seed 6), recorded from
/// the binary-heap loop while it still pushed one event per letter —
/// the reference that run-event batching and per-receiver coalescing
/// must match — per graph, in the order Quantized 0.25, Quantized 1.0,
/// Constant.
const COLLIDING_PINNED: [(&str, [u64; 3]); 3] = [
    (
        "star",
        [0xd6cb1ac10201ab8d, 0x3622d0858b1b984d, 0x8c4c4d12c336dfec],
    ),
    (
        "grid",
        [0x5f68da46c281ff45, 0x015dc3240a8d3905, 0xb63146d4847a1066],
    ),
    (
        "gnp",
        [0x2aef170e1e3b092e, 0x3fb4f3601baea52e, 0x523145927432a7e6],
    ),
];

#[test]
fn colliding_arrivals_agree_and_do_collide() {
    // Quantized and constant schedules funnel many arrivals onto shared
    // instants — shared buckets and batched runs in the wheel. Outcomes
    // must not move by a bit, on either queue, from the one-letter-per-
    // event reference recorded in `COLLIDING_PINNED`.
    let p = Synchronized::new(count_neighbors(3));
    let mut drift = Vec::new();
    for ((name, g), (pinned_name, pinned)) in [
        ("star", generators::star(40)),
        ("grid", generators::grid(8, 9)),
        ("gnp", generators::gnp(80, 0.08, 5)),
    ]
    .into_iter()
    .zip(COLLIDING_PINNED)
    {
        assert_eq!(name, pinned_name);
        let constant = Constant {
            step: 1.0,
            delay: 0.5,
        };
        let advs: [(String, &dyn Adversary); 3] = [
            (
                "q0.25".into(),
                &Quantized {
                    seed: 31,
                    quantum: 0.25,
                },
            ),
            (
                "q1".into(),
                &Quantized {
                    seed: 31,
                    quantum: 1.0,
                },
            ),
            ("constant".into(), &constant),
        ];
        for ((label, adv), want) in advs.into_iter().zip(pinned) {
            let heap = run_async(&p, &g, adv, &heap_cfg(6)).unwrap();
            let wheel = run_async(&p, &g, adv, &wheel_cfg(6)).unwrap();
            assert_same(&format!("{name}/{label}"), &wheel, &heap);
            // Sanity: the collision workload actually delivers in bulk.
            assert!(wheel.deliveries > 0, "{name}/{label}");
            let got = async_fingerprint(&heap);
            if got != want {
                drift.push(format!("{name}/{label}: {got:#018x} != {want:#018x}"));
            }
        }
    }
    assert!(
        drift.is_empty(),
        "colliding cells drifted:\n{}",
        drift.join("\n")
    );
}

/// The result of one event-limit cell: the run's
/// `async_run_fingerprint`, or the unfinished count of the
/// `EventLimit` it hit (whose limit is the cell's budget).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Budgeted {
    Done(u64),
    Limit(usize),
}

/// The budgets of the event-limit sweep. Those from 800 to 1350 land
/// inside the same-instant batches around t = 19.5, where the churn
/// plan's crash and edge delete drop letters and the duplicates pile up.
const BUDGETS: [u64; 17] = [
    1, 7, 40, 41, 97, 150, 400, 800, 850, 880, 1000, 1200, 1300, 1350, 2000, 4000, 20_000,
];

/// Every event-limit cell, recorded from the binary-heap loop while it
/// still pushed one event per letter, per (graph, plan), in
/// [`BUDGETS`] order.
const EVENT_LIMIT_PINNED: [(&str, &str, [Budgeted; 17]); 6] = [
    (
        "star",
        "none",
        [
            Budgeted::Limit(40),
            Budgeted::Limit(40),
            Budgeted::Limit(40),
            Budgeted::Limit(40),
            Budgeted::Limit(40),
            Budgeted::Limit(40),
            Budgeted::Limit(40),
            Budgeted::Limit(40),
            Budgeted::Limit(40),
            Budgeted::Limit(40),
            Budgeted::Limit(40),
            Budgeted::Limit(40),
            Budgeted::Limit(40),
            Budgeted::Limit(40),
            Budgeted::Done(0x74af5deea82a3202),
            Budgeted::Done(0x74af5deea82a3202),
            Budgeted::Done(0x74af5deea82a3202),
        ],
    ),
    (
        "star",
        "churn",
        [
            Budgeted::Limit(40),
            Budgeted::Limit(40),
            Budgeted::Limit(40),
            Budgeted::Limit(40),
            Budgeted::Limit(40),
            Budgeted::Limit(40),
            Budgeted::Limit(40),
            Budgeted::Limit(39),
            Budgeted::Limit(39),
            Budgeted::Limit(39),
            Budgeted::Limit(40),
            Budgeted::Limit(40),
            Budgeted::Limit(40),
            Budgeted::Limit(40),
            Budgeted::Limit(2),
            Budgeted::Done(0xd478b6adf6bf96d6),
            Budgeted::Done(0xd478b6adf6bf96d6),
        ],
    ),
    (
        "star",
        "dup",
        [
            Budgeted::Limit(40),
            Budgeted::Limit(40),
            Budgeted::Limit(40),
            Budgeted::Limit(40),
            Budgeted::Limit(40),
            Budgeted::Limit(40),
            Budgeted::Limit(40),
            Budgeted::Limit(40),
            Budgeted::Limit(40),
            Budgeted::Limit(40),
            Budgeted::Limit(40),
            Budgeted::Limit(40),
            Budgeted::Limit(40),
            Budgeted::Limit(40),
            Budgeted::Done(0xa3a268d513033459),
            Budgeted::Done(0xa3a268d513033459),
            Budgeted::Done(0xa3a268d513033459),
        ],
    ),
    (
        "grid",
        "none",
        [
            Budgeted::Limit(56),
            Budgeted::Limit(56),
            Budgeted::Limit(56),
            Budgeted::Limit(56),
            Budgeted::Limit(56),
            Budgeted::Limit(56),
            Budgeted::Limit(56),
            Budgeted::Limit(56),
            Budgeted::Limit(56),
            Budgeted::Limit(56),
            Budgeted::Limit(56),
            Budgeted::Limit(56),
            Budgeted::Limit(56),
            Budgeted::Limit(56),
            Budgeted::Limit(56),
            Budgeted::Done(0x7e13da0318532503),
            Budgeted::Done(0x7e13da0318532503),
        ],
    ),
    (
        "grid",
        "churn",
        [
            Budgeted::Limit(56),
            Budgeted::Limit(56),
            Budgeted::Limit(56),
            Budgeted::Limit(56),
            Budgeted::Limit(56),
            Budgeted::Limit(56),
            Budgeted::Limit(56),
            Budgeted::Limit(56),
            Budgeted::Limit(56),
            Budgeted::Limit(56),
            Budgeted::Limit(56),
            Budgeted::Limit(55),
            Budgeted::Limit(55),
            Budgeted::Limit(55),
            Budgeted::Limit(56),
            Budgeted::Limit(1),
            Budgeted::Done(0x9560412f6ac11371),
        ],
    ),
    (
        "grid",
        "dup",
        [
            Budgeted::Limit(56),
            Budgeted::Limit(56),
            Budgeted::Limit(56),
            Budgeted::Limit(56),
            Budgeted::Limit(56),
            Budgeted::Limit(56),
            Budgeted::Limit(56),
            Budgeted::Limit(56),
            Budgeted::Limit(56),
            Budgeted::Limit(56),
            Budgeted::Limit(56),
            Budgeted::Limit(56),
            Budgeted::Limit(56),
            Budgeted::Limit(56),
            Budgeted::Limit(56),
            Budgeted::Done(0xc1e0ea3453e93c8c),
            Budgeted::Done(0xc1e0ea3453e93c8c),
        ],
    ),
];

#[test]
fn event_limit_is_identical_under_the_wheel() {
    // Sweep budgets so the limit lands on step events, single deliveries,
    // and mid-batch under the wheel; the reported error (budget and
    // unfinished count) must equal the heap path's exactly. The churn
    // and duplicate plans also land it on stale, tombstoned and
    // duplicated deliveries inside a same-instant batch, which the wheel
    // counts one by one as it gathers the batch. Both queues must
    // reproduce the one-letter-per-event reference in
    // `EVENT_LIMIT_PINNED`.
    let p = Synchronized::new(count_neighbors(2));
    let star = generators::star(40); // center broadcast = 40-wide batch
    let grid = generators::grid(7, 8);
    let adv = Constant {
        step: 1.0,
        delay: 0.5,
    };
    // Under the plans a delay longer than a step keeps letters in flight
    // across every boundary, so the crash leaves stale letters behind.
    let long = Constant {
        step: 1.0,
        delay: 1.5,
    };
    let mut drift = Vec::new();
    for ((gname, g), (plan, adv)) in [("star", &star), ("grid", &grid)]
        .into_iter()
        .flat_map(|g| {
            let plans: [(&str, &dyn Adversary); 3] =
                [("none", &adv), ("churn", &long), ("dup", &long)];
            plans.map(|plan| (g, plan))
        })
    {
        let edge = (0, *g.neighbors(0).last().unwrap());
        // The first letters of this protocol land at t = 18.5; the
        // boundaries fall among them.
        let churn = ChurnPlan::new()
            .at(19, TopologyEvent::Crash(1))
            .at(20, TopologyEvent::EdgeDelete(edge.0, edge.1))
            .at(22, TopologyEvent::Restart(1));
        let dup = FaultPlan::new(7).duplicate_rate(0.3, 2).on_edge(
            edge.0,
            edge.1,
            LinkFault::Duplicate(1),
            0.5,
        );
        let pinned = EVENT_LIMIT_PINNED
            .iter()
            .find(|&&(pg, pp, _)| (pg, pp) == (gname, plan))
            .expect("every cell is pinned")
            .2;
        for (budget, want) in BUDGETS.into_iter().zip(pinned) {
            let ctx = format!("{gname}/{plan}/budget {budget}");
            let run = |scheduler| {
                let mut sim = Simulation::asynchronous(&p, g, adv)
                    .seed(2)
                    .budget(budget)
                    .backend(Backend::Async(
                        AsyncOptions::new(adv).with_scheduler(scheduler),
                    ));
                match plan {
                    "churn" => sim = sim.with_churn(&churn),
                    "dup" => sim = sim.with_faults(&dup),
                    _ => {}
                }
                sim.run().map(|o| {
                    let summaries = (o.churn().cloned(), o.faults().copied());
                    (o.into_async_outcome().expect("async backend"), summaries)
                })
            };
            let heap = run(SchedulerKind::BinaryHeap);
            let wheel = run(SchedulerKind::CalendarWheel);
            let got = match (wheel, heap) {
                (Ok((w, ws)), Ok((h, hs))) => {
                    assert_same(&ctx, &w, &h);
                    assert_eq!(ws, hs, "{ctx}: summaries");
                    Budgeted::Done(async_run_fingerprint(&h, hs.0.as_ref(), hs.1.as_ref()))
                }
                (Err(w), Err(h)) => {
                    assert_eq!(w, h, "{ctx}");
                    match w {
                        ExecError::EventLimit { limit, unfinished } if limit == budget => {
                            Budgeted::Limit(unfinished)
                        }
                        other => panic!("{ctx}: unexpected error {other:?}"),
                    }
                }
                (w, h) => panic!("{ctx}: outcome kinds diverge: {w:?} vs {h:?}"),
            };
            if got != want {
                drift.push(format!("{ctx}: {got:?} != {want:?}"));
            }
        }
    }
    assert!(
        drift.is_empty(),
        "event-limit cells drifted:\n{}",
        drift.join("\n")
    );
}

/// Pinned end-to-end async snapshots, recorded from the binary-heap path
/// when the wheel scheduler landed. Both schedulers must reproduce them
/// for every future engine change — they pin the "wheel is bit-identical
/// to the heap" acceptance criterion (the case instances live in
/// `stoneage-testkit`; the hashes stay here). If a deliberate
/// semantics-affecting change ever invalidates them, re-derive with
/// `cargo run -p stoneage-bench --bin fingerprint` and justify it in the
/// commit message.
const PINNED_ASYNC: [(&str, u64, u64); 3] = [
    ("gnp-async", 4242, 0x60e34de0e0452e83),
    ("tree-async", 77, 0x9029fac0b9986de3),
    ("grid-async", 9000, 0x03f42295c27060d3),
];

#[test]
fn pinned_async_fingerprints_on_both_schedulers() {
    // The hash constants pin the same (name, seed) pairs the shared case
    // table enumerates — a drifted table would fail here immediately.
    assert_eq!(
        ASYNC_PINNED_CASES.map(|(name, seed)| (name, seed)),
        PINNED_ASYNC.map(|(name, seed, _)| (name, seed)),
    );
    let mut drift = Vec::new();
    for (name, seed, want) in PINNED_ASYNC {
        for scheduler in [SchedulerKind::BinaryHeap, SchedulerKind::CalendarWheel] {
            let got = async_fingerprint(&run_async_pinned(name, seed, scheduler));
            if got != want {
                drift.push(format!(
                    "(\"{name}\", {seed}, {got:#018x}) != {want:#018x} [{scheduler:?}]"
                ));
            }
        }
    }
    assert!(
        drift.is_empty(),
        "pinned async fingerprints changed:\n{}",
        drift.join("\n")
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Differential property: on arbitrary gnp instances, adversaries,
    /// and seeds, the wheel and heap schedulers agree bit-exactly.
    #[test]
    fn wheel_matches_heap_on_random_instances(
        n in 1usize..50,
        pr in 0.0f64..0.35,
        gseed in 0u64..300,
        seed in 0u64..300,
        mean in 0.05f64..2.0,
    ) {
        let g = generators::gnp(n, pr, gseed);
        let p = Synchronized::new(random_beeper(3, 2));
        let adv = stoneage_sim::adversary::Exponential { seed, mean };
        let heap = run_async(&p, &g, &adv, &heap_cfg(seed)).unwrap();
        let wheel = run_async(&p, &g, &adv, &wheel_cfg(seed)).unwrap();
        prop_assert_eq!(wheel.outputs, heap.outputs);
        prop_assert_eq!(wheel.completion_time.to_bits(), heap.completion_time.to_bits());
        prop_assert_eq!(wheel.total_steps, heap.total_steps);
        prop_assert_eq!(wheel.deliveries, heap.deliveries);
        prop_assert_eq!(wheel.lost_overwrites, heap.lost_overwrites);
    }
}
