//! Regression tests for the synchronizer's **retained-letter** semantics.
//!
//! Synchronization property (S2) lets a port keep the last non-ε letter
//! indefinitely: a node that beeped once and went silent must remain
//! visible to a neighbor that only looks many rounds later. An early
//! version of `Synchronized` transmitted literal per-round emissions
//! inside `M_v(t)` — which made silent neighbors invisible and broke the
//! MIS pipeline. These tests pin the fixed behavior with a protocol whose
//! correctness *depends* on retention.

use stoneage_core::{
    Alphabet, AsMulti, Letter, Synchronized, TableProtocol, TableProtocolBuilder, Transitions,
};
use stoneage_graph::generators;
use stoneage_sim::adversary::{standard_panel, Lockstep};
use stoneage_sim::Simulation;

/// Every node beeps exactly once (at step 1) and then stays silent; after
/// `delay` further silent steps it outputs `10 + f₁(#BEEP)`. Only port
/// retention can make the count 1: by observation time, the beeps are
/// `delay` rounds stale.
fn beep_then_look(delay: usize) -> TableProtocol {
    let alphabet = Alphabet::new(["BEEP", "QUIET"]);
    let beep = Letter(0);
    let quiet = Letter(1);
    let mut b = TableProtocolBuilder::new("beep-then-look", alphabet, 1, quiet);
    let start = b.add_state("start", beep);
    b.add_input_state(start);
    let mut prev = start;
    for i in 0..delay {
        let w = b.add_state(format!("wait{i}"), beep);
        let emission = if prev == start { Some(beep) } else { None };
        b.set_transition_all(prev, Transitions::det(w, emission));
        prev = w;
    }
    let none = b.add_output_state("saw_none", beep, 10);
    let some = b.add_output_state("saw_some", beep, 11);
    b.set_transition(prev, 0, Transitions::det(none, None));
    b.set_transition(prev, 1, Transitions::det(some, None));
    b.set_transition_all(none, Transitions::det(none, None));
    b.set_transition_all(some, Transitions::det(some, None));
    b.build().unwrap()
}

#[test]
fn sync_engine_retains_stale_letters() {
    let g = generators::cycle(8);
    let p = AsMulti(beep_then_look(6));
    let out = Simulation::sync(&p, &g).run().unwrap();
    assert!(out.outputs.iter().all(|&o| o == 11), "{:?}", out.outputs);
}

#[test]
fn synchronizer_preserves_retention_under_lockstep() {
    let g = generators::cycle(8);
    let p = Synchronized::new(beep_then_look(6));
    let out = Simulation::asynchronous(&p, &g, &Lockstep)
        .seed(1)
        .run()
        .unwrap();
    assert!(
        out.outputs.iter().all(|&o| o == 11),
        "a 6-round-stale beep must still be counted: {:?}",
        out.outputs
    );
}

#[test]
fn synchronizer_preserves_retention_under_every_adversary() {
    let g = generators::path(6);
    let p = Synchronized::new(beep_then_look(9));
    for adv in standard_panel(23) {
        let out = Simulation::asynchronous(&p, &g, &adv)
            .seed(2)
            .run()
            .unwrap();
        assert!(
            out.outputs.iter().all(|&o| o == 11),
            "adversary {}: {:?}",
            adv.name(),
            out.outputs
        );
    }
}

#[test]
fn isolated_nodes_see_nothing_even_with_retention() {
    let g = stoneage_graph::Graph::empty(3);
    let p = Synchronized::new(beep_then_look(4));
    let out = Simulation::asynchronous(&p, &g, &Lockstep).run().unwrap();
    assert!(out.outputs.iter().all(|&o| o == 10));
}
