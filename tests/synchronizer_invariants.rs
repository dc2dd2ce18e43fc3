//! Empirical validation of the synchronizer's internal invariants —
//! Lemma 3.2 / synchronization property (S1) — plus the asynchronous
//! engine's per-edge FIFO guarantee.

use stoneage::core::sync::SyncState;
use stoneage::core::{Protocol, SingleLetter, Synchronized};
use stoneage::graph::{generators, Graph, NodeId};
use stoneage::protocols::MisProtocol;
use stoneage::sim::adversary::{Exponential, SlowNodes, UniformRandom};
use stoneage::sim::{Adversary, Observer, Simulation};

/// Tracks, per node, the number of *completed simulation phases* (a phase
/// completes exactly when the node's state returns to `Pause { check: 0 }`
/// for the next round), and asserts property (S1): at every instant, the
/// phase counts of adjacent nodes differ by at most 1.
struct SkewWatch<'g, S> {
    graph: &'g Graph,
    phases: Vec<u64>,
    in_pause_zero: Vec<bool>,
    max_skew: u64,
    _marker: std::marker::PhantomData<S>,
}

impl<'g, S> SkewWatch<'g, S> {
    fn new(graph: &'g Graph) -> Self {
        SkewWatch {
            graph,
            phases: vec![0; graph.node_count()],
            in_pause_zero: vec![true; graph.node_count()],
            max_skew: 0,
            _marker: std::marker::PhantomData,
        }
    }
}

impl<S: Clone + Eq + std::fmt::Debug> Observer<SyncState<S>> for SkewWatch<'_, S> {
    fn on_step(&mut self, _time: f64, v: NodeId, _t: u64, state: &SyncState<S>) {
        let vi = v as usize;
        let at_phase_start = matches!(state, SyncState::Pause { check: 0, .. });
        // Count a completed phase on the transition *into* Pause{check:0}
        // (which happens exactly once per simulated round, at the final
        // Phi3 step).
        if at_phase_start && !self.in_pause_zero[vi] {
            self.phases[vi] += 1;
            for &u in self.graph.neighbors(v) {
                let diff = self.phases[vi].abs_diff(self.phases[u as usize]);
                self.max_skew = self.max_skew.max(diff);
                assert!(
                    diff <= 1,
                    "(S1) violated: node {v} at phase {} vs neighbor {u} at {}",
                    self.phases[vi],
                    self.phases[u as usize]
                );
            }
        }
        self.in_pause_zero[vi] = at_phase_start;
    }
}

fn check_s1<A: Adversary>(g: &Graph, adv: &A, seed: u64) {
    let pipeline = Synchronized::new(SingleLetter::new(MisProtocol::new()));
    let inputs = vec![0usize; g.node_count()];
    let mut watch = SkewWatch::new(g);
    Simulation::asynchronous(&pipeline, g, adv)
        .seed(seed)
        .inputs(&inputs)
        .observe(&mut watch)
        .run()
        .expect("pipeline terminates");
    // The watch must actually have seen progress.
    assert!(watch.phases.iter().any(|&p| p > 2), "no phases observed");
}

#[test]
fn property_s1_holds_under_uniform_adversary() {
    let g = generators::gnp(16, 0.2, 4);
    check_s1(&g, &UniformRandom { seed: 3 }, 1);
}

#[test]
fn property_s1_holds_under_heavy_tail_adversary() {
    let g = generators::cycle(12);
    check_s1(&g, &Exponential { seed: 5, mean: 0.5 }, 2);
}

#[test]
fn property_s1_holds_with_stragglers() {
    // A 20× straggler forces maximal skew pressure; (S1) must still hold.
    let g = generators::path(10);
    check_s1(
        &g,
        &SlowNodes {
            seed: 7,
            fraction: 0.3,
            factor: 20.0,
        },
        3,
    );
}

/// FIFO: an adversary that gives *later* transmissions *shorter* delays
/// must not let them overtake earlier ones on the same edge.
#[test]
fn fifo_clamp_prevents_overtaking() {
    use stoneage::core::{Alphabet, Letter, TableProtocolBuilder, Transitions};

    // Sender emits A, B, C on its first three steps, then sleeps forever
    // in an output state; receiver waits long, then records f₁(#C): with
    // FIFO, C (sent last) is the final port content even though the
    // adversary gave it the shortest delay.
    let alphabet = Alphabet::new(["A", "B", "C", "Z"]);
    let (a, bb, c, z) = (Letter(0), Letter(1), Letter(2), Letter(3));
    let mut b = TableProtocolBuilder::new("fifo-probe", alphabet, 1, z);
    // Sender chain.
    let s1 = b.add_state("s1", c);
    let s2 = b.add_state("s2", c);
    let s3 = b.add_state("s3", c);
    let sdone = b.add_output_state("sdone", c, 7);
    b.set_transition_all(s1, Transitions::det(s2, Some(a)));
    b.set_transition_all(s2, Transitions::det(s3, Some(bb)));
    b.set_transition_all(s3, Transitions::det(sdone, Some(c)));
    b.set_transition_all(sdone, Transitions::det(sdone, None));
    // Receiver: wait several steps, then output 100 + f₁(#C).
    let mut waits = Vec::new();
    for i in 0..8 {
        waits.push(b.add_state(format!("w{i}"), c));
    }
    let r0 = b.add_output_state("saw_nothing", c, 100);
    let r1 = b.add_output_state("saw_c", c, 101);
    for i in 0..7 {
        b.set_transition_all(waits[i], Transitions::det(waits[i + 1], None));
    }
    b.set_transition(waits[7], 0, Transitions::det(r0, None));
    b.set_transition(waits[7], 1, Transitions::det(r1, None));
    b.set_transition_all(r0, Transitions::det(r0, None));
    b.set_transition_all(r1, Transitions::det(r1, None));
    b.add_input_state(s1); // input 0 = sender
    b.add_input_state(waits[0]); // input 1 = receiver
    let protocol = b.build().unwrap();

    /// Delays shrink drastically with the step index: without the FIFO
    /// clamp, A (delay 9) would arrive after C (delay 0.01) and win the
    /// port.
    struct ShrinkingDelays;
    impl Adversary for ShrinkingDelays {
        fn step_length(&self, v: NodeId, _t: u64) -> f64 {
            if v == 0 {
                0.1 // fast sender
            } else {
                2.0 // slow receiver
            }
        }
        fn delay(&self, _v: NodeId, t: u64, _u: NodeId) -> f64 {
            match t {
                1 => 9.0,
                2 => 1.0,
                _ => 0.01,
            }
        }
        fn name(&self) -> &'static str {
            "shrinking"
        }
    }

    let g = generators::path(2);
    let out = Simulation::asynchronous(&protocol, &g, &ShrinkingDelays)
        .inputs(&[0, 1])
        .run()
        .unwrap();
    // Receiver (node 1) must have seen C as the final port value.
    assert_eq!(out.outputs[1], 101, "FIFO order was violated");
}

/// The synchronizer's state-space accounting stays constant as graphs
/// grow (requirement (M4) for the compiled protocol).
#[test]
fn compiled_protocol_size_is_network_independent() {
    let p = Synchronized::new(SingleLetter::new(MisProtocol::new()));
    let alpha = p.alphabet_size();
    let per_state = p.states_per_inner_state();
    // Nothing about these depends on any graph; spot-check the values.
    assert_eq!(alpha, 3 * 8 * 8);
    assert!(per_state > 0);
    assert_eq!(Protocol::alphabet(&p).len(), alpha);
}
