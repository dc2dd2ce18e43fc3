//! Property-based tests for the protocol combinators: letter encoding
//! round-trips, pause/scan structure, and size accounting under randomly
//! sized inner protocols, and `SingleLetter`'s gather capacity.

use proptest::prelude::*;

use stoneage_core::sync::{Scan, SyncState};
use stoneage_core::{
    fb, Alphabet, Fsm, Letter, MultiFsm, ObsVec, Protocol, SingleLetter, Synchronized,
    TableProtocol, TableProtocolBuilder, Transitions,
};

/// A degenerate but well-formed single-letter protocol with `sigma`
/// letters, `b = bound`, that spins in its initial state.
fn spinner(sigma: usize, bound: u8) -> TableProtocol {
    let alphabet = Alphabet::anonymous(sigma);
    let mut b = TableProtocolBuilder::new("spinner", alphabet, bound, Letter(0));
    let s = b.add_state("s", Letter(0));
    b.add_input_state(s);
    b.set_transition_all(s, Transitions::det(s, None));
    b.build().unwrap()
}

proptest! {
    /// Compiled-message encoding is a bijection over
    /// (Σ∪{ε}) × (Σ∪{ε}) × {0,1,2} for every alphabet size.
    #[test]
    fn sync_message_codec_round_trips(sigma in 1usize..12, bound in 1u8..4) {
        let p = Synchronized::new(spinner(sigma, bound));
        let mut seen = std::collections::HashSet::new();
        let emissions: Vec<Option<Letter>> = (0..sigma as u16)
            .map(|i| Some(Letter(i)))
            .chain(std::iter::once(None))
            .collect();
        for &prev in &emissions {
            for &cur in &emissions {
                for trit in 0..3u8 {
                    let l = p.encode_message(prev, cur, trit);
                    prop_assert!(p.alphabet().contains(l));
                    prop_assert!(seen.insert(l), "duplicate letter {l:?}");
                    prop_assert_eq!(p.decode_message(l), (prev, cur, trit));
                }
            }
        }
        prop_assert_eq!(seen.len(), p.alphabet_size());
        prop_assert_eq!(p.alphabet_size(), 3 * (sigma + 1) * (sigma + 1));
    }

    /// The pausing feature walks exactly (|Σ|+1)² zero-observations before
    /// entering the simulating feature, regardless of alphabet size.
    #[test]
    fn pause_walk_length(sigma in 1usize..8, bound in 1u8..4) {
        let p = Synchronized::new(spinner(sigma, bound));
        let mut q = p.initial_state(0);
        let mut steps = 0usize;
        while q.is_pausing() {
            let t = p.delta(&q, fb(0, bound));
            prop_assert_eq!(t.choices.len(), 1);
            prop_assert_eq!(t.choices[0].1, None, "pausing never transmits");
            q = t.choices[0].0.clone();
            steps += 1;
            prop_assert!(steps <= (sigma + 1) * (sigma + 1) + 1);
        }
        prop_assert_eq!(steps, (sigma + 1) * (sigma + 1));
        let at_sim_start = matches!(
            q,
            SyncState::Sim { scan: Scan::Phi1, idx: 0, .. }
        );
        prop_assert!(at_sim_start);
    }

    /// A full quiet phase (all observations zero) takes exactly
    /// (|Σ|+1)² + 3(|Σ|+1) steps and ends with a compiled transmission.
    #[test]
    fn quiet_phase_length(sigma in 1usize..8, bound in 1u8..4) {
        let p = Synchronized::new(spinner(sigma, bound));
        let mut q = p.initial_state(0);
        let mut steps = 0usize;
        let emitted = loop {
            let t = p.delta(&q, fb(0, bound));
            q = t.choices[0].0.clone();
            steps += 1;
            if let Some(l) = t.choices[0].1 {
                break l;
            }
            prop_assert!(steps < 10_000);
        };
        prop_assert_eq!(steps, (sigma + 1) * (sigma + 1) + 3 * (sigma + 1));
        // The spinner emits ε, so the message is (σ₀, σ₀, 1): the retained
        // letter is carried through silent rounds.
        prop_assert_eq!(
            p.decode_message(emitted),
            (Some(Letter(0)), Some(Letter(0)), 1)
        );
        // And the node is pausing for round 2.
        let pausing_round_two = matches!(q, SyncState::Pause { trit: 2, check: 0, .. });
        prop_assert!(pausing_round_two);
    }

    /// SingleLetter gathers letters in index order, queries every letter
    /// exactly once per simulated round, and hands the wrapped protocol
    /// every gathered count intact — across the whole `(|Σ|, b)` range
    /// its packed gather state accepts.
    #[test]
    fn single_letter_gather_order(bound in 1u8..=255, pick in 0usize..1 << 20) {
        let sigma = 1 + pick % max_sigma(bound);
        prop_assert_eq!(gather_round(sigma, bound), expected_obs(sigma, bound));
    }
}

/// A multi-letter protocol that records the observation vector of its
/// first round and then idles.
#[derive(Clone, Debug)]
struct Recorder(Alphabet, u8);

impl Protocol for Recorder {
    type State = Option<Vec<u8>>;
    fn alphabet(&self) -> &Alphabet {
        &self.0
    }
    fn bound(&self) -> u8 {
        self.1
    }
    fn initial_letter(&self) -> Letter {
        Letter(0)
    }
    fn initial_state(&self, _input: usize) -> Option<Vec<u8>> {
        None
    }
    fn output(&self, q: &Option<Vec<u8>>) -> Option<u64> {
        q.as_ref().map(|obs| obs.len() as u64)
    }
}

impl MultiFsm for Recorder {
    fn delta(&self, q: &Option<Vec<u8>>, obs: &ObsVec) -> Transitions<Option<Vec<u8>>> {
        let seen = q
            .clone()
            .unwrap_or_else(|| obs.as_slice().iter().map(|c| c.raw()).collect());
        Transitions::det(Some(seen), None)
    }
}

/// The largest alphabet `SingleLetter` accepts at bound `b`: the `|Σ| − 1`
/// counts a gather state holds take `⌈log₂(b+1)⌉` of its 128 bits each.
fn max_sigma(b: u8) -> usize {
    let width = (b as f64 + 1.0).log2().ceil() as usize;
    128 / width + 1
}

/// The exact count fed for letter `k`: it cycles through `0..=b + 1`, so
/// every field sees zero, `b` and a count that `f_b` truncates.
fn fed(k: usize, b: u8) -> usize {
    (7 * k + 3) % (b as usize + 2)
}

fn expected_obs(sigma: usize, b: u8) -> Vec<u8> {
    (0..sigma)
        .map(|k| fed(k, b).min(b as usize) as u8)
        .collect()
}

/// Runs one simulated round of `Recorder` through `SingleLetter`,
/// feeding [`fed`]`(k)` at subround `k`; returns what the wrapped
/// protocol observed.
fn gather_round(sigma: usize, b: u8) -> Vec<u8> {
    let p = SingleLetter::new(Recorder(Alphabet::anonymous(sigma), b));
    let mut q = p.initial_state(0);
    for k in 0..sigma {
        assert_eq!(p.query(&q), Letter(k as u16), "subround {k}");
        assert_eq!(p.output(&q), None, "subround {k}");
        let t = p.delta(&q, fb(fed(k, b), b));
        assert_eq!(t.choices.len(), 1);
        assert_eq!(t.choices[0].1, None, "the recorder never transmits");
        q = t.choices[0].0.clone();
    }
    // The round is over: the gather state is empty again.
    assert_eq!(p.query(&q), Letter(0));
    assert_eq!((q.subround, q.counts), (0, 0));
    q.inner.expect("the wrapped round ran")
}

#[test]
fn single_letter_gathers_the_largest_alphabet_at_every_bound() {
    for b in 1..=255u8 {
        let sigma = max_sigma(b);
        assert_eq!(gather_round(sigma, b), expected_obs(sigma, b), "b = {b}");
    }
    // The limits `SingleLetter::new` documents. The paper's MIS
    // (|Σ| = 7, b = 1) and tree coloring (|Σ| = 13, b = 3) sit well
    // inside them.
    assert_eq!((max_sigma(1), max_sigma(3), max_sigma(255)), (129, 65, 17));
}

#[test]
#[should_panic(expected = "more than the 128 bits")]
fn single_letter_rejects_one_letter_past_the_limit_at_b_255() {
    SingleLetter::new(Recorder(Alphabet::anonymous(max_sigma(255) + 1), 255));
}

#[test]
#[should_panic(expected = "more than the 128 bits")]
fn single_letter_rejects_one_letter_past_the_limit_at_b_1() {
    SingleLetter::new(Recorder(Alphabet::anonymous(max_sigma(1) + 1), 1));
}
