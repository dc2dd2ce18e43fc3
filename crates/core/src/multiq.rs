//! Elimination of **multiple-letter queries** (Theorem 3.4): compiling a
//! [`MultiFsm`] down to a single-letter-query [`Fsm`] by subdividing each
//! round into `|Σ|` subrounds, one per letter.
//!
//! During the subrounds the node accumulates `f_b(#σ)` for each `σ ∈ Σ` into
//! its state; at the last subround it applies the wrapped protocol's
//! transition on the completed observation vector and performs the wrapped
//! protocol's emission. All earlier subrounds transmit `ε`, so ports are
//! only overwritten at (simulated) round boundaries — exactly the paper's
//! timing.
//!
//! The compiled protocol advances its subround index *unconditionally*, so
//! under a lockstep synchronous execution (or under the exact-count
//! semantics provided by [`crate::Synchronized`] — see that module's
//! documentation) all nodes stay on the same subround schedule and every
//! gather observes the counts as of the previous simulated round.
//!
//! # A gather state of constant size
//!
//! Theorem 3.4 bounds the compiled state set by `|Q| · Σ_{k<|Σ|} (b+1)^k`:
//! a state is the wrapped state plus the `k < |Σ|` counts gathered so
//! far, each a value in `0..=b`. [`GatherState`] stores exactly that, at a
//! constant size and with no heap storage: the counts are packed
//! `⌈log₂(b+1)⌉` bits each into one `u128`, beside the subround index
//! `k`. Copying a gather state — which the synchronizer does on every
//! compiled step — is therefore a copy of the wrapped state, one `u128`
//! and one byte, and never allocates.
//!
//! The last subround's count goes straight into the wrapped transition,
//! so a state holds at most `|Σ| − 1` counts, and the packing admits a
//! wrapped protocol exactly when `(|Σ| − 1) · ⌈log₂(b+1)⌉ ≤ 128`
//! ([`SingleLetter::new`] asserts it): up to 129 letters at `b = 1`, 65
//! at `b = 3` and 17 at `b = 255`. The paper's MIS (`|Σ| = 7`, `b = 1`)
//! and tree coloring (`|Σ| = 13`, `b = 3`) use 6 and 24 of the 128 bits.

use crate::{Alphabet, BoundedCount, Fsm, Letter, MultiFsm, ObsVec, Transitions};

/// Bits a [`GatherState`] packs its counts into.
const GATHER_BITS: usize = u128::BITS as usize;

/// A state of the compiled protocol: the wrapped state plus the truncated
/// counts gathered so far this round. Constant-size, with no heap
/// storage (see the module docs).
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct GatherState<S> {
    /// The wrapped protocol's state for the round being simulated.
    pub inner: S,
    /// Truncated counts for letters `0..subround`: letter `k`'s count in
    /// bits `k·w .. (k+1)·w`, with `w = ⌈log₂(b+1)⌉`; every higher bit is
    /// zero.
    pub counts: u128,
    /// The subround index: the number of letters gathered so far, i.e.
    /// the next letter to query.
    pub subround: u8,
}

/// The multiple-letter-query eliminator of Theorem 3.4, as an [`Fsm`]
/// combinator over any [`MultiFsm`].
///
/// State count multiplies by at most `Σ_{k<|Σ|} (b+1)^k` (constant in the
/// network); round count multiplies by exactly `|Σ|`.
#[derive(Clone, Debug)]
pub struct SingleLetter<P: MultiFsm> {
    inner: P,
    /// Bits per packed count: `⌈log₂(b+1)⌉`, the bit length of `b`.
    width: u32,
}

impl<P: MultiFsm> SingleLetter<P> {
    /// Compiles `inner` down to single-letter queries.
    ///
    /// # Panics
    /// Panics unless the `|Σ| − 1` counts a gather state holds fit its
    /// 128 bits at `⌈log₂(b+1)⌉` bits each: `(|Σ| − 1) · ⌈log₂(b+1)⌉ ≤
    /// 128`. That admits up to 129 letters at `b = 1`, 65 at `b = 3` and
    /// 17 at `b = 255`.
    pub fn new(inner: P) -> Self {
        let sigma = inner.alphabet().len();
        let b = inner.bound();
        let width = u8::BITS - b.leading_zeros();
        assert!(
            sigma.saturating_sub(1) * width as usize <= GATHER_BITS,
            "SingleLetter gathers {} counts of {width} bits (|Σ| = {sigma}, b = {b}), \
             more than the {GATHER_BITS} bits of its gather state",
            sigma.saturating_sub(1),
        );
        SingleLetter { inner, width }
    }

    /// The wrapped protocol.
    pub fn inner(&self) -> &P {
        &self.inner
    }

    /// The subround multiplier: each simulated round takes exactly `|Σ|`
    /// compiled rounds.
    pub fn rounds_per_round(&self) -> usize {
        self.inner.alphabet().len()
    }

    /// The gathered count of letter `k < q.subround`.
    fn count(&self, q: &GatherState<P::State>, k: usize) -> u8 {
        let mask = (1u128 << self.width) - 1;
        ((q.counts >> (k as u32 * self.width)) & mask) as u8
    }
}

impl<P: MultiFsm> crate::Protocol for SingleLetter<P> {
    type State = GatherState<P::State>;

    fn alphabet(&self) -> &Alphabet {
        self.inner.alphabet()
    }

    fn bound(&self) -> u8 {
        self.inner.bound()
    }

    fn initial_letter(&self) -> Letter {
        self.inner.initial_letter()
    }

    fn initial_state(&self, input: usize) -> Self::State {
        GatherState {
            inner: self.inner.initial_state(input),
            counts: 0,
            subround: 0,
        }
    }

    fn output(&self, q: &Self::State) -> Option<u64> {
        self.inner.output(&q.inner)
    }
}

impl<P: MultiFsm> Fsm for SingleLetter<P> {
    fn query(&self, q: &Self::State) -> Letter {
        debug_assert!((q.subround as usize) < self.inner.alphabet().len());
        Letter(q.subround as u16)
    }

    fn delta(&self, q: &Self::State, observed: BoundedCount) -> Transitions<Self::State> {
        let k = q.subround as usize;
        if k + 1 < self.inner.alphabet().len() {
            // More letters to gather; stay silent. `new` checked that
            // field `k < |Σ| − 1` lies inside the 128 bits.
            debug_assert!(observed.raw() <= self.inner.bound());
            return Transitions::det(
                GatherState {
                    inner: q.inner.clone(),
                    counts: q.counts | ((observed.raw() as u128) << (k as u32 * self.width)),
                    subround: q.subround + 1,
                },
                None,
            );
        }
        // Observation vector complete: simulate the wrapped round.
        let b = self.inner.bound();
        let obs = ObsVec::new(
            (0..k)
                .map(|i| BoundedCount::from_raw(self.count(q, i), b))
                .chain([observed])
                .collect(),
        );
        self.inner
            .delta(&q.inner, &obs)
            .map_states(|inner| GatherState {
                inner,
                counts: 0,
                subround: 0,
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fb;
    use crate::Protocol as _;

    /// A toy multi-letter protocol over Σ = {x, y}: from `start`, move to
    /// output 10 + #x + 10·#y (b = 2) and emit `y` iff #x > 0.
    #[derive(Clone, Debug)]
    struct Toy {
        alphabet: Alphabet,
    }

    impl Toy {
        fn new() -> Self {
            Toy {
                alphabet: Alphabet::new(["x", "y"]),
            }
        }
    }

    #[derive(Clone, PartialEq, Eq, Debug)]
    enum ToyState {
        Start,
        Done(u64),
    }

    impl crate::Protocol for Toy {
        type State = ToyState;

        fn alphabet(&self) -> &Alphabet {
            &self.alphabet
        }

        fn bound(&self) -> u8 {
            2
        }

        fn initial_letter(&self) -> Letter {
            Letter(0)
        }

        fn initial_state(&self, _input: usize) -> ToyState {
            ToyState::Start
        }

        fn output(&self, q: &ToyState) -> Option<u64> {
            match q {
                ToyState::Start => None,
                ToyState::Done(v) => Some(*v),
            }
        }
    }

    impl MultiFsm for Toy {
        fn delta(&self, q: &ToyState, obs: &ObsVec) -> Transitions<ToyState> {
            match q {
                ToyState::Start => {
                    let x = obs.get(Letter(0)).raw() as u64;
                    let y = obs.get(Letter(1)).raw() as u64;
                    let emit = if x > 0 { Some(Letter(1)) } else { None };
                    Transitions::det(ToyState::Done(10 + x + 10 * y), emit)
                }
                done => Transitions::det(done.clone(), None),
            }
        }
    }

    #[test]
    fn gather_walks_all_letters_then_applies_inner() {
        let p = SingleLetter::new(Toy::new());
        let q0 = p.initial_state(0);
        assert_eq!((q0.subround, q0.counts), (0, 0));
        assert_eq!(p.query(&q0), Letter(0));
        assert_eq!(p.output(&q0), None);

        // Subround 1: observe #x = 1 (truncated at b = 2).
        let t = p.delta(&q0, fb(1, 2));
        assert_eq!(t.choices.len(), 1);
        let (q1, e1) = &t.choices[0];
        assert_eq!(e1, &None);
        assert_eq!((q1.subround, p.count(q1, 0)), (1, 1));
        assert_eq!(p.query(q1), Letter(1));

        // Subround 2: observe #y = 5 → truncated to 2; round completes.
        let t = p.delta(q1, fb(5, 2));
        let (q2, e2) = &t.choices[0];
        assert_eq!(e2, &Some(Letter(1))); // inner emitted y because #x > 0
        assert_eq!(q2.inner, ToyState::Done(10 + 1 + 20));
        assert_eq!((q2.subround, q2.counts), (0, 0));
        assert_eq!(p.output(q2), Some(31));
    }

    #[test]
    fn rounds_multiplier_is_alphabet_size() {
        let p = SingleLetter::new(Toy::new());
        assert_eq!(p.rounds_per_round(), 2);
    }

    #[test]
    fn alphabet_and_bound_pass_through() {
        let p = SingleLetter::new(Toy::new());
        assert_eq!(p.alphabet().len(), 2);
        assert_eq!(p.bound(), 2);
        assert_eq!(p.initial_letter(), Letter(0));
    }

    #[test]
    fn zero_observations_emit_epsilon() {
        let p = SingleLetter::new(Toy::new());
        let q0 = p.initial_state(0);
        let t = p.delta(&q0, fb(0, 2));
        let (q1, _) = &t.choices[0];
        let t = p.delta(q1, fb(0, 2));
        let (q2, e) = &t.choices[0];
        assert_eq!(e, &None);
        assert_eq!(p.output(q2), Some(10));
    }
}
