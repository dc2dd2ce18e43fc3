//! The protocol abstractions: [`Fsm`] (the formal single-letter-query model
//! of Section 2) and [`MultiFsm`] (the multiple-letter-query layer of
//! Section 3.2).

use crate::{Alphabet, BoundedCount, Choices, Letter};

/// The nondeterministic choice set `δ(q, ·) ⊆ Q × (Σ ∪ {ε})` from which the
/// next `(state, emission)` pair is drawn **uniformly at random**
/// (emission `None` is the empty symbol `ε` — no transmission).
///
/// A well-formed protocol never returns an empty choice set (the node would
/// have no successor configuration). The pairs live in a [`Choices`], which
/// keeps up to three of them inline, so building a typical choice set
/// allocates nothing.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Transitions<S> {
    /// The candidate `(next state, emission)` pairs.
    pub choices: Choices<(S, Option<Letter>)>,
}

impl<S> Transitions<S> {
    /// A deterministic transition: a single choice.
    pub fn det(state: S, emission: Option<Letter>) -> Self {
        Transitions {
            choices: [(state, emission)].into(),
        }
    }

    /// A uniform choice among the given pairs — a `Vec`, an array of up
    /// to three pairs, or a collected [`Choices`].
    ///
    /// # Panics
    /// Panics if `choices` is empty.
    pub fn uniform(choices: impl Into<Choices<(S, Option<Letter>)>>) -> Self {
        let choices = choices.into();
        assert!(!choices.is_empty(), "δ must offer at least one successor");
        Transitions { choices }
    }

    /// Number of candidate pairs.
    pub fn len(&self) -> usize {
        self.choices.len()
    }

    /// Whether the choice set is empty (ill-formed).
    pub fn is_empty(&self) -> bool {
        self.choices.is_empty()
    }

    /// Picks one pair uniformly at random using the supplied RNG.
    ///
    /// # Panics
    /// Panics if the choice set is empty.
    pub fn sample<R: rand::Rng + ?Sized>(&self, rng: &mut R) -> &(S, Option<Letter>) {
        assert!(!self.choices.is_empty(), "empty transition set");
        if self.choices.len() == 1 {
            &self.choices[0]
        } else {
            &self.choices[rng.gen_range(0..self.choices.len())]
        }
    }

    /// The consuming twin of [`Transitions::sample`]: makes the same
    /// draw and moves the chosen pair out instead of lending it, so the
    /// caller need not clone the next state.
    ///
    /// # Panics
    /// Panics if the choice set is empty.
    pub fn draw<R: rand::Rng + ?Sized>(self, rng: &mut R) -> (S, Option<Letter>) {
        self.choices.draw(rng)
    }

    /// Maps the state type, preserving emissions and choice order.
    pub fn map_states<T, F: FnMut(S) -> T>(self, mut f: F) -> Transitions<T> {
        Transitions {
            choices: self.choices.map(|(s, e)| (f(s), e)),
        }
    }
}

/// The **representation-independent face** every protocol flavor shares:
/// the static components of the paper's 8-tuple
/// `Π = ⟨Q, Q_I, Q_O, Σ, σ₀, b, λ, δ⟩` that an execution environment
/// needs *before* it knows how transitions are queried.
///
/// [`Fsm`] (single-letter queries, Section 2), [`MultiFsm`]
/// (multiple-letter queries, Section 3.2), and the simulator's scoped
/// port-select extension are all subtraits adding only their flavor of
/// `δ`; everything generic over "a protocol" — input-state construction,
/// output decoding, alphabet sizing, the unified `Simulation` builder and
/// its `Outcome` — bounds on this trait alone.
pub trait Protocol {
    /// The state set `Q`. `Clone + Eq` so engines can store and compare
    /// per-node states; `Debug` for traces.
    type State: Clone + Eq + std::fmt::Debug;

    /// The communication alphabet `Σ`.
    fn alphabet(&self) -> &Alphabet;

    /// The bounding parameter `b ∈ Z>0`.
    fn bound(&self) -> u8;

    /// The initial letter `σ₀` stored in every port before any delivery.
    fn initial_letter(&self) -> Letter;

    /// The input state for input symbol `input` (an index into `Q_I`).
    /// Problems without node inputs use `input = 0` everywhere.
    fn initial_state(&self, input: usize) -> Self::State;

    /// `Some(output)` iff `q ∈ Q_O`; the global execution is in an *output
    /// configuration* when this is `Some` at every node.
    fn output(&self, q: &Self::State) -> Option<u64>;

    /// The state a node is reborn into when a fault-injection layer
    /// restarts it after a crash. The paper's nFSMs are uniform and
    /// anonymous, so a restarted node is indistinguishable from a fresh
    /// one and the default simply re-enters [`Self::initial_state`];
    /// protocols that model warm restarts
    /// can override it.
    fn restart_state(&self, input: usize) -> Self::State {
        self.initial_state(input)
    }
}

/// A protocol in the formal nFSM model of Section 2: every state queries a
/// **single** letter `λ(q)` and the transition depends only on
/// `f_b(#λ(q))`.
///
/// Model requirement (M2): all nodes run the *same* protocol — an `Fsm`
/// value is shared (by reference) across all nodes of an execution.
/// Requirement (M4) — constant size independent of the network — is a
/// design obligation on implementors: `State`, the alphabet and `b` must
/// not depend on `n` or on node degrees.
pub trait Fsm: Protocol {
    /// The query letter `λ(q)`.
    fn query(&self, q: &Self::State) -> Letter;

    /// The transition function `δ(q, f_b(#λ(q)))`.
    ///
    /// δ must be a **pure function** of the state and the observation:
    /// no interior mutability, no global state, and no randomness of its
    /// own — the only randomness in a step is the engine's uniform draw
    /// among the returned choices. Engines rely on this: a lockstep node
    /// whose last step was a single silent self-loop and whose port
    /// counts have not changed since is not stepped again, because δ
    /// would return the same choice.
    fn delta(&self, q: &Self::State, observed: BoundedCount) -> Transitions<Self::State>;
}

/// The observation available under **multiple-letter queries**
/// (Section 3.2): the full vector `⟨f_b(#σ)⟩_{σ∈Σ}`, indexed by letter.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ObsVec {
    counts: Vec<BoundedCount>,
}

impl ObsVec {
    /// Builds the observation vector from per-letter counts (indexed by
    /// letter index).
    pub fn new(counts: Vec<BoundedCount>) -> Self {
        ObsVec { counts }
    }

    /// Builds from exact per-letter counts, truncating each through `f_b`.
    pub fn from_counts(exact: &[usize], b: u8) -> Self {
        ObsVec {
            counts: exact.iter().map(|&x| crate::fb(x, b)).collect(),
        }
    }

    /// An all-zero observation vector over `sigma` letters.
    ///
    /// Intended as a reusable scratch buffer: allocate once per executor
    /// (or per worker thread) and [`ObsVec::refill_from_counts`] it for
    /// every node, instead of collecting a fresh `Vec` per observation.
    pub fn zeroed(sigma: usize) -> Self {
        ObsVec {
            counts: vec![BoundedCount::zero(); sigma],
        }
    }

    /// Overwrites this vector in place with `f_b` applied to exact
    /// per-letter counts, reusing the existing allocation.
    ///
    /// This is the zero-allocation companion of [`ObsVec::from_counts`]
    /// for engines that maintain incremental per-node letter counts: the
    /// whole phase-1 observation of a node becomes one O(|Σ|) refill of a
    /// shared scratch buffer. At a fixed length (the engines' case: one
    /// alphabet per run) it writes the counts in place and never the
    /// vector's own length.
    pub fn refill_from_counts(&mut self, exact: &[u32], b: u8) {
        if self.counts.len() != exact.len() {
            self.counts.resize(exact.len(), BoundedCount::zero());
        }
        for (c, &x) in self.counts.iter_mut().zip(exact) {
            *c = BoundedCount::from_count(x as usize, b);
        }
    }

    /// Overwrites this vector in place from a *sparse* count map: the
    /// `(letter index, exact count)` pairs of the letters with non-zero
    /// counts, over an alphabet of `sigma` letters (every absent letter
    /// counts 0). The sparse companion of
    /// [`ObsVec::refill_from_counts`], used by engines that keep per-node
    /// counts sparsely when the compiled alphabet is large (e.g. the
    /// `3(σ+1)²` letters of a synchronized single-letter compilation).
    pub fn refill_from_sparse(&mut self, sigma: usize, nonzero: &[(u16, u32)], b: u8) {
        self.counts.clear();
        self.counts.resize(sigma, BoundedCount::zero());
        for &(letter, count) in nonzero {
            self.counts[letter as usize] = BoundedCount::from_count(count as usize, b);
        }
    }

    /// The truncated count of `letter`.
    pub fn get(&self, letter: Letter) -> BoundedCount {
        self.counts[letter.index()]
    }

    /// Number of letters covered.
    pub fn len(&self) -> usize {
        self.counts.len()
    }

    /// Whether the vector is empty.
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }

    /// The underlying per-letter counts.
    pub fn as_slice(&self) -> &[BoundedCount] {
        &self.counts
    }
}

/// A protocol using **multiple-letter queries**: transitions may depend on
/// the whole vector `⟨f_b(#σ)⟩_{σ∈Σ}`.
///
/// Theorem 3.4 (implemented by [`crate::SingleLetter`]) compiles any such
/// protocol down to a plain [`Fsm`] at constant overhead, so this layer is
/// a convenience, not extra power. The paper's own MIS and tree-coloring
/// protocols are stated in this layer.
pub trait MultiFsm: Protocol {
    /// The transition function over the full observation vector.
    ///
    /// The same contract as [`Fsm::delta`]: a pure function of `q` and
    /// `obs`, with no interior mutability, no global state, and no
    /// randomness beyond the engine's uniform draw among the returned
    /// choices. The lockstep engines skip a node whose last step was a
    /// single silent self-loop while its counts stay unchanged, which is
    /// exact only under this contract.
    fn delta(&self, q: &Self::State, obs: &ObsVec) -> Transitions<Self::State>;
}

/// Adapter viewing a single-letter [`Fsm`] as a [`MultiFsm`] that happens
/// to inspect only its query letter's entry.
///
/// Lets the (multi-letter-capable) synchronous engine run plain model
/// protocols without duplication.
#[derive(Clone, Debug)]
pub struct AsMulti<P>(pub P);

impl<P: Fsm> Protocol for AsMulti<P> {
    type State = P::State;

    fn alphabet(&self) -> &Alphabet {
        self.0.alphabet()
    }

    fn bound(&self) -> u8 {
        self.0.bound()
    }

    fn initial_letter(&self) -> Letter {
        self.0.initial_letter()
    }

    fn initial_state(&self, input: usize) -> Self::State {
        self.0.initial_state(input)
    }

    fn output(&self, q: &Self::State) -> Option<u64> {
        self.0.output(q)
    }
}

impl<P: Fsm> MultiFsm for AsMulti<P> {
    fn delta(&self, q: &Self::State, obs: &ObsVec) -> Transitions<Self::State> {
        self.0.delta(q, obs.get(self.0.query(q)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn det_transition_always_sampled() {
        let t: Transitions<u8> = Transitions::det(3, Some(Letter(1)));
        let mut rng = SmallRng::seed_from_u64(0);
        for _ in 0..10 {
            assert_eq!(t.sample(&mut rng), &(3u8, Some(Letter(1))));
        }
    }

    #[test]
    fn uniform_sampling_hits_all_choices() {
        let t: Transitions<u8> = Transitions::uniform(vec![(0, None), (1, None), (2, None)]);
        let mut rng = SmallRng::seed_from_u64(42);
        let mut seen = [false; 3];
        for _ in 0..200 {
            let (s, _) = t.sample(&mut rng);
            seen[*s as usize] = true;
        }
        assert_eq!(seen, [true, true, true]);
    }

    #[test]
    fn uniform_sampling_is_roughly_uniform() {
        let t: Transitions<u8> = Transitions::uniform(vec![(0, None), (1, None)]);
        let mut rng = SmallRng::seed_from_u64(7);
        let mut ones = 0usize;
        let trials = 10_000;
        for _ in 0..trials {
            if t.sample(&mut rng).0 == 1 {
                ones += 1;
            }
        }
        let frac = ones as f64 / trials as f64;
        assert!((frac - 0.5).abs() < 0.03, "fraction {frac}");
    }

    #[test]
    #[should_panic(expected = "at least one successor")]
    fn empty_uniform_panics() {
        let _: Transitions<u8> = Transitions::uniform(vec![]);
    }

    #[test]
    fn map_states_preserves_emissions() {
        let t: Transitions<u8> = Transitions::uniform(vec![(1, Some(Letter(0))), (2, None)]);
        let t2 = t.map_states(|s| s as u32 * 10);
        assert_eq!(t2.choices, vec![(10u32, Some(Letter(0))), (20u32, None)]);
    }

    #[test]
    fn obsvec_from_counts_truncates() {
        let o = ObsVec::from_counts(&[0, 1, 5], 2);
        assert_eq!(o.get(Letter(0)).raw(), 0);
        assert_eq!(o.get(Letter(1)).raw(), 1);
        assert_eq!(o.get(Letter(2)).raw(), 2);
        assert_eq!(o.len(), 3);
    }

    #[test]
    fn obsvec_refill_matches_from_counts() {
        let mut scratch = ObsVec::zeroed(3);
        assert_eq!(scratch.len(), 3);
        assert!(scratch.as_slice().iter().all(|c| c.is_zero()));
        for (exact, b) in [(vec![0u32, 1, 5], 2u8), (vec![7, 0, 2, 9], 3)] {
            scratch.refill_from_counts(&exact, b);
            let exact_usize: Vec<usize> = exact.iter().map(|&x| x as usize).collect();
            assert_eq!(scratch, ObsVec::from_counts(&exact_usize, b));
        }
    }
}
