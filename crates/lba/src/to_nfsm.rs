//! **Lemma 6.2**: an rLBA can be simulated by an nFSM protocol on a path.
//!
//! One path node per tape cell (end markers included, so the path has
//! `n + 2` nodes — conveniently, the marker cells are exactly the
//! degree-1 endpoints, realizing the paper's remark that endpoint
//! detection is "without loss of generality"). The machine head travels
//! as **handoff messages** between adjacent nodes: when the head departs
//! a cell, the cell broadcasts `(direction, machine state)`, and the
//! correct neighbor adopts the head.
//!
//! ## Making the paper's sketch watertight
//!
//! The paper's construction stores in each node whether the head is to its
//! left or right and lets a node adopt the head when a message "indicates
//! that the head should move" toward it. Ports, however, retain *stale*
//! letters: after `v` hands the head left to `u`, the old `(R, p)` that
//! `u` sent earlier still sits in `v`'s port, and if `u`'s next departure
//! re-sends the very same letter, `v` cannot observe any change — it would
//! either adopt a stale head (wrong state) or deadlock. We close this gap
//! with a **per-edge handoff parity bit** (two bits of extra state per
//! side, still constant): successive handoffs across the same directed
//! edge alternate parity, so a stale letter never matches the expected
//! parity and a fresh one always does.
//!
//! Cross-edge aliasing (a letter from the *other* neighbor matching the
//! expected one) cannot occur: a node with the head on its left can only
//! hold `(L, ·)` letters in its right port — for the head to be on the
//! left, it must have exited the right neighbor leftward, overwriting that
//! port — and expected letters from the left are `(R, ·)`.
//!
//! Upon reaching a halting machine state, the adopting node floods
//! `HALT-accept`/`HALT-reject` along the path; every node outputs the
//! machine's verdict.

use stoneage_core::{Alphabet, Choices, Letter, MultiFsm, ObsVec, Transitions};
use stoneage_graph::{generators, Graph};
use stoneage_sim::{ExecError, Simulation};

use crate::machine::{Lba, LbaError, Move, RunOutcome, Symbol};

/// Which side of a node the head is currently on.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum Side {
    /// The head is at or beyond the left neighbor.
    Left,
    /// The head is at or beyond the right neighbor.
    Right,
}

impl Side {
    fn index(self) -> usize {
        match self {
            Side::Left => 0,
            Side::Right => 1,
        }
    }

    fn of(mv: Move) -> Side {
        match mv {
            Move::Left => Side::Left,
            Move::Right => Side::Right,
        }
    }
}

/// A state of the compiled path protocol.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum PathState {
    /// The node currently holding the head, before its first/next
    /// application of the machine's transition (only used for the initial
    /// configuration — subsequent applications happen inside the adopting
    /// transition).
    InitialHead {
        /// The cell's tape symbol.
        sym: Symbol,
    },
    /// An inert tape cell.
    Cell {
        /// The cell's current tape symbol.
        sym: Symbol,
        /// Which side the head is on.
        side: Side,
        /// Parity of the last handoff *sent* to [left, right].
        sent: [bool; 2],
        /// Parity of the last handoff *accepted* from [left, right].
        acc: [bool; 2],
    },
    /// Verdict reached and flooded.
    Done {
        /// The machine's verdict.
        accept: bool,
    },
}

/// The Lemma 6.2 compiler: wraps an [`Lba`] as a [`MultiFsm`] to run on a
/// path graph (`b = 1`).
#[derive(Clone, Debug)]
pub struct LbaOnPath {
    machine: Lba,
    alphabet: Alphabet,
}

const L_INIT: Letter = Letter(0);
const L_HALT_ACC: Letter = Letter(1);
const L_HALT_REJ: Letter = Letter(2);

impl LbaOnPath {
    /// Compiles `machine` into a path protocol.
    pub fn new(machine: Lba) -> Self {
        let mut names = vec![
            "INIT".to_owned(),
            "HALT_ACC".to_owned(),
            "HALT_REJ".to_owned(),
        ];
        for p in 0..machine.state_count() {
            for dir in ["L", "R"] {
                for parity in 0..2 {
                    names.push(format!("({dir},p{p},{parity})"));
                }
            }
        }
        LbaOnPath {
            alphabet: Alphabet::new(names),
            machine,
        }
    }

    /// The wrapped machine.
    pub fn machine(&self) -> &Lba {
        &self.machine
    }

    /// The handoff letter `(direction, machine state, parity)`.
    pub fn handoff(&self, mv: Move, state: u16, parity: bool) -> Letter {
        let dir = match mv {
            Move::Left => 0u16,
            Move::Right => 1,
        };
        Letter(3 + (state * 2 + dir) * 2 + parity as u16)
    }

    /// Encodes a node input: the cell symbol plus the head flag.
    pub fn encode_input(sym: Symbol, has_head: bool) -> usize {
        (sym.0 as usize) * 2 + has_head as usize
    }

    /// Applies the machine transition for a head adopted in machine state
    /// `p` at a cell holding `sym` with handoff bookkeeping `(side→sent)`.
    fn apply_head(
        &self,
        p: u16,
        sym: Symbol,
        sent: [bool; 2],
        acc: [bool; 2],
    ) -> Transitions<PathState> {
        if self.machine.is_halting(p) {
            let accept = self.machine.halt_accepts(p);
            let letter = if accept { L_HALT_ACC } else { L_HALT_REJ };
            return Transitions::det(PathState::Done { accept }, Some(letter));
        }
        let choices = self
            .machine
            .choices(p, sym)
            .unwrap_or_else(|e| panic!("machine is not total on reachable configs: {e}"))
            .expect("non-halting state has choices");
        Transitions::uniform(
            choices
                .iter()
                .map(|a| {
                    let side = Side::of(a.mv);
                    let mut sent = sent;
                    sent[side.index()] = !sent[side.index()];
                    let letter = self.handoff(a.mv, a.state, sent[side.index()]);
                    (
                        PathState::Cell {
                            sym: a.write,
                            side,
                            sent,
                            acc,
                        },
                        Some(letter),
                    )
                })
                .collect::<Choices<_>>(),
        )
    }
}

impl stoneage_core::Protocol for LbaOnPath {
    type State = PathState;

    fn alphabet(&self) -> &Alphabet {
        &self.alphabet
    }

    fn bound(&self) -> u8 {
        1
    }

    fn initial_letter(&self) -> Letter {
        L_INIT
    }

    fn initial_state(&self, input: usize) -> PathState {
        let sym = Symbol((input / 2) as u16);
        if input % 2 == 1 {
            PathState::InitialHead { sym }
        } else {
            // The head starts at the leftmost cell, so everyone else sees
            // it on their left.
            PathState::Cell {
                sym,
                side: Side::Left,
                sent: [false; 2],
                acc: [false; 2],
            }
        }
    }

    fn output(&self, q: &PathState) -> Option<u64> {
        match q {
            PathState::Done { accept } => Some(*accept as u64),
            _ => None,
        }
    }
}

impl MultiFsm for LbaOnPath {
    fn delta(&self, q: &PathState, obs: &ObsVec) -> Transitions<PathState> {
        // Halt flooding dominates everything.
        let flood = if !obs.get(L_HALT_ACC).is_zero() {
            Some(true)
        } else if !obs.get(L_HALT_REJ).is_zero() {
            Some(false)
        } else {
            None
        };
        match q {
            PathState::Done { accept } => {
                Transitions::det(PathState::Done { accept: *accept }, None)
            }
            PathState::InitialHead { sym } => {
                // Machine state 0 starts here; apply the first transition
                // unconditionally.
                self.apply_head(0, *sym, [false; 2], [false; 2])
            }
            PathState::Cell {
                sym,
                side,
                sent,
                acc,
            } => {
                if let Some(accept) = flood {
                    let letter = if accept { L_HALT_ACC } else { L_HALT_REJ };
                    return Transitions::det(PathState::Done { accept }, Some(letter));
                }
                // Expect a handoff from the side the head is on, moving
                // toward us, with fresh parity.
                let (mv, from) = match side {
                    Side::Left => (Move::Right, Side::Left),
                    Side::Right => (Move::Left, Side::Right),
                };
                let expected_parity = !acc[from.index()];
                for p in 0..self.machine.state_count() as u16 {
                    let letter = self.handoff(mv, p, expected_parity);
                    if !obs.get(letter).is_zero() {
                        let mut acc = *acc;
                        acc[from.index()] = expected_parity;
                        return self.apply_head(p, *sym, *sent, acc);
                    }
                }
                Transitions::det(q.clone(), None)
            }
        }
    }
}

/// Runs `machine` on `input` via the compiled path protocol under the
/// synchronous engine; returns the verdict and the rounds used.
pub fn run_on_path(
    machine: &Lba,
    input: &[Symbol],
    seed: u64,
    max_rounds: u64,
) -> Result<(bool, u64), ExecError> {
    let protocol = LbaOnPath::new(machine.clone());
    let (graph, inputs) = path_instance(input);
    let out = Simulation::sync(&protocol, &graph)
        .seed(seed)
        .budget(max_rounds)
        .inputs(&inputs)
        .run()?;
    // All nodes flood to the same verdict.
    debug_assert!(out.outputs.windows(2).all(|w| w[0] == w[1]));
    Ok((out.outputs[0] == 1, out.rounds().expect("a lockstep run")))
}

/// The path graph and input vector encoding `⊢ input ⊣` with the head on
/// the left marker.
pub fn path_instance(input: &[Symbol]) -> (Graph, Vec<usize>) {
    let n = input.len() + 2;
    let graph = generators::path(n);
    let mut inputs = Vec::with_capacity(n);
    inputs.push(LbaOnPath::encode_input(crate::MARKER_LEFT, true));
    inputs.extend(input.iter().map(|&s| LbaOnPath::encode_input(s, false)));
    inputs.push(LbaOnPath::encode_input(crate::MARKER_RIGHT, false));
    (graph, inputs)
}

/// Cross-checks the compiled path protocol against the direct runner on
/// the same input; returns the common verdict.
///
/// # Panics
/// Panics if the two disagree (they must not, for any seeds, when the
/// machine's verdict is language-determined).
pub fn cross_check(
    machine: &Lba,
    input: &[Symbol],
    direct_seed: u64,
    path_seed: u64,
) -> Result<bool, LbaError> {
    let direct: RunOutcome = machine.run(input, direct_seed, 10_000_000)?;
    let (path_verdict, _) =
        run_on_path(machine, input, path_seed, 10_000_000).expect("path simulation timed out");
    assert_eq!(
        direct.accepted, path_verdict,
        "Lemma 6.2 simulation diverged from the direct runner"
    );
    Ok(direct.accepted)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machines::{self, encode_abc};
    use stoneage_core::Protocol as _;

    #[test]
    fn handoff_letters_are_distinct() {
        let p = LbaOnPath::new(machines::length_mod3());
        let mut seen = std::collections::HashSet::new();
        for state in 0..p.machine().state_count() as u16 {
            for mv in [Move::Left, Move::Right] {
                for parity in [false, true] {
                    assert!(seen.insert(p.handoff(mv, state, parity)));
                }
            }
        }
        assert!(!seen.contains(&L_INIT));
        assert!(!seen.contains(&L_HALT_ACC));
        assert!(!seen.contains(&L_HALT_REJ));
    }

    #[test]
    fn alphabet_size_is_constant_in_input_length() {
        let p = LbaOnPath::new(machines::abc_equal());
        assert_eq!(p.alphabet().len(), 3 + 4 * p.machine().state_count());
    }

    #[test]
    fn dfa_machine_agrees_on_path() {
        let m = machines::length_mod3();
        for n in 0..10 {
            let w = "a".repeat(n);
            let verdict = cross_check(&m, &encode_abc(&w), 0, 0).unwrap();
            assert_eq!(verdict, n % 3 == 0, "n = {n}");
        }
    }

    #[test]
    fn abc_machine_agrees_on_path() {
        let m = machines::abc_equal();
        for word in ["", "abc", "aabbcc", "ab", "acb", "abcc", "ba", "aaabbbccc"] {
            cross_check(&m, &encode_abc(word), 0, 1).unwrap();
        }
    }

    #[test]
    fn palindrome_machine_agrees_on_path() {
        let m = machines::palindrome();
        for word in ["", "a", "ab", "aba", "abba", "abab", "baab", "bb"] {
            cross_check(&m, &encode_abc(word), 0, 2).unwrap();
        }
    }

    #[test]
    fn majority_machine_agrees_on_path() {
        let m = machines::majority();
        for word in ["", "a", "b", "ab", "aab", "abb", "aabab", "bbbaa"] {
            cross_check(&m, &encode_abc(word), 0, 3).unwrap();
        }
    }

    #[test]
    fn randomized_machine_agrees_for_many_seeds() {
        let m = machines::random_walk_contains_b();
        for seed in 0..10 {
            for (word, expect) in [("aab", true), ("aaa", false), ("b", true)] {
                let (verdict, _) = run_on_path(&m, &encode_abc(word), seed, 10_000_000).unwrap();
                assert_eq!(verdict, expect, "{word:?} seed {seed}");
            }
        }
    }

    #[test]
    fn path_rounds_track_machine_steps() {
        // Each machine step is one head handoff = one synchronous round
        // (plus flooding at the end): rounds should be Θ(steps).
        let m = machines::length_mod3();
        let input = encode_abc(&"a".repeat(9));
        let direct = m.run(&input, 0, 100_000).unwrap();
        let (_, rounds) = run_on_path(&m, &input, 0, 100_000).unwrap();
        assert!(rounds as f64 >= direct.steps as f64);
        assert!(
            (rounds as f64) < 4.0 * direct.steps as f64 + 40.0,
            "rounds {rounds} vs steps {}",
            direct.steps
        );
    }

    #[test]
    fn initial_states_decode_inputs() {
        let p = LbaOnPath::new(machines::length_mod3());
        let s = p.initial_state(LbaOnPath::encode_input(Symbol(2), false));
        assert_eq!(
            s,
            PathState::Cell {
                sym: Symbol(2),
                side: Side::Left,
                sent: [false; 2],
                acc: [false; 2],
            }
        );
        let s = p.initial_state(LbaOnPath::encode_input(Symbol(0), true));
        assert_eq!(s, PathState::InitialHead { sym: Symbol(0) });
    }
}
