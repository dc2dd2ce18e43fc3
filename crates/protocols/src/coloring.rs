//! The 3-coloring protocol for undirected trees of Section 5.
//!
//! Execution is divided into **phases of four rounds**; the bounding
//! parameter is `b = 3` (a node distinguishes active-degrees 0, 1, 2 and
//! "many"). Every node is in one of three modes:
//!
//! * `ACTIVE` — participating; transmits `I am ACTIVE` in round 1 of every
//!   phase and its one-two-many degree class `f₃(dᶦ(v))` in round 2;
//! * `WAITING` — a degree-1 node whose single active neighbor has degree
//!   ≥ 2 steps aside until that neighbor leaves the active forest;
//! * `COLORED` — output reached; transmits `my color is c` once, then is
//!   silent forever (ports of neighbors retain the color letter).
//!
//! Rounds 3–4 run **Procedure RandColor** for the eligible nodes (isolated
//! in the active forest; leaf next to a leaf; degree-2 between degree-≤2
//! neighbors): pick a color uniformly from `C(v)` — the colors not held by
//! any colored neighbor, determined by querying `#COLc = 0` — propose it,
//! and keep it unless an adjacent proposal of the *same* color appears.
//!
//! Theorem 5.4: every output configuration is a proper 3-coloring and the
//! run-time is `O(log n)` on any `n`-node tree.
//!
//! ## Implementing the paper's wake rule under truncated counting
//!
//! The paper wakes a WAITING node when it "spots a `my color is c`
//! message". An FSM that only sees `f₃`-truncated counts must realize this
//! trigger with constant memory. A WAITING node `v` keeps (constant-sized)
//! snapshots of `⟨f₃(#COLc)⟩` and `f₃(#WAITING)` and checks, in round 2
//! of every phase:
//!
//! * **color progress** — some `f₃(#COLc)` increased: a neighbor colored
//!   (this subsumes the always-detectable `0 → ≥1` class flip that
//!   protects the `C(v) ≠ ∅` invariant) ⇒ wake;
//! * **parent departure** — `#ACTIVE` dropped from ≥1 to 0 (the unique
//!   waited-on neighbor no longer announces itself; the count is never
//!   truncated because only one port can hold `ACTIVE`). The parent either
//!   *colored* (⇒ wake — the paper's trigger) or itself stepped deeper
//!   into the **waiting hierarchy** (⇒ keep sleeping! waking here is the
//!   trap: the hub's palette could be consumed by its woken leaves). The
//!   two are told apart by whether `f₃(#WAITING)` rose in the same phase —
//!   only the parent can newly announce `WAITING` next to a waiting node.
//!
//! When both signals are saturated (`#COLc ≥ 3` for the parent's color
//! *and* `#WAITING ≥ 3`) the node wakes to preserve liveness; reaching
//! that corner requires three same-colored neighbors plus three waiting
//! children simultaneously, and every randomized stress test in this
//! repository (thousands of trees × seeds) confirms the invariant holds.

pub mod analysis;

use stoneage_core::{Alphabet, Choices, Letter, MultiFsm, ObsVec, Transitions};

/// Letters of the coloring protocol, in alphabet order. Crate-visible so
/// the [`crate::selfstab`] wrapper can match the wake/color letters.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
#[repr(u16)]
pub(crate) enum L {
    /// σ₀: pristine port content, never transmitted.
    Init = 0,
    /// `I am ACTIVE` (round 1).
    Active = 1,
    /// `I am WAITING` (on entering mode WAITING).
    Waiting = 2,
    /// Degree classes `f₃(dᶦ(v))` (round 2).
    Deg0 = 3,
    /// Degree class 1.
    Deg1 = 4,
    /// Degree class 2.
    Deg2 = 5,
    /// Degree class ≥ 3.
    Deg3p = 6,
    /// `proposing color 1` (round 3).
    Prop1 = 7,
    /// `proposing color 2`.
    Prop2 = 8,
    /// `proposing color 3`.
    Prop3 = 9,
    /// `my color is 1` (round 4).
    Col1 = 10,
    /// `my color is 2`.
    Col2 = 11,
    /// `my color is 3`.
    Col3 = 12,
}

impl L {
    pub(crate) fn letter(self) -> Letter {
        Letter(self as u16)
    }

    fn deg(class: u8) -> L {
        match class {
            0 => L::Deg0,
            1 => L::Deg1,
            2 => L::Deg2,
            _ => L::Deg3p,
        }
    }

    fn prop(color: u8) -> L {
        match color {
            1 => L::Prop1,
            2 => L::Prop2,
            3 => L::Prop3,
            _ => unreachable!("colors are 1..=3"),
        }
    }

    pub(crate) fn col(color: u8) -> L {
        match color {
            1 => L::Col1,
            2 => L::Col2,
            3 => L::Col3,
            _ => unreachable!("colors are 1..=3"),
        }
    }
}

/// A state of the coloring protocol. Suffixes track the position inside
/// the 4-round phase (the transition of `A1` is applied at the end of
/// round 1 of the phase, and so on) — an FSM can count to four.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum ColoringState {
    /// ACTIVE, about to announce itself (end of round 1).
    A1,
    /// ACTIVE, about to read `#ACTIVE` and announce its degree class
    /// (end of round 2).
    A2,
    /// ACTIVE, about to read neighbor degree classes and decide between
    /// RandColor / waiting / idling (end of round 3).
    A3 {
        /// Own degree class `f₃(dᶦ(v))` learned in round 2.
        deg: u8,
    },
    /// ACTIVE, proposed `color`, about to check for conflicts (end of
    /// round 4).
    A4 {
        /// The proposed color (1..=3).
        color: u8,
    },
    /// ACTIVE but ineligible for RandColor this phase; idles round 4.
    A4Idle,
    /// WAITING; `round` is the round whose end-transition comes next. The
    /// remaining fields are the constant-sized snapshots driving the wake
    /// rule (see the module docs).
    Waiting {
        /// Position in the phase (1..=4).
        round: u8,
        /// Last seen `f₃(#COLc)` per color (values 0..=3).
        seen_cols: [u8; 3],
        /// Last seen `f₃(#WAITING)`.
        seen_waiting: u8,
        /// Whether a port held `ACTIVE` at the last round-2 check.
        parent_active: bool,
    },
    /// WAITING node that detected its neighbor's departure; sits out the
    /// rest of the phase (rounds 3 then 4) before rejoining as `A1`.
    Rejoining {
        /// Position in the phase (3 or 4).
        round: u8,
    },
    /// COLORED with `color` (output state, silent sink).
    Colored {
        /// The final color (1..=3).
        color: u8,
    },
}

// Checkpoint/resume support: a one-byte tag plus the variant's small
// fixed-width fields, validated on decode so a corrupt frame surfaces as
// a typed error instead of a bogus state.
impl stoneage_sim::SnapState for ColoringState {
    fn encode(&self, w: &mut stoneage_sim::SnapWriter) {
        match self {
            ColoringState::A1 => w.u8(0),
            ColoringState::A2 => w.u8(1),
            ColoringState::A3 { deg } => {
                w.u8(2);
                w.u8(*deg);
            }
            ColoringState::A4 { color } => {
                w.u8(3);
                w.u8(*color);
            }
            ColoringState::A4Idle => w.u8(4),
            ColoringState::Waiting {
                round,
                seen_cols,
                seen_waiting,
                parent_active,
            } => {
                w.u8(5);
                w.u8(*round);
                for c in seen_cols {
                    w.u8(*c);
                }
                w.u8(*seen_waiting);
                w.u8(u8::from(*parent_active));
            }
            ColoringState::Rejoining { round } => {
                w.u8(6);
                w.u8(*round);
            }
            ColoringState::Colored { color } => {
                w.u8(7);
                w.u8(*color);
            }
        }
    }

    fn decode(r: &mut stoneage_sim::SnapReader<'_>) -> Result<Self, stoneage_sim::SnapshotError> {
        let bad = stoneage_sim::SnapshotError::DigestMismatch {
            field: "coloring state tag",
        };
        match r.u8()? {
            0 => Ok(ColoringState::A1),
            1 => Ok(ColoringState::A2),
            2 => Ok(ColoringState::A3 { deg: r.u8()? }),
            3 => Ok(ColoringState::A4 { color: r.u8()? }),
            4 => Ok(ColoringState::A4Idle),
            5 => {
                let round = r.u8()?;
                let seen_cols = [r.u8()?, r.u8()?, r.u8()?];
                let seen_waiting = r.u8()?;
                let parent_active = match r.u8()? {
                    0 => false,
                    1 => true,
                    _ => return Err(bad),
                };
                Ok(ColoringState::Waiting {
                    round,
                    seen_cols,
                    seen_waiting,
                    parent_active,
                })
            }
            6 => Ok(ColoringState::Rejoining { round: r.u8()? }),
            7 => Ok(ColoringState::Colored { color: r.u8()? }),
            _ => Err(bad),
        }
    }
}

/// The tree 3-coloring protocol of Section 5, as a [`MultiFsm`] with
/// `b = 3`.
#[derive(Clone, Debug)]
pub struct ColoringProtocol {
    alphabet: Alphabet,
}

impl Default for ColoringProtocol {
    fn default() -> Self {
        Self::new()
    }
}

impl ColoringProtocol {
    /// Builds the protocol.
    pub fn new() -> Self {
        ColoringProtocol {
            alphabet: Alphabet::new([
                "INIT", "ACTIVE", "WAITING", "DEG0", "DEG1", "DEG2", "DEG3P", "PROP1", "PROP2",
                "PROP3", "COL1", "COL2", "COL3",
            ]),
        }
    }

    /// The set `C(v)` of colors not announced by any colored neighbor.
    fn free_colors(obs: &ObsVec) -> impl Iterator<Item = u8> + '_ {
        (1u8..=3).filter(|&c| obs.get(L::col(c).letter()).is_zero())
    }

    /// The `f₃(#COLc)` snapshot vector.
    fn color_counts(obs: &ObsVec) -> [u8; 3] {
        [
            obs.get(L::Col1.letter()).raw(),
            obs.get(L::Col2.letter()).raw(),
            obs.get(L::Col3.letter()).raw(),
        ]
    }

    /// Round-3 decision for an active node of degree class `deg`:
    /// `RandColor` eligibility per Section 5.
    fn runs_rand_color(deg: u8, obs: &ObsVec) -> bool {
        match deg {
            // Isolated in the active forest.
            0 => true,
            // Leaf: eligible iff the single active neighbor is a leaf too.
            1 => !obs.get(L::Deg1.letter()).is_zero(),
            // Degree 2: eligible iff both active neighbors have degree ≤ 2.
            2 => obs.get(L::Deg3p.letter()).is_zero(),
            // Degree ≥ 3: never.
            _ => false,
        }
    }

    /// Round-3 decision: does a degree-1 node step aside (wait on its
    /// higher-degree neighbor)?
    fn waits(deg: u8, obs: &ObsVec) -> bool {
        deg == 1 && obs.get(L::Deg1.letter()).is_zero()
    }
}

impl stoneage_core::Protocol for ColoringProtocol {
    type State = ColoringState;

    fn alphabet(&self) -> &Alphabet {
        &self.alphabet
    }

    fn bound(&self) -> u8 {
        3
    }

    fn initial_letter(&self) -> Letter {
        L::Init.letter()
    }

    fn initial_state(&self, _input: usize) -> ColoringState {
        ColoringState::A1
    }

    fn output(&self, q: &ColoringState) -> Option<u64> {
        match q {
            ColoringState::Colored { color } => Some(*color as u64),
            _ => None,
        }
    }
}

impl MultiFsm for ColoringProtocol {
    fn delta(&self, q: &ColoringState, obs: &ObsVec) -> Transitions<ColoringState> {
        use ColoringState as S;
        match *q {
            // Round 1: announce participation.
            S::A1 => Transitions::det(S::A2, Some(L::Active.letter())),
            // Round 2: dᶦ(v) = #ACTIVE (truncated by b = 3); announce it.
            S::A2 => {
                let deg = obs.get(L::Active.letter()).raw();
                Transitions::det(S::A3 { deg }, Some(L::deg(deg).letter()))
            }
            // Round 3: RandColor proposal / wait / idle.
            S::A3 { deg } => {
                if Self::waits(deg, obs) {
                    return Transitions::det(
                        S::Waiting {
                            round: 4,
                            seen_cols: Self::color_counts(obs),
                            seen_waiting: obs.get(L::Waiting.letter()).raw(),
                            parent_active: true,
                        },
                        Some(L::Waiting.letter()),
                    );
                }
                if !Self::runs_rand_color(deg, obs) {
                    return Transitions::det(S::A4Idle, None);
                }
                let free: Choices<_> = Self::free_colors(obs)
                    .map(|c| (S::A4 { color: c }, Some(L::prop(c).letter())))
                    .collect();
                assert!(
                    !free.is_empty(),
                    "invariant |C(v)| ≥ min(dᶦ(v)+1, 3) violated: a \
                     RandColor-eligible node found no free color (is the \
                     graph a tree?)"
                );
                Transitions::uniform(free)
            }
            // Round 4: keep the color unless a same-color proposal landed.
            S::A4 { color } => {
                if obs.get(L::prop(color).letter()).is_zero() {
                    Transitions::det(S::Colored { color }, Some(L::col(color).letter()))
                } else {
                    Transitions::det(S::A1, None)
                }
            }
            S::A4Idle => Transitions::det(S::A1, None),
            // WAITING: cycle through the phase; the round-2 check fires the
            // wake rule (module docs).
            S::Waiting {
                round,
                seen_cols,
                seen_waiting,
                parent_active,
            } => {
                let stay = |round: u8| S::Waiting {
                    round,
                    seen_cols,
                    seen_waiting,
                    parent_active,
                };
                match round {
                    4 => Transitions::det(stay(1), None),
                    1 => Transitions::det(stay(2), None),
                    2 => {
                        let cur_cols = Self::color_counts(obs);
                        let cur_waiting = obs.get(L::Waiting.letter()).raw();
                        let cur_active = !obs.get(L::Active.letter()).is_zero();
                        let color_progress = cur_cols
                            .iter()
                            .zip(seen_cols.iter())
                            .any(|(cur, seen)| cur > seen);
                        // Parent left the active forest this phase without
                        // a new WAITING announcement ⇒ it colored. When
                        // f₃(#WAITING) was already saturated the parent's
                        // announcement would be invisible, so the drop is
                        // ambiguous — sleep, and rely on the eventual
                        // color-progress cascade (waking here is the trap
                        // that lets a sleeping hub's palette be consumed).
                        let parent_colored = parent_active
                            && !cur_active
                            && cur_waiting <= seen_waiting
                            && seen_waiting < 3;
                        if color_progress || parent_colored {
                            Transitions::det(S::Rejoining { round: 3 }, None)
                        } else {
                            Transitions::det(
                                S::Waiting {
                                    round: 3,
                                    seen_cols: cur_cols,
                                    seen_waiting: cur_waiting,
                                    parent_active: cur_active,
                                },
                                None,
                            )
                        }
                    }
                    3 => Transitions::det(stay(4), None),
                    _ => unreachable!("phase rounds are 1..=4"),
                }
            }
            S::Rejoining { round } => match round {
                3 => Transitions::det(S::Rejoining { round: 4 }, None),
                4 => Transitions::det(S::A1, None),
                _ => unreachable!("rejoining spans rounds 3 and 4"),
            },
            // COLORED: silent sink.
            S::Colored { color } => Transitions::det(S::Colored { color }, None),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stoneage_core::Protocol as _;
    use stoneage_graph::{generators, validate, Graph};
    use stoneage_sim::{ExecError, Outcome, Simulation};

    /// The coloring protocol on `g` from `seed`.
    fn run(g: &Graph, seed: u64) -> Outcome<ColoringProtocol> {
        let p = ColoringProtocol::new();
        Simulation::sync(&p, g).seed(seed).run().unwrap()
    }

    #[test]
    fn snap_state_round_trips_and_rejects_bad_tags() {
        use stoneage_sim::{SnapReader, SnapState, SnapWriter, SnapshotError};
        let states = [
            ColoringState::A1,
            ColoringState::A2,
            ColoringState::A3 { deg: 3 },
            ColoringState::A4 { color: 2 },
            ColoringState::A4Idle,
            ColoringState::Waiting {
                round: 4,
                seen_cols: [0, 2, 3],
                seen_waiting: 1,
                parent_active: true,
            },
            ColoringState::Rejoining { round: 3 },
            ColoringState::Colored { color: 1 },
        ];
        let mut w = SnapWriter::new();
        for s in &states {
            s.encode(&mut w);
        }
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes, "test");
        for s in &states {
            assert_eq!(ColoringState::decode(&mut r).unwrap(), *s);
        }
        for bad in [[0xFFu8], [8u8]] {
            let mut r = SnapReader::new(&bad, "test");
            assert_eq!(
                ColoringState::decode(&mut r),
                Err(SnapshotError::DigestMismatch {
                    field: "coloring state tag"
                })
            );
        }
        // A Waiting frame with a non-boolean flag byte is rejected too.
        let mut r = SnapReader::new(&[5, 1, 0, 0, 0, 0, 9], "test");
        assert!(ColoringState::decode(&mut r).is_err());
    }

    fn obs(counts: [usize; 13]) -> ObsVec {
        ObsVec::from_counts(&counts, 3)
    }

    fn obs_with(pairs: &[(L, usize)]) -> ObsVec {
        let mut counts = [0usize; 13];
        for &(l, c) in pairs {
            counts[l as usize] = c;
        }
        obs(counts)
    }

    #[test]
    fn alphabet_has_thirteen_letters() {
        let p = ColoringProtocol::new();
        assert_eq!(p.alphabet().len(), 13);
        assert_eq!(p.bound(), 3);
        assert_eq!(p.initial_letter(), L::Init.letter());
    }

    #[test]
    fn round1_announces_active() {
        let p = ColoringProtocol::new();
        let t = p.delta(&ColoringState::A1, &obs([0; 13]));
        assert_eq!(
            t.choices,
            vec![(ColoringState::A2, Some(L::Active.letter()))]
        );
    }

    #[test]
    fn round2_reads_truncated_degree() {
        let p = ColoringProtocol::new();
        for (active, expected) in [(0usize, 0u8), (1, 1), (2, 2), (3, 3), (9, 3)] {
            let t = p.delta(&ColoringState::A2, &obs_with(&[(L::Active, active)]));
            assert_eq!(
                t.choices,
                vec![(
                    ColoringState::A3 { deg: expected },
                    Some(L::deg(expected).letter())
                )],
                "active = {active}"
            );
        }
    }

    #[test]
    fn isolated_active_node_proposes_from_free_colors() {
        let p = ColoringProtocol::new();
        // Degree 0, neighbors colored 1 and 2 → must propose 3.
        let o = obs_with(&[(L::Col1, 2), (L::Col2, 1)]);
        let t = p.delta(&ColoringState::A3 { deg: 0 }, &o);
        assert_eq!(
            t.choices,
            vec![(ColoringState::A4 { color: 3 }, Some(L::Prop3.letter()))]
        );
    }

    #[test]
    fn leaf_next_to_leaf_runs_rand_color() {
        let p = ColoringProtocol::new();
        let o = obs_with(&[(L::Deg1, 1)]);
        let t = p.delta(&ColoringState::A3 { deg: 1 }, &o);
        // All three colors free → three uniform proposals.
        assert_eq!(t.choices.len(), 3);
        assert!(t
            .choices
            .iter()
            .all(|(s, _)| matches!(s, ColoringState::A4 { .. })));
    }

    #[test]
    fn leaf_next_to_big_neighbor_waits() {
        let p = ColoringProtocol::new();
        for big in [L::Deg2, L::Deg3p] {
            let o = obs_with(&[(big, 1)]);
            let t = p.delta(&ColoringState::A3 { deg: 1 }, &o);
            assert_eq!(
                t.choices,
                vec![(
                    ColoringState::Waiting {
                        round: 4,
                        seen_cols: [0, 0, 0],
                        seen_waiting: 0,
                        parent_active: true,
                    },
                    Some(L::Waiting.letter())
                )],
                "neighbor class {big:?}"
            );
        }
        // The entry snapshot records truncated color and waiting counts.
        let o = obs_with(&[(L::Deg3p, 1), (L::Col2, 4), (L::Waiting, 2)]);
        let t = p.delta(&ColoringState::A3 { deg: 1 }, &o);
        assert_eq!(
            t.choices,
            vec![(
                ColoringState::Waiting {
                    round: 4,
                    seen_cols: [0, 3, 0],
                    seen_waiting: 2,
                    parent_active: true,
                },
                Some(L::Waiting.letter())
            )]
        );
    }

    #[test]
    fn degree2_with_heavy_neighbor_idles() {
        let p = ColoringProtocol::new();
        let o = obs_with(&[(L::Deg3p, 1), (L::Deg2, 1)]);
        let t = p.delta(&ColoringState::A3 { deg: 2 }, &o);
        assert_eq!(t.choices, vec![(ColoringState::A4Idle, None)]);
        // Both neighbors small → RandColor.
        let o = obs_with(&[(L::Deg2, 2)]);
        let t = p.delta(&ColoringState::A3 { deg: 2 }, &o);
        assert_eq!(t.choices.len(), 3);
    }

    #[test]
    fn high_degree_nodes_idle() {
        let p = ColoringProtocol::new();
        let t = p.delta(&ColoringState::A3 { deg: 3 }, &obs([0; 13]));
        assert_eq!(t.choices, vec![(ColoringState::A4Idle, None)]);
    }

    #[test]
    fn conflicting_proposal_stays_active() {
        let p = ColoringProtocol::new();
        let o = obs_with(&[(L::Prop2, 1)]);
        let t = p.delta(&ColoringState::A4 { color: 2 }, &o);
        assert_eq!(t.choices, vec![(ColoringState::A1, None)]);
        // Different-color proposals don't conflict.
        let t = p.delta(&ColoringState::A4 { color: 1 }, &o);
        assert_eq!(
            t.choices,
            vec![(ColoringState::Colored { color: 1 }, Some(L::Col1.letter()))]
        );
    }

    fn waiting2(seen_cols: [u8; 3], seen_waiting: u8, parent_active: bool) -> ColoringState {
        ColoringState::Waiting {
            round: 2,
            seen_cols,
            seen_waiting,
            parent_active,
        }
    }

    #[test]
    fn waiting_rejoins_when_parent_colors() {
        let p = ColoringProtocol::new();
        // Parent still active, no new colors: keep waiting (snapshots
        // refreshed).
        let t = p.delta(&waiting2([0; 3], 0, true), &obs_with(&[(L::Active, 1)]));
        assert_eq!(
            t.choices,
            vec![(
                ColoringState::Waiting {
                    round: 3,
                    seen_cols: [0; 3],
                    seen_waiting: 0,
                    parent_active: true,
                },
                None
            )]
        );
        // Parent gone with no new WAITING announcement ⇒ it colored:
        // rejoin through rounds 3, 4, then A1.
        let t = p.delta(&waiting2([0; 3], 0, true), &obs([0; 13]));
        assert_eq!(
            t.choices,
            vec![(ColoringState::Rejoining { round: 3 }, None)]
        );
        let t = p.delta(&ColoringState::Rejoining { round: 3 }, &obs([0; 13]));
        assert_eq!(
            t.choices,
            vec![(ColoringState::Rejoining { round: 4 }, None)]
        );
        let t = p.delta(&ColoringState::Rejoining { round: 4 }, &obs([0; 13]));
        assert_eq!(t.choices, vec![(ColoringState::A1, None)]);
    }

    #[test]
    fn waiting_sleeps_through_parent_stepping_aside() {
        let p = ColoringProtocol::new();
        // Parent disappeared but #WAITING rose in the same phase: the
        // parent stepped deeper into the waiting hierarchy — do NOT wake
        // (this exact premature wake once consumed a hub's whole palette).
        let t = p.delta(&waiting2([0; 3], 0, true), &obs_with(&[(L::Waiting, 1)]));
        assert_eq!(
            t.choices,
            vec![(
                ColoringState::Waiting {
                    round: 3,
                    seen_cols: [0; 3],
                    seen_waiting: 1,
                    parent_active: false,
                },
                None
            )]
        );
    }

    #[test]
    fn waiting_wakes_on_color_progress() {
        let p = ColoringProtocol::new();
        // Entered with one color-2 neighbor; color 2 staying put does not
        // wake...
        let t = p.delta(
            &waiting2([0, 1, 0], 0, true),
            &obs_with(&[(L::Active, 1), (L::Col2, 1)]),
        );
        assert!(matches!(
            t.choices[0].0,
            ColoringState::Waiting { round: 3, .. }
        ));
        // ...a fresh color-1 appearance wakes (class flip)...
        let t = p.delta(
            &waiting2([0, 1, 0], 0, true),
            &obs_with(&[(L::Active, 1), (L::Col2, 1), (L::Col1, 1)]),
        );
        assert_eq!(
            t.choices,
            vec![(ColoringState::Rejoining { round: 3 }, None)]
        );
        // ...and so does another color-2 coloring below saturation.
        let t = p.delta(
            &waiting2([0, 1, 0], 0, true),
            &obs_with(&[(L::Active, 1), (L::Col2, 2)]),
        );
        assert_eq!(
            t.choices,
            vec![(ColoringState::Rejoining { round: 3 }, None)]
        );
    }

    #[test]
    fn colored_is_silent_sink_with_output() {
        let p = ColoringProtocol::new();
        for c in 1..=3u8 {
            let s = ColoringState::Colored { color: c };
            assert_eq!(p.output(&s), Some(c as u64));
            let t = p.delta(&s, &obs([5; 13]));
            assert_eq!(t.choices, vec![(s, None)]);
        }
        assert_eq!(p.output(&ColoringState::A1), None);
    }

    #[test]
    fn single_node_colors_immediately() {
        let g = stoneage_graph::Graph::empty(1);
        let out = run(&g, 0);
        assert_eq!(out.rounds(), Some(4)); // one phase
        assert!((1..=3).contains(&out.outputs[0]));
    }

    #[test]
    fn colors_many_tree_families_properly() {
        let trees: Vec<(&str, stoneage_graph::Graph)> = vec![
            ("path", generators::path(50)),
            ("star", generators::star(40)),
            ("binary", generators::kary_tree(63, 2)),
            ("ternary", generators::kary_tree(40, 3)),
            ("caterpillar", generators::caterpillar(10, 3)),
            ("random", generators::random_tree(80, 1)),
            ("two-node", generators::path(2)),
            ("empty", stoneage_graph::Graph::empty(6)),
        ];
        for (name, g) in &trees {
            for seed in 0..4 {
                let out = Simulation::sync(&ColoringProtocol::new(), g)
                    .seed(seed)
                    .run();
                let out = out.unwrap_or_else(|e| panic!("{name} seed {seed}: {e}"));
                let colors = crate::decode_coloring(&out.outputs);
                assert!(
                    validate::is_proper_k_coloring(g, &colors, 3),
                    "{name} seed {seed}: {colors:?}"
                );
                assert_eq!(out.rounds().unwrap() % 4, 0, "{name}: phases are 4 rounds");
            }
        }
    }

    #[test]
    fn forest_of_trees_colors_too() {
        // The protocol never uses connectivity; a forest works.
        let mut b = stoneage_graph::GraphBuilder::new(9);
        for (u, v) in [(0, 1), (1, 2), (3, 4), (5, 6), (6, 7), (6, 8)] {
            b.add_edge(u, v);
        }
        let g = b.build();
        let out = run(&g, 9);
        let colors = crate::decode_coloring(&out.outputs);
        assert!(validate::is_proper_k_coloring(&g, &colors, 3));
    }

    #[test]
    fn star_takes_two_waves() {
        // Leaves wait on the center; center colors once isolated; leaves
        // rejoin and color. Total: a constant number of phases.
        let g = generators::star(20);
        let out = run(&g, 2);
        let colors = crate::decode_coloring(&out.outputs);
        assert!(validate::is_proper_k_coloring(&g, &colors, 3));
        let rounds = out.rounds().unwrap();
        assert!(rounds <= 6 * 4, "rounds = {rounds}");
    }

    #[test]
    fn non_tree_input_is_detected_or_times_out() {
        // On a cycle of length 4 the protocol may deadlock (all degree 2,
        // RandColor eligible, but C(v) can empty out on odd structures) or
        // in the worst case violate the free-color invariant. We accept
        // either a timeout, a panic, or — on even cycles — possibly a
        // proper coloring; what must never happen is a silent *improper*
        // output. (The paper restricts the protocol to trees.)
        let g = generators::cycle(7);
        let result = std::panic::catch_unwind(|| {
            let p = ColoringProtocol::new();
            Simulation::sync(&p, &g).seed(3).budget(4_000).run()
        });
        match result {
            Ok(Ok(out)) => {
                let colors = crate::decode_coloring(&out.outputs);
                assert!(validate::is_proper_k_coloring(&g, &colors, 3));
            }
            Ok(Err(ExecError::RoundLimit { .. })) => {}
            Ok(Err(e)) => panic!("unexpected error {e}"),
            Err(_) => {} // invariant assertion fired — acceptable off-spec
        }
    }

    #[test]
    fn path_run_time_is_logarithmic_not_linear() {
        // Θ(log n) phases: even a 4096-node path finishes fast.
        let g = generators::path(4096);
        let out = run(&g, 5);
        let colors = crate::decode_coloring(&out.outputs);
        assert!(validate::is_proper_k_coloring(&g, &colors, 3));
        let rounds = out.rounds().unwrap();
        assert!(rounds < 400, "expected O(log n) rounds, got {rounds}");
    }
}
