//! Instrumentation for the MIS protocol's analysis quantities:
//! tournament lengths (`X_v(i) ~ Geom(1/2) + 2`), the per-tournament
//! survivor sets `V^i`, and the virtual-graph edge counts `|E^i|` whose
//! decay drives Theorem 4.5 via Lemma 4.3.

use stoneage_graph::Graph;
use stoneage_sim::Observer;

use super::MisState;

/// Per-node tournament telemetry collected during a synchronous MIS run.
///
/// Plug into a [`stoneage_sim::Simulation`] run with
/// [`stoneage_sim::Simulation::observe`]; afterwards query
/// [`MisObserver::tournament_turns`], [`MisObserver::edge_counts`], etc.
#[derive(Clone, Debug)]
pub struct MisObserver {
    prev: Vec<MisState>,
    /// `turns[v][i]` = number of turns node `v` spent in its tournament
    /// `i+1` (a *turn* is a maximal run of rounds in one state).
    turns: Vec<Vec<u32>>,
    /// Round at which each node reached an output state (0 = never).
    finished_round: Vec<u64>,
    /// Whether the node ended in `WIN`.
    won: Vec<bool>,
    rounds_seen: u64,
}

impl MisObserver {
    /// An observer for an `n`-node execution (all nodes start in `DOWN1`,
    /// which opens tournament 1 with its first turn).
    pub fn new(n: usize) -> Self {
        MisObserver {
            prev: vec![MisState::Down1; n],
            turns: vec![vec![1]; n],
            finished_round: vec![0; n],
            won: vec![false; n],
            rounds_seen: 0,
        }
    }

    /// Number of tournaments node `v` participated in.
    pub fn tournament_count(&self, v: usize) -> usize {
        self.turns[v].len()
    }

    /// Raw turn counts per tournament for node `v` (no convention
    /// adjustment; see [`MisObserver::tournament_lengths`]).
    pub fn tournament_turns(&self, v: usize) -> &[u32] {
        &self.turns[v]
    }

    /// The paper's `X_v(i)` values for node `v`: raw turn counts, with the
    /// final tournament adjusted by `+1` (Section 4, "Geometric Random
    /// Variables") — the adjustment compensates for the `DOWN2`-turn a
    /// *winning* tournament skips (`UP → WIN`), so it applies only when
    /// the node ended in `WIN`; a loser's last tournament does pass
    /// through `DOWN2`.
    pub fn tournament_lengths(&self, v: usize) -> Vec<u32> {
        let mut lengths = self.turns[v].clone();
        if self.won[v] {
            if let Some(last) = lengths.last_mut() {
                *last += 1;
            }
        }
        lengths
    }

    /// Whether node `v` ended in `WIN`.
    pub fn won(&self, v: usize) -> bool {
        self.won[v]
    }

    /// Round at which node `v` entered `WIN`/`LOSE` (0 if still active).
    pub fn finished_round(&self, v: usize) -> u64 {
        self.finished_round[v]
    }

    /// Rounds observed so far.
    pub fn rounds(&self) -> u64 {
        self.rounds_seen
    }

    /// The survivor sets: `survivors(i)[v]` is true iff tournament `i`
    /// (1-based) of `v` exists, i.e. `v ∈ V^i`.
    pub fn survivors(&self, i: usize) -> Vec<bool> {
        assert!(i >= 1, "tournaments are 1-based");
        self.turns.iter().map(|t| t.len() >= i).collect()
    }

    /// The maximal tournament index that exists for any node.
    pub fn max_tournament(&self) -> usize {
        self.turns.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// `|E^i|` for `i = 1 ..= max_tournament()`: the edge counts of the
    /// virtual graphs `G^i` induced by `V^i` (Section 4). Lemma 4.3 predicts
    /// geometric decay; experiment E3 measures the per-step ratios.
    pub fn edge_counts(&self, g: &Graph) -> Vec<usize> {
        (1..=self.max_tournament())
            .map(|i| g.surviving_edges(&self.survivors(i)))
            .collect()
    }
}

impl Observer<MisState> for MisObserver {
    fn on_round_end(&mut self, round: u64, states: &[MisState]) {
        self.rounds_seen = round;
        for (v, (&now, prev)) in states.iter().zip(self.prev.iter_mut()).enumerate() {
            if now == *prev {
                continue;
            }
            match now {
                MisState::Win | MisState::Lose => {
                    if self.finished_round[v] == 0 {
                        self.finished_round[v] = round;
                        self.won[v] = now == MisState::Win;
                    }
                }
                MisState::Down1 => {
                    // A new tournament opens with its DOWN1 turn.
                    self.turns[v].push(1);
                }
                _ => {
                    // A new turn within the current tournament.
                    if let Some(t) = self.turns[v].last_mut() {
                        *t += 1;
                    }
                }
            }
            *prev = now;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MisProtocol;
    use stoneage_graph::{generators, validate};
    use stoneage_sim::Simulation;

    fn run_observed(g: &Graph, seed: u64) -> (MisObserver, Vec<bool>) {
        let p = MisProtocol::new();
        let mut obs = MisObserver::new(g.node_count());
        let sim = Simulation::sync(&p, g).seed(seed).observe(&mut obs);
        let out = sim.run().unwrap();
        (obs, crate::decode_mis(&out.outputs))
    }

    #[test]
    fn every_node_has_at_least_one_tournament() {
        let g = generators::gnp(50, 0.1, 1);
        let (obs, mis) = run_observed(&g, 2);
        assert!(validate::is_maximal_independent_set(&g, &mis));
        for v in 0..50 {
            assert!(obs.tournament_count(v) >= 1);
            assert!(obs.finished_round(v) >= 1);
        }
    }

    #[test]
    fn tournament_lengths_are_at_least_two_adjusted() {
        // X_v(i) = Geom(1/2) + 2 ≥ 3 for every tournament (DOWN1 +
        // ≥1 UP + DOWN2, with winners' final tournaments adjusted +1 for
        // the skipped DOWN2).
        let g = generators::gnp(40, 0.15, 3);
        let (obs, _) = run_observed(&g, 4);
        for v in 0..40 {
            for (i, &x) in obs.tournament_lengths(v).iter().enumerate() {
                assert!(x >= 3, "node {v} tournament {} length {x}", i + 1);
            }
        }
    }

    #[test]
    fn survivor_sets_are_nested() {
        let g = generators::gnp(60, 0.1, 5);
        let (obs, _) = run_observed(&g, 6);
        let maxi = obs.max_tournament();
        assert!(maxi >= 1);
        for i in 1..maxi {
            let a = obs.survivors(i);
            let b = obs.survivors(i + 1);
            for v in 0..60 {
                assert!(a[v] || !b[v], "V^{} ⊄ V^{} at node {v}", i + 1, i);
            }
        }
        // V^1 is everyone.
        assert!(obs.survivors(1).iter().all(|&x| x));
    }

    #[test]
    fn edge_counts_reach_zero() {
        let g = generators::gnp(50, 0.12, 7);
        let (obs, _) = run_observed(&g, 8);
        let counts = obs.edge_counts(&g);
        assert_eq!(counts[0], g.edge_count());
        // The MIS finishing means some tail tournament has no surviving
        // edges — otherwise two adjacent nodes would still be competing.
        assert!(counts.last().is_none() || *counts.last().unwrap() < g.edge_count());
    }

    #[test]
    fn edge_counts_decay_geometrically_on_average() {
        // Lemma 4.3 with the paper's constant: E|E^{i+1}| < (35/36)|E^i|.
        // Averaged over tournaments and seeds, the measured ratio is far
        // below even 0.9 in practice; assert the safe bound < 0.95.
        let g = generators::gnp(120, 0.08, 9);
        let mut ratios = Vec::new();
        for seed in 0..5 {
            let (obs, _) = run_observed(&g, seed);
            let counts = obs.edge_counts(&g);
            for w in counts.windows(2) {
                if w[0] >= 20 {
                    ratios.push(w[1] as f64 / w[0] as f64);
                }
            }
        }
        assert!(!ratios.is_empty());
        let mean = ratios.iter().sum::<f64>() / ratios.len() as f64;
        assert!(mean < 0.95, "mean decay ratio {mean}");
    }

    #[test]
    fn winners_final_tournament_has_no_down2() {
        // A node that WINs ends its last tournament on an UP turn; the
        // observer's raw turn count is therefore ≥ 2 (DOWN1 + at least one
        // UP turn).
        let g = generators::cycle(30);
        let (obs, mis) = run_observed(&g, 11);
        for (v, &in_mis) in mis.iter().enumerate() {
            if in_mis {
                let turns = obs.tournament_turns(v);
                assert!(*turns.last().unwrap() >= 2, "node {v}: {turns:?}");
            }
        }
    }
}
