//! Instrumentation for the coloring protocol's analysis quantities:
//! per-phase sizes of the active sets `V^i` and of the never-waited sets
//! `Ṽ^i`, whose geometric decay (Observation 5.3) drives Theorem 5.4.

use stoneage_sim::Observer;

use super::ColoringState;

/// Per-phase telemetry of a synchronous coloring run.
///
/// Plug into a [`stoneage_sim::Simulation`] run with
/// [`stoneage_sim::Simulation::observe`]; phases are the
/// protocol's four-round blocks, sampled at each round `r ≡ 1 (mod 4)`
/// (the start of a phase, after round-`r` transitions — i.e. the
/// population that transmitted `I am ACTIVE`).
#[derive(Clone, Debug)]
pub struct ColoringObserver {
    ever_waited: Vec<bool>,
    /// `active[i]` = |V^{i+1}|: nodes in ACTIVE mode at phase `i+1`.
    active: Vec<usize>,
    /// `never_waited_active[i]` = |Ṽ^{i+1}|.
    never_waited_active: Vec<usize>,
    /// Colored nodes per sampled phase.
    colored: Vec<usize>,
}

impl ColoringObserver {
    /// An observer for an `n`-node execution.
    pub fn new(n: usize) -> Self {
        ColoringObserver {
            ever_waited: vec![false; n],
            active: Vec::new(),
            never_waited_active: Vec::new(),
            colored: Vec::new(),
        }
    }

    /// `|V^i|` per phase (1-based: entry 0 is phase 1).
    pub fn active_sizes(&self) -> &[usize] {
        &self.active
    }

    /// `|Ṽ^i|` per phase — the quantity of Observation 5.3.
    pub fn never_waited_sizes(&self) -> &[usize] {
        &self.never_waited_active
    }

    /// Colored-node counts per phase.
    pub fn colored_sizes(&self) -> &[usize] {
        &self.colored
    }

    /// The per-phase decay ratios `|Ṽ^{i+1}| / |Ṽ^i|` (skipping empty
    /// phases).
    pub fn decay_ratios(&self) -> Vec<f64> {
        self.never_waited_active
            .windows(2)
            .filter(|w| w[0] > 0)
            .map(|w| w[1] as f64 / w[0] as f64)
            .collect()
    }
}

fn is_active(s: &ColoringState) -> bool {
    !matches!(
        s,
        ColoringState::Colored { .. }
            | ColoringState::Waiting { .. }
            | ColoringState::Rejoining { .. }
    )
}

impl Observer<ColoringState> for ColoringObserver {
    fn on_round_end(&mut self, round: u64, states: &[ColoringState]) {
        for (v, s) in states.iter().enumerate() {
            if matches!(s, ColoringState::Waiting { .. }) {
                self.ever_waited[v] = true;
            }
        }
        // Sample at the start of each phase (rounds 1, 5, 9, …: the A1
        // transition has just fired, so ACTIVE nodes are in A2).
        if round % 4 == 1 {
            let active = states.iter().filter(|s| is_active(s)).count();
            let never = states
                .iter()
                .enumerate()
                .filter(|(v, s)| is_active(s) && !self.ever_waited[*v])
                .count();
            let colored = states
                .iter()
                .filter(|s| matches!(s, ColoringState::Colored { .. }))
                .count();
            self.active.push(active);
            self.never_waited_active.push(never);
            self.colored.push(colored);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ColoringProtocol;
    use stoneage_graph::generators;
    use stoneage_sim::Simulation;

    fn observe(n: usize, gseed: u64, seed: u64) -> ColoringObserver {
        let g = generators::random_tree(n, gseed);
        let mut obs = ColoringObserver::new(n);
        let p = ColoringProtocol::new();
        let sim = Simulation::sync(&p, &g).seed(seed).observe(&mut obs);
        sim.run().expect("coloring terminates");
        obs
    }

    #[test]
    fn phase_one_has_everyone_active() {
        let obs = observe(100, 1, 2);
        assert_eq!(obs.active_sizes()[0], 100);
        assert_eq!(obs.never_waited_sizes()[0], 100);
        assert_eq!(obs.colored_sizes()[0], 0);
    }

    #[test]
    fn never_waited_sets_shrink_monotonically() {
        let obs = observe(200, 3, 4);
        let sizes = obs.never_waited_sizes();
        for w in sizes.windows(2) {
            assert!(w[1] <= w[0], "Ṽ must shrink: {sizes:?}");
        }
        assert_eq!(*sizes.last().unwrap(), 0, "Ṽ reaches ∅");
    }

    #[test]
    fn colored_counts_are_monotone_and_complete() {
        let obs = observe(150, 5, 6);
        let colored = obs.colored_sizes();
        for w in colored.windows(2) {
            assert!(w[1] >= w[0]);
        }
    }

    #[test]
    fn observation_5_3_constant_factor_decay_on_average() {
        // Mean per-phase decay of |Ṽ^i| bounded away from 1 (Obs 5.3's
        // constants exist; measured ones are comfortably below 1).
        let mut ratios = Vec::new();
        for seed in 0..6 {
            let obs = observe(300, seed, seed + 10);
            ratios.extend(obs.decay_ratios());
        }
        let mean = ratios.iter().sum::<f64>() / ratios.len() as f64;
        assert!(mean < 0.9, "mean Ṽ decay ratio {mean}");
    }
}
