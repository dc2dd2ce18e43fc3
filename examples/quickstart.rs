//! Quickstart: run the paper's MIS protocol on a random graph, validate
//! the result, and peek at the tournament machinery.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use stoneage::graph::{generators, validate};
use stoneage::protocols::{decode_mis, mis::analysis::MisObserver, MisProtocol};
use stoneage::sim::Simulation;

fn main() {
    let n = 500;
    let g = generators::gnp(n, 8.0 / n as f64, 42);
    println!(
        "graph: G({n}, 8/n) with {} edges, max degree {}",
        g.edge_count(),
        g.max_degree()
    );

    // Run the seven-state, b = 1 MIS machine of the paper's Figure 1 on
    // the synchronous backend, with an observer recording tournaments.
    let protocol = MisProtocol::new();
    let mut observer = MisObserver::new(n);
    let out = Simulation::sync(&protocol, &g)
        .seed(7)
        .observe(&mut observer)
        .run()
        .expect("the MIS protocol terminates with probability 1");

    let mis = decode_mis(&out.outputs);
    let size = mis.iter().filter(|&&x| x).count();
    assert!(
        validate::is_maximal_independent_set(&g, &mis),
        "every output configuration must be an MIS (paper, Section 2)"
    );
    let rounds = out.rounds().unwrap();
    println!(
        "MIS of {size} nodes in {rounds} rounds ({} messages) — valid ✓",
        out.messages_sent().unwrap()
    );
    println!(
        "rounds / log²n = {:.2}  (Theorem 4.5: O(log² n))",
        rounds as f64 / (n as f64).log2().powi(2)
    );

    // Tournament telemetry: lengths are Geom(1/2) + 2 distributed.
    let mut lengths: Vec<u32> = (0..n)
        .flat_map(|v| observer.tournament_lengths(v))
        .collect();
    lengths.sort_unstable();
    let mean = lengths.iter().map(|&x| x as f64).sum::<f64>() / lengths.len() as f64;
    println!(
        "{} tournaments, mean length {mean:.2} (theory: 4.0), max {}",
        lengths.len(),
        lengths.last().unwrap()
    );

    // Edge decay across the virtual graphs G^i (Lemma 4.3).
    let counts = observer.edge_counts(&g);
    print!("|E^i| per tournament:");
    for c in counts.iter().take(8) {
        print!(" {c}");
    }
    println!("{}", if counts.len() > 8 { " …" } else { "" });
}
