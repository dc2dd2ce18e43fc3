//! The asynchronous gauntlet: compile the MIS protocol through both of the
//! paper's black-box transformations (Theorem 3.4 then Theorem 3.1) and
//! run it under every adversarial scheduling policy in the standard panel.
//!
//! The adversary controls every step length `L_{v,t}` and every delivery
//! delay `D_{v,t,u}`; ports have no buffers, so messages are overwritten
//! and lost — and the synchronizer shrugs it all off.
//!
//! ```sh
//! cargo run --release --example adversary_gauntlet
//! ```

use stoneage::core::{SingleLetter, Synchronized};
use stoneage::graph::{generators, validate};
use stoneage::protocols::{decode_mis, MisProtocol};
use stoneage::sim::adversary::standard_panel;
use stoneage::sim::{Detail, Simulation};

fn main() {
    let n = 32;
    let g = generators::gnp(n, 4.0 / n as f64, 5);
    println!(
        "graph: G({n}, 4/n), {} edges; protocol: MIS → SingleLetter (Thm 3.4) → Synchronized (Thm 3.1)",
        g.edge_count()
    );

    let sync_rounds = Simulation::sync(&MisProtocol::new(), &g)
        .seed(3)
        .run()
        .unwrap()
        .rounds()
        .unwrap();
    println!("synchronous reference: {sync_rounds} rounds\n");

    let pipeline = Synchronized::new(SingleLetter::new(MisProtocol::new()));
    println!(
        "compiled alphabet: {} letters (|Σ̂| = 3(|Σ|+1)², |Σ| = 7)\n",
        pipeline.alphabet_size()
    );

    println!(
        "{:<14} {:>12} {:>10} {:>12} {:>10}  result",
        "adversary", "time units", "steps", "deliveries", "lost"
    );
    for adv in standard_panel(17) {
        let out = Simulation::asynchronous(&pipeline, &g, &adv)
            .seed(9)
            .run()
            .expect("Theorem 3.1: terminates under every policy");
        let Detail::Async {
            total_steps,
            deliveries,
            lost_overwrites,
            ..
        } = out.detail
        else {
            unreachable!("an asynchronous run");
        };
        let mis = decode_mis(&out.outputs);
        let ok = validate::is_maximal_independent_set(&g, &mis);
        println!(
            "{:<14} {:>12.1} {:>10} {:>12} {:>10}  {}",
            adv.name(),
            out.cost.value(),
            total_steps,
            deliveries,
            lost_overwrites,
            if ok { "valid MIS ✓" } else { "INVALID ✗" }
        );
        assert!(ok);
    }
    println!("\nall policies produced valid maximal independent sets.");
    println!("note the 'lost' column: under straggler policies the no-buffer");
    println!("port semantics really does drop messages — correctness survives");
    println!("because the synchronizer's pausing feature waits them out.");
}
