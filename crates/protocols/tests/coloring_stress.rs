//! Stress tests for the tree 3-coloring protocol's waiting-hierarchy
//! corner cases.
//!
//! The wake rule of a WAITING node (see `coloring.rs` module docs) has two
//! historical failure modes, both reproduced and fixed during development:
//!
//! 1. waking when the waited-on neighbor merely stepped deeper into the
//!    waiting hierarchy (premature wake — leaves consumed a sleeping hub's
//!    entire palette);
//! 2. missing the parent's `WAITING` announcement because `f₃(#WAITING)`
//!    was saturated by three waiting children (the 24-node tree from
//!    Prüfer seed 5 below), again stranding a node with zero free colors.
//!
//! These tests sweep thousands of (tree, seed) pairs — including the exact
//! historical counterexamples — and assert every run terminates with a
//! proper 3-coloring.

use stoneage_graph::io::from_edge_list;
use stoneage_graph::{generators, validate};
use stoneage_protocols::{decode_coloring, ColoringProtocol};
use stoneage_sim::Simulation;

fn assert_colors(g: &stoneage_graph::Graph, seed: u64, label: &str) {
    let p = ColoringProtocol::new();
    let out = Simulation::sync(&p, g).seed(seed).budget(100_000).run();
    let out = out.unwrap_or_else(|e| panic!("{label} seed {seed}: {e}"));
    let colors = decode_coloring(&out.outputs);
    assert!(
        validate::is_proper_k_coloring(g, &colors, 3),
        "{label} seed {seed}: improper coloring"
    );
}

/// The 7-node tree that exposed failure mode 1.
#[test]
fn historical_counterexample_premature_wake() {
    let g = from_edge_list("7 6\n0 3\n0 5\n1 2\n1 3\n2 4\n2 6\n").unwrap();
    for seed in 0..50 {
        assert_colors(&g, seed, "premature-wake tree");
    }
}

/// The 24-node tree that exposed failure mode 2 (saturated #WAITING).
#[test]
fn historical_counterexample_saturated_waiting() {
    let g = from_edge_list(
        "24 23\n0 11\n0 22\n1 17\n2 17\n3 8\n4 8\n4 12\n4 22\n5 8\n6 18\n7 12\n\
         8 15\n9 11\n9 16\n10 18\n11 21\n12 18\n13 17\n13 19\n14 21\n14 23\n17 20\n18 20\n",
    )
    .unwrap();
    for seed in 0..50 {
        assert_colors(&g, seed, "saturated-waiting tree");
    }
}

#[test]
fn random_tree_sweep() {
    for n in [3usize, 5, 8, 13, 21, 34, 55, 89] {
        for gseed in 0..12u64 {
            let g = generators::random_tree(n, gseed);
            for seed in 0..6u64 {
                assert_colors(&g, seed, &format!("random tree n={n} gseed={gseed}"));
            }
        }
    }
}

#[test]
fn deep_waiting_hierarchies() {
    // Caterpillars and broom-like shapes maximize waiting-chain depth and
    // waiting-children saturation simultaneously.
    for (label, g) in [
        ("caterpillar", generators::caterpillar(20, 4)),
        ("broom", generators::caterpillar(2, 12)),
        ("star", generators::star(50)),
        ("double-star", {
            let mut b = stoneage_graph::GraphBuilder::new(22);
            for v in 2..12 {
                b.add_edge(0, v);
            }
            for v in 12..22 {
                b.add_edge(1, v);
            }
            b.add_edge(0, 1);
            b.build()
        }),
        ("spider", {
            // Center with 6 legs of length 4.
            let mut b = stoneage_graph::GraphBuilder::new(25);
            let mut next = 1u32;
            for _ in 0..6 {
                let mut prev = 0u32;
                for _ in 0..4 {
                    b.add_edge(prev, next);
                    prev = next;
                    next += 1;
                }
            }
            b.build()
        }),
    ] {
        for seed in 0..20 {
            assert_colors(&g, seed, label);
        }
    }
}

#[test]
#[ignore = "long-running exhaustive sweep; run with --ignored"]
fn exhaustive_small_trees() {
    for n in 3..45 {
        for gseed in 0..40u64 {
            let g = generators::random_tree(n, gseed);
            for seed in 0..40u64 {
                assert_colors(&g, seed, &format!("n={n} gseed={gseed}"));
            }
        }
    }
}
