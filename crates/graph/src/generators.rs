//! Graph generators used by the experiment sweeps.
//!
//! Every randomized generator takes an explicit `seed` and is fully
//! deterministic given it, so experiments are reproducible. Families were
//! chosen to cover the regimes the paper's analysis distinguishes: sparse
//! and dense Erdős–Rényi graphs, bounded-degree regular graphs, trees (the
//! coloring protocol's domain), paths (the rLBA simulation's domain), grids
//! and tori (the cellular-automaton ancestry of the model), unit-disk graphs
//! (the biological/sensor motivation), and skewed-degree families
//! (Barabási–Albert, redirection-based [`power_law`], and the deterministic
//! [`hub_and_spoke`] stress family) that exercise the parallel engine's
//! load-imbalance regime.

use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use crate::prufer;
use crate::{Graph, GraphBuilder, NodeId};

/// The path `P_n`: nodes `0 — 1 — … — n-1`.
pub fn path(n: usize) -> Graph {
    let mut b = GraphBuilder::new(n);
    for v in 1..n {
        b.add_edge((v - 1) as NodeId, v as NodeId);
    }
    b.build()
}

/// The cycle `C_n` (requires `n >= 3`).
///
/// # Panics
/// Panics if `n < 3`.
pub fn cycle(n: usize) -> Graph {
    assert!(n >= 3, "a cycle needs at least 3 nodes");
    let mut b = GraphBuilder::new(n);
    for v in 1..n {
        b.add_edge((v - 1) as NodeId, v as NodeId);
    }
    b.add_edge((n - 1) as NodeId, 0);
    b.build()
}

/// The complete graph `K_n`.
pub fn complete(n: usize) -> Graph {
    let mut b = GraphBuilder::new(n);
    for u in 0..n {
        for v in (u + 1)..n {
            b.add_edge(u as NodeId, v as NodeId);
        }
    }
    b.build()
}

/// The complete bipartite graph `K_{a,b}`; the first `a` ids form one side.
pub fn complete_bipartite(a: usize, b: usize) -> Graph {
    let mut builder = GraphBuilder::new(a + b);
    for u in 0..a {
        for v in a..(a + b) {
            builder.add_edge(u as NodeId, v as NodeId);
        }
    }
    builder.build()
}

/// The star `K_{1,n-1}` with center node 0.
pub fn star(n: usize) -> Graph {
    assert!(n >= 1);
    let mut b = GraphBuilder::new(n);
    for v in 1..n {
        b.add_edge(0, v as NodeId);
    }
    b.build()
}

/// The `rows × cols` grid (4-neighborhood).
pub fn grid(rows: usize, cols: usize) -> Graph {
    let id = |r: usize, c: usize| (r * cols + c) as NodeId;
    let mut b = GraphBuilder::new(rows * cols);
    for r in 0..rows {
        for c in 0..cols {
            if r + 1 < rows {
                b.add_edge(id(r, c), id(r + 1, c));
            }
            if c + 1 < cols {
                b.add_edge(id(r, c), id(r, c + 1));
            }
        }
    }
    b.build()
}

/// The `rows × cols` torus (grid with wraparound; needs both dims ≥ 3 to
/// stay simple).
///
/// # Panics
/// Panics if `rows < 3` or `cols < 3`.
pub fn torus(rows: usize, cols: usize) -> Graph {
    assert!(rows >= 3 && cols >= 3, "torus dimensions must be >= 3");
    let id = |r: usize, c: usize| (r * cols + c) as NodeId;
    let mut b = GraphBuilder::new(rows * cols);
    for r in 0..rows {
        for c in 0..cols {
            b.add_edge(id(r, c), id((r + 1) % rows, c));
            b.add_edge(id(r, c), id(r, (c + 1) % cols));
        }
    }
    b.build()
}

/// The `d`-dimensional hypercube `Q_d` on `2^d` nodes.
pub fn hypercube(d: u32) -> Graph {
    let n = 1usize << d;
    let mut b = GraphBuilder::new(n);
    for v in 0..n {
        for bit in 0..d {
            let u = v ^ (1usize << bit);
            if u > v {
                b.add_edge(v as NodeId, u as NodeId);
            }
        }
    }
    b.build()
}

/// Balanced `k`-ary tree with `n` nodes; node 0 is the root and node `v`'s
/// parent is `(v - 1) / k`.
pub fn kary_tree(n: usize, k: usize) -> Graph {
    assert!(k >= 1);
    let mut b = GraphBuilder::new(n);
    for v in 1..n {
        b.add_edge(v as NodeId, ((v - 1) / k) as NodeId);
    }
    b.build()
}

/// A caterpillar: a spine path of `spine` nodes, each with `legs` pendant
/// leaves attached.
pub fn caterpillar(spine: usize, legs: usize) -> Graph {
    let n = spine + spine * legs;
    let mut b = GraphBuilder::new(n);
    for v in 1..spine {
        b.add_edge((v - 1) as NodeId, v as NodeId);
    }
    let mut next = spine;
    for s in 0..spine {
        for _ in 0..legs {
            b.add_edge(s as NodeId, next as NodeId);
            next += 1;
        }
    }
    b.build()
}

/// A "ring of cliques": `rings` cliques of `clique` nodes each, with one
/// bridge edge between consecutive cliques. A classic hard-ish MIS topology
/// mixing dense and sparse structure.
pub fn ring_of_cliques(rings: usize, clique: usize) -> Graph {
    assert!(rings >= 3 && clique >= 2);
    let n = rings * clique;
    let mut b = GraphBuilder::new(n);
    let id = |r: usize, i: usize| (r * clique + i) as NodeId;
    for r in 0..rings {
        for i in 0..clique {
            for j in (i + 1)..clique {
                b.add_edge(id(r, i), id(r, j));
            }
        }
        b.add_edge(id(r, clique - 1), id((r + 1) % rings, 0));
    }
    b.build()
}

/// Erdős–Rényi `G(n, p)`: each of the `n(n-1)/2` potential edges present
/// independently with probability `p`. Uses the geometric skipping method,
/// O(n + m) expected time.
pub fn gnp(n: usize, p: f64, seed: u64) -> Graph {
    assert!((0.0..=1.0).contains(&p), "p must be a probability");
    let mut b = GraphBuilder::new(n);
    if p == 0.0 || n < 2 {
        return b.build();
    }
    let mut rng = SmallRng::seed_from_u64(seed);
    if p >= 1.0 {
        return complete(n);
    }
    // Batagelj–Brandes skipping over the lexicographic edge sequence.
    let log_q = (1.0 - p).ln();
    let mut v: i64 = 1;
    let mut w: i64 = -1;
    let n = n as i64;
    while v < n {
        let r: f64 = rng.gen_range(f64::EPSILON..1.0);
        w += 1 + (r.ln() / log_q).floor() as i64;
        while w >= v && v < n {
            w -= v;
            v += 1;
        }
        if v < n {
            b.add_edge(w as NodeId, v as NodeId);
        }
    }
    b.build()
}

/// Erdős–Rényi `G(n, m)`: exactly `m` distinct edges chosen uniformly at
/// random.
///
/// # Panics
/// Panics if `m` exceeds the number of possible edges.
pub fn gnm(n: usize, m: usize, seed: u64) -> Graph {
    let max = n.saturating_mul(n.saturating_sub(1)) / 2;
    assert!(m <= max, "m = {m} exceeds the {max} possible edges");
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut b = GraphBuilder::new(n);
    if m > max / 2 {
        // Dense case: permute all edges and take a prefix.
        let mut all: Vec<(NodeId, NodeId)> = Vec::with_capacity(max);
        for u in 0..n {
            for v in (u + 1)..n {
                all.push((u as NodeId, v as NodeId));
            }
        }
        all.shuffle(&mut rng);
        for &(u, v) in all.iter().take(m) {
            b.add_edge(u, v);
        }
    } else {
        let mut seen = std::collections::HashSet::with_capacity(m * 2);
        while seen.len() < m {
            let u = rng.gen_range(0..n as NodeId);
            let v = rng.gen_range(0..n as NodeId);
            if u == v {
                continue;
            }
            let key = if u < v { (u, v) } else { (v, u) };
            if seen.insert(key) {
                b.add_edge(u, v);
            }
        }
    }
    b.build()
}

/// A uniformly random labeled tree on `n` nodes, via a random Prüfer
/// sequence (Cayley's bijection).
pub fn random_tree(n: usize, seed: u64) -> Graph {
    if n <= 1 {
        return Graph::empty(n);
    }
    if n == 2 {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 1);
        return b.build();
    }
    let mut rng = SmallRng::seed_from_u64(seed);
    let seq: Vec<NodeId> = (0..n - 2).map(|_| rng.gen_range(0..n as NodeId)).collect();
    prufer::decode(&seq)
}

/// A random `d`-regular graph via the configuration (pairing) model with
/// rejection of self-loops/multi-edges; retries until simple.
///
/// # Panics
/// Panics if `n * d` is odd or `d >= n`.
pub fn random_regular(n: usize, d: usize, seed: u64) -> Graph {
    assert!((n * d).is_multiple_of(2), "n*d must be even");
    assert!(d < n, "degree must be below n");
    if d == 0 {
        return Graph::empty(n);
    }
    let mut rng = SmallRng::seed_from_u64(seed);
    'attempt: loop {
        let mut stubs: Vec<NodeId> = (0..n as NodeId)
            .flat_map(|v| std::iter::repeat_n(v, d))
            .collect();
        stubs.shuffle(&mut rng);
        let mut seen = std::collections::HashSet::with_capacity(n * d / 2);
        let mut b = GraphBuilder::new(n);
        for pair in stubs.chunks(2) {
            let (u, v) = (pair[0], pair[1]);
            if u == v {
                continue 'attempt;
            }
            let key = if u < v { (u, v) } else { (v, u) };
            if !seen.insert(key) {
                continue 'attempt;
            }
            b.add_edge(u, v);
        }
        return b.build();
    }
}

/// A random geometric ("unit disk") graph: `n` points uniform in the unit
/// square, edges between pairs at Euclidean distance ≤ `radius`.
///
/// This is the stand-in for the paper's biological cellular networks /
/// sensor networks motivation: interaction is local in space.
pub fn unit_disk(n: usize, radius: f64, seed: u64) -> Graph {
    let mut rng = SmallRng::seed_from_u64(seed);
    let pts: Vec<(f64, f64)> = (0..n)
        .map(|_| (rng.gen::<f64>(), rng.gen::<f64>()))
        .collect();
    unit_disk_from_points(&pts, radius)
}

/// Unit-disk graph over caller-provided points (useful when the caller also
/// wants the embedding, e.g. for visualization).
pub fn unit_disk_from_points(pts: &[(f64, f64)], radius: f64) -> Graph {
    let n = pts.len();
    let r2 = radius * radius;
    // Grid bucketing for near-linear construction.
    let cell = radius.max(1e-9);
    let cells_per_side = (1.0 / cell).ceil().max(1.0) as i64;
    let key = |x: f64, y: f64| {
        let cx = ((x / cell) as i64).min(cells_per_side - 1);
        let cy = ((y / cell) as i64).min(cells_per_side - 1);
        (cx, cy)
    };
    let mut buckets: std::collections::HashMap<(i64, i64), Vec<usize>> =
        std::collections::HashMap::new();
    for (i, &(x, y)) in pts.iter().enumerate() {
        buckets.entry(key(x, y)).or_default().push(i);
    }
    let mut b = GraphBuilder::new(n);
    for (i, &(x, y)) in pts.iter().enumerate() {
        let (cx, cy) = key(x, y);
        for dx in -1..=1 {
            for dy in -1..=1 {
                if let Some(bucket) = buckets.get(&(cx + dx, cy + dy)) {
                    for &j in bucket {
                        if j <= i {
                            continue;
                        }
                        let (px, py) = pts[j];
                        let (ddx, ddy) = (px - x, py - y);
                        if ddx * ddx + ddy * ddy <= r2 {
                            b.add_edge(i as NodeId, j as NodeId);
                        }
                    }
                }
            }
        }
    }
    b.build()
}

/// Barabási–Albert preferential attachment: start from a clique on
/// `m0 = m + 1` nodes, then each new node attaches to `m` distinct existing
/// nodes chosen proportionally to degree.
///
/// # Panics
/// Panics if `n < m + 1` or `m == 0`.
pub fn barabasi_albert(n: usize, m: usize, seed: u64) -> Graph {
    assert!(m >= 1 && n > m);
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut b = GraphBuilder::new(n);
    // Repeated-endpoint list: sampling uniformly from it is degree-biased.
    let mut endpoints: Vec<NodeId> = Vec::new();
    for u in 0..=m {
        for v in (u + 1)..=m {
            b.add_edge(u as NodeId, v as NodeId);
            endpoints.push(u as NodeId);
            endpoints.push(v as NodeId);
        }
    }
    for v in (m + 1)..n {
        let mut targets = std::collections::HashSet::with_capacity(m);
        while targets.len() < m {
            let t = endpoints[rng.gen_range(0..endpoints.len())];
            targets.insert(t);
        }
        for &t in &targets {
            b.add_edge(v as NodeId, t);
            endpoints.push(v as NodeId);
            endpoints.push(t);
        }
    }
    b.build()
}

/// Power-law graph via growing-network-with-redirection (Krapivsky–Redner):
/// start from a star on `m + 1` nodes centered at node 0, then each new
/// node `v` picks `m` distinct targets, each drawn by choosing a uniform
/// existing node `u` and, with probability `redirect`, walking to `u`'s
/// first attachment point instead. Redirection is equivalent to linear
/// preferential attachment and yields a degree exponent `γ ≈ 1 + 1/redirect`
/// — so `redirect` close to 1 produces the extreme hubs that stress a
/// slot-balanced static shard plan hardest. Exactly `m + (n - m - 1) * m`
/// edges, fully deterministic per seed.
///
/// # Panics
/// Panics if `n < m + 1`, `m == 0`, or `redirect` is outside `[0, 1]`.
pub fn power_law(n: usize, m: usize, redirect: f64, seed: u64) -> Graph {
    assert!(m >= 1 && n > m, "need n > m >= 1");
    assert!(
        (0.0..=1.0).contains(&redirect),
        "redirect must be a probability"
    );
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut b = GraphBuilder::new(n);
    // parent[v] = v's first attachment target; the redirection walk's
    // one-step ancestor. Seed-star leaves all point at the center.
    let mut parent: Vec<NodeId> = vec![0; n];
    for v in 1..=m {
        b.add_edge(0, v as NodeId);
    }
    for v in (m + 1)..n {
        let mut targets = std::collections::HashSet::with_capacity(m);
        let mut first: Option<NodeId> = None;
        while targets.len() < m {
            let mut t: NodeId = rng.gen_range(0..v as NodeId);
            if rng.gen::<f64>() < redirect {
                t = parent[t as usize];
            }
            if targets.insert(t) && first.is_none() {
                first = Some(t);
            }
        }
        parent[v] = first.expect("m >= 1 guarantees a first target");
        for &t in &targets {
            b.add_edge(v as NodeId, t);
        }
    }
    b.build()
}

/// Hub-and-spoke stress family: `hubs` mutually-connected hub nodes
/// (ids `0..hubs`), each carrying `spokes` pendant leaves. Deterministic
/// (no seed): the worst case for uniform per-node scheduling is not
/// random — it is a handful of nodes owning almost every port slot.
///
/// # Panics
/// Panics if `hubs == 0`.
pub fn hub_and_spoke(hubs: usize, spokes: usize) -> Graph {
    assert!(hubs >= 1, "need at least one hub");
    let n = hubs + hubs * spokes;
    let mut b = GraphBuilder::new(n);
    for u in 0..hubs {
        for v in (u + 1)..hubs {
            b.add_edge(u as NodeId, v as NodeId);
        }
    }
    let mut next = hubs;
    for h in 0..hubs {
        for _ in 0..spokes {
            b.add_edge(h as NodeId, next as NodeId);
            next += 1;
        }
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traversal;

    #[test]
    fn path_shape() {
        let g = path(5);
        assert_eq!(g.edge_count(), 4);
        assert_eq!(g.degree(0), 1);
        assert_eq!(g.degree(2), 2);
        assert_eq!(g.degree(4), 1);
        assert!(traversal::is_tree(&g));
    }

    #[test]
    fn path_degenerate_sizes() {
        assert_eq!(path(0).node_count(), 0);
        assert_eq!(path(1).edge_count(), 0);
        assert_eq!(path(2).edge_count(), 1);
    }

    #[test]
    fn cycle_is_2_regular() {
        let g = cycle(7);
        assert_eq!(g.edge_count(), 7);
        assert!(g.nodes().all(|v| g.degree(v) == 2));
        assert!(!traversal::is_tree(&g));
    }

    #[test]
    fn complete_graph_edge_count() {
        let g = complete(6);
        assert_eq!(g.edge_count(), 15);
        assert!(g.nodes().all(|v| g.degree(v) == 5));
    }

    #[test]
    fn complete_bipartite_is_bipartite() {
        let g = complete_bipartite(3, 4);
        assert_eq!(g.edge_count(), 12);
        assert!(traversal::is_bipartite(&g));
    }

    #[test]
    fn star_degrees() {
        let g = star(10);
        assert_eq!(g.degree(0), 9);
        assert!((1..10).all(|v| g.degree(v) == 1));
        assert!(traversal::is_tree(&g));
    }

    #[test]
    fn grid_edge_count() {
        let g = grid(3, 4);
        // 3*3 horizontal per row? horizontal: 3 rows * 3 = 9, vertical: 2*4 = 8
        assert_eq!(g.edge_count(), 17);
        assert_eq!(g.max_degree(), 4);
        assert!(traversal::is_bipartite(&g));
    }

    #[test]
    fn torus_is_4_regular() {
        let g = torus(4, 5);
        assert!(g.nodes().all(|v| g.degree(v) == 4));
        assert_eq!(g.edge_count(), 40);
    }

    #[test]
    fn hypercube_is_d_regular() {
        let g = hypercube(4);
        assert_eq!(g.node_count(), 16);
        assert!(g.nodes().all(|v| g.degree(v) == 4));
        assert_eq!(g.edge_count(), 32);
        assert!(traversal::is_bipartite(&g));
    }

    #[test]
    fn kary_tree_is_tree() {
        for (n, k) in [(1, 2), (7, 2), (13, 3), (100, 4)] {
            let g = kary_tree(n, k);
            assert!(traversal::is_tree(&g), "n={n} k={k}");
        }
    }

    #[test]
    fn caterpillar_is_tree() {
        let g = caterpillar(5, 3);
        assert_eq!(g.node_count(), 20);
        assert!(traversal::is_tree(&g));
        assert_eq!(g.degree(0), 4); // one spine neighbor + 3 legs
    }

    #[test]
    fn ring_of_cliques_shape() {
        let g = ring_of_cliques(4, 3);
        assert_eq!(g.node_count(), 12);
        // per clique 3 edges, plus 4 bridges
        assert_eq!(g.edge_count(), 16);
        assert!(traversal::is_connected(&g));
    }

    #[test]
    fn gnp_extremes() {
        assert_eq!(gnp(10, 0.0, 1).edge_count(), 0);
        assert_eq!(gnp(10, 1.0, 1).edge_count(), 45);
        assert_eq!(gnp(1, 0.5, 1).edge_count(), 0);
        assert_eq!(gnp(0, 0.5, 1).node_count(), 0);
    }

    #[test]
    fn gnp_is_deterministic_per_seed() {
        let a = gnp(200, 0.05, 7);
        let b = gnp(200, 0.05, 7);
        let c = gnp(200, 0.05, 8);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn gnp_edge_count_near_expectation() {
        let n = 400;
        let p = 0.1;
        let g = gnp(n, p, 99);
        let expected = (n * (n - 1) / 2) as f64 * p;
        let got = g.edge_count() as f64;
        assert!(
            (got - expected).abs() < 0.15 * expected,
            "got {got}, expected ~{expected}"
        );
    }

    #[test]
    fn gnm_has_exactly_m_edges() {
        for (n, m) in [(10, 0), (10, 45), (50, 100), (20, 150)] {
            let g = gnm(n, m, 3);
            assert_eq!(g.edge_count(), m, "n={n} m={m}");
        }
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn gnm_rejects_impossible_m() {
        gnm(4, 7, 0);
    }

    #[test]
    fn random_tree_is_tree_for_all_sizes() {
        for n in [0, 1, 2, 3, 10, 257] {
            let g = random_tree(n, 5);
            assert!(traversal::is_tree(&g), "n={n}");
        }
    }

    #[test]
    fn random_regular_is_regular() {
        for (n, d) in [(10, 3), (16, 4), (9, 2), (8, 0)] {
            let g = random_regular(n, d, 11);
            assert!(g.nodes().all(|v| g.degree(v) == d), "n={n} d={d}");
        }
    }

    #[test]
    fn unit_disk_radius_monotonicity() {
        let small = unit_disk(100, 0.05, 42);
        let large = unit_disk(100, 0.3, 42);
        assert!(small.edge_count() < large.edge_count());
    }

    #[test]
    fn unit_disk_matches_brute_force() {
        let mut rng = SmallRng::seed_from_u64(17);
        let pts: Vec<(f64, f64)> = (0..60).map(|_| (rng.gen(), rng.gen())).collect();
        let r = 0.25;
        let g = unit_disk_from_points(&pts, r);
        for i in 0..pts.len() {
            for j in (i + 1)..pts.len() {
                let dx = pts[i].0 - pts[j].0;
                let dy = pts[i].1 - pts[j].1;
                let within = dx * dx + dy * dy <= r * r;
                assert_eq!(
                    g.has_edge(i as NodeId, j as NodeId),
                    within,
                    "pair ({i},{j})"
                );
            }
        }
    }

    #[test]
    fn barabasi_albert_edge_count() {
        let (n, m) = (100, 3);
        let g = barabasi_albert(n, m, 5);
        // clique on m+1 nodes + m edges per subsequent node
        assert_eq!(g.edge_count(), m * (m + 1) / 2 + (n - m - 1) * m);
        assert!(traversal::is_connected(&g));
    }

    #[test]
    fn power_law_edge_count_and_determinism() {
        let (n, m) = (300, 2);
        let a = power_law(n, m, 0.8, 9);
        let b = power_law(n, m, 0.8, 9);
        let c = power_law(n, m, 0.8, 10);
        // star on m+1 nodes (m edges) + m edges per subsequent node
        assert_eq!(a.edge_count(), m + (n - m - 1) * m);
        assert!(traversal::is_connected(&a));
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn power_law_is_heavy_tailed() {
        // With strong redirection, the max degree should dwarf the mean —
        // the hub skew that unbalances a parallel round. A uniform
        // G(n, p) of the same density has max degree within a small
        // constant of the mean; here it should be >= 10x.
        let n = 2000;
        let g = power_law(n, 1, 0.9, 7);
        let mean = 2.0 * g.edge_count() as f64 / n as f64;
        assert!(
            g.max_degree() as f64 >= 10.0 * mean,
            "max degree {} vs mean {mean}",
            g.max_degree()
        );
    }

    #[test]
    fn power_law_redirect_extremes() {
        // redirect = 0 degenerates to uniform attachment; redirect = 1
        // funnels every edge into the seed star's center.
        let flat = power_law(500, 1, 0.0, 3);
        assert_eq!(flat.edge_count(), 499);
        let funnel = power_law(500, 1, 1.0, 3);
        assert_eq!(funnel.degree(0), 499);
        assert!(traversal::is_tree(&funnel));
    }

    #[test]
    fn hub_and_spoke_shape() {
        let g = hub_and_spoke(4, 10);
        assert_eq!(g.node_count(), 44);
        // hub clique 6 edges + 40 pendant edges
        assert_eq!(g.edge_count(), 46);
        assert!((0..4).all(|h| g.degree(h) == 13));
        assert!((4..44).all(|v| g.degree(v) == 1));
        assert!(traversal::is_connected(&g));
    }

    #[test]
    fn hub_and_spoke_single_hub_is_star() {
        let g = hub_and_spoke(1, 9);
        assert_eq!(g, star(10));
    }

    /// FNV-1a over the canonical edge iteration order — any reordering,
    /// insertion, or RNG drift in a generator moves the hash.
    fn edge_fingerprint(g: &Graph) -> u64 {
        let mut h = 0xcbf29ce484222325u64;
        for (u, v) in g.edges() {
            for w in [u as u64, v as u64] {
                for byte in w.to_le_bytes() {
                    h ^= byte as u64;
                    h = h.wrapping_mul(0x100000001b3);
                }
            }
        }
        h
    }

    /// The exact skewed instances the parallel differential matrices
    /// and pinned panels run on (`stoneage-testkit`'s
    /// `skewed_graph_family`). These hashes pin the generators'
    /// RNG draw order: a silent change here would quietly re-seed every
    /// downstream pinned fingerprint, so it must fail *here* first.
    #[test]
    fn skewed_generators_are_pinned() {
        let pl = power_law(300, 2, 0.85, 42);
        assert_eq!((pl.node_count(), pl.edge_count()), (300, 596));
        assert_eq!(edge_fingerprint(&pl), 0x80ac595771a9fa05);
        let hs = hub_and_spoke(3, 60);
        assert_eq!((hs.node_count(), hs.edge_count()), (183, 183));
        assert_eq!(edge_fingerprint(&hs), 0x5db1028a33f829b1);
    }
}
