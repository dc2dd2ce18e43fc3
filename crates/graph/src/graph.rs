//! The immutable compressed-sparse-row graph representation.

use std::fmt;

/// Identifier of a node; nodes of an `n`-node graph are `0..n`.
pub type NodeId = u32;

/// A finite simple undirected graph in compressed-sparse-row form.
///
/// This is the `G = (V, E)` of the paper's Section 2: finite, undirected,
/// no self-loops, no parallel edges. The representation is immutable; build
/// one with [`crate::GraphBuilder`] or a [`crate::generators`] function.
///
/// Neighbor lists are sorted, which gives deterministic iteration order —
/// important because the simulators assign *ports* (one per neighbor) by
/// neighbor-list position.
///
/// # The reverse-slot map
///
/// Alongside the CSR arrays, every graph precomputes its **reverse-slot
/// map** at build time: for the `k`-th neighbor `u` of `v` (the directed
/// edge `v → u`), [`Graph::reverse_slots`]`(v)[k]` is the absolute
/// receiving slot `csr_offset(u) + ψ_u(v)`, where the port number
/// `ψ_u(v)` is the position of `v` inside `u`'s neighbor list. It
/// addresses a *flat* port store (`Vec` indexed by CSR slot) directly, so
/// delivery engines turn "write `v`'s letter into `u`'s port for `v`"
/// into one sequential `u32` read and one indexed store: no
/// `O(log deg(u))` binary search ([`Graph::port_of`]) and no random
/// `csr_offset(u)` load.
#[derive(Clone, PartialEq, Eq)]
pub struct Graph {
    /// `offsets[v]..offsets[v+1]` indexes `neighbors` for node `v`.
    offsets: Vec<usize>,
    /// Concatenated sorted neighbor lists.
    neighbors: Vec<NodeId>,
    /// `rev_slots[offsets[v] + k] = offsets[u] + ψ_u(v)` where
    /// `u = neighbors(v)[k]`: the slot of `u`'s port for `v`. Same layout
    /// as `neighbors`; computed once in `from_csr`.
    rev_slots: Vec<u32>,
}

impl Graph {
    pub(crate) fn from_csr(offsets: Vec<usize>, neighbors: Vec<NodeId>) -> Self {
        debug_assert!(!offsets.is_empty());
        debug_assert_eq!(*offsets.last().unwrap(), neighbors.len());
        let rev_slots = compute_reverse_slots(&offsets, &neighbors);
        let g = Graph {
            offsets,
            neighbors,
            rev_slots,
        };
        #[cfg(debug_assertions)]
        g.debug_check_reverse_slots();
        g
    }

    /// The empty graph on `n` isolated nodes.
    pub fn empty(n: usize) -> Self {
        Graph {
            offsets: vec![0; n + 1],
            neighbors: Vec::new(),
            rev_slots: Vec::new(),
        }
    }

    #[cfg(debug_assertions)]
    fn debug_check_reverse_slots(&self) {
        for v in 0..self.node_count() as NodeId {
            for (k, &u) in self.neighbors(v).iter().enumerate() {
                debug_assert_eq!(
                    self.port_of(u, v).map(|p| self.csr_offset(u) + p),
                    Some(self.reverse_slots(v)[k] as usize),
                    "reverse-slot map disagrees with port_of for edge {v}→{u}"
                );
            }
        }
    }

    /// Number of nodes `|V|`.
    pub fn node_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges `|E|`.
    pub fn edge_count(&self) -> usize {
        self.neighbors.len() / 2
    }

    /// Iterator over all node ids `0..n`.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        0..self.node_count() as NodeId
    }

    /// The sorted neighbor list `N(v)`.
    ///
    /// # Panics
    /// Panics if `v` is out of range.
    pub fn neighbors(&self, v: NodeId) -> &[NodeId] {
        let v = v as usize;
        &self.neighbors[self.offsets[v]..self.offsets[v + 1]]
    }

    /// Degree of `v`, i.e. `|N(v)|`.
    pub fn degree(&self, v: NodeId) -> usize {
        self.neighbors(v).len()
    }

    /// Largest degree `Δ(G)`; 0 for the empty graph.
    pub fn max_degree(&self) -> usize {
        (0..self.node_count() as NodeId)
            .map(|v| self.degree(v))
            .max()
            .unwrap_or(0)
    }

    /// Whether `{u, v}` is an edge. O(log deg) via binary search.
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        if u as usize >= self.node_count() || v as usize >= self.node_count() {
            return false;
        }
        self.neighbors(u).binary_search(&v).is_ok()
    }

    /// Position of neighbor `u` within `v`'s neighbor list, if adjacent.
    ///
    /// This is the *port number* under which `v` stores messages from `u`
    /// (the paper's `ψ_v(u)`). Costs a binary search; delivery loops
    /// should use the precomputed [`Graph::reverse_slots`] instead.
    pub fn port_of(&self, v: NodeId, u: NodeId) -> Option<usize> {
        self.neighbors(v).binary_search(&u).ok()
    }

    /// The reverse-slot map row for `v`, parallel to
    /// [`Graph::neighbors`]`(v)`: entry `k` is `csr_offset(u) + ψ_u(v)`,
    /// the absolute flat slot of the port under which
    /// `u = neighbors(v)[k]` stores messages from `v`. Precomputed at
    /// build time in O(|E|).
    ///
    /// # Panics
    /// Panics if `v` is out of range.
    pub fn reverse_slots(&self, v: NodeId) -> &[u32] {
        let v = v as usize;
        &self.rev_slots[self.offsets[v]..self.offsets[v + 1]]
    }

    /// The base index of `v`'s ports in a flat CSR-indexed store:
    /// `v`'s `k`-th port lives at slot `csr_offset(v) + k`.
    ///
    /// # Panics
    /// Panics if `v` is out of range (note `v == node_count()` is in range:
    /// it yields the one-past-the-end slot, i.e. [`Graph::port_slot_count`]).
    pub fn csr_offset(&self, v: NodeId) -> usize {
        self.offsets[v as usize]
    }

    /// Total number of directed port slots (`= 2|E| =` [`Graph::degree_sum`]),
    /// the length a flat CSR-indexed port store must have.
    pub fn port_slot_count(&self) -> usize {
        self.neighbors.len()
    }

    /// Iterator over each undirected edge exactly once, as `(u, v)` with
    /// `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        (0..self.node_count() as NodeId).flat_map(move |u| {
            self.neighbors(u)
                .iter()
                .copied()
                .filter(move |&v| u < v)
                .map(move |v| (u, v))
        })
    }

    /// Sum of all degrees (= `2|E|`).
    pub fn degree_sum(&self) -> usize {
        self.neighbors.len()
    }

    /// The subgraph induced on the nodes for which `keep` is true, together
    /// with the mapping from new node ids to original ids.
    ///
    /// Used by the analysis of the MIS protocol, which studies the virtual
    /// graphs `G^i` induced by the nodes still active in tournament `i`.
    pub fn induced_subgraph(&self, keep: &[bool]) -> (Graph, Vec<NodeId>) {
        assert_eq!(keep.len(), self.node_count());
        let mut old_to_new = vec![NodeId::MAX; self.node_count()];
        let mut new_to_old = Vec::new();
        for v in 0..self.node_count() {
            if keep[v] {
                old_to_new[v] = new_to_old.len() as NodeId;
                new_to_old.push(v as NodeId);
            }
        }
        let mut offsets = Vec::with_capacity(new_to_old.len() + 1);
        let mut neighbors = Vec::new();
        offsets.push(0);
        for &old in &new_to_old {
            for &w in self.neighbors(old) {
                if keep[w as usize] {
                    neighbors.push(old_to_new[w as usize]);
                }
            }
            offsets.push(neighbors.len());
        }
        (Graph::from_csr(offsets, neighbors), new_to_old)
    }

    /// Number of edges both of whose endpoints satisfy `keep`.
    pub fn surviving_edges(&self, keep: &[bool]) -> usize {
        self.edges()
            .filter(|&(u, v)| keep[u as usize] && keep[v as usize])
            .count()
    }
}

/// Computes the reverse-slot map in one O(|E|) pass.
///
/// Scanning all directed slots `(v → u)` with `v` ascending and each
/// neighbor list itself sorted, the sources `v` of edges into any fixed
/// `u` appear in ascending order — so the `j`-th time `u` shows up as a
/// target, the source is exactly `u`'s `j`-th smallest neighbor, i.e. the
/// source sits at slot `offsets[u] + j`. A per-node cursor starting at
/// `offsets[u]` therefore yields every receiving slot without searching.
///
/// # Panics
/// Panics if the graph has more than `u32::MAX` port slots.
fn compute_reverse_slots(offsets: &[usize], neighbors: &[NodeId]) -> Vec<u32> {
    let n = offsets.len() - 1;
    assert!(
        u32::try_from(neighbors.len()).is_ok(),
        "port slots must fit in u32"
    );
    let mut rev = vec![0u32; neighbors.len()];
    let mut cursor: Vec<u32> = offsets[..n].iter().map(|&o| o as u32).collect();
    for v in 0..n {
        for slot in offsets[v]..offsets[v + 1] {
            let u = neighbors[slot] as usize;
            rev[slot] = cursor[u];
            cursor[u] += 1;
        }
    }
    rev
}

impl fmt::Debug for Graph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Graph")
            .field("nodes", &self.node_count())
            .field("edges", &self.edge_count())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use crate::GraphBuilder;

    use super::*;

    fn triangle_plus_isolated() -> Graph {
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1);
        b.add_edge(1, 2);
        b.add_edge(0, 2);
        b.build()
    }

    #[test]
    fn empty_graph_has_no_edges() {
        let g = Graph::empty(5);
        assert_eq!(g.node_count(), 5);
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.max_degree(), 0);
        assert!(g.edges().next().is_none());
    }

    #[test]
    fn zero_node_graph_is_legal() {
        let g = Graph::empty(0);
        assert_eq!(g.node_count(), 0);
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.nodes().count(), 0);
    }

    #[test]
    fn triangle_counts() {
        let g = triangle_plus_isolated();
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.edge_count(), 3);
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.degree(3), 0);
        assert_eq!(g.degree_sum(), 6);
        assert_eq!(g.max_degree(), 2);
    }

    #[test]
    fn neighbors_are_sorted() {
        let mut b = GraphBuilder::new(5);
        b.add_edge(4, 0);
        b.add_edge(4, 3);
        b.add_edge(4, 1);
        let g = b.build();
        assert_eq!(g.neighbors(4), &[0, 1, 3]);
    }

    #[test]
    fn has_edge_is_symmetric() {
        let g = triangle_plus_isolated();
        for (u, v) in [(0, 1), (1, 2), (0, 2)] {
            assert!(g.has_edge(u, v));
            assert!(g.has_edge(v, u));
        }
        assert!(!g.has_edge(0, 3));
        assert!(!g.has_edge(3, 0));
        assert!(!g.has_edge(0, 0));
        assert!(!g.has_edge(0, 99));
    }

    #[test]
    fn port_numbers_match_neighbor_positions() {
        let g = triangle_plus_isolated();
        assert_eq!(g.port_of(0, 1), Some(0));
        assert_eq!(g.port_of(0, 2), Some(1));
        assert_eq!(g.port_of(0, 3), None);
        for v in g.nodes() {
            for (i, &u) in g.neighbors(v).iter().enumerate() {
                assert_eq!(g.port_of(v, u), Some(i));
            }
        }
    }

    #[test]
    fn reverse_slots_agree_with_port_of() {
        let mut b = GraphBuilder::new(7);
        for (u, v) in [(0, 1), (0, 2), (1, 2), (2, 5), (5, 6), (3, 5), (1, 6)] {
            b.add_edge(u, v);
        }
        let g = b.build();
        for v in g.nodes() {
            let rev = g.reverse_slots(v);
            assert_eq!(rev.len(), g.degree(v));
            for (k, &u) in g.neighbors(v).iter().enumerate() {
                let slot = g.csr_offset(u) + g.port_of(u, v).unwrap();
                assert_eq!(rev[k] as usize, slot);
                // The slot is u's, and u's port there points back at v.
                assert_eq!(g.neighbors(u)[slot - g.csr_offset(u)], v);
            }
        }
    }

    #[test]
    fn csr_offsets_address_flat_slots() {
        let g = triangle_plus_isolated();
        assert_eq!(g.port_slot_count(), g.degree_sum());
        let mut seen = vec![false; g.port_slot_count()];
        for v in g.nodes() {
            for k in 0..g.degree(v) {
                let slot = g.csr_offset(v) + k;
                assert!(!seen[slot], "slot {slot} assigned twice");
                seen[slot] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn reverse_slots_agree_with_port_of_on_induced_subgraph() {
        let g = triangle_plus_isolated();
        let (sub, _) = g.induced_subgraph(&[true, true, true, false]);
        for v in sub.nodes() {
            for (k, &u) in sub.neighbors(v).iter().enumerate() {
                assert_eq!(
                    Some(sub.reverse_slots(v)[k] as usize),
                    sub.port_of(u, v).map(|p| sub.csr_offset(u) + p)
                );
            }
        }
    }

    #[test]
    fn edges_listed_once_with_ordered_endpoints() {
        let g = triangle_plus_isolated();
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges, vec![(0, 1), (0, 2), (1, 2)]);
    }

    #[test]
    fn induced_subgraph_drops_edges_and_remaps() {
        let g = triangle_plus_isolated();
        let (sub, map) = g.induced_subgraph(&[true, false, true, true]);
        assert_eq!(sub.node_count(), 3);
        // only edge 0-2 survives, remapped to 0-1
        assert_eq!(sub.edge_count(), 1);
        assert!(sub.has_edge(0, 1));
        assert_eq!(map, vec![0, 2, 3]);
    }

    #[test]
    fn surviving_edges_counts_kept_endpoints() {
        let g = triangle_plus_isolated();
        assert_eq!(g.surviving_edges(&[true, true, true, true]), 3);
        assert_eq!(g.surviving_edges(&[true, false, true, true]), 1);
        assert_eq!(g.surviving_edges(&[false, false, false, false]), 0);
    }
}
