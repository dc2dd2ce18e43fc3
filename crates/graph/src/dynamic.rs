//! Dynamic-topology overlay for churn fault injection.
//!
//! The CSR [`Graph`] stays immutable — its offsets, neighbor lists, and
//! reverse-slot maps are the *universe* of nodes and edges a run may ever
//! touch. [`DynamicGraph`] overlays per-node and per-directed-slot
//! liveness on that universe: a crash marks a node dead, a restart
//! revives it, and edge events toggle individual (symmetric) port slots.
//! Applying a [`TopologyEvent`] emits the exact list of [`SlotPatch`]es
//! whose *effective* liveness changed, which is what lets an engine patch
//! its flat port store incrementally instead of rebuilding it — a slot
//! `csr_offset(v) + k` is effectively live iff `v` is live, the neighbor
//! behind port `k` is live, and the edge itself is enabled.
//!
//! Events that would not change anything (crashing a dead node,
//! re-inserting an enabled edge) are reported as ineffective no-ops
//! rather than errors, so seeded random schedules stay valid however
//! they interleave. Malformed events — self-loops, out-of-range nodes,
//! or edges outside the universe — are [`TopologyError`]s.

use std::fmt;

use crate::graph::{Graph, NodeId};

/// A topology fault, applied at a round/epoch boundary by a churn layer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TopologyEvent {
    /// Node stops: its state freezes, its ports die, in-flight letters
    /// held in them are dropped.
    Crash(NodeId),
    /// A crashed node reboots into its protocol's restart state and
    /// re-registers: every incident live port resets to σ₀.
    Restart(NodeId),
    /// Enables an edge of the universe graph that is currently off.
    EdgeInsert(NodeId, NodeId),
    /// Disables a currently enabled edge; both port slots die.
    EdgeDelete(NodeId, NodeId),
}

/// Malformed topology input: the typed replacement for the panics the
/// graph layer used to raise on bad builder/validator arguments.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TopologyError {
    /// The nFSM model has no self-loops.
    SelfLoop {
        /// The offending node.
        node: NodeId,
    },
    /// A node id at or beyond the node count.
    NodeOutOfRange {
        /// The offending node id.
        node: NodeId,
        /// The graph's node count.
        nodes: usize,
    },
    /// An edge event names an edge outside the universe graph (churn can
    /// only toggle edges the CSR was built with).
    UnknownEdge {
        /// One endpoint.
        u: NodeId,
        /// The other endpoint.
        v: NodeId,
    },
    /// A per-node argument vector whose length is not the node count.
    LengthMismatch {
        /// What the mis-sized vector holds (diagnostic label).
        what: &'static str,
        /// Expected length (the node count).
        expected: usize,
        /// Actual length.
        actual: usize,
    },
}

impl fmt::Display for TopologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopologyError::SelfLoop { node } => {
                write!(
                    f,
                    "self-loops are not allowed in the nFSM model (node {node})"
                )
            }
            TopologyError::NodeOutOfRange { node, nodes } => {
                write!(f, "node {node} out of range for {nodes} nodes")
            }
            TopologyError::UnknownEdge { u, v } => {
                write!(f, "edge ({u}, {v}) is not part of the universe graph")
            }
            TopologyError::LengthMismatch {
                what,
                expected,
                actual,
            } => {
                write!(
                    f,
                    "{what} has length {actual}, expected the node count {expected}"
                )
            }
        }
    }
}

impl std::error::Error for TopologyError {}

/// Whether a [`SlotPatch`] kills or revives its port slot.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SlotOp {
    /// The slot died: drop its letter, exclude it from counts.
    Retire,
    /// The slot came (back) to life: reset it to σ₀.
    Revive,
}

/// One port-slot liveness change emitted by [`DynamicGraph::apply`]: the
/// flat store's slot `slot` (owned by `node`) must be retired or revived.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SlotPatch {
    /// The node owning the slot (the *receiver* of the port).
    pub node: NodeId,
    /// The global CSR slot index, `csr_offset(node) + port`.
    pub slot: u32,
    /// Kill or revive.
    pub op: SlotOp,
}

/// Per-node and per-slot liveness overlaid on an immutable CSR universe.
///
/// See the [module docs](self) for the model. All queries and patches are
/// deterministic pure functions of the event sequence, so two replicas
/// fed the same events agree exactly — the churn engine and its
/// observers rely on this.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DynamicGraph {
    node_live: Vec<bool>,
    /// Per *directed* CSR slot; kept symmetric across the two directions
    /// of every edge.
    edge_on: Vec<bool>,
}

impl DynamicGraph {
    /// The all-live overlay: every node up, every edge enabled.
    pub fn new(graph: &Graph) -> Self {
        DynamicGraph {
            node_live: vec![true; graph.node_count()],
            edge_on: vec![true; graph.port_slot_count()],
        }
    }

    /// Whether node `v` is live.
    pub fn is_live(&self, v: NodeId) -> bool {
        self.node_live[v as usize]
    }

    /// The live flag of every node, indexed by node id.
    pub fn live_nodes(&self) -> &[bool] {
        &self.node_live
    }

    /// Number of live nodes.
    pub fn live_count(&self) -> usize {
        self.node_live.iter().filter(|&&l| l).count()
    }

    /// Whether the edge `{u, v}` of the universe graph is currently
    /// enabled (regardless of endpoint liveness).
    pub fn edge_enabled(&self, graph: &Graph, u: NodeId, v: NodeId) -> bool {
        match graph.port_of(u, v) {
            Some(k) => self.edge_on[graph.csr_offset(u) + k],
            None => false,
        }
    }

    /// Whether port `k` of node `v` is *effectively* live: `v` live, the
    /// neighbor behind the port live, and the edge enabled.
    pub fn slot_live(&self, graph: &Graph, v: NodeId, k: usize) -> bool {
        let u = graph.neighbors(v)[k];
        self.node_live[v as usize]
            && self.node_live[u as usize]
            && self.edge_on[graph.csr_offset(v) + k]
    }

    /// Applies one event. Returns `Ok(true)` and appends the slot patches
    /// of every effective-liveness change to `patches` when the event
    /// changed anything, `Ok(false)` for a no-op (crashing a dead node,
    /// restarting a live one, toggling an edge already in the target
    /// state), and a [`TopologyError`] for malformed input. `patches` is
    /// *appended to*, not cleared.
    pub fn apply(
        &mut self,
        graph: &Graph,
        event: TopologyEvent,
        patches: &mut Vec<SlotPatch>,
    ) -> Result<bool, TopologyError> {
        match event {
            TopologyEvent::Crash(v) => self.set_node(graph, v, false, patches),
            TopologyEvent::Restart(v) => self.set_node(graph, v, true, patches),
            TopologyEvent::EdgeInsert(u, v) => self.set_edge(graph, u, v, true, patches),
            TopologyEvent::EdgeDelete(u, v) => self.set_edge(graph, u, v, false, patches),
        }
    }

    fn check_node(&self, v: NodeId) -> Result<(), TopologyError> {
        if (v as usize) < self.node_live.len() {
            Ok(())
        } else {
            Err(TopologyError::NodeOutOfRange {
                node: v,
                nodes: self.node_live.len(),
            })
        }
    }

    fn set_node(
        &mut self,
        graph: &Graph,
        v: NodeId,
        live: bool,
        patches: &mut Vec<SlotPatch>,
    ) -> Result<bool, TopologyError> {
        self.check_node(v)?;
        if self.node_live[v as usize] == live {
            return Ok(false);
        }
        let op = if live { SlotOp::Revive } else { SlotOp::Retire };
        // A slot incident to v changes effective liveness exactly when
        // the other two factors (neighbor live, edge enabled) hold; both
        // directions of each such edge flip together.
        let base = graph.csr_offset(v);
        for (k, (&u, &rev)) in graph
            .neighbors(v)
            .iter()
            .zip(graph.reverse_slots(v))
            .enumerate()
        {
            if self.node_live[u as usize] && self.edge_on[base + k] {
                patches.push(SlotPatch {
                    node: v,
                    slot: (base + k) as u32,
                    op,
                });
                patches.push(SlotPatch {
                    node: u,
                    slot: rev,
                    op,
                });
            }
        }
        self.node_live[v as usize] = live;
        Ok(true)
    }

    fn set_edge(
        &mut self,
        graph: &Graph,
        u: NodeId,
        v: NodeId,
        on: bool,
        patches: &mut Vec<SlotPatch>,
    ) -> Result<bool, TopologyError> {
        if u == v {
            return Err(TopologyError::SelfLoop { node: u });
        }
        self.check_node(u)?;
        self.check_node(v)?;
        let (ku, kv) = match (graph.port_of(u, v), graph.port_of(v, u)) {
            (Some(ku), Some(kv)) => (ku, kv),
            _ => return Err(TopologyError::UnknownEdge { u, v }),
        };
        let su = graph.csr_offset(u) + ku;
        let sv = graph.csr_offset(v) + kv;
        if self.edge_on[su] == on {
            debug_assert_eq!(self.edge_on[sv], on, "edge_on must stay symmetric");
            return Ok(false);
        }
        self.edge_on[su] = on;
        self.edge_on[sv] = on;
        // Effective liveness only changes where both endpoints are live.
        if self.node_live[u as usize] && self.node_live[v as usize] {
            let op = if on { SlotOp::Revive } else { SlotOp::Retire };
            patches.push(SlotPatch {
                node: u,
                slot: su as u32,
                op,
            });
            patches.push(SlotPatch {
                node: v,
                slot: sv as u32,
                op,
            });
        }
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    fn path3() -> Graph {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1);
        b.add_edge(1, 2);
        b.build()
    }

    #[test]
    fn crash_emits_both_directions_and_restart_reverses() {
        let g = path3();
        let mut d = DynamicGraph::new(&g);
        let mut patches = Vec::new();
        assert!(d.apply(&g, TopologyEvent::Crash(1), &mut patches).unwrap());
        // Node 1 has two incident edges => 4 directed slots die.
        assert_eq!(patches.len(), 4);
        assert!(patches.iter().all(|p| p.op == SlotOp::Retire));
        assert!(!d.is_live(1));
        assert!(!d.slot_live(&g, 0, 0));
        // Crashing again is a no-op.
        assert!(!d.apply(&g, TopologyEvent::Crash(1), &mut patches).unwrap());
        assert_eq!(patches.len(), 4);

        patches.clear();
        assert!(d
            .apply(&g, TopologyEvent::Restart(1), &mut patches)
            .unwrap());
        assert_eq!(patches.len(), 4);
        assert!(patches.iter().all(|p| p.op == SlotOp::Revive));
        assert_eq!(d, DynamicGraph::new(&g));
    }

    #[test]
    fn edge_toggle_round_trips_and_respects_dead_endpoints() {
        let g = path3();
        let mut d = DynamicGraph::new(&g);
        let mut patches = Vec::new();
        assert!(d
            .apply(&g, TopologyEvent::EdgeDelete(0, 1), &mut patches)
            .unwrap());
        assert_eq!(patches.len(), 2);
        assert!(!d.edge_enabled(&g, 0, 1));
        assert!(!d.slot_live(&g, 0, 0));
        assert!(d.slot_live(&g, 1, 1), "the 1-2 edge is untouched");

        // Toggling an edge between dead endpoints changes no slot.
        patches.clear();
        d.apply(&g, TopologyEvent::Crash(0), &mut patches).unwrap();
        patches.clear();
        assert!(d
            .apply(&g, TopologyEvent::EdgeInsert(0, 1), &mut patches)
            .unwrap());
        assert!(patches.is_empty());
        assert!(d.edge_enabled(&g, 0, 1));
    }

    #[test]
    fn malformed_events_are_typed_errors() {
        let g = path3();
        let mut d = DynamicGraph::new(&g);
        let mut p = Vec::new();
        assert_eq!(
            d.apply(&g, TopologyEvent::Crash(9), &mut p),
            Err(TopologyError::NodeOutOfRange { node: 9, nodes: 3 })
        );
        assert_eq!(
            d.apply(&g, TopologyEvent::EdgeInsert(2, 2), &mut p),
            Err(TopologyError::SelfLoop { node: 2 })
        );
        assert_eq!(
            d.apply(&g, TopologyEvent::EdgeDelete(0, 2), &mut p),
            Err(TopologyError::UnknownEdge { u: 0, v: 2 })
        );
        assert!(p.is_empty());
    }
}
