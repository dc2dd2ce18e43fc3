//! Execution engines for the nFSM model of *Stone Age Distributed
//! Computing*.
//!
//! The crate's entry point is the unified [`Simulation`] builder of the
//! [`sim`] module: one configurable front over every executor, whose
//! constructor fixes the backend from the protocol's transition flavour.
//! [`Outcome`] is the one result type. The [`snapshot`] module adds
//! bit-identical checkpoint/resume on top:
//! [`Simulation::checkpoint_every`] captures versioned binary
//! [`Snapshot`] frames at committed boundaries and
//! [`Simulation::resume_from`] replays the remainder exactly.
//!
//! Two engines implement the paper's two environments:
//!
//! * [`Simulation::sync`] — a **lockstep synchronous** round executor for
//!   [`stoneage_core::MultiFsm`] protocols. It satisfies the paper's
//!   synchronization properties (S1) and (S2) exactly, and is the
//!   environment the paper's protocol *descriptions* (Sections 4 and 5)
//!   assume by virtue of Theorems 3.1 and 3.4. ([`Simulation::scoped`]
//!   is its twin for the port-select extension of the [`scoped`]
//!   module.)
//! * [`Simulation::asynchronous`] — a fully **asynchronous** event-driven
//!   executor for [`stoneage_core::Fsm`] protocols, implementing the
//!   adversarial semantics of Section 2: per-step lengths `L_{v,t}` and
//!   per-message FIFO delivery delays `D_{v,t,u}` are chosen by an
//!   oblivious [`Adversary`]; ports hold only the last delivered letter,
//!   so messages can be overwritten and lost.
//!
//! Run-times are reported in the paper's units: rounds for the synchronous
//! engine; for the asynchronous engine, the completion time normalized by
//! the largest step-length/delay parameter used (the paper's "time unit").
//!
//! # The flat delivery engine
//!
//! All three executors (synchronous, [`scoped`], asynchronous) share the
//! flat execution substrate of the [`engine`] module:
//!
//! * **Flat port store** — every port of every node lives in one
//!   `Vec<Letter>` indexed by the graph's CSR offsets; node `v`'s `k`-th
//!   port is slot `csr_offset(v) + k`. The round/event loops perform no
//!   heap allocation.
//! * **Precomputed reverse-slot maps** — the absolute receiving slot
//!   `csr_offset(u) + ψ_u(v)` of every directed edge `v → u` is computed
//!   once at graph build time ([`stoneage_graph::Graph::reverse_slots`]),
//!   so a delivery is one sequential read and a single indexed store
//!   instead of a binary search.
//! * **Incremental observation counts** — per-node per-letter port counts
//!   are maintained on every overwrite; a phase-1 observation is an
//!   O(|Σ|) refill of a reusable [`stoneage_core::ObsVec`] scratch buffer
//!   rather than an O(deg) port scan with a fresh allocation.
//! * **Undecided-node counter** — termination is detected by a counter
//!   updated on state transitions, not an O(|V|) output scan per round.
//!
//! The asynchronous executor is one event loop, churn and fault runs
//! included. It schedules its events on the calendar-queue /
//! hierarchical timing wheel of the [`schedule`] module (O(1) amortized
//! per event instead of the global heap's `O(log m)`), batching
//! same-arrival-time deliveries per edge; the global heap survives
//! behind [`SchedulerKind::BinaryHeap`] as the reference queue.
//!
//! None of this changes semantics. The lockstep loop still applies all
//! phase-1 transitions against the frozen previous-round ports before any
//! phase-2 delivery, preserving (S1) — all nodes observe the same round —
//! and (S2) — after round `t + 1`, port `ψ_u(v)` holds the letter `v`
//! transmitted in round `t` (or the last earlier one; `ε` never
//! overwrites). Outputs are **bit-identical per seed** to the naive
//! pre-flat executor, which survives as [`reference::run_sync_reference`]
//! for differential testing and benchmarking.
//!
//! Both lockstep backends execute on the shared round pipeline of the
//! [`pipeline`] module over one [`FlatPorts`] store: every phase-2
//! delivery of round *r* is buffered while phase 1 reads the store, and
//! lands only after the round's last read (see the [`engine`] docs). A
//! round steps only its **frontier**: a bitset of the nodes whose last
//! step was not a single silent self-loop, or whose counts or state
//! changed since. The skip is exact, so every run is bit-identical to
//! stepping every node.
//!
//! `.parallel(ParallelPolicy)` chunks **both** round phases across
//! `std::thread` workers: each round, one worker per slot-balanced node
//! shard runs phase 1 (observation + transition) into its own sharded
//! write buffer of the [`parbuf`] module, and phase 2 (delivery) merges
//! the buffers destination-sharded, so workers never contend on a
//! node's CSR slots. Outcomes stay bit-identical to the serial engines
//! for every seed, worker count, and merge strategy — see the
//! [`parbuf`] and [`pipeline`] docs for the determinism argument.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adversary;
mod async_exec;
pub mod churn;
pub mod engine;
pub mod faults;
pub mod parbuf;
pub mod pipeline;
pub mod reference;
pub mod schedule;
pub mod scoped;
pub mod sim;
pub mod snapshot;
mod sync_exec;

pub use adversary::Adversary;
pub use async_exec::SchedulerKind;
pub use churn::{
    ChurnOracle, ChurnPlan, ChurnSummary, PatchMode, StabilizationObserver, StabilizationRecord,
};
pub use engine::FlatPorts;
pub use faults::{FaultPlan, FaultPlanError, FaultRule, FaultScope, FaultSummary, LinkFault};
pub use parbuf::{MergeStrategy, ParallelPolicy};
pub use reference::run_sync_reference;
pub use schedule::CalendarQueue;
pub use scoped::{ScopedDelivery, ScopedEmission, ScopedMultiFsm, ScopedTransitions};
pub use sim::{Cost, Detail, Observer, Outcome, Simulation};
pub use snapshot::{
    read_snapshot_file, write_snapshot_file, PersistError, SnapReader, SnapState, SnapWriter,
    Snapshot, SnapshotError, SNAPSHOT_VERSION,
};
/// Re-export of the representation-independent protocol base trait the
/// [`Simulation`] builder is generic over.
pub use stoneage_core::Protocol;

/// Why an execution failed to reach an output configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// The execution exceeded its round budget (synchronous engine).
    RoundLimit {
        /// The configured limit.
        limit: u64,
        /// Nodes not yet in an output state when the limit was hit.
        unfinished: usize,
    },
    /// The execution exceeded its event budget (asynchronous engine).
    EventLimit {
        /// The configured limit.
        limit: u64,
        /// Nodes not yet in an output state when the limit was hit.
        unfinished: usize,
    },
    /// The number of supplied inputs does not match the node count.
    InputLengthMismatch {
        /// Nodes in the graph.
        nodes: usize,
        /// Inputs supplied.
        inputs: usize,
    },
    /// The [`Simulation`] builder was configured into an invalid state
    /// (e.g. a parallel policy on an asynchronous simulation, a zero
    /// budget or checkpoint cadence, or an invalid churn or fault plan) —
    /// reported as an error instead of a panic.
    Config {
        /// Human-readable description of the invalid configuration.
        reason: String,
    },
    /// A [`Snapshot`] passed to [`Simulation::resume_from`] could not be
    /// decoded or does not belong to this run configuration (format
    /// version mismatch, truncated or corrupted bytes, or a header
    /// digest that disagrees with the builder's graph / protocol /
    /// backend / config).
    Snapshot(snapshot::SnapshotError),
}

impl From<snapshot::SnapshotError> for ExecError {
    fn from(e: snapshot::SnapshotError) -> Self {
        ExecError::Snapshot(e)
    }
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::RoundLimit { limit, unfinished } => write!(
                f,
                "no output configuration within {limit} rounds ({unfinished} nodes unfinished)"
            ),
            ExecError::EventLimit { limit, unfinished } => write!(
                f,
                "no output configuration within {limit} events ({unfinished} nodes unfinished)"
            ),
            ExecError::InputLengthMismatch { nodes, inputs } => {
                write!(f, "{inputs} inputs supplied for {nodes} nodes")
            }
            ExecError::Config { reason } => {
                write!(f, "invalid simulation configuration: {reason}")
            }
            ExecError::Snapshot(e) => write!(f, "snapshot rejected: {e}"),
        }
    }
}

impl std::error::Error for ExecError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ExecError::Snapshot(e) => Some(e),
            _ => None,
        }
    }
}

/// SplitMix64: the stream-splitting hash used to derive independent
/// deterministic seeds for per-node RNGs and oblivious adversary draws.
pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E3779B97F4A7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D049BB133111EB);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic_and_spreading() {
        assert_eq!(splitmix64(1), splitmix64(1));
        assert_ne!(splitmix64(1), splitmix64(2));
        // Successive outputs should differ in many bits.
        let a = splitmix64(100);
        let b = splitmix64(101);
        assert!((a ^ b).count_ones() > 10);
    }

    #[test]
    fn exec_error_messages_render() {
        let e = ExecError::RoundLimit {
            limit: 10,
            unfinished: 3,
        };
        assert!(e.to_string().contains("10 rounds"));
        let e = ExecError::InputLengthMismatch {
            nodes: 5,
            inputs: 4,
        };
        assert!(e.to_string().contains("4 inputs"));
    }
}
