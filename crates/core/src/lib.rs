//! The **networked finite state machines (nFSM)** model of
//! *Stone Age Distributed Computing* (Emek, Smula, Wattenhofer).
//!
//! A protocol is the paper's 8-tuple `Π = ⟨Q, Q_I, Q_O, Σ, σ₀, b, λ, δ⟩`:
//! a constant-size randomized FSM run identically by every node of an
//! arbitrary graph. Nodes broadcast single letters of the constant alphabet
//! `Σ`; each port keeps only the *last* letter received; a node observes the
//! count of its current query letter truncated by the *one-two-many*
//! bounding parameter `b` (values ≥ b are indistinguishable — the symbol
//! `≥b` of the paper's `B = {0, …, b-1, ≥b}`).
//!
//! This crate provides:
//!
//! * the model vocabulary — [`Letter`], [`Alphabet`], [`BoundedCount`]
//!   (the set `B` together with `f_b`), [`Transitions`] and its
//!   allocation-free choice list [`Choices`];
//! * the protocol abstractions — the representation-independent
//!   [`Protocol`] base (states, alphabet, inputs, outputs) with its two
//!   transition flavors [`Fsm`] (single-letter queries, the formal model
//!   of Section 2) and [`MultiFsm`] (the multiple-letter-query
//!   convenience layer of Section 3.2);
//! * a concrete table-driven representation, [`TableProtocol`], with
//!   well-formedness validation and Graphviz export (used to regenerate the
//!   paper's Figure 1);
//! * the paper's two black-box compilers as *protocol combinators*:
//!   [`Synchronized`] (the synchronizer of Theorem 3.1, enabling execution
//!   in fully asynchronous environments) and [`SingleLetter`] (the
//!   multiple-letter-query elimination of Theorem 3.4).
//!
//! Execution engines live in the `stoneage-sim` crate; concrete protocols
//! (MIS, tree coloring, …) in `stoneage-protocols`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bounded;
mod fsm;
mod letter;

pub mod choices;
pub mod multiq;
pub mod sync;
pub mod table;

pub use bounded::{fb, BoundedCount};
pub use choices::Choices;
pub use fsm::{AsMulti, Fsm, MultiFsm, ObsVec, Protocol, Transitions};
pub use letter::{Alphabet, Letter};
pub use multiq::SingleLetter;
pub use sync::Synchronized;
pub use table::{ProtocolError, TableProtocol, TableProtocolBuilder};
