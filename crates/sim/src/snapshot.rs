//! Versioned, bit-identical **checkpoint/resume snapshots** of a running
//! simulation.
//!
//! A [`Snapshot`] captures everything a mid-run simulation owns at a
//! round (lockstep) or step (asynchronous) boundary: the
//! [`crate::engine::PortPlanes`] letter array and epoch, every per-node
//! protocol state, the decided/undecided counters, the full internal
//! state of every per-node RNG stream (via the compat `rand` shim's
//! `SeedState` capture/restore API), the asynchronous event backlog with
//! its exact `(time, seq)` order, the churn-plan cursor, and the
//! accumulated cost counters. Resuming from a snapshot — including one
//! round-tripped through [`Snapshot::to_bytes`] /
//! [`Snapshot::from_bytes`] on disk — continues the run **bit-identically**
//! to the uninterrupted one, for every backend, worker count, round mode,
//! and churn plan.
//!
//! # Boundary-only guarantee
//!
//! Checkpoints are taken only at round boundaries (lockstep backends:
//! after the round's deliveries have landed and the epoch has flipped) or
//! step boundaries (async backend: after a node step and its rescheduling
//! completed). At those points the engine state is closed — the frozen
//! read plane, the write plane, and the epoch coincide in one backing
//! array, all in-flight work is either landed or explicitly queued — so
//! the PR-5 frozen-read-plane and PR-6 boundary-only-churn bit-identity
//! arguments carry over to a resumed run unchanged. There is no
//! mid-round snapshot: [`crate::Simulation::checkpoint_every`] counts
//! boundaries.
//!
//! # Wire format
//!
//! [`Snapshot::to_bytes`] emits a little-endian, length-prefixed frame:
//!
//! | field           | size | contents                                     |
//! |-----------------|------|----------------------------------------------|
//! | magic           | 4    | `b"SASN"`                                    |
//! | version         | 4    | [`SNAPSHOT_VERSION`]                         |
//! | backend         | 1    | 0 = sync, 1 = scoped, 2 = async              |
//! | boundary        | 8    | round (lockstep) / total steps (async)       |
//! | graph fp        | 8    | FNV-1a over the base graph's CSR             |
//! | protocol id     | 8    | FNV-1a over the protocol type + parameters   |
//! | config digest   | 8    | FNV-1a over seed, inputs, churn plan, …      |
//! | body length     | 8    | bytes of body                                |
//! | body            | var  | backend-specific engine state                |
//! | checksum        | 8    | FNV-1a over all preceding bytes              |
//!
//! The version is bumped whenever any of the layouts change;
//! [`Snapshot::from_bytes`] rejects other versions with
//! [`SnapshotError::VersionMismatch`] rather than guessing. The digests
//! bind a snapshot to the graph, protocol, and configuration it was taken
//! under; [`crate::Simulation::resume_from`] re-derives them from the
//! builder and rejects mismatches with a typed
//! [`crate::ExecError::Snapshot`] instead of resuming garbage.
//! Deliberately *excluded* from the digests: worker count, round mode,
//! merge strategy, scheduler kind, bucket width, and the budget — runs
//! are bit-identical across all of those, so a snapshot taken under one
//! may resume under another.
//!
//! # Example
//!
//! ```
//! use stoneage_core::{Alphabet, AsMulti, Letter, TableProtocolBuilder, Transitions};
//! use stoneage_graph::generators;
//! use stoneage_sim::snapshot::Snapshot;
//! use stoneage_sim::{Observer, Simulation};
//!
//! // Beep once, then output 1 + f_b(#beeps heard).
//! let mut b = TableProtocolBuilder::new("count", Alphabet::new(["beep"]), 3, Letter(0));
//! let start = b.add_state("start", Letter(0));
//! let listen = b.add_state("listen", Letter(0));
//! b.add_input_state(start);
//! b.set_transition_all(start, Transitions::det(listen, Some(Letter(0))));
//! for o in 0..=3 {
//!     let out = b.add_output_state(format!("out{o}"), Letter(0), 1 + o as u64);
//!     b.set_transition(listen, o, Transitions::det(out, None));
//!     b.set_transition_all(out, Transitions::det(out, None));
//! }
//! let protocol = AsMulti(b.build().unwrap());
//! let graph = generators::cycle(8);
//!
//! // Collect a snapshot at every round boundary.
//! struct Keep(Vec<Snapshot>);
//! impl<S> Observer<S> for Keep {
//!     fn on_checkpoint(&mut self, snapshot: &Snapshot) {
//!         self.0.push(snapshot.clone());
//!     }
//! }
//! let mut keep = Keep(Vec::new());
//! let full = Simulation::sync(&protocol, &graph)
//!     .seed(7)
//!     .checkpoint_every(1)
//!     .observe(&mut keep)
//!     .run()
//!     .unwrap();
//!
//! // Round-trip the first checkpoint through bytes and resume from it:
//! // bit-identical to the uninterrupted run.
//! let bytes = keep.0[0].to_bytes();
//! let snapshot = Snapshot::from_bytes(&bytes).unwrap();
//! let resumed = Simulation::sync(&protocol, &graph)
//!     .seed(7)
//!     .resume_from(&snapshot)
//!     .run()
//!     .unwrap();
//! assert_eq!(resumed.outputs, full.outputs);
//! assert_eq!(resumed.cost, full.cost);
//! ```

use rand::rngs::{SeedState, SmallRng};

use stoneage_core::Letter;
use stoneage_graph::Graph;

use crate::engine::{FlatPorts, PortPlanes};
use crate::faults::FaultSummary;
use crate::scoped::ScopedDelivery;
use crate::ExecError;

/// The current snapshot format version; bumped on any layout change.
/// Version 2 added the fault-layer tally (the accumulated
/// [`FaultSummary`], whose `evaluated` field is the fault-plan cursor)
/// to both body layouts, so a run checkpointed mid-[`crate::FaultPlan`]
/// resumes with bit-identical fault accounting.
pub const SNAPSHOT_VERSION: u32 = 2;

/// The frame magic.
const MAGIC: [u8; 4] = *b"SASN";

/// Backend tag of a sync-backend snapshot.
pub(crate) const BACKEND_SYNC: u8 = 0;
/// Backend tag of a scoped-backend snapshot.
pub(crate) const BACKEND_SCOPED: u8 = 1;
/// Backend tag of an async-backend snapshot.
pub(crate) const BACKEND_ASYNC: u8 = 2;

/// Why a snapshot could not be decoded or bound to a run. Carried by
/// [`crate::ExecError::Snapshot`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SnapshotError {
    /// The frame was produced by a different format version.
    VersionMismatch {
        /// The version found in the frame.
        found: u32,
        /// The version this build supports.
        supported: u32,
    },
    /// A digest, magic, checksum, or structural field did not match what
    /// the run it is being bound to requires.
    DigestMismatch {
        /// Which field mismatched.
        field: &'static str,
    },
    /// The byte stream ended before the field being read.
    Truncated {
        /// Which part of the frame was being read.
        context: &'static str,
    },
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::VersionMismatch { found, supported } => write!(
                f,
                "snapshot format version {found} is not supported (this build reads {supported})"
            ),
            SnapshotError::DigestMismatch { field } => {
                write!(f, "snapshot does not match the run: {field} mismatch")
            }
            SnapshotError::Truncated { context } => {
                write!(f, "snapshot bytes truncated while reading {context}")
            }
        }
    }
}

impl std::error::Error for SnapshotError {}

/// A snapshot whose body belongs to another backend or configuration:
/// the wrong witness kind, or a churn cursor or fault tally the resuming
/// run does not (or does) carry.
pub(crate) const BODY_KIND: SnapshotError = SnapshotError::DigestMismatch {
    field: "snapshot body kind",
};

/// An incremental FNV-1a 64 hasher — the digest primitive of the header
/// fields and the frame checksum.
pub(crate) struct Digest(u64);

impl Digest {
    pub(crate) fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    pub(crate) fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub(crate) fn u64(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
    }

    pub(crate) fn finish(&self) -> u64 {
        self.0
    }
}

/// FNV-1a over a graph's full CSR adjacency (node count, degrees,
/// neighbor lists) — the header field binding a snapshot to its graph.
pub(crate) fn graph_fingerprint(graph: &Graph) -> u64 {
    let mut d = Digest::new();
    d.u64(graph.node_count() as u64);
    for v in 0..graph.node_count() {
        let v = v as stoneage_graph::NodeId;
        d.u64(graph.degree(v) as u64);
        for &u in graph.neighbors(v) {
            d.u64(u as u64);
        }
    }
    d.finish()
}

/// Best-effort protocol identity: the concrete Rust type name plus the
/// static protocol parameters (|Σ|, `b`, σ₀). Transition tables are *not*
/// hashed — two table protocols of the same type, alphabet size, bound,
/// and initial letter share an id, so this guards against wiring the
/// wrong protocol *kind*, not against every table edit.
pub(crate) fn protocol_digest<P: stoneage_core::Protocol + ?Sized>(protocol: &P) -> u64 {
    let mut d = Digest::new();
    d.bytes(std::any::type_name::<P>().as_bytes());
    d.u64(protocol.alphabet().len() as u64);
    d.u64(protocol.bound() as u64);
    d.u64(protocol.initial_letter().0 as u64);
    d.finish()
}

/// A checkpoint of a running simulation, taken at a round/step boundary
/// through [`crate::Simulation::checkpoint_every`] and delivered to
/// [`crate::Observer::on_checkpoint`]. Resume with
/// [`crate::Simulation::resume_from`]; persist with
/// [`Snapshot::to_bytes`] / [`Snapshot::from_bytes`]. See the [module
/// docs](self) for the format and guarantees.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Snapshot {
    version: u32,
    backend: u8,
    boundary: u64,
    graph_fp: u64,
    protocol_id: u64,
    config_digest: u64,
    body: Vec<u8>,
}

impl Snapshot {
    pub(crate) fn new(meta: SnapMeta, boundary: u64, body: Vec<u8>) -> Self {
        Snapshot {
            version: SNAPSHOT_VERSION,
            backend: meta.backend,
            boundary,
            graph_fp: meta.graph_fp,
            protocol_id: meta.protocol_id,
            config_digest: meta.config_digest,
            body,
        }
    }

    /// The format version this snapshot was written with.
    pub fn version(&self) -> u32 {
        self.version
    }

    /// The backend tag: 0 = sync, 1 = scoped, 2 = async.
    pub fn backend(&self) -> u8 {
        self.backend
    }

    /// The boundary the snapshot was taken at: the completed round
    /// (lockstep backends) or the total applied node steps (async).
    pub fn boundary(&self) -> u64 {
        self.boundary
    }

    /// The graph fingerprint this snapshot is bound to.
    pub fn graph_fingerprint(&self) -> u64 {
        self.graph_fp
    }

    /// The protocol identity this snapshot is bound to.
    pub fn protocol_id(&self) -> u64 {
        self.protocol_id
    }

    /// The configuration digest (seed, inputs, churn plan, adversary)
    /// this snapshot is bound to.
    pub fn config_digest(&self) -> u64 {
        self.config_digest
    }

    pub(crate) fn body(&self) -> &[u8] {
        &self.body
    }

    /// Serializes the snapshot into the versioned, checksummed wire frame
    /// documented in the [module docs](self).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(4 + 4 + 1 + 8 * 5 + self.body.len() + 8);
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&self.version.to_le_bytes());
        out.push(self.backend);
        out.extend_from_slice(&self.boundary.to_le_bytes());
        out.extend_from_slice(&self.graph_fp.to_le_bytes());
        out.extend_from_slice(&self.protocol_id.to_le_bytes());
        out.extend_from_slice(&self.config_digest.to_le_bytes());
        out.extend_from_slice(&(self.body.len() as u64).to_le_bytes());
        out.extend_from_slice(&self.body);
        let mut d = Digest::new();
        d.bytes(&out);
        out.extend_from_slice(&d.finish().to_le_bytes());
        out
    }

    /// Parses a wire frame produced by [`Snapshot::to_bytes`], rejecting
    /// bad magic, unsupported versions, truncation, length mismatches,
    /// and checksum failures with the corresponding [`SnapshotError`].
    pub fn from_bytes(bytes: &[u8]) -> Result<Snapshot, SnapshotError> {
        let mut r = SnapReader::new(bytes, "snapshot header");
        let magic = r.take(4)?;
        if magic != MAGIC {
            return Err(SnapshotError::DigestMismatch { field: "magic" });
        }
        let version = r.u32()?;
        if version != SNAPSHOT_VERSION {
            return Err(SnapshotError::VersionMismatch {
                found: version,
                supported: SNAPSHOT_VERSION,
            });
        }
        let backend = r.u8()?;
        let boundary = r.u64()?;
        let graph_fp = r.u64()?;
        let protocol_id = r.u64()?;
        let config_digest = r.u64()?;
        let body_len = r.u64()?;
        let header_len = 4 + 4 + 1 + 8 * 5;
        let expect = (header_len as u64)
            .checked_add(body_len)
            .and_then(|l| l.checked_add(8));
        if expect != Some(bytes.len() as u64) {
            return Err(SnapshotError::Truncated {
                context: "snapshot body",
            });
        }
        let body = bytes[header_len..header_len + body_len as usize].to_vec();
        let stored = u64::from_le_bytes(bytes[bytes.len() - 8..].try_into().expect("8 bytes"));
        let mut d = Digest::new();
        d.bytes(&bytes[..bytes.len() - 8]);
        if d.finish() != stored {
            return Err(SnapshotError::DigestMismatch { field: "checksum" });
        }
        Ok(Snapshot {
            version,
            backend,
            boundary,
            graph_fp,
            protocol_id,
            config_digest,
            body,
        })
    }
}

/// Little-endian byte sink for [`SnapState::encode`] implementations.
#[derive(Default)]
pub struct SnapWriter {
    buf: Vec<u8>,
}

impl SnapWriter {
    /// An empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one byte.
    pub fn u8(&mut self, x: u8) {
        self.buf.push(x);
    }

    /// Appends a little-endian `u16`.
    pub fn u16(&mut self, x: u16) {
        self.buf.extend_from_slice(&x.to_le_bytes());
    }

    /// Appends a little-endian `u32`.
    pub fn u32(&mut self, x: u32) {
        self.buf.extend_from_slice(&x.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn u64(&mut self, x: u64) {
        self.buf.extend_from_slice(&x.to_le_bytes());
    }

    /// Appends an `f64` as its exact bit pattern.
    pub fn f64(&mut self, x: f64) {
        self.u64(x.to_bits());
    }

    /// Appends a boolean as one byte.
    pub fn bool(&mut self, x: bool) {
        self.u8(x as u8);
    }

    /// The accumulated bytes. Public so downstream [`SnapState`]
    /// implementations (protocol crates add their own state codecs) can
    /// unit-test their encode/decode round trip.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }
}

/// Little-endian byte source for [`SnapState::decode`] implementations.
/// Every getter fails with [`SnapshotError::Truncated`] instead of
/// panicking when the stream runs out.
pub struct SnapReader<'a> {
    bytes: &'a [u8],
    pos: usize,
    context: &'static str,
}

impl<'a> SnapReader<'a> {
    /// A reader over `bytes`; `context` labels truncation errors. Public
    /// so downstream [`SnapState`] implementations can unit-test their
    /// encode/decode round trip.
    pub fn new(bytes: &'a [u8], context: &'static str) -> Self {
        SnapReader {
            bytes,
            pos: 0,
            context,
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.bytes.len())
            .ok_or(SnapshotError::Truncated {
                context: self.context,
            })?;
        let out = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, SnapshotError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("2")))
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    /// Reads an `f64` bit pattern.
    pub fn f64(&mut self) -> Result<f64, SnapshotError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a boolean byte.
    pub fn bool(&mut self) -> Result<bool, SnapshotError> {
        Ok(self.u8()? != 0)
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }
}

/// How one per-node protocol state serializes into a snapshot body.
///
/// Implemented here for the state types the built-in protocol combinators
/// use (`u16` table states, [`stoneage_core::sync::SyncState`] synchronizer
/// wrappers, letters and options thereof); custom protocols implement it
/// for their own state type to become checkpointable. The encoding must
/// be self-delimiting: `decode` must consume exactly the bytes `encode`
/// produced.
pub trait SnapState: Sized {
    /// Serializes `self` into `w`.
    fn encode(&self, w: &mut SnapWriter);
    /// Reads one state back, consuming exactly what [`SnapState::encode`]
    /// wrote.
    fn decode(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError>;
}

impl SnapState for u16 {
    fn encode(&self, w: &mut SnapWriter) {
        w.u16(*self);
    }
    fn decode(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        r.u16()
    }
}

impl SnapState for u64 {
    fn encode(&self, w: &mut SnapWriter) {
        w.u64(*self);
    }
    fn decode(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        r.u64()
    }
}

impl SnapState for Letter {
    fn encode(&self, w: &mut SnapWriter) {
        w.u16(self.0);
    }
    fn decode(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        Ok(Letter(r.u16()?))
    }
}

impl<S: SnapState> SnapState for Option<S> {
    fn encode(&self, w: &mut SnapWriter) {
        match self {
            None => w.u8(0),
            Some(x) => {
                w.u8(1);
                x.encode(w);
            }
        }
    }
    fn decode(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        match r.u8()? {
            0 => Ok(None),
            1 => Ok(Some(S::decode(r)?)),
            _ => Err(SnapshotError::DigestMismatch {
                field: "option tag",
            }),
        }
    }
}

impl SnapState for stoneage_core::sync::Scan {
    fn encode(&self, w: &mut SnapWriter) {
        w.u8(match self {
            stoneage_core::sync::Scan::Phi1 => 0,
            stoneage_core::sync::Scan::Phi2 => 1,
            stoneage_core::sync::Scan::Phi3 => 2,
        });
    }
    fn decode(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        match r.u8()? {
            0 => Ok(stoneage_core::sync::Scan::Phi1),
            1 => Ok(stoneage_core::sync::Scan::Phi2),
            2 => Ok(stoneage_core::sync::Scan::Phi3),
            _ => Err(SnapshotError::DigestMismatch { field: "scan tag" }),
        }
    }
}

impl<S: SnapState> SnapState for stoneage_core::sync::SyncState<S> {
    fn encode(&self, w: &mut SnapWriter) {
        match self {
            stoneage_core::sync::SyncState::Pause {
                inner,
                retained,
                trit,
                check,
            } => {
                w.u8(0);
                inner.encode(w);
                retained.encode(w);
                w.u8(*trit);
                w.u16(*check);
            }
            stoneage_core::sync::SyncState::Sim {
                inner,
                retained,
                trit,
                scan,
                idx,
                acc,
                phi1,
                phi2,
            } => {
                w.u8(1);
                inner.encode(w);
                retained.encode(w);
                w.u8(*trit);
                scan.encode(w);
                w.u16(*idx);
                w.u8(*acc);
                w.u8(*phi1);
                w.u8(*phi2);
            }
        }
    }
    fn decode(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        match r.u8()? {
            0 => Ok(stoneage_core::sync::SyncState::Pause {
                inner: S::decode(r)?,
                retained: Option::<Letter>::decode(r)?,
                trit: r.u8()?,
                check: r.u16()?,
            }),
            1 => Ok(stoneage_core::sync::SyncState::Sim {
                inner: S::decode(r)?,
                retained: Option::<Letter>::decode(r)?,
                trit: r.u8()?,
                scan: stoneage_core::sync::Scan::decode(r)?,
                idx: r.u16()?,
                acc: r.u8()?,
                phi1: r.u8()?,
                phi2: r.u8()?,
            }),
            _ => Err(SnapshotError::DigestMismatch {
                field: "sync state tag",
            }),
        }
    }
}

/// A monomorphized encode/decode pair for one protocol state type,
/// captured by [`crate::Simulation::checkpoint_every`] /
/// [`crate::Simulation::resume_from`] so the execution engines stay free
/// of [`SnapState`] bounds.
pub struct StateCodec<S> {
    encode: fn(&S, &mut SnapWriter),
    decode: fn(&mut SnapReader<'_>) -> Result<S, SnapshotError>,
}

impl<S> Clone for StateCodec<S> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<S> Copy for StateCodec<S> {}

impl<S> std::fmt::Debug for StateCodec<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("StateCodec")
    }
}

impl<S: SnapState> StateCodec<S> {
    /// The codec of `S`'s own [`SnapState`] implementation.
    pub fn auto() -> Self {
        StateCodec {
            encode: |s, w| s.encode(w),
            decode: S::decode,
        }
    }
}

impl<S> StateCodec<S> {
    pub(crate) fn encode_states(&self, states: &[S], w: &mut SnapWriter) {
        for s in states {
            (self.encode)(s, w);
        }
    }

    pub(crate) fn decode_states(
        &self,
        r: &mut SnapReader<'_>,
        n: usize,
    ) -> Result<Vec<S>, SnapshotError> {
        (0..n).map(|_| (self.decode)(r)).collect()
    }
}

/// The header-digest triple a run computes from its own builder
/// configuration, stamped into every snapshot it writes and checked
/// against every snapshot it resumes.
#[derive(Clone, Copy, Debug)]
pub(crate) struct SnapMeta {
    pub backend: u8,
    pub graph_fp: u64,
    pub protocol_id: u64,
    pub config_digest: u64,
}

impl SnapMeta {
    pub(crate) fn none() -> Self {
        SnapMeta {
            backend: 0,
            graph_fp: 0,
            protocol_id: 0,
            config_digest: 0,
        }
    }
}

/// The snapshot plumbing an execution engine receives from the builder:
/// checkpoint cadence, an optional snapshot to resume from, the state
/// codec, and the header digests. `every == 0` and `resume == None`
/// disable the whole layer.
pub(crate) struct SnapArgs<'a, S> {
    pub every: u64,
    pub resume: Option<&'a Snapshot>,
    pub codec: Option<StateCodec<S>>,
    pub meta: SnapMeta,
}

impl<S> Clone for SnapArgs<'_, S> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<S> Copy for SnapArgs<'_, S> {}

impl<S> SnapArgs<'_, S> {
    pub(crate) fn none() -> Self {
        SnapArgs {
            every: 0,
            resume: None,
            codec: None,
            meta: SnapMeta::none(),
        }
    }

    pub(crate) fn codec(&self) -> StateCodec<S> {
        self.codec
            .expect("the builder supplies a codec whenever the snapshot layer is active")
    }
}

/// The boundary a resumed lockstep run continues from: the loop counters
/// a snapshot restores that live in the round loop rather than in the
/// engine state.
#[derive(Clone, Copy, Debug)]
pub(crate) struct ResumePoint {
    pub round: u64,
    pub sent: u64,
    pub undecided: u64,
}

// ---------------------------------------------------------------------------
// Lockstep (sync / scoped) body layout
// ---------------------------------------------------------------------------

/// Everything a lockstep engine hands the snapshot layer at a round
/// boundary.
pub(crate) struct LockstepCapture<'a, S> {
    pub round: u64,
    pub sent: u64,
    pub undecided: u64,
    pub planes: &'a PortPlanes,
    pub states: &'a [S],
    pub rngs: &'a [SmallRng],
    /// The scoped-delivery transcript so far (scoped backend only).
    pub witness: Option<&'a [ScopedDelivery]>,
    /// The churn event cursor (churn runs only).
    pub churn_next: Option<u64>,
    /// The fault-layer tally so far (faulted runs only).
    pub faults: Option<FaultSummary>,
}

/// Serializes a lockstep boundary into a [`Snapshot`].
pub(crate) fn encode_lockstep<S>(
    meta: SnapMeta,
    codec: &StateCodec<S>,
    cap: &LockstepCapture<'_, S>,
) -> Snapshot {
    let mut w = SnapWriter::new();
    let mut flags = 0u8;
    if cap.witness.is_some() {
        flags |= 1;
    }
    if cap.churn_next.is_some() {
        flags |= 2;
    }
    if cap.faults.is_some() {
        flags |= 4;
    }
    w.u8(flags);
    w.u64(cap.states.len() as u64);
    w.u64(cap.round);
    w.u64(cap.sent);
    w.u64(cap.undecided);
    w.u64(cap.planes.epoch());
    let letters = cap.planes.read().letters();
    w.u64(letters.len() as u64);
    for &l in letters {
        w.u16(l.0);
    }
    codec.encode_states(cap.states, &mut w);
    for rng in cap.rngs {
        for word in rng.state().words {
            w.u64(word);
        }
    }
    if let Some(wit) = cap.witness {
        w.u64(wit.len() as u64);
        for d in wit {
            w.u64(d.round);
            w.u32(d.from);
            w.u32(d.to);
            w.u16(d.letter.0);
        }
    }
    if let Some(next) = cap.churn_next {
        w.u64(next);
    }
    if let Some(f) = cap.faults {
        encode_fault_tally(&mut w, &f);
    }
    Snapshot::new(meta, cap.round, w.into_bytes())
}

/// Serializes a fault-layer tally (both body layouts share this shape).
fn encode_fault_tally(w: &mut SnapWriter, f: &FaultSummary) {
    w.u64(f.evaluated);
    w.u64(f.dropped);
    w.u64(f.duplicated);
    w.u64(f.corrupted);
}

/// Reads a fault-layer tally back.
fn decode_fault_tally(r: &mut SnapReader<'_>) -> Result<FaultSummary, SnapshotError> {
    Ok(FaultSummary {
        evaluated: r.u64()?,
        dropped: r.u64()?,
        duplicated: r.u64()?,
        corrupted: r.u64()?,
    })
}

/// A decoded lockstep boundary, ready to splice into a fresh engine.
pub(crate) struct LockstepResume<S> {
    pub round: u64,
    pub sent: u64,
    pub undecided: u64,
    pub epoch: u64,
    pub letters: Vec<Letter>,
    pub states: Vec<S>,
    pub rngs: Vec<SmallRng>,
    pub witness: Option<Vec<ScopedDelivery>>,
    pub churn_next: Option<u64>,
    pub faults: Option<FaultSummary>,
}

/// Decodes a lockstep snapshot body, validating the node and port-slot
/// counts against the run's graph.
pub(crate) fn decode_lockstep<S>(
    snap: &Snapshot,
    codec: &StateCodec<S>,
    n: usize,
    slots: usize,
) -> Result<LockstepResume<S>, ExecError> {
    decode_lockstep_inner(snap, codec, n, slots).map_err(ExecError::Snapshot)
}

fn decode_lockstep_inner<S>(
    snap: &Snapshot,
    codec: &StateCodec<S>,
    n: usize,
    slots: usize,
) -> Result<LockstepResume<S>, SnapshotError> {
    let mut r = SnapReader::new(snap.body(), "lockstep snapshot body");
    let flags = r.u8()?;
    if r.u64()? != n as u64 {
        return Err(SnapshotError::DigestMismatch {
            field: "node count",
        });
    }
    let round = r.u64()?;
    let sent = r.u64()?;
    let undecided = r.u64()?;
    let epoch = r.u64()?;
    if r.u64()? != slots as u64 {
        return Err(SnapshotError::DigestMismatch {
            field: "port slot count",
        });
    }
    let letters = (0..slots)
        .map(|_| Ok(Letter(r.u16()?)))
        .collect::<Result<Vec<_>, SnapshotError>>()?;
    let states = codec.decode_states(&mut r, n)?;
    let rngs = (0..n)
        .map(|_| {
            let mut words = [0u64; 4];
            for word in &mut words {
                *word = r.u64()?;
            }
            Ok(SmallRng::from_state(SeedState { words }))
        })
        .collect::<Result<Vec<_>, SnapshotError>>()?;
    let witness = if flags & 1 != 0 {
        let len = r.u64()? as usize;
        Some(
            (0..len)
                .map(|_| {
                    Ok(ScopedDelivery {
                        round: r.u64()?,
                        from: r.u32()?,
                        to: r.u32()?,
                        letter: Letter(r.u16()?),
                    })
                })
                .collect::<Result<Vec<_>, SnapshotError>>()?,
        )
    } else {
        None
    };
    let churn_next = if flags & 2 != 0 { Some(r.u64()?) } else { None };
    let faults = if flags & 4 != 0 {
        Some(decode_fault_tally(&mut r)?)
    } else {
        None
    };
    if r.remaining() != 0 {
        return Err(SnapshotError::DigestMismatch {
            field: "trailing bytes",
        });
    }
    Ok(LockstepResume {
        round,
        sent,
        undecided,
        epoch,
        letters,
        states,
        rngs,
        witness,
        churn_next,
        faults,
    })
}

/// A decoded lockstep snapshot spliced into live engine parts: the
/// restored planes (letters + canonically recomputed counts + epoch),
/// states, RNG streams, optional witness transcript and churn cursor,
/// and the loop counters as a [`ResumePoint`].
pub(crate) struct LockstepSplice<S> {
    pub planes: PortPlanes,
    pub states: Vec<S>,
    pub rngs: Vec<SmallRng>,
    pub witness: Option<Vec<ScopedDelivery>>,
    pub churn_next: Option<u64>,
    pub faults: Option<FaultSummary>,
    pub point: ResumePoint,
}

/// Decodes and splices a lockstep snapshot against the run's graph — the
/// shared restore path of the sync and scoped executors (churn runs pass
/// the churn universe as `graph`).
pub(crate) fn resume_lockstep<S>(
    snap: &Snapshot,
    codec: &StateCodec<S>,
    graph: &Graph,
    sigma: usize,
) -> Result<LockstepSplice<S>, ExecError> {
    let res = decode_lockstep(snap, codec, graph.node_count(), graph.port_slot_count())?;
    Ok(LockstepSplice {
        planes: PortPlanes::from_parts(
            FlatPorts::from_letters(graph, sigma, res.letters),
            res.epoch,
        ),
        states: res.states,
        rngs: res.rngs,
        witness: res.witness,
        churn_next: res.churn_next,
        faults: res.faults,
        point: ResumePoint {
            round: res.round,
            sent: res.sent,
            undecided: res.undecided,
        },
    })
}

// ---------------------------------------------------------------------------
// Async body layout
// ---------------------------------------------------------------------------

/// One queued event of the async backlog, scheduler-agnostic: run
/// events of equal-arrival letters are expanded into their per-letter
/// deliveries (with their exact consecutive `seq` values) before capture,
/// so a snapshot's backlog bytes are identical whichever queue wrote them.
#[derive(Clone, Copy, Debug)]
pub(crate) struct BacklogEvent {
    pub time: f64,
    pub seq: u64,
    pub kind: BacklogKind,
}

/// The payload of a [`BacklogEvent`]. `inc` carries the incarnation stamp
/// of churn runs; churn-free runs write and ignore zero.
#[derive(Clone, Copy, Debug)]
pub(crate) enum BacklogKind {
    Step {
        node: u32,
        inc: u32,
    },
    Deliver {
        node: u32,
        slot: u32,
        letter: Letter,
        inc: u32,
    },
}

/// Everything the async engine hands the snapshot layer at a step
/// boundary.
pub(crate) struct AsyncCapture<'a, S> {
    pub total_steps: u64,
    pub events: u64,
    pub seq: u64,
    pub messages_sent: u64,
    pub deliveries: u64,
    pub lost_overwrites: u64,
    pub max_param: f64,
    pub unfinished: u64,
    pub states: &'a [S],
    pub letters: &'a [Letter],
    pub pending: &'a [bool],
    pub last_arrival: &'a [f64],
    pub step_counts: &'a [u64],
    pub rngs: &'a [SmallRng],
    /// Per-node incarnations and the churn event cursor (churn runs only).
    pub churn: Option<(&'a [u32], u64)>,
    /// The fault-layer tally so far (faulted runs only).
    pub faults: Option<FaultSummary>,
    /// The queued events, in any order; sorted by `(time, seq)` here.
    pub backlog: Vec<BacklogEvent>,
}

/// Serializes an async step boundary into a [`Snapshot`].
pub(crate) fn encode_async<S>(
    meta: SnapMeta,
    codec: &StateCodec<S>,
    mut cap: AsyncCapture<'_, S>,
) -> Snapshot {
    cap.backlog
        .sort_by(|a, b| a.time.total_cmp(&b.time).then(a.seq.cmp(&b.seq)));
    let mut w = SnapWriter::new();
    let mut flags = if cap.churn.is_some() { 1u8 } else { 0 };
    if cap.faults.is_some() {
        flags |= 2;
    }
    w.u8(flags);
    w.u64(cap.states.len() as u64);
    w.u64(cap.total_steps);
    w.u64(cap.events);
    w.u64(cap.seq);
    w.u64(cap.messages_sent);
    w.u64(cap.deliveries);
    w.u64(cap.lost_overwrites);
    w.f64(cap.max_param);
    w.u64(cap.unfinished);
    codec.encode_states(cap.states, &mut w);
    w.u64(cap.letters.len() as u64);
    for &l in cap.letters {
        w.u16(l.0);
    }
    for &p in cap.pending {
        w.bool(p);
    }
    for &a in cap.last_arrival {
        w.f64(a);
    }
    for &t in cap.step_counts {
        w.u64(t);
    }
    for rng in cap.rngs {
        for word in rng.state().words {
            w.u64(word);
        }
    }
    if let Some((incarnation, next)) = cap.churn {
        for &i in incarnation {
            w.u32(i);
        }
        w.u64(next);
    }
    if let Some(f) = cap.faults {
        encode_fault_tally(&mut w, &f);
    }
    w.u64(cap.backlog.len() as u64);
    for e in &cap.backlog {
        w.f64(e.time);
        w.u64(e.seq);
        match e.kind {
            BacklogKind::Step { node, inc } => {
                w.u8(0);
                w.u32(node);
                w.u32(inc);
            }
            BacklogKind::Deliver {
                node,
                slot,
                letter,
                inc,
            } => {
                w.u8(1);
                w.u32(node);
                w.u32(slot);
                w.u16(letter.0);
                w.u32(inc);
            }
        }
    }
    Snapshot::new(meta, cap.total_steps, w.into_bytes())
}

/// A decoded async step boundary, ready to splice into a fresh engine.
pub(crate) struct AsyncResume<S> {
    pub total_steps: u64,
    pub events: u64,
    pub seq: u64,
    pub messages_sent: u64,
    pub deliveries: u64,
    pub lost_overwrites: u64,
    pub max_param: f64,
    pub unfinished: u64,
    pub states: Vec<S>,
    pub letters: Vec<Letter>,
    pub pending: Vec<bool>,
    pub last_arrival: Vec<f64>,
    pub step_counts: Vec<u64>,
    pub rngs: Vec<SmallRng>,
    pub churn: Option<(Vec<u32>, u64)>,
    pub faults: Option<FaultSummary>,
    pub backlog: Vec<BacklogEvent>,
}

/// Decodes an async snapshot body, validating the node and port-slot
/// counts against the run's graph.
pub(crate) fn decode_async<S>(
    snap: &Snapshot,
    codec: &StateCodec<S>,
    n: usize,
    slots: usize,
) -> Result<AsyncResume<S>, ExecError> {
    decode_async_inner(snap, codec, n, slots).map_err(ExecError::Snapshot)
}

fn decode_async_inner<S>(
    snap: &Snapshot,
    codec: &StateCodec<S>,
    n: usize,
    slots: usize,
) -> Result<AsyncResume<S>, SnapshotError> {
    let mut r = SnapReader::new(snap.body(), "async snapshot body");
    let flags = r.u8()?;
    if r.u64()? != n as u64 {
        return Err(SnapshotError::DigestMismatch {
            field: "node count",
        });
    }
    let total_steps = r.u64()?;
    let events = r.u64()?;
    let seq = r.u64()?;
    let messages_sent = r.u64()?;
    let deliveries = r.u64()?;
    let lost_overwrites = r.u64()?;
    let max_param = r.f64()?;
    let unfinished = r.u64()?;
    let states = codec.decode_states(&mut r, n)?;
    if r.u64()? != slots as u64 {
        return Err(SnapshotError::DigestMismatch {
            field: "port slot count",
        });
    }
    let letters = (0..slots)
        .map(|_| Ok(Letter(r.u16()?)))
        .collect::<Result<Vec<_>, SnapshotError>>()?;
    let pending = (0..slots)
        .map(|_| r.bool())
        .collect::<Result<Vec<_>, SnapshotError>>()?;
    let last_arrival = (0..slots)
        .map(|_| r.f64())
        .collect::<Result<Vec<_>, SnapshotError>>()?;
    let step_counts = (0..n)
        .map(|_| r.u64())
        .collect::<Result<Vec<_>, SnapshotError>>()?;
    let rngs = (0..n)
        .map(|_| {
            let mut words = [0u64; 4];
            for word in &mut words {
                *word = r.u64()?;
            }
            Ok(SmallRng::from_state(SeedState { words }))
        })
        .collect::<Result<Vec<_>, SnapshotError>>()?;
    let churn = if flags & 1 != 0 {
        let incarnation = (0..n)
            .map(|_| r.u32())
            .collect::<Result<Vec<_>, SnapshotError>>()?;
        Some((incarnation, r.u64()?))
    } else {
        None
    };
    let faults = if flags & 2 != 0 {
        Some(decode_fault_tally(&mut r)?)
    } else {
        None
    };
    let backlog_len = r.u64()? as usize;
    let backlog = (0..backlog_len)
        .map(|_| {
            let time = r.f64()?;
            let seq = r.u64()?;
            let kind = match r.u8()? {
                0 => BacklogKind::Step {
                    node: r.u32()?,
                    inc: r.u32()?,
                },
                1 => BacklogKind::Deliver {
                    node: r.u32()?,
                    slot: r.u32()?,
                    letter: Letter(r.u16()?),
                    inc: r.u32()?,
                },
                _ => {
                    return Err(SnapshotError::DigestMismatch {
                        field: "backlog event tag",
                    })
                }
            };
            Ok(BacklogEvent { time, seq, kind })
        })
        .collect::<Result<Vec<_>, SnapshotError>>()?;
    if r.remaining() != 0 {
        return Err(SnapshotError::DigestMismatch {
            field: "trailing bytes",
        });
    }
    Ok(AsyncResume {
        total_steps,
        events,
        seq,
        messages_sent,
        deliveries,
        lost_overwrites,
        max_param,
        unfinished,
        states,
        letters,
        pending,
        last_arrival,
        step_counts,
        rngs,
        churn,
        faults,
        backlog,
    })
}

/// A failure while persisting or loading a snapshot file.
///
/// Splits the two layers a file round-trip can fail in: the filesystem
/// ([`PersistError::Io`]) and the wire frame itself
/// ([`PersistError::Format`] — bad magic, truncation from a torn write,
/// checksum mismatch, version skew).
#[derive(Debug)]
pub enum PersistError {
    /// The underlying filesystem operation failed.
    Io(std::io::Error),
    /// The bytes on disk are not a valid snapshot frame.
    Format(SnapshotError),
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "snapshot file io: {e}"),
            PersistError::Format(e) => write!(f, "snapshot file format: {e}"),
        }
    }
}

impl std::error::Error for PersistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PersistError::Io(e) => Some(e),
            PersistError::Format(e) => Some(e),
        }
    }
}

impl From<std::io::Error> for PersistError {
    fn from(e: std::io::Error) -> Self {
        PersistError::Io(e)
    }
}

impl From<SnapshotError> for PersistError {
    fn from(e: SnapshotError) -> Self {
        PersistError::Format(e)
    }
}

/// Atomically persists `snapshot` at `path`.
///
/// The frame is written to a sibling `<path>.tmp` file, flushed with
/// `sync_all`, **read back and re-parsed** (so a torn or bit-flipped
/// write is caught before it can shadow a good snapshot), and only then
/// renamed over `path`. Readers therefore never observe a partial file:
/// they see either the previous snapshot or the new one.
pub fn write_snapshot_file(
    path: &std::path::Path,
    snapshot: &Snapshot,
) -> Result<(), PersistError> {
    use std::io::Write as _;

    let mut tmp = path.to_path_buf().into_os_string();
    tmp.push(".tmp");
    let tmp = std::path::PathBuf::from(tmp);
    let bytes = snapshot.to_bytes();
    {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(&bytes)?;
        f.sync_all()?;
    }
    // Read-back validation: the frame's trailing checksum covers every
    // header field and the body, so a successful parse proves the bytes
    // that hit the disk are the bytes we meant to write.
    let back = std::fs::read(&tmp)?;
    if let Err(e) = Snapshot::from_bytes(&back) {
        let _ = std::fs::remove_file(&tmp);
        return Err(PersistError::Format(e));
    }
    std::fs::rename(&tmp, path)?;
    Ok(())
}

/// Loads and validates a snapshot frame persisted by
/// [`write_snapshot_file`] (or any dump of [`Snapshot::to_bytes`]).
///
/// Torn writes and partial files surface as
/// [`PersistError::Format`]`(`[`SnapshotError::Truncated`]` | `
/// [`SnapshotError::DigestMismatch`]`)` rather than a corrupt resume.
pub fn read_snapshot_file(path: &std::path::Path) -> Result<Snapshot, PersistError> {
    let bytes = std::fs::read(path)?;
    Ok(Snapshot::from_bytes(&bytes)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Snapshot {
        Snapshot::new(
            SnapMeta {
                backend: BACKEND_SYNC,
                graph_fp: 0x1122_3344_5566_7788,
                protocol_id: 0x99aa_bbcc_ddee_ff00,
                config_digest: 0x0123_4567_89ab_cdef,
            },
            42,
            vec![1, 2, 3, 4, 5],
        )
    }

    #[test]
    fn wire_round_trip_is_identity() {
        let snap = sample();
        let bytes = snap.to_bytes();
        assert_eq!(Snapshot::from_bytes(&bytes).unwrap(), snap);
    }

    #[test]
    fn corruption_is_rejected_with_typed_errors() {
        let snap = sample();
        let bytes = snap.to_bytes();
        // Bad magic.
        let mut bad = bytes.clone();
        bad[0] ^= 0xFF;
        assert_eq!(
            Snapshot::from_bytes(&bad),
            Err(SnapshotError::DigestMismatch { field: "magic" })
        );
        // Unsupported version.
        let mut bad = bytes.clone();
        bad[4] = 0xEE;
        assert!(matches!(
            Snapshot::from_bytes(&bad),
            Err(SnapshotError::VersionMismatch { found, .. }) if found != SNAPSHOT_VERSION
        ));
        // Truncated frame.
        assert_eq!(
            Snapshot::from_bytes(&bytes[..bytes.len() - 3]),
            Err(SnapshotError::Truncated {
                context: "snapshot body"
            })
        );
        assert_eq!(
            Snapshot::from_bytes(&bytes[..10]),
            Err(SnapshotError::Truncated {
                context: "snapshot header"
            })
        );
        // Flipped body byte fails the checksum.
        let mut bad = bytes.clone();
        let body_at = bytes.len() - 8 - 3;
        bad[body_at] ^= 0x40;
        assert_eq!(
            Snapshot::from_bytes(&bad),
            Err(SnapshotError::DigestMismatch { field: "checksum" })
        );
    }

    #[test]
    fn graph_fingerprint_distinguishes_graphs() {
        use stoneage_graph::generators;
        let a = graph_fingerprint(&generators::cycle(8));
        let b = graph_fingerprint(&generators::cycle(9));
        let c = graph_fingerprint(&generators::path(8));
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(a, graph_fingerprint(&generators::cycle(8)));
    }

    #[test]
    fn sync_state_codec_round_trips() {
        use stoneage_core::sync::{Scan, SyncState};
        let states: Vec<SyncState<u16>> = vec![
            SyncState::Pause {
                inner: 7,
                retained: Some(Letter(3)),
                trit: 2,
                check: 513,
            },
            SyncState::Sim {
                inner: 9,
                retained: None,
                trit: 0,
                scan: Scan::Phi2,
                idx: 40,
                acc: 3,
                phi1: 1,
                phi2: 2,
            },
        ];
        let codec = StateCodec::<SyncState<u16>>::auto();
        let mut w = SnapWriter::new();
        codec.encode_states(&states, &mut w);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes, "test");
        let back = codec.decode_states(&mut r, states.len()).unwrap();
        assert_eq!(back, states);
        assert_eq!(r.remaining(), 0);
    }

    /// A unique scratch directory per test, cleaned up on drop.
    struct Scratch(std::path::PathBuf);

    impl Scratch {
        fn new(tag: &str) -> Scratch {
            let dir =
                std::env::temp_dir().join(format!("stoneage-snap-{tag}-{}", std::process::id()));
            std::fs::create_dir_all(&dir).unwrap();
            Scratch(dir)
        }

        fn path(&self, name: &str) -> std::path::PathBuf {
            self.0.join(name)
        }
    }

    impl Drop for Scratch {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    #[test]
    fn file_round_trip_is_identity() {
        let scratch = Scratch::new("roundtrip");
        let path = scratch.path("latest.snap");
        let snap = sample();
        write_snapshot_file(&path, &snap).unwrap();
        assert_eq!(read_snapshot_file(&path).unwrap(), snap);
        // No .tmp residue after a successful write.
        assert!(!scratch.path("latest.snap.tmp").exists());
    }

    #[test]
    fn overwrite_is_atomic_and_keeps_the_newer_frame() {
        let scratch = Scratch::new("overwrite");
        let path = scratch.path("latest.snap");
        let older = sample();
        write_snapshot_file(&path, &older).unwrap();
        let newer = Snapshot::new(
            SnapMeta {
                backend: BACKEND_SYNC,
                graph_fp: 1,
                protocol_id: 2,
                config_digest: 3,
            },
            43,
            vec![9, 9, 9],
        );
        write_snapshot_file(&path, &newer).unwrap();
        assert_eq!(read_snapshot_file(&path).unwrap(), newer);
    }

    #[test]
    fn torn_write_is_rejected_on_read() {
        let scratch = Scratch::new("torn");
        let path = scratch.path("latest.snap");
        let snap = sample();
        write_snapshot_file(&path, &snap).unwrap();
        // Simulate a torn write: truncate the file mid-body.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        match read_snapshot_file(&path) {
            Err(PersistError::Format(SnapshotError::Truncated { .. })) => {}
            other => panic!("torn file must reject as Truncated, got {other:?}"),
        }
    }

    #[test]
    fn partial_and_corrupt_files_are_rejected_on_read() {
        let scratch = Scratch::new("corrupt");
        let empty = scratch.path("empty.snap");
        std::fs::write(&empty, []).unwrap();
        assert!(matches!(
            read_snapshot_file(&empty),
            Err(PersistError::Format(SnapshotError::Truncated { .. }))
        ));

        let flipped = scratch.path("flipped.snap");
        let snap = sample();
        write_snapshot_file(&flipped, &snap).unwrap();
        let mut bytes = std::fs::read(&flipped).unwrap();
        let mid = bytes.len() - 10;
        bytes[mid] ^= 0x01;
        std::fs::write(&flipped, &bytes).unwrap();
        assert!(matches!(
            read_snapshot_file(&flipped),
            Err(PersistError::Format(SnapshotError::DigestMismatch { .. }))
        ));

        let missing = scratch.path("missing.snap");
        assert!(matches!(
            read_snapshot_file(&missing),
            Err(PersistError::Io(_))
        ));
    }
}
