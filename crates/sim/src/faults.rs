//! Seeded, deterministic **message-fault injection** on the delivery
//! boundary of every backend.
//!
//! The stone-age model is pitched as robust to weak, unreliable
//! communication, but until this module the simulator only injected
//! *topology* faults ([`crate::churn`]) over perfectly reliable channels.
//! A [`FaultPlan`] describes per-edge channel faults — message loss,
//! duplication, and corruption ([`LinkFault`]) — with per-class rates,
//! and [`crate::Simulation::with_faults`] applies them at the single
//! point every backend already funnels deliveries through:
//!
//! * **sync / scoped** — the [`crate::pipeline`] delivery sinks. Phase-2a
//!   writes pass through a fault wrapper before they reach the serial
//!   replay buffer or a worker's sharded [`crate::parbuf::DeliveryBuffer`],
//!   so the frozen-store bit-identity argument (serial ≡ parallel,
//!   any worker count) is preserved *by construction*: the fault
//!   decision for a delivery is a pure hash of `(plan seed, receiver
//!   slot, round, rule index)` and consumes no sequential RNG stream.
//! * **async** — the event emission site, after the adversary's arrival
//!   times are fixed: dropped deliveries are never enqueued, corrupted
//!   ones carry the substituted letter, duplicates are extra
//!   incarnation-stamped events scheduled FIFO-after the original. The
//!   decision hash uses the sender's step index as its time coordinate.
//!   A sender the plan touches enqueues its faulted fan as single
//!   deliveries with consecutive sequence numbers on whichever event
//!   queue the run uses; every copy is FIFO-bumped past its channel's
//!   watermark, so a same-instant delivery batch still hits pairwise
//!   distinct slots.
//!
//! Counting semantics: a faulted transmission still counts as *sent* (the
//! fault is on the channel, not the sender), `Drop` removes the port
//! write, `Duplicate(k)` adds `k` extra same-letter writes (observable
//! through overwrite-loss accounting in the async backend; idempotent but
//! counted on the lockstep last-letter ports), and `Corrupt(l)`
//! substitutes `l` for the transmitted letter. The accumulated
//! [`FaultSummary`] is surfaced on [`crate::Outcome`] and captured in
//! boundary snapshots (format version ≥ 2) so checkpoint/resume stays
//! bit-identical mid-plan.
//!
//! # Example
//!
//! ```
//! use stoneage_core::{Alphabet, AsMulti, Letter, TableProtocolBuilder, Transitions};
//! use stoneage_graph::generators;
//! use stoneage_sim::{FaultPlan, LinkFault, Simulation};
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
//! // Drop 30% of all messages, corrupt 5%, and deterministically
//! // duplicate everything the channel 0 → 1 carries.
//! let plan = FaultPlan::new(11)
//!     .drop_rate(0.3)
//!     .corrupt_rate(0.05, Letter(0))
//!     .on_edge(0, 1, LinkFault::Duplicate(2), 1.0);
//! let outcome = Simulation::sync(&protocol, &graph)
//!     .seed(7)
//!     .with_faults(&plan)
//!     .run()
//!     .unwrap();
//! let faults = outcome.faults().expect("the fault layer was active");
//! assert_eq!(
//!     faults.injected(),
//!     faults.dropped + faults.duplicated + faults.corrupted
//! );
//! ```

use std::collections::HashMap;

use stoneage_core::Letter;
use stoneage_graph::{Graph, NodeId};

use crate::pipeline::DeliverySink;
use crate::splitmix64;

/// Salt deriving the dedicated fault-decision stream from the plan seed,
/// disjoint from every per-node RNG stream and the churn plan stream.
const FAULT_STREAM_SALT: u64 = 0xFA17_5EED_0000_0001;

/// One kind of channel fault a [`FaultPlan`] rule can inject.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum LinkFault {
    /// The message is lost: the port write never happens.
    Drop,
    /// The message is delivered, followed by this many extra copies of
    /// the same letter on the same channel (FIFO-after the original in
    /// the async backend; idempotent but counted on lockstep ports).
    Duplicate(u8),
    /// The message is delivered as this letter instead.
    Corrupt(Letter),
}

/// Which channels one [`FaultPlan`] rule covers.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FaultScope {
    /// Every directed channel of the graph.
    AllEdges,
    /// The single directed channel `from → to`.
    Edge {
        /// The transmitting endpoint.
        from: NodeId,
        /// The receiving endpoint.
        to: NodeId,
    },
}

/// One rule of a [`FaultPlan`]: a fault class fired with probability
/// `rate` on every delivery its scope covers. Rules are evaluated in
/// plan order; the first rule that fires decides the delivery.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct FaultRule {
    /// The channels this rule covers.
    pub scope: FaultScope,
    /// The fault injected when the rule fires.
    pub fault: LinkFault,
    /// Firing probability in `[0, 1]`.
    pub rate: f64,
}

/// Why a [`FaultPlan`] cannot be applied to a run. Detected eagerly when
/// the plan is wired into an execution (surfaced as
/// [`crate::ExecError::Config`]) instead of panicking mid-run.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum FaultPlanError {
    /// A rule's rate is not a probability.
    Rate {
        /// Index of the offending rule.
        rule: usize,
        /// The out-of-range rate.
        rate: f64,
    },
    /// A `Corrupt` letter lies outside the protocol's alphabet.
    Letter {
        /// Index of the offending rule.
        rule: usize,
        /// The out-of-alphabet letter.
        letter: Letter,
        /// The alphabet size of the run.
        sigma: usize,
    },
    /// A `Duplicate` rule with zero extra copies (a no-op; almost
    /// certainly a mistake).
    Copies {
        /// Index of the offending rule.
        rule: usize,
    },
    /// An edge rule names a node outside the graph.
    Node {
        /// Index of the offending rule.
        rule: usize,
        /// The out-of-range node.
        node: NodeId,
        /// The node count of the graph.
        nodes: usize,
    },
    /// An edge rule targets a channel the graph does not have.
    UnknownEdge {
        /// Index of the offending rule.
        rule: usize,
        /// The transmitting endpoint.
        from: NodeId,
        /// The receiving endpoint.
        to: NodeId,
    },
}

impl std::fmt::Display for FaultPlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultPlanError::Rate { rule, rate } => {
                write!(f, "rule {rule}: rate {rate} is not in [0, 1]")
            }
            FaultPlanError::Letter {
                rule,
                letter,
                sigma,
            } => write!(
                f,
                "rule {rule}: corrupt letter {} is outside the alphabet (|Σ| = {sigma})",
                letter.0
            ),
            FaultPlanError::Copies { rule } => {
                write!(f, "rule {rule}: Duplicate(0) injects nothing")
            }
            FaultPlanError::Node { rule, node, nodes } => {
                write!(
                    f,
                    "rule {rule}: node {node} is outside the graph ({nodes} nodes)"
                )
            }
            FaultPlanError::UnknownEdge { rule, from, to } => {
                write!(f, "rule {rule}: the graph has no edge {from} → {to}")
            }
        }
    }
}

impl std::error::Error for FaultPlanError {}

/// Validates and compiles the run's optional fault plan against its
/// graph and alphabet size — the shared prologue of every executor. An
/// invalid plan is an [`crate::ExecError::Config`] before the run starts.
pub(crate) fn compile(
    plan: Option<&FaultPlan>,
    graph: &Graph,
    sigma: usize,
) -> Result<Option<FaultCtx>, crate::ExecError> {
    plan.map(|plan| FaultCtx::new(plan, graph, sigma))
        .transpose()
        .map_err(|e| crate::ExecError::Config {
            reason: format!("fault plan: {e}"),
        })
}

/// A seeded, deterministic schedule of channel faults, applied by
/// [`crate::Simulation::with_faults`]. See the [module docs](self) for
/// the decision function and the per-backend injection points.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    rules: Vec<FaultRule>,
}

impl FaultPlan {
    /// An empty plan drawing its fault decisions from `seed`'s dedicated
    /// stream. An empty plan injects nothing and leaves every execution
    /// bit-identical to a fault-free run.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            rules: Vec::new(),
        }
    }

    /// Appends a rule covering `scope`.
    pub fn rule(mut self, scope: FaultScope, fault: LinkFault, rate: f64) -> Self {
        self.rules.push(FaultRule { scope, fault, rate });
        self
    }

    /// Drops every message with probability `rate`, on every channel.
    pub fn drop_rate(self, rate: f64) -> Self {
        self.rule(FaultScope::AllEdges, LinkFault::Drop, rate)
    }

    /// Duplicates every message (`copies` extra deliveries) with
    /// probability `rate`, on every channel.
    pub fn duplicate_rate(self, rate: f64, copies: u8) -> Self {
        self.rule(FaultScope::AllEdges, LinkFault::Duplicate(copies), rate)
    }

    /// Corrupts every message into `letter` with probability `rate`, on
    /// every channel.
    pub fn corrupt_rate(self, rate: f64, letter: Letter) -> Self {
        self.rule(FaultScope::AllEdges, LinkFault::Corrupt(letter), rate)
    }

    /// Appends a rule covering only the directed channel `from → to`.
    pub fn on_edge(self, from: NodeId, to: NodeId, fault: LinkFault, rate: f64) -> Self {
        self.rule(FaultScope::Edge { from, to }, fault, rate)
    }

    /// The seed of the dedicated fault-decision stream.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The rules, in evaluation order.
    pub fn rules(&self) -> &[FaultRule] {
        &self.rules
    }

    /// Whether the plan has no rules at all.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Validates the plan against a graph and an alphabet size,
    /// reporting the first offending rule. The executors run this
    /// eagerly before the first round/step.
    pub fn validate(&self, graph: &Graph, sigma: usize) -> Result<(), FaultPlanError> {
        let n = graph.node_count();
        for (i, r) in self.rules.iter().enumerate() {
            if !(r.rate.is_finite() && (0.0..=1.0).contains(&r.rate)) {
                return Err(FaultPlanError::Rate {
                    rule: i,
                    rate: r.rate,
                });
            }
            match r.fault {
                LinkFault::Corrupt(l) if (l.0 as usize) >= sigma => {
                    return Err(FaultPlanError::Letter {
                        rule: i,
                        letter: l,
                        sigma,
                    });
                }
                LinkFault::Duplicate(0) => {
                    return Err(FaultPlanError::Copies { rule: i });
                }
                _ => {}
            }
            if let FaultScope::Edge { from, to } = r.scope {
                for node in [from, to] {
                    if node as usize >= n {
                        return Err(FaultPlanError::Node {
                            rule: i,
                            node,
                            nodes: n,
                        });
                    }
                }
                if from == to || !graph.has_edge(from, to) {
                    return Err(FaultPlanError::UnknownEdge { rule: i, from, to });
                }
            }
        }
        Ok(())
    }
}

/// Accumulated fault-layer counters of one run: how many deliveries the
/// layer examined and how many faults of each class fired. Surfaced on
/// [`crate::Outcome`] whenever a plan (even an empty one) was wired in,
/// and captured bit-exactly in boundary snapshots — `evaluated` is the
/// plan cursor a resumed run continues its accounting from.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultSummary {
    /// Deliveries examined against the plan (the plan cursor).
    pub evaluated: u64,
    /// `Drop` faults fired (deliveries lost).
    pub dropped: u64,
    /// `Duplicate` faults fired (each injecting its extra copies).
    pub duplicated: u64,
    /// `Corrupt` faults fired (letters substituted).
    pub corrupted: u64,
}

impl FaultSummary {
    /// Total faults injected, over all classes.
    pub fn injected(&self) -> u64 {
        self.dropped + self.duplicated + self.corrupted
    }

    /// Folds another tally into this one (worker-tally merge; addition,
    /// so any merge order produces the same sums).
    pub(crate) fn merge(&mut self, other: &FaultSummary) {
        self.evaluated += other.evaluated;
        self.dropped += other.dropped;
        self.duplicated += other.duplicated;
        self.corrupted += other.corrupted;
    }
}

/// A compiled, validated fault plan: the per-slot rule tables the
/// per-delivery decision reads. Immutable once built (workers share it
/// by reference), and decision state-free — see [`FaultCtx::decide`].
#[derive(Debug)]
pub(crate) struct FaultCtx {
    /// `splitmix64(seed ^ salt)`: the dedicated decision stream.
    stream: u64,
    /// Rules covering every channel, as `(plan index, fault, rate)`.
    global: Vec<(u32, LinkFault, f64)>,
    /// Channels with edge-specific rules: the *full* applicable rule
    /// list (global ∪ edge) in plan order, keyed by receiver slot.
    per_slot: HashMap<u32, Vec<(u32, LinkFault, f64)>>,
    /// Senders with at least one covered outgoing channel.
    sender_touched: Vec<bool>,
    /// Whether a global rule covers every sender.
    all: bool,
}

impl FaultCtx {
    /// Validates `plan` against the run and compiles the decision
    /// tables. `sigma` is the protocol's alphabet size.
    pub(crate) fn new(
        plan: &FaultPlan,
        graph: &Graph,
        sigma: usize,
    ) -> Result<FaultCtx, FaultPlanError> {
        plan.validate(graph, sigma)?;
        let n = graph.node_count();
        let mut global = Vec::new();
        let mut edge_rules: Vec<(u32, u32, LinkFault, f64)> = Vec::new();
        let mut sender_touched = vec![false; n];
        for (i, r) in plan.rules().iter().enumerate() {
            match r.scope {
                FaultScope::AllEdges => global.push((i as u32, r.fault, r.rate)),
                FaultScope::Edge { from, to } => {
                    let k = graph
                        .neighbors(to)
                        .iter()
                        .position(|&u| u == from)
                        .expect("validate() checked the edge exists");
                    let slot = (graph.csr_offset(to) + k) as u32;
                    edge_rules.push((i as u32, slot, r.fault, r.rate));
                    sender_touched[from as usize] = true;
                }
            }
        }
        // Channels with edge rules get their full applicable rule list
        // (plan order), so `decide` walks exactly one table either way.
        let mut per_slot: HashMap<u32, Vec<(u32, LinkFault, f64)>> = HashMap::new();
        for &(_, slot, _, _) in &edge_rules {
            per_slot.entry(slot).or_insert_with(|| {
                let mut rules: Vec<(u32, LinkFault, f64)> = global.clone();
                rules.extend(
                    edge_rules
                        .iter()
                        .filter(|&&(_, s, _, _)| s == slot)
                        .map(|&(i, _, f, r)| (i, f, r)),
                );
                rules.sort_by_key(|&(i, _, _)| i);
                rules
            });
        }
        Ok(FaultCtx {
            stream: splitmix64(plan.seed() ^ FAULT_STREAM_SALT),
            all: !global.is_empty(),
            global,
            per_slot,
            sender_touched,
        })
    }

    /// Whether any rule covers any outgoing channel of `v` — the fast
    /// path gate letting unaffected broadcasts skip the per-port
    /// decision loop entirely.
    #[inline]
    pub(crate) fn affects_sender(&self, v: NodeId) -> bool {
        self.all || self.sender_touched[v as usize]
    }

    /// The fault (if any) injected on the delivery into receiver `slot`
    /// at time coordinate `tindex` (the round for lockstep backends, the
    /// sender's step index for async). A pure hash of `(stream, slot,
    /// tindex, rule index)` — no sequential RNG — so any evaluation
    /// order (serial, per-worker, resumed) reaches identical decisions.
    #[inline]
    pub(crate) fn decide(&self, slot: u32, tindex: u64) -> Option<LinkFault> {
        let rules = match self.per_slot.get(&slot) {
            Some(rules) => rules.as_slice(),
            None => self.global.as_slice(),
        };
        for &(ri, fault, rate) in rules {
            if self.u01(slot, tindex, ri) < rate {
                return Some(fault);
            }
        }
        None
    }

    /// A uniform draw in `[0, 1)` for one `(slot, tindex, rule)` cell.
    #[inline]
    fn u01(&self, slot: u32, tindex: u64, ri: u32) -> f64 {
        let mut x = splitmix64(self.stream ^ slot as u64);
        x = splitmix64(x ^ tindex);
        x = splitmix64(x ^ ri as u64);
        (x >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// The fault plumbing one lockstep execution carries: the compiled plan
/// (if any) and the accumulated tally, seeded from a resume snapshot
/// when the run continues mid-plan.
pub(crate) struct FaultLayer<'f> {
    pub(crate) ctx: Option<&'f FaultCtx>,
    pub(crate) tally: FaultSummary,
}

impl<'f> FaultLayer<'f> {
    pub(crate) fn new(ctx: Option<&'f FaultCtx>, tally: FaultSummary) -> Self {
        FaultLayer { ctx, tally }
    }

    /// The tally as captured into boundary snapshots: present exactly
    /// when a plan is wired in.
    pub(crate) fn capture(&self) -> Option<FaultSummary> {
        self.ctx.map(|_| self.tally)
    }
}

/// A [`DeliverySink`] adapter applying the fault decisions between
/// phase-2a resolution and the underlying buffer. With no plan wired in
/// it forwards verbatim; with one, covered broadcasts decompose into
/// per-port decisions (the transmission still counts as one send).
pub(crate) struct FaultSink<'a, Sk> {
    inner: &'a mut Sk,
    ctx: Option<&'a FaultCtx>,
    tindex: u64,
    tally: &'a mut FaultSummary,
}

impl<'a, Sk: DeliverySink> FaultSink<'a, Sk> {
    /// Wraps a delivery sink for the deliveries of time index `tindex`
    /// (the round), counting into `tally`: the run's tally on the serial
    /// loop, a worker's own on the parallel loop (merged after the join).
    pub(crate) fn new(
        inner: &'a mut Sk,
        ctx: Option<&'a FaultCtx>,
        tindex: u64,
        tally: &'a mut FaultSummary,
    ) -> Self {
        FaultSink {
            inner,
            ctx,
            tindex,
            tally,
        }
    }

    /// Applies the decision for one delivery into `slot`.
    #[inline]
    fn apply(&mut self, ctx: &FaultCtx, u: NodeId, slot: usize, letter: Letter) {
        self.tally.evaluated += 1;
        match ctx.decide(slot as u32, self.tindex) {
            None => self.inner.send_one(u, slot, letter),
            Some(LinkFault::Drop) => self.tally.dropped += 1,
            Some(LinkFault::Duplicate(k)) => {
                // Lockstep ports hold only the last letter, so the extra
                // copies are idempotent — but they are the same (node,
                // slot, letter) write, so replaying them in any schedule
                // preserves the parbuf order-independence argument.
                for _ in 0..=k {
                    self.inner.send_one(u, slot, letter);
                }
                self.tally.duplicated += 1;
            }
            Some(LinkFault::Corrupt(l)) => {
                self.inner.send_one(u, slot, l);
                self.tally.corrupted += 1;
            }
        }
    }
}

impl<Sk: DeliverySink> DeliverySink for FaultSink<'_, Sk> {
    #[inline]
    fn broadcast(&mut self, graph: &Graph, v: NodeId, letter: Letter) {
        let Some(ctx) = self.ctx else {
            return self.inner.broadcast(graph, v, letter);
        };
        if !ctx.affects_sender(v) {
            return self.inner.broadcast(graph, v, letter);
        }
        // The transmission happened; the faults are on the channels.
        self.inner.note_sent();
        for (&u, &slot) in graph.neighbors(v).iter().zip(graph.reverse_slots(v)) {
            self.apply(ctx, u, slot as usize, letter);
        }
    }

    #[inline]
    fn send_one(&mut self, u: NodeId, slot: usize, letter: Letter) {
        // `u` is the *receiver* here (scoped port-selected sends land
        // through this method), so the gate is per-channel: a global
        // rule or an edge rule on this very slot.
        match self.ctx {
            Some(ctx) if ctx.all || ctx.per_slot.contains_key(&(slot as u32)) => {
                self.apply(ctx, u, slot, letter)
            }
            Some(_) | None => self.inner.send_one(u, slot, letter),
        }
    }

    #[inline]
    fn note_sent(&mut self) {
        self.inner.note_sent();
    }
}

/// The async emission-site fault application: evaluates every channel of
/// `v`'s step-`t` broadcast and fills `out` with the deliveries to
/// enqueue as `(receiver, receiver slot, arrival, letter)`. `arrivals`
/// are the adversary's (already FIFO-bumped) per-port arrival times;
/// extra `Duplicate` copies are scheduled FIFO-after the original by
/// advancing the sender-side `last_arrival` watermark with the same bump
/// the FIFO rule uses, so later transmissions on the edge stay ordered
/// after them. Only called when [`FaultCtx::affects_sender`] holds.
#[allow(clippy::too_many_arguments)]
pub(crate) fn faulted_sends(
    ctx: &FaultCtx,
    tally: &mut FaultSummary,
    graph: &Graph,
    last_arrival: &mut [f64],
    v: NodeId,
    t: u64,
    arrivals: &[f64],
    letter: Letter,
    out: &mut Vec<(NodeId, u32, f64, Letter)>,
) {
    out.clear();
    let nbrs = graph.neighbors(v);
    let base = graph.csr_offset(v);
    for (k, (&u, &slot)) in nbrs.iter().zip(graph.reverse_slots(v)).enumerate() {
        tally.evaluated += 1;
        match ctx.decide(slot, t) {
            None => out.push((u, slot, arrivals[k], letter)),
            Some(LinkFault::Drop) => tally.dropped += 1,
            Some(LinkFault::Duplicate(d)) => {
                out.push((u, slot, arrivals[k], letter));
                for _ in 0..d {
                    let a = last_arrival[base + k] * (1.0 + 1e-12) + 1e-12;
                    last_arrival[base + k] = a;
                    out.push((u, slot, a, letter));
                }
                tally.duplicated += 1;
            }
            Some(LinkFault::Corrupt(l)) => {
                out.push((u, slot, arrivals[k], l));
                tally.corrupted += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stoneage_graph::generators;

    #[test]
    fn validation_catches_bad_rules() {
        let g = generators::cycle(4);
        let bad_rate = FaultPlan::new(1).drop_rate(1.5);
        assert!(matches!(
            bad_rate.validate(&g, 3),
            Err(FaultPlanError::Rate { rule: 0, .. })
        ));
        let nan = FaultPlan::new(1).drop_rate(f64::NAN);
        assert!(matches!(
            nan.validate(&g, 3),
            Err(FaultPlanError::Rate { .. })
        ));
        let bad_letter = FaultPlan::new(1).corrupt_rate(0.5, Letter(3));
        assert!(matches!(
            bad_letter.validate(&g, 3),
            Err(FaultPlanError::Letter {
                rule: 0,
                sigma: 3,
                ..
            })
        ));
        let no_copies = FaultPlan::new(1).duplicate_rate(0.5, 0);
        assert!(matches!(
            no_copies.validate(&g, 3),
            Err(FaultPlanError::Copies { rule: 0 })
        ));
        let bad_node = FaultPlan::new(1).on_edge(0, 9, LinkFault::Drop, 0.5);
        assert!(matches!(
            bad_node.validate(&g, 3),
            Err(FaultPlanError::Node {
                rule: 0,
                node: 9,
                ..
            })
        ));
        // cycle(4): 0 — 1 — 2 — 3 — 0; (0, 2) is not an edge.
        let no_edge = FaultPlan::new(1).on_edge(0, 2, LinkFault::Drop, 0.5);
        assert!(matches!(
            no_edge.validate(&g, 3),
            Err(FaultPlanError::UnknownEdge {
                rule: 0,
                from: 0,
                to: 2
            })
        ));
        // The first offending rule is reported.
        let second = FaultPlan::new(1).drop_rate(0.5).drop_rate(-0.1);
        assert!(matches!(
            second.validate(&g, 3),
            Err(FaultPlanError::Rate { rule: 1, .. })
        ));
        let fine = FaultPlan::new(1)
            .drop_rate(0.0)
            .duplicate_rate(1.0, 3)
            .corrupt_rate(0.25, Letter(2))
            .on_edge(0, 1, LinkFault::Drop, 1.0);
        assert!(fine.validate(&g, 3).is_ok());
    }

    #[test]
    fn decisions_are_pure_functions_of_the_cell() {
        let g = generators::complete(5);
        let plan = FaultPlan::new(42)
            .drop_rate(0.5)
            .corrupt_rate(0.5, Letter(0));
        let a = FaultCtx::new(&plan, &g, 2).unwrap();
        let b = FaultCtx::new(&plan, &g, 2).unwrap();
        for slot in 0..g.port_slot_count() as u32 {
            for t in 0..64 {
                assert_eq!(a.decide(slot, t), b.decide(slot, t));
            }
        }
        // A different seed produces a different schedule somewhere.
        let c = FaultCtx::new(
            &FaultPlan::new(43)
                .drop_rate(0.5)
                .corrupt_rate(0.5, Letter(0)),
            &g,
            2,
        )
        .unwrap();
        let differs = (0..g.port_slot_count() as u32)
            .any(|s| (0..64).any(|t| a.decide(s, t) != c.decide(s, t)));
        assert!(differs);
    }

    #[test]
    fn rate_extremes_are_exact() {
        let g = generators::complete(4);
        let never = FaultCtx::new(&FaultPlan::new(7).drop_rate(0.0), &g, 2).unwrap();
        let always = FaultCtx::new(&FaultPlan::new(7).drop_rate(1.0), &g, 2).unwrap();
        for slot in 0..g.port_slot_count() as u32 {
            for t in 0..32 {
                assert_eq!(never.decide(slot, t), None);
                assert_eq!(always.decide(slot, t), Some(LinkFault::Drop));
            }
        }
    }

    #[test]
    fn first_firing_rule_wins_and_edge_rules_merge_in_plan_order() {
        let g = generators::cycle(4);
        // Rule 0 always fires globally; the edge rule can never win.
        let plan =
            FaultPlan::new(9)
                .drop_rate(1.0)
                .on_edge(0, 1, LinkFault::Corrupt(Letter(0)), 1.0);
        let ctx = FaultCtx::new(&plan, &g, 2).unwrap();
        // Slot of the channel 0 → 1 (receiver 1's port facing 0).
        let k = g.neighbors(1).iter().position(|&u| u == 0).unwrap();
        let slot = (g.csr_offset(1) + k) as u32;
        assert_eq!(ctx.decide(slot, 5), Some(LinkFault::Drop));
        // Reversed plan order: the edge rule shadows the global one on
        // its channel, while other channels still drop.
        let plan = FaultPlan::new(9)
            .on_edge(0, 1, LinkFault::Corrupt(Letter(0)), 1.0)
            .drop_rate(1.0);
        let ctx = FaultCtx::new(&plan, &g, 2).unwrap();
        assert_eq!(ctx.decide(slot, 5), Some(LinkFault::Corrupt(Letter(0))));
        assert_eq!(ctx.decide(slot ^ 1, 5), Some(LinkFault::Drop));
    }

    #[test]
    fn affects_sender_gates_the_slow_path() {
        let g = generators::cycle(6);
        let edge_only = FaultCtx::new(
            &FaultPlan::new(3).on_edge(2, 3, LinkFault::Drop, 1.0),
            &g,
            2,
        )
        .unwrap();
        assert!(edge_only.affects_sender(2));
        assert!(!edge_only.affects_sender(3));
        assert!(!edge_only.affects_sender(0));
        let global = FaultCtx::new(&FaultPlan::new(3).drop_rate(0.1), &g, 2).unwrap();
        for v in 0..6 {
            assert!(global.affects_sender(v));
        }
        let empty = FaultCtx::new(&FaultPlan::new(3), &g, 2).unwrap();
        for v in 0..6 {
            assert!(!empty.affects_sender(v));
        }
    }

    #[test]
    fn summary_merge_is_componentwise_addition() {
        let mut a = FaultSummary {
            evaluated: 10,
            dropped: 1,
            duplicated: 2,
            corrupted: 3,
        };
        let b = FaultSummary {
            evaluated: 5,
            dropped: 4,
            duplicated: 0,
            corrupted: 1,
        };
        a.merge(&b);
        assert_eq!(
            a,
            FaultSummary {
                evaluated: 15,
                dropped: 5,
                duplicated: 2,
                corrupted: 4,
            }
        );
        assert_eq!(a.injected(), 11);
    }

    #[test]
    fn plan_error_messages_render() {
        let e = FaultPlanError::Rate { rule: 2, rate: 1.5 };
        assert!(e.to_string().contains("rate 1.5"));
        let e = FaultPlanError::UnknownEdge {
            rule: 0,
            from: 3,
            to: 7,
        };
        assert!(e.to_string().contains("3 → 7"));
    }
}
