//! Deterministic parallel phase-2 delivery: sharded per-worker write
//! buffers for the lockstep executors (`parallel` feature).
//!
//! PR 1 parallelized only phase 1 (observation + transition) of the
//! synchronous round loop; phase 2 — delivering every emission into
//! [`FlatPorts`] — stayed a single-threaded write pass, and on multi-core
//! hardware the round loop was bottlenecked on it. This module makes
//! phase 2 data-parallel while keeping the executors **bit-identical** to
//! their serial twins:
//!
//! 1. **Partition.** [`ShardPlan`] cuts the node range into one
//!    contiguous chunk per worker, balanced by port-slot count (degree
//!    sum), not node count — a hub-heavy chunk would otherwise serialize
//!    the round. The same partition serves double duty: worker `i`
//!    processes the *emissions* of sender chunk `i` (phase 2a) and merges
//!    the deliveries destined to *receiver* shard `i` (phase 2b).
//! 2. **Buffer.** Each worker resolves its senders' emissions into a
//!    private [`DeliveryBuffer`]: flat `(receiver, slot, letter)` triples
//!    pre-bucketed by destination shard, plus the worker's non-`ε`
//!    transmission count. No shared state is touched — phase 2a reads
//!    only the frozen previous-round ports and the graph's reverse-port
//!    map.
//! 3. **Merge.** [`merge_sharded`] (the default) hands each worker one
//!    disjoint [`crate::engine::PortShard`] view and replays, in fixed
//!    worker order, every buffer's bucket for that shard.
//!    [`merge_replay`] applies the same buffers serially in the same
//!    fixed order — the differential oracle the property tests pit the
//!    sharded merge against.
//!
//! # Why this is bit-identical to the serial engine
//!
//! The argument rests on three facts, none of them scheduling-dependent:
//!
//! * **Frozen reads.** Phase 2a resolves emissions against the
//!   previous-round port store, which nothing mutates until every worker
//!   has joined — so the resolved write set (and any scoped target draws,
//!   which use per-node RNGs) is exactly the serial engine's.
//! * **Slot uniqueness.** A delivery from `v` to `u` writes slot
//!   `csr_offset(u) + ψ_u(v)`, and a sender emits at most once per round
//!   — so every flat slot is written at most once per round, by exactly
//!   one sender. The final letter of each slot is therefore independent
//!   of write order.
//! * **Commutative counts.** Each write's count update is "old letter −1,
//!   new letter +1" with the *old* letter frozen by slot uniqueness; the
//!   per-node count rows are integer sums of these deltas and the sparse
//!   maps are canonical (sorted, non-zero), so any apply order yields the
//!   same bytes.
//!
//! The fixed worker order of both merges is therefore not needed for
//! *correctness* of the final store — it pins the *transcript*: within a
//! receiver shard, writes land in (worker, emission) order, which is
//! exactly ascending sender order, so even an instrumented store (or a
//! future non-commutative extension) observes the serial sequence. The
//! property tests in `tests/flat_engine.rs` and
//! `tests/scoped_parallel.rs` assert outcome equality across worker
//! counts, merge strategies, and the serial engines.
//!
//! # When the merge runs: [`RoundMode`]
//!
//! The three facts above say nothing about *when* a buffered delivery
//! must land — only that it must land before any observation of the next
//! round reads its slot or count row. The round pipeline
//! (`crate::pipeline`) exploits that freedom: under the default
//! [`RoundMode::Joined`] the merge runs as its own step between rounds
//! (two scope joins per round, the historical schedule), while under
//! [`RoundMode::Fused`] phase 2b of round *r* is deferred into the
//! worker scope of round *r + 1* — each worker lands the buckets
//! destined to its own [`crate::engine::PlaneShard`] and then observes
//! through the same shard, dropping one scope join per round. Both
//! modes replay buckets in fixed worker order and are bit-identical for
//! every seed; `Joined` is kept as the differential oracle.
//!
//! # Who computes a chunk: [`ChunkScheduler`]
//!
//! The three facts also say nothing about *which thread* runs phase
//! 1 + 2a for a given sender — only that the resolved write set is a
//! function of the frozen read plane and the per-node RNGs. The static
//! schedule (one contiguous chunk per worker, the [`ShardPlan`] itself)
//! is optimal when per-node work is uniform, but the stone-age model
//! bounds the *alphabet*, not the *degree*: on a power-law or
//! hub-and-spoke graph one shard's hub drains its worker long after the
//! others have joined. [`ChunkScheduler::Stealing`] splits each shard
//! into finer [`ChunkPlan`] descriptors seeded onto per-worker deques
//! (worker `w` starts with exactly the chunks of shard `w` — the
//! pinning that keeps its phase-2b write shard hot in cache), and an
//! idle worker steals from the back of the currently longest deque.
//! Stealing reorders **who** computes a chunk and **when**, never
//! **where** a `(receiver, slot, letter)` write lands: every delivery is
//! still bucketed by destination shard in the *sender's* buffer, per-node
//! RNG draws still depend only on the node, and per-chunk witnesses are
//! absorbed in ascending chunk order after the join — so the store, the
//! transcript, and the scoped witness are bit-identical to the static
//! schedule (and hence to serial) by the same three facts. Only the
//! [`StealStats`] — how many chunks moved between workers — are
//! timing-dependent, which is why they are reported on the outcome but
//! excluded from every fingerprint.

use stoneage_core::Letter;
use stoneage_graph::{Graph, NodeId};

use crate::engine::FlatPorts;

/// Below this node count the per-round thread spawn+join overhead of the
/// chunked phases outweighs the parallel speedup, so the parallel
/// executors fall back to their serial twins (which are bit-identical
/// anyway) unless a [`ParallelPolicy`] forces an explicit worker count.
pub const PARALLEL_MIN_NODES: usize = 4096;

/// How phase-2b folds the per-worker buffers into the port store.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum MergeStrategy {
    /// One worker per destination shard applies, in fixed worker order,
    /// every buffer's bucket for its shard — workers never contend on a
    /// node's CSR slots or count rows. The default.
    #[default]
    DestinationSharded,
    /// Serial replay of every buffer in fixed worker order. The
    /// differential oracle for the sharded merge (and the sensible
    /// choice when the caller already knows the round is tiny).
    BufferReplay,
}

/// How the parallel round pipeline schedules phase 2b against the next
/// round's phase 1 (see `crate::pipeline`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum RoundMode {
    /// Two joins per round: one worker scope runs phase 1 + 2a, joins,
    /// then the policy's [`MergeStrategy`] lands the buffers (the
    /// destination-sharded merge spawns a second scope). The historical
    /// schedule and the differential oracle for [`RoundMode::Fused`];
    /// the default.
    #[default]
    Joined,
    /// One join per round: phase 2b of round *r* is fused into phase 1
    /// of round *r + 1* — each worker first lands the previous round's
    /// deliveries on its own [`crate::engine::PlaneShard`] (the write
    /// plane), freezes it into the read plane, and runs phase 1 + 2a of
    /// the new round against it, all inside a single scope. Bit-identical
    /// to `Joined` for every seed, worker count, and merge strategy
    /// (in fused rounds the merge is destination-sharded by
    /// construction, so the [`MergeStrategy`] knob selects the *joined*
    /// oracle's behavior only).
    Fused,
}

/// Environment variable overriding every [`ParallelPolicy::round`] at
/// run time (`joined` / `fused`, case-insensitive): lets CI force the
/// whole test suite through the fused pipeline without a second test
/// matrix in code. Unset or unrecognized values defer to the policy.
pub const ROUND_MODE_ENV: &str = "STONEAGE_ROUND_MODE";

/// Environment variable overriding every [`ParallelPolicy::scheduler`]
/// at run time (`static` / `stealing`, case-insensitive), the
/// [`ROUND_MODE_ENV`] pattern applied to the chunk scheduler: CI's
/// stealing leg forces the whole differential suite through the
/// work-stealing path. Unset or unrecognized values defer to the policy.
pub const SCHEDULER_ENV: &str = "STONEAGE_SCHEDULER";

/// How phase 1 + 2a chunks are assigned to workers within a round's
/// scope (see the [module docs](self) for the bit-identity argument).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ChunkScheduler {
    /// One contiguous slot-balanced chunk per worker — the [`ShardPlan`]
    /// partition itself. No scheduling overhead; optimal when per-node
    /// work is uniform. The default and the differential oracle for
    /// [`ChunkScheduler::Stealing`].
    #[default]
    Static,
    /// Each shard is split into finer [`ChunkPlan`] descriptors seeded
    /// onto its owning worker's deque; a worker drains its own deque
    /// front-first (shard-to-worker pinning) and, when dry, steals from
    /// the back of the longest other deque. Bit-identical to `Static`
    /// for every seed; pays a small per-chunk locking cost to win back
    /// the idle time skewed-degree graphs leave on the static schedule.
    Stealing,
}

/// Chunks migrated between workers during a run, reported on
/// `Outcome::steals`. **Timing-dependent** (a steal happens when a deque
/// happens to run dry first), unlike everything else an outcome carries
/// — never fold these into fingerprints or differential assertions.
/// `chunks` (total descriptors executed) *is* deterministic: it depends
/// only on the graph, worker count, and round count.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StealStats {
    /// Chunks executed by a worker other than their shard's owner.
    pub steals: u64,
    /// Total chunk descriptors executed across all rounds.
    pub chunks: u64,
}

impl StealStats {
    /// Folds another run segment's counters into this one.
    pub fn absorb(&mut self, other: StealStats) {
        self.steals += other.steals;
        self.chunks += other.chunks;
    }
}

/// Tuning knobs of the parallel executors. The defaults reproduce the
/// auto behavior: hardware worker count, destination-sharded merge, and
/// the [`PARALLEL_MIN_NODES`] serial fallback.
#[derive(Clone, Copy, Debug, Default)]
pub struct ParallelPolicy {
    /// Worker count. `None` resolves to `std::thread::available_parallelism`
    /// and falls back to the serial engine when that is 1; an explicit
    /// `Some(w)` is honored even on narrower hardware (the differential
    /// tests pin adversarial counts like 7 this way).
    pub workers: Option<usize>,
    /// Phase-2b merge strategy.
    pub merge: MergeStrategy,
    /// Node-count floor below which the run delegates to the serial
    /// engine. `None` means [`PARALLEL_MIN_NODES`]; tests force the
    /// parallel machinery on small graphs with `Some(0)`.
    pub min_nodes: Option<usize>,
    /// Round-pipeline schedule: the historical two-join [`RoundMode::Joined`]
    /// (default, the differential oracle) or the one-join
    /// [`RoundMode::Fused`]. Overridable at run time via
    /// [`ROUND_MODE_ENV`].
    pub round: RoundMode,
    /// Chunk-to-worker assignment: the static [`ShardPlan`] partition
    /// (default, the differential oracle) or the work-stealing deques.
    /// Overridable at run time via [`SCHEDULER_ENV`].
    pub scheduler: ChunkScheduler,
}

impl ParallelPolicy {
    /// A policy forcing `workers` workers and no serial fallback — every
    /// round genuinely runs the chunked phases and the buffered merge.
    pub fn forced(workers: usize, merge: MergeStrategy) -> Self {
        ParallelPolicy {
            workers: Some(workers.max(1)),
            merge,
            min_nodes: Some(0),
            round: RoundMode::default(),
            scheduler: ChunkScheduler::default(),
        }
    }

    /// This policy with the given round-pipeline schedule.
    pub fn with_round(mut self, round: RoundMode) -> Self {
        self.round = round;
        self
    }

    /// This policy with the work-stealing chunk scheduler.
    pub fn with_stealing(mut self) -> Self {
        self.scheduler = ChunkScheduler::Stealing;
        self
    }

    /// This policy with the given chunk scheduler.
    pub fn with_scheduler(mut self, scheduler: ChunkScheduler) -> Self {
        self.scheduler = scheduler;
        self
    }

    /// Resolves the effective [`RoundMode`]: the [`ROUND_MODE_ENV`]
    /// environment variable when set to a recognized value, the policy's
    /// own `round` field otherwise.
    pub fn resolve_round(&self) -> RoundMode {
        match std::env::var(ROUND_MODE_ENV) {
            Ok(v) if v.eq_ignore_ascii_case("fused") => RoundMode::Fused,
            Ok(v) if v.eq_ignore_ascii_case("joined") => RoundMode::Joined,
            _ => self.round,
        }
    }

    /// Resolves the effective [`ChunkScheduler`]: the [`SCHEDULER_ENV`]
    /// environment variable when set to a recognized value, the policy's
    /// own `scheduler` field otherwise.
    pub fn resolve_scheduler(&self) -> ChunkScheduler {
        match std::env::var(SCHEDULER_ENV) {
            Ok(v) if v.eq_ignore_ascii_case("stealing") => ChunkScheduler::Stealing,
            Ok(v) if v.eq_ignore_ascii_case("static") => ChunkScheduler::Static,
            _ => self.scheduler,
        }
    }

    /// Resolves the effective worker count on this hardware.
    pub fn resolve_workers(&self) -> usize {
        self.workers
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|t| t.get())
                    .unwrap_or(1)
            })
            .max(1)
    }

    /// Whether a run on `n` nodes should delegate to the serial engine
    /// outright (too small, or auto-resolved to a single worker).
    pub fn use_serial(&self, n: usize) -> bool {
        let min_nodes = self.min_nodes.unwrap_or(PARALLEL_MIN_NODES);
        n < min_nodes || (self.workers.is_none() && self.resolve_workers() < 2)
    }
}

/// The contiguous node partition shared by phase 1 chunking, phase-2a
/// sender chunks, and phase-2b destination shards: `workers + 1`
/// ascending bounds with `bounds[0] = 0` and `bounds[workers] = |V|`,
/// chosen so each shard owns roughly the same number of port slots.
#[derive(Clone, Debug)]
pub struct ShardPlan {
    bounds: Vec<usize>,
}

impl ShardPlan {
    /// Plans `workers` shards over `graph`, balancing by CSR slot count
    /// (degree sum): shard `s` is the node range `bounds[s] ..
    /// bounds[s + 1]`, and both its phase-2b merge work and its slice of
    /// the flat stores are proportional to its slots.
    pub fn new(graph: &Graph, workers: usize) -> Self {
        let n = graph.node_count();
        let workers = workers.clamp(1, n.max(1));
        let total_slots = graph.port_slot_count();
        let mut bounds = Vec::with_capacity(workers + 1);
        bounds.push(0);
        for s in 1..workers {
            // The node where the slot prefix first reaches s/workers of
            // the total: binary search over the monotone CSR offsets.
            let target = total_slots * s / workers;
            let mut lo = *bounds.last().unwrap();
            let mut hi = n;
            while lo < hi {
                let mid = lo + (hi - lo) / 2;
                if graph.csr_offset(mid as NodeId) < target {
                    lo = mid + 1;
                } else {
                    hi = mid;
                }
            }
            bounds.push(lo);
        }
        bounds.push(n);
        ShardPlan { bounds }
    }

    /// The number of shards (= workers).
    pub fn workers(&self) -> usize {
        self.bounds.len() - 1
    }

    /// The ascending node bounds, `workers + 1` entries.
    pub fn bounds(&self) -> &[usize] {
        &self.bounds
    }

    /// The destination shard owning receiver `node`.
    #[inline]
    pub fn shard_of(&self, node: NodeId) -> usize {
        // partition_point over the interior bounds: the first shard whose
        // upper bound exceeds `node`.
        self.bounds[1..self.bounds.len() - 1].partition_point(|&b| b <= node as usize)
    }

    /// Splits `slice` (of length |V|) into one mutable chunk per shard.
    pub fn chunks_mut<'a, T>(&self, mut slice: &'a mut [T]) -> Vec<&'a mut [T]> {
        let mut out = Vec::with_capacity(self.workers());
        for w in self.bounds.windows(2) {
            let (head, tail) = slice.split_at_mut(w[1] - w[0]);
            out.push(head);
            slice = tail;
        }
        out
    }
}

/// Chunk-granularity target of the work-stealing scheduler: each shard
/// is cut into about this many descriptors. Large enough that the
/// per-chunk deque locking stays under ~1% of useful work on the graphs
/// worth parallelizing, small enough that a hub-heavy shard yields
/// stealable remainders while its owner is stuck on the hub chunk.
pub const CHUNKS_PER_WORKER: usize = 8;

/// One work-stealing chunk: a contiguous sender node range and the
/// shard (= owning worker's deque) it was seeded onto.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChunkDesc {
    /// First node of the chunk.
    pub start: usize,
    /// One past the last node of the chunk.
    pub end: usize,
    /// The shard the range belongs to — its deliveries' *senders* live
    /// in shard `shard`, so worker `shard` owns the chunk initially.
    pub shard: usize,
}

/// The fine-grained partition the work-stealing scheduler deals onto
/// the per-worker deques: each [`ShardPlan`] shard cut into roughly
/// [`CHUNKS_PER_WORKER`] contiguous descriptors. Chunks are listed in
/// ascending node order, so "absorb per-chunk results by chunk index"
/// is exactly "absorb in serial sender order".
///
/// The cut is **hybrid**: a chunk closes once it reaches either the
/// shard's per-chunk node share or its per-chunk slot share (always
/// taking at least one node). Node-capping bounds the constant
/// per-node cost per chunk; slot-capping isolates hubs into chunks of
/// their own, which is what makes the remainder of a hub-heavy shard
/// stealable. The plan depends only on the graph and the shard plan —
/// never on timing — so every run over the same instance executes the
/// identical chunk list.
#[derive(Clone, Debug)]
pub struct ChunkPlan {
    chunks: Vec<ChunkDesc>,
}

impl ChunkPlan {
    /// Cuts each shard of `plan` into hybrid node/slot-capped chunks.
    pub fn new(graph: &Graph, plan: &ShardPlan) -> Self {
        let mut chunks = Vec::with_capacity(plan.workers() * CHUNKS_PER_WORKER);
        for (shard, w) in plan.bounds().windows(2).enumerate() {
            let (lo, hi) = (w[0], w[1]);
            let nodes = hi - lo;
            if nodes == 0 {
                continue;
            }
            let slots = graph.csr_offset(hi as NodeId) - graph.csr_offset(lo as NodeId);
            let target_nodes = nodes.div_ceil(CHUNKS_PER_WORKER).max(1);
            let target_slots = slots.div_ceil(CHUNKS_PER_WORKER).max(1);
            let mut start = lo;
            let mut chunk_slots = 0usize;
            for v in lo..hi {
                chunk_slots += graph.degree(v as NodeId);
                let filled = v + 1 - start >= target_nodes || chunk_slots >= target_slots;
                if filled || v + 1 == hi {
                    chunks.push(ChunkDesc {
                        start,
                        end: v + 1,
                        shard,
                    });
                    start = v + 1;
                    chunk_slots = 0;
                }
            }
        }
        ChunkPlan { chunks }
    }

    /// One chunk per non-empty shard of `plan`: the static schedule,
    /// which deals each worker exactly its own shard.
    #[cfg(feature = "parallel")]
    pub(crate) fn per_shard(plan: &ShardPlan) -> Self {
        let chunks = (plan.bounds().windows(2).enumerate())
            .filter(|(_, w)| w[0] < w[1])
            .map(|(shard, w)| ChunkDesc {
                start: w[0],
                end: w[1],
                shard,
            })
            .collect();
        ChunkPlan { chunks }
    }

    /// The chunk descriptors, ascending by node range.
    pub fn chunks(&self) -> &[ChunkDesc] {
        &self.chunks
    }

    /// The number of chunks.
    pub fn len(&self) -> usize {
        self.chunks.len()
    }

    /// Whether the plan is empty (zero-node graph).
    pub fn is_empty(&self) -> bool {
        self.chunks.is_empty()
    }

    /// Splits `slice` (of length |V|) into one mutable chunk per
    /// descriptor, in chunk order.
    pub fn chunks_mut<'a, T>(&self, mut slice: &'a mut [T]) -> Vec<&'a mut [T]> {
        let mut out = Vec::with_capacity(self.chunks.len());
        for c in &self.chunks {
            let (head, tail) = slice.split_at_mut(c.end - c.start);
            out.push(head);
            slice = tail;
        }
        out
    }
}

/// One buffered delivery: receiver node, absolute flat CSR slot, letter.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Write {
    /// The receiving node.
    pub node: u32,
    /// The receiver-side flat slot (`csr_offset(node) + ψ_node(sender)`).
    pub slot: u32,
    /// The letter delivered.
    pub letter: Letter,
}

/// A worker-private phase-2a write buffer: the deliveries of one sender
/// chunk, pre-bucketed by destination shard, plus the chunk's non-`ε`
/// transmission count. Reused across rounds ([`DeliveryBuffer::clear`]
/// keeps the bucket capacities).
#[derive(Clone, Debug, Default)]
pub struct DeliveryBuffer {
    buckets: Vec<Vec<Write>>,
    /// Non-`ε` transmissions resolved into this buffer since the last
    /// [`DeliveryBuffer::clear`].
    pub sent: u64,
}

impl DeliveryBuffer {
    /// An empty buffer with one bucket per destination shard.
    pub fn new(shards: usize) -> Self {
        DeliveryBuffer {
            buckets: (0..shards).map(|_| Vec::new()).collect(),
            sent: 0,
        }
    }

    /// Empties every bucket and the sent counter, keeping capacities.
    pub fn clear(&mut self) {
        for b in &mut self.buckets {
            b.clear();
        }
        self.sent = 0;
    }

    /// The bucket destined to shard `s`, in push (= sender) order.
    pub fn bucket(&self, s: usize) -> &[Write] {
        &self.buckets[s]
    }

    /// Buffers one delivery.
    #[inline]
    pub fn push(&mut self, plan: &ShardPlan, node: NodeId, slot: usize, letter: Letter) {
        self.buckets[plan.shard_of(node)].push(Write {
            node,
            slot: slot as u32,
            letter,
        });
    }

    /// Buffers the full broadcast of `letter` from `v` through the
    /// reverse-port map — the buffered twin of [`FlatPorts::broadcast`].
    /// Counts the transmission.
    #[inline]
    pub fn broadcast(&mut self, graph: &Graph, plan: &ShardPlan, v: NodeId, letter: Letter) {
        self.sent += 1;
        let nbrs = graph.neighbors(v);
        let rev = graph.reverse_ports(v);
        for (&u, &rp) in nbrs.iter().zip(rev) {
            self.push(plan, u, graph.csr_offset(u) + rp as usize, letter);
        }
    }
}

/// Phase 2b, destination-sharded: one scoped worker per shard applies —
/// in fixed worker order — every buffer's bucket for its shard, through
/// a disjoint [`crate::engine::PortShard`] view. Workers never touch the
/// same CSR slot or count row, and within a shard the writes land in
/// ascending sender order (buffer order × push order).
pub fn merge_sharded(
    ports: &mut FlatPorts,
    graph: &Graph,
    plan: &ShardPlan,
    buffers: &[DeliveryBuffer],
) {
    let shards = ports.shards_mut(graph, plan.bounds());
    std::thread::scope(|scope| {
        for (s, mut shard) in shards.into_iter().enumerate() {
            scope.spawn(move || {
                for buffer in buffers {
                    for w in buffer.bucket(s) {
                        shard.deliver(w.node as usize, w.slot as usize, w.letter);
                    }
                }
            });
        }
    });
}

/// Phase 2b, serial replay: applies every buffer in fixed worker order
/// (and bucket order within a buffer) through the ordinary
/// [`FlatPorts::deliver`]. The differential oracle for
/// [`merge_sharded`]; both produce byte-identical stores.
pub fn merge_replay(ports: &mut FlatPorts, buffers: &[DeliveryBuffer]) {
    for buffer in buffers {
        for s in 0..buffer.buckets.len() {
            for w in buffer.bucket(s) {
                ports.deliver(w.node as usize, w.slot as usize, w.letter);
            }
        }
    }
}

/// Applies the configured merge strategy.
pub fn merge(
    strategy: MergeStrategy,
    ports: &mut FlatPorts,
    graph: &Graph,
    plan: &ShardPlan,
    buffers: &[DeliveryBuffer],
) {
    match strategy {
        MergeStrategy::DestinationSharded => merge_sharded(ports, graph, plan, buffers),
        MergeStrategy::BufferReplay => merge_replay(ports, buffers),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stoneage_graph::generators;

    #[test]
    fn shard_plan_covers_and_balances() {
        let g = generators::gnp(500, 0.05, 3);
        for workers in [1, 2, 3, 7, 16] {
            let plan = ShardPlan::new(&g, workers);
            assert_eq!(plan.workers(), workers);
            assert_eq!(plan.bounds()[0], 0);
            assert_eq!(*plan.bounds().last().unwrap(), 500);
            for w in plan.bounds().windows(2) {
                assert!(w[0] <= w[1]);
            }
            // Every node maps into the shard whose range contains it.
            for v in 0..500u32 {
                let s = plan.shard_of(v);
                assert!(plan.bounds()[s] <= v as usize && (v as usize) < plan.bounds()[s + 1]);
            }
            // Slot balance: no shard owns more than ~2 ideal shares plus
            // one hub (gnp(500, 0.05) has no extreme hubs).
            let total = g.port_slot_count();
            for w in plan.bounds().windows(2) {
                let slots = g.csr_offset(w[1] as u32) - g.csr_offset(w[0] as u32);
                assert!(slots <= total * 2 / workers + g.max_degree());
            }
        }
    }

    #[test]
    fn shard_plan_handles_more_workers_than_nodes() {
        let g = generators::path(3);
        let plan = ShardPlan::new(&g, 16);
        assert_eq!(*plan.bounds().last().unwrap(), 3);
        assert!(plan.workers() <= 3);
    }

    #[test]
    fn merges_agree_with_direct_broadcast() {
        use stoneage_core::Letter;
        let g = generators::gnp(60, 0.15, 9);
        for workers in [1, 2, 5] {
            let plan = ShardPlan::new(&g, workers);
            // Every third node broadcasts a letter derived from its id —
            // the serial ground truth uses FlatPorts::broadcast directly.
            let mut serial = FlatPorts::new(&g, 4, Letter(0));
            let mut buffers: Vec<DeliveryBuffer> = (0..plan.workers())
                .map(|_| DeliveryBuffer::new(plan.workers()))
                .collect();
            for v in (0..60u32).step_by(3) {
                let letter = Letter(1 + (v % 3) as u16);
                serial.broadcast(&g, v, letter);
                let chunk = plan.shard_of(v); // sender chunks reuse the plan
                buffers[chunk].broadcast(&g, &plan, v, letter);
            }
            let mut sharded = FlatPorts::new(&g, 4, Letter(0));
            merge_sharded(&mut sharded, &g, &plan, &buffers);
            let mut replayed = FlatPorts::new(&g, 4, Letter(0));
            merge_replay(&mut replayed, &buffers);
            assert_eq!(
                serial.dense_counts(&g),
                sharded.dense_counts(&g),
                "w{workers}"
            );
            assert_eq!(
                serial.dense_counts(&g),
                replayed.dense_counts(&g),
                "w{workers}"
            );
            for slot in 0..g.port_slot_count() {
                assert_eq!(
                    serial.letter_at(slot),
                    sharded.letter_at(slot),
                    "w{workers}"
                );
                assert_eq!(
                    serial.letter_at(slot),
                    replayed.letter_at(slot),
                    "w{workers}"
                );
            }
            let sent: u64 = buffers.iter().map(|b| b.sent).sum();
            assert_eq!(sent, (0..60).step_by(3).len() as u64);
        }
    }

    #[test]
    fn forced_policy_never_falls_back() {
        let p = ParallelPolicy::forced(7, MergeStrategy::BufferReplay);
        assert!(!p.use_serial(1));
        assert_eq!(p.resolve_workers(), 7);
        assert_eq!(p.round, RoundMode::Joined, "forced defaults to the oracle");
        let auto = ParallelPolicy::default();
        assert!(auto.use_serial(PARALLEL_MIN_NODES - 1));
    }

    #[test]
    fn chunk_plan_partitions_every_shard() {
        for g in [
            generators::gnp(500, 0.05, 3),
            generators::power_law(500, 2, 0.9, 3),
            generators::hub_and_spoke(3, 200),
            generators::path(5),
        ] {
            let n = g.node_count();
            for workers in [1, 2, 7] {
                let plan = ShardPlan::new(&g, workers);
                let chunks = ChunkPlan::new(&g, &plan);
                // Chunks tile 0..n in ascending order…
                let mut next = 0;
                for c in chunks.chunks() {
                    assert_eq!(c.start, next, "w{workers}");
                    assert!(c.end > c.start, "w{workers}");
                    next = c.end;
                    // …and each chunk stays inside its shard.
                    assert!(plan.bounds()[c.shard] <= c.start);
                    assert!(c.end <= plan.bounds()[c.shard + 1]);
                }
                assert_eq!(next, n, "w{workers}");
                assert!(chunks.len() >= plan.workers());
            }
        }
    }

    #[test]
    fn chunk_plan_isolates_hubs() {
        // On hub_and_spoke the slot cap must cut each hub into (nearly)
        // its own chunk, leaving the spoke ranges stealable.
        let g = generators::hub_and_spoke(2, 1000);
        let plan = ShardPlan::new(&g, 2);
        let chunks = ChunkPlan::new(&g, &plan);
        let hub_chunk = chunks.chunks().iter().find(|c| c.start == 0).unwrap();
        assert!(
            hub_chunk.end - hub_chunk.start <= 2,
            "hub 0 shares a chunk with {} spokes",
            hub_chunk.end - hub_chunk.start - 1
        );
    }

    #[test]
    fn chunk_plan_splitting_matches_descriptors() {
        let g = generators::power_law(300, 2, 0.8, 1);
        let plan = ShardPlan::new(&g, 3);
        let chunks = ChunkPlan::new(&g, &plan);
        let mut data: Vec<usize> = (0..300).collect();
        let views = chunks.chunks_mut(&mut data);
        assert_eq!(views.len(), chunks.len());
        for (c, view) in chunks.chunks().iter().zip(&views) {
            assert_eq!(view.first(), Some(&c.start));
            assert_eq!(view.last(), Some(&(c.end - 1)));
        }
    }

    #[test]
    fn steal_stats_absorb_sums() {
        let mut a = StealStats {
            steals: 2,
            chunks: 10,
        };
        a.absorb(StealStats {
            steals: 1,
            chunks: 5,
        });
        assert_eq!(
            a,
            StealStats {
                steals: 3,
                chunks: 15
            }
        );
    }

    #[test]
    fn scheduler_resolution_honors_policy_and_env() {
        let statik = ParallelPolicy::default();
        let stealing = ParallelPolicy::default().with_stealing();
        assert_eq!(statik.scheduler, ChunkScheduler::Static, "Static default");
        assert_eq!(stealing.scheduler, ChunkScheduler::Stealing);
        assert_eq!(
            ParallelPolicy::default()
                .with_scheduler(ChunkScheduler::Stealing)
                .scheduler,
            ChunkScheduler::Stealing
        );
        // Like the round mode, the suite may already be running under a
        // forced scheduler (the CI stealing leg); assert against the env.
        match std::env::var(SCHEDULER_ENV) {
            Ok(v) if v.eq_ignore_ascii_case("stealing") => {
                assert_eq!(statik.resolve_scheduler(), ChunkScheduler::Stealing);
                assert_eq!(stealing.resolve_scheduler(), ChunkScheduler::Stealing);
            }
            Ok(v) if v.eq_ignore_ascii_case("static") => {
                assert_eq!(statik.resolve_scheduler(), ChunkScheduler::Static);
                assert_eq!(stealing.resolve_scheduler(), ChunkScheduler::Static);
            }
            _ => {
                assert_eq!(statik.resolve_scheduler(), ChunkScheduler::Static);
                assert_eq!(stealing.resolve_scheduler(), ChunkScheduler::Stealing);
            }
        }
    }

    #[test]
    fn round_mode_resolution_honors_policy_and_env() {
        let joined = ParallelPolicy::default();
        let fused = ParallelPolicy::default().with_round(RoundMode::Fused);
        assert_eq!(joined.round, RoundMode::Joined, "Joined is the default");
        // The suite may itself be running under a forced round mode (the
        // CI fused job); assert against whatever the environment says.
        match std::env::var(ROUND_MODE_ENV) {
            Ok(v) if v.eq_ignore_ascii_case("fused") => {
                assert_eq!(joined.resolve_round(), RoundMode::Fused);
                assert_eq!(fused.resolve_round(), RoundMode::Fused);
            }
            Ok(v) if v.eq_ignore_ascii_case("joined") => {
                assert_eq!(joined.resolve_round(), RoundMode::Joined);
                assert_eq!(fused.resolve_round(), RoundMode::Joined);
            }
            _ => {
                assert_eq!(joined.resolve_round(), RoundMode::Joined);
                assert_eq!(fused.resolve_round(), RoundMode::Fused);
            }
        }
    }
}
