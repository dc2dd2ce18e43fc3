//! Deterministic parallel phase-2 delivery: sharded per-worker write
//! buffers for the parallel round schedule of the lockstep executors.
//! Phase 2 — delivering every emission into [`FlatPorts`] — runs
//! data-parallel, and the schedule stays **bit-identical** to the serial
//! one:
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
//!    only the frozen previous-round ports and the graph's reverse-slot
//!    map.
//! 3. **Merge.** The destination-sharded merge (the default) hands each
//!    worker one disjoint [`crate::engine::PortShard`] view and replays,
//!    in fixed worker order, every buffer's bucket for that shard. Buffer
//!    replay applies the same buffers serially in the same fixed order —
//!    the differential oracle the property tests pit the sharded merge
//!    against. Either way, a receiver whose counts changed joins next
//!    round's frontier (see [`crate::pipeline`]): the sharded merge sets
//!    bits only in its own shard's words of it.
//!
//! # Why this is bit-identical to the serial engine
//!
//! The argument rests on three facts, none of them scheduling-dependent:
//!
//! * **Frozen reads.** Phase 2a resolves emissions against the
//!   previous-round port store, which nothing mutates until every worker
//!   has joined — so the resolved write set (and any scoped target draws,
//!   which use per-node RNGs) is exactly the serial engine's.
//! * **Slot uniqueness.** A delivery from `v` to `u` writes the reverse
//!   slot `csr_offset(u) + ψ_u(v)`, and a sender emits at most once per round
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
//! counts, merge strategies, graph families (hub-heavy ones included),
//! and the serial engines.

use stoneage_core::Letter;
use stoneage_graph::{Graph, NodeId};

use crate::engine::FlatPorts;
use crate::pipeline::Frontier;

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
}

impl ParallelPolicy {
    /// A policy forcing `workers` workers and no serial fallback — every
    /// round genuinely runs the chunked phases and the buffered merge.
    pub fn forced(workers: usize, merge: MergeStrategy) -> Self {
        ParallelPolicy {
            workers: Some(workers.max(1)),
            merge,
            min_nodes: Some(0),
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

/// One destination bucket of a [`DeliveryBuffer`], on cache lines of its
/// own: a worker pushes to its buckets' headers while another worker
/// pushes to its own, and the headers of two workers' bucket arrays may
/// sit next to each other on the heap.
#[derive(Clone, Debug, Default)]
#[repr(align(128))]
struct Bucket(Vec<Write>);

/// A worker-private phase-2a write buffer: the deliveries of one sender
/// chunk, pre-bucketed by destination shard, plus the chunk's non-`ε`
/// transmission count. Reused across rounds ([`DeliveryBuffer::clear`]
/// keeps the bucket capacities).
#[derive(Clone, Debug, Default)]
pub struct DeliveryBuffer {
    buckets: Vec<Bucket>,
    /// Non-`ε` transmissions resolved into this buffer since the last
    /// [`DeliveryBuffer::clear`].
    pub sent: u64,
}

impl DeliveryBuffer {
    /// An empty buffer with one bucket per destination shard.
    pub fn new(shards: usize) -> Self {
        DeliveryBuffer {
            buckets: vec![Bucket::default(); shards],
            sent: 0,
        }
    }

    /// Empties every bucket and the sent counter, keeping capacities.
    pub fn clear(&mut self) {
        for b in &mut self.buckets {
            b.0.clear();
        }
        self.sent = 0;
    }

    /// The bucket destined to shard `s`, in push (= sender) order.
    pub fn bucket(&self, s: usize) -> &[Write] {
        &self.buckets[s].0
    }

    /// Buffers one delivery.
    #[inline]
    pub fn push(&mut self, plan: &ShardPlan, node: NodeId, slot: usize, letter: Letter) {
        self.buckets[plan.shard_of(node)].0.push(Write {
            node,
            slot: slot as u32,
            letter,
        });
    }

    /// Buffers the full broadcast of `letter` from `v` through the
    /// reverse-slot map — the buffered twin of [`FlatPorts::broadcast`].
    /// Counts the transmission.
    #[inline]
    pub fn broadcast(&mut self, graph: &Graph, plan: &ShardPlan, v: NodeId, letter: Letter) {
        self.sent += 1;
        for (&u, &slot) in graph.neighbors(v).iter().zip(graph.reverse_slots(v)) {
            self.push(plan, u, slot as usize, letter);
        }
    }
}

/// Phase 2b, destination-sharded: one scoped worker per shard applies —
/// in fixed worker order — every buffer's bucket for its shard, through
/// a disjoint [`crate::engine::PortShard`] view, and puts each receiver
/// whose counts changed into its shard's words of next round's
/// `frontier`. Workers never touch the same CSR slot, count row or
/// frontier word, and within a shard the writes land in ascending sender
/// order (buffer order × push order). `frontier` must be laid out over
/// `plan`'s shards.
pub(crate) fn merge_sharded(
    ports: &mut FlatPorts,
    graph: &Graph,
    plan: &ShardPlan,
    buffers: &[&DeliveryBuffer],
    frontier: &mut Frontier,
) {
    let shards = ports.shards_mut(graph, plan.bounds());
    std::thread::scope(|scope| {
        for (s, (mut shard, mut next)) in shards.into_iter().zip(frontier.shards()).enumerate() {
            debug_assert_eq!(
                shard.node_base(),
                next.base(),
                "frontier laid out over the plan"
            );
            scope.spawn(move || {
                for buffer in buffers {
                    for w in buffer.bucket(s) {
                        if shard.deliver(w.node as usize, w.slot as usize, w.letter) {
                            next.insert(w.node as usize);
                        }
                    }
                }
            });
        }
    });
}

/// Phase 2b, serial replay: applies every buffer in fixed worker order
/// (and bucket order within a buffer) through the ordinary
/// [`FlatPorts::deliver`], putting each receiver whose counts changed
/// into next round's `frontier`. The differential oracle for
/// [`merge_sharded`]; both produce byte-identical stores and frontiers.
pub(crate) fn merge_replay(
    ports: &mut FlatPorts,
    buffers: &[&DeliveryBuffer],
    frontier: &mut Frontier,
) {
    for buffer in buffers {
        for s in 0..buffer.buckets.len() {
            for w in buffer.bucket(s) {
                if ports.deliver(w.node as usize, w.slot as usize, w.letter) {
                    frontier.insert(w.node as usize);
                }
            }
        }
    }
}

/// Applies the configured merge strategy.
pub(crate) fn merge(
    strategy: MergeStrategy,
    ports: &mut FlatPorts,
    graph: &Graph,
    plan: &ShardPlan,
    buffers: &[&DeliveryBuffer],
    frontier: &mut Frontier,
) {
    match strategy {
        MergeStrategy::DestinationSharded => merge_sharded(ports, graph, plan, buffers, frontier),
        MergeStrategy::BufferReplay => merge_replay(ports, buffers, frontier),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::tests::take_round;
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
            let buffers: Vec<&DeliveryBuffer> = buffers.iter().collect();
            // Both merges start from an empty next round.
            let mut sharded_next = Frontier::full(plan.bounds());
            let mut replayed_next = Frontier::full(plan.bounds());
            take_round(&mut sharded_next);
            take_round(&mut replayed_next);
            let mut sharded = FlatPorts::new(&g, 4, Letter(0));
            merge_sharded(&mut sharded, &g, &plan, &buffers, &mut sharded_next);
            let mut replayed = FlatPorts::new(&g, 4, Letter(0));
            merge_replay(&mut replayed, &buffers, &mut replayed_next);
            // Next round steps exactly the receivers whose counts changed.
            let woken = take_round(&mut sharded_next);
            assert_eq!(woken, take_round(&mut replayed_next), "w{workers}");
            // Every write moves a port off letter 0, so a receiver's
            // counts changed exactly when its letter-0 count fell.
            let changed: Vec<usize> = (0..60)
                .filter(|&v| sharded.count(v, Letter(0)) < g.degree(v as u32) as u32)
                .collect();
            assert_eq!(woken, changed, "w{workers}");
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
        let auto = ParallelPolicy::default();
        assert!(auto.use_serial(PARALLEL_MIN_NODES - 1));
    }
}
