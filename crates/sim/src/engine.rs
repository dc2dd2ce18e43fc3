//! The **flat delivery engine**: the shared execution substrate of the
//! synchronous, scoped, and asynchronous executors.
//!
//! Three representation choices remove the per-round heap churn that used
//! to dominate large sweeps:
//!
//! 1. **Flat port store.** All ports of all nodes live in one
//!    `Vec<Letter>` indexed by the graph's CSR offsets
//!    ([`stoneage_graph::Graph::csr_offset`]): node `v`'s `k`-th port is
//!    slot `csr_offset(v) + k`. No `Vec<Vec<_>>`, no per-node pointer
//!    chase, no per-run nested allocations.
//! 2. **Precomputed reverse-slot maps.** Delivering `v`'s letter to every
//!    neighbor `u` writes slot `csr_offset(u) + ψ_u(v)`, which
//!    [`stoneage_graph::Graph::reverse_slots`] stores per directed edge,
//!    computed once at graph build time: a delivery reads one `u32` next
//!    to the neighbor list, with no `O(log deg(u))` `port_of` binary
//!    search and no random `csr_offset(u)` load.
//! 3. **Incremental observation counts.** [`FlatPorts`] maintains, per
//!    node, the exact number of ports holding each letter; every port
//!    overwrite decrements the old letter's count and increments the new
//!    one. A node's phase-1 observation is then an O(|Σ|) refill of a
//!    reusable [`ObsVec`] scratch buffer ([`FlatPorts::refill_obs`])
//!    instead of an O(deg(v)) port scan plus a fresh `Vec` collect.
//!
//! # Dense vs. sparse counts
//!
//! The count table of (3) is dense by default — `|V| · |Σ|` `u32`
//! counters, the right trade for the protocol sizes the nFSM model
//! mandates (|Σ| is a model constant, requirement (M4)). But *compiled*
//! protocols blow the constant up: `Synchronized` ∘ `SingleLetter` grows
//! an alphabet of `σ` letters to `3(σ+1)²`, so a σ = 9 source protocol
//! already costs 300 counters per node while any node's ports can hold at
//! most `deg(v)` distinct letters. Above
//! [`SPARSE_SIGMA_THRESHOLD`] letters, [`FlatPorts::new`] therefore
//! switches to a **sparse** per-node map of `(letter, count)` pairs
//! (sorted by letter, non-zero counts only): memory `O(Σ_v deg(v))`
//! instead of `O(|V| · |Σ|)`, updates by binary search over at most
//! `deg(v)` live entries. [`FlatPorts::with_layout`] forces either
//! representation; a property test pins sparse ≡ dense.
//!
//! Executors additionally keep an **undecided-node counter** (maintained
//! on state transitions) so termination detection is O(1) per round
//! rather than an O(|V|) output scan.
//!
//! # Count changes
//!
//! Every count-row mutation reports whether it changed its node's
//! counts: [`FlatPorts::deliver`], [`PortShard::deliver`] (hence the
//! sharded merge), [`FlatPorts::retire_slot`] and
//! [`FlatPorts::revive_slot`] return `true` exactly then. A write that
//! leaves the counts as they were (the same letter again, or a write
//! bouncing off a tombstone) returns `false`. The lockstep pipeline puts
//! a node whose counts changed into next round's frontier (see
//! [`crate::pipeline`]); the store itself keeps no per-node bookkeeping
//! beyond letters and counts.
//!
//! # Shard views
//!
//! The parallel phase-2 delivery of [`crate::parbuf`] needs several
//! workers writing into one port store at once. Because the store is CSR
//! laid out, a partition of the *node* range into contiguous shards
//! induces a partition of both the letter slots and the count rows into
//! contiguous, disjoint memory ranges — so [`FlatPorts::shards_mut`] can
//! hand out one safe `&mut` view per shard ([`PortShard`]) with plain
//! `split_at_mut`, no locks and no unsafe. A shard accepts exactly the
//! deliveries whose *receiver* falls in its node range; slots and count
//! rows of different shards never alias.
//!
//! # One store, split in time
//!
//! The lockstep round pipeline ([`crate::pipeline`]) runs each round on
//! one store. Phase 1 of round *r* reads the port state at the end of
//! round *r − 1*, frozen for the whole of phase 1: every observation and
//! every scoped target draw. Phase 2 lands round *r*'s deliveries, and
//! the landed store is round *r + 1*'s frozen state. No second copy is
//! needed, because every round's writes are buffered while phase 1 reads
//! the store and land only after its last read: serially, or after the
//! parallel round's scope join. Every flat slot is written at most once
//! per round (a sender emits at most once, and the reverse slot
//! `csr_offset(u) + ψ_u(v)` belongs to the edge `v → u` alone), and the
//! per-letter count updates are commutative integer sums over a
//! canonical representation, so the landing order cannot change the
//! result.

use stoneage_core::{Letter, ObsVec};
use stoneage_graph::{Graph, NodeId};

/// Alphabet size above which [`FlatPorts::new`] keeps its per-node
/// observation counts sparse. `3(σ+1)²` — the compiled alphabet of
/// `Synchronized` ∘ `SingleLetter` — lands exactly here at σ = 3 (still
/// dense) and crosses at σ = 4, so every synthesized protocol beyond toy
/// alphabets gets the sparse layout while hand-written model-constant
/// alphabets stay dense.
pub const SPARSE_SIGMA_THRESHOLD: usize = 48;

/// The letter value marking a **dead** (retired) port slot under churn
/// fault injection — `u16::MAX`, far outside any real alphabet (alphabet
/// indices are bounded by the table builders well below it).
///
/// A tombstoned slot holds no letter: it is excluded from the per-node
/// letter counts, and every delivery path ([`FlatPorts::deliver`],
/// [`FlatPorts::deliver_run`], [`PortShard::deliver`]) drops writes to it
/// on the floor. Churn-free runs never contain a tombstone, so the guard
/// is a single predictable compare on the hot path and all churn-free
/// outcomes are byte-identical to builds without it.
pub const TOMBSTONE: Letter = Letter(u16::MAX);

/// Which per-node count representation a [`FlatPorts`] uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CountLayout {
    /// `counts[v * sigma + letter]`, one `u32` per (node, letter).
    Dense,
    /// Per node, the sorted `(letter, count)` pairs with non-zero count.
    Sparse,
}

#[derive(Clone, Debug)]
enum Counts {
    Dense(Vec<u32>),
    Sparse(Vec<Vec<(u16, u32)>>),
}

/// The flat port store plus incrementally maintained per-node letter
/// counts. See the module docs for the layout.
#[derive(Clone, Debug)]
pub struct FlatPorts {
    sigma: usize,
    /// `letters[csr_offset(v) + k]` = last letter delivered on `v`'s
    /// `k`-th port.
    letters: Vec<Letter>,
    /// Per-node per-letter counts, dense or sparse. Always consistent
    /// with `letters`.
    counts: Counts,
}

impl FlatPorts {
    /// All ports initialized to the initial letter `σ₀` (the paper's
    /// pre-delivery port contents). Picks the count layout by alphabet
    /// size: dense up to [`SPARSE_SIGMA_THRESHOLD`] letters, sparse
    /// beyond.
    pub fn new(graph: &Graph, sigma: usize, sigma0: Letter) -> Self {
        let layout = if sigma > SPARSE_SIGMA_THRESHOLD {
            CountLayout::Sparse
        } else {
            CountLayout::Dense
        };
        Self::with_layout(graph, sigma, sigma0, layout)
    }

    /// Like [`FlatPorts::new`] with an explicit count layout — used by the
    /// sparse ≡ dense differential tests; executors take the gate.
    pub fn with_layout(graph: &Graph, sigma: usize, sigma0: Letter, layout: CountLayout) -> Self {
        let n = graph.node_count();
        let counts = match layout {
            CountLayout::Dense => {
                let mut counts = vec![0u32; n * sigma];
                for v in 0..n {
                    counts[v * sigma + sigma0.index()] = graph.degree(v as NodeId) as u32;
                }
                Counts::Dense(counts)
            }
            CountLayout::Sparse => Counts::Sparse(
                (0..n)
                    .map(|v| {
                        let deg = graph.degree(v as NodeId) as u32;
                        if deg == 0 {
                            Vec::new()
                        } else {
                            vec![(sigma0.0, deg)]
                        }
                    })
                    .collect(),
            ),
        };
        FlatPorts {
            sigma,
            letters: vec![sigma0; graph.port_slot_count()],
            counts,
        }
    }

    /// Rebuilds a store from a serialized letter array — the restore half
    /// of the snapshot layer. Picks the same count layout as
    /// [`FlatPorts::new`] would for `sigma` and recomputes all counts
    /// canonically by scanning ([`TOMBSTONE`]d slots count nothing), so a
    /// capture → restore round trip is byte-identical to the live store:
    /// the incremental count maintenance keeps exactly the canonical
    /// representation this scan produces.
    ///
    /// # Panics
    /// Panics if `letters.len()` differs from the graph's port slot count.
    pub fn from_letters(graph: &Graph, sigma: usize, letters: Vec<Letter>) -> Self {
        assert_eq!(
            letters.len(),
            graph.port_slot_count(),
            "letter array does not match the graph's port slot count"
        );
        let n = graph.node_count();
        let counts = if sigma > SPARSE_SIGMA_THRESHOLD {
            Counts::Sparse(
                (0..n)
                    .map(|v| {
                        let base = graph.csr_offset(v as NodeId);
                        let mut ls: Vec<u16> = letters[base..base + graph.degree(v as NodeId)]
                            .iter()
                            .filter(|&&l| l != TOMBSTONE)
                            .map(|l| l.0)
                            .collect();
                        ls.sort_unstable();
                        let mut m: Vec<(u16, u32)> = Vec::new();
                        for l in ls {
                            match m.last_mut() {
                                Some(e) if e.0 == l => e.1 += 1,
                                _ => m.push((l, 1)),
                            }
                        }
                        m
                    })
                    .collect(),
            )
        } else {
            let mut counts = vec![0u32; n * sigma];
            for v in 0..n {
                let base = graph.csr_offset(v as NodeId);
                for k in 0..graph.degree(v as NodeId) {
                    let l = letters[base + k];
                    if l != TOMBSTONE {
                        counts[v * sigma + l.index()] += 1;
                    }
                }
            }
            Counts::Dense(counts)
        };
        FlatPorts {
            sigma,
            letters,
            counts,
        }
    }

    /// The alphabet size this store was built for.
    pub fn sigma(&self) -> usize {
        self.sigma
    }

    /// The full flat letter array, CSR-indexed — the capture half of the
    /// snapshot layer ([`FlatPorts::from_letters`] restores it).
    pub fn letters(&self) -> &[Letter] {
        &self.letters
    }

    /// The count representation in use.
    pub fn layout(&self) -> CountLayout {
        match self.counts {
            Counts::Dense(_) => CountLayout::Dense,
            Counts::Sparse(_) => CountLayout::Sparse,
        }
    }

    /// The exact per-letter counts of node `v`, indexed by letter index.
    ///
    /// Only available in the dense layout (a sparse store has no dense
    /// slice to lend); engines observe through [`FlatPorts::refill_obs`],
    /// which handles both.
    #[inline]
    pub fn counts_of(&self, v: usize) -> &[u32] {
        match &self.counts {
            Counts::Dense(counts) => &counts[v * self.sigma..(v + 1) * self.sigma],
            Counts::Sparse(_) => {
                panic!("counts_of requires the dense layout; use refill_obs or count")
            }
        }
    }

    /// The exact count of `letter` over `v`'s ports — the untruncated
    /// `#letter` of the paper. O(1) dense, O(log deg) sparse.
    #[inline]
    pub fn count(&self, v: usize, letter: Letter) -> u32 {
        match &self.counts {
            Counts::Dense(counts) => counts[v * self.sigma + letter.index()],
            Counts::Sparse(maps) => maps[v]
                .binary_search_by_key(&letter.0, |e| e.0)
                .map(|i| maps[v][i].1)
                .unwrap_or(0),
        }
    }

    /// Refills `obs` with `f_b` of node `v`'s exact per-letter counts —
    /// the phase-1 observation, independent of the count layout.
    #[inline]
    pub fn refill_obs(&self, v: usize, obs: &mut ObsVec, b: u8) {
        match &self.counts {
            Counts::Dense(counts) => {
                obs.refill_from_counts(&counts[v * self.sigma..(v + 1) * self.sigma], b)
            }
            Counts::Sparse(maps) => obs.refill_from_sparse(self.sigma, &maps[v], b),
        }
    }

    /// Node `v`'s ports as a slice (port `k` = `v`'s `k`-th neighbor).
    #[inline]
    pub fn ports_of(&self, graph: &Graph, v: NodeId) -> &[Letter] {
        let base = graph.csr_offset(v);
        &self.letters[base..base + graph.degree(v)]
    }

    /// The letter currently stored in flat slot `slot`.
    #[inline]
    pub fn letter_at(&self, slot: usize) -> Letter {
        self.letters[slot]
    }

    /// Overwrites the port at flat `slot` (belonging to node `node`) with
    /// `letter`, maintaining the incremental counts. Writes to a
    /// [`TOMBSTONE`]d (dead) slot are dropped. Returns whether `node`'s
    /// counts changed: not for a dropped write or the same letter again.
    #[inline]
    pub fn deliver(&mut self, node: usize, slot: usize, letter: Letter) -> bool {
        if self.letters[slot] == TOMBSTONE {
            return false;
        }
        let old = std::mem::replace(&mut self.letters[slot], letter);
        if old == letter {
            return false;
        }
        match &mut self.counts {
            Counts::Dense(counts) => {
                let base = node * self.sigma;
                counts[base + old.index()] -= 1;
                counts[base + letter.index()] += 1;
            }
            Counts::Sparse(maps) => sparse_swap(&mut maps[node], old, letter),
        }
        true
    }

    /// Applies several port overwrites of **one node** with a single
    /// count-update pass: letters are swapped slot by slot while the
    /// per-letter count changes accumulate as net deltas in `deltas`
    /// (caller-owned scratch, cleared here), which are then applied to
    /// `node`'s count row once per distinct letter.
    ///
    /// Produces exactly the state that the same writes applied one
    /// [`FlatPorts::deliver`] at a time would — per-letter count updates
    /// are commutative integer sums and the sparse map is canonical — but
    /// pays one count-row lookup per *distinct letter* instead of two per
    /// write. The async executor uses this to coalesce same-instant
    /// deliveries to one receiver from different senders (the slots are
    /// distinct by per-edge FIFO, so the swaps commute too).
    pub fn deliver_run(
        &mut self,
        node: usize,
        writes: &[(u32, Letter)],
        deltas: &mut Vec<(u16, i64)>,
    ) {
        fn accumulate(deltas: &mut Vec<(u16, i64)>, letter: u16, d: i64) {
            match deltas.iter_mut().find(|e| e.0 == letter) {
                Some(e) => e.1 += d,
                None => deltas.push((letter, d)),
            }
        }
        deltas.clear();
        for &(slot, letter) in writes {
            if self.letters[slot as usize] == TOMBSTONE {
                continue;
            }
            let old = std::mem::replace(&mut self.letters[slot as usize], letter);
            if old == letter {
                continue;
            }
            accumulate(deltas, old.0, -1);
            accumulate(deltas, letter.0, 1);
        }
        match &mut self.counts {
            Counts::Dense(counts) => {
                let base = node * self.sigma;
                for &(l, d) in deltas.iter() {
                    if d != 0 {
                        let c = &mut counts[base + l as usize];
                        *c = (*c as i64 + d) as u32;
                    }
                }
            }
            Counts::Sparse(maps) => {
                let m = &mut maps[node];
                for &(l, d) in deltas.iter() {
                    if d != 0 {
                        sparse_apply_delta(m, l, d);
                    }
                }
            }
        }
    }

    /// Broadcasts `letter` from `v` to all of its neighbors' reverse
    /// slots — the flat-engine delivery of one non-`ε` emission.
    #[inline]
    pub fn broadcast(&mut self, graph: &Graph, v: NodeId, letter: Letter) {
        for (&u, &slot) in graph.neighbors(v).iter().zip(graph.reverse_slots(v)) {
            self.deliver(u as usize, slot as usize, letter);
        }
    }

    /// Kills the port at flat `slot` (belonging to node `node`): the
    /// letter it held is dropped, its count decremented, and the slot
    /// left holding [`TOMBSTONE`] so subsequent deliveries bounce off.
    /// Idempotent: returns whether `node`'s counts changed, which is
    /// whether the slot was live. Only the churn layer calls this, at
    /// round boundaries.
    pub fn retire_slot(&mut self, node: usize, slot: usize) -> bool {
        let old = std::mem::replace(&mut self.letters[slot], TOMBSTONE);
        if old == TOMBSTONE {
            return false;
        }
        match &mut self.counts {
            Counts::Dense(counts) => counts[node * self.sigma + old.index()] -= 1,
            Counts::Sparse(maps) => sparse_apply_delta(&mut maps[node], old.0, -1),
        }
        true
    }

    /// Revives a [`TOMBSTONE`]d port at flat `slot` (belonging to node
    /// `node`) to the initial letter `σ₀` — the re-registration half of a
    /// churn restart/edge-insert. The slot must currently be dead, so the
    /// revived `σ₀` always changes `node`'s counts: returns `true`.
    pub fn revive_slot(&mut self, node: usize, slot: usize, sigma0: Letter) -> bool {
        let old = std::mem::replace(&mut self.letters[slot], sigma0);
        debug_assert_eq!(old, TOMBSTONE, "revive_slot requires a retired slot");
        match &mut self.counts {
            Counts::Dense(counts) => counts[node * self.sigma + sigma0.index()] += 1,
            Counts::Sparse(maps) => sparse_apply_delta(&mut maps[node], sigma0.0, 1),
        }
        true
    }

    /// The full-rebuild reference of the churn differential oracle: a
    /// store reconstructed from scratch in which slot `(v, k)` holds
    /// [`TOMBSTONE`] when `live(v, k)` is false, `σ₀` where this store
    /// holds a tombstone (a revived slot re-registers), and this store's
    /// letter otherwise — with all counts recomputed by scanning, in the
    /// same layout. Incremental [`FlatPorts::retire_slot`] /
    /// [`FlatPorts::revive_slot`] patching must reproduce this
    /// bit-for-bit (both representations are canonical), which is exactly
    /// what the churn differential matrix pins.
    pub fn rebuilt_for_churn(
        &self,
        graph: &Graph,
        sigma0: Letter,
        live: impl Fn(NodeId, usize) -> bool,
    ) -> FlatPorts {
        let n = graph.node_count();
        let mut letters = vec![TOMBSTONE; graph.port_slot_count()];
        for v in 0..n {
            let base = graph.csr_offset(v as NodeId);
            for k in 0..graph.degree(v as NodeId) {
                if live(v as NodeId, k) {
                    let old = self.letters[base + k];
                    letters[base + k] = if old == TOMBSTONE { sigma0 } else { old };
                }
            }
        }
        let counts = match self.layout() {
            CountLayout::Dense => {
                let mut counts = vec![0u32; n * self.sigma];
                for v in 0..n {
                    let base = graph.csr_offset(v as NodeId);
                    for k in 0..graph.degree(v as NodeId) {
                        let l = letters[base + k];
                        if l != TOMBSTONE {
                            counts[v * self.sigma + l.index()] += 1;
                        }
                    }
                }
                Counts::Dense(counts)
            }
            CountLayout::Sparse => Counts::Sparse(
                (0..n)
                    .map(|v| {
                        let base = graph.csr_offset(v as NodeId);
                        let mut ls: Vec<u16> = letters[base..base + graph.degree(v as NodeId)]
                            .iter()
                            .filter(|&&l| l != TOMBSTONE)
                            .map(|l| l.0)
                            .collect();
                        ls.sort_unstable();
                        let mut m: Vec<(u16, u32)> = Vec::new();
                        for l in ls {
                            match m.last_mut() {
                                Some(e) if e.0 == l => e.1 += 1,
                                _ => m.push((l, 1)),
                            }
                        }
                        m
                    })
                    .collect(),
            ),
        };
        FlatPorts {
            sigma: self.sigma,
            letters,
            counts,
        }
    }

    /// Recomputes all per-node letter counts from scratch by scanning the
    /// port store, in dense layout ([`TOMBSTONE`]d slots count nothing).
    /// Used by property tests to validate the incremental maintenance;
    /// executors never call this.
    pub fn recount(&self, graph: &Graph) -> Vec<u32> {
        let n = graph.node_count();
        let mut counts = vec![0u32; n * self.sigma];
        for v in 0..n {
            let base = graph.csr_offset(v as NodeId);
            for k in 0..graph.degree(v as NodeId) {
                let l = self.letters[base + k];
                if l != TOMBSTONE {
                    counts[v * self.sigma + l.index()] += 1;
                }
            }
        }
        counts
    }

    /// The incremental counts materialized densely (`[v * sigma +
    /// letter]`) whatever the layout — for comparison against
    /// [`FlatPorts::recount`] and the sparse ≡ dense property tests.
    pub fn dense_counts(&self, graph: &Graph) -> Vec<u32> {
        match &self.counts {
            Counts::Dense(counts) => counts.clone(),
            Counts::Sparse(maps) => {
                let n = graph.node_count();
                let mut counts = vec![0u32; n * self.sigma];
                for (v, m) in maps.iter().enumerate() {
                    for &(letter, count) in m {
                        counts[v * self.sigma + letter as usize] = count;
                    }
                }
                counts
            }
        }
    }

    /// Splits the store into disjoint mutable shard views along the given
    /// contiguous node partition (`node_bounds[0] = 0`, ascending, last
    /// entry `= |V|`; shard `s` owns receivers `node_bounds[s] ..
    /// node_bounds[s + 1]`). Because the store is CSR laid out, each
    /// shard's letter slots and count rows are contiguous ranges, so the
    /// views are plain `split_at_mut` slices — workers on different
    /// shards can deliver concurrently without locks or unsafe code.
    ///
    /// See the module docs; [`crate::parbuf`] builds its deterministic
    /// parallel phase-2 merge on these views.
    pub fn shards_mut<'a>(
        &'a mut self,
        graph: &Graph,
        node_bounds: &[usize],
    ) -> Vec<PortShard<'a>> {
        let n = graph.node_count();
        assert!(
            node_bounds.len() >= 2 && node_bounds[0] == 0 && *node_bounds.last().unwrap() == n,
            "node bounds must start at 0 and end at the node count"
        );
        let sigma = self.sigma;
        enum Rest<'a> {
            Dense(&'a mut [u32]),
            Sparse(&'a mut [Vec<(u16, u32)>]),
        }
        let mut letters_rest = &mut self.letters[..];
        let mut counts_rest = match &mut self.counts {
            Counts::Dense(c) => Rest::Dense(&mut c[..]),
            Counts::Sparse(m) => Rest::Sparse(&mut m[..]),
        };
        let mut shards = Vec::with_capacity(node_bounds.len() - 1);
        let mut slot_base = 0usize;
        let mut node_base = 0usize;
        for w in node_bounds.windows(2) {
            let (lo, hi) = (w[0], w[1]);
            assert!(lo == node_base && hi >= lo, "node bounds must be ascending");
            let slot_hi = graph.csr_offset(hi as NodeId);
            let (letters, tail) = letters_rest.split_at_mut(slot_hi - slot_base);
            letters_rest = tail;
            let counts = match counts_rest {
                Rest::Dense(c) => {
                    let (head, tail) = c.split_at_mut((hi - node_base) * sigma);
                    counts_rest = Rest::Dense(tail);
                    ShardCounts::Dense(head)
                }
                Rest::Sparse(m) => {
                    let (head, tail) = m.split_at_mut(hi - node_base);
                    counts_rest = Rest::Sparse(tail);
                    ShardCounts::Sparse(head)
                }
            };
            shards.push(PortShard {
                sigma,
                node_base,
                slot_base,
                letters,
                counts,
            });
            node_base = hi;
            slot_base = slot_hi;
        }
        shards
    }
}

/// Applies one `old → new` letter swap to a sparse per-node count map.
#[inline]
fn sparse_swap(m: &mut Vec<(u16, u32)>, old: Letter, new: Letter) {
    let i = m
        .binary_search_by_key(&old.0, |e| e.0)
        .expect("sparse counts track every stored letter");
    m[i].1 -= 1;
    if m[i].1 == 0 {
        m.remove(i);
    }
    match m.binary_search_by_key(&new.0, |e| e.0) {
        Ok(i) => m[i].1 += 1,
        Err(i) => m.insert(i, (new.0, 1)),
    }
}

/// Applies a net per-letter count delta to a sparse map, keeping it
/// canonical (sorted, non-zero counts only).
#[inline]
fn sparse_apply_delta(m: &mut Vec<(u16, u32)>, letter: u16, delta: i64) {
    match m.binary_search_by_key(&letter, |e| e.0) {
        Ok(i) => {
            let next = m[i].1 as i64 + delta;
            debug_assert!(next >= 0, "sparse count would go negative");
            if next == 0 {
                m.remove(i);
            } else {
                m[i].1 = next as u32;
            }
        }
        Err(i) => {
            debug_assert!(delta > 0, "delta for an absent letter must be positive");
            m.insert(i, (letter, delta as u32));
        }
    }
}

/// Which count representation a [`PortShard`] borrows.
enum ShardCounts<'a> {
    Dense(&'a mut [u32]),
    Sparse(&'a mut [Vec<(u16, u32)>]),
}

/// A disjoint mutable view over one contiguous receiver range of a
/// [`FlatPorts`], produced by [`FlatPorts::shards_mut`]. Accepts the same
/// absolute `(node, slot)` addressing as [`FlatPorts::deliver`] but only
/// for receivers inside the shard (out-of-range writes panic on the slice
/// bounds — a misrouted delivery can never silently corrupt a neighbor
/// shard).
pub struct PortShard<'a> {
    sigma: usize,
    node_base: usize,
    slot_base: usize,
    letters: &'a mut [Letter],
    counts: ShardCounts<'a>,
}

impl PortShard<'_> {
    /// The first receiver node this shard owns.
    pub fn node_base(&self) -> usize {
        self.node_base
    }

    /// Overwrites the port at absolute flat `slot` (belonging to `node`,
    /// which must fall in this shard's receiver range), maintaining the
    /// incremental counts — the shard-local twin of
    /// [`FlatPorts::deliver`], with the same return value.
    #[inline]
    pub fn deliver(&mut self, node: usize, slot: usize, letter: Letter) -> bool {
        if self.letters[slot - self.slot_base] == TOMBSTONE {
            return false;
        }
        let old = std::mem::replace(&mut self.letters[slot - self.slot_base], letter);
        if old == letter {
            return false;
        }
        match &mut self.counts {
            ShardCounts::Dense(counts) => {
                let base = (node - self.node_base) * self.sigma;
                counts[base + old.index()] -= 1;
                counts[base + letter.index()] += 1;
            }
            ShardCounts::Sparse(maps) => sparse_swap(&mut maps[node - self.node_base], old, letter),
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use stoneage_graph::generators;

    #[test]
    fn initial_counts_are_degrees_on_sigma0() {
        let g = generators::star(5);
        let ports = FlatPorts::new(&g, 3, Letter(1));
        assert_eq!(ports.layout(), CountLayout::Dense);
        assert_eq!(ports.counts_of(0), &[0, 4, 0]);
        for v in 1..5 {
            assert_eq!(ports.counts_of(v), &[0, 1, 0]);
            assert_eq!(ports.count(v, Letter(1)), 1);
        }
        assert_eq!(ports.dense_counts(&g), ports.recount(&g));
    }

    #[test]
    fn broadcast_lands_on_reverse_ports() {
        let g = generators::cycle(4);
        let mut ports = FlatPorts::new(&g, 2, Letter(0));
        ports.broadcast(&g, 1, Letter(1));
        // Exactly 0's and 2's ports toward node 1 hold the new letter.
        for v in g.nodes() {
            for (k, &u) in g.neighbors(v).iter().enumerate() {
                let expected = if u == 1 { Letter(1) } else { Letter(0) };
                assert_eq!(ports.letter_at(g.csr_offset(v) + k), expected);
            }
        }
        assert_eq!(ports.dense_counts(&g), ports.recount(&g));
    }

    #[test]
    fn redundant_overwrite_keeps_counts_consistent() {
        let g = generators::path(3);
        for layout in [CountLayout::Dense, CountLayout::Sparse] {
            let mut ports = FlatPorts::with_layout(&g, 2, Letter(0), layout);
            let slot = g.csr_offset(1); // node 1's port toward node 0
            ports.deliver(1, slot, Letter(1));
            ports.deliver(1, slot, Letter(1)); // same letter again
            ports.deliver(1, slot, Letter(0)); // back to σ₀
            assert_eq!(ports.dense_counts(&g), ports.recount(&g), "{layout:?}");
            assert_eq!(ports.count(1, Letter(0)), 2);
            assert_eq!(ports.count(1, Letter(1)), 0);
        }
    }

    #[test]
    fn large_alphabets_gate_into_the_sparse_layout() {
        let g = generators::star(4);
        assert_eq!(
            FlatPorts::new(&g, SPARSE_SIGMA_THRESHOLD, Letter(0)).layout(),
            CountLayout::Dense
        );
        // 3(σ+1)² for σ = 4 — a synthesized synchronized alphabet.
        let ports = FlatPorts::new(&g, 75, Letter(7));
        assert_eq!(ports.layout(), CountLayout::Sparse);
        assert_eq!(ports.count(0, Letter(7)), 3);
        assert_eq!(ports.count(0, Letter(8)), 0);
        assert_eq!(ports.dense_counts(&g), ports.recount(&g));
    }

    #[test]
    fn sparse_observation_matches_dense_observation() {
        use stoneage_core::ObsVec;
        let g = generators::cycle(5);
        let sigma = 60;
        let mut dense = FlatPorts::with_layout(&g, sigma, Letter(0), CountLayout::Dense);
        let mut sparse = FlatPorts::with_layout(&g, sigma, Letter(0), CountLayout::Sparse);
        for (i, slot) in [(0usize, 0usize), (1, 2), (2, 4), (2, 5)]
            .into_iter()
            .enumerate()
        {
            dense.deliver(
                slot.0,
                g.csr_offset(slot.0 as u32) + slot.1 % 2,
                Letter(i as u16 + 9),
            );
            sparse.deliver(
                slot.0,
                g.csr_offset(slot.0 as u32) + slot.1 % 2,
                Letter(i as u16 + 9),
            );
        }
        let mut od = ObsVec::zeroed(sigma);
        let mut os = ObsVec::zeroed(sigma);
        for v in 0..5 {
            dense.refill_obs(v, &mut od, 2);
            sparse.refill_obs(v, &mut os, 2);
            assert_eq!(od, os, "node {v}");
        }
    }

    #[test]
    fn deliver_run_matches_sequential_delivers() {
        let g = generators::star(5);
        for layout in [CountLayout::Dense, CountLayout::Sparse] {
            let mut one = FlatPorts::with_layout(&g, 4, Letter(0), layout);
            let mut run = one.clone();
            // Center node 0 has 4 ports; include a redundant overwrite and
            // a repeated letter so the delta accumulation is exercised.
            let base = g.csr_offset(0) as u32;
            let writes = [
                (base, Letter(2)),
                (base + 1, Letter(2)),
                (base + 2, Letter(0)),
                (base + 3, Letter(3)),
            ];
            for &(slot, letter) in &writes {
                one.deliver(0, slot as usize, letter);
            }
            let mut scratch = Vec::new();
            run.deliver_run(0, &writes, &mut scratch);
            assert_eq!(one.dense_counts(&g), run.dense_counts(&g), "{layout:?}");
            for slot in 0..g.port_slot_count() {
                assert_eq!(one.letter_at(slot), run.letter_at(slot), "{layout:?}");
            }
            assert_eq!(run.dense_counts(&g), run.recount(&g), "{layout:?}");
        }
    }

    #[test]
    fn shard_views_deliver_like_the_whole_store() {
        let g = generators::cycle(7);
        for layout in [CountLayout::Dense, CountLayout::Sparse] {
            let mut whole = FlatPorts::with_layout(&g, 3, Letter(0), layout);
            let mut sharded = whole.clone();
            // (receiver, port k, letter) spread across all three shards.
            let writes = [
                (0usize, 0usize, Letter(1)),
                (1, 1, Letter(2)),
                (3, 0, Letter(1)),
                (4, 1, Letter(2)),
                (6, 0, Letter(1)),
                (6, 1, Letter(2)),
            ];
            for &(v, k, letter) in &writes {
                whole.deliver(v, g.csr_offset(v as u32) + k, letter);
            }
            let bounds = [0usize, 2, 5, 7];
            let mut shards = sharded.shards_mut(&g, &bounds);
            for &(v, k, letter) in &writes {
                let s = bounds[1..].partition_point(|&b| b <= v);
                shards[s].deliver(v, g.csr_offset(v as u32) + k, letter);
            }
            drop(shards);
            assert_eq!(
                whole.dense_counts(&g),
                sharded.dense_counts(&g),
                "{layout:?}"
            );
            for slot in 0..g.port_slot_count() {
                assert_eq!(whole.letter_at(slot), sharded.letter_at(slot), "{layout:?}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "node bounds")]
    fn shard_bounds_must_cover_the_node_range() {
        let g = generators::path(4);
        let mut ports = FlatPorts::new(&g, 2, Letter(0));
        let _ = ports.shards_mut(&g, &[0, 2]);
    }

    #[test]
    fn every_count_mutation_reports_a_change() {
        let g = generators::star(4);
        for layout in [CountLayout::Dense, CountLayout::Sparse] {
            let mut ports = FlatPorts::with_layout(&g, 3, Letter(0), layout);
            // A write that leaves the counts as they were reports nothing.
            let slot = g.csr_offset(1); // leaf 1's port toward the hub
            assert!(
                !ports.deliver(1, slot, Letter(0)),
                "same letter: {layout:?}"
            );
            // A count change reports one.
            assert!(ports.deliver(1, slot, Letter(2)), "{layout:?}");
            assert!(!ports.deliver(1, slot, Letter(2)), "again: {layout:?}");

            // Churn retire/revive, and a write bouncing off a tombstone.
            assert!(ports.retire_slot(1, slot), "retire: {layout:?}");
            assert!(!ports.retire_slot(1, slot), "retire twice: {layout:?}");
            assert!(!ports.deliver(1, slot, Letter(1)), "tombstone: {layout:?}");
            assert!(ports.revive_slot(1, slot, Letter(0)), "revive: {layout:?}");
            assert_eq!(ports.dense_counts(&g), ports.recount(&g), "{layout:?}");

            // The sharded merge's view reports like the whole store.
            let mut shards = ports.shards_mut(&g, &[0, 2, 4]);
            let hub_side = g.csr_offset(3); // leaf 3's port toward the hub
            assert!(!shards[1].deliver(3, hub_side, Letter(0)), "{layout:?}");
            assert!(shards[1].deliver(3, hub_side, Letter(2)), "{layout:?}");
            drop(shards);
            assert_eq!(ports.count(3, Letter(2)), 1, "{layout:?}");
            assert_eq!(ports.dense_counts(&g), ports.recount(&g), "{layout:?}");
        }
    }

    proptest! {
        /// The tentpole invariant: after any sequence of random
        /// deliveries, the incrementally maintained counts equal a
        /// from-scratch recount of the port store.
        #[test]
        fn incremental_counts_match_recount(
            n in 2usize..40,
            p in 0.05f64..0.5,
            gseed in 0u64..500,
            sigma in 1usize..6,
            rounds in 1usize..60,
        ) {
            let g = generators::gnp(n, p, gseed);
            let mut ports = FlatPorts::new(&g, sigma, Letter(0));
            let mut state = gseed.wrapping_mul(0x9E3779B97F4A7C15) ^ rounds as u64;
            let mut next = || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state
            };
            for _ in 0..rounds {
                let v = (next() % n as u64) as usize;
                let deg = g.degree(v as u32);
                if deg == 0 {
                    continue;
                }
                if next() % 3 == 0 {
                    // Whole-node broadcast through the reverse-slot map.
                    let letter = Letter((next() % sigma as u64) as u16);
                    ports.broadcast(&g, v as u32, letter);
                } else {
                    // Single-port overwrite.
                    let k = (next() % deg as u64) as usize;
                    let letter = Letter((next() % sigma as u64) as u16);
                    ports.deliver(v, g.csr_offset(v as u32) + k, letter);
                }
            }
            prop_assert_eq!(ports.dense_counts(&g), ports.recount(&g));
        }

        /// The sparse gate invariant: both layouts, driven through the
        /// same delivery sequence, agree on every count, every
        /// observation, and the recount — sparse ≡ dense.
        #[test]
        fn sparse_layout_matches_dense_layout(
            n in 2usize..30,
            p in 0.05f64..0.5,
            gseed in 0u64..300,
            sigma in 50usize..90,
            rounds in 1usize..50,
        ) {
            use stoneage_core::ObsVec;
            let g = generators::gnp(n, p, gseed);
            let mut dense = FlatPorts::with_layout(&g, sigma, Letter(0), CountLayout::Dense);
            let mut sparse = FlatPorts::with_layout(&g, sigma, Letter(0), CountLayout::Sparse);
            let mut state = gseed.wrapping_mul(0x2545F4914F6CDD1D) ^ (rounds as u64) << 7;
            let mut next = || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state
            };
            for _ in 0..rounds {
                let v = (next() % n as u64) as usize;
                let deg = g.degree(v as u32);
                if deg == 0 {
                    continue;
                }
                let letter = Letter((next() % sigma as u64) as u16);
                if next() % 3 == 0 {
                    dense.broadcast(&g, v as u32, letter);
                    sparse.broadcast(&g, v as u32, letter);
                } else {
                    let slot = g.csr_offset(v as u32) + (next() % deg as u64) as usize;
                    dense.deliver(v, slot, letter);
                    sparse.deliver(v, slot, letter);
                }
            }
            prop_assert_eq!(dense.dense_counts(&g), sparse.dense_counts(&g));
            prop_assert_eq!(sparse.dense_counts(&g), sparse.recount(&g));
            let mut od = ObsVec::zeroed(sigma);
            let mut os = ObsVec::zeroed(sigma);
            for v in 0..n {
                dense.refill_obs(v, &mut od, 3);
                sparse.refill_obs(v, &mut os, 3);
                prop_assert_eq!(&od, &os);
                for l in 0..sigma as u16 {
                    prop_assert_eq!(dense.count(v, Letter(l)), sparse.count(v, Letter(l)));
                }
            }
        }
    }
}
