//! The calendar-queue / hierarchical-timing-wheel scheduler behind the
//! asynchronous executor.
//!
//! PR 1's flat delivery engine removed the per-delivery `port_of` searches
//! from the async executor behind [`crate::Simulation`]; what
//! remained was the single global
//! `BinaryHeap<Reverse<Event>>`, whose `O(log m)` push/pop factor (with
//! `m` the number of in-flight events — hundreds of thousands on a
//! gnp(50k, avg deg 8) sweep) dominated the event loop. [`CalendarQueue`]
//! replaces it with the standard discrete-event answer: a timing wheel
//! whose per-event cost is O(1) amortized, independent of `m`.
//!
//! # Structure
//!
//! Time is quantized into **ticks** of a caller-chosen `bucket_width`
//! (see below). Events live in one of three places:
//!
//! * the **front heap** — a tiny `BinaryHeap` holding only the events of
//!   the *current* tick, ordered by exact `(time, seq)`;
//! * the **wheel** — [`LEVELS`] levels of [`SLOTS`] buckets each. Level
//!   `ℓ` buckets span `64^ℓ` ticks, so the wheel covers `64^4 ≈ 16.8M`
//!   ticks ahead of the current tick. An event at tick delta `d` is
//!   filed, unsorted, in level `⌊log₆₄ d⌋`, slot `(tick >> 6ℓ) mod 64`;
//! * the **overflow heap** — events beyond the wheel horizon (rare: it
//!   takes a delay more than ~16M ticks ahead to land here), drained back
//!   into the wheel as the current tick approaches them.
//!
//! Advancing the clock scans level 0 for the next occupied tick; at each
//! level-`ℓ` window boundary the corresponding level-`ℓ` slot **cascades**
//! down into the finer levels, exactly like a hierarchical timing wheel.
//! Empty stretches are skipped a whole window at a time (when all levels
//! below `ℓ` are empty, the clock jumps straight to the next level-`ℓ`
//! boundary), so draining a sparse schedule never degenerates into
//! tick-by-tick stepping.
//!
//! # Storage
//!
//! Buckets keep their storage. Loading a level-0 bucket into the front
//! heap and cascading a coarser bucket both drain it in place, so its
//! capacity stays for the next events filed there; the front and
//! overflow heaps keep theirs too. Once every bucket has held its busiest
//! load, push and pop allocate nothing: a warmed queue makes at most one
//! allocation per 1,000 pop+push pairs (`tests/allocations.rs` pins
//! that). The cost is memory: a bucket holds the capacity of its busiest
//! moment for the life of the queue.
//!
//! A cascade rests on one invariant, which `cascade` asserts in debug
//! builds: a level-`ℓ` slot is drained exactly when the clock reaches the
//! start of its window, so every entry in it lies less than `64^ℓ` ticks
//! ahead and refiles strictly below level `ℓ`. Nothing lands back in the
//! slot while it drains, so its emptied storage can be put back
//! afterwards. None of this changes pop order.
//!
//! # Exact ordering
//!
//! Unlike a classical calendar queue, pop order here is **bit-identical**
//! to a global binary heap ordered by `(time, seq)`: ticks only bound
//! *which* events are candidates; the front heap always orders the
//! current tick's events by their exact `f64` time (via `total_cmp`) and
//! the caller-supplied tie-breaking sequence number. Quantization
//! therefore affects performance only, never semantics — the async
//! executor's differential tests pin this.
//!
//! # Bucket-width selection
//!
//! The width trades the front-heap size against empty-tick traversal:
//!
//! * **too wide** — many events share a tick, the front heap grows, and
//!   the scheduler degenerates toward the global heap it replaces;
//! * **too narrow** — most ticks are empty and (far worse) events
//!   scatter into the coarse levels, paying a cascade each before they
//!   can drain.
//!
//! The sweet spot is a width that keeps a handful of events per tick:
//! `width ≈ target / rate`, where `rate` is the expected number of
//! scheduled events per unit of simulated time. The async executor
//! estimates `rate ≈ (|V| + Σ_v deg(v)) / mean_step_length` — every step
//! reschedules itself and fans out at most `deg(v)` deliveries — with the
//! mean step length taken from [`crate::Adversary::time_scale_hint`]
//! when the policy knows its own scale, or from a small deterministic
//! sample of the policy otherwise, and targets ~4 events per tick.
//! Getting this wrong is safe: both failure modes are graceful slowdowns
//! back toward heap behavior.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Slots per wheel level (64 = one 6-bit digit of the tick index).
pub const SLOTS: usize = 64;
/// log2 of [`SLOTS`]: ticks shift by `BITS` per level.
const BITS: u32 = 6;
/// Wheel levels. Level `ℓ` slots span `64^ℓ` ticks, so the wheel horizon
/// is `64^LEVELS` ticks past the current tick.
pub const LEVELS: usize = 4;
/// Ticks covered by the wheel before events fall into the overflow heap.
const HORIZON: u64 = 1 << (BITS * LEVELS as u32); // 64^4

/// Ticks are clamped here so `time / width` overflow on pathological
/// widths cannot wrap the arithmetic below. Ordering is unaffected:
/// clamped events all sit in the overflow heap, which compares exact
/// `(time, seq)`.
const TICK_CLAMP: u64 = 1 << 62;

/// One queued event, ordered by exact `(time, seq)`; `tick` files it in
/// the wheel.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Entry<T> {
    time: f64,
    seq: u64,
    tick: u64,
    item: T,
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}

impl<T> Eq for Entry<T> {}

impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.time
            .total_cmp(&other.time)
            .then(self.seq.cmp(&other.seq))
    }
}

/// A hierarchical-timing-wheel event queue with exact `(time, seq)` pop
/// order. See the module docs for the structure and the bucket-width
/// trade-off.
///
/// `seq` values must be unique across live events (the async executor
/// hands out a fresh one per scheduled delivery); times must be finite
/// and non-negative. An event pushed earlier than the last popped one
/// joins the current tick, so it still pops in exact order: the async
/// executor pushes a popped event back when a churn boundary precedes
/// it, and the boundary may schedule a step before it.
#[derive(Clone, Debug)]
pub struct CalendarQueue<T> {
    width: f64,
    inv_width: f64,
    current_tick: u64,
    front: BinaryHeap<Reverse<Entry<T>>>,
    /// `levels[l][s]`: unsorted events whose tick has digit `s` at level
    /// `l` and lies within level `l`'s span of the current tick.
    levels: Vec<Vec<Vec<Entry<T>>>>,
    level_counts: [usize; LEVELS],
    overflow: BinaryHeap<Reverse<Entry<T>>>,
    len: usize,
}

impl<T> CalendarQueue<T> {
    /// An empty queue with the given bucket (tick) width in simulated
    /// time units. Non-finite or non-positive widths fall back to 1.0.
    pub fn new(bucket_width: f64) -> Self {
        let width = if bucket_width.is_finite() && bucket_width > 0.0 {
            bucket_width
        } else {
            1.0
        };
        CalendarQueue {
            width,
            inv_width: width.recip(),
            current_tick: 0,
            front: BinaryHeap::new(),
            levels: (0..LEVELS)
                .map(|_| (0..SLOTS).map(|_| Vec::new()).collect())
                .collect(),
            level_counts: [0; LEVELS],
            overflow: BinaryHeap::new(),
            len: 0,
        }
    }

    /// The tick width this queue was built with.
    pub fn width(&self) -> f64 {
        self.width
    }

    /// Number of events currently queued.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no events are queued.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Visits every queued event as `(time, seq, &item)`, in **no
    /// particular order** — the snapshot layer collects and sorts them by
    /// `(time, seq)` itself. Non-destructive: the queue is unchanged.
    pub fn entries(&self) -> impl Iterator<Item = (f64, u64, &T)> {
        self.front
            .iter()
            .map(|Reverse(e)| (e.time, e.seq, &e.item))
            .chain(
                self.levels
                    .iter()
                    .flatten()
                    .flatten()
                    .map(|e| (e.time, e.seq, &e.item)),
            )
            .chain(
                self.overflow
                    .iter()
                    .map(|Reverse(e)| (e.time, e.seq, &e.item)),
            )
    }

    #[inline]
    fn tick_of(&self, time: f64) -> u64 {
        // `as` saturates on overflow/NaN; the explicit clamp keeps the
        // delta arithmetic below honest.
        ((time * self.inv_width) as u64).min(TICK_CLAMP)
    }

    /// Schedules `item` at `time` with tie-break rank `seq`.
    #[inline]
    pub fn push(&mut self, time: f64, seq: u64, item: T) {
        debug_assert!(time.is_finite() && time >= 0.0, "event time {time}");
        let tick = self.tick_of(time).max(self.current_tick);
        self.len += 1;
        self.place(Entry {
            time,
            seq,
            tick,
            item,
        });
    }

    /// Files an entry into front/wheel/overflow by its tick. Does not
    /// touch `len`.
    #[inline]
    fn place(&mut self, entry: Entry<T>) {
        let delta = entry.tick - self.current_tick;
        if delta == 0 {
            self.front.push(Reverse(entry));
        } else if delta < HORIZON {
            // ⌊log64 delta⌋ via the bit length of delta (delta ≥ 1).
            let level = ((63 - delta.leading_zeros()) / BITS) as usize;
            let slot = ((entry.tick >> (BITS * level as u32)) & (SLOTS as u64 - 1)) as usize;
            self.levels[level][slot].push(entry);
            self.level_counts[level] += 1;
        } else {
            self.overflow.push(Reverse(entry));
        }
    }

    /// Pops the globally earliest event by `(time, seq)`.
    pub fn pop(&mut self) -> Option<(f64, u64, T)> {
        loop {
            if let Some(Reverse(e)) = self.front.pop() {
                self.len -= 1;
                return Some((e.time, e.seq, e.item));
            }
            if self.len == 0 {
                return None;
            }
            self.advance();
        }
    }

    /// Moves overflow events that now fit under the wheel horizon into
    /// the wheel (or the front, for the current tick).
    fn drain_overflow(&mut self) {
        while let Some(Reverse(top)) = self.overflow.peek() {
            if top.tick - self.current_tick >= HORIZON {
                break;
            }
            let Reverse(e) = self.overflow.pop().expect("peeked");
            self.place(e);
        }
    }

    /// Empties `levels[level][slot]` into the finer levels / front,
    /// keeping the bucket's storage.
    fn cascade(&mut self, level: usize, slot: usize) {
        if self.levels[level][slot].is_empty() {
            return;
        }
        let mut entries = std::mem::take(&mut self.levels[level][slot]);
        self.level_counts[level] -= entries.len();
        for e in entries.drain(..) {
            // The slot's window starts at the clock, so every entry lies
            // less than one level-`level` span ahead and refiles strictly
            // below `level`: nothing lands back in this slot while its
            // storage is out.
            debug_assert!(
                e.tick >= self.current_tick
                    && e.tick - self.current_tick < 1 << (BITS * level as u32),
                "cascade of level {level} refiles tick {} at clock {}",
                e.tick,
                self.current_tick
            );
            self.place(e);
        }
        self.levels[level][slot] = entries;
    }

    /// Moves level-0 slot `slot` — every entry of tick `current_tick` —
    /// into the front heap, keeping the bucket's storage.
    fn load_front(&mut self, slot: usize) {
        let bucket = &mut self.levels[0][slot];
        debug_assert!(bucket.iter().all(|e| e.tick == self.current_tick));
        self.level_counts[0] -= bucket.len();
        self.front.extend(bucket.drain(..).map(Reverse));
    }

    /// Front is empty and `len > 0`: advance the clock to the next
    /// occupied tick and load its events into the front heap.
    fn advance(&mut self) {
        self.drain_overflow();
        if self.level_counts.iter().all(|&c| c == 0) {
            // Everything left is beyond the horizon: jump the clock
            // straight to the earliest overflow event and re-drain (its
            // tick now matches `current_tick`, so it lands in the front).
            let Reverse(top) = self.overflow.peek().expect("len > 0, wheel empty");
            self.current_tick = top.tick;
            self.drain_overflow();
            return;
        }

        // Scan the rest of the current level-0 window for an occupied
        // tick. Level-0 entries always sit within 64 ticks of the clock,
        // but entries past the window boundary are reached only after the
        // boundary cascade below.
        if self.level_counts[0] > 0 {
            let window_end = (self.current_tick | (SLOTS as u64 - 1)) + 1;
            for t in self.current_tick + 1..window_end {
                let slot = (t & (SLOTS as u64 - 1)) as usize;
                if !self.levels[0][slot].is_empty() {
                    self.current_tick = t;
                    self.load_front(slot);
                    return;
                }
            }
        }

        // Nothing before the next boundary. Jump a whole window at the
        // granularity of the consecutive-empty level prefix: after the
        // cascade at each 64^ℓ boundary crossing, every remaining
        // level-ℓ event's tick lies at or past the *next* 64^ℓ boundary,
        // so a jump to the next 64^g boundary can pass no event of any
        // level ≥ g — and levels < g are empty. Then cascade every slot
        // whose window starts at the new clock, coarsest first.
        let mut empty = 0usize;
        while empty < LEVELS && self.level_counts[empty] == 0 {
            empty += 1;
        }
        debug_assert!(empty < LEVELS, "wheel-empty case handled above");
        let jump = empty.max(1);
        let span = 1u64 << (BITS * jump as u32);
        self.current_tick = (self.current_tick | (span - 1)) + 1;
        for level in (1..LEVELS).rev() {
            let level_span = 1u64 << (BITS * level as u32);
            if self.current_tick.is_multiple_of(level_span) {
                let slot =
                    ((self.current_tick >> (BITS * level as u32)) & (SLOTS as u64 - 1)) as usize;
                self.cascade(level, slot);
            }
        }
        // Cascaded entries for the new clock tick were placed with
        // delta == 0, i.e. straight into the front — but the boundary's
        // own level-0 slot may also hold events filed *before* the jump
        // (pushed with delta < 64 from the previous window). The scan
        // above starts past the clock, so drain that slot here.
        self.load_front((self.current_tick & (SLOTS as u64 - 1)) as usize);
    }
}

/// An event queue popping in exact `(time, seq)` order: the async event
/// loop is generic over it, so both implementations drive one loop.
pub(crate) trait EventQueue<T: 'static> {
    /// Schedules `item` at `time` with tie-break rank `seq`.
    fn push(&mut self, time: f64, seq: u64, item: T);
    /// Pops the earliest event by `(time, seq)`.
    fn pop(&mut self) -> Option<(f64, u64, T)>;
    /// Visits every queued event, in no particular order.
    fn entries(&self) -> impl Iterator<Item = (f64, u64, &T)>;
}

impl<T: 'static> EventQueue<T> for CalendarQueue<T> {
    #[inline]
    fn push(&mut self, time: f64, seq: u64, item: T) {
        CalendarQueue::push(self, time, seq, item)
    }
    #[inline]
    fn pop(&mut self) -> Option<(f64, u64, T)> {
        CalendarQueue::pop(self)
    }
    fn entries(&self) -> impl Iterator<Item = (f64, u64, &T)> {
        CalendarQueue::entries(self)
    }
}

/// The reference queue: one global binary heap over the wheel's own
/// `(time, seq)` entry order, `O(log m)` per push and pop.
pub(crate) type HeapQueue<T> = BinaryHeap<Reverse<Entry<T>>>;

impl<T: 'static> EventQueue<T> for HeapQueue<T> {
    #[inline]
    fn push(&mut self, time: f64, seq: u64, item: T) {
        let tick = 0;
        BinaryHeap::push(
            self,
            Reverse(Entry {
                time,
                seq,
                tick,
                item,
            }),
        );
    }
    #[inline]
    fn pop(&mut self) -> Option<(f64, u64, T)> {
        BinaryHeap::pop(self).map(|Reverse(e)| (e.time, e.seq, e.item))
    }
    fn entries(&self) -> impl Iterator<Item = (f64, u64, &T)> {
        self.iter().map(|Reverse(e)| (e.time, e.seq, &e.item))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference scheduler: the global binary heap the wheel replaces.
    type HeapRef = HeapQueue<u64>;

    /// Deterministic xorshift for schedule generation.
    fn rng(seed: u64) -> impl FnMut() -> u64 {
        let mut s = seed | 1;
        move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        }
    }

    fn differential(width: f64, seed: u64, pushes_per_round: usize, rounds: usize) {
        let mut wheel = CalendarQueue::new(width);
        let mut heap = HeapRef::new();
        let mut next = rng(seed);
        let mut seq = 0u64;
        let mut clock = 0.0f64;
        for _ in 0..rounds {
            for _ in 0..pushes_per_round {
                // Mixture of near, far, and equal-time events.
                let r = next();
                let dt = match r % 5 {
                    0 => 0.25, // exact ties across pushes
                    1 => (r >> 8) as f64 % 1.0 * 1e-3,
                    2 => (r >> 8) as f64 % 1.0,
                    3 => 10.0 + (r >> 8) as f64 % 100.0,
                    _ => 1e4 + (r >> 8) as f64 % 1e5, // deep into coarse levels
                };
                let t = clock + dt.max(1e-9);
                wheel.push(t, seq, seq);
                EventQueue::push(&mut heap, t, seq, seq);
                seq += 1;
            }
            // Drain a few, keeping the queues non-empty.
            for _ in 0..pushes_per_round / 2 {
                let w = wheel.pop();
                let h = EventQueue::pop(&mut heap);
                assert_eq!(w, h, "width {width} seed {seed}");
                if let Some((t, _, _)) = w {
                    assert!(t >= clock);
                    clock = t;
                }
            }
        }
        // Full drain must agree to the last event.
        loop {
            let w = wheel.pop();
            let h = EventQueue::pop(&mut heap);
            assert_eq!(w, h, "drain: width {width} seed {seed}");
            if w.is_none() {
                break;
            }
        }
        assert!(wheel.is_empty());
    }

    #[test]
    fn pop_order_matches_binary_heap_across_widths() {
        for &width in &[1.0, 0.01, 1e-4, 123.0] {
            for seed in 1..5 {
                differential(width, seed, 40, 30);
            }
        }
    }

    #[test]
    fn extreme_widths_fall_back_gracefully() {
        // Degenerate widths must stay correct (everything lands in one
        // tick, or everything overflows) even if slow.
        differential(1e12, 9, 25, 10); // one giant bucket
        differential(1e-12, 11, 10, 6); // every event beyond the horizon
        assert_eq!(CalendarQueue::<u8>::new(f64::NAN).width(), 1.0);
        assert_eq!(CalendarQueue::<u8>::new(-3.0).width(), 1.0);
    }

    #[test]
    fn ties_pop_in_seq_order() {
        let mut q = CalendarQueue::new(0.5);
        for seq in (0..20u64).rev() {
            q.push(7.25, seq, seq);
        }
        for want in 0..20u64 {
            let (t, seq, item) = q.pop().unwrap();
            assert_eq!((t, seq, item), (7.25, want, want));
        }
        assert!(q.pop().is_none());
    }

    #[test]
    fn far_future_events_cross_every_level_and_the_overflow() {
        let mut q = CalendarQueue::new(1.0);
        // One event per level span plus one past the horizon.
        let times = [3.0, 100.0, 5_000.0, 300_000.0, 20_000_000.0, 1e12];
        for (seq, &t) in times.iter().enumerate() {
            q.push(t, seq as u64, seq as u64);
        }
        assert_eq!(q.len(), times.len());
        for (seq, &t) in times.iter().enumerate() {
            assert_eq!(q.pop(), Some((t, seq as u64, seq as u64)));
        }
        assert!(q.is_empty());
    }

    #[test]
    fn interleaved_pushes_into_the_current_tick_stay_ordered() {
        // Events scheduled between pops, landing inside the tick being
        // drained, must still pop in (time, seq) order.
        let mut q = CalendarQueue::new(1.0);
        q.push(0.1, 0, 0);
        q.push(0.9, 1, 1);
        assert_eq!(q.pop(), Some((0.1, 0, 0)));
        q.push(0.5, 2, 2); // same tick, earlier than the queued 0.9
        assert_eq!(q.pop(), Some((0.5, 2, 2)));
        assert_eq!(q.pop(), Some((0.9, 1, 1)));
        assert!(q.pop().is_none());
    }

    #[test]
    fn entries_visit_every_queued_event_without_draining() {
        let mut q = CalendarQueue::new(1.0);
        let times = [0.5, 3.0, 100.0, 5_000.0, 300_000.0, 20_000_000.0, 1e12];
        for (seq, &t) in times.iter().enumerate() {
            q.push(t, seq as u64, seq as u64);
        }
        q.pop().unwrap(); // populate the front heap mid-drain
        q.push(0.75, 99, 99);
        let mut seen: Vec<(f64, u64, u64)> = q.entries().map(|(t, s, &i)| (t, s, i)).collect();
        assert_eq!(seen.len(), q.len());
        seen.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let mut popped = Vec::new();
        while let Some((t, s, i)) = q.pop() {
            popped.push((t, s, i));
        }
        assert_eq!(seen, popped);
    }

    #[test]
    fn len_tracks_pushes_and_pops() {
        let mut q = CalendarQueue::new(2.0);
        assert!(q.is_empty());
        for i in 0..100u64 {
            q.push(i as f64 * 3.7, i, i);
        }
        assert_eq!(q.len(), 100);
        for _ in 0..40 {
            q.pop().unwrap();
        }
        assert_eq!(q.len(), 60);
    }
}
