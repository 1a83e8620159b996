//! Calendar-queue event scheduler: a single-level timer wheel with a heap
//! overflow layer.
//!
//! The [`World`](crate::World) engine dispatches events in `(time, seq)`
//! order. A binary heap gives that contract in `O(log n)` per operation —
//! but a discrete-event simulation is overwhelmingly *near-horizon*: almost
//! every message lands within a handful of ticks of "now", while only
//! pre-scheduled arrival tables and long retransmit timers live far out.
//! [`TimerWheel`] exploits that shape:
//!
//! * events within the wheel's window of [`TimerWheel::span`] ticks go into
//!   per-tick slots — `O(1)` push, `O(1)` pop (a bitmap scan finds the next
//!   occupied slot);
//! * events beyond the window go to an **overflow heap** and are promoted
//!   into the wheel as the window advances past them (a *cascade*);
//! * within one slot (= one simulated instant) entries are kept in
//!   ascending `seq` order, so pops reproduce the heap's `(time, seq)`
//!   tie-break *exactly* — byte-identical runs, tape replays included.
//!
//! The seq-order invariant holds by appending in the common case: the
//! engine's global sequence counter is monotone, and a slot only becomes
//! pushable-to after every lower-seq overflow entry for its instant has
//! been promoted. The one exception is a [`DeliveryStrategy`]
//! (crate::sched::DeliveryStrategy) re-queueing unchosen tie events with
//! their *original* (older) sequence numbers; those take a binary-search
//! insert instead. The `sched_differential` test drives both structures
//! through seeded random workloads — strategy re-queues included — and
//! asserts identical pop sequences.
//!
//! Slot storage doubles as a small arena: entry slots are reclaimed the
//! moment their instant drains and their capacity is reused by later
//! instants that hash to the same slot. [`SchedStats`] reports how many
//! entry-bytes were served from retained capacity versus fresh allocation,
//! alongside the cascade counters; `atpbench` reports the cascades as
//! `world.cascades_per_kevent`.

use std::collections::{BinaryHeap, VecDeque};

/// Default number of single-tick slots (must be a power of two).
const DEFAULT_SLOTS: usize = 1024;

/// One queued entry: payload plus its scheduling key.
#[derive(Debug, Clone)]
struct Entry<T> {
    time: u64,
    seq: u64,
    item: T,
}

/// Overflow-heap wrapper ordering entries as a min-heap on `(time, seq)`.
#[derive(Debug)]
struct OverflowEntry<T>(Entry<T>);

impl<T> PartialEq for OverflowEntry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.0.time == other.0.time && self.0.seq == other.0.seq
    }
}
impl<T> Eq for OverflowEntry<T> {}
impl<T> PartialOrd for OverflowEntry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for OverflowEntry<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the earliest first.
        (other.0.time, other.0.seq).cmp(&(self.0.time, self.0.seq))
    }
}

/// Scheduler-internal counters, exposed through
/// [`World::sched_stats`](crate::World::sched_stats) so queue regressions
/// stay attributable. Monotone over the wheel's lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedStats {
    /// Promotion sweeps that moved at least one entry out of the overflow
    /// heap when the window advanced.
    pub cascades: u64,
    /// Entries promoted overflow → wheel across all cascades.
    pub overflow_promotions: u64,
    /// Entry-bytes placed into slot capacity retained from earlier,
    /// already-drained instants (the slot arena paying off).
    pub arena_bytes_reused: u64,
    /// Entry-bytes of fresh slot capacity allocated on demand.
    pub arena_bytes_allocated: u64,
}

impl SchedStats {
    /// Accumulates another stats block into this one.
    pub fn merge(&mut self, other: &SchedStats) {
        self.cascades += other.cascades;
        self.overflow_promotions += other.overflow_promotions;
        self.arena_bytes_reused += other.arena_bytes_reused;
        self.arena_bytes_allocated += other.arena_bytes_allocated;
    }
}

/// A timer-wheel priority queue popping entries in `(time, seq)` order.
///
/// Drop-in replacement for a `BinaryHeap<Reverse<(time, seq, T)>>` with
/// `O(1)` amortized push/pop for events within [`TimerWheel::span`] ticks
/// of the queue head. See the [module docs](self) for the design.
///
/// ```rust
/// use atp_net::wheel::TimerWheel;
/// let mut w = TimerWheel::new();
/// w.push(5, 0, "late");
/// w.push(1, 1, "early");
/// w.push(5000, 2, "far");       // beyond the window: overflow heap
/// assert_eq!(w.peek_time(), Some(1));
/// assert_eq!(w.pop(), Some((1, 1, "early")));
/// assert_eq!(w.pop(), Some((5, 0, "late")));
/// assert_eq!(w.pop(), Some((5000, 2, "far")));
/// assert_eq!(w.pop(), None);
/// ```
#[derive(Debug)]
pub struct TimerWheel<T> {
    /// `span` single-tick slots; slot `time & mask` holds every pending
    /// entry at instants congruent to it inside the current window.
    slots: Vec<VecDeque<Entry<T>>>,
    /// One bit per slot: set while the slot is non-empty.
    occupied: Vec<u64>,
    mask: u64,
    /// Window floor: every wheel entry satisfies `base <= time < base + span`,
    /// and no pending entry (wheel or overflow) is earlier than `base`.
    base: u64,
    /// Total pending entries (wheel + overflow).
    len: usize,
    /// Entries at `time - base >= span`, ordered by `(time, seq)`.
    overflow: BinaryHeap<OverflowEntry<T>>,
    stats: SchedStats,
}

impl<T> Default for TimerWheel<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> TimerWheel<T> {
    /// A wheel with the default window span and no pre-reserved overflow.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// A wheel whose overflow heap is pre-sized for `capacity` entries —
    /// the layer that grows with bulk far-future schedules (e.g. an
    /// open-loop arrival table), hence the one worth pre-sizing.
    pub fn with_capacity(capacity: usize) -> Self {
        Self::with_slots_and_capacity(DEFAULT_SLOTS, capacity)
    }

    /// A wheel with an explicit slot count (rounded up to a power of two,
    /// minimum 2). Exposed for granularity tuning and benches; the default
    /// suits the simulator's latency scales.
    pub fn with_slots_and_capacity(slots: usize, capacity: usize) -> Self {
        let n = slots.max(2).next_power_of_two();
        TimerWheel {
            slots: (0..n).map(|_| VecDeque::new()).collect(),
            occupied: vec![0u64; n.div_ceil(64)],
            mask: (n - 1) as u64,
            base: 0,
            len: 0,
            overflow: BinaryHeap::with_capacity(capacity),
            stats: SchedStats::default(),
        }
    }

    /// Number of pending entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no entries are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The wheel window width in ticks: entries this far beyond the queue
    /// head go to the overflow heap until the window reaches them.
    pub fn span(&self) -> u64 {
        self.slots.len() as u64
    }

    /// Allocated capacity of the overflow heap (the component sized by
    /// bulk event counts; slot storage adapts on its own).
    pub fn capacity(&self) -> usize {
        self.overflow.capacity()
    }

    /// Reserves overflow capacity for at least `additional` more entries.
    pub fn reserve(&mut self, additional: usize) {
        self.overflow.reserve(additional);
    }

    /// Scheduler-internal counters (cascades, promotions, slot-arena bytes).
    pub fn stats(&self) -> &SchedStats {
        &self.stats
    }

    /// Queues `item` at `(time, seq)`.
    ///
    /// `time` must not precede the last popped entry's time (the engine
    /// never schedules into the past); `seq` ties at one instant are
    /// popped in ascending order no matter the push order.
    pub fn push(&mut self, time: u64, seq: u64, item: T) {
        debug_assert!(
            time >= self.base,
            "push at t{time} behind wheel base t{}",
            self.base
        );
        let entry = Entry { time, seq, item };
        if time.wrapping_sub(self.base) < self.span() {
            self.insert_slot(entry);
        } else {
            self.overflow.push(OverflowEntry(entry));
        }
        self.len += 1;
    }

    /// Earliest pending `(time)`, without removing anything.
    pub fn peek_time(&self) -> Option<u64> {
        let wheel = self.next_slot().map(|idx| self.slots[idx][0].time);
        let over = self.overflow.peek().map(|o| o.0.time);
        match (wheel, over) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// Removes and returns the earliest entry as `(time, seq, item)`.
    pub fn pop(&mut self) -> Option<(u64, u64, T)> {
        if self.len == 0 {
            return None;
        }
        if !self.overflow.is_empty() {
            if self.len == self.overflow.len() {
                // Wheel empty: jump the window straight to the next event.
                self.base = self.overflow.peek().expect("non-empty").0.time;
            }
            self.promote();
        }
        // After promotion every overflow entry lies beyond the window, so
        // the earliest entry is in the wheel; the nearest occupied slot in
        // circular order from `base` is the earliest instant.
        let idx = self.next_slot().expect("len > 0 but wheel empty");
        let slot = &mut self.slots[idx];
        let e = slot.pop_front().expect("occupied slot was empty");
        if slot.is_empty() {
            self.occupied[idx >> 6] &= !(1u64 << (idx & 63));
        }
        self.len -= 1;
        self.base = e.time;
        Some((e.time, e.seq, e.item))
    }

    /// Moves every overflow entry the current window covers into its slot.
    fn promote(&mut self) {
        let span = self.span();
        let mut moved = 0u64;
        while let Some(o) = self.overflow.peek() {
            if o.0.time.wrapping_sub(self.base) >= span {
                break;
            }
            let e = self.overflow.pop().expect("peeked entry vanished").0;
            self.insert_slot(e);
            moved += 1;
        }
        if moved > 0 {
            self.stats.cascades += 1;
            self.stats.overflow_promotions += moved;
        }
    }

    /// Places an in-window entry into its slot, preserving ascending seq
    /// order. Entries arrive in seq order except for strategy re-queues
    /// (old seqs at the current instant) and promotions racing direct
    /// pushes, which take the binary-search path.
    fn insert_slot(&mut self, e: Entry<T>) {
        let idx = (e.time & self.mask) as usize;
        let slot = &mut self.slots[idx];
        let entry_size = std::mem::size_of::<Entry<T>>() as u64;
        let cap_before = slot.capacity();
        debug_assert!(slot.front().is_none_or(|f| f.time == e.time));
        match slot.back() {
            Some(last) if last.seq > e.seq => {
                let pos = slot.partition_point(|x| x.seq < e.seq);
                slot.insert(pos, e);
            }
            _ => slot.push_back(e),
        }
        let cap_after = slot.capacity();
        if cap_after > cap_before {
            self.stats.arena_bytes_allocated += (cap_after - cap_before) as u64 * entry_size;
        } else {
            self.stats.arena_bytes_reused += entry_size;
        }
        self.occupied[idx >> 6] |= 1u64 << (idx & 63);
    }

    /// Index of the occupied slot nearest to `base` in circular order —
    /// the slot of the earliest wheel instant. `None` if the wheel layer
    /// is empty.
    fn next_slot(&self) -> Option<usize> {
        if self.len == self.overflow.len() {
            return None;
        }
        let n = self.slots.len();
        let words = self.occupied.len();
        let start = (self.base & self.mask) as usize;
        // First word: mask off bits below the cursor.
        let w0 = start >> 6;
        let masked = self.occupied[w0] & (!0u64 << (start & 63));
        if masked != 0 {
            let idx = (w0 << 6) + masked.trailing_zeros() as usize;
            if idx < n {
                return Some(idx);
            }
        }
        // Remaining words, wrapping around once.
        for i in 1..=words {
            let w = (w0 + i) % words;
            let bits = if w == w0 {
                // Back at the start word: only bits below the cursor remain.
                self.occupied[w] & !(!0u64 << (start & 63))
            } else {
                self.occupied[w]
            };
            if bits != 0 {
                return Some((w << 6) + bits.trailing_zeros() as usize);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(w: &mut TimerWheel<u32>) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        while let Some((t, s, _)) = w.pop() {
            out.push((t, s));
        }
        out
    }

    #[test]
    fn pops_in_time_then_seq_order() {
        let mut w = TimerWheel::new();
        w.push(3, 0, 0);
        w.push(1, 1, 0);
        w.push(3, 2, 0);
        w.push(2, 3, 0);
        assert_eq!(drain(&mut w), vec![(1, 1), (2, 3), (3, 0), (3, 2)]);
    }

    #[test]
    fn far_events_overflow_and_promote() {
        let mut w = TimerWheel::new();
        let span = w.span();
        w.push(0, 0, 0);
        w.push(span * 3 + 5, 1, 0);
        w.push(span * 3 + 5, 2, 0);
        w.push(1, 3, 0);
        assert_eq!(w.len(), 4);
        assert_eq!(
            drain(&mut w),
            vec![(0, 0), (1, 3), (span * 3 + 5, 1), (span * 3 + 5, 2)]
        );
        assert_eq!(w.stats().overflow_promotions, 2);
        assert!(w.stats().cascades >= 1);
    }

    #[test]
    fn promotion_interleaves_with_direct_pushes_in_seq_order() {
        let mut w = TimerWheel::new();
        let t = w.span() + 10;
        w.push(t, 0, 0); // overflow: window is [0, span)
        w.push(0, 1, 0);
        assert_eq!(w.pop(), Some((0, 1, 0))); // base -> 0, then next pop promotes
        w.push(t, 2, 0); // still overflow relative to base 0
        assert_eq!(w.pop(), Some((t, 0, 0))); // jump + promote both, seq order kept
        assert_eq!(w.pop(), Some((t, 2, 0)));
    }

    #[test]
    fn requeue_with_old_seq_sorts_into_slot() {
        let mut w = TimerWheel::new();
        w.push(7, 10, 0);
        w.push(7, 20, 1);
        let (t, s, _) = w.pop().expect("first");
        assert_eq!((t, s), (7, 10));
        // Strategy re-queue: the unchosen event returns with its original
        // seq, lower than a fresh push that arrived meanwhile.
        w.push(7, 30, 2);
        w.push(7, 10, 0);
        assert_eq!(drain(&mut w), vec![(7, 10), (7, 20), (7, 30)]);
    }

    #[test]
    fn peek_time_sees_both_layers() {
        let mut w = TimerWheel::new();
        assert_eq!(w.peek_time(), None);
        w.push(w.span() * 2, 0, 0);
        assert_eq!(w.peek_time(), Some(w.span() * 2));
        w.push(4, 1, 0);
        assert_eq!(w.peek_time(), Some(4));
    }

    #[test]
    fn slot_reuse_is_counted_as_arena_hits() {
        let mut w = TimerWheel::new();
        let span = w.span();
        // Same slot, successive windows: capacity allocated once, reused after.
        for lap in 0..4u64 {
            w.push(lap * span + 3, lap, 0);
            assert_eq!(w.pop().map(|(t, ..)| t), Some(lap * span + 3));
        }
        let s = *w.stats();
        assert!(s.arena_bytes_allocated > 0);
        assert!(
            s.arena_bytes_reused >= 3 * std::mem::size_of::<Entry<u32>>() as u64,
            "later laps should reuse the slot's capacity: {s:?}"
        );
    }

    #[test]
    fn capacity_maps_to_overflow_heap() {
        let mut w: TimerWheel<u32> = TimerWheel::with_capacity(1000);
        assert!(w.capacity() >= 1000);
        w.reserve(5000);
        assert!(w.capacity() >= 5000);
    }

    #[test]
    fn saturated_far_times_still_order() {
        let mut w = TimerWheel::new();
        w.push(5, 0, 0);
        w.push(u64::MAX, 1, 0);
        w.push(u64::MAX, 2, 0);
        assert_eq!(drain(&mut w), vec![(5, 0), (u64::MAX, 1), (u64::MAX, 2)]);
    }

    #[test]
    fn dense_wraparound_respects_order() {
        // More pending instants than slots: ticks 0..3*span with gaps.
        let mut w = TimerWheel::with_slots_and_capacity(8, 0);
        let mut expect = Vec::new();
        for i in 0..24u64 {
            let t = i * 3 + (i % 5);
            w.push(t, i, 0);
            expect.push((t, i));
        }
        expect.sort_unstable();
        assert_eq!(drain(&mut w), expect);
    }

    #[test]
    fn stats_merge_accumulates() {
        let mut a = SchedStats {
            cascades: 1,
            overflow_promotions: 2,
            arena_bytes_reused: 3,
            arena_bytes_allocated: 4,
        };
        a.merge(&SchedStats {
            cascades: 10,
            overflow_promotions: 20,
            arena_bytes_reused: 30,
            arena_bytes_allocated: 40,
        });
        assert_eq!(a.cascades, 11);
        assert_eq!(a.overflow_promotions, 22);
        assert_eq!(a.arena_bytes_reused, 33);
        assert_eq!(a.arena_bytes_allocated, 44);
    }
}
