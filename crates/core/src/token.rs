//! The token frame: the single "expensive" artifact that circulates.
//!
//! In System Message-Passing the global history `H` stops existing as state
//! and travels inside token messages. [`TokenFrame`] is the bounded-size
//! realization: instead of the full history it carries
//!
//! * the *committed length* of `H` (`next_seq`), which is all a holder needs
//!   to append;
//! * a **carried window** of recent [`LogEntry`]s, cut below the higher of
//!   two floors. The *round floor* (Section 4.4's round-counter bounding)
//!   keeps every entry appended during the current and previous round: a
//!   rotation takes exactly one round to show an entry to every node. The
//!   *ack floor* is the shortest prefix of `H` any node has applied, read
//!   from the frame's per-node applied watermark; the lazy token, which
//!   has no rounds, is bounded by it alone;
//! * the **applied watermark**: how far each node had applied `H` when it
//!   last took this frame (written by the lazy protocols only, so empty on
//!   a rotating token);
//! * a **satisfied window** of recently granted [`RequestId`]s used by the
//!   token-rotation trap cleanup;
//! * the rotation bookkeeping (visit counter, round counter, idle rounds)
//!   that drives visit stamps and the adaptive-speed optimization.
//!
//! Beside the two windows the frame keeps two **transient caches** (see
//! [`Transient`]): the chained digests of the carried window, which let a
//! node that has verified its own digest against the chain adopt the
//! window's head in O(1), and a membership index over the satisfied window.
//! Neither is part of the frame's value: they are never encoded, compared
//! or printed, and a decoded or cloned frame starts without them.

use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};
use std::fmt;

use atp_net::NodeId;
use atp_util::buf::Buf;

use crate::codec::{get, get_seq, measure, CodecError, Fixed, Sink};
use crate::order::HistoryDigest;
use crate::types::{LogEntry, RequestId, VisitStamp};

/// Largest satisfied window that [`TokenFrame::is_satisfied`] still scans
/// linearly. Measured on this host (release, 2 % hit rate): a scan costs
/// 8 / 19 / 40 / 70 / 446 ns at 16 / 32 / 64 / 128 / 1024 entries against a
/// flat 16–21 ns hash probe, so the index wins from ~32 entries up — but a
/// decoded frame arrives without it and rebuilding costs ~24 ns per entry
/// (1.5 µs at 64), which a real-transport node with a handful of trap checks
/// per possession never earns back. 64 keeps every cluster of up to 32 nodes
/// (window 2·N) on the scan it had, and costs the simulator at most 20 ns per
/// check below it.
const LINEAR_SCAN_MAX: usize = 64;

/// A cache that is not part of its owner's value.
///
/// It compares equal to anything, prints as `_`, and a clone starts from
/// `T::default()` — so the owner keeps its derived `Debug`/`Clone`/
/// `PartialEq`, a retransmit copy stays as cheap as the data it carries,
/// and nothing about the cache can reach an encoded byte or a test's
/// `Debug` comparison.
struct Transient<T>(T);

impl<T: Default> Clone for Transient<T> {
    fn clone(&self) -> Self {
        Transient(T::default())
    }
}

impl<T> PartialEq for Transient<T> {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

impl<T> fmt::Debug for Transient<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("_")
    }
}

/// Chained [`HistoryDigest`]s over the carried window: `base` is the digest
/// of `H` *before* `carried[0]`, `after[i]` the digest after `carried[i]`.
struct PrefixMemo {
    base: HistoryDigest,
    after: Vec<HistoryDigest>,
}

/// The circulating token and its bounded payload.
#[derive(Debug, Clone, PartialEq)]
pub struct TokenFrame {
    /// Token generation; bumped on regeneration after a loss (Section 5).
    /// Frames from superseded generations are discarded on receipt.
    pub generation: u32,
    /// Per-generation transfer counter: bumped on every token-bearing send.
    /// Receivers keep a `(generation, transfer_seq)` watermark so duplicated
    /// or retransmitted frames are suppressed idempotently.
    transfer_seq: u64,
    /// Global possession counter: incremented every time a node takes the
    /// token. Doubles as the visit-stamp source for rule 6's comparison.
    visit_seq: u64,
    /// Completed rotations (increments when the rotating token re-enters
    /// node 0).
    round: u64,
    /// Next position of the global history `H` to be assigned (1-based).
    next_seq: u64,
    /// Entries above both floors (see `gc`).
    carried: Vec<LogEntry>,
    /// Digest chain over `carried`, known only to a frame that has been
    /// extended in memory since it was minted: present from `new`, absent
    /// after `decode`, `clone` and a regeneration that inherits history.
    memo: Transient<Option<PrefixMemo>>,
    /// Recently satisfied requests, newest at the back.
    satisfied: VecDeque<RequestId>,
    satisfied_cap: usize,
    /// Occurrence counts of `satisfied`, built once the window outgrows
    /// [`LINEAR_SCAN_MAX`]. Only probed, never iterated, so the map's random
    /// hash state cannot reach any output.
    satisfied_index: Transient<Option<HashMap<RequestId, u32>>>,
    /// Consecutive full rounds in which nobody used the token.
    idle_rounds: u32,
    demand_this_round: bool,
    /// Nodes believed crashed: rotation skips them (Section 5 / future-work
    /// membership sketch). Populated at regeneration time from inquiry
    /// non-repliers; drained by `readmit` when a node announces recovery.
    excluded: Vec<NodeId>,
    /// `acks[i]`: the length of `H` node `i` had applied when it last took
    /// this frame; 0 for a node that has not taken it yet. Empty until the
    /// first [`TokenFrame::ack`], then one slot per node. Never longer than
    /// `satisfied_cap`, never at or above `next_seq`.
    acks: Vec<u64>,
}

impl TokenFrame {
    /// Mints a fresh token (generation 0, empty history).
    ///
    /// `satisfied_cap` bounds the satisfied window (the protocols mint with
    /// `max(2 * N, 8)`).
    pub fn new(satisfied_cap: usize) -> Self {
        TokenFrame {
            generation: 0,
            transfer_seq: 0,
            visit_seq: 0,
            round: 0,
            next_seq: 1,
            carried: Vec::new(),
            memo: Transient(Some(PrefixMemo {
                base: HistoryDigest::EMPTY,
                after: Vec::new(),
            })),
            satisfied: VecDeque::new(),
            satisfied_cap: satisfied_cap.max(1),
            satisfied_index: Transient(None),
            idle_rounds: 0,
            demand_this_round: false,
            excluded: Vec::new(),
            acks: Vec::new(),
        }
    }

    /// Mints a replacement token after a loss: it inherits the best-known
    /// history length, continues with `generation + 1`, and excludes the
    /// nodes believed dead so rotation routes around them. It starts with
    /// no acks: nothing it carries is known to be applied anywhere.
    pub fn regenerate(
        generation: u32,
        known_seq: u64,
        satisfied_cap: usize,
        excluded: Vec<NodeId>,
    ) -> Self {
        let mut t = TokenFrame::new(satisfied_cap);
        t.generation = generation;
        t.next_seq = known_seq + 1;
        if known_seq > 0 {
            // The inherited prefix's digest is not known here.
            t.memo.0 = None;
        }
        t.excluded = excluded;
        t
    }

    /// Marks `node` as crashed: rotation will skip it.
    pub fn exclude(&mut self, node: NodeId) {
        if !self.excluded.contains(&node) {
            self.excluded.push(node);
        }
    }

    /// Readmits a recovered node into the rotation.
    pub fn readmit(&mut self, node: NodeId) {
        self.excluded.retain(|n| *n != node);
    }

    /// Whether `node` is currently excluded from the rotation.
    pub fn is_excluded(&self, node: NodeId) -> bool {
        self.excluded.contains(&node)
    }

    /// The per-generation transfer counter (see [`TokenFrame::bump_transfer`]).
    pub fn transfer_seq(&self) -> u64 {
        self.transfer_seq
    }

    /// Advances the transfer counter; call exactly once before every
    /// token-bearing send so each copy in flight is uniquely identified by
    /// `(generation, transfer_seq)`.
    pub fn bump_transfer(&mut self) {
        self.transfer_seq += 1;
    }

    /// The nodes currently excluded from the rotation.
    pub fn excluded(&self) -> &[NodeId] {
        &self.excluded
    }

    /// The next rotation destination from `me`: the first successor not
    /// excluded as crashed. Falls back to `me` if everyone else is excluded.
    pub fn next_live_successor(&self, topology: atp_net::Topology, me: NodeId) -> NodeId {
        let mut next = topology.successor(me);
        for _ in 0..topology.len() {
            if !self.is_excluded(next) {
                return next;
            }
            next = topology.successor(next);
        }
        me
    }

    /// Records a possession by `node`; returns the node's new visit stamp.
    ///
    /// `rotational` is true for ring-rotation arrivals (rule 3), false for
    /// out-of-band grants (rules 7/8); only rotational arrivals at node 0
    /// advance the round counter.
    pub fn on_possess(&mut self, node: NodeId, rotational: bool) -> VisitStamp {
        self.visit_seq += 1;
        if rotational && node.index() == 0 && self.visit_seq > 1 {
            self.round += 1;
            if self.demand_this_round {
                self.idle_rounds = 0;
            } else {
                self.idle_rounds = self.idle_rounds.saturating_add(1);
            }
            self.demand_this_round = false;
            self.gc();
        }
        VisitStamp(self.visit_seq)
    }

    /// Appends one datum to the global history on behalf of `origin`.
    pub fn append(&mut self, origin: NodeId, payload: u64) -> LogEntry {
        let entry = LogEntry {
            seq: self.next_seq,
            origin,
            payload,
            round: self.round,
        };
        self.next_seq += 1;
        if let Some(memo) = &mut self.memo.0 {
            debug_assert_eq!(memo.after.len(), self.carried.len());
            let head = memo.after.last().copied().unwrap_or(memo.base);
            memo.after.push(head.chain(&entry));
        }
        self.carried.push(entry);
        self.demand_this_round = true;
        self.idle_rounds = 0;
        entry
    }

    /// Where a node whose applied prefix is `(applied_seq, digest)` stands
    /// after this frame's carried window, if the frame can vouch for it.
    ///
    /// `Some((seq, digest))` of the window's head only when the frame knows
    /// its own digest chain, the window directly extends (or overlaps)
    /// `applied_seq`, **and** `digest` equals the chain's value at
    /// `applied_seq` — the prefix property checked online. A node that has
    /// diverged, fallen behind the window or met a frame off the wire gets
    /// `None` and applies the window entry by entry.
    pub(crate) fn verified_head(
        &self,
        applied_seq: u64,
        digest: HistoryDigest,
    ) -> Option<(u64, HistoryDigest)> {
        let memo = self.memo.0.as_ref()?;
        let first = self.carried.first()?.seq;
        let head = *memo.after.last()?;
        debug_assert_eq!(memo.after.len(), self.carried.len());
        debug_assert_eq!(
            first + self.carried.len() as u64,
            self.next_seq,
            "a frame with a memo carries a contiguous run up to its head"
        );
        let covered = (applied_seq + 1).checked_sub(first)? as usize;
        let known = match covered {
            0 => memo.base,
            n => *memo.after.get(n - 1)?,
        };
        (known == digest).then_some((self.next_seq - 1, head))
    }

    /// Records that `req` has been granted (for rotation trap cleanup).
    pub fn mark_satisfied(&mut self, req: RequestId) {
        while self.satisfied.len() >= self.satisfied_cap {
            let evicted = self.satisfied.pop_front().expect("len >= cap >= 1");
            if let Some(index) = &mut self.satisfied_index.0 {
                if let Entry::Occupied(mut count) = index.entry(evicted) {
                    *count.get_mut() -= 1;
                    if *count.get() == 0 {
                        count.remove();
                    }
                }
            }
        }
        self.satisfied.push_back(req);
        match &mut self.satisfied_index.0 {
            Some(index) => *index.entry(req).or_insert(0) += 1,
            None if self.satisfied.len() > LINEAR_SCAN_MAX => {
                let mut index = HashMap::new();
                for r in &self.satisfied {
                    *index.entry(*r).or_insert(0) += 1;
                }
                self.satisfied_index.0 = Some(index);
            }
            None => {}
        }
        self.demand_this_round = true;
    }

    /// Whether `req` appears in the satisfied window.
    pub fn is_satisfied(&self, req: &RequestId) -> bool {
        match &self.satisfied_index.0 {
            Some(index) => index.contains_key(req),
            None => self.satisfied.contains(req),
        }
    }

    /// Records that `node`, one of `n`, has applied `H` up to
    /// `applied_seq` (clamped to the committed length), and on every `n`th
    /// possession drops the carried entries every node has applied.
    ///
    /// The floor is read only at possessions whose visit count is a
    /// multiple of `n`: O(1) per possession amortized, and the window stays
    /// within about `2n` entries of the head when every node takes the
    /// token in turn. A cut is safe while a node's applied prefix never
    /// shrinks, which holds as long as it keeps its state. A cold restart
    /// breaks that: the node comes back at 0, meets a gap at its next
    /// possession and acks 0, which stops the floor until a state transfer
    /// has brought it back up (DESIGN §5, decision 2's kept limitation).
    ///
    /// A frame whose satisfied window's capacity is below `n` records
    /// nothing, since its acks would not decode; the protocols mint the
    /// window at `max(2 * n, 8)`, so only a frame from outside can be one.
    pub fn ack(&mut self, node: NodeId, n: usize, applied_seq: u64) {
        if n > self.satisfied_cap {
            return;
        }
        self.acks.resize(n, 0);
        self.acks[node.index()] = applied_seq.min(self.next_seq.saturating_sub(1));
        if self.visit_seq.is_multiple_of(n as u64) {
            self.gc();
        }
    }

    /// Entries the token still carries: those above the round floor and
    /// the ack floor.
    pub fn carried(&self) -> &[LogEntry] {
        &self.carried
    }

    /// Number of entries committed to `H` so far.
    pub fn committed(&self) -> u64 {
        self.next_seq - 1
    }

    /// Completed rotation count.
    pub fn round(&self) -> u64 {
        self.round
    }

    /// Global possession counter value.
    pub fn visits(&self) -> u64 {
        self.visit_seq
    }

    /// Consecutive demand-free rounds (drives adaptive token speed).
    pub fn idle_rounds(&self) -> u32 {
        self.idle_rounds
    }

    /// Drops the carried entries below the higher of two floors: the
    /// round floor (entries older than the previous round, which a
    /// rotation has shown to everyone) and the ack floor (entries every
    /// node has applied; none while any node has not acked).
    fn gc(&mut self) {
        let keep_round = self.round.saturating_sub(1);
        let acked = self.acks.iter().copied().min().unwrap_or(0);
        // Entries are appended in round and seq order, so each floor's
        // victims are a prefix: locate both by bisection and drop the
        // longer in one move instead of predicate-scanning the window.
        let by_round = self.carried.partition_point(|e| e.round < keep_round);
        let by_ack = self.carried.partition_point(|e| e.seq <= acked);
        self.drop_oldest(by_round.max(by_ack));
    }

    /// Drops the `cut` oldest carried entries; the memo's base moves up to
    /// the digest after the last one dropped.
    fn drop_oldest(&mut self, cut: usize) {
        if cut == 0 {
            return;
        }
        self.carried.drain(..cut);
        if let Some(memo) = &mut self.memo.0 {
            memo.base = memo.after[cut - 1];
            memo.after.drain(..cut);
        }
    }

    /// Serializes the frame into `s` (little-endian, length-prefixed
    /// collections). The inverse of [`TokenFrame::decode`].
    pub fn encode(&self, s: &mut impl Sink) {
        self.generation.put(s);
        self.transfer_seq.put(s);
        self.visit_seq.put(s);
        self.round.put(s);
        self.next_seq.put(s);
        self.idle_rounds.put(s);
        (self.demand_this_round as u8).put(s);
        (self.satisfied_cap as u32).put(s);
        s.seq(self.carried.iter());
        s.seq(self.satisfied.iter());
        s.seq(self.excluded.iter());
        s.seq(self.acks.iter());
    }

    /// Exact byte length [`TokenFrame::encode`] would produce: the encoder
    /// run into the counter, which sizes each collection without walking
    /// it (observability code sizes frames per send).
    pub fn encoded_len(&self) -> usize {
        measure(|s| self.encode(s))
    }

    /// Deserializes a frame previously written by [`TokenFrame::encode`].
    /// The decoded frame has neither transient cache.
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`] if `buf` ends early, and
    /// [`CodecError::Malformed`] for a frame `encode` cannot have written:
    /// a carried run whose `seq`s are not strictly increasing (history
    /// application bisects it), a satisfied window longer than its own cap
    /// (which would never evict again), more acks than that cap (one per
    /// node, and the cap is at least the node count), or an ack at or
    /// beyond `next_seq` (a prefix of `H` longer than `H`, which would let
    /// the ack floor cut entries nobody has).
    pub fn decode(buf: &mut impl Buf) -> Result<Self, CodecError> {
        // Fields in wire order: a struct expression evaluates in the order
        // it is written.
        let frame = TokenFrame {
            generation: get(buf)?,
            transfer_seq: get(buf)?,
            visit_seq: get(buf)?,
            round: get(buf)?,
            next_seq: get(buf)?,
            idle_rounds: get(buf)?,
            demand_this_round: get::<u8>(buf)? != 0,
            satisfied_cap: (get::<u32>(buf)? as usize).max(1),
            carried: get_seq(buf)?,
            memo: Transient(None),
            satisfied: get_seq(buf)?.into(),
            satisfied_index: Transient(None),
            excluded: get_seq(buf)?,
            acks: get_seq(buf)?,
        };
        if frame.carried.windows(2).any(|w| w[0].seq >= w[1].seq)
            || frame.satisfied.len() > frame.satisfied_cap
            || frame.acks.len() > frame.satisfied_cap
            || frame.acks.iter().any(|&ack| ack >= frame.next_seq)
        {
            return Err(CodecError::Malformed);
        }
        Ok(frame)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atp_util::check::{Check, Gen};
    use atp_util::rng::Rng;

    fn over_the_wire(t: &TokenFrame) -> TokenFrame {
        let mut bytes = Vec::new();
        t.encode(&mut bytes);
        assert_eq!(bytes.len(), t.encoded_len());
        TokenFrame::decode(&mut &bytes[..]).expect("own encoding decodes")
    }

    fn has_memo(t: &TokenFrame) -> bool {
        t.memo.0.is_some()
    }

    #[test]
    fn caches_are_not_part_of_the_frames_value() {
        let mut t = TokenFrame::new(2 * LINEAR_SCAN_MAX);
        for i in 0..2 * LINEAR_SCAN_MAX as u64 {
            t.append(NodeId::new(1), i);
            t.mark_satisfied(RequestId::new(NodeId::new(1), i));
        }
        assert!(has_memo(&t) && t.satisfied_index.0.is_some());
        let mut bytes = Vec::new();
        t.encode(&mut bytes);
        for copy in [over_the_wire(&t), t.clone()] {
            assert!(!has_memo(&copy) && copy.satisfied_index.0.is_none());
            assert_eq!(copy, t);
            assert_eq!(format!("{copy:?}"), format!("{t:?}"));
            let mut copy_bytes = Vec::new();
            copy.encode(&mut copy_bytes);
            assert_eq!(copy_bytes, bytes);
            assert!(copy.is_satisfied(&RequestId::new(NodeId::new(1), 3)));
        }
    }

    #[test]
    fn memo_follows_the_window_and_dies_with_inherited_history() {
        let mut t = TokenFrame::new(8);
        let chain: Vec<HistoryDigest> = (0..6)
            .scan(HistoryDigest::EMPTY, |d, i| {
                *d = d.chain(&t.append(NodeId::new(0), i));
                Some(*d)
            })
            .collect();
        // A node at any position inside the window is vouched for exactly
        // when it presents the chain's digest at that position.
        let head = Some((6, chain[5]));
        assert_eq!(t.verified_head(0, HistoryDigest::EMPTY), head);
        assert_eq!(t.verified_head(4, chain[3]), head);
        assert_eq!(t.verified_head(4, chain[2]), None);
        // The only node has applied four entries: the ack floor cuts them.
        t.ack(NodeId::new(0), 1, 4);
        assert_eq!(t.carried().len(), 2);
        assert_eq!(t.verified_head(4, chain[3]), head);
        assert_eq!(t.verified_head(5, chain[4]), head);
        assert_eq!(t.verified_head(3, chain[2]), None, "behind: a gap");
        assert_eq!(t.verified_head(7, chain[5]), None, "ahead of the window");
        // Regeneration from nothing knows the empty digest; regeneration
        // that inherits a history length does not know that history.
        assert!(has_memo(&TokenFrame::regenerate(1, 0, 8, vec![])));
        let mut inherited = TokenFrame::regenerate(1, t.committed(), 8, vec![]);
        inherited.append(NodeId::new(0), 9);
        assert!(!has_memo(&inherited));
        assert_eq!(inherited.verified_head(6, chain[5]), None);
    }

    #[derive(Debug, Clone)]
    enum WindowOp {
        Mark(RequestId),
        Ask(RequestId),
        Wire,
        Clone,
    }

    /// The indexed window answers exactly as `VecDeque::contains` over a
    /// FIFO of the same capacity: duplicates are counted, eviction removes
    /// one occurrence, and losing the index (wire, clone) changes nothing.
    #[test]
    fn indexed_satisfied_window_equals_deque_contains() {
        fn arb_req(g: &mut Gen) -> RequestId {
            // A small id space forces duplicates inside one window.
            RequestId::new(NodeId::new(g.gen_range(0u32..4)), g.gen_range(0u64..60))
        }
        Check::new("indexed_satisfied_window_equals_deque_contains").run(
            |g| {
                let cap = *g.pick(&[1usize, 7, LINEAR_SCAN_MAX, LINEAR_SCAN_MAX + 1, 150]);
                let ops = g.vec(0..500, |g| match g.gen_range(0u32..20) {
                    0 => WindowOp::Wire,
                    1 => WindowOp::Clone,
                    2..=7 => WindowOp::Ask(arb_req(g)),
                    _ => WindowOp::Mark(arb_req(g)),
                });
                (cap, ops)
            },
            |(cap, ops)| {
                let mut t = TokenFrame::new(*cap);
                let mut model: VecDeque<RequestId> = VecDeque::new();
                for op in ops {
                    match op {
                        WindowOp::Mark(r) => {
                            if model.len() == *cap {
                                model.pop_front();
                            }
                            model.push_back(*r);
                            t.mark_satisfied(*r);
                        }
                        WindowOp::Ask(r) => assert_eq!(t.is_satisfied(r), model.contains(r)),
                        WindowOp::Wire => t = over_the_wire(&t),
                        WindowOp::Clone => t = t.clone(),
                    }
                    assert_eq!(t.satisfied, model);
                    for r in &model {
                        assert!(t.is_satisfied(r));
                    }
                }
            },
        );
    }

    #[test]
    fn append_assigns_contiguous_seqs() {
        let mut t = TokenFrame::new(8);
        let a = t.append(NodeId::new(1), 10);
        let b = t.append(NodeId::new(2), 20);
        assert_eq!(a.seq, 1);
        assert_eq!(b.seq, 2);
        assert_eq!(t.committed(), 2);
        assert_eq!(t.carried().len(), 2);
    }

    #[test]
    fn possession_stamps_are_monotone() {
        let mut t = TokenFrame::new(8);
        let s1 = t.on_possess(NodeId::new(0), true);
        let s2 = t.on_possess(NodeId::new(1), true);
        assert!(s2.is_fresher_than(s1));
    }

    #[test]
    fn rounds_advance_only_on_rotational_reentry_at_origin() {
        let mut t = TokenFrame::new(8);
        t.on_possess(NodeId::new(0), true); // initial possession, no round yet
        t.on_possess(NodeId::new(1), true);
        assert_eq!(t.round(), 0);
        t.on_possess(NodeId::new(0), true); // completed a lap
        assert_eq!(t.round(), 1);
        t.on_possess(NodeId::new(0), false); // out-of-band possession: no lap
        assert_eq!(t.round(), 1);
    }

    #[test]
    fn idle_rounds_count_and_reset_on_demand() {
        let mut t = TokenFrame::new(8);
        t.on_possess(NodeId::new(0), true);
        t.on_possess(NodeId::new(0), true);
        t.on_possess(NodeId::new(0), true);
        assert_eq!(t.idle_rounds(), 2);
        t.append(NodeId::new(0), 1);
        assert_eq!(t.idle_rounds(), 0);
        t.on_possess(NodeId::new(0), true);
        // demand flag was consumed by the lap: round was busy.
        assert_eq!(t.idle_rounds(), 0);
        t.on_possess(NodeId::new(0), true);
        assert_eq!(t.idle_rounds(), 1);
    }

    #[test]
    fn gc_drops_entries_two_rounds_old() {
        let mut t = TokenFrame::new(8);
        t.on_possess(NodeId::new(0), true);
        t.append(NodeId::new(0), 1); // round 0
        t.on_possess(NodeId::new(0), true); // round 1
        t.append(NodeId::new(0), 2); // round 1
        assert_eq!(t.carried().len(), 2);
        t.on_possess(NodeId::new(0), true); // round 2: round-0 entry dropped
        assert_eq!(t.carried().len(), 1);
        assert_eq!(t.carried()[0].seq, 2);
        assert_eq!(t.committed(), 2);
    }

    #[test]
    fn ack_floor_is_the_least_applied_prefix_read_every_nth_possession() {
        let mut t = TokenFrame::new(8);
        for payload in 0..6 {
            t.append(NodeId::new(0), payload);
        }
        let first = |t: &TokenFrame| t.carried().first().map(|e| e.seq);
        let possess_and_ack = |t: &mut TokenFrame, node: u32, applied: u64| {
            t.on_possess(NodeId::new(node), false);
            t.ack(NodeId::new(node), 3, applied);
        };
        possess_and_ack(&mut t, 0, 6);
        possess_and_ack(&mut t, 2, 4);
        // Third possession: the floor is read, but node 1 never held the
        // token and counts as 0.
        possess_and_ack(&mut t, 0, 6);
        assert_eq!(first(&t), Some(1));
        possess_and_ack(&mut t, 1, 5);
        assert_eq!(first(&t), Some(1), "read only every third possession");
        possess_and_ack(&mut t, 2, 6);
        // Off the wire, a frame is cut exactly as in memory.
        let mut wired = over_the_wire(&t);
        possess_and_ack(&mut t, 0, 6);
        possess_and_ack(&mut wired, 0, 6);
        assert_eq!(wired, t);
        assert_eq!(first(&t), Some(6), "entries 1..=5 applied everywhere");
        // An ack beyond the committed length is clamped, so it encodes;
        // with every node at the head the token carries nothing.
        t.ack(NodeId::new(1), 3, 100);
        assert_eq!(over_the_wire(&t), t);
        assert!(t.carried().is_empty());
        assert_eq!(t.encoded_len(), 61 + 8 * 3);
        // A regenerated token knows no acks.
        let regen = TokenFrame::regenerate(1, t.committed(), 8, vec![]);
        assert_eq!(regen.encoded_len(), 61);
        // Nor does a frame whose satisfied cap is below the node count.
        let mut narrow = TokenFrame::new(2);
        narrow.append(NodeId::new(0), 1);
        narrow.ack(NodeId::new(2), 3, 1);
        assert_eq!((narrow.encoded_len(), narrow.carried().len()), (61 + 28, 1));
    }

    #[test]
    fn transfer_seq_starts_at_zero_and_bumps() {
        let mut t = TokenFrame::new(8);
        assert_eq!(t.transfer_seq(), 0);
        t.bump_transfer();
        t.bump_transfer();
        assert_eq!(t.transfer_seq(), 2);
        // A regenerated frame starts a fresh transfer sequence.
        let t2 = TokenFrame::regenerate(3, 0, 8, vec![]);
        assert_eq!(t2.transfer_seq(), 0);
    }

    #[test]
    fn satisfied_window_is_bounded_fifo() {
        let mut t = TokenFrame::new(2);
        let r = |i| RequestId::new(NodeId::new(i), 1);
        t.mark_satisfied(r(0));
        t.mark_satisfied(r(1));
        t.mark_satisfied(r(2));
        assert!(!t.is_satisfied(&r(0)));
        assert!(t.is_satisfied(&r(1)));
        assert!(t.is_satisfied(&r(2)));
    }

    #[test]
    fn regeneration_preserves_history_length() {
        let mut t = TokenFrame::new(8);
        t.append(NodeId::new(0), 5);
        t.append(NodeId::new(0), 6);
        let t2 = TokenFrame::regenerate(3, t.committed(), 8, vec![NodeId::new(5)]);
        assert_eq!(t2.generation, 3);
        assert_eq!(t2.committed(), 2);
        assert!(t2.carried().is_empty());
        assert!(t2.is_excluded(NodeId::new(5)));
        let mut t2 = t2;
        t2.exclude(NodeId::new(5));
        assert_eq!(t2.excluded().len(), 1);
        t2.readmit(NodeId::new(5));
        assert!(!t2.is_excluded(NodeId::new(5)));
    }
}
