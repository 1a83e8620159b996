//! Per-node ordered-delivery state: the local prefix history `P|(x, H_x)`.
//!
//! System S1 introduced per-node prefix copies of the global history; the
//! **prefix property** (Definition 2) demands every node's applied history is
//! a prefix of `H`. This module maintains that local prefix: entries are
//! applied strictly in `seq` order with no gaps, so the applied sequence is a
//! prefix of `H` *by construction*; a chained digest lets tests compare two
//! nodes' prefixes in O(1) without retaining the entries.

use crate::event::{EventBuf, TokenEvent};
use crate::token::TokenFrame;
use crate::types::LogEntry;
use atp_net::SimTime;

/// Chained digest over a history prefix (multiply-fold over entry words).
///
/// Two nodes whose `(applied_seq, digest)` pairs agree have byte-identical
/// prefixes with overwhelming probability; a node with smaller `applied_seq`
/// can be checked against another's digest history when full logs are kept.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct HistoryDigest(pub u64);

impl HistoryDigest {
    /// Digest of the empty history.
    pub const EMPTY: HistoryDigest = HistoryDigest(0xcbf2_9ce4_8422_2325);

    /// Extends the digest with one entry.
    pub fn chain(self, entry: &LogEntry) -> HistoryDigest {
        // One multiply-fold round per entry word instead of byte-serial
        // FNV over all 24 bytes: the dependency chain shrinks ~8x, which
        // matters because every possession re-chains the carried window
        // (this showed up as the single hottest instruction stream in
        // drive-loop profiles). Digests are compared only within a run,
        // so the value change is invisible to checked-in artifacts.
        const K: u64 = 0x9e37_79b9_7f4a_7c15;
        let mut h = self.0;
        for word in [entry.seq, entry.origin.raw() as u64, entry.payload] {
            h = (h ^ word).wrapping_mul(K);
            h ^= h >> 32;
        }
        HistoryDigest(h)
    }
}

/// The local ordered log of one node.
#[derive(Debug, Clone)]
pub struct OrderState {
    applied_seq: u64,
    digest: HistoryDigest,
    /// Digest after each applied entry (index `i` = digest of prefix of
    /// length `i+1`); kept only when `record_log` is on.
    digests: Vec<HistoryDigest>,
    log: Vec<LogEntry>,
    record_log: bool,
    /// Entries that arrived with `seq > applied_seq + 1` and had to be
    /// skipped (the node was down long enough to miss the carried window).
    gap_events: u64,
    /// Test-only seeded fault: use an off-by-one duplicate-skip bound in
    /// [`OrderState::apply`]. See [`OrderState::enable_bad_prefix_skip`].
    bad_skip: bool,
    /// [`HistoryDigest::chain`] invocations made on this node's behalf: the
    /// work history application costs, as a count rather than a clock.
    chain_calls: u64,
}

impl OrderState {
    /// Creates an empty local history.
    pub fn new(record_log: bool) -> Self {
        OrderState {
            applied_seq: 0,
            digest: HistoryDigest::EMPTY,
            digests: Vec::new(),
            log: Vec::new(),
            record_log,
            gap_events: 0,
            bad_skip: false,
            chain_calls: 0,
        }
    }

    /// Rebuilds a local history from checkpointed durable state.
    ///
    /// With `record_log` on and a non-empty `log`, the digest chain is
    /// recomputed entry by entry — the checkpoint's `digest` is then
    /// required to match, so a corrupted checkpoint cannot silently fork
    /// the prefix property. With logs off (or an empty log), the
    /// `(applied_seq, digest)` pair is restored verbatim and per-length
    /// digests stay unavailable, exactly as after a live run without logs.
    pub fn restore(
        record_log: bool,
        applied_seq: u64,
        digest: HistoryDigest,
        log: Vec<LogEntry>,
    ) -> Self {
        let mut state = OrderState::new(record_log);
        if record_log && !log.is_empty() {
            let mut chained = HistoryDigest::EMPTY;
            for entry in &log {
                chained = chained.chain(entry);
                state.digests.push(chained);
            }
            state.chain_calls = log.len() as u64;
            assert_eq!(chained, digest, "checkpoint digest does not match its log");
            assert_eq!(
                log.last().map(|e| e.seq),
                Some(applied_seq),
                "checkpoint applied_seq does not match its log"
            );
            state.log = log;
        }
        state.applied_seq = applied_seq;
        state.digest = digest;
        state
    }

    /// **Test-only seeded mutation** — do not call outside DST harnesses.
    ///
    /// Makes [`OrderState::apply`] skip only entries *strictly below*
    /// `applied_seq` instead of at-or-below, so a redelivered window whose
    /// last entry equals `applied_seq` re-chains that entry into the digest.
    /// This is exactly the off-by-one a careless duplicate check would
    /// introduce; it silently corrupts the digest (violating the prefix
    /// property) without tripping any local assertion, making it the
    /// calibration target the DST explorer must find and minimize.
    #[doc(hidden)]
    pub fn enable_bad_prefix_skip(&mut self) {
        self.bad_skip = true;
    }

    /// Applies the carried window of a token this node just took.
    ///
    /// Same outcome as [`OrderState::apply`] on `token.carried()`. When no
    /// per-entry output is owed (logs off, seeded fault not armed) and the
    /// frame vouches for this node's prefix — its digest chain holds this
    /// node's exact `(applied_seq, digest)`, see
    /// [`TokenFrame::verified_head`] — the node adopts the window's head
    /// without re-chaining what every node before it already chained. The
    /// comparison is the prefix property (Definition 2) checked at every
    /// possession: a node whose digest disagrees is never healed by the
    /// frame, it keeps chaining from the digest it has.
    pub(crate) fn apply_carried(&mut self, token: &TokenFrame, at: SimTime, events: &mut EventBuf) {
        if !self.record_log && !self.bad_skip {
            if let Some((seq, digest)) = token.verified_head(self.applied_seq, self.digest) {
                self.applied_seq = seq;
                self.digest = digest;
                return;
            }
        }
        self.apply(token.carried(), at, events);
    }

    /// Applies every entry in `entries` that directly extends the local
    /// prefix, emitting [`TokenEvent::Delivered`] into `events`.
    ///
    /// `entries` must be sorted by `seq` (the token keeps them so). Entries
    /// at or below `applied_seq` are duplicates and skipped silently; an
    /// entry beyond `applied_seq + 1` indicates the node missed the carried
    /// window (crash recovery) and increments the gap counter instead of
    /// violating the prefix invariant.
    pub(crate) fn apply(&mut self, entries: &[LogEntry], at: SimTime, events: &mut EventBuf) {
        // Fast path: the whole carried window is already applied — the
        // common case when a circulating token revisits a caught-up node.
        // (Skipped under the seeded fault, which re-admits the boundary
        // entry on purpose.)
        if !self.bad_skip && entries.last().is_none_or(|e| e.seq <= self.applied_seq) {
            return;
        }
        // `entries` is sorted by seq: skip the already-applied prefix in
        // O(log n) instead of scanning it (a lazy token carries all of H
        // until every node has acked a prefix, so a linear skip would make
        // possessions quadratic there).
        let start = if self.bad_skip {
            // Seeded fault: strictly-below bound re-admits the entry at
            // exactly `applied_seq`, double-chaining it into the digest.
            entries.partition_point(|e| e.seq < self.applied_seq)
        } else {
            entries.partition_point(|e| e.seq <= self.applied_seq)
        };
        for entry in &entries[start..] {
            debug_assert!(self.bad_skip || entry.seq > self.applied_seq);
            if entry.seq > self.applied_seq + 1 {
                self.gap_events += 1;
                continue;
            }
            self.applied_seq = entry.seq;
            self.digest = self.digest.chain(entry);
            self.chain_calls += 1;
            if self.record_log {
                self.log.push(*entry);
                self.digests.push(self.digest);
                events.push(TokenEvent::Delivered { entry: *entry, at });
            }
        }
    }

    /// Length of the applied prefix.
    pub fn applied_seq(&self) -> u64 {
        self.applied_seq
    }

    /// Digest of the applied prefix.
    pub fn digest(&self) -> HistoryDigest {
        self.digest
    }

    /// Digest of the prefix of length `len` (requires `record_log`).
    ///
    /// Returns `None` if `len` exceeds the applied prefix or logs are off
    /// (except `len == 0`, which is always the empty digest).
    pub fn digest_at(&self, len: u64) -> Option<HistoryDigest> {
        if len == 0 {
            return Some(HistoryDigest::EMPTY);
        }
        if len == self.applied_seq {
            return Some(self.digest);
        }
        self.digests.get(len as usize - 1).copied()
    }

    /// The applied entries (empty when `record_log` is off).
    pub fn log(&self) -> &[LogEntry] {
        &self.log
    }

    /// The applied entries from position `from_seq` on, capped at `max`.
    /// Empty when logs are off or `from_seq` is beyond the applied prefix.
    pub fn suffix_from(&self, from_seq: u64, max: usize) -> Vec<LogEntry> {
        if from_seq == 0 || from_seq > self.applied_seq || self.log.is_empty() {
            return Vec::new();
        }
        let start = (from_seq - 1) as usize;
        self.log
            .get(start..)
            .map(|s| s.iter().take(max).copied().collect())
            .unwrap_or_default()
    }

    /// Number of entries that could not be applied due to gaps.
    pub fn gap_events(&self) -> u64 {
        self.gap_events
    }

    /// Digest-chain steps this node has computed so far (see the field).
    pub fn chain_calls(&self) -> u64 {
        self.chain_calls
    }

    /// Returns `true` when `self`'s applied history is a prefix of
    /// `other`'s (both with `record_log` on, or equal lengths).
    pub fn is_prefix_of(&self, other: &OrderState) -> bool {
        if self.applied_seq > other.applied_seq {
            return false;
        }
        match other.digest_at(self.applied_seq) {
            Some(d) => d == self.digest,
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atp_net::NodeId;

    fn entry(seq: u64, payload: u64) -> LogEntry {
        LogEntry {
            seq,
            origin: NodeId::new(0),
            payload,
            round: 0,
        }
    }

    fn apply(state: &mut OrderState, entries: &[LogEntry]) -> usize {
        let mut events = EventBuf::default();
        state.apply(entries, SimTime::ZERO, &mut events);
        events.take().len()
    }

    #[test]
    fn applies_in_order_and_dedups() {
        let mut s = OrderState::new(true);
        let n = apply(&mut s, &[entry(1, 10), entry(2, 20)]);
        assert_eq!(n, 2);
        // Redelivery of the same window is idempotent.
        let n = apply(&mut s, &[entry(1, 10), entry(2, 20), entry(3, 30)]);
        assert_eq!(n, 1);
        assert_eq!(s.applied_seq(), 3);
        assert_eq!(s.log().len(), 3);
        assert_eq!(s.gap_events(), 0);
    }

    #[test]
    fn gaps_are_counted_not_applied() {
        let mut s = OrderState::new(true);
        let n = apply(&mut s, &[entry(5, 50)]);
        assert_eq!(n, 0);
        assert_eq!(s.applied_seq(), 0);
        assert_eq!(s.gap_events(), 1);
    }

    #[test]
    fn prefix_relation_via_digests() {
        let mut a = OrderState::new(true);
        let mut b = OrderState::new(true);
        let entries = [entry(1, 1), entry(2, 2), entry(3, 3)];
        apply(&mut a, &entries[..2]);
        apply(&mut b, &entries);
        assert!(a.is_prefix_of(&b));
        assert!(!b.is_prefix_of(&a));
        assert!(a.is_prefix_of(&a));
    }

    #[test]
    fn diverged_histories_are_not_prefixes() {
        let mut a = OrderState::new(true);
        let mut b = OrderState::new(true);
        apply(&mut a, &[entry(1, 1)]);
        apply(&mut b, &[entry(1, 999)]);
        assert!(!a.is_prefix_of(&b));
        assert!(!b.is_prefix_of(&a));
    }

    #[test]
    fn empty_history_is_prefix_of_everything() {
        let a = OrderState::new(true);
        let mut b = OrderState::new(true);
        apply(&mut b, &[entry(1, 1)]);
        assert!(a.is_prefix_of(&b));
    }

    #[test]
    fn record_log_off_keeps_counters_only() {
        let mut s = OrderState::new(false);
        // No Delivered events are emitted in counters-only mode.
        assert_eq!(apply(&mut s, &[entry(1, 1), entry(2, 2)]), 0);
        assert_eq!(s.applied_seq(), 2);
        assert!(s.log().is_empty());
        assert!(s.digest_at(1).is_none());
        assert_eq!(s.digest_at(2), Some(s.digest()));
        assert_eq!(s.digest_at(0), Some(HistoryDigest::EMPTY));
    }

    #[test]
    fn suffix_from_returns_requested_run() {
        let mut s = OrderState::new(true);
        apply(&mut s, &[entry(1, 10), entry(2, 20), entry(3, 30)]);
        let suffix = s.suffix_from(2, 10);
        assert_eq!(suffix.len(), 2);
        assert_eq!(suffix[0].seq, 2);
        assert_eq!(s.suffix_from(2, 1).len(), 1);
        assert!(s.suffix_from(4, 10).is_empty());
        assert!(s.suffix_from(0, 10).is_empty());
        let off = OrderState::new(false);
        assert!(off.suffix_from(1, 10).is_empty());
    }

    #[test]
    fn bad_prefix_skip_corrupts_digest_on_redelivery() {
        let mut good = OrderState::new(true);
        let mut bad = OrderState::new(true);
        bad.enable_bad_prefix_skip();
        let entries = [entry(1, 10), entry(2, 20)];
        apply(&mut good, &entries);
        apply(&mut bad, &entries);
        // First delivery: indistinguishable.
        assert_eq!(good.digest(), bad.digest());
        assert!(bad.is_prefix_of(&good));
        // Redelivered overlapping window: the faulty bound re-chains the
        // entry at `applied_seq`, silently diverging the digest.
        apply(&mut good, &entries);
        apply(&mut bad, &entries);
        assert_eq!(good.applied_seq(), bad.applied_seq());
        assert_ne!(good.digest(), bad.digest());
        assert!(!bad.is_prefix_of(&good));
    }

    /// One step of a token's life as the four protocols drive it.
    #[derive(Debug, Clone)]
    enum TokenOp {
        /// Node takes the token (rotational arrivals at node 0 run the GC)
        /// and applies its carried window.
        Possess {
            node: usize,
            rotational: bool,
        },
        /// Holder appends one entry and applies it, as at release — whatever
        /// its lag, so entries beyond `applied_seq + 1` (gaps) occur.
        Release {
            node: usize,
            payload: u64,
        },
        /// Node acks its applied prefix into the token, which drops what
        /// every node has acked on every `NODES`th possession.
        Ack {
            node: usize,
        },
        Regenerate,
        Wire,
        Clone,
    }

    /// Nodes a [`TokenOp`] sequence addresses.
    const TOKEN_OP_NODES: usize = 5;

    /// Every node twice: `.0` takes possessions through
    /// [`OrderState::apply_carried`], `.1` entry by entry. They must never
    /// be told apart — and the frame-vouched path must never chain more.
    /// Returns the digest-chain steps the frame saved and the entries the
    /// ack floor cut.
    fn fast_and_slow_paths_agree(ops: &[TokenOp]) -> (u64, usize) {
        const NODES: usize = TOKEN_OP_NODES;
        // The protocols mint the satisfied window at `max(2 * n, 8)`; a
        // frame narrower than the node count would record no ack.
        const CAP: usize = 2 * NODES;
        let mut token = TokenFrame::new(CAP);
        let mut nodes = vec![(OrderState::new(false), OrderState::new(false)); NODES];
        let mut events = EventBuf::default();
        let mut cut = 0;
        for op in ops {
            match *op {
                TokenOp::Possess { node, rotational } => {
                    token.on_possess(NodeId::new(node as u32), rotational);
                    let (fast, slow) = &mut nodes[node];
                    fast.apply_carried(&token, SimTime::ZERO, &mut events);
                    slow.apply(token.carried(), SimTime::ZERO, &mut events);
                }
                TokenOp::Release { node, payload } => {
                    let entry = token.append(NodeId::new(node as u32), payload);
                    let (fast, slow) = &mut nodes[node];
                    fast.apply(&[entry], SimTime::ZERO, &mut events);
                    slow.apply(&[entry], SimTime::ZERO, &mut events);
                }
                TokenOp::Ack { node } => {
                    let applied = nodes[node].0.applied_seq();
                    let before = token.carried().len();
                    token.ack(NodeId::new(node as u32), NODES, applied);
                    cut += before - token.carried().len();
                }
                TokenOp::Regenerate => {
                    token =
                        TokenFrame::regenerate(token.generation + 1, token.committed(), CAP, vec![])
                }
                TokenOp::Wire => {
                    let mut bytes = Vec::new();
                    token.encode(&mut bytes);
                    token = TokenFrame::decode(&mut &bytes[..]).expect("decodes");
                }
                TokenOp::Clone => token = token.clone(),
            }
            for (fast, slow) in &nodes {
                assert_eq!(
                    (fast.applied_seq(), fast.digest(), fast.gap_events()),
                    (slow.applied_seq(), slow.digest(), slow.gap_events()),
                );
                assert!(fast.chain_calls() <= slow.chain_calls());
            }
        }
        let saved = nodes.iter().map(|(f, s)| s.chain_calls() - f.chain_calls());
        (saved.sum(), cut)
    }

    /// The token as all four protocols drive it: rotational and lazy
    /// possessions mixed, acks at any time.
    #[test]
    fn memo_path_equals_entry_by_entry_path() {
        use atp_util::check::Check;
        use atp_util::rng::Rng;
        const NODES: usize = TOKEN_OP_NODES;
        let chains_saved = std::cell::Cell::new(0u64);
        Check::new("memo_path_equals_entry_by_entry_path").run(
            |g| {
                g.vec(0..200, |g| match g.gen_range(0u32..24) {
                    0 => TokenOp::Regenerate,
                    1 => TokenOp::Wire,
                    2 => TokenOp::Clone,
                    3 | 4 => TokenOp::Ack {
                        node: g.gen_range(0..NODES),
                    },
                    5..=12 => TokenOp::Release {
                        node: g.gen_range(0..NODES),
                        payload: g.gen_range(0u64..1000),
                    },
                    _ => TokenOp::Possess {
                        node: g.gen_range(0..NODES),
                        rotational: g.gen_bool(0.7),
                    },
                })
            },
            |ops| {
                let (saved, _) = fast_and_slow_paths_agree(ops);
                chains_saved.set(chains_saved.get() + saved);
            },
        );
        assert!(chains_saved.get() > 0, "the frame never vouched for anyone");
    }

    /// The lazy token (Search, Naimi) alone: it never rotates and acks at
    /// every possession's end, so the ack floor is its only GC. The floor
    /// moves only once all NODES have acked, and a node left behind for
    /// good holds it down, so regeneration (which strands every node
    /// behind the inherited length) stays rare.
    #[test]
    fn memo_path_equals_entry_by_entry_path_lazy() {
        use atp_util::check::Check;
        use atp_util::rng::Rng;
        const NODES: usize = TOKEN_OP_NODES;
        let chains_saved = std::cell::Cell::new(0u64);
        let acks_cut = std::cell::Cell::new(0usize);
        Check::new("memo_path_equals_entry_by_entry_path_lazy").run(
            |g| {
                g.vec(0..200, |g| match g.gen_range(0u32..64) {
                    0 => TokenOp::Regenerate,
                    1 | 2 => TokenOp::Wire,
                    3 | 4 => TokenOp::Clone,
                    5..=16 => TokenOp::Ack {
                        node: g.gen_range(0..NODES),
                    },
                    17..=32 => TokenOp::Release {
                        node: g.gen_range(0..NODES),
                        payload: g.gen_range(0u64..1000),
                    },
                    _ => TokenOp::Possess {
                        node: g.gen_range(0..NODES),
                        rotational: false,
                    },
                })
            },
            |ops| {
                let (saved, cut) = fast_and_slow_paths_agree(ops);
                chains_saved.set(chains_saved.get() + saved);
                acks_cut.set(acks_cut.get() + cut);
            },
        );
        assert!(chains_saved.get() > 0, "the frame never vouched for anyone");
        assert!(acks_cut.get() > 0, "the ack floor never cut the window");
    }

    /// A circulating frame that stays in memory: each possession costs the
    /// node no digest-chain step at all, however long the window.
    #[test]
    fn vouched_possession_chains_nothing() {
        let mut token = TokenFrame::new(4);
        let mut holder = OrderState::new(false);
        let mut visitor = OrderState::new(false);
        let mut events = EventBuf::default();
        for payload in 0..100 {
            let e = token.append(NodeId::new(0), payload);
            holder.apply(&[e], SimTime::ZERO, &mut events);
        }
        visitor.apply_carried(&token, SimTime::ZERO, &mut events);
        assert_eq!(visitor.applied_seq(), 100);
        assert_eq!(visitor.digest(), holder.digest());
        assert_eq!((holder.chain_calls(), visitor.chain_calls()), (100, 0));
        // With logs on every entry is owed a `Delivered` event: same
        // frame, entry-by-entry path.
        let mut logging = OrderState::new(true);
        logging.apply_carried(&token, SimTime::ZERO, &mut events);
        assert_eq!(logging.chain_calls(), 100);
        assert_eq!(logging.digest(), holder.digest());
    }

    /// The memo is a detector, not a repair: a node whose digest went wrong
    /// is refused by the frame, pays the entry-by-entry path, and stays
    /// visibly diverged — `is_prefix_of` is the predicate the DST prefix
    /// oracle evaluates pairwise — at every later possession.
    #[test]
    fn corrupted_digest_is_never_healed_by_the_memo() {
        let mut token = TokenFrame::new(4);
        let mut truth = OrderState::new(true);
        let mut healthy = OrderState::new(false);
        let mut bad = OrderState::new(false);
        let mut events = EventBuf::default();
        let mut lap = |token: &mut TokenFrame, states: &mut [&mut OrderState]| {
            for payload in 0..3 {
                token.append(NodeId::new(0), payload);
            }
            for s in states.iter_mut() {
                s.apply_carried(token, SimTime::ZERO, &mut events);
            }
        };
        lap(&mut token, &mut [&mut truth, &mut healthy, &mut bad]);
        assert_eq!((healthy.chain_calls(), bad.chain_calls()), (0, 0));
        assert!(bad.is_prefix_of(&truth));

        bad.digest = HistoryDigest(bad.digest.0 ^ 1);
        for laps in 1..=3 {
            lap(&mut token, &mut [&mut truth, &mut healthy, &mut bad]);
            assert_eq!(bad.applied_seq(), truth.applied_seq());
            assert_eq!(bad.chain_calls(), 3 * laps, "refused: chains it all itself");
            assert_eq!(healthy.chain_calls(), 0);
            assert_eq!(healthy.digest(), truth.digest());
            assert_ne!(bad.digest(), truth.digest());
            assert!(!bad.is_prefix_of(&truth) && !truth.is_prefix_of(&bad));
            assert!(!bad.is_prefix_of(&healthy) && !healthy.is_prefix_of(&bad));
        }
    }

    #[test]
    fn digest_chain_is_order_sensitive() {
        let d1 = HistoryDigest::EMPTY.chain(&entry(1, 1)).chain(&entry(2, 2));
        let d2 = HistoryDigest::EMPTY.chain(&entry(2, 2)).chain(&entry(1, 1));
        assert_ne!(d1, d2);
    }
}
