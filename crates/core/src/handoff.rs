//! Reliable token handoff over a hostile link layer.
//!
//! The paper assumes token-bearing messages are delivered reliably; the
//! link-fault models in `atp-net` deliberately break that assumption — token
//! frames can be lost, duplicated or delayed like any other message. This
//! module supplies the two per-node mechanisms the protocols share to cope:
//!
//! * an **ack/retransmit state machine** for token-bearing sends: when
//!   [`ProtocolConfig::token_acks`](crate::ProtocolConfig::token_acks) is on,
//!   every token send is tracked until a matching
//!   [`RegenMsg::TokenAck`](crate::RegenMsg::TokenAck) arrives, and is
//!   retransmitted on a deterministic exponential-backoff timer a bounded
//!   number of times;
//! * an **idempotent duplicate filter**: a `(generation, transfer_seq)`
//!   watermark that discards redelivered or retransmitted frames instead of
//!   forking possession.
//!
//! Both live in [`Handoff`], one instance embedded in each protocol node.

use atp_net::NodeId;

/// Low byte of the retransmit timer kind; the remaining bits encode the
/// attempt (bits 8..16) and transfer sequence (bits 16..64) so a stale timer
/// can be recognized and ignored.
pub const TIMER_RETRANSMIT_TAG: u64 = 5;

/// Ack timeout after the original send, in ticks (exceeds one round trip of
/// the unit-delay latency models); doubles per retry up to
/// [`ACK_BACKOFF_CAP_TICKS`].
const ACK_TIMEOUT_TICKS: u64 = 4;

/// Ceiling for the exponential retransmit backoff, in ticks.
const ACK_BACKOFF_CAP_TICKS: u64 = 64;

/// Retransmissions attempted before giving a frame up for lost (at which
/// point regeneration is the fallback).
const ACK_MAX_RETRIES: u32 = 6;

/// The deterministic exponential-backoff delay before retransmit `attempt`
/// (0 = the wait after the original send): 4, 8, 16, 32, then 64 ticks.
pub fn ack_backoff(attempt: u32) -> u64 {
    (ACK_TIMEOUT_TICKS << attempt.min(16)).min(ACK_BACKOFF_CAP_TICKS)
}

/// Encodes a retransmit timer kind for `(transfer_seq, attempt)`.
pub fn retransmit_timer_kind(transfer_seq: u64, attempt: u32) -> u64 {
    TIMER_RETRANSMIT_TAG | ((attempt as u64 & 0xff) << 8) | (transfer_seq << 16)
}

/// Decodes a timer kind produced by [`retransmit_timer_kind`]; returns
/// `(transfer_seq, attempt)`, or `None` if the kind is not a retransmit
/// timer.
pub fn decode_retransmit_timer(kind: u64) -> Option<(u64, u32)> {
    (kind & 0xff == TIMER_RETRANSMIT_TAG).then_some((kind >> 16, ((kind >> 8) & 0xff) as u32))
}

/// One unacknowledged token-bearing send awaiting its ack.
#[derive(Debug, Clone)]
pub struct PendingTransfer<M> {
    /// The receiver the frame was sent to.
    pub to: NodeId,
    /// The exact message to resend on timeout.
    pub msg: M,
    /// Generation of the frame inside `msg`.
    pub generation: u32,
    /// Transfer sequence of the frame inside `msg`.
    pub transfer_seq: u64,
    /// Retransmissions performed so far (0 = original send only).
    pub attempt: u32,
}

/// Per-node handoff state: the duplicate-suppression watermark, the single
/// in-flight unacked transfer, and the robustness counters.
///
/// A single pending slot suffices: a node regains possession (and thus sends
/// again) only after its previous send was received, so at most one transfer
/// of its own can be unacked at a time; a newer send simply supersedes the
/// older pending entry. The slot is boxed: only runs with acks on fill it,
/// and every node carries it.
#[derive(Debug, Default)]
pub struct Handoff<M> {
    pending: Option<Box<PendingTransfer<M>>>,
    /// Highest `(generation, transfer_seq)` accepted or sent.
    watermark: Option<(u32, u64)>,
    /// Token frames discarded as duplicates (watermark or double-possession).
    pub duplicates_discarded: u64,
    /// Token frames resent after an ack timeout.
    pub retransmits: u64,
}

impl<M> Handoff<M> {
    /// Fresh state: nothing pending, empty watermark.
    pub fn new() -> Self {
        Handoff {
            pending: None,
            watermark: None,
            duplicates_discarded: 0,
            retransmits: 0,
        }
    }

    /// Whether a frame stamped `(generation, transfer_seq)` is fresh. Fresh
    /// frames advance the watermark and return `true`; stale or duplicate
    /// frames bump [`Handoff::duplicates_discarded`] and return `false`.
    pub fn accept(&mut self, generation: u32, transfer_seq: u64) -> bool {
        let stamp = (generation, transfer_seq);
        if self.watermark.is_some_and(|w| stamp <= w) {
            self.duplicates_discarded += 1;
            return false;
        }
        self.watermark = Some(stamp);
        true
    }

    /// Records an outgoing transfer in the watermark so late duplicates of
    /// frames we already passed on cannot re-enter.
    pub fn observe_send(&mut self, generation: u32, transfer_seq: u64) {
        let stamp = (generation, transfer_seq);
        if self.watermark.is_none_or(|w| stamp > w) {
            self.watermark = Some(stamp);
        }
    }

    /// Counts a duplicate caught outside the watermark (double possession).
    pub fn count_duplicate(&mut self) {
        self.duplicates_discarded += 1;
    }

    /// Tracks an outgoing token-bearing send for ack/retransmit.
    pub fn track(&mut self, to: NodeId, msg: M, generation: u32, transfer_seq: u64) {
        self.pending = Some(Box::new(PendingTransfer {
            to,
            msg,
            generation,
            transfer_seq,
            attempt: 0,
        }));
    }

    /// Handles an incoming ack; clears the pending slot if it matches.
    pub fn acked(&mut self, generation: u32, transfer_seq: u64) {
        if self
            .pending
            .as_ref()
            .is_some_and(|p| p.generation == generation && p.transfer_seq == transfer_seq)
        {
            self.pending = None;
        }
    }

    /// Whether a retransmit timer `(transfer_seq, attempt)` matches the
    /// current pending transfer (stale timers from superseded sends do not).
    pub fn timer_due(&self, transfer_seq: u64, attempt: u32) -> bool {
        self.pending
            .as_ref()
            .is_some_and(|p| p.transfer_seq == transfer_seq && p.attempt == attempt)
    }

    /// Consumes one retransmit attempt: bumps the attempt counter and the
    /// retransmit stat, and returns `(to, msg, transfer_seq, new_attempt)`
    /// for the resend. Returns `None` (dropping the pending slot) once
    /// [`ACK_MAX_RETRIES`] attempts are exhausted — at that point
    /// regeneration is the fallback.
    pub fn next_attempt(&mut self) -> Option<(NodeId, M, u64, u32)>
    where
        M: Clone,
    {
        let p = self.pending.as_mut()?;
        if p.attempt >= ACK_MAX_RETRIES {
            self.pending = None;
            return None;
        }
        p.attempt += 1;
        self.retransmits += 1;
        Some((p.to, p.msg.clone(), p.transfer_seq, p.attempt))
    }

    /// The current duplicate-suppression watermark, if any frame was ever
    /// accepted or sent. Checkpointed so a restarted node cannot be fooled
    /// by replays of pre-crash transfers.
    pub fn watermark(&self) -> Option<(u32, u64)> {
        self.watermark
    }

    /// Restores a checkpointed watermark (only ever moves it forward).
    pub fn restore_watermark(&mut self, watermark: Option<(u32, u64)>) {
        if watermark > self.watermark {
            self.watermark = watermark;
        }
    }

    /// Drops any pending transfer (crash recovery: the frame's fate is
    /// unknowable and a stale retransmit could resurrect a superseded token).
    pub fn clear_pending(&mut self) {
        self.pending = None;
    }

    /// The in-flight unacked transfer, if any.
    pub fn pending(&self) -> Option<&PendingTransfer<M>> {
        self.pending.as_deref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn watermark_accepts_fresh_rejects_replayed() {
        let mut h: Handoff<u32> = Handoff::new();
        assert!(h.accept(0, 1));
        assert!(!h.accept(0, 1), "exact duplicate");
        assert!(!h.accept(0, 0), "older transfer");
        assert!(h.accept(0, 2));
        assert!(h.accept(1, 0), "newer generation always wins");
        assert!(!h.accept(0, 99), "older generation loses");
        assert_eq!(h.duplicates_discarded, 3);
    }

    #[test]
    fn observe_send_blocks_late_duplicates() {
        let mut h: Handoff<u32> = Handoff::new();
        assert!(h.accept(0, 3));
        h.observe_send(0, 4);
        assert!(!h.accept(0, 4), "duplicate of our own forwarded frame");
        assert!(h.accept(0, 5));
    }

    #[test]
    fn ack_clears_matching_pending_only() {
        let mut h: Handoff<u32> = Handoff::new();
        h.track(NodeId::new(1), 7, 0, 4);
        h.acked(0, 3);
        assert!(h.pending().is_some(), "mismatched ack ignored");
        h.acked(0, 4);
        assert!(h.pending().is_none());
    }

    #[test]
    fn retransmit_attempts_are_bounded() {
        let mut h: Handoff<u32> = Handoff::new();
        h.track(NodeId::new(2), 9, 1, 8);
        assert!(h.timer_due(8, 0));
        assert!(!h.timer_due(8, 1), "future attempt not due yet");
        assert!(!h.timer_due(7, 0), "stale transfer");
        let (to, msg, tseq, attempt) = h.next_attempt().unwrap();
        assert_eq!((to, msg, tseq, attempt), (NodeId::new(2), 9, 8, 1));
        assert!(h.timer_due(8, 1));
        for _ in 1..ACK_MAX_RETRIES {
            assert!(h.next_attempt().is_some());
        }
        assert!(h.next_attempt().is_none(), "retries exhausted");
        assert!(h.pending().is_none(), "gave up: slot cleared");
        assert_eq!(h.retransmits, ACK_MAX_RETRIES as u64);
    }

    #[test]
    fn ack_backoff_doubles_and_caps() {
        let waits: Vec<u64> = (0..6).map(ack_backoff).collect();
        assert_eq!(waits, [4, 8, 16, 32, 64, 64]);
        assert_eq!(ack_backoff(60), 64, "shift clamped, still capped");
        assert!(
            (0..=u8::MAX as u32).all(|a| ack_backoff(a) >= 1),
            "never zero"
        );
    }

    #[test]
    fn timer_kind_roundtrips() {
        for (tseq, attempt) in [(0, 0), (1, 0), (7, 3), (1 << 40, 255)] {
            let kind = retransmit_timer_kind(tseq, attempt);
            assert_eq!(decode_retransmit_timer(kind), Some((tseq, attempt)));
        }
        assert_eq!(decode_retransmit_timer(1), None);
        assert_eq!(decode_retransmit_timer(4), None);
    }
}
