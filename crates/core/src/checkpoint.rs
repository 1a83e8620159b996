//! Durable node state for crash–restart recovery.
//!
//! The paper's Section 5 recovery story assumes a restarted node comes
//! back with *some* persistent state — its history prefix, its request
//! numbering, its generation watermark — and catches the rest up through
//! the rejoin/sync sub-protocol. [`Checkpoint`] is exactly that durable
//! core, shared by all four protocol nodes:
//!
//! * the ordered-delivery state (`applied_seq`, digest, and the applied
//!   log when `record_log` is on) — the prefix-property invariant must
//!   survive a restart;
//! * `next_req_seq` — restarting at 0 would mint duplicate
//!   `(origin, seq)` request ids that every other node dedups away;
//! * `last_visit` — the circulation stamp rule 6 and the regeneration
//!   inquiry compare;
//! * the witnessed `generation` and the handoff `watermark` — so replays
//!   of pre-crash transfers cannot re-enter after the restart.
//!
//! Everything else (held token, traps, pending transfers, outstanding
//! requests) is deliberately *volatile*: `on_recover` discards a held
//! token as possibly superseded, and the regeneration machinery re-creates
//! whatever the ring still needs.
//!
//! The encoding follows the message codec's conventions (little-endian,
//! length-prefixed lists, typed [`CodecError`]s on malformed input) so a
//! checkpoint travels over the same wire infrastructure as any frame.

use atp_util::buf::Buf;

use crate::codec::{get, get_seq, measure, CodecError, Fixed, Sink};
use crate::order::{HistoryDigest, OrderState};
use crate::types::{LogEntry, VisitStamp};

/// Checkpoint protocol tag: [`crate::RingNode`].
pub const CKPT_RING: u8 = 0;
/// Checkpoint protocol tag: [`crate::SearchNode`].
pub const CKPT_SEARCH: u8 = 1;
/// Checkpoint protocol tag: [`crate::BinaryNode`].
pub const CKPT_BINARY: u8 = 2;
/// Checkpoint protocol tag: [`crate::NaimiNode`].
pub const CKPT_NAIMI: u8 = 3;

/// The durable state of one protocol node, as captured by
/// `checkpoint()` and consumed by `from_checkpoint` on the node types
/// (or generically via [`crate::WireProtocol`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Checkpoint {
    /// Which protocol wrote this checkpoint (`CKPT_*`); restoring into a
    /// different node type is refused.
    pub protocol: u8,
    /// Highest token generation the node had witnessed.
    pub generation: u32,
    /// Next local request sequence number.
    pub next_req_seq: u64,
    /// Last circulation stamp at which the node saw the token.
    pub last_visit: u64,
    /// Handoff duplicate-suppression watermark `(generation, transfer_seq)`.
    pub watermark: Option<(u32, u64)>,
    /// Length of the applied history prefix.
    pub applied_seq: u64,
    /// Chained digest of the applied prefix.
    pub digest: u64,
    /// The applied entries themselves (empty when logs were off).
    pub log: Vec<LogEntry>,
}

impl Checkpoint {
    /// Captures the shared durable core from a node's parts. Internal —
    /// nodes call this from their `checkpoint()` methods.
    pub(crate) fn capture(
        protocol: u8,
        order: &OrderState,
        next_req_seq: u64,
        last_visit: VisitStamp,
        generation: u32,
        watermark: Option<(u32, u64)>,
    ) -> Checkpoint {
        Checkpoint {
            protocol,
            generation,
            next_req_seq,
            last_visit: last_visit.value(),
            watermark,
            applied_seq: order.applied_seq(),
            digest: order.digest().0,
            log: order.log().to_vec(),
        }
    }

    /// Rebuilds the ordered-delivery state this checkpoint describes.
    pub(crate) fn restore_order(&self, record_log: bool) -> OrderState {
        OrderState::restore(
            record_log,
            self.applied_seq,
            HistoryDigest(self.digest),
            self.log.clone(),
        )
    }

    /// The checkpointed visit stamp.
    pub(crate) fn visit_stamp(&self) -> VisitStamp {
        VisitStamp(self.last_visit)
    }

    /// Serializes into `s` (codec conventions: little-endian, `u32`
    /// length prefix on the log).
    pub fn encode(&self, s: &mut impl Sink) {
        self.protocol.put(s);
        self.generation.put(s);
        self.next_req_seq.put(s);
        self.last_visit.put(s);
        match self.watermark {
            Some((g, t)) => {
                1u8.put(s);
                g.put(s);
                t.put(s);
            }
            None => 0u8.put(s),
        }
        self.applied_seq.put(s);
        self.digest.put(s);
        s.seq(self.log.iter());
    }

    /// Exact byte length [`Checkpoint::encode`] produces.
    pub fn encoded_len(&self) -> usize {
        measure(|s| self.encode(s))
    }

    /// Deserializes a checkpoint previously produced by
    /// [`Checkpoint::encode`].
    ///
    /// # Errors
    ///
    /// Typed [`CodecError`]s on truncated input or an unknown protocol
    /// tag — checkpoint bytes come off a disk or a wire and are untrusted.
    pub fn decode(buf: &mut impl Buf) -> Result<Checkpoint, CodecError> {
        let protocol = get(buf)?;
        if protocol > CKPT_NAIMI {
            return Err(CodecError::BadTag(protocol));
        }
        Ok(Checkpoint {
            protocol,
            generation: get(buf)?,
            next_req_seq: get(buf)?,
            last_visit: get(buf)?,
            watermark: match get::<u8>(buf)? {
                0 => None,
                1 => Some((get(buf)?, get(buf)?)),
                other => return Err(CodecError::BadTag(other)),
            },
            applied_seq: get(buf)?,
            digest: get(buf)?,
            log: get_seq(buf)?,
        })
    }

    /// Convenience: encodes into a fresh byte vector.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(self.encoded_len());
        self.encode(&mut buf);
        buf
    }

    /// Convenience: decodes from a byte slice.
    ///
    /// # Errors
    ///
    /// See [`Checkpoint::decode`].
    pub fn from_bytes(mut bytes: &[u8]) -> Result<Checkpoint, CodecError> {
        Self::decode(&mut bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atp_net::NodeId;

    fn sample() -> Checkpoint {
        Checkpoint {
            protocol: CKPT_BINARY,
            generation: 0x0203,
            next_req_seq: 7,
            last_visit: 41,
            watermark: Some((0x0203, 19)),
            applied_seq: 2,
            digest: HistoryDigest::EMPTY
                .chain(&LogEntry {
                    seq: 1,
                    origin: NodeId::new(3),
                    payload: 55,
                    round: 1,
                })
                .chain(&LogEntry {
                    seq: 2,
                    origin: NodeId::new(0),
                    payload: 66,
                    round: 1,
                })
                .0,
            log: vec![
                LogEntry {
                    seq: 1,
                    origin: NodeId::new(3),
                    payload: 55,
                    round: 1,
                },
                LogEntry {
                    seq: 2,
                    origin: NodeId::new(0),
                    payload: 66,
                    round: 1,
                },
            ],
        }
    }

    #[test]
    fn roundtrips_and_len_matches() {
        for ck in [
            sample(),
            Checkpoint {
                watermark: None,
                log: Vec::new(),
                ..sample()
            },
        ] {
            let bytes = ck.to_bytes();
            assert_eq!(bytes.len(), ck.encoded_len());
            assert_eq!(Checkpoint::from_bytes(&bytes).expect("roundtrip"), ck);
        }
    }

    #[test]
    fn truncation_is_typed_at_every_cut() {
        let bytes = sample().to_bytes();
        for cut in 0..bytes.len() {
            assert_eq!(
                Checkpoint::from_bytes(&bytes[..cut]),
                Err(CodecError::Truncated),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn unknown_protocol_and_watermark_tags_are_rejected() {
        let mut bytes = sample().to_bytes();
        bytes[0] = 9;
        assert_eq!(Checkpoint::from_bytes(&bytes), Err(CodecError::BadTag(9)));
        let mut bytes = sample().to_bytes();
        bytes[1 + 4 + 8 + 8] = 7; // the watermark flag byte
        assert_eq!(Checkpoint::from_bytes(&bytes), Err(CodecError::BadTag(7)));
    }

    #[test]
    fn restore_order_rebuilds_the_digest_chain() {
        let ck = sample();
        let order = ck.restore_order(true);
        assert_eq!(order.applied_seq(), 2);
        assert_eq!(order.digest().0, ck.digest);
        assert_eq!(order.log(), ck.log.as_slice());
        // Per-length digests work again after restore.
        assert!(order.digest_at(1).is_some());
        // Logs-off restore keeps the pair but no per-length digests.
        let bare = Checkpoint {
            log: Vec::new(),
            ..ck
        }
        .restore_order(false);
        assert_eq!(bare.applied_seq(), 2);
        assert!(bare.digest_at(1).is_none());
    }

    #[test]
    #[should_panic(expected = "checkpoint digest does not match")]
    fn corrupt_log_cannot_restore_silently() {
        let mut ck = sample();
        ck.log[0].payload ^= 1;
        let _ = ck.restore_order(true);
    }
}
