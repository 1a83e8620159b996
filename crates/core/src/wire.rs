//! One trait tying each protocol to its wire encoding, so hosts are
//! generic over the protocol family.
//!
//! A [`WireProtocol`] is a protocol node that can be *deployed*: it can be
//! built from a [`ProtocolConfig`], its message type round-trips through
//! the byte codec in [`crate::codec`], and its ordered-delivery state is
//! observable for conformance cross-checks. The threaded
//! [`Cluster`](crate::Cluster) runtime, the transport-generic test
//! harnesses and the `cluster` binary all host `P: WireProtocol` without
//! knowing which of the four systems they are running.
//!
//! Every custodian is one: a single blanket impl builds it around fresh
//! custody and forwards the rest to [`TokenNode`], and the codec methods
//! come from its message type's [`WireMsg`] layout.

use crate::checkpoint::Checkpoint;
use crate::codec::{from_bytes, measure, to_bytes, CodecError, WireMsg};
use crate::config::ProtocolConfig;
use crate::custody::{Custodian, Custody, TokenNode};
use crate::event::{EventSource, Want};
use crate::order::OrderState;

/// A deployable token-passing protocol: buildable, byte-encodable,
/// order-observable.
///
/// The `Send + 'static` bound is what lets hosts move nodes onto OS
/// threads; the message bounds come from [`atp_net::Node`].
pub trait WireProtocol:
    atp_net::Node<Ext = Want, Msg: WireMsg> + EventSource + Send + 'static
{
    /// Stable lowercase label ("ring", "search", "binary", "naimi") used in
    /// reports and CLI flags.
    const LABEL: &'static str;

    /// Constructs a node with the given configuration.
    fn build(cfg: ProtocolConfig) -> Self;

    /// Encodes one message into a standalone byte frame.
    fn encode_msg(msg: &Self::Msg) -> Vec<u8> {
        to_bytes(msg)
    }

    /// Decodes a frame previously produced by [`WireProtocol::encode_msg`].
    ///
    /// # Errors
    ///
    /// Returns the codec's typed error on truncated, unrecognized or
    /// malformed input — network bytes are untrusted, so this must never
    /// panic.
    fn decode_msg(bytes: &[u8]) -> Result<Self::Msg, CodecError> {
        from_bytes(bytes)
    }

    /// Exact byte length [`WireProtocol::encode_msg`] would produce: the
    /// same encoder run into a counter, without allocating.
    fn msg_encoded_len(msg: &Self::Msg) -> usize {
        measure(|s| msg.put(s))
    }

    /// The node's full ordered-delivery state (grant-order conformance).
    fn order_state(&self) -> &OrderState;

    /// Captures the node's durable state for crash–restart recovery; the
    /// result serializes through [`Checkpoint::encode`] like any frame.
    fn checkpoint(&self) -> Checkpoint;

    /// Rebuilds a node from a checkpoint (warm restart). Pair with the
    /// host's recover path (`on_recover`), never with `on_init` — a
    /// re-initialized node would mint a token the ring already has.
    fn restore(cfg: ProtocolConfig, ck: &Checkpoint) -> Self;
}

impl<T> WireProtocol for T
where
    T: Custodian + Send + 'static,
    T::Msg: WireMsg,
{
    const LABEL: &'static str = <T as Custodian>::LABEL;

    fn build(cfg: ProtocolConfig) -> Self {
        T::with_custody(Custody::new(cfg))
    }
    fn order_state(&self) -> &OrderState {
        TokenNode::order(self)
    }
    fn checkpoint(&self) -> Checkpoint {
        TokenNode::checkpoint(self)
    }
    fn restore(cfg: ProtocolConfig, ck: &Checkpoint) -> Self {
        TokenNode::from_checkpoint(cfg, ck)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BinaryNode, NaimiNode, RingNode, SearchNode};

    /// The generic path must agree with the direct codec calls for every
    /// protocol — exercised via a frame each protocol actually sends.
    #[test]
    fn generic_encode_decode_roundtrips() {
        fn check<P: WireProtocol>(msg: P::Msg) {
            let bytes = P::encode_msg(&msg);
            assert_eq!(P::msg_encoded_len(&msg), bytes.len());
            let back = P::decode_msg(&bytes).expect("roundtrip");
            assert_eq!(format!("{back:?}"), format!("{msg:?}"));
        }
        use crate::regen::RegenMsg;
        check::<RingNode>(crate::RingMsg::Regen(RegenMsg::Rejoin));
        check::<SearchNode>(crate::SearchMsg::Regen(RegenMsg::Leave));
        check::<BinaryNode>(crate::BinaryMsg::Regen(RegenMsg::Inquiry { generation: 1 }));
        check::<NaimiNode>(crate::NaimiMsg::Regen(RegenMsg::GenAnnounce {
            generation: 2,
        }));
    }

    #[test]
    fn labels_are_distinct() {
        let labels = [
            <RingNode as WireProtocol>::LABEL,
            <SearchNode as WireProtocol>::LABEL,
            <BinaryNode as WireProtocol>::LABEL,
            <NaimiNode as WireProtocol>::LABEL,
        ];
        for (i, a) in labels.iter().enumerate() {
            for b in &labels[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }
}
