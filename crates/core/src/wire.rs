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

use crate::checkpoint::Checkpoint;
use crate::codec::{
    decode_binary_msg, decode_naimi_msg, decode_ring_msg, decode_search_msg, encode_binary_msg,
    encode_naimi_msg, encode_ring_msg, encode_search_msg, encoded_len, naimi_encoded_len,
    ring_encoded_len, search_encoded_len, CodecError,
};
use crate::config::ProtocolConfig;
use crate::custody::TokenNode;
use crate::event::{EventSource, Want};
use crate::order::OrderState;
use crate::{BinaryNode, NaimiNode, RingNode, SearchNode};

/// A deployable token-passing protocol: buildable, byte-encodable,
/// order-observable.
///
/// The `Send + 'static` bound is what lets hosts move nodes onto OS
/// threads; the message bounds come from [`atp_net::Node`].
pub trait WireProtocol: atp_net::Node<Ext = Want> + EventSource + Send + 'static {
    /// Stable lowercase label ("ring", "search", "binary", "naimi") used in
    /// reports and CLI flags.
    const LABEL: &'static str;

    /// Constructs a node with the given configuration.
    fn build(cfg: ProtocolConfig) -> Self;

    /// Encodes one message into a standalone byte frame.
    fn encode_msg(msg: &Self::Msg) -> Vec<u8>;

    /// Decodes a frame previously produced by [`WireProtocol::encode_msg`].
    ///
    /// # Errors
    ///
    /// Returns the codec's typed error on truncated or unrecognized input —
    /// network bytes are untrusted, so this must never panic.
    fn decode_msg(bytes: &[u8]) -> Result<Self::Msg, CodecError>;

    /// Exact byte length [`WireProtocol::encode_msg`] would produce,
    /// computed without allocating.
    fn msg_encoded_len(msg: &Self::Msg) -> usize;

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

impl WireProtocol for RingNode {
    const LABEL: &'static str = "ring";

    fn build(cfg: ProtocolConfig) -> Self {
        RingNode::new(cfg)
    }
    fn encode_msg(msg: &Self::Msg) -> Vec<u8> {
        encode_ring_msg(msg)
    }
    fn decode_msg(bytes: &[u8]) -> Result<Self::Msg, CodecError> {
        decode_ring_msg(bytes)
    }
    fn msg_encoded_len(msg: &Self::Msg) -> usize {
        ring_encoded_len(msg)
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

impl WireProtocol for SearchNode {
    const LABEL: &'static str = "search";

    fn build(cfg: ProtocolConfig) -> Self {
        SearchNode::new(cfg)
    }
    fn encode_msg(msg: &Self::Msg) -> Vec<u8> {
        encode_search_msg(msg)
    }
    fn decode_msg(bytes: &[u8]) -> Result<Self::Msg, CodecError> {
        decode_search_msg(bytes)
    }
    fn msg_encoded_len(msg: &Self::Msg) -> usize {
        search_encoded_len(msg)
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

impl WireProtocol for BinaryNode {
    const LABEL: &'static str = "binary";

    fn build(cfg: ProtocolConfig) -> Self {
        BinaryNode::new(cfg)
    }
    fn encode_msg(msg: &Self::Msg) -> Vec<u8> {
        encode_binary_msg(msg)
    }
    fn decode_msg(bytes: &[u8]) -> Result<Self::Msg, CodecError> {
        decode_binary_msg(bytes)
    }
    fn msg_encoded_len(msg: &Self::Msg) -> usize {
        encoded_len(msg)
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

impl WireProtocol for NaimiNode {
    const LABEL: &'static str = "naimi";

    fn build(cfg: ProtocolConfig) -> Self {
        NaimiNode::new(cfg)
    }
    fn encode_msg(msg: &Self::Msg) -> Vec<u8> {
        encode_naimi_msg(msg)
    }
    fn decode_msg(bytes: &[u8]) -> Result<Self::Msg, CodecError> {
        decode_naimi_msg(bytes)
    }
    fn msg_encoded_len(msg: &Self::Msg) -> usize {
        naimi_encoded_len(msg)
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
