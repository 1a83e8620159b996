//! Wire encoding for every protocol message family, so the protocols can
//! cross a real network.
//!
//! The simulated transports move Rust values; a deployment moves bytes. This
//! module defines a compact little-endian framing for every System Ring,
//! System Search, System BinarySearch and Naimi–Tréhel message.
//! Round-tripping is exact: `decode_binary_msg(encode_binary_msg(m)) == m`
//! for every message, and likewise for the other three pairs. The
//! regeneration sub-protocol shares one encoding (tags `0x20..=0x28`)
//! across all four framings.

use atp_util::buf::{Buf, BufMut};

use atp_net::NodeId;

use crate::binary::{BinaryMsg, Gimme, TokenMode};
use crate::naimi::NaimiMsg;
use crate::regen::{RegenMsg, RegenReply};
use crate::ring::RingMsg;
use crate::search::SearchMsg;
use crate::token::TokenFrame;
use crate::types::{RequestId, VisitStamp};

/// Why decoding failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CodecError {
    /// The buffer ended before the message did.
    Truncated,
    /// An unknown message/mode tag was encountered.
    BadTag(u8),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "message truncated"),
            CodecError::BadTag(t) => write!(f, "unknown tag {t:#x}"),
        }
    }
}

impl std::error::Error for CodecError {}

const TAG_TOKEN_ROTATE: u8 = 0x01;
const TAG_TOKEN_GRANT: u8 = 0x02;
const TAG_TOKEN_CLEANUP: u8 = 0x03;
const TAG_TOKEN_RETURN: u8 = 0x04;
const TAG_GIMME: u8 = 0x10;
const TAG_DIRECTED_PROBE: u8 = 0x11;
const TAG_DIRECTED_REPLY: u8 = 0x12;
const TAG_PROBE_REQ: u8 = 0x13;
const TAG_PROBE_HIT: u8 = 0x14;
const TAG_REGEN_INQUIRY: u8 = 0x20;
const TAG_REGEN_REPLY: u8 = 0x21;
const TAG_REGEN_PLEASE: u8 = 0x22;
const TAG_REGEN_REJOIN: u8 = 0x23;
const TAG_REGEN_LEAVE: u8 = 0x24;
const TAG_REGEN_SYNC_REQ: u8 = 0x25;
const TAG_REGEN_SYNC_REPLY: u8 = 0x26;
const TAG_REGEN_TOKEN_ACK: u8 = 0x27;
const TAG_REGEN_GEN_ANNOUNCE: u8 = 0x28;
const TAG_RING_TOKEN: u8 = 0x30;
const TAG_SEARCH_TOKEN_LAZY: u8 = 0x38;
const TAG_SEARCH_TOKEN_GRANT: u8 = 0x39;
const TAG_SEARCH_GIMME: u8 = 0x3a;
const TAG_NAIMI_REQUEST: u8 = 0x40;
const TAG_NAIMI_TOKEN_LAZY: u8 = 0x41;
const TAG_NAIMI_TOKEN_GRANT: u8 = 0x42;
const TAG_SHARD_ENVELOPE: u8 = 0x50;

/// Every tag byte [`decode_binary_msg`] accepts, in ascending order.
///
/// Negative tests derive their "unknown tag" corpus from the complement of
/// this list, so a frame added to the codec without extending the list (or
/// vice versa) fails the exhaustiveness tests instead of silently dodging
/// fuzz coverage.
pub fn known_binary_tags() -> &'static [u8] {
    &[
        TAG_TOKEN_ROTATE,
        TAG_TOKEN_GRANT,
        TAG_TOKEN_CLEANUP,
        TAG_TOKEN_RETURN,
        TAG_GIMME,
        TAG_DIRECTED_PROBE,
        TAG_DIRECTED_REPLY,
        TAG_PROBE_REQ,
        TAG_PROBE_HIT,
        TAG_REGEN_INQUIRY,
        TAG_REGEN_REPLY,
        TAG_REGEN_PLEASE,
        TAG_REGEN_REJOIN,
        TAG_REGEN_LEAVE,
        TAG_REGEN_SYNC_REQ,
        TAG_REGEN_SYNC_REPLY,
        TAG_REGEN_TOKEN_ACK,
        TAG_REGEN_GEN_ANNOUNCE,
    ]
}

/// Every tag byte [`decode_ring_msg`] accepts, in ascending order.
pub fn known_ring_tags() -> &'static [u8] {
    &[
        TAG_REGEN_INQUIRY,
        TAG_REGEN_REPLY,
        TAG_REGEN_PLEASE,
        TAG_REGEN_REJOIN,
        TAG_REGEN_LEAVE,
        TAG_REGEN_SYNC_REQ,
        TAG_REGEN_SYNC_REPLY,
        TAG_REGEN_TOKEN_ACK,
        TAG_REGEN_GEN_ANNOUNCE,
        TAG_RING_TOKEN,
    ]
}

/// Every tag byte [`decode_search_msg`] accepts, in ascending order.
pub fn known_search_tags() -> &'static [u8] {
    &[
        TAG_REGEN_INQUIRY,
        TAG_REGEN_REPLY,
        TAG_REGEN_PLEASE,
        TAG_REGEN_REJOIN,
        TAG_REGEN_LEAVE,
        TAG_REGEN_SYNC_REQ,
        TAG_REGEN_SYNC_REPLY,
        TAG_REGEN_TOKEN_ACK,
        TAG_REGEN_GEN_ANNOUNCE,
        TAG_SEARCH_TOKEN_LAZY,
        TAG_SEARCH_TOKEN_GRANT,
        TAG_SEARCH_GIMME,
    ]
}

/// Every tag byte [`decode_naimi_msg`] accepts, in ascending order.
pub fn known_naimi_tags() -> &'static [u8] {
    &[
        TAG_REGEN_INQUIRY,
        TAG_REGEN_REPLY,
        TAG_REGEN_PLEASE,
        TAG_REGEN_REJOIN,
        TAG_REGEN_LEAVE,
        TAG_REGEN_SYNC_REQ,
        TAG_REGEN_SYNC_REPLY,
        TAG_REGEN_TOKEN_ACK,
        TAG_REGEN_GEN_ANNOUNCE,
        TAG_NAIMI_REQUEST,
        TAG_NAIMI_TOKEN_LAZY,
        TAG_NAIMI_TOKEN_GRANT,
    ]
}

/// Every tag byte [`decode_shard_frame`] accepts.
pub fn known_shard_tags() -> &'static [u8] {
    &[TAG_SHARD_ENVELOPE]
}

/// Wraps an already-encoded protocol frame in a shard envelope so one
/// byte stream can multiplex `K` independent protocol instances: tag,
/// little-endian shard id, inner frame.
pub fn encode_shard_frame(shard: u16, inner: &[u8]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(shard_frame_encoded_len(inner.len()));
    buf.put_u8(TAG_SHARD_ENVELOPE);
    buf.put_slice(&shard.to_le_bytes());
    buf.put_slice(inner);
    buf
}

/// Exact byte length [`encode_shard_frame`] produces for an inner frame
/// of `inner_len` bytes.
pub fn shard_frame_encoded_len(inner_len: usize) -> usize {
    3 + inner_len
}

/// Splits a shard envelope into `(shard id, inner frame bytes)`. The
/// inner frame is *not* decoded — the host routes it to the shard's
/// protocol instance, whose own decoder treats it as untrusted input.
///
/// # Errors
///
/// Returns [`CodecError::BadTag`] for a non-envelope frame and
/// [`CodecError::Truncated`] when the shard id is cut short.
pub fn decode_shard_frame(bytes: &[u8]) -> Result<(u16, &[u8]), CodecError> {
    let Some((&tag, rest)) = bytes.split_first() else {
        return Err(CodecError::Truncated);
    };
    if tag != TAG_SHARD_ENVELOPE {
        return Err(CodecError::BadTag(tag));
    }
    if rest.len() < 2 {
        return Err(CodecError::Truncated);
    }
    let shard = u16::from_le_bytes([rest[0], rest[1]]);
    Ok((shard, &rest[2..]))
}

fn put_req(buf: &mut Vec<u8>, req: RequestId) {
    buf.put_u32_le(req.origin.raw());
    buf.put_u64_le(req.seq);
}

fn get_req(buf: &mut impl Buf) -> Result<RequestId, CodecError> {
    if buf.remaining() < 12 {
        return Err(CodecError::Truncated);
    }
    Ok(RequestId::new(NodeId::new(buf.get_u32_le()), buf.get_u64_le()))
}

fn put_trail(buf: &mut Vec<u8>, trail: &[NodeId]) {
    buf.put_u32_le(trail.len() as u32);
    for n in trail {
        buf.put_u32_le(n.raw());
    }
}

fn get_trail(buf: &mut impl Buf) -> Result<Vec<NodeId>, CodecError> {
    if buf.remaining() < 4 {
        return Err(CodecError::Truncated);
    }
    let n = buf.get_u32_le() as usize;
    if buf.remaining() < n * 4 {
        return Err(CodecError::Truncated);
    }
    Ok((0..n).map(|_| NodeId::new(buf.get_u32_le())).collect())
}

fn get_u32(buf: &mut impl Buf) -> Result<u32, CodecError> {
    if buf.remaining() < 4 {
        return Err(CodecError::Truncated);
    }
    Ok(buf.get_u32_le())
}

fn get_u64(buf: &mut impl Buf) -> Result<u64, CodecError> {
    if buf.remaining() < 8 {
        return Err(CodecError::Truncated);
    }
    Ok(buf.get_u64_le())
}

fn get_u8(buf: &mut impl Buf) -> Result<u8, CodecError> {
    if buf.remaining() < 1 {
        return Err(CodecError::Truncated);
    }
    Ok(buf.get_u8())
}

/// Encodes a regeneration message (tag + body). Shared by the BinarySearch
/// and Naimi framings: the failure-handling sub-protocol is identical, so
/// its bytes are too.
fn put_regen_msg(buf: &mut Vec<u8>, r: &RegenMsg) {
    match r {
        RegenMsg::Inquiry { generation } => {
            buf.put_u8(TAG_REGEN_INQUIRY);
            buf.put_u32_le(*generation);
        }
        RegenMsg::Reply(reply) => {
            buf.put_u8(TAG_REGEN_REPLY);
            buf.put_u32_le(reply.generation);
            buf.put_u64_le(reply.stamp.value());
            buf.put_u8(reply.holder as u8);
            match reply.passed_to {
                Some(n) => {
                    buf.put_u8(1);
                    buf.put_u32_le(n.raw());
                }
                None => buf.put_u8(0),
            }
            buf.put_u64_le(reply.applied_seq);
        }
        RegenMsg::Please {
            new_gen,
            known_seq,
            dead,
        } => {
            buf.put_u8(TAG_REGEN_PLEASE);
            buf.put_u32_le(*new_gen);
            buf.put_u64_le(*known_seq);
            put_trail(buf, dead);
        }
        RegenMsg::Rejoin => {
            buf.put_u8(TAG_REGEN_REJOIN);
        }
        RegenMsg::Leave => {
            buf.put_u8(TAG_REGEN_LEAVE);
        }
        RegenMsg::SyncRequest { from_seq } => {
            buf.put_u8(TAG_REGEN_SYNC_REQ);
            buf.put_u64_le(*from_seq);
        }
        RegenMsg::SyncReply { entries } => {
            buf.put_u8(TAG_REGEN_SYNC_REPLY);
            buf.put_u32_le(entries.len() as u32);
            for e in entries {
                buf.put_u64_le(e.seq);
                buf.put_u32_le(e.origin.raw());
                buf.put_u64_le(e.payload);
                buf.put_u64_le(e.round);
            }
        }
        RegenMsg::TokenAck {
            generation,
            transfer_seq,
        } => {
            buf.put_u8(TAG_REGEN_TOKEN_ACK);
            buf.put_u32_le(*generation);
            buf.put_u64_le(*transfer_seq);
        }
        RegenMsg::GenAnnounce { generation } => {
            buf.put_u8(TAG_REGEN_GEN_ANNOUNCE);
            buf.put_u32_le(*generation);
        }
    }
}

/// Decodes the body of a regeneration message whose `tag` is one of
/// `0x20..=0x28`; returns `Ok(None)` for any other tag so callers fall
/// through to their own frames.
fn get_regen_msg(tag: u8, buf: &mut impl Buf) -> Result<Option<RegenMsg>, CodecError> {
    Ok(Some(match tag {
        TAG_REGEN_INQUIRY => RegenMsg::Inquiry {
            generation: get_u32(buf)?,
        },
        TAG_REGEN_REPLY => {
            let generation = get_u32(buf)?;
            let stamp = VisitStamp(get_u64(buf)?);
            let holder = get_u8(buf)? != 0;
            let passed_to = if get_u8(buf)? != 0 {
                Some(NodeId::new(get_u32(buf)?))
            } else {
                None
            };
            let applied_seq = get_u64(buf)?;
            RegenMsg::Reply(RegenReply {
                generation,
                stamp,
                holder,
                passed_to,
                applied_seq,
            })
        }
        TAG_REGEN_PLEASE => {
            let new_gen = get_u32(buf)?;
            let known_seq = get_u64(buf)?;
            let dead = get_trail(buf)?;
            RegenMsg::Please {
                new_gen,
                known_seq,
                dead,
            }
        }
        TAG_REGEN_REJOIN => RegenMsg::Rejoin,
        TAG_REGEN_LEAVE => RegenMsg::Leave,
        TAG_REGEN_SYNC_REQ => RegenMsg::SyncRequest {
            from_seq: get_u64(buf)?,
        },
        TAG_REGEN_SYNC_REPLY => {
            let n = get_u32(buf)? as usize;
            let mut entries = Vec::with_capacity(n.min(1 << 16));
            for _ in 0..n {
                entries.push(crate::types::LogEntry {
                    seq: get_u64(buf)?,
                    origin: NodeId::new(get_u32(buf)?),
                    payload: get_u64(buf)?,
                    round: get_u64(buf)?,
                });
            }
            RegenMsg::SyncReply { entries }
        }
        TAG_REGEN_TOKEN_ACK => RegenMsg::TokenAck {
            generation: get_u32(buf)?,
            transfer_seq: get_u64(buf)?,
        },
        TAG_REGEN_GEN_ANNOUNCE => RegenMsg::GenAnnounce {
            generation: get_u32(buf)?,
        },
        _ => return Ok(None),
    }))
}

/// Exact encoded length of a regeneration message (tag + body).
fn regen_encoded_len(r: &RegenMsg) -> usize {
    match r {
        RegenMsg::Inquiry { .. } => 1 + 4,
        RegenMsg::Reply(reply) => {
            1 + 4 + 8 + 1 + 1 + if reply.passed_to.is_some() { 4 } else { 0 } + 8
        }
        RegenMsg::Please { dead, .. } => 1 + 4 + 8 + 4 + 4 * dead.len(),
        RegenMsg::Rejoin | RegenMsg::Leave => 1,
        RegenMsg::SyncRequest { .. } => 1 + 8,
        RegenMsg::SyncReply { entries } => 1 + 4 + 28 * entries.len(),
        RegenMsg::TokenAck { .. } => 1 + 4 + 8,
        RegenMsg::GenAnnounce { .. } => 1 + 4,
    }
}

/// Encodes a [`BinaryMsg`] into a standalone byte frame.
///
/// # Examples
///
/// ```rust
/// use atp_core::{encode_binary_msg, decode_binary_msg, BinaryMsg, RequestId};
/// use atp_net::NodeId;
///
/// let msg = BinaryMsg::ProbeHit {
///     origin: NodeId::new(3),
///     req: RequestId::new(NodeId::new(3), 7),
/// };
/// let bytes = encode_binary_msg(&msg);
/// let back = decode_binary_msg(&bytes)?;
/// assert!(matches!(back, BinaryMsg::ProbeHit { .. }));
/// # Ok::<(), atp_core::CodecError>(())
/// ```
pub fn encode_binary_msg(msg: &BinaryMsg) -> Vec<u8> {
    let mut buf = Vec::with_capacity(64);
    match msg {
        BinaryMsg::Token { frame, mode } => {
            match mode {
                TokenMode::Rotate => buf.put_u8(TAG_TOKEN_ROTATE),
                TokenMode::Grant { for_req, return_to } => {
                    buf.put_u8(TAG_TOKEN_GRANT);
                    put_req(&mut buf, *for_req);
                    buf.put_u32_le(return_to.raw());
                }
                TokenMode::CleanupHop {
                    for_req,
                    return_to,
                    trail,
                } => {
                    buf.put_u8(TAG_TOKEN_CLEANUP);
                    put_req(&mut buf, *for_req);
                    buf.put_u32_le(return_to.raw());
                    put_trail(&mut buf, trail);
                }
                TokenMode::Return => buf.put_u8(TAG_TOKEN_RETURN),
            }
            frame.encode(&mut buf);
        }
        BinaryMsg::Gimme(g) => {
            buf.put_u8(TAG_GIMME);
            buf.put_u32_le(g.origin.raw());
            put_req(&mut buf, g.req);
            buf.put_u64_le(g.origin_stamp.value());
            buf.put_u32_le(g.span);
            put_trail(&mut buf, &g.trail);
        }
        BinaryMsg::DirectedProbe { origin, req, span } => {
            buf.put_u8(TAG_DIRECTED_PROBE);
            buf.put_u32_le(origin.raw());
            put_req(&mut buf, *req);
            buf.put_u32_le(*span);
        }
        BinaryMsg::DirectedReply {
            probed,
            stamp,
            req,
            span,
        } => {
            buf.put_u8(TAG_DIRECTED_REPLY);
            buf.put_u32_le(probed.raw());
            buf.put_u64_le(stamp.value());
            put_req(&mut buf, *req);
            buf.put_u32_le(*span);
        }
        BinaryMsg::ProbeReq { holder, span } => {
            buf.put_u8(TAG_PROBE_REQ);
            buf.put_u32_le(holder.raw());
            buf.put_u32_le(*span);
        }
        BinaryMsg::ProbeHit { origin, req } => {
            buf.put_u8(TAG_PROBE_HIT);
            buf.put_u32_le(origin.raw());
            put_req(&mut buf, *req);
        }
        BinaryMsg::Regen(r) => put_regen_msg(&mut buf, r),
    }
    buf
}

/// Exact byte length [`encode_binary_msg`] would produce for `msg`,
/// computed without allocating.
///
/// The span instrumentation sizes every search and token send, so this
/// must stay in lock-step with the encoder; the
/// `encoded_len_matches_encoder` test pins the equality for every
/// message variant.
pub fn encoded_len(msg: &BinaryMsg) -> usize {
    const REQ: usize = 12; // u32 origin + u64 seq
    match msg {
        BinaryMsg::Token { frame, mode } => {
            let mode_len = match mode {
                TokenMode::Rotate | TokenMode::Return => 0,
                TokenMode::Grant { .. } => REQ + 4,
                TokenMode::CleanupHop { trail, .. } => REQ + 4 + 4 + 4 * trail.len(),
            };
            1 + mode_len + frame.encoded_len()
        }
        BinaryMsg::Gimme(g) => 1 + 4 + REQ + 8 + 4 + 4 + 4 * g.trail.len(),
        BinaryMsg::DirectedProbe { .. } => 1 + 4 + REQ + 4,
        BinaryMsg::DirectedReply { .. } => 1 + 4 + 8 + REQ + 4,
        BinaryMsg::ProbeReq { .. } => 1 + 4 + 4,
        BinaryMsg::ProbeHit { .. } => 1 + 4 + REQ,
        BinaryMsg::Regen(r) => regen_encoded_len(r),
    }
}

/// Decodes a frame previously produced by [`encode_binary_msg`].
///
/// # Errors
///
/// Returns [`CodecError::Truncated`] if the buffer is too short and
/// [`CodecError::BadTag`] on an unrecognized tag byte.
pub fn decode_binary_msg(bytes: &[u8]) -> Result<BinaryMsg, CodecError> {
    let mut buf: &[u8] = bytes;
    let tag = get_u8(&mut buf)?;
    match tag {
        TAG_TOKEN_ROTATE | TAG_TOKEN_RETURN => {
            let mode = if tag == TAG_TOKEN_ROTATE {
                TokenMode::Rotate
            } else {
                TokenMode::Return
            };
            let frame = Box::new(TokenFrame::decode(&mut buf).ok_or(CodecError::Truncated)?);
            Ok(BinaryMsg::Token { frame, mode })
        }
        TAG_TOKEN_GRANT => {
            let for_req = get_req(&mut buf)?;
            let return_to = NodeId::new(get_u32(&mut buf)?);
            let frame = Box::new(TokenFrame::decode(&mut buf).ok_or(CodecError::Truncated)?);
            Ok(BinaryMsg::Token {
                frame,
                mode: TokenMode::Grant { for_req, return_to },
            })
        }
        TAG_TOKEN_CLEANUP => {
            let for_req = get_req(&mut buf)?;
            let return_to = NodeId::new(get_u32(&mut buf)?);
            let trail = get_trail(&mut buf)?;
            let frame = Box::new(TokenFrame::decode(&mut buf).ok_or(CodecError::Truncated)?);
            Ok(BinaryMsg::Token {
                frame,
                mode: TokenMode::CleanupHop {
                    for_req,
                    return_to,
                    trail,
                },
            })
        }
        TAG_GIMME => {
            let origin = NodeId::new(get_u32(&mut buf)?);
            let req = get_req(&mut buf)?;
            let origin_stamp = VisitStamp(get_u64(&mut buf)?);
            let span = get_u32(&mut buf)?;
            let trail = get_trail(&mut buf)?;
            Ok(BinaryMsg::Gimme(Gimme {
                origin,
                req,
                origin_stamp,
                span,
                trail,
            }))
        }
        TAG_DIRECTED_PROBE => {
            let origin = NodeId::new(get_u32(&mut buf)?);
            let req = get_req(&mut buf)?;
            let span = get_u32(&mut buf)?;
            Ok(BinaryMsg::DirectedProbe { origin, req, span })
        }
        TAG_DIRECTED_REPLY => {
            let probed = NodeId::new(get_u32(&mut buf)?);
            let stamp = VisitStamp(get_u64(&mut buf)?);
            let req = get_req(&mut buf)?;
            let span = get_u32(&mut buf)?;
            Ok(BinaryMsg::DirectedReply {
                probed,
                stamp,
                req,
                span,
            })
        }
        TAG_PROBE_REQ => {
            let holder = NodeId::new(get_u32(&mut buf)?);
            let span = get_u32(&mut buf)?;
            Ok(BinaryMsg::ProbeReq { holder, span })
        }
        TAG_PROBE_HIT => {
            let origin = NodeId::new(get_u32(&mut buf)?);
            let req = get_req(&mut buf)?;
            Ok(BinaryMsg::ProbeHit { origin, req })
        }
        other => match get_regen_msg(other, &mut buf)? {
            Some(r) => Ok(BinaryMsg::Regen(r)),
            None => Err(CodecError::BadTag(other)),
        },
    }
}

/// Encodes a [`RingMsg`] into a standalone byte frame.
pub fn encode_ring_msg(msg: &RingMsg) -> Vec<u8> {
    let mut buf = Vec::with_capacity(64);
    match msg {
        RingMsg::Token(frame) => {
            buf.put_u8(TAG_RING_TOKEN);
            frame.encode(&mut buf);
        }
        RingMsg::Regen(r) => put_regen_msg(&mut buf, r),
    }
    buf
}

/// Exact byte length [`encode_ring_msg`] would produce for `msg`,
/// computed without allocating.
pub fn ring_encoded_len(msg: &RingMsg) -> usize {
    match msg {
        RingMsg::Token(frame) => 1 + frame.encoded_len(),
        RingMsg::Regen(r) => regen_encoded_len(r),
    }
}

/// Decodes a frame previously produced by [`encode_ring_msg`].
///
/// # Errors
///
/// Returns [`CodecError::Truncated`] if the buffer is too short and
/// [`CodecError::BadTag`] on an unrecognized tag byte.
pub fn decode_ring_msg(bytes: &[u8]) -> Result<RingMsg, CodecError> {
    let mut buf: &[u8] = bytes;
    let tag = get_u8(&mut buf)?;
    match tag {
        TAG_RING_TOKEN => {
            let frame = Box::new(TokenFrame::decode(&mut buf).ok_or(CodecError::Truncated)?);
            Ok(RingMsg::Token(frame))
        }
        other => match get_regen_msg(other, &mut buf)? {
            Some(r) => Ok(RingMsg::Regen(r)),
            None => Err(CodecError::BadTag(other)),
        },
    }
}

/// Encodes a [`SearchMsg`] into a standalone byte frame.
pub fn encode_search_msg(msg: &SearchMsg) -> Vec<u8> {
    let mut buf = Vec::with_capacity(64);
    match msg {
        SearchMsg::Token { frame, grant_for } => {
            match grant_for {
                Some(req) => {
                    buf.put_u8(TAG_SEARCH_TOKEN_GRANT);
                    put_req(&mut buf, *req);
                }
                None => buf.put_u8(TAG_SEARCH_TOKEN_LAZY),
            }
            frame.encode(&mut buf);
        }
        SearchMsg::Gimme { origin, req, hops } => {
            buf.put_u8(TAG_SEARCH_GIMME);
            buf.put_u32_le(origin.raw());
            put_req(&mut buf, *req);
            buf.put_u32_le(*hops);
        }
        SearchMsg::Regen(r) => put_regen_msg(&mut buf, r),
    }
    buf
}

/// Exact byte length [`encode_search_msg`] would produce for `msg`,
/// computed without allocating.
pub fn search_encoded_len(msg: &SearchMsg) -> usize {
    const REQ: usize = 12; // u32 origin + u64 seq
    match msg {
        SearchMsg::Token { frame, grant_for } => {
            1 + if grant_for.is_some() { REQ } else { 0 } + frame.encoded_len()
        }
        SearchMsg::Gimme { .. } => 1 + 4 + REQ + 4,
        SearchMsg::Regen(r) => regen_encoded_len(r),
    }
}

/// Decodes a frame previously produced by [`encode_search_msg`].
///
/// # Errors
///
/// Returns [`CodecError::Truncated`] if the buffer is too short and
/// [`CodecError::BadTag`] on an unrecognized tag byte.
pub fn decode_search_msg(bytes: &[u8]) -> Result<SearchMsg, CodecError> {
    let mut buf: &[u8] = bytes;
    let tag = get_u8(&mut buf)?;
    match tag {
        TAG_SEARCH_TOKEN_LAZY => {
            let frame = Box::new(TokenFrame::decode(&mut buf).ok_or(CodecError::Truncated)?);
            Ok(SearchMsg::Token {
                frame,
                grant_for: None,
            })
        }
        TAG_SEARCH_TOKEN_GRANT => {
            let req = get_req(&mut buf)?;
            let frame = Box::new(TokenFrame::decode(&mut buf).ok_or(CodecError::Truncated)?);
            Ok(SearchMsg::Token {
                frame,
                grant_for: Some(req),
            })
        }
        TAG_SEARCH_GIMME => {
            let origin = NodeId::new(get_u32(&mut buf)?);
            let req = get_req(&mut buf)?;
            let hops = get_u32(&mut buf)?;
            Ok(SearchMsg::Gimme { origin, req, hops })
        }
        other => match get_regen_msg(other, &mut buf)? {
            Some(r) => Ok(SearchMsg::Regen(r)),
            None => Err(CodecError::BadTag(other)),
        },
    }
}

/// Encodes a [`NaimiMsg`] into a standalone byte frame.
///
/// # Examples
///
/// ```rust
/// use atp_core::{encode_naimi_msg, decode_naimi_msg, NaimiMsg, RequestId};
/// use atp_net::NodeId;
///
/// let msg = NaimiMsg::Request {
///     origin: NodeId::new(3),
///     req: RequestId::new(NodeId::new(3), 7),
///     attempt: 0,
///     hops: 1,
/// };
/// let bytes = encode_naimi_msg(&msg);
/// let back = decode_naimi_msg(&bytes)?;
/// assert!(matches!(back, NaimiMsg::Request { .. }));
/// # Ok::<(), atp_core::CodecError>(())
/// ```
pub fn encode_naimi_msg(msg: &NaimiMsg) -> Vec<u8> {
    let mut buf = Vec::with_capacity(64);
    match msg {
        NaimiMsg::Request {
            origin,
            req,
            attempt,
            hops,
        } => {
            buf.put_u8(TAG_NAIMI_REQUEST);
            buf.put_u32_le(origin.raw());
            put_req(&mut buf, *req);
            buf.put_u32_le(*attempt);
            buf.put_u32_le(*hops);
        }
        NaimiMsg::Token { frame, grant_for } => {
            match grant_for {
                Some(req) => {
                    buf.put_u8(TAG_NAIMI_TOKEN_GRANT);
                    put_req(&mut buf, *req);
                }
                None => buf.put_u8(TAG_NAIMI_TOKEN_LAZY),
            }
            frame.encode(&mut buf);
        }
        NaimiMsg::Regen(r) => put_regen_msg(&mut buf, r),
    }
    buf
}

/// Exact byte length [`encode_naimi_msg`] would produce for `msg`,
/// computed without allocating.
pub fn naimi_encoded_len(msg: &NaimiMsg) -> usize {
    const REQ: usize = 12; // u32 origin + u64 seq
    match msg {
        NaimiMsg::Request { .. } => 1 + 4 + REQ + 4 + 4,
        NaimiMsg::Token { frame, grant_for } => {
            1 + if grant_for.is_some() { REQ } else { 0 } + frame.encoded_len()
        }
        NaimiMsg::Regen(r) => regen_encoded_len(r),
    }
}

/// Decodes a frame previously produced by [`encode_naimi_msg`].
///
/// # Errors
///
/// Returns [`CodecError::Truncated`] if the buffer is too short and
/// [`CodecError::BadTag`] on an unrecognized tag byte.
pub fn decode_naimi_msg(bytes: &[u8]) -> Result<NaimiMsg, CodecError> {
    let mut buf: &[u8] = bytes;
    let tag = get_u8(&mut buf)?;
    match tag {
        TAG_NAIMI_REQUEST => {
            let origin = NodeId::new(get_u32(&mut buf)?);
            let req = get_req(&mut buf)?;
            let attempt = get_u32(&mut buf)?;
            let hops = get_u32(&mut buf)?;
            Ok(NaimiMsg::Request {
                origin,
                req,
                attempt,
                hops,
            })
        }
        TAG_NAIMI_TOKEN_LAZY => {
            let frame = Box::new(TokenFrame::decode(&mut buf).ok_or(CodecError::Truncated)?);
            Ok(NaimiMsg::Token {
                frame,
                grant_for: None,
            })
        }
        TAG_NAIMI_TOKEN_GRANT => {
            let req = get_req(&mut buf)?;
            let frame = Box::new(TokenFrame::decode(&mut buf).ok_or(CodecError::Truncated)?);
            Ok(NaimiMsg::Token {
                frame,
                grant_for: Some(req),
            })
        }
        other => match get_regen_msg(other, &mut buf)? {
            Some(r) => Ok(NaimiMsg::Regen(r)),
            None => Err(CodecError::BadTag(other)),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(msg: BinaryMsg) -> BinaryMsg {
        decode_binary_msg(&encode_binary_msg(&msg)).expect("roundtrip")
    }

    fn sample_frame() -> Box<TokenFrame> {
        let mut t = TokenFrame::new(4);
        t.on_possess(NodeId::new(0), true);
        t.append(NodeId::new(0), 11);
        t.on_possess(NodeId::new(1), true);
        t.append(NodeId::new(1), 22);
        t.mark_satisfied(RequestId::new(NodeId::new(1), 1));
        Box::new(t)
    }

    #[test]
    fn token_modes_roundtrip() {
        let frame = sample_frame();
        let modes = [
            TokenMode::Rotate,
            TokenMode::Return,
            TokenMode::Grant {
                for_req: RequestId::new(NodeId::new(2), 9),
                return_to: NodeId::new(4),
            },
            TokenMode::CleanupHop {
                for_req: RequestId::new(NodeId::new(2), 9),
                return_to: NodeId::new(4),
                trail: vec![NodeId::new(1), NodeId::new(5)],
            },
        ];
        for mode in modes {
            let msg = BinaryMsg::Token {
                frame: frame.clone(),
                mode: mode.clone(),
            };
            match roundtrip(msg) {
                BinaryMsg::Token { frame: f2, mode: m2 } => {
                    assert_eq!(f2, frame);
                    assert_eq!(m2, mode);
                }
                other => panic!("wrong variant: {other:?}"),
            }
        }
    }

    #[test]
    fn gimme_roundtrips() {
        let g = Gimme {
            origin: NodeId::new(7),
            req: RequestId::new(NodeId::new(7), 3),
            origin_stamp: VisitStamp(99),
            span: 16,
            trail: vec![NodeId::new(7), NodeId::new(15)],
        };
        match roundtrip(BinaryMsg::Gimme(g.clone())) {
            BinaryMsg::Gimme(g2) => assert_eq!(g2, g),
            other => panic!("wrong variant: {other:?}"),
        }
    }

    #[test]
    fn control_messages_roundtrip() {
        let msgs = [
            BinaryMsg::DirectedProbe {
                origin: NodeId::new(1),
                req: RequestId::new(NodeId::new(1), 2),
                span: 8,
            },
            BinaryMsg::DirectedReply {
                probed: NodeId::new(9),
                stamp: VisitStamp(5),
                req: RequestId::new(NodeId::new(1), 2),
                span: 8,
            },
            BinaryMsg::ProbeReq {
                holder: NodeId::new(0),
                span: 32,
            },
            BinaryMsg::ProbeHit {
                origin: NodeId::new(6),
                req: RequestId::new(NodeId::new(6), 1),
            },
        ];
        for m in msgs {
            let d = format!("{:?}", m);
            let back = roundtrip(m);
            assert_eq!(format!("{back:?}"), d);
        }
    }

    #[test]
    fn regen_messages_roundtrip() {
        let msgs = [
            BinaryMsg::Regen(RegenMsg::Inquiry { generation: 3 }),
            BinaryMsg::Regen(RegenMsg::Reply(RegenReply {
                generation: 3,
                stamp: VisitStamp(77),
                holder: true,
                passed_to: Some(NodeId::new(2)),
                applied_seq: 42,
            })),
            BinaryMsg::Regen(RegenMsg::Reply(RegenReply {
                generation: 0,
                stamp: VisitStamp::NEVER,
                holder: false,
                passed_to: None,
                applied_seq: 0,
            })),
            BinaryMsg::Regen(RegenMsg::Please {
                new_gen: 4,
                known_seq: 100,
                dead: vec![NodeId::new(3), NodeId::new(9)],
            }),
            BinaryMsg::Regen(RegenMsg::Rejoin),
            BinaryMsg::Regen(RegenMsg::Leave),
            BinaryMsg::Regen(RegenMsg::SyncRequest { from_seq: 41 }),
            BinaryMsg::Regen(RegenMsg::SyncReply {
                entries: vec![crate::types::LogEntry {
                    seq: 41,
                    origin: NodeId::new(2),
                    payload: 9,
                    round: 11,
                }],
            }),
            BinaryMsg::Regen(RegenMsg::TokenAck {
                generation: 0x0103,
                transfer_seq: 77,
            }),
            BinaryMsg::Regen(RegenMsg::GenAnnounce { generation: 0x0201 }),
        ];
        for m in msgs {
            let d = format!("{:?}", m);
            let back = roundtrip(m);
            assert_eq!(format!("{back:?}"), d);
        }
    }

    #[test]
    fn encoded_len_matches_encoder() {
        let frame = sample_frame();
        let mut msgs = vec![
            BinaryMsg::Token {
                frame: frame.clone(),
                mode: TokenMode::Rotate,
            },
            BinaryMsg::Token {
                frame: frame.clone(),
                mode: TokenMode::Return,
            },
            BinaryMsg::Token {
                frame: frame.clone(),
                mode: TokenMode::Grant {
                    for_req: RequestId::new(NodeId::new(2), 9),
                    return_to: NodeId::new(4),
                },
            },
            BinaryMsg::Token {
                frame: frame.clone(),
                mode: TokenMode::CleanupHop {
                    for_req: RequestId::new(NodeId::new(2), 9),
                    return_to: NodeId::new(4),
                    trail: vec![NodeId::new(1), NodeId::new(5), NodeId::new(7)],
                },
            },
            BinaryMsg::Gimme(Gimme {
                origin: NodeId::new(7),
                req: RequestId::new(NodeId::new(7), 3),
                origin_stamp: VisitStamp(99),
                span: 16,
                trail: vec![NodeId::new(7), NodeId::new(15)],
            }),
            BinaryMsg::DirectedProbe {
                origin: NodeId::new(1),
                req: RequestId::new(NodeId::new(1), 2),
                span: 8,
            },
            BinaryMsg::DirectedReply {
                probed: NodeId::new(9),
                stamp: VisitStamp(5),
                req: RequestId::new(NodeId::new(1), 2),
                span: 8,
            },
            BinaryMsg::ProbeReq {
                holder: NodeId::new(0),
                span: 32,
            },
            BinaryMsg::ProbeHit {
                origin: NodeId::new(6),
                req: RequestId::new(NodeId::new(6), 1),
            },
            BinaryMsg::Regen(RegenMsg::Inquiry { generation: 3 }),
            BinaryMsg::Regen(RegenMsg::Reply(RegenReply {
                generation: 3,
                stamp: VisitStamp(77),
                holder: true,
                passed_to: Some(NodeId::new(2)),
                applied_seq: 42,
            })),
            BinaryMsg::Regen(RegenMsg::Reply(RegenReply {
                generation: 0,
                stamp: VisitStamp::NEVER,
                holder: false,
                passed_to: None,
                applied_seq: 0,
            })),
            BinaryMsg::Regen(RegenMsg::Please {
                new_gen: 4,
                known_seq: 100,
                dead: vec![NodeId::new(3), NodeId::new(9)],
            }),
            BinaryMsg::Regen(RegenMsg::Rejoin),
            BinaryMsg::Regen(RegenMsg::Leave),
            BinaryMsg::Regen(RegenMsg::SyncRequest { from_seq: 41 }),
            BinaryMsg::Regen(RegenMsg::SyncReply {
                entries: vec![crate::types::LogEntry {
                    seq: 41,
                    origin: NodeId::new(2),
                    payload: 9,
                    round: 11,
                }],
            }),
            BinaryMsg::Regen(RegenMsg::TokenAck {
                generation: 0x0103,
                transfer_seq: 77,
            }),
            BinaryMsg::Regen(RegenMsg::GenAnnounce { generation: 0x0201 }),
        ];
        // An empty token frame too, so the frame-length formula is
        // checked at both extremes, and one whose applied watermark is
        // filled in, as the lazy protocols ship it.
        msgs.push(BinaryMsg::Token {
            frame: Box::new(TokenFrame::new(4)),
            mode: TokenMode::Rotate,
        });
        let mut acked = frame.clone();
        acked.ack(NodeId::new(3), 4, 1);
        msgs.push(BinaryMsg::Token {
            frame: acked,
            mode: TokenMode::Rotate,
        });
        for m in msgs {
            assert_eq!(
                encoded_len(&m),
                encode_binary_msg(&m).len(),
                "encoded_len disagrees with encoder for {m:?}"
            );
        }
    }

    fn naimi_samples() -> Vec<NaimiMsg> {
        vec![
            NaimiMsg::Request {
                origin: NodeId::new(5),
                req: RequestId::new(NodeId::new(5), 8),
                attempt: 2,
                hops: 3,
            },
            NaimiMsg::Token {
                frame: sample_frame(),
                grant_for: None,
            },
            NaimiMsg::Token {
                frame: sample_frame(),
                grant_for: Some(RequestId::new(NodeId::new(1), 4)),
            },
            NaimiMsg::Token {
                frame: Box::new(TokenFrame::new(4)),
                grant_for: None,
            },
            NaimiMsg::Regen(RegenMsg::Inquiry { generation: 9 }),
            NaimiMsg::Regen(RegenMsg::Reply(RegenReply {
                generation: 9,
                stamp: VisitStamp(31),
                holder: true,
                passed_to: Some(NodeId::new(6)),
                applied_seq: 17,
            })),
            NaimiMsg::Regen(RegenMsg::Please {
                new_gen: 10,
                known_seq: 55,
                dead: vec![NodeId::new(0)],
            }),
            NaimiMsg::Regen(RegenMsg::Rejoin),
            NaimiMsg::Regen(RegenMsg::Leave),
            NaimiMsg::Regen(RegenMsg::SyncRequest { from_seq: 3 }),
            NaimiMsg::Regen(RegenMsg::SyncReply {
                entries: vec![crate::types::LogEntry {
                    seq: 3,
                    origin: NodeId::new(4),
                    payload: 12,
                    round: 2,
                }],
            }),
            NaimiMsg::Regen(RegenMsg::TokenAck {
                generation: 1,
                transfer_seq: 44,
            }),
            NaimiMsg::Regen(RegenMsg::GenAnnounce { generation: 2 }),
        ]
    }

    #[test]
    fn naimi_messages_roundtrip() {
        for m in naimi_samples() {
            let d = format!("{m:?}");
            let back = decode_naimi_msg(&encode_naimi_msg(&m)).expect("roundtrip");
            assert_eq!(format!("{back:?}"), d);
        }
    }

    #[test]
    fn naimi_encoded_len_matches_encoder() {
        for m in naimi_samples() {
            assert_eq!(
                naimi_encoded_len(&m),
                encode_naimi_msg(&m).len(),
                "naimi_encoded_len disagrees with encoder for {m:?}"
            );
        }
    }

    #[test]
    fn naimi_truncated_input_is_rejected() {
        let msg = NaimiMsg::Token {
            frame: sample_frame(),
            grant_for: Some(RequestId::new(NodeId::new(1), 4)),
        };
        let bytes = encode_naimi_msg(&msg);
        for cut in [0, 1, 5, bytes.len() - 1] {
            assert!(decode_naimi_msg(&bytes[..cut]).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn naimi_unknown_tag_is_rejected() {
        // Binary-only tags are foreign to the Naimi framing and vice versa.
        match decode_naimi_msg(&[TAG_GIMME, 0, 0, 0, 0]) {
            Err(CodecError::BadTag(t)) => assert_eq!(t, TAG_GIMME),
            other => panic!("expected BadTag, got {other:?}"),
        }
        match decode_binary_msg(&[TAG_NAIMI_REQUEST, 0, 0, 0, 0]) {
            Err(CodecError::BadTag(t)) => assert_eq!(t, TAG_NAIMI_REQUEST),
            other => panic!("expected BadTag, got {other:?}"),
        }
    }

    #[test]
    fn known_tag_lists_match_the_decoders() {
        // Every listed tag must be recognized (anything but BadTag), and
        // every unlisted tag must be BadTag — the lists are the decoders.
        for tag in 0u8..=u8::MAX {
            let bin = decode_binary_msg(&[tag]);
            let listed = known_binary_tags().contains(&tag);
            assert_eq!(
                !matches!(bin, Err(CodecError::BadTag(_))),
                listed,
                "binary decoder disagrees with known_binary_tags for {tag:#x}"
            );
            let nai = decode_naimi_msg(&[tag]);
            let listed = known_naimi_tags().contains(&tag);
            assert_eq!(
                !matches!(nai, Err(CodecError::BadTag(_))),
                listed,
                "naimi decoder disagrees with known_naimi_tags for {tag:#x}"
            );
            let ring = decode_ring_msg(&[tag]);
            let listed = known_ring_tags().contains(&tag);
            assert_eq!(
                !matches!(ring, Err(CodecError::BadTag(_))),
                listed,
                "ring decoder disagrees with known_ring_tags for {tag:#x}"
            );
            let sea = decode_search_msg(&[tag]);
            let listed = known_search_tags().contains(&tag);
            assert_eq!(
                !matches!(sea, Err(CodecError::BadTag(_))),
                listed,
                "search decoder disagrees with known_search_tags for {tag:#x}"
            );
        }
    }

    fn ring_samples() -> Vec<RingMsg> {
        vec![
            RingMsg::Token(sample_frame()),
            RingMsg::Token(Box::new(TokenFrame::new(4))),
            RingMsg::Regen(RegenMsg::Inquiry { generation: 6 }),
            RingMsg::Regen(RegenMsg::Reply(RegenReply {
                generation: 6,
                stamp: VisitStamp(12),
                holder: false,
                passed_to: None,
                applied_seq: 4,
            })),
            RingMsg::Regen(RegenMsg::Please {
                new_gen: 7,
                known_seq: 2,
                dead: vec![NodeId::new(2)],
            }),
            RingMsg::Regen(RegenMsg::TokenAck {
                generation: 7,
                transfer_seq: 5,
            }),
            RingMsg::Regen(RegenMsg::GenAnnounce { generation: 7 }),
        ]
    }

    fn search_samples() -> Vec<SearchMsg> {
        vec![
            SearchMsg::Token {
                frame: sample_frame(),
                grant_for: None,
            },
            SearchMsg::Token {
                frame: sample_frame(),
                grant_for: Some(RequestId::new(NodeId::new(3), 2)),
            },
            SearchMsg::Token {
                frame: Box::new(TokenFrame::new(4)),
                grant_for: None,
            },
            SearchMsg::Gimme {
                origin: NodeId::new(6),
                req: RequestId::new(NodeId::new(6), 9),
                hops: 4,
            },
            SearchMsg::Regen(RegenMsg::SyncRequest { from_seq: 1 }),
            SearchMsg::Regen(RegenMsg::SyncReply {
                entries: vec![crate::types::LogEntry {
                    seq: 1,
                    origin: NodeId::new(0),
                    payload: 5,
                    round: 1,
                }],
            }),
            SearchMsg::Regen(RegenMsg::Rejoin),
            SearchMsg::Regen(RegenMsg::Leave),
        ]
    }

    #[test]
    fn ring_messages_roundtrip_and_len_matches() {
        for m in ring_samples() {
            let bytes = encode_ring_msg(&m);
            assert_eq!(ring_encoded_len(&m), bytes.len(), "len for {m:?}");
            let back = decode_ring_msg(&bytes).expect("roundtrip");
            assert_eq!(format!("{back:?}"), format!("{m:?}"));
        }
    }

    #[test]
    fn search_messages_roundtrip_and_len_matches() {
        for m in search_samples() {
            let bytes = encode_search_msg(&m);
            assert_eq!(search_encoded_len(&m), bytes.len(), "len for {m:?}");
            let back = decode_search_msg(&bytes).expect("roundtrip");
            assert_eq!(format!("{back:?}"), format!("{m:?}"));
        }
    }

    #[test]
    fn ring_and_search_truncated_inputs_are_rejected() {
        let ring_bytes = encode_ring_msg(&RingMsg::Token(sample_frame()));
        let search_bytes = encode_search_msg(&SearchMsg::Token {
            frame: sample_frame(),
            grant_for: Some(RequestId::new(NodeId::new(1), 4)),
        });
        for cut in [0, 1, 5] {
            assert!(decode_ring_msg(&ring_bytes[..cut]).is_err(), "ring cut {cut}");
            assert!(
                decode_search_msg(&search_bytes[..cut]).is_err(),
                "search cut {cut}"
            );
        }
        assert!(decode_ring_msg(&ring_bytes[..ring_bytes.len() - 1]).is_err());
        assert!(decode_search_msg(&search_bytes[..search_bytes.len() - 1]).is_err());
    }

    #[test]
    fn truncated_input_is_rejected() {
        let msg = BinaryMsg::Token {
            frame: sample_frame(),
            mode: TokenMode::Rotate,
        };
        let bytes = encode_binary_msg(&msg);
        for cut in [0, 1, 5, bytes.len() - 1] {
            assert!(decode_binary_msg(&bytes[..cut]).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn unknown_tag_is_rejected() {
        match decode_binary_msg(&[0xff]) {
            Err(CodecError::BadTag(0xff)) => {}
            other => panic!("expected BadTag, got {other:?}"),
        }
    }

    #[test]
    fn errors_display() {
        assert_eq!(CodecError::Truncated.to_string(), "message truncated");
        assert!(CodecError::BadTag(7).to_string().contains("0x7"));
    }
}
