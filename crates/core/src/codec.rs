//! Wire encoding for every protocol message family, so the protocols can
//! cross a real network.
//!
//! The simulated transports move Rust values; a deployment moves bytes. This
//! module defines a compact little-endian framing for every System Ring,
//! System Search, System BinarySearch and Naimi–Tréhel message.
//! Round-tripping is exact: `decode_binary_msg(encode_binary_msg(m)) == m`
//! for every message, and likewise for the other three pairs. The
//! regeneration sub-protocol shares one encoding (tags `0x20..=0x28`)
//! across all four framings, and System Search and Naimi–Tréhel share the
//! lazy token's.
//!
//! Each layout is written once, as a [`WireMsg`] encoder into a [`Sink`]
//! and its decoder. A `Vec<u8>` sink collects the bytes; the counting sink
//! behind [`measure`] only adds up their number, so a message's size is its
//! encoder run into the counter and cannot drift from the bytes. Every
//! sequence on this wire is a `u32` count of [`Fixed`]-width elements, so
//! the counter sizes a frame of any length without walking it. The
//! `known_*_tags` lists are computed from the decoders: the tags each one
//! does not answer with [`CodecError::BadTag`].

use std::sync::OnceLock;

use atp_util::buf::Buf;

use atp_net::NodeId;

use crate::binary::{BinaryMsg, Gimme, TokenMode};
use crate::naimi::NaimiMsg;
use crate::regen::{RegenMsg, RegenReply};
use crate::ring::RingMsg;
use crate::search::SearchMsg;
use crate::token::TokenFrame;
use crate::types::{LogEntry, RequestId, VisitStamp};

/// Why decoding failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CodecError {
    /// The buffer ended before the message did.
    Truncated,
    /// An unknown message/mode tag was encountered.
    BadTag(u8),
    /// The frame is complete but describes a value no encoder writes (a
    /// token frame whose carried run is out of order, or whose satisfied
    /// window or applied watermark breaks its own bounds).
    Malformed,
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "message truncated"),
            CodecError::BadTag(t) => write!(f, "unknown tag {t:#x}"),
            CodecError::Malformed => write!(f, "message malformed"),
        }
    }
}

impl std::error::Error for CodecError {}

const TAG_TOKEN_ROTATE: u8 = 0x01;
const TAG_TOKEN_GRANT: u8 = 0x02;
const TAG_TOKEN_CLEANUP: u8 = 0x03;
const TAG_TOKEN_RETURN: u8 = 0x04;
const TAG_GIMME: u8 = 0x10;
// 0x11–0x14: retired words no node sends (see `BinaryMsg`); they still
// decode because the benchmark's codec probe constructs them.
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
const TAG_SEARCH_TOKEN_GRANT: u8 = TAG_SEARCH_TOKEN_LAZY + 1;
const TAG_SEARCH_GIMME: u8 = 0x3a;
const TAG_NAIMI_REQUEST: u8 = 0x40;
const TAG_NAIMI_TOKEN_LAZY: u8 = 0x41;
const TAG_NAIMI_TOKEN_GRANT: u8 = TAG_NAIMI_TOKEN_LAZY + 1;
const TAG_SHARD_ENVELOPE: u8 = 0x50;

/// Where an encoder writes: a `Vec<u8>` collects the bytes, the counter
/// behind [`measure`] only adds up how many there are.
pub trait Sink: Sized {
    /// Writes raw bytes.
    fn bytes(&mut self, b: &[u8]);
    /// Writes a `u32` count, then every item.
    fn seq<'a, T: Fixed + 'a>(&mut self, items: impl ExactSizeIterator<Item = &'a T>) {
        (items.len() as u32).put(self);
        for item in items {
            item.put(self);
        }
    }
}

impl Sink for Vec<u8> {
    fn bytes(&mut self, b: &[u8]) {
        self.extend_from_slice(b);
    }
}

/// The counting sink: a sequence costs its count plus `len · WIDTH`, added
/// without visiting the items.
pub(crate) struct Len(usize);

impl Sink for Len {
    fn bytes(&mut self, b: &[u8]) {
        self.0 += b.len();
    }
    fn seq<'a, T: Fixed + 'a>(&mut self, items: impl ExactSizeIterator<Item = &'a T>) {
        self.0 += 4 + items.len() * T::WIDTH;
    }
}

/// The exact number of bytes `encode` writes, counted without writing them.
pub(crate) fn measure(encode: impl FnOnce(&mut Len)) -> usize {
    let mut len = Len(0);
    encode(&mut len);
    len.0
}

/// A value of constant encoded width: every field and every sequence
/// element on this wire.
pub trait Fixed: Sized {
    /// Encoded width in bytes.
    const WIDTH: usize;
    /// Writes the value.
    fn put(&self, s: &mut impl Sink);
    /// Reads the value; the caller has checked that `WIDTH` bytes remain.
    fn read(buf: &mut impl Buf) -> Self;
}

/// Little-endian integers.
macro_rules! fixed_int {
    ($($int:ty),*) => {$(
        impl Fixed for $int {
            const WIDTH: usize = std::mem::size_of::<$int>();
            fn put(&self, s: &mut impl Sink) {
                s.bytes(&self.to_le_bytes());
            }
            fn read(buf: &mut impl Buf) -> Self {
                <$int>::from_le_bytes(buf.take(Self::WIDTH).try_into().expect("width"))
            }
        }
    )*};
}

fixed_int!(u8, u16, u32, u64);

impl Fixed for NodeId {
    const WIDTH: usize = 4;
    fn put(&self, s: &mut impl Sink) {
        self.raw().put(s);
    }
    fn read(buf: &mut impl Buf) -> Self {
        NodeId::new(u32::read(buf))
    }
}

impl Fixed for VisitStamp {
    const WIDTH: usize = 8;
    fn put(&self, s: &mut impl Sink) {
        self.value().put(s);
    }
    fn read(buf: &mut impl Buf) -> Self {
        VisitStamp(u64::read(buf))
    }
}

impl Fixed for RequestId {
    const WIDTH: usize = 4 + 8;
    fn put(&self, s: &mut impl Sink) {
        self.origin.put(s);
        self.seq.put(s);
    }
    fn read(buf: &mut impl Buf) -> Self {
        RequestId::new(NodeId::read(buf), u64::read(buf))
    }
}

impl Fixed for LogEntry {
    const WIDTH: usize = 8 + 4 + 8 + 8;
    fn put(&self, s: &mut impl Sink) {
        self.seq.put(s);
        self.origin.put(s);
        self.payload.put(s);
        self.round.put(s);
    }
    fn read(buf: &mut impl Buf) -> Self {
        LogEntry {
            seq: u64::read(buf),
            origin: NodeId::read(buf),
            payload: u64::read(buf),
            round: u64::read(buf),
        }
    }
}

/// Reads one fixed-width value: [`CodecError::Truncated`] when fewer than
/// `T::WIDTH` bytes remain.
pub(crate) fn get<T: Fixed>(buf: &mut impl Buf) -> Result<T, CodecError> {
    if buf.remaining() < T::WIDTH {
        return Err(CodecError::Truncated);
    }
    Ok(T::read(buf))
}

/// Reads a `u32` count and that many elements: [`CodecError::Truncated`],
/// before allocating anything, when the buffer cannot hold them all.
pub(crate) fn get_seq<T: Fixed>(buf: &mut impl Buf) -> Result<Vec<T>, CodecError> {
    let n = get::<u32>(buf)? as usize;
    if buf.remaining() / T::WIDTH < n {
        return Err(CodecError::Truncated);
    }
    Ok((0..n).map(|_| T::read(buf)).collect())
}

/// A message family with a wire layout: one encoder and one decoder, from
/// which the bytes, the size and the tag list all follow.
pub trait WireMsg: Sized {
    /// Writes the message, tag first.
    fn put(&self, s: &mut impl Sink);
    /// Reads a message from the front of `buf`; a typed [`CodecError`] on
    /// truncated, unrecognized or malformed input.
    fn get(buf: &mut &[u8]) -> Result<Self, CodecError>;
}

/// Encodes `msg` into a standalone byte frame.
pub(crate) fn to_bytes<M: WireMsg>(msg: &M) -> Vec<u8> {
    let mut buf = Vec::with_capacity(measure(|s| msg.put(s)));
    msg.put(&mut buf);
    buf
}

/// Decodes a frame written by [`to_bytes`].
pub(crate) fn from_bytes<M: WireMsg>(mut bytes: &[u8]) -> Result<M, CodecError> {
    M::get(&mut bytes)
}

/// Every tag `M`'s decoder recognizes, ascending: the bytes it does not
/// answer with [`CodecError::BadTag`] when one is the whole frame.
fn accepted_tags<M: WireMsg>() -> Vec<u8> {
    (0..=u8::MAX)
        .filter(|&tag| !matches!(from_bytes::<M>(&[tag]), Err(CodecError::BadTag(_))))
        .collect()
}

/// Every tag byte [`decode_binary_msg`] accepts, in ascending order.
///
/// Negative tests derive their "unknown tag" corpus from the complement of
/// this list. It is computed from the decoder, so a frame added to the codec
/// is in it at once.
pub fn known_binary_tags() -> &'static [u8] {
    static TAGS: OnceLock<Vec<u8>> = OnceLock::new();
    TAGS.get_or_init(accepted_tags::<BinaryMsg>)
}

/// Every tag byte [`decode_ring_msg`] accepts, in ascending order.
pub fn known_ring_tags() -> &'static [u8] {
    static TAGS: OnceLock<Vec<u8>> = OnceLock::new();
    TAGS.get_or_init(accepted_tags::<RingMsg>)
}

/// Every tag byte [`decode_search_msg`] accepts, in ascending order.
pub fn known_search_tags() -> &'static [u8] {
    static TAGS: OnceLock<Vec<u8>> = OnceLock::new();
    TAGS.get_or_init(accepted_tags::<SearchMsg>)
}

/// Every tag byte [`decode_naimi_msg`] accepts, in ascending order.
pub fn known_naimi_tags() -> &'static [u8] {
    static TAGS: OnceLock<Vec<u8>> = OnceLock::new();
    TAGS.get_or_init(accepted_tags::<NaimiMsg>)
}

/// Every tag byte [`decode_shard_frame`] accepts.
pub fn known_shard_tags() -> &'static [u8] {
    &[TAG_SHARD_ENVELOPE]
}

/// The shard envelope's head: tag, then the little-endian shard id.
fn put_shard_head(s: &mut impl Sink, shard: u16) {
    TAG_SHARD_ENVELOPE.put(s);
    shard.put(s);
}

/// Wraps an already-encoded protocol frame in a shard envelope so one
/// byte stream can multiplex `K` independent protocol instances: tag,
/// little-endian shard id, inner frame.
pub fn encode_shard_frame(shard: u16, inner: &[u8]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(shard_frame_encoded_len(inner.len()));
    put_shard_head(&mut buf, shard);
    buf.extend_from_slice(inner);
    buf
}

/// Exact byte length [`encode_shard_frame`] produces for an inner frame
/// of `inner_len` bytes.
pub fn shard_frame_encoded_len(inner_len: usize) -> usize {
    measure(|s| put_shard_head(s, 0)) + inner_len
}

/// Splits a shard envelope into `(shard id, inner frame bytes)`. The
/// inner frame is *not* decoded — the host routes it to the shard's
/// protocol instance, whose own decoder treats it as untrusted input.
///
/// # Errors
///
/// Returns [`CodecError::BadTag`] for a non-envelope frame and
/// [`CodecError::Truncated`] when the shard id is cut short.
pub fn decode_shard_frame(mut bytes: &[u8]) -> Result<(u16, &[u8]), CodecError> {
    let tag = get::<u8>(&mut bytes)?;
    if tag != TAG_SHARD_ENVELOPE {
        return Err(CodecError::BadTag(tag));
    }
    let shard = get::<u16>(&mut bytes)?;
    Ok((shard, bytes))
}

/// Encodes a regeneration message (tag + body). The failure-handling
/// sub-protocol is identical in all four framings, so its bytes are too.
fn put_regen(s: &mut impl Sink, r: &RegenMsg) {
    match r {
        RegenMsg::Inquiry { generation } => {
            TAG_REGEN_INQUIRY.put(s);
            generation.put(s);
        }
        RegenMsg::Reply(reply) => {
            TAG_REGEN_REPLY.put(s);
            reply.generation.put(s);
            reply.stamp.put(s);
            (reply.holder as u8).put(s);
            match reply.passed_to {
                Some(n) => {
                    1u8.put(s);
                    n.put(s);
                }
                None => 0u8.put(s),
            }
            reply.applied_seq.put(s);
        }
        RegenMsg::Please {
            new_gen,
            known_seq,
            dead,
        } => {
            TAG_REGEN_PLEASE.put(s);
            new_gen.put(s);
            known_seq.put(s);
            s.seq(dead.iter());
        }
        RegenMsg::Rejoin => TAG_REGEN_REJOIN.put(s),
        RegenMsg::Leave => TAG_REGEN_LEAVE.put(s),
        RegenMsg::SyncRequest { from_seq } => {
            TAG_REGEN_SYNC_REQ.put(s);
            from_seq.put(s);
        }
        RegenMsg::SyncReply { entries } => {
            TAG_REGEN_SYNC_REPLY.put(s);
            s.seq(entries.iter());
        }
        RegenMsg::TokenAck {
            generation,
            transfer_seq,
        } => {
            TAG_REGEN_TOKEN_ACK.put(s);
            generation.put(s);
            transfer_seq.put(s);
        }
        RegenMsg::GenAnnounce { generation } => {
            TAG_REGEN_GEN_ANNOUNCE.put(s);
            generation.put(s);
        }
    }
}

/// Decodes the body of a regeneration message tagged `tag`; any tag
/// outside `0x20..=0x28` is the framing's last resort, so it is a
/// [`CodecError::BadTag`].
///
/// A `SyncReply` run is taken as it comes: whether it extends the
/// receiver's prefix is the receiver's question (see `handle_regen`).
fn get_regen(tag: u8, buf: &mut &[u8]) -> Result<RegenMsg, CodecError> {
    Ok(match tag {
        TAG_REGEN_INQUIRY => RegenMsg::Inquiry {
            generation: get(buf)?,
        },
        TAG_REGEN_REPLY => RegenMsg::Reply(RegenReply {
            generation: get(buf)?,
            stamp: get(buf)?,
            holder: get::<u8>(buf)? != 0,
            passed_to: match get::<u8>(buf)? {
                0 => None,
                _ => Some(get(buf)?),
            },
            applied_seq: get(buf)?,
        }),
        TAG_REGEN_PLEASE => RegenMsg::Please {
            new_gen: get(buf)?,
            known_seq: get(buf)?,
            dead: get_seq(buf)?,
        },
        TAG_REGEN_REJOIN => RegenMsg::Rejoin,
        TAG_REGEN_LEAVE => RegenMsg::Leave,
        TAG_REGEN_SYNC_REQ => RegenMsg::SyncRequest {
            from_seq: get(buf)?,
        },
        TAG_REGEN_SYNC_REPLY => RegenMsg::SyncReply {
            entries: get_seq(buf)?,
        },
        TAG_REGEN_TOKEN_ACK => RegenMsg::TokenAck {
            generation: get(buf)?,
            transfer_seq: get(buf)?,
        },
        TAG_REGEN_GEN_ANNOUNCE => RegenMsg::GenAnnounce {
            generation: get(buf)?,
        },
        other => return Err(CodecError::BadTag(other)),
    })
}

/// The lazy token's framing, shared by System Search and Naimi–Tréhel:
/// the family's `lazy` tag for a token passed on unasked, the next tag up
/// for one that grants a request, whose id follows; then the frame.
fn put_lazy_token(s: &mut impl Sink, lazy: u8, frame: &TokenFrame, grant: Option<RequestId>) {
    match grant {
        None => lazy.put(s),
        Some(req) => {
            (lazy + 1).put(s);
            req.put(s);
        }
    }
    frame.encode(s);
}

/// A lazy token off the wire: the frame and the request it grants.
type LazyToken = (Box<TokenFrame>, Option<RequestId>);

/// Decodes the body of a lazy token frame tagged `tag`.
fn get_lazy_token(tag: u8, lazy: u8, buf: &mut &[u8]) -> Result<LazyToken, CodecError> {
    let grant = (tag != lazy).then(|| get(buf)).transpose()?;
    Ok((Box::new(TokenFrame::decode(buf)?), grant))
}

impl WireMsg for BinaryMsg {
    fn put(&self, s: &mut impl Sink) {
        match self {
            BinaryMsg::Token { frame, mode } => {
                match mode {
                    TokenMode::Rotate => TAG_TOKEN_ROTATE.put(s),
                    TokenMode::Return => TAG_TOKEN_RETURN.put(s),
                    TokenMode::Grant { for_req, return_to } => {
                        TAG_TOKEN_GRANT.put(s);
                        for_req.put(s);
                        return_to.put(s);
                    }
                    TokenMode::CleanupHop {
                        for_req,
                        return_to,
                        trail,
                    } => {
                        TAG_TOKEN_CLEANUP.put(s);
                        for_req.put(s);
                        return_to.put(s);
                        s.seq(trail.iter());
                    }
                }
                frame.encode(s);
            }
            BinaryMsg::Gimme(g) => {
                TAG_GIMME.put(s);
                g.origin.put(s);
                g.req.put(s);
                g.origin_stamp.put(s);
                g.span.put(s);
                s.seq(g.trail.iter());
            }
            BinaryMsg::DirectedProbe { origin, req, span } => {
                TAG_DIRECTED_PROBE.put(s);
                origin.put(s);
                req.put(s);
                span.put(s);
            }
            BinaryMsg::DirectedReply {
                probed,
                stamp,
                req,
                span,
            } => {
                TAG_DIRECTED_REPLY.put(s);
                probed.put(s);
                stamp.put(s);
                req.put(s);
                span.put(s);
            }
            BinaryMsg::ProbeReq { holder, span } => {
                TAG_PROBE_REQ.put(s);
                holder.put(s);
                span.put(s);
            }
            BinaryMsg::ProbeHit { origin, req } => {
                TAG_PROBE_HIT.put(s);
                origin.put(s);
                req.put(s);
            }
            BinaryMsg::Regen(r) => put_regen(s, r),
        }
    }

    fn get(buf: &mut &[u8]) -> Result<Self, CodecError> {
        let tag = get::<u8>(buf)?;
        Ok(match tag {
            TAG_TOKEN_ROTATE | TAG_TOKEN_GRANT | TAG_TOKEN_CLEANUP | TAG_TOKEN_RETURN => {
                let mode = match tag {
                    TAG_TOKEN_ROTATE => TokenMode::Rotate,
                    TAG_TOKEN_RETURN => TokenMode::Return,
                    TAG_TOKEN_GRANT => TokenMode::Grant {
                        for_req: get(buf)?,
                        return_to: get(buf)?,
                    },
                    _ => TokenMode::CleanupHop {
                        for_req: get(buf)?,
                        return_to: get(buf)?,
                        trail: get_seq(buf)?,
                    },
                };
                let frame = Box::new(TokenFrame::decode(buf)?);
                BinaryMsg::Token { frame, mode }
            }
            TAG_GIMME => BinaryMsg::Gimme(Gimme {
                origin: get(buf)?,
                req: get(buf)?,
                origin_stamp: get(buf)?,
                span: get(buf)?,
                trail: get_seq(buf)?,
            }),
            TAG_DIRECTED_PROBE => BinaryMsg::DirectedProbe {
                origin: get(buf)?,
                req: get(buf)?,
                span: get(buf)?,
            },
            TAG_DIRECTED_REPLY => BinaryMsg::DirectedReply {
                probed: get(buf)?,
                stamp: get(buf)?,
                req: get(buf)?,
                span: get(buf)?,
            },
            TAG_PROBE_REQ => BinaryMsg::ProbeReq {
                holder: get(buf)?,
                span: get(buf)?,
            },
            TAG_PROBE_HIT => BinaryMsg::ProbeHit {
                origin: get(buf)?,
                req: get(buf)?,
            },
            other => BinaryMsg::Regen(get_regen(other, buf)?),
        })
    }
}

impl WireMsg for RingMsg {
    fn put(&self, s: &mut impl Sink) {
        match self {
            RingMsg::Token(frame) => {
                TAG_RING_TOKEN.put(s);
                frame.encode(s);
            }
            RingMsg::Regen(r) => put_regen(s, r),
        }
    }

    fn get(buf: &mut &[u8]) -> Result<Self, CodecError> {
        Ok(match get::<u8>(buf)? {
            TAG_RING_TOKEN => RingMsg::Token(Box::new(TokenFrame::decode(buf)?)),
            other => RingMsg::Regen(get_regen(other, buf)?),
        })
    }
}

impl WireMsg for SearchMsg {
    fn put(&self, s: &mut impl Sink) {
        match self {
            SearchMsg::Token { frame, grant_for } => {
                put_lazy_token(s, TAG_SEARCH_TOKEN_LAZY, frame, *grant_for);
            }
            SearchMsg::Gimme { origin, req, hops } => {
                TAG_SEARCH_GIMME.put(s);
                origin.put(s);
                req.put(s);
                hops.put(s);
            }
            SearchMsg::Regen(r) => put_regen(s, r),
        }
    }

    fn get(buf: &mut &[u8]) -> Result<Self, CodecError> {
        Ok(match get::<u8>(buf)? {
            tag @ (TAG_SEARCH_TOKEN_LAZY | TAG_SEARCH_TOKEN_GRANT) => {
                let (frame, grant_for) = get_lazy_token(tag, TAG_SEARCH_TOKEN_LAZY, buf)?;
                SearchMsg::Token { frame, grant_for }
            }
            TAG_SEARCH_GIMME => SearchMsg::Gimme {
                origin: get(buf)?,
                req: get(buf)?,
                hops: get(buf)?,
            },
            other => SearchMsg::Regen(get_regen(other, buf)?),
        })
    }
}

impl WireMsg for NaimiMsg {
    fn put(&self, s: &mut impl Sink) {
        match self {
            NaimiMsg::Request {
                origin,
                req,
                attempt,
                hops,
            } => {
                TAG_NAIMI_REQUEST.put(s);
                origin.put(s);
                req.put(s);
                attempt.put(s);
                hops.put(s);
            }
            NaimiMsg::Token { frame, grant_for } => {
                put_lazy_token(s, TAG_NAIMI_TOKEN_LAZY, frame, *grant_for);
            }
            NaimiMsg::Regen(r) => put_regen(s, r),
        }
    }

    fn get(buf: &mut &[u8]) -> Result<Self, CodecError> {
        Ok(match get::<u8>(buf)? {
            TAG_NAIMI_REQUEST => NaimiMsg::Request {
                origin: get(buf)?,
                req: get(buf)?,
                attempt: get(buf)?,
                hops: get(buf)?,
            },
            tag @ (TAG_NAIMI_TOKEN_LAZY | TAG_NAIMI_TOKEN_GRANT) => {
                let (frame, grant_for) = get_lazy_token(tag, TAG_NAIMI_TOKEN_LAZY, buf)?;
                NaimiMsg::Token { frame, grant_for }
            }
            other => NaimiMsg::Regen(get_regen(other, buf)?),
        })
    }
}

/// Encodes a [`BinaryMsg`] into a standalone byte frame.
///
/// # Examples
///
/// ```rust
/// use atp_core::{encode_binary_msg, decode_binary_msg, BinaryMsg, Gimme, RequestId, VisitStamp};
/// use atp_net::NodeId;
///
/// let origin = NodeId::new(3);
/// let msg = BinaryMsg::Gimme(Gimme {
///     origin,
///     req: RequestId::new(origin, 7),
///     origin_stamp: VisitStamp(2),
///     span: 4,
///     trail: vec![origin],
/// });
/// let bytes = encode_binary_msg(&msg);
/// let back = decode_binary_msg(&bytes)?;
/// assert!(matches!(back, BinaryMsg::Gimme(g) if g.span == 4));
/// # Ok::<(), atp_core::CodecError>(())
/// ```
pub fn encode_binary_msg(msg: &BinaryMsg) -> Vec<u8> {
    to_bytes(msg)
}

/// Decodes a frame previously produced by [`encode_binary_msg`].
///
/// # Errors
///
/// [`CodecError::Truncated`] if the buffer is too short,
/// [`CodecError::BadTag`] on an unrecognized tag byte and
/// [`CodecError::Malformed`] on a token frame no encoder writes.
pub fn decode_binary_msg(bytes: &[u8]) -> Result<BinaryMsg, CodecError> {
    from_bytes(bytes)
}

/// Encodes a [`RingMsg`] into a standalone byte frame.
pub fn encode_ring_msg(msg: &RingMsg) -> Vec<u8> {
    to_bytes(msg)
}

/// Decodes a frame previously produced by [`encode_ring_msg`]; errors as
/// [`decode_binary_msg`].
pub fn decode_ring_msg(bytes: &[u8]) -> Result<RingMsg, CodecError> {
    from_bytes(bytes)
}

/// Encodes a [`SearchMsg`] into a standalone byte frame.
pub fn encode_search_msg(msg: &SearchMsg) -> Vec<u8> {
    to_bytes(msg)
}

/// Decodes a frame previously produced by [`encode_search_msg`]; errors as
/// [`decode_binary_msg`].
pub fn decode_search_msg(bytes: &[u8]) -> Result<SearchMsg, CodecError> {
    from_bytes(bytes)
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
    to_bytes(msg)
}

/// Decodes a frame previously produced by [`encode_naimi_msg`]; errors as
/// [`decode_binary_msg`].
pub fn decode_naimi_msg(bytes: &[u8]) -> Result<NaimiMsg, CodecError> {
    from_bytes(bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn len_of<M: WireMsg>(msg: &M) -> usize {
        measure(|s| msg.put(s))
    }

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
                BinaryMsg::Token {
                    frame: f2,
                    mode: m2,
                } => {
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
                len_of(&m),
                encode_binary_msg(&m).len(),
                "the counter disagrees with encoder for {m:?}"
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
                len_of(&m),
                encode_naimi_msg(&m).len(),
                "the counter disagrees with encoder for {m:?}"
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
    fn known_tag_lists_pin_the_wire_tags() {
        // The lists are computed from the decoders; this pins what the
        // decoders accept, so a tag cannot drop off the wire unnoticed.
        let regen: Vec<u8> = (0x20..=0x28).collect();
        let with = |own: &[u8]| {
            let mut tags = [own, &regen].concat();
            tags.sort_unstable();
            tags
        };
        let binary = [0x01, 0x02, 0x03, 0x04, 0x10, 0x11, 0x12, 0x13, 0x14];
        assert_eq!(known_binary_tags(), with(&binary));
        assert_eq!(known_ring_tags(), with(&[0x30]));
        assert_eq!(known_search_tags(), with(&[0x38, 0x39, 0x3a]));
        assert_eq!(known_naimi_tags(), with(&[0x40, 0x41, 0x42]));
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
            assert_eq!(len_of(&m), bytes.len(), "len for {m:?}");
            let back = decode_ring_msg(&bytes).expect("roundtrip");
            assert_eq!(format!("{back:?}"), format!("{m:?}"));
        }
    }

    #[test]
    fn search_messages_roundtrip_and_len_matches() {
        for m in search_samples() {
            let bytes = encode_search_msg(&m);
            assert_eq!(len_of(&m), bytes.len(), "len for {m:?}");
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
            assert!(
                decode_ring_msg(&ring_bytes[..cut]).is_err(),
                "ring cut {cut}"
            );
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
        assert_eq!(CodecError::Malformed.to_string(), "message malformed");
    }
}
