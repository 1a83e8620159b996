//! The tag-driven fuzz corpus, shared between the codec property tests
//! (`tests/codec_roundtrip.rs`) and the streaming-framer torn-read tests
//! (`tests/framing.rs`).
//!
//! The corpus is anchored to the codec's own exhaustive tag lists
//! (`known_*_tags()`): for every listed tag of every framing there is
//! exactly one generator arm, and `codec_roundtrip`'s
//! `corpus_covers_every_known_tag` proves each arm emits its tag. A message
//! type added to the codec without a generator arm panics the corpus
//! immediately — new frames cannot dodge roundtrip, mutation, truncation,
//! or torn-read coverage.
#![allow(dead_code)] // Each including test crate uses a different subset.

use adaptive_token_passing::core::{
    encode_binary_msg, encode_naimi_msg, encode_ring_msg, encode_search_msg, known_binary_tags,
    known_naimi_tags, known_ring_tags, known_search_tags, BinaryMsg, Gimme, LogEntry, NaimiMsg,
    RegenMsg, RegenReply, RequestId, RingMsg, SearchMsg, TokenFrame, TokenMode, VisitStamp,
};
use adaptive_token_passing::net::NodeId;
use adaptive_token_passing::util::check::Gen;
use adaptive_token_passing::util::rng::Rng;

pub fn arb_node(g: &mut Gen) -> NodeId {
    NodeId::new(g.gen_range(0u32..1024))
}

pub fn arb_req(g: &mut Gen) -> RequestId {
    let n = arb_node(g);
    RequestId::new(n, g.gen_range(0..u64::MAX))
}

pub fn arb_stamp(g: &mut Gen) -> VisitStamp {
    VisitStamp(g.gen_range(0..u64::MAX))
}

pub fn arb_frame(g: &mut Gen) -> TokenFrame {
    let cap = g.gen_range(1usize..6);
    let appends = g.vec(0..8, |g| (arb_node(g), g.gen_range(0u64..100)));
    let satisfied = g.vec(0..6, |g| (arb_node(g), g.gen_range(0u64..50)));
    let excluded = g.vec(0..4, arb_node);
    let mut frame = TokenFrame::new(cap);
    for (origin, payload) in appends {
        frame.on_possess(origin, true);
        frame.append(origin, payload);
    }
    for (origin, seq) in satisfied {
        frame.mark_satisfied(RequestId::new(origin, seq));
    }
    for node in excluded {
        frame.exclude(node);
    }
    // The applied watermark, as a lazy token carries it: `cap` nodes.
    let acks = g.vec(0..3, |g| {
        (g.gen_range(0..cap as u32), g.gen_range(0u64..10))
    });
    for (node, applied) in acks {
        frame.ack(NodeId::new(node), cap, applied);
    }
    frame
}

/// The regen frame behind one of the shared `0x20`-block tags.
pub fn regen_msg_for_tag(tag: u8, g: &mut Gen) -> RegenMsg {
    match tag {
        0x20 => RegenMsg::Inquiry {
            generation: g.gen_range(0u32..100),
        },
        0x21 => RegenMsg::Reply(RegenReply {
            generation: g.gen_range(0u32..100),
            stamp: arb_stamp(g),
            holder: g.gen_bool(0.5),
            passed_to: if g.gen_bool(0.5) {
                Some(arb_node(g))
            } else {
                None
            },
            applied_seq: g.gen_range(0u64..10_000),
        }),
        0x22 => RegenMsg::Please {
            new_gen: g.gen_range(0u32..100),
            known_seq: g.gen_range(0u64..10_000),
            dead: g.vec(0..5, arb_node),
        },
        0x23 => RegenMsg::Rejoin,
        0x24 => RegenMsg::Leave,
        0x25 => RegenMsg::SyncRequest {
            from_seq: g.gen_range(0u64..10_000),
        },
        0x26 => RegenMsg::SyncReply {
            entries: g.vec(0..6, |g| LogEntry {
                seq: g.gen_range(0u64..10_000),
                origin: arb_node(g),
                payload: g.gen_range(0u64..1000),
                round: g.gen_range(0u64..500),
            }),
        },
        0x27 => RegenMsg::TokenAck {
            generation: g.gen_range(0u32..100),
            transfer_seq: g.gen_range(0u64..10_000),
        },
        0x28 => RegenMsg::GenAnnounce {
            generation: g.gen_range(0u32..100),
        },
        other => panic!("no regen generator for tag {other:#04x} — codec grew a frame the fuzz corpus does not cover"),
    }
}

/// One [`BinaryMsg`] that encodes to exactly `tag`.
pub fn binary_msg_for_tag(tag: u8, g: &mut Gen) -> BinaryMsg {
    match tag {
        0x01 => BinaryMsg::Token {
            frame: Box::new(arb_frame(g)),
            mode: TokenMode::Rotate,
        },
        0x02 => BinaryMsg::Token {
            frame: Box::new(arb_frame(g)),
            mode: TokenMode::Grant {
                for_req: arb_req(g),
                return_to: arb_node(g),
            },
        },
        0x03 => BinaryMsg::Token {
            frame: Box::new(arb_frame(g)),
            mode: TokenMode::CleanupHop {
                for_req: arb_req(g),
                return_to: arb_node(g),
                trail: g.vec(0..6, arb_node),
            },
        },
        0x04 => BinaryMsg::Token {
            frame: Box::new(arb_frame(g)),
            mode: TokenMode::Return,
        },
        0x10 => BinaryMsg::Gimme(Gimme {
            origin: arb_node(g),
            req: arb_req(g),
            origin_stamp: arb_stamp(g),
            span: g.gen_range(0u32..4096),
            trail: g.vec(0..8, arb_node),
        }),
        0x11 => BinaryMsg::DirectedProbe {
            origin: arb_node(g),
            req: arb_req(g),
            span: g.gen_range(0u32..4096),
        },
        0x12 => BinaryMsg::DirectedReply {
            probed: arb_node(g),
            stamp: arb_stamp(g),
            req: arb_req(g),
            span: g.gen_range(0u32..4096),
        },
        0x13 => BinaryMsg::ProbeReq {
            holder: arb_node(g),
            span: g.gen_range(0u32..4096),
        },
        0x14 => BinaryMsg::ProbeHit {
            origin: arb_node(g),
            req: arb_req(g),
        },
        regen => BinaryMsg::Regen(regen_msg_for_tag(regen, g)),
    }
}

/// One [`NaimiMsg`] that encodes to exactly `tag`.
pub fn naimi_msg_for_tag(tag: u8, g: &mut Gen) -> NaimiMsg {
    match tag {
        0x40 => NaimiMsg::Request {
            origin: arb_node(g),
            req: arb_req(g),
            attempt: g.gen_range(0u32..16),
            hops: g.gen_range(0u32..64),
        },
        0x41 => NaimiMsg::Token {
            frame: Box::new(arb_frame(g)),
            grant_for: None,
        },
        0x42 => NaimiMsg::Token {
            frame: Box::new(arb_frame(g)),
            grant_for: Some(arb_req(g)),
        },
        regen => NaimiMsg::Regen(regen_msg_for_tag(regen, g)),
    }
}

/// One [`RingMsg`] that encodes to exactly `tag`.
pub fn ring_msg_for_tag(tag: u8, g: &mut Gen) -> RingMsg {
    match tag {
        0x30 => RingMsg::Token(Box::new(arb_frame(g))),
        regen => RingMsg::Regen(regen_msg_for_tag(regen, g)),
    }
}

/// One [`SearchMsg`] that encodes to exactly `tag`.
pub fn search_msg_for_tag(tag: u8, g: &mut Gen) -> SearchMsg {
    match tag {
        0x38 => SearchMsg::Token {
            frame: Box::new(arb_frame(g)),
            grant_for: None,
        },
        0x39 => SearchMsg::Token {
            frame: Box::new(arb_frame(g)),
            grant_for: Some(arb_req(g)),
        },
        0x3a => SearchMsg::Gimme {
            origin: arb_node(g),
            req: arb_req(g),
            hops: g.gen_range(0u32..64),
        },
        regen => SearchMsg::Regen(regen_msg_for_tag(regen, g)),
    }
}

pub fn arb_msg(g: &mut Gen) -> BinaryMsg {
    binary_msg_for_tag(*g.pick(known_binary_tags()), g)
}

pub fn arb_naimi_msg(g: &mut Gen) -> NaimiMsg {
    naimi_msg_for_tag(*g.pick(known_naimi_tags()), g)
}

pub fn arb_ring_msg(g: &mut Gen) -> RingMsg {
    ring_msg_for_tag(*g.pick(known_ring_tags()), g)
}

pub fn arb_search_msg(g: &mut Gen) -> SearchMsg {
    search_msg_for_tag(*g.pick(known_search_tags()), g)
}

/// Flips one seeded byte of `bytes` in place (the XOR mask is never zero,
/// so the frame always differs) and reports where. Shared by the
/// per-framing corrupted-byte negative tests: position 0 is the tag, so
/// callers can tell "reinterpreted as another variant" from "don't-care
/// payload byte".
pub fn corrupt_one_byte(bytes: &mut [u8], g: &mut Gen) -> (usize, u8) {
    let idx = g.gen_range(0..bytes.len() as u64) as usize;
    let mask = g.gen_range(1u8..=u8::MAX);
    bytes[idx] ^= mask;
    (idx, mask)
}

/// One encoded frame for every `(framing, tag)` pair — the exhaustive
/// tag-driven corpus as bytes, for tests that operate below the codec
/// (streaming framer splits, envelope handling).
pub fn encoded_corpus(g: &mut Gen) -> Vec<Vec<u8>> {
    let mut frames = Vec::new();
    for &tag in known_ring_tags() {
        frames.push(encode_ring_msg(&ring_msg_for_tag(tag, g)));
    }
    for &tag in known_search_tags() {
        frames.push(encode_search_msg(&search_msg_for_tag(tag, g)));
    }
    for &tag in known_binary_tags() {
        frames.push(encode_binary_msg(&binary_msg_for_tag(tag, g)));
    }
    for &tag in known_naimi_tags() {
        frames.push(encode_naimi_msg(&naimi_msg_for_tag(tag, g)));
    }
    frames
}
