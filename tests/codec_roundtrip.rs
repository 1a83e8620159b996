//! Property-based tests for the wire codec: every representable message
//! round-trips exactly, and arbitrary byte soup never panics the decoder.
//! Runs on the in-repo `atp_util::check` harness.
//!
//! The fuzz corpus lives in `tests/common/corpus.rs` (shared with the
//! streaming-framer tests) and is driven by the codec's own exhaustive tag
//! lists: for every listed tag of every framing there is exactly one
//! generator arm, and [`corpus_covers_every_known_tag`] proves each arm
//! emits its tag. A message type added to the codec without a generator arm
//! panics the corpus immediately — new frames cannot dodge mutation and
//! truncation coverage.

#[path = "common/corpus.rs"]
mod corpus;

use adaptive_token_passing::core::{
    decode_binary_msg, decode_naimi_msg, decode_ring_msg, decode_search_msg, encode_binary_msg,
    encode_naimi_msg, encode_ring_msg, encode_search_msg, known_binary_tags, known_naimi_tags,
    known_ring_tags, known_search_tags, BinaryMsg, BinaryNode, CodecError, Gimme, NaimiMsg,
    NaimiNode, RequestId, RingMsg, RingNode, SearchMsg, SearchNode, TokenFrame, VisitStamp,
    WireProtocol,
};
use adaptive_token_passing::net::NodeId;
use adaptive_token_passing::util::check::{Check, Gen};
use adaptive_token_passing::util::rng::Rng;
use corpus::{
    arb_msg, arb_naimi_msg, arb_ring_msg, arb_search_msg, binary_msg_for_tag, corrupt_one_byte,
    naimi_msg_for_tag, ring_msg_for_tag, search_msg_for_tag,
};

/// Every generator arm produces the tag it claims, for the entire known
/// tag list of all four framings. This is the anchor that makes the fuzz
/// corpus exhaustive: `known_*_tags()` is asserted against the decoders in
/// the codec's own unit tests, and here against the generators.
#[test]
fn corpus_covers_every_known_tag() {
    let mut g = Gen::from_seed(0xc0dec);
    for &tag in known_binary_tags() {
        let bytes = encode_binary_msg(&binary_msg_for_tag(tag, &mut g));
        assert_eq!(bytes[0], tag, "binary generator for {tag:#04x} drifted");
    }
    for &tag in known_naimi_tags() {
        let bytes = encode_naimi_msg(&naimi_msg_for_tag(tag, &mut g));
        assert_eq!(bytes[0], tag, "naimi generator for {tag:#04x} drifted");
    }
    for &tag in known_ring_tags() {
        let bytes = encode_ring_msg(&ring_msg_for_tag(tag, &mut g));
        assert_eq!(bytes[0], tag, "ring generator for {tag:#04x} drifted");
    }
    for &tag in known_search_tags() {
        let bytes = encode_search_msg(&search_msg_for_tag(tag, &mut g));
        assert_eq!(bytes[0], tag, "search generator for {tag:#04x} drifted");
    }
}

/// The roundtrip-and-length property, one for all four families: through
/// `P`'s codec every generated message decodes back to itself, and
/// `P::msg_encoded_len` is exactly the length of its frame.
fn roundtrips_at_its_encoded_len<P: WireProtocol>(name: &str, arb: fn(&mut Gen) -> P::Msg) {
    Check::new(name).run(arb, |msg| {
        let bytes = P::encode_msg(msg);
        assert_eq!(P::msg_encoded_len(msg), bytes.len(), "size of {msg:?}");
        let back = P::decode_msg(&bytes).expect("decode");
        // The message types lack PartialEq on purpose; Debug equality is
        // exact for these data-only messages.
        assert_eq!(format!("{msg:?}"), format!("{back:?}"));
    });
}

#[test]
fn every_message_roundtrips() {
    roundtrips_at_its_encoded_len::<BinaryNode>("every_message_roundtrips", arb_msg);
}

#[test]
fn every_naimi_message_roundtrips() {
    roundtrips_at_its_encoded_len::<NaimiNode>("every_naimi_message_roundtrips", arb_naimi_msg);
}

#[test]
fn every_ring_message_roundtrips() {
    roundtrips_at_its_encoded_len::<RingNode>("every_ring_message_roundtrips", arb_ring_msg);
}

#[test]
fn every_search_message_roundtrips() {
    roundtrips_at_its_encoded_len::<SearchNode>("every_search_message_roundtrips", arb_search_msg);
}

/// The size of a granting lazy token with 100 000 carried entries comes
/// from the counter, which does not walk them; it must still be the
/// length of the frame the encoder writes.
#[test]
fn lazy_token_with_100k_entries_is_sized_exactly() {
    let mut frame = TokenFrame::new(16);
    for payload in 0..100_000 {
        frame.append(NodeId::new((payload % 8) as u32), payload);
    }
    let grant_for = Some(RequestId::new(NodeId::new(3), 1));
    let search = SearchMsg::Token {
        frame: Box::new(frame.clone()),
        grant_for,
    };
    let bytes = SearchNode::encode_msg(&search);
    assert_eq!(SearchNode::msg_encoded_len(&search), bytes.len());
    assert!(bytes.len() > 100_000 * 28);
    let naimi = NaimiMsg::Token {
        frame: Box::new(frame),
        grant_for,
    };
    assert_eq!(
        NaimiNode::msg_encoded_len(&naimi),
        NaimiNode::encode_msg(&naimi).len()
    );
}

#[test]
fn decoder_never_panics_on_garbage() {
    Check::new("decoder_never_panics_on_garbage").run(
        |g| g.vec(0..256, |g| g.gen_range(0u8..=u8::MAX)),
        |bytes| {
            let _ = decode_binary_msg(bytes);
            let _ = decode_naimi_msg(bytes);
            let _ = decode_ring_msg(bytes);
            let _ = decode_search_msg(bytes);
        },
    );
}

/// Seeded byte-mutation fuzzing: corrupting a valid frame anywhere must
/// produce a clean outcome — `Ok` of some (other) message or a structured
/// `CodecError` — never a panic, and never an attempt to honor an absurd
/// length prefix. Runs over the exhaustive corpora of all four framings.
#[test]
fn seeded_byte_mutations_are_rejected_not_panicked_on() {
    Check::new("seeded_byte_mutations_are_rejected_not_panicked_on").run(
        |g| {
            let bytes = match g.gen_range(0u32..4) {
                0 => encode_binary_msg(&arb_msg(g)),
                1 => encode_naimi_msg(&arb_naimi_msg(g)),
                2 => encode_ring_msg(&arb_ring_msg(g)),
                _ => encode_search_msg(&arb_search_msg(g)),
            };
            let flips = g.vec(1..6, |g| {
                (g.gen_range(0usize..4096), g.gen_range(1u8..=u8::MAX))
            });
            (bytes, flips)
        },
        |(bytes, flips)| {
            let mut bytes = bytes.clone();
            for &(pos, mask) in flips {
                let idx = pos % bytes.len();
                bytes[idx] ^= mask;
            }
            // Must return, never panic; both outcomes are acceptable
            // because a flip can land on a don't-care payload byte.
            let _ = decode_binary_msg(&bytes);
            let _ = decode_naimi_msg(&bytes);
            let _ = decode_ring_msg(&bytes);
            let _ = decode_search_msg(&bytes);
        },
    );
}

/// A ring token frame on the wire: tag byte, then the 41-byte fixed header
/// (generation u32, transfer/visit/round/next_seq u64, idle_rounds u32,
/// demand u8), `satisfied_cap` u32, the carried count u32, and 28-byte
/// carried entries that each start with their `seq`.
const RING_TOKEN_CAP_AT: usize = 1 + 41;
const RING_TOKEN_CARRIED_AT: usize = RING_TOKEN_CAP_AT + 4 + 4;
const CARRIED_ENTRY_LEN: usize = 28;

/// A frame claiming more satisfied entries than its own cap is one `encode`
/// cannot have written, and one that would never evict again (`mark_satisfied`
/// pops only on reaching the cap): rejected, not honored.
#[test]
fn satisfied_window_longer_than_its_cap_is_rejected() {
    let mut frame = TokenFrame::new(3);
    for seq in 0..3 {
        frame.mark_satisfied(RequestId::new(NodeId::new(1), seq));
    }
    let mut bytes = encode_ring_msg(&RingMsg::Token(Box::new(frame)));
    assert!(decode_ring_msg(&bytes).is_ok());
    bytes[RING_TOKEN_CAP_AT..RING_TOKEN_CAP_AT + 4].copy_from_slice(&2u32.to_le_bytes());
    assert!(matches!(
        decode_ring_msg(&bytes),
        Err(CodecError::Malformed)
    ));
    // And a window at its cap keeps evicting one for one.
    bytes[RING_TOKEN_CAP_AT..RING_TOKEN_CAP_AT + 4].copy_from_slice(&3u32.to_le_bytes());
    let Ok(RingMsg::Token(mut back)) = decode_ring_msg(&bytes) else {
        panic!("valid frame must decode");
    };
    back.mark_satisfied(RequestId::new(NodeId::new(1), 3));
    assert!(!back.is_satisfied(&RequestId::new(NodeId::new(1), 0)));
    assert_eq!(back.encoded_len(), bytes.len() - 1);
}

/// History application bisects the carried run by `seq`; a run that is not
/// strictly increasing (repeated or descending) is rejected at the door.
#[test]
fn carried_run_out_of_seq_order_is_rejected() {
    let mut frame = TokenFrame::new(3);
    for payload in 0..3 {
        frame.append(NodeId::new(1), payload);
    }
    let bytes = encode_ring_msg(&RingMsg::Token(Box::new(frame)));
    assert!(decode_ring_msg(&bytes).is_ok());
    let third_seq_at = RING_TOKEN_CARRIED_AT + 2 * CARRIED_ENTRY_LEN;
    assert_eq!(bytes[third_seq_at..third_seq_at + 8], 3u64.to_le_bytes());
    for bad_seq in [2u64, 1, 0] {
        let mut bytes = bytes.clone();
        bytes[third_seq_at..third_seq_at + 8].copy_from_slice(&bad_seq.to_le_bytes());
        assert!(
            matches!(decode_ring_msg(&bytes), Err(CodecError::Malformed)),
            "seq run 1, 2, {bad_seq} was honored"
        );
    }
}

/// A ring token frame whose applied watermark holds `acks` for three nodes,
/// over a history of two entries (`next_seq` 3), encoded; and the offset of
/// the watermark's length prefix, which the frame's last bytes follow.
fn acked_ring_token(acks: [u64; 3]) -> (Vec<u8>, usize) {
    let mut frame = TokenFrame::new(3);
    frame.append(NodeId::new(1), 7);
    frame.append(NodeId::new(2), 8);
    for (node, ack) in acks.into_iter().enumerate() {
        frame.ack(NodeId::new(node as u32), 3, ack);
    }
    let bytes = encode_ring_msg(&RingMsg::Token(Box::new(frame)));
    let at = bytes.len() - 4 - 8 * 3;
    assert_eq!(bytes[at..at + 4], 3u32.to_le_bytes());
    (bytes, at)
}

/// One ack per node, and the satisfied cap is at least the node count: a
/// watermark longer than the cap is one `encode` cannot have written.
#[test]
fn ack_vector_longer_than_its_cap_is_rejected() {
    let (mut bytes, at) = acked_ring_token([0, 1, 2]);
    assert!(decode_ring_msg(&bytes).is_ok());
    bytes.extend_from_slice(&0u64.to_le_bytes());
    bytes[at..at + 4].copy_from_slice(&4u32.to_le_bytes());
    assert!(matches!(
        decode_ring_msg(&bytes),
        Err(CodecError::Malformed)
    ));
}

/// An ack names a prefix of `H` a node has applied, so it is below
/// `next_seq`; a larger one would let the ack floor cut entries no node
/// has seen, and is rejected at the door.
#[test]
fn ack_at_or_beyond_next_seq_is_rejected() {
    let (bytes, at) = acked_ring_token([2, 2, 2]);
    let Ok(RingMsg::Token(back)) = decode_ring_msg(&bytes) else {
        panic!("valid frame must decode");
    };
    assert_eq!(back.committed(), 2);
    for bad_ack in [3u64, 4, u64::MAX] {
        let mut bytes = bytes.clone();
        let slot = at + 4 + 8;
        bytes[slot..slot + 8].copy_from_slice(&bad_ack.to_le_bytes());
        assert!(
            matches!(decode_ring_msg(&bytes), Err(CodecError::Malformed)),
            "ack {bad_ack} over a history of 2 was honored"
        );
    }
}

/// Every tag *outside* a decoder's known list is a structured rejection,
/// not a guess — for all 256 tag bytes, derived from the lists themselves.
/// Each framing's tags are unknown to every other framing's decoder.
#[test]
fn unknown_tags_are_bad_tag_errors() {
    let mut g = Gen::from_seed(0xbad_7a6);
    // A long valid payload, so rejection is attributable to the tag alone.
    let mut binary_bytes = encode_binary_msg(&binary_msg_for_tag(0x10, &mut g));
    let mut naimi_bytes = encode_naimi_msg(&naimi_msg_for_tag(0x40, &mut g));
    let mut ring_bytes = encode_ring_msg(&ring_msg_for_tag(0x30, &mut g));
    let mut search_bytes = encode_search_msg(&search_msg_for_tag(0x3a, &mut g));
    for tag in 0u8..=u8::MAX {
        if !known_binary_tags().contains(&tag) {
            binary_bytes[0] = tag;
            match decode_binary_msg(&binary_bytes) {
                Err(CodecError::BadTag(t)) => assert_eq!(t, tag),
                other => panic!("binary: tag {tag:#04x} decoded as {other:?}"),
            }
        }
        if !known_naimi_tags().contains(&tag) {
            naimi_bytes[0] = tag;
            match decode_naimi_msg(&naimi_bytes) {
                Err(CodecError::BadTag(t)) => assert_eq!(t, tag),
                other => panic!("naimi: tag {tag:#04x} decoded as {other:?}"),
            }
        }
        if !known_ring_tags().contains(&tag) {
            ring_bytes[0] = tag;
            match decode_ring_msg(&ring_bytes) {
                Err(CodecError::BadTag(t)) => assert_eq!(t, tag),
                other => panic!("ring: tag {tag:#04x} decoded as {other:?}"),
            }
        }
        if !known_search_tags().contains(&tag) {
            search_bytes[0] = tag;
            match decode_search_msg(&search_bytes) {
                Err(CodecError::BadTag(t)) => assert_eq!(t, tag),
                other => panic!("search: tag {tag:#04x} decoded as {other:?}"),
            }
        }
    }
}

/// Inflating a length prefix to the u32 maximum must yield `Truncated`,
/// not a 16 GiB allocation: the decoder checks `remaining` before
/// collecting. The trail length is the final u32 of an empty-trail Gimme.
#[test]
fn inflated_length_prefix_is_truncated_error() {
    let msg = BinaryMsg::Gimme(Gimme {
        origin: NodeId::new(1),
        req: RequestId::new(NodeId::new(1), 1),
        origin_stamp: VisitStamp(9),
        span: 2,
        trail: Vec::new(),
    });
    let mut bytes = encode_binary_msg(&msg);
    let len = bytes.len();
    bytes[len - 4..].copy_from_slice(&u32::MAX.to_le_bytes());
    assert!(matches!(
        decode_binary_msg(&bytes),
        Err(CodecError::Truncated)
    ));
}

#[test]
fn truncation_always_errors_or_decodes_prefix_free() {
    Check::new("truncation_always_errors_or_decodes_prefix_free").run(arb_msg, |msg| {
        // A strict prefix of a valid frame must not decode into the same
        // message (framing is unambiguous).
        let bytes = encode_binary_msg(msg);
        if bytes.len() > 1 {
            let cut = &bytes[..bytes.len() - 1];
            if let Ok(other) = decode_binary_msg(cut) {
                assert_ne!(format!("{msg:?}"), format!("{other:?}"));
            }
        }
    });
}

/// Ring-framing corrupted-byte negatives, over every ring tag arm: a
/// seeded single-byte flip must yield a structured error or a clean
/// decode of some *other* frame — and a flipped tag byte can never decode
/// back to the original message.
#[test]
fn ring_byte_corruption_is_rejected_or_reinterpreted_never_honored() {
    Check::new("ring_byte_corruption_is_rejected_or_reinterpreted_never_honored").run(
        |g| {
            let msg = arb_ring_msg(g);
            let mut bytes = encode_ring_msg(&msg);
            let (idx, _) = corrupt_one_byte(&mut bytes, g);
            (format!("{msg:?}"), bytes, idx)
        },
        |(original, bytes, idx)| match decode_ring_msg(bytes) {
            Ok(other) => {
                if *idx == 0 {
                    assert_ne!(
                        &format!("{other:?}"),
                        original,
                        "a flipped tag byte decoded back to the original ring message"
                    );
                }
            }
            Err(e) => assert!(
                matches!(
                    e,
                    CodecError::BadTag(_) | CodecError::Truncated | CodecError::Malformed
                ),
                "unstructured ring decode error: {e:?}"
            ),
        },
    );
}

/// Search-framing corrupted-byte negatives, over every search tag arm —
/// same contract as the ring case.
#[test]
fn search_byte_corruption_is_rejected_or_reinterpreted_never_honored() {
    Check::new("search_byte_corruption_is_rejected_or_reinterpreted_never_honored").run(
        |g| {
            let msg = arb_search_msg(g);
            let mut bytes = encode_search_msg(&msg);
            let (idx, _) = corrupt_one_byte(&mut bytes, g);
            (format!("{msg:?}"), bytes, idx)
        },
        |(original, bytes, idx)| match decode_search_msg(bytes) {
            Ok(other) => {
                if *idx == 0 {
                    assert_ne!(
                        &format!("{other:?}"),
                        original,
                        "a flipped tag byte decoded back to the original search message"
                    );
                }
            }
            Err(e) => assert!(
                matches!(
                    e,
                    CodecError::BadTag(_) | CodecError::Truncated | CodecError::Malformed
                ),
                "unstructured search decode error: {e:?}"
            ),
        },
    );
}

#[test]
fn ring_truncation_always_errors_or_decodes_prefix_free() {
    Check::new("ring_truncation_always_errors_or_decodes_prefix_free").run(arb_ring_msg, |msg| {
        let bytes = encode_ring_msg(msg);
        if bytes.len() > 1 {
            let cut = &bytes[..bytes.len() - 1];
            if let Ok(other) = decode_ring_msg(cut) {
                assert_ne!(format!("{msg:?}"), format!("{other:?}"));
            }
        }
    });
}

#[test]
fn search_truncation_always_errors_or_decodes_prefix_free() {
    Check::new("search_truncation_always_errors_or_decodes_prefix_free").run(
        arb_search_msg,
        |msg| {
            let bytes = encode_search_msg(msg);
            if bytes.len() > 1 {
                let cut = &bytes[..bytes.len() - 1];
                if let Ok(other) = decode_search_msg(cut) {
                    assert_ne!(format!("{msg:?}"), format!("{other:?}"));
                }
            }
        },
    );
}

#[test]
fn naimi_truncation_always_errors_or_decodes_prefix_free() {
    Check::new("naimi_truncation_always_errors_or_decodes_prefix_free").run(arb_naimi_msg, |msg| {
        let bytes = encode_naimi_msg(msg);
        if bytes.len() > 1 {
            let cut = &bytes[..bytes.len() - 1];
            if let Ok(other) = decode_naimi_msg(cut) {
                assert_ne!(format!("{msg:?}"), format!("{other:?}"));
            }
        }
    });
}
