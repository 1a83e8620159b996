//! Torn-read tests for the streaming length-prefixed framer that carries
//! codec frames over TCP: the full tag-driven corpus (every known tag of
//! all four framings, from `tests/common/corpus.rs`) is pushed through
//! [`FrameDecoder`] split at **every** byte boundary, one byte at a time,
//! and in seeded random chunkings — the reassembled frames must be
//! byte-identical every time. Negative cases (truncated prefix, oversized
//! declared length, mid-frame disconnect) must produce typed errors, never
//! panics.

#[path = "common/corpus.rs"]
mod corpus;

use adaptive_token_passing::net::frame::{
    write_frame, FrameDecoder, FrameError, FRAME_HEADER_LEN, FRAME_TRAILER_LEN, MAX_FRAME_LEN,
};
use adaptive_token_passing::util::check::{Check, Gen};
use adaptive_token_passing::util::rng::Rng;
use corpus::encoded_corpus;

/// The corpus as one framed wire image plus the expected frame sequence.
fn corpus_wire(seed: u64) -> (Vec<u8>, Vec<Vec<u8>>) {
    let mut g = Gen::from_seed(seed);
    let frames = encoded_corpus(&mut g);
    let mut wire = Vec::new();
    for f in &frames {
        write_frame(&mut wire, f);
    }
    (wire, frames)
}

fn decode_all(dec: &mut FrameDecoder) -> Vec<Vec<u8>> {
    let mut out = Vec::new();
    while let Some(f) = dec.next_frame().expect("well-formed corpus") {
        out.push(f);
    }
    out
}

/// Every split point of the whole corpus stream: deliver `wire[..i]` then
/// `wire[i..]` and require the byte-identical frame sequence. This sweeps a
/// tear through every offset of every frame — inside length prefixes,
/// inside payloads, and exactly on boundaries.
#[test]
fn every_byte_boundary_split_reassembles_identically() {
    let (wire, expect) = corpus_wire(0x7ea5);
    for i in 0..=wire.len() {
        let mut dec = FrameDecoder::new();
        let mut got = Vec::new();
        dec.push(&wire[..i]);
        got.extend(decode_all(&mut dec));
        dec.push(&wire[i..]);
        got.extend(decode_all(&mut dec));
        assert_eq!(got, expect, "split at byte {i} changed the decode");
        assert_eq!(dec.finish(), Ok(()), "split at byte {i} left residue");
        assert_eq!(dec.buffered_len(), 0);
    }
}

/// The pathological chunking: the entire corpus one byte at a time.
#[test]
fn one_byte_reads_reassemble_identically() {
    let (wire, expect) = corpus_wire(0x1b17e);
    let mut dec = FrameDecoder::new();
    let mut got = Vec::new();
    for b in &wire {
        dec.push(std::slice::from_ref(b));
        got.extend(decode_all(&mut dec));
    }
    assert_eq!(got, expect);
    assert_eq!(dec.finish(), Ok(()));
}

/// Seeded random chunking: arbitrary read sizes (0 to 64 bytes, so empty
/// reads are covered too) over a fresh random corpus per case.
#[test]
fn random_chunkings_reassemble_identically() {
    Check::new("random_chunkings_reassemble_identically").run(
        |g| {
            let frames = encoded_corpus(g);
            let cuts = g.vec(0..200, |g| g.gen_range(0usize..64));
            (frames, cuts)
        },
        |(frames, cuts)| {
            let mut wire = Vec::new();
            for f in frames {
                write_frame(&mut wire, f);
            }
            let mut dec = FrameDecoder::new();
            let mut got = Vec::new();
            let mut pos = 0usize;
            let mut cut = cuts.iter().cycle();
            while pos < wire.len() {
                let take = (*cut.next().expect("cycle")).min(wire.len() - pos);
                dec.push(&wire[pos..pos + take]);
                pos += take;
                got.extend(decode_all(&mut dec));
                if take == 0 {
                    // A zero-length read (spurious wakeup) must not consume
                    // the iterator forever: push one byte to guarantee
                    // progress.
                    dec.push(&wire[pos..pos + 1]);
                    pos += 1;
                    got.extend(decode_all(&mut dec));
                }
            }
            assert_eq!(&got, frames);
            assert_eq!(dec.finish(), Ok(()));
        },
    );
}

/// Disconnect inside the 4-byte length prefix: `finish` reports exactly how
/// many prefix bytes arrived, for every torn prefix width.
#[test]
fn truncated_length_prefix_is_typed_error() {
    let (wire, expect) = corpus_wire(0x9e9a7);
    for got_prefix in 0..FRAME_HEADER_LEN {
        let mut dec = FrameDecoder::new();
        // Whole corpus, then a final frame torn off inside its prefix.
        dec.push(&wire);
        dec.push(&(8u32.to_le_bytes())[..got_prefix]);
        assert_eq!(decode_all(&mut dec), expect);
        if got_prefix == 0 {
            assert_eq!(dec.finish(), Ok(()));
        } else {
            assert_eq!(
                dec.finish(),
                Err(FrameError::TruncatedPrefix { got: got_prefix })
            );
        }
    }
}

/// A hostile declared length (above the cap, up to `u32::MAX`) is a typed
/// `Oversized` rejection — no allocation, no panic — at every chunking of
/// the poisoned prefix, and the error is sticky.
#[test]
fn oversized_declared_length_is_rejected_without_panic() {
    for declared in [MAX_FRAME_LEN + 1, 1 << 30, u32::MAX] {
        let prefix = declared.to_le_bytes();
        for split in 0..=prefix.len() {
            let mut dec = FrameDecoder::new();
            dec.push(&prefix[..split]);
            if split < prefix.len() {
                assert!(dec
                    .next_frame()
                    .expect("incomplete prefix is not an error")
                    .is_none());
            }
            dec.push(&prefix[split..]);
            match dec.next_frame() {
                Err(FrameError::Oversized { declared: d, max }) => {
                    assert_eq!(d, declared);
                    assert_eq!(max, MAX_FRAME_LEN);
                }
                other => panic!("declared={declared} split={split}: got {other:?}"),
            }
            // Permanent: the stream stays unframeable.
            assert!(matches!(
                dec.next_frame(),
                Err(FrameError::Oversized { .. })
            ));
        }
    }
}

/// Mid-frame disconnect: tear the stream at every byte inside the final
/// frame's payload and CRC trailer; `finish` must report the exact
/// shortfall (capped at the declared length once only trailer bytes are
/// missing).
#[test]
fn mid_frame_disconnect_is_typed_error() {
    let (wire, expect) = corpus_wire(0xd15c);
    let last = expect.last().expect("non-empty corpus");
    let last_total = FRAME_HEADER_LEN + last.len() + FRAME_TRAILER_LEN;
    let body_start = wire.len() - last.len() - FRAME_TRAILER_LEN;
    for cut in body_start..wire.len() {
        let mut dec = FrameDecoder::new();
        dec.push(&wire[..cut]);
        let got = decode_all(&mut dec);
        assert_eq!(got, expect[..expect.len() - 1], "cut at {cut}");
        assert_eq!(
            dec.finish(),
            Err(FrameError::TruncatedFrame {
                declared: last.len() as u32,
                got: (cut - (wire.len() - last_total) - FRAME_HEADER_LEN).min(last.len()),
            }),
            "cut at {cut}"
        );
    }
}

/// Wire-level corruption detection: flip one byte inside any frame's
/// payload or trailer region of the corpus stream and the decoder must
/// stop with a typed [`FrameError::BadChecksum`] at that frame — earlier
/// frames still decode, and nothing ever panics or yields garbage bytes
/// as a "successful" frame.
#[test]
fn corrupted_byte_anywhere_is_a_typed_bad_checksum() {
    let (wire, expect) = corpus_wire(0xcc32);
    // Walk the stream frame by frame, corrupting one payload byte and one
    // trailer byte of each frame in turn.
    let mut frame_start = 0usize;
    for (idx, frame) in expect.iter().enumerate() {
        let body = frame_start + FRAME_HEADER_LEN;
        let trailer = body + frame.len();
        let offsets = if frame.is_empty() {
            vec![trailer, trailer + FRAME_TRAILER_LEN - 1]
        } else {
            vec![
                body,
                body + frame.len() / 2,
                trailer,
                trailer + FRAME_TRAILER_LEN - 1,
            ]
        };
        for off in offsets {
            let mut corrupt = wire.clone();
            corrupt[off] ^= 0x80;
            let mut dec = FrameDecoder::new();
            dec.push(&corrupt);
            let mut got = Vec::new();
            let err = loop {
                match dec.next_frame() {
                    Ok(Some(f)) => got.push(f),
                    Ok(None) => panic!("frame {idx} offset {off}: corruption undetected"),
                    Err(e) => break e,
                }
            };
            assert!(
                matches!(err, FrameError::BadChecksum { .. }),
                "frame {idx} offset {off}: expected BadChecksum, got {err:?}"
            );
            assert_eq!(
                got,
                expect[..idx],
                "frame {idx}: earlier frames must survive"
            );
        }
        frame_start += FRAME_HEADER_LEN + frame.len() + FRAME_TRAILER_LEN;
    }
}
