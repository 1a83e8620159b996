//! Layer probes: each times one layer's public functions directly on seeded
//! inputs, in the traced run of every workload, so a layer's own cost is
//! known apart from any workload that loads it.

use std::hint::black_box;
use std::time::{Duration, Instant};

use atp_core::{
    decode_binary_msg, decode_naimi_msg, decode_ring_msg, decode_search_msg, decode_shard_frame,
    encode_binary_msg, encode_naimi_msg, encode_ring_msg, encode_search_msg, encode_shard_frame,
    known_binary_tags, known_naimi_tags, known_ring_tags, known_search_tags, BinaryMsg, BinaryNode,
    Checkpoint, Gimme, HistoryDigest, LogEntry, NaimiMsg, ProtocolConfig, RegenMsg, RegenReply,
    RequestId, RingMsg, SearchMsg, ShardMap, TokenFrame, TokenMode, VisitStamp, WireProtocol,
    CKPT_BINARY,
};
use atp_net::frame::{crc32, write_frame, FrameDecoder};
use atp_net::{
    ChanTransport, ChaosConfig, ChaosEndpoint, Endpoint, NodeId, TcpTransport, TimerWheel,
    Transport,
};
use atp_sim::{run_on_transport, ClusterScript, KeyDist, Protocol, ShardPlaneSpec};
use atp_util::rng::{Rng, RngCore, SeedableRng, StdRng};

use crate::stats::median;
use crate::trace::{self, Traced};

/// Timed batches per probe; a probe's value is the median batch.
const BATCHES: usize = 5;

/// Median over [`BATCHES`] batches of the nanoseconds one `op(i)` takes when
/// run `iters` times back to back.
fn ns_per_op(iters: u64, mut op: impl FnMut(u64)) -> f64 {
    let batches: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let t0 = Instant::now();
            for i in 0..iters {
                op(i);
            }
            t0.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    median(&batches)
}

fn node(rng: &mut StdRng) -> NodeId {
    NodeId::new(rng.gen_range(0u32..1024))
}

fn req(rng: &mut StdRng) -> RequestId {
    RequestId::new(node(rng), rng.gen_range(0..u64::MAX))
}

fn nodes(rng: &mut StdRng, max: usize) -> Vec<NodeId> {
    (0..rng.gen_range(0..max)).map(|_| node(rng)).collect()
}

fn frame(rng: &mut StdRng) -> Box<TokenFrame> {
    let mut frame = TokenFrame::new(rng.gen_range(1usize..6));
    for _ in 0..rng.gen_range(0..8) {
        let origin = node(rng);
        frame.on_possess(origin, true);
        frame.append(origin, rng.gen_range(0u64..100));
    }
    for _ in 0..rng.gen_range(0..6) {
        frame.mark_satisfied(RequestId::new(node(rng), rng.gen_range(0u64..50)));
    }
    for _ in 0..rng.gen_range(0..4) {
        frame.exclude(node(rng));
    }
    Box::new(frame)
}

/// One message per tag of the failure-handling block every family shares.
/// Panics on a tag it does not know, so a frame added to the codec cannot be
/// left out of the corpus unnoticed.
fn regen_msg(tag: u8, rng: &mut StdRng) -> RegenMsg {
    match tag {
        0x20 => RegenMsg::Inquiry {
            generation: rng.gen_range(0u32..100),
        },
        0x21 => RegenMsg::Reply(RegenReply {
            generation: rng.gen_range(0u32..100),
            stamp: VisitStamp(rng.gen_range(0..u64::MAX)),
            holder: rng.gen_bool(0.5),
            passed_to: rng.gen_bool(0.5).then(|| node(rng)),
            applied_seq: rng.gen_range(0u64..10_000),
        }),
        0x22 => RegenMsg::Please {
            new_gen: rng.gen_range(0u32..100),
            known_seq: rng.gen_range(0u64..10_000),
            dead: nodes(rng, 5),
        },
        0x23 => RegenMsg::Rejoin,
        0x24 => RegenMsg::Leave,
        0x25 => RegenMsg::SyncRequest {
            from_seq: rng.gen_range(0u64..10_000),
        },
        0x26 => RegenMsg::SyncReply {
            entries: (0..rng.gen_range(0..6))
                .map(|_| LogEntry {
                    seq: rng.gen_range(0u64..10_000),
                    origin: node(rng),
                    payload: rng.gen_range(0u64..1000),
                    round: rng.gen_range(0u64..500),
                })
                .collect(),
        },
        0x27 => RegenMsg::TokenAck {
            generation: rng.gen_range(0u32..100),
            transfer_seq: rng.gen_range(0u64..10_000),
        },
        0x28 => RegenMsg::GenAnnounce {
            generation: rng.gen_range(0u32..100),
        },
        other => panic!("no corpus message for codec tag {other:#04x}"),
    }
}

fn binary_msg(tag: u8, rng: &mut StdRng) -> BinaryMsg {
    let token = |mode, rng: &mut StdRng| BinaryMsg::Token {
        frame: frame(rng),
        mode,
    };
    match tag {
        0x01 => token(TokenMode::Rotate, rng),
        0x02 => {
            let mode = TokenMode::Grant {
                for_req: req(rng),
                return_to: node(rng),
            };
            token(mode, rng)
        }
        0x03 => {
            let mode = TokenMode::CleanupHop {
                for_req: req(rng),
                return_to: node(rng),
                trail: nodes(rng, 6),
            };
            token(mode, rng)
        }
        0x04 => token(TokenMode::Return, rng),
        0x10 => BinaryMsg::Gimme(Gimme {
            origin: node(rng),
            req: req(rng),
            origin_stamp: VisitStamp(rng.gen_range(0..u64::MAX)),
            span: rng.gen_range(0u32..4096),
            trail: nodes(rng, 8),
        }),
        0x11 => BinaryMsg::DirectedProbe {
            origin: node(rng),
            req: req(rng),
            span: rng.gen_range(0u32..4096),
        },
        0x12 => BinaryMsg::DirectedReply {
            probed: node(rng),
            stamp: VisitStamp(rng.gen_range(0..u64::MAX)),
            req: req(rng),
            span: rng.gen_range(0u32..4096),
        },
        0x13 => BinaryMsg::ProbeReq {
            holder: node(rng),
            span: rng.gen_range(0u32..4096),
        },
        0x14 => BinaryMsg::ProbeHit {
            origin: node(rng),
            req: req(rng),
        },
        regen => BinaryMsg::Regen(regen_msg(regen, rng)),
    }
}

fn ring_msg(tag: u8, rng: &mut StdRng) -> RingMsg {
    match tag {
        0x30 => RingMsg::Token(frame(rng)),
        regen => RingMsg::Regen(regen_msg(regen, rng)),
    }
}

fn search_msg(tag: u8, rng: &mut StdRng) -> SearchMsg {
    match tag {
        0x38 => SearchMsg::Token {
            frame: frame(rng),
            grant_for: None,
        },
        0x39 => SearchMsg::Token {
            frame: frame(rng),
            grant_for: Some(req(rng)),
        },
        0x3a => SearchMsg::Gimme {
            origin: node(rng),
            req: req(rng),
            hops: rng.gen_range(0u32..64),
        },
        regen => SearchMsg::Regen(regen_msg(regen, rng)),
    }
}

fn naimi_msg(tag: u8, rng: &mut StdRng) -> NaimiMsg {
    match tag {
        0x40 => NaimiMsg::Request {
            origin: node(rng),
            req: req(rng),
            attempt: rng.gen_range(0u32..16),
            hops: rng.gen_range(0u32..64),
        },
        0x41 => NaimiMsg::Token {
            frame: frame(rng),
            grant_for: None,
        },
        0x42 => NaimiMsg::Token {
            frame: frame(rng),
            grant_for: Some(req(rng)),
        },
        regen => NaimiMsg::Regen(regen_msg(regen, rng)),
    }
}

/// Eight seeded messages for every tag of one family.
fn corpus<M>(tags: &[u8], rng: &mut StdRng, make: impl Fn(u8, &mut StdRng) -> M) -> Vec<M> {
    tags.iter()
        .flat_map(|&tag| (0..8).map(move |_| tag))
        .map(|tag| make(tag, rng))
        .collect()
}

/// `(encode_ns, decode_ns)` per message of `msgs`; every frame must decode.
fn codec_pair<M>(
    msgs: &[M],
    reps: u64,
    encode: impl Fn(&M) -> Vec<u8>,
    decode: impl Fn(&[u8]) -> bool,
) -> (f64, f64) {
    let frames: Vec<Vec<u8>> = msgs.iter().map(&encode).collect();
    let n = msgs.len() as u64;
    let enc = ns_per_op(reps * n, |i| {
        black_box(encode(&msgs[(i % n) as usize]));
    });
    let dec = ns_per_op(reps * n, |i| {
        assert!(
            decode(&frames[(i % n) as usize]),
            "a corpus frame failed to decode"
        );
    });
    (enc, dec)
}

/// One-way nanoseconds per 64-byte frame from `a` to `b`.
fn one_way_ns<E: Endpoint>(a: &mut E, b: &mut E, iters: u64) -> f64 {
    let payload = [0x5au8; 64];
    let to = b.id();
    ns_per_op(iters, |_| {
        a.stage(to, &payload);
        a.flush();
        black_box(
            b.recv_timeout(Duration::from_secs(5))
                .expect("frame lost on a quiet link"),
        );
    })
}

/// Nanoseconds per ping-pong of `len` bytes between two endpoints of `T`.
fn roundtrip_ns<T: Transport>(len: usize, iters: u64) -> f64 {
    let mut eps = T::endpoints(2).expect("two loopback endpoints");
    let payload = vec![0xa5u8; len];
    let (a, b) = eps.split_at_mut(1);
    let (a, b) = (&mut a[0], &mut b[0]);
    let mut pingpong = |_| {
        a.stage(NodeId::new(1), &payload);
        a.flush();
        let (_, got) = b.recv_timeout(Duration::from_secs(5)).expect("ping lost");
        b.stage(NodeId::new(0), &got);
        b.flush();
        black_box(a.recv_timeout(Duration::from_secs(5)).expect("pong lost"));
    };
    (0..20).for_each(&mut pingpong);
    let ns = ns_per_op(iters, pingpong);
    for ep in &mut eps {
        assert!(ep.close().is_clean(), "probe endpoint leaked a thread");
    }
    ns
}

/// Milliseconds to build an 8-node TCP mesh and move one frame over each of
/// its 56 directed links.
fn tcp_mesh_setup_ms() -> f64 {
    let runs: Vec<f64> = (0..3)
        .map(|_| {
            let t0 = Instant::now();
            let mut eps = TcpTransport::endpoints(8).expect("eight loopback endpoints");
            for i in 0..8u32 {
                for j in (0..8u32).filter(|&j| j != i) {
                    eps[i as usize].stage(NodeId::new(j), b"hello");
                }
                eps[i as usize].flush();
            }
            for ep in &mut eps {
                for _ in 0..7 {
                    ep.recv_timeout(Duration::from_secs(5))
                        .expect("first frame lost");
                }
            }
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            for ep in &mut eps {
                assert!(ep.close().is_clean(), "probe endpoint leaked a thread");
            }
            ms
        })
        .collect();
    median(&runs)
}

/// Steady-state scheduler churn: nanoseconds per pop-then-repush against a
/// wheel holding `pending` entries spread over `4 * pending` ticks.
fn wheel_churn_ns(pending: usize, ops: u64, rng: &mut StdRng) -> f64 {
    let mut wheel: TimerWheel<u64> = TimerWheel::with_capacity(pending);
    let mut seq = 0u64;
    for _ in 0..pending {
        wheel.push(rng.gen_range(0..4 * pending as u64), seq, seq);
        seq += 1;
    }
    ns_per_op(ops, |_| {
        let (t, _, item) = wheel.pop().expect("the wheel never drains");
        wheel.push(t + rng.gen_range(1u64..64), seq, item);
        seq += 1;
    })
}

/// Runs every probe. `scale` divides the iteration counts (`check` uses 20).
pub fn run(seed: u64, scale: u64) -> Vec<(&'static str, f64)> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x70_726f_6265);
    let mut out: Vec<(&'static str, f64)> = Vec::new();

    // atp_core::order
    let entries: Vec<LogEntry> = (1..=1024u64)
        .map(|seq| LogEntry {
            seq,
            origin: node(&mut rng),
            payload: rng.next_u64(),
            round: seq / 8,
        })
        .collect();
    let mut digest = HistoryDigest::EMPTY;
    out.push((
        "order.chain_ns",
        ns_per_op(400_000 / scale, |i| {
            digest = digest.chain(&entries[(i & 1023) as usize])
        }),
    ));
    black_box(digest);

    // atp_core::codec
    let reps = (40 / scale).max(1);
    let msgs = corpus(known_ring_tags(), &mut rng, ring_msg);
    let (e, d) = codec_pair(&msgs, reps, encode_ring_msg, |b| decode_ring_msg(b).is_ok());
    out.extend([("codec.ring.encode_ns", e), ("codec.ring.decode_ns", d)]);
    let msgs = corpus(known_search_tags(), &mut rng, search_msg);
    let (e, d) = codec_pair(&msgs, reps, encode_search_msg, |b| {
        decode_search_msg(b).is_ok()
    });
    out.extend([("codec.search.encode_ns", e), ("codec.search.decode_ns", d)]);
    let msgs = corpus(known_binary_tags(), &mut rng, binary_msg);
    let (e, d) = codec_pair(&msgs, reps, encode_binary_msg, |b| {
        decode_binary_msg(b).is_ok()
    });
    out.extend([("codec.binary.encode_ns", e), ("codec.binary.decode_ns", d)]);
    let msgs = corpus(known_naimi_tags(), &mut rng, naimi_msg);
    let (e, d) = codec_pair(&msgs, reps, encode_naimi_msg, |b| {
        decode_naimi_msg(b).is_ok()
    });
    out.extend([("codec.naimi.encode_ns", e), ("codec.naimi.decode_ns", d)]);
    let inner = [0x11u8; 64];
    out.push((
        "codec.shard_envelope_ns",
        ns_per_op(200_000 / scale, |i| {
            let framed = encode_shard_frame((i % 4) as u16, &inner);
            black_box(decode_shard_frame(&framed).expect("envelope round-trips"));
        }),
    ));

    // atp_core::checkpoint — a node with 1 000 applied entries
    let log: Vec<LogEntry> = (1..=1000u64)
        .map(|seq| LogEntry {
            seq,
            origin: node(&mut rng),
            payload: rng.next_u64(),
            round: seq / 8,
        })
        .collect();
    let ck = Checkpoint {
        protocol: CKPT_BINARY,
        generation: 3,
        next_req_seq: 17,
        last_visit: 99,
        watermark: Some((3, 41)),
        applied_seq: 1000,
        digest: log.iter().fold(HistoryDigest::EMPTY, |d, e| d.chain(e)).0,
        log,
    };
    let bytes = ck.to_bytes();
    let cfg = ProtocolConfig::default();
    let iters = 2_000 / scale;
    out.push((
        "checkpoint.to_bytes_ns",
        ns_per_op(iters, |_| drop(black_box(ck.to_bytes()))),
    ));
    out.push((
        "checkpoint.from_bytes_ns",
        ns_per_op(iters, |_| {
            drop(black_box(
                Checkpoint::from_bytes(&bytes).expect("round-trips"),
            ))
        }),
    ));
    out.push((
        "checkpoint.restore_ns",
        ns_per_op(iters, |_| {
            drop(black_box(<BinaryNode as WireProtocol>::restore(cfg, &ck)))
        }),
    ));
    out.push(("checkpoint.bytes", bytes.len() as f64));

    // atp_core::shard
    let map = ShardMap::new(4, 8);
    out.push((
        "shardmap.lookup_ns",
        ns_per_op(400_000 / scale, |i| {
            black_box(map.owner_of_key(i % 32));
        }),
    ));
    out.push((
        "shardmap.build_ns",
        ns_per_op(2_000 / scale, |_| drop(black_box(ShardMap::new(4, 8)))),
    ));

    // atp_net::transport / tcp
    out.push((
        "tcp.roundtrip_ns",
        roundtrip_ns::<TcpTransport>(64, 1_000 / scale),
    ));
    out.push((
        "tcp.roundtrip_4k_ns",
        roundtrip_ns::<TcpTransport>(4096, 1_000 / scale),
    ));
    out.push((
        "chan.roundtrip_ns",
        roundtrip_ns::<ChanTransport>(64, 40_000 / scale),
    ));
    out.push(("tcp.mesh_setup_ms", tcp_mesh_setup_ms()));

    // atp_net::frame / chaos
    let payload = [0x42u8; 64];
    let mut wire = Vec::new();
    out.push((
        "frame.write_ns",
        ns_per_op(400_000 / scale, |i| {
            if i % 16 == 0 {
                wire.clear();
            }
            write_frame(&mut wire, &payload);
        }),
    ));
    let mut stream = Vec::new();
    (0..1024).for_each(|_| write_frame(&mut stream, &payload));
    let frames_decoded = |chunk: usize| {
        let mut dec = FrameDecoder::new();
        let mut frames = 0u64;
        for piece in stream.chunks(chunk) {
            dec.push(piece);
            while dec
                .next_frame()
                .expect("the stream is well formed")
                .is_some()
            {
                frames += 1;
            }
        }
        assert_eq!(frames, 1024, "the decoder lost frames");
    };
    out.push((
        "frame.decode_ns",
        ns_per_op((100 / scale).max(1), |_| frames_decoded(1024)) / 1024.0,
    ));
    out.push((
        "frame.decode_torn_ns",
        ns_per_op((20 / scale).max(1), |_| frames_decoded(1)) / 1024.0,
    ));
    out.push((
        "crc32.ns_per_kib",
        ns_per_op(100_000 / scale, |_| {
            black_box(crc32(black_box(&stream[..1024])));
        }),
    ));
    let mut raw = ChanTransport::endpoints(2).expect("infallible");
    let (a, b) = raw.split_at_mut(1);
    let raw_ns = one_way_ns(&mut a[0], &mut b[0], 40_000 / scale);
    let mut quiet: Vec<_> = ChanTransport::endpoints(2)
        .expect("infallible")
        .into_iter()
        .map(|ep| ChaosEndpoint::new(ep, ChaosConfig::new(seed)))
        .collect();
    let (a, b) = quiet.split_at_mut(1);
    out.push((
        "chaos.wrap_ns_per_frame",
        one_way_ns(&mut a[0], &mut b[0], 40_000 / scale) - raw_ns,
    ));

    // atp_net::wheel
    out.push((
        "wheel.churn_ns_per_op_1k",
        wheel_churn_ns(1_000, 400_000 / scale, &mut rng),
    ));
    out.push((
        "wheel.churn_ns_per_op_100k",
        wheel_churn_ns(100_000, 400_000 / scale, &mut rng),
    ));

    // atp_sim::shard — the lockstep K-world driver, exact for a seed
    let plane = |k: u16| {
        let spec = ShardPlaneSpec::new(Protocol::Binary, 8, k)
            .with_seed(seed)
            .with_horizon(20_000 / scale)
            .with_key_dist(KeyDist::Zipf);
        let t0 = Instant::now();
        let summary = spec.run();
        (summary, t0.elapsed().as_nanos() as f64)
    };
    let (k1, _) = plane(1);
    let (k4, k4_ns) = plane(4);
    out.push((
        "shardplane.ns_per_event",
        k4_ns / k4.events.iter().sum::<u64>().max(1) as f64,
    ));
    out.push(("shardplane.grants_per_ktick_k1", k1.throughput_per_ktick()));
    out.push(("shardplane.grants_per_ktick_k4", k4.throughput_per_ktick()));

    // atp_sim::cluster — the virtual-clock transport driver. One counted run
    // gives the dispatches of the reference script; raw runs give the time.
    let script = ClusterScript::reference(seed);
    trace::set_recording(false, false);
    run_on_transport::<Traced<BinaryNode>, ChanTransport>(&script).expect("infallible");
    let dispatches = trace::take().calls[trace::PROTO_STEP].max(1);
    let run_ns = ns_per_op((200 / scale).max(1), |_| {
        let (outcome, stats) =
            run_on_transport::<BinaryNode, ChanTransport>(&script).expect("infallible");
        assert!(stats.is_clean() && outcome.grants.len() == script.requests.len());
    });
    out.push(("vclock.ns_per_dispatch", run_ns / dispatches as f64));

    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `trace::is_token_tag` must name exactly the tags whose messages are
    /// token frames, for every family.
    #[test]
    fn token_tags_are_the_token_variants() {
        let mut rng = StdRng::seed_from_u64(1);
        for &tag in known_binary_tags() {
            let msg = binary_msg(tag, &mut rng);
            assert_eq!(encode_binary_msg(&msg)[0], tag);
            assert_eq!(
                trace::is_token_tag(tag),
                matches!(msg, BinaryMsg::Token { .. }),
                "{tag:#04x}"
            );
        }
        for &tag in known_ring_tags() {
            let msg = ring_msg(tag, &mut rng);
            assert_eq!(encode_ring_msg(&msg)[0], tag);
            assert_eq!(
                trace::is_token_tag(tag),
                matches!(msg, RingMsg::Token(_)),
                "{tag:#04x}"
            );
        }
        for &tag in known_search_tags() {
            let msg = search_msg(tag, &mut rng);
            assert_eq!(encode_search_msg(&msg)[0], tag);
            assert_eq!(
                trace::is_token_tag(tag),
                matches!(msg, SearchMsg::Token { .. }),
                "{tag:#04x}"
            );
        }
        for &tag in known_naimi_tags() {
            let msg = naimi_msg(tag, &mut rng);
            assert_eq!(encode_naimi_msg(&msg)[0], tag);
            assert_eq!(
                trace::is_token_tag(tag),
                matches!(msg, NaimiMsg::Token { .. }),
                "{tag:#04x}"
            );
        }
    }
}
