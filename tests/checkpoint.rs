//! Checkpoint durability properties: drive every protocol to a seeded
//! random state inside the deterministic `World`, then require that the
//! durable core survives the full crash pipeline —
//! capture → encode → decode → restore → re-capture — byte-for-byte.
//!
//! The property runs all four protocols per generated scenario so a
//! counterexample shrinks to the smallest *workload*, not the smallest
//! protocol-specific accident. Random single-byte mutations of the
//! encoded form must never panic the decoder.

use atp_core::{BinaryNode, NaimiNode, RingNode, SearchNode};
use atp_core::{Checkpoint, ProtocolConfig, Want, WireProtocol};
use atp_net::{NodeId, SimTime, World, WorldConfig};
use atp_util::check::{Check, Gen};
use atp_util::rng::Rng;

/// A seeded workload: ring size, feature toggles, request script.
#[derive(Debug, Clone)]
struct Scenario {
    n: usize,
    regeneration: bool,
    token_acks: bool,
    requests: Vec<(u64, u32, u64)>,
    horizon: u64,
    seed: u64,
}

fn scenario(g: &mut Gen) -> Scenario {
    let n = g.gen_range(2..7usize);
    let k = g.gen_range(0..8u32);
    let requests = (0..k)
        .map(|_| {
            (
                g.gen_range(0..120u64),
                g.gen_range(0..n as u32),
                g.gen_range(0..1000u64),
            )
        })
        .collect();
    Scenario {
        n,
        regeneration: g.gen_bool(0.5),
        token_acks: g.gen_bool(0.5),
        requests,
        horizon: 200,
        seed: g.gen_range(0..u64::MAX),
    }
}

fn config(s: &Scenario) -> ProtocolConfig {
    let mut cfg = ProtocolConfig::default();
    if s.regeneration {
        cfg = cfg.with_regeneration(0);
    }
    if s.token_acks {
        cfg = cfg.with_token_acks(true);
    }
    cfg
}

/// Runs the workload, then pushes every node's state through the crash
/// pipeline and checks nothing durable was bent.
fn roundtrips<P: WireProtocol>(s: &Scenario) {
    let cfg = config(s);
    let mut world: World<P> = World::from_nodes(
        (0..s.n).map(|_| P::build(cfg)).collect(),
        WorldConfig::default().seed(s.seed),
    );
    for &(t, node, payload) in &s.requests {
        world.schedule_external(
            SimTime::from_ticks(t),
            NodeId::new(node),
            Want::new(payload),
        );
    }
    world.run_until(SimTime::from_ticks(s.horizon));

    for i in 0..s.n {
        let ck = world.node(NodeId::new(i as u32)).checkpoint();
        let bytes = ck.to_bytes();
        let back = Checkpoint::from_bytes(&bytes).expect("decode of a fresh encode");
        assert_eq!(back, ck, "wire roundtrip must be lossless");
        let restored = P::restore(cfg, &back);
        assert_eq!(
            restored.checkpoint(),
            ck,
            "restore must preserve every durable field"
        );
    }
}

#[test]
fn checkpoints_survive_the_crash_pipeline_for_every_protocol() {
    Check::new("checkpoint_roundtrip")
        .cases(32)
        .run(scenario, |s| {
            roundtrips::<RingNode>(s);
            roundtrips::<SearchNode>(s);
            roundtrips::<BinaryNode>(s);
            roundtrips::<NaimiNode>(s);
        });
}

/// Checkpoints cross the wire like any frame, so a flipped byte must be
/// survivable: decode returns (any) result instead of panicking, and a
/// successful decode still restores without tripping internal asserts —
/// unless the corruption forged the digest/log pair, which the restore
/// path is *supposed* to reject loudly.
#[test]
fn mutated_checkpoint_bytes_never_panic_the_decoder() {
    Check::new("checkpoint_mutation").cases(32).run(
        |g| {
            let s = scenario(g);
            (s, g.gen_range(0..u64::MAX), g.gen_range(1..=255u32) as u8)
        },
        |(s, pos_seed, flip)| {
            let cfg = config(s);
            let mut world: World<BinaryNode> = World::from_nodes(
                (0..s.n).map(|_| BinaryNode::new(cfg)).collect(),
                WorldConfig::default().seed(s.seed),
            );
            for &(t, node, payload) in &s.requests {
                world.schedule_external(
                    SimTime::from_ticks(t),
                    NodeId::new(node),
                    Want::new(payload),
                );
            }
            world.run_until(SimTime::from_ticks(s.horizon));
            let ck = world.node(NodeId::new(0)).checkpoint();
            let mut bytes = ck.to_bytes();
            let pos = (pos_seed % bytes.len() as u64) as usize;
            bytes[pos] ^= flip;
            // Must not panic; a clean decode of forged bytes is fine here —
            // digest-vs-log integrity is enforced by restore, not decode.
            let _ = Checkpoint::from_bytes(&bytes);
        },
    );
}
