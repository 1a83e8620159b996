//! Property-based tests of the discrete-event engine: determinism, causal
//! ordering, and loss accounting. Runs on the in-repo `atp_util::check`
//! harness.

use atp_net::{Context, Latency, LinkFaults, MsgClass, Node, NodeId, SimTime, World, WorldConfig};
use atp_util::check::{Check, Gen};
use atp_util::rng::Rng;

/// A node that forwards every message to a pseudo-random neighbour a fixed
/// number of times and records everything it sees.
#[derive(Debug, Default)]
struct Gossip {
    seen: Vec<(u64, NodeId, u64)>, // (time, from, hop-count)
}

impl Node for Gossip {
    type Msg = u64;
    type Ext = u64;

    fn on_external(&mut self, hops: u64, ctx: &mut Context<'_, u64>) {
        if hops > 0 {
            let n = ctx.topology().len() as u64;
            let to = NodeId::new(((hops * 7 + ctx.id().index() as u64) % n) as u32);
            ctx.send(to, hops, MsgClass::Control);
        }
    }

    fn on_message(&mut self, from: NodeId, hops: u64, ctx: &mut Context<'_, u64>) {
        self.seen.push((ctx.now().ticks(), from, hops));
        if hops > 1 {
            let n = ctx.topology().len() as u64;
            let to = NodeId::new(((hops * 13 + ctx.id().index() as u64) % n) as u32);
            ctx.send(to, hops - 1, MsgClass::Control);
        }
    }
}

#[derive(Debug, Clone)]
struct Scenario {
    n: usize,
    seed: u64,
    injections: Vec<(u64, u32, u64)>,
    jitter: (u64, u64),
    drop_p: f64,
}

fn scenario(g: &mut Gen) -> Scenario {
    let n = g.gen_range(2usize..12);
    let seed = g.gen_range(0..=u64::MAX);
    let injections = g.vec(1..20, |g| {
        (
            g.gen_range(0u64..100),
            g.gen_range(0u32..12),
            g.gen_range(1u64..8),
        )
    });
    let lo = g.gen_range(1u64..4);
    let hi = g.gen_range(lo..lo + 6);
    let drop_p = g.gen_range(0.0f64..0.9);
    Scenario {
        n,
        seed,
        injections,
        jitter: (lo, hi),
        drop_p,
    }
}

type SeenLog = Vec<Vec<(u64, NodeId, u64)>>;

fn run(s: &Scenario) -> (SeenLog, u64, u64) {
    let cfg = WorldConfig::default()
        .seed(s.seed)
        .latency(Latency::Uniform {
            lo: s.jitter.0,
            hi: s.jitter.1,
        })
        .link_faults(LinkFaults::control_drops(s.drop_p));
    let mut w: World<Gossip> = World::new(s.n, cfg);
    for (t, node, hops) in &s.injections {
        w.schedule_external(
            SimTime::from_ticks(*t),
            NodeId::new(node % s.n as u32),
            *hops,
        );
    }
    w.run_to_quiescence();
    let seen = (0..s.n)
        .map(|i| w.node(NodeId::new(i as u32)).seen.clone())
        .collect();
    (
        seen,
        w.stats().total_sent(),
        w.stats().dropped(MsgClass::Control),
    )
}

/// Identical scenarios replay identically, bit for bit.
#[test]
fn same_seed_same_trace() {
    Check::new("same_seed_same_trace")
        .cases(64)
        .run(scenario, |s| assert_eq!(run(s), run(s)));
}

/// Message conservation: sent = delivered + dropped (+ in-flight = 0 at
/// quiescence, and nothing dead-letters without crashes).
#[test]
fn message_conservation() {
    Check::new("message_conservation")
        .cases(64)
        .run(scenario, |s| {
            let cfg = WorldConfig::default()
                .seed(s.seed)
                .latency(Latency::Uniform {
                    lo: s.jitter.0,
                    hi: s.jitter.1,
                })
                .link_faults(LinkFaults::control_drops(s.drop_p));
            let mut w: World<Gossip> = World::new(s.n, cfg);
            for (t, node, hops) in &s.injections {
                w.schedule_external(
                    SimTime::from_ticks(*t),
                    NodeId::new(node % s.n as u32),
                    *hops,
                );
            }
            w.run_to_quiescence();
            let sent = w.stats().sent(MsgClass::Control);
            let delivered = w.stats().delivered(MsgClass::Control);
            let dropped = w.stats().dropped(MsgClass::Control);
            assert_eq!(sent, delivered + dropped);
            assert_eq!(w.stats().dead_letter(MsgClass::Control), 0);
        });
}

/// Delivery respects latency bounds: every receive happens within
/// `[lo, hi]` ticks of some possible send time (weak causal sanity:
/// receive times are never before the first injection).
#[test]
fn no_delivery_before_first_injection() {
    Check::new("no_delivery_before_first_injection")
        .cases(64)
        .run(scenario, |s| {
            let first = s.injections.iter().map(|(t, _, _)| *t).min().unwrap();
            let (seen, _, _) = run(s);
            for per_node in &seen {
                for (at, _, _) in per_node {
                    assert!(*at >= first + s.jitter.0);
                }
            }
        });
}

/// Observed per-node event times are monotone (the engine dispatches in
/// global time order).
#[test]
fn per_node_times_are_monotone() {
    Check::new("per_node_times_are_monotone")
        .cases(64)
        .run(scenario, |s| {
            let (seen, _, _) = run(s);
            for per_node in &seen {
                for w in per_node.windows(2) {
                    assert!(w[0].0 <= w[1].0);
                }
            }
        });
}

/// With no drop model, nothing is ever dropped regardless of jitter.
#[test]
fn lossless_when_drop_zero() {
    Check::new("lossless_when_drop_zero").cases(64).run(
        |g| {
            let mut s = scenario(g);
            s.drop_p = 0.0;
            s
        },
        |s| {
            let (_, sent, dropped) = run(s);
            assert!(sent > 0);
            assert_eq!(dropped, 0);
        },
    );
}
