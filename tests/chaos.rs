//! Chaos test: a long mixed scenario throwing everything at System
//! BinarySearch at once — crashes, recoveries, graceful leaves, rejoins,
//! lossy cheap messages, latency jitter, and a steady request stream —
//! asserting the core invariants at the end.

use adaptive_token_passing::core::{
    BinaryNode, EventSource, ProtocolConfig, TokenEvent, TokenNode, Want,
};
use adaptive_token_passing::net::{
    LinkFaults, NodeId, SimTime, StepOutcome, UniformLatency, World, WorldConfig,
};
use adaptive_token_passing::util::rng::{Rng, SeedableRng, StdRng};

#[derive(Debug, Default)]
struct Ledger {
    requested: u64,
    granted: u64,
    released: u64,
    regenerations: u64,
}

impl Ledger {
    fn record(&mut self, ev: &TokenEvent) {
        match ev {
            TokenEvent::Requested { .. } => self.requested += 1,
            TokenEvent::Granted { .. } => self.granted += 1,
            TokenEvent::Released { .. } => self.released += 1,
            TokenEvent::Regenerated { .. } => self.regenerations += 1,
            _ => {}
        }
    }
}

fn drain(world: &mut World<BinaryNode>, ledger: &mut Ledger) {
    for i in 0..world.len() {
        for ev in world.node_mut(NodeId::new(i as u32)).take_events() {
            ledger.record(&ev);
        }
    }
}

/// Per-step safety oracle, evaluated after **every** dispatched event, not
/// just at the end of the run — an end-state check cannot see a transient
/// split-brain or a divergence that later heals.
///
/// Crash victims are excluded from the prefix comparison: a holder that
/// dies with entries only it applied forks history when the survivors
/// regenerate, so their suffix may legitimately diverge until resynced (the
/// end-state check still covers them after the quiet tail). Two holders are
/// only split-brain when they share a token *generation*; a stale holder
/// coexisting with a regenerated one is expected until superseded.
fn assert_chaos_oracles(world: &World<BinaryNode>, crash_victims: &[u32], at: SimTime) {
    let n = world.len();
    for a in 0..n as u32 {
        if crash_victims.contains(&a) {
            continue;
        }
        for b in a + 1..n as u32 {
            if crash_victims.contains(&b) {
                continue;
            }
            let oa = world.node(NodeId::new(a)).order();
            let ob = world.node(NodeId::new(b)).order();
            assert!(
                oa.is_prefix_of(ob) || ob.is_prefix_of(oa),
                "prefix property violated between n{a} and n{b} at {at}"
            );
        }
    }
    let holders: Vec<(u32, u32)> = (0..n as u32)
        .filter(|&i| world.is_alive(NodeId::new(i)))
        .filter(|&i| world.node(NodeId::new(i)).holds_token())
        .map(|i| (i, world.node(NodeId::new(i)).generation()))
        .collect();
    for (i, &(ia, ga)) in holders.iter().enumerate() {
        for &(ib, gb) in &holders[i + 1..] {
            assert_ne!(
                ga, gb,
                "split brain: n{ia} and n{ib} both hold generation {ga} at {at}"
            );
        }
    }
}

/// Steps the world until `until` (or quiescence), tallying token events and
/// running the safety oracles after every dispatched event.
fn step_with_oracles(
    world: &mut World<BinaryNode>,
    until: SimTime,
    crash_victims: &[u32],
    ledger: &mut Ledger,
) {
    loop {
        let at = match world.step() {
            StepOutcome::Quiescent => break,
            StepOutcome::Consumed { at } => at,
            StepOutcome::Dispatched { node, at } => {
                for ev in world.node_mut(node).take_events() {
                    ledger.record(&ev);
                }
                assert_chaos_oracles(world, crash_victims, at);
                at
            }
        };
        if at > until {
            break;
        }
    }
}

#[test]
fn chaos_run_preserves_safety() {
    let n = 12usize;
    let mut rng = StdRng::seed_from_u64(0xC0FFEE);
    let cfg = ProtocolConfig::default()
        .with_service_ticks(1)
        .with_regeneration(60)
        .with_adaptive_speed(true);
    let mut world: World<BinaryNode> = World::from_nodes(
        (0..n).map(|_| BinaryNode::new(cfg)).collect(),
        WorldConfig::default()
            .seed(999)
            .latency(UniformLatency::new(1, 3))
            .link_faults(LinkFaults::control_drops(0.3)),
    );

    // Fault schedule: nodes 9, 10, 11 cycle through crash/recover; nodes 7, 8
    // leave gracefully and later rejoin. Nodes 0–6 stay healthy and request.
    for (k, victim) in [(0u64, 9u32), (1, 10), (2, 11)] {
        world.schedule_crash(SimTime::from_ticks(150 + 400 * k), NodeId::new(victim));
        world.schedule_recover(SimTime::from_ticks(350 + 400 * k), NodeId::new(victim));
    }
    world.schedule_external(SimTime::from_ticks(100), NodeId::new(7), Want::leave());
    world.schedule_external(SimTime::from_ticks(120), NodeId::new(8), Want::leave());
    world.schedule_external(SimTime::from_ticks(900), NodeId::new(7), Want::rejoin());
    world.schedule_external(SimTime::from_ticks(1100), NodeId::new(8), Want::rejoin());

    // Healthy nodes request throughout.
    let mut healthy_requests = 0u64;
    for t in (5..1_600).step_by(9) {
        let node = NodeId::new(rng.gen_range(0..7));
        world.schedule_external(SimTime::from_ticks(t), node, Want::new(t));
        healthy_requests += 1;
    }

    let crash_victims = [9u32, 10, 11];
    let mut ledger = Ledger::default();
    step_with_oracles(
        &mut world,
        SimTime::from_ticks(1_700),
        &crash_victims,
        &mut ledger,
    );
    // Quiet tail: let stragglers, syncs and regenerations settle, with the
    // oracles still armed on every event.
    let tail = SimTime::from_ticks(world.now().ticks() + 1_500);
    step_with_oracles(&mut world, tail, &crash_victims, &mut ledger);
    drain(&mut world, &mut ledger);

    // 1. Every grant has a matching release; grants never exceed requests.
    assert_eq!(ledger.granted, ledger.released);
    assert!(ledger.granted <= ledger.requested);

    // 2. All healthy-node requests are served (nodes 0–6 never fault).
    let healthy_grants: u64 = (0..7)
        .map(|i| world.node(NodeId::new(i)).grants())
        .sum();
    assert_eq!(
        healthy_grants, healthy_requests,
        "healthy nodes must not lose requests"
    );

    // 3. Prefix property holds pairwise across ALL nodes, including the
    //    recovered and rejoined ones.
    for a in 0..n {
        for b in 0..n {
            let oa = world.node(NodeId::new(a as u32)).order();
            let ob = world.node(NodeId::new(b as u32)).order();
            assert!(
                oa.is_prefix_of(ob) || ob.is_prefix_of(oa),
                "prefix property violated between n{a} and n{b}"
            );
        }
    }

    // 4. At most one current-generation token exists: count holders.
    let holders = (0..n)
        .filter(|&i| world.node(NodeId::new(i as u32)).holds_token())
        .count();
    assert!(holders <= 1, "split brain: {holders} holders");

    // 5. The fault schedule actually exercised regeneration.
    assert!(
        ledger.regenerations >= 1,
        "chaos schedule should have killed at least one token"
    );

    // 6. Rejoined nodes are being visited again.
    let before = world.node(NodeId::new(7)).last_visit().value();
    world.run_for(200);
    assert!(
        world.node(NodeId::new(7)).last_visit().value() > before,
        "rejoined node 7 is still excluded"
    );
}

#[test]
fn chaos_is_deterministic() {
    let run = || {
        let cfg = ProtocolConfig::default()
            .with_service_ticks(1)
            .with_regeneration(50);
        let mut world: World<BinaryNode> = World::from_nodes(
            (0..8).map(|_| BinaryNode::new(cfg)).collect(),
            WorldConfig::default()
                .seed(4242)
                .latency(UniformLatency::new(1, 4))
                .link_faults(LinkFaults::control_drops(0.5)),
        );
        world.schedule_crash(SimTime::from_ticks(30), NodeId::new(0));
        world.schedule_recover(SimTime::from_ticks(200), NodeId::new(0));
        for t in (2..400).step_by(7) {
            world.schedule_external(
                SimTime::from_ticks(t),
                NodeId::new((t % 8) as u32),
                Want::new(t),
            );
        }
        world.run_until(SimTime::from_ticks(900));
        let mut all = Vec::new();
        for i in 0..8 {
            all.extend(world.node_mut(NodeId::new(i)).take_events());
        }
        all.sort_by_key(|e| e.at());
        format!("{all:?}")
    };
    assert_eq!(run(), run());
}
