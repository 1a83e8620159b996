//! Cross-crate integration: the executable protocols uphold the paper's
//! safety properties under randomized workloads, jittery latency, and lossy
//! cheap messages. Runs on the in-repo `atp_util::check` harness.

use adaptive_token_passing::core::{
    BinaryNode, EventSource, ProtocolConfig, RingNode, SearchNode, TokenEvent, TokenNode, Want,
};
use adaptive_token_passing::net::{
    LinkFaults, Node, NodeId, SimTime, StepOutcome, UniformLatency, World, WorldConfig,
};
use adaptive_token_passing::util::check::{Check, Gen};
use adaptive_token_passing::util::rng::Rng;

/// A plan of requests to throw at a ring.
#[derive(Debug, Clone)]
struct Plan {
    n: usize,
    requests: Vec<(u64, u32, u64)>, // (time, node, payload)
    seed: u64,
    jitter: bool,
    drop_p: f64,
}

fn plan(g: &mut Gen) -> Plan {
    let n = g.gen_range(2usize..10);
    let seed = g.gen_range(0..=u64::MAX);
    let jitter = g.gen_bool(0.5);
    let drop_p = match g.gen_range(0u8..3) {
        0 => 0.0,
        1 => 0.3,
        _ => 1.0,
    };
    let requests = g.vec(1..25, |g| {
        (
            g.gen_range(1u64..400),
            g.gen_range(0..n as u32),
            g.gen_range(0u64..1000),
        )
    });
    Plan {
        n,
        requests,
        seed,
        jitter,
        drop_p,
    }
}

/// The shrunk counterexample a previous proptest run checked in
/// (`.proptest-regressions`): a burst of identical requests at tick 1 with
/// two stragglers, under jitter. Replayed verbatim against every property.
fn regression_plan() -> Plan {
    let mut requests = vec![(1u64, 1u32, 0u64); 8];
    requests.push((87, 0, 279));
    requests.push((63, 1, 299));
    Plan {
        n: 3,
        requests,
        seed: 17181601655841544024,
        jitter: true,
        drop_p: 0.0,
    }
}

fn world_config(plan: &Plan) -> WorldConfig {
    let mut cfg = WorldConfig::default().seed(plan.seed);
    if plan.jitter {
        cfg = cfg.latency(UniformLatency::new(1, 3));
    }
    if plan.drop_p > 0.0 {
        cfg = cfg.link_faults(LinkFaults::control_drops(plan.drop_p));
    }
    cfg
}

/// Runs a plan against any protocol node type and checks the shared safety
/// properties; returns (grants, requests).
fn run_plan<N>(
    plan: &Plan,
    build: impl Fn() -> N,
    order: impl Fn(&N) -> &adaptive_token_passing::core::OrderState,
) -> (u64, u64)
where
    N: Node<Ext = Want> + EventSource,
{
    let mut world: World<N> =
        World::from_nodes((0..plan.n).map(|_| build()).collect(), world_config(plan));
    for (t, node, payload) in &plan.requests {
        world.schedule_external(
            SimTime::from_ticks(*t),
            NodeId::new(node % plan.n as u32),
            Want::new(*payload),
        );
    }
    // Long enough for every protocol to serve everything (rotation covers
    // the ring many times over). Stepped manually so the safety oracles run
    // after EVERY dispatched event, not just at the end: a transient
    // divergence that later heals would silently pass an end-state check.
    let horizon = SimTime::from_ticks(400 + 50 * plan.n as u64);
    loop {
        let at = match world.step() {
            StepOutcome::Quiescent => break,
            StepOutcome::Consumed { at } => at,
            StepOutcome::Dispatched { at, .. } => {
                assert_prefix_oracle(&world, plan.n, &order, at);
                at
            }
        };
        if at > horizon {
            break;
        }
    }

    let mut grants = 0u64;
    let mut requests = 0u64;
    let mut granted_now: Vec<(SimTime, SimTime)> = Vec::new(); // (grant, release)
    for i in 0..plan.n {
        for ev in world.node_mut(NodeId::new(i as u32)).take_events() {
            match ev {
                TokenEvent::Requested { .. } => requests += 1,
                TokenEvent::Granted { at, .. } => {
                    grants += 1;
                    granted_now.push((at, SimTime::MAX));
                }
                TokenEvent::Released { at, .. } => {
                    if let Some(open) = granted_now.iter_mut().rev().find(|g| g.1 == SimTime::MAX)
                    {
                        open.1 = at;
                    }
                }
                _ => {}
            }
        }
    }

    // Final pass over the settled end state.
    assert_prefix_oracle(&world, plan.n, &order, world.now());
    (grants, requests)
}

/// The per-step safety oracle: pairwise prefix property and no delivery
/// gaps (this file runs crash-free plans only).
fn assert_prefix_oracle<N>(
    world: &World<N>,
    n: usize,
    order: impl Fn(&N) -> &adaptive_token_passing::core::OrderState,
    at: SimTime,
) where
    N: Node<Ext = Want> + EventSource,
{
    for a in 0..n {
        let oa = order(world.node(NodeId::new(a as u32)));
        assert_eq!(oa.gap_events(), 0, "n{a} saw a gap without crashes at {at}");
        for b in a + 1..n {
            let ob = order(world.node(NodeId::new(b as u32)));
            assert!(
                oa.is_prefix_of(ob) || ob.is_prefix_of(oa),
                "prefix property violated between n{a} and n{b} at {at}"
            );
        }
    }
}

fn binary_body(plan: &Plan) {
    let cfg = ProtocolConfig::default();
    let (grants, requests) = run_plan(plan, || BinaryNode::new(cfg), |n| n.order());
    assert_eq!(grants, requests, "every request granted exactly once");
}

fn ring_body(plan: &Plan) {
    let cfg = ProtocolConfig::default();
    let (grants, requests) = run_plan(plan, || RingNode::new(cfg), |n| n.order());
    assert_eq!(grants, requests);
}

fn search_body(plan: &Plan) {
    // The lazy-search protocol *depends* on gimmes for liveness, so only
    // assert full service when nothing is dropped; safety must hold
    // regardless.
    let cfg = ProtocolConfig::default();
    let (grants, requests) = run_plan(plan, || SearchNode::new(cfg), |n| n.order());
    if plan.drop_p == 0.0 {
        assert_eq!(grants, requests);
    } else {
        assert!(grants <= requests);
    }
}

fn binary_all_optimizations_body(plan: &Plan) {
    let cfg = ProtocolConfig::default()
        .with_single_outstanding(true)
        .with_adaptive_speed(true)
        .with_serve_all_on_grant(true)
        .with_probe_on_idle(true);
    let (grants, requests) = run_plan(plan, || BinaryNode::new(cfg), |n| n.order());
    assert_eq!(grants, requests);
}

#[test]
fn binary_serves_everything_safely() {
    Check::new("binary_serves_everything_safely")
        .cases(48)
        .run(plan, binary_body);
}

#[test]
fn ring_serves_everything_safely() {
    Check::new("ring_serves_everything_safely")
        .cases(48)
        .run(plan, ring_body);
}

#[test]
fn search_is_safe_and_live_when_control_plane_works() {
    Check::new("search_is_safe_and_live_when_control_plane_works")
        .cases(48)
        .run(plan, search_body);
}

#[test]
fn binary_with_all_optimizations_is_still_safe() {
    Check::new("binary_with_all_optimizations_is_still_safe")
        .cases(48)
        .run(plan, binary_all_optimizations_body);
}

/// Replays the checked-in shrunk counterexample through every property body.
#[test]
fn shrunk_burst_plan_regression() {
    let plan = regression_plan();
    binary_body(&plan);
    ring_body(&plan);
    search_body(&plan);
    binary_all_optimizations_body(&plan);
}

#[test]
fn deterministic_across_identical_runs() {
    let plan = Plan {
        n: 7,
        requests: vec![(3, 1, 10), (9, 4, 20), (9, 6, 30), (40, 2, 40)],
        seed: 123,
        jitter: true,
        drop_p: 0.3,
    };
    let run = || {
        let cfg = ProtocolConfig::default();
        let mut world: World<BinaryNode> = World::from_nodes(
            (0..plan.n).map(|_| BinaryNode::new(cfg)).collect(),
            world_config(&plan),
        );
        for (t, node, payload) in &plan.requests {
            world.schedule_external(SimTime::from_ticks(*t), NodeId::new(*node), Want::new(*payload));
        }
        world.run_until(SimTime::from_ticks(600));
        let mut all = Vec::new();
        for i in 0..plan.n {
            all.extend(world.node_mut(NodeId::new(i as u32)).take_events());
        }
        all.sort_by_key(|e| e.at());
        format!("{all:?}")
    };
    assert_eq!(run(), run());
}
