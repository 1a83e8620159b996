//! Failure-injection integration tests: Section 5's sketch, exercised
//! end-to-end across all three protocols.

use adaptive_token_passing::core::{
    BinaryNode, EventSource, ProtocolConfig, RingNode, TokenEvent, TokenNode, Want,
};
use adaptive_token_passing::net::{FailurePlan, NodeId, SimTime, World, WorldConfig};
use adaptive_token_passing::sim::runner::{run_experiment, ExperimentSpec, Protocol};
use adaptive_token_passing::sim::workload::{GlobalPoisson, SingleShot};

fn regen_cfg() -> ProtocolConfig {
    ProtocolConfig::default()
        .with_service_ticks(4)
        .with_regeneration(24)
}

/// Crash the holder of every protocol; a pending request must still be
/// served, via regeneration.
#[test]
fn all_protocols_survive_holder_crash() {
    for protocol in Protocol::ALL {
        let failures = FailurePlan::new()
            .crash_at(SimTime::from_ticks(1), NodeId::new(0))
            .crash_at(SimTime::from_ticks(1), NodeId::new(1));
        let spec = ExperimentSpec::new(protocol, 8, 2_000)
            .with_cfg(regen_cfg())
            .with_failures(failures);
        let mut wl = SingleShot::new(SimTime::from_ticks(4), NodeId::new(5));
        let s = run_experiment(&spec, &mut wl);
        assert_eq!(
            s.metrics.grants, 1,
            "{}: request not served after holder crash",
            protocol.label()
        );
        assert!(
            s.metrics.regenerations >= 1,
            "{}: no regeneration occurred",
            protocol.label()
        );
    }
}

/// Repeated crashes: kill each successive regenerated holder; generations
/// climb, liveness persists for the survivors.
#[test]
fn repeated_crashes_escalate_generations() {
    let n = 8;
    let mut failures = FailurePlan::new();
    // Kill nodes 0..3 in waves.
    for (k, t) in [(0u32, 1u64), (1, 120), (2, 300), (3, 500)] {
        failures = failures.crash_at(SimTime::from_ticks(t), NodeId::new(k));
    }
    let spec = ExperimentSpec::new(Protocol::Binary, n, 4_000)
        .with_cfg(regen_cfg())
        .with_failures(failures);
    let mut wl = GlobalPoisson::new(40.0);
    let s = run_experiment(&spec, &mut wl);
    // Some requests land on crashed nodes and die with them; every request
    // from a live node is eventually granted.
    assert!(s.metrics.grants > 0);
    assert!(s.metrics.regenerations >= 1);
}

/// A recovered node rejoins the rotation and can acquire the token again.
#[test]
fn recovery_rejoins_rotation() {
    let cfg = regen_cfg();
    let mut world: World<BinaryNode> = World::from_nodes(
        (0..6).map(|_| BinaryNode::new(cfg)).collect(),
        WorldConfig::default(),
    );
    // Crash node 2 while it serves; regenerate; then recover it.
    world.schedule_external(SimTime::ZERO, NodeId::new(2), Want::new(1));
    world.run_until(SimTime::from_ticks(4));
    assert!(world.node(NodeId::new(2)).holds_token());
    let t = world.now();
    world.schedule_crash(t, NodeId::new(2));
    world.schedule_external(t + 2, NodeId::new(4), Want::new(2));
    world.run_until(SimTime::from_ticks(600));
    assert_eq!(world.node(NodeId::new(4)).grants(), 1);

    let t = world.now();
    world.schedule_recover(t, NodeId::new(2));
    world.schedule_external(t + 40, NodeId::new(2), Want::new(3));
    world.run_for(600);
    assert_eq!(
        world.node(NodeId::new(2)).grants(),
        2,
        "recovered node should be served again"
    );
    // A node that was down longer than the token's two-round carried window
    // misses the older entries; gap detection triggers a state transfer
    // from its successor, so it must fully catch up (peers keep full logs
    // in this test: record_log is on by default).
    world.run_for(50);
    let order = world.node(NodeId::new(2)).order();
    assert!(
        order.applied_seq() >= 2,
        "recovered node should catch up via state transfer (applied {}, gaps {})",
        order.applied_seq(),
        order.gap_events()
    );
    // And its prefix agrees with everyone else's.
    for i in [0u32, 1, 3, 4, 5] {
        let other = world.node(NodeId::new(i)).order();
        assert!(order.is_prefix_of(other) || other.is_prefix_of(order));
    }
}

/// Crashing a node that never held the token: the ring regenerates once the
/// rotation dead-letters at it, and afterwards routes around it.
#[test]
fn ring_routes_around_dead_bystander() {
    let cfg = regen_cfg();
    let mut world: World<RingNode> = World::from_nodes(
        (0..6).map(|_| RingNode::new(cfg)).collect(),
        WorldConfig::default(),
    );
    world.schedule_crash(SimTime::from_ticks(1), NodeId::new(3));
    world.schedule_external(SimTime::from_ticks(5), NodeId::new(5), Want::new(9));
    world.run_until(SimTime::from_ticks(1_500));
    assert_eq!(world.node(NodeId::new(5)).grants(), 1);
    // After regeneration the token keeps cycling among the 5 live nodes: all
    // should keep receiving fresh stamps.
    let before: Vec<u64> = (0..6)
        .map(|i| world.node(NodeId::new(i)).last_visit().value())
        .collect();
    world.run_for(100);
    for i in [0u32, 1, 2, 4, 5] {
        let after = world.node(NodeId::new(i)).last_visit().value();
        assert!(
            after > before[i as usize],
            "live node {i} starved after exclusion"
        );
    }
}

/// Crash-during-inquiry: the inquirer itself dies; another requester
/// eventually completes regeneration.
#[test]
fn inquirer_crash_does_not_wedge_recovery() {
    let cfg = regen_cfg();
    let mut world: World<BinaryNode> = World::from_nodes(
        (0..6).map(|_| BinaryNode::new(cfg)).collect(),
        WorldConfig::default(),
    );
    // Kill the initial holder immediately.
    world.schedule_external(SimTime::ZERO, NodeId::new(0), Want::new(1));
    world.run_until(SimTime::from_ticks(2));
    world.schedule_crash(world.now(), NodeId::new(0));
    // First requester starts suspecting, then dies mid-inquiry (~t=30).
    world.schedule_external(SimTime::from_ticks(4), NodeId::new(2), Want::new(2));
    world.schedule_crash(SimTime::from_ticks(30), NodeId::new(2));
    // Second requester finishes the job.
    world.schedule_external(SimTime::from_ticks(10), NodeId::new(4), Want::new(3));
    world.run_until(SimTime::from_ticks(1_000));
    assert_eq!(world.node(NodeId::new(4)).grants(), 1);
    let mut regen_seen = false;
    for i in 0..6 {
        for ev in world.node_mut(NodeId::new(i)).take_events() {
            if matches!(ev, TokenEvent::Regenerated { .. }) {
                regen_seen = true;
            }
        }
    }
    assert!(regen_seen);
}
