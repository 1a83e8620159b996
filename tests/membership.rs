//! Dynamic membership (Section 5's future-work extension): graceful leave
//! and rejoin, across all three protocols.

use adaptive_token_passing::core::{
    BinaryNode, EventSource, ProtocolConfig, RingNode, SearchNode, TokenEvent, TokenNode, Want,
};
use adaptive_token_passing::net::{Node, NodeId, SimTime, World, WorldConfig};

fn world<N: Node<Ext = Want> + EventSource>(n: usize, build: impl Fn() -> N) -> World<N> {
    World::from_nodes((0..n).map(|_| build()).collect(), WorldConfig::default())
}

fn grants_of<N>(w: &World<N>, grants: impl Fn(&N) -> u64) -> Vec<u64>
where
    N: Node<Ext = Want> + EventSource,
{
    (0..w.len())
        .map(|i| grants(w.node(NodeId::new(i as u32))))
        .collect()
}

#[test]
fn ring_leaver_is_skipped_without_token_loss() {
    let cfg = ProtocolConfig::default();
    let mut w = world(6, || RingNode::new(cfg));
    // Node 3 leaves at t=5; node 4 requests periodically afterwards.
    w.schedule_external(SimTime::from_ticks(5), NodeId::new(3), Want::leave());
    for k in 0..10 {
        w.schedule_external(
            SimTime::from_ticks(20 + k * 10),
            NodeId::new(4),
            Want::new(k),
        );
    }
    w.run_until(SimTime::from_ticks(300));
    assert!(w.node(NodeId::new(3)).is_departed());
    assert_eq!(w.node(NodeId::new(4)).grants(), 10, "service continues");
    // No regeneration should have been needed: graceful leave keeps the
    // token alive.
    let mut regens = 0;
    for i in 0..6 {
        for ev in w.node_mut(NodeId::new(i)).take_events() {
            if matches!(ev, TokenEvent::Regenerated { .. }) {
                regens += 1;
            }
        }
    }
    assert_eq!(regens, 0);
    // The departed node stops being visited; the others keep rotating.
    let stamp3_before = w.node(NodeId::new(3)).last_visit().value();
    w.run_for(50);
    assert_eq!(
        w.node(NodeId::new(3)).last_visit().value(),
        stamp3_before,
        "departed node must not be visited"
    );
}

#[test]
fn binary_leaver_while_holding_hands_the_token_on() {
    let cfg = ProtocolConfig::default().with_service_ticks(4);
    let mut w = world(6, || BinaryNode::new(cfg));
    // Node 2 acquires, and *while serving* we queue its leave right after.
    w.schedule_external(SimTime::ZERO, NodeId::new(2), Want::new(1));
    w.run_until(SimTime::from_ticks(4));
    assert!(w.node(NodeId::new(2)).holds_token());
    let t = w.now();
    w.schedule_external(t + 10, NodeId::new(2), Want::leave());
    w.schedule_external(t + 20, NodeId::new(5), Want::new(2));
    w.run_until(SimTime::from_ticks(300));
    assert_eq!(w.node(NodeId::new(5)).grants(), 1);
    assert!(w.node(NodeId::new(2)).is_departed());
}

#[test]
fn rejoin_restores_service_to_the_node() {
    let cfg = ProtocolConfig::default();
    let mut w = world(5, || BinaryNode::new(cfg));
    w.schedule_external(SimTime::from_ticks(2), NodeId::new(1), Want::leave());
    // While departed, its Acquire stimuli are ignored.
    w.schedule_external(SimTime::from_ticks(20), NodeId::new(1), Want::new(7));
    w.run_until(SimTime::from_ticks(120));
    assert_eq!(w.node(NodeId::new(1)).grants(), 0);
    // Rejoin, then request again.
    let t = w.now();
    w.schedule_external(t, NodeId::new(1), Want::rejoin());
    w.schedule_external(t + 20, NodeId::new(1), Want::new(8));
    w.run_until(SimTime::from_ticks(400));
    assert!(!w.node(NodeId::new(1)).is_departed());
    assert_eq!(w.node(NodeId::new(1)).grants(), 1);
    // And the rotation visits it again.
    let before = w.node(NodeId::new(1)).last_visit().value();
    w.run_for(30);
    assert!(w.node(NodeId::new(1)).last_visit().value() > before);
}

#[test]
fn search_leaving_holder_hands_off_lazily() {
    let cfg = ProtocolConfig::default();
    let mut w = world(5, || SearchNode::new(cfg));
    // Token starts (lazily) at node 0; node 0 leaves.
    w.schedule_external(SimTime::from_ticks(3), NodeId::new(0), Want::leave());
    w.run_until(SimTime::from_ticks(20));
    assert!(
        !w.node(NodeId::new(0)).holds_token(),
        "departing holder must hand the token off"
    );
    // Someone else can still acquire it.
    let t = w.now();
    w.schedule_external(t, NodeId::new(3), Want::new(5));
    w.run_until(SimTime::from_ticks(200));
    assert_eq!(w.node(NodeId::new(3)).grants(), 1);
}

#[test]
fn half_the_ring_can_leave_and_the_rest_keeps_working() {
    let cfg = ProtocolConfig::default();
    let mut w = world(8, || BinaryNode::new(cfg));
    for i in [1u32, 3, 5, 7] {
        w.schedule_external(
            SimTime::from_ticks(2 + i as u64),
            NodeId::new(i),
            Want::leave(),
        );
    }
    for k in 0..12u64 {
        let node = [0u32, 2, 4, 6][(k % 4) as usize];
        w.schedule_external(
            SimTime::from_ticks(40 + k * 7),
            NodeId::new(node),
            Want::new(k),
        );
    }
    w.run_until(SimTime::from_ticks(600));
    let grants = grants_of(&w, |n: &BinaryNode| n.grants());
    assert_eq!(grants.iter().sum::<u64>(), 12);
    for i in [1usize, 3, 5, 7] {
        assert_eq!(grants[i], 0, "departed node {i} must not be granted");
    }
    // Survivors' histories still agree.
    for a in [0u32, 2, 4, 6] {
        for b in [0u32, 2, 4, 6] {
            let oa = w.node(NodeId::new(a)).order();
            let ob = w.node(NodeId::new(b)).order();
            assert!(oa.is_prefix_of(ob) || ob.is_prefix_of(oa));
        }
    }
}
