//! What one token possession costs, as a count instead of a clock.
//!
//! Every node still applies every entry of `H` (Σ `applied_seq` is
//! grants × N, pinned below from the commit before the prefix-digest memo),
//! but a node whose digest the token's chain vouches for adopts the window's
//! head instead of re-chaining it: digest-chain steps over a whole run are a
//! few per grant, not one per grant per node. A wall clock on this host
//! drifts ±25 % between runs; this count does not drift at all.

use adaptive_token_passing::core::{
    BinaryNode, OrderState, ProtocolConfig, RingNode, TokenNode, Want,
};
use adaptive_token_passing::net::{Node, NodeId, SimTime, World, WorldConfig};

const N: usize = 2_000;
const HORIZON: u64 = 4 * N as u64;

struct Cost {
    grants: u64,
    applied: u64,
    chain_calls: u64,
}

/// One request every 10 ticks at a node picked by a fixed stride, logs off,
/// default unit-latency network: the `sim-scale-n20k` shape at a tenth of N.
fn drive<P: Node<Ext = Want>>(
    build: impl Fn(ProtocolConfig) -> P,
    order: impl Fn(&P) -> &OrderState,
    grants: impl Fn(&P) -> u64,
) -> Cost {
    let cfg = ProtocolConfig::default().with_record_log(false);
    let mut world: World<P> = World::from_nodes(
        (0..N).map(|_| build(cfg)).collect(),
        WorldConfig::default().seed(1),
    );
    for k in 1..HORIZON / 10 {
        let node = NodeId::new((k * 7_919 % N as u64) as u32);
        world.schedule_external(SimTime::from_ticks(10 * k), node, Want::new(k));
    }
    world.run_until(SimTime::from_ticks(HORIZON));
    let sum = |f: &dyn Fn(&P) -> u64| world.nodes().map(|(_, node)| f(node)).sum::<u64>();
    Cost {
        grants: sum(&grants),
        applied: sum(&|node| order(node).applied_seq()),
        chain_calls: sum(&|node| order(node).chain_calls()),
    }
}

fn assert_flat_in_n(label: &str, cost: Cost, grants: u64, applied: u64) {
    assert_eq!(cost.grants, grants, "{label}: grants moved");
    assert_eq!(cost.applied, applied, "{label}: history applications moved");
    assert!(
        cost.chain_calls <= 4 * cost.grants + N as u64,
        "{label}: {} digest-chain steps for {} grants at N = {N} (entry-by-entry: {})",
        cost.chain_calls,
        cost.grants,
        cost.applied,
    );
}

#[test]
fn binary_possession_chains_a_constant_number_of_entries_per_grant() {
    let cost = drive(BinaryNode::new, BinaryNode::order, BinaryNode::grants);
    assert_flat_in_n("binary", cost, 798, 1_357_643);
}

#[test]
fn ring_possession_chains_a_constant_number_of_entries_per_grant() {
    let cost = drive(RingNode::new, RingNode::order, RingNode::grants);
    assert_flat_in_n("ring", cost, 701, 1_201_032);
}
