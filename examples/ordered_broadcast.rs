//! Totally ordered broadcast — the paper's motivating application.
//!
//! Several nodes broadcast concurrently; the token serializes the messages
//! into one global history `H`, and every node applies exactly the same
//! prefix of it (Definition 2's prefix property). This example runs the
//! scenario on the deterministic simulator with jittery latencies and lossy
//! cheap messages, then verifies the prefix property across all nodes.
//!
//! ```sh
//! cargo run --example ordered_broadcast
//! ```

use adaptive_token_passing::core::{BinaryNode, ProtocolConfig, TokenNode, Want};
use adaptive_token_passing::net::{Latency, LinkFaults, NodeId, SimTime, World, WorldConfig};

fn main() {
    let n = 10;
    println!("== totally ordered broadcast over System BinarySearch ==");
    println!("{n} nodes, latency U(1,4), 30% of search messages lost\n");

    let cfg = ProtocolConfig::default(); // record_log on: full histories kept
    let mut world: World<BinaryNode> = World::from_nodes(
        (0..n).map(|_| BinaryNode::new(cfg)).collect(),
        WorldConfig::default()
            .seed(2024)
            .latency(Latency::Uniform { lo: 1, hi: 4 })
            .link_faults(LinkFaults::control_drops(0.3)),
    );

    // A burst of concurrent broadcasts from every node.
    for k in 0..30u64 {
        let node = NodeId::new((k % n as u64) as u32);
        world.schedule_external(SimTime::from_ticks(1 + k * 3), node, Want::new(100 + k));
    }
    world.run_until(SimTime::from_ticks(2_000));

    // Print each node's view: applied prefix length + digest.
    println!("node  applied  digest");
    for (id, node) in world.nodes() {
        println!(
            "{id:>4}  {:>7}  {:016x}",
            node.order().applied_seq(),
            node.order().digest().0
        );
    }

    // Verify the prefix property pairwise.
    let nodes: Vec<_> = (0..n).map(|i| world.node(NodeId::new(i as u32))).collect();
    for a in &nodes {
        for b in &nodes {
            assert!(
                a.order().is_prefix_of(b.order()) || b.order().is_prefix_of(a.order()),
                "prefix property violated!"
            );
        }
    }
    println!("\nevery local history is a prefix of every longer one ✓");

    // Show the committed order as seen by the most caught-up node.
    let longest = nodes
        .iter()
        .max_by_key(|nd| nd.order().applied_seq())
        .unwrap();
    let order: Vec<String> = longest
        .order()
        .log()
        .iter()
        .take(10)
        .map(|e| format!("{}:{}", e.origin, e.payload))
        .collect();
    println!("global order (first 10): {}", order.join(" → "));
}
