//! Quickstart: run System BinarySearch on a simulated ring and watch one
//! request being served in O(log N) message delays.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use adaptive_token_passing::core::{
    BinaryNode, EventSource, ProtocolConfig, TokenEvent, TokenNode, Want,
};
use adaptive_token_passing::net::{MsgClass, NodeId, SimTime, World, WorldConfig};

fn main() {
    let n = 64;
    println!("== adaptive token passing: quickstart ==");
    println!("ring of {n} nodes, unit message delay, token minted at n0\n");

    // Build the world: 64 nodes running the paper's System BinarySearch.
    let cfg = ProtocolConfig::default();
    let mut world: World<BinaryNode> = World::from_nodes(
        (0..n).map(|_| BinaryNode::new(cfg)).collect(),
        WorldConfig::default(),
    );

    // Let the token rotate a while, then node 40 wants to broadcast 1234.
    let requester = NodeId::new(40);
    let request_at = SimTime::from_ticks(10);
    world.schedule_external(request_at, requester, Want::new(1234));
    world.run_until(SimTime::from_ticks(200));

    // The node reports what happened through its event stream.
    for ev in world.node_mut(requester).take_events() {
        match ev {
            TokenEvent::Requested { req, at } => println!("{at}  {req} became ready"),
            TokenEvent::Granted { req, at } => {
                let waited = at.since(request_at);
                println!("{at}  {req} granted after {waited} message delays (log2 {n} = {})",
                    (n as f64).log2());
            }
            TokenEvent::Released { req, at } => println!("{at}  {req} released the token"),
            TokenEvent::Delivered { entry, at } => {
                println!("{at}  delivered {entry} into the local history")
            }
            other => println!("      {other:?}"),
        }
    }

    // Everyone eventually delivers the broadcast in the same global order.
    let delivered = (0..n)
        .filter(|&i| world.node(NodeId::new(i as u32)).order().applied_seq() == 1)
        .count();
    println!("\n{delivered}/{n} nodes have applied the broadcast");
    println!(
        "network: {} token messages, {} search messages",
        world.stats().sent(MsgClass::Token),
        world.stats().sent(MsgClass::Control),
    );
}
