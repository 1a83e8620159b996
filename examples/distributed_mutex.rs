//! Distributed mutual exclusion on a real cluster.
//!
//! One reactor thread hosts every node; messages travel between the nodes
//! as encoded byte frames over channels (the same wire format a socket
//! deployment would use), and the clients run on threads of their own. Several "clients" contend for the token-guarded critical section;
//! the event stream proves mutual exclusion: grants never overlap.
//!
//! ```sh
//! cargo run --example distributed_mutex
//! ```

use std::time::{Duration, Instant};

use adaptive_token_passing::core::{Cluster, ClusterConfig, ProtocolConfig, TokenEvent};
use adaptive_token_passing::net::NodeId;

fn main() {
    let n = 6;
    let requests_per_node = 3;
    println!("== distributed mutex: {n} threads, {requests_per_node} acquisitions each ==\n");

    let cfg = ClusterConfig::new(n)
        .with_tick(Duration::from_micros(300))
        .with_protocol(
            ProtocolConfig::default()
                .with_service_ticks(2) // hold the lock for 2 ticks
                .with_adaptive_speed(true)
                .with_max_idle_pass_ticks(64),
        );
    let cluster: Cluster = Cluster::start(cfg);

    // Every node asks for the critical section several times.
    for round in 0..requests_per_node {
        for i in 0..n {
            cluster.request(NodeId::new(i as u32), (round * n + i) as u64);
        }
    }

    // Observe the grant/release interleaving and verify mutual exclusion.
    let expected = n * requests_per_node;
    let mut grants = 0;
    let mut in_section: Option<NodeId> = None;
    let mut max_concurrent_violations = 0;
    let deadline = Instant::now() + Duration::from_secs(30);
    while grants < expected && Instant::now() < deadline {
        match cluster.events().recv_timeout(Duration::from_millis(500)) {
            Ok((node, TokenEvent::Granted { req, .. })) => {
                if in_section.is_some() {
                    max_concurrent_violations += 1;
                }
                in_section = Some(node);
                grants += 1;
                println!("ENTER  {node} (request {req})");
            }
            Ok((node, TokenEvent::Released { .. })) => {
                if in_section == Some(node) {
                    in_section = None;
                }
                println!("LEAVE  {node}");
            }
            Ok(_) => {}
            Err(_) => {}
        }
    }

    println!("\n{grants}/{expected} acquisitions completed");
    println!("per-node grant counts: {:?}", cluster.grants());
    assert_eq!(
        max_concurrent_violations, 0,
        "two nodes were in the critical section at once!"
    );
    println!("mutual exclusion held throughout ✓");
    cluster.shutdown();
}
