//! The high-level service API: leases (mutual exclusion) and totally
//! ordered broadcast over a real multi-threaded cluster, in a dozen lines.
//!
//! ```sh
//! cargo run --example token_service
//! ```

use std::time::Duration;

use adaptive_token_passing::core::{ClusterConfig, ProtocolConfig, TokenService};
use adaptive_token_passing::net::NodeId;

fn main() {
    let n = 4;
    println!("== TokenService: leases + ordered broadcast over {n} threads ==\n");

    let service = TokenService::start(
        ClusterConfig::new(n)
            .with_tick(Duration::from_micros(300))
            .with_protocol(
                ProtocolConfig::default()
                    .with_service_ticks(2)
                    .with_adaptive_speed(true),
            ),
    );

    // 1. Mutual exclusion: take a lease from node 2's point of view.
    let lease = service
        .lock(NodeId::new(2), Duration::from_secs(10))
        .expect("lease");
    println!(
        "lease acquired by {} — exclusive for the configured 2-tick lease\n",
        lease.node
    );

    // 2. Totally ordered broadcast from every node concurrently.
    for i in 0..n {
        service
            .broadcast(NodeId::new(i as u32), 100 + i as u64)
            .expect("broadcast committed");
        println!("node n{i} committed its broadcast");
    }

    // 3. Consume the global order: seq numbers are gap-free, and each entry
    //    is reported once, by the node that committed it.
    println!("\nglobal order:");
    // The lease's zero-payload acquisition also occupies a history slot.
    for _ in 0..=n {
        match service.next_delivery(Duration::from_secs(10)) {
            Ok(d) => println!("  #{:<3} {} broadcast {}", d.seq, d.origin, d.payload),
            Err(e) => {
                println!("  (stream ended: {e})");
                break;
            }
        }
    }

    service.shutdown();
    println!("\ndone — see `TokenService` in atp-core for the API");
}
