//! Real-transport cluster runner: hosts one of the four token-passing
//! protocols on OS threads over loopback TCP (or in-process channels) and
//! measures wall-clock service behavior.
//!
//! Flags are declared once through `atp_sim::cli::Parser`; `--help`
//! prints the generated usage, which therefore can never drift from the
//! parser.
//!
//! Default mode is a closed-loop benchmark: requests are issued one at a
//! time round-robin across the nodes, each timed from submission to grant;
//! the report gives throughput and latency percentiles. With `--shards K`
//! (K > 1) the benchmark runs the sharded plane instead: requests are
//! key-addressed (`--key-dist uniform|zipf`), routed by hash to their
//! shard's protocol instance.
//!
//! `--conform` instead runs the deterministic conformance check used by CI:
//! the pinned reference script is driven over the chosen transport and the
//! outcome (grant order + per-node history digests) must be identical to
//! the same script inside the deterministic `World`. Exit status 1 on any
//! divergence, loss, decode error, or leaked thread.
//!
//! `--chaos` runs the crash–restart recovery campaign: seeded kill/restart
//! schedules (warm and cold, up to two victims) combined with ~1% wire-level
//! byte corruption injected under the CRC32 framing. Every scenario must end
//! with zero unserved requests, no duplicate grants, no same-generation dual
//! possession, every injected fault accounted for by its detector, and a
//! clean thread teardown. The printed report is deterministic so CI can diff
//! it across thread counts. Exit status 1 on any violation.

use std::sync::Arc;
use std::time::{Duration, Instant};

use atp_core::{
    Cluster, ClusterConfig, ProtocolConfig, ShardedCluster, ShardedClusterConfig, TokenEvent,
    WireProtocol,
};
use atp_net::{
    ChanTransport, ChaosConfig, ChaosCounters, ChaosEndpoint, NodeId, TcpTransport, Transport,
};
use atp_sim::cli::Parser;
use atp_sim::cluster::{
    run_in_world, run_on_endpoints, run_on_transport, ClusterScript, CrashEvent, DriverOptions,
};
use atp_sim::runner::{Protocol, ProtocolNode, ProtocolVisitor};
use atp_sim::KeyDist;

struct Args {
    protocol: Protocol,
    transport: String,
    n: usize,
    requests: u64,
    tick_us: u64,
    seed: u64,
    conform: bool,
    chaos: bool,
    shards: u16,
    key_dist: KeyDist,
}

fn parse_args() -> Args {
    let parser = Parser::new("cluster")
        .flag("--protocol", "ring|search|binary|naimi", "protocol to host")
        .flag("--transport", "tcp|chan", "wire transport")
        .flag("--n", "N", "node count")
        .flag("--requests", "K", "closed-loop request count")
        .flag("--tick-us", "U", "timer tick in microseconds")
        .flag("--seed", "S", "determinism seed")
        .switch("--conform", "run the deterministic CI conformance check")
        .switch("--chaos", "run the crash-restart chaos campaign")
        .shard_flags();
    let m = parser.parse_or_exit(std::env::args().skip(1).collect());
    let bail = |e: String| -> ! {
        eprintln!("cluster: {e}");
        std::process::exit(2);
    };
    Args {
        protocol: m.protocol(Protocol::Binary).unwrap_or_else(|e| bail(e)),
        transport: m.get_str("--transport", "tcp"),
        n: m.get_num("--n", 8).unwrap_or_else(|e| bail(e)),
        requests: m.get_num("--requests", 200).unwrap_or_else(|e| bail(e)),
        tick_us: m.get_num("--tick-us", 200).unwrap_or_else(|e| bail(e)),
        seed: m.get_num("--seed", 7).unwrap_or_else(|e| bail(e)),
        conform: m.has("--conform"),
        chaos: m.has("--chaos"),
        shards: m.shards(1).unwrap_or_else(|e| bail(e)),
        key_dist: m.key_dist(KeyDist::Uniform).unwrap_or_else(|e| bail(e)),
    }
}

fn main() {
    let args = parse_args();
    struct Run<'a>(&'a Args);
    impl ProtocolVisitor for Run<'_> {
        type Out = ();
        fn run<P: ProtocolNode>(self) {
            dispatch::<P>(self.0);
        }
    }
    args.protocol.dispatch(Run(&args));
}

fn dispatch<P: ProtocolNode>(args: &Args) {
    if args.shards > 1 && (args.chaos || args.conform) {
        eprintln!("cluster: --shards only applies to the benchmark mode");
        std::process::exit(2);
    }
    match (args.chaos, args.conform, args.transport.as_str()) {
        (true, _, "tcp") => chaos::<P, TcpTransport>(args),
        (true, _, "chan") => chaos::<P, ChanTransport>(args),
        (false, true, "tcp") => conform::<P, TcpTransport>(args),
        (false, true, "chan") => conform::<P, ChanTransport>(args),
        (false, false, "tcp") if args.shards > 1 => sharded_bench::<P, TcpTransport>(args),
        (false, false, "chan") if args.shards > 1 => sharded_bench::<P, ChanTransport>(args),
        (false, false, "tcp") => bench::<P, TcpTransport>(args),
        (false, false, "chan") => bench::<P, ChanTransport>(args),
        (_, _, other) => {
            eprintln!("cluster: unknown transport {other:?} (tcp|chan)");
            std::process::exit(2);
        }
    }
}

/// The CI smoke path: pinned script, real transport, byte-exact comparison
/// against the deterministic engine.
fn conform<P: ProtocolNode, T: Transport>(args: &Args) {
    let script = ClusterScript::reference(args.seed);
    let world = run_in_world::<P>(&script);
    let (real, stats) = run_on_transport::<P, T>(&script).unwrap_or_else(|e| {
        eprintln!("cluster: transport setup failed: {e}");
        std::process::exit(1);
    });
    let ok = world == real && world.grants.len() == script.requests.len() && stats.is_clean();
    println!(
        "conform protocol={} transport={} seed={} grants={} lost={} decode_errors={} {}",
        P::LABEL,
        T::label(),
        args.seed,
        real.grants.len(),
        stats.frames_lost,
        stats.decode_errors,
        if ok { "OK" } else { "DIVERGED" }
    );
    if !ok {
        eprintln!("world: {world:?}");
        eprintln!("real:  {real:?}");
        eprintln!("stats: {stats:?}");
        std::process::exit(1);
    }
}

/// One crash–restart scenario of the chaos campaign.
struct ChaosScenario {
    name: &'static str,
    crashes: Vec<CrashEvent>,
    /// Requests appended to the reference script (late traffic that must
    /// survive the outage windows).
    extra_requests: Vec<(u64, u32, u64)>,
}

/// The pinned kill/restart × corruption matrix. Victims are chosen so no
/// crash ever swallows an already-dispatched, not-yet-granted request of
/// its own (a dead process forgets what it wanted; the environment only
/// re-presents requests the supervisor never delivered).
fn chaos_scenarios() -> Vec<ChaosScenario> {
    vec![
        // Node 3 takes the idle token down with it shortly after its own
        // grant; recovery needs full Section-5 regeneration.
        ChaosScenario {
            name: "warm-token-loss",
            crashes: vec![CrashEvent { node: 3, at: 40, restart_at: 110, warm: true }],
            extra_requests: vec![],
        },
        // Node 4 is cold-restarted across its own request window: the
        // request defers past the outage and is served by the new life.
        ChaosScenario {
            name: "cold-defer",
            crashes: vec![CrashEvent { node: 4, at: 60, restart_at: 130, warm: false }],
            extra_requests: vec![],
        },
        // Two victims: the first crash forces regeneration, the second
        // kills the regenerated token after node 1's late grant. The gap
        // between node 1's request (160) and its crash (260) spans a full
        // regen-timeout resend cycle, so even a corrupted request frame is
        // re-driven and granted before the axe falls.
        ChaosScenario {
            name: "double-crash",
            crashes: vec![
                CrashEvent { node: 3, at: 40, restart_at: 110, warm: true },
                CrashEvent { node: 1, at: 260, restart_at: 330, warm: true },
            ],
            extra_requests: vec![(160, 1, 111), (280, 0, 121), (360, 2, 131)],
        },
    ]
}

/// The crash–restart recovery campaign: each pinned scenario runs the
/// supervisor-driven script through [`ChaosEndpoint`]-wrapped transport
/// endpoints injecting ~1% byte corruption (plus mid-frame cuts in the
/// two-victim scenario), then checks every recovery oracle.
fn chaos<P: ProtocolNode, T: Transport>(args: &Args) {
    let mut failed = false;
    for (idx, scenario) in chaos_scenarios().into_iter().enumerate() {
        let mut script = ClusterScript::reference(args.seed);
        script.cfg = ProtocolConfig::default()
            .with_regeneration(0)
            .with_token_acks(true);
        script.horizon = 600;
        script.requests.extend(scenario.extra_requests.iter().copied());

        let raw = T::endpoints(script.n).unwrap_or_else(|e| {
            eprintln!("cluster: transport setup failed: {e}");
            std::process::exit(1);
        });
        let mut chaos_cfg = ChaosConfig::new(args.seed ^ ((idx as u64 + 1) << 32))
            .corrupt(10)
            .protect(16);
        if scenario.crashes.len() > 1 {
            chaos_cfg = chaos_cfg.truncate(3).disconnect(3);
        }
        let endpoints: Vec<ChaosEndpoint<T::Endpoint>> = raw
            .into_iter()
            .map(|ep| ChaosEndpoint::new(ep, chaos_cfg))
            .collect();
        let counters: Vec<Arc<ChaosCounters>> =
            endpoints.iter().map(ChaosEndpoint::counters).collect();
        let opts = DriverOptions {
            crashes: scenario.crashes.clone(),
            check_oracles: true,
            // Writes buffered into a connection the crash just killed
            // vanish inside the kernel; they would have been discarded as
            // dead-node traffic anyway, so don't wait long for them.
            loss_grace: Duration::from_millis(750),
            ..DriverOptions::default()
        };
        let (out, stats) = run_on_endpoints::<P, _>(&script, endpoints, opts);

        let sum = |f: fn(&ChaosCounters) -> u64| -> u64 { counters.iter().map(|c| f(c)).sum() };
        let injected = sum(|c| c.injected_corruptions.load(std::sync::atomic::Ordering::Relaxed))
            + sum(|c| c.injected_truncations.load(std::sync::atomic::Ordering::Relaxed))
            + sum(|c| c.injected_disconnects.load(std::sync::atomic::Ordering::Relaxed));
        let accounted = ChaosCounters::all_accounted_for(&counters);
        let clean_close = stats.close_reports.iter().all(|r| r.is_clean());
        let all_restarted = stats.crash_records.iter().all(|r| r.restarted_at.is_some());
        let unserved = script.requests.len() as i64 - out.grants.len() as i64;
        // `frames_lost` is deliberately absent: physical loss only happens
        // on links into the crashed node (whose traffic the supervisor
        // discards regardless), and its exact count is a kernel-timing
        // race — unlike everything asserted here.
        let ok = unserved == 0
            && out.duplicate_grants() == 0
            && stats.dual_possession == 0
            && accounted
            && clean_close
            && all_restarted;
        failed |= !ok;

        // stdout carries only schedule-deterministic fields so CI can diff
        // it across thread counts; timing-sensitive tallies go to stderr.
        println!(
            "chaos protocol={} transport={} scenario={} seed={} requests={} grants={} \
             unserved={} dup_grants={} dual_possession={} deferred={} accounted={} \
             clean_close={} restarted={} {}",
            P::LABEL,
            T::label(),
            scenario.name,
            args.seed,
            script.requests.len(),
            out.grants.len(),
            unserved,
            out.duplicate_grants(),
            stats.dual_possession,
            stats.requests_deferred,
            accounted,
            clean_close,
            all_restarted,
            if ok { "OK" } else { "FAILED" }
        );
        eprintln!(
            "  detail injected={} decode_errors={} lost={} discarded={}",
            injected, stats.decode_errors, stats.frames_lost, stats.entries_discarded
        );
        for rec in &stats.crash_records {
            eprintln!(
                "  crash node={} warm={} crashed_at={} restarted_at={:?} gen_before={} \
                 regenerated_at={:?} first_grant_after={:?}",
                rec.node,
                rec.warm,
                rec.crashed_at,
                rec.restarted_at,
                rec.generation_before,
                rec.regenerated_at,
                rec.first_grant_after
            );
        }
        if !ok {
            eprintln!("outcome: {out:?}");
            eprintln!("stats:   {stats:?}");
        }
    }
    if failed {
        std::process::exit(1);
    }
}

/// Closed-loop wall-clock benchmark: one outstanding request at a time,
/// issued round-robin, each timed submission → grant. The largest granting
/// token dispatch is reported too (Ring sizes none).
fn bench<P: WireProtocol, T: Transport>(args: &Args) {
    let config = ClusterConfig::new(args.n)
        .with_tick(Duration::from_micros(args.tick_us))
        .with_seed(args.seed);
    let cluster: Cluster<P> = Cluster::start_on::<T>(config).unwrap_or_else(|e| {
        eprintln!("cluster: transport setup failed: {e}");
        std::process::exit(1);
    });
    let mut latencies = Vec::with_capacity(args.requests as usize);
    let mut token_bytes_max = 0;
    let start = Instant::now();
    for k in 0..args.requests {
        let node = NodeId::new((k % args.n as u64) as u32);
        let issued = Instant::now();
        cluster.request(node, k);
        let granted = cluster.await_grant_observing(node, Duration::from_secs(30), |_, ev| {
            if let TokenEvent::TokenDispatched { bytes, .. } = ev {
                token_bytes_max = token_bytes_max.max(*bytes);
            }
        });
        if !granted {
            eprintln!("cluster: request {k} to node {node:?} timed out");
            std::process::exit(1);
        }
        latencies.push(issued.elapsed());
    }
    let elapsed = start.elapsed();
    let decode_errors = cluster.decode_errors();
    let reports = cluster.shutdown();
    let clean = reports.iter().all(|r| r.is_clean());

    latencies.sort_unstable();
    let pct = |p: f64| -> Duration {
        let idx = ((latencies.len() as f64) * p).ceil() as usize;
        latencies[idx.clamp(1, latencies.len()) - 1]
    };
    println!(
        "cluster protocol={} transport={} n={} requests={} tick_us={}",
        P::LABEL,
        T::label(),
        args.n,
        args.requests,
        args.tick_us
    );
    println!(
        "served {} requests in {:.3}s  ({:.1} req/s)",
        args.requests,
        elapsed.as_secs_f64(),
        args.requests as f64 / elapsed.as_secs_f64()
    );
    println!(
        "latency p50 {:.3}ms  p90 {:.3}ms  p99 {:.3}ms  max {:.3}ms",
        pct(0.50).as_secs_f64() * 1e3,
        pct(0.90).as_secs_f64() * 1e3,
        pct(0.99).as_secs_f64() * 1e3,
        latencies.last().expect("requests > 0").as_secs_f64() * 1e3
    );
    println!("token bytes max={token_bytes_max}");
    println!("decode_errors={decode_errors} clean_shutdown={clean}");
    if !clean {
        std::process::exit(1);
    }
}

/// Key-addressed closed-loop benchmark on the sharded plane: one
/// outstanding request at a time, each drawn from `--key-dist`, routed by
/// hash to its shard's ring and timed submission → grant.
fn sharded_bench<P: WireProtocol, T: Transport>(args: &Args) {
    use atp_util::rng::{SeedableRng, StdRng};

    let config = ShardedClusterConfig::new(args.n, args.shards)
        .with_tick(Duration::from_micros(args.tick_us))
        .with_seed(args.seed);
    let cluster: ShardedCluster<P> = ShardedCluster::start_on::<T>(config).unwrap_or_else(|e| {
        eprintln!("cluster: transport setup failed: {e}");
        std::process::exit(1);
    });
    let mut rng = StdRng::seed_from_u64(args.seed);
    let mut latencies = Vec::with_capacity(args.requests as usize);
    let start = Instant::now();
    for k in 0..args.requests {
        let key = args.key_dist.draw(&mut rng, 4 * args.n.max(1));
        let issued = Instant::now();
        cluster.request(key, k);
        if !cluster.await_grant(key, Duration::from_secs(30)) {
            eprintln!("cluster: request {k} for key {key:#x} timed out");
            std::process::exit(1);
        }
        latencies.push(issued.elapsed());
    }
    let elapsed = start.elapsed();
    let per_shard = cluster.grants();
    let decode_errors = cluster.decode_errors();
    let reports = cluster.shutdown();
    let clean = reports.iter().all(|r| r.is_clean());

    latencies.sort_unstable();
    let pct = |p: f64| -> Duration {
        let idx = ((latencies.len() as f64) * p).ceil() as usize;
        latencies[idx.clamp(1, latencies.len()) - 1]
    };
    println!(
        "cluster protocol={} transport={} n={} shards={} key_dist={} requests={} tick_us={}",
        P::LABEL,
        T::label(),
        args.n,
        args.shards,
        args.key_dist.label(),
        args.requests,
        args.tick_us
    );
    println!(
        "served {} requests in {:.3}s  ({:.1} req/s)",
        args.requests,
        elapsed.as_secs_f64(),
        args.requests as f64 / elapsed.as_secs_f64()
    );
    println!(
        "latency p50 {:.3}ms  p90 {:.3}ms  p99 {:.3}ms  max {:.3}ms",
        pct(0.50).as_secs_f64() * 1e3,
        pct(0.90).as_secs_f64() * 1e3,
        pct(0.99).as_secs_f64() * 1e3,
        latencies.last().expect("requests > 0").as_secs_f64() * 1e3
    );
    println!(
        "per_shard_grants={per_shard:?} decode_errors={decode_errors} clean_shutdown={clean}"
    );
    if !clean {
        std::process::exit(1);
    }
}
