//! The lazy token stays bounded, and bounding it costs no history.
//!
//! Search and Naimi–Tréhel have no rounds to cut the carried window by, so
//! each possession acks the holder's applied prefix of `H` into the token and
//! the token drops what every node has acked. Two things must then hold in a
//! fault-free run: the token shipped to a grant stops growing once every node
//! has held it, and no node ever meets a gap (an entry it needed already cut),
//! which would send it looking for a state transfer nobody can answer.
//!
//! A cold restart is the one fault the floor cannot cover: the node comes
//! back with nothing applied, and the token no longer carries what every
//! node had applied before the crash. It then recovers that prefix the way
//! a Ring or Binary node does after two rounds, by state transfer from a
//! successor that keeps a log, and the floor waits for it. The last two
//! tests pin both outcomes.

use adaptive_token_passing::core::{
    EventSource, NaimiNode, ProtocolConfig, SearchNode, TokenEvent, TokenNode, Want,
};
use adaptive_token_passing::net::{
    ChanTransport, Node, NodeId, SimTime, Transport, World, WorldConfig,
};
use adaptive_token_passing::sim::cluster::{
    run_on_endpoints, ClusterScript, CrashEvent, DriverOptions,
};
use adaptive_token_passing::sim::{GlobalPoisson, Workload};
use adaptive_token_passing::util::rng::{SeedableRng, StdRng};

/// What a run shows of the token: the encoded size of every granting
/// dispatch in time order, and each node's gap count and applied prefix.
struct Run {
    grants: u64,
    dispatch_bytes: Vec<u64>,
    gaps: Vec<u64>,
    applied: Vec<u64>,
}

/// `node` crashes at tick `at` and is back at tick `back` as a fresh build,
/// as `sim::cluster`'s supervisor restarts a cold victim: everything it had
/// applied is lost.
struct ColdRestart {
    node: u32,
    at: u64,
    back: u64,
}

fn run<P>(build: impl Fn(ProtocolConfig) -> P, n: usize, arrivals: &[(u64, u32)]) -> Run
where
    P: Node<Ext = Want> + TokenNode + EventSource,
{
    let cfg = ProtocolConfig::default().with_record_log(false);
    run_with(build, cfg, n, arrivals, None)
}

fn run_with<P>(
    build: impl Fn(ProtocolConfig) -> P,
    cfg: ProtocolConfig,
    n: usize,
    arrivals: &[(u64, u32)],
    cold: Option<ColdRestart>,
) -> Run
where
    P: Node<Ext = Want> + TokenNode + EventSource,
{
    let mut world: World<P> = World::from_nodes(
        (0..n).map(|_| build(cfg)).collect(),
        WorldConfig::default().seed(1),
    );
    for (k, &(at, node)) in arrivals.iter().enumerate() {
        let want = Want::new(k as u64);
        world.schedule_external(SimTime::from_ticks(at), NodeId::new(node), want);
    }
    let mut dispatches = Vec::new();
    let mut grants = 0;
    let mut tally = |events: Vec<TokenEvent>| {
        for ev in events {
            match ev {
                TokenEvent::TokenDispatched { bytes, at, .. } => dispatches.push((at, bytes)),
                TokenEvent::Granted { .. } => grants += 1,
                _ => {}
            }
        }
    };
    if let Some(cold) = cold {
        let victim = NodeId::new(cold.node);
        world.schedule_crash(SimTime::from_ticks(cold.at), victim);
        world.schedule_recover(SimTime::from_ticks(cold.back), victim);
        world.run_until(SimTime::from_ticks(cold.at));
        tally(world.node_mut(victim).take_events());
        *world.node_mut(victim) = build(cfg);
    }
    let last = arrivals.iter().map(|&(at, _)| at).max().unwrap_or(0);
    world.run_until(SimTime::from_ticks(last + 100 * n as u64));
    for i in 0..n as u32 {
        tally(world.node_mut(NodeId::new(i)).take_events());
    }
    dispatches.sort_by_key(|&(at, _)| at);
    Run {
        grants,
        dispatch_bytes: dispatches.into_iter().map(|(_, bytes)| bytes).collect(),
        gaps: world
            .nodes()
            .map(|(_, node)| node.order().gap_events())
            .collect(),
        applied: world
            .nodes()
            .map(|(_, node)| node.order().applied_seq())
            .collect(),
    }
}

/// One request at a time, node `k mod n` for the `k`th: every grant moves
/// the token to another node.
fn round_robin(n: usize, requests: u64) -> Vec<(u64, u32)> {
    (0..requests)
        .map(|k| (1 + 40 * k, (k % n as u64) as u32))
        .collect()
}

fn assert_flat_and_gap_free(label: &str, run: Run) {
    assert_eq!(run.grants, 2_000, "{label}: every request granted");
    let bytes = &run.dispatch_bytes;
    // Node 0 holds the token at start: its first grant ships nothing.
    assert_eq!(
        bytes.len(),
        1_999,
        "{label}: every later grant is a dispatch"
    );
    let early = bytes[100..200].iter().max().expect("grants 100-200");
    let late = bytes[bytes.len() - 1_000..]
        .iter()
        .max()
        .expect("last 1 000");
    assert!(
        late <= early,
        "{label}: the token grew from {early} B at grants 100-200 to {late} B"
    );
    assert_eq!(run.gaps, vec![0; run.gaps.len()], "{label}: gaps recorded");
}

#[test]
fn search_token_is_flat_and_gap_free_round_robin() {
    let run = run(SearchNode::new, 8, &round_robin(8, 2_000));
    assert_flat_and_gap_free("search", run);
}

#[test]
fn naimi_token_is_flat_and_gap_free_round_robin() {
    let run = run(NaimiNode::new, 8, &round_robin(8, 2_000));
    assert_flat_and_gap_free("naimi", run);
}

/// Poisson arrivals at N = 64 after two round-robin passes that end at node
/// 0, so every node, the first holder too, has acked a non-empty prefix (a
/// node acks what it had applied when the token arrived, before its own
/// grant) and the floor moves. Nodes then take the token in no fixed order,
/// some waiting long between possessions, and the floor waits for them.
/// Search's Poisson phase is short because its linear search floods the
/// control plane at this load after about 2 000 ticks, whatever the token
/// carries; Naimi's runs fifteen times longer.
#[test]
fn poisson_arrivals_at_n64_record_no_gap() {
    const N: usize = 64;
    let arrivals = |horizon: u64| {
        let warm = (1..=2 * N as u64).map(|k| (40 * k, (k % N as u64) as u32));
        let from = 40 * (2 * N as u64 + 1);
        let mut rng = StdRng::seed_from_u64(1);
        let poisson = GlobalPoisson::new(10.0)
            .arrivals(N, SimTime::from_ticks(horizon), &mut rng)
            .into_iter()
            .map(|a| (from + a.at.ticks(), a.node.raw()));
        warm.chain(poisson).collect::<Vec<_>>()
    };
    for (label, run) in [
        ("search", run(SearchNode::new, N, &arrivals(1_000))),
        ("naimi", run(NaimiNode::new, N, &arrivals(15_000))),
    ] {
        assert_eq!(run.gaps, vec![0; N], "{label}: gaps recorded");
        // A token still carrying all of H would take 28 B per grant beside
        // its satisfied window (2N slots of 12 B) and its acks (8 B each).
        let uncut = 28 * run.grants + (2 * 12 + 8) * N as u64;
        let last = *run.dispatch_bytes.last().expect("dispatches");
        assert!(last < uncut, "{label}: nothing cut ({last} B)");
    }
}

/// Search, round-robin at N = 8 as above, with node 3 cold-restarted after
/// the floor has moved: down from request 604 (node 4's grant has taken the
/// token away from it) to request 640, its four requests in between
/// dropped. (Naimi cannot run this: its per-origin duplicate filter drops
/// every request of a node whose request numbers restart at 1, so a
/// cold-restarted Naimi node is never served again and never acks.)
fn cold_restart_run(record_log: bool) -> Run {
    let cold = ColdRestart {
        node: 3,
        at: 40 * 604 + 21,
        back: 40 * 640 + 21,
    };
    let arrivals: Vec<(u64, u32)> = round_robin(8, 2_000)
        .into_iter()
        .filter(|&(at, node)| node != cold.node || at < cold.at || at > cold.back)
        .collect();
    // As `cluster --chaos` runs its crash scenarios.
    let cfg = ProtocolConfig::default()
        .with_regeneration(0)
        .with_token_acks(true)
        .with_record_log(record_log);
    let run = run_with(SearchNode::new, cfg, 8, &arrivals, Some(cold));
    assert_eq!(run.grants, 1_996, "every request to a live node granted");
    run
}

/// With logs kept, as in every simulated run by default, the restarted node
/// meets a gap at its first possession, its successor's `SyncReply` fills
/// it, and it is level with the others by the end. Nobody else records a
/// gap, and once its ack rises again the token is as small as it was.
#[test]
fn cold_restart_recovers_by_state_transfer_and_the_token_flattens_again() {
    let run = cold_restart_run(true);
    assert!(run.gaps[3] > 0, "the floor had passed seq 1");
    let others: Vec<u64> = (0..8).filter(|&i| i != 3).map(|i| run.gaps[i]).collect();
    assert_eq!(others, vec![0; 7], "only the victim meets a gap");
    let last = *run.applied.last().expect("eight nodes");
    let behind: Vec<u64> = run.applied.iter().map(|&a| last - a).collect();
    // Each node is behind the last granter by the grants made after its
    // own last possession: round-robin order, with no exception for 3.
    assert_eq!(behind, vec![7, 6, 5, 4, 3, 2, 1, 0], "everyone caught up");
    let bytes = &run.dispatch_bytes;
    let early = bytes[100..200].iter().max().expect("grants 100-200");
    let late = bytes[bytes.len() - 500..].iter().max().expect("last 500");
    assert!(late <= early, "{early} B early, {late} B late");
}

/// Kept limitation: with no log anywhere (a runtime node keeps none) the
/// restarted node's `SyncRequest` goes unanswered. It stays at 0, acks 0,
/// and the floor stops there, so the token grows again from the last cut,
/// as the unbounded token did; every other node still applies all of H.
#[test]
fn cold_restart_without_logs_stays_behind_and_stops_the_floor() {
    let run = cold_restart_run(false);
    assert_eq!(run.applied[3], 0, "nothing to catch up from");
    let mut others = (0..8).filter(|&i| i != 3).map(|i| run.applied[i]);
    assert!(others.all(|a| a + 7 >= 1_996), "the others apply all of H");
    // Everything granted since the restart is still carried.
    let uncut_since_restart = 28 * (1_996 - 640);
    let last = *run.dispatch_bytes.last().expect("dispatches");
    assert!(last > uncut_since_restart, "the floor moved ({last} B)");
}

/// The same cold restart through `sim::cluster`'s supervisor, over
/// in-process channels: it rebuilds the victim with nothing applied, and
/// re-presents the requests made to it while it was down. With logs on,
/// as there, the victim ends level with the others.
#[test]
fn cold_restart_through_the_supervisor_catches_up() {
    let mut script = ClusterScript::reference(1);
    script.n = 8;
    script.cfg = ProtocolConfig::default()
        .with_regeneration(0)
        .with_token_acks(true);
    script.requests = (0..1_000u64)
        .map(|k| (1 + 40 * k, (k % 8) as u32, k))
        .collect();
    script.horizon = 40 * 1_000 + 800;
    let endpoints = ChanTransport::endpoints(script.n).expect("infallible");
    let opts = DriverOptions {
        crashes: vec![CrashEvent {
            node: 3,
            at: 40 * 404 + 21,
            restart_at: 40 * 440 + 21,
            warm: false,
        }],
        ..DriverOptions::default()
    };
    let (out, stats) = run_on_endpoints::<SearchNode, _>(&script, endpoints, opts);
    assert_eq!(out.grants.len(), 1_000, "every request granted");
    assert_eq!(stats.dual_possession, 0);
    let restarted = stats.crash_records.iter().map(|r| r.restarted_at);
    assert_eq!(restarted.collect::<Vec<_>>(), vec![Some(40 * 440 + 21)]);
    let longest = out.histories.iter().map(|&(len, _)| len).max();
    assert_eq!(longest, Some(1_000));
    let victim = out.histories[3].0;
    assert!(victim + 7 >= 1_000, "the victim stopped at {victim}");
}
