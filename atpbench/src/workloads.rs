//! The six workloads: load generators, correctness gates, and the numbers
//! each round yields. Timed rounds call the program unwrapped; the traced
//! pass of a workload runs the same generator over the wrappers of
//! [`crate::trace`].

use std::collections::VecDeque;
use std::marker::PhantomData;
use std::sync::Arc;
use std::time::{Duration, Instant};

use atp_core::{
    BinaryNode, Cluster, ClusterConfig, ProtocolConfig, RequestId, SearchNode, ShardId,
    ShardedCluster, ShardedClusterConfig, TokenEvent, Want, WireProtocol,
};
use atp_net::{
    ChanEndpoint, ChanTransport, ChaosConfig, ChaosCounters, ChaosEndpoint, CloseReport, NodeId,
    SimTime, TcpTransport, Transport, World, WorldConfig,
};
use atp_sim::runner::{ProtocolNode, ProtocolVisitor};
use atp_sim::stats::percentile_sorted;
use atp_sim::{
    run_experiment, run_experiment_profiled, run_on_endpoints, ClusterScript, CrashEvent,
    DriverOptions, ExperimentSpec, GlobalPoisson, KeyDist, Protocol, RunProfile, RunSummary,
    SpanCollector, Workload,
};
use atp_util::rng::{RngCore, SeedableRng, SplitMix64, StdRng};

use crate::stats::cpu_seconds;
use crate::trace::{self, now_ns, Traced, TracedEndpoint, TracedTransport, Window};

/// Workload names, in the order `all` runs them.
pub const NAMES: [&str; 6] = [
    "sim-fig9-n64",
    "sim-scale-n20k",
    "cluster-tcp-binary",
    "cluster-chan-search-idle",
    "cluster-sharded-k4-zipf",
    "chaos-recover-chan",
];

/// Nodes in every cluster and chaos workload.
const N: usize = 8;
/// Wall-clock length of one protocol tick in the cluster workloads.
const TICK: Duration = Duration::from_micros(200);
/// A request not granted within this long is a failure.
const GRANT_TIMEOUT: Duration = Duration::from_secs(10);

/// What a run was asked to do.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    pub seed: u64,
    /// Target length of the timed rounds together, in seconds.
    pub seconds: f64,
    /// `check`: one short round of everything.
    pub quick: bool,
}

impl Plan {
    /// Timed rounds for a workload whose round takes `nominal_s` seconds on
    /// the host the sizes were pinned on. Rounds are fixed work, so both
    /// commits of a comparison do the same amount of it.
    fn rounds(&self, nominal_s: f64) -> usize {
        if self.quick {
            1
        } else {
            ((self.seconds / nominal_s).round() as usize).max(2)
        }
    }

    /// A size, cut down under `check`.
    fn size(&self, full: u64, quick: u64) -> u64 {
        if self.quick {
            quick
        } else {
            full
        }
    }

    /// Set-ups a run times, so that `setup_s` is a median.
    fn setups(&self) -> usize {
        if self.quick {
            1
        } else {
            5
        }
    }
}

/// A safety violation: the program did something no load or timing excuses.
/// The run ends with exit code 1 and no result line.
pub fn violation(what: &str) -> ! {
    eprintln!("atpbench: SAFETY VIOLATION: {what}");
    std::process::exit(1);
}

/// What one timed round measured. Every plane fills the first five fields;
/// the rest belong to one plane each and stay 0 elsewhere (`main.rs` knows
/// which metric exists on which plane and never reports the zeros).
#[derive(Debug, Clone, Default)]
pub struct Round {
    pub wall_s: f64,
    pub cpu_s: f64,
    pub grants: u64,
    pub attempted: u64,
    pub failed: u64,
    /// `cluster-*`: `request()` call → `Granted` seen by the client.
    pub lat_p50_us: f64,
    pub lat_p99_us: f64,
    /// `sim-*`: `NetSummary.events`, Definition-3 mean responsiveness and
    /// `token_sent + control_sent`.
    pub events: u64,
    pub resp_mean_ticks: f64,
    pub msgs: u64,
    /// `chaos-recover-chan`: scenarios run, and the longest
    /// `first_grant_after − crashed_at` over their `CrashRecord`s.
    pub scenarios: u64,
    pub recovery_ticks_max: f64,
    /// Deterministic counters of the round as bit patterns; on the virtual
    /// planes every round must repeat the first one's exactly.
    pub exact: Vec<u64>,
}

/// A finished untraced run.
#[derive(Debug, Default)]
pub struct Outcome {
    pub rounds: Vec<Round>,
    pub setup_s: Vec<f64>,
}

/// Named per-layer values of a traced pass.
pub type Layers = Vec<(&'static str, f64)>;

/// A finished traced pass.
#[derive(Debug, Default)]
pub struct TracedOutcome {
    pub layers: Layers,
    pub attempted: u64,
    pub failed: u64,
    /// Human-readable cost-budget lines.
    pub budget: Vec<String>,
}

fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}
const FNV_SEED: u64 = 0xcbf2_9ce4_8422_2325;

/// Exits 1 unless every round's exact counters repeat the first round's.
fn determinism_gate(workload: &str, rounds: &[Round]) {
    for (i, r) in rounds.iter().enumerate().skip(1) {
        if r.exact != rounds[0].exact {
            violation(&format!(
                "{workload}: round {i} is not a bit-identical replay of round 0 ({:?} vs {:?})",
                r.exact, rounds[0].exact
            ));
        }
    }
}

fn percentiles_us(ns: &mut [u64]) -> (f64, f64) {
    ns.sort_unstable();
    (
        percentile_sorted(ns, 0.50) as f64 / 1e3,
        percentile_sorted(ns, 0.99) as f64 / 1e3,
    )
}

// ---------------------------------------------------------------------------
// sim-*: `run_experiment` in virtual time
// ---------------------------------------------------------------------------

/// One `run_experiment` call of a sim workload.
#[derive(Debug, Clone, Copy)]
struct SimCall {
    protocol: Protocol,
    n: usize,
    horizon: u64,
    seed: u64,
}

impl SimCall {
    fn spec(&self) -> ExperimentSpec {
        ExperimentSpec::new(self.protocol, self.n, self.horizon).with_seed(self.seed)
    }
}

/// The paper's Figure 9 load, used by both sim workloads: one request every
/// 10 ticks, system-wide.
const FIG9_GAP: f64 = 10.0;
/// Horizon of `sim-fig9-n64` for every protocol but System Search.
const FIG9_HORIZON: u64 = 4_000;
/// System Search's horizon in `sim-fig9-n64`. At this load and N = 64 Search
/// turns into a message storm between tick 1 250 and tick 1 500: a run to
/// 4 000 is 13 M events and 3–5 s where Ring takes 1 ms, and leaves 1–3 % of
/// its requests unserved. To tick 1 000 it is steady (4 500 events a run, no
/// request unserved on 2 000 seeds), so Search runs that far.
const SEARCH_HORIZON: u64 = 1_000;
/// The per-protocol split's metric names, in the order of `Protocol::ALL`.
const PROTO_NS_PER_EVENT: [&str; 4] = [
    "proto.ring.ns_per_event",
    "proto.search.ns_per_event",
    "proto.binary.ns_per_event",
    "proto.naimi.ns_per_event",
];

/// `per_protocol` calls for each of `protocols`, seeds derived from the seed.
fn sim_calls(
    seed: u64,
    protocols: &[(Protocol, u64)],
    n: usize,
    per_protocol: u64,
) -> Vec<SimCall> {
    let mut derive = SplitMix64::new(seed ^ 0x5117_ca11);
    let seeds: Vec<u64> = (0..per_protocol).map(|_| derive.next_u64()).collect();
    protocols
        .iter()
        .flat_map(|&(protocol, horizon)| {
            seeds.iter().map(move |&seed| SimCall {
                protocol,
                n,
                horizon,
                seed,
            })
        })
        .collect()
}

/// What one pass over a list of calls produced.
struct SimPass {
    round: Round,
    summaries: Vec<RunSummary>,
    /// Wall nanoseconds per call, parallel to the calls.
    call_ns: Vec<u64>,
    profile: RunProfile,
}

fn sim_pass(calls: &[SimCall], profiled: bool) -> SimPass {
    let mut summaries = Vec::with_capacity(calls.len());
    let mut call_ns = Vec::with_capacity(calls.len());
    let mut profile = RunProfile::default();
    let cpu0 = cpu_seconds();
    for call in calls {
        let spec = call.spec();
        let mut workload = GlobalPoisson::new(FIG9_GAP);
        let t0 = Instant::now();
        let summary = if profiled {
            let (summary, p) = run_experiment_profiled(&spec, &mut workload);
            profile.merge(&p);
            summary
        } else {
            run_experiment(&spec, &mut workload)
        };
        call_ns.push(t0.elapsed().as_nanos() as u64);
        summaries.push(summary);
    }
    let cpu_s = cpu_seconds() - cpu0;

    let mut round = Round {
        wall_s: call_ns.iter().sum::<u64>() as f64 / 1e9,
        cpu_s,
        ..Round::default()
    };
    let (mut resp_sum, mut resp_count, mut json) = (0.0, 0u64, FNV_SEED);
    for s in &summaries {
        round.grants += s.metrics.grants;
        round.events += s.net.events;
        round.msgs += s.net.token_sent + s.net.control_sent;
        round.attempted += s.metrics.requests;
        round.failed += s.metrics.unserved as u64;
        resp_sum += s.metrics.responsiveness.mean * s.metrics.responsiveness.count as f64;
        resp_count += s.metrics.responsiveness.count as u64;
        json = fnv1a(json, s.to_json().as_bytes());
    }
    round.resp_mean_ticks = resp_sum / resp_count.max(1) as f64;
    round.exact = vec![
        round.resp_mean_ticks.to_bits(),
        round.msgs,
        round.grants,
        round.failed,
        json,
    ];
    SimPass {
        round,
        summaries,
        call_ns,
        profile,
    }
}

/// The calls, the warm-up calls and the nominal round length of a sim workload.
fn sim_shape(workload: &str, plan: &Plan) -> (Vec<SimCall>, Vec<SimCall>, f64) {
    match workload {
        "sim-fig9-n64" => {
            let protocols = Protocol::ALL.map(|p| match p {
                Protocol::Search => (p, SEARCH_HORIZON),
                _ => (p, FIG9_HORIZON),
            });
            let calls = |per| sim_calls(plan.seed, &protocols, 64, per);
            (calls(plan.size(64, 4)), calls(plan.size(16, 1)), 0.4)
        }
        _ => {
            let n = plan.size(20_000, 2_000) as usize;
            let calls = |horizon| sim_calls(plan.seed, &[(Protocol::Binary, horizon)], n, 1);
            // Warm-up builds a world of this size and runs an eighth of the
            // horizon.
            (calls(4 * n as u64), calls(n as u64 / 2), 1.5)
        }
    }
}

pub fn run_sim(workload: &str, plan: &Plan) -> Outcome {
    let mut out = Outcome::default();
    let mut shape = None;
    for _ in 0..plan.setups() {
        let t0 = Instant::now();
        let (calls, warm, nominal_s) = sim_shape(workload, plan);
        let pass = sim_pass(&warm, false);
        out.setup_s.push(t0.elapsed().as_secs_f64());
        if pass.round.failed > 0 {
            eprintln!(
                "atpbench: {workload}: {} warm-up requests unserved",
                pass.round.failed
            );
        }
        shape = Some((calls, nominal_s));
    }
    let (calls, nominal_s) = shape.expect("at least one set-up");
    for _ in 0..plan.rounds(nominal_s) {
        out.rounds.push(sim_pass(&calls, false).round);
    }
    determinism_gate(workload, &out.rounds);
    out
}

/// History entries applied, over all nodes, and grants of one call's
/// arrivals driven through a bare `World`. `run_experiment` keeps its nodes
/// to itself and the sim workloads switch `Delivered` events off, so this
/// counted pass reads each node's applied length once the run is over.
fn history_applications(call: &SimCall) -> (u64, u64) {
    struct Count<'a>(&'a SimCall);
    impl ProtocolVisitor for Count<'_> {
        type Out = (u64, u64);
        fn run<P: ProtocolNode>(self) -> (u64, u64) {
            let spec = self.0.spec();
            let nodes = (0..spec.n).map(|_| P::build(spec.cfg)).collect();
            let mut world: World<P> =
                World::from_nodes(nodes, WorldConfig::default().seed(spec.seed));
            let horizon = SimTime::from_ticks(spec.horizon_ticks);
            let mut rng = StdRng::seed_from_u64(spec.seed);
            for a in GlobalPoisson::new(FIG9_GAP).arrivals(spec.n, horizon, &mut rng) {
                world.schedule_external(a.at, a.node, Want::new(a.payload));
            }
            world.run_until(horizon.saturating_add(spec.net.grace_for(spec.n)));
            world.nodes().fold((0, 0), |(applied, grants), (_, node)| {
                (applied + node.applied_len(), grants + node.grants_count())
            })
        }
    }
    call.protocol.dispatch(Count(call))
}

pub fn trace_sim(workload: &str, plan: &Plan) -> TracedOutcome {
    let (calls, warm, _) = sim_shape(workload, plan);
    sim_pass(&warm, false);
    let plain = sim_pass(&calls, false);
    let prof = sim_pass(&calls, true);
    if prof.round.exact != plain.round.exact {
        violation(&format!(
            "{workload}: the profiled pass is not a replay of the plain one"
        ));
    }
    // The per-protocol split of the plain pass.
    let mut layers = Layers::new();
    for (protocol, name) in Protocol::ALL.into_iter().zip(PROTO_NS_PER_EVENT) {
        let (mut ns, mut events) = (0u64, 0u64);
        for ((call, s), &call_ns) in calls.iter().zip(&plain.summaries).zip(&plain.call_ns) {
            if call.protocol == protocol {
                ns += call_ns;
                events += s.net.events;
            }
        }
        layers.push((
            name,
            if events == 0 {
                0.0
            } else {
                ns as f64 / events as f64
            },
        ));
    }
    let grants = plain.round.grants.max(1) as f64;
    let (mut forwards, mut max_forwards, mut search_bytes, mut dispatch_bytes) =
        (0u64, 0u64, 0u64, 0u64);
    for s in &plain.summaries {
        forwards += s.spans.search_msgs;
        max_forwards = max_forwards.max(s.spans.max_forwards);
        search_bytes += s.spans.search_bytes;
        dispatch_bytes += s.spans.dispatch_bytes;
    }
    let (applied, counted_grants) = calls
        .iter()
        .map(history_applications)
        .fold((0, 0), |(a, g), (applied, grants)| {
            (a + applied, g + grants)
        });
    let p = prof.profile;
    let steps = p.steps.max(1) as f64;
    let wall_ns = prof.round.wall_s * 1e9;
    layers.extend([
        (
            "sim_ns_per_event",
            plain.round.wall_s * 1e9 / plain.round.events.max(1) as f64,
        ),
        ("sim_us_per_grant", plain.round.wall_s * 1e6 / grants),
        ("proto.forwards_per_grant", forwards as f64 / grants),
        ("proto.max_forwards", max_forwards as f64),
        (
            "order.deliveries_per_grant",
            applied as f64 / counted_grants.max(1) as f64,
        ),
        ("order.deliver_share", p.deliver_ns as f64 / wall_ns),
        ("codec.search_bytes_per_grant", search_bytes as f64 / grants),
        (
            "codec.dispatch_bytes_per_grant",
            dispatch_bytes as f64 / grants,
        ),
        ("world.pop_ns_per_event", p.pop_ns as f64 / steps),
        ("world.deliver_ns_per_event", p.deliver_ns as f64 / steps),
        (
            "world.cascades_per_kevent",
            p.sched.cascades as f64 * 1e3 / steps,
        ),
        ("runner.drain_ns_per_event", p.drain_ns as f64 / steps),
    ]);
    let sum_ns = (p.pop_ns + p.deliver_ns + p.drain_ns) as f64;
    let budget = vec![format!(
        "budget {workload} (profiled pass): pop {:.1} ms + deliver {:.1} ms + drain {:.1} ms = {:.1} ms \
         of {:.1} ms wall ({:.1} % accounted)",
        p.pop_ns as f64 / 1e6,
        p.deliver_ns as f64 / 1e6,
        p.drain_ns as f64 / 1e6,
        sum_ns / 1e6,
        wall_ns / 1e6,
        100.0 * sum_ns / wall_ns
    )];
    TracedOutcome {
        layers,
        attempted: plain.round.attempted,
        failed: plain.round.failed,
        budget,
    }
}

// ---------------------------------------------------------------------------
// cluster-*: the threaded runtime in wall-clock time
// ---------------------------------------------------------------------------

/// Watches a cluster's merged event stream: the safety gates, and the counts
/// a client can take without touching the program.
struct Observer {
    /// Per token (shard): the request holding it, `Granted` and not yet
    /// `Released`.
    holder: Vec<Option<RequestId>>,
    /// Per shard and origin: a bitmap over sequence numbers already granted.
    granted: Vec<Vec<Vec<u64>>>,
    /// Request-lifecycle spans; only the traced pass keeps them.
    spans: Option<Vec<SpanCollector>>,
    events: u64,
    grants: u64,
    deliveries: u64,
    per_shard: Vec<u64>,
}

impl Observer {
    fn new(shards: usize, with_spans: bool) -> Self {
        Observer {
            holder: vec![None; shards],
            granted: vec![vec![Vec::new(); N]; shards],
            spans: with_spans.then(|| (0..shards).map(|_| SpanCollector::new()).collect()),
            events: 0,
            grants: 0,
            deliveries: 0,
            per_shard: vec![0; shards],
        }
    }

    /// Forgets the counts of the round before; the token state carries over.
    fn begin_round(&mut self) {
        self.events = 0;
        self.grants = 0;
        self.deliveries = 0;
    }

    fn on_event(&mut self, shard: usize, ev: &TokenEvent) {
        self.events += 1;
        match ev {
            TokenEvent::Granted { req, .. } => {
                if let Some(held) = self.holder[shard] {
                    violation(&format!(
                        "shard {shard}: {req:?} granted while {held:?} still holds the token"
                    ));
                }
                let bitmap = &mut self.granted[shard][req.origin.index()];
                let (word, bit) = ((req.seq / 64) as usize, 1u64 << (req.seq % 64));
                if bitmap.len() <= word {
                    bitmap.resize(word + 1, 0);
                }
                if bitmap[word] & bit != 0 {
                    violation(&format!("shard {shard}: {req:?} granted twice"));
                }
                bitmap[word] |= bit;
                self.holder[shard] = Some(*req);
                self.grants += 1;
                self.per_shard[shard] += 1;
            }
            TokenEvent::Released { req, .. } => {
                if self.holder[shard] != Some(*req) {
                    violation(&format!(
                        "shard {shard}: {req:?} released but the holder is {:?}",
                        self.holder[shard]
                    ));
                }
                self.holder[shard] = None;
            }
            TokenEvent::Delivered { .. } => self.deliveries += 1,
            _ => {}
        }
        if let Some(spans) = &mut self.spans {
            spans[shard].on_event(ev);
        }
    }
}

/// The client side of a cluster workload: one generator thread, its
/// observer, and what it timed.
struct Load {
    obs: Observer,
    keys: StdRng,
    next: u64,
    lat_ns: Vec<u64>,
    attempted: u64,
    failed: u64,
    /// Requests issued and not yet granted.
    outstanding: u64,
    /// Request windows on the trace clock; only the traced pass keeps them.
    windows: Option<Vec<Window>>,
    /// Nanoseconds inside `request()` calls, when `windows` is kept.
    call_ns: u64,
}

impl Load {
    fn new(seed: u64, shards: usize, traced: bool) -> Self {
        Load {
            obs: Observer::new(shards, traced),
            keys: StdRng::seed_from_u64(seed ^ 0x6b65_7973),
            next: 0,
            lat_ns: Vec::new(),
            attempted: 0,
            failed: 0,
            outstanding: 0,
            windows: traced.then(Vec::new),
            call_ns: 0,
        }
    }

    fn begin_round(&mut self) {
        self.obs.begin_round();
        self.lat_ns.clear();
        self.attempted = 0;
        self.failed = 0;
    }

    /// Times one `request()` call; returns when it was issued.
    fn issue(&mut self, request: impl FnOnce(u64)) -> u64 {
        let payload = self.next;
        self.next += 1;
        self.attempted += 1;
        self.outstanding += 1;
        let start_ns = now_ns();
        request(payload);
        if self.windows.is_some() {
            self.call_ns += now_ns() - start_ns;
        }
        start_ns
    }

    fn granted(&mut self, start_ns: u64, node: u32) {
        let end_ns = now_ns();
        self.lat_ns.push(end_ns - start_ns);
        self.outstanding -= 1;
        if let Some(windows) = &mut self.windows {
            windows.push(Window {
                start_ns,
                end_ns,
                node,
            });
        }
    }

    /// Gives up on every outstanding request: each is a failure that missed
    /// every latency limit.
    fn timed_out(&mut self) {
        eprintln!("atpbench: {} request(s) timed out", self.outstanding);
        self.failed += self.outstanding;
        (0..self.outstanding).for_each(|_| self.lat_ns.push(GRANT_TIMEOUT.as_nanos() as u64));
        self.outstanding = 0;
    }
}

/// A running cluster a [`Load`] can drive.
trait Plane: Sized {
    const SHARDS: usize;
    fn start(seed: u64) -> std::io::Result<Self>;
    /// Issues `count` requests and returns once each is granted or timed out.
    fn drive(&self, load: &mut Load, count: u64);
    /// Stops the node threads: their close reports and the decode errors.
    fn stop(self) -> (Vec<CloseReport>, u64);
}

/// `Cluster<P>` over `T`: one client, requests round-robin over the nodes.
struct Single<P: WireProtocol, T>(Cluster<P>, PhantomData<T>);

impl<P: WireProtocol, T: Transport> Plane for Single<P, T> {
    const SHARDS: usize = 1;

    fn start(seed: u64) -> std::io::Result<Self> {
        let config = ClusterConfig::new(N).with_tick(TICK).with_seed(seed);
        Ok(Single(Cluster::start_on::<T>(config)?, PhantomData))
    }

    fn drive(&self, load: &mut Load, count: u64) {
        for _ in 0..count {
            let node = NodeId::new((load.next % N as u64) as u32);
            let start_ns = load.issue(|payload| self.0.request(node, payload));
            loop {
                let Ok((who, ev)) = self.0.events().recv_timeout(GRANT_TIMEOUT) else {
                    load.timed_out();
                    break;
                };
                load.obs.on_event(0, &ev);
                if who == node && matches!(ev, TokenEvent::Granted { .. }) {
                    load.granted(start_ns, node.raw());
                    break;
                }
            }
        }
    }

    fn stop(self) -> (Vec<CloseReport>, u64) {
        let decode_errors = self.0.decode_errors();
        (self.0.shutdown(), decode_errors)
    }
}

/// Shards of the sharded workload.
const K: u16 = 4;
/// Requests the sharded workload's generator keeps outstanding.
const CLIENTS: u64 = 4;

/// `ShardedCluster<P>` over `T`: [`CLIENTS`] requests outstanding, the next
/// issued on each `Granted`, keys Zipf over `4 * N`.
struct Sharded<P: WireProtocol, T>(ShardedCluster<P>, PhantomData<T>);

impl<P: WireProtocol, T: Transport> Plane for Sharded<P, T> {
    const SHARDS: usize = K as usize;

    fn start(seed: u64) -> std::io::Result<Self> {
        let config = ShardedClusterConfig::new(N, K)
            .with_tick(TICK)
            .with_seed(seed);
        Ok(Sharded(ShardedCluster::start_on::<T>(config)?, PhantomData))
    }

    fn drive(&self, load: &mut Load, count: u64) {
        // A shard's home takes its `Want`s in the order they were sent, so its
        // `Requested` events name the requests in issue order; grants may
        // then come in another order, and are matched by request id.
        let mut sent: Vec<VecDeque<u64>> = vec![VecDeque::new(); K as usize];
        let mut named: Vec<Vec<(RequestId, u64)>> = vec![Vec::new(); K as usize];
        let issue = |load: &mut Load, sent: &mut Vec<VecDeque<u64>>| {
            let key = KeyDist::Zipf.draw(&mut load.keys, 4 * N);
            let mut shard = ShardId(0);
            let start_ns = load.issue(|payload| shard = self.0.request(key, payload));
            sent[shard.index()].push_back(start_ns);
        };
        let mut issued = count.min(CLIENTS);
        (0..issued).for_each(|_| issue(load, &mut sent));
        let mut done = 0u64;
        while done < count {
            let Ok((shard, _, ev)) = self.0.events().recv_timeout(GRANT_TIMEOUT) else {
                load.timed_out();
                return;
            };
            let s = shard.index();
            load.obs.on_event(s, &ev);
            match ev {
                TokenEvent::Requested { req, .. } => {
                    if let Some(start_ns) = sent[s].pop_front() {
                        named[s].push((req, start_ns));
                    }
                }
                TokenEvent::Granted { req, .. } => {
                    if let Some(i) = named[s].iter().position(|(r, _)| *r == req) {
                        let (_, start_ns) = named[s].swap_remove(i);
                        load.granted(start_ns, self.0.map().home(shard).raw());
                        done += 1;
                        if issued < count {
                            issue(load, &mut sent);
                            issued += 1;
                        }
                    }
                }
                _ => {}
            }
        }
    }

    fn stop(self) -> (Vec<CloseReport>, u64) {
        let decode_errors = self.0.decode_errors();
        (self.0.shutdown(), decode_errors)
    }
}

/// Request counts and the nominal round length of a cluster workload.
struct ClusterShape {
    round: u64,
    warm: u64,
    nominal_s: f64,
    /// The workload's `trace.overhead_share.*` metric.
    overhead: &'static str,
}

fn stop_clean<Pl: Plane>(workload: &str, plane: Pl) {
    let (reports, decode_errors) = plane.stop();
    if let Some(r) = reports.iter().find(|r| !r.is_clean()) {
        violation(&format!("{workload}: unclean shutdown {r:?}"));
    }
    if decode_errors > 0 {
        violation(&format!(
            "{workload}: {decode_errors} decode errors on a fault-free run"
        ));
    }
}

fn start_or_exit<Pl: Plane>(workload: &str, seed: u64) -> Pl {
    Pl::start(seed).unwrap_or_else(|e| {
        eprintln!("atpbench: {workload}: transport set-up failed: {e}");
        std::process::exit(1);
    })
}

/// One timed round of `shape.round` requests.
fn cluster_round<Pl: Plane>(plane: &Pl, load: &mut Load, count: u64) -> Round {
    load.begin_round();
    let cpu0 = cpu_seconds();
    let t0 = Instant::now();
    plane.drive(load, count);
    let wall_s = t0.elapsed().as_secs_f64();
    let cpu_s = cpu_seconds() - cpu0;
    let (lat_p50_us, lat_p99_us) = percentiles_us(&mut load.lat_ns);
    Round {
        wall_s,
        cpu_s,
        grants: load.obs.grants,
        attempted: load.attempted,
        failed: load.failed,
        lat_p50_us,
        lat_p99_us,
        ..Round::default()
    }
}

fn run_cluster<Pl: Plane>(workload: &str, plan: &Plan, shape: &ClusterShape) -> Outcome {
    let mut out = Outcome::default();
    let mut running = None;
    for _ in 0..plan.setups() {
        if let Some((plane, _)) = running.take() {
            stop_clean(workload, plane);
        }
        let t0 = Instant::now();
        let plane: Pl = start_or_exit(workload, plan.seed);
        let mut load = Load::new(plan.seed, Pl::SHARDS, false);
        plane.drive(&mut load, shape.warm);
        out.setup_s.push(t0.elapsed().as_secs_f64());
        running = Some((plane, load));
    }
    let (plane, mut load) = running.expect("at least one set-up");
    for _ in 0..plan.rounds(shape.nominal_s) {
        out.rounds
            .push(cluster_round(&plane, &mut load, shape.round));
    }
    stop_clean(workload, plane);
    out
}

/// One untraced round on `Pl`, then the same round on its traced twin `Tr`.
fn trace_cluster<Pl: Plane, Tr: Plane>(
    workload: &str,
    plan: &Plan,
    shape: &ClusterShape,
    out_dir: &std::path::Path,
) -> TracedOutcome {
    let plane: Pl = start_or_exit(workload, plan.seed);
    let mut load = Load::new(plan.seed, Pl::SHARDS, false);
    plane.drive(&mut load, shape.warm);
    let plain = cluster_round(&plane, &mut load, shape.round);
    stop_clean(workload, plane);

    trace::set_recording(true, true);
    let plane: Tr = start_or_exit(workload, plan.seed);
    let mut load = Load::new(plan.seed, Tr::SHARDS, true);
    plane.drive(&mut load, shape.warm);
    let warm_grants = load.obs.grants;
    load.windows = Some(Vec::new());
    load.call_ns = 0;
    load.begin_round();
    let kept = shape.round.min(trace::KEPT_REQUESTS as u64);
    let t0 = Instant::now();
    plane.drive(&mut load, kept);
    trace::stop_keeping();
    plane.drive(&mut load, shape.round - kept);
    let wall_s = t0.elapsed().as_secs_f64();
    stop_clean(workload, plane);
    trace::set_recording(false, false);
    let mut t = trace::take();

    let mut windows = load.windows.take().expect("the traced load keeps windows");
    windows.truncate(kept as usize);
    let first_ns = windows.first().map_or(0, |w| w.start_ns);
    t.spans.retain(|s| s.start_ns >= first_ns);
    let owner = trace::attribute(&windows, &t.spans);
    let b = trace::budget(&windows, &t.spans, &owner);
    let path = out_dir.join(format!("trace-{workload}.jsonl"));
    if let Err(e) = trace::write_jsonl(&path, &windows, &t.spans, &owner) {
        eprintln!("atpbench: cannot write {}: {e}", path.display());
        std::process::exit(1);
    }

    let (traced_p50_us, _) = percentiles_us(&mut load.lat_ns);
    let grants = load.obs.grants.max(1) as f64;
    // Wrapper counters run from the first warm-up request.
    let all_grants = (warm_grants + load.obs.grants).max(1) as f64;
    let mut report = atp_sim::SpanReport::default();
    for spans in load.obs.spans.iter().flatten() {
        report.merge(&spans.report());
    }
    let closed = report.closed.max(1) as f64;
    let per_shard = &load.obs.per_shard;
    let skew = *per_shard.iter().max().expect("at least one shard") as f64 * per_shard.len() as f64
        / per_shard.iter().sum::<u64>().max(1) as f64;
    let layers = vec![
        ("grant_latency_p50_us", plain.lat_p50_us),
        ("grant_latency_p99_us", plain.lat_p99_us),
        ("proto.step_ns_per_grant", b.kind_ns[trace::PROTO_STEP]),
        (
            "proto.forwards_per_grant",
            report.search_msgs as f64 / closed,
        ),
        ("proto.max_forwards", report.max_forwards as f64),
        (
            "order.deliveries_per_grant",
            load.obs.deliveries as f64 / grants,
        ),
        (
            "codec.token_frame_bytes",
            t.token_bytes as f64 / t.token_frames.max(1) as f64,
        ),
        ("codec.encode_ns_per_grant", b.kind_ns[trace::CODEC_ENCODE]),
        ("codec.decode_ns_per_grant", b.kind_ns[trace::CODEC_DECODE]),
        (
            "codec.search_bytes_per_grant",
            report.search_bytes as f64 / closed,
        ),
        (
            "codec.dispatch_bytes_per_grant",
            report.dispatch_bytes as f64 / closed,
        ),
        ("shard.skew", skew),
        (
            "runtime.request_call_ns",
            load.call_ns as f64 / load.attempted.max(1) as f64,
        ),
        ("runtime.events_per_grant", load.obs.events as f64 / grants),
        ("runtime.residual_ns_per_grant", b.residual_ns),
        ("runtime.budget_accounted_share", b.accounted_share),
        ("transport.frames_per_grant", t.frames as f64 / all_grants),
        ("transport.bytes_per_grant", t.bytes as f64 / all_grants),
        ("transport.flushes_per_grant", t.flushes as f64 / all_grants),
        (
            "transport.frames_per_flush",
            t.frames as f64 / t.flushes.max(1) as f64,
        ),
        (
            "transport.stage_flush_ns_per_grant",
            b.kind_ns[trace::STAGE_FLUSH],
        ),
        (
            "transport.recv_wait_ns_per_grant",
            b.kind_ns[trace::RECV_WAIT],
        ),
        (
            "transport.recv_timeouts_per_grant",
            t.recv_timeouts as f64 / all_grants,
        ),
        (shape.overhead, traced_p50_us / plain.lat_p50_us - 1.0),
    ];

    let rows: f64 = b.kind_ns[..trace::BUSY_KINDS].iter().sum::<f64>() + b.residual_ns;
    let budget = vec![
        format!(
            "budget {workload} (first {} traced requests, ns per grant): proto.step {:.0} + \
             codec.encode {:.0} + codec.decode {:.0} + transport.stage_flush {:.0} + \
             runtime.residual {:.0} = {:.0} of grant latency {:.0} ({:.1} %)",
            b.requests,
            b.kind_ns[trace::PROTO_STEP],
            b.kind_ns[trace::CODEC_ENCODE],
            b.kind_ns[trace::CODEC_DECODE],
            b.kind_ns[trace::STAGE_FLUSH],
            b.residual_ns,
            rows,
            b.latency_ns,
            100.0 * rows / b.latency_ns
        ),
        format!(
            "budget {workload}: runtime.budget_accounted_share {:.4}; beside it, not summed (the \
             nodes wait in parallel): transport.recv_wait {:.0} ns per grant; traced round \
             {:.0} grants/s, p50 {:.1} us against {:.1} us untraced",
            b.accounted_share,
            b.kind_ns[trace::RECV_WAIT],
            load.obs.grants as f64 / wall_s,
            traced_p50_us,
            plain.lat_p50_us
        ),
    ];
    TracedOutcome {
        layers,
        attempted: plain.attempted + load.attempted,
        failed: plain.failed + load.failed,
        budget,
    }
}

fn cluster_shape(workload: &str, plan: &Plan) -> ClusterShape {
    match workload {
        "cluster-tcp-binary" => ClusterShape {
            round: plan.size(8_000, 400),
            warm: plan.size(800, 80),
            nominal_s: 1.35,
            overhead: "trace.overhead_share.cluster-tcp-binary",
        },
        // 5.3 ms a request: 1 000 of them put ten samples beyond a round's p99.
        "cluster-chan-search-idle" => ClusterShape {
            round: plan.size(1_000, 40),
            warm: N as u64,
            nominal_s: 5.3,
            overhead: "trace.overhead_share.cluster-chan-search-idle",
        },
        _ => ClusterShape {
            round: plan.size(40_000, 2_000),
            warm: plan.size(2_000, 200),
            nominal_s: 1.2,
            overhead: "trace.overhead_share.cluster-sharded-k4-zipf",
        },
    }
}

type TcpBinary<P> = Single<P, TcpTransport>;
type ChanSearch<P> = Single<P, ChanTransport>;
type ShardedChan<P> = Sharded<P, ChanTransport>;

pub fn run_cluster_workload(workload: &str, plan: &Plan) -> Outcome {
    let shape = cluster_shape(workload, plan);
    match workload {
        "cluster-tcp-binary" => run_cluster::<TcpBinary<BinaryNode>>(workload, plan, &shape),
        "cluster-chan-search-idle" => run_cluster::<ChanSearch<SearchNode>>(workload, plan, &shape),
        _ => run_cluster::<ShardedChan<BinaryNode>>(workload, plan, &shape),
    }
}

pub fn trace_cluster_workload(
    workload: &str,
    plan: &Plan,
    out_dir: &std::path::Path,
) -> TracedOutcome {
    let shape = cluster_shape(workload, plan);
    match workload {
        "cluster-tcp-binary" => trace_cluster::<
            TcpBinary<BinaryNode>,
            Single<Traced<BinaryNode>, TracedTransport<TcpTransport>>,
        >(workload, plan, &shape, out_dir),
        "cluster-chan-search-idle" => trace_cluster::<
            ChanSearch<SearchNode>,
            Single<Traced<SearchNode>, TracedTransport<ChanTransport>>,
        >(workload, plan, &shape, out_dir),
        _ => trace_cluster::<
            ShardedChan<BinaryNode>,
            Sharded<Traced<BinaryNode>, TracedTransport<ChanTransport>>,
        >(workload, plan, &shape, out_dir),
    }
}

// ---------------------------------------------------------------------------
// chaos-recover-chan: crash–restart scenarios on the virtual-clock driver
// ---------------------------------------------------------------------------

/// One pinned crash scenario of `cluster --chaos`.
struct Scenario {
    name: &'static str,
    crashes: &'static [CrashEvent],
    /// Late traffic appended to the reference script.
    extra_requests: &'static [(u64, u32, u64)],
}

/// The kill/restart matrix of `crates/sim/src/bin/cluster.rs`, which keeps
/// it private: the same victims, ticks and late requests.
const SCENARIOS: [Scenario; 3] = [
    Scenario {
        name: "warm-token-loss",
        crashes: &[CrashEvent {
            node: 3,
            at: 40,
            restart_at: 110,
            warm: true,
        }],
        extra_requests: &[],
    },
    Scenario {
        name: "cold-defer",
        crashes: &[CrashEvent {
            node: 4,
            at: 60,
            restart_at: 130,
            warm: false,
        }],
        extra_requests: &[],
    },
    Scenario {
        name: "double-crash",
        crashes: &[
            CrashEvent {
                node: 3,
                at: 40,
                restart_at: 110,
                warm: true,
            },
            CrashEvent {
                node: 1,
                at: 260,
                restart_at: 330,
                warm: true,
            },
        ],
        extra_requests: &[(160, 1, 111), (280, 0, 121), (360, 2, 131)],
    },
];

/// Harness and chaos seeds per protocol and scenario in one round.
const CHAOS_SEEDS: u64 = 64;
/// Seeds of a warm-up pass (the round's first ones).
const WARM_SEEDS: u64 = 8;

type ChaosChan = TracedEndpoint<ChaosEndpoint<ChanEndpoint>>;

/// Sums over the scenarios of one chaos round.
#[derive(Default)]
struct ChaosSums {
    grants: u64,
    requests: u64,
    unserved: u64,
    applied: u64,
    wait_ticks: u64,
    recovery_ticks: u64,
    /// One window per scenario run, in run order.
    windows: Vec<Window>,
    /// `(protocol, scenario, seed, unserved)` of every scenario with
    /// unserved requests.
    failing: Vec<(&'static str, &'static str, u64, u64)>,
}

/// Runs one scenario for protocol `P` and folds its outcome into `sums`.
/// Exits 1 on any safety violation.
fn chaos_scenario<P: ProtocolNode>(idx: usize, seed: u64, sums: &mut ChaosSums) {
    let scenario = &SCENARIOS[idx];
    let start_ns = now_ns();
    let mut script = ClusterScript::reference(seed);
    script.cfg = ProtocolConfig::default()
        .with_regeneration(0)
        .with_token_acks(true);
    script.horizon = 600;
    script.requests.extend_from_slice(scenario.extra_requests);
    let mut chaos = ChaosConfig::new(seed ^ ((idx as u64 + 1) << 32))
        .corrupt(10)
        .protect(16);
    if scenario.crashes.len() > 1 {
        chaos = chaos.truncate(3).disconnect(3);
    }
    let raw = ChanTransport::endpoints(script.n).expect("the channel transport is infallible");
    let inner: Vec<ChaosEndpoint<ChanEndpoint>> = raw
        .into_iter()
        .map(|ep| ChaosEndpoint::new(ep, chaos))
        .collect();
    let counters: Vec<Arc<ChaosCounters>> = inner.iter().map(ChaosEndpoint::counters).collect();
    let endpoints: Vec<ChaosChan> = inner.into_iter().map(TracedEndpoint).collect();
    let opts = DriverOptions {
        crashes: scenario.crashes.to_vec(),
        check_oracles: true,
        loss_grace: Duration::from_millis(750),
        ..DriverOptions::default()
    };
    let (out, stats) = run_on_endpoints::<P, ChaosChan>(&script, endpoints, opts);
    let end_ns = now_ns();

    let what = || format!("chaos {} {} seed {seed}", P::LABEL, scenario.name);
    if out.duplicate_grants() > 0 {
        violation(&format!(
            "{}: {} duplicate grants",
            what(),
            out.duplicate_grants()
        ));
    }
    if stats.dual_possession > 0 {
        violation(&format!("{}: same-generation dual possession", what()));
    }
    if !ChaosCounters::all_accounted_for(&counters) {
        violation(&format!("{}: an injected fault went undetected", what()));
    }
    if let Some(r) = stats.close_reports.iter().find(|r| !r.is_clean()) {
        violation(&format!("{}: unclean close {r:?}", what()));
    }

    // Ticks every request waited, for the determinism gate: a node serves its
    // own requests in order, so its i-th grant answers its i-th scripted
    // request; a request deferred past an outage waits from the tick the
    // script issued it.
    for origin in 0..script.n as u32 {
        let mut asked: Vec<u64> = script
            .requests
            .iter()
            .filter(|r| r.1 == origin)
            .map(|r| r.0)
            .collect();
        asked.sort_unstable();
        let served = out.grants.iter().filter(|g| g.1 == origin).map(|g| g.0);
        sums.wait_ticks += asked
            .iter()
            .zip(served)
            .map(|(a, g)| g.saturating_sub(*a))
            .sum::<u64>();
    }
    let unserved = (script.requests.len() as u64).saturating_sub(out.grants.len() as u64);
    if unserved > 0 {
        sums.failing.push((P::LABEL, scenario.name, seed, unserved));
    }
    sums.grants += out.grants.len() as u64;
    sums.requests += script.requests.len() as u64;
    sums.unserved += unserved;
    sums.applied += out.histories.iter().map(|h| h.0).sum::<u64>();
    for rec in &stats.crash_records {
        if let Some(first) = rec.first_grant_after {
            sums.recovery_ticks = sums.recovery_ticks.max(first - rec.crashed_at);
        }
    }
    sums.windows.push(Window {
        start_ns,
        end_ns,
        node: idx as u32,
    });
}

/// Every protocol × scenario for each of the round's seeds, seeds outermost
/// so the first twelve calls already cover every cell. `traced` hosts the
/// nodes in [`Traced`]; the endpoints are wrapped either way, counting frames
/// only while span recording is off.
fn chaos_round(
    plan: &Plan,
    seeds: u64,
    traced: bool,
    keep_calls: usize,
) -> (Round, ChaosSums, trace::ThreadTrace) {
    struct Cell<'a> {
        idx: usize,
        seed: u64,
        traced: bool,
        sums: &'a mut ChaosSums,
    }
    impl ProtocolVisitor for Cell<'_> {
        type Out = ();
        fn run<P: ProtocolNode>(self) {
            if self.traced {
                chaos_scenario::<Traced<P>>(self.idx, self.seed, self.sums);
            } else {
                chaos_scenario::<P>(self.idx, self.seed, self.sums);
            }
        }
    }
    let seeds = plan.size(seeds, 2);
    let first = plan
        .seed
        .wrapping_sub(1)
        .wrapping_mul(CHAOS_SEEDS)
        .wrapping_add(1);
    let mut sums = ChaosSums::default();
    let cpu0 = cpu_seconds();
    for seed in (0..seeds).map(|i| first.wrapping_add(i)) {
        for protocol in Protocol::ALL {
            for idx in 0..SCENARIOS.len() {
                if sums.windows.len() == keep_calls {
                    trace::stop_keeping();
                }
                protocol.dispatch(Cell {
                    idx,
                    seed,
                    traced,
                    sums: &mut sums,
                });
            }
        }
    }
    let cpu_s = cpu_seconds() - cpu0;
    let t = trace::take();
    let wall_ns: u64 = sums.windows.iter().map(|w| w.end_ns - w.start_ns).sum();
    let round = Round {
        wall_s: wall_ns as f64 / 1e9,
        cpu_s,
        grants: sums.grants,
        attempted: sums.requests,
        failed: sums.unserved,
        scenarios: sums.windows.len() as u64,
        recovery_ticks_max: sums.recovery_ticks as f64,
        exact: vec![
            sums.wait_ticks,
            t.frames,
            sums.grants,
            sums.recovery_ticks,
            sums.unserved,
            sums.applied,
        ],
        ..Round::default()
    };
    (round, sums, t)
}

fn report_failing(sums: &ChaosSums) {
    for (protocol, scenario, seed, unserved) in &sums.failing {
        eprintln!("atpbench: chaos-recover-chan: unserved={unserved} protocol={protocol} scenario={scenario} seed={seed}");
    }
}

pub fn run_chaos(plan: &Plan) -> Outcome {
    let mut out = Outcome::default();
    for _ in 0..plan.setups() {
        let t0 = Instant::now();
        chaos_round(plan, WARM_SEEDS, false, 0);
        out.setup_s.push(t0.elapsed().as_secs_f64());
    }
    for i in 0..plan.rounds(0.6) {
        let (round, sums, _) = chaos_round(plan, CHAOS_SEEDS, false, 0);
        if i == 0 {
            report_failing(&sums);
        }
        out.rounds.push(round);
    }
    determinism_gate("chaos-recover-chan", &out.rounds);
    out
}

pub fn trace_chaos(plan: &Plan, out_dir: &std::path::Path) -> TracedOutcome {
    let workload = "chaos-recover-chan";
    /// Scenarios whose spans are kept: two seeds of every cell.
    const KEPT_CALLS: usize = 24;
    chaos_round(plan, WARM_SEEDS, false, 0);
    let (plain, _, _) = chaos_round(plan, CHAOS_SEEDS, false, 0);
    trace::set_recording(true, true);
    let (traced, sums, mut t) = chaos_round(plan, CHAOS_SEEDS, true, KEPT_CALLS);
    trace::set_recording(false, false);
    if traced.exact != plain.exact {
        violation(&format!(
            "{workload}: the traced round is not a replay of the plain one"
        ));
    }

    let windows = &sums.windows[..KEPT_CALLS.min(sums.windows.len())];
    let last_ns = windows.last().map_or(0, |w| w.end_ns);
    t.spans.retain(|s| s.start_ns <= last_ns);
    let owner = trace::attribute(windows, &t.spans);
    let path = out_dir.join(format!("trace-{workload}.jsonl"));
    if let Err(e) = trace::write_jsonl(&path, windows, &t.spans, &owner) {
        eprintln!("atpbench: cannot write {}: {e}", path.display());
        std::process::exit(1);
    }

    // One driver thread hosts every node, so busy spans never overlap: the
    // union is their sum, and the rest of the wall time is the driver's own.
    let grants = traced.grants.max(1) as f64;
    let busy_ns: u64 = t.busy_ns[..trace::BUSY_KINDS].iter().sum();
    let wall_ns = traced.wall_s * 1e9;
    let scenario_us = |r: &Round| r.wall_s * 1e6 / r.scenarios as f64;
    let layers = vec![
        ("chaos_scenario_us", scenario_us(&plain)),
        (
            "proto.step_ns_per_grant",
            t.busy_ns[trace::PROTO_STEP] as f64 / grants,
        ),
        ("order.deliveries_per_grant", sums.applied as f64 / grants),
        (
            "codec.token_frame_bytes",
            t.token_bytes as f64 / t.token_frames.max(1) as f64,
        ),
        (
            "codec.encode_ns_per_grant",
            t.busy_ns[trace::CODEC_ENCODE] as f64 / grants,
        ),
        (
            "codec.decode_ns_per_grant",
            t.busy_ns[trace::CODEC_DECODE] as f64 / grants,
        ),
        (
            "runtime.residual_ns_per_grant",
            (wall_ns - busy_ns as f64) / grants,
        ),
        ("runtime.budget_accounted_share", busy_ns as f64 / wall_ns),
        ("transport.frames_per_grant", t.frames as f64 / grants),
        ("transport.bytes_per_grant", t.bytes as f64 / grants),
        ("transport.flushes_per_grant", t.flushes as f64 / grants),
        (
            "transport.frames_per_flush",
            t.frames as f64 / t.flushes.max(1) as f64,
        ),
        (
            "transport.stage_flush_ns_per_grant",
            t.busy_ns[trace::STAGE_FLUSH] as f64 / grants,
        ),
        (
            "transport.recv_wait_ns_per_grant",
            t.busy_ns[trace::RECV_WAIT] as f64 / grants,
        ),
        (
            "transport.recv_timeouts_per_grant",
            t.recv_timeouts as f64 / grants,
        ),
        (
            "trace.overhead_share.chaos-recover-chan",
            scenario_us(&traced) / scenario_us(&plain) - 1.0,
        ),
    ];
    TracedOutcome {
        layers,
        attempted: plain.attempted,
        failed: plain.failed,
        budget: Vec::new(),
    }
}
