//! The sharded multi-token plane: K independent protocol instances on a
//! consistent-hash ring, driven in lockstep on one virtual clock.
//!
//! A single token serializes every grant; the plane splits the key space
//! into `K` shards (see [`atp_core::ShardMap`]) and runs one full
//! protocol instance — its own token, generation space, and history line
//! — per shard, over the same `n` nodes. Requests are **key-addressed**:
//! a client asks for a key, the key hashes to a shard, and the request
//! enters that shard's instance. Shards never exchange frames, so
//! aggregate saturation throughput scales with `K` until per-node work
//! (every node participates in all `K` instances) becomes the bottleneck.
//!
//! Two things live here:
//!
//! 1. [`ShardPlaneSpec::run`] — a closed-loop saturation workload for the
//!    `table_shards` experiment: a fixed client population draws keys
//!    from a [`KeyDist`], each client re-issuing (possibly into a
//!    different shard) as soon as its previous grant is released.
//! 2. [`gen_shard_case`] — the key-addressed case space of deterministic
//!    simulation testing. Its cases are ordinary [`DstCase`]s with K
//!    shards, run by [`crate::dst::run_case`] and explored by
//!    [`crate::dst::Explorer`] like single-token ones; a fault injected
//!    into shard *i* must never block or delay grants in any other shard.
//!
//! Determinism: the K worlds advance in lockstep — always step the world
//! with the earliest pending event, ties broken by lowest shard id
//! ([`earliest_world`], shared with the DST driver) — so every client draw
//! happens at a globally ordered instant and a spec replays byte-identically
//! regardless of host parallelism.

use std::collections::VecDeque;

use atp_core::{ProtocolConfig, ShardId, ShardMap, TokenEvent, Want};
use atp_net::{NodeId, SimTime, StepOutcome, World, WorldConfig};
use atp_util::check::Gen;
use atp_util::dist::zipf;
use atp_util::rng::{Rng, RngCore, SeedableRng, SplitMix64, StdRng};

use crate::dst::{DstCase, Mutation, StrategySpec};
use crate::runner::{Protocol, ProtocolNode, ProtocolVisitor};

/// Key popularity distribution for key-addressed request streams.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KeyDist {
    /// Every key in the universe equally likely.
    Uniform,
    /// Zipf(s = 1.0): rank 0 is the hottest key — the classic skew that
    /// concentrates load on whichever shard the hot keys hash to.
    Zipf,
}

impl KeyDist {
    /// Stable label (`--key-dist` flag values, report rows).
    pub fn label(self) -> &'static str {
        match self {
            KeyDist::Uniform => "uniform",
            KeyDist::Zipf => "zipf",
        }
    }

    /// Parses a [`KeyDist::label`] back.
    pub fn from_label(s: &str) -> Option<KeyDist> {
        match s {
            "uniform" => Some(KeyDist::Uniform),
            "zipf" => Some(KeyDist::Zipf),
            _ => None,
        }
    }

    /// Draws a key from `0..universe`.
    pub fn draw(self, rng: &mut dyn RngCore, universe: usize) -> u64 {
        match self {
            KeyDist::Uniform => rng.next_u64() % universe as u64,
            KeyDist::Zipf => zipf(rng, universe, 1.0) as u64,
        }
    }
}

/// The node a key's requests enter at — a pure function of the key, so a
/// key always arrives at the same replica (client-side affinity), spread
/// uniformly over the ring.
fn entry_node(key: u64, n: usize) -> NodeId {
    NodeId::new((SplitMix64::new(key ^ 0xe17a_90dd_c0de_5eed).next_u64() % n as u64) as u32)
}

/// Shard `s`'s world: `n` nodes built from `cfg`, seeded `seed ^ (s << 32)`
/// so shard 0 runs the base seed itself.
pub(crate) fn shard_world<N: ProtocolNode>(
    n: usize,
    cfg: ProtocolConfig,
    world_cfg: WorldConfig,
    seed: u64,
    s: u16,
) -> World<N> {
    let nodes = (0..n).map(|_| N::build(cfg)).collect();
    World::from_nodes(nodes, world_cfg.seed(seed ^ (u64::from(s) << 32)))
}

/// The lockstep pick: the time of the earliest pending event across
/// `worlds` and the world holding it, lowest index on ties; `None` once
/// every world is quiescent.
pub(crate) fn earliest_world<N: ProtocolNode>(worlds: &[World<N>]) -> Option<(SimTime, usize)> {
    let mut best: Option<(SimTime, usize)> = None;
    for (s, w) in worlds.iter().enumerate() {
        if let Some(t) = w.next_event_time() {
            if best.is_none_or(|(bt, _)| t < bt) {
                best = Some((t, s));
            }
        }
    }
    best
}

// ---------------------------------------------------------------------------
// Closed-loop saturation plane (the `table_shards` experiment driver)
// ---------------------------------------------------------------------------

/// One sharded-plane run: protocol, geometry, workload.
#[derive(Debug, Clone)]
pub struct ShardPlaneSpec {
    /// Protocol every shard runs.
    pub protocol: Protocol,
    /// Nodes in the plane; every node participates in every shard.
    pub n: usize,
    /// Independent token shards.
    pub shards: u16,
    /// Seed for world schedules and client key draws.
    pub seed: u64,
    /// Per-shard protocol tunables (`initial_holder` is overridden with
    /// the shard's consistent-hash owner).
    pub cfg: ProtocolConfig,
    /// Measured window in ticks; grants after this instant don't count.
    pub horizon: u64,
    /// Closed-loop client population (each has exactly one request in
    /// flight).
    pub clients: usize,
    /// Distinct keys clients draw from.
    pub key_universe: usize,
    /// Key popularity.
    pub key_dist: KeyDist,
    /// Ticks between a client's release and its next request (min 1).
    pub think_ticks: u64,
}

impl ShardPlaneSpec {
    /// A saturation spec with the defaults the experiment tables use.
    pub fn new(protocol: Protocol, n: usize, shards: u16) -> Self {
        ShardPlaneSpec {
            protocol,
            n,
            shards,
            seed: 7,
            // A nonzero critical section puts the run in the saturation
            // regime: with free service the token batch-serves whole
            // queues per visit and never becomes the bottleneck, so
            // shard count would measure nothing.
            cfg: ProtocolConfig::default().with_service_ticks(2),
            horizon: 10_000,
            clients: 4 * n,
            key_universe: 256,
            key_dist: KeyDist::Uniform,
            think_ticks: 1,
        }
    }

    /// Overrides the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Overrides the measured horizon.
    pub fn with_horizon(mut self, ticks: u64) -> Self {
        self.horizon = ticks;
        self
    }

    /// Overrides the client population.
    pub fn with_clients(mut self, clients: usize) -> Self {
        self.clients = clients;
        self
    }

    /// Overrides the key distribution.
    pub fn with_key_dist(mut self, dist: KeyDist) -> Self {
        self.key_dist = dist;
        self
    }

    /// Runs the plane to its horizon and reports per-shard counters.
    pub fn run(&self) -> ShardSummary {
        struct RunPlane<'a>(&'a ShardPlaneSpec);
        impl ProtocolVisitor for RunPlane<'_> {
            type Out = ShardSummary;
            fn run<N: ProtocolNode>(self) -> Self::Out {
                drive_plane::<N>(self.0)
            }
        }
        self.protocol.dispatch(RunPlane(self))
    }
}

/// Counters from a completed plane run.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardSummary {
    /// Shard count the run used.
    pub shards: u16,
    /// Node count.
    pub n: usize,
    /// Measured window in ticks.
    pub horizon: u64,
    /// Grants inside the window, per shard.
    pub grants: Vec<u64>,
    /// Events each shard's world dispatched or consumed.
    pub events: Vec<u64>,
    /// Requests issued (initial population + closed-loop re-issues).
    pub issued: u64,
    /// Consistent-hash owner of each shard (token home).
    pub owners: Vec<u32>,
}

impl ShardSummary {
    /// Grants across all shards inside the window.
    pub fn total_grants(&self) -> u64 {
        self.grants.iter().sum()
    }

    /// Aggregate saturation throughput, grants per 1000 ticks.
    pub fn throughput_per_ktick(&self) -> f64 {
        self.total_grants() as f64 * 1000.0 / self.horizon as f64
    }
}

fn drive_plane<N: ProtocolNode>(spec: &ShardPlaneSpec) -> ShardSummary {
    assert!(spec.n > 0 && spec.shards > 0 && spec.horizon > 0);
    let k = spec.shards as usize;
    let map = ShardMap::new(spec.shards, spec.n);
    let think = spec.think_ticks.max(1);

    let mut worlds: Vec<World<N>> = (0..spec.shards)
        .map(|s| {
            let cfg = spec.cfg.with_initial_holder(map.owner(ShardId(s)));
            let mut w = shard_world(spec.n, cfg, WorldConfig::default(), spec.seed, s);
            w.init();
            w
        })
        .collect();

    // One shared client RNG: draws happen at globally ordered instants
    // (the lockstep loop below), so the stream is schedule-deterministic.
    let mut rng = StdRng::seed_from_u64(spec.seed ^ 0x0c11_e4f5_1a7e_u64);
    // FIFO of clients with a request outstanding at (shard, entry node);
    // a release at that pair completes the front client's request.
    let mut pending: Vec<Vec<VecDeque<u64>>> = vec![vec![VecDeque::new(); spec.n]; k];
    let mut summary = ShardSummary {
        shards: spec.shards,
        n: spec.n,
        horizon: spec.horizon,
        grants: vec![0; k],
        events: vec![0; k],
        issued: 0,
        owners: map.owners().to_vec(),
    };

    let deadline = SimTime::from_ticks(spec.horizon);
    // Issue with explicit world access so the borrow checker lets the
    // main loop re-issue while holding per-world state.
    let issue = |worlds: &mut Vec<World<N>>,
                     pending: &mut Vec<Vec<VecDeque<u64>>>,
                     rng: &mut StdRng,
                     issued: &mut u64,
                     client: u64,
                     at: u64| {
        let key = spec.key_dist.draw(rng, spec.key_universe);
        let sid = map.shard_of_key(key);
        let entry = entry_node(key, spec.n);
        worlds[sid.index()].schedule_external(SimTime::from_ticks(at), entry, Want::new(client));
        pending[sid.index()][entry.index()].push_back(client);
        *issued += 1;
    };

    for c in 0..spec.clients as u64 {
        issue(
            &mut worlds,
            &mut pending,
            &mut rng,
            &mut summary.issued,
            c,
            1 + c % 4,
        );
    }

    let mut drained: Vec<TokenEvent> = Vec::new();
    // Lockstep: every world's clock stays at or behind the earliest pending
    // event, so a re-issue at `at + think` is in every world's future.
    while let Some((t, s)) = earliest_world(&worlds) {
        if t > deadline {
            break;
        }
        summary.events[s] += 1;
        match worlds[s].step() {
            StepOutcome::Quiescent | StepOutcome::Consumed { .. } => {}
            StepOutcome::Dispatched { node, at } => {
                drained.clear();
                worlds[s].node_mut(node).take_events_into(&mut drained);
                for ev in &drained {
                    match *ev {
                        TokenEvent::Granted { at, .. } => {
                            if at <= deadline {
                                summary.grants[s] += 1;
                            }
                        }
                        TokenEvent::Released { at, .. } => {
                            if let Some(client) = pending[s][node.index()].pop_front() {
                                let next_at = at.ticks() + think;
                                if next_at <= spec.horizon {
                                    issue(
                                        &mut worlds,
                                        &mut pending,
                                        &mut rng,
                                        &mut summary.issued,
                                        client,
                                        next_at,
                                    );
                                }
                            }
                        }
                        _ => {}
                    }
                }
                let _ = at;
            }
        }
    }
    summary
}

// ---------------------------------------------------------------------------
// Key-addressed DST cases (run by `crate::dst`)
// ---------------------------------------------------------------------------

/// Draws a sharded-plane [`DstCase`] for `protocol` from `g`'s tape: K
/// shards with their consistent-hash owners as initial holders,
/// key-addressed requests resolved to `(shard, entry node)` through the
/// [`ShardMap`], and at most one crash or partition, confined to one shard
/// so the others can witness isolation. Links are loss-free, unit latency.
///
/// Independent of [`crate::dst::gen_case`], whose draw order is frozen by
/// the checked-in tapes; this space keeps its own. Total over the all-zero
/// tape: 2 nodes, 1 shard, one request at t=0, no fault, FIFO.
pub fn gen_shard_case(g: &mut Gen, protocol: Protocol, mutation: Mutation) -> DstCase {
    let n = g.gen_range(2..=6usize);
    let shards = g.gen_range(1..=5u32) as u16;
    let map = ShardMap::new(shards, n);
    let world_seed = g.next_u64();
    let requests = g.vec(1..17, |g| {
        let t = g.gen_range(0..=160u64);
        let key = g.gen_range(0..=0xFFFFu64);
        let payload = g.gen_range(0..1000u64);
        (
            t,
            map.shard_of_key(key).0,
            entry_node(key, n).raw(),
            payload,
        )
    });

    let mut cfg = ProtocolConfig::default()
        .with_service_ticks(g.gen_range(0..=2u64))
        .with_single_outstanding(g.gen_bool(0.5))
        .with_serve_all_on_grant(g.gen_bool(0.5));
    if g.gen_bool(0.25) {
        cfg = cfg
            .with_adaptive_speed(true)
            .with_idle_pass_ticks(g.gen_range(0..=2u64));
    }
    if mutation == Mutation::BadPrefixSkip {
        cfg = cfg.with_bad_prefix_skip(true);
    }

    // Faults only make sense with a bystander shard to observe isolation.
    // The driver arms the faulted shard's recovery (`DstCase::shard_cfg`).
    let (mut crash, mut partition, mut fault_shard) = (None, None, 0);
    if shards >= 2 && g.gen_bool(0.5) {
        fault_shard = g.gen_range(0..u32::from(shards)) as u16;
        let at = g.gen_range(0..120u64);
        if g.gen_bool(0.5) {
            let node = g.gen_range(0..n as u32);
            crash = Some((at, node, at + g.gen_range(1..100u64)));
        } else {
            let heal_at = at + g.gen_range(8..=80u64);
            partition = Some((at, heal_at, g.gen_range(1..n as u32)));
        }
    }

    let strategy = match g.gen_range(0..4u32) {
        0 => StrategySpec::Fifo,
        1 => StrategySpec::Lifo,
        2 => StrategySpec::Shuffle(g.next_u64()),
        _ => StrategySpec::Choices(g.vec(1..17, |g| g.next_u64())),
    };

    DstCase {
        protocol,
        n,
        shards,
        holders: map.owners().to_vec(),
        world_seed,
        latency: (1, 1),
        drop_p: 0.0,
        requests,
        crash,
        cfg,
        strategy,
        link_loss_p: 0.0,
        link_dup_p: 0.0,
        partition,
        fault_shard,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dst::{run_case, CaseSpace, ExploreOutcome, Explorer};

    #[test]
    fn plane_serves_every_shard_and_replays_identically() {
        let spec = ShardPlaneSpec::new(Protocol::Binary, 6, 4)
            .with_horizon(4_000)
            .with_clients(24);
        let a = spec.run();
        assert_eq!(a.grants.len(), 4);
        assert!(
            a.grants.iter().all(|&g| g > 0),
            "every shard must serve under a uniform key stream: {:?}",
            a.grants
        );
        assert!(a.issued > 24, "closed loop must re-issue");
        let b = spec.run();
        assert_eq!(a, b, "plane runs must be deterministic");
    }

    #[test]
    fn aggregate_throughput_scales_with_shard_count() {
        // Enough clients that no shard ever idles waiting for the key
        // stream to swing back to it — K=1 is already saturated, so the
        // extra population only matters for the sharded run.
        let one = ShardPlaneSpec::new(Protocol::Binary, 8, 1)
            .with_horizon(6_000)
            .with_clients(96)
            .run();
        let four = ShardPlaneSpec::new(Protocol::Binary, 8, 4)
            .with_horizon(6_000)
            .with_clients(96)
            .run();
        let (t1, t4) = (one.throughput_per_ktick(), four.throughput_per_ktick());
        assert!(
            t4 >= 3.0 * t1,
            "K=4 must give >= 3x the K=1 aggregate throughput, got {t1:.1} -> {t4:.1}"
        );
    }

    #[test]
    fn zipf_keys_still_reach_every_shard() {
        let s = ShardPlaneSpec::new(Protocol::Naimi, 5, 3)
            .with_horizon(4_000)
            .with_clients(20)
            .with_key_dist(KeyDist::Zipf)
            .run();
        assert!(s.total_grants() > 0);
        assert!(
            s.grants.iter().filter(|&&g| g > 0).count() >= 2,
            "zipf stream should still hit multiple shards: {:?}",
            s.grants
        );
    }

    #[test]
    fn crash_in_one_shard_never_blocks_the_others() {
        // Hand-built case: requests spread over 4 shards, crash in the
        // shard key 0 routes to. Every oracle must hold.
        let (n, map) = (5, ShardMap::new(4, 5));
        let faulted = map.shard_of_key(0);
        let case = DstCase {
            protocol: Protocol::Binary,
            n,
            shards: 4,
            holders: map.owners().to_vec(),
            world_seed: 11,
            latency: (1, 1),
            drop_p: 0.0,
            requests: (0..12u64)
                .map(|i| {
                    let key = i % 6;
                    (4 * i, map.shard_of_key(key).0, entry_node(key, n).raw(), i)
                })
                .collect(),
            crash: Some((10, map.owner(faulted), 60)),
            cfg: ProtocolConfig::default(),
            strategy: StrategySpec::Fifo,
            link_loss_p: 0.0,
            link_dup_p: 0.0,
            partition: None,
            fault_shard: faulted.0,
        };
        assert!(
            case.requests.iter().any(|&(_, s, ..)| s != faulted.0),
            "no bystander shard carries a request"
        );
        let stats = run_case(&case).expect("isolation must hold");
        assert!(stats.grants > 0);
        assert!(stats.oracle_checks > 0);
    }

    #[test]
    fn explorer_is_clean_across_all_protocols() {
        for protocol in Protocol::ALL {
            let explorer =
                Explorer::new(protocol, 0xA11CE, Mutation::None).with_space(CaseSpace::Sharded);
            match explorer.explore(25) {
                ExploreOutcome::Clean { cases, .. } => assert_eq!(cases, 25),
                ExploreOutcome::Found(cx) => {
                    panic!("{}: {}\n{}", protocol.label(), cx.violation, cx.case_debug)
                }
            }
        }
    }

    #[test]
    fn shard_cases_shrink_and_replay_from_their_tapes() {
        let mut g = Gen::from_seed(99);
        let case = gen_shard_case(&mut g, Protocol::Ring, Mutation::None);
        let tape = g.tape().to_vec();
        let replayed =
            CaseSpace::Sharded.gen(&mut Gen::from_tape(tape), Protocol::Ring, Mutation::None);
        assert_eq!(format!("{case:?}"), format!("{replayed:?}"));
        // The all-zero tape is the minimal total case.
        let smallest = gen_shard_case(&mut Gen::from_tape(vec![]), Protocol::Ring, Mutation::None);
        assert_eq!(smallest.n, 2);
        assert_eq!(smallest.shards, 1);
        assert!(smallest.crash.is_none() && smallest.partition.is_none());
        run_case(&smallest).expect("minimal case is benign");
    }
}
